//! Steady-state allocation-freedom of the conv/linear hot paths and of a
//! whole CVAE train step.
//!
//! The blocked GEMM and the implicit-GEMM convolution draw all scratch —
//! packed panels and filter banks, padded image copies, column gradients —
//! from the thread-local [`fg_tensor::workspace`] pool, and the layers
//! recycle their cached-input tensors via `cache_tensor`. After one warm-up iteration populates the
//! pool, further train iterations on the same shapes must never touch the
//! allocator for scratch: the instrumented [`workspace::alloc_events`]
//! counter has to stay flat.
//!
//! (Output tensors returned to the caller are per-call allocations by API
//! design and are not counted; the contract covers workspace scratch.)
//!
//! `alloc_events` counts the calling thread's allocations, and
//! `with_threads(1)` keeps every workspace request of a measured region on
//! that thread, so sibling tests cannot move the reading.

use fg_nn::conv_layer::Conv2d;
use fg_nn::linear::Linear;
use fg_nn::{Layer, Module};
use fg_tensor::rng::SeededRng;
use fg_tensor::workspace;
use fg_tensor::Tensor;
use rayon::with_threads;

/// How many workspace allocations `f` performed on this thread.
fn alloc_delta(f: impl FnOnce()) -> u64 {
    let before = workspace::alloc_events();
    f();
    workspace::alloc_events() - before
}

/// One full train step through a conv → linear stack: forward with caching,
/// loss-less synthetic gradient, backward with gradient accumulation.
fn train_step(conv: &mut Conv2d, fc: &mut Linear, x: &Tensor, batch: usize) {
    conv.zero_grad();
    fc.zero_grad();
    let y = conv.forward(x, true);
    let flat = y.clone().reshape(&[batch, fc.in_features()]);
    let logits = fc.forward(&flat, true);
    let d_logits = Tensor::ones(logits.dims());
    let d_flat = fc.backward(&d_logits);
    let d_y = d_flat.clone().reshape(y.dims());
    conv.backward(&d_y);
}

#[test]
fn conv_and_linear_hot_paths_are_allocation_free_after_warmup() {
    // One thread so every workspace request hits the same thread-local pool;
    // multi-thread runs are covered by the schedule-invariance suite.
    with_threads(1, || {
        let mut rng = SeededRng::new(99);
        let batch = 4;
        let mut conv = Conv2d::new(1, 8, 3, 1, &mut rng);
        let mut fc = Linear::new(8 * 12 * 12, 10, &mut rng);
        let x = Tensor::randn(&[batch, 1, 12, 12], &mut rng);

        // Warm-up: populates the workspace pool and the layer input caches.
        for _ in 0..2 {
            train_step(&mut conv, &mut fc, &x, batch);
        }

        let delta = alloc_delta(|| {
            for _ in 0..8 {
                train_step(&mut conv, &mut fc, &x, batch);
            }
        });
        assert_eq!(
            delta, 0,
            "steady-state conv/linear train steps must perform zero workspace allocations"
        );
    });
}

#[test]
fn a_whole_cvae_train_step_is_allocation_free_after_warmup() {
    use fg_nn::models::{Cvae, CvaeSpec};
    use fg_nn::Adam;

    with_threads(1, || {
        // The Fast preset's CVAE on one client's epoch: full batches of 32
        // and the 6-row tail, through every stage of the step — one-hot and
        // concat, four linear layers each way, ReLU/BCE/KL,
        // reparameterisation, Adam.
        let mut rng = SeededRng::new(7);
        let mut cvae = Cvae::new(&CvaeSpec::reduced(100, 8), &mut rng);
        let mut adam = Adam::new(2e-3);
        let batches: Vec<(Tensor, Vec<usize>)> = [32usize, 6]
            .iter()
            .map(|&b| {
                (
                    Tensor::rand_uniform(&[b, 784], 0.0, 1.0, &mut rng),
                    (0..b).map(|i| i % 10).collect(),
                )
            })
            .collect();
        let mut epoch = |cvae: &mut Cvae, rng: &mut SeededRng| {
            for (x, y) in &batches {
                cvae.train_batch(x, y, &mut adam, rng);
            }
        };

        for _ in 0..2 {
            epoch(&mut cvae, &mut rng);
        }
        let delta = alloc_delta(|| {
            for _ in 0..4 {
                epoch(&mut cvae, &mut rng);
            }
        });
        assert_eq!(delta, 0, "warm CVAE train steps must perform zero workspace allocations");
    });
}

#[test]
fn warm_scoring_paths_are_allocation_free() {
    use fg_nn::models::{BatchedClassifier, Classifier, ClassifierSpec};

    with_threads(1, || {
        let spec = ClassifierSpec::Mlp { hidden: 32 };
        let mut rng = SeededRng::new(41);
        let models: Vec<Vec<f32>> =
            (0..3).map(|_| Classifier::new(&spec, &mut rng).get_params()).collect();
        let views: Vec<&[f32]> = models.iter().map(|m| m.as_slice()).collect();
        let x = Tensor::randn(&[20, 784], &mut rng);
        let y: Vec<usize> = (0..20).map(|i| i % 10).collect();

        // Warm-up: populate the workspace pool and the eval staging buffer.
        let mut seq = Classifier::from_params(&spec, views[0]);
        let batched = BatchedClassifier::new(&spec, &views);
        for _ in 0..2 {
            seq.evaluate(&x, &y, 8);
            batched.evaluate(&x, &y, 8);
        }

        let delta = alloc_delta(|| {
            for _ in 0..4 {
                seq.evaluate(&x, &y, 8);
                batched.evaluate(&x, &y, 8);
            }
        });
        assert_eq!(
            delta, 0,
            "warm sequential and batched scoring must perform zero workspace allocations"
        );

        // The server's per-round evaluation: one Table II model through the
        // same scorer, ragged last mini-batch included.
        let spec = ClassifierSpec::TableIICnn;
        let psi = Classifier::new(&spec, &mut rng).get_params();
        let global = BatchedClassifier::new(&spec, &[&psi]);
        let (x, y) = (Tensor::randn(&[6, 784], &mut rng), vec![3usize; 6]);
        for _ in 0..2 {
            global.evaluate(&x, &y, 4);
        }
        let delta = alloc_delta(|| {
            global.evaluate(&x, &y, 4);
        });
        assert_eq!(delta, 0, "a warm m = 1 evaluation must perform zero workspace allocations");
    });
}

#[test]
fn shape_change_repopulates_then_settles() {
    with_threads(1, || {
        let mut rng = SeededRng::new(100);
        let mut conv = Conv2d::new(1, 4, 3, 1, &mut rng);
        let mut fc = Linear::new(4 * 10 * 10, 5, &mut rng);

        let small = Tensor::randn(&[2, 1, 10, 10], &mut rng);
        let big = Tensor::randn(&[6, 1, 10, 10], &mut rng);

        train_step(&mut conv, &mut fc, &small, 2);
        // A bigger batch may grow buffers once, and the first alternating
        // cycles may still shuffle the pool population...
        train_step(&mut conv, &mut fc, &big, 6);
        for _ in 0..2 {
            train_step(&mut conv, &mut fc, &big, 6);
            train_step(&mut conv, &mut fc, &small, 2);
        }
        // ...but after that, alternating between already-seen shapes stays
        // allocation-free: the pool holds the larger buffers and best-fit
        // serves the smaller shape from them or from its own entries.
        let delta = alloc_delta(|| {
            for _ in 0..4 {
                train_step(&mut conv, &mut fc, &big, 6);
                train_step(&mut conv, &mut fc, &small, 2);
            }
        });
        assert_eq!(delta, 0, "re-seen shapes must hit the pool");
    });
}
