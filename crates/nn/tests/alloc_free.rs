//! Steady-state allocation-freedom of the classifier's train step, of a
//! whole CVAE train step and of the warm scoring paths.
//!
//! The blocked GEMM and the implicit-GEMM convolution draw all scratch —
//! packed panels and filter banks, padded image copies, column gradients —
//! from the thread-local [`fg_tensor::workspace`] pool, and so do the
//! classifier engine's activation slabs, the ones its training forward
//! keeps for the backward walk included; the CVAE's step keeps no caches,
//! its activations are locals of the step. After one warm-up iteration
//! populates the pool, further train iterations on the same shapes must
//! never touch the allocator for scratch: the instrumented
//! [`workspace::alloc_events`] counter has to stay flat.
//!
//! (Output tensors returned to the caller are per-call allocations by API
//! design and are not counted; the contract covers workspace scratch.)
//!
//! `alloc_events` counts the calling thread's allocations, and
//! `with_threads(1)` keeps every workspace request of a measured region on
//! that thread, so sibling tests cannot move the reading. (With more
//! threads a buffer may be dropped on another thread than the one that
//! took it; it still goes back to its taker's pool, which
//! `workspace::tests::a_buffer_dropped_on_another_thread_goes_home` pins.)

use fg_nn::models::{Classifier, ClassifierSpec};
use fg_nn::Sgd;
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

/// A Table II classifier and the clients' optimizer: every conv, pool, ReLU
/// and linear layer of the engine, forward and backward, in one step.
fn table_ii(rng: &mut SeededRng) -> (Classifier, Sgd) {
    (Classifier::new(&ClassifierSpec::TableIICnn, rng), Sgd::with_momentum(0.05, 0.9))
}

/// `n` seeded images with labels.
fn images(n: usize, rng: &mut SeededRng) -> (Tensor, Vec<usize>) {
    (Tensor::rand_uniform(&[n, 784], 0.0, 1.0, rng), (0..n).map(|i| i % 10).collect())
}

#[test]
fn conv_and_linear_hot_paths_are_allocation_free_after_warmup() {
    // One thread so every workspace request hits the same thread-local pool;
    // multi-thread runs are covered by the schedule-invariance suite.
    with_threads(1, || {
        let mut rng = SeededRng::new(99);
        let (mut clf, mut sgd) = table_ii(&mut rng);
        let (x, y) = images(4, &mut rng);

        // Warm-up: populates the workspace pool.
        for _ in 0..2 {
            clf.train_batch(&x, &y, &mut sgd);
        }

        let delta = alloc_delta(|| {
            for _ in 0..8 {
                clf.train_batch(&x, &y, &mut sgd);
            }
        });
        assert_eq!(
            delta, 0,
            "steady-state conv/linear train steps must perform zero workspace allocations"
        );
    });
}

#[test]
fn an_mlp_train_step_is_allocation_free_after_warmup() {
    with_threads(1, || {
        // The presets' MLP on full batches of 32 and a ragged tail of 6.
        let mut rng = SeededRng::new(98);
        let mut clf = Classifier::new(&ClassifierSpec::Mlp { hidden: 64 }, &mut rng);
        let mut sgd = Sgd::with_momentum(0.1, 0.9);
        let batches = [images(32, &mut rng), images(6, &mut rng)];
        let mut epoch = || {
            for (x, y) in &batches {
                clf.train_batch(x, y, &mut sgd);
            }
        };
        for _ in 0..2 {
            epoch();
        }
        let delta = alloc_delta(|| {
            for _ in 0..4 {
                epoch();
            }
        });
        assert_eq!(delta, 0, "warm MLP train steps must perform zero workspace allocations");
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

        // Warm-up: populate the workspace pool.
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
        let (mut clf, mut sgd) = table_ii(&mut rng);
        let small = images(2, &mut rng);
        let big = images(6, &mut rng);
        let mut step = |(x, y): &(Tensor, Vec<usize>)| {
            clf.train_batch(x, y, &mut sgd);
        };

        step(&small);
        // A bigger batch may grow buffers once, and the first alternating
        // cycles may still shuffle the pool population...
        step(&big);
        for _ in 0..2 {
            step(&big);
            step(&small);
        }
        // ...but after that, alternating between already-seen shapes stays
        // allocation-free: the pool holds the larger buffers and best-fit
        // serves the smaller shape from them or from its own entries.
        let delta = alloc_delta(|| {
            for _ in 0..4 {
                step(&big);
                step(&small);
            }
        });
        assert_eq!(delta, 0, "re-seen shapes must hit the pool");
    });
}
