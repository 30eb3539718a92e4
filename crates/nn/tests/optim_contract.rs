//! The optimizer contract every model's `train_batch` relies on.
//!
//! `Optimizer::step` consumes the gradient: it applies it and leaves every
//! element `+0.0`, which is why no `train_batch` zeroes gradients before its
//! backward pass. And Adam's hoisted bias correction is still Adam: over 200
//! steps of the presets' reduced CVAE it tracks Adam evaluated in f64 on the
//! same weights and gradients.

use fg_nn::models::{Classifier, ClassifierSpec, Cvae, CvaeSpec, Vae, VaeSpec};
use fg_nn::optim::{Adam, Optimizer, Sgd};
use fg_nn::{params, Module};
use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;

/// Fresh Adam, plain SGD and SGD with momentum.
fn optimizers() -> [(&'static str, Box<dyn Optimizer>); 3] {
    [
        ("adam", Box::new(Adam::new(2e-3))),
        ("sgd", Box::new(Sgd::new(0.05))),
        ("sgd+momentum", Box::new(Sgd::with_momentum(0.05, 0.9))),
    ]
}

fn grads(model: &dyn Module) -> Vec<f32> {
    let mut g = Vec::new();
    model.visit_params(&mut |p| g.extend_from_slice(p.grad.data()));
    g
}

/// Two training steps of `model` under each optimizer: each step moves the
/// parameters and leaves every gradient element `+0.0`, bit for bit.
fn assert_steps_consume_the_gradient<M: Module>(
    what: &str,
    new_model: impl Fn() -> M,
    step: impl Fn(&mut M, &mut dyn Optimizer),
) {
    for (name, mut optim) in optimizers() {
        let mut model = new_model();
        for _ in 0..2 {
            let before = params::flatten(&model);
            step(&mut model, optim.as_mut());
            assert_ne!(params::flatten(&model), before, "{what}/{name}: the step moved nothing");
            let left = grads(&model).iter().filter(|g| g.to_bits() != 0).count();
            assert_eq!(left, 0, "{what}/{name}: {left} gradient elements are not +0.0");
        }
    }
}

#[test]
fn every_train_batch_leaves_its_gradient_positive_zero() {
    let mut rng = SeededRng::new(17);
    let x = Tensor::rand_uniform(&[6, 784], 0.0, 1.0, &mut rng);
    let labels = [3usize, 1, 4, 1, 5, 9];
    let vae_x = Tensor::randn(&[8, 16], &mut rng);
    let cvae = || Cvae::new(&CvaeSpec::reduced(100, 8), &mut SeededRng::new(1));
    assert_steps_consume_the_gradient("cvae", cvae, |m, optim| {
        m.train_batch(&x, &labels, optim, &mut SeededRng::new(2));
    });
    let vae = || Vae::new(&VaeSpec { x_dim: 16, hidden: 32, latent: 4 }, &mut SeededRng::new(3));
    assert_steps_consume_the_gradient("vae", vae, |m, optim| {
        m.train_batch(&vae_x, 0.1, optim, &mut SeededRng::new(4));
    });
    for spec in [ClassifierSpec::Mlp { hidden: 64 }, ClassifierSpec::TableIICnn] {
        let clf = || Classifier::new(&spec, &mut SeededRng::new(5));
        assert_steps_consume_the_gradient(&format!("{spec:?}"), clf, |m, optim| {
            m.train_batch(&x, &labels, optim);
        });
    }
}

/// [`Adam`], checked after every step against Adam in f64: the update from
/// the same weights and gradient, with f64 moments and bias corrections
/// carried across steps. Each new weight must be within half an ulp (its f32
/// store) plus `1e-4` of the f64 update, relative, or `2e-5·lr` absolute
/// where the first moment cancels to a tiny update. (Over these 200 steps
/// the worst errors are 9e-6 relative on updates above `0.01·lr` and
/// 7.9e-6·lr absolute, the same as the three-division form's: the f32
/// moments set them, not the hoisted corrections.)
struct TrackedAdam {
    adam: Adam,
    t: i32,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Optimizer for TrackedAdam {
    fn step(&mut self, module: &mut dyn Module) {
        let (w0, g) = (params::flatten(module), grads(module));
        self.adam.step(module);
        let w1 = params::flatten(module);
        if self.m.is_empty() {
            (self.m, self.v) = (vec![0.0; w0.len()], vec![0.0; w0.len()]);
        }
        self.t += 1;
        let adam = &self.adam;
        let [lr, b1, b2, eps] = [adam.lr, adam.beta1, adam.beta2, adam.eps].map(f64::from);
        let (bc1, bc2) = (1.0 - b1.powi(self.t), 1.0 - b2.powi(self.t));
        for i in 0..w0.len() {
            let g = g[i] as f64;
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let update = lr * (self.m[i] / bc1) / ((self.v[i] / bc2).sqrt() + eps);
            let want = w0[i] as f64 - update;
            let store = want.abs() * f64::from(f32::EPSILON) / 2.0;
            let err = (w1[i] as f64 - want).abs() - store;
            assert!(
                err <= (1e-4 * update.abs()).max(2e-5 * lr),
                "step {}, element {i}: {} against {want} (update {update})",
                self.t,
                w1[i]
            );
        }
    }
}

#[test]
fn hoisted_adam_tracks_an_f64_adam_over_200_cvae_steps() {
    let mut rng = SeededRng::new(29);
    let mut cvae = Cvae::new(&CvaeSpec::reduced(100, 8), &mut rng);
    let mut adam = TrackedAdam { adam: Adam::new(2e-3), t: 0, m: Vec::new(), v: Vec::new() };
    let x = Tensor::rand_uniform(&[32, 784], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let first = cvae.train_batch(&x, &labels, &mut adam, &mut rng);
    let mut last = first;
    for _ in 1..200 {
        last = cvae.train_batch(&x, &labels, &mut adam, &mut rng);
    }
    assert_eq!(adam.t, 200);
    assert!(last < first * 0.8, "the ELBO did not fall: {first} -> {last}");
}
