//! Property-based tests on the NN layer library's invariants.

use fg_nn::activations::relu;
use fg_nn::layer::Module;
use fg_nn::linear::Linear;
use fg_nn::loss;
use fg_nn::models::{one_hot, Cvae, CvaeDecoder, CvaeSpec};
use fg_nn::optim::{Optimizer, Sgd};
use fg_nn::params;
use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flatten_load_round_trips_for_random_architectures(
        h1 in 1usize..12,
        h2 in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let spec = CvaeSpec::reduced(h1, h2);
        let net = Cvae::new(&spec, &mut rng);
        let flat = params::flatten(&net);
        prop_assert_eq!(flat.len(), net.num_params());

        let mut net2 = Cvae::new(&spec, &mut rng);
        net2.visit_params_mut(&mut |p| p.value.data_mut().copy_from_slice(&flat));
        prop_assert_eq!(params::flatten(&net2), flat);
    }

    #[test]
    fn cross_entropy_is_nonnegative_with_zero_sum_row_grads(
        logits in proptest::collection::vec(-10.0f32..10.0, 15),
        t0 in 0usize..5, t1 in 0usize..5, t2 in 0usize..5,
    ) {
        let t = Tensor::from_vec(logits, &[3, 5]);
        let (l, g) = loss::softmax_cross_entropy(&t, &[t0, t1, t2]);
        prop_assert!(l >= -1e-5);
        for r in 0..3 {
            let s: f32 = g.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn bce_loss_nonnegative_and_grad_bounded(
        logits in proptest::collection::vec(-15.0f32..15.0, 8),
        targets in proptest::collection::vec(0.0f32..1.0, 8),
    ) {
        let x = Tensor::from_vec(logits, &[2, 4]);
        let t = Tensor::from_vec(targets, &[2, 4]);
        let (l, g) = loss::bce_with_logits(&x, &t);
        prop_assert!(l >= -1e-5);
        // Gradient per element is (sigmoid - target)/batch, bounded by 1/batch.
        prop_assert!(g.data().iter().all(|&v| v.abs() <= 0.5 + 1e-6));
    }

    #[test]
    fn kl_is_nonnegative(
        mu in proptest::collection::vec(-4.0f32..4.0, 6),
        logvar in proptest::collection::vec(-4.0f32..4.0, 6),
    ) {
        let m = Tensor::from_vec(mu, &[2, 3]);
        let lv = Tensor::from_vec(logvar, &[2, 3]);
        let (kl, _, _) = loss::kl_gaussian(&m, &lv);
        prop_assert!(kl >= -1e-4, "KL went negative: {kl}");
    }

    #[test]
    fn sigmoid_stays_in_unit_interval(xs in proptest::collection::vec(-50.0f32..50.0, 10)) {
        // A decoder whose one hidden unit is always 1 and whose output
        // weights are `xs`: the images it generates are the sigmoid of `xs`.
        let spec = CvaeSpec { x_dim: 10, n_classes: 1, hidden: 1, latent: 1 };
        let mut theta = vec![0.0; spec.dec_in()];
        theta.push(1.0);
        theta.extend(&xs);
        theta.extend(vec![0.0; 1 + spec.dec_out()]);
        let y = CvaeDecoder::from_params(&spec, &theta).generate(&Tensor::zeros(&[1, 1]), &[0]);
        prop_assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn relu_is_idempotent(xs in proptest::collection::vec(-5.0f32..5.0, 10)) {
        let mut once = xs;
        relu(&mut once);
        let mut twice = once.clone();
        relu(&mut twice);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn one_hot_rows_sum_to_one(labels in proptest::collection::vec(0usize..7, 1..20)) {
        let oh = one_hot(&labels, 7);
        for (r, &l) in labels.iter().enumerate() {
            let row = oh.row(r);
            prop_assert_eq!(row.iter().sum::<f32>(), 1.0);
            prop_assert_eq!(row[l], 1.0);
        }
    }

    #[test]
    fn zero_lr_sgd_is_a_noop(seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let mut net = Linear::new(3, 3, &mut rng);
        let before = params::flatten(&net);
        net.visit_params_mut(&mut |p| p.grad.fill(1.0));
        Sgd::new(0.0).step(&mut net);
        prop_assert_eq!(params::flatten(&net), before);
    }
}
