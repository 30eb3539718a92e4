//! Schedule-invariance suite: the determinism contract of the parallel
//! substrate, end to end.
//!
//! The rayon shim promises that thread count changes only *scheduling*,
//! never results: the split tree and combine order are pure functions of the
//! input, so every reduction — including order-sensitive `f32` arithmetic —
//! must be bit-identical at `FG_THREADS=1` and `FG_THREADS=4`. These tests
//! pin that promise at three levels: raw kernels, robust-aggregation ops,
//! and a full seeded federation run.

use fedguard::agg::ops::{
    coordinate_median, fedavg, geometric_median, krum, krum_scores, trimmed_mean_vectors,
};
use fedguard::experiment::{
    run_experiment, AttackScenario, ExperimentConfig, ExperimentResult, Preset, StrategyKind,
};
use fedguard::tensor::conv::{conv2d_backward_acc, conv2d_forward, Conv2dSpec};
use fedguard::tensor::kernels::{matmul, matmul_at, matmul_bt};
use fedguard::tensor::rng::SeededRng;
use fedguard::tensor::vecops::{axpy, lerp, weighted_sum};
use fedguard::tensor::Tensor;
use rayon::with_threads;

/// Random update vectors shaped like a robust-aggregation workload: `m`
/// clients, `d` parameters each.
fn random_updates(m: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..m).map(|_| (0..d).map(|_| rng.next_f32() * 2.0 - 1.0).collect()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn aggregation_ops_are_bit_identical_across_thread_counts() {
    // Large enough that par_iter paths actually split (PAR_LEN = 1 << 16).
    let updates = random_updates(12, (1 << 16) + 41, 11);
    let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
    let samples: Vec<usize> = (0..refs.len()).map(|i| 10 + i).collect();

    let run = |threads: usize| {
        with_threads(threads, || {
            let avg = fedavg(&refs, &samples);
            let gm = geometric_median(&refs, 8, 1e-6);
            let ks = krum_scores(&refs, 3);
            let (kr, ki) = krum(&refs, 3);
            let med = coordinate_median(&refs);
            let tm = trimmed_mean_vectors(&refs, 2);
            (bits(&avg), bits(&gm), bits(&ks), bits(&kr), ki, bits(&med), bits(&tm))
        })
    };

    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.0, par.0, "fedavg diverged across thread counts");
    assert_eq!(seq.1, par.1, "geometric_median diverged across thread counts");
    assert_eq!(seq.2, par.2, "krum_scores diverged across thread counts");
    assert_eq!(seq.3, par.3, "krum vector diverged across thread counts");
    assert_eq!(seq.4, par.4, "krum pick diverged across thread counts");
    assert_eq!(seq.5, par.5, "coordinate_median diverged across thread counts");
    assert_eq!(seq.6, par.6, "trimmed_mean diverged across thread counts");
}

#[test]
fn tensor_kernels_are_bit_identical_across_thread_counts() {
    let mut rng = SeededRng::new(21);
    // 160×1024 · 1024×64 clears PAR_THRESHOLD_MACS so rows split.
    let a = Tensor::randn(&[160, 1024], &mut rng);
    let b = Tensor::randn(&[1024, 64], &mut rng);
    let seq = with_threads(1, || matmul(&a, &b));
    let par = with_threads(4, || matmul(&a, &b));
    assert_eq!(bits(seq.data()), bits(par.data()), "matmul diverged across thread counts");
}

#[test]
fn transposed_gemm_layouts_are_bit_identical_across_thread_counts() {
    let mut rng = SeededRng::new(22);
    // Both layouts clear PAR_THRESHOLD_MACS so the MC row-blocks fan out.
    let a = Tensor::randn(&[160, 1024], &mut rng);
    let bt = Tensor::randn(&[64, 1024], &mut rng);
    let seq = with_threads(1, || matmul_bt(&a, &bt));
    let par = with_threads(4, || matmul_bt(&a, &bt));
    assert_eq!(bits(seq.data()), bits(par.data()), "matmul_bt diverged across thread counts");

    let at = Tensor::randn(&[1024, 160], &mut rng);
    let b = Tensor::randn(&[1024, 64], &mut rng);
    let seq = with_threads(1, || matmul_at(&at, &b));
    let par = with_threads(4, || matmul_at(&at, &b));
    assert_eq!(bits(seq.data()), bits(par.data()), "matmul_at diverged across thread counts");
}

#[test]
fn conv_forward_and_backward_are_bit_identical_across_thread_counts() {
    let mut rng = SeededRng::new(23);
    let spec = Conv2dSpec { in_ch: 3, out_ch: 8, kh: 3, kw: 3, pad: 1 };
    // Batch of 8 so the per-image parallel loops actually split.
    let x = Tensor::randn(&[8, 3, 14, 14], &mut rng);
    let w = Tensor::randn(&[8, spec.patch_len()], &mut rng);
    let bias = Tensor::randn(&[8], &mut rng);
    let d_out = Tensor::randn(&[8, 8, 14, 14], &mut rng);

    let run = |threads: usize| {
        with_threads(threads, || {
            let y = conv2d_forward(&x, &w, &bias, &spec);
            let mut dw = Tensor::zeros(w.dims());
            let mut db = Tensor::zeros(bias.dims());
            let dx = conv2d_backward_acc(&x, &w, &d_out, &spec, &mut dw, &mut db);
            (bits(y.data()), bits(dx.data()), bits(dw.data()), bits(db.data()))
        })
    };

    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.0, par.0, "conv2d_forward diverged across thread counts");
    assert_eq!(seq.1, par.1, "conv2d d_input diverged across thread counts");
    assert_eq!(seq.2, par.2, "conv2d d_weight diverged across thread counts");
    assert_eq!(seq.3, par.3, "conv2d d_bias diverged across thread counts");
}

#[test]
fn vecops_are_bit_identical_across_thread_counts() {
    let updates = random_updates(3, (1 << 17) + 9, 31);
    let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
    let w = [0.2f32, 0.5, 0.3];

    let run = |threads: usize| {
        with_threads(threads, || {
            let ws = weighted_sum(&refs, &w);
            let mut ax = updates[0].clone();
            axpy(&mut ax, -0.7, &updates[1]);
            let le = lerp(&updates[1], &updates[2], 0.3);
            (bits(&ws), bits(&ax), bits(&le))
        })
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn batched_scorer_is_bit_identical_across_thread_counts() {
    use fedguard::nn::models::{BatchedClassifier, Classifier, ClassifierSpec};

    // Wide enough that the grouped fc1 launch clears worth_forking and the
    // model axis actually fans out over the pool.
    let spec = ClassifierSpec::Mlp { hidden: 256 };
    let mut rng = SeededRng::new(61);
    let models: Vec<Vec<f32>> =
        (0..6).map(|_| Classifier::new(&spec, &mut rng).get_params()).collect();
    let x = Tensor::randn(&[96, 784], &mut rng);
    let y: Vec<usize> = (0..96).map(|i| i % 10).collect();

    let run = |threads: usize| {
        with_threads(threads, || {
            let views: Vec<&[f32]> = models.iter().map(|m| m.as_slice()).collect();
            BatchedClassifier::new(&spec, &views).evaluate(&x, &y, 32)
        })
    };
    assert_eq!(bits(&run(1)), bits(&run(4)), "batched audit scores diverged across thread counts");
}

#[test]
fn fedguard_audit_modes_agree_across_thread_counts() {
    use fedguard::AuditMode;

    // A full FedGuard federation must produce one bit-identical history for
    // every (audit mode × thread count) combination: the batched scorer is
    // an internal fast path, not an observable behavior change.
    let run_fed = |audit: AuditMode, threads: usize| -> ExperimentResult {
        with_threads(threads, || {
            let mut cfg = ExperimentConfig::preset(
                Preset::Smoke,
                StrategyKind::FedGuard,
                AttackScenario::SignFlip { fraction: 0.3 },
                43,
            );
            cfg.fed.rounds = 2;
            cfg.fedguard_audit = audit;
            run_experiment(&cfg)
        })
    };

    let baseline = run_fed(AuditMode::Sequential, 1);
    for (audit, threads) in
        [(AuditMode::Sequential, 4), (AuditMode::Batched, 1), (AuditMode::Batched, 4)]
    {
        let got = run_fed(audit, threads);
        assert_eq!(baseline.malicious_clients, got.malicious_clients);
        assert_eq!(baseline.history.len(), got.history.len());
        for (rs, rp) in baseline.history.iter().zip(&got.history) {
            assert_eq!(
                rs.normalized(),
                rp.normalized(),
                "round {} diverged for {audit:?} at {threads} threads",
                rs.round
            );
        }
    }
}

#[test]
fn seeded_federation_history_is_bit_identical_across_thread_counts() {
    let run_fed = |strategy: StrategyKind, threads: usize| -> ExperimentResult {
        with_threads(threads, || {
            let mut cfg = ExperimentConfig::preset(
                Preset::Smoke,
                strategy,
                AttackScenario::SignFlip { fraction: 0.3 },
                42,
            );
            cfg.fed.rounds = 3;
            run_experiment(&cfg)
        })
    };

    for strategy in [StrategyKind::FedAvg, StrategyKind::Krum, StrategyKind::FedGuard] {
        let seq = run_fed(strategy, 1);
        let par = run_fed(strategy, 4);
        assert_eq!(
            seq.malicious_clients,
            par.malicious_clients,
            "{}: malicious roster diverged",
            strategy.name()
        );
        assert_eq!(seq.history.len(), par.history.len());
        for (rs, rp) in seq.history.iter().zip(&par.history) {
            // normalized() zeroes the clock readings, the only nondeterministic
            // fields; f32s are compared exactly, so this is bitwise.
            assert_eq!(
                rs.normalized(),
                rp.normalized(),
                "{}: round {} diverged between 1 and 4 threads",
                strategy.name(),
                rs.round
            );
        }
    }
}
