//! Cross-crate integration: FedGuard-specific behaviors — the synthesis
//! pipeline embedded in a live federation, budget variants, audit traces,
//! and failure injection.

use fedguard::experiment::{
    run_experiment, AttackScenario, ExperimentConfig, Preset, StrategyKind,
};
use fedguard::fl::{AggregationContext, AggregationStrategy, ModelUpdate};
use fedguard::nn::models::{Classifier, ClassifierSpec, Cvae, CvaeSpec};
use fedguard::nn::{Adam, Sgd};
use fedguard::synthesis::{DecoderSubmission, SynthesisBudget};
use fedguard::tensor::rng::SeededRng;
use fedguard::{FedGuardConfig, FedGuardStrategy};

#[test]
fn budget_variants_both_run_in_federation() {
    for budget in [SynthesisBudget::Total(30), SynthesisBudget::PerDecoder(6)] {
        let mut cfg = ExperimentConfig::preset(
            Preset::Smoke,
            StrategyKind::FedGuard,
            AttackScenario::None,
            12,
        );
        cfg.budget = budget;
        let result = run_experiment(&cfg);
        assert!(result.final_accuracy() > 0.3, "{budget:?}: {:.3}", result.final_accuracy());
    }
}

fn trained_update(
    id: usize,
    seed: u64,
    spec: &ClassifierSpec,
    cvae_spec: &CvaeSpec,
) -> ModelUpdate {
    let data = fedguard::data::synth::generate_dataset(15, seed);
    let mut rng = SeededRng::new(seed);
    let mut clf = Classifier::new(spec, &mut rng);
    let mut sgd = Sgd::with_momentum(0.1, 0.9);
    for _ in 0..5 {
        for (x, y) in data.batches(32) {
            clf.train_batch(&x, &y, &mut sgd);
        }
    }
    let mut cvae = Cvae::new(cvae_spec, &mut rng);
    let mut adam = Adam::new(2e-3);
    for _ in 0..40 {
        for (x, y) in data.batches(64) {
            cvae.train_batch(&x, &y, &mut adam, &mut rng);
        }
    }
    let coverage = data.class_histogram(10).iter().map(|&c| c as u32).collect();
    ModelUpdate {
        client_id: id,
        params: clf.get_params(),
        num_samples: data.len(),
        decoder: Some(cvae.decoder_params()),
        class_coverage: Some(coverage),
    }
}

#[test]
fn all_malicious_round_does_not_crash_and_keeps_someone() {
    // Degenerate round: every update poisoned. FedGuard keeps the
    // above-mean subset of whatever it got — it cannot do better — and must
    // not panic or return NaNs.
    let spec = ClassifierSpec::Mlp { hidden: 16 };
    let cvae_spec = CvaeSpec::reduced(32, 4);
    let mut updates: Vec<ModelUpdate> =
        (0..4).map(|i| trained_update(i, 60 + i as u64, &spec, &cvae_spec)).collect();
    for u in &mut updates {
        u.params.iter_mut().for_each(|w| *w = 1.0);
    }
    let global = vec![0.0f32; updates[0].params.len()];
    let mut strategy = FedGuardStrategy::new(FedGuardConfig {
        classifier: spec,
        cvae: cvae_spec,
        budget: SynthesisBudget::Total(20),
        class_probs: None,
        eval_batch: 32,
        inner: fedguard::InnerAggregator::FedAvg,
        coverage_aware: false,
        audit: Default::default(),
    });
    let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(0) };
    let out = strategy.aggregate(&updates, &mut ctx);
    assert!(!out.selected.is_empty());
    assert!(out.params.iter().all(|w| w.is_finite()));
}

#[test]
fn single_client_round_degenerates_to_that_client() {
    let spec = ClassifierSpec::Mlp { hidden: 16 };
    let cvae_spec = CvaeSpec::reduced(32, 4);
    let update = trained_update(3, 70, &spec, &cvae_spec);
    let global = vec![0.0f32; update.params.len()];
    let mut strategy = FedGuardStrategy::new(FedGuardConfig {
        classifier: spec,
        cvae: cvae_spec,
        budget: SynthesisBudget::Total(10),
        class_probs: None,
        eval_batch: 32,
        inner: fedguard::InnerAggregator::FedAvg,
        coverage_aware: false,
        audit: Default::default(),
    });
    let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(1) };
    let out = strategy.aggregate(std::slice::from_ref(&update), &mut ctx);
    assert_eq!(out.selected, vec![3]);
    assert_eq!(out.params, update.params);
}

#[test]
fn audit_scores_are_reported_for_every_update() {
    let spec = ClassifierSpec::Mlp { hidden: 16 };
    let cvae_spec = CvaeSpec::reduced(32, 4);
    let updates: Vec<ModelUpdate> =
        (0..3).map(|i| trained_update(i, 80 + i as u64, &spec, &cvae_spec)).collect();
    let global = vec![0.0f32; updates[0].params.len()];
    let mut strategy = FedGuardStrategy::new(FedGuardConfig {
        classifier: spec,
        cvae: cvae_spec,
        budget: SynthesisBudget::Total(20),
        class_probs: None,
        eval_batch: 32,
        inner: fedguard::InnerAggregator::FedAvg,
        coverage_aware: false,
        audit: Default::default(),
    });
    let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(2) };
    let out = strategy.aggregate(&updates, &mut ctx);
    assert_eq!(out.scores.len(), 3);
    let ids: Vec<usize> = out.scores.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, vec![0, 1, 2]);
    assert!(out.scores.iter().all(|&(_, s)| (0.0..=1.0).contains(&s)));
}

#[test]
fn class_probs_focus_the_audit_on_chosen_classes() {
    // §VI-A: "the quantity of data to generate can be selected for each
    // class". A probs vector concentrated on class 0 must yield an audit
    // set of only class-0 samples.
    let spec = ClassifierSpec::Mlp { hidden: 16 };
    let cvae_spec = CvaeSpec::reduced(32, 4);
    let updates: Vec<ModelUpdate> =
        (0..2).map(|i| trained_update(i, 90 + i as u64, &spec, &cvae_spec)).collect();

    let decoders: Vec<DecoderSubmission<'_>> = updates
        .iter()
        .map(|u| DecoderSubmission::plain(u.client_id, u.decoder.as_deref().unwrap()))
        .collect();
    let mut probs = vec![0.0f32; 10];
    probs[0] = 1.0;
    let ds = fedguard::synthesis::synthesize_validation_set(
        &decoders,
        &cvae_spec,
        &SynthesisBudget::Total(16),
        Some(&probs),
        false,
        &mut SeededRng::new(3),
    );
    assert_eq!(ds.len(), 16);
    assert!(ds.labels().iter().all(|&l| l == 0));
}

#[test]
fn fedguard_survives_shard_heterogeneity_with_coverage_awareness() {
    // §VI-B: under pathological shard partitioning most clients see ~2
    // classes; coverage-aware synthesis keeps the audit meaningful. This is
    // a smoke-scale run: the assertion is "still learns and still excludes",
    // not a paper-scale claim (see the heterogeneity ablation for that).
    use fedguard::attacks::{choose_malicious, ModelAttack, PoisoningInterceptor};
    use fedguard::data::partition::{partition_datasets, shard_partition};
    use fedguard::data::synth::generate_dataset;
    use fedguard::fl::Federation;
    use std::sync::Arc;

    let base =
        ExperimentConfig::preset(Preset::Smoke, StrategyKind::FedGuard, AttackScenario::None, 31);
    let train = generate_dataset(base.per_class_train, 32);
    let test = generate_dataset(base.per_class_test, 33);
    let mut rng = SeededRng::new(34);
    let parts = shard_partition(&train, base.fed.n_clients, 3, &mut rng);
    let datasets = partition_datasets(&train, &parts);

    let malicious = choose_malicious(base.fed.n_clients, 0.3, 35);
    let interceptor =
        Arc::new(PoisoningInterceptor::new(malicious, ModelAttack::SameValue { value: 1.0 }, 36));
    let strategy = FedGuardStrategy::new(FedGuardConfig {
        classifier: base.fed.classifier,
        cvae: base.cvae.spec,
        budget: base.budget,
        class_probs: None,
        eval_batch: base.fed.eval_batch,
        inner: fedguard::InnerAggregator::FedAvg,
        coverage_aware: true,
        audit: Default::default(),
    });
    let mut fed = Federation::builder(base.fed)
        .datasets(datasets)
        .test_set(test)
        .strategy(strategy)
        .interceptor(interceptor)
        .cvae(base.cvae)
        .build();
    let history = fed.run();
    let last = history.last().unwrap();
    assert!(last.accuracy > 0.25, "collapsed under shards: {:.3}", last.accuracy);
    let excluded: usize = history.iter().map(|r| r.confusion().true_positives as usize).sum();
    let sampled: usize = history.iter().map(|r| r.malicious_sampled.len()).sum();
    if sampled > 0 {
        assert!(excluded * 2 >= sampled, "exclusion too weak: {excluded}/{sampled}");
    }
}

#[test]
fn nan_update_poisons_fedavg_but_not_fedguard() {
    // Failure injection: a client that submits NaN parameters. FedAvg's
    // mean becomes NaN; FedGuard's audit scores the update 0 and drops it.
    use fedguard::agg::FedAvgStrategy;
    use fedguard::fl::AggregationStrategy as _;

    let spec = ClassifierSpec::Mlp { hidden: 16 };
    let cvae_spec = CvaeSpec::reduced(32, 4);
    let mut updates: Vec<ModelUpdate> =
        (0..3).map(|i| trained_update(i, 40 + i as u64, &spec, &cvae_spec)).collect();
    updates[1].params.iter_mut().for_each(|w| *w = f32::NAN);

    let global = vec![0.0f32; updates[0].params.len()];

    let mut fedavg = FedAvgStrategy;
    let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(0) };
    let avg = fedavg.aggregate(&updates, &mut ctx);
    assert!(avg.params.iter().any(|w| w.is_nan()), "NaN should poison FedAvg's mean");

    let mut guard = FedGuardStrategy::new(FedGuardConfig {
        classifier: spec,
        cvae: cvae_spec,
        budget: SynthesisBudget::Total(20),
        class_probs: None,
        eval_batch: 32,
        inner: fedguard::InnerAggregator::FedAvg,
        coverage_aware: false,
        audit: Default::default(),
    });
    let mut ctx = AggregationContext { round: 0, global: &global, rng: SeededRng::new(1) };
    let out = guard.aggregate(&updates, &mut ctx);
    assert!(!out.selected.contains(&1));
    assert!(out.params.iter().all(|w| w.is_finite()));
}
