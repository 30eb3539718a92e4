//! Cross-crate property-based tests (proptest) on the invariants the
//! federated pipeline relies on.

use fedguard::agg::ops;
use fedguard::data::{Dataset, LabelFlip};
use fedguard::fl::{sanitize_round, FaultKind, ModelUpdate};
use fedguard::nn::models::{Classifier, ClassifierSpec};
use fedguard::synthesis::SynthesisBudget;
use fedguard::tensor::vecops;
use proptest::prelude::*;

fn vecs_strategy(m: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, d), m)
}

/// Decode one `u64` into a possibly-faulty 4-parameter `ModelUpdate`: the
/// low bits pick the client id, the next bits one of five transit outcomes
/// (clean / NaN / Inf / truncated / padded), the rest seed the values.
fn decode_update(code: u64) -> ModelUpdate {
    let client_id = (code % 6) as usize;
    let fault = (code >> 8) % 5;
    let x = ((code >> 16) % 1000) as f32 / 100.0 - 5.0;
    let mut params = vec![x, x + 1.0, x - 1.0, 0.5 * x];
    match fault {
        1 => params[(code >> 32) as usize % 4] = f32::NAN,
        2 => params[(code >> 32) as usize % 4] = f32::NEG_INFINITY,
        3 => params.truncate(1 + (code >> 32) as usize % 3),
        4 => params.push(0.0),
        _ => {}
    }
    ModelUpdate { client_id, params, num_samples: 1, decoder: None, class_coverage: None }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- aggregation operators ------------------------------------------

    #[test]
    fn fedavg_stays_in_coordinate_hull(vs in vecs_strategy(5, 8), counts in proptest::collection::vec(1usize..100, 5)) {
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let out = ops::fedavg(&refs, &counts);
        for j in 0..8 {
            let lo = vs.iter().map(|v| v[j]).fold(f32::INFINITY, f32::min);
            let hi = vs.iter().map(|v| v[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[j] >= lo - 1e-3 && out[j] <= hi + 1e-3);
        }
    }

    #[test]
    fn geomed_is_permutation_invariant(vs in vecs_strategy(5, 6)) {
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let a = ops::geometric_median(&refs, 50, 1e-6);
        let mut perm = vs.clone();
        perm.rotate_left(2);
        let refs2: Vec<&[f32]> = perm.iter().map(|v| v.as_slice()).collect();
        let b = ops::geometric_median(&refs2, 50, 1e-6);
        let d = vecops::l2_distance(&a, &b);
        let scale = vecops::l2_norm(&a).max(1.0);
        prop_assert!(d < 0.05 * scale, "permutation moved geomed by {d}");
    }

    #[test]
    fn median_bounded_by_extremes(vs in vecs_strategy(7, 5)) {
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let out = ops::coordinate_median(&refs);
        for j in 0..5 {
            let lo = vs.iter().map(|v| v[j]).fold(f32::INFINITY, f32::min);
            let hi = vs.iter().map(|v| v[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[j] >= lo && out[j] <= hi);
        }
    }

    #[test]
    fn krum_returns_an_input_vector(vs in vecs_strategy(6, 4)) {
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let (out, idx) = ops::krum(&refs, 1);
        prop_assert!(idx < vs.len());
        prop_assert_eq!(out, vs[idx].clone());
    }

    #[test]
    fn clipping_never_increases_norm(v in proptest::collection::vec(-100.0f32..100.0, 16), max_norm in 0.1f32..10.0) {
        let clipped = ops::clip_to_norm(&v, max_norm);
        prop_assert!(vecops::l2_norm(&clipped) <= max_norm + 1e-3);
        // Direction preserved for nonzero inputs.
        let n = vecops::l2_norm(&v);
        if n > max_norm {
            let cos: f32 = v.iter().zip(&clipped).map(|(a, b)| a * b).sum::<f32>()
                / (n * vecops::l2_norm(&clipped)).max(1e-9);
            prop_assert!(cos > 0.999, "direction changed: cos={cos}");
        }
    }

    // ---- submission sanitizer ---------------------------------------------

    #[test]
    fn sanitizer_output_is_always_aggregation_safe(codes in proptest::collection::vec(0u64..u64::MAX / 2, 0..14)) {
        let arrived: Vec<ModelUpdate> = codes.iter().map(|&c| decode_update(c)).collect();
        let mut events = Vec::new();
        let survivors = sanitize_round(arrived.clone(), 4, &mut events);

        // Every survivor is admissible: right length, all-finite.
        for u in &survivors {
            prop_assert!(u.validate(4).is_ok());
        }
        // Ids strictly increasing — unique and sorted, so no client can be
        // double-weighted by FedAvg.
        for w in survivors.windows(2) {
            prop_assert!(w[0].client_id < w[1].client_id);
        }
        // Conservation: every input either survives or is accounted for by
        // exactly one discarding event (DecoderStripped doesn't discard).
        let discarded = events.iter().filter(|e| e.kind.discards_submission()).count();
        prop_assert_eq!(survivors.len() + discarded, arrived.len());
        // A FedAvg over the survivors (if any) stays finite.
        if !survivors.is_empty() {
            let refs: Vec<&[f32]> = survivors.iter().map(|u| u.params.as_slice()).collect();
            let counts: Vec<usize> = survivors.iter().map(|u| u.num_samples).collect();
            prop_assert!(ops::fedavg(&refs, &counts).iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn sanitizer_is_identity_on_clean_unique_rounds(xs in proptest::collection::vec(-5.0f32..5.0, 1..6)) {
        // Well-formed, id-unique submissions pass through untouched — the
        // honest-only fixed point of the sanitizer.
        let arrived: Vec<ModelUpdate> = xs
            .iter()
            .enumerate()
            .map(|(id, &x)| ModelUpdate {
                client_id: id,
                params: vec![x, -x, 2.0 * x, 0.0],
                num_samples: 1 + id,
                decoder: None,
                class_coverage: None,
            })
            .collect();
        let mut events = Vec::new();
        let survivors = sanitize_round(arrived.clone(), 4, &mut events);
        prop_assert!(events.is_empty(), "clean round produced events: {events:?}");
        prop_assert_eq!(survivors, arrived);
    }

    #[test]
    fn sanitizer_first_valid_wins_on_duplicates(x in -5.0f32..5.0, y in -5.0f32..5.0, m in 2usize..5) {
        // m copies of the same client id: exactly one survives, and it is
        // the first arrival.
        let arrived: Vec<ModelUpdate> = (0..m)
            .map(|i| ModelUpdate {
                client_id: 3,
                params: vec![if i == 0 { y } else { x }; 4],
                num_samples: 1,
                decoder: None,
                class_coverage: None,
            })
            .collect();
        let mut events = Vec::new();
        let survivors = sanitize_round(arrived, 4, &mut events);
        prop_assert_eq!(survivors.len(), 1);
        prop_assert_eq!(survivors[0].params[0], y);
        let discards = events.iter().filter(|e| e.kind == FaultKind::DuplicateDiscarded).count();
        prop_assert_eq!(discards, m - 1);
    }

    // ---- NaN-safe aggregation operators ------------------------------------

    #[test]
    fn krum_with_poisoned_minority_selects_honest(vs in vecs_strategy(5, 4), bad in 0usize..5) {
        // Poison one vector with NaN; with f = 1 Krum must pick another.
        let mut vs = vs;
        vs[bad][0] = f32::NAN;
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let (out, idx) = ops::krum(&refs, 1);
        prop_assert!(idx != bad, "Krum selected the NaN-poisoned vector");
        prop_assert!(out.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn median_with_poisoned_minority_stays_finite(vs in vecs_strategy(7, 4), bad in 0usize..7) {
        let mut vs = vs;
        for w in vs[bad].iter_mut() {
            *w = f32::INFINITY;
        }
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let out = ops::coordinate_median(&refs);
        prop_assert!(out.iter().all(|x| x.is_finite()), "median leaked Inf: {out:?}");
    }

    // ---- model parameter plumbing -----------------------------------------

    #[test]
    fn classifier_params_round_trip(hidden in 4usize..32, seed in 0u64..1000) {
        let spec = ClassifierSpec::Mlp { hidden };
        let mut rng = fedguard::tensor::rng::SeededRng::new(seed);
        let clf = Classifier::new(&spec, &mut rng);
        let p = clf.get_params();
        prop_assert_eq!(p.len(), spec.num_params());
        let clf2 = Classifier::from_params(&spec, &p);
        prop_assert_eq!(clf2.get_params(), p);
    }

    // ---- synthesis budget --------------------------------------------------

    #[test]
    fn total_budget_counts_sum_exactly(t in 1usize..500, n in 1usize..60) {
        let counts = SynthesisBudget::Total(t).per_decoder_counts(n);
        prop_assert_eq!(counts.len(), n);
        prop_assert_eq!(counts.iter().sum::<usize>(), t);
        // Round-robin fairness: counts differ by at most one.
        let lo = counts.iter().min().unwrap();
        let hi = counts.iter().max().unwrap();
        prop_assert!(hi - lo <= 1);
    }

    // ---- poisoning transforms ------------------------------------------------

    #[test]
    fn label_flip_is_involutive_on_any_labels(labels in proptest::collection::vec(0u8..10, 1..50)) {
        let n = labels.len();
        let ds = Dataset::new(vec![0.0; n * 4], labels.clone());
        let flip = LabelFlip::paper();
        let twice = flip.applied(&flip.applied(&ds));
        prop_assert_eq!(twice.labels(), &labels[..]);
    }

    #[test]
    fn sign_flip_preserves_norm(v in proptest::collection::vec(-10.0f32..10.0, 8)) {
        use fedguard::attacks::ModelAttack;
        let mut p = v.clone();
        ModelAttack::SignFlip.corrupt(&mut p, 0);
        prop_assert!((vecops::l2_norm(&p) - vecops::l2_norm(&v)).abs() < 1e-4);
        for (a, b) in v.iter().zip(&p) {
            prop_assert_eq!(*b, -*a);
        }
    }

    #[test]
    fn fedavg_of_identical_updates_is_bit_equal_to_the_input(
        v in proptest::collection::vec(-5.0f32..5.0, 1..64),
        weights in proptest::collection::vec(0usize..1000, 2..8),
    ) {
        // Regression: the old `Σ (n/total)·x` form accumulated weights that
        // don't sum to exactly 1.0, so averaging m copies of the same vector
        // perturbed it. The incremental-mean fold copies the first update
        // verbatim and then adds exact zeros (`frac·(x−acc)` with `x == acc`),
        // so the result is bit-identical — for any weight profile, including
        // zero-total rounds (the unweighted fallback folds the same way).
        // (-0.0 is the one excluded input: IEEE `-0.0 + 0.0` is `+0.0`, so
        // the second fold would legitimately relax the sign bit.)
        let m = weights.len();
        let vs: Vec<Vec<f32>> = vec![v.clone(); m];
        let refs: Vec<&[f32]> = vs.iter().map(|x| x.as_slice()).collect();
        let out = ops::fedavg(&refs, &weights);
        prop_assert_eq!(out.len(), v.len());
        for (a, b) in out.iter().zip(&v) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} != {}", a, b);
        }
    }

    #[test]
    fn fedavg_matches_direct_weighted_sum_within_tolerance(
        m in 2usize..6,
        seed in 0u64..1000,
    ) {
        // The fold must still *be* the weighted mean: cross-check against
        // the naive Σ (n/total)·x form numerically.
        let mut rng = fedguard::tensor::rng::SeededRng::new(seed);
        let vs: Vec<Vec<f32>> = (0..m)
            .map(|_| (0..16).map(|_| rng.next_f32() * 10.0 - 5.0).collect())
            .collect();
        let weights: Vec<usize> = (0..m).map(|_| 1 + rng.next_below(50)).collect();
        let refs: Vec<&[f32]> = vs.iter().map(|x| x.as_slice()).collect();
        let out = ops::fedavg(&refs, &weights);
        let total: usize = weights.iter().sum();
        for j in 0..16 {
            let direct: f64 = vs
                .iter()
                .zip(&weights)
                .map(|(x, &n)| n as f64 / total as f64 * x[j] as f64)
                .sum();
            prop_assert!((out[j] as f64 - direct).abs() < 1e-4, "{} vs {}", out[j], direct);
        }
    }
}
