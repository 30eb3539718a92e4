//! Controllable synthesis of validation data at the server (paper §III-A,
//! Alg. 1 lines 2-4).
//!
//! Per round the server draws latent samples `z ~ N(0, I)` and conditioning
//! labels `y ~ Cat(L, α)` and maps them through the active clients' CVAE
//! decoders `D_θ`. Because generation is conditioned on `y`, the true label
//! of every synthetic sample is known — the property that lets FedGuard
//! audit client accuracy on specific classes (§VI-A).

use fg_data::Dataset;
use fg_nn::models::{CvaeDecoder, CvaeSpec};
use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// How many synthetic samples to draw, resolving the paper's two readings of
/// `t` (Table I says "samples per decoder"; §IV-D's worked configuration
/// produces `t = 2m = 100` samples *total*).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SynthesisBudget {
    /// `t` samples in total, distributed round-robin over the decoders —
    /// matches §IV-D's "validation dataset of 100 synthetic MNIST digits".
    Total(usize),
    /// `t` samples from every decoder — the Table I reading; more diversity,
    /// proportionally more server compute (the paper's "tuneable system").
    PerDecoder(usize),
}

impl SynthesisBudget {
    /// The paper's configuration: `t = 2m` total samples.
    pub fn paper(m: usize) -> Self {
        SynthesisBudget::Total(2 * m)
    }

    /// Number of samples each of `n_decoders` will generate (the first
    /// `remainder` decoders generate one extra under `Total`).
    pub fn per_decoder_counts(&self, n_decoders: usize) -> Vec<usize> {
        assert!(n_decoders > 0, "no decoders to synthesize from");
        match *self {
            SynthesisBudget::Total(t) => {
                let base = t / n_decoders;
                let rem = t % n_decoders;
                (0..n_decoders).map(|i| base + usize::from(i < rem)).collect()
            }
            SynthesisBudget::PerDecoder(t) => vec![t; n_decoders],
        }
    }
}

/// One client's decoder as received by the server: the flat `θ` vector and,
/// optionally, the per-class sample counts of the data it was trained on
/// (the §VI-B extension for heterogeneous clients).
#[derive(Clone, Copy, Debug)]
pub struct DecoderSubmission<'a> {
    pub client_id: usize,
    pub theta: &'a [f32],
    pub coverage: Option<&'a [u32]>,
}

impl<'a> DecoderSubmission<'a> {
    /// A submission without coverage metadata (the paper's base protocol).
    pub fn plain(client_id: usize, theta: &'a [f32]) -> Self {
        DecoderSubmission { client_id, theta, coverage: None }
    }
}

/// Synthesize a labeled validation dataset from client decoders.
///
/// `class_probs` is the categorical parameter `α` (`None` = uniform, the
/// paper's `α_i = 1/L`). Labels are sampled from the categorical and latents
/// from the standard normal, both from `rng` — so the set is identical for
/// every audited client within a round but fresh across rounds.
///
/// With `coverage_aware` set, each decoder is conditioned only on classes it
/// was actually trained on (its `coverage` histogram, intersected with
/// `class_probs`) — the server-side mitigation §VI-B proposes for highly
/// heterogeneous clients whose decoders would otherwise be asked to
/// hallucinate classes they never saw. A decoder with no usable class is
/// skipped, and its share of the budget is redistributed round-robin over the
/// decoders that do have usable classes, so the validation set never shrinks
/// below the configured budget (the paper's `2m`) as long as at least one
/// decoder is usable.
pub fn synthesize_validation_set(
    decoders: &[DecoderSubmission<'_>],
    spec: &CvaeSpec,
    budget: &SynthesisBudget,
    class_probs: Option<&[f32]>,
    coverage_aware: bool,
    rng: &mut SeededRng,
) -> Dataset {
    assert!(!decoders.is_empty(), "cannot synthesize without decoders");
    let uniform = vec![1.0f32; spec.n_classes];
    let probs = class_probs.unwrap_or(&uniform);
    assert_eq!(probs.len(), spec.n_classes, "class_probs length mismatch");

    let mut counts = budget.per_decoder_counts(decoders.len());

    // Resolve each decoder's conditioning distribution up front so that the
    // budget of unusable decoders (coverage masking zeroed every class) can
    // be redistributed instead of silently dropped.
    let dec_probs: Vec<Vec<f32>> = decoders
        .iter()
        .map(|submission| {
            let mut p = probs.to_vec();
            if coverage_aware {
                if let Some(cov) = submission.coverage {
                    assert_eq!(cov.len(), spec.n_classes, "coverage length mismatch");
                    for (pi, &c) in p.iter_mut().zip(cov) {
                        if c == 0 {
                            *pi = 0.0;
                        }
                    }
                }
            }
            p
        })
        .collect();
    let usable: Vec<usize> =
        (0..decoders.len()).filter(|&i| dec_probs[i].iter().sum::<f32>() > 0.0).collect();

    if usable.is_empty() {
        // No decoder saw any requested class; there is nothing to condition
        // on, so the round yields an empty validation set.
        return Dataset::new(Vec::new(), Vec::new());
    }

    // Hand each unusable decoder's allocation to the usable ones round-robin
    // (deterministic in decoder order), preserving the total budget.
    let mut next = 0usize;
    for i in 0..decoders.len() {
        if dec_probs[i].iter().sum::<f32>() <= 0.0 {
            let moved = std::mem::take(&mut counts[i]);
            for _ in 0..moved {
                counts[usable[next % usable.len()]] += 1;
                next += 1;
            }
        }
    }
    let expected: usize = counts.iter().sum();

    let mut images: Vec<f32> = Vec::new();
    let mut labels: Vec<u8> = Vec::new();

    for (i, submission) in decoders.iter().enumerate() {
        let count = counts[i];
        if count == 0 {
            continue;
        }
        let decoder = CvaeDecoder::from_params(spec, submission.theta);
        let z = Tensor::randn(&[count, spec.latent], rng);
        let y: Vec<usize> = (0..count).map(|_| rng.sample_categorical(&dec_probs[i])).collect();
        let generated = decoder.generate(&z, &y);
        images.extend_from_slice(generated.data());
        labels.extend(y.iter().map(|&l| l as u8));
    }

    assert_eq!(labels.len(), expected, "synthesis lost samples during redistribution");
    Dataset::new(images, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_nn::models::Cvae;

    fn toy_decoder(seed: u64) -> Vec<f32> {
        let spec = CvaeSpec::reduced(16, 4);
        Cvae::new(&spec, &mut SeededRng::new(seed)).decoder_params()
    }

    #[test]
    fn budget_total_distributes_round_robin() {
        let b = SynthesisBudget::Total(10);
        assert_eq!(b.per_decoder_counts(3), vec![4, 3, 3]);
        assert_eq!(b.per_decoder_counts(10), vec![1; 10]);
        assert_eq!(b.per_decoder_counts(20).iter().sum::<usize>(), 10);
    }

    #[test]
    fn budget_per_decoder_is_flat() {
        assert_eq!(SynthesisBudget::PerDecoder(5).per_decoder_counts(3), vec![5, 5, 5]);
    }

    #[test]
    fn paper_budget_is_two_m_total() {
        assert_eq!(SynthesisBudget::paper(50), SynthesisBudget::Total(100));
    }

    #[test]
    fn synthesis_produces_requested_count_and_valid_pixels() {
        let spec = CvaeSpec::reduced(16, 4);
        let thetas = [toy_decoder(1), toy_decoder(2), toy_decoder(3)];
        let decoders: Vec<DecoderSubmission<'_>> = thetas
            .iter()
            .enumerate()
            .map(|(i, t)| DecoderSubmission::plain(i, t.as_slice()))
            .collect();
        let mut rng = SeededRng::new(0);
        let ds = synthesize_validation_set(
            &decoders,
            &spec,
            &SynthesisBudget::Total(20),
            None,
            false,
            &mut rng,
        );
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.dim(), 784);
        assert!(ds.images().iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert!(ds.labels().iter().all(|&l| l < 10));
    }

    #[test]
    fn uniform_sampling_is_roughly_class_balanced() {
        let spec = CvaeSpec::reduced(16, 4);
        let theta = toy_decoder(5);
        let decoders = vec![DecoderSubmission::plain(0, theta.as_slice())];
        let mut rng = SeededRng::new(1);
        let ds = synthesize_validation_set(
            &decoders,
            &spec,
            &SynthesisBudget::Total(1000),
            None,
            false,
            &mut rng,
        );
        let hist = ds.class_histogram(10);
        for &c in &hist {
            assert!((60..=140).contains(&c), "class imbalance: {hist:?}");
        }
    }

    #[test]
    fn class_probs_bias_the_labels() {
        let spec = CvaeSpec::reduced(16, 4);
        let theta = toy_decoder(6);
        let decoders = vec![DecoderSubmission::plain(0, theta.as_slice())];
        let mut probs = vec![0.0f32; 10];
        probs[3] = 1.0;
        let mut rng = SeededRng::new(2);
        let ds = synthesize_validation_set(
            &decoders,
            &spec,
            &SynthesisBudget::Total(50),
            Some(&probs),
            false,
            &mut rng,
        );
        assert!(ds.labels().iter().all(|&l| l == 3));
    }

    #[test]
    fn synthesis_is_deterministic_under_rng() {
        let spec = CvaeSpec::reduced(16, 4);
        let theta = toy_decoder(7);
        let decoders = vec![DecoderSubmission::plain(0, theta.as_slice())];
        let a = synthesize_validation_set(
            &decoders,
            &spec,
            &SynthesisBudget::Total(10),
            None,
            false,
            &mut SeededRng::new(3),
        );
        let b = synthesize_validation_set(
            &decoders,
            &spec,
            &SynthesisBudget::Total(10),
            None,
            false,
            &mut SeededRng::new(3),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn coverage_aware_conditions_only_on_seen_classes() {
        let spec = CvaeSpec::reduced(16, 4);
        let theta = toy_decoder(8);
        // Decoder trained only on classes 1 and 3.
        let coverage: Vec<u32> = (0..10).map(|c| u32::from(c == 1 || c == 3)).collect();
        let decoders =
            vec![DecoderSubmission { client_id: 0, theta: &theta, coverage: Some(&coverage) }];
        let ds = synthesize_validation_set(
            &decoders,
            &spec,
            &SynthesisBudget::Total(40),
            None,
            true,
            &mut SeededRng::new(4),
        );
        assert_eq!(ds.len(), 40);
        assert!(ds.labels().iter().all(|&l| l == 1 || l == 3), "{:?}", ds.class_histogram(10));
    }

    #[test]
    fn coverage_ignored_when_not_aware() {
        let spec = CvaeSpec::reduced(16, 4);
        let theta = toy_decoder(9);
        let coverage: Vec<u32> = (0..10).map(|c| u32::from(c == 1)).collect();
        let decoders =
            vec![DecoderSubmission { client_id: 0, theta: &theta, coverage: Some(&coverage) }];
        let ds = synthesize_validation_set(
            &decoders,
            &spec,
            &SynthesisBudget::Total(200),
            None,
            false,
            &mut SeededRng::new(5),
        );
        // Without coverage awareness, labels span many classes.
        let nonzero = ds.class_histogram(10).iter().filter(|&&c| c > 0).count();
        assert!(nonzero > 3, "labels unexpectedly restricted");
    }

    #[test]
    fn zero_coverage_decoder_budget_is_redistributed() {
        let spec = CvaeSpec::reduced(16, 4);
        let t1 = toy_decoder(10);
        let t2 = toy_decoder(11);
        let empty = vec![0u32; 10];
        let full: Vec<u32> = vec![1; 10];
        let decoders = vec![
            DecoderSubmission { client_id: 0, theta: &t1, coverage: Some(&empty) },
            DecoderSubmission { client_id: 1, theta: &t2, coverage: Some(&full) },
        ];
        let ds = synthesize_validation_set(
            &decoders,
            &spec,
            &SynthesisBudget::Total(10),
            None,
            true,
            &mut SeededRng::new(6),
        );
        // The unusable decoder's half of the budget moves to the usable one;
        // the validation set keeps the full `t` samples.
        assert_eq!(ds.len(), 10);
    }

    #[test]
    fn redistribution_preserves_budget_across_many_decoders() {
        let spec = CvaeSpec::reduced(16, 4);
        let thetas: Vec<Vec<f32>> = (20..25).map(toy_decoder).collect();
        let empty = vec![0u32; 10];
        let full: Vec<u32> = vec![1; 10];
        // Decoders 0, 2, 4 are unusable; 1 and 3 absorb their budget.
        let decoders: Vec<DecoderSubmission<'_>> = thetas
            .iter()
            .enumerate()
            .map(|(i, t)| DecoderSubmission {
                client_id: i,
                theta: t,
                coverage: Some(if i % 2 == 0 { &empty } else { &full }),
            })
            .collect();
        let ds = synthesize_validation_set(
            &decoders,
            &spec,
            &SynthesisBudget::Total(23),
            None,
            true,
            &mut SeededRng::new(7),
        );
        assert_eq!(ds.len(), 23);
    }

    #[test]
    fn all_decoders_unusable_yields_empty_set() {
        let spec = CvaeSpec::reduced(16, 4);
        let theta = toy_decoder(12);
        let empty = vec![0u32; 10];
        let decoders =
            vec![DecoderSubmission { client_id: 0, theta: &theta, coverage: Some(&empty) }];
        let ds = synthesize_validation_set(
            &decoders,
            &spec,
            &SynthesisBudget::Total(10),
            None,
            true,
            &mut SeededRng::new(8),
        );
        assert_eq!(ds.len(), 0);
    }

    #[test]
    #[should_panic]
    fn empty_decoder_set_panics() {
        let spec = CvaeSpec::reduced(16, 4);
        synthesize_validation_set(
            &[],
            &spec,
            &SynthesisBudget::Total(10),
            None,
            false,
            &mut SeededRng::new(0),
        );
    }
}
