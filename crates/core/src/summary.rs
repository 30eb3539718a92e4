//! Experiment summaries — the statistics behind Table IV.

use fg_fl::RoundTelemetry;
use fg_tensor::stats::MeanStd;

/// Mean ± std of accuracy over the last `tail_fraction` of rounds. The paper
/// averages the last 40 of 50 rounds ("we do not average the 10 first rounds
/// ... because the model has not converged yet"), i.e. `tail_fraction = 0.8`.
pub fn tail_accuracy(history: &[RoundTelemetry], tail_fraction: f64) -> MeanStd {
    assert!((0.0..=1.0).contains(&tail_fraction), "tail fraction out of range");
    if history.is_empty() {
        return MeanStd { mean: 0.0, std: 0.0 };
    }
    let skip = ((history.len() as f64) * (1.0 - tail_fraction)).round() as usize;
    let skip = skip.min(history.len() - 1);
    let tail: Vec<f32> = history[skip..].iter().map(|r| r.accuracy).collect();
    MeanStd::of(&tail)
}

/// Mean wall-clock seconds per round (Table V's "training time / round").
pub fn mean_round_secs(history: &[RoundTelemetry]) -> f64 {
    if history.is_empty() {
        return 0.0;
    }
    history.iter().map(|r| r.wall_secs).sum::<f64>() / history.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentResult;

    /// One round: client 1 (malicious) sampled and excluded, client 0 kept.
    fn record(round: usize, acc: f32) -> RoundTelemetry {
        RoundTelemetry {
            round,
            accuracy: acc,
            wall_secs: 2.0,
            sampled: vec![0, 1],
            selected: vec![0],
            excluded: vec![1],
            malicious_sampled: vec![1],
            ..Default::default()
        }
    }

    #[test]
    fn tail_skips_warmup_rounds() {
        // 10 rounds: first 2 bad, last 8 good; tail 0.8 sees only the 8.
        let mut h: Vec<RoundTelemetry> = Vec::new();
        for r in 0..10 {
            h.push(record(r, if r < 2 { 0.1 } else { 0.9 }));
        }
        let s = tail_accuracy(&h, 0.8);
        assert!((s.mean - 0.9).abs() < 1e-6);
        assert!(s.std < 1e-6);
    }

    #[test]
    fn tail_full_history() {
        let h = vec![record(0, 0.5), record(1, 1.0)];
        let s = tail_accuracy(&h, 1.0);
        assert!((s.mean - 0.75).abs() < 1e-6);
    }

    #[test]
    fn tail_of_empty_history_is_zero() {
        assert_eq!(tail_accuracy(&[], 0.8).mean, 0.0);
    }

    #[test]
    fn detection_rates() {
        let result = ExperimentResult {
            strategy: "FedGuard".to_string(),
            attack: "sign-flipping".to_string(),
            malicious_clients: vec![1],
            history: vec![record(0, 0.9), record(1, 0.9)],
            tail_fraction: 0.8,
        };
        let d = result.detection();
        assert_eq!((d.true_positives, d.true_negatives), (2, 2));
        assert_eq!((d.false_positives, d.false_negatives), (0, 0));
        assert_eq!(d.recall(), 1.0);
        assert_eq!(d.fpr(), 0.0);
    }

    #[test]
    fn mean_round_time() {
        let h = vec![record(0, 0.9), record(1, 0.9)];
        assert_eq!(mean_round_secs(&h), 2.0);
        assert_eq!(mean_round_secs(&[]), 0.0);
    }
}
