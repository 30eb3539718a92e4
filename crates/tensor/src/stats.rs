//! Scalar statistics used for experiment reporting (Table IV's mean ± std)
//! and for the defenses' thresholding logic.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / xs.len() as f32).sqrt()
}

/// Median (average of middle two for even lengths). Panics on empty input.
///
/// Uses `select_nth_unstable_by` partial selection — O(n) rather than the
/// O(n log n) of a full sort — under the NaN-safe [`f32::total_cmp`] order
/// (NaNs rank above `+∞`, so they are treated as extreme values rather than
/// poisoning the comparison).
pub fn median(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "median of empty slice");
    let mut buf = xs.to_vec();
    let n = buf.len();
    let (left, &mut upper, _) = buf.select_nth_unstable_by(n / 2, f32::total_cmp);
    if n % 2 == 1 {
        upper
    } else {
        // The lower middle element is the maximum of the left partition.
        let lower = left.iter().copied().max_by(f32::total_cmp).expect("even length ≥ 2");
        0.5 * (lower + upper)
    }
}

/// Trimmed mean: drop the `trim` smallest and `trim` largest values, average
/// the rest. Panics if `2*trim >= len`.
///
/// Two `select_nth_unstable_by` selections (under the NaN-safe
/// [`f32::total_cmp`] order) partition off the tails in O(n); the kept middle
/// is averaged unsorted, so the summation order — and thus the last-bit
/// rounding — can differ from a sort-then-mean implementation.
pub fn trimmed_mean(xs: &[f32], trim: usize) -> f32 {
    assert!(2 * trim < xs.len(), "trimmed_mean would drop everything");
    if trim == 0 {
        return mean(xs);
    }
    let mut buf = xs.to_vec();
    let n = buf.len();
    // Partition the `trim` smallest into buf[..trim] ...
    buf.select_nth_unstable_by(trim, f32::total_cmp);
    // ... then the `trim` largest of the remainder into rest[n-2*trim..].
    let rest = &mut buf[trim..];
    let keep = n - 2 * trim;
    rest.select_nth_unstable_by(keep, f32::total_cmp);
    mean(&rest[..keep])
}

/// Summary of a series: mean and population standard deviation, the format
/// of every cell in the paper's Table IV.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeanStd {
    pub mean: f32,
    pub std: f32,
}

impl MeanStd {
    /// Summarize a slice.
    pub fn of(xs: &[f32]) -> MeanStd {
        MeanStd { mean: mean(xs), std: std_dev(xs) }
    }
}

impl std::fmt::Display for MeanStd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}% ± {:.2}%", self.mean * 100.0, self.std * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0f32, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-6);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_outliers() {
        let xs = [1.0f32, 2.0, 3.0, 100.0, -50.0];
        assert!((trimmed_mean(&xs, 1) - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn trimmed_mean_rejects_overtrim() {
        trimmed_mean(&[1.0, 2.0], 1);
    }

    /// The sorted implementations the selection-based versions replaced,
    /// kept as the test oracle.
    fn median_sorted(xs: &[f32]) -> f32 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f32::total_cmp);
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        }
    }

    fn trimmed_mean_sorted(xs: &[f32], trim: usize) -> f32 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f32::total_cmp);
        mean(&sorted[trim..sorted.len() - trim])
    }

    #[test]
    fn selection_matches_full_sort() {
        let mut rng = crate::rng::SeededRng::new(7);
        for len in [1usize, 2, 3, 4, 5, 10, 31, 100, 101] {
            let mut xs: Vec<f32> = (0..len).map(|_| rng.next_f32() * 10.0 - 5.0).collect();
            // Inject duplicates and signed zeros to stress tie handling.
            if len >= 4 {
                xs[1] = xs[0];
                xs[2] = 0.0;
                xs[3] = -0.0;
            }
            assert_eq!(median(&xs), median_sorted(&xs), "median diverged at len {len}");
            for trim in 0..(len / 2).min(4) {
                let sel = trimmed_mean(&xs, trim);
                let srt = trimmed_mean_sorted(&xs, trim);
                // Same kept multiset, different summation order: allow
                // last-bit slack.
                assert!(
                    (sel - srt).abs() <= 1e-6 * (1.0 + srt.abs()),
                    "trimmed_mean diverged at len {len} trim {trim}: {sel} vs {srt}"
                );
            }
        }
    }

    #[test]
    fn total_cmp_ranks_nan_as_extreme() {
        // NaN sorts above +∞ under total_cmp, so it is trimmed/out-voted
        // like any other outlier instead of panicking or poisoning the sort.
        assert_eq!(median(&[1.0, f32::NAN, 2.0]), 2.0);
        assert_eq!(median(&[1.0, f32::INFINITY, 2.0]), 2.0);
        assert_eq!(trimmed_mean(&[1.0, f32::NAN, 2.0, 3.0, -8.0], 1), 2.0);
    }

    #[test]
    fn mean_std_display_is_percent() {
        let s = MeanStd { mean: 0.9897, std: 0.0017 };
        assert_eq!(s.to_string(), "98.97% ± 0.17%");
    }
}
