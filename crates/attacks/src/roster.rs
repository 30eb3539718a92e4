//! Selecting which clients are malicious.

use fg_tensor::rng::SeededRng;

/// Choose `⌊fraction · n⌋` malicious client ids uniformly at random,
/// deterministic under `seed`. Returns a sorted roster.
pub fn choose_malicious(n_clients: usize, fraction: f64, seed: u64) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&fraction), "malicious fraction out of range");
    let count = ((n_clients as f64) * fraction).round() as usize;
    let mut rng = SeededRng::new(seed);
    let mut roster = rng.sample_distinct(n_clients, count.min(n_clients));
    roster.sort_unstable();
    roster
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_size_matches_fraction() {
        assert_eq!(choose_malicious(100, 0.5, 0).len(), 50);
        assert_eq!(choose_malicious(100, 0.3, 0).len(), 30);
        assert_eq!(choose_malicious(100, 0.4, 0).len(), 40);
        assert_eq!(choose_malicious(10, 0.0, 0).len(), 0);
        assert_eq!(choose_malicious(10, 1.0, 0).len(), 10);
    }

    #[test]
    fn roster_is_deterministic_and_unique() {
        let a = choose_malicious(100, 0.5, 7);
        let b = choose_malicious(100, 0.5, 7);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 50);
        assert_ne!(a, choose_malicious(100, 0.5, 8));
    }

    #[test]
    #[should_panic]
    fn out_of_range_fraction_rejected() {
        choose_malicious(10, 1.5, 0);
    }
}
