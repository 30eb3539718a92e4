//! Dirichlet client partitioning (Hsu et al., "Measuring the effects of
//! non-identical data distribution for federated visual classification").
//!
//! For each class, client proportions are drawn from `Dir(α · 1_N)` and the
//! class's samples are assigned accordingly. The paper uses `α = 10` over
//! `N = 100` clients — mildly heterogeneous, realistic client skew.

use crate::dataset::Dataset;
use fg_tensor::rng::SeededRng;

/// Assign every sample of `dataset` to one of `n_clients` partitions using
/// per-class Dirichlet(α) proportions. Returns per-client index lists
/// (disjoint, jointly covering the dataset).
pub fn dirichlet_partition(
    dataset: &Dataset,
    n_clients: usize,
    alpha: f32,
    n_classes: usize,
    rng: &mut SeededRng,
) -> Vec<Vec<usize>> {
    dirichlet_partition_labels(dataset.labels(), n_clients, alpha, n_classes, rng)
}

/// [`dirichlet_partition`] on the labels alone, so a partition can be drawn
/// before any image is rendered (`synth::DigitPlan::labels`).
pub fn dirichlet_partition_labels(
    labels: &[u8],
    n_clients: usize,
    alpha: f32,
    n_classes: usize,
    rng: &mut SeededRng,
) -> Vec<Vec<usize>> {
    assert!(n_clients > 0, "need at least one client");
    assert!(alpha > 0.0, "Dirichlet concentration must be positive");
    let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); n_clients];

    for class in 0..n_classes {
        let mut idx: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == class as u8).then_some(i))
            .collect();
        if idx.is_empty() {
            continue;
        }
        rng.shuffle(&mut idx);

        let proportions: Vec<f32> =
            if n_clients == 1 { vec![1.0] } else { rng.next_dirichlet(alpha, n_clients) };

        // Convert proportions into contiguous index ranges (largest
        // remainder rounding so every sample lands somewhere).
        let n = idx.len();
        let mut cuts = Vec::with_capacity(n_clients + 1);
        let mut acc = 0.0f64;
        cuts.push(0usize);
        for &p in proportions.iter().take(n_clients - 1) {
            acc += p as f64;
            cuts.push(((acc * n as f64).round() as usize).min(n));
        }
        cuts.push(n);
        for c in 1..cuts.len() {
            if cuts[c] < cuts[c - 1] {
                cuts[c] = cuts[c - 1];
            }
        }
        for (client, w) in cuts.windows(2).enumerate() {
            partitions[client].extend_from_slice(&idx[w[0]..w[1]]);
        }
    }

    for p in &mut partitions {
        rng.shuffle(p);
    }
    partitions
}

/// IID partitioning: shuffle and deal samples round-robin. The homogeneous
/// reference point for heterogeneity ablations.
pub fn iid_partition(dataset: &Dataset, n_clients: usize, rng: &mut SeededRng) -> Vec<Vec<usize>> {
    assert!(n_clients > 0, "need at least one client");
    let mut idx: Vec<usize> = (0..dataset.len()).collect();
    rng.shuffle(&mut idx);
    let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); n_clients];
    for (i, sample) in idx.into_iter().enumerate() {
        partitions[i % n_clients].push(sample);
    }
    partitions
}

/// Pathological shard partitioning (McMahan et al.): sort by label, cut into
/// `shards_per_client * n_clients` shards, deal each client its shards. With
/// 2 shards per client most clients see only ~2 classes — the extreme
/// heterogeneity regime §VI-B warns about.
pub fn shard_partition(
    dataset: &Dataset,
    n_clients: usize,
    shards_per_client: usize,
    rng: &mut SeededRng,
) -> Vec<Vec<usize>> {
    assert!(n_clients > 0 && shards_per_client > 0);
    let mut idx: Vec<usize> = (0..dataset.len()).collect();
    idx.sort_by_key(|&i| dataset.labels()[i]);

    let n_shards = n_clients * shards_per_client;
    assert!(n_shards <= dataset.len(), "more shards than samples");
    let shard_size = dataset.len() / n_shards;

    let mut shard_order: Vec<usize> = (0..n_shards).collect();
    rng.shuffle(&mut shard_order);

    let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); n_clients];
    for (k, &shard) in shard_order.iter().enumerate() {
        let client = k / shards_per_client;
        let lo = shard * shard_size;
        let hi = if shard == n_shards - 1 { dataset.len() } else { lo + shard_size };
        partitions[client].extend_from_slice(&idx[lo..hi]);
    }
    partitions
}

/// Materialize partitions into per-client datasets.
pub fn partition_datasets(dataset: &Dataset, partitions: &[Vec<usize>]) -> Vec<Dataset> {
    partitions.iter().map(|idx| dataset.subset(idx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::generate_dataset;

    #[test]
    fn partition_is_exact_cover() {
        let ds = generate_dataset(20, 1);
        let mut rng = SeededRng::new(2);
        let parts = dirichlet_partition(&ds, 10, 10.0, 10, &mut rng);
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..ds.len()).collect::<Vec<_>>());
    }

    #[test]
    fn high_alpha_is_nearly_uniform() {
        let ds = generate_dataset(100, 3);
        let mut rng = SeededRng::new(4);
        let parts = dirichlet_partition(&ds, 10, 1000.0, 10, &mut rng);
        let expected = ds.len() / 10;
        for p in &parts {
            assert!(
                (p.len() as isize - expected as isize).unsigned_abs() < expected / 3,
                "partition size {} far from uniform {expected}",
                p.len()
            );
        }
    }

    #[test]
    fn low_alpha_is_skewed() {
        let ds = generate_dataset(50, 5);
        let mut rng = SeededRng::new(6);
        let parts = dirichlet_partition(&ds, 10, 0.1, 10, &mut rng);
        let datasets = partition_datasets(&ds, &parts);
        // With alpha = 0.1 most clients should miss several classes entirely.
        let missing: usize = datasets
            .iter()
            .map(|d| d.class_histogram(10).iter().filter(|&&c| c == 0).count())
            .sum();
        assert!(missing > 10, "alpha=0.1 partition unexpectedly uniform (missing={missing})");
    }

    #[test]
    fn single_client_gets_everything() {
        let ds = generate_dataset(5, 7);
        let mut rng = SeededRng::new(8);
        let parts = dirichlet_partition(&ds, 1, 10.0, 10, &mut rng);
        assert_eq!(parts[0].len(), ds.len());
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = generate_dataset(10, 9);
        let a = dirichlet_partition(&ds, 5, 10.0, 10, &mut SeededRng::new(10));
        let b = dirichlet_partition(&ds, 5, 10.0, 10, &mut SeededRng::new(10));
        assert_eq!(a, b);
    }

    #[test]
    fn iid_partition_is_balanced_cover() {
        let ds = generate_dataset(30, 20);
        let mut rng = SeededRng::new(21);
        let parts = iid_partition(&ds, 7, &mut rng);
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..ds.len()).collect::<Vec<_>>());
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1, "{sizes:?}");
    }

    #[test]
    fn shard_partition_restricts_class_exposure() {
        let ds = generate_dataset(50, 22); // 500 samples
        let mut rng = SeededRng::new(23);
        let parts = shard_partition(&ds, 10, 2, &mut rng);
        let datasets = partition_datasets(&ds, &parts);
        // With 2 shards each, clients should on average see very few classes.
        let mean_classes: f64 = datasets
            .iter()
            .map(|d| d.class_histogram(10).iter().filter(|&&c| c > 0).count() as f64)
            .sum::<f64>()
            / 10.0;
        assert!(mean_classes <= 4.0, "shard partition too uniform: {mean_classes}");
        // Still an exact cover.
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn paper_scale_partition_leaves_no_client_empty() {
        // N = 100, alpha = 10 — the paper's configuration.
        let ds = generate_dataset(100, 11); // 1000 samples
        let mut rng = SeededRng::new(12);
        let parts = dirichlet_partition(&ds, 100, 10.0, 10, &mut rng);
        assert_eq!(parts.len(), 100);
        let empty = parts.iter().filter(|p| p.is_empty()).count();
        assert!(empty <= 2, "{empty} clients got no data");
    }

    /// The Dirichlet sampler's bits (Gamma draws, their order, the
    /// normalisation) decide every client's shard; pin them.
    #[test]
    fn partition_fingerprint_is_pinned() {
        let ds = generate_dataset(20, 1);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for alpha in [0.1f32, 10.0] {
            let mut rng = SeededRng::new(42);
            for part in dirichlet_partition(&ds, 7, alpha, 10, &mut rng) {
                eat(part.len() as u64);
                part.into_iter().for_each(|i| eat(i as u64));
            }
        }
        assert_eq!(h, 0x5b06_ff12_0261_a4f1);
    }
}
