//! Deterministic random-number utilities.
//!
//! Every stochastic component of the reproduction (data synthesis, Dirichlet
//! partitioning, weight init, client sampling, CVAE priors, attacks) draws
//! from a [`SeededRng`] derived from a single experiment master seed, so runs
//! are exactly reproducible. Parallel workers never share an RNG: each gets a
//! seed derived with [`derive_seed`] (a SplitMix64 mix), which keeps streams
//! statistically independent without any synchronization.
//!
//! The generator is xoshiro256++, its four state words seeded through
//! SplitMix64. Four samplers sit on its `u64` output: a 24-bit uniform `f32`
//! in `[0, 1)`, a widening-multiply integer range, a Box–Muller normal, and a
//! Marsaglia–Tsang Gamma (normalised into a Dirichlet draw). How many words
//! each one consumes, in which order, and the arithmetic it does on them are
//! part of the workspace's bit-identity contract: `stream_fingerprint_is_pinned`
//! here and `partition_fingerprint_is_pinned` in fg-data fail if any of it moves.

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function used to
/// derive independent child seeds from a parent seed and a stream index.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Derive an independent child seed from `parent` for logical stream `stream`.
///
/// Used to give every client / round / component its own RNG without sharing
/// mutable state across rayon tasks.
#[inline]
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    splitmix64(parent ^ splitmix64(stream.wrapping_add(0xA5A5_A5A5_DEAD_BEEF)))
}

/// A seeded xoshiro256++ generator and the samplers the workspace draws with.
///
/// Owning a distinct `SeededRng` per logical actor is the concurrency model
/// of this workspace: ownership transfer instead of locking.
#[derive(Clone, Debug)]
pub struct SeededRng {
    s: [u64; 4],
    seed: u64,
}

impl SeededRng {
    /// Create an RNG from a 64-bit seed, expanded through SplitMix64 (per the
    /// xoshiro authors' recommendation) so similar seeds give unrelated states.
    pub fn new(seed: u64) -> Self {
        const GAMMA: u64 = 0x9E3779B97F4A7C15;
        let s =
            std::array::from_fn(|k| splitmix64(seed.wrapping_add(GAMMA.wrapping_mul(k as u64))));
        SeededRng { s, seed }
    }

    /// The seed this RNG was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fork an independent child RNG for logical stream `stream`.
    pub fn fork(&self, stream: u64) -> SeededRng {
        SeededRng::new(derive_seed(self.seed, stream))
    }

    /// One xoshiro256++ step.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f32` in `[0, 1)`: the top 24 bits of one word.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[lo, lo + span)` by widening multiply (Lemire's
    /// mapping without the rejection step: the bias is `span`·2⁻⁶⁴).
    #[inline]
    fn next_in(&mut self, lo: usize, span: usize) -> usize {
        assert!(span > 0, "empty range");
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as usize
    }

    /// Uniform integer in `[0, n)`.
    pub fn next_below(&mut self, n: usize) -> usize {
        self.next_in(0, n)
    }

    /// Uniform `f64` in `(0, 1]`: never 0, so `ln` of it is finite.
    #[inline]
    fn next_unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal by Box–Muller over two `(0, 1]` draws.
    #[inline]
    fn next_normal_f64(&mut self) -> f64 {
        let u1 = self.next_unit_open();
        let u2 = self.next_unit_open();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Standard normal sample.
    pub fn next_normal(&mut self) -> f32 {
        self.next_normal_f64() as f32
    }

    /// Gamma(shape, 1) via Marsaglia–Tsang; for shape < 1 the α+1 boost is used.
    fn next_gamma(&mut self, shape: f64) -> f64 {
        if shape < 1.0 {
            let boost = self.next_unit_open().powf(1.0 / shape);
            return self.next_gamma(shape + 1.0) * boost;
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.next_normal_f64();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.next_unit_open();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }

    /// One draw from the symmetric Dirichlet `Dir(α · 1_size)`: `size`
    /// Gamma(α, 1) variates, normalised.
    pub fn next_dirichlet(&mut self, alpha: f32, size: usize) -> Vec<f32> {
        assert!(alpha > 0.0 && alpha.is_finite(), "Dirichlet concentration must be positive");
        assert!(size >= 2, "Dirichlet needs at least 2 categories");
        let gammas: Vec<f64> = (0..size).map(|_| self.next_gamma(alpha as f64)).collect();
        let total: f64 = gammas.iter().sum();
        if total <= 0.0 || !total.is_finite() {
            // Degenerate draw (all gammas underflowed): fall back to uniform.
            return vec![1.0 / size as f32; size];
        }
        gammas.iter().map(|&g| (g / total) as f32).collect()
    }

    /// Sample `m` distinct indices uniformly from `0..n` (Floyd's algorithm
    /// would also work; we shuffle a prefix which is simple and O(n)).
    pub fn sample_distinct(&mut self, n: usize, m: usize) -> Vec<usize> {
        assert!(m <= n, "cannot sample {m} distinct values from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..m {
            let j = self.next_in(i, n - i);
            idx.swap(i, j);
        }
        idx.truncate(m);
        idx
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_in(0, i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample an index from a categorical distribution given by (unnormalized,
    /// non-negative) weights. Panics if all weights are zero.
    pub fn sample_categorical(&mut self, weights: &[f32]) -> usize {
        let total: f32 = weights.iter().sum();
        assert!(total > 0.0, "categorical weights must not all be zero");
        let mut u = self.next_f32() * total;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_ne!(splitmix64(0), 0);
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        let s1 = derive_seed(42, 0);
        let s2 = derive_seed(42, 1);
        let s3 = derive_seed(43, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SeededRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = SeededRng::new(7);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&rng.next_f32()));
            let y = rng.next_unit_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = SeededRng::new(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.next_below(5)] = true;
            assert!((2..=4).contains(&rng.next_in(2, 3)));
        }
        assert!(seen.iter().all(|&s| s), "all buckets of 0..5 should be hit");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SeededRng::new(1);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.next_normal_f64()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SeededRng::new(2);
        let t = Tensor::rand_uniform(&[1000], -0.5, 0.25, &mut rng);
        assert!(t.data().iter().all(|x| (-0.5..0.25).contains(x)));
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = SeededRng::new(3);
        for &alpha in &[0.3f32, 1.0, 10.0] {
            let w = rng.next_dirichlet(alpha, 7);
            assert_eq!(w.len(), 7);
            assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
            let s: f32 = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "sum {s}");
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        let panics =
            |f: fn(&mut SeededRng)| std::panic::catch_unwind(|| f(&mut SeededRng::new(0))).is_err();
        assert!(panics(|rng| drop(rng.next_dirichlet(0.0, 5))));
        assert!(panics(|rng| drop(rng.next_dirichlet(1.0, 1))));
        assert!(panics(|rng| drop(Tensor::rand_uniform(&[4], 1.0, 1.0, rng))));
    }

    #[test]
    fn fork_produces_independent_reproducible_streams() {
        let parent = SeededRng::new(99);
        let mut a = parent.fork(5);
        let mut b = parent.fork(5);
        let mut c = parent.fork(6);
        assert_eq!(a.next_f32(), b.next_f32());
        assert_ne!(a.next_f32(), c.next_f32());
    }

    #[test]
    fn sample_distinct_returns_unique_sorted_set() {
        let mut rng = SeededRng::new(0);
        let mut s = rng.sample_distinct(100, 50);
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 50);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_distinct_full_range() {
        let mut rng = SeededRng::new(0);
        let mut s = rng.sample_distinct(10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn sample_distinct_rejects_oversample() {
        SeededRng::new(0).sample_distinct(3, 4);
    }

    #[test]
    fn categorical_respects_zero_weight() {
        let mut rng = SeededRng::new(1);
        for _ in 0..100 {
            let i = rng.sample_categorical(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn categorical_is_roughly_proportional() {
        let mut rng = SeededRng::new(2);
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[rng.sample_categorical(&[1.0, 3.0])] += 1;
        }
        let frac = counts[1] as f32 / 10_000.0;
        assert!((frac - 0.75).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = SeededRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    /// FNV-1a over a stream of 64-bit words (little-endian bytes).
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in words.into_iter().flat_map(u64::to_le_bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Every primitive's bits, in a fixed script: the draw order and the
    /// arithmetic of each sampler are part of the bit-identity contract.
    #[test]
    fn stream_fingerprint_is_pinned() {
        let weights = [0.5f32, 0.0, 1.25, 3.0, 0.25];
        let root = SeededRng::new(42);
        let mut words: Vec<u64> = Vec::new();
        for mut rng in [root.clone(), root.fork(7)] {
            words.extend((0..64).map(|_| rng.next_f32().to_bits() as u64));
            words.extend((1..=64).map(|n| rng.next_below(n) as u64));
            words.extend((0..64).map(|_| rng.next_normal().to_bits() as u64));
            words.extend((0..64).map(|_| rng.sample_categorical(&weights) as u64));
            words.extend(rng.sample_distinct(100, 50).into_iter().map(|i| i as u64));
            let mut perm: Vec<u64> = (0..97).collect();
            rng.shuffle(&mut perm);
            words.extend(perm);
            let z = Tensor::randn(&[5, 7], &mut rng);
            let u = Tensor::rand_uniform(&[33], -0.37, 1.25, &mut rng);
            words.extend(z.data().iter().chain(u.data()).map(|x| x.to_bits() as u64));
        }
        assert_eq!(fnv1a(words), 0x2edf_27cf_ea92_2877);
    }
}
