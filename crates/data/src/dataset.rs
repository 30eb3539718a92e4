//! In-memory labeled image dataset.

use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A labeled dataset of flattened grayscale images.
///
/// Images are stored contiguously (`n × 784` f32 values); labels are `u8`
/// class ids. All federated clients and the server's held-out test set use
/// this type.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    images: Vec<f32>,
    labels: Vec<u8>,
    dim: usize,
}

impl Dataset {
    /// Build from a flat image buffer and labels. Panics if the buffer is
    /// not a whole multiple of the label count.
    pub fn new(images: Vec<f32>, labels: Vec<u8>) -> Self {
        assert!(!labels.is_empty() || images.is_empty(), "labels empty but images present");
        let dim = if labels.is_empty() { 0 } else { images.len() / labels.len() };
        assert_eq!(dim * labels.len(), images.len(), "ragged image buffer");
        Dataset { images, labels, dim }
    }

    /// Build from `labels.len()` rows of `dim` floats. Unlike
    /// [`Dataset::new`], an empty set keeps `dim`, as [`Dataset::subset`]
    /// does.
    pub(crate) fn with_dim(images: Vec<f32>, labels: Vec<u8>, dim: usize) -> Self {
        assert_eq!(dim * labels.len(), images.len(), "ragged image buffer");
        Dataset { images, labels, dim }
    }

    /// An empty dataset.
    pub fn empty() -> Self {
        Dataset { images: Vec::new(), labels: Vec::new(), dim: 0 }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Flattened per-image dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Raw image buffer.
    pub fn images(&self) -> &[f32] {
        &self.images
    }

    /// Labels as a slice.
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// Labels widened to `usize` (the loss functions' target type).
    pub fn labels_usize(&self) -> Vec<usize> {
        self.labels.iter().map(|&l| l as usize).collect()
    }

    /// Mutable labels (used by poisoning transforms).
    pub fn labels_mut(&mut self) -> &mut [u8] {
        &mut self.labels
    }

    /// One image as a slice.
    pub fn image(&self, i: usize) -> &[f32] {
        &self.images[i * self.dim..(i + 1) * self.dim]
    }

    /// All images as a `(n, dim)` tensor (copies).
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.images.clone(), &[self.len(), self.dim.max(1)])
    }

    /// A new dataset containing the given sample indices (copies).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut images = Vec::with_capacity(indices.len() * self.dim);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            images.extend_from_slice(self.image(i));
            labels.push(self.labels[i]);
        }
        Dataset { images, labels, dim: self.dim }
    }

    /// Split off the first `n` samples into one dataset and the rest into
    /// another.
    pub fn split_at(&self, n: usize) -> (Dataset, Dataset) {
        assert!(n <= self.len(), "split point beyond dataset");
        let head: Vec<usize> = (0..n).collect();
        let tail: Vec<usize> = (n..self.len()).collect();
        (self.subset(&head), self.subset(&tail))
    }

    /// Shuffle samples in place.
    pub fn shuffle(&mut self, rng: &mut SeededRng) {
        let n = self.len();
        for i in (1..n).rev() {
            let j = rng.next_below(i + 1);
            if i != j {
                self.labels.swap(i, j);
                let (lo, hi) = (i.min(j), i.max(j));
                let (a, b) = self.images.split_at_mut(hi * self.dim);
                a[lo * self.dim..(lo + 1) * self.dim].swap_with_slice(&mut b[..self.dim]);
            }
        }
    }

    /// Iterate over mini-batches as `(images_tensor, labels)` pairs, in
    /// order. The final batch may be smaller.
    pub fn batches(&self, batch: usize) -> impl Iterator<Item = (Tensor, Vec<usize>)> + '_ {
        assert!(batch > 0, "batch size must be positive");
        let n = self.len();
        (0..n.div_ceil(batch)).map(move |b| {
            let lo = b * batch;
            let hi = (lo + batch).min(n);
            let x = Tensor::from_vec(
                self.images[lo * self.dim..hi * self.dim].to_vec(),
                &[hi - lo, self.dim],
            );
            let y = self.labels[lo..hi].iter().map(|&l| l as usize).collect();
            (x, y)
        })
    }

    /// Per-class sample counts.
    pub fn class_histogram(&self, n_classes: usize) -> Vec<usize> {
        let mut hist = vec![0usize; n_classes];
        for &l in &self.labels {
            hist[l as usize] += 1;
        }
        hist
    }

    /// Concatenate two datasets of equal dimensionality.
    pub fn concat(&self, other: &Dataset) -> Dataset {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        assert_eq!(self.dim, other.dim, "concat: dim mismatch");
        let mut images = self.images.clone();
        images.extend_from_slice(&other.images);
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        Dataset { images, labels, dim: self.dim }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let images: Vec<f32> = (0..n * 4).map(|x| x as f32).collect();
        let labels: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        Dataset::new(images, labels)
    }

    #[test]
    fn construction_and_access() {
        let ds = toy(5);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.dim(), 4);
        assert_eq!(ds.image(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic]
    fn ragged_buffer_rejected() {
        Dataset::new(vec![1.0; 7], vec![0, 1]);
    }

    #[test]
    fn subset_copies_right_rows() {
        let ds = toy(5);
        let s = ds.subset(&[4, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.image(0), ds.image(4));
        assert_eq!(s.image(1), ds.image(0));
        assert_eq!(s.labels()[0], ds.labels()[4]);
    }

    #[test]
    fn split_preserves_all_samples() {
        let ds = toy(5);
        let (a, b) = ds.split_at(2);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
        assert_eq!(a.concat(&b), ds);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut ds = toy(20);
        let before = ds.clone();
        ds.shuffle(&mut SeededRng::new(1));
        assert_ne!(ds, before);
        // Every (image, label) pair still present exactly once.
        for i in 0..ds.len() {
            let img = ds.image(i);
            let found = (0..before.len())
                .any(|j| before.image(j) == img && before.labels()[j] == ds.labels()[i]);
            assert!(found);
        }
    }

    #[test]
    fn shuffle_keeps_images_aligned_with_labels() {
        // Encode label into the image so misalignment is detectable.
        let n = 30;
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let l = (i % 3) as u8;
            images.extend_from_slice(&[l as f32, 0.0]);
            labels.push(l);
        }
        let mut ds = Dataset::new(images, labels);
        ds.shuffle(&mut SeededRng::new(2));
        for i in 0..ds.len() {
            assert_eq!(ds.image(i)[0] as u8, ds.labels()[i]);
        }
    }

    #[test]
    fn batches_cover_everything_in_order() {
        let ds = toy(7);
        let batches: Vec<_> = ds.batches(3).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].0.dims(), &[3, 4]);
        assert_eq!(batches[2].0.dims(), &[1, 4]);
        let total: usize = batches.iter().map(|(_, y)| y.len()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn class_histogram_counts() {
        let ds = toy(9);
        assert_eq!(ds.class_histogram(3), vec![3, 3, 3]);
    }

    #[test]
    fn empty_dataset_behaves() {
        let ds = Dataset::empty();
        assert!(ds.is_empty());
        assert_eq!(ds.class_histogram(3), vec![0, 0, 0]);
        let joined = ds.concat(&toy(2));
        assert_eq!(joined.len(), 2);
    }
}
