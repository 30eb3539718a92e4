//! The dense `f32` tensor type.

use crate::rng::SeededRng;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};

/// A dense, row-major tensor of `f32` values.
///
/// This is the workhorse value type of the whole reproduction: model
/// activations, weights, gradients and generated images are all `Tensor`s.
/// Data is stored contiguously; views into rows are handed out as slices so
/// kernels can stay allocation-free on their hot paths.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ----- constructors -------------------------------------------------

    /// A tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![0.0; shape.numel()], shape }
    }

    /// A tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with a constant.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![value; shape.numel()], shape }
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Build a tensor from an existing buffer. Panics if the buffer length
    /// does not match the shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor { data, shape }
    }

    /// Standard-normal random tensor, deterministic under the given RNG.
    pub fn randn(dims: &[usize], rng: &mut SeededRng) -> Self {
        let shape = Shape::new(dims);
        // `0.0 +` maps a `-0.0` draw to `+0.0`; the pinned streams are taken with it.
        let data = (0..shape.numel()).map(|_| 0.0 + rng.next_normal()).collect();
        Tensor { data, shape }
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut SeededRng) -> Self {
        let shape = Shape::new(dims);
        assert!(lo < hi, "rand_uniform called with lo >= hi");
        let data = (0..shape.numel()).map(|_| lo + (hi - lo) * rng.next_f32()).collect();
        Tensor { data, shape }
    }

    /// Kaiming/He-uniform initialization for a weight tensor with the given
    /// fan-in, as used for ReLU networks.
    pub fn kaiming_uniform(dims: &[usize], fan_in: usize, rng: &mut SeededRng) -> Self {
        let bound = (6.0 / fan_in as f32).sqrt();
        Self::rand_uniform(dims, -bound, bound, rng)
    }

    // ----- accessors ----------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Extent of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.shape.dim(i)
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Row `r` of a rank-2 tensor, as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.rank(), 2, "row() requires a matrix");
        let cols = self.shape.dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a rank-2 tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.shape.rank(), 2, "row_mut() requires a matrix");
        let cols = self.shape.dim(1);
        &mut self.data[r * cols..(r + 1) * cols]
    }

    // ----- shape manipulation -------------------------------------------

    /// Reinterpret the tensor with a new shape of identical element count.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let new_shape = Shape::new(dims);
        assert_eq!(
            new_shape.numel(),
            self.data.len(),
            "reshape {} -> {} changes element count",
            self.shape,
            new_shape
        );
        self.shape = new_shape;
        self
    }

    /// Transpose a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose requires a matrix");
        let (m, n) = (self.dim(0), self.dim(1));
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * m + i] = v;
            }
        }
        out
    }

    // ----- elementwise algebra -------------------------------------------

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert!(
            self.shape.same_as(&other.shape),
            "{op}: shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
    }

    /// Elementwise sum, returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "add");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Elementwise difference, returning a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "sub");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Elementwise (Hadamard) product, returning a new tensor.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "mul");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// New tensor with every element mapped through `f`.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Fill the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    // ----- reductions -----------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for the empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element. Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element within each row of a matrix.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank(), 2, "argmax_rows requires a matrix");
        (0..self.dim(0))
            .map(|r| {
                let row = self.row(r);
                let mut best = 0usize;
                let mut best_v = f32::NEG_INFINITY;
                for (j, &v) in row.iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Euclidean norm of the whole tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    // ----- batching helpers ------------------------------------------------

    /// Copy rows `lo..hi` of a matrix into a fresh matrix.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "slice_rows requires a matrix");
        assert!(lo <= hi && hi <= self.dim(0), "row range out of bounds");
        let cols = self.dim(1);
        let data = self.data[lo * cols..hi * cols].to_vec();
        Tensor::from_vec(data, &[hi - lo, cols])
    }

    /// Copy columns `lo..hi` of a matrix into a fresh matrix.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "slice_cols requires a matrix");
        assert!(lo <= hi && hi <= self.dim(1), "column range out of bounds");
        let rows = self.dim(0);
        let mut data = Vec::with_capacity(rows * (hi - lo));
        for r in 0..rows {
            data.extend_from_slice(&self.row(r)[lo..hi]);
        }
        Tensor::from_vec(data, &[rows, hi - lo])
    }

    /// Horizontally concatenate two matrices with equal row counts.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2);
        assert_eq!(other.shape.rank(), 2);
        assert_eq!(self.dim(0), other.dim(0), "concat_cols: row count mismatch");
        let rows = self.dim(0);
        let (c1, c2) = (self.dim(1), other.dim(1));
        let mut data = Vec::with_capacity(rows * (c1 + c2));
        for r in 0..rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Tensor::from_vec(data, &[rows, c1 + c2])
    }

    /// Matrix product; see [`crate::kernels::matmul`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        crate::kernels::matmul(self, other)
    }

    /// Sample standard-normal noise with this tensor's shape into a new
    /// tensor (used by the CVAE reparameterization trick).
    pub fn randn_like(&self, rng: &mut SeededRng) -> Tensor {
        Tensor::randn(self.dims(), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[1, 1]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_wrong_length() {
        Tensor::from_vec(vec![1.0; 3], &[2, 2]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).data(), &[-2.0, -2.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 8.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let b = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.at(&[0, 1]), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn argmax_rows_picks_max_per_row() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        let b = a.clone().reshape(&[2, 2]);
        assert_eq!(b.data(), a.data());
        assert_eq!(b.dims(), &[2, 2]);
    }

    #[test]
    #[should_panic]
    fn reshape_rejects_numel_change() {
        Tensor::zeros(&[4]).reshape(&[3]);
    }

    #[test]
    fn concat_cols_interleaves_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![9.0, 8.0], &[2, 1]);
        let c = a.concat_cols(&b);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(c.row(1), &[3.0, 4.0, 8.0]);
    }

    #[test]
    fn slice_cols_copies_range() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let s = a.slice_cols(1, 3);
        assert_eq!(s.dims(), &[3, 2]);
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(2), &[9.0, 10.0]);
    }

    #[test]
    fn slice_rows_copies_range() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.row(0), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = SeededRng::new(42);
        let mut r2 = SeededRng::new(42);
        assert_eq!(Tensor::randn(&[8], &mut r1), Tensor::randn(&[8], &mut r2));
    }

    #[test]
    fn kaiming_bound_respected() {
        let mut rng = SeededRng::new(7);
        let t = Tensor::kaiming_uniform(&[100], 50, &mut rng);
        let bound = (6.0f32 / 50.0).sqrt();
        assert!(t.data().iter().all(|x| x.abs() <= bound));
    }
}
