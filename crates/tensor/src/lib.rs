//! # fg-tensor
//!
//! Dense, row-major `f32` tensors and the compute kernels used throughout the
//! FedGuard reproduction: blocked matrix multiplication, implicit-GEMM
//! convolution (forward and backward), max pooling, reductions, vector
//! algebra over raw parameter slices, and deterministic seeded random-number
//! utilities.
//!
//! The crate is deliberately small and dependency-light: it is the substrate
//! that replaces the role PyTorch plays in the original paper. The GEMM
//! family is a cache-blocked, panel-packed kernel (MC/KC/NC blocking with an
//! MR×NR register-tile microkernel — see [`kernels`]); all per-call scratch
//! — packed panels and filter banks, padded image copies, column gradients —
//! comes from a per-thread [`workspace`] pool, so the conv/linear hot paths
//! perform no heap allocation in steady state beyond their returned tensors.
//! Outer loops are parallelized where the problem size warrants it, via the
//! repo's rayon shim — a real fork-join worker pool sized by `FG_THREADS`
//! (default: all cores). Parallelism is only ever over disjoint output
//! blocks and the shim's split tree depends only on the input size, never
//! the thread count, so every kernel here is bit-identical at
//! `FG_THREADS=1` and `FG_THREADS=N`; parallelism thresholds (`PAR_LEN`,
//! `PAR_THRESHOLD_MACS`) gate when work is worth the fork cost.
//!
//! ## Quick example
//!
//! ```
//! use fg_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod codec;
pub mod conv;
pub mod kernels;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod stats;
pub mod tensor;
pub mod vecops;
pub mod workspace;

pub use shape::Shape;
pub use tensor::Tensor;
