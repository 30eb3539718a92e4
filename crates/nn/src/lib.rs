//! # fg-nn
//!
//! The neural-network library of the FedGuard reproduction: the slice
//! bodies of linear layers and ReLU that each model's explicit forward and
//! backward passes call, classification and variational losses, SGD/Adam
//! optimizers, and the exact models from the paper —
//!
//! * the Table II MNIST classifier (two padded 5×5 convolutions with 2×2 max
//!   pooling, a 512-unit fully connected layer and a 10-way output;
//!   1,662,752 weight parameters as counted by the paper), stated once as a
//!   layer list that one engine walks to train a client's model and to score
//!   the server's cohorts,
//! * the Table III Conditional Variational AutoEncoder (794-400 encoder with
//!   twin 20-unit heads, 30-400-794 decoder; 664,834 parameters),
//! * an MLP classifier and a reduced CVAE used by the CPU-budget presets.
//!
//! Each model is its flat `Vec<f32>` vector: it holds one [`Parameter`],
//! whose value is that vector and whose grad its gradient, and every pass
//! reads its per-layer weight and bias views out of it at the offsets its
//! layer list gives ([`layer::LayerSpec`]). The vector is the currency of
//! the federated-learning layer ([`params`]): clients ship flat vectors, a
//! model is built straight from one, aggregation operators combine them.
//!
//! ```
//! use fg_nn::models::{Classifier, ClassifierSpec};
//! use fg_tensor::rng::SeededRng;
//!
//! let mut rng = SeededRng::new(0);
//! let clf = Classifier::new(&ClassifierSpec::Mlp { hidden: 32 }, &mut rng);
//! assert_eq!(clf.spec().input_dim(), 784);
//! ```

pub mod activations;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod models;
pub mod optim;
pub mod params;

pub use layer::{Module, Parameter};

/// The bit patterns of a float slice: what the crate's bit-identity tests
/// compare, so that NaNs and signed zeros count.
#[cfg(test)]
pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
pub use optim::{Adam, Optimizer, Sgd};
