//! The paper's task models.
//!
//! * [`Classifier`] — the federated MNIST classifier `f_ψ`. The
//!   [`ClassifierSpec::TableIICnn`] variant is the paper's exact Table II
//!   architecture; [`ClassifierSpec::Mlp`] is the reduced architecture the
//!   CPU-budget presets use. It trains and scores through the engine in
//!   `batched`, with itself as the only group.
//! * [`BatchedClassifier`] — `m` borrowed parameter sets of one
//!   architecture scored together through that engine's grouped per-layer
//!   kernel launches, bitwise equal to `m` one-model
//!   [`Classifier::evaluate`] calls (the server's audit and evaluation).
//! * [`Cvae`] / [`CvaeDecoder`] — the Conditional Variational AutoEncoder of
//!   Table III, whose flat vector ends in the decoder's `θ` that FedGuard
//!   clients ship to the server, and the decoder `D_θ` as a borrowed view of
//!   a `θ`, which the server decodes in place.

mod batched;
mod classifier;
mod cvae;
mod vae;

pub use crate::layer::LayerSpec;
pub use batched::BatchedClassifier;
pub use classifier::{Classifier, ClassifierSpec};
pub use cvae::{Cvae, CvaeDecoder, CvaeSpec};
pub use vae::{Vae, VaeSpec};

use fg_tensor::Tensor;

/// One-hot encode integer labels into a `(batch, n_classes)` matrix.
pub fn one_hot(labels: &[usize], n_classes: usize) -> Tensor {
    let mut out = Tensor::zeros(&[labels.len(), n_classes]);
    for (r, &l) in labels.iter().enumerate() {
        assert!(l < n_classes, "label {l} out of range for {n_classes} classes");
        *out.at_mut(&[r, l]) = 1.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_rows_sum_to_one() {
        let oh = one_hot(&[2, 0, 1], 3);
        assert_eq!(oh.dims(), &[3, 3]);
        assert_eq!(oh.at(&[0, 2]), 1.0);
        assert_eq!(oh.at(&[1, 0]), 1.0);
        assert_eq!(oh.at(&[2, 1]), 1.0);
        assert_eq!(oh.sum(), 3.0);
    }

    #[test]
    #[should_panic]
    fn one_hot_rejects_out_of_range() {
        one_hot(&[3], 3);
    }
}
