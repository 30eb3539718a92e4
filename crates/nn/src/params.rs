//! Flattening model parameters to and from plain `Vec<f32>` vectors — the
//! wire format of the federated-learning layer. Clients ship flat vectors
//! (`ψ` for the classifier, `θ` for the CVAE decoder) and the aggregation
//! operators work on them directly.

use crate::layer::{Module, Parameter};
use fg_tensor::Tensor;

/// Concatenate all parameters of a module into one flat vector, in visit
/// order.
pub fn flatten(module: &dyn Module) -> Vec<f32> {
    let mut out = Vec::with_capacity(module.num_params());
    module.visit_params(&mut |p| out.extend_from_slice(p.value.data()));
    out
}

/// Load a flat vector produced by [`flatten`] back into the module.
///
/// Panics if the vector length does not match the module's parameter count.
pub fn load(module: &mut dyn Module, flat: &[f32]) {
    check_len(flat.len(), module.num_params());
    let mut off = 0usize;
    module.visit_params_mut(&mut |p| {
        let n = p.numel();
        p.value.data_mut().copy_from_slice(&flat[off..off + n]);
        off += n;
    });
}

/// Panics unless a flat vector of `len` scalars is the size of a model of
/// `expected` parameters.
pub(crate) fn check_len(len: usize, expected: usize) {
    assert_eq!(len, expected, "parameter vector length {len} != model size {expected}");
}

/// The next parameter, of shape `dims`, copied off the front of a flat
/// vector in [`flatten`] order; `flat` moves past it. How a model is built
/// from its flat vector without an initialisation to overwrite.
pub(crate) fn take(flat: &mut &[f32], dims: &[usize]) -> Parameter {
    let (value, rest) = flat.split_at(dims.iter().product());
    *flat = rest;
    Parameter::new(Tensor::from_vec(value.to_vec(), dims))
}

/// Size in bytes of a flat parameter vector on the simulated wire
/// (f32 = 4 bytes, matching the paper's MB figures: 1,662,752 × 4 ≈ 6.65 MB).
pub fn wire_bytes(num_params: usize) -> u64 {
    num_params as u64 * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::models::{Classifier, ClassifierSpec};
    use fg_tensor::rng::SeededRng;

    #[test]
    fn flatten_load_round_trip() {
        let spec = ClassifierSpec::Mlp { hidden: 4 };
        let net = Classifier::new(&spec, &mut SeededRng::new(0));
        let flat = flatten(&net);
        assert_eq!(flat.len(), net.num_params());

        let mut net2 = Classifier::new(&spec, &mut SeededRng::new(1));
        load(&mut net2, &flat);
        assert_eq!(flatten(&net2), flat);
    }

    #[test]
    #[should_panic]
    fn load_rejects_wrong_length() {
        let mut rng = SeededRng::new(1);
        let mut net = Linear::new(2, 2, &mut rng);
        load(&mut net, &[0.0; 3]);
    }

    #[test]
    fn wire_bytes_matches_paper_classifier_size() {
        // Paper: 1,662,752 parameters == 6.65 MB.
        let bytes = wire_bytes(1_662_752);
        assert_eq!(bytes, 6_651_008);
        assert!((bytes as f64 / 1e6 - 6.65).abs() < 0.01);
    }
}
