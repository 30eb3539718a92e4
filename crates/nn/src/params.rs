//! Model parameters as plain `Vec<f32>` vectors — the wire format of the
//! federated-learning layer. A model is built straight from its vector
//! (`Classifier::from_params`, `CvaeDecoder::from_params`). Clients ship flat vectors
//! (`ψ` for the classifier, `θ` for the CVAE decoder) and the aggregation
//! operators work on them directly.

use crate::layer::Module;

/// Concatenate all parameters of a module into one flat vector, in visit
/// order: a model's one parameter, copied.
pub fn flatten(module: &dyn Module) -> Vec<f32> {
    let mut out = Vec::with_capacity(module.num_params());
    module.visit_params(&mut |p| out.extend_from_slice(p.value.data()));
    out
}

/// Panics unless a flat vector of `len` scalars is the size of a model of
/// `expected` parameters.
pub(crate) fn check_len(len: usize, expected: usize) {
    assert_eq!(len, expected, "parameter vector length {len} != model size {expected}");
}

/// Size in bytes of a flat parameter vector on the simulated wire
/// (f32 = 4 bytes, matching the paper's MB figures: 1,662,752 × 4 ≈ 6.65 MB).
pub fn wire_bytes(num_params: usize) -> u64 {
    num_params as u64 * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Classifier, ClassifierSpec, Cvae, CvaeSpec, Vae, VaeSpec};
    use fg_tensor::rng::SeededRng;

    #[test]
    fn flatten_load_round_trip() {
        let spec = ClassifierSpec::Mlp { hidden: 4 };
        let net = Classifier::new(&spec, &mut SeededRng::new(0));
        let flat = flatten(&net);
        assert_eq!(flat.len(), net.num_params());

        let mut net2 = Classifier::new(&spec, &mut SeededRng::new(1));
        net2.visit_params_mut(&mut |p| p.value.data_mut().copy_from_slice(&flat));
        assert_eq!(flatten(&net2), flat);
    }

    #[test]
    fn every_model_is_one_flat_parameter() {
        let mut rng = SeededRng::new(2);
        let count = |m: &dyn Module| {
            let mut sizes = Vec::new();
            m.visit_params(&mut |p| sizes.push(p.numel()));
            sizes
        };
        for spec in [ClassifierSpec::Mlp { hidden: 8 }, ClassifierSpec::TableIICnn] {
            assert_eq!(count(&Classifier::new(&spec, &mut rng)), [spec.num_params()]);
        }
        let cvae = Cvae::new(&CvaeSpec::table_iii(), &mut rng);
        assert_eq!(count(&cvae), [664_834]);
        let vae = Vae::new(&VaeSpec { x_dim: 16, hidden: 32, latent: 4 }, &mut rng);
        assert_eq!(
            count(&vae),
            [(16 * 32 + 32) + 2 * (32 * 4 + 4) + (4 * 32 + 32) + (32 * 16 + 16)]
        );
    }

    #[test]
    fn wire_bytes_matches_paper_classifier_size() {
        // Paper: 1,662,752 parameters == 6.65 MB.
        let bytes = wire_bytes(1_662_752);
        assert_eq!(bytes, 6_651_008);
        assert!((bytes as f64 / 1e6 - 6.65).abs() < 0.01);
    }
}
