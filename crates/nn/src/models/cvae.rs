//! The Conditional Variational AutoEncoder of Table III.
//!
//! Encoder `E_φ : X × Y → Z`: `x ‖ onehot(y)` (794) → 400 (ReLU) → twin
//! 20-unit heads producing `μ` and `log σ²`. Decoder `D_θ : Z × Y → X`:
//! `z ‖ onehot(y)` (30) → 400 (ReLU) → 794 (sigmoid), reconstructing the
//! concatenated `x ‖ onehot(y)` exactly as Table III's 794-unit output
//! specifies. Trained on the ELBO (Eqn. 6): binary cross-entropy
//! reconstruction plus Gaussian KL regularization.
//!
//! One deliberate deviation: Table III lists ReLU on the μ/log σ² heads,
//! which would confine the posterior to the non-negative orthant and pin
//! every variance at ≥ 1 (the KL to the standard-normal prior could never
//! vanish). We follow the standard CVAE formulation (linear heads), which is
//! what working implementations — including the paper's own reference — use.
//!
//! Parameter counts match Table III: encoder 334,040, decoder 330,794,
//! total 664,834.

use super::vae::{decode, elbo_step, layers, DECODER};
use crate::layer::{self, carve, LayerSpec, Module, Parameter};
use crate::loss;
use crate::models::one_hot;
use crate::optim::Optimizer;
use crate::params;
use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of a CVAE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CvaeSpec {
    /// Flattened observation dimensionality (784 for 28×28 images).
    pub x_dim: usize,
    /// Number of conditioning classes `L`.
    pub n_classes: usize,
    /// Hidden width of encoder and decoder.
    pub hidden: usize,
    /// Latent dimensionality of `z`.
    pub latent: usize,
}

impl CvaeSpec {
    /// The paper's exact Table III configuration.
    pub fn table_iii() -> Self {
        CvaeSpec { x_dim: 784, n_classes: 10, hidden: 400, latent: 20 }
    }

    /// A reduced configuration for CPU-budget presets.
    pub fn reduced(hidden: usize, latent: usize) -> Self {
        CvaeSpec { x_dim: 784, n_classes: 10, hidden, latent }
    }

    /// Input dimensionality of the encoder (`x ‖ onehot(y)`).
    pub fn enc_in(&self) -> usize {
        self.x_dim + self.n_classes
    }

    /// Input dimensionality of the decoder (`z ‖ onehot(y)`).
    pub fn dec_in(&self) -> usize {
        self.latent + self.n_classes
    }

    /// Output dimensionality of the decoder (reconstructs `x ‖ onehot(y)`).
    pub fn dec_out(&self) -> usize {
        self.x_dim + self.n_classes
    }

    /// The CVAE's flat-vector layout: the encoder's three layers, then the
    /// decoder's two, which are `θ`.
    fn layers(&self) -> [LayerSpec; 5] {
        layers(self.enc_in(), self.hidden, self.latent, self.dec_in(), self.dec_out())
    }

    /// Scalar parameter count of the decoder (the `θ` clients ship).
    pub fn decoder_params(&self) -> usize {
        layer::num_params(&self.layers()[DECODER..])
    }
}

/// The logistic sigmoid: the decoder's logits to pixel intensities.
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The detachable decoder `D_θ` — what FedGuard clients ship to the server
/// for validation-data synthesis — as a borrowed view of a flat `θ`: the
/// server decodes each submission in place.
#[derive(Clone, Copy)]
pub struct CvaeDecoder<'a> {
    spec: CvaeSpec,
    theta: &'a [f32],
}

impl<'a> CvaeDecoder<'a> {
    /// The decoder whose parameters are `θ`. Panics if `θ` does not have
    /// [`CvaeSpec::decoder_params`] scalars.
    pub fn from_params(spec: &CvaeSpec, theta: &'a [f32]) -> Self {
        params::check_len(theta.len(), spec.decoder_params());
        CvaeDecoder { spec: *spec, theta }
    }

    pub fn spec(&self) -> &CvaeSpec {
        &self.spec
    }

    /// Controllable synthesis (§III-A): decode latent samples `z` under the
    /// conditioning labels, returning sigmoid-activated images `(batch,
    /// x_dim)`. The reconstructed one-hot tail is discarded.
    pub fn generate(&self, z: &Tensor, labels: &[usize]) -> Tensor {
        assert_eq!(z.dim(0), labels.len(), "one label per latent sample");
        assert_eq!(z.dim(1), self.spec.latent, "latent dim mismatch");
        let banks = carve(&self.spec.layers()[DECODER..], &[self.theta]);
        let (_, logits) = decode(&z.concat_cols(&one_hot(labels, self.spec.n_classes)), &banks);
        logits.slice_cols(0, self.spec.x_dim).map(sigmoid)
    }
}

/// The full CVAE: encoder + reparameterization + decoder.
pub struct Cvae {
    spec: CvaeSpec,
    /// The flat vector [`CvaeSpec::layers`] lays out, whose tail is `θ`, and
    /// its gradient.
    param: Parameter,
}

impl Cvae {
    /// Freshly initialized CVAE.
    pub fn new(spec: &CvaeSpec, rng: &mut SeededRng) -> Self {
        Cvae { spec: *spec, param: layer::init(&spec.layers(), rng) }
    }

    pub fn spec(&self) -> &CvaeSpec {
        &self.spec
    }

    /// The decoder's flat `θ` vector — what a FedGuard client shares.
    pub fn decoder_params(&self) -> Vec<f32> {
        let flat = self.param.value.data();
        flat[flat.len() - self.spec.decoder_params()..].to_vec()
    }

    /// One ELBO training step (Eqn. 6) on a mini-batch; returns the loss
    /// (reconstruction + KL). The encoder reads `x ‖ onehot(y)`, and the
    /// decoder reconstructs it from `z ‖ onehot(y)`.
    pub fn train_batch(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        optim: &mut dyn Optimizer,
        rng: &mut SeededRng,
    ) -> f32 {
        let y = one_hot(labels, self.spec.n_classes);
        let xy = x.concat_cols(&y);
        let layers = self.spec.layers();
        let bce = loss::bce_with_logits;
        // β = 1 is the plain ELBO, bit for bit: scaling by 1 is exact.
        let loss = elbo_step(&layers, &mut self.param, &xy, Some(&y), 1.0, bce, rng);
        optim.step(self);
        loss
    }
}

impl Module for Cvae {
    fn visit_params(&self, f: &mut dyn FnMut(&Parameter)) {
        f(&self.param);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.param);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::relu_backward;
    use crate::bits;
    use crate::layer::carve_mut;
    use crate::linear;
    use crate::models::vae::encode;
    use crate::optim::Adam;

    impl CvaeSpec {
        /// Scalar parameter count of the encoder.
        fn encoder_params(&self) -> usize {
            (self.enc_in() * self.hidden + self.hidden)
                + 2 * (self.hidden * self.latent + self.latent)
        }
    }

    impl Cvae {
        /// The ELBO loss on a batch without updating parameters (uses the
        /// posterior mean, no sampling noise).
        fn eval_loss(&self, x: &Tensor, labels: &[usize]) -> f32 {
            let y = one_hot(labels, self.spec.n_classes);
            let xy = x.concat_cols(&y);
            let banks = carve(&self.spec.layers(), &[self.param.value.data()]);
            let (_, mu, logvar) = encode(&xy, &banks[..DECODER]);
            let (_, logits) = decode(&mu.concat_cols(&y), &banks[DECODER..]);
            let (recon, _) = loss::bce_with_logits(&logits, &xy);
            let (kl, _, _) = loss::kl_gaussian(&mu, &logvar);
            recon + kl
        }
    }

    #[test]
    fn table_iii_parameter_counts() {
        let spec = CvaeSpec::table_iii();
        // Encoder: 794*400+400 = 318,000; heads: 2*(400*20+20) = 16,040.
        assert_eq!(spec.encoder_params(), 318_000 + 16_040);
        // Decoder: 30*400+400 = 12,400; 400*794+794 = 318,394.
        assert_eq!(spec.decoder_params(), 12_400 + 318_394);
        // Total 664,834 as in Table III.
        assert_eq!(spec.encoder_params() + spec.decoder_params(), 664_834);

        let mut rng = SeededRng::new(0);
        let cvae = Cvae::new(&spec, &mut rng);
        assert_eq!(cvae.num_params(), 664_834);
        assert_eq!(cvae.decoder_params().len(), 330_794);
    }

    #[test]
    fn decoder_wire_size_matches_paper() {
        // Paper: decoder 1.32 MB.
        let bytes = CvaeSpec::table_iii().decoder_params() * 4;
        assert!((bytes as f64 / 1e6 - 1.32).abs() < 0.01, "{bytes}");
    }

    #[test]
    fn decoder_round_trip() {
        let spec = CvaeSpec::reduced(16, 4);
        let mut rng = SeededRng::new(1);
        let theta = Cvae::new(&spec, &mut rng).decoder_params();
        let dec = CvaeDecoder::from_params(&spec, &theta);
        // The decoder reads `θ` where it lies: no copy.
        assert!(std::ptr::eq(dec.theta, theta.as_slice()));
    }

    #[test]
    fn theta_is_the_tail_of_the_flat_vector() {
        for spec in [CvaeSpec::reduced(100, 8), CvaeSpec::table_iii()] {
            let mut rng = SeededRng::new(31);
            let mut cvae = Cvae::new(&spec, &mut rng);
            let x = Tensor::rand_uniform(&[4, 784], 0.0, 1.0, &mut rng);
            cvae.train_batch(&x, &[0, 3, 5, 9], &mut Adam::new(2e-3), &mut rng);
            let (flat, theta) = (params::flatten(&cvae), cvae.decoder_params());
            let tail = &flat[flat.len() - spec.decoder_params()..];
            assert_eq!(bits(&theta), bits(tail), "{spec:?}");
            let z = Tensor::randn(&[5, spec.latent], &mut rng);
            let viewed = CvaeDecoder::from_params(&spec, tail).generate(&z, &[1, 2, 3, 4, 5]);
            let copied = CvaeDecoder::from_params(&spec, &theta).generate(&z, &[1, 2, 3, 4, 5]);
            assert_eq!(bits(viewed.data()), bits(copied.data()), "{spec:?}");
        }
    }

    #[test]
    #[should_panic(expected = "parameter vector length")]
    fn from_params_rejects_a_wrong_length() {
        let spec = CvaeSpec::reduced(16, 4);
        CvaeDecoder::from_params(&spec, &vec![0.0; spec.decoder_params() - 1]);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        assert!(sigmoid(-10.0) < 1e-4);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 1.0 - 1e-4);
    }

    #[test]
    fn generate_shapes_and_range() {
        let spec = CvaeSpec::reduced(16, 4);
        let mut rng = SeededRng::new(2);
        let theta = Cvae::new(&spec, &mut rng).decoder_params();
        let dec = CvaeDecoder::from_params(&spec, &theta);
        let z = Tensor::randn(&[5, 4], &mut rng);
        let imgs = dec.generate(&z, &[0, 1, 2, 3, 4]);
        assert_eq!(imgs.dims(), &[5, 784]);
        assert!(imgs.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// [`Cvae::train_batch`] as it ran before the first-layer elision and
    /// the step shared with the VAE: the same step with a full backward
    /// through the first layer, input gradient included.
    fn train_batch_full_backward(
        cvae: &mut Cvae,
        x: &Tensor,
        labels: &[usize],
        optim: &mut dyn Optimizer,
        rng: &mut SeededRng,
    ) -> f32 {
        cvae.zero_grad();
        let layers = cvae.spec.layers();
        let y = one_hot(labels, cvae.spec.n_classes);
        let xy = x.concat_cols(&y);
        let Parameter { value, grad } = &mut cvae.param;
        let banks = carve(&layers, &[value.data()]);
        let [d_enc, d_mu, d_logvar, d_dec1, d_dec2]: [_; 5] =
            carve_mut(&layers, grad.data_mut()).try_into().unwrap();
        let (h, mu, logvar) = encode(&xy, &banks[..DECODER]);
        let eps = mu.randn_like(rng);
        let std = logvar.map(|lv| (0.5 * lv).exp());
        let z = mu.add(&std.mul(&eps));
        let zy = z.concat_cols(&y);
        let (dec_h, logits) = decode(&zy, &banks[DECODER..]);
        let (recon_loss, dlogits) = loss::bce_with_logits(&logits, &xy);
        let (kl_loss, kl_dmu, kl_dlogvar) = loss::kl_gaussian(&mu, &logvar);
        let mut dh = linear::backward(&dec_h, &dlogits, &banks[4], d_dec2);
        relu_backward(dh.data_mut(), dec_h.data());
        let dz =
            linear::backward(&zy, &dh, &banks[DECODER], d_dec1).slice_cols(0, cvae.spec.latent);
        let dmu = dz.add(&kl_dmu);
        let dlogvar = dz.mul(&eps).mul(&std).map(|v| 0.5 * v).add(&kl_dlogvar);
        let dh_mu = linear::backward(&h, &dmu, &banks[1], d_mu);
        let mut dh = dh_mu.add(&linear::backward(&h, &dlogvar, &banks[2], d_logvar));
        relu_backward(dh.data_mut(), h.data());
        let dxy = linear::backward(&xy, &dh, &banks[0], d_enc);
        assert_eq!(dxy.dims(), xy.dims());
        optim.step(cvae);
        recon_loss + kl_loss
    }

    #[test]
    fn params_only_first_layer_trains_to_the_same_bits_as_a_full_backward() {
        let spec = CvaeSpec::reduced(100, 8);
        let mut rng = SeededRng::new(21);
        // A full batch and the 6-row tail of a 134-sample partition.
        for batch in [32usize, 6] {
            let x = Tensor::rand_uniform(&[batch, 784], 0.0, 1.0, &mut rng);
            let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();
            let mut lean = Cvae::new(&spec, &mut SeededRng::new(22));
            let mut full = Cvae::new(&spec, &mut SeededRng::new(22));
            let (mut adam_lean, mut adam_full) = (Adam::new(2e-3), Adam::new(2e-3));
            let (mut rng_lean, mut rng_full) = (SeededRng::new(23), SeededRng::new(23));
            for _ in 0..3 {
                let a = lean.train_batch(&x, &labels, &mut adam_lean, &mut rng_lean);
                let b = train_batch_full_backward(
                    &mut full,
                    &x,
                    &labels,
                    &mut adam_full,
                    &mut rng_full,
                );
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(
                bits(&params::flatten(&lean)),
                bits(&params::flatten(&full)),
                "batch {batch}"
            );
        }
    }

    #[test]
    fn training_reduces_elbo_loss() {
        let spec = CvaeSpec::reduced(32, 4);
        let mut rng = SeededRng::new(3);
        let mut cvae = Cvae::new(&spec, &mut rng);

        // Two crude "digit" patterns: left-half bright vs right-half bright.
        let n = 32;
        let mut xs = vec![0.0f32; n * 784];
        let mut ys = vec![0usize; n];
        for i in 0..n {
            let c = i % 2;
            ys[i] = c;
            for j in 0..784 {
                let bright = if c == 0 { j % 28 < 14 } else { j % 28 >= 14 };
                xs[i * 784 + j] = if bright { 0.9 } else { 0.05 };
            }
        }
        let x = Tensor::from_vec(xs, &[n, 784]);

        let mut adam = Adam::new(1e-3);
        let first = cvae.eval_loss(&x, &ys);
        for _ in 0..60 {
            cvae.train_batch(&x, &ys, &mut adam, &mut rng);
        }
        let last = cvae.eval_loss(&x, &ys);
        assert!(last < first * 0.8, "ELBO did not improve: {first} -> {last}");
    }

    #[test]
    fn conditional_generation_respects_class() {
        // After training on two clearly distinct patterns, conditioning on a
        // class must generate an image closer to that class's prototype.
        let spec = CvaeSpec::reduced(32, 4);
        let mut rng = SeededRng::new(4);
        let mut cvae = Cvae::new(&spec, &mut rng);

        let n = 64;
        let mut xs = vec![0.0f32; n * 784];
        let mut ys = vec![0usize; n];
        for i in 0..n {
            let c = i % 2;
            ys[i] = c;
            for j in 0..784 {
                let bright = if c == 0 { j < 392 } else { j >= 392 };
                xs[i * 784 + j] = if bright { 0.95 } else { 0.05 };
            }
        }
        let x = Tensor::from_vec(xs, &[n, 784]);
        let mut adam = Adam::new(2e-3);
        for _ in 0..150 {
            cvae.train_batch(&x, &ys, &mut adam, &mut rng);
        }

        let proto0: Vec<f32> = (0..784).map(|j| if j < 392 { 0.95 } else { 0.05 }).collect();
        let proto1: Vec<f32> = (0..784).map(|j| if j >= 392 { 0.95 } else { 0.05 }).collect();

        let z = Tensor::randn(&[8, 4], &mut rng);
        let theta = cvae.decoder_params();
        let gen0 = CvaeDecoder::from_params(&spec, &theta).generate(&z, &[0; 8]);
        let gen1 = CvaeDecoder::from_params(&spec, &theta).generate(&z, &[1; 8]);
        let d = |img: &[f32], proto: &[f32]| -> f32 {
            img.iter().zip(proto).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        let mut hits = 0;
        for r in 0..8 {
            if d(gen0.row(r), &proto0) < d(gen0.row(r), &proto1) {
                hits += 1;
            }
            if d(gen1.row(r), &proto1) < d(gen1.row(r), &proto0) {
                hits += 1;
            }
        }
        assert!(hits >= 12, "conditional generation only matched {hits}/16 prototypes");
    }
}
