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

use crate::activations::{relu, relu_backward};
use crate::layer::{Module, Parameter};
use crate::linear::Linear;
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

    /// Scalar parameter count of the decoder (the `θ` clients ship).
    pub fn decoder_params(&self) -> usize {
        (self.dec_in() * self.hidden + self.hidden)
            + (self.hidden * self.dec_out() + self.dec_out())
    }
}

/// The logistic sigmoid: the decoder's logits to pixel intensities.
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The detachable decoder `D_θ` — the object FedGuard clients ship to the
/// server for validation-data synthesis.
pub struct CvaeDecoder {
    spec: CvaeSpec,
    l1: Linear,
    l2: Linear,
}

impl CvaeDecoder {
    /// Freshly initialized decoder.
    pub fn new(spec: &CvaeSpec, rng: &mut SeededRng) -> Self {
        CvaeDecoder {
            spec: *spec,
            l1: Linear::new(spec.dec_in(), spec.hidden, rng),
            l2: Linear::new(spec.hidden, spec.dec_out(), rng),
        }
    }

    /// Decoder built straight from a flat `θ` vector. Panics if `θ` does
    /// not have [`CvaeSpec::decoder_params`] scalars.
    pub fn from_params(spec: &CvaeSpec, theta: &[f32]) -> Self {
        params::check_len(theta.len(), spec.decoder_params());
        let mut rest = theta;
        let mut take = |inputs, outputs| Linear {
            weight: params::take(&mut rest, &[outputs, inputs]),
            bias: params::take(&mut rest, &[outputs]),
        };
        CvaeDecoder {
            spec: *spec,
            l1: take(spec.dec_in(), spec.hidden),
            l2: take(spec.hidden, spec.dec_out()),
        }
    }

    pub fn spec(&self) -> &CvaeSpec {
        &self.spec
    }

    /// Flat `θ` vector.
    pub fn get_params(&self) -> Vec<f32> {
        params::flatten(self)
    }

    /// The pass over `zy = z ‖ onehot(y)`: the ReLU'd hidden layer, which
    /// the backward pass reads, and the reconstruction logits.
    fn forward(&self, zy: &Tensor) -> (Tensor, Tensor) {
        let mut h = self.l1.forward(zy);
        relu(h.data_mut());
        let logits = self.l2.forward(&h);
        (h, logits)
    }

    /// Backprop through the pass that read `zy` and kept `h`; returns the
    /// gradient w.r.t. `z` (dropping the conditioning columns, which
    /// receive no gradient).
    fn backward_to_z(&mut self, zy: &Tensor, h: &Tensor, dlogits: &Tensor) -> Tensor {
        let mut dh = self.l2.backward(h, dlogits);
        relu_backward(dh.data_mut(), h.data());
        self.l1.backward(zy, &dh).slice_cols(0, self.spec.latent)
    }

    /// Controllable synthesis (§III-A): decode latent samples `z` under the
    /// conditioning labels, returning sigmoid-activated images `(batch,
    /// x_dim)`. The reconstructed one-hot tail is discarded.
    pub fn generate(&mut self, z: &Tensor, labels: &[usize]) -> Tensor {
        assert_eq!(z.dim(0), labels.len(), "one label per latent sample");
        assert_eq!(z.dim(1), self.spec.latent, "latent dim mismatch");
        let (_, logits) = self.forward(&z.concat_cols(&one_hot(labels, self.spec.n_classes)));
        logits.slice_cols(0, self.spec.x_dim).map(sigmoid)
    }
}

impl Module for CvaeDecoder {
    fn visit_params(&self, f: &mut dyn FnMut(&Parameter)) {
        self.l1.visit_params(f);
        self.l2.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.l1.visit_params_mut(f);
        self.l2.visit_params_mut(f);
    }
}

/// The full CVAE: encoder + reparameterization + decoder.
pub struct Cvae {
    spec: CvaeSpec,
    enc_l1: Linear,
    mu_head: Linear,
    logvar_head: Linear,
    decoder: CvaeDecoder,
}

impl Cvae {
    /// Freshly initialized CVAE.
    pub fn new(spec: &CvaeSpec, rng: &mut SeededRng) -> Self {
        Cvae {
            spec: *spec,
            enc_l1: Linear::new(spec.enc_in(), spec.hidden, rng),
            mu_head: Linear::new(spec.hidden, spec.latent, rng),
            logvar_head: Linear::new(spec.hidden, spec.latent, rng),
            decoder: CvaeDecoder::new(spec, rng),
        }
    }

    pub fn spec(&self) -> &CvaeSpec {
        &self.spec
    }

    /// The decoder's flat `θ` vector — what a FedGuard client shares.
    pub fn decoder_params(&self) -> Vec<f32> {
        self.decoder.get_params()
    }

    /// Borrow the decoder (e.g. for generation on the client side).
    pub fn decoder_mut(&mut self) -> &mut CvaeDecoder {
        &mut self.decoder
    }

    /// The encoder's pass over `xy = x ‖ onehot(y)`: the ReLU'd hidden
    /// layer, which the backward pass reads, then `(mu, logvar)`.
    fn encode(&self, xy: &Tensor) -> (Tensor, Tensor, Tensor) {
        let mut h = self.enc_l1.forward(xy);
        relu(h.data_mut());
        let mu = self.mu_head.forward(&h);
        let logvar = self.logvar_head.forward(&h);
        (h, mu, logvar)
    }

    /// One ELBO training step (Eqn. 6) on a mini-batch; returns the loss
    /// (reconstruction + KL).
    pub fn train_batch(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        optim: &mut dyn Optimizer,
        rng: &mut SeededRng,
    ) -> f32 {
        self.zero_grad();
        let y = one_hot(labels, self.spec.n_classes);
        let xy = x.concat_cols(&y);
        let (h, mu, logvar) = self.encode(&xy);

        // Reparameterization: z = mu + exp(logvar/2) * eps.
        let eps = mu.randn_like(rng);
        let std = logvar.map(|lv| (0.5 * lv).exp());
        let z = mu.add(&std.mul(&eps));

        // Decoder reconstructs x ‖ onehot(y).
        let zy = z.concat_cols(&y);
        let (dec_h, logits) = self.decoder.forward(&zy);
        let (recon_loss, dlogits) = loss::bce_with_logits(&logits, &xy);
        let (kl_loss, kl_dmu, kl_dlogvar) = loss::kl_gaussian(&mu, &logvar);

        // Backward through decoder to z.
        let dz = self.decoder.backward_to_z(&zy, &dec_h, &dlogits);

        // Reparameterization gradients.
        let dmu = dz.add(&kl_dmu);
        let dlv_from_z = dz.mul(&eps).mul(&std).map(|v| 0.5 * v);
        let dlogvar = dlv_from_z.add(&kl_dlogvar);

        // Backward through the twin heads into the shared hidden state.
        let dh_mu = self.mu_head.backward(&h, &dmu);
        let mut dh = dh_mu.add(&self.logvar_head.backward(&h, &dlogvar));
        relu_backward(dh.data_mut(), h.data());
        // Nothing sits below the first layer: parameter gradients only.
        self.enc_l1.backward_params(&xy, &dh);

        optim.step(self);
        recon_loss + kl_loss
    }
}

impl Module for Cvae {
    fn visit_params(&self, f: &mut dyn FnMut(&Parameter)) {
        self.enc_l1.visit_params(f);
        self.mu_head.visit_params(f);
        self.logvar_head.visit_params(f);
        self.decoder.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.enc_l1.visit_params_mut(f);
        self.mu_head.visit_params_mut(f);
        self.logvar_head.visit_params_mut(f);
        self.decoder.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
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
            let (_, mu, logvar) = self.encode(&xy);
            let (_, logits) = self.decoder.forward(&mu.concat_cols(&y));
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
        let dec = CvaeDecoder::new(&spec, &mut rng);
        let theta = dec.get_params();
        let dec2 = CvaeDecoder::from_params(&spec, &theta);
        assert_eq!(dec2.get_params(), theta);
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
        let mut dec = CvaeDecoder::new(&spec, &mut rng);
        let z = Tensor::randn(&[5, 4], &mut rng);
        let imgs = dec.generate(&z, &[0, 1, 2, 3, 4]);
        assert_eq!(imgs.dims(), &[5, 784]);
        assert!(imgs.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// [`Cvae::train_batch`] as it ran before the first-layer elision: the
    /// same step with a full `enc_l1.backward`, input gradient included.
    fn train_batch_full_backward(
        cvae: &mut Cvae,
        x: &Tensor,
        labels: &[usize],
        optim: &mut dyn Optimizer,
        rng: &mut SeededRng,
    ) -> f32 {
        cvae.zero_grad();
        let y = one_hot(labels, cvae.spec.n_classes);
        let xy = x.concat_cols(&y);
        let (h, mu, logvar) = cvae.encode(&xy);
        let eps = mu.randn_like(rng);
        let std = logvar.map(|lv| (0.5 * lv).exp());
        let z = mu.add(&std.mul(&eps));
        let zy = z.concat_cols(&y);
        let (dec_h, logits) = cvae.decoder.forward(&zy);
        let (recon_loss, dlogits) = loss::bce_with_logits(&logits, &xy);
        let (kl_loss, kl_dmu, kl_dlogvar) = loss::kl_gaussian(&mu, &logvar);
        let dz = cvae.decoder.backward_to_z(&zy, &dec_h, &dlogits);
        let dmu = dz.add(&kl_dmu);
        let dlogvar = dz.mul(&eps).mul(&std).map(|v| 0.5 * v).add(&kl_dlogvar);
        let mut dh = cvae.mu_head.backward(&h, &dmu).add(&cvae.logvar_head.backward(&h, &dlogvar));
        relu_backward(dh.data_mut(), h.data());
        let dxy = cvae.enc_l1.backward(&xy, &dh);
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
        let gen0 = cvae.decoder_mut().generate(&z, &[0; 8]);
        let gen1 = cvae.decoder_mut().generate(&z, &[1; 8]);
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
