//! A plain (unconditional) Variational AutoEncoder with Gaussian likelihood.
//!
//! Used by the Spectral baseline (Li et al. 2020): the server pre-trains this
//! VAE on low-dimensional *surrogate vectors* of benign model updates and
//! flags clients whose submissions reconstruct poorly. Surrogates are
//! real-valued, so the reconstruction term is mean-squared error rather than
//! the image CVAE's Bernoulli BCE.

use crate::activations::{relu, relu_backward};
use crate::layer::{self, carve, carve_mut, Bank, LayerSpec, Module, Parameter};
use crate::linear::{self, accumulate_param_grads};
use crate::loss;
use crate::optim::Optimizer;
use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of a plain VAE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VaeSpec {
    pub x_dim: usize,
    pub hidden: usize,
    pub latent: usize,
}

impl VaeSpec {
    fn layers(&self) -> [LayerSpec; 5] {
        let (x, hidden, latent) = (self.x_dim, self.hidden, self.latent);
        layers(x, hidden, latent, latent, x)
    }
}

/// Index of the decoder's first layer in [`layers`].
pub(super) const DECODER: usize = 3;

/// The five linear layers of a (conditional) VAE's flat vector, front to
/// back: the encoder `enc_in → hidden`, its twin `hidden → latent` heads (μ,
/// then log σ²), and the decoder `dec_in → hidden → out`.
pub(super) fn layers(
    enc_in: usize,
    hidden: usize,
    latent: usize,
    dec_in: usize,
    out: usize,
) -> [LayerSpec; 5] {
    let linear = |inputs, outputs| LayerSpec::Linear { inputs, outputs };
    let heads = linear(hidden, latent);
    [linear(enc_in, hidden), heads, heads, linear(dec_in, hidden), linear(hidden, out)]
}

/// The encoder's pass through its three banks: the ReLU'd hidden layer,
/// which the backward pass reads, then `(mu, logvar)`.
pub(super) fn encode(x: &Tensor, banks: &[Bank<'_>]) -> (Tensor, Tensor, Tensor) {
    let [enc, mu_head, logvar_head] = banks else { unreachable!("three encoder layers") };
    let mut h = linear::forward(x, enc);
    relu(h.data_mut());
    let (mu, logvar) = (linear::forward(&h, mu_head), linear::forward(&h, logvar_head));
    (h, mu, logvar)
}

/// The decoder's pass through its two banks: the ReLU'd hidden layer, which
/// the backward pass reads, and the output.
pub(super) fn decode(x: &Tensor, banks: &[Bank<'_>]) -> (Tensor, Tensor) {
    let [l1, l2] = banks else { unreachable!("two decoder layers") };
    let mut h = linear::forward(x, l1);
    relu(h.data_mut());
    let out = linear::forward(&h, l2);
    (h, out)
}

/// One ELBO step's forward and backward over the flat vector `param` that
/// [`layers`] lays out, accumulating its gradient; returns `recon + β·KL`.
/// The encoder reads `x`, the decoder `z ‖ cond` (the conditioning columns
/// receive no gradient), and `recon_loss(output, x)` scores the decoder's
/// output against `x`.
pub(super) fn elbo_step(
    layers: &[LayerSpec],
    param: &mut Parameter,
    x: &Tensor,
    cond: Option<&Tensor>,
    beta: f32,
    recon_loss: impl FnOnce(&Tensor, &Tensor) -> (f32, Tensor),
    rng: &mut SeededRng,
) -> f32 {
    let Parameter { value, grad } = param;
    let banks = carve(layers, &[value.data()]);
    let [_, mu_head, logvar_head, dec1, dec2] = &banks[..] else { unreachable!("five layers") };
    let (h, mu, logvar) = encode(x, &banks[..DECODER]);

    // Reparameterization: z = mu + exp(logvar/2) * eps.
    let eps = mu.randn_like(rng);
    let std = logvar.map(|lv| (0.5 * lv).exp());
    let z = mu.add(&std.mul(&eps));
    let zc = cond.map_or_else(|| z.clone(), |c| z.concat_cols(c));
    let (dec_h, out) = decode(&zc, &banks[DECODER..]);
    let (recon, dout) = recon_loss(&out, x);
    let (kl, kl_dmu, kl_dlogvar) = loss::kl_gaussian(&mu, &logvar);

    // Backward through the decoder to z.
    let [d_enc, d_mu, d_logvar, d_dec1, d_dec2]: [_; 5] =
        carve_mut(layers, grad.data_mut()).try_into().expect("five layers");
    let mut dh = linear::backward(&dec_h, &dout, dec2, d_dec2);
    relu_backward(dh.data_mut(), dec_h.data());
    let dz = linear::backward(&zc, &dh, dec1, d_dec1).slice_cols(0, z.dim(1));

    // Reparameterization gradients.
    let mut dlogvar = dz.mul(&eps).mul(&std).map(|v| 0.5 * v);
    dlogvar.axpy(beta, &kl_dlogvar);
    let mut dmu = dz;
    dmu.axpy(beta, &kl_dmu);

    // Backward through the twin heads into the shared hidden state.
    let dh_mu = linear::backward(&h, &dmu, mu_head, d_mu);
    let mut dh = dh_mu.add(&linear::backward(&h, &dlogvar, logvar_head, d_logvar));
    relu_backward(dh.data_mut(), h.data());
    // Nothing sits below the first layer: parameter gradients only.
    accumulate_param_grads(x.data(), dh.data(), d_enc.0, d_enc.1);
    recon + beta * kl
}

/// Mean squared error summed over features and averaged over the batch,
/// and its gradient.
fn mse(recon: &Tensor, x: &Tensor) -> (f32, Tensor) {
    let b = x.dim(0) as f32;
    let diff = recon.sub(x);
    let mse: f32 = diff.data().iter().map(|d| d * d).sum::<f32>() / b;
    (mse, diff.map(|d| 2.0 * d / b))
}

/// Encoder `x → (μ, log σ²)`, decoder `z → x̂`, trained on MSE + KL.
pub struct Vae {
    spec: VaeSpec,
    /// The flat vector [`VaeSpec::layers`] lays out, and its gradient.
    param: Parameter,
}

impl Vae {
    pub fn new(spec: &VaeSpec, rng: &mut SeededRng) -> Self {
        Vae { spec: *spec, param: layer::init(&spec.layers(), rng) }
    }

    pub fn spec(&self) -> &VaeSpec {
        &self.spec
    }

    /// One training step on a batch; returns the loss (MSE + β·KL).
    pub fn train_batch(
        &mut self,
        x: &Tensor,
        beta: f32,
        optim: &mut dyn Optimizer,
        rng: &mut SeededRng,
    ) -> f32 {
        let loss = elbo_step(&self.spec.layers(), &mut self.param, x, None, beta, mse, rng);
        optim.step(self);
        loss
    }

    /// Per-row reconstruction error (MSE over features, via the posterior
    /// mean — the anomaly score Spectral thresholds on).
    pub fn reconstruction_errors(&self, x: &Tensor) -> Vec<f32> {
        let banks = carve(&self.spec.layers(), &[self.param.value.data()]);
        let (_, mu, _) = encode(x, &banks[..DECODER]);
        let (_, recon) = decode(&mu, &banks[DECODER..]);
        let n = x.dim(1) as f32;
        (0..x.dim(0))
            .map(|r| {
                recon.row(r).iter().zip(x.row(r)).map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / n
            })
            .collect()
    }
}

impl Module for Vae {
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
    use crate::optim::Adam;

    fn blob_data(rng: &mut SeededRng, n: usize, dim: usize) -> Tensor {
        // Correlated low-rank data the VAE can compress: x = u * direction.
        let mut data = vec![0.0f32; n * dim];
        for r in 0..n {
            let u = rng.next_normal();
            for c in 0..dim {
                data[r * dim + c] = u * (c as f32 / dim as f32) + 0.01 * rng.next_normal();
            }
        }
        Tensor::from_vec(data, &[n, dim])
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let spec = VaeSpec { x_dim: 16, hidden: 32, latent: 4 };
        let mut rng = SeededRng::new(0);
        let mut vae = Vae::new(&spec, &mut rng);
        let x = blob_data(&mut rng, 64, 16);
        let before: f32 = vae.reconstruction_errors(&x).iter().sum::<f32>() / 64.0;
        let mut adam = Adam::new(1e-2);
        for _ in 0..200 {
            vae.train_batch(&x, 0.1, &mut adam, &mut rng);
        }
        let after: f32 = vae.reconstruction_errors(&x).iter().sum::<f32>() / 64.0;
        assert!(after < before * 0.5, "VAE did not learn: {before} -> {after}");
    }

    #[test]
    fn anomalies_score_higher_than_inliers() {
        let spec = VaeSpec { x_dim: 16, hidden: 32, latent: 4 };
        let mut rng = SeededRng::new(1);
        let mut vae = Vae::new(&spec, &mut rng);
        let x = blob_data(&mut rng, 128, 16);
        let mut adam = Adam::new(1e-2);
        for _ in 0..300 {
            vae.train_batch(&x, 0.1, &mut adam, &mut rng);
        }
        // Inliers: fresh draws from the same process. Outliers: sign-flipped
        // and offset versions.
        let inliers = blob_data(&mut rng, 16, 16);
        let outliers = inliers.map(|v| -v + 3.0);
        let e_in: f32 = vae.reconstruction_errors(&inliers).iter().sum::<f32>() / 16.0;
        let e_out: f32 = vae.reconstruction_errors(&outliers).iter().sum::<f32>() / 16.0;
        assert!(e_out > 2.0 * e_in, "outliers not separated: in={e_in}, out={e_out}");
    }

    #[test]
    fn reconstruction_error_shape() {
        let spec = VaeSpec { x_dim: 8, hidden: 8, latent: 2 };
        let mut rng = SeededRng::new(2);
        let vae = Vae::new(&spec, &mut rng);
        let x = Tensor::randn(&[5, 8], &mut rng);
        assert_eq!(vae.reconstruction_errors(&x).len(), 5);
    }
}
