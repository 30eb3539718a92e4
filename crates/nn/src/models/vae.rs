//! A plain (unconditional) Variational AutoEncoder with Gaussian likelihood.
//!
//! Used by the Spectral baseline (Li et al. 2020): the server pre-trains this
//! VAE on low-dimensional *surrogate vectors* of benign model updates and
//! flags clients whose submissions reconstruct poorly. Surrogates are
//! real-valued, so the reconstruction term is mean-squared error rather than
//! the image CVAE's Bernoulli BCE.

use crate::activations::{relu, relu_backward};
use crate::layer::{Module, Parameter};
use crate::linear::Linear;
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

/// Encoder `x → (μ, log σ²)`, decoder `z → x̂`, trained on MSE + KL.
pub struct Vae {
    spec: VaeSpec,
    enc_l1: Linear,
    mu_head: Linear,
    logvar_head: Linear,
    dec_l1: Linear,
    dec_l2: Linear,
}

impl Vae {
    pub fn new(spec: &VaeSpec, rng: &mut SeededRng) -> Self {
        Vae {
            spec: *spec,
            enc_l1: Linear::new(spec.x_dim, spec.hidden, rng),
            mu_head: Linear::new(spec.hidden, spec.latent, rng),
            logvar_head: Linear::new(spec.hidden, spec.latent, rng),
            dec_l1: Linear::new(spec.latent, spec.hidden, rng),
            dec_l2: Linear::new(spec.hidden, spec.x_dim, rng),
        }
    }

    pub fn spec(&self) -> &VaeSpec {
        &self.spec
    }

    /// The encoder's pass: the ReLU'd hidden layer, which the backward pass
    /// reads, then `(mu, logvar)`.
    fn encode(&self, x: &Tensor) -> (Tensor, Tensor, Tensor) {
        let mut h = self.enc_l1.forward(x);
        relu(h.data_mut());
        let mu = self.mu_head.forward(&h);
        let logvar = self.logvar_head.forward(&h);
        (h, mu, logvar)
    }

    /// The decoder's pass from `z`: the ReLU'd hidden layer, which the
    /// backward pass reads, and the reconstruction.
    fn decode(&self, z: &Tensor) -> (Tensor, Tensor) {
        let mut h = self.dec_l1.forward(z);
        relu(h.data_mut());
        let recon = self.dec_l2.forward(&h);
        (h, recon)
    }

    /// One training step on a batch; returns the loss (MSE + β·KL).
    pub fn train_batch(
        &mut self,
        x: &Tensor,
        beta: f32,
        optim: &mut dyn Optimizer,
        rng: &mut SeededRng,
    ) -> f32 {
        self.zero_grad();
        let (h, mu, logvar) = self.encode(x);
        let eps = mu.randn_like(rng);
        let std = logvar.map(|lv| (0.5 * lv).exp());
        let z = mu.add(&std.mul(&eps));
        let (dec_h, recon) = self.decode(&z);

        // MSE summed over features, averaged over batch.
        let b = x.dim(0) as f32;
        let diff = recon.sub(x);
        let mse: f32 = diff.data().iter().map(|d| d * d).sum::<f32>() / b;
        let drecon = diff.map(|d| 2.0 * d / b);

        let (kl, kl_dmu, kl_dlv) = loss::kl_gaussian(&mu, &logvar);

        // Backward through decoder.
        let mut dh = self.dec_l2.backward(&dec_h, &drecon);
        relu_backward(dh.data_mut(), dec_h.data());
        let dz = self.dec_l1.backward(&z, &dh);

        let mut dlv = dz.mul(&eps).mul(&std).map(|v| 0.5 * v);
        dlv.axpy(beta, &kl_dlv);
        let mut dmu = dz;
        dmu.axpy(beta, &kl_dmu);

        let dh_mu = self.mu_head.backward(&h, &dmu);
        let mut dh = dh_mu.add(&self.logvar_head.backward(&h, &dlv));
        relu_backward(dh.data_mut(), h.data());
        // Nothing sits below the first layer: parameter gradients only.
        self.enc_l1.backward_params(x, &dh);

        optim.step(self);
        mse + beta * kl
    }

    /// Per-row reconstruction error (MSE over features, via the posterior
    /// mean — the anomaly score Spectral thresholds on).
    pub fn reconstruction_errors(&mut self, x: &Tensor) -> Vec<f32> {
        let (_, mu, _) = self.encode(x);
        let (_, recon) = self.decode(&mu);
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
        self.enc_l1.visit_params(f);
        self.mu_head.visit_params(f);
        self.logvar_head.visit_params(f);
        self.dec_l1.visit_params(f);
        self.dec_l2.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.enc_l1.visit_params_mut(f);
        self.mu_head.visit_params_mut(f);
        self.logvar_head.visit_params_mut(f);
        self.dec_l1.visit_params_mut(f);
        self.dec_l2.visit_params_mut(f);
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
        let mut vae = Vae::new(&spec, &mut rng);
        let x = Tensor::randn(&[5, 8], &mut rng);
        assert_eq!(vae.reconstruction_errors(&x).len(), 5);
    }
}
