//! Bit fingerprint of the CVAE's and the VAE's training and decoding.
//!
//! Three `Cvae::train_batch` steps (Adam) of the presets' reduced CVAE, at a
//! full batch of 32 and at a ragged batch of 6, digested with FNV-1a: the
//! loss and every bit of the parameters after each step, then the decoder's
//! `θ` and the images a decoder rebuilt from it generates for 7 latents.
//! Then three `Vae::train_batch` steps of the spectral baseline's VAE, each
//! step's loss and parameters, and the `reconstruction_errors` bits. A change
//! to either model's passes — a layer's forward or backward, an activation,
//! the losses, the optimizer step — that moves any bit fails here.
//!
//! As in `golden_digests`, the digests are the vector GEMM levels' bits
//! (the two agree); on a scalar-only CPU the test reports that it skipped.

use fg_nn::models::{Cvae, CvaeDecoder, CvaeSpec, Vae, VaeSpec};
use fg_nn::optim::Adam;
use fg_nn::params;
use fg_tensor::rng::SeededRng;
use fg_tensor::simd::Level;
use fg_tensor::Tensor;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn floats(v: &[f32]) -> u64 {
    fnv1a(v.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// `loss, params` per CVAE step, then the `θ` and `generate` digests, one
/// line per value.
fn cvae_fingerprint(batch: usize) -> Vec<String> {
    let spec = CvaeSpec::reduced(100, 8);
    let mut cvae = Cvae::new(&spec, &mut SeededRng::new(41));
    let mut adam = Adam::new(2e-3);
    let mut rng = SeededRng::new(42);
    let x = Tensor::rand_uniform(&[batch, 784], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..batch).map(|i| (i * 3 + 1) % 10).collect();
    let mut lines = Vec::new();
    for step in 0..3 {
        let loss = cvae.train_batch(&x, &labels, &mut adam, &mut rng);
        lines.push(format!("step {step} loss {:08x}", loss.to_bits()));
        lines.push(format!("step {step} params {:016x}", floats(&params::flatten(&cvae))));
    }
    let theta = cvae.decoder_params();
    lines.push(format!("theta {:016x}", floats(&theta)));
    let z = Tensor::randn(&[7, spec.latent], &mut rng);
    let images = CvaeDecoder::from_params(&spec, &theta).generate(&z, &[0, 1, 2, 3, 4, 5, 9]);
    lines.push(format!("generate {:016x}", floats(images.data())));
    lines
}

/// `loss, params` per VAE step, then the `reconstruction_errors` digest.
fn vae_fingerprint() -> Vec<String> {
    let mut rng = SeededRng::new(43);
    let mut vae = Vae::new(&VaeSpec { x_dim: 16, hidden: 32, latent: 4 }, &mut rng);
    let mut adam = Adam::new(1e-2);
    let x = Tensor::randn(&[24, 16], &mut rng);
    let mut lines = Vec::new();
    for step in 0..3 {
        let loss = vae.train_batch(&x, 0.1, &mut adam, &mut rng);
        lines.push(format!("step {step} loss {:08x}", loss.to_bits()));
        lines.push(format!("step {step} params {:016x}", floats(&params::flatten(&vae))));
    }
    let errors = vae.reconstruction_errors(&Tensor::randn(&[9, 16], &mut rng));
    lines.push(format!("reconstruction_errors {:016x}", floats(&errors)));
    lines
}

const WANT: &str = "\
cvae b32 step 0 loss 44490d73
cvae b32 step 0 params 40128649b5268af6
cvae b32 step 1 loss 441d1394
cvae b32 step 1 params e7e833adfafd3223
cvae b32 step 2 loss 441b12f5
cvae b32 step 2 params 6d425b45658d76b1
cvae b32 theta b50b2327c5c58576
cvae b32 generate 428f1195b7794c37
cvae b6 step 0 loss 44508cc4
cvae b6 step 0 params dbea8d591fbd1b24
cvae b6 step 1 loss 441c2675
cvae b6 step 1 params f4aa22e73e921e06
cvae b6 step 2 loss 441e813b
cvae b6 step 2 params 83d6be0c6dbe8695
cvae b6 theta 75893bc3f16aedfe
cvae b6 generate e3c57a15a5415912
vae step 0 loss 439187e0
vae step 0 params d36749a11b98ca00
vae step 1 loss 4339db99
vae step 1 params 7ff2eacc8aad980e
vae step 2 loss 42a5f166
vae step 2 params 3b3dfbf319199bd5
vae reconstruction_errors df5e2819e84086d3
";

#[test]
fn training_steps_reproduce_the_fingerprint() {
    if Level::detect() == Level::Scalar {
        eprintln!(
            "cvae_fingerprint skipped: scalar level (the table holds the vector levels' bits)"
        );
        return;
    }
    let mut got = String::new();
    for batch in [32, 6] {
        for line in cvae_fingerprint(batch) {
            got.push_str(&format!("cvae b{batch} {line}\n"));
        }
    }
    for line in vae_fingerprint() {
        got.push_str(&format!("vae {line}\n"));
    }
    assert_eq!(got, WANT, "cvae fingerprint moved; got:\n{got}");
}
