//! Visualize the synthetic-digit substitute and the CVAE's class-conditional
//! generations: prints ASCII previews and writes PGM tiles under `results/`.
//!
//! ```text
//! cargo run --release -p fedguard --example digit_gallery
//! ```

use fedguard::data::image_io::{ascii_art, tile_images, write_pgm};
use fedguard::data::synth::{generate_dataset, render_digit, SIDE};
use fedguard::nn::models::{Cvae, CvaeDecoder, CvaeSpec};
use fedguard::nn::Adam;
use fedguard::tensor::rng::SeededRng;
use fedguard::tensor::Tensor;
use std::path::Path;

fn main() {
    let out = Path::new("results");
    std::fs::create_dir_all(out).ok();

    // 1) The raw synthetic digits (MNIST substitute).
    println!("Synthetic digits 0-9 (one sample each):\n");
    let mut real_rows: Vec<Vec<f32>> = Vec::new();
    for class in 0..10 {
        let mut rng = SeededRng::new(1000 + class as u64);
        real_rows.push(render_digit(class, &mut rng));
    }
    for class in [3usize, 7] {
        println!("class {class}:");
        println!("{}", ascii_art(&real_rows[class], SIDE));
    }
    let refs: Vec<&[f32]> = real_rows.iter().map(|r| r.as_slice()).collect();
    let (tile, w, h) = tile_images(&refs, SIDE, SIDE, 5);
    write_pgm(&out.join("digits_real.pgm"), &tile, w, h).unwrap();
    println!("wrote results/digits_real.pgm ({w}x{h})");

    // 2) CVAE generations after client-style training.
    println!("\nTraining a CVAE (hidden 100, latent 8) on 1200 digits...");
    let data = generate_dataset(120, 7);
    let spec = CvaeSpec::reduced(100, 8);
    let mut rng = SeededRng::new(9);
    let mut cvae = Cvae::new(&spec, &mut rng);
    let mut adam = Adam::new(2e-3);
    for _ in 0..100 {
        for (x, y) in data.batches(64) {
            cvae.train_batch(&x, &y, &mut adam, &mut rng);
        }
    }

    let z = Tensor::randn(&[10, 8], &mut rng);
    let labels: Vec<usize> = (0..10).collect();
    let generated =
        CvaeDecoder::from_params(cvae.spec(), &cvae.decoder_params()).generate(&z, &labels);
    let gen_rows: Vec<&[f32]> = (0..10).map(|r| generated.row(r)).collect();
    for class in [3usize, 7] {
        println!("generated class {class}:");
        println!("{}", ascii_art(gen_rows[class], SIDE));
    }
    let (tile, w, h) = tile_images(&gen_rows, SIDE, SIDE, 5);
    write_pgm(&out.join("digits_generated.pgm"), &tile, w, h).unwrap();
    println!("wrote results/digits_generated.pgm ({w}x{h})");
    println!("\nThese generations are the validation data FedGuard's server audits with.");
}
