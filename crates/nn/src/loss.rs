//! Loss functions, each returning `(scalar_loss, gradient_wrt_input)` so the
//! caller can start backprop immediately.

use fg_tensor::Tensor;

/// Fused softmax + cross-entropy over logits `(batch, classes)` with integer
/// class targets. Returns the mean loss and `d loss / d logits`
/// (already scaled by `1/batch`).
pub fn softmax_cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().rank(), 2, "logits must be (batch, classes)");
    let (b, c) = (logits.dim(0), logits.dim(1));
    assert_eq!(targets.len(), b, "target count mismatch");

    let mut grad = Tensor::zeros(&[b, c]);
    let mut total = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        let row = logits.row(r);
        assert!(t < c, "target class {t} out of range");
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for &x in row {
            denom += (x - max).exp();
        }
        let log_denom = denom.ln() + max;
        total += (log_denom - row[t]) as f64;
        let g = grad.row_mut(r);
        let inv_b = 1.0 / b as f32;
        for (j, (&x, gj)) in row.iter().zip(g.iter_mut()).enumerate() {
            let p = (x - log_denom).exp();
            *gj = (p - if j == t { 1.0 } else { 0.0 }) * inv_b;
        }
    }
    ((total / b as f64) as f32, grad)
}

/// `e^a` for `a ≤ 0`, branch-free so the BCE pass vectorises: the usual
/// `a = n·ln 2 + r` reduction with a degree-5 polynomial for `e^r` on
/// `|r| ≤ ½ ln 2` (Cephes `expf` coefficients; relative error below 2e-7),
/// scaled by `2^n` through the exponent bits. Inputs below −87 are clamped
/// so that `2^n` stays a normal number: the result never reaches zero, it
/// bottoms out at `e^-87 ≈ 1.6e-38`. NaN propagates.
#[inline(always)]
fn exp_nonpos(a: f32) -> f32 {
    // 1.5·2^23: adding it rounds to the nearest integer and leaves that
    // integer in the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    // A select, not `f32::max`, which would turn a NaN into the bound.
    let a = if a < -87.0 { -87.0 } else { a };
    let shifted = a * std::f32::consts::LOG2_E + ROUND;
    let n = shifted - ROUND;
    // ln 2 split in two, 355/512 + the rest, so that the first product is
    // exact.
    let r = a - n * (355.0 / 512.0) - n * -2.121_944_4e-4;
    let p = 1.987_569_1e-4;
    let p = p * r + 1.398_2e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_5e-1;
    let p = p * r + 0.5;
    let e_r = p * (r * r) + r + 1.0;
    // n ∈ [−126, 0], so the biased exponent n + 127 is that of a normal.
    let scale =
        f32::from_bits(shifted.to_bits().wrapping_add(127u32.wrapping_sub(ROUND.to_bits())) << 23);
    e_r * scale
}

/// `ln(1 + e)` for `e ∈ [0, 1]`, branch-free and accurate *relative to the
/// result* all the way down to `e → 0` (where `(1.0 + e).ln()` has already
/// rounded `e` away): with `1 + e = 2^k (1 + f)`, `k ∈ {0, 1}`, the reduced
/// argument is `f = e` or `f = (e − 1)/2` — formed without ever rounding
/// `1 + e` — and `ln(1 + f) = f − f²/2 + f³·P(f)` on `[√½ − 1, √2 − 1]`
/// (Cephes `logf` coefficients; relative error below 3e-7). NaN propagates.
#[inline(always)]
fn ln_1p_unit(e: f32) -> f32 {
    let upper = e > std::f32::consts::SQRT_2 - 1.0;
    let f = if upper { (e - 1.0) * 0.5 } else { e };
    let p = 7.037_683_6e-2;
    let p = p * f - 1.151_461e-1;
    let p = p * f + 1.167_699_9e-1;
    let p = p * f - 1.242_014_1e-1;
    let p = p * f + 1.424_932_3e-1;
    let p = p * f - 1.666_805_8e-1;
    let p = p * f + 2.000_071_5e-1;
    let p = p * f - 2.499_999_4e-1;
    let p = p * f + 3.333_333e-1;
    let ff = f * f;
    let ln_1pf = f + (p * f * ff - 0.5 * ff);
    ln_1pf + if upper { std::f32::consts::LN_2 } else { 0.0 }
}

/// How many independent partial sums the BCE pass keeps (element `i` adds
/// into sum `i % BCE_LANES`), so the loss reduction is lane-wise adds rather
/// than one serial chain. Fixed: the sum order depends on the element count
/// only.
const BCE_LANES: usize = 8;
/// Elements per block of the BCE pass; a multiple of [`BCE_LANES`].
const BCE_BLOCK: usize = 512;

/// The whole BCE pass over flat slices: per element one `e = e^{−|x|}`
/// serves both `ln(1 + e)` and `σ(x)`. Returns the summed loss.
struct BcePass<'a> {
    logits: &'a [f32],
    targets: &'a [f32],
    grad: &'a mut [f32],
    batch: f32,
}

impl fg_tensor::simd::Kernel for BcePass<'_> {
    type Output = f64;

    #[inline(always)]
    fn run(self) -> f64 {
        let batch = self.batch;
        let mut acc = [0.0f64; BCE_LANES];
        // Two flat loops per block — the elementwise terms, then their
        // reduction — so each vectorises on its own.
        let mut losses = [0.0f32; BCE_BLOCK];
        let blocks = self
            .logits
            .chunks(BCE_BLOCK)
            .zip(self.targets.chunks(BCE_BLOCK))
            .zip(self.grad.chunks_mut(BCE_BLOCK));
        for ((xs, ts), gs) in blocks {
            let losses = &mut losses[..xs.len()];
            for (((loss, g), &x), &t) in losses.iter_mut().zip(gs).zip(xs).zip(ts) {
                let e = exp_nonpos(-x.abs());
                *loss = x.max(0.0) - x * t + ln_1p_unit(e);
                let sigma = (if x >= 0.0 { 1.0 } else { e }) / (1.0 + e);
                *g = (sigma - t) / batch;
            }
            let mut lanes = losses.chunks_exact(BCE_LANES);
            for group in &mut lanes {
                for (a, &loss) in acc.iter_mut().zip(group) {
                    *a += loss as f64;
                }
            }
            for (a, &loss) in acc.iter_mut().zip(lanes.remainder()) {
                *a += loss as f64;
            }
        }
        acc.iter().sum()
    }
}

/// Numerically stable binary cross-entropy on logits:
/// `L = max(x,0) − x·t + ln(1 + e^{−|x|})`, summed over features and averaged
/// over the batch (the CVAE reconstruction term). The gradient is
/// `(σ(x) − t) / batch`.
///
/// One fused pass: a single `e = e^{−|x|}` per element serves the softplus
/// term and `σ(x) = 1/(1+e)` for `x ≥ 0`, `e/(1+e)` otherwise (which never
/// overflows), with polynomial `exp`/`ln` that run at whatever vector width
/// [`fg_tensor::simd`] finds and produce the same bits at every width. Each
/// term is within 1e-6 relative (plus 2e-38 absolute, where `e` bottoms out)
/// of exact arithmetic — pinned by `fused_bce_tracks_an_f64_reference`.
pub fn bce_with_logits(logits: &Tensor, targets: &Tensor) -> (f32, Tensor) {
    assert_eq!(logits.dims(), targets.dims(), "bce: shape mismatch");
    let b = logits.dim(0) as f32;
    let mut grad = Tensor::zeros(logits.dims());
    let total = fg_tensor::simd::run(BcePass {
        logits: logits.data(),
        targets: targets.data(),
        grad: grad.data_mut(),
        batch: b,
    });
    ((total / b as f64) as f32, grad)
}

/// KL divergence `KL(N(mu, diag(exp(logvar))) ‖ N(0, I))`, summed over the
/// latent dimension and averaged over the batch — the CVAE regularization
/// term of Eqn. 6. Returns `(loss, d/d mu, d/d logvar)`.
pub fn kl_gaussian(mu: &Tensor, logvar: &Tensor) -> (f32, Tensor, Tensor) {
    assert_eq!(mu.dims(), logvar.dims(), "kl: shape mismatch");
    let b = mu.dim(0) as f32;
    let mut d_mu = Tensor::zeros(mu.dims());
    let mut d_logvar = Tensor::zeros(logvar.dims());
    let mut total = 0.0f64;
    for (((&m, &lv), dm), dl) in
        mu.data().iter().zip(logvar.data()).zip(d_mu.data_mut()).zip(d_logvar.data_mut())
    {
        let var = lv.exp();
        total += (-0.5 * (1.0 + lv - m * m - var)) as f64;
        *dm = m / b;
        *dl = -0.5 * (1.0 - var) / b;
    }
    ((total / b as f64) as f32, d_mu, d_logvar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_tensor::rng::SeededRng;

    #[test]
    fn ce_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], &[1, 3]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-4);
    }

    #[test]
    fn ce_of_uniform_logits_is_ln_c() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_matches_finite_differences() {
        let mut rng = SeededRng::new(0);
        let logits = Tensor::randn(&[3, 5], &mut rng);
        let targets = vec![1usize, 4, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let num = (softmax_cross_entropy(&lp, &targets).0
                - softmax_cross_entropy(&lm, &targets).0)
                / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-3, "g[{i}]");
        }
    }

    #[test]
    fn ce_gradient_rows_sum_to_zero() {
        let mut rng = SeededRng::new(1);
        let logits = Tensor::randn(&[4, 6], &mut rng);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        for r in 0..4 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn bce_gradient_matches_finite_differences() {
        let mut rng = SeededRng::new(3);
        let logits = Tensor::randn(&[2, 4], &mut rng);
        let targets = Tensor::rand_uniform(&[2, 4], 0.0, 1.0, &mut rng);
        let (_, grad) = bce_with_logits(&logits, &targets);
        let eps = 1e-3f32;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let num =
                (bce_with_logits(&lp, &targets).0 - bce_with_logits(&lm, &targets).0) / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-3, "g[{i}]");
        }
    }

    #[test]
    fn bce_is_stable_at_extreme_logits() {
        let logits = Tensor::from_vec(vec![100.0, -100.0], &[1, 2]);
        let targets = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let (loss, grad) = bce_with_logits(&logits, &targets);
        assert!(loss.is_finite() && loss < 1e-4);
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    /// `bce_with_logits` on a single element: `(loss, σ − t)`.
    fn bce_scalar(x: f32, t: f32) -> (f32, f32) {
        let (loss, grad) = bce_with_logits(
            &Tensor::from_vec(vec![x], &[1, 1]),
            &Tensor::from_vec(vec![t], &[1, 1]),
        );
        (loss, grad.data()[0])
    }

    /// The stated bound: 1e-6 relative, plus 2e-38 absolute for the floor
    /// `e^{−|x|}` bottoms out at instead of underflowing.
    fn assert_tracks(got: f32, want: f64, what: &str) {
        let tol = 1e-6 * want.abs() + 2e-38;
        assert!((got as f64 - want).abs() <= tol, "{what}: {got:e} vs {want:e}");
    }

    #[test]
    fn fused_bce_tracks_an_f64_reference() {
        let sweep = (-3000..=3000).map(|i| i as f32 * 0.01);
        let edges = [0.0, -0.0, 1e-6, -1e-6, 86.9, -86.9, 87.2, -87.2, 88.0, -88.0, 1e4, -1e4];
        for x in sweep.chain(edges) {
            let xd = x as f64;
            let softplus = |v: f64| v.max(0.0) + (-v.abs()).exp().ln_1p();
            let sigma = 1.0 / (1.0 + (-xd).exp());
            // t = 0: the loss is softplus(x) and the gradient σ(x) itself.
            let (loss, grad) = bce_scalar(x, 0.0);
            assert_tracks(loss, softplus(xd), &format!("loss(x={x}, t=0)"));
            assert_tracks(grad, sigma, &format!("sigma(x={x})"));
            // t = 1: max(x,0) − x cancels exactly, leaving ln(1+e) alone for
            // x > 0; the gradient σ − 1 is one more rounding away from exact.
            let (loss, grad) = bce_scalar(x, 1.0);
            assert_tracks(loss, softplus(-xd), &format!("loss(x={x}, t=1)"));
            assert!(
                (grad as f64 - (sigma - 1.0)).abs() <= 1e-6 * sigma + 6e-8,
                "grad(x={x}, t=1): {grad:e} vs {:e}",
                sigma - 1.0
            );
        }
        // A whole CVAE-sized batch, fractional targets, tail lanes and all.
        let mut rng = SeededRng::new(7);
        let logits = Tensor::randn(&[6, 794], &mut rng).map(|v| 4.0 * v);
        let targets = Tensor::rand_uniform(&[6, 794], 0.0, 1.0, &mut rng);
        let (loss, grad) = bce_with_logits(&logits, &targets);
        let mut want = 0.0f64;
        for ((&x, &t), &g) in logits.data().iter().zip(targets.data()).zip(grad.data()) {
            let (x, t) = (x as f64, t as f64);
            want += x.max(0.0) - x * t + (-x.abs()).exp().ln_1p();
            let sigma = 1.0 / (1.0 + (-x).exp());
            assert!((g as f64 - (sigma - t) / 6.0).abs() <= (1e-6 * sigma + 6e-8) / 6.0);
        }
        assert_tracks(loss, want / 6.0, "batch loss");
    }

    #[test]
    fn fused_bce_propagates_non_finite_logits_as_the_two_exp_form_did() {
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for t in [0.0f32, 0.3, 1.0] {
                let old_loss = x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
                let old_grad = 1.0 / (1.0 + (-x).exp()) - t;
                let (loss, grad) = bce_scalar(x, t);
                assert_eq!(loss.is_nan(), old_loss.is_nan(), "loss(x={x}, t={t}) = {loss}");
                assert_eq!(grad.is_nan(), old_grad.is_nan(), "grad(x={x}, t={t}) = {grad}");
                if !old_loss.is_nan() {
                    assert_eq!(loss, old_loss, "loss(x={x}, t={t})");
                }
                if !old_grad.is_nan() {
                    assert!((grad - old_grad).abs() <= 2e-38, "grad(x={x}, t={t}) = {grad}");
                }
            }
        }
    }

    #[test]
    fn fused_bce_is_bit_identical_at_every_vector_level() {
        use fg_tensor::simd::{run_at, Level};
        let mut rng = SeededRng::new(8);
        // 2·BCE_BLOCK + 37 elements: full blocks, a partial block, tail lanes.
        let n = 2 * BCE_BLOCK + 37;
        let logits = Tensor::randn(&[n], &mut rng).map(|v| 10.0 * v);
        let targets = Tensor::rand_uniform(&[n], 0.0, 1.0, &mut rng);
        let mut reference: Option<(u64, Vec<u32>)> = None;
        for level in Level::offered() {
            let mut grad = vec![0.0f32; n];
            let pass = BcePass {
                logits: logits.data(),
                targets: targets.data(),
                grad: &mut grad,
                batch: 3.0,
            };
            let total = run_at(level, pass);
            let got = (total.to_bits(), crate::bits(&grad));
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "{level:?} diverged from the scalar pass"),
            }
        }
    }

    #[test]
    fn kl_of_standard_normal_is_zero() {
        let mu = Tensor::zeros(&[2, 3]);
        let logvar = Tensor::zeros(&[2, 3]);
        let (loss, dm, dl) = kl_gaussian(&mu, &logvar);
        assert!(loss.abs() < 1e-7);
        assert_eq!(dm.sum(), 0.0);
        assert_eq!(dl.sum(), 0.0);
    }

    #[test]
    fn kl_gradients_match_finite_differences() {
        let mut rng = SeededRng::new(4);
        let mu = Tensor::randn(&[2, 3], &mut rng);
        let logvar = Tensor::randn(&[2, 3], &mut rng);
        let (_, dm, dl) = kl_gaussian(&mu, &logvar);
        let eps = 1e-3f32;
        for i in 0..mu.numel() {
            let mut mp = mu.clone();
            mp.data_mut()[i] += eps;
            let mut mm = mu.clone();
            mm.data_mut()[i] -= eps;
            let num = (kl_gaussian(&mp, &logvar).0 - kl_gaussian(&mm, &logvar).0) / (2.0 * eps);
            assert!((num - dm.data()[i]).abs() < 1e-3);

            let mut lp = logvar.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logvar.clone();
            lm.data_mut()[i] -= eps;
            let num = (kl_gaussian(&mu, &lp).0 - kl_gaussian(&mu, &lm).0) / (2.0 * eps);
            assert!((num - dl.data()[i]).abs() < 1e-3);
        }
    }
}
