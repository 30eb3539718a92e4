//! The one place that decides which vector ISA a hand-dispatched kernel
//! runs on.
//!
//! [`Level::detect`] is a pure function of the CPU — scalar, AVX2+FMA or
//! AVX-512F, widest available — with no override: a given machine always
//! takes the same path. Two kinds of kernel hang off it:
//!
//! * the GEMM register tiles of [`crate::kernels`], written with intrinsics
//!   per level (the fused vector tiles and the unfused scalar tile round
//!   differently, so there the level is part of the numeric contract);
//! * elementwise passes written once in plain Rust and handed to [`run`],
//!   which only recompiles the same loop for wider registers. Rust never
//!   contracts `a * b + c` into a fused multiply-add and never reassociates
//!   floating-point arithmetic, so such a pass produces the same bits at
//!   every level; the level changes how many elements share an instruction.

/// A vector ISA tier, ordered narrowest to widest; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Whatever the compilation target guarantees.
    Scalar,
    /// AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F on top of [`Level::Avx2`].
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Level {
    /// The widest level this CPU runs. The detection macro caches, so this
    /// is a few loads per call.
    #[inline]
    pub fn detect() -> Level {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Level::Avx512;
            }
            return Level::Avx2;
        }
        Level::Scalar
    }

    /// Every level this CPU runs, narrowest first (per-level tests).
    pub fn offered() -> Vec<Level> {
        let all = [
            Level::Scalar,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2,
            #[cfg(target_arch = "x86_64")]
            Level::Avx512,
        ];
        all.into_iter().filter(|&l| l <= Level::detect()).collect()
    }
}

/// An elementwise pass to compile once per [`Level`]. Implementations mark
/// [`Kernel::run`] `#[inline(always)]` so that the body lands inside the
/// level's `target_feature` function and is vectorised for it.
pub trait Kernel {
    type Output;

    fn run(self) -> Self::Output;
}

/// Run `kernel` compiled for [`Level::detect`].
#[inline]
pub fn run<K: Kernel>(kernel: K) -> K::Output {
    run_at(Level::detect(), kernel)
}

/// Run `kernel` compiled for `level`.
///
/// # Panics
/// If `level` is wider than this CPU offers.
pub fn run_at<K: Kernel>(level: Level, kernel: K) -> K::Output {
    assert!(level <= Level::detect(), "{level:?} is not available on this CPU");
    match level {
        Level::Scalar => kernel.run(),
        // SAFETY: the assert above verified the features each function enables.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { run_avx2(kernel) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { run_avx512(kernel) },
    }
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn run_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

/// # Safety
/// The CPU must support AVX-512F, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn run_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass with a multiply feeding an add — the shape a contracting
    /// compiler would fuse — plus a division and a square root.
    struct Axpy<'a> {
        a: f32,
        x: &'a [f32],
        y: &'a mut [f32],
    }

    impl Kernel for Axpy<'_> {
        type Output = ();

        #[inline(always)]
        fn run(self) {
            for (y, &x) in self.y.iter_mut().zip(self.x) {
                *y = (self.a * x + *y) / (x * x + 1.0).sqrt();
            }
        }
    }

    #[test]
    fn every_offered_level_computes_the_same_bits() {
        let x: Vec<f32> = (0..1003).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let y0: Vec<f32> = (0..1003).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut reference: Option<Vec<u32>> = None;
        for level in Level::offered() {
            let mut y = y0.clone();
            run_at(level, Axpy { a: 1.000_123_4, x: &x, y: &mut y });
            let bits: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "{level:?} diverged from the scalar pass"),
            }
        }
    }

    #[test]
    fn detect_is_the_widest_offered_level() {
        assert_eq!(Level::offered().last(), Some(&Level::detect()));
    }
}
