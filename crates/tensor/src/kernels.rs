//! Matrix-multiplication kernels: a cache-blocked, panel-packed GEMM family.
//!
//! Three layouts cover every need of the layer library without materializing
//! transposes on hot paths:
//!
//! * [`matmul`]      — `C = A · B`        (M,K)·(K,N) → (M,N)
//! * [`matmul_bt`]   — `C = A · Bᵀ`       (M,K)·(N,K) → (M,N)
//! * [`matmul_at`]   — `C = Aᵀ · B`       (K,M)·(K,N) → (M,N)
//!
//! plus two fused variants for the layer hot paths: [`matmul_bt_bias`] (the
//! linear/conv forward epilogue folds the bias into the output
//! initialization) and [`matmul_at_acc`] (the weight-gradient accumulation
//! `dW += Aᵀ·B` writes straight into the gradient tensor, no temporary).
//!
//! ## Blocking & packing
//!
//! All layouts route through one driver, [`gemm`], structured like a
//! classic BLIS kernel (see DESIGN.md §7.2):
//!
//! * the output is tiled into `MC`-row × `NC`-column macro-blocks with the
//!   shared dimension cut into `KC`-deep slabs;
//! * for each `(KC, NC)` slab, `B` is packed **once** into `NR`-wide column
//!   panels (paying any transpose/stride cost a single time), and each
//!   `MC`-row block packs its slice of `A` into `MR`-tall row panels. Every
//!   public layout has a unit stride on one axis, so a pack is either
//!   fixed-size copies or an interleave of contiguous runs (in-register
//!   transposes for `B` on x86), pinned in this module's tests to a
//!   per-element strided pack;
//! * an `MR`×`NR` register-tile microkernel walks the packed panels with all
//!   `MR*NR` accumulators live in registers, so each loaded element is used
//!   `MR` (resp. `NR`) times instead of once, and adds the finished tile
//!   into `C` from those registers. Every level packs the same 8-tall `A`
//!   panels; the AVX-512 tile spans two adjacent `B` panels (8×32, 16
//!   accumulators, enough independent chains to cover the FMA latency) or
//!   one for an odd last panel (8×16).
//!
//! The public layouts hand the driver strided views. The convolution
//! ([`crate::conv`]) hands it two other operand sources that yield the same
//! panels: an `A` packed once ([`prepack_a`], a filter bank shared by every
//! image of a call) and read in place, and a [`Patches`] `B` that packs an
//! image's patch matrix straight from its zero-padded copy, so the matrix is
//! never built (one masked vector gather per panel depth step on AVX-512).
//!
//! Packed panels and all other scratch come from the thread-local
//! [`crate::workspace`] pool, so steady-state calls perform no heap
//! allocation beyond the returned output tensor.
//!
//! ## Determinism
//!
//! Rayon parallelism is over `MC` row-blocks only: every output element is
//! produced by exactly one task, the `KC` slabs are consumed left-to-right in
//! increasing-`k` order by the sequential outer loop, and the microkernel
//! accumulates each element along a single fixed chain. The arithmetic —
//! including its rounding — therefore depends only on the shapes, never on
//! the thread count: results are **bit-identical at any `FG_THREADS`**
//! (`tests/schedule_invariance.rs`). The microkernel itself is selected per
//! CPU by [`Level::detect`] — AVX-512F, else AVX2+FMA, else a portable scalar
//! tile, with no override — so bits are fixed per machine. The AVX2 and
//! AVX-512 tiles are bit-identical to each other: per output element and per
//! `KC` slab both run one fused multiply-add per `k` step from zero in
//! increasing-`k` order and then one add into `C`, and differ only in how
//! many elements share an instruction. The scalar tile rounds its multiply
//! and its add separately, so its bits differ from theirs; across machines
//! only thread-count invariance is promised. Each level is pinned to a
//! scalar chain oracle in this module's tests.
//!
//! Unlike the pre-blocking kernels there is no `a == 0.0` skip: zeros are
//! multiplied like any other value, so non-finite payloads propagate exactly
//! as IEEE 754 demands (`0 × ∞ = NaN`), matching the naive triple loop this
//! module's tests hold the layouts to.

use crate::simd::Level;
use crate::tensor::Tensor;
use crate::workspace;
use fg_obs::metrics::{Counter, HistogramFamily};
use rayon::prelude::*;

/// Driver invocations (all five layout entry points route through it).
static GEMM_CALLS: Counter = Counter::new("tensor.gemm.calls");
/// Useful work: `2·m·n·k` FLOPs per call, so FLOP/s falls out of any span.
static GEMM_FLOPS: Counter = Counter::new("tensor.gemm.flops");
/// Per-shape kernel time (label `MxKxN`), recorded only while tracing is
/// enabled — the clock reads and label formatting stay off the disabled
/// hot path.
static GEMM_SHAPE_NS: HistogramFamily = HistogramFamily::new("tensor.gemm.shape_ns");
/// Per-pack time keyed by operand source (`view`: a strided `A` or `B`
/// view; `patches`: a convolution's patch panels), under the same gate as
/// [`GEMM_SHAPE_NS`]. A call's shape time minus its packs is tile time.
static GEMM_PACK_NS: HistogramFamily = HistogramFamily::new("tensor.gemm.pack_ns");

/// Below this many multiply-accumulates we stay single-threaded: a real
/// fork costs a queue round-trip per split (up to ~32 splits per region), so
/// a parallel matmul must carry at least ~1M MACs — a few hundred
/// microseconds of arithmetic — before the pool pays for itself.
const PAR_THRESHOLD_MACS: usize = 1 << 20;

/// Microkernel tile height (rows of `A` per register tile and per packed
/// panel), the same at every [`Level`].
pub const MR: usize = 8;
/// Microkernel tile width (columns of `B` per packed panel); 16 f32 lanes =
/// one AVX-512 vector, two AVX vectors.
pub const NR: usize = 16;
/// Rows of `A` per macro-block; the packed `MC×KC` block (32 KiB) sits in
/// L1/L2. Also the unit of rayon row-parallelism.
pub const MC: usize = 32;
/// Depth of the shared-dimension slab; an `MR×KC` packed panel is 8 KiB.
/// `KC` fixes the write-back boundaries and is part of the numeric contract:
/// changing it changes rounding (never correctness).
pub const KC: usize = 256;
/// Columns of `B` per packed slab; a `KC×NC` packed panel is 512 KiB.
pub const NC: usize = 512;

// A row block holds whole `A` panels and a column slab whole `B` panels:
// `prepack_a` finds block `ib` at `ib·MC·kc` and the driver slices `C` and
// the packed slabs on these boundaries.
const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// A strided read-only matrix view: element `(r, c)` lives at
/// `data[r * rs + c * cs]`, and one of the two strides is 1. The three
/// public layouts differ only in strides, so packing — and therefore the
/// whole driver — is layout-agnostic.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    pub data: &'a [f32],
    pub rs: usize,
    pub cs: usize,
}

/// Where the driver reads `A` (m×k) from.
#[derive(Clone, Copy)]
pub(crate) enum ASource<'a> {
    /// A strided view, packed one `(MC, KC)` block at a time as the driver
    /// reaches it.
    View(MatRef<'a>),
    /// [`prepack_a`]'s output: every block packed already, read in place.
    Packed(&'a [f32]),
}

impl<'a> From<MatRef<'a>> for ASource<'a> {
    fn from(view: MatRef<'a>) -> Self {
        ASource::View(view)
    }
}

/// Where the driver reads `B` (k×n) from.
#[derive(Clone, Copy)]
pub(crate) enum BSource<'a> {
    /// A strided view, packed one `(KC, NC)` slab at a time.
    View(MatRef<'a>),
    /// One image's patch matrix, packed slab by slab straight from the
    /// image's zero-padded copy.
    Patches(Patches<'a>),
}

impl<'a> From<MatRef<'a>> for BSource<'a> {
    fn from(view: MatRef<'a>) -> Self {
        BSource::View(view)
    }
}

/// Which way round a [`Patches`] source presents the patch matrix as `B`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Orient {
    /// `B(tap, pos)`, the convolution forward's `W · colsᵀ`: a panel's lanes
    /// are consecutive output positions.
    TapPos,
    /// `B(pos, tap)`, the weight gradient's `d_out · cols`: a panel's lanes
    /// are consecutive taps.
    PosTap,
}

/// The `(out_plane, patch_len)` patch (im2col) matrix of one image,
/// never materialised: output position `(oy, ox)` × tap `(c, ky, kx)` is
/// `padded[c·ph·pw + (oy+ky)·pw + ox+kx]`, read from the image's
/// `(channels, ph, pw)` copy with its zero border in place (stride 1).
#[derive(Clone, Copy)]
pub(crate) struct Patches<'a> {
    pub padded: &'a [f32],
    pub ph: usize,
    pub pw: usize,
    pub kh: usize,
    pub kw: usize,
    pub orient: Orient,
}

impl Patches<'_> {
    /// `out[i]`: where output position `first + i`'s window starts in a
    /// padded plane, `oy·pw + ox`.
    fn origins(&self, first: usize, out: &mut [usize]) {
        let ow = self.pw - self.kw + 1;
        let (mut oy, mut ox) = (first / ow, first % ow);
        for o in out {
            *o = oy * self.pw + ox;
            ox += 1;
            if ox == ow {
                (oy, ox) = (oy + 1, 0);
            }
        }
    }

    /// `out[i]`: where tap `first + i` sits from its window's start,
    /// `c·ph·pw + ky·pw + kx`.
    fn taps(&self, first: usize, out: &mut [usize]) {
        let area = self.kh * self.kw;
        let (mut c, mut ky, mut kx) = (first / area, first % area / self.kw, first % self.kw);
        for o in out {
            *o = c * self.ph * self.pw + ky * self.pw + kx;
            kx += 1;
            if kx == self.kw {
                (ky, kx) = (ky + 1, 0);
                if ky == self.kh {
                    (c, ky) = (c + 1, 0);
                }
            }
        }
    }

    /// [`pack_b`] of this matrix in its orientation, value for value:
    /// element `(row, col)` is `padded[rows[row] + lanes[col]]`, one offset
    /// table per axis filled once per slab, so a depth step is a gather of
    /// one panel's lanes at fixed offsets from `rows[row]`. On the Table II
    /// shapes that beats copying the lanes' contiguous runs, which are at
    /// most 5 floats long in the weight gradient. AVX-512 gathers a depth
    /// step with one masked vector gather, the other levels one load per
    /// lane (a fixed 16-wide loop on every panel but a tail); both move the
    /// same values. Lanes past `nc` are zero as in every pack.
    fn pack_b(
        &self,
        level: Level,
        row0: usize,
        kc: usize,
        col0: usize,
        nc: usize,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), nc.div_ceil(NR) * kc * NR);
        let (mut rows, mut lanes) = ([0usize; KC], [0usize; NC]);
        let (rows, lanes) = (&mut rows[..kc], &mut lanes[..nc]);
        match self.orient {
            Orient::TapPos => {
                self.taps(row0, rows);
                self.origins(col0, lanes);
            }
            Orient::PosTap => {
                self.origins(row0, rows);
                self.taps(col0, lanes);
            }
        }
        for (panel, lanes) in out.chunks_exact_mut(kc * NR).zip(lanes.chunks(NR)) {
            match (level, <&[usize; NR]>::try_from(lanes)) {
                // SAFETY: `gemm_with` asserted the level's CPU features.
                #[cfg(target_arch = "x86_64")]
                (Level::Avx512, _) => unsafe {
                    x86::gather_panel_avx512(self.padded, rows, lanes, panel)
                },
                (_, Ok(full)) => gather_panel(self.padded, rows, full, panel),
                (_, Err(_)) => gather_panel(self.padded, rows, lanes, panel),
            }
        }
    }
}

/// One `B` panel of a [`Patches`] pack: depth step `p` lane `l` is
/// `padded[rows[p] + lanes[l]]`, lanes past `lanes.len()` zero. Inlined so a
/// full panel's fixed-length `lanes` unrolls.
#[inline(always)]
fn gather_panel(padded: &[f32], rows: &[usize], lanes: &[usize], panel: &mut [f32]) {
    for (dst, &row) in panel.chunks_exact_mut(NR).zip(rows) {
        let src = &padded[row..];
        for (d, &off) in dst.iter_mut().zip(lanes) {
            *d = src[off];
        }
        dst[lanes.len()..].fill(0.0);
    }
}

/// Floats [`prepack_a`] writes for an `m×k` `A`.
pub(crate) fn packed_a_len(m: usize, k: usize) -> usize {
    m.next_multiple_of(MR) * k
}

/// Pack all of `a` (m×k) once, for an operand many products share: `KC`
/// slab `pc` is [`pack_a`] of every row at `out[pc·m̄..]` (`m̄` = `m`
/// rounded up to `MR`). `MC` is a multiple of `MR`, so the driver finds row
/// block `ib` of that slab `ib·MC·kc` further on, exactly as it would have
/// packed it.
pub(crate) fn prepack_a(a: MatRef<'_>, m: usize, k: usize, out: &mut [f32]) {
    assert_eq!(out.len(), packed_a_len(m, k), "prepack_a: output size");
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        pack_a(a, 0, m, pc, kc, &mut out[pc * m.next_multiple_of(MR)..][..packed_a_len(m, kc)]);
    }
}

/// Stand-in source for the rows/columns a tail panel does not have, so the
/// interleaving packs run one loop for full and partial panels alike.
static ZEROS: [f32; KC] = [0.0; KC];

/// `dst[p * W + l] = lanes[l][p]`: interleave `W` equally long runs — the
/// transposing half of both packs (a unit-stride run per panel lane).
#[inline(always)]
fn interleave<const W: usize>(lanes: [&[f32]; W], dst: &mut [f32]) {
    let len = dst.len() / W;
    let lanes = lanes.map(|s| &s[..len]);
    for (p, d) in dst.chunks_exact_mut(W).enumerate() {
        for (o, lane) in d.iter_mut().zip(&lanes) {
            *o = lane[p];
        }
    }
}

/// `dst = src ‖ zeros`: the copying half of both packs (one panel lane group
/// is already adjacent in memory). The full-width case — every panel but a
/// tail — is a fixed-size copy the compiler turns into vector moves.
#[inline(always)]
fn copy_run(src: &[f32], dst: &mut [f32]) {
    if src.len() == dst.len() {
        dst.copy_from_slice(src);
    } else {
        let (head, pad) = dst.split_at_mut(src.len());
        head.copy_from_slice(src);
        pad.fill(0.0);
    }
}

/// Pack rows `[row0, row0+mc)` × columns `[col0, col0+kc)` of `a` into
/// `MR`-tall row panels: panel `ip`, depth `p`, lane `r` lands at
/// `out[(ip*kc + p)*MR + r]`. Rows past `mc` are zero-filled; the zero lanes
/// feed accumulators that are never written back, so padding cannot leak.
///
/// A [`MatRef`] has a unit stride on one axis, so the pack is either an
/// interleave of `MR` contiguous source rows (`cs == 1`) or a copy of `MR`
/// adjacent elements per depth step (`rs == 1`).
fn pack_a(a: MatRef<'_>, row0: usize, mc: usize, col0: usize, kc: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), mc.div_ceil(MR) * kc * MR);
    assert!(a.cs == 1 || a.rs == 1, "pack_a: neither stride of A is 1");
    for (ip, panel) in out.chunks_exact_mut(kc * MR).enumerate() {
        let r0 = row0 + ip * MR;
        let rows = (mc - ip * MR).min(MR);
        if a.cs == 1 {
            let lanes: [&[f32]; MR] = std::array::from_fn(|r| {
                if r < rows {
                    &a.data[(r0 + r) * a.rs + col0..][..kc]
                } else {
                    &ZEROS[..kc]
                }
            });
            interleave(lanes, panel);
        } else {
            for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
                copy_run(&a.data[(col0 + p) * a.cs + r0..][..rows], dst);
            }
        }
    }
}

/// Pack rows `[row0, row0+kc)` × columns `[col0, col0+nc)` of `b` into
/// `NR`-wide column panels: panel `jp`, depth `p`, lane `c` lands at
/// `out[(jp*kc + p)*NR + c]`. Columns past `nc` are zero-filled.
///
/// Specialised like [`pack_a`]: `cs == 1` copies `NR` adjacent elements per
/// depth step, `rs == 1` interleaves `NR` contiguous source columns — as
/// in-register transposes where `level` has them.
fn pack_b(
    level: Level,
    b: MatRef<'_>,
    row0: usize,
    kc: usize,
    col0: usize,
    nc: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), nc.div_ceil(NR) * kc * NR);
    assert!(b.cs == 1 || b.rs == 1, "pack_b: neither stride of B is 1");
    for (jp, panel) in out.chunks_exact_mut(kc * NR).enumerate() {
        let c0 = col0 + jp * NR;
        let cols = (nc - jp * NR).min(NR);
        if b.cs == 1 {
            for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                copy_run(&b.data[(row0 + p) * b.rs + c0..][..cols], dst);
            }
        } else {
            let lanes: [&[f32]; NR] = std::array::from_fn(|c| {
                if c < cols {
                    &b.data[(c0 + c) * b.cs + row0..][..kc]
                } else {
                    &ZEROS[..kc]
                }
            });
            match level {
                Level::Scalar => interleave(lanes, panel),
                // SAFETY: `gemm_with` asserted the level's CPU features; both
                // vector levels include AVX2, a superset of the AVX needed.
                #[cfg(target_arch = "x86_64")]
                _ => unsafe { x86::interleave_avx(&lanes, panel) },
            }
        }
    }
}

/// The vector microkernels. Per output element every one of them runs the
/// chain the scalar tile runs — from zero, one multiply-add per `k` step in
/// increasing-`k` order, then a single add into `C` — so thread-count
/// invariance is untouched. The multiply-add is *fused* here and unfused in
/// the scalar tile, which is why selection depends only on the CPU, never on
/// the call site or thread count; the AVX2 and AVX-512 tiles issue the same
/// IEEE operations per element and differ only in how many elements share
/// an instruction, so their bits are equal. The two vector packs here move
/// values and compute nothing, so no level changes a packed bit.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use core::arch::x86_64::*;

    /// [`super::interleave`] for the `NR` lanes of a `B` panel, as 8×8
    /// in-register transposes: pure data movement, so the packed bits equal
    /// the portable loop's.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    pub unsafe fn interleave_avx(lanes: &[&[f32]; NR], dst: &mut [f32]) {
        let len = dst.len() / NR;
        assert!(dst.len() == len * NR && lanes.iter().all(|l| l.len() >= len));
        let blocks = len / 8;
        for (g, group) in lanes.chunks_exact(8).enumerate() {
            for blk in 0..blocks {
                // SAFETY: `blk*8 + 8 <= len` bounds every lane read, and
                // depth steps `< len` with `g*8 + 8 <= NR` bound the stores.
                let r: [__m256; 8] =
                    std::array::from_fn(|l| _mm256_loadu_ps(group[l].as_ptr().add(blk * 8)));
                let t: [__m256; 8] = std::array::from_fn(|i| {
                    let (x, y) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
                    if i % 2 == 0 {
                        _mm256_unpacklo_ps(x, y)
                    } else {
                        _mm256_unpackhi_ps(x, y)
                    }
                });
                let u: [__m256; 8] = std::array::from_fn(|i| {
                    let (x, y) = (t[i / 4 * 4 + i % 4 / 2], t[i / 4 * 4 + i % 4 / 2 + 2]);
                    if i % 2 == 0 {
                        _mm256_shuffle_ps(x, y, 0x44)
                    } else {
                        _mm256_shuffle_ps(x, y, 0xEE)
                    }
                });
                for i in 0..8 {
                    let (x, y) = (u[i % 4], u[i % 4 + 4]);
                    let v = if i < 4 {
                        _mm256_permute2f128_ps(x, y, 0x20)
                    } else {
                        _mm256_permute2f128_ps(x, y, 0x31)
                    };
                    _mm256_storeu_ps(dst.as_mut_ptr().add((blk * 8 + i) * NR + g * 8), v);
                }
            }
            for p in blocks * 8..len {
                for (l, lane) in group.iter().enumerate() {
                    dst[p * NR + g * 8 + l] = lane[p];
                }
            }
        }
    }

    /// [`super::gather_panel`] with one masked gather per depth step:
    /// lane `l` of step `p` reads `padded[rows[p] + lanes[0] + δ_l]`, with
    /// the deltas `δ_l = lanes[l] − lanes[0]` and the bound on every read
    /// settled once per panel. Lanes past `lanes.len()` are masked to +0.0.
    /// Pure data movement, so the packed bits equal the portable loop's.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gather_panel_avx512(
        padded: &[f32],
        rows: &[usize],
        lanes: &[usize],
        panel: &mut [f32],
    ) {
        assert!(!lanes.is_empty() && lanes.len() <= NR, "gather: 1..=NR lanes");
        assert_eq!(panel.len(), rows.len() * NR, "gather: panel size");
        let base = lanes[0];
        let mut deltas = [0i32; NR];
        for (d, &lane) in deltas.iter_mut().zip(lanes) {
            let delta = lane.checked_sub(base).expect("gather: lanes ascend from lanes[0]");
            *d = i32::try_from(delta).expect("gather: lane delta fits an i32 index");
        }
        let reach = base + deltas.iter().max().map_or(0, |&d| d as usize);
        let row_max = rows.iter().copied().max().unwrap_or(0);
        let end = row_max.checked_add(reach);
        assert!(end.is_some_and(|e| e < padded.len()), "gather: panel reads past the padded image");
        let index = _mm512_loadu_si512(deltas.as_ptr().cast());
        let mask = ((1u32 << lanes.len()) - 1) as __mmask16;
        let src = padded.as_ptr().add(base);
        for (p, &row) in rows.iter().enumerate() {
            // SAFETY: every unmasked lane reads `padded[row + base + δ_l]`
            // with `row ≤ row_max` and `base + δ_l ≤ reach`, under the
            // bound asserted above; the store writes depth step `p` of the
            // `rows.len() × NR` panel.
            let v = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), mask, index, src.add(row));
            _mm512_storeu_ps(panel.as_mut_ptr().add(p * NR), v);
        }
    }

    /// One 8×16 tile, as two 4-row halves: per half,
    /// `c[r][..cols] += Σ_p ap[p][r] · bp[p][..cols]` for its rows `< rows`,
    /// 8 vector accumulators, one broadcast per `A` lane and two `B` loads
    /// per `k` step (a half with no valid rows is skipped). A full-width
    /// tile adds into `C` with vector adds; a column tail spills once and
    /// adds its valid lanes.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA. `ap`/`bp` must be readable for
    /// `kc*MR` / `kc*NR` elements, and `c[r*ldc..][..cols]` readable and
    /// writable for every `r < rows`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile_avx2(
        kc: usize,
        ap: *const f32,
        bp: *const f32,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        const H: usize = MR / 2;
        for half in 0..2 {
            let rows = rows.saturating_sub(half * H).min(H);
            if rows == 0 {
                break;
            }
            let (ap, c) = (ap.add(half * H), c.add(half * H * ldc));
            let mut c0 = [_mm256_setzero_ps(); H];
            let mut c1 = [_mm256_setzero_ps(); H];
            for p in 0..kc {
                let b0 = _mm256_loadu_ps(bp.add(p * NR));
                let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
                for r in 0..H {
                    let a = _mm256_set1_ps(*ap.add(p * MR + r));
                    c0[r] = _mm256_fmadd_ps(a, b0, c0[r]);
                    c1[r] = _mm256_fmadd_ps(a, b1, c1[r]);
                }
            }
            if cols == NR {
                for r in 0..rows {
                    let row = c.add(r * ldc);
                    _mm256_storeu_ps(row, _mm256_add_ps(_mm256_loadu_ps(row), c0[r]));
                    let hi = row.add(8);
                    _mm256_storeu_ps(hi, _mm256_add_ps(_mm256_loadu_ps(hi), c1[r]));
                }
            } else {
                let mut acc = [[0.0f32; NR]; H];
                for r in 0..H {
                    _mm256_storeu_ps(acc[r].as_mut_ptr(), c0[r]);
                    _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), c1[r]);
                }
                for (r, acc_row) in acc.iter().enumerate().take(rows) {
                    for (j, &v) in acc_row.iter().enumerate().take(cols) {
                        *c.add(r * ldc + j) += v;
                    }
                }
            }
        }
    }

    /// One 8×(16·`P`) tile over the `P` adjacent packed panels at `bp`,
    /// `bp + kc*NR`, …: 8·`P` zmm accumulators (16 for the two-panel tile,
    /// enough independent chains to keep both FMA ports busy), and per
    /// element exactly [`tile_avx2`]'s chain. `cols` counts valid columns
    /// over all `P` panels (`(P-1)·NR < cols ≤ P·NR`); each panel's add into
    /// `C` is masked to its valid lanes.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. `ap` must be readable for `kc*MR`
    /// elements, `bp` for `P*kc*NR`, and `c[r*ldc..][..cols]` readable and
    /// writable for every `r < rows`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_avx512<const P: usize>(
        kc: usize,
        ap: *const f32,
        bp: *const f32,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        let mut acc = [[_mm512_setzero_ps(); P]; MR];
        for p in 0..kc {
            let mut b = [_mm512_setzero_ps(); P];
            for (q, bq) in b.iter_mut().enumerate() {
                *bq = _mm512_loadu_ps(bp.add((q * kc + p) * NR));
            }
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*ap.add(p * MR + r));
                for (o, &bq) in acc_r.iter_mut().zip(&b) {
                    *o = _mm512_fmadd_ps(a, bq, *o);
                }
            }
        }
        let mut masks = [0 as __mmask16; P];
        for (q, m) in masks.iter_mut().enumerate() {
            *m = ((1u32 << cols.saturating_sub(q * NR).min(NR)) - 1) as __mmask16;
        }
        for (r, acc_r) in acc.iter().enumerate().take(rows) {
            for (q, (&v, &m)) in acc_r.iter().zip(&masks).enumerate() {
                let dst = c.add(r * ldc + q * NR);
                _mm512_mask_storeu_ps(dst, m, _mm512_add_ps(_mm512_maskz_loadu_ps(m, dst), v));
            }
        }
    }
}

/// The portable register tile: `c[r][..cols] += Σ_p ap[p][r] · bp[p][..cols]`
/// for `r < rows` over one packed `A` panel (`kc × MR`) and one packed `B`
/// panel (`kc × NR`). Each accumulator is a single sequential chain over `p`
/// from zero, fixed by construction — the unit of the determinism contract —
/// and is added into `C` once.
#[inline(always)]
fn tile_scalar(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, rows: usize, cols: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let a: &[f32; MR] = a.try_into().expect("packed A panel stride");
        let b: &[f32; NR] = b.try_into().expect("packed B panel stride");
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = a[r];
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += ar * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(rows) {
        for (o, &v) in c[r * ldc..][..cols].iter_mut().zip(acc_row) {
            *o += v;
        }
    }
}

/// One packed `A` block (`mc` rows) against one packed `(KC, NC)` slab of
/// `B`: run `level`'s register tile over every tile position, each
/// accumulated from zero and added into the valid region of `out_rows` (rows
/// of `C` at full width `n`; the slab's columns start at `jc`).
#[allow(clippy::too_many_arguments)]
fn sweep_tiles(
    level: Level,
    out_rows: &mut [f32],
    n: usize,
    mc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    packed_a: &[f32],
    packed_b: &[f32],
) {
    // How many packed `B` panels one tile of this level spans.
    let span = match level {
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => 2,
        _ => 1,
    };
    let panels = nc.div_ceil(NR);
    assert_eq!(packed_a.len(), mc.div_ceil(MR) * kc * MR, "packed A block size");
    assert_eq!(packed_b.len(), panels * kc * NR, "packed B slab size");
    let mut jp = 0;
    while jp < panels {
        // An odd last panel of the two-panel tile runs as a one-panel tile.
        let width = span.min(panels - jp);
        let cols = (nc - jp * NR).min(width * NR);
        let bp = &packed_b[jp * kc * NR..][..width * kc * NR];
        for (ip, ap) in packed_a.chunks_exact(kc * MR).enumerate() {
            let rows = (mc - ip * MR).min(MR);
            let c = &mut out_rows[ip * MR * n + jc + jp * NR..];
            // The bound every tile variant's writes stay under.
            assert!((rows - 1) * n + cols <= c.len(), "tile outside the output block");
            #[cfg(target_arch = "x86_64")]
            let (a, b, out) = (ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr());
            match (level, width) {
                (Level::Scalar, _) => tile_scalar(ap, bp, c, n, rows, cols),
                // SAFETY (all three): `gemm_with` asserted the level's CPU
                // features; `ap`/`bp` are `kc*MR` and `width*kc*NR` long by
                // the slicing above, and the assert bounds rows `< rows` ×
                // columns `< cols` of `c`.
                #[cfg(target_arch = "x86_64")]
                (Level::Avx2, _) => unsafe { x86::tile_avx2(kc, a, b, out, n, rows, cols) },
                #[cfg(target_arch = "x86_64")]
                (Level::Avx512, 1) => unsafe {
                    x86::tile_avx512::<1>(kc, a, b, out, n, rows, cols)
                },
                #[cfg(target_arch = "x86_64")]
                (Level::Avx512, _) => unsafe {
                    x86::tile_avx512::<2>(kc, a, b, out, n, rows, cols)
                },
            }
        }
        jp += width;
    }
}

/// Blocked GEMM driver: `out += A · B` for `A` (m×k) and `B` (k×n) read from
/// strided views, pre-packed operands or (for `B`) a convolution's patches,
/// with `out` a row-major m×n buffer whose initial contents act as the
/// additive epilogue (zeros for a plain product, a broadcast bias for the
/// fused layer forward, existing gradients for accumulation). Every source
/// yields the same packed panels, so the source never changes a bit.
///
/// `parallel` gates rayon fan-out over `MC` row-blocks; it never changes the
/// arithmetic (each output element is owned by one task and the `KC` slabs
/// are consumed in increasing-`k` order either way).
pub(crate) fn gemm<'a>(
    parallel: bool,
    m: usize,
    n: usize,
    k: usize,
    a: impl Into<ASource<'a>>,
    b: impl Into<BSource<'a>>,
    out: &mut [f32],
) {
    gemm_with(Level::detect(), parallel, m, n, k, a, b, out)
}

/// [`gemm`] at an explicit [`Level`] (the per-level bit-identity tests).
#[allow(clippy::too_many_arguments)]
fn gemm_with<'a>(
    level: Level,
    parallel: bool,
    m: usize,
    n: usize,
    k: usize,
    a: impl Into<ASource<'a>>,
    b: impl Into<BSource<'a>>,
    out: &mut [f32],
) {
    let (a, b) = (a.into(), b.into());
    assert!(level <= Level::detect(), "{level:?} is not available on this CPU");
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if let ASource::Packed(p) = a {
        assert_eq!(p.len(), packed_a_len(m, k), "pre-packed A size");
    }
    GEMM_CALLS.incr();
    GEMM_FLOPS.add(2 * (m as u64) * (n as u64) * (k as u64));
    let trace = fg_obs::enabled().then(|| (fg_obs::span::span("tensor.gemm"), fg_obs::now_ns()));
    let traced = trace.is_some();
    let fan_out = parallel && m > MC;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let b_len = nc.div_ceil(NR) * kc * NR;
            let mut packed_b = None;
            let pb: &[f32] = match b {
                BSource::View(v) => {
                    let s = packed_b.insert(workspace::take_uninit(b_len));
                    timed_pack(traced, "view", || pack_b(level, v, pc, kc, jc, nc, s));
                    s
                }
                BSource::Patches(p) => {
                    let s = packed_b.insert(workspace::take_uninit(b_len));
                    timed_pack(traced, "patches", || p.pack_b(level, pc, kc, jc, nc, s));
                    s
                }
            };
            let body = |ib: usize, rows: &mut [f32]| {
                let row0 = ib * MC;
                let mc = MC.min(m - row0);
                let a_len = mc.div_ceil(MR) * kc * MR;
                let mut packed_a = None;
                let pa: &[f32] = match a {
                    ASource::Packed(p) => &p[pc * m.next_multiple_of(MR) + row0 * kc..][..a_len],
                    ASource::View(v) => {
                        let s = packed_a.insert(workspace::take_uninit(a_len));
                        timed_pack(traced, "view", || pack_a(v, row0, mc, pc, kc, s));
                        s
                    }
                };
                sweep_tiles(level, rows, n, mc, kc, jc, nc, pa, pb);
            };
            if fan_out {
                out.par_chunks_mut(MC * n).enumerate().for_each(|(ib, rows)| body(ib, rows));
            } else {
                out.chunks_mut(MC * n).enumerate().for_each(|(ib, rows)| body(ib, rows));
            }
        }
    }
    if let Some((span, t0)) = trace {
        GEMM_SHAPE_NS.record(&format!("{m}x{k}x{n}"), fg_obs::now_ns().saturating_sub(t0));
        drop(span);
    }
}

/// Run one pack, recording its time under `source` only when `traced`.
#[inline(always)]
fn timed_pack(traced: bool, source: &str, pack: impl FnOnce()) {
    if !traced {
        return pack();
    }
    let t0 = fg_obs::now_ns();
    pack();
    GEMM_PACK_NS.record(source, fg_obs::now_ns().saturating_sub(t0));
}

/// True when a problem is worth offering to the pool.
#[inline]
fn worth_forking(m: usize, n: usize, k: usize) -> bool {
    m.saturating_mul(n).saturating_mul(k) >= PAR_THRESHOLD_MACS
}

/// `C = A · B` for row-major matrices. A call of [`matmul_into`].
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul: A must be rank-2");
    assert_eq!(b.shape().rank(), 2, "matmul: B must be rank-2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul: inner dims mismatch ({k} vs {k2})");

    let mut out = vec![0.0f32; m * n];
    matmul_into(m, n, k, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// `out += A · B` for a row-major `m×k` `A`, `k×n` `B` and `m×n` `out` —
/// the one body of [`matmul`], and the input gradient `dX = dY · W` of a
/// linear layer.
pub fn matmul_into(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul: A size");
    assert_eq!(b.len(), k * n, "matmul: B size");
    assert_eq!(out.len(), m * n, "matmul: output size");
    gemm(
        worth_forking(m, n, k),
        m,
        n,
        k,
        MatRef { data: a, rs: k, cs: 1 },
        MatRef { data: b, rs: n, cs: 1 },
        out,
    );
}

/// `C = A · Bᵀ` where `A` is (M,K) and `B` is (N,K).
///
/// This is the natural layout for a linear layer forward pass with weights
/// stored (out_features, in_features); the packing step absorbs the
/// transpose, paying the strided reads once per `(KC, NC)` slab.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_bt: A must be rank-2");
    assert_eq!(b.shape().rank(), 2, "matmul_bt: B must be rank-2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, k2) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul_bt: inner dims mismatch ({k} vs {k2})");

    let mut out = vec![0.0f32; m * n];
    gemm(
        worth_forking(m, n, k),
        m,
        n,
        k,
        MatRef { data: a.data(), rs: k, cs: 1 },
        MatRef { data: b.data(), rs: 1, cs: k },
        &mut out,
    );
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ + bias` with the bias row folded into the output
/// initialization — the fused linear-forward epilogue. `bias` must have
/// length N. A one-group call of [`matmul_bt_bias_grouped`].
pub fn matmul_bt_bias(a: &Tensor, b: &Tensor, bias: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_bt_bias: A must be rank-2");
    assert_eq!(b.shape().rank(), 2, "matmul_bt_bias: B must be rank-2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, k2) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul_bt_bias: inner dims mismatch ({k} vs {k2})");

    let mut out = vec![0.0f32; m * n];
    let a = GroupedA::Shared(a.data());
    matmul_bt_bias_grouped(m, n, k, a, &[b.data()], &[bias.data()], &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Left operand of a grouped GEMM launch ([`matmul_bt_bias_grouped`]).
#[derive(Clone, Copy)]
pub enum GroupedA<'a> {
    /// Every group multiplies the same row-major `m×k` matrix — the shared
    /// validation batch of the batched scorer.
    Shared(&'a [f32]),
    /// Group `g` multiplies `slab[g*m*k..(g+1)*m*k]` — per-model activation
    /// slabs produced by an earlier grouped layer.
    PerGroup(&'a [f32]),
}

/// `C_g = A_g · W_gᵀ + bias_g` over `G` groups — the one body of the fused
/// linear forward: `A_g` is `m×k` (shared or a per-group slab slice), `W_g`
/// is `n×k`, `bias_g` has length `n`, and group `g`'s output lands in
/// `out[g*m*n..(g+1)*m*n]`.
///
/// Per group: every output row is seeded with the bias, so the bias add
/// costs no separate pass, then one [`gemm`] accumulates the product on top
/// (same shape, same `MatRef` strides, same increasing-`k` chains whatever
/// the group count). The parallel grain is *group × `MC` row-block*: groups
/// fan out into disjoint output chunks with no cross-group reduction, and a
/// product [`worth_forking`] splits its row-blocks too, so one group is as
/// parallel as eight and results are bit-identical at any `FG_THREADS`.
pub fn matmul_bt_bias_grouped(
    m: usize,
    n: usize,
    k: usize,
    a: GroupedA<'_>,
    weights: &[&[f32]],
    biases: &[&[f32]],
    out: &mut [f32],
) {
    let groups = weights.len();
    assert_eq!(biases.len(), groups, "matmul_bt_bias_grouped: weights/biases length mismatch");
    assert_eq!(out.len(), groups * m * n, "matmul_bt_bias_grouped: output slab size");
    match a {
        GroupedA::Shared(s) => assert_eq!(s.len(), m * k, "grouped A: shared matrix size"),
        GroupedA::PerGroup(s) => assert_eq!(s.len(), groups * m * k, "grouped A: slab size"),
    }
    for (w, bias) in weights.iter().zip(biases) {
        assert_eq!(w.len(), n * k, "matmul_bt_bias_grouped: weight matrix size");
        assert_eq!(bias.len(), n, "matmul_bt_bias_grouped: bias length mismatch");
    }
    if out.is_empty() {
        return;
    }
    out.par_chunks_mut(m * n).enumerate().for_each(|(g, out_g)| {
        let a_g = match a {
            GroupedA::Shared(s) => s,
            GroupedA::PerGroup(s) => &s[g * m * k..(g + 1) * m * k],
        };
        for row in out_g.chunks_exact_mut(n) {
            row.copy_from_slice(biases[g]);
        }
        gemm(
            worth_forking(m, n, k),
            m,
            n,
            k,
            MatRef { data: a_g, rs: k, cs: 1 },
            MatRef { data: weights[g], rs: 1, cs: k },
            out_g,
        );
    });
}

/// `C = Aᵀ · B` where `A` is (K,M) and `B` is (K,N).
///
/// This is the weight-gradient layout: `dW = Xᵀ · dY` accumulated over the
/// batch dimension K.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[a.dim(1), b.dim(1)]);
    matmul_at_acc(a, b, &mut out);
    out
}

/// `out += Aᵀ · B` accumulated in place — the weight-gradient hot path
/// (`dW += Xᵀ · dY`) without a temporary gradient tensor. A call of
/// [`matmul_at_into`].
pub fn matmul_at_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(a.shape().rank(), 2, "matmul_at: A must be rank-2");
    assert_eq!(b.shape().rank(), 2, "matmul_at: B must be rank-2");
    let (k, m) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul_at: outer dims mismatch ({k} vs {k2})");
    assert_eq!(out.dims(), &[m, n], "matmul_at_acc: output shape mismatch");
    matmul_at_into(m, n, k, a.data(), b.data(), out.data_mut());
}

/// `out += Aᵀ · B` for a row-major `k×m` `A`, `k×n` `B` and `m×n` `out` —
/// the one body of [`matmul_at_acc`].
pub fn matmul_at_into(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "matmul_at: A size");
    assert_eq!(b.len(), k * n, "matmul_at: B size");
    assert_eq!(out.len(), m * n, "matmul_at: output size");
    gemm(
        worth_forking(m, n, k),
        m,
        n,
        k,
        MatRef { data: a, rs: 1, cs: m },
        MatRef { data: b, rs: n, cs: 1 },
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    /// Naive triple-loop reference multiply, the oracle the optimized kernels
    /// are tested against.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                *out.at_mut(&[i, j]) = s;
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_reference() {
        let mut rng = SeededRng::new(1);
        let a = Tensor::randn(&[7, 11], &mut rng);
        let b = Tensor::randn(&[11, 5], &mut rng);
        assert_close(&matmul(&a, &b), &matmul_reference(&a, &b), 1e-5);
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let mut rng = SeededRng::new(2);
        let a = Tensor::randn(&[6, 9], &mut rng);
        let b = Tensor::randn(&[4, 9], &mut rng);
        assert_close(&matmul_bt(&a, &b), &matmul(&a, &b.transpose()), 1e-5);
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let mut rng = SeededRng::new(3);
        let a = Tensor::randn(&[9, 6], &mut rng);
        let b = Tensor::randn(&[9, 4], &mut rng);
        assert_close(&matmul_at(&a, &b), &matmul(&a.transpose(), &b), 1e-5);
    }

    #[test]
    fn matmul_bt_bias_folds_bias_into_epilogue() {
        let mut rng = SeededRng::new(9);
        let a = Tensor::randn(&[5, 7], &mut rng);
        let b = Tensor::randn(&[6, 7], &mut rng);
        let bias = Tensor::randn(&[6], &mut rng);
        let fused = matmul_bt_bias(&a, &b, &bias);
        let mut manual = matmul_bt(&a, &b);
        for r in 0..manual.dim(0) {
            for (o, &bv) in manual.row_mut(r).iter_mut().zip(bias.data()) {
                *o += bv;
            }
        }
        // Bias seeds the accumulator rather than being added last, so allow
        // one rounding step of slack.
        assert_close(&fused, &manual, 1e-6);
    }

    #[test]
    fn matmul_at_acc_accumulates_in_place() {
        let mut rng = SeededRng::new(10);
        let a = Tensor::randn(&[8, 3], &mut rng);
        let b = Tensor::randn(&[8, 5], &mut rng);
        let mut acc = Tensor::ones(&[3, 5]);
        matmul_at_acc(&a, &b, &mut acc);
        let expect = matmul_at(&a, &b).add(&Tensor::ones(&[3, 5]));
        assert_close(&acc, &expect, 1e-5);
    }

    #[test]
    fn matmul_into_accumulates_onto_its_output() {
        let mut rng = SeededRng::new(11);
        let a = Tensor::randn(&[7, 9], &mut rng);
        let b = Tensor::randn(&[9, 4], &mut rng);
        let mut acc = vec![1.0f32; 7 * 4];
        matmul_into(7, 4, 9, a.data(), b.data(), &mut acc);
        let expect = matmul(&a, &b).add(&Tensor::ones(&[7, 4]));
        assert_close(&Tensor::from_vec(acc, &[7, 4]), &expect, 1e-5);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SeededRng::new(4);
        let a = Tensor::randn(&[5, 5], &mut rng);
        assert_close(&matmul(&a, &Tensor::eye(5)), &a, 1e-6);
        assert_close(&matmul(&Tensor::eye(5), &a), &a, 1e-6);
    }

    #[test]
    fn large_matmul_uses_parallel_path_and_matches() {
        // Big enough to cross PAR_THRESHOLD_MACS.
        let mut rng = SeededRng::new(5);
        let a = Tensor::randn(&[128, 128], &mut rng);
        let b = Tensor::randn(&[128, 128], &mut rng);
        assert_close(&matmul(&a, &b), &matmul_reference(&a, &b), 1e-4);
    }

    #[test]
    fn blocking_edges_match_reference() {
        // Shapes straddling every blocking boundary: below/at/above the
        // microkernel tile, the MC row block, and the KC slab.
        let mut rng = SeededRng::new(6);
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 1),
            (MR, KC, NR),
            (MR - 1, KC + 1, NR + 1),
            (MC, 2 * KC + 3, NR * 2 + 5),
            (MC + 1, 3, 1),
            (2 * MC + 5, KC - 1, 33),
        ] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            assert_close(&matmul(&a, &b), &matmul_reference(&a, &b), 1e-4);
        }
    }

    #[test]
    #[should_panic]
    fn matmul_rejects_dim_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn zero_rows_still_produce_exact_zeros() {
        // With finite inputs, rows of zeros must yield exactly 0 outputs.
        let a = Tensor::from_vec(vec![0.0, 1.0, 0.0, 0.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[7.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn non_finite_values_propagate_like_the_reference() {
        // Regression for the old `a == 0.0` fast path, which skipped the
        // multiply and silently turned 0 × ∞ into 0 instead of NaN.
        let a = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0], &[2, 2]);
        let mut b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        b.data_mut()[0] = f32::INFINITY;
        b.data_mut()[3] = f32::NAN;

        for (kernel, name) in [
            (matmul(&a, &b), "matmul"),
            (matmul_at(&a.transpose(), &b), "matmul_at"),
            (matmul_bt(&a, &b.transpose()), "matmul_bt"),
        ] {
            let reference = matmul_reference(&a, &b);
            for (i, (x, y)) in kernel.data().iter().zip(reference.data()).enumerate() {
                assert_eq!(
                    x.is_nan(),
                    y.is_nan(),
                    "{name}[{i}]: NaN propagation diverged ({x} vs {y})"
                );
                if !x.is_nan() {
                    assert_eq!(x, y, "{name}[{i}]: {x} vs {y}");
                }
            }
            // The first output row hits both 0 × ∞ and 0 × NaN: it must be NaN.
            assert!(kernel.data()[0].is_nan(), "{name}: 0 × ∞ must produce NaN");
        }
    }

    impl MatRef<'_> {
        fn at(&self, r: usize, c: usize) -> f32 {
            self.data[r * self.rs + c * self.cs]
        }
    }

    /// `out += A·B` exactly as the driver's numeric contract states it: per
    /// element and per `KC` slab one chain from zero over increasing `k` —
    /// `fused` picks the vector tiles' single-rounding multiply-add or the
    /// scalar tile's multiply then add — and one add of the chain into `out`.
    fn chain_oracle(
        fused: bool,
        m: usize,
        n: usize,
        k: usize,
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                for pc in (0..k).step_by(KC) {
                    let mut acc = 0.0f32;
                    for p in pc..(pc + KC).min(k) {
                        let (x, y) = (a.at(i, p), b.at(p, j));
                        acc = if fused { x.mul_add(y, acc) } else { acc + x * y };
                    }
                    out[i * n + j] += acc;
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_tile_level_matches_the_chain_oracle_bitwise() {
        // The CVAE's four big products, its 6-row tail batch, n = 100 (not a
        // tile multiple), k = 794 (three slabs + 26), a two-block `m`, the
        // im2col products of a small convolution, Table II's conv products
        // (conv2 forward, weight gradient and input gradient, conv1
        // forward), row counts that straddle an 8-row panel, and widths
        // that are one lone tail panel (fc2's 10 outputs, 4 lanes).
        let shapes = [
            (64, 800, 196),
            (64, 196, 800),
            (196, 64, 800),
            (32, 25, 784),
            (20, 512, 10),
            (9, 800, 4),
            (20, 25, 4),
            (9, 100, 10),
            (32, 794, 100),
            (32, 100, 794),
            (100, 32, 794),
            (794, 32, 100),
            (6, 794, 100),
            (6, 100, 794),
            (37, 300, 45),
            (8, 25, 144),
            (144, 8, 25),
            (1, 1, 1),
        ];
        let mut rng = SeededRng::new(19);
        for (m, k, n) in shapes {
            let a = Tensor::randn(&[m * k], &mut rng);
            let b = Tensor::randn(&[k * n], &mut rng);
            let seed = Tensor::randn(&[m * n], &mut rng);
            // (A strides, B strides): `matmul` / conv dcols, `matmul_bt` /
            // conv forward, `matmul_at` / conv dW.
            for (layout, (ars, acs), (brs, bcs)) in
                [("nn", (k, 1), (n, 1)), ("bt", (k, 1), (1, k)), ("at", (1, m), (n, 1))]
            {
                let a = MatRef { data: a.data(), rs: ars, cs: acs };
                let b = MatRef { data: b.data(), rs: brs, cs: bcs };
                for level in Level::offered() {
                    let mut want = seed.data().to_vec();
                    chain_oracle(level != Level::Scalar, m, n, k, a, b, &mut want);
                    let mut got = seed.data().to_vec();
                    gemm_with(level, false, m, n, k, a, b, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} {layout} at {level:?}");
                }
            }
        }
    }

    /// What [`pack_a`] must produce, one strided read per element.
    fn pack_a_oracle(a: MatRef<'_>, row0: usize, mc: usize, col0: usize, kc: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; mc.div_ceil(MR) * kc * MR];
        for (ip, panel) in out.chunks_exact_mut(kc * MR).enumerate() {
            let rows = (mc - ip * MR).min(MR);
            for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
                for (r, d) in dst.iter_mut().enumerate() {
                    *d = if r < rows { a.at(row0 + ip * MR + r, col0 + p) } else { 0.0 };
                }
            }
        }
        out
    }

    /// What [`pack_b`] must produce; see [`pack_a_oracle`].
    fn pack_b_oracle(b: MatRef<'_>, row0: usize, kc: usize, col0: usize, nc: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; nc.div_ceil(NR) * kc * NR];
        for (jp, panel) in out.chunks_exact_mut(kc * NR).enumerate() {
            let cols = (nc - jp * NR).min(NR);
            for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                for (c, d) in dst.iter_mut().enumerate() {
                    *d = if c < cols { b.at(row0 + p, col0 + jp * NR + c) } else { 0.0 };
                }
            }
        }
        out
    }

    #[test]
    fn packs_match_the_per_element_oracle() {
        let mut rng = SeededRng::new(20);
        // A 41×53 matrix in both unit-stride storages, packed from interior
        // offsets with row/column counts that leave zero-filled tails.
        let (rows, cols) = (41, 53);
        let data = Tensor::randn(&[rows * cols], &mut rng);
        for (rs, cs) in [(cols, 1), (1, rows)] {
            let mat = MatRef { data: data.data(), rs, cs };
            // As `A`: rows 3.., depth slab 5...
            for (mc, kc) in [(MR, 8), (MR + 1, 19), (30, 40), (1, 1)] {
                let want = pack_a_oracle(mat, 3, mc, 5, kc);
                let mut got = vec![f32::NAN; want.len()];
                pack_a(mat, 3, mc, 5, kc, &mut got);
                assert_eq!(bits(&got), bits(&want), "pack_a rs={rs} cs={cs} mc={mc} kc={kc}");
            }
            // ...and as `B`: depth slab 2.., columns 7...
            for (kc, nc) in [(8, NR), (19, NR + 3), (39, 2 * NR), (33, 45), (1, 1)] {
                let want = pack_b_oracle(mat, 2, kc, 7, nc);
                for level in Level::offered() {
                    let mut got = vec![f32::NAN; want.len()];
                    pack_b(level, mat, 2, kc, 7, nc, &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "pack_b rs={rs} cs={cs} kc={kc} nc={nc} at {level:?}"
                    );
                }
            }
        }

        // A patch source equals the strided pack of the im2col matrix it
        // never builds, slab by slab: `(row0, kc, col0, nc)` per orientation.
        //
        // First a 3×5×7 image, 3×4 windows (non-square, to catch a kh/kw
        // swap), one zero pixel of border, so 30 positions on 6-wide output
        // rows × 36 taps in 12-tap channels. Slabs straddle output rows,
        // window rows, channels, the border and panel tails.
        //
        // Then Table II's conv2: 32×14×14, 5×5 windows, two pixels of
        // border, so 196 positions × 800 taps. The forward's depth runs
        // 3·256 + 32, so its last `KC` slab is 32 taps deep, and its 196
        // lanes end in a 4-lane panel; the weight gradient's 196-deep slab
        // ends on the same 4 positions. Slabs cut both ends in both
        // orientations.
        let small = crate::conv::Conv2dSpec { in_ch: 3, out_ch: 1, kh: 3, kw: 4, pad: 1 };
        let conv2 = crate::conv::Conv2dSpec { in_ch: 32, out_ch: 64, kh: 5, kw: 5, pad: 2 };
        let cases: [(_, _, [_; 4], [_; 4]); 2] = [
            (
                small,
                (5, 7),
                [(0, 36, 0, 30), (5, 13, 4, 20), (11, 25, 23, 7), (35, 1, 29, 1)],
                [(0, 30, 0, 36), (4, 13, 3, 20), (17, 13, 30, 6), (29, 1, 35, 1)],
            ),
            (
                conv2,
                (14, 14),
                [(768, 32, 0, 196), (768, 32, 192, 4), (512, 256, 176, 20), (0, 256, 0, 196)],
                [(0, 196, 768, 32), (192, 4, 512, 288), (180, 16, 780, 20), (0, 196, 0, 512)],
            ),
        ];
        for (spec, (h, w), tap_pos, pos_tap) in cases {
            let (ph, pw) = (h + 2 * spec.pad, w + 2 * spec.pad);
            let image = Tensor::randn(&[spec.in_ch * h * w], &mut rng);
            let mut padded = vec![0.0f32; spec.in_ch * ph * pw];
            for (i, &v) in image.data().iter().enumerate() {
                let (c, y, x) = (i / (h * w), i % (h * w) / w, i % w);
                padded[c * ph * pw + (y + spec.pad) * pw + x + spec.pad] = v;
            }
            let (oh, ow) = spec.out_size(h, w);
            let (plane, patch) = (oh * ow, spec.patch_len());
            let mut cols = vec![0.0f32; plane * patch];
            crate::conv::im2col(image.data(), h, w, &spec, &mut cols);
            for (orient, (rs, cs), slabs) in
                [(Orient::TapPos, (1, patch), tap_pos), (Orient::PosTap, (patch, 1), pos_tap)]
            {
                let mat = MatRef { data: &cols, rs, cs };
                let patches = Patches { padded: &padded, ph, pw, kh: spec.kh, kw: spec.kw, orient };
                for (row0, kc, col0, nc) in slabs {
                    let want = pack_b_oracle(mat, row0, kc, col0, nc);
                    for patch_level in Level::offered() {
                        let mut got = vec![f32::NAN; want.len()];
                        patches.pack_b(patch_level, row0, kc, col0, nc, &mut got);
                        let what = format!(
                            "{spec:?} {orient:?} row0={row0} kc={kc} col0={col0} nc={nc} \
                             patches at {patch_level:?}"
                        );
                        assert_eq!(bits(&got), bits(&want), "{what}");
                        for level in Level::offered() {
                            let mut strided = vec![f32::NAN; want.len()];
                            pack_b(level, mat, row0, kc, col0, nc, &mut strided);
                            assert_eq!(bits(&got), bits(&strided), "{what} vs pack_b at {level:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prepacked_operands_read_the_slabs_the_driver_packs() {
        // Shapes that cut A into two row blocks and B into two column slabs,
        // both over three depth slabs with a tail, at every level.
        let mut rng = SeededRng::new(21);
        let (m, k, n) = (MC + 5, 2 * KC + 9, NC + 21);
        let a = Tensor::randn(&[m * k], &mut rng);
        let b = Tensor::randn(&[k * n], &mut rng);
        let seed = Tensor::randn(&[m * n], &mut rng);
        let a = MatRef { data: a.data(), rs: k, cs: 1 };
        let b = MatRef { data: b.data(), rs: 1, cs: k };
        let mut pa = vec![f32::NAN; packed_a_len(m, k)];
        prepack_a(a, m, k, &mut pa);
        for level in Level::offered() {
            let mut want = seed.data().to_vec();
            gemm_with(level, false, m, n, k, a, b, &mut want);
            let mut got = seed.data().to_vec();
            gemm_with(level, true, m, n, k, ASource::Packed(&pa), b, &mut got);
            assert_eq!(bits(&got), bits(&want), "pre-packed A at {level:?}");
        }
    }
}
