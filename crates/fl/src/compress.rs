//! Wire-level update compression (DESIGN.md §14).
//!
//! A FedGuard round ships ψ+θ f32 parameters per client in both directions;
//! at large cohorts the wire, not the server, is the scaling ceiling. This
//! module turns the `fg_tensor::codec` kernels into a transport-level
//! compression layer:
//!
//! * [`Compression`] — the experiment knob, negotiated in the Join/Welcome
//!   handshake so one server-side config drives every client process.
//! * [`CompressedBlob`] / [`CompressedUpdate`] — the model payloads of the
//!   `RoundStart` / `Upload` messages under every mode; dense is a codec
//!   ([`CompressedBlob::Dense`]: raw values, never delta-coded).
//! * [`compress_update`] / [`decompress_update`] — the encode→decode pair
//!   both transports share, and [`broadcast`], the one place a round's
//!   coded downlink and its reference model are built.
//! * `RoundBroadcast`, [`accept_broadcast`], `write_upload`,
//!   [`CompressedUpdate::is_coded_by`] — one call per TCP round step for
//!   every mode: this module picks the payload family, `crate::net` only
//!   moves payloads, and both ends reject one off the negotiated codec.
//!   Frames stream from the borrowed vectors ([`crate::wire::write_frame`]);
//!   [`broadcast_frames`] and [`upload_frame`] are the in-memory case.
//!
//! ## Delta coding and the reference model
//!
//! Uplink compression never quantizes raw parameter vectors: every coded
//! uplink blob encodes the **delta** `Δ = ψ_j − ref`, where `ref` is exactly
//! the global model the client received this round — i.e. the broadcast
//! *after* the downlink codec. Deltas are small relative to the weights, so
//! the quantization error that survives is proportional to the per-round
//! step, not to the weight magnitude — that is what keeps the lossy modes
//! inside the ≤ 0.5 pp accuracy-drift gate. The server reconstructs the same
//! `ref` (it knows what it broadcast), so both sides agree bit-for-bit.
//!
//! Per-mode downlink policy: `Bf16` and `Int8` broadcast `bf16(ψ₀)` (the
//! broadcast is the shared reference every client must rebuild — int8
//! reference error would dominate the delta signal); `TopK` broadcasts
//! dense (sparsifying the one vector everyone folds against would compound
//! round over round). CVAE decoders have no reference: `Int8` quantizes
//! them directly, `Bf16` and `TopK` ship them as bf16 (sparsifying a
//! generative decoder corrupts the FedGuard audit).
//!
//! ## Determinism
//!
//! Every codec kernel is bit-deterministic at any `FG_THREADS` (see
//! `fg_tensor::codec`), and both transports call the same [`broadcast`] and
//! codec pair; the dequantized fold is therefore bit-identical across
//! thread counts, arrival orders, and Local-vs-TCP deployments — asserted
//! by `tests/net_equivalence.rs`.

use crate::update::ModelUpdate;
use crate::wire::{write_frame, BlobRef, Frame, Message, WireError};
use fg_obs::metrics::Counter;
use fg_tensor::codec;
use fg_tensor::workspace;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::io::{self, Write};
use std::time::Instant;

/// Logical (pre-codec) model-payload bytes pushed through [`compress_update`]
/// / [`broadcast`], at 4 B per f32 — the numerator of the measured
/// compression ratio. Dense payloads book nothing.
static RAW_BYTES: Counter = Counter::new("fl.comm.raw_bytes");
/// Encoded model-payload bytes the same calls produced — the denominator.
/// The ratio is measured from real encodes, never assumed from the format.
static WIRE_BYTES: Counter = Counter::new("fl.comm.wire_bytes");
/// Nanoseconds spent inside encode kernels.
static ENC_NS: Counter = Counter::new("fl.codec.enc_ns");
/// Nanoseconds spent inside decode kernels.
static DEC_NS: Counter = Counter::new("fl.codec.dec_ns");

/// Default int8 scale-block size: one scale per 64K-element slab, aligned
/// with the kernels' parallel split.
pub const DEFAULT_INT8_BLOCK: usize = codec::CODEC_SLAB;
/// Default top-k keep fraction (10%).
pub const DEFAULT_TOPK_FRAC: f64 = 0.1;

/// Wire-compression mode for model payloads; the `ExperimentConfig` knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Compression {
    /// The dense codec: raw f32 payloads ([`CompressedBlob::Dense`]) —
    /// bit-identical to the pre-compression protocol.
    #[default]
    None,
    /// bf16 round-to-nearest-even (2 B/param, ≈ 2× reduction).
    Bf16,
    /// Symmetric per-block int8 with f32 scales (≈ 4× reduction).
    Int8 {
        /// Elements per scale block.
        block: usize,
    },
    /// Magnitude top-k of the delta: a presence bitmap plus bf16 values
    /// (`frac = 0.1` ≈ 12× reduction).
    TopK {
        /// Fraction of entries kept, in (0, 1].
        frac: f64,
    },
}

impl Compression {
    /// Parse a mode spec — the grammar of `fed_server --compress`:
    /// `0`/`false`/`off`/`none` for dense frames; `bf16`; `int8[:block]`
    /// with `block` in 1..=u32::MAX; `topk[:frac]` with `frac` in (0, 1].
    /// `None` for anything else, a malformed or out-of-range argument
    /// included — the values the `Welcome` frame's reader rejects.
    pub fn parse(spec: &str) -> Option<Compression> {
        let v = spec.to_ascii_lowercase();
        let (mode, arg) = match v.split_once(':') {
            Some((m, a)) => (m, Some(a)),
            None => (v.as_str(), None),
        };
        match (mode, arg) {
            ("0" | "false" | "off" | "none", None) => Some(Compression::None),
            ("bf16", None) => Some(Compression::Bf16),
            ("int8", None) => Some(Compression::Int8 { block: DEFAULT_INT8_BLOCK }),
            ("int8", Some(a)) => a
                .parse()
                .ok()
                .filter(|b| (1..=u32::MAX as usize).contains(b))
                .map(|block| Compression::Int8 { block }),
            ("topk", None) => Some(Compression::TopK { frac: DEFAULT_TOPK_FRAC }),
            ("topk", Some(a)) => a
                .parse()
                .ok()
                .filter(|f: &f64| *f > 0.0 && *f <= 1.0)
                .map(|frac| Compression::TopK { frac }),
            _ => None,
        }
    }

    /// Codec applied to the server → client broadcast (see the module docs
    /// for the rationale): `Int8` rides bf16 downlink, `TopK` rides dense.
    pub fn downlink(self) -> Compression {
        match self {
            Compression::Int8 { .. } => Compression::Bf16,
            Compression::TopK { .. } => Compression::None,
            other => other,
        }
    }

    /// Codec applied to a CVAE decoder (no reference model exists for it).
    pub fn decoder_codec(self) -> Compression {
        match self {
            Compression::TopK { .. } => Compression::Bf16,
            other => other,
        }
    }

    /// Short stable name (bench/report labels).
    pub fn name(&self) -> &'static str {
        match self {
            Compression::None => "none",
            Compression::Bf16 => "bf16",
            Compression::Int8 { .. } => "int8",
            Compression::TopK { .. } => "topk",
        }
    }
}

/// One model vector under a codec, in memory exactly as it travels in a
/// frame. Top-k values are stored as bf16 bits (the canonical wire form), so
/// a decoded blob re-encodes byte-identically.
#[derive(Clone, Debug, PartialEq)]
pub enum CompressedBlob {
    /// Raw f32 values — the [`Compression::None`] codec. Never delta-coded;
    /// travels untagged in the dense frame kinds.
    Dense(Vec<f32>),
    /// bf16 bits, one per source element.
    Bf16 { raw_len: u32, data: Vec<u16> },
    /// Per-block scales plus one signed byte per source element.
    Int8 { raw_len: u32, block: u32, scales: Vec<f32>, q: Vec<i8> },
    /// Selected indices (ascending, unique) with bf16 values; travels as a
    /// presence bitmap + value list.
    TopK { raw_len: u32, idx: Vec<u32>, val: Vec<u16> },
}

impl CompressedBlob {
    /// Length of the vector this blob reconstructs to.
    pub fn raw_len(&self) -> usize {
        match self {
            CompressedBlob::Dense(values) => values.len(),
            CompressedBlob::Bf16 { raw_len, .. }
            | CompressedBlob::Int8 { raw_len, .. }
            | CompressedBlob::TopK { raw_len, .. } => *raw_len as usize,
        }
    }

    /// Logical (pre-codec) bytes: `raw_len × 4`.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_len() as u64 * 4
    }

    /// Exact encoded payload bytes of this blob on the wire (count prefix
    /// or tag byte included) — what `fl.comm.wire_bytes` accounts for coded
    /// blobs.
    pub fn encoded_bytes(&self) -> u64 {
        match self {
            CompressedBlob::Dense(values) => 8 + values.len() as u64 * 4,
            CompressedBlob::Bf16 { raw_len, .. } => 1 + 4 + *raw_len as u64 * 2,
            CompressedBlob::Int8 { raw_len, scales, .. } => {
                1 + 4 + 4 + scales.len() as u64 * 4 + *raw_len as u64
            }
            CompressedBlob::TopK { raw_len, val, .. } => {
                1 + 4 + 4 + (*raw_len as u64).div_ceil(8) + val.len() as u64 * 2
            }
        }
    }

    /// Whether this is the dense codec's raw vector.
    pub fn is_dense(&self) -> bool {
        matches!(self, CompressedBlob::Dense(_))
    }

    /// Whether `mode`'s codec produces this blob: the same family and, for
    /// int8, the same block size.
    pub fn is_coded_by(&self, mode: Compression) -> bool {
        match (self, mode) {
            (CompressedBlob::Dense(_), Compression::None)
            | (CompressedBlob::Bf16 { .. }, Compression::Bf16)
            | (CompressedBlob::TopK { .. }, Compression::TopK { .. }) => true,
            (CompressedBlob::Int8 { block, .. }, Compression::Int8 { block: negotiated }) => {
                *block as usize == negotiated
            }
            _ => false,
        }
    }

    /// [`decompress_blob`] by value: a dense blob is moved out, not copied.
    pub fn into_vec(self) -> Vec<f32> {
        match self {
            CompressedBlob::Dense(values) => values,
            coded => decompress_blob(&coded),
        }
    }
}

/// A client's round submission under the session's codec — the payload of
/// the `Upload` wire message. Under a coded mode `params` encodes the delta
/// against the round's reference model and `decoder` (when the strategy
/// audits decoders) is coded directly; under [`Compression::None`] both are
/// [`CompressedBlob::Dense`].
#[derive(Clone, Debug, PartialEq)]
pub struct CompressedUpdate {
    pub client_id: usize,
    pub num_samples: usize,
    pub params: CompressedBlob,
    pub decoder: Option<CompressedBlob>,
    pub class_coverage: Option<Vec<u32>>,
}

impl CompressedUpdate {
    /// Logical model bytes this update stands for — identical to the
    /// reconstructed [`ModelUpdate::wire_bytes`], so `CommStats` accounting
    /// is invariant across compression modes.
    pub fn model_bytes(&self) -> u64 {
        self.params.raw_bytes() + self.decoder.as_ref().map_or(0, |d| d.raw_bytes())
    }

    /// Encoded model-payload bytes (params + decoder blobs).
    pub fn encoded_model_bytes(&self) -> u64 {
        self.params.encoded_bytes() + self.decoder.as_ref().map_or(0, |d| d.encoded_bytes())
    }

    /// Whether this is what a client under `mode` uploads: params under
    /// `mode`'s codec, the decoder under [`Compression::decoder_codec`].
    pub fn is_coded_by(&self, mode: Compression) -> bool {
        self.params.is_coded_by(mode)
            && self.decoder.as_ref().is_none_or(|d| d.is_coded_by(mode.decoder_codec()))
    }

    /// [`decompress_update`] by value: a dense payload is moved into the
    /// reconstructed update, not copied.
    pub fn into_update(self, reference: &[f32]) -> ModelUpdate {
        let CompressedUpdate { client_id, num_samples, params, decoder, class_coverage } = self;
        let params = if params.is_dense() { params.into_vec() } else { rebase(&params, reference) };
        let decoder = decoder.map(CompressedBlob::into_vec);
        ModelUpdate { client_id, params, num_samples, decoder, class_coverage }
    }
}

/// Compress one f32 vector under `mode`. [`Compression::None`] is the dense
/// codec: it copies the values and books nothing.
pub fn compress_vec(mode: Compression, data: &[f32]) -> CompressedBlob {
    assert!(
        data.len() <= u32::MAX as usize,
        "compression supports vectors up to u32::MAX elements"
    );
    let t0 = Instant::now();
    let raw_len = data.len() as u32;
    let blob = match mode {
        Compression::None => return CompressedBlob::Dense(data.to_vec()),
        Compression::Bf16 => {
            let mut packed = Vec::new();
            codec::bf16_pack_into(data, &mut packed);
            CompressedBlob::Bf16 { raw_len, data: packed }
        }
        Compression::Int8 { block } => {
            let (mut scales, mut q) = (Vec::new(), Vec::new());
            codec::int8_quantize_into(data, block, &mut scales, &mut q);
            CompressedBlob::Int8 { raw_len, block: block as u32, scales, q }
        }
        Compression::TopK { frac } => {
            let k = codec::topk_count(data.len(), frac);
            let (mut idx, mut keys) = (Vec::new(), Vec::new());
            codec::topk_select(data, k, &mut idx, &mut keys);
            let val: Vec<u16> = idx.iter().map(|&i| codec::f32_to_bf16(data[i as usize])).collect();
            CompressedBlob::TopK { raw_len, idx, val }
        }
    };
    ENC_NS.add(t0.elapsed().as_nanos() as u64);
    RAW_BYTES.add(blob.raw_bytes());
    WIRE_BYTES.add(blob.encoded_bytes());
    blob
}

/// Decode a blob into the dense vector it directly encodes (for top-k:
/// zeros off the selected set).
pub fn decompress_blob(blob: &CompressedBlob) -> Vec<f32> {
    let t0 = Instant::now();
    let mut dst = vec![0.0; blob.raw_len()];
    match blob {
        CompressedBlob::Dense(values) => dst.copy_from_slice(values),
        CompressedBlob::Bf16 { data, .. } => codec::bf16_unpack_into(data, &mut dst),
        CompressedBlob::Int8 { block, scales, q, .. } => {
            codec::int8_dequantize_into(q, scales, *block as usize, &mut dst)
        }
        CompressedBlob::TopK { idx, val, .. } => {
            for (&i, &v) in idx.iter().zip(val) {
                dst[i as usize] = codec::bf16_to_f32(v);
            }
        }
    }
    DEC_NS.add(t0.elapsed().as_nanos() as u64);
    dst
}

/// A round's coded broadcast under `mode`: the blob for the `RoundStart`
/// frame, and the reference model it decodes to — what every client trains
/// on and encodes its delta against. `None` when the downlink is dense; the
/// reference is then `global` itself.
pub fn broadcast(mode: Compression, global: &[f32]) -> Option<(CompressedBlob, Vec<f32>)> {
    match mode.downlink() {
        Compression::None => None,
        downlink => {
            let blob = compress_vec(downlink, global);
            let reference = decompress_blob(&blob);
            Some((blob, reference))
        }
    }
}

/// Server side: one round's broadcast under `mode` — what every
/// `RoundStart` of the round carries and the reference model it decodes
/// to. A dense downlink is the borrowed global, which is then the reference
/// itself; a coded one is one blob, built once for every session.
pub(crate) struct RoundBroadcast<'a> {
    round: u64,
    global: &'a [f32],
    coded: Option<(CompressedBlob, Vec<f32>)>,
}

impl<'a> RoundBroadcast<'a> {
    pub(crate) fn new(mode: Compression, round: u64, global: &'a [f32]) -> Self {
        RoundBroadcast { round, global, coded: broadcast(mode, global) }
    }

    /// One session's `RoundStart`, borrowing the round's payload.
    pub(crate) fn frame(&self, participate: bool) -> Frame<'_> {
        let global =
            self.coded.as_ref().map_or(BlobRef::Dense(self.global), |(blob, _)| blob.into());
        Frame::RoundStart { round: self.round, participate, global }
    }

    /// What every client trains from this round, and what a coded upload is
    /// delta-coded against.
    pub(crate) fn reference(&self) -> &[f32] {
        self.coded.as_ref().map_or(self.global, |(_, reference)| reference)
    }
}

/// A round's `RoundStart` frames under `mode` (participating, sitting out)
/// in memory, and the reference model they decode to: `RoundBroadcast`
/// written into `Vec`s.
pub fn broadcast_frames(
    mode: Compression,
    round: u64,
    global: &[f32],
) -> ([Vec<u8>; 2], Cow<'_, [f32]>) {
    let start = RoundBroadcast::new(mode, round, global);
    let frames = [true, false].map(|participate| {
        let mut frame = Vec::new();
        write_frame(&mut frame, start.frame(participate)).expect("a Vec takes every write");
        frame
    });
    let reference =
        start.coded.map_or(Cow::Borrowed(global), |(_, reference)| Cow::Owned(reference));
    (frames, reference)
}

/// Client side: decode a broadcast under the negotiated `mode` into the
/// global to train on, keeping in `reference` what this round's upload is
/// delta-coded against (dense uploads need none). Off-codec is malformed.
pub fn accept_broadcast(
    mode: Compression,
    global: CompressedBlob,
    reference: &mut Vec<f32>,
) -> Result<Vec<f32>, WireError> {
    if !global.is_coded_by(mode.downlink()) {
        return Err(WireError::Malformed("broadcast off the negotiated codec"));
    }
    let global = global.into_vec();
    if mode != Compression::None {
        reference.clone_from(&global);
    }
    Ok(global)
}

/// Client side: stream the `Upload` for a submission under `mode` to `w` —
/// dense straight from the borrowed update, coded against `reference`.
/// Returns the frame bytes written.
pub(crate) fn write_upload<W: Write>(
    w: &mut W,
    mode: Compression,
    round: u64,
    update: &ModelUpdate,
    reference: &[f32],
) -> io::Result<u64> {
    match mode {
        Compression::None => write_frame(w, Frame::Upload { round, update }),
        coded => {
            let update = compress_update(coded, update, reference);
            write_frame(w, Frame::Message(&Message::Upload { round, update }))
        }
    }
}

/// `write_upload` into a `Vec`: the `Upload` frame in memory.
pub fn upload_frame(
    mode: Compression,
    round: u64,
    update: &ModelUpdate,
    reference: &[f32],
) -> Vec<u8> {
    let mut frame = Vec::new();
    write_upload(&mut frame, mode, round, update, reference).expect("a Vec takes every write");
    frame
}

/// Client side: compress a trained submission against the reference model
/// the client received this round: coded params carry `Δ = params −
/// reference`, the decoder (if any) is coded under
/// [`Compression::decoder_codec`], and the dense codec copies both as is.
pub fn compress_update(
    mode: Compression,
    update: &ModelUpdate,
    reference: &[f32],
) -> CompressedUpdate {
    assert_eq!(
        update.params.len(),
        reference.len(),
        "compress_update: params/reference length mismatch"
    );
    let params = if mode == Compression::None {
        CompressedBlob::Dense(update.params.clone())
    } else {
        let mut delta = workspace::take_uninit(update.params.len());
        for ((d, &p), &r) in delta.iter_mut().zip(&update.params).zip(reference) {
            *d = p - r;
        }
        compress_vec(mode, &delta)
    };
    let decoder = update.decoder.as_ref().map(|d| compress_vec(mode.decoder_codec(), d));
    CompressedUpdate {
        client_id: update.client_id,
        num_samples: update.num_samples,
        params,
        decoder,
        class_coverage: update.class_coverage.clone(),
    }
}

/// Server side: reconstruct the dense [`ModelUpdate`] from a compressed
/// one, adding the decoded delta back onto the same reference the client
/// encoded against (a dense payload is taken as it is).
/// [`CompressedUpdate::into_update`] is the same by value.
pub fn decompress_update(cu: &CompressedUpdate, reference: &[f32]) -> ModelUpdate {
    ModelUpdate {
        client_id: cu.client_id,
        params: rebase(&cu.params, reference),
        num_samples: cu.num_samples,
        decoder: cu.decoder.as_ref().map(decompress_blob),
        class_coverage: cu.class_coverage.clone(),
    }
}

/// The params a blob stands for: a dense blob's values, or a coded delta
/// added back onto `reference` (top-k copies the reference off the selected
/// set: `+ 0.0` would flush `-0.0`). A delta of another length than the
/// reference is returned raw, for the sanitizer to reject by length.
fn rebase(params: &CompressedBlob, reference: &[f32]) -> Vec<f32> {
    if params.is_dense() || params.raw_len() != reference.len() {
        return decompress_blob(params);
    }
    let mut out = match params {
        CompressedBlob::TopK { .. } => reference.to_vec(),
        coded => decompress_blob(coded),
    };
    let t0 = Instant::now();
    match params {
        CompressedBlob::TopK { idx, val, .. } => {
            for (&i, &v) in idx.iter().zip(val) {
                out[i as usize] = reference[i as usize] + codec::bf16_to_f32(v);
            }
        }
        _ => out.iter_mut().zip(reference).for_each(|(d, &r)| *d += r),
    }
    DEC_NS.add(t0.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_tensor::rng::SeededRng;

    fn noise(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SeededRng::new(seed);
        (0..n).map(|_| rng.next_f32() * 0.2 - 0.1).collect()
    }

    fn update(params: Vec<f32>, decoder: Option<Vec<f32>>) -> ModelUpdate {
        ModelUpdate { client_id: 3, params, num_samples: 40, decoder, class_coverage: None }
    }

    #[test]
    fn parse_accepts_the_flag_grammar() {
        for (spec, want) in [
            ("off", Some(Compression::None)),
            ("none", Some(Compression::None)),
            ("0", Some(Compression::None)),
            ("bf16", Some(Compression::Bf16)),
            ("int8", Some(Compression::Int8 { block: DEFAULT_INT8_BLOCK })),
            ("int8:512", Some(Compression::Int8 { block: 512 })),
            ("topk", Some(Compression::TopK { frac: DEFAULT_TOPK_FRAC })),
            ("topk:0.25", Some(Compression::TopK { frac: 0.25 })),
            ("topk:1", Some(Compression::TopK { frac: 1.0 })),
            // A present argument is never swapped for a default.
            ("int8:junk", None),
            ("int8:0", None),
            ("topk:7", None),
            ("topk:0", None),
            ("topk:nan", None),
            ("garbage", None),
        ] {
            assert_eq!(Compression::parse(spec), want, "--compress {spec}");
        }
    }

    #[test]
    fn downlink_and_decoder_policies() {
        assert_eq!(Compression::None.downlink(), Compression::None);
        assert_eq!(Compression::Bf16.downlink(), Compression::Bf16);
        assert_eq!(Compression::Int8 { block: 64 }.downlink(), Compression::Bf16);
        assert_eq!(Compression::TopK { frac: 0.1 }.downlink(), Compression::None);
        assert_eq!(Compression::TopK { frac: 0.1 }.decoder_codec(), Compression::Bf16);
        assert_eq!(
            Compression::Int8 { block: 64 }.decoder_codec(),
            Compression::Int8 { block: 64 }
        );
    }

    #[test]
    fn old_config_blobs_without_the_field_still_parse() {
        assert_eq!(Compression::default(), Compression::None);
        let json = serde_json::to_string(&Compression::TopK { frac: 0.1 }).unwrap();
        let back: Compression = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Compression::TopK { frac: 0.1 });
    }

    #[test]
    fn round_trip_reconstructs_within_codec_error() {
        let reference = noise(10_000, 1);
        let mut params = reference.clone();
        let delta = noise(10_000, 2);
        for (p, d) in params.iter_mut().zip(&delta) {
            *p += d * 0.01;
        }
        for mode in [
            Compression::Bf16,
            Compression::Int8 { block: 1 << 10 },
            Compression::TopK { frac: 0.1 },
        ] {
            let cu = compress_update(mode, &update(params.clone(), None), &reference);
            assert_eq!(cu.model_bytes(), params.len() as u64 * 4);
            let back = decompress_update(&cu, &reference);
            assert_eq!(back, cu.clone().into_update(&reference), "{}: by value", mode.name());
            assert_eq!(back.client_id, 3);
            assert_eq!(back.params.len(), params.len());
            // The reconstruction error is bounded by the codec's error on
            // the *delta*, which is ~1e-3 of the delta magnitude here.
            let worst =
                params.iter().zip(&back.params).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            assert!(worst < 1e-3, "{}: worst abs error {worst}", mode.name());
        }
    }

    #[test]
    fn dense_codec_carries_raw_values_bit_for_bit() {
        let reference = noise(64, 7);
        let mut params = noise(64, 8);
        params[3] = f32::from_bits(0x7FC0_1234);
        params[5] = -0.0;
        let u = update(params, Some(noise(16, 9)));
        let cu = compress_update(Compression::None, &u, &reference);
        assert!(cu.params.is_dense() && cu.decoder.as_ref().is_some_and(CompressedBlob::is_dense));
        assert!(cu.is_coded_by(Compression::None));
        assert_eq!(cu.model_bytes(), u.wire_bytes());
        assert_eq!(cu.encoded_model_bytes(), 8 + 64 * 4 + 8 + 16 * 4);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for back in [decompress_update(&cu, &reference), cu.clone().into_update(&reference)] {
            assert_eq!(bits(&back.params), bits(&u.params));
            assert_eq!(bits(back.decoder.as_deref().unwrap()), bits(u.decoder.as_deref().unwrap()));
        }
    }

    #[test]
    fn payloads_are_accepted_only_under_their_own_codec() {
        let data = noise(100, 10);
        let modes = [
            Compression::None,
            Compression::Bf16,
            Compression::Int8 { block: 64 },
            Compression::TopK { frac: 0.1 },
        ];
        for made_by in modes {
            let blob = compress_vec(made_by, &data);
            for mode in modes {
                assert_eq!(blob.is_coded_by(mode), made_by == mode, "{made_by:?} under {mode:?}");
            }
        }
        let int8 = compress_vec(Compression::Int8 { block: 64 }, &data);
        assert!(!int8.is_coded_by(Compression::Int8 { block: 32 }), "int8 block is negotiated");
        // The decoder must be under the mode's decoder codec (bf16 for top-k).
        let topk = Compression::TopK { frac: 0.1 };
        let mut cu = compress_update(topk, &update(data.clone(), Some(noise(20, 11))), &data);
        assert!(cu.is_coded_by(topk));
        cu.decoder = Some(compress_vec(topk, &noise(20, 11)));
        assert!(!cu.is_coded_by(topk));
    }

    #[test]
    fn topk_keeps_reference_bits_off_the_selected_set() {
        // Unselected coordinates must be *copies* of the reference, not
        // `ref + 0.0` (which would flush -0.0).
        let reference = vec![-0.0f32, 1.0, 2.0, 3.0];
        let params = vec![-0.0f32, 1.0, 2.0, 9.0]; // only index 3 changed
        let cu =
            compress_update(Compression::TopK { frac: 0.25 }, &update(params, None), &reference);
        let back = decompress_update(&cu, &reference);
        assert_eq!(back.params[0].to_bits(), (-0.0f32).to_bits());
        assert!((back.params[3] - 9.0).abs() < 0.05);
    }

    #[test]
    fn broadcast_tracks_the_downlink_codec() {
        let global = noise(1_000, 5);
        assert!(broadcast(Compression::None, &global).is_none());
        assert!(broadcast(Compression::TopK { frac: 0.1 }, &global).is_none());
        let (bf_blob, bf) = broadcast(Compression::Bf16, &global).unwrap();
        let (i8_blob, i8ref) = broadcast(Compression::Int8 { block: 64 }, &global).unwrap();
        // Int8 mode's downlink is bf16: both modes share the broadcast.
        assert_eq!(bf_blob, i8_blob);
        let bf_bits: Vec<u32> = bf.iter().map(|x| x.to_bits()).collect();
        let i8_bits: Vec<u32> = i8ref.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bf_bits, i8_bits);
        // The reference is what the blob decodes to: the bf16 round-trip of
        // the global.
        for (&g, &r) in global.iter().zip(&bf) {
            assert_eq!(fg_tensor::codec::bf16_to_f32(fg_tensor::codec::f32_to_bf16(g)), r);
        }
    }

    #[test]
    fn encoded_bytes_hit_the_headline_ratios() {
        let d = 200_000usize;
        let data = noise(d, 6);
        let raw = d as u64 * 4;
        let bf = compress_vec(Compression::Bf16, &data);
        assert!(raw as f64 / bf.encoded_bytes() as f64 >= 1.9);
        let i8b = compress_vec(Compression::Int8 { block: DEFAULT_INT8_BLOCK }, &data);
        assert!(raw as f64 / i8b.encoded_bytes() as f64 >= 3.5);
        let tk = compress_vec(Compression::TopK { frac: 0.1 }, &data);
        assert!(raw as f64 / tk.encoded_bytes() as f64 >= 8.0);
    }
}
