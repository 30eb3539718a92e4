//! Length-prefixed binary wire codec for the networked deployment mode.
//!
//! Every frame is `[magic u32 LE][kind u8][payload_len u32 LE][payload]`.
//! The kind byte names a model payload's family: a dense vector travels in
//! `RoundStart` = 3 / `Upload` = 4 as raw f32 bits (a decoded vector is
//! **bit-identical**, NaN payloads included), a coded blob in 10 / 9 (see
//! `put_blob`); a frame holds one family. A frame either decodes exactly or
//! fails with a typed [`WireError`], never a panic (`tests/wire_fuzz.rs`
//! fuzzes it; `tests/wire_frames.rs` pins every frame's bytes).
//!
//! ## Byte accounting
//!
//! The paper's communication figures (Table V) count model payloads at
//! 4 bytes per f32 — exactly what `crate::comm::CommStats` accounts. Each
//! message reports its [`model_bytes`](Message::model_bytes): the logical
//! parameter bytes it carries under any codec ([`ModelUpdate::wire_bytes`]
//! for a dense `Upload`). Headers, ids, lengths and the coverage histogram
//! are frame overhead, so the networked model-byte counters can be asserted
//! **identical** to the in-process `CommStats` accounting.
//!
//! ## Robustness
//!
//! A frame whose declared payload length exceeds [`WireConfig::max_frame_bytes`]
//! is rejected before any allocation ([`WireError::Oversized`]); truncated or
//! malformed frames surface as [`WireError`] values the transport maps onto
//! the fault taxonomy ([`WireError::to_fault_kind`]).

use crate::compress::{CompressedBlob, CompressedUpdate, Compression};
use crate::fault::FaultKind;
use crate::update::ModelUpdate;
use std::io::Read;

/// Frame magic: `FGW1` in little-endian byte order.
pub const MAGIC: u32 = 0x3157_4746;

/// Bytes of the fixed frame header: magic (4) + kind (1) + payload len (4).
pub const HEADER_BYTES: usize = 9;

/// Protocol version sent in `Join`; the server rejects mismatches.
/// Version 2 added compression negotiation to `Welcome` and the coded
/// payload kinds 9/10.
pub const PROTOCOL_VERSION: u32 = 2;

/// Codec limits. The default frame cap (64 MiB) comfortably fits the paper's
/// largest payload (the Table II classifier: 1,662,752 × 4 B ≈ 6.65 MB) with
/// room for bigger models, while bounding what a malicious or corrupt peer
/// can make the server allocate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireConfig {
    /// Maximum accepted payload length in bytes; larger declared lengths are
    /// rejected with [`WireError::Oversized`] before any allocation.
    pub max_frame_bytes: u32,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig { max_frame_bytes: 64 << 20 }
    }
}

/// Everything that crosses the wire between `fed_server` and `fed_client`.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Client → server: session open. The server validates the protocol
    /// version and registers the session under `client_id`.
    Join { client_id: u64, protocol: u32 },
    /// Server → client: session accepted. Carries the global parameter
    /// count, the negotiated wire-compression mode (the server's resolved
    /// `Compression`, authoritative for the whole session), and an opaque
    /// blob (the serialized `ExperimentConfig` in the shipped bins) so one
    /// config, defined at the server, drives every process.
    Welcome { param_len: u64, compression: Compression, blob: String },
    /// Server → client: one round's work order, the global model under the
    /// session's [`Compression::downlink`] codec. `participate` is false
    /// when the seeded fault plan scheduled this client to drop out — the
    /// client must not train (keeping decoder caches bit-identical to the
    /// in-process path) and answers with `Decline`.
    RoundStart { round: u64, participate: bool, global: CompressedBlob },
    /// Client → server: the trained (and possibly attack-intercepted)
    /// submission for `round`, under the session's codec (see
    /// [`crate::compress`]).
    Upload { round: u64, update: CompressedUpdate },
    /// Client → server: no submission this round (scheduled dropout).
    Decline { round: u64 },
    /// Client → server: liveness signal while idle between rounds.
    Heartbeat { client_id: u64 },
    /// Client → server: orderly session close.
    Leave { client_id: u64 },
    /// Server → client: the run is over; close after sending `Leave`.
    Shutdown,
}

impl Message {
    /// Wire kind tag; a model payload's family picks the dense or the coded
    /// kind.
    pub fn kind(&self) -> u8 {
        match self {
            Message::Join { .. } => 1,
            Message::Welcome { .. } => 2,
            Message::RoundStart { global, .. } if global.is_dense() => 3,
            Message::Upload { update, .. } if update.params.is_dense() => 4,
            Message::Decline { .. } => 5,
            Message::Heartbeat { .. } => 6,
            Message::Leave { .. } => 7,
            Message::Shutdown => 8,
            Message::Upload { .. } => 9,
            Message::RoundStart { .. } => 10,
        }
    }

    /// Stable name for spans and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Join { .. } => "join",
            Message::Welcome { .. } => "welcome",
            Message::RoundStart { .. } => "round_start",
            Message::Upload { .. } => "upload",
            Message::Decline { .. } => "decline",
            Message::Heartbeat { .. } => "heartbeat",
            Message::Leave { .. } => "leave",
            Message::Shutdown => "shutdown",
        }
    }

    /// Model-parameter payload bytes this message carries (4 bytes per f32),
    /// the quantity [`crate::comm::CommStats`] accounts. Zero for control
    /// frames. Coded payloads report the **logical** (pre-codec) model bytes
    /// they stand for — identical to their dense reconstruction — so this
    /// accounting is invariant across compression modes; the actual encoded
    /// footprint surfaces via the `fl.comm.wire_bytes` counter and the
    /// `WireStats` payload bytes.
    pub fn model_bytes(&self) -> u64 {
        match self {
            Message::RoundStart { global, .. } => global.raw_bytes(),
            Message::Upload { update, .. } => update.model_bytes(),
            _ => 0,
        }
    }
}

/// Why a frame failed to decode. No variant is ever produced by panicking;
/// the decoder is total over arbitrary byte prefixes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Underlying socket error (includes read/write timeouts as
    /// `WouldBlock`/`TimedOut`).
    Io(std::io::ErrorKind),
    /// The frame does not start with [`MAGIC`].
    BadMagic(u32),
    /// Unknown message kind tag.
    UnknownKind(u8),
    /// Declared payload length exceeds the configured cap.
    Oversized { declared: u64, cap: u64 },
    /// The buffer ends before the declared frame does.
    Truncated { needed: usize, got: usize },
    /// Structurally invalid payload (bad flag byte, inner length overrun,
    /// non-UTF-8 string, trailing garbage...).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind) => write!(f, "socket error: {kind:?}"),
            WireError::BadMagic(got) => write!(f, "bad frame magic {got:#010x}"),
            WireError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            WireError::Oversized { declared, cap } => {
                write!(f, "frame declares {declared} payload bytes, cap is {cap}")
            }
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

impl WireError {
    /// True when the error is a read/write deadline expiry rather than a
    /// broken peer (`WouldBlock` on Unix, `TimedOut` on Windows).
    pub fn is_timeout(&self) -> bool {
        matches!(self, WireError::Io(std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut))
    }

    /// Map the failure onto the round-loop fault taxonomy: an oversized
    /// declaration becomes [`FaultKind::FrameOversized`], a timeout or
    /// disconnect becomes [`FaultKind::Dropout`] (the submission simply never
    /// arrived), and every other decode failure becomes
    /// [`FaultKind::FrameMalformed`].
    pub fn to_fault_kind(&self) -> FaultKind {
        match self {
            WireError::Oversized { declared, cap } => {
                FaultKind::FrameOversized { declared: *declared, cap: *cap }
            }
            WireError::Io(_) => FaultKind::Dropout,
            other => FaultKind::FrameMalformed { detail: other.to_string() },
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    put_u64(buf, xs.len() as u64);
    buf.reserve(xs.len() * 4);
    for x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_u32s(buf: &mut Vec<u8>, xs: &[u32]) {
    put_u64(buf, xs.len() as u64);
    for x in xs {
        put_u32(buf, *x);
    }
}

/// An optional field: a flag byte, then the value when present.
fn put_opt<T>(buf: &mut Vec<u8>, x: Option<T>, put: fn(&mut Vec<u8>, T)) {
    buf.push(u8::from(x.is_some()));
    if let Some(x) = x {
        put(buf, x);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Compression travels as `[tag u8][aux u64]`: tag 0 = none, 1 = bf16,
/// 2 = int8 (aux = block size), 3 = top-k (aux = `f64::to_bits(frac)`).
fn put_compression(buf: &mut Vec<u8>, c: Compression) {
    let (tag, aux): (u8, u64) = match c {
        Compression::None => (0, 0),
        Compression::Bf16 => (1, 0),
        Compression::Int8 { block } => (2, block as u64),
        Compression::TopK { frac } => (3, frac.to_bits()),
    };
    buf.push(tag);
    put_u64(buf, aux);
}

/// A dense blob is written untagged, `[count u64][count × f32]` — the
/// layout of the dense kinds 3/4. A coded blob carries a tag byte and no
/// inner length prefixes: every field's byte count derives from `raw_len`
/// (and `block`/`k`), so a decoder can length-check the whole payload
/// before building anything.
///
/// * tag 1 (bf16): `raw_len u32`, `raw_len × u16`.
/// * tag 2 (int8): `raw_len u32`, `block u32`, `ceil(raw_len/block) × f32`
///   scales, `raw_len × i8`.
/// * tag 3 (top-k): `raw_len u32`, `k u32`, presence bitmap of
///   `ceil(raw_len/8)` bytes (bit `i & 7` of byte `i >> 3` set ⇔ index `i`
///   selected; pad bits must be zero), `k × u16` bf16 values in ascending
///   index order.
fn put_blob(buf: &mut Vec<u8>, blob: &CompressedBlob) {
    match blob {
        CompressedBlob::Dense(xs) => put_f32s(buf, xs),
        CompressedBlob::Bf16 { raw_len, data } => {
            buf.push(1);
            put_u32(buf, *raw_len);
            buf.reserve(data.len() * 2);
            for h in data {
                buf.extend_from_slice(&h.to_le_bytes());
            }
        }
        CompressedBlob::Int8 { raw_len, block, scales, q } => {
            buf.push(2);
            put_u32(buf, *raw_len);
            put_u32(buf, *block);
            buf.reserve(scales.len() * 4 + q.len());
            for s in scales {
                buf.extend_from_slice(&s.to_le_bytes());
            }
            buf.extend(q.iter().map(|&b| b as u8));
        }
        CompressedBlob::TopK { raw_len, idx, val } => {
            buf.push(3);
            put_u32(buf, *raw_len);
            put_u32(buf, val.len() as u32);
            let mut bitmap = vec![0u8; (*raw_len as usize).div_ceil(8)];
            for &i in idx {
                bitmap[(i >> 3) as usize] |= 1 << (i & 7);
            }
            buf.extend_from_slice(&bitmap);
            buf.reserve(val.len() * 2);
            for v in val {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// `Upload` payload: `round u64`, `client_id u64`, `num_samples u64`, the
/// params vector, then the decoder vector and the class-coverage histogram,
/// each behind a flag byte. `put` writes both vectors, so one frame holds
/// one payload family.
fn put_upload<V>(
    buf: &mut Vec<u8>,
    round: u64,
    (client_id, num_samples): (usize, usize),
    (params, decoder): (V, Option<V>),
    coverage: Option<&[u32]>,
    put: fn(&mut Vec<u8>, V),
) {
    put_u64(buf, round);
    put_u64(buf, client_id as u64);
    put_u64(buf, num_samples as u64);
    put(buf, params);
    put_opt(buf, decoder, put);
    put_opt(buf, coverage, put_u32s);
}

/// One frame: the header, the payload `body` writes straight after it, and
/// the payload length patched in — the payload is written once, in place.
fn framed(kind: u8, payload_hint: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload_hint);
    put_u32(&mut out, MAGIC);
    out.push(kind);
    put_u32(&mut out, 0);
    body(&mut out);
    let len = (out.len() - HEADER_BYTES) as u32;
    out[5..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    out
}

/// Encode `msg` as one complete frame (header + payload). Panics on an
/// `Upload` whose decoder is of another payload family than its params.
pub fn encode(msg: &Message) -> Vec<u8> {
    let model_hint = match msg {
        Message::RoundStart { global, .. } => global.encoded_bytes(),
        Message::Upload { update, .. } => update.encoded_model_bytes(),
        _ => 0,
    };
    framed(msg.kind(), 64 + model_hint as usize, |buf| match msg {
        Message::Join { client_id, protocol } => {
            put_u64(buf, *client_id);
            put_u32(buf, *protocol);
        }
        Message::Welcome { param_len, compression, blob } => {
            put_u64(buf, *param_len);
            put_compression(buf, *compression);
            put_str(buf, blob);
        }
        Message::RoundStart { round, participate, global } => {
            put_u64(buf, *round);
            buf.push(u8::from(*participate));
            put_blob(buf, global);
        }
        Message::Upload { round, update } => {
            let dense = update.params.is_dense();
            assert!(
                update.decoder.as_ref().is_none_or(|d| d.is_dense() == dense),
                "an upload's decoder must share its params' payload family"
            );
            put_upload(
                buf,
                *round,
                (update.client_id, update.num_samples),
                (&update.params, update.decoder.as_ref()),
                update.class_coverage.as_deref(),
                put_blob,
            );
        }
        Message::Decline { round } => put_u64(buf, *round),
        Message::Heartbeat { client_id } | Message::Leave { client_id } => put_u64(buf, *client_id),
        Message::Shutdown => {}
    })
}

/// Encode a dense `RoundStart` frame (kind 3) straight from a borrowed
/// parameter slice — the server fans one global model out to `m` sessions
/// without copying it into an owned [`Message`]. Byte-identical to
/// [`encode`] of the same global as a [`CompressedBlob::Dense`].
pub fn encode_round_start(round: u64, participate: bool, global: &[f32]) -> Vec<u8> {
    framed(3, 17 + global.len() * 4, |buf| {
        put_u64(buf, round);
        buf.push(u8::from(participate));
        put_f32s(buf, global);
    })
}

/// Encode a dense `Upload` frame (kind 4) from a borrowed update (no copy
/// of the parameter vectors). Byte-identical to [`encode`] of the same
/// update with [`CompressedBlob::Dense`] params and decoder.
pub fn encode_upload(round: u64, update: &ModelUpdate) -> Vec<u8> {
    framed(4, 64 + update.wire_bytes() as usize, |buf| {
        put_upload(
            buf,
            round,
            (update.client_id, update.num_samples),
            (update.params.as_slice(), update.decoder.as_deref()),
            update.class_coverage.as_deref(),
            put_f32s,
        )
    })
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounded cursor over a payload slice; every take is length-checked.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(WireError::Truncated { needed: n, got: remaining });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// A `u64` that must fit the remaining payload when multiplied by
    /// `elem_bytes` — guards `Vec` preallocation against corrupt lengths.
    fn seq_len(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let declared = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if declared.saturating_mul(elem_bytes as u64) > remaining {
            return Err(WireError::Malformed("inner length overruns payload"));
        }
        Ok(declared as usize)
    }

    /// A `u64` count, then that many `N`-byte little-endian words.
    fn seq<const N: usize, T>(&mut self, from: impl Fn([u8; N]) -> T) -> Result<Vec<T>, WireError> {
        let len = self.seq_len(N)?;
        Ok(le_words(self.take(len * N)?, from))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.seq_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte not 0/1")),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

/// `bytes` as consecutive `N`-byte little-endian words.
fn le_words<const N: usize, T>(bytes: &[u8], from: impl Fn([u8; N]) -> T) -> Vec<T> {
    bytes.chunks_exact(N).map(|c| from(c.try_into().expect("N-byte chunk"))).collect()
}

fn read_compression(r: &mut Reader<'_>) -> Result<Compression, WireError> {
    let tag = r.u8()?;
    let aux = r.u64()?;
    match tag {
        0 => Ok(Compression::None),
        1 => Ok(Compression::Bf16),
        2 => {
            if aux == 0 || aux > u32::MAX as u64 {
                return Err(WireError::Malformed("int8 block size out of range"));
            }
            Ok(Compression::Int8 { block: aux as usize })
        }
        3 => {
            let frac = f64::from_bits(aux);
            if !frac.is_finite() || frac <= 0.0 || frac > 1.0 {
                return Err(WireError::Malformed("top-k fraction out of range"));
            }
            Ok(Compression::TopK { frac })
        }
        _ => Err(WireError::Malformed("unknown compression tag")),
    }
}

/// Decode one vector (layouts documented on `put_blob`): raw f32s in a
/// dense-kind frame, a tagged blob in a coded-kind one — so a decoded frame
/// holds one family. Every field's byte count derives from a leading length
/// field, and each is `take`n from the bounded payload before any `Vec` is
/// built — allocation is capped by bytes actually received, never by a
/// declared count.
fn read_blob(r: &mut Reader<'_>, dense: bool) -> Result<CompressedBlob, WireError> {
    if dense {
        return Ok(CompressedBlob::Dense(r.seq(f32::from_le_bytes)?));
    }
    match r.u8()? {
        1 => {
            let raw_len = r.u32()?;
            let data = le_words(r.take(raw_len as usize * 2)?, u16::from_le_bytes);
            Ok(CompressedBlob::Bf16 { raw_len, data })
        }
        2 => {
            let raw_len = r.u32()?;
            let block = r.u32()?;
            if block == 0 {
                return Err(WireError::Malformed("int8 block size out of range"));
            }
            let n_blocks = (raw_len as usize).div_ceil(block as usize);
            let scales = le_words(r.take(n_blocks * 4)?, f32::from_le_bytes);
            let q = r.take(raw_len as usize)?.iter().map(|&b| b as i8).collect();
            Ok(CompressedBlob::Int8 { raw_len, block, scales, q })
        }
        3 => {
            let raw_len = r.u32()?;
            let k = r.u32()?;
            if k > raw_len {
                return Err(WireError::Malformed("top-k count exceeds raw length"));
            }
            let bitmap = r.take((raw_len as usize).div_ceil(8))?;
            let val_bytes = r.take(k as usize * 2)?;
            let ones: u32 = bitmap.iter().map(|b| b.count_ones()).sum();
            if ones != k {
                return Err(WireError::Malformed("top-k bitmap popcount mismatch"));
            }
            if raw_len % 8 != 0 {
                let pad_mask = !0u8 << (raw_len % 8);
                if bitmap.last().is_some_and(|b| b & pad_mask != 0) {
                    return Err(WireError::Malformed("top-k bitmap pad bits set"));
                }
            }
            let mut idx = Vec::with_capacity(k as usize);
            for (byte_i, &b) in bitmap.iter().enumerate() {
                let mut bits = b;
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    idx.push(byte_i as u32 * 8 + bit);
                    bits &= bits - 1;
                }
            }
            let val = le_words(val_bytes, u16::from_le_bytes);
            Ok(CompressedBlob::TopK { raw_len, idx, val })
        }
        _ => Err(WireError::Malformed("unknown blob tag")),
    }
}

/// The `Upload` body after `round` (layout on `put_upload`).
fn read_update(r: &mut Reader<'_>, dense: bool) -> Result<CompressedUpdate, WireError> {
    let client_id = r.u64()? as usize;
    let num_samples = r.u64()? as usize;
    let params = read_blob(r, dense)?;
    let decoder = if r.flag()? { Some(read_blob(r, dense)?) } else { None };
    let class_coverage = if r.flag()? { Some(r.seq(u32::from_le_bytes)?) } else { None };
    Ok(CompressedUpdate { client_id, num_samples, params, decoder, class_coverage })
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(payload);
    let msg = match kind {
        1 => Message::Join { client_id: r.u64()?, protocol: r.u32()? },
        2 => Message::Welcome {
            param_len: r.u64()?,
            compression: read_compression(&mut r)?,
            blob: r.string()?,
        },
        3 | 10 => Message::RoundStart {
            round: r.u64()?,
            participate: r.flag()?,
            global: read_blob(&mut r, kind == 3)?,
        },
        4 | 9 => Message::Upload { round: r.u64()?, update: read_update(&mut r, kind == 4)? },
        5 => Message::Decline { round: r.u64()? },
        6 => Message::Heartbeat { client_id: r.u64()? },
        7 => Message::Leave { client_id: r.u64()? },
        8 => Message::Shutdown,
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Check a frame header's magic and length cap; returns the kind byte and
/// the declared payload length.
fn read_header(header: &[u8; HEADER_BYTES], cfg: &WireConfig) -> Result<(u8, usize), WireError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let declared = u32::from_le_bytes(header[5..9].try_into().unwrap());
    if declared > cfg.max_frame_bytes {
        return Err(WireError::Oversized {
            declared: declared as u64,
            cap: cfg.max_frame_bytes as u64,
        });
    }
    Ok((header[4], declared as usize))
}

/// Decode one frame from the front of `buf`. On success returns the message
/// and the number of bytes consumed. Total over arbitrary inputs: any input
/// either decodes or returns a typed error — never panics, never allocates
/// more than the declared (capped) payload.
pub fn decode(buf: &[u8], cfg: &WireConfig) -> Result<(Message, usize), WireError> {
    let Some(header) = buf.first_chunk::<HEADER_BYTES>() else {
        return Err(WireError::Truncated { needed: HEADER_BYTES, got: buf.len() });
    };
    let (kind, declared) = read_header(header, cfg)?;
    let total = HEADER_BYTES + declared;
    if buf.len() < total {
        return Err(WireError::Truncated { needed: total, got: buf.len() });
    }
    let msg = decode_payload(kind, &buf[HEADER_BYTES..total])?;
    Ok((msg, total))
}

/// Read exactly one frame from `r`. Returns the message and its total frame
/// bytes. A peer that closes the connection cleanly between frames surfaces
/// as `Io(UnexpectedEof)`; a close mid-frame the same way (the transport maps
/// both onto the fault taxonomy).
pub fn read_frame<R: Read>(r: &mut R, cfg: &WireConfig) -> Result<(Message, u64), WireError> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let (kind, declared) = read_header(&header, cfg)?;
    let mut payload = vec![0u8; declared];
    r.read_exact(&mut payload)?;
    let msg = decode_payload(kind, &payload)?;
    Ok((msg, (HEADER_BYTES + declared) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_update, compress_vec};

    fn sample_update(decoder: bool) -> ModelUpdate {
        ModelUpdate {
            client_id: 7,
            params: vec![1.5, -2.25, f32::MIN_POSITIVE, 0.0],
            num_samples: 120,
            decoder: decoder.then(|| vec![0.5, -0.5, 3.75]),
            class_coverage: decoder.then(|| vec![3, 0, 9]),
        }
    }

    /// `update` under the dense codec: the owned twin of `encode_upload`.
    fn dense(update: &ModelUpdate) -> CompressedUpdate {
        compress_update(Compression::None, update, &update.params)
    }

    fn sample_blobs() -> Vec<CompressedBlob> {
        let data: Vec<f32> = (0..300).map(|i| ((i * 37) % 101) as f32 * 0.013 - 0.65).collect();
        vec![
            compress_vec(Compression::Bf16, &data),
            compress_vec(Compression::Int8 { block: 64 }, &data),
            compress_vec(Compression::TopK { frac: 0.1 }, &data),
            // Edge: raw_len a multiple of 8 (no bitmap pad bits).
            compress_vec(Compression::TopK { frac: 0.5 }, &data[..16]),
        ]
    }

    fn sample_compressed_update(decoder: bool) -> CompressedUpdate {
        let params = compress_vec(Compression::TopK { frac: 0.2 }, &[0.0, 3.5, 0.0, -1.25, 0.0]);
        CompressedUpdate {
            client_id: 7,
            num_samples: 120,
            params,
            decoder: decoder.then(|| compress_vec(Compression::Bf16, &[0.5, -0.5, 3.75])),
            class_coverage: decoder.then(|| vec![3, 0, 9]),
        }
    }

    fn all_messages() -> Vec<Message> {
        let mut msgs = vec![
            Message::Join { client_id: 3, protocol: PROTOCOL_VERSION },
            Message::Welcome {
                param_len: 42,
                compression: Compression::None,
                blob: "{\"preset\":\"smoke\"}".to_string(),
            },
            Message::Welcome {
                param_len: 42,
                compression: Compression::Int8 { block: 65536 },
                blob: String::new(),
            },
            Message::Welcome {
                param_len: 42,
                compression: Compression::TopK { frac: 0.1 },
                blob: String::new(),
            },
            Message::RoundStart {
                round: 5,
                participate: true,
                global: CompressedBlob::Dense(vec![0.25, -1.0, 7.5]),
            },
            Message::RoundStart {
                round: 6,
                participate: false,
                global: CompressedBlob::Dense(Vec::new()),
            },
            Message::Upload { round: 5, update: dense(&sample_update(true)) },
            Message::Upload { round: 5, update: dense(&sample_update(false)) },
            Message::Decline { round: 9 },
            Message::Heartbeat { client_id: 3 },
            Message::Leave { client_id: 3 },
            Message::Shutdown,
            Message::Upload { round: 5, update: sample_compressed_update(true) },
            Message::Upload { round: 5, update: sample_compressed_update(false) },
        ];
        for (i, global) in sample_blobs().into_iter().enumerate() {
            msgs.push(Message::RoundStart {
                round: 11 + i as u64,
                participate: i % 2 == 0,
                global,
            });
        }
        msgs
    }

    #[test]
    fn every_message_round_trips_bitwise() {
        let cfg = WireConfig::default();
        for msg in all_messages() {
            let frame = encode(&msg);
            let (back, consumed) = decode(&frame, &cfg).expect("frame decodes");
            assert_eq!(back, msg);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn borrowed_encoders_match_the_owned_path() {
        let update = sample_update(true);
        assert_eq!(
            encode_upload(3, &update),
            encode(&Message::Upload { round: 3, update: dense(&update) })
        );
        let global = vec![1.0f32, -0.5, f32::MAX];
        assert_eq!(
            encode_round_start(9, false, &global),
            encode(&Message::RoundStart {
                round: 9,
                participate: false,
                global: CompressedBlob::Dense(global.clone())
            })
        );
    }

    #[test]
    #[should_panic(expected = "payload family")]
    fn an_upload_mixing_payload_families_has_no_encoding() {
        let mut update = dense(&sample_update(true));
        update.decoder = Some(compress_vec(Compression::Bf16, &[0.5, -0.5, 3.75]));
        encode(&Message::Upload { round: 1, update });
    }

    #[test]
    fn nan_parameters_survive_the_wire_bit_for_bit() {
        let mut update = sample_update(false);
        update.params = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let (back, _) = decode(&encode_upload(0, &update), &WireConfig::default()).unwrap();
        let Message::Upload { update: u, .. } = back else { panic!("upload") };
        let CompressedBlob::Dense(params) = u.params else { panic!("dense params") };
        let bits: Vec<u32> = params.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            bits,
            vec![
                f32::NAN.to_bits(),
                f32::INFINITY.to_bits(),
                f32::NEG_INFINITY.to_bits(),
                (-0.0f32).to_bits()
            ]
        );
    }

    #[test]
    fn model_bytes_match_comm_accounting() {
        // Upload: exactly ModelUpdate::wire_bytes (params + decoder, 4 B/f32).
        let update = sample_update(true);
        let msg = Message::Upload { round: 1, update: dense(&update) };
        assert_eq!(msg.model_bytes(), update.wire_bytes());
        assert_eq!(msg.model_bytes(), (4 + 3) * 4);
        // RoundStart: the global model distribution, 4 B/f32.
        let global = CompressedBlob::Dense(vec![0.0f32; 11]);
        let msg = Message::RoundStart { round: 0, participate: true, global };
        assert_eq!(msg.model_bytes(), 44);
        // Control frames carry no model payload.
        assert_eq!(Message::Heartbeat { client_id: 0 }.model_bytes(), 0);
        assert_eq!(Message::Shutdown.model_bytes(), 0);
        // Coded payloads report the LOGICAL model bytes they stand for —
        // identical to their dense reconstruction — keeping CommStats
        // accounting invariant across compression modes.
        let cu = sample_compressed_update(true);
        let msg = Message::Upload { round: 1, update: cu.clone() };
        assert_eq!(msg.model_bytes(), (5 + 3) * 4);
        assert_eq!(msg.model_bytes(), cu.model_bytes());
        let global = compress_vec(Compression::Bf16, &[0.0; 11]);
        let msg = Message::RoundStart { round: 0, participate: true, global };
        assert_eq!(msg.model_bytes(), 44);
    }

    #[test]
    fn compressed_frames_are_smaller_than_their_logical_bytes() {
        // The whole point: the encoded frame (header + ids + blob) undercuts
        // the 4 B/f32 logical payload it stands for once vectors are
        // non-trivial.
        let data: Vec<f32> = (0..100_000).map(|i| (i as f32).sin()).collect();
        for mode in
            [Compression::Bf16, Compression::Int8 { block: 65536 }, Compression::TopK { frac: 0.1 }]
        {
            let global = compress_vec(mode, &data);
            let frame = encode(&Message::RoundStart { round: 0, participate: true, global });
            let logical = data.len() as u64 * 4;
            assert!(
                (frame.len() as u64) < logical / 19 * 10,
                "{:?}: frame {} vs logical {}",
                mode,
                frame.len(),
                logical
            );
        }
    }

    #[test]
    fn malformed_compressed_payloads_error_cleanly() {
        let cfg = WireConfig::default();
        let global = compress_vec(Compression::TopK { frac: 0.5 }, &[1.0, 0.0, 3.0]);
        let good = encode(&Message::RoundStart { round: 0, participate: true, global });
        // Payload layout: round u64, participate u8, then the blob.
        let payload_at = |off: usize| HEADER_BYTES + 8 + 1 + off;
        let bitmap_pos = payload_at(1 + 4 + 4);

        // Keep popcount == k but set a pad bit (raw_len = 3, so bits 3..8 of
        // byte 0 are pad): bits {0, 6} instead of the selected {0, 2}.
        let mut frame = good.clone();
        frame[bitmap_pos] = 0b0100_0001;
        assert!(matches!(decode(&frame, &cfg), Err(WireError::Malformed(m)) if m.contains("pad")));

        // Clear a selected bit: popcount no longer matches k.
        let mut frame = good.clone();
        frame[bitmap_pos] &= !1;
        assert!(
            matches!(decode(&frame, &cfg), Err(WireError::Malformed(m)) if m.contains("popcount"))
        );

        // k > raw_len.
        let mut frame = good.clone();
        let k_pos = payload_at(1 + 4);
        frame[k_pos..k_pos + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(
            matches!(decode(&frame, &cfg), Err(WireError::Malformed(m)) if m.contains("exceeds"))
        );

        // Unknown blob tag.
        let mut frame = good.clone();
        frame[payload_at(0)] = 77;
        assert_eq!(decode(&frame, &cfg), Err(WireError::Malformed("unknown blob tag")));

        // Int8 blob with block = 0.
        let frame = framed(10, 0, |buf| {
            put_u64(buf, 0);
            buf.push(1);
            buf.push(2); // int8 tag
            put_u32(buf, 8); // raw_len
            put_u32(buf, 0); // block: invalid
        });
        assert_eq!(decode(&frame, &cfg), Err(WireError::Malformed("int8 block size out of range")));
    }

    #[test]
    fn welcome_compression_field_is_validated() {
        let cfg = WireConfig::default();
        let base = Message::Welcome {
            param_len: 7,
            compression: Compression::TopK { frac: 0.25 },
            blob: String::new(),
        };
        let good = encode(&base);
        let tag_pos = HEADER_BYTES + 8;

        let mut frame = good.clone();
        frame[tag_pos] = 9;
        assert_eq!(decode(&frame, &cfg), Err(WireError::Malformed("unknown compression tag")));

        // top-k fraction outside (0, 1].
        for bad in [0.0f64, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let mut frame = good.clone();
            frame[tag_pos + 1..tag_pos + 9].copy_from_slice(&bad.to_bits().to_le_bytes());
            assert_eq!(
                decode(&frame, &cfg),
                Err(WireError::Malformed("top-k fraction out of range")),
                "frac {bad}"
            );
        }

        // int8 with a zero block.
        let mut frame = good.clone();
        frame[tag_pos] = 2;
        frame[tag_pos + 1..tag_pos + 9].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(decode(&frame, &cfg), Err(WireError::Malformed("int8 block size out of range")));
    }

    #[test]
    fn frame_overhead_is_header_plus_fixed_fields() {
        // The non-model bytes of an Upload are the header, round, ids,
        // lengths, flags and the coverage histogram — everything CommStats
        // does not count.
        let update = sample_update(true);
        let frame = encode_upload(1, &update);
        let fixed = HEADER_BYTES as u64 // frame header
            + 8  // round
            + 8  // client_id
            + 8  // num_samples
            + 8  // params len
            + 1 + 8 // decoder flag + len
            + 1 + 8 // coverage flag + len
            + update.class_coverage.as_ref().unwrap().len() as u64 * 4;
        assert_eq!(frame.len() as u64, fixed + update.wire_bytes());
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut frame = encode(&Message::Shutdown);
        // Rewrite the payload length to something enormous.
        frame[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let cfg = WireConfig::default();
        assert_eq!(
            decode(&frame, &cfg),
            Err(WireError::Oversized {
                declared: u32::MAX as u64,
                cap: cfg.max_frame_bytes as u64
            })
        );
        // A tighter cap rejects an otherwise-valid frame.
        let big = encode_round_start(0, true, &[0.0; 100]);
        let tiny = WireConfig { max_frame_bytes: 16 };
        assert!(matches!(decode(&big, &tiny), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn truncated_prefixes_error_cleanly() {
        let frame = encode_upload(2, &sample_update(true));
        for cut in 0..frame.len() {
            let err = decode(&frame[..cut], &WireConfig::default())
                .expect_err("prefix must not decode as a whole frame");
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_unknown_kind_and_trailing_bytes_are_malformed() {
        let cfg = WireConfig::default();
        let mut frame = encode(&Message::Shutdown);
        frame[0] ^= 0xFF;
        assert!(matches!(decode(&frame, &cfg), Err(WireError::BadMagic(_))));

        let mut frame = encode(&Message::Shutdown);
        frame[4] = 200;
        assert_eq!(decode(&frame, &cfg), Err(WireError::UnknownKind(200)));

        // Declare one extra payload byte and append it: trailing garbage.
        let mut frame = encode(&Message::Decline { round: 3 });
        let len = u32::from_le_bytes(frame[5..9].try_into().unwrap());
        frame[5..9].copy_from_slice(&(len + 1).to_le_bytes());
        frame.push(0xAB);
        assert_eq!(decode(&frame, &cfg), Err(WireError::Malformed("trailing bytes after payload")));
    }

    #[test]
    fn inner_length_overrun_is_malformed_not_oom() {
        // A RoundStart whose f32 count claims more elements than the payload
        // holds must fail without attempting the huge allocation.
        let mut payload = Vec::new();
        put_u64(&mut payload, 0); // round
        payload.push(1); // participate
        put_u64(&mut payload, u64::MAX / 8); // absurd element count
        let mut frame = Vec::new();
        put_u32(&mut frame, MAGIC);
        frame.push(3);
        put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(&payload);
        assert_eq!(
            decode(&frame, &WireConfig::default()),
            Err(WireError::Malformed("inner length overruns payload"))
        );
    }

    #[test]
    fn stream_round_trip_and_eof_mapping() {
        let cfg = WireConfig::default();
        let messages = all_messages();
        let buf: Vec<u8> = messages.iter().flat_map(encode).collect();
        let mut cursor = &buf[..];
        for m in &messages {
            let (back, _) = read_frame(&mut cursor, &cfg).unwrap();
            assert_eq!(&back, m);
        }
        // Clean EOF between frames surfaces as an Io error, mapped to Dropout.
        let err = read_frame(&mut cursor, &cfg).unwrap_err();
        assert_eq!(err, WireError::Io(std::io::ErrorKind::UnexpectedEof));
        assert_eq!(err.to_fault_kind(), FaultKind::Dropout);
    }

    #[test]
    fn wire_errors_map_onto_the_fault_taxonomy() {
        assert_eq!(
            WireError::Oversized { declared: 99, cap: 10 }.to_fault_kind(),
            FaultKind::FrameOversized { declared: 99, cap: 10 }
        );
        assert!(matches!(WireError::BadMagic(7).to_fault_kind(), FaultKind::FrameMalformed { .. }));
        assert!(matches!(
            WireError::Malformed("x").to_fault_kind(),
            FaultKind::FrameMalformed { .. }
        ));
        assert_eq!(
            WireError::Io(std::io::ErrorKind::WouldBlock).to_fault_kind(),
            FaultKind::Dropout
        );
        assert!(WireError::Io(std::io::ErrorKind::WouldBlock).is_timeout());
        assert!(!WireError::BadMagic(0).is_timeout());
    }
}
