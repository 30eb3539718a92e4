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
//! ## Streaming
//!
//! Frames stream. [`write_frame`] sizes the payload, then writes the header
//! and every field to any `io::Write` through one 64 KiB stack chunk,
//! straight from the borrowed model vectors a [`Frame`] names.
//! [`read_frame`] reads from any `io::Read` straight into each decoded
//! vector, allocated at its exact length once the declared payload is known
//! to hold it. No buffer the size of a frame exists on either side of a
//! socket. [`encode`] and [`decode`] are the in-memory case: a `Vec`
//! written by the same writer, a slice read by the same reader.
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
use std::io::{self, Read, Write};

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

/// Bytes the writer and the reader convert at a time: one stack buffer
/// each, whatever the size of the frame.
const CHUNK: usize = 64 << 10;

/// A frame to write, its model vectors borrowed from wherever they live.
#[derive(Clone, Copy, Debug)]
pub enum Frame<'a> {
    /// Any message.
    Message(&'a Message),
    /// A `RoundStart` of a borrowed global: the server writes every
    /// session's work order from the one round model, dense or coded.
    RoundStart { round: u64, participate: bool, global: BlobRef<'a> },
    /// A dense `Upload` (kind 4) of a borrowed update: a client writes its
    /// trained vectors as they are.
    Upload { round: u64, update: &'a ModelUpdate },
}

/// A borrowed model vector: raw f32s (the dense kinds) or a blob.
#[derive(Clone, Copy, Debug)]
pub enum BlobRef<'a> {
    Dense(&'a [f32]),
    Coded(&'a CompressedBlob),
}

impl<'a> From<&'a CompressedBlob> for BlobRef<'a> {
    fn from(blob: &'a CompressedBlob) -> Self {
        match blob {
            CompressedBlob::Dense(values) => BlobRef::Dense(values),
            coded => BlobRef::Coded(coded),
        }
    }
}

impl BlobRef<'_> {
    fn is_dense(self) -> bool {
        matches!(self, BlobRef::Dense(_) | BlobRef::Coded(CompressedBlob::Dense(_)))
    }
}

impl Frame<'_> {
    /// Wire kind tag, as [`Message::kind`].
    fn kind(&self) -> u8 {
        match self {
            Frame::Message(msg) => msg.kind(),
            Frame::RoundStart { global, .. } if global.is_dense() => 3,
            Frame::RoundStart { .. } => 10,
            Frame::Upload { .. } => 4,
        }
    }

    /// Write the payload's fields to `p`. Sizing and sending walk this one
    /// function, so the length a header declares is the length that follows.
    fn put<P: Put>(&self, p: &mut P) -> io::Result<()> {
        match *self {
            Frame::Message(msg) => put_message(p, msg),
            Frame::RoundStart { round, participate, global } => {
                put_round_start(p, round, participate, global)
            }
            Frame::Upload { round, update } => put_upload(
                p,
                round,
                (update.client_id, update.num_samples),
                (BlobRef::Dense(&update.params), update.decoder.as_deref().map(BlobRef::Dense)),
                update.class_coverage.as_deref(),
            ),
        }
    }

    /// Payload bytes, from a sizing pass.
    fn payload_len(&self) -> u64 {
        let mut count = Count(0);
        self.put(&mut count).expect("sizing writes nothing");
        count.0
    }
}

/// Where a payload's fields go: [`Count`] sizes the payload, [`Chunked`]
/// sends it.
trait Put {
    /// `count` consecutive `N`-byte words, which `fill` writes a run at a
    /// time, in order. A sizing pass does not call `fill`.
    fn words<const N: usize>(
        &mut self,
        count: usize,
        fill: impl FnMut(&mut [[u8; N]]),
    ) -> io::Result<()>;

    fn u8(&mut self, x: u8) -> io::Result<()> {
        self.words(1, |w| w[0] = [x])
    }

    fn u32(&mut self, x: u32) -> io::Result<()> {
        self.words(1, |w| w[0] = x.to_le_bytes())
    }

    fn u64(&mut self, x: u64) -> io::Result<()> {
        self.words(1, |w| w[0] = x.to_le_bytes())
    }

    /// `xs` as little-endian words, converted where they land.
    fn slice<const N: usize, T: Copy>(
        &mut self,
        xs: &[T],
        le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        let mut rest = xs;
        self.words(xs.len(), |run| {
            let (now, later) = rest.split_at(run.len());
            run.iter_mut().zip(now).for_each(|(w, &x)| *w = le(x));
            rest = later;
        })
    }

    /// A `u64` count, then `xs`.
    fn seq<const N: usize, T: Copy>(
        &mut self,
        xs: &[T],
        le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        self.u64(xs.len() as u64)?;
        self.slice(xs, le)
    }
}

/// The sizing pass: adds up the bytes, converts nothing.
struct Count(u64);

impl Put for Count {
    fn words<const N: usize>(
        &mut self,
        count: usize,
        _: impl FnMut(&mut [[u8; N]]),
    ) -> io::Result<()> {
        self.0 += (count * N) as u64;
        Ok(())
    }
}

/// The sending pass: fields are converted into one stack chunk, which goes
/// to `w` each time it fills.
struct Chunked<'a, W> {
    w: &'a mut W,
    chunk: &'a mut [u8; CHUNK],
    len: usize,
    sent: u64,
}

impl<W: Write> Chunked<'_, W> {
    fn send(&mut self) -> io::Result<()> {
        self.w.write_all(&self.chunk[..self.len])?;
        self.sent += self.len as u64;
        self.len = 0;
        Ok(())
    }
}

impl<W: Write> Put for Chunked<'_, W> {
    fn words<const N: usize>(
        &mut self,
        mut count: usize,
        mut fill: impl FnMut(&mut [[u8; N]]),
    ) -> io::Result<()> {
        while count > 0 {
            if CHUNK - self.len < N {
                self.send()?;
            }
            let n = count.min((CHUNK - self.len) / N);
            fill(self.chunk[self.len..self.len + n * N].as_chunks_mut().0);
            self.len += n * N;
            count -= n;
        }
        Ok(())
    }
}

/// An optional field: a flag byte, then the value when present.
fn put_opt<P: Put, T>(
    p: &mut P,
    x: Option<T>,
    put: impl FnOnce(&mut P, T) -> io::Result<()>,
) -> io::Result<()> {
    p.u8(u8::from(x.is_some()))?;
    x.map_or(Ok(()), |x| put(p, x))
}

/// Compression travels as `[tag u8][aux u64]`: tag 0 = none, 1 = bf16,
/// 2 = int8 (aux = block size), 3 = top-k (aux = `f64::to_bits(frac)`).
fn put_compression<P: Put>(p: &mut P, c: Compression) -> io::Result<()> {
    let (tag, aux): (u8, u64) = match c {
        Compression::None => (0, 0),
        Compression::Bf16 => (1, 0),
        Compression::Int8 { block } => (2, block as u64),
        Compression::TopK { frac } => (3, frac.to_bits()),
    };
    p.u8(tag)?;
    p.u64(aux)
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
fn put_blob<P: Put>(p: &mut P, blob: BlobRef<'_>) -> io::Result<()> {
    let coded = match blob {
        BlobRef::Dense(xs) => return p.seq(xs, f32::to_le_bytes),
        BlobRef::Coded(coded) => coded,
    };
    match coded {
        CompressedBlob::Dense(xs) => p.seq(xs, f32::to_le_bytes),
        CompressedBlob::Bf16 { raw_len, data } => {
            p.u8(1)?;
            p.u32(*raw_len)?;
            p.slice(data, u16::to_le_bytes)
        }
        CompressedBlob::Int8 { raw_len, block, scales, q } => {
            p.u8(2)?;
            p.u32(*raw_len)?;
            p.u32(*block)?;
            p.slice(scales, f32::to_le_bytes)?;
            p.slice(q, |b| [b as u8])
        }
        CompressedBlob::TopK { raw_len, idx, val } => {
            p.u8(3)?;
            p.u32(*raw_len)?;
            p.u32(val.len() as u32)?;
            debug_assert!(
                idx.windows(2).all(|w| w[0] < w[1]) && idx.last().is_none_or(|&i| i < *raw_len),
                "top-k indices ascend below raw_len"
            );
            // The bitmap is built a run at a time from the ascending indices.
            let mut selected = idx.iter().copied().peekable();
            let mut byte = 0u32;
            p.words((*raw_len as usize).div_ceil(8), |run| {
                for w in run {
                    let mut bits = 0u8;
                    while let Some(i) = selected.next_if(|&i| i >> 3 == byte) {
                        bits |= 1 << (i & 7);
                    }
                    *w = [bits];
                    byte += 1;
                }
            })?;
            p.slice(val, u16::to_le_bytes)
        }
    }
}

fn put_round_start<P: Put>(
    p: &mut P,
    round: u64,
    participate: bool,
    global: BlobRef<'_>,
) -> io::Result<()> {
    p.u64(round)?;
    p.u8(u8::from(participate))?;
    put_blob(p, global)
}

/// `Upload` payload: `round u64`, `client_id u64`, `num_samples u64`, the
/// params vector, then the decoder vector and the class-coverage histogram,
/// each behind a flag byte.
fn put_upload<P: Put>(
    p: &mut P,
    round: u64,
    (client_id, num_samples): (usize, usize),
    (params, decoder): (BlobRef<'_>, Option<BlobRef<'_>>),
    coverage: Option<&[u32]>,
) -> io::Result<()> {
    p.u64(round)?;
    p.u64(client_id as u64)?;
    p.u64(num_samples as u64)?;
    put_blob(p, params)?;
    put_opt(p, decoder, put_blob)?;
    put_opt(p, coverage, |p, coverage| p.seq(coverage, u32::to_le_bytes))
}

fn put_message<P: Put>(p: &mut P, msg: &Message) -> io::Result<()> {
    match msg {
        Message::Join { client_id, protocol } => {
            p.u64(*client_id)?;
            p.u32(*protocol)
        }
        Message::Welcome { param_len, compression, blob } => {
            p.u64(*param_len)?;
            put_compression(p, *compression)?;
            p.seq(blob.as_bytes(), |b| [b])
        }
        Message::RoundStart { round, participate, global } => {
            put_round_start(p, *round, *participate, global.into())
        }
        Message::Upload { round, update } => {
            let dense = update.params.is_dense();
            assert!(
                update.decoder.as_ref().is_none_or(|d| d.is_dense() == dense),
                "an upload's decoder must share its params' payload family"
            );
            put_upload(
                p,
                *round,
                (update.client_id, update.num_samples),
                ((&update.params).into(), update.decoder.as_ref().map(BlobRef::from)),
                update.class_coverage.as_deref(),
            )
        }
        Message::Decline { round } => p.u64(*round),
        Message::Heartbeat { client_id } | Message::Leave { client_id } => p.u64(*client_id),
        Message::Shutdown => Ok(()),
    }
}

/// Stream one frame to `w`. The payload is sized first; the header and
/// every field then go out through one stack chunk, the header in the first
/// write. Returns the frame bytes written. Panics, before writing, on an
/// `Upload` whose decoder is of another payload family than its params.
pub fn write_frame<W: Write>(w: &mut W, frame: Frame<'_>) -> io::Result<u64> {
    let payload = frame.payload_len();
    let declared = u32::try_from(payload).expect("a frame payload fits its u32 length field");
    let mut chunk = [0u8; CHUNK];
    let mut out = Chunked { w, chunk: &mut chunk, len: 0, sent: 0 };
    out.u32(MAGIC)?;
    out.u8(frame.kind())?;
    out.u32(declared)?;
    frame.put(&mut out)?;
    out.send()?;
    out.w.flush()?;
    assert_eq!(out.sent, HEADER_BYTES as u64 + payload, "a frame is as long as its header says");
    Ok(out.sent)
}

/// A frame in memory: [`write_frame`] into a `Vec` of its exact length.
fn to_vec(frame: Frame<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + frame.payload_len() as usize);
    write_frame(&mut out, frame).expect("a Vec takes every write");
    out
}

/// Encode `msg` as one complete frame (header + payload). Panics on an
/// `Upload` whose decoder is of another payload family than its params.
pub fn encode(msg: &Message) -> Vec<u8> {
    to_vec(Frame::Message(msg))
}

/// Encode a dense `RoundStart` frame (kind 3) straight from a borrowed
/// parameter slice. Byte-identical to [`encode`] of the same global as a
/// [`CompressedBlob::Dense`].
pub fn encode_round_start(round: u64, participate: bool, global: &[f32]) -> Vec<u8> {
    to_vec(Frame::RoundStart { round, participate, global: BlobRef::Dense(global) })
}

/// Encode a dense `Upload` frame (kind 4) from a borrowed update (no copy
/// of the parameter vectors). Byte-identical to [`encode`] of the same
/// update with [`CompressedBlob::Dense`] params and decoder.
pub fn encode_upload(round: u64, update: &ModelUpdate) -> Vec<u8> {
    to_vec(Frame::Upload { round, update })
}

/// Hand-built frames for the tests below.
#[cfg(test)]
fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

#[cfg(test)]
fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// The header, the payload `body` writes, and the payload length patched in.
#[cfg(test)]
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

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// One frame's payload as it streams in from `r`: every read is checked
/// against the bytes the header declared still to come.
struct Payload<'a, R> {
    r: &'a mut R,
    left: usize,
}

impl<R: Read> Payload<'_, R> {
    /// Fails unless `n` more bytes fit the declared payload.
    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.left < n {
            return Err(WireError::Truncated { needed: n, got: self.left });
        }
        Ok(())
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<(), WireError> {
        self.need(buf.len())?;
        self.r.read_exact(buf)?;
        self.left -= buf.len();
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut bytes = [0; N];
        self.fill(&mut bytes)?;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` that must fit the remaining payload when multiplied by
    /// `elem_bytes` — guards `Vec` preallocation against corrupt lengths.
    fn seq_len(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let declared = self.u64()?;
        if declared.saturating_mul(elem_bytes as u64) > self.left as u64 {
            return Err(WireError::Malformed("inner length overruns payload"));
        }
        Ok(declared as usize)
    }

    /// `n` payload bytes, handed to `f` a chunk at a time.
    fn chunks(&mut self, n: usize, mut f: impl FnMut(&[u8])) -> Result<(), WireError> {
        self.need(n)?;
        let mut chunk = [0u8; CHUNK];
        let mut rest = n;
        while rest > 0 {
            let part = &mut chunk[..rest.min(CHUNK)];
            self.fill(part)?;
            f(part);
            rest -= part.len();
        }
        Ok(())
    }

    /// `count` little-endian `N`-byte words, read into a vector allocated at
    /// its exact length once the payload is known to hold them.
    fn words<const N: usize, T>(
        &mut self,
        count: usize,
        from: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, WireError> {
        self.need(count * N)?;
        let mut out = Vec::with_capacity(count);
        self.chunks(count * N, |bytes| out.extend(bytes.as_chunks().0.iter().map(|&w| from(w))))?;
        Ok(out)
    }

    /// A `u64` count, then that many `N`-byte little-endian words.
    fn seq<const N: usize, T>(&mut self, from: impl Fn([u8; N]) -> T) -> Result<Vec<T>, WireError> {
        let len = self.seq_len(N)?;
        self.words(len, from)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let bytes = self.seq(|[b]: [u8; 1]| b)?;
        String::from_utf8(bytes).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte not 0/1")),
        }
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.left == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }

    /// Read past the rest of the payload, leaving the stream at the next
    /// frame.
    fn skip(&mut self) -> Result<(), WireError> {
        let left = self.left as u64;
        if io::copy(&mut self.r.by_ref().take(left), &mut io::sink())? < left {
            return Err(WireError::Io(io::ErrorKind::UnexpectedEof));
        }
        self.left = 0;
        Ok(())
    }
}

fn read_compression<R: Read>(p: &mut Payload<'_, R>) -> Result<Compression, WireError> {
    let tag = p.u8()?;
    let aux = p.u64()?;
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
/// field and is checked against the declared payload before any `Vec` is
/// built — allocation is capped by the payload's declared (and capped)
/// length, never by a count inside it.
fn read_blob<R: Read>(p: &mut Payload<'_, R>, dense: bool) -> Result<CompressedBlob, WireError> {
    if dense {
        return Ok(CompressedBlob::Dense(p.seq(f32::from_le_bytes)?));
    }
    match p.u8()? {
        1 => {
            let raw_len = p.u32()?;
            let data = p.words(raw_len as usize, u16::from_le_bytes)?;
            Ok(CompressedBlob::Bf16 { raw_len, data })
        }
        2 => {
            let raw_len = p.u32()?;
            let block = p.u32()?;
            if block == 0 {
                return Err(WireError::Malformed("int8 block size out of range"));
            }
            let n_blocks = (raw_len as usize).div_ceil(block as usize);
            let scales = p.words(n_blocks, f32::from_le_bytes)?;
            let q = p.words(raw_len as usize, |[b]: [u8; 1]| b as i8)?;
            Ok(CompressedBlob::Int8 { raw_len, block, scales, q })
        }
        3 => {
            let raw_len = p.u32()?;
            let k = p.u32()?;
            if k > raw_len {
                return Err(WireError::Malformed("top-k count exceeds raw length"));
            }
            // Both fields must fit before the bitmap is checked.
            let bitmap_len = (raw_len as usize).div_ceil(8);
            p.need(bitmap_len)?;
            let after_bitmap = p.left - bitmap_len;
            if after_bitmap < k as usize * 2 {
                return Err(WireError::Truncated { needed: k as usize * 2, got: after_bitmap });
            }
            let mut idx = Vec::with_capacity(k as usize);
            let (mut ones, mut at, mut last) = (0u64, 0u64, 0u8);
            p.chunks(bitmap_len, |bytes| {
                for &b in bytes {
                    ones += b.count_ones() as u64;
                    if ones <= k as u64 {
                        let mut bits = b;
                        while bits != 0 {
                            idx.push((at + bits.trailing_zeros() as u64) as u32);
                            bits &= bits - 1;
                        }
                    }
                    (at, last) = (at + 8, b);
                }
            })?;
            if ones != k as u64 {
                return Err(WireError::Malformed("top-k bitmap popcount mismatch"));
            }
            if raw_len % 8 != 0 && last & (!0u8 << (raw_len % 8)) != 0 {
                return Err(WireError::Malformed("top-k bitmap pad bits set"));
            }
            let val = p.words(k as usize, u16::from_le_bytes)?;
            Ok(CompressedBlob::TopK { raw_len, idx, val })
        }
        _ => Err(WireError::Malformed("unknown blob tag")),
    }
}

/// The `Upload` body after `round` (layout on `put_upload`).
fn read_update<R: Read>(
    p: &mut Payload<'_, R>,
    dense: bool,
) -> Result<CompressedUpdate, WireError> {
    let client_id = p.u64()? as usize;
    let num_samples = p.u64()? as usize;
    let params = read_blob(p, dense)?;
    let decoder = if p.flag()? { Some(read_blob(p, dense)?) } else { None };
    let class_coverage = if p.flag()? { Some(p.seq(u32::from_le_bytes)?) } else { None };
    Ok(CompressedUpdate { client_id, num_samples, params, decoder, class_coverage })
}

fn read_payload<R: Read>(kind: u8, p: &mut Payload<'_, R>) -> Result<Message, WireError> {
    let msg = match kind {
        1 => Message::Join { client_id: p.u64()?, protocol: p.u32()? },
        2 => Message::Welcome {
            param_len: p.u64()?,
            compression: read_compression(p)?,
            blob: p.string()?,
        },
        3 | 10 => Message::RoundStart {
            round: p.u64()?,
            participate: p.flag()?,
            global: read_blob(p, kind == 3)?,
        },
        4 | 9 => Message::Upload { round: p.u64()?, update: read_update(p, kind == 4)? },
        5 => Message::Decline { round: p.u64()? },
        6 => Message::Heartbeat { client_id: p.u64()? },
        7 => Message::Leave { client_id: p.u64()? },
        8 => Message::Shutdown,
        other => return Err(WireError::UnknownKind(other)),
    };
    p.finish()?;
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
    let mut payload = &buf[HEADER_BYTES..total];
    let msg = read_payload(kind, &mut Payload { r: &mut payload, left: declared })?;
    Ok((msg, total))
}

/// Read exactly one frame from `r`, each model vector straight into its
/// decoded `Vec`. Returns the message and its total frame bytes. A payload
/// that fails to decode is first read to its declared end, so the stream
/// stays at a frame boundary. A peer that closes the connection cleanly
/// between frames surfaces as `Io(UnexpectedEof)`; a close mid-frame the
/// same way (the transport maps both onto the fault taxonomy).
pub fn read_frame<R: Read>(r: &mut R, cfg: &WireConfig) -> Result<(Message, u64), WireError> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let (kind, declared) = read_header(&header, cfg)?;
    let mut payload = Payload { r, left: declared };
    match read_payload(kind, &mut payload) {
        Ok(msg) => Ok((msg, (HEADER_BYTES + declared) as u64)),
        Err(e @ WireError::Io(_)) => Err(e),
        Err(e) => {
            payload.skip()?;
            Err(e)
        }
    }
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

    /// Hands out 1–7 bytes per `read`, cycling: every field and chunk of a
    /// frame straddles reads.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.step = self.step % 7 + 1;
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Messages whose vectors span several writer and reader chunks, at
    /// lengths that put words across chunk boundaries.
    fn large_messages() -> Vec<Message> {
        let data: Vec<f32> =
            (0..150_001).map(|i| ((i * 7919) % 1013) as f32 * 0.01 - 5.0).collect();
        let update = ModelUpdate {
            client_id: 2,
            params: data[..70_001].to_vec(),
            num_samples: 9,
            decoder: Some(data[..20_003].to_vec()),
            class_coverage: Some(vec![7; 10]),
        };
        let mut msgs = vec![
            Message::Upload { round: 4, update: dense(&update) },
            Message::Upload {
                round: 4,
                update: compress_update(
                    Compression::Int8 { block: 4_099 },
                    &update,
                    &data[1..70_002],
                ),
            },
            Message::Welcome {
                param_len: 1,
                compression: Compression::None,
                blob: "x".repeat(70_000),
            },
        ];
        for mode in [
            Compression::None,
            Compression::Bf16,
            Compression::Int8 { block: 1_000 },
            Compression::TopK { frac: 0.3 },
        ] {
            let global = compress_vec(mode, &data);
            msgs.push(Message::RoundStart { round: 8, participate: true, global });
        }
        msgs
    }

    /// The frame bytes laid out field by field — the layout `put_blob` and
    /// `put_upload` document, the top-k bitmap set by random access.
    fn oracle(msg: &Message) -> Vec<u8> {
        fn blob(buf: &mut Vec<u8>, blob: &CompressedBlob) {
            match blob {
                CompressedBlob::Dense(xs) => {
                    put_u64(buf, xs.len() as u64);
                    xs.iter().for_each(|x| buf.extend_from_slice(&x.to_le_bytes()));
                }
                CompressedBlob::Bf16 { raw_len, data } => {
                    buf.push(1);
                    put_u32(buf, *raw_len);
                    data.iter().for_each(|h| buf.extend_from_slice(&h.to_le_bytes()));
                }
                CompressedBlob::Int8 { raw_len, block, scales, q } => {
                    buf.push(2);
                    put_u32(buf, *raw_len);
                    put_u32(buf, *block);
                    scales.iter().for_each(|s| buf.extend_from_slice(&s.to_le_bytes()));
                    buf.extend(q.iter().map(|&b| b as u8));
                }
                CompressedBlob::TopK { raw_len, idx, val } => {
                    buf.push(3);
                    put_u32(buf, *raw_len);
                    put_u32(buf, val.len() as u32);
                    let mut bitmap = vec![0u8; (*raw_len as usize).div_ceil(8)];
                    idx.iter().for_each(|&i| bitmap[(i >> 3) as usize] |= 1 << (i & 7));
                    buf.extend_from_slice(&bitmap);
                    val.iter().for_each(|v| buf.extend_from_slice(&v.to_le_bytes()));
                }
            }
        }
        framed(msg.kind(), 0, |buf| match msg {
            Message::Welcome { param_len, compression: Compression::None, blob: text } => {
                put_u64(buf, *param_len);
                buf.push(0);
                put_u64(buf, 0);
                put_u64(buf, text.len() as u64);
                buf.extend_from_slice(text.as_bytes());
            }
            Message::RoundStart { round, participate, global } => {
                put_u64(buf, *round);
                buf.push(u8::from(*participate));
                blob(buf, global);
            }
            Message::Upload { round, update } => {
                put_u64(buf, *round);
                put_u64(buf, update.client_id as u64);
                put_u64(buf, update.num_samples as u64);
                blob(buf, &update.params);
                buf.push(u8::from(update.decoder.is_some()));
                update.decoder.iter().for_each(|d| blob(buf, d));
                buf.push(u8::from(update.class_coverage.is_some()));
                if let Some(coverage) = &update.class_coverage {
                    put_u64(buf, coverage.len() as u64);
                    coverage.iter().for_each(|&c| put_u32(buf, c));
                }
            }
            other => panic!("no oracle for {}", other.name()),
        })
    }

    #[test]
    fn frames_across_chunk_boundaries_match_the_field_layout() {
        let cfg = WireConfig::default();
        for msg in large_messages() {
            let frame = encode(&msg);
            assert!(frame.len() > CHUNK, "{}: {} bytes", msg.name(), frame.len());
            assert!(frame == oracle(&msg), "{} (kind {}) left its layout", msg.name(), msg.kind());
            assert_eq!(decode(&frame, &cfg).unwrap(), (msg.clone(), frame.len()));
            let mut trickle = Trickle { bytes: &frame, step: 0 };
            assert_eq!(read_frame(&mut trickle, &cfg).unwrap(), (msg, frame.len() as u64));
        }
    }

    #[test]
    fn write_frame_returns_the_frame_length_for_every_kind_and_codec() {
        let mut messages = all_messages();
        messages.extend(large_messages());
        for msg in &messages {
            let sent = write_frame(&mut io::sink(), Frame::Message(msg)).unwrap();
            assert_eq!(sent, encode(msg).len() as u64, "{} (kind {})", msg.name(), msg.kind());
        }
        // The borrowed frames: a dense upload and dense or coded broadcasts.
        for decoder in [true, false] {
            let update = sample_update(decoder);
            let frame = Frame::Upload { round: 3, update: &update };
            let mut out = Vec::new();
            assert_eq!(write_frame(&mut out, frame).unwrap(), out.len() as u64);
            assert_eq!(out, encode(&Message::Upload { round: 3, update: dense(&update) }));
        }
        let blobs = sample_blobs().into_iter().chain([CompressedBlob::Dense(vec![1.0, -0.5])]);
        for global in blobs {
            let frame =
                Frame::RoundStart { round: 2, participate: false, global: (&global).into() };
            let mut out = Vec::new();
            assert_eq!(write_frame(&mut out, frame).unwrap(), out.len() as u64);
            assert_eq!(frame.kind(), out[4]);
            assert_eq!(out, encode(&Message::RoundStart { round: 2, participate: false, global }));
        }
    }

    #[test]
    fn frames_read_through_short_reads_decode_as_from_a_slice() {
        let cfg = WireConfig::default();
        let frames: Vec<Vec<u8>> = all_messages().iter().map(encode).collect();
        let stream = frames.concat();
        let mut trickle = Trickle { bytes: &stream, step: 0 };
        for frame in &frames {
            let (want, len) = decode(frame, &cfg).unwrap();
            assert_eq!(read_frame(&mut trickle, &cfg).unwrap(), (want, len as u64));
        }
        assert!(trickle.bytes.is_empty(), "every frame was read to its end");
    }

    #[test]
    fn every_prefix_of_a_streamed_frame_is_a_typed_error() {
        let cfg = WireConfig::default();
        for msg in all_messages() {
            let frame = encode(&msg);
            for cut in 0..frame.len() {
                let mut trickle = Trickle { bytes: &frame[..cut], step: cut };
                assert_eq!(
                    read_frame(&mut trickle, &cfg),
                    Err(WireError::Io(io::ErrorKind::UnexpectedEof)),
                    "{} cut at {cut} of {}",
                    msg.name(),
                    frame.len()
                );
            }
        }
    }

    #[test]
    fn a_streamed_inner_count_past_the_payload_fails_before_allocating() {
        // Dense RoundStarts whose f32 count overruns the declared payload:
        // by one value, and by far more than memory holds.
        let cfg = WireConfig::default();
        for (count, values) in [(4u64, 3usize), (u64::MAX / 4, 3)] {
            let frame = framed(3, 0, |buf| {
                put_u64(buf, 0);
                buf.push(1);
                put_u64(buf, count);
                buf.extend(std::iter::repeat_n(0, values * 4));
            });
            let next = encode(&Message::Shutdown);
            let stream = [frame, next].concat();
            let mut trickle = Trickle { bytes: &stream, step: 0 };
            assert_eq!(
                read_frame(&mut trickle, &cfg),
                Err(WireError::Malformed("inner length overruns payload"))
            );
            // The rest of the payload was read past: the stream is in step.
            assert_eq!(read_frame(&mut trickle, &cfg).unwrap().0, Message::Shutdown);
        }
    }

    #[test]
    fn a_payload_that_fails_to_decode_keeps_the_stream_in_step() {
        let cfg = WireConfig::default();
        let mut bad = encode_round_start(1, true, &[1.0; 5]);
        bad[HEADER_BYTES + 8] = 7; // the participate flag
        let truncated = framed(4, 0, |buf| put_u64(buf, 5)); // an Upload with no ids
        let stream = [bad, truncated, encode(&Message::Decline { round: 2 })].concat();
        let mut trickle = Trickle { bytes: &stream, step: 0 };
        assert_eq!(read_frame(&mut trickle, &cfg), Err(WireError::Malformed("flag byte not 0/1")));
        assert_eq!(read_frame(&mut trickle, &cfg), Err(WireError::Truncated { needed: 8, got: 0 }));
        assert_eq!(read_frame(&mut trickle, &cfg).unwrap().0, Message::Decline { round: 2 });
    }
}
