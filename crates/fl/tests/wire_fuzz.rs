//! Property-based fuzzing of the wire codec: `decode` must be **total** —
//! defined (never panicking, never unboundedly allocating) over arbitrary
//! byte strings, truncations and mutations — and `encode`/`decode` must be
//! an exact round trip, bit-preserving for every f32 payload.

use fg_fl::compress::compress_vec;
use fg_fl::wire::{decode, encode, HEADER_BYTES, MAGIC};
use fg_fl::{CompressedUpdate, Compression, Message, WireConfig, WireError};
use proptest::prelude::*;

fn f32s(bits: &[u32]) -> Vec<f32> {
    // Raw bit patterns: exercises NaNs, infinities and denormals.
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

/// Derive a codec from fuzz inputs: model payloads come in exactly one of
/// four families — dense, bf16, int8, top-k.
fn fuzz_codec(b: u64) -> Compression {
    match b % 4 {
        0 => Compression::None,
        1 => Compression::Bf16,
        2 => Compression::Int8 { block: (b % 1000) as usize + 1 },
        _ => Compression::TopK { frac: ((b % 99) as f64 + 1.0) / 100.0 },
    }
}

/// Build one of the eight message kinds from raw fuzz inputs (the shimmed
/// proptest has no `prop_oneof`, so the selector is an explicit argument).
/// Model payloads go through the canonical [`compress_vec`] encoder, so
/// every generated blob is internally consistent (bitmap popcount, block
/// counts) while its f32 source still ranges over NaN/Inf/denormals.
fn build_message(sel: u64, a: u64, b: u64, bits: &[u32], cov: &[u32]) -> Message {
    let codec = fuzz_codec(b);
    match sel % 8 {
        0 => Message::Join { client_id: a, protocol: b as u32 },
        1 => Message::Welcome { param_len: a, compression: codec, blob: format!("cfg-{b:016x}") },
        2 => Message::RoundStart {
            round: a,
            participate: b.is_multiple_of(2),
            global: compress_vec(codec, &f32s(bits)),
        },
        3 => Message::Upload {
            round: a,
            update: CompressedUpdate {
                client_id: (a % 1000) as usize,
                num_samples: (b % 10_000) as usize + 1,
                params: compress_vec(codec, &f32s(bits)),
                decoder: b.is_multiple_of(3).then(|| {
                    let data: Vec<f32> =
                        cov.iter().map(|&x| f32::from_bits(x.rotate_left(7))).collect();
                    compress_vec(codec.decoder_codec(), &data)
                }),
                class_coverage: b.is_multiple_of(5).then(|| cov.to_vec()),
            },
        },
        4 => Message::Decline { round: a },
        5 => Message::Heartbeat { client_id: a },
        6 => Message::Leave { client_id: a },
        _ => Message::Shutdown,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes under an arbitrary (small) cap: decode returns a
    /// value or a typed error — it never panics.
    #[test]
    fn decode_is_total_over_arbitrary_bytes(
        raw in collection::vec(0u16..256, 0..256),
        cap in 16u32..4096,
    ) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let _ = decode(&bytes, &WireConfig { max_frame_bytes: cap });
    }

    /// Any message encodes to a frame that decodes back to itself,
    /// consuming exactly the frame length — f32 payloads bit-identical,
    /// NaNs included.
    #[test]
    fn encode_decode_round_trips_bitwise(
        sel in 0u64..8,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        bits in collection::vec(0u32..u32::MAX, 0..64),
        cov in collection::vec(0u32..u32::MAX, 0..10),
    ) {
        let msg = build_message(sel, a, b, &bits, &cov);
        let frame = encode(&msg);
        let (back, used) = match decode(&frame, &WireConfig::default()) {
            Ok(ok) => ok,
            Err(e) => { prop_assert!(false, "own frame failed to decode: {e:?}"); unreachable!() }
        };
        prop_assert_eq!(used, frame.len());
        // Compare re-encoded frames, not messages: NaN != NaN under f32
        // PartialEq, but the wire must still preserve the exact bits.
        prop_assert_eq!(encode(&back), frame, "re-encoding must reproduce the frame");
    }

    /// Every strict prefix of a valid frame is an error — cleanly reported
    /// as `Truncated`, never a panic, never a bogus success.
    #[test]
    fn truncated_prefixes_never_decode(
        sel in 0u64..8,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        bits in collection::vec(0u32..u32::MAX, 0..64),
        frac in 0.0f64..1.0,
    ) {
        let frame = encode(&build_message(sel, a, b, &bits, &[]));
        let cut = ((frame.len() as f64) * frac) as usize; // always < frame.len()
        match decode(&frame[..cut], &WireConfig::default()) {
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(needed > cut, "needed {needed} must exceed the {cut}-byte prefix");
            }
            Ok(_) => prop_assert!(false, "prefix of {cut}/{} bytes decoded", frame.len()),
            Err(other) => prop_assert!(false, "expected Truncated, got {other:?}"),
        }
    }

    /// Random single-byte corruption of a valid frame: decode still
    /// returns. (It may legitimately succeed — e.g. a flipped payload bit —
    /// but it must stay total and in-bounds.)
    #[test]
    fn mutated_frames_never_panic(
        sel in 0u64..8,
        a in 0u64..u64::MAX,
        bits in collection::vec(0u32..u32::MAX, 0..48),
        pos_seed in 0u64..u64::MAX,
        byte in 0u16..256,
    ) {
        let mut frame = encode(&build_message(sel, a, a ^ 0x5A5A, &bits, &[]));
        let pos = (pos_seed % frame.len() as u64) as usize;
        frame[pos] = byte as u8;
        if let Ok((_, used)) = decode(&frame, &WireConfig::default()) {
            prop_assert!(used <= frame.len());
        }
    }

    /// A header declaring a payload larger than the cap is rejected as
    /// `Oversized` *before* any payload allocation, whatever bytes follow.
    #[test]
    fn oversized_declarations_rejected_before_allocation(
        declared in 4097u32..u32::MAX,
        kind in 0u16..256,
    ) {
        let mut frame = Vec::with_capacity(HEADER_BYTES);
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.push(kind as u8);
        frame.extend_from_slice(&declared.to_le_bytes());
        let cfg = WireConfig { max_frame_bytes: 4096 };
        match decode(&frame, &cfg) {
            Err(WireError::Oversized { declared: d, cap }) => {
                prop_assert_eq!(d, declared as u64);
                prop_assert_eq!(cap, 4096u64);
            }
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
    }
}
