//! Frame-byte pins: every frame the protocol writes, digested with FNV-1a
//! and compared against the committed table in `golden/wire_frames.txt`.
//!
//! The set covers every control frame, `Welcome` under each compression
//! mode, and for each codec a `RoundStart` (participating and sitting out)
//! and an `Upload` (with and without decoder and coverage), built through
//! the same codec calls the deployments make. The payload vectors are
//! seeded and carry NaN, −0.0 and denormal bits, so a change to any writer
//! — a header, a length prefix, a tag byte, a blob layout, a codec kernel —
//! moves a digest. The table changes only with a deliberate protocol change;
//! regenerate it with
//! `cargo test -p fg-fl --test wire_frames -- --ignored bless_wire_frames`.

use fg_fl::compress::{broadcast_frames, upload_frame, DEFAULT_INT8_BLOCK};
use fg_fl::wire::{encode, PROTOCOL_VERSION};
use fg_fl::{Compression, Message, ModelUpdate};

const TABLE: &str = "tests/golden/wire_frames.txt";
const ROUND: u64 = 7;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// `n` seeded values in (−1, 1) with NaN (payload bits set), −0.0, a
/// positive and a negative denormal planted at fixed positions.
fn vector(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    let mut v: Vec<f32> = (0..n)
        .map(|_| {
            // splitmix64
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect();
    for (at, bits) in
        [(1, 0x7FC0_1234u32), (4, 0x8000_0000), (9, 0x0000_0001), (n - 1, 0x8000_0ABC)]
    {
        v[at] = f32::from_bits(bits);
    }
    v
}

fn modes() -> [(&'static str, Compression); 6] {
    [
        ("none", Compression::None),
        ("bf16", Compression::Bf16),
        ("int8-64", Compression::Int8 { block: 64 }),
        ("int8-default", Compression::Int8 { block: DEFAULT_INT8_BLOCK }),
        ("topk-0.1", Compression::TopK { frac: 0.1 }),
        ("topk-0.5", Compression::TopK { frac: 0.5 }),
    ]
}

/// The two `RoundStart` frames of a round under `mode`, as the server's
/// fan-out writes them, and the reference model they decode to.
fn round_starts(mode: Compression, global: &[f32]) -> ([Vec<u8>; 2], Vec<f32>) {
    let (frames, reference) = broadcast_frames(mode, ROUND, global);
    (frames, reference.into_owned())
}

/// The `Upload` frame a client under `mode` writes for `update`.
fn upload(mode: Compression, update: &ModelUpdate, reference: &[f32]) -> Vec<u8> {
    upload_frame(mode, ROUND, update, reference)
}

fn frames() -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = vec![
        ("join".into(), encode(&Message::Join { client_id: 3, protocol: PROTOCOL_VERSION })),
        ("decline".into(), encode(&Message::Decline { round: ROUND })),
        ("heartbeat".into(), encode(&Message::Heartbeat { client_id: 3 })),
        ("leave".into(), encode(&Message::Leave { client_id: 3 })),
        ("shutdown".into(), encode(&Message::Shutdown)),
    ];
    for (name, compression) in [
        ("none", Compression::None),
        ("bf16", Compression::Bf16),
        ("int8-default", Compression::Int8 { block: DEFAULT_INT8_BLOCK }),
        ("topk-0.1", Compression::TopK { frac: 0.1 }),
    ] {
        let welcome = Message::Welcome {
            param_len: 16,
            compression,
            blob: "{\"preset\":\"smoke\"}".to_string(),
        };
        out.push((format!("welcome/{name}"), encode(&welcome)));
    }

    let global = vector(16, 0x5EED);
    let full = ModelUpdate {
        client_id: 3,
        params: vector(16, 0xC11E),
        num_samples: 40,
        decoder: Some(vector(12, 0xDEC0)),
        class_coverage: Some(vec![4, 0, 9, 1, 1, 2, 0, 5, 3, 7]),
    };
    let bare = ModelUpdate { decoder: None, class_coverage: None, ..full.clone() };
    for (name, mode) in modes() {
        let ([active, idle], reference) = round_starts(mode, &global);
        out.push((format!("{name}/round_start/participate"), active));
        out.push((format!("{name}/round_start/sit_out"), idle));
        out.push((format!("{name}/upload/decoder"), upload(mode, &full, &reference)));
        out.push((format!("{name}/upload/bare"), upload(mode, &bare, &reference)));
    }
    out
}

fn render() -> String {
    frames()
        .iter()
        .map(|(name, frame)| format!("{name} {:016x} {}\n", fnv1a(frame), frame.len()))
        .collect()
}

#[test]
fn every_frame_matches_its_pinned_digest() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(TABLE);
    let pinned = std::fs::read_to_string(&path).expect("committed frame table");
    let got = render();
    for (want, have) in pinned.lines().zip(got.lines()) {
        assert_eq!(have, want, "frame bytes moved; full table now:\n{got}");
    }
    assert_eq!(got.lines().count(), pinned.lines().count(), "frame set changed:\n{got}");
}

#[test]
#[ignore = "rewrites the committed frame table"]
fn bless_wire_frames() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(TABLE);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, render()).unwrap();
}
