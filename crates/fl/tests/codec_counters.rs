//! The codec layer's `fg-obs` byte counters against the blobs it produced:
//! `fl.comm.raw_bytes` / `fl.comm.wire_bytes` must move by exactly the
//! logical and encoded bytes of every blob `compress_update` / `broadcast`
//! returns — the measured compression ratio in `/metrics` and the telemetry
//! trails is only as good as this ledger. A broadcast books its one blob
//! once; a dense downlink books nothing.
//!
//! `fg-obs` counters are process-global, so this file holds exactly one
//! `#[test]`: its own process, nothing else encoding between the reads.

use fg_fl::compress::{broadcast, compress_update, DEFAULT_INT8_BLOCK, DEFAULT_TOPK_FRAC};
use fg_fl::{Compression, ModelUpdate};
use fg_tensor::codec::CODEC_SLAB;
use fg_tensor::rng::SeededRng;

/// Two codec slabs, the second ragged, so int8 carries more than one scale.
const D: usize = CODEC_SLAB + 41;
const M: usize = 4;

fn byte_counters() -> (u64, u64) {
    let snap = fg_obs::metrics::snapshot();
    let read = |name| snap.counter(name).unwrap_or(0);
    (read("fl.comm.raw_bytes"), read("fl.comm.wire_bytes"))
}

#[test]
fn byte_counters_match_the_blobs_produced() {
    let mut rng = SeededRng::new(0xC0DEC);
    let global: Vec<f32> = (0..D).map(|_| rng.next_f32() - 0.5).collect();
    let cohort: Vec<ModelUpdate> = (0..M)
        .map(|i| ModelUpdate {
            client_id: i,
            params: global.iter().map(|g| g + (rng.next_f32() - 0.5) * 0.02).collect(),
            num_samples: 10 + i,
            decoder: None,
            class_coverage: None,
        })
        .collect();

    for mode in [
        Compression::None,
        Compression::Bf16,
        Compression::Int8 { block: DEFAULT_INT8_BLOCK },
        Compression::TopK { frac: DEFAULT_TOPK_FRAC },
    ] {
        // The broadcast books its blob exactly once — and nothing at all
        // when the mode's downlink is dense.
        let (raw_before, wire_before) = byte_counters();
        let downlink = broadcast(mode, &global);
        assert_eq!(downlink.is_some(), mode.downlink() != Compression::None, "{}", mode.name());
        let (mut raw, mut wire) =
            downlink.as_ref().map_or((0, 0), |(blob, _)| (blob.raw_bytes(), blob.encoded_bytes()));
        let (raw_after, wire_after) = byte_counters();
        assert_eq!(raw_after - raw_before, raw, "{}: broadcast raw_bytes", mode.name());
        assert_eq!(wire_after - wire_before, wire, "{}: broadcast wire_bytes", mode.name());
        if mode == Compression::None {
            continue; // dense uploads build no blob either
        }

        for update in &cohort {
            let cu = compress_update(mode, update, &global);
            // The logical ledger `CommStats` books is mode-invariant.
            assert_eq!(cu.model_bytes(), 4 * D as u64, "{}", mode.name());
            raw += cu.model_bytes();
            wire += cu.encoded_model_bytes();
        }
        assert!(wire < raw, "{}: the codec did not shrink the payload", mode.name());

        let (raw_after, wire_after) = byte_counters();
        assert_eq!(raw_after - raw_before, raw, "{}: fl.comm.raw_bytes", mode.name());
        assert_eq!(wire_after - wire_before, wire, "{}: fl.comm.wire_bytes", mode.name());
    }
}
