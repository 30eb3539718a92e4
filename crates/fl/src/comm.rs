//! Byte-accurate communication accounting.
//!
//! Directions are **client-centric**, matching the wire protocol: clients
//! *upload* their updates `ψ_j` (plus the CVAE decoder `θ_j` under FedGuard)
//! to the server, and *download* the global model `ψ₀` the server
//! broadcasts. `upload_bytes` therefore realizes exactly the bytes
//! `wire.rs::encode_upload` frames carry (`fl.net.model_bytes_rx` on the
//! server), and `download_bytes` the RoundStart broadcasts
//! (`fl.net.model_bytes_tx`). Earlier revisions booked the two directions
//! the other way around — server-centric — which inverted them relative to
//! the wire accounting; the JSON field names keep the historic (swapped)
//! spelling via `#[serde(rename)]` so v2 telemetry trails stay compatible
//! both ways (see the field docs).
//!
//! The paper's Table V reports the same quantities as "server downloads"
//! (our `upload_bytes`) and "server uploads" (our `download_bytes`). We
//! account each direction from parameter counts at 4 bytes per f32, which
//! is exactly how the paper's MB figures decompose (1,662,752 × 4 B ≈ 6.65
//! MB per classifier, 330,794 × 4 B ≈ 1.32 MB per decoder).

use crate::update::ModelUpdate;
use fg_obs::metrics::Counter;
use serde::{Deserialize, Serialize};

/// Cumulative wire traffic across all rounds (the per-round figures live in
/// each `RoundTelemetry::comm`; these feed the process-wide snapshot).
static UPLOAD_BYTES: Counter = Counter::new("fl.comm.upload_bytes");
static DOWNLOAD_BYTES: Counter = Counter::new("fl.comm.download_bytes");

/// Bytes moved through the server in one round (or accumulated over many).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommStats {
    /// Clients → server: the round's submitted updates, incl. decoders when
    /// present. Serialized as `"download_bytes"` — the key this quantity
    /// has always carried in v2 telemetry trails, from before the
    /// direction-inversion fix — so old trails keep parsing with correct
    /// semantics and new trails look unchanged on disk.
    #[serde(rename = "download_bytes")]
    pub upload_bytes: u64,
    /// Server → clients: the global-model broadcast (`global_params × 4 ×
    /// m`). Serialized as `"upload_bytes"` for v2-trail compatibility (see
    /// `upload_bytes`).
    #[serde(rename = "upload_bytes")]
    pub download_bytes: u64,
}

impl CommStats {
    /// Account one round: the server broadcast `global_params` floats to
    /// each of `m` clients and received the given uploads.
    pub fn for_round(global_params: usize, m: usize, updates: &[ModelUpdate]) -> CommStats {
        let mut stats = CommStats::for_broadcast(global_params, m);
        for u in updates {
            stats.push_update(u);
        }
        stats
    }

    /// Account only the server → clients broadcast of a round — the
    /// starting point the round loop then extends one arrival at a time
    /// ([`push_update`](CommStats::push_update)), so no update list ever
    /// needs to be materialized for accounting.
    pub fn for_broadcast(global_params: usize, m: usize) -> CommStats {
        let stats =
            CommStats { upload_bytes: 0, download_bytes: (global_params as u64 * 4) * m as u64 };
        DOWNLOAD_BYTES.add(stats.download_bytes);
        stats
    }

    /// Account one client upload as it arrives off the transport, by its
    /// logical model byte size ([`ModelUpdate::wire_bytes`]). Logical bytes
    /// (4 per f32 parameter) keep this ledger mode-invariant under wire
    /// compression; actual on-wire sizes live in the `fl.comm.wire_bytes`
    /// counter and [`WireStats`](crate::net::WireStats).
    pub fn push_update(&mut self, update: &ModelUpdate) {
        let bytes = update.wire_bytes();
        self.upload_bytes += bytes;
        UPLOAD_BYTES.add(bytes);
    }

    /// Total bytes in both directions.
    pub fn total(&self) -> u64 {
        self.upload_bytes + self.download_bytes
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &CommStats) {
        self.upload_bytes += other.upload_bytes;
        self.download_bytes += other.download_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(params: usize, decoder: Option<usize>) -> ModelUpdate {
        ModelUpdate {
            client_id: 0,
            params: vec![0.0; params],
            num_samples: 1,
            decoder: decoder.map(|d| vec![0.0; d]),
            class_coverage: None,
        }
    }

    #[test]
    fn round_accounting() {
        let updates = vec![update(100, None), update(100, None)];
        let s = CommStats::for_round(100, 2, &updates);
        assert_eq!(s.upload_bytes, 800);
        assert_eq!(s.download_bytes, 800);
        assert_eq!(s.total(), 1600);
    }

    #[test]
    fn decoders_increase_uploads_only() {
        // Decoders ride on the client → server update frames; the broadcast
        // is unaffected. (Regression: the pre-fix accounting booked decoder
        // bytes on the broadcast side.)
        let updates = vec![update(100, Some(20)); 2];
        let s = CommStats::for_round(100, 2, &updates);
        assert_eq!(s.upload_bytes, 960);
        assert_eq!(s.download_bytes, 800);
    }

    #[test]
    fn incremental_accounting_matches_for_round() {
        let updates = vec![update(50, Some(10)), update(50, None), update(50, Some(3))];
        let batch = CommStats::for_round(50, 4, &updates);
        let mut inc = CommStats::for_broadcast(50, 4);
        for u in &updates {
            inc.push_update(u);
        }
        assert_eq!(batch, inc);
    }

    #[test]
    fn serde_keys_keep_the_historic_v2_spelling() {
        // Crosswise rename: the client-upload bytes keep living under the
        // "download_bytes" JSON key (and vice versa), so a v2 trail written
        // before the direction fix round-trips with correct semantics.
        let s = CommStats { upload_bytes: 960, download_bytes: 800 };
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            json.contains("\"download_bytes\": 960") || json.contains("\"download_bytes\":960")
        );
        assert!(json.contains("\"upload_bytes\": 800") || json.contains("\"upload_bytes\":800"));
        let back: CommStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn paper_scale_decoder_overhead_is_twenty_percent() {
        // Table V: FedGuard's per-round client uploads are ~20% above
        // FedAvg's. ψ = 1,662,752 weights (paper count), θ = 330,794;
        // m = 50.
        let psi = 1_662_752usize;
        let theta = 330_794usize;
        let fedavg: Vec<ModelUpdate> = (0..50).map(|_| update(psi, None)).collect();
        let fedguard: Vec<ModelUpdate> = (0..50).map(|_| update(psi, Some(theta))).collect();
        let base = CommStats::for_round(psi, 50, &fedavg);
        let ours = CommStats::for_round(psi, 50, &fedguard);
        let overhead = ours.upload_bytes as f64 / base.upload_bytes as f64 - 1.0;
        assert!((overhead - 0.199).abs() < 0.01, "upload overhead {overhead}");
        let total_overhead = ours.total() as f64 / base.total() as f64 - 1.0;
        assert!((total_overhead - 0.0995).abs() < 0.005, "total overhead {total_overhead}");
    }

    #[test]
    fn accumulation() {
        let mut acc = CommStats::default();
        acc.add(&CommStats { upload_bytes: 10, download_bytes: 20 });
        acc.add(&CommStats { upload_bytes: 1, download_bytes: 2 });
        assert_eq!(acc, CommStats { upload_bytes: 11, download_bytes: 22 });
    }
}
