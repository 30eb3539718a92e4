//! Flight recorder: a bounded, process-wide ring of recently *closed* spans
//! plus an on-demand dump for post-hoc incident analysis.
//!
//! Unlike the per-thread rings behind [`crate::span::take_spans`] — which
//! are *drained* by the exporters at end of run — the flight recorder keeps
//! a rolling copy of the most recent spans so that when something goes
//! wrong mid-run (a quorum failure, a malformed frame, a round that blew
//! past its usual wall clock) the moments leading up to the anomaly can be
//! written out immediately, without waiting for the run to finish and
//! without disturbing the end-of-run trace.
//!
//! The recorder is off by default. While off, the tap in the span close
//! path is one relaxed atomic load. While on, every closed span is copied
//! into one global ring under a mutex — acceptable for deployments, which
//! is the only place the recorder is switched on. Spans only close while
//! tracing is enabled (`FG_TRACE=1`), so a recorder enabled without tracing
//! dumps an empty trace but still captures the metrics snapshot.
//!
//! [`dump`] writes a pair of files into a directory:
//! `flightrec-NNNN-<tag>.trace.json` (Chrome Trace Event Format, loadable
//! in Perfetto) and `flightrec-NNNN-<tag>.metrics.json` (a manifest with
//! the full [`MetricsSnapshot`]). The anomaly *triggers* live in `fg-fl`,
//! which watches round telemetry; this module only owns the ring and the
//! dump format.

use crate::metrics::MetricsSnapshot;
use crate::span::SpanRecord;
use serde::Serialize;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default ring capacity: enough for several rounds of span activity while
/// staying a few hundred KiB of memory.
pub const DEFAULT_CAPACITY: usize = 8192;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);

struct Ring {
    spans: VecDeque<SpanRecord>,
    cap: usize,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(Ring { spans: VecDeque::new(), cap: DEFAULT_CAPACITY }))
}

/// Start capturing closed spans into a ring of `capacity` records.
pub fn enable(capacity: usize) {
    let mut r = ring().lock().unwrap_or_else(|e| e.into_inner());
    r.cap = capacity.max(1);
    while r.spans.len() > r.cap {
        r.spans.pop_front();
    }
    drop(r);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop capturing (the ring keeps its current contents).
#[cfg(test)]
fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Is the recorder currently capturing? This is the branch the span close
/// path reduces to while the recorder is off.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tap called from the span close path. Cheap no-op while disabled.
#[inline]
pub(crate) fn offer(rec: SpanRecord) {
    if !is_enabled() {
        return;
    }
    let mut r = ring().lock().unwrap_or_else(|e| e.into_inner());
    if r.spans.len() >= r.cap {
        r.spans.pop_front();
    }
    r.spans.push_back(rec);
}

/// Copy of the ring's current contents, ordered by start time. Does not
/// drain — successive dumps may overlap.
pub fn recent() -> Vec<SpanRecord> {
    let r = ring().lock().unwrap_or_else(|e| e.into_inner());
    let mut spans: Vec<SpanRecord> = r.spans.iter().copied().collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Empty the ring (tests; between unrelated runs in one process).
pub fn clear() {
    ring().lock().unwrap_or_else(|e| e.into_inner()).spans.clear();
}

/// Sidecar written next to each trace dump.
#[derive(Serialize)]
struct DumpManifest {
    seq: u64,
    tag: String,
    spans: usize,
    dropped_spans: u64,
    metrics: MetricsSnapshot,
}

/// Paths of the two files one dump produces.
#[derive(Clone, Debug)]
pub struct DumpPaths {
    pub trace: PathBuf,
    pub manifest: PathBuf,
}

fn sanitize_tag(tag: &str) -> String {
    let out: String = tag
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    if out.is_empty() {
        "anomaly".to_string()
    } else {
        out
    }
}

/// Dump the ring (as a Chrome trace) and a manifest with the current
/// metrics snapshot into `dir`, under a process-unique sequence number.
pub fn dump(dir: &Path, tag: &str) -> io::Result<DumpPaths> {
    std::fs::create_dir_all(dir)?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tag = sanitize_tag(tag);
    let spans = recent();
    let trace = dir.join(format!("flightrec-{seq:04}-{tag}.trace.json"));
    std::fs::write(&trace, crate::export::chrome_trace_json(&spans))?;
    let manifest_path = dir.join(format!("flightrec-{seq:04}-{tag}.metrics.json"));
    let manifest = DumpManifest {
        seq,
        tag,
        spans: spans.len(),
        dropped_spans: crate::span::dropped_spans(),
        metrics: crate::metrics::snapshot(),
    };
    std::fs::write(&manifest_path, serde_json::to_string(&manifest).expect("manifest serializes"))?;
    Ok(DumpPaths { trace, manifest: manifest_path })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, t0: u64, t1: u64) -> SpanRecord {
        SpanRecord { id, parent: 0, name: "flight.test", tid: 0, start_ns: t0, end_ns: t1 }
    }

    /// The recorder is one per process and these tests switch it on and off,
    /// so they take turns: an `enable` landing between another test's
    /// `disable` and its `recent` would fail that test for no reason.
    fn recorder() -> std::sync::MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        TURN.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let _turn = recorder();
        enable(4);
        clear();
        for i in 0..10u64 {
            offer(rec(i + 1, i * 100, i * 100 + 50));
        }
        let spans = recent();
        assert_eq!(spans.len(), 4, "capacity bounds the ring");
        assert_eq!(spans.first().unwrap().id, 7, "oldest records were evicted");
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        disable();
        clear();
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _turn = recorder();
        disable();
        clear();
        offer(rec(99, 0, 1));
        assert!(recent().is_empty());
    }

    #[test]
    fn dump_writes_trace_and_manifest() {
        let _turn = recorder();
        enable(16);
        clear();
        offer(rec(1, 0, 1_000_000));
        let dir = std::env::temp_dir().join("fg_flightrec_test");
        let paths = dump(&dir, "unit/test!").expect("dump succeeds");
        let trace = std::fs::read_to_string(&paths.trace).unwrap();
        assert!(trace.contains("traceEvents"));
        assert!(paths.trace.file_name().unwrap().to_str().unwrap().contains("unit-test-"));
        let manifest = std::fs::read_to_string(&paths.manifest).unwrap();
        assert!(manifest.contains("\"spans\""));
        assert!(manifest.contains("\"metrics\""));
        disable();
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
