//! Hierarchical spans over per-thread ring buffers.
//!
//! A span is opened with [`span`] (RAII: closing happens on drop) and
//! records `(id, parent, name, tid, start_ns, end_ns)` into the closing
//! thread's ring buffer. Parentage is *logical*, not thread-structural: each
//! thread tracks its current span in a thread-local cell, and the
//! `shims/rayon` pool captures [`current_span_id`] when a job is minted and
//! installs it via [`enter_remote_parent`] around the job's execution — so a
//! span opened inside a stolen job nests under the span that was live where
//! the job was *created*, which is what a profile reader expects.
//!
//! Ring buffers hold the most recent [`RING_CAP`] closed spans per thread;
//! overflow drops the oldest records and counts them ([`dropped_spans`]).
//! [`take_spans`] drains every thread's buffer into one start-time-ordered
//! vector for the exporters.
//!
//! [`timed_span`] is the always-timed variant the federated round loop uses
//! for its stage boundaries: `close()` returns the measured seconds, taken
//! from the *same* clock readings that land in the trace record, so the
//! round's `StageTimings` and the exported trace can never disagree. When
//! tracing is disabled it falls back to a plain `Instant` pair and emits
//! nothing.

use crate::now_ns;
use std::cell::{Cell, OnceCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans retained per thread; the oldest are dropped (and counted) beyond
/// this. 64Ki records ≈ 3 MiB per thread, far more than a profiled run of a
/// few federated rounds produces.
pub const RING_CAP: usize = 1 << 16;

/// One closed span. `parent == 0` means the span was a root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique id (never 0).
    pub id: u64,
    /// Id of the logically enclosing span, 0 for roots.
    pub parent: u64,
    /// Static span name (e.g. `"round.audit"`, `"tensor.gemm"`).
    pub name: &'static str,
    /// Logical thread index (order of first trace activity, not OS tid).
    pub tid: u32,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Ring {
    spans: VecDeque<SpanRecord>,
    dropped: u64,
}

struct ThreadBuf {
    ring: Mutex<Ring>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Mirror of the per-ring overflow tallies as a registered metric, so span
/// loss shows up in a `/metrics` scrape without draining the rings.
static DROPPED_TOTAL: crate::metrics::Counter = crate::metrics::Counter::new("obs.spans.dropped");

thread_local! {
    /// The id of the innermost open (or pool-installed) span on this thread.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's `(tid, ring buffer)`, registered globally on first use.
    static LOCAL: OnceCell<(u32, Arc<ThreadBuf>)> = const { OnceCell::new() };
}

fn push_record(mut rec: SpanRecord) {
    LOCAL.with(|l| {
        let (tid, buf) = l.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let buf = Arc::new(ThreadBuf {
                ring: Mutex::new(Ring { spans: VecDeque::new(), dropped: 0 }),
            });
            registry().lock().unwrap_or_else(|e| e.into_inner()).push(buf.clone());
            (tid, buf)
        });
        rec.tid = *tid;
        {
            let mut ring = buf.ring.lock().unwrap_or_else(|e| e.into_inner());
            if ring.spans.len() >= RING_CAP {
                ring.spans.pop_front();
                ring.dropped += 1;
                DROPPED_TOTAL.incr();
            }
            ring.spans.push_back(rec);
        }
        crate::flightrec::offer(rec);
    });
}

/// RAII span handle; the span closes (and is recorded) when this drops.
/// Inactive guards (tracing disabled at open) do nothing at all.
pub struct SpanGuard {
    name: &'static str,
    /// 0 marks an inactive (or already-closed) guard.
    id: u64,
    prev: u64,
    start_ns: u64,
}

impl SpanGuard {
    fn close_at(&mut self, end_ns: u64) {
        CURRENT.with(|c| c.set(self.prev));
        push_record(SpanRecord {
            id: self.id,
            parent: self.prev,
            name: self.name,
            tid: 0,
            start_ns: self.start_ns,
            end_ns,
        });
        self.id = 0;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            self.close_at(now_ns());
        }
    }
}

/// Open a span named `name` under the thread's current span. When tracing
/// is disabled this is one relaxed atomic load and a branch.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { name, id: 0, prev: 0, start_ns: 0 };
    }
    open_span(name)
}

#[cold]
fn open_span(name: &'static str) -> SpanGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace(id));
    SpanGuard { name, id, prev, start_ns: now_ns() }
}

/// A span that always measures its own duration, for coarse boundaries
/// whose wall time is *consumed* by the program (the round-stage timings).
/// With tracing on, `close()` returns seconds derived from the exact
/// nanosecond pair recorded in the trace; with tracing off it times via a
/// private `Instant` and records nothing.
pub struct TimedSpan {
    started: Instant,
    guard: SpanGuard,
}

/// Open an always-timed span (see [`TimedSpan`]).
pub fn timed_span(name: &'static str) -> TimedSpan {
    TimedSpan { started: Instant::now(), guard: span(name) }
}

impl TimedSpan {
    /// Close the span and return its duration in seconds.
    pub fn close(mut self) -> f64 {
        if self.guard.id != 0 {
            let end = now_ns();
            let secs = end.saturating_sub(self.guard.start_ns) as f64 / 1e9;
            self.guard.close_at(end);
            secs
        } else {
            self.started.elapsed().as_secs_f64()
        }
    }
}

/// Record `dur_ns` of work that ran in slices interleaved with other work —
/// so no single open/close pair brackets it — as one closed span ending now
/// under the thread's current span. The caller sums the slices itself and
/// reports the same figure, which keeps its stage timing and the trace in
/// agreement. Nothing is recorded while tracing is disabled.
pub fn record_interleaved(name: &'static str, dur_ns: u64) {
    if !crate::enabled() {
        return;
    }
    let end_ns = now_ns();
    push_record(SpanRecord {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: current_span_id(),
        name,
        tid: 0,
        start_ns: end_ns.saturating_sub(dur_ns),
        end_ns,
    });
}

/// The id of this thread's innermost open span (0 if none) — what the pool
/// captures at job-mint time.
#[inline]
pub fn current_span_id() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Restores the previous span context on drop.
pub struct ParentGuard {
    prev: u64,
}

/// Install `parent` as this thread's current span for the duration of the
/// returned guard. The pool wraps job execution in this so spans opened
/// inside the job nest under the job's minting context rather than under
/// whatever the worker happened to be doing.
#[inline]
pub fn enter_remote_parent(parent: u64) -> ParentGuard {
    ParentGuard { prev: CURRENT.with(|c| c.replace(parent)) }
}

impl Drop for ParentGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT.with(|c| c.set(prev));
    }
}

/// Drain every thread's ring buffer into one vector ordered by start time.
pub fn take_spans() -> Vec<SpanRecord> {
    let bufs: Vec<Arc<ThreadBuf>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut all = Vec::new();
    for buf in bufs {
        let mut ring = buf.ring.lock().unwrap_or_else(|e| e.into_inner());
        all.extend(ring.spans.drain(..));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Total spans lost to ring-buffer overflow since process start.
pub fn dropped_spans() -> u64 {
    let bufs: Vec<Arc<ThreadBuf>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    bufs.iter().map(|b| b.ring.lock().unwrap_or_else(|e| e.into_inner()).dropped).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Tracing state and ring buffers are process-global; serialize the
    /// tests that toggle or drain them.
    fn test_lock() -> &'static StdMutex<()> {
        static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| StdMutex::new(()))
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_lock().lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(false);
        let _ = take_spans(); // drain whatever earlier tests left behind
        {
            let _a = span("nothing");
            let _b = span("nested.nothing");
        }
        assert_eq!(take_spans().len(), 0);
        assert_eq!(current_span_id(), 0);
    }

    #[test]
    fn spans_nest_and_record_on_one_thread() {
        let _g = test_lock().lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        let _ = take_spans();
        {
            let _outer = span("outer");
            let outer_id = current_span_id();
            assert_ne!(outer_id, 0);
            {
                let _inner = span("inner");
                assert_ne!(current_span_id(), outer_id);
            }
            assert_eq!(current_span_id(), outer_id);
        }
        crate::set_enabled(false);
        let spans = take_spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer recorded");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner recorded");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn interleaved_work_records_one_child_of_the_given_length() {
        let _g = test_lock().lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(false);
        let _ = take_spans();
        record_interleaved("slices", 1_000);
        assert!(take_spans().is_empty(), "disabled tracing must record nothing");

        crate::set_enabled(true);
        {
            let _outer = span("outer");
            // The slices happened inside `outer`, so it is at least as long.
            std::thread::sleep(std::time::Duration::from_millis(1));
            record_interleaved("slices", 1_000);
        }
        crate::set_enabled(false);
        let spans = take_spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer recorded");
        let slices = spans.iter().find(|s| s.name == "slices").expect("slices recorded");
        assert_eq!(slices.parent, outer.id);
        assert_eq!(slices.dur_ns(), 1_000);
        assert!(slices.start_ns >= outer.start_ns && slices.end_ns <= outer.end_ns);
    }

    #[test]
    fn remote_parent_adopts_minting_context() {
        let _g = test_lock().lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        let _ = take_spans();
        let logical_parent;
        {
            let _outer = span("mint.site");
            logical_parent = current_span_id();
            let handle = {
                let parent = current_span_id();
                std::thread::spawn(move || {
                    let _ctx = enter_remote_parent(parent);
                    let _child = span("remote.child");
                })
            };
            handle.join().unwrap();
        }
        crate::set_enabled(false);
        let spans = take_spans();
        let child = spans.iter().find(|s| s.name == "remote.child").expect("child recorded");
        assert_eq!(child.parent, logical_parent);
        let outer = spans.iter().find(|s| s.name == "mint.site").unwrap();
        assert_ne!(child.tid, outer.tid, "child ran on its own thread");
    }

    #[test]
    fn timed_span_matches_trace_duration() {
        let _g = test_lock().lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        let _ = take_spans();
        let sp = timed_span("timed.stage");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = sp.close();
        crate::set_enabled(false);
        let spans = take_spans();
        let rec = spans.iter().find(|s| s.name == "timed.stage").unwrap();
        let trace_secs = rec.dur_ns() as f64 / 1e9;
        assert_eq!(secs, trace_secs, "close() must return the recorded duration");
        assert!(secs >= 0.002);
    }

    #[test]
    fn timed_span_times_even_while_disabled() {
        // No lock needed: records nothing, reads no global trace state
        // beyond the enabled flag (which other tests may flip — both
        // branches time correctly).
        let sp = timed_span("disabled.stage");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(sp.close() >= 0.001);
    }
}
