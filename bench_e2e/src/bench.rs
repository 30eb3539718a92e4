//! One run of one workload: the timed pass behind the end-to-end metrics
//! (`--trace 0`) and the traced pass behind the per-layer ones (`--trace 1`).

use crate::probes;
use crate::report::{Metric, RunResult};
use crate::run::{
    attempted_and_failed, checks, end_to_end, exclusion_rates, quality, run_pass, set_up, Check,
    Pass, Prepared, SETUP_REPS,
};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{mean, p90};
use fedguard::experiment::ExperimentConfig;
use fg_obs::metrics::{snapshot, MetricsSnapshot};
use fg_obs::span::{span, take_spans, SpanRecord};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Most rounds the traced pass replays; enough for stable stage means, few
/// enough that the span list stays tens of MiB.
const TRACE_MAX_ROUNDS: usize = 30;

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed rounds run (they finish the round in flight and
    /// never stop short of the workload's quality rounds).
    pub seconds: f64,
    /// Smoke-sized shapes and exactly two timed rounds — for the crate's
    /// tests, not for measuring.
    pub quick: bool,
    /// Test hook: demand an unreachable accuracy so the gate must fail.
    pub break_floor: bool,
    /// Where the traced pass writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

impl Options {
    fn floor(&self) -> Option<f32> {
        if self.break_floor {
            Some(2.0)
        } else {
            self.workload.accuracy_floor(self.quick)
        }
    }

    /// Timed rounds every pass must run: enough to reach the quality rounds
    /// (round 0 counts where it is set-up), and two in quick mode.
    fn min_timed(&self) -> usize {
        let from_setup = usize::from(!self.workload.fresh_federation_per_round());
        let quality = self.workload.quality_rounds(self.quick) - from_setup;
        quality.max(if self.quick { 2 } else { 1 })
    }

    fn seconds(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            self.seconds
        }
    }
}

fn finish(
    o: &Options,
    cfg: &ExperimentConfig,
    pass: &Pass,
    metrics: Vec<Metric>,
    mut gate: Vec<Check>,
) -> RunResult {
    let mut all = checks(o.workload, cfg, o.floor(), o.quick, pass);
    all.append(&mut gate);
    let (attempted, failed) = attempted_and_failed(pass);
    for c in &all {
        eprintln!(
            "[bench_e2e] check {:<34} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for m in &metrics {
        eprintln!(
            "[bench_e2e] {:<14} {:<38} {:>18.6} {}",
            o.workload.name(),
            m.name,
            m.value(),
            m.unit
        );
    }
    RunResult {
        correct: all.iter().all(|c| c.ok),
        attempted,
        failed,
        timed_rounds: pass.timed().len(),
        metrics,
    }
}

/// The timed pass: `SETUP_REPS` set-ups (their median is `setup_s`), then
/// closed-loop rounds for `seconds` from the last one, tracing off.
pub fn run_timed(o: &Options) -> Result<RunResult, String> {
    let cfg = o.workload.config(o.seed, o.quick);
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..if o.quick { 1 } else { SETUP_REPS } {
        // Set-ups never overlap: release the previous one's clients first.
        if let Some(Prepared::Warm(previous)) = prepared.take() {
            previous.close()?;
        }
        let (p, secs) = set_up(o.workload, &cfg);
        setup_s.push(secs);
        prepared = Some(p);
    }
    let (min_timed, seconds) = (o.min_timed(), o.seconds());
    let pass = run_pass(&cfg, prepared.expect("at least one set-up"), |timed, secs| {
        timed >= min_timed && secs >= seconds
    });

    let walls: Vec<f64> = pass.timed().iter().map(|r| r.wall_secs).collect();
    match p90(&walls) {
        Some(tail) => {
            eprintln!("[bench_e2e] round_s_p90 {tail:.6} s over {} timed rounds", walls.len())
        }
        None => eprintln!(
            "[bench_e2e] round_s_p90 not reported: {} timed rounds, 100 needed",
            walls.len()
        ),
    }
    let values = end_to_end(&setup_s, &pass);
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| Metric { name: m.name.to_string(), unit: m.unit.to_string(), runs: vec![v] })
        .collect();
    Ok(finish(o, &cfg, &pass, metrics, Vec::new()))
}

/// Run `f` with tracing on while a helper thread keeps draining the span
/// rings (a round of CVAE fits closes several times a ring's capacity, and a
/// dropped span would falsify the trace). Returns `f`'s result and every span
/// closed meanwhile.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let stop = AtomicBool::new(false);
    fg_obs::set_enabled(true);
    let (out, mut spans) = std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            let mut spans = Vec::new();
            // Relaxed: the flag publishes nothing; the join below orders the
            // drained spans.
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                spans.extend(take_spans());
            }
            spans
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        (out, drainer.join().expect("drainer thread"))
    });
    fg_obs::set_enabled(false);
    spans.extend(take_spans());
    spans.sort_by_key(|s| (s.start_ns, s.id));
    (out, spans)
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0)) as f64
}

fn histogram_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.histograms.iter().find(|h| h.name == name).map_or(0, |h| h.sum)
}

/// The traced pass: an untraced reference pass, the same rounds again with
/// tracing on (stage split, registry deltas, tracing overhead, and the
/// check that tracing changed no result), then the layer probes.
pub fn run_traced(o: &Options) -> Result<RunResult, String> {
    let cfg = o.workload.config(o.seed, o.quick);
    let (min_timed, half) = (o.min_timed(), o.seconds() / 2.0);

    let (prepared, _) = set_up(o.workload, &cfg);
    let reference = run_pass(&cfg, prepared, |timed, secs| {
        timed >= min_timed && (secs >= half || timed >= TRACE_MAX_ROUNDS)
    });
    let n = reference.timed().len();

    let (prepared, _) = set_up(o.workload, &cfg);
    let before = snapshot();
    let (pass, mut spans) = traced(|| run_pass(&cfg, prepared, |timed, _| timed >= n));
    let after = snapshot();
    let per_round = |name: &str| counter_delta(&before, &after, name) / n as f64;

    // Quick mode checks the plumbing of the pass; the probes measure fixed
    // full-size shapes and would only slow the crate's tests down.
    let probed = if o.quick {
        Vec::new()
    } else {
        let (probed, probe_spans) = traced(|| {
            let _span = span("bench.probes");
            probes::run_all(o.seed)
        });
        spans.extend(probe_spans);
        probed
    };

    let timed = pass.timed();
    let wall = mean(&timed.iter().map(|r| r.wall_secs).collect::<Vec<_>>());
    let reference_wall = mean(&reference.timed().iter().map(|r| r.wall_secs).collect::<Vec<_>>());
    let stage = |pick: fn(&fg_fl::StageTimings) -> f64| {
        mean(&timed.iter().map(|r| pick(&r.stages)).collect::<Vec<_>>())
    };
    let exchange_s = stage(|s| s.local_training_secs);
    let (attempted, failed) = attempted_and_failed(&pass);
    let (malicious_rate, honest_rate) = exclusion_rates(&pass);
    let (final_accuracy, mean_accuracy) = quality(o.workload, o.quick, &pass);
    let dropped = counter_delta(&before, &snapshot(), "obs.spans.dropped");

    let predicted = probes::predicted_exchange_s(o.workload, o.seed, &probed);
    let mut measured = probed;
    for (secs_name, share_name, secs) in [
        ("fl.round.sampling_s", "fl.round.sampling_share", stage(|s| s.sampling_secs)),
        ("fl.round.exchange_s", "fl.round.exchange_share", exchange_s),
        ("fl.round.sanitize_s", "fl.round.sanitize_share", stage(|s| s.sanitize_secs)),
        ("fl.round.aggregation_s", "fl.round.aggregation_share", stage(|s| s.aggregation_secs)),
        ("fl.round.evaluation_s", "fl.round.evaluation_share", stage(|s| s.evaluation_secs)),
        ("core.round.synthesis_s", "core.round.synthesis_share", stage(|s| s.synthesis_secs)),
        ("core.round.audit_s", "core.round.audit_share", stage(|s| s.audit_secs)),
    ] {
        measured.push((secs_name, secs));
        measured.push((share_name, secs / wall));
    }
    measured.extend([
        ("tensor.gemm.calls", per_round("tensor.gemm.calls")),
        ("tensor.gemm.flops", per_round("tensor.gemm.flops")),
        ("tensor.workspace.misses", per_round("tensor.workspace.misses")),
        ("audit.batched.launches", per_round("audit.batched.launches")),
        ("audit.batched.models", per_round("audit.batched.models")),
        ("fl.net.frames_tx", per_round("fl.net.frames_tx")),
        ("fl.net.bytes_tx", per_round("fl.net.bytes_tx")),
        ("fl.net.bytes_rx", per_round("fl.net.bytes_rx")),
        ("pool.steal_backs", per_round("pool.steal_backs")),
        (
            "pool.queue_wait_ns",
            histogram_sum(&after, "pool.queue_wait_ns")
                .saturating_sub(histogram_sum(&before, "pool.queue_wait_ns")) as f64
                / n as f64,
        ),
        (
            "fl.agg.peak_bytes",
            after.gauges.iter().find(|g| g.0 == "fl.agg.peak_bytes").map_or(0.0, |g| g.1 as f64),
        ),
        ("fl.round.failed_share", failed as f64 / attempted as f64),
        ("core.defense.malicious_excluded_rate", malicious_rate),
        ("core.defense.honest_excluded_rate", honest_rate),
        ("core.quality.final_accuracy", final_accuracy),
        ("core.quality.mean_round_accuracy", mean_accuracy),
        ("obs.trace_overhead_pct", (wall - reference_wall) / reference_wall * 100.0),
        ("obs.spans.dropped", dropped),
    ]);
    measured.push(("probe.exchange_coverage", predicted / exchange_s));
    eprintln!(
        "[bench_e2e] probe coverage {}: probes predict {predicted:.4} s of the measured {exchange_s:.4} s \
         exchange stage ({:.0}%)",
        o.workload.name(),
        predicted / exchange_s * 100.0
    );

    if let Some(path) = &o.trace_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        fg_obs::export::write_chrome_trace(path, &spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("[bench_e2e] {} spans written to {}", spans.len(), path.display());
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name.to_string(),
            unit: m.unit.to_string(),
            // A probe skipped in quick mode reads 0.
            runs: vec![measured.iter().find(|x| x.0 == m.name).map_or(0.0, |x| x.1)],
        })
        .collect();
    let gate = vec![
        Check {
            name: "tracing_changes_nothing",
            ok: pass.accuracy_series() == reference.accuracy_series(),
            detail: format!(
                "accuracy series of {n} timed rounds, traced vs untraced, compared bit for bit"
            ),
        },
        Check {
            name: "no_spans_dropped",
            ok: dropped == 0.0,
            detail: format!("{dropped} spans dropped"),
        },
    ];
    Ok(finish(o, &cfg, &pass, metrics, gate))
}
