#!/bin/bash
# Lint gate + regeneration of every table/figure of the paper at the fast
# preset. Telemetry trails land under results/telemetry/ (one JSONL per run).
# Each stage prints a "[suite] stage <name>: <N>s" wall-clock line so
# runtime regressions are visible across the stages.
set -x
cd /root/repo

STAGE_T0=$(date +%s)
stage_done() {
    local now
    now=$(date +%s)
    echo "[suite] stage $1: $((now - STAGE_T0))s"
    STAGE_T0=$now
}

# Lint stage: formatting and clippy (workspace-wide, all targets — the
# codec module and bench bins included) must be clean before results count.
cargo fmt --check || exit 1
cargo clippy --workspace --all-targets -- -D warnings || exit 1
stage_done lint

# Benchmark-contract stage: bench_e2e is a package of its own (not a
# workspace member), so nothing above compiles it. Its tests build the
# frozen benchmark against this tree's public API, so an API break fails
# here rather than in the benchmark run.
cargo test --offline --manifest-path bench_e2e/Cargo.toml || exit 1
stage_done bench_e2e_contract

# Chaos stage: deterministic fault-replay + sanitizer property suites. Seeds
# are fixed inside the tests, so failures here are reproducible verbatim.
cargo test --release -q -p fedguard --test chaos --test props || exit 1
stage_done chaos

# Schedule-invariance stage: same federation at 1 vs 4 threads must be
# bit-identical (the rayon shim's determinism contract).
cargo test --release -q -p fedguard --test schedule_invariance || exit 1
stage_done schedule_invariance

B=target/release

# Bench stage: matmul/Krum micro-bench at 1 vs N threads. Records the
# measured parallel speedup (and the host's core count — timesharing a
# single core cannot speed up) for later PRs to regress against.
cargo build --release -p fg-bench --bin bench_parallel || exit 1
$B/bench_parallel > results/bench_parallel.json 2> results/bench_parallel.log || exit 1
stage_done bench_parallel

# GEMM stage: blocked, panel-packed kernel vs the old naive one over the
# MNIST-CNN / server-scoring shapes, 1 vs N threads, with a bitwise
# cross-check between schedules. The 512³ row carries the ≥1.5×
# single-thread acceptance gate. bench_gemm writes per-shape progress to
# stderr, so the .log actually has content now.
cargo build --release -p fg-bench --bin bench_gemm || exit 1
$B/bench_gemm > results/bench_gemm.json 2> results/bench_gemm.log || exit 1
test -s results/bench_gemm.log || exit 1
stage_done gemm

# Scoring stage: the batched audit scorer. Property suite + warm-path
# allocation gate first, then bench_scoring times batched vs sequential
# audit of m parameter sets (1 vs N threads) and hard-asserts all four
# runs produce one bit-identical score vector. physical_cores is recorded
# so multicore hosts can gate on the batched-vs-sequential ratio.
cargo test --release -q -p fg-nn --test batched_props --test alloc_free || exit 1
cargo build --release -p fg-bench --bin bench_scoring || exit 1
$B/bench_scoring > results/bench_scoring.json 2> results/bench_scoring.log || exit 1
test -s results/bench_scoring.log || exit 1
grep -q '"physical_cores"' results/bench_scoring.json || exit 1
grep -q '"bitwise_identical": true' results/bench_scoring.json || exit 1
stage_done scoring

# Aggregation stage: the streaming-equivalence suite pins the O(d) FedAvg
# fold to its buffered reference bit-for-bit (cohort sizes × arrival orders
# × thread counts, plus the in-order peak_bytes == d·4 residency bar);
# warm_workspace holds the median/trimmed-mean zero-allocation warm pass.
cargo test --release -q -p fg-agg --test streaming_equivalence --test warm_workspace || exit 1
stage_done aggregation

# Compression stage: the wire codecs (bf16 / int8 / top-k) on the m=8
# Table-II-CNN cohort (d ≈ 1.66M). bench_compression hard-asserts the
# wire-byte reduction bars (int8 ≥3.5×, bf16 ≥1.9×, top-k(10%) ≥8×), the
# mode-invariant logical comm ledger vs the fg-obs byte counters, frame
# round-trips, and a bit-identical dequantized fold across arrival orders,
# thread counts and the batch oracle. Emits the outcome/objective/metrics
# result.json schema from ROADMAP item 4.
cargo build --release -p fg-bench --bin bench_compression || exit 1
$B/bench_compression > results/bench_compression.json 2> results/bench_compression.log || exit 1
test -s results/bench_compression.log || exit 1
grep -q '"outcome": "success"' results/bench_compression.json || exit 1
grep -q '"fold_bitwise_identical": false' results/bench_compression.json && exit 1
grep -q '"fold_bitwise_identical": true' results/bench_compression.json || exit 1
grep -q '"wire_matches_comm": true' results/bench_compression.json || exit 1
stage_done compression

# Trace stage: (a) span totals must agree with StageTimings on a traced
# 2-round FedGuard run, and stolen-job spans must nest under their logical
# parents; (b) disabled tracing must stay within the overhead budget;
# (c) trace_demo leaves a loadable Chrome-trace profile under results/trace/
# and self-validates it (all seven round stages present, no ring overflow).
cargo test --release -q -p fedguard --test trace || exit 1
cargo test --release -q -p fg-tensor --test trace_overhead || exit 1
cargo build --release -p fg-bench --bin trace_demo || exit 1
mkdir -p results/trace
FG_TRACE=1 $B/trace_demo --threads 4 --rounds 2 --seed 42 \
    > results/trace/trace_demo.out 2> results/trace/trace_demo.log || exit 1
test -s results/trace/fedguard_2round.json || exit 1
grep -q 'round.local_training' results/trace/fedguard_2round_collapsed.txt || exit 1
stage_done trace

# Net stage: the networked deployment mode. fed_server + N fed_client as
# separate processes over loopback TCP, running a seeded 2-round FedGuard
# cell; --check-oracle replays the identical config in-process and the
# server exits non-zero unless the two deployments are bit-identical and
# the wire's model-parameter bytes match the comm.rs accounting exactly.
# The compressed variant reruns the cell under the int8 codec: same
# bit-identity bar (the oracle routes payloads through the same frames),
# plus the server's wire-payload-undercuts-ledger assertion.
cargo test --release -q -p fedguard --test net_equivalence || exit 1
cargo build --release -p fg-bench --bin fed_server --bin fed_client || exit 1
NET_PORT=7963
$B/fed_server --bind 127.0.0.1:$NET_PORT --preset smoke --strategy fedguard \
    --attack sign-flipping --seed 42 --rounds 2 --check-oracle \
    --out results/bench_net.json 2> results/bench_net.log &
NET_SERVER=$!
sleep 1
for i in $(seq 0 9); do
    $B/fed_client --connect 127.0.0.1:$NET_PORT --id $i 2>> results/bench_net.log &
done
wait $NET_SERVER || exit 1
wait
grep -q '"equivalent": true' results/bench_net.json || exit 1
grep -q '"wire_matches_comm": true' results/bench_net.json || exit 1
NET_PORT=7964
$B/fed_server --bind 127.0.0.1:$NET_PORT --preset smoke --strategy fedguard \
    --attack sign-flipping --seed 42 --rounds 2 --check-oracle --compress int8 \
    --out results/bench_net_int8.json 2> results/bench_net_int8.log &
NET_SERVER=$!
sleep 1
for i in $(seq 0 9); do
    $B/fed_client --connect 127.0.0.1:$NET_PORT --id $i 2>> results/bench_net_int8.log &
done
wait $NET_SERVER || exit 1
wait
grep -q '"equivalent": true' results/bench_net_int8.json || exit 1
grep -q '"wire_matches_comm": true' results/bench_net_int8.json || exit 1
grep -q '"wire_payload_smaller_than_logical": true' results/bench_net_int8.json || exit 1
stage_done net

# Ops stage: the operational plane (DESIGN.md §15). A loopback served run
# with the admin socket and telemetry/forensics trails on; curl-style
# scrapes of /metrics and /healthz *mid-run*, the server's own post-run
# scrape-vs-snapshot byte-identity hard-assert, a non-empty forensics
# JSONL, and fg_report joining the two trails into the ROADMAP item-4
# outcome/objective/metrics report.
cargo test --release -q -p fedguard --test forensics_determinism || exit 1
cargo test --release -q -p fg-fl --test ops_plane --test ops_overhead || exit 1
cargo build --release -p fg-bench --bin fg_report || exit 1
NET_PORT=7965
ADMIN_PORT=7966
rm -rf results/telemetry_ops
$B/fed_server --bind 127.0.0.1:$NET_PORT --admin 127.0.0.1:$ADMIN_PORT \
    --preset smoke --strategy fedguard --attack sign-flipping --seed 42 \
    --rounds 3 --telemetry results/telemetry_ops \
    --out results/bench_ops.json 2> results/bench_ops.log &
NET_SERVER=$!
sleep 1
for i in $(seq 0 9); do
    $B/fed_client --connect 127.0.0.1:$NET_PORT --id $i 2>> results/bench_ops.log &
done
# Mid-run scrapes ride the round-boundary polls; retry until a boundary
# after round 0 answers (fl_rounds only registers once a round has
# completed, which is what makes the saved scrape genuinely mid-run).
MIDRUN_OK=0
for _ in $(seq 1 240); do
    if curl -sf --max-time 3 http://127.0.0.1:$ADMIN_PORT/metrics > results/ops_scrape_midrun.txt \
        && grep -q 'fl_rounds' results/ops_scrape_midrun.txt \
        && curl -sf --max-time 3 http://127.0.0.1:$ADMIN_PORT/healthz > results/ops_healthz_midrun.json; then
        MIDRUN_OK=1
        break
    fi
    sleep 0.5
done
test "$MIDRUN_OK" = 1 || exit 1
wait $NET_SERVER || exit 1
wait
grep -q '# TYPE' results/ops_scrape_midrun.txt || exit 1
grep -q 'fl_rounds' results/ops_scrape_midrun.txt || exit 1
grep -q '"status":"ok"' results/ops_healthz_midrun.json || exit 1
# The server hard-asserted scrape-vs-registry-snapshot byte identity
# before exiting 0; make the verdict visible in the report too.
grep -q '"scrape_consistent": true' results/bench_ops.json || exit 1
test -s results/telemetry_ops/fedguard-sign-flipping-s42.forensics.jsonl || exit 1
$B/fg_report --telemetry results/telemetry_ops/fedguard-sign-flipping-s42.jsonl \
    --out results/ops_report.json 2> results/ops_report.log || exit 1
grep -q '"outcome": "success"' results/ops_report.json || exit 1
stage_done ops

$B/fig4 --preset fast --seed 42 > results/fig4.csv 2> results/fig4.log
$B/table4 --preset fast --seed 42 > results/table4.md 2> results/table4.log
$B/fig5 --preset fast --seed 42 > results/fig5.csv 2> results/fig5.log
$B/table5 --preset fast --seed 42 --rounds 6 > results/table5.md 2> results/table5.log
$B/ablation_budget --preset fast --seed 42 > results/ablation_budget.md 2> results/ablation_budget.log
$B/ablation_inner --preset fast --seed 42 > results/ablation_inner.md 2> results/ablation_inner.log
$B/ablation_heterogeneity --preset fast --seed 42 > results/ablation_heterogeneity.md 2> results/ablation_heterogeneity.log
$B/ablation_faults --preset fast --seed 42 > results/ablation_faults.md 2> results/ablation_faults.log
stage_done figures
echo ALL_RESULTS_DONE
