#!/bin/bash
# Lint gate + regeneration of every table/figure of the paper at the fast
# preset. Telemetry trails land under results/telemetry/ (one JSONL per run).
# Each stage prints a "[suite] stage <name>: <N>s" wall-clock line so
# runtime regressions are visible across the stages.
set -x
cd "$(dirname "$0")" || exit 1

STAGE_T0=$(date +%s)
stage_done() {
    local now
    now=$(date +%s)
    echo "[suite] stage $1: $((now - STAGE_T0))s"
    STAGE_T0=$now
}

# Lint stage: formatting and clippy (workspace-wide, all targets) must be
# clean before results count.
cargo fmt --check || exit 1
cargo clippy --workspace --all-targets -- -D warnings || exit 1
stage_done lint

# Benchmark-contract stage: bench_e2e is a package of its own (not a
# workspace member), so nothing above compiles it. Its tests build the
# frozen benchmark against this tree's public API, so an API break fails
# here rather than in the benchmark run.
cargo test --offline --manifest-path bench_e2e/Cargo.toml || exit 1
stage_done bench_e2e_contract

# Test stage: every correctness gate lives in `cargo test` — fault replay,
# schedule invariance, batched-audit and streaming-fold equivalence, the
# allocation-free warm paths, codec/wire fuzz, loopback-TCP equivalence,
# forensics determinism, trace consistency and the overhead budgets. One
# workspace-wide run, so a new test file cannot be forgotten here. (Timing
# lives in bench_e2e; see BENCHMARK.json.)
cargo test --release -q || exit 1
stage_done test

B=target/release

# Trace stage: trace_demo leaves a loadable Chrome-trace profile under
# results/trace/ and self-validates it (all seven round stages present, no
# ring overflow).
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

$B/fig4 --preset fast --seed 42 > results/fig4.csv 2> results/fig4.log || exit 1
$B/table4 --preset fast --seed 42 > results/table4.md 2> results/table4.log || exit 1
$B/fig5 --preset fast --seed 42 > results/fig5.csv 2> results/fig5.log || exit 1
$B/table5 --preset fast --seed 42 --rounds 6 > results/table5.md 2> results/table5.log || exit 1
$B/ablation_budget --preset fast --seed 42 > results/ablation_budget.md 2> results/ablation_budget.log || exit 1
$B/ablation_inner --preset fast --seed 42 > results/ablation_inner.md 2> results/ablation_inner.log || exit 1
$B/ablation_heterogeneity --preset fast --seed 42 > results/ablation_heterogeneity.md 2> results/ablation_heterogeneity.log || exit 1
$B/ablation_faults --preset fast --seed 42 > results/ablation_faults.md 2> results/ablation_faults.log || exit 1
stage_done figures
echo ALL_RESULTS_DONE
