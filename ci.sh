#!/usr/bin/env sh
# The full CI gate, runnable locally: build, offline tests, bench smoke.
#
# The workspace has no external dependencies, so everything here runs with
# CARGO_NET_OFFLINE=true — any accidental registry dependency fails fast
# instead of hanging on an unreachable network.
set -eu

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release (workspace)"
cargo build --workspace --release --offline

echo "==> cargo test (workspace, offline)"
cargo test -q --workspace --offline

echo "==> sweep determinism (1/2/8 worker threads, shuffled input, warm cache)"
cargo test -q -p cyclesteal-sweep --offline --test determinism

echo "==> fault injection (3,000-point sweep, 5% injected faults, 1/2/8 threads)"
cargo test -q -p cyclesteal-sweep --offline --test fault_injection

echo "==> obs determinism (telemetry counts bit-identical across 1/2/8 threads)"
cargo test -q -p cyclesteal-sweep --offline --features obs --test obs_determinism

echo "==> svc telemetry e2e (healthz, scrape-vs-registry bit-match, one count per serving event, slow log, periodic flush)"
# Both builds gate the one-count contract: each serving count is one
# native series (draining sheds included) with or without the obs
# registry. The `drain` suite checks that two `drain` frames plus
# Server::drain count svc.drain.requested once; it owns its test binary
# because the registry is process-global.
cargo test -q -p cyclesteal-svc --offline --test metrics --test drain
cargo test -q -p cyclesteal-svc --offline --features obs --test metrics --test drain

echo "==> batch differential oracle (batched QBD solves bit-identical to scalar)"
# The batched solver is a pure performance transform; these suites are the
# oracle. Random same-shape/mixed-shape/frontier batches shrink on failure,
# the golden suite replays the Figure-4 sweep batched-vs-scalar at 1/2/8
# threads, and the solver's own unit tests cover widths {1, 2, 7, 64}.
# The planner's unit tests and the daemon batch suite carry the key
# contracts: one chain per report key, and no presolve of a key whose
# report or solution is already cached (a WAL-restored daemon included).
cargo test -q --offline --test batch_vs_scalar_props
cargo test -q --offline --test golden_batched
cargo test -q -p cyclesteal-markov --offline batch
cargo test -q -p cyclesteal-sweep --offline batch
cargo test -q -p cyclesteal-svc --offline --test batch

echo "==> (k, m) fleet reduction gate (1x1 bit-identity vs the test-only 2-host oracle + {1,2,4}^2 analysis-vs-sim grid)"
# The one CS-CQ chain builder is only trusted through its reduction: the
# differential suite proves the (1, 1) fleet chain IS the paper's 2-host
# chain, kept as the independent test-only oracle tests/support/two_host.rs
# (same QBD signature, same solution bits, same golden Figure-4 curve),
# then cross-validates every {1,2,4}^2 shape against the fleet simulator;
# the property suite shrinks random workloads over the same invariants,
# and the MAP suite repeats the bit-identity with MAP short arrivals.
cargo test -q --offline --test km_reduction
cargo test -q --offline --test km_props
cargo test -q --offline --test map_reduction

echo "==> CS-ID one builder (Poisson = one-phase MAP, bit for bit) + daemon connection lifecycle"
# cs_id builds one chain, long-host states x MAP phases; its unit tests
# pin the one-phase MAP to the Poisson analysis by to_bits and the
# equal-intensity MMPP to it within 1e-8, and the MAP suite checks the
# product chain against simulation. The lifecycle binary runs alone so
# its fd count shares the process with no other test: 300 closed
# connections must leave no sockets behind while the daemon runs.
cargo test -q -p cyclesteal-core --offline cs_id
cargo test -q --offline --test map_arrivals
cargo test -q -p cyclesteal-svc --offline --test conn_lifecycle

echo "==> rustdoc (every intra-doc link resolves; warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> clippy (incl. unwrap-free non-test code in core and sweep)"
# core and sweep deny clippy::unwrap_used outside tests; warnings anywhere
# in the workspace are promoted to errors so the gate cannot rot.
cargo clippy -q --workspace --offline -- -D warnings

echo "==> bench smoke (--quick)"
cargo bench -p cyclesteal-bench --offline --bench solver -- --quick
cargo bench -p cyclesteal-bench --offline --bench analysis_vs_simulation -- --quick

echo "==> kernel bench: allocations per QBD solve (hard >=5x gate; timings informational)"
# The bench binary itself asserts workspace_allocs * 5 <= reference_allocs
# (counting-allocator probe, deterministic); the re-check below reads the
# emitted metrics so a stale or hand-edited JSON also fails the gate.
# Wall-clock stays report-only: cross-binary timing gates on code layout.
cargo bench -p cyclesteal-bench --offline --bench kernels -- --quick
allocs_ref=$(sed -n 's|.*"id": "allocs/qbd_solve/reference", "value": \([0-9.]*\).*|\1|p' \
    crates/bench/BENCH_kernels.json)
allocs_ws=$(sed -n 's|.*"id": "allocs/qbd_solve/workspace", "value": \([0-9.]*\).*|\1|p' \
    crates/bench/BENCH_kernels.json)
awk -v ref="$allocs_ref" -v ws="$allocs_ws" 'BEGIN {
    if (ref == "" || ws == "" || ref <= 0) { print "kernel gate: missing alloc metrics"; exit 1 }
    printf "qbd solve heap allocations: reference %d, workspace %d (%.1fx fewer)\n", ref, ws, ref / (ws > 0 ? ws : 1)
    if (ws * 5 > ref) { print "kernel gate: workspace path must allocate >= 5x less"; exit 1 }
}'

echo "==> kernel bench: batched throughput (hard >=1.5x gate over scalar)"
# Unlike the cross-binary wall-clock comparisons above, this ratio is
# scalar-vs-batched inside ONE binary on the SAME 64-point Figure-4 grid,
# so code-layout noise largely cancels; the bench asserts it too, and this
# re-check keeps a stale or hand-edited JSON from sneaking past.
pps_scalar=$(sed -n 's|.*"id": "points_per_sec/qbd_scalar", "value": \([0-9.]*\).*|\1|p' \
    crates/bench/BENCH_kernels.json)
pps_batch=$(sed -n 's|.*"id": "points_per_sec/qbd_batch", "value": \([0-9.]*\).*|\1|p' \
    crates/bench/BENCH_kernels.json)
awk -v scalar="$pps_scalar" -v batch="$pps_batch" 'BEGIN {
    if (scalar == "" || batch == "" || scalar <= 0) { print "batch gate: missing points_per_sec metrics"; exit 1 }
    printf "qbd throughput: scalar %.0f points/s, batched %.0f points/s (%.2fx)\n", scalar, batch, batch / scalar
    if (batch < 1.5 * scalar) { print "batch gate: batched solve must clear 1.5x scalar throughput"; exit 1 }
}'

echo "==> obs zero-overhead gate (<1% compiled-but-disabled; cross-build delta informational)"
# The same end-to-end sweep workload, benchmarked in both compile states;
# ids differ only in their /obs_absent vs /obs_compiled_disabled suffix.
# The hard <1% assertion runs *inside* the obs-compiled bench (per-call
# disabled cost x exact record count over the workload's own runtime):
# comparing the two binaries by wall clock would gate on link-time code
# layout, which alone moves this workload by several percent. The
# cross-build min_ns delta is still printed below as a trend line.
rm -rf target/obs-gate
mkdir -p target/obs-gate/off target/obs-gate/on
# Bench binaries run with the package directory as CWD; pass absolute --out.
cargo bench -p cyclesteal-bench --offline --bench obs_overhead -- --out "$PWD/target/obs-gate/off"
cargo bench -p cyclesteal-bench --offline --features obs --bench obs_overhead -- --out "$PWD/target/obs-gate/on"
min_off=$(sed -n 's|.*"id": "obs_overhead/sweep_[0-9]*pt/obs_absent".*"min_ns": \([0-9.]*\).*|\1|p' \
    target/obs-gate/off/BENCH_obs_overhead.json)
min_on=$(sed -n 's|.*"id": "obs_overhead/sweep_[0-9]*pt/obs_compiled_disabled".*"min_ns": \([0-9.]*\).*|\1|p' \
    target/obs-gate/on/BENCH_obs_overhead.json)
awk -v off="$min_off" -v on="$min_on" 'BEGIN {
    if (off == "" || on == "" || off <= 0) { print "obs gate: missing bench results"; exit 1 }
    delta = (on - off) / off * 100.0
    printf "obs cross-build min_ns: absent %.2f ms, compiled-disabled %.2f ms, delta %+.2f%% (informational)\n",
           off / 1e6, on / 1e6, delta
}'
# Merge both runs into one xtest-schema report next to the other benches.
{
    printf '{\n  "harness": "cyclesteal-xtest",\n  "version": 1,\n'
    printf '  "name": "obs_overhead",\n  "quick": false,\n  "results": [\n'
    cat target/obs-gate/off/BENCH_obs_overhead.json \
        target/obs-gate/on/BENCH_obs_overhead.json \
        | grep '"id":' | sed 's/,$//' | sed '$!s/$/,/'
    printf '  ]\n}\n'
} > crates/bench/BENCH_obs_overhead.json

echo "==> sweep bench smoke (--quick)"
cargo run --release --offline --example sweep -- --quick --threads 1,8 --out crates/bench

# Bench binaries run with the package directory as CWD, so the JSON
# lands next to the bench crate; the sweep example writes there via --out.
for f in crates/bench/BENCH_solver.json crates/bench/BENCH_analysis_vs_simulation.json \
         crates/bench/BENCH_sweep.json crates/bench/BENCH_obs_overhead.json \
         crates/bench/BENCH_kernels.json; do
    [ -s "$f" ] || { echo "missing bench output $f" >&2; exit 1; }
done

echo "==> daemon crash-recovery smoke (SIGKILL mid-WAL-append, restart, bit-identical replay)"
# The kill-restart gate, end to end over real TCP and a real filesystem:
# a daemon armed with --kill-after-appends writes a torn WAL record and
# raw-SIGKILLs itself mid-stream; the restarted daemon must truncate the
# torn tail, recover every completed append, and re-serve the full query
# stream byte-identically to a daemon that never crashed.
cargo build --release --offline --example svc_daemon --example svc_client
SVC_DAEMON=target/release/examples/svc_daemon
SVC_CLIENT=target/release/examples/svc_client
SVC_TMP=target/svc-gate
rm -rf "$SVC_TMP"
mkdir -p "$SVC_TMP"

# Waits for "LISTENING <addr>" in $1 and prints the addr.
svc_wait_addr() {
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's/^LISTENING //p' "$1")
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        i=$((i + 1))
        sleep 0.1
    done
    echo "daemon did not start: $1" >&2
    return 1
}

# 1. Arm the crash: die with a torn record after the 7th append (index 6).
"$SVC_DAEMON" --workers 1 --data-dir "$SVC_TMP/crashdir" --kill-after-appends 6 \
    > "$SVC_TMP/d_crash.log" 2>&1 &
svc_pid=$!
svc_addr=$(svc_wait_addr "$SVC_TMP/d_crash.log")
"$SVC_CLIENT" --addr "$svc_addr" stream --count 12 --tolerate-crash > "$SVC_TMP/crashed.txt"
wait "$svc_pid" && { echo "crash gate: daemon should have been SIGKILLed" >&2; exit 1; } || true
grep -q "^CRASHED_AT_QUERY 6$" "$SVC_TMP/crashed.txt" \
    || { echo "crash gate: expected the crash at query 6" >&2; cat "$SVC_TMP/crashed.txt" >&2; exit 1; }

# 2. Restart on the crashed dir: warm recovery must report the torn tail.
"$SVC_DAEMON" --workers 1 --data-dir "$SVC_TMP/crashdir" > "$SVC_TMP/d_recovered.log" 2>&1 &
svc_pid=$!
svc_addr=$(svc_wait_addr "$SVC_TMP/d_recovered.log")
grep -q "recovered: 0 snapshot + 6 wal entries (torn tail truncated)" "$SVC_TMP/d_recovered.log" \
    || { echo "crash gate: wrong recovery" >&2; cat "$SVC_TMP/d_recovered.log" >&2; exit 1; }
"$SVC_CLIENT" --addr "$svc_addr" stream --count 12 > "$SVC_TMP/recovered.txt"
"$SVC_CLIENT" --addr "$svc_addr" drain > /dev/null
wait "$svc_pid"

# 3. Oracle: the same stream against a daemon that never crashed.
"$SVC_DAEMON" --workers 1 --data-dir "$SVC_TMP/freshdir" > "$SVC_TMP/d_oracle.log" 2>&1 &
svc_pid=$!
svc_addr=$(svc_wait_addr "$SVC_TMP/d_oracle.log")
"$SVC_CLIENT" --addr "$svc_addr" stream --count 12 > "$SVC_TMP/oracle.txt"
"$SVC_CLIENT" --addr "$svc_addr" drain > /dev/null
wait "$svc_pid"
cmp "$SVC_TMP/recovered.txt" "$SVC_TMP/oracle.txt" \
    || { echo "crash gate: recovered answers differ from the never-crashed run" >&2; exit 1; }
echo "crash gate: 6 entries recovered, torn tail truncated, 12 replayed answers bit-identical"

echo "==> daemon overload smoke (slowed worker, bounded queue -> structured sheds, live scrape)"
# 10x the daemon's drain rate: a 20-query burst into a 2-slot queue behind
# one 40 ms/query worker — with micro-batching at its default (on), so the
# shed/hint/probe contracts are exercised through the batched drain loop.
# Admitted queries must all complete; the rest must shed as structured
# queue_full rejections with retry hints (the client asserts the shape of
# every shed response AND that every queue_full hint is >= 1 ms — the
# EWMA-priced floor). The /metrics scrape must tell the same story LIVE,
# mid-burst — not only after the dust settles — and the body must be
# valid Prometheus exposition.
"$SVC_DAEMON" --workers 1 --queue 2 --slow-ms 40 --metrics-addr 127.0.0.1:0 \
    > "$SVC_TMP/d_overload.log" 2>&1 &
svc_pid=$!
svc_addr=$(svc_wait_addr "$SVC_TMP/d_overload.log")
i=0
while [ $i -lt 100 ]; do
    metrics_addr=$(sed -n 's/^METRICS //p' "$SVC_TMP/d_overload.log")
    [ -n "$metrics_addr" ] && break
    i=$((i + 1))
    sleep 0.1
done
[ -n "$metrics_addr" ] || { echo "overload gate: daemon printed no METRICS addr" >&2; exit 1; }
"$SVC_CLIENT" --addr "$svc_addr" burst --count 20 > "$SVC_TMP/burst.txt" &
burst_pid=$!
# The 40 ms/query worker holds the overload window open ~800 ms; poll the
# scrape until the queue_full shed counter is visible while the burst is
# still in flight. The client validates the exposition syntax each time.
scraped_live=0
i=0
while [ $i -lt 60 ]; do
    if "$SVC_CLIENT" --addr "$metrics_addr" metrics > "$SVC_TMP/scrape.txt" 2>/dev/null \
        && grep -q '^svc_shed_total{reason="queue_full"} [1-9]' "$SVC_TMP/scrape.txt"; then
        scraped_live=1
        break
    fi
    i=$((i + 1))
    sleep 0.05
done
if [ "$scraped_live" -eq 1 ]; then
    # Probe consistency while the burst is still draining: the health
    # command itself exits non-zero if `queue_depth + in_service` ever
    # undercounts `admitted - completed` (the popped-but-unclaimed race).
    "$SVC_CLIENT" --addr "$metrics_addr" health > /dev/null \
        || { echo "overload gate: mid-burst healthz undercounted in-flight work" >&2; exit 1; }
fi
wait "$burst_pid"
burst=$(cat "$SVC_TMP/burst.txt")
echo "$burst"
if [ "$scraped_live" -eq 1 ]; then
    echo "overload gate: live scrape saw queue_full sheds mid-burst"
else
    # Machine-speed fallback: the burst outran the poll loop; the final
    # scrape must still account for the sheds.
    "$SVC_CLIENT" --addr "$metrics_addr" metrics > "$SVC_TMP/scrape.txt"
    grep -q '^svc_shed_total{reason="queue_full"} [1-9]' "$SVC_TMP/scrape.txt" \
        || { echo "overload gate: scrape never showed a queue_full shed" >&2; cat "$SVC_TMP/scrape.txt" >&2; exit 1; }
    echo "overload gate: sheds confirmed on the post-burst scrape"
fi
grep -q "^METRICS_OK series=" "$SVC_TMP/scrape.txt" \
    || { echo "overload gate: scrape body failed exposition validation" >&2; exit 1; }
health=$("$SVC_CLIENT" --addr "$metrics_addr" health)
echo "$health"
case "$health" in
    *"accepting=true"*) ;;
    *) echo "overload gate: daemon must still be accepting after the burst" >&2; exit 1 ;;
esac
"$SVC_CLIENT" --addr "$svc_addr" drain > /dev/null
wait "$svc_pid"
echo "$burst" | awk '{
    split($2, a, "="); split($3, b, "=");
    if (a[2] < 1) { print "overload gate: no admitted query completed"; exit 1 }
    if (b[2] < 1) { print "overload gate: nothing was shed under 10x load"; exit 1 }
}'

echo "==> batched serving gate (byte-identity vs --no-batch, >=1.2x burst throughput)"
# The tentpole's acceptance gate, end to end over real TCP: the same
# pipelined burst of 128 distinct heavy (2, 2)-fleet points (rho_s from
# 2.0 up, where the QBD solve dominates construction and framing)
# against a batching daemon (--batch 64: one wakeup can drain the whole
# burst) and a --no-batch daemon. At one worker responses arrive in
# admission order, so the transcripts must be byte-identical (cmp); at
# four workers completion order races, so the client sorts both sides
# (--sorted) before the compare. The batching run must also prove it
# actually coalesced (svc_batch_width > 1 on the scrape) and clear 1.2x
# the scalar run's client-measured points/sec; both throughput numbers
# land in crates/bench/BENCH_svc_batch.json.
#
# Each side runs BATCH_REPS interleaved rounds (a fresh daemon per
# round, so every round is a cold-cache burst) and the gate compares
# best-of pps. Wall-clock on a shared/virtualized CI host is noisy in
# exactly one direction -- steal time slows a round, never speeds it --
# so per-side maxima estimate the undisturbed throughput; means or
# single rounds would gate on scheduler luck instead of the pipeline.
BATCH_COUNT=128
BATCH_REPS=6

# Runs one daemon + pipeline burst: svc_batch_run <tag> <workers> <daemon-flags...>
svc_batch_run() {
    tag=$1; wrk=$2; shift 2
    "$SVC_DAEMON" --workers "$wrk" --queue 256 --inflight 256 \
        --metrics-addr 127.0.0.1:0 "$@" > "$SVC_TMP/d_$tag.log" 2>&1 &
    svc_pid=$!
    svc_addr=$(svc_wait_addr "$SVC_TMP/d_$tag.log")
    bm_addr=$(sed -n 's/^METRICS //p' "$SVC_TMP/d_$tag.log")
    sort_flag=""
    [ "$wrk" -gt 1 ] && sort_flag="--sorted"
    "$SVC_CLIENT" --addr "$svc_addr" pipeline --count "$BATCH_COUNT" --hosts 2,2 \
        --rho-base 2.0 $sort_flag \
        > "$SVC_TMP/pipe_$tag.txt" 2> "$SVC_TMP/pipe_$tag.stderr"
    "$SVC_CLIENT" --addr "$bm_addr" metrics > "$SVC_TMP/scrape_$tag.txt"
    "$SVC_CLIENT" --addr "$svc_addr" drain > /dev/null
    wait "$svc_pid"
    grep "^PIPELINE " "$SVC_TMP/pipe_$tag.stderr"
    grep -q "^PIPELINE n=$BATCH_COUNT ok=$BATCH_COUNT " "$SVC_TMP/pipe_$tag.stderr" \
        || { echo "batch gate[$tag]: burst did not fully serve" >&2; exit 1; }
}

r=1
while [ "$r" -le "$BATCH_REPS" ]; do
    svc_batch_run "batched$r" 1 --batch 64
    svc_batch_run "scalar$r" 1 --no-batch
    # Identity must hold on every round, not just a lucky one.
    cmp "$SVC_TMP/pipe_batched$r.txt" "$SVC_TMP/pipe_scalar$r.txt" \
        || { echo "batch gate: batched responses differ from --no-batch at 1 worker (round $r)" >&2; exit 1; }
    # Every batching round must have genuinely coalesced at least one wakeup.
    grep -q '^svc_batch_width \([2-9]\|[0-9][0-9]\)' "$SVC_TMP/scrape_batched$r.txt" \
        || { echo "batch gate: svc_batch_width never exceeded 1 (round $r)" >&2; exit 1; }
    r=$((r + 1))
done
grep '^svc_batch_width ' "$SVC_TMP/scrape_batched1.txt"

svc_batch_run batched_w4 4 --batch 64
svc_batch_run scalar_w4 4 --no-batch
cmp "$SVC_TMP/pipe_batched_w4.txt" "$SVC_TMP/pipe_scalar_w4.txt" \
    || { echo "batch gate: batched responses differ from --no-batch at 4 workers" >&2; exit 1; }
echo "batch gate: $BATCH_COUNT responses byte-identical at 1 and 4 workers"

pps_b=$(cat "$SVC_TMP"/pipe_batched[0-9].stderr \
    | sed -n 's/^PIPELINE .* pps=\([0-9.]*\).*/\1/p' | sort -g | tail -1)
pps_s=$(cat "$SVC_TMP"/pipe_scalar[0-9].stderr \
    | sed -n 's/^PIPELINE .* pps=\([0-9.]*\).*/\1/p' | sort -g | tail -1)
awk -v b="$pps_b" -v s="$pps_s" -v r="$BATCH_REPS" 'BEGIN {
    if (b == "" || s == "" || s <= 0) { print "batch gate: missing pipeline throughput"; exit 1 }
    printf "daemon burst throughput (best of %d): scalar %.1f points/s, batched %.1f points/s (%.2fx)\n", r, s, b, b / s
    if (b < 1.2 * s) { print "batch gate: batched burst must clear 1.2x --no-batch throughput"; exit 1 }
}'
{
    printf '{\n  "harness": "cyclesteal-xtest",\n  "version": 1,\n'
    printf '  "name": "svc_batch",\n  "quick": false,\n  "results": [],\n  "metrics": [\n'
    printf '    {"id": "points_per_sec/daemon_burst_scalar", "value": %s},\n' "$pps_s"
    printf '    {"id": "points_per_sec/daemon_burst_batched", "value": %s}\n' "$pps_b"
    printf '  ]\n}\n'
} > crates/bench/BENCH_svc_batch.json
[ -s crates/bench/BENCH_svc_batch.json ] || { echo "missing bench output BENCH_svc_batch.json" >&2; exit 1; }

echo "==> OK"
