#!/usr/bin/env sh
# Pre-merge gate for the power-bounded workspace. Everything here must
# pass offline: no network, no registry crates, just the Rust toolchain.
#
#   sh scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

# The commit the bench history records of this run measure: the short
# hash, marked `-dirty` when the working tree differs from it (a change
# under review is measured before it is committed). Taken first, before
# any step below rewrites BENCH_*.json or the history file.
run_commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    run_commit="${run_commit}-dirty"
fi

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> every feature builds offline (cargo check --all-features)"
# A feature that needs a registry crate cannot build here; this step
# keeps such a placeholder from coming back.
cargo check -q --workspace --all-features --offline

echo "==> workspace tests (every crate, including the pbc-lint suite)"
# The root facade crate already ran in the tier-1 step above; exclude it
# so its suite is not paid twice.
cargo test -q --workspace --exclude power-bounded-computing

echo "==> pbc-lint gate (lint-baseline.toml ratchet; <10s budget)"
# Build untimed, then time only the scan itself. A full-workspace scan
# that creeps past 10 seconds means the AST/dataflow passes regressed.
cargo build -q --release -p pbc-lint
lint_start=$(date +%s)
cargo run -q --release -p pbc-lint -- --format json > target/pbc-lint-report.json
lint_secs=$(( $(date +%s) - lint_start ))
echo "    report: target/pbc-lint-report.json (${lint_secs}s)"
if [ "$lint_secs" -ge 10 ]; then
    echo "error: pbc-lint took ${lint_secs}s; the full-workspace budget is <10s" >&2
    exit 1
fi

echo "==> dependency audit: workspace must be self-contained"
# `cargo tree` prints one line per dependency edge; every crate in this
# workspace is named pbc-* (plus the root facade crate), so any other
# crate name is a foreign dep.
if cargo tree --workspace --edges normal,build --prefix none \
    | awk 'NF {print $1}' | sort -u \
    | grep -v -e '^pbc-' -e '^power-bounded-computing$'; then
    echo "error: non-workspace crates in the dependency graph (above)" >&2
    exit 1
fi

echo "==> bench smoke (no timing claims, just 'still runs')"
cargo test -q -p pbc-bench --benches

echo "==> trace round-trip (sweep accounting law, via a real trace file)"
cargo test -q -p pbc-core --test trace_roundtrip
cargo test -q -p pbc-cli --test trace_flag

echo "==> chaos smoke (fault-plan survival + counter laws, via a real trace file; report == trace)"
cargo test -q -p pbc-cli --test chaos_smoke
cargo test -q --test chaos_properties
cargo test -q -p pbc-faults --test report_agrees_with_trace

echo "==> cluster smoke (fleet coordination beats uniform split; dropout cluster-chaos, via a real trace file)"
cargo test -q -p pbc-cli --test cluster_smoke

echo "==> cluster-chaos smoke (fleet fault tolerance: seed sweep + trace invariants; report == trace)"
cargo test -q -p pbc-cli --test cluster_chaos_smoke
cargo test -q -p pbc-cluster --test fault_tolerance
cargo test -q -p pbc-cluster --test report_agrees_with_trace
# The pinned fleet reports must hold whatever the executor count: one
# executor (the caller runs every chunk) and an oversubscribed pool. The
# epochs run on the calling thread; the count reaches only the fleet's
# class sweeps in `Fleet::build`.
PBC_THREADS=1 cargo test -q -p pbc-cluster --test golden_replay
PBC_THREADS=3 cargo test -q -p pbc-cluster --test golden_replay
# Drive the shipped binary through the worst plan once and hold the two
# survival laws from the emitted trace file, under a wall-clock timeout
# where the host provides one (a wedged retry loop must fail the gate,
# not hang it).
cargo build -q --release -p pbc-cli
chaos_spec=target/cluster-chaos-spec.txt
chaos_trace=target/cluster-chaos-trace.jsonl
printf '4 ivybridge stream\n2 haswell dgemm\n2 titan-xp sgemm\n' > "$chaos_spec"
rm -f "$chaos_trace"
chaos_runner=""
if command -v timeout >/dev/null 2>&1; then chaos_runner="timeout 120"; fi
$chaos_runner ./target/release/pbc cluster-chaos -p "$chaos_spec" -b 1050 \
    --plan everything --seed 42 --trace "$chaos_trace" > /dev/null \
    || { echo "error: pbc cluster-chaos failed or timed out" >&2; exit 1; }
grep -q '{"type":"counter","name":"cluster.budget_violations","value":0}' "$chaos_trace" \
    || { echo "error: cluster.budget_violations != 0 in $chaos_trace" >&2; exit 1; }
grep -q '{"type":"counter","name":"health.quarantine_leaks","value":0}' "$chaos_trace" \
    || { echo "error: health.quarantine_leaks != 0 in $chaos_trace" >&2; exit 1; }
echo "    trace laws held: cluster.budget_violations == 0, health.quarantine_leaks == 0"

echo "==> fairness gate (max-min tenants under a noisy neighbor: no overdraw, no starved floor, calm-state Jain)"
# Same fleet, worst multi-tenant plan: a noisy neighbor inflating one
# tenant's demand mid-epoch must never overdraw the global budget or
# starve a weighted tenant below its floor, and once the plan goes
# quiet the weight-normalized split must settle back to fair. The
# cluster.tenant_jain gauge in the exported trace is the final
# (calm-state) epoch's value.
fair_trace=target/cluster-fairness-trace.jsonl
rm -f "$fair_trace"
$chaos_runner ./target/release/pbc cluster-chaos -p "$chaos_spec" -b 1050 \
    --plan noisy-neighbor --seed 42 --objective max-min \
    --tenants web:3:gold,etl:2:silver,batch:1 --trace "$fair_trace" > /dev/null \
    || { echo "error: pbc cluster-chaos (fairness) failed or timed out" >&2; exit 1; }
grep -q '{"type":"counter","name":"cluster.budget_violations","value":0}' "$fair_trace" \
    || { echo "error: cluster.budget_violations != 0 in $fair_trace" >&2; exit 1; }
grep -q '{"type":"counter","name":"cluster.tenant_floor_violations","value":0}' "$fair_trace" \
    || { echo "error: cluster.tenant_floor_violations != 0 in $fair_trace" >&2; exit 1; }
jain=$(grep '"name":"cluster.tenant_jain"' "$fair_trace" \
    | tail -n 1 | sed 's/.*"value"://; s/[^0-9.].*//')
test -n "$jain" || { echo "error: no cluster.tenant_jain gauge in $fair_trace" >&2; exit 1; }
awk -v j="$jain" 'BEGIN { exit (j >= 0.95 ? 0 : 1) }' \
    || { echo "error: calm-state Jain index ${jain} is below the 0.95 bar" >&2; exit 1; }
echo "    trace laws held: no overdraw, no floor violations, calm-state Jain ${jain} >= 0.95"

echo "==> reproduction gate (pbc repro all rewrites results/ byte for byte)"
# Every published figure and table must trace back to the code that made
# it: a fresh run writes exactly the CSV files results/ holds, with the
# same bytes, and prints exactly results/repro_all_output.txt.
repro_dir=target/repro-csv
rm -rf "$repro_dir"
./target/release/pbc repro all --out "$repro_dir" > target/repro-all.txt \
    || { echo "error: pbc repro all failed" >&2; exit 1; }
(cd results && ls -- *.csv) > target/repro-committed.txt
(cd "$repro_dir" && ls -- *.csv) > target/repro-fresh.txt
cmp -s target/repro-committed.txt target/repro-fresh.txt || {
    echo "error: results/ and a fresh pbc repro all hold different CSV files:" >&2
    diff target/repro-committed.txt target/repro-fresh.txt >&2
    exit 1
}
while read -r csv; do
    cmp -s "results/$csv" "$repro_dir/$csv" \
        || { echo "error: results/$csv differs from a fresh pbc repro all" >&2; exit 1; }
done < target/repro-fresh.txt
cmp -s results/repro_all_output.txt target/repro-all.txt \
    || { echo "error: pbc repro all printed other text than results/repro_all_output.txt" >&2; exit 1; }
echo "    $(wc -l < target/repro-fresh.txt | tr -d ' ') CSVs and the printed tables identical to results/"

echo "==> serve smoke (daemon round trips, drain laws, replay equivalence, hostile input, over-long lines, handler threads released, via real sockets)"
cargo test -q -p pbc-serve --test replay_equivalence
cargo test -q -p pbc-serve --test drain
cargo test -q -p pbc-serve --test hostile_input
cargo test -q -p pbc-serve --test long_lines
cargo test -q -p pbc-serve --test handler_threads
cargo test -q -p pbc-cli --test serve_smoke
# The shipped daemon, with a stdout reader that stops after one line: the
# `ping` fed a second later fails to print, which must end the stdin
# session with a drain and exit 0, not a panic. POSIX sh has no
# PIPESTATUS, so the daemon's exit code goes through a file.
serve_runner=""
if command -v timeout >/dev/null 2>&1; then serve_runner="timeout 120"; fi
closed_snap=target/serve-closed-stdout-snapshot.jsonl
closed_err=target/serve-closed-stdout.err
closed_code=target/serve-closed-stdout.code
rm -f "$closed_snap" "$closed_snap.tmp" "$closed_err" "$closed_code"
{ sleep 1; echo ping; } \
    | { code=0; $serve_runner ./target/release/pbc serve --snapshot "$closed_snap" \
            2> "$closed_err" || code=$?; echo "$code" > "$closed_code"; } \
    | head -n 1 > /dev/null
test "$(cat "$closed_code")" = 0 \
    || { echo "error: pbc serve exited $(cat "$closed_code") after its stdout closed" >&2; exit 1; }
if grep -q panicked "$closed_err"; then
    echo "error: pbc serve panicked after its stdout closed: $closed_err" >&2; exit 1
fi
grep -q '"name":"serve.requests"' "$closed_snap" \
    || { echo "error: no serve.requests in the final snapshot $closed_snap" >&2; exit 1; }
if [ -e "$closed_snap.tmp" ]; then
    echo "error: pbc serve left its staging file $closed_snap.tmp behind" >&2; exit 1
fi
echo "    closed stdout: pbc serve drained and exited 0"

echo "==> timed benches (append machine-readable records to BENCH_sweep.json)"
# BENCH_sweep.json is the *fresh-file* gate input: it must contain only
# this run's records, so the ratio greps below can never match a stale
# line. The history of every run is kept separately under results/.
# A bench that misses its own bar panics; both benches still run and
# every gate below is still evaluated, so a failing run leaves its
# records in the history too, stamped "gate":"failed", before the
# script fails.
rm -f BENCH_sweep.json
gate=passed
gate_fail() { echo "error: $1" >&2; gate=failed; }
PBC_BENCH_JSON="$PWD/BENCH_sweep.json" cargo bench -q -p pbc-bench --bench sweep \
    || gate_fail "the sweep bench failed (above)"
PBC_BENCH_JSON="$PWD/BENCH_sweep.json" cargo bench -q -p pbc-bench --bench fastpath \
    || gate_fail "the fastpath bench failed (above)"
if test -s BENCH_sweep.json; then
    echo "    records: BENCH_sweep.json"
else
    gate_fail "benches wrote no records"
    touch BENCH_sweep.json
fi

echo "==> shared-grid oracle speedup gate (curve >= 2x over per-budget sweeps)"
# The sweep bench records the curve-vs-independent median ratio as a
# "type":"bench-ratio" line; the optimization must hold its 2x bar.
ratio=$(grep '"type":"bench-ratio"' BENCH_sweep.json \
    | grep '"name":"sweep/curve-vs-budgets-speedup"' \
    | sed 's/.*"ratio"://; s/[^0-9.].*//')
if test -z "$ratio"; then
    gate_fail "no bench-ratio record in BENCH_sweep.json"
elif awk -v r="$ratio" 'BEGIN { exit (r >= 2.0 ? 0 : 1) }'; then
    echo "    curve speedup: ${ratio}x"
else
    gate_fail "curve speedup ${ratio}x is below the 2x bar"
fi

echo "==> steady-state fast path gate (table-served set_budget >= 10x over a cold solve)"
# The fastpath bench records the set_budget-vs-direct-solve median ratio;
# the sub-microsecond serving claim must hold its 10x bar.
fp_ratio=$(grep '"type":"bench-ratio"' BENCH_sweep.json \
    | grep '"name":"fastpath/set-budget-vs-cold-solve"' \
    | sed 's/.*"ratio"://; s/[^0-9.].*//')
if test -z "$fp_ratio"; then
    gate_fail "no fastpath bench-ratio record in BENCH_sweep.json"
elif awk -v r="$fp_ratio" 'BEGIN { exit (r >= 10.0 ? 0 : 1) }'; then
    echo "    fast-path speedup: ${fp_ratio}x"
else
    gate_fail "fast-path speedup ${fp_ratio}x is below the 10x bar"
fi

echo "==> partitioner scaling gate (water-fill per-node cost at 4096 nodes <= 2.5x that at 32)"
# The sweep bench records the 4096-node fill's per-node median over the
# 32-node fill's. The fill indexes share levels, not nodes, and replays
# one node's grants across its identical class-mates, so its per-node
# cost must not grow with the fleet; a per-quantum rescan of every node
# grows with N and measured 94x.
fill_ratio=$(grep '"type":"bench-ratio"' BENCH_sweep.json \
    | grep '"name":"cluster/water-fill-per-node-4096-vs-32"' \
    | sed 's/.*"ratio"://; s/[^0-9.].*//')
if test -z "$fill_ratio"; then
    gate_fail "no water-fill bench-ratio record in BENCH_sweep.json"
elif awk -v r="$fill_ratio" 'BEGIN { exit (r <= 2.5 ? 0 : 1) }'; then
    echo "    water-fill per-node cost, 4096 vs 32 nodes: ${fill_ratio}x"
else
    gate_fail "water-fill per-node cost grows ${fill_ratio}x from 32 to 4096 nodes (bar: 2.5x)"
fi

echo "==> bench history (run-stamped append under results/)"
# Every run's records are preserved, passing or failing, stamped with
# the UTC time, the commit taken at the start of the run and the gates'
# verdict, so timing trajectories survive the per-run rm -f above.
mkdir -p results
run_stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
sed "s/^{/{\"run\":\"${run_stamp}\",\"commit\":\"${run_commit}\",\"gate\":\"${gate}\",/" \
    BENCH_sweep.json >> results/bench_history.jsonl
# The code-size trajectory: Rust lines in the workspace sources.
rust_lines=$(find crates src tests examples -name '*.rs' -type f -exec cat {} + | wc -l | tr -d ' ')
echo "{\"run\":\"${run_stamp}\",\"commit\":\"${run_commit}\",\"type\":\"loc\",\"name\":\"workspace/rust-lines\",\"lines\":${rust_lines}}" \
    >> results/bench_history.jsonl
echo "    history: results/bench_history.jsonl (${run_stamp} @ ${run_commit}, gate ${gate}; ${rust_lines} Rust lines)"
test "$gate" = passed \
    || { echo "error: the bench gates failed (above); their records are in the history as \"gate\":\"failed\"" >&2; exit 1; }

echo "==> serve-bench gate (>= 100k queries/sec sustained, p99 dispatch < 50 us)"
# Load-test the shipped daemon binary: 1024 simulated nodes over two
# pipelined TCP connections (64 deep) for 1.5 s, dispatch latency over
# the identical in-process path (docs/SERVING.md). Fresh-file rule as
# for BENCH_sweep.
rm -f BENCH_serve.json
$serve_runner ./target/release/pbc serve-bench --save BENCH_serve.json > /dev/null \
    || { echo "error: pbc serve-bench failed or timed out" >&2; exit 1; }
test -s BENCH_serve.json || { echo "error: serve-bench wrote no record" >&2; exit 1; }
qps=$(grep '"type":"serve-bench"' BENCH_serve.json \
    | sed 's/.*"qps"://; s/[^0-9.].*//')
p99_us=$(grep '"type":"serve-bench"' BENCH_serve.json \
    | sed 's/.*"p99_us"://; s/[^0-9.].*//')
test -n "$qps" && test -n "$p99_us" \
    || { echo "error: BENCH_serve.json is missing qps/p99_us" >&2; exit 1; }
awk -v q="$qps" 'BEGIN { exit (q >= 100000 ? 0 : 1) }' \
    || { echo "error: serve-bench qps ${qps} is below the 100k floor" >&2; exit 1; }
awk -v p="$p99_us" 'BEGIN { exit (p < 50 ? 0 : 1) }' \
    || { echo "error: serve-bench p99 ${p99_us}us breaks the 50us ceiling" >&2; exit 1; }
sed "s/^{/{\"run\":\"${run_stamp}\",\"commit\":\"${run_commit}\",/" \
    BENCH_serve.json >> results/bench_history.jsonl
echo "    serve: ${qps} queries/sec, p99 ${p99_us}us (BENCH_serve.json; history appended)"

echo "all checks passed"
