#!/usr/bin/env bash
# Tier-1 gate plus the hermetic-build invariant: everything must build
# and test with --offline, i.e. with zero access to crates.io. See
# README "CI gates" and "Hermetic builds".
set -euo pipefail
cd "$(dirname "$0")"

# Per-stage wall-clock timings, written as machine-readable JSON
# (CI_TIMINGS.json) once every gate is green.
TIMING_NAMES=()
TIMING_SECS=()

# Run a stage: `run <label> <command...>` echoes the full command, times
# it, and records the label for CI_TIMINGS.json.
run() {
    local label=$1
    shift
    echo "==> $*"
    local start=$SECONDS
    "$@"
    local secs=$(( SECONDS - start ))
    echo "    (${label} took ${secs}s)"
    TIMING_NAMES+=("$label")
    TIMING_SECS+=("$secs")
}

# Hand-rolled JSON, mirroring the BenchReport writer: no external
# dependencies, stable key order, one stage object per line.
write_timings() {
    local out=CI_TIMINGS.json
    {
        echo '{'
        echo '  "version": "sno-ci-timings-v1",'
        echo '  "stages": ['
        local i last=$(( ${#TIMING_NAMES[@]} - 1 ))
        for i in "${!TIMING_NAMES[@]}"; do
            local comma=','
            (( i == last )) && comma=''
            printf '    {"stage": "%s", "seconds": %s}%s\n' \
                "${TIMING_NAMES[$i]}" "${TIMING_SECS[$i]}" "$comma"
        done
        echo '  ]'
        echo '}'
    } > "$out"
    echo "wrote $out"
}

# --workspace: the address-space gates below exec target/release/repro,
# which lives in the sno-bench package, not the root package.
run build cargo build --release --offline --workspace
run test cargo test -q --offline --workspace
run examples cargo build --examples --offline
run benches cargo build --benches --offline -p sno-bench
run fmt cargo fmt --check
run clippy cargo clippy --offline --workspace --all-targets -- -D warnings

# Lint gate: the in-tree determinism & hermeticity pass (sno-lint).
# Fails on any diagnostic not excused by a justified allow pragma, and
# ratchets the justified-suppression ledger: the machine-readable report
# lands in target/lint-report.json (gitignored) and its per-rule counts
# are diffed against the committed tests/corpora/lint_baseline.json —
# any increase fails the stage and prints the delta. Shrinking a count
# is fine; re-bless by regenerating the baseline with `sno-lint --json`.
run lint bash -c \
    'cargo run --release --offline -p sno-lint --bin sno-lint -- \
         --json --baseline tests/corpora/lint_baseline.json \
         > target/lint-report.json'

# Perf gate: diff the two newest committed BENCH_N.json trajectory
# snapshots and fail on >20% median regressions (repro --bench-diff),
# after dividing out the machine-speed drift the calibration/spin
# bench measures (snapshots land on whatever box CI gets; baselines
# without the calibration bench are compared advisorily only). The
# same pass enforces the absolute per-bench budgets (fig4a must stay
# under 100 ms) against the newest snapshot, so ten successive
# just-under-20% regressions cannot quietly compound past the ceiling.
# Throughput benches (sessions/second) gate on the same pass but in
# the other direction: they fail when the drift-corrected rate drops
# more than 20%. Skipped until at least two snapshots exist.
mapfile -t snapshots < <(ls BENCH_*.json 2>/dev/null | sort -V)
if (( ${#snapshots[@]} >= 2 )); then
    run perf-gate cargo run --release --offline -p sno-bench --bin repro -- \
        --bench-diff "${snapshots[-2]}" "${snapshots[-1]}"
else
    echo "==> perf gate skipped (fewer than two BENCH_*.json snapshots)"
fi

# Online-equivalence gate: drive the corpus chunk-by-chunk through the
# incremental OnlineIdentifier, then run the batch streamed pipeline
# over the same corpus and fail on any verdict mismatch (acceptance
# bits, catalog, thresholds, per-operator latencies, rendered report).
# Also snapshots a second time, after the no-op compact(), and fails if
# that answer diverges from the batch run. The steady-state snapshot latency itself
# is budgeted in the perf gate above: BUDGETS in repro.rs caps
# online_snapshot_steady (the incremental, post-warm-up snapshot) at an
# absolute ceiling, so snapshot() silently regressing back to
# O(corpus) full replay fails CI even without a baseline to diff.
run online-gate cargo run --release --offline -p sno-bench --bin repro -- \
    --online --verify-batch --scale 2e-3

# Output gate: repro's stdout for every experiment at the default scale
# must equal the committed tests/corpora/repro_default.txt byte for byte,
# at the default settings, at one thread and with chunked generation.
# A change that is meant to alter a figure regenerates the file with
# `./target/release/repro > tests/corpora/repro_default.txt` and says so.
repro_golden() {
    local golden=tests/corpora/repro_default.txt args
    for args in "" "--threads 1" "--chunk 4096"; do
        # $args is unquoted on purpose: it splits into flags.
        # shellcheck disable=SC2086
        if ! ./target/release/repro $args 2>/dev/null | diff -u "$golden" -; then
            echo "repro ${args:-(defaults)}: stdout differs from $golden" >&2
            return 1
        fi
    done
}
run repro-golden repro_golden

# Benchmark gate: the repository benchmark's own output checks, briefly.
# Builds benches/snobench (its own package, so the workspace lock file is
# untouched), then runs each workload for 2 s with tracing on. Every op's
# report must match a reference identification, and a traced run also
# re-derives run_streamed's report through the public functions the
# benchmark splits it into, so API drift or a decomposition mismatch
# that would break the benchmark fails here. The benchmark exits 0 either
# way; the gate reads its JSON result line (the last line of stdout) and
# fails unless it says "correct": true and "failed": 0.
snobench_gate() {
    local manifest=benches/snobench/Cargo.toml workload out last
    cargo build --release --offline --quiet --manifest-path "$manifest"
    for workload in batch online-feed online-poll; do
        out=$(cargo run --release --offline --quiet --manifest-path "$manifest" -- \
            --workload "$workload" --seed 1 --seconds 2 --trace 1)
        echo "$out"
        last=$(tail -n 1 <<<"$out")
        if ! grep -Eq '^\{"correct": true, "attempted": [1-9][0-9]*, "failed": 0, ' <<<"$last"; then
            echo "snobench ${workload}: the result line does not report a correct run with no failed ops" >&2
            return 1
        fi
    done
}
run snobench snobench_gate

# Sim gate: the deterministic fault-injection campaign. Replays the
# committed failure corpus first, then SNO_CI_SEEDS fresh seeds; any
# failure prints a `repro --sim-sweep --seed <S>` replay line.
run sim-gate cargo run --release --offline -p sno-bench --bin repro -- \
    --sim-sweep --seeds "${SNO_CI_SEEDS:-32}" --quick

# Memory gate: the streamed pipeline must stay bounded at a dense
# corpus. The ceiling (24 MiB of address space) is ~2x the streamed
# run's measured peak and well below the ~35 MiB the materialized path
# needs at this scale, so accidentally materializing the corpus inside
# the streamed path trips the limit. ulimit lives in the child shell
# so it does not leak into later stages.
#
# Both address-space gates run with MALLOC_ARENA_MAX=1. `ulimit -v`
# counts virtual address space, and glibc reserves 64 MiB of it for
# each extra malloc arena it hands a worker thread, filled or not. The
# 1-core reference box that sized these ceilings creates no worker
# arenas; on a 2-vCPU box the paper-scale run's VmPeak is ~350 MB with
# default arenas vs ~49 MB with one, for the same ~29 MB resident peak
# (VmHWM), and the memory gate's ~346 MB vs ~21 MB. One arena makes the
# ceilings count data again (the materialized path still aborts under
# the memory gate's); the ceilings, scales and budgets themselves are
# unchanged. Measured again with one arena on a 2-vCPU box once the
# accept decisions replayed from pass-1 state (two-pass → replay):
# this gate's run 15.9-18.0 → 8.4-8.6 s, VmHWM 9.1-9.2 → 9.3-10.6 MB,
# VmPeak 17.5-19.6 → 17.5-19.2 MB; see README "CI gates".
run memory-gate bash -c \
    'export MALLOC_ARENA_MAX=1; ulimit -v 24576; exec ./target/release/repro table1 --scale 2e-2 --chunk 4096 >/dev/null'

# Paper-scale gate: the streamed pipeline drives a paper-sized corpus
# end to end — chunked generation, a parallel statistics pass and the
# accept replay, heartbeats for liveness — under a wall-clock budget
# (timeout) and an address-space ceiling sized at ~2x the measured run
# (see README "CI gates" for the numbers). Routine CI runs
# SNO_CI_SCALE=1e-1 (measured
# 113 s wall / 40 MB address-space peak on the 1-core reference box
# with the two-pass pipeline; with the replay, on a 2-vCPU box with
# one arena, 83.5-87.8 → 41.9-44.3 s, VmHWM 24.4-24.7 → 26.4-27.1 MB,
# VmPeak 41.4-45.1 → 45.1-45.5 MB); nightly runs the full paper volume
# (measured 1107 s / 278 MB; on the 2-vCPU box 767 → 379 s, VmPeak
# 250.8 → 284.6 MB) with
#   SNO_CI_SCALE=1 SNO_CI_BUDGET_S=2400 SNO_CI_ULIMIT_KB=573440 ./ci.sh
SNO_CI_SCALE="${SNO_CI_SCALE:-1e-1}"
SNO_CI_BUDGET_S="${SNO_CI_BUDGET_S:-600}"
SNO_CI_ULIMIT_KB="${SNO_CI_ULIMIT_KB:-81920}"
run paper-scale-gate bash -c \
    "export MALLOC_ARENA_MAX=1; ulimit -v ${SNO_CI_ULIMIT_KB}; exec timeout ${SNO_CI_BUDGET_S} \
     ./target/release/repro table1 --scale ${SNO_CI_SCALE} --chunk 4096 --progress 2000000 >/dev/null"

write_timings
echo "ci: all green (hermetic)"
