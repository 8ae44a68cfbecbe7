#!/usr/bin/env bash
# Topology smoke: the realistic-topology pipeline end to end. One
# script drives the whole sim-topo surface — e14's scorecard (with its
# in-report asserts that the quadrant/spine trees strictly dominate
# the equalized H-tree on worst-pair skew, every SDF fixture imports
# and round-trips byte-identically, and every malformed fixture dies
# with a structured error), its skew-attribution trace back through
# the checker, the quadrant cells in the design-space frontier, and
# the BENCH_e14.json snapshot against the committed baseline.
#
# Usage: scripts/topo_smoke.sh [BIN_DIR]
#   BIN_DIR   directory holding experiments/explore/trace_check/
#             bench_regress (default target/release)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release}"
OUT=target/bench/topo_smoke
rm -rf "$OUT"
mkdir -p "$OUT"

fail() {
    echo "topo_smoke: $*" >&2
    exit 1
}

run() {
    echo "==> $*"
    "$@"
}

# --- e14: the topology scorecard -------------------------------------
# The experiment asserts in-report: quadrant worst-pair skew strictly
# exceeds the equalized H-tree at every size, the Monte-Carlo max
# respects the analytic worst case, the GCS log-diameter line
# undercuts the passive tree, and the whole SDF corpus behaves.
run "$BIN/experiments" e14 --fast --trace "$OUT/e14_trace.json" \
    | tee "$OUT/e14.log"
grep -q "\[OK\]" "$OUT/e14.log" || fail "e14 in-report asserts did not pass"
grep -q "quad s1f2" "$OUT/e14.log" || fail "e14 report lost its topology table"
grep -q "round-trip exact" "$OUT/e14.log" \
    || fail "e14 report lost its SDF round-trip verdicts"
grep -q "rejected (SDF" "$OUT/e14.log" \
    || fail "e14 report lost its malformed-fixture verdicts"
grep -q "dominant edge" "$OUT/e14.log" \
    || fail "e14 report lost its attribution worked example"
# Skew attributions ride the trace as checker-aware samples.
run "$BIN/trace_check" "$OUT/e14_trace.json"
grep -q "skew_sample" "$OUT/e14_trace.json.txt" \
    || fail "e14 trace must carry skew_sample attributions"
echo "==> e14 topology asserts hold and its attribution trace checks out"

# --- The quadrant cells ride the design-space grid -------------------
MANIFEST="$OUT/manifest.json"
run "$BIN/explore" --fast --seed 13 --trials 6 --emit-manifest "$MANIFEST"
grep -q '"quadrant"' "$MANIFEST" || fail "manifest must include quadrant cells"
run "$BIN/explore" --fast --seed 13 --trials 6 --threads 2 | tee "$OUT/frontier.log"
grep -Eq "quadrant/k=[0-9]+@r=" "$OUT/frontier.log" \
    || fail "quadrant cells must appear in the frontier table"
echo "==> quadrant topology cells score in the design-space frontier"

# --- Regression gate: the e14 snapshot vs its committed baseline -----
run "$BIN/bench_regress" --fast --only e14 --out "$OUT/bench" --baselines baselines
run "$BIN/bench_regress" --compare "$OUT/bench/BENCH_e14.json" --baselines baselines

echo "==> topo smoke passed"
