#!/usr/bin/env bash
# Chaos sweep for the replication fault-injection subsystem.
#
# 1. Runs the fault_test chaos harness (20-seed sweep across every fault
#    profile: convergence, no replica errors, no asserts).
# 2. Runs the CLI twice with the same fault seed and diffs the exported
#    metrics + trace byte-for-byte: the end-to-end determinism contract.
#    Once on postgres-sr (one primary, one standby) and once on tidb-dist
#    (three shards, one standby chain each).
# 3. Sweeps hattrick_cli across fault seeds to prove no schedule can
#    crash a full benchmark run.
#
# Usage: scripts/chaos.sh [seeds]   (default 20)
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${1:-20}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target fault_test hattrick_cli

echo "== fault_test: chaos sweep =="
./build/tests/fault_test

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

run_cli() {  # run_cli <system> <seed> <suffix>
  ./build/tools/hattrick_cli point --system="$1" --sf=0.5 \
      --t=2 --a=1 --warmup=0.05 --measure=0.2 \
      --fault-profile=chaos --fault-seed="$2" \
      --metrics-out="$TMP/m$3.json" --trace-out="$TMP/t$3.json" \
      > "$TMP/stdout$3.txt"
}

check_same_seed() {  # check_same_seed <system>
  run_cli "$1" 7 a
  run_cli "$1" 7 b
  diff "$TMP/ma.json" "$TMP/mb.json" \
    || { echo "FAIL: $1 same-seed metrics diverged" >&2; exit 1; }
  diff "$TMP/ta.json" "$TMP/tb.json" \
    || { echo "FAIL: $1 same-seed traces diverged" >&2; exit 1; }
  # The report prints the output paths in '#' comment lines; compare the
  # measured values only.
  diff <(grep -v '^#' "$TMP/stdouta.txt") <(grep -v '^#' "$TMP/stdoutb.txt") \
    || { echo "FAIL: $1 same-seed reports diverged" >&2; exit 1; }
}

echo "== CLI same-seed determinism: postgres-sr =="
check_same_seed postgres-sr
echo "== CLI same-seed determinism: tidb-dist =="
check_same_seed tidb-dist

echo "== CLI fault-seed sweep (1..$SEEDS) =="
for seed in $(seq 1 "$SEEDS"); do
  for profile in drop crash chaos; do
    ./build/tools/hattrick_cli point --system=postgres-sr --sf=0.25 \
        --t=2 --a=1 --warmup=0.05 --measure=0.1 \
        --fault-profile="$profile" --fault-seed="$seed" >/dev/null \
      || { echo "FAIL: profile=$profile seed=$seed" >&2; exit 1; }
  done
  echo -n "."
done
echo
echo "OK"
