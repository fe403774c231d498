#!/usr/bin/env bash
# Single local entry point for every check CI runs.
#
# Legs (default: build, lint, tsan — the pre-push basics):
#   build    regular RelWithDebInfo build + full ctest suite
#   lint     hattrick-lint determinism/locking-hygiene checks (tools/lint)
#   tsan     ThreadSanitizer build, thread-heavy tests (ctest -L tsan)
#   merge-bitmap  full ctest suite + tsan-labeled tests with
#            HATTRICK_MERGE_MODE=bitmap (the versioned-column-store
#            protocol; reuses the build/build-tsan trees)
#   asan     AddressSanitizer (+LSan) build, full ctest suite
#   ubsan    UndefinedBehaviorSanitizer build, full ctest suite
#   analyze  Clang -Wthread-safety -Werror build (HATTRICK_ANALYZE=ON);
#            skipped with a notice when clang++ is not installed
#   analyze-ast  hattrick-analyzer semantic passes (tools/analyzer):
#            whole-program lock-order cycle detection, pin/latch
#            protocol, determinism-by-type, exhaustive protocol
#            switches. Needs only the compile database (configure, no
#            build); pure python, so it never skips
#   tidy     clang-tidy over src/ using the compile database; skipped
#            with a notice when clang-tidy is not installed
#   bench-smoke  bench_runner at smoke scale diffed against the
#            checked-in bench/BENCH_smoke.json via
#            scripts/bench_compare.py (perf-regression gate)
#   contention-smoke  randomized commit-storm suite (commit_storm_test)
#            under ThreadSanitizer in both merge modes (default and
#            HATTRICK_MERGE_MODE=bitmap)
#   shard-smoke  full ctest suite with HATTRICK_SHARDS=4 (every
#            tidb-dist construction goes through the 4-shard engine),
#            plus the cross-shard 2PC storm (shard_test) under
#            ThreadSanitizer
#   wallbench-build  compile-only: configures wallbench/ (the wall-clock
#            benchmark harness) into build-wallbench and builds it, so a
#            src/ API change that breaks the harness fails here; the
#            benchmark itself is not run
#   figures  rebuilds every fig*/ablation_* target named in
#            bench/CMakeLists.txt, runs each as its own process (one per
#            core at a time) and diffs the SHA-256 of each one's stdout
#            against bench/FIGURES.sha256 ("figures unchanged" in one
#            command). The comparison is exact; the file's `#` header
#            names the compiler and build type that made the digests,
#            and the leg prints its own, so a toolchain mismatch can be
#            told apart from a figure change. Slow (tens of minutes), so
#            not part of --all; CI runs it nightly and on demand. A
#            change that sets out to move a figure copies
#            build/FIGURES.sha256 over the checked-in file
#
# Usage:
#   scripts/check.sh                  # build + lint + tsan
#   scripts/check.sh --all            # every leg (CI parity)
#   scripts/check.sh --asan --ubsan   # just the named legs
#   scripts/check.sh --merge-bitmap   # bitmap merge-mode leg only
#   scripts/check.sh --shard-smoke    # sharded scale-out leg only
#   scripts/check.sh --wallbench-build  # build the wallbench harness only
#   scripts/check.sh --figures        # figure digests, nightly CI leg
#   scripts/check.sh --tidy           # just clang-tidy
#   scripts/check.sh --tsan-only      # compat: tsan leg only
#   scripts/check.sh --no-tsan        # compat: build + lint, no tsan
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
SUPP_DIR="$PWD/scripts/sanitizers"

RUN_BUILD=0 RUN_LINT=0 RUN_TSAN=0 RUN_ASAN=0 RUN_UBSAN=0
RUN_ANALYZE=0 RUN_ANALYZE_AST=0 RUN_TIDY=0 RUN_MERGE_BITMAP=0
RUN_BENCH_SMOKE=0 RUN_CONTENTION_SMOKE=0 RUN_SHARD_SMOKE=0
RUN_WALLBENCH_BUILD=0 RUN_FIGURES=0
if [[ $# -eq 0 ]]; then
  RUN_BUILD=1 RUN_LINT=1 RUN_TSAN=1
fi
for arg in "$@"; do
  case "$arg" in
    --all) RUN_BUILD=1 RUN_LINT=1 RUN_TSAN=1 RUN_ASAN=1 RUN_UBSAN=1
           RUN_ANALYZE=1 RUN_ANALYZE_AST=1 RUN_TIDY=1 RUN_MERGE_BITMAP=1
           RUN_BENCH_SMOKE=1 RUN_CONTENTION_SMOKE=1 RUN_SHARD_SMOKE=1
           RUN_WALLBENCH_BUILD=1 ;;
    --build) RUN_BUILD=1 ;;
    --lint) RUN_LINT=1 ;;
    --tsan) RUN_TSAN=1 ;;
    --asan) RUN_ASAN=1 ;;
    --ubsan) RUN_UBSAN=1 ;;
    --merge-bitmap) RUN_MERGE_BITMAP=1 ;;
    --analyze) RUN_ANALYZE=1 ;;
    --analyze-ast) RUN_ANALYZE_AST=1 ;;
    --tidy) RUN_TIDY=1 ;;
    --bench-smoke) RUN_BENCH_SMOKE=1 ;;
    --contention-smoke) RUN_CONTENTION_SMOKE=1 ;;
    --shard-smoke) RUN_SHARD_SMOKE=1 ;;
    --wallbench-build) RUN_WALLBENCH_BUILD=1 ;;
    --figures) RUN_FIGURES=1 ;;
    # Back-compat spellings used by older CI jobs and muscle memory.
    --tsan-only) RUN_TSAN=1 ;;
    --no-tsan) RUN_BUILD=1 RUN_LINT=1 ;;
    *) echo "usage: $0 [--all] [--build] [--lint] [--tsan] [--asan]" \
            "[--ubsan] [--merge-bitmap] [--analyze] [--analyze-ast]" \
            "[--tidy] [--bench-smoke] [--contention-smoke]" \
            "[--shard-smoke] [--wallbench-build] [--figures]" \
            "[--tsan-only]" \
            "[--no-tsan]" >&2
       exit 2 ;;
  esac
done

# sanitizer_leg <name> <HATTRICK_SANITIZE value> <env assignments...>
# Configures build-<name>, builds, and runs ctest (full suite) with the
# given sanitizer runtime options exported.
sanitizer_leg() {
  local name="$1" value="$2"; shift 2
  echo "== build (${name}) =="
  cmake -B "build-${name}" -S . -DHATTRICK_SANITIZE="${value}" >/dev/null
  cmake --build "build-${name}" -j "$JOBS"
  echo "== ctest (${name}) =="
  (cd "build-${name}" && env "$@" ctest --output-on-failure -j "$JOBS")
}

if [[ "$RUN_BUILD" == 1 ]]; then
  echo "== build (RelWithDebInfo) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  echo "== ctest (all) =="
  (cd build && ctest --output-on-failure -j "$JOBS")
fi

if [[ "$RUN_LINT" == 1 ]]; then
  echo "== hattrick-lint =="
  python3 tools/lint/hattrick_lint.py
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== build (ThreadSanitizer) =="
  cmake -B build-tsan -S . -DHATTRICK_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  echo "== ctest -L tsan =="
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
      ctest -L tsan --output-on-failure -j 2)
fi

if [[ "$RUN_MERGE_BITMAP" == 1 ]]; then
  echo "== build (merge-mode=bitmap leg) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  echo "== ctest (all, HATTRICK_MERGE_MODE=bitmap) =="
  (cd build && HATTRICK_MERGE_MODE=bitmap ctest --output-on-failure -j "$JOBS")
  echo "== build (ThreadSanitizer, merge-mode=bitmap) =="
  cmake -B build-tsan -S . -DHATTRICK_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  echo "== ctest -L tsan (HATTRICK_MERGE_MODE=bitmap) =="
  (cd build-tsan && HATTRICK_MERGE_MODE=bitmap \
      TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
      ctest -L tsan --output-on-failure -j 2)
fi

if [[ "$RUN_CONTENTION_SMOKE" == 1 ]]; then
  echo "== build (ThreadSanitizer, contention-smoke) =="
  cmake -B build-tsan -S . -DHATTRICK_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target commit_storm_test
  # The storm suite hammers a hot key set from many threads; run it under
  # TSan in both hybrid-merge modes (the bitmap path appends delta
  # versions from the commit tail).
  for mode in merge-eager merge-bitmap; do
    echo "== commit_storm_test (tsan, ${mode}) =="
    case "$mode" in
      merge-eager) ENV_VARS=() ;;
      merge-bitmap) ENV_VARS=(HATTRICK_MERGE_MODE=bitmap) ;;
    esac
    (cd build-tsan && \
        env "${ENV_VARS[@]}" \
            TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
            ctest -R '^commit_storm_test$' --output-on-failure)
  done
fi

if [[ "$RUN_SHARD_SMOKE" == 1 ]]; then
  echo "== build (shard-smoke) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  # Re-run the whole suite with a 4-shard default so every tidb-dist
  # construction routes through ShardRouter + 2PC instead of the
  # single-node engine, then hammer the cross-shard commit path
  # (2PC storm + crash matrix in shard_test) under TSan.
  echo "== ctest (all, HATTRICK_SHARDS=4) =="
  (cd build && HATTRICK_SHARDS=4 ctest --output-on-failure -j "$JOBS")
  echo "== build (ThreadSanitizer, shard-smoke) =="
  cmake -B build-tsan -S . -DHATTRICK_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target shard_test
  echo "== shard_test (tsan, HATTRICK_SHARDS=4) =="
  (cd build-tsan && HATTRICK_SHARDS=4 \
      TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
      ctest -R '^shard_test$' --output-on-failure)
fi

if [[ "$RUN_BENCH_SMOKE" == 1 ]]; then
  echo "== bench-smoke =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_runner
  ./build/bench/bench_runner --name=smoke --out=build/BENCH_smoke.json
  python3 scripts/bench_compare.py bench/BENCH_smoke.json \
      build/BENCH_smoke.json
fi

if [[ "$RUN_WALLBENCH_BUILD" == 1 ]]; then
  echo "== build (wallbench harness, compile only) =="
  cmake -S wallbench -B build-wallbench >/dev/null
  cmake --build build-wallbench -j "$JOBS"
fi

if [[ "$RUN_FIGURES" == 1 ]]; then
  echo "== build (figure binaries) =="
  cmake -B build -S . >/dev/null
  # The figure list comes from the build's own targets, so a stale binary
  # left in build/bench by a removed or renamed target is never digested.
  mapfile -t FIGURES < <(sed -n \
      's/^hattrick_bench(\(\(fig\|ablation_\)[A-Za-z0-9_]*\))$/\1/p' \
      bench/CMakeLists.txt | LC_ALL=C sort)
  cmake --build build -j "$JOBS" --target "${FIGURES[@]}"
  CXX_PATH="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' build/CMakeCache.txt)"
  BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)"
  TOOLCHAIN="$("$CXX_PATH" --version | head -n 1), ${BUILD_TYPE:-RelWithDebInfo}"
  echo "== figure digests (${#FIGURES[@]} figures, ${JOBS} at a time;" \
       "${TOOLCHAIN}) =="
  rm -rf build/figures
  mkdir -p build/figures
  # Separate processes: a figure's stdout must not depend on what else
  # ran before it in the same process. xargs fails the leg if any
  # figure exits non-zero.
  printf '%s\n' "${FIGURES[@]}" | xargs -P "$JOBS" -I{} \
      sh -c './build/bench/{} > build/figures/{}.out'
  {
    echo "# stdout SHA-256 per figure binary (scripts/check.sh --figures)"
    echo "# toolchain: ${TOOLCHAIN}"
    (cd build/figures && sha256sum -- *.out) | sed 's/\.out$//' \
        | LC_ALL=C sort -k2
  } > build/FIGURES.sha256
  grep -v '^#' bench/FIGURES.sha256 | diff -u - <(grep -v '^#' build/FIGURES.sha256)
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  sanitizer_leg asan address \
    ASAN_OPTIONS="detect_leaks=1 halt_on_error=1" \
    LSAN_OPTIONS="suppressions=${SUPP_DIR}/lsan.supp"
fi

if [[ "$RUN_UBSAN" == 1 ]]; then
  sanitizer_leg ubsan undefined \
    UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 suppressions=${SUPP_DIR}/ubsan.supp"
fi

if [[ "$RUN_ANALYZE" == 1 ]]; then
  if command -v clang++ >/dev/null; then
    echo "== build (clang -Wthread-safety -Werror) =="
    cmake -B build-analyze -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DHATTRICK_ANALYZE=ON >/dev/null
    cmake --build build-analyze -j "$JOBS"
  else
    echo "== analyze: clang++ not found, skipping (CI runs this leg) =="
  fi
fi

if [[ "$RUN_ANALYZE_AST" == 1 ]]; then
  echo "== hattrick-analyzer (semantic passes) =="
  # Only the compile database is needed, not a compiled tree: configure
  # refreshes build/compile_commands.json and the analyzer reads sources.
  cmake -B build -S . >/dev/null
  python3 tools/analyzer/hattrick_analyzer.py --verbose
fi

if [[ "$RUN_TIDY" == 1 ]]; then
  if command -v clang-tidy >/dev/null; then
    echo "== clang-tidy =="
    cmake -B build -S . >/dev/null  # refresh compile_commands.json
    mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
    if command -v run-clang-tidy >/dev/null; then
      run-clang-tidy -p build -quiet -j "$JOBS" "${TIDY_SOURCES[@]}"
    else
      clang-tidy -p build --quiet "${TIDY_SOURCES[@]}"
    fi
  else
    echo "== tidy: clang-tidy not found, skipping (CI runs this leg) =="
  fi
fi

echo "OK"
