#!/usr/bin/env bash
# Tier-1 verification plus lint and observability smoke runs.
#
# Default mode:
#   1. configure + build everything (warnings are errors)
#   2. run the unit/integration test suite
#   3. run dedisys_lint over the shipped descriptors: the good ones must
#      pass, the seeded-bad one must fail
#   4. run one bench binary with --json and assert the result file parses
#      and carries latency percentile summaries (p50/p95/p99)
#   5. configure, build and test a Release tree in build-release (GCC
#      raises some warnings, -Wrestrict among them, only at -O3)
#   6. build the repository benchmark (perfbench/) in .bench_build, the
#      directory perfbench/run.py uses; it compiles the middleware
#      sources on its own, so a header change must keep it building
#
# Modes:
#   scripts/check.sh [build-dir]     default tier-1 pass (build dir: build);
#                                    includes the chaos smoke and the
#                                    --asan tier
#   scripts/check.sh --asan          rebuild in build-asan with
#                                    DEDISYS_SANITIZE=address;undefined and
#                                    run the test suite under ASan+UBSan
#   scripts/check.sh --chaos         chaos smoke only: 3 seeded fault
#                                    plans, each run twice; invariants must
#                                    hold and the trace timelines must be
#                                    byte-identical per seed
#   scripts/check.sh --memo          validation-memo smoke only: run the
#                                    self-asserting bench_memo_validation
#                                    (memo-on outcomes must equal memo-off,
#                                    with cache hits and lower cost)
#   scripts/check.sh --gray          gray-failure gate only: shrinker
#                                    self-test (synthetic and real-run
#                                    predicates), 20 random gray plans
#                                    through the invariant harness, a
#                                    byte-identical gray timeline pair and
#                                    the committed regression corpus
#   scripts/check.sh --trace         trace gate only: dedisys_trace
#                                    self-test, the committed split-brain
#                                    trace fixture flagged by --check, the
#                                    trace-driven invariant checker
#                                    cross-checked against the chaos
#                                    harness on 5 seeded gray plans plus
#                                    the regression corpus, and an
#                                    exported metrics document validated
#                                    end to end (json_validate --metrics,
#                                    --tree/--top/--check over the file)
#   scripts/check.sh --lint          constraint-lint gate only: dedisys_lint
#                                    with --werror --conflicts over
#                                    examples/descriptors/ — clean files
#                                    pass, the seeded-bad / conflicting /
#                                    tautology descriptors must fail with
#                                    the documented exit codes (1 =
#                                    diagnostics, 2 = parse failure)
#   scripts/check.sh --shard         sharded front-door gate only: the
#                                    test_shard routing/admission pins, a
#                                    cross-shard chaos soak (invariants +
#                                    byte-identical timelines) and a
#                                    saturation smoke whose --json output
#                                    must validate
#   scripts/check.sh --threads       threaded-runtime gate: rebuild in
#                                    build-tsan with DEDISYS_SANITIZE=thread
#                                    and run the threaded smoke + the
#                                    sim-vs-threaded equivalence suite
#                                    under TSan
#   scripts/check.sh --tidy          clang-tidy over src/ (skipped with a
#                                    message when clang-tidy is missing)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-2}"

MODE="default"
BUILD_DIR="build"
case "${1:-}" in
  --asan) MODE="asan" ;;
  --chaos) MODE="chaos" ;;
  --memo) MODE="memo" ;;
  --gray) MODE="gray" ;;
  --shard) MODE="shard" ;;
  --trace) MODE="trace" ;;
  --threads) MODE="threads" ;;
  --lint) MODE="lint" ;;
  --tidy) MODE="tidy" ;;
  "") ;;
  *) BUILD_DIR="$1" ;;
esac

# Chaos smoke: seeded fault plans against the random workload.  Each seed
# runs twice — the soak binary exits nonzero on any invariant violation,
# and the two trace timelines must match byte for byte (determinism).
chaos_smoke() {
  local soak="$1/bench/bench_chaos_soak"
  local a b
  a="$(mktemp /tmp/chaos_a_XXXXXX.txt)"
  b="$(mktemp /tmp/chaos_b_XXXXXX.txt)"
  for seed in 1 2 3; do
    "$soak" --seed "$seed" --ops 40 --events 8 --horizon-ms 250 \
      --timeline > "$a" 2> /dev/null
    "$soak" --seed "$seed" --ops 40 --events 8 --horizon-ms 250 \
      --timeline > "$b" 2> /dev/null
    if ! cmp -s "$a" "$b"; then
      echo "check.sh: chaos seed $seed is not deterministic" >&2
      rm -f "$a" "$b"
      exit 1
    fi
    echo "chaos smoke: seed $seed ok ($(wc -l < "$a") trace lines)"
  done
  rm -f "$a" "$b"
}

# Gray-failure gate: the shrinker must minimize a synthetic plan and a
# real-run predicate planted in a noisy plan (<= 3 ops), 20 random gray
# plans must hold every invariant (plus determinism and memo
# equivalence), two runs of one gray seed must emit byte-identical
# timelines, and the committed regression corpus must replay clean.
gray_smoke() {
  local gray="$1/bench/bench_gray_chaos"
  "$gray" --selftest 2> /dev/null \
    || { echo "check.sh: gray shrinker self-test failed" >&2; exit 1; }
  echo "gray gate: shrinker self-test ok"
  "$gray" --plans 20 --seed 1 \
    || { echo "check.sh: gray property suite failed" >&2; exit 1; }
  echo "gray gate: 20 random gray plans ok"
  local a b
  a="$(mktemp /tmp/gray_a_XXXXXX.txt)"
  b="$(mktemp /tmp/gray_b_XXXXXX.txt)"
  "$gray" --seed 5 --timeline > "$a" 2> /dev/null
  "$gray" --seed 5 --timeline > "$b" 2> /dev/null
  if ! cmp -s "$a" "$b"; then
    echo "check.sh: gray seed 5 is not deterministic" >&2
    rm -f "$a" "$b"
    exit 1
  fi
  echo "gray gate: timelines byte-identical ($(wc -l < "$a") trace lines)"
  rm -f "$a" "$b"
  "$gray" --corpus tests/gray_corpus \
    || { echo "check.sh: gray corpus replay failed" >&2; exit 1; }
  echo "gray gate: regression corpus ok"
}

# Trace gate: the span analyzer / trace-driven invariant checker must pass
# its self-test, flag the committed real split-brain run
# (tests/trace_fixtures/legacy_split_brain.json, exit 1), agree with the
# chaos harness's state-based ground truth on 5 seeded gray plans and on
# every committed regression plan, and a real metrics export must survive
# the whole offline pipeline: JSON shape validation plus the
# tree/top/check file modes.
trace_smoke() {
  local trace="$1/tools/dedisys_trace"
  local validate="$1/bench/json_validate"
  "$trace" --selftest 2> /dev/null \
    || { echo "check.sh: dedisys_trace self-test failed" >&2; exit 1; }
  echo "trace gate: analyzer/checker self-test ok"
  local status=0
  "$trace" --check tests/trace_fixtures/legacy_split_brain.json > /dev/null \
    || status=$?
  if [ "$status" -ne 1 ]; then
    echo "check.sh: split-brain fixture not flagged (exit $status, want 1)" >&2
    exit 1
  fi
  echo "trace gate: split-brain fixture flagged"
  "$trace" --cross-check 5 --seed 1 \
    || { echo "check.sh: trace/chaos cross-check failed" >&2; exit 1; }
  echo "trace gate: 5 seeded gray plans cross-checked ok"
  "$trace" --corpus tests/gray_corpus \
    || { echo "check.sh: trace corpus cross-check failed" >&2; exit 1; }
  echo "trace gate: regression corpus cross-checked ok"
  local export_file
  export_file="$(mktemp /tmp/trace_export_XXXXXX.json)"
  "$trace" --export "$export_file" --seed 7 > /dev/null
  "$validate" --metrics "$export_file" \
    || { echo "check.sh: metrics export failed validation" >&2
         rm -f "$export_file"; exit 1; }
  "$trace" --tree "$export_file" > /dev/null \
    && "$trace" --top 3 "$export_file" > /dev/null \
    && "$trace" --check "$export_file" > /dev/null \
    || { echo "check.sh: offline trace modes failed on export" >&2
         rm -f "$export_file"; exit 1; }
  rm -f "$export_file"
  echo "trace gate: exported metrics document validated end to end"
}

# Constraint-lint gate: clean descriptors must pass even with warnings
# promoted and conflict detection on; the seeded-bad descriptors must be
# rejected with the documented exit codes — 1 for diagnostics (unknown
# attribute, conflicting pair, tautology under --werror), 2 for parse
# failures (which must not abort linting of the remaining files).
lint_gate() {
  local lint="$1/tools/dedisys_lint"
  local cls="examples/descriptors/classes.xml"
  local rc
  "$lint" --classes "$cls" --werror --conflicts \
    examples/descriptors/good_flight.xml \
    || { echo "check.sh: lint rejected the clean descriptor" >&2; exit 1; }
  rc=0; "$lint" --classes "$cls" --werror --conflicts \
    examples/descriptors/bad_unknown_attr.xml > /dev/null || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "check.sh: seeded-bad descriptor: expected exit 1, got $rc" >&2
    exit 1
  fi
  rc=0; "$lint" --classes "$cls" --conflicts \
    examples/descriptors/bad_conflict.xml > /dev/null || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "check.sh: conflicting pair: expected exit 1, got $rc" >&2
    exit 1
  fi
  rc=0; "$lint" --classes "$cls" \
    examples/descriptors/warn_tautology.xml > /dev/null || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "check.sh: tautology descriptor must pass without --werror" >&2
    exit 1
  fi
  rc=0; "$lint" --classes "$cls" --werror \
    examples/descriptors/warn_tautology.xml > /dev/null || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "check.sh: tautology descriptor must fail under --werror" >&2
    exit 1
  fi
  local junk
  junk="$(mktemp /tmp/lint_junk_XXXXXX.xml)"
  printf 'not xml at all' > "$junk"
  rc=0; "$lint" --classes "$cls" "$junk" \
    examples/descriptors/good_flight.xml > /dev/null 2>&1 || rc=$?
  rm -f "$junk"
  if [ "$rc" -ne 2 ]; then
    echo "check.sh: parse failure: expected exit 2, got $rc" >&2
    exit 1
  fi
  echo "lint gate: descriptors and exit codes ok"
}

# Shard gate: the routing/admission pins of test_shard, a cross-shard
# chaos soak (invariants must hold and two runs of one seed must emit
# byte-identical timelines), and a saturation smoke — the sweep must show
# a clean low-rate point and real shedding under overload (the binary
# self-asserts that) and its --json report must parse.
shard_smoke() {
  "$1/tests/test_shard" --gtest_brief=1 \
    || { echo "check.sh: test_shard failed" >&2; exit 1; }
  echo "shard gate: routing/admission pins ok"
  local soak="$1/bench/bench_chaos_soak"
  local a b
  a="$(mktemp /tmp/shard_chaos_a_XXXXXX.txt)"
  b="$(mktemp /tmp/shard_chaos_b_XXXXXX.txt)"
  for seed in 1 2; do
    "$soak" --seed "$seed" --nodes 4 --shards 2 --ops 40 --events 8 \
      --horizon-ms 250 --timeline > "$a" 2> /dev/null \
      || { echo "check.sh: sharded chaos seed $seed violated invariants" >&2
           rm -f "$a" "$b"; exit 1; }
    "$soak" --seed "$seed" --nodes 4 --shards 2 --ops 40 --events 8 \
      --horizon-ms 250 --timeline > "$b" 2> /dev/null
    if ! cmp -s "$a" "$b"; then
      echo "check.sh: sharded chaos seed $seed is not deterministic" >&2
      rm -f "$a" "$b"
      exit 1
    fi
    echo "shard gate: cross-shard chaos seed $seed ok"
  done
  rm -f "$a" "$b"
  local out
  out="$(mktemp /tmp/BENCH_shard_smoke_XXXXXX.json)"
  "$1/bench/bench_shard_saturation" --smoke --json "$out" > /dev/null \
    || { echo "check.sh: saturation smoke failed" >&2; rm -f "$out"; exit 1; }
  "$1/bench/json_validate" "$out" \
    || { echo "check.sh: saturation --json failed validation" >&2
         rm -f "$out"; exit 1; }
  rm -f "$out"
  echo "shard gate: saturation smoke + json ok"
}

# Release gate: the optimized configuration a user may pick must build
# under -Werror (some GCC diagnostics fire only at -O3) and pass the suite.
release_build() {
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build-release -j "$JOBS"
  (cd build-release && ctest --output-on-failure -j "$JOBS")
  echo "release gate: Release build and tests ok"
}

# Memo smoke: bench_memo_validation asserts its own acceptance criteria
# (memo-on outcomes identical to memo-off, cache hits recorded, strictly
# less simulated time) and exits nonzero on any failure.
memo_smoke() {
  "$1/bench/bench_memo_validation" > /dev/null
  echo "memo smoke: memo-on/off equivalence and speedup ok"
}

if [ "$MODE" = "asan" ]; then
  BUILD_DIR="build-asan"
  cmake -B "$BUILD_DIR" -S . -DDEDISYS_SANITIZE="address;undefined"
  cmake --build "$BUILD_DIR" -j "$JOBS"
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")
  echo "check.sh --asan: all green"
  exit 0
fi

if [ "$MODE" = "chaos" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_chaos_soak
  chaos_smoke "$BUILD_DIR"
  echo "check.sh --chaos: all green"
  exit 0
fi

if [ "$MODE" = "memo" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_memo_validation
  memo_smoke "$BUILD_DIR"
  echo "check.sh --memo: all green"
  exit 0
fi

if [ "$MODE" = "gray" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_gray_chaos
  gray_smoke "$BUILD_DIR"
  echo "check.sh --gray: all green"
  exit 0
fi

if [ "$MODE" = "shard" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target test_shard bench_chaos_soak bench_shard_saturation json_validate
  shard_smoke "$BUILD_DIR"
  echo "check.sh --shard: all green"
  exit 0
fi

if [ "$MODE" = "trace" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target dedisys_trace json_validate
  trace_smoke "$BUILD_DIR"
  echo "check.sh --trace: all green"
  exit 0
fi

if [ "$MODE" = "threads" ]; then
  BUILD_DIR="build-tsan"
  cmake -B "$BUILD_DIR" -S . -DDEDISYS_SANITIZE="thread"
  cmake --build "$BUILD_DIR" -j "$JOBS" --target test_runtime
  "$BUILD_DIR/tests/test_runtime"
  echo "check.sh --threads: all green"
  exit 0
fi

if [ "$MODE" = "lint" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target dedisys_lint
  lint_gate "$BUILD_DIR"
  echo "check.sh --lint: all green"
  exit 0
fi

if [ "$MODE" = "tidy" ]; then
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "check.sh --tidy: clang-tidy not installed, skipping"
    exit 0
  fi
  cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  mapfile -t SOURCES < <(find src tools -name '*.cpp' | sort)
  clang-tidy -p "$BUILD_DIR" "${SOURCES[@]}"
  echo "check.sh --tidy: all green"
  exit 0
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"

(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

# Constraint lint gate (also available standalone as --lint).
lint_gate "$BUILD_DIR"

# Observability smoke: a traced bench run must export parseable JSON with
# latency percentiles.
OUT="$(mktemp /tmp/BENCH_smoke_XXXXXX.json)"
trap 'rm -f "$OUT"' EXIT
"$BUILD_DIR/bench/bench_fig5_2_healthy_degraded" --json "$OUT" > /dev/null
"$BUILD_DIR/bench/json_validate" --require-latencies "$OUT"

# Fault-tolerance gates: chaos smoke, the validation-memo smoke and the
# gray-failure gate on this build, then the sanitizer tiers (their own
# build dirs: TSan over the threaded-runtime suite, ASan+UBSan over the
# full test suite).
chaos_smoke "$BUILD_DIR"
memo_smoke "$BUILD_DIR"
gray_smoke "$BUILD_DIR"
trace_smoke "$BUILD_DIR"
shard_smoke "$BUILD_DIR"
release_build
cmake -S perfbench -B .bench_build > /dev/null
cmake --build .bench_build -j "$JOBS"
echo "benchmark gate: perfbench builds"
"$0" --threads
"$0" --asan

echo "check.sh: all green"
