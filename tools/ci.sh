#!/usr/bin/env bash
# DeepRest CI: every enforcement layer in one script, fastest legs first.
#
#   1. tier-1      — default build, full test suite (the gate every PR must hold)
#   2. e2e-gates   — one short run of the end-to-end benchmark's
#                    features_open, traffic_plan, learn_estimate and
#                    live_monitor workloads: their correctness gates (served
#                    and mode-1 answers bit-identical to the trace-path
#                    replay; live streams replayed through
#                    EstimateFromFeaturesBatchResume on the model version that
#                    served them, across live publishes) must pass; SKIP on a
#                    host with fewer than 4 CPUs
#   3. simd-off    — kernel, core, baselines and property suites with SIMD
#                    force-disabled (DEEPREST_SIMD=scalar): the portable
#                    fallback path can't rot; then the nn, core and
#                    baselines suites pinned to the AVX2 rung
#                    (DEEPREST_SIMD=avx2), which an AVX-512 host otherwise
#                    never executes; then every
#                    vector rung's sigmoid and tanh against the scalar bodies
#                    on all 2^32 inputs; then both reference models trained
#                    on the default, AVX2 and scalar rungs must hash to their
#                    pinned sha256
#   4. resilience  — self-healing suite by label (ctest -L resilience: health
#                    registry, watchdog restarts, the learner's validation
#                    gate, the steal sweep around a wedged worker, a worker
#                    that dies after a long wedge, chaos schedules; rides the
#                    chaos label into the sanitizer legs), then the README's
#                    chaos quickstart, which must recover every incident it
#                    opens and restart every worker that crashed, and its
#                    budgeted-serving quickstart, whose Memory: row must
#                    match the README
#   5. lint        — flow-aware analyzer over src/+tools/+tests/ + rule
#                    fixtures (ctest -L lint)
#   6. analyze     — analyzer artifact leg: SARIF report + lock-graph DOT
#                    into build/, plus a warm-cache rerun assertion
#   7. tsa         — Clang Thread Safety Analysis as errors (skipped without clang++)
#   8. tsan        — chaos/serve/resilience/parallel suite under ThreadSanitizer
#   9. asan        — chaos suite + the nn and core suites under ASan+UBSan
#  10. asan-storm  — state-cache eviction storm under ASan+UBSan with tiny
#                    hot and cold caps (DEEPREST_STATECACHE_STRESS=1):
#                    concurrent leases vs CLOCK eviction, fp16 demotion and
#                    the fp16 tier's FIFO overflow drops
#
# Usage: tools/ci.sh [--quick]
#   --quick stops before the sanitizer legs (pre-push sanity; tsan/asan are
#   the expensive part).
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> [1/10] tier-1: default build + full test suite"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# The closed-loop autoscaling suite again by label: keeps `ctest -L autoscale`
# a supported entry point (it also rides the chaos label into the TSan and
# ASan legs below).
ctest --test-dir build --output-on-failure -L autoscale

echo "==> [2/10] e2e-gates: end-to-end benchmark correctness gates"
# e2ebench builds its own copy of src/ and checks its results before printing
# any: exit 0 means every gate passed, 3 means SKIP (the host has fewer CPUs
# than the workload runs threads), anything else is a failure. Seed 7919 is
# the benchmark's held-out seed. features_open is the only workload whose
# requests enter EstimationService::ServeBatch through SubmitFeatures, so its
# gate (every served answer bit-identical to a single-threaded batch replay)
# covers the stateless batched path. It runs the leg's 1 s: its nominal
# rounds send a floor of 3 x 1,050 requests whatever --seconds says, and
# every gate passes there on a 4-vCPU host.
# live_monitor is the only end-to-end gate on the cursor/resume path: every
# chunk of every 8th stream is replayed through
# EstimateFromFeaturesBatchResume on the version that served it, across four
# live model publishes. It runs 3 s, not 1: its open-loop generator must send
# a floor of ~5,250 requests, and squeezed into 1 s (~3,500 req/s beside live
# ingest) that overloads a 4-vCPU host, so the generator-lateness gate would
# fail on load rather than on a wrong answer.
for workload in features_open traffic_plan learn_estimate live_monitor; do
  status=0
  seconds=1
  [[ "$workload" == "live_monitor" ]] && seconds=3
  python3 e2ebench/run.py --workload "$workload" --seed 7919 --seconds "$seconds" --trace 0 \
    || status=$?
  if [[ "$status" == "3" ]]; then
    echo "    $workload: SKIP (fewer CPUs than the workload's threads)"
  elif [[ "$status" != "0" ]]; then
    echo "    $workload: e2ebench exited $status"
    exit 1
  fi
done

echo "==> [3/10] simd-off: kernel, core, baselines and property suites on the portable fallback"
# DEEPREST_SIMD=scalar pins the dispatch ladder to the portable rung, so the
# scalar kernel table (the path every non-x86/pre-AVX2 host runs) is executed
# by the same tests that gate the vector paths. The simd tests themselves
# verify the forced-rung semantics (ResetIsa honors the env var).
# baselines_tests rides along: the resource-aware DL baseline trains on the
# chunk trainer's lane backward with one lane, and
# ResourceAwareDlTest.MatchesTapeOracleBitForBit is that backward's check at
# L = 1.
DEEPREST_SIMD=scalar ctest --test-dir build --output-on-failure \
  -R 'nn_tests|core_tests|baselines_tests|property_tests'
# The AVX2 rung runs the trainer's GEMMs and rank-1 updates on every
# AVX2-only host, but the default build picks AVX-512 where it exists. The
# ladder clamps the request down on a host without AVX2, so this pass is the
# scalar one again there.
DEEPREST_SIMD=avx2 ctest --test-dir build --output-on-failure \
  -R 'nn_tests|core_tests|baselines_tests'
# Every float sigmoid and tanh of the model is simd::Sigmoid / simd::Tanh.
# The tier-1 suite checks every rung against the scalar bodies on every 257th
# input; this sweeps all 2^32 inputs on 4 threads (tens of seconds per
# rung). The test forces each vector rung itself, so one run covers AVX2 and
# AVX-512 whatever DEEPREST_SIMD says.
build/tests/nn_tests --gtest_also_run_disabled_tests \
  --gtest_filter='SimdKernelsTest.DISABLED_SigmoidTanhExhaustiveOnEveryIsa'
# Training is exact on every rung, so each reference model must be the same
# bytes whichever rung trained it, and those bytes are pinned: a change that
# moves every rung's bits the same way fails here too. The tests above check
# the trainer against its oracle at the tests' own shapes; this checks the
# shipped model sizes. The pin holds on this CI host: the model's own math
# (its sigmoid and tanh included) no longer depends on the host's libm, but
# its training data comes from the simulator's double-precision libm calls.
# The paper-size model takes a few seconds on the scalar rung.
check_model_across_rungs() {
  local name="$1" expected="$2"
  shift 2
  local rung model sum
  for rung in auto avx2 scalar; do
    model="build/ci_model_${name}_${rung}.bin"
    DEEPREST_SIMD="$rung" build/tools/deeprest train --model="$model" "$@" >/dev/null
    sum="$(sha256sum "$model" | cut -d' ' -f1)"
    echo "    $name model, DEEPREST_SIMD=$rung: $sum"
    if [[ "$sum" != "$expected" ]]; then
      echo "    $name model: sha256 is not the pinned $expected"
      exit 1
    fi
  done
}
check_model_across_rungs small eaf5b30fb40b51081cf7ba73ed3879c13e8f075903f7842150c8e67036a6852f \
  --days=2 --wpd=24 --hidden=8 --epochs=4
check_model_across_rungs paper 3e1ef92073817c7ab2ea9bfc8dcbaacb48c544a08341aafbdef709fe0d7da725 \
  --days=7 --wpd=48 --hidden=12 --epochs=12

echo "==> [4/10] resilience: self-healing suite by label"
# Supported entry point for the supervision layer (watchdog restarts, the
# steal sweep around a wedged worker, chaos schedules, the resilience bench
# smoke); the same tests also carry the chaos label, so the sanitizer legs
# below re-run them under TSan and ASan.
ctest --test-dir build --output-on-failure -L resilience
# The README's chaos quickstart is the documented supervised entry point of
# `deeprest serve`: it must exit 0 and recover every incident it opens. Its
# service rows must also show as many worker restarts as worker crashes: a
# crashed worker that is never revived fails here.
quickstart="$(build/tools/deeprest serve --days=2 --wpd=24 --serve-days=1 \
  --chaos-schedule='worker_crash@2:0;worker_stall@4-6:1*50')" \
  || { echo "    chaos quickstart exited nonzero"; exit 1; }
opened="$(awk '/incidents opened/ {print $3}' <<<"$quickstart")"
recovered="$(awk '/incidents recovered/ {print $3}' <<<"$quickstart")"
crashes="$(awk '$1 == "worker" && $2 == "crashes" {print $3}' <<<"$quickstart")"
restarts="$(awk '$1 == "worker" && $2 == "restarts" {print $3}' <<<"$quickstart")"
echo "    chaos quickstart: ${opened:-no} incident(s) opened, ${recovered:-no} recovered," \
  "${crashes:-no} worker crash(es), ${restarts:-no} worker restart(s)"
if [[ -z "$opened" || "$opened" != "$recovered" ]]; then
  echo "    chaos quickstart: incidents recovered != incidents opened"
  exit 1
fi
if [[ -z "$crashes" || "$crashes" != "$restarts" ]]; then
  echo "    chaos quickstart: worker restarts '${restarts:-missing}' !=" \
    "worker crashes '${crashes:-missing}'"
  exit 1
fi
# The README's budgeted-serving quickstart must exit 0 and print the Memory:
# row the README shows under it: the budget goes to the stream cache, half
# hot and half cold.
budgeted="$(build/tools/deeprest serve --days=2 --wpd=24 --serve-days=1 --clients=4 \
  --memory-budget-mb=64 --state-cold-tier=fp16)" \
  || { echo "    budgeted-serving quickstart exited nonzero"; exit 1; }
memory_row="$(grep -m1 '^Memory:' <<<"$budgeted" || true)"
readme_row="$(grep -m1 '^# Memory: budget=64MB' README.md | sed 's/^# //' || true)"
echo "    budgeted-serving quickstart: ${memory_row:-no Memory: row}"
if [[ -z "$readme_row" || "$memory_row" != "$readme_row" ]]; then
  echo "    budgeted-serving quickstart: Memory: row differs from README's '${readme_row}'"
  exit 1
fi

echo "==> [5/10] lint: flow-aware analyzer over the tree + rule fixtures"
ctest --preset lint -j "$JOBS"

echo "==> [6/10] analyze: SARIF + lock-graph artifacts, warm-cache assertion"
ANALYZE_BIN=build/tools/deeprest_analyze
ANALYZE_CACHE=build/deeprest_analyze_ci_cache.txt
# Cold (or incremental) pass: fails the build on any violation and writes
# the CI artifacts — machine-readable SARIF for code-scanning upload and the
# extracted lock graph (DESIGN.md §7 is regenerated from this DOT).
"$ANALYZE_BIN" --root . --allowlist tools/lint/allowlist.txt \
  --cache "$ANALYZE_CACHE" --format=sarif --out build/analysis.sarif \
  --dot build/lock_graph.dot --stats
# No-op rerun must be served entirely from the content-hash cache; an edit
# is covered by the lint_tests cache-invalidation fixture.
"$ANALYZE_BIN" --root . --allowlist tools/lint/allowlist.txt \
  --cache "$ANALYZE_CACHE" --stats | grep -q ' 0 analyzed,' \
  || { echo "analyzer cache did not warm on a no-op rerun"; exit 1; }
echo "    artifacts: build/analysis.sarif, build/lock_graph.dot"

echo "==> [7/10] tsa: Clang thread-safety analysis (compile-only gate)"
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset lint >/dev/null
  cmake --build --preset lint -j "$JOBS"
else
  echo "    clang++ not on PATH — skipping (annotations are inert under GCC)"
fi

if [[ "$QUICK" == "1" ]]; then
  echo "==> --quick: skipping sanitizer legs"
  exit 0
fi

echo "==> [8/10] tsan: chaos suite under ThreadSanitizer"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$JOBS"
ctest --preset chaos-tsan -j "$JOBS"

echo "==> [9/10] asan: chaos suite + nn and core suites under ASan+UBSan"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$JOBS"
ctest --preset chaos-asan -j "$JOBS"
# The kernel suites drive every simd dispatch table at ragged shapes, and
# core_tests (batched_inference_test above all) drives the packed
# batch-row-major forward's window blocks, across block boundaries and as
# rows finish mid-block, over the whole learn history at every mutation point,
# where it computes the warm-start state: exactly where an out-of-bounds load
# or store would hide.
ctest --test-dir build-asan --output-on-failure -R 'nn_tests|core_tests'

echo "==> [10/10] asan-storm: state-cache eviction storm under ASan+UBSan"
# The stress flag multiplies the storm test's iteration count; the tiny
# caps in the test force constant eviction/demotion/promotion churn while
# four threads hold exclusive leases — the exact interleavings where a
# use-after-evict or a resident-byte miscount would hide.
DEEPREST_STATECACHE_STRESS=1 ctest --test-dir build-asan --output-on-failure \
  -R 'state_cache_tests'

echo "==> CI green"
