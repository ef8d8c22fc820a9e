#!/usr/bin/env bash
# Instrumented verification pipeline. By default runs eleven phases:
#
#   1. AddressSanitizer + UndefinedBehaviorSanitizer over the full suite
#      (degenerate-input and chaos-soak tests under heap/UB checking)
#   2. ThreadSanitizer over the concurrency tests (the thread-pool
#      contract, cross-thread-count determinism sweeps, parallel soak,
#      the telemetry registry/span suite, the multi-writer event log, and
#      the supervisor/counting suites whose stub classifiers run on pool
#      lanes), then the pool-contract, determinism and parity tests
#      repeated until one fails or 20 runs pass
#   3. A bench-snapshot smoke run (the perf harness still builds, runs,
#      and emits parseable JSON)
#   4. The layered overhead gate on an unsanitized Release build:
#      bench_overhead times bare crowd_counter, frame_supervisor, + trace
#      sink, + event log/flight recorder/SLO on clean frames and exits
#      nonzero when the supervisor costs > 5%, the trace sink > 2% or the
#      obs stack > 2% over the layer below
#   5. The golden-corpus parity gate (Release build): fp32-vs-int8 and
#      1-vs-N-thread replays over data/golden must show zero divergences
#   6. The static-analysis gate (scripts/lint.sh): analyzer self-test,
#      hawc_analyze rule catalogue, header self-sufficiency, HAWC_WERROR
#      build, and clang-tidy when installed
#   7. The fleet chaos gate (Release build): the multi-pole soak test and
#      the fleet_service example, proving fault isolation, staleness
#      bounds, and watchdog recovery outside the sanitized builds too
#   8. The perf-regression gate (Release build): bench_snapshot threads_1
#      numbers vs the checked-in ceilings in bench/perf_floor.json
#      (scripts/perf_gate.sh; HAWC_PERF_TOLERANCE scales the budget)
#   9. The flight-recorder drill (Release build): the fault-injected
#      eight-pole postmortem example must dump a bundle that replays
#      bit-exactly and complete an SLO alert fire/resolve cycle
#  10. The golden corpus-container verify (Release build): stream both
#      golden "HWCC" corpus containers, checksumming and decoding every
#      chunk
#  11. The replay benchmark build (Release): replaybench/ is its own
#      CMake project over src/, so a src/ change that drops a symbol the
#      benchmark calls fails here; then its own tests
#
# Setting HAWC_SANITIZE runs a single sanitizer configuration over the
# full suite instead (any -fsanitize= value works):
#
#   scripts/check.sh                  # all eleven phases
#   HAWC_SANITIZE=thread scripts/check.sh
#   HAWC_SANITIZE=address,undefined scripts/check.sh -R chaos_soak
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

run_suite() {  # run_suite <sanitizer> <build_dir> [ctest args...]
  local sanitize="$1" build_dir="$2"
  shift 2
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHAWC_SANITIZE="${sanitize}"
  cmake --build "${build_dir}" -j "$(nproc)"
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" "$@"
}

if [[ -n "${HAWC_SANITIZE:-}" ]]; then
  run_suite "${HAWC_SANITIZE}" "${repo_root}/build-sanitize" "$@"
  exit 0
fi

echo "== phase 1/11: address,undefined over the full suite =="
run_suite "address,undefined" "${repo_root}/build-sanitize" "$@"

echo "== phase 2/11: thread sanitizer over the concurrency tests =="
run_suite "thread" "${repo_root}/build-tsan" -R '^(thread_pool|determinism|neighbor_grid|seeds/neighbor_grid[a-z_]*|telemetry|parity|container|fleet[a-z_]*|obs[a-z_]*|supervisor|chaos_soak|fault_injection|crowd_counter_test|multiplicity)\.'
# The pool contract and the lane-count sweeps again, until one fails or
# 20 runs pass: a lane-dependent output or a lost wake-up in the pool
# shows up only on some runs.
ctest --test-dir "${repo_root}/build-tsan" --output-on-failure -j "$(nproc)" \
  --repeat until-fail:20 -R '^(thread_pool|determinism|parity)\.'

echo "== phase 3/11: bench snapshot smoke =="
smoke_build="${repo_root}/build-sanitize"
cmake --build "${smoke_build}" --target bench_snapshot -j "$(nproc)"
"${smoke_build}/bench/bench_snapshot" 1 2 > /tmp/hawc_bench_smoke.json
python3 -m json.tool /tmp/hawc_bench_smoke.json >/dev/null
echo "bench snapshot smoke OK"

echo "== phase 4/11: layered overhead gate (Release; supervisor <= 5%, trace <= 2%, obs <= 2%) =="
perf_build="${repo_root}/build"
cmake -B "${perf_build}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${perf_build}" --target bench_overhead -j "$(nproc)"
"${perf_build}/bench/bench_overhead"
echo "overhead gate OK"

echo "== phase 5/11: golden-corpus parity gate =="
cmake --build "${perf_build}" --target parity_checker -j "$(nproc)"
"${perf_build}/examples/parity_checker" check "${repo_root}/data/golden"
echo "parity gate OK"

echo "== phase 6/11: static-analysis gate =="
"${repo_root}/scripts/lint.sh" --self-test
"${repo_root}/scripts/lint.sh"
echo "static-analysis gate OK"

echo "== phase 7/11: fleet chaos gate (Release) =="
cmake --build "${perf_build}" --target test_fleet fleet_service -j "$(nproc)"
"${perf_build}/tests/test_fleet" --gtest_filter='fleet_chaos.*:fleet.*'
"${perf_build}/examples/fleet_service" 300 > /tmp/hawc_fleet_service.txt
grep -q "Staleness bound (10 ticks) holds: yes" /tmp/hawc_fleet_service.txt
echo "fleet chaos gate OK"

echo "== phase 8/11: perf-regression gate (Release) =="
cmake --build "${perf_build}" --target bench_snapshot -j "$(nproc)"
"${perf_build}/bench/bench_snapshot" 1 > /tmp/hawc_bench_perf.json
"${repo_root}/scripts/perf_gate.sh" /tmp/hawc_bench_perf.json

echo "== phase 9/11: flight-recorder drill (Release) =="
cmake --build "${perf_build}" --target pole_postmortem -j "$(nproc)"
"${perf_build}/examples/pole_postmortem" 240 /tmp/hawc_postmortem_drill.hawcpm \
  > /tmp/hawc_pole_postmortem.txt
grep -q "postmortem replay: bit-exact" /tmp/hawc_pole_postmortem.txt
grep -q "Alert poles_excluded: fired and resolved" /tmp/hawc_pole_postmortem.txt
grep -q "trigger quarantine" /tmp/hawc_pole_postmortem.txt
echo "flight-recorder drill OK"

echo "== phase 10/11: golden corpus-container verify (Release) =="
cmake --build "${perf_build}" --target parity_checker -j "$(nproc)"
for corpus in clean degraded; do
  "${perf_build}/examples/parity_checker" verify "${repo_root}/data/golden/${corpus}.frames"
done
echo "corpus-container verify OK"

echo "== phase 11/11: replay benchmark build + tests (Release) =="
cmake -S "${repo_root}/replaybench" -B "${repo_root}/build-replaybench" -DCMAKE_BUILD_TYPE=Release
cmake --build "${repo_root}/build-replaybench" --target replaybench replaybench_tests -j "$(nproc)"
"${repo_root}/build-replaybench/replaybench_tests"
echo "replay benchmark build OK"
