#!/usr/bin/env bash
# Regenerate bench/snapshot.json: build the Release tree, run the perf
# snapshot over the hot kernels (the fp32 and int8 conv, the int8 dense,
# the HAP projection and the golden int8 net's forward), the fleet
# occupancy read path, the obs event pipeline, and the corpus-container
# codec / pack / stream-decode path at 1 and 4 pool lanes, gate the
# threads_1 numbers against the ceilings — and the container throughputs
# against the floors — in bench/perf_floor.json, then run the Table II
# inference-speed bench (its text report lands next to the build's bench
# binaries).
#
#   scripts/bench_snapshot.sh [build_dir] [output_json]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
output="${2:-$repo_root/bench/snapshot.json}"

cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" -j "$(nproc)" \
  --target bench_snapshot bench_table2_inference_speed >/dev/null

"$build_dir/bench/bench_snapshot" 1 4 > "$output"
echo "wrote $output"

"$repo_root/scripts/perf_gate.sh" "$output"

"$build_dir/bench/bench_table2_inference_speed" \
  | tee "$build_dir/bench/table2_inference_speed.txt"
echo "Table II report under $build_dir/bench/"
