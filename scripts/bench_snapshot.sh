#!/usr/bin/env bash
# Regenerate BENCH_PR15.json: build the Release tree, run the perf
# snapshot over the hot kernels (including the int8 conv/dense kernels,
# the SIMD kernel-layer GEMMs, the HAP projection, the fleet occupancy
# read path, the obs event pipeline, and the corpus-container codec /
# pack / stream-decode path) at 1 and 4 pool lanes, gate the threads_1
# numbers against the ceilings — and the container throughputs against
# the floors — in bench/perf_floor.json, then run the kernel
# micro-benchmarks and the Table II inference-speed bench (their text
# reports land next to the build's bench binaries).
#
#   scripts/bench_snapshot.sh [build_dir] [output_json]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
output="${2:-$repo_root/BENCH_PR15.json}"

cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" -j "$(nproc)" \
  --target bench_snapshot bench_kernels bench_table2_inference_speed >/dev/null

"$build_dir/bench/bench_snapshot" 1 4 > "$output"
echo "wrote $output"

"$repo_root/scripts/perf_gate.sh" "$output"

"$build_dir/bench/bench_kernels" --benchmark_min_time=0.2 \
  | tee "$build_dir/bench/bench_kernels.txt"
"$build_dir/bench/bench_table2_inference_speed" \
  | tee "$build_dir/bench/table2_inference_speed.txt"
echo "kernel + Table II reports under $build_dir/bench/"
