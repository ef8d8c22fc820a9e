#!/usr/bin/env bash
# Perf-regression gate: compare the current.threads_1 block of a
# bench_snapshot JSON against the checked-in ceilings in
# bench/perf_floor.json — and the corpus_container block against its
# throughput floors — and fail loudly on any metric out of budget.
#
#   scripts/perf_gate.sh [snapshot_json] [floor_json]
#
# HAWC_PERF_TOLERANCE scales every ceiling (default 1.35): CI containers
# are noisy shared 1-core boxes, so the gate flags real regressions (2x
# slowdowns from a broken kernel or a dropped dispatch tier), not
# scheduler jitter. Run with HAWC_PERF_TOLERANCE=1.0 on a quiet box to
# hold the line exactly.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
snapshot="${1:-$repo_root/bench/snapshot.json}"
floor="${2:-$repo_root/bench/perf_floor.json}"
tolerance="${HAWC_PERF_TOLERANCE:-1.35}"

python3 - "$snapshot" "$floor" "$tolerance" <<'PYEOF'
import json
import sys

snapshot_path, floor_path, tolerance = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(snapshot_path) as f:
    snapshot = json.load(f)
with open(floor_path) as f:
    floor = json.load(f)

current = snapshot.get("current", {}).get("threads_1")
if current is None:
    print(f"PERF GATE FAILED: {snapshot_path} has no current.threads_1 block "
          "(run bench_snapshot with thread count 1)", file=sys.stderr)
    sys.exit(1)
isa = snapshot.get("kernel_isa", "unknown")
failures = []
print(f"perf gate: {snapshot_path} (kernel_isa={isa}) vs {floor_path} "
      f"x{tolerance:g} tolerance")
for metric, spec in floor["ceilings"].items():
    if metric not in current:
        failures.append(f"  {metric}: missing from snapshot threads_1 block")
        continue
    measured = float(current[metric])
    budget = float(spec["max_us"]) * tolerance
    verdict = "ok" if measured <= budget else "FAIL"
    print(f"  [{verdict}] {metric}: {measured:.2f}us (budget {budget:.2f}us"
          f" = {spec['max_us']:g} x {tolerance:g})")
    if measured > budget:
        failures.append(
            f"  {metric}: {measured:.2f}us > {budget:.2f}us — {spec['why']}")

container = snapshot.get("corpus_container", {})
for metric, spec in floor.get("floors", {}).items():
    if metric not in container:
        failures.append(f"  {metric}: missing from snapshot corpus_container block")
        continue
    measured = float(container[metric])
    budget = float(spec["min_mbps"]) / tolerance
    verdict = "ok" if measured >= budget else "FAIL"
    print(f"  [{verdict}] {metric}: {measured:.1f}MB/s (floor {budget:.1f}MB/s"
          f" = {spec['min_mbps']:g} / {tolerance:g})")
    if measured < budget:
        failures.append(
            f"  {metric}: {measured:.1f}MB/s < {budget:.1f}MB/s — {spec['why']}")

if failures:
    print("\nPERF GATE FAILED — kernel-layer regression(s):", file=sys.stderr)
    for line in failures:
        print(line, file=sys.stderr)
    print("(raise HAWC_PERF_TOLERANCE only for a provably noisy box; "
          "fix the kernel otherwise)", file=sys.stderr)
    sys.exit(1)
print("perf gate OK")
PYEOF
