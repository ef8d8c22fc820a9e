#!/usr/bin/env python3
"""Production-path replay benchmark for the HAWC-CC crowd counter.

    python3 replaybench/run.py --workload walkway_sparse --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds replaybench/ (which compiles
src/) into .bench_build/replaybench, records the workload's corpus for
the seed (cached per seed under .bench_build/corpora), replays
data/golden through the parity harness, then replays the corpus through
the production path and prints one JSON result line last. Exits non-zero
without a result line when the build, the corpus or the golden parity
check fails, and with `"correct": false` when the run's own checks fail.
See METRICS.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "replaybench"
WORKLOADS = ("walkway_sparse", "crowd_dense", "fleet_faulty")
CACHED_CORPORA = 4  # newest corpora kept; each is 20-100 MB
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"replaybench: {message}", file=sys.stderr)
    sys.exit(1)


def call(cmd, log=None):
    """Run cmd to completion; returns (returncode, combined output)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=CHILD_TIMEOUT_S if log is None else None)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if log is not None:
        log.write_text(proc.stdout)
    return proc.returncode, proc.stdout


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    log = WORK / "build.log"
    WORK.mkdir(exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        rc, out = call(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"], log)
        if rc != 0:
            fail(f"configure failed:\n{out[-4000:]}")
    rc, out = call(["cmake", "--build", str(BUILD), "--target", "replaybench", "-j", jobs], log)
    if rc != 0:
        fail(f"build failed:\n{out[-4000:]}")
    return BUILD / "replaybench"


def corpus_for(exe, workload, seed):
    """The seed's corpus, generated once per build of the generator."""
    key = hashlib.sha1(exe.read_bytes()).hexdigest()[:12]
    path = WORK / "corpora" / key / f"{workload}-{seed}.hwcc"
    if path.exists():
        os.utime(path)
        print(f"corpus {path.relative_to(ROOT)} (cached)")
        return path
    start = time.monotonic()
    rc, out = call([str(exe), "gen", "--workload", workload, "--seed", str(seed), "--out", str(path)])
    sys.stdout.write(out)
    if rc != 0:
        fail("corpus generation failed")
    print(f"generation_s {time.monotonic() - start:.3f} (informational, not a metric)")
    corpora = sorted((WORK / "corpora").glob("*/*.hwcc"), key=lambda p: p.stat().st_mtime)
    for old in corpora[:-CACHED_CORPORA]:
        old.unlink()
    return path


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    golden = ROOT / "data" / "golden"
    if not (ROOT / "src" / "CMakeLists.txt").exists() or not golden.is_dir():
        fail(f"{ROOT} is not a full checkout (src/ and data/golden/ are needed)")

    exe = build()
    corpus = corpus_for(exe, args.workload, args.seed)

    rc, out = call([str(exe), "check", "--golden", str(golden)])
    sys.stdout.write(out)
    if rc != 0:
        fail("golden parity check failed")

    rc, out = call([str(exe), "run", "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--corpus", str(corpus), "--golden", str(golden), "--commit", commit(),
                    "--trace-out", str(WORK / "traces" / f"{args.workload}.json")])
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(rc)


if __name__ == "__main__":
    main()
