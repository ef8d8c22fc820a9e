#!/usr/bin/env bash
# startup.quickstart_bad_kernel_isa_fails_before_any_work: run
# `quickstart --tiny` with HAWC_KERNEL_ISA naming no registered tier. The
# bad setting must stop the run at startup (non-zero exit, an error naming
# the variable) before the dataset is built, so no "train=" line prints.
#
#   quickstart_bad_kernel_isa.sh <quickstart binary>
set -uo pipefail

output="$(HAWC_KERNEL_ISA=bogus "$1" --tiny 2>&1)"
code=$?
echo "$output"
if [[ $code -eq 0 ]]; then
  echo "FAIL: quickstart exited 0 under HAWC_KERNEL_ISA=bogus"; exit 1
fi
if grep -qF 'train=' <<<"$output"; then
  echo "FAIL: the dataset was built before the bad tier was caught"; exit 1
fi
if ! grep -qF HAWC_KERNEL_ISA <<<"$output"; then
  echo "FAIL: the error does not name HAWC_KERNEL_ISA"; exit 1
fi
echo "ok: exit $code before any work ran"
