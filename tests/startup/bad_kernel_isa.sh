#!/usr/bin/env bash
# startup.bad_kernel_isa_fails_before_any_frame: run
# `parity_checker check <golden-dir>` with HAWC_KERNEL_ISA naming no
# registered tier. The bad setting must stop the run at startup (non-zero
# exit, an error naming the variable) instead of dropping every golden
# frame and reporting each one as a divergence.
#
#   bad_kernel_isa.sh <parity_checker binary> <golden dir>
set -uo pipefail

output="$(HAWC_KERNEL_ISA=bogus "$1" check "$2" 2>&1)"
code=$?
echo "$output"
if [[ $code -eq 0 ]]; then
  echo "FAIL: parity_checker exited 0 under HAWC_KERNEL_ISA=bogus"; exit 1
fi
if grep -qE '^  frame [0-9]+ \[' <<<"$output"; then
  echo "FAIL: per-frame divergences printed; the bad tier was not caught at startup"; exit 1
fi
if ! grep -qF HAWC_KERNEL_ISA <<<"$output"; then
  echo "FAIL: the error does not name HAWC_KERNEL_ISA"; exit 1
fi
echo "ok: exit $code before any frame ran"
