#!/usr/bin/env bash
# perf_gate.self_test: run scripts/perf_gate.sh at its default tolerance
# over the fixture snapshots beside this script, against the checked-in
# bench/perf_floor.json, and check each verdict. Every failure must be a
# gate verdict, never a Python traceback; a snapshot without a
# current.threads_1 block must fail with one line of output.
set -uo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
gate="$here/../../scripts/perf_gate.sh"
unset HAWC_PERF_TOLERANCE
status=0

# check <fixture> <pass|fail> [text the output must contain]
check() {
  local output verdict
  if output="$("$gate" "$here/$1" 2>&1)"; then verdict=pass; else verdict=fail; fi
  if [[ "$verdict" != "$2" ]]; then
    echo "FAIL $1: gate said $verdict, expected $2"; echo "$output"; status=1
  elif grep -q Traceback <<<"$output"; then
    echo "FAIL $1: gate crashed"; echo "$output"; status=1
  elif ! grep -qF -- "${3:-}" <<<"$output"; then
    echo "FAIL $1: output lacks '$3'"; echo "$output"; status=1
  else
    echo "ok   $1: $verdict"
  fi
  last_output="$output"
}

check in_budget.json pass
check ceiling_over.json fail "[FAIL] qforward_golden_us"
check floor_under.json fail "[FAIL] stream_decode_mbps"
check no_threads_1.json fail "no current.threads_1 block"
if [[ "$(wc -l <<<"$last_output")" -ne 1 ]]; then
  echo "FAIL no_threads_1.json: expected one line, got:"; echo "$last_output"; status=1
fi
exit "$status"
