#!/bin/sh
# Runs telemetry_report on a fixture that holds one torn line: without
# --strict the tool skips the line, prints the span table and exits 0;
# with --strict the skipped line makes it exit 1.
#
#   check_telemetry_report.sh TOOL FIXTURE
tool=$1
fixture=$2
out=$("$tool" "$fixture")
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: exit $status without --strict (want 0)"
  exit 1
fi
case "$out" in
  *"per-phase wall-clock breakdown"*rollout*) ;;
  *)
    echo "FAIL: span table missing from output:"
    echo "$out"
    exit 1
    ;;
esac
"$tool" "$fixture" --strict > /dev/null
status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: exit $status with --strict (want 1)"
  exit 1
fi
echo "ok"
