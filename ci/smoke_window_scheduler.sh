#!/usr/bin/env bash
# Window-scheduler smoke run.
#
# The simulator's window scheduler must change no result bits at any
# executor.  Proof, end to end: a temporal (TTFS) faithful sweep evaluated
# through the process executor is re-run through the serial executor against
# the same result store; every cell must hit the same store fingerprint
# (0 cells re-evaluated, no document added or rewritten).  A final TTAS
# evaluate guards the deepest scheduled protocol end to end.
#
# Run from the repository root: bash ci/smoke_window_scheduler.sh
set -euo pipefail

export PYTHONPATH="${PYTHONPATH:-src}"
STORE="${REPRO_SMOKE_STORE:-/tmp/repro-ci-windowstore}"
rm -rf "$STORE"

python -m repro figure --name fig2 --dataset mnist \
  --scale test --eval-size 8 --simulator timestep \
  --methods TTFS --executor process --max-workers 2 \
  --result-store "$STORE"
test "$(find "$STORE/cells" -name '*.json' | wc -l)" -eq 5
touch "$STORE/sentinel"
python -m repro figure --name fig2 --dataset mnist \
  --scale test --eval-size 8 --simulator timestep \
  --methods TTFS --executor serial \
  --result-store "$STORE"
test "$(find "$STORE/cells" -name '*.json' | wc -l)" -eq 5
test "$(find "$STORE/cells" -name '*.json' -newer "$STORE/sentinel" | wc -l)" -eq 0
python -m repro evaluate \
  --dataset mnist --scale test --coding ttas --simulator timestep \
  --eval-size 8
echo "window-scheduler smoke: process and serial runs hit identical store fingerprints"
