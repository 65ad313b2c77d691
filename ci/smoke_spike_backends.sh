#!/usr/bin/env bash
# Spike-backend store-identity smoke run.
#
# Every built-in coder emits events by default, and a sweep cell pins its
# spike backend when it is planned, so the backend is part of the cell's
# store address.  A default fig2 sweep persists 20 cells; forcing
# REPRO_SPIKE_BACKEND=dense must evaluate and persist 20 *new* cells (dense
# deletion draws a different, equally distributed realisation, so it must
# never be served the event run's results); forcing
# REPRO_SPIKE_BACKEND=events names the default backend explicitly and must
# be served entirely from the store -- a sentinel mtime check proves no
# document was rewritten.
#
# Run from the repository root: bash ci/smoke_spike_backends.sh
set -euo pipefail

export PYTHONPATH="${PYTHONPATH:-src}"
unset REPRO_SPIKE_BACKEND
STORE="${REPRO_SMOKE_STORE:-/tmp/repro-ci-spike-store}"
rm -rf "$STORE"

fig2() {
  python -m repro figure --name fig2 --dataset mnist \
    --scale test --eval-size 8 --result-store "$STORE"
}
count() {
  find "$STORE/cells" -name '*.json' "$@" | wc -l
}

fig2
test "$(count)" -eq 20
REPRO_SPIKE_BACKEND=dense fig2
test "$(count)" -eq 40
touch "$STORE/sentinel"
REPRO_SPIKE_BACKEND=events fig2
test "$(count)" -eq 40
test "$(count -newer "$STORE/sentinel")" -eq 0
echo "spike-backend smoke: default 20 cells, dense added 20, events re-ran 0"
