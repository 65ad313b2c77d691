#!/usr/bin/env bash
# Process-executor smoke run.
#
# End-to-end sweep through the process backend + result store: the first
# run evaluates and persists every cell; the second must be served entirely
# from the store (resume/incremental guarantee) -- a sentinel mtime check
# proves no document was rewritten, i.e. no cell was re-evaluated.  A third
# run evaluates the same sweep serially into a second store, and every
# persisted cell's accuracy and spike count must equal the process pool's:
# the pool's workers pin their BLAS threads, and that must change no bit.
#
# Run from the repository root: bash ci/smoke_process_executor.sh
set -euo pipefail

export PYTHONPATH="${PYTHONPATH:-src}"
STORE="${REPRO_SMOKE_STORE:-/tmp/repro-ci-store}"
SERIAL_STORE="$STORE-serial"
rm -rf "$STORE" "$SERIAL_STORE"

python -m repro figure --name fig2 --dataset mnist \
  --scale test --eval-size 8 --executor process --max-workers 2 \
  --result-store "$STORE"
test "$(find "$STORE/cells" -name '*.json' | wc -l)" -eq 20
touch "$STORE/sentinel"
python -m repro figure --name fig2 --dataset mnist \
  --scale test --eval-size 8 --executor serial \
  --result-store "$STORE"
test "$(find "$STORE/cells" -name '*.json' -newer "$STORE/sentinel" | wc -l)" -eq 0

python -m repro figure --name fig2 --dataset mnist \
  --scale test --eval-size 8 --executor serial \
  --result-store "$SERIAL_STORE"
python - "$STORE" "$SERIAL_STORE" <<'EOF'
import json
import pathlib
import sys

pooled, serial = (pathlib.Path(root, "cells") for root in sys.argv[1:3])
names = sorted(path.relative_to(pooled) for path in pooled.rglob("*.json"))
assert names == sorted(path.relative_to(serial) for path in serial.rglob("*.json"))
for name in names:
    got, want = (json.loads((root / name).read_text())["result"]
                 for root in (pooled, serial))
    for key in ("accuracy", "total_spikes"):
        assert got[key] == want[key], (str(name), key, got[key], want[key])
print(f"{len(names)} process-pool cells match the serial run bit for bit")
EOF
echo "process-executor smoke: 20 cells persisted, resume re-ran 0 cells," \
  "serial cells identical"
