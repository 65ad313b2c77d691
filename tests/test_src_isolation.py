"""The library never imports test code.

The reference engines live in ``tests/oracles``; the equivalence suites put
``tests/`` on ``sys.path`` to reach them.  Anything that runs the library
with only ``src/`` on the path -- the CLI, the examples, the end-to-end
benchmark -- would break if a module under ``src/`` imported one of them, and
the in-process suite cannot notice because ``tests/`` is already importable
there.  So this runs a fresh interpreter that sees ``src/`` alone.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})

import numpy as np
import repro

for info in pkgutil.walk_packages(repro.__path__, 'repro.'):
    importlib.import_module(info.name)

from repro.coding import RateCoder
from repro.conversion import convert_dnn_to_snn
from repro.core import evaluate_timestep
from repro.nn import build_mlp

rng = np.random.default_rng(0)
model = build_mlp(6, hidden_units=(5,), num_classes=3, rng=0)
network = convert_dnn_to_snn(model, rng.random((8, 6)).astype(np.float32))
result = evaluate_timestep(
    network, RateCoder(num_steps=8), rng.random((2, 6)), np.array([0, 1]), rng=0
)
assert result.num_samples == 2

leaked = sorted(
    name for name in sys.modules
    if name.split('.')[0] in ('oracles', 'tests', 'conftest')
)
print('LEAKED', leaked)
"""


def test_src_runs_without_test_code(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=SRC)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "LEAKED []" in completed.stdout, completed.stdout
