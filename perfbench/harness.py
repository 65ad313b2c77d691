"""Shared pieces of the benchmark: environment, memory, statistics, results."""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Seed every trained network is prepared with.  The workload seed drives
#: the inputs (noise streams, arrival times, request mix, sample indices),
#: never the trained weights, so every seed measures the same networks.
WEIGHTS_SEED = 0

#: Datasets whose trained weights the benchmark caches.
DATASETS = ("mnist", "cifar10", "cifar100")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    info: Dict[str, object] = field(default_factory=dict)


def fill_weight_cache(cache_dir: str) -> None:
    """Train every benchmark network once into ``cache_dir`` (untimed).

    Trains into a scratch directory and moves the finished weight files in,
    so an interrupted fill never leaves a partial file in the cache.
    """
    marker = os.path.join(cache_dir, "filled")
    if os.path.exists(marker):
        return
    from repro.experiments.config import BENCH_SCALE
    from repro.experiments.workloads import prepare_workload

    os.makedirs(cache_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="fill-", dir=cache_dir)
    try:
        for dataset in DATASETS:
            prepare_workload(dataset, scale=BENCH_SCALE, seed=WEIGHTS_SEED,
                             cache_dir=scratch)
        for name in os.listdir(scratch):
            os.replace(os.path.join(scratch, name), os.path.join(cache_dir, name))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write("\n".join(DATASETS) + "\n")


def _blas_threads() -> object:
    """Default thread count of the OpenBLAS numpy loaded, if it is one."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = sorted({
            line.split()[-1] for line in handle
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        })
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return "unknown"


def environment(load_average: Sequence[float]) -> Dict[str, object]:
    """The machine facts a result depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_default_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load_average_at_start": [round(value, 2) for value in load_average],
    }


def _children(pid: int) -> List[int]:
    found: List[int] = []
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        with open(os.path.join(task_dir, tid, "children"), encoding="utf-8") as handle:
            found.extend(int(child) for child in handle.read().split())
    return found


def _peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus each live child's peak.

    Call while the workload's pool workers are still alive.  Summing peaks
    bounds the simultaneous peak from above.
    """
    total = _peak_rss_kb(os.getpid())
    for child in _children(os.getpid()):
        try:
            total += _peak_rss_kb(child)
        except FileNotFoundError:
            continue
    return total / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
