"""End-to-end benchmark of the SNN reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload tables-transport --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the root and
described in ``perfbench/README.md``.  The last line printed is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it records the environment and
workload-specific information.  The exit code is non-zero when any output
check fails.

The first run trains the benchmark's networks into
``.bench_build/perfbench/weights`` (untimed); later runs load them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
WEIGHTS = os.path.join(WORK, "weights")

#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
#: Cleared so the program's own threading policy is what gets measured.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def _hermetic_environment() -> None:
    """Drop every ``REPRO_*`` knob and BLAS thread setting; pin the weight
    cache.  Must run before numpy is imported."""
    for name in list(os.environ):
        if name.startswith("REPRO_") or name in THREAD_VARIABLES:
            del os.environ[name]
    # Workers that rebuild a workload from its reference read this cache.
    os.environ["REPRO_CACHE_DIR"] = WEIGHTS


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    load_average = os.getloadavg()
    _hermetic_environment()
    sys.path[:0] = [SRC, HERE]

    import harness
    import tracing
    from repro.utils.logging import set_verbosity

    # Sweeps run the trained network under the workload seed's noise
    # streams, which the runner reports as a warning on every call.
    set_verbosity("error")
    harness.fill_weight_cache(WEIGHTS)
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        tracer = None
        if args.trace:
            spill_dir = os.path.join(run_dir, "spans")
            os.makedirs(spill_dir)
            # Before the workload modules bind any traced name.
            tracer = tracing.install(spill_dir)
        import serve
        import sweeps

        if args.workload in sweeps.SWEEPS:
            outcome = sweeps.run(args.workload, args.seed, args.seconds,
                                 WEIGHTS, run_dir, tracer)
        else:
            outcome = serve.run(args.seed, args.seconds, WEIGHTS, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        metric["name"]: {"value": float(outcome.metrics[metric["name"]]),
                         "unit": metric["unit"]}
        for metric in declared
    }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": harness.environment(load_average), "info": outcome.info,
    }))
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": int(outcome.attempted),
        "failed": int(outcome.failed), "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
