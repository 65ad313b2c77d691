"""The three sweep workloads: paper tables, faithful Fig. 7, attack search.

Each is a batch job run through the public ``repro.experiments`` API with
the executor, worker count, shards and store passed explicitly.  One *pass*
regenerates the whole table or figure.  Every cell of every pass is checked
against a reference computed once per run, untimed, on a different
execution path (the engine documents bit-identical results across
executors and shard counts).
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import harness
import tracing

import repro.execution.executors as executors
import repro.execution.store as store_module
import repro.experiments.figures as figures
import repro.experiments.tables as tables
import repro.experiments.workloads as workloads
from repro.experiments.config import BENCH_SCALE

#: (accuracy, spike count) of one cell, keyed by (sweep, dataset, method,
#: level).
Cells = Dict[Tuple[str, str, str, float], Tuple[float, float]]


def _prepare(dataset: str, cache_dir: str):
    return workloads.prepare_workload(
        dataset, scale=BENCH_SCALE, seed=harness.WEIGHTS_SEED, cache_dir=cache_dir,
    )


def _curve_cells(sweep: str, result) -> Cells:
    return {
        (sweep, result.dataset_name, curve.label, float(level)): (accuracy, spikes)
        for curve in result.curves
        for level, accuracy, spikes in zip(
            curve.levels, curve.accuracies, curve.spike_counts
        )
    }


def _row_cells(sweep: str, table) -> Cells:
    cells: Cells = {}
    for row in table.rows:
        spikes = row.spike_counts or [math.nan] * len(row.levels)
        for level, accuracy, count in zip(row.levels, row.accuracies, spikes):
            cells[(sweep, row.dataset, row.method, float(level))] = (accuracy, count)
    return cells


def compare(cells: Cells, reference: Cells) -> Tuple[int, int]:
    """(attempted, failed): a cell fails unless both numbers match exactly."""
    failed = 0
    for key, expected in reference.items():
        got = cells.get(key)
        if got is None or any(
            not (a == b or (math.isnan(a) and math.isnan(b)))
            for a, b in zip(got, expected)
        ) or math.isnan(got[0]):
            failed += 1
    failed += len(set(cells) - set(reference))
    return len(reference), failed


class Sweep:
    """A sweep workload: ``setup`` returns ``(prepared, executor)``."""

    name = ""
    #: Cell workers, for ``execution.engine.worker_busy_share``.
    workers = 1

    def __init__(self, seed: int, cache_dir: str, run_dir: str):
        self.seed = seed
        self.cache_dir = cache_dir
        self.run_dir = run_dir
        #: Output checks that fail outside the cell comparison.
        self.extra_failures = 0

    def close(self, state) -> None:
        state[1].close()

    def info(self, reference: Cells) -> dict:
        return {}


class TablesTransport(Sweep):
    """Tables I + II on the transport evaluator, 2-worker process pool."""

    name = "tables-transport"
    workers = 2
    eval_size = 32
    datasets = ("mnist", "cifar10", "cifar100")

    def setup(self):
        prepared = {d: _prepare(d, self.cache_dir) for d in self.datasets}
        pool = executors.ProcessExecutor(max_workers=self.workers)
        # One tiny cell per dataset forks the workers after the workloads
        # are registered, so they inherit them.
        tables.table1_deletion(
            datasets=self.datasets, levels=(0.0,), workloads=prepared, eval_size=1,
            executor=pool, store=False, shards=1, method_filter=["TTFS+WS"],
        )
        return prepared, pool

    def _tables(self, prepared, executor) -> Cells:
        common = dict(datasets=self.datasets, seed=self.seed, workloads=prepared,
                      eval_size=self.eval_size, executor=executor, store=False,
                      shards=1)
        cells = _row_cells("table1", tables.table1_deletion(**common))
        cells.update(_row_cells("table2", tables.table2_jitter(**common)))
        return cells

    def reference(self, state) -> Cells:
        return self._tables(state[0], executors.SerialExecutor())

    def run_pass(self, state) -> Tuple[Cells, int]:
        cells = self._tables(state[0], state[1])
        return cells, len(cells) * self.eval_size


class Fig7Timestep(Sweep):
    """Fig. 7 on the faithful time-stepped simulator, sharded over a pool.

    Burst is left out because the simulator refuses it.  Rate and Rate+WS
    stay in although the faithful simulator scores Rate at 0% clean on
    cifar10: the clean accuracy of every method is reported as information.
    """

    name = "fig7-timestep"
    workers = 2
    shards = 2
    eval_size = 16
    #: Two batches per cell, so each cell splits into two sample shards
    #: (shard bounds must fall on batch boundaries).
    batch_size = 8
    methods = ["Rate", "Phase", "TTFS", "Rate+WS", "Phase+WS", "TTFS+WS", "TTAS(5)+WS"]

    def setup(self):
        prepared = _prepare("cifar10", self.cache_dir)
        pool = executors.ProcessExecutor(max_workers=self.workers)
        figures.figure7_deletion_comparison(
            workload=prepared, levels=(0.0,), eval_size=2, executor=pool,
            store=False, simulator="timestep", shards=self.shards,
            method_filter=["Rate"],
        )
        return prepared, pool

    def _figure(self, prepared, executor, shards: int, store):
        return figures.figure7_deletion_comparison(
            workload=prepared, seed=self.seed, eval_size=self.eval_size,
            executor=executor, store=store, simulator="timestep",
            shards=shards, batch_size=self.batch_size, method_filter=self.methods,
        )

    def reference(self, state) -> Cells:
        return _curve_cells("fig7", self._figure(state[0], executors.SerialExecutor(), 1, False))

    def run_pass(self, state) -> Tuple[Cells, int]:
        root = tempfile.mkdtemp(prefix="store-", dir=self.run_dir)
        store = store_module.ResultStore(root)
        result = self._figure(state[0], state[1], self.shards, store)
        resumed = self._figure(state[0], state[1], self.shards, store)
        stats = resumed.stats
        # The resume pass must be served entirely from the store, unchanged.
        if stats.evaluated_cells or stats.store_hits != stats.total_cells:
            self.extra_failures += 1
        cells = _curve_cells("fig7", result)
        if _curve_cells("fig7", resumed) != cells:
            self.extra_failures += 1
        shutil.rmtree(root, ignore_errors=True)
        return cells, result.stats.evaluated_cells * self.eval_size

    def info(self, reference: Cells) -> dict:
        return {
            "clean_accuracy": {
                method: accuracy
                for (_, _, method, level), (accuracy, _) in sorted(reference.items())
                if level == 0.0
            },
            "resume_failures": self.extra_failures,
        }


class AttackGreedy(Sweep):
    """Greedy spike-deletion attack + matched random baseline, serial."""

    name = "attack-greedy"
    eval_size = 8
    budgets = (0, 2, 8)
    methods = ["TTFS", "TTAS(5)"]

    def setup(self):
        prepared = _prepare("cifar10", self.cache_dir)
        serial = executors.SerialExecutor()
        figures.figure_adversarial(
            dataset="cifar10", workload=prepared, budgets=(0,), eval_size=1,
            executor=serial, store=False, shards=1, method_filter=["TTFS"],
        )
        return prepared, serial

    def _figure(self, prepared, executor):
        return figures.figure_adversarial(
            dataset="cifar10", attack_kind="delete", search="greedy",
            budgets=self.budgets, workload=prepared, seed=self.seed,
            eval_size=self.eval_size, executor=executor, store=False, shards=1,
            method_filter=self.methods,
        )

    def reference(self, state) -> Cells:
        with executors.ProcessExecutor(max_workers=2) as pool:
            return _curve_cells("attack", self._figure(state[0], pool))

    def run_pass(self, state) -> Tuple[Cells, int]:
        cells = _curve_cells("attack", self._figure(state[0], state[1]))
        return cells, len(cells) * self.eval_size


SWEEPS = {cls.name: cls for cls in (TablesTransport, Fig7Timestep, AttackGreedy)}


def run(name: str, seed: int, seconds: float, cache_dir: str, run_dir: str,
        tracer: Optional[tracing.Tracer]) -> harness.Outcome:
    """Set up, check against the reference and time passes of one sweep.

    Untraced: passes repeat while the next one is expected to end within
    ``seconds`` (always at least one).  Traced: one untraced pass, then one
    traced pass; their ratio is the tracing overhead.
    """
    sweep = SWEEPS[name](seed, cache_dir, run_dir)
    state = None
    try:
        state, setup_times = tracing.timed_setups(
            sweep.setup, sweep.close, tracer, harness.SETUP_REPS,
        )
        reference = sweep.reference(state)

        durations: List[float] = []
        evaluations: List[int] = []
        attempted = failed = 0
        while True:
            if tracer is not None and durations:
                tracer.phase = tracing.MEASURE
            started = time.perf_counter()
            cells, evaluated = sweep.run_pass(state)
            durations.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.phase = tracing.OFF
            evaluations.append(evaluated)
            checked, wrong = compare(cells, reference)
            attempted += checked
            failed += wrong
            if tracer is not None:
                if len(durations) == 2:
                    break
            elif sum(durations) + durations[-1] > seconds:
                break
        rss = harness.peak_rss_mb()
    finally:
        if state is not None:
            sweep.close(state)
    failed += sweep.extra_failures

    info = dict(sweep.info(reference), passes=len(durations),
                pass_s=[round(d, 4) for d in durations])
    if tracer is not None:
        untraced, traced = (evaluations[i] / durations[i] for i in range(2))
        metrics = tracing.layer_metrics(
            tracer.collect(tracing.MEASURE), tracer.collect(tracing.SETUP),
            harness.SETUP_REPS, durations[1], sweep.workers,
        )
        metrics.update(dict.fromkeys(tracing.SERVING_ONLY, 0.0))
        # Extra time the traced pass took, as a share of the untraced one.
        metrics["bench.trace_overhead_share"] = untraced / traced - 1.0
        return harness.Outcome(metrics, attempted, failed, info)

    metrics = {
        "setup_s": harness.percentile(setup_times, 50),
        "samples_per_s": sum(evaluations) / sum(durations),
        "peak_rss_mb": rss,
    }
    info["setup_runs_s"] = [round(t, 4) for t in setup_times]
    return harness.Outcome(metrics, attempted, failed, info)
