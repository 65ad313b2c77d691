"""Reproduction of Tables I and II, plus the hardware-fault table.

Table I reports, per dataset (MNIST, CIFAR-10, CIFAR-100) and per method
(rate/phase/burst/TTFS with weight scaling, TTAS with weight scaling), the
accuracy and spike counts at deletion probabilities {clean, 0.2, 0.5, 0.8}
plus their average.  Table II reports accuracy under jitter sigma
{clean, 1, 2, 3} for phase/burst/TTFS/TTAS without weight scaling.
:func:`table3_faults` extends the layout to the hardware-fault models
(dead neurons / stuck-at-firing / burst errors) of :mod:`repro.noise.faults`.

Both tables are built on :func:`repro.experiments.runner.run_sweeps`: the
cells of *all* datasets are compiled into one flat plan batch and dispatched
through the executor engine together, so a process pool shards whole
datasets across workers instead of sweeping them strictly serially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.execution.executors import Executor
from repro.execution.store import ResultStore
from repro.experiments.config import (
    BENCH_ATTACK_BUDGETS,
    BENCH_SCALE,
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_SHIFT_DELTA,
    AttackSweepConfig,
    ExperimentScale,
    FAULT_NOISE_KINDS,
    MethodSpec,
    SweepConfig,
    TABLE1_DELETION_LEVELS,
    TABLE2_JITTER_LEVELS,
    TABLE3_FAULT_LEVELS,
    filter_methods,
)
from repro.experiments.runner import (
    MethodCurve,
    SweepResult,
    run_attack_sweeps,
    run_sweeps,
)
from repro.experiments.workloads import PreparedWorkload


@dataclass
class TableRow:
    """One method's row of a results table.

    Attributes
    ----------
    dataset / method:
        Row identity.
    levels:
        Noise levels of the columns (0.0 is the "Clean" column).
    accuracies:
        Accuracy (%) per column, plus ``average_accuracy`` for "Avg.".
    spike_counts:
        Spikes per sample per column (Table I only), plus ``average_spikes``.
    """

    dataset: str
    method: str
    levels: List[float]
    accuracies: List[float]
    average_accuracy: float
    spike_counts: List[float] = field(default_factory=list)
    average_spikes: float = float("nan")


@dataclass
class TableResult:
    """A full table: rows grouped by dataset, plus provenance."""

    name: str
    rows: List[TableRow]
    noise_kind: str
    levels: List[float]

    def rows_for(self, dataset: str) -> List[TableRow]:
        return [row for row in self.rows if row.dataset == dataset]

    def row(self, dataset: str, method: str) -> TableRow:
        for candidate in self.rows_for(dataset):
            if candidate.method == method:
                return candidate
        raise KeyError(f"no row for ({dataset!r}, {method!r})")


def _nanmean(values: Sequence[float]) -> float:
    """Mean over the finite entries; NaN when none are finite.

    Holes (NaN cells left by fault-tolerant execution) are excluded so one
    failed cell degrades the "Avg." column gracefully instead of poisoning
    it to NaN outright.
    """
    finite = [value for value in values if not np.isnan(value)]
    return float(np.mean(finite)) if finite else float("nan")


def _curve_to_row(dataset: str, curve: MethodCurve, include_spikes: bool) -> TableRow:
    noisy = [
        (level, acc, sps)
        for level, acc, sps in zip(curve.levels, curve.accuracies, curve.spikes_per_sample)
        if level != 0.0
    ]
    average_accuracy = _nanmean([acc for _, acc, _ in noisy]) if noisy else float("nan")
    row = TableRow(
        dataset=dataset,
        method=curve.label,
        levels=list(curve.levels),
        accuracies=list(curve.accuracies),
        average_accuracy=average_accuracy,
    )
    if include_spikes:
        row.spike_counts = list(curve.spikes_per_sample)
        row.average_spikes = (
            _nanmean([sps for _, _, sps in noisy]) if noisy else float("nan")
        )
    return row


def _run_table(
    datasets: Sequence[str],
    methods: Sequence[MethodSpec],
    noise_kind: str,
    levels: Sequence[float],
    scale: ExperimentScale,
    seed: int,
    workloads: Optional[Dict[str, PreparedWorkload]],
    eval_size: Optional[int],
    include_spikes: bool,
    name: str,
    max_workers: Optional[int] = None,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
) -> TableResult:
    configs = [
        SweepConfig(
            dataset=dataset,
            methods=filter_methods(methods, method_filter),
            noise_kind=noise_kind,
            levels=tuple(levels),
            scale=scale,
            seed=seed,
            spike_backend=spike_backend,
            simulator=simulator if simulator is not None else "transport",
        )
        for dataset in datasets
    ]
    sweeps: List[SweepResult] = run_sweeps(
        configs,
        workloads=workloads,
        eval_size=eval_size,
        batch_size=batch_size,
        max_workers=max_workers,
        executor=executor,
        store=store,
        shards=shards,
    )
    rows: List[TableRow] = []
    for config, sweep in zip(configs, sweeps):
        rows.extend(
            _curve_to_row(config.dataset, curve, include_spikes)
            for curve in sweep.curves
        )
    return TableResult(name=name, rows=rows, noise_kind=noise_kind, levels=list(levels))


def table1_deletion(
    datasets: Sequence[str] = ("mnist", "cifar10", "cifar100"),
    levels: Sequence[float] = TABLE1_DELETION_LEVELS,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workloads: Optional[Dict[str, PreparedWorkload]] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    ttas_duration: int = 5,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
) -> TableResult:
    """Table I: accuracy and spike counts under deletion, all methods + WS."""
    methods = [
        MethodSpec(coding="rate", weight_scaling=True),
        MethodSpec(coding="phase", weight_scaling=True),
        MethodSpec(coding="burst", weight_scaling=True),
        MethodSpec(coding="ttfs", weight_scaling=True),
        MethodSpec(coding="ttas", weight_scaling=True, target_duration=ttas_duration),
    ]
    return _run_table(
        datasets, methods, "deletion", levels, scale, seed, workloads, eval_size,
        include_spikes=True, name="Table I (spike deletion)",
        max_workers=max_workers, executor=executor, store=store,
        spike_backend=spike_backend,
        batch_size=batch_size, simulator=simulator, method_filter=method_filter,
        shards=shards,
    )


def table2_jitter(
    datasets: Sequence[str] = ("mnist", "cifar10", "cifar100"),
    levels: Sequence[float] = TABLE2_JITTER_LEVELS,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workloads: Optional[Dict[str, PreparedWorkload]] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    ttas_duration: int = 10,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
) -> TableResult:
    """Table II: accuracy under jitter for phase/burst/TTFS/TTAS (no WS)."""
    methods = [
        MethodSpec(coding="phase"),
        MethodSpec(coding="burst"),
        MethodSpec(coding="ttfs"),
        MethodSpec(coding="ttas", target_duration=ttas_duration),
    ]
    return _run_table(
        datasets, methods, "jitter", levels, scale, seed, workloads, eval_size,
        include_spikes=False, name="Table II (spike jitter)",
        max_workers=max_workers, executor=executor, store=store,
        spike_backend=spike_backend,
        batch_size=batch_size, simulator=simulator, method_filter=method_filter,
        shards=shards,
    )


#: Human-readable names of the hardware-fault table variants.
_FAULT_TABLE_NAMES = {
    "dead": "Table III (dead neurons)",
    "stuck": "Table III (stuck-at-firing)",
    "burst_error": "Table III (burst errors)",
}


def table3_faults(
    datasets: Sequence[str] = ("mnist", "cifar10", "cifar100"),
    fault_kind: str = "dead",
    levels: Sequence[float] = TABLE3_FAULT_LEVELS,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workloads: Optional[Dict[str, PreparedWorkload]] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    ttas_duration: int = 5,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
) -> TableResult:
    """Hardware-fault robustness table: accuracy and spike counts under one
    of the circuit-fault models (``fault_kind`` in ``"dead"`` / ``"stuck"``
    / ``"burst_error"``), all codings with weight scaling.

    The same table runs on either evaluator: ``simulator="transport"``
    (default) applies the fault at every layer interface of the fast
    activation-transport evaluator; ``simulator="timestep"`` applies it to
    the input train and as persistent per-layer masks inside the faithful
    membrane simulation, gated by each layer's temporal protocol window.
    """
    if fault_kind not in FAULT_NOISE_KINDS:
        raise ValueError(
            f"fault_kind must be one of {FAULT_NOISE_KINDS}, got {fault_kind!r}"
        )
    methods = [
        MethodSpec(coding="rate", weight_scaling=True),
        MethodSpec(coding="phase", weight_scaling=True),
        MethodSpec(coding="burst", weight_scaling=True),
        MethodSpec(coding="ttfs", weight_scaling=True),
        MethodSpec(coding="ttas", weight_scaling=True, target_duration=ttas_duration),
    ]
    return _run_table(
        datasets, methods, fault_kind, levels, scale, seed, workloads, eval_size,
        include_spikes=True, name=_FAULT_TABLE_NAMES[fault_kind],
        max_workers=max_workers, executor=executor, store=store,
        spike_backend=spike_backend,
        batch_size=batch_size, simulator=simulator, method_filter=method_filter,
        shards=shards,
    )


def table_adversarial(
    datasets: Sequence[str] = ("mnist",),
    attack_kind: str = "delete",
    budgets: Sequence[int] = BENCH_ATTACK_BUDGETS,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workloads: Optional[Dict[str, PreparedWorkload]] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    ttas_duration: int = 5,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    search: str = "greedy",
    shift_delta: int = DEFAULT_SHIFT_DELTA,
    beam_width: int = 4,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> TableResult:
    """Worst-case robustness table: adversarial vs random, per coding.

    For every dataset and coding the table holds two rows -- the budgeted
    attacker's worst case (``search``, default greedy) and the
    matched-budget random baseline -- across the attack-budget columns
    (budget 0 is the "Clean" column).  ``simulator="timestep"`` transfer-
    evaluates the found attacks on the faithful simulator (codings without
    a temporal protocol are dropped by the config's validation there).
    The cells of all datasets and both searches dispatch as one flat batch.
    """
    del batch_size  # attack cells evaluate sample-by-sample
    from repro.coding.registry import timestep_support

    evaluator = simulator if simulator is not None else "transport"
    methods = [
        MethodSpec(coding="rate"),
        MethodSpec(coding="phase"),
        MethodSpec(coding="burst"),
        MethodSpec(coding="ttfs"),
        MethodSpec(coding="ttas", target_duration=ttas_duration),
    ]
    methods = filter_methods(methods, method_filter)
    if evaluator == "timestep":
        methods = [m for m in methods if timestep_support(m.coding)[0]]
        if not methods:
            raise ValueError(
                "no requested method supports timestep transfer evaluation"
            )
    configs = [
        AttackSweepConfig(
            dataset=dataset,
            methods=tuple(methods),
            attack_kind=attack_kind,
            budgets=tuple(int(b) for b in budgets),
            scale=scale,
            seed=seed,
            search=search_name,
            shift_delta=shift_delta,
            beam_width=beam_width,
            max_candidates=max_candidates,
            evaluator=evaluator,
            spike_backend=spike_backend,
        )
        for dataset in datasets
        for search_name in (search, "random")
    ]
    sweeps = run_attack_sweeps(
        configs,
        workloads=workloads,
        eval_size=eval_size,
        max_workers=max_workers,
        executor=executor,
        store=store,
        shards=shards,
    )
    rows: List[TableRow] = []
    # Pair each dataset's (search, random) sweeps and interleave per method.
    for pair_index in range(0, len(configs), 2):
        dataset = configs[pair_index].dataset
        worst, rand = sweeps[pair_index], sweeps[pair_index + 1]
        for worst_curve, rand_curve in zip(worst.curves, rand.curves):
            worst_row = _curve_to_row(dataset, worst_curve, include_spikes=True)
            worst_row.method = f"{worst_curve.label} ({search})"
            rand_row = _curve_to_row(dataset, rand_curve, include_spikes=True)
            rand_row.method = f"{rand_curve.label} (random)"
            rows.extend([worst_row, rand_row])
    return TableResult(
        name=f"Adversarial robustness (adv-{attack_kind}, {evaluator})",
        rows=rows,
        noise_kind=f"adv-{attack_kind}",
        levels=[float(b) for b in budgets],
    )
