"""Per-figure reproduction entry points.

Each function builds the sweep corresponding to one figure of the paper's
evaluation and returns its :class:`repro.experiments.runner.SweepResult`
(or, for Fig. 5B, the activation distributions).  The benchmark harness calls
these and prints the resulting series with
:func:`repro.experiments.reporting.format_figure_series`.

Figure inventory (paper -> function):

* Fig. 2  accuracy + spikes vs deletion, rate/phase/burst/TTFS     -> :func:`figure2_deletion`
* Fig. 3  accuracy + spikes vs jitter, rate/phase/burst/TTFS       -> :func:`figure3_jitter`
* Fig. 4  weight scaling and TTAS(t_a) vs deletion                 -> :func:`figure4_weight_scaling_ttas`
* Fig. 5B activation distribution under deletion per coding        -> :func:`figure5_activation_distribution`
* Fig. 6  TTFS vs TTAS(t_a) vs jitter                              -> :func:`figure6_ttas_jitter`
* Fig. 7  all codings with/without WS + TTAS(5)+WS vs deletion     -> :func:`figure7_deletion_comparison`
* Fig. 8  rate/phase/burst/TTFS/TTAS(10) vs jitter                 -> :func:`figure8_jitter_comparison`

Beyond the paper's figures, :func:`figure_fault_robustness` sweeps the
hardware-fault models of :mod:`repro.noise.faults` (dead neurons,
stuck-at-firing, burst errors) across all codings -- on either evaluator.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Union

from repro.coding.registry import create_coder, timestep_support
from repro.core.analysis import ActivationDistribution, activation_distribution
from repro.execution.executors import Executor
from repro.execution.store import ResultStore
from repro.experiments.config import (
    BENCH_ATTACK_BUDGETS,
    BENCH_DELETION_LEVELS,
    BENCH_JITTER_LEVELS,
    BENCH_SCALE,
    BURST_ERROR_LEVELS,
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_SHIFT_DELTA,
    FAULT_LEVELS,
    FAULT_NOISE_KINDS,
    AttackSweepConfig,
    ExperimentScale,
    MethodSpec,
    SweepConfig,
    filter_methods,
)
from repro.experiments.runner import (
    MethodCurve,
    SweepResult,
    run_attack_sweeps,
    run_noise_sweep,
)
from repro.experiments.workloads import PreparedWorkload
from repro.noise.deletion import DeletionNoise
from repro.utils.logging import get_logger

logger = get_logger("experiments.figures")

#: The four baseline codings of Figs. 2/3, in the paper's legend order.
BASELINE_CODINGS = ("rate", "phase", "burst", "ttfs")


def _sweep(
    dataset: str,
    methods: Sequence[MethodSpec],
    noise_kind: str,
    levels: Optional[Sequence[float]],
    scale: ExperimentScale,
    seed: int,
    workload: Optional[PreparedWorkload],
    eval_size: Optional[int],
    max_workers: Optional[int] = None,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
) -> SweepResult:
    if levels is None:
        levels = (
            BENCH_DELETION_LEVELS if noise_kind == "deletion" else BENCH_JITTER_LEVELS
        )
    config = SweepConfig(
        dataset=dataset,
        methods=filter_methods(methods, method_filter),
        noise_kind=noise_kind,
        levels=tuple(levels),
        scale=scale,
        seed=seed,
        spike_backend=spike_backend,
        simulator=simulator if simulator is not None else "transport",
    )
    return run_noise_sweep(
        config, workload=workload, eval_size=eval_size, max_workers=max_workers,
        executor=executor, store=store, batch_size=batch_size, shards=shards,
    )


def figure2_deletion(
    dataset: str = "cifar10",
    levels: Optional[Sequence[float]] = None,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workload: Optional[PreparedWorkload] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
) -> SweepResult:
    """Fig. 2: accuracy and spike counts vs deletion probability (no WS)."""
    methods = [MethodSpec(coding=c) for c in BASELINE_CODINGS]
    return _sweep(dataset, methods, "deletion", levels, scale, seed, workload, eval_size,
                  max_workers, executor=executor, store=store,
                  spike_backend=spike_backend,
                  batch_size=batch_size, simulator=simulator,
                  method_filter=method_filter, shards=shards)


def figure3_jitter(
    dataset: str = "cifar10",
    levels: Optional[Sequence[float]] = None,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workload: Optional[PreparedWorkload] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
) -> SweepResult:
    """Fig. 3: accuracy and spike counts vs jitter intensity (no WS)."""
    methods = [MethodSpec(coding=c) for c in BASELINE_CODINGS]
    return _sweep(dataset, methods, "jitter", levels, scale, seed, workload, eval_size,
                  max_workers, executor=executor, store=store,
                  spike_backend=spike_backend,
                  batch_size=batch_size, simulator=simulator,
                  method_filter=method_filter, shards=shards)


def figure4_weight_scaling_ttas(
    dataset: str = "cifar10",
    levels: Optional[Sequence[float]] = None,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workload: Optional[PreparedWorkload] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    ttas_durations: Sequence[int] = (1, 2, 3, 4, 5),
) -> SweepResult:
    """Fig. 4: weight scaling for every coding plus TTAS(t_a)+WS vs deletion."""
    methods = [MethodSpec(coding=c, weight_scaling=True) for c in BASELINE_CODINGS]
    methods.extend(
        MethodSpec(coding="ttas", weight_scaling=True, target_duration=t)
        for t in ttas_durations
    )
    return _sweep(dataset, methods, "deletion", levels, scale, seed, workload, eval_size,
                  max_workers, executor=executor, store=store,
                  spike_backend=spike_backend,
                  batch_size=batch_size, simulator=simulator,
                  method_filter=method_filter, shards=shards)


def figure5_activation_distribution(
    clean_value: float = 0.8,
    deletion_probability: float = 0.4,
    num_steps: int = 32,
    ttfs_steps: int = 16,
    trials: int = 400,
    target_duration: int = 5,
    seed: int = 0,
) -> Dict[str, ActivationDistribution]:
    """Fig. 5B: distribution of the noisy activation per coding scheme.

    Returns one :class:`ActivationDistribution` per coding, for a single clean
    activation value under deletion noise -- the histogram sketched in the
    paper (continuous around ``(1-p)A`` for rate-like codes, all-or-none for
    TTFS, bimodal towards 0 and A for TTAS).
    """
    noise = DeletionNoise(deletion_probability)
    distributions: Dict[str, ActivationDistribution] = {}
    specs = {
        "rate": create_coder("rate", num_steps=num_steps),
        "phase": create_coder("phase", num_steps=num_steps),
        "burst": create_coder("burst", num_steps=num_steps),
        "ttfs": create_coder("ttfs", num_steps=ttfs_steps),
        "ttas": create_coder("ttas", num_steps=ttfs_steps, target_duration=target_duration),
    }
    for name, coder in specs.items():
        distributions[name] = activation_distribution(
            coder, clean_value, noise, trials=trials, rng=seed
        )
    return distributions


def figure6_ttas_jitter(
    dataset: str = "cifar10",
    levels: Optional[Sequence[float]] = None,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workload: Optional[PreparedWorkload] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    ttas_durations: Sequence[int] = (1, 2, 3, 4, 5, 10),
) -> SweepResult:
    """Fig. 6: TTFS vs TTAS(t_a) under jitter (no weight scaling)."""
    methods = [MethodSpec(coding="ttfs")]
    methods.extend(
        MethodSpec(coding="ttas", target_duration=t) for t in ttas_durations
    )
    return _sweep(dataset, methods, "jitter", levels, scale, seed, workload, eval_size,
                  max_workers, executor=executor, store=store,
                  spike_backend=spike_backend,
                  batch_size=batch_size, simulator=simulator,
                  method_filter=method_filter, shards=shards)


def figure7_deletion_comparison(
    dataset: str = "cifar10",
    levels: Optional[Sequence[float]] = None,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workload: Optional[PreparedWorkload] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    ttas_duration: int = 5,
) -> SweepResult:
    """Fig. 7: every coding with and without WS, plus TTAS(5)+WS, vs deletion."""
    methods = [MethodSpec(coding=c) for c in BASELINE_CODINGS]
    methods.extend(MethodSpec(coding=c, weight_scaling=True) for c in BASELINE_CODINGS)
    methods.append(
        MethodSpec(coding="ttas", weight_scaling=True, target_duration=ttas_duration)
    )
    return _sweep(dataset, methods, "deletion", levels, scale, seed, workload, eval_size,
                  max_workers, executor=executor, store=store,
                  spike_backend=spike_backend,
                  batch_size=batch_size, simulator=simulator,
                  method_filter=method_filter, shards=shards)


def figure_fault_robustness(
    dataset: str = "cifar10",
    fault_kind: str = "dead",
    levels: Optional[Sequence[float]] = None,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workload: Optional[PreparedWorkload] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    ttas_duration: int = 5,
) -> SweepResult:
    """Hardware-fault robustness sweep: accuracy + spikes vs fault severity.

    ``fault_kind`` selects the fault model (``"dead"`` = stuck-at-silent
    neurons, ``"stuck"`` = stuck-at-firing neurons, ``"burst_error"`` =
    correlated deletion of a contiguous timestep window); the level axis is
    the faulty-neuron fraction (dead/stuck) or the deleted fraction of the
    time window (burst errors).  All codings with weight scaling, plus
    TTAS(t_a)+WS.  Runs on either evaluator via ``simulator=``.
    """
    if fault_kind not in FAULT_NOISE_KINDS:
        raise ValueError(
            f"fault_kind must be one of {FAULT_NOISE_KINDS}, got {fault_kind!r}"
        )
    if levels is None:
        levels = BURST_ERROR_LEVELS if fault_kind == "burst_error" else FAULT_LEVELS
    methods = [MethodSpec(coding=c, weight_scaling=True) for c in BASELINE_CODINGS]
    methods.append(
        MethodSpec(coding="ttas", weight_scaling=True, target_duration=ttas_duration)
    )
    return _sweep(dataset, methods, fault_kind, levels, scale, seed, workload, eval_size,
                  max_workers, executor=executor, store=store,
                  spike_backend=spike_backend,
                  batch_size=batch_size, simulator=simulator,
                  method_filter=method_filter, shards=shards)


def figure_adversarial(
    dataset: str = "mnist",
    attack_kind: str = "delete",
    budgets: Optional[Sequence[int]] = None,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workload: Optional[PreparedWorkload] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,  # accepted for CLI parity; attacks run per sample
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    search: str = "greedy",
    shift_delta: int = DEFAULT_SHIFT_DELTA,
    beam_width: int = 4,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    ttas_duration: int = 5,
) -> SweepResult:
    """Adversarial vs random spike-timing degradation per coding scheme.

    For every coding the figure shows two curves over the attack-budget
    axis: the worst case a budgeted attacker finds (``search``, default
    greedy) and the matched-budget *random* perturbation baseline -- the
    gap between them is how much worse targeted spike-timing corruption is
    than the average-case noise the paper's sweeps measure.  ``attack_kind``
    selects the perturbation space ("delete" / "shift" / "insert");
    ``simulator`` selects where the found attacks are *measured*
    ("transport", or "timestep" for transfer evaluation on the faithful
    simulator -- codings without a temporal protocol are dropped there with
    a warning).  Both sweeps dispatch as one flat cell batch, so executor
    parallelism, result-store resume and per-sample sharding all apply.
    """
    evaluator = simulator if simulator is not None else "transport"
    del batch_size  # attack cells evaluate sample-by-sample
    methods = [MethodSpec(coding=c) for c in BASELINE_CODINGS]
    methods.append(MethodSpec(coding="ttas", target_duration=ttas_duration))
    methods = filter_methods(methods, method_filter)
    if evaluator == "timestep":
        kept = []
        for method in methods:
            supported, note = timestep_support(method.coding)
            if supported:
                kept.append(method)
            else:
                logger.warning(
                    "dropping %s from the adversarial transfer figure: %s",
                    method.display_label(), note,
                )
        methods = kept
        if not methods:
            raise ValueError(
                "no requested method supports timestep transfer evaluation"
            )
    if budgets is None:
        budgets = BENCH_ATTACK_BUDGETS
    common = dict(
        dataset=dataset,
        methods=tuple(methods),
        attack_kind=attack_kind,
        budgets=tuple(int(b) for b in budgets),
        scale=scale,
        seed=seed,
        shift_delta=shift_delta,
        beam_width=beam_width,
        max_candidates=max_candidates,
        evaluator=evaluator,
        spike_backend=spike_backend,
    )
    adversarial_config = AttackSweepConfig(search=search, **common)
    random_config = AttackSweepConfig(search="random", **common)
    workloads = None if workload is None else {dataset: workload}
    adversarial, random_baseline = run_attack_sweeps(
        [adversarial_config, random_config],
        workloads=workloads,
        eval_size=eval_size,
        max_workers=max_workers,
        executor=executor,
        store=store,
        shards=shards,
    )
    # Merge into one result, pairing each coding's worst-case curve with its
    # matched random baseline.  The relabelling is display-only (labels are
    # cleared from attack fingerprints), so re-runs keep hitting the store.
    curves: List[MethodCurve] = []
    for worst, rand in zip(adversarial.curves, random_baseline.curves):
        curves.append(
            replace(worst, method=replace(worst.method, label=f"{worst.label} ({search})"))
        )
        curves.append(
            replace(rand, method=replace(rand.method, label=f"{rand.label} (random)"))
        )
    return SweepResult(
        config=adversarial.config,
        curves=curves,
        dnn_accuracy=adversarial.dnn_accuracy,
        dataset_name=adversarial.dataset_name,
        stats=adversarial.stats,
    )


def figure8_jitter_comparison(
    dataset: str = "cifar10",
    levels: Optional[Sequence[float]] = None,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = 0,
    workload: Optional[PreparedWorkload] = None,
    eval_size: Optional[int] = None,
    max_workers: Optional[int] = None,
    executor: Union[str, Executor, None] = None,
    store: Union[ResultStore, str, None, bool] = None,
    spike_backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    simulator: Optional[str] = None,
    method_filter: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    ttas_duration: int = 10,
) -> SweepResult:
    """Fig. 8: rate/phase/burst/TTFS/TTAS(10) under jitter (no WS)."""
    methods = [MethodSpec(coding=c) for c in BASELINE_CODINGS]
    methods.append(MethodSpec(coding="ttas", target_duration=ttas_duration))
    return _sweep(dataset, methods, "jitter", levels, scale, seed, workload, eval_size,
                  max_workers, executor=executor, store=store,
                  spike_backend=spike_backend,
                  batch_size=batch_size, simulator=simulator,
                  method_filter=method_filter, shards=shards)
