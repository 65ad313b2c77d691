"""Open-loop serving workload over the micro-batching scheduler.

One generator thread submits requests on a Poisson arrival schedule drawn
from the workload seed, regardless of how fast responses come back: the
independent-users model, in which a stall delays every later request.
Latency is timed from each request's *due* time, so it includes any time
the generator itself ran late.

The schedule has three phases at fixed offered rates: ``light`` and
``busy`` sit below the measured capacity (about 300-380 requests/s on two
cores), ``overload`` above it, where the backlog grows and the completion
rate is the capacity.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

import harness
import tracing

import repro.experiments.workloads as workloads
import repro.serving as serving
from repro.experiments.config import BENCH_SCALE

#: (name, offered requests/s, share of the run's seconds).
PHASES = (("light", 100.0, 0.5), ("busy", 150.0, 0.35), ("overload", 400.0, 0.15))

#: Index of the phase whose queue waits the traced run reports.
BUSY = 1

#: Latency limit on a phase's p99.
SLO_MS = 100.0

#: Request mix: (dataset, evaluator, probability).  The cifar10 timestep
#: evaluator (about 240 ms per padded batch) is left out: it would set
#: every percentile on its own.
MIX = (("mnist", "transport", 0.60), ("cifar10", "transport", 0.25),
       ("mnist", "timestep", 0.15))

CODING, NUM_STEPS = "ttas(3)", 16

#: Distinct test samples per dataset that requests draw from; bounds the
#: number of solo reference evaluations.
SAMPLE_POOL = 64

MAX_BATCH, MAX_DELAY_MS, SCHEDULER_WORKERS = 8, 2.0, 2

#: Seconds a pass may wait for its last responses after the schedule ends.
DRAIN_TIMEOUT_S = 60.0


class Plan:
    """The generated inputs: arrival offsets, phases, request kinds, samples."""

    def __init__(self, seed: int, seconds: float, test_sizes: Dict[str, int]):
        rng = np.random.default_rng([seed, 11])
        arrivals: List[np.ndarray] = []
        phases: List[np.ndarray] = []
        start = 0.0
        for index, (_, rate, share) in enumerate(PHASES):
            # A Poisson process conditioned on its count: the count is the
            # same for every seed, so the offered rate is exact.
            length = share * seconds
            count = int(round(rate * length))
            arrivals.append(start + np.sort(rng.uniform(0.0, length, size=count)))
            phases.append(np.full(count, index))
            start += length
        self.arrivals = np.concatenate(arrivals)
        self.phases = np.concatenate(phases)
        count = len(self.arrivals)
        # The mix holds exactly, in a seeded order.
        shares = np.round(np.cumsum([p for _, _, p in MIX]) * count).astype(int)
        self.kinds = rng.permutation(np.searchsorted(shares, np.arange(count), side="right"))
        self.samples = rng.integers(0, SAMPLE_POOL, size=count)
        #: dataset -> test-set indices of its sample pool.
        self.pools = {
            dataset: rng.choice(size, size=SAMPLE_POOL, replace=False)
            for dataset, size in sorted(test_sizes.items())
        }

    def __len__(self) -> int:
        return len(self.arrivals)


class Serve:
    """Inputs, set-up, reference and one open-loop pass of the schedule."""

    def __init__(self, seed: int, seconds: float, cache_dir: str):
        self.cache_dir = cache_dir
        data = {
            dataset: workloads.prepare_workload(
                dataset, scale=BENCH_SCALE, seed=harness.WEIGHTS_SEED,
                cache_dir=cache_dir,
            ).data.test.x
            for dataset in sorted({d for d, _, _ in MIX})
        }
        self.plan = Plan(seed, seconds, {d: len(x) for d, x in data.items()})
        #: dataset -> (SAMPLE_POOL, ...) images the requests carry.
        self.images = {d: np.ascontiguousarray(x[self.plan.pools[d]]) for d, x in data.items()}
        self.specs = [
            serving.RequestSpec.create(evaluator=evaluator, coding=CODING,
                                       num_steps=NUM_STEPS)
            for _, evaluator, _ in MIX
        ]

    def setup(self):
        registry = serving.ModelRegistry(store=False)
        keys = {
            dataset: registry.register(dataset, scale=BENCH_SCALE,
                                       seed=harness.WEIGHTS_SEED,
                                       cache_dir=self.cache_dir)
            for dataset in sorted({d for d, _, _ in MIX})
        }
        scheduler = serving.MicroBatchScheduler(
            registry, max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS,
            max_workers=SCHEDULER_WORKERS,
        )
        # One request per kind builds and memoises every evaluator.
        warm = [
            scheduler.submit(keys[dataset], self.images[dataset][0], spec=spec)
            for (dataset, _, _), spec in zip(MIX, self.specs)
        ]
        for future in warm:
            future.result(timeout=DRAIN_TIMEOUT_S)
        return registry, scheduler, keys

    def reference(self, state) -> Dict[Tuple[int, int], np.ndarray]:
        """Solo evaluation of every (kind, sample) the plan requests."""
        registry, _, keys = state
        logits = {}
        for kind, sample in sorted(set(zip(self.plan.kinds.tolist(),
                                           self.plan.samples.tolist()))):
            dataset = MIX[kind][0]
            served = serving.serve_batch(
                registry.get(keys[dataset]), self.specs[kind],
                self.images[dataset][sample][None],
            )
            logits[(kind, sample)] = served[0].logits
        return logits

    def run_pass(self, state):
        """Play the whole schedule once; returns per-request timings."""
        _, scheduler, keys = state
        plan = self.plan
        count = len(plan)
        submitted = np.zeros(count)
        done = np.full(count, np.nan)
        futures: List = [None] * count
        origin: List[float] = []

        def finished(index, _future):
            done[index] = time.perf_counter()

        def generate():
            start = time.perf_counter() + 0.05
            origin.append(start)
            for index in range(count):
                delay = start + plan.arrivals[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                kind = int(plan.kinds[index])
                dataset = MIX[kind][0]
                submitted[index] = time.perf_counter()
                future = scheduler.submit(
                    keys[dataset], self.images[dataset][plan.samples[index]],
                    spec=self.specs[kind],
                )
                futures[index] = future
                future.add_done_callback(partial(finished, index))

        generator = threading.Thread(target=generate, name="open-loop-generator")
        generator.start()
        generator.join()
        wait(futures, timeout=DRAIN_TIMEOUT_S)
        due = origin[0] + plan.arrivals
        return due, submitted, done, futures

    def check(self, futures, reference) -> int:
        failed = 0
        for index, future in enumerate(futures):
            if not future.done() or future.exception() is not None:
                failed += 1
                continue
            key = (int(self.plan.kinds[index]), int(self.plan.samples[index]))
            if not np.array_equal(future.result().logits, reference[key]):
                failed += 1
        return failed


def _phase_stats(due, done, phases):
    """Per phase: latencies (ms), completion rate, SLO verdict."""
    stats = []
    for index, (name, rate, _) in enumerate(PHASES):
        mask = phases == index
        latency_ms = (done[mask] - due[mask]) * 1000.0
        complete = not np.isnan(latency_ms).any()
        finite = latency_ms[~np.isnan(latency_ms)]
        throughput = (
            len(finite) / (np.nanmax(done[mask]) - due[mask].min()) if len(finite) else 0.0
        )
        tail = finite[3 * len(finite) // 4:]
        meets = bool(
            complete and len(finite)
            and harness.percentile(finite, 99) <= SLO_MS
            # No growing backlog: the phase's last quarter is as fast.
            and harness.percentile(tail, 50) <= SLO_MS
        )
        stats.append({
            "name": name, "offered_rps": rate, "count": int(mask.sum()),
            "p50_ms": harness.percentile(finite, 50) if len(finite) else float("nan"),
            "p99_ms": harness.percentile(finite, 99) if len(finite) else float("nan"),
            "completed_rps": throughput, "meets_slo": meets,
        })
    return stats


def run(seed: int, seconds: float, cache_dir: str,
        tracer: Optional[tracing.Tracer]) -> harness.Outcome:
    """Set up, check against the reference and play the schedule once;
    traced: once untraced, then once traced."""
    workload = Serve(seed, seconds, cache_dir)
    state = None
    try:
        state, setup_times = tracing.timed_setups(
            workload.setup, lambda state: state[1].close(), tracer,
            harness.SETUP_REPS,
        )
        registry, scheduler, _ = state
        reference = workload.reference(state)

        passes = []
        attempted = failed = 0
        for traced in ([False, True] if tracer is not None else [False]):
            registry_before = registry.stats.as_dict()
            scheduler_before = scheduler.stats.as_dict()
            if traced:
                tracer.phase = tracing.MEASURE
            started = time.perf_counter()
            due, submitted, done, futures = workload.run_pass(state)
            wall = time.perf_counter() - started
            if traced:
                tracer.phase = tracing.OFF
            attempted += len(futures)
            failed += workload.check(futures, reference)
            passes.append((due, submitted, done, futures, wall, registry_before,
                           scheduler_before))
        rss = harness.peak_rss_mb()
    finally:
        if state is not None:
            state[1].close()

    due, submitted, done, futures, wall, _, _ = passes[0]
    phases = _phase_stats(due, done, workload.plan.phases)
    light, busy, overload = phases
    meeting = [phase["completed_rps"] for phase in phases if phase["meets_slo"]]
    info = {
        "requests": len(workload.plan),
        # Printed, not gated: too noisy on two cores for a 25% bound.
        "serving": {
            name: {"value": value, "unit": unit}
            for name, value, unit in (
                ("light_p50_ms", light["p50_ms"], "ms"),
                ("light_p99_ms", light["p99_ms"], "ms"),
                ("busy_p50_ms", busy["p50_ms"], "ms"),
                ("busy_p99_ms", busy["p99_ms"], "ms"),
                ("max_rps_slo", meeting[-1] if meeting else 0.0, "req/s"),
                ("capacity_rps", overload["completed_rps"], "req/s"),
            )
        },
        "phases": phases,
        "generator_late_p99_ms": harness.percentile((submitted - due) * 1000.0, 99),
        "setup_runs_s": [round(t, 4) for t in setup_times],
    }
    if tracer is None:
        metrics = {
            "setup_s": harness.percentile(setup_times, 50),
            # Serving throughput: the completion rate under overload.
            "samples_per_s": overload["completed_rps"],
            "peak_rss_mb": rss,
        }
        return harness.Outcome(metrics, attempted, failed, info)

    due, submitted, done, futures, wall, registry_before, scheduler_before = passes[1]
    spans = tracer.collect(tracing.MEASURE)
    metrics = tracing.layer_metrics(
        spans, tracer.collect(tracing.SETUP), harness.SETUP_REPS, wall,
        SCHEDULER_WORKERS,
    )
    registry_after = registry.stats.as_dict()
    scheduler_after = scheduler.stats.as_dict()
    delta = {k: scheduler_after[k] - scheduler_before[k] for k in scheduler_before}
    # The futures still hold every result, so no id was reused.
    batch_start = {
        served: span.start
        for span in spans if span.name == "serving.inference.serve_batch"
        for served in (span.attrs or {}).get("results", [])
    }
    waits_ms = [
        (batch_start[id(future.result())] - submitted[index]) * 1000.0
        for index, future in enumerate(futures)
        if workload.plan.phases[index] == BUSY
        and future.done() and future.exception() is None
        and id(future.result()) in batch_start
    ]
    flushes = delta["full_flushes"] + delta["deadline_flushes"] + delta["drain_flushes"]
    traced_light = _phase_stats(due, done, workload.plan.phases)[0]
    metrics.update({
        "serving.registry.loads": registry_after["loads"] - registry_before["loads"],
        "serving.registry.hits": registry_after["hits"] - registry_before["hits"],
        "serving.scheduler.queue_wait_p50_ms": harness.percentile(waits_ms, 50),
        "serving.scheduler.queue_wait_p99_ms": harness.percentile(waits_ms, 99),
        "serving.scheduler.mean_batch_size": (
            delta["batched_samples"] / delta["batches"] if delta["batches"] else 0.0
        ),
        "serving.scheduler.deadline_flush_share": (
            delta["deadline_flushes"] / flushes if flushes else 0.0
        ),
        "bench.generator_late_p99_ms": harness.percentile((submitted - due) * 1000.0, 99),
        "bench.trace_overhead_share": traced_light["p50_ms"] / light["p50_ms"] - 1.0,
    })
    return harness.Outcome(metrics, attempted, failed, info)
