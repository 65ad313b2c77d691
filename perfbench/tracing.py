"""Span recorder for the benchmark's traced runs.

The recorder wraps the public entry points of each layer of ``repro`` from
outside the program: nothing under ``src/`` changes, and an untraced run
installs no wrapper at all.  Each wrapped call records one span -- name,
start, end, parent span and a few counts taken from its arguments or result
-- into an in-memory list.

Process-pool workers are forked after the wrappers are installed, so they
inherit them.  Whether spans are recorded is decided by a flag in shared
memory, readable from every process, so the benchmark can trace one pass
and leave the reference and comparison passes untraced.  A worker keeps its
spans in memory and writes them to one file per process when it exits (the
pool's shutdown at the end of the workload); :meth:`Tracer.collect` merges
those files with the parent's spans.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import multiprocessing
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: Recording phases, stored in shared memory.
OFF, SETUP, MEASURE = 0, 1, 2

#: Per-layer metrics only the serving workload produces (0 elsewhere).
SERVING_ONLY = (
    "serving.registry.loads", "serving.registry.hits",
    "serving.scheduler.queue_wait_p50_ms", "serving.scheduler.queue_wait_p99_ms",
    "serving.scheduler.mean_batch_size", "serving.scheduler.deadline_flush_share",
    "bench.generator_late_p99_ms",
)


class Span(NamedTuple):
    """One recorded call."""

    pid: int
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    phase: int
    attrs: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder shared by a process and its forked workers."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self._phase = multiprocessing.RawValue(ctypes.c_int, OFF)
        self._reset()
        # Runs in every multiprocessing child after fork, after the child
        # cleared its inherited exit finalizers.
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _after_fork(self) -> None:
        self._reset()
        multiprocessing.util.Finalize(self, self._spill, exitpriority=10)

    def _spill(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")

    @property
    def phase(self) -> int:
        return self._phase.value

    @phase.setter
    def phase(self, value: int) -> None:
        self._phase.value = value

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``attrs(result, args, kwargs)`` may return a dict of counts stored
        with the span; it runs after the span's end time is taken.
        A call that raises records a span whose attrs name the error.
        """
        phase_value = self._phase

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = phase_value.value
            if phase == OFF:
                return fn(*args, **kwargs)
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(
                    self.pid, span_id, parent, name, start, end, phase,
                    {"error": type(error).__name__},
                ))
                raise
            end = time.perf_counter()
            stack.pop()
            extra = attrs(result, args, kwargs) if attrs is not None else None
            self.spans.append(
                Span(self.pid, span_id, parent, name, start, end, phase, extra)
            )
            return result

        return traced

    def collect(self, phase: int) -> List[Span]:
        """The parent's spans plus every spilled worker span of ``phase``."""
        spans = [span for span in self.spans if span.phase == phase]
        if os.path.isdir(self.spill_dir):
            for name in sorted(os.listdir(self.spill_dir)):
                with open(os.path.join(self.spill_dir, name), encoding="utf-8") as handle:
                    for line in handle:
                        span = Span(*json.loads(line))
                        if span.phase == phase:
                            spans.append(span)
        return spans


def timed_setups(setup: Callable, close: Callable, tracer: Optional[Tracer],
                 reps: int) -> Tuple[object, List[float]]:
    """Run ``setup`` ``reps`` times, closing every state but the last.

    Returns the last state and the seconds each set-up took; set-up spans
    are recorded under the ``SETUP`` phase when tracing.
    """
    times: List[float] = []
    state = None
    for _ in range(reps):
        if state is not None:
            close(state)
            state = None
        if tracer is not None:
            tracer.phase = SETUP
        started = time.perf_counter()
        try:
            state = setup()
        finally:
            if tracer is not None:
                tracer.phase = OFF
        times.append(time.perf_counter() - started)
    return state, times


# ---------------------------------------------------------------------------
# What to wrap
# ---------------------------------------------------------------------------
def _spikes(result, args, kwargs):
    return {"spikes": int(result.total_spikes())}


def _search(result, args, kwargs):
    search = kwargs.get("search", args[2] if len(args) > 2 else "")
    return {"search": str(search), "candidates": int(result.candidates_scored),
            "moves": int(result.moves)}


def _cell(result, args, kwargs):
    plan = args[0]
    return {"shard": getattr(plan, "sample_start", None) is not None}


def _store_get(result, args, kwargs):
    return {"hit": result is not None}


def _store_put(result, args, kwargs):
    return {"bytes": os.path.getsize(result)}


def _batch(result, args, kwargs):
    spec, batch = args[1], args[2]
    rows = int(len(batch))
    lanes = int(spec.lanes)
    # ``results`` identifies the requests served, for their queue waits.
    return {"evaluator": spec.evaluator, "rows": rows,
            "padded": -(-rows // lanes) * lanes,
            "results": [id(served) for served in result]}


def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (modules import functions by name from each other)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method_family(tracer: Tracer, name: str, base: type, method: str,
                        attrs=None) -> None:
    """Wrap ``method`` on ``base`` and on every subclass overriding it."""
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if method in vars(cls):
            setattr(cls, method, tracer.wrap(name, vars(cls)[method], attrs))


def install(spill_dir: str) -> Tracer:
    """Create the process's tracer and wrap every traced entry point.

    Call before any pool is created: forked workers inherit the wrappers.
    """
    import repro.coding  # noqa: F401 - registers every coder subclass
    import repro.conversion.converter as converter
    import repro.core.timestep as timestep
    import repro.core.transport as transport
    import repro.execution.engine as engine
    import repro.execution.store as store
    import repro.experiments.figures  # noqa: F401 - binds imported names
    import repro.experiments.tables  # noqa: F401
    import repro.experiments.workloads as workloads
    import repro.noise.adversarial as adversarial
    import repro.noise.injector as injector
    import repro.serving.inference as inference
    import repro.serving.registry as registry
    import repro.serving.scheduler  # noqa: F401
    import repro.snn.neurons as neurons
    import repro.snn.simulator as simulator
    from repro.coding.base import NeuralCoder

    tracer = Tracer(spill_dir)
    functions = [
        ("experiments.workloads.prepare", workloads, "prepare_workload", None),
        ("conversion.convert", converter, "convert_dnn_to_snn", None),
        ("noise.adversarial.search", adversarial, "run_attack_search", _search),
        ("core.timestep.build", timestep, "build_time_stepped_simulator", None),
        ("execution.engine.cell", engine, "execute_cell", _cell),
        ("serving.inference.serve_batch", inference, "serve_batch", _batch),
    ]
    for span_name, module, attr, attrs in functions:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(span_name, original, attrs))

    _wrap_method_family(tracer, "coding.encode", NeuralCoder, "encode", _spikes)
    _wrap_method_family(tracer, "coding.decode", NeuralCoder, "decode")
    _wrap_method_family(tracer, "snn.neurons.advance", neurons.SpikingNeuron, "advance")
    methods = [
        ("noise.apply", injector.NoiseInjector, "apply", None),
        ("nn.forward", converter.NetworkSegment, "forward", None),
        ("core.transport.forward", transport.ActivationTransportSimulator, "forward", None),
        ("snn.simulator.run", simulator.TimeSteppedSimulator, "run", _spikes),
        ("execution.store.get", store.ResultStore, "get", _store_get),
        ("execution.store.get", store.ResultStore, "get_shard", _store_get),
        ("execution.store.put", store.ResultStore, "put", _store_put),
        ("execution.store.put", store.ResultStore, "put_shard", _store_put),
        ("serving.registry.get", registry.ModelRegistry, "get", None),
    ]
    for span_name, cls, attr, attrs in methods:
        setattr(cls, attr, tracer.wrap(span_name, vars(cls)[attr], attrs))
    return tracer


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def self_times(spans: List[Span]) -> Dict[Tuple[int, int], float]:
    """Each span's duration minus the time its direct children cover."""
    children: Dict[Tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[(span.pid, span.parent)] += span.duration
    return {
        (span.pid, span.id): span.duration - children[(span.pid, span.id)]
        for span in spans
    }


def by_name(spans: List[Span]) -> Dict[str, List[Span]]:
    grouped: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        grouped[span.name].append(span)
    return grouped


def layer_metrics(measured: List[Span], setup: List[Span], setup_reps: int,
                  wall: float, workers: int) -> Dict[str, float]:
    """Per-layer metrics common to every workload.

    ``measured`` are the spans of one traced pass lasting ``wall`` seconds
    on ``workers`` cell workers; ``setup`` are the spans of ``setup_reps``
    traced set-ups.  Every ``*_s`` metric is self time (the span minus its
    traced children), summed over the pass, except the busy times
    ``execution.engine.cell_busy_s`` and ``serving.inference.batch_s.*``,
    which are whole spans.
    """
    own = self_times(measured)
    own_setup = self_times(setup)
    names = {(span.pid, span.id): span.name for span in measured}
    # Outer spans only: a coder's decode that calls its base class's decode
    # is one call, not two.
    outer = [span for span in measured
             if names.get((span.pid, span.parent)) != span.name]
    groups = by_name(outer)
    setup_groups = by_name(setup)

    def self_s(name: str) -> float:
        return sum(own[(span.pid, span.id)] for span in measured if span.name == name)

    def setup_self_s(name: str) -> float:
        return sum(own_setup[(span.pid, span.id)]
                   for span in setup_groups.get(name, [])) / max(1, setup_reps)

    def attr_sum(spans: List[Span], key: str) -> float:
        return sum((span.attrs or {}).get(key, 0) for span in spans)

    def count(name: str) -> int:
        return len(groups.get(name, []))

    searches = groups.get("noise.adversarial.search", [])
    scored = [span for span in searches if (span.attrs or {}).get("candidates", 0)]
    candidates = attr_sum(scored, "candidates")
    cells = groups.get("execution.engine.cell", [])
    cell_busy = sum(span.duration for span in cells)
    gets = groups.get("execution.store.get", [])
    puts = groups.get("execution.store.put", [])
    batches = groups.get("serving.inference.serve_batch", [])
    rows = attr_sum(batches, "rows")
    padded = attr_sum(batches, "padded")
    metrics = {
        "experiments.workloads.prepare_s": setup_self_s("experiments.workloads.prepare"),
        "conversion.convert_s": setup_self_s("conversion.convert"),
        "coding.encode_s": self_s("coding.encode"),
        "coding.decode_s": self_s("coding.decode"),
        "coding.calls": count("coding.encode") + count("coding.decode"),
        "coding.spikes": attr_sum(groups.get("coding.encode", []), "spikes"),
        "noise.apply_s": self_s("noise.apply"),
        "noise.calls": count("noise.apply"),
        "noise.adversarial.search_s": self_s("noise.adversarial.search"),
        "noise.adversarial.candidates": attr_sum(searches, "candidates"),
        "noise.adversarial.accepted_share": (
            attr_sum(scored, "moves") / candidates if candidates else 0.0
        ),
        "nn.forward_s": self_s("nn.forward"),
        "core.transport.self_s": self_s("core.transport.forward"),
        "core.transport.batches": count("core.transport.forward"),
        "core.timestep.build_s": self_s("core.timestep.build"),
        "snn.simulator.run_s": self_s("snn.simulator.run"),
        "snn.simulator.runs": count("snn.simulator.run"),
        "snn.neurons.advance_s": self_s("snn.neurons.advance"),
        "snn.simulator.spikes": attr_sum(groups.get("snn.simulator.run", []), "spikes"),
        "execution.engine.cells": sum(
            1 for span in cells if not (span.attrs or {}).get("shard")
        ),
        "execution.engine.shards": sum(
            1 for span in cells if (span.attrs or {}).get("shard")
        ),
        "execution.engine.cell_busy_s": cell_busy,
        "execution.engine.worker_busy_share": (
            cell_busy / (workers * wall) if wall > 0 else 0.0
        ),
        "execution.engine.retries": sum(
            1 for span in cells if (span.attrs or {}).get("error")
        ),
        "execution.store.put_s": self_s("execution.store.put"),
        "execution.store.puts": count("execution.store.put"),
        "execution.store.bytes_written": attr_sum(puts, "bytes"),
        "execution.store.get_s": self_s("execution.store.get"),
        "execution.store.hit_share": (
            sum(1 for span in gets if (span.attrs or {}).get("hit")) / len(gets)
            if gets else 0.0
        ),
        "serving.registry.get_s": self_s("serving.registry.get"),
        "serving.inference.lane_fill_share": rows / padded if padded else 0.0,
    }
    for evaluator in ("transport", "timestep"):
        metrics[f"serving.inference.batch_s.{evaluator}"] = sum(
            span.duration for span in batches
            if (span.attrs or {}).get("evaluator") == evaluator
        )
    return metrics
