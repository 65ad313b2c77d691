"""Reference simulation engines for :class:`TimeSteppedSimulator`.

:meth:`TimeSteppedSimulator.run` is the library's only engine: it folds time
into each layer's transform calls and touches only each layer's active
window.  The two engines it replaced are kept here as oracles:

* :func:`run_stepped` -- the time-outer/layer-inner loop: one synaptic
  transform call per layer per time step,
* :func:`run_fused` -- the layer-outer fold over the full grid, with no
  window scheduling.

Both take the simulator they evaluate and read its layers, kernels and fold
helpers, so a test can run the same network through all three engines.
Emitted spikes agree bit for bit across all three; ``run`` matches
:func:`run_fused` bit for bit on the readout potential too, while
:func:`run_stepped` matches it to float-summation order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.snn.neurons import NeuronState
from repro.snn.simulator import LayerFaultMask, SimulationRecord, TimeSteppedSimulator
from repro.snn.spikes import SpikeTrain, SpikeTrainArray


def dense_input(sim: TimeSteppedSimulator, input_spikes: SpikeTrain) -> SpikeTrainArray:
    """Densify ``input_spikes`` and zero-pad it to the simulator's full grid."""
    dense = input_spikes.to_dense()
    if dense.num_steps < sim.num_steps:
        # Per-layer protocols simulate past the encode window; no input
        # spikes exist there, so the train extends with silent steps.
        counts = dense.counts
        padded = np.zeros(
            (sim.num_steps,) + counts.shape[1:], dtype=counts.dtype
        )
        padded[: counts.shape[0]] = counts
        dense = SpikeTrainArray(padded, copy=False)
    return dense


def apply_step(
    mask: LayerFaultMask,
    spikes: np.ndarray,
    step: int,
    fire_start: int = 0,
    fire_stop: Optional[int] = None,
) -> np.ndarray:
    """Mask one step's emitted spikes (``(batch, *features)``)."""
    mask._draw(spikes.shape[1:])
    out = spikes
    if mask._dead.any():
        out = np.where(mask._dead, 0, out)
    if mask._stuck.any() and step >= fire_start and (
        fire_stop is None or step < fire_stop
    ):
        out = np.where(mask._stuck, 1, out)
    if out is spikes:
        return spikes
    return out.astype(spikes.dtype, copy=False)


def run_stepped(
    sim: TimeSteppedSimulator,
    input_spikes: SpikeTrain,
    record_spikes: bool = False,
    layer_faults: Optional[Dict[str, LayerFaultMask]] = None,
    skip_silent: bool = True,
) -> SimulationRecord:
    """Reference engine: advance every layer one time step at a time.

    With ``skip_silent`` (the stepped engine's share of the window
    scheduler) a layer's synaptic transform is evaluated once on an
    all-zero PSC and the result reused for every later silent step of
    that layer -- the transform is pure, so the cached drive is the
    exact array a fresh call would return, and the neuron still steps
    through its dynamics (bias, thresholds, bursts) every step.  Under
    a temporal protocol most steps of most layers are silent, which
    removes the bulk of the per-step GEMM/conv calls.
    """
    input_spikes = dense_input(sim, input_spikes)
    states: List[Optional[NeuronState]] = []
    output_potential: Optional[np.ndarray] = None
    readout_psc: Optional[np.ndarray] = None
    readout_steps = 0
    batched_readout = sim.readout_mode == "batched"
    spike_counts: Dict[str, int] = {layer.name: 0 for layer in sim.layers}
    recorded: Dict[str, List[np.ndarray]] = {}
    zero_drives: Dict[int, np.ndarray] = {}

    for step in range(sim.num_steps):
        current_psc = (
            input_spikes.counts[step].astype(np.float64)
            * sim.layer_kernels[0][step]
        )
        for index, layer in enumerate(sim.layers):
            if layer.neuron is None and batched_readout:
                # The readout transform is linear, so the per-step
                # weighted sums collapse into one GEMM after the loop.
                if readout_psc is None:
                    readout_psc = np.zeros_like(current_psc)
                readout_psc += current_psc
                readout_steps += 1
                current_psc = None
                break
            if (
                skip_silent
                and getattr(layer.transform, "zero_preserving", False)
                and not current_psc.any()
            ):
                drive = zero_drives.get(index)
                if drive is None:
                    drive = np.asarray(layer.transform(current_psc))
                    zero_drives[index] = drive
            else:
                drive = layer.transform(current_psc)
            if layer.step_bias is not None and (
                layer.bias_stop is None or step < layer.bias_stop
            ):
                drive = drive + layer.step_bias
            if layer.neuron is None:
                if output_potential is None:
                    output_potential = np.zeros_like(drive)
                output_potential += drive
                current_psc = None
                break
            if index >= len(states):
                states.append(layer.neuron.init_state(drive.shape))
            spikes = layer.neuron.step(states[index], drive)
            fault = layer_faults.get(layer.name) if layer_faults else None
            if fault is not None:
                spikes = apply_step(
                    fault, spikes, step,
                    getattr(layer.neuron, "fire_start", 0),
                    getattr(layer.neuron, "fire_stop", None),
                )
            spike_counts[layer.name] += int(spikes.sum())
            if record_spikes:
                recorded.setdefault(layer.name, []).append(spikes.copy())
            current_psc = (
                spikes.astype(np.float64) * sim.layer_kernels[index + 1][step]
            )

    if batched_readout and readout_psc is not None:
        readout = sim.layers[-1]
        output_potential = np.asarray(readout.transform(readout_psc))
        if readout.step_bias is not None:
            bias_steps = (
                readout_steps
                if readout.bias_stop is None
                else min(readout_steps, int(readout.bias_stop))
            )
            output_potential = output_potential + bias_steps * readout.step_bias

    if output_potential is None:
        raise RuntimeError("simulation finished without reaching the readout layer")

    record = SimulationRecord(
        output_potential=output_potential,
        spike_counts=spike_counts,
        num_steps=sim.num_steps,
    )
    if record_spikes:
        record.spike_trains = {
            name: SpikeTrainArray(np.stack(steps, axis=0), copy=False)
            for name, steps in recorded.items()
        }
    return record


def run_fused(
    sim: TimeSteppedSimulator,
    input_spikes: SpikeTrain,
    record_spikes: bool = False,
    layer_faults: Optional[Dict[str, LayerFaultMask]] = None,
) -> SimulationRecord:
    """Fused engine: hoist the time loop inside each layer.

    Per layer: a handful of wide, chunked synaptic-transform calls over
    the time-folded full grid (see
    :meth:`TimeSteppedSimulator._fused_layer_drive`), one
    vectorised neuron ``advance`` scan, and the spike-count tensor passed
    straight to the next layer (the PSC kernel multiply is fused into
    its chunks).  Spike trains and counts are exact w.r.t. the stepped
    engine; the readout potential may differ by float-summation order
    only.
    """
    counts = dense_input(sim, input_spikes).counts
    spike_counts: Dict[str, int] = {layer.name: 0 for layer in sim.layers}
    recorded: Dict[str, SpikeTrainArray] = {}
    output_potential: Optional[np.ndarray] = None

    for index, layer in enumerate(sim.layers):
        kernel = sim.layer_kernels[index]
        if layer.neuron is None:
            output_potential = sim._fused_readout(layer, kernel, counts)
            break
        drive = sim._fused_layer_drive(layer, counts, kernel)
        state = layer.neuron.init_state(drive.shape[1:])
        spikes = layer.neuron.advance(state, drive)
        fault = layer_faults.get(layer.name) if layer_faults else None
        if fault is not None:
            spikes = fault.apply_window(
                spikes,
                getattr(layer.neuron, "fire_start", 0),
                getattr(layer.neuron, "fire_stop", None),
            )
        spike_counts[layer.name] += int(spikes.sum())
        if record_spikes:
            recorded[layer.name] = SpikeTrainArray(spikes, copy=False)
        counts = spikes

    if output_potential is None:
        raise RuntimeError("simulation finished without reaching the readout layer")

    record = SimulationRecord(
        output_potential=output_potential,
        spike_counts=spike_counts,
        num_steps=sim.num_steps,
    )
    if record_spikes:
        record.spike_trains = recorded
    return record
