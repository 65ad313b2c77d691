"""Coder registry.

Experiments and benchmarks refer to coding schemes by name ("rate", "phase",
"burst", "ttfs", "ttas", and the convenience aliases "ttas(3)" etc. with an
explicit burst duration).  The registry maps those names onto configured
coder instances.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Tuple

from repro.coding.base import NeuralCoder
from repro.coding.burst import BurstCoder
from repro.coding.phase import PhaseCoder
from repro.coding.rate import RateCoder
from repro.coding.ttas import TTASCoder
from repro.coding.ttfs import TTFSCoder
from repro.snn.spikes import DENSE_BACKEND

CoderFactory = Callable[..., NeuralCoder]

_REGISTRY: Dict[str, CoderFactory] = {
    "rate": RateCoder,
    "phase": PhaseCoder,
    "burst": BurstCoder,
    "ttfs": TTFSCoder,
    "ttas": TTASCoder,
}

#: Names of the built-in coding schemes, in the order the paper lists them.
CODER_NAMES: List[str] = ["rate", "phase", "burst", "ttfs", "ttas"]

_TTAS_PATTERN = re.compile(r"^ttas\((\d+)\)$")


def register_coder(name: str, factory: CoderFactory, overwrite: bool = False) -> None:
    """Register a new coder factory under ``name``.

    Raises ``ValueError`` when the name is already taken and ``overwrite`` is
    False.
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"coder {name!r} is already registered")
    _REGISTRY[key] = factory


def available_coders() -> List[str]:
    """Names of every registered coder."""
    return sorted(_REGISTRY)


def create_coder(name: str, num_steps: int = 64, **kwargs) -> NeuralCoder:
    """Instantiate a coder by name.

    ``"ttas(5)"`` is accepted as shorthand for TTAS with
    ``target_duration=5`` (matching the notation of the paper's figures).
    """
    match = _TTAS_PATTERN.match(name.lower().strip())
    if match:
        kwargs.setdefault("target_duration", int(match.group(1)))
    return _factory(name)(num_steps=num_steps, **kwargs)


def _factory(name: str) -> CoderFactory:
    """The registered factory behind a coder name (``"ttas(k)"`` accepted)."""
    key = name.lower().strip()
    if _TTAS_PATTERN.match(key):
        key = "ttas"
    if key not in _REGISTRY:
        raise ValueError(f"unknown coder {name!r}; available: {available_coders()}")
    return _REGISTRY[key]


def timestep_support(name: str) -> Tuple[bool, str]:
    """Whether a coding scheme (by name) runs on the faithful simulator.

    Returns ``(supported, note)`` where ``note`` states the per-layer
    correspondence (when supported) or the capability gap (when not) --
    resolved from the coder class's ``supports_timestep`` /
    ``timestep_note`` attributes without instantiating it, so sweep configs
    can validate their methods cheaply.  Accepts the same ``"ttas(k)"``
    shorthand as :func:`create_coder`.
    """
    factory = _factory(name)
    return (
        bool(getattr(factory, "supports_timestep", False)),
        str(getattr(factory, "timestep_note", "")),
    )


def adversarial_support(name: str) -> Tuple[bool, str]:
    """Whether the adversarial attack engine can search a coding's trains.

    Returns ``(supported, note)`` resolved from the coder class's
    ``supports_adversarial`` / ``adversarial_note`` attributes, mirroring
    :func:`timestep_support`: attack configs validate their methods by name,
    without instantiating coders.  Accepts the ``"ttas(k)"`` shorthand.
    """
    factory = _factory(name)
    return (
        bool(getattr(factory, "supports_adversarial", False)),
        str(getattr(factory, "adversarial_note", "")),
    )


def preferred_backend(name: str) -> str:
    """The spike backend a coding scheme (by name) emits by default.

    Read from the coder class's ``preferred_backend`` attribute without
    instantiating it, like :func:`timestep_support`; factories that do not
    declare one get the base class's dense default.
    """
    return str(getattr(_factory(name), "preferred_backend", DENSE_BACKEND))


# ``get_coder`` is the name used throughout the examples; keep both spellings.
get_coder = create_coder
