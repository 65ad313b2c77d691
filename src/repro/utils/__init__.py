"""Utility helpers shared across the reproduction.

The :mod:`repro.utils` package bundles small, dependency-free helpers:

* :mod:`repro.utils.rng` -- deterministic random-number-generator management,
* :mod:`repro.utils.logging` -- lightweight structured logging,
* :mod:`repro.utils.config` -- configuration dataclasses and validation,
* :mod:`repro.utils.serialization` -- saving/loading trained models,
* :mod:`repro.utils.validation` -- argument validation helpers,
* :mod:`repro.utils.cpus` -- the CPUs available to this process.
"""

from repro.utils.rng import (
    RngRegistry,
    default_rng,
    derive_rng,
    set_global_seed,
    spawn_rngs,
)
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.config import ConfigError, freeze_dict, validate_choice
from repro.utils.cpus import available_cpus
from repro.utils.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
)
from repro.utils.validation import (
    check_positive,
    check_probability,
    check_shape,
    check_non_negative,
)

__all__ = [
    "RngRegistry",
    "default_rng",
    "derive_rng",
    "set_global_seed",
    "spawn_rngs",
    "get_logger",
    "set_verbosity",
    "available_cpus",
    "ConfigError",
    "freeze_dict",
    "validate_choice",
    "load_arrays",
    "load_json",
    "save_arrays",
    "save_json",
    "check_positive",
    "check_probability",
    "check_shape",
    "check_non_negative",
]
