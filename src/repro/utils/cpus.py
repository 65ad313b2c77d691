"""How many CPUs this process may actually run on."""

from __future__ import annotations

import os


def available_cpus() -> int:
    """CPUs available to this process: its scheduler affinity set where the
    platform exposes one, else ``os.cpu_count()``.

    In a cpuset-limited container ``os.cpu_count()`` reports the host's
    cores, so "one worker per CPU" sized from it oversubscribes; the
    affinity set is what the scheduler will really grant.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1
