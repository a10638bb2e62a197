"""The wall-clock estimator of the experiment warehouse.

:func:`best_of` runs an optional warm-up, then ``reps`` timed calls, and
keeps the minimum (and the mean).  The minimum is the standard
noise-resistant estimator: host-load spikes only ever make a rep slower.
Every warehouse run (``python -m repro bench``) is timed through it.

It takes an injectable ``clock`` so tests can pin the arithmetic with a
deterministic counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import ConfigError


@dataclass
class TimedRun:
    """One configuration's measurement: best/mean seconds + last result."""

    best: float
    mean: float
    result: Any


def best_of(
    run: Callable[[], Any],
    reps: int,
    setup: Optional[Callable[[], Any]] = None,
    warmup: bool = False,
    clock: Callable[[], float] = time.perf_counter,
) -> TimedRun:
    """Time ``run()`` ``reps`` times; keep the minimum (and the mean).

    ``setup`` runs before each timed rep (untimed — e.g. a counter
    reset); ``warmup`` runs ``run()`` once untimed first, so first-touch
    work (plan construction, allocator warm-up) is not measured.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    if warmup:
        run()
    best = float("inf")
    total = 0.0
    result = None
    for _ in range(reps):
        if setup is not None:
            setup()
        t0 = clock()
        result = run()
        dt = clock() - t0
        best = min(best, dt)
        total += dt
    return TimedRun(best=best, mean=total / reps, result=result)


__all__ = ["TimedRun", "best_of"]
