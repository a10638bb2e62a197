"""The lane-divergence hook: each application is written once.

Gaussian elimination, the simplex method and matvec run unchanged on a
scalar machine and on a :class:`~repro.batch.machine.BatchHypercube`,
whose arrays stack ``n_runs`` simulations along a run axis.  Uniform steps
need nothing, since every primitive is run-axis generic.  The steps where
runs may diverge go through the hook :func:`lanes` returns: a row swap
only some runs need, per-run pivot indices, per-run termination and the
merge of finished lanes, host immediates and host bookkeeping.  On a
scalar machine the hook is :class:`OneRun`, the plain primitives on Python
scalars; on a batched machine it is :class:`repro.batch.lanewise.Lanes`,
imported only then, so a scalar run never loads the batch package.  Host
arrays of a batched run lead with the run axis, as in
:class:`~repro.batch.session.BatchSession`.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any

import numpy as np

_UNMASKED = contextlib.nullcontext()


def lanes(machine):
    """The divergence hook for ``machine``: one run, or ``machine.n_runs``."""
    if machine.n_runs is None:
        return OneRun(machine)
    from ..batch.lanewise import Lanes

    return Lanes(machine)


class OneRun:
    """The hook on a scalar machine: every step is the plain primitive."""

    lead = ()  # leading shape of per-run host arrays

    def __init__(self, machine) -> None:
        self.machine = machine
        self.outcome = None  # (status, iterations) once stopped

    def needs_one_run(self, what: str) -> None:
        """Accept a step whose control flow cannot differ between runs."""

    def runs(self, make, *args):
        """Fresh host bookkeeping, one ``make(*args)`` per run."""
        return make(*args)

    def any(self, *flags) -> bool:
        return any(flags)

    def imm(self, value):
        """A host value as the immediate operand of machine arithmetic."""
        return value

    def by_run(self, history: list):
        """Per-step host values regrouped as one list per run."""
        return history

    def only(self, mask=None):
        """Charge and slice only in ``mask``'s runs (a lone run branched)."""
        return _UNMASKED

    def extract(self, M, axis: int, index):
        return M.extract(axis=axis, index=index)

    def insert(self, M, axis: int, index, vector):
        return M.insert(axis=axis, index=index, vector=vector)

    def get(self, vector, index):
        return vector.get_global(index)

    def merge(self, new, old):
        """``new`` in the runs still going, ``old`` in the stopped ones."""
        return new

    def assign(self, seq: list, index, value) -> None:
        seq[index] = value

    def record(self, history: list, item: tuple) -> None:
        history.append(item)

    def stop(self, done: bool, status: str, it: int) -> bool:
        """Stop with ``status`` after ``it`` iterations where ``done``;
        True once no run is left (the result is then :attr:`outcome`)."""
        if done:
            self.outcome = (status, it)
        return done

    def to_host(self, array) -> np.ndarray:
        return array.to_numpy()

    def matrix(self, cls, host: np.ndarray):
        return cls.from_numpy(self.machine, host)

    def each(self, fn, *args):
        """``fn(*args)`` for each run, with per-run arguments split."""
        return fn(*args)


def lane_of(value: Any, k: int) -> Any:
    """Run ``k`` of a value: snapshots and results give their own lane,
    lists and arrays are indexed, dicts mapped, anything else is shared."""
    if hasattr(value, "lane"):
        return value.lane(k)
    if isinstance(value, dict):
        return {key: lane_of(v, k) for key, v in value.items()}
    if isinstance(value, (list, np.ndarray)):
        return value[k]
    return value


class LaneResult:
    """Mixin for result dataclasses, whose batched form holds every run."""

    def lane(self, k: int):
        """Lane ``k`` of a batched result as a one-run result."""
        return type(self)(**{
            f.name: lane_of(getattr(self, f.name), k)
            for f in dataclasses.fields(self)
        })
