"""Per-lane cost accounting for batched simulation.

:class:`LaneCounters` keeps each cost field as an ``(n_runs,)`` vector and
adds every charge to all lanes — or, inside a
:meth:`~repro.batch.machine.BatchHypercube.lanes` context, to the active
lanes only.  A masked add performs the *same* IEEE addition per active
lane as the scalar counters would, so a lane's running totals are
bit-identical to the scalar machine executing that lane alone.

The observability-only integer fields (``plan_*``, ``abft_*``) stay
scalar: they are excluded from :class:`CostSnapshot` by contract, and the
plan cache is legitimately shared across lanes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..machine.counters import Counters, CostSnapshot


class LaneCounters(Counters):
    """Counters whose cost fields are ``(n_runs,)`` vectors.

    ``active`` is the current lane mask (``None`` = all lanes), managed
    by :meth:`BatchHypercube.lanes`.  ``snapshot()`` returns a
    :class:`CostSnapshot` of vector copies (its elementwise ``__sub__``
    works unchanged; its ``lane(k)`` is one lane's scalar snapshot).
    """

    def __init__(self, n_runs: int) -> None:
        if n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {n_runs}")
        super().__init__()
        self.n_runs = int(n_runs)
        self.active: Optional[np.ndarray] = None
        self._zero_lanes()

    def _zero_lanes(self) -> None:
        self.time = np.zeros(self.n_runs)
        self.flops = np.zeros(self.n_runs)
        self.elements_transferred = np.zeros(self.n_runs)
        self.comm_rounds = np.zeros(self.n_runs, dtype=np.int64)
        self.local_moves = np.zeros(self.n_runs)

    # -- charging (lane-masked) ---------------------------------------------

    def _add(self, arr: np.ndarray, amount) -> None:
        if self.active is None:
            arr += amount
        else:
            arr[self.active] += amount

    def charge_time(self, amount: float) -> None:
        if not amount >= 0:
            raise ConfigError(f"cannot charge negative or NaN time {amount}")
        self._add(self.time, amount)
        if self._phase_stack:
            for phase in self._phase_stack:
                arr = self.phase_times.get(phase)
                if arr is None:
                    arr = self.phase_times[phase] = np.zeros(self.n_runs)
                self._add(arr, amount)

    def charge_flops(self, count: float, time: float) -> None:
        if not count >= 0:
            raise ConfigError(
                f"cannot charge negative or NaN flop count {count}"
            )
        self.charge_time(time)
        self._add(self.flops, count)

    def charge_transfer(self, elements: float, rounds: int, time: float) -> None:
        if not elements >= 0:
            raise ConfigError(
                f"cannot charge negative or NaN transfer volume {elements}"
            )
        if not rounds >= 0:
            raise ConfigError(
                f"cannot charge negative or NaN round count {rounds}"
            )
        self.charge_time(time)
        self._add(self.elements_transferred, elements)
        self._add(self.comm_rounds, rounds)

    def charge_local(self, elements: float, time: float) -> None:
        if not elements >= 0:
            raise ConfigError(
                f"cannot charge negative or NaN local-move count {elements}"
            )
        self.charge_time(time)
        self._add(self.local_moves, elements)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> CostSnapshot:
        """Vector-valued snapshot; fields are ``(n_runs,)`` arrays."""
        return CostSnapshot(
            time=self.time.copy(),
            flops=self.flops.copy(),
            elements_transferred=self.elements_transferred.copy(),
            comm_rounds=self.comm_rounds.copy(),
            local_moves=self.local_moves.copy(),
        )

    def lane_phase_times(self, lane: int) -> dict:
        """One lane's per-phase time breakdown (scalar floats)."""
        return {name: float(arr[lane]) for name, arr in self.phase_times.items()}

    def reset(self) -> None:
        self._zero_lanes()
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_evictions = 0
        self.abft_detected = 0
        self.abft_corrected = 0
        self.abft_recomputed = 0
        self.phase_times.clear()
        self._phase_stack.clear()
        self.active = None
