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
        if amount < 0:
            raise ConfigError(f"cannot charge negative time {amount}")
        self._add(self.time, amount)
        if self._phase_stack:
            for phase in self._phase_stack:
                arr = self.phase_times.get(phase)
                if arr is None:
                    arr = self.phase_times[phase] = np.zeros(self.n_runs)
                self._add(arr, amount)

    def charge_flops(self, count: float, time: float) -> None:
        if count < 0:
            raise ConfigError(f"cannot charge negative flop count {count}")
        self._add(self.flops, count)
        self.charge_time(time)

    def charge_transfer(self, elements: float, rounds: int, time: float) -> None:
        if elements < 0:
            raise ConfigError(
                f"cannot charge negative transfer volume {elements}"
            )
        if rounds < 0:
            raise ConfigError(f"cannot charge negative round count {rounds}")
        self._add(self.elements_transferred, elements)
        self._add(self.comm_rounds, rounds)
        self.charge_time(time)

    def charge_local(self, elements: float, time: float) -> None:
        if elements < 0:
            raise ConfigError(
                f"cannot charge negative local-move count {elements}"
            )
        self._add(self.local_moves, elements)
        self.charge_time(time)

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

    # -- metrics publication -------------------------------------------------

    def publish_metrics(self, registry) -> None:
        """Vector-aware override: makespan clock, summed volumes, lane gauges."""
        registry.publish("machine.ticks", float(self.time.max()),
                         unit="ticks", help="simulated makespan (slowest lane)")
        registry.publish("machine.flops", float(self.flops.sum()),
                         unit="flops")
        registry.publish("machine.elements_transferred",
                         float(self.elements_transferred.sum()),
                         unit="elements")
        registry.publish("machine.comm_rounds",
                         float(self.comm_rounds.sum()), unit="rounds")
        registry.publish("machine.local_moves",
                         float(self.local_moves.sum()), unit="elements")
        registry.publish("batch.lanes", self.n_runs, kind="gauge")
        active = (
            self.n_runs
            if self.active is None
            else int(np.count_nonzero(self.active))
        )
        registry.publish("batch.active_lanes", active, kind="gauge")
        self._publish_observability(registry)

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
