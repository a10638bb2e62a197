"""Cycle accounting for the simulated machine.

Every operation on the simulated hypercube charges time and raw operation
counts to a :class:`Counters` instance.  A stack of named *phases* lets
callers attribute costs to logical stages ("reduce", "pivot-search", ...)
so the benchmark harness can report per-primitive breakdowns the way the
paper's tables do.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple
import contextlib
from ..errors import ConfigError


@dataclass
class CostSnapshot:
    """An immutable copy of the counter totals at one instant."""

    time: float = 0.0
    flops: float = 0.0
    elements_transferred: float = 0.0
    comm_rounds: int = 0
    local_moves: float = 0.0

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            time=self.time - other.time,
            flops=self.flops - other.flops,
            elements_transferred=self.elements_transferred - other.elements_transferred,
            comm_rounds=self.comm_rounds - other.comm_rounds,
            local_moves=self.local_moves - other.local_moves,
        )

    def lane(self, k: int) -> "CostSnapshot":
        """Lane ``k`` of a batched (vector-valued) snapshot as a scalar one."""
        return CostSnapshot(
            time=float(self.time[k]),
            flops=float(self.flops[k]),
            elements_transferred=float(self.elements_transferred[k]),
            comm_rounds=int(self.comm_rounds[k]),
            local_moves=float(self.local_moves[k]),
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "time": self.time,
            "flops": self.flops,
            "elements_transferred": self.elements_transferred,
            "comm_rounds": float(self.comm_rounds),
            "local_moves": self.local_moves,
        }


@dataclass
class Counters:
    """Mutable running totals plus a per-phase time breakdown.

    The ``plan_*`` fields are observability for the communication plan
    cache (``machine.plans``): cache hits, misses and LRU evictions.  They
    are deliberately *not* part of :class:`CostSnapshot` — the plan cache
    must never change the cost model, so snapshots stay bit-identical
    whether the cache is on or off while the plan statistics report what
    the cache did.

    The ``abft_*`` fields follow the same observability-only contract for
    the checksum layer (:mod:`repro.abft`): corruption detections, exact
    single-element corrections, and escalations to checkpoint replay.
    The checksum layer's *costs* (maintain/verify/scrub passes) land in
    the ordinary time/flop/transfer fields like any other charged work.
    """

    time: float = 0.0
    flops: float = 0.0
    elements_transferred: float = 0.0
    comm_rounds: int = 0
    local_moves: float = 0.0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    abft_detected: int = 0
    abft_corrected: int = 0
    abft_recomputed: int = 0
    phase_times: Dict[str, float] = field(default_factory=dict)
    _phase_stack: List[str] = field(default_factory=list)

    # -- charging -----------------------------------------------------------

    def charge_time(self, amount: float) -> None:
        if amount < 0:
            raise ConfigError(f"cannot charge negative time {amount}")
        self.time += amount
        if self._phase_stack:
            for phase in self._phase_stack:
                self.phase_times[phase] = self.phase_times.get(phase, 0.0) + amount

    def charge_flops(self, count: float, time: float) -> None:
        if count < 0:
            raise ConfigError(f"cannot charge negative flop count {count}")
        self.flops += count
        self.charge_time(time)

    def charge_transfer(self, elements: float, rounds: int, time: float) -> None:
        if elements < 0:
            raise ConfigError(f"cannot charge negative transfer volume {elements}")
        if rounds < 0:
            raise ConfigError(f"cannot charge negative round count {rounds}")
        self.elements_transferred += elements
        self.comm_rounds += rounds
        self.charge_time(time)

    def charge_local(self, elements: float, time: float) -> None:
        if elements < 0:
            raise ConfigError(f"cannot charge negative local-move count {elements}")
        self.local_moves += elements
        self.charge_time(time)

    # -- phases -------------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all time charged inside the block to ``name``.

        Phases nest; time inside an inner phase is also attributed to every
        enclosing phase.  A nested re-entry of the same name is not double
        counted.
        """
        entered = name not in self._phase_stack
        if entered:
            self._phase_stack.append(name)
        try:
            yield
        finally:
            if entered:
                popped = self._phase_stack.pop()
                assert popped == name

    def phase_breakdown(self) -> List[Tuple[str, float]]:
        """Phase times sorted by descending cost."""
        return sorted(self.phase_times.items(), key=lambda kv: -kv[1])

    # -- plan-cache statistics ----------------------------------------------

    def plan_stats(self) -> Dict[str, int]:
        """Plan-cache hit/miss/eviction counts (observability only)."""
        return {
            "hits": self.plan_hits,
            "misses": self.plan_misses,
            "evictions": self.plan_evictions,
        }

    # -- metrics publication -------------------------------------------------

    def publish_metrics(self, registry) -> None:
        """Publish cost totals into a metrics registry (read-only).

        Keeps to plain scalars so this module stays numpy-free;
        :class:`~repro.batch.counters.LaneCounters` overrides with
        vector-aware reductions.
        """
        registry.publish("machine.ticks", self.time, unit="ticks",
                         help="simulated machine time")
        registry.publish("machine.flops", self.flops, unit="flops")
        registry.publish("machine.elements_transferred",
                         self.elements_transferred, unit="elements")
        registry.publish("machine.comm_rounds", self.comm_rounds,
                         unit="rounds")
        registry.publish("machine.local_moves", self.local_moves,
                         unit="elements")
        self._publish_observability(registry)

    def _publish_observability(self, registry) -> None:
        """The observability-only fields (shared with the lane override)."""
        registry.publish("plan_cache.hits", self.plan_hits)
        registry.publish("plan_cache.misses", self.plan_misses)
        registry.publish("plan_cache.evictions", self.plan_evictions)
        registry.publish("abft.detected", self.abft_detected)
        registry.publish("abft.corrected", self.abft_corrected)
        registry.publish("abft.recomputed", self.abft_recomputed)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> CostSnapshot:
        return CostSnapshot(
            time=self.time,
            flops=self.flops,
            elements_transferred=self.elements_transferred,
            comm_rounds=self.comm_rounds,
            local_moves=self.local_moves,
        )

    def reset(self) -> None:
        """Restore every field to its dataclass default.

        Deriving the reset from the field definitions keeps this the single
        source of truth: a counter added to the dataclass is automatically
        cleared here, so snapshot-era tests that reset between measurements
        can never observe a stale field.
        """
        for f in dataclasses.fields(self):
            if f.default is not dataclasses.MISSING:
                setattr(self, f.name, f.default)
            else:
                getattr(self, f.name).clear()
