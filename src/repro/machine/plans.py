"""Communication-plan cache: memoized remap/route/collective plans.

The iterative solvers (Gaussian elimination, simplex, Jacobi/CG) apply the
same ``extract`` / ``insert`` / ``remap`` communication patterns to the
*same* embedding pairs on every iteration, yet the simulator used to
re-derive the owner maps, message multisets and e-cube routing rounds from
scratch each time.  This module hoists that pattern computation out of the
inner loop, the way communication-avoiding frameworks do:

* :class:`PlanCache` — a bounded LRU attached to each :class:`~.hypercube.
  Hypercube` (``machine.plans``).  Entries are keyed by *embedding
  signatures* (value identities, not object identities), so two equal
  embeddings constructed in different iterations share one plan.
* :class:`RemapPlan` — the reusable part of one embedding change: the
  pack/unpack volumes plus the precomputed
  :class:`~.router.RouteStats` of the deduplicated message multiset.
* route-stats memoization — :meth:`~.router.Router.simulate` keys a digest
  of ``(src, dst, sizes)`` to its :class:`~.router.RouteStats`, so repeated
  identical h-relations charge in O(1).
* collective plans — ``comm.broadcast`` derives its root-processor map for
  a fixed ``(dims, root_rank)`` once and replays it.

**Hard invariant:** the cache accelerates *wall-clock* simulation only.
Simulated ticks and every :class:`~.counters.Counters` /
:class:`~.counters.CostSnapshot` value are bit-identical with the cache on
or off: cached plans replay exactly the charge sequence (same float
amounts, same order) that the uncached path would execute, and cached
functional results are exact copies of what the uncached data motion
produces.  ``tests/test_plan_cache.py`` pins this equivalence.

The cache is on by default; disable it with the environment variable
``REPRO_PLAN_CACHE=0`` (checked at machine construction) or per machine via
``Hypercube(n, plan_cache=False)`` / ``Session(n, plan_cache=False)``.
Hit/miss/eviction counts live on ``machine.counters`` (outside
:class:`~.counters.CostSnapshot`, which stays a pure cost record).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, TYPE_CHECKING

import numpy as np

from ..env import env_flag
from ..errors import ConfigError
from ..obs.tracer import maybe_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .hypercube import Hypercube
    from .router import RouteStats

#: Sentinel distinguishing "not cached" from a cached ``None`` payload.
MISSING = object()

#: Environment variable that disables the cache machine-wide when set to a
#: false-y value (``0``, ``off``, ``false``, ``no``).
ENV_FLAG = "REPRO_PLAN_CACHE"

#: Default bound on cached plans per machine.  Plans are small (index maps
#: and scalars), so the bound exists to keep pathological workloads that
#: sweep thousands of distinct embeddings from growing without limit.
DEFAULT_MAXSIZE = 512


def readonly(array: np.ndarray) -> np.ndarray:
    """Mark a cached array immutable so aliasing bugs fail loudly."""
    array = np.asarray(array)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class RemapPlan:
    """One embedding change, reduced to its reusable charges.

    ``src_local`` / ``dst_local`` are the pack/unpack pass volumes;
    ``route`` is the precomputed e-cube :class:`~.router.RouteStats` of the
    deduplicated primary-to-primary message multiset (``None`` when no
    element changes processors, e.g. the relabelling transpose).
    """

    src_local: int
    dst_local: int
    route: Optional["RouteStats"]

    def charge(self, machine: "Hypercube") -> None:
        """Replay the uncached path's exact charge sequence."""
        machine.charge_local(self.src_local)
        charge_route(machine, self.route)
        machine.charge_local(self.dst_local)


def charge_route(machine: "Hypercube", stats: Optional["RouteStats"]) -> None:
    """Charge precomputed route stats exactly as ``Router.simulate`` would.

    ``Router.simulate`` ends in one ``charge_transfer(total_hops, rounds,
    total_time)`` call; replaying it with the stored floats is
    bit-identical to re-running the per-dimension routing loop.
    """
    if stats is not None:
        sanitizer = machine.sanitizer
        before = machine.counters.snapshot() if sanitizer is not None else None
        machine.counters.charge_transfer(
            stats.element_hops, stats.rounds, stats.time
        )
        tracer = machine.tracer
        if tracer is not None:
            tracer.on_route_replay(stats)
        if sanitizer is not None:
            sanitizer.audit_charge_route(machine, stats, before)


class PlanCache:
    """A bounded LRU of communication plans, bound to one machine.

    Keys are hashable signatures (embedding value identities, message-set
    digests, dimension tuples).  A new :class:`~.hypercube.Hypercube` gets
    a fresh empty cache, so plans can never leak across machines or cost
    models.  When ``enabled`` is false every lookup misses and every
    ``memo`` recomputes — the uncached code paths run exactly as before.
    """

    def __init__(
        self,
        machine: "Hypercube",
        maxsize: int = DEFAULT_MAXSIZE,
        enabled: Optional[bool] = None,
    ) -> None:
        if maxsize < 1:
            raise ConfigError(f"plan cache maxsize must be >= 1, got {maxsize}")
        self.machine = machine
        self.maxsize = maxsize
        self.enabled = (
            env_flag(ENV_FLAG, default=True) if enabled is None else bool(enabled)
        )
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()

    # -- bookkeeping ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hits(self) -> int:
        return self.machine.counters.plan_hits

    @property
    def misses(self) -> int:
        return self.machine.counters.plan_misses

    @property
    def evictions(self) -> int:
        return self.machine.counters.plan_evictions

    def clear(self) -> None:
        self._store.clear()

    # -- core operations ------------------------------------------------------

    def lookup(self, key: Hashable) -> Any:
        """The cached value for ``key``, or :data:`MISSING`.

        Disabled caches always miss (without counting a miss: nothing is
        being cached, so there is no statistic to report).

        Every key is silently namespaced by the machine's topology *epoch*
        (bumped on each permanent fault), so a plan derived on one topology
        can never replay on a machine whose links or nodes have since died.
        """
        if not self.enabled:
            return MISSING
        key = (self.machine.epoch, key)
        try:
            value = self._store[key]
        except KeyError:
            self.machine.counters.plan_misses += 1
            return MISSING
        self._store.move_to_end(key)
        self.machine.counters.plan_hits += 1
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.on_plan_hit(self.machine, key, value)
        return value

    def store(self, key: Hashable, value: Any) -> Any:
        """Insert ``value`` under ``key`` (LRU-evicting past ``maxsize``).

        Keys are namespaced by the topology epoch exactly as in
        :meth:`lookup`.
        """
        if not self.enabled:
            return value
        key = (self.machine.epoch, key)
        self._store[key] = value
        self._store.move_to_end(key)
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.on_plan_store(self.machine, key, value)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.machine.counters.plan_evictions += 1
        return value

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()`` once per key; recompute every call when disabled."""
        value = self.lookup(key)
        if value is MISSING:
            with maybe_span(self.machine, "plan-build", "plans"):
                value = self.store(key, build())
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (
            f"PlanCache({state}, entries={len(self._store)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
