"""The simulated Boolean-cube (hypercube) SIMD multiprocessor.

This is the stand-in for the Connection Machine of the paper: ``p = 2**n``
processors, each with local memory, connected so that processors whose
binary addresses differ in exactly one bit are neighbours.  The machine is
synchronous and SIMD: one instruction stream drives all processors, and the
simulated time of an instruction is its *per-processor* cost.

Functionally the whole machine is a set of NumPy arrays with the processor
index on axis 0; the single communication primitive — a full exchange along
one cube dimension — is an XOR permutation of that axis.  All collective
operations (``repro.comm``) are built from this primitive, so their charged
costs emerge from the actual sequence of rounds they execute rather than
from closed-form formulas (the closed forms live in ``repro.analysis`` and
are validated *against* the simulator in the tests).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

import contextlib

import numpy as np

from ..errors import ConfigError, NodeKilledError, ShapeError, UnroutableError
from .cost_model import CostModel
from .counters import Counters, CostSnapshot
from .plans import PlanCache
from .pvar import PVar


class Hypercube:
    """A ``2**n``-processor Boolean cube with cost accounting.

    Parameters
    ----------
    n:
        Number of cube dimensions; the machine has ``p = 2**n`` processors.
    cost_model:
        Charging rates; defaults to :meth:`CostModel.cm2`.
    plan_cache:
        Whether the communication plan cache (``self.plans``) is enabled.
        ``None`` (default) follows the ``REPRO_PLAN_CACHE`` environment
        variable (on unless set false-y).  The cache never changes charged
        costs — see :mod:`repro.machine.plans`.
    counters:
        An existing :class:`Counters` to charge into.  Used by degraded-mode
        recovery (:meth:`repro.core.session.Session.degrade`) so a
        replacement sub-machine keeps accumulating on the same simulated
        clock; a fresh machine gets fresh counters.
    """

    #: Number of batched simulation lanes, or ``None`` for the ordinary
    #: scalar machine.  When set (see :mod:`repro.batch`), every PVar
    #: carries a trailing run axis of this extent and charge volumes are
    #: per-lane; the scalar machine pays one attribute read per site.
    n_runs: Optional[int] = None

    #: The optional subsystems a machine can carry, in bind order.  Each
    #: attachment class names its ``slot`` and implements
    #: ``bind(machine)``, ``rebind(machine)`` (move onto the successor of a
    #: degrade or promote) and ``report_data()`` (its keys of
    #: :meth:`report_data`, which follows this order).
    SLOTS = ("faults", "sanitizer", "abft", "tracer", "metrics")

    #: The leading slots, whose sections count what the machine did.  The
    #: tracer and the metrics registry report on themselves (a span-tree
    #: fold, a snapshot count), so :meth:`counted_report` stops here.
    COUNTED_SLOTS = SLOTS[:3]

    def __init__(
        self,
        n: int,
        cost_model: Optional[CostModel] = None,
        plan_cache: Optional[bool] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        if n < 0:
            raise ConfigError(f"cube dimension must be >= 0, got {n}")
        if n > 24:
            raise ConfigError(f"cube dimension {n} too large to simulate")
        self.n = n
        self.p = 1 << n
        self.cost_model = cost_model if cost_model is not None else CostModel.cm2()
        self.counters = counters if counters is not None else Counters()
        # Observability: ``None`` (the default) is the null tracer — every
        # instrumented site pays exactly one ``is None`` branch and charges
        # nothing, so cost totals are bit-identical traced or not.
        self.tracer = None
        # Conformance checking: ``None`` (the default) is the null
        # sanitizer, same contract as the tracer — one ``is None`` branch
        # per instrumented site, zero charges, bit-identical costs on/off.
        self.sanitizer = None
        # Data integrity: ``None`` (the default) means no checksum layer —
        # the ABFT manager (repro.abft) is attached explicitly and pays its
        # charges openly; a machine without it never imports the module.
        self.abft = None
        # Metrics (repro.metrics): same null contract — a machine without
        # them pays one ``is None`` branch per phase boundary and never
        # imports the module.
        self.metrics = None
        # Fault state.  ``epoch`` counts topology changes: every permanent
        # fault bumps it, and the plan cache folds it into every key, so a
        # plan derived on one topology can never replay on another.  The
        # health masks stay ``None`` until the first fault so the healthy
        # path allocates and checks nothing.
        self.epoch = 0
        self.faults = None  # attached repro.faults.FaultInjector, if any
        self.node_ok: Optional[np.ndarray] = None  # (p,) bool; None = all up
        self.link_ok: Optional[np.ndarray] = None  # (n, p) bool; None = all up
        self._n_dead_nodes = 0
        self._dead_links_by_dim: dict = {}  # dim -> sorted list of low pids
        # Gray-failure state: degraded-but-alive components.  A slow link
        # or node stretches charged round time without changing element or
        # round counts; both dicts stay empty on healthy machines so the
        # hot paths pay nothing.
        self._slow_links_by_dim: dict = {}  # dim -> {low pid: factor}
        self._slow_nodes: dict = {}  # pid -> factor
        self._node_slow_max = 1.0  # max(self._slow_nodes.values(), 1.0)
        # Per-machine plan cache: a fresh machine (or cost model) gets a
        # fresh empty cache, so plans can never leak across machines.
        self.plans = PlanCache(self, enabled=plan_cache)
        self._pids = np.arange(self.p, dtype=np.int64)
        # Neighbour permutations per dimension, precomputed once.
        self._neighbor = [self._pids ^ (1 << d) for d in range(n)]
        self._detour_memo: dict = {}  # exchange-detour dim per faulted dim
        # Per-volume cost memos.  CostModel is frozen, so each rate is a
        # pure function of the volume; caching returns the *same float* the
        # direct call would, keeping charged time bit-identical.
        self._round_cost: dict = {}
        self._flop_cost: dict = {}
        self._move_cost: dict = {}
        # SIMD activity-context stack (the CM's context flags): masks are
        # per-processor booleans; nested contexts AND together.
        self._context_stack: list = []

    # -- attachments -----------------------------------------------------------

    def attach(self, attachment: Any) -> Any:
        """Bind ``attachment`` and fill the slot it names (returns it).

        ``attachment.slot`` is one of :attr:`SLOTS`.  Detach by setting
        the slot back to ``None``.
        """
        attachment.bind(self)
        setattr(self, attachment.slot, attachment)
        return attachment

    # -- fault state -----------------------------------------------------------

    @property
    def faulty(self) -> bool:
        """True once any permanent fault (dead node or link) has landed."""
        return self._n_dead_nodes > 0 or bool(self._dead_links_by_dim)

    @property
    def gray_active(self) -> bool:
        """True while any gray degradation (slow link/node) is in force."""
        return bool(self._slow_links_by_dim) or bool(self._slow_nodes)

    def bump_epoch(self) -> None:
        """Advance the topology epoch after a permanent fault.

        Every cached communication plan is keyed by the epoch at lookup
        time (see :class:`PlanCache`), so bumping it atomically invalidates
        all plans derived on the old topology; the explicit ``clear`` just
        frees the dead entries early.
        """
        old_epoch = self.epoch
        self.epoch += 1
        self.plans.clear()
        self._detour_memo.clear()
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_epoch_bump(self, old_epoch)

    def node_alive(self, pid: int) -> bool:
        return self.node_ok is None or bool(self.node_ok[pid])

    def link_alive(self, dim: int, pid: int) -> bool:
        """Whether ``pid``'s link across ``dim`` is healthy."""
        return self.link_ok is None or bool(self.link_ok[dim, pid])

    def alive_pids(self) -> np.ndarray:
        """Addresses of the processors still alive."""
        if self.node_ok is None:
            return self._pids
        return self._pids[self.node_ok]

    def kill_node(self, pid: int) -> bool:
        """Permanently kill processor ``pid``; returns False if already dead.

        A dead node makes SIMD collectives impossible: every subsequent
        charged communication round raises :class:`NodeKilledError` until
        the workload is remapped onto a healthy subcube (degraded mode).
        """
        if not (0 <= pid < self.p):
            raise ConfigError(f"pid {pid} out of range for p={self.p}")
        if self.node_ok is None:
            self.node_ok = np.ones(self.p, dtype=bool)
        if not self.node_ok[pid]:
            return False
        self.node_ok[pid] = False
        self._n_dead_nodes += 1
        # A dead node supersedes any gray straggler state it carried.
        if pid in self._slow_nodes:
            del self._slow_nodes[pid]
            self._node_slow_max = (
                max(self._slow_nodes.values()) if self._slow_nodes else 1.0
            )
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(f"kill_node:{pid}", "fault", pid=pid, epoch=self.epoch)
        return True

    def kill_link(self, dim: int, pid: int) -> bool:
        """Permanently kill the link across ``dim`` at ``pid`` (either end).

        Returns False if that link was already dead.  Structured exchanges
        along ``dim`` still complete — the two endpoints detour through an
        adjacent dimension — but each round pays two extra detour rounds
        (see ``docs/robustness.md`` for the cost model).
        """
        self._check_dim(dim)
        if not (0 <= pid < self.p):
            raise ConfigError(f"pid {pid} out of range for p={self.p}")
        bit = 1 << dim
        lo = min(pid, pid ^ bit)
        if self.link_ok is None:
            self.link_ok = np.ones((self.n, self.p), dtype=bool)
        if not self.link_ok[dim, lo]:
            return False
        self.link_ok[dim, lo] = False
        self.link_ok[dim, lo ^ bit] = False
        links = self._dead_links_by_dim.setdefault(dim, [])
        links.append(lo)
        links.sort()
        # A dead link supersedes any gray slowdown on the same link.
        slow = self._slow_links_by_dim.get(dim)
        if slow is not None:
            slow.pop(lo, None)
            if not slow:
                del self._slow_links_by_dim[dim]
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"kill_link:{dim}@{lo}", "fault", dim=dim, pid=lo, epoch=self.epoch
            )
        return True

    def revive_node(self, pid: int) -> bool:
        """Bring dead processor ``pid`` back (a heal/repair event).

        Returns False when the node is already alive.  Bumps the epoch —
        cached plans may embed routing choices that avoided the dead node.
        """
        if not (0 <= pid < self.p):
            raise ConfigError(f"pid {pid} out of range for p={self.p}")
        if self.node_ok is None or self.node_ok[pid]:
            return False
        self.node_ok[pid] = True
        self._n_dead_nodes -= 1
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"revive_node:{pid}", "fault", pid=pid, epoch=self.epoch
            )
        return True

    def revive_link(self, dim: int, pid: int) -> bool:
        """Bring the dead link across ``dim`` at ``pid`` back to service.

        Returns False when that link is already alive.  Subsequent rounds
        along ``dim`` stop paying the detour surcharge for this link.
        """
        self._check_dim(dim)
        if not (0 <= pid < self.p):
            raise ConfigError(f"pid {pid} out of range for p={self.p}")
        bit = 1 << dim
        lo = min(pid, pid ^ bit)
        if self.link_ok is None or self.link_ok[dim, lo]:
            return False
        self.link_ok[dim, lo] = True
        self.link_ok[dim, lo ^ bit] = True
        links = self._dead_links_by_dim.get(dim)
        if links is not None:
            if lo in links:
                links.remove(lo)
            if not links:
                del self._dead_links_by_dim[dim]
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"revive_link:{dim}@{lo}", "fault",
                dim=dim, pid=lo, epoch=self.epoch,
            )
        return True

    # -- gray (degraded-but-alive) state ---------------------------------------

    def slow_link(self, dim: int, pid: int, factor: float) -> bool:
        """Degrade the link across ``dim`` at ``pid`` by ``factor``.

        Rounds crossing the slow link pay ``factor`` times the healthy
        round latency (elements/rounds counters unchanged).  A repeat call
        overwrites the factor.  Returns False (no-op) when the link is
        already dead.  Bumps the epoch: cached plans may embed routing
        choices the new latency surface invalidates.
        """
        self._check_dim(dim)
        if not (0 <= pid < self.p):
            raise ConfigError(f"pid {pid} out of range for p={self.p}")
        if factor < 1.0:
            raise ConfigError(f"slow factor must be >= 1, got {factor}")
        lo = min(pid, pid ^ (1 << dim))
        if not self.link_alive(dim, lo):
            return False
        self._slow_links_by_dim.setdefault(dim, {})[lo] = float(factor)
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"slow_link:{dim}@{lo}", "fault",
                dim=dim, pid=lo, factor=factor, epoch=self.epoch,
            )
        return True

    def restore_link_speed(self, dim: int, pid: int) -> bool:
        """Recover a slow link to full speed; False if it was not slow."""
        self._check_dim(dim)
        lo = min(pid, pid ^ (1 << dim))
        slow = self._slow_links_by_dim.get(dim)
        if slow is None or lo not in slow:
            return False
        del slow[lo]
        if not slow:
            del self._slow_links_by_dim[dim]
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"restore_link:{dim}@{lo}", "fault",
                dim=dim, pid=lo, epoch=self.epoch,
            )
        return True

    def slow_node(self, pid: int, factor: float) -> bool:
        """Degrade processor ``pid`` into a straggler by ``factor``.

        Lockstep SIMD rounds wait for the slowest participant, so every
        structured round stretches by the worst straggler factor; router
        rounds stretch only where ``pid`` sends or receives.  Returns
        False (no-op) when the node is already dead.
        """
        if not (0 <= pid < self.p):
            raise ConfigError(f"pid {pid} out of range for p={self.p}")
        if factor < 1.0:
            raise ConfigError(f"slow factor must be >= 1, got {factor}")
        if not self.node_alive(pid):
            return False
        self._slow_nodes[pid] = float(factor)
        self._node_slow_max = max(self._slow_nodes.values())
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"slow_node:{pid}", "fault",
                pid=pid, factor=factor, epoch=self.epoch,
            )
        return True

    def restore_node_speed(self, pid: int) -> bool:
        """Recover a straggler node to full speed; False if it was not slow."""
        if pid not in self._slow_nodes:
            return False
        del self._slow_nodes[pid]
        self._node_slow_max = (
            max(self._slow_nodes.values()) if self._slow_nodes else 1.0
        )
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"restore_node:{pid}", "fault", pid=pid, epoch=self.epoch
            )
        return True

    def link_slow_factor(self, dim: int, pid: int) -> float:
        """The latency multiplier on ``pid``'s link across ``dim`` (1.0 = healthy)."""
        slow = self._slow_links_by_dim.get(dim)
        if slow is None:
            return 1.0
        return slow.get(min(pid, pid ^ (1 << dim)), 1.0)

    def node_slow_factor(self, pid: int) -> float:
        """The straggler multiplier of processor ``pid`` (1.0 = healthy)."""
        return self._slow_nodes.get(pid, 1.0)

    def round_stretch(self, dim: Optional[int]) -> float:
        """Lockstep stretch of one structured round (worst participant).

        Every processor participates in a structured SIMD round, so the
        round waits for the slowest node and — when ``dim`` is known — the
        slowest link along that dimension.  Dimensionless rounds stretch
        by node stragglers only (the traversed links are unknown).
        """
        stretch = self._node_slow_max
        if dim is not None:
            slow = self._slow_links_by_dim.get(dim)
            if slow:
                stretch = max(stretch, max(slow.values()))
        return stretch

    def _exchange_detour_dim(self, dim: int) -> int:
        """Detour dimension for structured exchanges across faulted ``dim``.

        Each dead link ``(dim, lo)`` must be bypassable by some adjacent
        dimension ``e``: the 3-hop path ``a -e-> a^e -dim-> b^e -e-> b``
        needs both intermediate nodes and all three substitute links alive.
        Every dead link may use its own ``e``; all detours proceed
        concurrently, so the surcharge is a flat two extra rounds.  Raises
        :class:`UnroutableError` when some dead link has no healthy detour.
        Returns the lowest detour dimension used (tracer attribution only).
        """
        memo_key = (self.epoch, dim)
        found = self._detour_memo.get(memo_key)
        if found is not None:
            return found
        bit = 1 << dim
        chosen = self.n
        for lo in self._dead_links_by_dim.get(dim, ()):
            a, b = lo, lo ^ bit
            for e in range(self.n):
                if e == dim:
                    continue
                ebit = 1 << e
                if (
                    self.node_alive(a ^ ebit)
                    and self.node_alive(b ^ ebit)
                    and self.link_alive(e, a)
                    and self.link_alive(dim, a ^ ebit)
                    and self.link_alive(e, b)
                ):
                    chosen = min(chosen, e)
                    break
            else:
                raise UnroutableError(
                    f"link (dim={dim}, pid={lo}) is dead and no adjacent "
                    f"dimension offers a healthy detour (epoch {self.epoch})"
                )
        self._detour_memo[memo_key] = chosen
        return chosen

    # -- identity ------------------------------------------------------------

    @property
    def dims(self) -> Tuple[int, ...]:
        """All cube dimension indices, lowest first."""
        return tuple(range(self.n))

    def pids(self) -> np.ndarray:
        """The processor addresses ``0 .. p-1`` (host-side view)."""
        return self._pids

    def self_address(self) -> PVar:
        """A PVar holding each processor's own address (free: wired in)."""
        return PVar(self, self._pids.copy())

    # -- PVar constructors -----------------------------------------------------

    def pvar(self, data: np.ndarray) -> PVar:
        """Wrap host data of shape ``(p, ...)`` as a processor variable.

        Loading data from the host is outside the timed computation (the
        paper's timings likewise exclude front-end I/O), so this is free.
        """
        data = np.asarray(data)
        if data.shape[0] != self.p:
            raise ShapeError(
                f"axis 0 must be the processor axis of extent {self.p}, "
                f"got shape {data.shape}"
            )
        return PVar(self, np.array(data))

    def full(self, local_shape: Sequence[int], value: Any, dtype: Any = None) -> PVar:
        shape = (self.p, *local_shape)
        return PVar(self, np.full(shape, value, dtype=dtype))

    def zeros(self, local_shape: Sequence[int] = (), dtype: Any = np.float64) -> PVar:
        return PVar(self, np.zeros((self.p, *local_shape), dtype=dtype))

    def ones(self, local_shape: Sequence[int] = (), dtype: Any = np.float64) -> PVar:
        return PVar(self, np.ones((self.p, *local_shape), dtype=dtype))

    # -- cost charging ---------------------------------------------------------

    def charge_flops(self, local_elements: float) -> None:
        """One SIMD arithmetic pass over ``local_elements`` items per processor."""
        time = self._flop_cost.get(local_elements)
        if time is None:
            time = self._flop_cost[local_elements] = self.cost_model.arithmetic(
                local_elements
            )
        self.counters.charge_flops(local_elements * self.p, time)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.observe_charge(self)

    def charge_local(self, local_elements: float) -> None:
        """One SIMD local move/pack pass."""
        time = self._move_cost.get(local_elements)
        if time is None:
            time = self._move_cost[local_elements] = self.cost_model.memory(
                local_elements
            )
        self.counters.charge_local(local_elements * self.p, time)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.observe_charge(self)

    def charge_comm_round(
        self,
        elements_per_processor: float,
        rounds: int = 1,
        dim: Optional[int] = None,
    ) -> None:
        """``rounds`` synchronous exchange rounds of the given volume each.

        ``dim`` (observability only) names the cube dimension the rounds
        traverse, when the caller knows it; the tracer files dimensionless
        rounds under ``-1``.

        On a healthy machine with no fault injector attached this is the
        single plain charge below — bit-identical to a build without the
        faults subsystem.  With faults, the injector is polled first (its
        scheduled events fire against the simulated clock), and transient
        drops / link detours surcharge honest extra rounds afterwards.
        """
        sanitizer = self.sanitizer
        # The audit wraps the dispatch (not the plain/faulty bodies), so a
        # broken override of either body — or a mis-charging test double —
        # is caught against the specification recomputed from the request.
        before = self.counters.snapshot() if sanitizer is not None else None
        if (
            self.faults is None
            and self.node_ok is None
            and self.link_ok is None
            and not self._slow_links_by_dim
            and not self._slow_nodes
        ):
            self._charge_comm_round_plain(elements_per_processor, rounds, dim)
        else:
            self._charge_comm_round_faulty(elements_per_processor, rounds, dim)
        if sanitizer is not None:
            sanitizer.audit_comm_round(
                self, elements_per_processor, rounds, dim, before
            )

    def _charge_comm_round_plain(
        self,
        elements_per_processor: float,
        rounds: int = 1,
        dim: Optional[int] = None,
    ) -> None:
        time = self._round_cost.get(elements_per_processor)
        if time is None:
            time = self._round_cost[elements_per_processor] = (
                self.cost_model.comm_round(elements_per_processor)
            )
        self.counters.charge_transfer(
            elements_per_processor * self.p * rounds, rounds, rounds * time
        )
        tracer = self.tracer
        if tracer is not None:
            tracer.on_comm_round(dim, elements_per_processor, rounds)

    def _charge_comm_round_faulty(
        self,
        elements_per_processor: float,
        rounds: int,
        dim: Optional[int],
    ) -> None:
        faults = self.faults
        if faults is not None:
            faults.poll()
        if self._n_dead_nodes:
            raise NodeKilledError(
                f"cannot run a SIMD communication round: {self._n_dead_nodes} of "
                f"{self.p} processors are dead (epoch {self.epoch})"
            )
        self._charge_comm_round_plain(elements_per_processor, rounds, dim)
        if self.gray_active:
            # Lockstep: each structured round waits for its slowest
            # participant.  The surcharge is pure simulated latency —
            # element and round counters describe the same traffic.
            stretch = self.round_stretch(dim)
            if stretch > 1.0:
                extra = (
                    (stretch - 1.0)
                    * self._round_cost[elements_per_processor]
                    * rounds
                )
                self.counters.charge_transfer(0.0, 0, extra)
                if faults is not None:
                    faults.on_gray_round(dim, rounds, extra)
        if dim is not None and dim in self._dead_links_by_dim:
            # Every dead link in ``dim`` detours through an adjacent
            # dimension: 3 hops instead of 1, so each original round costs
            # two extra rounds of the same volume (detours run concurrently).
            detour = self._exchange_detour_dim(dim)
            extra = 2 * rounds
            self._charge_comm_round_plain(elements_per_processor, extra, detour)
            if faults is not None:
                faults.stats.detour_rounds += extra
        if faults is not None:
            # Called for unlabelled rounds too: ABFT wire checksums detect
            # armed in-flight corruption on *any* charged round.
            faults.on_round(dim, elements_per_processor, rounds)

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        tracer = self.tracer
        try:
            # Mirror the counters' re-entry rule: a nested phase of the same
            # name neither double-counts time nor opens a second span, so span
            # durations per phase sum exactly to ``phase_times``.
            if tracer is not None and name not in self.counters._phase_stack:
                with self.counters.phase(name), tracer.span(name, "phase"):
                    yield
            else:
                with self.counters.phase(name):
                    yield
        finally:
            metrics = self.metrics
            if metrics is not None:
                metrics.on_phase_exit(name)

    # -- SIMD activity context (the CM's context flags) -----------------------

    @contextlib.contextmanager
    def where(self, mask: "PVar") -> Iterator[None]:
        """Restrict :meth:`PVar.assign` stores to processors where ``mask``.

        Models the Connection Machine's context flags: inside the block,
        every SIMD instruction still *executes* on all processors (charged
        identically — that is what SIMD means), but masked stores commit
        only on active ones.  Contexts nest by conjunction; entering a
        nested context charges one elementwise pass for the AND.
        """
        self._check_owned(mask)
        if mask.dtype != np.bool_:
            raise TypeError(f"context mask must be boolean, got {mask.dtype}")
        flat = mask.data
        if flat.ndim == 1:
            flat = flat[:, None]
        if self._context_stack:
            # broadcast-AND with the enclosing context
            combined = np.logical_and(self._context_stack[-1], flat)
            self.charge_flops(max(mask.local_size, 1))
        else:
            combined = flat
        self._context_stack.append(combined)
        try:
            yield
        finally:
            self._context_stack.pop()

    @property
    def active_mask(self) -> Optional[np.ndarray]:
        """The current activity mask (``None`` when all processors active)."""
        return self._context_stack[-1] if self._context_stack else None

    def snapshot(self) -> CostSnapshot:
        return self.counters.snapshot()

    def elapsed_since(self, start: CostSnapshot) -> CostSnapshot:
        return self.counters.snapshot() - start

    # -- reporting -------------------------------------------------------------

    def counted_report(self) -> Dict[str, Any]:
        """What the machine did, as a JSON-serialisable dict.

        Shape, cost counters, plan cache and phase breakdown, then each
        filled :attr:`COUNTED_SLOTS` slot's ``report_data()``.  The
        metrics registry reads exactly this.
        """
        c = self.counters
        plans = self.plans
        data: Dict[str, Any] = {
            "p": self.p,
            "n": self.n,
            "cost_model": str(self.cost_model),
            "time": c.time,
            "flops": c.flops,
            "elements_transferred": c.elements_transferred,
            "comm_rounds": c.comm_rounds,
            "local_moves": c.local_moves,
            "plan_cache": (
                {
                    "enabled": True,
                    "entries": len(plans),
                    "hits": plans.hits,
                    "misses": plans.misses,
                    "evictions": plans.evictions,
                }
                if plans.enabled
                else {"enabled": False}
            ),
            "phase_breakdown": [
                {"phase": name, "time": t} for name, t in c.phase_breakdown()
            ],
        }
        for slot in self.COUNTED_SLOTS:
            attachment = getattr(self, slot)
            if attachment is not None:
                data.update(attachment.report_data())
        return data

    def report_data(self) -> Dict[str, Any]:
        """:meth:`counted_report`, then the tracer's and the registry's
        own sections: every filled slot in :attr:`SLOTS` order."""
        data = self.counted_report()
        for attachment in (self.tracer, self.metrics):
            if attachment is not None:
                data.update(attachment.report_data())
        return data

    # -- communication primitive -----------------------------------------------

    def exchange(self, pvar: PVar, dim: int) -> PVar:
        """Full exchange along cube dimension ``dim``.

        Every processor sends its entire local block to its neighbour across
        ``dim`` and receives the neighbour's block; one communication round.
        """
        self._check_dim(dim)
        self._check_owned(pvar)
        # Capture the block before charging: the charge may poll the fault
        # injector, and a bit flip landing mid-round must corrupt *future*
        # reads (copy-on-corrupt), not the data already on the wire.
        src = pvar.data
        # With ABFT wire protection each block carries one checksum word.
        volume = pvar.local_size + 1 if self.abft is not None else pvar.local_size
        self.charge_comm_round(volume, dim=dim)
        out = PVar(self, src.take(self._neighbor[dim], axis=0))
        sanitizer = self.sanitizer
        if sanitizer is not None:
            # Audit against the captured block: a flip landing during the
            # charge replaces pvar.data, but what crossed the wire is src.
            sanitizer.audit_exchange(self, PVar(self, src), out, dim)
        faults = self.faults
        if faults is not None:
            # In-flight corruption is applied after the audit: the audit
            # checks the exchange wiring, not the wire's bit-exactness.
            out = faults.deliver(out, dim)
        return out

    def exchange_free(self, pvar: PVar, dim: int) -> PVar:
        """Neighbour view along ``dim`` without charging.

        Only for use inside collectives that charge a *partial* volume
        explicitly (e.g. recursive halving sends half the block per round);
        callers must pair this with an explicit :meth:`charge_comm_round`.
        """
        self._check_dim(dim)
        self._check_owned(pvar)
        return PVar(self, pvar.data.take(self._neighbor[dim], axis=0))

    # -- host access -------------------------------------------------------------

    def to_host(self, pvar: PVar) -> np.ndarray:
        """Read all processor memories into a host array (diagnostic; free).

        The paper's timings exclude front-end output, and all *algorithmic*
        uses of global values in this library go through charged collectives
        (e.g. ``comm.reduce_all`` followed by :meth:`read_scalar`).
        """
        self._check_owned(pvar)
        return pvar.data.copy()

    def read_scalar(self, pvar: PVar, pid: int = 0) -> Any:
        """Read one processor's (scalar) value to the host.

        Charged as a single start-up: the front-end fetches one value over
        the global bus, as when the CM host reads a reduction result.
        """
        self._check_owned(pvar)
        if not (0 <= pid < self.p):
            raise ConfigError(f"pid {pid} out of range for p={self.p}")
        return self.read_block(pvar.data[pid])

    def read_block(self, block: np.ndarray) -> Any:
        """One processor's ``block`` as a host value, charged as one read.

        For callers that computed only the reading processor's block
        (the host-read arg-reduce); :meth:`read_scalar` picks it out of a
        whole PVar.
        """
        self.charge_host_read()
        if np.ndim(block) == 0:
            return block[()] if isinstance(block, np.ndarray) else block
        return block.copy()

    def charge_host_read(self) -> None:
        """Charge one front-end bus read: a single one-element start-up."""
        time = self._round_cost.get(1)
        if time is None:
            time = self._round_cost[1] = self.cost_model.comm_round(1)
        self.counters.charge_transfer(1, 1, time)

    # -- validation ---------------------------------------------------------------

    def _check_dim(self, dim: int) -> None:
        if not (0 <= dim < self.n):
            raise ConfigError(f"cube dimension {dim} out of range for n={self.n}")

    def _check_owned(self, pvar: PVar) -> None:
        if pvar.machine is not self:
            raise ConfigError("PVar belongs to a different machine")

    def check_dims(self, dims: Sequence[int]) -> Tuple[int, ...]:
        """Validate a subcube dimension list (distinct, in range)."""
        dims = tuple(dims)
        seen = set()
        for d in dims:
            self._check_dim(d)
            if d in seen:
                raise ConfigError(f"duplicate cube dimension {d}")
            seen.add(d)
        return dims

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypercube(n={self.n}, p={self.p}, cost_model={self.cost_model})"
