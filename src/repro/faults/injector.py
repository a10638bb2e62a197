"""The fault injector: applies a :class:`FaultPlan` to a live machine.

Attach with :meth:`Hypercube.attach` (or ``Session(...,
faults=plan)``).  The machine polls the injector at every charged
communication round; events whose scheduled simulated time has arrived are
applied in order:

* :class:`~.plan.NodeKill` / :class:`~.plan.LinkKill` mutate the machine's
  health masks and bump the topology epoch (invalidating cached plans);
* :class:`~.plan.LinkDrop` *arms* transient drops on a dimension — the
  next round along that dimension retries, each retry charged as one extra
  round of the same volume plus capped exponential backoff waiting time;
* :class:`~.plan.BitFlip` flips one stored bit of a registered array
  (copy-on-corrupt: the array's storage is replaced by a corrupted copy,
  so values already read by in-flight operations stay clean — corruption
  affects *future* reads, which is what a memory upset does);
* :class:`~.plan.LinkCorrupt` *arms* in-flight corruption on a dimension —
  with ABFT wire checksums on, the next charged round (whatever its
  dimension: every round carries a checksum word) detects the bad block
  and charges a retransmission along the corrupted link; without them the
  next full-block exchange along that dimension silently delivers the
  corrupted block;
* :class:`~.plan.LinkSlow` / :class:`~.plan.NodeSlow` degrade (not kill) a
  component: charged rounds that cross it stretch on the simulated clock
  (pure latency — traffic counters unchanged), optionally recovering after
  a duration.  The injector's :class:`HealthTracker` learns per-component
  suspicion scores from the observed stretches, which the router's
  straggler-avoidance sweep consults;
* :class:`~.plan.LinkFlaky` arms a seeded probabilistic drop window on a
  dimension — each charged round along it may drop and retry (with
  deterministic jittered backoff, or hedged double-sends: see
  :class:`RetryPolicy`).

All fault accounting lives in :class:`FaultStats` (on the injector, not on
:class:`~repro.machine.counters.Counters` — the counters stay a pure cost
record).
"""

from __future__ import annotations

import bisect
import collections
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..embeddings.gray import deposit_bits, extract_bits
from ..errors import ConfigError, NodeKilledError
from .plan import (
    BitFlip,
    FaultPlan,
    LinkCorrupt,
    LinkDrop,
    LinkFlaky,
    LinkHeal,
    LinkKill,
    LinkSlow,
    NodeHeal,
    NodeKill,
    NodeSlow,
)

#: Kinds whose ``pid`` is taken modulo ``p`` when they fire; translate
#: reduces it the same way first.  Kills and heals keep the raw pid, so an
#: out-of-range pid from a JSON plan is dropped rather than wrapped.
_PID_MOD_P = (BitFlip, LinkCorrupt, LinkSlow, NodeSlow)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..machine.hypercube import Hypercube
    from ..machine.pvar import PVar


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient link drops.

    Retry ``k`` (0-based) waits ``tau * min(base * factor**k, cap)`` ticks
    before re-sending (``tau`` is the machine's start-up cost, so backoff
    scales with the cost model).  At most ``max_retries`` retries are
    charged per round; a drop burst longer than that is treated as
    recovered by the final retry (the link is transiently, not permanently,
    faulty).
    """

    max_retries: int = 4
    base: float = 1.0
    factor: float = 2.0
    cap: float = 8.0
    #: Deterministic seeded jitter: retry ``k`` waits ``backoff(k)`` times
    #: a uniform factor in ``[1 - jitter, 1 + jitter]`` drawn from a
    #: counter-based stream keyed by ``(seed, nonce)``.  ``jitter == 0``
    #: (the default) reproduces the unjittered waits bit-exactly.
    jitter: float = 0.0
    seed: int = 0
    #: Hedged retransmission for flaky links: instead of waiting out the
    #: backoff, each retry sends the block along the flaky link *and* a
    #: duplicate along a sibling route simultaneously — double the round
    #: volume, zero backoff time.  Trades bandwidth for tail latency.
    hedge: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.jitter < 1.0):
            raise ConfigError(
                f"retry jitter must be in [0, 1), got {self.jitter}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff multiplier (in units of ``tau``) for retry ``attempt``."""
        return min(self.base * self.factor ** attempt, self.cap)

    def backoff_jittered(self, attempt: int, nonce: int) -> float:
        """Backoff with deterministic seeded jitter.

        The draw is counter-based — ``default_rng((seed, nonce))`` — so a
        given ``(policy, nonce)`` pair always yields the same wait, and
        two injectors built with the same seed replay identical schedules.
        With ``jitter == 0`` this returns :meth:`backoff` exactly (no RNG
        is constructed), preserving bit-identity with older plans.
        """
        wait = self.backoff(attempt)
        if self.jitter <= 0.0:
            return wait
        u = float(np.random.default_rng((self.seed, nonce)).random())
        return wait * (1.0 + self.jitter * (2.0 * u - 1.0))


@dataclass
class FaultStats:
    """Everything the fault subsystem did, for reports and tests."""

    node_kills: int = 0
    link_kills: int = 0
    drops: int = 0
    retries: int = 0
    detour_rounds: int = 0
    backoff_time: float = 0.0
    recoveries: int = 0
    remapped_arrays: int = 0
    recovery_ticks: float = 0.0
    bit_flips: int = 0
    link_corruptions: int = 0
    sdc_skipped: int = 0  # flips aimed at dead nodes / empty registries
    # Gray-failure accounting.
    link_slows: int = 0
    node_slows: int = 0
    gray_recoveries: int = 0
    slow_rounds: int = 0
    slow_time: float = 0.0
    flaky_links: int = 0
    flaky_drops: int = 0
    hedged_retransmits: int = 0
    straggler_detours: int = 0
    # Heal / re-expansion accounting.
    node_heals: int = 0
    link_heals: int = 0
    expansions: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class HealthTracker:
    """Per-link / per-node health scores learned from observed round times.

    The detection side of the gray-failure story: nothing tells the
    router which links are slow — it has to *notice*.  Every charged
    round that crosses a degraded component stretches on the simulated
    clock; each endpoint observes its own exchange timing, so the
    slowdown is attributable to the specific link (or node) involved.
    The tracker keeps an exponentially-weighted estimate of each
    component's latency multiplier (1.0 = healthy) and forgets scores
    when a component is observed healthy again.

    Scores for links the router is actively *avoiding* persist: a
    detoured link produces no fresh timing telemetry, so there is no
    evidence it recovered — exactly the sticky-avoidance behaviour a
    real health-checking mesh exhibits until it probes again.
    """

    #: EWMA weight of a fresh observation.
    alpha = 0.5
    #: per-observation decay toward healthy for components seen fast.
    forget = 0.5

    def __init__(self) -> None:
        self._link: Dict[Tuple[int, int], float] = {}  # (dim, lo) -> est
        self._node: Dict[int, float] = {}  # pid -> est

    @property
    def tracked(self) -> int:
        """Number of components currently under suspicion."""
        return len(self._link) + len(self._node)

    def link_factor(self, dim: int, lo: int) -> float:
        """Estimated latency multiplier of link ``(dim, lo)`` (1.0 = healthy)."""
        return self._link.get((dim, lo), 1.0)

    def node_factor(self, pid: int) -> float:
        """Estimated straggler multiplier of node ``pid`` (1.0 = healthy)."""
        return self._node.get(pid, 1.0)

    def observe_round(
        self,
        dim: Optional[int],
        slow_links: Dict[int, float],
        slow_nodes: Dict[int, float],
        participating: Optional[set] = None,
    ) -> None:
        """Fold one charged round's timing evidence into the scores.

        ``slow_links`` maps low-pid -> true factor for the degraded links
        of ``dim`` this round actually crossed; ``slow_nodes`` the
        machine's straggler map.  ``participating`` (router rounds) is
        the set of low pids whose links carried traffic — links that did
        not participate yield no telemetry, so their scores are left
        untouched; ``None`` (structured rounds) means every link of
        ``dim`` participated.
        """
        if dim is not None:
            for lo, factor in slow_links.items():
                key = (dim, lo)
                est = self._link.get(key, 1.0)
                self._link[key] = est + self.alpha * (factor - est)
            for key in [k for k in self._link if k[0] == dim]:
                lo = key[1]
                if lo in slow_links:
                    continue
                if participating is not None and lo not in participating:
                    continue  # no traffic crossed it: no evidence either way
                est = 1.0 + (self._link[key] - 1.0) * (1.0 - self.forget)
                if est <= 1.0 + 1e-9:
                    del self._link[key]
                else:
                    self._link[key] = est
        for pid, factor in slow_nodes.items():
            est = self._node.get(pid, 1.0)
            self._node[pid] = est + self.alpha * (factor - est)
        for pid in [p for p in self._node if p not in slow_nodes]:
            est = 1.0 + (self._node[pid] - 1.0) * (1.0 - self.forget)
            if est <= 1.0 + 1e-9:
                del self._node[pid]
            else:
                self._node[pid] = est

    def scores(self) -> dict:
        """A JSON-able snapshot of the current suspicion table."""
        return {
            "links": {
                f"{dim}@{lo}": round(est, 4)
                for (dim, lo), est in sorted(self._link.items())
            },
            "nodes": {
                str(pid): round(est, 4)
                for pid, est in sorted(self._node.items())
            },
        }

    def clear(self) -> None:
        self._link.clear()
        self._node.clear()


class _FlakyLink:
    """One armed :class:`~.plan.LinkFlaky` window with its own draw stream."""

    __slots__ = ("drop_p", "until", "rng")

    def __init__(self, drop_p: float, until: float, seed: int) -> None:
        self.drop_p = drop_p
        self.until = until  # simulated time the window closes (inf = open)
        self.rng = np.random.default_rng(seed)


class FaultInjector:
    """Drives a :class:`FaultPlan` against one machine's simulated clock.

    The injector survives degraded-mode recovery: when the session remaps
    onto a healthy subcube, :meth:`translate` renames the remaining
    unfired events into subcube coordinates (events targeting removed
    processors, links or dimensions are dropped) and the new machine
    re-attaches the same injector, so ``stats`` accumulates across the
    whole resilient run.
    """

    #: The machine slot this attachment fills (see ``Hypercube.SLOTS``).
    slot = "faults"

    def __init__(
        self,
        plan: FaultPlan,
        retry: Optional[RetryPolicy] = None,
        avoid_stragglers: bool = True,
    ) -> None:
        self.plan = plan
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = FaultStats()
        self.machine: Optional["Hypercube"] = None
        self.log: List[dict] = []  # applied events, in firing order
        self._pending: List = list(plan.events)
        self._next = 0
        self._armed_drops: Dict[int, int] = {}  # dim -> drops awaiting a round
        # dim -> LinkCorrupt events awaiting the next exchange on that dim
        self._armed_corruptions: Dict[int, List[LinkCorrupt]] = {}
        # Gray-failure machinery.  The health tracker feeds the router's
        # straggler-avoidance sweep; ``avoid_stragglers`` gates whether
        # the router may act on it.
        self.health = HealthTracker()
        self.avoid_stragglers = avoid_stragglers
        self._flaky: Dict[int, List[_FlakyLink]] = {}  # dim -> armed windows
        # Scheduled gray recoveries, kept sorted by expiry time:
        # (time, kind, dim_or_None, pid_or_lo, factor).  The factor lets a
        # recovery no-op when a later event re-degraded the component.
        self._gray_expiries: List[tuple] = []
        self._jitter_nonce = 0  # counter for RetryPolicy.backoff_jittered
        # Recently registered machine arrays: the BitFlip target registry
        # when no ABFT manager is attached.  Bounded so the injector never
        # pins unbounded history; PVar uses __slots__ without __weakref__,
        # hence strong references in a small deque.
        self._memory: "collections.deque" = collections.deque(maxlen=16)

    def bind(self, machine: "Hypercube") -> None:
        """Bind to a machine (called by ``Hypercube.attach``)."""
        self.machine = machine

    rebind = bind

    def report_data(self) -> dict:
        """The injector's part of :meth:`repro.core.session.Session.report_data`."""
        return {"faults": self.stats.as_dict()}

    def now(self) -> float:
        return self.machine.counters.time

    @property
    def exhausted(self) -> bool:
        """True when every scheduled event has fired."""
        return self._next >= len(self._pending)

    # -- event application -----------------------------------------------------

    def poll(self, strict: bool = True) -> None:
        """Fire every event whose simulated time has arrived.

        With ``strict`` (the structured-collective path), raises
        :class:`NodeKilledError` if the machine has dead processors — SIMD
        rounds over a dead node are impossible until recovery remaps.  The
        router polls non-strictly: point-to-point traffic between live
        endpoints is still legal on a machine with dead nodes.
        """
        machine = self.machine
        now = machine.counters.time
        # Gray recoveries fire before new events: an expiry scheduled
        # earlier than a due event must land first on the simulated clock.
        while self._gray_expiries and self._gray_expiries[0][0] <= now:
            self._expire_gray(self._gray_expiries.pop(0))
        while self._next < len(self._pending):
            ev = self._pending[self._next]
            if ev.time > now:
                break
            self._next += 1
            self._apply(ev)
        if strict and machine._n_dead_nodes:
            raise NodeKilledError(
                f"{machine._n_dead_nodes} of {machine.p} processors are dead "
                f"(epoch {machine.epoch}); degraded-mode recovery required"
            )

    def _apply(self, ev) -> None:
        machine = self.machine
        entry = ev.as_dict()
        entry["fired_at"] = machine.counters.time
        if isinstance(ev, NodeKill):
            if machine.kill_node(ev.pid):
                self.stats.node_kills += 1
        elif isinstance(ev, LinkKill):
            if machine.kill_link(ev.dim, ev.pid):
                self.stats.link_kills += 1
        elif isinstance(ev, LinkDrop):
            if machine.n < 1:
                entry["skipped"] = True
            else:
                dim = ev.dim % machine.n
                self._armed_drops[dim] = self._armed_drops.get(dim, 0) + ev.count
                self.stats.drops += ev.count
                tracer = machine.tracer
                if tracer is not None:
                    tracer.instant(
                        f"link_drop:dim{dim}", "fault", dim=dim, count=ev.count
                    )
        elif isinstance(ev, BitFlip):
            self._apply_bit_flip(ev, entry)
        elif isinstance(ev, LinkCorrupt):
            self._armed_corruptions.setdefault(ev.dim % max(machine.n, 1), []).append(ev)
        elif isinstance(ev, LinkSlow):
            if machine.n < 1:
                entry["skipped"] = True
            else:
                dim = ev.dim % machine.n
                pid = ev.pid % machine.p
                if machine.slow_link(dim, pid, ev.factor):
                    self.stats.link_slows += 1
                    if ev.duration > 0:
                        # The recovery window opens when the degradation
                        # actually lands (poll time), not at the scheduled
                        # time -- a late-firing event still degrades for
                        # its full duration.
                        lo = min(pid, pid ^ (1 << dim))
                        bisect.insort(
                            self._gray_expiries,
                            (machine.counters.time + ev.duration,
                             "link", dim, lo, ev.factor),
                        )
                else:
                    entry["skipped"] = True  # link already dead
        elif isinstance(ev, NodeSlow):
            pid = ev.pid % machine.p
            if machine.slow_node(pid, ev.factor):
                self.stats.node_slows += 1
                if ev.duration > 0:
                    bisect.insort(
                        self._gray_expiries,
                        (machine.counters.time + ev.duration,
                         "node", None, pid, ev.factor),
                    )
            else:
                entry["skipped"] = True  # node already dead
        elif isinstance(ev, NodeHeal):
            if machine.revive_node(ev.pid % machine.p):
                self.stats.node_heals += 1
            else:
                entry["skipped"] = True  # node is alive (or kill never fired)
        elif isinstance(ev, LinkHeal):
            if machine.n < 1:
                entry["skipped"] = True
            elif machine.revive_link(ev.dim % machine.n, ev.pid % machine.p):
                self.stats.link_heals += 1
            else:
                entry["skipped"] = True  # link is alive (or kill never fired)
        elif isinstance(ev, LinkFlaky):
            if machine.n < 1:
                entry["skipped"] = True
            else:
                dim = ev.dim % machine.n
                until = (
                    machine.counters.time + ev.duration
                    if ev.duration > 0
                    else float("inf")
                )
                self._flaky.setdefault(dim, []).append(
                    _FlakyLink(ev.drop_p, until, ev.seed)
                )
                self.stats.flaky_links += 1
                tracer = machine.tracer
                if tracer is not None:
                    tracer.instant(
                        f"link_flaky:dim{dim}", "fault",
                        dim=dim, drop_p=ev.drop_p,
                    )
        else:  # pragma: no cover - future event kinds
            raise TypeError(f"unknown fault event {ev!r}")
        self.log.append(entry)

    def _expire_gray(self, expiry: tuple) -> None:
        """Recover a slow component whose degradation window has closed.

        The recorded factor guards against a later event re-degrading the
        same component: recovery only fires while the machine still holds
        the factor this expiry was scheduled for.
        """
        machine = self.machine
        _, kind, dim, target, factor = expiry
        if kind == "link":
            if machine.link_slow_factor(dim, target) == factor:
                if machine.restore_link_speed(dim, target):
                    self.stats.gray_recoveries += 1
        else:
            if machine.node_slow_factor(target) == factor:
                if machine.restore_node_speed(target):
                    self.stats.gray_recoveries += 1

    # -- silent data corruption ------------------------------------------------

    def register_memory(self, pvar: "PVar") -> "PVar":
        """Register an array as a candidate :class:`BitFlip` target.

        With an ABFT manager attached the manager's protected registry is
        the target set instead, so flips always hit checksum-guarded
        storage; this explicit registry serves no-ABFT runs (where the
        corruption propagates silently — the failure mode ABFT removes).
        """
        self._memory.append(pvar)
        return pvar

    def _sdc_targets(self) -> List["PVar"]:
        machine = self.machine
        abft = getattr(machine, "abft", None) if machine is not None else None
        if abft is not None:
            return abft.protected_pvars()
        return list(self._memory)

    def _apply_bit_flip(self, ev: BitFlip, entry: dict) -> None:
        """Corrupt one stored bit of a registered array (copy-on-corrupt)."""
        machine = self.machine
        targets = self._sdc_targets()
        pid = ev.pid % machine.p
        if not targets or not machine.node_alive(pid):
            self.stats.sdc_skipped += 1
            entry["skipped"] = True
            return
        pv = targets[-1 - (ev.target % len(targets))]
        if pv.data.shape[0] != machine.p:
            # Registered on a machine this injector has since left behind
            # (degraded-mode remap); the old storage is dead.
            self.stats.sdc_skipped += 1
            entry["skipped"] = True
            return
        data = np.array(pv.data)  # copy-on-corrupt: old readers stay clean
        u8 = data.reshape(machine.p, -1).view(np.uint8)
        if u8.shape[1] == 0:  # pragma: no cover - degenerate empty block
            self.stats.sdc_skipped += 1
            entry["skipped"] = True
            return
        slot = ev.slot % u8.shape[1]
        u8[pid, slot] ^= np.uint8(1 << (ev.bit % 8))
        pv.data = data
        self.stats.bit_flips += 1
        entry["pid"] = pid
        entry["byte"] = slot
        tracer = machine.tracer
        if tracer is not None:
            tracer.instant(
                "sdc:bitflip", "fault", pid=pid, byte=slot, bit=ev.bit % 8
            )

    def deliver(self, out: "PVar", dim: int) -> "PVar":
        """Apply armed in-flight corruption to an exchanged block.

        Called by :meth:`Hypercube.exchange` on the received block.  This
        is the no-wire-checksum path: the corrupted block is delivered
        silently, and the bad value propagates into everything computed
        from it — exactly the failure mode the ABFT layer exists to
        remove.  (With ABFT attached, :meth:`on_round` already drained the
        armed corruption during the round's charge and paid the
        retransmission, so this finds nothing.)
        """
        pending = self._armed_corruptions.pop(dim, None)
        if not pending:
            return out
        machine = self.machine
        from ..machine.pvar import PVar

        tracer = machine.tracer
        for ev in pending:
            self.stats.link_corruptions += 1
            data = np.array(out.data)
            u8 = data.reshape(machine.p, -1).view(np.uint8)
            if u8.shape[1] == 0:  # pragma: no cover - degenerate empty block
                continue
            pid = ev.pid % machine.p
            slot = ev.slot % u8.shape[1]
            u8[pid, slot] ^= np.uint8(1 << (ev.bit % 8))
            out = PVar(machine, data)
            if tracer is not None:
                tracer.instant(
                    "sdc:link", "fault", dim=dim, pid=pid, byte=slot,
                    bit=ev.bit % 8,
                )
        return out

    # -- per-round hooks (called from Hypercube.charge_comm_round) -------------

    def on_round(self, dim: Optional[int], volume: float, rounds: int) -> None:
        """Consume armed transient drops on ``dim``: charge the retries.

        Each retry re-sends the full round (one extra charged round of the
        same volume) after a backoff wait; the wait is charged as pure time
        (zero elements, zero rounds) so element/round counters only ever
        reflect traffic that actually moved.

        With ABFT wire checksums attached, *every* armed in-flight
        corruption is consumed here regardless of dimension: every charged
        round carries a checksum word, so the receiver detects the bad
        block wherever it crossed — a structured exchange, a plan-replayed
        collective, or an unlabelled round — and one retransmission of the
        same volume is charged along the corrupted link's dimension.
        Without ABFT the corruption stays armed for the next *real*
        exchange along its dimension (see :meth:`deliver`), where there is
        an actual block to corrupt.
        """
        machine = self.machine
        abft = getattr(machine, "abft", None)
        if abft is not None and self._armed_corruptions:
            armed = self._armed_corruptions
            self._armed_corruptions = {}
            for d in sorted(armed):
                for _ in armed[d]:
                    self.stats.link_corruptions += 1
                    machine._charge_comm_round_plain(volume, 1, d)
                    abft.on_wire_retransmit(d)
        # Health telemetry: every structured round's observed timing feeds
        # the suspicion table (all links of ``dim`` participated).  Guarded
        # so fail-stop-only runs never touch the tracker.
        if machine.gray_active or self.health.tracked:
            self.health.observe_round(
                dim,
                machine._slow_links_by_dim.get(dim, {})
                if dim is not None
                else {},
                machine._slow_nodes,
            )
        if dim is None:
            return
        pending = self._armed_drops.pop(dim, 0)
        if pending:
            retries = min(pending, self.retry.max_retries)
            self._charge_retries(dim, volume, retries)
            tracer = machine.tracer
            if tracer is not None:
                tracer.instant(
                    f"retry:dim{dim}",
                    "fault",
                    dim=dim,
                    dropped=pending,
                    retries=retries,
                )
        flaky = self._flaky.get(dim)
        if flaky:
            now = machine.counters.time
            live = [f for f in flaky if f.until > now]
            expired = len(flaky) - len(live)
            if expired:
                self.stats.gray_recoveries += expired
                if live:
                    self._flaky[dim] = live
                else:
                    del self._flaky[dim]
            drops = sum(1 for f in live if f.rng.random() < f.drop_p)
            if drops:
                self.stats.flaky_drops += drops
                retries = min(drops, self.retry.max_retries)
                self._charge_retries(dim, volume, retries)
                tracer = machine.tracer
                if tracer is not None:
                    tracer.instant(
                        f"flaky:dim{dim}", "fault", dim=dim, dropped=drops
                    )

    def _charge_retries(self, dim: int, volume: float, retries: int) -> None:
        """Charge ``retries`` re-sends of a dropped round along ``dim``.

        The plain path re-sends after a (jittered) backoff wait charged as
        pure time; the hedged path instead sends the block twice at once —
        double the volume per retry, no backoff — trading bandwidth for
        tail latency on flaky links.
        """
        machine = self.machine
        retry = self.retry
        if retry.hedge:
            for _ in range(retries):
                machine._charge_comm_round_plain(2.0 * volume, 1, dim)
            self.stats.hedged_retransmits += retries
        else:
            tau = machine.cost_model.tau
            backoff = 0.0
            for attempt in range(retries):
                backoff += tau * retry.backoff_jittered(
                    attempt, self._jitter_nonce
                )
                self._jitter_nonce += 1
                machine._charge_comm_round_plain(volume, 1, dim)
            machine.counters.charge_transfer(0.0, 0, backoff)
            self.stats.backoff_time += backoff
        self.stats.retries += retries

    def on_gray_round(self, dim: Optional[int], rounds: int, extra: float) -> None:
        """Record a lockstep stretch charged by the machine (pure time)."""
        self.stats.slow_rounds += rounds
        self.stats.slow_time += extra

    # -- degraded-mode translation ---------------------------------------------

    def translate(self, free_dims: Sequence[int], base: int) -> None:
        """Rename remaining events into the coordinates of a subcube.

        ``free_dims`` (parent dimensions the subcube keeps, ascending) and
        ``base`` (the parent address bits fixed by the subcube) come from
        :func:`repro.faults.recovery.largest_healthy_subcube`.  Each unfired
        event is renamed field by field: a ``dim`` must be kept and becomes
        its index in ``free_dims``; a ``pid`` must lie in the subcube and
        becomes its subcube address.  Armed corruptions are renamed the
        same way.  Events aimed at removed processors or collapsed
        dimensions are dropped (the hardware they target no longer
        exists).  Fired events stay in ``log`` untouched.
        """
        free_dims = tuple(free_dims)
        dim_map = {d: i for i, d in enumerate(free_dims)}
        fixed = ~deposit_bits(-1, free_dims)
        p = self.machine.p if self.machine is not None else None

        def renamed(ev):
            changes = {}
            if hasattr(ev, "dim"):
                if ev.dim not in dim_map:
                    return None
                changes["dim"] = dim_map[ev.dim]
            if hasattr(ev, "pid"):
                pid = ev.pid
                if p is not None and isinstance(ev, _PID_MOD_P):
                    pid %= p
                if (pid & fixed) != base:
                    return None
                changes["pid"] = extract_bits(pid, free_dims)
            return replace(ev, **changes)

        self._pending = [
            ev for ev in map(renamed, self._pending[self._next:])
            if ev is not None
        ]
        self._next = 0
        self._armed_drops = {
            dim_map[d]: c for d, c in self._armed_drops.items() if d in dim_map
        }
        # An armed corruption follows its processor like a pending event,
        # renamed under the dimension it was armed on.
        armed: Dict[int, List[LinkCorrupt]] = {}
        for d, evs in self._armed_corruptions.items():
            for ev in evs:
                ev = renamed(replace(ev, dim=d))
                if ev is not None:
                    armed.setdefault(ev.dim, []).append(ev)
        self._armed_corruptions = armed
        # Armed flaky windows follow their dimension into the subcube
        # (draw-stream state intact); windows on collapsed dims vanish
        # with the hardware.  Gray expiries are dropped — the new machine
        # starts with clean gray state (degrade() builds a fresh cube), so
        # there is nothing left to recover.
        self._flaky = {
            dim_map[d]: fs for d, fs in self._flaky.items() if d in dim_map
        }
        self._gray_expiries = []
        self.health.clear()
        # Old-machine arrays are dead after a remap; drop them as targets.
        self._memory.clear()

    def extract_heals(self) -> List:
        """Remove and return the unfired heal events.

        Called by ``Session.degrade`` before :meth:`translate`, which
        would otherwise drop heals with the hardware they target — but a
        heal aimed at removed hardware is exactly the event that makes
        re-expansion possible later, so it moves to the expansion ledger
        instead of vanishing.
        """
        heals: List = []
        rest: List = []
        for ev in self._pending[self._next:]:
            if isinstance(ev, (NodeHeal, LinkHeal)):
                heals.append(ev)
            else:
                rest.append(ev)
        if heals:
            self._pending = self._pending[: self._next] + rest
        return heals

    def untranslate(self, free_dims: Sequence[int], base: int) -> None:
        """Rename remaining events from subcube coordinates back up.

        The inverse of :meth:`translate`, used by re-expansion
        (``Session.promote``): ``free_dims``/``base`` describe how the
        *current* machine embeds in the root cube, and every pending
        event and armed transient is lifted into root coordinates (no
        event is ever dropped going up — the root has strictly more
        hardware).  The caller then points ``machine`` at the root and
        :meth:`translate`\\ s down into the promoted cube.
        """
        free_dims = tuple(free_dims)
        n_sub = len(free_dims)

        def lift_dim(dim: int) -> int:
            return free_dims[dim % n_sub] if n_sub else dim

        def lifted(ev):
            changes = {}
            if hasattr(ev, "dim"):
                changes["dim"] = lift_dim(ev.dim)
            if hasattr(ev, "pid"):
                changes["pid"] = base | deposit_bits(
                    ev.pid % (1 << n_sub), free_dims
                )
            return replace(ev, **changes)

        self._pending = [lifted(ev) for ev in self._pending[self._next:]]
        self._next = 0
        self._armed_drops = {
            lift_dim(d): c for d, c in self._armed_drops.items()
        }
        self._armed_corruptions = {
            lift_dim(d): [lifted(e) for e in evs]
            for d, evs in self._armed_corruptions.items()
        }
        self._flaky = {lift_dim(d): fs for d, fs in self._flaky.items()}
        # Gray state and the memory registry are tied to the machine being
        # left behind; the follow-up translate() clears them again anyway.
        self._gray_expiries = []
        self.health.clear()
        self._memory.clear()


__all__ = ["RetryPolicy", "FaultStats", "HealthTracker", "FaultInjector"]
