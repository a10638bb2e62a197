"""Runtime machine sanitizer: conservation and accounting invariants.

The simulator's correctness claims are *accounting* claims — every charged
round must move exactly the elements it says it moves, counters must only
ever grow, embeddings must stay within the paper's ``⌈m/p⌉`` balance bound,
and the plan cache must replay bit-identical costs to the cold paths it
memoizes.  None of that is visible to value-level tests: a mis-charged
round still produces the right numbers.  The :class:`MachineSanitizer`
audits the books *while they are written*.

Design (same contract as :class:`repro.obs.Tracer`, pinned by
``tests/test_sanitizer.py``):

* **Null by default.**  ``machine.sanitizer`` is ``None`` unless attached;
  every instrumented site pays one ``is None`` branch and charges nothing,
  so cost totals are bit-identical sanitized or not.
* **Read-only.**  The sanitizer never charges the machine, never touches
  the plan cache, and never mutates data; it observes snapshots and
  recomputes expectations from specifications.
* **Fail fast.**  The first violated invariant raises
  :class:`~repro.errors.SanitizerError` naming the invariant and the
  expected/observed quantities; ``stats`` counts every check that ran.

Invariants audited per hook:

===================  ========================================================
hook                 invariant
===================  ========================================================
``observe``          counters non-negative and monotonically non-decreasing
``audit_comm_round`` charged elements == volume·p·rounds, charged rounds ==
                     rounds, charged time == rounds·comm_round(volume)
                     (bit-exact; lower bounds under faults, which surcharge)
``audit_exchange``   every processor received exactly its neighbour's block
``audit_route``      element hops == Σ sizes·(dims corrected) (bit-exact on
                     a healthy machine; ≥ under detours), rounds consistent
                     with the per-dimension congestion profile
``audit_charge_route`` a replayed plan charged exactly its recorded stats
``on_plan_store``/   a cache hit returns a payload bit-identical to what was
``on_plan_hit``      stored, under the *current* topology epoch
``audit_broadcast``  result equals the root's block per a cache-independent
                     root map (catches stale collective plans)
``audit_reduce_all_replay``
                     a replayed all-reduce equals, bit for bit, the
                     dimension-exchange loop recomputed with the
                     sanitizer's own neighbours
``audit_replicated`` after an all-reduce, subcube members hold identical
                     blocks (sound: all combine ops are commutative)
``audit_read_argreduce``
                     a vector arg-reduce returned, bit for bit, what its
                     full collective leaves on the reading processor,
                     recomputed over all ``p`` processors
``audit_vector_embedding`` / ``audit_matrix_embedding``
                     every element placed exactly once (≥ once when
                     replicated) and per-processor load within the paper's
                     ``⌈m/p⌉`` bound per axis (whole blocks per part for
                     block-cyclic layouts)
``audit_abft_panels`` stored checksum panels match a from-scratch
                     recomputation of the protected block's byte image
``on_epoch_bump``    topology epochs strictly increase
===================  ========================================================
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..errors import ConfigError, SanitizerError
from ..machine.counters import CostSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..machine.hypercube import Hypercube

#: Environment variable that turns the sanitizer on for new ``Session``s.
ENV_FLAG = "REPRO_SANITIZE"

#: Environment variable selecting the per-round sampling stride ``K``
#: (``Session(sanitize=True)`` audits every ``K``-th charged round).
ENV_SAMPLE = "REPRO_SANITIZE_SAMPLE"

#: Counter fields audited for monotonicity (all charges accumulate).
_MONOTONIC_FIELDS = (
    "time",
    "flops",
    "elements_transferred",
    "comm_rounds",
    "local_moves",
)


def env_sample_every() -> int:
    """The sampling stride from ``REPRO_SANITIZE_SAMPLE`` (default: 1)."""
    raw = os.environ.get(ENV_SAMPLE, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{ENV_SAMPLE} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"{ENV_SAMPLE} must be >= 1, got {value}")
    return value


def _checks_span(hook: Callable) -> Callable:
    """Run a sanitizer hook inside a ``sanitizer-checks`` span.

    Only when the sanitizer's machine is traced: the span gives the
    sanitizer its own row (category ``check``) in the tracer's host-time
    profile.  Untraced, the hook pays one ``is None`` branch.
    """

    @functools.wraps(hook)
    def traced(self: "MachineSanitizer", *args: Any, **kwargs: Any) -> Any:
        machine = self.machine
        tracer = machine.tracer if machine is not None else None
        if tracer is None:
            return hook(self, *args, **kwargs)
        with tracer.span("sanitizer-checks", "check"):
            return hook(self, *args, **kwargs)

    return traced


def _time_slack(base: float, expected: float) -> float:
    """ULP-scale slack for time deltas reconstructed from a large counter.

    Gray-fault surcharges (lockstep stretch, jittered backoff) add
    non-dyadic fractions to the accumulated time counter, so a later
    ``(time + charge) - time`` reconstruction can land a few ULPs off the
    exact charge even when the charge itself was honest.  The slack is
    relative (1e-9) to the counter magnitude — around nine orders of
    magnitude below any real mischarge, which is whole cost-model terms.
    """
    return 1e-9 * max(abs(base), abs(expected), 1.0)


def _array_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact equality, treating NaN as equal to itself (floats only)."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind in "fc":
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


def _bits_equal(a: Any, b: Any) -> bool:
    """Bit-for-bit equality; two NaNs count as equal whatever their
    payloads (a recompute's local extreme may pick another NaN operand
    than the kernel under audit)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind in "fc":
        nan = np.isnan(a)
        if not np.array_equal(nan, np.isnan(b)):
            return False
        zero = a.dtype.type(0)
        a, b = np.where(nan, zero, a), np.where(nan, zero, b)
    return a.tobytes() == b.tobytes()


def _axis_bound(layout: Any, n: int, parts: int) -> int:
    """Most items one part may hold of an ``n``-item axis over ``parts``.

    ⌈n/parts⌉ for block and cyclic layouts.  A block-cyclic layout with
    block ``B`` deals whole blocks, so one part may hold
    ``B·⌈⌈n/B⌉/parts⌉`` items.
    """
    from ..embeddings.layout import BlockCyclicLayout

    block = layout.block if isinstance(layout, BlockCyclicLayout) else 1
    return block * math.ceil(math.ceil(n / block) / parts)


def _fingerprint(value: Any) -> Tuple:
    """A hashable bit-identity of a cached plan payload.

    Covers every payload type the plan cache stores today (route stats,
    remap plans, lookup-table arrays and tuples thereof); unknown types
    degrade to their type name, which still pins payload *kind* stability.
    """
    from ..machine.plans import RemapPlan
    from ..machine.router import RouteStats

    if isinstance(value, RouteStats):
        return (
            "route-stats",
            value.rounds,
            value.element_hops,
            value.max_congestion,
            value.time,
            value.dim_congestion,
        )
    if isinstance(value, RemapPlan):
        return (
            "remap-plan",
            value.src_local,
            value.dst_local,
            _fingerprint(value.route) if value.route is not None else None,
        )
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, tuple):
        return ("tuple",) + tuple(_fingerprint(v) for v in value)
    return ("opaque", type(value).__name__)


@dataclass
class SanitizerStats:
    """How many checks of each kind ran (all of them passed, or we raised)."""

    checks: Dict[str, int] = field(default_factory=dict)

    def count(self, kind: str) -> None:
        self.checks[kind] = self.checks.get(kind, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.checks.values())

    def as_dict(self) -> Dict[str, int]:
        return dict(self.checks, total=self.total)


class MachineSanitizer:
    """Audits one machine's cost accounting and data conservation.

    Attach with :meth:`Hypercube.attach` (or
    ``Session(sanitize=True)``, or ``REPRO_SANITIZE=1``) *before* running
    the workload.  The sanitizer survives degraded-mode recovery: the
    session rebinds it to the survivor subcube, and because the subcube
    charges into the same counters the monotonicity audit spans the swap.

    Parameters
    ----------
    sample_every:
        Audit every ``K``-th charged communication round instead of every
        one (``--sample-every K`` on the CLI, ``REPRO_SANITIZE_SAMPLE``
        for sessions).  The per-round hooks — counter monotonicity, round
        accounting, exchange conservation — are the wall-clock hot path
        (see the ``sanitizer-checks`` row of ``Tracer.profile()``); sampling
        trades detection latency for speed.  Structural hooks (routes,
        plans, collectives, embeddings, checksum panels) always run.
        ``K=1`` (the default) is bit-identical to the unsampled sanitizer,
        pinned by ``tests/test_sanitizer.py``.
    """

    #: The machine slot this attachment fills (see ``Hypercube.SLOTS``).
    slot = "sanitizer"

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ConfigError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.machine: Optional["Hypercube"] = None
        self.stats = SanitizerStats()
        self.sample_every = int(sample_every)
        self._site_index = 0
        self._last: Optional[CostSnapshot] = None
        self._plan_prints: Dict[Any, Tuple] = {}

    def _sampled(self) -> bool:
        """Advance the sampling clock; True on every ``K``-th call."""
        if self.sample_every == 1:
            return True
        self._site_index += 1
        if self._site_index >= self.sample_every:
            self._site_index = 0
            return True
        return False

    # -- binding --------------------------------------------------------------

    def bind(self, machine: "Hypercube") -> None:
        if self.machine is not None and self.machine is not machine:
            raise SanitizerError(
                "sanitizer is already bound to a different machine"
            )
        self.machine = machine
        self._last = machine.counters.snapshot()

    def rebind(self, machine: "Hypercube") -> None:
        """Re-bind to a replacement machine (degraded-mode recovery).

        The survivor charges into the parent's counters, so ``_last``
        deliberately carries over: simulated time must keep rising across
        the swap.  Plan fingerprints also carry over — the new machine has
        a fresh cache, so stale keys simply never hit.
        """
        self.machine = machine

    def resync(self) -> None:
        """Re-baseline after an explicit counter reset.

        A deliberate ``reset_counters()`` rewinds the clock; without a
        resync the next charge would (correctly, but unhelpfully) trip
        the monotonicity audit.
        """
        if self.machine is not None:
            self._last = self.machine.counters.snapshot()

    # -- failure --------------------------------------------------------------

    def _fail(self, invariant: str, detail: str) -> None:
        machine = self.machine
        where = (
            f"p={machine.p}, epoch={machine.epoch}, "
            f"time={machine.counters.time}"
            if machine is not None
            else "unbound"
        )
        raise SanitizerError(
            f"machine invariant violated [{invariant}]: {detail} ({where})"
        )

    # -- counters -------------------------------------------------------------

    def observe(
        self, machine: "Hypercube", sampled: bool = True
    ) -> Optional[CostSnapshot]:
        """Audit counter monotonicity/non-negativity; returns the snapshot.

        ``sampled=False`` is a complete no-op: no snapshot is taken and
        ``_last`` does not advance.  That is sound — counters only ever
        grow, so a later sampled check against an *older* baseline audits
        a superset of the skipped interval — and it is what makes
        ``sample_every`` actually pay: the snapshot itself is the
        per-round hot path, not just the comparisons.
        """
        if not sampled:
            return None
        snap = machine.counters.snapshot()
        self.stats.count("counters")
        last = self._last
        for name in _MONOTONIC_FIELDS:
            value = getattr(snap, name)
            if value < 0:
                self._fail(
                    "counters-nonneg", f"{name} is negative: {value}"
                )
            if last is not None and value < getattr(last, name):
                self._fail(
                    "counters-monotonic",
                    f"{name} decreased: {getattr(last, name)} -> {value}",
                )
        self._last = snap
        return snap

    @_checks_span
    def observe_charge(self, machine: "Hypercube") -> None:
        """Sampled counter audit at a charge site (flops / local moves).

        The machine calls this on every ``charge_flops``/``charge_local``;
        under ``sample_every=K`` only every ``K``-th call snapshots and
        audits, the rest cost one method call and a counter increment.
        Counters and results stay bit-identical across ``K`` — the
        sanitizer never charges — pinned by ``tests/test_sanitizer.py``.
        """
        if self._sampled():
            self.observe(machine)

    # -- charged communication rounds -----------------------------------------

    @_checks_span
    def audit_comm_round(
        self,
        machine: "Hypercube",
        volume: float,
        rounds: int,
        dim: Optional[int],
        before: CostSnapshot,
    ) -> None:
        """One ``charge_comm_round`` call: the books must balance exactly.

        On a healthy machine the charge is exact; with faults attached the
        base charge is a floor (detours and retries surcharge extra rounds
        of the same honest accounting on top).
        """
        if not self._sampled():
            return
        after = self.observe(machine)
        self.stats.count("comm-round")
        d_elem = after.elements_transferred - before.elements_transferred
        d_rounds = after.comm_rounds - before.comm_rounds
        d_time = after.time - before.time
        exp_elem = volume * machine.p * rounds
        exp_time = rounds * machine.cost_model.comm_round(volume)
        where = f"dim={dim}, volume={volume}, rounds={rounds}"
        healthy = (
            machine.faults is None
            and machine.node_ok is None
            and machine.link_ok is None
            and not machine.gray_active
        )
        if healthy:
            if d_elem != exp_elem:
                self._fail(
                    "round-conservation",
                    f"{where}: charged {d_elem} elements, expected {exp_elem}"
                    " (sent != received)",
                )
            if d_rounds != rounds:
                self._fail(
                    "round-count",
                    f"{where}: charged {d_rounds} rounds, expected {rounds}",
                )
            if d_time != exp_time:
                self._fail(
                    "round-time",
                    f"{where}: charged {d_time} ticks, expected {exp_time}",
                )
        else:
            if d_elem < exp_elem:
                self._fail(
                    "round-conservation",
                    f"{where}: charged {d_elem} elements under faults, "
                    f"below the {exp_elem} floor",
                )
            if d_rounds < rounds:
                self._fail(
                    "round-count",
                    f"{where}: charged {d_rounds} rounds under faults, "
                    f"below the {rounds} floor",
                )
            if d_time < exp_time - _time_slack(after.time, exp_time):
                self._fail(
                    "round-time",
                    f"{where}: charged {d_time} ticks under faults, "
                    f"below the {exp_time} floor",
                )

    @_checks_span
    def audit_exchange(
        self,
        machine: "Hypercube",
        sent: Any,
        received: Any,
        dim: int,
    ) -> None:
        """A structured exchange delivered exactly the neighbours' blocks."""
        if not self._sampled():
            return
        self.stats.count("exchange")
        expected = sent.data[machine._neighbor[dim]]
        if not _array_equal(np.asarray(received.data), np.asarray(expected)):
            self._fail(
                "exchange-conservation",
                f"exchange along dim {dim} did not deliver each "
                f"processor its neighbour's block",
            )

    # -- routing ---------------------------------------------------------------

    @_checks_span
    def audit_route(
        self,
        machine: "Hypercube",
        src: np.ndarray,
        dst: np.ndarray,
        sizes: np.ndarray,
        stats: Any,
        before: Optional[CostSnapshot],
        from_cache: bool,
    ) -> None:
        """An e-cube route conserved its traffic and charged what it did.

        ``element_hops`` must equal the per-dimension moving volumes summed
        in routing order (bit-exact on a healthy machine; a faulted machine
        only adds detour hops, so the direct total is a floor).  When the
        route charged (``before`` is a snapshot), the charge must equal the
        stats record exactly — the same floats whether cold or replayed.
        """
        self.stats.count("route")
        kind = "route-replay" if from_cache else "route"
        direct = 0.0
        diff = src ^ dst
        for d in range(machine.n):
            moving = (diff >> d) & 1 != 0
            if np.any(moving):
                direct += float(sizes[moving].sum())
        # Dead links detour (extra hops); gray state or lingering health
        # suspicion can trigger straggler-avoidance detours too — in all
        # three cases the direct e-cube totals are floors, not equalities.
        health = getattr(machine.faults, "health", None)
        degraded = (
            machine.faulty
            or machine.gray_active
            or (health is not None and health.tracked > 0)
        )
        if degraded:
            if stats.element_hops < direct:
                self._fail(
                    f"{kind}-conservation",
                    f"element hops {stats.element_hops} below the direct "
                    f"e-cube total {direct} (messages lost)",
                )
        elif stats.element_hops != direct:
            self._fail(
                f"{kind}-conservation",
                f"element hops {stats.element_hops} != direct e-cube "
                f"total {direct} (sent != received)",
            )
        if stats.rounds != len(stats.dim_congestion):
            self._fail(
                f"{kind}-rounds",
                f"{stats.rounds} rounds but {len(stats.dim_congestion)} "
                f"per-dimension congestion entries",
            )
        if not degraded and stats.rounds > machine.n:
            self._fail(
                f"{kind}-rounds",
                f"{stats.rounds} rounds on a healthy n={machine.n} cube "
                f"(e-cube needs at most one per dimension)",
            )
        if before is not None:
            after = self.observe(machine)
            d_elem = after.elements_transferred - before.elements_transferred
            d_rounds = after.comm_rounds - before.comm_rounds
            d_time = after.time - before.time
            if (
                d_elem != stats.element_hops
                or d_rounds != stats.rounds
                or abs(d_time - stats.time)
                > _time_slack(after.time, stats.time)
            ):
                self._fail(
                    f"{kind}-charge",
                    f"charged (elements={d_elem}, rounds={d_rounds}, "
                    f"time={d_time}) != stats (elements="
                    f"{stats.element_hops}, rounds={stats.rounds}, "
                    f"time={stats.time})",
                )

    @_checks_span
    def audit_charge_route(
        self,
        machine: "Hypercube",
        stats: Any,
        before: CostSnapshot,
    ) -> None:
        """A plan replay (``plans.charge_route``) charged its stats exactly."""
        after = self.observe(machine)
        self.stats.count("route-replay-charge")
        d_elem = after.elements_transferred - before.elements_transferred
        d_rounds = after.comm_rounds - before.comm_rounds
        d_time = after.time - before.time
        if (
            d_elem != stats.element_hops
            or d_rounds != stats.rounds
            or abs(d_time - stats.time) > _time_slack(after.time, stats.time)
        ):
            self._fail(
                "plan-replay-charge",
                f"replayed plan charged (elements={d_elem}, "
                f"rounds={d_rounds}, time={d_time}) but its stats record "
                f"(elements={stats.element_hops}, rounds={stats.rounds}, "
                f"time={stats.time})",
            )

    # -- plan cache -------------------------------------------------------------

    @_checks_span
    def on_plan_store(self, machine: "Hypercube", key: Any, value: Any) -> None:
        """Record the bit-identity of a stored plan under its epoch key."""
        self.stats.count("plan-store")
        epoch = key[0] if isinstance(key, tuple) and key else None
        if epoch != machine.epoch:
            self._fail(
                "plan-epoch",
                f"plan stored under epoch {epoch} but the machine is at "
                f"epoch {machine.epoch}",
            )
        self._plan_prints[key] = _fingerprint(value)

    @_checks_span
    def on_plan_hit(self, machine: "Hypercube", key: Any, value: Any) -> None:
        """A hit must replay, bit-identically, what was stored — now."""
        self.stats.count("plan-hit")
        epoch = key[0] if isinstance(key, tuple) and key else None
        if epoch != machine.epoch:
            self._fail(
                "plan-epoch",
                f"plan hit under epoch {epoch} but the machine is at epoch "
                f"{machine.epoch} (stale plan replayed across a topology "
                f"change)",
            )
        stored = self._plan_prints.get(key)
        if stored is None:
            # Stored before the sanitizer attached; adopt it from here on.
            self._plan_prints[key] = _fingerprint(value)
            return
        if _fingerprint(value) != stored:
            self._fail(
                "plan-identity",
                "plan cache returned a payload that is not bit-identical "
                "to what was stored under the same key",
            )

    # -- collectives -------------------------------------------------------------

    @_checks_span
    def audit_broadcast(
        self,
        machine: "Hypercube",
        dims: Tuple[int, ...],
        root_rank: int,
        sent: Any,
        received: Any,
    ) -> None:
        """Every subcube member ended with the root's block.

        The root map is recomputed here from first principles (never via
        the plan cache), so a stale or corrupted cached collective plan
        diverges from this oracle and is caught.
        """
        self.stats.count("broadcast")
        mask = 0
        for d in dims:
            mask |= 1 << d
        root = machine.pids() & ~np.int64(mask)
        for j, d in enumerate(dims):
            if (root_rank >> j) & 1:
                root = root | np.int64(1 << d)
        expected = sent.data[root]
        if not _array_equal(np.asarray(received.data), np.asarray(expected)):
            self._fail(
                "broadcast-root",
                f"broadcast over dims {list(dims)} (root_rank {root_rank}) "
                f"did not deliver the root's block to every member",
            )

    @_checks_span
    def audit_reduce_all_replay(
        self,
        machine: "Hypercube",
        op: Any,
        dims: Tuple[int, ...],
        sent: Any,
        received: Any,
    ) -> None:
        """A replayed all-reduce left exactly what the exchange loop leaves.

        The loop is recomputed here with the sanitizer's own neighbours
        (``pids ^ (1 << d)``, never the machine's neighbour table): per
        dimension in ``dims`` order, ``op(own, partner)``.  Compared bit
        for bit, ±0.0 told apart.
        """
        self.stats.count("reduce-all-replay")
        pids = machine.pids()
        expected = np.asarray(sent.data)
        for d in dims:
            expected = op(expected, expected[pids ^ (1 << d)])
        if not _bits_equal(received.data, expected):
            self._fail(
                "reduce-all-replay",
                f"replayed {op.name} all-reduce over dims {list(dims)} "
                f"differs from the dimension-exchange loop",
            )

    @_checks_span
    def audit_replicated(
        self,
        machine: "Hypercube",
        pvar: Any,
        dims: Tuple[int, ...],
        what: str,
    ) -> None:
        """All members of each ``dims``-subcube hold identical blocks.

        Sound for every built-in combine op: they are all commutative, and
        commutativity alone makes the dimension-exchange partials
        bit-identical across partners at every round.
        """
        self.stats.count("replicated")
        mask = 0
        for d in dims:
            mask |= 1 << d
        base = machine.pids() & ~np.int64(mask)
        data = np.asarray(pvar.data)
        if not _array_equal(data, data[base]):
            self._fail(
                "replication",
                f"{what} over dims {list(dims)} left subcube members with "
                f"differing blocks",
            )

    # -- host-read arg-reduce ----------------------------------------------------

    @_checks_span
    def audit_read_argreduce(
        self, vec: Any, valid: Any, mode: str, value: Any, index: Any
    ) -> None:
        """``DistributedVector.argreduce`` returned what ``reduce_all_loc``
        leaves on the reading processor.

        The reference runs on all ``p`` processors: per processor the
        extreme candidate, the first slot holding it (its own element and
        global index; the index dtype's maximum for no candidate, the op
        identity or a NaN), then the pair-combine exchange loop over the
        reduce dimensions, read at the owner of element 0.
        """
        from ..comm.ops import get_op

        self.stats.count("read-site")
        emb = vec.embedding
        pids = vec.machine.pids()
        pid = int(np.asarray(emb.owner_slot(0)[0]))  # uncached
        data = np.asarray(vec.pvar.data)
        mask = emb._compute_valid_mask()
        if valid is not None:
            mask = mask & np.asarray(valid.pvar.data).astype(bool)
        ident = get_op(mode).identity(data.dtype)
        masked = np.where(mask, data, ident)
        best = masked.max(axis=1) if mode == "max" else masked.min(axis=1)
        hit = masked == best[:, None]
        found = hit.any(axis=1)  # False only for a NaN extreme
        first = hit.argmax(axis=1)
        val = np.where(found, masked[pids, first], best)
        idx = emb._compute_global_indices()[pids, first].astype(np.int64)
        idx[~found | (best == ident)] = np.iinfo(np.int64).max
        for d in vec._reduce_dims():
            partner = pids ^ (1 << d)
            rv, ri = val[partner], idx[partner]
            better = rv > val if mode == "max" else rv < val
            take = better | ((rv == val) & (ri < idx))
            val, idx = np.where(take, rv, val), np.where(take, ri, idx)
        if not (_bits_equal(value, val[pid]) and _bits_equal(index, idx[pid])):
            self._fail(
                "read-site-argreduce",
                f"arg{mode} over {emb!r} read ({value!r}, {index!r}) on pid "
                f"{pid}, but the full exchange loop leaves "
                f"({val[pid]!r}, {idx[pid]!r})",
            )

    # -- embeddings --------------------------------------------------------------

    @_checks_span
    def audit_vector_embedding(
        self, emb: Any, mask: Any = None, idx: Any = None
    ) -> None:
        """The paper's balance bound: no processor holds more than ⌈m/p⌉.

        Also conservation: every global index is placed exactly once
        (at least once for replicated embeddings).  ``mask``/``idx`` are
        the valid mask and global indices the elements were placed by;
        ``scatter`` passes its own, so the audit makes no plan-cache
        lookup.  By default they are read from ``emb``.
        """
        self.stats.count("embedding")
        machine = emb.machine
        mask = np.asarray(emb.valid_mask() if mask is None else mask)
        idx = np.asarray(emb.global_indices() if idx is None else idx)
        per_pid = mask.reshape(machine.p, -1).sum(axis=1)
        copies = np.bincount(idx[mask].ravel(), minlength=emb.L)
        holders = 1 << len(emb.order_dims)
        bound = _axis_bound(emb.along_layout, emb.L, holders)
        if per_pid.max(initial=0) > bound:
            self._fail(
                "embedding-balance",
                f"{emb!r}: a processor holds {int(per_pid.max())} elements, "
                f"above the ⌈m/p⌉ bound {bound}",
            )
        if emb.replicated:
            if copies.min(initial=1) < 1:
                missing = int(np.argmin(copies))
                self._fail(
                    "embedding-conservation",
                    f"{emb!r}: global index {missing} is placed nowhere",
                )
        elif not bool(np.all(copies == 1)):
            bad = int(np.argmax(copies != 1))
            self._fail(
                "embedding-conservation",
                f"{emb!r}: global index {bad} is placed {int(copies[bad])} "
                f"times (each element must live exactly once)",
            )

    @_checks_span
    def audit_matrix_embedding(self, emb: Any, mask: Any = None) -> None:
        """Grid balance: local blocks within ⌈R/Pr⌉×⌈C/Pc⌉ (whole blocks
        per axis for block-cyclic layouts), all elements placed.

        ``mask`` is the valid mask the elements were placed by, as in
        :meth:`audit_vector_embedding`.
        """
        self.stats.count("embedding")
        machine = emb.machine
        mask = np.asarray(emb.valid_mask() if mask is None else mask)
        per_pid = mask.reshape(machine.p, -1).sum(axis=1)
        bound = _axis_bound(emb.row_layout, emb.R, emb.Pr) * _axis_bound(
            emb.col_layout, emb.C, emb.Pc
        )
        if per_pid.max(initial=0) > bound:
            self._fail(
                "embedding-balance",
                f"{emb!r}: a processor holds {int(per_pid.max())} elements, "
                f"above the per-axis bound {bound}",
            )
        total = int(per_pid.sum())
        if total != emb.R * emb.C:
            self._fail(
                "embedding-conservation",
                f"{emb!r}: {total} elements placed, expected "
                f"{emb.R * emb.C}",
            )

    # -- checksums ---------------------------------------------------------------

    @_checks_span
    def audit_abft_panels(
        self, machine: "Hypercube", pvar: Any, panels: Tuple
    ) -> None:
        """Freshly computed checksum panels actually describe the block.

        Called by the ABFT manager at protection time: the stored reference
        panels must match a from-scratch recomputation over the block's
        byte image, and their shapes must match the machine and block.  A
        broken panel builder would otherwise make every later verification
        of this block vacuous (or a false alarm).  The reference is the
        sanitizer's own: plain integer byte sums over its own byte image,
        so the audit never checks the panel kernel against itself.
        """
        self.stats.count("abft-panels")
        col, row = panels
        data = np.ascontiguousarray(pvar.data)
        u8 = data.reshape(data.shape[0], -1).view(np.uint8)
        expect_col = u8.sum(axis=1, dtype=np.uint64)
        expect_row = u8.sum(axis=0, dtype=np.uint64)
        if col.shape != (machine.p,) or row.shape != expect_row.shape:
            self._fail(
                "abft-panel-shape",
                f"panels shaped {col.shape}/{row.shape}, expected "
                f"({machine.p},)/{expect_row.shape}",
            )
        if not np.array_equal(col, expect_col) or not np.array_equal(
            row, expect_row
        ):
            self._fail(
                "abft-panel-identity",
                "stored checksum panels do not match a recomputation over "
                "the protected block's byte image",
            )

    # -- reporting ----------------------------------------------------------------

    def report_data(self) -> Dict[str, Any]:
        """The sanitizer's part of :meth:`repro.core.session.Session.report_data`."""
        return {"sanitizer": self.stats.as_dict()}

    def publish_metrics(self, registry: Any) -> None:
        """Publish check counts into a metrics registry (read-only)."""
        registry.publish("sanitizer.checks", self.stats.total,
                         help="total sanitizer checks run")
        registry.publish("sanitizer.sample_every", self.sample_every,
                         kind="gauge")
        for kind, count in sorted(self.stats.checks.items()):
            registry.publish(
                f"sanitizer.checks.{kind.replace('-', '_')}", count
            )

    # -- topology ---------------------------------------------------------------

    @_checks_span
    def on_epoch_bump(self, machine: "Hypercube", old_epoch: int) -> None:
        """Topology epochs move strictly forward, one fault at a time."""
        self.stats.count("epoch")
        if machine.epoch <= old_epoch:
            self._fail(
                "epoch-monotonic",
                f"epoch went {old_epoch} -> {machine.epoch} after a "
                f"permanent fault (must strictly increase)",
            )


__all__ = [
    "MachineSanitizer",
    "SanitizerStats",
    "env_sample_every",
    "ENV_FLAG",
    "ENV_SAMPLE",
]
