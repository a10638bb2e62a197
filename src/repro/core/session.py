"""Session facade: one object that owns the machine and builds arrays.

A :class:`Session` is the quickstart entry point::

    from repro import Session

    s = Session(n_dims=10)                 # 1024 simulated processors
    A = s.matrix(np.random.rand(256, 256))
    x = s.vector(np.random.rand(256))
    y = A.matvec(x.as_embedding(s.row_aligned(A)))
    print(s.report())

Pass ``trace=True`` (or set ``REPRO_TRACE=1``) to record a span tree of
every primitive, collective, remap and routing operation; see
``repro.obs`` and ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..env import env_flag
from ..errors import ConfigError
from ..machine.cost_model import CostModel, resolve_cost_model
from ..machine.counters import CostSnapshot
from ..machine.hypercube import Hypercube
from ..obs.tracer import ENV_FLAG as TRACE_ENV_FLAG, Tracer, maybe_span
from ..embeddings.matrix import MatrixEmbedding
from ..embeddings.vector import (
    ColAlignedEmbedding,
    RowAlignedEmbedding,
    VectorOrderEmbedding,
)
from .arrays import DistributedMatrix, DistributedVector


def _sanitizer():
    from ..check.sanitizer import MachineSanitizer, env_sample_every

    return MachineSanitizer(sample_every=env_sample_every())


def _abft():
    from ..abft.manager import ABFTManager

    return ABFTManager()


def _registry():
    from ..metrics.registry import MetricsRegistry

    return MetricsRegistry()


class Session:
    """A simulated machine plus convenience factories."""

    def __init__(
        self,
        n_dims: int,
        cost_model: Optional[Union[CostModel, str]] = None,
        plan_cache: Optional[bool] = None,
        trace: Optional[Union[bool, Tracer]] = None,
        faults: Optional[object] = None,
        sanitize: Optional[Union[bool, object]] = None,
        abft: Optional[Union[bool, object]] = None,
        metrics: Optional[Union[bool, object]] = None,
        retry: Optional[object] = None,
        checkpoint: Optional[object] = None,
    ) -> None:
        cost_model = resolve_cost_model(cost_model)
        self.machine = Hypercube(n_dims, cost_model, plan_cache=plan_cache)
        # faults may be a FaultPlan (wrapped in a fresh injector) or a
        # pre-built FaultInjector; None (default) leaves the machine on the
        # zero-overhead healthy path.  ``retry`` customises the wrapping
        # injector's RetryPolicy (jitter/hedging for flaky links).
        if faults is not None:
            from ..faults.injector import FaultInjector
            from ..faults.plan import FaultPlan

            if isinstance(faults, FaultPlan):
                faults = FaultInjector(faults, retry=retry)
            elif retry is not None:
                raise ConfigError(
                    "retry= only applies when faults= is a FaultPlan; a "
                    "pre-built injector already carries its RetryPolicy"
                )
            self.machine.attach(faults)
        elif retry is not None:
            raise ConfigError("retry= requires faults= to be set")
        # The other slots, in Hypercube.SLOTS order: None defers to the
        # slot's REPRO_* variable, a pre-built attachment (e.g. a Tracer
        # shared across sessions) attaches as is, and any other value is a
        # flag: true calls the factory.  The factories import lazily, so a
        # run that leaves a slot empty never loads its subsystem.
        for value, env, factory in (
            (sanitize, "REPRO_SANITIZE", _sanitizer),
            (abft, None, _abft),
            (trace, TRACE_ENV_FLAG, Tracer),
            (metrics, "REPRO_METRICS", _registry),
        ):
            if value is None:
                value = env is not None and env_flag(env)
            if not hasattr(value, "slot"):
                if not value:
                    continue
                value = factory()
            self.machine.attach(value)
        # checkpoint= selects the CheckpointPolicy resilient runs use (a
        # CheckpointPolicy, a strategy name, or None for the host-gather
        # default).  Stored raw and coerced lazily by CheckpointStore, so
        # a session that never checkpoints imports nothing extra.
        self.checkpoint_policy = checkpoint
        # Re-expansion ledger; created by the first degrade().
        self._expansion = None

    @property
    def tracer(self) -> Optional[Tracer]:
        """The attached :class:`~repro.obs.Tracer`, or ``None``."""
        return self.machine.tracer

    @property
    def faults(self):
        """The attached :class:`~repro.faults.FaultInjector`, or ``None``."""
        return self.machine.faults

    @property
    def sanitizer(self):
        """The attached :class:`~repro.check.MachineSanitizer`, or ``None``."""
        return self.machine.sanitizer

    @property
    def abft(self):
        """The attached :class:`~repro.abft.ABFTManager`, or ``None``."""
        return self.machine.abft

    @property
    def metrics(self):
        """The attached :class:`~repro.metrics.MetricsRegistry`, or ``None``."""
        return self.machine.metrics

    # -- degraded-mode recovery ----------------------------------------------

    def degrade(self) -> Hypercube:
        """Remap the session onto the largest healthy subcube.

        Called (normally by :func:`repro.faults.run_resilient`) after a
        :class:`~repro.errors.NodeKilledError`: builds a fresh, healthy
        machine from the surviving subcube, *sharing the parent's counters*
        so the simulated clock keeps running, re-binds every attachment
        and translates the fault injector's remaining events into subcube
        coordinates.  Distributed arrays built on the old machine are dead;
        workloads resume from their last host-side checkpoint
        (:class:`~repro.faults.CheckpointStore`).  Raises
        :class:`~repro.errors.FaultError` when no healthy subcube exists.
        """
        from ..faults.expansion import ExpansionLedger
        from ..faults.recovery import largest_healthy_subcube

        old = self.machine
        injector = old.faults
        # Re-expansion bookkeeping: the abandoned machines' health history
        # lives on in a root-coordinate ledger, and pending heal events
        # move there before translate() would drop them with the hardware
        # they target.
        if self._expansion is None:
            self._expansion = ExpansionLedger(old)
        else:
            self._expansion.sync_kills(old)
        if injector is not None:
            self._expansion.add_heal_events(injector.extract_heals())
        free_dims, base = largest_healthy_subcube(old)
        if injector is not None:
            injector.translate(free_dims, base)
        new = self._swap_machine("degrade", free_dims, base)
        self._expansion.record_degrade(free_dims, base)
        return new

    def _swap_machine(
        self, event: str, free_dims: Sequence[int], base: int
    ) -> Hypercube:
        """Move the session onto the cube ``(free_dims, base)``.

        The successor charges into the same counters, so the simulated
        clock keeps running.  Every filled slot carries over in
        ``Hypercube.SLOTS`` order, rebound to the successor; the tracer
        first records the swap as the instant ``event``.  The abandoned
        machine keeps empty slots, so the expansion ledger's kills and
        revives on it reach no tracer, sanitizer or injector.
        """
        old = self.machine
        new = Hypercube(
            len(free_dims),
            old.cost_model,
            plan_cache=old.plans.enabled,
            counters=old.counters,
        )
        if old.tracer is not None:
            old.tracer.instant(
                event,
                "fault",
                old_p=old.p,
                new_p=new.p,
                base=base,
                free_dims=list(free_dims),
            )
        for slot in Hypercube.SLOTS:
            attachment = getattr(old, slot)
            if attachment is not None:
                attachment.rebind(new)
                setattr(new, slot, attachment)
                setattr(old, slot, None)
        self.machine = new
        return new

    def promotion_ready(self) -> bool:
        """Whether a strictly larger healthy cube is available right now.

        Applies any heal events that have come due on the simulated clock
        to the expansion ledger, then checks three gates: the ledger is
        enabled (the session has degraded and promotion hasn't been
        exhausted), the injector's health tracker holds no suspects
        (flapping protection), and the root cube contains a healthy
        subcube strictly larger than the current machine.  Cheap no-op
        for sessions that never degraded.
        """
        led = self._expansion
        if led is None or not led.enabled:
            return False
        machine = self.machine
        injector = machine.faults
        led.sync_kills(machine)
        applied = led.apply_due_heals(machine.counters.time)
        if applied:
            if injector is not None:
                for kind, _dim, _pid in applied:
                    if kind == "node":
                        injector.stats.node_heals += 1
                    else:
                        injector.stats.link_heals += 1
            tracer = machine.tracer
            if tracer is not None:
                for kind, dim, pid in applied:
                    name = (
                        f"heal_node:{pid}" if kind == "node"
                        else f"heal_link:{dim}@{pid}"
                    )
                    tracer.instant(name, "fault", pid=pid)
        if injector is not None and injector.health.tracked:
            return False  # still-suspect components: don't thrash
        if not led.heal_applied:
            # Promotion is heal-driven: greedy degrades can leave a
            # larger root subcube healthy, but re-expanding without a
            # repair would change long-standing degrade-only behavior.
            return False
        return led.promotion_target(machine.p) is not None

    def promote(self) -> Hypercube:
        """Re-expand onto the largest healthy cube — the mirror of
        :meth:`degrade`.

        Requires a prior degrade (the expansion ledger) and a strictly
        larger healthy target; raises :class:`~repro.errors.FaultError`
        otherwise.  The caller (normally :func:`repro.faults.
        run_resilient`, on :class:`~repro.faults.strategies.
        PromotionPending`) must re-scatter state from the latest
        checkpoint afterwards — arrays built on the smaller machine are
        as dead after a promote as after a degrade.
        """
        from ..errors import FaultError

        led = self._expansion
        if led is None:
            raise FaultError("promote() requires a degraded session")
        target = led.promotion_target(self.machine.p)
        if target is None:
            raise FaultError(
                "no healthy cube larger than the current machine is "
                "available for promotion"
            )
        free_dims, base = target
        injector = self.machine.faults
        if injector is not None:
            # Lift pending events from subcube coordinates to root
            # coordinates, then compress into the promoted cube.  The pid
            # modulo inside translate() must see the root's extent.
            injector.untranslate(led.embed_dims, led.embed_base)
            injector.machine = led.root
            injector.translate(free_dims, base)
            injector.stats.expansions += 1
        new = self._swap_machine("promote", free_dims, base)
        led.record_promote(free_dims, base)
        # Each promotion consumes the heals that justified it; growing
        # further requires further repairs to land.
        led.heal_applied = False
        return new

    # -- array factories ----------------------------------------------------

    def _matrix_cls(self) -> type:
        """Matrix class for new arrays: checksummed when ABFT is attached."""
        if self.machine.abft is not None:
            from ..abft.arrays import ABFTMatrix

            return ABFTMatrix
        return DistributedMatrix

    def _vector_cls(self) -> type:
        """Vector class for new arrays: checksummed when ABFT is attached."""
        if self.machine.abft is not None:
            from ..abft.arrays import ABFTVector

            return ABFTVector
        return DistributedVector

    def matrix(
        self,
        data: np.ndarray,
        layout: str = "block",
        embedding: Optional[MatrixEmbedding] = None,
    ) -> DistributedMatrix:
        """Embed a host matrix (aspect-matched grid, balanced layout)."""
        with maybe_span(self.machine, "scatter", "io"):
            return self._matrix_cls().from_numpy(
                self.machine, data, embedding=embedding, layout=layout
            )

    def vector(self, data: np.ndarray, layout: str = "block") -> DistributedVector:
        """Embed a host vector in vector order (spread over all processors)."""
        with maybe_span(self.machine, "scatter", "io"):
            return self._vector_cls().from_numpy(
                self.machine, data, layout=layout
            )

    def row_vector(
        self, data: np.ndarray, like: DistributedMatrix
    ) -> DistributedVector:
        """Embed a host vector row-aligned (replicated) with ``like``."""
        with maybe_span(self.machine, "scatter", "io"):
            emb = RowAlignedEmbedding(like.embedding, None)
            return self._vector_cls()(emb.scatter(np.asarray(data)), emb)

    def col_vector(
        self, data: np.ndarray, like: DistributedMatrix
    ) -> DistributedVector:
        """Embed a host vector column-aligned (replicated) with ``like``."""
        with maybe_span(self.machine, "scatter", "io"):
            emb = ColAlignedEmbedding(like.embedding, None)
            return self._vector_cls()(emb.scatter(np.asarray(data)), emb)

    def sparse_matrix(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape,
        layout: str = "nnz",
    ):
        """Embed COO triplets as a row-partitioned sparse matrix.

        ``layout="nnz"`` (default) balances nonzeros per rank; ``"block"``
        balances row counts.  Imported lazily: a session that never builds
        sparse arrays never loads :mod:`repro.sparse`.
        """
        from ..sparse import SparseMatrix

        return SparseMatrix.from_coo(
            self.machine, rows, cols, data, shape, layout=layout
        )

    def sparse_vector(self, data: np.ndarray, fill=0, like=None):
        """Embed a host vector with an explicit absent-value ``fill``.

        Pass ``like`` (a sparse matrix or vector) to align partitions so
        elementwise combines need no data motion.
        """
        from ..sparse import SparseVector

        embedding = like.embedding if like is not None else None
        return SparseVector.from_numpy(
            self.machine, data, fill=fill, embedding=embedding
        )

    # -- embedding helpers -----------------------------------------------------

    def vector_order(self, length: int, layout: str = "block") -> VectorOrderEmbedding:
        return VectorOrderEmbedding(self.machine, length, layout)

    def row_aligned(
        self, like: DistributedMatrix, resident: Optional[int] = None
    ) -> RowAlignedEmbedding:
        return RowAlignedEmbedding(like.embedding, resident)

    def col_aligned(
        self, like: DistributedMatrix, resident: Optional[int] = None
    ) -> ColAlignedEmbedding:
        return ColAlignedEmbedding(like.embedding, resident)

    # -- accounting --------------------------------------------------------------

    @property
    def time(self) -> float:
        """Total simulated time so far (ticks)."""
        return self.machine.counters.time

    def snapshot(self) -> CostSnapshot:
        return self.machine.snapshot()

    def reset_counters(self) -> None:
        self.machine.counters.reset()
        if self.machine.sanitizer is not None:
            self.machine.sanitizer.resync()

    def report(self) -> str:
        """Human-readable accounting summary, rendered from :meth:`report_data`."""
        d = self.report_data()
        lines = [
            f"simulated machine : p={d['p']} (n={d['n']}), "
            f"cost model {d['cost_model']}",
            f"simulated time    : {d['time']:.1f} ticks",
            f"flops             : {d['flops']:.0f}",
            f"elements moved    : {d['elements_transferred']:.0f}",
            f"comm rounds       : {d['comm_rounds']}",
            f"local moves       : {d['local_moves']:.0f}",
        ]
        plans = d["plan_cache"]
        if plans["enabled"]:
            lines.append(
                f"plan cache        : {plans['entries']} plans, "
                f"{plans['hits']} hits / {plans['misses']} misses / "
                f"{plans['evictions']} evictions"
            )
        else:
            lines.append("plan cache        : disabled")
        st = d.get("faults")
        if st is not None:
            lines.append(
                f"faults            : {st['node_kills']} node kills, "
                f"{st['link_kills']} link kills, {st['drops']} drops / "
                f"{st['retries']} retries, {st['detour_rounds']} detour "
                f"rounds, {st['recoveries']} recoveries"
            )
            if (
                st["link_slows"]
                or st["node_slows"]
                or st["flaky_links"]
                or st["straggler_detours"]
            ):
                lines.append(
                    f"gray faults       : {st['link_slows']} slow links, "
                    f"{st['node_slows']} slow nodes, {st['flaky_links']} "
                    f"flaky links / {st['flaky_drops']} drops, "
                    f"{st['hedged_retransmits']} hedged, "
                    f"{st['slow_rounds']} stretched rounds "
                    f"(+{st['slow_time']:.1f} ticks), "
                    f"{st['straggler_detours']} straggler detours, "
                    f"{st['gray_recoveries']} recoveries"
                )
            if st["node_heals"] or st["link_heals"] or st["expansions"]:
                lines.append(
                    f"re-expansion      : {st['node_heals']} node heals, "
                    f"{st['link_heals']} link heals, "
                    f"{st['expansions']} promotions"
                )
        if "sanitizer" in d:
            lines.append(
                f"sanitizer         : {d['sanitizer']['total']} checks passed"
            )
        ab = d.get("abft")
        if ab is not None:
            lines.append(
                f"abft              : {ab['protected']} protected / "
                f"{ab['verifies']} verified, {ab['detected']} detected, "
                f"{ab['corrected']} corrected, {ab['recomputed']} replays, "
                f"{ab['scrubs']} scrubs, {ab['wire_retransmits']} wire "
                f"retransmits"
            )
        if d["phase_breakdown"]:
            lines.append("phase breakdown:")
            for row in d["phase_breakdown"]:
                t = row["time"]
                share = 100.0 * t / d["time"] if d["time"] else 0.0
                lines.append(f"  {row['phase']:<24s} {t:>14.1f}  ({share:5.1f}%)")
        summary = d.get("primitive_breakdown")
        if summary:
            lines.append("primitive breakdown:")
            lines.append(
                f"  {'name':<16s} {'count':>5s} {'time':>12s} "
                f"{'flops':>10s} {'elems':>10s} {'rounds':>6s} "
                f"{'cong p50':>9s} {'cong max':>9s}"
            )
            for name, row in summary.items():
                lines.append(
                    f"  {name:<16s} {row['count']:>5d} "
                    f"{row['time']:>12.1f} {row['flops']:>10.0f} "
                    f"{row['elements']:>10.0f} {row['rounds']:>6d} "
                    f"{row['congestion_p50']:>9.1f} "
                    f"{row['congestion_max']:>9.1f}"
                )
        return "\n".join(lines)

    def report_data(self) -> dict:
        """The accounting summary as a JSON-serialisable dict.

        The counters and plan cache, then each filled slot's own
        ``report_data()`` in ``Hypercube.SLOTS`` order.
        """
        machine = self.machine
        c = machine.counters
        plans = machine.plans
        data = {
            "p": machine.p,
            "n": machine.n,
            "cost_model": str(machine.cost_model),
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
        for slot in Hypercube.SLOTS:
            attachment = getattr(machine, slot)
            if attachment is not None:
                data.update(attachment.report_data())
        return data

    def __repr__(self) -> str:
        return f"Session(p={self.machine.p}, time={self.time:.1f})"
