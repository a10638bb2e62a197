"""Structured tracing: primitive-level spans over the simulated machine.

The simulator's :class:`~repro.machine.counters.Counters` answer "what did
the whole run cost"; the tracer answers "which *call* cost it".  Every
primitive application, collective, embedding change and router simulation
opens a :class:`Span` that records the :class:`~repro.machine.counters.
CostSnapshot` delta across its body, the plan-cache hits/misses it
incurred, and the per-dimension link congestion of every communication
round executed inside it.  Spans nest under the existing ``phase()`` stack,
so the span tree *is* the call tree of the simulation.

Each span also carries a host-clock interval, so the same tree answers
where the *seconds* went: :meth:`Tracer.profile` folds every span's self
time and self ticks into one row per span name.  A ``run``-category root
span, opened by the caller, is the measurement window; its self time is
the ``(unattributed)`` row.

Design constraints (pinned by ``tests/test_obs.py``):

* **Null by default.**  ``machine.tracer`` is ``None`` unless a tracer is
  attached; every instrumentation site guards with a single ``is None``
  branch and charges nothing, so cost totals are bit-identical with
  tracing on, off, or absent.
* **Simulated ticks are the clock.**  Span timestamps are
  ``counters.time`` values, so per-phase span durations sum exactly to the
  ``phase_times`` the counters already report.  The host clock is read
  once at open and once at close, and only when a tracer is attached.
* **Read-only.**  The tracer never charges the machine and never touches
  the plan cache; it observes snapshots and round details only.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING,
)

from ..machine.counters import CostSnapshot
from .congestion import CongestionAggregator
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..machine.hypercube import Hypercube

#: Environment variable that turns tracing on for new ``Session``s.
ENV_FLAG = "REPRO_TRACE"

#: Shared re-entrant no-op context used when no tracer is attached.
NULL_CONTEXT = contextlib.nullcontext()

#: Profile row of the self time of ``run`` spans: host time inside the
#: measurement window but inside no named span.
UNATTRIBUTED = "(unattributed)"


def maybe_span(machine: "Hypercube", name: str, category: str, **attrs: Any):
    """A span on ``machine``'s tracer, or a shared no-op context.

    This is the single branch every instrumented call site pays when
    tracing is off.
    """
    tracer = machine.tracer
    if tracer is None:
        return NULL_CONTEXT
    return tracer.span(name, category, **attrs)


@dataclass
class Span:
    """One traced call: a named interval on both clocks.

    ``start``/``end`` are counter snapshots taken at open/close, so
    ``span.cost`` is exactly what the call charged (children included);
    ``wall_start``/``wall_end`` are the host clock at open/close.
    ``rounds`` lists the ``(dim, congestion)`` of every communication round
    executed *directly* inside this span (children keep their own); use
    :meth:`iter` / :meth:`subtree_rounds` for inclusive views.
    """

    name: str
    category: str
    start_ts: float
    start: CostSnapshot
    attrs: Dict[str, Any] = field(default_factory=dict)
    end_ts: float = 0.0
    end: Optional[CostSnapshot] = None
    wall_start: float = 0.0
    wall_end: float = 0.0
    plan_hits: int = 0
    plan_misses: int = 0
    rounds: List[Tuple[int, float]] = field(default_factory=list)
    children: List["Span"] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated ticks elapsed inside the span."""
        return (self.end_ts if self.closed else self.start_ts) - self.start_ts

    @property
    def wall(self) -> float:
        """Host seconds elapsed inside the span."""
        if not self.closed:
            return 0.0
        return self.wall_end - self.wall_start

    @property
    def self_wall(self) -> float:
        """Host seconds inside the span but inside none of its children."""
        return self.wall - sum(child.wall for child in self.children)

    @property
    def self_ticks(self) -> float:
        """Simulated ticks inside the span but inside none of its children."""
        return self.duration - sum(child.duration for child in self.children)

    @property
    def cost(self) -> CostSnapshot:
        """The counter delta across the span (zero while still open)."""
        if self.end is None:
            return CostSnapshot()
        return self.end - self.start

    def iter(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter()

    def subtree_rounds(self) -> List[Tuple[int, float]]:
        """All ``(dim, congestion)`` rounds in the span and its descendants."""
        out: List[Tuple[int, float]] = []
        for span in self.iter():
            out.extend(span.rounds)
        return out

    def max_congestion(self) -> float:
        """Largest per-round link congestion observed in the subtree."""
        rounds = self.subtree_rounds()
        return max((c for _, c in rounds), default=0.0)

    def to_event(self) -> Dict[str, Any]:
        """The span as one structured-log record (JSONL line payload)."""
        event: Dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "category": self.category,
            "ts": self.start_ts,
            "dur": self.duration,
            "wall_s": self.wall,
            "cost": self.cost.as_dict(),
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "rounds": [[int(d), float(c)] for d, c in self.rounds],
        }
        if self.attrs:
            event["attrs"] = dict(self.attrs)
        return event


class Tracer:
    """Collects a span tree plus congestion statistics from one machine.

    Attach with :meth:`Hypercube.attach` (or ``Session(trace=True)``)
    *before* running the workload.  Query ``roots``, :meth:`iter_spans`,
    :meth:`find`, :meth:`primitive_summary`, :meth:`profile` afterwards,
    or export with :func:`repro.obs.export.to_chrome_trace` /
    :func:`~repro.obs.export.to_jsonl`.

    Parameters
    ----------
    clock:
        A zero-argument callable returning host seconds; defaults to
        :func:`time.perf_counter`.  Tests inject a deterministic counter.
    """

    #: The machine slot this attachment fills (see ``Hypercube.SLOTS``).
    slot = "tracer"

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.machine: Optional["Hypercube"] = None
        self.roots: List[Span] = []
        # Closed spans (in close order) and instant-event dicts.  A span
        # becomes its event dict only when :attr:`events` is read, which
        # keeps closing a span cheap.
        self._log: List[Any] = []
        self.congestion = CongestionAggregator()
        self._stack: List[Span] = []

    # -- binding --------------------------------------------------------------

    def bind(self, machine: "Hypercube") -> None:
        """Bind to a machine (called by ``Hypercube.attach``)."""
        if self.machine is not None and self.machine is not machine:
            raise ConfigError("tracer is already bound to a different machine")
        self.machine = machine
        self.congestion.bind(machine.n, machine.p)

    def rebind(self, machine: "Hypercube") -> None:
        """Re-bind to a replacement machine, keeping all recorded history.

        Used by degraded-mode recovery (:meth:`repro.core.session.Session.
        degrade`): the session swaps in a smaller healthy subcube charging
        into the *same* counters, so the span clock keeps advancing
        monotonically across the swap.  The congestion heatmap keeps its
        original geometry; the surviving subcube's links land in the
        low-index rows/columns.
        """
        self.machine = machine
        self.congestion.bind(machine.n, machine.p)

    def _counters(self):
        if self.machine is None:
            raise RuntimeError("tracer is not attached to a machine")
        return self.machine.counters

    # -- span lifecycle -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, category: str = "span", **attrs: Any):
        """Open a span around the block; closes on exit, exceptions included."""
        c = self._counters()
        span = Span(
            name=name,
            category=category,
            start_ts=c.time,
            start=c.snapshot(),
            attrs=attrs,
        )
        span.plan_hits = c.plan_hits
        span.plan_misses = c.plan_misses
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        span.wall_start = self.clock()
        try:
            yield span
        finally:
            span.wall_end = self.clock()
            popped = self._stack.pop()
            assert popped is span
            span.end_ts = c.time
            span.end = c.snapshot()
            span.plan_hits = c.plan_hits - span.plan_hits
            span.plan_misses = c.plan_misses - span.plan_misses
            self._log.append(span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def instant(self, name: str, category: str = "event", **attrs: Any) -> None:
        """Record a point event at the current simulated time."""
        c = self._counters()
        event: Dict[str, Any] = {
            "type": "instant",
            "name": name,
            "category": category,
            "ts": c.time,
        }
        if attrs:
            event["attrs"] = dict(attrs)
        self._log.append(event)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The event log: closed spans (in close order) and instants."""
        return [
            entry.to_event() if isinstance(entry, Span) else entry
            for entry in self._log
        ]

    # -- communication-round hooks (called from charge sites) ------------------

    def on_comm_round(
        self, dim: Optional[int], volume: float, rounds: int = 1
    ) -> None:
        """A structured dimension-exchange: every link in ``dim`` carries
        ``volume`` elements (uniform load), ``rounds`` times."""
        d = -1 if dim is None else dim
        for _ in range(rounds):
            self.congestion.record_uniform(d, volume)
            if self._stack:
                self._stack[-1].rounds.append((d, float(volume)))

    def on_route_round(self, dim: int, loads, congestion: float) -> None:
        """One e-cube routing round: ``loads`` is the per-processor link
        load along ``dim`` (``None`` when replaying a cached plan, which
        retains only the round's max congestion)."""
        self.congestion.record_route(dim, loads, congestion)
        if self._stack:
            self._stack[-1].rounds.append((dim, float(congestion)))

    def on_route_replay(self, stats) -> None:
        """Replay the per-dimension congestion of cached route stats."""
        for dim, congestion in stats.dim_congestion:
            self.on_route_round(dim, None, congestion)

    # -- queries ---------------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.iter()

    def find(
        self, name: Optional[str] = None, category: Optional[str] = None
    ) -> List[Span]:
        """All closed spans matching the given name and/or category."""
        return [
            s
            for s in self.iter_spans()
            if s.closed
            and (name is None or s.name == name)
            and (category is None or s.category == category)
        ]

    def primitive_summary(self) -> "Dict[str, Dict[str, float]]":
        """Aggregate primitive-category spans by name.

        Returns ``{name: {count, time, flops, elements, rounds,
        congestion_p50, congestion_max}}`` — the per-primitive breakdown
        table :meth:`repro.core.session.Session.report` prints.
        """
        import numpy as np

        summary: Dict[str, Dict[str, float]] = {}
        congestions: Dict[str, List[float]] = {}
        for span in self.find(category="primitive"):
            row = summary.setdefault(
                span.name,
                {
                    "count": 0,
                    "time": 0.0,
                    "flops": 0.0,
                    "elements": 0.0,
                    "rounds": 0,
                    "congestion_p50": 0.0,
                    "congestion_max": 0.0,
                },
            )
            cost = span.cost
            row["count"] += 1
            row["time"] += cost.time
            row["flops"] += cost.flops
            row["elements"] += cost.elements_transferred
            row["rounds"] += cost.comm_rounds
            congestions.setdefault(span.name, []).extend(
                c for _, c in span.subtree_rounds()
            )
        for name, cs in congestions.items():
            if cs:
                summary[name]["congestion_p50"] = float(np.percentile(cs, 50))
                summary[name]["congestion_max"] = float(max(cs))
        return summary

    def profile(self, top_n: Optional[int] = 10) -> Dict[str, Any]:
        """Host seconds and simulated ticks per span name, on both clocks.

        A fold over the span tree: each closed span adds its self time
        and self ticks to the row of its name (``run`` spans to the
        :data:`UNATTRIBUTED` row), so the ``seconds`` of all rows sum to
        ``total_s``, the host time inside the root spans, and their
        ``ticks`` to the ticks charged inside them.  ``phases`` holds the
        ``top_n`` rows (all of them for ``None``) by descending seconds;
        ``categories`` sums seconds per span category.
        """
        rows: Dict[str, Dict[str, Any]] = {}
        categories: Dict[str, float] = {}
        unattributed = 0.0
        for span in self.iter_spans():
            if not span.closed:
                continue
            seconds = span.self_wall
            if span.category == "run":
                label = UNATTRIBUTED
                unattributed += seconds
            else:
                label = span.name
            row = rows.setdefault(label, {
                "label": label,
                "category": span.category,
                "seconds": 0.0,
                "share": 0.0,
                "count": 0,
                "ticks": 0.0,
            })
            row["seconds"] += seconds
            row["count"] += 1
            row["ticks"] += span.self_ticks
            categories[span.category] = (
                categories.get(span.category, 0.0) + seconds
            )
        total = sum(root.wall for root in self.roots)
        table = sorted(rows.values(), key=lambda r: -r["seconds"])
        for row in table:
            row["share"] = row["seconds"] / total if total else 0.0
        return {
            "total_s": total,
            "attributed_s": total - unattributed,
            "coverage": (total - unattributed) / total if total > 0 else 0.0,
            "phases": table[:top_n],
            "categories": categories,
        }

    def format_profile(self, top_n: int = 10) -> str:
        """The top-N rows of :meth:`profile` as printable text."""
        data = self.profile(top_n)
        lines = [
            f"host wall time    : {data['total_s']:.3f}s "
            f"({100.0 * data['coverage']:.1f}% attributed)",
            f"  {'label':<24s} {'category':<10s} {'seconds':>9s} "
            f"{'share':>7s} {'count':>7s} {'ticks':>14s}",
        ]
        for row in data["phases"]:
            lines.append(
                f"  {row['label']:<24s} {row['category']:<10s} "
                f"{row['seconds']:>9.3f} {100.0 * row['share']:>6.1f}% "
                f"{row['count']:>7d} {row['ticks']:>14.1f}"
            )
        return "\n".join(lines)

    def report_data(self) -> Dict[str, Any]:
        """The tracer's part of :meth:`repro.core.session.Session.report_data`."""
        return {
            "primitive_breakdown": self.primitive_summary(),
            "congestion": self.congestion.summary(),
            "profile": self.profile(),
        }
