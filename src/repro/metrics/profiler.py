"""Deterministic phase profiler: host wall-clock attribution by phase.

The simulated clock says *what the machine would cost*; this profiler
says where the *host* time goes — the instrument the ROADMAP's overhead
attack needs (sanitizer ~2x wall, ABFT ~10x wall on gaussian, with no
tooling to explain which hook burns it).

Attribution is exclusive and event-driven: every :meth:`push` / :meth:`pop`
boundary charges the wall time since the previous boundary to the
innermost open label (or to the ``(unattributed)`` root when none is
open).  Because only boundaries read the clock, the algorithm is
deterministic given a clock — tests inject a fake counter clock and pin
the exact attribution.

Three kinds of label arrive for free once attached:

* every ``Hypercube.phase(name)`` pushes/pops ``name`` (so core compute
  and the ABFT ``abft-maintain``/``abft-verify``/``abft-scrub`` phases
  split out immediately);
* :meth:`bind` wraps an attached sanitizer in a timing proxy, so every
  audit call lands under ``sanitizer-checks``;
* :meth:`PlanCache.memo <repro.machine.plans.PlanCache.memo>` wraps plan
  construction misses under ``plan-build``.

Contract (pinned by ``tests/test_metrics.py``): the profiler never
charges the machine — simulated ticks and all counters are bit-identical
with profiling on or off.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigError

#: Environment variable that turns the profiler on for new ``Session``s.
ENV_FLAG = "REPRO_PROFILE"

#: Label for wall time not inside any phase/section.
ROOT = "(unattributed)"

#: Cap on Chrome counter-track samples recorded at pops.
MAX_SAMPLES = 4096


class _ProfiledProxy:
    """Wraps an attachment so every method call is timed under one label.

    The proxy forwards everything; callable attributes are wrapped once
    (memoized into the instance ``__dict__``) in a closure that pushes
    the label around the call.  Non-callable attributes pass through
    live, so ``proxy.stats`` etc. always reflect the target.
    """

    _PASSTHROUGH = ("_target", "_profiler", "_label", "_category")

    def __init__(self, target: Any, profiler: "PhaseProfiler",
                 label: str, category: str) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_profiler", profiler)
        object.__setattr__(self, "_label", label)
        object.__setattr__(self, "_category", category)

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr
        profiler = self._profiler
        label = self._label
        category = self._category

        def timed(*args: Any, **kwargs: Any) -> Any:
            profiler.push(label, category)
            try:
                return attr(*args, **kwargs)
            finally:
                profiler.pop()

        timed.__name__ = getattr(attr, "__name__", name)
        # Memoize: later lookups skip __getattr__ entirely.  Bound methods
        # are stable on the target, so the closure never goes stale.
        object.__setattr__(self, name, timed)
        return timed

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ProfiledProxy({self._target!r} as {self._label!r})"


class PhaseProfiler:
    """Exclusive host wall-clock attribution over phase boundaries.

    Parameters
    ----------
    clock:
        A zero-argument callable returning seconds; defaults to
        :func:`time.perf_counter`.  Tests inject a deterministic counter.
    """

    #: The machine slot this attachment fills (see ``Hypercube.SLOTS``).
    slot = "profiler"

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.machine = None
        self.times: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.categories: Dict[str, str] = {}
        self.samples: List[Tuple[float, Dict[str, float]]] = []
        self._stack: List[str] = []
        self._mark: Optional[float] = None
        self._t0: Optional[float] = None
        self._total = 0.0
        self._running = False

    # -- binding --------------------------------------------------------------

    def bind(self, machine: Any) -> None:
        """Bind to a machine; wraps an attached sanitizer in a timing proxy.

        Attach the profiler *after* the sanitizer so the proxy sees it
        (``Hypercube.SLOTS`` order, which ``Session`` follows); a sanitizer
        attached later is not wrapped.
        """
        if self.machine is not None and self.machine is not machine:
            raise ConfigError(
                "profiler is already bound to a different machine"
            )
        self.machine = machine
        self._wrap_sanitizer(machine)

    def rebind(self, machine: Any) -> None:
        """Re-bind to a replacement machine (degraded-mode recovery)."""
        self.machine = machine
        self._wrap_sanitizer(machine)

    def _wrap_sanitizer(self, machine: Any) -> None:
        sanitizer = machine.sanitizer
        if sanitizer is not None and not isinstance(sanitizer, _ProfiledProxy):
            machine.sanitizer = _ProfiledProxy(
                sanitizer, self, "sanitizer-checks", "check"
            )

    # -- run control ----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Begin (or resume) attribution; prior totals accumulate."""
        if self._running:
            raise ConfigError("profiler is already running")
        self._running = True
        self._t0 = self._mark = self.clock()

    def stop(self) -> float:
        """End attribution; returns total profiled seconds so far."""
        if not self._running:
            raise ConfigError("profiler is not running")
        now = self.clock()
        self._attribute(now)
        self._total += now - self._t0
        self._running = False
        self._stack.clear()
        return self._total

    @contextlib.contextmanager
    def profiled(self) -> Iterator["PhaseProfiler"]:
        """``with profiler.profiled(): workload()`` — start/stop bracket."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    # -- attribution ----------------------------------------------------------

    def _attribute(self, now: float) -> None:
        label = self._stack[-1] if self._stack else ROOT
        self.times[label] = self.times.get(label, 0.0) + (now - self._mark)
        self._mark = now

    def push(self, label: str, category: str = "phase") -> None:
        """Open ``label``; time since the last boundary goes to the outer one."""
        if not self._running:
            return
        self._attribute(self.clock())
        self._stack.append(label)
        self.counts[label] = self.counts.get(label, 0) + 1
        self.categories.setdefault(label, category)

    def pop(self) -> None:
        """Close the innermost label (tolerant of an empty stack)."""
        if not self._running or not self._stack:
            return
        self._attribute(self.clock())
        self._stack.pop()
        machine = self.machine
        if machine is not None and not self._stack:
            self._sample(machine)

    @contextlib.contextmanager
    def section(self, label: str, category: str = "section") -> Iterator[None]:
        """Attribute a block to ``label`` (used for plan-build work)."""
        self.push(label, category)
        try:
            yield
        finally:
            self.pop()

    # -- Chrome counter track --------------------------------------------------

    def _sample(self, machine: Any) -> None:
        """Record cumulative per-category host seconds on the sim clock.

        Sampled when the outermost label closes, capped, never charging.
        """
        if len(self.samples) >= MAX_SAMPLES:
            return
        time_now = machine.counters.time
        try:
            ts = float(time_now)
        except TypeError:
            ts = float(max(time_now))  # LaneCounters vector clock
        totals: Dict[str, float] = {}
        for label, seconds in self.times.items():
            category = self.categories.get(label, "phase")
            totals[category] = totals.get(category, 0.0) + seconds
        self.samples.append((ts, totals))

    def counter_track_events(self, tid: int = 3) -> List[Dict[str, Any]]:
        """Samples as a Chrome ``"C"`` counter track of host seconds."""
        events: List[Dict[str, Any]] = []
        if not self.samples:
            return events
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": "host time (s)"},
            }
        )
        for ts, totals in self.samples:
            events.append(
                {
                    "ph": "C",
                    "pid": 0,
                    "tid": tid,
                    "name": "host_time_s",
                    "ts": ts,
                    "args": dict(totals),
                }
            )
        return events

    # -- reporting -------------------------------------------------------------

    @property
    def total(self) -> float:
        """Total profiled wall seconds (running time excluded until stop)."""
        return self._total

    @property
    def attributed(self) -> float:
        """Seconds attributed to named labels (everything but the root)."""
        return sum(t for label, t in self.times.items() if label != ROOT)

    @property
    def coverage(self) -> float:
        """Fraction of profiled wall time attributed to named labels."""
        if self._total <= 0.0:
            return 0.0
        return self.attributed / self._total

    def table(self, top_n: int = 10) -> List[Dict[str, Any]]:
        """Per-label rows sorted by descending exclusive seconds."""
        rows = [
            {
                "label": label,
                "category": self.categories.get(label, "root"),
                "seconds": seconds,
                "share": seconds / self._total if self._total else 0.0,
                "count": self.counts.get(label, 0),
            }
            for label, seconds in self.times.items()
        ]
        rows.sort(key=lambda r: -r["seconds"])
        return rows[:top_n]

    def category_breakdown(self) -> Dict[str, float]:
        """Exclusive seconds rolled up by category (root kept separate)."""
        totals: Dict[str, float] = {}
        for label, seconds in self.times.items():
            category = self.categories.get(label, "root")
            totals[category] = totals.get(category, 0.0) + seconds
        return totals

    def as_dict(self, top_n: int = 10) -> Dict[str, Any]:
        """JSON-serialisable summary (used by reports and the warehouse)."""
        return {
            "total_s": self._total,
            "attributed_s": self.attributed,
            "coverage": self.coverage,
            "phases": self.table(top_n),
            "categories": self.category_breakdown(),
        }

    def report_data(self) -> Dict[str, Any]:
        """The profiler's part of :meth:`repro.core.session.Session.report_data`."""
        return {"profile": self.as_dict()}

    def format_table(self, top_n: int = 10) -> str:
        """The per-phase top-N table as printable text."""
        lines = [
            f"host wall time    : {self._total:.3f}s "
            f"({100.0 * self.coverage:.1f}% attributed)",
            f"  {'label':<24s} {'category':<9s} {'seconds':>9s} "
            f"{'share':>7s} {'count':>7s}",
        ]
        for row in self.table(top_n):
            lines.append(
                f"  {row['label']:<24s} {row['category']:<9s} "
                f"{row['seconds']:>9.3f} {100.0 * row['share']:>6.1f}% "
                f"{row['count']:>7d}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return (
            f"PhaseProfiler({state}, total={self._total:.3f}s, "
            f"labels={len(self.times)})"
        )


__all__ = [
    "PhaseProfiler",
    "ROOT",
    "ENV_FLAG",
    "MAX_SAMPLES",
]
