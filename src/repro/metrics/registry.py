"""Metrics registry: one flat, typed namespace for every subsystem's counters.

The simulator has grown half a dozen observability surfaces — plan-cache
hit counts on :class:`~repro.machine.counters.Counters`, fault totals on
``FaultStats``, checksum totals on ``ABFTStats``, sanitizer check counts,
per-lane batch accounting — each with its own ad-hoc dict shape.  The
:class:`MetricsRegistry` gives them one publication contract:

* every subsystem implements ``publish_metrics(registry)`` and calls
  :meth:`MetricsRegistry.publish` with flat dotted lowercase names
  (``plan_cache.hits``, ``abft.scrub_rounds``, ``router.detours``,
  ``batch.active_lanes``, ...);
* :meth:`collect` walks the bound machine's attachments and returns one
  ``{name: value}`` dict;
* :meth:`snapshot` records a collection *on the simulated clock*, so a
  run's metric history lines up with its Chrome trace;
* :meth:`to_jsonl` / :meth:`counter_track_events` export the history as
  JSON Lines or as Chrome trace-event counter (``"C"``) tracks that load
  next to the span tree from :mod:`repro.obs`.

Design contract (same as the PR 2 tracer, pinned by
``tests/test_metrics.py``):

* **Null by default.**  ``machine.metrics`` is ``None`` unless attached;
  a run without the registry never imports this module.
* **Read-only.**  The registry never charges the machine and never
  mutates subsystem state; simulated ticks and every counter are
  bit-identical with metrics on or off.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Dict, IO, List, Optional, Union

from ..errors import ConfigError

#: Environment variable that turns the registry on for new ``Session``s.
ENV_FLAG = "REPRO_METRICS"

#: JSONL schema tag written by :meth:`MetricsRegistry.to_jsonl`.
SCHEMA = "repro-metrics-v1"

#: Cap on stored snapshots: auto-snapshots (taken on phase exits) stop
#: here so a long solver loop cannot grow the history without bound.
MAX_SNAPSHOTS = 4096

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

_KINDS = ("counter", "gauge")


@dataclass(frozen=True)
class Metric:
    """One registered metric: its name, kind and documentation."""

    name: str
    kind: str = "counter"  # "counter" (monotone total) or "gauge" (level)
    unit: str = ""
    help: str = ""


class MetricsRegistry:
    """A flat metric namespace bound to one machine.

    Attach with :meth:`Hypercube.attach` (or
    ``Session(metrics=True)``, or ``REPRO_METRICS=1``).  The registry
    survives degraded-mode recovery: the session rebinds it to the
    survivor subcube and the snapshot history keeps accumulating.
    """

    #: The machine slot this attachment fills (see ``Hypercube.SLOTS``).
    slot = "metrics"

    def __init__(self, max_snapshots: int = MAX_SNAPSHOTS) -> None:
        if max_snapshots < 1:
            raise ConfigError(
                f"max_snapshots must be >= 1, got {max_snapshots}"
            )
        self.machine = None
        self.metrics: Dict[str, Metric] = {}
        self.snapshots: List[Dict[str, Any]] = []
        self.max_snapshots = int(max_snapshots)
        self._sink: Optional[Dict[str, float]] = None

    # -- binding --------------------------------------------------------------

    def bind(self, machine: Any) -> None:
        if self.machine is not None and self.machine is not machine:
            raise ConfigError(
                "metrics registry is already bound to a different machine"
            )
        self.machine = machine

    def rebind(self, machine: Any) -> None:
        """Re-bind to a replacement machine (degraded-mode recovery)."""
        self.machine = machine

    # -- publication ----------------------------------------------------------

    def register(
        self, name: str, kind: str = "counter", unit: str = "", help: str = ""
    ) -> Metric:
        """Declare a metric; idempotent, but conflicting re-declarations fail.

        Names are flat dotted lowercase (``subsystem.metric``); the first
        declaration wins and later ones must agree on kind and unit, so two
        subsystems can never silently publish different things under one
        name.
        """
        if not _NAME_RE.match(name):
            raise ConfigError(
                f"invalid metric name {name!r}: use flat dotted lowercase "
                f"like 'plan_cache.hits'"
            )
        if kind not in _KINDS:
            raise ConfigError(
                f"invalid metric kind {kind!r} for {name}: one of {_KINDS}"
            )
        existing = self.metrics.get(name)
        if existing is not None:
            if existing.kind != kind or existing.unit != unit:
                raise ConfigError(
                    f"metric {name!r} re-registered as {kind}/{unit!r} but "
                    f"is already {existing.kind}/{existing.unit!r}"
                )
            return existing
        metric = Metric(name, kind, unit, help)
        self.metrics[name] = metric
        return metric

    def publish(
        self,
        name: str,
        value: Any,
        kind: str = "counter",
        unit: str = "",
        help: str = "",
    ) -> None:
        """Record one value into the collection in progress.

        Called from subsystems' ``publish_metrics`` hooks; registers the
        metric on first publication.  Outside a collection this only
        registers (so eager declaration is harmless).
        """
        self.register(name, kind, unit, help)
        if self._sink is not None:
            self._sink[name] = float(value)

    # -- collection -----------------------------------------------------------

    def collect_from(self, *publishers: Any) -> Dict[str, float]:
        """One collection pass over explicit publisher objects."""
        if self._sink is not None:
            raise ConfigError("metric collection is already in progress")
        self._sink = {}
        try:
            for publisher in publishers:
                publisher.publish_metrics(self)
            return self._sink
        finally:
            self._sink = None

    def collect(self) -> Dict[str, float]:
        """Walk the bound machine's attachments; returns ``{name: value}``."""
        machine = self.machine
        if machine is None:
            raise ConfigError("metrics registry is not bound to a machine")
        publishers = [machine.counters, machine.plans]
        for attachment in (machine.faults, machine.abft, machine.sanitizer):
            if attachment is not None:
                publishers.append(attachment)
        return self.collect_from(*publishers)

    def report_data(self) -> Dict[str, Any]:
        """The registry's part of :meth:`repro.core.session.Session.report_data`."""
        return {"metrics": self.collect()}

    # -- snapshots on the simulated clock -------------------------------------

    def _sim_time(self) -> float:
        time = self.machine.counters.time
        try:
            return float(time)
        except TypeError:
            # LaneCounters: vector-valued time; the machine clock is the
            # slowest lane (the makespan).
            return float(max(time))

    def snapshot(self, label: str = "") -> Dict[str, Any]:
        """Collect now and append to the history, stamped with sim time."""
        record = {
            "label": label,
            "sim_time": self._sim_time(),
            "values": self.collect(),
        }
        if len(self.snapshots) < self.max_snapshots:
            self.snapshots.append(record)
        return record

    def on_phase_exit(self, name: str) -> None:
        """Auto-snapshot hook called by :meth:`Hypercube.phase` on exit.

        Capped by ``max_snapshots`` — past the cap the hook is free —
        and never charges, so phase-exit sampling cannot perturb costs.
        """
        if len(self.snapshots) < self.max_snapshots:
            self.snapshot(label=f"phase:{name}")

    # -- export ---------------------------------------------------------------

    def to_jsonl(self, dest: Union[str, "IO[str]"]) -> int:
        """Write the snapshot history as JSON Lines; returns the line count.

        The first line is a ``meta`` record (schema tag, machine shape,
        metric declarations); each following line is one snapshot.
        """
        if hasattr(dest, "write"):
            fh, owned = dest, False
        else:
            fh, owned = open(dest, "w"), True
        try:
            machine = self.machine
            meta: Dict[str, Any] = {
                "type": "meta",
                "schema": SCHEMA,
                "metrics": [
                    {
                        "name": m.name,
                        "kind": m.kind,
                        "unit": m.unit,
                        "help": m.help,
                    }
                    for m in self.metrics.values()
                ],
            }
            if machine is not None:
                meta.update(
                    p=machine.p, n=machine.n,
                    cost_model=repr(machine.cost_model),
                )
            fh.write(json.dumps(meta) + "\n")
            lines = 1
            for snap in self.snapshots:
                fh.write(json.dumps(dict(snap, type="snapshot")) + "\n")
                lines += 1
            return lines
        finally:
            if owned:
                fh.close()

    def counter_track_events(self, tid: int = 2) -> List[Dict[str, Any]]:
        """The snapshot history as Chrome trace-event counter tracks.

        Emits one ``"C"`` event per metric *group* (the name's prefix up
        to the first dot) per snapshot, so the viewer renders one stacked
        counter track per subsystem next to the span tree.  Timestamps
        are simulated ticks, monotone because the simulated clock is.
        Pass the result as ``extra_events`` to
        :func:`repro.obs.export.to_chrome_trace`.
        """
        events: List[Dict[str, Any]] = []
        if not self.snapshots:
            return events
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": "metrics"},
            }
        )
        for snap in self.snapshots:
            groups: Dict[str, Dict[str, float]] = {}
            for name, value in snap["values"].items():
                prefix, _, rest = name.partition(".")
                groups.setdefault(prefix, {})[rest] = value
            for prefix in sorted(groups):
                events.append(
                    {
                        "ph": "C",
                        "pid": 0,
                        "tid": tid,
                        "name": prefix,
                        "ts": snap["sim_time"],
                        "args": groups[prefix],
                    }
                )
        return events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry({len(self.metrics)} metrics, "
            f"{len(self.snapshots)} snapshots)"
        )


__all__ = [
    "MetricsRegistry",
    "Metric",
    "ENV_FLAG",
    "SCHEMA",
    "MAX_SNAPSHOTS",
]
