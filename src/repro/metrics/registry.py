"""Metrics registry: the machine's counted report as one flat namespace.

Every subsystem reports its state once, through ``report_data()``, and
:meth:`repro.machine.hypercube.Hypercube.counted_report` gathers the
counting part: shape, cost counters, plan cache, phase breakdown and the
``faults``, ``sanitizer`` and ``abft`` sections.  The
:class:`MetricsRegistry` reads nothing else:

* :meth:`MetricsRegistry.collect` is one :func:`flatten` of that report,
  so a metric name is a ``report_data`` path (``machine.time``,
  ``plan_cache.hits``, ``faults.detour_rounds``, ``abft.scrubs``,
  ``sanitizer.plan-hit``, ...);
* :meth:`snapshot` records a collection *on the simulated clock*, so a
  run's metric history lines up with its Chrome trace;
* :meth:`to_jsonl` / :meth:`counter_track_events` export the history as
  JSON Lines or as Chrome trace-event counter (``"C"``) tracks that load
  next to the span tree from :mod:`repro.obs`.

Design contract (same as the tracer, pinned by ``tests/test_metrics.py``):

* **Null by default.**  ``machine.metrics`` is ``None`` unless attached;
  a run without the registry never imports this module.
* **Read-only.**  The registry never charges the machine and never
  mutates subsystem state; simulated ticks and every counter are
  bit-identical with metrics on or off.
* **No span-tree fold.**  The tracer's and the registry's own sections
  stay out of the counted report, so a phase-exit snapshot never folds
  the span tree.
"""

from __future__ import annotations

import json
from numbers import Real
from typing import Any, Dict, IO, List, Union

from ..errors import ConfigError

#: Environment variable that turns the registry on for new ``Session``s.
ENV_FLAG = "REPRO_METRICS"

#: JSONL schema tag written by :meth:`MetricsRegistry.to_jsonl`.
SCHEMA = "repro-metrics-v2"

#: Cap on stored snapshots: auto-snapshots (taken on phase exits) stop
#: here so a long solver loop cannot grow the history without bound.
MAX_SNAPSHOTS = 4096


def flatten(data: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
    """A ``report_data()`` dict as flat ``{dotted path: float}``.

    Nested dicts join their keys with dots; top-level numbers go under
    ``machine.``.  Strings and lists (the cost model, the phase
    breakdown) are skipped, and bools become 0.0 or 1.0.
    """
    out: Dict[str, float] = {}
    for key, value in data.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        elif isinstance(value, Real):
            out[f"{prefix or 'machine.'}{key}"] = float(value)
    return out


class MetricsRegistry:
    """Snapshots of one machine's counted report.

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
        self.snapshots: List[Dict[str, Any]] = []
        self.max_snapshots = int(max_snapshots)

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

    # -- collection -----------------------------------------------------------

    def collect(self) -> Dict[str, float]:
        """The bound machine's counted report, flattened."""
        machine = self.machine
        if machine is None:
            raise ConfigError("metrics registry is not bound to a machine")
        return flatten(machine.counted_report())

    def report_data(self) -> Dict[str, Any]:
        """The registry's part of :meth:`repro.core.session.Session.report_data`."""
        return {"metrics": {"snapshots": len(self.snapshots)}}

    # -- snapshots on the simulated clock -------------------------------------

    def snapshot(self, label: str = "") -> Dict[str, Any]:
        """Collect now and append to the history, stamped with sim time."""
        record = {
            "label": label,
            "sim_time": float(self.machine.counters.time),
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
        the metric names every snapshot's keys add up to); each following
        line is one snapshot.
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
                "metrics": list(
                    dict.fromkeys(
                        name for snap in self.snapshots for name in snap["values"]
                    )
                ),
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
        return f"MetricsRegistry({len(self.snapshots)} snapshots)"


__all__ = [
    "MetricsRegistry",
    "flatten",
    "ENV_FLAG",
    "SCHEMA",
    "MAX_SNAPSHOTS",
]
