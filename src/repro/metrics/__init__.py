"""Observability warehouse: metrics registry and bench records.

Two layers (see ``docs/observability.md`` and ``docs/performance.md``):

* :mod:`repro.metrics.registry` — the machine's counted report
  (:meth:`repro.machine.hypercube.Hypercube.counted_report`) flattened
  into one namespace of ``report_data`` paths (``machine.time``,
  ``plan_cache.hits``, ``faults.detour_rounds``, ``abft.scrubs``, ...),
  snapshotable on the simulated clock, exportable as JSONL or Chrome
  counter tracks.
* :mod:`repro.metrics.warehouse` — declarative run tables behind
  ``python -m repro bench``, appending schema-versioned JSONL records to
  ``benchmarks/warehouse/`` and gating CI against pinned baselines.

Host wall-clock attribution is the tracer's span tree
(:meth:`repro.obs.Tracer.profile`).  Everything here follows the
tracer's attachment contract: null by default, read-only, and
bit-identical simulated costs on or off.
"""

from .registry import ENV_FLAG as METRICS_ENV_FLAG
from .registry import MetricsRegistry
from .timing import TimedRun, best_of

__all__ = [
    "MetricsRegistry",
    "TimedRun",
    "best_of",
    "METRICS_ENV_FLAG",
]
