"""Observability warehouse: metrics registry, phase profiler, bench records.

Three layers (see ``docs/observability.md`` and ``docs/performance.md``):

* :mod:`repro.metrics.registry` — a flat, typed metric namespace every
  subsystem publishes into (``plan_cache.hits``, ``abft.scrub_rounds``,
  ``router.detours``, ``batch.active_lanes``, ...), snapshotable on the
  simulated clock, exportable as JSONL or Chrome counter tracks.
* :mod:`repro.metrics.profiler` — deterministic host wall-clock
  attribution over ``Hypercube.phase`` boundaries, sanitizer audits and
  plan-cache builds.
* :mod:`repro.metrics.warehouse` — declarative run tables behind
  ``python -m repro bench``, appending schema-versioned JSONL records to
  ``benchmarks/warehouse/`` and gating CI against pinned baselines.

Everything here follows the tracer's attachment contract: null by
default, read-only, and bit-identical simulated costs on or off.
"""

from .profiler import ENV_FLAG as PROFILE_ENV_FLAG
from .profiler import PhaseProfiler
from .profiler import env_enabled as profile_env_enabled
from .registry import ENV_FLAG as METRICS_ENV_FLAG
from .registry import Metric, MetricsRegistry
from .registry import env_enabled as metrics_env_enabled
from .timing import TimedRun, best_of

__all__ = [
    "MetricsRegistry",
    "Metric",
    "PhaseProfiler",
    "TimedRun",
    "best_of",
    "METRICS_ENV_FLAG",
    "PROFILE_ENV_FLAG",
    "metrics_env_enabled",
    "profile_env_enabled",
]
