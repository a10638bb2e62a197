"""Observability for the simulated machine: tracing, congestion, exporters.

Turn it on per session (``Session(n, trace=True)``), per machine
(``machine.attach(Tracer())``) or process-wide (``REPRO_TRACE=1``);
the default is a null tracer whose only cost is one branch per
instrumented call site, with cost totals bit-identical either way.

* :class:`Tracer` / :class:`Span` — the span tree (see :mod:`.tracer`);
* :class:`CongestionAggregator` — per-link heatmaps and round histograms;
* :func:`to_chrome_trace` / :func:`to_jsonl` — file sinks;
* :func:`validate_chrome_trace` — trace-event format invariants.
"""

from .congestion import CongestionAggregator
from .export import (
    chrome_trace_events,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    validate_chrome_trace_file,
)
from .tracer import ENV_FLAG, Span, Tracer, maybe_span

__all__ = [
    "CongestionAggregator",
    "ENV_FLAG",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "maybe_span",
    "to_chrome_trace",
    "to_jsonl",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
]
