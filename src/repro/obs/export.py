"""Trace sinks: structured JSONL log and Chrome trace-event JSON.

Three ways to look at one traced run:

* the in-memory span tree (``tracer.roots`` — see :mod:`.tracer`), for
  tests and interactive queries;
* :func:`to_jsonl` — one JSON object per line (spans in close order plus
  instant events), for scripts and log pipelines;
* :func:`to_chrome_trace` — the Chrome trace-event format, loadable in
  ``chrome://tracing`` or Perfetto (https://ui.perfetto.dev): spans become
  matched ``B``/``E`` duration events whose clock is *simulated ticks*
  (rendered as microseconds by the viewers); each ``B`` event's args
  carry the span's host seconds as ``wall_s``.

:func:`validate_chrome_trace` checks the format invariants the CI smoke
job relies on: every event well-formed, timestamps monotonically
non-decreasing per thread, and every ``B`` matched by an ``E`` of the same
name at the same nesting depth.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Union

from .tracer import Span, Tracer
from ..errors import ConfigError

PathOrFile = Union[str, "IO[str]"]


def _open_for_write(dest: PathOrFile):
    if hasattr(dest, "write"):
        return dest, False
    return open(dest, "w"), True


# ---------------------------------------------------------------------------
# JSONL structured event log
# ---------------------------------------------------------------------------

def to_jsonl(tracer: Tracer, dest: PathOrFile) -> int:
    """Write the tracer's event log as JSON Lines; returns the line count.

    The first line is a ``meta`` record describing the machine; every
    following line is a span (in close order) or an instant event.  Span
    records carry the full cost delta, the host seconds (``wall_s``),
    plan-cache hits/misses and the ``(dim, congestion)`` of every direct
    communication round.
    """
    fh, owned = _open_for_write(dest)
    try:
        lines = 0
        machine = tracer.machine
        meta: Dict[str, Any] = {"type": "meta", "schema": "repro-trace-v1"}
        if machine is not None:
            meta.update(
                p=machine.p, n=machine.n, cost_model=repr(machine.cost_model)
            )
        fh.write(json.dumps(meta) + "\n")
        lines += 1
        for event in tracer.events:
            fh.write(json.dumps(event) + "\n")
            lines += 1
        return lines
    finally:
        if owned:
            fh.close()


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------

def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The tracer's span tree as a Chrome trace-event list.

    Every span becomes a ``B``/``E`` pair on one thread of one process;
    ``ts`` is the simulated tick count at open/close and ``args.wall_s``
    the span's host seconds.  A depth-first walk of the tree emits
    properly nested, monotonically non-decreasing timestamps because
    simulated time never runs backwards.
    """
    machine = tracer.machine
    label = (
        f"repro simulated hypercube (p={machine.p}, n={machine.n})"
        if machine is not None
        else "repro simulated hypercube"
    )
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": label},
        },
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "thread_name",
            "args": {"name": "simulated ticks"},
        },
    ]

    def emit(span: Span) -> None:
        if not span.closed:
            return
        args: Dict[str, Any] = dict(span.attrs)
        args.update(span.cost.as_dict())
        args["wall_s"] = span.wall
        if span.plan_hits or span.plan_misses:
            args["plan_hits"] = span.plan_hits
            args["plan_misses"] = span.plan_misses
        if span.rounds:
            args["max_congestion"] = max(c for _, c in span.rounds)
        events.append(
            {
                "ph": "B",
                "pid": 0,
                "tid": 0,
                "name": span.name,
                "cat": span.category,
                "ts": span.start_ts,
                "args": args,
            }
        )
        for child in span.children:
            emit(child)
        events.append(
            {
                "ph": "E",
                "pid": 0,
                "tid": 0,
                "name": span.name,
                "cat": span.category,
                "ts": span.end_ts,
            }
        )

    for root in tracer.roots:
        emit(root)
    # Instant events (fault kills, drops, degrade/restore markers) go on
    # their own thread: the event log is time-ordered on its own, but its
    # timestamps interleave with the span tree's depth-first order.
    instants = [e for e in tracer.events if e.get("type") == "instant"]
    if instants:
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": 1,
                "name": "thread_name",
                "args": {"name": "instant events"},
            }
        )
        for e in instants:
            events.append(
                {
                    "ph": "i",
                    "pid": 0,
                    "tid": 1,
                    "name": e["name"],
                    "cat": e["category"],
                    "ts": e["ts"],
                    "s": "t",
                    "args": dict(e.get("attrs", {})),
                }
            )
    return events


def to_chrome_trace(
    tracer: Tracer,
    dest: PathOrFile,
    extra_events: Any = None,
) -> Dict[str, Any]:
    """Write (and return) the Chrome trace-event JSON document.

    ``extra_events`` appends additional trace events — e.g. the counter
    (``"C"``) tracks from :meth:`repro.metrics.MetricsRegistry.
    counter_track_events` — after the span tree.
    """
    events = chrome_trace_events(tracer)
    if extra_events:
        events = events + list(extra_events)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated ticks", "schema": "repro-trace-v1"},
    }
    fh, owned = _open_for_write(dest)
    try:
        json.dump(document, fh, indent=1)
    finally:
        if owned:
            fh.close()
    return document


# ---------------------------------------------------------------------------
# validation (used by tests and the CI smoke-trace job)
# ---------------------------------------------------------------------------

def validate_chrome_trace(document: Any) -> Dict[str, int]:
    """Check trace-event invariants; raises ``ValueError`` on violation.

    Validated per ``(pid, tid)`` thread: timestamps monotonically
    non-decreasing, every ``B`` closed by an ``E`` with the same name (LIFO
    nesting), no stray ``E``.  Instant (``i``) and counter (``C``) events
    only need a name and a monotonic timestamp.  Returns ``{"events": ...,
    "spans": ..., "instants": ..., "counters": ...}``.
    """
    if isinstance(document, dict):
        events = document.get("traceEvents")
        if not isinstance(events, list):
            raise ConfigError("trace document has no 'traceEvents' list")
    elif isinstance(document, list):
        events = document
    else:
        raise ConfigError(f"not a trace document: {type(document).__name__}")

    last_ts: Dict[Any, float] = {}
    stacks: Dict[Any, List[str]] = {}
    spans = 0
    instants = 0
    counters = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event:
            raise ConfigError(f"event {i} is not a trace event: {event!r}")
        ph = event["ph"]
        if ph == "M":
            continue
        if ph not in ("B", "E", "i", "C"):
            raise ConfigError(f"event {i}: unexpected phase {ph!r}")
        if "name" not in event or "ts" not in event:
            raise ConfigError(f"event {i}: missing 'name' or 'ts'")
        ts = event["ts"]
        if not isinstance(ts, (int, float)):
            raise ConfigError(f"event {i}: non-numeric ts {ts!r}")
        thread = (event.get("pid", 0), event.get("tid", 0))
        if ts < last_ts.get(thread, float("-inf")):
            raise ConfigError(
                f"event {i}: ts {ts} goes backwards on thread {thread}"
            )
        last_ts[thread] = ts
        if ph == "i":
            instants += 1
            continue
        if ph == "C":
            counters += 1
            continue
        stack = stacks.setdefault(thread, [])
        if ph == "B":
            stack.append(event["name"])
        else:
            if not stack:
                raise ConfigError(f"event {i}: 'E' with no open 'B'")
            opened = stack.pop()
            if opened != event["name"]:
                raise ConfigError(
                    f"event {i}: 'E' for {event['name']!r} closes "
                    f"open span {opened!r}"
                )
            spans += 1
    for thread, stack in stacks.items():
        if stack:
            raise ConfigError(
                f"thread {thread}: unclosed spans at end of trace: {stack}"
            )
    return {
        "events": len(events),
        "spans": spans,
        "instants": instants,
        "counters": counters,
    }


def validate_chrome_trace_file(path: str) -> Dict[str, int]:
    """Load ``path`` and :func:`validate_chrome_trace` it."""
    with open(path) as fh:
        return validate_chrome_trace(json.load(fh))
