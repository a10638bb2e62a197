"""The traced pass: per-layer spans and counters, hooked from outside repro.

Each hook target is named by module and qualified name and resolved when
:meth:`Tracer.install` runs.  A target that no longer exists is listed in
``Tracer.unhooked`` and the run goes on, so a later change that deletes or
renames a layer does not need to edit the benchmark.  A hooked function is
replaced wherever ``sys.modules["repro..."]`` holds it, which covers
from-imports; a hooked method is replaced on its class.

Wrappers only *read* the machine counters.  For every call they record
inclusive host time, self time (own duration minus wrapped child calls)
and the simulated-clock delta; spans of the first :data:`SPAN_REQUESTS`
requests are kept in memory and written as JSON lines at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Requests (counted from the first traced one) whose spans are kept.
SPAN_REQUESTS = 2

#: Phases reported by name; other phases still get spans.
PHASES = (
    "pivot-search", "row-swap", "update", "back-substitution",
    "entering", "ratio-test", "pivot", "matvec", "bfs", "spmv",
    "abft-maintain", "abft-verify",
)
PRIMITIVES = ("extract", "insert", "distribute", "reduce", "reduce_loc",
              "rank1_update")
COLLECTIVES = ("broadcast", "reduce_all", "reduce_all_loc")


@dataclass(frozen=True)
class Hook:
    """One hook target; ``record`` names the metric group it adds to."""

    record: str
    module: str
    qualname: str  # "func", "Class.method", or "Class.*" for public methods
    ticks: bool = False  # read the simulated clock around each call


HOOKS: Tuple[Hook, ...] = (
    Hook("phase", "repro.machine.hypercube", "Hypercube.phase"),
    *(Hook(f"primitives.{op}", "repro.core.primitives", op, ticks=True)
      for op in PRIMITIVES),
    *(Hook(f"collectives.{op}", "repro.comm.collectives", op, ticks=True)
      for op in COLLECTIVES),
    *(Hook("remap", "repro.embeddings.remap", name, ticks=True)
      for name in ("remap_vector", "redistribute_matrix", "transpose")),
    Hook("router", "repro.machine.router", "Router.simulate", ticks=True),
    Hook("plans.memo", "repro.machine.plans", "PlanCache.memo"),
    Hook("hypercube.exchange", "repro.machine.hypercube", "Hypercube.exchange"),
    *(Hook("hypercube.charge", "repro.machine.hypercube", f"Hypercube.{name}")
      for name in ("charge_comm_round", "charge_flops", "charge_local")),
    Hook("pvar", "repro.machine.pvar", "PVar.*"),
    Hook("sparse.spmv", "repro.sparse.primitives", "spmv", ticks=True),
    Hook("sparse.spgemm", "repro.sparse.primitives", "spgemm", ticks=True),
    *(Hook("batch.solve", "repro.batch.algorithms", name)
      for name in ("gaussian_solve", "simplex_solve", "matvec", "vecmat")),
    *(Hook("batch.lanewise", "repro.batch.lanewise", name)
      for name in ("lane_extract", "lane_insert", "lane_get_global",
                   "lane_get_global_matrix", "merge_lanes")),
    Hook("abft.protect", "repro.abft.manager", "ABFTManager.protect"),
    Hook("abft.guard", "repro.abft.manager", "ABFTManager.guard_many"),
    # The two byte-sum kernels: ABFT panels and checkpoint dirty blocks.
    Hook("checksum", "repro.abft.panels", "checksum_panels"),
    Hook("checksum", "repro.machine.dirty", "block_signatures"),
    Hook("checkpoint.save", "repro.faults.checkpoint", "CheckpointStore.save",
         ticks=True),
    Hook("checkpoint.restore", "repro.faults.checkpoint",
         "CheckpointStore.restore", ticks=True),
)

def _metric_units() -> Dict[str, str]:
    """Every per-layer metric of the traced pass, with its unit."""
    units: Dict[str, str] = {}

    def group(prefix: str, ticks: bool = True) -> None:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        if ticks:
            units[f"{prefix}.sim_ticks"] = "ticks"

    for name in PHASES:
        units[f"phase.{name}.self_s"] = "s"
        units[f"phase.{name}.sim_ticks"] = "ticks"
    for op in PRIMITIVES:
        group(f"primitives.{op}")
    for op in COLLECTIVES:
        group(f"collectives.{op}")
    for prefix in ("remap", "router", "sparse.spmv", "checkpoint.save",
                   "checkpoint.restore"):
        group(prefix)
    for prefix in ("hypercube.exchange", "hypercube.charge", "pvar",
                   "abft.protect", "abft.guard", "checksum"):
        group(prefix, ticks=False)
    units.update({
        "primitives.model_mismatch_calls": "count",
        "router.max_congestion": "elements",
        # Plan hits and misses come from the machine counters (workload
        # extras); only the build time needs a hook.
        "plans.hits": "count",
        "plans.misses": "count",
        "plans.hit_ratio": "fraction",
        "plans.build_s": "s",
        "machine.comm_rounds": "rounds",
        "machine.elements_transferred": "elements",
        "machine.flops": "flops",
        "machine.local_moves": "elements",
        "pvar.bytes_computed": "bytes",
        "batch.stacked_frac": "fraction",
        "batch.solve.self_s": "s",
        "batch.lanewise.self_s": "s",
        "abft.detected": "count",
        "abft.corrected": "count",
        "faults.recoveries": "count",
        "faults.retries": "count",
        "faults.detour_rounds": "rounds",
        "analysis.pt_over_serial": "ratio",
        "trace.overhead": "ratio",
        "trace.coverage": "fraction",
        "trace.unhooked": "count",
    })
    return units


#: Unit of every per-layer metric the traced pass reports.
METRIC_UNITS = _metric_units()


# Dunders of a ``Class.*`` target that are not operations.
_NOT_OPERATIONS = {"__init__", "__repr__"}


def _counters(obj: Any) -> Any:
    """The cost counters of whatever machine ``obj`` belongs to."""
    counters = getattr(obj, "counters", None)
    if counters is None:
        machine = getattr(obj, "machine", None)
        if machine is None:
            machine = getattr(getattr(obj, "session", None), "machine", None)
        counters = getattr(machine, "counters", None)
    return counters


def _ticks(counters: Any) -> float:
    """Simulated time so far; batched machines keep one clock per lane."""
    if counters is None:
        return 0.0
    t = counters.time
    return t if isinstance(t, float) else float(np.sum(t))


class _Frame:
    """One open span; ``child`` is the time its self time excludes."""

    __slots__ = ("child", "span", "phase")

    def __init__(self, span: Optional[int], phase: bool = False) -> None:
        self.child = 0.0
        self.span = span
        self.phase = phase


class Tracer:
    """Installs the hooks and accumulates per-request layer statistics.

    ``model_check`` turns on the conformance count: every traced
    ``extract`` and ``reduce`` charge is compared with
    :class:`repro.analysis.models.PrimitiveCosts` for its embedding.
    """

    def __init__(self, model_check: bool = False) -> None:
        self.model_check = model_check
        self.unhooked: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.active = False  # inside a traced request
        self.requests = 0
        # Two views of the open spans.  A phase is a context, not a layer
        # call: a call's self time excludes only the hooked calls below it
        # (phases are transparent), while a phase's self time excludes
        # every span directly below it.
        self._stack: List[_Frame] = []
        self._calls: List[_Frame] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._open_phases: set = set()
        # record -> [calls, self seconds, simulated ticks]
        self.records: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.totals: Dict[str, float] = defaultdict(float)
        self._request_max: Dict[str, float] = {}
        self.covered = 0.0
        self.mismatches = 0
        self.first_mismatch: Optional[str] = None
        self.spans: List[dict] = []
        self._epoch = time.perf_counter()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for hook in HOOKS:
            try:
                module = importlib.import_module(hook.module)
                owner_name, _, attr = hook.qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                if attr == "*":
                    targets = [
                        name for name, value in vars(owner).items()
                        if inspect.isfunction(value) and name not in _NOT_OPERATIONS
                        and (not name.startswith("_") or name.endswith("__"))
                    ]
                else:
                    getattr(owner, attr)
                    targets = [attr]
            except (ImportError, AttributeError):
                self.unhooked.append(f"{hook.module}:{hook.qualname}")
                continue
            for attr in targets:
                orig = getattr(owner, attr)
                if hook.record == "phase":
                    wrapper = self._wrap_phase(orig)
                elif hook.record == "plans.memo":
                    wrapper = self._wrap_memo(hook, orig)
                else:
                    wrapper = self._wrap(hook, orig)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                else:
                    self._patch_aliases(orig, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_aliases(self, orig: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patch(module, attr, wrapper)

    # -- requests ---------------------------------------------------------------

    def begin_request(self) -> None:
        self.active = True
        self._request_max = {}
        self._stack.append(_Frame(self._open_span("request", None)))

    def end_request(self) -> None:
        self._close_span(self._stack.pop())
        for key, value in self._request_max.items():
            self.totals[key] += value
        self.active = False
        self.requests += 1

    # -- spans --------------------------------------------------------------------

    def _open_span(self, name: str, parent: Optional[_Frame]) -> Optional[int]:
        if self.requests >= SPAN_REQUESTS:
            return None
        self.spans.append({
            "request": self.requests,
            "id": len(self.spans),
            "parent": parent.span if parent is not None else None,
            "name": name,
            "start": time.perf_counter() - self._epoch,
        })
        return len(self.spans) - 1

    def _close_span(self, frame: _Frame) -> None:
        if frame.span is not None:
            self.spans[frame.span]["end"] = time.perf_counter() - self._epoch

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- wrappers -------------------------------------------------------------------

    def _wrap(self, hook: Hook, orig: Callable) -> Callable:
        tracer = self
        record = hook.record
        after = self._after_hook(record, orig)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            return tracer._call(record, hook.ticks, after, orig, args, kwargs)

        functools.update_wrapper(wrapper, orig)
        return wrapper

    def _call(self, record, ticks, after, orig, args, kwargs):
        stack, calls = self._stack, self._calls
        frame = _Frame(self._open_span(record, stack[-1]))
        depth = self._depth
        outer = depth[record] == 0
        counters = _counters(args[0]) if ticks and args else None
        t0 = _ticks(counters)
        depth[record] += 1
        stack.append(frame)
        calls.append(frame)
        start = time.perf_counter()
        try:
            result = orig(*args, **kwargs)
        finally:
            # Accounted even when the call raises: fault recovery unwinds
            # through many hooked frames.
            dur = time.perf_counter() - start
            stack.pop()
            calls.pop()
            depth[record] -= 1
            self._close_span(frame)
            if stack[-1].phase:
                stack[-1].child += dur
            if calls:
                calls[-1].child += dur
            else:
                self.covered += dur  # outermost hooked call of the request
            rec = self.records[record]
            rec[0] += 1
            rec[1] += dur - frame.child
            charged = _ticks(counters) - t0
            if outer:
                rec[2] += charged
        if after is not None:
            after(args, kwargs, result, dur, charged, outer)
        return result

    def _wrap_phase(self, orig: Callable) -> Callable:
        tracer = self

        def phase(machine, name):
            cm = orig(machine, name)
            if not tracer.active or name in tracer._open_phases:
                return cm
            return _TracedPhase(tracer, cm, machine, name)

        functools.update_wrapper(phase, orig)
        return phase

    def _wrap_memo(self, hook: Hook, orig: Callable) -> Callable:
        """``PlanCache.memo``: a call during which the cache's miss counter
        moved built a plan.  Only the outermost such call adds its time to
        ``plans.build_s``, so a plan built inside another plan's build is
        not counted twice."""
        tracer = self
        record = hook.record

        def memo(cache, *args, **kwargs):
            if not tracer.active:
                return orig(cache, *args, **kwargs)
            counters = cache.machine.counters
            misses = counters.plan_misses
            outer = tracer._depth[record] == 0
            start = time.perf_counter()
            try:
                return tracer._call(record, False, None, orig,
                                    (cache, *args), kwargs)
            finally:
                if outer and counters.plan_misses != misses:
                    tracer.totals["plans.build_s"] += time.perf_counter() - start

        functools.update_wrapper(memo, orig)
        return memo

    # -- per-record post-call statistics ------------------------------------------

    def _after_hook(self, record: str, orig: Callable):
        if record == "router":
            return self._after_router
        if record == "pvar":
            return self._after_pvar
        if self.model_check and record in ("primitives.extract",
                                           "primitives.reduce"):
            return self._model_checker(record, inspect.signature(orig))
        return None

    def _after_router(self, args, kwargs, result, dur, charged, outer):
        key = "router.max_congestion"
        self._request_max[key] = max(self._request_max.get(key, 0.0),
                                     float(result.max_congestion))

    def _after_pvar(self, args, kwargs, result, dur, charged, outer):
        if outer:
            data = getattr(result, "data", None)
            if isinstance(data, np.ndarray):
                self.totals["pvar.bytes_computed"] += data.nbytes

    def _model_checker(self, record: str, signature: inspect.Signature):
        from repro.analysis.models import PrimitiveCosts

        op = record.split(".", 1)[1]

        def check(args, kwargs, result, dur, charged, outer):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            costs = PrimitiveCosts.for_embedding(a["emb"])
            if op == "extract":
                predicted = costs.extract(a["axis"], a["replicate"])
            else:
                predicted = costs.reduce(a["axis"])
            if abs(charged - predicted) > 1e-9 * max(1.0, abs(predicted)):
                self.mismatches += 1
                if self.first_mismatch is None:
                    self.first_mismatch = (
                        f"{op}(axis={a['axis']}) on {a['emb'].R}x{a['emb'].C} "
                        f"({a['emb'].Pr}x{a['emb'].Pc} grid): charged "
                        f"{charged!r} ticks, model {predicted!r}"
                    )

        return check

    # -- results ------------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-request means of every hook-derived metric."""
        n = max(self.requests, 1)
        rec = self.records
        out: Dict[str, float] = {}

        def group(prefix: str, record: str, ticks: bool = True) -> None:
            calls, self_s, sim = rec.get(record, (0, 0.0, 0.0))
            out[f"{prefix}.calls"] = calls / n
            out[f"{prefix}.self_s"] = self_s / n
            if ticks:
                out[f"{prefix}.sim_ticks"] = sim / n

        for name in PHASES:
            _calls, self_s, sim = rec.get(f"phase.{name}", (0, 0.0, 0.0))
            out[f"phase.{name}.self_s"] = self_s / n
            out[f"phase.{name}.sim_ticks"] = sim / n
        for op in PRIMITIVES:
            group(f"primitives.{op}", f"primitives.{op}")
        out["primitives.model_mismatch_calls"] = float(self.mismatches)
        for op in COLLECTIVES:
            group(f"collectives.{op}", f"collectives.{op}")
        group("remap", "remap")
        group("router", "router")
        out["router.max_congestion"] = self.totals["router.max_congestion"] / n
        out["plans.build_s"] = self.totals["plans.build_s"] / n
        group("hypercube.exchange", "hypercube.exchange", ticks=False)
        group("hypercube.charge", "hypercube.charge", ticks=False)
        group("pvar", "pvar", ticks=False)
        out["pvar.bytes_computed"] = self.totals["pvar.bytes_computed"] / n
        group("sparse.spmv", "sparse.spmv")
        out["batch.solve.self_s"] = rec.get("batch.solve", (0, 0.0))[1] / n
        out["batch.lanewise.self_s"] = rec.get("batch.lanewise", (0, 0.0))[1] / n
        group("abft.protect", "abft.protect", ticks=False)
        group("abft.guard", "abft.guard", ticks=False)
        group("checksum", "checksum", ticks=False)
        group("checkpoint.save", "checkpoint.save")
        group("checkpoint.restore", "checkpoint.restore")
        out["trace.unhooked"] = float(len(self.unhooked))
        return out


class _TracedPhase:
    """Context manager timing one ``Hypercube.phase`` block."""

    def __init__(self, tracer: Tracer, cm: Any, machine: Any, name: str) -> None:
        self.tracer = tracer
        self.cm = cm
        self.machine = machine
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        value = self.cm.__enter__()
        tracer._open_phases.add(self.name)
        stack = tracer._stack
        self.frame = _Frame(tracer._open_span(self.name, stack[-1]), phase=True)
        stack.append(self.frame)
        self.t0 = _ticks(self.machine.counters)
        self.start = time.perf_counter()
        return value

    def __exit__(self, *exc):
        tracer = self.tracer
        dur = time.perf_counter() - self.start
        stack = tracer._stack
        stack.pop()
        tracer._open_phases.discard(self.name)
        tracer._close_span(self.frame)
        if stack[-1].phase:
            stack[-1].child += dur
        rec = tracer.records[f"phase.{self.name}"]
        rec[0] += 1
        rec[1] += dur - self.frame.child
        rec[2] += _ticks(self.machine.counters) - self.t0
        return self.cm.__exit__(*exc)
