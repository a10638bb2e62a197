"""Experiment warehouse: declarative run tables, JSONL history, gates.

Benchmarks used to live in one hand-edited ``BENCH_wallclock.json``.
This module is the metricbench-style replacement:

* a **run table** declares runs as workload x size x feature flags x
  reps (built-in ``smoke``/``full`` tables, or a JSON file);
* :func:`run_table` executes each run on a fresh :class:`~repro.core.
  session.Session` with the metrics registry attached, optionally
  validating results against NumPy references (``--validate``);
* every run appends one schema-versioned JSONL record (git rev, params,
  wall seconds, simulated costs, metrics snapshot, and the host-time
  profile of one traced rep) to ``benchmarks/warehouse/runs.jsonl`` — a
  queryable, append-only history;
* :func:`pin_baselines` freezes the latest record per experiment key and
  :func:`compare` gates later runs against the pin: any simulated-tick
  increase is a regression (simulated costs are deterministic, so the
  gate is exact and CI-safe); wall-clock regressions gate only when a
  tolerance is given (host speed varies across machines);
* :func:`import_legacy` migrates the frozen ``BENCH_wallclock.json``
  history into warehouse records;
* :data:`SPEEDUP_TARGETS` holds the amortized-speedup floors a built-in
  table must reach (:func:`missed_targets`).

Driven by ``python -m repro bench`` (see ``repro bench --help``) and the
CI ``bench-smoke`` step.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..obs.tracer import Tracer
from .registry import MetricsRegistry
from .timing import best_of

#: Schema tag stamped on every warehouse record.
SCHEMA = "repro-bench-v1"

#: Schema tag for pinned baseline files.
BASELINE_SCHEMA = "repro-bench-baselines-v1"

#: Default records file name inside a warehouse directory.
RUNS_FILE = "runs.jsonl"

#: Default baselines file name inside a warehouse directory.
BASELINES_FILE = "baselines.json"

#: Relative simulated-tick slack for the regression gate.  Simulated
#: costs are deterministic, so this only absorbs float serialization.
SIM_REL_TOLERANCE = 1e-9


def default_warehouse_dir() -> str:
    """``benchmarks/warehouse/`` at the repo root (next to this package)."""
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(repo, "benchmarks", "warehouse")


#: The tracked records file that ``bench run`` appends to by default
#: (porcelain paths are relative to the repository root).
TRACKED_RUNS = "benchmarks/warehouse/" + RUNS_FILE


def git_rev() -> str:
    """The current git revision, or ``"unknown"`` outside a checkout.

    The revision gets a ``-dirty`` suffix when tracked files differ from
    it, so a record made from an uncommitted tree never passes for one
    made at its parent commit.  The tracked records file alone does not
    count: ``bench run`` appends to it itself.
    """

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )

    try:
        out = git("rev-parse", "--short", "HEAD")
        rev = out.stdout.strip()
        if out.returncode != 0 or not rev:
            return "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    changed = [
        line for line in status.stdout.splitlines()
        if line.strip() and line[3:] != TRACKED_RUNS
    ]
    return f"{rev}-dirty" if changed else rev


# ---------------------------------------------------------------------------
# run specs and tables
# ---------------------------------------------------------------------------

#: Feature-flag defaults; a spec's ``flags`` overrides these.
DEFAULT_FLAGS: Dict[str, Any] = {
    "plan_cache": True,
    "sanitize": False,
    "sanitize_sample": 1,
    "abft": False,
}

#: ``batch_<w>`` runs the ``repro.batch.sweep`` workload ``w``.
BATCH_WORKLOADS = ("batch_gaussian", "batch_simplex", "batch_matvec")

WORKLOADS = (
    "gaussian", "simplex", "matvec", "graph_bfs", "resilience",
) + BATCH_WORKLOADS

#: Problem sizes of the batch curve (``batch`` table) and of its CI
#: smoke points (``smoke`` table), per batch workload.
BATCH_SIZES = {
    "batch_gaussian": {"n": 24},
    "batch_simplex": {"n": 18, "m": 12},
    "batch_matvec": {"n": 32},
}
BATCH_SMOKE_SIZES = {
    "batch_gaussian": {"n": 12},
    "batch_simplex": {"n": 9, "m": 6},
    "batch_matvec": {"n": 16},
}


@dataclass
class RunSpec:
    """One declarative run: workload x params x feature flags x reps."""

    workload: str
    params: Dict[str, Any]
    flags: Dict[str, Any] = field(default_factory=dict)
    reps: int = 2

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"unknown workload {self.workload!r}; one of {WORKLOADS}"
            )
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        unknown = set(self.flags) - set(DEFAULT_FLAGS) - {"legacy", "n_runs"}
        if unknown:
            raise ConfigError(
                f"unknown feature flags {sorted(unknown)}; "
                f"known: {sorted(DEFAULT_FLAGS)}"
            )

    def resolved_flags(self) -> Dict[str, Any]:
        return dict(DEFAULT_FLAGS, **self.flags)


def record_key(workload: str, params: Dict, flags: Dict) -> str:
    """Canonical identity of one experiment (stable across runs)."""
    return json.dumps(
        {"workload": workload, "params": params, "flags": flags},
        sort_keys=True,
    )


#: Built-in run tables.  ``smoke`` is the CI gate: small cube, subsecond
#: runs, one spec per feature dimension, and the batch smoke points.
#: ``full`` is the recorded baseline scale (n=10 cubes), with every
#: cache, sanitizer and ABFT on/off pair.  ``batch`` is the batch curve:
#: amortized speedup of N stacked lanes over N scalar runs.
BUILTIN_TABLES: Dict[str, List[RunSpec]] = {
    "smoke": [
        RunSpec("gaussian", {"n_dims": 5, "order": 24}),
        RunSpec("gaussian", {"n_dims": 5, "order": 24},
                {"plan_cache": False}),
        RunSpec("gaussian", {"n_dims": 5, "order": 24}, {"sanitize": True}),
        RunSpec("gaussian", {"n_dims": 5, "order": 24},
                {"sanitize": True, "sanitize_sample": 4}),
        RunSpec("gaussian", {"n_dims": 5, "order": 24}, {"abft": True}),
        RunSpec("simplex", {"n_dims": 5, "m": 12, "n": 9}),
        RunSpec("matvec", {"n_dims": 5, "n": 32, "iters": 3}),
        RunSpec("batch_gaussian", {"n_dims": 5, "n": 12, "n_runs": 4}),
        RunSpec("graph_bfs", {"n_dims": 5, "nodes": 48}),
        *(
            RunSpec(workload, dict(size, n_dims=6, n_runs=n_runs))
            for workload, size in BATCH_SMOKE_SIZES.items()
            for n_runs in (1, 8)
        ),
    ],
    "full": [
        RunSpec("gaussian", {"n_dims": 10, "order": 127}, reps=3),
        RunSpec("gaussian", {"n_dims": 10, "order": 127},
                {"plan_cache": False}, reps=3),
        RunSpec("gaussian", {"n_dims": 10, "order": 127},
                {"sanitize": True}, reps=3),
        RunSpec("gaussian", {"n_dims": 10, "order": 127},
                {"sanitize": True, "sanitize_sample": 8}, reps=3),
        RunSpec("gaussian", {"n_dims": 10, "order": 127},
                {"abft": True}, reps=3),
        RunSpec("gaussian", {"n_dims": 10, "order": 255}, reps=3),
        RunSpec("gaussian", {"n_dims": 10, "order": 255},
                {"plan_cache": False}, reps=3),
        RunSpec("simplex", {"n_dims": 10, "m": 64, "n": 48}, reps=3),
        RunSpec("simplex", {"n_dims": 10, "m": 64, "n": 48},
                {"plan_cache": False}, reps=3),
        RunSpec("simplex", {"n_dims": 10, "m": 96, "n": 64}, reps=3),
        RunSpec("simplex", {"n_dims": 10, "m": 96, "n": 64},
                {"plan_cache": False}, reps=3),
        RunSpec("matvec", {"n_dims": 10, "n": 256, "iters": 4}, reps=3),
        RunSpec("matvec", {"n_dims": 10, "n": 256, "iters": 4},
                {"abft": True}, reps=3),
        RunSpec("batch_gaussian", {"n_dims": 8, "n": 16, "n_runs": 16},
                reps=3),
        RunSpec("graph_bfs", {"n_dims": 8, "nodes": 256}, reps=3),
    ],
    # Checkpoint-strategy comparison under one seeded fault plan: same
    # problem, same faults, only the checkpoint cost model varies.  The
    # n_dims=10 gaussian rows back the CI recovery gate (diskless and
    # incremental must save >= 3x cheaper than host gather).
    "resilience": [
        RunSpec("resilience",
                {"n_dims": 10, "size": 24, "workload": "gaussian",
                 "strategy": "host", "every": 2}),
        RunSpec("resilience",
                {"n_dims": 10, "size": 24, "workload": "gaussian",
                 "strategy": "diskless", "every": 2}),
        RunSpec("resilience",
                {"n_dims": 10, "size": 24, "workload": "gaussian",
                 "strategy": "incremental", "every": 2}),
        RunSpec("resilience",
                {"n_dims": 5, "size": 12, "workload": "gaussian",
                 "strategy": "host", "every": 2}),
        RunSpec("resilience",
                {"n_dims": 5, "size": 12, "workload": "gaussian",
                 "strategy": "diskless", "every": 2}),
        RunSpec("resilience",
                {"n_dims": 5, "size": 16, "workload": "matvec",
                 "strategy": "host", "every": 2}),
    ],
    "batch": [
        RunSpec(workload, dict(size, n_dims=10, n_runs=n_runs), reps=3)
        for workload, size in BATCH_SIZES.items()
        for n_runs in (1, 4, 16, 64)
    ],
}

#: Amortized-speedup floors per built-in table, as ``(workload, n_runs,
#: floor)``: ``bench run`` exits nonzero when a record misses one.  The
#: smoke table's floor (gaussian at N = 8, 2x) is checked by CI over the
#: smoke records instead.
SPEEDUP_TARGETS: Dict[str, List[Tuple[str, int, float]]] = {
    "batch": [("batch_gaussian", 64, 4.0)],
}


def load_table(name_or_path: str) -> List[RunSpec]:
    """A built-in table by name, or a JSON run-table file.

    A table file is ``{"runs": [{"workload", "params", "flags", "reps"},
    ...]}`` (or a bare list of such objects).
    """
    if name_or_path in BUILTIN_TABLES:
        return BUILTIN_TABLES[name_or_path]
    if not os.path.exists(name_or_path):
        raise ConfigError(
            f"unknown run table {name_or_path!r}: not a built-in "
            f"({sorted(BUILTIN_TABLES)}) and not a file"
        )
    with open(name_or_path) as fh:
        doc = json.load(fh)
    runs = doc.get("runs") if isinstance(doc, dict) else doc
    if not isinstance(runs, list):
        raise ConfigError(f"run table {name_or_path!r} has no 'runs' list")
    return [
        RunSpec(
            workload=entry["workload"],
            params=dict(entry.get("params", {})),
            flags=dict(entry.get("flags", {})),
            reps=int(entry.get("reps", 2)),
        )
        for entry in runs
    ]


# ---------------------------------------------------------------------------
# workload execution
# ---------------------------------------------------------------------------

def _scalar_workload(
    workload: str, params: Dict[str, Any]
) -> Tuple[Callable[[Any], Any], Callable[[Any], Tuple[bool, str]]]:
    """``(run(session) -> result, validate(result) -> (ok, detail))``."""
    from .. import workloads as W
    from ..algorithms import gaussian, matvec, simplex

    if workload == "gaussian":
        order = int(params["order"])
        A, b, _ = W.diagonally_dominant_system(order, seed=order)
        reference = np.linalg.solve(A, b)

        def run(session: Any) -> Any:
            return gaussian.solve(session.matrix(A), b)

        def validate(result: Any) -> Tuple[bool, str]:
            if np.allclose(result.x, reference, atol=1e-6):
                return True, ""
            err = float(np.abs(result.x - reference).max())
            return False, f"gaussian max error {err:.2e} vs numpy reference"

        return run, validate

    if workload == "simplex":
        m, n = int(params["m"]), int(params["n"])
        lp = W.feasible_lp(m, n, seed=m * 31 + n)

        def run(session: Any) -> Any:
            return simplex.solve(session.machine, lp.A, lp.b, lp.c)

        def validate(result: Any) -> Tuple[bool, str]:
            if result.status != "optimal":
                return False, f"simplex status {result.status!r}"
            x = np.asarray(result.x)
            if x.min(initial=0.0) < -1e-9:
                return False, "simplex solution violates x >= 0"
            slack = lp.A @ x - lp.b
            if slack.max(initial=0.0) > 1e-6:
                return False, "simplex solution violates A x <= b"
            return True, ""

        return run, validate

    if workload == "matvec":
        n = int(params["n"])
        iters = int(params.get("iters", 3))
        rng = np.random.default_rng(n)
        A = rng.integers(-3, 4, size=(n, n)).astype(np.float64)
        x0 = rng.integers(-3, 4, size=n).astype(np.float64)
        reference = x0
        for _ in range(iters):
            reference = A @ reference

        def run(session: Any) -> Any:
            dA = session.matrix(A)
            y = x0
            for _ in range(iters):
                y = matvec.matvec(dA, session.row_vector(y, dA)).y.to_numpy()
            return y

        def validate(result: Any) -> Tuple[bool, str]:
            # Integer-valued data keeps every reduction exact, so the
            # simulated result must equal the dense product bit-for-bit.
            if np.array_equal(np.asarray(result), reference):
                return True, ""
            return False, "matvec result differs from dense reference"

        return run, validate

    if workload == "graph_bfs":
        from ..algorithms import graph as G

        nodes = int(params["nodes"])
        degree = float(params.get("degree", 3.0))
        g = W.random_graph(nodes, degree, seed=nodes)
        reference = G.bfs_reference(g, 0)

        def run(session: Any) -> Any:
            return G.bfs(session, g, 0)

        def validate(result: Any) -> Tuple[bool, str]:
            # Integer levels: the sparse traversal must equal the serial
            # reference bit-for-bit.
            if np.array_equal(result.values, reference):
                return True, ""
            return False, "bfs levels differ from the serial reference"

        return run, validate

    raise ConfigError(f"no scalar runner for workload {workload!r}")


def _run_scalar_spec(spec: RunSpec, validate: bool) -> Dict[str, Any]:
    from ..core.session import Session

    flags = spec.resolved_flags()
    params = dict(spec.params)
    n_dims = int(params["n_dims"])
    run, check = _scalar_workload(spec.workload, params)

    sanitize: Any = False
    if flags["sanitize"]:
        from ..check.sanitizer import MachineSanitizer

        sanitize = MachineSanitizer(sample_every=int(flags["sanitize_sample"]))

    session = Session(
        n_dims,
        plan_cache=bool(flags["plan_cache"]),
        sanitize=sanitize,
        abft=bool(flags["abft"]),
        trace=False,
        metrics=MetricsRegistry(),
    )

    def reset() -> None:
        session.reset_counters()
        if session.abft is not None:
            session.abft.reset()

    run(session)  # warm-up: first-touch plan construction is not the metric
    timed = best_of(lambda: run(session), spec.reps, setup=reset)
    sim = session.snapshot().as_dict()
    metrics = session.metrics.collect()

    # The timed reps run untraced; one more rep, traced inside a ``run``
    # window, gives the record its host-time profile on both clocks.
    reset()
    tracer = session.machine.attach(Tracer())
    with tracer.span("run", "run"):
        run(session)

    validated: Optional[bool] = None
    detail = ""
    if validate:
        validated, detail = check(timed.result)

    return {
        "wall_s": {"best": timed.best, "mean": timed.mean},
        "sim": sim,
        "metrics": metrics,
        "profile": tracer.profile(top_n=8),
        "validated": validated,
        "validate_detail": detail,
    }


#: Lanes of a batch spec that also run, and are timed, on the scalar path.
SCALAR_LANES = 4


def _lane_mismatch(workload: str, got: Dict[str, Any],
                   want: Dict[str, Any]) -> str:
    """What differs between a batched lane and its scalar run, or ``""``.

    Compared: the result, the simulated ticks, every ``CostSnapshot``
    field and, for simplex, the status and the iteration count.
    """
    key = "y" if workload == "matvec" else "x"
    if not np.array_equal(got[key], want[key]):
        return "result"
    if got["time"] != want["time"]:
        return "ticks"
    if got["cost"].as_dict() != want["cost"].as_dict():
        return "cost snapshot"
    if workload == "simplex":
        for name in ("status", "iterations"):
            if got[name] != want[name]:
                return name
    return ""


def _run_batch_spec(spec: RunSpec, validate: bool) -> Dict[str, Any]:
    """``n_runs`` seeded runs of one workload as lanes of one batch.

    The first :data:`SCALAR_LANES` lanes also run on the scalar path (a
    fresh ``Session`` each, what ``sweep`` does for configurations it
    cannot stack); their mean best time per run over the batch's best
    time per run is the amortized speedup.  Validation requires every
    lane to be stacked and every sampled lane to equal its scalar run.
    """
    from ..batch import sweep
    from ..batch.sweep import _run_scalar, make_problem

    workload = spec.workload[len("batch_"):]
    params = dict(spec.params)
    n_runs = int(params.pop("n_runs"))
    grid = [dict(params, seed=seed) for seed in range(n_runs)]

    timed = best_of(
        lambda: sweep(workload, grid), spec.reps, warmup=True
    )
    outs = timed.result

    scalar_best, scalar_outs = [], []
    for lane in range(min(n_runs, SCALAR_LANES)):
        entry = {"params": grid[lane],
                 "data": make_problem(workload, grid[lane])}
        scalar_best.append(best_of(
            lambda: _run_scalar(workload, entry), spec.reps, warmup=True
        ).best)
        scalar_outs.append(entry["out"])
    scalar_per_run = float(np.mean(scalar_best))

    # Lane costs are vector-valued; the machine clock is the makespan
    # (slowest lane) and volume counters sum across lanes.
    sim = {
        "time": float(max(o["time"] for o in outs)),
        "flops": float(sum(o["cost"].flops for o in outs)),
        "elements_transferred": float(
            sum(o["cost"].elements_transferred for o in outs)
        ),
        "comm_rounds": float(sum(o["cost"].comm_rounds for o in outs)),
        "local_moves": float(sum(o["cost"].local_moves for o in outs)),
    }
    stacked = sum(1 for o in outs if o["batched"])
    metrics = {
        "batch.lanes": float(n_runs),
        "batch.stacked": float(stacked),
        "batch.scalar_per_run_s": scalar_per_run,
        "batch.amortized_speedup": scalar_per_run * n_runs / timed.best,
    }

    validated: Optional[bool] = None
    detail = ""
    if validate:
        problems = []
        if stacked != n_runs:
            problems.append(f"{n_runs - stacked} of {n_runs} lanes not stacked")
        for lane, want in enumerate(scalar_outs):
            diff = _lane_mismatch(workload, outs[lane], want)
            if diff:
                problems.append(
                    f"lane {lane} {diff} differs from its scalar run"
                )
        if workload == "gaussian":
            for lane, entry in enumerate(grid):
                data = make_problem("gaussian", entry)
                reference = np.linalg.solve(data["A"], data["b"])
                if not np.allclose(outs[lane]["x"], reference, atol=1e-6):
                    problems.append(
                        f"batch lane {lane} diverged from numpy reference"
                    )
                    break
        validated = not problems
        detail = "; ".join(problems)

    return {
        "wall_s": {"best": timed.best, "mean": timed.mean},
        "sim": sim,
        "metrics": metrics,
        "profile": None,
        "validated": validated,
        "validate_detail": detail,
    }


def _run_resilience_spec(spec: RunSpec, validate: bool) -> Dict[str, Any]:
    """A faulted resilient run under one checkpoint strategy.

    The fault plan is seeded, so every rep sees the identical fault
    sequence; each rep gets a *fresh* session and injector because a
    resilient run mutates both (degrades, promotions, consumed events).
    Validation compares the recovered result bit-for-bit against the
    fault-free baseline of the same problem.
    """
    from ..core.session import Session
    from ..faults import (
        CheckpointPolicy,
        CheckpointStore,
        FaultInjector,
        FaultPlan,
        run_resilient,
    )
    from ..faults.recovery import build_workload

    params = dict(spec.params)
    n_dims = int(params["n_dims"])
    size = int(params["size"])
    inner = str(params.get("workload", "gaussian"))
    strategy = str(params.get("strategy", "host"))
    every = int(params.get("every", 4))
    fault_seed = int(params.get("fault_seed", 0))
    prob_seed = int(params.get("prob_seed", 0))

    make = build_workload(inner, size, prob_seed, checkpoint_every=every)

    dry = Session(n_dims)
    baseline = np.asarray(make()(dry, CheckpointStore(dry)))
    horizon = 0.6 * max(dry.time, 1.0)
    plan_template = FaultPlan.random(
        n_dims,
        seed=fault_seed,
        horizon=horizon,
        link_kills=1,
        node_kills=1,
        drops=2,
    )

    def one_run() -> Tuple[Any, Any]:
        injector = FaultInjector(plan_template)
        session = Session(n_dims, faults=injector)
        policy = CheckpointPolicy(strategy=strategy, every=every)
        report = run_resilient(
            session, make(), max_recoveries=3, policy=policy
        )
        return session, report

    timed = best_of(one_run, spec.reps, warmup=True)
    session, report = timed.result
    ck = report.checkpoint or {}

    validated: Optional[bool] = None
    detail = ""
    if validate:
        validated = bool(
            report.recovered
            and report.result is not None
            and np.array_equal(np.asarray(report.result), baseline)
        )
        if not validated:
            detail = (
                report.error
                or "recovered result differs from fault-free baseline"
            )

    metrics = {
        "resilience.saves": float(ck.get("saves", 0)),
        "resilience.restores": float(ck.get("restores", 0)),
        "resilience.save_ticks": float(ck.get("save_ticks", 0.0)),
        "resilience.restore_ticks": float(ck.get("restore_ticks", 0.0)),
        "resilience.recovery_ticks": float(report.stats.recovery_ticks),
        "resilience.recoveries": float(report.recoveries),
        "resilience.promotions": float(report.promotions),
        "resilience.expansions": float(report.stats.expansions),
        "resilience.final_p": float(report.final_p),
        "resilience.fault_free_ticks": float(dry.time),
    }

    return {
        "wall_s": {"best": timed.best, "mean": timed.mean},
        "sim": session.snapshot().as_dict(),
        "metrics": metrics,
        "profile": None,
        "validated": validated,
        "validate_detail": detail,
    }


def run_spec(spec: RunSpec, validate: bool = False) -> Dict[str, Any]:
    """Execute one run spec; returns a schema-versioned warehouse record."""
    if spec.workload in BATCH_WORKLOADS:
        measured = _run_batch_spec(spec, validate)
    elif spec.workload == "resilience":
        measured = _run_resilience_spec(spec, validate)
    else:
        measured = _run_scalar_spec(spec, validate)
    record = {
        "schema": SCHEMA,
        "kind": "run",
        "recorded_unix": time.time(),
        "git_rev": git_rev(),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": spec.workload,
        "params": dict(spec.params),
        "flags": spec.resolved_flags(),
        "reps": spec.reps,
    }
    record.update(measured)
    validate_record(record)
    return record


def run_table(
    table: List[RunSpec],
    validate: bool = False,
    reps: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, Any]]:
    """Execute every spec in a table (``reps`` overrides each spec's)."""
    records = []
    for spec in table:
        if reps is not None:
            spec = RunSpec(spec.workload, spec.params, spec.flags, reps)
        record = run_spec(spec, validate=validate)
        records.append(record)
        if progress is not None:
            flag_bits = ",".join(
                f"{k}={v}" for k, v in sorted(spec.flags.items())
            ) or "defaults"
            status = {True: "ok", False: "FAIL", None: "-"}[
                record["validated"]
            ]
            speedup = record["metrics"].get("batch.amortized_speedup")
            progress(
                f"{spec.workload:<15s} {json.dumps(spec.params, sort_keys=True):<40s} "
                f"[{flag_bits}] wall {record['wall_s']['best'] * 1e3:8.2f} ms  "
                f"sim {record['sim']['time']:,.0f} ticks  validate {status}"
                + (f"  amortized {speedup:.2f}x" if speedup else "")
            )
    return records


def missed_targets(table: str, records: List[Dict[str, Any]]) -> List[str]:
    """One line per :data:`SPEEDUP_TARGETS` floor of ``table`` missed by
    ``records`` (a target with no record counts as missed)."""
    missed = []
    for workload, n_runs, floor in SPEEDUP_TARGETS.get(table, []):
        got = [
            r["metrics"]["batch.amortized_speedup"] for r in records
            if r["workload"] == workload and r["params"]["n_runs"] == n_runs
        ]
        if not got or min(got) < floor:
            seen = f"{min(got):.2f}x" if got else "no record"
            missed.append(
                f"{workload} N={n_runs}: {seen} amortized, target {floor:g}x"
            )
    return missed


# ---------------------------------------------------------------------------
# record schema + persistence
# ---------------------------------------------------------------------------

def validate_record(record: Any) -> None:
    """Schema-check one warehouse record; raises :class:`ConfigError`."""
    if not isinstance(record, dict):
        raise ConfigError(f"record is not an object: {type(record).__name__}")

    def fail(detail: str) -> None:
        raise ConfigError(f"invalid warehouse record: {detail}")

    if record.get("schema") != SCHEMA:
        fail(f"schema {record.get('schema')!r} != {SCHEMA!r}")
    if record.get("kind") not in ("run", "legacy-import", "chaos"):
        fail(f"unknown kind {record.get('kind')!r}")
    for key, kinds in (
        ("workload", str),
        ("params", dict),
        ("flags", dict),
        ("git_rev", str),
        ("recorded_unix", (int, float)),
        ("wall_s", dict),
        ("sim", dict),
    ):
        if not isinstance(record.get(key), kinds):
            fail(f"missing or mistyped field {key!r}")
    best = record["wall_s"].get("best")
    if not isinstance(best, (int, float)) or not best >= 0.0:
        fail(f"wall_s.best is not a non-negative number: {best!r}")
    sim_time = record["sim"].get("time")
    if not isinstance(sim_time, (int, float)) or not math.isfinite(sim_time):
        fail(f"sim.time is not a finite number: {sim_time!r}")
    if record["kind"] == "run":
        for field_name in (
            "flops", "elements_transferred", "comm_rounds", "local_moves"
        ):
            if not isinstance(record["sim"].get(field_name), (int, float)):
                fail(f"sim.{field_name} missing on a 'run' record")
    if record["kind"] in ("run", "chaos"):
        if not isinstance(record.get("metrics"), dict):
            fail(f"metrics snapshot missing on a {record['kind']!r} record")


def append_records(records: List[Dict[str, Any]], path: str) -> int:
    """Append records to a JSONL file (validated first); returns the count."""
    for record in records:
        validate_record(record)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def load_records(path: str) -> List[Dict[str, Any]]:
    """Read a warehouse JSONL file (every record schema-checked)."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: not JSON: {exc}") from None
            validate_record(record)
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# baselines + regression gate
# ---------------------------------------------------------------------------

def _latest_by_key(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    latest: Dict[str, Dict[str, Any]] = {}
    for record in records:
        key = record_key(
            record["workload"], record["params"], record["flags"]
        )
        latest[key] = record  # file order: later lines win
    return latest


def pin_baselines(records: List[Dict[str, Any]], path: str) -> Dict[str, Any]:
    """Freeze the latest record per experiment key as the regression pin.

    Only fresh ``run`` records pin; ``legacy-import`` history stays in
    the runs file for reference but can never gate (nothing ever runs
    under a legacy key, so pinning one would just report as missing
    forever).
    """
    fresh = [r for r in records if r.get("kind") == "run"]
    entries = {}
    for key, record in sorted(_latest_by_key(fresh).items()):
        entries[key] = {
            "workload": record["workload"],
            "params": record["params"],
            "flags": record["flags"],
            "sim_time": record["sim"]["time"],
            "wall_best_s": record["wall_s"]["best"],
            "git_rev": record["git_rev"],
            "recorded_unix": record["recorded_unix"],
        }
    doc = {
        "schema": BASELINE_SCHEMA,
        "pinned_unix": time.time(),
        "git_rev": git_rev(),
        "entries": entries,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return doc


def load_baselines(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != BASELINE_SCHEMA:
        raise ConfigError(
            f"{path} is not a baselines file "
            f"(schema {BASELINE_SCHEMA!r} expected)"
        )
    return doc


def compare(
    records: List[Dict[str, Any]],
    baselines: Dict[str, Any],
    wall_tolerance: Optional[float] = None,
) -> Dict[str, Any]:
    """Gate the latest records against pinned baselines.

    Simulated ticks are deterministic, so any increase beyond float
    serialization slack is a regression.  Wall seconds gate only when
    ``wall_tolerance`` is given (e.g. ``0.25`` = +25% allowed): host
    speed differs across machines, so the wall gate is opt-in.
    """
    entries = baselines.get("entries", {})
    latest = _latest_by_key(records)
    regressions: List[Dict[str, Any]] = []
    improvements: List[Dict[str, Any]] = []
    compared = 0
    for key, record in sorted(latest.items()):
        base = entries.get(key)
        if base is None:
            continue
        compared += 1
        label = f"{record['workload']} {json.dumps(record['params'], sort_keys=True)}"
        sim_now, sim_pin = record["sim"]["time"], base["sim_time"]
        if sim_now > sim_pin * (1.0 + SIM_REL_TOLERANCE):
            regressions.append(
                {
                    "key": key,
                    "label": label,
                    "kind": "sim",
                    "observed": sim_now,
                    "pinned": sim_pin,
                    "ratio": sim_now / sim_pin if sim_pin else float("inf"),
                }
            )
        elif sim_now < sim_pin * (1.0 - SIM_REL_TOLERANCE):
            improvements.append(
                {"key": key, "label": label, "kind": "sim",
                 "observed": sim_now, "pinned": sim_pin}
            )
        if wall_tolerance is not None:
            wall_now = record["wall_s"]["best"]
            wall_pin = base["wall_best_s"]
            if wall_now > wall_pin * (1.0 + wall_tolerance):
                regressions.append(
                    {
                        "key": key,
                        "label": label,
                        "kind": "wall",
                        "observed": wall_now,
                        "pinned": wall_pin,
                        "ratio": (
                            wall_now / wall_pin if wall_pin else float("inf")
                        ),
                    }
                )
    new_keys = sorted(set(latest) - set(entries))
    missing_keys = sorted(set(entries) - set(latest))
    return {
        "compared": compared,
        "regressions": regressions,
        "improvements": improvements,
        "new": new_keys,
        "missing": missing_keys,
        "passed": not regressions,
    }


# ---------------------------------------------------------------------------
# legacy migration
# ---------------------------------------------------------------------------

def import_legacy(path: str) -> List[Dict[str, Any]]:
    """Convert a ``BENCH_wallclock.json`` history into warehouse records.

    Every measured configuration becomes one ``legacy-import`` record;
    the source experiment name lands in ``flags["legacy"]`` so legacy
    keys can never collide with (or gate) fresh warehouse runs.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} is not a benchmark report object")

    stamp = time.time()

    def make(workload, params, flags, wall_best, sim_time, reps=None):
        record = {
            "schema": SCHEMA,
            "kind": "legacy-import",
            "recorded_unix": stamp,
            "git_rev": git_rev(),
            "host": {"source": os.path.basename(path)},
            "workload": workload,
            "params": dict(params),
            "flags": flags,
            "reps": reps,
            "wall_s": {"best": wall_best, "mean": None},
            "sim": {"time": sim_time},
            "metrics": {},
        }
        validate_record(record)
        return record

    records: List[Dict[str, Any]] = []
    for section in ("results", "scaling"):
        for entry in doc.get(section, []) or []:
            snap_time = float(entry.get("snapshot", {}).get("time", 0.0))
            for on, wall_key in ((True, "cache_on_s"), (False, "cache_off_s")):
                records.append(
                    make(
                        entry["workload"],
                        entry["params"],
                        {"legacy": entry.get("experiment", section),
                         "plan_cache": on},
                        float(entry[wall_key]),
                        snap_time,
                        entry.get("reps"),
                    )
                )
    sanitizer = doc.get("sanitizer_overhead")
    if sanitizer:
        snap_time = float(sanitizer.get("snapshot", {}).get("time", 0.0))
        for on, wall_key in ((True, "sanitize_on_s"), (False, "sanitize_off_s")):
            records.append(
                make(
                    sanitizer.get("workload", "gaussian"),
                    sanitizer["params"],
                    {"legacy": "sanitizer-overhead", "sanitize": on},
                    float(sanitizer[wall_key]),
                    snap_time,
                    sanitizer.get("reps"),
                )
            )
    abft = doc.get("abft_overhead")
    if abft:
        for workload in ("gaussian", "matvec"):
            entry = abft.get(workload)
            if not entry:
                continue
            for on, wall_key, sim_key in (
                (True, "abft_on_s", "simulated_on"),
                (False, "abft_off_s", "simulated_off"),
            ):
                records.append(
                    make(
                        workload,
                        abft["params"],
                        {"legacy": "abft-overhead", "abft": on},
                        float(entry[wall_key]),
                        float(entry[sim_key]),
                        abft.get("reps"),
                    )
                )
    batch = doc.get("batch_speedup")
    if batch:
        for point in batch.get("curve", []) or []:
            records.append(
                make(
                    point["workload"],
                    point["params"],
                    {"legacy": "batch-hypervisor"},
                    float(point["batch_s"]),
                    0.0,
                    point.get("reps"),
                )
            )
    return records


__all__ = [
    "SCHEMA",
    "BASELINE_SCHEMA",
    "RUNS_FILE",
    "BASELINES_FILE",
    "RunSpec",
    "BUILTIN_TABLES",
    "SPEEDUP_TARGETS",
    "default_warehouse_dir",
    "git_rev",
    "record_key",
    "load_table",
    "run_spec",
    "run_table",
    "missed_targets",
    "validate_record",
    "append_records",
    "load_records",
    "pin_baselines",
    "load_baselines",
    "compare",
    "import_legacy",
]
