"""The six closed-loop workloads of the end-to-end benchmark.

Each workload turns ``(seed, index)`` into one request *before* the request
timer starts -- inputs, fault plan and reference answer -- then ``run``
sends it through repro's public entry points and ``check`` compares the
output with the reference.  Imports of repro subsystems stay inside the
functions, so a worker loads only what its workload needs (dense runs
never import ``repro.sparse``; runs without faults never import
``repro.faults``).

Why these six: ``gaussian-dense`` is the paper's headline application in
its optimal regime (m > p lg p); ``simplex-cold`` uses the same layers with
a cold plan cache and pays session construction; ``matvec-comm`` sits below
the threshold, where communication rounds and per-call overhead dominate;
``bfs-sparse`` and ``batch-sweep`` bypass the dense single-run primitive
path altogether (semiring SpMV on the e-cube router, and stacked lanes), so
a dense-path change should leave them unchanged; ``resilient-abft`` drives
the fault, checksum and checkpoint layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional

import numpy as np

#: Request index of the untimed warm-up request (outside the timed range).
WARMUP = 2**31 - 1

#: Run seed of the tick sample.  The first ``tick_sample`` requests of every
#: run are drawn from this seed whatever ``--seed`` says, so
#: ``sim_ticks_per_solve`` is a property of the code alone and compares
#: exactly between commits and between runs of different seeds.
REFERENCE_SEED = 2**32


def request_source(seed: int, index: int, tick_sample: int) -> int:
    """The run seed that request ``index`` of a run seeded ``seed`` draws from."""
    return REFERENCE_SEED if index < tick_sample else seed


def request_seed(seed: int, index: int, stream: int = 0) -> int:
    """A 32-bit seed for request ``index`` of run ``seed``."""
    return int(np.random.SeedSequence([seed, index, stream]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one request produced.

    ``result`` holds the arrays compared with the reference (and digested
    by the tick-identity guard); ``cost`` is the request's simulated cost
    snapshot; ``extras`` carries request-level layer counters read after
    the solve (plan-cache, fault, checksum and batch statistics).
    """

    result: Dict[str, Any]
    cost: Any
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One request type: how to build, run and check it.

    ``tick_sample`` is how many leading requests ``sim_ticks_per_solve``
    averages over; they come from :data:`REFERENCE_SEED`, and the timed
    loop always completes them, so the simulated metric depends neither on
    the run seed nor on host speed.
    ``model_check`` marks fault-free, ABFT-free workloads whose primitive
    charges the traced pass compares with the closed-form cost models.
    """

    name: str
    n_dims: int
    tick_sample: int
    setup: Callable[[], Any]
    make: Callable[[Any, int, int], Dict[str, Any]]
    run: Callable[[Any, Dict[str, Any]], Outcome]
    check: Callable[[Dict[str, Any], Outcome], Optional[str]]
    serial_ops: Callable[[Dict[str, Any]], float]
    model_check: bool = False


def _close(got: np.ndarray, want: np.ndarray, label: str) -> Optional[str]:
    got = np.asarray(got, dtype=np.float64)
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max()) if got.shape == want.shape else np.inf
    if err > 1e-8 * scale:
        return f"{label}: max error {err:.3g} against the reference"
    return None


def _plans(counters, before: Optional[Dict[str, int]] = None) -> Dict[str, float]:
    """Plan-cache hits and misses since ``before``, read from the counters."""
    after = counters.plan_stats()
    before = before or {}
    return {f"plans.{k}": float(after[k] - before.get(k, 0))
            for k in ("hits", "misses")}


# -- gaussian-dense -----------------------------------------------------------


def _gaussian_make(_state, seed: int, index: int) -> Dict[str, Any]:
    from repro import workloads as W

    A, b, x = W.diagonally_dominant_system(127, seed=request_seed(seed, index))
    return {"A": A, "b": b, "x": x}


def _gaussian_run(session, req) -> Outcome:
    from repro.algorithms import gaussian

    before = session.snapshot()
    plans = session.machine.counters.plan_stats()
    res = gaussian.solve(session.matrix(req["A"]), req["b"])
    return Outcome({"x": res.x}, session.snapshot() - before,
                   _plans(session.machine.counters, plans))


def _gaussian_check(req, out: Outcome) -> Optional[str]:
    return _close(out.result["x"], req["x"], "x")


def _gaussian_ops(req) -> float:
    from repro.algorithms import serial

    return float(serial.gaussian_solve(req["A"], req["b"]).ops)


# -- simplex-cold -------------------------------------------------------------


def _simplex_make(_state, seed: int, index: int) -> Dict[str, Any]:
    from repro import workloads as W
    from repro.algorithms import serial

    rng = np.random.default_rng(request_seed(seed, index))
    m = int(rng.integers(48, 129))
    n = int(rng.integers(32, 97))
    lp = W.feasible_lp(m, n, seed=int(rng.integers(2**31)))
    status, objective, x, _iters, ops = serial.simplex_solve(lp.A, lp.b, lp.c)
    return {
        "A": lp.A, "b": lp.b, "c": lp.c,
        "status": status, "objective": objective, "x": x, "ops": ops,
    }


def _simplex_run(_state, req) -> Outcome:
    from repro import Session
    from repro.algorithms import simplex

    # A fresh session per request: every plan is built cold, and session
    # construction is paid like one command-line run.
    session = Session(10)
    res = simplex.solve(session.machine, req["A"], req["b"], req["c"])
    return Outcome(
        {"x": res.x, "objective": np.float64(res.objective),
         "status": res.status},
        session.snapshot(),
        _plans(session.machine.counters),
    )


def _simplex_check(req, out: Outcome) -> Optional[str]:
    if out.result["status"] != req["status"]:
        return f"status {out.result['status']!r}, reference {req['status']!r}"
    err = _close(out.result["objective"], np.float64(req["objective"]),
                 "objective")
    return err or _close(out.result["x"], req["x"], "x")


# -- matvec-comm --------------------------------------------------------------

MATVEC_CALLS = 64


def _matvec_make(_state, seed: int, index: int) -> Dict[str, Any]:
    from repro.algorithms import serial

    rng = np.random.default_rng(request_seed(seed, index))
    A = rng.integers(-9, 10, size=(64, 64), dtype=np.int64)
    X = rng.integers(-9, 10, size=(MATVEC_CALLS, 64), dtype=np.int64)
    refs = [serial.matvec(A, x) for x in X]
    return {
        "A": A, "X": X,
        "Y": np.stack([r.value for r in refs]),
        "ops": float(sum(r.ops for r in refs)),
    }


def _matvec_run(session, req) -> Outcome:
    before = session.snapshot()
    plans = session.machine.counters.plan_stats()
    A = session.matrix(req["A"])
    Y = np.stack([
        A.matvec(session.row_vector(x, like=A)).to_numpy() for x in req["X"]
    ])
    return Outcome({"y": Y}, session.snapshot() - before,
                   _plans(session.machine.counters, plans))


def _matvec_check(req, out: Outcome) -> Optional[str]:
    if not np.array_equal(out.result["y"], req["Y"]):
        return "integer products differ from the serial reference"
    return None


# -- bfs-sparse ---------------------------------------------------------------


def _bfs_levels(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Serial BFS levels from vertex 0 over an arc list (-1 = unreachable)."""
    levels = np.full(n, -1, dtype=np.int64)
    levels[0] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        depth += 1
        reach = np.zeros(n, dtype=bool)
        reach[cols[frontier[rows]]] = True
        frontier = reach & (levels < 0)
        levels[frontier] = depth
    return levels


def _bfs_make(_state, seed: int, index: int) -> Dict[str, Any]:
    from repro import workloads as W

    graph = W.random_graph(1024, degree=3.0, seed=request_seed(seed, index))
    return {
        "graph": graph,
        "levels": _bfs_levels(graph.n, graph.rows, graph.cols),
    }


def _bfs_run(session, req) -> Outcome:
    from repro.algorithms import graph

    before = session.snapshot()
    plans = session.machine.counters.plan_stats()
    res = graph.bfs(session, req["graph"], 0)
    return Outcome({"levels": res.values}, session.snapshot() - before,
                   _plans(session.machine.counters, plans))


def _bfs_check(req, out: Outcome) -> Optional[str]:
    if not np.array_equal(out.result["levels"], req["levels"]):
        return "BFS levels differ from the serial reference"
    return None


# -- batch-sweep --------------------------------------------------------------

BATCH_LANES = 64
BATCH_ORDER = 24


def _batch_make(_state, seed: int, index: int) -> Dict[str, Any]:
    from repro import workloads as W

    grid, xs = [], []
    for lane in range(BATCH_LANES):
        A, b, x = W.diagonally_dominant_system(
            BATCH_ORDER, seed=request_seed(seed, index, stream=lane)
        )
        grid.append({"n_dims": 10, "n": BATCH_ORDER, "seed": lane,
                     "A": A, "b": b})
        xs.append(x)
    return {"grid": grid, "x": np.stack(xs)}


def _batch_run(_state, req) -> Outcome:
    from repro.batch import sweep

    out = sweep("gaussian", req["grid"])
    cost = out[0]["cost"]
    for lane in out[1:]:
        cost = _add(cost, lane["cost"])
    return Outcome(
        {"x": np.stack([lane["x"] for lane in out])},
        cost,
        {"batch.stacked_frac": float(np.mean([lane["batched"] for lane in out]))},
    )


def _add(a, b):
    return type(a)(**{k: getattr(a, k) + getattr(b, k) for k in vars(a)})


def _batch_check(req, out: Outcome) -> Optional[str]:
    return _close(out.result["x"], req["x"], "x")


def _batch_ops(req) -> float:
    from repro.algorithms import serial

    return float(sum(
        serial.gaussian_solve(entry["A"], entry["b"]).ops
        for entry in req["grid"]
    ))


# -- resilient-abft -----------------------------------------------------------

RESILIENT_ORDER = 24
RESILIENT_DIMS = 6


def _resilient_solve(A, b, plan=None):
    """One checkpointed gaussian solve under ``run_resilient``."""
    from repro import Session
    from repro.faults import CheckpointPolicy, gaussian_workload, run_resilient

    session = Session(RESILIENT_DIMS, abft=True, faults=plan)
    report = run_resilient(
        session,
        gaussian_workload(A, b, checkpoint_every=2),
        policy=CheckpointPolicy("incremental", every=2),
        max_recoveries=3,
    )
    return session, report


def _resilient_setup() -> float:
    """The fault-free horizon: simulated ticks of one unfaulted run.

    Order-24 diagonally dominant solves never swap rows, so every request's
    fault-free run charges the same schedule up to a few ticks of
    incremental-checkpoint deltas; one fixed system measures it.
    """
    from repro import workloads as W

    A, b, _x = W.diagonally_dominant_system(RESILIENT_ORDER, seed=0)
    session, _report = _resilient_solve(A, b)
    return session.time


def _resilient_make(horizon: float, seed: int, index: int) -> Dict[str, Any]:
    from repro import Session
    from repro import workloads as W
    from repro.algorithms import gaussian
    from repro.faults import FaultPlan

    A, b, x = W.diagonally_dominant_system(
        RESILIENT_ORDER, seed=request_seed(seed, index)
    )
    plan = FaultPlan.random(
        RESILIENT_DIMS,
        seed=request_seed(seed, index, stream=1),
        horizon=0.6 * horizon,
        link_kills=1,
        node_kills=1,
        drops=2,
        bit_flips=1,
    )
    # The fault-free baseline: the same system on a healthy machine.
    baseline = gaussian.solve(Session(RESILIENT_DIMS).matrix(A), b).x
    return {"A": A, "b": b, "x": x, "plan": plan, "baseline": baseline}


def _resilient_run(_state, req) -> Outcome:
    session, report = _resilient_solve(req["A"], req["b"], req["plan"])
    machine = session.machine
    stats = machine.faults.stats
    return Outcome(
        {"x": np.asarray(report.result), "recovered": report.recovered},
        session.snapshot(),
        {
            "abft.detected": float(machine.counters.abft_detected),
            "abft.corrected": float(machine.counters.abft_corrected),
            "faults.recoveries": float(stats.recoveries),
            "faults.retries": float(stats.retries),
            "faults.detour_rounds": float(stats.detour_rounds),
            **_plans(machine.counters),
        },
    )


def _resilient_check(req, out: Outcome) -> Optional[str]:
    if not out.result["recovered"]:
        return "run_resilient did not recover"
    if not np.array_equal(out.result["x"], req["baseline"]):
        return "recovered result differs from the fault-free baseline"
    return _close(req["baseline"], req["x"], "baseline x")


def _no_state():
    return None


def _session(n_dims: int):
    from repro import Session

    return Session(n_dims)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "gaussian-dense", n_dims=10, tick_sample=16,
            setup=partial(_session, 10), make=_gaussian_make,
            run=_gaussian_run, check=_gaussian_check,
            serial_ops=_gaussian_ops, model_check=True,
        ),
        Workload(
            "simplex-cold", n_dims=10, tick_sample=64,
            setup=_no_state, make=_simplex_make,
            run=_simplex_run, check=_simplex_check,
            serial_ops=lambda req: float(req["ops"]),
        ),
        Workload(
            "matvec-comm", n_dims=10, tick_sample=32,
            setup=partial(_session, 10), make=_matvec_make,
            run=_matvec_run, check=_matvec_check,
            serial_ops=lambda req: req["ops"], model_check=True,
        ),
        Workload(
            "bfs-sparse", n_dims=8, tick_sample=16,
            setup=partial(_session, 8), make=_bfs_make,
            run=_bfs_run, check=_bfs_check,
            serial_ops=lambda req: 0.0,  # no serial op count for BFS
        ),
        Workload(
            "batch-sweep", n_dims=10, tick_sample=16,
            setup=_no_state, make=_batch_make,
            run=_batch_run, check=_batch_check, serial_ops=_batch_ops,
        ),
        Workload(
            "resilient-abft", n_dims=RESILIENT_DIMS, tick_sample=32,
            setup=_resilient_setup, make=_resilient_make,
            run=_resilient_run, check=_resilient_check,
            serial_ops=_gaussian_ops,
        ),
    )
}
