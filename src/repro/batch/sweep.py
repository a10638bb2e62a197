"""Parameter sweeps: stack compatible configurations, fall back for the rest.

:func:`sweep` runs one workload (``'gaussian'``, ``'simplex'`` or
``'matvec'``) over a grid of configurations.  Configurations that share
an embedding signature — same cube size, same problem shape, same cost
model, no per-machine subsystems — are grouped and executed as lanes of
one :class:`~.session.BatchSession`; the rest (fault plans, sanitizer,
ABFT, tracing, non-preset cost models, simplex LPs with negative ``b``)
run on scalar :class:`~repro.core.session.Session`\\ s, with fault plans
routed through :func:`repro.faults.run_resilient`.

Every configuration's result is bit-identical either way — batching is
purely a wall-clock optimisation — so the differential oracle crosses
the two paths freely.

Each grid entry is a dict::

    {"n_dims": 6, "n": 16, "seed": 3,            # required
     "m": 8,                                      # simplex rows (default n)
     "cost_model": "cm2", "plan_cache": None,     # optional machine config
     "pivoting": "partial", "rule": "dantzig", "tol": ...,
     "A": ..., "b": ..., "c": ..., "x": ...,      # optional explicit data
     "faults": plan, "sanitize": ..., "abft": ..., "trace": ...}

Problem data defaults to a deterministic function of ``seed`` (see
:func:`make_problem`), so a scalar re-run of any entry reproduces its
lane exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..algorithms.lanes import lane_of, lanes
from ..errors import ConfigError
from .session import BatchSession

WORKLOADS = ("gaussian", "simplex", "matvec")


def make_problem(workload: str, params: Dict) -> Dict[str, np.ndarray]:
    """Deterministic problem data for one configuration.

    Explicit ``A``/``b``/``c``/``x`` entries in ``params`` win; anything
    missing is drawn from ``default_rng(seed)`` — diagonally dominant
    systems for Gaussian elimination, bounded-feasible LPs (``b > 0``)
    for the simplex method.
    """
    n = int(params["n"])
    rng = np.random.default_rng(int(params.get("seed", 0)))
    if workload == "gaussian":
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        data = {"A": A, "b": b}
    elif workload == "simplex":
        m = int(params.get("m", n))
        data = {
            "A": rng.uniform(0.2, 1.0, (m, n)),
            "b": rng.uniform(1.0, 2.0, m),
            "c": rng.uniform(0.2, 1.0, n),
        }
    elif workload == "matvec":
        data = {
            "A": rng.standard_normal((n, n)),
            "x": rng.standard_normal(n),
        }
    else:
        raise ConfigError(f"workload must be one of {WORKLOADS}, got {workload!r}")
    for key in data:
        if key in params:
            data[key] = np.asarray(params[key], dtype=np.float64)
    return data


def _batch_signature(workload: str, params: Dict, data: Dict) -> Optional[tuple]:
    """Grouping key for stacked execution, or ``None`` for scalar fallback."""
    if any(params.get(k) for k in ("faults", "sanitize", "abft", "trace")):
        return None
    cost_model = params.get("cost_model")
    if cost_model is not None and not isinstance(cost_model, str):
        return None  # unhashable/shared instances: keep them scalar
    if workload == "simplex" and np.any(data["b"] < 0):
        return None  # needs artificials (per-lane phase I): scalar path
    if workload == "gaussian" and params.get("pivoting", "partial") not in (
        "partial",
        "none",
    ):
        return None
    shape = tuple(data["A"].shape)
    return (
        workload,
        int(params["n_dims"]),
        shape,
        cost_model,
        params.get("plan_cache"),
        params.get("pivoting", "partial"),
        params.get("rule", "dantzig"),
        params.get("tol"),
    )


def _run_batched(workload: str, entries: List[dict]) -> None:
    """Execute one compatible group as lanes of a BatchSession."""
    params0 = entries[0]["params"]
    session = BatchSession(
        int(params0["n_dims"]),
        n_runs=len(entries),
        cost_model=params0.get("cost_model"),
        plan_cache=params0.get("plan_cache"),
    )
    stack = {
        key: np.stack([e["data"][key] for e in entries])
        for key in entries[0]["data"]
    }
    out = _workload(workload, params0, stack)(session)
    for lane, entry in enumerate(entries):
        entry["out"] = dict(
            lane_of(out, lane), batched=True, n_lanes=len(entries), lane=lane
        )


def _workload(workload: str, params: Dict, data: Dict):
    """A ``run_resilient``-shaped closure executing one config.

    On a :class:`BatchSession` it executes a stacked group: ``data`` then
    leads with the run axis, and so does every per-run output.
    """
    tol = params.get("tol")

    def body(session, store=None):
        if workload == "gaussian":
            from ..algorithms import gaussian

            kwargs = {"pivoting": params.get("pivoting", "partial")}
            if tol is not None:
                kwargs["tol"] = tol
            M = session.matrix(data["A"])
            res = gaussian.solve(M, data["b"], **kwargs)
            return {
                "x": res.x,
                "pivots": res.pivots,
                "time": res.cost.time,
                "cost": res.cost,
            }
        if workload == "simplex":
            from ..algorithms import simplex

            kwargs = {"rule": params.get("rule", "dantzig")}
            if tol is not None:
                kwargs["tol"] = tol
            res = simplex.solve(
                session.machine, data["A"], data["b"], data["c"], **kwargs
            )
            return {
                "status": res.status,
                "objective": res.objective,
                "x": res.x,
                "iterations": res.iterations,
                "time": res.cost.time,
                "cost": res.cost,
            }
        from ..algorithms import matvec as mv

        M = session.matrix(data["A"])
        xv = session.row_vector(data["x"], like=M)
        res = mv.matvec(M, xv)
        return {
            "y": lanes(session.machine).to_host(res.y),
            "time": res.cost.time,
            "cost": res.cost,
        }

    return body


def _run_scalar(workload: str, entry: dict) -> None:
    from ..core.session import Session

    params = entry["params"]
    session = Session(
        int(params["n_dims"]),
        cost_model=params.get("cost_model"),
        plan_cache=params.get("plan_cache"),
        trace=params.get("trace"),
        faults=params.get("faults"),
        sanitize=params.get("sanitize"),
        abft=params.get("abft"),
    )
    body = _workload(workload, params, entry["data"])
    if params.get("faults") is not None:
        from ..faults.recovery import run_resilient

        report = run_resilient(session, body)
        out = report.result if report.result is not None else {}
        out = dict(out)
        out["resilience"] = report.as_dict()
    else:
        out = body(session)
    out["batched"] = False
    entry["out"] = out


def sweep(workload: str, params_grid: List[Dict]) -> List[Dict]:
    """Run ``workload`` over ``params_grid``; results in input order.

    Each returned dict carries the workload outputs (``x``/``y``,
    ``status``..., per-run simulated ``time`` and scalar ``cost``
    snapshot) plus ``batched`` (how the entry executed), and for batched
    entries the lane index and group width.
    """
    if workload not in WORKLOADS:
        raise ConfigError(
            f"workload must be one of {WORKLOADS}, got {workload!r}"
        )
    entries = []
    for index, params in enumerate(params_grid):
        data = make_problem(workload, params)
        entries.append(
            {
                "index": index,
                "params": params,
                "data": data,
                "sig": _batch_signature(workload, params, data),
            }
        )

    groups: Dict[tuple, List[dict]] = {}
    for entry in entries:
        if entry["sig"] is not None:
            groups.setdefault(entry["sig"], []).append(entry)
    for group in groups.values():
        _run_batched(workload, group)
    for entry in entries:
        if entry["sig"] is None:
            _run_scalar(workload, entry)

    results = []
    for entry in entries:
        out = entry["out"]
        out["index"] = entry["index"]
        out["workload"] = workload
        results.append(out)
    return results
