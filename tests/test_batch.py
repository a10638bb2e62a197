"""Batched simulation hypervisor: lane bit-identity and isolation.

The contract under test is absolute: every lane of a
:class:`repro.batch.BatchSession` is bit-identical — results, simulated
ticks, *all* cost counters — to the same problem run on a scalar
:class:`repro.Session`.  Batching is a host-side wall-clock optimisation
only.  The strongest pins run the scalar side in a fresh subprocess
(no batch module imported, no shared interpreter state), mirroring the
golden-cost methodology; faster in-process checks cover the property
across seeds and workloads.

Also pinned here: the batch-off guarantee (a scalar run never imports
``repro.batch``) and lane isolation (a faulted configuration in a sweep
runs scalar and cannot perturb the batched lanes).
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Session
from repro.algorithms import gaussian, matvec as mv, simplex
from repro.batch import BatchSession, sweep
from repro.batch.sweep import make_problem
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.faults.plan import NodeKill

SRC = str(Path(__file__).resolve().parent.parent / "src")
SUBPROCESS_ENV = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}


def _snap_dict(snapshot):
    return {k: float(v) for k, v in snapshot.as_dict().items()}


# -- lane bit-identity (in-process, across seeds) -----------------------------


@pytest.mark.parametrize(
    "seed, pivoting, dominant",
    [
        pytest.param(0, "partial", True, id="0"),
        pytest.param(1, "partial", True, id="1"),
        pytest.param(7, "partial", True, id="7"),
        pytest.param(11, "partial", False, id="nondominant-partial"),
        pytest.param(11, "none", False, id="nondominant-none"),
    ],
)
def test_gaussian_lanes_match_scalar_runs(seed, pivoting, dominant):
    n_runs, n_dims, n = 5, 4, 9
    grid = [{"n_dims": n_dims, "n": n, "seed": seed + k}
            for k in range(n_runs)]
    if not dominant:
        # make_problem's systems are diagonally dominant and never swap;
        # plain Gaussian matrices make partial pivoting swap per lane.
        for g in grid:
            rng = np.random.default_rng(g["seed"])
            g["A"] = rng.standard_normal((n, n))
            g["b"] = rng.standard_normal(n)
    datas = [make_problem("gaussian", g) for g in grid]

    session = BatchSession(n_dims, n_runs=n_runs)
    res = gaussian.solve(
        session.matrix(np.stack([d["A"] for d in datas])),
        np.stack([d["b"] for d in datas]),
        pivoting=pivoting,
    )
    for lane, data in enumerate(datas):
        scalar = Session(n_dims)
        want = gaussian.solve(
            scalar.matrix(data["A"]), data["b"], pivoting=pivoting
        )
        assert np.array_equal(res.x[lane], want.x)
        assert np.array_equal(res.pivots[lane], want.pivots)
        assert float(res.cost.time[lane]) == want.cost.time
        assert _snap_dict(res.lane(lane).cost) == _snap_dict(want.cost)
        assert _snap_dict(session.lane_snapshot(lane)) == _snap_dict(
            scalar.snapshot()
        )
    if pivoting == "partial" and not dominant:
        swapped = np.array(res.pivots) != np.arange(n)  # (lane, step)
        assert any(0 < count < n_runs for count in swapped.sum(axis=0))


@pytest.mark.parametrize(
    "seed, rule, unbounded",
    [
        pytest.param(0, "dantzig", False, id="0"),
        pytest.param(3, "dantzig", False, id="3"),
        pytest.param(0, "bland", False, id="bland"),
        pytest.param(0, "dantzig", True, id="unbounded"),
        pytest.param(0, "bland", True, id="unbounded-bland"),
    ],
)
def test_simplex_lanes_match_scalar_runs(seed, rule, unbounded):
    n_runs, n_dims = 4, 4
    grid = [
        {"n_dims": n_dims, "n": 8, "m": 5, "seed": seed + k}
        for k in range(n_runs)
    ]
    if unbounded:
        # Lane 2's variable 0 has a positive cost and only negative
        # constraint coefficients: that LP is unbounded, the others are not.
        lp = make_problem("simplex", grid[2])
        lp["A"][:, 0] = -lp["A"][:, 0]
        grid[2].update(lp)
    datas = [make_problem("simplex", g) for g in grid]

    session = BatchSession(n_dims, n_runs=n_runs)
    res = simplex.solve(
        session.machine,
        np.stack([d["A"] for d in datas]),
        np.stack([d["b"] for d in datas]),
        np.stack([d["c"] for d in datas]),
        rule=rule,
    )
    for lane, data in enumerate(datas):
        scalar = Session(n_dims)
        want = simplex.solve(
            scalar.machine, data["A"], data["b"], data["c"], rule=rule
        )
        got = res.lane(lane)
        assert got.status == want.status
        assert got.iterations == want.iterations
        assert got.objective == want.objective  # bitwise, not allclose
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(res.basis[lane], want.basis)
        assert _snap_dict(got.cost) == _snap_dict(want.cost)
        assert got.pivots == want.pivots
        assert _snap_dict(session.lane_snapshot(lane)) == _snap_dict(
            scalar.snapshot()
        )
    if unbounded:
        assert sorted(set(res.status)) == ["optimal", "unbounded"]


def test_matvec_lanes_match_scalar_runs():
    n_runs, n_dims = 6, 4
    grid = [{"n_dims": n_dims, "n": 12, "seed": k} for k in range(n_runs)]
    datas = [make_problem("matvec", g) for g in grid]

    session = BatchSession(n_dims, n_runs=n_runs)
    M = session.matrix(np.stack([d["A"] for d in datas]))
    xv = session.row_vector(np.stack([d["x"] for d in datas]), like=M)
    out = mv.matvec(M, xv)
    res = dataclasses.replace(out, y=session.to_host(out.y))
    for lane, data in enumerate(datas):
        scalar = Session(n_dims)
        M = scalar.matrix(data["A"])
        want = mv.matvec(M, scalar.row_vector(data["x"], like=M))
        assert np.array_equal(res.y[lane], want.y.to_numpy())
        assert float(res.cost.time[lane]) == want.cost.time
        assert _snap_dict(res.lane_cost(lane)) == _snap_dict(want.cost)


def test_lane_width_does_not_change_lanes():
    """A lane's outcome must not depend on who shares the batch."""
    n_dims = 4
    grid6 = [{"n_dims": n_dims, "n": 10, "seed": k} for k in range(6)]
    wide = sweep("gaussian", grid6)
    solo = sweep("gaussian", [grid6[3]])
    assert wide[3]["batched"] and solo[0]["batched"]
    assert np.array_equal(wide[3]["x"], solo[0]["x"])
    assert wide[3]["time"] == solo[0]["time"]
    assert wide[3]["pivots"] == solo[0]["pivots"]


# -- lane bit-identity (subprocess pins) --------------------------------------


_SUBPROCESS_SCRIPT = """\
import json
import numpy as np
from repro import Session
from repro.algorithms import gaussian
from repro.batch.sweep import make_problem

params = json.loads(%r)
data = make_problem("gaussian", params)
s = Session(params["n_dims"])
res = gaussian.solve(s.matrix(data["A"]), data["b"])
print(json.dumps({
    "x": res.x.tolist(),
    "pivots": [int(v) for v in res.pivots],
    "time": res.cost.time,
    "snapshot": {k: float(v) for k, v in s.snapshot().as_dict().items()},
}))
"""


def test_gaussian_lane_matches_fresh_interpreter():
    """The hardest pin: scalar side computed in a clean subprocess."""
    n_runs, n_dims, lane = 4, 4, 2
    grid = [{"n_dims": n_dims, "n": 9, "seed": k} for k in range(n_runs)]
    datas = [make_problem("gaussian", g) for g in grid]
    session = BatchSession(n_dims, n_runs=n_runs)
    res = gaussian.solve(
        session.matrix(np.stack([d["A"] for d in datas])),
        np.stack([d["b"] for d in datas]),
    )

    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT % json.dumps(grid[lane])],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        check=True,
    )
    want = json.loads(out.stdout)
    assert res.x[lane].tolist() == want["x"]  # exact: same float bits
    assert [int(v) for v in res.pivots[lane]] == want["pivots"]
    assert float(res.cost.time[lane]) == want["time"]
    assert _snap_dict(session.lane_snapshot(lane)) == want["snapshot"]


def test_scalar_run_never_imports_batch_module():
    """Batch-off guarantee: the hypervisor stays cold on scalar paths."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from repro import Session, workloads\n"
        "from repro.algorithms import gaussian\n"
        "A, b, _ = workloads.diagonally_dominant_system(9, seed=0)\n"
        "s = Session(4, sanitize=True)\n"
        "res = gaussian.solve(s.matrix(A), b)\n"
        "assert res.x.shape == (9,)\n"
        "assert 'repro.batch' not in sys.modules, 'batch module leaked'\n"
        "print('OK')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        check=True,
    )
    assert out.stdout.strip() == "OK"


# -- lane isolation -----------------------------------------------------------


def test_faulted_config_cannot_perturb_batched_lanes():
    """A fault plan in the sweep runs scalar; healthy lanes are untouched."""
    n_dims = 4
    healthy = [{"n_dims": n_dims, "n": 10, "seed": k} for k in range(4)]
    faulted = dict(
        healthy[1], faults=FaultPlan([NodeKill(time=50.0, pid=3)])
    )
    mixed = sweep("gaussian", healthy[:2] + [faulted] + healthy[2:])
    clean = sweep("gaussian", healthy)

    assert not mixed[2]["batched"]
    assert mixed[2]["resilience"]["recovered"]
    for got, want in zip(mixed[:2] + mixed[3:], clean):
        assert got["batched"]
        assert np.array_equal(got["x"], want["x"])
        assert got["time"] == want["time"]


def test_sdc_config_cannot_perturb_batched_lanes():
    from repro.faults.plan import BitFlip

    n_dims = 4
    healthy = [{"n_dims": n_dims, "n": 10, "seed": k} for k in range(3)]
    flipped = dict(
        healthy[0],
        faults=FaultPlan([BitFlip(time=50.0, pid=1, bit=3)]),
        abft=True,
    )
    mixed = sweep("gaussian", healthy + [flipped])
    clean = sweep("gaussian", healthy)
    assert not mixed[3]["batched"]
    for got, want in zip(mixed[:3], clean):
        assert got["batched"]
        assert np.array_equal(got["x"], want["x"])
        assert got["time"] == want["time"]


def test_run_resilient_smoke_under_sweep():
    """Degraded-subcube recovery still works when routed through sweep."""
    n_dims = 4
    grid = [
        {"n_dims": n_dims, "n": 8, "seed": 0},
        {
            "n_dims": n_dims,
            "n": 8,
            "seed": 1,
            "faults": FaultPlan([NodeKill(time=40.0, pid=1)]),
        },
    ]
    results = sweep("gaussian", grid)
    assert results[0]["batched"] and not results[1]["batched"]
    report = results[1]["resilience"]
    assert report["recovered"]
    data = make_problem("gaussian", grid[1])
    assert np.allclose(
        results[1]["x"], np.linalg.solve(data["A"], data["b"]), atol=1e-8
    )


# -- configuration guard rails ------------------------------------------------


def test_batch_session_rejects_per_machine_subsystems():
    for kwargs in (
        {"sanitize": True},
        {"abft": True},
        {"faults": FaultPlan([NodeKill(time=1.0, pid=0)])},
        {"trace": True},
    ):
        with pytest.raises(ConfigError):
            BatchSession(4, n_runs=2, **kwargs)


def test_sweep_rejects_unknown_workload():
    with pytest.raises(ConfigError):
        sweep("cholesky", [{"n_dims": 4, "n": 8, "seed": 0}])
