"""Host-read vector arg-reduces computed on the reading subcube only.

``DistributedVector.argreduce`` hands one processor's result to the host.
With the plan cache on and no fault injector or ABFT manager attached it
gathers that processor's subcube and runs the collective's stages on it
alone.  Three twin sessions must agree on every call:

* ``Session(n)`` — the reading-subcube path;
* ``Session(n, plan_cache=False)`` — the exchange loop, the reference;
* ``Session(n, faults=FaultPlan())`` — the full-machine replay (an empty
  plan charges exactly what a plain session does).

Agreement means equal value bytes and indices, every ``CostSnapshot``
field, ``phase_times`` and the ticks of the ``reduce_all_loc`` row of
``Tracer.profile()``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import Session, comm
from repro import workloads as W
from repro.algorithms import gaussian
from repro.batch import BatchSession
from repro.comm.collectives import reading_subcube, reduce_all_loc_to_reader
from repro.comm.ops import get_op
from repro.core import DistributedVector
from repro.embeddings import (
    ColAlignedEmbedding,
    MatrixEmbedding,
    RowAlignedEmbedding,
    VectorOrderEmbedding,
)
from repro.faults import FaultPlan
from repro.machine.pvar import PVar

N_DIMS = (0, 1, 4, 6, 10)
LAYOUTS = ("block", "cyclic", "block_cyclic:2")
NUMERIC = (np.float64, np.float32, np.int64)
CASES = ("ties", "zeros", "identity", "nan-reader", "nan-other")
FIELDS = ("time", "flops", "elements_transferred", "comm_rounds", "local_moves")
ROW = "reduce_all_loc"

#: Matrix shape the aligned vectors follow: slot counts above one on
#: small cubes, so a charge with the vector's local size shows.
R, C = 21, 13


def _twins(n_dims):
    return (
        Session(n_dims, plan_cache=True, trace=True),
        Session(n_dims, plan_cache=False, trace=True),
        Session(n_dims, plan_cache=True, trace=True, faults=FaultPlan()),
    )


def _embeddings(machine, layout):
    """Vector-order, replicated and resident row/column-aligned vectors."""
    grid = MatrixEmbedding.default(machine, R, C, layout=layout)
    return [
        ("order", VectorOrderEmbedding(machine, R, layout)),
        ("row", RowAlignedEmbedding(grid, None)),
        ("row-resident", RowAlignedEmbedding(grid, grid.Pr - 1)),
        ("col", ColAlignedEmbedding(grid, None)),
        ("col-resident", ColAlignedEmbedding(grid, grid.Pc - 1)),
    ]


def _host(rng, length, dtype, case, op_name):
    """Host values of one case; ``op_name`` picks the identity."""
    dtype = np.dtype(dtype)
    out = rng.integers(-2, 3, size=length).astype(dtype)
    if case == "zeros":
        out = np.where(rng.random(length) < 0.7, 0, -1).astype(dtype)
    if dtype.kind == "f":
        out = np.copysign(out, rng.choice([-1.0, 1.0], size=length))
        out = out.astype(dtype)
        if case == "nan-reader":
            out[rng.integers(length)] = np.nan
    if case == "identity":
        out[:] = get_op(op_name).identity(dtype)
    return out


def _other_subcube_pid(vec):
    """A processor outside the reading subcube, or ``None``."""
    reader = vec.embedding.owner_slot_scalar(0)[0]
    dims = vec._reduce_dims()
    for d in range(vec.machine.n):
        if d not in dims:
            return reader ^ (1 << d)
    return None


def _vector(machine, emb, host, case):
    vec = DistributedVector(emb.scatter(host), emb)
    if case == "nan-other":
        other = _other_subcube_pid(vec)
        if other is not None:
            vec.pvar.data[other] = np.nan
    return vec


def _profile_ticks(session):
    rows = session.tracer.profile(None)["phases"]
    return [(r["count"], r["ticks"]) for r in rows if r["label"] == ROW]


def _assert_same_books(sessions, what):
    ref = sessions[1]
    for s in (sessions[0], sessions[2]):
        a, b = s.machine.snapshot(), ref.machine.snapshot()
        for field in FIELDS:
            assert getattr(a, field) == getattr(b, field), (what, field)
        assert s.machine.counters.phase_times == ref.machine.counters.phase_times
        assert _profile_ticks(s) == _profile_ticks(ref), what


def _assert_same_results(results, what):
    (v0, i0), (v1, i1), (v2, i2) = results
    for v, i in ((v0, i0), (v2, i2)):
        assert np.asarray(v).dtype == np.asarray(v1).dtype, what
        assert np.asarray(v).tobytes() == np.asarray(v1).tobytes(), what
        assert i == i1, what


def _run_all(sessions, calls, what):
    """Run each ``(label, fn)`` on the three twins, comparing results."""
    for label, fn in calls:
        results = []
        for s in sessions:
            with s.tracer.span("run", "run"), s.machine.phase("reads"):
                results.append(fn(s))
        _assert_same_results(results, f"{what} {label}")
    _assert_same_books(sessions, what)


@pytest.mark.parametrize("n_dims", N_DIMS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_argreduce_matches_the_loop_and_the_replay(n_dims, layout):
    rng = np.random.default_rng([n_dims, len(layout), 1])
    sessions = _twins(n_dims)
    for dtype, case in itertools.product(NUMERIC, CASES):
        if case.startswith("nan") and np.dtype(dtype).kind != "f":
            continue
        hosts = {}
        for (name, _), mode in itertools.product(
            _embeddings(sessions[0].machine, layout), ("max", "min")
        ):
            length = R if name in ("order", "col", "col-resident") else C
            hosts[name, mode] = (
                _host(rng, length, dtype, case, mode),
                rng.random(length) < 0.5,
            )

        def call(name, mode, keep):
            def fn(s):
                embs = dict(_embeddings(s.machine, layout))
                host, partial = hosts[name, mode]
                vec = _vector(s.machine, embs[name], host, case)
                valid = None
                if keep is not None:
                    mask = np.zeros_like(partial) if keep == "none" else partial
                    valid = DistributedVector(embs[name].scatter(mask),
                                              embs[name])
                return vec.argreduce(mode, valid)
            return fn

        calls = [
            (f"{name} arg{mode} valid={keep}", call(name, mode, keep))
            for (name, mode), keep in itertools.product(
                hosts, (None, "none", "partial")
            )
        ]
        _run_all(sessions, calls, f"{np.dtype(dtype)} {case} {layout}")


SUBCUBES = [(0, ()), (1, (0,)), (4, (3, 1)), (6, (0, 2, 5)),
            (10, (5, 6, 7, 8, 9)), (10, tuple(range(10)))]


def _readers(machine, rng):
    """Every processor on small cubes, a sample on large ones."""
    if machine.p <= 64:
        return range(machine.p)
    return rng.choice(machine.p, size=24, replace=False).tolist()


def _charged(machine, fn):
    before = machine.snapshot()
    out = fn()
    return out, machine.snapshot() - before


@pytest.mark.parametrize("n_dims,dims", SUBCUBES)
def test_reader_stage_matches_the_loop_on_every_processor(n_dims, dims):
    """Any reader, any dimension order: the reader's (value, index) equals
    what the exchange loop leaves on it, and one reader call charges what
    one loop charges."""
    rng = np.random.default_rng([n_dims, len(dims), 4])
    machine = Session(n_dims, plan_cache=True).machine
    loop = Session(n_dims, plan_cache=False).machine
    p = machine.p
    for dtype, nan in ((np.float64, False), (np.float64, True), (np.int64, False)):
        value = rng.integers(-2, 3, size=(p, 2)).astype(dtype)
        if dtype is np.float64:
            value = np.copysign(value, rng.choice([-1.0, 1.0], size=value.shape))
            if nan:
                value[rng.random(value.shape) < 0.2] = np.nan
        index = rng.permutation(2 * p).reshape(p, 2).astype(np.int64)
        for mode in ("max", "min"):
            (full_v, full_i), want = _charged(loop, lambda: comm.reduce_all_loc(
                loop, PVar(loop, value), PVar(loop, index), dims, mode))
            for pid in _readers(machine, rng):
                members, pos = reading_subcube(machine, dims, pid)
                assert machine.pids()[members][pos] == pid
                (v, i), got = _charged(machine, lambda: reduce_all_loc_to_reader(
                    machine, value[members], index[members], dims, pos, mode))
                assert got == want
                assert v.tobytes() == full_v.data[pid].tobytes(), (mode, pid)
                assert i.tobytes() == full_i.data[pid].tobytes(), (mode, pid)


def test_empty_fault_plan_charges_like_a_plain_session():
    A, b, _ = W.diagonally_dominant_system(40, seed=5)
    plain = Session(6, plan_cache=True)
    replay = Session(6, plan_cache=True, faults=FaultPlan())
    x_plain = gaussian.solve(plain.matrix(A), b)
    x_replay = gaussian.solve(replay.matrix(A), b)
    assert x_plain.x.tobytes() == x_replay.x.tobytes()
    assert x_plain.pivots == x_replay.pivots
    assert plain.machine.snapshot() == replay.machine.snapshot()
    assert plain.machine.counters.phase_times == \
        replay.machine.counters.phase_times


@pytest.mark.parametrize("n_dims", [1, 4, 10])
def test_batched_lanes_equal_their_scalar_runs(n_dims):
    rng = np.random.default_rng([n_dims, 3])
    lanes = 5
    for layout, dtype in itertools.product(LAYOUTS, (np.float64, np.int64)):
        batch = BatchSession(n_dims, n_runs=lanes, plan_cache=True)
        scalars = [Session(n_dims, plan_cache=True) for _ in range(lanes)]
        for (name, emb), mode in itertools.product(
            _embeddings(batch.machine, layout), ("max", "min")
        ):
            host = np.stack(
                [_host(rng, emb.L, dtype, "ties", mode) for _ in range(lanes)],
                axis=1,
            )
            host[:, 1] = host[:, 0]  # a tie between two lanes' data
            keep = rng.random((emb.L, lanes)) < 0.6
            vec = DistributedVector(emb.scatter(host), emb)
            valid = DistributedVector(emb.scatter(keep), emb)
            value, index = vec.argreduce(mode, valid)
            for k, s in enumerate(scalars):
                semb = dict(_embeddings(s.machine, layout))[name]
                svec = DistributedVector(semb.scatter(host[:, k]), semb)
                svalid = DistributedVector(semb.scatter(keep[:, k]), semb)
                sv, si = svec.argreduce(mode, svalid)
                what = f"{layout} {name} {mode} lane {k}"
                assert value[k].tobytes() == np.asarray(sv).tobytes(), what
                assert index[k] == si, what
        for k, s in enumerate(scalars):
            assert batch.lane_snapshot(k) == s.machine.snapshot()
            assert batch.machine.counters.lane_phase_times(k) == \
                s.machine.counters.phase_times


def test_reader_path_builds_no_machine_wide_result():
    """The reading subcube is memoized and the PVar constructor never runs
    on the reader path; the full collective builds p-row results."""
    from repro.machine import pvar as pvar_module

    s = Session(10, plan_cache=True)
    grid = MatrixEmbedding.default(s.machine, 64, 64)
    emb = ColAlignedEmbedding(grid, None)
    vec = DistributedVector(emb.scatter(np.arange(64.0)), emb)
    built = []
    real = pvar_module.PVar.__init__

    def counting(self, machine, data):
        built.append(np.shape(data))
        real(self, machine, data)

    pvar_module.PVar.__init__ = counting
    try:
        assert vec.argreduce("max") == (63.0, 63)
    finally:
        pvar_module.PVar.__init__ = real
    assert built == []
    assert any(key[1][0] == "reading-subcube" for key in s.machine.plans._store)
