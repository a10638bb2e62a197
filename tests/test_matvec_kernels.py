"""The matrix-vector kernels against the code they replaced.

``primitives.distribute`` tiles a vector with one ``np.repeat``,
``primitives.local_reduce`` folds the slot axis of integer and bool
blocks, and ``comm.reduce_all`` replays its dimension-exchange loop
(per dimension: the round's charge, one neighbour ``take``, the loop's
own ``op(own, partner)``) when the plan cache is on and no fault injector
is attached.  The replaced code — the copy of a zero-stride broadcast,
``op.ufunc.reduce`` and the ``Hypercube.exchange`` loop — is copied below
as the reference.  Every result must equal it in dtype and bytes (±0.0
and NaN payloads told apart) and every ``CostSnapshot`` field and plan
statistic must be equal.  CI also runs this file with the plan cache
off, where ``reduce_all`` runs the loop itself.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import Session, comm
from repro.batch import BatchSession
from repro.comm.ops import get_op
from repro.core import primitives as P
from repro.core.primitives import _aligned_embedding, _masked_for_reduce
from repro.embeddings import (
    ColAlignedEmbedding,
    MatrixEmbedding,
    RowAlignedEmbedding,
    VectorOrderEmbedding,
)
from repro.embeddings.remap import remap_vector
from repro.machine.pvar import PVar


# -- the replaced code, copied as the reference -------------------------------


def ref_distribute(vec, vec_emb, emb, axis):
    """``primitives.distribute`` with the broadcast copy."""
    machine = emb.machine
    target_emb = _aligned_embedding(emb, axis, resident=None)
    if not vec_emb.compatible(target_emb):
        if (
            isinstance(vec_emb, type(target_emb))
            and not vec_emb.replicated
            and vec_emb.matrix.same_grid(emb)
        ):
            vec = comm.broadcast(
                machine,
                vec,
                dims=vec_emb.across_dims,
                root_rank=vec_emb.across_code(vec_emb.resident),
            )
        else:
            vec = remap_vector(vec, vec_emb, target_emb)
    lr, lc = emb.local_shape
    extra = vec.data.shape[2:]
    if axis == 0:
        out = np.broadcast_to(
            np.expand_dims(vec.data, 1), (machine.p, lr, lc) + extra
        ).copy()
    else:
        out = np.broadcast_to(
            np.expand_dims(vec.data, 2), (machine.p, lr, lc) + extra
        ).copy()
    machine.charge_local(lr * lc)
    return PVar(machine, out)


def ref_local_reduce(pvar, emb, axis, op):
    """``primitives.local_reduce`` with ``op.ufunc.reduce``."""
    op = get_op(op)
    machine = emb.machine
    data = _masked_for_reduce(pvar, emb, op)
    if axis == 1:
        if machine.n_runs is not None:
            moved = np.ascontiguousarray(np.moveaxis(data, 2, -1))
            red = op.ufunc.reduce(moved, axis=-1)
        else:
            red = op.ufunc.reduce(data, axis=2)
        reduced = PVar(machine, red)
        machine.charge_flops(max(pvar.local_size - pvar.data.shape[1], 0))
        return reduced, emb.col_dims, _aligned_embedding(emb, 1, None)
    reduced = PVar(machine, op.ufunc.reduce(data, axis=1))
    machine.charge_flops(max(pvar.local_size - pvar.data.shape[2], 0))
    return reduced, emb.row_dims, _aligned_embedding(emb, 0, None)


def ref_reduce_all(machine, pvar, op, dims):
    """``comm.reduce_all``'s dimension-exchange loop."""
    op = get_op(op)
    data = pvar
    for d in dims:
        recv = machine.exchange(data, d)
        combined = op(data.data, recv.data)
        machine.charge_flops(data.local_size)
        data = PVar(machine, combined)
    return data


def ref_reduce(pvar, emb, axis, op):
    """``primitives.reduce``: the local stage, then the loop."""
    reduced, dims, _ = ref_local_reduce(pvar, emb, axis, op)
    return ref_reduce_all(emb.machine, reduced, op, dims)


# -- data and comparisons ----------------------------------------------------------


DTYPES = (
    np.int64, np.int32, np.int8, np.uint8, np.bool_, np.float64, np.float32,
)
NAN_BITS = {
    np.dtype(np.float64): (np.uint64, 0x7FF8000000000000),
    np.dtype(np.float32): (np.uint32, 0x7FC00000),
}


def ops_for(dtype):
    """sum, prod, max and min for every dtype; any and all for bool."""
    ops = ["sum", "prod", "max", "min"]
    return ops + ["any", "all"] if np.dtype(dtype).kind == "b" else ops


def make_values(rng, shape, dtype):
    """Full-range integers (adds and products wrap); floats with random
    signs on every value (±0.0 included), ±inf and NaNs of both signs
    carrying distinct payloads."""
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        return rng.random(shape) < 0.5
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return rng.integers(
            info.min, info.max, size=shape, dtype=dtype, endpoint=True
        )
    out = rng.integers(-2, 3, size=shape).astype(dtype)
    out = np.copysign(out, rng.choice([-1.0, 1.0], size=shape)).astype(dtype)
    u = rng.random(shape)
    out[u < 0.05] = np.inf
    out[(u >= 0.05) & (u < 0.1)] = -np.inf
    nan = u >= 0.92
    uint, quiet = NAN_BITS[dtype]
    payload = rng.integers(1, 1 << 20, size=shape).astype(uint)
    sign = rng.choice([0, 1], size=shape).astype(uint) << (8 * dtype.itemsize - 1)
    bits = (uint(quiet) | payload | sign).view(dtype)
    return np.where(nan, bits, out)


def assert_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert got.tobytes() == want.tobytes(), f"{what}: {got} != {want}"


def assert_costs(new, old):
    """Every ``CostSnapshot`` field (per lane when batched) and the plan
    statistics are equal."""
    a, b = new.snapshot(), old.snapshot()
    for field in ("time", "flops", "elements_transferred", "comm_rounds",
                  "local_moves"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert new.counters.plan_stats() == old.counters.plan_stats()
    assert len(new.plans) == len(old.plans)


def twins(n_dims, lanes=None, **kw):
    """Two fresh, identical machines: one for the kernel, one for the
    reference."""
    if lanes is None:
        return Session(n_dims, **kw).machine, Session(n_dims, **kw).machine
    return (
        BatchSession(n_dims, n_runs=lanes, **kw).machine,
        BatchSession(n_dims, n_runs=lanes, **kw).machine,
    )


def grid(machine, R, C, shape, layout):
    """A square (aspect-matched), 1 × p or p × 1 processor grid."""
    if shape == "square":
        return MatrixEmbedding.default(machine, R, C, layout=layout)
    row_dims, col_dims = (
        ((), machine.dims) if shape == "1xp" else (machine.dims, ())
    )
    return MatrixEmbedding(
        machine, R, C, row_dims=row_dims, col_dims=col_dims,
        row_layout_kind=layout, col_layout_kind=layout,
    )


def lane_shape(machine):
    return () if machine.n_runs is None else (machine.n_runs,)


GRIDS = ("square", "1xp", "px1")
LAYOUTS = ("block", "cyclic", "block_cyclic:2")
R, C = 5, 7  # odd extents: padding on every grid with p > 1


# -- the slot fold ------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [d for d in DTYPES if np.dtype(d).kind in "biu"])
@pytest.mark.parametrize("slots", [1, 2, 3, 8, 9])
def test_fold_equals_the_ufunc_reduce(dtype, slots):
    rng = np.random.default_rng([slots, np.dtype(dtype).num])
    for op, (shape, axis) in itertools.product(
        ["sum", "prod", "max", "min", "any", "all"],
        [((6, slots, 3), 1), ((6, 3, slots), 2), ((6, 2, slots, 4), 2)],
    ):
        data = make_values(rng, shape, dtype)
        ufunc = get_op(op).ufunc
        assert_bits(
            P._fold_slots(data, axis, ufunc), ufunc.reduce(data, axis=axis),
            f"{np.dtype(dtype)} {op} over {shape} axis {axis}",
        )


# -- distribute -----------------------------------------------------------------------


def _sources(machine, emb, axis):
    """The three ways a vector reaches ``distribute``: replicated aligned
    (local tiling only), aligned but resident in one band (a subcube
    broadcast first) and vector order (a remap first)."""
    aligned = RowAlignedEmbedding if axis == 0 else ColAlignedEmbedding
    length = emb.C if axis == 0 else emb.R
    yield aligned(emb, None)
    yield aligned(emb, 0)
    yield VectorOrderEmbedding(machine, length, "cyclic")


def _check_distribute(n_dims, shape, layout, axis, lanes=None):
    rng = np.random.default_rng([n_dims, GRIDS.index(shape), axis, lanes or 0])
    new, old = twins(n_dims, lanes)
    for dtype in DTYPES:
        emb_new, emb_old = (grid(m, R, C, shape, layout) for m in (new, old))
        length = emb_new.C if axis == 0 else emb_new.R
        host = make_values(rng, (length,) + lane_shape(new), dtype)
        for src_new, src_old in zip(
            _sources(new, emb_new, axis), _sources(old, emb_old, axis)
        ):
            got = P.distribute(src_new.scatter(host), src_new, emb_new, axis)
            want = ref_distribute(src_old.scatter(host), src_old, emb_old, axis)
            assert_bits(got.data, want.data, f"{np.dtype(dtype)} {src_new!r}")
            assert_costs(new, old)


@pytest.mark.parametrize("n_dims", [0, 1, 4, 6])
@pytest.mark.parametrize("shape", GRIDS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("axis", [0, 1])
def test_distribute_matches_the_broadcast_copy(n_dims, shape, layout, axis):
    _check_distribute(n_dims, shape, layout, axis)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("lanes", [1, 3])
def test_batched_distribute_matches_the_broadcast_copy(axis, lanes):
    _check_distribute(4, "square", "cyclic", axis, lanes)


# -- reduce ----------------------------------------------------------------------------


def _check_reduce(n_dims, shape, layout, axis, lanes=None, **kw):
    rng = np.random.default_rng([n_dims, GRIDS.index(shape), axis, lanes or 0])
    new, old = twins(n_dims, lanes, **kw)
    with np.errstate(all="ignore"):
        for dtype in DTYPES:
            host = make_values(rng, (R, C) + lane_shape(new), dtype)
            for op in ops_for(dtype):
                emb_new, emb_old = (grid(m, R, C, shape, layout) for m in (new, old))
                got, _ = P.reduce(emb_new.scatter(host), emb_new, axis, op)
                want = ref_reduce(emb_old.scatter(host), emb_old, axis, op)
                assert_bits(got.data, want.data, f"{np.dtype(dtype)} {op}")
                assert_costs(new, old)


@pytest.mark.parametrize("n_dims", [0, 1, 4, 6])
@pytest.mark.parametrize("shape", GRIDS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("axis", [0, 1])
def test_reduce_matches_the_ufunc_reduce_and_the_loop(n_dims, shape, layout, axis):
    _check_reduce(n_dims, shape, layout, axis)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("lanes", [1, 3])
def test_batched_reduce_matches_the_ufunc_reduce_and_the_loop(axis, lanes):
    _check_reduce(4, "square", "block", axis, lanes)


@pytest.mark.parametrize("axis", [0, 1])
def test_sanitized_reduce_matches_the_ufunc_reduce_and_the_loop(axis):
    _check_reduce(4, "square", "block_cyclic:2", axis, sanitize=True)


# -- reduce_all ------------------------------------------------------------------------


SUBCUBE_CASES = [
    (0, ()),
    (1, (0,)),
    (4, (0, 1, 2, 3)),
    (4, (3, 1)),
    (6, (0, 2, 5)),
    (6, (5, 0, 2)),
    (10, (5, 6, 7, 8, 9)),
    (10, (9, 3, 0)),
]


@pytest.mark.parametrize("n_dims,dims", SUBCUBE_CASES)
@pytest.mark.parametrize("lanes", [None, 1, 5])
def test_reduce_all_matches_the_exchange_loop(n_dims, dims, lanes):
    rng = np.random.default_rng([n_dims, len(dims), lanes or 0])
    new, old = twins(n_dims, lanes)
    local = (3,) if n_dims < 6 else ()
    with np.errstate(all="ignore"):
        for dtype in DTYPES:
            data = make_values(rng, (new.p,) + local + lane_shape(new), dtype)
            for op in ops_for(dtype):
                got = comm.reduce_all(new, PVar(new, data), op, dims)
                want = ref_reduce_all(old, PVar(old, data), op, dims)
                assert_bits(got.data, want.data, f"{np.dtype(dtype)} {op}")
                assert_costs(new, old)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("op", ["max", "min", "sum"])
def test_reduce_all_keeps_nan_payloads_and_signed_zeros(dtype, op):
    """Partners holding +0.0/-0.0 or two different NaNs: the loop passes
    each member's own block as the first operand, so partners end with
    different signs or payloads, and the replay must leave each member
    exactly what the loop leaves it."""
    new, old = twins(4)
    zeros = np.array([0.0, -0.0] * 8, dtype=dtype)
    uint, quiet = NAN_BITS[np.dtype(dtype)]
    nans = (uint(quiet) | np.arange(1, 17).astype(uint)).view(dtype)
    for data in (zeros, nans, np.where(np.arange(16) % 4 < 2, zeros, nans)):
        for dims in ((0,), (1, 0), (0, 1, 2, 3), (3, 0, 2)):
            got = comm.reduce_all(new, PVar(new, data), op, dims)
            want = ref_reduce_all(old, PVar(old, data), op, dims)
            assert_bits(got.data, want.data, f"{op} over {dims}")
            assert_costs(new, old)
    # The loop leaves partners with differing bits (NaN payloads for every
    # op, zero signs for max and min), so an operand swap cannot pass.
    for data in (nans, zeros) if op != "sum" else (nans,):
        loop = ref_reduce_all(old, PVar(old, data), op, (0,)).data
        assert loop.tobytes() != loop[old.pids() ^ 1].tobytes()


# -- the matrix-vector product ------------------------------------------------------


def _matvec(session, A, x, layout):
    M = session.matrix(A, layout=layout)
    return M.matvec(session.row_vector(x, like=M)).to_numpy()


@pytest.mark.parametrize("abft", [False, True])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_matvec_costs_equal_with_the_plan_cache_on_and_off(abft, dtype):
    """With ABFT each exchanged block carries a checksum word, and the
    replay charges it as ``Hypercube.exchange`` does."""
    rng = np.random.default_rng([int(abft), np.dtype(dtype).num])
    A = make_values(rng, (12, 9), np.int8).astype(dtype)
    x = make_values(rng, (9,), np.int8).astype(dtype)
    results, snaps = [], []
    for plan_cache in (True, False):
        s = Session(6, plan_cache=plan_cache, abft=abft)
        results.append(_matvec(s, A, x, "block"))
        snaps.append(s.snapshot())
    assert_bits(results[0], results[1], "result")
    assert snaps[0] == snaps[1]


@pytest.mark.parametrize("plan_cache", [True, False])
def test_reduce_all_under_abft_charges_the_checksum_word(plan_cache):
    new, old = twins(4, plan_cache=plan_cache, abft=True)
    bare = Session(4, plan_cache=plan_cache).machine
    data = np.arange(16 * 3, dtype=np.int64).reshape(16, 3)
    got = comm.reduce_all(new, PVar(new, data), "sum", (2, 0))
    want = ref_reduce_all(old, PVar(old, data), "sum", (2, 0))
    comm.reduce_all(bare, PVar(bare, data), "sum", (2, 0))
    assert_bits(got.data, want.data, "sum")
    assert_costs(new, old)
    assert new.snapshot().elements_transferred == 2 * 16 * (3 + 1)
    assert bare.snapshot().elements_transferred == 2 * 16 * 3


@pytest.mark.parametrize("lanes", [1, 4])
@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.bool_, np.float64])
def test_batched_lanes_equal_their_scalar_runs(lanes, dtype):
    """distribute, the product and reduce on a batched machine: every lane
    is bit-identical to its scalar run, costs included."""
    rng = np.random.default_rng([lanes, np.dtype(dtype).num])
    A = make_values(rng, (lanes, R, C), dtype)
    X = make_values(rng, (lanes, C), dtype)
    s = BatchSession(4, n_runs=lanes)
    emb = MatrixEmbedding.default(s.machine, R, C, layout="cyclic")
    M = emb.scatter(np.moveaxis(A, 0, -1))
    vec_emb = RowAlignedEmbedding(emb, None)
    x = vec_emb.scatter(np.moveaxis(X, 0, -1))
    with np.errstate(all="ignore"):
        tiled = P.distribute(x, vec_emb, emb, 0)
        y, _ = P.reduce(PVar(s.machine, M.data * tiled.data), emb, 1, "sum")
        for k in range(lanes):
            t = Session(4)
            e = MatrixEmbedding.default(t.machine, R, C, layout="cyclic")
            ve = RowAlignedEmbedding(e, None)
            tk = P.distribute(ve.scatter(X[k]), ve, e, 0)
            yk, _ = P.reduce(
                PVar(t.machine, e.scatter(A[k]).data * tk.data), e, 1, "sum"
            )
            assert_bits(tiled.data[..., k], tk.data, f"tiled lane {k}")
            assert_bits(y.data[..., k], yk.data, f"reduced lane {k}")
            assert s.lane_snapshot(k) == t.snapshot()


def test_matvec_comm_shape_matches_the_reference():
    """The benchmark's configuration: a 64 × 64 integer matvec at p = 1024."""
    rng = np.random.default_rng(5)
    A = rng.integers(-9, 10, size=(64, 64), dtype=np.int64)
    x = rng.integers(-9, 10, size=64, dtype=np.int64)
    new, old = twins(10)
    emb_new, emb_old = (MatrixEmbedding.default(m, 64, 64) for m in (new, old))
    vec_new, vec_old = (RowAlignedEmbedding(e, None) for e in (emb_new, emb_old))
    X = P.distribute(vec_new.scatter(x), vec_new, emb_new, 0)
    got, _ = P.reduce(
        PVar(new, emb_new.scatter(A).data * X.data), emb_new, 1, "sum"
    )
    X = ref_distribute(vec_old.scatter(x), vec_old, emb_old, 0)
    want = ref_reduce(
        PVar(old, emb_old.scatter(A).data * X.data), emb_old, 1, "sum"
    )
    assert_bits(got.data, want.data, "y")
    assert_costs(new, old)
    y = ColAlignedEmbedding(emb_new, None).gather(got)
    assert np.array_equal(y, A @ x)
