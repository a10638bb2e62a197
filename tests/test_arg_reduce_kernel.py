"""The arg-reduce kernel against the five copies it replaced.

``collectives.arg_reduce_slots`` (the local stage) and
``collectives.arg_reduce_subcubes`` (the subcube stage) replaced three
local scans (``DistributedVector``, ``primitives.local_reduce_loc``,
``NaiveVector``) and two subcube combines (``reduce_all_loc``'s
gather/scatter replay through a subcube member table, and the naive
baseline's ``_group_arg``).  Those five are copied below as references.
Every arg-reduce must still return the same index bytes and value bytes,
charge the same ``CostSnapshot`` and ``phase_times`` and build the same
``PVar``\\ s.  One difference is intended: on a ±0.0 tie the value is the
winning element's own, as the exchange loop returns it, where the
references returned whichever zero NumPy's ``max``/``min`` picked.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import Session, comm
from repro.algorithms.naive import NaiveMatrix, NaiveVector
from repro.batch import BatchSession
from repro.comm.collectives import arg_reduce_slots, arg_reduce_subcubes
from repro.comm.ops import get_op
from repro.core import DistributedMatrix, DistributedVector
from repro.embeddings import (
    ColAlignedEmbedding,
    MatrixEmbedding,
    RowAlignedEmbedding,
    VectorOrderEmbedding,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.machine.pvar import PVar

INT64_MAX = np.iinfo(np.int64).max


# -- the parent's code, copied as the reference ---------------------------------


def ref_vector_scan(data, mask, gi, mode):
    """``DistributedVector.argreduce``'s local scan (slot axis 1)."""
    op = get_op("max" if mode == "max" else "min")
    ident = op.identity(data.dtype)
    data = np.where(mask, data, ident)
    if data.ndim > gi.ndim:
        gi = gi[..., None]
    gidx = np.where(mask, gi, INT64_MAX)
    if mode == "max":
        best_val = data.max(axis=1)
    else:
        best_val = data.min(axis=1)
    extreme = data == np.expand_dims(best_val, 1)
    best_idx = np.where(extreme, gidx, INT64_MAX).min(axis=1)
    best_idx = np.where(best_val == ident, INT64_MAX, best_idx)
    return best_val, best_idx


def ref_naive_scan(data, mask, gi, mode):
    """``NaiveVector.argreduce``'s local scan (unbatched, slot axis 1)."""
    op = get_op("max" if mode == "max" else "min")
    ident = op.identity(data.dtype)
    data = np.where(mask, data, ident)
    gidx = np.where(mask, gi, INT64_MAX)
    best_val = data.max(axis=1) if mode == "max" else data.min(axis=1)
    extreme = data == best_val[:, None]
    best_idx = np.where(extreme, gidx, INT64_MAX).min(axis=1)
    best_idx = np.where(best_val == ident, INT64_MAX, best_idx)
    return best_val, best_idx


def ref_matrix_scan(data, mask, base, local_axis, mode):
    """``primitives.local_reduce_loc``'s scan (``base`` as it built it)."""
    op = get_op("max" if mode == "max" else "min")
    ident = op.identity(data.dtype)
    data = np.where(mask, data, ident)
    gidx = np.broadcast_to(base, data.shape)
    gidx = np.where(mask, gidx, INT64_MAX)
    if mode == "max":
        best_slot = np.argmax(data, axis=local_axis)
    else:
        best_slot = np.argmin(data, axis=local_axis)
    best_val = np.take_along_axis(
        data, np.expand_dims(best_slot, local_axis), local_axis
    ).squeeze(local_axis)
    extreme = np.expand_dims(best_val, local_axis) == data
    tie_idx = np.where(extreme, gidx, INT64_MAX).min(axis=local_axis)
    best_idx = np.where(best_val == ident, INT64_MAX, tie_idx)
    return best_val, best_idx


def ref_subcube_members(machine, dims):
    """The removed ``_subcube_members`` table: ``(sub_of_pid, members)``."""
    mask = sum(1 << d for d in dims)
    base = machine.pids() & ~mask
    uniq, sub_of_pid = np.unique(base, return_inverse=True)
    j = np.arange(1 << len(dims), dtype=np.int64)
    spread = np.zeros_like(j)
    for t, d in enumerate(dims):
        spread |= ((j >> t) & 1) << d
    return sub_of_pid, uniq[:, None] | spread[None, :]


def ref_reduce_all_loc(machine, value, index, dims, mode):
    """``reduce_all_loc``: the gather replay, else the exchange loop."""
    dims = tuple(dims)
    if (
        machine.plans.enabled
        and dims
        and index.dtype.kind in "iu"
        and not (value.dtype.kind == "f" and np.isnan(value.data).any())
    ):
        sub_of_pid, members = ref_subcube_members(machine, dims)
        mv = value.data[members]
        mi = index.data[members]
        best = mv.max(axis=1) if mode == "max" else mv.min(axis=1)
        is_best = mv == np.expand_dims(best, 1)
        sentinel = np.iinfo(mi.dtype).max
        win_idx = np.where(is_best, mi, sentinel).min(axis=1)
        ls = value.local_size
        for d in dims:
            machine.charge_comm_round(ls, dim=d)
            machine.charge_comm_round(ls, dim=d)
            machine.charge_flops(3 * ls)
        return (
            PVar(machine, best[sub_of_pid]),
            PVar(machine, win_idx[sub_of_pid]),
        )
    val, idx = value, index
    for d in dims:
        rv = machine.exchange(val, d)
        ri = machine.exchange(idx, d)
        if mode == "max":
            better = rv.data > val.data
        else:
            better = rv.data < val.data
        tie = (rv.data == val.data) & (ri.data < idx.data)
        take = better | tie
        new_val = np.where(take, rv.data, val.data)
        new_idx = np.where(take, ri.data, idx.data)
        machine.charge_flops(3 * val.local_size)
        val = PVar(machine, new_val)
        idx = PVar(machine, new_idx)
    return val, idx


def ref_group_arg(machine, val, idx, dims, mode):
    """The removed ``naive._group_arg``."""
    if not dims:
        return val, idx
    mask = sum(1 << d for d in dims)
    keys = machine.pids() & ~mask
    order = np.argsort(keys, kind="stable")
    gsize = 1 << len(dims)
    v = val[order].reshape(machine.p // gsize, gsize, *val.shape[1:])
    i = idx[order].reshape(machine.p // gsize, gsize, *idx.shape[1:])
    best = v.max(axis=1) if mode == "max" else v.min(axis=1)
    ties = v == np.expand_dims(best, 1)
    best_i = np.where(ties, i, INT64_MAX).min(axis=1)
    out_v = np.empty_like(val)
    out_i = np.empty_like(idx)
    out_v[order] = np.repeat(best, gsize, axis=0)
    out_i[order] = np.repeat(best_i, gsize, axis=0)
    return out_v, out_i


def _vector_mask(vec, valid):
    mask = vec.embedding.valid_mask()
    if vec.pvar.data.ndim > mask.ndim:
        mask = mask[..., None]
    if valid is not None:
        mask = mask & valid.pvar.data.astype(bool)
        vec.machine.charge_flops(vec.pvar.local_size)
    return mask


def _read(machine, vec, val_pv, idx_pv):
    pid = vec.embedding.owner_slot_scalar(0)[0]
    value = machine.read_scalar(val_pv, pid=pid)
    index = machine.read_scalar(idx_pv, pid=pid)
    if machine.n_runs is not None:
        return value, np.where(index == INT64_MAX, -1, index)
    index = int(index)
    return value, -1 if index == INT64_MAX else index


def ref_vector_argreduce(vec, mode, valid=None):
    """``DistributedVector.argreduce`` with its charges."""
    machine = vec.machine
    mask = _vector_mask(vec, valid)
    best_val, best_idx = ref_vector_scan(
        vec.pvar.data, mask, vec.embedding.global_indices(), mode
    )
    ls = vec.pvar.local_size
    machine.charge_local(ls)
    machine.charge_flops(ls)
    machine.charge_flops(ls)
    val_pv, idx_pv = ref_reduce_all_loc(
        machine, PVar(machine, best_val), PVar(machine, best_idx),
        vec._reduce_dims(), mode,
    )
    return _read(machine, vec, val_pv, idx_pv)


def ref_naive_vector_argreduce(vec, mode, valid=None):
    """``NaiveVector.argreduce`` with its charges."""
    machine = vec.machine
    mask = _vector_mask(vec, valid)
    best_val, best_idx = ref_naive_scan(
        vec.pvar.data, mask, vec.embedding.global_indices(), mode
    )
    ls = vec.pvar.local_size
    machine.charge_local(ls)
    machine.charge_flops(ls)
    machine.charge_flops(ls)
    dims = vec._reduce_dims()
    sends = (1 << len(dims)) - 1
    if sends:
        machine.charge_comm_round(2.0, rounds=sends)
    machine.charge_flops(3.0 * sends)
    v, i = ref_group_arg(machine, best_val, best_idx, dims, mode)
    return _read(machine, vec, PVar(machine, v), PVar(machine, i))


def _matrix_partials(M, axis, mode, valid):
    """``primitives.local_reduce_loc`` with its charges."""
    machine, emb, pvar = M.machine, M.embedding, M.pvar
    mask = emb.valid_mask()
    if pvar.data.ndim > mask.ndim:
        mask = mask[..., None]
    if valid is not None:
        mask = mask & valid.pvar.data.astype(bool)
        machine.charge_flops(pvar.local_size)
    machine.charge_local(pvar.local_size)
    if axis == 1:
        base, local_axis = emb.global_cols()[:, None, :], 2
    else:
        base, local_axis = emb.global_rows()[:, :, None], 1
    base = base.reshape(base.shape + (1,) * (pvar.data.ndim - base.ndim))
    best_val, best_idx = ref_matrix_scan(pvar.data, mask, base, local_axis, mode)
    machine.charge_flops(pvar.local_size)
    machine.charge_flops(pvar.local_size)
    dims = emb.col_dims if axis == 1 else emb.row_dims
    return PVar(machine, best_val), PVar(machine, best_idx), dims


def ref_matrix_argreduce(M, axis, mode, valid=None):
    """``primitives.reduce_loc`` with its charges: (values, indices) data."""
    machine = M.machine
    val_pv, idx_pv, dims = _matrix_partials(M, axis, mode, valid)
    val_pv, idx_pv = ref_reduce_all_loc(machine, val_pv, idx_pv, dims, mode)
    cleaned = np.where(idx_pv.data == INT64_MAX, -1, idx_pv.data)
    return val_pv.data, PVar(machine, cleaned).data


def ref_naive_matrix_argreduce(M, axis, mode, valid=None):
    """``NaiveMatrix.argreduce`` with its charges."""
    machine = M.machine
    val, idx, dims = _matrix_partials(M, axis, mode, valid)
    volume = 2.0 * val.local_size
    sends = (1 << len(dims)) - 1
    if sends:
        machine.charge_comm_round(volume, rounds=sends)
    machine.charge_flops(3.0 * val.local_size * sends)
    if sends:
        machine.charge_comm_round(volume, rounds=sends)
    v, i = ref_group_arg(machine, val.data, idx.data, dims, mode)
    i = np.where(i == INT64_MAX, -1, i)
    return PVar(machine, v).data, PVar(machine, i).data


# -- data --------------------------------------------------------------------------


KINDS = ("ties", "special", "ident")
DTYPES = (np.float64, np.int64, np.bool_)


def make_values(rng, shape, dtype, kind, mode):
    """Values with many ties; ``special`` adds ±inf and NaN, ``ident``
    the op identity.  Float zeros carry random signs."""
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        out = rng.random(shape) < 0.5
        if kind == "ident":
            out[rng.random(shape) < 0.6] = mode == "min"
        return out
    out = rng.integers(-2, 3, size=shape).astype(dtype)
    ident = get_op(mode).identity(dtype)
    if dtype.kind == "f":
        out = np.copysign(out, rng.choice([-1.0, 1.0], size=shape))
        if kind == "special":
            u = rng.random(shape)
            out[u < 0.08] = np.inf
            out[(u >= 0.08) & (u < 0.16)] = -np.inf
            out[(u >= 0.16) & (u < 0.2)] = np.nan
    elif kind == "special":
        info = np.iinfo(dtype)
        u = rng.random(shape)
        out[u < 0.1] = info.max
        out[(u >= 0.1) & (u < 0.2)] = info.min
    if kind == "ident":
        out[rng.random(shape) < 0.5] = ident
    return out


def assert_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what}: {got} != {want}"


def expect_winner(ref_val, idx, winner, missing):
    """The reference value, except a ±0.0 extreme with a winner, which is
    the winning element itself."""
    ref_val = np.asarray(ref_val)
    if ref_val.dtype.kind != "f":
        return ref_val
    fix = (ref_val == 0) & (np.asarray(idx) != missing)
    return np.where(fix, winner, ref_val).astype(ref_val.dtype)


# -- the local stage -----------------------------------------------------------------


def _block(rng, p, slots, lanes, dtype, kind, mode, n_candidates_zero=True):
    lane_shape = () if lanes is None else (lanes,)
    data = make_values(rng, (p, slots) + lane_shape, dtype, kind, mode)
    mask = rng.random((p, slots)) < 0.7
    if n_candidates_zero:
        mask[0] = False  # an all-masked slice
    if lanes is not None:
        mask = mask[..., None] & (rng.random((p, slots, lanes)) < 0.9)
    # increasing global indices along each processor's slots (cyclic order)
    gi = np.arange(slots)[None, :] * p + np.arange(p)[:, None]
    return data, mask, gi


def _winner_slot_value(data, mask, gi, idx, mode):
    ident = get_op(mode).identity(data.dtype)
    masked = np.where(mask, data, ident)
    g = gi if gi.ndim == masked.ndim else gi[..., None]
    hit = np.broadcast_to(g, masked.shape) == np.expand_dims(idx, 1)
    slot = (hit & mask).argmax(axis=1)
    return np.take_along_axis(masked, np.expand_dims(slot, 1), 1).squeeze(1)


@pytest.mark.parametrize("slots", [1, 2, 4, 7, 25])
@pytest.mark.parametrize("lanes", [None, 1, 5])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mode", ["max", "min"])
def test_local_stage_matches_the_vector_and_naive_scans(slots, lanes, dtype, mode):
    rng = np.random.default_rng([slots, lanes or 0, np.dtype(dtype).num])
    for kind in KINDS:
        data, mask, gi = _block(rng, 16, slots, lanes, dtype, kind, mode)
        g = gi if lanes is None else gi[..., None]
        val, idx = arg_reduce_slots(data, mask, g, 1, mode)
        refs = [ref_vector_scan(data, mask, gi, mode)]
        if lanes is None:
            refs.append(ref_naive_scan(data, mask, gi, mode))
        winner = _winner_slot_value(data, mask, gi, idx, mode)
        for ref_val, ref_idx in refs:
            assert_bits(idx, ref_idx, f"index ({kind})")
            assert_bits(
                val, expect_winner(ref_val, idx, winner, INT64_MAX),
                f"value ({kind})",
            )


@pytest.mark.parametrize("local_axis", [1, 2])
@pytest.mark.parametrize("lanes", [None, 5])
@pytest.mark.parametrize("dtype", DTYPES)
def test_local_stage_matches_the_matrix_scan(local_axis, lanes, dtype):
    rng = np.random.default_rng([local_axis, lanes or 0, np.dtype(dtype).num])
    p, lr, lc = 8, 3, 7
    lane_shape = () if lanes is None else (lanes,)
    for mode, kind in itertools.product(("max", "min"), KINDS):
        data = make_values(rng, (p, lr, lc) + lane_shape, dtype, kind, mode)
        mask = rng.random((p, lr, lc) + (1,) * len(lane_shape)) < 0.7
        mask[0] = False
        if local_axis == 2:
            base = (np.arange(lc)[None, :] * 4 + np.arange(p)[:, None] % 4)
            base = base[:, None, :]
        else:
            base = (np.arange(lr)[None, :] * 2 + np.arange(p)[:, None] // 4)
            base = base[:, :, None]
        base = base.reshape(base.shape + (1,) * len(lane_shape))
        val, idx = arg_reduce_slots(data, mask, base, local_axis, mode)
        ref_val, ref_idx = ref_matrix_scan(data, mask, base, local_axis, mode)
        assert_bits(idx, ref_idx, f"index ({mode}, {kind})")
        # The matrix scan already returned the first extremal slot's own
        # element, which is the winner's: bit-identical, ±0.0 included.
        assert_bits(val, ref_val, f"value ({mode}, {kind})")


def test_single_slot_nan_keeps_the_sentinel():
    data = np.array([[np.nan], [1.0], [-0.0]])
    mask = np.ones((3, 1), dtype=bool)
    gi = np.array([[2], [5], [7]])
    val, idx = arg_reduce_slots(data, mask, gi, 1, "max")
    assert np.isnan(val[0]) and idx[0] == INT64_MAX
    assert idx.tolist()[1:] == [5, 7]
    assert np.signbit(val[2])


# -- the subcube stage ------------------------------------------------------------------


def _partials(rng, machine, local, dtype, kind, mode):
    """Partials as the local stage leaves them: unique indices, the
    sentinel on identity values, and one all-masked subcube."""
    lanes = () if machine.n_runs is None else (machine.n_runs,)
    shape = (machine.p,) + local + lanes
    value = make_values(rng, shape, dtype, kind, mode)
    index = rng.permutation(int(np.prod(shape))).reshape(shape).astype(np.int64)
    ident = get_op(mode).identity(value.dtype)
    index[value == ident] = INT64_MAX
    value[:2] = ident  # pids 0 and 1 share every subcube with dim 0 only
    index[:2] = INT64_MAX
    return value, index


SUBCUBE_CASES = [
    (0, ()),
    (1, (0,)),
    (4, (0, 1, 2, 3)),
    (4, (3, 1)),
    (6, (0, 2, 5)),
    (10, (0, 2, 5)),
    (10, (5, 6, 7, 8, 9)),
]


def _assert_costs(new, old):
    """Equal ``CostSnapshot`` fields and ``phase_times`` (per lane when
    batched)."""
    a, b = new.snapshot(), old.snapshot()
    for field in ("time", "flops", "elements_transferred", "comm_rounds",
                  "local_moves"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    a, b = new.counters.phase_times, old.counters.phase_times
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


def _session(n_dims, lanes, plan_cache):
    if lanes is None:
        return Session(n_dims, plan_cache=plan_cache)
    return BatchSession(n_dims, n_runs=lanes, plan_cache=plan_cache)


@pytest.mark.parametrize("n_dims,dims", SUBCUBE_CASES)
@pytest.mark.parametrize("lanes", [None, 1, 5])
@pytest.mark.parametrize("plan_cache", [True, False])
def test_reduce_all_loc_matches_the_gather_replay(n_dims, dims, lanes, plan_cache):
    rng = np.random.default_rng([n_dims, len(dims), lanes or 0])
    for dtype, mode, kind in itertools.product(DTYPES, ("max", "min"), KINDS):
        local = (3,) if n_dims < 6 else ()
        new = _session(n_dims, lanes, plan_cache).machine
        old = _session(n_dims, lanes, plan_cache).machine
        value, index = _partials(rng, new, local, dtype, kind, mode)
        v, i = comm.reduce_all_loc(
            new, PVar(new, value), PVar(new, index), dims, mode
        )
        rv, ri = ref_reduce_all_loc(
            old, PVar(old, value), PVar(old, index), dims, mode
        )
        loop = _session(n_dims, lanes, False).machine
        lv, li = comm.reduce_all_loc(
            loop, PVar(loop, value), PVar(loop, index), dims, mode
        )
        what = f"{np.dtype(dtype)} {mode} {kind}"
        _assert_costs(new, old)
        assert_bits(i.data, ri.data, f"index ({what})")
        # The exchange loop's value is the winner's own partial.
        assert_bits(
            v.data, expect_winner(rv.data, i.data, lv.data, INT64_MAX),
            f"value ({what})",
        )
        if not (value.dtype.kind == "f" and np.isnan(value).any()):
            assert_bits(v.data, lv.data, f"cache vs loop value ({what})")
            assert_bits(i.data, li.data, f"cache vs loop index ({what})")


@pytest.mark.parametrize("n_dims,dims", SUBCUBE_CASES)
def test_subcube_stage_matches_the_naive_group_combine(n_dims, dims):
    rng = np.random.default_rng([n_dims, len(dims), 7])
    machine = Session(n_dims).machine
    loop = Session(n_dims, plan_cache=False).machine
    for dtype, mode, kind in itertools.product(DTYPES, ("max", "min"), KINDS):
        value, index = _partials(rng, machine, (2,), dtype, kind, mode)
        v, i = arg_reduce_subcubes(machine.n, value, index, dims, mode)
        rv, ri = ref_group_arg(machine, value, index, dims, mode)
        lv, _ = comm.reduce_all_loc(
            loop, PVar(loop, value), PVar(loop, index), dims, mode
        )
        what = f"{np.dtype(dtype)} {mode} {kind}"
        assert_bits(i, ri, f"index ({what})")
        # NaN subcubes keep NaN and the sentinel, as _group_arg did.
        assert_bits(v, expect_winner(rv, i, lv.data, INT64_MAX), what)


# -- through the public arg-reduces ---------------------------------------------------


def _host(rng, shape, lanes, dtype, kind, mode):
    lane_shape = () if lanes is None else (lanes,)
    return make_values(rng, shape + lane_shape, dtype, kind, mode)


def _scatter_matrix(machine, host, layout, cls=DistributedMatrix):
    R, C = host.shape[:2]
    emb = MatrixEmbedding.default(machine, R, C, layout=layout)
    return cls(emb.scatter(host), emb)


def _vectors(machine, M, host_of, layout):
    """Vector-order, replicated aligned and resident aligned vectors."""
    R = M.shape[0]
    out = [("order", VectorOrderEmbedding(machine, R, layout))]
    out.append(("replicated", ColAlignedEmbedding(M.embedding, None)))
    out.append(("resident", ColAlignedEmbedding(M.embedding, 0)))
    out.append(("row-resident", RowAlignedEmbedding(
        MatrixEmbedding.default(machine, M.shape[1], R, layout=layout), 0)))
    return [(name, emb, emb.scatter(host_of(emb))) for name, emb in out]


def _phased(machine, fn, *args):
    with machine.phase("search"):
        return fn(*args)


def _winner_of_matrix(host, axis, g, idx):
    """The element each (slice, winning index) names; ``host`` is (R, C[, runs])."""
    safe = np.where(idx < 0, 0, idx)
    if host.ndim == 3:
        lanes = np.arange(host.shape[2])
        g = g[..., None]
        return host[g, safe, lanes] if axis == 1 else host[safe, g, lanes]
    return host[g, safe] if axis == 1 else host[safe, g]


MATRIX_CASES = [
    # (n_dims, R, C): slot counts from 1 (p = 2**10) to 25 (p = 1)
    (0, 5, 25),
    (1, 7, 9),
    (4, 9, 13),
    (10, 33, 40),
]


@pytest.mark.parametrize("n_dims,R,C", MATRIX_CASES)
@pytest.mark.parametrize("lanes", [None, 1, 5])
@pytest.mark.parametrize("plan_cache", [True, False])
def test_matrix_argreduce_matches_the_parent(n_dims, R, C, lanes, plan_cache):
    rng = np.random.default_rng([n_dims, R, C, lanes or 0])
    cases = itertools.product(
        DTYPES, ("max", "min"), (0, 1), ("block", "cyclic", "block_cyclic:2")
    )
    for dtype, mode, axis, layout in cases:
        kind = KINDS[rng.integers(len(KINDS))]
        host = _host(rng, (R, C), lanes, dtype, kind, mode)
        keep = _host(rng, (R, C), lanes, np.bool_, "ties", mode)
        new = _session(n_dims, lanes, plan_cache).machine
        old = _session(n_dims, lanes, plan_cache).machine
        got = []
        for machine in (new, old):
            M = _scatter_matrix(machine, host, layout)
            valid = _scatter_matrix(machine, keep, layout)
            got.append((M, valid))
        (M, valid), (M_old, valid_old) = got
        for use_valid in (False, True):
            v, i = _phased(
                new, M.argreduce, axis, mode, valid if use_valid else None
            )
            rv, ri = _phased(
                old, ref_matrix_argreduce, M_old, axis, mode,
                valid_old if use_valid else None,
            )
            what = f"{np.dtype(dtype)} {mode} axis={axis} {layout} {kind}"
            masked = np.where(keep, host, get_op(mode).identity(host.dtype)) \
                if use_valid else host
            winner = _winner_of_matrix(
                masked, axis, v.embedding.global_indices(), i.pvar.data
            )
            assert_bits(i.pvar.data, ri, f"index ({what})")
            assert_bits(v.pvar.data, expect_winner(rv, ri, winner, -1), what)
        _assert_costs(new, old)


@pytest.mark.parametrize("n_dims", [0, 1, 4, 10])
@pytest.mark.parametrize("lanes", [None, 1, 5])
@pytest.mark.parametrize("plan_cache", [True, False])
def test_vector_argreduce_matches_the_parent(n_dims, lanes, plan_cache):
    rng = np.random.default_rng([n_dims, lanes or 0, 3])
    R, C = 19, 6
    for dtype, mode, layout in itertools.product(
        DTYPES, ("max", "min"), ("block", "cyclic", "block_cyclic:2")
    ):
        kind = KINDS[rng.integers(len(KINDS))]
        host = _host(rng, (R,), lanes, dtype, kind, mode)
        keep = _host(rng, (R,), lanes, np.bool_, "ties", mode)
        shape_host = _host(rng, (R, C), lanes, np.float64, "ties", mode)
        new = _session(n_dims, lanes, plan_cache).machine
        old = _session(n_dims, lanes, plan_cache).machine
        pairs = []
        for machine in (new, old):
            M = _scatter_matrix(machine, shape_host, layout)
            vecs = _vectors(machine, M, lambda emb: host, layout)
            masks = _vectors(machine, M, lambda emb: keep, layout)
            pairs.append([
                (name, DistributedVector(pv, emb),
                 DistributedVector(mpv, emb))
                for (name, emb, pv), (_, _, mpv) in zip(vecs, masks)
            ])
        for (name, vec, valid), (_, vec_old, valid_old) in zip(*pairs):
            for use_valid in (False, True):
                args = (mode, valid if use_valid else None)
                old_args = (mode, valid_old if use_valid else None)
                value, index = _phased(new, vec.argreduce, *args)
                rvalue, rindex = _phased(
                    old, ref_vector_argreduce, vec_old, *old_args
                )
                what = f"{name} {np.dtype(dtype)} {mode} {layout} {kind}"
                winner = _vector_winner(host, keep, use_valid, index, mode)
                assert_bits(index, rindex, f"index ({what})")
                assert_bits(
                    value, expect_winner(rvalue, index, winner, -1), what
                )
        _assert_costs(new, old)


def _vector_winner(host, keep, use_valid, index, mode):
    """The host element the returned index names, as the vector held it."""
    masked = np.where(keep, host, get_op(mode).identity(host.dtype)) \
        if use_valid else host
    safe = np.where(np.asarray(index) < 0, 0, index)
    if masked.ndim == 2:
        return masked[safe, np.arange(masked.shape[1])]
    return masked[safe]


@pytest.mark.parametrize("n_dims", [0, 1, 4])
def test_naive_argreduces_match_the_parent(n_dims):
    rng = np.random.default_rng([n_dims, 11])
    R, C = 11, 14
    for dtype, mode, kind in itertools.product(DTYPES, ("max", "min"), KINDS):
        host = _host(rng, (R, C), None, dtype, kind, mode)
        new, old = Session(n_dims).machine, Session(n_dims).machine
        M = _scatter_matrix(new, host, "block", NaiveMatrix)
        M_old = _scatter_matrix(old, host, "block", NaiveMatrix)
        what = f"{np.dtype(dtype)} {mode} {kind}"
        for axis in (0, 1):
            v, i = _phased(new, M.argreduce, axis, mode)
            rv, ri = _phased(old, ref_naive_matrix_argreduce, M_old, axis, mode)
            winner = _winner_of_matrix(
                host, axis, v.embedding.global_indices(), i.pvar.data
            )
            assert_bits(i.pvar.data, ri, f"matrix index ({what})")
            assert_bits(v.pvar.data, expect_winner(rv, ri, winner, -1), what)
        emb = VectorOrderEmbedding(new, R)
        vec = NaiveVector(emb.scatter(host[:, 0]), emb)
        emb_old = VectorOrderEmbedding(old, R)
        vec_old = NaiveVector(emb_old.scatter(host[:, 0]), emb_old)
        value, index = _phased(new, vec.argreduce, mode)
        rvalue, rindex = _phased(old, ref_naive_vector_argreduce, vec_old, mode)
        assert_bits(index, rindex, f"vector index ({what})")
        assert_bits(
            value, expect_winner(rvalue, index, host[max(index, 0), 0], -1),
            f"vector value ({what})",
        )
        _assert_costs(new, old)


# -- PVars built: the fault injector's bit-flip targets ------------------------------


def _registrations(fn):
    injector = FaultInjector(FaultPlan())
    s = Session(4, plan_cache=True, faults=injector)
    A = np.arange(63.0).reshape(7, 9) % 5
    M = s.matrix(A)
    vec = M.extract(1, 2)
    seen = []
    injector.register_memory = lambda pvar: seen.append(pvar) or pvar
    fn(M, vec)
    return len(seen)


def test_pvars_registered_per_call():
    assert _registrations(lambda M, vec: vec.argreduce("max")) == 4
    assert _registrations(lambda M, vec: M.argreduce(1, "min")) == 5
