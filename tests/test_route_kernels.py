"""The one-pass e-cube sweep and the sparse bookkeeping against the code they
replaced.

``Router.simulate`` routes a healthy machine's message set in one pass over
every dimension, ``spmv``/``spgemm`` aggregate their message keys with a
sort, and ``SparseMatrix.from_coo`` sorts one row-major key.  The replaced
per-dimension loop is copied below as the reference: every ``RouteStats``
field (``dim_congestion`` included) must be ``==`` to it, every round's
link loads ``np.array_equal`` to the loads the loop handed the tracer, and
every charged run must leave the same ``CostSnapshot`` with the plan cache
on, off and under the sanitizer.  CI also runs this file with the plan
cache off, so every call there takes the cold sweep.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import Session
from repro.errors import ConfigError
from repro.machine import Counters, Hypercube, Router
from repro.machine.router import RouteStats
from repro.obs import Tracer
from repro.sparse import SparseMatrix, SparseVector, spgemm, spmv
from repro.sparse.matrix import _coo_canonical
from repro.sparse.primitives import _unique


# -- the replaced code, copied as the reference -------------------------------


def ref_route(machine, src, dst, sizes, tracer=None):
    """The healthy branch of ``Router.simulate`` before the one-pass sweep."""
    cur = src.copy()
    total_time = 0.0
    total_hops = 0.0
    rounds = 0
    worst = 0.0
    round_detail = []
    cm = machine.cost_model
    for d in range(machine.n):
        bit = np.int64(1) << d
        moving = ((cur ^ dst) & bit) != 0
        if not np.any(moving):
            continue
        loads = np.bincount(
            cur[moving], weights=sizes[moving], minlength=machine.p
        )
        congestion = float(loads.max())
        total_time += cm.tau + cm.t_c * congestion
        total_hops += float(sizes[moving].sum())
        worst = max(worst, congestion)
        rounds += 1
        round_detail.append((d, congestion))
        if tracer is not None:
            tracer.on_route_round(d, loads, congestion)
        cur[moving] ^= bit
    return RouteStats(
        rounds=rounds,
        element_hops=total_hops,
        max_congestion=worst,
        time=total_time,
        dim_congestion=tuple(round_detail),
    )


class RoundLog:
    """Records what each routing round hands the tracer."""

    def __init__(self):
        self.rounds = []

    def on_route_round(self, dim, loads, congestion):
        self.rounds.append((dim, None if loads is None else loads.copy(),
                            congestion))


class RecordingTracer(Tracer, RoundLog):
    def __init__(self):
        Tracer.__init__(self)
        RoundLog.__init__(self)

    def on_route_round(self, dim, loads, congestion):
        RoundLog.on_route_round(self, dim, loads, congestion)
        Tracer.on_route_round(self, dim, loads, congestion)


def assert_same_rounds(got, want):
    assert len(got) == len(want)
    for (d, loads, c), (d0, loads0, c0) in zip(got, want):
        assert (d, c) == (d0, c0)
        assert loads.dtype == loads0.dtype
        assert np.array_equal(loads, loads0)


# -- message sets -------------------------------------------------------------

DIMS = (0, 1, 2, 5, 8, 10)
COUNTS = (0, 1, 2, 7, 300, 5000)
KINDS = (
    "random", "self", "repeated", "zeros", "huge", "all_to_one", "permutation",
)


def message_set(n, M, kind, seed=0):
    """``(src, dst, sizes)`` of ``M`` messages on a ``2**n`` cube."""
    p = 1 << n
    rng = np.random.default_rng([n, M, KINDS.index(kind), seed])
    src = rng.integers(0, p, M)
    dst = rng.integers(0, p, M)
    sizes = rng.integers(0, 65, M).astype(np.float64)
    if kind == "self":
        stay = rng.random(M) < 0.5
        dst[stay] = src[stay]
    elif kind == "repeated":
        pick = rng.integers(0, 3, M)
        src = rng.integers(0, p, 3)[pick]
        dst = rng.integers(0, p, 3)[pick]
    elif kind == "zeros":
        # Sizes of +0.0 and -0.0 mixed with ordinary counts.
        sizes = np.where(rng.random(M) < 0.7, 0.0, sizes)
        sizes[rng.random(M) < 0.3] = -0.0
    elif kind == "huge":
        sizes = rng.integers(0, 2**40, M, endpoint=True).astype(np.float64)
    elif kind == "all_to_one":
        dst[:] = rng.integers(0, p)
    elif kind == "permutation":
        M = min(M, p)
        src = rng.permutation(p)[:M]
        dst = rng.permutation(p)[:M]
        sizes = sizes[:M]
    return src.astype(np.int64), dst.astype(np.int64), sizes


CASES = list(itertools.product(DIMS, COUNTS, KINDS))


def _id(case):
    return "n%d-M%d-%s" % case


# -- the sweep ----------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=map(_id, CASES))
def test_sweep_equals_per_dimension_loop(case):
    n, M, kind = case
    src, dst, sizes = message_set(n, M, kind)
    machine = Hypercube(n, plan_cache=False)
    tracer = RecordingTracer()
    machine.attach(tracer)
    log = RoundLog()
    want = ref_route(machine, src, dst, sizes, log)

    got = Router(machine).simulate(src, dst, sizes)
    assert got == want
    assert got.dim_congestion == want.dim_congestion
    assert_same_rounds(tracer.rounds, log.rounds)
    # The uncharged what-if path computes the same record.
    assert Router(machine).simulate(src, dst, sizes, charge=False) == want


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_charged_runs_equal_with_cache_on_off_and_sanitized(n, kind):
    """Each message set routes twice: the second pass replays the cache."""
    sets = [message_set(n, M, kind) for M in COUNTS]
    ref = Counters()
    ref_machine = Hypercube(n, plan_cache=False)
    for src, dst, sizes in sets + sets:
        stats = ref_route(ref_machine, src, dst, sizes)
        ref.charge_transfer(stats.element_hops, stats.rounds, stats.time)

    sessions = {
        "cache": Session(n, plan_cache=True),
        "nocache": Session(n, plan_cache=False),
        "sanitized": Session(n, plan_cache=True, sanitize=True),
    }
    for s in sessions.values():
        for src, dst, sizes in sets + sets:
            Router(s.machine).simulate(src, dst, sizes)
    for name, s in sessions.items():
        assert s.snapshot() == ref.snapshot(), name
    stats = {k: s.machine.counters.plan_stats() for k, s in sessions.items()}
    assert stats["cache"] == stats["sanitized"]
    distinct = len({
        (a.tobytes(), b.tobytes(), c.tobytes()) for a, b, c in sets
    })
    assert stats["cache"]["misses"] == distinct
    assert stats["cache"]["hits"] == 2 * len(sets) - distinct
    assert stats["nocache"] == {"hits": 0, "misses": 0, "evictions": 0}
    # The sanitizer raises on a failed audit; every route was audited.
    checks = sessions["sanitized"].sanitizer.stats.checks
    assert checks["route"] == 2 * len(sets)


# -- the sizes contract -------------------------------------------------------

BAD_SIZES = [
    [0.5, 2.0],
    [-1.0, 5.0],
    [np.nan, 2.0],
    [np.inf, 2.0],
    [-np.inf, 2.0],
    [2.0**53, 0.0],
    [2.0**52, 2.0**52],
]


@pytest.mark.parametrize("plan_cache", [True, False])
@pytest.mark.parametrize("charge", [True, False])
@pytest.mark.parametrize("bad", BAD_SIZES, ids=repr)
def test_sizes_must_be_element_counts(bad, charge, plan_cache):
    s = Session(3, plan_cache=plan_cache)
    router = Router(s.machine)
    src, dst = np.array([0, 1]), np.array([7, 6])
    router.simulate(src, dst, np.array([1.0, 2.0]))
    before = s.snapshot()
    plans = s.machine.counters.plan_stats()
    with pytest.raises(ConfigError, match="integer element"):
        router.simulate(src, dst, np.array(bad), charge=charge)
    assert s.snapshot() == before
    assert s.machine.counters.plan_stats() == plans


def test_largest_exact_volume_still_routes():
    stats = Router(Hypercube(2, plan_cache=False)).simulate(
        np.array([0, 1]), np.array([3, 1]), np.array([2.0**53 - 1, 0.0]),
        charge=False,
    )
    assert stats.element_hops == 2 * (2.0**53 - 1)


def test_route_charge_audit_is_exact_past_2_53_elements():
    """The audit compares the counter with its own addition, not a delta.

    Past ``2**53`` the running total rounds (``2**53 + 3`` is stored as
    ``2**53 + 4``), so ``after - before`` no longer equals an honest charge.
    """
    s = Session(1, plan_cache=False, sanitize=True)
    s.machine.counters.charge_transfer(2.0**53, 0, 0.0)
    Router(s.machine).simulate(np.array([0]), np.array([1]), np.array([3.0]))
    assert s.snapshot().elements_transferred == 2.0**53 + 4.0


# -- sparse bookkeeping --------------------------------------------------------


def _unique_cases():
    rng = np.random.default_rng(5)
    return {
        "empty": np.zeros(0, dtype=np.int64),
        "one": np.array([42], dtype=np.int64),
        "all-equal": np.full(50, -7, dtype=np.int64),
        "random": rng.integers(-1000, 1000, 3000),
        "wide": rng.integers(-(2**62), 2**62, 500),
    }


@pytest.mark.parametrize("flags", [(False, False), (False, True),
                                   (True, False), (True, True)])
@pytest.mark.parametrize("name", sorted(_unique_cases()))
def test_unique_helper_equals_np_unique(name, flags):
    keys = _unique_cases()[name]
    inverse, counts = flags
    got = _unique(keys, return_inverse=inverse, return_counts=counts)
    want = np.unique(keys, return_inverse=inverse, return_counts=counts)
    if not any(flags):
        got, want = (got,), (want,)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(4))
def test_one_key_coo_sort_equals_lexsort(seed):
    rng = np.random.default_rng(seed)
    N, M, nnz = 40, 30, 600  # about half the coordinates repeat
    rows = rng.integers(0, N, nnz)
    cols = rng.integers(0, M, nnz)
    data = rng.standard_normal(nnz)
    order = np.lexsort((cols, rows))
    r, c, d = rows[order], cols[order], data[order]
    starts = np.flatnonzero(np.concatenate(
        [[True], (r[1:] != r[:-1]) | (c[1:] != c[:-1])]
    ))
    want = r[starts], c[starts], np.add.reduceat(d, starts)
    for shape in [(N, M), (2**32, 2**32)]:  # the one-key and two-key sorts
        got = _coo_canonical(rows, cols, data, shape)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_cached_nonzero_maps_are_readonly_and_to_coo_is_fresh():
    s = Session(3)
    A = SparseMatrix.from_dense(
        s.machine, np.arange(48, dtype=np.float64).reshape(6, 8) % 5
    )
    rows = A.row_ids()
    ranks = A.nonzero_ranks()
    assert A.row_ids() is rows and A.nonzero_ranks() is ranks
    for arr in (rows, ranks):
        assert not arr.flags.writeable
    assert np.array_equal(rows, np.repeat(np.arange(6), A.row_nnz()))
    assert np.array_equal(ranks, np.repeat(np.arange(s.machine.p), A.rank_nnz()))
    coo_rows, _, _ = A.to_coo()
    assert coo_rows is not rows and coo_rows.flags.writeable
    coo_rows[:] = -1
    assert np.array_equal(A.row_ids(), np.repeat(np.arange(6), A.row_nnz()))


@pytest.mark.parametrize("plan_cache", [True, False])
def test_repeated_spmv_and_spgemm_charge_alike(plan_cache):
    """The per-matrix maps are built once; every call charges the same."""
    rng = np.random.default_rng(11)
    dense = (rng.random((24, 24)) < 0.2) * rng.integers(1, 5, (24, 24))
    s = Session(4, plan_cache=plan_cache)
    A = SparseMatrix.from_dense(s.machine, dense)
    x = SparseVector.from_numpy(
        s.machine, rng.integers(0, 3, 24), embedding=A.embedding
    )
    deltas = []
    for _ in range(3):
        before = s.snapshot()
        y = spmv(A, x)
        C = spgemm(A, A)
        deltas.append(s.snapshot() - before)
        assert np.array_equal(y.to_numpy(), dense @ x.to_numpy())
        assert np.array_equal(C.to_dense(), dense @ dense)
    assert deltas[0] == deltas[1] == deltas[2]
