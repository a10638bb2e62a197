"""Unit and property tests for the sparse subsystem.

Three layers, all NumPy-only (no scipy — the differential oracle owns the
external references):

* semiring algebra — the registry contract plus Hypothesis checks of the
  axioms (associativity, identity, annihilator, distributivity) on random
  operands, per-semiring dtypes chosen so every check is *exact*;
* embedding / container structure — partition validation, nnz balance,
  COO canonicalization, and error taxonomy (ShapeError for bad extents,
  EmbeddingError for partition disagreements, ConfigError for semantic
  misuse like a fill that is not the semiring zero);
* round-trip conservation — ``from_dense → to_dense`` bit-identity and
  nnz conservation across ``repartition`` / ``rebalance`` under the
  sanitizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Session
from repro.errors import ConfigError, EmbeddingError, ShapeError
from repro.machine import CostModel, Hypercube
from repro.machine.router import Router
from repro.sparse import (
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    SparseEmbedding,
    SparseMatrix,
    SparseVector,
    get_semiring,
    semiring_names,
    spgemm,
    spmv,
)

INT_INF = np.iinfo(np.int64).max


# -- semiring registry -------------------------------------------------------


def test_registry_resolves_names_and_objects():
    assert semiring_names() == ("plus_times", "min_plus", "or_and")
    assert get_semiring("min_plus") is MIN_PLUS
    assert get_semiring(PLUS_TIMES) is PLUS_TIMES
    with pytest.raises(ConfigError, match="unknown semiring"):
        get_semiring("max_plus")


def test_identities_per_dtype():
    assert PLUS_TIMES.zero(np.int64) == 0
    assert PLUS_TIMES.one(np.int64) == 1
    # min_plus's zero is +inf for floats and the saturating max for ints.
    assert MIN_PLUS.zero(np.float64) == np.inf
    assert MIN_PLUS.zero(np.int64) == INT_INF
    assert MIN_PLUS.one(np.float64) == 0.0
    assert OR_AND.zero(np.bool_) == False  # noqa: E712
    assert OR_AND.one(np.bool_) == True  # noqa: E712


# -- semiring axioms (Hypothesis) --------------------------------------------
#
# Dtypes are chosen so equality is exact: small int64 for plus_times (no
# rounding, no overflow), non-negative float64 + inf for min_plus (min is
# exact, and a + min(b, c) rounds identically to min(a + b, a + c)), bool
# for or_and.  min_plus uses the float +inf zero here because int64's
# saturating INT_INF is *not* an arithmetic annihilator — the primitives
# apply it by masking, which test_spmv_masks_absent_entries pins below.

_OPERANDS = {
    "plus_times": st.integers(min_value=-999, max_value=999).map(np.int64),
    "min_plus": st.one_of(
        st.just(np.float64(np.inf)),
        st.integers(min_value=0, max_value=999).map(np.float64),
    ),
    "or_and": st.booleans().map(np.bool_),
}


@st.composite
def semiring_triples(draw):
    name = draw(st.sampled_from(sorted(_OPERANDS)))
    operand = _OPERANDS[name]
    triple = draw(st.tuples(operand, operand, operand))
    return get_semiring(name), triple


@settings(max_examples=200, deadline=None)
@given(semiring_triples())
def test_semiring_axioms(case):
    sr, (a, b, c) = case
    add, mul = sr.add.ufunc, sr.mul
    zero, one = sr.zero(a.dtype), sr.one(a.dtype)
    # additive commutative monoid
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, b) == add(b, a)
    assert add(a, zero) == a
    # multiplicative monoid
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, one) == a
    assert mul(one, a) == a
    # the additive identity annihilates
    assert mul(a, zero) == zero
    assert mul(zero, a) == zero
    # ⊗ distributes over ⊕
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(b, c), a) == add(mul(b, a), mul(c, a))


# -- embeddings --------------------------------------------------------------


def test_partition_validation(unit_machine):
    p = unit_machine.p
    with pytest.raises(ShapeError, match="extent"):
        SparseEmbedding.balanced(unit_machine, 0)
    with pytest.raises(EmbeddingError, match="boundaries"):
        SparseEmbedding(unit_machine, 10, np.zeros(p, dtype=np.int64))
    with pytest.raises(EmbeddingError, match="span"):
        SparseEmbedding(unit_machine, 10, [0] * p + [9])
    with pytest.raises(EmbeddingError, match="non-decreasing"):
        SparseEmbedding(unit_machine, 10, [0, 5, 3, 7, 8, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 10])


def test_nnz_balance_bound(unit_machine, rng):
    """No rank exceeds the ideal nnz share by more than one row's nonzeros."""
    row_nnz = rng.integers(0, 12, size=100)
    emb = SparseEmbedding.nnz_balanced(unit_machine, row_nnz)
    per_rank = [
        int(row_nnz[lo:hi].sum())
        for lo, hi in (emb.rank_range(r) for r in range(unit_machine.p))
    ]
    ideal = row_nnz.sum() / unit_machine.p
    assert max(per_rank) <= ideal + row_nnz.max()
    assert sum(per_rank) == row_nnz.sum()


def test_address_maps_are_consistent(unit_machine, rng):
    row_nnz = rng.integers(0, 9, size=57)
    emb = SparseEmbedding.nnz_balanced(unit_machine, row_nnz)
    idx = np.arange(emb.N)
    ranks = emb.rank_of(idx)
    for g, r in zip(idx, ranks):
        lo, hi = emb.rank_range(int(r))
        assert lo <= g < hi or (lo == hi and g >= lo)
    assert np.array_equal(emb.owner_table(), emb.pid_of_rank(emb.rank_table()))
    assert np.array_equal(emb.rank_of_pid(emb.pid_of_rank(ranks)), ranks)


# -- containers --------------------------------------------------------------


def test_from_coo_sums_duplicates(unit_machine):
    A = SparseMatrix.from_coo(
        unit_machine,
        rows=[2, 0, 2, 2],
        cols=[1, 0, 1, 3],
        data=[5.0, 1.0, 7.0, 2.0],
        shape=(4, 4),
    )
    want = np.zeros((4, 4))
    want[0, 0], want[2, 1], want[2, 3] = 1.0, 12.0, 2.0
    assert A.nnz == 3  # duplicates merged
    assert np.array_equal(A.to_dense(), want)


def test_from_coo_rejects_out_of_range(unit_machine):
    with pytest.raises(ShapeError, match="row index"):
        SparseMatrix.from_coo(unit_machine, [4], [0], [1.0], shape=(4, 4))
    with pytest.raises(ShapeError, match="column index"):
        SparseMatrix.from_coo(unit_machine, [0], [-1], [1.0], shape=(4, 4))
    with pytest.raises(ConfigError, match="layout"):
        SparseMatrix.from_coo(
            unit_machine, [0], [0], [1.0], shape=(4, 4), layout="diag"
        )


def test_empty_matrix_round_trips(unit_machine):
    A = SparseMatrix.from_dense(unit_machine, np.zeros((6, 5)))
    assert A.nnz == 0
    assert np.array_equal(A.to_dense(), np.zeros((6, 5)))
    x = SparseVector.from_numpy(unit_machine, np.arange(5.0))
    y = spmv(A, x)
    assert y.nnz == 0
    B = SparseMatrix.from_dense(unit_machine, np.zeros((5, 6)))
    C = spgemm(A, B)
    assert C.nnz == 0 and C.shape == (6, 6)


def test_spmv_masks_absent_entries(unit_machine):
    """Integer min-plus: absences annihilate by masking, never arithmetic."""
    D = np.array([[1, 4], [2, 0]], dtype=np.int64)
    A = SparseMatrix.from_dense(unit_machine, D)
    x = SparseVector.from_numpy(
        unit_machine, np.array([3, INT_INF], dtype=np.int64), fill=INT_INF
    )
    y = spmv(A, x, "min_plus")
    # column 1 is absent: row 0 sees only 1 + 3, row 1 only 2 + 3 — no
    # INT_INF ever enters an addition (which would wrap negative).
    assert np.array_equal(y.to_numpy(), [4, 5])


def test_error_taxonomy(unit_machine):
    other = Hypercube(2, CostModel.unit())
    A = SparseMatrix.from_dense(unit_machine, np.eye(4))
    x_short = SparseVector.from_numpy(unit_machine, np.ones(3))
    with pytest.raises(ShapeError, match="4 columns"):
        spmv(A, x_short)
    x_far = SparseVector.from_numpy(other, np.ones(4))
    with pytest.raises(ConfigError, match="different machines"):
        spmv(A, x_far)
    # fill must equal the semiring zero or absences would not annihilate
    x_bad_fill = SparseVector.from_numpy(unit_machine, np.ones(4), fill=0.0)
    with pytest.raises(ConfigError, match="not the min_plus zero"):
        spmv(A, x_bad_fill, "min_plus")
    B_far = SparseMatrix.from_dense(other, np.eye(4))
    with pytest.raises(ConfigError, match="different machines"):
        spgemm(A, B_far)
    B_mis = SparseMatrix.from_dense(unit_machine, np.eye(3))
    with pytest.raises(ShapeError):
        spgemm(A, B_mis)
    a = SparseVector.from_numpy(unit_machine, np.ones(8))
    b = SparseVector.from_numpy(
        unit_machine,
        np.ones(8),
        embedding=SparseEmbedding(
            unit_machine, 8, [0] * unit_machine.p + [8]
        ),
    )
    with pytest.raises(EmbeddingError, match="share the sparse partition"):
        a.elementwise(b, np.add, 0.0)


@pytest.mark.parametrize("name", ["plus_times", "min_plus", "or_and"])
def test_spmv_matches_dense_reference(unit_machine, rng, name):
    """In-process differential check against a brute-force dense fold."""
    sr = get_semiring(name)
    dtype = {"plus_times": np.int64, "min_plus": np.float64,
             "or_and": np.bool_}[name]
    D = (rng.random((9, 7)) < 0.4) * rng.integers(1, 6, size=(9, 7))
    D = D.astype(dtype)
    xv = ((rng.random(7) < 0.6) * rng.integers(1, 6, size=7)).astype(dtype)
    zero = sr.zero(dtype)
    xv[xv == dtype(0)] = zero  # absences carry the semiring zero
    A = SparseMatrix.from_dense(unit_machine, np.where(D, D, 0).astype(dtype))
    x = SparseVector.from_numpy(unit_machine, xv, fill=zero)
    got = spmv(A, x, sr).to_numpy()
    want = np.full(9, zero, dtype=got.dtype)
    for i in range(9):
        for j in range(7):
            if D[i, j] != dtype(0) and xv[j] != zero:
                want[i] = sr.add.ufunc(want[i], sr.mul(D[i, j], xv[j]))
    assert np.array_equal(got, want)


# -- round-trip conservation (Hypothesis, under the sanitizer) ---------------


@st.composite
def sparse_instances(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    N = draw(st.integers(min_value=1, max_value=24))
    M = draw(st.integers(min_value=1, max_value=24))
    density = draw(st.floats(min_value=0.0, max_value=0.7))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    layout = draw(st.sampled_from(["nnz", "block"]))
    return n, N, M, density, seed, layout


@settings(max_examples=60, deadline=None)
@given(sparse_instances())
def test_round_trip_and_remap_conserve_nnz(case):
    n, N, M, density, seed, layout = case
    rng = np.random.default_rng(seed)
    dense = (rng.random((N, M)) < density) * rng.integers(
        1, 100, size=(N, M)
    )
    dense = dense.astype(np.int64)
    session = Session(n, sanitize=True)
    A = SparseMatrix.from_dense(session.machine, dense, layout=layout)
    # embed → extract is bit-identical, and nnz matches the host count
    assert np.array_equal(A.to_dense(), dense)
    assert A.nnz == int(np.count_nonzero(dense))
    assert int(A.rank_nnz().sum()) == A.nnz
    # remaps move every nonzero exactly once: nnz and values conserved
    B = A.repartition(SparseEmbedding.balanced(session.machine, N))
    assert B.nnz == A.nnz
    assert np.array_equal(B.to_dense(), dense)
    C = B.rebalance()
    assert C.nnz == A.nnz
    assert np.array_equal(C.to_dense(), dense)
    r, c, d = C.to_coo()
    assert d.size == A.nnz


@settings(max_examples=40, deadline=None)
@given(sparse_instances())
def test_vector_round_trip_under_sanitizer(case):
    n, N, _, density, seed, _ = case
    rng = np.random.default_rng(seed)
    values = ((rng.random(N) < density) * rng.integers(1, 50, size=N)).astype(
        np.int64
    )
    session = Session(n, sanitize=True)
    x = session.sparse_vector(values)
    assert np.array_equal(x.to_numpy(), values)
    assert x.nnz == int(np.count_nonzero(values))
    y = x.copy()
    y.blocks[0] = y.blocks[0].copy()
    assert np.array_equal(y.to_numpy(), values)


# -- flat storage: per-rank views and aliasing -------------------------------


def _skewed_partition(machine, N):
    """Every index on rank ``p // 2``: all other ranks are empty."""
    p = machine.p
    starts = np.where(np.arange(p + 1) <= p // 2, 0, N)
    return SparseEmbedding(machine, N, starts)


def test_blocks_are_views_of_the_flat_values():
    machine = Session(3).machine  # p = 8 > N: some ranks own nothing
    values = np.arange(5, dtype=np.int64)
    for emb in (
        SparseEmbedding.balanced(machine, 5),
        _skewed_partition(machine, 5),
    ):
        x = SparseVector.from_numpy(machine, values, embedding=emb)
        blocks = x.blocks
        assert len(blocks) == machine.p
        for r, blk in enumerate(blocks):
            lo, hi = emb.starts[r], emb.starts[r + 1]
            assert np.array_equal(blk, x.values[lo:hi])
            assert blk.size == 0 or np.shares_memory(blk, x.values)
        assert any(blk.size == 0 for blk in blocks)


def test_vector_outputs_never_alias_operands(unit_machine):
    D = np.array([[1, 0, 2], [0, 3, 0], [4, 0, 5]], dtype=np.int64)
    A = SparseMatrix.from_dense(unit_machine, D)
    a = SparseVector.from_numpy(unit_machine, np.array([1, 0, 7]))
    b = SparseVector.from_numpy(
        unit_machine, np.array([2, 2, 0]), embedding=a.embedding
    )
    host = a.to_numpy()
    saved = [v.values.copy() for v in (a, b)]
    outputs = [
        a.copy(),
        a.elementwise(b, np.add, 0),
        a.map(np.negative, 0),
        spmv(A, a),
    ]
    for out in outputs:
        assert not np.shares_memory(out.values, a.values)
        assert not np.shares_memory(out.values, b.values)
        out.values[:] = 99
    host[:] = -1  # to_numpy hands back a copy too
    for v, want in zip((a, b), saved):
        assert np.array_equal(v.values, want)


def test_repartition_keeps_coo_triplets(unit_machine, rng):
    dense = (rng.random((23, 17)) < 0.3) * rng.integers(1, 9, size=(23, 17))
    A = SparseMatrix.from_dense(unit_machine, dense.astype(np.int64))
    for emb in (
        SparseEmbedding.balanced(unit_machine, 23),
        _skewed_partition(unit_machine, 23),
    ):
        B = A.repartition(emb)
        assert B.embedding is emb
        for got, want in zip(B.to_coo(), A.to_coo()):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(
            B.rank_nnz(),
            [B.row_nnz()[lo:hi].sum() for lo, hi in zip(emb.starts[:-1],
                                                          emb.starts[1:])],
        )


# -- traffic pins: whole-array builders vs the per-rank loops ----------------
#
# The two builders below are the per-rank loops ``spmv`` and ``spgemm``
# used to build their sparse all-to-all, kept as references.  The routed
# (src, dst, sizes) arrays must equal theirs bit for bit and in the same
# order (the order is the route plan key), and replaying the loops'
# charges on a twin session must give the same CostSnapshot and plan
# hits/misses.


@dataclass
class _Traffic:
    src: np.ndarray
    dst: np.ndarray
    sizes: np.ndarray
    send_max: float
    recv_max: float
    ops_max: int


def _traffic(messages, send_words, recv_words, ops_per_rank) -> _Traffic:
    return _Traffic(
        np.array([m[0] for m in messages], dtype=np.int64),
        np.array([m[1] for m in messages], dtype=np.int64),
        np.array([m[2] for m in messages], dtype=np.float64),
        float(send_words.max()),
        float(recv_words.max()),
        int(ops_per_rank.max()),
    )


def _rank_indices(A):
    """The column indices of each rank's CSR block."""
    bounds = A.indptr[A.embedding.starts]
    return [A.indices[bounds[r]:bounds[r + 1]] for r in range(A.machine.p)]


def _reference_spmv_traffic(A, x) -> _Traffic:
    p = A.machine.p
    present = x.to_numpy() != x.fill
    x_rank = x.embedding.rank_table()
    messages = []
    send_words = np.zeros(p, dtype=np.float64)
    recv_words = np.zeros(p, dtype=np.float64)
    ops_per_rank = np.zeros(p, dtype=np.int64)
    for r, idx in enumerate(_rank_indices(A)):
        if idx.size == 0:
            continue
        ops_per_rank[r] = int(present[idx].sum())
        need = np.unique(idx)
        need = need[present[need]]
        if need.size == 0:
            continue
        counts = np.bincount(x_rank[need], minlength=p)
        for o in range(p):
            if counts[o] == 0 or o == r:
                continue
            words = 2.0 * counts[o]
            messages.append(
                (
                    int(x.embedding.pid_of_rank(o)),
                    int(x.embedding.pid_of_rank(r)),
                    words,
                )
            )
            send_words[o] += words
            recv_words[r] += words
    return _traffic(messages, send_words, recv_words, ops_per_rank)


def _reference_spgemm_traffic(A, B) -> _Traffic:
    p = A.machine.p
    b_row_nnz = B.row_nnz()
    b_rank = B.embedding.rank_table()
    messages = []
    send_words = np.zeros(p, dtype=np.float64)
    recv_words = np.zeros(p, dtype=np.float64)
    ops_per_rank = np.zeros(p, dtype=np.int64)
    for r, idx in enumerate(_rank_indices(A)):
        if idx.size == 0:
            continue
        ops_per_rank[r] = int(b_row_nnz[idx].sum())
        need = np.unique(idx)
        need = need[b_row_nnz[need] > 0]
        if need.size == 0:
            continue
        words_per_row = 2.0 * b_row_nnz[need] + 1.0
        owners = b_rank[need]
        for o in range(p):
            if o == r:
                continue
            mask = owners == o
            if not mask.any():
                continue
            words = float(words_per_row[mask].sum())
            messages.append(
                (
                    int(B.embedding.pid_of_rank(o)),
                    int(A.embedding.pid_of_rank(r)),
                    words,
                )
            )
            send_words[o] += words
            recv_words[r] += words
    return _traffic(messages, send_words, recv_words, ops_per_rank)


def _replay_route(machine, t: _Traffic) -> None:
    if t.src.size:
        machine.charge_local(t.send_max)
        Router(machine).simulate(t.src, t.dst, t.sizes)
        machine.charge_local(t.recv_max)


def _replay_spmv(A, x) -> _Traffic:
    t = _reference_spmv_traffic(A, x)
    _replay_route(A.machine, t)
    A.machine.charge_local(A.embedding.max_count)
    if t.ops_max:
        A.machine.charge_flops(t.ops_max)
        A.machine.charge_flops(t.ops_max)
    return t


def _replay_spgemm(A, B) -> _Traffic:
    t = _reference_spgemm_traffic(A, B)
    _replay_route(A.machine, t)
    if t.ops_max:
        A.machine.charge_flops(t.ops_max)
        A.machine.charge_local(t.ops_max)
        A.machine.charge_flops(t.ops_max)
    return t


@pytest.fixture
def routed(monkeypatch):
    """Every ``Router.simulate`` input, recorded as the router sees it."""
    calls = []
    simulate = Router.simulate

    def record(self, src, dst, sizes, charge=True):
        calls.append(
            (
                np.asarray(src, dtype=np.int64).copy(),
                np.asarray(dst, dtype=np.int64).copy(),
                np.asarray(sizes, dtype=np.float64).copy(),
            )
        )
        return simulate(self, src, dst, sizes, charge)

    monkeypatch.setattr(Router, "simulate", record)
    return calls


#: (cube dimension, (N, K, M)): at n = 3, p = 8 > N leaves ranks empty.
_PIN_SHAPES = [(3, (5, 6, 4)), (2, (24, 24, 18)), (4, (40, 31, 22))]
_PIN_DTYPES = {
    "plus_times": np.int64, "min_plus": np.float64, "or_and": np.bool_,
}


def _pin_operands(machine, name, layout, shape, seed):
    """A, B and x on ``machine``; x takes three partitions unlike A's rows."""
    N, K, M = shape
    rng = np.random.default_rng(seed)
    dtype = _PIN_DTYPES[name]
    zero = get_semiring(name).zero(dtype)

    def pattern(rows, cols):
        mask = rng.random((rows, cols)) < 0.35
        return (mask * rng.integers(1, 6, size=(rows, cols))).astype(dtype)

    A = SparseMatrix.from_dense(machine, pattern(N, K), layout=layout)
    B = SparseMatrix.from_dense(machine, pattern(K, M), layout=layout)
    xv = ((rng.random(K) < 0.6) * rng.integers(1, 6, size=K)).astype(dtype)
    xv[xv == dtype(0)] = zero
    xs = [
        SparseVector.from_numpy(machine, xv, fill=zero, embedding=emb)
        for emb in (
            SparseEmbedding.balanced(machine, K),
            _skewed_partition(machine, K),
            B.embedding,
        )
    ]
    return A, B, xs


def _assert_pinned(routed, live, twin, call, replay) -> None:
    """``call`` routes and charges on ``live`` as ``replay`` on ``twin``."""
    routed.clear()
    call()
    got = list(routed)
    want = replay()
    if want.src.size:
        assert len(got) == 1
        for have, ref in zip(got[0], (want.src, want.dst, want.sizes)):
            assert have.tobytes() == ref.tobytes()
    else:
        assert got == []
    assert live.snapshot() == twin.snapshot()
    assert (
        live.machine.counters.plan_stats()
        == twin.machine.counters.plan_stats()
    )


@pytest.mark.parametrize("plan_cache", [True, False], ids=["cache", "nocache"])
@pytest.mark.parametrize("layout", ["nnz", "block"])
@pytest.mark.parametrize("name", ["plus_times", "min_plus", "or_and"])
def test_traffic_matches_per_rank_loops(routed, name, layout, plan_cache):
    for seed, (n, shape) in enumerate(_PIN_SHAPES):
        live, twin = (Session(n, plan_cache=plan_cache) for _ in range(2))
        A, B, xs = _pin_operands(live.machine, name, layout, shape, seed)
        A2, B2, xs2 = _pin_operands(twin.machine, name, layout, shape, seed)
        # Twice each: the second call replays cached route plans.
        for _ in range(2):
            for x, x2 in zip(xs, xs2):
                _assert_pinned(
                    routed, live, twin,
                    lambda: spmv(A, x, name), lambda: _replay_spmv(A2, x2),
                )
            _assert_pinned(
                routed, live, twin,
                lambda: spgemm(A, B, name), lambda: _replay_spgemm(A2, B2),
            )
        assert live.snapshot().time > 0
