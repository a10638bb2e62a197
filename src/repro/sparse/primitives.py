"""Semiring-parameterized sparse primitives: ``spmv`` and ``spgemm``.

Both primitives follow the 1-D row-partitioned formulation of Buluç &
Gilbert's parallel SpGEMM work: rank ``r`` computes the output rows it owns,
fetching exactly the remote operand fragments its local nonzero *structure*
references.  Communication is the sparse all-to-all of those fragments —
an explicit message multiset charged through
:meth:`Router.simulate <repro.machine.router.Router.simulate>`, so
congestion, e-cube rounds, and plan-cache behaviour all come from the real
irregular traffic rather than a dense-exchange bound.  Message sizes:

* ``spmv`` ships one ``(index, value)`` packet — 2 words — per *present*
  (``!= fill``) vector entry a remote rank needs; entries equal to the
  semiring zero are annihilated (``zero ⊗ x = zero``) and never travel.
* ``spgemm`` ships one packet of ``2 · nnz(row) + 1`` words per remote
  ``B`` row referenced by the local ``A`` structure; empty rows contribute
  nothing and are never requested.

Compute is charged as lockstep SIMD passes at the **maximum** per-rank
operation count — exactly why the nnz-balanced partition matters: a skewed
partition makes every pass wait for the heaviest rank.

The functional result is computed from the same global nonzero sets the
charges describe, with NumPy's unbuffered/segmented reductions
(``ufunc.at`` / ``reduceat``) applying the semiring's ⊕ deterministically.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError
from ..machine.router import Router
from .embedding import SparseEmbedding
from .matrix import SparseMatrix, SparseVector
from .semiring import Semiring, get_semiring


def _check_fill_is_zero(x: SparseVector, sr: Semiring) -> None:
    """The annihilator shortcut is sound only when fill == semiring zero."""
    zero = sr.zero(x.dtype)
    if not (x.fill == zero or (x.fill != x.fill and zero != zero)):
        raise ConfigError(
            f"vector fill {x.fill!r} is not the {sr.name} zero "
            f"{zero!r} for dtype {x.dtype}; absent entries would not "
            f"annihilate"
        )


def _nonzero_ranks(A: SparseMatrix) -> np.ndarray:
    """The partition rank that stores each nonzero of ``A``."""
    ranks = np.arange(A.machine.p, dtype=np.int64)
    return np.repeat(ranks, A.rank_nnz())


def _route_pairs(
    A: SparseMatrix,
    owners: SparseEmbedding,
    keys: np.ndarray,
    words: np.ndarray,
) -> None:
    """Pack, route and unpack an aggregated sparse all-to-all.

    ``keys`` are ascending ``dest * p + owner`` rank pairs (``dest`` a rank
    of ``A``'s rows, ``owner`` a rank of ``owners``) and ``words`` the size
    of each pair's message.  Message order is (dest, owner) ascending so
    the multiset (and its route plan key) is deterministic.
    """
    if not keys.size:
        return
    machine = A.machine
    p = machine.p
    dest, owner = np.divmod(keys, p)
    send = np.bincount(owner, weights=words, minlength=p)
    recv = np.bincount(dest, weights=words, minlength=p)
    machine.charge_local(float(send.max()))  # pack packets
    Router(machine).simulate(
        owners.pid_of_rank(owner), A.embedding.pid_of_rank(dest), words
    )
    machine.charge_local(float(recv.max()))  # unpack packets


def spmv(
    A: SparseMatrix, x: SparseVector, semiring: "Semiring | str" = "plus_times"
) -> SparseVector:
    """``y = A ⊕.⊗ x`` over a semiring; result on ``A``'s row partition.

    The output's fill is the semiring zero: rows with no surviving term
    stay absent, so iterating ``spmv`` keeps frontiers genuinely sparse
    (each iteration routes a *different* message multiset — irregular
    traffic the plan cache only reuses when the frontier repeats exactly).
    """
    machine = A.machine
    if x.machine is not machine:
        raise ConfigError("operands live on different machines")
    sr = get_semiring(semiring)
    N, M = A.shape
    if x.L != M:
        raise ShapeError(
            f"matrix has {M} columns but the vector has {x.L} elements"
        )
    _check_fill_is_zero(x, sr)
    out_dtype = np.result_type(A.dtype, x.dtype)
    zero = sr.zero(out_dtype)
    p = machine.p
    with machine.phase("spmv"):
        xvals = x.values
        present = xvals != x.fill
        x_rank = x.embedding.rank_table()
        cols = A.indices
        nz_rank = _nonzero_ranks(A)
        live = present[cols]
        # Each rank fetches every distinct present x entry its nonzeros
        # reference: one 2-word packet per entry, aggregated per owner.
        dest, col = np.divmod(np.unique(nz_rank[live] * M + cols[live]), M)
        owner = x_rank[col]
        remote = owner != dest
        keys, counts = np.unique(
            dest[remote] * p + owner[remote], return_counts=True
        )
        _route_pairs(A, x.embedding, keys, 2.0 * counts)
        # Output accumulator init, then mul pass and ⊕-scatter pass.
        machine.charge_local(A.embedding.max_count)
        max_ops = int(np.bincount(nz_rank[live], minlength=p).max())
        if max_ops:
            machine.charge_flops(max_ops)  # ⊗ of every surviving pair
            machine.charge_flops(max_ops)  # ⊕ accumulation into rows
        y = np.full(N, zero, dtype=out_dtype)
        if live.any():
            terms = sr.mul(
                A.data[live].astype(out_dtype, copy=False),
                xvals[cols[live]].astype(out_dtype, copy=False),
            )
            sr.accumulate_at(y, A.row_ids()[live], terms)
    return SparseVector(machine, A.embedding, y, zero)


def spgemm(
    A: SparseMatrix, B: SparseMatrix, semiring: "Semiring | str" = "plus_times"
) -> SparseMatrix:
    """``C = A ⊕.⊗ B`` over a semiring (row-wise Gustavson formulation).

    Rank ``r`` fetches every ``B`` row its local ``A`` structure references
    (remote rows travel as CSR packets), expands all ``A_ik ⊗ B_k*``
    products, and ⊕-combines duplicates.  The result keeps ``A``'s row
    partition; call :meth:`SparseMatrix.rebalance` to re-balance for the
    *output* pattern.  Entries that combine to the semiring zero are
    dropped (the usual "no explicit zeros" convention).
    """
    machine = A.machine
    if B.machine is not machine:
        raise ConfigError("operands live on different machines")
    sr = get_semiring(semiring)
    N, K = A.shape
    K2, M = B.shape
    if K != K2:
        raise ShapeError(
            f"inner dimensions disagree: A is {A.shape}, B is {B.shape}"
        )
    out_dtype = np.result_type(A.dtype, B.dtype)
    zero = sr.zero(out_dtype)
    p = machine.p
    with machine.phase("spgemm"):
        b_row_nnz = B.row_nnz()
        b_rank = B.embedding.rank_table()
        a_cols = A.indices
        nz_rank = _nonzero_ranks(A)
        # Each rank fetches every distinct non-empty B row its nonzeros
        # reference: one CSR packet of 2·nnz + 1 words per row.
        dest, row = np.divmod(np.unique(nz_rank * K + a_cols), K)
        owner = b_rank[row]
        remote = (owner != dest) & (b_row_nnz[row] > 0)
        keys, inverse = np.unique(
            dest[remote] * p + owner[remote], return_inverse=True
        )
        words = np.bincount(
            inverse, weights=2.0 * b_row_nnz[row[remote]] + 1.0,
            minlength=keys.size,
        )
        _route_pairs(A, B.embedding, keys, words)
        reps = b_row_nnz[a_cols]
        max_ops = int(np.bincount(nz_rank, weights=reps, minlength=p).max())
        if max_ops:
            machine.charge_flops(max_ops)  # ⊗ of every expanded product
            machine.charge_local(max_ops)  # sort/stage the expansion
            machine.charge_flops(max_ops)  # ⊕-combine duplicate (i, j)
        # Functional expansion: every (i, k) of A against B's row k.
        total = int(reps.sum())
        if total == 0:
            return SparseMatrix.from_coo(
                machine,
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=out_dtype),
                (N, M),
                embedding=A.embedding,
            )
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]).astype(np.int64), reps
        )
        pos = np.repeat(B.indptr[a_cols], reps) + offsets
        out_rows = np.repeat(A.row_ids(), reps)
        out_cols = B.indices[pos]
        terms = sr.mul(
            np.repeat(A.data, reps).astype(out_dtype, copy=False),
            B.data[pos].astype(out_dtype, copy=False),
        )
        order = np.lexsort((out_cols, out_rows))
        out_rows, out_cols, terms = (
            out_rows[order], out_cols[order], terms[order],
        )
        fresh = np.concatenate(
            [
                [True],
                (out_rows[1:] != out_rows[:-1])
                | (out_cols[1:] != out_cols[:-1]),
            ]
        )
        starts = np.flatnonzero(fresh)
        combined = sr.reduceat(terms, starts)
        out_rows, out_cols = out_rows[starts], out_cols[starts]
        keep = combined != zero
        result = SparseMatrix.from_coo(
            machine,
            out_rows[keep],
            out_cols[keep],
            combined[keep],
            (N, M),
            embedding=A.embedding,
        )
    return result


__all__ = ["spgemm", "spmv"]
