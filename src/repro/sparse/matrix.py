"""Distributed sparse arrays: row-partitioned CSR and aligned vectors.

A :class:`SparseMatrix` is one global CSR (``indptr`` over all ``N`` rows,
``indices``, ``data``) whose rows are partitioned by a
:class:`~repro.sparse.embedding.SparseEmbedding`: rank ``r`` owns the rows
``starts[r]:starts[r+1]`` and so the nonzeros
``indptr[starts[r]]:indptr[starts[r+1]]``.  The per-rank blocks are
*ragged* (each rank owns a different number of rows and nonzeros), so
unlike the dense arrays they are not one rectangular
:class:`~repro.machine.pvar.PVar`; instead the functional data lives in
flat host arrays and every distributed operation charges the machine
explicitly — compute as lockstep SIMD passes at the **maximum** per-rank
volume, communication as routed message multisets through
:meth:`Router.simulate <repro.machine.router.Router.simulate>`.

Loading host data (``from_coo`` / ``from_dense`` / ``to_dense``) is
front-end I/O and free, matching the dense embedding convention; moving
rows between ranks (:meth:`SparseMatrix.repartition`) is a timed
distributed operation.

A :class:`SparseVector` is the vector partner: one length-``L`` array under
the same contiguous partition (rank ``r``'s segment is
``values[starts[r]:starts[r+1]]``), with an explicit ``fill`` value (the
ambient semiring's zero) that the primitives treat as "absent" — only
entries different from ``fill`` are ever shipped.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, EmbeddingError, ShapeError
from ..machine.hypercube import Hypercube
from ..machine.router import Router
from .embedding import SparseEmbedding


def _coo_canonical(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort by (row, col) and sum duplicate coordinates (COO convention)."""
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    if rows.size:
        fresh = np.concatenate(
            [[True], (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]
        )
        if not fresh.all():
            starts = np.flatnonzero(fresh)
            data = np.add.reduceat(data, starts)
            rows, cols = rows[starts], cols[starts]
    return rows, cols, data


class SparseMatrix:
    """An ``N × M`` sparse matrix, rows partitioned by a sparse embedding."""

    def __init__(
        self,
        machine: Hypercube,
        embedding: SparseEmbedding,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        N, M = int(shape[0]), int(shape[1])
        if embedding.N != N:
            raise EmbeddingError(
                f"embedding partitions {embedding.N} rows but the matrix "
                f"has {N}"
            )
        if indptr.shape != (N + 1,) or not (
            indices.shape == data.shape == (int(indptr[-1]),)
        ):
            raise ShapeError(
                f"expected a CSR of {N} rows, got indptr {indptr.shape}, "
                f"indices {indices.shape}, data {data.shape}"
            )
        self.machine = machine
        self.embedding = embedding
        self.shape = (N, M)
        self.indptr = indptr
        self.indices = indices
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(
        cls,
        machine: Hypercube,
        rows,
        cols,
        data,
        shape: Tuple[int, int],
        layout: str = "nnz",
        embedding: Optional[SparseEmbedding] = None,
    ) -> "SparseMatrix":
        """Build from COO triplets (host-side; duplicates are summed).

        ``layout`` picks the partition when no explicit ``embedding`` is
        given: ``"nnz"`` balances nonzeros per rank, ``"block"`` balances
        row counts (the dense-style split, kept for comparison runs).
        """
        N, M = int(shape[0]), int(shape[1])
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data)
        if not (rows.shape == cols.shape == data.shape) or rows.ndim != 1:
            raise ShapeError(
                f"rows, cols and data must be equal-length 1-D arrays, got "
                f"{rows.shape}, {cols.shape}, {data.shape}"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= N):
            raise ShapeError(f"row index out of range for {N} rows")
        if cols.size and (cols.min() < 0 or cols.max() >= M):
            raise ShapeError(f"column index out of range for {M} columns")
        rows, cols, data = _coo_canonical(rows, cols, data)
        if embedding is None:
            if layout == "nnz":
                row_nnz = np.bincount(rows, minlength=N)
                embedding = SparseEmbedding.nnz_balanced(machine, row_nnz)
            elif layout == "block":
                embedding = SparseEmbedding.balanced(machine, N)
            else:
                raise ConfigError(
                    f"unknown sparse layout {layout!r}; try 'nnz' or 'block'"
                )
        elif embedding.machine is not machine:
            raise EmbeddingError("embedding belongs to a different machine")
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=N))]
        ).astype(np.int64)
        return cls(machine, embedding, (N, M), indptr, cols, data)

    @classmethod
    def from_dense(
        cls,
        machine: Hypercube,
        dense: np.ndarray,
        layout: str = "nnz",
        embedding: Optional[SparseEmbedding] = None,
    ) -> "SparseMatrix":
        """Extract the nonzeros of a host matrix (zero is the background)."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError(f"expected a 2-D matrix, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(
            machine,
            rows,
            cols,
            dense[rows, cols],
            dense.shape,
            layout=layout,
            embedding=embedding,
        )

    # -- shape / structure -------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def rank_nnz(self) -> np.ndarray:
        """Per-rank nonzero counts (the SIMD imbalance profile)."""
        return np.diff(self.indptr[self.embedding.starts])

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts as one host array."""
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """The global row of every stored nonzero."""
        rows = np.arange(self.shape[0], dtype=np.int64)
        return np.repeat(rows, self.row_nnz())

    # -- host transfer (front-end I/O; not timed) --------------------------

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Host COO triplets, sorted by (row, col)."""
        return self.row_ids(), self.indices.copy(), self.data.copy()

    def to_dense(self) -> np.ndarray:
        """Densify on the host (zero background)."""
        out = np.zeros(self.shape, dtype=self.dtype)
        rows, cols, data = self.to_coo()
        out[rows, cols] = data
        return out

    # -- distributed data motion -------------------------------------------

    def repartition(self, embedding: SparseEmbedding) -> "SparseMatrix":
        """Move rows onto a new partition; charged through the router.

        Each moved row travels as one packet of ``2 * nnz(row) + 1`` words
        (column index + value per nonzero, plus the row id); packets
        between the same (source, destination) pair aggregate into one
        message.  Pack and unpack each cost one local pass at the largest
        per-rank moved volume.
        """
        machine = self.machine
        if embedding.machine is not machine:
            raise EmbeddingError("target embedding belongs to another machine")
        if embedding.N != self.shape[0]:
            raise EmbeddingError(
                f"target embedding partitions {embedding.N} rows, matrix "
                f"has {self.shape[0]}"
            )
        if embedding.same_partition(self.embedding):
            return self
        with machine.phase("sparse_remap"):
            row_nnz = self.row_nnz()
            old_rank = self.embedding.rank_table()
            new_rank = embedding.rank_table()
            moved = old_rank != new_rank
            words = 2 * row_nnz + 1
            src_pids = np.asarray(
                self.embedding.owner_table()[moved], dtype=np.int64
            )
            dst_pids = np.asarray(embedding.owner_table()[moved], dtype=np.int64)
            if src_pids.size:
                # Aggregate row packets per (src, dst) pair, in sorted order
                # so the message multiset (and its plan-cache key) is
                # deterministic.
                pair = src_pids * machine.p + dst_pids
                uniq, inverse = np.unique(pair, return_inverse=True)
                sizes = np.bincount(
                    inverse, weights=words[moved].astype(np.float64)
                )
                out_per_rank = np.bincount(
                    src_pids, weights=words[moved].astype(np.float64),
                    minlength=machine.p,
                )
                in_per_rank = np.bincount(
                    dst_pids, weights=words[moved].astype(np.float64),
                    minlength=machine.p,
                )
                machine.charge_local(float(out_per_rank.max()))
                Router(machine).simulate(
                    uniq // machine.p, uniq % machine.p, sizes
                )
                machine.charge_local(float(in_per_rank.max()))
        # The global CSR does not depend on the partition: only the labels
        # move.
        return SparseMatrix(
            machine, embedding, self.shape,
            self.indptr, self.indices, self.data,
        )

    def rebalance(self) -> "SparseMatrix":
        """Repartition onto the nnz-balanced layout for the current pattern."""
        target = SparseEmbedding.nnz_balanced(self.machine, self.row_nnz())
        return self.repartition(target)

    def __repr__(self) -> str:
        return (
            f"SparseMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"p={self.machine.p})"
        )


class SparseVector:
    """A length-``L`` vector on a sparse partition, with a fill value.

    ``fill`` is the ambient semiring's zero: entries equal to it are
    "absent" — :func:`~repro.sparse.primitives.spmv` neither ships nor
    multiplies through them (the annihilator shortcut).
    """

    def __init__(
        self,
        machine: Hypercube,
        embedding: SparseEmbedding,
        values: np.ndarray,
        fill: Any,
    ) -> None:
        if values.shape != (embedding.N,):
            raise ShapeError(
                f"vector has shape {values.shape}, embedding expects "
                f"({embedding.N},)"
            )
        self.machine = machine
        self.embedding = embedding
        self.values = values
        self.fill = values.dtype.type(fill)

    @classmethod
    def from_numpy(
        cls,
        machine: Hypercube,
        values: np.ndarray,
        fill: Any = 0,
        embedding: Optional[SparseEmbedding] = None,
    ) -> "SparseVector":
        """Load a host vector (front-end I/O; not timed)."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ShapeError(f"expected a 1-D vector, got shape {values.shape}")
        if embedding is None:
            embedding = SparseEmbedding.balanced(machine, values.size)
        elif embedding.machine is not machine:
            raise EmbeddingError("embedding belongs to a different machine")
        return cls(machine, embedding, values.copy(), fill)

    @classmethod
    def full(
        cls,
        machine: Hypercube,
        embedding: SparseEmbedding,
        fill: Any,
        dtype: Any,
    ) -> "SparseVector":
        """An all-``fill`` (empty) vector on the given partition."""
        return cls(machine, embedding, np.full(embedding.N, fill, dtype), fill)

    @property
    def blocks(self) -> List[np.ndarray]:
        """Per-rank segments of :attr:`values` (views)."""
        return self.embedding.split(self.values)

    @property
    def L(self) -> int:
        return self.embedding.N

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def nnz(self) -> int:
        """Entries different from ``fill`` (present elements)."""
        return int(np.count_nonzero(self.values != self.fill))

    def to_numpy(self) -> np.ndarray:
        """Read back to the host (front-end I/O; not timed)."""
        return self.values.copy()

    def copy(self) -> "SparseVector":
        return SparseVector(
            self.machine, self.embedding, self.values.copy(), self.fill
        )

    def elementwise(
        self, other: "SparseVector", op, fill: Any
    ) -> "SparseVector":
        """Aligned elementwise combine: one SIMD pass, no communication.

        Both operands must share the partition; the pass is charged at the
        largest per-rank segment (lockstep).
        """
        if not self.embedding.same_partition(other.embedding):
            raise EmbeddingError(
                "elementwise operands must share the sparse partition"
            )
        self.machine.charge_flops(self.embedding.max_count)
        values = op(self.values, other.values)
        return SparseVector(self.machine, self.embedding, values, fill)

    def map(self, fn, fill: Any) -> "SparseVector":
        """Unary elementwise transform: one SIMD pass."""
        self.machine.charge_flops(self.embedding.max_count)
        values = fn(self.values)
        return SparseVector(self.machine, self.embedding, values, fill)

    def __repr__(self) -> str:
        return (
            f"SparseVector(L={self.L}, nnz={self.nnz}, fill={self.fill!r}, "
            f"p={self.machine.p})"
        )


__all__ = ["SparseMatrix", "SparseVector"]
