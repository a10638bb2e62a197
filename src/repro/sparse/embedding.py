"""Sparse embeddings: nnz-balanced contiguous row partitions of the cube.

A :class:`SparseEmbedding` assigns each of ``N`` global indices (matrix
rows, or vector elements) to one of the ``p`` cube processors.  Unlike the
dense embeddings — which split a rectangle into equal tiles — a sparse
matrix's work is proportional to its *nonzeros*, so the partition is a
vector of ``p + 1`` explicit row boundaries: rank ``r`` owns the contiguous
range ``starts[r]:starts[r + 1]``.  :meth:`nnz_balanced` chooses the
boundaries so each rank's nonzero count approximates ``nnz / p`` — on a
lockstep SIMD machine every arithmetic pass is charged at the *maximum*
per-processor volume, so nnz balance is directly what bounds simulated time.

Ranks map to processors through the same binary-reflected Gray code as the
dense vector-order embedding (rank ``r`` lives on pid ``gray(r)``), keeping
adjacent row ranges on neighbouring cube nodes.  Owner tables are memoized
on the machine's plan cache under :meth:`signature` — the partition vector
is part of the signature, so two embeddings with the same boundaries share
tables while any rebalance gets fresh ones.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..embeddings.gray import gray, gray_rank
from ..errors import EmbeddingError, ShapeError
from ..machine.hypercube import Hypercube
from ..machine.plans import readonly


class SparseEmbedding:
    """A contiguous, explicitly bounded partition of ``N`` indices."""

    def __init__(self, machine: Hypercube, N: int, starts) -> None:
        if N < 1:
            raise ShapeError(f"sparse extent must be >= 1, got {N}")
        starts = np.asarray(starts, dtype=np.int64)
        if starts.shape != (machine.p + 1,):
            raise EmbeddingError(
                f"partition must have p+1 = {machine.p + 1} boundaries, "
                f"got shape {starts.shape}"
            )
        if starts[0] != 0 or starts[-1] != N:
            raise EmbeddingError(
                f"partition must span [0, {N}], got "
                f"[{int(starts[0])}, {int(starts[-1])}]"
            )
        if np.any(np.diff(starts) < 0):
            raise EmbeddingError("partition boundaries must be non-decreasing")
        self.machine = machine
        self.N = N
        self.starts = readonly(starts)
        #: Indices owned per rank (length ``p``).
        self.counts = readonly(np.diff(starts))
        #: The largest per-rank index count (the SIMD pass volume).
        self.max_count = int(self.counts.max())
        self._signature = ("sparse", N, tuple(starts.tolist()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def balanced(cls, machine: Hypercube, N: int) -> "SparseEmbedding":
        """Equal index counts per rank (the dense-style block split)."""
        if N < 1:
            raise ShapeError(f"sparse extent must be >= 1, got {N}")
        starts = np.minimum(
            (np.arange(machine.p + 1, dtype=np.int64) * N + machine.p - 1)
            // machine.p,
            N,
        )
        starts[0] = 0
        starts[-1] = N
        return cls(machine, N, np.maximum.accumulate(starts))

    @classmethod
    def nnz_balanced(
        cls, machine: Hypercube, row_nnz: np.ndarray
    ) -> "SparseEmbedding":
        """Boundaries chosen so each rank holds ``~nnz / p`` nonzeros.

        The ``k``-th boundary is where the nonzero prefix sum crosses
        ``k * nnz / p``; rows are never split, so the worst rank exceeds
        the ideal share by at most one row's nonzeros.
        """
        row_nnz = np.asarray(row_nnz, dtype=np.int64)
        if row_nnz.ndim != 1 or row_nnz.size < 1:
            raise ShapeError(
                f"row_nnz must be a non-empty 1-D array, got shape "
                f"{row_nnz.shape}"
            )
        N = row_nnz.size
        prefix = np.concatenate([[0], np.cumsum(row_nnz)])
        total = int(prefix[-1])
        targets = np.arange(machine.p + 1, dtype=np.float64) * total / machine.p
        starts = np.searchsorted(prefix, targets, side="left").astype(np.int64)
        starts[0] = 0
        starts[-1] = N
        return cls(machine, N, np.maximum.accumulate(np.minimum(starts, N)))

    # -- identity ----------------------------------------------------------

    def signature(self) -> tuple:
        """Value identity: the extent and the exact partition boundaries."""
        return self._signature

    def same_partition(self, other: "SparseEmbedding") -> bool:
        return (
            other.machine is self.machine
            and other.N == self.N
            and np.array_equal(other.starts, self.starts)
        )

    # -- shape -------------------------------------------------------------

    def rank_range(self, rank: int) -> Tuple[int, int]:
        """The ``[lo, hi)`` global index range owned by ``rank``."""
        return int(self.starts[rank]), int(self.starts[rank + 1])

    # -- address maps ------------------------------------------------------

    def rank_of(self, g):
        """Owning rank of global index ``g`` (vectorised).

        For boundaries shared by empty ranges the *last* rank whose range
        starts at or before ``g`` wins — consistent with ``rank_range``.
        """
        return np.searchsorted(self.starts, np.asarray(g), side="right") - 1

    def pid_of_rank(self, rank):
        """Cube address of partition rank ``rank`` (Gray-coded)."""
        return gray(rank)

    def rank_of_pid(self, pid):
        """Partition rank living on cube address ``pid``."""
        return gray_rank(pid)

    def owner_table(self) -> np.ndarray:
        """Owning *pid* of every global index, memoized per signature."""

        def build() -> np.ndarray:
            ranks = np.repeat(
                np.arange(self.machine.p, dtype=np.int64), self.counts
            )
            return readonly(np.asarray(gray(ranks), dtype=np.int64))

        return self.machine.plans.memo(
            ("sparse-owner", self.signature()), build
        )

    def rank_table(self) -> np.ndarray:
        """Owning *rank* of every global index, memoized per signature."""

        def build() -> np.ndarray:
            return readonly(
                np.repeat(np.arange(self.machine.p, dtype=np.int64), self.counts)
            )

        return self.machine.plans.memo(
            ("sparse-rank", self.signature()), build
        )

    def split(self, values: np.ndarray) -> list:
        """Split a host array of extent ``N`` into per-rank blocks (views)."""
        values = np.asarray(values)
        if values.shape[0] != self.N:
            raise ShapeError(
                f"expected leading extent {self.N}, got shape {values.shape}"
            )
        return [
            values[self.starts[r]:self.starts[r + 1]]
            for r in range(self.machine.p)
        ]

    def __repr__(self) -> str:
        return (
            f"SparseEmbedding(N={self.N}, p={self.machine.p}, "
            f"max_count={self.max_count})"
        )


__all__ = ["SparseEmbedding"]
