"""User-facing distributed arrays built on the four primitives.

:class:`DistributedMatrix` and :class:`DistributedVector` bundle a machine
resident :class:`~repro.machine.pvar.PVar` with its embedding and expose a
NumPy-flavoured API: elementwise arithmetic, the four vector-matrix
primitives as methods, and the derived operations (mat-vec products,
rank-1 updates, dot products) the paper's applications are written in.

Elementwise operations require *aligned* operands (same grid and layout) —
mixing embeddings is a remap, which the API makes explicit through
:meth:`DistributedVector.as_embedding` so communication never hides inside
an innocent-looking ``+``.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .. import comm
from ..comm.collectives import (
    arg_reduce_slots,
    reading_subcube,
    reduce_all_loc_to_reader,
)
from ..comm.ops import CombineOp, get_op
from ..errors import ConfigError, EmbeddingError, ShapeError
from ..machine.hypercube import Hypercube
from ..machine.pvar import PVar
from ..obs.tracer import maybe_span
from ..embeddings.matrix import MatrixEmbedding
from ..embeddings.remap import redistribute_matrix, remap_vector
from ..embeddings.remap import transpose as transpose_remap
from ..embeddings.vector import (
    VectorEmbedding,
    VectorOrderEmbedding,
    _AlignedEmbedding,
)
from . import primitives

Scalar = Union[int, float, bool, np.generic]

INT64_MAX = np.iinfo(np.int64).max


def _reduces_at_reader(machine: Hypercube) -> bool:
    """Whether ``DistributedVector.argreduce`` computes only the reading
    processor's subcube.

    Otherwise the full collective runs, as it always did, for three
    reasons: with the plan cache off the exchange loop is the reference
    every replay is checked against; a fault injector aims bit flips at
    the PVars each call builds; and ABFT charges a wire checksum word per
    exchange that the replayed schedule does not.
    """
    return (
        machine.plans.enabled and machine.faults is None and machine.abft is None
    )


class DistributedVector:
    """A length-``L`` vector resident on the machine in some embedding."""

    def __init__(self, pvar: PVar, embedding: VectorEmbedding) -> None:
        if pvar.local_shape != embedding.local_shape:
            raise ShapeError(
                f"PVar local shape {pvar.local_shape} does not match "
                f"embedding local shape {embedding.local_shape} "
                f"({type(embedding).__name__}, L={embedding.L})"
            )
        self.pvar = pvar
        self.embedding = embedding

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        machine: Hypercube,
        vector: np.ndarray,
        embedding: Optional[VectorEmbedding] = None,
        layout: str = "block",
    ) -> "DistributedVector":
        vector = np.asarray(vector)
        if vector.ndim != 1:
            raise ShapeError(f"expected a 1-D array, got shape {vector.shape}")
        if embedding is None:
            embedding = VectorOrderEmbedding(machine, len(vector), layout)
        return cls(embedding.scatter(vector), embedding)

    def to_numpy(self) -> np.ndarray:
        with maybe_span(self.machine, "gather", "io"):
            return self.embedding.gather(self.pvar)

    # -- shape ------------------------------------------------------------------

    @property
    def machine(self) -> Hypercube:
        return self.embedding.machine

    def __len__(self) -> int:
        return self.embedding.L

    @property
    def dtype(self) -> np.dtype:
        return self.pvar.dtype

    # -- embedding changes ---------------------------------------------------------

    def as_embedding(self, embedding: VectorEmbedding) -> "DistributedVector":
        """Remap into another embedding (charged through the router)."""
        if self.embedding.compatible(embedding):
            return self
        return type(self)(
            remap_vector(self.pvar, self.embedding, embedding), embedding
        )

    # -- elementwise -----------------------------------------------------------------

    def _binary(self, other, fn_name: str) -> "DistributedVector":
        if isinstance(other, DistributedVector):
            if not self.embedding.compatible(other.embedding):
                raise EmbeddingError(
                    f"elementwise op on incompatible vector embeddings "
                    f"{self.embedding.signature()} vs "
                    f"{other.embedding.signature()}; remap explicitly with "
                    f"as_embedding()"
                )
            rhs: Union[PVar, Scalar] = other.pvar
        else:
            rhs = other
        out = getattr(self.pvar, fn_name)(rhs)
        return type(self)(out, self.embedding)

    def __add__(self, other) -> "DistributedVector":
        return self._binary(other, "__add__")

    def __radd__(self, other) -> "DistributedVector":
        return self._binary(other, "__radd__")

    def __sub__(self, other) -> "DistributedVector":
        return self._binary(other, "__sub__")

    def __rsub__(self, other) -> "DistributedVector":
        return self._binary(other, "__rsub__")

    def __mul__(self, other) -> "DistributedVector":
        return self._binary(other, "__mul__")

    def __rmul__(self, other) -> "DistributedVector":
        return self._binary(other, "__rmul__")

    def __truediv__(self, other) -> "DistributedVector":
        return self._binary(other, "__truediv__")

    def __rtruediv__(self, other) -> "DistributedVector":
        return self._binary(other, "__rtruediv__")

    def __neg__(self) -> "DistributedVector":
        return type(self)(-self.pvar, self.embedding)

    def __abs__(self) -> "DistributedVector":
        return type(self)(abs(self.pvar), self.embedding)

    def abs(self) -> "DistributedVector":
        return self.__abs__()

    def __lt__(self, other) -> "DistributedVector":
        return self._binary(other, "__lt__")

    def __le__(self, other) -> "DistributedVector":
        return self._binary(other, "__le__")

    def __gt__(self, other) -> "DistributedVector":
        return self._binary(other, "__gt__")

    def __ge__(self, other) -> "DistributedVector":
        return self._binary(other, "__ge__")

    def eq(self, other) -> "DistributedVector":
        return self._binary(other, "eq")

    def ne(self, other) -> "DistributedVector":
        return self._binary(other, "ne")

    def __and__(self, other) -> "DistributedVector":
        return self._binary(other, "__and__")

    def __or__(self, other) -> "DistributedVector":
        return self._binary(other, "__or__")

    def __xor__(self, other) -> "DistributedVector":
        return self._binary(other, "__xor__")

    def __invert__(self) -> "DistributedVector":
        return type(self)(~self.pvar, self.embedding)

    def where(self, if_true, if_false) -> "DistributedVector":
        """Select (this vector must be boolean)."""
        def unwrap(x):
            if isinstance(x, DistributedVector):
                if not self.embedding.compatible(x.embedding):
                    raise EmbeddingError(
                        f"where() operands must share the embedding: "
                        f"{self.embedding.signature()} vs "
                        f"{x.embedding.signature()}"
                    )
                return x.pvar
            return x
        out = self.pvar.where(unwrap(if_true), unwrap(if_false))
        return type(self)(out, self.embedding)

    # -- global reductions ---------------------------------------------------------

    def _reduce_dims(self) -> Tuple[int, ...]:
        emb = self.embedding
        if isinstance(emb, _AlignedEmbedding):
            return emb.along_dims
        return self.machine.dims

    def reduce(self, op: Union[CombineOp, str] = "sum") -> float:
        """Combine all elements; returns a host scalar (charged read)."""
        op = get_op(op)
        machine = self.machine
        mask = self.embedding.valid_mask()
        data = self.pvar.data
        if not mask.all():
            if data.ndim > mask.ndim:
                mask = mask[..., None]  # broadcast over the run axis
            data = np.where(mask, data, op.identity(self.dtype))
            machine.charge_local(self.pvar.local_size)
        if self.pvar.local_shape:
            if machine.n_runs is not None:
                # Reduce a contiguous copy with the run axis moved inward:
                # per lane this reproduces the scalar path's (pairwise)
                # accumulation order bit-for-bit.
                moved = np.ascontiguousarray(np.moveaxis(data, 1, -1))
                local = op.ufunc.reduce(moved, axis=-1)
            else:
                local = op.ufunc.reduce(data, axis=1)
            machine.charge_flops(max(self.pvar.local_size - 1, 0))
        else:
            local = data
        total = comm.reduce_all(
            machine, PVar(machine, local), op, dims=self._reduce_dims()
        )
        pid = self.embedding.owner_slot_scalar(0)[0]
        return machine.read_scalar(total, pid=pid)

    def sum(self) -> float:
        return self.reduce("sum")

    def min(self) -> float:
        return self.reduce("min")

    def max(self) -> float:
        return self.reduce("max")

    def argreduce(
        self, mode: str = "max", valid: Optional["DistributedVector"] = None
    ) -> Tuple[float, int]:
        """(extreme value, global index), ties to the smallest index.

        ``valid`` optionally restricts candidates (a boolean vector in the
        same embedding); with no candidate at all the returned index is -1.
        """
        machine = self.machine
        dims = self._reduce_dims()
        if _reduces_at_reader(machine):
            # Only the subcube of the processor that reports to the host
            # (the owner of element 0) decides what the host reads.
            pid = self.embedding.owner_slot_scalar(0)[0]
            members, pos = reading_subcube(machine, dims, pid)
            rows = None if dims == machine.dims else members
            best_val, best_idx = self._local_argreduce(mode, valid, rows)
            value, index = reduce_all_loc_to_reader(
                machine, best_val, best_idx, dims, pos, mode
            )
            sanitizer = machine.sanitizer
            if sanitizer is not None:
                sanitizer.audit_read_argreduce(self, valid, mode, value, index)
            value = machine.read_block(value)
            index = machine.read_block(index)
        else:
            best_val, best_idx = self._local_argreduce(mode, valid)
            val_pv, idx_pv = comm.reduce_all_loc(
                machine,
                PVar(machine, best_val),
                PVar(machine, best_idx),
                dims=dims,
                mode=mode,
            )
            # One subcube member reports to the host.
            pid = self.embedding.owner_slot_scalar(0)[0]
            value = machine.read_scalar(val_pv, pid=pid)
            index = machine.read_scalar(idx_pv, pid=pid)
        if machine.n_runs is not None:
            # Batched: per-lane (value, index) vectors on the host.
            return value, np.where(index == INT64_MAX, -1, index)
        index = int(index)
        if index == INT64_MAX:
            index = -1
        return value, index

    def _local_argreduce(
        self,
        mode: str,
        valid: Optional["DistributedVector"],
        rows: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-processor (value, global index) partials of ``argreduce``:
        mask padding and invalid slots, then one serial scan with the
        tie-break (absent candidates carry the INT64-max sentinel).

        ``rows`` restricts the partials to those processors, in that
        order (all of them when ``None``); the charges are the same.
        """
        machine = self.machine
        data = self.pvar.data
        mask = self.embedding.valid_mask()
        gi = self.embedding.global_indices()
        if valid is not None:
            if not self.embedding.compatible(valid.embedding):
                raise EmbeddingError(
                    f"valid mask must share the vector's embedding: "
                    f"{self.embedding.signature()} vs "
                    f"{valid.embedding.signature()}"
                )
            keep = valid.pvar.data
        if rows is not None:
            data, mask, gi = (a.take(rows, axis=0) for a in (data, mask, gi))
            if valid is not None:
                keep = keep.take(rows, axis=0)
        if data.ndim > mask.ndim:
            mask = mask[..., None]  # broadcast over the run axis
        if valid is not None:
            mask = mask & keep.astype(bool, copy=False)
            machine.charge_flops(self.pvar.local_size)
        if data.ndim > gi.ndim:
            gi = gi[..., None]
        partials = arg_reduce_slots(data, mask, gi, 1, mode)
        machine.charge_local(self.pvar.local_size)
        machine.charge_flops(self.pvar.local_size)
        machine.charge_flops(self.pvar.local_size)
        return partials

    def argmax(self) -> Tuple[float, int]:
        return self.argreduce("max")

    def argmin(self) -> Tuple[float, int]:
        return self.argreduce("min")

    def dot(self, other: "DistributedVector") -> float:
        """Inner product (elementwise multiply + reduce)."""
        return (self * other).reduce("sum")

    def norm(self, ord: Union[str, int] = 2) -> float:
        """Vector norm: ``2`` (Euclidean), ``1``, or ``'inf'``."""
        if ord == 2:
            return float(np.sqrt(self.dot(self)))
        if ord == 1:
            return abs(self).reduce("sum")
        if ord in ("inf", np.inf):
            return abs(self).reduce("max")
        raise ConfigError(f"unsupported vector norm {ord!r}")

    def get_global(self, index: int) -> float:
        """Fetch one element to the host (one charged bus read)."""
        if not (0 <= index < len(self)):
            raise IndexError(f"index {index} out of range [0, {len(self)})")
        pid, slot = self.embedding.owner_slot_scalar(index)
        row = self.machine.read_scalar(
            PVar(self.machine, self.pvar.data[:, slot]), pid=pid
        )
        return row

    # -- scans -----------------------------------------------------------------------

    def _check_block_order(self) -> None:
        from ..embeddings.layout import BlockLayout
        if not isinstance(self.embedding.along_layout, BlockLayout):
            raise EmbeddingError(
                f"scans require a block (consecutive) layout, got "
                f"{type(self.embedding.along_layout).__name__} in "
                f"{self.embedding.signature()}; a cyclic layout interleaves "
                f"the scan order across processors"
            )

    def scan(
        self, op: Union[CombineOp, str] = "sum", inclusive: bool = False
    ) -> "DistributedVector":
        """Parallel prefix over the vector (exclusive by default).

        One local accumulate pass, an ``lg``-round exclusive scan of the
        block totals over the vector's subcube (in distribution order), and
        one local offset pass.  Requires a block layout.
        """
        self._check_block_order()
        op = get_op(op)
        machine = self.machine
        emb = self.embedding
        mask = emb.valid_mask()
        ident = op.identity(self.dtype)
        data = self.pvar.data
        if not mask.all():
            data = np.where(mask, data, ident)
            machine.charge_local(self.pvar.local_size)
        local_incl = op.ufunc.accumulate(data, axis=1)
        machine.charge_flops(self.pvar.local_size)
        totals = local_incl[:, -1]
        carry = comm.scan(
            machine,
            PVar(machine, totals),
            op,
            dims=emb.order_dims,
            rank=emb.order_rank(),
        )
        if inclusive:
            local = local_incl
        else:
            pad = np.full((machine.p, 1), ident, dtype=local_incl.dtype)
            local = np.concatenate([pad, local_incl[:, :-1]], axis=1)
            machine.charge_local(self.pvar.local_size)
        out = op(carry.data[:, None], local)
        machine.charge_flops(self.pvar.local_size)
        return type(self)(PVar(machine, out), emb)

    def segmented_scan(self, flags: "DistributedVector") -> "DistributedVector":
        """Exclusive segmented plus-scan: restart the running sum wherever
        ``flags`` is true (``flags[i]`` marks a segment start).

        The scan-vector-model primitive: local segmented cumsum, a pair
        (value, flag) cube scan of the block summaries, then the carry is
        folded into elements before each block's first segment start.
        """
        from ..comm.segmented import local_segmented_cumsum, segmented_scan_pairs
        self._check_block_order()
        if not self.embedding.compatible(flags.embedding):
            raise EmbeddingError(
                f"flags must share the vector's embedding: "
                f"{self.embedding.signature()} vs "
                f"{flags.embedding.signature()}"
            )
        machine = self.machine
        emb = self.embedding
        mask = emb.valid_mask()
        vals = np.where(mask, self.pvar.data.astype(np.float64), 0.0)
        flgs = np.where(mask, flags.pvar.data.astype(bool), False)
        machine.charge_local(2 * self.pvar.local_size)

        local_excl = local_segmented_cumsum(vals, flgs, axis=1)
        machine.charge_flops(2 * self.pvar.local_size)

        # block summary pair under the segmented monoid: the sum of the
        # open suffix (from the last start, or the whole block) + any-flag
        csum = np.cumsum(vals, axis=1)
        positions = np.arange(vals.shape[1])
        start_idx = np.maximum.accumulate(
            np.where(flgs, positions, -1), axis=1
        )[:, -1]
        total = csum[:, -1]
        before_start = np.where(
            start_idx > 0,
            np.take_along_axis(
                csum, np.maximum(start_idx - 1, 0)[:, None], axis=1
            )[:, 0],
            0.0,
        )
        block_val = np.where(start_idx >= 0, total - before_start, total)
        block_flag = flgs.any(axis=1)
        machine.charge_flops(2 * self.pvar.local_size)

        carry_v, _carry_f = segmented_scan_pairs(
            machine,
            PVar(machine, block_val),
            PVar(machine, block_flag),
            dims=emb.order_dims,
            rank=emb.order_rank(),
        )
        # the carry applies to local positions before the first local start
        first_start = np.where(block_flag, np.argmax(flgs, axis=1), vals.shape[1])
        no_start_yet = positions[None, :] < first_start[:, None]
        out = np.where(no_start_yet, local_excl + carry_v.data[:, None], local_excl)
        machine.charge_flops(self.pvar.local_size)
        return type(self)(PVar(machine, out), emb)

    # -- the distribute primitive, vector side --------------------------------------

    def distribute(self, like: "DistributedMatrix", axis: int) -> "DistributedMatrix":
        """Tile this vector into every axis-``axis`` slice of a matrix
        shaped/embedded like ``like``."""
        out = primitives.distribute(
            self.pvar, self.embedding, like.embedding, axis
        )
        return type(like)(out, like.embedding)

    def __repr__(self) -> str:
        return f"DistributedVector(L={len(self)}, embedding={self.embedding!r})"


class DistributedMatrix:
    """An ``R × C`` dense matrix resident on the machine."""

    #: vector class produced by extract/reduce/argreduce; subclasses (the
    #: naive baseline) override this so whole algorithms stay in one family.
    _vector_cls = DistributedVector

    def __init__(self, pvar: PVar, embedding: MatrixEmbedding) -> None:
        if pvar.local_shape != embedding.local_shape:
            raise ShapeError(
                f"PVar local shape {pvar.local_shape} does not match "
                f"embedding local shape {embedding.local_shape} "
                f"({embedding.R}x{embedding.C} on {embedding.Pr}x"
                f"{embedding.Pc} grid)"
            )
        self.pvar = pvar
        self.embedding = embedding

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        machine: Hypercube,
        matrix: np.ndarray,
        embedding: Optional[MatrixEmbedding] = None,
        layout: str = "block",
    ) -> "DistributedMatrix":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got shape {matrix.shape}")
        if embedding is None:
            embedding = MatrixEmbedding.default(
                machine, matrix.shape[0], matrix.shape[1], layout=layout
            )
        return cls(embedding.scatter(matrix), embedding)

    def to_numpy(self) -> np.ndarray:
        with maybe_span(self.machine, "gather", "io"):
            return self.embedding.gather(self.pvar)

    # -- shape ---------------------------------------------------------------------

    @property
    def machine(self) -> Hypercube:
        return self.embedding.machine

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.embedding.R, self.embedding.C)

    @property
    def dtype(self) -> np.dtype:
        return self.pvar.dtype

    # -- elementwise ------------------------------------------------------------------

    def _binary(self, other, fn_name: str) -> "DistributedMatrix":
        if isinstance(other, DistributedMatrix):
            if other.embedding != self.embedding:
                raise EmbeddingError(
                    f"elementwise op on differently embedded matrices "
                    f"{self.embedding.signature()} vs "
                    f"{other.embedding.signature()}; redistribute explicitly "
                    f"with as_embedding()"
                )
            rhs: Union[PVar, Scalar] = other.pvar
        else:
            rhs = other
        return type(self)(getattr(self.pvar, fn_name)(rhs), self.embedding)

    def __add__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__add__")

    def __radd__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__radd__")

    def __sub__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__sub__")

    def __rsub__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__rsub__")

    def __mul__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__mul__")

    def __rmul__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__rmul__")

    def __truediv__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__truediv__")

    def __neg__(self) -> "DistributedMatrix":
        return type(self)(-self.pvar, self.embedding)

    def __abs__(self) -> "DistributedMatrix":
        return type(self)(abs(self.pvar), self.embedding)

    def abs(self) -> "DistributedMatrix":
        return self.__abs__()

    def __lt__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__lt__")

    def __le__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__le__")

    def __gt__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__gt__")

    def __ge__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__ge__")

    def eq(self, other) -> "DistributedMatrix":
        return self._binary(other, "eq")

    def ne(self, other) -> "DistributedMatrix":
        return self._binary(other, "ne")

    def __and__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__and__")

    def __or__(self, other) -> "DistributedMatrix":
        return self._binary(other, "__or__")

    def __invert__(self) -> "DistributedMatrix":
        return type(self)(~self.pvar, self.embedding)

    def where(self, if_true, if_false) -> "DistributedMatrix":
        """Select (this matrix must be boolean)."""
        def unwrap(x):
            if isinstance(x, DistributedMatrix):
                if x.embedding != self.embedding:
                    raise EmbeddingError(
                        f"where() operands must share the embedding: "
                        f"{self.embedding.signature()} vs "
                        f"{x.embedding.signature()}"
                    )
                return x.pvar
            return x
        out = self.pvar.where(unwrap(if_true), unwrap(if_false))
        return type(self)(out, self.embedding)

    def as_embedding(self, embedding: MatrixEmbedding) -> "DistributedMatrix":
        """Redistribute into another embedding (charged through the router)."""
        if embedding == self.embedding:
            return self
        return type(self)(
            redistribute_matrix(self.pvar, self.embedding, embedding), embedding
        )

    # -- the four primitives -------------------------------------------------------------

    def extract(
        self, axis: int, index: int, replicate: bool = True
    ) -> DistributedVector:
        """Primitive 1: slice ``index`` along ``axis`` as an aligned vector."""
        pv, emb = primitives.extract(
            self.pvar, self.embedding, axis, index, replicate=replicate
        )
        return self._vector_cls(pv, emb)

    def insert(
        self, axis: int, index: int, vector: DistributedVector
    ) -> "DistributedMatrix":
        """Primitive 2: a new matrix with ``vector`` written into the slice."""
        pv = primitives.insert(
            self.pvar, self.embedding, axis, index, vector.pvar, vector.embedding
        )
        return type(self)(pv, self.embedding)

    def reduce(
        self, axis: int, op: Union[CombineOp, str] = "sum"
    ) -> DistributedVector:
        """Primitive 4: combine along ``axis`` (axis=1 → row totals)."""
        pv, emb = primitives.reduce(self.pvar, self.embedding, axis, op)
        return self._vector_cls(pv, emb)

    def argreduce(
        self,
        axis: int,
        mode: str = "max",
        valid: Optional["DistributedMatrix"] = None,
    ) -> Tuple[DistributedVector, DistributedVector]:
        """Arg-variant of reduce: (values, global indices) along ``axis``."""
        valid_pv = None
        if valid is not None:
            if valid.embedding != self.embedding:
                raise EmbeddingError(
                    f"valid mask must share the matrix embedding: "
                    f"{self.embedding.signature()} vs "
                    f"{valid.embedding.signature()}"
                )
            valid_pv = valid.pvar
        val, idx, emb = primitives.reduce_loc(
            self.pvar, self.embedding, axis, mode=mode, valid=valid_pv
        )
        return self._vector_cls(val, emb), self._vector_cls(idx, emb)

    # distribute lives on DistributedVector; re-exported here for discovery.
    @staticmethod
    def distribute(
        vector: DistributedVector, like: "DistributedMatrix", axis: int
    ) -> "DistributedMatrix":
        """Primitive 3: tile ``vector`` into every axis-``axis`` slice."""
        return vector.distribute(like, axis)

    # -- derived operations -----------------------------------------------------------------

    def transpose(self, same_grid: bool = False) -> "DistributedMatrix":
        """The transposed matrix.

        By default the result lives in the *relabelled* embedding (row and
        column cube dimensions swap roles), which costs no communication;
        pass ``same_grid=True`` to keep the source's dimension assignment
        (needed to combine ``A`` and ``A.T`` elementwise), which performs
        the communicating stable dimension permutation.
        """
        pv, emb = transpose_remap(self.pvar, self.embedding, same_grid=same_grid)
        return type(self)(pv, emb)

    @property
    def T(self) -> "DistributedMatrix":
        return self.transpose()

    def matvec(self, x: DistributedVector) -> DistributedVector:
        """``y = A @ x``: distribute x across rows, multiply, reduce rows.

        ``x`` has length C; the result has length R (column-aligned,
        replicated) — three primitive applications, exactly the paper's
        matrix-vector recipe.
        """
        if len(x) != self.shape[1]:
            raise ShapeError(
                f"matvec dimension mismatch: A is {self.shape}, x has "
                f"length {len(x)}"
            )
        X = x.distribute(self, axis=0)
        return (self * X).reduce(axis=1, op="sum")

    def vecmat(self, x: DistributedVector) -> DistributedVector:
        """``y = x @ A`` (the paper's vector-matrix multiply): length-R input."""
        if len(x) != self.shape[0]:
            raise ShapeError(
                f"vecmat dimension mismatch: A is {self.shape}, x has "
                f"length {len(x)}"
            )
        X = x.distribute(self, axis=1)
        return (self * X).reduce(axis=0, op="sum")

    def sub_outer(
        self,
        col: DistributedVector,
        row: DistributedVector,
        alpha: float = 1.0,
    ) -> "DistributedMatrix":
        """``A - alpha * outer(col, row)`` — the elimination inner step."""
        pv = primitives.rank1_update(
            self.pvar,
            self.embedding,
            col.pvar,
            col.embedding,
            row.pvar,
            row.embedding,
            alpha=-alpha,
        )
        return type(self)(pv, self.embedding)

    def diagonal(self) -> DistributedVector:
        """The main diagonal as a row-aligned vector.

        A masked reduce: zero everything off the diagonal (the mask is
        wired-in address arithmetic), sum each column — one local pass plus
        one ``lg``-round reduce, whatever the layouts.
        """
        R, C = self.shape
        machine = self.machine
        emb = self.embedding
        mask = emb.global_rows()[:, :, None] == emb.global_cols()[:, None, :]
        machine.charge_flops(self.pvar.local_size)
        if self.pvar.data.ndim > mask.ndim:
            mask = mask[..., None]  # broadcast over the run axis
        masked = type(self)(
            PVar(machine, np.where(mask, self.pvar.data, 0.0)), emb
        )
        machine.charge_local(self.pvar.local_size)
        diag = masked.reduce(axis=0, op="sum")
        if R == C:
            return diag
        # rectangular: the diagonal has min(R, C) entries; trailing columns
        # (R < C) correctly reduce to zero, but for C > R nothing more is
        # needed either — callers index the first min(R, C) entries.
        return diag

    def trace(self) -> float:
        """Sum of the diagonal (host scalar; one charged read)."""
        return self.diagonal().sum()

    def norm(self, ord: Union[str, int] = "fro") -> float:
        """Matrix norm: ``'fro'``, ``1`` (max column sum) or ``'inf'``.

        Each is a primitive composition: an elementwise pass, a reduce
        along the appropriate axis, and a global max/sum.
        """
        if ord == "fro":
            sq = self * self
            return float(np.sqrt(sq.reduce(axis=1, op="sum").sum()))
        if ord == 1:
            return abs(self).reduce(axis=0, op="sum").max()
        if ord in ("inf", np.inf):
            return abs(self).reduce(axis=1, op="sum").max()
        raise ConfigError(f"unsupported matrix norm {ord!r}")

    def scan(
        self,
        axis: int,
        op: Union[CombineOp, str] = "sum",
        inclusive: bool = False,
    ) -> "DistributedMatrix":
        """Parallel prefix along ``axis`` (``scan(axis=1)`` scans each row).

        The scan-vector-model companion of :meth:`reduce`; requires a block
        layout along the scanned axis.
        """
        pv = primitives.scan(
            self.pvar, self.embedding, axis, op, inclusive=inclusive
        )
        return type(self)(pv, self.embedding)

    def permute(self, axis: int, perm: np.ndarray) -> "DistributedMatrix":
        """Reorder slices: ``out[perm[i], :] = self[i, :]`` for ``axis=0``.

        Routed through the e-cube router between grid bands; the general
        form of Gaussian elimination's row swap.
        """
        pv = primitives.permute_slices(self.pvar, self.embedding, axis, perm)
        return type(self)(pv, self.embedding)

    def matmul(self, other: "DistributedMatrix") -> "DistributedMatrix":
        """``self @ other`` by accumulated rank-1 updates.

        The outer-product formulation the primitives make natural: for each
        k, extract column k of A (column-aligned) and row k of B
        (row-aligned) and accumulate their outer product — K iterations of
        two ``lg p``-round extracts plus an ``O(m/p)`` local update, the
        grid algorithm of the Boolean-cube matrix-multiply literature.
        ``other`` is redistributed onto this matrix's grid if needed.
        """
        R, K = self.shape
        K2, C = other.shape
        if K != K2:
            raise ShapeError(
                f"matmul dimension mismatch: {self.shape} @ {other.shape}"
            )
        machine = self.machine
        emb = self.embedding
        if not other.embedding.same_grid(emb):
            target = MatrixEmbedding(
                machine, K, C,
                row_dims=emb.row_dims, col_dims=emb.col_dims,
                row_layout_kind=emb._row_layout_kind,
                col_layout_kind=emb._col_layout_kind,
                coding=emb.coding,
            )
            other = other.as_embedding(target)
        out_emb = MatrixEmbedding(
            machine, R, C,
            row_dims=emb.row_dims, col_dims=emb.col_dims,
            row_layout_kind=emb._row_layout_kind,
            col_layout_kind=emb._col_layout_kind,
            coding=emb.coding,
        )
        acc = type(self)(machine.zeros(out_emb.local_shape), out_emb)
        with machine.phase("matmul"):
            for k in range(K):
                col = self.extract(axis=1, index=k)   # length R, col-aligned
                row = other.extract(axis=0, index=k)  # length C, row-aligned
                acc = acc.sub_outer(col, row, alpha=-1.0)  # += outer(col,row)
        return acc

    def __matmul__(self, other: "DistributedMatrix") -> "DistributedMatrix":
        return self.matmul(other)

    def get_global(self, i: int, j: int) -> float:
        """Fetch one element to the host (one charged bus read)."""
        R, C = self.shape
        if not (0 <= i < R and 0 <= j < C):
            raise IndexError(f"({i}, {j}) out of range for {R}x{C}")
        pid, sr, sc = self.embedding.owner_slot_scalar(i, j)
        return self.machine.read_scalar(
            PVar(self.machine, self.pvar.data[:, sr, sc]), pid=pid
        )

    def __repr__(self) -> str:
        return (
            f"DistributedMatrix(shape={self.shape}, embedding={self.embedding!r})"
        )


def iota(embedding: VectorEmbedding) -> DistributedVector:
    """The vector ``[0, 1, ..., L-1]`` in the given embedding.

    Each processor fills its slots from its own wired-in address map, so
    this costs a single local pass and no communication.  It is the standard
    trick for turning "rows below the pivot" or "non-artificial columns"
    into a machine-resident mask.
    """
    machine = embedding.machine
    data = embedding.global_indices().astype(np.int64)
    data = np.where(embedding.valid_mask(), data, -1)
    if machine.n_runs is not None:
        # Every PVar on a batched machine carries the trailing run axis;
        # the address map is lane-invariant, so broadcast it at creation.
        data = np.broadcast_to(
            data[..., None], data.shape + (machine.n_runs,)
        ).copy()
    machine.charge_local(int(np.prod(embedding.local_shape, dtype=np.int64)))
    cls = DistributedVector
    if machine.abft is not None:
        # Masks built from iota feed straight into checksummed algorithms;
        # keep them in the protected family so their reads are guarded too.
        from ..abft.arrays import ABFTVector
        cls = ABFTVector
    return cls(PVar(machine, data), embedding)
