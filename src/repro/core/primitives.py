"""The paper's four vector-matrix primitives.

The four APL-like primitives operate between an embedded dense matrix and
embedded vectors, along either matrix axis (NumPy axis conventions:
``axis=0`` indexes rows, so an axis-0 slice ``A[i, :]`` is a row):

``extract(M, axis, index)``
    The index-``index`` slice along ``axis`` as a vector: ``extract(axis=0, i)``
    is row ``i`` (length ``C``), ``extract(axis=1, j)`` is column ``j``
    (length ``R``).  Implemented as a local slice copy in the grid band that
    owns the slice, followed by a subcube broadcast across the orthogonal
    grid axis (skippable with ``replicate=False``).

``insert(M, axis, index, v)``
    The matrix with ``v`` written into that slice.  If ``v`` arrives in a
    different embedding the primitive *changes its embedding* first — the
    behaviour the abstract describes ("the primitives may indicate a change
    from one embedding to another").

``distribute(v, axis)``
    The matrix whose every axis-``axis`` slice is ``v``: ``distribute(axis=0)``
    tiles a length-``C`` vector down all ``R`` rows.  A resident (or
    vector-order) source is first broadcast/remapped to the replicated
    aligned embedding; the tiling itself is one local pass.

``reduce(M, axis, op)``
    Combines along ``axis`` with an associative operator: ``reduce(axis=0)``
    combines down each column (length ``C``), ``reduce(axis=1)`` across each
    row (length ``R``).  Local tree reduce, then an all-reduce over the
    orthogonal grid subcube.  ``reduce_loc`` is the arg-max/arg-min variant
    (returning global indices) that Gaussian elimination's pivot search and
    the simplex rules need.

Cost structure (the paper's headline): with ``m = R·C`` elements on ``p``
processors all four cost ``O(m/p)`` local work plus ``O(lg p)`` exchange
rounds whose volume is one *vector* share, so for ``m > p lg p`` the
``O(m/p)`` term dominates and the processor-time product matches the serial
algorithm to a constant factor.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple, Union

import numpy as np

from .. import comm
from ..comm.collectives import _root_pid_map, arg_reduce_slots
from ..comm.ops import CombineOp, get_op
from ..machine.pvar import PVar
from ..machine.router import Router
from ..obs.tracer import maybe_span
from ..embeddings.matrix import MatrixEmbedding
from ..embeddings.remap import remap_vector
from ..embeddings.vector import (
    ColAlignedEmbedding,
    RowAlignedEmbedding,
    VectorEmbedding,
    _AlignedEmbedding,
)
from ..errors import ConfigError, EmbeddingError, ShapeError

Axis = int

INT64_MAX = np.iinfo(np.int64).max


def _check_axis(axis: Axis) -> int:
    if axis not in (0, 1):
        raise ConfigError(f"axis must be 0 (rows) or 1 (columns), got {axis}")
    return axis


def _aligned_embedding(
    emb: MatrixEmbedding, axis: Axis, resident: Optional[int]
) -> _AlignedEmbedding:
    """The vector embedding aligned with an axis-``axis`` slice of ``emb``.

    Instances are value objects (immutable after construction), so they are
    memoized per (matrix signature, axis, residence) on the plan cache and
    shared across solver iterations.
    """
    plans = emb.machine.plans
    if plans.enabled:
        return plans.memo(
            ("aligned-emb", emb.signature(), axis, resident),
            lambda: (
                RowAlignedEmbedding(emb, resident)
                if axis == 0
                else ColAlignedEmbedding(emb, resident)
            ),
        )
    if axis == 0:
        return RowAlignedEmbedding(emb, resident)  # slice of a row: length C
    return ColAlignedEmbedding(emb, resident)  # slice of a column: length R


def _slice_owner(emb: MatrixEmbedding, axis: Axis, index: int) -> Tuple[int, int]:
    """(grid coordinate, local slot) of slice ``index`` along ``axis``."""
    if axis == 0:
        if not (0 <= index < emb.R):
            raise IndexError(f"row index {index} out of range [0, {emb.R})")
        if emb.machine.plans.enabled:
            owners, slots = emb.row_owner_table()
            return int(owners[index]), int(slots[index])
        return int(emb.row_layout.owner(index)), int(emb.row_layout.slot(index))
    if not (0 <= index < emb.C):
        raise IndexError(f"column index {index} out of range [0, {emb.C})")
    if emb.machine.plans.enabled:
        owners, slots = emb.col_owner_table()
        return int(owners[index]), int(slots[index])
    return int(emb.col_layout.owner(index)), int(emb.col_layout.slot(index))


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def extract(
    pvar: PVar,
    emb: MatrixEmbedding,
    axis: Axis,
    index: int,
    replicate: bool = True,
) -> Tuple[PVar, VectorEmbedding]:
    """Extract slice ``index`` along ``axis`` as an aligned vector.

    Cost: one local slice copy in the owning grid band, then (if
    ``replicate``) ``lg`` of the orthogonal grid extent broadcast rounds of
    one local vector share each.
    """
    _check_axis(axis)
    machine = emb.machine
    with maybe_span(
        machine, "extract", "primitive",
        axis=axis, index=index, replicate=replicate,
    ):
        grid_coord, slot = _slice_owner(emb, axis, index)
        grid_r, grid_c = emb.grid_coords()

        if axis == 0:
            local = pvar.data[:, slot, :]
        else:
            local = pvar.data[:, :, slot]

        vec_emb = _aligned_embedding(emb, axis, resident=grid_coord)

        if replicate and machine.plans.enabled and vec_emb.across_dims:
            # Fused slice-copy + broadcast replay: the broadcast overwrites
            # every processor with the root band's slice, so the masked
            # intermediate is dead — gather the roots' values directly.  The
            # charge sequence (one local pass, then one full-block round per
            # orthogonal dimension) is exactly the unfused path's.
            root_pid = _root_pid_map(
                machine, vec_emb.across_dims, vec_emb.across_code(grid_coord)
            )
            machine.charge_local(local.shape[1])
            share = max(local.shape[1], 1)
            for d in vec_emb.across_dims:
                machine.charge_comm_round(share, dim=d)
            return (
                PVar(machine, local.take(root_pid, axis=0)),
                _aligned_embedding(emb, axis, None),
            )

        in_band = (grid_r if axis == 0 else grid_c) == grid_coord
        band = in_band.reshape((machine.p,) + (1,) * (local.ndim - 1))
        out = np.where(band, local, np.zeros((), dtype=local.dtype))
        machine.charge_local(local.shape[1])
        vec = PVar(machine, out)

        if replicate:
            vec = comm.broadcast(
                machine,
                vec,
                dims=vec_emb.across_dims,
                root_rank=vec_emb.across_code(grid_coord),
            )
            vec_emb = _aligned_embedding(emb, axis, None)
        return vec, vec_emb


# ---------------------------------------------------------------------------
# insert
# ---------------------------------------------------------------------------

def insert(
    pvar: PVar,
    emb: MatrixEmbedding,
    axis: Axis,
    index: int,
    vec: PVar,
    vec_emb: VectorEmbedding,
) -> PVar:
    """Write ``vec`` into slice ``index`` along ``axis``; returns a new matrix.

    If the vector is not aligned with the slice (wrong alignment, wrong
    residence), the primitive changes its embedding first — a remap and/or
    broadcast charged through the router.  The write itself is one masked
    local pass over the slice.
    """
    _check_axis(axis)
    machine = emb.machine
    with maybe_span(machine, "insert", "primitive", axis=axis, index=index):
        grid_coord, slot = _slice_owner(emb, axis, index)
        expected_len = emb.C if axis == 0 else emb.R
        if vec_emb.L != expected_len:
            raise ShapeError(
                f"vector length {vec_emb.L} does not match slice length "
                f"{expected_len}"
            )

        target_emb = _aligned_embedding(emb, axis, resident=grid_coord)
        if not vec_emb.compatible(target_emb):
            if (
                isinstance(vec_emb, type(target_emb))
                and vec_emb.replicated
                and vec_emb.matrix.same_grid(emb)
            ):
                # A replicated aligned vector already has the data in the
                # target band: no motion needed.
                pass
            else:
                vec = remap_vector(vec, vec_emb, target_emb)
                vec_emb = target_emb

        grid_r, grid_c = emb.grid_coords()
        out = pvar.data.copy()
        if axis == 0:
            band = grid_r == grid_coord
            out[band, slot, :] = vec.data[band]
        else:
            band = grid_c == grid_coord
            out[band, :, slot] = vec.data[band]
        machine.charge_local(vec.local_size)
        return PVar(machine, out)


# ---------------------------------------------------------------------------
# distribute
# ---------------------------------------------------------------------------

def distribute(
    vec: PVar,
    vec_emb: VectorEmbedding,
    emb: MatrixEmbedding,
    axis: Axis,
) -> PVar:
    """The matrix whose every axis-``axis`` slice equals ``vec``.

    ``distribute(v, axis=0)`` needs ``v`` of length ``C`` and yields the
    matrix with ``M[i, :] = v`` for all rows ``i``; ``axis=1`` tiles a
    length-``R`` vector across all columns.

    The vector is brought to the *replicated aligned* embedding (remap
    and/or subcube broadcast as needed — the embedding-change behaviour),
    then tiled locally into the matrix block: one ``lr × lc`` local pass.
    """
    _check_axis(axis)
    machine = emb.machine
    with maybe_span(machine, "distribute", "primitive", axis=axis):
        expected_len = emb.C if axis == 0 else emb.R
        if vec_emb.L != expected_len:
            raise ShapeError(
                f"vector length {vec_emb.L} does not match matrix axis length "
                f"{expected_len}"
            )

        target_emb = _aligned_embedding(emb, axis, resident=None)
        if not vec_emb.compatible(target_emb):
            if (
                isinstance(vec_emb, type(target_emb))
                and not vec_emb.replicated
                and vec_emb.matrix.same_grid(emb)
            ):
                # Aligned but resident in one band: a subcube broadcast
                # suffices.
                vec = comm.broadcast(
                    machine,
                    vec,
                    dims=vec_emb.across_dims,  # type: ignore[attr-defined]
                    root_rank=vec_emb.across_code(  # type: ignore[attr-defined]
                        vec_emb.resident  # type: ignore[attr-defined]
                    ),
                )
            else:
                vec = remap_vector(vec, vec_emb, target_emb)

        # One contiguous repeat along a unit axis (a batched machine's
        # trailing run axis rides along); copying a zero-stride broadcast
        # instead loops over the short slot axis.
        lr, lc = emb.local_shape
        if axis == 0:
            out = np.repeat(vec.data[:, None], lr, axis=1)
        else:
            out = np.repeat(vec.data[:, :, None], lc, axis=2)
        machine.charge_local(lr * lc)
        return PVar(machine, out)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def _masked_for_reduce(
    pvar: PVar, emb: MatrixEmbedding, op: CombineOp
) -> np.ndarray:
    """Replace padding slots with the op identity (one local pass)."""
    mask = emb.valid_mask()
    if mask.all():
        return pvar.data
    ident = op.identity(pvar.dtype)
    emb.machine.charge_local(pvar.local_size)
    if pvar.data.ndim > mask.ndim:
        mask = mask[..., None]  # broadcast over the trailing run axis
    return np.where(mask, pvar.data, ident)


@functools.lru_cache(maxsize=None)
def _reduce_dtype(ufunc: np.ufunc, dtype: np.dtype) -> np.dtype:
    """The dtype ``ufunc.reduce`` returns for ``dtype`` input.

    ``add``/``multiply`` reductions upcast integer and bool blocks narrower
    than the platform integer (a bool ``sum`` counts), and the logical ops
    return bool for any input.
    """
    return ufunc.reduce(np.zeros((0, 1), dtype), axis=1).dtype


def _fold_slots(data: np.ndarray, axis: int, ufunc: np.ufunc) -> np.ndarray:
    """``ufunc.reduce(data, axis)`` for an integer or bool block.

    Folds the slot ``axis`` one slice at a time in the reduction's dtype: a
    NumPy reduction along a short axis costs over ten times the fold.
    Integer and bool combines are exact in any order (adds and multiplies
    wrap modulo 2**w), so the fold equals the reduction bit for bit.  Float
    blocks must not come here: NumPy sums 8 or more contiguous slots
    pairwise, and a fold would move the last bits.
    """
    dtype = _reduce_dtype(ufunc, data.dtype)
    lead = (slice(None),) * axis
    if data.shape[axis] == 1:
        return data[lead + (0,)].astype(dtype)
    out = ufunc(data[lead + (0,)], data[lead + (1,)], dtype=dtype)
    for s in range(2, data.shape[axis]):
        ufunc(out, data[lead + (s,)], out=out)
    return out


def local_reduce(
    pvar: PVar,
    emb: MatrixEmbedding,
    axis: Axis,
    op: Union[CombineOp, str],
) -> Tuple[PVar, Tuple[int, ...], VectorEmbedding]:
    """The intra-processor half of ``reduce``: mask padding, tree-reduce the
    local block along ``axis``.

    Returns the per-processor partial vector, the cube dimensions still to
    be combined over, and the (replicated) embedding the full reduction
    will produce.  Shared by the primitive implementation (which finishes
    with a subcube all-reduce) and the naive baseline (which finishes with
    serialised band-by-band combining).
    """
    _check_axis(axis)
    op = get_op(op)
    machine = emb.machine
    data = _masked_for_reduce(pvar, emb, op)
    slot_axis = axis + 1

    if data.dtype.kind in "biu" and data.shape[slot_axis]:
        red = _fold_slots(data, slot_axis, op.ufunc)
    elif slot_axis == 2 and machine.n_runs is not None:
        # The scalar path reduces its contiguous last axis, where NumPy
        # applies pairwise summation; reduce a contiguous copy with the
        # run axis moved inward so every lane reproduces that
        # accumulation order bit-for-bit.
        moved = np.ascontiguousarray(np.moveaxis(data, 2, -1))
        red = op.ufunc.reduce(moved, axis=-1)
    else:
        red = op.ufunc.reduce(data, axis=slot_axis)
    reduced = PVar(machine, red)
    # one combine per slot past the first of every reduced slice
    kept = pvar.data.shape[3 - slot_axis]
    machine.charge_flops(max(pvar.local_size - kept, 0))
    if axis == 1:
        # combined across columns: a length-R vector aligned with rows
        return reduced, emb.col_dims, _aligned_embedding(emb, 1, None)
    return reduced, emb.row_dims, _aligned_embedding(emb, 0, None)


def reduce(
    pvar: PVar,
    emb: MatrixEmbedding,
    axis: Axis,
    op: Union[CombineOp, str],
) -> Tuple[PVar, VectorEmbedding]:
    """Combine along ``axis``: ``reduce(axis=1)`` yields row totals (length R).

    Local tree reduction over the local block, then a ``lg`` orthogonal-grid
    all-reduce of one vector share per round; the result is the *replicated*
    aligned vector (every grid band holds it), ready for a subsequent
    ``distribute`` at zero communication cost.
    """
    op = get_op(op)
    machine = emb.machine
    with maybe_span(machine, "reduce", "primitive", axis=axis, op=op.name):
        reduced, dims, vec_emb = local_reduce(pvar, emb, axis, op)
        result = comm.reduce_all(machine, reduced, op, dims=dims)
        return result, vec_emb


def local_reduce_loc(
    pvar: PVar,
    emb: MatrixEmbedding,
    axis: Axis,
    mode: str = "max",
    valid: Optional[PVar] = None,
) -> Tuple[PVar, PVar, Tuple[int, ...], VectorEmbedding]:
    """The intra-processor half of ``reduce_loc``.

    Masks padding/invalid slots, arg-reduces the local block (ties to the
    smallest *global* index) and returns per-processor (value, index)
    partials, the cube dimensions still to combine, and the final
    embedding.  Absent candidates carry the op identity and an INT64-max
    index sentinel.
    """
    _check_axis(axis)
    machine = emb.machine

    mask = emb.valid_mask()
    if pvar.data.ndim > mask.ndim:
        mask = mask[..., None]  # broadcast over the trailing run axis
    if valid is not None:
        if valid.local_shape != pvar.local_shape:
            raise ShapeError("valid mask must match the matrix local shape")
        mask = mask & valid.data.astype(bool, copy=False)
        machine.charge_flops(pvar.local_size)

    # Global index of every local slot along the reduced axis (wired-in
    # address arithmetic: free to form, charged when moved).
    if axis == 1:
        base = emb.global_cols()[:, None, :]
        local_axis = 2
    else:
        base = emb.global_rows()[:, :, None]
        local_axis = 1
    base = base.reshape(base.shape + (1,) * (pvar.data.ndim - base.ndim))

    # Local arg-reduce: one masking pass, then a serial scan.  Block,
    # cyclic and block-cyclic layouts all store increasing global indices
    # along a processor's slots, so the first extremal slot holds the
    # smallest index; the tie-break matters across processors, where
    # reduce_all_loc breaks ties by index.
    best_val, best_idx = arg_reduce_slots(
        pvar.data, mask, base, local_axis, mode
    )
    machine.charge_local(pvar.local_size)
    machine.charge_flops(pvar.local_size)
    machine.charge_flops(pvar.local_size)

    val_pv = PVar(machine, best_val)
    idx_pv = PVar(machine, best_idx)
    dims = emb.col_dims if axis == 1 else emb.row_dims
    vec_emb = _aligned_embedding(emb, 1 if axis == 1 else 0, None)
    return val_pv, idx_pv, dims, vec_emb


def reduce_loc(
    pvar: PVar,
    emb: MatrixEmbedding,
    axis: Axis,
    mode: str = "max",
    valid: Optional[PVar] = None,
) -> Tuple[PVar, PVar, VectorEmbedding]:
    """Arg-reduce along ``axis``: values plus *global* winning indices.

    ``reduce_loc(axis=1, mode='max')`` returns, for every row, the maximum
    entry and the global column index attaining it (ties to the smallest
    index).  ``valid`` optionally restricts candidates (a boolean PVar of
    the matrix's local shape); rows/columns with no candidate yield the
    identity value and index -1, which callers detect by index.

    This is the primitive behind Gaussian elimination's pivot search and
    both simplex pivot rules.
    """
    machine = emb.machine
    with maybe_span(machine, "reduce_loc", "primitive", axis=axis, mode=mode):
        val_pv, idx_pv, dims, vec_emb = local_reduce_loc(
            pvar, emb, axis, mode=mode, valid=valid
        )
        val_pv, idx_pv = comm.reduce_all_loc(
            machine, val_pv, idx_pv, dims=dims, mode=mode
        )
        # Slices with no valid candidate keep the sentinel; expose as -1.
        cleaned = np.where(
            idx_pv.data == INT64_MAX, -1, idx_pv.data
        )
        idx_pv = PVar(machine, cleaned)
        return val_pv, idx_pv, vec_emb


# ---------------------------------------------------------------------------
# derived (zero-communication) operations on aligned data
# ---------------------------------------------------------------------------

def rank1_update(
    pvar: PVar,
    emb: MatrixEmbedding,
    col: PVar,
    col_emb: VectorEmbedding,
    row: PVar,
    row_emb: VectorEmbedding,
    alpha: float = -1.0,
) -> PVar:
    """``M + alpha * outer(col, row)`` with aligned replicated vectors.

    ``col`` must be column-aligned (length R) and ``row`` row-aligned
    (length C), both replicated — exactly what ``extract``/``reduce``
    produce — so the update is pure local arithmetic (two flop passes, zero
    communication).  This is the whole point of the primitives: the
    elimination/pivot inner loops of Gaussian elimination and simplex
    become communication-free.
    """
    machine = emb.machine
    with maybe_span(machine, "rank1_update", "primitive", alpha=alpha):
        target_col = _aligned_embedding(emb, 1, None)
        target_row = _aligned_embedding(emb, 0, None)
        if not (col_emb.compatible(target_col) or (
            isinstance(col_emb, ColAlignedEmbedding)
            and col_emb.replicated and col_emb.matrix.same_grid(emb)
        )):
            col = remap_vector(col, col_emb, target_col)
        if not (row_emb.compatible(target_row) or (
            isinstance(row_emb, RowAlignedEmbedding)
            and row_emb.replicated and row_emb.matrix.same_grid(emb)
        )):
            row = remap_vector(row, row_emb, target_row)
        outer = col.data[:, :, None] * row.data[:, None, :]
        if outer.dtype == pvar.dtype and outer.dtype.kind == "f":
            # In-place temporaries; elementwise result is bit-identical to
            # ``data + alpha * outer`` (IEEE multiply/add are commutative).
            np.multiply(outer, alpha, out=outer)
            np.add(outer, pvar.data, out=outer)
            out = outer
        else:
            out = pvar.data + alpha * outer
        machine.charge_flops(3 * pvar.local_size)
        return PVar(machine, out)


# ---------------------------------------------------------------------------
# derived primitives: scan and permute
# ---------------------------------------------------------------------------

def scan(
    pvar: PVar,
    emb: MatrixEmbedding,
    axis: Axis,
    op: Union[CombineOp, str] = "sum",
    inclusive: bool = False,
) -> PVar:
    """Parallel prefix along ``axis``: ``scan(axis=1)`` scans each row.

    The scan-vector-model companion of ``reduce``: a local prefix pass over
    the block, an exclusive subcube scan of the block totals over the
    orthogonal dimensions, and a local offset pass — ``O(m/p)`` arithmetic
    plus ``lg`` rounds of one vector share, identical in shape to reduce.

    Requires a *block* (consecutive) layout along the scanned axis: a
    cyclic layout interleaves the scan order across processors, for which
    no load-balanced prefix exists without a full remap.
    """
    _check_axis(axis)
    op = get_op(op)
    machine = emb.machine
    layout_kind = emb._col_layout_kind if axis == 1 else emb._row_layout_kind
    if layout_kind != "block":
        raise EmbeddingError(
            "scan requires a block layout along the scanned axis; "
            f"got {layout_kind!r}"
        )
    with maybe_span(machine, "scan", "primitive", axis=axis, op=op.name):
        data = _masked_for_reduce(pvar, emb, op)
        local_axis = 2 if axis == 1 else 1

        # local inclusive prefix + block totals
        local_incl = op.ufunc.accumulate(data, axis=local_axis)
        machine.charge_flops(pvar.local_size)
        totals = np.take(local_incl, -1, axis=local_axis)

        dims = emb.col_dims if axis == 1 else emb.row_dims
        grid_rank = emb.grid_coords()[1] if axis == 1 else emb.grid_coords()[0]
        carry = comm.scan(
            machine, PVar(machine, totals), op, dims=dims, rank=grid_rank
        )

        # fold the carry in; exclusive shifts the local prefix by one slot
        if inclusive:
            local = local_incl
        else:
            pad_shape = list(data.shape)
            pad_shape[local_axis] = 1
            ident = op.identity(pvar.dtype)
            pad = np.full(pad_shape, ident, dtype=local_incl.dtype)
            local = np.concatenate(
                [pad, np.delete(local_incl, -1, axis=local_axis)],
                axis=local_axis,
            )
            machine.charge_local(pvar.local_size)
        out = op(np.expand_dims(carry.data, local_axis), local)
        machine.charge_flops(pvar.local_size)
        return PVar(machine, out)


def permute_slices(
    pvar: PVar,
    emb: MatrixEmbedding,
    axis: Axis,
    perm: np.ndarray,
) -> PVar:
    """Reorder whole slices: ``out[perm[i], :] = M[i, :]`` for ``axis=0``.

    A permutation of matrix rows (or columns) is a data motion between the
    grid bands that own the slices, routed through the e-cube router with
    its real congestion; slices that stay within their band only pay a
    local move.  This generalises the row swap of Gaussian elimination to
    arbitrary permutations (e.g. applying a pivot permutation at the end of
    a factorisation, or bit-reversal reordering).
    """
    _check_axis(axis)
    machine = emb.machine
    extent = emb.R if axis == 0 else emb.C
    perm = np.asarray(perm)
    if perm.shape != (extent,) or not np.array_equal(
        np.sort(perm), np.arange(extent)
    ):
        raise ConfigError(f"perm must be a permutation of range({extent})")

    layout = emb.row_layout if axis == 0 else emb.col_layout
    share = emb.local_shape[1] if axis == 0 else emb.local_shape[0]

    with maybe_span(machine, "permute_slices", "primitive", axis=axis):
        # message set: one message per slice that changes grid band, of one
        # local share per processor in the band pair; the router sees the
        # per-processor traffic, so sizes are the slice share.
        src_band = np.asarray(layout.owner(np.arange(extent)))
        dst_band = np.asarray(layout.owner(perm))
        moving = src_band != dst_band
        if np.any(moving):
            if axis == 0:
                src_pid = emb.pid_for_grid(src_band[moving], emb._grid_c[0] * 0)
            # Build per-(band-pair, grid-cell) messages: every processor in
            # the source band sends its share of the slice to its
            # counterpart.
            ii = np.nonzero(moving)[0]
            srcs = []
            dsts = []
            sizes = []
            across = emb.Pc if axis == 0 else emb.Pr
            for i in ii:
                for k in range(across):
                    if axis == 0:
                        srcs.append(
                            int(np.asarray(emb.pid_for_grid(src_band[i], k)))
                        )
                        dsts.append(
                            int(np.asarray(emb.pid_for_grid(dst_band[i], k)))
                        )
                    else:
                        srcs.append(
                            int(np.asarray(emb.pid_for_grid(k, src_band[i])))
                        )
                        dsts.append(
                            int(np.asarray(emb.pid_for_grid(k, dst_band[i])))
                        )
                    sizes.append(float(share))
            Router(machine).simulate(
                np.array(srcs), np.array(dsts), np.array(sizes)
            )
        machine.charge_local(pvar.local_size)  # pack/unpack the moved slices

        # functional move through the host image (exact; see remap.py
        # rationale)
        if axis == 0:
            host = emb.gather(pvar)
            out = np.empty_like(host)
            out[perm] = host
        else:
            host = emb.gather(pvar)
            out = np.empty_like(host)
            out[:, perm] = host
        return emb.scatter(out)
