"""Dimension-exchange collectives on (sub)cubes.

Every collective here operates over an arbitrary *subset* of cube
dimensions, so the same code runs over the whole machine or over the row /
column subcubes of a two-dimensional processor grid — which is exactly how
the paper's primitives use them (a row-reduce is an all-reduce over the
column dimensions of the grid, etc.).

All collectives execute real per-dimension exchange rounds on the simulated
machine, so their charged cost is a consequence of what they actually do:

============================  =====================================================
collective                    cost over a 2**k subcube, local block of L elements
============================  =====================================================
``broadcast``                 k rounds × (tau + L·t_c)
``reduce_all`` / ``reduce``   k rounds × (tau + L·t_c) + k·L arithmetic
``reduce_all_loc``            as reduce_all with paired (value, index) payload
``scan``                      k rounds × (tau + L·t_c) + 2k·L arithmetic
``allgather``/``gather``      k rounds, round j moves L·2**j  (total (2**k −1)·L)
``scatter``                   k rounds, round j moves L·2**k/2**(j+1)
============================  =====================================================

These are the standard Boolean-cube algorithms of Johnsson & Ho that the
paper's implementation section builds on.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..embeddings.gray import deposit_bits, extract_bits
from ..errors import ConfigError, ShapeError
from ..machine.hypercube import Hypercube
from ..machine.plans import readonly
from ..machine.pvar import PVar, _machine_local_size
from ..obs.tracer import maybe_span
from .ops import CombineOp, get_op


def _dims_tuple(machine: Hypercube, dims: Optional[Sequence[int]]) -> Tuple[int, ...]:
    if dims is None:
        return machine.dims
    return machine.check_dims(dims)


def subcube_rank(machine: Hypercube, dims: Sequence[int]) -> np.ndarray:
    """Each processor's rank within its subcube spanned by ``dims``.

    ``dims[0]`` is the least-significant rank bit.  Host-side array (free):
    every processor can compute its own rank from its wired-in address.
    Memoized per ``dims`` on the machine's plan cache (read-only array).
    """
    dims = _dims_tuple(machine, dims)
    return machine.plans.memo(
        ("subcube-rank", dims),
        lambda: readonly(extract_bits(machine.pids(), dims)),
    )


def subcube_base(machine: Hypercube, dims: Sequence[int]) -> np.ndarray:
    """The pid of the rank-0 member of each processor's subcube."""
    dims = _dims_tuple(machine, dims)
    return machine.plans.memo(
        ("subcube-base", dims),
        lambda: readonly(machine.pids() & ~deposit_bits(-1, dims)),
    )


def reading_subcube(
    machine: Hypercube, dims: Tuple[int, ...], pid: int
) -> Tuple[np.ndarray, int]:
    """The ``dims``-subcube that holds processor ``pid``.

    Returns its member pids ordered by subcube rank (rank bit ``j`` is
    cube dimension ``dims[j]``) and ``pid``'s own rank among them.
    Subcubes never exchange with each other, so these ``2**k`` members
    alone decide what ``pid`` holds after a collective over ``dims``.
    Memoized per ``(dims, pid)`` on the plan cache (read-only).
    """

    def build() -> Tuple[np.ndarray, int]:
        ranks = np.arange(1 << len(dims), dtype=np.int64)
        members = (pid & ~deposit_bits(-1, dims)) | deposit_bits(ranks, dims)
        return readonly(members), extract_bits(pid, dims)

    return machine.plans.memo(("reading-subcube", dims, pid), build)


def _root_pid_map(
    machine: Hypercube, dims: Tuple[int, ...], root_rank: int
) -> np.ndarray:
    """Per-pid address of the rank-``root_rank`` member of its subcube.

    This is the whole "plan" of a broadcast over a fixed ``(dims,
    root_rank)`` pair: every processor's result is the root's block, so
    knowing each processor's root suffices to replay the collective.
    """
    return machine.plans.memo(
        ("root-pid", dims, root_rank),
        lambda: readonly(
            subcube_base(machine, dims) | deposit_bits(root_rank, dims)
        ),
    )


def broadcast(
    machine: Hypercube,
    pvar: PVar,
    dims: Optional[Sequence[int]] = None,
    root_rank: int = 0,
) -> PVar:
    """Binomial-tree broadcast within every subcube spanned by ``dims``.

    The subcube member with rank ``root_rank`` is the source; afterwards all
    members of each subcube hold the source's block.
    """
    dims = _dims_tuple(machine, dims)
    if not dims:
        return pvar
    if not (0 <= root_rank < (1 << len(dims))):
        raise ConfigError(f"root_rank {root_rank} out of range for {len(dims)} dims")
    with maybe_span(
        machine, "broadcast", "collective",
        dims=list(dims), volume=pvar.local_size,
    ):
        sanitizer = machine.sanitizer
        if machine.plans.enabled:
            # Plan replay: the binomial tree's charge schedule is one
            # full-block round per dimension, and its functional result is
            # the root's block everywhere — both replayed exactly from the
            # cached root map, so ticks and data are bit-identical to the
            # exchange loop below.
            machine._check_owned(pvar)
            root_pid = _root_pid_map(machine, dims, root_rank)
            for d in dims:
                machine.charge_comm_round(pvar.local_size, dim=d)
            out = PVar(machine, pvar.data.take(root_pid, axis=0))
            if sanitizer is not None:
                sanitizer.audit_broadcast(machine, dims, root_rank, pvar, out)
            return out
        rank = subcube_rank(machine, dims)
        has = rank == root_rank
        data = pvar
        for d in dims:
            recv = machine.exchange(data, d)
            recv_has = has[machine.pids() ^ (1 << d)]
            take = recv_has & ~has
            if np.any(take):
                out = data.data.copy()
                out[take] = recv.data[take]
                data = PVar(machine, out)
            has = has | recv_has
        assert bool(np.all(has))
        if sanitizer is not None:
            sanitizer.audit_broadcast(machine, dims, root_rank, pvar, data)
        return data


def reduce_all(
    machine: Hypercube,
    pvar: PVar,
    op: "CombineOp | str",
    dims: Optional[Sequence[int]] = None,
) -> PVar:
    """All-reduce: every subcube member ends with the op-combination.

    The classic lg(p) dimension-exchange: combine with the neighbour's block
    along each dimension in turn.
    """
    op = get_op(op)
    dims = _dims_tuple(machine, dims)
    with maybe_span(
        machine, "reduce_all", "collective",
        dims=list(dims), volume=pvar.local_size, op=op.name,
    ):
        sanitizer = machine.sanitizer
        if machine.plans.enabled and machine.faults is None:
            # Plan replay: the loop below with each Hypercube.exchange cut
            # down to its charge and its neighbour take.  Every member gets
            # the loop's own op(own, partner), so each op and dtype comes
            # out bit for bit, NaN payloads and ±0 included.  A fault
            # injector keeps the loop: exchange polls it and delivers its
            # in-flight corruption.
            machine._check_owned(pvar)
            ls = pvar.local_size
            # With ABFT wire protection each block carries a checksum word.
            volume = ls + 1 if machine.abft is not None else ls
            cur = pvar.data
            for d in dims:
                machine.charge_comm_round(volume, dim=d)
                cur = op(cur, cur.take(machine._neighbor[d], axis=0))
                machine.charge_flops(ls)
            data = PVar(machine, cur)
            if sanitizer is not None:
                sanitizer.audit_reduce_all_replay(machine, op, dims, pvar, data)
        else:
            data = pvar
            for d in dims:
                recv = machine.exchange(data, d)
                combined = op(data.data, recv.data)
                machine.charge_flops(data.local_size)
                data = PVar(machine, combined)
        if sanitizer is not None:
            sanitizer.audit_replicated(machine, data, dims, "reduce_all")
        return data


def reduce(
    machine: Hypercube,
    pvar: PVar,
    op: "CombineOp | str",
    dims: Optional[Sequence[int]] = None,
    root_rank: int = 0,
) -> PVar:
    """Reduce-to-root.

    On a Boolean cube the all-reduce has the same round and volume structure
    as the optimal reduce-to-root (k rounds of the full block), so we run the
    all-reduce; only the rank-``root_rank`` value is guaranteed meaningful to
    callers that treat this as a rooted reduce.
    """
    del root_rank  # every member ends up with the result
    return reduce_all(machine, pvar, op, dims)


INT64_MAX = np.iinfo(np.int64).max

#: The value fold of each arg-reduce mode.
_ARG_FOLD = {"max": np.maximum, "min": np.minimum}


def arg_reduce_slots(
    data: np.ndarray, mask: np.ndarray, gidx: np.ndarray, axis: int, mode: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Local stage of the arg-reduce, along each processor's slot ``axis``.

    Candidates are the slots where ``mask`` holds; ``gidx`` broadcasts to
    ``data`` with each slot's global index.  Per slice: the extreme
    candidate value and the smallest index among the candidates equal to
    it, the value being that winning slot's own element (the sign of a
    ±0.0 extreme).  No candidate, an extreme equal to the op identity or a
    NaN extreme leaves the index at ``INT64_MAX``.

    Masks once, then folds the slot axis slice by slice (a NumPy reduction
    along a short axis costs over ten times the fold); one slot is a view
    of the masked block.  Block, cyclic and block-cyclic layouts all store
    increasing global indices along a processor's slots, so the first slot
    equal to the extreme holds the winning index.
    """
    fold = _ARG_FOLD.get(mode)
    if fold is None:
        raise ConfigError(f"mode must be 'max' or 'min', got {mode!r}")
    ident = get_op(mode).identity(data.dtype)
    masked = np.where(mask, data, ident)
    lead = (slice(None),) * axis
    slots = [masked[lead + (s,)] for s in range(masked.shape[axis])]
    best = slots[0] if len(slots) == 1 else fold(slots[0], slots[1])
    for slot in slots[2:]:
        fold(best, slot, out=best)
    # A NaN extreme equals no slot, so its index stays the sentinel.
    idx = np.where(slots[-1] == best, gidx[lead + (-1,)], INT64_MAX)
    for s in range(len(slots) - 2, -1, -1):
        np.copyto(idx, gidx[lead + (s,)], where=slots[s] == best)
    idx[best == ident] = INT64_MAX
    if len(slots) > 1 and best.dtype.kind == "f":
        zero = best == 0
        if zero.any():
            # The fold returns either zero; the first zero slot wins.
            for slot in reversed(slots):
                np.copyto(best, slot, where=zero & (slot == 0))
    return best, idx


def arg_reduce_subcubes(
    n: int,
    value: np.ndarray,
    index: np.ndarray,
    dims: Tuple[int, ...],
    mode: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Subcube stage of the arg-reduce, over ``(p, …)`` partials (p = 2**n).

    Every member of each subcube spanned by ``dims`` gets the extreme value
    and the smallest index among the partials equal to it; the value is
    that winner's own partial (the sign of a ±0.0 extreme), and a NaN
    extreme leaves the index dtype's maximum.  (value, index) with ties to
    the smaller index is a monoid, so the partials combine in any order:
    cube dimension ``d`` is axis ``n - 1 - d`` of ``value.reshape((2,) * n
    + local)``, and one call reduces all of the subcube's axes.  Returns
    fresh arrays (the inputs when ``dims`` is empty).
    """
    if not dims:
        return value, index
    shape = (2,) * n + value.shape[1:]
    axes = tuple(n - 1 - d for d in dims)
    v, i = value.reshape(shape), index.reshape(shape)
    best = _ARG_FOLD[mode].reduce(v, axis=axes, keepdims=True)
    win = np.minimum.reduce(
        i, axis=axes, keepdims=True, where=v == best,
        initial=np.iinfo(index.dtype).max,
    )
    if best.dtype.kind == "f":
        zero = best == 0
        if zero.any():
            # The reduction returns either zero; the winner's sign decides.
            neg = np.logical_or.reduce(
                (i == win) & np.signbit(v), axis=axes, keepdims=True
            )
            np.abs(best, out=best, where=zero)
            np.negative(best, out=best, where=zero & neg)
    out_v, out_i = np.empty(shape, value.dtype), np.empty(shape, index.dtype)
    out_v[...], out_i[...] = best, win
    return out_v.reshape(value.shape), out_i.reshape(index.shape)


def reduce_all_loc(
    machine: Hypercube,
    value: PVar,
    index: PVar,
    dims: Optional[Sequence[int]] = None,
    mode: str = "max",
) -> Tuple[PVar, PVar]:
    """All-reduce of (value, index) pairs: arg-max / arg-min across a subcube.

    Ties break toward the smaller index, which makes the result independent
    of the combining order (needed both for determinism and for Bland-rule
    pivoting in the simplex application).
    """
    if mode not in ("max", "min"):
        raise ConfigError(f"mode must be 'max' or 'min', got {mode!r}")
    dims = _dims_tuple(machine, dims)
    if value.local_shape != index.local_shape:
        raise ShapeError(
            f"value and index must have identical local shapes, got "
            f"{value.local_shape} and {index.local_shape}"
        )
    with maybe_span(
        machine, "reduce_all_loc", "collective",
        dims=list(dims), volume=value.local_size, mode=mode,
    ):
        return _reduce_all_loc_impl(machine, value, index, dims, mode)


def _reduce_all_loc_impl(
    machine: Hypercube,
    value: PVar,
    index: PVar,
    dims: Tuple[int, ...],
    mode: str,
) -> Tuple[PVar, PVar]:
    val = value
    idx = index
    if (
        machine.plans.enabled
        and dims
        and index.dtype.kind in "iu"
        and not (value.dtype.kind == "f" and np.isnan(value.data).any())
    ):
        # Replay: the pair-combine (larger value, ties to the smaller index,
        # the winner's own value) is associative and commutative on
        # NaN-free values, so the dimension-exchange loop below computes
        # exactly arg_reduce_subcubes' result.  The loop's charge schedule
        # is data-independent and replayed verbatim.  NaNs break the
        # order-independence argument, so they take the loop.
        machine._check_owned(value)
        machine._check_owned(index)
        best, win = arg_reduce_subcubes(
            machine.n, value.data, index.data, dims, mode
        )
        _charge_pair_exchange(machine, dims, val.local_size)
        return PVar(machine, best), PVar(machine, win)
    for d in dims:
        rv = machine.exchange(val, d)
        ri = machine.exchange(idx, d)
        new_val, new_idx = _pair_combine(
            (val.data, idx.data), (rv.data, ri.data), mode
        )
        machine.charge_flops(3 * val.local_size)  # compare, tie-break, select
        val = PVar(machine, new_val)
        idx = PVar(machine, new_idx)
    return val, idx


def _pair_combine(
    own: Tuple[np.ndarray, np.ndarray],
    partner: Tuple[np.ndarray, np.ndarray],
    mode: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """The exchange loop's (value, index) combine: take the partner's pair
    when its value is better, or equal with a smaller index."""
    (val, idx), (rv, ri) = own, partner
    better = rv > val if mode == "max" else rv < val
    take = better | ((rv == val) & (ri < idx))
    return np.where(take, rv, val), np.where(take, ri, idx)


def _charge_pair_exchange(
    machine: Hypercube, dims: Tuple[int, ...], ls: int
) -> None:
    """The exchange loop's schedule: per dimension, two ``ls``-element
    rounds (value, then index) and one 3-op compare/tie-break/select."""
    for d in dims:
        machine.charge_comm_round(ls, dim=d)
        machine.charge_comm_round(ls, dim=d)
        machine.charge_flops(3 * ls)


def _fold_to_reader(
    value: np.ndarray, index: np.ndarray, pos: int, mode: str
) -> Tuple[np.ndarray, np.ndarray]:
    """The (value, index) block that subcube rank ``pos`` holds after the
    exchange loop of :func:`reduce_all_loc`.

    ``value``/``index`` hold ``2**k`` members' partials ordered by subcube
    rank.  Step ``j`` of the loop gives every member :func:`_pair_combine`
    of its own pair and its partner's across rank bit ``j``.  Later steps
    keep bit ``j``, so after step ``j`` only the half whose bit ``j``
    matches ``pos`` can reach the reader: ``2**k - 1`` combines in all,
    each exactly the loop's own.
    """
    k = value.shape[0].bit_length() - 1
    val = value.reshape((2,) * k + value.shape[1:])
    idx = index.reshape((2,) * k + index.shape[1:])
    for j in range(k):
        bit = (pos >> j) & 1
        lead = (slice(None),) * (k - 1 - j)  # rank bit j: last rank axis left
        own, partner = lead + (bit,), lead + (1 - bit,)
        val, idx = _pair_combine(
            (val[own], idx[own]), (val[partner], idx[partner]), mode
        )
    return val, idx


def reduce_all_loc_to_reader(
    machine: Hypercube,
    value: np.ndarray,
    index: np.ndarray,
    dims: Tuple[int, ...],
    pos: int,
    mode: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`reduce_all_loc` over ``dims`` as one reader sees it.

    ``value``/``index`` are the partials of the reader's subcube members
    by rank (see :func:`reading_subcube`) and ``pos`` is the reader's
    rank.  Returns the (value, index) the exchange loop leaves on the
    reader, bit for bit for every input (the fold is the loop restricted
    to the members, so NaN partials and ±0.0 ties come out as the loop
    leaves them), and charges the loop's schedule inside the same span.
    """
    ls = _machine_local_size(machine, value.shape)
    with maybe_span(
        machine, "reduce_all_loc", "collective",
        dims=list(dims), volume=ls, mode=mode,
    ):
        best, win = _fold_to_reader(value, index, pos, mode)
        _charge_pair_exchange(machine, dims, ls)
        return best, win


def scan(
    machine: Hypercube,
    pvar: PVar,
    op: "CombineOp | str",
    dims: Optional[Sequence[int]] = None,
    inclusive: bool = False,
    rank: Optional[np.ndarray] = None,
) -> PVar:
    """Parallel prefix over subcube ranks (``dims[0]`` least significant).

    The standard Boolean-cube scan: carry an (exclusive-prefix, segment
    total) pair up the dimensions.  Exclusive by default; rank 0 receives
    the identity.

    ``rank`` optionally relabels the scan order: a ``(p,)`` array giving
    each processor's position within its subcube.  It must be *bitwise
    compatible* with ``dims`` — flipping cube dimension ``dims[k]`` must
    flip bit ``k`` of the rank (and possibly lower bits only), which holds
    for both plain binary ranks (the default) and binary-reflected Gray
    ranks.  This is how scans run in *grid order* over Gray-coded grids:
    because the combining operators are commutative, block totals are
    order-free and only the "am I the higher half" test needs the rank.
    """
    op = get_op(op)
    dims = _dims_tuple(machine, dims)
    with maybe_span(
        machine, "scan", "collective",
        dims=list(dims), volume=pvar.local_size, op=op.name,
    ):
        ident = op.identity(pvar.dtype)
        prefix = np.full_like(pvar.data, ident)
        total = pvar.data.copy()
        machine.charge_local(2 * pvar.local_size)
        if rank is None:
            rank = subcube_rank(machine, dims)
        else:
            rank = np.asarray(rank)
            if rank.shape != (machine.p,):
                raise ShapeError(
                    f"rank must have shape ({machine.p},), got {rank.shape}"
                )
        for k, d in enumerate(dims):
            total_pv = PVar(machine, total)
            recv_total = machine.exchange(total_pv, d).data
            high = ((rank >> k) & 1) == 1
            shape = (machine.p,) + (1,) * (pvar.data.ndim - 1)
            high_b = high.reshape(shape)
            # Processors in the rank-upper half have every lower-half member
            # before them in rank order: fold the other half's total in.
            prefix = np.where(high_b, op(recv_total, prefix), prefix)
            total = op(total, recv_total)
            machine.charge_flops(2 * pvar.local_size)
        if inclusive:
            prefix = op(prefix, pvar.data)
            machine.charge_flops(pvar.local_size)
        return PVar(machine, prefix)


def allgather(
    machine: Hypercube,
    pvar: PVar,
    dims: Optional[Sequence[int]] = None,
) -> PVar:
    """Concatenate all subcube members' blocks on every member.

    Recursive doubling: after round j every processor holds ``2**(j+1)``
    blocks; the result's leading local axis indexes blocks by subcube rank.
    Scalar blocks are promoted to length-1 vectors.
    """
    dims = _dims_tuple(machine, dims)
    with maybe_span(
        machine, "allgather", "collective",
        dims=list(dims), volume=pvar.local_size,
    ):
        data = pvar.data
        n_runs = machine.n_runs
        if n_runs is None:
            if data.ndim == 1:
                data = data[:, None]
        elif data.ndim == 2:
            # Batched scalar blocks are (p, n_runs); the length-1 block
            # axis goes between the processor and run axes.
            data = data[:, None, :]
        pids = machine.pids()
        blocks = data[:, None, ...]  # (p, nblocks=1, *local)
        for d in dims:
            cur = PVar(machine, blocks)
            recv = machine.exchange(cur, d).data
            low = ((pids >> d) & 1) == 0
            first = np.where(
                low.reshape((-1,) + (1,) * (blocks.ndim - 1)), blocks, recv
            )
            second = np.where(
                low.reshape((-1,) + (1,) * (blocks.ndim - 1)), recv, blocks
            )
            blocks = np.concatenate([first, second], axis=1)
            grown = first[0].size + second[0].size
            if n_runs is not None:
                grown //= n_runs  # charge volumes are per lane
            machine.charge_local(grown)
        return PVar(machine, blocks)


def gather(
    machine: Hypercube,
    pvar: PVar,
    dims: Optional[Sequence[int]] = None,
) -> PVar:
    """Gather all subcube blocks (rank order) — result valid on rank 0.

    Implemented via :func:`allgather`; on a Boolean cube the rooted gather
    along a binomial tree has the same (2**k − 1)·L transfer volume and k
    start-ups as recursive doubling, so the charge is faithful.
    """
    return allgather(machine, pvar, dims)


def scatter(
    machine: Hypercube,
    pvar: PVar,
    dims: Optional[Sequence[int]] = None,
    root_rank: int = 0,
) -> PVar:
    """Distribute rank-``root_rank``'s blocks across its subcube.

    Input local shape is ``(2**k, *block)``: one block per subcube rank.
    Output local shape is ``block``: each member keeps the block matching
    its own rank.  Charged per the recursive-halving schedule (round j sends
    half of what remains), executed functionally.
    """
    dims = _dims_tuple(machine, dims)
    k = len(dims)
    nblocks = 1 << k
    if not pvar.local_shape or pvar.local_shape[0] != nblocks:
        raise ShapeError(
            f"scatter input must have leading local axis {nblocks}, "
            f"got local shape {pvar.local_shape}"
        )
    block_size = pvar.local_size // nblocks
    with maybe_span(
        machine, "scatter", "collective",
        dims=list(dims), volume=block_size,
    ):
        # Charge the recursive-halving schedule: k rounds, round j moves
        # nblocks/2**(j+1) blocks.
        remaining = nblocks
        for d in dims:
            remaining //= 2
            machine.charge_comm_round(remaining * block_size, dim=d)
        rank = subcube_rank(machine, dims)
        root_pid = _root_pid_map(machine, dims, root_rank)
        out = pvar.data[root_pid, rank]
        machine.charge_local(block_size)
        return PVar(machine, out)


def alltoall(
    machine: Hypercube,
    pvar: PVar,
    dims: Optional[Sequence[int]] = None,
) -> PVar:
    """All-to-all personalized communication (total exchange).

    Input local shape ``(2**k, *block)``: block ``j`` is destined for the
    subcube member of rank ``j``.  Output has the same shape with block
    ``i`` holding what rank-``i`` sent to this processor — the matrix
    transpose of the block array across each subcube.

    The classic recursive-exchange algorithm: along each dimension every
    processor sends the half of its blocks whose destination lies across
    that dimension — ``k`` rounds of ``2**(k-1)`` blocks each, the optimal
    single-port schedule (Johnsson & Ho's all-to-all personalized
    communication).
    """
    dims = _dims_tuple(machine, dims)
    k = len(dims)
    nblocks = 1 << k
    if not pvar.local_shape or pvar.local_shape[0] != nblocks:
        raise ShapeError(
            f"alltoall input must have leading local axis {nblocks}, "
            f"got local shape {pvar.local_shape}"
        )
    if k == 0:
        return pvar
    rank = subcube_rank(machine, dims)
    block_size = pvar.local_size // nblocks

    with maybe_span(
        machine, "alltoall", "collective",
        dims=list(dims), volume=pvar.local_size,
    ):
        # Re-index blocks by the XOR offset x = rank(src) ^ rank(dst), which
        # is invariant along a message's whole route: slot x of processor q
        # then always holds the in-flight message whose source-to-destination
        # offset is x and whose current holder is q.
        x_of = rank[:, None] ^ np.arange(nblocks)[None, :]
        data = np.take_along_axis(
            pvar.data,
            x_of.reshape((machine.p, nblocks) + (1,) * (pvar.data.ndim - 2)),
            axis=1,
        )
        machine.charge_local(pvar.local_size)

        for bit, d in enumerate(dims):
            # all messages whose offset has this bit set cross this dimension
            recv = machine.exchange_free(PVar(machine, data), d).data
            machine.charge_comm_round((nblocks // 2) * block_size, dim=d)
            crossing = ((np.arange(nblocks) >> bit) & 1) == 1
            shape = (1, nblocks) + (1,) * (data.ndim - 2)
            data = np.where(crossing.reshape(shape), recv, data)
            machine.charge_local((nblocks // 2) * block_size)

        # Slot x now holds the message from the rank-(rank(q)^x) member;
        # undo the re-indexing so block i holds rank-i's message.
        out = np.take_along_axis(
            data, x_of.reshape((machine.p, nblocks) + (1,) * (data.ndim - 2)),
            axis=1,
        )
        machine.charge_local(pvar.local_size)
        return PVar(machine, out)


def broadcast_pipelined(
    machine: Hypercube,
    pvar: PVar,
    dims: Optional[Sequence[int]] = None,
    root_rank: int = 0,
) -> PVar:
    """Large-message broadcast: split the block into ``k`` pieces and
    pipeline them down the spanning tree.

    The plain binomial broadcast moves the *whole* block in each of its
    ``k`` rounds (``k·(tau + L·t_c)``); the pipelined schedule (Johnsson &
    Ho's multiple-spanning-tree family) streams ``k`` pieces of ``L/k``
    elements through ``2k - 1`` rounds:

        T = (2k - 1) · (tau + ceil(L/k) · t_c)

    — asymptotically ``2L·t_c`` instead of ``k·L·t_c``, at twice the
    start-ups.  Use it when ``L·t_c >> tau``; :func:`broadcast_crossover`
    gives the break-even volume.  Functionally identical to
    :func:`broadcast`.
    """
    dims = _dims_tuple(machine, dims)
    k = len(dims)
    if k <= 1:
        return broadcast(machine, pvar, dims, root_rank)
    with maybe_span(
        machine, "broadcast_pipelined", "collective",
        dims=list(dims), volume=pvar.local_size,
    ):
        piece = -(-pvar.local_size // k)
        # pipelined rounds traverse the whole spanning-tree family; no
        # single cube dimension owns a round, so the tracer files them
        # under dim -1.
        machine.charge_comm_round(piece, rounds=2 * k - 1)
        # functional result: everyone gets the root's block
        root_pid = _root_pid_map(machine, dims, root_rank)
        out = PVar(machine, pvar.data.take(root_pid, axis=0))
        sanitizer = machine.sanitizer
        if sanitizer is not None:
            sanitizer.audit_broadcast(machine, dims, root_rank, pvar, out)
        return out


def reduce_all_pipelined(
    machine: Hypercube,
    pvar: PVar,
    op: "CombineOp | str",
    dims: Optional[Sequence[int]] = None,
) -> PVar:
    """Large-message all-reduce: reduce-scatter + all-gather.

    The classic bandwidth-optimal schedule: recursive halving combines
    pieces (k rounds, volumes L/2, L/4, …), then recursive doubling
    redistributes the combined pieces (k rounds, volumes …, L/4, L/2) —
    total volume ``~2L`` against the plain dimension-exchange's ``k·L``,
    at twice the start-ups.  Functionally identical to :func:`reduce_all`.
    """
    op = get_op(op)
    dims = _dims_tuple(machine, dims)
    k = len(dims)
    if k <= 1:
        return reduce_all(machine, pvar, op, dims)
    with maybe_span(
        machine, "reduce_all_pipelined", "collective",
        dims=list(dims), volume=pvar.local_size, op=op.name,
    ):
        # charge the halving/doubling volume schedule; round j of each
        # sweep traverses dims[j]
        vol = pvar.local_size
        for d in dims:
            vol = -(-vol // 2)
            machine.charge_comm_round(vol, dim=d)   # reduce-scatter round
            machine.charge_flops(vol)               # combine received piece
        vol = -(-pvar.local_size // (1 << k))
        for d in reversed(dims):
            machine.charge_comm_round(vol, dim=d)   # all-gather round
            vol = min(vol * 2, pvar.local_size)
        # functional result via the (uncharged) exchange loop
        data = pvar.data
        for d in dims:
            recv = machine.exchange_free(PVar(machine, data), d).data
            data = op(data, recv)
        out = PVar(machine, data)
        sanitizer = machine.sanitizer
        if sanitizer is not None:
            sanitizer.audit_replicated(
                machine, out, dims, "reduce_all_pipelined"
            )
        return out


def broadcast_crossover(cost, k: int) -> float:
    """Block volume above which the pipelined broadcast wins.

    Solves ``k(tau + L t_c) = (2k-1)(tau + L t_c / k)`` for ``L``; returns
    ``inf`` when the pipelined form can never win (k <= 1 or t_c == 0).
    """
    if k <= 1 or cost.t_c <= 0:
        return float("inf")
    denom = cost.t_c * (k - (2 * k - 1) / k)
    if denom <= 0:
        return float("inf")
    return (k - 1) * cost.tau / denom
