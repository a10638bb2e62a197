"""Per-lane variants of the slice primitives for batched execution.

When lanes pivot on different rows/columns, the uniform ``extract`` /
``insert`` primitives no longer apply: lane ``k`` needs slice
``index[k]``.  These helpers perform all lanes' slice operations in one
stacked pass while charging the *exact* cost sequence the scalar
primitive charges per lane (lane-masked through the active-lanes
context), so batched lanes stay bit-identical to scalar runs.

Charge fidelity: :func:`repro.core.primitives.extract` charges one local
pass over the slice extent plus one full-share communication round per
orthogonal grid dimension (fused and unfused paths charge identically);
:func:`~repro.core.primitives.insert` charges one local pass;
:meth:`~repro.machine.hypercube.Hypercube.charge_host_read` charges the
one single-element bus transfer of a host read.  Each helper below
replays exactly that.

Inactive lanes: indices are clamped to 0 so the stacked computation stays
in bounds; their data is either never written (:func:`lane_insert` masks
writes by the active mask) or restored by :func:`merge_lanes`.

:class:`Lanes` is the batched side of the application divergence hook
(:func:`repro.algorithms.lanes.lanes`): it routes an application's
lane-divergent steps through these helpers under its live-lane mask.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Optional

import numpy as np

from ..algorithms.lanes import lane_of
from ..comm.collectives import subcube_base
from ..core.arrays import DistributedMatrix, DistributedVector
from ..core.primitives import _aligned_embedding
from ..embeddings.gray import deposit_bits
from ..embeddings.matrix import MatrixEmbedding
from ..errors import ConfigError, ShapeError
from ..machine.counters import CostSnapshot
from ..machine.pvar import LaneValues, PVar


def _lane_indices(machine, index, extent: int, act: Optional[np.ndarray]):
    """Validate per-lane indices; clamp inactive lanes to 0."""
    n_runs = machine.n_runs
    if n_runs is None:
        raise ConfigError("lanewise primitives require a batched machine")
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape != (n_runs,):
        raise ShapeError(
            f"per-lane index must have shape ({n_runs},), got {idx.shape}"
        )
    if act is None:
        act = np.ones(n_runs, dtype=bool)
    else:
        act = np.asarray(act, dtype=bool)
        if act.shape != (n_runs,):
            raise ShapeError(
                f"lane mask must have shape ({n_runs},), got {act.shape}"
            )
    live = idx[act]
    if live.size and (live.min() < 0 or live.max() >= extent):
        raise IndexError(
            f"per-lane index out of range [0, {extent}) in an active lane"
        )
    return np.where(act, idx, 0), act


def _slice_owner_lanes(emb, axis: int, idx: np.ndarray):
    """Per-lane (grid coordinate, local slot) arrays of the slices."""
    if axis == 0:
        if emb.machine.plans.enabled:
            owners, slots = emb.row_owner_table()
            return owners[idx], slots[idx]
        return emb.row_layout.owner(idx), emb.row_layout.slot(idx)
    if emb.machine.plans.enabled:
        owners, slots = emb.col_owner_table()
        return owners[idx], slots[idx]
    return emb.col_layout.owner(idx), emb.col_layout.slot(idx)


def lane_extract(
    M: DistributedMatrix,
    axis: int,
    index,
    act: Optional[np.ndarray] = None,
) -> DistributedVector:
    """Extract slice ``index[k]`` along ``axis`` in lane ``k``.

    Returns the replicated aligned vector, exactly as the scalar
    ``extract`` with ``replicate=True`` does; charges (one local slice
    pass + one share round per orthogonal dimension) land only on the
    lanes where ``act``.
    """
    if axis not in (0, 1):
        raise ConfigError(f"axis must be 0 or 1, got {axis}")
    emb = M.embedding
    machine = emb.machine
    extent = emb.R if axis == 0 else emb.C
    idx, act = _lane_indices(machine, index, extent, act)
    owners, slots = _slice_owner_lanes(emb, axis, idx)

    data = M.pvar.data
    p = machine.p
    n_runs = machine.n_runs
    # Per-lane slot selection: lane k picks local slot slots[k].
    if axis == 0:
        sel = np.broadcast_to(
            slots[None, None, None, :], (p, 1, data.shape[2], n_runs)
        )
        local = np.take_along_axis(data, sel, axis=1)[:, 0]
    else:
        sel = np.broadcast_to(
            slots[None, None, None, :], (p, data.shape[1], 1, n_runs)
        )
        local = np.take_along_axis(data, sel, axis=2)[:, :, 0]

    vec_emb = _aligned_embedding(emb, axis, None)
    across = vec_emb.across_dims
    if across:
        # Per-lane broadcast-replay: lane k's root band sits at the pid
        # whose ``across`` bits carry the node code of its owning grid
        # coordinate (cf. ``_root_pid_map``); gather each lane from its
        # own roots.
        codes = np.asarray(emb.code(owners), dtype=np.int64)
        base = subcube_base(machine, across)
        spread = deposit_bits(codes, across)
        root_map = base[:, None] | spread[None, :]  # (p, n_runs)
        sel = np.broadcast_to(root_map[:, None, :], local.shape)
        out = np.take_along_axis(local, sel, axis=0)
    else:
        out = np.ascontiguousarray(local)

    with machine.lanes(act):
        machine.charge_local(local.shape[1])
        share = max(local.shape[1], 1)
        for d in across:
            machine.charge_comm_round(share, dim=d)
    return M._vector_cls(PVar(machine, out), vec_emb)


def lane_insert(
    M: DistributedMatrix,
    axis: int,
    index,
    vec: DistributedVector,
    act: Optional[np.ndarray] = None,
) -> DistributedMatrix:
    """Write ``vec`` into slice ``index[k]`` along ``axis`` in lane ``k``.

    ``vec`` must be replicated and aligned with the slice (the form
    :func:`lane_extract` returns).  Lanes outside ``act`` keep their
    matrix data untouched and charge nothing.
    """
    if axis not in (0, 1):
        raise ConfigError(f"axis must be 0 or 1, got {axis}")
    emb = M.embedding
    machine = emb.machine
    extent = emb.R if axis == 0 else emb.C
    idx, act = _lane_indices(machine, index, extent, act)
    target = _aligned_embedding(emb, axis, None)
    if not vec.embedding.compatible(target):
        raise ConfigError(
            "lane_insert requires a replicated aligned vector (as returned "
            "by lane_extract); remap before inserting"
        )
    owners, slots = _slice_owner_lanes(emb, axis, idx)

    grid_r, grid_c = emb.grid_coords()
    grid = grid_r if axis == 0 else grid_c
    band = grid[:, None] == owners[None, :]  # (p, n_runs)
    data = M.pvar.data
    if axis == 0:
        lr = data.shape[1]
        slotm = np.arange(lr)[:, None] == slots[None, :]  # (lr, n_runs)
        writemask = (
            band[:, None, None, :]
            & slotm[None, :, None, :]
            & act[None, None, None, :]
        )
        out = np.where(writemask, np.expand_dims(vec.pvar.data, 1), data)
    else:
        lc = data.shape[2]
        slotm = np.arange(lc)[:, None] == slots[None, :]
        writemask = (
            band[:, None, None, :]
            & slotm[None, None, :, :]
            & act[None, None, None, :]
        )
        out = np.where(writemask, np.expand_dims(vec.pvar.data, 2), data)

    with machine.lanes(act):
        machine.charge_local(vec.pvar.local_size)
    return type(M)(PVar(machine, out), emb)


def lane_get_global(
    vec: DistributedVector,
    index,
    act: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fetch element ``index[k]`` of lane ``k`` to the host.

    One charged bus read (as the scalar ``get_global``), lane-masked.
    Returns an ``(n_runs,)`` array; inactive lanes hold element 0.
    """
    machine = vec.machine
    idx, act = _lane_indices(machine, index, len(vec), act)
    pids, slots = vec.embedding.owner_slot(idx)
    lanes = np.arange(machine.n_runs)
    values = vec.pvar.data[pids, slots, lanes].copy()
    with machine.lanes(act):
        machine.charge_host_read()
    return values


def lane_get_global_matrix(
    M: DistributedMatrix,
    i,
    j,
    act: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fetch element ``(i[k], j[k])`` of lane ``k`` to the host."""
    machine = M.machine
    rows, cols = M.shape
    ii, act = _lane_indices(machine, i, rows, act)
    jj, _ = _lane_indices(machine, j, cols, act)
    pids, sr, sc = M.embedding.owner_slot(ii, jj)
    lanes = np.arange(machine.n_runs)
    values = M.pvar.data[pids, sr, sc, lanes].copy()
    with machine.lanes(act):
        machine.charge_host_read()
    return values


def merge_lanes(new, old, act: np.ndarray):
    """Keep ``new``'s data in the lanes where ``act``, ``old``'s elsewhere.

    Host-side lane bookkeeping, free of charge: the scalar path's inactive
    lanes simply would not have executed the producing operation.
    """
    machine = new.machine
    if type(new) is not type(old) or new.pvar.data.shape != old.pvar.data.shape:
        raise ConfigError("merge_lanes requires same-shaped arrays")
    mask = np.asarray(act, dtype=bool).reshape(
        (1,) * (new.pvar.data.ndim - 1) + (machine.n_runs,)
    )
    data = np.where(mask, new.pvar.data, old.pvar.data)
    return type(new)(PVar(machine, data), new.embedding)


class Lanes:
    """The divergence hook on a batched machine: one lane per run.

    ``live`` marks the lanes still running; a stopped lane charges nothing
    and keeps its data.  Host bookkeeping holds one value per lane.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.n_runs = machine.n_runs
        self.lead = (self.n_runs,)
        self.live = np.ones(self.n_runs, dtype=bool)
        # Per-lane (status, iterations), filled in as lanes stop.
        self.outcome = (np.full(self.n_runs, None, dtype=object),
                        np.full(self.n_runs, None, dtype=object))

    def needs_one_run(self, what: str) -> None:
        raise ConfigError(f"{what} needs a scalar machine; repro.batch.sweep "
                          "routes such configurations to scalar sessions")

    def runs(self, make, *args):
        return [make(*args) for _ in range(self.n_runs)]

    def any(self, *flags) -> bool:
        return bool(np.any(np.logical_or.reduce(flags)))

    def imm(self, value):
        return LaneValues(value)

    def by_run(self, history: list):
        steps = [np.broadcast_to(step, self.lead) for step in history]
        return np.stack(steps, axis=-1).tolist()

    @contextlib.contextmanager
    def only(self, mask=None):
        prev = self.live
        if mask is not None:
            self.live = prev & mask
        try:
            with self.machine.lanes(self.live):
                yield
        finally:
            self.live = prev

    def _index(self, index) -> np.ndarray:
        return np.broadcast_to(index, self.lead)

    def extract(self, M, axis: int, index):
        return lane_extract(M, axis, self._index(index), act=self.live)

    def insert(self, M, axis: int, index, vector):
        return lane_insert(M, axis, self._index(index), vector, act=self.live)

    def get(self, vector, index):
        values = lane_get_global(vector, self._index(index), act=self.live)
        # Stopped lanes read 1.0, a safe divisor for their discarded data.
        return np.where(self.live, values, 1.0)

    def merge(self, new, old):
        return merge_lanes(new, old, self.live)

    def assign(self, seq: list, index, value) -> None:
        for k in np.flatnonzero(self.live):
            seq[k][index[k]] = int(value[k])

    def record(self, history: list, item: tuple) -> None:
        for k in np.flatnonzero(self.live):
            history[k].append(tuple(int(v[k]) for v in item))

    def stop(self, done, status: str, it: int) -> bool:
        now = self.live & done
        self.outcome[0][now] = status
        self.outcome[1][now] = it
        self.live = self.live & ~now
        return not self.live.any()

    def to_host(self, array) -> np.ndarray:
        return np.ascontiguousarray(np.moveaxis(array.to_numpy(), -1, 0))

    def matrix(self, cls, host: np.ndarray):
        emb = MatrixEmbedding.default(self.machine, *host.shape[1:])
        return cls(emb.scatter(np.moveaxis(host, 0, -1)), emb)

    def each(self, fn, *args):
        runs = [
            fn(*(lane_of(arg, k) for arg in args)) for k in range(self.n_runs)
        ]
        fields = {}
        for f in dataclasses.fields(runs[0]):
            values = [getattr(run, f.name) for run in runs]
            if isinstance(values[0], CostSnapshot):
                values = CostSnapshot(**{
                    name: np.array([getattr(v, name) for v in values])
                    for name in values[0].as_dict()
                })
            fields[f.name] = values
        return type(runs[0])(**fields)
