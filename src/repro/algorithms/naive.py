"""The paper's "naive implementation" baseline.

The abstract: "this implementation [the primitives] improved the running
time of some of our applications by almost an order of magnitude over a
naive implementation".  The naive implementation is what a direct
element-per-virtual-processor port produces: whenever data must cross the
processor grid it is moved *one band at a time* through the router —
reductions gather partials to a leader band serially and combine there,
broadcasts send the data to each destination band in turn — instead of the
primitives' ``lg``-round subcube tree collectives.

:class:`NaiveMatrix` / :class:`NaiveVector` subclass the primitive-based
array classes and override exactly the operations whose communication
differs; all local arithmetic, embeddings and the application algorithm
text are shared, so any measured gap is attributable to the primitives.

Cost model of one naive transfer: each band-to-band send is one router
operation charged as a full communication round (start-up + volume), so a
``2**k``-band reduce costs ``2**k - 1`` serial rounds against the tree's
``k`` — the gap the paper reports grows with machine size, reaching an
order of magnitude at CM scale.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..comm.collectives import arg_reduce_subcubes
from ..comm.ops import CombineOp, get_op
from ..machine.hypercube import Hypercube
from ..machine.pvar import PVar
from ..core import primitives
from ..core.arrays import DistributedMatrix, DistributedVector
from ..embeddings.gray import deposit_bits
from ..embeddings.vector import _AlignedEmbedding
from ..errors import EmbeddingError

INT64_MAX = np.iinfo(np.int64).max


# ---------------------------------------------------------------------------
# serialised band communication helpers
# ---------------------------------------------------------------------------

def _charge_serial(machine: Hypercube, volume: float, dims: Sequence[int]) -> int:
    """Charge ``2**k - 1`` sequential router rounds of ``volume`` each."""
    sends = (1 << len(dims)) - 1
    if sends > 0:
        machine.charge_comm_round(volume, rounds=sends)
    return sends


def _group_reduce(
    machine: Hypercube, data: np.ndarray, dims: Sequence[int], op: CombineOp
) -> np.ndarray:
    """Functionally combine ``data`` over every dims-subcube (no charging)."""
    if not dims:
        return data
    keys = machine.pids() & ~deposit_bits(-1, dims)
    order = np.argsort(keys, kind="stable")
    gsize = 1 << len(dims)
    grouped = data[order].reshape(machine.p // gsize, gsize, *data.shape[1:])
    red = op.ufunc.reduce(grouped, axis=1)
    out = np.empty_like(data)
    out[order] = np.repeat(red, gsize, axis=0)
    return out


def _replicate_from_band(
    machine: Hypercube,
    data: np.ndarray,
    dims: Sequence[int],
    band_code: int,
) -> np.ndarray:
    """Functional copy of the band with node code ``band_code`` to its
    whole subcube."""
    if not dims:
        return data
    src = (machine.pids() & ~deposit_bits(-1, dims)) | deposit_bits(
        band_code, dims
    )
    return data.take(src, axis=0)


# ---------------------------------------------------------------------------
# arrays
# ---------------------------------------------------------------------------

class NaiveVector(DistributedVector):
    """A vector whose global operations use serialised communication."""

    def reduce(self, op: Union[CombineOp, str] = "sum") -> float:
        op = get_op(op)
        machine = self.machine
        mask = self.embedding.valid_mask()
        data = self.pvar.data
        if not mask.all():
            data = np.where(mask, data, op.identity(self.dtype))
            machine.charge_local(self.pvar.local_size)
        local = op.ufunc.reduce(data, axis=1)
        machine.charge_flops(max(self.pvar.local_size - 1, 0))
        dims = self._reduce_dims()
        sends = _charge_serial(machine, 1.0, dims)
        machine.charge_flops(float(sends))  # leader combines serially
        total = _group_reduce(machine, local, dims, op)
        pid = self.embedding.owner_slot_scalar(0)[0]
        return machine.read_scalar(PVar(machine, total), pid=pid)

    def argreduce(
        self, mode: str = "max", valid: Optional[DistributedVector] = None
    ) -> Tuple[float, int]:
        machine = self.machine
        best_val, best_idx = self._local_argreduce(mode, valid)

        dims = self._reduce_dims()
        sends = _charge_serial(machine, 2.0, dims)  # (value, index) pairs
        machine.charge_flops(3.0 * sends)           # serial compare chain
        v, i = arg_reduce_subcubes(machine.n, best_val, best_idx, dims, mode)
        pid = self.embedding.owner_slot_scalar(0)[0]
        value = machine.read_scalar(PVar(machine, v), pid=pid)
        index = int(machine.read_scalar(PVar(machine, i), pid=pid))
        if index == INT64_MAX:
            index = -1
        return value, index

    def distribute(self, like: DistributedMatrix, axis: int) -> DistributedMatrix:
        vec = self._naively_replicated(like, axis)
        return DistributedVector.distribute(vec, like, axis)

    def _naively_replicated(
        self, like: DistributedMatrix, axis: int
    ) -> "NaiveVector":
        """Bring this vector to the replicated aligned embedding without
        tree broadcasts: remap to a resident band if needed, then send the
        band's copy to every other band one at a time."""
        machine = self.machine
        target_resident = primitives._aligned_embedding(
            like.embedding, axis, resident=0
        )
        emb = self.embedding
        if isinstance(emb, _AlignedEmbedding) and emb.compatible(
            target_resident.with_resident(None)
        ):
            return self  # already replicated
        if not (
            isinstance(emb, type(target_resident))
            and not emb.replicated
            and emb.matrix.same_grid(like.embedding)
        ):
            remapped = self.as_embedding(target_resident)
            emb = remapped.embedding
            vec_pv = remapped.pvar
        else:
            vec_pv = self.pvar
        resident = emb.resident  # type: ignore[attr-defined]
        dims = emb.across_dims  # type: ignore[attr-defined]
        _charge_serial(machine, vec_pv.local_size, dims)
        data = _replicate_from_band(
            machine, vec_pv.data, dims, emb.across_code(resident)
        )
        new_emb = emb.with_resident(None)  # type: ignore[attr-defined]
        return NaiveVector(PVar(machine, data), new_emb)


class NaiveMatrix(DistributedMatrix):
    """A matrix whose primitives use serialised communication.

    Only ``extract``'s replication, ``reduce`` and ``argreduce`` differ
    from :class:`DistributedMatrix`; local arithmetic, ``insert`` (a masked
    local write) and the embeddings are inherited unchanged.
    """

    _vector_cls = NaiveVector

    def extract(
        self, axis: int, index: int, replicate: bool = True
    ) -> NaiveVector:
        pv, emb = primitives.extract(
            self.pvar, self.embedding, axis, index, replicate=False
        )
        if replicate:
            machine = self.machine
            resident = emb.resident  # type: ignore[attr-defined]
            dims = emb.across_dims  # type: ignore[attr-defined]
            _charge_serial(machine, pv.local_size, dims)
            data = _replicate_from_band(
                machine, pv.data, dims, emb.across_code(resident)
            )
            pv = PVar(machine, data)
            emb = emb.with_resident(None)  # type: ignore[attr-defined]
        return NaiveVector(pv, emb)

    def reduce(
        self, axis: int, op: Union[CombineOp, str] = "sum"
    ) -> NaiveVector:
        op = get_op(op)
        machine = self.machine
        partial, dims, vec_emb = primitives.local_reduce(
            self.pvar, self.embedding, axis, op
        )
        volume = float(partial.local_size)
        sends = _charge_serial(machine, volume, dims)      # gather to leader
        machine.charge_flops(volume * sends)               # serial combining
        _charge_serial(machine, volume, dims)              # send results back
        data = _group_reduce(machine, partial.data, dims, op)
        return NaiveVector(PVar(machine, data), vec_emb)

    def argreduce(
        self,
        axis: int,
        mode: str = "max",
        valid: Optional[DistributedMatrix] = None,
    ) -> Tuple[NaiveVector, NaiveVector]:
        machine = self.machine
        valid_pv = valid.pvar if valid is not None else None
        if valid is not None and valid.embedding != self.embedding:
            raise EmbeddingError("valid mask must share the matrix embedding")
        val, idx, dims, vec_emb = primitives.local_reduce_loc(
            self.pvar, self.embedding, axis, mode=mode, valid=valid_pv
        )
        volume = 2.0 * val.local_size
        sends = _charge_serial(machine, volume, dims)
        machine.charge_flops(3.0 * val.local_size * sends)
        _charge_serial(machine, volume, dims)
        v, i = arg_reduce_subcubes(machine.n, val.data, idx.data, dims, mode)
        i = np.where(i == INT64_MAX, -1, i)
        return (
            NaiveVector(PVar(machine, v), vec_emb),
            NaiveVector(PVar(machine, i), vec_emb),
        )
