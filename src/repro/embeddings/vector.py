"""Vector embeddings: the paper's vector, row and column orders.

The paper's primitives move data between *three* vector embeddings:

* **vector order** (:class:`VectorOrderEmbedding`) — the vector is spread
  over all ``p`` processors; rank ``r`` (in Gray-code order, so consecutive
  chunks sit on neighbouring nodes) holds a balanced share of the elements.
  This is the natural layout for vector-only computation: maximal
  parallelism, ``ceil(L/p)`` elements per processor.

* **row order** (:class:`RowAlignedEmbedding`) — a length-``C`` vector laid
  out exactly like one row of an embedded ``R × C`` matrix: grid column
  ``gc`` holds the same column slice as the matrix does.  It is either
  *resident* in one grid row or *replicated* across all grid rows (the
  state produced by a broadcast and consumed by ``distribute``).

* **column order** (:class:`ColAlignedEmbedding`) — symmetric, for
  length-``R`` vectors aligned with the matrix's rows.

"The primitives may indicate a change from one embedding to another"
(abstract): the conversion machinery lives in :mod:`repro.embeddings.remap`.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from ..errors import EmbeddingError, ShapeError
from ..machine.hypercube import Hypercube
from ..machine.plans import readonly
from ..machine.pvar import PVar
from .gray import deposit_bits, gray, gray_rank
from .layout import Layout, make_layout
from .matrix import MatrixEmbedding


class VectorEmbedding(abc.ABC):
    """A load-balanced embedding of a length-``L`` vector."""

    machine: Hypercube
    L: int

    # -- identity ----------------------------------------------------------

    @abc.abstractmethod
    def signature(self) -> tuple:
        """Hashable value identity of this embedding.

        Two embeddings with equal signatures (on the same machine) induce
        identical owner maps and index images, so communication plans and
        memoized lookup tables keyed by signature are shared across
        instances constructed in different solver iterations.
        """

    # -- shape -------------------------------------------------------------

    @property
    @abc.abstractmethod
    def local_shape(self) -> Tuple[int, ...]:
        """Per-processor block shape."""

    @property
    def local_size(self) -> int:
        size = 1
        for extent in self.local_shape:
            size *= extent
        return size

    @property
    @abc.abstractmethod
    def replicated(self) -> bool:
        """True when every element exists on more than one processor."""

    # -- address maps ----------------------------------------------------------

    @abc.abstractmethod
    def owner_slot(self, g):
        """Primary ``(pid, slot)`` of global index ``g`` (vectorised)."""

    def owner_slot_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(pid, slot)`` of every global index, memoized per signature.

        The full length-``L`` owner map, shared via the machine's plan
        cache so hot loops (remaps, scalar reads) stop re-deriving it.
        """

        def build() -> Tuple[np.ndarray, np.ndarray]:
            pid, slot = self.owner_slot(np.arange(self.L))
            return (
                readonly(np.asarray(pid, dtype=np.int64)),
                readonly(np.asarray(slot, dtype=np.int64)),
            )

        return self.machine.plans.memo(
            ("vec-owner-slot", self.signature()), build
        )

    def owner_slot_scalar(self, g: int) -> Tuple[int, int]:
        """``(pid, slot)`` of one global index as Python ints.

        Uses the memoized owner table when the plan cache is enabled;
        otherwise falls back to the direct per-index computation.
        """
        if self.machine.plans.enabled:
            pids, slots = self.owner_slot_table()
            return int(pids[g]), int(slots[g])
        pid, slot = self.owner_slot(g)
        return int(np.asarray(pid)), int(np.asarray(slot))

    def valid_mask(self) -> np.ndarray:
        """Boolean ``(p, *local_shape)``: slots holding real elements.

        Memoized per signature on the machine's plan cache (read-only).
        """
        return self.machine.plans.memo(
            ("vec-valid-mask", self.signature()),
            lambda: readonly(self._compute_valid_mask()),
        )

    def global_indices(self) -> np.ndarray:
        """Global index per (pid, slot); padding clamped in-range.

        Memoized per signature on the machine's plan cache (read-only).
        """
        return self.machine.plans.memo(
            ("vec-global-indices", self.signature()),
            lambda: readonly(self._compute_global_indices()),
        )

    @abc.abstractmethod
    def _compute_valid_mask(self) -> np.ndarray:
        """Uncached computation behind :meth:`valid_mask`."""

    @abc.abstractmethod
    def _compute_global_indices(self) -> np.ndarray:
        """Uncached computation behind :meth:`global_indices`."""

    # -- host transfer ------------------------------------------------------------

    def scatter(self, vector: np.ndarray) -> PVar:
        """Load a host vector (front-end I/O; not timed).

        On a batched machine the host image carries the run axis last:
        shape ``(L, n_runs)``.
        """
        vector = np.asarray(vector)
        n_runs = self.machine.n_runs
        expected = (self.L,) if n_runs is None else (self.L, n_runs)
        if vector.shape != expected:
            raise ShapeError(
                f"expected host vector of shape {expected}, got "
                f"{vector.shape} for {self.signature()}"
            )
        idx = self.global_indices()
        data = vector[idx]
        valid = self.valid_mask()
        # broadcast over the run axis of a batched machine
        mask = valid[..., None] if data.ndim > valid.ndim else valid
        data = np.where(mask, data, np.zeros((), dtype=vector.dtype))
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.audit_vector_embedding(self, valid, idx)
        return PVar(self.machine, data)

    def gather(self, pvar: PVar) -> np.ndarray:
        """Read the vector back to the host (front-end I/O; not timed)."""
        if pvar.machine is not self.machine:
            raise EmbeddingError(
                f"PVar belongs to a different machine than embedding "
                f"{self.signature()}"
            )
        if pvar.local_shape != self.local_shape:
            raise ShapeError(
                f"PVar local shape {pvar.local_shape} != embedding local "
                f"shape {self.local_shape} of {self.signature()}"
            )
        extra = pvar.data.shape[1 + len(self.local_shape):]
        out = np.zeros((self.L,) + extra, dtype=pvar.dtype)
        mask = self.valid_mask()
        idx = self.global_indices()
        out[idx[mask]] = pvar.data[mask]
        return out

    def valid_pvar(self) -> PVar:
        return PVar(self.machine, self.valid_mask())

    # -- distribution order ------------------------------------------------------

    @abc.abstractmethod
    def order_rank(self) -> np.ndarray:
        """Per-pid position of each processor along the vector's order.

        Used by order-sensitive operations (scans): ``order_rank()[pid]``
        is the processor's index among the holders of the vector, in
        increasing-global-index order.  Bitwise compatible with
        :meth:`order_dims` in the sense :func:`repro.comm.scan` requires.
        """

    @property
    @abc.abstractmethod
    def order_dims(self) -> tuple:
        """Cube dimensions spanning the vector's distribution."""

    @property
    @abc.abstractmethod
    def along_layout(self):
        """The 1-D :class:`~.layout.Layout` splitting the vector."""

    # -- compatibility ---------------------------------------------------------------

    @abc.abstractmethod
    def compatible(self, other: "VectorEmbedding") -> bool:
        """True when elementwise ops can run without data motion."""


class VectorOrderEmbedding(VectorEmbedding):
    """Vector spread over the whole cube in Gray-code rank order."""

    def __init__(
        self,
        machine: Hypercube,
        L: int,
        layout: str = "block",
        coding: str = "gray",
    ) -> None:
        if L < 1:
            raise ShapeError(f"vector length must be >= 1, got {L}")
        if coding not in ("gray", "binary"):
            raise EmbeddingError(
                f"coding must be 'gray' or 'binary', got {coding!r}"
            )
        self.machine = machine
        self.L = L
        self.layout: Layout = make_layout(layout, L, machine.p)
        self._layout_kind = layout
        self.coding = coding
        # rank r lives on pid code(r); per-pid rank = decode(pid)
        if coding == "gray":
            self._rank_of_pid = gray_rank(machine.pids())
        else:
            self._rank_of_pid = machine.pids().copy()

    @property
    def local_shape(self) -> Tuple[int, ...]:
        return (self.layout.capacity,)

    @property
    def replicated(self) -> bool:
        return False

    def signature(self) -> tuple:
        return ("vec-order", self.L, self._layout_kind, self.coding)

    def owner_slot(self, g):
        rank = self.layout.owner(g)
        pid = gray(rank) if self.coding == "gray" else rank
        return pid, self.layout.slot(g)

    def _compute_valid_mask(self) -> np.ndarray:
        return self.layout.all_valid_masks()[self._rank_of_pid]

    def _compute_global_indices(self) -> np.ndarray:
        return self.layout.all_global_indices()[self._rank_of_pid]

    def order_rank(self) -> np.ndarray:
        return self._rank_of_pid

    @property
    def order_dims(self) -> tuple:
        return self.machine.dims

    @property
    def along_layout(self):
        return self.layout

    def compatible(self, other: VectorEmbedding) -> bool:
        return (
            isinstance(other, VectorOrderEmbedding)
            and other.machine is self.machine
            and other.L == self.L
            and other._layout_kind == self._layout_kind
            and other.coding == self.coding
        )

    def __repr__(self) -> str:
        return (
            f"VectorOrderEmbedding(L={self.L}, p={self.machine.p}, "
            f"layout={self._layout_kind})"
        )


class _AlignedEmbedding(VectorEmbedding):
    """Common machinery for row- and column-aligned embeddings."""

    #: 'row' or 'col'; set by subclasses.
    axis: str

    def __init__(
        self,
        matrix: MatrixEmbedding,
        resident: Optional[int] = None,
    ) -> None:
        self.matrix = matrix
        self.machine = matrix.machine
        self.resident = resident
        if self.axis == "row":
            self.L = matrix.C
            self._along_layout = matrix.col_layout
            self._along_dims = matrix.col_dims
            self._across_dims = matrix.row_dims
            self._across_extent = matrix.Pr
            self._grid_along = matrix.grid_coords()[1]
            self._grid_across = matrix.grid_coords()[0]
        else:
            self.L = matrix.R
            self._along_layout = matrix.row_layout
            self._along_dims = matrix.row_dims
            self._across_dims = matrix.col_dims
            self._across_extent = matrix.Pc
            self._grid_along = matrix.grid_coords()[0]
            self._grid_across = matrix.grid_coords()[1]
        if resident is not None and not (0 <= resident < self._across_extent):
            raise EmbeddingError(
                f"resident grid index {resident} out of range "
                f"[0, {self._across_extent}) for {type(self).__name__} on "
                f"matrix {matrix.signature()}"
            )
        self._across_codes: dict = {}

    @property
    def local_shape(self) -> Tuple[int, ...]:
        return (self._along_layout.capacity,)

    @property
    def replicated(self) -> bool:
        return self.resident is None

    def signature(self) -> tuple:
        return (self.axis, "aligned", self.resident, self.matrix.signature())

    @property
    def along_dims(self) -> Tuple[int, ...]:
        """Cube dims spanning the vector's own axis."""
        return self._along_dims

    @property
    def across_dims(self) -> Tuple[int, ...]:
        """Cube dims orthogonal to the vector (replication / residence axis)."""
        return self._across_dims

    def owner_slot(self, g):
        along = self._along_layout.owner(g)
        slot = self._along_layout.slot(g)
        across = 0 if self.resident is None else self.resident
        along_bits = deposit_bits(self.matrix.code(along), self._along_dims)
        across_bits = deposit_bits(self.matrix.code(across), self._across_dims)
        return along_bits | across_bits, slot

    def across_code(self, coord: int) -> int:
        """Node code of an orthogonal grid coordinate (coding-aware)."""
        code = self._across_codes.get(coord)
        if code is None:
            code = self._across_codes[coord] = int(np.asarray(self.matrix.code(coord)))
        return code

    def _present_mask(self) -> np.ndarray:
        """(p,) mask of processors that hold the vector at all."""
        if self.resident is None:
            return np.ones(self.machine.p, dtype=bool)
        return self._grid_across == self.resident

    def _compute_valid_mask(self) -> np.ndarray:
        slot_masks = self._along_layout.all_valid_masks()[self._grid_along]
        return slot_masks & self._present_mask()[:, None]

    def order_rank(self) -> np.ndarray:
        return self._grid_along

    @property
    def order_dims(self) -> tuple:
        return self._along_dims

    @property
    def along_layout(self):
        return self._along_layout

    def _compute_global_indices(self) -> np.ndarray:
        return self._along_layout.all_global_indices()[self._grid_along]

    def compatible(self, other: VectorEmbedding) -> bool:
        return (
            type(other) is type(self)
            and other.machine is self.machine
            and other.L == self.L
            and other.matrix.same_grid(self.matrix)  # type: ignore[attr-defined]
            and other.resident == self.resident  # type: ignore[attr-defined]
        )

    def with_resident(self, resident: Optional[int]) -> "_AlignedEmbedding":
        """The same alignment with a different residence/replication state."""
        return type(self)(self.matrix, resident)

    def __repr__(self) -> str:
        state = "replicated" if self.resident is None else f"resident@{self.resident}"
        return (
            f"{type(self).__name__}(L={self.L}, grid="
            f"{self.matrix.Pr}x{self.matrix.Pc}, {state})"
        )


class RowAlignedEmbedding(_AlignedEmbedding):
    """Length-``C`` vector laid out like one matrix row ("row order")."""

    axis = "row"


class ColAlignedEmbedding(_AlignedEmbedding):
    """Length-``R`` vector laid out like one matrix column ("column order")."""

    axis = "col"
