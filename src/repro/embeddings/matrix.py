"""Load-balanced embeddings of dense matrices in the cube.

A matrix is embedded by viewing the ``2**n`` processors as a
``Pr × Pc = 2**nr × 2**nc`` grid: ``nr`` cube dimensions (``row_dims``)
carry the grid's matrix-row axis and the remaining ``nc`` (``col_dims``)
the matrix-column axis.  Grid coordinates map to cube nodes through the
binary-reflected Gray code, so grid-adjacent processors are cube
neighbours.  Within the grid, matrix rows are split over the ``Pr`` grid
rows and columns over the ``Pc`` grid columns by a 1-D :class:`~.layout.Layout`
(consecutive or cyclic), giving every processor a local block of at most
``ceil(R/Pr) × ceil(C/Pc)`` elements — the paper's load-balance guarantee
for arbitrary ``R × C``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError, EmbeddingError, ShapeError
from ..machine.hypercube import Hypercube
from ..machine.plans import readonly
from ..machine.pvar import PVar
from .gray import deposit_bits, extract_bits, gray, gray_rank
from .layout import Layout, make_layout


def split_dims(n: int, R: int, C: int) -> Tuple[int, int]:
    """Choose ``(nr, nc)`` with ``nr + nc == n`` matching the matrix aspect.

    The grid aspect ratio ``Pr/Pc`` should track ``R/C`` so that local
    blocks stay close to square and per-processor load is minimal — the
    alignment rule from Johnsson & Ho's matrix-shape analyses that the
    paper adopts.
    """
    if n < 0:
        raise ConfigError("n must be >= 0")
    if R < 1 or C < 1:
        raise ShapeError(f"matrix extents must be >= 1, got {R}x{C}")
    best = None
    for nr in range(n + 1):
        nc = n - nr
        lr = -(-R // (1 << nr))
        lc = -(-C // (1 << nc))
        load = lr * lc
        key = (load, abs(nr - nc))
        if best is None or key < best[0]:
            best = (key, (nr, nc))
    return best[1]


class MatrixEmbedding:
    """An ``R × C`` matrix on a Gray-coded ``Pr × Pc`` processor grid.

    Parameters
    ----------
    machine:
        The hypercube.
    R, C:
        Global matrix extents.
    row_dims, col_dims:
        Disjoint cube dimension subsets carrying the grid's row and column
        axes; together they must cover all ``machine.n`` dimensions.
    row_layout_kind, col_layout_kind:
        ``'block'`` (consecutive) or ``'cyclic'`` partition of rows over
        grid rows and columns over grid columns.
    """

    def __init__(
        self,
        machine: Hypercube,
        R: int,
        C: int,
        row_dims: Tuple[int, ...],
        col_dims: Tuple[int, ...],
        row_layout_kind: str = "block",
        col_layout_kind: str = "block",
        coding: str = "gray",
    ) -> None:
        if coding not in ("gray", "binary"):
            raise EmbeddingError(
                f"coding must be 'gray' or 'binary', got {coding!r}"
            )
        if R < 1 or C < 1:
            raise ShapeError(f"matrix extents must be >= 1, got {R}x{C}")
        row_dims = machine.check_dims(row_dims)
        col_dims = machine.check_dims(col_dims)
        overlap = set(row_dims) & set(col_dims)
        if overlap:
            raise EmbeddingError(
                f"row/col dims overlap: {sorted(overlap)} "
                f"(row_dims={row_dims}, col_dims={col_dims})"
            )
        if len(row_dims) + len(col_dims) != machine.n:
            raise EmbeddingError(
                f"row_dims {row_dims} + col_dims {col_dims} must cover all "
                f"{machine.n} cube dims"
            )
        self.machine = machine
        self.R = R
        self.C = C
        self.row_dims = row_dims
        self.col_dims = col_dims
        self.Pr = 1 << len(row_dims)
        self.Pc = 1 << len(col_dims)
        self.row_layout: Layout = make_layout(row_layout_kind, R, self.Pr)
        self.col_layout: Layout = make_layout(col_layout_kind, C, self.Pc)
        self._row_layout_kind = row_layout_kind
        self._col_layout_kind = col_layout_kind
        self.coding = coding
        pids = machine.pids()
        self._grid_r = self.decode(extract_bits(pids, row_dims))
        self._grid_c = self.decode(extract_bits(pids, col_dims))
        self._pid_of_cell: Optional[np.ndarray] = None

    # -- factories -------------------------------------------------------------

    @classmethod
    def default(
        cls,
        machine: Hypercube,
        R: int,
        C: int,
        layout: str = "block",
        coding: str = "gray",
    ) -> "MatrixEmbedding":
        """Aspect-matched grid split, same layout kind on both axes."""
        nr, nc = split_dims(machine.n, R, C)
        dims = machine.dims
        return cls(
            machine,
            R,
            C,
            row_dims=dims[:nr],
            col_dims=dims[nr:],
            row_layout_kind=layout,
            col_layout_kind=layout,
            coding=coding,
        )

    def signature(self) -> tuple:
        """Hashable value identity; equal signatures mean equal owner maps.

        Plans and lookup tables keyed by signature are shared between
        fresh-but-equal embedding instances across solver iterations.
        """
        return (
            "matrix",
            self.R,
            self.C,
            self.row_dims,
            self.col_dims,
            self._row_layout_kind,
            self._col_layout_kind,
            self.coding,
        )

    def code(self, grid_coord):
        """Grid coordinate -> node code under this embedding's coding."""
        return gray(grid_coord) if self.coding == "gray" else grid_coord

    def decode(self, node_code):
        """Node code -> grid coordinate (inverse of :meth:`code`)."""
        return gray_rank(node_code) if self.coding == "gray" else node_code

    def transposed(self) -> "MatrixEmbedding":
        """The embedding of the transposed matrix: axes and layouts swapped."""
        return MatrixEmbedding(
            self.machine,
            self.C,
            self.R,
            row_dims=self.col_dims,
            col_dims=self.row_dims,
            row_layout_kind=self._col_layout_kind,
            col_layout_kind=self._row_layout_kind,
            coding=self.coding,
        )

    # -- shapes -----------------------------------------------------------------

    @property
    def local_shape(self) -> Tuple[int, int]:
        return (self.row_layout.capacity, self.col_layout.capacity)

    @property
    def local_size(self) -> int:
        lr, lc = self.local_shape
        return lr * lc

    @property
    def elements(self) -> int:
        return self.R * self.C

    # -- address maps --------------------------------------------------------------

    def pid_for_grid(self, gr, gc):
        """Cube node of grid cell ``(gr, gc)`` (coded on both axes)."""
        return deposit_bits(self.code(gr), self.row_dims) | deposit_bits(
            self.code(gc), self.col_dims
        )

    def grid_for_pid(self, pid):
        """Grid cell of cube node ``pid``."""
        gr = self.decode(extract_bits(pid, self.row_dims))
        gc = self.decode(extract_bits(pid, self.col_dims))
        return gr, gc

    def grid_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-pid grid coordinates (cached)."""
        return self._grid_r, self._grid_c

    def owner(self, i, j):
        """Cube node owning matrix element ``(i, j)`` (vectorised)."""
        gr = self.row_layout.owner(i)
        gc = self.col_layout.owner(j)
        return self.pid_for_grid(gr, gc)

    def owner_slot(self, i, j):
        """``(pid, slot_r, slot_c)`` of element ``(i, j)`` (vectorised)."""
        return (
            self.owner(i, j),
            self.row_layout.slot(i),
            self.col_layout.slot(j),
        )

    def row_owner_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(grid_row, slot_r)`` of every global row, memoized per signature."""

        def build() -> Tuple[np.ndarray, np.ndarray]:
            rows = np.arange(self.R)
            return (
                readonly(np.asarray(self.row_layout.owner(rows), dtype=np.int64)),
                readonly(np.asarray(self.row_layout.slot(rows), dtype=np.int64)),
            )

        return self.machine.plans.memo(
            ("mat-row-owner", self.signature()), build
        )

    def col_owner_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(grid_col, slot_c)`` of every global column, memoized per signature."""

        def build() -> Tuple[np.ndarray, np.ndarray]:
            cols = np.arange(self.C)
            return (
                readonly(np.asarray(self.col_layout.owner(cols), dtype=np.int64)),
                readonly(np.asarray(self.col_layout.slot(cols), dtype=np.int64)),
            )

        return self.machine.plans.memo(
            ("mat-col-owner", self.signature()), build
        )

    def owner_slot_scalar(self, i: int, j: int) -> Tuple[int, int, int]:
        """``(pid, slot_r, slot_c)`` of one element as Python ints.

        Uses the memoized per-axis owner tables and :meth:`pid_of_cell`
        when the plan cache is enabled; otherwise falls back to the direct
        computation.
        """
        if self.machine.plans.enabled:
            gr_tab, sr_tab = self.row_owner_table()
            gc_tab, sc_tab = self.col_owner_table()
            pid = self.pid_of_cell()[gr_tab[i], gc_tab[j]]
            return int(pid), int(sr_tab[i]), int(sc_tab[j])
        pid, sr, sc = self.owner_slot(i, j)
        return int(np.asarray(pid)), int(np.asarray(sr)), int(np.asarray(sc))

    def pid_of_cell(self) -> np.ndarray:
        """``(Pr, Pc)`` table of the cube node of every grid cell.

        The inverse of the per-pid grid coordinates, built once per
        instance (read-only).  It is kept on the instance rather than the
        plan cache so that scalar reads add no plan lookups.
        """
        table = self._pid_of_cell
        if table is None:
            table = np.empty((self.Pr, self.Pc), dtype=np.int64)
            table[self._grid_r, self._grid_c] = self.machine.pids()
            self._pid_of_cell = table = readonly(table)
        return table

    # -- masks --------------------------------------------------------------------

    def valid_mask(self) -> np.ndarray:
        """Boolean array ``(p, lr, lc)``: which local slots hold elements.

        Memoized per signature on the machine's plan cache (read-only).
        """

        def build() -> np.ndarray:
            row_masks = self.row_layout.all_valid_masks()  # (Pr, lr)
            col_masks = self.col_layout.all_valid_masks()  # (Pc, lc)
            return readonly(
                row_masks[self._grid_r][:, :, None]
                & col_masks[self._grid_c][:, None, :]
            )

        return self.machine.plans.memo(
            ("mat-valid-mask", self.signature()), build
        )

    def valid_pvar(self) -> PVar:
        """The valid mask as a machine-resident boolean PVar (free: wired)."""
        return PVar(self.machine, self.valid_mask())

    def global_rows(self) -> np.ndarray:
        """Global row index per (pid, slot_r), shape ``(p, lr)``; padding clamped.

        Memoized per signature on the machine's plan cache (read-only).
        """
        return self.machine.plans.memo(
            ("mat-global-rows", self.signature()),
            lambda: readonly(self.row_layout.all_global_indices()[self._grid_r]),
        )

    def global_cols(self) -> np.ndarray:
        """Global column index per (pid, slot_c), shape ``(p, lc)``.

        Memoized per signature on the machine's plan cache (read-only).
        """
        return self.machine.plans.memo(
            ("mat-global-cols", self.signature()),
            lambda: readonly(self.col_layout.all_global_indices()[self._grid_c]),
        )

    # -- host transfer ----------------------------------------------------------------

    def scatter(self, matrix: np.ndarray) -> PVar:
        """Load a host matrix into the machine (front-end I/O; not timed).

        On a batched machine the host image carries the run axis last:
        shape ``(R, C, n_runs)``.
        """
        matrix = np.asarray(matrix)
        n_runs = self.machine.n_runs
        expected = (
            (self.R, self.C) if n_runs is None else (self.R, self.C, n_runs)
        )
        if matrix.shape != expected:
            raise ShapeError(
                f"expected host matrix of shape {expected}, "
                f"got {matrix.shape} for {self.signature()}"
            )
        if self.local_size == 0:
            empty = (self.machine.p, 0, 0) + matrix.shape[2:]
            return PVar(self.machine, np.zeros(empty, matrix.dtype))
        r_idx = self.global_rows()  # (p, lr)
        c_idx = self.global_cols()  # (p, lc)
        data = matrix[r_idx[:, :, None], c_idx[:, None, :]]
        # Padding slots currently replicate edge elements; zero them so
        # stray values can never leak through arithmetic.
        valid = self.valid_mask()
        # broadcast over the run axis of a batched machine
        mask = valid[..., None] if data.ndim > valid.ndim else valid
        data = np.where(mask, data, np.zeros((), dtype=matrix.dtype))
        sanitizer = self.machine.sanitizer
        if sanitizer is not None:
            sanitizer.audit_matrix_embedding(self, valid)
        return PVar(self.machine, data)

    def gather(self, pvar: PVar) -> np.ndarray:
        """Read the matrix back to the host (front-end I/O; not timed)."""
        if pvar.machine is not self.machine:
            raise EmbeddingError(
                f"PVar belongs to a different machine than embedding "
                f"{self.signature()}"
            )
        if pvar.local_shape != self.local_shape:
            raise ShapeError(
                f"PVar local shape {pvar.local_shape} does not match "
                f"embedding local shape {self.local_shape} of "
                f"{self.signature()}"
            )
        extra = pvar.data.shape[3:]  # trailing run axis on a batched machine
        out = np.zeros((self.R, self.C) + extra, dtype=pvar.dtype)
        mask = self.valid_mask()
        r_idx = np.broadcast_to(self.global_rows()[:, :, None], mask.shape)
        c_idx = np.broadcast_to(self.global_cols()[:, None, :], mask.shape)
        out[r_idx[mask], c_idx[mask]] = pvar.data[mask]
        return out

    # -- compatibility ------------------------------------------------------------------

    def same_grid(self, other: "MatrixEmbedding") -> bool:
        """True if both embeddings use the same grid split and layouts."""
        return (
            self.machine is other.machine
            and self.row_dims == other.row_dims
            and self.col_dims == other.col_dims
            and self._row_layout_kind == other._row_layout_kind
            and self._col_layout_kind == other._col_layout_kind
            and self.coding == other.coding
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixEmbedding):
            return NotImplemented
        return (
            self.same_grid(other) and self.R == other.R and self.C == other.C
        )

    def __hash__(self) -> int:
        return hash(
            (self.R, self.C, self.row_dims, self.col_dims,
             self._row_layout_kind, self._col_layout_kind, self.coding)
        )

    def __repr__(self) -> str:
        return (
            f"MatrixEmbedding({self.R}x{self.C} on {self.Pr}x{self.Pc} grid, "
            f"row_dims={self.row_dims}, col_dims={self.col_dims}, "
            f"layouts=({self._row_layout_kind}, {self._col_layout_kind}))"
        )
