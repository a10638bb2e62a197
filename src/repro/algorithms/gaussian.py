"""Application 2: Gaussian elimination with partial pivoting.

The paper's second application.  Written entirely in the four primitives:

* pivot search      — ``argreduce`` (arg-max of |column k| over candidate rows);
* row swap          — two ``extract`` / two ``insert`` (or *no* data motion
  with implicit pivoting, which only tracks the permutation);
* multiplier column — ``extract`` column k, scale, mask;
* elimination       — one rank-1 update (``distribute`` + local arithmetic);
* back substitution — column sweeps: ``extract`` column k, axpy.

Per elimination step the communication is a constant number of ``lg p``
round collectives while the arithmetic is the ``O(m/p)`` local rank-1
update, so for ``m > p lg p`` the arithmetic dominates and the whole solve
is processor-time optimal to a constant — the paper's headline claim,
audited in :mod:`repro.analysis.optimality`.

Pivoting strategies
-------------------
``'partial'``
    classic partial pivoting with physical row swaps (two extracts + two
    inserts per swap);
``'implicit'``
    partial pivoting *without* moving rows: the pivot order is tracked and
    back substitution reads rows in pivot order — trading the swap traffic
    for one mask update per step (an ablation target: see
    ``benchmarks/bench_ablation.py``);
``'none'``
    no pivoting (diagonal pivots; fails on zero diagonals).

On top of the factorisation: :func:`solve` (one RHS), :func:`solve_multi`
(blocked RHS), :func:`invert` and :func:`determinant`.

The functions take any :class:`~repro.core.arrays.DistributedMatrix`
subclass, so the naive baseline runs the *identical* algorithm text with
its own primitive implementations.  :func:`solve` also runs unchanged on
a batched machine, one system per lane (partial or no pivoting); the
per-lane row swap and host immediates go through the :mod:`.lanes` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..machine.counters import CostSnapshot
from ..core.arrays import DistributedMatrix, iota
from ..errors import ConfigError, ShapeError
from .lanes import LaneResult, lanes

PIVOTING_MODES = ("partial", "implicit", "none")


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when no acceptable pivot exists at some elimination step."""


@dataclass
class GaussianResult(LaneResult):
    """Solution plus provenance: pivot order and simulated cost."""

    x: np.ndarray
    pivots: List[int]
    cost: CostSnapshot
    tableau: Optional[DistributedMatrix] = None


@dataclass
class Elimination:
    """A forward-eliminated tableau.

    ``pivots[k]`` is the row used as the k-th pivot; with explicit swapping
    it records which row was *brought to* position k (so the tableau is
    upper triangular in place), with implicit pivoting the rows stay put
    and ``pivots`` is the row permutation back substitution must follow.
    ``pivot_values[k]`` is the pivot element — their product (signed by the
    permutation parity) is the determinant.
    """

    tableau: DistributedMatrix
    pivots: List[int]
    pivot_values: List[float]
    pivoting: str

    def row_of_step(self, k: int) -> int:
        """The tableau row holding the k-th pivot after elimination."""
        return self.pivots[k] if self.pivoting == "implicit" else k

    def permutation_sign(self) -> float:
        """Parity of the pivot permutation (the determinant's sign factor)."""
        if self.pivoting == "implicit":
            perm = list(self.pivots)
        else:
            perm = list(range(len(self.pivots)))
            for k, piv in enumerate(self.pivots):
                if piv != k:
                    perm[k], perm[piv] = perm[piv], perm[k]
        sign = 1.0
        seen = [False] * len(perm)
        for start in range(len(perm)):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign


def eliminate(
    T: DistributedMatrix,
    pivoting: str = "partial",
    tol: float = 1e-12,
    start: int = 0,
    pivots: Optional[List[int]] = None,
    pivot_values: Optional[List[float]] = None,
    on_step: Optional[callable] = None,
) -> Elimination:
    """Forward-eliminate an ``n × w`` tableau (``w >= n``).

    Columns ``n..w-1`` ride along as right-hand sides.  See the module
    docstring for the pivoting modes.

    ``start``/``pivots``/``pivot_values`` resume a partially eliminated
    tableau (degraded-mode recovery): ``T`` must be the tableau as it
    stood after step ``start - 1``, with ``pivots``/``pivot_values`` the
    history of steps ``0..start-1``.  ``on_step(k, T, pivots,
    pivot_values)`` fires after each completed step with ``k`` steps done
    and the *current* tableau — checkpoint hooks save from here.
    """
    if pivoting not in PIVOTING_MODES:
        raise ConfigError(
            f"pivoting must be one of {PIVOTING_MODES}, got {pivoting!r}"
        )
    n, w = T.shape
    if w < n:
        raise ShapeError("tableau must have at least as many columns as rows")
    pivots = list(pivots) if pivots is not None else []
    pivot_values = list(pivot_values) if pivot_values is not None else []
    if not (0 <= start <= n):
        raise ConfigError(f"start must be in [0, {n}], got {start}")
    if len(pivots) != start or len(pivot_values) != start:
        raise ConfigError(
            f"resuming at step {start} requires {start} prior pivots/values, "
            f"got {len(pivots)}/{len(pivot_values)}"
        )
    machine = T.machine
    run = lanes(machine)
    if pivoting == "implicit":
        run.needs_one_run("implicit pivoting")
    row_iota = None
    not_pivoted = None  # implicit mode: rows still awaiting their pivot

    for k in range(start, n):
        with machine.phase("pivot-search"):
            col = T.extract(axis=1, index=k)
            if row_iota is None:
                row_iota = iota(col.embedding)
                if pivoting == "implicit":
                    # Reconstruct the pending-rows mask from the pivot
                    # history on resume: rows already used as pivots are out.
                    not_pivoted = row_iota >= 0
                    for used in pivots:
                        not_pivoted = not_pivoted & ~row_iota.eq(int(used))
            if pivoting == "partial":
                candidates = row_iota >= k
            elif pivoting == "implicit":
                candidates = not_pivoted
            else:
                candidates = None
            if pivoting == "none":
                prow = k
                pval = col.get_global(k)
                if run.any(abs(pval) <= tol):
                    raise SingularMatrixError(
                        f"zero diagonal at step {k} with pivoting='none'"
                    )
            else:
                pval, prow = abs(col).argreduce("max", valid=candidates)
                if run.any(prow < 0, abs(pval) <= tol):
                    raise SingularMatrixError(
                        f"no pivot above tolerance at elimination step {k}"
                    )
        pivots.append(prow)

        if pivoting == "partial":
            swap = prow != k
            if run.any(swap):
                with machine.phase("row-swap"), run.only(swap):
                    rk = run.extract(T, 0, k)
                    rp = run.extract(T, 0, prow)
                    T = run.insert(T, 0, k, rp)
                    T = run.insert(T, 0, prow, rk)
            prow = k

        with machine.phase("update"):
            pivot_row = T.extract(axis=0, index=int(prow))
            pivot_val = pivot_row.get_global(k)
            pivot_values.append(pivot_val)
            col = T.extract(axis=1, index=k)
            if pivoting == "implicit":
                below = not_pivoted & ~row_iota.eq(int(prow))
                not_pivoted = not_pivoted & ~row_iota.eq(int(prow))
            else:
                below = row_iota > k
            mults = below.where(col / run.imm(pivot_val), 0.0)
            T = T.sub_outer(mults, pivot_row)
            # The eliminated column is exactly zero in those rows in real
            # arithmetic; enforce it so round-off cannot leak into later
            # pivot searches.
            zero_col = below.where(0.0, T.extract(axis=1, index=k))
            T = T.insert(axis=1, index=k, vector=zero_col)
        if on_step is not None:
            on_step(k + 1, T, pivots, pivot_values)
    return Elimination(T, pivots, pivot_values, pivoting)


def back_substitute(
    elim: "Elimination | DistributedMatrix",
    rhs_col: Optional[int] = None,
    tol: float = 1e-12,
) -> np.ndarray:
    """Solve one right-hand side of an eliminated tableau by column sweeps.

    ``rhs_col`` selects which tableau column is the RHS (default: column
    ``n``, the classic augmented system).  Retires one unknown per sweep:
    read ``x_k`` from the pivot row of step ``k``, subtract ``x_k ×``
    column ``k`` from the RHS in the rows whose pivots are still pending.
    Accepts a bare upper-triangular tableau for convenience.
    """
    if isinstance(elim, DistributedMatrix):
        n = elim.shape[0]
        elim = Elimination(elim, list(range(n)), [], "partial")
    T = elim.tableau
    n, w = T.shape
    if rhs_col is None:
        rhs_col = n
    if not (n <= rhs_col < w):
        raise ConfigError(
            f"rhs_col {rhs_col} out of the RHS range [{n}, {w}) — "
            "expected an n x (n+k) tableau"
        )
    machine = T.machine
    run = lanes(machine)
    x = np.zeros(run.lead + (n,))
    with machine.phase("back-substitution"):
        rhs = T.extract(axis=1, index=rhs_col)
        row_iota = iota(rhs.embedding)
        pending = row_iota >= 0  # rows whose unknown is still unsolved
        for k in range(n - 1, -1, -1):
            r = elim.row_of_step(k)
            diag = T.get_global(r, k)
            if run.any(abs(diag) <= tol):
                raise SingularMatrixError(
                    f"zero diagonal at back-substitution step {k}"
                )
            xk = rhs.get_global(r) / diag
            x[..., k] = xk
            pending = pending & ~row_iota.eq(r)
            if k:
                colk = T.extract(axis=1, index=k)
                rhs = rhs - pending.where(colk, 0.0) * run.imm(xk)
    return x


def solve(
    A: DistributedMatrix,
    b: np.ndarray,
    pivoting: str = "partial",
    tol: float = 1e-12,
    keep_tableau: bool = False,
) -> GaussianResult:
    """Solve ``A x = b`` for a distributed square ``A`` and host ``b``.

    Builds the augmented ``[A | b]`` tableau in a fresh aspect-matched
    embedding, then forward elimination + back substitution.  On a batched
    machine ``b`` has shape ``(n_runs, n)`` and so have the result's ``x``
    and ``pivots``; its cost holds one value per lane.
    """
    n, n2 = A.shape
    if n != n2:
        raise ShapeError(f"A must be square, got {A.shape}")
    machine = A.machine
    run = lanes(machine)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != run.lead + (n,):
        raise ShapeError(f"b must have shape {run.lead + (n,)}, got {b.shape}")

    # Augment on the host: assembling [A | b] is front-end set-up, the same
    # untimed load the paper's timings exclude.
    host_T = np.concatenate([run.to_host(A), b[..., None]], axis=-1)
    T = run.matrix(type(A), host_T)

    start = machine.snapshot()
    with machine.phase("gaussian"):
        elim = eliminate(T, pivoting=pivoting, tol=tol)
        x = back_substitute(elim, tol=tol)
    return GaussianResult(
        x=x,
        pivots=run.by_run(elim.pivots),
        cost=machine.elapsed_since(start),
        tableau=elim.tableau if keep_tableau else None,
    )


def solve_multi(
    A: DistributedMatrix,
    B: np.ndarray,
    pivoting: str = "partial",
    tol: float = 1e-12,
) -> GaussianResult:
    """Solve ``A X = B`` for ``k`` right-hand sides with one factorisation.

    Eliminates the blocked tableau ``[A | B]`` once (the RHS columns ride
    through the rank-1 updates for free) and back-substitutes each column.
    """
    n, n2 = A.shape
    if n != n2:
        raise ShapeError(f"A must be square, got {A.shape}")
    B = np.asarray(B, dtype=np.float64)
    if B.ndim == 1:
        B = B[:, None]
    if B.shape[0] != n:
        raise ShapeError(f"B must have {n} rows, got {B.shape}")
    machine = A.machine
    k = B.shape[1]

    host_T = np.hstack([A.to_numpy(), B])
    T = type(A).from_numpy(machine, host_T)

    start = machine.snapshot()
    with machine.phase("gaussian"):
        elim = eliminate(T, pivoting=pivoting, tol=tol)
        X = np.column_stack(
            [back_substitute(elim, rhs_col=n + j, tol=tol) for j in range(k)]
        )
    return GaussianResult(
        x=X,
        pivots=elim.pivots,
        cost=machine.elapsed_since(start),
    )


def invert(
    A: DistributedMatrix,
    pivoting: str = "partial",
    tol: float = 1e-12,
) -> GaussianResult:
    """The matrix inverse via ``solve_multi(A, I)``."""
    n, n2 = A.shape
    if n != n2:
        raise ShapeError(f"A must be square, got {A.shape}")
    return solve_multi(A, np.eye(n), pivoting=pivoting, tol=tol)


def determinant(
    A: DistributedMatrix,
    tol: float = 1e-12,
) -> float:
    """The determinant: product of the pivots times the permutation sign.

    Returns 0.0 for (numerically) singular matrices.
    """
    n, n2 = A.shape
    if n != n2:
        raise ShapeError(f"A must be square, got {A.shape}")
    machine = A.machine
    T = type(A).from_numpy(machine, A.to_numpy())
    with machine.phase("gaussian"):
        try:
            elim = eliminate(T, pivoting="partial", tol=tol)
        except SingularMatrixError:
            return 0.0
    det = elim.permutation_sign()
    for v in elim.pivot_values:
        det *= v
    return float(det)


def gauss_jordan(
    A: DistributedMatrix,
    b: np.ndarray,
    tol: float = 1e-12,
) -> GaussianResult:
    """Solve ``A x = b`` by Gauss-Jordan elimination (no back substitution).

    Each step normalises the pivot row and eliminates the pivot column in
    *every* other row — roughly 1.5x the arithmetic of LU forward
    elimination, but the solution falls straight out of the final RHS
    column (handy when back substitution's n sequential host reads would
    dominate, i.e. small n on large p).  Partial pivoting with physical
    row swaps.
    """
    n, n2 = A.shape
    if n != n2:
        raise ShapeError(f"A must be square, got {A.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ShapeError(f"b must have shape ({n},), got {b.shape}")
    machine = A.machine
    host_T = np.hstack([A.to_numpy(), b[:, None]])
    T = type(A).from_numpy(machine, host_T)
    pivots: List[int] = []
    row_iota = None

    start = machine.snapshot()
    with machine.phase("gauss-jordan"):
        for k in range(n):
            with machine.phase("pivot-search"):
                col = T.extract(axis=1, index=k)
                if row_iota is None:
                    row_iota = iota(col.embedding)
                pval, prow = abs(col).argreduce("max", valid=row_iota >= k)
                if prow < 0 or abs(pval) <= tol:
                    raise SingularMatrixError(
                        f"no pivot above tolerance at step {k}"
                    )
            pivots.append(int(prow))
            if prow != k:
                with machine.phase("row-swap"):
                    rk = T.extract(axis=0, index=k)
                    rp = T.extract(axis=0, index=int(prow))
                    T = T.insert(axis=0, index=k, vector=rp)
                    T = T.insert(axis=0, index=int(prow), vector=rk)
            with machine.phase("update"):
                pivot_row = T.extract(axis=0, index=k)
                pivot_val = pivot_row.get_global(k)
                pivot_row = pivot_row * (1.0 / pivot_val)
                T = T.insert(axis=0, index=k, vector=pivot_row)
                col = T.extract(axis=1, index=k)
                others = ~row_iota.eq(k)
                mults = others.where(col, 0.0)
                T = T.sub_outer(mults, pivot_row)
                unit = row_iota.eq(k).where(1.0, 0.0)
                T = T.insert(axis=1, index=k, vector=unit)
        x_vec = T.extract(axis=1, index=n)
    x = x_vec.to_numpy()
    return GaussianResult(
        x=x, pivots=pivots, cost=machine.elapsed_since(start)
    )
