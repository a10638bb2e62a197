"""Application 3: the dense tableau simplex method.

The paper's third application: a two-phase primal simplex for

    maximize    c · x
    subject to  A x <= b,   x >= 0

on a distributed ``(m + objective rows) × (n + m + artificials + 1)``
tableau.  Every step of an iteration is one of the four primitives:

* entering column — ``extract`` the objective row, arg-min over the
  eligible reduced costs (Dantzig) or smallest eligible index (Bland);
* leaving row — ``extract`` the entering column and the RHS column, a
  masked elementwise ratio, and an arg-min ``reduce``;
* pivot — ``extract`` + scale + ``insert`` the pivot row, then one rank-1
  update (``distribute`` + local arithmetic) over the whole tableau.

So an iteration costs a constant number of ``lg p``-round collectives plus
``O(m·n/p)`` local arithmetic — the naive baseline pays serialised
collectives instead, which is where the paper's order-of-magnitude gap
comes from.

Rows with ``b_i < 0`` are sign-flipped and given artificial variables;
phase I maximises minus their sum (carrying the phase II objective row in
the tableau so it stays canonical for free).

:func:`solve` also runs unchanged on a batched machine, one LP per lane
(``b >= 0``, so no lane needs phase I): lanes stop independently, and
each lane's pivot row and column go through the :mod:`.lanes` hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Type

import numpy as np

from ..machine.counters import CostSnapshot
from ..machine.hypercube import Hypercube
from ..core.arrays import DistributedMatrix, DistributedVector, iota
from ..errors import ConfigError, ShapeError
from .lanes import LaneResult, OneRun, lanes

Status = str  # 'optimal' | 'unbounded' | 'infeasible' | 'iteration_limit'


@dataclass
class SimplexResult(LaneResult):
    """Solution, provenance and simulated cost of one LP solve."""

    status: Status
    objective: float
    x: np.ndarray
    iterations: int
    phase1_iterations: int
    basis: List[int]
    pivots: List[Tuple[int, int]] = field(default_factory=list)
    cost: Optional[CostSnapshot] = None
    #: dual prices, one per constraint (populated when optimal): the final
    #: objective-row coefficients of the slack columns, sign-corrected for
    #: rows phase I flipped — the shadow price of each resource.
    duals: Optional[np.ndarray] = None
    #: final reduced costs of the original variables (>= -tol at optimum).
    reduced_costs: Optional[np.ndarray] = None


@dataclass
class _Tableau:
    """The distributed tableau plus the host-side bookkeeping."""

    T: DistributedMatrix
    m: int            # constraint rows
    n: int            # original variables
    n_slack: int
    n_art: int
    basis: List[int]  # column index basic in each constraint row
    lanes: OneRun     # the divergence hook (one run, or one per lane)

    @property
    def width(self) -> int:
        return self.n + self.n_slack + self.n_art + 1

    @property
    def rhs_col(self) -> int:
        return self.width - 1

    @property
    def z_row(self) -> int:
        return self.m

    @property
    def w_row(self) -> int:
        return self.m + 1


def _build_tableau(
    machine: Hypercube,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    matrix_cls: Type[DistributedMatrix],
) -> _Tableau:
    """Assemble the host tableau and embed it (front-end set-up, untimed)."""
    run = lanes(machine)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape[-2:]
    if A.shape != run.lead + (m, n) or b.shape != run.lead + (m,) or (
        c.shape != run.lead + (n,)
    ):
        raise ShapeError(
            f"shape mismatch: A {A.shape}, b {b.shape}, c {c.shape}"
        )

    flip = b < 0
    A = np.where(flip[..., None], -A, A)
    slack_sign = np.where(flip, -1.0, 1.0)
    b = np.abs(b)
    art_rows = np.nonzero(flip)[0]
    n_art = len(art_rows)
    if n_art:
        run.needs_one_run("an LP with b < 0 (phase I)")

    n_obj_rows = 2 if n_art else 1
    width = n + m + n_art + 1
    T = np.zeros(run.lead + (m + n_obj_rows, width))
    T[..., :m, :n] = A
    T[..., np.arange(m), n + np.arange(m)] = slack_sign
    T[..., :m, -1] = b
    T[..., m, :n] = -c  # phase II objective (z-row): maximise c·x

    basis = run.runs(list, range(n, n + m))
    for k, i in enumerate(art_rows):
        col = n + m + k
        T[i, col] = 1.0
        basis[i] = col
    if n_art:
        # phase I objective (w-row): maximise -(sum of artificials),
        # canonicalised by subtracting the artificial rows.
        T[m + 1] = -T[art_rows].sum(axis=0)
        T[m + 1, n + m : n + m + n_art] = 0.0

    return _Tableau(
        T=run.matrix(matrix_cls, T),
        m=m,
        n=n,
        n_slack=m,
        n_art=n_art,
        basis=basis,
        lanes=run,
    )


def _pivot(
    tab: _Tableau,
    r: int,
    j: int,
    row_iota: DistributedVector,
) -> None:
    """One pivot on (row r, column j), updating every tableau row."""
    run = tab.lanes
    T = tab.T
    prow = run.extract(T, 0, r)
    pval = run.get(prow, j)
    prow = prow * run.imm(1.0 / pval)
    T = run.insert(T, 0, r, prow)
    col = run.extract(T, 1, j)
    not_r = ~row_iota.eq(run.imm(r))
    mcol = not_r.where(col, 0.0)
    T = run.merge(T.sub_outer(mcol, prow), T)
    # Basic columns are exactly unit vectors in real arithmetic; pin the
    # pivot column so round-off never accumulates in later reduced costs.
    unit = row_iota.eq(run.imm(r)).where(1.0, 0.0)
    T = run.insert(T, 1, j, unit)
    tab.T = T
    run.assign(tab.basis, r, j)


def _run_phase(
    tab: _Tableau,
    obj_row: int,
    allow_artificial: bool,
    rule: str,
    tol: float,
    max_iters: int,
    pivots: List[Tuple[int, int]],
) -> Tuple[Status, int]:
    """Pivot until the given objective row is optimal (in every lane)."""
    machine = tab.T.machine
    run = tab.lanes
    col_iota = None
    row_iota = None
    n_real = tab.n + tab.n_slack

    for it in range(max_iters):
        with machine.phase("entering"), run.only():
            obj = tab.T.extract(axis=0, index=obj_row)
            if col_iota is None:
                col_iota = iota(obj.embedding)
            eligible = (obj < -tol) & (col_iota < (
                tab.width - 1 if allow_artificial else n_real
            ))
            if rule == "dantzig":
                _, j = obj.argreduce("min", valid=eligible)
            else:  # bland: smallest eligible index
                _, j = col_iota.argreduce("min", valid=eligible)
        if run.stop(j < 0, "optimal", it):
            return run.outcome

        with machine.phase("ratio-test"), run.only():
            col = run.extract(tab.T, 1, j)
            if row_iota is None:
                row_iota = iota(col.embedding)
            rhs = tab.T.extract(axis=1, index=tab.rhs_col)
            is_constraint = row_iota < tab.m
            pos = (col > tol) & is_constraint
            safe = pos.where(col, 1.0)
            ratios = pos.where(rhs / safe, np.inf)
            _, r = ratios.argreduce("min", valid=pos)
        if run.stop(r < 0, "unbounded", it):
            return run.outcome

        with machine.phase("pivot"), run.only():
            _pivot(tab, r, j, row_iota)
        run.record(pivots, (r, j))
    run.stop(True, "iteration_limit", max_iters)
    return run.outcome


def _drive_out_artificials(
    tab: _Tableau, tol: float, pivots: List[Tuple[int, int]]
) -> None:
    """Pivot zero-level basic artificials out where possible.

    A row whose artificial cannot be driven out is linearly dependent; it
    is left in place (the artificial stays basic at level zero and is
    excluded from entering in phase II, so it never moves again).
    """
    n_real = tab.n + tab.n_slack
    machine = tab.T.machine
    row_iota = None
    for r in range(tab.m):
        if tab.basis[r] < n_real:
            continue
        row = tab.T.extract(axis=0, index=r)
        col_iota = iota(row.embedding)
        eligible = (abs(row) > tol) & (col_iota < n_real)
        val, j = abs(row).argreduce("max", valid=eligible)
        if j < 0:
            continue  # redundant row
        if row_iota is None:
            col0 = tab.T.extract(axis=1, index=int(j))
            row_iota = iota(col0.embedding)
        with machine.phase("pivot"):
            _pivot(tab, r, int(j), row_iota)
        pivots.append((r, int(j)))


def solve(
    machine: Hypercube,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    rule: str = "dantzig",
    tol: float = 1e-9,
    max_iters: Optional[int] = None,
    matrix_cls: Optional[Type[DistributedMatrix]] = None,
) -> SimplexResult:
    """Solve ``max c·x s.t. A x <= b, x >= 0`` on the simulated machine.

    ``rule`` selects the entering rule: ``'dantzig'`` (most negative
    reduced cost; fast in practice) or ``'bland'`` (smallest index;
    cycle-free).  ``matrix_cls`` selects the primitive implementation —
    pass the naive baseline class to run the identical algorithm on naive
    collectives.  The default follows the machine: the checksummed matrix
    when an ABFT manager is attached, the standard one otherwise.
    """
    if rule not in ("dantzig", "bland"):
        raise ConfigError(f"rule must be 'dantzig' or 'bland', got {rule!r}")
    if matrix_cls is None:
        if machine.abft is not None:
            from ..abft.arrays import ABFTMatrix

            matrix_cls = ABFTMatrix
        else:
            matrix_cls = DistributedMatrix
    tab = _build_tableau(machine, A, b, c, matrix_cls)
    if max_iters is None:
        max_iters = 50 * (tab.m + tab.n)

    pivots: List[Tuple[int, int]] = tab.lanes.runs(list)
    start = machine.snapshot()
    phase1_iters = 0

    with machine.phase("simplex"):
        if tab.n_art:
            status, phase1_iters = _run_phase(
                tab,
                obj_row=tab.w_row,
                allow_artificial=True,
                rule=rule,
                tol=tol,
                max_iters=max_iters,
                pivots=pivots,
            )
            if status == "iteration_limit":
                return SimplexResult(
                    status, np.nan, np.zeros(tab.n), phase1_iters,
                    phase1_iters, tab.basis, pivots,
                    machine.elapsed_since(start),
                )
            w_value = tab.T.get_global(tab.w_row, tab.rhs_col)
            if w_value < -tol:
                return SimplexResult(
                    "infeasible", np.nan, np.zeros(tab.n), phase1_iters,
                    phase1_iters, tab.basis, pivots,
                    machine.elapsed_since(start),
                )
            _drive_out_artificials(tab, tol, pivots)

        status, phase2_iters = _run_phase(
            tab,
            obj_row=tab.z_row,
            allow_artificial=False,
            rule=rule,
            tol=tol,
            max_iters=max_iters,
            pivots=pivots,
        )

    cost = machine.elapsed_since(start)
    run = tab.lanes
    # Read the solutions off the final tableau (front-end output, untimed);
    # an unbounded run has none to read.
    host = run.to_host(tab.T) if run.any(status != "unbounded") else None
    return run.each(
        _result, tab, host, tab.basis, status, phase1_iters + phase2_iters,
        phase1_iters, pivots, cost,
    )


def _result(tab, host, basis, status, iterations, phase1_iters, pivots, cost):
    """One run's result, read off its final host tableau (if bounded)."""
    if status == "unbounded":
        return SimplexResult(
            "unbounded", np.inf, np.zeros(tab.n), iterations,
            phase1_iters, basis, pivots, cost,
        )
    x_full = np.zeros(tab.width - 1)
    for r, col in enumerate(basis):
        x_full[col] = host[r, tab.rhs_col]
    objective = float(host[tab.z_row, tab.rhs_col])
    # Duals: z-row coefficients of the slack columns.  For rows phase I
    # sign-flipped both the constraint and its slack coefficient were
    # negated, so the z-row entry already equals the *original* dual.
    duals = host[tab.z_row, tab.n : tab.n + tab.n_slack].copy()
    reduced_costs = host[tab.z_row, : tab.n].copy()
    return SimplexResult(
        status=status,
        objective=objective,
        x=x_full[: tab.n].copy(),
        iterations=iterations,
        phase1_iterations=phase1_iters,
        basis=list(basis),
        pivots=pivots,
        cost=cost,
        duals=duals,
        reduced_costs=reduced_costs,
    )
