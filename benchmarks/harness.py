"""Reconstructed experiments and the claims registry.

One ``run_*`` function per reconstructed table/figure from DESIGN.md
(R-T1 … R-E4).  Each returns an :class:`ExperimentResult`: the
paper-style formatted table plus the metrics the paper's claims are
judged on (who wins, by what factor, where the crossover falls).
:data:`REGISTRY` maps every R-* id to its runner, its sizes at the two
scales and its claims, each a named predicate over those metrics.

One command, no flags, regenerates everything::

    python benchmarks/harness.py

* each small-scale table is written to ``benchmarks/results/``;
* each paper-scale table replaces the block between that id's markers
  in EXPERIMENTS.md (a missing marker is an error, never an append);
* every claim is evaluated at both scales, one line per claim, and the
  command exits 1 if any claim fails.

The committed files are the golden copies: CI reruns the command, then
``git diff --exit-code -- benchmarks/results EXPERIMENTS.md``.  The small
scale stays because some defects only show there (see
:func:`run_gaussian`).

All reported times are *simulated* ticks under the CM-2-flavoured cost
model; see EXPERIMENTS.md for the units discussion.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro import workloads as W  # noqa: E402
from repro.algorithms import gaussian, iterative, serial, simplex  # noqa: E402
from repro.algorithms.naive import NaiveMatrix, NaiveVector  # noqa: E402
from repro.analysis import (  # noqa: E402
    PrimitiveCosts,
    format_speedup,
    format_table,
    pt_ratio,
)
from repro.core import DistributedMatrix, DistributedVector  # noqa: E402
from repro.embeddings import (  # noqa: E402
    ColAlignedEmbedding,
    MatrixEmbedding,
    RowAlignedEmbedding,
    VectorOrderEmbedding,
    remap_vector,
    transpose,
)
from repro.machine import CostModel, CostSnapshot, Hypercube  # noqa: E402

RESULTS_DIR = os.path.join(HERE, "results")
EXPERIMENTS_MD = os.path.join(os.path.dirname(HERE), "EXPERIMENTS.md")

#: ``small`` tables are the committed ``benchmarks/results/`` files;
#: ``paper`` tables fill EXPERIMENTS.md.
SCALES = ("small", "paper")


@dataclass
class ExperimentResult:
    """One regenerated table plus machine-checkable headline metrics."""

    experiment: str
    caption: str
    table: str
    metrics: Dict[str, float] = field(default_factory=dict)

    def write(self) -> str:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{self.experiment}.txt")
        with open(path, "w") as fh:
            fh.write(self.caption + "\n\n" + self.table + "\n")
        return path


def _machine(n: int) -> Hypercube:
    return Hypercube(n, CostModel.cm2())


def _elapsed(machine: Hypercube, fn: Callable[[], None]) -> CostSnapshot:
    start = machine.snapshot()
    fn()
    return machine.elapsed_since(start)


# ---------------------------------------------------------------------------
# R-T1: timings of the four primitives
# ---------------------------------------------------------------------------

def run_primitives(n_dims: int,
                   sides: Optional[Sequence[int]] = None) -> ExperimentResult:
    """Simulated time of each primitive vs matrix size at fixed p."""
    if sides is None:
        base = 2 ** max((n_dims // 2), 2)
        sides = [base, base * 2, base * 4, base * 8]
    rows = []
    metrics: Dict[str, float] = {}
    for side in sides:
        machine = _machine(n_dims)
        emb = MatrixEmbedding.default(machine, side, side)
        A = W.dense_matrix(side, side, seed=side)
        M = DistributedMatrix(emb.scatter(A), emb)
        times = {}
        times["extract"] = _elapsed(machine, lambda: M.extract(0, side // 2)).time
        vec = M.extract(0, side // 2)
        times["insert"] = _elapsed(machine, lambda: M.insert(0, 0, vec)).time
        times["distribute"] = _elapsed(
            machine, lambda: vec.distribute(M, axis=0)
        ).time
        times["reduce"] = _elapsed(machine, lambda: M.reduce(1, "sum")).time
        times["reduce_loc"] = _elapsed(machine, lambda: M.argreduce(1, "max")).time
        model = PrimitiveCosts.for_embedding(emb)
        rows.append([
            f"{side}x{side}",
            side * side // machine.p,
            times["extract"],
            times["insert"],
            times["distribute"],
            times["reduce"],
            times["reduce_loc"],
            model.reduce(1),
        ])
        metrics[f"reduce_{side}"] = times["reduce"]
        metrics[f"model_reduce_{side}"] = model.reduce(1)
    table = format_table(
        ["matrix", "m/p", "extract", "insert", "distribute", "reduce",
         "arg-reduce", "reduce (model)"],
        rows,
        caption=None,
    )
    return ExperimentResult(
        "R-T1_primitives",
        f"Primitive timings (simulated ticks), p = 2^{n_dims}, CM-2 cost model",
        table,
        metrics,
    )


# ---------------------------------------------------------------------------
# R-T2: vector-matrix multiply
# ---------------------------------------------------------------------------

def run_matvec(n_dims: int,
               sides: Optional[Sequence[int]] = None) -> ExperimentResult:
    if sides is None:
        base = 2 ** max((n_dims // 2), 2)
        sides = [base, base * 2, base * 4, base * 8]
    rows = []
    metrics: Dict[str, float] = {}
    for side in sides:
        A_h = W.dense_matrix(side, side, seed=side)
        x_h = W.dense_vector(side, seed=side + 1)

        mp = _machine(n_dims)
        A = DistributedMatrix.from_numpy(mp, A_h)
        x = DistributedVector(
            RowAlignedEmbedding(A.embedding, None).scatter(x_h),
            RowAlignedEmbedding(A.embedding, None),
        )
        prim = _elapsed(mp, lambda: A.matvec(x)).time

        mn = _machine(n_dims)
        NA = NaiveMatrix.from_numpy(mn, A_h)
        nx = NaiveVector(
            RowAlignedEmbedding(NA.embedding, None).scatter(x_h),
            RowAlignedEmbedding(NA.embedding, None),
        )
        naive = _elapsed(mn, lambda: NA.matvec(nx)).time

        ops = serial.matvec(A_h, x_h).ops
        serial_t = ops * mp.cost_model.t_a
        rows.append([
            f"{side}x{side}", serial_t, prim, naive, naive / prim,
            serial_t / prim,
        ])
        metrics[f"speedup_{side}"] = naive / prim
    table = format_table(
        ["matrix", "serial", "primitives", "naive", "naive/prim",
         "serial/prim"],
        rows,
    )
    return ExperimentResult(
        "R-T2_matvec",
        f"Matrix-vector multiply timings (simulated ticks), p = 2^{n_dims}",
        table,
        metrics,
    )


# ---------------------------------------------------------------------------
# R-T3: Gaussian elimination
# ---------------------------------------------------------------------------

def run_gaussian(n_dims: int, orders: Sequence[int]) -> ExperimentResult:
    # Orders of the form 2^k - 1 are meant to keep the (n, n+1) tableau's
    # grid split square, so the *naive* baseline's serialised cost does not
    # jump around with the band count.  That holds at p = 2^10 (the paper
    # scale), but not everywhere: a known defect of the default split gives
    # n = 63 on p = 2^6 a 1 x 64 grid, which is why the small-scale row for
    # n = 63 costs more than n = 95's (ROADMAP, "Fix the default grid").
    rows = []
    metrics: Dict[str, float] = {}
    for n_sys in orders:
        A_h, b, x_true = W.diagonally_dominant_system(n_sys, seed=n_sys)

        mp = _machine(n_dims)
        res_p = gaussian.solve(DistributedMatrix.from_numpy(mp, A_h), b)
        assert np.allclose(res_p.x, x_true, atol=1e-6)

        mn = _machine(n_dims)
        res_n = gaussian.solve(NaiveMatrix.from_numpy(mn, A_h), b)
        assert np.allclose(res_n.x, x_true, atol=1e-6)

        ops = serial.gaussian_solve(A_h, b).ops
        serial_t = ops * mp.cost_model.t_a
        rows.append([
            n_sys, serial_t, res_p.cost.time, res_n.cost.time,
            res_n.cost.time / res_p.cost.time,
            pt_ratio(res_p.cost, mp.p, ops, mp.cost_model),
        ])
        metrics[f"speedup_{n_sys}"] = res_n.cost.time / res_p.cost.time
        metrics[f"pt_ratio_{n_sys}"] = pt_ratio(
            res_p.cost, mp.p, ops, mp.cost_model
        )
    table = format_table(
        ["n", "serial", "primitives", "naive", "naive/prim", "PT/serial"],
        rows,
    )
    return ExperimentResult(
        "R-T3_gaussian",
        f"Gaussian elimination timings (simulated ticks), p = 2^{n_dims}",
        table,
        metrics,
    )


# ---------------------------------------------------------------------------
# R-T4: simplex
# ---------------------------------------------------------------------------

def run_simplex(n_dims: int,
                shapes: Sequence[Tuple[int, int]]) -> ExperimentResult:
    rows = []
    metrics: Dict[str, float] = {}
    for mi, ni in shapes:
        lp = W.feasible_lp(mi, ni, seed=mi * 31 + ni)

        mp = _machine(n_dims)
        res_p = simplex.solve(mp, lp.A, lp.b, lp.c)
        assert res_p.status == "optimal"

        mn = _machine(n_dims)
        res_n = simplex.solve(mn, lp.A, lp.b, lp.c, matrix_cls=NaiveMatrix)
        assert res_n.status == "optimal"
        assert res_n.iterations == res_p.iterations

        st, obj, _, its, ops = serial.simplex_solve(lp.A, lp.b, lp.c)
        assert np.isclose(obj, res_p.objective, atol=1e-6)
        per_iter_p = res_p.cost.time / max(res_p.iterations, 1)
        per_iter_n = res_n.cost.time / max(res_n.iterations, 1)
        rows.append([
            f"{mi}x{ni}", res_p.iterations, per_iter_p, per_iter_n,
            res_p.cost.time, res_n.cost.time,
            res_n.cost.time / res_p.cost.time,
        ])
        metrics[f"speedup_{mi}x{ni}"] = res_n.cost.time / res_p.cost.time
    table = format_table(
        ["LP (m x n)", "iters", "prim/iter", "naive/iter", "prim total",
         "naive total", "naive/prim"],
        rows,
    )
    return ExperimentResult(
        "R-T4_simplex",
        f"Simplex timings (simulated ticks), p = 2^{n_dims}, Dantzig rule",
        table,
        metrics,
    )


# ---------------------------------------------------------------------------
# R-F1: processor-time-product optimality vs m/p
# ---------------------------------------------------------------------------

def run_optimality(n_dims: int) -> ExperimentResult:
    machine_p = 2 ** n_dims
    threshold = machine_p * math.log2(machine_p)
    rows = []
    metrics: Dict[str, float] = {}
    side = int(2 ** math.ceil(n_dims / 2)) // 4
    sides = [max(side, 2)]
    while sides[-1] ** 2 < machine_p * 1024:
        sides.append(sides[-1] * 2)
    for side in sides:
        cost = CostModel.cm2()
        machine = Hypercube(n_dims, cost)
        A_h = np.ones((side, side))
        A = DistributedMatrix.from_numpy(machine, A_h)
        emb = RowAlignedEmbedding(A.embedding, None)
        x = DistributedVector(emb.scatter(np.ones(side)), emb)
        t = _elapsed(machine, lambda: A.matvec(x)).time
        ops = 2 * side * side
        ratio = pt_ratio(CostSnapshot(time=t), machine_p, ops, cost)
        m_elems = side * side
        rows.append([
            m_elems, m_elems / machine_p,
            "yes" if m_elems > threshold else "no",
            t, ratio,
        ])
        metrics[f"ratio_at_{m_elems}"] = ratio
    metrics["threshold"] = threshold
    table = format_table(
        ["m", "m/p", "m > p lg p", "parallel time", "PT / serial"],
        rows,
    )
    return ExperimentResult(
        "R-F1_optimality",
        f"Processor-time product vs problem size (matvec), p = 2^{n_dims}; "
        f"threshold m = p lg p = {threshold:.0f}",
        table,
        metrics,
    )


def probe_optimality_in_p() -> Dict[str, float]:
    """The threshold moves with p: m = 4096 is beyond p lg p on p = 16
    (m/p = 256) and below it on p = 1024 (m/p = 4)."""
    cost = CostModel.cm2()
    side = 64
    metrics: Dict[str, float] = {}
    for n in (4, 10):
        machine = Hypercube(n, cost)
        A = DistributedMatrix.from_numpy(machine, np.ones((side, side)))
        emb = RowAlignedEmbedding(A.embedding, None)
        x = DistributedVector(emb.scatter(np.ones(side)), emb)
        t = _elapsed(machine, lambda: A.matvec(x)).time
        metrics[f"fixed_m_ratio_p{machine.p}"] = pt_ratio(
            CostSnapshot(time=t), machine.p, 2 * side * side, cost
        )
    return metrics


# ---------------------------------------------------------------------------
# R-F2: speedup over naive vs machine size
# ---------------------------------------------------------------------------

def run_speedup(n_list: Sequence[int], side: int) -> ExperimentResult:
    A_h = W.dense_matrix(side, side, seed=1)
    x_h = W.dense_vector(side, seed=2)
    xs, naive_t, prim_t = [], [], []
    metrics: Dict[str, float] = {}
    for n in n_list:
        mp = _machine(n)
        A = DistributedMatrix.from_numpy(mp, A_h)
        emb = RowAlignedEmbedding(A.embedding, None)
        x = DistributedVector(emb.scatter(x_h), emb)

        def prim_mix():
            A.matvec(x)
            A.reduce(1, "max")
            A.extract(1, 3)

        tp = _elapsed(mp, prim_mix).time

        mn = _machine(n)
        NA = NaiveMatrix.from_numpy(mn, A_h)
        nemb = RowAlignedEmbedding(NA.embedding, None)
        nx = NaiveVector(nemb.scatter(x_h), nemb)

        def naive_mix():
            NA.matvec(nx)
            NA.reduce(1, "max")
            NA.extract(1, 3)

        tn = _elapsed(mn, naive_mix).time
        xs.append(2 ** n)
        naive_t.append(tn)
        prim_t.append(tp)
        metrics[f"speedup_p{2**n}"] = tn / tp
    table = format_speedup(
        xs, naive_t, prim_t, x_label="p",
    )
    return ExperimentResult(
        "R-F2_speedup",
        f"Primitive vs naive (matvec + reduce + extract mix), "
        f"{side}x{side} matrix — the 'almost an order of magnitude' claim",
        table,
        metrics,
    )


def probe_free_network() -> Dict[str, float]:
    """A reduce with a free network (tau = t_c = 0): the naive port keeps
    only its serial combining flops, so the speedup is a communication
    effect, not an arithmetic one."""
    free = CostModel(tau=0.0, t_c=0.0, t_a=1.0, t_m=0.5)
    A_h = W.dense_matrix(64, 64, seed=9)
    mp, mn = Hypercube(8, free), Hypercube(8, free)
    P = DistributedMatrix.from_numpy(mp, A_h)
    N = NaiveMatrix.from_numpy(mn, A_h)
    return {
        "free_net_prim": _elapsed(mp, lambda: P.reduce(1, "sum")).time,
        "free_net_naive": _elapsed(mn, lambda: N.reduce(1, "sum")).time,
    }


# ---------------------------------------------------------------------------
# R-F3: embedding-change costs
# ---------------------------------------------------------------------------

def run_remap(n_dims: int,
              sides: Optional[Sequence[int]] = None) -> ExperimentResult:
    if sides is None:
        base = 2 ** max((n_dims // 2), 2)
        sides = [base, base * 2, base * 4]
    rows = []
    metrics: Dict[str, float] = {}
    for side in sides:
        machine = _machine(n_dims)
        emb = MatrixEmbedding.default(machine, side, side)
        A = W.dense_matrix(side, side, seed=side)
        M = emb.scatter(A)

        t_transpose = _elapsed(machine, lambda: transpose(M, emb)).time
        t_transpose_sg = _elapsed(
            machine, lambda: transpose(M, emb, same_grid=True)
        ).time

        vo = VectorOrderEmbedding(machine, side)
        v_h = W.dense_vector(side, seed=side)
        pv = vo.scatter(v_h)
        row_emb = RowAlignedEmbedding(emb, None)
        t_vec2row = _elapsed(machine, lambda: remap_vector(pv, vo, row_emb)).time

        col_res = ColAlignedEmbedding(emb, 0)
        pc = col_res.scatter(v_h)
        col_res2 = ColAlignedEmbedding(emb, 1)
        t_band = _elapsed(
            machine, lambda: remap_vector(pc, col_res, col_res2)
        ).time

        # for reference: a reduce of the same matrix
        MD = DistributedMatrix(M, emb)
        t_reduce = _elapsed(machine, lambda: MD.reduce(1, "sum")).time

        rows.append([
            f"{side}x{side}", t_transpose, t_transpose_sg, t_vec2row, t_band,
            t_reduce,
        ])
        metrics[f"transpose_relabel_{side}"] = t_transpose
        metrics[f"transpose_same_grid_{side}"] = t_transpose_sg
    table = format_table(
        ["matrix", "transpose (relabel)", "transpose (same grid)",
         "vec->row order", "band change", "reduce (ref)"],
        rows,
    )
    return ExperimentResult(
        "R-F3_remap",
        f"Embedding-change costs (simulated ticks), p = 2^{n_dims}",
        table,
        metrics,
    )


# ---------------------------------------------------------------------------
# R-F4: scaling with machine size
# ---------------------------------------------------------------------------

def run_scaling(n_list: Sequence[int], fixed_side: int) -> ExperimentResult:
    rows = []
    metrics: Dict[str, float] = {}
    for n in n_list:
        # fixed problem: strong scaling
        mf = _machine(n)
        A = DistributedMatrix.from_numpy(
            mf, W.dense_matrix(fixed_side, fixed_side, seed=3)
        )
        emb = RowAlignedEmbedding(A.embedding, None)
        x = DistributedVector(emb.scatter(np.ones(fixed_side)), emb)
        t_fixed = _elapsed(mf, lambda: A.matvec(x)).time

        # scaled problem: 64 elements per processor at every size
        side = int(math.sqrt(64 * 2 ** n))
        ms = _machine(n)
        B = DistributedMatrix.from_numpy(ms, W.dense_matrix(side, side, seed=4))
        emb2 = RowAlignedEmbedding(B.embedding, None)
        y = DistributedVector(emb2.scatter(np.ones(side)), emb2)
        t_scaled = _elapsed(ms, lambda: B.matvec(y)).time

        rows.append([2 ** n, t_fixed, t_scaled])
        metrics[f"fixed_p{2**n}"] = t_fixed
        metrics[f"scaled_p{2**n}"] = t_scaled
    table = format_table(
        ["p", f"fixed {fixed_side}x{fixed_side}", "scaled (64 elems/proc)"],
        rows,
    )
    return ExperimentResult(
        "R-F4_scaling",
        "Matvec time vs machine size: strong scaling (fixed problem) and "
        "virtual-processor scaling (fixed m/p)",
        table,
        metrics,
    )


def probe_fixed_load() -> Dict[str, float]:
    """Matvec at 256 elements per processor on p = 16 and p = 256: the
    per-element work is constant and only the lg p rounds grow."""
    metrics: Dict[str, float] = {}
    for n in (4, 8):
        machine = _machine(n)
        side = int(math.sqrt(256 * machine.p))
        A = DistributedMatrix.from_numpy(machine, np.ones((side, side)))
        emb = RowAlignedEmbedding(A.embedding, None)
        x = DistributedVector(emb.scatter(np.ones(side)), emb)
        metrics[f"fixed_load_p{machine.p}"] = _elapsed(
            machine, lambda: A.matvec(x)
        ).time
    return metrics


# ---------------------------------------------------------------------------
# R-A1: ablations
# ---------------------------------------------------------------------------

def _band_walk(n_dims: int, side: int, coding: str,
               bands: Optional[int] = None) -> float:
    """Ticks to walk a column-resident vector across the first ``bands``
    grid bands (all of them by default), one residence change per step."""
    machine = _machine(n_dims)
    emb = MatrixEmbedding.default(machine, side, side, coding=coding)
    cur = ColAlignedEmbedding(emb, 0)
    pv = cur.scatter(np.ones(side))
    start = machine.snapshot()
    for band in range(1, min(emb.Pc, bands or emb.Pc)):
        nxt = ColAlignedEmbedding(emb, band)
        pv = remap_vector(pv, cur, nxt)
        cur = nxt
    return machine.elapsed_since(start).time


def run_ablation(n_dims: int, pivot_order: int) -> ExperimentResult:
    side = 2 ** max(n_dims // 2, 2) * 4
    rows = []
    metrics: Dict[str, float] = {}

    # (a) tree collectives vs serialised (the primitives' core advantage)
    mp = _machine(n_dims)
    A = DistributedMatrix.from_numpy(mp, W.dense_matrix(side, side, seed=5))
    t_tree = _elapsed(mp, lambda: A.reduce(1, "sum")).time
    mn = _machine(n_dims)
    NA = NaiveMatrix.from_numpy(mn, W.dense_matrix(side, side, seed=5))
    t_serial = _elapsed(mn, lambda: NA.reduce(1, "sum")).time
    rows.append(["reduce: tree vs serialised", t_tree, t_serial,
                 t_serial / t_tree])
    metrics["tree_factor"] = t_serial / t_tree

    # (b) Gray vs binary coding: band-walk remap cost
    for coding in ("gray", "binary"):
        metrics[f"bandwalk_{coding}"] = _band_walk(n_dims, side, coding, 8)
    rows.append([
        "band walk: gray vs binary coding",
        metrics["bandwalk_gray"], metrics["bandwalk_binary"],
        metrics["bandwalk_binary"] / metrics["bandwalk_gray"],
    ])

    # (b') implicit vs explicit pivoting in Gaussian elimination
    A_h, b, _ = W.random_system(pivot_order, seed=11)
    for mode in ("implicit", "partial"):
        machine = _machine(n_dims)
        res = gaussian.solve(
            DistributedMatrix.from_numpy(machine, A_h), b, pivoting=mode
        )
        metrics[f"pivot_{mode}"] = res.cost.time
    rows.append([
        "gaussian: implicit vs explicit pivoting",
        metrics["pivot_implicit"], metrics["pivot_partial"],
        metrics["pivot_partial"] / metrics["pivot_implicit"],
    ])

    # (c) aspect-matched grid split vs forced square split (skewed matrix)
    R, C = 16 * 2 ** n_dims // 4, 4
    m_match = _machine(n_dims)
    emb_match = MatrixEmbedding.default(m_match, R, C)
    Mm = DistributedMatrix(emb_match.scatter(np.ones((R, C))), emb_match)
    t_match = _elapsed(m_match, lambda: Mm.reduce(1, "sum")).time
    m_sq = _machine(n_dims)
    half = n_dims // 2
    emb_sq = MatrixEmbedding(
        m_sq, R, C, row_dims=m_sq.dims[:half], col_dims=m_sq.dims[half:]
    )
    Ms = DistributedMatrix(emb_sq.scatter(np.ones((R, C))), emb_sq)
    t_sq = _elapsed(m_sq, lambda: Ms.reduce(1, "sum")).time
    rows.append([
        f"grid split for {R}x{C}: matched vs square", t_match, t_sq,
        t_sq / t_match,
    ])
    metrics["aspect_factor"] = t_sq / t_match

    table = format_table(
        ["ablation", "with design choice", "without", "factor"],
        rows,
    )
    return ExperimentResult(
        "R-A1_ablation",
        f"Design-choice ablations (simulated ticks), p = 2^{n_dims}",
        table,
        metrics,
    )


def probe_full_band_walk() -> Dict[str, float]:
    """Gray vs binary coding over every band of a 128 x 128 matrix on
    p = 2^8 (the R-A1 table walks at most 8 bands)."""
    return {
        f"full_bandwalk_{coding}": _band_walk(8, 128, coding)
        for coding in ("gray", "binary")
    }


def probe_layouts() -> Dict[str, float]:
    """Gaussian elimination under a block and a cyclic row layout.

    Under a block layout the shrinking active region drains whole grid
    bands; the cyclic layout keeps every band busy.  In this SIMD cost
    model the local block is walked in full either way, so both costs are
    reported and comparable."""
    A_h, b, x_true = W.diagonally_dominant_system(64, seed=13)
    metrics: Dict[str, float] = {}
    for layout in ("block", "cyclic"):
        machine = _machine(6)
        A = DistributedMatrix.from_numpy(machine, A_h, layout=layout)
        res = gaussian.solve(A, b)
        assert np.allclose(res.x, x_true, atol=1e-7)
        metrics[f"layout_{layout}"] = res.cost.time
    return metrics


# ---------------------------------------------------------------------------
# R-E1: extension operations (scan, segmented scan, matmul)
# ---------------------------------------------------------------------------

def run_extensions(n_dims: int) -> ExperimentResult:
    """Timings of the extension operations beyond the paper's four.

    Scans share reduce's cost shape (one extra local pass); matmul is K
    accumulated rank-1 updates.  Not part of the paper's evaluation —
    reported for the library's own documentation.
    """
    base = 2 ** max((n_dims // 2), 2)
    sides = [base, base * 2, base * 4]
    rows = []
    metrics: Dict[str, float] = {}
    for side in sides:
        machine = _machine(n_dims)
        A_h = W.dense_matrix(side, side, seed=side)
        A = DistributedMatrix.from_numpy(machine, A_h)
        t_scan = _elapsed(machine, lambda: A.scan(1, "sum")).time
        t_reduce = _elapsed(machine, lambda: A.reduce(1, "sum")).time

        v = DistributedVector.from_numpy(machine, W.dense_vector(side, seed=1))
        flags = DistributedVector(
            v.embedding.scatter(
                np.random.default_rng(side).random(side) < 0.2
            ),
            v.embedding,
        )
        t_segscan = _elapsed(machine, lambda: v.segmented_scan(flags)).time

        K = max(side // 16, 2)
        B = DistributedMatrix.from_numpy(
            machine, W.dense_matrix(side, K, seed=2)
        )
        Ck = DistributedMatrix.from_numpy(
            machine, W.dense_matrix(K, side, seed=3)
        )
        t_matmul = _elapsed(machine, lambda: B @ Ck).time

        rows.append([
            f"{side}x{side}", t_scan, t_reduce, t_segscan,
            f"K={K}", t_matmul,
        ])
        metrics[f"scan_over_reduce_{side}"] = t_scan / t_reduce
        metrics[f"matmul_{side}"] = t_matmul
    table = format_table(
        ["matrix", "scan", "reduce (ref)", "seg-scan (vec)", "inner dim",
         "matmul"],
        rows,
    )
    return ExperimentResult(
        "R-E1_extensions",
        f"Extension-operation timings (simulated ticks), p = 2^{n_dims}",
        table,
        metrics,
    )


# ---------------------------------------------------------------------------
# R-E2: conjugate gradients vs the direct solver
# ---------------------------------------------------------------------------

def _spd_system(n: int, seed: int):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    return A, A @ rng.standard_normal(n)


def run_iterative(n_dims: int, orders: Sequence[int]) -> ExperimentResult:
    """CG vs the direct solver on SPD systems.

    The Connection Machine numerical reports of the paper's era (the FEM
    papers in the same TMC report series) solve their systems with
    conjugate gradients: each iteration is a matvec plus dot products,
    pure primitive compositions.  The direct solver pays n pivot steps.
    """
    rows = []
    for n in orders:
        A_h, b = _spd_system(n, seed=n)
        mc = _machine(n_dims)
        cg = iterative.conjugate_gradient(
            DistributedMatrix.from_numpy(mc, A_h), b, tol=1e-10
        )
        md = _machine(n_dims)
        direct = gaussian.solve(DistributedMatrix.from_numpy(md, A_h), b)
        rows.append([
            n, cg.iterations, cg.cost.time,
            cg.cost.time / max(cg.iterations, 1),
            direct.cost.time,
            direct.cost.time / cg.cost.time,
        ])
    table = format_table(
        ["n", "CG iters", "CG total", "CG/iter", "direct total", "direct/CG"],
        rows,
    )
    return ExperimentResult(
        "R-E2_iterative",
        f"Conjugate gradients vs direct solve on SPD systems, p = 2^{n_dims}",
        table,
        {f"direct_over_cg_{r[0]}": r[-1] for r in rows},
    )


# ---------------------------------------------------------------------------
# R-E3: message-size crossover between plain and pipelined collectives
# ---------------------------------------------------------------------------

def run_pipelining(n_dims: int) -> ExperimentResult:
    """Plain vs pipelined broadcast across message sizes.

    The classic Boolean-cube figure (Johnsson & Ho): the binomial broadcast
    wins for small blocks (fewer start-ups), the pipelined schedule for
    large blocks (k/2 x less volume); the measured crossover must match the
    closed-form break-even volume.
    """
    from repro import comm
    cost = CostModel.cm2()
    k = n_dims
    L_star = comm.broadcast_crossover(cost, k)
    rows = []
    metrics: Dict[str, float] = {"crossover_model": L_star}
    L = 4
    while L <= max(4 * L_star, 64):
        mp = Hypercube(n_dims, cost)
        pv = mp.pvar(np.zeros((mp.p, L)))
        t0 = mp.counters.time
        comm.broadcast(mp, pv)
        plain = mp.counters.time - t0
        t0 = mp.counters.time
        comm.broadcast_pipelined(mp, pv)
        pipe = mp.counters.time - t0
        rows.append([L, plain, pipe, plain / pipe,
                     "pipelined" if pipe < plain else "plain"])
        metrics[f"ratio_L{L}"] = plain / pipe
        L *= 4
    table = format_table(
        ["block L", "plain bcast", "pipelined", "plain/pipe", "winner"],
        rows,
    )
    return ExperimentResult(
        "R-E3_pipelining",
        f"Broadcast: plain vs pipelined vs message size, p = 2^{n_dims}; "
        f"model crossover L* = {L_star:.0f}",
        table,
        metrics,
    )


# ---------------------------------------------------------------------------
# R-E4: the data-parallel kernels (FFT, sort, histogram)
# ---------------------------------------------------------------------------

def run_dataparallel(n_dims: int) -> ExperimentResult:
    """FFT / bitonic sort / histogram timings across problem sizes.

    The companion kernels from the same TMC report series (Johnsson's cube
    FFTs and sorts, the Gerogiannis-Johnsson histogram), all running on
    this library's machine and embeddings.
    """
    from repro.algorithms import fft as Ffft
    from repro.algorithms import histogram as Fhist
    from repro.algorithms.sort import bitonic_sort, sample_sort
    rows = []
    metrics: Dict[str, float] = {}
    base = 4 * 2 ** n_dims
    for N in (base, base * 4, base * 16):
        rng_x = W.dense_vector(N, seed=N)

        mf = _machine(n_dims)
        t_fft = Ffft.fft(mf, rng_x).cost.time

        ms = _machine(n_dims)
        v = DistributedVector.from_numpy(ms, rng_x)
        t_sort = bitonic_sort(v).cost.time

        ms2 = _machine(n_dims)
        v2 = DistributedVector.from_numpy(ms2, rng_x)
        t_ssort = sample_sort(v2).cost.time

        mh = _machine(n_dims)
        vh = DistributedVector.from_numpy(mh, rng_x)
        t_hist = Fhist.histogram(vh, bins=256, value_range=(-4, 4)).cost.time
        mh2 = _machine(n_dims)
        vh2 = DistributedVector.from_numpy(mh2, rng_x)
        t_hist_sp = Fhist.histogram_sparse(
            vh2, bins=256, value_range=(-4, 4)
        ).cost.time

        rows.append([N, N // 2 ** n_dims, t_fft, t_sort, t_ssort,
                     t_hist, t_hist_sp])
        metrics[f"hist_ratio_{N}"] = t_hist / t_hist_sp
        metrics[f"sort_ratio_{N}"] = t_sort / t_ssort
        metrics[f"fft_{N}"] = t_fft
    table = format_table(
        ["N", "N/p", "FFT", "bitonic sort", "sample sort",
         "histogram (dense)", "histogram (sparse)"],
        rows,
    )
    return ExperimentResult(
        "R-E4_dataparallel",
        f"Data-parallel kernels (simulated ticks), p = 2^{n_dims}, 256 bins",
        table,
        metrics,
    )


# ---------------------------------------------------------------------------
# R-A2: cost-model sensitivity of the headline comparison
# ---------------------------------------------------------------------------

def run_sensitivity(n_dims: int) -> ExperimentResult:
    """The primitive-vs-naive speedup under different network regimes.

    The paper's conclusion should not hinge on one parameter choice: the
    tree-vs-serialised gap is a *round-count* effect, so it must survive
    any tau/t_c mix (growing with latency dominance, shrinking — but not
    inverting — when bandwidth dominates).
    """
    side = 2 ** max(n_dims // 2, 2) * 4
    A_h = W.dense_matrix(side, side, seed=21)
    rows = []
    metrics: Dict[str, float] = {}
    presets = [
        ("cm2", CostModel.cm2()),
        ("unit", CostModel.unit()),
        ("latency_bound", CostModel.latency_bound()),
        ("bandwidth_bound", CostModel.bandwidth_bound()),
    ]
    for name, cost in presets:
        mp = Hypercube(n_dims, cost)
        P = DistributedMatrix.from_numpy(mp, A_h)
        t0 = mp.counters.time
        P.reduce(1, "sum")
        P.extract(0, 1)
        prim = mp.counters.time - t0
        mn = Hypercube(n_dims, cost)
        N = NaiveMatrix.from_numpy(mn, A_h)
        t0 = mn.counters.time
        N.reduce(1, "sum")
        N.extract(0, 1)
        naive = mn.counters.time - t0
        rows.append([name, cost.tau, cost.t_c, prim, naive, naive / prim])
        metrics[f"speedup_{name}"] = naive / prim
    table = format_table(
        ["cost model", "tau", "t_c", "primitives", "naive", "naive/prim"],
        rows,
    )
    return ExperimentResult(
        "R-A2_sensitivity",
        f"Primitive-vs-naive gap across network regimes, p = 2^{n_dims}, "
        f"{side}x{side} matrix",
        table,
        metrics,
    )


# ---------------------------------------------------------------------------
# the claims registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """A named predicate over an experiment's metrics."""

    name: str
    holds: Callable[[Dict[str, float]], bool]

    def check(self, metrics: Dict[str, float]) -> bool:
        """Whether the claim holds; missing metrics count as a failure."""
        try:
            return bool(self.holds(metrics))
        except (KeyError, IndexError, ValueError, ZeroDivisionError):
            return False


@dataclass(frozen=True)
class Experiment:
    """One registry entry: a runner, its sizes at each scale, its claims.

    ``small`` and ``paper`` are the runner's keyword arguments at each
    scale.  ``probes`` are stand-alone measurements with no table; their
    metrics join the runner's before the claims read them.
    """

    run: Callable[..., ExperimentResult]
    small: Dict[str, Any]
    paper: Dict[str, Any]
    claims: Tuple[Claim, ...]
    probes: Tuple[Callable[[], Dict[str, float]], ...] = ()

    def evaluate(self, scale: str) -> ExperimentResult:
        result = self.run(**getattr(self, scale))
        for probe in self.probes:
            result.metrics.update(probe())
        return result


def _values(metrics: Dict[str, float], prefix: str) -> List[float]:
    return [v for k, v in metrics.items() if k.startswith(prefix)]


def _sized(metrics: Dict[str, float], prefix: str) -> Dict[int, float]:
    """The ``<prefix><size>`` metrics keyed by integer size, in size order."""
    return dict(sorted(
        (int(k[len(prefix):]), v)
        for k, v in metrics.items() if k.startswith(prefix)
    ))


def _all(values: Sequence[Any], test: Callable[[Any], bool]) -> bool:
    """At least one value, and every value passes ``test``."""
    return bool(values) and all(test(v) for v in values)


def _every(prefix: str,
           test: Callable[[float], bool]) -> Callable[[Dict[str, float]], bool]:
    """Every ``prefix`` metric passes ``test``, and there is one."""
    return lambda m: _all(_values(m, prefix), test)


def _pairwise(values: Sequence[float],
              test: Callable[[float, float], bool]) -> bool:
    """At least two values and ``test`` holds for every consecutive pair."""
    pairs = zip(values, values[1:])
    return len(values) > 1 and all(test(a, b) for a, b in pairs)


def _optimality_split(m: Dict[str, float]) -> Tuple[List[float], List[float]]:
    """R-F1's PT/serial ratios above and below m = p lg p, in size order."""
    ratios = _sized(m, "ratio_at_")
    above = [r for size, r in ratios.items() if size > m["threshold"]]
    below = [r for size, r in ratios.items() if size <= m["threshold"]]
    return above, below


def _scaling(m: Dict[str, float]) -> Tuple[List[int], List[float], List[float]]:
    """R-F4's machine sizes with their fixed-problem and fixed-load times."""
    fixed = _sized(m, "fixed_p")
    ps = list(fixed)
    return ps, list(fixed.values()), [m[f"scaled_p{p}"] for p in ps]


def _fixed_load_sublinear(m: Dict[str, float]) -> bool:
    ps, _, scaled = _scaling(m)
    return scaled[-1] / scaled[0] < ps[-1] / ps[0] / 8


def _pipelining_side(m: Dict[str, float], below: bool) -> List[float]:
    """R-E3's plain/pipelined ratios well below (L < L*/2) or well above
    (L > 2 L*) the model crossover."""
    L_star = m["crossover_model"]
    return [
        r for L, r in _sized(m, "ratio_L").items()
        if (L < L_star / 2 if below else L > L_star * 2)
    ]


REGISTRY: Dict[str, Experiment] = {
    "R-T1": Experiment(
        run_primitives, small=dict(n_dims=8), paper=dict(n_dims=12),
        claims=(
            Claim("reduce equals its closed-form model at every size",
                  lambda m: bool(_sized(m, "reduce_"))
                  and _sized(m, "reduce_") == _sized(m, "model_reduce_")),
        ),
    ),
    "R-T2": Experiment(
        run_matvec, small=dict(n_dims=8), paper=dict(n_dims=12),
        claims=(
            Claim("primitives beat naive at every size",
                  _every("speedup_", lambda v: v > 1.0)),
        ),
    ),
    "R-T3": Experiment(
        run_gaussian,
        small=dict(n_dims=6, orders=[31, 63, 95]),
        paper=dict(n_dims=10, orders=[63, 127, 255, 383]),
        claims=(
            Claim("primitives beat naive by more than 1.5x at every order",
                  _every("speedup_", lambda v: v > 1.5)),
            Claim("PT/serial falls strictly as n grows",
                  lambda m: _pairwise(list(_sized(m, "pt_ratio_").values()),
                                      lambda a, b: b < a)),
        ),
    ),
    "R-T4": Experiment(
        run_simplex,
        small=dict(n_dims=6, shapes=[(8, 6), (16, 12), (24, 18)]),
        paper=dict(n_dims=10, shapes=[(16, 12), (32, 24), (64, 48), (96, 64)]),
        claims=(
            Claim("primitives beat naive on every LP",
                  _every("speedup_", lambda v: v > 1.0)),
        ),
    ),
    "R-F1": Experiment(
        run_optimality, small=dict(n_dims=8), paper=dict(n_dims=10),
        probes=(probe_optimality_in_p,),
        claims=(
            Claim("the sweep straddles m = p lg p",
                  lambda m: all(_optimality_split(m))),
            Claim("beyond the threshold PT/serial never rises",
                  lambda m: _pairwise(_optimality_split(m)[0],
                                      lambda a, b: b <= a)),
            Claim("beyond the threshold PT/serial ends below 5",
                  lambda m: _optimality_split(m)[0][-1] < 5.0),
            Claim("at the smallest m PT/serial is over 20x its final value",
                  lambda m: _optimality_split(m)[1][0]
                  > 20 * _optimality_split(m)[0][-1]),
            Claim("m = 4096 on p = 16 is optimal: PT/serial below 4",
                  lambda m: m["fixed_m_ratio_p16"] < 4.0),
            Claim("the same m on p = 1024 is latency-bound: over 10x p = 16's",
                  lambda m: m["fixed_m_ratio_p1024"]
                  > 10 * m["fixed_m_ratio_p16"]),
        ),
    ),
    "R-F2": Experiment(
        run_speedup,
        small=dict(n_list=[4, 6, 8, 10], side=128),
        paper=dict(n_list=[4, 6, 8, 10, 12, 14], side=256),
        probes=(probe_free_network,),
        claims=(
            Claim("the speedup over naive never falls as p grows",
                  lambda m: _pairwise(list(_sized(m, "speedup_p").values()),
                                      lambda a, b: b >= a)),
            Claim("the largest machine reaches over 8x (almost an order of "
                  "magnitude)",
                  lambda m: list(_sized(m, "speedup_p").values())[-1] > 8.0),
            Claim("with a free network naive costs under 3x the primitives",
                  lambda m: m["free_net_naive"] < 3 * m["free_net_prim"]),
        ),
    ),
    "R-F3": Experiment(
        run_remap, small=dict(n_dims=8), paper=dict(n_dims=10),
        claims=(
            Claim("a relabelling transpose costs under a tenth of a "
                  "same-grid one",
                  lambda m: _all(
                      list(_sized(m, "transpose_relabel_").items()),
                      lambda st: st[1] < m[f"transpose_same_grid_{st[0]}"] / 10,
                  )),
        ),
    ),
    "R-F4": Experiment(
        run_scaling,
        small=dict(n_list=[2, 4, 6, 8, 10], fixed_side=128),
        paper=dict(n_list=[4, 6, 8, 10, 12, 14], fixed_side=512),
        probes=(probe_fixed_load,),
        claims=(
            Claim("strong scaling first improves",
                  lambda m: _scaling(m)[1][1] < _scaling(m)[1][0]),
            Claim("the lg p latency floor stops strong scaling",
                  lambda m: _scaling(m)[1][-1] > 0.5 * _scaling(m)[1][-2]),
            Claim("fixed-load time grows far below linearly in p",
                  _fixed_load_sublinear),
            Claim("16x the processors at 256 elements each costs under 2x",
                  lambda m: m["fixed_load_p256"] < 2 * m["fixed_load_p16"]),
        ),
    ),
    "R-A1": Experiment(
        run_ablation,
        small=dict(n_dims=8, pivot_order=48),
        paper=dict(n_dims=10, pivot_order=96),
        probes=(probe_full_band_walk, probe_layouts),
        claims=(
            Claim("tree collectives beat serialised bands by over 3x",
                  lambda m: m["tree_factor"] > 3.0),
            Claim("gray coding beats binary on the band walk",
                  lambda m: m["bandwalk_binary"] > m["bandwalk_gray"]),
            Claim("an aspect-matched grid split beats a square one by over "
                  "1.5x",
                  lambda m: m["aspect_factor"] > 1.5),
            Claim("implicit pivoting beats explicit row swaps",
                  lambda m: m["pivot_implicit"] < m["pivot_partial"]),
            Claim("gray coding beats binary over every band of 128x128",
                  lambda m: m["full_bandwalk_binary"]
                  > m["full_bandwalk_gray"]),
            Claim("block and cyclic layouts both solve at a positive cost",
                  lambda m: m["layout_block"] > 0 and m["layout_cyclic"] > 0),
        ),
    ),
    "R-A2": Experiment(
        run_sensitivity, small=dict(n_dims=8), paper=dict(n_dims=10),
        claims=(
            Claim("primitives beat naive under every cost model",
                  _every("speedup_", lambda v: v > 1.0)),
            Claim("latency-bound networks widen the gap over bandwidth-bound",
                  lambda m: m["speedup_latency_bound"]
                  > m["speedup_bandwidth_bound"]),
        ),
    ),
    "R-E1": Experiment(
        run_extensions, small=dict(n_dims=8), paper=dict(n_dims=10),
        claims=(
            Claim("a scan costs 0.9-2x the matching reduce at every size",
                  _every("scan_over_reduce_", lambda v: 0.9 < v < 2.0)),
        ),
    ),
    "R-E2": Experiment(
        run_iterative,
        small=dict(n_dims=8, orders=[31, 63, 95]),
        paper=dict(n_dims=8, orders=[31, 63, 95]),
        claims=(
            Claim("CG's advantage (direct/CG) is positive and rises "
                  "strictly with n",
                  lambda m: list(_sized(m, "direct_over_cg_").values())[0] > 0
                  and _pairwise(list(_sized(m, "direct_over_cg_").values()),
                                lambda a, b: b > a)),
        ),
    ),
    "R-E3": Experiment(
        run_pipelining, small=dict(n_dims=8), paper=dict(n_dims=10),
        claims=(
            Claim("plain broadcast wins below half the model crossover",
                  lambda m: _all(_pipelining_side(m, True),
                                 lambda r: r < 1.0)),
            Claim("pipelined broadcast wins above twice the model crossover",
                  lambda m: _all(_pipelining_side(m, False),
                                 lambda r: r > 1.0)),
        ),
    ),
    "R-E4": Experiment(
        run_dataparallel, small=dict(n_dims=6), paper=dict(n_dims=10),
        claims=(
            Claim("the sparse histogram's edge never grows with N",
                  lambda m: list(_sized(m, "hist_ratio_").values())[0]
                  >= list(_sized(m, "hist_ratio_").values())[-1]),
        ),
    ),
}


def replace_block(text: str, exp_id: str, body: str) -> str:
    """``text`` with everything between ``exp_id``'s markers set to ``body``.

    The markers are the lines ``<!-- R-XX begin -->`` and
    ``<!-- R-XX end -->``; each must appear exactly once, in that order,
    or :class:`ValueError` is raised.
    """
    begin = f"<!-- {exp_id} begin -->\n"
    end = f"<!-- {exp_id} end -->"
    if text.count(begin) != 1 or text.count(end) != 1:
        raise ValueError(
            f"EXPERIMENTS.md needs exactly one {begin.strip()!r} and one "
            f"{end!r} marker"
        )
    start = text.index(begin) + len(begin)
    stop = text.index(end)
    if stop < start:
        raise ValueError(f"EXPERIMENTS.md: {end!r} precedes its begin marker")
    return text[:start] + body + text[stop:]


def main() -> int:
    with open(EXPERIMENTS_MD) as fh:
        doc = fh.read()
    checked = failed = 0
    for exp_id, exp in REGISTRY.items():
        for scale in SCALES:
            result = exp.evaluate(scale)
            if scale == "small":
                result.write()
            else:
                doc = replace_block(doc, exp_id, f"```\n{result.table}\n```\n")
            for claim in exp.claims:
                ok = claim.check(result.metrics)
                checked += 1
                failed += not ok
                status = "ok  " if ok else "FAIL"
                line = f"{status}  {exp_id}  {scale:<5s}  {claim.name}"
                if not ok:
                    line += f"  {result.metrics}"
                print(line)
    with open(EXPERIMENTS_MD, "w") as fh:
        fh.write(doc)
    print(f"{checked} claim checks, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
