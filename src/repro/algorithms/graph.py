"""Graph workloads on the sparse semiring primitives (GraphBLAS style).

Per the "Standards for Graph Algorithm Primitives" formulation, each
algorithm is a short loop of semiring :func:`~repro.sparse.primitives.spmv`
calls over the graph's adjacency matrix:

* :func:`bfs` — level-synchronous breadth-first search: the frontier is a
  Boolean vector, one ``or_and`` spmv per level;
* :func:`sssp` — Bellman-Ford single-source shortest paths: one
  ``min_plus`` spmv per relaxation round;
* :func:`connected_components` — min-label propagation: ``min_plus`` spmv
  over the 0-weight pattern matrix, labels initialized to vertex ids.

All data is integer (or Boolean), so every result is exact and
bit-comparable against the pure-NumPy references below and the NetworkX
oracle cells.  Distances use ``INT_INF`` (the int64 maximum — the
``min_plus`` zero) as the unreachable sentinel internally and report ``-1``;
the annihilator shortcut in ``spmv`` masks absent entries instead of
multiplying through them, so the sentinel never enters arithmetic.

Convergence is detected honestly: each iteration reduces a per-processor
"anything changed" flag with :func:`~repro.comm.collectives.reduce_all` and
reads one scalar back to the front end — the same charged pattern the dense
iterative solvers use.

This module imports :mod:`repro.sparse` lazily (inside the functions), so
merely importing :mod:`repro.algorithms` keeps dense runs sparse-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..comm.collectives import reduce_all
from ..errors import ConfigError
from ..machine.counters import CostSnapshot
from ..workloads import GraphInstance

#: The int64 "infinity": the ``min_plus`` semiring's zero for int64.
INT_INF = np.int64(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class GraphResult:
    """Per-vertex result values plus iteration and cost accounting."""

    values: np.ndarray
    iterations: int
    cost: CostSnapshot


def _check_source(graph: GraphInstance, source: int) -> None:
    if not (0 <= source < graph.n):
        raise ConfigError(
            f"source vertex {source} out of range for {graph.n} vertices"
        )


def _any_flag(machine, embedding, values: np.ndarray) -> bool:
    """Global "any rank holds a truthy entry" — charged like the solvers.

    One local reduction pass per rank (lockstep, max segment volume), a
    ``lg p``-round Boolean all-reduce, and one front-end scalar read.
    """
    flags = np.zeros(machine.p, dtype=bool)
    ranks = embedding.rank_of(np.flatnonzero(values))
    flags[embedding.pid_of_rank(ranks)] = True
    machine.charge_flops(embedding.max_count)
    out = reduce_all(machine, machine.pvar(flags), "any")
    return bool(machine.read_scalar(out))


def bfs(session: Any, graph: GraphInstance, source: int) -> GraphResult:
    """Level-synchronous BFS; returns per-vertex levels (-1 = unreachable)."""
    from ..sparse import SparseMatrix, SparseVector, spmv

    _check_source(graph, source)
    machine = session.machine
    n = graph.n
    start = machine.snapshot()
    with machine.phase("bfs"):
        A = SparseMatrix.from_coo(
            machine,
            graph.rows,
            graph.cols,
            np.ones(graph.rows.size, dtype=bool),
            (n, n),
        )
        emb = A.embedding
        seed = np.zeros(n, dtype=bool)
        seed[source] = True
        frontier = SparseVector.from_numpy(
            machine, seed, fill=False, embedding=emb
        )
        visited = frontier.copy()
        levels = SparseVector.from_numpy(
            machine,
            np.where(seed, np.int64(0), np.int64(-1)),
            fill=np.int64(-1),
            embedding=emb,
        )
        depth = 0
        iterations = 0
        while depth <= n:
            reached = spmv(A, frontier, "or_and")
            new = reached.elementwise(
                visited, lambda a, b: a & ~b, fill=False
            )
            iterations += 1
            depth += 1
            if not _any_flag(machine, emb, new.values):
                break
            levels = levels.elementwise(
                new,
                lambda lvl, m, d=depth: np.where(m, np.int64(d), lvl),
                fill=np.int64(-1),
            )
            visited = visited.elementwise(new, np.logical_or, fill=False)
            frontier = new
        values = levels.to_numpy()
    return GraphResult(values, iterations, machine.elapsed_since(start))


def _min_plus_fixpoint(
    session: Any,
    graph: GraphInstance,
    edge_values: np.ndarray,
    init: np.ndarray,
    phase: str,
) -> GraphResult:
    """Iterate ``x = min(x, A min.+ x)`` to a fixpoint (≤ n rounds)."""
    from ..sparse import SparseMatrix, SparseVector, spmv

    machine = session.machine
    n = graph.n
    start = machine.snapshot()
    with machine.phase(phase):
        A = SparseMatrix.from_coo(
            machine, graph.rows, graph.cols, edge_values, (n, n)
        )
        emb = A.embedding
        state = SparseVector.from_numpy(
            machine, init, fill=INT_INF, embedding=emb
        )
        iterations = 0
        for _ in range(n):
            cand = spmv(A, state, "min_plus")
            new = state.elementwise(cand, np.minimum, fill=INT_INF)
            iterations += 1
            machine.charge_flops(emb.max_count)  # the != comparison pass
            changed = new.values != state.values
            state = new
            if not _any_flag(machine, emb, changed):
                break
        values = state.to_numpy()
    return GraphResult(values, iterations, machine.elapsed_since(start))


def sssp(session: Any, graph: GraphInstance, source: int) -> GraphResult:
    """Bellman-Ford distances; exact int64, -1 for unreachable vertices."""
    _check_source(graph, source)
    init = np.full(graph.n, INT_INF, dtype=np.int64)
    init[source] = 0
    res = _min_plus_fixpoint(
        session, graph, graph.weights.astype(np.int64), init, "sssp"
    )
    values = np.where(res.values == INT_INF, np.int64(-1), res.values)
    return GraphResult(values, res.iterations, res.cost)


def connected_components(session: Any, graph: GraphInstance) -> GraphResult:
    """Min-label propagation; each vertex gets its component's least id."""
    init = np.arange(graph.n, dtype=np.int64)
    zero_weights = np.zeros(graph.rows.size, dtype=np.int64)
    return _min_plus_fixpoint(session, graph, zero_weights, init, "cc")


# -- pure-NumPy references (no scipy/NetworkX) ---------------------------------


def bfs_reference(graph: GraphInstance, source: int) -> np.ndarray:
    """Serial BFS levels over the COO arc list; -1 for unreachable."""
    _check_source(graph, source)
    levels = np.full(graph.n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.zeros(graph.n, dtype=bool)
    frontier[source] = True
    depth = 0
    while frontier.any():
        depth += 1
        sel = frontier[graph.rows]
        reach = np.zeros(graph.n, dtype=bool)
        reach[graph.cols[sel]] = True
        new = reach & (levels < 0)
        levels[new] = depth
        frontier = new
    return levels


def sssp_reference(graph: GraphInstance, source: int) -> np.ndarray:
    """Serial Bellman-Ford over the arc list; -1 for unreachable."""
    _check_source(graph, source)
    dist = np.full(graph.n, INT_INF, dtype=np.int64)
    dist[source] = 0
    for _ in range(graph.n):
        sel = dist[graph.rows] != INT_INF
        cand = np.full(graph.n, INT_INF, dtype=np.int64)
        np.minimum.at(
            cand,
            graph.cols[sel],
            dist[graph.rows[sel]] + graph.weights[sel],
        )
        new = np.minimum(dist, cand)
        if np.array_equal(new, dist):
            break
        dist = new
    return np.where(dist == INT_INF, np.int64(-1), dist)


def cc_reference(graph: GraphInstance) -> np.ndarray:
    """Serial min-label propagation; least vertex id per component."""
    labels = np.arange(graph.n, dtype=np.int64)
    while True:
        cand = np.full(graph.n, INT_INF, dtype=np.int64)
        np.minimum.at(cand, graph.cols, labels[graph.rows])
        new = np.minimum(labels, cand)
        if np.array_equal(new, labels):
            return labels
        labels = new


# -- resilient-runner workload factory ------------------------------------------


def bfs_workload(
    graph: GraphInstance, source: int = 0
) -> Callable[[Any, Any], np.ndarray]:
    """BFS as a :func:`~repro.faults.recovery.run_resilient` workload.

    Like the matvec workload, a single traversal is cheap to redo and
    deterministic, so recovery restarts from scratch on the survivor
    subcube; integer levels make the recovered result bit-identical to
    fault-free.
    """

    def run(session: Any, store: Any) -> np.ndarray:
        store.restore()
        return bfs(session, graph, source).values

    return run


__all__ = [
    "GraphResult",
    "INT_INF",
    "bfs",
    "bfs_reference",
    "bfs_workload",
    "cc_reference",
    "connected_components",
    "sssp",
    "sssp_reference",
]
