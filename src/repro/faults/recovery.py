"""Degraded-mode recovery: healthy-subcube search and the resilient runner.

When a :class:`~repro.errors.NodeKilledError` surfaces, the session remaps
onto the **largest healthy subcube** — a subcube of the faulted machine in
which every processor and every internal link is alive.  Subcubes are the
natural recovery unit here because every embedding in this library is
defined on a ``2**m``-processor cube: the checkpointed arrays re-embed on
the survivor with the *same* Gray-code machinery, just one (or more)
dimensions smaller.

:func:`run_resilient` is the driver loop::

    report = run_resilient(session, gaussian_workload(A, b))
    assert report.recovered
    x = report.result

A *workload* is any callable ``workload(session, store)`` that (1) calls
``store.restore()`` first and resumes from the returned checkpoint when
there is one, (2) saves checkpoints periodically via ``store.save``, and
(3) returns its final result.  On :class:`NodeKilledError` the runner
degrades the session (checkpoint → subcube remap → injector translation)
and calls the workload again; determinism of the simulator makes the
recovered numerical result identical to the fault-free one (pinned by
``tests/test_fault_recovery.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..embeddings.gray import deposit_bits
from ..errors import (
    ConfigError,
    CorruptionError,
    FaultError,
    NodeKilledError,
    UnroutableError,
)
from .checkpoint import CheckpointStore
from .injector import FaultStats
from .strategies import PromotionPending


def largest_healthy_subcube(machine: Any) -> Tuple[Tuple[int, ...], int]:
    """The largest subcube with all nodes and internal links alive.

    Returns ``(free_dims, base)``: the parent dimensions the subcube keeps
    (ascending) and the fixed parent address bits selecting it.  Ties are
    broken deterministically — fewest fixed dimensions first, then
    lexicographically smallest fixed-dimension set, then smallest ``base``.
    Raises :class:`FaultError` when not even a single processor is healthy.
    """
    n = machine.n
    pids = np.arange(machine.p, dtype=np.int64)
    for n_fixed in range(n + 1):
        for fixed in itertools.combinations(range(n), n_fixed):
            free_dims = tuple(d for d in range(n) if d not in fixed)
            fixed_mask = deposit_bits(-1, fixed)
            for combo in range(1 << n_fixed):
                base = deposit_bits(combo, fixed)
                members = pids[(pids & fixed_mask) == base]
                if machine.node_ok is not None and not machine.node_ok[
                    members
                ].all():
                    continue
                if machine.link_ok is not None and any(
                    not machine.link_ok[d, members].all() for d in free_dims
                ):
                    continue
                return free_dims, base
    raise FaultError(
        f"no healthy subcube exists on the {machine.p}-processor machine "
        f"(epoch {machine.epoch})"
    )


def subcube_members(free_dims: Sequence[int], base: int) -> np.ndarray:
    """Parent pids of the subcube, indexed by subcube pid (Gray-free order)."""
    ranks = np.arange(1 << len(free_dims), dtype=np.int64)
    return base | deposit_bits(ranks, free_dims)


@dataclass
class RecoveryReport:
    """What one resilient run did."""

    result: Any
    recovered: bool
    recoveries: int
    stats: FaultStats
    final_p: int
    error: Optional[str] = None
    promotions: int = 0
    checkpoint: Optional[dict] = None

    def as_dict(self) -> dict:
        data = {
            "recovered": self.recovered,
            "recoveries": self.recoveries,
            "final_p": self.final_p,
            "stats": self.stats.as_dict(),
            "promotions": self.promotions,
        }
        if self.checkpoint is not None:
            data["checkpoint"] = dict(self.checkpoint)
        if self.error is not None:
            data["error"] = self.error
        return data


def run_resilient(
    session: Any,
    workload: Callable[[Any, CheckpointStore], Any],
    max_recoveries: int = 2,
    store: Optional[CheckpointStore] = None,
    policy: Optional[Any] = None,
    max_promotions: int = 2,
) -> RecoveryReport:
    """Run ``workload`` to completion, degrading past node kills.

    Catches :class:`NodeKilledError` (and :class:`UnroutableError`), remaps
    the session onto the largest healthy subcube and re-runs the workload —
    which resumes from its last checkpoint — at most ``max_recoveries``
    times.  :class:`CorruptionError` (uncorrectable silent data corruption,
    raised by the ABFT layer) also triggers a replay, but on the *same*
    machine: the topology is healthy, only data was lost, so the workload
    re-runs from its last checkpoint with a cleared checksum registry.

    ``policy`` selects the checkpoint strategy (a
    :class:`~repro.faults.strategies.CheckpointPolicy` or a strategy
    name); it defaults to the session's ``checkpoint=`` setting.  When
    healed hardware makes a strictly larger cube available, the store
    raises :class:`~repro.faults.strategies.PromotionPending` right after
    a checkpoint commits and the runner *promotes* the session
    (``Session.promote``), re-running the workload — which re-scatters
    from that checkpoint onto the bigger machine.  Promotions don't count
    against ``max_recoveries``; at most ``max_promotions`` are attempted.
    Never raises for fault-related failures; inspect ``report.recovered``
    / ``report.error``.
    """
    if store is None:
        store = CheckpointStore(session, policy=policy)
    elif policy is not None:
        raise ConfigError(
            "pass the checkpoint policy via the store when store= is given"
        )
    recoveries = 0
    promotions = 0
    error: Optional[str] = None
    while True:
        injector = session.machine.faults
        stats = injector.stats if injector is not None else FaultStats()
        try:
            result = workload(session, store)
            return RecoveryReport(
                result=result,
                recovered=True,
                recoveries=recoveries,
                stats=stats,
                final_p=session.machine.p,
                promotions=promotions,
                checkpoint=store.summary(),
            )
        except PromotionPending:
            # A checkpoint just landed and healed hardware offers a larger
            # cube.  Promotion failure is non-fatal: the checkpoint is
            # already committed, so the run simply continues on the
            # current subcube with further promotion checks disabled.
            if promotions >= max_promotions:
                if session._expansion is not None:
                    session._expansion.enabled = False
                continue
            try:
                session.promote()
            except FaultError:
                if session._expansion is not None:
                    session._expansion.enabled = False
                continue
            promotions += 1
            continue
        except CorruptionError as exc:
            # Uncorrectable corruption: the machine is healthy, so no
            # degrade — clear the stale checksum registry and replay the
            # workload from its last checkpoint.
            error = str(exc)
            if recoveries >= max_recoveries:
                break
            recoveries += 1
            machine = session.machine
            if machine.faults is not None:
                machine.faults.stats.recoveries += 1
            machine.counters.abft_recomputed += 1
            if machine.abft is not None:
                machine.abft.reset()
        except (NodeKilledError, UnroutableError) as exc:
            error = str(exc)
            if recoveries >= max_recoveries:
                break
            try:
                session.degrade()
            except FaultError as degrade_exc:
                error = str(degrade_exc)
                break
            recoveries += 1
            injector = session.machine.faults
            if injector is not None:
                injector.stats.recoveries += 1
    injector = session.machine.faults
    stats = injector.stats if injector is not None else FaultStats()
    return RecoveryReport(
        result=None,
        recovered=False,
        recoveries=recoveries,
        stats=stats,
        final_p=session.machine.p,
        error=error,
        promotions=promotions,
        checkpoint=store.summary(),
    )


# -- ready-made workloads ------------------------------------------------------


def gaussian_workload(
    A: np.ndarray,
    b: np.ndarray,
    pivoting: str = "partial",
    tol: float = 1e-12,
    checkpoint_every: int = 4,
) -> Callable[[Any, CheckpointStore], np.ndarray]:
    """Solve ``A x = b``, checkpointing the tableau every few pivot steps.

    Gaussian elimination carries real mid-solve state (the partially
    eliminated tableau and the pivot history), so recovery resumes from
    the last checkpointed elimination step rather than restarting.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = A.shape[0]

    def run(session: Any, store: CheckpointStore) -> np.ndarray:
        from ..algorithms import gaussian

        ck = store.restore()
        if ck is None:
            T = session.matrix(np.hstack([A, b[:, None]]))
            start, pivots, pivot_values = 0, None, None
        else:
            T = session.matrix(ck.array("tableau"))
            start = int(ck.state["step"])
            pivots = list(ck.state["pivots"])
            pivot_values = list(ck.state["pivot_values"])

        def on_step(k, T_cur, pivots_cur, pivot_values_cur):
            if k < n and k % checkpoint_every == 0:
                store.save(
                    "gaussian",
                    {"tableau": T_cur},
                    state={
                        "step": k,
                        "pivots": tuple(pivots_cur),
                        "pivot_values": tuple(pivot_values_cur),
                    },
                    step=k,
                )

        machine = session.machine
        with machine.phase("gaussian"):
            elim = gaussian.eliminate(
                T,
                pivoting=pivoting,
                tol=tol,
                start=start,
                pivots=pivots,
                pivot_values=pivot_values,
                on_step=on_step,
            )
            return gaussian.back_substitute(elim, tol=tol)

    return run


def simplex_workload(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    rule: str = "dantzig",
    tol: float = 1e-9,
) -> Callable[[Any, CheckpointStore], np.ndarray]:
    """Solve the LP ``max c·x, A x <= b, x >= 0``; recovery restarts.

    The simplex tableau is cheap to rebuild and the solve deterministic,
    so the workload checkpoints only its inputs and re-runs from scratch
    on the survivor subcube — the result is bit-identical either way.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)

    def run(session: Any, store: CheckpointStore) -> np.ndarray:
        from ..algorithms import simplex

        store.restore()
        result = simplex.solve(session.machine, A, b, c, rule=rule, tol=tol)
        return result.x

    return run


def matvec_workload(
    A: np.ndarray, x: np.ndarray, reps: int = 4
) -> Callable[[Any, CheckpointStore], np.ndarray]:
    """Repeated ``y = A x`` (an iterative-solver stand-in); restarts."""
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)

    def run(session: Any, store: CheckpointStore) -> np.ndarray:
        store.restore()
        dA = session.matrix(A)
        y = x
        for _ in range(reps):
            vec = session.row_vector(y, dA)
            y = dA.matvec(vec).to_numpy()
        return y

    return run


#: The seeded problems :func:`build_workload` knows.
WORKLOADS = ("gaussian", "simplex", "matvec", "bfs")


def build_workload(
    workload: str, size: int, prob_seed: int, checkpoint_every: int = 4
) -> Callable[[], Callable[[Any, CheckpointStore], Any]]:
    """A seeded factory of fresh resilient workloads on integer data.

    Shared by the ``repro faults`` and ``repro abft`` commands, chaos
    campaigns and the warehouse resilience runner.  Integer data keeps
    sum-reductions exact, so faulted results compare bit-for-bit against
    the fault-free baseline even after a subcube remap.
    ``checkpoint_every`` only affects the gaussian workload (the others
    restart rather than resume) and never changes the numerical result.
    """
    rng = np.random.default_rng(prob_seed)
    if workload == "gaussian":
        A = rng.integers(-4, 5, size=(size, size)).astype(np.float64)
        A += size * np.eye(size)
        b = rng.integers(-4, 5, size=size).astype(np.float64)
        return lambda: gaussian_workload(A, b, checkpoint_every=checkpoint_every)
    if workload == "simplex":
        from .. import workloads as W

        lp = W.feasible_lp(size, size, seed=prob_seed)
        return lambda: simplex_workload(lp.A, lp.b, lp.c)
    if workload == "matvec":
        A = rng.integers(-3, 4, size=(size, size)).astype(np.float64)
        x = rng.integers(-3, 4, size=size).astype(np.float64)
        return lambda: matvec_workload(A, x)
    if workload == "bfs":
        # size doubles as the vertex count; integer levels make the
        # recovered traversal bit-identical to the fault-free baseline.
        from .. import workloads as W
        from ..algorithms.graph import bfs_workload

        g = W.random_graph(size, 3.0, seed=prob_seed)
        return lambda: bfs_workload(g, 0)
    raise ConfigError(
        f"unknown chaos workload {workload!r}; choose from {WORKLOADS}"
    )


__all__ = [
    "largest_healthy_subcube",
    "subcube_members",
    "RecoveryReport",
    "run_resilient",
    "gaussian_workload",
    "simplex_workload",
    "matvec_workload",
    "WORKLOADS",
    "build_workload",
]
