"""Application 1: vector-matrix multiply (paper §applications).

The three-primitive recipe: *distribute* the vector across the matrix's
other axis, multiply elementwise, *reduce* back to a vector.  With the
vector already aligned the whole product costs one ``m/p`` local multiply
pass plus one ``lg``-round reduce — which is why this application shows the
primitives off.

These functions accept either a :class:`~repro.core.arrays.DistributedMatrix`
or the naive-baseline subclass; the algorithm text is identical, only the
primitive implementations differ.  Every step is uniform across lanes, so
they also run unchanged on a batched machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.counters import CostSnapshot
from ..core.arrays import DistributedMatrix, DistributedVector


@dataclass(frozen=True)
class MatvecResult:
    """Product vector plus the simulated cost of producing it."""

    y: DistributedVector
    cost: CostSnapshot

    def lane_cost(self, k: int) -> CostSnapshot:
        """Lane ``k``'s cost of a batched product."""
        return self.cost.lane(k)


def matvec(A: DistributedMatrix, x: DistributedVector) -> MatvecResult:
    """``y = A @ x`` (x of length C, result of length R)."""
    machine = A.machine
    start = machine.snapshot()
    with machine.phase("matvec"):
        y = A.matvec(x)
    return MatvecResult(y, machine.elapsed_since(start))


def vecmat(x: DistributedVector, A: DistributedMatrix) -> MatvecResult:
    """``y = x @ A`` — the paper's vector-matrix multiply (x of length R)."""
    machine = A.machine
    start = machine.snapshot()
    with machine.phase("vecmat"):
        y = A.vecmat(x)
    return MatvecResult(y, machine.elapsed_since(start))
