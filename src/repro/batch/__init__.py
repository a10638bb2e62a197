"""Batched simulation hypervisor: N independent runs as one computation.

The simulator's inner loops are NumPy passes over ``(p, *local)`` arrays;
for small problems the per-primitive Python overhead dominates the array
work.  This package amortises that overhead by stacking ``N`` independent
simulations along a trailing *run axis* — every PVar becomes
``(p, *local, N)``, every charge lands in per-lane counter vectors — and
executing the whole batch as one instruction stream.

The correctness contract is strict: every lane of a batched run is
**bit-identical** (results, simulated ticks, all counters) to the same
run executed alone on the scalar path.  The scalar path itself never
imports this package; a machine with ``n_runs is None`` pays one
attribute read per charge site and nothing else.

Entry points:

* :class:`BatchSession` — the :class:`repro.Session` surface over a
  :class:`BatchHypercube`; host arrays carry the run axis *first*
  (``(n_runs, ...)``).
* :func:`sweep` — run a parameter grid, stacking compatible
  configurations into batched sessions and falling back to scalar
  sessions (or :func:`repro.faults.run_resilient`) for the rest.

There are no batched copies of the applications: Gaussian elimination,
the simplex method and matvec (:mod:`repro.algorithms`) run unchanged on
a :class:`BatchHypercube`, one problem per lane.  Lanes diverge in
control flow (pivot choices, termination) through *lane-masked
execution*: :meth:`BatchHypercube.lanes` restricts charging to a boolean
lane mask, and :mod:`repro.batch.lanewise` provides per-lane
extract/insert/read primitives whose charge sequences match the scalar
primitives exactly, plus the :class:`~repro.batch.lanewise.Lanes` hook
through which the applications reach them.
"""

from .counters import LaneCounters
from .machine import BatchHypercube
from .session import BatchSession
from .sweep import sweep

__all__ = [
    "BatchHypercube",
    "BatchSession",
    "LaneCounters",
    "sweep",
]
