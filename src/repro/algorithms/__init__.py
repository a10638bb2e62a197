"""The paper's three applications, baselines, and the extension family.

The paper's evaluation targets:

* :mod:`~repro.algorithms.matvec` — vector-matrix multiply (application 1);
* :mod:`~repro.algorithms.gaussian` — Gaussian elimination with partial /
  implicit / no pivoting, multi-RHS solves, inversion, determinants,
  Gauss-Jordan (application 2);
* :mod:`~repro.algorithms.simplex` — two-phase dense simplex with duals
  (application 3);
* :mod:`~repro.algorithms.naive` — the paper's "naive implementation"
  baseline (serialised communication, same algorithm text);
* :mod:`~repro.algorithms.serial` — best-serial references with operation
  counts for the optimality audit;
* :mod:`~repro.algorithms.lanes` — the hook through which the three
  applications also run, unchanged, on a batched machine.

Extensions from the same TMC report family, on the same machinery:

* :mod:`~repro.algorithms.triangular` — triangular sweeps and replayable LU;
* :mod:`~repro.algorithms.qr` — Householder QR and least squares;
* :mod:`~repro.algorithms.iterative` — (preconditioned) CG, GMRES,
  Jacobi, power method;
* :mod:`~repro.algorithms.fft` — distributed radix-2 FFT and convolution;
* :mod:`~repro.algorithms.sort` — combined sequential/bitonic cube sort;
* :mod:`~repro.algorithms.histogram` — dense vs sparse all-to-all histograms;
* :mod:`~repro.algorithms.tridiagonal` — substructuring + parallel cyclic
  reduction (the Johnsson-Ho ADI substrate);
* :mod:`~repro.algorithms.graph` — BFS / SSSP / connected components on
  the semiring sparse primitives (loaded lazily: it pulls in
  :mod:`repro.sparse`, which dense runs must never import).
"""

from . import (
    fft,
    gaussian,
    histogram,
    iterative,
    matvec,
    naive,
    qr,
    serial,
    simplex,
    sort,
    triangular,
    tridiagonal,
)
from .gaussian import GaussianResult, SingularMatrixError
from .iterative import IterativeResult
from .matvec import MatvecResult
from .naive import NaiveMatrix, NaiveVector
from .qr import QRFactorization
from .simplex import SimplexResult
from .triangular import LUFactorization


def __getattr__(name: str):
    # ``graph`` loads the sparse subsystem, so it is resolved on first
    # access instead of at package import (dense runs stay sparse-free).
    if name == "graph":
        import importlib

        return importlib.import_module(".graph", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "graph",
    "fft",
    "gaussian",
    "histogram",
    "iterative",
    "matvec",
    "naive",
    "qr",
    "serial",
    "simplex",
    "sort",
    "triangular",
    "tridiagonal",
    "GaussianResult",
    "SingularMatrixError",
    "IterativeResult",
    "MatvecResult",
    "NaiveMatrix",
    "NaiveVector",
    "QRFactorization",
    "SimplexResult",
    "LUFactorization",
]
