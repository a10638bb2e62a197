"""Session facade for batched simulation.

:class:`BatchSession` mirrors the :class:`repro.Session` surface over a
:class:`~.machine.BatchHypercube`.  Host arrays carry the run axis
*first* (``(n_runs, ...)``, the natural "list of problems" layout); the
facade moves it to the internal trailing position at the embedding
boundary::

    from repro.batch import BatchSession

    s = BatchSession(n_dims=6, n_runs=16)
    A = s.matrix(np.random.rand(16, 32, 32))   # 16 stacked 32x32 systems
    x = s.vector(np.random.rand(16, 32))
    print(s.lane_report(3))                    # lane 3's accounting

Subsystems that audit or perturb a single simulated machine — tracing,
fault injection, the sanitizer, ABFT checksums — are rejected here; use
:func:`repro.batch.sweep`, which routes such configurations to scalar
sessions automatically.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..errors import ConfigError, ShapeError
from ..machine.cost_model import CostModel, resolve_cost_model
from ..machine.counters import CostSnapshot
from ..core.arrays import DistributedMatrix, DistributedVector
from ..embeddings.matrix import MatrixEmbedding
from ..embeddings.vector import (
    ColAlignedEmbedding,
    RowAlignedEmbedding,
    VectorOrderEmbedding,
)
from .machine import BatchHypercube


class BatchSession:
    """A batched simulated machine plus convenience factories."""

    def __init__(
        self,
        n_dims: int,
        n_runs: int,
        cost_model: Optional[Union[CostModel, str]] = None,
        plan_cache: Optional[bool] = None,
        trace: Optional[object] = None,
        faults: Optional[object] = None,
        sanitize: Optional[object] = None,
        abft: Optional[object] = None,
    ) -> None:
        for name, value in (
            ("trace", trace),
            ("faults", faults),
            ("sanitize", sanitize),
            ("abft", abft),
        ):
            if value:
                raise ConfigError(
                    f"{name} is not supported on a BatchSession; lanes are "
                    "bit-identical to scalar runs, so attach it to a scalar "
                    "Session instead (repro.batch.sweep does this "
                    "automatically)"
                )
        self.machine = BatchHypercube(
            n_dims,
            n_runs,
            resolve_cost_model(cost_model),
            plan_cache=plan_cache,
        )

    @property
    def n_runs(self) -> int:
        return self.machine.n_runs

    # -- array factories -----------------------------------------------------

    def _host_image(self, data: np.ndarray, kind: str, ndim: int) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != ndim or data.shape[0] != self.n_runs:
            want = "(n_runs, R, C)" if ndim == 3 else "(n_runs, L)"
            raise ShapeError(
                f"batched {kind} must have shape {want} with "
                f"n_runs={self.n_runs}, got {data.shape}"
            )
        # Internal convention: the run axis rides last, past the matrix /
        # vector axes, so embeddings broadcast over it as a local dim.
        return np.ascontiguousarray(np.moveaxis(data, 0, -1))

    def matrix(
        self,
        data: np.ndarray,
        layout: str = "block",
        embedding: Optional[MatrixEmbedding] = None,
    ) -> DistributedMatrix:
        """Embed ``n_runs`` stacked host matrices of shape ``(n_runs, R, C)``."""
        host = self._host_image(data, "matrix", 3)
        if embedding is None:
            embedding = MatrixEmbedding.default(
                self.machine, host.shape[0], host.shape[1], layout=layout
            )
        return DistributedMatrix(embedding.scatter(host), embedding)

    def vector(self, data: np.ndarray, layout: str = "block") -> DistributedVector:
        """Embed ``n_runs`` stacked host vectors of shape ``(n_runs, L)``."""
        host = self._host_image(data, "vector", 2)
        embedding = VectorOrderEmbedding(self.machine, host.shape[0], layout)
        return DistributedVector(embedding.scatter(host), embedding)

    def row_vector(
        self, data: np.ndarray, like: DistributedMatrix
    ) -> DistributedVector:
        """Embed stacked host vectors row-aligned (replicated) with ``like``."""
        host = self._host_image(data, "vector", 2)
        emb = RowAlignedEmbedding(like.embedding, None)
        return DistributedVector(emb.scatter(host), emb)

    def col_vector(
        self, data: np.ndarray, like: DistributedMatrix
    ) -> DistributedVector:
        """Embed stacked host vectors column-aligned (replicated) with ``like``."""
        host = self._host_image(data, "vector", 2)
        emb = ColAlignedEmbedding(like.embedding, None)
        return DistributedVector(emb.scatter(host), emb)

    # -- host readback -------------------------------------------------------

    def to_host(self, array) -> np.ndarray:
        """Gather a distributed array with the run axis moved back to front."""
        host = array.to_numpy()
        return np.ascontiguousarray(np.moveaxis(host, -1, 0))

    # -- accounting ----------------------------------------------------------

    @property
    def time(self) -> np.ndarray:
        """Per-lane simulated time so far: an ``(n_runs,)`` array of ticks."""
        return self.machine.counters.time.copy()

    def snapshot(self) -> CostSnapshot:
        """Vector-valued snapshot (fields are ``(n_runs,)`` arrays)."""
        return self.machine.snapshot()

    def lane_snapshot(self, lane: int) -> CostSnapshot:
        """One lane's totals as an ordinary scalar snapshot."""
        return self.machine.snapshot().lane(lane)

    def reset_counters(self) -> None:
        self.machine.counters.reset()

    def lane_report(self, lane: int) -> str:
        """Human-readable accounting summary for one lane."""
        c = self.machine.counters
        snap = c.snapshot().lane(lane)
        lines = [
            f"simulated machine : p={self.machine.p} (n={self.machine.n}), "
            f"lane {lane}/{self.n_runs}, cost model {self.machine.cost_model}",
            f"simulated time    : {snap.time:.1f} ticks",
            f"flops             : {snap.flops:.0f}",
            f"elements moved    : {snap.elements_transferred:.0f}",
            f"comm rounds       : {snap.comm_rounds}",
            f"local moves       : {snap.local_moves:.0f}",
        ]
        breakdown = sorted(
            c.lane_phase_times(lane).items(), key=lambda kv: -kv[1]
        )
        if breakdown:
            lines.append("phase breakdown:")
            for name, t in breakdown:
                share = 100.0 * t / snap.time if snap.time else 0.0
                lines.append(f"  {name:<24s} {t:>14.1f}  ({share:5.1f}%)")
        return "\n".join(lines)

    def report_data(self) -> dict:
        """Per-lane accounting as a JSON-serialisable dict."""
        c = self.machine.counters
        return {
            "p": self.machine.p,
            "n": self.machine.n,
            "n_runs": self.n_runs,
            "cost_model": str(self.machine.cost_model),
            "time": c.time.tolist(),
            "flops": c.flops.tolist(),
            "elements_transferred": c.elements_transferred.tolist(),
            "comm_rounds": c.comm_rounds.tolist(),
            "local_moves": c.local_moves.tolist(),
        }

    def __repr__(self) -> str:
        return (
            f"BatchSession(p={self.machine.p}, n_runs={self.n_runs}, "
            f"time=[{float(self.machine.counters.time.min()):.1f}, "
            f"{float(self.machine.counters.time.max()):.1f}])"
        )
