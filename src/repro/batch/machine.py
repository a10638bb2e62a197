"""The batched hypercube: one machine, ``n_runs`` stacked simulations.

:class:`BatchHypercube` is a :class:`~repro.machine.hypercube.Hypercube`
whose every PVar carries a trailing run axis of extent ``n_runs`` and
whose counters are per-lane vectors (:class:`~.counters.LaneCounters`).
All collectives, primitives, embeddings and remaps are run-axis generic —
they broadcast over trailing local dimensions — so the same algorithm
text executes all lanes in lock-step.

Control-flow divergence between lanes (different pivots, different
termination steps) is handled by :meth:`lanes`: inside the context every
charge lands only on the active lanes, modelling each lane's own
simulated clock.  The data of inactive lanes is the caller's business —
the lane-masked write primitives in :mod:`.lanewise` leave it untouched.

A batch machine takes no attachment.  The tracer, sanitizer, ABFT and
fault injection audit *scalar* machines, and :func:`repro.batch.sweep`
routes configurations that need them to scalar sessions instead; the
metrics registry's counted report would read vector-valued lane
counters, and :meth:`~repro.batch.session.BatchSession.report_data` is
the batch read-out.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from ..errors import ConfigError, ShapeError
from ..machine.cost_model import CostModel
from ..machine.hypercube import Hypercube
from ..machine.pvar import PVar
from .counters import LaneCounters


class BatchHypercube(Hypercube):
    """A hypercube executing ``n_runs`` independent simulations at once."""

    def __init__(
        self,
        n: int,
        n_runs: int,
        cost_model: Optional[CostModel] = None,
        plan_cache: Optional[bool] = None,
    ) -> None:
        if n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {n_runs}")
        super().__init__(
            n, cost_model, plan_cache=plan_cache, counters=LaneCounters(n_runs)
        )
        self.n_runs = int(n_runs)

    # -- lane-masked execution ----------------------------------------------

    @contextlib.contextmanager
    def lanes(self, mask: np.ndarray) -> Iterator[None]:
        """Restrict charging to the lanes where ``mask`` is True.

        Models each lane running its own program counter: a lane that has
        already terminated (or skips a conditional phase, e.g. a row swap)
        charges nothing while the others proceed.  Contexts nest by
        conjunction.  Charging itself is free — masking costs no simulated
        time, exactly as the scalar path's host-side ``if`` costs none.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_runs,):
            raise ShapeError(
                f"lane mask must have shape ({self.n_runs},), got {mask.shape}"
            )
        counters = self.counters
        prev = counters.active
        counters.active = mask if prev is None else (prev & mask)
        try:
            yield
        finally:
            counters.active = prev

    # -- identity ------------------------------------------------------------

    def self_address(self) -> PVar:
        data = np.broadcast_to(
            self._pids[:, None], (self.p, self.n_runs)
        ).copy()
        return PVar(self, data)

    # -- PVar constructors ---------------------------------------------------

    def pvar(self, data: np.ndarray) -> PVar:
        """Wrap host data already carrying the trailing run axis.

        Shape ``(p, *local, n_runs)``; use :meth:`replicate` to stack the
        same per-processor data into every lane.
        """
        data = np.asarray(data)
        if data.ndim < 2 or data.shape[0] != self.p:
            raise ShapeError(
                f"expected shape (p={self.p}, *local, n_runs={self.n_runs}), "
                f"got {data.shape}"
            )
        return PVar(self, np.array(data))

    def replicate(self, data: np.ndarray) -> PVar:
        """Stack identical per-processor host data into every lane."""
        data = np.asarray(data)
        if data.shape[0] != self.p:
            raise ShapeError(
                f"axis 0 must be the processor axis of extent {self.p}, "
                f"got shape {data.shape}"
            )
        stacked = np.broadcast_to(
            data[..., None], data.shape + (self.n_runs,)
        ).copy()
        return PVar(self, stacked)

    def full(self, local_shape: Sequence[int], value: Any, dtype: Any = None) -> PVar:
        shape = (self.p, *local_shape, self.n_runs)
        return PVar(self, np.full(shape, value, dtype=dtype))

    def zeros(self, local_shape: Sequence[int] = (), dtype: Any = np.float64) -> PVar:
        return PVar(
            self, np.zeros((self.p, *local_shape, self.n_runs), dtype=dtype)
        )

    def ones(self, local_shape: Sequence[int] = (), dtype: Any = np.float64) -> PVar:
        return PVar(
            self, np.ones((self.p, *local_shape, self.n_runs), dtype=dtype)
        )

    # -- unsupported subsystems ---------------------------------------------

    #: Why each slot rejects an attachment (every slot is scalar-only).
    _SCALAR_ONLY = {
        "tracer": (
            "tracing is not supported on a BatchHypercube; "
            "trace the scalar path (lanes are bit-identical to it)"
        ),
        "sanitizer": (
            "the machine sanitizer audits scalar machines; "
            "sanitize the scalar path (lanes are bit-identical to it)"
        ),
        "abft": (
            "ABFT checksums are not supported on a BatchHypercube; "
            "repro.batch.sweep routes checksummed configs to scalar "
            "sessions"
        ),
        "faults": (
            "fault injection is not supported on a BatchHypercube; "
            "repro.batch.sweep routes faulty configs through "
            "run_resilient on scalar sessions"
        ),
        "metrics": (
            "the metrics registry reads scalar machines; "
            "BatchSession.report_data() is the per-lane read-out"
        ),
    }

    def attach(self, attachment: Any) -> Any:
        raise ConfigError(self._SCALAR_ONLY[attachment.slot])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchHypercube(n={self.n}, p={self.p}, n_runs={self.n_runs}, "
            f"cost_model={self.cost_model})"
        )
