"""The ABFT manager: checksum registry, verification, correction, scrubbing.

The manager owns the mapping from protected :class:`~repro.machine.pvar.PVar`
blocks to their reference checksum panels (:mod:`repro.abft.panels`) and
implements the algorithm-based fault-tolerance protocol:

* **protect** — computed when a checksum-embedded array is constructed.
  Charged as one local fold of the block into the column word plus an
  ``n``-round tree exchange building the row panel ("abft-maintain").
* **guard** — runs before any operation *reads* a protected block.  One
  shared one-word agreement round (the only point where the fault injector
  can fire) followed by a two-panel recompute per block ("abft-verify").
* **correct** — a single divergent byte is restored exactly from the
  row × column intersection; one local repair pass plus a re-verify.
* **escalate** — two or more corrupt bytes in one block are uncorrectable:
  :class:`~repro.errors.CorruptionError` propagates to
  :func:`repro.faults.run_resilient`, which replays from the last
  checkpoint on the same (healthy) topology.
* **scrub** — an optional periodic sweep verifying every registered block,
  bounding the latency between corruption and detection even for blocks
  the workload is not currently reading.

Every cost lands on the simulated clock via the machine's ordinary charge
entry points; detections/corrections/escalations are mirrored into
``machine.counters`` (observability-only fields) and the tracer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from ..errors import ConfigError, CorruptionError
from .panels import checksum_panels, correct_single, locate


@dataclass
class ABFTStats:
    """Running totals for the checksum layer (host-side observability)."""

    protected: int = 0
    verifies: int = 0
    detected: int = 0
    corrected: int = 0
    uncorrectable: int = 0
    scrubs: int = 0
    wire_retransmits: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ABFTManager:
    """Checksum bookkeeping for one machine.

    Parameters
    ----------
    keep:
        Registry capacity.  Protected blocks beyond this are retired
        oldest-first, each with a final verification (guard-on-evict), so
        a corruption can never silently age out of coverage.
    scrub_interval:
        When > 0, every ``scrub_interval``-th protection triggers a
        :meth:`scrub` sweep over the whole registry.  0 disables periodic
        scrubbing (guards still verify every block an operation reads).
    """

    #: The machine slot this attachment fills (see ``Hypercube.SLOTS``).
    slot = "abft"

    def __init__(self, keep: int = 128, scrub_interval: int = 0) -> None:
        if keep < 1:
            raise ConfigError(f"ABFT registry capacity must be >= 1, got {keep}")
        if scrub_interval < 0:
            raise ConfigError(
                f"scrub interval must be >= 0, got {scrub_interval}"
            )
        self.keep = keep
        self.scrub_interval = scrub_interval
        self.stats = ABFTStats()
        self.machine: Any = None
        # id(pvar) -> (pvar, col_panel, row_panel); strong references so a
        # protected block's id can never be recycled while registered.
        self._registry: "OrderedDict[int, Tuple[Any, np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )

    # -- lifecycle -----------------------------------------------------------

    def bind(self, machine: Any) -> None:
        """Bind to ``machine`` (called by ``Hypercube.attach``).

        Rebinding — e.g. degraded-mode recovery moving the session onto a
        healthy subcube — drops the registry: the old panels describe
        blocks of the old machine's shape.
        """
        if self.machine is not None and self.machine is not machine:
            self._registry.clear()
        self.machine = machine

    rebind = bind

    def reset(self) -> None:
        """Forget every protected block (checkpoint replay starts clean)."""
        self._registry.clear()

    def protected_pvars(self) -> List[Any]:
        """Registered blocks, oldest first (fault-injector targeting)."""
        return [entry[0] for entry in self._registry.values()]

    def report_data(self) -> Dict[str, Any]:
        """The manager's part of :meth:`repro.core.session.Session.report_data`.

        Detections, corrections and checkpoint replays are read from the
        machine counters; ``run_resilient`` counts the replays.
        """
        c = self.machine.counters
        return {
            "abft": dict(
                self.stats.as_dict(),
                detected=c.abft_detected,
                corrected=c.abft_corrected,
                recomputed=c.abft_recomputed,
            )
        }

    def publish_metrics(self, registry: Any) -> None:
        """Publish checksum-layer totals into a metrics registry."""
        stats = self.stats
        registry.publish("abft.protected", stats.protected)
        registry.publish("abft.verifies", stats.verifies)
        registry.publish("abft.scrub_rounds", stats.scrubs)
        registry.publish("abft.wire_retransmits", stats.wire_retransmits)
        registry.publish("abft.uncorrectable", stats.uncorrectable)
        registry.publish("abft.evictions", stats.evictions)
        registry.publish("abft.registry_blocks", len(self._registry),
                         kind="gauge")

    # -- protection ----------------------------------------------------------

    def protect(self, pvar: Any) -> None:
        """Compute and register reference panels for ``pvar``.

        The panels are computed from the block *before* any charge: the
        charges below may poll the fault injector, and a flip landing
        mid-protection must diverge from the stored reference, not be
        baked into it.
        """
        machine = self.machine
        col, row = checksum_panels(pvar.data)
        key = id(pvar)
        if key in self._registry:
            self._registry.move_to_end(key)
        self._registry[key] = (pvar, col, row)
        self.stats.protected += 1
        # Audit before any charge: the charged rounds below may poll the
        # fault injector, and a flip landing there is *supposed* to diverge
        # from the stored panels — the identity only holds right here.
        sanitizer = machine.sanitizer
        if sanitizer is not None:
            sanitizer.audit_abft_panels(machine, pvar, (col, row))
        local = pvar.local_size
        with machine.phase("abft-maintain"):
            # Column word: one fold over the local block.  Row panel: an
            # n-round exchange accumulating per-slot sums across the cube.
            machine.charge_flops(local)
            machine.charge_comm_round(local, rounds=machine.n)
            machine.charge_flops(machine.n * local)
        while len(self._registry) > self.keep:
            _, (old_pv, old_col, old_row) = self._registry.popitem(last=False)
            # Guard-on-evict: verify the retiree so corruption cannot
            # escape coverage by aging out of the registry.
            self.stats.evictions += 1
            with machine.phase("abft-verify"):
                machine.charge_comm_round(1.0, rounds=machine.n)
                machine.charge_flops(2 * old_pv.local_size)
                self._verify(old_pv, old_col, old_row)
        if self.scrub_interval and self.stats.protected % self.scrub_interval == 0:
            self.scrub()

    # -- verification --------------------------------------------------------

    def guard_many(self, pvars: Iterable[Any]) -> None:
        """Verify every registered block in ``pvars`` before it is read.

        One shared one-word agreement round is charged first — the single
        point where the fault injector may fire during the guard — then
        each block pays a two-panel recompute and is checked against the
        post-poll data.
        """
        entries = []
        seen = set()
        for pv in pvars:
            key = id(pv)
            if key in seen:
                continue
            seen.add(key)
            entry = self._registry.get(key)
            if entry is not None and entry[0] is pv:
                entries.append(entry)
        if not entries:
            return
        machine = self.machine
        with machine.phase("abft-verify"):
            machine.charge_comm_round(1.0, rounds=machine.n)
            # The injector only fires inside charged comm rounds, and a
            # repair replaces one block's array without writing into a
            # shared one, so every block's data is final from here on.
            for pv, col, row in entries:
                machine.charge_flops(2 * pv.local_size)
                self._verify(pv, col, row)
        self.stats.verifies += len(entries)

    def scrub(self) -> int:
        """Verify every registered block; returns how many were swept."""
        machine = self.machine
        entries = list(self._registry.values())
        if not entries:
            return 0
        with machine.phase("abft-scrub"):
            machine.charge_comm_round(1.0, rounds=machine.n)
            for pv, col, row in entries:
                machine.charge_flops(2 * pv.local_size)
                self._verify(pv, col, row)
        self.stats.scrubs += 1
        self.stats.verifies += len(entries)
        tracer = machine.tracer
        if tracer is not None:
            tracer.instant("abft:scrub", "abft", blocks=len(entries))
        return len(entries)

    def _verify(self, pvar: Any, col: np.ndarray, row: np.ndarray) -> None:
        """Recompute one block's panels and compare them with the reference
        byte for byte; only a divergent block is diagnosed."""
        now_col, now_row = checksum_panels(pvar.data)
        if (now_col.tobytes() != col.tobytes()
                or now_row.tobytes() != row.tobytes()):
            self._check(pvar, col, row)

    def _check(self, pvar: Any, col: np.ndarray, row: np.ndarray) -> None:
        """Diagnose one block; correct a single corrupt byte or escalate."""
        machine = self.machine
        status, info = locate(pvar.data, col, row)
        if status == "clean":
            return
        counters = machine.counters
        counters.abft_detected += 1
        self.stats.detected += 1
        tracer = machine.tracer
        if tracer is not None:
            tracer.instant("abft:detect", "abft", status=status)
        if status == "single":
            pid, byte_slot, delta = info
            pvar.data = correct_single(pvar.data, pid, byte_slot, delta)
            # One local repair pass, then re-verify the repaired block.
            machine.charge_local(pvar.local_size)
            machine.charge_flops(2 * pvar.local_size)
            status2, _ = locate(pvar.data, col, row)
            if status2 != "clean":  # pragma: no cover - correction is exact
                raise CorruptionError(
                    "ABFT single-element correction failed re-verification"
                )
            counters.abft_corrected += 1
            self.stats.corrected += 1
            if tracer is not None:
                tracer.instant(
                    "abft:correct", "abft", pid=pid, byte_slot=byte_slot
                )
            return
        self.stats.uncorrectable += 1
        if tracer is not None:
            tracer.instant("abft:uncorrectable", "abft", panels=info)
        bad_cols, bad_rows = info
        raise CorruptionError(
            f"checksum block holds multiple corrupted elements "
            f"({bad_cols} column / {bad_rows} row panel entries diverge); "
            f"single-element correction is impossible — replay from the "
            f"last checkpoint"
        )

    # -- wire protection -----------------------------------------------------

    def on_wire_retransmit(self, dim: int) -> None:
        """Record a detected in-flight corruption (injector already charged
        the retransmission round)."""
        self.stats.wire_retransmits += 1
        machine = self.machine
        counters = machine.counters
        counters.abft_detected += 1
        counters.abft_corrected += 1
        self.stats.detected += 1
        self.stats.corrected += 1
        tracer = machine.tracer
        if tracer is not None:
            tracer.instant("abft:wire-retransmit", "abft", dim=dim)


__all__ = ["ABFTManager", "ABFTStats"]
