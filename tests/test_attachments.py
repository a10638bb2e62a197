"""Every optional subsystem joins, survives and reports the same way.

Five subsystems can fill a slot on a machine: the fault injector, the
sanitizer, the ABFT manager, the tracer and the metrics registry.  A
session that degrades onto a subcube and later promotes back must carry
each one across both swaps as the same object, bound to the current
machine.  The session report of such a run is pinned in
``tests/data/report_pin.json``; regenerate it (only for an intended
report change) with ``PYTHONPATH=src python -m tests.test_attachments``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import Session
from repro import workloads as W
from repro.abft import ABFTManager
from repro.algorithms import gaussian
from repro.batch.machine import BatchHypercube
from repro.check import MachineSanitizer
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.machine.hypercube import Hypercube
from repro.metrics import MetricsRegistry
from repro.obs import Tracer

PIN_PATH = Path(__file__).parent / "data" / "report_pin.json"

#: Every attachment slot, in bind order.
SLOTS = ("faults", "sanitizer", "abft", "tracer", "metrics")


def _solve(s: Session, seed: int) -> None:
    A, b, _ = W.diagonally_dominant_system(6, seed=seed)
    result = gaussian.solve(s.matrix(A), b)
    np.testing.assert_allclose(result.x, np.linalg.solve(A, b), rtol=1e-10)


def _swapped_session(on_swap=lambda s, held: None) -> Session:
    """Solve, kill node 5, degrade, solve, heal, promote, solve.

    ``on_swap(session, held)`` runs after each machine swap; ``held``
    maps each slot to the object it held before the first swap.
    """
    s = Session(
        3,
        "unit",
        plan_cache=True,
        trace=True,
        sanitize=True,
        abft=True,
        metrics=True,
        faults=FaultPlan(()),
    )
    held = {slot: getattr(s.machine, slot) for slot in SLOTS}
    with s.tracer.span("run", "run"):
        _solve(s, seed=1)
        s.machine.kill_node(5)
        s.degrade()
        on_swap(s, held)
        _solve(s, seed=2)
        s._expansion.heals.append(("node", 0.0, None, 5))
        assert s.promotion_ready()
        s.promote()
        on_swap(s, held)
        _solve(s, seed=3)
    return s


def _capture() -> dict:
    """The pinned report of :func:`_swapped_session`.

    The profile's values are host wall-clock seconds (and its top-N table
    is ordered by them), so only its keys are kept.
    """
    s = _swapped_session()
    data = json.loads(json.dumps(s.report_data()))
    data["profile"] = list(data["profile"])
    return {"report": s.report(), "report_data": data}


def _attachments():
    """One fresh instance per slot, in :data:`SLOTS` order."""
    return (
        FaultInjector(FaultPlan(())),
        MachineSanitizer(),
        ABFTManager(),
        Tracer(),
        MetricsRegistry(),
    )


def test_each_attachment_class_names_its_slot():
    assert Hypercube.SLOTS == SLOTS
    assert tuple(a.slot for a in _attachments()) == SLOTS
    m = Hypercube(2)
    for attachment in _attachments():
        assert m.attach(attachment) is attachment
        assert getattr(m, attachment.slot) is attachment
        assert attachment.machine is m


def test_batch_machine_takes_only_metrics():
    m = BatchHypercube(2, n_runs=3)
    for attachment in _attachments():
        if attachment.slot == "metrics":
            assert m.attach(attachment) is attachment
            assert attachment.machine is m
        else:
            with pytest.raises(ConfigError):
                m.attach(attachment)
            assert getattr(m, attachment.slot) is None


def test_every_attachment_survives_degrade_and_promote():
    def same_objects_on_current_machine(s, held):
        for slot, obj in held.items():
            assert obj is not None, slot
            assert getattr(s.machine, slot) is obj, slot
            assert obj.machine is s.machine, slot

    s = _swapped_session(same_objects_on_current_machine)
    assert s.machine.p == 8
    instants = [e["name"] for e in s.tracer.events if e["type"] == "instant"]
    assert instants == ["kill_node:5", "degrade", "heal_node:5", "promote"]


def test_report_matches_pin():
    pinned = json.loads(PIN_PATH.read_text())
    got = _capture()
    assert got["report"] == pinned["report"]
    assert got["report_data"] == pinned["report_data"]
    # Key order is part of the report's contract, not just the values.
    assert json.dumps(got["report_data"]) == json.dumps(pinned["report_data"])


if __name__ == "__main__":
    PIN_PATH.parent.mkdir(exist_ok=True)
    PIN_PATH.write_text(json.dumps(_capture(), indent=1) + "\n")
    print(f"wrote {PIN_PATH}")
