"""Heal-driven re-expansion (``Session.promote`` + the expansion ledger).

The contract: after a degrade, healed hardware lets the session grow back
onto a strictly larger healthy cube at the *next committed checkpoint*,
and the re-expanded run still reproduces the fault-free result
bit-for-bit.  Promotion is gated three ways — a heal must actually have
landed (greedy degrades alone never trigger it), the health tracker must
hold no suspects (flapping protection), and the root must offer a
strictly larger healthy subcube.
"""

import numpy as np
import pytest

from repro import Session
from repro.errors import FaultError
from repro.faults import (
    CheckpointPolicy,
    CheckpointStore,
    FaultPlan,
    NodeHeal,
    NodeKill,
    gaussian_workload,
    run_resilient,
)
from repro.faults.plan import BitFlip, LinkHeal

N_DIMS = 4
SIZE = 16


def _gaussian_inputs(seed=0):
    rng = np.random.default_rng(seed)
    A = rng.integers(-4, 5, size=(SIZE, SIZE)).astype(np.float64)
    A += SIZE * np.eye(SIZE)
    b = rng.integers(-4, 5, size=SIZE).astype(np.float64)
    return A, b


def _make():
    A, b = _gaussian_inputs()
    return gaussian_workload(A, b, checkpoint_every=2)


def _baseline():
    s = Session(N_DIMS, "unit")
    result = _make()(s, CheckpointStore(s))
    return np.asarray(result), s.time


class TestPromotion:
    @pytest.mark.parametrize("strategy", ["host", "diskless"])
    def test_kill_heal_promote_matches_baseline(self, strategy):
        """Degrade on the kill, re-expand to the full cube on the heal —
        and the final answer is the fault-free one."""
        baseline, t0 = _baseline()
        plan = FaultPlan([
            NodeKill(0.3 * t0, pid=3),
            NodeHeal(0.6 * t0, pid=3),
        ])
        s = Session(N_DIMS, "unit", faults=plan)
        report = run_resilient(s, _make(), policy=strategy)
        assert report.recovered, report.error
        assert report.recoveries == 1
        assert report.promotions == 1
        assert report.final_p == 2 ** N_DIMS  # back on the full cube
        assert report.stats.node_heals == 1
        assert report.stats.expansions == 1
        np.testing.assert_array_equal(np.asarray(report.result), baseline)

    def test_mixed_failure_sequence(self):
        """Satellite: corruption replay, then a node-kill degrade, then a
        heal-driven re-expansion — all in one run, still bit-identical."""
        baseline, t0 = _baseline()
        plan = FaultPlan([
            # Two flips in one block defeat single-error correction and
            # escalate to CorruptionError: a same-machine checkpoint replay.
            BitFlip(0.25 * t0, pid=1, slot=3, bit=2, target=0),
            BitFlip(0.25 * t0, pid=1, slot=11, bit=2, target=0),
            NodeKill(0.5 * t0, pid=3),
            NodeHeal(0.75 * t0, pid=3),
        ])
        s = Session(N_DIMS, "unit", faults=plan, abft=True)
        report = run_resilient(s, _make(), max_recoveries=3)
        assert report.recovered, report.error
        assert report.recoveries == 2  # one replay + one degrade
        assert s.machine.counters.abft_recomputed == 1
        assert report.promotions == 1
        assert report.final_p == 2 ** N_DIMS
        assert report.stats.expansions == 1
        np.testing.assert_array_equal(np.asarray(report.result), baseline)

    def test_no_promotion_without_heal(self):
        """A plain kill degrades and *stays* degraded: re-expansion is
        heal-driven, never a response to greedy subcube choices."""
        baseline, t0 = _baseline()
        plan = FaultPlan([NodeKill(0.3 * t0, pid=3)])
        s = Session(N_DIMS, "unit", faults=plan)
        report = run_resilient(s, _make())
        assert report.recovered, report.error
        assert report.promotions == 0
        assert report.final_p == 2 ** (N_DIMS - 1)
        np.testing.assert_array_equal(np.asarray(report.result), baseline)

    def test_policy_can_disable_promotion(self):
        """``promote=False`` runs the heal plan degrade-only."""
        baseline, t0 = _baseline()
        plan = FaultPlan([
            NodeKill(0.3 * t0, pid=3),
            NodeHeal(0.6 * t0, pid=3),
        ])
        s = Session(N_DIMS, "unit", faults=plan)
        policy = CheckpointPolicy(promote=False)
        report = run_resilient(s, _make(), policy=policy)
        assert report.recovered, report.error
        assert report.promotions == 0
        assert report.final_p == 2 ** (N_DIMS - 1)
        np.testing.assert_array_equal(np.asarray(report.result), baseline)


class TestGates:
    def test_promote_requires_degraded_session(self):
        s = Session(3, "unit")
        assert not s.promotion_ready()
        with pytest.raises(FaultError, match="degraded"):
            s.promote()

    def test_health_tracker_suspects_block_promotion(self):
        """Flapping protection: a component under suspicion pauses
        re-expansion until its health score decays back to clean."""
        s = Session(3, "unit", faults=FaultPlan(()))
        s.machine.kill_node(5)
        s.degrade()
        assert s.machine.p == 4
        assert not s.promotion_ready()  # no heal has landed

        # File a due repair for the dead root node...
        s._expansion.heals.append(("node", 0.0, None, 5))
        # ...but keep one component under suspicion.
        injector = s.faults
        injector.health._node[0] = 2.0
        assert not s.promotion_ready()
        assert s._expansion.heal_applied  # the heal itself did land

        injector.health.clear()
        assert s.promotion_ready()
        s.promote()
        assert s.machine.p == 8
        assert injector.stats.expansions == 1

    def test_link_heal_aimed_at_a_one_processor_survivor_is_dropped(self):
        """A machine with no dimensions has no link to heal, so losing
        its last processor ends in FaultError, not IndexError."""
        s = Session(2, "unit", faults=FaultPlan(()))
        s.machine.kill_node(1)
        s.machine.kill_node(2)
        s.degrade()
        assert s.machine.p == 1
        s.faults._pending.append(LinkHeal(1e9, dim=0, pid=0))
        s.machine.kill_node(0)
        with pytest.raises(FaultError):
            s.degrade()
        assert [h for h in s._expansion.heals if h[0] == "link"] == []

    def test_promotion_consumes_the_heal(self):
        """Each promote resets the heal flag: growing further requires
        further repairs, not a leftover ready bit."""
        s = Session(3, "unit", faults=FaultPlan(()))
        s.machine.kill_node(5)
        s.degrade()
        s.machine.kill_node(1)  # second failure on the subcube
        s.degrade()
        assert s.machine.p == 2
        s._expansion.heals.append(("node", 0.0, None, 5))
        assert s.promotion_ready()
        s.promote()
        assert not s._expansion.heal_applied
        assert not s.promotion_ready()  # root node 1's twin is still dead
