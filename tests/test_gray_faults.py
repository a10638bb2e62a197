"""Gray failures: slow links/nodes, flaky links, health-score routing.

The gray-failure model extends the fail-stop fault plan with components
that *degrade* instead of dying: latency multipliers on links and nodes
(lockstep rounds stretch to the slowest participant, charged as pure
simulated time) and probabilistic per-exchange drops.  Covers:

* JSON round-trip and validation of the three gray event kinds;
* lockstep stretch semantics (time up, element/round counters untouched);
* recovery windows (``duration``) and expiry accounting;
* seeded determinism of flaky drops, jittered backoff and hedging;
* the health tracker's learn/decay behaviour;
* straggler-avoidance detours and their measured tick reduction;
* the import-isolation pin: fault-attached runs never load ``repro.
  faults.chaos``, and gray-free plans leave costs bit-identical.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Session
from repro.errors import ConfigError
from repro.faults import (
    BitFlip,
    FaultInjector,
    FaultPlan,
    HealthTracker,
    LinkCorrupt,
    LinkDrop,
    LinkFlaky,
    LinkKill,
    LinkSlow,
    NodeKill,
    NodeSlow,
    RetryPolicy,
    gaussian_workload,
    run_resilient,
)
from repro.faults.checkpoint import CheckpointStore
from repro.machine import Hypercube


# ---------------------------------------------------------------------------
# plan round-trip + validation
# ---------------------------------------------------------------------------


class TestGrayPlanRoundTrip:
    def test_all_eight_kinds_round_trip(self, tmp_path):
        plan = FaultPlan([
            LinkKill(10.0, dim=1, pid=2),
            NodeKill(20.0, pid=3),
            LinkDrop(30.0, dim=0, count=2),
            BitFlip(40.0, pid=1, slot=5),
            LinkCorrupt(50.0, dim=2),
            LinkSlow(60.0, dim=1, pid=0, factor=4.0, duration=10.0),
            NodeSlow(70.0, pid=5, factor=2.5),
            LinkFlaky(80.0, dim=0, drop_p=0.3, duration=5.0, seed=9),
        ])
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.as_dict()))
        loaded = FaultPlan.from_json(str(path))
        assert loaded.events == plan.events

    def test_unknown_kind_names_the_entry(self):
        with pytest.raises(ConfigError, match=r"events\[1\].*unknown.*kind"):
            FaultPlan.from_dict({"events": [
                {"kind": "LinkKill", "time": 1.0},
                {"kind": "GammaRay", "time": 2.0},
            ]})

    def test_missing_time_names_the_entry(self):
        with pytest.raises(ConfigError, match=r"events\[0\].*time"):
            FaultPlan.from_dict({"events": [{"kind": "LinkSlow"}]})

    def test_unknown_field_names_the_entry(self):
        with pytest.raises(ConfigError, match=r"events\[0\].*unknown field"):
            FaultPlan.from_dict({"events": [
                {"kind": "NodeSlow", "time": 1.0, "speed": 2.0},
            ]})

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match=r"broken\.json.*malformed"):
            FaultPlan.from_json(str(path))

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigError, match="factor"):
            LinkSlow(0.0, dim=0, pid=0, factor=0.5)
        with pytest.raises(ConfigError, match="factor"):
            NodeSlow(0.0, pid=0, factor=0.0)

    def test_invalid_drop_p_rejected(self):
        with pytest.raises(ConfigError, match="drop_p"):
            LinkFlaky(0.0, dim=0, drop_p=1.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError, match="duration"):
            LinkSlow(0.0, dim=0, pid=0, factor=2.0, duration=-1.0)

    def test_random_plan_with_gray_events_round_trips(self):
        plan = FaultPlan.random(
            4, seed=11, horizon=1e4, link_slows=2, node_slows=1,
            flaky_links=1,
        )
        kinds = {type(ev).__name__ for ev in plan.events}
        assert {"LinkSlow", "NodeSlow", "LinkFlaky"} <= kinds
        assert FaultPlan.from_dict(plan.as_dict()).events == plan.events

    def test_gray_free_random_plans_unchanged(self):
        """Pre-gray parameter sets draw byte-identical plans."""
        a = FaultPlan.random(4, seed=5, horizon=1e4, link_kills=1, drops=2)
        b = FaultPlan.random(4, seed=5, horizon=1e4, link_kills=1, drops=2,
                             link_slows=0, node_slows=0, flaky_links=0)
        assert a.as_dict() == b.as_dict()


# ---------------------------------------------------------------------------
# lockstep stretch semantics
# ---------------------------------------------------------------------------


class TestLockstepStretch:
    def test_slow_link_stretches_time_only(self):
        healthy = Hypercube(3)
        healthy.charge_comm_round(4.0, dim=0)
        slowed = Hypercube(3)
        assert slowed.slow_link(0, 0, 3.0)
        slowed.charge_comm_round(4.0, dim=0)
        assert slowed.counters.time == 3.0 * healthy.counters.time
        assert (
            slowed.counters.elements_transferred
            == healthy.counters.elements_transferred
        )
        assert slowed.counters.comm_rounds == healthy.counters.comm_rounds

    def test_slow_link_off_dimension_is_free(self):
        healthy = Hypercube(3)
        healthy.charge_comm_round(4.0, dim=2)
        slowed = Hypercube(3)
        slowed.slow_link(0, 0, 3.0)
        slowed.charge_comm_round(4.0, dim=2)
        assert slowed.counters.time == healthy.counters.time

    def test_slow_node_stretches_every_dimension(self):
        healthy = Hypercube(3)
        healthy.charge_comm_round(4.0, dim=2)
        slowed = Hypercube(3)
        assert slowed.slow_node(5, 2.0)
        slowed.charge_comm_round(4.0, dim=2)
        assert slowed.counters.time == 2.0 * healthy.counters.time

    def test_worst_straggler_wins(self):
        m = Hypercube(3)
        m.slow_link(0, 0, 2.0)
        m.slow_link(0, 2, 5.0)
        m.slow_node(1, 3.0)
        assert m.round_stretch(0) == 5.0
        assert m.round_stretch(1) == 3.0

    def test_restore_clears_gray_state(self):
        m = Hypercube(3)
        m.slow_link(1, 0, 4.0)
        m.slow_node(2, 2.0)
        assert m.gray_active
        m.restore_link_speed(1, 0)
        m.restore_node_speed(2)
        assert not m.gray_active
        assert m.round_stretch(1) == 1.0

    def test_slowing_a_dead_link_or_node_is_refused(self):
        m = Hypercube(3)
        m.kill_link(0, 0)
        assert not m.slow_link(0, 0, 4.0)
        m.kill_node(5)
        assert not m.slow_node(5, 2.0)

    def test_kill_clears_slow_state(self):
        m = Hypercube(3)
        m.slow_node(5, 4.0)
        m.kill_node(5)
        assert m.node_slow_factor(5) == 1.0
        assert m.round_stretch(None) == 1.0

    def test_slow_link_bumps_epoch(self):
        m = Hypercube(3)
        before = m.epoch
        m.slow_link(0, 0, 2.0)
        assert m.epoch > before


# ---------------------------------------------------------------------------
# injected gray events: firing, recovery windows, flaky drops
# ---------------------------------------------------------------------------


class TestGrayInjection:
    def test_link_slow_fires_and_expires(self):
        plan = FaultPlan([LinkSlow(5.0, dim=0, pid=0, factor=4.0,
                                   duration=100.0)])
        inj = FaultInjector(plan)
        m = Hypercube(3)
        m.attach(inj)
        m.charge_comm_round(8.0, dim=1)  # clock advances past t=5
        m.charge_comm_round(8.0, dim=1)  # next poll fires the event
        assert m.gray_active
        assert inj.stats.link_slows == 1
        deadline = inj._gray_expiries[0][0]
        while m.counters.time <= deadline:
            m.charge_comm_round(8.0, dim=1)
        m.charge_comm_round(8.0, dim=1)  # next poll drains the expiry
        assert not m.gray_active
        assert inj.stats.gray_recoveries == 1

    def test_permanent_slow_never_recovers(self):
        plan = FaultPlan([NodeSlow(0.0, pid=1, factor=2.0)])
        inj = FaultInjector(plan)
        m = Hypercube(3)
        m.attach(inj)
        for _ in range(50):
            m.charge_comm_round(8.0, dim=0)
        assert m.gray_active
        assert inj.stats.gray_recoveries == 0
        assert inj.stats.slow_rounds > 0
        assert inj.stats.slow_time > 0.0

    def test_flaky_link_drops_are_seeded_deterministic(self):
        def run():
            plan = FaultPlan([LinkFlaky(0.0, dim=0, drop_p=0.5, seed=42)])
            inj = FaultInjector(plan)
            m = Hypercube(3)
            m.attach(inj)
            for _ in range(40):
                m.charge_comm_round(4.0, dim=0)
            return m.counters.time, inj.stats.flaky_drops, inj.stats.retries

        t1, d1, r1 = run()
        t2, d2, r2 = run()
        assert (t1, d1, r1) == (t2, d2, r2)
        assert d1 > 0
        assert r1 > 0

    def test_flaky_window_expires(self):
        plan = FaultPlan([LinkFlaky(0.0, dim=0, drop_p=1.0, duration=50.0,
                                    seed=1)])
        inj = FaultInjector(plan)
        m = Hypercube(3)
        m.attach(inj)
        while m.counters.time <= 55.0:
            m.charge_comm_round(4.0, dim=0)
        drops_at_expiry = inj.stats.flaky_drops
        m.charge_comm_round(4.0, dim=0)
        m.charge_comm_round(4.0, dim=0)
        assert inj.stats.gray_recoveries == 1
        assert inj.stats.flaky_drops == drops_at_expiry

    def test_hedged_retransmission_trades_volume_for_time(self):
        def run(hedge):
            plan = FaultPlan([LinkFlaky(0.0, dim=0, drop_p=1.0, seed=3)])
            inj = FaultInjector(plan, retry=RetryPolicy(hedge=hedge))
            m = Hypercube(3)
            m.attach(inj)
            for _ in range(10):
                m.charge_comm_round(4.0, dim=0)
            return m.counters, inj.stats

        plain_c, plain_st = run(False)
        hedged_c, hedged_st = run(True)
        assert hedged_st.hedged_retransmits > 0
        assert plain_st.hedged_retransmits == 0
        assert plain_st.backoff_time > 0.0
        assert hedged_st.backoff_time == 0.0
        # hedging doubles retransmit volume but skips every backoff wait
        assert (
            hedged_c.elements_transferred > plain_c.elements_transferred
        )
        assert hedged_c.time < plain_c.time


class TestJitteredBackoff:
    def test_zero_jitter_is_bit_exact(self):
        policy = RetryPolicy()
        for attempt in range(6):
            assert policy.backoff_jittered(attempt, nonce=attempt) == (
                policy.backoff(attempt)
            )

    def test_jitter_is_counter_deterministic(self):
        a = RetryPolicy(jitter=0.25, seed=7)
        b = RetryPolicy(jitter=0.25, seed=7)
        waits_a = [a.backoff_jittered(k, nonce=k) for k in range(8)]
        waits_b = [b.backoff_jittered(k, nonce=k) for k in range(8)]
        assert waits_a == waits_b

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(jitter=0.25, seed=1)
        for k in range(16):
            wait = policy.backoff_jittered(2, nonce=k)
            base = policy.backoff(2)
            assert 0.75 * base <= wait <= 1.25 * base

    def test_different_seeds_differ(self):
        a = RetryPolicy(jitter=0.25, seed=1)
        b = RetryPolicy(jitter=0.25, seed=2)
        assert [a.backoff_jittered(0, n) for n in range(8)] != [
            b.backoff_jittered(0, n) for n in range(8)
        ]

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ConfigError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigError, match="jitter"):
            RetryPolicy(jitter=-0.1)


# ---------------------------------------------------------------------------
# health tracker + straggler avoidance
# ---------------------------------------------------------------------------


class TestHealthTracker:
    def test_learns_observed_slowdowns(self):
        h = HealthTracker()
        h.observe_round(0, {0: 4.0}, {})
        assert h.link_factor(0, 0) > 1.0
        assert h.tracked == 1

    def test_decays_for_participating_links(self):
        h = HealthTracker()
        h.observe_round(0, {0: 8.0}, {})
        suspicious = h.link_factor(0, 0)
        for _ in range(40):
            h.observe_round(0, {}, {}, participating={0})
        assert h.link_factor(0, 0) < suspicious
        assert h.tracked == 0  # fully forgiven and dropped

    def test_detoured_links_stay_suspicious(self):
        """No telemetry means no recovery evidence: avoidance is sticky."""
        h = HealthTracker()
        h.observe_round(0, {0: 8.0}, {})
        suspicious = h.link_factor(0, 0)
        for _ in range(30):
            h.observe_round(0, {}, {}, participating={2})
        assert h.link_factor(0, 0) == suspicious

    def test_node_scores_tracked(self):
        h = HealthTracker()
        h.observe_round(1, {}, {3: 4.0})
        assert h.node_factor(3) > 1.0
        h.clear()
        assert h.tracked == 0


class TestStragglerAvoidance:
    @staticmethod
    def _route(avoid, factor=12.0, repeats=16):
        from repro.machine.router import Router

        plan = FaultPlan([LinkSlow(0.0, dim=0, pid=0, factor=factor)])
        inj = FaultInjector(plan, avoid_stragglers=avoid)
        s = Session(4, plan_cache=False, faults=inj)
        router = Router(s.machine)
        src = np.array([0], dtype=np.int64)
        dst = np.array([1], dtype=np.int64)
        sizes = np.array([32.0])
        for _ in range(repeats):
            router.simulate(src, dst, sizes)
        return s, inj

    def test_detour_reduces_simulated_ticks(self):
        s_off, inj_off = self._route(False)
        s_on, inj_on = self._route(True)
        assert inj_off.stats.straggler_detours == 0
        assert inj_on.stats.straggler_detours > 0
        assert s_on.time < s_off.time

    def test_no_detour_below_break_even(self):
        """A 2x-slow link is cheaper to cross than a 3-hop sidestep."""
        _, inj = self._route(True, factor=2.0)
        assert inj.stats.straggler_detours == 0

    def test_avoidance_report_line(self):
        s, _ = self._route(True)
        assert "straggler detours" in s.report()


# ---------------------------------------------------------------------------
# session integration + import isolation
# ---------------------------------------------------------------------------


class TestSessionIntegration:
    def test_retry_requires_fault_plan(self):
        with pytest.raises(ConfigError, match="retry"):
            Session(3, retry=RetryPolicy())
        with pytest.raises(ConfigError, match="retry"):
            Session(3, faults=FaultInjector(FaultPlan([])),
                    retry=RetryPolicy())

    def test_retry_kwarg_reaches_the_injector(self):
        policy = RetryPolicy(jitter=0.25, seed=3, hedge=True)
        s = Session(3, faults=FaultPlan([]), retry=policy)
        assert s.machine.faults.retry is policy

    def test_gray_run_sanitized_end_to_end(self):
        """A sanitized gray-faulted solve holds every accounting invariant."""
        rng = np.random.default_rng(0)
        A = rng.integers(-4, 5, size=(12, 12)).astype(np.float64)
        A += 12 * np.eye(12)
        b = rng.integers(-4, 5, size=12).astype(np.float64)
        baseline_s = Session(4)
        baseline = gaussian_workload(A, b)(
            baseline_s, CheckpointStore(baseline_s)
        )
        plan = FaultPlan([
            LinkSlow(10.0, dim=0, pid=0, factor=6.0, duration=200.0),
            NodeSlow(20.0, pid=3, factor=2.0),
            LinkFlaky(30.0, dim=1, drop_p=0.4, seed=5),
        ])
        s = Session(4, faults=plan,
                    retry=RetryPolicy(jitter=0.25, seed=1), sanitize=True)
        report = run_resilient(s, gaussian_workload(A, b))
        assert report.recovered
        assert np.array_equal(np.asarray(report.result), np.asarray(baseline))
        assert s.time > baseline_s.time  # gray faults cost simulated time

    def test_gray_free_plan_is_bit_identical(self):
        """Fail-stop-only plans charge exactly what they did pre-gray —
        the gray machinery must be exactly free when no gray event fires."""
        def run(plan):
            s = Session(3, faults=plan)
            A = s.matrix(np.arange(48, dtype=float).reshape(8, 6))
            A.reduce(axis=1, op="sum")
            A.extract(axis=0, index=2)
            return s.machine.counters

        drop_plan = FaultPlan([LinkDrop(1.0, dim=0, count=1)])
        a = run(drop_plan)
        b = run(drop_plan)
        assert a.time == b.time
        assert a.elements_transferred == b.elements_transferred


_CHAOS_ISOLATION_SNIPPET = """
import json
import sys

import numpy as np

from repro import Session
from repro.faults import FaultPlan, run_resilient, matvec_workload

rng = np.random.default_rng(7)
A = rng.integers(-3, 4, size=(8, 8)).astype(np.float64)
x = rng.integers(-3, 4, size=8).astype(np.float64)
plan = FaultPlan.random(3, seed=2, horizon=1e4, link_kills=1, drops=1)
s = Session(3, faults=plan)
report = run_resilient(s, matvec_workload(A, x))
print(json.dumps({
    "recovered": report.recovered,
    "chaos_imported": "repro.faults.chaos" in sys.modules,
}))
"""


def test_fault_runs_never_import_chaos_module():
    """The chaos harness is a consumer of the fault model, not a
    dependency: ordinary faulted runs must never load it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", _CHAOS_ISOLATION_SNIPPET],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    sub = json.loads(out.stdout)
    assert sub["recovered"] is True
    assert sub["chaos_imported"] is False


# ---------------------------------------------------------------------------
# recovery edge cases (satellite: double-degrade + armed drops)
# ---------------------------------------------------------------------------


class TestRecoveryEdgeCases:
    @staticmethod
    def _problem():
        rng = np.random.default_rng(3)
        A = rng.integers(-4, 5, size=(12, 12)).astype(np.float64)
        A += 12 * np.eye(12)
        b = rng.integers(-4, 5, size=12).astype(np.float64)
        return A, b

    def test_double_degrade_with_armed_drops(self):
        """Two node kills force two checkpoint replays while transient
        drops are still armed; the recovered result stays bit-exact."""
        A, b = self._problem()
        dry = Session(4)
        baseline = gaussian_workload(A, b)(dry, CheckpointStore(dry))
        horizon = dry.time
        plan = FaultPlan([
            NodeKill(0.15 * horizon, pid=5),
            LinkDrop(0.2 * horizon, dim=0, count=2),
            LinkDrop(0.25 * horizon, dim=1, count=1),
            # pid 2 stays inside the even-pid survivor subcube after the
            # first degrade, so this kill survives translation and forces
            # a second checkpoint replay.
            NodeKill(0.4 * horizon, pid=2),
        ])
        s = Session(4, faults=plan)
        report = run_resilient(s, gaussian_workload(A, b), max_recoveries=3)
        assert report.recovered
        assert report.recoveries == 2
        assert report.final_p == 4
        assert np.array_equal(np.asarray(report.result), np.asarray(baseline))

    def test_backoff_determinism_across_identical_seeds(self):
        """Identical seeds give identical jittered recovery runs."""
        A, b = self._problem()

        def run():
            plan = FaultPlan([
                NodeKill(500.0, pid=2),
                LinkDrop(600.0, dim=0, count=3),
            ])
            s = Session(4, faults=plan,
                        retry=RetryPolicy(jitter=0.25, seed=9))
            report = run_resilient(s, gaussian_workload(A, b),
                                   max_recoveries=2)
            return report, s.machine.counters

        rep1, c1 = run()
        rep2, c2 = run()
        assert rep1.recovered and rep2.recovered
        assert c1.time == c2.time
        assert c1.elements_transferred == c2.elements_transferred
        assert c1.comm_rounds == c2.comm_rounds
        assert np.array_equal(
            np.asarray(rep1.result), np.asarray(rep2.result)
        )
