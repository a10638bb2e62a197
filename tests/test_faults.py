"""Unit tests for the fault-injection subsystem (``repro.faults``).

Covers the plan/injector mechanics, fault-aware detour routing, retry
charging, the topology-epoch plan-cache regression, the error taxonomy,
and the no-fault bit-identity guarantee (a healthy run must be
indistinguishable — tick for tick — from a build that never imports
``repro.faults``).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CheckpointError,
    EmbeddingError,
    FaultError,
    NodeKilledError,
    ReproError,
    Session,
    ShapeError,
    UnroutableError,
)
from repro.faults import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    LinkDrop,
    LinkKill,
    NodeKill,
    RetryPolicy,
    largest_healthy_subcube,
    subcube_members,
)
from repro.machine import CostModel, Hypercube


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(ShapeError, ReproError)
        assert issubclass(ShapeError, ValueError)
        assert issubclass(EmbeddingError, ValueError)
        assert issubclass(NodeKilledError, FaultError)
        assert issubclass(UnroutableError, FaultError)
        assert issubclass(FaultError, RuntimeError)
        assert issubclass(CheckpointError, ReproError)

    def test_shape_error_names_the_shape(self):
        s = Session(2)
        A = s.matrix(np.zeros((8, 8)))
        with pytest.raises(ShapeError, match=r"\(8,\), got \(5,\)"):
            A.matvec(s.row_vector(np.zeros(5), A))

    def test_embedding_error_names_the_embedding(self):
        s = Session(2)
        A = s.matrix(np.zeros((8, 8)))
        v = s.vector(np.zeros(8))
        w = s.row_vector(np.zeros(8), A)  # different embedding than v
        with pytest.raises(EmbeddingError, match="embedding"):
            v + w

    def test_old_catch_alls_still_work(self):
        """ShapeError/EmbeddingError stay catchable as ValueError."""
        s = Session(2)
        with pytest.raises(ValueError):
            s.matrix(np.zeros(8))  # 1-D where a matrix is expected


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_events_time_sorted(self):
        plan = FaultPlan([LinkDrop(5.0), NodeKill(1.0, pid=3), LinkKill(3.0)])
        assert [ev.time for ev in plan] == [1.0, 3.0, 5.0]

    def test_random_is_deterministic(self):
        a = FaultPlan.random(4, seed=9, horizon=1e4, link_kills=2,
                             node_kills=2, drops=3)
        b = FaultPlan.random(4, seed=9, horizon=1e4, link_kills=2,
                             node_kills=2, drops=3)
        assert a.events == b.events
        c = FaultPlan.random(4, seed=10, horizon=1e4, link_kills=2,
                             node_kills=2, drops=3)
        assert a.events != c.events

    def test_random_targets_distinct_links_and_nodes(self):
        plan = FaultPlan.random(3, seed=0, horizon=100.0, link_kills=4,
                                node_kills=4, drops=0)
        links = [(ev.dim, ev.pid) for ev in plan if isinstance(ev, LinkKill)]
        nodes = [ev.pid for ev in plan if isinstance(ev, NodeKill)]
        assert len(set(links)) == len(links)
        assert len(set(nodes)) == len(nodes)

    def test_random_times_inside_window(self):
        plan = FaultPlan.random(3, seed=1, horizon=1000.0, window=(0.2, 0.5))
        for ev in plan:
            assert 200.0 <= ev.time <= 500.0

    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultPlan(["not an event"])

    def test_as_dict_round_trips_to_json(self):
        plan = FaultPlan.random(3, seed=2, horizon=50.0, node_kills=1)
        json.dumps(plan.as_dict())  # must be serialisable


# ---------------------------------------------------------------------------
# machine health state
# ---------------------------------------------------------------------------


class TestHealthState:
    def test_kill_node_bumps_epoch_and_is_idempotent(self):
        m = Hypercube(3, CostModel.unit())
        assert not m.faulty and m.epoch == 0
        assert m.kill_node(5) is True
        assert m.faulty and m.epoch == 1
        assert not m.node_alive(5) and m.node_alive(4)
        assert m.kill_node(5) is False  # already dead
        assert m.epoch == 1

    def test_kill_link_marks_both_endpoints(self):
        m = Hypercube(3, CostModel.unit())
        m.kill_link(1, 6)  # link between 6 and 4 across dim 1
        assert not m.link_alive(1, 6) and not m.link_alive(1, 4)
        assert m.link_alive(1, 0) and m.link_alive(0, 6)

    def test_dead_node_fails_structured_exchange(self):
        m = Hypercube(2, CostModel.unit())
        m.kill_node(2)
        with pytest.raises(NodeKilledError):
            m.charge_comm_round(4.0, dim=0)

    def test_dead_link_charges_detour_rounds(self):
        healthy = Hypercube(3, CostModel.unit())
        healthy.charge_comm_round(8.0, rounds=1, dim=2)
        base_rounds = healthy.counters.comm_rounds

        m = Hypercube(3, CostModel.unit())
        m.kill_link(2, 0)
        m.charge_comm_round(8.0, rounds=1, dim=2)
        # one planned round + two extra detour rounds of the same volume
        assert m.counters.comm_rounds == base_rounds + 2
        assert m.counters.time > healthy.counters.time

    def test_fully_dead_dim_is_unroutable(self):
        m = Hypercube(1, CostModel.unit())  # p=2: dim 0 has one link
        m.kill_link(0, 0)
        with pytest.raises(UnroutableError):
            m.charge_comm_round(1.0, dim=0)


# ---------------------------------------------------------------------------
# injector: scheduled fire, drops and retries
# ---------------------------------------------------------------------------


class TestInjector:
    def test_events_fire_at_their_simulated_time(self):
        m = Hypercube(3, CostModel.unit())
        inj = FaultInjector(FaultPlan([LinkKill(50.0, dim=0, pid=0)]))
        m.attach(inj)
        while m.counters.time < 49.0:
            m.charge_comm_round(1.0, dim=1)
        assert m.link_alive(0, 0)  # not yet
        while m.counters.time < 60.0:
            m.charge_comm_round(1.0, dim=1)
        assert not m.link_alive(0, 0)
        assert inj.stats.link_kills == 1
        assert inj.exhausted

    def test_drop_charges_retries_and_backoff(self):
        retry = RetryPolicy(max_retries=4, base=2.0, factor=2.0, cap=64.0)
        m = Hypercube(2, CostModel.unit())
        inj = FaultInjector(
            FaultPlan([LinkDrop(0.0, dim=0, count=2)]), retry=retry
        )
        m.attach(inj)

        clean = Hypercube(2, CostModel.unit())
        clean.charge_comm_round(4.0, dim=0)
        one_round = clean.counters.time

        m.charge_comm_round(4.0, dim=0)
        assert inj.stats.drops == 2
        assert inj.stats.retries == 2
        # 1 planned + 2 retry rounds, plus tau-scaled backoff waits
        assert m.counters.comm_rounds == 3
        expected_backoff = m.cost_model.tau * (
            retry.backoff(0) + retry.backoff(1)
        )
        assert m.counters.time == pytest.approx(3 * one_round + expected_backoff)
        assert inj.stats.backoff_time == pytest.approx(expected_backoff)

    def test_backoff_is_capped(self):
        retry = RetryPolicy(max_retries=8, base=1.0, factor=10.0, cap=5.0)
        assert retry.backoff(0) == 1.0
        assert retry.backoff(1) == 5.0
        assert retry.backoff(7) == 5.0

    def test_same_seed_same_fault_trajectory(self):
        def run(seed):
            plan = FaultPlan.random(3, seed=seed, horizon=300.0,
                                    link_kills=1, drops=2)
            m = Hypercube(3, CostModel.unit())
            inj = FaultInjector(plan)
            m.attach(inj)
            for _ in range(40):
                m.charge_comm_round(4.0, dim=1)
                m.charge_comm_round(4.0, dim=2)
            return inj.stats.as_dict(), m.counters.time

        assert run(7) == run(7)
        assert run(7) != run(8)


# ---------------------------------------------------------------------------
# plan-cache staleness regression (topology epoch)
# ---------------------------------------------------------------------------


class TestPlanCacheEpoch:
    def test_epoch_invalidates_cached_plans(self):
        """A cached remap plan must not survive a topology change."""
        # The sanitizer's own plan lookups would count here; its epoch
        # audit (on_plan_hit) checks stale hits in sanitized runs.
        s = Session(3, "unit", sanitize=False)
        if not s.machine.plans.enabled:
            pytest.skip("plan cache disabled (REPRO_PLAN_CACHE=0)")
        A = s.matrix(np.arange(64, dtype=float).reshape(8, 8))
        v = s.vector(np.arange(8, dtype=float))

        aligned = s.row_aligned(A)
        v.as_embedding(aligned)          # miss: plan built and cached
        misses0 = s.machine.plans.misses
        v.as_embedding(aligned)          # hit: same topology
        assert s.machine.plans.hits >= 1

        s.machine.kill_link(0, 0)        # topology epoch bump
        hits_before = s.machine.plans.hits
        v.as_embedding(aligned)          # stale plan must NOT be replayed
        assert s.machine.plans.hits == hits_before
        assert s.machine.plans.misses > misses0

    def test_epoch_bump_clears_entries(self):
        s = Session(3, "unit")
        if not s.machine.plans.enabled:
            pytest.skip("plan cache disabled (REPRO_PLAN_CACHE=0)")
        A = s.matrix(np.zeros((8, 8)))
        s.vector(np.zeros(8)).as_embedding(s.row_aligned(A))
        assert len(s.machine.plans) > 0
        s.machine.bump_epoch()
        assert len(s.machine.plans) == 0


# ---------------------------------------------------------------------------
# subcube search / checkpoint store
# ---------------------------------------------------------------------------


class TestSubcubeSearch:
    def test_healthy_machine_keeps_every_dim(self):
        m = Hypercube(3, CostModel.unit())
        free, base = largest_healthy_subcube(m)
        assert free == (0, 1, 2) and base == 0

    def test_one_dead_node_halves_the_machine(self):
        m = Hypercube(3, CostModel.unit())
        m.kill_node(5)  # 0b101
        free, base = largest_healthy_subcube(m)
        assert len(free) == 2
        members = subcube_members(free, base)
        assert 5 not in members
        assert len(members) == 4

    def test_deterministic_tie_break(self):
        runs = []
        for _ in range(2):
            m = Hypercube(3, CostModel.unit())
            m.kill_node(7)
            runs.append(largest_healthy_subcube(m))
        assert runs[0] == runs[1]

    def test_no_survivors_raises(self):
        m = Hypercube(1, CostModel.unit())
        m.kill_node(0)
        m.kill_node(1)
        with pytest.raises(FaultError):
            largest_healthy_subcube(m)


class TestCheckpointStore:
    def test_save_restore_charges_time(self):
        s = Session(2, "unit")
        store = CheckpointStore(s)
        A = s.matrix(np.arange(16, dtype=float).reshape(4, 4))
        t0 = s.time
        store.save("work", {"A": A}, state={"step": 3}, step=3)
        t1 = s.time
        assert t1 > t0, "checkpoint collection must cost simulated time"
        ck = store.restore()
        assert s.time > t1, "restore scatter must cost simulated time"
        assert ck.state["step"] == 3
        np.testing.assert_array_equal(ck.array("A"), A.to_numpy())

    def test_restore_without_checkpoint(self):
        s = Session(2, "unit")
        store = CheckpointStore(s)
        assert store.restore() is None
        with pytest.raises(CheckpointError):
            store.restore(required=True)

    def test_unknown_array_name(self):
        s = Session(2, "unit")
        store = CheckpointStore(s)
        store.save("work", {"A": np.zeros(4)})
        ck = store.restore()
        with pytest.raises(CheckpointError, match="A"):
            ck.array("B")


# ---------------------------------------------------------------------------
# no-fault bit-identity
# ---------------------------------------------------------------------------

_BASELINE_SNIPPET = """
import json
import numpy as np
import sys

from repro import Session

s = Session(4, "cm2")
rng = np.random.default_rng(12345)
A = s.matrix(rng.standard_normal((24, 16)))
v = s.col_vector(rng.standard_normal(24), A)
row = A.extract(axis=0, index=3)
A2 = A.insert(axis=0, index=20, vector=row)
sums = A2.reduce(axis=1, op="sum")
y = A.vecmat(v)
c = s.machine.counters
print(json.dumps({
    "time": c.time,
    "flops": c.flops,
    "elements": c.elements_transferred,
    "rounds": c.comm_rounds,
    "local": c.local_moves,
    "faults_imported": "repro.faults" in sys.modules,
}))
"""


class TestNoFaultBitIdentity:
    def test_healthy_session_never_imports_faults_module(self):
        """Without faults, a run is identical to one that cannot even see
        ``repro.faults`` — same ticks, same counters, module not loaded."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", _BASELINE_SNIPPET],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        sub = json.loads(out.stdout)
        assert sub["faults_imported"] is False

        # same workload in-process (repro.faults IS imported by this test
        # module) — counters must match the fault-free subprocess exactly
        s = Session(4, "cm2")
        rng = np.random.default_rng(12345)
        A = s.matrix(rng.standard_normal((24, 16)))
        v = s.col_vector(rng.standard_normal(24), A)
        row = A.extract(axis=0, index=3)
        A2 = A.insert(axis=0, index=20, vector=row)
        A2.reduce(axis=1, op="sum")
        A.vecmat(v)
        c = s.machine.counters
        assert c.time == sub["time"]
        assert c.flops == sub["flops"]
        assert c.elements_transferred == sub["elements"]
        assert c.comm_rounds == sub["rounds"]
        assert c.local_moves == sub["local"]

    def test_empty_plan_changes_nothing(self):
        """Attaching an injector with zero events must not change costs."""
        def run(faults):
            s = Session(3, "unit", faults=faults)
            A = s.matrix(np.arange(48, dtype=float).reshape(8, 6))
            A.reduce(axis=1, op="sum")
            A.extract(axis=0, index=2)
            return s.machine.counters

        plain = run(None)
        with_injector = run(FaultPlan([]))
        assert with_injector.time == plain.time
        assert with_injector.comm_rounds == plain.comm_rounds
        assert with_injector.elements_transferred == plain.elements_transferred
