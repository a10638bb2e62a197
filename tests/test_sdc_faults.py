"""Silent-data-corruption fault mechanics (``BitFlip`` / ``LinkCorrupt``).

Covers plan serialisation round-trips (including the ``--fault-plan FILE``
path), injector edge cases around SDC events (simultaneous events, t=0
events, flips aimed at dead nodes or empty registries, idempotent kills),
and the bare-machine delivery semantics: without ABFT a corrupted block
crosses the wire silently and a stored flip propagates into results.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CorruptionError, FaultError, NodeKilledError, Session
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import (
    BitFlip,
    LinkCorrupt,
    LinkDrop,
    LinkKill,
    NodeKill,
)
from repro.machine import CostModel, Hypercube, PVar


# ---------------------------------------------------------------------------
# plan serialisation: dict / JSON round-trips
# ---------------------------------------------------------------------------


class TestPlanRoundTrip:
    def test_dict_round_trip_is_exact(self):
        plan = FaultPlan([
            NodeKill(10.0, pid=3),
            LinkKill(5.0, dim=2, pid=1),
            LinkDrop(7.5, dim=0, count=3),
            BitFlip(2.0, pid=4, slot=17, bit=6, target=2),
            LinkCorrupt(9.0, dim=1, pid=2, slot=5, bit=0),
        ])
        again = FaultPlan.from_dict(plan.as_dict())
        assert again.events == plan.events

    def test_json_file_round_trip(self, tmp_path):
        plan = FaultPlan.random(
            4, seed=3, horizon=500.0, link_kills=1, node_kills=1, drops=2,
            bit_flips=2, link_corruptions=1,
        )
        path = tmp_path / "plan.json"
        plan.to_json(str(path))
        data = json.loads(path.read_text())
        assert {e["kind"] for e in data["events"]} >= {"BitFlip", "LinkCorrupt"}
        again = FaultPlan.from_json(str(path))
        assert again.events == plan.events

    def test_unknown_kind_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown fault event kind"):
            FaultPlan.from_dict({"events": [{"kind": "Meteor", "time": 1.0}]})

    def test_bad_fields_are_a_config_error(self):
        with pytest.raises(ConfigError, match=r"events\[0\].*unknown field"):
            FaultPlan.from_dict(
                {"events": [{"kind": "BitFlip", "time": 1.0, "bogus": 7}]}
            )

    @given(
        st.lists(
            st.one_of(
                st.builds(
                    NodeKill,
                    st.floats(0, 1e6, allow_nan=False),
                    pid=st.integers(0, 63),
                ),
                st.builds(
                    LinkKill,
                    st.floats(0, 1e6, allow_nan=False),
                    dim=st.integers(0, 5),
                    pid=st.integers(0, 63),
                ),
                st.builds(
                    LinkDrop,
                    st.floats(0, 1e6, allow_nan=False),
                    dim=st.integers(0, 5),
                    count=st.integers(1, 4),
                ),
                st.builds(
                    BitFlip,
                    st.floats(0, 1e6, allow_nan=False),
                    pid=st.integers(0, 63),
                    slot=st.integers(0, 1 << 16),
                    bit=st.integers(0, 63),
                    target=st.integers(0, 7),
                ),
                st.builds(
                    LinkCorrupt,
                    st.floats(0, 1e6, allow_nan=False),
                    dim=st.integers(0, 5),
                    pid=st.integers(0, 63),
                    slot=st.integers(0, 1 << 16),
                    bit=st.integers(0, 63),
                ),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_any_plan_survives_a_json_round_trip(self, events):
        plan = FaultPlan(events)
        blob = json.dumps(plan.as_dict())
        again = FaultPlan.from_dict(json.loads(blob))
        assert again.events == plan.events


# ---------------------------------------------------------------------------
# injector edge cases
# ---------------------------------------------------------------------------


def _advance(machine, until):
    while machine.counters.time < until:
        machine.charge_local(64)


class TestInjectorEdgeCases:
    def test_two_events_at_the_same_tick_both_fire(self):
        m = Hypercube(3, CostModel.unit())
        inj = FaultInjector(FaultPlan([
            LinkDrop(50.0, dim=1, count=1),
            LinkDrop(50.0, dim=2, count=1),
        ]))
        m.attach(inj)
        _advance(m, 51.0)
        m.charge_comm_round(4.0, dim=1)
        m.charge_comm_round(4.0, dim=2)
        assert inj.stats.drops == 2
        assert inj.stats.retries == 2
        assert inj.exhausted

    def test_time_zero_event_fires_on_first_poll(self):
        m = Hypercube(3, CostModel.unit())
        inj = FaultInjector(FaultPlan([LinkKill(0.0, dim=0, pid=0)]))
        m.attach(inj)
        assert m.link_alive(0, 0)  # nothing has polled yet
        m.charge_comm_round(1.0, dim=1)
        assert not m.link_alive(0, 0)
        assert inj.stats.link_kills == 1

    def test_killing_a_dead_node_counts_once(self):
        m = Hypercube(3, CostModel.unit())
        inj = FaultInjector(FaultPlan([
            NodeKill(10.0, pid=5),
            NodeKill(20.0, pid=5),  # already dead: not double-counted
        ]))
        m.attach(inj)
        _advance(m, 25.0)
        inj.poll(strict=False)
        assert not m.node_alive(5)
        assert inj.stats.node_kills == 1
        assert m.epoch == 1  # second kill must not bump the epoch again

    def test_bit_flip_on_killed_node_is_a_counted_noop(self):
        m = Hypercube(3, CostModel.unit())
        inj = FaultInjector(FaultPlan([
            NodeKill(10.0, pid=2),
            BitFlip(20.0, pid=2, slot=0, bit=0, target=0),
        ]))
        m.attach(inj)
        pv = PVar(m, np.arange(m.p, dtype=np.float64))
        before = pv.data.copy()
        _advance(m, 25.0)
        inj.poll(strict=False)
        assert inj.stats.bit_flips == 0
        assert inj.stats.sdc_skipped == 1
        np.testing.assert_array_equal(pv.data, before)

    def test_bit_flip_with_empty_registry_is_skipped(self):
        m = Hypercube(2, CostModel.unit())
        inj = FaultInjector(FaultPlan([BitFlip(0.0, pid=1)]))
        m.attach(inj)
        inj.poll(strict=False)  # no PVar was ever created on this machine
        assert inj.stats.bit_flips == 0
        assert inj.stats.sdc_skipped == 1

    def test_bit_flip_is_copy_on_corrupt(self):
        """Data captured before the flip stays clean; future reads see it."""
        m = Hypercube(2, CostModel.unit())
        inj = FaultInjector(FaultPlan([
            BitFlip(10.0, pid=1, slot=0, bit=7, target=0)
        ]))
        m.attach(inj)
        pv = PVar(m, np.ones((m.p, 4)))
        captured = pv.data
        _advance(m, 15.0)
        inj.poll(strict=False)
        assert inj.stats.bit_flips == 1
        assert np.array_equal(captured, np.ones((m.p, 4)))  # old readers clean
        assert not np.array_equal(pv.data, captured)        # future reads hit

    def test_bit_flip_targets_most_recent_pvar_first(self):
        m = Hypercube(2, CostModel.unit())
        inj = FaultInjector(FaultPlan([
            BitFlip(10.0, pid=0, slot=0, bit=0, target=0)
        ]))
        m.attach(inj)
        old = PVar(m, np.zeros((m.p, 2)))
        new = PVar(m, np.zeros((m.p, 2)))
        _advance(m, 15.0)
        inj.poll(strict=False)
        assert np.array_equal(old.data, np.zeros((m.p, 2)))
        assert not np.array_equal(new.data, np.zeros((m.p, 2)))

    def test_strict_poll_still_raises_after_sdc_events(self):
        m = Hypercube(2, CostModel.unit())
        inj = FaultInjector(FaultPlan([NodeKill(0.0, pid=1)]))
        m.attach(inj)
        with pytest.raises(NodeKilledError):
            m.charge_comm_round(1.0, dim=0)
        assert issubclass(CorruptionError, FaultError)


# ---------------------------------------------------------------------------
# bare-machine (no ABFT) delivery: corruption is silent
# ---------------------------------------------------------------------------


class TestSilentDelivery:
    def test_link_corrupt_silently_corrupts_an_exchange(self):
        m = Hypercube(2, CostModel.unit())
        inj = FaultInjector(FaultPlan([
            LinkCorrupt(0.0, dim=1, pid=2, slot=0, bit=3)
        ]))
        m.attach(inj)
        pv = PVar(m, np.arange(4 * m.p, dtype=np.float64).reshape(m.p, 4))
        clean = pv.data[m.neighbor_index(1)] if hasattr(m, "neighbor_index") \
            else None
        out = m.exchange(pv, dim=1)
        assert inj.stats.link_corruptions == 1
        # Exactly one byte of the received image differs from a clean swap.
        want = pv.data[[2, 3, 0, 1]]  # dim-1 neighbours on p=4
        diff = (out.data != want).sum()
        assert diff == 1
        del clean

    def test_corruption_stays_armed_until_its_dimension(self):
        m = Hypercube(2, CostModel.unit())
        inj = FaultInjector(FaultPlan([
            LinkCorrupt(0.0, dim=1, pid=0, slot=0, bit=0)
        ]))
        m.attach(inj)
        pv = PVar(m, np.zeros((m.p, 3)))
        out0 = m.exchange(pv, dim=0)  # wrong dimension: untouched
        assert np.array_equal(out0.data, np.zeros((m.p, 3)))
        assert inj.stats.link_corruptions == 0
        out1 = m.exchange(pv, dim=1)
        assert inj.stats.link_corruptions == 1
        assert not np.array_equal(out1.data, np.zeros((m.p, 3)))

    def test_stored_flip_propagates_into_results_without_abft(self):
        """The failure mode ABFT removes: a flipped matrix element changes
        the product and nobody notices."""
        rng = np.random.default_rng(0)
        M = rng.integers(-3, 4, size=(8, 8)).astype(np.float64)
        x = rng.integers(-3, 4, size=8).astype(np.float64)

        def run(plan):
            s = Session(3, "unit", faults=plan)
            from repro.algorithms import matvec

            dM = s.matrix(M)
            # Flip a high mantissa bit of dM's storage before the multiply.
            if plan is not None:
                s.machine.faults.poll(strict=False)
            return matvec.matvec(dM, s.row_vector(x, dM)).y.to_numpy()

        clean = run(None)
        flip = FaultPlan([BitFlip(0.0, pid=0, slot=6, bit=6, target=0)])
        corrupted = run(flip)
        assert not np.array_equal(corrupted, clean)


# ---------------------------------------------------------------------------
# degraded-mode translation of SDC events
# ---------------------------------------------------------------------------


class TestSdcTranslation:
    def test_bit_flip_renames_into_subcube_coordinates(self):
        m = Hypercube(3, CostModel.unit())
        inj = FaultInjector(FaultPlan([
            BitFlip(100.0, pid=6, slot=1, bit=1, target=0),
            BitFlip(100.0, pid=1, slot=1, bit=1, target=0),   # dropped
            LinkCorrupt(100.0, dim=0, pid=6, slot=0, bit=0),  # dim collapsed
            LinkCorrupt(100.0, dim=1, pid=2, slot=0, bit=0),
        ]))
        m.attach(inj)
        # Subcube keeping dims (1, 2) with bit 0 fixed to 0: pids {0,2,4,6}.
        inj.translate(free_dims=[1, 2], base=0)
        kinds = [(type(ev).__name__, getattr(ev, "pid", None),
                  getattr(ev, "dim", None)) for ev in inj._pending]
        assert ("BitFlip", 3, None) in kinds        # pid 6 -> (1,1) -> 3
        assert len([k for k in kinds if k[0] == "BitFlip"]) == 1
        assert ("LinkCorrupt", 1, 0) in kinds       # pid 2 -> 1, dim 1 -> 0
        assert len(kinds) == 2
