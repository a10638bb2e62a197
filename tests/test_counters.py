"""Unit tests for cycle accounting (S1)."""

import numpy as np
import pytest

from repro.batch.counters import LaneCounters
from repro.errors import ConfigError
from repro.machine import Counters, CostSnapshot


class TestCharging:
    def test_charge_time_accumulates(self):
        c = Counters()
        c.charge_time(5.0)
        c.charge_time(2.5)
        assert c.time == 7.5

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Counters().charge_time(-1.0)

    def test_charge_flops_tracks_count_and_time(self):
        c = Counters()
        c.charge_flops(100, 10.0)
        assert c.flops == 100
        assert c.time == 10.0

    def test_charge_transfer_tracks_all_three(self):
        c = Counters()
        c.charge_transfer(64, 2, 20.0)
        assert c.elements_transferred == 64
        assert c.comm_rounds == 2
        assert c.time == 20.0

    def test_charge_local(self):
        c = Counters()
        c.charge_local(16, 4.0)
        assert c.local_moves == 16
        assert c.time == 4.0

    def test_reset_clears_everything(self):
        c = Counters()
        c.charge_flops(5, 1.0)
        c.charge_transfer(3, 1, 2.0)
        with c.phase("x"):
            c.charge_time(1.0)
        c.reset()
        assert c.time == 0 and c.flops == 0 and c.comm_rounds == 0
        assert c.phase_times == {}

    def test_reset_clears_plan_cache_stats(self):
        c = Counters()
        c.plan_hits = 3
        c.plan_misses = 7
        c.plan_evictions = 1
        c.reset()
        assert (c.plan_hits, c.plan_misses, c.plan_evictions) == (0, 0, 0)


class TestNegativeGuards:
    def test_negative_flop_count_rejected(self):
        with pytest.raises(ValueError):
            Counters().charge_flops(-1, 1.0)

    def test_negative_transfer_elements_rejected(self):
        with pytest.raises(ValueError):
            Counters().charge_transfer(-4, 1, 1.0)

    def test_negative_transfer_rounds_rejected(self):
        with pytest.raises(ValueError):
            Counters().charge_transfer(4, -1, 1.0)

    def test_negative_local_moves_rejected(self):
        with pytest.raises(ValueError):
            Counters().charge_local(-2, 1.0)

    def test_rejected_charge_leaves_counters_untouched(self):
        c = Counters()
        c.charge_flops(10, 5.0)
        with pytest.raises(ValueError):
            c.charge_flops(-1, 1.0)
        assert c.flops == 10
        assert c.time == 5.0

    def test_zero_counts_still_allowed(self):
        c = Counters()
        c.charge_flops(0, 0.0)
        c.charge_transfer(0, 0, 0.0)
        c.charge_local(0, 0.0)
        assert c.time == 0.0


class TestPhases:
    def test_phase_attribution(self):
        c = Counters()
        with c.phase("reduce"):
            c.charge_time(3.0)
        c.charge_time(1.0)
        assert c.phase_times["reduce"] == 3.0
        assert c.time == 4.0

    def test_nested_phases_charge_both(self):
        c = Counters()
        with c.phase("outer"):
            c.charge_time(1.0)
            with c.phase("inner"):
                c.charge_time(2.0)
        assert c.phase_times["outer"] == 3.0
        assert c.phase_times["inner"] == 2.0

    def test_reentrant_same_phase_not_double_counted(self):
        c = Counters()
        with c.phase("p"):
            with c.phase("p"):
                c.charge_time(2.0)
        assert c.phase_times["p"] == 2.0

    def test_phase_breakdown_sorted_descending(self):
        c = Counters()
        with c.phase("small"):
            c.charge_time(1.0)
        with c.phase("big"):
            c.charge_time(9.0)
        names = [name for name, _ in c.phase_breakdown()]
        assert names == ["big", "small"]

    def test_phase_exits_cleanly_on_exception(self):
        c = Counters()
        with pytest.raises(RuntimeError):
            with c.phase("x"):
                raise RuntimeError("boom")
        # subsequent charges must not leak into the closed phase
        c.charge_time(5.0)
        assert c.phase_times.get("x", 0.0) == 0.0

    def test_exception_unwinds_nested_stack(self):
        c = Counters()
        with pytest.raises(RuntimeError):
            with c.phase("outer"):
                c.charge_time(1.0)
                with c.phase("inner"):
                    c.charge_time(2.0)
                    raise RuntimeError("boom")
        # both frames popped: later charges attribute to neither phase
        c.charge_time(10.0)
        assert c.phase_times["outer"] == 3.0
        assert c.phase_times["inner"] == 2.0
        # and the stack is reusable
        with c.phase("after"):
            c.charge_time(4.0)
        assert c.phase_times["after"] == 4.0

    def test_reentrant_phase_under_different_parent(self):
        c = Counters()
        with c.phase("a"):
            with c.phase("b"):
                with c.phase("a"):  # re-entry of "a" deeper in the stack
                    c.charge_time(2.0)
        assert c.phase_times["a"] == 2.0
        assert c.phase_times["b"] == 2.0

    def test_phase_breakdown_stable_for_ties(self):
        c = Counters()
        with c.phase("zeta"):
            c.charge_time(1.0)
        with c.phase("alpha"):
            c.charge_time(1.0)
        # equal times: breakdown must still list every phase exactly once
        names = sorted(name for name, _ in c.phase_breakdown())
        assert names == ["alpha", "zeta"]


class TestSnapshots:
    def test_snapshot_is_immutable_copy(self):
        c = Counters()
        c.charge_flops(10, 2.0)
        snap = c.snapshot()
        c.charge_flops(10, 2.0)
        assert snap.flops == 10
        assert c.flops == 20

    def test_snapshot_difference(self):
        c = Counters()
        c.charge_transfer(10, 1, 5.0)
        before = c.snapshot()
        c.charge_transfer(20, 2, 7.0)
        delta = c.snapshot() - before
        assert delta.elements_transferred == 20
        assert delta.comm_rounds == 2
        assert delta.time == 7.0

    def test_as_dict_round_trip(self):
        snap = CostSnapshot(time=1.0, flops=2.0, elements_transferred=3.0,
                            comm_rounds=4, local_moves=5.0)
        d = snap.as_dict()
        assert d["time"] == 1.0
        assert d["comm_rounds"] == 4.0
        assert set(d) == {
            "time", "flops", "elements_transferred", "comm_rounds", "local_moves"
        }


def _totals(c):
    """Every cost field and phase time of ``c`` as plain lists."""
    snap = c.snapshot()
    fields = [
        np.asarray(getattr(snap, name)).tolist()
        for name in ("time", "flops", "elements_transferred", "comm_rounds",
                     "local_moves")
    ]
    phases = {k: np.asarray(v).tolist() for k, v in c.phase_times.items()}
    return fields, phases


NAN = float("nan")


@pytest.mark.parametrize(
    "make", [Counters, lambda: LaneCounters(3)], ids=["scalar", "lanes"]
)
@pytest.mark.parametrize(
    "method, args",
    [
        ("charge_time", (NAN,)),
        ("charge_flops", (NAN, 1.0)),
        ("charge_flops", (4, NAN)),
        ("charge_transfer", (NAN, 1, 1.0)),
        ("charge_transfer", (4, NAN, 1.0)),
        ("charge_transfer", (4, 1, NAN)),
        ("charge_local", (NAN, 1.0)),
        ("charge_local", (4, NAN)),
    ],
)
def test_nan_charge_rejected_and_counters_untouched(make, method, args):
    """A NaN amount would turn the simulated clock into NaN for good."""
    c = make()
    with c.phase("outer"):
        c.charge_transfer(8, 1, 3.0)
        c.charge_flops(2, 1.5)
        before = _totals(c)
        with pytest.raises(ConfigError, match="negative or NaN"):
            getattr(c, method)(*args)
    assert _totals(c) == before
