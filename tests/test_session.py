"""Unit tests for the Session facade (S11)."""

import numpy as np
import pytest

from repro import Session
from repro.errors import ConfigError
from repro.machine import CostModel


class TestConstruction:
    def test_default_cost_model_is_cm2(self):
        s = Session(3)
        assert s.machine.cost_model == CostModel.cm2()

    def test_preset_by_name(self):
        assert Session(3, "unit").machine.cost_model == CostModel.unit()
        assert Session(3, "cm2").machine.cost_model == CostModel.cm2()
        assert Session(2, "latency_bound").machine.cost_model.tau == 5000.0

    def test_unknown_preset(self):
        from repro.batch import BatchSession

        # Class attributes of CostModel that are not presets must not resolve.
        for name in ("warp-speed", "mro", "comm_round", "__post_init__"):
            with pytest.raises(ValueError, match="unknown cost model"):
                Session(3, name)
            with pytest.raises(ConfigError, match="unknown cost model"):
                BatchSession(3, n_runs=2, cost_model=name)

    def test_explicit_model(self):
        cm = CostModel(tau=7, t_c=1, t_a=1, t_m=1)
        assert Session(3, cm).machine.cost_model.tau == 7


class TestFactories:
    def test_matrix_vector_round_trip(self, rng):
        s = Session(4, "unit")
        A_h = rng.standard_normal((10, 6))
        v_h = rng.standard_normal(30)
        assert np.allclose(s.matrix(A_h).to_numpy(), A_h)
        assert np.allclose(s.vector(v_h).to_numpy(), v_h)

    def test_aligned_factories(self, rng):
        s = Session(4, "unit")
        A = s.matrix(rng.standard_normal((10, 6)))
        rv = s.row_vector(rng.standard_normal(6), like=A)
        cv = s.col_vector(rng.standard_normal(10), like=A)
        assert rv.embedding.replicated and cv.embedding.replicated
        # immediately usable in a matvec without remap
        y = A.matvec(rv)
        assert len(y) == 10

    def test_embedding_helpers(self, rng):
        s = Session(4, "unit")
        A = s.matrix(rng.standard_normal((8, 8)))
        assert s.row_aligned(A).L == 8
        assert s.col_aligned(A, resident=0).resident == 0
        assert s.vector_order(12).L == 12


class TestAccounting:
    def test_time_property_tracks_machine(self, rng):
        s = Session(3, "unit")
        t0 = s.time
        A = s.matrix(rng.standard_normal((6, 6)))
        A.reduce(1, "sum")
        assert s.time > t0

    def test_reset(self, rng):
        s = Session(3, "unit")
        s.matrix(rng.standard_normal((6, 6))).reduce(1, "sum")
        s.reset_counters()
        assert s.time == 0.0

    def test_report_mentions_key_fields(self, rng):
        s = Session(3, "unit")
        A = s.matrix(rng.standard_normal((6, 6)))
        with s.machine.phase("demo"):
            A.reduce(1, "sum")
        rep = s.report()
        assert "p=8" in rep
        assert "simulated time" in rep
        assert "demo" in rep

    def test_snapshot_elapsed(self, rng):
        s = Session(3, "unit")
        A = s.matrix(rng.standard_normal((6, 6)))
        snap = s.snapshot()
        A.reduce(0, "sum")
        assert s.machine.elapsed_since(snap).time > 0

    def test_report_shows_plan_cache_stats(self, rng):
        s = Session(3, "unit", plan_cache=True)
        A = s.matrix(rng.standard_normal((6, 6)))
        A.extract(axis=0, index=0)
        A.extract(axis=0, index=0)
        rep = s.report()
        assert "plan cache" in rep
        assert f"{s.machine.plans.hits} hits" in rep
        assert f"{s.machine.plans.misses} misses" in rep
        data = s.report_data()
        assert data["plan_cache"]["enabled"] is True
        assert data["plan_cache"]["hits"] == s.machine.plans.hits

    def test_report_shows_plan_cache_disabled(self, rng):
        s = Session(3, "unit", plan_cache=False)
        assert "plan cache        : disabled" in s.report()
        assert s.report_data()["plan_cache"] == {"enabled": False}
