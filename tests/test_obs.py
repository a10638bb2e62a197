"""Tests for the tracing/observability layer (``repro.obs``).

The two load-bearing guarantees:

* **bit-identical costs** — simulated ticks and every ``CostSnapshot``
  field are exactly the same with tracing on, off, or absent, and the
  ``ticks`` column of the tracer's profile sums exactly to them;
* **phase fidelity** — per-phase span durations sum to the
  ``phase_times`` the counters report.
"""

import json

import numpy as np
import pytest

from repro import Session
from repro import workloads as W
from repro.algorithms import gaussian, matvec, simplex
from repro.algorithms import graph as G
from repro.algorithms.naive import NaiveVector
from repro.env import env_flag
from repro.machine.hypercube import Hypercube
from repro.obs import (
    Tracer,
    chrome_trace_events,
    maybe_span,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    validate_chrome_trace_file,
)
from repro.obs.tracer import ENV_FLAG, NULL_CONTEXT


def run_gaussian(session, size=12, seed=0):
    A_host, b, _ = W.random_system(size, seed=seed)
    return gaussian.solve(session.matrix(A_host), b)


def run_simplex(session, m=5, n=4, seed=0):
    lp = W.feasible_lp(m, n, seed=seed)
    return simplex.solve(session.machine, lp.A, lp.b, lp.c)


def run_matvec(session, n=16, seed=0):
    """The matvec application on integer data (exact reductions)."""
    rng = np.random.default_rng(seed)
    A = session.matrix(rng.integers(-3, 4, size=(n, n)).astype(np.float64))
    x = session.row_vector(rng.integers(-3, 4, size=n).astype(np.float64), A)
    return matvec.matvec(A, x).y.to_numpy()


def run_bfs(session, nodes=32, seed=0):
    return G.bfs(session, W.random_graph(nodes, 3.0, seed=seed), 0)


def run_primitives(session, rows=12, cols=8, seed=0):
    """All four primitives once (the demo workload, compact)."""
    rng = np.random.default_rng(seed)
    A = session.matrix(rng.standard_normal((rows, cols)))
    with session.machine.phase("demo"):
        row = A.extract(axis=0, index=0)
        A2 = A.insert(axis=0, index=rows - 1, vector=row)
        row.distribute(A, axis=0)
        A2.reduce(axis=1, op="sum")
    return A


class TestNullDefault:
    def test_machine_has_no_tracer_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert Session(3).machine.tracer is None
        assert Hypercube(3).tracer is None

    def test_maybe_span_is_shared_noop_without_tracer(self):
        m = Hypercube(2)
        assert maybe_span(m, "x", "primitive") is NULL_CONTEXT
        assert maybe_span(m, "y", "collective") is NULL_CONTEXT

    def test_attach_and_detach(self):
        m = Hypercube(2)
        t = m.attach(Tracer())
        assert m.tracer is t
        assert t.machine is m
        m.tracer = None
        assert m.tracer is None

    def test_tracer_rejects_second_machine(self):
        t = Tracer()
        Hypercube(2).attach(t)
        with pytest.raises(ValueError):
            Hypercube(3).attach(t)


class TestEnvFlag:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert not env_flag(ENV_FLAG)

    @pytest.mark.parametrize("value", ["1", "on", "true", "YES"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_FLAG, value)
        assert env_flag(ENV_FLAG)
        assert Session(2).tracer is not None

    @pytest.mark.parametrize("value", ["", "0", "off", "no"])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_FLAG, value)
        assert not env_flag(ENV_FLAG)
        assert Session(2).tracer is None

    def test_constructor_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert Session(2, trace=False).tracer is None


WORKLOADS = [run_gaussian, run_simplex, run_primitives, run_matvec, run_bfs]


class TestBitIdenticalCosts:
    """The hard invariant: tracing must never change a single charge."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_totals_identical_trace_on_and_off(self, workload):
        off = Session(4, trace=False)
        workload(off)
        on = Session(4, trace=True)
        workload(on)
        assert on.snapshot().as_dict() == off.snapshot().as_dict()
        assert on.machine.counters.phase_times == off.machine.counters.phase_times

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_sanitized_totals_identical_trace_on_and_off(self, workload):
        """Sanitizer hooks open spans when traced; they still charge nothing."""
        off = Session(4, sanitize=True, trace=False)
        workload(off)
        on = Session(4, sanitize=True, trace=True)
        workload(on)
        assert on.tracer.find(name="sanitizer-checks", category="check")
        assert on.snapshot().as_dict() == off.snapshot().as_dict()
        assert on.machine.counters.phase_times == off.machine.counters.phase_times
        assert on.sanitizer.stats.checks == off.sanitizer.stats.checks

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_ticks_column_sums_to_counters_time(self, workload, sanitize):
        """The profile's ledger holds both clocks: every tick lands in
        exactly one span's self ticks."""
        s = Session(4, sanitize=sanitize, trace=True)
        with s.tracer.span("run", "run"):
            workload(s)
        rows = s.tracer.profile(top_n=None)["phases"]
        assert s.machine.counters.time > 0
        assert sum(row["ticks"] for row in rows) == s.machine.counters.time

    def test_gaussian_pinned_totals(self):
        """Regression pin: trace-on totals equal the untraced seed values."""
        off = Session(4, trace=False)
        run_gaussian(off, size=16, seed=3)
        expected = off.snapshot().as_dict()
        on = Session(4, trace=True)
        run_gaussian(on, size=16, seed=3)
        assert on.snapshot().as_dict() == expected


class TestSpanTree:
    def test_primitive_spans_cover_all_four(self):
        s = Session(4, trace=True)
        run_primitives(s)
        names = {sp.name for sp in s.tracer.find(category="primitive")}
        assert {"extract", "insert", "distribute", "reduce"} <= names

    def test_spans_nest_under_phase(self):
        s = Session(4, trace=True)
        run_primitives(s)
        demo = s.tracer.find(name="demo", category="phase")
        assert len(demo) == 1
        child_names = {c.name for c in demo[0].children}
        assert {"extract", "insert", "distribute", "reduce"} <= child_names

    def test_span_cost_is_counter_delta(self):
        s = Session(4, trace=True)
        before = s.snapshot()
        run_primitives(s)
        total = s.snapshot() - before
        demo = s.tracer.find(name="demo", category="phase")[0]
        # the demo phase span is the only root covering those charges
        assert demo.cost.time == pytest.approx(
            s.machine.counters.phase_times["demo"]
        )
        assert demo.cost.time <= total.time

    def test_phase_durations_sum_to_phase_times(self):
        s = Session(4, trace=True)
        run_gaussian(s)
        phase_times = s.machine.counters.phase_times
        assert phase_times  # gaussian charges several phases
        spans = s.tracer.find(category="phase")
        by_name = {}
        for sp in spans:
            by_name[sp.name] = by_name.get(sp.name, 0.0) + sp.duration
        for name, t in phase_times.items():
            assert by_name.get(name, 0.0) == pytest.approx(t), name

    def test_same_name_phase_reentry_opens_one_span(self):
        s = Session(2, trace=True)
        with s.machine.phase("p"):
            with s.machine.phase("p"):
                s.machine.counters.charge_time(2.0)
        spans = s.tracer.find(name="p", category="phase")
        assert len(spans) == 1
        assert spans[0].duration == pytest.approx(2.0)

    def test_span_closes_on_exception(self):
        s = Session(2, trace=True)
        with pytest.raises(RuntimeError):
            with s.tracer.span("boom", "test"):
                s.machine.counters.charge_time(1.0)
                raise RuntimeError("x")
        assert s.tracer.current is None
        span = s.tracer.find(name="boom")[0]
        assert span.closed
        assert span.duration == pytest.approx(1.0)

    def test_plan_cache_traffic_recorded_on_spans(self):
        s = Session(4, trace=True)
        if not s.machine.plans.enabled:
            pytest.skip("plan cache disabled via environment")
        run_gaussian(s)
        spans = list(s.tracer.iter_spans())
        assert any(sp.plan_misses > 0 for sp in spans)
        assert any(sp.plan_hits > 0 for sp in spans)

    def test_route_spans_record_congestion_rounds(self):
        # plan cache off: the live e-cube routing loop runs and is spanned
        s = Session(4, trace=True, plan_cache=False)
        rng = np.random.default_rng(0)
        A = s.matrix(rng.standard_normal((8, 8)))
        from repro.embeddings.remap import transpose
        transpose(A.pvar, A.embedding, same_grid=True)
        routes = s.tracer.find(name="route", category="route")
        assert routes
        assert any(r.rounds for r in routes)
        for r in routes:
            for dim, congestion in r.rounds:
                assert 0 <= dim < s.machine.n
                assert congestion > 0

    def test_cached_plan_replay_keeps_congestion_exact(self):
        """A plan-cache replay must report the same per-dim congestion the
        live routing loop would."""
        from repro.embeddings.remap import transpose

        def rounds_of(session):
            rng = np.random.default_rng(0)
            A = session.matrix(rng.standard_normal((8, 8)))
            span_ctx = session.tracer.span("probe", "test")
            with span_ctx as span:
                transpose(A.pvar, A.embedding, same_grid=True)
                transpose(A.pvar, A.embedding, same_grid=True)
            return span.subtree_rounds()

        live = Session(4, trace=True, plan_cache=False)
        cached = Session(4, trace=True, plan_cache=True)
        assert rounds_of(cached) == rounds_of(live)


class TestReport:
    def test_report_has_primitive_breakdown(self):
        s = Session(4, trace=True)
        run_primitives(s)
        report = s.report()
        assert "primitive breakdown:" in report
        for name in ("extract", "insert", "distribute", "reduce"):
            assert name in report

    def test_report_unchanged_without_tracer(self):
        s = Session(4, trace=False)
        run_primitives(s)
        assert "primitive breakdown" not in s.report()

    def test_report_data_is_json_serialisable(self):
        s = Session(4, trace=True)
        run_primitives(s)
        data = json.loads(json.dumps(s.report_data()))
        assert set(data["primitive_breakdown"]) >= {
            "extract", "insert", "distribute", "reduce"
        }
        row = data["primitive_breakdown"]["reduce"]
        assert row["count"] == 1
        assert row["time"] > 0
        assert "congestion" in data

    def test_primitive_summary_counts_calls(self):
        s = Session(3, trace=True)
        A = s.matrix(np.arange(16.0).reshape(4, 4))
        A.extract(axis=0, index=0)
        A.extract(axis=0, index=1)
        summary = s.tracer.primitive_summary()
        assert summary["extract"]["count"] == 2


class TestCongestion:
    def test_heatmap_shape_and_volume(self):
        s = Session(3, trace=True)
        run_primitives(s, rows=8, cols=8)
        agg = s.tracer.congestion
        hm = agg.heatmap()
        assert hm.shape == (s.machine.n, s.machine.p)
        assert hm.sum() > 0
        assert agg.rounds > 0
        assert agg.max_congestion() > 0

    def test_summary_percentiles_ordered(self):
        s = Session(3, trace=True)
        run_gaussian(s, size=8)
        summary = s.tracer.congestion.summary()
        assert summary["congestion_p50"] <= summary["congestion_p99"]
        assert summary["congestion_p99"] <= summary["max_congestion"]

    def test_many_to_one_congestion_exceeds_permutation(self):
        """The paper's headline contrast: a permutation routes congestion-
        free (every link carries one message) while many-to-one traffic
        serialises on the links near the destination."""
        from repro.machine.router import Router

        n = 4
        perm = Session(n, trace=True, plan_cache=False)
        m = perm.machine
        Router(m).simulate(m.pids(), m.pids() ^ 1, np.ones(m.p))
        assert perm.tracer.congestion.max_congestion() == 1.0

        funnel = Session(n, trace=True, plan_cache=False)
        m = funnel.machine
        Router(m).simulate(
            m.pids(), np.zeros(m.p, dtype=np.int64), np.ones(m.p)
        )
        # e-cube funnelling doubles the load every dimension: the last
        # round squeezes p/2 messages over the destination's link
        assert funnel.tracer.congestion.max_congestion() == m.p / 2
        # ... and the heatmap shows it: the worst link carries far more
        # than the per-link mean of its dimension row
        hm = funnel.tracer.congestion.heatmap()
        worst_dim = hm.max(axis=1).argmax()
        assert hm[worst_dim].max() > 4 * hm[worst_dim].mean()

    def test_naive_serialisation_inflates_rounds_not_uniform_volume(self):
        """The naive baseline pays 2^k - 1 serial rounds where the
        primitives pay k dimension-exchanges — visible as round count and
        total traffic in the aggregator."""
        n, length = 4, 64
        prim = Session(n, trace=True)
        prim.vector(np.arange(length, dtype=float)).reduce(op="sum")
        naive = Session(n, trace=True)
        NaiveVector.from_numpy(
            naive.machine, np.arange(length, dtype=float)
        ).reduce(op="sum")
        assert naive.tracer.congestion.rounds > prim.tracer.congestion.rounds
        assert (
            sum(naive.tracer.congestion.dim_volume.values())
            > sum(prim.tracer.congestion.dim_volume.values())
        )

    def test_histogram_matches_round_count(self):
        s = Session(3, trace=True)
        run_primitives(s, rows=8, cols=8)
        agg = s.tracer.congestion
        counts, _ = agg.histogram(bins=8)
        assert counts.sum() == agg.rounds


class TestExport:
    def test_jsonl_export(self, tmp_path):
        s = Session(3, trace=True)
        run_primitives(s, rows=8, cols=8)
        path = tmp_path / "trace.jsonl"
        lines = to_jsonl(s.tracer, str(path))
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(records) == lines
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == "repro-trace-v1"
        assert records[0]["p"] == s.machine.p
        spans = [r for r in records if r["type"] == "span"]
        assert {r["name"] for r in spans} >= {"extract", "insert"}
        for r in spans:
            assert r["dur"] >= 0
            assert set(r["cost"]) == {
                "time", "flops", "elements_transferred", "comm_rounds",
                "local_moves",
            }

    def test_chrome_trace_round_trip(self, tmp_path):
        s = Session(3, trace=True)
        run_primitives(s, rows=8, cols=8)
        path = tmp_path / "trace.json"
        doc = to_chrome_trace(s.tracer, str(path))
        counts = validate_chrome_trace_file(str(path))
        closed = sum(1 for sp in s.tracer.iter_spans() if sp.closed)
        assert counts["spans"] == closed
        # B/E pairs plus the two metadata records
        assert counts["events"] == 2 * closed + 2
        assert validate_chrome_trace(doc) == counts

    def test_chrome_events_are_nested_and_monotonic(self):
        s = Session(3, trace=True)
        run_gaussian(s, size=8)
        events = chrome_trace_events(s.tracer)
        validate_chrome_trace(events)
        ts = [e["ts"] for e in events if e["ph"] in ("B", "E")]
        assert ts == sorted(ts)

    def test_validator_rejects_backwards_time(self):
        events = [
            {"ph": "B", "pid": 0, "tid": 0, "name": "a", "ts": 5.0},
            {"ph": "E", "pid": 0, "tid": 0, "name": "a", "ts": 4.0},
        ]
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace(events)

    def test_validator_rejects_unclosed_span(self):
        events = [{"ph": "B", "pid": 0, "tid": 0, "name": "a", "ts": 0.0}]
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(events)

    def test_validator_rejects_mismatched_close(self):
        events = [
            {"ph": "B", "pid": 0, "tid": 0, "name": "a", "ts": 0.0},
            {"ph": "E", "pid": 0, "tid": 0, "name": "b", "ts": 1.0},
        ]
        with pytest.raises(ValueError):
            validate_chrome_trace(events)

    def test_validator_rejects_stray_end(self):
        events = [{"ph": "E", "pid": 0, "tid": 0, "name": "a", "ts": 0.0}]
        with pytest.raises(ValueError, match="no open"):
            validate_chrome_trace(events)

    def test_empty_trace_exports(self, tmp_path):
        """A tracer that saw no spans still produces valid documents."""
        s = Session(3, trace=True)
        jsonl_path = tmp_path / "empty.jsonl"
        assert to_jsonl(s.tracer, str(jsonl_path)) == 1  # meta line only
        meta = json.loads(jsonl_path.read_text())
        assert meta["type"] == "meta"
        doc = to_chrome_trace(s.tracer, str(tmp_path / "empty.json"))
        counts = validate_chrome_trace(doc)
        assert counts["spans"] == counts["instants"] == 0
        assert counts["events"] == 2  # the two metadata records

    def test_instant_only_trace(self, tmp_path):
        """Instant events export on their own thread with no span tree."""
        s = Session(3, trace=True)
        s.tracer.instant("marker-a", "test", detail=1)
        s.tracer.instant("marker-b", "test")
        doc = to_chrome_trace(s.tracer, str(tmp_path / "instants.json"))
        counts = validate_chrome_trace(doc)
        assert counts["instants"] == 2
        assert counts["spans"] == 0
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "i"}
        assert tids == {1}

    def test_validator_accepts_counter_events(self):
        events = [
            {"ph": "C", "pid": 0, "tid": 2, "name": "machine", "ts": 0.0,
             "args": {"ticks": 1.0}},
            {"ph": "C", "pid": 0, "tid": 2, "name": "machine", "ts": 5.0,
             "args": {"ticks": 2.0}},
        ]
        assert validate_chrome_trace(events)["counters"] == 2

    def test_validator_rejects_counter_without_ts(self):
        events = [{"ph": "C", "pid": 0, "tid": 2, "name": "machine"}]
        with pytest.raises(ValueError, match="missing"):
            validate_chrome_trace(events)

    def test_validator_rejects_backwards_counter_track(self):
        events = [
            {"ph": "C", "pid": 0, "tid": 2, "name": "machine", "ts": 5.0},
            {"ph": "C", "pid": 0, "tid": 2, "name": "machine", "ts": 4.0},
        ]
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace(events)

    def test_extra_events_ride_along(self, tmp_path):
        s = Session(3, trace=True)
        run_primitives(s, rows=8, cols=8)
        extra = [
            {"ph": "C", "pid": 0, "tid": 2, "name": "machine", "ts": 0.0,
             "args": {"ticks": 0.0}},
        ]
        doc = to_chrome_trace(
            s.tracer, str(tmp_path / "extra.json"), extra_events=extra
        )
        counts = validate_chrome_trace(doc)
        assert counts["counters"] == 1
        assert doc["traceEvents"][-1]["ph"] == "C"


class TestRouteStatsReplay:
    def test_dim_congestion_identical_through_plan_cache(self):
        """A cached route plan replays the exact per-round ``(dim,
        congestion)`` profile the live routing loop recorded."""

        from repro.machine import Router

        def stats_pair(session):
            m = session.machine
            router = Router(m)
            rng = np.random.default_rng(7)
            src = np.arange(m.p, dtype=np.int64)
            dst = rng.permutation(m.p).astype(np.int64)
            sizes = rng.integers(1, 5, size=m.p).astype(np.float64)
            first = router.simulate(src, dst, sizes)
            second = router.simulate(src, dst, sizes)
            return first, second

        live_first, live_second = stats_pair(Session(4, plan_cache=False))
        cached_session = Session(4, plan_cache=True)
        cached_first, cached_second = stats_pair(cached_session)

        assert cached_session.machine.counters.plan_hits >= 1
        assert live_first.dim_congestion == live_second.dim_congestion
        assert cached_second.dim_congestion == live_first.dim_congestion
        assert len(cached_second.dim_congestion) == cached_second.rounds
        assert cached_second.max_congestion == max(
            c for _, c in cached_second.dim_congestion
        )
        assert cached_second.time == live_second.time
