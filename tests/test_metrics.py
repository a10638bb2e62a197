"""Tests for the metrics registry and the span tree's host-time profile.

The two load-bearing guarantees, mirroring the tracer's contract:

* **bit-identical costs** — simulated ticks and every cost counter are
  exactly the same with metrics and tracing on, off, or absent, pinned in
  a fresh subprocess so no interpreter state can leak between the arms;
* **attribution fidelity** — the exclusive host seconds per span name sum
  (with the unattributed ``run`` window) to the measured wall interval,
  and on a real sanitize-on run at least 90% of host time lands on a
  named span.
"""

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Session
from repro import workloads as W
from repro.algorithms import gaussian
from repro.check import MachineSanitizer
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.machine.hypercube import Hypercube
from repro.metrics import MetricsRegistry
from repro.metrics.registry import MAX_SNAPSHOTS, SCHEMA
from repro.obs import (
    Tracer,
    chrome_trace_events,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.tracer import UNATTRIBUTED

SRC = str(Path(__file__).resolve().parent.parent / "src")
SUBPROCESS_ENV = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}


def run_gaussian(session, size=12, seed=0):
    A_host, b, _ = W.random_system(size, seed=seed)
    return gaussian.solve(session.matrix(A_host), b)


def rows_by_label(tracer):
    """Every row of the tracer's profile, keyed by label."""
    return {row["label"]: row for row in tracer.profile(top_n=None)["phases"]}


class FakeClock:
    """Deterministic clock: each tick() advances by a scripted delta."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# -- null-by-default contract -------------------------------------------------


class TestNullDefault:
    def test_machine_has_no_metrics_or_profiler_by_default(self, monkeypatch):
        """Host time comes from the tracer, which is null by default too."""
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        s = Session(3)
        assert s.machine.metrics is None
        assert s.machine.tracer is None
        assert Hypercube(3).metrics is None
        assert Hypercube(3).tracer is None

    def test_env_flags_attach(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        monkeypatch.setenv("REPRO_TRACE", "1")
        s = Session(3)
        assert isinstance(s.metrics, MetricsRegistry)
        assert isinstance(s.tracer, Tracer)

    def test_registry_rejects_second_machine(self):
        r = MetricsRegistry()
        Hypercube(2).attach(r)
        with pytest.raises(ConfigError):
            Hypercube(3).attach(r)


# -- registry: names, kinds, publication --------------------------------------


class TestRegistry:
    def test_rejects_bad_names(self):
        r = MetricsRegistry()
        for bad in ("nodots", "Upper.case", "plan cache.hits", ".leading",
                    "trailing.", "1starts.with_digit"):
            with pytest.raises(ConfigError):
                r.register(bad)

    def test_rejects_bad_kind(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().register("a.b", kind="histogram")

    def test_register_idempotent_but_conflicts_fail(self):
        r = MetricsRegistry()
        m1 = r.register("plan_cache.hits", unit="count")
        assert r.register("plan_cache.hits", unit="count") is m1
        with pytest.raises(ConfigError):
            r.register("plan_cache.hits", kind="gauge", unit="count")
        with pytest.raises(ConfigError):
            r.register("plan_cache.hits", unit="ticks")

    def test_publish_outside_collection_only_registers(self):
        r = MetricsRegistry()
        r.publish("machine.ticks", 42.0, unit="ticks")
        assert "machine.ticks" in r.metrics
        assert r.snapshots == []

    def test_nested_collection_fails(self):
        r = MetricsRegistry()

        class Evil:
            def publish_metrics(self, registry):
                registry.collect_from(self)

        with pytest.raises(ConfigError):
            r.collect_from(Evil())

    def test_collect_matches_counters(self):
        s = Session(4, metrics=True)
        run_gaussian(s, size=12)
        values = s.metrics.collect()
        snap = s.machine.counters.snapshot()
        assert values["machine.ticks"] == snap.time
        assert values["machine.flops"] == snap.flops
        assert values["machine.comm_rounds"] == snap.comm_rounds
        assert values["plan_cache.hits"] == s.machine.counters.plan_hits
        assert values["plan_cache.enabled"] == 1.0

    def test_collect_includes_sanitizer_and_detours(self):
        plan = FaultPlan.random(4, seed=3, horizon=5e3, link_kills=2, drops=0)
        s = Session(
            4, faults=plan, sanitize=MachineSanitizer(), metrics=True
        )
        run_gaussian(s, size=10)
        values = s.metrics.collect()
        assert values["sanitizer.checks"] > 0
        assert values["sanitizer.sample_every"] == 1.0
        # detour_rounds is published under the router namespace
        assert "router.detours" in values
        assert values["router.detours"] == s.faults.stats.detour_rounds

    def test_abft_metrics_published(self):
        s = Session(4, abft=True, metrics=True)
        run_gaussian(s, size=10)
        values = s.metrics.collect()
        assert values["abft.protected"] > 0
        assert "abft.scrub_rounds" in values


# -- snapshots and export -----------------------------------------------------


class TestSnapshots:
    def test_phase_exit_autosnapshots(self):
        s = Session(3, metrics=True)
        run_gaussian(s, size=8)
        labels = [snap["label"] for snap in s.metrics.snapshots]
        assert labels, "gaussian run produced no phase-exit snapshots"
        assert all(l.startswith("phase:") for l in labels)
        times = [snap["sim_time"] for snap in s.metrics.snapshots]
        assert times == sorted(times)

    def test_snapshot_cap(self):
        r = MetricsRegistry(max_snapshots=3)
        r.bind(Hypercube(2))
        for i in range(10):
            r.on_phase_exit(f"p{i}")
        assert len(r.snapshots) == 3
        with pytest.raises(ConfigError):
            MetricsRegistry(max_snapshots=0)
        assert MAX_SNAPSHOTS >= 1024  # default generous enough for real runs

    def test_to_jsonl_schema(self, tmp_path):
        s = Session(3, metrics=True)
        run_gaussian(s, size=8)
        out = tmp_path / "metrics.jsonl"
        lines = s.metrics.to_jsonl(str(out))
        raw = out.read_text().splitlines()
        assert lines == len(raw) == len(s.metrics.snapshots) + 1
        meta = json.loads(raw[0])
        assert meta["type"] == "meta"
        assert meta["schema"] == SCHEMA
        assert meta["p"] == 8
        for line in raw[1:]:
            rec = json.loads(line)
            assert set(rec) == {"type", "label", "sim_time", "values"}
            assert rec["type"] == "snapshot"
            assert rec["values"]["machine.ticks"] <= s.machine.counters.time

    def test_counter_track_validates_as_chrome_trace(self):
        s = Session(3, metrics=True)
        run_gaussian(s, size=8)
        events = s.metrics.counter_track_events()
        names = {e["name"] for e in events if e["ph"] == "C"}
        # dot-prefix grouping: one track per subsystem
        assert "machine" in names and "plan_cache" in names
        stats = validate_chrome_trace(events)
        assert stats["counters"] > 0
        assert stats["spans"] == 0

    def test_counter_track_empty_without_snapshots(self):
        assert MetricsRegistry().counter_track_events() == []


# -- host-time profile: a fold over the span tree ------------------------------


class TestProfiler:
    def test_exclusive_attribution_with_fake_clock(self):
        clock = FakeClock()
        machine = Hypercube(3)
        tracer = machine.attach(Tracer(clock=clock))
        with tracer.span("run", "run"):
            clock.advance(1.0)               # -> (unattributed)
            with machine.phase("outer"):
                clock.advance(2.0)           # -> outer
                with machine.phase("inner"):
                    clock.advance(4.0)       # -> inner (exclusive!)
                clock.advance(8.0)           # -> outer again
            clock.advance(0.5)               # -> (unattributed)
        profile = tracer.profile()
        rows = rows_by_label(tracer)
        assert profile["total_s"] == pytest.approx(15.5)
        assert rows["outer"]["seconds"] == pytest.approx(10.0)
        assert rows["inner"]["seconds"] == pytest.approx(4.0)
        assert rows[UNATTRIBUTED]["seconds"] == pytest.approx(1.5)
        assert profile["attributed_s"] == pytest.approx(14.0)
        assert profile["coverage"] == pytest.approx(14.0 / 15.5)
        counts = {label: row["count"] for label, row in rows.items()
                  if label != UNATTRIBUTED}
        assert counts == {"outer": 1, "inner": 1}

    def test_table_and_format(self):
        clock = FakeClock()
        machine = Hypercube(3)
        tracer = machine.attach(Tracer(clock=clock))
        with tracer.span("run", "run"):
            with machine.phase("slow"):
                clock.advance(3.0)
            with machine.phase("fast"):
                clock.advance(1.0)
        table = tracer.profile(top_n=1)["phases"]
        assert table[0]["label"] == "slow"
        assert table[0]["seconds"] == pytest.approx(3.0)
        assert table[0]["share"] == pytest.approx(0.75)
        text = tracer.format_profile()
        assert "slow" in text and "fast" in text

    def test_sanitizer_proxy_attribution(self):
        """The sanitizer's own hooks open ``sanitizer-checks`` spans, so
        the attached sanitizer is never replaced by a stand-in."""
        s = Session(3, sanitize=True, trace=True)
        assert type(s.machine.sanitizer) is MachineSanitizer
        with s.tracer.span("run", "run"):
            run_gaussian(s, size=8)
        row = rows_by_label(s.tracer)["sanitizer-checks"]
        assert row["seconds"] > 0.0
        assert row["category"] == "check"

    def test_coverage_on_sanitized_gaussian(self):
        """Acceptance: >= 90% of host time attributed on a sanitize-on run."""
        s = Session(5, sanitize=True, trace=True)
        A_host, b, _ = W.random_system(24, seed=0)
        A = s.matrix(A_host)
        with s.tracer.span("run", "run"):
            gaussian.solve(A, b)
        profile = s.tracer.profile()
        assert profile["coverage"] >= 0.9
        assert rows_by_label(s.tracer)["sanitizer-checks"]["seconds"] > 0.0
        assert profile["categories"].get("check", 0.0) > 0.0

    def test_spans_carry_wall_seconds(self):
        s = Session(3, trace=True)
        with s.tracer.span("run", "run"):
            run_gaussian(s, size=8)
        events = chrome_trace_events(s.tracer)
        begins = [e for e in events if e["ph"] == "B"]
        assert begins and all(e["args"]["wall_s"] >= 0.0 for e in begins)
        assert begins[0]["name"] == "run"
        assert begins[0]["args"]["wall_s"] == s.tracer.profile()["total_s"]
        assert validate_chrome_trace(events)["spans"] == len(begins)
        buf = io.StringIO()
        to_jsonl(s.tracer, buf)
        spans = [json.loads(line) for line in buf.getvalue().splitlines()[1:]]
        assert spans and all("wall_s" in rec for rec in spans)

    def test_as_dict_round_trips_to_json(self):
        s = Session(3, trace=True)
        with s.tracer.span("run", "run"):
            run_gaussian(s, size=8)
        data = json.loads(json.dumps(s.tracer.profile()))
        assert data["total_s"] > 0
        assert 0.0 <= data["coverage"] <= 1.0
        assert data["categories"]


# -- degrade carries the attachments ------------------------------------------


class TestDegrade:
    def test_degrade_carries_metrics_and_profiler(self):
        """The registry and the tracer, whose span tree is the host-time
        profile, both move onto the survivor."""
        s = Session(3, metrics=True, trace=True)
        registry, tracer = s.metrics, s.tracer
        s.machine.kill_node(5)
        s.degrade()
        assert s.machine.metrics is registry
        assert registry.machine is s.machine
        assert s.machine.tracer is tracer
        assert tracer.machine is s.machine
        with tracer.span("run", "run"):
            run_gaussian(s, size=6)
        assert registry.collect()["machine.ticks"] > 0
        assert tracer.profile()["total_s"] > 0


# -- bit-identity pin (subprocess) --------------------------------------------

_PIN_SCRIPT = r"""
import json, sys
import numpy as np
from repro import Session
from repro import workloads as W
from repro.algorithms import gaussian

mode = sys.argv[1]
kwargs = {}
if mode == "on":
    kwargs = dict(metrics=True, trace=True)
s = Session(4, sanitize=True, **kwargs)
A_host, b, _ = W.random_system(12, seed=0)
if mode == "on":
    with s.tracer.span("run", "run"):
        x = gaussian.solve(s.matrix(A_host), b)
else:
    x = gaussian.solve(s.matrix(A_host), b)
snap = s.machine.counters.snapshot().as_dict()
out = {
    "snap": {k: repr(v) for k, v in snap.items()},
    "x": [repr(float(v)) for v in np.asarray(x.x)],
    "plan": [s.machine.counters.plan_hits, s.machine.counters.plan_misses],
    "checks": s.machine.sanitizer.stats.total,
    "metrics_imported": "repro.metrics" in sys.modules,
}
print(json.dumps(out))
"""


def _run_pin(mode):
    proc = subprocess.run(
        [sys.executable, "-c", _PIN_SCRIPT, mode],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        check=True,
    )
    return json.loads(proc.stdout)


class TestBitIdentityPin:
    def test_metrics_and_profile_do_not_perturb_costs(self):
        on = _run_pin("on")
        off = _run_pin("off")
        assert on["snap"] == off["snap"]
        assert on["x"] == off["x"]
        assert on["plan"] == off["plan"]
        assert on["checks"] == off["checks"]

    def test_feature_off_never_imports_module(self):
        off = _run_pin("off")
        assert off["metrics_imported"] is False
        on = _run_pin("on")
        assert on["metrics_imported"] is True
