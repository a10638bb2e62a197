"""Tests for the experiment warehouse (``repro.metrics.warehouse``).

Covers the full ``bench`` lifecycle the CI gate relies on: declarative
run tables, schema-validated JSONL append, baseline pinning, and the
regression gate (``repro bench report`` must exit nonzero when simulated
ticks grow — pinned here by tampering a record and re-running the gate).
"""

import dataclasses
import json
import os
import subprocess

import numpy as np
import pytest

import repro.batch
from repro.__main__ import main
from repro.errors import ConfigError
from repro.metrics import best_of
from repro.metrics import warehouse as wh


@pytest.fixture()
def tiny_table(tmp_path):
    """A two-spec run table small enough for a subsecond test run."""
    table = {
        "runs": [
            {"workload": "gaussian", "params": {"n_dims": 3, "order": 8},
             "reps": 1},
            {"workload": "matvec",
             "params": {"n_dims": 3, "n": 8, "iters": 2}, "reps": 1},
        ]
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    return str(path)


def _runs_path(out_dir):
    return os.path.join(out_dir, wh.RUNS_FILE)


# -- run tables ---------------------------------------------------------------


class TestRunTables:
    def test_builtin_tables_resolve(self):
        for name in ("smoke", "full", "batch"):
            table = wh.load_table(name)
            assert len(table) >= 8
            for spec in table:
                spec.resolved_flags()  # never raises

    def test_unknown_table_fails(self):
        with pytest.raises(ConfigError):
            wh.load_table("no-such-table")

    def test_table_file_round_trip(self, tiny_table):
        table = wh.load_table(tiny_table)
        assert [s.workload for s in table] == ["gaussian", "matvec"]
        assert table[0].params["order"] == 8

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            wh.RunSpec("fft", {"n_dims": 3})
        with pytest.raises(ConfigError):
            wh.RunSpec("gaussian", {"n_dims": 3}, reps=0)
        with pytest.raises(ConfigError):
            wh.RunSpec("gaussian", {"n_dims": 3}, {"turbo": True})

    def test_record_key_separates_legacy_from_fresh(self):
        fresh = wh.record_key("gaussian", {"order": 8},
                              wh.RunSpec("gaussian", {}).resolved_flags())
        legacy = wh.record_key("gaussian", {"order": 8},
                               {"legacy": "cache-sweep", "plan_cache": True})
        assert fresh != legacy

    def test_tracked_legacy_records_load_but_never_pin(self, tmp_path):
        """The retired benchmark file's history stays readable in the
        tracked runs file, and pinning never picks it up."""
        records = wh.load_records(
            os.path.join(wh.default_warehouse_dir(), wh.RUNS_FILE)
        )
        legacy = [r for r in records if r["kind"] == "legacy-import"]
        assert len(legacy) == 26
        assert all("legacy" in r["flags"] for r in legacy)
        doc = wh.pin_baselines(legacy, str(tmp_path / "baselines.json"))
        assert doc["entries"] == {}


# -- running and validation ---------------------------------------------------


class TestRunAndValidate:
    def test_run_spec_validates_and_fills_schema(self):
        spec = wh.RunSpec("gaussian", {"n_dims": 3, "order": 8}, reps=1)
        record = wh.run_spec(spec, validate=True)
        wh.validate_record(record)  # must not raise
        assert record["schema"] == wh.SCHEMA
        assert record["kind"] == "run"
        assert record["validated"] is True
        assert record["sim"]["time"] > 0
        assert record["wall_s"]["best"] > 0
        assert record["metrics"]["machine.time"] == record["sim"]["time"]
        assert record["metrics"]["plan_cache.enabled"] == 1.0
        assert not any(name.startswith(("profile.", "metrics."))
                       for name in record["metrics"])
        assert record["profile"]["coverage"] >= 0.0

    def test_batch_workload_runs(self):
        spec = wh.RunSpec(
            "batch_gaussian", {"n_dims": 3, "n": 8, "n_runs": 2}, reps=1
        )
        record = wh.run_spec(spec, validate=True)
        assert record["validated"] is True
        assert record["metrics"]["batch.lanes"] == 2

    @pytest.mark.parametrize("workload, params", [
        ("batch_simplex", {"n_dims": 3, "n": 6, "m": 4, "n_runs": 3}),
        ("batch_matvec", {"n_dims": 3, "n": 8, "n_runs": 3}),
    ])
    def test_simplex_and_matvec_batches_validate(self, workload, params):
        record = wh.run_spec(wh.RunSpec(workload, params, reps=1),
                             validate=True)
        assert record["validated"] is True, record["validate_detail"]
        assert record["metrics"]["batch.stacked"] == 3
        assert record["metrics"]["batch.scalar_per_run_s"] > 0
        assert record["metrics"]["batch.amortized_speedup"] > 0

    @pytest.mark.parametrize("workload, params, field, perturb", [
        ("batch_matvec", {"n_dims": 3, "n": 8, "n_runs": 3}, "y",
         lambda y: np.nextafter(y, np.inf)),
        ("batch_matvec", {"n_dims": 3, "n": 8, "n_runs": 3}, "time",
         lambda t: t + 0.5),
        ("batch_simplex", {"n_dims": 3, "n": 6, "m": 4, "n_runs": 3}, "cost",
         lambda c: dataclasses.replace(c, flops=c.flops + 1)),
        ("batch_simplex", {"n_dims": 3, "n": 6, "m": 4, "n_runs": 3},
         "iterations", lambda i: i + 1),
    ])
    def test_lane_perturbed_after_the_sweep_fails(self, monkeypatch, workload,
                                                  params, field, perturb):
        real_sweep = repro.batch.sweep

        def perturbed_sweep(name, grid):
            outs = real_sweep(name, grid)
            outs[1][field] = perturb(outs[1][field])
            return outs

        monkeypatch.setattr(repro.batch, "sweep", perturbed_sweep)
        record = wh.run_spec(wh.RunSpec(workload, params, reps=1),
                             validate=True)
        assert record["validated"] is False
        assert "lane 1" in record["validate_detail"]

    def test_missed_targets(self):
        def record(n_runs, speedup):
            return {"workload": "batch_gaussian", "params": {"n_runs": n_runs},
                    "metrics": {"batch.amortized_speedup": speedup}}

        assert wh.missed_targets("batch", [record(64, 4.5)]) == []
        assert len(wh.missed_targets("batch", [record(64, 3.9)])) == 1
        assert len(wh.missed_targets("batch", [record(16, 9.0)])) == 1
        assert wh.missed_targets("smoke", [record(8, 1.0)]) == []

    def test_validate_record_rejects_garbage(self):
        with pytest.raises(ConfigError):
            wh.validate_record({"schema": "bogus"})
        with pytest.raises(ConfigError):
            wh.validate_record([])
        good = wh.run_spec(
            wh.RunSpec("matvec", {"n_dims": 3, "n": 8, "iters": 1}, reps=1)
        )
        bad = dict(good, sim={"flops": 1.0})  # kind "run" needs sim.time
        with pytest.raises(ConfigError):
            wh.validate_record(bad)


# -- the CLI lifecycle: run -> pin -> report ----------------------------------


class TestBenchCli:
    def test_run_pin_report_pass(self, tiny_table, tmp_path, capsys):
        out = str(tmp_path / "wh")
        assert main(["bench", "run", "--table", tiny_table,
                     "--out", out, "--validate"]) == 0
        assert main(["bench", "pin", "--out", out]) == 0
        assert main(["bench", "report", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text

        records = wh.load_records(_runs_path(out))
        assert len(records) == 2
        for record in records:
            assert record["validated"] is True
        baselines = wh.load_baselines(
            os.path.join(out, wh.BASELINES_FILE)
        )
        assert baselines["schema"] == wh.BASELINE_SCHEMA
        assert len(baselines["entries"]) == 2

    def test_report_fails_on_sim_regression(self, tiny_table, tmp_path,
                                            capsys):
        out = str(tmp_path / "wh")
        main(["bench", "run", "--table", tiny_table, "--out", out])
        main(["bench", "pin", "--out", out])
        # Tamper: re-append the gaussian record with 1.5x simulated ticks,
        # as a genuine algorithmic regression would.
        records = wh.load_records(_runs_path(out))
        slow = json.loads(json.dumps(records[0]))
        slow["sim"]["time"] *= 1.5
        wh.append_records([slow], _runs_path(out))

        assert main(["bench", "report", "--out", out]) == 1
        text = capsys.readouterr().out
        assert "REGRESSION [sim]" in text
        assert "FAIL" in text

    def test_report_wall_gate_is_opt_in(self, tiny_table, tmp_path, capsys):
        out = str(tmp_path / "wh")
        main(["bench", "run", "--table", tiny_table, "--out", out])
        main(["bench", "pin", "--out", out])
        records = wh.load_records(_runs_path(out))
        slow = json.loads(json.dumps(records[-1]))
        slow["wall_s"]["best"] *= 100.0
        wh.append_records([slow], _runs_path(out))

        # Simulated ticks unchanged: default report still passes...
        assert main(["bench", "report", "--out", out]) == 0
        # ...but the opt-in wall gate trips.
        assert main(["bench", "report", "--out", out,
                     "--wall-tolerance", "0.5"]) == 1
        text = capsys.readouterr().out
        assert "REGRESSION [wall]" in text

    def test_latest_record_wins(self, tiny_table, tmp_path, capsys):
        """A regression that was since fixed must not gate."""
        out = str(tmp_path / "wh")
        main(["bench", "run", "--table", tiny_table, "--out", out])
        main(["bench", "pin", "--out", out])
        records = wh.load_records(_runs_path(out))
        slow = json.loads(json.dumps(records[0]))
        slow["sim"]["time"] *= 1.5
        fixed = json.loads(json.dumps(records[0]))
        wh.append_records([slow, fixed], _runs_path(out))
        assert main(["bench", "report", "--out", out]) == 0

    def test_report_without_baselines_errors(self, tiny_table, tmp_path,
                                             capsys):
        out = str(tmp_path / "wh")
        main(["bench", "run", "--table", tiny_table, "--out", out])
        assert main(["bench", "report", "--out", out]) == 2
        assert "bench report" in capsys.readouterr().err

    def test_run_unknown_table_errors(self, tmp_path, capsys):
        assert main(["bench", "run", "--table", "nope",
                     "--out", str(tmp_path / "wh")]) == 2
        assert "bench run" in capsys.readouterr().err

    def test_run_exits_nonzero_on_a_missed_target(self, tmp_path,
                                                   monkeypatch, capsys):
        table = tmp_path / "batch.json"
        table.write_text(json.dumps({"runs": [
            {"workload": "batch_gaussian",
             "params": {"n_dims": 3, "n": 8, "n_runs": 2}, "reps": 1},
        ]}))
        monkeypatch.setitem(wh.SPEEDUP_TARGETS, str(table),
                            [("batch_gaussian", 2, 1e9)])
        assert main(["bench", "run", "--table", str(table),
                     "--out", str(tmp_path / "wh"), "--validate"]) == 1
        assert "TARGET MISSED: batch_gaussian N=2" in capsys.readouterr().out

    def test_json_output(self, tiny_table, tmp_path, capsys):
        out = str(tmp_path / "wh")
        assert main(["bench", "run", "--table", tiny_table, "--out", out,
                     "--validate", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["runs"] == 2
        assert data["failures"] == []


# -- shared timing helpers ----------------------------------------------------


class TickClock:
    """Deterministic perf_counter: advances by ``step`` per call."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestTimingHelpers:
    def test_best_of_returns_result_and_best(self):
        clock = TickClock()
        timed = best_of(lambda: "payload", reps=3, clock=clock)
        assert timed.result == "payload"
        assert timed.best == pytest.approx(1.0)
        assert timed.mean == pytest.approx(1.0)

    def test_best_of_runs_setup_each_rep(self):
        calls = []
        best_of(lambda: calls.append("run"), reps=2,
                setup=lambda: calls.append("setup"), clock=TickClock())
        assert calls == ["setup", "run", "setup", "run"]

    def test_best_of_rejects_bad_reps(self):
        with pytest.raises(ConfigError):
            best_of(lambda: None, reps=0)


class TestGitRev:
    @staticmethod
    def fake_git(monkeypatch, rev_code, porcelain):
        calls = []

        def run(cmd, **kwargs):
            calls.append(cmd)
            if "rev-parse" in cmd:
                return subprocess.CompletedProcess(
                    cmd, rev_code, "abc1234\n", ""
                )
            return subprocess.CompletedProcess(cmd, 0, porcelain, "")

        monkeypatch.setattr(wh.subprocess, "run", run)
        return calls

    def test_clean_tree_is_the_bare_revision(self, monkeypatch):
        calls = self.fake_git(monkeypatch, 0, "")
        assert wh.git_rev() == "abc1234"
        assert ["git", "status", "--porcelain", "--untracked-files=no"] in calls

    def test_uncommitted_changes_mark_the_revision_dirty(self, monkeypatch):
        self.fake_git(monkeypatch, 0, " M src/repro/metrics/warehouse.py\n")
        assert wh.git_rev() == "abc1234-dirty"

    def test_outside_a_checkout_is_unknown(self, monkeypatch):
        self.fake_git(monkeypatch, 128, "")
        assert wh.git_rev() == "unknown"

    def test_appended_records_file_alone_stays_clean(self, monkeypatch):
        self.fake_git(monkeypatch, 0, " M benchmarks/warehouse/runs.jsonl\n")
        assert wh.git_rev() == "abc1234"

    def test_records_file_does_not_hide_other_changes(self, monkeypatch):
        porcelain = (
            " M benchmarks/warehouse/runs.jsonl\n"
            " M benchmarks/warehouse/baselines.json\n"
        )
        self.fake_git(monkeypatch, 0, porcelain)
        assert wh.git_rev() == "abc1234-dirty"
