"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.obs import validate_chrome_trace_file


class TestInfo:
    def test_prints_machine_summary(self, capsys):
        assert main(["info", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "processors : 16" in out
        assert "cost model" in out

    def test_cost_model_choice(self, capsys):
        assert main(["info", "-n", "2", "--cost-model", "unit"]) == 0
        assert "tau=1.0" in capsys.readouterr().out

    def test_bad_cost_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "--cost-model", "quantum"])


class TestDemo:
    def test_runs_and_reports(self, capsys):
        assert main(["demo", "-n", "4", "--rows", "12", "--cols", "8"]) == 0
        out = capsys.readouterr().out
        assert "embedded" in out
        assert "simulated time" in out
        assert "demo" in out


class TestSolve:
    def test_solves_and_reports(self, capsys):
        assert main(["solve", "-n", "4", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "max error" in out
        assert "PT / serial" in out

    def test_implicit_pivoting_flag(self, capsys):
        assert main([
            "solve", "-n", "4", "--size", "12", "--pivoting", "implicit"
        ]) == 0
        out = capsys.readouterr().out
        assert "implicit pivoting" in out
        assert "row-swap" not in out

    def test_profile_prints_host_time_table(self, capsys):
        assert main(["solve", "-n", "4", "--size", "12", "--profile"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("host wall time") for line in lines)
        header = [line.split() for line in lines if "category" in line]
        assert header == [
            ["label", "category", "seconds", "share", "count", "ticks"]
        ]


class TestJsonOutput:
    def test_info_json(self, capsys):
        assert main(["info", "-n", "4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["p"] == 16
        assert data["n"] == 4
        assert set(data["cost_model"]) == {"tau", "t_c", "t_a", "t_m"}

    def test_demo_json(self, capsys):
        assert main(["demo", "-n", "4", "--rows", "12", "--cols", "8",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["time"] > 0
        assert "embedding" in data
        assert any(
            entry["phase"] == "demo" for entry in data["phase_breakdown"]
        )

    def test_solve_json(self, capsys):
        assert main(["solve", "-n", "4", "--size", "12", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["max_error"] < 1e-8
        assert data["time"] > 0
        assert data["pt_ratio"] > 0


class TestTrace:
    def test_writes_valid_chrome_trace(self, capsys, tmp_path):
        out = str(tmp_path / "trace.json")
        assert main(["trace", "-n", "4", "--rows", "12", "--cols", "8",
                     "--out", out]) == 0
        counts = validate_chrome_trace_file(out)
        assert counts["spans"] > 0
        text = capsys.readouterr().out
        assert "chrome trace" in text
        assert "primitive breakdown" in text

    def test_solve_workload_with_jsonl(self, capsys, tmp_path):
        out = str(tmp_path / "trace.json")
        jsonl = str(tmp_path / "trace.jsonl")
        assert main(["trace", "-n", "4", "--workload", "solve",
                     "--size", "12", "--out", out, "--jsonl", jsonl,
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "solve"
        assert data["spans"] > 0
        assert data["report"]["primitive_breakdown"]
        lines = [json.loads(l) for l in open(jsonl)]
        assert len(lines) == data["jsonl_lines"]
        assert lines[0]["type"] == "meta"
        validate_chrome_trace_file(out)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestFaultsSubcommand:
    def test_gaussian_recovers_and_matches(self, capsys):
        assert main(["faults", "-n", "4", "--size", "12",
                     "--fault-seed", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["recovered"] is True
        assert data["matches_baseline"] is True
        assert data["stats"]["node_kills"] == 1
        assert data["final_p"] < data["p"]
        assert data["plan"]["events"]

    def test_text_report(self, capsys):
        assert main(["faults", "-n", "4", "--size", "12",
                     "--fault-seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "matches baseline : True" in out
        assert "recovery ticks" in out

    def test_matvec_workload(self, capsys):
        assert main(["faults", "-n", "4", "--workload", "matvec",
                     "--size", "16", "--fault-seed", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["recovered"] and data["matches_baseline"]

    def test_trace_artifact(self, capsys, tmp_path):
        out = str(tmp_path / "faults.json")
        assert main(["faults", "-n", "4", "--size", "12",
                     "--fault-seed", "1", "--trace-out", out,
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["trace_out"] == out
        counts = validate_chrome_trace_file(out)
        assert counts["instants"] > 0  # kill/degrade/restore markers

    def test_unrecoverable_exits_nonzero(self, capsys):
        # max-recoveries 0 with a node kill cannot recover
        assert main(["faults", "-n", "4", "--size", "12",
                     "--fault-seed", "0", "--max-recoveries", "0",
                     "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["recovered"] is False
        assert "error" in data


class TestFaultInjectionFlags:
    def test_demo_with_fault_seed(self, capsys):
        assert main(["demo", "-n", "4", "--rows", "16", "--cols", "8",
                     "--fault-seed", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "faults" in data
        st = data["faults"]
        assert st["drops"] >= 1 or st["link_kills"] >= 1

    def test_solve_with_fault_seed_still_accurate(self, capsys):
        assert main(["solve", "-n", "4", "--size", "16",
                     "--fault-seed", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["max_error"] < 1e-8
        assert "faults" in data

    def test_fault_runs_are_reproducible(self, capsys):
        def run():
            assert main(["solve", "-n", "4", "--size", "12",
                         "--fault-seed", "2", "--json"]) == 0
            return json.loads(capsys.readouterr().out)

        a, b = run(), run()
        assert a["faults"] == b["faults"]
        assert a["time"] == b["time"]

    def test_no_fault_seed_means_no_faults_key(self, capsys):
        assert main(["solve", "-n", "4", "--size", "12", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "faults" not in data


class TestCheck:
    def test_quick_check_passes_and_writes_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", "-n", "3", "--quick",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "overall            : PASS" in text
        report = json.loads(out.read_text())
        assert report["passed"]
        assert report["sanitizer_selftest"]["passed"]
        assert report["differential"]["passed"]
        assert report["golden"]["passed"]

    def test_json_flag_emits_report(self, capsys):
        assert main(["check", "-n", "3", "--quick",
                     "--skip-golden", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert "golden" not in report

    def test_selftest_only_is_fast(self, capsys):
        assert main(["check", "--skip-differential",
                     "--skip-golden"]) == 0
        assert "sanitizer selftest : PASS" in capsys.readouterr().out

    def test_missing_golden_file_fails(self, capsys, tmp_path, monkeypatch):
        from repro.check import golden

        monkeypatch.setattr(
            golden, "GOLDEN_PATH", tmp_path / "nope.json"
        )
        assert main(["check", "--skip-differential"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_update_golden_roundtrip(self, capsys, tmp_path, monkeypatch):
        from repro.check import golden

        monkeypatch.setattr(
            golden, "GOLDEN_PATH", tmp_path / "golden.json"
        )
        assert main(["check", "--update-golden"]) == 0
        assert (tmp_path / "golden.json").exists()
        capsys.readouterr()
        assert main(["check", "--skip-differential"]) == 0


class TestAbftSubcommand:
    def test_gaussian_corrects_and_matches(self, capsys):
        assert main(["abft", "-n", "4", "--size", "12",
                     "--fault-seed", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["recovered"] is True
        assert data["matches_baseline"] is True
        assert data["stats"]["bit_flips"] + data["stats"]["link_corruptions"] > 0
        assert data["abft"]["detected"] >= 1
        assert data["overhead"] > 1.0

    def test_text_report(self, capsys):
        assert main(["abft", "-n", "4", "--size", "12",
                     "--fault-seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "matches baseline : True" in out
        assert "abft" in out
        assert "overhead" in out

    def test_matvec_workload_with_trace(self, capsys, tmp_path):
        trace = str(tmp_path / "abft.json")
        assert main(["abft", "-n", "4", "--workload", "matvec",
                     "--size", "16", "--fault-seed", "0",
                     "--trace-out", trace, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["recovered"] and data["matches_baseline"]
        assert data["trace_out"] == trace
        counts = validate_chrome_trace_file(trace)
        assert counts["instants"] > 0  # abft:detect / abft:correct markers

    def test_multi_flip_escalates_but_recovers(self, capsys):
        assert main(["abft", "-n", "4", "--size", "12",
                     "--fault-seed", "0", "--bit-flips", "4",
                     "--link-corruptions", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["recovered"] and data["matches_baseline"]


class TestFaultPlanFile:
    def test_abft_replays_recorded_plan(self, capsys, tmp_path):
        from repro.faults import FaultPlan
        from repro.faults.plan import BitFlip

        path = str(tmp_path / "plan.json")
        FaultPlan([BitFlip(2000.0, pid=1, slot=3, bit=2)]).to_json(path)
        assert main(["abft", "-n", "4", "--size", "12",
                     "--fault-plan", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stats"]["bit_flips"] == 1
        assert data["matches_baseline"] is True
        assert data["plan"]["events"][0]["kind"] == "BitFlip"

    def test_faults_subcommand_accepts_plan_file(self, capsys, tmp_path):
        from repro.faults import FaultPlan
        from repro.faults.plan import LinkDrop

        path = str(tmp_path / "plan.json")
        FaultPlan([LinkDrop(1500.0, dim=1, count=1)]).to_json(path)
        assert main(["faults", "-n", "4", "--size", "12",
                     "--fault-plan", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stats"]["drops"] == 1
        assert data["matches_baseline"] is True

    def test_plan_runs_are_reproducible(self, capsys, tmp_path):
        from repro.faults import FaultPlan
        from repro.faults.plan import BitFlip, LinkCorrupt

        path = str(tmp_path / "plan.json")
        FaultPlan([
            BitFlip(1800.0, pid=2, slot=5, bit=1),
            LinkCorrupt(2600.0, dim=1, pid=0, slot=2, bit=3),
        ]).to_json(path)

        def run():
            assert main(["abft", "-n", "4", "--size", "12",
                         "--fault-plan", path, "--json"]) == 0
            return json.loads(capsys.readouterr().out)

        a, b = run(), run()
        assert a == b
