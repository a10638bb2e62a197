"""Self-test of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/e2e -q`` (it is outside the tier-1
``testpaths``).  The smoke runs send three requests per workload through
the real command, so they check that the metric names and units match
``BENCHMARK.json``, that every request passes its check, and that the
traced pass is tick-identical to the untraced one (the worker exits
nonzero otherwise).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_py(*args, timeout=600):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_matches_benchmark_json(tmp_path, trace, section):
    out = tmp_path / "results.json"
    proc = run_py("--smoke", "--seed", "0", "--trace", str(trace),
                  "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] >= 6

    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    run = json.loads(out.read_text())["runs"][-1]
    assert set(run["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, res in run["workloads"].items():
        assert res["failed"] == 0, (name, res["info"]["errors"])
        units = {k: m["unit"] for k, m in res["metrics"].items()}
        assert units == expected, name
        if trace:
            values = {k: m["value"] for k, m in res["metrics"].items()}
            assert values["primitives.model_mismatch_calls"] == 0, name
            assert values["trace.overhead"] > 0 and values["trace.coverage"] > 0
            spans = tmp_path / f"results.spans-{name}.jsonl"
            assert spans.read_text().count("\n") > 0, name


def test_missing_hook_target_is_listed_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import hooks

    gone = hooks.Hook("checksum", "repro.machine.no_such_module", "block_signatures")
    renamed = hooks.Hook("checksum", "repro.machine.dirty", "no_such_function")
    monkeypatch.setattr(hooks, "HOOKS", hooks.HOOKS + (gone, renamed))
    tracer = hooks.Tracer()
    tracer.install()
    try:
        assert tracer.unhooked == [
            "repro.machine.no_such_module:block_signatures",
            "repro.machine.dirty:no_such_function",
        ]
        assert tracer.layer_metrics()["trace.unhooked"] == 2.0
    finally:
        tracer.uninstall()


def _results(path, workload, values, failed=0, ticks=None, seeds=None):
    """Runs of seeds 0, 1, ...: every host metric reads ``values[i]`` and
    ``sim_ticks_per_solve`` reads ``ticks[i]`` (default 1000)."""
    runs = []
    for i, v in enumerate(values):
        metrics = {m["name"]: {"value": v, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["sim_ticks_per_solve"]["value"] = ticks[i] if ticks else 1000.0
        runs.append({"seed": seeds[i] if seeds else i, "trace": 0,
                     "workloads": {workload: {
                         "metrics": metrics, "attempted": 100, "failed": failed}}})
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def _verdict(stdout, metric):
    return next(line.split()[-1] for line in stdout.splitlines()
                if line.split()[1:2] == [metric])


def test_compare_verdicts(tmp_path):
    base = _results(tmp_path / "base.json", "w", [100, 101, 99, 100, 102])
    same = _results(tmp_path / "same.json", "w", [101, 100, 99, 100, 101])
    proc = run_py("compare", base, same)
    assert proc.returncode == 0, proc.stdout
    assert "regression" not in proc.stdout

    # Every metric 30% larger: the lower-is-better ones regress.
    worse = _results(tmp_path / "worse.json", "w", [130, 131, 129, 130, 132])
    proc = run_py("compare", base, worse)
    assert proc.returncode == 1
    assert "solve_p50_ms" in proc.stdout and "regression" in proc.stdout

    failing = _results(tmp_path / "failing.json", "w", [100, 100, 100], failed=1)
    proc = run_py("compare", base, failing)
    assert proc.returncode == 1

    # A base whose own spread exceeds the bound cannot resolve a change.
    noisy = _results(tmp_path / "noisy.json", "w", [50, 150, 80, 120, 100])
    proc = run_py("compare", noisy, worse)
    assert "unresolved" in proc.stdout


def test_compare_reads_runs_of_single_workloads(tmp_path):
    # One run per workload and seed, as `--workload W --out FILE` appends.
    for name in ("base", "new"):
        runs = []
        for w in ("w1", "w2"):
            path = _results(tmp_path / f"{w}.json", w, [100, 101, 99])
            runs += json.loads(Path(path).read_text())["runs"]
        (tmp_path / f"{name}.json").write_text(json.dumps({"runs": runs}))
    proc = run_py("compare", str(tmp_path / "base.json"), str(tmp_path / "new.json"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert {line.split()[0] for line in proc.stdout.splitlines()[2:]} == {"w1", "w2"}


def test_compare_pairs_simulated_ticks_by_seed(tmp_path):
    host = [100, 101, 99, 100, 102]
    ticks = [1000.0, 2000.0, 3000.0, 4000.0, 5000.0]
    base = _results(tmp_path / "base.json", "w", host, ticks=ticks)

    # The same ticks per seed, whatever the spread across seeds: ok.
    same = _results(tmp_path / "same.json", "w", host, ticks=ticks)
    proc = run_py("compare", base, same)
    assert proc.returncode == 0, proc.stdout
    assert _verdict(proc.stdout, "sim_ticks_per_solve") == "ok"

    # One more tick on one seed is a regression, though every median and
    # quartile of the pooled values barely moves.
    more = _results(tmp_path / "more.json", "w", host,
                    ticks=[1000.0, 2000.0, 3001.0, 4000.0, 5000.0])
    proc = run_py("compare", base, more)
    assert proc.returncode == 1
    assert _verdict(proc.stdout, "sim_ticks_per_solve") == "regression"

    fewer = _results(tmp_path / "fewer.json", "w", host,
                     ticks=[999.0, 2000.0, 3000.0, 4000.0, 5000.0])
    proc = run_py("compare", base, fewer)
    assert proc.returncode == 0, proc.stdout

    # Without a shared seed nothing is paired.
    other = _results(tmp_path / "other.json", "w", host, ticks=ticks,
                     seeds=[10, 11, 12, 13, 14])
    proc = run_py("compare", base, other)
    assert _verdict(proc.stdout, "sim_ticks_per_solve") == "unresolved"
