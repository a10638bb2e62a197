"""The claims registry of ``benchmarks/harness.py``.

``python benchmarks/harness.py`` regenerates every reconstructed table
and gates every paper claim; CI runs it and diffs the committed tables.
These tests pin the registry itself: every claim can fail, every id has
its committed table and its EXPERIMENTS.md markers, and the marker
writer touches nothing outside one id's block.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location(
        "repro_bench_harness", ROOT / "benchmarks" / "harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def small(harness):
    """Every registry entry evaluated at the small scale."""
    return {
        exp_id: exp.evaluate("small")
        for exp_id, exp in harness.REGISTRY.items()
    }


#: Per id, one metric edit per claim (in registry order) that breaks that
#: claim when applied to the small-scale metrics.
VIOLATIONS = {
    "R-T1": [{"reduce_32": 1323.0}],
    "R-T2": [{"speedup_64": 0.99}],
    "R-T3": [{"speedup_95": 1.5}, {"pt_ratio_95": 400.0}],
    "R-T4": [{"speedup_16x12": 1.0}],
    "R-F1": [
        {"threshold": 1e9},
        {"ratio_at_65536": 20.0},
        {"ratio_at_262144": 5.0},
        {"ratio_at_16": 40.0},
        {"fixed_m_ratio_p16": 4.0},
        # the CM-2 preset with tau = 0: p = 1024 is no longer latency-bound
        {"fixed_m_ratio_p16": 1.53, "fixed_m_ratio_p1024": 7.25},
    ],
    "R-F2": [
        {"speedup_p256": 3.0},
        {"speedup_p1024": 8.0},
        {"free_net_naive": 84.0},
    ],
    "R-F3": [{"transpose_relabel_32": 304.4}],
    "R-F4": [
        {"fixed_p16": 10816.0},
        {"fixed_p1024": 796.0},
        {"scaled_p1024": 16384.0},
        {"fixed_load_p256": 2848.0},
    ],
    "R-A1": [
        {"tree_factor": 3.0},
        {"bandwalk_binary": 2380.0},
        {"aspect_factor": 1.5},
        {"pivot_implicit": 647973.0},
        {"full_bandwalk_binary": 5400.0},
        {"layout_cyclic": 0.0},
    ],
    "R-A2": [{"speedup_unit": 1.0}, {"speedup_latency_bound": 5.5}],
    "R-E1": [{"scan_over_reduce_32": 2.0}],
    # CG's advantage must rise strictly, not merely stay positive
    "R-E2": [{"direct_over_cg_95": 2.83}],
    "R-E3": [{"ratio_L16": 1.0}, {"ratio_L256": 1.0}],
    "R-E4": [{"hist_ratio_4096": 1.9}],
}


def test_every_claim_holds_at_small_scale(harness, small):
    failed = [
        (exp_id, claim.name)
        for exp_id, exp in harness.REGISTRY.items()
        for claim in exp.claims
        if not claim.check(small[exp_id].metrics)
    ]
    assert failed == []


def test_every_claim_fails_on_violating_metrics(harness, small):
    assert set(VIOLATIONS) == set(harness.REGISTRY)
    for exp_id, exp in harness.REGISTRY.items():
        assert len(VIOLATIONS[exp_id]) == len(exp.claims), exp_id
        for claim, edit in zip(exp.claims, VIOLATIONS[exp_id]):
            metrics = dict(small[exp_id].metrics)
            assert set(edit) <= set(metrics), (exp_id, claim.name)
            metrics.update(edit)
            assert not claim.check(metrics), (exp_id, claim.name, edit)


def test_missing_metrics_fail_instead_of_raising(harness):
    for exp in harness.REGISTRY.values():
        for claim in exp.claims:
            assert claim.check({}) is False, claim.name


def test_every_id_has_its_table_and_markers(harness, small):
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    results = ROOT / "benchmarks" / "results"
    for exp_id, result in small.items():
        assert result.experiment.startswith(exp_id + "_")
        committed = (results / f"{result.experiment}.txt").read_text()
        assert committed == f"{result.caption}\n\n{result.table}\n", exp_id
        harness.replace_block(doc, exp_id, "")  # raises without its markers
    names = {f"{r.experiment}.txt" for r in small.values()}
    assert {p.name for p in results.glob("*.txt")} == names


DOC = """intro
<!-- R-T1 begin -->
old one
<!-- R-T1 end -->
middle
<!-- R-T2 begin -->
old two
<!-- R-T2 end -->
outro
"""


def test_replace_block_touches_only_one_id(harness):
    out = harness.replace_block(DOC, "R-T2", "new two\n")
    assert out == DOC.replace("old two\n", "new two\n")
    assert harness.replace_block(out, "R-T2", "old two\n") == DOC


@pytest.mark.parametrize("broken", [
    DOC.replace("<!-- R-T2 begin -->\n", ""),
    DOC.replace("<!-- R-T2 end -->", ""),
    DOC + "<!-- R-T2 begin -->\n",
    DOC.replace("<!-- R-T2 begin -->", "<!-- R-X -->")
       .replace("<!-- R-T2 end -->", "<!-- R-T2 begin -->")
       .replace("<!-- R-X -->", "<!-- R-T2 end -->"),
], ids=["no-begin", "no-end", "duplicate", "reversed"])
def test_replace_block_raises_on_bad_markers(harness, broken):
    with pytest.raises(ValueError):
        harness.replace_block(broken, "R-T2", "new\n")
