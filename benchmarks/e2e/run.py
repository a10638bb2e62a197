"""End-to-end benchmark of the simulated hypercube library.

Runs::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out results.json]
    python3 benchmarks/e2e/run.py compare BASE.json OTHER.json ...

Every workload runs in fresh worker processes (``worker.py``): one client,
one thread, ``OPENBLAS_NUM_THREADS=1``, a closed loop that sends the next
request when the previous one returns.  Inputs, fault plans and reference
answers come from ``--seed`` and are built before each request's timer
starts; one untimed warm-up request runs first; every result is checked.

``--trace 0`` (the default) reports the end-to-end metrics with tracing
off.  ``setup_s`` is the median of five fresh workers, each timed from just
before ``import repro`` to the end of its warm-up request; the last of the
five then runs the timed loop.  ``--trace 1`` runs the separate traced pass
(``hooks.py``) and reports the per-layer metrics; it fails unless the
traced requests are tick-identical to their untraced runs.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out`` appends the run to a results file
(and, with ``--trace 1``, writes the spans beside it), which ``compare``
reads: it prints, per workload and end-to-end metric, median and quartiles
of each file against the first, their ratio, the bound from
``BENCHMARK.json`` and a verdict, and exits 1 on any regression or any
rise in the failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("gaussian-dense", "simplex-cold", "matvec-comm",
                  "bfs-sparse", "batch-sweep", "resilient-abft")
DEFAULT_SECONDS = 15.0
SETUP_LAUNCHES = 5
SMOKE_REQUESTS = 3
WORKER_TIMEOUT_S = 170.0

#: End-to-end metric units, in report order.
E2E_UNITS = {
    "solve_p50_ms": "ms",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ticks_per_solve": "ticks",
}

#: End-to-end metrics on the simulated clock.  They repeat exactly for a
#: given seed, so ``compare`` pairs their runs by seed instead of pooling.
SIMULATED = ("sim_ticks_per_solve",)


# -- workers --------------------------------------------------------------------


def worker_env() -> Dict[str, str]:
    """Single-threaded BLAS, and no REPRO_* switches leaking in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(workload: str, seed: int, mode: str, seconds: float,
           requests: Optional[int], spans: Optional[str] = None) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    if requests is not None:
        cmd += ["--requests", str(requests)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload}: {mode} worker exited with status {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> List[float]:
    """``statistics.quantiles(values, n=4)``; one value is its own quartiles."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def end_to_end(workload: str, args) -> dict:
    requests = SMOKE_REQUESTS if args.smoke else None
    launches = 1 if args.smoke else SETUP_LAUNCHES
    setups = [launch(workload, args.seed, "setup", args.seconds, requests)["setup_s"]
              for _ in range(launches - 1)]
    run = launch(workload, args.seed, "timed", args.seconds, requests)
    setups.append(run["setup_s"])
    times_ms = [1000.0 * t for t in run["times_s"]]
    ok = run["attempted"] - run["failed"]
    values = {
        "solve_p50_ms": statistics.median(times_ms),
        "solves_per_s": ok / (sum(times_ms) / 1000.0),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "sim_ticks_per_solve": statistics.fmean(run["ticks"]),
    }
    info = {
        "solve_p90_ms": (statistics.quantiles(times_ms, n=10)[8]
                         if len(times_ms) > 1 else times_ms[0]),
        "samples": len(times_ms),
        "failed_frac": run["failed"] / run["attempted"],
        "setup_samples_s": setups,
        "tick_sample": len(run["ticks"]),
        "errors": run["errors"],
    }
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()},
        "info": info,
    }


def per_layer(workload: str, args) -> dict:
    requests = SMOKE_REQUESTS if args.smoke else None
    spans = None
    if args.out:
        out = Path(args.out)
        spans = str(out.with_name(f"{out.stem}.spans-{workload}.jsonl"))
    # The traced worker splits its time between the untraced reference
    # loop and the (slower) traced re-run of its first quarter.
    run = launch(workload, args.seed, "traced", args.seconds / 2, requests,
                 spans=spans)
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
        "info": {
            "traced_requests": run["traced_requests"],
            "unhooked": run["unhooked"],
            "first_model_mismatch": run["first_mismatch"],
            "spans": spans,
            "errors": run["errors"],
        },
    }


def report(workload: str, res: dict) -> None:
    for name, m in res["metrics"].items():
        print(f"{workload:15s} {name:34s} {m['value']:>16.6g} {m['unit']}")
    info = res["info"]
    if "solve_p90_ms" in info:
        print(f"{workload:15s} {'solve_p90_ms (not gated)':34s} "
              f"{info['solve_p90_ms']:>16.6g} ms  (n={info['samples']})")
        print(f"{workload:15s} {'failed_frac':34s} "
              f"{info['failed_frac']:>16.6g} fraction")
    if info.get("unhooked"):
        print(f"{workload:15s} unhooked: {', '.join(info['unhooked'])}")
    for error in info["errors"]:
        sys.stderr.write(f"{workload}: failed request:\n{error}\n")


def append_run(path: str, record: dict) -> None:
    out = Path(path)
    data = json.loads(out.read_text()) if out.exists() else {"runs": []}
    data["runs"].append(record)
    out.write_text(json.dumps(data, indent=1) + "\n")


def bench(argv: List[str]) -> None:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the simulated hypercube library."
    )
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced pass with per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_REQUESTS} requests per workload, one launch")
    parser.add_argument("--out", help="append this run to a results file; "
                        "traced runs write their spans beside it")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro sources under {ROOT / 'src'}")
    workloads = args.workload or list(WORKLOAD_NAMES)
    measure = per_layer if args.trace else end_to_end
    results = {}
    for workload in workloads:
        results[workload] = measure(workload, args)
        report(workload, results[workload])

    if args.out:
        append_run(args.out, {"seed": args.seed, "seconds": args.seconds,
                              "trace": args.trace, "smoke": args.smoke,
                              "workloads": results})
    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items()
                   for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))


# -- compare ------------------------------------------------------------------------


def verdict(base: List[float], new: List[float], better: str, bound: float):
    """The no-regression rule: medians within the bound, or unresolved
    when the base's own quartile spread is wider than the bound (unless
    every new run beats every base run)."""
    med_a, med_b = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a
    q1, _, q3 = quartiles(base)
    spread = (q3 - q1) / med_a
    if all(sign * (b - a) < 0 for a in base for b in new):
        return "ok"
    if spread > bound:
        return "unresolved"
    return "regression" if worse > bound else "ok"


def paired_verdict(base: List[tuple], new: List[tuple], better: str,
                   bound: float) -> str:
    """The rule for simulated metrics: every pair of runs with the same
    seed may worsen by at most the bound; unresolved without such a pair."""
    sign = 1.0 if better == "lower" else -1.0
    worse = [sign * (b - a) / a
             for seed_a, a in base for seed_b, b in new if seed_a == seed_b]
    if not worse:
        return "unresolved"
    return "regression" if max(worse) > bound else "ok"


def compare(paths: List[str]) -> int:
    spec = {m["name"]: m
            for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = []
    for path in paths:
        runs = [r for r in json.loads(Path(path).read_text())["runs"]
                if not r["trace"]]
        if not runs:
            raise SystemExit(f"{path}: no untraced runs")
        sides.append(runs)
    base, status = sides[0], 0
    print(f"{'workload':15s} {'metric':20s} {'base median [q1, q3]':>30s} "
          f"{'median [q1, q3]':>30s} {'ratio':>7s} {'bound':>6s}  verdict")
    for path, side in zip(paths[1:], sides[1:]):
        print(f"-- {path} against {paths[0]}")
        # A results file may mix runs of one workload and of several.
        for w in dict.fromkeys(w for r in base for w in r["workloads"]):
            base_w = [r for r in base if w in r["workloads"]]
            runs = [r for r in side if w in r["workloads"]]
            if not base_w or not runs:
                continue
            for name, m in spec.items():
                seeded_a, seeded_b = seeded(base_w, w, name), seeded(runs, w, name)
                a, b = [x for _, x in seeded_a], [x for _, x in seeded_b]
                if name in SIMULATED:
                    v = paired_verdict(seeded_a, seeded_b, m["better"], m["bound"])
                else:
                    v = verdict(a, b, m["better"], m["bound"])
                status |= v == "regression"
                print(f"{w:15s} {name:20s} {fmt(a):>30s} {fmt(b):>30s} "
                      f"{statistics.median(b) / statistics.median(a):7.3f} "
                      f"{m['bound']:6.2g}  {v}")
            fa = max(failed_frac(r, w) for r in base_w)
            fb = max(failed_frac(r, w) for r in runs)
            rose = fb > fa
            status |= rose
            print(f"{w:15s} {'failed_frac':20s} {fa:>30.4g} {fb:>30.4g} "
                  f"{'':7s} {0.0:6.2f}  {'regression' if rose else 'ok'}")
    return int(status)


def seeded(runs: List[dict], workload: str, name: str) -> List[tuple]:
    """``(seed, value)`` of one metric in every run."""
    return [(r["seed"], r["workloads"][workload]["metrics"][name]["value"])
            for r in runs]


def failed_frac(run: dict, workload: str) -> float:
    res = run["workloads"][workload]
    return res["failed"] / res["attempted"]


def fmt(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main() -> None:
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) < 3:
            raise SystemExit("usage: run.py compare BASE.json OTHER.json ...")
        sys.exit(compare(argv[1:]))
    bench(argv)


if __name__ == "__main__":
    main()
