"""One workload in one fresh process: set-up, warm-up, then a closed loop.

Started by ``run.py``; prints one JSON object as its last line.  Modes:

``setup``   time from just before ``import repro`` to the end of the
            untimed warm-up request, then exit;
``timed``   the same, then time requests one after another (one client,
            one thread) for ``--seconds``;
``traced``  an untraced reference loop for ``--seconds``, then the hooks
            of ``hooks.py`` go in and the first quarter of those requests
            runs again traced.  The process exits with status 3 unless
            every re-run request matches its reference run in result,
            simulated ticks, comm rounds and elements transferred.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Wall-clock cap of one loop, whatever ``--seconds`` and tick sample ask.
LOOP_CAP_S = 120.0


def digest(result: dict) -> str:
    import numpy as np

    h = hashlib.sha256()
    for key in sorted(result):
        value = np.ascontiguousarray(result[key])
        h.update(f"{key}:{value.dtype.str}:{value.shape}".encode())
        h.update(value.tobytes())
    return h.hexdigest()


def run_request(wl, state, req, tracer=None):
    """One timed request; returns ``(seconds, outcome or None, error)``."""
    if tracer is not None:
        tracer.begin_request()
    start = time.perf_counter()
    try:
        out = wl.run(state, req)
        error = None
    except Exception:  # a failed request is counted, not fatal
        out, error = None, traceback.format_exc(limit=4)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_request()
    if out is not None:
        error = wl.check(req, out)
    return seconds, out, error


def closed_loop(wl, state, seed, seconds, minimum, count=None):
    """Requests 0, 1, ... until ``seconds`` pass and ``minimum`` are done.

    With ``count`` set, exactly that many requests run instead.  Each
    request's inputs are made before its timer starts.
    """
    from workloads import request_source

    samples = []
    start = time.perf_counter()
    while True:
        i = len(samples)
        elapsed = time.perf_counter() - start
        if count is not None:
            if i >= count:
                break
        elif (i >= minimum and elapsed >= seconds) or elapsed >= LOOP_CAP_S:
            break
        req = wl.make(state, request_source(seed, i, wl.tick_sample), i)
        dt, out, error = run_request(wl, state, req)
        samples.append(sample(dt, out, error))
    return samples


def sample(dt, out, error) -> dict:
    row = {"seconds": dt, "error": error}
    if out is not None:
        cost = out.cost
        row.update(
            digest=digest(out.result),
            ticks=float(cost.time),
            comm_rounds=int(cost.comm_rounds),
            elements_transferred=float(cost.elements_transferred),
        )
    return row


def summary(samples) -> dict:
    errors = [s["error"] for s in samples if s["error"]]
    return {"attempted": len(samples), "failed": len(errors), "errors": errors[:3]}


def timed(wl, state, args) -> dict:
    samples = closed_loop(wl, state, args.seed, args.seconds, wl.tick_sample,
                          args.requests)
    ticks = [s.get("ticks", 0.0) for s in samples[: wl.tick_sample]]
    return dict(
        summary(samples),
        times_s=[s["seconds"] for s in samples],
        ticks=ticks,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


GUARD_FIELDS = ("digest", "ticks", "comm_rounds", "elements_transferred")


def traced(wl, state, args) -> dict:
    from repro import CostModel
    from repro.analysis.optimality import pt_ratio
    from hooks import METRIC_UNITS, Tracer
    from workloads import WARMUP, request_source

    reference = closed_loop(wl, state, args.seed, args.seconds, 4, args.requests)
    k = min(len(reference), max(2, len(reference) // 4))

    tracer = Tracer(model_check=wl.model_check)
    tracer.install()
    try:
        state = wl.setup()
        wl.run(state, wl.make(state, args.seed, WARMUP))
        rows, extras, costs, pt = [], [], [], []
        cost_model = CostModel.cm2()
        for i in range(k):
            req = wl.make(state, request_source(args.seed, i, wl.tick_sample), i)
            dt, out, error = run_request(wl, state, req, tracer)
            rows.append(sample(dt, out, error))
            if out is None:
                continue
            extras.append(out.extras)
            costs.append(out.cost)
            ops = wl.serial_ops(req)
            if ops > 0:
                pt.append(pt_ratio(out.cost, 1 << wl.n_dims, ops, cost_model))
    finally:
        tracer.uninstall()
    if args.spans:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(args.spans)

    for i, (ref, row) in enumerate(zip(reference, rows)):
        for name in GUARD_FIELDS:
            if ref.get(name) != row.get(name):
                sys.stderr.write(
                    f"tick-identity guard: request {i} {name} differs "
                    f"traced ({row.get(name)!r}) vs untraced ({ref.get(name)!r})\n"
                )
                sys.exit(3)
    if tracer.first_mismatch:
        sys.stderr.write(
            f"{wl.name}: {tracer.mismatches} primitive calls off the cost "
            f"model; first: {tracer.first_mismatch}\n"
        )

    n = max(len(costs), 1)
    metrics = tracer.layer_metrics()
    for field in ("comm_rounds", "elements_transferred", "flops", "local_moves"):
        metrics[f"machine.{field}"] = sum(float(getattr(c, field)) for c in costs) / n
    for key in ("plans.hits", "plans.misses", "batch.stacked_frac",
                "abft.detected", "abft.corrected", "faults.recoveries",
                "faults.retries", "faults.detour_rounds"):
        metrics[key] = sum(e.get(key, 0.0) for e in extras) / n
    lookups = metrics["plans.hits"] + metrics["plans.misses"]
    metrics["plans.hit_ratio"] = metrics["plans.hits"] / lookups if lookups else 0.0
    metrics["analysis.pt_over_serial"] = statistics.fmean(pt) if pt else 0.0
    traced_s = [r["seconds"] for r in rows]
    untraced_s = [r["seconds"] for r in reference[:k]]
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
    metrics["trace.coverage"] = tracer.covered / sum(traced_s)
    if set(metrics) != set(METRIC_UNITS):
        sys.exit(f"per-layer metric names drifted: "
                 f"{sorted(set(metrics) ^ set(METRIC_UNITS))}")
    return dict(
        summary(reference + rows),
        metrics={name: {"value": v, "unit": METRIC_UNITS[name]}
                 for name, v in sorted(metrics.items())},
        traced_requests=k,
        unhooked=tracer.unhooked,
        first_mismatch=tracer.first_mismatch,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--requests", type=int, default=None,
                        help="run exactly this many requests (smoke runs)")
    parser.add_argument("--spans", help="where the traced pass writes spans")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    where = Path(repro.__file__).resolve().parent
    if where != (ROOT / "src" / "repro").resolve():
        sys.exit(f"repro imported from {where}, not from this checkout")
    from workloads import WARMUP, WORKLOADS

    wl = WORKLOADS[args.workload]
    state = wl.setup()
    warm = wl.make(state, args.seed, WARMUP)
    error = wl.check(warm, wl.run(state, warm))
    if error:
        sys.exit(f"{wl.name}: warm-up request failed its check: {error}")
    result = {"setup_s": time.perf_counter() - start}
    if args.mode == "timed":
        result.update(timed(wl, state, args))
    elif args.mode == "traced":
        result.update(traced(wl, state, args))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
