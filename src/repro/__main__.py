"""Command-line entry point: ``python -m repro`` (or the ``repro`` script).

Subcommands:

* ``info``  — machine/cost-model summary for a given cube size;
* ``demo``  — run the four primitives on a small matrix and print the
  simulated cost report (the quickstart, headless);
* ``solve`` — solve a random dense system at a chosen size and report the
  paper-style cost breakdown;
* ``trace`` — run a workload with tracing on and write a Chrome
  trace-event file (load it at ``chrome://tracing`` or ui.perfetto.dev);
* ``faults`` — run a workload under a seeded fault plan (node/link kills,
  transient drops), recover onto a healthy subcube, and report
  kills/retries/remaps/recovery ticks; exits non-zero unless recovery
  succeeded *and* the recovered result matches the fault-free baseline;
* ``abft`` — run a workload under seeded *silent data corruption* (bit
  flips at rest and in flight) with the ABFT checksum layer attached;
  exits non-zero unless every corruption was corrected or replayed away
  and the result matches the fault-free baseline bit-for-bit;
* ``check`` — run the conformance suite (sanitizer self-test,
  differential oracle sweep, golden cost snapshots) and emit a JSON
  report; exits non-zero on any violation.  ``--update-golden``
  re-captures the snapshots after an intentional accounting change;
* ``bench`` — the experiment warehouse (``repro.metrics.warehouse``):
  ``bench run`` executes a declarative run table and appends one JSONL
  record per run to ``benchmarks/warehouse/`` (nonzero exit on a failed
  validation or a missed speedup target of the ``batch`` curve);
  ``bench report`` gates the latest records against pinned baselines
  (nonzero exit on any simulated-tick regression); ``bench pin`` freezes
  new baselines;
* ``chaos`` — randomized seeded fault campaigns: every schedule draws a
  workload, a feature-flag combination and a fault plan mixing
  fail-stop, silent-data-corruption and gray-failure events, and must
  finish with a result equal to the fault-free baseline; any failure is
  delta-debugged down to a minimal replayable JSON plan and the campaign
  summary lands in the bench warehouse.  Exits non-zero on any failure.
  ``--workloads`` narrows the draw pool (e.g. ``--workloads bfs``);
* ``graph`` — run a sparse graph algorithm (BFS / SSSP / connected
  components, via the semiring SpMV primitives) on a seeded random
  graph, self-verify against the serial reference, and report the
  simulated cost; exits non-zero on any divergence.

``demo``/``solve``/``trace`` additionally accept ``--fault-seed`` /
``--fault-rate`` / ``--sdc-rate`` to inject non-fatal faults (link kills
+ transient drops + silent bit flips) under the regular workloads,
``--abft`` to attach the checksum layer, and ``--fault-plan FILE`` to
replay a recorded plan.  ``faults``/``abft`` accept ``--fault-plan`` too.
They also accept ``--sanitize`` (with ``--sample-every K``) to audit
accounting invariants and ``--profile`` to trace the run and print the
span tree's host wall-clock attribution table; ``trace --metrics-jsonl
FILE`` attaches the metrics registry and adds counter tracks to the
Chrome trace.

Every subcommand accepts ``--json`` to emit a machine-readable summary on
stdout instead of the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import Session, __version__
from .errors import ConfigError, CorruptionError
from .machine.cost_model import PRESETS


def _emit(args: argparse.Namespace, data: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_info(args: argparse.Namespace) -> int:
    session = Session(args.n, args.cost_model)
    machine = session.machine
    c = machine.cost_model
    threshold = machine.p * max(machine.n, 1)
    data = {
        "version": __version__,
        "p": machine.p,
        "n": machine.n,
        "cost_model": {
            "tau": c.tau, "t_c": c.t_c, "t_a": c.t_a, "t_m": c.t_m,
        },
        "large_vector_threshold": threshold,
    }
    text = "\n".join([
        f"repro {__version__} — simulated hypercube multiprocessor",
        f"processors : {machine.p} (n = {machine.n} cube dimensions)",
        f"cost model : tau={c.tau} t_c={c.t_c} t_a={c.t_a} t_m={c.t_m}",
        f"m > p lg p threshold: {threshold} elements",
    ])
    _emit(args, data, text)
    return 0


def _build_fault_plan(args: argparse.Namespace, horizon: float):
    """A non-fatal seeded plan (link kills + drops + SDC) for demo/solve/trace."""
    from .faults import FaultPlan

    rate = max(0.0, args.fault_rate)
    sdc = max(0.0, getattr(args, "sdc_rate", 0.0))
    return FaultPlan.random(
        args.n,
        seed=args.fault_seed,
        horizon=horizon,
        link_kills=max(0, int(round(rate))),
        node_kills=0,
        drops=max(1, int(round(2 * rate))),
        bit_flips=int(round(2 * sdc)),
        link_corruptions=int(round(sdc)),
    )


def _obs_kwargs(args: argparse.Namespace) -> dict:
    """Session kwargs for the opt-in observability flags.

    Only explicit flags appear in the result, so the ``REPRO_SANITIZE`` /
    ``REPRO_METRICS`` / ``REPRO_TRACE`` environment defaults still apply
    when a flag is absent.  ``--profile`` turns tracing on: the host-time
    table is a fold over the span tree.
    """
    kwargs: dict = {}
    if getattr(args, "sanitize", False):
        from .check.sanitizer import MachineSanitizer

        kwargs["sanitize"] = MachineSanitizer(
            sample_every=getattr(args, "sample_every", 1) or 1
        )
    if getattr(args, "profile", False):
        kwargs["trace"] = True
    if getattr(args, "metrics_jsonl", None):
        kwargs["metrics"] = True
    return kwargs


def _fault_session(args: argparse.Namespace, run_fault_free, trace=False):
    """Build the session, attaching seeded faults when --fault-seed is set.

    Fault times are fractions of the workload's fault-free runtime, so we
    first run it once on a throwaway session to measure the horizon, then
    schedule a non-fatal plan (link kills + transient drops, plus silent
    bit flips under ``--sdc-rate``) over ~75% of it.  Kills are non-fatal:
    exchanges survive via 3-hop detours, so the regular subcommands need no
    recovery logic (see the ``faults`` subcommand for node kills and
    degraded-mode recovery).  ``--fault-plan FILE`` replays a recorded
    plan verbatim instead (times are absolute, so no dry run is needed);
    ``--abft`` attaches the checksum layer either way.
    """
    kwargs = _obs_kwargs(args)
    kwargs.setdefault("trace", trace)  # --profile has already set it
    kwargs["abft"] = bool(getattr(args, "abft", False))
    plan_file = getattr(args, "fault_plan", None)
    if plan_file is not None:
        from .faults import FaultPlan

        plan = FaultPlan.from_json(plan_file)
        return Session(args.n, args.cost_model, faults=plan, **kwargs)
    if getattr(args, "fault_seed", None) is None:
        return Session(args.n, args.cost_model, **kwargs)
    dry = Session(args.n, args.cost_model)
    run_fault_free(dry)
    plan = _build_fault_plan(args, 0.75 * max(dry.time, 1.0))
    return Session(args.n, args.cost_model, faults=plan, **kwargs)


def _profiled_run(session: Session, fn):
    """Run ``fn()`` inside a ``run`` span when the session is traced.

    The span is the measurement window of the host-time table
    (:meth:`repro.obs.Tracer.format_profile`): its self time is the
    ``(unattributed)`` row.
    """
    tracer = session.tracer
    if tracer is None:
        return fn()
    with tracer.span("run", "run"):
        return fn()


def _profile_lines(args: argparse.Namespace, session: Session) -> list:
    """The host-time table under ``--profile``, else nothing."""
    if not getattr(args, "profile", False):
        return []
    return ["", session.tracer.format_profile()]


def _run_demo(session: Session, rng, rows: int, cols: int):
    """The quickstart workload: all four primitives on one matrix."""
    A_host = rng.standard_normal((rows, cols))
    A = session.matrix(A_host)
    with session.machine.phase("demo"):
        row = A.extract(axis=0, index=0)
        A2 = A.insert(axis=0, index=rows - 1, vector=row)
        tiled = row.distribute(A, axis=0)
        sums = A2.reduce(axis=1, op="sum")
        del tiled
    assert np.isclose(sums.to_numpy()[0], A_host[0].sum())
    return A


def _cmd_demo(args: argparse.Namespace) -> int:
    session = _fault_session(
        args,
        lambda s: _run_demo(
            s, np.random.default_rng(args.seed), args.rows, args.cols
        ),
    )
    rng = np.random.default_rng(args.seed)
    A = _profiled_run(
        session, lambda: _run_demo(session, rng, args.rows, args.cols)
    )
    data = dict(session.report_data(), embedding=repr(A.embedding))
    text = "\n".join(
        [f"embedded: {A.embedding!r}", "", session.report()]
        + _profile_lines(args, session)
    )
    _emit(args, data, text)
    return 0


def _run_solve(session: Session, args: argparse.Namespace):
    from .algorithms import gaussian, serial
    from .analysis import pt_ratio
    from . import workloads as W

    A_host, b, x_true = W.random_system(args.size, seed=args.seed)
    A = session.matrix(A_host)
    result = gaussian.solve(A, b, pivoting=args.pivoting)
    err = float(np.abs(result.x - x_true).max())
    ops = serial.gaussian_solve(A_host, b).ops
    ratio = pt_ratio(result.cost, session.machine.p, ops,
                     session.machine.cost_model)
    return result, err, ratio


def _cmd_solve(args: argparse.Namespace) -> int:
    session = _fault_session(args, lambda s: _run_solve(s, args))
    result, err, ratio = _profiled_run(
        session, lambda: _run_solve(session, args)
    )
    phases = [
        (name, t)
        for name, t in session.machine.counters.phase_breakdown()
        if name != "gaussian"
    ]
    data = {
        "size": args.size,
        "p": session.machine.p,
        "pivoting": args.pivoting,
        "max_error": err,
        "time": result.cost.time,
        "pt_ratio": ratio,
        "phase_breakdown": [{"phase": n, "time": t} for n, t in phases],
    }
    lines = [
        f"solved {args.size}x{args.size} on p={session.machine.p} "
        f"({args.pivoting} pivoting)",
        f"max error        : {err:.2e}",
        f"simulated time   : {result.cost.time:,.0f} ticks",
        f"PT / serial      : {ratio:,.1f}",
    ]
    injector = session.machine.faults
    if injector is not None:
        st = injector.stats
        data["faults"] = st.as_dict()
        lines.append(
            f"faults           : {st.link_kills} link kills, "
            f"{st.drops} drops / {st.retries} retries, "
            f"{st.detour_rounds} detour rounds"
        )
    lines += [f"  {name:<20s} {t:>14,.0f}" for name, t in phases]
    lines += _profile_lines(args, session)
    _emit(args, data, "\n".join(lines))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import to_chrome_trace, to_jsonl, validate_chrome_trace_file

    def run(session: Session) -> None:
        rng = np.random.default_rng(args.seed)
        if args.workload == "demo":
            _run_demo(session, rng, args.rows, args.cols)
        else:
            _run_solve(session, args)

    session = _fault_session(args, run, trace=True)
    _profiled_run(session, lambda: run(session))

    tracer = session.tracer
    # Attached metrics ride along as Chrome counter tracks next to the
    # span tree.
    registry = session.metrics
    extra_events = (
        registry.counter_track_events() if registry is not None else None
    )
    to_chrome_trace(tracer, args.out, extra_events=extra_events)
    counts = validate_chrome_trace_file(args.out)
    events, spans = counts["events"], counts["spans"]
    jsonl_lines = to_jsonl(tracer, args.jsonl) if args.jsonl else None
    metrics_lines = (
        registry.to_jsonl(args.metrics_jsonl)
        if registry is not None and args.metrics_jsonl
        else None
    )

    data = {
        "workload": args.workload,
        "out": args.out,
        "events": events,
        "spans": spans,
        "jsonl": args.jsonl,
        "jsonl_lines": jsonl_lines,
        "metrics_jsonl": args.metrics_jsonl,
        "metrics_jsonl_lines": metrics_lines,
        "report": session.report_data(),
    }
    lines = [
        f"ran workload '{args.workload}' on p={session.machine.p} "
        f"with tracing on",
        f"chrome trace     : {args.out} ({events} events, {spans} spans)",
    ]
    if args.jsonl:
        lines.append(f"jsonl event log  : {args.jsonl} "
                     f"({jsonl_lines} lines)")
    if metrics_lines is not None:
        lines.append(f"metrics jsonl    : {args.metrics_jsonl} "
                     f"({metrics_lines} lines)")
    lines += ["", session.report()]
    lines += _profile_lines(args, session)
    _emit(args, data, "\n".join(lines))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import CheckpointStore, FaultPlan, run_resilient
    from .faults.recovery import build_workload

    make = build_workload(
        args.workload, args.size, args.seed,
        checkpoint_every=args.checkpoint_every,
    )

    # Fault-free dry run: the baseline result and the fault horizon.
    dry = Session(args.n, args.cost_model)
    baseline = make()(dry, CheckpointStore(dry))
    horizon = args.at * max(dry.time, 1.0)

    if args.fault_plan:
        plan = FaultPlan.from_json(args.fault_plan)
    else:
        plan = FaultPlan.random(
            args.n,
            seed=args.fault_seed,
            horizon=horizon,
            link_kills=args.link_kills,
            node_kills=args.node_kills,
            drops=args.drops,
        )
    from .faults import CheckpointPolicy

    policy = CheckpointPolicy(
        strategy=args.checkpoint_strategy, every=args.checkpoint_every
    )
    session = Session(
        args.n, args.cost_model, faults=plan, trace=bool(args.trace_out)
    )
    report = run_resilient(
        session, make(), max_recoveries=args.max_recoveries, policy=policy
    )
    matches = bool(
        report.recovered
        and report.result is not None
        and np.array_equal(np.asarray(report.result), np.asarray(baseline))
    )
    if args.trace_out:
        from .obs import to_chrome_trace

        to_chrome_trace(session.tracer, args.trace_out)

    st = report.stats
    data = {
        "workload": args.workload,
        "size": args.size,
        "p": 2 ** args.n,
        "final_p": report.final_p,
        "plan": plan.as_dict(),
        "recovered": report.recovered,
        "recoveries": report.recoveries,
        "promotions": report.promotions,
        "matches_baseline": matches,
        "stats": st.as_dict(),
        "checkpoint": report.checkpoint,
        "time": session.time,
        "fault_free_time": dry.time,
    }
    if report.error is not None:
        data["error"] = report.error
    if args.trace_out:
        data["trace_out"] = args.trace_out
    ck = report.checkpoint or {}
    lines = [
        f"workload '{args.workload}' ({args.size}x{args.size}) "
        f"on p={2 ** args.n} under {plan!r}",
        f"recovered        : {report.recovered} "
        f"({report.recoveries} recoveries, final p={report.final_p})",
        f"matches baseline : {matches}",
        f"kills            : {st.node_kills} node / {st.link_kills} link",
        f"drops / retries  : {st.drops} / {st.retries}",
        f"detour rounds    : {st.detour_rounds}",
        f"remapped arrays  : {st.remapped_arrays}",
        f"checkpointing    : {ck.get('strategy', '-')} "
        f"(every {ck.get('every', '-')}; {ck.get('saves', 0)} saves / "
        f"{ck.get('save_ticks', 0.0):,.0f} ticks, "
        f"{ck.get('restores', 0)} restores / "
        f"{ck.get('restore_ticks', 0.0):,.0f} ticks)",
        f"recovery ticks   : {st.recovery_ticks:,.0f}",
        f"simulated time   : {session.time:,.0f} ticks "
        f"(fault-free {dry.time:,.0f})",
    ]
    if report.promotions:
        lines.append(
            f"re-expansion     : {report.promotions} promotions "
            f"({st.node_heals} node / {st.link_heals} link heals)"
        )
    if report.error is not None:
        lines.append(f"last fault error : {report.error}")
    _emit(args, data, "\n".join(lines))
    return 0 if (report.recovered and matches) else 1


def _cmd_abft(args: argparse.Namespace) -> int:
    from .abft import ABFTManager
    from .faults import CheckpointStore, FaultPlan, run_resilient
    from .faults.recovery import build_workload

    make = build_workload(args.workload, args.size, args.seed)

    # Fault-free dry run with ABFT *off*: the bit-exact baseline and the
    # corruption horizon.  Recovery must reproduce this result exactly.
    dry = Session(args.n, args.cost_model)
    baseline = make()(dry, CheckpointStore(dry))
    horizon = args.at * max(dry.time, 1.0)

    if args.fault_plan:
        plan = FaultPlan.from_json(args.fault_plan)
    else:
        plan = FaultPlan.random(
            args.n,
            seed=args.fault_seed,
            horizon=horizon,
            link_kills=0,
            node_kills=0,
            drops=0,
            bit_flips=args.bit_flips,
            link_corruptions=args.link_corruptions,
        )
    manager = ABFTManager(scrub_interval=args.scrub_interval)
    session = Session(
        args.n,
        args.cost_model,
        faults=plan,
        abft=manager,
        trace=bool(args.trace_out),
    )
    report = run_resilient(
        session, make(), max_recoveries=args.max_recoveries
    )
    matches = bool(
        report.recovered
        and report.result is not None
        and np.array_equal(np.asarray(report.result), np.asarray(baseline))
    )
    if args.trace_out:
        from .obs import to_chrome_trace

        to_chrome_trace(session.tracer, args.trace_out)

    st = report.stats
    ab = manager.stats
    c = session.machine.counters
    overhead = session.time / dry.time if dry.time else float("nan")
    data = {
        "workload": args.workload,
        "size": args.size,
        "p": 2 ** args.n,
        "plan": plan.as_dict(),
        "recovered": report.recovered,
        "recoveries": report.recoveries,
        "matches_baseline": matches,
        "stats": st.as_dict(),
        **manager.report_data(),
        "time": session.time,
        "fault_free_time": dry.time,
        "overhead": overhead,
    }
    if report.error is not None:
        data["error"] = report.error
    if args.trace_out:
        data["trace_out"] = args.trace_out
    lines = [
        f"workload '{args.workload}' ({args.size}x{args.size}) "
        f"on p={2 ** args.n} under {plan!r}",
        f"recovered        : {report.recovered} "
        f"({report.recoveries} checkpoint replays)",
        f"matches baseline : {matches}",
        f"bit flips fired  : {st.bit_flips} stored / "
        f"{st.link_corruptions} in flight ({st.sdc_skipped} skipped)",
        f"abft             : {c.abft_detected} detected, "
        f"{c.abft_corrected} corrected, {ab.uncorrectable} escalated, "
        f"{ab.wire_retransmits} wire retransmits",
        f"protection       : {ab.protected} blocks protected, "
        f"{ab.verifies} verified, {ab.scrubs} scrubs",
        f"simulated time   : {session.time:,.0f} ticks "
        f"(fault-free {dry.time:,.0f}, overhead {overhead:.2f}x)",
    ]
    if report.error is not None:
        lines.append(f"last fault error : {report.error}")
    _emit(args, data, "\n".join(lines))
    return 0 if (report.recovered and matches) else 1


def _cmd_graph(args: argparse.Namespace) -> int:
    # Imports repro.sparse (via the graph module) only here: every other
    # subcommand stays sparse-free.
    from . import workloads as W
    from .algorithms import graph as G

    graph = W.random_graph(args.nodes, args.degree, seed=args.seed)
    session = Session(args.n, args.cost_model, **_obs_kwargs(args))

    def run():
        if args.algorithm == "bfs":
            return (
                G.bfs(session, graph, args.source),
                G.bfs_reference(graph, args.source),
            )
        if args.algorithm == "sssp":
            return (
                G.sssp(session, graph, args.source),
                G.sssp_reference(graph, args.source),
            )
        return (
            G.connected_components(session, graph),
            G.cc_reference(graph),
        )

    result, want = _profiled_run(session, run)
    matches = bool(np.array_equal(result.values, want))
    reached = int((result.values >= 0).sum()) if args.algorithm != "cc" else (
        args.nodes
    )
    data = {
        "algorithm": args.algorithm,
        "nodes": args.nodes,
        "edges": graph.n_edges,
        "source": args.source,
        "p": session.machine.p,
        "iterations": result.iterations,
        "reached": reached,
        "matches_reference": matches,
        "time": result.cost.time,
        "cost": result.cost.as_dict(),
    }
    lines = [
        f"{args.algorithm} on {args.nodes} vertices / {graph.n_edges} edges "
        f"(seed {args.seed}, p={session.machine.p})",
        f"iterations       : {result.iterations}",
        f"reached          : {reached}/{args.nodes} vertices"
        if args.algorithm != "cc"
        else f"components       : {len(np.unique(result.values))}",
        f"matches reference: {matches}",
        f"simulated time   : {result.cost.time:,.0f} ticks",
    ]
    lines += _profile_lines(args, session)
    _emit(args, data, "\n".join(lines))
    return 0 if matches else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import golden, runner

    if args.update_golden:
        data = golden.update_golden()
        text_lines = [f"golden snapshots re-captured -> {golden.GOLDEN_PATH}"]
        for name, fields in sorted(data["workloads"].items()):
            text_lines.append(
                f"  {name:<10s} time={fields['time']:,.1f} "
                f"flops={fields['flops']:,.0f} "
                f"rounds={fields['comm_rounds']:.0f}"
            )
        _emit(args, data, "\n".join(text_lines))
        return 0

    report, passed = runner.run_check(
        seed=args.seed,
        n_dims=args.n,
        quick=args.quick,
        skip_differential=args.skip_differential,
        skip_golden=args.skip_golden,
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    lines = [f"conformance check on n={args.n} (seed {args.seed})"]
    st = report["sanitizer_selftest"]
    lines.append(
        f"sanitizer selftest : {'PASS' if st['passed'] else 'FAIL'}"
    )
    if "differential" in report:
        diff = report["differential"]
        n_cells = len(diff["cells"])
        n_bad = len(diff["failures"])
        lines.append(
            f"differential sweep : "
            f"{'PASS' if diff['passed'] else 'FAIL'} "
            f"({n_cells - n_bad}/{n_cells} cells)"
        )
        for f in diff["failures"]:
            lines.append(f"  FAIL {f['case']} @ {f['config']}: {f['detail']}")
    if "golden" in report:
        g = report["golden"]
        lines.append(
            f"golden snapshots   : {'PASS' if g['passed'] else 'FAIL'} "
            f"({g['path']})"
        )
        if "error" in g:
            lines.append(f"  {g['error']}")
        for m in g["mismatches"]:
            lines.append(
                f"  {m['workload']}[sanitize={m['sanitize']}].{m['field']}: "
                f"expected {m['expected']!r}, observed {m['observed']!r}"
            )
    lines.append(f"overall            : {'PASS' if passed else 'FAIL'}")
    if args.out:
        lines.append(f"report written to  : {args.out}")
    _emit(args, report, "\n".join(lines))
    return 0 if passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .metrics import warehouse as wh

    out_dir = args.out or wh.default_warehouse_dir()
    runs_path = os.path.join(out_dir, wh.RUNS_FILE)
    baselines_path = args.baselines or os.path.join(
        out_dir, wh.BASELINES_FILE
    )
    try:
        if args.action == "run":
            table = wh.load_table(args.table)
            progress = None if args.json else print
            records = wh.run_table(
                table, validate=args.validate, reps=args.reps,
                progress=progress,
            )
            wh.append_records(records, runs_path)
            failed = [r for r in records if r["validated"] is False]
            missed = wh.missed_targets(args.table, records)
            data = {
                "table": args.table,
                "runs": len(records),
                "out": runs_path,
                "validated": args.validate,
                "failures": [
                    {"workload": r["workload"], "params": r["params"],
                     "detail": r["validate_detail"]}
                    for r in failed
                ],
                "missed_targets": missed,
                "records": records,
            }
            text = "\n".join(
                [f"{len(records)} runs appended to {runs_path}"
                 + (f"; {len(failed)} VALIDATION FAILURES" if failed else "")]
                + [f"TARGET MISSED: {line}" for line in missed]
            )
            _emit(args, data, text)
            return 1 if failed or missed else 0

        if args.action == "report":
            records = wh.load_records(runs_path)
            baselines = wh.load_baselines(baselines_path)
            report = wh.compare(
                records, baselines, wall_tolerance=args.wall_tolerance
            )
            lines = [
                f"warehouse  : {runs_path} ({len(records)} records)",
                f"baselines  : {baselines_path} "
                f"({len(baselines.get('entries', {}))} pins, "
                f"rev {baselines.get('git_rev', '?')})",
                f"compared   : {report['compared']}  "
                f"new: {len(report['new'])}  "
                f"missing: {len(report['missing'])}",
            ]
            for reg in report["regressions"]:
                lines.append(
                    f"REGRESSION [{reg['kind']}] {reg['label']}: "
                    f"{reg['observed']:,.6g} vs pinned "
                    f"{reg['pinned']:,.6g} ({reg['ratio']:.3f}x)"
                )
            for imp in report["improvements"]:
                lines.append(
                    f"improved [{imp['kind']}] {imp['label']}: "
                    f"{imp['observed']:,.6g} vs pinned {imp['pinned']:,.6g}"
                )
            lines.append("PASS" if report["passed"] else "FAIL")
            _emit(args, report, "\n".join(lines))
            return 0 if report["passed"] else 1

        # action == "pin"
        records = wh.load_records(runs_path)
        doc = wh.pin_baselines(records, baselines_path)
        data = {
            "baselines": baselines_path,
            "entries": len(doc["entries"]),
            "git_rev": doc["git_rev"],
        }
        _emit(
            args, data,
            f"pinned {len(doc['entries'])} baselines -> {baselines_path}",
        )
        return 0
    except (ConfigError, FileNotFoundError) as exc:
        print(f"bench {args.action}: {exc}", file=sys.stderr)
        return 2


def _cmd_chaos(args: argparse.Namespace) -> int:
    import time as _walltime

    from .faults import chaos

    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        raise ConfigError(
            f"--sizes must be comma-separated integers, got {args.sizes!r}"
        ) from None
    if not sizes:
        raise ConfigError("--sizes must name at least one matrix size")
    workload_pool = tuple(
        w.strip() for w in args.workloads.split(",") if w.strip()
    )
    if not workload_pool:
        raise ConfigError("--workloads must name at least one workload")
    strategy_pool = tuple(
        s.strip() for s in args.checkpoint_strategy.split(",") if s.strip()
    )
    if not strategy_pool:
        raise ConfigError(
            "--checkpoint-strategy must name at least one strategy"
        )
    progress = None if args.json else print

    t0 = _walltime.perf_counter()
    report = chaos.run_campaign(
        args.schedules,
        master_seed=args.seed,
        n_dims=args.n,
        sizes=sizes,
        workloads=workload_pool,
        shrink=not args.no_shrink,
        artifact_dir=args.artifact_dir,
        progress=progress,
        strategies=strategy_pool,
        checkpoint_schedules=args.checkpoint_schedules,
        checkpoint_every=args.checkpoint_every,
    )
    campaign_wall = _walltime.perf_counter() - t0

    t0 = _walltime.perf_counter()
    straggler = chaos.straggler_experiment(n_dims=args.n)
    straggler_wall = _walltime.perf_counter() - t0

    report["wall_s"] = campaign_wall
    report["straggler"] = straggler

    if args.out:
        out_dir = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if not args.no_warehouse:
        from .metrics import warehouse as wh

        warehouse_dir = args.warehouse or wh.default_warehouse_dir()
        runs_path = os.path.join(warehouse_dir, wh.RUNS_FILE)
        wh.append_records(
            [
                chaos.campaign_record(report, campaign_wall),
                chaos.straggler_record(straggler, straggler_wall),
            ],
            runs_path,
        )
        report["warehouse"] = runs_path

    gray = report["gray"]
    lines = [
        f"chaos campaign   : {report['schedules']} schedules on "
        f"p={2 ** args.n} (seed {args.seed}, sizes {sizes})",
        f"result           : {report['ok']} ok / {report['failed']} failed "
        f"({report['recoveries']} recoveries, "
        f"{report['promotions']} promotions, "
        f"{report['total_fault_events']} fault events)",
        f"checkpointing    : strategies "
        f"{dict(sorted(report['strategies'].items()))}",
        f"gray faults      : {gray['link_slows']} slow links, "
        f"{gray['node_slows']} slow nodes, {gray['flaky_links']} flaky "
        f"links / {gray['flaky_drops']} drops, "
        f"{gray['hedged_retransmits']} hedged, "
        f"{gray['straggler_detours']} detours, "
        f"{gray['gray_recoveries']} recoveries",
        f"straggler expt   : {straggler['tick_reduction']:.1%} tick "
        f"reduction with avoidance on "
        f"({straggler['ticks_avoidance_off']:,.0f} -> "
        f"{straggler['ticks_avoidance_on']:,.0f} ticks, "
        f"{straggler['straggler_detours']} detours)",
        f"wall time        : {campaign_wall:.1f}s",
    ]
    for failure in report["failures"]:
        sched = failure["schedule"]
        line = (
            f"FAIL #{sched['index']}     : {sched['workload']}/"
            f"{sched['size']} seed={sched['seed']}: "
            f"{failure['outcome']['error']}"
        )
        if "minimized_path" in failure:
            line += f" (minimized: {failure['minimized_path']})"
        lines.append(line)
    if "warehouse" in report:
        lines.append(f"warehouse        : {report['warehouse']}")
    _emit(args, report, "\n".join(lines))
    return 0 if report["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Four Vector-Matrix Primitives (SPAA 1989) reproduction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine_args(p):
        p.add_argument("-n", type=int, default=8,
                       help="cube dimensions (p = 2^n; default 8)")
        p.add_argument("--cost-model", default="cm2", choices=list(PRESETS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON summary")

    def add_obs_args(p):
        p.add_argument(
            "--sanitize", action="store_true",
            help="attach the machine sanitizer (audits accounting "
                 "invariants at every charged operation)")
        p.add_argument(
            "--sample-every", type=int, default=1, metavar="K",
            help="with --sanitize, audit every K-th charged round "
                 "(default 1 = every round)")
        p.add_argument(
            "--profile", action="store_true",
            help="trace the run and print the host wall-clock "
                 "attribution table")

    def add_fault_args(p):
        p.add_argument(
            "--fault-seed", type=int, default=None,
            help="inject seeded non-fatal faults (link kills + drops)")
        p.add_argument(
            "--fault-rate", type=float, default=1.0,
            help="scale the number of injected faults (default 1.0)")
        p.add_argument(
            "--sdc-rate", type=float, default=0.0,
            help="also inject silent data corruption (bit flips at rest "
                 "+ in flight) scaled by this rate (default 0.0)")
        p.add_argument(
            "--fault-plan", default=None, metavar="FILE",
            help="replay a recorded JSON fault plan instead of a "
                 "seeded random one")
        p.add_argument(
            "--abft", action="store_true",
            help="attach the ABFT checksum layer (detects and corrects "
                 "silent data corruption)")

    p_info = sub.add_parser("info", help="machine summary")
    add_machine_args(p_info)
    p_info.set_defaults(fn=_cmd_info)

    p_demo = sub.add_parser("demo", help="run the four primitives")
    add_machine_args(p_demo)
    add_fault_args(p_demo)
    add_obs_args(p_demo)
    p_demo.add_argument("--rows", type=int, default=96)
    p_demo.add_argument("--cols", type=int, default=64)
    p_demo.set_defaults(fn=_cmd_demo)

    p_solve = sub.add_parser("solve", help="solve a random dense system")
    add_machine_args(p_solve)
    add_fault_args(p_solve)
    add_obs_args(p_solve)
    p_solve.add_argument("--size", type=int, default=64)
    p_solve.add_argument("--pivoting", default="partial",
                         choices=["partial", "implicit", "none"])
    p_solve.set_defaults(fn=_cmd_solve)

    p_trace = sub.add_parser(
        "trace", help="run a workload with tracing and export a Chrome trace"
    )
    add_machine_args(p_trace)
    add_fault_args(p_trace)
    add_obs_args(p_trace)
    p_trace.add_argument("--workload", default="demo",
                         choices=["demo", "solve"])
    p_trace.add_argument("--rows", type=int, default=96)
    p_trace.add_argument("--cols", type=int, default=64)
    p_trace.add_argument("--size", type=int, default=64)
    p_trace.add_argument("--pivoting", default="partial",
                         choices=["partial", "implicit", "none"])
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome trace-event output path")
    p_trace.add_argument("--jsonl", default=None,
                         help="also write a JSONL structured event log here")
    p_trace.add_argument("--metrics-jsonl", default=None, metavar="FILE",
                         help="attach the metrics registry and write its "
                              "snapshot history (JSONL) here; the Chrome "
                              "trace gains per-subsystem counter tracks")
    p_trace.set_defaults(fn=_cmd_trace)

    p_faults = sub.add_parser(
        "faults",
        help="run a workload under seeded faults and verify recovery",
    )
    add_machine_args(p_faults)
    p_faults.add_argument("--workload", default="gaussian",
                          choices=["gaussian", "simplex", "matvec"])
    p_faults.add_argument("--size", type=int, default=16)
    p_faults.add_argument("--fault-seed", type=int, default=0,
                          help="seed for the random fault plan")
    p_faults.add_argument("--node-kills", type=int, default=1)
    p_faults.add_argument("--link-kills", type=int, default=1)
    p_faults.add_argument("--drops", type=int, default=2)
    p_faults.add_argument("--max-recoveries", type=int, default=2)
    p_faults.add_argument("--at", type=float, default=0.6,
                          help="fault horizon as a fraction of the "
                               "fault-free runtime (default 0.6)")
    p_faults.add_argument("--trace-out", default=None,
                          help="also write a Chrome trace-event file here")
    p_faults.add_argument("--fault-plan", default=None, metavar="FILE",
                          help="replay a recorded JSON fault plan instead "
                               "of a seeded random one")
    p_faults.add_argument("--checkpoint-strategy", default="host",
                          choices=["host", "diskless", "incremental"],
                          help="checkpoint cost model: host gather "
                               "(default), diskless in-cube mirror+parity, "
                               "or incremental dirty-block deltas")
    p_faults.add_argument("--checkpoint-every", type=int, default=4,
                          help="checkpoint cadence in elimination steps "
                               "(gaussian workload only; default 4)")
    p_faults.set_defaults(fn=_cmd_faults)

    p_abft = sub.add_parser(
        "abft",
        help="inject silent data corruption and verify checksum recovery",
    )
    add_machine_args(p_abft)
    p_abft.add_argument("--workload", default="gaussian",
                        choices=["gaussian", "simplex", "matvec"])
    p_abft.add_argument("--size", type=int, default=16)
    p_abft.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the random corruption plan")
    p_abft.add_argument("--bit-flips", type=int, default=2,
                        help="stored-element bit flips to inject (default 2)")
    p_abft.add_argument("--link-corruptions", type=int, default=1,
                        help="in-flight bit flips to inject (default 1)")
    p_abft.add_argument("--scrub-interval", type=int, default=16,
                        help="scrub the registry every N protections "
                             "(0 disables; default 16)")
    p_abft.add_argument("--max-recoveries", type=int, default=2)
    p_abft.add_argument("--at", type=float, default=0.6,
                        help="corruption horizon as a fraction of the "
                             "fault-free runtime (default 0.6)")
    p_abft.add_argument("--fault-plan", default=None, metavar="FILE",
                        help="replay a recorded JSON fault plan instead "
                             "of a seeded random one")
    p_abft.add_argument("--trace-out", default=None,
                        help="also write a Chrome trace-event file here")
    p_abft.set_defaults(fn=_cmd_abft)

    p_graph = sub.add_parser(
        "graph",
        help="run a sparse graph algorithm (semiring SpMV) and verify "
             "against the serial reference",
    )
    add_machine_args(p_graph)
    add_obs_args(p_graph)
    p_graph.add_argument("--algorithm", default="bfs",
                         choices=["bfs", "sssp", "cc"])
    p_graph.add_argument("--nodes", type=int, default=64,
                         help="vertex count of the seeded random graph "
                              "(default 64)")
    p_graph.add_argument("--degree", type=float, default=3.0,
                         help="target average degree (default 3.0)")
    p_graph.add_argument("--source", type=int, default=0,
                         help="source vertex for bfs/sssp (default 0)")
    p_graph.set_defaults(fn=_cmd_graph)

    p_check = sub.add_parser(
        "check",
        help="run the conformance suite (sanitizer / oracle / golden)",
    )
    p_check.add_argument("-n", type=int, default=4,
                         help="cube dimensions for the oracle sweep "
                              "(default 4)")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--json", action="store_true",
                         help="emit the full JSON report on stdout")
    p_check.add_argument("--quick", action="store_true",
                         help="reduced config matrix (2 cells per case)")
    p_check.add_argument("--skip-differential", action="store_true")
    p_check.add_argument("--skip-golden", action="store_true")
    p_check.add_argument("--out", default=None,
                         help="also write the JSON report to this path")
    p_check.add_argument("--update-golden", action="store_true",
                         help="re-capture the golden cost snapshots and exit")
    p_check.set_defaults(fn=_cmd_check)

    p_bench = sub.add_parser(
        "bench",
        help="experiment warehouse: declarative run tables, JSONL "
             "history, baseline pinning and the regression gate",
    )
    p_bench.add_argument(
        "action", nargs="?", default="run",
        choices=["run", "report", "pin"],
        help="run a table (default), compare vs pinned baselines, "
             "or pin the latest records")
    p_bench.add_argument(
        "--table", default="smoke",
        help="built-in run table (smoke, full, resilience, batch) or a "
             "JSON run-table file; `batch` exits 1 if gaussian N=64 is "
             "under 4x amortized")
    p_bench.add_argument(
        "--out", default=None, metavar="DIR",
        help="warehouse directory (default benchmarks/warehouse)")
    p_bench.add_argument(
        "--reps", type=int, default=None,
        help="override every spec's timed repetitions")
    p_bench.add_argument(
        "--validate", action="store_true",
        help="check every run's result against its NumPy reference")
    p_bench.add_argument(
        "--baselines", default=None, metavar="FILE",
        help="baselines file for report/pin "
             "(default <warehouse>/baselines.json)")
    p_bench.add_argument(
        "--wall-tolerance", type=float, default=None, metavar="FRAC",
        help="also gate wall seconds at +FRAC relative slack (default: "
             "report-only; simulated ticks always gate)")
    p_bench.add_argument("--json", action="store_true",
                         help="emit a machine-readable JSON summary")
    p_bench.set_defaults(fn=_cmd_bench)

    p_chaos = sub.add_parser(
        "chaos",
        help="randomized fault campaigns: seeded schedules across "
             "workloads, flags and all fault types, checked against "
             "fault-free baselines; failures shrink to minimal "
             "replayable plans",
    )
    p_chaos.add_argument("-n", type=int, default=4,
                         help="cube dimensions (p = 2^n; default 4)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="campaign master seed (default 0)")
    p_chaos.add_argument(
        "--schedules", type=int, default=200,
        help="number of independent seeded schedules (default 200)")
    p_chaos.add_argument(
        "--sizes", default="8,12,16", metavar="N,N,...",
        help="comma-separated matrix sizes to draw from (default 8,12,16)")
    p_chaos.add_argument(
        "--workloads", default="gaussian,simplex,matvec,bfs",
        metavar="W,W,...",
        help="comma-separated workload pool to draw from "
             "(default gaussian,simplex,matvec,bfs)")
    p_chaos.add_argument(
        "--artifact-dir", default="chaos-artifacts", metavar="DIR",
        help="directory for minimized failing plans (created up front; "
             "default chaos-artifacts)")
    p_chaos.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the full campaign report as JSON to FILE")
    p_chaos.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging minimization of failing plans")
    p_chaos.add_argument(
        "--no-warehouse", action="store_true",
        help="do not append campaign records to the bench warehouse")
    p_chaos.add_argument(
        "--warehouse", default=None, metavar="DIR",
        help="warehouse directory for campaign records "
             "(default benchmarks/warehouse)")
    p_chaos.add_argument(
        "--checkpoint-strategy", default="host,diskless,incremental",
        metavar="S,S,...",
        help="comma-separated checkpoint strategies the schedules draw "
             "from (default host,diskless,incremental)")
    p_chaos.add_argument(
        "--checkpoint-every", type=int, default=None,
        help="fix the checkpoint cadence instead of drawing it per "
             "schedule")
    p_chaos.add_argument(
        "--checkpoint-schedules", type=int, default=0,
        help="append this many adversarial mid-save/mid-restore kill "
             "schedules after the random ones (default 0)")
    p_chaos.add_argument("--json", action="store_true",
                         help="emit a machine-readable JSON summary")
    p_chaos.set_defaults(fn=_cmd_chaos)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except CorruptionError as exc:
        # Multi-element corruption with no checkpoint to replay from:
        # surface it as a clean failure rather than a traceback.
        print(f"uncorrectable silent data corruption: {exc}",
              file=sys.stderr)
        print("(this subcommand has no checkpoint recovery — see "
              "'repro abft' for resilient SDC runs)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
