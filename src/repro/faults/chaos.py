"""Chaos campaigns: randomized fault schedules with shrinking.

A *campaign* runs many independent, seeded **schedules**.  Each schedule
draws a workload (gaussian / simplex / matvec on integer data), a feature
flag combination (ABFT, sanitizer, plan cache, straggler avoidance,
hedged retransmission) and a pseudo-random :class:`~repro.faults.plan.
FaultPlan` mixing fail-stop, silent-data-corruption and gray-failure
events.  The faulted run must finish (recovering as needed) with a result
``np.array_equal`` to the fault-free baseline of the same problem; any
sanitizer violation or mismatch is a campaign failure.

On failure the offending schedule's plan is **shrunk** with delta
debugging (:func:`shrink_plan`): the smallest event subset that still
reproduces the failure is written out as a replayable JSON fault plan, so
``python -m repro faults --fault-plan minimized_<i>.json`` replays the
minimal counterexample deterministically.

The module is imported only by the ``repro chaos`` CLI command and by
tests — fault-free production runs never load it (pinned by
``tests/test_gray_faults.py``).
"""

from __future__ import annotations

import json
import os
import time as _time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.session import Session
from ..errors import ConfigError, ReproError
from .checkpoint import CheckpointStore
from .injector import FaultInjector, RetryPolicy
from .plan import FaultPlan, NodeHeal, NodeKill
from .recovery import WORKLOADS, build_workload, run_resilient
from .strategies import STRATEGIES, CheckpointPolicy

#: flag name -> probability the schedule generator turns it on.
FLAG_PROBS = {
    "abft": 0.33,
    "sanitize": 0.5,
    "plan_cache": 0.8,
    "avoid_stragglers": 0.7,
    "hedge": 0.5,
}


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

class BaselineCache:
    """Fault-free results, memoized per (workload, size, prob_seed, n)."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple, Tuple[np.ndarray, float]] = {}

    def get(
        self, workload: str, size: int, prob_seed: int, n_dims: int
    ) -> Tuple[np.ndarray, float]:
        """``(result, simulated_time)`` of the fault-free run."""
        key = (workload, size, prob_seed, n_dims)
        hit = self._cache.get(key)
        if hit is None:
            make = build_workload(workload, size, prob_seed)
            dry = Session(n_dims)
            result = make()(dry, CheckpointStore(dry))
            hit = (np.asarray(result), float(dry.time))
            self._cache[key] = hit
        return hit


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosSchedule:
    """One fully-determined chaos run: problem, flags and fault plan."""

    index: int
    seed: int
    workload: str
    size: int
    prob_seed: int
    n_dims: int
    flags: Dict[str, bool] = field(hash=False)
    plan: FaultPlan = field(hash=False)
    strategy: str = "host"
    checkpoint_every: int = 4

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "workload": self.workload,
            "size": self.size,
            "prob_seed": self.prob_seed,
            "n_dims": self.n_dims,
            "flags": dict(self.flags),
            "plan": self.plan.as_dict(),
            "strategy": self.strategy,
            "checkpoint_every": self.checkpoint_every,
        }


def generate_schedules(
    count: int,
    master_seed: int = 0,
    n_dims: int = 4,
    sizes: Sequence[int] = (8, 12, 16),
    workloads: Sequence[str] = WORKLOADS,
    baselines: Optional[BaselineCache] = None,
    strategies: Sequence[str] = STRATEGIES,
    checkpoint_every: Optional[int] = None,
) -> List[ChaosSchedule]:
    """Seeded schedule generator: same arguments, same campaign.

    Each schedule gets an independent child seed, so inserting or
    removing one never perturbs the others.  Fault-event times target the
    first 90% of the fault-free runtime of the drawn problem, so events
    land mid-flight rather than after completion.  Each schedule also
    draws a checkpoint strategy from ``strategies`` and (sometimes) heal
    events that re-enable killed hardware late in the run, giving
    re-expansion a chance to fire.
    """
    if count < 1:
        raise ConfigError(f"schedule count must be >= 1, got {count}")
    for w in workloads:
        if w not in WORKLOADS:
            raise ConfigError(
                f"unknown chaos workload {w!r}; choose from {WORKLOADS}"
            )
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(
                f"unknown checkpoint strategy {s!r}; choose from {STRATEGIES}"
            )
    if baselines is None:
        baselines = BaselineCache()
    schedules = []
    for index in range(count):
        rng = np.random.default_rng((master_seed, index))
        seed = int(rng.integers(1 << 31))
        workload = str(rng.choice(list(workloads)))
        size = int(rng.choice(list(sizes)))
        prob_seed = int(rng.integers(4))
        flags = {
            name: bool(rng.random() < prob) for name, prob in FLAG_PROBS.items()
        }
        _, base_time = baselines.get(workload, size, prob_seed, n_dims)
        horizon = 0.9 * max(base_time, 1.0)
        plan = FaultPlan.random(
            n_dims,
            seed=seed,
            horizon=horizon,
            link_kills=int(rng.integers(2)),
            node_kills=int(rng.integers(2)),
            drops=int(rng.integers(3)),
            # SDC without the ABFT layer armed corrupts silently — the
            # mismatch would be by design, not a bug — so bit flips and
            # link corruptions only appear on ABFT-enabled schedules.
            bit_flips=int(rng.integers(2)) if flags["abft"] else 0,
            link_corruptions=int(rng.integers(2)) if flags["abft"] else 0,
            link_slows=int(rng.integers(3)),
            node_slows=int(rng.integers(2)),
            flaky_links=int(rng.integers(2)),
            # Heal draws come last inside FaultPlan.random, so adding
            # them here leaves every earlier event stream byte-identical.
            node_heals=int(rng.integers(2)),
            link_heals=int(rng.integers(2)),
        )
        strategy = str(rng.choice(list(strategies)))
        # Draw even when overridden so the stream stays stable.
        drawn_every = int(rng.choice((2, 4, 6)))
        every = drawn_every if checkpoint_every is None else checkpoint_every
        schedules.append(
            ChaosSchedule(
                index=index,
                seed=seed,
                workload=workload,
                size=size,
                prob_seed=prob_seed,
                n_dims=n_dims,
                flags=flags,
                plan=plan,
                strategy=strategy,
                checkpoint_every=every,
            )
        )
    return schedules


def run_schedule(
    schedule: ChaosSchedule, baselines: Optional[BaselineCache] = None
) -> Dict[str, Any]:
    """Execute one schedule; never raises for fault-induced failures.

    Returns a dict with ``ok`` (recovered *and* result equals the
    fault-free baseline, with no invariant violation), plus the recovery
    report fields needed for the campaign record.
    """
    if baselines is None:
        baselines = BaselineCache()
    base_result, _ = baselines.get(
        schedule.workload, schedule.size, schedule.prob_seed, schedule.n_dims
    )
    make = build_workload(
        schedule.workload,
        schedule.size,
        schedule.prob_seed,
        checkpoint_every=schedule.checkpoint_every,
    )
    flags = schedule.flags
    retry = RetryPolicy(
        jitter=0.25, seed=schedule.seed, hedge=bool(flags.get("hedge"))
    )
    injector = FaultInjector(
        schedule.plan,
        retry=retry,
        avoid_stragglers=bool(flags.get("avoid_stragglers", True)),
    )
    outcome: Dict[str, Any] = {
        "index": schedule.index,
        "ok": False,
        "matches": False,
        "recovered": False,
        "recoveries": 0,
        "promotions": 0,
        "error": None,
        "time": 0.0,
        "final_p": 0,
        "stats": {},
    }
    try:
        session = Session(
            schedule.n_dims,
            plan_cache=bool(flags.get("plan_cache", True)),
            faults=injector,
            sanitize=bool(flags.get("sanitize")),
            abft=bool(flags.get("abft")),
        )
        policy = CheckpointPolicy(
            strategy=schedule.strategy, every=schedule.checkpoint_every
        )
        report = run_resilient(session, make(), max_recoveries=3, policy=policy)
    except ReproError as exc:
        # A sanitizer invariant violation (or any other escaped repro
        # error) is exactly the bug class the campaign hunts.
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcome["stats"] = injector.stats.as_dict()
        return outcome
    outcome["recovered"] = bool(report.recovered)
    outcome["recoveries"] = int(report.recoveries)
    outcome["promotions"] = int(report.promotions)
    outcome["final_p"] = int(report.final_p)
    outcome["time"] = float(session.time)
    outcome["stats"] = report.stats.as_dict()
    if report.error is not None:
        outcome["error"] = report.error
    if report.recovered and report.result is not None:
        outcome["matches"] = bool(
            np.array_equal(np.asarray(report.result), base_result)
        )
    outcome["ok"] = bool(outcome["recovered"] and outcome["matches"])
    if not outcome["ok"] and outcome["error"] is None:
        outcome["error"] = "result differs from fault-free baseline"
    return outcome


# ---------------------------------------------------------------------------
# checkpoint-window schedules (mid-save / mid-restore kills)
# ---------------------------------------------------------------------------

def checkpoint_windows(
    workload: str,
    size: int,
    prob_seed: int,
    n_dims: int,
    strategy: str = "host",
    checkpoint_every: int = 4,
) -> List[Tuple[float, float]]:
    """Simulated-time windows spanning each checkpoint save's charged cost.

    Runs the workload fault-free and records ``(t_before, t_after)``
    around every ``store.save``.  Because the simulator is deterministic,
    a faulted run with the same problem and policy follows the identical
    clock trajectory up to its first fault — so an event placed inside a
    window is guaranteed to fire during the save's charged collection.
    """
    make = build_workload(
        workload, size, prob_seed, checkpoint_every=checkpoint_every
    )
    session = Session(n_dims)
    store = CheckpointStore(session, policy=strategy)
    windows: List[Tuple[float, float]] = []
    original_save = store.save

    def recording_save(*args: Any, **kwargs: Any) -> Any:
        t0 = float(session.time)
        ck = original_save(*args, **kwargs)
        windows.append((t0, float(session.time)))
        return ck

    store.save = recording_save  # type: ignore[method-assign]
    make()(session, store)
    return windows


def generate_checkpoint_schedules(
    count: int,
    master_seed: int = 0,
    n_dims: int = 4,
    sizes: Sequence[int] = (8, 12),
    strategies: Sequence[str] = STRATEGIES,
    checkpoint_every: Optional[int] = None,
) -> List[ChaosSchedule]:
    """Adversarial schedules that kill a node mid-save / mid-restore.

    Every schedule targets the gaussian workload (the only one that
    checkpoints mid-run) and places a :class:`NodeKill` at the midpoint
    of a measured save window, so the fault fires *inside* the charged
    checkpoint collection.  Odd-indexed schedules add a second kill a
    hair after the first: it is still pending when the degraded session
    replays and fires during the restore's charged scatter — a
    mid-restore kill.  Every third schedule also heals the first victim
    later on, exercising re-expansion on top of the mid-save kill.
    """
    if count < 1:
        raise ConfigError(f"schedule count must be >= 1, got {count}")
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(
                f"unknown checkpoint strategy {s!r}; choose from {STRATEGIES}"
            )
    window_cache: Dict[Tuple, List[Tuple[float, float]]] = {}
    schedules = []
    for index in range(count):
        # A distinct stream offset keeps these independent of the main
        # generator's (master_seed, index) child seeds.
        rng = np.random.default_rng((master_seed, 104729, index))
        seed = int(rng.integers(1 << 31))
        size = int(rng.choice(list(sizes)))
        prob_seed = int(rng.integers(4))
        strategy = str(rng.choice(list(strategies)))
        drawn_every = int(rng.choice((2, 4)))
        every = drawn_every if checkpoint_every is None else checkpoint_every
        flags = {
            name: bool(rng.random() < prob) for name, prob in FLAG_PROBS.items()
        }
        key = (size, prob_seed, n_dims, strategy, every)
        windows = window_cache.get(key)
        if windows is None:
            windows = checkpoint_windows(
                "gaussian",
                size,
                prob_seed,
                n_dims,
                strategy=strategy,
                checkpoint_every=every,
            )
            window_cache[key] = windows
        # Prefer a later window so a committed checkpoint exists to
        # resume from; the first save starts at elimination step 0.
        wi = int(rng.integers(1, len(windows))) if len(windows) > 1 else 0
        t0, t1 = windows[wi]
        t_kill = 0.5 * (t0 + t1)
        p = 1 << n_dims
        # An odd victim pins the survivor subcube to the even pids
        # (fixed dimension 0, base 0 wins the deterministic tie-break),
        # which makes the follow-up kills below well-defined.
        victim = 1 + 2 * int(rng.integers(p // 2))
        events: List[Any] = [NodeKill(t_kill, pid=victim)]
        if index % 2 == 1:
            # The first kill's poll lands at a round start inside the
            # save window (clock < t1), so this one is still pending when
            # the degraded session replays — and the restore's charged
            # scatter spans well past t1, so it fires mid-restore.
            events.append(NodeKill(t1 + 1e-6, pid=2))
        if index % 3 == 2:
            # Heal the first victim well after the degrade so the next
            # committed checkpoint can promote back to the full cube.
            events.append(
                NodeHeal(t_kill + 2.0 * max(t1 - t0, 1.0), pid=victim)
            )
        plan = FaultPlan(tuple(sorted(events, key=lambda ev: ev.time)))
        schedules.append(
            ChaosSchedule(
                index=index,
                seed=seed,
                workload="gaussian",
                size=size,
                prob_seed=prob_seed,
                n_dims=n_dims,
                flags=flags,
                plan=plan,
                strategy=strategy,
                checkpoint_every=every,
            )
        )
    return schedules


# ---------------------------------------------------------------------------
# delta-debugging shrink
# ---------------------------------------------------------------------------

def shrink_plan(
    plan: FaultPlan,
    failing: Callable[[FaultPlan], bool],
    max_runs: int = 256,
) -> Tuple[FaultPlan, int]:
    """ddmin over the plan's event list.

    ``failing(candidate)`` must return True when the candidate plan still
    reproduces the failure.  Returns ``(minimal_plan, runs_used)`` — a
    1-minimal plan when the budget allows: removing any single remaining
    event makes the failure disappear.  The search re-runs the schedule
    at most ``max_runs`` times; on budget exhaustion the best plan found
    so far is returned (still failing, possibly not minimal).
    """
    events = list(plan.events)
    runs = 0

    def test(subset: List) -> bool:
        nonlocal runs
        runs += 1
        return bool(failing(FaultPlan(tuple(subset))))

    granularity = 2
    while len(events) >= 2 and runs < max_runs:
        chunk = max(1, len(events) // granularity)
        chunks = [events[i: i + chunk] for i in range(0, len(events), chunk)]
        reduced = False
        # Try each complement (drop one chunk) — the classic ddmin step.
        for i in range(len(chunks)):
            if runs >= max_runs:
                break
            candidate = [
                ev for j, c in enumerate(chunks) if j != i for ev in c
            ]
            if candidate and test(candidate):
                events = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    return FaultPlan(tuple(events)), runs


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def run_campaign(
    count: int,
    master_seed: int = 0,
    n_dims: int = 4,
    sizes: Sequence[int] = (8, 12, 16),
    workloads: Sequence[str] = WORKLOADS,
    shrink: bool = True,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    strategies: Sequence[str] = STRATEGIES,
    checkpoint_schedules: int = 0,
    checkpoint_every: Optional[int] = None,
) -> Dict[str, Any]:
    """Run ``count`` seeded schedules; shrink and archive any failure.

    Returns a campaign report dict.  When ``artifact_dir`` is set the
    directory is created up front (so CI artifact upload always finds
    it) and each failure's minimized plan lands there as
    ``minimized_<index>.json``, replayable with ``repro faults
    --fault-plan``.  ``checkpoint_schedules`` appends that many
    adversarial mid-save / mid-restore kill schedules (see
    :func:`generate_checkpoint_schedules`) after the random ones.
    """
    if artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)
    baselines = BaselineCache()
    schedules = generate_schedules(
        count,
        master_seed=master_seed,
        n_dims=n_dims,
        sizes=sizes,
        workloads=workloads,
        baselines=baselines,
        strategies=strategies,
        checkpoint_every=checkpoint_every,
    )
    if checkpoint_schedules:
        extra = generate_checkpoint_schedules(
            checkpoint_schedules,
            master_seed=master_seed,
            n_dims=n_dims,
            strategies=strategies,
            checkpoint_every=checkpoint_every,
        )
        # Re-index past the random block so failure artifacts stay unique.
        schedules += [
            replace(s, index=count + i) for i, s in enumerate(extra)
        ]
    total = len(schedules)
    ok = 0
    total_time = 0.0
    total_events = 0
    workload_counts: Dict[str, int] = {}
    flag_counts: Dict[str, int] = {name: 0 for name in FLAG_PROBS}
    gray_totals = {
        "link_slows": 0, "node_slows": 0, "flaky_links": 0,
        "flaky_drops": 0, "straggler_detours": 0, "hedged_retransmits": 0,
        "gray_recoveries": 0,
    }
    recoveries = 0
    promotions = 0
    expansions = 0
    strategy_counts: Dict[str, int] = {}
    failures: List[Dict[str, Any]] = []
    for schedule in schedules:
        outcome = run_schedule(schedule, baselines)
        total_time += outcome["time"]
        total_events += len(schedule.plan)
        workload_counts[schedule.workload] = (
            workload_counts.get(schedule.workload, 0) + 1
        )
        strategy_counts[schedule.strategy] = (
            strategy_counts.get(schedule.strategy, 0) + 1
        )
        for name, on in schedule.flags.items():
            if on:
                flag_counts[name] += 1
        recoveries += outcome["recoveries"]
        promotions += int(outcome.get("promotions", 0))
        expansions += int(outcome["stats"].get("expansions", 0))
        for name in gray_totals:
            gray_totals[name] += int(outcome["stats"].get(name, 0))
        if outcome["ok"]:
            ok += 1
            if progress is not None and (schedule.index + 1) % 25 == 0:
                progress(
                    f"[{schedule.index + 1}/{total}] ok so far: {ok}"
                )
            continue
        failure = {
            "schedule": schedule.as_dict(),
            "outcome": {
                k: v for k, v in outcome.items() if k != "stats"
            },
        }
        if progress is not None:
            progress(
                f"[{schedule.index + 1}/{total}] FAIL "
                f"{schedule.workload}/{schedule.size} seed={schedule.seed}: "
                f"{outcome['error']}"
            )
        if shrink:
            def still_fails(candidate: FaultPlan) -> bool:
                return not run_schedule(
                    replace(schedule, plan=candidate), baselines
                )["ok"]

            minimal, runs = shrink_plan(schedule.plan, still_fails)
            failure["minimized_plan"] = minimal.as_dict()
            failure["shrink_runs"] = runs
            failure["minimized_events"] = len(minimal)
            if progress is not None:
                progress(
                    f"    shrunk {len(schedule.plan)} -> {len(minimal)} "
                    f"events in {runs} runs"
                )
            if artifact_dir:
                path = os.path.join(
                    artifact_dir, f"minimized_{schedule.index}.json"
                )
                with open(path, "w") as fh:
                    json.dump(minimal.as_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                failure["minimized_path"] = path
        failures.append(failure)
    return {
        "schedules": total,
        "master_seed": master_seed,
        "n_dims": n_dims,
        "ok": ok,
        "failed": total - ok,
        "recoveries": recoveries,
        "promotions": promotions,
        "expansions": expansions,
        "total_fault_events": total_events,
        "total_sim_time": total_time,
        "workloads": workload_counts,
        "strategies": strategy_counts,
        "flags_on": flag_counts,
        "gray": gray_totals,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# straggler-avoidance experiment
# ---------------------------------------------------------------------------

def straggler_experiment(
    n_dims: int = 4,
    factor: float = 12.0,
    volume: float = 64.0,
    repeats: int = 24,
) -> Dict[str, Any]:
    """Measure the simulated-tick win of health-score straggler avoidance.

    Routes the same point-to-point message across a permanently slowed
    link ``repeats`` times, with avoidance off vs on.  With avoidance on
    the first crossing teaches the health tracker the link's factor and
    every later crossing detours around it, so the on-run finishes in
    fewer simulated ticks.
    """
    from ..machine.router import Router
    from .plan import LinkSlow

    def run(avoid: bool) -> Tuple[float, int]:
        plan = FaultPlan((LinkSlow(0.0, dim=0, pid=0, factor=factor),))
        injector = FaultInjector(plan, avoid_stragglers=avoid)
        session = Session(n_dims, plan_cache=False, faults=injector)
        router = Router(session.machine)
        src = np.array([0], dtype=np.int64)
        dst = np.array([1], dtype=np.int64)
        sizes = np.array([volume], dtype=np.float64)
        for _ in range(repeats):
            router.simulate(src, dst, sizes)
        return float(session.time), int(injector.stats.straggler_detours)

    ticks_off, _ = run(False)
    ticks_on, detours = run(True)
    reduction = (ticks_off - ticks_on) / ticks_off if ticks_off else 0.0
    return {
        "n_dims": n_dims,
        "factor": factor,
        "volume": volume,
        "repeats": repeats,
        "ticks_avoidance_off": ticks_off,
        "ticks_avoidance_on": ticks_on,
        "tick_reduction": reduction,
        "straggler_detours": detours,
    }


# ---------------------------------------------------------------------------
# warehouse records
# ---------------------------------------------------------------------------

def campaign_record(
    report: Dict[str, Any], wall_s: float
) -> Dict[str, Any]:
    """A ``kind="chaos"`` warehouse record summarizing a campaign."""
    from ..metrics import warehouse as wh

    record = {
        "schema": wh.SCHEMA,
        "kind": "chaos",
        "recorded_unix": _time.time(),
        "git_rev": wh.git_rev(),
        "workload": "chaos_campaign",
        "params": {
            "schedules": report["schedules"],
            "master_seed": report["master_seed"],
            "n_dims": report["n_dims"],
        },
        "flags": {},
        "wall_s": {"best": wall_s},
        "sim": {"time": report["total_sim_time"]},
        "metrics": {
            "chaos.schedules": report["schedules"],
            "chaos.ok": report["ok"],
            "chaos.failed": report["failed"],
            "chaos.recoveries": report["recoveries"],
            "chaos.promotions": report.get("promotions", 0),
            "chaos.expansions": report.get("expansions", 0),
            "chaos.fault_events": report["total_fault_events"],
            **{
                f"chaos.gray.{name}": value
                for name, value in report["gray"].items()
            },
        },
    }
    wh.validate_record(record)
    return record


def straggler_record(
    result: Dict[str, Any], wall_s: float
) -> Dict[str, Any]:
    """A ``kind="chaos"`` warehouse record for the straggler experiment."""
    from ..metrics import warehouse as wh

    record = {
        "schema": wh.SCHEMA,
        "kind": "chaos",
        "recorded_unix": _time.time(),
        "git_rev": wh.git_rev(),
        "workload": "chaos_straggler",
        "params": {
            "n_dims": result["n_dims"],
            "factor": result["factor"],
            "repeats": result["repeats"],
        },
        "flags": {},
        "wall_s": {"best": wall_s},
        "sim": {"time": result["ticks_avoidance_on"]},
        "metrics": {
            "chaos.straggler.ticks_off": result["ticks_avoidance_off"],
            "chaos.straggler.ticks_on": result["ticks_avoidance_on"],
            "chaos.straggler.reduction": result["tick_reduction"],
            "chaos.straggler.detours": result["straggler_detours"],
        },
    }
    wh.validate_record(record)
    return record


__all__ = [
    "BaselineCache",
    "ChaosSchedule",
    "build_workload",
    "campaign_record",
    "checkpoint_windows",
    "generate_checkpoint_schedules",
    "generate_schedules",
    "run_campaign",
    "run_schedule",
    "shrink_plan",
    "straggler_experiment",
    "straggler_record",
    "WORKLOADS",
    "FLAG_PROBS",
]
