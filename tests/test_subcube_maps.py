"""Fault events and abandoned cubes under the one subcube address map.

``FaultInjector.translate`` / ``untranslate`` rename every event through
its ``dim`` and ``pid`` fields, and the expansion ledger keeps the root
cube's health masks with the root's own ``Hypercube`` kill and revive
methods.  This file holds the per-kind renaming the injector used to
spell out as the reference, fuzzes the generic rename against it, and
pins a degrade → heal → promote run with a tracer and a sanitizer
attached.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from repro import Session
from repro import workloads as W
from repro.algorithms import gaussian
from repro.faults import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    gaussian_workload,
    run_resilient,
)
from repro.faults.injector import _FlakyLink
from repro.faults.plan import (
    BitFlip,
    LinkCorrupt,
    LinkDrop,
    LinkFlaky,
    LinkHeal,
    LinkKill,
    LinkSlow,
    NodeHeal,
    NodeKill,
    NodeSlow,
)
from repro.machine.hypercube import Hypercube

KINDS = (
    NodeKill,
    LinkKill,
    LinkDrop,
    BitFlip,
    LinkCorrupt,
    LinkSlow,
    NodeSlow,
    LinkFlaky,
    NodeHeal,
    LinkHeal,
)

FUZZ_STATES = 3000


# ---------------------------------------------------------------------------
# reference: the per-kind renaming, one branch per event kind
# ---------------------------------------------------------------------------


def ref_translate(inj, free_dims, base):
    """Per-kind ``translate``; armed corruptions follow their processor."""
    free_dims = list(free_dims)
    dim_map = {d: i for i, d in enumerate(free_dims)}
    keep = sum(1 << d for d in free_dims)

    def in_subcube(pid):
        return (pid & ~keep) == base

    def compress(pid):
        return sum(((pid >> d) & 1) << i for i, d in enumerate(free_dims))

    def wrapped(pid):
        return pid % inj.machine.p if inj.machine else pid

    remaining = []
    for ev in inj._pending[inj._next:]:
        if isinstance(ev, NodeKill):
            if in_subcube(ev.pid):
                remaining.append(NodeKill(ev.time, pid=compress(ev.pid)))
        elif isinstance(ev, LinkKill):
            if ev.dim in dim_map and in_subcube(ev.pid):
                remaining.append(
                    LinkKill(ev.time, dim=dim_map[ev.dim], pid=compress(ev.pid))
                )
        elif isinstance(ev, LinkDrop):
            if ev.dim in dim_map:
                remaining.append(
                    LinkDrop(ev.time, dim=dim_map[ev.dim], count=ev.count)
                )
        elif isinstance(ev, BitFlip):
            pid = wrapped(ev.pid)
            if in_subcube(pid):
                remaining.append(
                    BitFlip(
                        ev.time,
                        pid=compress(pid),
                        slot=ev.slot,
                        bit=ev.bit,
                        target=ev.target,
                    )
                )
        elif isinstance(ev, LinkCorrupt):
            pid = wrapped(ev.pid)
            if ev.dim in dim_map and in_subcube(pid):
                remaining.append(
                    LinkCorrupt(
                        ev.time,
                        dim=dim_map[ev.dim],
                        pid=compress(pid),
                        slot=ev.slot,
                        bit=ev.bit,
                    )
                )
        elif isinstance(ev, LinkSlow):
            pid = wrapped(ev.pid)
            if ev.dim in dim_map and in_subcube(pid):
                remaining.append(
                    LinkSlow(
                        ev.time,
                        dim=dim_map[ev.dim],
                        pid=compress(pid),
                        factor=ev.factor,
                        duration=ev.duration,
                    )
                )
        elif isinstance(ev, NodeSlow):
            pid = wrapped(ev.pid)
            if in_subcube(pid):
                remaining.append(
                    NodeSlow(
                        ev.time,
                        pid=compress(pid),
                        factor=ev.factor,
                        duration=ev.duration,
                    )
                )
        elif isinstance(ev, LinkFlaky):
            if ev.dim in dim_map:
                remaining.append(
                    LinkFlaky(
                        ev.time,
                        dim=dim_map[ev.dim],
                        drop_p=ev.drop_p,
                        duration=ev.duration,
                        seed=ev.seed,
                    )
                )
        elif isinstance(ev, NodeHeal):
            if in_subcube(ev.pid):
                remaining.append(NodeHeal(ev.time, pid=compress(ev.pid)))
        elif isinstance(ev, LinkHeal):
            if ev.dim in dim_map and in_subcube(ev.pid):
                remaining.append(
                    LinkHeal(ev.time, dim=dim_map[ev.dim], pid=compress(ev.pid))
                )
    inj._pending = remaining
    inj._next = 0
    inj._armed_drops = {
        dim_map[d]: c for d, c in inj._armed_drops.items() if d in dim_map
    }
    armed = {}
    for d, evs in inj._armed_corruptions.items():
        if d not in dim_map:
            continue
        for ev in evs:
            pid = wrapped(ev.pid)
            if in_subcube(pid):
                armed.setdefault(dim_map[d], []).append(
                    LinkCorrupt(
                        ev.time,
                        dim=dim_map[d],
                        pid=compress(pid),
                        slot=ev.slot,
                        bit=ev.bit,
                    )
                )
    inj._armed_corruptions = armed
    inj._flaky = {dim_map[d]: fs for d, fs in inj._flaky.items() if d in dim_map}
    inj._gray_expiries = []
    inj.health.clear()
    inj._memory.clear()


def ref_untranslate(inj, free_dims, base):
    """Per-kind ``untranslate``: lift every event into root coordinates."""
    free_dims = list(free_dims)
    n_sub = len(free_dims)

    def lift(pid):
        out = base
        for i, d in enumerate(free_dims):
            out |= ((pid >> i) & 1) << d
        return out

    def lift_dim(dim):
        return free_dims[dim % n_sub] if n_sub else dim

    def lifted(ev):
        kwargs = {}
        if isinstance(ev, (NodeKill, NodeSlow, NodeHeal, BitFlip)):
            kwargs["pid"] = lift(ev.pid % (1 << n_sub))
        elif isinstance(ev, (LinkKill, LinkCorrupt, LinkSlow, LinkHeal)):
            kwargs["dim"] = lift_dim(ev.dim)
            kwargs["pid"] = lift(ev.pid % (1 << n_sub))
        elif isinstance(ev, (LinkDrop, LinkFlaky)):
            kwargs["dim"] = lift_dim(ev.dim)
        data = {f.name: getattr(ev, f.name) for f in fields(ev)}
        data.update(kwargs)
        return type(ev)(**data)

    inj._pending = [lifted(ev) for ev in inj._pending[inj._next:]]
    inj._next = 0
    inj._armed_drops = {lift_dim(d): c for d, c in inj._armed_drops.items()}
    inj._armed_corruptions = {
        lift_dim(d): [lifted(e) for e in evs]
        for d, evs in inj._armed_corruptions.items()
    }
    inj._flaky = {lift_dim(d): fs for d, fs in inj._flaky.items()}
    inj._gray_expiries = []
    inj.health.clear()
    inj._memory.clear()


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------


def random_event(rng, n):
    """One event of a random kind: pids in [0, 2p), dims in [0, n]."""
    kind = KINDS[rng.integers(len(KINDS))]
    draw = {
        "pid": lambda: int(rng.integers(2 << n)),
        "dim": lambda: int(rng.integers(n + 1)),
        "count": lambda: int(rng.integers(1, 4)),
        "slot": lambda: int(rng.integers(16)),
        "bit": lambda: int(rng.integers(8)),
        "target": lambda: int(rng.integers(4)),
        "factor": lambda: float(rng.integers(1, 5)),
        "duration": lambda: float(rng.integers(3)),
        "drop_p": lambda: float(rng.random()),
        "seed": lambda: int(rng.integers(100)),
    }
    kwargs = {f.name: draw[f.name]() for f in fields(kind) if f.name != "time"}
    return kind(float(rng.integers(100)), **kwargs)


def random_injector(seed, n, bound):
    """A seeded injector state: pending events plus armed transients.

    The same ``seed`` always builds an equal state, so the generic and the
    reference renaming each get their own copy.
    """
    rng = np.random.default_rng(seed)
    events = [random_event(rng, n) for _ in range(rng.integers(13))]
    inj = FaultInjector(FaultPlan(events))
    if bound:
        inj.bind(Hypercube(n))
    inj._next = int(rng.integers(len(inj._pending) + 1))
    inj._armed_drops = {
        d: int(rng.integers(1, 4)) for d in range(n + 1) if rng.random() < 0.4
    }
    inj._armed_corruptions = {
        d: [
            LinkCorrupt(
                0.0,
                dim=int(rng.integers(n + 1)),
                pid=int(rng.integers(2 << n)),
                slot=int(rng.integers(16)),
                bit=int(rng.integers(8)),
            )
            for _ in range(rng.integers(1, 4))
        ]
        for d in range(max(n, 1))
        if rng.random() < 0.4
    }
    inj._flaky = {
        d: [_FlakyLink(float(rng.random()), float("inf"), d)]
        for d in range(n + 1)
        if rng.random() < 0.3
    }
    if rng.random() < 0.5:
        inj._gray_expiries = [(1.0, "node", None, 0, 2.0)]
        inj.health.observe_round(None, {}, {0: 2.0})
        inj.register_memory(object())
    return inj


def random_subcube(rng, n):
    """``(free_dims, base)``: free dims ascending, base on the fixed dims."""
    free_dims = tuple(d for d in range(n) if rng.random() < 0.6)
    base = sum(
        int(rng.integers(2)) << d for d in range(n) if d not in free_dims
    )
    return free_dims, base


def state(inj):
    """Everything translate/untranslate may change, in comparable form."""
    return json.dumps(
        {
            "pending": [ev.as_dict() for ev in inj._pending],
            "next": inj._next,
            "drops": sorted(inj._armed_drops.items()),
            "corruptions": sorted(
                (d, [ev.as_dict() for ev in evs])
                for d, evs in inj._armed_corruptions.items()
            ),
            "flaky": sorted(
                (d, [f.drop_p for f in fs]) for d, fs in inj._flaky.items()
            ),
            "gray": inj._gray_expiries,
            "health": inj.health.tracked,
            "memory": len(inj._memory),
        },
        sort_keys=True,
    )


def test_translate_matches_the_per_kind_reference():
    rng = np.random.default_rng(2025)
    kinds_kept = set()
    for seed in range(FUZZ_STATES):
        n = int(rng.integers(7))
        bound = bool(rng.random() < 0.7)
        free_dims, base = random_subcube(rng, n)
        got = random_injector(seed, n, bound)
        want = random_injector(seed, n, bound)
        got.translate(free_dims, base)
        ref_translate(want, free_dims, base)
        assert state(got) == state(want), (seed, n, bound, free_dims, base)
        kinds_kept.update(type(ev) for ev in got._pending)
    assert kinds_kept == set(KINDS)


def test_untranslate_matches_the_per_kind_reference():
    rng = np.random.default_rng(2026)
    for seed in range(FUZZ_STATES):
        n_root = int(rng.integers(7))
        n_sub = int(rng.integers(n_root + 1))
        free_dims = tuple(
            int(d) for d in rng.permutation(n_root)[:n_sub]
        )
        if rng.random() < 0.5:
            free_dims = tuple(sorted(free_dims))
        base = sum(
            int(rng.integers(2)) << d
            for d in range(n_root)
            if d not in free_dims
        )
        bound = bool(rng.random() < 0.7)
        got = random_injector(seed, n_sub, bound)
        want = random_injector(seed, n_sub, bound)
        got.untranslate(free_dims, base)
        ref_untranslate(want, free_dims, base)
        assert state(got) == state(want), (seed, n_sub, free_dims, base)


# ---------------------------------------------------------------------------
# armed corruptions follow their processor across a degrade
# ---------------------------------------------------------------------------


def _armed_on_subcube(pid, free_dims):
    """Fire ``LinkCorrupt(dim=0, pid)`` on a 3-cube, then degrade it."""
    m = Hypercube(3)
    inj = m.attach(
        FaultInjector(FaultPlan([LinkCorrupt(0.0, dim=0, pid=pid, bit=3)]))
    )
    inj.poll()
    assert inj._armed_corruptions
    inj.translate(free_dims, 0)
    sub = Hypercube(len(free_dims))
    sub.attach(inj)
    out = inj.deliver(sub.pvar(np.zeros(sub.p)), 0)
    return inj, out


def test_armed_corruption_hits_its_processor_on_the_subcube():
    # Processor 5 = 0b101 is subcube pid 0b11 over dims (0, 2).
    inj, out = _armed_on_subcube(5, (0, 2))
    assert np.flatnonzero(out.data).tolist() == [3]
    assert inj.stats.link_corruptions == 1


def test_armed_corruption_on_a_removed_processor_is_dropped():
    # Processor 6 = 0b110 has bit 2 set: outside the base-0 subcube.
    inj, out = _armed_on_subcube(6, (0, 1))
    assert inj._armed_corruptions == {}
    assert not out.data.any()
    assert inj.stats.link_corruptions == 0


# ---------------------------------------------------------------------------
# abandoned cubes are detached; the ledger kills and revives through them
# ---------------------------------------------------------------------------

#: Fault instants of the live machines and of the session itself.
FAULT_INSTANTS = (
    "kill_node",
    "kill_link",
    "revive_node",
    "revive_link",
    "heal_node",
    "heal_link",
    "degrade",
    "promote",
)


@pytest.fixture
def abandoned(monkeypatch):
    """Every machine a session swaps away from, in swap order."""
    machines = []
    swap = Session._swap_machine

    def spy(self, *args):
        machines.append(self.machine)
        return swap(self, *args)

    monkeypatch.setattr(Session, "_swap_machine", spy)
    return machines


def _solve(s, seed):
    A, b, _ = W.diagonally_dominant_system(6, seed=seed)
    result = gaussian.solve(s.matrix(A), b)
    np.testing.assert_allclose(result.x, np.linalg.solve(A, b), rtol=1e-10)


def _fault_instants(s):
    return [
        e["name"]
        for e in s.tracer.events
        if e["type"] == "instant" and e["name"].split(":")[0] in FAULT_INSTANTS
    ]


def _stats(**nonzero):
    stats = {f.name: 0 for f in fields(FaultInjector(FaultPlan(())).stats)}
    stats.update(backoff_time=0.0, recovery_ticks=0.0, slow_time=0.0)
    stats.update(nonzero)
    return stats


def test_degrade_heal_promote_by_hand(abandoned):
    s = Session(
        4, "unit", plan_cache=True, trace=True, sanitize=True,
        faults=FaultPlan(()),
    )
    root = s.machine
    _solve(s, 1)
    s.machine.kill_node(4)
    s.degrade()  # free dims (1, 2, 3), base 1: the odd pids
    assert (s._expansion.embed_dims, s._expansion.embed_base) == ((1, 2, 3), 1)
    _solve(s, 2)
    s.machine.kill_link(0, 1)  # root link (1, 1)
    s.machine.kill_node(3)  # root pid 7
    s.degrade()  # the root learns of both through its own kills
    assert (s._expansion.embed_dims, s._expansion.embed_base) == ((2, 3), 1)
    _solve(s, 3)
    assert np.flatnonzero(~root.node_ok).tolist() == [4, 7]
    assert root._dead_links_by_dim == {1: [1]}
    s._expansion.heals += [
        ("node", 0.0, None, 4),
        ("node", 0.0, None, 7),
        ("link", 0.0, 1, 1),
    ]
    assert s.promotion_ready()
    assert not root.faulty
    s.promote()
    _solve(s, 4)

    assert len(abandoned) == 3 and abandoned[0] is root
    for machine in abandoned:
        assert all(getattr(machine, slot) is None for slot in Hypercube.SLOTS)
    assert _fault_instants(s) == [
        "kill_node:4", "degrade", "kill_link:0@0", "kill_node:3", "degrade",
        "heal_node:4", "heal_node:7", "heal_link:1@1", "promote",
    ]
    assert s.faults.stats.as_dict() == _stats(
        node_heals=2, link_heals=1, expansions=1
    )
    assert s.sanitizer.stats.checks == {
        "comm-round": 288, "counters": 864, "embedding": 8, "epoch": 3,
        "plan-hit": 704, "plan-store": 120,
    }
    assert s.time == 3336.0


def test_degrade_heal_promote_from_a_plan(abandoned):
    rng = np.random.default_rng(3)
    A = rng.integers(-4, 5, size=(12, 12)).astype(float) + 12 * np.eye(12)
    b = rng.integers(-4, 5, size=12).astype(float)
    dry = Session(4, "unit")
    want = gaussian_workload(A, b)(dry, CheckpointStore(dry))
    t0 = dry.time
    plan = FaultPlan(
        [
            NodeKill(0.2 * t0, pid=5),
            LinkKill(0.3 * t0, dim=1, pid=2),
            NodeHeal(0.45 * t0, pid=5),
            LinkHeal(0.45 * t0, dim=1, pid=2),
        ]
    )
    s = Session(4, "unit", trace=True, sanitize=True, faults=plan)
    report = run_resilient(s, gaussian_workload(A, b))
    assert report.recovered and np.array_equal(report.result, want)
    assert (report.recoveries, report.promotions, report.final_p) == (1, 1, 16)

    assert len(abandoned) == 2
    for machine in abandoned:
        assert all(getattr(machine, slot) is None for slot in Hypercube.SLOTS)
    assert _fault_instants(s) == [
        "kill_node:5", "degrade", "kill_link:0@0",
        "heal_node:5", "heal_link:1@0", "promote",
    ]
    assert s.faults.stats.as_dict() == _stats(
        node_kills=1, link_kills=1, detour_rounds=16, recoveries=1,
        recovery_ticks=160.0, remapped_arrays=1, node_heals=1, link_heals=1,
        expansions=1,
    )
    assert s.sanitizer.stats.checks == {
        "comm-round": 213, "counters": 588, "embedding": 3, "epoch": 2,
        "plan-hit": 421, "plan-store": 82,
    }
    assert s.time == 3295.0
