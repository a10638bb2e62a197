"""The machine sanitizer: null by default, catches cooked books, free when off.

The acceptance contract for :mod:`repro.check.sanitizer`:

* an unsanitized session carries ``sanitizer = None`` and pays nothing;
* a machine double that mis-charges a communication round is caught;
* attaching the sanitizer perturbs **no** counter — tier-1 workload costs
  are bit-identical with it on and off;
* it follows a session through degraded-mode recovery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session
from repro.check import MachineSanitizer
from repro.check.runner import sanitizer_selftest
from repro.env import env_flag
from repro.errors import SanitizerError
from repro.machine import CostModel, Hypercube
from repro import workloads


def test_sanitizer_is_null_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    session = Session(4)
    assert session.sanitizer is None
    assert session.machine.sanitizer is None


def test_session_sanitize_flag_attaches():
    session = Session(4, sanitize=True)
    assert isinstance(session.sanitizer, MachineSanitizer)
    assert session.machine.sanitizer is session.sanitizer


def test_env_flag_enables(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert env_flag("REPRO_SANITIZE")
    session = Session(3)
    assert session.sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not env_flag("REPRO_SANITIZE")
    assert Session(3).sanitizer is None


def test_prebuilt_sanitizer_shared():
    sanitizer = MachineSanitizer()
    session = Session(3, sanitize=sanitizer)
    assert session.sanitizer is sanitizer


def test_mischarged_round_time_is_caught():
    class DropsStartup(Hypercube):
        def _charge_comm_round_plain(self, volume, rounds=1, dim=None):
            self.counters.charge_transfer(volume * self.p * rounds, rounds, 0.0)

    machine = DropsStartup(3)
    machine.attach(MachineSanitizer())
    with pytest.raises(SanitizerError, match=r"round-time"):
        machine.charge_comm_round(4.0, dim=1)


def test_lost_elements_are_caught():
    class LosesElements(Hypercube):
        def _charge_comm_round_plain(self, volume, rounds=1, dim=None):
            time = self.cost_model.comm_round(volume)
            self.counters.charge_transfer(
                volume * self.p * rounds - 1.0, rounds, rounds * time
            )

    machine = LosesElements(3)
    machine.attach(MachineSanitizer())
    with pytest.raises(SanitizerError, match=r"round-conservation"):
        machine.charge_comm_round(4.0, dim=1)


def test_broken_panel_kernel_is_caught_at_protection(monkeypatch):
    """The panel audit keeps its own byte-sum reference: a kernel whose
    row panel is off by one fails the first protection, even when every
    module that imported the kernel sees the broken copy."""
    import repro.abft.manager
    import repro.abft.panels

    honest = repro.abft.panels.checksum_panels

    def off_by_one(data):
        col, row = honest(data)
        row = row.copy()
        row[0] += np.uint64(1)
        return col, row

    monkeypatch.setattr(repro.abft.panels, "checksum_panels", off_by_one)
    monkeypatch.setattr(repro.abft.manager, "checksum_panels", off_by_one)
    s = Session(3, abft=True, sanitize=True)
    with pytest.raises(SanitizerError, match=r"abft-panel-identity"):
        s.vector(np.arange(8.0))
    assert s.sanitizer.stats.checks["abft-panels"] == 1


def test_honest_machine_passes_selftest():
    report = sanitizer_selftest()
    assert report["passed"]
    assert report["outcomes"]["undercharged_time"]["caught"]
    assert report["outcomes"]["lost_elements"]["caught"]
    assert not report["outcomes"]["honest_machine"]["caught"]


def _gaussian_counters(sanitize: bool) -> dict:
    from repro.algorithms import gaussian

    session = Session(5, cost_model="cm2", sanitize=sanitize)
    A, b, _ = workloads.diagonally_dominant_system(18, 7)
    gaussian.solve(session.matrix(A), b)
    c = session.machine.counters
    return {
        "time": c.time,
        "flops": c.flops,
        "elements_transferred": c.elements_transferred,
        "comm_rounds": c.comm_rounds,
        "local_moves": c.local_moves,
    }


def test_sanitizer_does_not_perturb_costs():
    off = _gaussian_counters(sanitize=False)
    on = _gaussian_counters(sanitize=True)
    assert off == on  # exact float equality, field by field


def test_sanitizer_does_not_perturb_results():
    from repro.algorithms import gaussian

    A, b, _ = workloads.diagonally_dominant_system(18, 7)
    x_off = gaussian.solve(Session(5, sanitize=False).matrix(A), b).x
    x_on = gaussian.solve(Session(5, sanitize=True).matrix(A), b).x
    assert np.array_equal(x_on, x_off)


def test_sanitizer_runs_checks_and_reports():
    from repro.algorithms import matvec

    session = Session(4, sanitize=True)
    rng = np.random.default_rng(2)
    A = session.matrix(rng.standard_normal((12, 9)))
    matvec.matvec(A, session.row_vector(rng.standard_normal(9), A))
    assert session.sanitizer.stats.total > 0
    assert "sanitizer" in session.report()
    assert session.report_data()["sanitizer"]["total"] > 0


def test_block_cyclic_embeddings_pass_the_balance_audit():
    """A block-cyclic axis deals whole blocks: 13 columns in blocks of 2
    over 16 grid columns put 2 columns (18 elements) on one processor."""
    from repro.embeddings import MatrixEmbedding, VectorOrderEmbedding

    s = Session(4, sanitize=True)
    emb = MatrixEmbedding(
        s.machine, 9, 13, row_dims=(), col_dims=(0, 1, 2, 3),
        row_layout_kind="block_cyclic:2", col_layout_kind="block_cyclic:2",
    )
    assert emb.valid_mask().reshape(16, -1).sum(axis=1).max() == 18
    emb.scatter(np.ones((9, 13)))
    VectorOrderEmbedding(s.machine, 9, "block_cyclic:2").scatter(np.ones(9))
    assert s.sanitizer.stats.checks["embedding"] == 2


def test_overloaded_processor_fails_the_balance_audit():
    from repro.embeddings import MatrixEmbedding

    class OneProcessorHoldsAll(MatrixEmbedding):
        def valid_mask(self):
            mask = np.zeros((self.machine.p, self.R * self.C), dtype=bool)
            mask[0] = True
            return mask

    machine = Hypercube(2)
    sanitizer = machine.attach(MachineSanitizer())
    emb = OneProcessorHoldsAll(machine, 4, 4, row_dims=(0,), col_dims=(1,))
    with pytest.raises(SanitizerError, match=r"embedding-balance"):
        sanitizer.audit_matrix_embedding(emb)


def test_wrong_reading_subcube_is_caught(monkeypatch):
    """Host-read arg-reduces are audited against a full-machine recompute:
    a member table one subcube off fails the first call."""
    import repro.core.arrays as arrays
    from repro.core import DistributedVector
    from repro.embeddings import ColAlignedEmbedding, MatrixEmbedding

    honest = arrays.reading_subcube

    def next_subcube(machine, dims, pid):
        members, pos = honest(machine, dims, pid)
        other = next(d for d in machine.dims if d not in dims)
        return members ^ (1 << other), pos

    monkeypatch.setattr(arrays, "reading_subcube", next_subcube)
    s = Session(4, plan_cache=True, sanitize=True)
    grid = MatrixEmbedding.default(s.machine, 8, 8)
    emb = ColAlignedEmbedding(grid, 0)  # resident: other bands are padding
    vec = DistributedVector(emb.scatter(np.arange(1.0, 9.0)), emb)
    with pytest.raises(SanitizerError, match="read-site-argreduce"):
        vec.argreduce("max")


def test_honest_reading_subcube_passes_the_audit():
    from repro.core import DistributedVector
    from repro.embeddings import ColAlignedEmbedding, MatrixEmbedding

    s = Session(4, plan_cache=True, sanitize=True)
    grid = MatrixEmbedding.default(s.machine, 8, 8)
    emb = ColAlignedEmbedding(grid, 0)
    vec = DistributedVector(emb.scatter(np.arange(1.0, 9.0)), emb)
    assert vec.argreduce("max") == (8.0, 7)
    assert vec.argreduce("min") == (1.0, 0)
    assert s.sanitizer.stats.checks["read-site"] == 2


def test_wrong_reduce_all_neighbour_is_caught():
    """Replayed all-reduces are audited against the sanitizer's own
    exchange loop: a neighbour table one dimension off fails the first
    call."""
    from repro import comm

    s = Session(4, plan_cache=True, sanitize=True)
    machine = s.machine
    honest = list(machine._neighbor)
    machine._neighbor = [honest[(d + 1) % machine.n] for d in machine.dims]
    data = machine.pvar(np.arange(16.0))
    with pytest.raises(SanitizerError, match="reduce-all-replay"):
        comm.reduce_all(machine, data, "sum", dims=(0,))
    assert s.sanitizer.stats.checks["reduce-all-replay"] == 1


def test_honest_reduce_all_replay_passes_the_audit():
    from repro import comm

    s = Session(4, plan_cache=True, sanitize=True)
    data = s.machine.pvar(np.array([0.0, -0.0] * 8))
    for op in ("sum", "max", "min"):
        comm.reduce_all(s.machine, data, op, dims=(3, 0))
    assert s.sanitizer.stats.checks["reduce-all-replay"] == 3


def test_sanitizer_leaves_the_plan_cache_alone():
    """Embedding audits use the masks the scatter placed by, so a
    sanitized session counts the same plan hits, misses and entries."""
    stats = []
    for sanitize in (False, True):
        s = Session(4, plan_cache=True, sanitize=sanitize)
        A = s.matrix(np.arange(30.0).reshape(5, 6))
        s.row_vector(np.arange(6.0), like=A)
        s.vector(np.arange(9.0))
        stats.append((s.machine.counters.plan_stats(), len(s.machine.plans)))
    assert stats[0] == stats[1]


def test_cannot_rebind_to_second_machine():
    sanitizer = MachineSanitizer()
    Hypercube(3).attach(sanitizer)
    with pytest.raises(SanitizerError):
        Hypercube(3).attach(sanitizer)


def test_sanitizer_survives_degrade():
    from repro.faults import (
        CheckpointStore,
        FaultPlan,
        NodeKill,
        gaussian_workload,
        run_resilient,
    )

    A, b, _ = workloads.diagonally_dominant_system(12, 3)
    clean = Session(4, cost_model="cm2")
    baseline = gaussian_workload(A, b)(clean, CheckpointStore(clean))

    plan = FaultPlan([NodeKill(time=0.4 * clean.time, pid=1)])
    session = Session(4, cost_model="cm2", faults=plan, sanitize=True)
    sanitizer = session.sanitizer
    report = run_resilient(session, gaussian_workload(A, b))
    assert report.recovered
    assert np.array_equal(np.asarray(report.result), np.asarray(baseline))
    # same sanitizer object, now bound to the survivor subcube
    assert session.sanitizer is sanitizer
    assert session.machine.p < 16
    assert sanitizer.stats.total > 0


class TestSampledChecking:
    """``--sample-every K``: check 1-in-K audit sites, observe everything.

    The contract: sampling changes *how often* invariants are audited,
    never what the machine does — results and every cost counter are
    bit-identical across K, and K=1 is exactly the always-on sanitizer.
    """

    @staticmethod
    def _run(sample_every):
        A, b, _ = workloads.diagonally_dominant_system(14, 5)
        # trace=False: the tracer's span snapshots would count too.
        s = Session(
            4,
            trace=False,
            sanitize=MachineSanitizer(sample_every=sample_every),
        )
        from repro.algorithms import gaussian

        res = gaussian.solve(s.matrix(A), b)
        return s, np.asarray(res.x)

    def test_k1_is_the_default_full_check(self):
        assert MachineSanitizer().sample_every == 1
        s, _ = self._run(1)
        assert s.sanitizer.stats.total > 0

    def test_sampling_reduces_checks_not_costs(self):
        s1, x1 = self._run(1)
        s4, x4 = self._run(4)
        assert s4.sanitizer.stats.total < s1.sanitizer.stats.total
        # results and the entire cost vector are bit-identical
        assert np.array_equal(x1, x4)
        snap1 = s1.machine.counters.snapshot().as_dict()
        snap4 = s4.machine.counters.snapshot().as_dict()
        assert snap1 == snap4

    def test_sampling_skips_snapshots_entirely(self, monkeypatch):
        """Non-sampled observes are lazy: no CostSnapshot is even built.

        ``sample_every=K`` must skip the snapshot itself (the per-round
        hot path), not just the comparisons — so the snapshot count
        shrinks roughly by K while results stay bit-identical.
        """
        from repro.machine.counters import Counters

        real = Counters.snapshot
        taken = {}

        def run_counting(k):
            taken[k] = 0

            def counting(counters):
                taken[k] += 1
                return real(counters)

            monkeypatch.setattr(Counters, "snapshot", counting)
            try:
                return self._run(k)
            finally:
                monkeypatch.setattr(Counters, "snapshot", real)

        _, x1 = run_counting(1)
        _, x8 = run_counting(8)
        assert np.array_equal(x1, x8)
        assert taken[8] < taken[1] / 2

    def test_unsampled_observe_is_a_noop(self):
        sanitizer = MachineSanitizer()
        m = Hypercube(3)
        m.attach(sanitizer)
        before = sanitizer._last
        assert sanitizer.observe(m, sampled=False) is None
        assert sanitizer._last is before

    def test_k1_matches_repeated_run_exactly(self):
        a_stats = self._run(1)[0].sanitizer.stats
        b_stats = self._run(1)[0].sanitizer.stats
        assert a_stats.total == b_stats.total
        assert a_stats.checks == b_stats.checks

    def test_sampled_sanitizer_still_catches_violations(self):
        """Structural hooks (plan replay, epoch) stay unsampled."""
        sanitizer = MachineSanitizer(sample_every=1000)
        m = Hypercube(3)
        m.attach(sanitizer)
        with pytest.raises(SanitizerError):
            sanitizer.on_epoch_bump(m, m.epoch + 5)

    def test_invalid_sample_every_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            MachineSanitizer(sample_every=0)
        with pytest.raises(ConfigError):
            MachineSanitizer(sample_every=-3)

    def test_env_var_controls_session_default(self, monkeypatch):
        from repro.check import env_sample_every

        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "6")
        assert env_sample_every() == 6
        s = Session(3, sanitize=True)
        assert s.sanitizer.sample_every == 6
        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "zero")
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            env_sample_every()
        monkeypatch.delenv("REPRO_SANITIZE_SAMPLE")
        assert env_sample_every() == 1
