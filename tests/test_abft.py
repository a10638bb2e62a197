"""Unit tests for the ABFT checksum layer (``repro.abft``).

Covers the checksum-panel math (property-tested across dtypes), the
manager protocol (protect/guard/correct/escalate/scrub/evict, all charged
on the simulated clock), session wiring and reporting, wire retransmits,
and the ABFT-off bit-identity guarantee (a run without the checksum layer
must be indistinguishable — tick for tick — from a build that never
imports ``repro.abft``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CorruptionError, Session
from repro.abft import (
    ABFTManager,
    ABFTMatrix,
    ABFTVector,
    byte_view,
    checksum_panels,
    correct_single,
    locate,
)
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.faults.plan import LinkCorrupt
from repro.machine import CostModel, Hypercube, PVar


# ---------------------------------------------------------------------------
# checksum panel math
# ---------------------------------------------------------------------------

_DTYPES = (np.float64, np.int64, np.complex128)


@st.composite
def _blocks(draw):
    p = draw(st.sampled_from([2, 4, 8]))
    k = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from(_DTYPES))
    values = draw(
        st.lists(
            st.integers(-100, 100), min_size=p * k, max_size=p * k
        )
    )
    return np.array(values, dtype=dtype).reshape(p, k)


class TestPanels:
    @given(_blocks())
    @settings(max_examples=60, deadline=None)
    def test_clean_block_locates_clean(self, data):
        col, row = checksum_panels(data)
        assert col.shape == (data.shape[0],)
        assert row.shape == (byte_view(data).shape[1],)
        assert locate(data, col, row) == ("clean", None)

    @given(_blocks(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_byte_corruption_is_located_and_corrected(self, data, dd):
        col, row = checksum_panels(data)
        u8 = byte_view(data)
        pid = dd.draw(st.integers(0, u8.shape[0] - 1))
        slot = dd.draw(st.integers(0, u8.shape[1] - 1))
        mask = dd.draw(st.integers(1, 255))
        corrupted = np.array(data)
        cu8 = byte_view(corrupted)
        cu8[pid, slot] ^= np.uint8(mask)

        status, info = locate(corrupted, col, row)
        assert status == "single"
        assert info[0] == pid and info[1] == slot
        fixed = correct_single(corrupted, *info)
        assert fixed.dtype == data.dtype
        assert np.array_equal(
            fixed.view(np.uint8), np.asarray(data).view(np.uint8)
        )

    @given(_blocks(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_two_byte_corruption_escalates_to_multi(self, data, dd):
        u8 = byte_view(data)
        if u8.shape[1] < 2 and u8.shape[0] < 2:
            return  # cannot place two distinct corrupt bytes
        col, row = checksum_panels(data)
        corrupted = np.array(data)
        cu8 = byte_view(corrupted)
        pid_a = dd.draw(st.integers(0, u8.shape[0] - 1))
        slot_a = dd.draw(st.integers(0, u8.shape[1] - 1))
        # Second corruption at a different (pid, slot).
        if u8.shape[1] >= 2:
            pid_b, slot_b = pid_a, (slot_a + 1) % u8.shape[1]
        else:
            pid_b, slot_b = (pid_a + 1) % u8.shape[0], slot_a
        cu8[pid_a, slot_a] ^= np.uint8(0x40)
        cu8[pid_b, slot_b] ^= np.uint8(0x08)
        status, _ = locate(corrupted, col, row)
        assert status == "multi"

    def test_panels_cover_every_dtype_byte_for_byte(self):
        for dtype in (np.float64, np.float32, np.int32, np.complex128):
            data = np.arange(16, dtype=dtype).reshape(4, 4)
            col, row = checksum_panels(data)
            assert locate(data, col, row) == ("clean", None)


# ---------------------------------------------------------------------------
# manager protocol
# ---------------------------------------------------------------------------


def _flip_byte(pv, pid=0, slot=0, mask=0x20):
    """Corrupt one stored byte copy-on-corrupt style (like the injector)."""
    data = np.array(pv.data)
    u8 = data.reshape(pv.data.shape[0], -1).view(np.uint8)
    u8[pid, slot % u8.shape[1]] ^= np.uint8(mask)
    pv.data = data


class TestManager:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            ABFTManager(keep=0)
        with pytest.raises(ConfigError):
            ABFTManager(scrub_interval=-1)

    def test_protect_and_guard_charge_simulated_time(self):
        plain = Session(3, "unit")
        t_plain = (plain.vector(np.ones(8)) + plain.vector(np.ones(8))).machine
        plain_time = plain.time

        s = Session(3, "unit", abft=True)
        v = s.vector(np.ones(8))
        t0 = s.time
        assert t0 > 0.0, "protection must cost simulated time"
        (v + v)
        assert s.time > t0, "guards must cost simulated time"
        assert s.time > plain_time
        assert s.abft.stats.protected >= 2
        assert s.abft.stats.verifies >= 1
        del t_plain

    def test_single_corruption_is_corrected_through_a_guard(self):
        s = Session(2, "unit", abft=True)
        v = s.vector(np.arange(8, dtype=np.float64))
        _flip_byte(v.pvar, pid=1, slot=2, mask=0x80)
        got = (v + 0.0).to_numpy()
        np.testing.assert_array_equal(got, np.arange(8, dtype=np.float64))
        assert s.machine.counters.abft_detected == 1
        assert s.machine.counters.abft_corrected == 1

    def test_multi_corruption_raises_corruption_error(self):
        s = Session(2, "unit", abft=True)
        v = s.vector(np.arange(8, dtype=np.float64))
        _flip_byte(v.pvar, pid=1, slot=2, mask=0x80)
        _flip_byte(v.pvar, pid=3, slot=5, mask=0x01)
        with pytest.raises(CorruptionError, match="multiple corrupted"):
            v + 0.0
        assert s.abft.stats.uncorrectable == 1
        assert s.machine.counters.abft_detected == 1
        assert s.machine.counters.abft_corrected == 0

    def test_scrub_sweeps_idle_blocks(self):
        s = Session(2, "unit", abft=True)
        v = s.vector(np.arange(8, dtype=np.float64))
        _flip_byte(v.pvar, pid=0, slot=1)
        t0 = s.time
        swept = s.abft.scrub()
        assert swept >= 1
        assert s.time > t0, "scrubbing must cost simulated time"
        assert s.abft.stats.scrubs == 1
        assert s.machine.counters.abft_corrected == 1
        # the block was repaired in place
        np.testing.assert_array_equal(
            v.to_numpy(), np.arange(8, dtype=np.float64)
        )

    def test_eviction_guards_the_retiree(self):
        s = Session(2, "unit", abft=ABFTManager(keep=2))
        vs = [s.vector(np.full(4, float(i))) for i in range(4)]
        assert s.abft.stats.evictions >= 2
        # an evicted block is no longer guarded...
        assert len(s.abft.protected_pvars()) == 2
        # ...but was verified clean on the way out (no false detections)
        assert s.machine.counters.abft_detected == 0
        del vs

    def test_corrupt_evictee_is_still_caught(self):
        s = Session(2, "unit", abft=ABFTManager(keep=2))
        v0 = s.vector(np.zeros(4))
        _flip_byte(v0.pvar, pid=1, slot=0)
        s.vector(np.zeros(4))
        s.vector(np.zeros(4))  # evicts v0 -> guard-on-evict corrects it
        assert s.machine.counters.abft_corrected == 1

    def test_reset_forgets_the_registry(self):
        s = Session(2, "unit", abft=True)
        s.vector(np.zeros(4))
        assert s.abft.protected_pvars()
        s.abft.reset()
        assert not s.abft.protected_pvars()

    def test_wire_corruption_is_retransmitted_not_delivered(self):
        plan = FaultPlan([LinkCorrupt(0.0, dim=1, pid=0, slot=0, bit=5)])
        s = Session(2, "unit", faults=plan, abft=True)
        m = s.machine
        pv = PVar(m, np.arange(2 * m.p, dtype=np.float64).reshape(m.p, 2))
        out = m.exchange(pv, dim=1)
        # delivered block is the clean neighbour image
        np.testing.assert_array_equal(out.data, pv.data[[2, 3, 0, 1]])
        assert s.abft.stats.wire_retransmits == 1
        assert s.faults.stats.link_corruptions == 1
        assert m.counters.abft_detected == 1

    def test_wire_checksum_word_is_charged(self):
        def exchange_volume(abft):
            s = Session(2, "unit", abft=abft)
            m = s.machine
            pv = PVar(m, np.zeros((m.p, 4)))
            before = m.counters.elements_transferred
            m.exchange(pv, dim=0)
            return m.counters.elements_transferred - before

        # one extra checksum word per processor's block (p = 4)
        assert exchange_volume(True) == exchange_volume(False) + 4


# ---------------------------------------------------------------------------
# session wiring / reporting
# ---------------------------------------------------------------------------


class TestSessionWiring:
    def test_abft_true_builds_a_manager(self):
        s = Session(2, abft=True)
        assert isinstance(s.abft, ABFTManager)
        assert s.machine.abft is s.abft

    def test_abft_instance_is_used_verbatim(self):
        mgr = ABFTManager(keep=7, scrub_interval=3)
        s = Session(2, abft=mgr)
        assert s.abft is mgr

    def test_arrays_are_checksum_embedded(self):
        from repro.core.arrays import iota

        s = Session(2, abft=True)
        A = s.matrix(np.zeros((4, 4)))
        v = s.vector(np.zeros(4))
        assert isinstance(A, ABFTMatrix)
        assert isinstance(v, ABFTVector)
        assert isinstance(A.extract(axis=0, index=0), ABFTVector)
        assert isinstance(iota(v.embedding), ABFTVector)

    def test_simplex_resolves_the_checksummed_matrix(self):
        from repro.algorithms import simplex
        from repro import workloads as W

        lp = W.feasible_lp(4, 6, seed=0)
        s = Session(3, abft=True)
        res = simplex.solve(s.machine, lp.A, lp.b, lp.c)
        assert res.status == "optimal"
        assert s.abft.stats.protected > 0

    def test_fault_free_abft_keeps_results_bit_identical(self):
        """Checksum maintenance is charged on the clock but never touches
        the arithmetic: integer-valued data gives identical results."""
        from repro.algorithms import gaussian

        rng = np.random.default_rng(16)
        A = rng.integers(-5, 6, size=(16, 16)).astype(np.float64)
        A += np.eye(16) * 16 * 8
        b = rng.integers(-5, 6, size=16).astype(np.float64)
        M = rng.integers(-3, 4, size=(16, 16)).astype(np.float64)
        x = rng.integers(-3, 4, size=16).astype(np.float64)
        results = []
        for abft in (True, False):
            s = Session(4, abft=abft)
            solved = gaussian.solve(s.matrix(A), b).x
            dM = s.matrix(M)
            y = x
            for _ in range(3):
                y = dM.matvec(s.row_vector(y, dM)).to_numpy()
            results.append((solved, y))
        (x_on, y_on), (x_off, y_off) = results
        assert np.array_equal(x_on, x_off)
        assert np.array_equal(y_on, y_off)

    def test_report_includes_abft_line(self):
        s = Session(2, abft=True)
        s.vector(np.zeros(4))
        text = s.report()
        assert "abft" in text
        data = s.report_data()
        assert data["abft"]["protected"] >= 1
        for key in ("detected", "corrected", "recomputed", "scrubs"):
            assert key in data["abft"]

    def test_no_abft_means_no_report_section(self):
        s = Session(2)
        assert "abft" not in s.report_data()
        assert s.abft is None


# ---------------------------------------------------------------------------
# ABFT-off bit-identity
# ---------------------------------------------------------------------------

_BASELINE_SNIPPET = """
import json
import numpy as np
import sys

from repro import Session

s = Session(4, "cm2")
rng = np.random.default_rng(2024)
A = s.matrix(rng.standard_normal((24, 16)))
v = s.col_vector(rng.standard_normal(24), A)
row = A.extract(axis=0, index=3)
A2 = A.insert(axis=0, index=20, vector=row)
sums = A2.reduce(axis=1, op="sum")
y = A.vecmat(v)
c = s.machine.counters
print(json.dumps({
    "time": c.time,
    "flops": c.flops,
    "elements": c.elements_transferred,
    "rounds": c.comm_rounds,
    "local": c.local_moves,
    "abft_imported": "repro.abft" in sys.modules,
}))
"""


class TestAbftOffBitIdentity:
    def test_abft_off_never_imports_the_module_and_costs_match(self):
        """Without ``abft=``, a run is identical to one that cannot even
        see ``repro.abft`` — same ticks, same counters, module not loaded."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", _BASELINE_SNIPPET],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        sub = json.loads(out.stdout)
        assert sub["abft_imported"] is False

        # same workload in-process (repro.abft IS imported by this test
        # module) — counters must match the abft-less subprocess exactly
        s = Session(4, "cm2")
        rng = np.random.default_rng(2024)
        A = s.matrix(rng.standard_normal((24, 16)))
        v = s.col_vector(rng.standard_normal(24), A)
        row = A.extract(axis=0, index=3)
        A2 = A.insert(axis=0, index=20, vector=row)
        A2.reduce(axis=1, op="sum")
        A.vecmat(v)
        c = s.machine.counters
        assert c.time == sub["time"]
        assert c.flops == sub["flops"]
        assert c.elements_transferred == sub["elements"]
        assert c.comm_rounds == sub["rounds"]
        assert c.local_moves == sub["local"]

    def test_abft_counters_stay_out_of_cost_snapshots(self):
        """Observability counters must not leak into the cost record."""
        from repro.machine.counters import CostSnapshot
        from dataclasses import fields

        names = {f.name for f in fields(CostSnapshot)}
        assert not any(n.startswith("abft_") for n in names)

    def test_degrade_rebinds_and_clears_the_registry(self):
        s = Session(3, "unit", abft=True)
        s.vector(np.zeros(8))
        assert s.abft.protected_pvars()
        s.machine.kill_node(1)
        new_machine = s.degrade()
        assert s.machine is new_machine
        assert new_machine.abft is s.abft
        assert not s.abft.protected_pvars(), "old-machine panels are stale"
