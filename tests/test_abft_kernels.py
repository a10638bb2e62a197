"""The checksum layer's byte-sum kernels and verification routine.

``abft.panels.checksum_panels`` sums a block's byte image with two float64
BLAS passes, and ``machine.dirty.block_signatures`` signs every span with
one ``np.add.reduceat``.  The integer reductions they replaced are copied
below as references: both kernels must return the same uint64 words, for
every dtype, block shape and span count.  The manager verifies each
guarded, evicted or scrubbed block with one panel recompute and diagnoses
only a divergent one; the corruptions below leave one of the two panels
unchanged, and must still be caught on all three paths.  A scripted
corrupted run pins ``ABFTStats`` and the ``CostSnapshot``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CorruptionError, Session
from repro.abft import ABFTManager, checksum_panels
from repro.faults import CheckpointStore, FaultPlan, run_resilient
from repro.faults.plan import BitFlip
from repro.faults.recovery import gaussian_workload
from repro.machine.dirty import block_signatures


# -- the replaced kernels, copied as the reference -------------------------------


def ref_checksum_panels(data):
    """Column and row byte sums as casting uint64 reductions."""
    p = data.shape[0]
    flat = np.ascontiguousarray(data).reshape(p, -1)
    u8 = flat.view(np.uint8).reshape(p, -1)
    col = u8.sum(axis=1, dtype=np.uint64)
    row = u8.sum(axis=0, dtype=np.uint64)
    return col, row


def ref_block_signatures(host, blocks):
    """One NumPy sum per ``np.array_split`` span."""
    flat = np.ascontiguousarray(host).reshape(-1).view(np.uint8)
    return np.array(
        [span.sum(dtype=np.uint64) for span in np.array_split(flat, blocks)],
        dtype=np.uint64,
    )


def _same(got, want):
    assert got.dtype == want.dtype == np.uint64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _random_block(rng, shape, dtype):
    """Arbitrary byte patterns (NaNs included) in the requested dtype."""
    if dtype is np.bool_:
        return rng.random(shape) < 0.5
    itemsize = np.dtype(dtype).itemsize
    count = int(np.prod(shape)) * itemsize
    raw = rng.integers(0, 256, size=count, dtype=np.uint8)
    return raw.view(dtype).reshape(shape)


DTYPES = (np.float64, np.float32, np.int64, np.int32, np.bool_, np.complex128)


# -- checksum panels -------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("local", [(), (3,), (3, 4)], ids=["p", "pk", "prc"])
@pytest.mark.parametrize("p", [1, 2, 32, 64, 1024])
def test_panels_equal_the_integer_reduction(p, local, dtype):
    rng = np.random.default_rng(p * 31 + len(local))
    data = _random_block(rng, (p, *local), dtype)
    for got, want in zip(checksum_panels(data), ref_checksum_panels(data)):
        _same(got, want)


@pytest.mark.parametrize("p", [2, 32, 1024])
def test_panels_of_non_contiguous_blocks(p):
    rng = np.random.default_rng(p)
    blocks = (
        rng.standard_normal((5, p)).T,
        rng.integers(-9, 9, size=(p, 4, 3)).transpose(0, 2, 1),
        _random_block(rng, (p, 6), np.complex128)[:, ::2],
    )
    for data in blocks:
        assert not data.flags.c_contiguous
        for got, want in zip(checksum_panels(data), ref_checksum_panels(data)):
            _same(got, want)


@pytest.mark.parametrize("p", [1, 4, 64])
def test_panels_of_a_zero_width_block(p):
    data = np.zeros((p, 0))
    col, row = checksum_panels(data)
    want_col, want_row = ref_checksum_panels(data)
    _same(col, want_col)
    _same(row, want_row)
    assert col.shape == (p,) and row.shape == (0,)


def test_panels_of_saturated_bytes():
    """Every byte 0xFF: the largest word each panel can hold at this size."""
    data = np.full((1024, 4, 4), -1, dtype=np.int64)
    col, row = checksum_panels(data)
    for got, want in zip((col, row), ref_checksum_panels(data)):
        _same(got, want)
    assert int(row[0]) == 1024 * 255 and int(col[0]) == 128 * 255


# -- block signatures ------------------------------------------------------------


@pytest.mark.parametrize("nbytes", [0, 1, 5, 63, 64, 65, 1000, 4099])
@pytest.mark.parametrize("blocks", [1, 7, 64])
def test_signatures_equal_one_sum_per_span(nbytes, blocks):
    """Byte counts below, equal to and above the span count (empty spans
    sign zero)."""
    rng = np.random.default_rng(nbytes + blocks)
    host = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
    _same(block_signatures(host, blocks), ref_block_signatures(host, blocks))


def test_signatures_of_typed_and_non_contiguous_hosts():
    rng = np.random.default_rng(5)
    cases = (
        (rng.standard_normal((24, 25)), 64),
        (rng.standard_normal((25, 24)).T, 32),
        (_random_block(rng, (5, 3), np.complex128), 1024),
        (rng.random(10) < 0.5, 4),
        (rng.integers(-5, 5, size=(16, 17)).astype(np.int32), 16),
    )
    for host, blocks in cases:
        _same(block_signatures(host, blocks),
              ref_block_signatures(host, blocks))


# -- corruptions that leave one panel unchanged -----------------------------------


def _shift_bytes(pv, edits):
    """Add ``delta`` to byte ``(pid, slot)`` for each ``(pid, slot, delta)``,
    copy-on-corrupt style (like the injector)."""
    data = np.array(pv.data)
    u8 = data.reshape(data.shape[0], -1).view(np.uint8)
    for pid, slot, delta in edits:
        u8[pid, slot] = np.uint8(int(u8[pid, slot]) + delta)
    pv.data = data


# The vectors hold 2.0 everywhere: byte 0 of each float64 is 0x00 and
# byte 7 is 0x40, so +delta on byte 0 and -delta on byte 7 cannot wrap.
BALANCED = {
    # two bytes of processor 1: its column word does not move
    "column-silent": [(1, 0, +3), (1, 7, -3)],
    # byte slot 7 of processors 0 and 2: the row panel does not move
    "row-silent": [(0, 7, +5), (2, 7, -5)],
}


def _corrupt_balanced(pv, edits):
    """Apply ``edits`` and check that exactly one panel kept its words."""
    col, row = ref_checksum_panels(pv.data)
    _shift_bytes(pv, edits)
    now_col, now_row = ref_checksum_panels(pv.data)
    same = (np.array_equal(col, now_col), np.array_equal(row, now_row))
    assert sorted(same) == [False, True]


def _assert_escalated(s):
    assert s.abft.stats.uncorrectable == 1
    assert s.machine.counters.abft_detected == 1
    assert s.machine.counters.abft_corrected == 0


@pytest.mark.parametrize("edits", BALANCED.values(), ids=BALANCED.keys())
def test_balanced_corruption_escalates_through_a_guarded_read(edits):
    s = Session(2, "unit", abft=True)
    v = s.vector(np.full(8, 2.0))
    _corrupt_balanced(v.pvar, edits)
    with pytest.raises(CorruptionError, match="multiple corrupted"):
        v + 0.0
    _assert_escalated(s)


@pytest.mark.parametrize("edits", BALANCED.values(), ids=BALANCED.keys())
def test_balanced_corruption_escalates_through_guard_on_evict(edits):
    s = Session(2, "unit", abft=ABFTManager(keep=1))
    v = s.vector(np.full(8, 2.0))
    _corrupt_balanced(v.pvar, edits)
    with pytest.raises(CorruptionError, match="multiple corrupted"):
        s.vector(np.zeros(8))  # retires v's block
    _assert_escalated(s)
    assert s.abft.stats.evictions == 1


@pytest.mark.parametrize("edits", BALANCED.values(), ids=BALANCED.keys())
def test_balanced_corruption_escalates_through_a_scrub(edits):
    s = Session(2, "unit", abft=True)
    v = s.vector(np.full(8, 2.0))
    _corrupt_balanced(v.pvar, edits)
    with pytest.raises(CorruptionError, match="multiple corrupted"):
        s.abft.scrub()
    _assert_escalated(s)


# -- guards over several operands -------------------------------------------------


def test_guard_corrects_only_the_corrupted_second_operand():
    s = Session(2, "unit", abft=True)
    a = s.vector(np.arange(8.0))
    b = s.vector(np.arange(8.0) * 3)
    a_data = a.pvar.data
    _shift_bytes(b.pvar, [(3, 6, +1)])
    got = (a + b).to_numpy()
    np.testing.assert_array_equal(got, np.arange(8.0) * 4)
    np.testing.assert_array_equal(b.to_numpy(), np.arange(8.0) * 3)
    assert a.pvar.data is a_data, "the clean operand is left alone"
    assert s.machine.counters.abft_detected == 1
    assert s.machine.counters.abft_corrected == 1


def test_guard_of_a_repeated_operand_detects_once():
    s = Session(2, "unit", abft=True)
    v = s.vector(np.arange(8.0))
    _shift_bytes(v.pvar, [(2, 1, +4)])
    verifies = s.abft.stats.verifies
    w = v + v
    assert s.abft.stats.verifies == verifies + 1
    np.testing.assert_array_equal(w.to_numpy(), np.arange(8.0) * 2)
    assert s.machine.counters.abft_detected == 1
    assert s.machine.counters.abft_corrected == 1


# -- a scripted corrupted run ------------------------------------------------------


def test_scripted_corrupted_run_matches_the_pinned_books():
    """Single flips, one uncorrectable pair and a checkpoint replay, with a
    small registry (guard-on-evict) and periodic scrubs.  The counts and
    costs were recorded with the stacked pre-check and integer kernels the
    current code replaced.  The plan cache is pinned on: with ABFT, three
    plan replays do not charge the wire-checksum word, so cache-off costs
    differ (an open ROADMAP item)."""
    rng = np.random.default_rng(21)
    A = rng.integers(-4, 5, size=(12, 12)).astype(np.float64)
    A += 64 * np.eye(12)
    b = rng.integers(-8, 9, size=12).astype(np.float64)
    clean = Session(4, "cm2")
    baseline = gaussian_workload(A, b)(clean, CheckpointStore(clean))
    t = clean.time
    plan = FaultPlan([
        BitFlip(0.15 * t, pid=1, slot=3, bit=4, target=0),
        BitFlip(0.35 * t, pid=5, slot=9, bit=6, target=3),
        BitFlip(0.55 * t, pid=2, slot=5, bit=1, target=1),
        BitFlip(0.55 * t, pid=2, slot=13, bit=1, target=1),
        BitFlip(0.75 * t, pid=7, slot=2, bit=7, target=6),
    ])
    s = Session(4, "cm2", faults=plan,
                abft=ABFTManager(keep=6, scrub_interval=5), plan_cache=True)
    report = run_resilient(s, gaussian_workload(A, b))
    assert report.error is None and report.recoveries == 1
    np.testing.assert_array_equal(np.asarray(report.result), baseline)
    assert s.abft.stats.as_dict() == {
        "protected": 244, "verifies": 593, "uncorrectable": 1, "scrubs": 47,
        "wire_retransmits": 0, "evictions": 232,
    }
    assert s.snapshot().as_dict() == {
        "time": 1095130.5, "flops": 214976.0,
        "elements_transferred": 110143.0, "comm_rounds": 3293,
        "local_moves": 5200.0,
    }
    c = s.machine.counters
    assert (c.abft_detected, c.abft_corrected, c.abft_recomputed) == (3, 2, 1)
