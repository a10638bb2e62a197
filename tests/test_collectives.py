"""Unit tests for the subcube collectives (S9): semantics and cost structure."""

import itertools

import numpy as np
import pytest

from repro import comm
from repro.comm.collectives import _root_pid_map, reading_subcube
from repro.faults.expansion import ExpansionLedger
from repro.faults.recovery import subcube_members
from repro.machine import CostModel, Hypercube


@pytest.fixture
def m():
    return Hypercube(4, CostModel.unit())


def brute_subcube_members(p, pid, dims):
    """All pids in pid's subcube spanned by dims, by brute force."""
    mask = sum(1 << d for d in dims)
    return [q for q in range(p) if (q & ~mask) == (pid & ~mask)]


def brute_rank(pid, dims):
    return sum(((pid >> d) & 1) << k for k, d in enumerate(dims))


class TestSubcubeAddressing:
    @pytest.mark.parametrize("dims", [(0,), (1, 3), (0, 1, 2), (2,)])
    def test_subcube_rank(self, m, dims):
        ranks = comm.subcube_rank(m, dims)
        for pid in range(m.p):
            assert ranks[pid] == brute_rank(pid, dims)

    @pytest.mark.parametrize("dims", [(0,), (1, 3), (0, 2)])
    def test_subcube_base_is_rank_zero_member(self, m, dims):
        base = comm.subcube_base(m, dims)
        ranks = comm.subcube_rank(m, dims)
        for pid in range(m.p):
            assert ranks[base[pid]] == 0
            assert base[pid] in brute_subcube_members(m.p, pid, dims)


def every_dims(n):
    """Every subset of ``range(n)``, ascending and reversed."""
    for k in range(n + 1):
        for dims in itertools.combinations(range(n), k):
            yield dims
            if k > 1:
                yield dims[::-1]


def brute_by_rank(pids, dims):
    """``pids`` sorted by their rank in the ``dims`` subcube."""
    return sorted(pids, key=lambda q: brute_rank(q, dims))


def brute_groups(p, dims):
    """pid -> its subcube's members ordered by rank, by brute force."""
    return {
        pid: brute_by_rank(brute_subcube_members(p, pid, dims), dims)
        for pid in range(p)
    }


def brute_bases(n, free_dims):
    """Every base address over the dimensions ``free_dims`` leaves fixed."""
    fixed = [d for d in range(n) if d not in free_dims]
    for combo in itertools.product((0, 1), repeat=len(fixed)):
        yield sum(bit << d for bit, d in zip(combo, fixed))


class TestAddressMapsBruteForce:
    """Every subcube address map against brute force, every dims subset."""

    @pytest.mark.parametrize("n", range(7))
    def test_collective_maps(self, n):
        m = Hypercube(n, CostModel.unit())
        for dims in every_dims(n):
            groups = brute_groups(m.p, dims)
            ranks = comm.subcube_rank(m, dims)
            base = comm.subcube_base(m, dims)
            for pid in range(m.p):
                assert ranks[pid] == brute_rank(pid, dims)
                assert base[pid] == groups[pid][0]
                members, pos = reading_subcube(m, dims, pid)
                assert members.dtype == np.int64
                assert members.tolist() == groups[pid]
                assert pos == brute_rank(pid, dims)
            for root_rank in range(1 << len(dims)):
                root_pid = _root_pid_map(m, dims, root_rank)
                assert root_pid.tolist() == [
                    groups[pid][root_rank] for pid in range(m.p)
                ]

    @pytest.mark.parametrize("n", range(7))
    def test_recovery_maps(self, n):
        p = 1 << n
        rng = np.random.default_rng(n)
        for free_dims in every_dims(n):
            mask = sum(1 << d for d in free_dims)
            for base in brute_bases(n, free_dims):
                members = brute_by_rank(
                    [q for q in range(p) if q & ~mask == base], free_dims
                )
                got = subcube_members(free_dims, base)
                assert got.dtype == np.int64
                assert got.tolist() == members
                if list(free_dims) != sorted(free_dims):
                    continue  # degrades keep free dims ascending
                led = ExpansionLedger(Hypercube(n))
                led.record_degrade(free_dims, base)
                assert led.embed_dims == free_dims
                assert led.embed_base == base
                assert [led.to_root_pid(j) for j in range(len(members))] == (
                    members
                )
                # A second shrink composes into the same root map.
                k = len(free_dims)
                inner = tuple(d for d in range(k) if rng.random() < 0.5)
                inner_base = int(rng.choice(list(brute_bases(k, inner))))
                inner_mask = sum(1 << d for d in inner)
                inner_members = brute_by_rank(
                    [q for q in range(1 << k) if q & ~inner_mask == inner_base],
                    inner,
                )
                led.record_degrade(inner, inner_base)
                assert led.embed_dims == tuple(free_dims[d] for d in inner)
                assert [
                    led.to_root_pid(j) for j in range(len(inner_members))
                ] == [members[q] for q in inner_members]


class TestBroadcast:
    @pytest.mark.parametrize("dims", [(0,), (0, 1), (1, 3), (0, 1, 2, 3)])
    @pytest.mark.parametrize("root", [0, 1])
    def test_every_member_gets_root_value(self, m, dims, root):
        if root >= (1 << len(dims)):
            pytest.skip("root outside subcube")
        pv = m.pvar(np.arange(16.0) * 10)
        out = comm.broadcast(m, pv, dims=dims, root_rank=root)
        ranks = comm.subcube_rank(m, dims)
        for pid in range(m.p):
            members = brute_subcube_members(m.p, pid, dims)
            src = [q for q in members if ranks[q] == root][0]
            assert out.data[pid] == pv.data[src]

    def test_empty_dims_is_identity(self, m):
        pv = m.pvar(np.arange(16.0))
        t0 = m.counters.time
        out = comm.broadcast(m, pv, dims=())
        assert out is pv
        assert m.counters.time == t0

    def test_cost_is_k_rounds_of_full_volume(self):
        m = Hypercube(4, CostModel(tau=100, t_c=2, t_a=1, t_m=1))
        pv = m.zeros((6,))
        t0 = m.counters.time
        comm.broadcast(m, pv, dims=(0, 2, 3))
        assert m.counters.time - t0 == 3 * (100 + 2 * 6)

    def test_block_payload(self, m):
        pv = m.pvar(np.arange(32.0).reshape(16, 2))
        out = comm.broadcast(m, pv, dims=(0, 1))
        assert np.array_equal(out.data[3], pv.data[0])

    def test_bad_root_rejected(self, m):
        with pytest.raises(ValueError, match="root_rank"):
            comm.broadcast(m, m.zeros(), dims=(0,), root_rank=2)


class TestReduce:
    @pytest.mark.parametrize("dims", [(0,), (2, 3), (0, 1, 2, 3)])
    @pytest.mark.parametrize("opname", ["sum", "max", "min", "prod"])
    def test_all_reduce_matches_brute_force(self, m, dims, opname):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(16)
        pv = m.pvar(vals)
        out = comm.reduce_all(m, pv, opname, dims=dims)
        op = comm.get_op(opname)
        for pid in range(m.p):
            members = brute_subcube_members(m.p, pid, dims)
            expect = vals[members[0]]
            for q in members[1:]:
                expect = op.ufunc(expect, vals[q])
            assert np.isclose(out.data[pid], expect)

    def test_reduce_defaults_to_whole_cube(self, m):
        pv = m.pvar(np.ones(16))
        out = comm.reduce_all(m, pv, "sum")
        assert np.all(out.data == 16)

    def test_reduce_to_root_same_result(self, m):
        pv = m.pvar(np.arange(16.0))
        out = comm.reduce(m, pv, "sum", dims=(0, 1))
        assert out.data[0] == 0 + 1 + 2 + 3

    def test_cost_structure(self):
        m = Hypercube(3, CostModel(tau=10, t_c=1, t_a=1, t_m=0))
        pv = m.zeros((4,))
        t0 = m.counters.time
        comm.reduce_all(m, pv, "sum")
        # 3 rounds x (exchange 10+4 + combine 4)
        assert m.counters.time - t0 == 3 * (10 + 4 + 4)

    def test_boolean_any_all(self, m):
        flags = np.zeros(16, dtype=bool)
        flags[5] = True
        out = comm.reduce_all(m, m.pvar(flags), "any")
        assert np.all(out.data)
        out2 = comm.reduce_all(m, m.pvar(flags), "all")
        assert not np.any(out2.data)


class TestReduceLoc:
    def test_argmax_global_winner(self, m):
        vals = np.arange(16.0)
        v, i = comm.reduce_all_loc(m, m.pvar(vals), m.pvar(np.arange(16)))
        assert np.all(v.data == 15) and np.all(i.data == 15)

    def test_argmin_mode(self, m):
        vals = np.arange(16.0)[::-1].copy()
        v, i = comm.reduce_all_loc(
            m, m.pvar(vals), m.pvar(np.arange(16)), mode="min"
        )
        assert np.all(v.data == 0) and np.all(i.data == 15)

    def test_tie_breaks_to_smallest_index(self, m):
        vals = np.zeros(16)
        v, i = comm.reduce_all_loc(m, m.pvar(vals), m.pvar(np.arange(16)))
        assert np.all(i.data == 0)

    def test_subcube_scoped(self, m):
        vals = np.arange(16.0)
        v, i = comm.reduce_all_loc(
            m, m.pvar(vals), m.pvar(np.arange(16)), dims=(0, 1)
        )
        # each group of 4 consecutive pids: winner is the largest pid
        for pid in range(16):
            assert i.data[pid] == (pid | 3)

    def test_bad_mode(self, m):
        with pytest.raises(ValueError, match="mode"):
            comm.reduce_all_loc(m, m.zeros(), m.zeros(), mode="median")

    def test_mismatched_shapes(self, m):
        with pytest.raises(ValueError, match="identical local shapes"):
            comm.reduce_all_loc(m, m.zeros((2,)), m.zeros((3,)))


class TestScan:
    def test_exclusive_scan_whole_cube(self, m):
        pv = m.pvar(np.arange(16.0))
        out = comm.scan(m, pv, "sum")
        expect = np.concatenate([[0.0], np.cumsum(np.arange(15.0))])
        assert np.allclose(out.data, expect)

    def test_inclusive_scan(self, m):
        pv = m.pvar(np.ones(16))
        out = comm.scan(m, pv, "sum", inclusive=True)
        assert np.allclose(out.data, np.arange(1, 17))

    def test_max_scan(self, m):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(16)
        out = comm.scan(m, m.pvar(vals), "max", inclusive=True)
        assert np.allclose(out.data, np.maximum.accumulate(vals))

    @pytest.mark.parametrize("dims", [(0, 1), (1, 3), (2,)])
    def test_subcube_scan_matches_brute_force(self, m, dims):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(16)
        out = comm.scan(m, m.pvar(vals), "sum", dims=dims)
        for pid in range(16):
            members = brute_subcube_members(m.p, pid, dims)
            members = sorted(members, key=lambda q: brute_rank(q, dims))
            myrank = brute_rank(pid, dims)
            assert np.isclose(out.data[pid], sum(vals[q] for q in members[:myrank]))

    def test_scan_identity_for_rank0(self, m):
        out = comm.scan(m, m.pvar(np.ones(16)), "sum", dims=(1, 2))
        ranks = comm.subcube_rank(m, (1, 2))
        assert np.all(out.data[ranks == 0] == 0.0)


class TestGatherScatter:
    def test_allgather_orders_by_rank(self, m):
        pv = m.pvar(np.arange(16.0))
        out = comm.allgather(m, pv, dims=(0, 1))
        for pid in range(16):
            base = pid & ~3
            assert np.array_equal(out.data[pid].ravel(), np.arange(base, base + 4))

    def test_allgather_volume_doubles_per_round(self):
        m = Hypercube(3, CostModel(tau=0, t_c=1, t_a=0, t_m=0))
        pv = m.zeros((2,))
        t0 = m.counters.time
        comm.allgather(m, pv)
        # rounds move 2, 4, 8 elements
        assert m.counters.time - t0 == 2 + 4 + 8

    def test_gather_alias(self, m):
        pv = m.pvar(np.arange(16.0))
        out = comm.gather(m, pv, dims=(2, 3))
        assert out.local_shape == (4, 1)

    def test_scatter_inverts_gather(self, m):
        rng = np.random.default_rng(9)
        blocks = rng.standard_normal((16, 4, 3))
        pv = m.pvar(blocks)
        out = comm.scatter(m, pv, dims=(0, 1))
        ranks = comm.subcube_rank(m, (0, 1))
        base = comm.subcube_base(m, (0, 1))
        for pid in range(16):
            assert np.array_equal(out.data[pid], blocks[base[pid], ranks[pid]])

    def test_scatter_root_rank(self, m):
        blocks = np.arange(16 * 4.0).reshape(16, 4)
        out = comm.scatter(m, m.pvar(blocks), dims=(0, 1), root_rank=3)
        # root of pid 0's subcube at rank 3 is pid 3
        assert out.data[0] == blocks[3, 0]

    def test_scatter_halving_cost(self):
        m = Hypercube(3, CostModel(tau=10, t_c=1, t_a=0, t_m=0))
        pv = m.zeros((8, 2))  # 8 blocks of 2
        t0 = m.counters.time
        comm.scatter(m, pv)
        # rounds move 8, 4, 2 elements (4,2,1 blocks of 2)
        assert m.counters.time - t0 == (10 + 8) + (10 + 4) + (10 + 2)

    def test_scatter_shape_validation(self, m):
        with pytest.raises(ValueError, match="leading local axis"):
            comm.scatter(m, m.zeros((3, 2)), dims=(0, 1))


class TestTreeVsSerialRounds:
    """The structural fact behind the paper's speedups: tree collectives
    use lg(p) rounds where serialised communication uses p-1."""

    def test_reduce_round_count_is_logarithmic(self):
        for n in (2, 4, 6):
            m = Hypercube(n, CostModel.unit())
            comm.reduce_all(m, m.zeros(), "sum")
            assert m.counters.comm_rounds == n

    def test_broadcast_round_count_is_logarithmic(self):
        for n in (2, 4, 6):
            m = Hypercube(n, CostModel.unit())
            comm.broadcast(m, m.zeros())
            assert m.counters.comm_rounds == n
