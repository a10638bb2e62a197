"""Unit tests for matrix embeddings (S7)."""

import numpy as np
import pytest

from repro.embeddings import MatrixEmbedding, hamming_distance, split_dims
from repro.machine import CostModel, Hypercube


@pytest.fixture
def m():
    return Hypercube(4, CostModel.unit())


class TestSplitDims:
    def test_covers_all_dims(self):
        for n in range(7):
            nr, nc = split_dims(n, 100, 100)
            assert nr + nc == n

    def test_square_matrix_square_grid(self):
        nr, nc = split_dims(6, 512, 512)
        assert abs(nr - nc) <= 1

    def test_tall_matrix_gets_row_dims(self):
        nr, nc = split_dims(6, 4096, 4)
        assert nr > nc

    def test_wide_matrix_gets_col_dims(self):
        nr, nc = split_dims(6, 4, 4096)
        assert nc > nr

    def test_extreme_aspect_fully_one_sided(self):
        assert split_dims(4, 1000, 1) == (4, 0)
        assert split_dims(4, 1, 1000) == (0, 4)

    def test_split_minimises_local_load(self):
        n, R, C = 5, 24, 100
        nr, nc = split_dims(n, R, C)
        best = -(-R // (1 << nr)) * -(-C // (1 << nc))
        for anr in range(n + 1):
            anc = n - anr
            load = -(-R // (1 << anr)) * -(-C // (1 << anc))
            assert best <= load

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            split_dims(-1, 2, 2)
        with pytest.raises(ValueError):
            split_dims(2, 0, 2)


class TestConstruction:
    def test_dims_must_partition_cube(self, m):
        with pytest.raises(ValueError, match="cover all"):
            MatrixEmbedding(m, 4, 4, row_dims=(0,), col_dims=(1,))
        with pytest.raises(ValueError, match="overlap"):
            MatrixEmbedding(m, 4, 4, row_dims=(0, 1), col_dims=(1, 2))

    def test_grid_shape(self, m):
        emb = MatrixEmbedding(m, 8, 8, row_dims=(0, 1, 2), col_dims=(3,))
        assert (emb.Pr, emb.Pc) == (8, 2)

    def test_local_shape_is_ceil(self, m):
        emb = MatrixEmbedding(m, 10, 9, row_dims=(0, 1), col_dims=(2, 3))
        assert emb.local_shape == (3, 3)

    def test_invalid_extent(self, m):
        with pytest.raises(ValueError):
            MatrixEmbedding(m, 0, 4, row_dims=(0, 1), col_dims=(2, 3))

    def test_default_factory_aspect(self, m):
        emb = MatrixEmbedding.default(m, 100, 2)
        assert emb.Pr >= emb.Pc

    def test_equality(self, m):
        a = MatrixEmbedding.default(m, 8, 8)
        b = MatrixEmbedding.default(m, 8, 8)
        c = MatrixEmbedding.default(m, 8, 9)
        assert a == b and a != c

    def test_repr_mentions_grid(self, m):
        emb = MatrixEmbedding.default(m, 8, 8)
        assert "grid" in repr(emb)


class TestAddressing:
    def test_pid_grid_round_trip(self, m):
        emb = MatrixEmbedding(m, 16, 16, row_dims=(0, 1), col_dims=(2, 3))
        for gr in range(emb.Pr):
            for gc in range(emb.Pc):
                pid = emb.pid_for_grid(gr, gc)
                assert emb.grid_for_pid(pid) == (gr, gc)

    def test_every_pid_has_unique_grid_cell(self, m):
        emb = MatrixEmbedding(m, 16, 16, row_dims=(0, 2), col_dims=(1, 3))
        cells = {emb.grid_for_pid(pid) for pid in range(m.p)}
        assert len(cells) == m.p

    def test_adjacent_grid_cells_are_cube_neighbors(self, m):
        """The Gray-code property that motivates the embedding."""
        emb = MatrixEmbedding(m, 16, 16, row_dims=(0, 1), col_dims=(2, 3))
        for gr in range(emb.Pr - 1):
            for gc in range(emb.Pc):
                a = emb.pid_for_grid(gr, gc)
                b = emb.pid_for_grid(gr + 1, gc)
                assert hamming_distance(a, b) == 1
        for gr in range(emb.Pr):
            for gc in range(emb.Pc - 1):
                a = emb.pid_for_grid(gr, gc)
                b = emb.pid_for_grid(gr, gc + 1)
                assert hamming_distance(a, b) == 1

    def test_owner_slot_locates_elements(self, m, rng):
        emb = MatrixEmbedding.default(m, 11, 7)
        A = rng.standard_normal((11, 7))
        pv = emb.scatter(A)
        for i in range(11):
            for j in range(7):
                pid, sr, sc = emb.owner_slot(i, j)
                assert pv.data[int(pid), int(sr), int(sc)] == A[i, j]

    def test_owner_vectorised(self, m):
        emb = MatrixEmbedding.default(m, 11, 7)
        ii, jj = np.meshgrid(np.arange(11), np.arange(7), indexing="ij")
        pids = emb.owner(ii.ravel(), jj.ravel())
        assert pids.shape == (77,)
        assert pids.min() >= 0 and pids.max() < m.p


    @pytest.mark.parametrize("layout", ["block", "cyclic", "block_cyclic:2"])
    @pytest.mark.parametrize("coding", ["gray", "binary"])
    def test_owner_slot_scalar_same_with_cache_on_and_off(self, layout, coding):
        R, C = 11, 7
        found = []
        for cache in (True, False):
            machine = Hypercube(4, CostModel.unit(), plan_cache=cache)
            e = MatrixEmbedding(
                machine, R, C, row_dims=(0, 3), col_dims=(1, 2),
                row_layout_kind=layout, col_layout_kind=layout, coding=coding,
            )
            found.append([e.owner_slot_scalar(i, j)
                          for i in range(R) for j in range(C)])
            pid, sr, sc = e.owner_slot(*np.indices((R, C)).reshape(2, -1))
            assert found[-1] == list(zip(pid.tolist(), sr.tolist(), sc.tolist()))
        assert found[0] == found[1]


class TestLoadBalance:
    @pytest.mark.parametrize("R,C", [(16, 16), (17, 3), (1, 100), (33, 31)])
    @pytest.mark.parametrize("layout", ["block", "cyclic"])
    def test_no_processor_over_capacity(self, m, R, C, layout):
        emb = MatrixEmbedding.default(m, R, C, layout=layout)
        counts = emb.valid_mask().sum(axis=(1, 2))
        lr, lc = emb.local_shape
        assert counts.max() <= lr * lc
        assert counts.sum() == R * C

    def test_balanced_within_one_row_and_col(self, m):
        emb = MatrixEmbedding.default(m, 30, 22, layout="cyclic")
        counts = emb.valid_mask().sum(axis=(1, 2))
        # each axis balanced within 1 => products within a small factor
        assert counts.max() - counts.min() <= emb.local_shape[0] + emb.local_shape[1]


class TestHostTransfer:
    @pytest.mark.parametrize("R,C", [(1, 1), (16, 16), (5, 13), (31, 2)])
    @pytest.mark.parametrize("layout", ["block", "cyclic"])
    def test_scatter_gather_round_trip(self, m, rng, R, C, layout):
        emb = MatrixEmbedding.default(m, R, C, layout=layout)
        A = rng.standard_normal((R, C))
        assert np.allclose(emb.gather(emb.scatter(A)), A)

    def test_scatter_zeroes_padding(self, m):
        emb = MatrixEmbedding.default(m, 5, 5)
        pv = emb.scatter(np.ones((5, 5)))
        assert np.all(pv.data[~emb.valid_mask()] == 0.0)

    def test_scatter_shape_check(self, m):
        emb = MatrixEmbedding.default(m, 5, 5)
        with pytest.raises(ValueError, match="host matrix"):
            emb.scatter(np.ones((5, 6)))

    def test_gather_shape_check(self, m):
        emb = MatrixEmbedding.default(m, 5, 5)
        other = MatrixEmbedding.default(m, 8, 8)
        pv = other.scatter(np.ones((8, 8)))
        with pytest.raises(ValueError, match="local shape"):
            emb.gather(pv)

    def test_scatter_untimed(self, m):
        emb = MatrixEmbedding.default(m, 6, 6)
        t0 = m.counters.time
        emb.scatter(np.ones((6, 6)))
        assert m.counters.time == t0


class TestTransposedEmbedding:
    def test_swaps_axes(self, m):
        emb = MatrixEmbedding(m, 10, 6, row_dims=(0, 1, 2), col_dims=(3,))
        t = emb.transposed()
        assert (t.R, t.C) == (6, 10)
        assert t.row_dims == (3,) and t.col_dims == (0, 1, 2)

    def test_double_transpose_is_identity(self, m):
        emb = MatrixEmbedding.default(m, 10, 6, layout="cyclic")
        assert emb.transposed().transposed() == emb

    def test_same_grid(self, m):
        a = MatrixEmbedding.default(m, 10, 6)
        b = MatrixEmbedding(m, 12, 8, a.row_dims, a.col_dims)
        assert a.same_grid(b)
        assert a != b
