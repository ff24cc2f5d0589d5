"""Unit tests for data layouts (descriptors, block-cyclic, COSTA)."""

import numpy as np
import pytest

from repro.layouts import (
    BlockCyclicLayout,
    ScaLAPACKDescriptor,
    global_to_local,
    local_to_global,
    numroc,
    redistribute,
    redistribution_volume,
)
from repro.machine import LayoutError, Machine, ProcessorGrid2D


class TestNumroc:
    def test_even_split(self):
        # 12 elements, nb=2, 3 procs: each gets 4.
        assert [numroc(12, 2, p, 0, 3) for p in range(3)] == [4, 4, 4]

    def test_uneven_split(self):
        # 13 elements, nb=4, 2 procs: blocks 4,4,4,1 -> p0: 4+4=8, p1: 4+1=5.
        assert numroc(13, 4, 0, 0, 2) == 8
        assert numroc(13, 4, 1, 0, 2) == 5

    def test_totals(self):
        for n in (1, 7, 32, 100):
            for nb in (1, 3, 8):
                for p in (1, 2, 5):
                    assert sum(numroc(n, nb, q, 0, p)
                               for q in range(p)) == n

    def test_source_offset(self):
        # With isrcproc=1, proc 1 owns the first block.
        assert numroc(4, 4, 1, 1, 3) == 4
        assert numroc(4, 4, 0, 1, 3) == 0

    def test_validation(self):
        with pytest.raises(LayoutError):
            numroc(4, 0, 0, 0, 2)


class TestIndexMaps:
    def test_roundtrip(self):
        nb, p = 3, 4
        for ig in range(50):
            owner, il = global_to_local(ig, nb, p)
            assert local_to_global(il, nb, owner, 0, p) == ig

    def test_owner_cycles(self):
        owners = [global_to_local(i, 2, 3)[0] for i in range(12)]
        assert owners == [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]


class TestDescriptor:
    def test_local_shape_matches_numroc(self):
        d = ScaLAPACKDescriptor(m=10, n=7, mb=3, nb=2, prows=2, pcols=3)
        for pi in range(2):
            for pj in range(3):
                lm, ln = d.local_shape(pi, pj)
                assert lm == numroc(10, 3, pi, 0, 2)
                assert ln == numroc(7, 2, pj, 0, 3)

    def test_owner(self):
        d = ScaLAPACKDescriptor(m=8, n=8, mb=2, nb=2, prows=2, pcols=2)
        assert d.owner(0, 0) == (0, 0)
        assert d.owner(2, 0) == (1, 0)
        assert d.owner(4, 2) == (0, 1)

    def test_owner_bounds(self):
        d = ScaLAPACKDescriptor(m=4, n=4, mb=2, nb=2)
        with pytest.raises(LayoutError):
            d.owner(4, 0)

    def test_as_tuple_dtype(self):
        d = ScaLAPACKDescriptor(m=4, n=4, mb=2, nb=2)
        assert d.as_tuple()[0] == 1

    def test_validation(self):
        with pytest.raises(LayoutError):
            ScaLAPACKDescriptor(m=4, n=4, mb=0, nb=2)
        with pytest.raises(LayoutError):
            ScaLAPACKDescriptor(m=4, n=4, mb=2, nb=2, rsrc=5)


class TestBlockCyclic:
    def layout(self, m=10, n=8, mb=3, nb=2, pr=2, pc=2):
        return BlockCyclicLayout(m, n, mb, nb, ProcessorGrid2D(pr, pc))

    def test_block_counts(self):
        lay = self.layout()
        assert lay.mblocks == 4  # ceil(10/3)
        assert lay.nblocks == 4  # ceil(8/2)

    def test_edge_block_shape(self):
        lay = self.layout()
        assert lay.block_shape(3, 0) == (1, 2)  # last row block has 1 row
        assert lay.block_shape(0, 0) == (3, 2)

    def test_owner_cyclic(self):
        lay = self.layout()
        assert lay.owner_coords(0, 0) == (0, 0)
        assert lay.owner_coords(1, 0) == (1, 0)
        assert lay.owner_coords(2, 1) == (0, 1)

    def test_element_owner_consistent_with_block_owner(self):
        lay = self.layout()
        for ig in range(10):
            for jg in range(8):
                assert lay.element_owner(ig, jg) == lay.owner_rank(
                    ig // 3, jg // 2)

    def test_blocks_partition(self):
        lay = self.layout()
        seen = set()
        for r in range(4):
            for b in lay.blocks_of_rank(r):
                assert b not in seen
                seen.add(b)
        assert len(seen) == lay.mblocks * lay.nblocks

    def test_local_words_sum_to_matrix(self):
        lay = self.layout()
        assert sum(lay.local_words(r) for r in range(4)) == 80
        assert lay.words_per_rank().sum() == 80

    def test_scatter_gather_roundtrip(self, rng):
        lay = self.layout()
        m = Machine(4)
        a = rng.standard_normal((10, 8))
        lay.scatter_from(m, "A", a)
        assert np.allclose(lay.gather_to(m, "A"), a)
        assert m.stats.total_recv_words == 0  # initial layout is free

    def test_scatter_shape_check(self):
        lay = self.layout()
        with pytest.raises(LayoutError):
            lay.scatter_from(Machine(4), "A", np.zeros((3, 3)))

    def test_invalid_construction(self):
        with pytest.raises(LayoutError):
            BlockCyclicLayout(0, 4, 2, 2, ProcessorGrid2D(1, 1))
        with pytest.raises(LayoutError):
            BlockCyclicLayout(4, 4, 0, 2, ProcessorGrid2D(1, 1))


class TestCosta:
    def test_redistribute_roundtrip(self, rng):
        m = Machine(6)
        src = BlockCyclicLayout(12, 12, 3, 3, ProcessorGrid2D(2, 3))
        dst = BlockCyclicLayout(12, 12, 4, 2, ProcessorGrid2D(3, 2))
        a = rng.standard_normal((12, 12))
        src.scatter_from(m, "A", a)
        redistribute(m, "A", src, dst, dst_name="B")
        assert np.allclose(dst.gather_to(m, "B"), a)

    def test_volume_counted(self, rng):
        m = Machine(4)
        src = BlockCyclicLayout(8, 8, 2, 2, ProcessorGrid2D(2, 2))
        dst = BlockCyclicLayout(8, 8, 4, 4, ProcessorGrid2D(2, 2))
        a = rng.standard_normal((8, 8))
        src.scatter_from(m, "A", a)
        redistribute(m, "A", src, dst)
        expected = redistribution_volume(src, dst)
        assert np.allclose(m.stats.recv_words, expected)
        # Moving between different layouts must move something...
        assert m.stats.total_recv_words > 0
        # ... but never more than the whole matrix.
        assert m.stats.total_recv_words <= 64

    def test_counters_match_an_elementwise_oracle(self, rng):
        """Ragged tiles, unequal grids: an element moves iff its two
        owners differ, and every communicating (source, destination)
        pair exchanges exactly one message."""
        grids = [(1, 1), (2, 2), (2, 3), (3, 2), (1, 4), (6, 1)]
        for _ in range(25):
            m, n = (int(x) for x in rng.integers(5, 40, size=2))
            src, dst = (BlockCyclicLayout(
                m, n, int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                ProcessorGrid2D(*grids[int(rng.integers(len(grids)))]))
                for _ in range(2))
            machine = Machine(6)
            a = rng.standard_normal((m, n))
            src.scatter_from(machine, "A", a)
            redistribute(machine, "A", src, dst, dst_name="B")
            assert np.array_equal(dst.gather_to(machine, "B"), a)
            i, j = np.indices((m, n))
            owner = [(i // lay.mb % lay.grid.rows) * lay.grid.cols
                     + j // lay.nb % lay.grid.cols for lay in (src, dst)]
            moved = owner[0] != owner[1]
            pairs = np.unique(owner[0][moved] * 6 + owner[1][moved])
            stats = machine.stats
            for got, want in [
                    (stats.recv_words, np.bincount(owner[1][moved], minlength=6)),
                    (stats.recv_msgs, np.bincount(pairs % 6, minlength=6))]:
                assert np.array_equal(got, want)
            assert np.array_equal(redistribution_volume(src, dst),
                                  stats.recv_words[:max(src.grid.size,
                                                        dst.grid.size)])

    def test_same_layout_is_free(self, rng):
        src = BlockCyclicLayout(8, 8, 2, 2, ProcessorGrid2D(2, 2))
        vol = redistribution_volume(src, src)
        assert vol.sum() == 0

    def test_shape_mismatch(self):
        src = BlockCyclicLayout(8, 8, 2, 2, ProcessorGrid2D(2, 2))
        dst = BlockCyclicLayout(6, 8, 2, 2, ProcessorGrid2D(2, 2))
        with pytest.raises(LayoutError):
            redistribution_volume(src, dst)

    def test_cost_is_order_n2_over_p(self):
        """The paper's Section 7.4 argument: reshuffling costs O(N^2/P)
        per rank — asymptotically free against N^3/(P sqrt(M))."""
        n, p = 64, 16
        src = BlockCyclicLayout(n, n, 4, 4, ProcessorGrid2D(4, 4))
        dst = BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(4, 4))
        vol = redistribution_volume(src, dst)
        assert vol.max() <= 2.0 * n * n / p
