"""Unit tests for data layouts (descriptors, block-cyclic, COSTA)."""

import numpy as np
import pytest

from repro.layouts import (
    BlockCyclicLayout,
    ScaLAPACKDescriptor,
    global_to_local,
    local_to_global,
    numroc,
    conversion_words,
    redistribute,
)
from repro.layouts.block_cyclic import discard_matrix, discard_work
from repro.machine import LayoutError, Machine, ProcessorGrid2D
from oracle import redistribution_volume


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
        machine = Machine(4)
        lay.scatter_from(machine, "A", np.zeros((10, 8)))

        def shape(bi, bj):
            return machine.store(lay.owner_rank(bi, bj)).get(
                ("A", bi, bj)).shape

        assert shape(3, 0) == (1, 2)  # last row block has 1 row
        assert shape(0, 0) == (3, 2)

    def test_owner_cyclic(self):
        lay = self.layout()
        assert lay.owner_coords(0, 0) == (0, 0)
        assert lay.owner_coords(1, 0) == (1, 0)
        assert lay.owner_coords(2, 1) == (0, 1)

    def test_element_owner_consistent_with_block_owner(self):
        """The owner of an element's block is the process ScaLAPACK's
        index map gives its row and its column."""
        lay = self.layout()
        for ig in range(10):
            for jg in range(8):
                assert lay.owner_coords(ig // 3, jg // 2) == (
                    global_to_local(ig, 3, 2)[0], global_to_local(jg, 2, 2)[0])

    def test_local_shape_matches_numroc(self, rng):
        """The tiles a rank holds after a scatter span NUMROC rows and
        NUMROC columns."""
        lay = self.layout(m=10, n=7, mb=3, nb=2, pr=2, pc=3)
        machine = Machine(6)
        lay.scatter_from(machine, "A", rng.standard_normal((10, 7)))
        for rank in range(6):
            pi, pj = lay.grid.coords(rank)
            shapes = {(bi, bj): machine.store(rank).get(("A", bi, bj)).shape
                      for bi, bj in lay.blocks_of_rank(rank)}
            rows = sum(shape[0] for (bi, bj), shape in shapes.items()
                       if bj == pj)
            cols = sum(shape[1] for (bi, bj), shape in shapes.items()
                       if bi == pi)
            assert (rows, cols) == (numroc(10, 3, pi, 0, 2),
                                    numroc(7, 2, pj, 0, 3))

    def test_owner_bounds(self):
        lay = self.layout()
        with pytest.raises(LayoutError):
            lay.owner_coords(4, 0)
        with pytest.raises(LayoutError):
            lay.owner_rank(0, -1)

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

    def test_same_layout_is_free(self, rng):
        src = BlockCyclicLayout(8, 8, 2, 2, ProcessorGrid2D(2, 2))
        vol = redistribution_volume(src, src)
        assert vol.sum() == 0

    def test_shape_mismatch(self):
        src = BlockCyclicLayout(8, 8, 2, 2, ProcessorGrid2D(2, 2))
        dst = BlockCyclicLayout(6, 8, 2, 2, ProcessorGrid2D(2, 2))
        with pytest.raises(LayoutError):
            conversion_words(src, dst)

    def test_cost_is_order_n2_over_p(self):
        """The paper's Section 7.4 argument: reshuffling costs O(N^2/P)
        per rank — asymptotically free against N^3/(P sqrt(M))."""
        n, p = 64, 16
        src = BlockCyclicLayout(n, n, 4, 4, ProcessorGrid2D(4, 4))
        dst = BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(4, 4))
        vol = redistribution_volume(src, dst)
        assert vol.max() <= 2.0 * n * n / p


def _discard_three_passes(machine, match):
    """The store sweep as it was: collect the tuple keys, then the
    doomed first elements, then discard."""
    for store in machine.stores:
        tiles = [key for key in store.keys() if isinstance(key, tuple) and key]
        doomed = {first for first in {key[0] for key in tiles} if match(first)}
        if doomed:
            store.discard(*[key for key in tiles if key[0] in doomed])


class TestDiscardSweep:
    """``discard_work`` / ``discard_matrix`` walk each store once and
    leave what the three-pass sweep left: keys (in order), words and
    peaks, on generated stores."""

    FIRSTS = ["X", "Y", 3, ("work", "P"), ("work", "a10"), ("other", 1)]

    def _stores(self, seed):
        rng = np.random.default_rng(seed)
        machine = Machine(4)
        for store in machine.stores:
            keys = {(self.FIRSTS[rng.integers(len(self.FIRSTS))],
                     *rng.integers(0, 5, rng.integers(0, 3)).tolist())
                    for _ in range(rng.integers(0, 40))}
            keys |= {"plain", (), 7} if rng.random() < 0.5 else set()
            store.put_many([(key, np.zeros(rng.integers(1, 9)))
                            for key in sorted(keys, key=repr)])
            store.discard(*list(store.keys())[::3])
        return machine

    @staticmethod
    def _state(machine):
        return [(list(store.keys()), store.words, store.peak_words,
                 store.step_peak_words) for store in machine.stores]

    @pytest.mark.parametrize("seed", range(12))
    def test_leaves_what_three_passes_left(self, seed):
        sweeps = [(lambda m: discard_work(m, "Y", 3),
                   lambda f: f in ("Y", 3) or (isinstance(f, tuple)
                                               and f[:1] == ("work",))),
                  (lambda m: discard_matrix(m, "X"), lambda f: f == "X")]
        for sweep, match in sweeps:
            got, want = self._stores(seed), self._stores(seed)
            sweep(got)
            _discard_three_passes(want, match)
            assert self._state(got) == self._state(want)
