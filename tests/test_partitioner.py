import numpy as np
import pytest

from agglomg import partitioner as pt
from agglomg.mesh import LevelTopology, _induced_components, generate_mesh


def path_graph(n):
    src = np.repeat(np.arange(n), 2)[1:-1]
    dst = src.copy()
    dst[0::2] += 1
    dst[1::2] -= 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    order = np.argsort(src, kind="stable")
    return pt.WeightedGraph(indptr=indptr, indices=dst[order],
                            ewgt=np.ones(len(dst), dtype=np.int64),
                            vwgt=np.ones(n, dtype=np.int64))


def graph_from_mesh(dim, n, seed, jitter=0.3):
    mesh = generate_mesh(dim, n, extent=1.0, jitter=jitter, seed=seed)
    return pt.scale_weights(LevelTopology.from_mesh(mesh).dual)


def parts_connected(graph, part):
    for p in np.unique(part):
        members = np.flatnonzero(part == p)
        if _induced_components(graph.indptr, graph.indices, members).max() != 0:
            return False
    return True


def brute_force_min_cut(graph):
    """Exhaustive balanced-bipartition edge-cut minimum."""
    n = graph.n
    total = int(graph.vwgt.sum())
    (lo, _), (hi, _) = pt.balance_bounds([total / 2] * 2, int(graph.vwgt.max()))
    best = None
    for bits in range(1, 2 ** (n - 1)):
        side = np.array([(bits >> i) & 1 for i in range(n)], dtype=np.int64)
        w0 = int(graph.vwgt[side == 0].sum())
        if not (lo <= w0 <= hi and lo <= total - w0 <= hi):
            continue
        cut = pt.edge_cut(graph, side)
        if best is None or cut < best:
            best = cut
    return best


class TestScaleWeights:
    def test_equal_volumes_give_1000(self):
        g = graph_from_mesh(2, 4, seed=0, jitter=0.0)
        assert (g.vwgt == 1000).all()

    def test_ratio_one_to_two(self):
        from agglomg.mesh import DualGraph
        dual = DualGraph(indptr=np.array([0, 1, 2]), indices=np.array([1, 0]),
                         edge_weight=np.array([2.0, 2.0]),
                         vertex_weight=np.array([1.0, 2.0]),
                         edge_faces=np.ones(2, dtype=np.int64))
        g = pt.scale_weights(dual)
        assert g.vwgt.tolist() == [500, 1000]

    def test_sliver_clamps_to_one(self):
        from agglomg.mesh import DualGraph
        dual = DualGraph(indptr=np.array([0, 1, 2]), indices=np.array([1, 0]),
                         edge_weight=np.array([1.0, 1.0]),
                         vertex_weight=np.array([4e-4, 1.0]),
                         edge_faces=np.ones(2, dtype=np.int64))
        g = pt.scale_weights(dual)
        assert g.vwgt.tolist() == [1, 1000]


class TestPartitionKway:
    def test_k1_all_in_one(self):
        g = path_graph(6)
        p = pt.partition_kway(g, 1, seed=0)
        assert (p.part == 0).all()
        assert pt.edge_cut(g, p) == 0

    def test_k_equals_n_singletons(self):
        g = path_graph(5)
        p = pt.partition_kway(g, 5, seed=0)
        assert sorted(p.part.tolist()) == [0, 1, 2, 3, 4]
        assert pt.edge_cut(g, p) == 4  # total edge weight

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            pt.partition_kway(path_graph(3), 4)

    def test_path_graph_optimal(self):
        g = path_graph(4)
        p = pt.partition_kway(g, 2, seed=0)
        assert pt.edge_cut(g, p) == 1
        assert p.part[0] == p.part[1] and p.part[2] == p.part[3]

    @pytest.mark.parametrize("k", [2, 5, 12, 40])
    def test_exactly_k_nonempty_parts(self, k):
        g = graph_from_mesh(2, 8, seed=3)
        p = pt.partition_kway(g, k, seed=1)
        sizes = np.bincount(p.part, minlength=k)
        assert len(sizes) == k and (sizes > 0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_contiguous_flag(self, seed):
        g = graph_from_mesh(2, 12, seed=seed)
        p = pt.partition_kway(g, 17, contiguous=True, seed=seed)
        assert parts_connected(g, p.part)

    @pytest.mark.parametrize("seed", range(5))
    def test_contiguous_partition_balanced(self, seed):
        # contiguity repair moves whole fragments; the rebalance after it
        # must bring every part back near the mean weight
        g = graph_from_mesh(2, 32, seed=4)
        k = g.n // 24
        p = pt.partition_kway(g, k, contiguous=True, seed=seed)
        ratio = np.bincount(p.part, weights=g.vwgt, minlength=k) / (g.vwgt.sum() / k)
        assert 0.75 <= ratio.min() and ratio.max() <= 1.25, (ratio.min(), ratio.max())

    @pytest.mark.parametrize("n, k", [(4, 3), (8, 7)])
    def test_heavy_vertex_leaves_no_part_empty(self, n, k):
        # a vertex heavier than a bisection side's target used to leave that
        # side with fewer vertices than parts, so a part came out empty
        g = path_graph(n)
        g.vwgt[0] = 50
        p = pt.partition_kway(g, k, contiguous=True, seed=0)
        assert (np.bincount(p.part, minlength=k) > 0).all()
        assert parts_connected(g, p.part)

    def test_determinism(self):
        g = graph_from_mesh(2, 10, seed=8)
        a = pt.partition_kway(g, 9, contiguous=True, seed=5)
        b = pt.partition_kway(g, 9, contiguous=True, seed=5)
        assert np.array_equal(a.part, b.part)

    def test_refinement_never_increases_cut(self):
        g = graph_from_mesh(2, 8, seed=2)
        rng = np.random.Generator(np.random.Philox(3))
        part = rng.integers(0, 4, size=g.n)
        part[:4] = np.arange(4)  # keep all parts nonempty
        before = pt.edge_cut(g, part)
        pt._refine(g, part, np.full(4, g.vwgt.sum() / 4))
        after = pt.edge_cut(g, part)
        assert after <= before

    def test_small_graph_quality_vs_brute_force(self):
        worst = 0.0
        for seed in range(10):
            g = graph_from_mesh(2, 2, seed=seed)  # 8 vertices
            opt = brute_force_min_cut(g)
            got = pt.edge_cut(g, pt.partition_kway(g, 2, seed=seed))
            worst = max(worst, got / opt)
        assert worst <= 2.0


class TestEdgeCut:
    def test_single_part_zero(self):
        g = path_graph(5)
        assert pt.edge_cut(g, np.zeros(5, dtype=np.int64)) == 0

    def test_singletons_total_weight(self):
        g = path_graph(5)
        assert pt.edge_cut(g, np.arange(5)) == 4
