import hashlib

import numpy as np
import pytest

import reference_kernels as ref
from agglomg import partitioner as pt
from agglomg.mesh import LevelTopology, _induced_components, generate_mesh

from test_agglomerate import KERNEL_CASES, _kernel_case


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
        part = pt.partition_kway(g, 1, seed=0)
        assert (part == 0).all()
        assert pt.edge_cut(g, part) == 0

    def test_k_equals_n_singletons(self):
        g = path_graph(5)
        part = pt.partition_kway(g, 5, seed=0)
        assert sorted(part.tolist()) == [0, 1, 2, 3, 4]
        assert pt.edge_cut(g, part) == 4  # total edge weight

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            pt.partition_kway(path_graph(3), 4)

    def test_path_graph_optimal(self):
        g = path_graph(4)
        part = pt.partition_kway(g, 2, seed=0)
        assert pt.edge_cut(g, part) == 1
        assert part[0] == part[1] and part[2] == part[3]

    @pytest.mark.parametrize("k", [2, 5, 12, 40])
    def test_exactly_k_nonempty_parts(self, k):
        g = graph_from_mesh(2, 8, seed=3)
        part = pt.partition_kway(g, k, seed=1)
        sizes = np.bincount(part, minlength=k)
        assert len(sizes) == k and (sizes > 0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_contiguous_flag(self, seed):
        g = graph_from_mesh(2, 12, seed=seed)
        part = pt.partition_kway(g, 17, seed=seed)
        assert parts_connected(g, part)

    @pytest.mark.parametrize("seed", range(5))
    def test_contiguous_partition_balanced(self, seed):
        # contiguity repair moves whole fragments; the rebalance after it
        # must bring every part back near the mean weight
        g = graph_from_mesh(2, 32, seed=4)
        k = g.n // 24
        part = pt.partition_kway(g, k, seed=seed)
        ratio = np.bincount(part, weights=g.vwgt, minlength=k) / (g.vwgt.sum() / k)
        assert 0.75 <= ratio.min() and ratio.max() <= 1.25, (ratio.min(), ratio.max())

    @pytest.mark.parametrize("n, k", [(4, 3), (8, 7)])
    def test_heavy_vertex_leaves_no_part_empty(self, n, k):
        # a vertex heavier than a bisection side's target used to leave that
        # side with fewer vertices than parts, so a part came out empty
        g = path_graph(n)
        g.vwgt[0] = 50
        part = pt.partition_kway(g, k, seed=0)
        assert (np.bincount(part, minlength=k) > 0).all()
        assert parts_connected(g, part)

    def test_determinism(self):
        g = graph_from_mesh(2, 10, seed=8)
        a = pt.partition_kway(g, 9, seed=5)
        b = pt.partition_kway(g, 9, seed=5)
        assert np.array_equal(a, b)

    def test_refinement_never_increases_cut(self):
        g = graph_from_mesh(2, 8, seed=2)
        rng = np.random.Generator(np.random.Philox(3))
        part = rng.integers(0, 4, size=g.n)
        part[:4] = np.arange(4)  # keep all parts nonempty
        before = pt.edge_cut(g, part)
        pt._refine(g, part, np.full(4, g.vwgt.sum() / 4))
        after = pt.edge_cut(g, part)
        assert after <= before

    def test_region_grow_gives_unreached_vertex_to_lightest_part(self):
        # a 6-vertex path and an isolated vertex 6 that no seed names: no
        # frontier reaches it, so it goes to the lightest part at the end
        path = path_graph(6)
        g = pt.WeightedGraph(indptr=np.append(path.indptr, path.indptr[-1]),
                             indices=path.indices, ewgt=path.ewgt,
                             vwgt=np.array([6, 1, 1, 1, 1, 1, 1], dtype=np.int64))
        seeds = np.random.Generator(np.random.Philox(1)).choice(7, size=2, replace=False)
        assert 6 not in seeds
        part = pt._region_grow(g, 2, np.random.Generator(np.random.Philox(1)))
        assert (part >= 0).all()
        grown = np.bincount(part[:6], weights=g.vwgt[:6], minlength=2)
        assert grown[0] != grown[1]
        assert part[6] == np.argmin(grown)

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


# ---------------------------------------------------------------------------
# the sequential kernels against the numpy-scalar loops they replaced

def _reference_heavy_edge_matching(graph, order):
    """``_heavy_edge_matching`` as it was written on numpy arrays."""
    match = np.full(graph.n, -1, dtype=np.int64)
    indptr, indices, ewgt = graph.indptr, graph.indices, graph.ewgt
    for v in order:
        if match[v] >= 0:
            continue
        best = -1
        best_w = -1
        for idx in range(indptr[v], indptr[v + 1]):
            u = indices[idx]
            if match[u] >= 0 or u == v:
                continue
            w = ewgt[idx]
            if w > best_w or (w == best_w and u < best):
                best, best_w = u, w
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return match


def _reference_enforce_contiguity(graph, part, k):
    """``_enforce_contiguity`` as it was written on numpy arrays."""
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    for _ in range(4):
        changed = False
        same = part[src] == part[graph.indices]
        labels = pt._components(src[same], graph.indices[same], graph.n)
        grown = np.zeros(k, dtype=bool)
        for p in range(k):
            members = np.flatnonzero(part == p)
            own = (_induced_components(graph.indptr, graph.indices, members) if grown[p]
                   else pt._first_appearance(labels[members]))
            if own.size == 0 or own.max() == 0:
                continue
            comps = np.split(members[np.argsort(own, kind="stable")],
                             np.cumsum(np.bincount(own))[:-1])
            comps.sort(key=lambda c: (-int(graph.vwgt[c].sum()), int(c[0])))
            for frag in comps[1:]:
                conn = {}
                for v in frag:
                    for idx in range(graph.indptr[v], graph.indptr[v + 1]):
                        q = part[graph.indices[idx]]
                        if q != p:
                            conn[q] = conn.get(q, 0) + int(graph.ewgt[idx])
                if not conn:
                    continue
                target = max(sorted(conn), key=lambda q: conn[q])
                part[frag] = target
                grown[target] = True
                changed = True
        if not changed:
            return


def _reference_is_articulation(graph, part, v):
    """``_is_articulation`` as it was written: components of the whole part."""
    if (part[graph.indices[graph.indptr[v]:graph.indptr[v + 1]]] == part[v]).sum() <= 1:
        return False
    rest = np.flatnonzero(part == part[v])
    return _induced_components(graph.indptr, graph.indices, rest[rest != v]).max() > 0


def _kernel_graph(case):
    return pt.scale_weights(_kernel_case(case).dual)


def _ring_partition():
    """A 2D box cut into a disc (part 0), the ring around it (part 1, a part
    with a hole) and the rest (part 2)."""
    mesh = generate_mesh(2, 16, jitter=0.2, seed=9)
    r = np.linalg.norm(mesh.node_coords[mesh.elements].mean(axis=1) - 5.0, axis=1)
    part = np.where(r < 2.0, 0, np.where(r < 3.0, 1, 2)).astype(np.int64)
    return pt.scale_weights(LevelTopology.from_mesh(mesh).dual), part


class TestSequentialKernels:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_matching_matches_numpy_loop(self, case, seed):
        g = _kernel_graph(case)
        order = np.random.default_rng(seed).permutation(g.n)
        got = pt._heavy_edge_matching(g, order)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_heavy_edge_matching(g, order))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_contiguity_matches_numpy_loop(self, case, seed):
        # scattered labels: fragments move into parts still to be visited,
        # which are then recomputed
        g = _kernel_graph(case)
        k = 12
        start = np.random.default_rng(seed).integers(0, k, g.n)
        got, want = start.copy(), start.copy()
        pt._enforce_contiguity(g, got, k)
        _reference_enforce_contiguity(g, want, k)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, start)

    def test_articulation_matches_components_on_a_ring(self):
        g, part = _ring_partition()
        sizes = np.bincount(part)
        csr = (memoryview(g.indptr), memoryview(g.indices), memoryview(part))
        got = [pt._is_articulation(*csr, v, int(sizes[part[v]])) for v in range(g.n)]
        assert got == [_reference_is_articulation(g, part, v) for v in range(g.n)]
        # the ring has cut vertices and vertices it can lose
        ring = part == 1
        assert any(np.array(got)[ring]) and not all(np.array(got)[ring])

    @pytest.mark.parametrize("kind", ["kway", "scattered"])
    @pytest.mark.parametrize("case", ["2d-level0", "2d-level1", "2d-two-boxes", "3d-level0"])
    def test_articulation_matches_components(self, case, kind):
        g = _kernel_graph(case)
        if kind == "kway":
            part = pt.partition_kway(g, max(2, g.n // 24), seed=1)
        else:
            part = np.random.default_rng(0).integers(0, 6, g.n)
        sizes = np.bincount(part)
        csr = (memoryview(g.indptr), memoryview(g.indices), memoryview(part))
        got = [pt._is_articulation(*csr, v, int(sizes[part[v]])) for v in range(g.n)]
        assert got == [_reference_is_articulation(g, part, v) for v in range(g.n)]
        assert any(got) and not all(got)


def test_mid_size_contiguous_partition_pin():
    # k = 341 on 8,192 triangles, as sizebased's first level at that size,
    # where the golden meshes have k <= 21: every level runs the flow pass,
    # and the keep_connected walk tests articulation points. The hash was
    # recorded when the balance became a flow pass.
    dual = LevelTopology.from_mesh(generate_mesh(2, 64, jitter=0.2, seed=11)).dual
    part = pt.partition_kway(pt.scale_weights(dual), 341, seed=5)
    assert hashlib.sha256(part.tobytes()).hexdigest()[:16] == "c7fb9b0d456827c2"


# the mean edge cut over seeds 1-5 before the balance became a flow pass
CUT_BEFORE_FLOW = {(2, 64, 11, 341): 1463359.6, (3, 12, 1, 61): 1441135.2}


@pytest.mark.parametrize("dim, n, mesh_seed, k", list(CUT_BEFORE_FLOW))
def test_mean_cut_no_higher_than_before_the_flow_pass(dim, n, mesh_seed, k):
    g = graph_from_mesh(dim, n, mesh_seed, jitter=0.2)
    cuts = [pt.edge_cut(g, pt.partition_kway(g, k, seed=s)) for s in range(1, 6)]
    assert np.mean(cuts) <= CUT_BEFORE_FLOW[dim, n, mesh_seed, k]


@pytest.mark.parametrize("dim, n, k", [(2, 64, 341), (3, 12, 61)])
def test_refine_makes_the_moves_of_the_full_queue(dim, n, k, monkeypatch):
    # every level's refinement inside partition_kway, against the version
    # that queued every boundary move and stopped at the first gain <= 0
    calls = []
    refine = pt._refine

    def both(graph, part, targets):
        before, want = part.copy(), part.copy()
        ref.refine(graph, want, targets)
        refine(graph, part, targets)
        calls.append((np.array_equal(part, want), not np.array_equal(part, before)))

    monkeypatch.setattr(pt, "_refine", both)
    pt.partition_kway(graph_from_mesh(dim, n, 1, jitter=0.2), k, seed=1)
    assert len(calls) >= 3 and all(same for same, _ in calls)
    assert all(moved for _, moved in calls)
