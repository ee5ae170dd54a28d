import numpy as np
import pytest

from agglomg import agglomerate as ag
from agglomg.agglomerate import (ALGORITHMS, Agglomeration, CoarsenConfig,
                                 agglomerate_stats, aspect_objective, cleanup,
                                 coarsen)
from agglomg.hierarchy import StopRule, build_hierarchy, level_schedule
from agglomg.mesh import LevelTopology, Mesh, _induced_components, generate_mesh


def assert_valid(topo, agg):
    """Total, contiguous, densely numbered."""
    assert agg.is_total()
    ids = np.unique(agg.element_to_agg)
    assert ids[0] == 0 and ids[-1] == len(ids) - 1
    for group in agg.groups():
        assert _induced_components(topo.dual.indptr, topo.dual.indices, group).max() == 0


def run_algorithm(topo, alg, seed=0, s=8):
    cfg = CoarsenConfig(alg, desired_size=s if alg in ag.SIZE_BASED else None,
                        seed=seed)
    return coarsen(topo, cfg)


def swept_weights(topo, kraus=False):
    """The raw jones (or kraus) assignment with the weight arrays the
    sweeps consumed: (assign, face weights, edge weights or None)."""
    face_w = np.where(topo.faces.interior, 0, -1).astype(np.int64)
    assign = np.full(topo.n_elements, -1, dtype=np.int64)
    edge_w, next_id = None, 0
    if kraus and topo.dim == 3:
        edge_w = np.zeros(topo.edges.n_edges, dtype=np.int64)
        next_id = ag._edge_sweep(topo, edge_w, face_w, assign, next_id)
    ag._face_sweep(topo, face_w, assign, next_id, restrict_g=kraus)
    return assign, face_w, edge_w


class TestConfig:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            CoarsenConfig("metis").validate()

    def test_size_required(self):
        with pytest.raises(ValueError):
            CoarsenConfig("greedy", desired_size=1).validate()
        CoarsenConfig("greedy", desired_size=2).validate()
        CoarsenConfig("jones").validate()  # size not needed


class TestJones:
    def test_two_triangles_single_agglomerate(self, tri_pair):
        # the lone interior face seeds an agglomerate holding both elements
        topo = LevelTopology.from_mesh(tri_pair)
        agg = run_algorithm(topo, "jones")
        assert agg.n_agglomerates == 1
        assert agg.element_to_agg.tolist() == [0, 0]

    def test_all_face_weights_consumed(self, topo2d_jittered):
        _, face_w, _ = swept_weights(topo2d_jittered)
        assert (face_w == -1).all()

    def test_deterministic(self, topo2d_jittered):
        a = run_algorithm(topo2d_jittered, "jones")
        b = run_algorithm(topo2d_jittered, "jones")
        assert np.array_equal(a.element_to_agg, b.element_to_agg)

    def test_monotone_face_consumption(self, topo2d_small):
        # every growth step consumes at least the seed face
        assign, face_w, _ = swept_weights(topo2d_small)
        assert (face_w == -1).all()
        assert assign.max() >= 0


class TestKraus:
    def test_single_tet(self, tet_single):
        topo = LevelTopology.from_mesh(tet_single)
        agg = run_algorithm(topo, "kraus")
        assert agg.n_agglomerates == 1
        _, face_w, edge_w = swept_weights(topo, kraus=True)
        assert (edge_w == -1).all()
        assert (face_w == -1).all()

    def test_2d_two_triangles(self, tri_pair):
        topo = LevelTopology.from_mesh(tri_pair)
        agg = run_algorithm(topo, "kraus")
        assert agg.n_agglomerates == 1

    def test_3d_termination(self, topo3d_small):
        _, face_w, edge_w = swept_weights(topo3d_small, kraus=True)
        assert (edge_w == -1).all()
        assert (face_w == -1).all()

    def test_3d_average_size_reference(self, topo3d_small):
        # trend reference: edge-driven growth yields larger agglomerates
        # than jones in 3D (about 9.5 vs 4.9 on the reported mesh)
        k = agglomerate_stats(topo3d_small, run_algorithm(topo3d_small, "kraus"))
        j = agglomerate_stats(topo3d_small, run_algorithm(topo3d_small, "jones"))
        assert k.average_size > j.average_size


class TestFaceAdjacency:
    def test_3d_level_without_edgeset(self):
        # a greedy coarse level carries no EdgeSet, so faces are adjacent
        # when they share at least two coarse nodes
        mesh = generate_mesh(3, 5, jitter=0.15, seed=3)
        hier = build_hierarchy(mesh, CoarsenConfig("greedy", desired_size=8, seed=1),
                               schedule=level_schedule(3, top=8),
                               stop=StopRule(max_levels=2))
        topo = hier.levels[0].topology
        assert topo.dim == 3 and topo.edges is None
        faces = topo.faces
        nodes = {int(f): set(faces.face_nodes(f).tolist())
                 for f in np.flatnonzero(faces.interior)}
        want = {(f, g) for f in nodes for g in nodes
                if f != g and len(nodes[f] & nodes[g]) >= 2}
        indptr, ids = ag._face_adjacency(topo)
        rows = [ids[indptr[f]:indptr[f + 1]] for f in range(faces.n_faces)]
        assert all((np.diff(row) > 0).all() for row in rows)
        got = {(f, int(g)) for f, row in enumerate(rows) for g in row}
        assert len(want) > 100 and got == want
        assert_valid(topo, run_algorithm(topo, "jones"))


class TestRgb:
    def test_single_element(self, tri_single):
        topo = LevelTopology.from_mesh(tri_single)
        agg = run_algorithm(topo, "rgb", seed=0)
        assert agg.n_agglomerates == 1

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_black_seed_claims_neighbourhood(self, topo2d_small, seed):
        agg = Agglomeration(ag._rgb(topo2d_small, seed))
        # recompute the black picks: every agglomerate's seed element plus
        # all its dual neighbours share the agglomerate id
        assign = agg.element_to_agg
        rng = np.random.Generator(np.random.Philox(seed))
        order = rng.permutation(topo2d_small.n_elements)
        state = np.zeros(topo2d_small.n_elements, dtype=int)
        for e in order:
            if state[e] != 0:
                continue
            nbrs = topo2d_small.dual.neighbors(e)
            assert (assign[nbrs] == assign[e]).all()
            state[e] = 1
            state[nbrs] = 1
            for r in nbrs:
                state[topo2d_small.dual.neighbors(r)] = np.where(
                    state[topo2d_small.dual.neighbors(r)] == 0, 3,
                    state[topo2d_small.dual.neighbors(r)])

    def test_determinism(self, topo3d_small):
        a = run_algorithm(topo3d_small, "rgb", seed=9)
        b = run_algorithm(topo3d_small, "rgb", seed=9)
        assert np.array_equal(a.element_to_agg, b.element_to_agg)


class TestNode:
    def test_single_triangle(self, tri_single):
        topo = LevelTopology.from_mesh(tri_single)
        agg = run_algorithm(topo, "node", seed=0)
        assert agg.n_agglomerates == 1

    def test_interior_node_valence_six(self, topo2d_small):
        # on the structured mesh every interior node touches 6 triangles,
        # so the first selected node claims exactly 6 elements
        agg = Agglomeration(ag._node(topo2d_small, 3))
        assert int((agg.element_to_agg == 0).sum()) == 6

    def test_determinism(self, topo2d_jittered):
        a = run_algorithm(topo2d_jittered, "node", seed=11)
        b = run_algorithm(topo2d_jittered, "node", seed=11)
        assert np.array_equal(a.element_to_agg, b.element_to_agg)


class TestGreedy:
    def test_size_one_rejected(self, topo2d_small):
        with pytest.raises(ValueError):
            run_algorithm(topo2d_small, "greedy", seed=0, s=1)

    def test_size_covers_mesh(self, tri_pair):
        topo = LevelTopology.from_mesh(tri_pair)
        agg = run_algorithm(topo, "greedy", seed=0, s=10)
        assert agg.n_agglomerates == 1

    @pytest.mark.parametrize("s", [2, 5, 8])
    def test_sizes_capped_before_cleanup(self, topo2d_jittered, s):
        agg = Agglomeration(ag._greedy(topo2d_jittered, s, 7))
        assert agg.sizes.max() <= s


class TestSizebased:
    def test_exact_part_count_before_cleanup(self, topo2d_jittered):
        agg = Agglomeration(ag._sizebased(topo2d_jittered, 8, 1))
        assert agg.n_agglomerates == topo2d_jittered.n_elements // 8

    def test_kway_vs_recursive_paths(self):
        # n = 740-ish behaviour: k > 8 goes k-way, k <= 8 recursive
        assert 740 // 24 == 30  # k-way path
        assert 32 // 8 == 4     # recursive path
        topo = LevelTopology.from_mesh(generate_mesh(2, 4, jitter=0.1, seed=0))
        agg = Agglomeration(ag._sizebased(topo, 8, 0))  # k = 4
        assert agg.n_agglomerates == 4

    def test_too_large_size_rejected(self, tri_pair):
        topo = LevelTopology.from_mesh(tri_pair)
        with pytest.raises(ValueError, match="reduce"):
            run_algorithm(topo, "sizebased", seed=0, s=10)

    def test_average_size_tracks_target(self, topo2d_jittered):
        agg = run_algorithm(topo2d_jittered, "sizebased", seed=3, s=8)
        stats = agglomerate_stats(topo2d_jittered, agg)
        assert abs(stats.average_size - 8) / 8 <= 0.1


class TestAspect:
    def test_objective_never_increases(self, topo2d_small):
        greedy = run_algorithm(topo2d_small, "greedy", seed=5, s=8)
        start = aspect_objective(topo2d_small, greedy.element_to_agg)
        refined = Agglomeration(ag._aspect(topo2d_small, 8, 5))
        end = aspect_objective(topo2d_small, refined.element_to_agg)
        assert end <= start + 1e-12

    def test_single_agglomerate_unchanged(self, tri_pair):
        topo = LevelTopology.from_mesh(tri_pair)
        assign = np.zeros(2, dtype=np.int64)
        ag._aspect_refine(topo, assign, 8)
        assert assign.tolist() == [0, 0]

    def test_sizes_stay_in_band(self, topo2d_jittered):
        s = 8
        agg = Agglomeration(ag._aspect(topo2d_jittered, s, 2))
        sizes = agg.sizes
        # moves respect the band; cleanup-born outliers from the greedy
        # start may sit below it, but nothing exceeds the ceiling
        assert sizes.max() <= 2 * s


def strip_path():
    """A strip of 10 triangles whose dual graph is a path, and that path."""
    nb, nt = 6, 6
    coords = np.array([[float(i), 0.0] for i in range(nb)]
                      + [[float(i), 1.0] for i in range(nt)])
    elems = []
    for i in range(5):
        elems.append([i, i + 1, 6 + i + 1])        # lower triangle
        elems.append([i, 6 + i + 1, 6 + i])        # upper triangle
    strip = Mesh(2, coords, np.array(elems), np.zeros(10, dtype=np.int64))
    topo = LevelTopology.from_mesh(strip)
    degrees = np.diff(topo.dual.indptr)
    assert degrees.max() == 2 and (degrees == 1).sum() == 2
    # walk the dual path from one endpoint
    path = [int(np.flatnonzero(degrees == 1)[0])]
    while len(path) < 10:
        nxt = [int(v) for v in topo.dual.neighbors(path[-1]) if v not in path]
        path.append(nxt[0])
    return topo, path


class TestCleanup:
    def test_unused_attaches_to_smaller_on_tie(self):
        # the middle element of the strip is left unused with one shared
        # face to a 4-element agglomerate and one to a 5-element one: the
        # tie breaks small
        topo, path = strip_path()
        assign = np.full(10, -1, dtype=np.int64)
        assign[path[:4]] = 0
        assign[path[5:]] = 1
        fixed, report = cleanup(topo, Agglomeration(assign))
        assert report.unused_attached == 1
        assert fixed.element_to_agg[path[4]] == fixed.element_to_agg[path[3]]

    def test_split_fragment_joins_smaller_on_tie(self):
        # agglomerate 2 holds the strip's last two elements and a stray
        # fragment between agglomerate 0 (4 elements, lower id) and
        # agglomerate 1 (3 elements), one shared face each: the tie breaks
        # small, not low
        topo, path = strip_path()
        assign = np.empty(10, dtype=np.int64)
        assign[path[:4]] = 0
        assign[path[4]] = 2
        assign[path[5:8]] = 1
        assign[path[8:]] = 2
        fixed, report = cleanup(topo, Agglomeration(assign))
        assert report.disconnected_split == 1
        assert fixed.element_to_agg[path[4]] == fixed.element_to_agg[path[5]]

    def test_enclave_absorbed_in_rounds(self):
        mesh = generate_mesh(2, 4, extent=1.0)
        topo = LevelTopology.from_mesh(mesh)
        assign = np.full(topo.n_elements, -1, dtype=np.int64)
        assign[0] = 0
        fixed, report = cleanup(topo, Agglomeration(assign))
        assert_valid(topo, fixed)
        assert report.unused_attached > 0
        assert report.isolated_resolved > 0  # needed several frontier rounds

    def test_node_touching_pair_split(self):
        # 2x1 cells: triangles 0,1 in cell 0 and 2,3 in cell 1; triangles
        # 0 and 3 touch only at a node, so the agglomerate {0, 3} splits
        mesh = generate_mesh(2, 2, extent=1.0)
        topo = LevelTopology.from_mesh(mesh)
        d = topo.dual
        for a in range(topo.n_elements):
            for b in range(a + 1, topo.n_elements):
                if b not in d.neighbors(a):
                    share = set(mesh.elements[a]) & set(mesh.elements[b])
                    if len(share) == 1:
                        assign = np.full(topo.n_elements, 1, dtype=np.int64)
                        assign[[a, b]] = 0
                        fixed, report = cleanup(topo, Agglomeration(assign))
                        assert report.disconnected_split >= 1
                        assert_valid(topo, fixed)
                        return
        pytest.skip("no node-touching pair found")

    def test_enclosed_merged(self, topo2d_small):
        # one interior element surrounded by a single huge agglomerate
        n = topo2d_small.n_elements
        interior = np.flatnonzero(topo2d_small.elem_boundary_area == 0)
        assign = np.zeros(n, dtype=np.int64)
        assign[interior[0]] = 1
        # make ids dense with the enclosed one second
        assign = np.where(assign == 1, 1, 0)
        fixed, report = cleanup(topo2d_small, Agglomeration(assign))
        assert report.enclosed_merged == 1
        assert fixed.n_agglomerates == 1

    def test_idempotent_on_clean_input(self, topo2d_jittered):
        agg = run_algorithm(topo2d_jittered, "greedy", seed=3, s=8)
        again, report = cleanup(topo2d_jittered, agg)
        assert np.array_equal(again.element_to_agg, agg.element_to_agg)
        assert (report.unused_attached, report.isolated_resolved,
                report.disconnected_split, report.enclosed_merged) == (0, 0, 0, 0)


class TestStats:
    def test_average_size(self):
        mesh = generate_mesh(2, 2, extent=1.0)  # 8 triangles
        topo = LevelTopology.from_mesh(mesh)
        agg = Agglomeration(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
        stats = agglomerate_stats(topo, agg)
        assert stats.average_size == pytest.approx(4.0)

    def test_single_agglomerate_edge_cut_zero(self, topo2d_small):
        agg = Agglomeration(np.zeros(topo2d_small.n_elements, dtype=np.int64))
        assert agglomerate_stats(topo2d_small, agg).edge_cut == 0


class TestAllAlgorithms:
    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_validity_2d(self, topo2d_jittered, alg, seed):
        agg = run_algorithm(topo2d_jittered, alg, seed=seed)
        assert_valid(topo2d_jittered, agg)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_validity_3d(self, topo3d_small, alg):
        agg = run_algorithm(topo3d_small, alg, seed=1)
        assert_valid(topo3d_small, agg)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_determinism(self, topo2d_jittered, alg):
        a = run_algorithm(topo2d_jittered, alg, seed=42)
        b = run_algorithm(topo2d_jittered, alg, seed=42)
        assert np.array_equal(a.element_to_agg, b.element_to_agg)
