import functools
import heapq
from collections import deque

import numpy as np
import pytest

from agglomg import agglomerate as ag
from agglomg.agglomerate import (ALGORITHMS, Agglomeration, CoarsenConfig,
                                 agglomerate_stats, cleanup, coarsen)
from agglomg.hierarchy import StopRule, build_hierarchy, level_schedule
from agglomg.mesh import LevelTopology, Mesh, _components, generate_mesh

from invariants import check_agglomeration


def _row(indptr, ids, i):
    return ids[indptr[i]:indptr[i + 1]]


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
    adj, elem_faces = ag._face_adjacency(topo), ag._element_faces(topo)
    if kraus and topo.dim == 3:
        edge_w = np.zeros(topo.edges.n_edges, dtype=np.int64)
        next_id = ag._edge_sweep(topo, adj, elem_faces, edge_w, face_w, assign, next_id)
    ag._face_sweep(topo, adj, elem_faces, face_w, assign, next_id, restrict_g=kraus)
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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            CoarsenConfig("rgb", seed=-5).validate()
        CoarsenConfig("rgb", seed=2 ** 64 - 1).validate()

    @pytest.mark.parametrize("alg,size,seed,field", [
        ("greedy", 6.5, 1, "desired_size"), ("sizebased", 6.5, 1, "desired_size"),
        ("aspect", 6.5, 1, "desired_size"), ("greedy", True, 1, "desired_size"),
        ("jones", 8.0, 1, "desired_size"), ("greedy", 8, 2.5, "seed"),
        ("rgb", None, True, "seed"), ("node", None, "1", "seed")])
    def test_fields_must_be_integers(self, alg, size, seed, field):
        # desired_size=6.5 used to coarsen with greedy and aspect, while
        # sizebased raised a bare TypeError naming no input
        topo = LevelTopology.from_mesh(generate_mesh(2, 8, jitter=0.2, seed=1))
        with pytest.raises(ValueError, match=rf"CoarsenConfig\.{field} must be an integer"):
            coarsen(topo, CoarsenConfig(alg, desired_size=size, seed=seed))

    def test_build_hierarchy_names_a_float_seed(self):
        # it used to raise a TypeError from the per-level seed derivation
        with pytest.raises(ValueError, match=r"CoarsenConfig\.seed must be an integer, got 2\.5"):
            build_hierarchy(generate_mesh(2, 8, jitter=0.2, seed=1),
                            CoarsenConfig("greedy", seed=2.5))

    def test_numpy_integers_and_no_size_accepted(self):
        CoarsenConfig("greedy", desired_size=np.int64(6), seed=np.uint64(3)).validate()
        CoarsenConfig("jones", desired_size=None, seed=np.int32(1)).validate()


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
        nodes = {int(f): set(_row(faces.node_indptr, faces.node_ids, f).tolist())
                 for f in np.flatnonzero(faces.interior)}
        want = {(f, g) for f in nodes for g in nodes
                if f != g and len(nodes[f] & nodes[g]) >= 2}
        indptr, ids = ag._face_adjacency(topo)
        rows = [ids[indptr[f]:indptr[f + 1]] for f in range(faces.n_faces)]
        assert all((np.diff(row) > 0).all() for row in rows)
        got = {(f, int(g)) for f, row in enumerate(rows) for g in row}
        assert len(want) > 100 and got == want
        check_agglomeration(topo, run_algorithm(topo, "jones"))


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
        dual = topo2d_small.dual
        rng = np.random.Generator(np.random.Philox(seed))
        order = rng.permutation(topo2d_small.n_elements)
        state = np.zeros(topo2d_small.n_elements, dtype=int)
        for e in order:
            if state[e] != 0:
                continue
            nbrs = _row(dual.indptr, dual.indices, e)
            assert (assign[nbrs] == assign[e]).all()
            state[e] = 1
            state[nbrs] = 1
            for r in nbrs:
                ring = _row(dual.indptr, dual.indices, r)
                state[ring] = np.where(state[ring] == 0, 3, state[ring])

    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("level", ["2d", "3d", "3d-coarse"])
    def test_grey_fringe_left_to_cleanup(self, topo2d_small, topo3d_small, level, seed):
        # rgb leaves only its grey fringe unassigned: each grey borders a
        # red, so cleanup attaches every one in its first frontier round
        topo = {"2d": topo2d_small, "3d": topo3d_small}.get(level)
        if topo is None:  # a coarse level, where a dual edge can stand for two faces
            topo = build_hierarchy(generate_mesh(3, 5, jitter=0.2, seed=2),
                                   CoarsenConfig("node", seed=2),
                                   stop=StopRule(max_levels=2)).levels[0].topology
            assert topo.dual.edge_faces.max() == 2
        raw = ag._rgb(topo, seed)
        grey = np.flatnonzero(raw < 0)
        assert len(grey) > 0
        dual = topo.dual
        assert all((raw[_row(dual.indptr, dual.indices, e)] >= 0).any() for e in grey)
        fixed, report = cleanup(topo, Agglomeration(raw))
        assert (report.unused_attached, report.isolated_resolved) == (len(grey), 0)
        agg = coarsen(topo, CoarsenConfig("rgb", seed=seed))
        assert agg.is_total()
        assert np.array_equal(agg.element_to_agg, fixed.element_to_agg)
        check_agglomeration(topo, agg)

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
        assert np.bincount(ag._greedy(topo2d_jittered, s, 7)).max() <= s


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

    def test_size_above_level_gives_one_agglomerate(self, tri_pair):
        topo = LevelTopology.from_mesh(tri_pair)
        agg = run_algorithm(topo, "sizebased", seed=0, s=10)
        assert agg.element_to_agg.tolist() == [0, 0]

    def test_average_size_tracks_target(self, topo2d_jittered):
        agg = run_algorithm(topo2d_jittered, "sizebased", seed=3, s=8)
        stats = agglomerate_stats(topo2d_jittered, agg)
        assert abs(stats.average_size - 8) / 8 <= 0.1


class TestAspect:
    def test_objective_never_increases(self, topo2d_small):
        greedy = run_algorithm(topo2d_small, "greedy", seed=5, s=8)
        def objective(assign):  # sum over agglomerates of surface^2 / volume
            surf, vol = ag._surface_volume(topo2d_small, assign)
            return float((surf * surf / vol).sum())

        start = objective(greedy.element_to_agg)
        refined = Agglomeration(ag._aspect(topo2d_small, 8, 5))
        end = objective(refined.element_to_agg)
        assert end <= start + 1e-12

    def test_single_agglomerate_unchanged(self, tri_pair):
        topo = LevelTopology.from_mesh(tri_pair)
        assign = np.zeros(2, dtype=np.int64)
        ag._aspect_refine(topo, assign, 8)
        assert assign.tolist() == [0, 0]

    def test_sizes_stay_in_band(self, topo2d_jittered):
        s = 8
        sizes = np.bincount(ag._aspect(topo2d_jittered, s, 2))
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
        nxt = [int(v) for v in _row(topo.dual.indptr, topo.dual.indices, path[-1])
               if v not in path]
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
        check_agglomeration(topo, fixed)
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
                if b not in _row(d.indptr, d.indices, a):
                    share = set(mesh.elements[a]) & set(mesh.elements[b])
                    if len(share) == 1:
                        assign = np.full(topo.n_elements, 1, dtype=np.int64)
                        assign[[a, b]] = 0
                        fixed, report = cleanup(topo, Agglomeration(assign))
                        assert report.disconnected_split >= 1
                        check_agglomeration(topo, fixed)
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

    def test_nested_enclosures_merge_in_two_rounds(self, monkeypatch):
        # square rings of cells on an 8x8 box: a 2x2 core inside a ring
        # inside an agglomerate along the boundary. The ring has two
        # neighbours until the core has merged into it, so the merge takes
        # two rounds and a third finds nothing left to merge
        mesh = generate_mesh(2, 8, extent=1.0)
        topo = LevelTopology.from_mesh(mesh)
        cell = np.floor(mesh.node_coords[mesh.elements].mean(axis=1) * 8)
        ring = np.abs(cell - 3.5).max(axis=1).astype(np.int64)  # 0 at the core
        assign = 2 - np.minimum(ring, 2)  # core 2, ring 1, outside 0
        rounds = []
        unique_pairs = ag._unique_pairs
        monkeypatch.setattr(ag, "_unique_pairs",
                            lambda *a: rounds.append(1) or unique_pairs(*a))
        merged = assign.copy()
        assert ag._merge_enclosed(topo, merged) == 2
        assert len(rounds) == 3
        assert (merged == 0).all()
        monkeypatch.undo()
        fixed, report = cleanup(topo, Agglomeration(assign))
        assert (report.disconnected_split, report.enclosed_merged) == (0, 2)
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
        check_agglomeration(topo2d_jittered, agg)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_validity_3d(self, topo3d_small, alg):
        agg = run_algorithm(topo3d_small, alg, seed=1)
        check_agglomeration(topo3d_small, agg)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_determinism(self, topo2d_jittered, alg):
        a = run_algorithm(topo2d_jittered, alg, seed=42)
        b = run_algorithm(topo2d_jittered, alg, seed=42)
        assert np.array_equal(a.element_to_agg, b.element_to_agg)


# ---------------------------------------------------------------------------
# the sequential kernels against the numpy-scalar loops they replaced

def _reference_grow(weight, assign, next_id, elements, bumps, pool, clears, side=None):
    """``_grow`` as it was written on numpy arrays, one scalar at a time."""
    heap = [(-int(weight[i]), int(i)) for i in np.flatnonzero(weight >= 0)]
    heapq.heapify(heap)
    while heap:
        negw, i = heapq.heappop(heap)
        if weight[i] != -negw or weight[i] < 0:
            continue
        aid = next_id
        next_id += 1
        members = []
        while True:
            w_max = weight[i]
            weight[i] = -1
            for e in _row(*elements, i):
                if assign[e] < 0:
                    assign[e] = aid
                    members.append(e)
            for indptr, ids in bumps:
                for j in _row(indptr, ids, i):
                    if weight[j] >= 0:
                        weight[j] += 1
                        heapq.heappush(heap, (-int(weight[j]), int(j)))
            if side is not None:
                side_w, (indptr, ids) = side
                row = _row(indptr, ids, i)
                side_w[row[side_w[row] >= 0]] += 1
            best, best_w = -1, -1
            for j in _row(*pool, i):
                wj = weight[j]
                if wj > best_w or (wj == best_w and j < best):
                    best, best_w = int(j), int(wj)
            if best < 0 or best_w < w_max:
                break
            i = best
        for w, (indptr, ids) in clears:
            for e in members:
                w[_row(indptr, ids, e)] = -1
    return next_id


def _reference_aspect_refine(topo, assign, s):
    """``_aspect_refine`` as it was written on numpy arrays."""
    dual = topo.dual
    lower = max(2.0, s / 2.0)
    upper = 2.0 * s
    surf, vol = ag._surface_volume(topo, assign)
    sizes = np.bincount(assign, minlength=len(vol))
    total_area = topo.elem_boundary_area + np.array([
        _row(dual.indptr, dual.edge_weight, e).sum() for e in range(topo.n_elements)])
    for _ in range(ag.ASPECT_MAX_PASSES):
        src = np.repeat(np.arange(topo.n_elements), np.diff(dual.indptr))
        boundary_elems = np.flatnonzero(np.bincount(
            src[assign[src] != assign[dual.indices]], minlength=topo.n_elements))
        improved = False
        for e in boundary_elems:
            a = int(assign[e])
            if sizes[a] - 1 < lower:
                continue
            ve = topo.dual.vertex_weight[e]
            if vol[a] - ve <= 0:
                continue
            area_to = {}
            lo, hi = dual.indptr[e], dual.indptr[e + 1]
            for b, w in zip(assign[dual.indices[lo:hi]].tolist(),
                            dual.edge_weight[lo:hi].tolist()):
                area_to[b] = area_to.get(b, 0) + w
            obj_a = surf[a] ** 2 / vol[a]
            best_delta, best_b = -1e-12 * (1.0 + obj_a), -1
            for b, ab in sorted(area_to.items()):
                if b == a or sizes[b] + 1 > upper:
                    continue
                surf_a_new = surf[a] - total_area[e] + 2.0 * area_to.get(a, 0.0)
                surf_b_new = surf[b] + total_area[e] - 2.0 * ab
                delta = (surf_a_new ** 2 / (vol[a] - ve) - obj_a
                         + surf_b_new ** 2 / (vol[b] + ve) - surf[b] ** 2 / vol[b])
                if delta < best_delta:
                    best_delta, best_b = delta, b
            if best_b >= 0:
                b = best_b
                surf[a] = surf[a] - total_area[e] + 2.0 * area_to.get(a, 0.0)
                surf[b] = surf[b] + total_area[e] - 2.0 * area_to[b]
                vol[a] -= ve
                vol[b] += ve
                sizes[a] -= 1
                sizes[b] += 1
                assign[e] = b
                improved = True
        if not improved:
            break


def _reference_split_noncontiguous(topo, assign):
    """``_split_noncontiguous`` as it was written on numpy arrays."""
    dual = topo.dual
    n = topo.n_elements
    src = np.repeat(np.arange(n), np.diff(dual.indptr))
    same = assign[src] == assign[dual.indices]
    labels = _components(src[same], dual.indices[same], n)
    agg_of_pair, _ = ag._unique_pairs(assign, labels, labels.max() + 1)
    moved = 0
    sizes = list(np.bincount(assign))
    for a in np.flatnonzero(np.bincount(agg_of_pair) > 1):
        comps = {}
        for e in np.flatnonzero(assign == a):
            comps.setdefault(int(labels[e]), []).append(int(e))
        for comp in sorted(comps.values(), key=lambda c: (-len(c), c[0]))[1:]:
            tally = {}
            for e in comp:
                lo, hi = dual.indptr[e], dual.indptr[e + 1]
                for b, w in zip(assign[dual.indices[lo:hi]].tolist(),
                                dual.edge_faces[lo:hi].tolist()):
                    if b != a:
                        tally[b] = tally.get(b, 0) + w
            if not tally:
                assign[comp] = len(sizes)
                sizes.append(len(comp))
            else:
                best = min(tally, key=lambda b: (-tally[b], sizes[b], b))
                assign[comp] = best
                sizes[best] += len(comp)
            sizes[a] -= len(comp)
            moved += 1
    return moved


def _reference_node(topo, seed):
    """``_node`` as it was written on numpy arrays."""
    n = topo.n_elements
    assign = np.full(n, -1, dtype=np.int64)
    node_used = np.zeros(topo.n_nodes, dtype=bool)
    node_ptr, elem_nodes = ag._invert_csr(topo.node_elem_indptr, topo.node_elem_ids, n)
    rng = ag._rng(seed)
    interior = np.flatnonzero(~topo.node_boundary)
    boundary = np.flatnonzero(topo.node_boundary)
    order = np.concatenate([rng.permutation(interior), rng.permutation(boundary)])
    next_id = 0
    for node in order:
        if node_used[node]:
            continue
        elems = _row(topo.node_elem_indptr, topo.node_elem_ids, node)
        elems = elems[assign[elems] < 0]
        if elems.size == 0:
            node_used[node] = True
            continue
        assign[elems] = next_id
        next_id += 1
        for e in elems:
            node_used[elem_nodes[node_ptr[e]:node_ptr[e + 1]]] = True
    return assign


def _reference_greedy(topo, s, seed):
    """``_greedy`` as it was written on numpy arrays."""
    dual = topo.dual
    assign = np.full(topo.n_elements, -1, dtype=np.int64)
    next_id = 0
    for e in ag._rng(seed).permutation(topo.n_elements):
        if assign[e] >= 0:
            continue
        aid = next_id
        next_id += 1
        assign[e] = aid
        size = 1
        frontier = deque()
        in_frontier = set()
        for nb in _row(dual.indptr, dual.indices, e):
            if assign[nb] < 0 and int(nb) not in in_frontier:
                frontier.append(int(nb))
                in_frontier.add(int(nb))
        while frontier and size < s:
            en = frontier.popleft()
            in_frontier.discard(en)
            if assign[en] >= 0:
                continue
            assign[en] = aid
            size += 1
            if size == s:
                break
            for nb in _row(dual.indptr, dual.indices, en):
                nb = int(nb)
                if assign[nb] < 0 and nb not in in_frontier:
                    frontier.append(nb)
                    in_frontier.add(nb)
    return assign


def _two_boxes(dim, n):
    box = generate_mesh(dim, n, jitter=0.2, seed=7)
    return Mesh(dim, np.vstack([box.node_coords, box.node_coords + 2.0]),
                np.vstack([box.elements, box.elements + box.n_nodes]),
                np.zeros(2 * box.n_elements, dtype=np.int64))


@functools.lru_cache(maxsize=None)
def _kernel_case(name):
    """Topologies the golden meshes do not cover: coarse levels (whose dual
    rows reach eight or more neighbours) and two disjoint boxes."""
    if name.endswith("two-boxes"):
        dim = int(name[0])
        return LevelTopology.from_mesh(_two_boxes(dim, 8 if dim == 2 else 3))
    dim, level = int(name[0]), int(name[-1])
    mesh = generate_mesh(dim, 24 if dim == 2 else 6, jitter=0.2, seed=9)
    if level == 0:
        return LevelTopology.from_mesh(mesh)
    hier = build_hierarchy(mesh, CoarsenConfig("kraus" if dim == 3 else "node", seed=3))
    return hier.levels[level - 1].topology


KERNEL_CASES = ("2d-level0", "2d-level1", "2d-level2", "2d-two-boxes",
                "3d-level0", "3d-level1", "3d-two-boxes")


class TestSequentialKernels:
    @pytest.mark.parametrize("kraus", [False, True], ids=["jones", "kraus"])
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_grow_matches_numpy_loop(self, case, kraus, monkeypatch):
        # the face sweep grows and clears the same face weights; the 3D
        # kraus edge sweep bumps and clears the face weights beside the
        # edge weights it grows
        topo = _kernel_case(case)

        def sweeps():
            face_w = np.where(topo.faces.interior, 0, -1).astype(np.int64)
            edge_w = np.zeros(topo.edges.n_edges if kraus and topo.edges else 0,
                              dtype=np.int64)
            assign = np.full(topo.n_elements, -1, dtype=np.int64)
            next_ids = [0]
            adj, elem_faces = ag._face_adjacency(topo), ag._element_faces(topo)
            if edge_w.size:
                next_ids.append(ag._edge_sweep(topo, adj, elem_faces, edge_w, face_w,
                                               assign, 0))
            next_ids.append(ag._face_sweep(topo, adj, elem_faces, face_w, assign,
                                           next_ids[-1], restrict_g=kraus))
            return next_ids, assign, face_w, edge_w

        got = sweeps()
        monkeypatch.setattr(ag, "_grow", _reference_grow)
        want = sweeps()
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert np.array_equal(g, w)
        assert (len(got[0]) == 3) == (kraus and topo.dim == 3)

    @pytest.mark.parametrize("kraus", [False, True], ids=["jones", "kraus"])
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_element_face_order_does_not_matter(self, case, kraus, monkeypatch):
        # the sweeps read each element's faces as a set: bumps, the pool's
        # heaviest-then-lowest-id pick and the clears give the same
        # assignment whatever order the rows list them in
        topo = _kernel_case(case)
        sweep = ag._kraus if kraus else ag._jones
        want = sweep(topo)
        derive = ag._element_faces
        rng = np.random.default_rng(17)

        def shuffled(topo):
            indptr, ids = derive(topo)
            rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
            return indptr, ids[np.lexsort((rng.random(len(ids)), rows))]

        monkeypatch.setattr(ag, "_element_faces", shuffled)
        for _ in range(3):
            assert np.array_equal(sweep(topo), want)

    @pytest.mark.parametrize("kraus", [False, True], ids=["jones", "kraus"])
    @pytest.mark.parametrize("case", ["2d-level0", "3d-level0"])
    def test_grow_queues_each_entity_once_per_agglomerate(self, case, kraus,
                                                          monkeypatch):
        # an agglomerate's pushes all come after its growth, before the
        # next start pops; so the pushes between two pops belong to one
        # agglomerate and must name distinct entities
        topo = _kernel_case(case)
        heappush, heappop = heapq.heappush, heapq.heappop
        batches = [[]]

        def push(heap, item):
            batches[-1].append(item[1])
            heappush(heap, item)

        def pop(heap):
            batches.append([])
            return heappop(heap)

        monkeypatch.setattr(ag.heapq, "heappush", push)
        monkeypatch.setattr(ag.heapq, "heappop", pop)
        swept_weights(topo, kraus)
        assert all(len(b) == len(set(b)) for b in batches)
        got = sum(map(len, batches))
        batches[:] = [[]]
        monkeypatch.setattr(ag, "_grow", _reference_grow)
        swept_weights(topo, kraus)
        want = sum(map(len, batches))
        assert 0 < got < want / 4

    def test_grow_without_bumps_starts_in_id_order(self, monkeypatch):
        # nothing is bumped, so every weight stays 0 and nothing is queued:
        # the cursor starts each agglomerate at the lowest-id live face,
        # which claims its free elements and clears their faces
        topo = _kernel_case("2d-level0")
        faces = topo.faces
        sides = (np.arange(0, 2 * faces.n_faces + 1, 2),
                 np.column_stack([faces.left, faces.right]).ravel())
        elem_faces = ag._element_faces(topo)
        no_rows = (np.zeros(faces.n_faces + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64))
        face_w = np.where(faces.interior, 0, -1).astype(np.int64)
        assign = np.full(topo.n_elements, -1, dtype=np.int64)
        pushes = []
        monkeypatch.setattr(ag.heapq, "heappush", lambda heap, item: pushes.append(item))
        next_id = ag._grow(face_w, assign, 0, sides, [], no_rows,
                           [(face_w, elem_faces)])

        want_w = np.where(faces.interior, 0, -1)
        want = np.full(topo.n_elements, -1)
        aid = 0
        for f in range(faces.n_faces):
            if want_w[f] < 0:
                continue
            members = [e for e in _row(*sides, f) if want[e] < 0]
            want[members] = aid
            aid += 1
            want_w[f] = -1
            for e in members:
                want_w[_row(*elem_faces, e)] = -1
        assert not pushes
        assert next_id == aid > 100
        assert np.array_equal(assign, want)
        assert (face_w == -1).all()

    @pytest.mark.parametrize("s", [4, 12])
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_aspect_refine_matches_numpy_loop(self, case, s):
        topo = _kernel_case(case)
        start = cleanup(topo, Agglomeration(ag._greedy(topo, s, 1)))[0].element_to_agg
        got, want = start.copy(), start.copy()
        ag._aspect_refine(topo, got, s)
        _reference_aspect_refine(topo, want, s)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, start)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_split_matches_numpy_loop(self, case, seed):
        # scattered labels: fragments move into agglomerates that are still
        # to be split, and move on from there
        topo = _kernel_case(case)
        start = np.random.default_rng(seed).integers(0, 12, topo.n_elements)
        got, want = start.copy(), start.copy()
        assert (ag._split_noncontiguous(topo, got)
                == _reference_split_noncontiguous(topo, want) > 0)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_node_matches_numpy_loop(self, case, seed):
        topo = _kernel_case(case)
        got = ag._node(topo, seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_node(topo, seed))

    @pytest.mark.parametrize("s", [3, 8])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_greedy_matches_numpy_loop(self, case, seed, s):
        topo = _kernel_case(case)
        got = ag._greedy(topo, s, seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_greedy(topo, s, seed))

    def test_coarse_cases_have_long_dual_rows(self):
        # numpy sums eight or more terms pairwise; aspect's per-element
        # area totals must keep those bits on coarse levels
        assert any((np.diff(_kernel_case(c).dual.indptr) >= 8).any()
                   for c in KERNEL_CASES if not c.endswith(("level0", "boxes")))
