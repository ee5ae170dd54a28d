import collections
import dataclasses
import functools
import itertools
import types

import numpy as np
import pytest
import scipy.sparse as sp

from agglomg import hierarchy as hi
from agglomg.agglomerate import ALGORITHMS, Agglomeration, CoarsenConfig
from agglomg.hierarchy import (CoarseningError, ElementMaterials, LevelSchedule, StopRule,
                               build_hierarchy, build_prolongation,
                               galerkin_operator, grid_complexity, level_schedule,
                               operator_complexity, project_materials, restriction,
                               select_coarse_edges, select_coarse_faces)
from agglomg.mesh import BOUNDARY, LevelTopology, MaterialProperties, Mesh, generate_mesh
from agglomg.solver import ProblemSpec, VCyclePreconditioner, assemble_problem, fgmres

import reference_kernels as ref
from invariants import check_hierarchy, coarse_nodes
from test_agglomerate import _two_boxes


@pytest.fixture(scope="module")
def block_case():
    """4x4-cell structured mesh agglomerated into 2x2 blocks by hand."""
    mesh = generate_mesh(2, 4, extent=1.0)
    topo = LevelTopology.from_mesh(mesh)
    cells = np.stack(np.meshgrid(np.arange(4), np.arange(4), indexing="ij"),
                     axis=-1).reshape(-1, 2)
    block = (cells[:, 0] // 2) * 2 + cells[:, 1] // 2
    agg = Agglomeration(np.repeat(block, 2))
    return mesh, topo, agg


class TestCoarseFaces:
    def test_one_row_per_interface(self, block_case):
        _, topo, agg = block_case
        cfs = select_coarse_faces(topo, agg)
        interior = cfs.right != BOUNDARY
        # 4 blocks in a square: 4 interfaces, one row each
        assert interior.sum() == 4
        pairs = set(zip(cfs.left[interior].tolist(), cfs.right[interior].tolist()))
        assert len(pairs) == 4

    def test_single_agglomerate_boundary_tags(self, tri_pair):
        topo = LevelTopology.from_mesh(tri_pair)
        agg = Agglomeration(np.zeros(2, dtype=np.int64))
        cfs = select_coarse_faces(topo, agg)
        assert np.all(cfs.right == BOUNDARY)
        assert sorted(cfs.tag.tolist()) == [1, 2, 3, 4]

    def test_disconnected_interface_splits(self):
        # two columns interleaved (A B A B) over a 4x1-ish strip: the A|B
        # interface between column pairs is disconnected, giving extra faces
        mesh = generate_mesh(2, 4, extent=1.0)
        topo = LevelTopology.from_mesh(mesh)
        cells = np.stack(np.meshgrid(np.arange(4), np.arange(4), indexing="ij"),
                         axis=-1).reshape(-1, 2)
        col = cells[:, 0]
        assign = np.repeat(np.where(col % 2 == 0, 0, 1), 2)
        agg = Agglomeration(assign)
        cfs = select_coarse_faces(topo, agg)
        interior = cfs.right != BOUNDARY
        # interfaces at x=1, x=2, x=3: all three strips belong to the same
        # (0, 1) pair but are disconnected -> components split them
        pairs = list(zip(cfs.left[interior].tolist(), cfs.right[interior].tolist()))
        assert pairs == [(0, 1)] * 3  # 3 disconnected strips, one row each


def _coarse_face_rows(cfs):
    """(left, right, tag, fine faces) of each geometric coarse face."""
    fine = np.split(cfs.fine_face_ids, cfs.fine_face_indptr[1:-1])
    return list(zip(cfs.left, cfs.right, cfs.tag, fine))


class TestCoarseFacePartition:
    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize("dim,kw", [(2, dict(n=16, jitter=0.2, seed=3)),
                                        (3, dict(n=6, jitter=0.15, seed=3))],
                             ids=["2d", "3d"])
    def test_first_level_faces_partition_the_interfaces(self, dim, kw, alg):
        # the fingerprint meshes: every fine face on the boundary or between
        # two agglomerates lies in exactly one geometric coarse face
        mesh = generate_mesh(dim, **kw)
        h = build_hierarchy(mesh, CoarsenConfig(alg, seed=1), stop=StopRule(max_levels=2))
        faces = h.fine_topology.faces
        assign = h.levels[0].agglomeration.element_to_agg
        a_side = assign[faces.left]
        b_side = np.where(faces.interior, assign[np.maximum(faces.right, 0)], BOUNDARY)
        rows = _coarse_face_rows(h.levels[0].coarse_faces)
        fine = np.concatenate([r[3] for r in rows])
        expected = np.flatnonzero(~faces.interior | (a_side != b_side))
        assert np.array_equal(np.sort(fine), expected)
        for left, right, tag, ff in rows:
            assert np.all(np.diff(ff) > 0)
            if right == BOUNDARY:
                assert not faces.interior[ff].any()
                assert np.all(a_side[ff] == left) and np.all(faces.tag[ff] == tag)
            else:
                assert left < right
                assert np.array_equal(np.minimum(a_side[ff], b_side[ff]),
                                      np.full(len(ff), left))
                assert np.array_equal(np.maximum(a_side[ff], b_side[ff]),
                                      np.full(len(ff), right))


class TestCoarseNodes:
    def test_block_corner_oracle(self, block_case):
        _, topo, agg = block_case
        cfs = select_coarse_faces(topo, agg)
        nodes = coarse_nodes(topo, agg, cfs)
        expected = sorted(i * 5 + j for i in (0, 2, 4) for j in (0, 2, 4))
        assert sorted(int(v) for v in nodes) == expected

    def test_rule_instances(self):
        # direct instances of the counting rule
        assert 8 > 2 ** 0 * 4          # 2D: 8 faces, 4 elements -> coarse
        assert not (2 > 2 ** 0 * 2)    # 2D interface-interior node
        assert not (6 > 2 ** 1 * 3)    # 3D: 6 faces, 3 elements -> not coarse

    def test_no_coarse_nodes_error(self, tri_pair):
        topo = LevelTopology.from_mesh(tri_pair)
        agg = Agglomeration(np.array([0, 1]))
        cfs = select_coarse_faces(topo, agg)
        with pytest.raises(CoarseningError):
            build_prolongation(topo, agg, cfs, np.zeros(0, dtype=np.int64))

    def test_deficient_agglomerates_repaired_in_hierarchy(self):
        # 3D greedy regularly produces lens-shaped agglomerates with no
        # vertex under the counting rule; the hierarchy merges them away
        # so every agglomerate on every level owns a coarse node
        mesh = generate_mesh(3, 6, jitter=0.15, seed=4)
        h = build_hierarchy(mesh, CoarsenConfig("greedy", seed=7))
        check_hierarchy(h)

    def test_mutual_merge_targets_shrink(self):
        # three vertical strips: strip 0 can only merge into strip 1, and
        # strip 1 ties between its two equal interfaces and picks strip 0;
        # the pair must become one agglomerate, not swap labels
        mesh = generate_mesh(2, 4, extent=1.0)
        topo = LevelTopology.from_mesh(mesh)
        x = mesh.node_coords[mesh.elements].mean(axis=1)[:, 0]
        agg = Agglomeration(np.digitize(x, [0.25, 0.5]))
        merged = hi._merge_uncovered(topo, agg, np.array([0, 1]))
        assert merged.n_agglomerates == 2
        assert np.array_equal(merged.element_to_agg, (x > 0.5).astype(np.int64))

    def test_isolated_uncovered_agglomerates_end_hierarchy(self):
        # two disjoint boxes: coarsening the 22-element second coarse level
        # leaves one uncovered agglomerate per box, neither with a neighbour
        # to merge into, so the hierarchy keeps the two levels it has
        box = generate_mesh(3, 5, extent=1.0)
        mesh = Mesh(3, np.vstack([box.node_coords, box.node_coords + 2.0]),
                    np.vstack([box.elements, box.elements + box.n_nodes]),
                    np.zeros(2 * box.n_elements, dtype=np.int64))
        config = CoarsenConfig("rgb", seed=1)
        h = build_hierarchy(mesh, config)
        assert h.node_counts == [432, 361, 68]
        assert h.stop_reason == "uncoverable"
        check_hierarchy(h)
        # with the operator, the 68-node level is dense enough to be the
        # coarsest before the uncoverable level is tried
        spec = ProblemSpec("diffuse")
        A, b = assemble_problem(mesh, spec)
        h = build_hierarchy(mesh, config, materials=spec.materials, operator=A)
        assert h.node_counts == [432, 361, 68]
        assert h.stop_reason == "dense"
        check_hierarchy(h)
        M = VCyclePreconditioner(h)
        _, _, iterations, converged = fgmres(A, b, M, restart=30, tol=1e-10, atol=0.0)
        assert converged and iterations == 5

    def test_kraus_one_agglomerate_per_untagged_box_ends_hierarchy(self):
        # the same two boxes on the 3D kraus path: with every boundary face
        # tagged 0, the level that leaves one agglomerate per box has one
        # coarse face per box and no coarse edge, so it cannot be covered
        box = generate_mesh(3, 5, extent=1.0)
        mesh = Mesh(3, np.vstack([box.node_coords, box.node_coords + 2.0]),
                    np.vstack([box.elements, box.elements + box.n_nodes]),
                    np.zeros(2 * box.n_elements, dtype=np.int64))
        h = build_hierarchy(mesh, CoarsenConfig("kraus", seed=1),
                            stop=StopRule(coarse_nodes=0))
        assert h.node_counts == [432, 302, 106, 16]
        assert h.stop_reason == "uncoverable"
        check_hierarchy(h)


class TestCoarseEdges:
    def test_slab_interface_rim(self):
        # cube cut into two slabs: coarse edges trace the interface rim
        # as open chains (the per-tag boundary faces cut the ring at the
        # box edges before the loop rule is ever needed)
        mesh = generate_mesh(3, 2, extent=1.0)
        topo = LevelTopology.from_mesh(mesh)
        cells = np.stack(np.meshgrid(*[np.arange(2)] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3)
        assign = np.repeat(cells[:, 0], 6)
        agg = Agglomeration(assign)
        cfs = select_coarse_faces(topo, agg)
        ces = select_coarse_edges(topo, cfs)
        assert ces.n_edges > 0
        assert ces.nodes.shape == (ces.n_edges, 2)
        assert np.all(ces.nodes[:, 0] < ces.nodes[:, 1])

    def test_cycle_broken_into_two_chains(self, mesh3d_small):
        # the loop repair itself: a pure 4-cycle of fine edges splits at
        # its two farthest nodes into two open chains
        topo = LevelTopology.from_mesh(generate_mesh(3, 2, extent=1.0))
        edges = topo.edges
        # find a 4-cycle: nodes of one lattice square
        keys = {tuple(sorted(e)): i for i, e in enumerate(edges.nodes.tolist())}

        def nid(i, j, k):
            return (i * 3 + j) * 3 + k  # (n+1) = 3 nodes per axis

        quad = [nid(0, 0, 0), nid(0, 1, 0), nid(0, 1, 1), nid(0, 0, 1)]
        cyc = []
        for a, b in zip(quad, quad[1:] + quad[:1]):
            cyc.append(keys[tuple(sorted((a, b)))])
        members = np.sort(cyc)
        chain_group, ends = hi._edge_chains(edges.nodes, members,
                                            np.zeros(4, dtype=np.int64))
        assert chain_group.tolist() == [0, 0]
        # both halves end at the cycle's start node and at the node opposite
        assert ends.tolist() == [sorted([quad[0], quad[2]])] * 2

    def test_straight_chain_endpoints(self):
        mesh = generate_mesh(3, 3, extent=1.0)
        topo = LevelTopology.from_mesh(mesh)
        cells = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3)
        assign = np.repeat(cells[:, 0], 6)  # three slabs
        agg = Agglomeration(assign)
        cfs = select_coarse_faces(topo, agg)
        ces = select_coarse_edges(topo, cfs)
        # every chain ends at two breakpoints of its group: nodes that do
        # not have two of the group's fine edges
        groups = ref.edge_groups(topo, cfs)
        assert ces.n_edges >= len(groups) > 0
        for r, ends in enumerate(ces.nodes.tolist()):
            sig = tuple(ces.face_ids[ces.face_indptr[r]:ces.face_indptr[r + 1]].tolist())
            degree = collections.Counter(topo.edges.nodes[groups[sig]].ravel().tolist())
            assert ends[0] != ends[1]
            assert all(degree[v] not in (0, 2) for v in ends)

    def test_single_edge_groups_match_walk(self, mesh3d_small):
        # every group of every level, one-edge or not, must end where the
        # reference walk ends it, also when the edges list their nodes
        # larger first; a level's edges, in the finer level's numbering,
        # are the coarse edges it was built from
        hier = build_hierarchy(mesh3d_small, CoarsenConfig("kraus"))
        fine = hier.fine_topology
        flipped = dataclasses.replace(fine, edges=dataclasses.replace(
            fine.edges, nodes=fine.edges.nodes[:, ::-1].copy()))
        cases = [(flipped, hier.levels[0].coarse_faces,
                  select_coarse_edges(flipped, hier.levels[0].coarse_faces))]
        topos = [fine] + [lvl.topology for lvl in hier.levels]
        cases += [(topo, lvl.coarse_faces, dataclasses.replace(
            lvl.topology.edges, nodes=lvl.coarse_nodes[lvl.topology.edges.nodes]))
                  for topo, lvl in zip(topos, hier.levels)]
        sizes = []
        for topo, cfs, ces in cases:
            nodes = topo.edges.nodes.tolist()
            rows = [(tuple(ces.face_ids[ces.face_indptr[r]:ces.face_indptr[r + 1]]
                           .tolist()), tuple(ces.nodes[r].tolist()))
                    for r in range(ces.n_edges)]
            assert [sig for sig, _ in rows] == sorted(sig for sig, _ in rows)
            groups = ref.edge_groups(topo, cfs)
            assert [sig for sig, _ in itertools.groupby(rows, key=lambda row: row[0])] \
                == sorted(groups)
            for sig, group in itertools.groupby(rows, key=lambda row: row[0]):
                members = groups[sig]
                chains = ref._edge_chains(nodes, members)
                assert ([ends for _, ends in group]
                        == [ref._chain_endpoints(nodes, c) for c in chains])
                sizes.append(len(members))
        assert sizes.count(1) > len(sizes) / 2 and max(sizes) > 2


class TestProlongation:
    def test_injection_and_row_sums(self, block_case):
        _, topo, agg = block_case
        cfs = select_coarse_faces(topo, agg)
        cn = coarse_nodes(topo, agg, cfs)
        P = build_prolongation(topo, agg, cfs, cn)
        assert P.shape == (topo.n_nodes, len(cn))
        sums = np.asarray(P.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-14
        for col, node in enumerate(cn):
            row = P.getrow(int(node))
            assert row.nnz == 1
            assert row.data[0] == 1.0
            assert row.indices[0] == col

    def test_face_node_two_point_average(self, block_case):
        # a node interior to an interface averages the two endpoint
        # coarse nodes: value (1 + 3) / 2 = 2
        _, topo, agg = block_case
        cfs = select_coarse_faces(topo, agg)
        cn = coarse_nodes(topo, agg, cfs)
        P = build_prolongation(topo, agg, cfs, cn)
        # node (2, 1) = id 11 lies inside the interface x=0.5 between
        # blocks 0 and 1, whose endpoints are nodes 10 and 12
        row = P.getrow(11).toarray().ravel()
        cols = {int(n): c for c, n in enumerate(cn)}
        assert row[cols[10]] == pytest.approx(0.5)
        assert row[cols[12]] == pytest.approx(0.5)
        values = np.zeros(len(cn))
        values[cols[10]] = 1.0
        values[cols[12]] = 3.0
        assert (P @ values)[11] == pytest.approx(2.0)

    @pytest.mark.parametrize("ring_limit,far_row", [(hi.SEARCH_RING_LIMIT, [0.5, 0.5]),
                                                     (100, [1.0, 0.0])],
                             ids=["capped", "uncapped"])
    def test_ring_cap_falls_back_to_agglomerate(self, monkeypatch, ring_limit, far_row):
        # one agglomerate of a 48x48 box whose coarse nodes are the lattice
        # corners (0, 0) and (0, 48); node id = 49 * i + j at lattice (i, j)
        monkeypatch.setattr(hi, "SEARCH_RING_LIMIT", ring_limit)
        topo = LevelTopology.from_mesh(generate_mesh(2, 48, extent=1.0))
        agg = Agglomeration(np.zeros(topo.n_elements))
        P = build_prolongation(topo, agg, select_coarse_faces(topo, agg), np.array([0, 48]))
        # (3, 3) finds (0, 0) in its first rings; (47, 24) is 47 mesh edges
        # from (0, 0) and 71 from (0, 48), so under the 20-ring cap it
        # averages its agglomerate's coarse nodes
        assert P[49 * 3 + 3].toarray().ravel().tolist() == [1.0, 0.0]
        assert P[49 * 47 + 24].toarray().ravel().tolist() == far_row

    def test_stalled_rings_without_coarse_node_raise(self):
        # two disjoint boxes, one agglomerate each, and a coarse node in the
        # first box only: the second box's rings stop growing, and its
        # agglomerate has no coarse node to average
        topo = LevelTopology.from_mesh(_two_boxes(2, 4))
        agg = Agglomeration(np.repeat([0, 1], topo.n_elements // 2))
        with pytest.raises(CoarseningError, match="node 25: agglomerate has no coarse nodes"):
            build_prolongation(topo, agg, select_coarse_faces(topo, agg), np.array([0]))


class TestRestriction:
    def test_exact_transpose(self, block_case):
        _, topo, agg = block_case
        cfs = select_coarse_faces(topo, agg)
        cn = coarse_nodes(topo, agg, cfs)
        P = build_prolongation(topo, agg, cfs, cn)
        R = restriction(P)
        assert (R != P.T).nnz == 0
        assert (restriction(R) != P).nnz == 0
        assert R.shape == (P.shape[1], P.shape[0])

    def test_entry_moved(self):
        P = sp.csr_matrix(np.array([[0.0, 1.0], [1 / 3, 0.0]]))
        R = restriction(P)
        assert R[0, 1] == pytest.approx(1 / 3)


class TestMaterials:
    def test_uniform_material_preserved(self):
        mats = ElementMaterials(source=np.full(4, 2.0), sigma_t=np.full(4, 5.0),
                                sigma_s=np.full(4, 1.0))
        agg = Agglomeration(np.array([0, 0, 1, 1]))
        out = project_materials(mats, agg, np.ones(4))
        assert np.allclose(out.source, 2.0)
        assert np.allclose(out.sigma_t, 5.0)

    def test_equal_volume_average(self):
        mats = ElementMaterials(source=np.zeros(2), sigma_t=np.array([0.5, 1.0]),
                                sigma_s=np.zeros(2))
        agg = Agglomeration(np.zeros(2, dtype=np.int64))
        out = project_materials(mats, agg, np.ones(2))
        assert out.sigma_t[0] == pytest.approx(0.75)

    def test_volume_weighting(self):
        mats = ElementMaterials(source=np.array([1.0, 0.0]), sigma_t=np.ones(2),
                                sigma_s=np.zeros(2))
        agg = Agglomeration(np.zeros(2, dtype=np.int64))
        out = project_materials(mats, agg, np.array([1.0, 3.0]))
        assert out.source[0] == pytest.approx(0.25)

    def test_from_table_gathers_each_region(self):
        m = generate_mesh(2, 4)
        regions = np.arange(m.n_elements) % 3
        m = Mesh(2, m.node_coords, m.elements, regions)
        table = {r: MaterialProperties(source=float(r), sigma_t=2.0 + r, sigma_s=0.5 * r)
                 for r in (2, 0, 1, 7)}
        mats = ElementMaterials.from_table(m, table)
        for name in ("source", "sigma_t", "sigma_s"):
            want = [getattr(table[r], name) for r in regions.tolist()]
            assert getattr(mats, name).tolist() == want
        with pytest.raises(ValueError, match=r"missing regions \[1\]"):
            ElementMaterials.from_table(m, {0: table[0], 2: table[2]})


class TestCoarseTopology:
    def test_face_areas_sum_fine_faces_in_order(self):
        # areas of coarse faces with fewer than eight fine faces and of those
        # with eight or more (summed pairwise by numpy) keep ndarray.sum()'s bits
        mesh = generate_mesh(3, 6, jitter=0.2, seed=9)
        level = build_hierarchy(mesh, CoarsenConfig("sizebased", seed=3)).levels[0]
        cf = level.coarse_faces
        fine_area = LevelTopology.from_mesh(mesh).faces.area
        rows = np.split(cf.fine_face_ids, cf.fine_face_indptr[1:-1])
        want = np.array([fine_area[row].sum() for row in rows])
        assert level.topology.faces.area.tobytes() == want.tobytes()
        counts = np.diff(cf.fine_face_indptr)
        assert (counts < 8).any() and (counts >= 8).any()

    def test_node_agglomerate_pairs_once_per_selection_round(self, monkeypatch):
        # the coarse topology reads the final round's (node, agglomerate)
        # pairs; this build keeps 2 levels and repairs once: 3 rounds
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        for name in ("select_coarse_faces", "_node_agg_pairs"):
            monkeypatch.setattr(hi, name, counted(name, getattr(hi, name)))
        h = build_hierarchy(generate_mesh(3, 6, jitter=0.15, seed=3),
                            CoarsenConfig("aspect", desired_size=168, seed=1))
        assert len(h.levels) == 2
        assert calls == ["select_coarse_faces", "_node_agg_pairs"] * 3


class TestGalerkin:
    def test_identity_prolongation(self):
        A = sp.random(12, 12, density=0.4, random_state=0, format="csr")
        A = A + A.T
        P = sp.eye(12, format="csr")
        Ac = galerkin_operator(A, P)
        assert abs(Ac - A).max() < 1e-15

    def test_symmetry_preserved(self, block_case):
        _, topo, agg = block_case
        cfs = select_coarse_faces(topo, agg)
        cn = coarse_nodes(topo, agg, cfs)
        P = build_prolongation(topo, agg, cfs, cn)
        rng = np.random.default_rng(1)
        B = sp.random(topo.n_nodes, topo.n_nodes, density=0.2,
                      random_state=2, format="csr")
        A = B + B.T
        Ac = galerkin_operator(A, P)
        assert abs(Ac - Ac.T).max() <= 1e-12 * abs(Ac).max()

    def test_1d_hand_oracle(self):
        A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        P = sp.csr_matrix(np.array([[1.0], [1.0]]))
        Ac = galerkin_operator(A, P)
        assert Ac.shape == (1, 1)
        assert Ac[0, 0] == 2.0  # exact

    def test_dimension_mismatch(self):
        A = sp.eye(3, format="csr")
        P = sp.csr_matrix(np.ones((4, 1)))
        with pytest.raises(ValueError):
            galerkin_operator(A, P)


def _level(dim, n_elements):
    """The two attributes LevelSchedule.size_for reads from a level."""
    return types.SimpleNamespace(dim=dim, n_elements=n_elements)


class TestSchedule:
    def test_2d_defaults(self):
        sched = level_schedule(2)
        assert [sched.size_for(k, _level(2, 10_000)) for k in range(4)] == [24, 4, 4, 4]

    def test_3d_small_grid_rule(self):
        sched = level_schedule(3)
        assert sched.size_for(0, _level(3, 219_000)) == 168
        assert sched.size_for(1, _level(3, 5_000)) == 8
        assert sched.size_for(2, _level(3, 80)) == 4

    def test_override(self):
        sched = level_schedule(2, top=8)
        assert sched.size_for(0, _level(2, 1000)) == 8

    def test_lower_sizes_shrink_with_the_grid(self):
        sched = level_schedule(2)
        assert [sched.size_for(1, _level(2, n)) for n in (9, 7, 5, 3)] == [4, 3, 2, 2]
        assert level_schedule(3).size_for(1, _level(3, 6)) == 3
        assert sched.size_for(0, _level(2, 5)) == 24  # the top size is never clamped

    @pytest.mark.parametrize("top,lower", [(0, None), (None, 0), (1, None), (None, -3)])
    def test_sizes_below_two_rejected(self, top, lower):
        with pytest.raises(ValueError, match=">= 2"):
            level_schedule(2, top=top, lower=lower)


    @pytest.mark.parametrize("top,lower,field", [(24.5, 4, "top"), (24, 4.0, "lower"),
                                                 (True, 4, "top"), (24, "4", "lower")])
    def test_sizes_must_be_integers(self, top, lower, field):
        # top=24.5 used to build greedy and aspect hierarchies, while
        # sizebased raised a bare TypeError naming no input
        with pytest.raises(ValueError, match=rf"LevelSchedule\.{field} must be an integer"):
            LevelSchedule(top=top, lower=lower)

    def test_numpy_integer_sizes_accepted(self):
        sched = LevelSchedule(top=np.int64(8), lower=np.int32(4))
        assert sched.size_for(1, _level(2, 1000)) == 4


class TestSizeFromSchedule:
    @pytest.fixture(scope="class")
    def mesh(self):
        return generate_mesh(2, 12, jitter=0.2, seed=1)

    @pytest.mark.parametrize("alg", ["greedy", "node"])
    def test_none_or_top_build_the_same_hierarchy(self, mesh, alg):
        sched = level_schedule(2, top=8)
        a = build_hierarchy(mesh, CoarsenConfig(alg, seed=1), schedule=sched)
        b = build_hierarchy(mesh, CoarsenConfig(alg, desired_size=8, seed=1),
                            schedule=sched)
        assert a.node_counts == b.node_counts
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.agglomeration.element_to_agg,
                                  lb.agglomeration.element_to_agg)

    @pytest.mark.parametrize("alg", ["greedy", "node"])
    def test_other_size_rejected(self, mesh, alg):
        with pytest.raises(ValueError, match="desired_size 24 is not the schedule's top"):
            build_hierarchy(mesh, CoarsenConfig(alg, desired_size=24),
                            schedule=level_schedule(2, top=8))
        with pytest.raises(ValueError, match="desired_size 8"):
            build_hierarchy(generate_mesh(3, 3), CoarsenConfig(alg, desired_size=8))

    def test_unknown_algorithm_rejected(self, mesh):
        with pytest.raises(ValueError, match="unknown algorithm"):
            build_hierarchy(mesh, CoarsenConfig("metis"))


class TestBuildHierarchy:
    def test_stop_threshold_no_coarsening(self):
        mesh = generate_mesh(2, 5, extent=1.0)  # 36 nodes < 60
        h = build_hierarchy(mesh, CoarsenConfig("greedy"))
        assert h.n_levels == 1
        assert h.stop_reason == "coarse_nodes"
        assert grid_complexity(h) == pytest.approx(1.0)

    def test_node_counts_strictly_decrease(self, mesh2d_jittered):
        h = build_hierarchy(mesh2d_jittered, CoarsenConfig("sizebased", seed=1))
        counts = h.node_counts
        assert all(a > b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_all_algorithms_reapply_on_coarse_levels(self, mesh2d_jittered, alg):
        h = build_hierarchy(mesh2d_jittered, CoarsenConfig(alg, seed=2))
        assert h.n_levels >= 2

    def test_deterministic(self, mesh2d_jittered):
        a = build_hierarchy(mesh2d_jittered, CoarsenConfig("rgb", seed=3))
        b = build_hierarchy(mesh2d_jittered, CoarsenConfig("rgb", seed=3))
        assert a.node_counts == b.node_counts
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.agglomeration.element_to_agg,
                                  lb.agglomeration.element_to_agg)

    def test_seeds_equal_modulo_2_63_build_the_same_hierarchy(self, mesh2d_jittered):
        # the level seeds read the low 63 bits of the seed, so the 64-bit
        # seeds s and s + 2**63 coarsen alike; a negative seed is an error
        a = build_hierarchy(mesh2d_jittered, CoarsenConfig("rgb", seed=3))
        b = build_hierarchy(mesh2d_jittered, CoarsenConfig("rgb", seed=3 + 2 ** 63))
        assert a.node_counts == b.node_counts
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.agglomeration.element_to_agg,
                                  lb.agglomeration.element_to_agg)
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            build_hierarchy(mesh2d_jittered, CoarsenConfig("rgb", seed=-3))

    def test_materials_projected_per_level(self, mesh2d_jittered):
        table = {0: MaterialProperties(1.0, 10.0, 10.0),
                 1: MaterialProperties(0.0, 10.0, 10.0)}
        h = build_hierarchy(mesh2d_jittered,
                            CoarsenConfig("greedy", seed=1), materials=table)
        for lvl in h.levels:
            assert lvl.materials is not None
            assert np.allclose(lvl.materials.sigma_t, 10.0)


BOXES = {2: dict(n=16, jitter=0.2, seed=3), 3: dict(n=6, jitter=0.15, seed=3)}


@functools.lru_cache(maxsize=None)
def _with_and_without_operator(dim, alg):
    """One box built twice with the same config: with the diffuse operator
    and without one."""
    mesh = generate_mesh(dim, **BOXES[dim])
    spec = ProblemSpec("diffuse")
    A, _ = assemble_problem(mesh, spec)
    config = CoarsenConfig(alg, seed=1)
    return (build_hierarchy(mesh, config, materials=spec.materials, operator=A),
            build_hierarchy(mesh, config, materials=spec.materials))


def _dense_enough(op):
    # the stop rule written out: n <= 2000 unknowns and n**2 <= 8 nnz
    n = op.shape[0]
    return n <= 2000 and n * n <= 8 * op.nnz


def _first_level_operator(monkeypatch, nnz):
    """Make the first Galerkin product an n x n matrix with ``nnz`` entries
    (the first ``nnz`` in row-major order); later products stay real."""
    real = hi.galerkin_operator
    calls = []

    def fake(A, P):
        coarse = real(A, P)
        calls.append(coarse.shape[0])
        if len(calls) > 1:
            return coarse
        n = coarse.shape[0]
        flat = np.arange(nnz)
        return sp.csr_matrix((np.ones(nnz), (flat // n, flat % n)), shape=(n, n))

    monkeypatch.setattr(hi, "galerkin_operator", fake)


class TestDenseStop:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_only_the_coarsest_level_is_dense(self, dim, alg):
        h, _ = _with_and_without_operator(dim, alg)
        coarse_ops = h.operators[1:]
        assert not any(_dense_enough(op) for op in coarse_ops[:-1])
        if h.stop_reason == "dense":
            assert _dense_enough(coarse_ops[-1])

    def test_where_the_rule_fires(self):
        dense = {(dim, alg) for dim in BOXES for alg in ALGORITHMS
                 if _with_and_without_operator(dim, alg)[0].stop_reason == "dense"}
        assert dense == {(3, "kraus"), (3, "node"), (3, "greedy"), (3, "aspect")}

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_without_operator_the_levels_go_on(self, dim, alg):
        # the operator only decides where to stop: the levels built with it
        # are the first levels of the hierarchy built without it
        with_op, without = _with_and_without_operator(dim, alg)
        assert without.stop_reason != "dense"
        n = len(with_op.levels)
        assert without.node_counts[:n + 1] == with_op.node_counts
        for a, b in zip(with_op.levels, without.levels):
            assert np.array_equal(a.agglomeration.element_to_agg,
                                  b.agglomeration.element_to_agg)
        if with_op.stop_reason != "dense":
            assert without.node_counts == with_op.node_counts

    def test_kraus_keeps_its_old_levels_without_operator(self):
        with_op, without = _with_and_without_operator(3, "kraus")
        assert without.node_counts == [343, 299, 163, 88, 50]
        assert with_op.node_counts == [343, 299, 163]

    def test_fine_level_never_stops(self):
        # an all-ones fine operator is as dense as can be; the fine level is
        # what the caller asked to precondition, so it is coarsened anyway,
        # and its all-ones Galerkin product then ends the hierarchy
        mesh = generate_mesh(2, **BOXES[2])
        A = sp.csr_matrix(np.ones((mesh.n_nodes, mesh.n_nodes)))
        h = build_hierarchy(mesh, CoarsenConfig("node", seed=1), operator=A)
        assert h.n_levels == 2
        assert h.stop_reason == "dense"

    @pytest.mark.parametrize("nnz,stops", [(132 * 132 // 8, True),
                                           (132 * 132 // 8 - 1, False)])
    def test_density_bound_is_inclusive(self, monkeypatch, nnz, stops):
        # jones's first coarse level of the 2D box has 132 nodes, and
        # 132**2 = 8 * 2178 exactly
        _first_level_operator(monkeypatch, nnz)
        mesh = generate_mesh(2, **BOXES[2])
        A, _ = assemble_problem(mesh, ProblemSpec("diffuse"))
        h = build_hierarchy(mesh, CoarsenConfig("jones"), operator=A)
        assert h.node_counts[:2] == [289, 132]
        assert (h.stop_reason == "dense") == stops
        assert (h.n_levels == 2) == stops

    @pytest.mark.parametrize("limit,stops", [(132, True), (131, False)])
    def test_size_bound_is_inclusive(self, monkeypatch, limit, stops):
        # a full 132 x 132 first coarse level stops only within the limit
        _first_level_operator(monkeypatch, 132 * 132)
        monkeypatch.setattr(hi, "COARSEST_LIMIT", limit)
        mesh = generate_mesh(2, **BOXES[2])
        A, _ = assemble_problem(mesh, ProblemSpec("diffuse"))
        h = build_hierarchy(mesh, CoarsenConfig("jones"), operator=A)
        assert h.node_counts[:2] == [289, 132]
        assert (h.stop_reason == "dense") == stops


class TestStopReason:
    # "dense" is tested in TestDenseStop, "coarse_nodes" in
    # TestBuildHierarchy and "uncoverable" in TestCoarseNodes
    def test_stagnation(self):
        h, _ = _with_and_without_operator(3, "jones")
        assert h.node_counts == [343, 342]
        assert h.stop_reason == "stagnation"

    def test_max_levels(self):
        mesh = generate_mesh(2, **BOXES[2])
        h = build_hierarchy(mesh, CoarsenConfig("node", seed=1),
                            stop=StopRule(max_levels=2))
        assert h.n_levels == 2
        assert h.stop_reason == "max_levels"

    @pytest.mark.parametrize("kwargs", [dict(max_levels=0), dict(max_levels=-3),
                                        dict(coarse_nodes=-1)])
    def test_rule_out_of_range_rejected(self, kwargs):
        (key, value), = kwargs.items()
        with pytest.raises(ValueError, match=rf"{key}={value}\b.*max_levels >= 1"):
            StopRule(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(coarse_nodes=60.5), dict(max_levels=3.5),
                                        dict(max_levels=True), dict(coarse_nodes=None)])
    def test_rule_must_be_integers(self, kwargs):
        (key, value), = kwargs.items()
        with pytest.raises(ValueError, match=rf"StopRule\.{key} must be an integer"):
            StopRule(**kwargs)
        assert StopRule(coarse_nodes=np.int64(5), max_levels=np.int8(3)).max_levels == 3

    def test_one_level_and_no_node_threshold_are_rules(self):
        mesh = generate_mesh(2, 4)
        h = build_hierarchy(mesh, CoarsenConfig("node"), stop=StopRule(max_levels=1))
        assert (h.n_levels, h.stop_reason) == (1, "max_levels")
        assert StopRule(coarse_nodes=0).coarse_nodes == 0

    def test_no_coarsening(self):
        # with no node threshold, greedy coarsens the 8-triangle box to one
        # agglomerate, which cannot be coarsened further
        mesh = generate_mesh(2, 2, extent=1.0)
        h = build_hierarchy(mesh, CoarsenConfig("greedy", seed=1),
                            stop=StopRule(coarse_nodes=0))
        assert h.node_counts == [9, 4]
        assert h.levels[-1].topology.n_elements == 1
        assert h.stop_reason == "no_coarsening"


class TestComplexities:
    def test_single_level_is_one(self):
        assert grid_complexity([500]) == pytest.approx(1.0)

    def test_stated_arithmetic(self):
        assert grid_complexity([100, 25, 6]) == pytest.approx(1.31)

    def test_geometric_limits(self):
        counts2d = [4 ** k for k in range(4, -1, -1)]
        assert abs(grid_complexity(counts2d) - 4 / 3) / (4 / 3) < 0.01
        counts3d = [8 ** k for k in range(4, -1, -1)]
        assert abs(grid_complexity(counts3d) - 8 / 7) / (8 / 7) < 0.01

    def test_operator_complexity(self, mesh2d_jittered):
        from agglomg.solver import ProblemSpec, assemble_problem
        A, _ = assemble_problem(mesh2d_jittered, ProblemSpec("diffuse"))
        h = build_hierarchy(mesh2d_jittered,
                            CoarsenConfig("sizebased", seed=1), operator=A)
        assert operator_complexity(h) > 1.0
