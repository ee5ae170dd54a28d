import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from agglomg import agglomerate as ag
from agglomg.agglomerate import CoarsenConfig
from agglomg.hierarchy import build_hierarchy
from agglomg.mesh import (BOUNDARY, DegenerateElementError, LevelTopology, Mesh,
                          TopologyError, _collapse_pairs, _csr_from_pairs, _row_sums,
                          _unique_pairs, element_measures, generate_mesh, mesh_metrics)
from agglomg.solver import ProblemSpec, apply_dirichlet, assemble_operator, assemble_problem


class TestGenerateMesh:
    def test_unit_square_n2_counts(self):
        m = generate_mesh(2, 2, extent=1.0)
        assert m.n_elements == 8
        assert m.n_nodes == 9

    def test_unit_cube_n1_counts(self):
        m = generate_mesh(3, 1, extent=1.0)
        assert m.n_elements == 6
        assert m.n_nodes == 8

    def test_determinism(self):
        a = generate_mesh(2, 8, jitter=0.3, seed=42)
        b = generate_mesh(2, 8, jitter=0.3, seed=42)
        assert np.array_equal(a.node_coords, b.node_coords)
        assert np.array_equal(a.elements, b.elements)
        c = generate_mesh(2, 8, jitter=0.3, seed=43)
        assert not np.array_equal(a.node_coords, c.node_coords)

    def test_all_elements_positive(self):
        for dim, n in ((2, 12), (3, 5)):
            m = generate_mesh(dim, n, jitter=0.25, seed=1)
            assert (element_measures(m) > 0).all()

    def test_jitter_bounds_rejected(self):
        with pytest.raises(ValueError):
            generate_mesh(2, 4, jitter=0.5)

    @pytest.mark.parametrize("jitter", [0.0, 0.2])
    def test_negative_seed_rejected(self, jitter):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            generate_mesh(2, 4, jitter=jitter, seed=-1)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(n=4.5), "n"), (dict(n=True), "n"), (dict(n="4"), "n"),
        (dict(n=4, seed=1.5), "seed"), (dict(n=4, seed=True), "seed")])
    @pytest.mark.parametrize("jitter", [0.0, 0.2])
    def test_non_integer_size_or_seed_rejected(self, kwargs, name, jitter):
        # n=4.5 and seed=1.5 used to raise a TypeError naming neither
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            generate_mesh(2, jitter=jitter, **kwargs)

    def test_numpy_integer_size_and_seed_accepted(self):
        m = generate_mesh(2, np.int64(4), jitter=0.2, seed=np.int32(3))
        assert np.array_equal(m.node_coords,
                              generate_mesh(2, 4, jitter=0.2, seed=3).node_coords)

    @pytest.mark.parametrize("extent", [-1.0, 0.0, np.inf, np.nan])
    @pytest.mark.parametrize("jitter", [0.0, 0.2])
    def test_bad_extent_rejected(self, extent, jitter):
        # a negative extent used to build a mirrored box of material 0 only
        with pytest.raises(ValueError, match=rf"extent must be finite and > 0, got {extent}"):
            generate_mesh(2, 4, extent=extent, jitter=jitter)

    def test_near_limit_jitter_still_positive(self):
        # jitter close to half a cell can invert elements on a draw; the
        # generator retries with reduced amplitude and must end positive
        for seed in range(8):
            m = generate_mesh(2, 6, jitter=0.49, seed=seed)
            assert (element_measures(m) > 0).all()

    def test_boundary_tags_one_per_side(self):
        m2 = generate_mesh(2, 4)
        assert sorted(set(m2.boundary_tag.values())) == [1, 2, 3, 4]
        m3 = generate_mesh(3, 2)
        assert sorted(set(m3.boundary_tag.values())) == [1, 2, 3, 4, 5, 6]

    def test_face_tags_follow_boundary_tag(self):
        # tagged boundary faces carry their tag, an untagged one 0, interior -1
        m = generate_mesh(3, 2)
        tags = dict(m.boundary_tag)
        untagged = min(tags)
        del tags[untagged]
        faces = LevelTopology.from_mesh(Mesh(3, m.node_coords, m.elements, m.material_id,
                                             tags)).faces
        nodes = faces.node_ids.reshape(-1, 3).tolist()
        want = [-1 if r >= 0 else tags.get(tuple(f), 0)
                for f, r in zip(nodes, faces.right.tolist())]
        assert faces.tag.tolist() == want
        assert want.count(0) == 1

    def test_source_region_assignment(self):
        m = generate_mesh(2, 20)  # 10 cm box, 2 cm source box
        centroids = m.node_coords[m.elements].mean(axis=1)
        inner = np.all((centroids >= 4.0) & (centroids <= 6.0), axis=1)
        assert (m.material_id[inner] == 0).all()
        assert (m.material_id[~inner] == 1).all()


class TestGeometry:
    def test_right_triangle_area(self, tri_single):
        vol = element_measures(tri_single)
        assert vol[0] == pytest.approx(0.5)

    def test_reference_tet_volume(self):
        m = Mesh(3, np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]),
                 np.array([[0, 1, 2, 3]]), np.zeros(1, dtype=np.int64))
        vol = element_measures(m)
        assert vol[0] == pytest.approx(1.0 / 6.0)

    @pytest.mark.parametrize("node", [3, -1])
    def test_node_out_of_range_rejected(self, node):
        # the second triangle of a 3-node mesh names an undefined node
        coords = np.array([[0.0, 0], [1.0, 0], [0, 1.0]])
        with pytest.raises(ValueError, match=rf"element 1 names nodes \[0, 2, {node}\]"):
            Mesh(2, coords, np.array([[0, 1, 2], [0, 2, node]]),
                 np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize("dim,elements,message", [
        (4, [[0, 1, 2]], "dim must be 2 or 3, got 4"),
        (3, [[0, 1, 2]], r"a 3D element has 4 nodes, got elements of shape \(1, 3\)"),
    ], ids=["dim", "arity"])
    def test_structure_rejected(self, dim, elements, message):
        coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
        with pytest.raises(ValueError, match=message):
            Mesh(dim, coords, np.array(elements), np.zeros(1, dtype=np.int64))

    @pytest.mark.parametrize("shape", ["3 columns", "1-D"])
    def test_coordinate_shape_rejected(self, shape):
        # a 2D box given a zero z column, or its coordinates flattened
        box = generate_mesh(2, 4)
        coords = (np.column_stack([box.node_coords, np.zeros(box.n_nodes)])
                  if shape == "3 columns" else box.node_coords.ravel())
        with pytest.raises(ValueError, match=rf"a 2D node has 2 coordinates, got "
                                             rf"node_coords of shape \({coords.shape[0]},"):
            Mesh(2, coords, box.elements, box.material_id)

    @pytest.mark.parametrize("material", [np.zeros(3), np.zeros((32, 1))],
                             ids=["3 entries", "column"])
    def test_material_shape_rejected(self, material):
        box = generate_mesh(2, 4)
        with pytest.raises(ValueError, match=r"material_id has shape .*\(32,\)"):
            Mesh(2, box.node_coords, box.elements, material)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, value):
        mesh = generate_mesh(2, 8, jitter=0.2, seed=1)
        coords = mesh.node_coords.copy()
        coords[40, 1] = value
        with pytest.raises(ValueError, match="node 40 has a non-finite coordinate"):
            Mesh(2, coords, mesh.elements, mesh.material_id)

    def test_collinear_triangle_rejected(self):
        m = Mesh(2, np.array([[0.0, 0], [1.0, 1], [2.0, 2]]),
                 np.array([[0, 1, 2]]), np.zeros(1, dtype=np.int64))
        with pytest.raises(DegenerateElementError):
            element_measures(m)


class TestTopology:
    def test_single_triangle(self, tri_single):
        t = LevelTopology.from_mesh(tri_single)
        faces, edges, dual = t.faces, t.edges, t.dual
        assert faces.n_faces == 3
        assert (faces.right == BOUNDARY).sum() == 3
        assert edges is None
        assert dual.indptr.tolist() == [0, 0]
        assert len(dual.indices) == 0

    def test_two_triangles(self, tri_pair):
        t = LevelTopology.from_mesh(tri_pair)
        faces, dual = t.faces, t.dual
        assert int(faces.interior.sum()) == 1
        assert int((~faces.interior).sum()) == 4
        # one dual edge, counted once per direction
        assert len(dual.indices) == 2

    def test_single_tet(self, tet_single):
        t = LevelTopology.from_mesh(tet_single)
        faces, edges = t.faces, t.edges
        assert faces.n_faces == 4
        assert edges.n_edges == 6

    def test_nonconforming_rejected(self):
        # three triangles sharing the edge (0, 1)
        coords = np.array([[0.0, 0], [1.0, 0], [0.0, 1], [1.0, 1], [0.5, -1.0]])
        elems = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        m = Mesh(2, coords, elems, np.zeros(3, dtype=np.int64))
        with pytest.raises(TopologyError):
            LevelTopology.from_mesh(m)

    def test_face_count_identity(self, mesh2d_jittered, mesh3d_small):
        for m in (mesh2d_jittered, mesh3d_small):
            faces = LevelTopology.from_mesh(m).faces
            interior = int(faces.interior.sum())
            boundary = faces.n_faces - interior
            assert m.n_elements * (m.dim + 1) == 2 * interior + boundary

    def test_dual_symmetry(self, topo2d_jittered):
        dual = topo2d_jittered.dual

        def row(v):
            lo, hi = dual.indptr[v], dual.indptr[v + 1]
            return dual.indices[lo:hi], dual.edge_weight[lo:hi]

        assert len(dual.indptr) - 1 == topo2d_jittered.n_elements
        for v in range(topo2d_jittered.n_elements):
            for u, w in zip(*row(v)):
                back, w_back = row(u)
                assert v in back
                assert w == pytest.approx(w_back[list(back).index(v)])

    def test_dual_degree_bound(self, topo2d_jittered, topo3d_small):
        for topo in (topo2d_jittered, topo3d_small):
            degrees = np.diff(topo.dual.indptr)
            assert degrees.max() <= topo.dim + 1

    def test_tet_contributes_six_edges(self, mesh3d_small):
        # the edge -> element lists the kraus sweep derives from face sides
        indptr, elems = ag._edge_elements(LevelTopology.from_mesh(mesh3d_small))
        per_elem = np.diff(indptr)
        # every edge's incident-element list is nonempty
        assert per_elem.min() >= 1
        # and each tet appears across exactly 6 edge incidence lists
        counts = np.bincount(elems, minlength=mesh3d_small.n_elements)
        assert (counts == 6).all()


class TestMetrics:
    def test_single_triangle_metrics(self, tri_single):
        m = mesh_metrics(LevelTopology.from_mesh(tri_single))
        assert m.node_element_ratio == pytest.approx(3.0)
        assert m.average_connectivity == pytest.approx(1.0)

    def test_structured_quad_connectivity_is_four(self):
        # metric validation on a quad lattice (enumerated directly): away
        # from the boundary every node touches exactly 4 cells
        n = 10
        counts = np.zeros((n + 1, n + 1), dtype=int)
        for i in range(n):
            for j in range(n):
                counts[i:i + 2, j:j + 2] += 1
        interior = counts[1:-1, 1:-1]
        assert (interior == 4).all()

    def test_generated_2d_bands(self):
        # the 2-triangles-per-cell generator needs n >= 23 before the
        # documented unstructured-mesh bands hold; checked at n = 32
        m = generate_mesh(2, 32, jitter=0.2, seed=9)
        met = mesh_metrics(LevelTopology.from_mesh(m))
        assert 0.45 <= met.node_element_ratio <= 0.55
        assert 5.5 <= met.average_connectivity <= 6.5

    def test_empty_mesh_rejected(self):
        m = Mesh(2, np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64),
                 np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty mesh"):
            mesh_metrics(LevelTopology.from_mesh(m))


class TestLevelTopology:
    def test_from_mesh_consistency(self, mesh2d_small, topo2d_small):
        t = topo2d_small
        assert t.n_elements == mesh2d_small.n_elements
        assert t.n_nodes == mesh2d_small.n_nodes
        assert t.dual.vertex_weight.sum() == pytest.approx(100.0)  # 10 cm box
        # per-node element lists cover each element dim+1 times
        assert len(t.node_elem_ids) == mesh2d_small.n_elements * 3

    def test_boundary_nodes(self, topo2d_small):
        n = 16
        assert int(topo2d_small.node_boundary.sum()) == 4 * n


def _arrays(obj, path="topology"):
    """(path, array) for every ndarray in a dataclass and those it holds."""
    for f in dataclasses.fields(obj):
        value, name = getattr(obj, f.name), f"{path}.{f.name}"
        if isinstance(value, np.ndarray):
            yield name, value
        elif dataclasses.is_dataclass(value):
            yield from _arrays(value, name)


def _hierarchy_digest(mesh, algorithms):
    """sha256 over the operator and, per algorithm, every level's
    agglomeration, prolongation, operator and topology arrays."""
    digest = hashlib.sha256()
    spec = ProblemSpec("absorbing")
    A, b = assemble_problem(mesh, spec)
    for arr in (A.indptr, A.indices, A.data, b):
        digest.update(arr.tobytes())
    for alg in algorithms:
        h = build_hierarchy(mesh, CoarsenConfig(alg, seed=3), materials=spec.materials,
                            operator=A)
        for level in h.levels:
            for arr in (level.agglomeration.element_to_agg, level.prolongation.data,
                        level.prolongation.indices, level.operator.data):
                digest.update(arr.tobytes())
        for topo in [h.fine_topology] + [level.topology for level in h.levels]:
            for _, arr in _arrays(topo):
                digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


class TestMeshTopology:
    """``Mesh.topology`` is the fine level, derived once per mesh, which
    owns its state so that level cannot go stale."""

    def test_derived_once(self, mesh2d_jittered):
        assert mesh2d_jittered.topology is mesh2d_jittered.topology

    @pytest.mark.parametrize("dim,n", [(2, 8), (3, 3)])
    def test_one_derivation_for_assembly_and_two_builds(self, dim, n, monkeypatch):
        calls = []
        from_mesh = LevelTopology.from_mesh.__func__

        def counted(cls, mesh):
            calls.append(mesh)
            return from_mesh(cls, mesh)
        monkeypatch.setattr(LevelTopology, "from_mesh", classmethod(counted))
        mesh = generate_mesh(dim, n, jitter=0.2, seed=1)
        A, _ = assemble_problem(mesh, ProblemSpec("diffuse"))
        for alg in ("greedy", "kraus"):
            h = build_hierarchy(mesh, CoarsenConfig(alg, seed=1), operator=A)
            assert h.fine_topology is mesh.topology
        assert len(calls) == 1

    @pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
    def test_every_array_is_read_only(self, dim, n):
        arrays = list(_arrays(generate_mesh(dim, n, jitter=0.2, seed=1).topology))
        assert len(arrays) == (18 if dim == 3 else 15)
        for name, arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
            assert not arr.flags.writeable, name

    def test_builds_on_one_mesh_hash_as_on_fresh_meshes(self):
        algorithms = ("kraus", "sizebased")
        shared = generate_mesh(3, 4, jitter=0.2, seed=2)
        assert ([_hierarchy_digest(shared, [alg]) for alg in algorithms]
                == [_hierarchy_digest(generate_mesh(3, 4, jitter=0.2, seed=2), [alg])
                    for alg in algorithms])

    def test_caller_arrays_and_tags_are_copied(self):
        base = generate_mesh(2, 3, jitter=0.2, seed=1)
        coords, elements = base.node_coords.copy(), base.elements.copy()
        tags = dict(base.boundary_tag)
        mesh = Mesh(2, coords, elements, base.material_id.copy(), tags)
        coords.flags.writeable = True
        elements.flags.writeable = True
        coords[:] = 0.0
        elements[0] = elements[1]
        face = min(tags)
        tags[face] = 99
        assert np.array_equal(mesh.node_coords, base.node_coords)
        assert np.array_equal(mesh.elements, base.elements)
        assert mesh.boundary_tag == base.boundary_tag
        assert 99 not in mesh.topology.faces.tag
        assert np.array_equal(mesh.topology.faces.tag, base.topology.faces.tag)

    def test_unpickled_mesh_is_frozen_and_builds_the_same(self):
        mesh = generate_mesh(3, 3, jitter=0.2, seed=4)
        mesh.topology  # derived before pickling
        copy = pickle.loads(pickle.dumps(mesh))
        assert "topology" not in vars(copy)  # derived afresh, not carried
        for arr in (copy.node_coords, copy.elements, copy.material_id):
            assert not arr.flags.writeable
        assert all(not arr.flags.writeable for _, arr in _arrays(copy.topology))
        assert _hierarchy_digest(copy, ["kraus"]) == _hierarchy_digest(mesh, ["kraus"])

    def test_apply_dirichlet_leaves_its_input_unchanged(self, mesh2d_jittered):
        A, b, boundary = assemble_operator(mesh2d_jittered, ProblemSpec("absorbing"))
        before = [arr.copy() for arr in (A.indptr, A.indices, A.data, b)]
        A_bc, b_bc = apply_dirichlet(A, b, boundary)
        for arr, old in zip((A.indptr, A.indices, A.data, b), before):
            assert arr.tobytes() == old.tobytes()
        assert A_bc.nnz < A.nnz


def random_pairs(seed, n_rows, n, size):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_rows, size), rng.integers(0, n, size)


class TestPairGrouping:
    """The pair primitives, the CSR builder and the weighted collapse against
    plain references."""

    CASES = {"repeats": (20, 30, 600), "empty": (3, 4, 0), "n=1": (4, 1, 50)}

    @pytest.mark.parametrize("case", list(CASES))
    def test_unique_pairs(self, case):
        n_rows, n, size = self.CASES[case]
        a, b = random_pairs(1, n_rows, n, size)
        key = np.unique(a * n + b)
        got_a, got_b = _unique_pairs(a, b, n)
        np.testing.assert_array_equal(got_a, key // n)
        np.testing.assert_array_equal(got_b, key % n)

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("presorted", [False, True])
    def test_csr_from_pairs_keeps_input_order(self, case, presorted):
        n_rows, n, size = self.CASES[case]
        keys, values = random_pairs(5, n_rows, n, size)
        if presorted:
            keys = np.sort(keys)
        indptr, data = _csr_from_pairs(keys, values, n_rows)
        np.testing.assert_array_equal(indptr, np.searchsorted(np.sort(keys),
                                                              np.arange(n_rows + 1)))
        np.testing.assert_array_equal(data, [v for r in range(n_rows)
                                             for k, v in zip(keys, values) if k == r])

    @pytest.mark.parametrize("case", list(CASES))
    def test_collapse_pairs(self, case):
        _, n, size = self.CASES[case]
        src, dst = random_pairs(2, n, n, size)
        weight = np.random.default_rng(3).random(size)
        sums, counts = {}, {}
        for s, d, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
            sums[s, d] = sums.get((s, d), 0.0) + w
            counts[s, d] = counts.get((s, d), 0) + 1
        pairs = sorted(sums)
        indptr, indices, wsum, count = _collapse_pairs(src, dst, weight, n)
        np.testing.assert_array_equal(
            indptr, np.searchsorted([s for s, _ in pairs], np.arange(n + 1)))
        np.testing.assert_array_equal(indices, [d for _, d in pairs])
        np.testing.assert_array_equal(wsum, [sums[p] for p in pairs])
        np.testing.assert_array_equal(count, [counts[p] for p in pairs])


def test_row_sums_keep_numpy_sum_bits():
    # rows of 0 to 19 terms: numpy sums eight or more pairwise, which
    # rounds differently from adding in order
    rng = np.random.default_rng(4)
    counts = np.tile(np.arange(20), 50)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    values = rng.random(indptr[-1]) * 10.0 ** rng.integers(-3, 4, indptr[-1])
    want = [values[lo:hi].sum() for lo, hi in zip(indptr[:-1], indptr[1:])]
    assert np.array_equal(_row_sums(indptr, values), want)
