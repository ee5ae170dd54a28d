"""Each rewritten grouping kernel against its reference in reference_kernels.

The kernels sort one packed key per tuple or multiply sparse incidences;
the references are the lexsort, np.unique and walk versions they replaced.
Every array must be equal, dtype included, on the golden boxes, on meshes
that stress the grouping (two components, removed cells, one tet) and on
every kraus coarse level of the 3D n=6 and n=12 boxes, where two coarse
edges can share both endpoints.
"""
import dataclasses
import functools
import types

import numpy as np
import pytest

import reference_kernels as ref
from agglomg import agglomerate as ag
from agglomg import hierarchy as hi
from agglomg.agglomerate import ALGORITHMS, CoarsenConfig
from agglomg.hierarchy import build_hierarchy, level_schedule
from agglomg.mesh import (DualGraph, LevelTopology, Mesh, MeshSizeError, _build_edges,
                          _enumerate_faces, _face_areas, _order_by, _sort_keys,
                          generate_mesh)


def assert_same(got, want):
    """Equal arrays (or dataclasses / tuples of them), dtype included."""
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def _box_with_holes():
    box = generate_mesh(3, 6, jitter=0.15, seed=7)
    keep = np.ones(box.n_elements, dtype=bool)
    keep[::7] = False
    keep[100:160] = False
    elements = box.elements[keep]
    used, local = np.unique(elements, return_inverse=True)
    return Mesh(3, box.node_coords[used], local.reshape(elements.shape),
                box.material_id[keep])


def _two_components():
    box = generate_mesh(3, 3, jitter=0.1, seed=2)
    return Mesh(3, np.vstack([box.node_coords, box.node_coords + [20.0, 0.0, 0.0]]),
                np.vstack([box.elements, box.elements + box.n_nodes]),
                np.concatenate([box.material_id, box.material_id]))


def _single_tet():
    cube = generate_mesh(3, 1, extent=1.0)
    return Mesh(3, cube.node_coords, cube.elements[:1], np.zeros(1, dtype=np.int64))


MESHES = {
    "golden2d": lambda: generate_mesh(2, 16, jitter=0.2, seed=3),
    "golden3d": lambda: generate_mesh(3, 6, jitter=0.15, seed=3),
    "two_components": _two_components,
    "holes": _box_with_holes,
    "single_tet": _single_tet,
}


def _reference_faces(elements, dim):
    """The reference face enumeration without its slot -> face array, which
    the package does not return: the sweeps derive element -> face from
    the face sides."""
    face_nodes, _, order, counts = ref._enumerate_faces(elements, dim)
    return face_nodes, order, counts


@functools.lru_cache(maxsize=None)
def mesh(name):
    return MESHES[name]()


@functools.lru_cache(maxsize=None)
def kraus_levels(n):
    """(topology, coarse faces, coarse edges) of every kraus level of the
    3D box of size n, the fine one included."""
    h = build_hierarchy(generate_mesh(3, n, jitter=0.2, seed=1), CoarsenConfig("kraus"))
    topos = [h.fine_topology] + [lvl.topology for lvl in h.levels]
    return [(topo, lvl.coarse_faces, lvl.coarse_edges)
            for topo, lvl in zip(topos, h.levels)]


@pytest.mark.parametrize("name", list(MESHES))
def test_topology_kernels_match_reference(name):
    m = mesh(name)
    faces = _enumerate_faces(m.elements, m.dim)
    assert_same(faces, _reference_faces(m.elements, m.dim))
    assert_same(_face_areas(m, faces[0]), ref._face_areas(m, faces[0]))
    if m.dim == 3:
        assert_same(_build_edges(m, faces[0]), ref._build_edges(m, faces[0])[0])


@pytest.mark.parametrize("name", list(MESHES))
def test_derived_element_lists_match_reference(name):
    # the sweeps' element -> face rows hold each element's face slots, in
    # some order, and their edge -> element CSR is the reference's lists
    # from each tet's six edges, array for array
    m = mesh(name)
    topo = LevelTopology.from_mesh(m)
    k = m.dim + 1
    indptr, face_ids = ag._element_faces(topo)
    np.testing.assert_array_equal(indptr, np.arange(0, k * m.n_elements + 1, k))
    face_nodes, slot_face = ref._enumerate_faces(m.elements, m.dim)[:2]
    np.testing.assert_array_equal(np.sort(face_ids.reshape(-1, k)),
                                  np.sort(slot_face.reshape(-1, k)))
    if m.dim == 3:
        assert_same(ag._edge_elements(topo), ref._build_edges(m, face_nodes)[1])


@pytest.mark.parametrize("n", [6, 12])
def test_kraus_level_kernels_match_reference(n):
    parallel = 0
    for topo, coarse_faces, coarse_edges in kraus_levels(n):
        edges = topo.edges
        edge_faces = ag._incidence(edges.face_indptr, edges.face_ids, topo.faces.n_faces)
        assert_same(ag._edge_adjacency(topo, edge_faces), ref._edge_adjacency(topo))
        assert_same(ag._face_adjacency(topo), ref._face_adjacency(topo))
        assert_same(coarse_edges, ref.select_coarse_edges(topo, coarse_faces))
        flipped = dataclasses.replace(topo, edges=dataclasses.replace(
            edges, nodes=edges.nodes[:, ::-1].copy()))
        assert_same(hi.select_coarse_edges(flipped, coarse_faces),
                    ref.select_coarse_edges(flipped, coarse_faces))
        keys = edges.nodes[:, 0] * topo.n_nodes + edges.nodes[:, 1]
        parallel += len(keys) - len(np.unique(keys))
    assert parallel > 0  # coarse edges sharing both endpoints were covered


@pytest.mark.parametrize("name", list(MESHES))
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_coarse_faces_and_adjacency_match_reference(name, alg):
    m = mesh(name)
    size = level_schedule(m.dim).top if alg in ag.SIZE_BASED else None
    h = build_hierarchy(m, CoarsenConfig(alg, desired_size=size, seed=1))
    topos = [h.fine_topology] + [lvl.topology for lvl in h.levels]
    for topo, lvl in zip(topos, h.levels):
        assert_same(hi.select_coarse_faces(topo, lvl.agglomeration),
                    ref.select_coarse_faces(topo, lvl.agglomeration))
        assert_same(ag._face_adjacency(topo), ref._face_adjacency(topo))


@pytest.mark.parametrize("name", [k for k in MESHES if mesh(k).dim == 3])
def test_coarse_edges_of_one_agglomerate_match_reference(name):
    # one agglomerate: on the untagged meshes every fine edge lies on at
    # most one coarse face, so there is no coarse edge at all
    m = mesh(name)
    topo = LevelTopology.from_mesh(m)
    coarse_faces = hi.select_coarse_faces(
        topo, ag.Agglomeration(np.zeros(m.n_elements, dtype=np.int64)))
    got = hi.select_coarse_edges(topo, coarse_faces)
    assert_same(got, ref.select_coarse_edges(topo, coarse_faces))
    assert (len(got.endpoints) == 0) == (not m.boundary_tag)


def test_edge_chains_match_the_walk_on_random_multigraphs():
    # up to 15 edges on up to 9 nodes, parallel edges and pure cycles
    # included, in up to 3 groups, with nodes listed either way round
    rng = np.random.default_rng(11)
    for _ in range(400):
        a, b = rng.integers(0, rng.integers(2, 10), size=(2, rng.integers(1, 16)))
        a, b = a[a != b], b[a != b]
        if not len(a):
            continue
        pairs = np.column_stack([a, b])
        if rng.random() < 0.5:
            pairs.sort(axis=1)
        members = np.sort(rng.choice(60, len(a), replace=False))
        nodes = np.zeros((60, 2), dtype=np.int64)
        nodes[members] = pairs
        group = np.unique(np.sort(rng.integers(0, 3, len(a))), return_inverse=True)[1]
        order, indptr, chain_group, ends = hi._edge_chains(nodes, members, group)
        want_chains, want_ends, want_group = [], [], []
        for g in range(group[-1] + 1):
            for chain in ref._edge_chains(nodes.tolist(), members[group == g].tolist()):
                want_chains.append(chain)
                want_ends.append(list(ref._chain_endpoints(nodes.tolist(), chain)))
                want_group.append(g)
        assert [members[c].tolist() for c in np.split(order, indptr[1:-1])] == want_chains
        assert ends.tolist() == want_ends
        assert chain_group.tolist() == want_group


@pytest.mark.parametrize("case", ["repeats", "empty", "n=1"])
def test_pairs_given_twice(case):
    # the reference adjacency kernels' pair count, against np.unique's
    n_rows, n, size = {"repeats": (20, 30, 600), "empty": (3, 4, 0), "n=1": (4, 1, 50)}[case]
    rng = np.random.default_rng(1)
    a, b = rng.integers(0, n_rows, size), rng.integers(0, n, size)
    key, counts = np.unique(a * n + b, return_counts=True)
    got_a, got_b = ref._pairs_given(a, b, n, 2)
    np.testing.assert_array_equal(got_a, key[counts >= 2] // n)
    np.testing.assert_array_equal(got_b, key[counts >= 2] % n)
    if case == "repeats":
        assert 0 < (counts >= 2).sum() < len(key)


class TestPackedKeys:
    """A 3D face key (a n + b) n + c addresses node ids below 2**21."""

    def test_ids_up_to_the_limit_group_as_before(self):
        # here the key's value range leaves no bits for the slot index, so
        # the stable argsort path groups them
        elements = np.array([[0, 1, 2, 2 ** 21 - 1], [1, 2, 2 ** 21 - 1, 5]])
        assert_same(_enumerate_faces(elements, 3), _reference_faces(elements, 3))

    def test_a_higher_id_raises_naming_the_count(self):
        # the zero coordinates are never touched, so they take no memory
        n = 2 ** 21 + 1
        coords = np.zeros((n, 3))
        coords[[1, 2, 3], [0, 1, 2]] = 1.0
        coords[n - 1] = [0.0, 0.0, 1.0]
        m = Mesh(3, coords, np.array([[0, 1, 2, n - 1]]), np.zeros(1, dtype=np.int64))
        with pytest.raises(MeshSizeError, match="2,097,153 node ids"):
            LevelTopology.from_mesh(m)

    def test_sort_keys_paths_agree(self):
        keys = np.random.default_rng(3).integers(0, 50, 1000)
        packed = _sort_keys(keys, 50)
        assert_same(packed, _sort_keys(keys, 2 ** 62))  # stable argsort path
        assert_same(packed[1], np.argsort(keys, kind="stable"))

    def test_order_by_paths_agree(self):
        rng = np.random.default_rng(4)
        major, minor = rng.integers(0, 30, 500), rng.integers(0, 40, 500)
        want = np.lexsort((minor, major))
        assert_same(_order_by(major, minor, 40), want)
        assert_same(_order_by(major, minor, 2 ** 62), want)  # lexsort path


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 6)])
def test_kraus_builds_face_adjacency_once_per_level(dim, n, monkeypatch):
    calls = {"adjacency": 0, "coarsen": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ag, "_face_adjacency", counted("adjacency", ag._face_adjacency))
    monkeypatch.setattr(hi, "coarsen", counted("coarsen", hi.coarsen))
    h = build_hierarchy(generate_mesh(dim, n, jitter=0.2, seed=3), CoarsenConfig("kraus"))
    assert calls["coarsen"] >= len(h.levels) > 1
    assert calls["adjacency"] == calls["coarsen"]


def test_attach_tie_breaks_and_earlier_attachments():
    # elements 0-6 in agglomerates 0, 1, 2 of sizes 3, 2, 2; frontier 7, 8, 9:
    # 7 shares a face with 0 and with 1 and takes the smaller, 1; 8 shares a
    # face with 0 and with 1, now both of size 3, and takes the lower id, 0;
    # 9 shares one face with 2 and two with frontier element 8, which it
    # sees in agglomerate 0
    edges = [(7, 0, 1), (7, 3, 1), (8, 4, 1), (8, 1, 1), (9, 8, 2), (9, 5, 1),
             (0, 1, 1), (1, 2, 1), (3, 4, 1), (5, 6, 1)]
    a, b, f = (np.array(c) for c in zip(*edges))
    src, dst, faces = np.r_[a, b], np.r_[b, a], np.r_[f, f]
    order = np.lexsort((dst, src))
    indptr = np.r_[0, np.cumsum(np.bincount(src, minlength=10))]
    dual = DualGraph(indptr=indptr, indices=dst[order], edge_weight=faces[order] * 1.0,
                     vertex_weight=np.ones(10), edge_faces=faces[order])
    # every element touches the boundary, so cleanup merges nothing
    level = types.SimpleNamespace(dual=dual, n_elements=10, elem_boundary_area=np.ones(10))
    raw = ag.Agglomeration(np.array([0, 0, 0, 1, 1, 2, 2, -1, -1, -1]))
    got, report = ag.cleanup(level, raw)
    assert got.element_to_agg.tolist() == [0, 0, 0, 1, 1, 2, 2, 1, 0, 0]
    assert report == ag.CleanupReport(unused_attached=3)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 6)])
def test_merge_uncovered_matches_the_per_agglomerate_loop(dim, n):
    # every third agglomerate uncovered, so merges chain and pairs meet
    mesh = generate_mesh(dim, n, jitter=0.2, seed=4)
    topo = LevelTopology.from_mesh(mesh)
    agg = ag.coarsen(topo, CoarsenConfig("greedy", desired_size=6, seed=2))
    uncovered = np.arange(0, agg.n_agglomerates, 3)
    got = hi._merge_uncovered(topo, agg, uncovered)
    assert_same(got.element_to_agg, ref.merge_uncovered(topo, agg, uncovered).element_to_agg)
    assert got.n_agglomerates < agg.n_agglomerates - len(uncovered) // 2
