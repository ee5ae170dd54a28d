"""Simplicial meshes: types, topology extraction, generation, and metrics.

The mesh is the finest level of the multigrid stack. Everything the
coarsening and hierarchy code needs from a level -- faces, edges (3D),
the element dual graph, node incidence and geometric measures -- is
bundled into a :class:`LevelTopology`, which is also how coarse levels
are represented, so the same coarsening code runs on every level.

Integer pairs ``(a, b)`` are grouped in one place each: :func:`_unique_pairs`
gives the distinct pairs in ascending order (optionally only those given a
minimum number of times), and :func:`_collapse_pairs` gives the CSR of the
distinct pairs with their weights summed and their repeats counted. Both
sort the packed keys ``a * n + b``; numpy's hash-based ``np.unique`` is far
slower on such keys.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

BOUNDARY = -1
# width of the centered source box that generate_mesh gives material 0
SOURCE_EXTENT = 2.0

# local face index patterns: face i is the element with local node i removed
_TRI_FACES = np.array([[1, 2], [0, 2], [0, 1]])
_TET_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_TET_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])


class TopologyError(ValueError):
    """Mesh connectivity violates the conforming-mesh contract."""


class DegenerateElementError(ValueError):
    """An element has zero or negative measure."""


@dataclass(frozen=True)
class MaterialProperties:
    """Isotropic one-group material data for one region (cgs units)."""

    source: float
    sigma_t: float
    sigma_s: float

    def validate(self):
        if not (self.sigma_t >= self.sigma_s >= 0.0):
            raise ValueError(
                f"require sigma_t >= sigma_s >= 0, got {self.sigma_t}, {self.sigma_s}"
            )


# region id -> properties
MaterialTable = dict[int, MaterialProperties]


@dataclass(frozen=True)
class Mesh:
    """Conforming simplicial mesh: triangles (dim=2) or tetrahedra (dim=3).

    ``boundary_tag`` maps each boundary face, keyed by its sorted node
    tuple, to an integer side tag. Interior faces carry no tag.
    """

    dim: int
    node_coords: np.ndarray
    elements: np.ndarray
    material_id: np.ndarray
    boundary_tag: dict[tuple, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "node_coords",
                           np.ascontiguousarray(self.node_coords, dtype=float))
        object.__setattr__(self, "elements",
                           np.ascontiguousarray(self.elements, dtype=np.int64))
        object.__setattr__(self, "material_id",
                           np.ascontiguousarray(self.material_id, dtype=np.int64))
        for arr in (self.node_coords, self.elements, self.material_id):
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def validate(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n_elements == 0:
            raise ValueError("empty mesh")
        if self.elements.shape[1] != self.dim + 1:
            raise ValueError("element arity does not match dim")
        if self.elements.min() < 0 or self.elements.max() >= self.n_nodes:
            raise ValueError("element node index out of range")
        element_measures(self)  # raises on degenerate/inverted elements


@dataclass(frozen=True)
class MeshMetrics:
    node_element_ratio: float
    average_connectivity: float
    n_nodes: int
    n_elements: int
    n_faces: int


def _csr_from_pairs(keys, values, n_keys):
    """Group ``values`` by integer ``keys`` into CSR (indptr, data) arrays."""
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=n_keys)
    indptr = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.asarray(values)[order]


def _unique_pairs(a, b, n, min_count=1):
    """The distinct pairs ``(a[i], b[i])``, with ``0 <= b[i] < n``, ascending
    by (a, b); with ``min_count`` only pairs given at least that many times."""
    n = max(int(n), 1)
    key = a * n + b
    key.sort()
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    if min_count > 1:
        starts = np.flatnonzero(new)
        new[starts[np.diff(starts, append=len(key)) < min_count]] = False
    key = key[new]
    return key // n, key % n


def _collapse_pairs(src, dst, weight, n):
    """CSR (indptr, indices) of the distinct pairs of ids in [0, n), each
    pair's weights summed in input order, and each pair's repeat count."""
    key, inverse, count = np.unique(src * n + dst, return_inverse=True,
                                    return_counts=True)
    indptr, indices = _csr_from_pairs(key // n, key % n, n)
    return indptr, indices, np.bincount(inverse, weights=weight, minlength=len(key)), count


def _first_appearance(labels) -> np.ndarray:
    """Renumber labels densely as 0, 1, ... in order of first appearance."""
    uniq, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(uniq))
    return rank[inverse.ravel()]


def _gather_ragged(indptr, data, rows):
    """Concatenate CSR rows; returns (values, per-row counts)."""
    rows = np.asarray(rows, dtype=np.int64)
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    offsets = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    return data[np.repeat(indptr[rows], counts) + offsets], counts


def _components(src, dst, n) -> np.ndarray:
    """Connected-component label of each of ``n`` vertices under the edges
    ``src[i] - dst[i]``, numbered in order of first appearance."""
    # symmetric and duplicate-free: on such a graph the strong components
    # are the connected ones, and scipy finds them without the transposes
    # its undirected path builds (repeated entries make its search hang)
    a, b = _unique_pairs(np.concatenate([src, dst]), np.concatenate([dst, src]), n)
    indptr, indices = _csr_from_pairs(a, b, n)
    graph = sp.csr_matrix((np.ones(len(a)), indices, indptr), shape=(n, n))
    _, labels = csgraph.connected_components(graph, directed=True, connection="strong")
    return _first_appearance(labels)


def _induced_components(indptr, indices, members) -> np.ndarray:
    """Component labels, one per member, of the subgraph that ``members``
    induce in the CSR adjacency ``indptr``/``indices``."""
    members = np.asarray(members, dtype=np.int64)
    local = np.full(len(indptr) - 1, -1, dtype=np.int64)
    local[members] = np.arange(len(members))
    nbrs, counts = _gather_ragged(indptr, indices, members)
    nbrs = local[nbrs]
    src = np.repeat(np.arange(len(members)), counts)
    keep = nbrs >= 0
    return _components(src[keep], nbrs[keep], len(members))


def _neighbour_weights(indptr, indices, weight, labels, members, exclude=-1) -> dict:
    """Label -> the ``weight`` of the CSR entries ``indptr``/``indices``
    by which ``members`` reach it, summed in entry order. Unlabelled
    (negative) neighbours and ``exclude`` do not count."""
    tally = {}
    for e in members:
        lo, hi = indptr[e], indptr[e + 1]
        for b, w in zip(labels[indices[lo:hi]].tolist(), weight[lo:hi].tolist()):
            if b >= 0 and b != exclude:
                tally[b] = tally.get(b, 0) + w
    return tally


def _best_neighbour(indptr, indices, weight, labels, members, sizes, exclude=-1) -> int:
    """The label of :func:`_neighbour_weights` with the most weight; ties go
    to the label with the fewest ``sizes``, then the lowest id. -1 when no
    labelled neighbour is left."""
    tally = _neighbour_weights(indptr, indices, weight, labels, members, exclude)
    if not tally:
        return -1
    return min(tally, key=lambda b: (-tally[b], sizes[b], b))


@dataclass
class FaceSet:
    """All (dim-1)-faces of one level, with element and node incidence.

    Node lists are ragged (CSR layout) so the same container also holds
    coarse faces, whose node sets are the coarse nodes lying on them.
    """

    node_indptr: np.ndarray
    node_ids: np.ndarray
    left: np.ndarray
    right: np.ndarray     # BOUNDARY (-1) for boundary faces
    area: np.ndarray
    tag: np.ndarray       # -1 for interior faces
    elem_indptr: np.ndarray
    elem_face_ids: np.ndarray
    node_face_indptr: np.ndarray
    node_face_ids: np.ndarray

    @property
    def n_faces(self) -> int:
        return self.left.shape[0]

    def face_nodes(self, f: int) -> np.ndarray:
        return self.node_ids[self.node_indptr[f]:self.node_indptr[f + 1]]

    @property
    def interior(self) -> np.ndarray:
        return self.right >= 0


@dataclass
class EdgeSet:
    """Edges of a 3D level: node pair, incident faces and elements."""

    nodes: np.ndarray           # (E, 2) endpoint node ids
    face_indptr: np.ndarray
    face_ids: np.ndarray
    elem_indptr: np.ndarray
    elem_ids: np.ndarray
    node_edge_indptr: np.ndarray
    node_edge_ids: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.nodes.shape[0]


@dataclass
class DualGraph:
    """Element adjacency graph: vertices are elements, edges are shared faces.

    Vertex weights are element volumes, edge weights shared-face areas.
    ``edge_faces`` counts distinct faces behind an adjacency (always 1 on
    the finest level, possibly more between coarse elements).
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_weight: np.ndarray
    vertex_weight: np.ndarray
    edge_faces: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.indptr.shape[0] - 1

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.edge_weight[self.indptr[v]:self.indptr[v + 1]]


@dataclass
class LevelTopology:
    """Everything the coarsening machinery needs from one grid level."""

    dim: int
    n_elements: int
    n_nodes: int
    elem_volume: np.ndarray
    elem_boundary_area: np.ndarray
    faces: FaceSet
    edges: EdgeSet | None
    dual: DualGraph
    node_elem_indptr: np.ndarray
    node_elem_ids: np.ndarray
    node_boundary: np.ndarray
    # level node id -> finest-mesh node id (identity on the finest level)
    node_fine_ids: np.ndarray

    def node_elements(self, n: int) -> np.ndarray:
        return self.node_elem_ids[self.node_elem_indptr[n]:self.node_elem_indptr[n + 1]]

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "LevelTopology":
        faces, edges, dual = build_topology(mesh)
        volumes = dual.vertex_weight
        bd = faces.right == BOUNDARY
        elem_bd_area = np.bincount(faces.left[bd], weights=faces.area[bd],
                                   minlength=mesh.n_elements)
        flat_nodes = mesh.elements.ravel()
        elem_of = np.repeat(np.arange(mesh.n_elements), mesh.dim + 1)
        ne_indptr, ne_ids = _csr_from_pairs(flat_nodes, elem_of, mesh.n_nodes)
        node_bd = np.zeros(mesh.n_nodes, dtype=bool)
        bd_face_nodes = _face_node_matrix(faces)[bd]
        node_bd[bd_face_nodes] = True
        return cls(
            dim=mesh.dim,
            n_elements=mesh.n_elements,
            n_nodes=mesh.n_nodes,
            elem_volume=volumes,
            elem_boundary_area=elem_bd_area,
            faces=faces,
            edges=edges,
            dual=dual,
            node_elem_indptr=ne_indptr,
            node_elem_ids=ne_ids,
            node_boundary=node_bd,
            node_fine_ids=np.arange(mesh.n_nodes),
        )


def _face_node_matrix(faces: FaceSet) -> np.ndarray:
    """Fine-level face nodes as a dense (F, dim) array (uniform arity)."""
    widths = np.diff(faces.node_indptr)
    w = int(widths[0]) if widths.size else 0
    if widths.size and not np.all(widths == w):
        raise ValueError("face node lists are ragged")
    return faces.node_ids.reshape(-1, w)


def element_measures(mesh: Mesh) -> np.ndarray:
    """Signed simplex measures, validated positive.

    Raises DegenerateElementError naming the first offending element.
    """
    x = mesh.node_coords[mesh.elements]
    if mesh.dim == 2:
        d1 = x[:, 1] - x[:, 0]
        d2 = x[:, 2] - x[:, 0]
        vol = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    else:
        d = x[:, 1:] - x[:, 0:1]
        vol = np.linalg.det(d) / 6.0
    bad = np.flatnonzero(vol <= 0.0)
    if bad.size:
        raise DegenerateElementError(
            f"element {bad[0]} has non-positive measure {vol[bad[0]]:.3e}"
        )
    return vol


def _face_areas(mesh: Mesh, face_nodes: np.ndarray) -> np.ndarray:
    p = mesh.node_coords[face_nodes]
    if mesh.dim == 2:
        return np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    c = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return 0.5 * np.linalg.norm(c, axis=1)


def geometry_measures(mesh: Mesh, faces: FaceSet | None = None):
    """Per-element volumes and, when a FaceSet is given, per-face areas."""
    volumes = element_measures(mesh)
    if faces is None:
        return volumes, None
    return volumes, faces.area.copy()


def build_topology(mesh: Mesh):
    """Derive (FaceSet, EdgeSet | None, DualGraph) from a conforming mesh.

    Every distinct (dim-1)-simplex of every element is enumerated exactly
    once; a face shared by more than two elements is a topology error.
    """
    if mesh.n_elements == 0:
        raise ValueError("empty mesh")
    dim = mesh.dim
    k = dim + 1
    face_nodes, elem_face_ids, order, counts = _enumerate_faces(mesh.elements, dim)
    n_faces = len(face_nodes)
    if counts.max() > 2:
        f = int(np.argmax(counts > 2))
        raise TopologyError(
            f"face {tuple(int(v) for v in face_nodes[f])} is shared by {counts[f]} elements"
        )

    # slots are sorted by face, then element, so left < right in each pair
    starts = np.cumsum(counts) - counts
    slot_elem = order // k
    left = slot_elem[starts]
    right = np.full(n_faces, BOUNDARY, dtype=np.int64)
    second = counts == 2
    right[second] = slot_elem[starts[second] + 1]

    area = _face_areas(mesh, face_nodes)
    tag = np.full(n_faces, -1, dtype=np.int64)
    for f in np.flatnonzero(right == BOUNDARY):
        key = tuple(int(v) for v in face_nodes[f])
        tag[f] = mesh.boundary_tag.get(key, 0)

    # element -> face ids, in local-face order
    elem_indptr = np.arange(0, len(elem_face_ids) + 1, k, dtype=np.int64)

    node_of_face = face_nodes.ravel()
    face_of_node = np.repeat(np.arange(n_faces), dim)
    nf_indptr, nf_ids = _csr_from_pairs(node_of_face, face_of_node, mesh.n_nodes)

    faces = FaceSet(
        node_indptr=np.arange(0, n_faces * dim + 1, dim, dtype=np.int64),
        node_ids=face_nodes.ravel().copy(),
        left=left, right=right, area=area, tag=tag,
        elem_indptr=elem_indptr, elem_face_ids=elem_face_ids,
        node_face_indptr=nf_indptr, node_face_ids=nf_ids,
    )

    volumes = element_measures(mesh)
    dual = _dual_from_faces(faces, volumes)
    edges = _build_edges(mesh, faces) if dim == 3 else None
    return faces, edges, dual


def _dual_from_faces(faces: FaceSet, volumes: np.ndarray) -> DualGraph:
    interior = faces.interior
    li, ri = faces.left[interior], faces.right[interior]
    ar = faces.area[interior]
    # collapse parallel faces between the same element pair
    indptr, indices, weight, count = _collapse_pairs(
        np.concatenate([li, ri]), np.concatenate([ri, li]), np.concatenate([ar, ar]),
        len(volumes))
    return DualGraph(indptr=indptr, indices=indices, edge_weight=weight,
                     vertex_weight=volumes, edge_faces=count)


def _build_edges(mesh: Mesh, faces: FaceSet) -> EdgeSet:
    n = mesh.n_nodes
    raw = np.sort(mesh.elements[:, _TET_EDGES], axis=2).reshape(-1, 2)
    keys = raw[:, 0] * n + raw[:, 1]
    ukeys, inverse = np.unique(keys, return_inverse=True)
    n_edges = len(ukeys)
    nodes = np.column_stack([ukeys // n, ukeys % n])

    elem_of = np.repeat(np.arange(mesh.n_elements), 6)
    # an element may repeat an edge only if degenerate; pairs are unique here
    e_indptr, e_ids = _csr_from_pairs(inverse, elem_of, n_edges)

    fnodes = _face_node_matrix(faces)
    fe = np.sort(fnodes[:, [[0, 1], [0, 2], [1, 2]]], axis=2).reshape(-1, 2)
    fkeys = fe[:, 0] * n + fe[:, 1]
    edge_id = np.searchsorted(ukeys, fkeys)
    face_of = np.repeat(np.arange(faces.n_faces), 3)
    f_indptr, f_ids = _csr_from_pairs(edge_id, face_of, n_edges)

    node_of_edge = nodes.ravel()
    edge_of_node = np.repeat(np.arange(n_edges), 2)
    ne_indptr, ne_ids = _csr_from_pairs(node_of_edge, edge_of_node, n)

    return EdgeSet(nodes=nodes, face_indptr=f_indptr, face_ids=f_ids,
                   elem_indptr=e_indptr, elem_ids=e_ids,
                   node_edge_indptr=ne_indptr, node_edge_ids=ne_ids)


def _enumerate_faces(elements: np.ndarray, dim: int):
    """Distinct (dim-1)-faces of a simplex array, in lexicographic node order.

    Slot ``e * (dim + 1) + i`` is face ``i`` of element ``e`` (the element
    with local node ``i`` removed). Returns the (F, dim) sorted face node
    tuples, the face of each slot, the slots sorted by face with ties in
    element order, and the number of slots on each face.
    """
    pattern = _TRI_FACES if dim == 2 else _TET_FACES
    raw = np.sort(elements[:, pattern], axis=2).reshape(-1, dim)
    order = np.lexsort(raw.T[::-1])  # stable, so ties keep element order
    sraw = raw[order]
    new = np.ones(len(sraw), dtype=bool)
    new[1:] = np.any(sraw[1:] != sraw[:-1], axis=1)
    slot_face = np.empty(len(raw), dtype=np.int64)
    slot_face[order] = np.cumsum(new) - 1
    counts = np.diff(np.append(np.flatnonzero(new), len(sraw)))
    return sraw[new], slot_face, order, counts


def boundary_node_mask(mesh: Mesh) -> np.ndarray:
    """Nodes lying on any boundary face, without full topology extraction."""
    face_nodes, _, _, counts = _enumerate_faces(mesh.elements, mesh.dim)
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    mask[face_nodes[counts == 1]] = True
    return mask


def mesh_metrics(level) -> MeshMetrics:
    """Node/element ratio and average connectivity of a level.

    Average connectivity is the mean, over nodes, of the number of
    elements containing each node. Accepts a Mesh or a LevelTopology.
    """
    if isinstance(level, Mesh):
        level = LevelTopology.from_mesh(level)
    if level.n_elements == 0 or level.n_nodes == 0:
        raise ValueError("empty mesh")
    per_node = np.diff(level.node_elem_indptr)
    return MeshMetrics(
        node_element_ratio=level.n_nodes / level.n_elements,
        average_connectivity=float(per_node.mean()),
        n_nodes=level.n_nodes,
        n_elements=level.n_elements,
        n_faces=level.faces.n_faces,
    )


def generate_mesh(dim: int, n: int, *, extent: float = 10.0, jitter: float = 0.0,
                  seed: int = 0) -> Mesh:
    """Jittered structured simplicial mesh of a box with a centered source box.

    Each square cell is split into 2 triangles (2D); each cube cell into 6
    tetrahedra (3D). ``jitter`` is the displacement amplitude for interior
    nodes as a fraction of the cell width and must stay below 0.5 so no
    element can invert in expectation; if a draw does invert an element the
    amplitude is halved, with a hard error after 5 attempts. Boundary faces
    are tagged per geometric side (1..2*dim). Elements whose centroid falls
    in the centered source box of width ``SOURCE_EXTENT`` get material 0,
    the rest material 1.
    Pure function of (parameters, seed).
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= jitter < 0.5:
        raise ValueError("jitter must be in [0, 0.5) cell widths")

    h = extent / n
    axes = [np.linspace(0.0, extent, n + 1)] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    base = np.stack([g.ravel() for g in grids], axis=1)
    lattice = np.stack(np.meshgrid(*[np.arange(n + 1)] * dim, indexing="ij"),
                       axis=-1).reshape(-1, dim)

    def node_id(idx):
        out = idx[..., 0]
        for a in range(1, dim):
            out = out * (n + 1) + idx[..., a]
        return out

    cells = np.stack(np.meshgrid(*[np.arange(n)] * dim, indexing="ij"),
                     axis=-1).reshape(-1, dim)
    if dim == 2:
        v00 = node_id(cells)
        v10 = node_id(cells + [1, 0])
        v01 = node_id(cells + [0, 1])
        v11 = node_id(cells + [1, 1])
        tris = np.empty((len(cells) * 2, 3), dtype=np.int64)
        tris[0::2] = np.column_stack([v00, v10, v11])
        tris[1::2] = np.column_stack([v00, v11, v01])
        elements = tris
    else:
        corner = {}
        for dx, dy, dz in itertools.product((0, 1), repeat=3):
            corner[(dx, dy, dz)] = node_id(cells + [dx, dy, dz])
        elements = np.empty((len(cells) * 6, 4), dtype=np.int64)
        for t, perm in enumerate(itertools.permutations(range(3))):
            steps = [(0, 0, 0)]
            for axis in perm:
                prev = steps[-1]
                nxt = list(prev)
                nxt[axis] += 1
                steps.append(tuple(nxt))
            tet = np.column_stack([corner[s] for s in steps])
            # odd permutations give negative orientation; swap to fix
            parity = sum(1 for i in range(3) for j in range(i + 1, 3)
                         if perm[i] > perm[j]) % 2
            if parity:
                tet = tet[:, [0, 2, 1, 3]]
            elements[t::6] = tet
        elements = np.ascontiguousarray(elements)

    interior = np.all((lattice > 0) & (lattice < n), axis=1)
    coords = base
    if jitter > 0.0 and interior.any():
        amp = jitter
        for attempt in range(5):
            rng = np.random.Generator(np.random.Philox(seed))
            coords = base.copy()
            coords[interior] += rng.uniform(-amp * h, amp * h,
                                            size=(int(interior.sum()), dim))
            try:
                probe = Mesh(dim=dim, node_coords=coords, elements=elements,
                             material_id=np.zeros(len(elements), dtype=np.int64))
                element_measures(probe)
                break
            except DegenerateElementError:
                amp *= 0.5
        else:
            raise DegenerateElementError(
                "jitter inverted elements even after 5 reductions")

    centroids = coords[elements].mean(axis=1)
    lo = (extent - SOURCE_EXTENT) / 2.0
    hi = (extent + SOURCE_EXTENT) / 2.0
    inside = np.all((centroids >= lo) & (centroids <= hi), axis=1)
    material = np.where(inside, 0, 1).astype(np.int64)

    # tag boundary faces by geometric side, using lattice positions
    face_nodes, _, _, counts = _enumerate_faces(elements, dim)
    boundary_faces = face_nodes[counts == 1]
    tags = {}
    for fnodes in boundary_faces:
        pos = lattice[fnodes]
        for axis in range(dim):
            if np.all(pos[:, axis] == 0):
                tags[tuple(int(v) for v in fnodes)] = 2 * axis + 1
                break
            if np.all(pos[:, axis] == n):
                tags[tuple(int(v) for v in fnodes)] = 2 * axis + 2
                break
    return Mesh(dim=dim, node_coords=coords, elements=elements,
                material_id=material, boundary_tag=tags)
