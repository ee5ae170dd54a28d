"""Simplicial meshes: types, topology extraction, generation, and metrics.

The mesh is the finest level of the multigrid stack. Everything the
coarsening and hierarchy code needs from a level -- faces, edges (3D),
the element dual graph, node incidence and geometric measures -- is
bundled into a :class:`LevelTopology`, which is also how coarse levels
are represented, so the same coarsening code runs on every level.

Integer tuples are grouped by sorting one packed int64 key per tuple:
``a * n + b`` for a pair, ``(a * n + b) * n + c`` for a triangle's sorted
nodes. :func:`_unique_pairs` gives the distinct pairs in ascending order,
and :func:`_collapse_pairs` gives the CSR of the distinct pairs with their
weights summed and their repeats counted. Where the order of a stable sort
is needed too, :func:`_sort_keys` packs each key's index into its low bits,
so one plain ``np.sort`` gives both: several times faster than a stable
argsort or a multi-column ``np.lexsort`` on keys in no particular order.
One packed sort groups pairs into a CSR (:func:`_csr_from_pairs`); keys
that arrive grouped need none, only :func:`_indptr`. numpy's hash-based
``np.unique`` is far slower. A 3D face key addresses node ids below
2**21 = 2,097,152, and a mesh whose elements name a higher id raises
:class:`MeshSizeError`; :func:`_order_by` falls back to ``np.lexsort``
where a two-field key would overflow.
"""
from __future__ import annotations

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
# the positively oriented simplices generate_mesh cuts a lattice cell into,
# as corner offsets: 2 triangles per square, and 6 Kuhn tetrahedra per cube,
# one per path from (0,0,0) to (1,1,1) along the axes
_CELL_SIMPLICES = {
    2: np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]),
    3: np.array([[(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
                 [(0, 0, 0), (1, 0, 1), (1, 0, 0), (1, 1, 1)],
                 [(0, 0, 0), (1, 1, 0), (0, 1, 0), (1, 1, 1)],
                 [(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)],
                 [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)],
                 [(0, 0, 0), (0, 1, 1), (0, 0, 1), (1, 1, 1)]]),
}


class TopologyError(ValueError):
    """Mesh connectivity violates the conforming-mesh contract."""


class DegenerateElementError(ValueError):
    """An element has zero or negative measure."""


class MeshSizeError(ValueError):
    """The mesh names more nodes than a packed int64 face key can address."""


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
    tuple, to an integer side tag. Interior faces carry no tag. The
    constructor checks dim, the shapes of ``node_coords`` (n_nodes, dim),
    ``elements`` (n_elements, dim + 1) and ``material_id`` (n_elements,),
    node ids and that every coordinate is finite; an empty mesh or a
    degenerate element is rejected where topology and measures are
    computed.
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
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.node_coords.ndim != 2 or self.node_coords.shape[1] != self.dim:
            raise ValueError(f"a {self.dim}D node has {self.dim} coordinates, got "
                             f"node_coords of shape {self.node_coords.shape}")
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise ValueError(f"a {self.dim}D element has {self.dim + 1} nodes, got "
                             f"elements of shape {self.elements.shape}")
        if self.material_id.shape != (self.n_elements,):
            raise ValueError(f"material_id has shape {self.material_id.shape}, not one "
                             f"entry per element ({self.n_elements},)")
        bad = ((self.elements < 0) | (self.elements >= self.n_nodes)).any(axis=1)
        if bad.any():
            e = int(np.argmax(bad))
            raise ValueError(f"element {e} names nodes {self.elements[e].tolist()}, "
                             f"not all in 0..{self.n_nodes - 1}")
        finite = np.isfinite(self.node_coords)
        if not finite.all():
            v = int(np.argmin(finite.all(axis=1)))
            raise ValueError(f"node {v} has a non-finite coordinate "
                             f"{self.node_coords[v].tolist()}")

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class MeshMetrics:
    node_element_ratio: float
    average_connectivity: float


def _sort_keys(keys, bound):
    """Sorted integer ``keys`` in [0, ``bound``) and the order of their stable
    argsort. While ``bound`` times the least power of two >= the key count
    fits in int64, each key carries its index in its low bits and one
    ``np.sort`` does the work; beyond that a stable argsort does."""
    keys = np.asarray(keys, dtype=np.int64)
    shift = max(len(keys) - 1, 0).bit_length()
    if bound <= 1 << (63 - shift):
        packed = np.sort((keys << shift) | np.arange(len(keys)))
        return packed >> shift, packed & ((1 << shift) - 1)
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _order_by(major, minor, minor_bound):
    """The order of a stable sort by (``major``, ``minor``), both integer
    arrays with ``0 <= minor < minor_bound``: one packed sort while the key
    ``major * minor_bound + minor`` fits in int64, else ``np.lexsort``."""
    bound = (int(major.max(initial=0)) + 1) * minor_bound
    if bound <= 2 ** 63:
        return _sort_keys(major * minor_bound + minor, bound)[1]
    return np.lexsort((minor, major))


def _indptr(keys, n_keys):
    indptr = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=indptr[1:])
    return indptr


def _csr_from_pairs(keys, values, n_keys):
    """Group ``values`` by integer ``keys`` in [0, ``n_keys``) into CSR
    (indptr, data) arrays, each row in input order, by one packed sort."""
    return _indptr(keys, n_keys), np.asarray(values)[_sort_keys(keys, n_keys)[1]]


def _unique_pairs(a, b, n):
    """The distinct pairs ``(a[i], b[i])``, with ``0 <= b[i] < n``, ascending
    by (a, b)."""
    n = max(int(n), 1)
    key = a * n + b
    key.sort()
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    key = key[new]
    return key // n, key % n


def _collapse_pairs(src, dst, weight, n):
    """CSR (indptr, indices) of the distinct pairs of ids in [0, n), each
    pair's weights summed in input order, and each pair's repeat count."""
    key, order = _sort_keys(src * n + dst, n * n)
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    key = key[first]
    return (_indptr(key // n, n), key % n,
            np.bincount(inverse, weights=weight, minlength=len(key)),
            np.diff(np.flatnonzero(first), append=len(inverse)))


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


def _row_sums(indptr, values) -> np.ndarray:
    """Per-row sums of CSR ``values`` with the bits of ``values[row].sum()``,
    which adds fewer than eight terms in order (as bincount) and more pairwise."""
    counts = np.diff(indptr)
    sums = np.bincount(np.repeat(np.arange(len(counts)), counts), weights=values,
                       minlength=len(counts))
    for r in np.flatnonzero(counts >= 8):
        sums[r] = values[indptr[r]:indptr[r + 1]].sum()
    return sums


def _components(src, dst, n) -> np.ndarray:
    """Connected-component label of each of ``n`` vertices under the edges
    ``src[i] - dst[i]``, numbered in order of first appearance."""
    # symmetric and duplicate-free: on such a graph the strong components
    # are the connected ones, and scipy finds them without the transposes
    # its undirected path builds (repeated entries make its search hang)
    a, b = _unique_pairs(np.concatenate([src, dst]), np.concatenate([dst, src]), n)
    graph = sp.csr_matrix((np.ones(len(a)), b, _indptr(a, n)), shape=(n, n))
    _, labels = csgraph.connected_components(graph, directed=True, connection="strong")
    return _first_appearance(labels)


def _pieces(indptr, indices, labels):
    """The component of each vertex of a CSR graph within its class of equal
    ``labels`` (numbered as by :func:`_components`), and the labels,
    ascending, whose class falls into more than one piece."""
    n = len(labels)
    src = np.repeat(np.arange(n), np.diff(indptr))
    same = labels[src] == labels[indices]
    pieces = _components(src[same], indices[same], n)
    return pieces, np.flatnonzero(np.bincount(_unique_pairs(labels, pieces, n)[0]) > 1)


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
    """Label -> summed ``weight`` (in entry order) of the CSR entries by which
    ``members`` reach it; unlabelled (negative) neighbours and ``exclude`` do
    not count. Takes lists or memoryviews, which yield plain numbers."""
    tally = {}
    for e in members:
        for j in range(indptr[e], indptr[e + 1]):
            b = labels[indices[j]]
            if b >= 0 and b != exclude:
                tally[b] = tally.get(b, 0) + weight[j]
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
    """All (dim-1)-faces of one level, with their nodes and their two sides.

    Node lists are ragged (CSR layout) so the same container also holds
    coarse faces, whose node sets are the coarse nodes lying on them. The
    node -> face incidence is their transpose, and the element -> face
    incidence that of ``left`` and the interior ``right``; both are taken
    where they are read.
    """

    node_indptr: np.ndarray
    node_ids: np.ndarray
    left: np.ndarray
    right: np.ndarray     # BOUNDARY (-1) for boundary faces
    area: np.ndarray
    tag: np.ndarray       # -1 for interior faces

    @property
    def n_faces(self) -> int:
        return self.left.shape[0]

    @property
    def interior(self) -> np.ndarray:
        return self.right >= 0


@dataclass
class EdgeSet:
    """Edges of a 3D level: node pair and incident faces. The node -> edge
    incidence is the transpose of ``nodes``, and an edge's elements are
    the sides of its faces; both are taken where they are read."""

    nodes: np.ndarray           # (E, 2) endpoint node ids
    face_indptr: np.ndarray
    face_ids: np.ndarray

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


@dataclass
class LevelTopology:
    """Everything the coarsening machinery needs from one grid level.

    Element volumes are the dual graph's vertex weights. Every level, the
    finest one too, is built by :meth:`from_faces`, which derives the dual
    graph, the element boundary areas and the boundary nodes from the faces.
    A level stores no element -> face or edge -> element list: the jones
    and kraus sweeps derive them from the face sides.
    """

    dim: int
    n_elements: int
    n_nodes: int
    elem_boundary_area: np.ndarray
    faces: FaceSet
    edges: EdgeSet | None
    dual: DualGraph
    node_elem_indptr: np.ndarray
    node_elem_ids: np.ndarray
    node_boundary: np.ndarray

    @classmethod
    def from_faces(cls, dim: int, faces: FaceSet, volumes: np.ndarray,
                   node_elem: tuple, edges: EdgeSet | None = None) -> "LevelTopology":
        """A level of element ``volumes`` bounded by ``faces``, with the
        node -> element CSR ``node_elem`` (indptr, ids).

        Parallel faces between the same element pair collapse into one dual
        edge weighted by their summed area.
        """
        n_elements, n_nodes = len(volumes), len(node_elem[0]) - 1
        interior = faces.interior
        li, ri, ar = faces.left[interior], faces.right[interior], faces.area[interior]
        indptr, indices, weight, count = _collapse_pairs(
            np.concatenate([li, ri]), np.concatenate([ri, li]), np.concatenate([ar, ar]),
            n_elements)
        bd = ~interior
        node_bd = np.zeros(n_nodes, dtype=bool)
        node_bd[faces.node_ids[np.repeat(bd, np.diff(faces.node_indptr))]] = True
        return cls(dim=dim, n_elements=n_elements, n_nodes=n_nodes,
                   elem_boundary_area=np.bincount(faces.left[bd], weights=faces.area[bd],
                                                  minlength=n_elements),
                   faces=faces, edges=edges,
                   dual=DualGraph(indptr=indptr, indices=indices, edge_weight=weight,
                                  vertex_weight=volumes, edge_faces=count),
                   node_elem_indptr=node_elem[0], node_elem_ids=node_elem[1],
                   node_boundary=node_bd)

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "LevelTopology":
        """The finest level of a conforming mesh.

        Every distinct (dim-1)-simplex of every element is enumerated exactly
        once; a face shared by more than two elements is a topology error.
        """
        if mesh.n_elements == 0:
            raise ValueError("empty mesh")
        dim = mesh.dim
        k = dim + 1
        face_nodes, order, counts = _enumerate_faces(mesh.elements, dim)
        n_faces = len(face_nodes)
        if counts.max() > 2:
            f = int(np.argmax(counts > 2))
            raise TopologyError(
                f"face {tuple(int(v) for v in face_nodes[f])} is shared by {counts[f]} "
                "elements"
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
        bd = right == BOUNDARY
        tag[bd] = [mesh.boundary_tag.get(tuple(f), 0) for f in face_nodes[bd].tolist()]

        faces = FaceSet(node_indptr=np.arange(0, n_faces * dim + 1, dim, dtype=np.int64),
                        node_ids=face_nodes.ravel().copy(),
                        left=left, right=right, area=area, tag=tag)
        node_elem = _csr_from_pairs(mesh.elements.ravel(),
                                     np.repeat(np.arange(mesh.n_elements), k),
                                     mesh.n_nodes)
        return cls.from_faces(dim, faces, element_measures(mesh), node_elem,
                              _build_edges(mesh, face_nodes) if dim == 3 else None)


def _signed_measures(coords: np.ndarray, elements: np.ndarray, dim: int) -> np.ndarray:
    """Signed simplex measures: negative for an inverted element."""
    x = coords[elements]
    if dim == 2:
        d1 = x[:, 1] - x[:, 0]
        d2 = x[:, 2] - x[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    return np.linalg.det(x[:, 1:] - x[:, 0:1]) / 6.0


def element_measures(mesh: Mesh) -> np.ndarray:
    """Signed simplex measures, validated positive.

    Raises DegenerateElementError naming the first offending element.
    """
    vol = _signed_measures(mesh.node_coords, mesh.elements, mesh.dim)
    bad = np.flatnonzero(vol <= 0.0)
    if bad.size:
        raise DegenerateElementError(
            f"element {bad[0]} has non-positive measure {vol[bad[0]]:.3e}"
        )
    return vol


def _face_areas(mesh: Mesh, face_nodes: np.ndarray) -> np.ndarray:
    """Face lengths (2D) or areas (3D), with the bits of ``np.linalg.norm``
    (of ``np.cross`` in 3D): the same products, summed in the same order."""
    x = mesh.node_coords
    if mesh.dim == 2:
        d0, d1 = (x[face_nodes[:, 1]] - x[face_nodes[:, 0]]).T
        return np.sqrt(d0 * d0 + d1 * d1)
    o = x[face_nodes[:, 0]]
    u, v = (x[face_nodes[:, 1]] - o).T, (x[face_nodes[:, 2]] - o).T
    c0 = u[1] * v[2] - u[2] * v[1]
    c1 = u[2] * v[0] - u[0] * v[2]
    c2 = u[0] * v[1] - u[1] * v[0]
    return 0.5 * np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)


def _build_edges(mesh: Mesh, face_nodes: np.ndarray) -> EdgeSet:
    """Edges of a tet mesh, given its (F, 3) sorted face node tuples.

    Every edge of a tet lies on its faces. The edges of each face, (a, b),
    (a, c) and (b, c), are sorted already; one sort of their keys numbers
    the edges and lists each edge's faces, ascending, since a group's slots
    keep their input order.
    """
    n = mesh.n_nodes
    a, b, c = face_nodes.T
    keys, order = _sort_keys(
        np.column_stack([a * n + b, a * n + c, b * n + c]).ravel(), n * n)
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    ukeys = keys[new]
    return EdgeSet(nodes=np.column_stack([ukeys // n, ukeys % n]),
                   face_indptr=np.append(np.flatnonzero(new), len(keys)),
                   face_ids=order // 3)


def _enumerate_faces(elements: np.ndarray, dim: int):
    """Distinct (dim-1)-faces of a simplex array, in lexicographic node order.

    Slot ``e * (dim + 1) + i`` is face ``i`` of element ``e`` (the element
    with local node ``i`` removed). Returns the (F, dim) sorted face node
    tuples, the slots sorted by face with ties in element order, and the
    number of slots on each face.

    Each slot's nodes are sorted by min/max and grouped by one packed key,
    so node ids must stay below ``floor(2**(63/dim))``: 2**21 in 3D.
    """
    n = int(elements.max()) + 1 if elements.size else 1
    if n ** dim > 2 ** 63:
        raise MeshSizeError(
            f"elements name {n:,} node ids; {dim}D faces are grouped by packed int64 "
            f"keys, which address at most {int(2 ** (63 / dim)):,}")
    pattern = _TRI_FACES if dim == 2 else _TET_FACES
    cols = elements[:, pattern].reshape(-1, dim)
    if dim == 2:
        sorted_cols = np.minimum(*cols.T), np.maximum(*cols.T)
    else:
        x, y, z = cols.T
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        sorted_cols = (np.minimum(lo, z), np.maximum(lo, np.minimum(hi, z)),
                       np.maximum(hi, z))
    key = sorted_cols[0]
    for col in sorted_cols[1:]:
        key = key * n + col
    skey, order = _sort_keys(key, n ** dim)
    new = np.ones(len(skey), dtype=bool)
    new[1:] = skey[1:] != skey[:-1]
    starts = np.flatnonzero(new)
    first = order[starts]
    face_nodes = np.column_stack([col[first] for col in sorted_cols])
    return face_nodes, order, np.diff(starts, append=len(skey))


def boundary_node_mask(mesh: Mesh) -> np.ndarray:
    """Nodes lying on any boundary face, without full topology extraction."""
    face_nodes, _, counts = _enumerate_faces(mesh.elements, mesh.dim)
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    mask[face_nodes[counts == 1]] = True
    return mask


def mesh_metrics(level: LevelTopology) -> MeshMetrics:
    """Node/element ratio and average connectivity of a level.

    Average connectivity is the mean, over nodes, of the number of
    elements containing each node.
    """
    if level.n_elements == 0 or level.n_nodes == 0:
        raise ValueError("empty mesh")
    per_node = np.diff(level.node_elem_indptr)
    return MeshMetrics(
        node_element_ratio=level.n_nodes / level.n_elements,
        average_connectivity=float(per_node.mean()),
    )


def generate_mesh(dim: int, n: int, *, extent: float = 10.0, jitter: float = 0.0,
                  seed: int = 0) -> Mesh:
    """Jittered structured simplicial mesh of a box with a centered source box.

    The box is [0, ``extent``] along each axis, ``extent`` finite and > 0,
    cut into ``n`` cells per side. Each square cell is split into 2
    triangles (2D); each cube cell into 6 tetrahedra (3D). ``jitter`` is
    the displacement amplitude for interior nodes as a fraction of the cell
    width and must stay below 0.5 so no element can invert in expectation;
    if a draw does invert an element the amplitude is halved, with a hard
    error after 5 attempts. Boundary faces are tagged per geometric side:
    1 and 2 for low and high x, 3 and 4 for y, 5 and 6 for z. Elements
    whose centroid falls in the centered source box of width
    ``SOURCE_EXTENT`` get material 0, the rest material 1. Pure function of
    (parameters, seed).
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= jitter < 0.5:
        raise ValueError("jitter must be in [0, 0.5) cell widths")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not (np.isfinite(extent) and extent > 0):
        raise ValueError(f"extent must be finite and > 0, got {extent}")

    h = extent / n
    lattice = np.stack(np.meshgrid(*[np.arange(n + 1)] * dim, indexing="ij"),
                       axis=-1).reshape(-1, dim)
    base = np.linspace(0.0, extent, n + 1)[lattice]
    cells = lattice[(lattice < n).all(axis=1)]
    stride = (n + 1) ** np.arange(dim - 1, -1, -1)   # node id = lattice @ stride
    corners = cells[:, None, None, :] + _CELL_SIMPLICES[dim]
    elements = (corners @ stride).reshape(-1, dim + 1)

    interior = np.all((lattice > 0) & (lattice < n), axis=1)
    coords = base
    if jitter > 0.0 and interior.any():
        amp = jitter
        for _ in range(5):
            rng = np.random.Generator(np.random.Philox(seed))
            coords = base.copy()
            coords[interior] += rng.uniform(-amp * h, amp * h,
                                            size=(int(interior.sum()), dim))
            if (_signed_measures(coords, elements, dim) > 0).all():
                break
            amp *= 0.5
        else:
            raise DegenerateElementError(
                "jitter inverted elements even after 5 reductions")

    centroids = coords[elements].mean(axis=1)
    lo = (extent - SOURCE_EXTENT) / 2.0
    hi = (extent + SOURCE_EXTENT) / 2.0
    inside = np.all((centroids >= lo) & (centroids <= hi), axis=1)
    material = np.where(inside, 0, 1).astype(np.int64)

    # tag each boundary face by the first side, in the order low x, high x,
    # low y, ..., that holds all its lattice positions
    face_nodes, _, counts = _enumerate_faces(elements, dim)
    boundary_faces = face_nodes[counts == 1]
    pos = lattice[boundary_faces]
    on_side = np.stack([(pos == 0).all(axis=1), (pos == n).all(axis=1)], axis=2)
    tags = dict(zip(map(tuple, boundary_faces.tolist()),
                    (on_side.reshape(len(pos), -1).argmax(axis=1) + 1).tolist()))
    return Mesh(dim=dim, node_coords=coords, elements=elements,
                material_id=material, boundary_tag=tags)
