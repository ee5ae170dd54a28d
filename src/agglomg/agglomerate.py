"""The seven element-coarsening algorithms, cleanup, and agglomerate statistics.

:func:`coarsen` is the one entry point and the one place that runs
:func:`cleanup` (besides aspect, which cleans its greedy start). Each
algorithm is a private function mapping one grid level (a
:class:`~agglomg.mesh.LevelTopology`) to a raw element -> agglomerate array
(-1 = unassigned); ``coarsen`` cleans that once, so every result is total,
contiguous and densely numbered. Cleanup's frontier loop is the one loop
that attaches unassigned elements, rgb's grey fringe among them.
Weighted-face growth (jones, kraus) is deterministic: one growth kernel,
:func:`_grow`, follows maximal-weight faces or edges (the 3D kraus edge
phase), and each sweep builds its adjacency arrays as off-diagonal
patterns of sparse incidence products, and the element -> face and edge
-> element lists from the face sides. Its queue of starts is a heap of
the entities of positive weight, each pushed once per agglomerate that
bumps it, after that agglomerate is done, plus a forward-only cursor over
the entities of weight 0; it pops in the same (-weight, id) order as a
heap pushed on every bump, with a few times fewer entries. The sequential
loops (growth, the rgb, node and greedy visits, aspect's moves, cleanup's
attachments) visit one entry at a time, on lists and memoryviews, which
yield plain numbers: numpy scalar indexing costs about twice as much. The
randomized algorithms draw an explicit 64-bit seed through a counter-based
generator, never global RNG state.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import (LevelTopology, _best_neighbour, _components, _csr_from_pairs,
                   _first_appearance, _gather_ragged, _indptr, _induced_components,
                   _neighbour_weights, _row_sums, _unique_pairs)
from . import partitioner

ALGORITHMS = ("jones", "kraus", "rgb", "node", "greedy", "sizebased", "aspect")
SIZE_BASED = ("greedy", "sizebased", "aspect")

ASPECT_MAX_PASSES = 10


@dataclass(frozen=True)
class CoarsenConfig:
    """Which algorithm to run, its desired agglomerate size, and the seed.

    ``desired_size`` only matters for the size-based algorithms (greedy,
    sizebased, aspect); jones/kraus/rgb/node ignore it.
    """

    algorithm: str
    desired_size: int | None = None
    seed: int = 0

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.algorithm in SIZE_BASED:
            if self.desired_size is None or self.desired_size < 2:
                raise ValueError(
                    f"{self.algorithm} needs desired_size >= 2, got {self.desired_size}")


@dataclass
class Agglomeration:
    """Element -> agglomerate id map for one coarsening step (-1 = unassigned)."""

    element_to_agg: np.ndarray

    def __post_init__(self):
        self.element_to_agg = np.asarray(self.element_to_agg, dtype=np.int64)

    @property
    def n_elements(self) -> int:
        return self.element_to_agg.shape[0]

    @property
    def n_agglomerates(self) -> int:
        return int(self.element_to_agg.max()) + 1 if self.n_elements else 0

    def is_total(self) -> bool:
        return bool((self.element_to_agg >= 0).all())


@dataclass
class CleanupReport:
    unused_attached: int = 0
    isolated_resolved: int = 0
    disconnected_split: int = 0
    enclosed_merged: int = 0


@dataclass
class AgglomerateStats:
    average_size: float
    mean_surface_sq_over_volume: float
    edge_cut: int


# ---------------------------------------------------------------------------
# shared incidence helpers

def _group_pairs(indptr, ids):
    """All ordered (a, b), a != b pairs inside each CSR group."""
    counts = np.diff(indptr)
    # each member is followed by its whole group, in group order
    dst, reps = _gather_ragged(indptr, ids, np.repeat(np.arange(len(counts)), counts))
    src = np.repeat(ids, reps)
    keep = src != dst
    return src[keep], dst[keep]


def _incidence(indptr, ids, n_cols, data=None):
    """Sparse matrix of a CSR's pattern: ones, or ``data`` (one value per
    entry) with the zeros dropped."""
    data = np.ones(len(ids)) if data is None else data.astype(float)
    m = sp.csr_matrix((data, ids, indptr), shape=(len(indptr) - 1, n_cols))
    m.eliminate_zeros()
    return m


def _co_counts(incidence):
    """For each pair of columns, the number of rows of a 0/1 ``incidence``
    that hold both: the sparse product I^T I, with sorted indices."""
    counts = (incidence.T @ incidence).tocsr()
    counts.sort_indices()
    return counts


def _off_diagonal(counts, min_count=1):
    """CSR (indptr, indices) of the off-diagonal entries of a square sparse
    matrix with sorted indices that reach ``min_count``."""
    n = counts.shape[0]
    rows = np.repeat(np.arange(n), np.diff(counts.indptr))
    keep = (counts.indices != rows) & (counts.data >= min_count)
    return _indptr(rows[keep], n), counts.indices[keep].astype(np.int64)


def _face_adjacency(topo: LevelTopology):
    """CSR of interior-face neighbourships (shared node in 2D, edge in 3D).

    On coarse levels the face node sets are coarse nodes and the same rule
    applies: at least one shared node in 2D, at least two in 3D.
    """
    faces, edges = topo.faces, topo.edges
    if topo.dim == 3 and edges is not None:
        edge_faces = _incidence(edges.face_indptr, edges.face_ids, faces.n_faces,
                                faces.interior[edges.face_ids])
        return _off_diagonal(_co_counts(edge_faces), 1)
    # the node -> face incidence: the transpose of the interior faces' node lists
    face_nodes = _incidence(faces.node_indptr, faces.node_ids, topo.n_nodes,
                            np.repeat(faces.interior, np.diff(faces.node_indptr)))
    return _off_diagonal(_co_counts(face_nodes.T), topo.dim - 1)


def _element_faces(topo: LevelTopology):
    """CSR element -> face, the transpose of the face sides: each row lists
    the faces an element is the left side of, then those it is the right
    side of, each ascending."""
    faces = topo.faces
    inner = np.flatnonzero(faces.interior)
    return _csr_from_pairs(np.concatenate([faces.left, faces.right[inner]]),
                           np.concatenate([np.arange(faces.n_faces), inner]),
                           topo.n_elements)


def _edge_elements(topo: LevelTopology):
    """CSR edge -> element (3D): the distinct sides of each edge's faces,
    ascending."""
    edges, faces = topo.edges, topo.faces
    edge_of = np.tile(np.repeat(np.arange(edges.n_edges), np.diff(edges.face_indptr)), 2)
    sides = np.concatenate([faces.left[edges.face_ids], faces.right[edges.face_ids]])
    on = sides >= 0
    edge, elem = _unique_pairs(edge_of[on], sides[on], topo.n_elements)
    return _indptr(edge, edges.n_edges), elem


def _element_companion_faces(topo: LevelTopology, elem_faces):
    """CSR: for each interior face, the other interior faces of its elements
    (once per element they share), from the element -> face CSR
    ``elem_faces``."""
    faces = topo.faces
    src, dst = _group_pairs(*elem_faces)
    keep = faces.interior[src] & faces.interior[dst]
    return _csr_from_pairs(src[keep], dst[keep], faces.n_faces)


# ---------------------------------------------------------------------------
# jones / kraus : weighted-face (and edge) growth

def _grow(weight, assign, next_id, elements, bumps, pool, clears, side=None):
    """Grow agglomerates along maximal-weight entities (faces or edges).

    Each CSR argument is an (indptr, ids) pair. The heaviest live entity
    (weight >= 0, lowest id on ties) starts an agglomerate that claims its
    free ``elements``. The current entity is consumed (weight -1), every
    live entity in its ``bumps`` rows gains one, and ``side``, a (weights,
    CSR) pair of other entities, adds one to the live ones of its row.
    Growth then follows the heaviest entity of the ``pool`` row (lowest id
    on ties) while it weighs at least as much as the current one. On
    completion each (weights, element CSR) pair in ``clears`` consumes the
    entities of the agglomerate's elements.

    The starts come from a heap of (-weight, id) entries and a cursor. The
    heap holds the entities of weight > 0: the initial ones, and each live
    entity an agglomerate bumped, pushed once at its final weight after the
    agglomerate's clears. An entry whose weight no longer matches is stale
    and skipped, so at every pop each live entity of weight > 0 has exactly
    one current entry. When none is left, every live entity weighs 0, and
    the start is the lowest-id one. A forward-only cursor finds it, since a
    weight that leaves 0 never returns to it: bumps raise it and
    consumption sets it to -1.

    Growth reads no weights but ``weight``, and a consumed entity never
    lives again. So the loop applies only the clears of ``weight``; the
    clears of other weights and the side bumps are applied once, after
    it, to the elements it claimed and the entities it consumed: a side
    entity still live then takes one for each of its rows' steps.

    The loop is sequential and runs on plain ints, as numpy scalar indexing
    costs about twice as much: ``weight`` and ``assign`` become lists,
    written back at the end; the CSRs are read through memoryviews.
    Mutates the weights and ``assign``; returns the next id.
    """
    w, owner = weight.tolist(), assign.tolist()
    ep, ei = map(memoryview, elements)
    bump_rows = [tuple(map(memoryview, csr)) for csr in bumps]
    pp, pi = map(memoryview, pool)
    clear_rows = [tuple(map(memoryview, csr)) for cw, csr in clears if cw is weight]
    heap = [(-wi, i) for i, wi in enumerate(w) if wi > 0]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    cursor = 0
    steps, claimed = [], []
    while True:
        while heap:
            negw, i = heappop(heap)
            if w[i] == -negw:
                break  # current entry; others are stale
        else:
            try:
                i = cursor = w.index(0, cursor)
            except ValueError:
                break  # no live entity left
        aid = next_id
        next_id += 1
        members = []
        bumped = set()
        while True:
            w_max = w[i]
            w[i] = -1
            steps.append(i)
            for e in ei[ep[i]:ep[i + 1]]:
                if owner[e] < 0:
                    owner[e] = aid
                    members.append(e)
            for bp, bi in bump_rows:
                for j in bi[bp[i]:bp[i + 1]]:
                    if w[j] >= 0:
                        w[j] += 1
                        bumped.add(j)
            best, best_w = -1, -1
            for j in pi[pp[i]:pp[i + 1]]:
                wj = w[j]
                if wj > best_w or (wj == best_w and j < best):
                    best, best_w = j, wj
            if best < 0 or best_w < w_max:
                break
            i = best
        for cp, ci in clear_rows:
            for e in members:
                for f in ci[cp[e]:cp[e + 1]]:
                    w[f] = -1
        claimed += members
        for j in bumped:
            if w[j] > 0:
                heappush(heap, (-w[j], j))
    weight[:] = w
    assign[:] = owner
    for cw, (cp, ci) in clears:
        if cw is not weight:
            cw[_gather_ragged(cp, ci, claimed)[0]] = -1
    if side is not None:
        side_w, (sp_, si) = side
        hits = np.bincount(_gather_ragged(sp_, si, steps)[0], minlength=len(side_w))
        side_w += np.where(side_w >= 0, hits, 0)
    return next_id


def _face_sweep(topo, adj, elem_faces, face_w, assign, next_id, restrict_g):
    """Grow agglomerates along maximal-weight interior faces.

    A face is bumped by its adjacent faces (``adj``, from
    :func:`_face_adjacency`) and by the other faces of its elements
    (``elem_faces``, from :func:`_element_faces`). ``restrict_g`` confines
    the growth-face choice to faces sharing an element with the current
    face (the kraus variant).
    """
    faces = topo.faces
    companions = _element_companion_faces(topo, elem_faces)
    sides = (np.arange(0, 2 * faces.n_faces + 1, 2),
             np.column_stack([faces.left, faces.right]).ravel())
    return _grow(face_w, assign, next_id, sides, [adj, companions],
                 companions if restrict_g else adj, [(face_w, elem_faces)])


def _jones(topo):
    """Deterministic growth along maximal-weight interior faces."""
    face_w = np.where(topo.faces.interior, 0, -1).astype(np.int64)
    assign = np.full(topo.n_elements, -1, dtype=np.int64)
    _face_sweep(topo, _face_adjacency(topo), _element_faces(topo), face_w, assign, 0,
                restrict_g=False)
    return assign


def _kraus(topo):
    """Edge-weighted growth (3D) with a restricted face phase afterwards.

    In 2D only the face phase runs; unlike jones, the growth face must
    share an element with the current one. Both phases read one face
    adjacency and one element -> face CSR.
    """
    face_w = np.where(topo.faces.interior, 0, -1).astype(np.int64)
    assign = np.full(topo.n_elements, -1, dtype=np.int64)
    adj, elem_faces = _face_adjacency(topo), _element_faces(topo)
    next_id = 0
    if topo.dim == 3 and topo.edges is not None and topo.edges.n_edges:
        edge_w = np.zeros(topo.edges.n_edges, dtype=np.int64)
        next_id = _edge_sweep(topo, adj, elem_faces, edge_w, face_w, assign, next_id)
    _face_sweep(topo, adj, elem_faces, face_w, assign, next_id, restrict_g=True)
    return assign


def _edge_sweep(topo, face_adj, elem_faces, edge_w, face_w, assign, next_id):
    """Grow agglomerates along maximal-weight edges (3D kraus).

    An edge is bumped by the edges sharing a node with it, once more by
    those that also share a face, and follows the latter; each step also
    bumps the faces adjacent to the current edge's faces, once each. A
    finished agglomerate consumes its elements' edges and faces
    (``elem_faces``, from :func:`_element_faces`).
    """
    edges, faces = topo.edges, topo.faces
    edge_faces = _incidence(edges.face_indptr, edges.face_ids, faces.n_faces)
    adj, shared = _edge_adjacency(topo, edge_faces)
    # the distinct faces adjacent to each edge's faces: the pattern of the
    # product of the edge -> face and face -> face incidences
    near_faces = edge_faces @ _incidence(*face_adj, faces.n_faces)
    edge_elems = _edge_elements(topo)
    clears = [(edge_w, _invert_csr(*edge_elems, topo.n_elements)), (face_w, elem_faces)]
    return _grow(edge_w, assign, next_id, edge_elems,
                 [adj, shared], shared, clears,
                 side=(face_w, (near_faces.indptr, near_faces.indices)))


def _edge_adjacency(topo, edge_faces):
    """CSRs of the edges sharing a node with each edge, and of those of
    them that also share a face (``edge_faces``, the edge -> face
    incidence): off-diagonal products of the incidences. The node -> edge
    incidence is the transpose of the edges' end-node rows."""
    by_node = _co_counts(_incidence(np.arange(0, 2 * topo.edges.n_edges + 1, 2),
                                    topo.edges.nodes.ravel(), topo.n_nodes).T)
    by_face = _co_counts(edge_faces.T.tocsr())
    both = by_node.multiply(by_face).tocsr()
    both.sort_indices()
    return _off_diagonal(by_node), _off_diagonal(both)


def _invert_csr(indptr, ids, n_targets):
    """Invert a CSR mapping a->b into b->a."""
    src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return _csr_from_pairs(np.asarray(ids), src, n_targets)


# ---------------------------------------------------------------------------
# rgb / node / greedy

def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _rgb(topo, seed):
    """Red-green-black colouring: random seeds absorb their whole neighbourhood.

    Each element left uncoloured, in seeded random order, turns black and
    starts an agglomerate; its uncoloured and grey neighbours turn red and
    join it, and their uncoloured neighbours turn grey. The grey fringe
    stays -1: every grey borders a red, so :func:`cleanup`'s first frontier
    holds all of them and attaches them by its rule.
    """
    indptr, indices = memoryview(topo.dual.indptr), memoryview(topo.dual.indices)
    n = topo.n_elements
    assign, grey = [-1] * n, [False] * n   # assign: black and red elements
    next_id = 0
    for e in _rng(seed).permutation(n).tolist():
        if assign[e] >= 0 or grey[e]:
            continue
        reds = [nb for nb in indices[indptr[e]:indptr[e + 1]] if assign[nb] < 0]
        for r in (e, *reds):
            assign[r] = next_id
        for r in reds:
            for nb in indices[indptr[r]:indptr[r + 1]]:
                if assign[nb] < 0:
                    grey[nb] = True
        next_id += 1
    return np.array(assign, dtype=np.int64)


def _node(topo, seed):
    """Each selected unused node claims every element sharing it.

    Interior nodes are visited in seeded random order before boundary
    nodes; claimed elements mark all their nodes used.
    """
    n = topo.n_elements
    node_ptr, node_elems, elem_ptr, elem_nodes = map(memoryview, (
        topo.node_elem_indptr, topo.node_elem_ids,
        *_invert_csr(topo.node_elem_indptr, topo.node_elem_ids, n)))
    assign = [-1] * n
    node_used = [False] * topo.n_nodes
    rng = _rng(seed)
    interior = np.flatnonzero(~topo.node_boundary)
    boundary = np.flatnonzero(topo.node_boundary)
    order = np.concatenate([rng.permutation(interior), rng.permutation(boundary)])
    next_id = 0
    for node in order.tolist():
        if node_used[node]:
            continue
        elems = [e for e in node_elems[node_ptr[node]:node_ptr[node + 1]] if assign[e] < 0]
        node_used[node] = True
        if not elems:
            continue
        for e in elems:
            assign[e] = next_id
            for m in elem_nodes[elem_ptr[e]:elem_ptr[e + 1]]:
                node_used[m] = True
        next_id += 1
    return np.array(assign, dtype=np.int64)


def _greedy(topo, s, seed):
    """Breadth-first absorption of unused neighbours up to the desired size."""
    indptr, indices = memoryview(topo.dual.indptr), memoryview(topo.dual.indices)
    n = topo.n_elements
    assign = [-1] * n
    next_id = 0
    for e in _rng(seed).permutation(n).tolist():
        if assign[e] >= 0:
            continue
        aid = next_id
        next_id += 1
        assign[e] = aid
        size = 1
        frontier = deque()
        in_frontier = set()
        for nb in indices[indptr[e]:indptr[e + 1]]:
            if assign[nb] < 0 and nb not in in_frontier:
                frontier.append(nb)
                in_frontier.add(nb)
        while frontier and size < s:
            en = frontier.popleft()
            in_frontier.discard(en)
            if assign[en] >= 0:
                continue
            assign[en] = aid
            size += 1
            if size == s:
                break
            for nb in indices[indptr[en]:indptr[en + 1]]:
                if assign[nb] < 0 and nb not in in_frontier:
                    frontier.append(nb)
                    in_frontier.add(nb)
    return np.array(assign, dtype=np.int64)


# ---------------------------------------------------------------------------
# sizebased / aspect

def _sizebased(topo, s, seed):
    """Partition the weighted dual graph into floor(n/s) contiguous parts,
    or into one on a level of fewer than s elements, as greedy does there."""
    k = max(1, topo.n_elements // s)
    graph = partitioner.scale_weights(topo.dual)
    return partitioner.partition_kway(graph, k, seed=seed)


def _aspect(topo, s, seed):
    """Cleaned greedy start, then local moves lowering surface^2/volume of
    agglomerates.

    Single boundary elements migrate between adjacent agglomerates; a move
    is allowed only while its source keeps at least max(2, s/2) elements
    and its target stays at most 2s. The band limits the moves, not the
    result: agglomerates the greedy start leaves below s/2 stay small. On
    ``generate_mesh(2, 128, jitter=0.2, seed=1)`` with s=24, 1,009 of 2,467
    have fewer than 6 elements; on the 3D n=12 box with s=168 some keep a
    single element. Passes stop at the first one with no improving move, or
    after a fixed cap.
    """
    assign = cleanup(topo, Agglomeration(_greedy(topo, s, seed)))[0].element_to_agg
    _aspect_refine(topo, assign, s)
    return assign


def _surface_volume(topo, assign):
    nagg = int(assign.max()) + 1
    vol = np.bincount(assign, weights=topo.dual.vertex_weight, minlength=nagg)
    surf = np.bincount(assign, weights=topo.elem_boundary_area, minlength=nagg)
    dual = topo.dual
    src = np.repeat(np.arange(topo.n_elements), np.diff(dual.indptr))
    cross = assign[src] != assign[dual.indices]
    np.add.at(surf, assign[src[cross]], dual.edge_weight[cross])
    return surf, vol


def _aspect_refine(topo, assign, s):
    dual = topo.dual
    n = topo.n_elements
    lower, upper = max(2.0, s / 2.0), 2.0 * s
    surf, vol = (a.tolist() for a in _surface_volume(topo, assign))
    sizes = np.bincount(assign, minlength=len(vol)).tolist()
    total_area = memoryview(topo.elem_boundary_area
                            + _row_sums(dual.indptr, dual.edge_weight))
    # sequential moves: lists for what they update, memoryviews for the rest
    elem_volume, indptr, indices, edge_weight = map(memoryview, (
        dual.vertex_weight, dual.indptr, dual.indices, dual.edge_weight))
    owner = assign.tolist()
    src = np.repeat(np.arange(n), np.diff(dual.indptr))
    for _ in range(ASPECT_MAX_PASSES):
        boundary_elems = np.flatnonzero(np.bincount(
            src[assign[src] != assign[dual.indices]], minlength=n))
        improved = False
        for e in boundary_elems.tolist():
            a = owner[e]
            if sizes[a] - 1 < lower:
                continue
            ve = elem_volume[e]
            if vol[a] - ve <= 0:
                continue
            area_to = _neighbour_weights(indptr, indices, edge_weight, owner, (e,))
            obj_a = surf[a] ** 2 / vol[a]
            surf_a_new = surf[a] - total_area[e] + 2.0 * area_to.get(a, 0.0)
            best_delta, best_b = -1e-12 * (1.0 + obj_a), -1
            for b, ab in sorted(area_to.items()):
                if b == a or sizes[b] + 1 > upper:
                    continue
                surf_b_new = surf[b] + total_area[e] - 2.0 * ab
                delta = (surf_a_new ** 2 / (vol[a] - ve) - obj_a
                         + surf_b_new ** 2 / (vol[b] + ve) - surf[b] ** 2 / vol[b])
                if delta < best_delta:
                    best_delta, best_b = delta, b
            if best_b >= 0:
                b = best_b
                surf[a] = surf_a_new
                surf[b] = surf[b] + total_area[e] - 2.0 * area_to[b]
                vol[a] -= ve
                vol[b] += ve
                sizes[a] -= 1
                sizes[b] += 1
                owner[e] = b
                improved = True
        assign[:] = owner
        if not improved:
            break


# ---------------------------------------------------------------------------
# cleanup

def cleanup(topo: LevelTopology, agg: Agglomeration):
    """Repair an agglomeration into a total, contiguous, densely-numbered one.

    In order: unused elements join the face-adjacent agglomerate sharing
    the most faces (ties to the smallest, then lowest id); enclaves of
    unused elements are absorbed frontier by frontier; non-contiguous
    agglomerates keep their largest component and re-home the rest; fully
    enclosed agglomerates merge into their single neighbour, which keeps
    every agglomerate contiguous since the two are adjacent; then ids are
    re-densified.
    """
    assign = agg.element_to_agg.copy()
    report = CleanupReport()
    dual = topo.dual

    sizes = _live_sizes(assign)
    src = np.repeat(np.arange(topo.n_elements), np.diff(dual.indptr))
    indptr, indices, edge_faces = map(memoryview, (dual.indptr, dual.indices,
                                                   dual.edge_faces))
    while True:
        unassigned = np.flatnonzero(assign < 0)
        if unassigned.size == 0:
            break
        # unassigned elements with an assigned neighbour, ascending
        reached = np.bincount(src[assign[dual.indices] >= 0], minlength=topo.n_elements)
        frontier = unassigned[reached[unassigned] > 0]
        if frontier.size == 0:
            # pocket disconnected from every agglomerate: each component
            # becomes its own agglomerate
            labels = _induced_components(dual.indptr, dual.indices, unassigned)
            assign[unassigned] = len(sizes) + labels
            report.isolated_resolved += len(unassigned)
            break
        # each attachment sees the ones before it
        owner = assign.tolist()
        for e in frontier.tolist():
            best = _best_neighbour(indptr, indices, edge_faces, owner, (e,), sizes)
            owner[e] = best
            sizes[best] += 1
        assign[:] = owner
        if report.unused_attached:
            report.isolated_resolved += len(frontier)
        else:
            report.unused_attached = len(frontier)

    report.disconnected_split = _split_noncontiguous(topo, assign)
    report.enclosed_merged = _merge_enclosed(topo, assign)

    return Agglomeration(_first_appearance(assign)), report


def _live_sizes(assign):
    nagg = int(assign.max()) + 1 if (assign >= 0).any() else 0
    return np.bincount(assign[assign >= 0], minlength=nagg).tolist()


def _split_noncontiguous(topo, assign) -> int:
    dual = topo.dual
    n = topo.n_elements
    src = np.repeat(np.arange(n), np.diff(dual.indptr))
    same = assign[src] == assign[dual.indices]
    labels = _components(src[same], dual.indices[same], n)
    # agglomerates spanning more than one component need splitting
    agg_of_pair, _ = _unique_pairs(assign, labels, labels.max() + 1)
    multi = np.flatnonzero(np.bincount(agg_of_pair) > 1)
    if multi.size == 0:
        return 0

    moved = 0
    sizes = _live_sizes(assign)
    indptr, indices, edge_faces, label = map(memoryview, (
        dual.indptr, dual.indices, dual.edge_faces, labels))
    owner = assign.tolist()
    # members of each agglomerate to split; a fragment moved into a later one joins it
    members = {a: [] for a in multi.tolist()}
    for e in np.flatnonzero(np.isin(assign, multi)).tolist():
        members[owner[e]].append(e)
    for a, elems in members.items():
        comps = {}
        for e in elems:
            comps.setdefault(label[e], []).append(e)
        # each component's list is ascending, so c[0] is its lowest element
        ordered = sorted(comps.values(), key=lambda c: (-len(c), c[0]))
        for comp in ordered[1:]:
            best = _best_neighbour(indptr, indices, edge_faces, owner, comp, sizes,
                                   exclude=a)
            if best < 0:
                # isolated island (disconnected mesh): becomes its own agglomerate
                best = len(sizes)
                sizes.append(0)
            for e in comp:
                owner[e] = best
            sizes[best] += len(comp)
            sizes[a] -= len(comp)
            members.get(best, []).extend(comp)
            moved += 1
    assign[:] = owner
    return moved


def _merge_enclosed(topo, assign) -> int:
    """Merge every agglomerate that touches no boundary and has a single
    neighbour into that neighbour, round by round.

    The neighbour is never itself such a candidate: adjacency is symmetric,
    so two candidates naming each other would make up a mesh component
    without a boundary face, and no component of positive-measure simplices
    lacks one. So each round relabels every candidate once and removes at
    least one agglomerate.
    """
    dual = topo.dual
    merges = 0
    has_boundary = topo.elem_boundary_area > 0
    src_all = np.repeat(np.arange(topo.n_elements), np.diff(dual.indptr))
    while True:
        nagg = int(assign.max()) + 1
        a_side = assign[src_all]
        b_side = assign[dual.indices]
        cross = a_side != b_side
        touches_boundary = np.zeros(nagg, dtype=bool)
        touches_boundary[assign[has_boundary]] = True
        pair_a, pair_b = _unique_pairs(a_side[cross], b_side[cross], nagg)
        n_neighbours = np.bincount(pair_a, minlength=nagg)
        candidate = ~touches_boundary & (n_neighbours == 1)
        if not candidate.any():
            return merges
        # a candidate's one pair names its neighbour
        single = candidate[pair_a]
        relabel = np.arange(nagg)
        relabel[pair_a[single]] = pair_b[single]
        assign[:] = relabel[assign]
        merges += int(single.sum())


# ---------------------------------------------------------------------------

def agglomerate_stats(topo: LevelTopology, agg: Agglomeration) -> AgglomerateStats:
    """Average size, mean surface^2/volume, dual edge-cut."""
    if not agg.is_total():
        raise ValueError("statistics need a total agglomeration")
    assign = agg.element_to_agg
    nagg = agg.n_agglomerates
    surf, vol = _surface_volume(topo, assign)
    dual = topo.dual
    src = np.repeat(np.arange(topo.n_elements), np.diff(dual.indptr))
    cut = int((assign[src] != assign[dual.indices]).sum()) // 2
    return AgglomerateStats(
        average_size=topo.n_elements / nagg,
        mean_surface_sq_over_volume=float((surf * surf / vol).mean()),
        edge_cut=cut,
    )


def coarsen(topo: LevelTopology, config: CoarsenConfig) -> Agglomeration:
    """Coarsen one level: run the configured algorithm, then :func:`cleanup`."""
    config.validate()
    alg, s, seed = config.algorithm, config.desired_size, config.seed
    if alg == "jones":
        assign = _jones(topo)
    elif alg == "kraus":
        assign = _kraus(topo)
    elif alg == "rgb":
        assign = _rgb(topo, seed)
    elif alg == "node":
        assign = _node(topo, seed)
    elif alg == "greedy":
        assign = _greedy(topo, s, seed)
    elif alg == "sizebased":
        assign = _sizebased(topo, s, seed)
    else:
        assign = _aspect(topo, s, seed)
    return cleanup(topo, Agglomeration(assign))[0]
