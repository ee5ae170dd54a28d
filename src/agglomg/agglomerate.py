"""The seven element-coarsening algorithms, cleanup, and agglomerate statistics.

:func:`coarsen` is the one entry point and the one place that runs
:func:`cleanup` (besides aspect, which cleans its greedy start). Each
algorithm is a private function mapping one grid level (a
:class:`~agglomg.mesh.LevelTopology`) to a raw element -> agglomerate array
(-1 = unassigned); ``coarsen`` cleans that once, so every result is total,
contiguous and densely numbered. Weighted-face growth (jones, kraus) is
deterministic: one heap-growth kernel, :func:`_grow`, follows
maximal-weight faces (jones and kraus) or edges (the 3D kraus edge phase),
and each sweep only builds its adjacency arrays for it. The randomized
algorithms consume an explicit 64-bit seed through a counter-based
generator, never global RNG state.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import (LevelTopology, _best_neighbour, _components, _csr_from_pairs,
                   _first_appearance, _gather_ragged, _induced_components,
                   _neighbour_weights, _unique_pairs)
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

    @property
    def sizes(self) -> np.ndarray:
        assigned = self.element_to_agg[self.element_to_agg >= 0]
        return np.bincount(assigned, minlength=self.n_agglomerates)

    def groups(self) -> list:
        """Per-agglomerate element index arrays (unassigned elements dropped)."""
        a = self.element_to_agg
        order = np.argsort(a, kind="stable")
        order = order[a[order] >= 0]
        splits = np.searchsorted(a[order], np.arange(1, self.n_agglomerates))
        return np.split(order, splits)

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
    size_histogram: np.ndarray
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


def _face_adjacency(topo: LevelTopology):
    """CSR of interior-face neighbourships (shared node in 2D, edge in 3D).

    On coarse levels the face node sets are coarse nodes and the same rule
    applies: at least one shared node in 2D, at least two in 3D.
    """
    faces = topo.faces
    if topo.dim == 3 and topo.edges is not None:
        groups, min_shared = (topo.edges.face_indptr, topo.edges.face_ids), 1
    else:
        groups, min_shared = (faces.node_face_indptr, faces.node_face_ids), topo.dim - 1
    src, dst = _group_pairs(*groups)
    keep = faces.interior[src] & faces.interior[dst]
    src, dst = src[keep], dst[keep]
    return _csr_from_pairs(*_unique_pairs(src, dst, faces.n_faces, min_shared),
                           faces.n_faces)


def _element_companion_faces(topo: LevelTopology):
    """CSR: for each interior face, the other interior faces of its elements
    (once per element they share)."""
    faces = topo.faces
    src, dst = _group_pairs(faces.elem_indptr, faces.elem_face_ids)
    keep = faces.interior[src] & faces.interior[dst]
    return _csr_from_pairs(src[keep], dst[keep], faces.n_faces)


def _csr_row(indptr, ids, i):
    return ids[indptr[i]:indptr[i + 1]]


# ---------------------------------------------------------------------------
# jones / kraus : weighted-face (and edge) growth

def _grow(weight, assign, next_id, elements, bumps, pool, clears, side=None):
    """Grow agglomerates along maximal-weight entities (faces or edges).

    Each CSR argument is an (indptr, ids) pair. The heaviest live entity
    (weight >= 0, lowest id on ties) starts an agglomerate that claims its
    free ``elements``. The current entity is consumed (weight -1), every
    live entity in its ``bumps`` rows gains one and is queued again, and
    ``side``, a (weights, CSR) pair, adds one to the live entities of its
    row without queueing them. Growth then follows the heaviest entity of
    the ``pool`` row (lowest id on ties) while it weighs at least as much
    as the current one. On completion each (weights, element CSR) pair in
    ``clears`` consumes the entities of the agglomerate's elements.

    Mutates the weights and ``assign``; returns the next free agglomerate id.
    """
    heap = [(-int(weight[i]), int(i)) for i in np.flatnonzero(weight >= 0)]
    heapq.heapify(heap)
    while heap:
        negw, i = heapq.heappop(heap)
        if weight[i] != -negw or weight[i] < 0:
            continue  # stale entry
        aid = next_id
        next_id += 1
        members = []
        while True:
            w_max = weight[i]
            weight[i] = -1
            for e in _csr_row(*elements, i):
                if assign[e] < 0:
                    assign[e] = aid
                    members.append(e)
            for indptr, ids in bumps:
                for j in _csr_row(indptr, ids, i):
                    if weight[j] >= 0:
                        weight[j] += 1
                        heapq.heappush(heap, (-int(weight[j]), int(j)))
            if side is not None:
                side_w, (indptr, ids) = side
                row = _csr_row(indptr, ids, i)
                side_w[row[side_w[row] >= 0]] += 1  # rows are duplicate-free
            best, best_w = -1, -1
            for j in _csr_row(*pool, i):
                wj = weight[j]
                if wj > best_w or (wj == best_w and j < best):
                    best, best_w = int(j), int(wj)
            if best < 0 or best_w < w_max:
                break
            i = best
        for w, (indptr, ids) in clears:
            for e in members:
                w[_csr_row(indptr, ids, e)] = -1
    return next_id


def _face_sweep(topo, face_w, assign, next_id, restrict_g):
    """Grow agglomerates along maximal-weight interior faces.

    A face is bumped by its adjacent faces and by the other faces of its
    elements. ``restrict_g`` confines the growth-face choice to faces
    sharing an element with the current face (the kraus variant).
    """
    faces = topo.faces
    adj = _face_adjacency(topo)
    companions = _element_companion_faces(topo)
    sides = (np.arange(0, 2 * faces.n_faces + 1, 2),
             np.column_stack([faces.left, faces.right]).ravel())
    elem_faces = (faces.elem_indptr, faces.elem_face_ids)
    return _grow(face_w, assign, next_id, sides, [adj, companions],
                 companions if restrict_g else adj, [(face_w, elem_faces)])


def _jones(topo):
    """Deterministic growth along maximal-weight interior faces."""
    face_w = np.where(topo.faces.interior, 0, -1).astype(np.int64)
    assign = np.full(topo.n_elements, -1, dtype=np.int64)
    _face_sweep(topo, face_w, assign, 0, restrict_g=False)
    return assign


def _kraus(topo):
    """Edge-weighted growth (3D) with a restricted face phase afterwards.

    In 2D only the face phase runs; unlike jones, the growth face must
    share an element with the current one.
    """
    face_w = np.where(topo.faces.interior, 0, -1).astype(np.int64)
    assign = np.full(topo.n_elements, -1, dtype=np.int64)
    next_id = 0
    if topo.dim == 3 and topo.edges is not None and topo.edges.n_edges:
        edge_w = np.zeros(topo.edges.n_edges, dtype=np.int64)
        next_id = _edge_sweep(topo, edge_w, face_w, assign, next_id)
    _face_sweep(topo, face_w, assign, next_id, restrict_g=True)
    return assign


def _edge_sweep(topo, edge_w, face_w, assign, next_id):
    """Grow agglomerates along maximal-weight edges (3D kraus).

    An edge is bumped by the edges sharing a node with it, once more by
    those that also share a face, and follows the latter; each step also
    bumps the faces adjacent to the current edge's faces, once each.
    """
    edges, faces = topo.edges, topo.faces
    adj, shared = _edge_adjacency(edges, faces.n_faces)
    # the distinct faces adjacent to each edge's faces: the pattern of the
    # product of the edge -> face and face -> face incidences
    near_faces = (_pattern(edges.face_indptr, edges.face_ids, faces.n_faces)
                  @ _pattern(*_face_adjacency(topo), faces.n_faces))
    clears = [(edge_w, _invert_csr(edges.elem_indptr, edges.elem_ids, topo.n_elements)),
              (face_w, (faces.elem_indptr, faces.elem_face_ids))]
    return _grow(edge_w, assign, next_id, (edges.elem_indptr, edges.elem_ids),
                 [adj, shared], shared, clears,
                 side=(face_w, (near_faces.indptr, near_faces.indices)))


def _edge_adjacency(edges, n_faces):
    """CSRs of the edges sharing a node with each edge, and of those of
    them that also share a face."""
    n = edges.n_edges
    nsrc, ndst = _unique_pairs(
        *_group_pairs(edges.node_edge_indptr, edges.node_edge_ids), n)
    fsrc, fdst = _unique_pairs(
        *_group_pairs(*_invert_csr(edges.face_indptr, edges.face_ids, n_faces)), n)
    # a pair found both ways shares a node and a face
    ssrc, sdst = _unique_pairs(np.concatenate([nsrc, fsrc]),
                               np.concatenate([ndst, fdst]), n, 2)
    return _csr_from_pairs(nsrc, ndst, n), _csr_from_pairs(ssrc, sdst, n)


def _pattern(indptr, ids, n_cols):
    """Boolean sparse matrix with the nonzero pattern of a CSR."""
    return sp.csr_matrix((np.ones(len(ids), dtype=bool), ids, indptr),
                         shape=(len(indptr) - 1, n_cols))


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

    Grey fringe elements join the adjacent agglomerate they fit best:
    most shared dual edges, then fewest elements, then lowest id.
    """
    dual = topo.dual
    n = topo.n_elements
    UNCOLOURED, BLACK, RED, GREY = 0, 1, 2, 3
    state = np.zeros(n, dtype=np.int8)
    assign = np.full(n, -1, dtype=np.int64)
    order = _rng(seed).permutation(n)
    next_id = 0
    for e in order:
        if state[e] != UNCOLOURED:
            continue
        aid = next_id
        next_id += 1
        state[e] = BLACK
        assign[e] = aid
        reds = []
        for nb in dual.neighbors(e):
            if state[nb] in (UNCOLOURED, GREY):
                state[nb] = RED
                assign[nb] = aid
                reds.append(nb)
        for r in reds:
            for nb in dual.neighbors(r):
                if state[nb] == UNCOLOURED:
                    state[nb] = GREY
    sizes = np.bincount(assign[assign >= 0], minlength=next_id)
    # unit weights, not edge_faces (above one on coarse levels): greys
    # count shared dual edges
    ones = np.ones(len(dual.indices), dtype=np.int64)
    for e in np.flatnonzero(state == GREY):
        best = _best_neighbour(dual.indptr, dual.indices, ones, assign, (e,), sizes)
        assign[e] = best
        sizes[best] += 1
    return assign


def _node(topo, seed):
    """Each selected unused node claims every element sharing it.

    Interior nodes are visited in seeded random order before boundary
    nodes; claimed elements mark all their nodes used.
    """
    n = topo.n_elements
    assign = np.full(n, -1, dtype=np.int64)
    node_used = np.zeros(topo.n_nodes, dtype=bool)
    elem_nodes_indptr, elem_nodes_ids = _invert_csr(
        topo.node_elem_indptr, topo.node_elem_ids, n)
    rng = _rng(seed)
    interior = np.flatnonzero(~topo.node_boundary)
    boundary = np.flatnonzero(topo.node_boundary)
    order = np.concatenate([rng.permutation(interior), rng.permutation(boundary)])
    next_id = 0
    for node in order:
        if node_used[node]:
            continue
        elems = topo.node_elements(node)
        elems = elems[assign[elems] < 0]
        if elems.size == 0:
            node_used[node] = True
            continue
        assign[elems] = next_id
        next_id += 1
        for e in elems:
            node_used[_csr_row(elem_nodes_indptr, elem_nodes_ids, e)] = True
    return assign


def _greedy(topo, s, seed):
    """Breadth-first absorption of unused neighbours up to the desired size."""
    dual = topo.dual
    n = topo.n_elements
    assign = np.full(n, -1, dtype=np.int64)
    order = _rng(seed).permutation(n)
    next_id = 0
    for e in order:
        if assign[e] >= 0:
            continue
        aid = next_id
        next_id += 1
        assign[e] = aid
        size = 1
        frontier = deque()
        in_frontier = set()
        for nb in dual.neighbors(e):
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
            for nb in dual.neighbors(en):
                nb = int(nb)
                if assign[nb] < 0 and nb not in in_frontier:
                    frontier.append(nb)
                    in_frontier.add(nb)
    return assign


# ---------------------------------------------------------------------------
# sizebased / aspect

def _sizebased(topo, s, seed):
    """Partition the weighted dual graph into floor(n/s) contiguous parts."""
    k = topo.n_elements // s
    if k < 1:
        raise ValueError(
            f"desired size {s} exceeds the {topo.n_elements}-element level; reduce s")
    graph = partitioner.scale_weights(topo.dual)
    return partitioner.partition_kway(graph, k, contiguous=True, seed=seed).part


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


def aspect_objective(topo: LevelTopology, assign: np.ndarray) -> float:
    """Sum over agglomerates of (external surface area)^2 / volume."""
    surf, vol = _surface_volume(topo, assign)
    return float((surf * surf / vol).sum())


def _surface_volume(topo, assign):
    nagg = int(assign.max()) + 1
    vol = np.bincount(assign, weights=topo.elem_volume, minlength=nagg)
    surf = np.bincount(assign, weights=topo.elem_boundary_area, minlength=nagg)
    dual = topo.dual
    src = np.repeat(np.arange(topo.n_elements), np.diff(dual.indptr))
    cross = assign[src] != assign[dual.indices]
    np.add.at(surf, assign[src[cross]], dual.edge_weight[cross])
    return surf, vol


def _aspect_refine(topo, assign, s):
    dual = topo.dual
    lower = max(2.0, s / 2.0)
    upper = 2.0 * s
    surf, vol = _surface_volume(topo, assign)
    sizes = np.bincount(assign, minlength=len(vol))
    total_area = topo.elem_boundary_area + np.array([
        dual.neighbor_weights(e).sum() for e in range(topo.n_elements)])
    for _ in range(ASPECT_MAX_PASSES):
        src = np.repeat(np.arange(topo.n_elements), np.diff(dual.indptr))
        boundary_elems = np.flatnonzero(np.bincount(
            src[assign[src] != assign[dual.indices]], minlength=topo.n_elements))
        improved = False
        for e in boundary_elems:
            a = int(assign[e])
            if sizes[a] - 1 < lower:
                continue
            ve = topo.elem_volume[e]
            if vol[a] - ve <= 0:
                continue
            area_to = _neighbour_weights(dual.indptr, dual.indices, dual.edge_weight,
                                         assign, (e,))
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


# ---------------------------------------------------------------------------
# cleanup

def cleanup(topo: LevelTopology, agg: Agglomeration):
    """Repair an agglomeration into a total, contiguous, densely-numbered one.

    In order: unused elements join the face-adjacent agglomerate sharing
    the most faces (ties to the smallest, then lowest id); enclaves of
    unused elements are absorbed frontier by frontier; non-contiguous
    agglomerates keep their largest component and re-home the rest; fully
    enclosed agglomerates merge into their single neighbour. The split
    step runs once more after merging, then ids are re-densified.
    """
    assign = agg.element_to_agg.copy()
    report = CleanupReport()
    dual = topo.dual

    if (assign < 0).all():
        assign[0] = 0

    sizes = _live_sizes(assign)
    first_round = True
    while True:
        unassigned = np.flatnonzero(assign < 0)
        if unassigned.size == 0:
            break
        frontier = [e for e in unassigned
                    if (assign[dual.neighbors(e)] >= 0).any()]
        if not frontier:
            # pocket disconnected from every agglomerate: each component
            # becomes its own agglomerate
            labels = _induced_components(dual.indptr, dual.indices, unassigned)
            assign[unassigned] = len(sizes) + labels
            report.isolated_resolved += len(unassigned)
            break
        for e in frontier:
            best = _best_neighbour(dual.indptr, dual.indices, dual.edge_faces,
                                   assign, (e,), sizes)
            assign[e] = best
            sizes[best] += 1
        if first_round:
            report.unused_attached += len(frontier)
            first_round = False
        else:
            report.isolated_resolved += len(frontier)

    report.disconnected_split += _split_noncontiguous(topo, assign)
    report.enclosed_merged += _merge_enclosed(topo, assign)
    report.disconnected_split += _split_noncontiguous(topo, assign)

    return Agglomeration(_first_appearance(assign)), report


def _live_sizes(assign):
    nagg = int(assign.max()) + 1 if (assign >= 0).any() else 0
    return list(np.bincount(assign[assign >= 0], minlength=nagg))


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
    for a in multi:
        members = np.flatnonzero(assign == a)
        comps = {}
        for e in members:
            comps.setdefault(int(labels[e]), []).append(int(e))
        ordered = sorted(comps.values(), key=lambda c: (-len(c), c[0]))
        for comp in ordered[1:]:
            best = _best_neighbour(dual.indptr, dual.indices, dual.edge_faces,
                                   assign, comp, sizes, exclude=a)
            if best < 0:
                # isolated island (disconnected mesh): becomes its own agglomerate
                assign[comp] = len(sizes)
                sizes.append(len(comp))
            else:
                assign[comp] = best
                sizes[best] += len(comp)
            sizes[a] -= len(comp)
            moved += 1
    return moved


def _merge_enclosed(topo, assign) -> int:
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
        candidates = np.flatnonzero(~touches_boundary & (n_neighbours == 1))
        if candidates.size == 0:
            break
        # the single neighbour of each candidate, via its unique pair
        single_target = np.zeros(nagg, dtype=np.int64)
        single_target[pair_a] = pair_b
        parent = np.arange(nagg, dtype=np.int64)
        round_merges = 0
        for a in candidates:
            a = int(a)
            target = int(single_target[a])
            seen = {a}
            while parent[target] != target and target not in seen:
                seen.add(target)
                target = int(parent[target])
            if target == a:
                continue  # mutual enclosure: keep the pair as-is
            parent[a] = target
            round_merges += 1
        if round_merges == 0:
            break
        # every merge tree keeps the id of its root
        labels = _components(np.arange(nagg), parent, nagg)
        roots = np.flatnonzero(parent == np.arange(nagg))
        root_of = np.empty(len(roots), dtype=np.int64)
        root_of[labels[roots]] = roots
        assign[:] = root_of[labels[assign]]
        merges += round_merges
    return merges


# ---------------------------------------------------------------------------

def agglomerate_stats(topo: LevelTopology, agg: Agglomeration) -> AgglomerateStats:
    """Average size, size histogram, mean surface^2/volume, dual edge-cut."""
    if not agg.is_total():
        raise ValueError("statistics need a total agglomeration")
    assign = agg.element_to_agg
    nagg = agg.n_agglomerates
    sizes = agg.sizes
    surf, vol = _surface_volume(topo, assign)
    dual = topo.dual
    src = np.repeat(np.arange(topo.n_elements), np.diff(dual.indptr))
    cut = int((assign[src] != assign[dual.indices]).sum()) // 2
    return AgglomerateStats(
        average_size=topo.n_elements / nagg,
        size_histogram=np.bincount(sizes),
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
