"""Coarse topology, transfer operators, and multigrid hierarchy assembly.

A coarse level is derived from an agglomeration in four steps: group the
interface fine faces into coarse faces (split per connected component and
per boundary tag), pick coarse nodes by the face-count rule (or from
coarse-edge endpoints on the kraus path), build the piecewise-average
prolongation, and re-express the level as a :class:`LevelTopology` so
every coarsening algorithm can run again on it.

:func:`select_coarse_faces` returns one table row per geometric coarse face
(:class:`FacePatches`): an interface is one row, owned by its lower
agglomerate id, and the fine faces and fine nodes of each row are stored
there once. The coarse edges, coarse nodes, prolongation and coarse
topology all read those rows, and every step works on whole incidence
arrays, the ordering of each coarse edge's fine edges into chains too
(:func:`_edge_chains` steps all chains forward together). A level on
which an agglomerate can get no coarse node ends the hierarchy one level
early (see :func:`build_hierarchy`).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .mesh import (BOUNDARY, EdgeSet, FaceSet, LevelTopology, Mesh, MaterialTable,
                   _collapse_pairs, _components, _csr_from_pairs, _first_appearance,
                   _gather_ragged, _indptr, _order_by, _row_sums, _sort_keys, _unique_pairs)
from .agglomerate import Agglomeration, CoarsenConfig, _group_pairs, coarsen

SEARCH_RING_LIMIT = 20
# in 3D, levels with fewer elements than this are coarsened with SMALL_GRID_SIZE
SMALL_GRID_ELEMENTS = 100
SMALL_GRID_SIZE = 4
# a level that removes less than this share of the nodes is the last one
MIN_NODE_REDUCTION = 0.10
# the most unknowns the coarsest level may have: it is solved by a dense LU
COARSEST_LIMIT = 2000
# a coarse level of n <= COARSEST_LIMIT unknowns whose operator has
# n**2 <= DENSE_STOP * nnz is the coarsest, because from there on the dense
# solve costs about as much as that level's own smoothing: the default
# V-cycle makes 7 operator products per level (3 pre-smooth, 4 post-smooth;
# the pre-smoother's residual is restricted as it is), 14 nnz flops, while
# lu_solve's two triangular solves take 2 n**2 flops. The value is 8, from
# the 8 products the cycle made when the rule was set, and stays 8 so that
# no hierarchy moves: at 7 the jones hierarchy of a jittered 2D n=64 box
# would not stop at its 90-node level, where n**2 / nnz = 7.97
DENSE_STOP = 8


class CoarseningError(RuntimeError):
    """A level violates a coarse-topology guarantee (e.g. no coarse node)."""


@dataclass
class FacePatches:
    """The coarse faces of one level, one row per geometric coarse face.

    A row is a patch of fine faces: one connected component of the faces
    two agglomerates share (``left`` is the lower id, ``right`` the other),
    or of the boundary faces of agglomerate ``left`` that carry one
    ``tag`` (``right`` is BOUNDARY; interfaces have tag -1). The fine faces
    and the fine nodes of each row are ascending CSR lists.
    """

    left: np.ndarray
    right: np.ndarray
    tag: np.ndarray
    fine_face_indptr: np.ndarray
    fine_face_ids: np.ndarray
    node_indptr: np.ndarray
    node_ids: np.ndarray

    @property
    def n_faces(self) -> int:
        return self.left.shape[0]


@dataclass
class EdgeChains:
    """The coarse edges of a 3D level: chains of fine edges shared by one
    set of coarse faces.

    ``endpoints`` holds the two end nodes of each chain, ascending. The fine
    edges of each chain are a CSR list in walk order, its coarse faces (rows
    of :class:`FacePatches`) an ascending CSR list.
    """

    endpoints: np.ndarray         # (E, 2) fine node ids
    fine_edge_indptr: np.ndarray
    fine_edge_ids: np.ndarray
    face_indptr: np.ndarray
    face_ids: np.ndarray


@dataclass(frozen=True)
class ElementMaterials:
    """Material data attached to each element of one level."""

    source: np.ndarray
    sigma_t: np.ndarray
    sigma_s: np.ndarray

    @classmethod
    def from_table(cls, mesh: Mesh, table: MaterialTable) -> "ElementMaterials":
        regions, inverse = np.unique(mesh.material_id, return_inverse=True)
        missing = set(regions.tolist()) - set(table)
        if missing:
            raise ValueError(f"material table missing regions {sorted(missing)}")
        props = [table[r] for r in regions.tolist()]
        src = np.array([m.source for m in props])[inverse]
        st = np.array([m.sigma_t for m in props])[inverse]
        ss = np.array([m.sigma_s for m in props])[inverse]
        return cls(source=src, sigma_t=st, sigma_s=ss)


@dataclass(frozen=True)
class LevelSchedule:
    """Desired agglomerate size for each coarsening step: the one source of
    every level's size.

    The top grid is coarsened aggressively, lower grids gently; in 3D the
    size drops to ``SMALL_GRID_SIZE`` once fewer than ``SMALL_GRID_ELEMENTS``
    remain. Below the top, a size never exceeds half the remaining grid.
    """

    top: int
    lower: int

    def __post_init__(self):
        if self.top < 2 or self.lower < 2:
            raise ValueError(f"agglomerate sizes must be >= 2, got top={self.top}, "
                             f"lower={self.lower}")

    def size_for(self, level_index: int, topo: LevelTopology) -> int:
        if level_index == 0:
            return self.top
        small = topo.dim == 3 and topo.n_elements < SMALL_GRID_ELEMENTS
        s = SMALL_GRID_SIZE if small else self.lower
        # fixed lower-grid sizes must shrink with the remaining grid
        return min(s, max(2, topo.n_elements // 2))


def level_schedule(dim: int, top: int | None = None,
                   lower: int | None = None) -> LevelSchedule:
    """Default desired sizes: 24 then 4 in 2D; 168 then 8 (then 4) in 3D."""
    default_top, default_lower = (24, 4) if dim == 2 else (168, 8)
    return LevelSchedule(top=default_top if top is None else top,
                         lower=default_lower if lower is None else lower)


@dataclass(frozen=True)
class StopRule:
    """Stop at ``coarse_nodes`` nodes or ``max_levels`` levels, the fine one included."""

    coarse_nodes: int = 60
    max_levels: int = 10

    def __post_init__(self):
        if self.coarse_nodes < 0 or self.max_levels < 1:
            raise ValueError(f"{self}: coarse_nodes must be >= 0 and max_levels >= 1")


@dataclass
class GridLevel:
    """One coarse level: its agglomeration, topology, transfer and operator.

    ``coarse_faces`` is the table of the finer level's agglomerate
    interfaces and boundary patches that this level was read off, one row
    per geometric coarse face; ``coarse_edges`` holds the coarse-edge
    chains on the 3D kraus path and is None elsewhere.
    """

    agglomeration: Agglomeration
    coarse_faces: FacePatches
    coarse_nodes: np.ndarray      # node ids in the finer level's numbering
    prolongation: sp.csr_matrix   # finer-level nodes x this level's nodes
    topology: LevelTopology
    materials: ElementMaterials | None = None
    operator: sp.csr_matrix | None = None
    coarse_edges: EdgeChains | None = None


@dataclass
class Hierarchy:
    mesh: Mesh
    fine_topology: LevelTopology
    levels: list
    config: CoarsenConfig
    fine_operator: sp.csr_matrix | None = None
    # why coarsening ended: "coarse_nodes", "stagnation", "max_levels",
    # "no_coarsening", "uncoverable" or "dense" (see build_hierarchy)
    stop_reason: str | None = None

    @property
    def node_counts(self) -> list:
        return [self.fine_topology.n_nodes] + [l.topology.n_nodes for l in self.levels]

    @property
    def n_levels(self) -> int:
        return len(self.levels) + 1

    @property
    def operators(self) -> list:
        if self.fine_operator is None:
            raise ValueError("hierarchy was built without an operator")
        return [self.fine_operator] + [l.operator for l in self.levels]

    @property
    def prolongations(self) -> list:
        return [l.prolongation for l in self.levels]


# ---------------------------------------------------------------------------
# coarse faces

def select_coarse_faces(topo: LevelTopology, agg: Agglomeration) -> FacePatches:
    """Coarse faces: interface fine faces grouped per agglomerate pair,
    boundary fine faces grouped per (agglomerate, tag), each group split
    into connected components (shared node in 2D, shared edge in 3D).

    Rows run interface groups first, then boundary groups, each ordered by
    (left, right or tag), and the components of a group by smallest fine
    face.
    """
    faces = topo.faces
    assign = agg.element_to_agg

    interior = np.flatnonzero(faces.interior)
    a_side = assign[faces.left[interior]]
    b_side = assign[faces.right[interior]]
    cross = a_side != b_side
    bd = np.flatnonzero(~faces.interior)
    # interface groups per (lo, hi) agglomerate pair, then boundary groups
    # per (owner, tag), by one packed key: boundary owners are shifted past
    # the agglomerate ids, and tags enter by rank. Faces stay ascending
    # inside each group
    nagg = agg.n_agglomerates
    tags, tag_rank = np.unique(faces.tag[bd], return_inverse=True)
    width = max(nagg, len(tags))
    n_cross = int(cross.sum())
    fids = np.concatenate([interior[cross], bd])
    owner = np.concatenate([np.minimum(a_side, b_side)[cross],
                            nagg + assign[faces.left[bd]]])
    other = np.concatenate([np.maximum(a_side, b_side)[cross], tag_rank])
    key, order = _sort_keys(owner * width + other, 2 * nagg * width)
    fids = fids[order]
    new = np.ones(len(fids), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    labels = _face_components(topo, fids, np.cumsum(new) - 1)

    # labels run group by group, and by smallest face inside a group: one
    # row per label, read off its first (smallest) fine face
    first = np.flatnonzero(np.diff(np.maximum.accumulate(labels), prepend=-1) > 0)
    n_rows = len(first)
    src = order[first]
    on_boundary = src >= n_cross
    tag = np.full(n_rows, -1, dtype=np.int64)
    tag[on_boundary] = tags[other[src[on_boundary]]]
    ff_indptr, ff_ids = _csr_from_pairs(labels, fids, n_rows)
    row_of = np.repeat(np.arange(n_rows), np.diff(ff_indptr))
    vals, counts = _gather_ragged(faces.node_indptr, faces.node_ids, ff_ids)
    rows, node_ids = _unique_pairs(np.repeat(row_of, counts), vals, topo.n_nodes)
    return FacePatches(left=owner[src] - nagg * on_boundary,
                       right=np.where(on_boundary, BOUNDARY, other[src]), tag=tag,
                       fine_face_indptr=ff_indptr, fine_face_ids=ff_ids,
                       node_indptr=_indptr(rows, n_rows), node_ids=node_ids)


def _face_components(topo: LevelTopology, fids: np.ndarray, group: np.ndarray):
    """Connected-component labels of the faces in ``fids``.

    Two faces are adjacent when they are in the same ``group`` and share
    dim-1 nodes: a node in 2D, an edge in 3D. Coarse-level faces only know
    their coarse nodes, and the same count applies to those.
    """
    faces = topo.faces
    vals, counts = _gather_ragged(faces.node_indptr, faces.node_ids, fids)
    pos = np.repeat(np.arange(len(fids)), counts)
    key = vals
    if topo.dim == 3:
        i, j = _group_pairs(_indptr(pos, len(fids)), np.arange(len(vals)))
        lower = vals[i] < vals[j]
        i, j = i[lower], j[lower]
        pos, key = pos[i], vals[i] * topo.n_nodes + vals[j]
    # faces of one group that carry the same key are adjacent; linking
    # each to the next in (group, key) order connects them all
    order = _order_by(group[pos], key, topo.n_nodes ** (topo.dim - 1))
    pos, key, g = pos[order], key[order], group[pos[order]]
    link = (key[1:] == key[:-1]) & (g[1:] == g[:-1])
    return _components(pos[:-1][link], pos[1:][link], len(fids))


# ---------------------------------------------------------------------------
# coarse nodes

def _node_agg_pairs(topo, agg):
    """Unique (node, agglomerate) incidence pairs."""
    nodes = np.repeat(np.arange(topo.n_nodes), np.diff(topo.node_elem_indptr))
    return _unique_pairs(nodes, agg.element_to_agg[topo.node_elem_ids], agg.n_agglomerates)


def _coarse_mask(topo, agg, coarse_faces, coarse_edges=None):
    """Coarse-node mask of a level, which agglomerates it covers, and the
    level's (node, agglomerate) pairs it read.

    Without coarse edges a node is coarse by the face-count rule. With them
    (the 3D kraus path) the coarse-edge endpoints are coarse, and an
    agglomerate they leave uncovered falls back to the face-count rule.
    """
    an, aa = _node_agg_pairs(topo, agg)

    def face_count_rule():
        # an interface is a coarse face of each of its two agglomerates
        sides = np.repeat(1 + (coarse_faces.right >= 0), np.diff(coarse_faces.node_indptr))
        cf_count = np.bincount(coarse_faces.node_ids, weights=sides, minlength=topo.n_nodes)
        agg_count = np.bincount(an, minlength=topo.n_nodes)
        return cf_count > 2 ** (topo.dim - 2) * agg_count

    def coverage(mask):
        covered = np.zeros(agg.n_agglomerates, dtype=bool)
        covered[aa[mask[an]]] = True
        return covered

    if coarse_edges is None:
        coarse = face_count_rule()
    else:
        coarse = np.zeros(topo.n_nodes, dtype=bool)
        coarse[coarse_edges.endpoints.ravel()] = True
        covered = coverage(coarse)
        if not covered.all():
            coarse[an[~covered[aa] & face_count_rule()[an]]] = True
    return coarse, coverage(coarse), (an, aa)


def select_coarse_edges(topo: LevelTopology, coarse_faces: FacePatches) -> EdgeChains:
    """Chains of fine edges shared between the same set of coarse faces.

    Each fine edge on two or more coarse faces is grouped by that set, its
    signature; the groups run in lexicographic signature order, and
    :func:`_edge_chains` splits each into simple open paths: branch points
    split chains, and cycles are broken at their two topologically
    farthest nodes.
    """
    if topo.edges is None:
        raise ValueError("coarse edges require an EdgeSet (3D kraus path)")
    edges = topo.edges
    n_cf = coarse_faces.n_faces
    # each fine face lies in at most one coarse face; take the unique
    # (edge, coarse face) pairs over each edge's fine faces
    face_of = np.full(topo.faces.n_faces, -1, dtype=np.int64)
    face_of[coarse_faces.fine_face_ids] = np.repeat(
        np.arange(n_cf), np.diff(coarse_faces.fine_face_indptr))
    cfs = face_of[edges.face_ids]
    edge_of = np.repeat(np.arange(edges.n_edges), np.diff(edges.face_indptr))
    on = cfs >= 0
    edge_of, cfs = _unique_pairs(edge_of[on], cfs[on], n_cf)
    kept = np.bincount(edge_of, minlength=edges.n_edges)[edge_of] >= 2
    edge_of, cfs = edge_of[kept], cfs[kept]

    # one signature row per edge, padded with -1 so that a prefix sorts
    # first, as tuples do; the stable sort keeps each group's edges ascending.
    # With no edge on two coarse faces it still has one column: lexsort
    # needs a key
    starts = np.flatnonzero(np.diff(edge_of, prepend=-1))
    length = np.diff(starts, append=len(edge_of))
    sig = np.full((len(starts), int(length.max(initial=1))), -1, dtype=np.int64)
    sig[np.repeat(np.arange(len(starts)), length),
        np.arange(len(edge_of)) - np.repeat(starts, length)] = cfs
    order = np.lexsort(sig.T[::-1])
    members, sig, length = edge_of[starts][order], sig[order], length[order]
    first = np.ones(len(members), dtype=bool)
    first[1:] = (sig[1:] != sig[:-1]).any(axis=1)

    walk_order, indptr, chain_group, ends = _edge_chains(edges.nodes, members,
                                                         np.cumsum(first) - 1)
    rows = np.flatnonzero(first)[chain_group]
    return EdgeChains(endpoints=ends, fine_edge_indptr=indptr, fine_edge_ids=members[walk_order],
                      face_indptr=np.append(0, np.cumsum(length[rows])),
                      face_ids=sig[rows][sig[rows] >= 0])


def _edge_chains(nodes: np.ndarray, members: np.ndarray, group: np.ndarray):
    """Split each group of edges into simple open chains, in walk order.

    ``members`` are rows of ``nodes`` (two distinct nodes each), sorted by
    ``group`` and ascending inside a group. In a group, a node not of
    degree 2 is a breakpoint. The walk takes the breakpoints in ascending
    order and, at each, its unused edges in ascending order, and follows
    each through degree-2 nodes to the next breakpoint. Pure cycles are
    left; each is walked from its lowest edge's first node and cut in two,
    the first half the longer one.

    The walk needs no loop over edges. Each edge has two ends (half-edges
    ``2 i`` and ``2 i + 1`` of member i). The two ends at a degree-2 node
    are partners, and an edge left by one end continues with the partner
    of its other end. A chain begins at an end without a partner; of its
    two such ends the walk starts from the one at the lower breakpoint,
    ties to the lower edge. All chains then step forward together, one
    edge per pass.

    Returns the members' order (chain after chain, each in walk order),
    the chains' indptr and group, and each chain's two end nodes,
    ascending. A chain that returns to its first node has no single ends;
    it ends at its lowest and highest node.
    """
    k = len(members)
    empty = np.zeros(0, dtype=np.int64)
    if k == 0:
        return empty, np.zeros(1, dtype=np.int64), empty, np.zeros((0, 2), dtype=np.int64)
    half_node = nodes[members].ravel()
    n = int(half_node.max()) + 1
    key, by_node = _sort_keys(np.repeat(group, 2) * n + half_node, (int(group[-1]) + 1) * n)
    bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
    pair = bounds[:-1][np.diff(bounds) == 2]
    partner = np.full(2 * k, -1, dtype=np.int64)
    partner[by_node[pair]] = by_node[pair + 1]
    partner[by_node[pair + 1]] = by_node[pair]
    succ = partner[np.arange(2 * k) ^ 1]

    def walk(start, closed):
        """(walk, step, half-edge) of every step of the walks from ``start``;
        a closed walk stops before it would return to its start."""
        steps = [(empty, empty, empty)]
        idx, cur = np.arange(len(start)), start
        while len(cur):
            steps.append((idx, np.full(len(cur), len(steps) - 1), cur))
            cur = succ[cur]
            alive = cur >= 0
            if closed:
                alive &= cur != start[idx]
            idx, cur = idx[alive], cur[alive]
        return [np.concatenate(column) for column in zip(*steps)]

    # open chains, walked from both ends: keep the walk from the lower end
    term = np.flatnonzero(partner < 0)
    chain, step, half = walk(term, False)
    far = np.empty(len(term), dtype=np.int64)
    far[chain] = half ^ 1  # steps run in order, so the last one stays
    keep = ((half_node[term] < half_node[far])
            | ((half_node[term] == half_node[far]) & (term < far)))
    on_open = np.zeros(k, dtype=bool)
    on_open[half >> 1] = True
    sel = keep[chain]
    chain, step, half = (np.cumsum(keep) - 1)[chain[sel]], step[sel], half[sel]
    term = term[keep]
    # chains sort by group, open before cyclic, then by their start
    # (breakpoint, edge), or by (lowest edge, half) on a cycle
    keys = [group[term >> 1], np.zeros(len(term), dtype=np.int64), half_node[term],
            term >> 1]

    cyc = np.flatnonzero(~on_open)
    if len(cyc):
        # linked through both ends, the labels number the cycles in order
        # of their lowest member
        cyc_ends = (2 * cyc[:, None] + [0, 1]).ravel()
        labels = _components(cyc_ends >> 1, succ[cyc_ends] >> 1, k)
        lowest = cyc[(np.diff(np.maximum.accumulate(labels), prepend=-1) > 0)[cyc]]
        c_walk, c_step, c_half = walk(2 * lowest, True)
        cut = ((np.bincount(c_walk) + 1) // 2)[c_walk]
        second = c_step >= cut
        chain = np.concatenate([chain, len(term) + 2 * c_walk + second])
        step = np.concatenate([step, c_step - second * cut])
        half = np.concatenate([half, c_half])
        cyc_keys = [np.repeat(group[lowest], 2), np.ones(2 * len(lowest), dtype=np.int64),
                    np.repeat(lowest, 2), np.tile([0, 1], len(lowest))]
        keys = [np.concatenate(both) for both in zip(keys, cyc_keys)]

    chain_order = np.lexsort(keys[::-1])
    rank = np.empty_like(chain_order)
    rank[chain_order] = np.arange(len(rank))
    half = half[np.lexsort((step, rank[chain]))]
    indptr = _indptr(rank[chain], len(rank))

    a, b = half_node[half[indptr[:-1]]], half_node[half[indptr[1:] - 1] ^ 1]
    both = np.column_stack([half_node[half], half_node[half ^ 1]])
    ends = np.where((a != b)[:, None],
                    np.column_stack([np.minimum(a, b), np.maximum(a, b)]),
                    np.column_stack([np.minimum.reduceat(both.min(axis=1), indptr[:-1]),
                                     np.maximum.reduceat(both.max(axis=1), indptr[:-1])]))
    return half >> 1, indptr, keys[0][chain_order], ends


# ---------------------------------------------------------------------------
# transfers

def build_prolongation(topo: LevelTopology, agg: Agglomeration, coarse_faces: FacePatches,
                       coarse_nodes: np.ndarray) -> sp.csr_matrix:
    """Piecewise-average prolongation from coarse nodes to this level's nodes.

    Coarse nodes inject; nodes on coarse faces average the coarse nodes of
    those faces; interior nodes average the coarse nodes of the first
    element ring around them that holds any (ring 0 is the node's elements,
    ring k+1 adds every element touching a node of ring k). A node whose
    rings stop growing, or that finds none in rings 0 to 19, averages the
    coarse nodes of its agglomerate(s). Every non-injection row has equal
    weights summing to one.
    """
    n = topo.n_nodes
    nc = len(coarse_nodes)
    if nc == 0:
        raise CoarseningError("no coarse nodes on this level")
    col_of = np.full(n, -1, dtype=np.int64)
    col_of[coarse_nodes] = np.arange(nc)
    is_coarse = col_of >= 0
    rows, cols, vals = [coarse_nodes], [np.arange(nc)], [np.ones(nc)]

    def average(nodes, hits):
        """Rows of equal weights over the columns of ``hits``; returns the
        mask of nodes it found no column for."""
        hits = hits.tocsr()
        nnz = np.diff(hits.indptr)
        rows.append(np.repeat(nodes, nnz))
        cols.append(hits.indices)
        vals.append(np.repeat(1.0 / np.maximum(nnz, 1), nnz))
        return nnz == 0

    n_cf = coarse_faces.n_faces
    pair_nodes = coarse_faces.node_ids
    pair_cfs = np.repeat(np.arange(n_cf), np.diff(coarse_faces.node_indptr))
    M1 = sp.csr_matrix((np.ones(len(pair_nodes)), (pair_nodes, pair_cfs)),
                       shape=(n, n_cf))
    on_cf = pair_cfs[is_coarse[pair_nodes]]
    on_nodes = pair_nodes[is_coarse[pair_nodes]]
    M2 = sp.csr_matrix((np.ones(len(on_cf)), (on_cf, col_of[on_nodes])),
                       shape=(n_cf, nc))
    face_node_mask = np.zeros(n, dtype=bool)
    face_node_mask[pair_nodes] = True
    fn = np.flatnonzero(face_node_mask & ~is_coarse)
    missed = fn[average(fn, M1[fn] @ M2)]

    interior = np.union1d(np.flatnonzero(~face_node_mask & ~is_coarse), missed)
    if len(interior):
        N1 = sp.csr_matrix(
            (np.ones(len(topo.node_elem_ids)),
             topo.node_elem_ids,
             topo.node_elem_indptr),
            shape=(n, topo.n_elements))
        NT = N1.T.tocsr()
        C = N1[coarse_nodes].T.tocsr()  # element -> coarse-node incidence
        ring = N1[interior]
        lost = []
        for k in range(SEARCH_RING_LIMIT):
            miss = average(interior, ring @ C)
            interior, ring = interior[miss], ring[miss]
            if not len(interior) or k == SEARCH_RING_LIMIT - 1:
                break
            grown = ((ring @ NT) @ N1).tocsr()
            grown.data[:] = 1.0
            stalled = np.diff(grown.indptr) == np.diff(ring.indptr)
            lost.append(interior[stalled])
            interior, ring = interior[~stalled], grown[~stalled]
        lost = np.concatenate(lost + [interior])
        if len(lost):
            # element -> agglomerate incidence
            E = sp.csr_matrix((np.ones(topo.n_elements),
                               (np.arange(topo.n_elements), agg.element_to_agg)),
                              shape=(topo.n_elements, agg.n_agglomerates))
            miss = average(lost, (N1[lost] @ E) @ (E.T @ C))
            if miss.any():
                raise CoarseningError(
                    f"node {int(lost[miss].min())}: agglomerate has no coarse nodes")

    P = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, nc))
    P.sum_duplicates()
    return P


def restriction(prolongation: sp.csr_matrix) -> sp.csr_matrix:
    """Exact entrywise transpose of the prolongation."""
    return prolongation.transpose().tocsr()


def project_materials(materials: ElementMaterials, agg: Agglomeration,
                      volumes: np.ndarray) -> ElementMaterials:
    """Volume-weighted averages of material data per agglomerate."""
    assign = agg.element_to_agg
    nagg = agg.n_agglomerates
    vol = np.bincount(assign, weights=volumes, minlength=nagg)

    def avg(x):
        return np.bincount(assign, weights=volumes * x, minlength=nagg) / vol

    return ElementMaterials(source=avg(materials.source),
                            sigma_t=avg(materials.sigma_t),
                            sigma_s=avg(materials.sigma_s))


def galerkin_operator(fine_operator: sp.spmatrix,
                      prolongation: sp.spmatrix) -> sp.csr_matrix:
    """Assembled triple product P^T A P."""
    A = fine_operator
    P = prolongation
    if A.shape[1] != P.shape[0]:
        raise ValueError(
            f"operator {A.shape} and prolongation {P.shape} are incompatible")
    coarse = (P.T @ (A @ P)).tocsr()
    coarse.eliminate_zeros()
    return coarse


# ---------------------------------------------------------------------------
# coarse level topology

def _coarse_topology(topo: LevelTopology, agg: Agglomeration, coarse_faces: FacePatches,
                     coarse_nodes: np.ndarray, coarse_edges: EdgeChains | None,
                     node_aggs: tuple) -> LevelTopology:
    """The level whose elements are ``agg``'s agglomerates, with
    ``node_aggs``, the fine level's (node, agglomerate) pairs from
    :func:`_coarse_mask`."""
    faces = topo.faces
    nagg = agg.n_agglomerates
    nc = len(coarse_nodes)
    col_of = np.full(topo.n_nodes, -1, dtype=np.int64)
    col_of[coarse_nodes] = np.arange(nc)

    assign = agg.element_to_agg
    elem_volume = np.bincount(assign, weights=topo.dual.vertex_weight, minlength=nagg)

    # one level face per geometric coarse face; each area is the sum over the
    # row's ascending fine faces, with the bits of ndarray.sum()
    cf = coarse_faces
    nf = cf.n_faces
    area = _row_sums(cf.fine_face_indptr, faces.area[cf.fine_face_ids])
    # coarse nodes of each level face, ascending
    on = col_of[cf.node_ids] >= 0
    row_of = np.repeat(np.arange(nf), np.diff(cf.node_indptr))
    new_faces = FaceSet(node_indptr=_indptr(row_of[on], nf), node_ids=col_of[cf.node_ids[on]],
                        left=cf.left, right=cf.right, area=area, tag=cf.tag)

    # the pairs run by node, and col_of keeps the node order
    an, aa = node_aggs
    keep = col_of[an] >= 0
    node_elem = _indptr(col_of[an[keep]], nc), aa[keep]

    edges = None
    if coarse_edges is not None and len(coarse_edges.endpoints):
        ce = coarse_edges
        edges = EdgeSet(nodes=np.sort(col_of[ce.endpoints], axis=1),
                        face_indptr=ce.face_indptr, face_ids=ce.face_ids)

    return LevelTopology.from_faces(topo.dim, new_faces, elem_volume, node_elem, edges)


# ---------------------------------------------------------------------------
# hierarchy driver

def _level_seed(seed: int, level: int) -> int:
    return int(np.random.SeedSequence([seed & (2**63 - 1), level]).generate_state(1)[0])


def build_hierarchy(mesh: Mesh, config: CoarsenConfig,
                    materials: MaterialTable | None = None,
                    schedule: LevelSchedule | None = None,
                    stop: StopRule | None = None,
                    operator: sp.spmatrix | None = None,
                    fine_topology: LevelTopology | None = None) -> Hierarchy:
    """Coarsen repeatedly into a multigrid hierarchy.

    Each step runs coarsen -> cleanup -> coarse topology -> prolongation
    -> material projection (-> Galerkin operator when a fine operator is
    given). Stops at the node threshold, on stagnating node reduction, at
    the level cap, or when coarsening merges no elements. A level on which
    some agglomerate can get no coarse node, because it has no neighbour to
    merge into (one agglomerate per component of a disconnected mesh, say),
    also ends the hierarchy: the levels built so far are kept and that
    level is dropped. ``Hierarchy.stop_reason`` names the rule that ended
    it.

    With an ``operator``, a coarse level whose operator is dense enough
    that its dense LU costs about as much as its smoothing (n unknowns, at most
    ``COARSEST_LIMIT``, with n**2 <= ``DENSE_STOP`` * nnz) is the coarsest
    one too. This deviates from the paper's node-count stop: in 3D the
    assembled Galerkin operators fill in long before the node threshold.
    The fine level never stops this way, and a hierarchy built without an
    operator has no density to test, so it keeps the node-count stop.

    All seven algorithms re-apply on coarse levels via the rebuilt
    LevelTopology. A precomputed ``fine_topology`` for the same mesh skips
    the topology derivation (useful in seed sweeps).

    Every level's agglomerate size comes from ``schedule``: a
    ``config.desired_size`` other than None or ``schedule.top`` raises
    ValueError rather than being silently replaced.
    """
    schedule = schedule or level_schedule(mesh.dim)
    if config.desired_size not in (None, schedule.top):
        raise ValueError(
            f"desired_size {config.desired_size} is not the schedule's top size "
            f"{schedule.top}; set the sizes through the LevelSchedule")
    replace(config, desired_size=schedule.top).validate()  # the algorithm name
    stop = stop or StopRule()
    topo0 = fine_topology if fine_topology is not None else LevelTopology.from_mesh(mesh)
    topo = topo0

    levels = []
    mats = ElementMaterials.from_table(mesh, materials) if materials else None
    A = operator.tocsr() if operator is not None else None
    fine_A = A

    stop_reason = "max_levels"
    while len(levels) + 1 < stop.max_levels:
        if topo.n_nodes <= stop.coarse_nodes:
            stop_reason = "coarse_nodes"
            break
        if (levels and A is not None and A.shape[0] <= COARSEST_LIMIT
                and A.shape[0] ** 2 <= DENSE_STOP * A.nnz):
            stop_reason = "dense"
            break
        s = schedule.size_for(len(levels), topo)
        level_config = CoarsenConfig(algorithm=config.algorithm, desired_size=s,
                                     seed=_level_seed(config.seed, len(levels)))
        agg = coarsen(topo, level_config)
        if agg.n_agglomerates >= topo.n_elements:
            stop_reason = "no_coarsening"
            break
        selection = _coarse_selection(topo, agg, config.algorithm)
        if selection is None:
            stop_reason = "uncoverable"  # end one level early
            break
        agg, cfs, cnodes, cedges, node_aggs = selection
        P = build_prolongation(topo, agg, cfs, cnodes)
        new_topo = _coarse_topology(topo, agg, cfs, cnodes, cedges, node_aggs)
        new_mats = (project_materials(mats, agg, topo.dual.vertex_weight)
                    if mats is not None else None)
        new_A = galerkin_operator(A, P) if A is not None else None
        stagnating = len(cnodes) > (1.0 - MIN_NODE_REDUCTION) * topo.n_nodes
        levels.append(GridLevel(agglomeration=agg, coarse_faces=cfs,
                                coarse_nodes=cnodes, prolongation=P,
                                topology=new_topo, materials=new_mats,
                                operator=new_A, coarse_edges=cedges))
        topo, mats, A = new_topo, new_mats, new_A
        if stagnating:
            # keep the level, but a sub-10% node reduction ends the hierarchy
            stop_reason = "stagnation"
            break

    return Hierarchy(mesh=mesh, fine_topology=topo0, levels=levels, config=config,
                     fine_operator=fine_A, stop_reason=stop_reason)


def _coarse_selection(topo, agg, algorithm):
    """Coarse faces, nodes and (kraus) edges, repairing deficient
    agglomerates, with the final round's (node, agglomerate) pairs.

    An agglomerate that owns no coarse node under the selection rule is
    merged into the neighbour it shares the most interface area with (the
    enclosure merge exists for exactly this reason), and the selection is
    redone. Terminates because every round removes at least one agglomerate;
    returns None when uncovered agglomerates have no neighbour to merge into.
    """
    kraus3d = algorithm == "kraus" and topo.dim == 3 and topo.edges is not None
    while True:
        cfs = select_coarse_faces(topo, agg)
        cedges = select_coarse_edges(topo, cfs) if kraus3d else None
        coarse, covered, node_aggs = _coarse_mask(topo, agg, cfs, cedges)
        if covered.all():
            return agg, cfs, np.flatnonzero(coarse), cedges, node_aggs
        merged = _merge_uncovered(topo, agg, np.flatnonzero(~covered))
        if merged.n_agglomerates == agg.n_agglomerates:
            return None
        agg = merged


def _merge_uncovered(topo, agg, uncovered):
    """Merge each uncovered agglomerate into the neighbour it shares the
    most interface area with (ties to the lowest id); merges chain, so each
    connected group of merge pairs becomes one agglomerate."""
    assign = agg.element_to_agg
    dual = topo.dual
    nagg = agg.n_agglomerates
    src = np.repeat(np.arange(topo.n_elements), np.diff(dual.indptr))
    a_side = assign[src]
    b_side = assign[dual.indices]
    sel = np.isin(a_side, uncovered) & (a_side != b_side)
    # interface area per (uncovered, neighbour) pair, summed in entry order;
    # an isolated agglomerate has no pair and merges into nothing
    indptr, nbr, area, _ = _collapse_pairs(a_side[sel], b_side[sel],
                                           dual.edge_weight[sel], nagg)
    row = np.repeat(np.arange(nagg), np.diff(indptr))
    best = np.lexsort((nbr, -area, row))
    best = best[np.flatnonzero(np.diff(row[best], prepend=-1))]
    labels = _components(row[best], nbr[best], nagg)
    return Agglomeration(_first_appearance(labels[assign]))


def grid_complexity(hierarchy) -> float:
    """Sum of per-level node counts over the finest node count."""
    counts = hierarchy.node_counts if hasattr(hierarchy, "node_counts") else list(hierarchy)
    if not counts or counts[0] <= 0:
        raise ValueError("empty hierarchy")
    return float(sum(counts) / counts[0])


def operator_complexity(hierarchy: Hierarchy) -> float:
    """Sum of per-level operator nonzeros over the finest nonzeros."""
    ops = hierarchy.operators
    return float(sum(op.nnz for op in ops) / ops[0].nnz)
