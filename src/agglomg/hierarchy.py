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
arrays; only the walk that orders each coarse edge's fine edges into
chains is sequential. A level on which an agglomerate can get no coarse
node ends the hierarchy one level early (see :func:`build_hierarchy`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import (BOUNDARY, EdgeSet, FaceSet, LevelTopology, Mesh,
                   MaterialTable, _components, _csr_from_pairs,
                   _dual_from_faces, _first_appearance, _gather_ragged, _unique_pairs)
from .agglomerate import SIZE_BASED, Agglomeration, CoarsenConfig, _group_pairs, coarsen

SEARCH_RING_LIMIT = 20
# in 3D, levels with fewer elements than this are coarsened with SMALL_GRID_SIZE
SMALL_GRID_ELEMENTS = 100
SMALL_GRID_SIZE = 4
# a level that removes less than this share of the nodes is the last one
MIN_NODE_REDUCTION = 0.10


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
        missing = set(int(r) for r in np.unique(mesh.material_id)) - set(table)
        if missing:
            raise ValueError(f"material table missing regions {sorted(missing)}")
        src = np.array([table[int(r)].source for r in mesh.material_id])
        st = np.array([table[int(r)].sigma_t for r in mesh.material_id])
        ss = np.array([table[int(r)].sigma_s for r in mesh.material_id])
        return cls(source=src, sigma_t=st, sigma_s=ss)


@dataclass
class LevelSchedule:
    """Desired agglomerate size for each coarsening step.

    The top grid is coarsened aggressively, lower grids gently; in 3D the
    size drops to ``SMALL_GRID_SIZE`` once fewer than ``SMALL_GRID_ELEMENTS``
    remain.
    """

    dim: int
    top: int
    lower: int

    def size_for(self, level_index: int, n_elements: int) -> int:
        if level_index == 0:
            return self.top
        if self.dim == 3 and n_elements < SMALL_GRID_ELEMENTS:
            return SMALL_GRID_SIZE
        return self.lower


def level_schedule(dim: int, top: int | None = None,
                   lower: int | None = None) -> LevelSchedule:
    """Default desired sizes: 24 then 4 in 2D; 168 then 8 (then 4) in 3D."""
    if dim == 2:
        return LevelSchedule(dim=2, top=top if top else 24, lower=lower if lower else 4)
    return LevelSchedule(dim=3, top=top if top else 168, lower=lower if lower else 8)


@dataclass
class StopRule:
    coarse_nodes: int = 60
    max_levels: int = 10


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
    fine_materials: ElementMaterials | None = None

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
    # per (owner, tag); faces stay ascending inside each group
    fids = np.concatenate([interior[cross], bd])
    boundary = np.repeat([False, True], [int(cross.sum()), len(bd)])
    owner = np.concatenate([np.minimum(a_side, b_side)[cross], assign[faces.left[bd]]])
    other = np.concatenate([np.maximum(a_side, b_side)[cross], faces.tag[bd]])
    order = np.lexsort((other, owner, boundary))
    fids, boundary, owner, other = fids[order], boundary[order], owner[order], other[order]
    new = np.ones(len(fids), dtype=bool)
    new[1:] = ((boundary[1:] != boundary[:-1]) | (owner[1:] != owner[:-1])
               | (other[1:] != other[:-1]))
    group = np.cumsum(new) - 1
    labels = _face_components(topo, fids, group)

    # labels run group by group, and by smallest face inside a group: one
    # row per label, read off its first (smallest) fine face
    _, first = np.unique(labels, return_index=True)
    n_rows = len(first)
    on_boundary = boundary[first]
    ff_indptr, ff_ids = _csr_from_pairs(labels, fids, n_rows)
    row_of = np.repeat(np.arange(n_rows), np.diff(ff_indptr))
    vals, counts = _gather_ragged(faces.node_indptr, faces.node_ids, ff_ids)
    nodes, rows = _unique_pairs(vals, np.repeat(row_of, counts), n_rows)
    node_indptr, node_ids = _csr_from_pairs(rows, nodes, n_rows)
    return FacePatches(left=owner[first],
                       right=np.where(on_boundary, BOUNDARY, other[first]),
                       tag=np.where(on_boundary, other[first], -1),
                       fine_face_indptr=ff_indptr, fine_face_ids=ff_ids,
                       node_indptr=node_indptr, node_ids=node_ids)


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
        indptr = np.zeros(len(fids) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        i, j = _group_pairs(indptr, np.arange(len(vals)))
        lower = vals[i] < vals[j]
        i, j = i[lower], j[lower]
        pos, key = pos[i], vals[i] * topo.n_nodes + vals[j]
    # faces of one group that carry the same key are adjacent; linking
    # each to the next in key order connects them all
    g = group[pos]
    order = np.lexsort((key, g))
    pos, key, g = pos[order], key[order], g[order]
    link = (key[1:] == key[:-1]) & (g[1:] == g[:-1])
    return _components(pos[:-1][link], pos[1:][link], len(fids))


# ---------------------------------------------------------------------------
# coarse nodes

def _node_agg_pairs(topo, agg):
    """Unique (node, agglomerate) incidence pairs."""
    nodes = np.repeat(np.arange(topo.n_nodes), np.diff(topo.node_elem_indptr))
    return _unique_pairs(nodes, agg.element_to_agg[topo.node_elem_ids], agg.n_agglomerates)


def _coarse_mask(topo, agg, coarse_faces, coarse_edges=None):
    """Coarse-node mask of a level and which agglomerates it covers.

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
    return coarse, coverage(coarse)


def select_coarse_nodes(topo: LevelTopology, agg: Agglomeration,
                        coarse_faces: FacePatches) -> np.ndarray:
    """Nodes kept on the coarse level, by the face-count rule.

    A node is coarse when the number of coarse faces containing it exceeds
    2^(dim-2) times the number of coarse elements containing it, which
    keeps exactly the vertices of the agglomerate tessellation. Raises
    when any agglomerate ends up without a coarse node.
    """
    coarse, covered = _coarse_mask(topo, agg, coarse_faces)
    if not covered.all():
        missing = np.flatnonzero(~covered)
        raise CoarseningError(
            f"agglomerate(s) {missing[:10].tolist()} have no coarse node")
    return np.flatnonzero(coarse)


def select_coarse_edges(topo: LevelTopology, coarse_faces: FacePatches) -> EdgeChains:
    """Chains of fine edges shared between the same set of coarse faces.

    Cycles are broken at their two topologically farthest nodes; branch
    points split chains so every coarse edge is a simple open path.
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
    kept = np.bincount(edge_of, minlength=edges.n_edges) >= 2
    sel = kept[edge_of]
    edge_of, cfs = edge_of[sel], cfs[sel]
    starts = np.flatnonzero(np.diff(edge_of, prepend=-1))
    groups = {}
    for e, sig in zip(edge_of[starts].tolist(), np.split(cfs, starts[1:])):
        groups.setdefault(tuple(sig.tolist()), []).append(e)

    ends, fine, fine_indptr, sigs, sig_indptr = [], [], [0], [], [0]
    for sig in sorted(groups):
        for chain in _edge_chains(edges, groups[sig]):
            ends.append(_chain_endpoints(edges, chain))
            fine += chain
            fine_indptr.append(len(fine))
            sigs += sig
            sig_indptr.append(len(sigs))
    return EdgeChains(endpoints=np.array(ends, dtype=np.int64).reshape(-1, 2),
                      fine_edge_indptr=np.array(fine_indptr, dtype=np.int64),
                      fine_edge_ids=np.array(fine, dtype=np.int64),
                      face_indptr=np.array(sig_indptr, dtype=np.int64),
                      face_ids=np.array(sigs, dtype=np.int64))


def _edge_chains(edges: EdgeSet, members: list) -> list:
    """Decompose an edge set into simple open paths."""
    node_deg = {}
    node_edges = {}
    for e in members:
        for nd in edges.nodes[e]:
            nd = int(nd)
            node_deg[nd] = node_deg.get(nd, 0) + 1
            node_edges.setdefault(nd, []).append(e)
    unused = set(members)
    chains = []

    def walk(start_node, first_edge):
        chain = []
        node, eid = start_node, first_edge
        while True:
            chain.append(eid)
            unused.discard(eid)
            a, b = int(edges.nodes[eid][0]), int(edges.nodes[eid][1])
            node = b if a == node else a
            if node_deg[node] != 2:
                break
            nxt = [x for x in node_edges[node] if x in unused]
            if not nxt:
                break
            eid = nxt[0]
        return chain, node

    # open paths start at nodes of degree != 2
    breakpoints = sorted(n for n, d in node_deg.items() if d != 2)
    for n in breakpoints:
        for e in sorted(node_edges[n]):
            if e in unused:
                chain, _ = walk(n, e)
                chains.append(chain)
    # what remains are pure cycles; break each at its two farthest nodes
    while unused:
        e0 = min(unused)
        start = int(edges.nodes[e0][0])
        cycle, _ = walk(start, e0)
        if len(cycle) == 1:
            chains.append(cycle)
            continue
        half = (len(cycle) + 1) // 2
        chains.append(cycle[:half])
        chains.append(cycle[half:])
    return chains


def _chain_endpoints(edges: EdgeSet, chain: list) -> tuple:
    count = {}
    for e in chain:
        for nd in edges.nodes[e]:
            nd = int(nd)
            count[nd] = count.get(nd, 0) + 1
    ends = sorted(n for n, c in count.items() if c == 1)
    if len(ends) == 2:
        return (ends[0], ends[1])
    # degenerate single-edge loops or repeated nodes: fall back to extremes
    nodes = sorted(count)
    return (nodes[0], nodes[-1])


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
                     coarse_nodes: np.ndarray,
                     coarse_edges: EdgeChains | None) -> LevelTopology:
    faces = topo.faces
    nagg = agg.n_agglomerates
    nc = len(coarse_nodes)
    col_of = np.full(topo.n_nodes, -1, dtype=np.int64)
    col_of[coarse_nodes] = np.arange(nc)

    assign = agg.element_to_agg
    elem_volume = np.bincount(assign, weights=topo.elem_volume, minlength=nagg)

    # one level face per geometric coarse face; each area is a plain sum over
    # the row's ascending fine faces (np.add.reduceat would round differently)
    cf = coarse_faces
    nf = cf.n_faces
    left, right, tag = cf.left, cf.right, cf.tag
    area = np.array([faces.area[row].sum() for row in
                     np.split(cf.fine_face_ids, cf.fine_face_indptr[1:-1])], dtype=float)
    # coarse nodes of each level face, ascending
    on = col_of[cf.node_ids] >= 0
    row_of = np.repeat(np.arange(nf), np.diff(cf.node_indptr))
    node_indptr, node_ids = _csr_from_pairs(row_of[on], col_of[cf.node_ids[on]], nf)

    fsrc = np.concatenate([left, right[right >= 0]])
    fface = np.concatenate([np.arange(nf), np.flatnonzero(right >= 0)])
    ef_indptr, ef_ids = _csr_from_pairs(fsrc, fface, nagg)

    nface = np.repeat(np.arange(nf), np.diff(node_indptr))
    nf_indptr, nf_ids = _csr_from_pairs(node_ids, nface, nc)

    new_faces = FaceSet(node_indptr=node_indptr, node_ids=node_ids,
                        left=left, right=right, area=area, tag=tag,
                        elem_indptr=ef_indptr, elem_face_ids=ef_ids,
                        node_face_indptr=nf_indptr, node_face_ids=nf_ids)

    dual = _dual_from_faces(new_faces, elem_volume)

    an, aa = _node_agg_pairs(topo, agg)
    keep = col_of[an] >= 0
    ne_indptr, ne_ids = _csr_from_pairs(col_of[an[keep]], aa[keep], nc)

    bd_mask = right == BOUNDARY
    node_bd = np.zeros(nc, dtype=bool)
    node_bd[node_ids[np.repeat(bd_mask, np.diff(node_indptr))]] = True
    elem_bd_area = np.bincount(left[bd_mask], weights=area[bd_mask], minlength=nagg)

    edges = None
    if coarse_edges is not None and len(coarse_edges.endpoints):
        ce = coarse_edges
        n_edges = len(ce.endpoints)
        enodes = np.sort(col_of[ce.endpoints], axis=1)
        # the elements of a coarse edge: the agglomerates on its faces
        edge_of = np.tile(np.repeat(np.arange(n_edges), np.diff(ce.face_indptr)), 2)
        sides = np.concatenate([left[ce.face_ids], right[ce.face_ids]])
        on = sides >= 0
        el_indptr, el_ids = _csr_from_pairs(
            *_unique_pairs(edge_of[on], sides[on], nagg), n_edges)
        ne2_indptr, ne2_ids = _csr_from_pairs(
            enodes.ravel(), np.repeat(np.arange(n_edges), 2), nc)
        edges = EdgeSet(nodes=enodes, face_indptr=ce.face_indptr, face_ids=ce.face_ids,
                        elem_indptr=el_indptr, elem_ids=el_ids,
                        node_edge_indptr=ne2_indptr, node_edge_ids=ne2_ids)

    return LevelTopology(
        dim=topo.dim,
        n_elements=nagg,
        n_nodes=nc,
        elem_volume=elem_volume,
        elem_boundary_area=elem_bd_area,
        faces=new_faces,
        edges=edges,
        dual=dual,
        node_elem_indptr=ne_indptr,
        node_elem_ids=ne_ids,
        node_boundary=node_bd,
        node_fine_ids=topo.node_fine_ids[coarse_nodes],
    )


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
    given). Stops at the node threshold, on stagnating node reduction, or
    at the level cap. A level on which some agglomerate can get no coarse
    node, because it has no neighbour to merge into (one agglomerate per
    component of a disconnected mesh, say), also ends the hierarchy: the
    levels built so far are kept and that level is dropped. All seven
    algorithms re-apply on coarse levels via the rebuilt LevelTopology. A
    precomputed ``fine_topology`` for the same mesh skips the topology
    derivation (useful in seed sweeps).
    """
    config.validate()
    schedule = schedule or level_schedule(mesh.dim)
    stop = stop or StopRule()
    topo0 = fine_topology if fine_topology is not None else LevelTopology.from_mesh(mesh)
    topo = topo0
    fine_mats = ElementMaterials.from_table(mesh, materials) if materials else None

    levels = []
    mats = fine_mats
    A = operator.tocsr() if operator is not None else None
    fine_A = A

    while len(levels) + 1 < stop.max_levels:
        if topo.n_nodes <= stop.coarse_nodes:
            break
        s = schedule.size_for(len(levels), topo.n_elements)
        if len(levels) > 0 and config.algorithm in SIZE_BASED:
            # fixed lower-grid sizes must shrink with the remaining grid
            s = min(s, max(2, topo.n_elements // 2))
        level_config = CoarsenConfig(algorithm=config.algorithm, desired_size=s,
                                     seed=_level_seed(config.seed, len(levels)))
        agg = coarsen(topo, level_config)
        if agg.n_agglomerates >= topo.n_elements:
            break  # no coarsening happened
        selection = _coarse_selection(topo, agg, config.algorithm)
        if selection is None:
            break  # an uncoverable agglomerate: end one level early
        agg, cfs, cnodes, cedges = selection
        P = build_prolongation(topo, agg, cfs, cnodes)
        new_topo = _coarse_topology(topo, agg, cfs, cnodes, cedges)
        new_mats = (project_materials(mats, agg, topo.elem_volume)
                    if mats is not None else None)
        new_A = galerkin_operator(A, P) if A is not None else None
        stagnating = len(cnodes) > (1.0 - MIN_NODE_REDUCTION) * topo.n_nodes
        levels.append(GridLevel(agglomeration=agg, coarse_faces=cfs,
                                coarse_nodes=cnodes, prolongation=P,
                                topology=new_topo, materials=new_mats,
                                operator=new_A, coarse_edges=cedges))
        topo, mats, A = new_topo, new_mats, new_A
        if stagnating:
            break  # keep the level, but a sub-10% node reduction ends the hierarchy

    return Hierarchy(mesh=mesh, fine_topology=topo0, levels=levels, config=config,
                     fine_operator=fine_A, fine_materials=fine_mats)


def _coarse_selection(topo, agg, algorithm):
    """Coarse faces, nodes and (kraus) edges, repairing deficient agglomerates.

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
        coarse, covered = _coarse_mask(topo, agg, cfs, cedges)
        if covered.all():
            return agg, cfs, np.flatnonzero(coarse), cedges
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
    sources, targets = [], []
    for a in uncovered:
        sel = (a_side == a) & (b_side != a)
        if not sel.any():
            continue  # isolated agglomerate; nothing to merge into
        areas = np.bincount(b_side[sel], weights=dual.edge_weight[sel], minlength=nagg)
        sources.append(int(a))
        targets.append(int(np.argmax(areas)))
    labels = _components(np.array(sources, dtype=np.int64),
                         np.array(targets, dtype=np.int64), nagg)
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
