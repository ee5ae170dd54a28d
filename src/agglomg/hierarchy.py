"""Coarse topology, transfer operators, and multigrid hierarchy assembly.

A coarse level is derived from an agglomeration in four steps: group the
interface fine faces into coarse faces (split per connected component and
per boundary tag), pick coarse nodes by the face-count rule (or from
coarse-edge endpoints on the kraus path), build the piecewise-average
prolongation, and re-express the level as a :class:`LevelTopology` so
every coarsening algorithm can run again on it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import (BOUNDARY, EdgeSet, FaceSet, LevelTopology, Mesh,
                   MaterialTable, _components, _csr_from_pairs,
                   _dual_from_faces, _first_appearance, _gather_ragged)
from .agglomerate import (Agglomeration, CoarsenConfig, _group_pairs, _invert_csr,
                          coarsen)

SEARCH_RING_LIMIT = 20


class CoarseningError(RuntimeError):
    """A level violates a coarse-topology guarantee (e.g. no coarse node)."""


@dataclass
class CoarseFace:
    """One side of an agglomerate interface, or one boundary patch.

    Interfaces produce two CoarseFace records, one owned by each side,
    over the same fine faces. Groups are split into connected components
    of the fine-face adjacency, indexed by ``component``.
    """

    owner: int
    opposite: int      # agglomerate id, or BOUNDARY
    tag: int           # boundary tag, or -1 for interfaces
    fine_faces: np.ndarray
    component: int


@dataclass
class CoarseEdge:
    """Chain of fine edges shared by one set of coarse faces."""

    endpoints: tuple
    fine_edges: np.ndarray
    coarse_faces: tuple


@dataclass
class CoarseEdgeSet:
    edges: list

    def __len__(self):
        return len(self.edges)


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
    size drops further once fewer than ``small_grid_elements`` remain.
    """

    dim: int
    top: int
    lower: int
    small_grid_elements: int = 100
    small_grid_size: int = 4

    def size_for(self, level_index: int, n_elements: int) -> int:
        if level_index == 0:
            return self.top
        if self.dim == 3 and n_elements < self.small_grid_elements:
            return self.small_grid_size
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
    min_reduction: float = 0.10
    max_levels: int = 10


@dataclass
class GridLevel:
    """One coarse level: its agglomeration, topology, transfer and operator."""

    agglomeration: Agglomeration
    coarse_faces: list
    coarse_nodes: np.ndarray      # node ids in the finer level's numbering
    prolongation: sp.csr_matrix   # finer-level nodes x this level's nodes
    topology: LevelTopology
    materials: ElementMaterials | None = None
    operator: sp.csr_matrix | None = None
    coarse_edges: CoarseEdgeSet | None = None


@dataclass
class Hierarchy:
    mesh: Mesh
    fine_topology: LevelTopology
    levels: list
    schedule_used: list
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

def select_coarse_faces(topo: LevelTopology, agg: Agglomeration) -> list:
    """Coarse faces: interface fine faces grouped per agglomerate pair side,
    boundary fine faces grouped per (agglomerate, tag), each group split
    into connected components (shared node in 2D, shared edge in 3D).
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

    # labels run group by group, and by smallest face inside a group
    group_first_label = labels[new]
    by_label = np.argsort(labels, kind="stable")
    out = []
    for comp in np.split(by_label, np.flatnonzero(np.diff(labels[by_label])) + 1):
        i = comp[0]
        ci = int(labels[i] - group_first_label[group[i]])
        a, b = int(owner[i]), int(other[i])
        if boundary[i]:
            out.append(CoarseFace(owner=a, opposite=BOUNDARY, tag=b,
                                  fine_faces=fids[comp], component=ci))
        else:
            out.append(CoarseFace(owner=a, opposite=b, tag=-1,
                                  fine_faces=fids[comp], component=ci))
            out.append(CoarseFace(owner=b, opposite=a, tag=-1,
                                  fine_faces=fids[comp], component=ci))
    return out


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

def _node_coarseface_pairs(topo, coarse_faces):
    """Unique (node, coarse-face index) incidence pairs."""
    if not coarse_faces:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    faces = topo.faces
    rows = np.concatenate([cf.fine_faces for cf in coarse_faces])
    cf_of = np.repeat(np.arange(len(coarse_faces)),
                      [len(cf.fine_faces) for cf in coarse_faces])
    vals, counts = _gather_ragged(faces.node_indptr, faces.node_ids, rows)
    cfs = np.repeat(cf_of, counts)
    key = np.unique(vals * len(coarse_faces) + cfs)
    return key // len(coarse_faces), key % len(coarse_faces)


def _node_agg_pairs(topo, agg):
    """Unique (node, agglomerate) incidence pairs."""
    assign = agg.element_to_agg
    per_node = np.diff(topo.node_elem_indptr)
    nodes = np.repeat(np.arange(topo.n_nodes), per_node)
    aggs = assign[topo.node_elem_ids]
    key = nodes * max(agg.n_agglomerates, 1) + aggs
    uniq = np.unique(key)
    return uniq // max(agg.n_agglomerates, 1), uniq % max(agg.n_agglomerates, 1)


def _coarse_mask(topo, agg, coarse_faces, coarse_edges=None):
    """Coarse-node mask of a level and which agglomerates it covers.

    Without coarse edges a node is coarse by the face-count rule. With them
    (the 3D kraus path) the coarse-edge endpoints are coarse, and an
    agglomerate they leave uncovered falls back to the face-count rule.
    """
    an, aa = _node_agg_pairs(topo, agg)

    def face_count_rule():
        cf_nodes, _ = _node_coarseface_pairs(topo, coarse_faces)
        cf_count = np.bincount(cf_nodes, minlength=topo.n_nodes)
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
        coarse[[v for ce in coarse_edges.edges for v in ce.endpoints]] = True
        covered = coverage(coarse)
        if not covered.all():
            coarse[an[~covered[aa] & face_count_rule()[an]]] = True
    return coarse, coverage(coarse)


def select_coarse_nodes(topo: LevelTopology, agg: Agglomeration,
                        coarse_faces: list) -> np.ndarray:
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


def select_coarse_edges(topo: LevelTopology, coarse_faces: list) -> CoarseEdgeSet:
    """Chains of fine edges shared between the same set of coarse faces.

    Cycles are broken at their two topologically farthest nodes; branch
    points split chains so every coarse edge is a simple open path.
    """
    if topo.edges is None:
        raise ValueError("coarse edges require an EdgeSet (3D kraus path)")
    edges = topo.edges
    # the two sides of an interface are one geometric face here, otherwise
    # an interface's whole interior would count as "shared edges"
    geo_key = {}
    key_ids = {}
    for ci, cf in enumerate(coarse_faces):
        if cf.opposite == BOUNDARY:
            key = (cf.owner, -1, cf.tag, cf.component)
        else:
            key = (min(cf.owner, cf.opposite), max(cf.owner, cf.opposite),
                   -1, cf.component)
        geo_key[ci] = key_ids.setdefault(key, len(key_ids))
    # fine face -> geometric coarse faces containing it
    face_cf = [[] for _ in range(topo.faces.n_faces)]
    for ci, cf in enumerate(coarse_faces):
        for f in cf.fine_faces:
            face_cf[int(f)].append(ci)
    # edge -> set of geometric faces of its incident fine faces
    groups = {}
    for e in range(edges.n_edges):
        cfs = set()
        for f in edges.edge_faces(e):
            cfs.update(face_cf[int(f)])
        if len(set(geo_key[c] for c in cfs)) >= 2:
            groups.setdefault(tuple(sorted(cfs)), []).append(e)

    out = []
    for sig in sorted(groups):
        members = groups[sig]
        for chain in _edge_chains(edges, members):
            endpoints = _chain_endpoints(edges, chain)
            out.append(CoarseEdge(endpoints=endpoints,
                                  fine_edges=np.array(chain, dtype=np.int64),
                                  coarse_faces=sig))
    return CoarseEdgeSet(edges=out)


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

def build_prolongation(topo: LevelTopology, agg: Agglomeration,
                       coarse_faces: list, coarse_nodes: np.ndarray) -> sp.csr_matrix:
    """Piecewise-average prolongation from coarse nodes to this level's nodes.

    Coarse nodes inject; nodes on coarse faces average the coarse nodes of
    those faces; interior nodes average the coarse nodes sharing one of
    their elements, expanding the element ring when none are found and
    falling back to the agglomerate average after 20 expansions. Every
    non-injection row has equal weights summing to one.
    """
    n = topo.n_nodes
    nc = len(coarse_nodes)
    if nc == 0:
        raise CoarseningError("no coarse nodes on this level")
    col_of = np.full(n, -1, dtype=np.int64)
    col_of[coarse_nodes] = np.arange(nc)
    is_coarse = col_of >= 0

    pair_nodes, pair_cfs = _node_coarseface_pairs(topo, coarse_faces)
    n_cf = len(coarse_faces)
    M1 = sp.csr_matrix((np.ones(len(pair_nodes)), (pair_nodes, pair_cfs)),
                       shape=(n, n_cf))
    on_cf = pair_cfs[is_coarse[pair_nodes]]
    on_nodes = pair_nodes[is_coarse[pair_nodes]]
    M2 = sp.csr_matrix((np.ones(len(on_cf)), (on_cf, col_of[on_nodes])),
                       shape=(n_cf, nc))

    face_node_mask = np.zeros(n, dtype=bool)
    face_node_mask[pair_nodes] = True

    rows, cols, vals = [], [], []

    rows.append(coarse_nodes)
    cols.append(np.arange(nc))
    vals.append(np.ones(nc))

    fn = np.flatnonzero(face_node_mask & ~is_coarse)
    interior_extra = []
    if len(fn):
        U = (M1[fn] @ M2).tocsr()
        U.data[:] = 1.0  # membership, not multiplicity
        U.sum_duplicates()
        nnz = np.diff(U.indptr)
        good = nnz > 0
        w = np.repeat(1.0 / np.maximum(nnz, 1), nnz)
        rows.append(np.repeat(fn, nnz))
        cols.append(U.indices.copy())
        vals.append(w)
        interior_extra = fn[~good].tolist()

    interior = np.flatnonzero(~face_node_mask & ~is_coarse).tolist()
    interior.extend(interior_extra)
    if interior:
        interior = np.array(sorted(interior), dtype=np.int64)
        N1 = sp.csr_matrix(
            (np.ones(len(topo.node_elem_ids)),
             topo.node_elem_ids,
             topo.node_elem_indptr),
            shape=(n, topo.n_elements))
        # element -> coarse-node incidence
        en = np.repeat(np.arange(n), np.diff(topo.node_elem_indptr))
        ee = topo.node_elem_ids
        keep = is_coarse[en]
        C = sp.csr_matrix((np.ones(int(keep.sum())), (ee[keep], col_of[en[keep]])),
                          shape=(topo.n_elements, nc))
        U2 = (N1[interior] @ C).tocsr()
        nnz = np.diff(U2.indptr)
        good = nnz > 0
        w = np.repeat(1.0 / np.maximum(nnz, 1), nnz)
        rows.append(np.repeat(interior, nnz))
        cols.append(U2.indices.copy())
        vals.append(w)
        for node in interior[~good]:
            r, c, v = _expand_search(topo, agg, int(node), col_of, is_coarse)
            rows.append(r)
            cols.append(c)
            vals.append(v)

    P = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, nc))
    P.sum_duplicates()
    return P


def _expand_search(topo, agg, node, col_of, is_coarse):
    """Ring expansion for an interior node with no coarse node in its elements."""
    elems = set(int(e) for e in topo.node_elements(node))
    elem_nodes_indptr, elem_nodes_ids = _elem_node_csr(topo)

    def coarse_cols(elem_set):
        found = set()
        for e in elem_set:
            for nd in elem_nodes_ids[elem_nodes_indptr[e]:elem_nodes_indptr[e + 1]]:
                if is_coarse[nd]:
                    found.add(int(col_of[nd]))
        return found

    for _ in range(SEARCH_RING_LIMIT):
        found = coarse_cols(elems)
        if found:
            cols = np.array(sorted(found), dtype=np.int64)
            w = np.full(len(cols), 1.0 / len(cols))
            return np.full(len(cols), node, dtype=np.int64), cols, w
        ring_nodes = set()
        for e in elems:
            ring_nodes.update(
                int(v) for v in
                elem_nodes_ids[elem_nodes_indptr[e]:elem_nodes_indptr[e + 1]])
        grown = set(elems)
        for nd in ring_nodes:
            grown.update(int(e) for e in topo.node_elements(nd))
        if grown == elems:
            break
        elems = grown
    # fall back to all coarse nodes of the node's agglomerate(s)
    assign = agg.element_to_agg
    own = set(int(assign[e]) for e in topo.node_elements(node))
    found = set()
    for e in np.flatnonzero(np.isin(assign, sorted(own))):
        for nd in elem_nodes_ids[elem_nodes_indptr[e]:elem_nodes_indptr[e + 1]]:
            if is_coarse[nd]:
                found.add(int(col_of[nd]))
    if not found:
        raise CoarseningError(f"node {node}: agglomerate has no coarse nodes")
    cols = np.array(sorted(found), dtype=np.int64)
    w = np.full(len(cols), 1.0 / len(cols))
    return np.full(len(cols), node, dtype=np.int64), cols, w


def _elem_node_csr(topo):
    hit = topo.__dict__.get("_elem_node_csr")
    if hit is None:
        hit = _invert_csr(topo.node_elem_indptr, topo.node_elem_ids, topo.n_elements)
        topo.__dict__["_elem_node_csr"] = hit
    return hit


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

def _coarse_topology(topo: LevelTopology, agg: Agglomeration, coarse_faces: list,
                     coarse_nodes: np.ndarray,
                     coarse_edges: CoarseEdgeSet | None) -> LevelTopology:
    faces = topo.faces
    assign = agg.element_to_agg
    nagg = agg.n_agglomerates
    nc = len(coarse_nodes)
    col_of = np.full(topo.n_nodes, -1, dtype=np.int64)
    col_of[coarse_nodes] = np.arange(nc)

    elem_volume = np.bincount(assign, weights=topo.elem_volume, minlength=nagg)

    # one level face per interface component (owner < opposite side) and
    # per boundary coarse face
    lvl_faces = []
    cf_to_level = np.full(len(coarse_faces), -1, dtype=np.int64)
    twin_key = {}
    for ci, cf in enumerate(coarse_faces):
        if cf.opposite == BOUNDARY:
            lvl_faces.append((cf.owner, BOUNDARY, cf.tag, cf.fine_faces))
            cf_to_level[ci] = len(lvl_faces) - 1
        else:
            a, b = min(cf.owner, cf.opposite), max(cf.owner, cf.opposite)
            key = (a, b, cf.component)
            if key in twin_key:
                cf_to_level[ci] = twin_key[key]
            else:
                lvl_faces.append((a, b, -1, cf.fine_faces))
                twin_key[key] = len(lvl_faces) - 1
                cf_to_level[ci] = twin_key[key]

    nf = len(lvl_faces)
    left = np.array([f[0] for f in lvl_faces], dtype=np.int64)
    right = np.array([f[1] for f in lvl_faces], dtype=np.int64)
    tag = np.array([f[2] for f in lvl_faces], dtype=np.int64)
    area = np.zeros(nf)
    node_lists = []
    for i, (_, _, _, ff) in enumerate(lvl_faces):
        area[i] = faces.area[ff].sum()
        vals, _ = _gather_ragged(faces.node_indptr, faces.node_ids, ff)
        vals = np.unique(vals)
        node_lists.append(col_of[vals][col_of[vals] >= 0])
    node_indptr = np.zeros(nf + 1, dtype=np.int64)
    np.cumsum([len(x) for x in node_lists], out=node_indptr[1:])
    node_ids = (np.concatenate(node_lists) if node_lists
                else np.zeros(0, np.int64))

    fsrc = np.concatenate([left, right[right >= 0]])
    fface = np.concatenate([np.arange(nf), np.flatnonzero(right >= 0)])
    ef_indptr, ef_ids = _csr_from_pairs(fsrc, fface, nagg)

    nsrc = node_ids
    nface = np.repeat(np.arange(nf), np.diff(node_indptr))
    nf_indptr, nf_ids = _csr_from_pairs(nsrc, nface, nc)

    new_faces = FaceSet(node_indptr=node_indptr, node_ids=node_ids,
                        left=left, right=right, area=area, tag=tag,
                        elem_indptr=ef_indptr, elem_face_ids=ef_ids,
                        node_face_indptr=nf_indptr, node_face_ids=nf_ids)

    dual = _dual_from_faces(new_faces, elem_volume, nagg)

    an, aa = _node_agg_pairs(topo, agg)
    keep = col_of[an] >= 0
    ne_indptr, ne_ids = _csr_from_pairs(col_of[an[keep]], aa[keep], nc)

    node_bd = np.zeros(nc, dtype=bool)
    for i in np.flatnonzero(right == BOUNDARY):
        node_bd[node_ids[node_indptr[i]:node_indptr[i + 1]]] = True

    bd_mask = right == BOUNDARY
    elem_bd_area = np.bincount(left[bd_mask], weights=area[bd_mask], minlength=nagg)

    edges = None
    if coarse_edges is not None and len(coarse_edges):
        e_nodes = []
        e_faces_src, e_faces_dst = [], []
        e_elems_src, e_elems_dst = [], []
        for ei, ce in enumerate(coarse_edges.edges):
            u, v = (col_of[ce.endpoints[0]], col_of[ce.endpoints[1]])
            e_nodes.append((min(u, v), max(u, v)))
            lvl = sorted(set(int(cf_to_level[c]) for c in ce.coarse_faces))
            owners = sorted(set(
                int(x) for c in ce.coarse_faces
                for x in (coarse_faces[c].owner,)
            ))
            e_faces_src.extend([ei] * len(lvl))
            e_faces_dst.extend(lvl)
            e_elems_src.extend([ei] * len(owners))
            e_elems_dst.extend(owners)
        n_edges = len(e_nodes)
        enodes = np.array(e_nodes, dtype=np.int64)
        f_indptr, f_ids = _csr_from_pairs(np.array(e_faces_src, dtype=np.int64),
                                          np.array(e_faces_dst, dtype=np.int64),
                                          n_edges)
        el_indptr, el_ids = _csr_from_pairs(np.array(e_elems_src, dtype=np.int64),
                                            np.array(e_elems_dst, dtype=np.int64),
                                            n_edges)
        ne2_indptr, ne2_ids = _csr_from_pairs(
            enodes.ravel(), np.repeat(np.arange(n_edges), 2), nc)
        edges = EdgeSet(nodes=enodes, face_indptr=f_indptr, face_ids=f_ids,
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
    at the level cap. All seven algorithms re-apply on coarse levels via
    the rebuilt LevelTopology. A precomputed ``fine_topology`` for the
    same mesh skips the topology derivation (useful in seed sweeps).
    """
    config.validate()
    schedule = schedule or level_schedule(mesh.dim)
    stop = stop or StopRule()
    topo0 = fine_topology if fine_topology is not None else LevelTopology.from_mesh(mesh)
    topo = topo0
    fine_mats = ElementMaterials.from_table(mesh, materials) if materials else None

    levels = []
    sizes_used = []
    mats = fine_mats
    A = operator.tocsr() if operator is not None else None
    fine_A = A

    while len(levels) + 1 < stop.max_levels:
        if topo.n_nodes <= stop.coarse_nodes:
            break
        s = schedule.size_for(len(levels), topo.n_elements)
        if len(levels) > 0 and config.algorithm in ("greedy", "sizebased", "aspect"):
            # fixed lower-grid sizes must shrink with the remaining grid
            s = min(s, max(2, topo.n_elements // 2))
        level_config = CoarsenConfig(algorithm=config.algorithm, desired_size=s,
                                     seed=_level_seed(config.seed, len(levels)))
        agg = coarsen(topo, level_config)
        if agg.n_agglomerates >= topo.n_elements:
            break  # no coarsening happened
        agg, cfs, cnodes, cedges = _coarse_selection(topo, agg, config.algorithm)
        P = build_prolongation(topo, agg, cfs, cnodes)
        new_topo = _coarse_topology(topo, agg, cfs, cnodes, cedges)
        new_mats = (project_materials(mats, agg, topo.elem_volume)
                    if mats is not None else None)
        new_A = galerkin_operator(A, P) if A is not None else None
        stagnating = len(cnodes) > (1.0 - stop.min_reduction) * topo.n_nodes
        levels.append(GridLevel(agglomeration=agg, coarse_faces=cfs,
                                coarse_nodes=cnodes, prolongation=P,
                                topology=new_topo, materials=new_mats,
                                operator=new_A, coarse_edges=cedges))
        sizes_used.append(s)
        topo, mats, A = new_topo, new_mats, new_A
        if stagnating:
            break  # keep the level, but a sub-10% node reduction ends the hierarchy

    return Hierarchy(mesh=mesh, fine_topology=topo0, levels=levels,
                     schedule_used=sizes_used, config=config,
                     fine_operator=fine_A, fine_materials=fine_mats)


def _coarse_selection(topo, agg, algorithm):
    """Coarse faces, nodes and (kraus) edges, repairing deficient agglomerates.

    An agglomerate that owns no coarse node under the selection rule is
    merged into the neighbour it shares the most interface area with (the
    enclosure merge exists for exactly this reason), and the selection is
    redone. Terminates because every round removes at least one agglomerate;
    uncovered agglomerates with no neighbour to merge into raise.
    """
    kraus3d = algorithm == "kraus" and topo.dim == 3 and topo.edges is not None
    while True:
        cfs = select_coarse_faces(topo, agg)
        cedges = select_coarse_edges(topo, cfs) if kraus3d else None
        coarse, covered = _coarse_mask(topo, agg, cfs, cedges)
        if covered.all():
            return agg, cfs, np.flatnonzero(coarse), cedges
        uncovered = np.flatnonzero(~covered)
        merged = _merge_uncovered(topo, agg, uncovered)
        if merged.n_agglomerates == agg.n_agglomerates:
            raise CoarseningError(
                f"agglomerate(s) {uncovered[:10].tolist()} of {agg.n_agglomerates} "
                "have no coarse node and no neighbour to merge into")
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
    return Agglomeration(_first_appearance(labels[assign]), level=agg.level)


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
