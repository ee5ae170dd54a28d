"""Reference versions of rewritten kernels, kept for the tests only.

These are the kernels as they were before they became single-sort and
sparse-product array passes: face enumeration by a three-column
``np.lexsort``, edge numbering by ``np.unique``, pair lists deduplicated
by sorting packed keys, and the coarse-edge chains walked edge by edge in
Python dicts. The merge of uncovered agglomerates is kept as the loop
over agglomerates it was. The partitioner's refinement is kept as it was
when its queue held every boundary move and its loops copied the graph to
lists.
``tests/test_reference_kernels.py`` and ``tests/test_partitioner.py``
assert that each kernel of the package returns the same arrays as its
reference here, dtype included. Nothing in the package imports this module.
"""
import heapq

import numpy as np

from agglomg.agglomerate import Agglomeration, _group_pairs
from agglomg.hierarchy import BOUNDARY, EdgeChains, FacePatches
from agglomg.mesh import (EdgeSet, LevelTopology, Mesh, _collapse_pairs, _components,
                          _csr_from_pairs, _first_appearance, _gather_ragged, _unique_pairs)
from agglomg.partitioner import balance_bounds

_TET_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
_TRI_FACES = np.array([[1, 2], [0, 2], [0, 1]])
_TET_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _face_areas(mesh: Mesh, face_nodes: np.ndarray) -> np.ndarray:
    p = mesh.node_coords[face_nodes]
    if mesh.dim == 2:
        return np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    c = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return 0.5 * np.linalg.norm(c, axis=1)


def _build_edges(mesh: Mesh, face_nodes: np.ndarray):
    """Edges of a tet mesh, given its (F, 3) sorted face node tuples, and
    the edge -> element CSR from each element's six edges."""
    n = mesh.n_nodes
    raw = np.sort(mesh.elements[:, _TET_EDGES], axis=2).reshape(-1, 2)
    keys = raw[:, 0] * n + raw[:, 1]
    ukeys, inverse = np.unique(keys, return_inverse=True)
    n_edges = len(ukeys)
    nodes = np.column_stack([ukeys // n, ukeys % n])

    elem_of = np.repeat(np.arange(mesh.n_elements), 6)
    # an element may repeat an edge only if degenerate; pairs are unique here
    e_indptr, e_ids = _csr_from_pairs(inverse, elem_of, n_edges)

    fe = np.sort(face_nodes[:, [[0, 1], [0, 2], [1, 2]]], axis=2).reshape(-1, 2)
    fkeys = fe[:, 0] * n + fe[:, 1]
    edge_id = np.searchsorted(ukeys, fkeys)
    face_of = np.repeat(np.arange(len(face_nodes)), 3)
    f_indptr, f_ids = _csr_from_pairs(edge_id, face_of, n_edges)

    return EdgeSet(nodes=nodes, face_indptr=f_indptr, face_ids=f_ids), (e_indptr, e_ids)


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


def _face_adjacency(topo: LevelTopology):
    """CSR of interior-face neighbourships (shared node in 2D, edge in 3D).

    On coarse levels the face node sets are coarse nodes and the same rule
    applies: at least one shared node in 2D, at least two in 3D.
    """
    faces = topo.faces
    if topo.dim == 3 and topo.edges is not None:
        groups, min_shared = (topo.edges.face_indptr, topo.edges.face_ids), 1
    else:
        groups = _invert_csr(faces.node_indptr, faces.node_ids, topo.n_nodes)
        min_shared = topo.dim - 1
    src, dst = _group_pairs(*groups)
    keep = faces.interior[src] & faces.interior[dst]
    src, dst = src[keep], dst[keep]
    return _csr_from_pairs(*_pairs_given(src, dst, faces.n_faces, min_shared),
                           faces.n_faces)


def _pairs_given(a, b, n, min_count):
    """The distinct pairs ``(a[i], b[i])`` given at least ``min_count``
    times, ascending by (a, b)."""
    n = max(int(n), 1)
    key = np.sort(a * n + b)
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    key = key[starts[np.diff(starts, append=len(key)) >= min_count]]
    return key // n, key % n


def _edge_adjacency(topo: LevelTopology):
    """CSRs of the edges sharing a node with each edge, and of those of
    them that also share a face."""
    edges = topo.edges
    n = edges.n_edges
    node_edges = _invert_csr(np.arange(0, 2 * n + 1, 2), edges.nodes.ravel(), topo.n_nodes)
    nsrc, ndst = _unique_pairs(*_group_pairs(*node_edges), n)
    fsrc, fdst = _unique_pairs(
        *_group_pairs(*_invert_csr(edges.face_indptr, edges.face_ids, topo.faces.n_faces)),
        n)
    # a pair found both ways shares a node and a face
    ssrc, sdst = _pairs_given(np.concatenate([nsrc, fsrc]),
                              np.concatenate([ndst, fdst]), n, 2)
    return _csr_from_pairs(nsrc, ndst, n), _csr_from_pairs(ssrc, sdst, n)


def _invert_csr(indptr, ids, n_targets):
    """Invert a CSR mapping a->b into b->a."""
    src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return _csr_from_pairs(np.asarray(ids), src, n_targets)


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
    starts = np.flatnonzero(np.diff(edge_of, prepend=-1)).tolist()
    cfs = cfs.tolist()
    groups = {}
    for e, lo, hi in zip(edge_of[starts].tolist(), starts, starts[1:] + [len(cfs)]):
        groups.setdefault(tuple(cfs[lo:hi]), []).append(e)

    nodes = edges.nodes.tolist()  # the walks index one edge at a time
    ends, fine, fine_indptr, sigs, sig_indptr = [], [], [0], [], [0]
    for sig in sorted(groups):
        members = groups[sig]
        if len(members) == 1:
            # one edge is one chain, between its two nodes
            a, b = nodes[members[0]]
            chains = [(members, (a, b) if a < b else (b, a))]
        else:
            chains = [(c, _chain_endpoints(nodes, c)) for c in _edge_chains(nodes, members)]
        for chain, chain_ends in chains:
            ends.append(chain_ends)
            fine += chain
            fine_indptr.append(len(fine))
            sigs += sig
            sig_indptr.append(len(sigs))
    return EdgeChains(endpoints=np.array(ends, dtype=np.int64).reshape(-1, 2),
                      fine_edge_indptr=np.array(fine_indptr, dtype=np.int64),
                      fine_edge_ids=np.array(fine, dtype=np.int64),
                      face_indptr=np.array(sig_indptr, dtype=np.int64),
                      face_ids=np.array(sigs, dtype=np.int64))


def _edge_chains(nodes: list, members: list) -> list:
    """Decompose an edge set into simple open paths; ``nodes`` lists each
    edge's two endpoints."""
    node_deg = {}
    node_edges = {}
    for e in members:
        for nd in nodes[e]:
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
            a, b = nodes[eid]
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
        start = nodes[e0][0]
        cycle, _ = walk(start, e0)
        if len(cycle) == 1:
            chains.append(cycle)
            continue
        half = (len(cycle) + 1) // 2
        chains.append(cycle[:half])
        chains.append(cycle[half:])
    return chains


def _chain_endpoints(nodes: list, chain: list) -> tuple:
    count = {}
    for e in chain:
        for nd in nodes[e]:
            count[nd] = count.get(nd, 0) + 1
    ends = sorted(n for n, c in count.items() if c == 1)
    if len(ends) == 2:
        return (ends[0], ends[1])
    # degenerate single-edge loops or repeated nodes: fall back to extremes
    nodes = sorted(count)
    return (nodes[0], nodes[-1])


def _moves(graph, part, k):
    """Every boundary move (v, q) with its cut gain, sorted by
    (-gain, vertex weight, v, q) with one four-key ``np.lexsort``."""
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    n = max(graph.n, k)
    indptr, q, conn, _ = _collapse_pairs(src, part[graph.indices], graph.ewgt, n)
    v = np.repeat(np.arange(n), np.diff(indptr))
    conn = conn.astype(np.int64)
    inside = q == part[v]
    own = np.zeros(graph.n, dtype=np.int64)
    own[v[inside]] = conn[inside]
    v, q = v[~inside], q[~inside]
    gain = conn[~inside] - own[v]
    order = np.lexsort((q, v, graph.vwgt[v], -gain))
    return v[order], q[order], gain[order]


def _best_moves(graph, part, k):
    """Boundary moves ``(v, p, q, gain)`` best first from a queue seeded
    with every boundary move, each gain kept current, a declined move
    offered again once a vertex leaves q or joins p."""
    indptr, indices, ewgt = (a.tolist() for a in (graph.indptr, graph.indices, graph.ewgt))
    vwgt = graph.vwgt.tolist()
    where = part.tolist()
    stamp = [0] * graph.n
    declined = {}
    into = [[] for _ in range(k)]
    out_of = [[] for _ in range(k)]
    vs, qs, gains = _moves(graph, part, k)
    heap = list(zip((-gains).tolist(), graph.vwgt[vs].tolist(), vs.tolist(), qs.tolist(),
                    [0] * len(vs)))
    while heap:
        entry = heapq.heappop(heap)
        neg, _, v, q, t = entry
        if t != stamp[v]:
            continue
        p = where[v]
        yield v, p, q, -neg
        if part[v] == p:
            declined[v, q] = entry
            into[q].append((v, q))
            out_of[p].append((v, q))
            continue
        where[v] = q
        for keys in (into[p], out_of[q]):
            for key in keys:
                if key in declined:
                    heapq.heappush(heap, declined.pop(key))
            keys.clear()
        for u in [v] + indices[indptr[v]:indptr[v + 1]]:
            stamp[u] += 1
            conn = {}
            for idx in range(indptr[u], indptr[u + 1]):
                r = where[indices[idx]]
                conn[r] = conn.get(r, 0) + ewgt[idx]
            base = conn.pop(where[u], 0)
            for r, w in conn.items():
                heapq.heappush(heap, (base - w, vwgt[u], u, r, stamp[u]))


def refine(graph, part, targets):
    """Strictly cut-reducing moves that keep the bands, best first, until
    the first offered move whose gain is not positive."""
    k = len(targets)
    lo, hi = (b.tolist() for b in balance_bounds(targets, int(graph.vwgt.max())))
    weights = np.bincount(part, weights=graph.vwgt, minlength=k).tolist()
    sizes = np.bincount(part, minlength=k).tolist()
    vwgt = graph.vwgt.tolist()
    for v, p, q, gain in _best_moves(graph, part, k):
        if gain <= 0:
            return
        x = vwgt[v]
        if sizes[p] == 1 or weights[p] - x < lo[p] or weights[q] + x > hi[q]:
            continue
        part[v] = q
        weights[p] -= x
        weights[q] += x
        sizes[p] -= 1
        sizes[q] += 1


def merge_uncovered(topo, agg, uncovered):
    """``hierarchy._merge_uncovered`` with two masks and an interface-area
    bincount per uncovered agglomerate."""
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
            continue
        areas = np.bincount(b_side[sel], weights=dual.edge_weight[sel], minlength=nagg)
        sources.append(int(a))
        targets.append(int(np.argmax(areas)))
    labels = _components(np.array(sources, dtype=np.int64),
                         np.array(targets, dtype=np.int64), nagg)
    return Agglomeration(_first_appearance(labels[assign]))
