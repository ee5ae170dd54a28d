"""Multilevel k-way partitioning of the weighted element dual graph.

The scheme is the classic one: coarsen by heavy-edge matching, build an
initial partition on the small graph (greedy region growing for large k,
recursive bisection for k <= 8), then balance and refine it on each level
while uncoarsening. Contiguity is enforced afterwards by reassigning
disconnected fragments to their best-connected neighbor part.

Bisection and k-way share one band rule (``balance_bounds``) and the same
two steps. ``_rebalance`` moves the bulk of the weight along the
least-norm flow between adjacent parts (``_flow``, after Hu & Blake 1999
and Walshaw & Cross 2000), then finishes with ``_walk``, a queue of the
few moves out of or into out-of-band parts. ``_refine`` runs ``_walk`` on
the moves that lower the cut: best gain first, gains kept current, as in
Fiduccia & Mattheyses (1982) and Karypis & Kumar (1998). The sequential
loops run on lists and memoryviews of plain numbers.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (DualGraph, _best_neighbour, _collapse_pairs, _components,
                   _first_appearance, _indptr, _induced_components, _order_by, _pieces,
                   _unique_pairs)

WEIGHT_SCALE = 1000
BALANCE_FRACTION = 0.05


@dataclass
class WeightedGraph:
    """Symmetric graph with positive integer vertex and edge weights (CSR)."""

    indptr: np.ndarray
    indices: np.ndarray
    ewgt: np.ndarray
    vwgt: np.ndarray

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1


def scale_weights(dual: DualGraph) -> WeightedGraph:
    """Integer vertex/edge weights from element volumes and face areas.

    Weights are scaled so the largest measure maps to 1000 and everything
    rounds to at least 1, keeping 0.1% relative resolution.
    """
    def scaled(w):
        return np.maximum(np.rint(WEIGHT_SCALE * w / w.max(initial=0)).astype(np.int64), 1)

    return WeightedGraph(indptr=dual.indptr.copy(), indices=dual.indices.copy(),
                         ewgt=scaled(dual.edge_weight), vwgt=scaled(dual.vertex_weight))


def edge_cut(graph: WeightedGraph, part: np.ndarray) -> int:
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    cross = part[src] != part[graph.indices]
    # each undirected edge appears twice in the CSR arrays
    return int(graph.ewgt[cross].sum() // 2)


def balance_bounds(targets, max_vwgt: int):
    """Allowed weight band of each part: its target +- 5%, widened to one vertex.

    The extra slack of one maximal vertex weight keeps the constraint
    satisfiable on small graphs where integer granularity dominates.
    """
    targets = np.asarray(targets, dtype=float)
    slack = np.maximum(BALANCE_FRACTION * targets, float(max_vwgt))
    return targets - slack, targets + slack


def partition_kway(graph: WeightedGraph, k: int, *, seed: int = 0) -> np.ndarray:
    """Part id of each vertex: exactly k nonempty parts, minimizing weighted
    edge-cut. Each part is connected where the graph allows it.

    One contiguity pass leaves each part one piece plus whole components, and
    the last rebalance keeps it so: v leaves only a part it is no articulation
    point of, for a part q it borders (a move whose neighbour left q is stale).
    """
    n = graph.n
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"cannot split {n} vertices into {k} parts")
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    if k == n:
        return np.arange(n, dtype=np.int64)

    rng = np.random.Generator(np.random.Philox(seed))
    targets = np.full(k, graph.vwgt.sum() / k)

    # coarsening phase
    graphs, mappings = [graph], []
    while graphs[-1].n > max(4 * k, 64):
        g = graphs[-1]
        coarse, mapping = _contract(g, _heavy_edge_matching(g, rng.permutation(g.n)))
        if coarse.n > 0.95 * g.n:
            break
        graphs.append(coarse)
        mappings.append(mapping)

    # the coarsest graph has at least k vertices: a contraction runs only
    # above 4k of them, and a matching at most halves them
    part = (_region_grow if k > 8 else _recursive_bisect)(graphs[-1], k, rng)
    # uncoarsening phase; the balance band tightens as vertices shrink
    for g, mapping in zip(graphs[::-1], [None] + mappings[::-1]):
        if mapping is not None:
            part = part[mapping]
        _rebalance(g, part, targets)
        _refine(g, part, targets)

    _enforce_contiguity(graph, part, k)
    # fragment reassignment skews weights; repair without re-fragmenting
    _rebalance(graph, part, targets, keep_connected=True)

    if (np.bincount(part, minlength=k) == 0).any():
        raise RuntimeError("internal error: produced an empty part")
    return part


def _heavy_edge_matching(graph: WeightedGraph, order: np.ndarray) -> np.ndarray:
    """Greedy matching preferring the heaviest edge, then lowest neighbor id."""
    indptr, indices, ewgt = map(memoryview, (graph.indptr, graph.indices, graph.ewgt))
    match = [-1] * graph.n
    for v in order.tolist():
        if match[v] >= 0:
            continue
        best = best_w = -1
        for idx in range(indptr[v], indptr[v + 1]):
            u, w = indices[idx], ewgt[idx]
            if match[u] < 0 and u != v and (w > best_w or (w == best_w and u < best)):
                best, best_w = u, w
        match[v] = best if best >= 0 else v
        match[match[v]] = v
    return np.array(match, dtype=np.int64)


def _contract(graph: WeightedGraph, match: np.ndarray):
    n = graph.n
    # coarse ids in order of the smaller endpoint
    mapping = np.unique(np.minimum(np.arange(n), match), return_inverse=True)[1]
    nc = int(mapping.max()) + 1
    vwgt = np.bincount(mapping, weights=graph.vwgt, minlength=nc).astype(np.int64)

    src = mapping[np.repeat(np.arange(n), np.diff(graph.indptr))]
    dst = mapping[graph.indices]
    keep = src != dst
    indptr, indices, ewgt, _ = _collapse_pairs(src[keep], dst[keep], graph.ewgt[keep], nc)
    return WeightedGraph(indptr, indices, ewgt.astype(np.int64), vwgt), mapping


def _region_grow(graph: WeightedGraph, k: int, rng) -> np.ndarray:
    """Voronoi-style growth from k random seeds, smallest part grows first."""
    n = graph.n
    indptr, indices = map(memoryview, (graph.indptr, graph.indices))
    vwgt = graph.vwgt.tolist()
    part = [-1] * n
    seeds = rng.choice(n, size=k, replace=False)
    frontiers = [deque() for _ in range(k)]
    weights = [0] * k
    heap = []
    for p, s in enumerate(seeds.tolist()):
        part[s] = p
        weights[p] = vwgt[s]
        frontiers[p].extend(indices[indptr[s]:indptr[s + 1]])
        heapq.heappush(heap, (weights[p], p))
    assigned = k
    while heap and assigned < n:
        w, p = heapq.heappop(heap)
        if w != weights[p]:
            continue
        fr = frontiers[p]
        while fr and part[fr[0]] >= 0:
            fr.popleft()
        if not fr:
            continue  # frontier exhausted, part drops out
        v = fr.popleft()
        part[v] = p
        weights[p] += vwgt[v]
        assigned += 1
        fr.extend(u for u in indices[indptr[v]:indptr[v + 1]] if part[u] < 0)
        heapq.heappush(heap, (weights[p], p))
    # disconnected leftovers: give each to the lightest part
    for v in [v for v in range(n) if part[v] < 0]:
        p = weights.index(min(weights))
        part[v] = p
        weights[p] += vwgt[v]
    return np.array(part, dtype=np.int64)


def _induced_subgraph(graph: WeightedGraph, vertices: np.ndarray):
    local = -np.ones(graph.n, dtype=np.int64)
    local[vertices] = np.arange(len(vertices))
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    keep = (local[src] >= 0) & (local[graph.indices] >= 0)
    # ascending vertices keep the rows in order
    return WeightedGraph(indptr=_indptr(local[src[keep]], len(vertices)),
                         indices=local[graph.indices[keep]], ewgt=graph.ewgt[keep],
                         vwgt=graph.vwgt[vertices])


def _recursive_bisect(graph: WeightedGraph, k: int, rng) -> np.ndarray:
    part = np.zeros(graph.n, dtype=np.int64)

    def recurse(vertices: np.ndarray, sub: WeightedGraph, kk: int, base: int):
        if kk == 1:
            part[vertices] = base
            return
        kl = (kk + 1) // 2
        side = _bisect(sub, kl / kk, rng)
        left, right = vertices[side], vertices[~side]
        # a heavy vertex can leave a side with fewer vertices than parts
        kl = min(max(kl, kk - len(right)), len(left))
        recurse(left, _induced_subgraph(graph, left), kl, base)
        recurse(right, _induced_subgraph(graph, right), kk - kl, base + kl)

    recurse(np.arange(graph.n), graph, k, 0)
    return part


def _bisect(graph: WeightedGraph, ratio: float, rng) -> np.ndarray:
    """Multi-start greedy growth + 2-way refinement; returns left-side mask."""
    n = graph.n
    total = int(graph.vwgt.sum())
    targets = np.array([total * ratio, total * (1 - ratio)])
    best = None
    for v in rng.permutation(n)[:min(8, n)]:
        side = np.zeros(n, dtype=bool)
        conn = np.zeros(n, dtype=np.int64)  # edge weight of each vertex into the region
        wgt = 0
        while True:
            side[v] = True
            wgt += int(graph.vwgt[v])
            row = slice(graph.indptr[v], graph.indptr[v + 1])
            conn[graph.indices[row]] += graph.ewgt[row]
            if wgt >= targets[0] or side.sum() >= n - 1:
                break
            cand = np.flatnonzero(~side & (conn > 0))
            if cand.size == 0:
                cand = np.flatnonzero(~side)
            v = cand[np.argmax(conn[cand])]
        part2 = (~side).astype(np.int64)
        _rebalance(graph, part2, targets)
        _refine(graph, part2, targets)
        score = (edge_cut(graph, part2), abs((total - part2 @ graph.vwgt) - targets[0]))
        if best is None or score < best[0]:
            best = score, part2 == 0
    return best[1]


def _moves(graph: WeightedGraph, part: np.ndarray, k: int):
    """Every boundary move (v, q) of ``part`` with its cut gain, best first.

    The gain is v's edge weight into part q minus its edge weight into its
    own part; ties go to the lighter vertex, then to the lower (v, q).
    """
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    q = part[graph.indices]
    inside = q == part[src]
    own = np.bincount(src[inside], weights=graph.ewgt[inside], minlength=graph.n)
    n = max(graph.n, k)  # vertex and part ids share the pair-key range
    indptr, q, conn, _ = _collapse_pairs(src[~inside], q[~inside], graph.ewgt[~inside], n)
    v = np.repeat(np.arange(n), np.diff(indptr))
    gain = (conn - own[v]).astype(np.int64)
    # the pairs come sorted by (v, q), which a stable sort keeps for ties
    order = _order_by(gain.max(initial=0) - gain, graph.vwgt[v], int(graph.vwgt.max()) + 1)
    return v[order], q[order], gain[order]


def _walk(graph: WeightedGraph, part: np.ndarray, moves, weights, sizes, admit, fits) -> bool:
    """Take boundary moves best cut gain first, gains kept current; True if any.

    ``moves`` seeds the queue: arrays ``(v, q, gain)`` in ``_moves``' order.
    A move of v (weight x) from p to q is taken if ``fits(v, x, p, q)``,
    updating ``part``, ``weights`` and ``sizes``. The moves of v and its
    neighbours are then queued again with their new gains if ``admit(p, q,
    gain)``, and the entries they replace are skipped. A declined move is
    queued again once a vertex leaves q or joins p, which alone can make it fit.
    """
    indptr, indices, ewgt, vwgt, where = map(memoryview, (
        graph.indptr, graph.indices, graph.ewgt, graph.vwgt, part))
    stamp = [0] * graph.n
    declined = {}                               # (v, q) -> its heap entry
    into = [[] for _ in range(len(sizes))]      # keys of the declined moves into each part
    out_of = [[] for _ in range(len(sizes))]
    vs, qs, gains = moves
    # sorted ascending, so already a heap
    heap = list(zip((-gains).tolist(), graph.vwgt[vs].tolist(), vs.tolist(), qs.tolist(),
                    [0] * len(vs)))
    taken = False
    while heap:
        entry = heapq.heappop(heap)
        _, x, v, q, t = entry
        if t != stamp[v]:
            continue
        p = where[v]
        if not fits(v, x, p, q):
            declined[v, q] = entry
            into[q].append((v, q))
            out_of[p].append((v, q))
            continue
        part[v] = q
        weights[p] -= x
        weights[q] += x
        sizes[p] -= 1
        sizes[q] += 1
        taken = True
        for u in (v, *indices[indptr[v]:indptr[v + 1]]):
            t = stamp[u] = stamp[u] + 1
            conn = {}
            for idx in range(indptr[u], indptr[u + 1]):
                r = where[indices[idx]]
                conn[r] = conn.get(r, 0) + ewgt[idx]
            own = where[u]
            base = conn.pop(own, 0)
            for r, w in conn.items():
                if admit(own, r, w - base):
                    heapq.heappush(heap, (base - w, vwgt[u], u, r, t))
        for keys in (into[p], out_of[q]):
            for key in keys:
                if key in declined:
                    heapq.heappush(heap, declined.pop(key))
            keys.clear()
    return taken


def _flow(graph: WeightedGraph, part: np.ndarray, excess: np.ndarray):
    """Send boundary layers along the least-norm flow that balances the parts.

    The flow solves L lam = excess on the graph of adjacent parts (Hu &
    Blake 1999), each connected group of parts balanced to its own mean.
    Part p then sends its boundary vertices next to part q, best cut gain
    first, while more than half of the next vertex fits in lam_p - lam_q.
    A vertex moves once, and every part keeps at least one vertex.
    """
    k = len(excess)
    v, q, _ = _moves(graph, part, k)
    p = part[v]
    a, b = _unique_pairs(p, q, k)
    comp = _components(a, b, k)
    excess = excess - (np.bincount(comp, weights=excess) / np.bincount(comp))[comp]
    ground = np.zeros(k)  # one grounded part per group makes L nonsingular
    ground[np.unique(comp, return_index=True)[1]] = 1
    lap = sp.diags(np.bincount(a, minlength=k) + ground, format="csc")
    lam = spla.spsolve(lap - sp.csc_matrix((np.ones(len(a)), (a, b)), shape=(k, k)), excess)
    flow, pair = lam[p] - lam[q], p * k + q
    # the moves along the flow by (p, q) in gain order, each with the weight
    # its pair sends before it
    sel = np.flatnonzero(flow > 0)
    sel = sel[np.argsort(pair[sel], kind="stable")]
    w = graph.vwgt[v[sel]]
    before = np.cumsum(w) - w
    sent = before - before[np.searchsorted(pair[sel], pair[sel])]
    take = np.sort(sel[sent + w / 2 < flow[sel]])
    take = take[np.unique(v[take], return_index=True)[1]]
    # each part sends at most its size - 1 vertices, the best ones
    take = take[np.lexsort((take, p[take]))]
    rank = np.arange(len(take)) - np.searchsorted(p[take], p[take])
    take = take[rank < np.bincount(part, minlength=k)[p[take]] - 1]
    part[v[take]] = q[take]


def _rebalance(graph: WeightedGraph, part: np.ndarray, targets: np.ndarray,
               keep_connected: bool = False):
    """Move boundary vertices until every part lies in its weight band.

    Without ``keep_connected``, ``_flow`` moves the bulk of the weight first.
    Then ``_walk`` takes moves out of parts above their band or into parts
    below it, each only if q's excess over target, v included, stays below
    p's; so each lowers the sum of squared excesses, and the walk ends. It
    restarts from the parts still out of band until it takes no move. With
    ``keep_connected`` v only leaves a part it is no articulation point of.
    """
    k = len(targets)
    lo, hi = (b - targets for b in balance_bounds(targets, int(graph.vwgt.max())))
    lo_, hi_ = lo.tolist(), hi.tolist()
    # the articulation test reads part through a view, so it sees each move
    csr = (*map(memoryview, (graph.indptr, graph.indices)), memoryview(part))
    excess = np.bincount(part, weights=graph.vwgt, minlength=k) - targets
    if not keep_connected and ((excess < lo) | (excess > hi)).any():
        _flow(graph, part, excess)
        excess = np.bincount(part, weights=graph.vwgt, minlength=k) - targets
    while ((excess < lo) | (excess > hi)).any():
        vs, qs, gains = _moves(graph, part, k)
        pick = (excess > hi)[part[vs]] | (excess < lo)[qs]
        ex, sizes = excess.tolist(), np.bincount(part, minlength=k).tolist()

        def fits(v, x, p, q):
            return (sizes[p] > 1 and ex[q] + x < ex[p] and (ex[p] > hi_[p] or ex[q] < lo_[q])
                    and not (keep_connected and _is_articulation(*csr, v, sizes[p])))

        if not _walk(graph, part, (vs[pick], qs[pick], gains[pick]), ex, sizes,
                     lambda p, q, gain: ex[p] > hi_[p] or ex[q] < lo_[q], fits):
            return
        excess = np.array(ex)


def _is_articulation(indptr, indices, part, v: int, size: int) -> bool:
    """True when a search inside v's part of ``size`` vertices, from one of
    v's neighbours there and not through v, misses one of the others."""
    p = part[v]
    inside = [u for u in indices[indptr[v]:indptr[v + 1]] if part[u] == p]
    if len(inside) <= 1:
        return False  # a leaf of its part
    seen = {v, inside[0]}
    queue = [inside[0]]
    for w in queue:
        for u in indices[indptr[w]:indptr[w + 1]]:
            if u not in seen and part[u] == p:
                seen.add(u)
                queue.append(u)
    return len(seen) < size


def _refine(graph: WeightedGraph, part: np.ndarray, targets: np.ndarray):
    """Take strictly cut-reducing moves that keep the bands, best first.

    Gains stay current, so the cut never rises. Only positive-gain moves are
    queued: they sort before every other move, and the walk stops at those.
    """
    k = len(targets)
    lo, hi = (b.tolist() for b in balance_bounds(targets, int(graph.vwgt.max())))
    weights = np.bincount(part, weights=graph.vwgt, minlength=k).tolist()
    sizes = np.bincount(part, minlength=k).tolist()
    vs, qs, gains = _moves(graph, part, k)
    m = int(np.searchsorted(-gains, 0))
    _walk(graph, part, (vs[:m], qs[:m], gains[:m]), weights, sizes,
          lambda p, q, gain: gain > 0,
          lambda v, x, p, q: sizes[p] > 1 and weights[p] - x >= lo[p] and weights[q] + x <= hi[q])


def _enforce_contiguity(graph: WeightedGraph, part: np.ndarray, k: int):
    """Move every non-largest fragment of a part, in one pass, to the part
    :func:`_best_neighbour` picks at equal sizes: most edge weight, then lowest id.

    The pieces of every part are found at once (:func:`_pieces`); only a
    part in several pieces has fragments. A fragment left in place has no
    neighbour outside its part, so it is a whole component of the graph.
    One that moves is adjacent to its target's kept piece, or to a part
    whose turn is still to come, which is marked ``grown`` and recomputed
    in its turn. Each part thus ends as one piece plus whole components,
    and a second pass would change nothing.
    """
    indptr, indices, ewgt, where = map(memoryview, (graph.indptr, graph.indices,
                                                    graph.ewgt, part))
    labels, split = _pieces(graph.indptr, graph.indices, part)
    sizes = [0] * k  # all equal: ties go to the lowest part id
    grown = np.zeros(k, dtype=bool)
    for p in split.tolist():
        members = np.flatnonzero(part == p)
        own = (_induced_components(graph.indptr, graph.indices, members) if grown[p]
               else _first_appearance(labels[members]))
        if own.max() == 0:
            continue
        comps = np.split(members[np.argsort(own, kind="stable")],
                         np.cumsum(np.bincount(own))[:-1])
        comps.sort(key=lambda c: (-int(graph.vwgt[c].sum()), int(c[0])))
        for frag in comps[1:]:
            target = _best_neighbour(indptr, indices, ewgt, where, frag.tolist(), sizes,
                                     exclude=p)
            if target < 0:
                continue  # fragment isolated from all other parts
            part[frag] = target
            grown[target] = True
