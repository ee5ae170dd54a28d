"""Multilevel k-way partitioning of the weighted element dual graph.

The scheme is the classic one: coarsen by heavy-edge matching, build an
initial partition on the small graph (greedy region growing for large k,
recursive bisection for k <= 8), then balance and refine it on each level
while uncoarsening. Contiguity is enforced afterwards by reassigning
disconnected fragments to their best-connected neighbor part.

Bisection and k-way share one band rule and one move kernel. Each part has
a target weight and the band ``balance_bounds`` gives it; ``_best_moves``
offers boundary moves best cut gain first with their gains kept current,
in the manner of Fiduccia & Mattheyses (1982) and of the k-way refinement
of Karypis & Kumar (1998). ``_rebalance`` takes the moves that bring parts
into their bands, ``_refine`` the ones that lower the cut within them.
The sequential loops (matching, region growing, moves, the articulation
search, fragment tallies) run on lists and memoryviews of plain numbers.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .mesh import (DualGraph, _collapse_pairs, _components, _csr_from_pairs,
                   _first_appearance, _induced_components, _neighbour_weights,
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
        if w.size == 0:
            return np.ones(0, dtype=np.int64)
        out = np.rint(WEIGHT_SCALE * w / w.max()).astype(np.int64)
        return np.maximum(out, 1)

    return WeightedGraph(
        indptr=dual.indptr.copy(),
        indices=dual.indices.copy(),
        ewgt=scaled(dual.edge_weight),
        vwgt=scaled(dual.vertex_weight),
    )


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
    edge-cut. Each part is connected where the graph allows it."""
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
    graphs = [graph]
    mappings = []
    target = max(4 * k, 64)
    while graphs[-1].n > target:
        g = graphs[-1]
        match = _heavy_edge_matching(g, rng.permutation(g.n))
        coarse, mapping = _contract(g, match)
        if coarse.n > 0.95 * g.n:
            break
        graphs.append(coarse)
        mappings.append(mapping)

    # the coarsest graph has at least k vertices: a contraction runs only
    # above 4k of them, and a matching at most halves them
    coarsest = graphs[-1]
    if k > 8:
        part = _region_grow(coarsest, k, rng)
    else:
        part = _recursive_bisect(coarsest, k, rng)
    _rebalance(coarsest, part, targets)
    _refine(coarsest, part, targets)

    # uncoarsening phase; the balance band tightens as vertices shrink
    for g, mapping in zip(graphs[-2::-1], mappings[::-1]):
        part = part[mapping]
        _rebalance(g, part, targets)
        _refine(g, part, targets)

    _enforce_contiguity(graph, part, k)
    # fragment reassignment skews weights; repair without re-fragmenting
    _rebalance(graph, part, targets, keep_connected=True)
    _enforce_contiguity(graph, part, k)

    sizes = np.bincount(part, minlength=k)
    if (sizes == 0).any():
        raise RuntimeError("internal error: produced an empty part")
    return part


def _heavy_edge_matching(graph: WeightedGraph, order: np.ndarray) -> np.ndarray:
    """Greedy matching preferring the heaviest edge, then lowest neighbor id."""
    indptr, indices, ewgt = map(memoryview, (graph.indptr, graph.indices, graph.ewgt))
    match = [-1] * graph.n
    for v in order.tolist():
        if match[v] >= 0:
            continue
        best = -1
        best_w = -1
        for idx in range(indptr[v], indptr[v + 1]):
            u = indices[idx]
            if match[u] >= 0 or u == v:
                continue
            w = ewgt[idx]
            if w > best_w or (w == best_w and u < best):
                best, best_w = u, w
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return np.array(match, dtype=np.int64)


def _contract(graph: WeightedGraph, match: np.ndarray):
    n = graph.n
    # coarse ids in order of the smaller endpoint
    rep = np.minimum(np.arange(n), match)
    uniq, mapping = np.unique(rep, return_inverse=True)
    nc = len(uniq)
    vwgt = np.bincount(mapping, weights=graph.vwgt, minlength=nc).astype(np.int64)

    src = mapping[np.repeat(np.arange(n), np.diff(graph.indptr))]
    dst = mapping[graph.indices]
    keep = src != dst
    indptr, indices, ewgt, _ = _collapse_pairs(src[keep], dst[keep], graph.ewgt[keep], nc)
    coarse = WeightedGraph(indptr=indptr, indices=indices, ewgt=ewgt.astype(np.int64),
                           vwgt=vwgt)
    return coarse, mapping


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
        v = -1
        while fr:
            cand = fr.popleft()
            if part[cand] < 0:
                v = cand
                break
        if v < 0:
            continue  # frontier exhausted, part drops out
        part[v] = p
        weights[p] += vwgt[v]
        assigned += 1
        fr.extend(u for u in indices[indptr[v]:indptr[v + 1]] if part[u] < 0)
        heapq.heappush(heap, (weights[p], p))
    if assigned < n:
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
    lsrc, ldst, w = local[src[keep]], local[graph.indices[keep]], graph.ewgt[keep]
    indptr, order = _csr_from_pairs(lsrc, np.arange(len(lsrc)), len(vertices))
    return WeightedGraph(indptr=indptr, indices=ldst[order], ewgt=w[order],
                         vwgt=graph.vwgt[vertices])


def _recursive_bisect(graph: WeightedGraph, k: int, rng) -> np.ndarray:
    part = np.zeros(graph.n, dtype=np.int64)

    def recurse(vertices: np.ndarray, sub: WeightedGraph, kk: int, base: int):
        if kk == 1:
            part[vertices] = base
            return
        kl = (kk + 1) // 2
        side = _bisect(sub, kl / kk, rng)
        left = vertices[side]
        right = vertices[~side]
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
    starts = rng.permutation(n)[:min(8, n)]
    best_side = None
    best_score = None
    for s in starts:
        side = np.zeros(n, dtype=bool)
        side[s] = True
        wgt = int(graph.vwgt[s])
        # connection weight of each outside vertex to the region
        conn = np.zeros(n, dtype=np.int64)
        for idx in range(graph.indptr[s], graph.indptr[s + 1]):
            conn[graph.indices[idx]] += graph.ewgt[idx]
        while wgt < targets[0] and side.sum() < n - 1:
            cand = np.flatnonzero(~side & (conn > 0))
            if cand.size == 0:
                cand = np.flatnonzero(~side)
            v = cand[np.argmax(conn[cand])]
            side[v] = True
            wgt += int(graph.vwgt[v])
            for idx in range(graph.indptr[v], graph.indptr[v + 1]):
                conn[graph.indices[idx]] += graph.ewgt[idx]
        part2 = (~side).astype(np.int64)
        _rebalance(graph, part2, targets)
        _refine(graph, part2, targets)
        cut = edge_cut(graph, part2)
        dev = abs((total - part2 @ graph.vwgt) - targets[0])
        score = (cut, dev)
        if best_score is None or score < best_score:
            best_score = score
            best_side = part2 == 0
    return best_side


def _moves(graph: WeightedGraph, part: np.ndarray, k: int):
    """Every boundary move (v, q) of ``part`` with its cut gain, best first.

    The gain is v's edge weight into part q minus its edge weight into its
    own part; ties go to the lighter vertex, then to the lower (v, q).
    """
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    n = max(graph.n, k)  # vertex and part ids share the pair-key range
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


def _best_moves(graph: WeightedGraph, part: np.ndarray, k: int):
    """Yield boundary moves ``(v, p, q, gain)`` best first, each gain current.

    The caller takes a move by setting ``part[v] = q`` before asking for the
    next one. The moves of v and of its neighbours are then queued again
    with their new gains, and the entries they replace are skipped. A move
    the caller declines is offered again once a vertex leaves part q or
    joins part p, the only changes that can lift a weight limit that held
    it back.
    """
    indptr, indices, ewgt = (a.tolist() for a in (graph.indptr, graph.indices, graph.ewgt))
    vwgt = graph.vwgt.tolist()
    where = part.tolist()
    stamp = [0] * graph.n
    declined = {}                       # (v, q) -> its heap entry
    into = [[] for _ in range(k)]       # keys of the declined moves into each part
    out_of = [[] for _ in range(k)]
    vs, qs, gains = _moves(graph, part, k)
    # sorted ascending, so already a heap
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


def _rebalance(graph: WeightedGraph, part: np.ndarray, targets: np.ndarray,
               keep_connected: bool = False):
    """Move boundary vertices until every part lies in its weight band.

    A move of v from p to q is taken while p is above its band or q below
    its own, and only when q's excess over its target, v included, stays
    below p's. Each move then strictly lowers the sum of squared excesses,
    so the walk ends. Moves are tried best cut gain first. With
    ``keep_connected`` a vertex only leaves a part it is not an
    articulation point of.
    """
    k = len(targets)
    lo, hi = (b - targets for b in balance_bounds(targets, int(graph.vwgt.max())))
    excess = np.bincount(part, weights=graph.vwgt, minlength=k) - targets
    if ((lo <= excess) & (excess <= hi)).all():
        return
    lo, hi, excess = lo.tolist(), hi.tolist(), excess.tolist()
    sizes = np.bincount(part, minlength=k).tolist()
    vwgt = graph.vwgt.tolist()
    # the articulation test reads part through a view, so it sees each move
    csr = (*map(memoryview, (graph.indptr, graph.indices)), memoryview(part))
    for v, p, q, _ in _best_moves(graph, part, k):
        x = vwgt[v]
        if (sizes[p] == 1 or excess[q] + x >= excess[p]
                or not (excess[p] > hi[p] or excess[q] < lo[q])
                or keep_connected and _is_articulation(*csr, v, sizes[p])):
            continue
        part[v] = q
        excess[p] -= x
        excess[q] += x
        sizes[p] -= 1
        sizes[q] += 1


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

    Gains stay current as vertices move, so the cut never rises, and the
    walk ends when no positive-gain move fits the bands.
    """
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


def _enforce_contiguity(graph: WeightedGraph, part: np.ndarray, k: int):
    """Reassign every non-largest fragment of a part to the part it shares
    the most edge weight with (ties to the lowest id)."""
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    indptr, indices, ewgt, where = map(memoryview, (graph.indptr, graph.indices,
                                                    graph.ewgt, part))
    for _ in range(4):
        changed = False
        # components of every part at once. Only a part in several pieces
        # has fragments: one that gains an adjacent fragment stays in one
        # piece, and a split one that gains some is recomputed in its turn
        same = part[src] == part[graph.indices]
        labels = _components(src[same], graph.indices[same], graph.n)
        split = np.bincount(_unique_pairs(part, labels, graph.n)[0], minlength=k) > 1
        grown = np.zeros(k, dtype=bool)
        for p in np.flatnonzero(split).tolist():
            members = np.flatnonzero(part == p)
            own = (_induced_components(graph.indptr, graph.indices, members) if grown[p]
                   else _first_appearance(labels[members]))
            if own.max() == 0:
                continue
            comps = np.split(members[np.argsort(own, kind="stable")],
                             np.cumsum(np.bincount(own))[:-1])
            comps.sort(key=lambda c: (-int(graph.vwgt[c].sum()), int(c[0])))
            for frag in comps[1:]:
                conn = _neighbour_weights(indptr, indices, ewgt, where, frag.tolist(),
                                          exclude=p)
                if not conn:
                    continue  # fragment isolated from all other parts
                target = max(sorted(conn), key=lambda q: conn[q])
                part[frag] = target
                grown[target] = True
                changed = True
        if not changed:
            return
