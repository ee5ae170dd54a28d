"""Multilevel k-way partitioning of the weighted element dual graph.

The scheme is the classic one: coarsen by heavy-edge matching, build an
initial partition on the small graph (greedy region growing for large k,
recursive bisection for k <= 8), then refine boundary vertices with
cut-reducing moves under a vertex-weight balance constraint while
uncoarsening. Contiguity, when requested, is enforced afterwards by
reassigning disconnected fragments to their best-connected neighbor part.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .mesh import (DualGraph, _collapse_pairs, _components, _csr_from_pairs,
                   _first_appearance, _induced_components)

WEIGHT_SCALE = 1000
BALANCE_FRACTION = 0.05
REFINE_PASSES = 8


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

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]


@dataclass
class Partition:
    part: np.ndarray
    k: int


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


def edge_cut(graph: WeightedGraph, partition: Partition | np.ndarray) -> int:
    part = partition.part if isinstance(partition, Partition) else partition
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    cross = part[src] != part[graph.indices]
    # each undirected edge appears twice in the CSR arrays
    return int(graph.ewgt[cross].sum() // 2)


def balance_bounds(total_weight: int, k: int, max_vwgt: int):
    """Allowed part-weight band: 5% of the mean, widened to one vertex.

    The extra slack of one maximal vertex weight keeps the constraint
    satisfiable on small graphs where integer granularity dominates.
    """
    mean = total_weight / k
    slack = max(BALANCE_FRACTION * mean, float(max_vwgt))
    return mean - slack, mean + slack


def partition_kway(graph: WeightedGraph, k: int, *, contiguous: bool = False,
                   seed: int = 0) -> Partition:
    """Partition into exactly k nonempty parts, minimizing weighted edge-cut."""
    n = graph.n
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"cannot split {n} vertices into {k} parts")
    if k == 1:
        return Partition(np.zeros(n, dtype=np.int64), 1)
    if k == n:
        return Partition(np.arange(n, dtype=np.int64), n)

    rng = np.random.Generator(np.random.Philox(seed))

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

    coarsest = graphs[-1]
    if k > coarsest.n:
        # matching overshot below k vertices; back off to a usable level
        while len(graphs) > 1 and k > graphs[-1].n:
            graphs.pop()
            mappings.pop()
        coarsest = graphs[-1]

    if k > 8:
        part = _region_grow(coarsest, k, rng)
    else:
        part = _recursive_bisect(coarsest, k, rng)
    _rebalance(coarsest, part, k)
    _refine(coarsest, part, k)

    # uncoarsening phase; the balance band tightens as vertices shrink
    for g, mapping in zip(graphs[-2::-1], mappings[::-1]):
        part = part[mapping]
        _rebalance(g, part, k)
        _refine(g, part, k)

    if contiguous:
        _enforce_contiguity(graph, part, k)
        # fragment reassignment skews weights; repair without re-fragmenting
        _rebalance(graph, part, k, keep_connected=True)
        _enforce_contiguity(graph, part, k)

    sizes = np.bincount(part, minlength=k)
    if (sizes == 0).any():
        raise RuntimeError("internal error: produced an empty part")
    return Partition(part, k)


def _heavy_edge_matching(graph: WeightedGraph, order: np.ndarray) -> np.ndarray:
    """Greedy matching preferring the heaviest edge, then lowest neighbor id."""
    match = np.full(graph.n, -1, dtype=np.int64)
    indptr, indices, ewgt = graph.indptr, graph.indices, graph.ewgt
    for v in order:
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
    return match


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
    part = np.full(n, -1, dtype=np.int64)
    seeds = rng.choice(n, size=k, replace=False)
    frontiers = [deque() for _ in range(k)]
    weights = np.zeros(k, dtype=np.int64)
    heap = []
    for p, s in enumerate(seeds):
        part[s] = p
        weights[p] = graph.vwgt[s]
        frontiers[p].extend(graph.neighbors(s))
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
        weights[p] += graph.vwgt[v]
        assigned += 1
        fr.extend(u for u in graph.neighbors(v) if part[u] < 0)
        heapq.heappush(heap, (weights[p], p))
    if assigned < n:
        # disconnected leftovers: give each to the lightest part
        for v in np.flatnonzero(part < 0):
            p = int(np.argmin(weights))
            part[v] = p
            weights[p] += graph.vwgt[v]
    return part


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
        ratio = kl / kk
        side = _bisect(sub, ratio, rng)
        left = vertices[side]
        right = vertices[~side]
        recurse(left, _induced_subgraph(graph, left), kl, base)
        recurse(right, _induced_subgraph(graph, right), kk - kl, base + kl)

    recurse(np.arange(graph.n), graph, k, 0)
    return part


def _bisect(graph: WeightedGraph, ratio: float, rng) -> np.ndarray:
    """Multi-start greedy growth + 2-way refinement; returns left-side mask."""
    n = graph.n
    total = int(graph.vwgt.sum())
    target = total * ratio
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
        while wgt < target and side.sum() < n - 1:
            cand = np.flatnonzero(~side & (conn > 0))
            if cand.size == 0:
                cand = np.flatnonzero(~side)
            v = cand[np.argmax(conn[cand])]
            side[v] = True
            wgt += int(graph.vwgt[v])
            for idx in range(graph.indptr[v], graph.indptr[v + 1]):
                conn[graph.indices[idx]] += graph.ewgt[idx]
        part2 = (~side).astype(np.int64)
        _rebalance_two(graph, part2, ratio)
        _refine_two(graph, part2, ratio)
        cut = edge_cut(graph, part2)
        dev = abs((total - part2 @ graph.vwgt) - target)
        score = (cut, dev)
        if best_score is None or score < best_score:
            best_score = score
            best_side = part2 == 0
    return best_side


def _two_way_bounds(graph: WeightedGraph, ratio: float):
    total = int(graph.vwgt.sum())
    mean_l = total * ratio
    slack = max(BALANCE_FRACTION * total * min(ratio, 1 - ratio) / 0.5,
                float(graph.vwgt.max()))
    return mean_l - slack, mean_l + slack


def _rebalance_two(graph: WeightedGraph, part: np.ndarray, ratio: float):
    lo, hi = _two_way_bounds(graph, ratio)
    for _ in range(graph.n):
        wl = int(graph.vwgt[part == 0].sum())
        if lo <= wl <= hi:
            return
        heavy = 0 if wl > hi else 1
        movers = np.flatnonzero(part == heavy)
        if movers.size <= 1:
            return
        # move the vertex losing the least cut benefit
        best_v, best_gain = -1, None
        for v in movers:
            gain = 0
            for idx in range(graph.indptr[v], graph.indptr[v + 1]):
                u = graph.indices[idx]
                gain += graph.ewgt[idx] if part[u] != heavy else -graph.ewgt[idx]
            if best_gain is None or gain > best_gain:
                best_v, best_gain = v, gain
        part[best_v] = 1 - heavy


def _refine_two(graph: WeightedGraph, part: np.ndarray, ratio: float):
    lo, hi = _two_way_bounds(graph, ratio)
    wl = int(graph.vwgt[part == 0].sum())
    for _ in range(REFINE_PASSES):
        moved = False
        for v in range(graph.n):
            own = part[v]
            gain = 0
            for idx in range(graph.indptr[v], graph.indptr[v + 1]):
                u = graph.indices[idx]
                gain += graph.ewgt[idx] if part[u] != own else -graph.ewgt[idx]
            if gain <= 0:
                continue
            new_wl = wl + (graph.vwgt[v] if own == 1 else -graph.vwgt[v])
            if not (lo <= new_wl <= hi):
                continue
            if (part == own).sum() <= 1:
                continue
            part[v] = 1 - own
            wl = new_wl
            moved = True
        if not moved:
            break


def _stays_connected(graph: WeightedGraph, members: set, v: int) -> bool:
    """True when removing v keeps the member set connected."""
    rest = members - {v}
    if len(rest) <= 1:
        return True
    labels = _induced_components(graph.indptr, graph.indices, np.fromiter(rest, np.int64))
    return labels.max() == 0


def _rebalance(graph: WeightedGraph, part: np.ndarray, k: int,
               keep_connected: bool = False):
    """Push weight off overweight parts and pull it onto underweight ones.

    A move of v from p to q is accepted when q lands inside the balance
    band or strictly below p's current weight (diffusion step). Every
    accepted move strictly decreases the sum of squared part weights, so
    the loop terminates; among legal moves the one best connected to its
    target is taken to limit cut damage. With ``keep_connected`` a vertex
    only leaves a part it is not an articulation point of.
    """
    indptr, indices, ewgt, vwgt = graph.indptr, graph.indices, graph.ewgt, graph.vwgt
    weights = np.bincount(part, weights=vwgt, minlength=k).astype(np.int64)
    lo, hi = balance_bounds(int(vwgt.sum()), k, int(vwgt.max()))
    members = [set() for _ in range(k)]
    for v, p in enumerate(part):
        members[p].add(v)

    def apply_move(v, p, q):
        part[v] = q
        weights[p] -= vwgt[v]
        weights[q] += vwgt[v]
        members[p].discard(v)
        members[q].add(v)

    def shed(p):
        """Move one vertex off p; True when something moved."""
        cands = []
        for v in sorted(members[p]):
            conn = {}
            for idx in range(indptr[v], indptr[v + 1]):
                q = int(part[indices[idx]])
                if q != p:
                    conn[q] = conn.get(q, 0) + int(ewgt[idx])
            for q, w in conn.items():
                after = weights[q] + vwgt[v]
                if after > hi and after >= weights[p]:
                    continue
                cands.append((-w, int(vwgt[v]), v, q))
        for _, _, v, q in sorted(cands):
            if keep_connected and not _stays_connected(graph, members[p], v):
                continue
            apply_move(v, p, q)
            return True
        return False

    def pull(p):
        """Pull one boundary vertex of a neighbor part into p."""
        cands = []
        for v in sorted(members[p]):
            for idx in range(indptr[v], indptr[v + 1]):
                u = int(indices[idx])
                q = int(part[u])
                if q == p or len(members[q]) <= 1:
                    continue
                donor_after = weights[q] - vwgt[u]
                if donor_after < lo and weights[p] + vwgt[u] >= weights[q]:
                    continue
                w = 0
                for jdx in range(indptr[u], indptr[u + 1]):
                    if part[indices[jdx]] == p:
                        w += int(ewgt[jdx])
                cands.append((-w, int(vwgt[u]), u, q))
        for _, _, u, q in sorted(cands):
            if part[u] != q:
                continue  # stale candidate, donor already changed
            if keep_connected and not _stays_connected(graph, members[q], u):
                continue
            apply_move(u, q, p)
            return True
        return False

    for _ in range(200):
        moved = False
        for p in np.argsort(-weights):
            p = int(p)
            while weights[p] > hi and len(members[p]) > 1:
                if not shed(p):
                    break
                moved = True
        if not moved:
            break
        if not (weights > hi).any():
            break

    for _ in range(200):
        moved = False
        for p in np.argsort(weights):
            p = int(p)
            while weights[p] < lo:
                if not pull(p):
                    break
                moved = True
        if not moved:
            break
        if not (weights < lo).any():
            break


def _refine(graph: WeightedGraph, part: np.ndarray, k: int):
    """Greedy boundary passes; only strictly cut-reducing balanced moves."""
    indptr, indices, ewgt, vwgt = graph.indptr, graph.indices, graph.ewgt, graph.vwgt
    weights = np.bincount(part, weights=vwgt, minlength=k).astype(np.int64)
    sizes = np.bincount(part, minlength=k)
    lo, hi = balance_bounds(int(vwgt.sum()), k, int(vwgt.max()))
    for _ in range(REFINE_PASSES):
        src = np.repeat(np.arange(graph.n), np.diff(indptr))
        boundary = np.flatnonzero(np.bincount(src[part[src] != part[indices]],
                                              minlength=graph.n))
        moved = 0
        for v in boundary:
            own = part[v]
            if sizes[own] <= 1 or weights[own] - vwgt[v] < lo:
                continue
            conn = {}
            own_w = 0
            for idx in range(indptr[v], indptr[v + 1]):
                q = part[indices[idx]]
                if q == own:
                    own_w += ewgt[idx]
                else:
                    conn[q] = conn.get(q, 0) + int(ewgt[idx])
            best_q, best_gain = -1, 0
            for q in sorted(conn):
                gain = conn[q] - own_w
                if gain > best_gain and weights[q] + vwgt[v] <= hi:
                    best_q, best_gain = q, gain
            if best_q >= 0:
                part[v] = best_q
                weights[own] -= vwgt[v]
                weights[best_q] += vwgt[v]
                sizes[own] -= 1
                sizes[best_q] += 1
                moved += 1
        if moved == 0:
            break


def _enforce_contiguity(graph: WeightedGraph, part: np.ndarray, k: int):
    """Reassign every non-largest fragment of a part to its best neighbor."""
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    for _ in range(4):
        changed = False
        # components of every part at once; a part that gains a fragment
        # during the sweep is recomputed when its turn comes
        same = part[src] == part[graph.indices]
        labels = _components(src[same], graph.indices[same], graph.n)
        grown = np.zeros(k, dtype=bool)
        for p in range(k):
            members = np.flatnonzero(part == p)
            own = (_induced_components(graph.indptr, graph.indices, members) if grown[p]
                   else _first_appearance(labels[members]))
            if own.size == 0 or own.max() == 0:
                continue
            comps = np.split(members[np.argsort(own, kind="stable")],
                             np.cumsum(np.bincount(own))[:-1])
            comps.sort(key=lambda c: (-int(graph.vwgt[c].sum()), int(c[0])))
            for frag in comps[1:]:
                conn = {}
                for v in frag:
                    for idx in range(graph.indptr[v], graph.indptr[v + 1]):
                        u = graph.indices[idx]
                        q = part[u]
                        if q != p:
                            conn[q] = conn.get(q, 0) + int(graph.ewgt[idx])
                if not conn:
                    continue  # fragment isolated from all other parts
                target = max(sorted(conn), key=lambda q: conn[q])
                part[frag] = target
                grown[target] = True
                changed = True
        if not changed:
            return
