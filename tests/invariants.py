"""The invariants the docstrings state, checked in one place for every test.

- An agglomeration is total, densely numbered and contiguous.
- Every agglomerate owns a coarse node.
- P has non-negative rows that sum to one, injects at the coarse nodes,
  and its restriction is its exact transpose.
- P^T A P is symmetric when A is.
- A level's edges, where it has them, join two distinct nodes of that
  level, ascending.

``check_hierarchy`` runs all of them on every level of a hierarchy, and
``coarse_nodes`` gives a level's coarse nodes as ``build_hierarchy`` picks
them, asserting that every agglomerate owns one.
"""
import numpy as np
from scipy.sparse import csgraph, csr_matrix

from agglomg import hierarchy as hi
from agglomg.hierarchy import restriction


def check_agglomeration(topo, agg):
    """Total, contiguous, densely numbered."""
    assign = agg.element_to_agg
    assert len(assign) == topo.n_elements, "agglomeration does not fit the level"
    assert (assign >= 0).all(), "agglomeration is not total"
    ids = np.unique(assign)
    assert ids[0] == 0 and ids[-1] == len(ids) - 1, "ids are not dense"
    n = topo.n_elements
    src = np.repeat(np.arange(n), np.diff(topo.dual.indptr))
    same = assign[src] == assign[topo.dual.indices]
    G = csr_matrix((np.ones(int(same.sum())), (src[same], topo.dual.indices[same])),
                   shape=(n, n))
    _, labels = csgraph.connected_components(G, directed=False)
    # contiguous exactly when each agglomerate spans one component
    pairs = np.unique(assign * (labels.max() + 1) + labels)
    assert len(pairs) == len(ids), "an agglomerate is not contiguous"


def coarse_nodes(topo, agg, coarse_faces):
    """Coarse nodes of a level by the face-count rule, each agglomerate covered."""
    coarse, covered, _ = hi._coarse_mask(topo, agg, coarse_faces)
    assert covered.all(), "agglomerate without a coarse node"
    return np.flatnonzero(coarse)


def check_coarse_node_coverage(topo, lvl):
    an, aa = hi._node_agg_pairs(topo, lvl.agglomeration)
    is_coarse = np.zeros(topo.n_nodes, dtype=bool)
    is_coarse[lvl.coarse_nodes] = True
    covered = np.zeros(lvl.agglomeration.n_agglomerates, dtype=bool)
    covered[aa[is_coarse[an]]] = True
    assert covered.all(), "agglomerate without a coarse node"


def check_transfers(lvl, n_rows):
    """Exact transpose, non-negative rows summing to one, injection at coarse
    nodes, no empty row."""
    P = lvl.prolongation.tocsr()
    assert P.shape == (n_rows, len(lvl.coarse_nodes)), "prolongation shape"
    R = restriction(P)
    assert (R != P.T).nnz == 0, "restriction is not the exact transpose"
    assert P.data.min() >= 0.0, "negative prolongation entry"
    sums = np.asarray(P.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() <= 1e-14, "row sums off beyond 1e-14"
    indptr = P.indptr
    nnz = np.diff(indptr)
    assert (nnz[lvl.coarse_nodes] == 1).all(), "injection row with extra entries"
    assert (P.indices[indptr[lvl.coarse_nodes]]
            == np.arange(len(lvl.coarse_nodes))).all(), "injection into the wrong column"
    coarse_vals = P.data[indptr[lvl.coarse_nodes]]
    assert (coarse_vals == 1.0).all(), "injection rows must hold a single 1"
    assert (nnz > 0).all(), "empty prolongation row"


def _asymmetry(A):
    return abs(A - A.T).max() / max(abs(A).max(), 1e-300)


def check_galerkin_symmetry(A, Ac):
    """A coarse operator P^T A P is symmetric when its fine operator A is."""
    if _asymmetry(A) <= 1e-12:
        assert _asymmetry(Ac) <= 1e-12, "P^T A P is not symmetric"


def check_edges(topo):
    """Each edge names two distinct nodes of its level, ascending."""
    if topo.edges is not None:
        a, b = topo.edges.nodes.T
        assert ((0 <= a) & (a < b) & (b < topo.n_nodes)).all(), \
            "an edge does not join two ascending nodes of its level"


def check_hierarchy(h):
    """Every invariant on every level; the operators too, when built."""
    topo = h.fine_topology
    A = h.fine_operator
    check_edges(topo)
    for lvl in h.levels:
        check_agglomeration(topo, lvl.agglomeration)
        check_coarse_node_coverage(topo, lvl)
        check_transfers(lvl, topo.n_nodes)
        assert lvl.topology.n_elements == lvl.agglomeration.n_agglomerates
        check_edges(lvl.topology)
        if A is not None:
            check_galerkin_symmetry(A, lvl.operator)
            A = lvl.operator
        topo = lvl.topology
