"""Property tests of ``partition_kway`` on hostile inputs.

Graphs are the dual graphs of small jittered boxes (one box, or two
disjoint ones), path graphs, and either with a few vertices made 50 times
heavier; k runs over the whole range, and just past it on both sides.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from agglomg import partitioner as pt  # noqa: E402
from agglomg.mesh import _components, _induced_components  # noqa: E402

from test_partitioner import graph_from_mesh, path_graph  # noqa: E402


def disjoint_union(a, b):
    return pt.WeightedGraph(indptr=np.concatenate([a.indptr, a.indptr[-1] + b.indptr[1:]]),
                            indices=np.concatenate([a.indices, a.n + b.indices]),
                            ewgt=np.concatenate([a.ewgt, b.ewgt]),
                            vwgt=np.concatenate([a.vwgt, b.vwgt]))


@st.composite
def hostile_graphs(draw):
    kind = draw(st.sampled_from(["box", "two_boxes", "path"]))
    if kind == "path":
        graph = path_graph(draw(st.integers(1, 30)))
    else:
        box = st.tuples(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(0, 9))
        graph = graph_from_mesh(*draw(box))
        if kind == "two_boxes":
            graph = disjoint_union(graph, graph_from_mesh(*draw(box)))
    heavy = draw(st.lists(st.integers(0, graph.n - 1), max_size=3, unique=True))
    graph.vwgt = graph.vwgt.copy()
    graph.vwgt[heavy] *= 50
    return graph


def connected_per_component(graph, part):
    """Each part is connected within each connected component of the graph."""
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    comp = _components(src, graph.indices, graph.n)
    for p in np.unique(part):
        for c in np.unique(comp[part == p]):
            members = np.flatnonzero((part == p) & (comp == c))
            if _induced_components(graph.indptr, graph.indices, members).max() != 0:
                return False
    return True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graph=hostile_graphs(), k_frac=st.floats(0.0, 1.0), k_shift=st.sampled_from([0, 0, 0, -1, 1]),
       seed=st.integers(0, 3))
def test_partition_kway_on_hostile_graphs(graph, k_frac, k_shift, seed):
    n = graph.n
    k = 1 + round(k_frac * (n - 1)) if k_shift == 0 else (0 if k_shift < 0 else n + 1)
    try:
        part = pt.partition_kway(graph, k, seed=seed)
    except ValueError:
        assert not 1 <= k <= n
        return
    assert 1 <= k <= n
    sizes = np.bincount(part, minlength=k)
    assert len(sizes) == k and (sizes > 0).all()
    assert connected_per_component(graph, part)
    again = pt.partition_kway(graph, k, seed=seed)
    assert np.array_equal(part, again)


@st.composite
def fine_grained_boxes(draw):
    """The dual graph of one jittered box and a part count k whose target
    is at least 1 / BALANCE_FRACTION vertices heavy: every vertex then fits
    in the band's slack, 5% of the target."""
    graph = graph_from_mesh(draw(st.sampled_from([2, 3])), draw(st.integers(3, 6)),
                            draw(st.integers(0, 9)))
    k_max = int(pt.BALANCE_FRACTION * graph.vwgt.sum() // graph.vwgt.max())
    return graph, draw(st.integers(1, max(k_max, 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=fine_grained_boxes(), seed=st.integers(0, 3))
def test_parts_lie_in_their_bands(case, seed):
    graph, k = case
    targets = np.full(k, graph.vwgt.sum() / k)
    assert graph.vwgt.max() <= pt.BALANCE_FRACTION * targets[0] or k == 1
    lo, hi = pt.balance_bounds(targets, int(graph.vwgt.max()))
    weights = np.bincount(pt.partition_kway(graph, k, seed=seed), weights=graph.vwgt,
                          minlength=k)
    assert ((lo <= weights) & (weights <= hi)).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graph=hostile_graphs(), k=st.integers(1, 12), seed=st.integers(0, 3))
def test_contiguity_pass_is_final(graph, k, seed):
    """One ``_enforce_contiguity`` pass leaves each part one piece per
    component of the graph, so a second pass changes nothing."""
    part = np.random.default_rng(seed).integers(0, k, graph.n)
    pt._enforce_contiguity(graph, part, k)
    assert connected_per_component(graph, part)
    again = part.copy()
    pt._enforce_contiguity(graph, again, k)
    assert np.array_equal(again, part)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graph=hostile_graphs(), k=st.integers(2, 12), seed=st.integers(0, 3))
def test_connected_rebalance_keeps_the_contiguity_pass_final(graph, k, seed):
    """``_rebalance(..., keep_connected=True)`` after the contiguity pass
    splits no part, so ``partition_kway`` needs no second pass: every part
    stays one piece per component of the graph, and a further
    ``_enforce_contiguity`` changes nothing."""
    part = np.random.default_rng(seed).integers(0, k, graph.n)
    pt._enforce_contiguity(graph, part, k)
    pt._rebalance(graph, part, np.full(k, graph.vwgt.sum() / k), keep_connected=True)
    assert connected_per_component(graph, part)
    again = part.copy()
    pt._enforce_contiguity(graph, again, k)
    assert np.array_equal(again, part)
