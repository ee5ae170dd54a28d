"""Property tests of ``cleanup`` on random raw labellings.

Levels are small jittered 2D and 3D boxes, single-cell boxes and two
disjoint boxes. A raw labelling gives each element a random label or -1,
with any share of -1 from none to all.
"""
import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from agglomg.agglomerate import Agglomeration, CleanupReport, cleanup  # noqa: E402
from agglomg.mesh import LevelTopology, generate_mesh  # noqa: E402

from invariants import check_agglomeration  # noqa: E402
from test_agglomerate import _two_boxes  # noqa: E402

LEVELS = [("box", 2, 1), ("box", 2, 3), ("box", 2, 6), ("box", 3, 1), ("box", 3, 2),
          ("two_boxes", 2, 2), ("two_boxes", 3, 1)]


@functools.lru_cache(maxsize=None)
def _level(kind, dim, n):
    mesh = generate_mesh(dim, n, jitter=0.2, seed=n) if kind == "box" else _two_boxes(dim, n)
    return LevelTopology.from_mesh(mesh)


@st.composite
def raw_labellings(draw):
    topo = _level(*draw(st.sampled_from(LEVELS)))
    n = topo.n_elements
    k = draw(st.integers(1, n))
    unset = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.integers(0, k, n)
    labels[rng.random(n) < unset] = -1
    return topo, labels


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=raw_labellings())
def test_cleanup_is_total_contiguous_dense_and_idempotent(case):
    topo, labels = case
    agg, _ = cleanup(topo, Agglomeration(labels))
    check_agglomeration(topo, agg)
    assign = agg.element_to_agg
    _, first = np.unique(assign, return_index=True)
    assert np.array_equal(assign[np.sort(first)], np.arange(len(first))), \
        "ids are not in order of first appearance"
    again, report = cleanup(topo, agg)
    assert np.array_equal(again.element_to_agg, assign)
    assert report == CleanupReport()
