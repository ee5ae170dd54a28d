"""Every algorithm on the smallest boxes and on disconnected meshes.

Each of the seven algorithms builds a hierarchy on tiny jittered boxes
(n = 1-4 cells a side, so the default sizes exceed the level) and on two
disjoint copies of a small untagged box, once without an operator and
once through ``solve_problem``, which builds with the operator and so can
also stop where the coarse LU is dense. Every build must end with a
documented ``stop_reason`` and pass the shared invariant checks, and
every solve must converge; any exception fails the case.
"""
import pytest

from agglomg.agglomerate import ALGORITHMS, CoarsenConfig
from agglomg.hierarchy import build_hierarchy
from agglomg.mesh import generate_mesh
from agglomg.solver import ProblemSpec, solve_problem

from invariants import check_hierarchy
from test_agglomerate import _two_boxes

STOP_REASONS = {"coarse_nodes", "stagnation", "max_levels", "no_coarsening",
                "uncoverable", "dense"}

MESHES = {f"{dim}d-n{n}": (lambda dim=dim, n=n: generate_mesh(dim, n, jitter=0.1, seed=1))
          for dim in (2, 3) for n in (1, 2, 3, 4)}
MESHES.update({"2d-two-boxes": lambda: _two_boxes(2, 4),
               "3d-two-boxes": lambda: _two_boxes(3, 2)})


@pytest.mark.parametrize("with_operator", [False, True], ids=["build", "solve"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", list(MESHES))
def test_ends_with_a_documented_stop(name, algorithm, with_operator):
    mesh = MESHES[name]()
    config = CoarsenConfig(algorithm, seed=1)
    if with_operator:
        _, report, hier = solve_problem(mesh, ProblemSpec("diffuse"), config)
        assert report.converged
    else:
        hier = build_hierarchy(mesh, config)
    assert hier.stop_reason in STOP_REASONS
    check_hierarchy(hier)
