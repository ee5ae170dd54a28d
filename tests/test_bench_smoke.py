"""The benchmark's traced smoke run still finds every name it wraps.

``bench/run.py --smoke`` runs each workload on tiny meshes with and without
the per-layer wrappers; it fails when a wrapped library name is missing or
never called, so a refactor that renames or bypasses one shows up here.
The tracer also reads ``hierarchy.repair_rounds`` as the number of
``select_coarse_faces`` calls beyond one per level, and it names a smoother
call's level by finding the call's first argument in
``VCyclePreconditioner.operators``; the other tests pin both, since the
smoke run labels an unmatched operator ``L?`` and passes.
"""
import os
import subprocess
import sys

from agglomg import hierarchy, solver
from agglomg.agglomerate import CoarsenConfig
from agglomg.mesh import generate_mesh

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_run():
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert lines and lines[-1] == '{"smoke_ok": true}', proc.stdout[-2000:]


def test_one_coarse_face_selection_per_repair_round(monkeypatch):
    # this build keeps 2 coarse levels and makes one repair merge (11 -> 10
    # agglomerates on the second), so the selection runs 3 times
    calls = []
    select = hierarchy.select_coarse_faces

    def counted(*args):
        calls.append(args[1].n_agglomerates)
        return select(*args)

    monkeypatch.setattr(hierarchy, "select_coarse_faces", counted)
    h = hierarchy.build_hierarchy(generate_mesh(3, 6, jitter=0.15, seed=3),
                                  CoarsenConfig("aspect", desired_size=168, seed=1))
    assert len(h.levels) == 2
    assert calls == [23, 11, 10]
    assert len(calls) - len(h.levels) == 1


def test_vcycle_calls_module_smoother_with_its_level_operators(monkeypatch):
    # each smoothed level calls solver.smooth twice, first from a zero start,
    # with M.operators[k] itself; the coarsest level calls solver.lu_solve once
    calls = []
    smooth, lu_solve = solver.smooth, solver.lu_solve

    def smooth_recorder(A, b, x, **kwargs):
        calls.append((A, x is None))
        return smooth(A, b, x, **kwargs)

    def lu_recorder(*args, **kwargs):
        calls.append("lu")
        return lu_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "smooth", smooth_recorder)
    monkeypatch.setattr(solver, "lu_solve", lu_recorder)
    mesh = generate_mesh(2, 16, jitter=0.2, seed=3)
    A, b = solver.assemble_problem(mesh, solver.ProblemSpec("diffuse"))
    h = hierarchy.build_hierarchy(mesh, CoarsenConfig("node", seed=1), operator=A)
    M = solver.VCyclePreconditioner(h)
    M(b)
    smoothed = h.n_levels - 1
    assert smoothed >= 2 and len(M.operators) == smoothed
    down = [(M.operators[k], True) for k in range(smoothed)]
    up = [(M.operators[k], False) for k in reversed(range(smoothed))]
    assert len(calls) == 2 * smoothed + 1
    assert calls[smoothed] == "lu"
    for (op, pre), (want, want_pre) in zip(calls[:smoothed] + calls[smoothed + 1:],
                                           down + up):
        assert op is want and pre == want_pre
