"""The three fixed benchmark workloads: seeded inputs, cases and output checks.

A workload is a cycle of cases (one algorithm and seed of a sweep, the
read of its mesh, one setup or one right-hand side of the multi-RHS
workload); the runner repeats the cycle. Every case calls the library
through module attributes (``solver.fgmres``, ``hierarchy.build_hierarchy``,
...), so the traced run can wrap those names without the cases knowing.
Each call the program makes is timed with the shared :class:`Clock`; input
generation and the output checks run under ``clock.untimed()`` and count in
no metric.
"""
from __future__ import annotations

import functools
import os
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from agglomg import hierarchy, mesh as mesh_mod, mesh_io, solver
from agglomg.agglomerate import ALGORITHMS, CoarsenConfig

JITTER = 0.2
TOL = 1e-10
RESTART = 30
RHS_PER_PROBLEM = 12
# solves of one sweep hierarchy in a row: a solve is short, and one sample
# per setup left solve_s the noisiest metric
SWEEP_SOLVES = 3
P_ROW_TOL = 1e-12


class CheckError(AssertionError):
    """An output of the program failed one of the benchmark's checks."""


class Clock:
    """perf_counter with the time spent in untimed blocks taken out."""

    def __init__(self):
        self.excluded = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    @contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t0


@dataclass
class CaseRun:
    """One run of one case: its program time per kind, and its counts.

    The kinds are ``setup``, ``solve`` and ``wall`` (all program time of
    the case). Every run is one attempted case.
    """

    times: dict = field(default_factory=dict)
    iterations: int = 0
    complexities: list = field(default_factory=list)  # (grid, operator) per hierarchy
    failed: int = 0
    note: str | None = None

    def add(self, kind, seconds):
        self.times[kind] = self.times.get(kind, 0.0) + seconds

    def counts(self):
        return self.iterations, self.complexities, self.failed


@dataclass
class Spec:
    name: str
    dim: int
    n: int
    problems: tuple
    algorithms: tuple
    multirhs: bool = False
    # coarsening seeds per algorithm in one cycle: the partitioner's cost
    # depends on its seed (1.5 to 2.8 s for one 8k-triangle build), so one
    # seed per run made runs differ by their seed more than by the program
    seeds: int = 1
    # algorithms coarsened but not solved (their coarsest level is too large
    # for the dense coarse LU; see README.md)
    coarsen_only: tuple = ()


WORKLOADS = {
    "sweep2d-8k": Spec("sweep2d-8k", 2, 64, ("diffuse",), ALGORITHMS, seeds=2),
    "multirhs2d-33k": Spec("multirhs2d-33k", 2, 128, ("diffuse", "absorbing"),
                           ("node",), multirhs=True),
    "sweep3d-10k": Spec("sweep3d-10k", 3, 12, ("absorbing",), ALGORITHMS, seeds=2,
                        coarsen_only=("jones", "rgb")),
}

# tiny meshes for the smoke mode: every code path in seconds
SMOKE_SIZES = {"sweep2d-8k": 8, "multirhs2d-33k": 8, "sweep3d-10k": 5}


def _seed_ints(seed: int, count: int) -> list:
    state = np.random.SeedSequence(seed).generate_state(count, np.uint64)
    return [int(v) for v in state]


@dataclass
class Inputs:
    """Everything the cases need, made from the workload seed before timing."""

    mesh: object
    msh_path: str | None
    alg_seeds: dict  # algorithm -> one coarsening seed per Spec.seeds
    rhs_seed: int


def make_inputs(spec: Spec, seed: int, work_dir: str, n: int | None = None) -> Inputs:
    mesh_seed, alg_seed, rhs_seed = _seed_ints(seed, 3)
    mesh = mesh_mod.generate_mesh(spec.dim, n or spec.n, jitter=JITTER, seed=mesh_seed)
    seeds = iter(_seed_ints(alg_seed, len(ALGORITHMS) * spec.seeds))
    alg_seeds = {alg: [next(seeds) for _ in range(spec.seeds)] for alg in ALGORITHMS}
    msh_path = None
    if spec.dim == 3:
        msh_path = os.path.join(work_dir, f"{spec.name}.msh")
        write_msh(msh_path, mesh)
    return Inputs(mesh, msh_path, alg_seeds, rhs_seed)


def write_msh(path, mesh):
    """ASCII MSH 2.2 of a tet mesh with 1-based ids: boundary triangles, then tets.

    Boundary triangles carry their side tag and tets their material id as
    the physical tag, which is what ``agglomg.read_msh`` maps back.
    """
    faces = sorted(mesh.boundary_tag.items())
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(mesh.n_nodes)]
    lines += [f"{i + 1} {x!r} {y!r} {z!r}"
              for i, (x, y, z) in enumerate(mesh.node_coords.tolist())]
    lines += ["$EndNodes", "$Elements", str(len(faces) + mesh.n_elements)]
    rows = [(2, tag, nodes) for nodes, tag in faces]
    rows += [(4, mat, conn) for conn, mat in
             zip(mesh.elements.tolist(), mesh.material_id.tolist())]
    lines += [f"{eid} {etype} 2 {tag} {tag} " + " ".join(str(v + 1) for v in nodes)
              for eid, (etype, tag, nodes) in enumerate(rows, start=1)]
    lines.append("$EndElements")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# output checks (run untimed)

def check_mesh(read, written):
    if not (np.array_equal(read.elements, written.elements)
            and np.array_equal(read.node_coords, written.node_coords)
            and np.array_equal(read.material_id, written.material_id)
            and read.boundary_tag == written.boundary_tag):
        raise CheckError("mesh read back from MSH differs from the one written")


def check_hierarchy(hier):
    for k, level in enumerate(hier.levels, start=1):
        e2a = level.agglomeration.element_to_agg
        if (e2a < 0).any():
            raise CheckError(f"level {k}: agglomeration is not total")
        if not np.array_equal(np.unique(e2a), np.arange(level.agglomeration.n_agglomerates)):
            raise CheckError(f"level {k}: agglomerate ids are not dense")
        P = level.prolongation.tocsr()
        if P.nnz and P.data.min() < 0:
            raise CheckError(f"level {k}: negative prolongation entry")
        rows = np.asarray(P.sum(axis=1)).ravel()
        if np.abs(rows - 1.0).max() > P_ROW_TOL:
            raise CheckError(f"level {k}: prolongation rows do not sum to one")


def check_solve(A, b, x, converged):
    if not converged:
        raise CheckError("FGMRES did not converge")
    rel = np.linalg.norm(b - A @ x) / (np.linalg.norm(b) or 1.0)
    if not rel <= TOL:
        raise CheckError(f"relative residual {rel:.3e} above {TOL:g}")


# ---------------------------------------------------------------------------
# cases

def _timed(clock, fn, *args, **kwargs):
    t0 = clock.now()
    out = fn(*args, **kwargs)
    return out, clock.now() - t0


def _case(clock, label, body):
    """A case as a callable that runs ``body`` and returns its CaseRun."""
    def run():
        rec = CaseRun()
        t0 = clock.now()
        try:
            body(rec)
        except Exception as exc:  # a failing case is counted, never dropped
            with clock.untimed():
                rec.failed = 1
                last = traceback.format_exception_only(type(exc), exc)[-1].strip()
                rec.note = f"FAILED {label}: {last}"
        rec.add("wall", clock.now() - t0)
        return rec
    return run


def _setup(clock, rec, mesh, problem, alg, seed):
    """Assemble and build the hierarchy; its checks run untimed."""
    spec = solver.ProblemSpec(problem)
    A, b = solver.assemble_problem(mesh, spec)
    config = CoarsenConfig(alg, desired_size=hierarchy.level_schedule(mesh.dim).top,
                           seed=seed)
    hier, t = _timed(clock, hierarchy.build_hierarchy, mesh, config,
                     materials=spec.materials, operator=A)
    rec.add("setup", t)
    with clock.untimed():
        check_hierarchy(hier)
        rec.complexities.append((hierarchy.grid_complexity(hier),
                                 hierarchy.operator_complexity(hier)))
    return A, b, hier


def _precondition(clock, rec, hier):
    M, t = _timed(clock, solver.VCyclePreconditioner, hier)
    rec.add("setup", t)
    return M


def _solve(clock, rec, A, b, M):
    (x, residuals, iterations, converged), t = _timed(
        clock, solver.fgmres, A, b, M, restart=RESTART, tol=TOL, atol=0.0)
    rec.add("solve", t)
    rec.iterations += iterations
    with clock.untimed():
        check_solve(A, b, x, converged)
    return residuals, iterations, converged


def sweep_cases(spec, inputs, clock, work_dir):
    """Read the mesh (3D), then per algorithm and seed: a setup case and,
    unless the algorithm is coarsened only, SWEEP_SOLVES solve cases."""
    state = {"mesh": inputs.mesh, "case": None}
    (problem,) = spec.problems

    def read(rec):
        state["mesh"] = None
        mesh = mesh_io.read_msh(inputs.msh_path)
        with clock.untimed():
            check_mesh(mesh, inputs.mesh)
        state["mesh"] = mesh

    def setup(rec, alg, k):
        state["case"] = None
        mesh = state["mesh"]
        if mesh is None:
            raise CheckError("no mesh: read_msh failed")
        A, b, hier = _setup(clock, rec, mesh, problem, alg, inputs.alg_seeds[alg][k])
        M = None if alg in spec.coarsen_only else _precondition(clock, rec, hier)
        with clock.untimed():
            grid, operator = rec.complexities[-1]
            rec.note = (f"{alg}/{k}: setup {rec.times['setup']:.3f} s, grid/operator "
                        f"complexity {grid:.3f}/{operator:.3f}, nodes per level "
                        f"{hier.node_counts}" + (", coarsened only" if M is None else ""))
        if spec.dim == 3:
            mesh_io.write_vtk(os.path.join(work_dir, f"{spec.name}-{alg}-{k}.vtk"), mesh,
                              [lvl.agglomeration for lvl in hier.levels])
        state["case"] = (A, b, hier, M, rec.times["setup"])

    def solve(rec, alg, k):
        if state["case"] is None:
            raise CheckError(f"no preconditioner: {alg}/{k} setup failed")
        A, b, hier, M, setup_s = state["case"]
        residuals, iterations, converged = _solve(clock, rec, A, b, M)
        with clock.untimed():
            rec.note = (f"{alg}/{k}: solve {rec.times['solve']:.3f} s, "
                        f"{iterations} iterations")
        if spec.dim == 3:
            report = solver.SolveReport(
                iterations=iterations, residuals=residuals, setup_time_s=setup_s,
                solve_time_s=rec.times["solve"], converged=converged, problem=problem,
                algorithm=alg, levels=hier.n_levels, meta={"node_counts": hier.node_counts})
            mesh_io.write_report_json(
                os.path.join(work_dir, f"{spec.name}-{alg}-{k}.json"), report)

    cases = [("read_msh", read)] if inputs.msh_path is not None else []
    for k, alg in ((k, alg) for k in range(spec.seeds) for alg in spec.algorithms):
        cases.append((f"{alg}/{k} setup", functools.partial(setup, alg=alg, k=k)))
        if alg not in spec.coarsen_only:
            cases += [(f"{alg}/{k} solve {j}", functools.partial(solve, alg=alg, k=k))
                      for j in range(SWEEP_SOLVES)]
    return cases


def multirhs_cases(spec, inputs, clock, work_dir):
    """Per problem: one setup, then one case per right-hand side."""
    mesh = inputs.mesh
    (alg,) = spec.algorithms
    interior = ~mesh_mod.boundary_node_mask(mesh)
    rng = np.random.Generator(np.random.Philox(inputs.rhs_seed))
    xs = [[rng.standard_normal(mesh.n_nodes) * interior for _ in range(RHS_PER_PROBLEM - 1)]
          for _ in spec.problems]
    state = {}  # the current problem's operator, preconditioner and loads

    def setup(rec, p, problem):
        state.clear()
        A, b, hier = _setup(clock, rec, mesh, problem, alg, inputs.alg_seeds[alg][0])
        M = _precondition(clock, rec, hier)
        with clock.untimed():
            state[problem] = (A, M, [b] + [A @ x for x in xs[p]])

    def solve_one(rec, problem, k):
        if problem not in state:
            raise CheckError(f"no preconditioner: {problem} setup failed")
        A, M, loads = state[problem]
        _solve(clock, rec, A, loads[k], M)

    cases = []
    for p, problem in enumerate(spec.problems):
        cases.append((f"{problem} setup", functools.partial(setup, p=p, problem=problem)))
        cases += [(f"{problem} rhs {k}", functools.partial(solve_one, problem=problem, k=k))
                  for k in range(RHS_PER_PROBLEM)]
    return cases


def cases(spec, inputs, clock, work_dir) -> list:
    """The workload's cycle: (label, callable returning a CaseRun) in order."""
    make = multirhs_cases if spec.multirhs else sweep_cases
    return [(label, _case(clock, label, body))
            for label, body in make(spec, inputs, clock, work_dir)]
