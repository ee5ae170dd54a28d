"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` replaces public names of the ``agglomg`` modules with timing
wrappers. It works because the program looks those names up at call time:
``build_hierarchy`` calls ``coarsen``, ``select_coarse_faces``, ... through
the ``hierarchy`` module globals, the algorithm functions call ``cleanup``
and ``partitioner.partition_kway`` through theirs, and the V-cycle calls
``smooth`` and ``lu_solve`` through the ``solver`` globals. A name that is
gone from its module is not wrapped; its metrics read as missing (null),
never as 0.

Spans nest. A span's self time is its duration minus the spans it
encloses, so the self times of one call tree add up to its root span.
Work done only to produce a metric (edge cut, nnz counts) runs under
``clock.untimed()`` and is in no span.
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from agglomg import agglomerate, hierarchy, mesh, mesh_io, partitioner, solver
from agglomg.agglomerate import ALGORITHMS

MAX_LEVELS = hierarchy.StopRule().max_levels
SMOOTH_LEVELS = tuple(f"L{k}" for k in range(MAX_LEVELS - 1))
STEP_LEVELS = tuple(f"L{k}" for k in range(1, MAX_LEVELS))
HIERARCHY_STAGES = ("select_coarse_faces", "select_coarse_edges", "build_prolongation",
                    "project_materials", "galerkin_operator")
COARSEN = ("coarsen", "cleanup", "partition_kway")
VCYCLE = "VCyclePreconditioner.__call__"

# (metric, unit, wrapped names it needs)
METRICS = (
    [("mesh.topology_s", "s", ("LevelTopology.from_mesh",)),
     ("mesh_io.read_msh_s", "s", ("read_msh",)),
     ("mesh_io.write_vtk_s", "s", ("write_vtk",)),
     ("mesh_io.write_report_json_s", "s", ("write_report_json",)),
     ("mesh_io.bytes_read", "bytes", ("read_msh",)),
     ("mesh_io.bytes_written", "bytes", ("write_vtk", "write_report_json")),
     ("agglomerate.coarsen_s", "s", COARSEN)]
    + [(f"agglomerate.coarsen_s.{alg}", "s", COARSEN) for alg in ALGORITHMS]
    + [("agglomerate.cleanup_s", "s", ("cleanup",)),
       ("agglomerate.coarsen_calls", "count", ("coarsen",)),
       ("agglomerate.elements_in", "count", ("coarsen",)),
       ("agglomerate.agglomerates_out", "count", ("coarsen",))]
    + [(f"partitioner.{m}", u, ("partition_kway",))
       for m, u in (("partition_kway_s", "s"), ("calls", "count"), ("vertices", "count"),
                    ("parts", "count"), ("edge_cut", "count"))]
    + [("hierarchy.build_hierarchy_s", "s", ("build_hierarchy",))]
    + [(f"hierarchy.{fn}_s", "s", (fn,)) for fn in HIERARCHY_STAGES]
    + [("hierarchy.self_s", "s",
        ("build_hierarchy", "LevelTopology.from_mesh", "coarsen") + HIERARCHY_STAGES)]
    + [(f"hierarchy.step_s.{lv}", "s", ("build_hierarchy", "coarsen")) for lv in STEP_LEVELS]
    + [(f"hierarchy.{m}", "count", ("build_hierarchy",))
       for m in ("levels", "coarse_nodes", "operator_nnz", "prolongation_nnz")]
    + [("hierarchy.repair_rounds", "count", ("build_hierarchy", "select_coarse_faces")),
       ("solver.assemble_problem_s", "s", ("assemble_problem",)),
       ("solver.vcycle_setup_s", "s", ("VCyclePreconditioner.__init__",)),
       ("solver.fgmres_self_s", "s", ("fgmres", VCYCLE)),
       ("solver.vcycles", "count", (VCYCLE,)),
       ("solver.vcycle_s", "s", (VCYCLE,)),
       ("solver.smooth_s", "s", ("smooth",)),
       ("solver.smooth_calls", "count", ("smooth",))]
    + [(f"solver.smooth_s.{lv}", "s", ("smooth", "VCyclePreconditioner.__init__"))
       for lv in SMOOTH_LEVELS]
    + [("solver.coarse_lu_s", "s", ("lu_solve",)),
       ("solver.transfer_s", "s", (VCYCLE, "smooth", "lu_solve")),
       ("trace.wall_s", "s", ()),
       ("trace.setup_solve_s", "s",
        ("build_hierarchy", "VCyclePreconditioner.__init__", "fgmres")),
       ("trace.overhead_s", "s", ())]
)


class Tracer:
    """Nested spans and counters on a :class:`workloads.Clock`."""

    def __init__(self, clock):
        self.clock = clock
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.steps = defaultdict(float)
        self.spans = 0
        self._stack = []          # [name, start, time in child spans]
        self._step = None         # [level, start] inside build_hierarchy
        self._level_of = {}       # id(operator) -> level, for smooth
        self.wrapped = set()
        self.called = set()
        self.missing = set()
        self._restore = []

    def open(self, name):
        self._stack.append([name, self.clock.now(), 0.0])

    def close(self):
        name, start, child = self._stack.pop()
        dur = self.clock.now() - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        self.spans += 1
        if self._stack:
            self._stack[-1][2] += dur

    def step_mark(self, end=False):
        """Level steps of one build: from one coarsen call to the next."""
        now = self.clock.now()
        if self._step is not None:
            level, start = self._step
            self.steps[f"L{level}"] += now - start
        if end:
            self._step = None
        else:
            level = self._step[0] + 1 if self._step else 1
            self._step = [level, now]

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, make):
        if isinstance(owner, type):
            label, orig = f"{owner.__name__}.{attr}", owner.__dict__.get(attr)
        else:
            label, orig = attr, getattr(owner, attr, None)
        if orig is None:
            self.missing.add(label)
            return
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, make(orig, label))
        self.wrapped.add(label)

    def _span(self, name, before=None, after=None):
        """A wrapper maker: time the call as ``name``, then run the hooks."""
        def make(fn, label):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.called.add(label)
                span = name(args, kwargs) if callable(name) else name
                if before is not None:
                    before(args, kwargs)
                self.open(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close()
                if after is not None:
                    with self.clock.untimed():
                        after(args, kwargs, out)
                return out
            return wrapper
        return make

    def install(self):
        c = self.counts
        P = self._patch
        S = self._span

        P(mesh.LevelTopology, "from_mesh",
          lambda orig, label: classmethod(S("mesh.topology")(orig.__func__, label)))

        def file_bytes(key):
            def after(args, kwargs, out):
                c[key] += os.path.getsize(args[0])
            return after
        P(mesh_io, "read_msh",
          S("mesh_io.read_msh", after=file_bytes("mesh_io.bytes_read")))
        P(mesh_io, "write_vtk",
          S("mesh_io.write_vtk", after=file_bytes("mesh_io.bytes_written")))
        P(mesh_io, "write_report_json",
          S("mesh_io.write_report_json", after=file_bytes("mesh_io.bytes_written")))

        def coarsen_after(args, kwargs, out):
            c["agglomerate.elements_in"] += args[0].n_elements
            c["agglomerate.agglomerates_out"] += out.n_agglomerates
        P(hierarchy, "coarsen",
          S(lambda a, k: f"agglomerate.coarsen.{a[1].algorithm}",
            before=lambda a, k: self.step_mark(), after=coarsen_after))
        P(agglomerate, "cleanup", S("agglomerate.cleanup"))

        edge_cut = partitioner.edge_cut

        def partition_after(args, kwargs, out):
            graph, k = args[0], args[1]
            c["partitioner.vertices"] += graph.n
            c["partitioner.parts"] += k
            c["partitioner.edge_cut"] += edge_cut(graph, out)
        P(partitioner, "partition_kway",
          S("partitioner.partition_kway", after=partition_after))

        def build_after(args, kwargs, hier):
            self.step_mark(end=True)
            c["hierarchy.levels"] += hier.n_levels - 1
            c["hierarchy.coarse_nodes"] += sum(hier.node_counts[1:])
            if hier.fine_operator is not None:
                c["hierarchy.operator_nnz"] += sum(op.nnz for op in hier.operators)
            c["hierarchy.prolongation_nnz"] += sum(p.nnz for p in hier.prolongations)

        def build_before(args, kwargs):
            self._step = None  # a build that raised leaves its last step open
        P(hierarchy, "build_hierarchy",
          S("hierarchy.build_hierarchy", before=build_before, after=build_after))

        for fn in HIERARCHY_STAGES:
            P(hierarchy, fn, S(f"hierarchy.{fn}"))

        P(solver, "assemble_problem", S("solver.assemble_problem"))
        P(solver, "fgmres", S("solver.fgmres"))
        P(solver, "lu_solve", S("solver.coarse_lu"))

        def register_levels(args, kwargs, out):
            self._level_of = {id(op): k for k, op in enumerate(args[0].operators)}
        P(solver.VCyclePreconditioner, "__init__",
          S("solver.vcycle_setup", after=register_levels))
        P(solver.VCyclePreconditioner, "__call__", S("solver.vcycle"))
        P(solver, "smooth",
          S(lambda a, k: f"solver.smooth.L{self._level_of.get(id(a[0]), '?')}"))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def overhead_per_span(self, calls=20000) -> float:
        """Measured cost of one wrapped call around a no-op, in seconds."""
        probe = self._span("trace.probe")(lambda: None, "trace.probe")
        t0 = time.perf_counter()
        for _ in range(calls):
            probe()
        cost = (time.perf_counter() - t0) / calls
        for table in (self.total, self.self_time, self.calls):
            table.pop("trace.probe", None)
        self.spans -= calls
        self.called.discard("trace.probe")
        return cost

    def metrics(self, wall_s, overhead_s) -> dict:
        total, self_t, calls, c = self.total, self.self_time, self.calls, self.counts

        def prefixed(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        values = {
            "mesh.topology_s": total["mesh.topology"],
            "mesh_io.read_msh_s": total["mesh_io.read_msh"],
            "mesh_io.write_vtk_s": total["mesh_io.write_vtk"],
            "mesh_io.write_report_json_s": total["mesh_io.write_report_json"],
            "agglomerate.coarsen_s": prefixed(self_t, "agglomerate.coarsen."),
            "agglomerate.cleanup_s": total["agglomerate.cleanup"],
            "agglomerate.coarsen_calls": prefixed(calls, "agglomerate.coarsen."),
            "partitioner.partition_kway_s": total["partitioner.partition_kway"],
            "partitioner.calls": calls["partitioner.partition_kway"],
            "hierarchy.build_hierarchy_s": total["hierarchy.build_hierarchy"],
            "hierarchy.self_s": self_t["hierarchy.build_hierarchy"],
            "hierarchy.repair_rounds": (calls["hierarchy.select_coarse_faces"]
                                        - c["hierarchy.levels"]),
            "solver.assemble_problem_s": total["solver.assemble_problem"],
            "solver.vcycle_setup_s": total["solver.vcycle_setup"],
            "solver.fgmres_self_s": self_t["solver.fgmres"],
            "solver.vcycles": calls["solver.vcycle"],
            "solver.vcycle_s": total["solver.vcycle"],
            "solver.smooth_s": prefixed(total, "solver.smooth."),
            "solver.smooth_calls": prefixed(calls, "solver.smooth."),
            "solver.coarse_lu_s": total["solver.coarse_lu"],
            "solver.transfer_s": self_t["solver.vcycle"],
            "trace.wall_s": wall_s,
            "trace.setup_solve_s": (total["hierarchy.build_hierarchy"]
                                    + total["solver.vcycle_setup"] + total["solver.fgmres"]),
            "trace.overhead_s": overhead_s,
        }
        for alg in ALGORITHMS:
            values[f"agglomerate.coarsen_s.{alg}"] = self_t[f"agglomerate.coarsen.{alg}"]
        for fn in HIERARCHY_STAGES:
            values[f"hierarchy.{fn}_s"] = total[f"hierarchy.{fn}"]
        for lv in STEP_LEVELS:
            values[f"hierarchy.step_s.{lv}"] = self.steps[lv]
        for lv in SMOOTH_LEVELS:
            values[f"solver.smooth_s.{lv}"] = total[f"solver.smooth.{lv}"]

        out = {}
        for name, unit, needs in METRICS:
            if any(n in self.missing for n in needs):
                out[name] = {"value": None, "unit": unit}
            else:
                value = values[name] if name in values else c[name]
                out[name] = {"value": value, "unit": unit}
        return out
