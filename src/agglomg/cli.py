"""Command-line front end: coarsen, sweep, solve, and export subcommands."""
from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import mesh_io
from .agglomerate import ALGORITHMS, SIZE_BASED, CoarsenConfig, agglomerate_stats
from .hierarchy import StopRule, build_hierarchy, grid_complexity, level_schedule
from .mesh import generate_mesh, mesh_metrics
from .solver import ProblemSpec, solve_problem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2


def _build_parser():
    p = argparse.ArgumentParser(
        prog="agglomg",
        description="Element agglomeration, multigrid hierarchies, and model solves")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("coarsen", "build a hierarchy and print per-level statistics"),
            ("sweep", "run size sweeps over one or more algorithms"),
            ("solve", "solve a model problem with the multigrid preconditioner"),
            ("export", "write a VTK file with per-level agglomerate ids")):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--mesh", help="MSH 2.2 file to read")
        q.add_argument("--gen-2d", type=int, metavar="N",
                       help="generate a jittered 2D mesh with N subdivisions")
        q.add_argument("--gen-3d", type=int, metavar="N",
                       help="generate a jittered 3D mesh with N subdivisions")
        q.add_argument("--jitter", type=float, default=0.2,
                       help="generator jitter as a fraction of the cell (default 0.2)")
        q.add_argument("--alg", default="sizebased", help="coarsening algorithm: "
                       + "|".join(ALGORITHMS))
        q.add_argument("--size", default=None,
                       help="desired top-grid agglomerate size (comma list for sweep)")
        q.add_argument("--lower-size", type=int, default=None,
                       help="desired size on lower grids")
        q.add_argument("--seed", type=int, default=0, help="64-bit seed")
        q.add_argument("--problem", choices=("diffuse", "absorbing"),
                       default="diffuse")
        q.add_argument("--csv", help="CSV output path (sweep)")
        q.add_argument("--vtk", help="VTK output path")
        q.add_argument("--json", help="JSON report path (solve)")
        q.add_argument("--jobs", type=int, default=1,
                       help="concurrent sweep configurations")
        q.add_argument("--config", help="key=value config file; flags win")
        q.add_argument("--stop-nodes", type=int, default=None,
                       help="stop coarsening at this many nodes")
        q.add_argument("--max-levels", type=int, default=None)
        q.add_argument("--solve", action="store_true",
                       help="also solve in each sweep configuration")
    return p


# config-file value types for options that default to None
_KEY_TYPES = {
    "gen_2d": int, "gen_3d": int, "seed": int, "jobs": int, "lower_size": int,
    "stop_nodes": int, "max_levels": int, "jitter": float, "solve": bool,
}


def _apply_config_file(args, parser):
    if not args.config:
        return args
    overrides = {}
    try:
        with open(args.config) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, val = line.split("=", 1)
                overrides[key.strip().replace("-", "_")] = val.strip()
    except OSError as err:
        parser.error(f"cannot read config file: {err}")
    # command-line flags win over file values
    defaults = parser.parse_args([args.command]).__dict__
    for key, val in overrides.items():
        if key not in args.__dict__:
            raise SystemExit(f"unknown config key {key!r}")
        if getattr(args, key) == defaults.get(key):
            coerce = _KEY_TYPES.get(key, str)
            if coerce is bool:
                setattr(args, key, val.lower() in ("1", "true", "yes"))
            else:
                setattr(args, key, coerce(val))
    return args


def _echo_config(args):
    skip = {"command", "config"}
    print(f"# command={args.command}")
    for key in sorted(vars(args)):
        if key in skip:
            continue
        print(f"# {key.replace('_', '-')}={getattr(args, key)}")


def _load_mesh(args):
    sources = [s for s in (args.mesh, args.gen_2d, args.gen_3d) if s is not None]
    if len(sources) != 1:
        raise SystemExit("exactly one of --mesh, --gen-2d, --gen-3d is required")
    if args.mesh is not None:
        return mesh_io.read_msh(args.mesh)
    if args.gen_2d is not None:
        return generate_mesh(2, args.gen_2d, jitter=args.jitter, seed=args.seed)
    return generate_mesh(3, args.gen_3d, jitter=args.jitter, seed=args.seed)


def _parse_sizes(args):
    if args.size is None:
        return [None]
    return [int(tok) for tok in str(args.size).split(",") if tok]


def _make_config(args, size):
    alg = args.alg
    if alg not in ALGORITHMS:
        raise SystemExit(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")
    if size is not None and alg not in SIZE_BASED:
        print(f"warning: --size is ignored by the {alg} algorithm", file=sys.stderr)
    if alg in SIZE_BASED and size is None:
        size = 24  # only satisfies validate: level_schedule sets the top size
    return CoarsenConfig(algorithm=alg, desired_size=size, seed=args.seed)


def _stop(args):
    kwargs = {}
    if args.stop_nodes is not None:
        kwargs["coarse_nodes"] = args.stop_nodes
    if args.max_levels is not None:
        kwargs["max_levels"] = args.max_levels
    return StopRule(**kwargs)


def cmd_coarsen(args) -> int:
    mesh = _load_mesh(args)
    sizes = _parse_sizes(args)
    size = sizes[0]
    config = _make_config(args, size)
    schedule = level_schedule(mesh.dim, top=size, lower=args.lower_size)
    hier = build_hierarchy(mesh, config, schedule=schedule, stop=_stop(args))
    print(f"{'level':>5} {'elements':>9} {'nodes':>8} {'coarse faces':>13} "
          f"{'avg agg size':>13} {'grid cx':>8}")
    counts = hier.node_counts
    print(f"{0:>5} {mesh.n_elements:>9} {counts[0]:>8} {'-':>13} {'-':>13} {1.0:>8.3f}")
    topo = hier.fine_topology
    running = counts[0]
    for k, lvl in enumerate(hier.levels, start=1):
        running += counts[k]
        stats = agglomerate_stats(topo, lvl.agglomeration)
        print(f"{k:>5} {lvl.topology.n_elements:>9} {counts[k]:>8} "
              f"{lvl.coarse_faces.n_faces:>13} {stats.average_size:>13.2f} "
              f"{running / counts[0]:>8.3f}")
        topo = lvl.topology
    if args.vtk:
        mesh_io.write_vtk(args.vtk, mesh, [l.agglomeration for l in hier.levels])
        print(f"wrote {args.vtk}")
    return EXIT_OK


def _sweep_one(payload):
    dim, n, jitter, mesh_path, config, size, lower, problem, do_solve, stop = payload
    alg, seed = config.algorithm, config.seed
    try:
        if mesh_path:
            mesh = mesh_io.read_msh(mesh_path)
        else:
            mesh = generate_mesh(dim, n, jitter=jitter, seed=seed)
        schedule = level_schedule(mesh.dim, top=size, lower=lower)
        if do_solve:
            spec = ProblemSpec(problem)
            x, report, hier = solve_problem(mesh, spec, config,
                                            schedule=schedule, stop=stop)
            iters, solve_t, setup_t = (report.iterations, report.solve_time_s,
                                       report.setup_time_s)
        else:
            t0 = time.perf_counter()
            hier = build_hierarchy(mesh, config, schedule=schedule, stop=stop)
            setup_t = time.perf_counter() - t0
            iters, solve_t = None, None
        if not hier.levels:
            raise RuntimeError("mesh is below the stop threshold; nothing coarsened")
        stats = agglomerate_stats(hier.fine_topology, hier.levels[0].agglomeration)
        metrics = mesh_metrics(hier.levels[0].topology)
        return mesh_io.SweepRecord(
            algorithm=alg,
            desired_size=size if size is not None else -1,
            actual_average_size=stats.average_size,
            grid_complexity=grid_complexity(hier),
            node_element_ratio=metrics.node_element_ratio,
            average_connectivity=metrics.average_connectivity,
            iterations=iters, solve_time_s=solve_t, setup_time_s=setup_t)
    except Exception as err:  # failures become rows, the sweep continues
        return mesh_io.SweepRecord(
            algorithm=alg, desired_size=size if size is not None else -1,
            actual_average_size=float("nan"), grid_complexity=float("nan"),
            node_element_ratio=float("nan"), average_connectivity=float("nan"),
            status=f"failed: {err}")


def cmd_sweep(args) -> int:
    gen_2d = args.gen_2d is not None
    payloads = [
        (2 if gen_2d else 3, args.gen_2d if gen_2d else args.gen_3d, args.jitter,
         args.mesh, _make_config(args, s), s, args.lower_size, args.problem,
         args.solve, _stop(args))
        for s in _parse_sizes(args)
    ]
    if args.jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_sweep_one, payloads))
    else:
        records = [_sweep_one(p) for p in payloads]
    path = args.csv or "sweep.csv"
    mesh_io.write_sweep_csv(path, records)
    print(f"wrote {len(records)} row(s) to {path}")
    for rec in records:
        print(f"  {rec.algorithm} size={rec.desired_size}: "
              f"avg {rec.actual_average_size:.2f} gc {rec.grid_complexity:.3f} "
              f"[{rec.status}]")
    return EXIT_OK


def cmd_solve(args) -> int:
    mesh = _load_mesh(args)
    sizes = _parse_sizes(args)
    size = sizes[0]
    config = _make_config(args, size)
    spec = ProblemSpec(args.problem)
    schedule = level_schedule(mesh.dim, top=size, lower=args.lower_size)
    x, report, hier = solve_problem(mesh, spec, config, schedule=schedule,
                                    stop=_stop(args))
    print(f"problem={report.problem} algorithm={report.algorithm} "
          f"levels={report.levels}")
    print(f"iterations={report.iterations} converged={report.converged}")
    print(f"setup_time_s={report.setup_time_s:.3f} "
          f"solve_time_s={report.solve_time_s:.3f}")
    print(f"final_relative_residual={report.residuals[-1]:.3e}")
    if args.json:
        mesh_io.write_report_json(args.json, report)
        print(f"wrote {args.json}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_export(args) -> int:
    mesh = _load_mesh(args)
    sizes = _parse_sizes(args)
    size = sizes[0]
    config = _make_config(args, size)
    schedule = level_schedule(mesh.dim, top=size, lower=args.lower_size)
    hier = build_hierarchy(mesh, config, schedule=schedule, stop=_stop(args))
    path = args.vtk or "agglomerates.vtk"
    mesh_io.write_vtk(path, mesh, [l.agglomeration for l in hier.levels])
    print(f"wrote {path} with {len(hier.levels)} level array(s)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args = _apply_config_file(args, parser)
    _echo_config(args)
    handlers = {"coarsen": cmd_coarsen, "sweep": cmd_sweep,
                "solve": cmd_solve, "export": cmd_export}
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
