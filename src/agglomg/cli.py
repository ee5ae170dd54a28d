"""Command-line front end: coarsen, sweep and solve subcommands."""
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mesh", help="MSH 2.2 file to read")
    common.add_argument("--gen-2d", type=int, metavar="N",
                        help="generate a jittered 2D mesh with N subdivisions")
    common.add_argument("--gen-3d", type=int, metavar="N",
                        help="generate a jittered 3D mesh with N subdivisions")
    common.add_argument("--jitter", type=float, default=0.2,
                        help="generator jitter as a fraction of the cell (default 0.2)")
    common.add_argument("--alg", default="sizebased", help="coarsening algorithm: "
                        + "|".join(ALGORITHMS))
    common.add_argument("--size", default=None,
                        help="desired top-grid agglomerate size (comma list for sweep)")
    common.add_argument("--lower-size", type=int, default=None,
                        help="desired size on lower grids")
    common.add_argument("--seed", type=int, default=0, help="64-bit seed")
    common.add_argument("--config", help="key=value config file; flags win")
    common.add_argument("--stop-nodes", type=int, default=None,
                        help="stop coarsening at this many nodes")
    common.add_argument("--max-levels", type=int, default=None)
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--problem", choices=("diffuse", "absorbing"),
                         default="diffuse")

    def command(name, help_text, *parents):
        # no prefix matching: a config key or flag must be spelt in full
        return sub.add_parser(name, help=help_text, parents=[common, *parents],
                              allow_abbrev=False)

    q = command("coarsen", "build a hierarchy and print per-level statistics")
    q.add_argument("--vtk", help="VTK output path, one agglomerate-id array per level")
    q = command("solve", "solve a model problem with the multigrid preconditioner",
                problem)
    q.add_argument("--json", help="JSON report path")
    q = command("sweep", "run size sweeps over one or more algorithms", problem)
    q.add_argument("--csv", help="CSV output path")
    q.add_argument("--jobs", type=int, default=1,
                   help="concurrent sweep configurations")
    q.add_argument("--solve", action="store_true",
                   help="also solve in each sweep configuration")
    return p


def _parse_args(parser, argv):
    """Parse ``argv``; a ``--config`` file's ``key=value`` lines count as
    ``--key=value`` flags placed before the command line's own, so a
    command-line flag wins over the file, and a bad key or value, or one
    the subcommand does not read, is a usage error."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            lines = [line.strip() for line in fh]
    except OSError as err:
        parser.error(f"cannot read config file: {err}")
    file_args = []
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"bad config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        # a solve key is a store-true flag where the subcommand reads it
        if flag != "--solve" or not hasattr(args, "solve"):
            file_args.append(f"{flag}={val}")
        elif val.lower() in ("1", "true", "yes"):
            file_args.append(flag)
        elif val.lower() not in ("0", "false", "no"):
            parser.error(f"config key solve takes true or false, got {val!r}")
    return parser.parse_args([args.command] + file_args + argv[1:])


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


def _make_config(args, size):
    alg = args.alg
    if alg not in ALGORITHMS:
        raise SystemExit(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")
    if size is not None and alg not in SIZE_BASED:
        print(f"warning: --size is ignored by the {alg} algorithm", file=sys.stderr)
    return CoarsenConfig(algorithm=alg, seed=args.seed)


def _stop(args):
    kwargs = {}
    if args.stop_nodes is not None:
        kwargs["coarse_nodes"] = args.stop_nodes
    if args.max_levels is not None:
        kwargs["max_levels"] = args.max_levels
    return StopRule(**kwargs)


def _setup(args):
    """The mesh, coarsening config, level schedule and stop rule of a
    coarsen or solve run."""
    if args.size is not None and "," in args.size:
        raise ValueError(f"--size {args.size}: a size list is for sweep; "
                         f"{args.command} takes one size")
    size = None if args.size is None else int(args.size)
    mesh = _load_mesh(args)
    config = _make_config(args, size)
    schedule = level_schedule(mesh.dim, top=size, lower=args.lower_size)
    return mesh, config, schedule, _stop(args)


def cmd_coarsen(args) -> int:
    mesh, config, schedule, stop = _setup(args)
    hier = build_hierarchy(mesh, config, schedule=schedule, stop=stop)
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
    print(f"stop_reason={hier.stop_reason}")
    if args.vtk:
        mesh_io.write_vtk(args.vtk, mesh, [l.agglomeration for l in hier.levels])
        print(f"wrote {args.vtk}")
    return EXIT_OK


def _sweep_one(payload):
    mesh, config, schedule, problem, do_solve, stop = payload
    alg, top = config.algorithm, schedule.top
    try:
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
            desired_size=top,
            actual_average_size=stats.average_size,
            grid_complexity=grid_complexity(hier),
            node_element_ratio=metrics.node_element_ratio,
            average_connectivity=metrics.average_connectivity,
            iterations=iters, solve_time_s=solve_t, setup_time_s=setup_t)
    except Exception as err:  # failures become rows, the sweep continues
        return mesh_io.SweepRecord(
            algorithm=alg, desired_size=top,
            actual_average_size=float("nan"), grid_complexity=float("nan"),
            node_element_ratio=float("nan"), average_connectivity=float("nan"),
            status=f"failed: {err}")


def _size_list(text):
    """The sizes of a sweep's comma list; an empty entry is an error, not
    a row fewer."""
    tokens = text.split(",")
    if not all(t.strip() for t in tokens):
        raise ValueError(f"--size {text!r}: the size list has an empty entry")
    return [int(t) for t in tokens]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    sizes = [None] if args.size is None else _size_list(args.size)
    mesh = _load_mesh(args)
    # every size is checked before any row runs; a row run without a size
    # is built at the schedule's top size
    payloads = [(mesh, _make_config(args, s),
                 level_schedule(mesh.dim, top=s, lower=args.lower_size), args.problem,
                 args.solve, _stop(args))
                for s in sizes]
    # the pool starts all its workers at once: no more than there are rows
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    mesh, config, schedule, stop = _setup(args)
    x, report, hier = solve_problem(mesh, ProblemSpec(args.problem), config,
                                    schedule=schedule, stop=stop)
    print(f"problem={report.problem} algorithm={report.algorithm} "
          f"levels={report.levels} stop_reason={report.meta.get('stop_reason')}")
    print(f"iterations={report.iterations} converged={report.converged}")
    print(f"setup_time_s={report.setup_time_s:.3f} "
          f"solve_time_s={report.solve_time_s:.3f}")
    print(f"final_relative_residual={report.residuals[-1]:.3e}")
    if args.json:
        mesh_io.write_report_json(args.json, report)
        print(f"wrote {args.json}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def main(argv=None) -> int:
    parser = _build_parser()
    args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
    _echo_config(args)
    handlers = {"coarsen": cmd_coarsen, "sweep": cmd_sweep, "solve": cmd_solve}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
