"""agglomg benchmark: one workload per process, one client in a closed loop.

    python3 bench/run.py --workload sweep2d-8k --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --smoke

Run from the repository root. Cases run back to back in a cycle that
repeats for about ``--seconds`` (at least once); each end-to-end time is
the sum over cases of the case's median across its runs.
``--trace 0`` prints the end-to-end metrics with no wrappers installed;
``--trace 1`` wraps the library's public names and prints the per-layer
metrics instead. ``--smoke`` runs all three workloads on tiny meshes in
both modes; it fails if a run is incorrect, if a metric name differs from
BENCHMARK.json, or if a wrapper is missing or never fired. The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""
from __future__ import annotations

import os
import sys

# BLAS/OpenMP pools must be sized before numpy loads: with two threads on a
# two-core machine the first FGMRES call ran several times slower.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import itertools
import json
import platform
import resource
import shutil
import statistics
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, "bench", ".work")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
              ("iterations", "count"), ("grid_complexity", "ratio"),
              ("operator_complexity", "ratio"), ("peak_rss_mb", "MB"))


def import_program():
    """Import agglomg from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "agglomg", "__init__.py")):
        sys.exit(f"error: no agglomg package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import agglomg
    if os.path.dirname(os.path.dirname(os.path.abspath(agglomg.__file__))) != SRC:
        sys.exit(f"error: agglomg imported from {agglomg.__file__}, not {SRC}")


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def speed_probe(repeats=5):
    """Median time of a fixed interpreter-and-numpy kernel, in seconds.

    The program is not involved: the probe shows how fast this machine ran
    when the run started and ended, which explains drift between runs.
    """
    import numpy as np
    data = np.random.default_rng(0).standard_normal(200_000)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        for _ in range(20):
            np.sort(data)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment():
    import numpy
    import scipy
    return {
        "speed_probe_s": speed_probe(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": [round(v, 2) for v in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def case_medians(runs, kind):
    """Sum over the cases of each case's median time across its runs.

    A slow spell of the machine lands in a few runs of a few cases; the
    per-case median leaves it out, where a sum over one cycle would not.
    """
    return sum(statistics.median(r.times[kind] for r in case_runs)
               for case_runs in runs.values() if kind in case_runs[0].times)


def run_workload(name, seed, seconds, trace, n=None):
    """Measure one workload; returns (result line dict, notes, tracer).

    The cases run in a cycle. The first cycle always runs whole; after it a
    case runs only if, at its median length so far, it ends within
    ``seconds``. The traced run stops at cycle boundaries instead, so that
    its per-layer values are per cycle.
    """
    import workloads
    import tracer as tracing

    spec = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(spec, seed, WORK_DIR, n)
    clock = workloads.Clock()
    cycle = workloads.cases(spec, inputs, clock, WORK_DIR)
    runs = {label: [] for label, _ in cycle}
    lengths = {label: [] for label, _ in cycle}
    tr = None
    if trace:
        tr = tracing.Tracer(clock)
        tr.install()
    started = time.perf_counter()
    try:
        for i in itertools.count():
            label, case = cycle[i % len(cycle)]
            if i >= len(cycle) and (not trace or i % len(cycle) == 0):
                ahead = list(lengths) if trace else [label]
                expected = sum(statistics.median(lengths[k]) for k in ahead)
                if time.perf_counter() - started + expected > seconds:
                    break
            t0 = time.perf_counter()
            runs[label].append(case())
            lengths[label].append(time.perf_counter() - t0)
    finally:
        if tr is not None:
            tr.uninstall()

    firsts = [case_runs[0] for case_runs in runs.values()]
    repeatable = all(r.counts() == case_runs[0].counts()
                     for case_runs in runs.values() for r in case_runs)
    notes = [r.note for r in firsts if r.note]
    if not repeatable:
        notes.append("FAILED: counts differ between runs of the same case")
    attempted = sum(len(case_runs) for case_runs in runs.values())
    failed = sum(r.failed for case_runs in runs.values() for r in case_runs)
    cycles = min(len(case_runs) for case_runs in runs.values())

    if tr is None:
        complexities = [c for r in firsts for c in r.complexities]
        values = {
            "wall_s": case_medians(runs, "wall"),
            "setup_s": case_medians(runs, "setup"),
            "solve_s": case_medians(runs, "solve"),
            "iterations": sum(r.iterations for r in firsts),
            # 0 only when no hierarchy was built, and then `correct` is false
            "grid_complexity": statistics.fmean([g for g, _ in complexities] or [0.0]),
            "operator_complexity": statistics.fmean([o for _, o in complexities] or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    else:
        wall = sum(r.times["wall"] for case_runs in runs.values() for r in case_runs)
        metrics = tr.metrics(wall, tr.spans * tr.overhead_per_span())
        for m in metrics.values():  # per cycle; counts repeat exactly
            if m["value"] is not None:
                m["value"] = (m["value"] / cycles if m["unit"] == "s"
                              else m["value"] // cycles)
    notes.append(f"cycles={cycles} case_runs={attempted} failed_share={failed}/{attempted}")
    result = {"correct": failed == 0 and repeatable, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, notes, tr


def smoke():
    """All workloads on tiny meshes, untraced and traced.

    Fails when a run is incorrect, when its metric names differ from
    BENCHMARK.json, when a wrapped name is missing, or when a wrapper never
    fired.
    """
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    ok = True
    called, wrapped = set(), set()
    for name, n in workloads.SMOKE_SIZES.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, notes, tr = run_workload(name, 1, 0, trace, n)
            names_ok = (list(result["metrics"])
                        == [m["name"] for m in declared[key]])
            missing = sorted(k for k, m in result["metrics"].items()
                             if m["value"] is None)
            print(f"{name} trace={int(trace)}: correct={result['correct']} "
                  f"names_match={names_ok} missing={missing}")
            for line in notes:
                print(f"  {line}")
            ok = ok and result["correct"] and names_ok and not missing
            if tr is not None:
                called |= tr.called
                wrapped |= tr.wrapped
    silent = sorted(wrapped - called)
    print(f"wrappers never called: {silent}")
    ok = ok and not silent
    print(json.dumps({"smoke_ok": ok}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    import_program()
    import workloads
    if not args.smoke and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        print("env " + json.dumps(environment()))
        result, notes, _ = run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
        for line in notes:
            print(line)
        print(f"speed_probe_s at end = {speed_probe()}")
        for name, m in result["metrics"].items():
            value = "missing" if m["value"] is None else m["value"]
            print(f"{name} = {value} {m['unit']}")
        print(json.dumps(result))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
