"""The benchmark's traced smoke run still finds every name it wraps.

``bench/run.py --smoke`` runs each workload on tiny meshes with and without
the per-layer wrappers; it fails when a wrapped library name is missing or
never called, so a refactor that renames or bypasses one shows up here.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_run():
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert lines and lines[-1] == '{"smoke_ok": true}', proc.stdout[-2000:]
