"""Run every script in demos/ end to end; a demo that raises fails its case.

Each demo runs in its own temporary directory, so the VTK, MSH, JSON and
CSV files the demos write stay out of the source tree.
"""
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
