import csv
import json

import numpy as np
import pytest

from agglomg import cli, mesh_io
from agglomg.agglomerate import CoarsenConfig
from agglomg.hierarchy import StopRule, build_hierarchy, grid_complexity, level_schedule
from agglomg.mesh import generate_mesh


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCoarsen:
    def test_table_and_config_echo(self, capsys):
        code, out, _ = run(["coarsen", "--gen-2d", "12", "--alg", "sizebased",
                            "--size", "8", "--seed", "1"], capsys)
        assert code == 0
        assert "# command=coarsen" in out
        assert "# seed=1" in out
        assert "grid cx" in out
        # the coarse-faces column counts each interface once: one coarse
        # face per face of the coarse level
        rows = [r for r in map(str.split, out.splitlines()) if r and r[0].isdigit()]
        hier = build_hierarchy(generate_mesh(2, 12, jitter=0.2, seed=1),
                               CoarsenConfig("sizebased", desired_size=8, seed=1),
                               schedule=level_schedule(2, top=8))
        assert [int(r[3]) for r in rows[1:]] == [
            lvl.topology.faces.n_faces for lvl in hier.levels]

    def test_missing_mesh_file(self, capsys):
        code, _, err = run(["coarsen", "--mesh", "missing.msh", "--alg", "jones"],
                           capsys)
        assert code == 1
        assert "missing.msh" in err

    def test_size_ignored_warning(self, capsys):
        code, _, err = run(["coarsen", "--gen-2d", "8", "--alg", "jones",
                            "--size", "24"], capsys)
        assert code == 0
        assert "ignored" in err

    def test_vtk_output(self, tmp_path, capsys):
        path = tmp_path / "out.vtk"
        code, _, _ = run(["coarsen", "--gen-2d", "8", "--alg", "greedy",
                          "--size", "4", "--vtk", str(path)], capsys)
        assert code == 0
        arrays = mesh_io.read_vtk_cell_data(path)
        assert len(arrays) >= 1
        for ids in arrays.values():
            assert len(ids) == 2 * 8 * 8


class TestSweep:
    def test_rows_and_decreasing_complexity(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(["sweep", "--gen-2d", "24", "--alg", "sizebased",
                            "--size", "4,24,100", "--seed", "1",
                            "--csv", str(path)], capsys)
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 3
        gcs = [float(r["grid_complexity"]) for r in rows]
        assert gcs[0] > gcs[1] > gcs[2]

    def test_no_size_runs_one_default_row(self, tmp_path, capsys):
        # without --size a sweep runs the one configuration that coarsen
        # and solve run: the level schedule's default sizes
        mesh = generate_mesh(2, 8, jitter=0.2, seed=0)
        for alg in ("jones", "sizebased"):
            path = tmp_path / f"{alg}.csv"
            code, out, _ = run(["sweep", "--gen-2d", "8", "--alg", alg,
                                "--csv", str(path)], capsys)
            assert code == 0
            assert "wrote 1 row(s)" in out
            rows = list(csv.DictReader(path.open()))
            assert [r["status"] for r in rows] == ["ok"]
            size = 24 if alg == "sizebased" else None
            hier = build_hierarchy(mesh, CoarsenConfig(alg, desired_size=size),
                                   schedule=level_schedule(2))
            assert float(rows[0]["grid_complexity"]) == grid_complexity(hier)

    def test_determinism_modulo_timing(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--gen-2d", "16", "--alg", "greedy", "--size", "4,8",
                "--seed", "3"]
        assert run(argv + ["--csv", str(a)], capsys)[0] == 0
        assert run(argv + ["--csv", str(b)], capsys)[0] == 0
        ra = list(csv.DictReader(a.open()))
        rb = list(csv.DictReader(b.open()))
        drop = ("solve_time_s", "setup_time_s")
        for x, y in zip(ra, rb):
            assert {k: v for k, v in x.items() if k not in drop} == \
                {k: v for k, v in y.items() if k not in drop}

    def test_failed_row_recorded(self, tmp_path, capsys):
        path = tmp_path / "fail.csv"
        # desired size larger than the mesh forces a per-row failure
        code, _, _ = run(["sweep", "--gen-2d", "16", "--alg", "sizebased",
                          "--size", "4,1000", "--csv", str(path)], capsys)
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 2
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("failed")


class TestSolve:
    def test_converged_json_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run(["solve", "--gen-2d", "24", "--problem", "diffuse",
                            "--alg", "sizebased", "--size", "24", "--seed", "1",
                            "--json", str(path)], capsys)
        assert code == 0
        assert "converged=True" in out
        data = json.loads(path.read_text())
        assert data["converged"] is True
        assert len(data["residuals"]) == data["iterations"] + 1

    def test_absorbing_converges(self, capsys):
        code, out, _ = run(["solve", "--gen-2d", "24", "--problem", "absorbing",
                            "--alg", "sizebased", "--size", "24", "--seed", "1"],
                           capsys)
        assert code == 0
        assert "converged=True" in out


class TestExport:
    def test_single_level_hierarchy_exports_no_arrays(self, tmp_path, capsys):
        # 5x5 mesh has 36 nodes, under the stop threshold: no coarsening
        path = tmp_path / "flat.vtk"
        code, _, _ = run(["export", "--gen-2d", "5", "--alg", "greedy",
                          "--size", "4", "--vtk", str(path)], capsys)
        assert code == 0
        arrays = mesh_io.read_vtk_cell_data(path)
        assert arrays == {}

    def test_export_levels(self, tmp_path, capsys):
        path = tmp_path / "levels.vtk"
        code, _, _ = run(["export", "--gen-2d", "16", "--alg", "sizebased",
                          "--size", "8", "--seed", "2", "--vtk", str(path)],
                         capsys)
        assert code == 0
        arrays = mesh_io.read_vtk_cell_data(path)
        assert len(arrays) >= 2
        for name, ids in arrays.items():
            uniq = np.unique(ids)
            assert uniq[0] == 0 and uniq[-1] == len(uniq) - 1


class TestExitCodes:
    @pytest.mark.parametrize("flag", ["--gen-2d", "--gen-3d"])
    def test_zero_subdivisions_exit_one(self, capsys, flag):
        code, _, err = run(["coarsen", flag, "0", "--alg", "jones"], capsys)
        assert code == 1
        assert "n must be >= 1" in err

    def test_non_convergence_exits_two(self, capsys, monkeypatch):
        from agglomg.solver import SolveReport

        def fake_solve(mesh, spec, config, **kw):
            report = SolveReport(iterations=500, residuals=[1.0, 0.5],
                                 setup_time_s=0.0, solve_time_s=0.0,
                                 converged=False, problem=spec.kind,
                                 algorithm=config.algorithm, levels=2)
            return None, report, None

        monkeypatch.setattr(cli, "solve_problem", fake_solve)
        code, out, _ = run(["solve", "--gen-2d", "8", "--alg", "greedy",
                            "--size", "4"], capsys)
        assert code == 2
        assert "converged=False" in out


class TestJobs:
    def test_parallel_sweep_matches_serial(self, tmp_path, capsys):
        argv = ["sweep", "--gen-2d", "12", "--alg", "sizebased",
                "--size", "4,8", "--seed", "2"]
        a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
        assert run(argv + ["--csv", str(a)], capsys)[0] == 0
        assert run(argv + ["--csv", str(b), "--jobs", "2"], capsys)[0] == 0
        ra = list(csv.DictReader(a.open()))
        rb = list(csv.DictReader(b.open()))
        drop = ("solve_time_s", "setup_time_s")
        for x, y in zip(ra, rb):
            assert {k: v for k, v in x.items() if k not in drop} == \
                {k: v for k, v in y.items() if k not in drop}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("flag,value,stop", [
        ("--stop-nodes", "100", StopRule(coarse_nodes=100)),
        ("--max-levels", "2", StopRule(max_levels=2))], ids=["stop-nodes", "max-levels"])
    def test_stop_flags_honoured(self, tmp_path, capsys, jobs, flag, value, stop):
        # each flag drops levels the default stop rule keeps, in the worker
        # processes as well as in the serial loop
        path = tmp_path / "stop.csv"
        argv = ["sweep", "--gen-2d", "16", "--alg", "greedy", "--size", "4,8",
                "--seed", "3", flag, value, "--jobs", jobs, "--csv", str(path)]
        assert run(argv, capsys)[0] == 0
        rows = list(csv.DictReader(path.open()))
        mesh = generate_mesh(2, 16, jitter=0.2, seed=3)
        for row, size in zip(rows, (4, 8)):
            config = CoarsenConfig("greedy", desired_size=size, seed=3)
            schedule = level_schedule(2, top=size)
            expected = build_hierarchy(mesh, config, schedule=schedule, stop=stop)
            default = build_hierarchy(mesh, config, schedule=schedule)
            assert expected.n_levels < default.n_levels
            assert float(row["grid_complexity"]) == grid_complexity(expected)


class TestConfigFile:
    def test_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen-2d=12\nalg=greedy\nsize=4\nseed=5\n")
        code, out, _ = run(["coarsen", "--config", str(cfg)], capsys)
        assert code == 0
        assert "# alg=greedy" in out
        assert "# seed=5" in out

    def test_echo_reproduces_run(self, tmp_path, capsys):
        # the printed config echo, fed back as a config file, reproduces
        # the run byte for byte
        code, out, _ = run(["coarsen", "--gen-2d", "10", "--alg", "sizebased",
                            "--size", "8", "--seed", "4"], capsys)
        assert code == 0
        lines = []
        for ln in out.splitlines():
            if not ln.startswith("# ") or ln.startswith("# command"):
                continue
            key, val = ln[2:].split("=", 1)
            if val not in ("None", "False"):
                lines.append(f"{key}={val}")
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code2, out2, _ = run(["coarsen", "--config", str(cfg)], capsys)
        assert code2 == 0
        table = out.split("level")[-1]
        table2 = out2.split("level")[-1]
        assert table == table2

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen-2d=12\nalg=greedy\nsize=4\nseed=5\n")
        code, out, _ = run(["coarsen", "--config", str(cfg), "--seed", "9"],
                           capsys)
        assert code == 0
        assert "# seed=9" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        with pytest.raises(SystemExit):
            cli.main(["coarsen", "--config", str(cfg), "--gen-2d", "8"])
