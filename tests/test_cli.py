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

    def test_stop_reason_printed(self, capsys):
        # coarsen builds without an operator, so the density stop that ends
        # the solve's hierarchy does not apply and the levels go deeper
        argv = ["--gen-3d", "6", "--alg", "node"]
        code, out, _ = run(["coarsen"] + argv, capsys)
        assert code == 0
        assert "stop_reason=coarse_nodes" in out
        rows = [r for r in map(str.split, out.splitlines()) if r and r[0].isdigit()]
        assert len(rows) == 4
        code, out, _ = run(["solve"] + argv, capsys)
        assert code == 0
        assert "levels=2 stop_reason=dense" in out

    def test_missing_mesh_file(self, capsys):
        code, _, err = run(["coarsen", "--mesh", "missing.msh", "--alg", "jones"],
                           capsys)
        assert code == 1
        assert "missing.msh" in err

    def test_directory_as_mesh_exits_one(self, tmp_path, capsys):
        # open() raises IsADirectoryError, an OSError
        code, _, err = run(["coarsen", "--mesh", str(tmp_path), "--alg", "jones"], capsys)
        assert code == 1
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_undefined_mesh_node(self, tmp_path, capsys):
        # the file's one triangle names node 4 of 3
        path = tmp_path / "bad.msh"
        path.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n3\n"
                        "1 0.0 0.0 0.0\n2 1.0 0.0 0.0\n3 0.0 1.0 0.0\n$EndNodes\n"
                        "$Elements\n1\n1 2 2 7 1 1 2 4\n$EndElements\n")
        code, _, err = run(["coarsen", "--mesh", str(path), "--alg", "jones"], capsys)
        assert code == 1
        assert "node 4" in err

    def test_non_finite_mesh_coordinate(self, tmp_path, capsys):
        path = tmp_path / "nan.msh"
        path.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n3\n"
                        "1 0.0 0.0 0.0\n2 nan 0.0 0.0\n3 0.0 1.0 0.0\n$EndNodes\n"
                        "$Elements\n1\n1 2 2 7 1 1 2 3\n$EndElements\n")
        code, _, err = run(["coarsen", "--mesh", str(path), "--alg", "jones"], capsys)
        assert code == 1
        assert "'2 nan 0.0 0.0' has a non-finite coordinate" in err

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

    def test_vtk_holds_the_hierarchy_levels(self, tmp_path, capsys):
        # the file is write_vtk of the hierarchy the table prints, byte for byte
        path, want = tmp_path / "levels.vtk", tmp_path / "want.vtk"
        code, _, _ = run(["coarsen", "--gen-3d", "4", "--alg", "kraus", "--seed", "2",
                          "--vtk", str(path)], capsys)
        assert code == 0
        mesh = generate_mesh(3, 4, jitter=0.2, seed=2)
        hier = build_hierarchy(mesh, CoarsenConfig("kraus", seed=2),
                               schedule=level_schedule(3))
        mesh_io.write_vtk(want, mesh, [lvl.agglomeration for lvl in hier.levels])
        assert path.read_bytes() == want.read_bytes()

    def test_single_level_hierarchy_writes_no_arrays(self, tmp_path, capsys):
        # 5x5 mesh has 36 nodes, under the stop threshold: no coarsening
        path = tmp_path / "flat.vtk"
        code, _, _ = run(["coarsen", "--gen-2d", "5", "--alg", "greedy",
                          "--size", "4", "--vtk", str(path)], capsys)
        assert code == 0
        arrays = mesh_io.read_vtk_cell_data(path)
        assert arrays == {}

    def test_vtk_one_array_per_level(self, tmp_path, capsys):
        path = tmp_path / "levels.vtk"
        code, out, _ = run(["coarsen", "--gen-2d", "16", "--alg", "sizebased",
                            "--size", "8", "--seed", "2", "--vtk", str(path)],
                           capsys)
        assert code == 0
        rows = [r for r in map(str.split, out.splitlines()) if r and r[0].isdigit()]
        arrays = mesh_io.read_vtk_cell_data(path)
        assert len(arrays) == len(rows) - 1 >= 2
        for ids in arrays.values():
            uniq = np.unique(ids)
            assert uniq[0] == 0 and uniq[-1] == len(uniq) - 1


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

    @pytest.mark.parametrize("source,size", [(["--gen-2d", "16"], 24),
                                             (["--gen-3d", "3"], 168)], ids=["2d", "3d"])
    def test_no_size_row_records_schedule_top(self, tmp_path, capsys, source, size):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "--alg", "sizebased", "--csv", str(path)] + source,
                         capsys)
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert [r["desired_size"] for r in rows] == [str(size)]

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

    def test_failed_row_recorded(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "fail.csv"
        build = cli.build_hierarchy

        def fail_at_size_1000(mesh, config, schedule, stop):
            if schedule.top == 1000:
                raise RuntimeError("build failed")
            return build(mesh, config, schedule=schedule, stop=stop)

        # a row whose build raises fails its own row, not the sweep
        monkeypatch.setattr(cli, "build_hierarchy", fail_at_size_1000)
        code, _, _ = run(["sweep", "--gen-2d", "16", "--alg", "sizebased",
                          "--size", "4,1000", "--jobs", "1", "--csv", str(path)], capsys)
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 2
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "failed: build failed"

    @pytest.mark.parametrize("sizes", [["--size", "4,1"], ["--lower-size", "1"]],
                             ids=["size", "lower"])
    def test_size_below_two_exits_one(self, tmp_path, capsys, sizes):
        # a size below 2 used to fail only its own row, and the sweep exited 0
        path = tmp_path / "sweep.csv"
        code, out, err = run(["sweep", "--gen-2d", "4", "--alg", "greedy", "--csv",
                              str(path)] + sizes, capsys)
        assert code == 1
        assert "agglomerate sizes must be >= 2" in err
        assert "wrote" not in out and not path.exists()


    @pytest.mark.parametrize("size", [",", "4,,8"])
    def test_empty_size_entry_exits_one(self, tmp_path, capsys, size):
        # an empty entry used to be dropped: "," ran no row and exited 0
        path = tmp_path / "sweep.csv"
        code, out, err = run(["sweep", "--gen-2d", "4", "--alg", "greedy",
                              "--size", size, "--csv", str(path)], capsys)
        assert code == 1
        assert f"--size '{size}': the size list has an empty entry" in err
        assert "wrote" not in out and not path.exists()

    @pytest.mark.parametrize("sources", [[], ["--gen-2d", "8", "--gen-3d", "4"]],
                             ids=["none", "two"])
    def test_exactly_one_mesh_source(self, sources, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit, match="exactly one of --mesh"):
            run(["sweep", "--alg", "jones", "--csv", str(path)] + sources, capsys)
        assert not path.exists()


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


class TestExitCodes:
    @pytest.mark.parametrize("command,flag,value", [
        ("coarsen", "--json", "r.json"), ("coarsen", "--csv", "s.csv"),
        ("coarsen", "--problem", "absorbing"), ("coarsen", "--jobs", "2"),
        ("solve", "--vtk", "x.vtk"), ("solve", "--csv", "s.csv"), ("solve", "--jobs", "4"),
        ("sweep", "--vtk", "x.vtk"), ("sweep", "--json", "r.json")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unread_flag_exits_two(self, tmp_path, capsys, command, flag, value, source):
        # a flag the subcommand would drop is rejected before anything runs
        argv = [command, "--gen-2d", "8", "--alg", "greedy", "--size", "4"]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag[2:]}={value}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += [flag, value]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["coarsen", "solve"])
    @pytest.mark.parametrize("value", ["true", "false"])
    def test_solve_key_outside_sweep_exits_two(self, tmp_path, capsys, command, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"solve={value}\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--gen-2d", "8", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --solve" in capsys.readouterr().err

    def test_export_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["export", "--gen-2d", "8", "--vtk", "x.vtk"])
        assert exc.value.code == 2
        assert "invalid choice: 'export'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["coarsen", "solve"])
    def test_size_list_outside_sweep_exits_one(self, capsys, command):
        code, out, err = run([command, "--gen-2d", "16", "--alg", "greedy",
                              "--size", "4,24"], capsys)
        assert code == 1
        assert "a size list is for sweep" in err
        assert "grid cx" not in out and "iterations=" not in out

    @pytest.mark.parametrize("flag", ["--gen-2d", "--gen-3d"])
    def test_zero_subdivisions_exit_one(self, capsys, flag):
        code, _, err = run(["coarsen", flag, "0", "--alg", "jones"], capsys)
        assert code == 1
        assert "n must be >= 1" in err

    @pytest.mark.parametrize("flag,value", [("--max-levels", "0"), ("--max-levels", "-3"),
                                            ("--stop-nodes", "-1")])
    def test_stop_rule_out_of_range_exits_one(self, capsys, flag, value):
        # a level cap below one or a negative node threshold is an input error,
        # not a fine-only hierarchy
        code, out, err = run(["coarsen", "--gen-2d", "8", "--alg", "node", flag, value],
                             capsys)
        assert code == 1
        assert err.startswith("error: StopRule(") and f"={value}" in err
        assert "must be >= 0 and max_levels >= 1" in err
        assert "stop_reason" not in out

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        # the generator and the coarsening seed both name the seed
        code, out, err = run(["coarsen", "--gen-2d", "8", "--alg", "rgb", "--seed", "-1"],
                             capsys)
        assert (code, err) == (1, "error: seed must be >= 0, got -1\n")
        path = tmp_path / "pair.msh"
        path.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n4\n"
                        "1 0.0 0.0 0.0\n2 1.0 0.0 0.0\n3 1.0 1.0 0.0\n4 0.0 1.0 0.0\n"
                        "$EndNodes\n$Elements\n2\n1 2 2 1 1 1 2 3\n2 2 2 1 1 1 3 4\n"
                        "$EndElements\n")
        code, out, err = run(["coarsen", "--mesh", str(path), "--alg", "rgb",
                              "--seed", "-1"], capsys)
        assert (code, err) == (1, "error: seed must be >= 0, got -1\n")
        assert "stop_reason" not in out

    @pytest.mark.parametrize("flag", ["--size", "--lower-size"])
    def test_size_below_two_exit_one(self, capsys, flag):
        # a size of 0 is an error, not a request for the default size
        code, out, err = run(["coarsen", "--gen-2d", "16", "--alg", "greedy",
                              "--size", "8", flag, "0"], capsys)
        assert code == 1
        assert "agglomerate sizes must be >= 2" in err
        assert "grid cx" not in out

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


class TestJobsBounds:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace the process pool by a recorder of the worker counts
        asked for, which maps in this process."""
        made = []

        class Recorder:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
        return made

    @pytest.mark.parametrize("jobs,sizes,want", [
        ("5000", "4,8", [2]), ("2", "4,8,12", [2]), ("8", "4", [])])
    def test_workers_capped_at_rows(self, tmp_path, capsys, pools, jobs, sizes, want):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(["sweep", "--gen-2d", "8", "--alg", "greedy", "--size", sizes,
                            "--jobs", jobs, "--csv", str(path)], capsys)
        assert code == 0
        assert pools == want
        assert len(list(csv.DictReader(path.open()))) == len(sizes.split(","))

    @pytest.mark.parametrize("source", ["flag-0", "flag-negative", "config-0"])
    def test_jobs_below_one_exit_one(self, tmp_path, capsys, pools, source):
        path = tmp_path / "sweep.csv"
        argv = ["sweep", "--gen-2d", "8", "--alg", "greedy", "--size", "4,8",
                "--csv", str(path)]
        if source == "config-0":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("jobs=0\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--jobs", "0" if source == "flag-0" else "-3"]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "--jobs must be at least 1" in err
        assert pools == [] and not path.exists()


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

    def test_flag_equal_to_default_wins(self, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("seed=5\n")
        code, out, _ = run(["coarsen", "--gen-2d", "4", "--alg", "node", "--seed", "0",
                            "--config", str(cfg)], capsys)
        assert code == 0
        assert "# seed=0" in out and "# seed=5" not in out

    def test_underscore_keys_and_solve_flag(self, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("gen_2d=8\nalg=greedy\nsize=4\nsolve=true\n")
        path = tmp_path / "sweep.csv"
        code, out, _ = run(["sweep", "--config", str(cfg), "--csv", str(path)], capsys)
        assert code == 0
        assert "# gen-2d=8" in out and "# solve=True" in out
        (row,) = csv.DictReader(path.open())
        assert row["status"] == "ok" and int(row["iterations"]) > 0

    @pytest.mark.parametrize("line,message", [
        ("jitter=abc", "invalid float value: 'abc'"),
        ("solve=maybe", "solve takes true or false"),
        ("gen-2d", "bad config line"),
    ])
    def test_malformed_value_is_a_usage_error(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--gen-2d", "4", "--config", str(cfg)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        with pytest.raises(SystemExit):
            cli.main(["coarsen", "--config", str(cfg), "--gen-2d", "8"])

    def test_key_prefix_rejected(self, tmp_path, capsys):
        # "si" is a prefix of "size", not a key
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("si=6\n")
        with pytest.raises(SystemExit):
            cli.main(["coarsen", "--config", str(cfg), "--gen-2d", "8"])
        assert "unrecognized arguments: --si=6" in capsys.readouterr().err
