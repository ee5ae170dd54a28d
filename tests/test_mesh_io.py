import json

import numpy as np
import pytest

from agglomg import mesh_io
from agglomg.agglomerate import Agglomeration, CoarsenConfig
from agglomg.mesh import generate_mesh
from agglomg.mesh_io import MshFormatError, SweepRecord, read_msh
from agglomg.solver import ProblemSpec, SolveReport, solve_problem

MSH_ONE_TRIANGLE = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
1 0.0 0.0 0.0
2 1.0 0.0 0.0
3 0.0 1.0 0.0
$EndNodes
$Elements
1
1 2 2 7 1 1 2 3
$EndElements
"""

MSH_TET_WITH_BOUNDARY = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0.0 0.0 0.0
2 1.0 0.0 0.0
3 0.0 1.0 0.0
4 0.0 0.0 1.0
$EndNodes
$Elements
2
1 4 2 3 1 1 2 3 4
2 2 2 9 2 1 2 3
$EndElements
"""

MSH_2D_WITH_LINES = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
1 0.0 0.0 0.0
2 1.0 0.0 0.0
3 0.0 1.0 0.0
$EndNodes
$Elements
2
1 2 2 7 1 1 2 3
2 1 2 5 1 1 2
$EndElements
"""

MSH_MIXED_DIM = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
5
1 0.0 0.0 0.0
2 1.0 0.0 0.0
3 0.0 1.0 0.0
4 0.0 0.0 1.0
5 3.0 3.0 0.0
$EndNodes
$Elements
2
1 4 2 3 1 1 2 3 4
2 2 2 9 2 1 2 5
$EndElements
"""


class TestReadMsh:
    def test_one_triangle(self, tmp_path):
        path = tmp_path / "tri.msh"
        path.write_text(MSH_ONE_TRIANGLE)
        mesh = read_msh(path)
        assert mesh.dim == 2
        assert mesh.n_elements == 1
        assert mesh.n_nodes == 3
        assert mesh.material_id[0] == 7
        # declared counts match
        assert mesh.n_nodes == 3 and mesh.n_elements == 1

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "new.msh"
        path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        with pytest.raises(MshFormatError, match="4.1"):
            read_msh(path)

    def test_tet_with_tagged_boundary(self, tmp_path):
        path = tmp_path / "tet.msh"
        path.write_text(MSH_TET_WITH_BOUNDARY)
        mesh = read_msh(path)
        assert mesh.dim == 3
        assert mesh.n_elements == 1
        assert len(mesh.boundary_tag) == 1
        assert mesh.boundary_tag[(0, 1, 2)] == 9

    def test_2d_line_boundary_tags(self, tmp_path):
        path = tmp_path / "tri_lines.msh"
        path.write_text(MSH_2D_WITH_LINES)
        mesh = read_msh(path)
        assert mesh.boundary_tag[(0, 1)] == 5

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "mixed.msh"
        path.write_text(MSH_MIXED_DIM)
        with pytest.raises(MshFormatError, match="mixed"):
            read_msh(path)

    def test_line_off_the_triangles_rejected(self, tmp_path):
        # the line joins node 1 to a fourth node no triangle uses
        text = (MSH_2D_WITH_LINES.replace("$Nodes\n3\n", "$Nodes\n4\n")
                .replace("$EndNodes", "4 5.0 5.0 0.0\n$EndNodes")
                .replace("2 1 2 5 1 1 2", "2 1 2 5 1 1 4"))
        path = tmp_path / "stray_line.msh"
        path.write_text(text)
        with pytest.raises(MshFormatError, match=r"line \(0, 3\) is not a face of any triangle"):
            read_msh(path)

    @pytest.mark.parametrize("text", [
        MSH_ONE_TRIANGLE.replace("1 2 2 7 1 1 2 3", "1 2 2 7 1 1 2 4"),
        MSH_TET_WITH_BOUNDARY.replace("2 2 2 9 2 1 2 3", "2 2 2 9 2 1 2 8"),
        MSH_2D_WITH_LINES.replace("2 1 2 5 1 1 2", "2 1 2 5 1 1 8")],
        ids=["triangle", "boundary-triangle", "boundary-line"])
    def test_undefined_node_rejected(self, tmp_path, text):
        path = tmp_path / "bad.msh"
        path.write_text(text)
        with pytest.raises(MshFormatError, match="node [48]"):
            read_msh(path)

    @pytest.mark.parametrize("text,message", [
        (MSH_ONE_TRIANGLE.replace("$EndElements\n", ""), r"unterminated section \$Elements"),
        (MSH_ONE_TRIANGLE.split("$Nodes")[0].replace("MeshFormat", "Comments")
         + "$Nodes" + MSH_ONE_TRIANGLE.split("$Nodes")[1], r"missing \$MeshFormat"),
        (MSH_ONE_TRIANGLE.split("$Nodes")[0], r"missing \$Nodes or \$Elements"),
        (MSH_ONE_TRIANGLE.split("$Elements")[0], r"missing \$Nodes or \$Elements"),
        (MSH_ONE_TRIANGLE.replace("$Nodes\n3\n", "$Nodes\n4\n"),
         "declared 4 nodes but found 3"),
        (MSH_ONE_TRIANGLE.replace("$Elements\n1\n", "$Elements\n2\n"),
         "declared 2 elements but found 1"),
        (MSH_ONE_TRIANGLE.replace("1 2 2 7 1 1 2 3", "1 1 2 7 1 1 2"),
         "no triangle or tetrahedron"),
        (MSH_ONE_TRIANGLE.replace("2.2 0 8\n", ""), r"empty \$MeshFormat section"),
        (MSH_ONE_TRIANGLE.split("$Nodes")[0] + "$Nodes\n$EndNodes"
         + MSH_ONE_TRIANGLE.split("$EndNodes")[1], r"empty \$Nodes section"),
        (MSH_ONE_TRIANGLE.replace("2 1.0 0.0 0.0", "2 1.0 0.0"),
         r"\$Nodes line '2 1.0 0.0' has 3 fields"),
        (MSH_ONE_TRIANGLE.replace("1 2 2 7 1 1 2 3", "1 2 5 7 1 1"),
         r"\$Elements line '1 2 5 7 1 1' is shorter than its tag count"),
        (MSH_ONE_TRIANGLE.replace("1 2 2 7 1 1 2 3", "1 2 2 7 1 1 2"),
         r"'1 2 2 7 1 1 2': a type 2 element has 3 nodes, not 2"),
    ], ids=["unterminated", "no-format", "no-nodes", "no-elements", "node-count",
            "element-count", "no-volume-element", "empty-format", "empty-nodes",
            "short-node-line", "short-element-line", "two-node-triangle"])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.msh"
        path.write_text(text)
        with pytest.raises(MshFormatError, match=message):
            read_msh(path)

    def test_unused_node_dropped(self, tmp_path):
        # an MSH copy of a 2D box, with tagged boundary lines and one node
        # that no triangle uses listed first: every other row moves up one
        mesh = generate_mesh(2, 12, jitter=0.2, seed=1)
        n = mesh.n_nodes
        rows = [(1, tag, key) for key, tag in sorted(mesh.boundary_tag.items())]
        rows += [(2, mat, conn)
                 for conn, mat in zip(mesh.elements.tolist(), mesh.material_id.tolist())]
        lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(n + 1),
                 f"{n + 1} 50.0 50.0 0.0"]
        lines += [f"{i + 1} {x!r} {y!r} 0.0" for i, (x, y) in enumerate(mesh.node_coords.tolist())]
        lines += ["$EndNodes", "$Elements", str(len(rows))]
        lines += [f"{eid} {etype} 2 {tag} {tag} " + " ".join(str(v + 1) for v in nodes)
                  for eid, (etype, tag, nodes) in enumerate(rows, start=1)]
        path = tmp_path / "extra.msh"
        path.write_text("\n".join(lines + ["$EndElements"]) + "\n")
        with pytest.warns(UserWarning, match="dropped 1 MSH node"):
            back = read_msh(path)
        assert back.n_nodes == 169
        assert np.array_equal(back.node_coords, mesh.node_coords)
        assert np.array_equal(back.elements, mesh.elements)
        assert back.boundary_tag == mesh.boundary_tag
        _, report, _ = solve_problem(back, ProblemSpec("diffuse"),
                                     CoarsenConfig("node", seed=1))
        assert report.converged

    def test_skipped_types_warn(self, tmp_path):
        text = MSH_ONE_TRIANGLE.replace(
            "$Elements\n1\n1 2 2 7 1 1 2 3\n",
            "$Elements\n2\n1 2 2 7 1 1 2 3\n2 15 2 1 1 1\n")
        path = tmp_path / "warn.msh"
        path.write_text(text)
        with pytest.warns(UserWarning, match="skipped 1"):
            read_msh(path)


class TestWriteVtk:
    def test_one_agglomerate(self, tmp_path, tri_pair):
        path = tmp_path / "two.vtk"
        mesh_io.write_vtk(path, tri_pair, [Agglomeration(np.zeros(2, dtype=np.int64))])
        arrays = mesh_io.read_vtk_cell_data(path)
        assert list(arrays) == ["agglomerate_L1"]
        assert arrays["agglomerate_L1"].tolist() == [0, 0]

    def test_two_levels_shapes(self, tmp_path):
        mesh = generate_mesh(2, 2, extent=1.0)  # 8 triangles
        lvl1 = Agglomeration(np.array([0, 0, 1, 1, 2, 2, 3, 3]))
        lvl2 = Agglomeration(np.array([0, 0, 1, 1]))
        path = tmp_path / "eight.vtk"
        mesh_io.write_vtk(path, mesh, [lvl1, lvl2])
        arrays = mesh_io.read_vtk_cell_data(path)
        assert len(arrays) == 2
        assert len(arrays["agglomerate_L1"]) == 8
        assert len(arrays["agglomerate_L2"]) == 8
        # level-2 ids are composed through level 1
        assert arrays["agglomerate_L2"].tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        for name, ids in arrays.items():
            uniq = np.unique(ids)
            assert uniq[0] == 0 and uniq[-1] == len(uniq) - 1

    def test_empty_level_list(self, tmp_path, tri_pair):
        path = tmp_path / "plain.vtk"
        mesh_io.write_vtk(path, tri_pair, [])
        text = path.read_text()
        assert "CELL_DATA" not in text
        assert "POINTS 4 double" in text

    @pytest.mark.parametrize("levels,message", [
        ([np.arange(10) % 3], "level 1 has 10 entries for the 8 elements of level 0"),
        ([np.arange(7) % 3], "level 1 has 7 entries for the 8 elements of level 0"),
        ([np.arange(8) // 2, np.zeros(3, dtype=np.int64)],
         "level 2 has 3 entries for the 4 elements of level 1"),
    ], ids=["long", "short", "second-level"])
    def test_level_length_checked(self, tmp_path, levels, message):
        mesh = generate_mesh(2, 2)  # 8 triangles
        path = tmp_path / "bad.vtk"
        with pytest.raises(ValueError, match=message):
            mesh_io.write_vtk(path, mesh, [Agglomeration(ids) for ids in levels])
        assert not path.exists()

    def test_unassigned_elements_rejected(self, tmp_path, tri_pair):
        bad = Agglomeration(np.array([0, -1]))
        with pytest.raises(ValueError, match="unassigned"):
            mesh_io.write_vtk(tmp_path / "bad.vtk", tri_pair, [bad])


class TestTables:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "sweep.csv"
        mesh_io.write_sweep_csv(path, [])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("algorithm,desired_size,")

    def test_one_record_two_lines(self, tmp_path):
        rec = SweepRecord(algorithm="sizebased", desired_size=24,
                          actual_average_size=23.9, grid_complexity=1.21,
                          node_element_ratio=2.0, average_connectivity=3.4)
        path = tmp_path / "one.csv"
        mesh_io.write_sweep_csv(path, [rec])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "sizebased"

    def test_report_json_residual_array(self, tmp_path):
        report = SolveReport(iterations=10, residuals=[1.0] + [0.1] * 10,
                             setup_time_s=0.5, solve_time_s=0.2, converged=True,
                             problem="diffuse", algorithm="jones", levels=3)
        path = tmp_path / "report.json"
        mesh_io.write_report_json(path, report)
        data = json.loads(path.read_text())
        assert len(data["residuals"]) == 11
        assert data["problem"] == "diffuse"
        assert data["iterations"] == 10
