"""File formats: gmsh MSH 2.2 reading, legacy VTK writing, CSV/JSON reports."""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .mesh import Mesh, _enumerate_faces, _signed_measures

VTK_TRIANGLE = 5
VTK_TETRA = 10


class MshFormatError(ValueError):
    """The MSH file is missing sections or uses an unsupported version."""


@dataclass
class SweepRecord:
    """One row of a size-sweep table (one algorithm at one desired size)."""

    algorithm: str
    desired_size: int
    actual_average_size: float
    grid_complexity: float
    node_element_ratio: float
    average_connectivity: float
    iterations: int | None = None
    solve_time_s: float | None = None
    setup_time_s: float | None = None
    status: str = "ok"


def _count(section, body):
    """The entry count on the first line of a section's ``body``."""
    try:
        return int(body[0])
    except ValueError:
        raise MshFormatError(f"${section} count line '{body[0]}' is not an integer") from None


def read_msh(path):
    """Read an ASCII MSH 2.2 file into a Mesh.

    Volume elements are type 2 (triangle) or type 4 (tetrahedron); in a
    tetrahedral file, triangles become tagged boundary faces. The first
    physical tag maps to the region id (volume) or boundary tag (surface).
    Anything else is skipped, with a warning giving the skip count. Nodes
    that no volume element uses are dropped, with a warning giving their
    count; the others are renumbered in file order.
    A boundary entity that is no face of any volume element (a triangle of
    a tetrahedral file, a line of a triangular one) indicates a
    mixed-dimensional mesh and is rejected, as are elements that name a
    node the $Nodes section does not define. An empty section, a short node
    or element line and an element of the wrong node count raise
    :class:`MshFormatError` naming the section or line, as do a field
    that is no number (no integer in $Elements and the counts) and a
    non-finite coordinate.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    sections = {}
    i = 0
    while i < len(lines):
        ln = lines[i]
        if ln.startswith("$") and not ln.startswith("$End"):
            name = ln[1:]
            end = f"$End{name}"
            j = i + 1
            while j < len(lines) and lines[j] != end:
                j += 1
            if j >= len(lines):
                raise MshFormatError(f"unterminated section {ln}")
            sections[name] = lines[i + 1:j]
            i = j + 1
        else:
            i += 1
    for name, body in sections.items():
        if name in ("MeshFormat", "Nodes", "Elements") and not (body and body[0]):
            raise MshFormatError(f"empty ${name} section")

    if "MeshFormat" not in sections:
        raise MshFormatError("missing $MeshFormat section")
    version = sections["MeshFormat"][0].split()[0]
    if not version.startswith("2.2"):
        raise MshFormatError(f"unsupported MSH version {version}; need 2.2 ASCII")
    if "Nodes" not in sections or "Elements" not in sections:
        raise MshFormatError("missing $Nodes or $Elements section")

    node_lines = sections["Nodes"]
    n_nodes = _count("Nodes", node_lines)
    if len(node_lines) - 1 != n_nodes:
        raise MshFormatError(
            f"declared {n_nodes} nodes but found {len(node_lines) - 1}")
    ids = np.empty(n_nodes, dtype=np.int64)
    xyz = np.empty((n_nodes, 3), dtype=float)
    for r, ln in enumerate(node_lines[1:]):
        parts = ln.split()
        if len(parts) < 4:
            raise MshFormatError(f"$Nodes line '{ln}' has {len(parts)} fields, not 4")
        try:
            ids[r] = int(parts[0])
            xyz[r] = [float(parts[1]), float(parts[2]), float(parts[3])]
        except ValueError:
            raise MshFormatError(f"$Nodes line '{ln}' has a malformed number") from None
    id_to_row = {int(v): r for r, v in enumerate(ids)}

    def rows(conn):
        try:
            return [id_to_row[v] for v in conn]
        except KeyError as err:
            raise MshFormatError(f"an element names node {err.args[0]}, "
                                 "which $Nodes does not define") from None

    elem_lines = sections["Elements"]
    n_declared = _count("Elements", elem_lines)
    if len(elem_lines) - 1 != n_declared:
        raise MshFormatError(
            f"declared {n_declared} elements but found {len(elem_lines) - 1}")
    # the element types read, line, triangle and tetrahedron, by node count
    arity = {1: 2, 2: 3, 4: 4}
    conns = {etype: [] for etype in arity}
    phys_tags = {etype: [] for etype in arity}
    skipped = 0
    for ln in elem_lines[1:]:
        try:
            parts = [int(p) for p in ln.split()]
        except ValueError:
            raise MshFormatError(f"$Elements line '{ln}' has a non-integer field") from None
        if len(parts) < 3 or len(parts) < 3 + parts[2]:
            raise MshFormatError(f"$Elements line '{ln}' is shorter than its tag count")
        etype, ntags = parts[1], parts[2]
        conn = parts[3 + ntags:]
        if etype not in arity:
            skipped += 1
        elif len(conn) != arity[etype]:
            raise MshFormatError(f"$Elements line '{ln}': a type {etype} element has "
                                 f"{arity[etype]} nodes, not {len(conn)}")
        else:
            conns[etype].append(conn)
            phys_tags[etype].append(parts[3] if ntags else 0)
    if skipped:
        warnings.warn(f"skipped {skipped} unsupported MSH element(s)")

    dim = 3 if conns[4] else 2
    volume, surface = (4, 2) if dim == 3 else (2, 1)
    if not conns[volume]:
        raise MshFormatError("no triangle or tetrahedron elements found")
    elements = np.array([rows(t) for t in conns[volume]], dtype=np.int64)
    material = np.array(phys_tags[volume], dtype=np.int64)
    coords = xyz[:, :dim]
    bad = ~np.isfinite(coords).all(axis=1)
    if bad.any():
        raise MshFormatError(f"$Nodes line '{node_lines[1 + int(np.argmax(bad))]}' "
                             "has a non-finite coordinate")

    # fix inverted elements by swapping two nodes (geometry is unchanged)
    flipped = _signed_measures(coords, elements, dim) < 0
    if flipped.any():
        elements = elements.copy()
        elements[flipped] = elements[flipped][:, [0, 2, 1] + ([3] if dim == 3 else [])]

    # surface entities become boundary tags: triangles under tetrahedra,
    # lines under triangles; one that is no face of a volume element means
    # the file mixes dimensions
    kind, volume_kind = ("triangle", "tetrahedron") if dim == 3 else ("line", "triangle")
    boundary_tag = {}
    if conns[surface]:
        faces = set(map(tuple, _enumerate_faces(elements, dim)[0].tolist()))
        for conn, phys in zip(conns[surface], phys_tags[surface]):
            key = tuple(sorted(rows(conn)))
            if key not in faces:
                raise MshFormatError(
                    f"mixed-dimension mesh: {kind} {key} is not a face of any {volume_kind}")
            boundary_tag[key] = phys

    # nodes no volume element uses are dropped; the rest keep file order
    used = np.zeros(len(coords), dtype=bool)
    used[elements] = True
    if not used.all():
        warnings.warn(f"dropped {int((~used).sum())} MSH node(s) that no "
                      f"{volume_kind} uses")
        new_row = np.cumsum(used) - 1
        coords, elements = coords[used], new_row[elements]
        boundary_tag = {tuple(new_row[list(key)].tolist()): phys
                        for key, phys in boundary_tag.items()}
    return Mesh(dim=dim, node_coords=coords, elements=elements,
                material_id=material, boundary_tag=boundary_tag)


def write_vtk(path, mesh: Mesh, level_agglomerations=()):
    """Legacy ASCII VTK unstructured grid with one id array per level.

    ``level_agglomerations`` holds one Agglomeration per level, each
    defined on the previous level's elements; they are composed so the
    CELL_DATA array ``agglomerate_L<k>`` gives each finest-level element its
    level-k agglomerate id. A level without exactly one entry per element
    of the level below, or with an unassigned one, raises ValueError.
    """
    composed = []
    current = np.arange(mesh.n_elements)
    n_below = mesh.n_elements
    for k, agg in enumerate(level_agglomerations, start=1):
        e2a = agg.element_to_agg
        if len(e2a) != n_below:
            raise ValueError(f"level {k} has {len(e2a)} entries for the {n_below} "
                             f"elements of level {k - 1}")
        if (e2a < 0).any():
            raise ValueError(f"level {k} has unassigned elements")
        current = e2a[current]
        composed.append(current)
        n_below = agg.n_agglomerates

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("agglomerated unstructured mesh\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        points = np.zeros((mesh.n_nodes, 3))
        points[:, :mesh.dim] = mesh.node_coords
        fh.write(("%.17g %.17g %.17g\n" * mesh.n_nodes) % tuple(points.ravel().tolist()))
        k = mesh.dim + 1
        fh.write(f"CELLS {mesh.n_elements} {mesh.n_elements * (k + 1)}\n")
        fh.write(((f"{k}" + " %d" * k + "\n") * mesh.n_elements)
                 % tuple(mesh.elements.ravel().tolist()))
        fh.write(f"CELL_TYPES {mesh.n_elements}\n")
        ctype = VTK_TRIANGLE if mesh.dim == 2 else VTK_TETRA
        fh.write("\n".join([str(ctype)] * mesh.n_elements) + "\n")
        if composed:
            fh.write(f"CELL_DATA {mesh.n_elements}\n")
            for k_lvl, ids in enumerate(composed):
                fh.write(f"SCALARS agglomerate_L{k_lvl + 1} int 1\n")
                fh.write("LOOKUP_TABLE default\n")
                fh.write("\n".join(map(str, ids.tolist())) + "\n")


def read_vtk_cell_data(path):
    """Parse back the per-level id arrays of a file written by write_vtk."""
    arrays = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = 0
    n_cells = None
    while i < len(lines):
        ln = lines[i]
        if ln.startswith("CELLS "):
            n_cells = int(ln.split()[1])
        if ln.startswith("SCALARS "):
            name = ln.split()[1]
            vals = []
            i += 2  # skip LOOKUP_TABLE
            while len(vals) < n_cells:
                vals.extend(int(v) for v in lines[i].split())
                i += 1
            arrays[name] = np.array(vals, dtype=np.int64)
            continue
        i += 1
    return arrays


def write_sweep_csv(path, records):
    """CSV table of sweep records; header row matches the field names."""
    fields = [f for f in SweepRecord.__dataclass_fields__]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rec in records:
            row = asdict(rec)
            writer.writerow(["" if row[f] is None else row[f] for f in fields])


def write_report_json(path, report):
    """JSON solve report with the residual history as an array."""
    payload = {
        "problem": report.problem,
        "algorithm": report.algorithm,
        "levels": report.levels,
        "iterations": report.iterations,
        "setup_time_s": report.setup_time_s,
        "solve_time_s": report.solve_time_s,
        "converged": report.converged,
        "residuals": [float(r) for r in report.residuals],
        "meta": report.meta,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
