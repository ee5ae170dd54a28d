"""Golden fingerprints of whole hierarchies: the guard for refactors.

Each case builds a multigrid hierarchy on a small jittered box and hashes,
level by level, the element -> agglomerate map, the prolongation's CSR
arrays and the coarse operator's nonzero count; the FGMRES iteration count
under the default smoother is pinned next to the hash. A second table
hashes every array of every level's ``LevelTopology``, float bits
included, since the first one does not see a coarse face area change in
its last bit. A third pins the FGMRES iteration count under the GMRES(3)
smoother (``VCyclePreconditioner(hierarchy, inner=3)``). A fourth hashes
the file outputs: the bytes ``write_vtk`` writes for the 2D and 3D
``node`` hierarchies, and the arrays and boundary tags ``read_msh``
returns for a tet file with inverted tets, tagged boundary triangles and
a skipped element type. A fifth hashes the boxes ``generate_mesh`` builds: elements, coordinates,
materials and boundary tags. A change that keeps every value here
rebuilds the same hierarchies bit for bit. Never edit a golden value to
make a refactor pass; only a change that is meant to alter the
hierarchies (and says so) may re-record them.
"""
import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from agglomg.agglomerate import ALGORITHMS, CoarsenConfig
from agglomg.hierarchy import build_hierarchy
from agglomg.mesh import generate_mesh
from agglomg.mesh_io import read_msh, write_vtk
from agglomg.solver import ProblemSpec, VCyclePreconditioner, assemble_problem, fgmres

MESHES = {2: dict(n=16, jitter=0.2, seed=3), 3: dict(n=6, jitter=0.15, seed=3)}
SEEDS = (1, 2)

# (dim, algorithm, seed) -> (sha256 prefix, FGMRES iterations)
GOLDEN = {
    (2, 'jones', 1): ('465faf1e8c472ecc', 9),
    (2, 'jones', 2): ('465faf1e8c472ecc', 9),
    (2, 'kraus', 1): ('992107f61bd8fb53', 8),
    (2, 'kraus', 2): ('992107f61bd8fb53', 8),
    (2, 'rgb', 1): ('d893eab60b837c05', 11),
    (2, 'rgb', 2): ('0e5bac0f77b525cd', 11),
    (2, 'node', 1): ('226356c732ecce74', 10),
    (2, 'node', 2): ('fdb61add75395e42', 10),
    (2, 'greedy', 1): ('5805e49b976986de', 13),
    (2, 'greedy', 2): ('a34208d121be14d5', 13),
    (2, 'sizebased', 1): ('1e89ad200cb6a72b', 14),
    (2, 'sizebased', 2): ('7a04e07c19ff6f51', 13),
    (2, 'aspect', 1): ('c2adec1aa8242c8f', 13),
    (2, 'aspect', 2): ('5e8dd95a35ff50cb', 12),
    (3, 'jones', 1): ('c7eea4e9b12d8fad', 1),
    (3, 'jones', 2): ('c7eea4e9b12d8fad', 1),
    (3, 'kraus', 1): ('754a18418c236e9b', 6),
    (3, 'kraus', 2): ('754a18418c236e9b', 6),
    (3, 'rgb', 1): ('26c6ca8b7f8d5e9e', 3),
    (3, 'rgb', 2): ('481efb1217d09347', 3),
    (3, 'node', 1): ('0366bfdd7e85766f', 6),
    (3, 'node', 2): ('6502605d3d42d678', 6),
    (3, 'greedy', 1): ('3e9dba0fb291e144', 8),
    (3, 'greedy', 2): ('90aad9628a3b10bf', 8),
    (3, 'sizebased', 1): ('49c5d1887ef87474', 8),
    (3, 'sizebased', 2): ('76dbecaf4444cea8', 8),
    (3, 'aspect', 1): ('56aba3c0b9f57083', 8),
    (3, 'aspect', 2): ('6c9c52051914e5f3', 8),
}

# (dim, algorithm, seed) -> sha256 prefix over every level's LevelTopology
TOPOLOGY_GOLDEN = {
    (2, 'jones', 1): 'd70a2672adcf6f03',
    (2, 'jones', 2): 'd70a2672adcf6f03',
    (2, 'kraus', 1): '8dcb0c81fd3c1a32',
    (2, 'kraus', 2): '8dcb0c81fd3c1a32',
    (2, 'rgb', 1): '1ec7f196fc08ca4b',
    (2, 'rgb', 2): '5fddc63a79e4c223',
    (2, 'node', 1): '1c2524cbefc6995e',
    (2, 'node', 2): 'd6d8dc00078efbc3',
    (2, 'greedy', 1): 'da212796e07cb6cf',
    (2, 'greedy', 2): '930d457946fe11bd',
    (2, 'sizebased', 1): '82c61211d4070e20',
    (2, 'sizebased', 2): 'd9a118e299a8c055',
    (2, 'aspect', 1): 'cf7ea267068e7a3a',
    (2, 'aspect', 2): '144aaa40288626b5',
    (3, 'jones', 1): 'ccd6538d9e87d506',
    (3, 'jones', 2): 'ccd6538d9e87d506',
    (3, 'kraus', 1): 'b6c94278f2d6e9c6',
    (3, 'kraus', 2): 'b6c94278f2d6e9c6',
    (3, 'rgb', 1): '5e935c3e2ab45215',
    (3, 'rgb', 2): '3f03c52936428535',
    (3, 'node', 1): '5f67a9c9c2213e9f',
    (3, 'node', 2): '82a6e5203cc54d19',
    (3, 'greedy', 1): '714775e6c5f1926d',
    (3, 'greedy', 2): '27003dde557eebc1',
    (3, 'sizebased', 1): 'e05c85585f8b999f',
    (3, 'sizebased', 2): '5d753f5efc20623e',
    (3, 'aspect', 1): 'fa8fa35dbd98d002',
    (3, 'aspect', 2): 'ad00419c11db143e',
}

# (dim, algorithm, seed) -> FGMRES iterations with VCyclePreconditioner(inner=3)
INNER3_ITERATIONS = {
    (2, 'jones', 1): 5,
    (2, 'jones', 2): 5,
    (2, 'kraus', 1): 5,
    (2, 'kraus', 2): 5,
    (2, 'rgb', 1): 5,
    (2, 'rgb', 2): 6,
    (2, 'node', 1): 5,
    (2, 'node', 2): 5,
    (2, 'greedy', 1): 6,
    (2, 'greedy', 2): 7,
    (2, 'sizebased', 1): 6,
    (2, 'sizebased', 2): 6,
    (2, 'aspect', 1): 6,
    (2, 'aspect', 2): 6,
    (3, 'jones', 1): 1,
    (3, 'jones', 2): 1,
    (3, 'kraus', 1): 3,
    (3, 'kraus', 2): 3,
    (3, 'rgb', 1): 2,
    (3, 'rgb', 2): 2,
    (3, 'node', 1): 3,
    (3, 'node', 2): 3,
    (3, 'greedy', 1): 3,
    (3, 'greedy', 2): 3,
    (3, 'sizebased', 1): 3,
    (3, 'sizebased', 2): 3,
    (3, 'aspect', 1): 3,
    (3, 'aspect', 2): 3,
}


@functools.lru_cache(maxsize=None)
def _build(dim, algorithm, seed):
    mesh = generate_mesh(dim, **MESHES[dim])
    spec = ProblemSpec("diffuse")
    A, b = assemble_problem(mesh, spec)
    hier = build_hierarchy(mesh, CoarsenConfig(algorithm, seed=seed),
                           materials=spec.materials, operator=A)
    return hier, A, b


def fingerprint(dim, algorithm, seed):
    hier, A, b = _build(dim, algorithm, seed)
    digest = hashlib.sha256()
    for level in hier.levels:
        P = level.prolongation.tocsr()
        for arr in (level.agglomeration.element_to_agg, P.indptr, P.indices):
            digest.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(P.data, dtype="<f8").tobytes())
        digest.update(int(level.operator.nnz).to_bytes(8, "little"))
    return digest.hexdigest()[:16], fgmres_iterations(dim, algorithm, seed, inner=1)


def fgmres_iterations(dim, algorithm, seed, inner):
    hier, A, b = _build(dim, algorithm, seed)
    M = VCyclePreconditioner(hier, inner=inner)
    _, _, iterations, converged = fgmres(A, b, M, restart=30, tol=1e-10, atol=0.0)
    assert converged
    return iterations


def _update(digest, value):
    """Hash a topology field: dataclasses field by field, arrays with their
    shape and canonical dtype, scalars as int64, None as a marker."""
    if value is None:
        digest.update(b"none")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _update(digest, getattr(value, f.name))
    else:
        arr = np.asarray(value)
        dtype = {"b": "u1", "f": "<f8"}.get(arr.dtype.kind, "<i8")
        digest.update(np.array(arr.shape, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def topology_fingerprint(dim, algorithm, seed):
    hier, _, _ = _build(dim, algorithm, seed)
    digest = hashlib.sha256()
    for topo in [hier.fine_topology] + [level.topology for level in hier.levels]:
        _update(digest, topo)
    return digest.hexdigest()[:16]


CASES = [(dim, alg, seed) for dim in MESHES for alg in ALGORITHMS for seed in SEEDS]


@pytest.mark.parametrize("dim,algorithm,seed", CASES)
def test_fingerprint(dim, algorithm, seed):
    assert fingerprint(dim, algorithm, seed) == GOLDEN[(dim, algorithm, seed)]


@pytest.mark.parametrize("dim,algorithm,seed", CASES)
def test_topology_fingerprint(dim, algorithm, seed):
    expected = TOPOLOGY_GOLDEN[(dim, algorithm, seed)]
    assert topology_fingerprint(dim, algorithm, seed) == expected


@pytest.mark.parametrize("dim,algorithm,seed", CASES)
def test_inner3_iterations(dim, algorithm, seed):
    expected = INNER3_ITERATIONS[(dim, algorithm, seed)]
    assert fgmres_iterations(dim, algorithm, seed, inner=3) == expected


# file name -> sha256 prefix of what the file-format code writes or reads
FILE_GOLDEN = {
    "vtk-2d-node": "6a953735ffcfdfef",
    "vtk-3d-node": "2f468a74c2efc08e",
    "msh-3d": "ce6ce98726ff829e",
}


def _msh_text():
    """MSH 2.2 text of a jittered 3D box with 1-based node ids offset by 10:
    every third tet inverted, boundary triangles tagged per side with their
    nodes listed in reverse, and one point element (type 15) to skip."""
    mesh = generate_mesh(3, 2, extent=1.0, jitter=0.2, seed=5)
    tets = mesh.elements.copy()
    tets[::3] = tets[::3][:, [0, 1, 3, 2]]
    rows = [(15, 1, [0])]
    rows += [(2, tag, nodes[::-1]) for nodes, tag in sorted(mesh.boundary_tag.items())]
    rows += [(4, mat, conn) for conn, mat in zip(tets.tolist(), mesh.material_id.tolist())]
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(mesh.n_nodes)]
    lines += [f"{i + 11} {x!r} {y!r} {z!r}"
              for i, (x, y, z) in enumerate(mesh.node_coords.tolist())]
    lines += ["$EndNodes", "$Elements", str(len(rows))]
    lines += [f"{eid} {etype} 2 {tag} {tag} " + " ".join(str(v + 11) for v in nodes)
              for eid, (etype, tag, nodes) in enumerate(rows, start=1)]
    return "\n".join(lines + ["$EndElements"]) + "\n"


def file_fingerprint(name, tmp_path):
    digest = hashlib.sha256()
    if name.startswith("vtk"):
        hier, _, _ = _build(int(name[4]), "node", 1)
        path = tmp_path / "levels.vtk"
        write_vtk(path, hier.mesh, [level.agglomeration for level in hier.levels])
        digest.update(path.read_bytes())
    else:
        path = tmp_path / "box.msh"
        path.write_text(_msh_text())
        with pytest.warns(UserWarning, match="skipped 1"):
            mesh = read_msh(path)
        tags = np.array([key + (tag,) for key, tag in sorted(mesh.boundary_tag.items())])
        for value in (mesh.dim, mesh.node_coords, mesh.elements, mesh.material_id, tags):
            _update(digest, value)
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", list(FILE_GOLDEN))
def test_file_fingerprint(name, tmp_path):
    assert file_fingerprint(name, tmp_path) == FILE_GOLDEN[name]


# (dim, n, jitter, seed) -> sha256 prefix of generate_mesh's arrays and tags.
# (2, 6, 0.49, 0) and the n=16 boxes at jitter 0.49 invert an element on the
# first draw and halve the jitter, so the retry path is pinned too.
GENERATOR_GOLDEN = {
    (2, 1, 0.0, 0): 'c6701a648e75f71f',
    (2, 1, 0.2, 0): 'c6701a648e75f71f',
    (2, 1, 0.49, 0): 'c6701a648e75f71f',
    (2, 3, 0.0, 0): 'f48d0a88e1066fc0',
    (2, 3, 0.2, 0): '48d918e89756a43d',
    (2, 3, 0.49, 0): 'a7f829e25a68ad3e',
    (2, 16, 0.0, 0): 'b4ea35bbd4d071bb',
    (2, 16, 0.2, 0): '964c6bf667fc35f2',
    (2, 16, 0.49, 0): '6fd85150f9e3d56a',
    (3, 1, 0.0, 0): '75d200466010f654',
    (3, 1, 0.2, 0): '75d200466010f654',
    (3, 1, 0.49, 0): '75d200466010f654',
    (3, 3, 0.0, 0): '5f8b48a78dde0ef8',
    (3, 3, 0.2, 0): '1158a5d09857cefa',
    (3, 3, 0.49, 0): 'e1e0c61bb885e0a5',
    (3, 16, 0.0, 0): '5114845df028857e',
    (3, 16, 0.2, 0): 'fdefb53bdf624e3b',
    (3, 16, 0.49, 0): '64ba0f5da6d9922d',
    (2, 6, 0.49, 0): '1e7d1c903a25950f',
}


def generator_fingerprint(dim, n, jitter, seed):
    mesh = generate_mesh(dim, n, jitter=jitter, seed=seed)
    # the tags come in sorted face order, which the hash below does not see
    assert list(mesh.boundary_tag) == sorted(mesh.boundary_tag)
    tags = np.array([key + (tag,) for key, tag in sorted(mesh.boundary_tag.items())])
    digest = hashlib.sha256()
    for value in (mesh.elements, mesh.node_coords, mesh.material_id, tags):
        _update(digest, value)
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("case", list(GENERATOR_GOLDEN))
def test_generator_fingerprint(case):
    assert generator_fingerprint(*case) == GENERATOR_GOLDEN[case]
