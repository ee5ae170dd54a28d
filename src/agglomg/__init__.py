"""Element agglomeration and geometric multigrid on unstructured simplicial meshes.

Seven coarsening algorithms build element agglomerates on triangle/tet
meshes; coarse faces, edges and nodes define piecewise-average transfer
operators; Galerkin products stack into a multigrid hierarchy used as a
V-cycle preconditioner for FGMRES on model diffusion/transport problems.
"""

from .mesh import (BOUNDARY, DegenerateElementError, DualGraph, EdgeSet, FaceSet,
                   LevelTopology, MaterialProperties, MaterialTable, Mesh,
                   MeshMetrics, MeshSizeError, TopologyError, generate_mesh,
                   mesh_metrics)
from .mesh_io import MshFormatError, SweepRecord, read_msh, write_report_json, \
    write_sweep_csv, write_vtk
from .agglomerate import (ALGORITHMS, SIZE_BASED, Agglomeration, AgglomerateStats,
                          CleanupReport, CoarsenConfig, agglomerate_stats, cleanup,
                          coarsen)
from .partitioner import WeightedGraph, edge_cut, partition_kway, scale_weights
from .hierarchy import (CoarseningError, ElementMaterials, FacePatches,
                        GridLevel, Hierarchy, LevelSchedule, StopRule,
                        build_hierarchy, build_prolongation,
                        galerkin_operator, grid_complexity, level_schedule,
                        operator_complexity, project_materials, restriction,
                        select_coarse_edges, select_coarse_faces)
from .solver import (CoarsestLevelError, DivergenceError, ProblemSpec, SolveReport,
                     VCyclePreconditioner, absorbing_materials, apply_dirichlet,
                     assemble_operator, assemble_problem, diffuse_materials, fgmres,
                     mms_convergence, smooth, solve_problem)

__version__ = "0.1.0"
