"""Model-problem assembly, FGMRES, and the multigrid V-cycle preconditioner.

The model PDE is scalar advection-diffusion-reaction on the box geometry:
the diffuse problem is -div(D grad u) + sigma_a u = S with D = 1/(3 sigma_t)
and sigma_a = sigma_t - sigma_s, the absorbing problem adds b . grad u, with
the fixed b = ``ADVECTION``, and streamline-diffusion stabilisation once the
element Peclet number passes 1.
Homogeneous Dirichlet walls, linear elements on triangles or tetrahedra.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lu_factor, lu_solve
# scipy's compiled CSR product y += M v, the kernel behind csr_matrix @ vector.
# It is private to scipy and checks no bounds, so it is imported here only and
# called only through _CsrKernel, which checks the vector's shape first.
from scipy.sparse._sparsetools import csr_matvec

from .mesh import (Mesh, MaterialProperties, MaterialTable, boundary_node_mask,
                   element_measures)
from .agglomerate import CoarsenConfig
from .hierarchy import (COARSEST_LIMIT, ElementMaterials, Hierarchy, LevelSchedule,
                        StopRule, build_hierarchy, grid_complexity, operator_complexity,
                        restriction)

# advection velocity of the absorbing problem, cm/s (the first dim entries)
ADVECTION = (1.0, 0.0, 0.0)
# GMRES(inner) cycles per pre- and post-smooth of the V-cycle
SMOOTHING_APPLICATIONS = 3


class DivergenceError(RuntimeError):
    """The Krylov iteration produced a non-finite residual."""


class CoarsestLevelError(ValueError):
    """The coarsest level has too many unknowns for the dense coarse LU."""


def diffuse_materials() -> MaterialTable:
    """Scattering-dominated single-material problem (source region A)."""
    return {0: MaterialProperties(source=1.0, sigma_t=10.0, sigma_s=10.0),
            1: MaterialProperties(source=0.0, sigma_t=10.0, sigma_s=10.0)}


def absorbing_materials() -> MaterialTable:
    """Two purely absorbing materials, away from the diffusive limit."""
    return {0: MaterialProperties(source=1.0, sigma_t=0.5, sigma_s=0.0),
            1: MaterialProperties(source=0.0, sigma_t=1.0, sigma_s=0.0)}


@dataclass
class ProblemSpec:
    kind: str                              # "diffuse" | "absorbing"
    materials: MaterialTable = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("diffuse", "absorbing"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if not self.materials:
            self.materials = (diffuse_materials() if self.kind == "diffuse"
                              else absorbing_materials())
        for props in self.materials.values():
            props.validate()


@dataclass
class SolveReport:
    iterations: int
    residuals: list
    setup_time_s: float
    solve_time_s: float
    converged: bool
    problem: str | None = None
    algorithm: str | None = None
    levels: int | None = None
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# assembly

def _p1_gradients(coords):
    """Constant shape-function gradients and measures for each element."""
    d = coords.shape[2]
    edges = coords[:, 1:] - coords[:, 0:1]   # row k is the edge p_{k+1} - p_0
    if d == 2:
        det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
        vol = 0.5 * det
        inv = np.empty_like(edges)
        inv[:, 0, 0] = edges[:, 1, 1] / det
        inv[:, 0, 1] = -edges[:, 0, 1] / det
        inv[:, 1, 0] = -edges[:, 1, 0] / det
        inv[:, 1, 1] = edges[:, 0, 0] / det
        ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    else:
        det = np.linalg.det(edges)
        vol = det / 6.0
        inv = np.linalg.inv(edges)
        ref = np.array([[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # the reference-to-physical Jacobian has the edge vectors as columns,
    # so grad phi_i = ref[i] @ J^{-1} = ref[i] @ inv(edges)^T
    grads = np.einsum("ik,ndk->nid", ref, inv)
    return grads, vol


def assemble_operator(mesh: Mesh, spec: ProblemSpec):
    """Assemble the bilinear form and load without boundary conditions.

    Returns (A, b, boundary_node_mask); apply_dirichlet finishes the job.
    """
    mats = ElementMaterials.from_table(mesh, spec.materials)
    if np.any(mats.sigma_t <= 0):
        raise ValueError("sigma_t must be positive: diffusion coefficient 1/(3 sigma_t)")
    coords = mesh.node_coords[mesh.elements]
    grads, vol = _p1_gradients(coords)
    nloc = mesh.dim + 1
    diffusion = 1.0 / (3.0 * mats.sigma_t)
    sigma_a = mats.sigma_t - mats.sigma_s

    # stiffness: D * vol * grad_i . grad_j
    K = np.einsum("nid,njd->nij", grads, grads) * (diffusion * vol)[:, None, None]
    # consistent mass: sigma_a * vol/((d+1)(d+2)) * (1 + delta_ij)
    mass_scale = sigma_a * vol / ((nloc) * (nloc + 1))
    M = (np.ones((nloc, nloc)) + np.eye(nloc))[None, :, :] * mass_scale[:, None, None]
    local = K + M
    load = np.repeat((mats.source * vol / nloc)[:, None], nloc, axis=1)

    if spec.kind == "absorbing":
        b_vec = np.array(ADVECTION[:mesh.dim])
        bg = np.einsum("d,nid->ni", b_vec, grads)           # b . grad phi_i
        conv = np.repeat((vol / nloc)[:, None, None], nloc, axis=1) * bg[:, None, :]
        local = local + conv
        bnorm = float(np.linalg.norm(b_vec))
        h = _element_diameters(coords)
        peclet = bnorm * h / (2.0 * diffusion)
        tau = np.where(peclet > 1.0, h / (2.0 * bnorm), 0.0)
        local = local + np.einsum("ni,nj->nij", bg, bg) * (tau * vol)[:, None, None]
        load = load + bg * (tau * mats.source * vol)[:, None]

    n = mesh.n_nodes
    ii = np.repeat(mesh.elements, nloc, axis=1).ravel()
    jj = np.tile(mesh.elements, (1, nloc)).ravel()
    A = sp.csr_matrix((local.ravel(), (ii, jj)), shape=(n, n))
    A.sum_duplicates()
    b = np.zeros(n)
    np.add.at(b, mesh.elements.ravel(), load.ravel())
    return A, b, boundary_node_mask(mesh)


def _element_diameters(coords):
    nloc = coords.shape[1]
    h = np.zeros(coords.shape[0])
    for i in range(nloc):
        for j in range(i + 1, nloc):
            h = np.maximum(h, np.linalg.norm(coords[:, i] - coords[:, j], axis=1))
    return h


def apply_dirichlet(A: sp.csr_matrix, b: np.ndarray, boundary: np.ndarray):
    """Homogeneous Dirichlet rows/columns eliminated symmetrically.

    Boundary rows and columns are zeroed and the original diagonal entry
    kept, so the system stays square over all nodes and SPD structure is
    preserved for the multigrid transfer operators.
    """
    keep = (~boundary).astype(float)
    Z = sp.diags(keep)
    return (Z @ A @ Z + sp.diags(A.diagonal() * boundary)).tocsr(), b * keep


def assemble_problem(mesh: Mesh, spec: ProblemSpec):
    """Assembled operator and right-hand side with Dirichlet walls applied."""
    A, b, boundary = assemble_operator(mesh, spec)
    return apply_dirichlet(A, b, boundary)


# ---------------------------------------------------------------------------
# Krylov kernels

def _gmres_cycle(matvec, r, x, m, precondition=None, stop=None):
    """One GMRES(m) restart cycle from ``x`` with residual ``r``, for fgmres.

    Arnoldi with modified Gram-Schmidt on ``matvec``; Givens rotations
    keep the least-squares residual as ``abs(g[j + 1])``. With
    ``precondition`` the basis vectors pass through it and the
    preconditioned directions are kept for the update (flexible right
    preconditioning, Saad 1993); without it the update lies in the basis.
    ``stop(res)`` sees the residual estimate after each step and ends the
    cycle when it returns True; a breakdown ends it too. Returns the new
    iterate and the number of steps taken.
    """
    beta = np.linalg.norm(r)
    if beta == 0.0:
        return x, 0
    V = np.empty((m, len(r)))
    Z = V if precondition is None else np.empty((m, len(r)))
    H = np.zeros((m, m))  # rotated Hessenberg: the subdiagonal is rotated away
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    V[0] = r / beta
    g[0] = beta
    steps = 0
    for j in range(m):
        if precondition is not None:
            Z[j] = precondition(V[j])
        w = matvec(Z[j])
        for i in range(j + 1):
            H[i, j] = w @ V[i]
            w -= H[i, j] * V[i]
        hlast = np.linalg.norm(w)
        if not np.isfinite(hlast):
            raise DivergenceError("non-finite entry in the Arnoldi process")
        for i in range(j):
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = t
        denom = np.hypot(H[j, j], hlast)
        if denom == 0.0:
            break
        cs[j] = H[j, j] / denom
        sn[j] = hlast / denom
        H[j, j] = denom
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        steps = j + 1
        if (stop is not None and stop(abs(g[j + 1]))) or hlast == 0.0 or steps == m:
            break  # converged, happy breakdown (exact in the space), or full
        V[j + 1] = w / hlast
    if steps == 0:
        return x, 0
    y = np.linalg.solve(H[:steps, :steps], g[:steps])
    return x + Z[:steps].T @ y, steps


class _CsrKernel:
    """``M @ v`` for a float CSR matrix, calling the compiled kernel directly.

    It skips the Python dispatch of ``csr_matrix @ v``, a fixed few
    microseconds per product that outweigh the product itself on a coarse
    level. The result is the same bits as ``M @ v``.
    """

    def __init__(self, M: sp.csr_matrix):
        self.shape = M.shape
        self._csr = (M.shape[0], M.shape[1], M.indptr, M.indices, M.data)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        n, m = self.shape
        if v.shape != (m,):
            raise ValueError(f"vector of shape {v.shape} for a matrix with {m} columns")
        y = np.zeros(n)
        csr_matvec(*self._csr, v, y)
        return y


def smooth(A, b: np.ndarray, x: np.ndarray | None, *,
           inner: int = 1, applications: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``applications`` cycles of GMRES(inner) on ``A x = b`` from x.

    Written as GCR (Eisenstat, Elman & Schultz 1983), which equals restarted
    GMRES in exact arithmetic and carries its residual z = b - A x from step
    to step. Each step takes p = z and q = A p, orthogonalises q against the
    cycle's earlier q (modified Gram-Schmidt, the same coefficients applied
    to p), then moves x along p and z along q by the step that minimizes
    ||z||. The directions stay unnormalised, each kept with its q @ q. They
    are dropped every ``inner`` steps: that restart makes the loop
    GMRES(inner). So a step costs one product with ``A``, and the initial
    residual one more unless ``x`` is None, which means a zero start.
    Returns ``(x, z)``. A given ``x``, a float array, is updated in place
    and returned: the V-cycle's post-smoother passes the pre-smoother's
    result, which it does not read again. ``b`` is not modified. The
    V-cycle passes the Jacobi-scaled level system D^-1 A x = D^-1 r, which
    makes this Jacobi-preconditioned GMRES(inner). A cycle ends early when
    q vanishes (an exact input or a breakdown); a non-finite q raises
    DivergenceError.
    """
    if x is None:
        z = np.array(b, dtype=float)
        x = np.zeros_like(z)
    else:
        z = b - A @ x
    last = inner - 1
    for _ in range(applications):
        saved = []  # (p, q, q @ q) of this cycle's earlier steps
        for step in range(inner):
            p = z
            q = A @ p
            for pi, qi, qqi in saved:
                h = float(q @ qi) / qqi
                q -= h * qi
                p = p - h * pi
            qq = float(q @ q)
            if not math.isfinite(qq):
                raise DivergenceError("non-finite entry in the smoother")
            if qq == 0.0:
                break
            alpha = float(q @ z) / qq
            x += alpha * p
            if step == last:
                # in place: earlier steps rebound z to a new array, so only
                # this step's p, already applied, can alias it
                z -= alpha * q
            else:
                z = z - alpha * q
                saved.append((p, q, qq))
    return x, z


class VCyclePreconditioner:
    """Multigrid V-cycle over assembled Galerkin operators.

    Pre/post smoothing is Jacobi-preconditioned GMRES(inner) restarted
    ``SMOOTHING_APPLICATIONS`` (3) times, one ``smooth`` call each, on the
    scaled level system S_k = D_k^-1 A_k stored once per smoothed level in
    ``operators``. The default ``inner=1`` is the "3x1" reading of "three
    iterations on each level": three cycles of GMRES(1). ``inner=3`` gives
    the "3x3" reading, three GMRES(3) cycles. A step makes one product,
    and the pre-smoother's zero start none, so a level makes
    2 * 3 * inner + 1 products per V-cycle: the pre-smoother's residual
    z = D_k^-1 (r - A_k x) is restricted by R_k D_k (``restrictions``), so
    no product recomputes it. The coarsest level is solved by a dense LU
    factored once. Every level product goes through one compiled CSR
    kernel. The smoother makes this a (mildly) nonlinear preconditioner,
    which is why the outer iteration is flexible GMRES.
    """

    def __init__(self, hierarchy: Hierarchy, inner: int = 1):
        if inner < 1:
            raise ValueError(f"smoother steps per cycle must be >= 1, got {inner}")
        self.inner = inner
        operators = [op.tocsr() for op in hierarchy.operators]
        self.diags = [np.asarray(op.diagonal()) for op in operators]
        for d in self.diags:
            if np.any(d == 0.0):
                raise ValueError("zero diagonal entry on a multigrid level")
        n_coarse = operators[-1].shape[0]
        if n_coarse > COARSEST_LIMIT:
            counts = hierarchy.node_counts
            last = (f"{counts[-2]} -> {counts[-1]} nodes on the last level"
                    if len(counts) > 1 else "no coarse level was built")
            if hierarchy.stop_reason == "stagnation":
                last += ": coarsening stagnated"
            raise CoarsestLevelError(
                f"coarsest level has {n_coarse} unknowns (> {COARSEST_LIMIT}) after "
                f"{hierarchy.config.algorithm} coarsening, {last}; node counts per "
                f"level: {counts}")
        self._n = operators[0].shape[0]
        self.operators, self.restrictions, self.prolongations = [], [], []
        for A, d, P in zip(operators, self.diags, hierarchy.prolongations):
            S = A.copy()
            S.data /= np.repeat(d, np.diff(S.indptr))
            RD = restriction(P)
            RD.data *= d[RD.indices]
            self.operators.append(_CsrKernel(S))
            self.restrictions.append(_CsrKernel(RD))
            self.prolongations.append(_CsrKernel(P.tocsr()))
        self._lu = lu_factor(operators[-1].toarray())

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if np.shape(r) != (self._n,):
            raise ValueError(f"residual of shape {np.shape(r)} for a V-cycle "
                             f"on {self._n} unknowns")
        if not np.isfinite(r).all():
            raise DivergenceError("non-finite residual passed to the V-cycle")
        return self._cycle(0, r)

    def _cycle(self, k: int, r: np.ndarray) -> np.ndarray:
        if k == len(self.operators):
            # r is finite: __call__ checked it, and the smoother raises on
            # a non-finite value
            return lu_solve(self._lu, r, check_finite=False)
        S = self.operators[k]
        c = r / self.diags[k]
        x, z = smooth(S, c, None, inner=self.inner, applications=SMOOTHING_APPLICATIONS)
        x += self.prolongations[k] @ self._cycle(k + 1, self.restrictions[k] @ z)
        return smooth(S, c, x, inner=self.inner, applications=SMOOTHING_APPLICATIONS)[0]


def fgmres(A: sp.spmatrix, b: np.ndarray, preconditioner=None, *,
           restart: int = 30, tol: float = 1e-10, atol: float | None = None,
           maxiter: int = 500):
    """Flexible GMRES with right preconditioning.

    Stops when the residual is below ``tol`` relative to ||b|| or below
    ``atol`` absolutely, whichever happens first (``atol`` defaults to
    ``tol``); iterations are total Arnoldi steps across restarts. A
    NaN/Inf residual raises DivergenceError, and ``restart`` < 1 ValueError.
    """
    if restart < 1:
        raise ValueError(f"restart must be >= 1, got {restart}")
    x = np.zeros(len(b))
    if atol is None:
        atol = tol
    bnorm = float(np.linalg.norm(b))
    scale = bnorm if bnorm > 0 else 1.0
    r = b - A @ x
    rnorm = float(np.linalg.norm(r))
    residuals = [rnorm / scale]
    iterations = 0
    converged = rnorm <= tol * scale or rnorm <= atol

    def stop(res):
        nonlocal iterations
        iterations += 1
        residuals.append(res / scale)
        if not np.isfinite(res):
            raise DivergenceError("non-finite FGMRES residual")
        return res <= tol * scale or res <= atol or iterations >= maxiter

    while not converged and iterations < maxiter:
        x, steps = _gmres_cycle(lambda z: A @ z, r, x, restart, preconditioner, stop)
        r = b - A @ x
        rnorm = float(np.linalg.norm(r))
        if not np.isfinite(rnorm):
            raise DivergenceError("non-finite FGMRES residual")
        residuals[-1] = rnorm / scale
        converged = rnorm <= tol * scale or rnorm <= atol
        if steps == 0:
            break  # breakdown before the first step: no progress possible
    return x, residuals, iterations, converged


def solve_problem(mesh: Mesh, spec: ProblemSpec, config: CoarsenConfig, *,
                  schedule: LevelSchedule | None = None,
                  stop: StopRule | None = None):
    """Assemble, build the multigrid hierarchy, and solve with FGMRES.

    Setup time covers coarsening, cleanup, coarse topology, transfers and
    the Galerkin products (assembled coarse operators are counted in setup
    here, unlike the matrix-free original; noted in the report metadata).
    Solve time is the FGMRES iteration only: FGMRES(30) to a relative
    residual of 1e-10, at most 500 iterations, under the default smoother.
    """
    A, b = assemble_problem(mesh, spec)
    t0 = time.perf_counter()
    hier = build_hierarchy(mesh, config, materials=spec.materials,
                           schedule=schedule, stop=stop, operator=A)
    M = VCyclePreconditioner(hier)
    setup_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    x, residuals, iterations, converged = fgmres(
        A, b, M, restart=30, tol=1e-10, atol=None, maxiter=500)
    solve_time = time.perf_counter() - t1

    report = SolveReport(
        iterations=iterations,
        residuals=residuals,
        setup_time_s=setup_time,
        solve_time_s=solve_time,
        converged=converged,
        problem=spec.kind,
        algorithm=config.algorithm,
        levels=hier.n_levels,
        meta={
            "n_nodes": mesh.n_nodes,
            "n_elements": mesh.n_elements,
            "grid_complexity": grid_complexity(hier),
            "operator_complexity": operator_complexity(hier),
            "stop_reason": hier.stop_reason,
            "setup_includes_galerkin_products": True,
        },
    )
    return x, report, hier


# ---------------------------------------------------------------------------
# discretisation oracle

def mms_convergence(ns=(8, 16, 32), dim: int = 2):
    """L2-error slope for the manufactured solution sin(pi x) sin(pi y) [...].

    Runs the diffuse discretisation with D = 1, sigma_a = 0 on the unit
    box over uniform refinements, solving directly; linear elements give
    slope 2 in the mesh width.
    """
    from .mesh import generate_mesh

    errors = []
    hs = []
    for n in ns:
        mesh = generate_mesh(dim, n, extent=1.0, jitter=0.0)
        table = {0: MaterialProperties(source=0.0, sigma_t=1.0 / 3.0, sigma_s=1.0 / 3.0),
                 1: MaterialProperties(source=0.0, sigma_t=1.0 / 3.0, sigma_s=1.0 / 3.0)}
        spec = ProblemSpec(kind="diffuse", materials=table)
        A, b_unused, boundary = assemble_operator(mesh, spec)
        b = _mms_load(mesh, dim)
        A, b = apply_dirichlet(A, b, boundary)
        u = spla.spsolve(A.tocsc(), b)
        errors.append(_l2_error(mesh, u, dim))
        hs.append(1.0 / n)
    slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    return slope, list(zip(hs, errors))


def _mms_exact(points, dim):
    u = np.sin(np.pi * points[..., 0]) * np.sin(np.pi * points[..., 1])
    if dim == 3:
        u = u * np.sin(np.pi * points[..., 2])
    return u


def _mms_source(points, dim):
    return dim * np.pi ** 2 * _mms_exact(points, dim)


def _quad_rule(dim):
    if dim == 2:
        pts = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        wts = np.full(3, 1.0 / 3.0)
    else:
        a, b = 0.58541020, 0.13819660
        pts = np.array([[b, b, b], [a, b, b], [b, a, b], [b, b, a]])
        wts = np.full(4, 0.25)
    lam = np.column_stack([1.0 - pts.sum(axis=1), pts])
    return lam, wts


def _mms_load(mesh, dim):
    coords = mesh.node_coords[mesh.elements]
    vol = element_measures(mesh)
    lam, wts = _quad_rule(dim)
    b = np.zeros(mesh.n_nodes)
    for q, w in enumerate(wts):
        xq = np.einsum("l,nld->nd", lam[q], coords)
        f = _mms_source(xq, dim)
        for i in range(dim + 1):
            np.add.at(b, mesh.elements[:, i], w * lam[q, i] * f * vol)
    return b


def _l2_error(mesh, u, dim):
    coords = mesh.node_coords[mesh.elements]
    vol = element_measures(mesh)
    lam, wts = _quad_rule(dim)
    err2 = np.zeros(mesh.n_elements)
    for q, w in enumerate(wts):
        xq = np.einsum("l,nld->nd", lam[q], coords)
        uh = np.einsum("l,nl->n", lam[q], u[mesh.elements])
        err2 += w * (uh - _mms_exact(xq, dim)) ** 2
    return float(np.sqrt((err2 * vol).sum()))
