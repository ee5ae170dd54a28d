import numpy as np
import pytest
import scipy.sparse as sp

from agglomg.agglomerate import ALGORITHMS, CoarsenConfig
from agglomg.hierarchy import (StopRule, build_hierarchy, grid_complexity,
                               operator_complexity)
from agglomg.mesh import MaterialProperties, boundary_node_mask, generate_mesh
from agglomg.solver import (SMOOTHING_APPLICATIONS, CoarsestLevelError, DivergenceError,
                            ProblemSpec, VCyclePreconditioner, _CsrKernel, _gmres_cycle,
                            apply_dirichlet, assemble_operator, assemble_problem, fgmres,
                            mms_convergence, smooth, solve_problem)
from test_fingerprints import MESHES


def unit_material_table():
    # sigma_t = 1/3 makes the diffusion coefficient exactly 1
    props = MaterialProperties(source=0.0, sigma_t=1.0 / 3.0, sigma_s=1.0 / 3.0)
    return {0: props, 1: props}


@pytest.fixture(scope="module")
def poisson_problem():
    mesh = generate_mesh(2, 24, jitter=0.2, seed=6)
    spec = ProblemSpec("diffuse")
    A, b = assemble_problem(mesh, spec)
    return mesh, spec, A, b


class TestAssembly:
    def test_unit_triangle_stiffness(self, tri_single):
        spec = ProblemSpec("diffuse", materials=unit_material_table())
        A, _, _ = assemble_operator(tri_single, spec)
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.allclose(A.toarray(), expected, atol=1e-14)

    def test_diffuse_operator_symmetric(self, poisson_problem):
        _, _, A, _ = poisson_problem
        assert abs(A - A.T).max() <= 1e-12 * abs(A).max()

    def test_stiffness_rows_sum_to_zero_pre_bc(self):
        mesh = generate_mesh(2, 8, jitter=0.15, seed=3)
        spec = ProblemSpec("diffuse", materials=unit_material_table())
        A, _, _ = assemble_operator(mesh, spec)
        assert np.abs(A @ np.ones(mesh.n_nodes)).max() < 1e-12

    def test_linear_functions_in_kernel(self):
        mesh = generate_mesh(2, 8, jitter=0.15, seed=3)
        spec = ProblemSpec("diffuse", materials=unit_material_table())
        A, _, boundary = assemble_operator(mesh, spec)
        for axis in range(2):
            r = A @ mesh.node_coords[:, axis]
            assert np.abs(r[~boundary]).max() < 1e-11

    def test_zero_sigma_t_rejected(self, tri_single):
        table = {0: MaterialProperties(source=0.0, sigma_t=0.0, sigma_s=0.0)}
        with pytest.raises(ValueError, match="sigma_t"):
            assemble_operator(tri_single, ProblemSpec("diffuse", materials=table))

    def test_absorbing_nonsymmetric_with_advection(self):
        mesh = generate_mesh(2, 8, seed=1)
        A, b = assemble_problem(mesh, ProblemSpec("absorbing"))
        assert abs(A - A.T).max() > 1e-10

    def test_dirichlet_symmetric_elimination(self, poisson_problem):
        mesh, spec, A, b = poisson_problem
        assert abs(A - A.T).max() <= 1e-12 * abs(A).max()
        # boundary rows are decoupled
        _, _, boundary = assemble_operator(mesh, spec)
        idx = np.flatnonzero(boundary)[0]
        row = A.getrow(idx)
        assert row.nnz == 1 and row.indices[0] == idx
        assert b[idx] == 0.0


class TestFgmres:
    def test_identity_one_iteration(self):
        A = sp.eye(7, format="csr")
        b = np.arange(1.0, 8.0)
        x, res, it, conv = fgmres(A, b)
        assert it == 1 and conv
        assert np.allclose(x, b)

    def test_diagonal_krylov_dimension(self):
        A = sp.diags(np.arange(1.0, 6.0)).tocsr()
        x, res, it, conv = fgmres(A, np.ones(5))
        assert conv and it <= 5
        assert np.allclose(A @ x, np.ones(5), atol=1e-9)

    def test_zero_rhs(self):
        A = sp.eye(4, format="csr")
        x, res, it, conv = fgmres(A, np.zeros(4))
        assert conv and np.allclose(x, 0.0)

    def test_divergence_detected(self):
        A = sp.csr_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(DivergenceError):
            fgmres(A, np.ones(2))

    @pytest.mark.parametrize("restart", [0, -1])
    def test_restart_below_one_rejected(self, restart):
        with pytest.raises(ValueError, match=f"restart must be >= 1, got {restart}"):
            fgmres(sp.eye(3, format="csr"), np.ones(3), restart=restart)

    def test_matches_plain_gmres_with_identity_preconditioner(self):
        # independent textbook GMRES(30) oracle
        rng = np.random.default_rng(3)
        n = 40
        M = rng.standard_normal((n, n)) * 0.3 + np.diag(np.arange(2.0, n + 2))
        A = sp.csr_matrix(M)
        b = rng.standard_normal(n)

        def plain_gmres(A, b, m=30, tol=1e-10, maxiter=200):
            x = np.zeros(n)
            history = [1.0]
            bnorm = np.linalg.norm(b)
            iters = 0
            while iters < maxiter:
                r = b - A @ x
                beta = np.linalg.norm(r)
                V = [r / beta]
                H = np.zeros((m + 1, m))
                residual = beta
                j_done = 0
                for j in range(m):
                    w = A @ V[j]
                    for i in range(j + 1):
                        H[i, j] = w @ V[i]
                        w -= H[i, j] * V[i]
                    H[j + 1, j] = np.linalg.norm(w)
                    V.append(w / H[j + 1, j])
                    j_done = j + 1
                    iters += 1
                    e1 = np.zeros(j + 2)
                    e1[0] = beta
                    y, res_, *_ = np.linalg.lstsq(H[:j + 2, :j + 1], e1, rcond=None)
                    residual = np.linalg.norm(H[:j + 2, :j + 1] @ y - e1)
                    history.append(residual / bnorm)
                    if residual <= tol * bnorm or residual <= tol or iters >= maxiter:
                        break
                y, *_ = np.linalg.lstsq(H[:j_done + 1, :j_done],
                                        np.eye(j_done + 1)[:, 0] * beta, rcond=None)
                x = x + np.stack(V[:j_done], axis=1) @ y
                if residual <= tol * bnorm or residual <= tol:
                    break
            return x, history

        x1, res1, it1, conv1 = fgmres(A, b, None, restart=30, tol=1e-10)
        x2, res2 = plain_gmres(A, b)
        assert conv1
        m = min(len(res1), len(res2))
        assert np.allclose(res1[:m], res2[:m], rtol=1e-8, atol=1e-12)


class Counted:
    """An operator that counts its products."""

    def __init__(self, A):
        self.A, self.matvecs = A, 0

    def __matmul__(self, v):
        self.matvecs += 1
        return self.A @ v


def _jacobi(A, b):
    """The Jacobi-scaled system D^-1 A, D^-1 b that the V-cycle smooths."""
    d = A.diagonal()
    return sp.diags(1.0 / d) @ A, b / d


class TestCsrKernel:
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_equals_scipy_product_bit_for_bit(self, index_dtype):
        M = sp.random(30, 40, density=0.2, random_state=1, format="csr")
        M.indptr = M.indptr.astype(index_dtype)
        M.indices = M.indices.astype(index_dtype)
        kernel = _CsrKernel(M)
        v = np.random.default_rng(2).standard_normal(80)
        for vec in (v[:40], v[::2]):  # contiguous and strided
            assert np.array_equal(kernel @ vec, M @ vec)

    def test_wrong_length_rejected(self):
        kernel = _CsrKernel(sp.random(30, 40, density=0.2, random_state=1, format="csr"))
        for n in (39, 41):
            with pytest.raises(ValueError, match="40 columns"):
                kernel @ np.ones(n)


class TestSmoother:
    def test_exact_solution_unchanged(self):
        A = sp.diags(np.array([2.0, 3.0, 4.0])).tocsr()
        x = np.array([1.0, 1.0, 1.0])
        b = A @ x
        out, z = smooth(A, b, x.copy())
        assert np.allclose(out, x)
        assert np.array_equal(z, np.zeros(3))

    def test_diagonal_system_one_step(self):
        # Jacobi scaling turns a diagonal system into the identity
        A = sp.diags(np.array([2.0, 5.0, 9.0])).tocsr()
        b = np.array([2.0, 10.0, 27.0])
        out, _ = smooth(*_jacobi(A, b), np.zeros(3), inner=1)
        assert np.allclose(A @ out, b, atol=1e-12)

    def test_preconditioned_residual_monotone(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((30, 30))
        A = sp.csr_matrix(B @ B.T + 30 * np.eye(30))
        b = rng.standard_normal(30)
        S, c = _jacobi(A, b)
        x = rng.standard_normal(30)
        before = np.linalg.norm(c - S @ x)
        x1, z = smooth(S, c, x)
        after = np.linalg.norm(c - S @ x1)
        assert after <= before + 1e-13
        assert np.allclose(z, c - S @ x1, atol=1e-13)

    def test_inner_sets_arnoldi_steps(self):
        # one product for the residual unless x is None, then one per step;
        # more steps minimize over a larger Krylov space, so the residual
        # keeps falling
        rng = np.random.default_rng(7)
        B = rng.standard_normal((40, 40))
        A = sp.csr_matrix(B @ B.T + 40 * np.eye(40))
        S, c = _jacobi(A, rng.standard_normal(40))
        x0 = rng.standard_normal(40)
        residuals = []
        for k in (1, 3, 5):
            for applications in (1, 3):
                op = Counted(S)
                start = x0.copy()
                given = c.copy()
                x, _ = smooth(op, c, start, inner=k, applications=applications)
                assert op.matvecs == 1 + k * applications
                assert x is start  # updated in place
                op = Counted(S)
                smooth(op, c, None, inner=k, applications=applications)
                assert op.matvecs == k * applications
                assert np.array_equal(c, given)
                if applications == 1:
                    residuals.append(np.linalg.norm(c - S @ x))
        assert residuals[0] > residuals[1] > residuals[2]

    def test_divergence_detected(self):
        A = sp.csr_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(DivergenceError):
            smooth(A, np.ones(2), np.zeros(2))
        with pytest.raises(DivergenceError):
            smooth(A, np.ones(2), None)


def _reference_smooth(A, b, x, inner, applications):
    """Jacobi-GMRES(inner) restarted ``applications`` times, recomputing
    the scaled residual (b - A x)/d for every restart cycle."""
    d = A.diagonal()
    for _ in range(applications):
        x = _gmres_cycle(lambda v: (A @ v) / d, (b - A @ x) / d, x, inner)[0]
    return x


def _random_spd():
    B = np.random.default_rng(11).standard_normal((50, 50))
    return sp.csr_matrix(B @ B.T + 50 * np.eye(50))


def _absorbing_operator():
    A, _ = assemble_problem(generate_mesh(2, 8, jitter=0.2, seed=1),
                            ProblemSpec("absorbing"))
    return A


@pytest.mark.parametrize("make_operator", [_random_spd, _absorbing_operator],
                         ids=["spd", "absorbing"])
@pytest.mark.parametrize("applications", [1, 3])
@pytest.mark.parametrize("inner", [1, 3, 5])
def test_smooth_matches_restarted_gmres(make_operator, inner, applications):
    A = make_operator()
    n = A.shape[0]
    rng = np.random.default_rng(inner * 10 + applications)
    b = rng.standard_normal(n)
    S, c = _jacobi(A, b)
    x0 = rng.standard_normal(n)
    for start, ref_start in ((x0.copy(), x0), (None, np.zeros(n))):
        got, z = smooth(S, c, start, inner=inner, applications=applications)
        want = _reference_smooth(A, b, ref_start, inner, applications)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        # the carried residual drifts from the true one by rounding only
        residual = (b - A @ got) / A.diagonal()
        assert np.linalg.norm(z - residual) <= 1e-12 * np.linalg.norm(c)


def _reference_vcycle(hier, r, inner, applications):
    """The V-cycle in its textbook form: Jacobi-GMRES smoothing on A_k,
    the residual r - A_k x recomputed for the restriction P_k^T, and a
    dense solve on the coarsest level."""
    ops = [op.tocsr() for op in hier.operators]
    prolongations = hier.prolongations

    def cycle(k, r):
        if k == len(ops) - 1:
            return np.linalg.solve(ops[k].toarray(), r)
        A, P = ops[k], prolongations[k]
        x = _reference_smooth(A, r, np.zeros(len(r)), inner, applications)
        x = x + P @ cycle(k + 1, P.T @ (r - A @ x))
        return _reference_smooth(A, r, x, inner, applications)

    return cycle(0, r)


@pytest.fixture(scope="module")
def golden_box_2d():
    """The 2D fingerprint box (289 nodes) with a multilevel hierarchy."""
    mesh = generate_mesh(2, **MESHES[2])
    spec = ProblemSpec("diffuse")
    A, b = assemble_problem(mesh, spec)
    hier = build_hierarchy(mesh, CoarsenConfig("node", seed=1),
                           materials=spec.materials, operator=A)
    return hier, b


class TestVCycle:
    def test_single_level_is_direct_solve(self):
        mesh = generate_mesh(2, 5, extent=1.0)  # 36 nodes -> one level
        spec = ProblemSpec("diffuse")
        A, b = assemble_problem(mesh, spec)
        hier = build_hierarchy(mesh, CoarsenConfig("greedy"), operator=A)
        assert hier.n_levels == 1
        M = VCyclePreconditioner(hier)
        z = M(b)
        assert np.allclose(A @ z, b, atol=1e-10)

    def test_inner_below_one_rejected(self, golden_box_2d):
        hier, _ = golden_box_2d
        with pytest.raises(ValueError, match=">= 1, got 0"):
            VCyclePreconditioner(hier, inner=0)

    def test_zero_rhs_zero_correction(self, poisson_problem):
        mesh, spec, A, b = poisson_problem
        hier = build_hierarchy(mesh, CoarsenConfig("greedy", seed=1),
                               materials=spec.materials, operator=A)
        M = VCyclePreconditioner(hier)
        assert np.allclose(M(np.zeros_like(b)), 0.0)

    def test_coarsest_size_guard(self):
        mesh = generate_mesh(2, 50, jitter=0.1, seed=1)  # 2601 nodes
        A, _ = assemble_problem(mesh, ProblemSpec("diffuse"))
        hier = build_hierarchy(mesh, CoarsenConfig("sizebased", seed=1),
                               operator=A, stop=StopRule(coarse_nodes=10 ** 6))
        # a single-level "hierarchy" of this size exceeds the LU budget
        assert hier.n_levels == 1
        with pytest.raises(ValueError, match="coarsest") as err:
            VCyclePreconditioner(hier)
        assert isinstance(err.value, CoarsestLevelError)
        assert "sizebased" in str(err.value)
        assert "no coarse level was built" in str(err.value)
        assert str(hier.node_counts) in str(err.value)

    def test_coarsest_size_guard_names_stagnation(self):
        # rgb on a 3D box removes under 10% of the nodes and stops
        mesh = generate_mesh(3, 12, jitter=0.2, seed=1)
        A, _ = assemble_problem(mesh, ProblemSpec("diffuse"))
        hier = build_hierarchy(mesh, CoarsenConfig("rgb", seed=1), operator=A)
        a, b = hier.node_counts
        with pytest.raises(CoarsestLevelError, match="coarsest") as err:
            VCyclePreconditioner(hier)
        assert f"{a} -> {b} nodes on the last level: coarsening stagnated" in str(err.value)

    def test_zero_diagonal_rejected(self, poisson_problem):
        mesh, spec, A, _ = poisson_problem
        node = np.flatnonzero(~boundary_node_mask(mesh))[0]
        A = A.tolil()
        A[node, node] = 0.0
        hier = build_hierarchy(mesh, CoarsenConfig("greedy", seed=1),
                               materials=spec.materials, operator=A.tocsr())
        assert hier.n_levels > 1
        with pytest.raises(ValueError, match="zero diagonal"):
            VCyclePreconditioner(hier)

    def test_wrong_shaped_residual_rejected(self, golden_box_2d):
        hier, b = golden_box_2d
        M = VCyclePreconditioner(hier)
        for n in (1, len(b) + 1):
            with pytest.raises(ValueError, match="shape"):
                M(np.ones(n))

    def test_non_finite_residual_diverges(self, golden_box_2d):
        single = generate_mesh(2, 5, extent=1.0)  # 36 nodes -> one level
        A, _ = assemble_problem(single, ProblemSpec("diffuse"))
        one_level = build_hierarchy(single, CoarsenConfig("greedy"), operator=A)
        hier, _ = golden_box_2d
        assert one_level.n_levels == 1 and hier.n_levels > 1
        for h in (one_level, hier):
            M = VCyclePreconditioner(h)
            for bad in (np.nan, np.inf):
                r = np.ones(h.node_counts[0])
                r[3] = bad
                with pytest.raises(DivergenceError, match="non-finite"):
                    M(r)

    @pytest.mark.parametrize("inner,applications",
                             [(inner, SMOOTHING_APPLICATIONS) for inner in (1, 2, 3)])
    def test_products_per_level(self, golden_box_2d, inner, applications):
        # the pre-smoother's residual is restricted as it is: no product
        # recomputes it, so a level makes 2 * applications * inner + 1
        hier, b = golden_box_2d
        M = VCyclePreconditioner(hier, inner=inner)
        for ops in (M.operators, M.restrictions, M.prolongations):
            ops[:] = [Counted(op) for op in ops]
        M(b)
        assert len(M.operators) == hier.n_levels - 1
        assert [op.matvecs for op in M.operators] == \
            [2 * applications * inner + 1] * len(M.operators)
        assert [op.matvecs for op in M.restrictions + M.prolongations] == \
            [1] * (2 * len(M.operators))

    @pytest.mark.parametrize("problem", ["diffuse", "absorbing"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_reference_vcycle(self, dim, problem):
        mesh = generate_mesh(dim, **MESHES[dim])
        spec = ProblemSpec(problem)
        A, _ = assemble_problem(mesh, spec)
        r = np.random.default_rng(dim).standard_normal(mesh.n_nodes)
        for alg in ALGORITHMS:
            hier = build_hierarchy(mesh, CoarsenConfig(alg, seed=1),
                                   materials=spec.materials, operator=A)
            for inner in (1, 3):
                got = VCyclePreconditioner(hier, inner=inner)(r)
                want = _reference_vcycle(hier, r, inner, 3)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), \
                    (alg, inner)

    def test_galerkin_consistency_on_levels(self, poisson_problem):
        mesh, spec, A, b = poisson_problem
        hier = build_hierarchy(mesh, CoarsenConfig("sizebased", seed=2),
                               materials=spec.materials, operator=A)
        rng = np.random.default_rng(0)
        Af = A
        for lvl in hier.levels:
            P = lvl.prolongation
            Ac = lvl.operator
            for _ in range(5):
                xc = rng.standard_normal(P.shape[1])
                direct = Ac @ xc
                composed = P.T @ (Af @ (P @ xc))
                denom = max(np.abs(direct).max(), 1e-300)
                assert np.abs(direct - composed).max() <= 1e-12 * denom
            Af = Ac


class TestSolveProblem:
    def test_diffuse_report_contract(self):
        mesh = generate_mesh(2, 32, jitter=0.2, seed=8)
        x, report, hier = solve_problem(mesh, ProblemSpec("diffuse"),
                                        CoarsenConfig("sizebased", desired_size=24,
                                                      seed=1))
        assert report.converged
        # converged means relative or absolute residual under tolerance
        _, b = assemble_problem(mesh, ProblemSpec("diffuse"))
        rel = report.residuals[-1]
        assert rel <= 1e-10 or rel * np.linalg.norm(b) <= 1e-10
        assert report.setup_time_s > 0 and report.solve_time_s > 0
        assert report.levels == hier.n_levels
        assert report.meta["setup_includes_galerkin_products"] is True
        assert report.meta["grid_complexity"] == grid_complexity(hier)
        assert report.meta["operator_complexity"] == operator_complexity(hier)
        assert report.meta["stop_reason"] == hier.stop_reason == "coarse_nodes"

    def test_preconditioning_beats_unpreconditioned(self):
        mesh = generate_mesh(2, 32, jitter=0.2, seed=8)
        spec = ProblemSpec("diffuse")
        A, b = assemble_problem(mesh, spec)
        hier = build_hierarchy(mesh, CoarsenConfig("sizebased", desired_size=24,
                                                   seed=1),
                               materials=spec.materials, operator=A)
        M = VCyclePreconditioner(hier)
        _, _, it_pre, conv_pre = fgmres(A, b, M)
        _, _, it_raw, conv_raw = fgmres(A, b, None, maxiter=400)
        assert conv_pre
        assert it_pre < it_raw or not conv_raw

    def test_absorbing_problem_properties(self):
        # the absorbing substitute is advection-diffusion-reaction: its
        # reaction term actually improves conditioning relative to the
        # pure-diffusion problem, so unlike the transport original its
        # iteration count is not required to exceed the diffuse one;
        # acceptance here is property-based
        mesh = generate_mesh(2, 48, jitter=0.2, seed=8)
        cfg = CoarsenConfig("sizebased", desired_size=24, seed=1)
        _, rep_d, _ = solve_problem(mesh, ProblemSpec("diffuse"), cfg)
        _, rep_a, _ = solve_problem(mesh, ProblemSpec("absorbing"), cfg)
        assert rep_d.converged and rep_a.converged
        assert rep_a.problem == "absorbing"
        A, _ = assemble_problem(mesh, ProblemSpec("absorbing"))
        assert abs(A - A.T).max() > 1e-10  # advection present

    def test_determinism(self):
        mesh = generate_mesh(2, 24, jitter=0.2, seed=4)
        cfg = CoarsenConfig("greedy", seed=9)
        x1, r1, _ = solve_problem(mesh, ProblemSpec("diffuse"), cfg)
        x2, r2, _ = solve_problem(mesh, ProblemSpec("diffuse"), cfg)
        assert np.array_equal(x1, x2)
        assert r1.iterations == r2.iterations
        assert r1.residuals == r2.residuals


class TestMms:
    def test_2d_slope_near_two(self):
        slope, points = mms_convergence((8, 16, 32), dim=2)
        assert slope == pytest.approx(2.0, abs=0.2)
        errors = [e for _, e in points]
        assert errors[0] > errors[1] > errors[2]

    def test_zero_source_gives_zero_solution(self):
        # zero manufactured solution: zero load, zero discrete solution,
        # zero error
        import scipy.sparse.linalg as spla
        mesh = generate_mesh(2, 8, extent=1.0)
        spec = ProblemSpec("diffuse", materials=unit_material_table())
        A, _, boundary = assemble_operator(mesh, spec)
        A_bc, b_bc = apply_dirichlet(A, np.zeros(mesh.n_nodes), boundary)
        u = spla.spsolve(A_bc.tocsc(), b_bc)
        assert np.abs(u).max() == 0.0

    def test_slope_is_best_fit_line(self):
        hs = np.array([0.2, 0.1, 0.05])
        errs = 3.0 * hs ** 2
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        assert slope == pytest.approx(2.0, abs=1e-12)
