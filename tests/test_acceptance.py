"""Acceptance suite: one test per criterion, at the stated tolerances.

The reference meshes mirror the published experiment scales: a jittered
2D box mesh with >= 50k triangles and a 3D box mesh with >= 100k
tetrahedra. Heavy artifacts (meshes, topologies, hierarchies) are session
fixtures shared across criteria. Each test ends by printing one PASS line
with the measured values (visible with -s or in the captured section).
"""
import numpy as np
import pytest
import scipy.sparse as sp

from agglomg import agglomerate as ag
from agglomg import hierarchy as hi
from agglomg import partitioner as pt
from agglomg.agglomerate import ALGORITHMS, Agglomeration, CoarsenConfig
from agglomg.hierarchy import (LevelSchedule, StopRule, build_hierarchy,
                               grid_complexity, select_coarse_faces)
from agglomg.mesh import LevelTopology, generate_mesh, mesh_metrics
from agglomg.solver import (ProblemSpec, VCyclePreconditioner, assemble_problem, fgmres,
                            mms_convergence)

from invariants import check_hierarchy, check_transfers, coarse_nodes

SEEDED_ALGORITHMS = ("rgb", "node", "greedy", "sizebased", "aspect")
DETERMINISTIC_ALGORITHMS = ("jones", "kraus")
N_SEEDS = 100


def report(criterion, message):
    print(f"[criterion {criterion:02d}] PASS - {message}")


# ---------------------------------------------------------------------------
# shared heavy fixtures

@pytest.fixture(scope="session")
def mesh2d_ref():
    """>= 50k-element unstructured 2D mesh (51200 triangles)."""
    return generate_mesh(2, 160, jitter=0.2, seed=11)


@pytest.fixture(scope="session")
def topo2d_ref(mesh2d_ref):
    return LevelTopology.from_mesh(mesh2d_ref)


@pytest.fixture(scope="session")
def mesh3d_ref():
    """>= 100k-tet unstructured 3D mesh (105456 tetrahedra)."""
    return generate_mesh(3, 26, jitter=0.2, seed=3)


@pytest.fixture(scope="session")
def topo3d_ref(mesh3d_ref):
    return LevelTopology.from_mesh(mesh3d_ref)


@pytest.fixture(scope="session")
def hier2d_by_size(mesh2d_ref, topo2d_ref):
    """2D sizebased hierarchies for top sizes 4/24/100 with lower size 4."""
    out = {}
    for s in (4, 24, 100):
        out[s] = build_hierarchy(
            mesh2d_ref, CoarsenConfig("sizebased", desired_size=s, seed=1),
            schedule=LevelSchedule(top=s, lower=4),
            fine_topology=topo2d_ref)
    return out


@pytest.fixture(scope="session")
def hier3d_sizebased(mesh3d_ref, topo3d_ref):
    return build_hierarchy(
        mesh3d_ref, CoarsenConfig("sizebased", desired_size=168, seed=1),
        schedule=LevelSchedule(top=168, lower=8),
        fine_topology=topo3d_ref)


@pytest.fixture(scope="session")
def hier3d_jones(mesh3d_ref, topo3d_ref):
    return build_hierarchy(mesh3d_ref, CoarsenConfig("jones", seed=1),
                           fine_topology=topo3d_ref)


@pytest.fixture(scope="session")
def diffuse_system_2d(mesh2d_ref):
    spec = ProblemSpec("diffuse")
    A, b = assemble_problem(mesh2d_ref, spec)
    return spec, A, b


# ---------------------------------------------------------------------------

class TestCriterion01PartitionValidity:
    """7 algorithms x 100 seeds x {2D n=32, 3D n=10}: every level's
    agglomeration is total, contiguous and densely numbered, and every
    agglomerate owns a coarse node. Transfer checks run inline (criterion 6
    applies to every hierarchy built here)."""

    @pytest.fixture(scope="class")
    @staticmethod
    def small_cases():
        m2 = generate_mesh(2, 32, jitter=0.2, seed=1)
        m3 = generate_mesh(3, 10, jitter=0.2, seed=2)
        return [(m2, LevelTopology.from_mesh(m2)),
                (m3, LevelTopology.from_mesh(m3))]

    def test_seeded_algorithms_all_seeds(self, small_cases):
        checked = 0
        for mesh, topo in small_cases:
            s_top = 24 if mesh.dim == 2 else 168
            for alg in SEEDED_ALGORITHMS:
                for seed in range(N_SEEDS):
                    h = build_hierarchy(
                        mesh, CoarsenConfig(alg, desired_size=s_top, seed=seed),
                        fine_topology=topo)
                    check_hierarchy(h)
                    checked += 1
        report(1, f"{checked} seeded hierarchies valid on all levels "
                  f"({N_SEEDS} seeds x {len(SEEDED_ALGORITHMS)} algorithms x 2 meshes)")

    def test_deterministic_algorithms(self, small_cases):
        # jones and kraus take no random input: one run covers every seed,
        # plus an explicit repeat to confirm the map is seed-independent
        for mesh, topo in small_cases:
            for alg in DETERMINISTIC_ALGORITHMS:
                h1 = build_hierarchy(mesh, CoarsenConfig(alg, seed=0),
                                     fine_topology=topo)
                h2 = build_hierarchy(mesh, CoarsenConfig(alg, seed=999),
                                     fine_topology=topo)
                check_hierarchy(h1)
                for l1, l2 in zip(h1.levels, h2.levels):
                    assert np.array_equal(l1.agglomeration.element_to_agg,
                                          l2.agglomeration.element_to_agg)
        report(1, "jones/kraus hierarchies valid; output independent of the seed")


class TestCriterion02SizeBasedContract:
    def test_exact_part_count_and_average(self, topo2d_ref):
        lines = []
        for s in (8, 24):
            pre = Agglomeration(ag._sizebased(topo2d_ref, s, 1))
            expected = topo2d_ref.n_elements // s
            assert pre.n_agglomerates == expected, \
                f"pre-cleanup count {pre.n_agglomerates} != floor(n/s) = {expected}"
            post, _ = ag.cleanup(topo2d_ref, pre)
            avg = topo2d_ref.n_elements / post.n_agglomerates
            assert abs(avg - s) / s <= 0.10, f"average {avg:.2f} off 10% of {s}"
            lines.append(f"s={s}: parts {expected}, post-cleanup avg {avg:.2f}")
        report(2, "; ".join(lines))


class TestCriterion03ConnectivityPhaseChange:
    def test_2d(self, mesh2d_ref, topo2d_ref, hier2d_by_size):
        pre = mesh_metrics(topo2d_ref)
        assert 0.45 <= pre.node_element_ratio <= 0.55
        assert 5.5 <= pre.average_connectivity <= 6.5
        posts = []
        for s in (8, 24, 100):
            if s in hier2d_by_size:
                lvl = hier2d_by_size[s].levels[0]
            else:
                h = build_hierarchy(
                    mesh2d_ref, CoarsenConfig("sizebased", desired_size=s, seed=1),
                    schedule=LevelSchedule(top=s, lower=4),
                    stop=StopRule(max_levels=2), fine_topology=topo2d_ref)
                lvl = h.levels[0]
            post = mesh_metrics(lvl.topology)
            assert post.node_element_ratio > 1.0, \
                f"s={s}: post ratio {post.node_element_ratio:.2f} not > 1"
            assert post.average_connectivity < 4.5, \
                f"s={s}: post connectivity {post.average_connectivity:.2f}"
            posts.append(f"s={s}: ratio {post.node_element_ratio:.2f}, "
                         f"conn {post.average_connectivity:.2f}")
        report(3, f"2D pre ratio {pre.node_element_ratio:.3f}, "
                  f"conn {pre.average_connectivity:.2f}; post " + "; ".join(posts))

    def test_3d(self, topo3d_ref, hier3d_sizebased):
        pre = mesh_metrics(topo3d_ref)
        assert 0.15 <= pre.node_element_ratio <= 0.25
        assert 16.0 <= pre.average_connectivity <= 24.0
        post = mesh_metrics(hier3d_sizebased.levels[0].topology)
        assert post.node_element_ratio > 1.0
        report(3, f"3D pre ratio {pre.node_element_ratio:.3f}, "
                  f"conn {pre.average_connectivity:.1f}; "
                  f"post ratio {post.node_element_ratio:.2f}")


class TestCriterion04GridComplexityBands:
    BANDS_2D = {4: (1.8, 2.2), 24: (1.1, 1.35), 100: (1.0, 1.12)}

    def test_2d_bands_and_monotonicity(self, hier2d_by_size):
        values = {}
        for s, (lo, hi_b) in self.BANDS_2D.items():
            gc = grid_complexity(hier2d_by_size[s])
            assert lo <= gc <= hi_b, f"s={s}: complexity {gc:.3f} outside [{lo},{hi_b}]"
            values[s] = gc
        assert values[4] > values[24] > values[100], "not strictly decreasing"
        report(4, "2D complexities " + ", ".join(
            f"s={s}: {values[s]:.3f}" for s in (4, 24, 100)))

    def test_3d_band(self, hier3d_sizebased):
        gc = grid_complexity(hier3d_sizebased)
        assert 1.15 <= gc <= 1.45, f"3D complexity {gc:.3f} outside [1.15, 1.45]"
        report(4, f"3D s=168 complexity {gc:.3f} in [1.15, 1.45]")


class TestCriterion05StructuredLimit:
    def test_geometric_sequences(self):
        counts_2d = [4 ** k for k in range(4, -1, -1)]
        gc2 = grid_complexity(counts_2d)
        assert abs(gc2 - 4 / 3) / (4 / 3) <= 0.01
        counts_3d = [8 ** k for k in range(4, -1, -1)]
        gc3 = grid_complexity(counts_3d)
        assert abs(gc3 - 8 / 7) / (8 / 7) <= 0.01
        report(5, f"N/4^k -> {gc2:.5f} (4/3 within 1%); "
                  f"N/8^k -> {gc3:.5f} (8/7 within 1%)")


class TestCriterion06TransferExactness:
    def test_all_retained_hierarchies(self, hier2d_by_size, hier3d_sizebased,
                                      hier3d_jones):
        hierarchies = list(hier2d_by_size.values()) + [hier3d_sizebased,
                                                       hier3d_jones]
        levels = 0
        for h in hierarchies:
            topo = h.fine_topology
            for lvl in h.levels:
                check_transfers(lvl, topo.n_nodes)
                topo = lvl.topology
                levels += 1
        report(6, f"transpose/row-sum/injection exact on {levels} levels over "
                  f"{len(hierarchies)} hierarchies (criterion 1 re-checks inline)")


class TestCriterion07GalerkinCorrectness:
    def test_triple_product_and_symmetry(self, mesh2d_ref, topo2d_ref,
                                         diffuse_system_2d):
        spec, A, b = diffuse_system_2d
        h = build_hierarchy(mesh2d_ref,
                            CoarsenConfig("sizebased", desired_size=24, seed=1),
                            materials=spec.materials, operator=A,
                            fine_topology=topo2d_ref)
        rng = np.random.default_rng(0)
        Af = A
        checked = 0
        for lvl in h.levels:
            P = lvl.prolongation
            Ac = lvl.operator
            scale = abs(Ac).max()
            assert abs(Ac - Ac.T).max() <= 1e-12 * scale, "coarse operator asymmetric"
            for _ in range(20):
                xc = rng.standard_normal(P.shape[1])
                direct = Ac @ xc
                composed = P.T @ (Af @ (P @ xc))
                denom = max(float(np.abs(direct).max()), 1e-300)
                assert np.abs(direct - composed).max() <= 1e-12 * denom
                checked += 1
            Af = Ac
        report(7, f"A_c x = P^T(A(Px)) on {checked} random vectors; symmetry held")

    def test_1d_hand_oracle(self):
        A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        P = sp.csr_matrix(np.array([[1.0], [1.0]]))
        Ac = hi.galerkin_operator(A, P)
        assert Ac.shape == (1, 1) and Ac[0, 0] == 2.0
        report(7, "1D aggregation oracle A_c = [2] reproduced exactly")


class TestCriterion08CoarseNodeRuleOracle:
    def test_block_corners_exact(self):
        mesh = generate_mesh(2, 4, extent=1.0)
        topo = LevelTopology.from_mesh(mesh)
        cells = np.stack(np.meshgrid(np.arange(4), np.arange(4), indexing="ij"),
                         axis=-1).reshape(-1, 2)
        block = (cells[:, 0] // 2) * 2 + cells[:, 1] // 2
        agg = Agglomeration(np.repeat(block, 2))
        cfs = select_coarse_faces(topo, agg)
        nodes = coarse_nodes(topo, agg, cfs)
        expected = sorted(i * 5 + j for i in (0, 2, 4) for j in (0, 2, 4))
        assert sorted(int(v) for v in nodes) == expected
        report(8, f"2x2-block corners selected exactly: {expected}")


class TestCriterion09SolverEndToEnd:
    def test_sizebased_iteration_bound(self, mesh2d_ref, topo2d_ref,
                                       diffuse_system_2d):
        spec, A, b = diffuse_system_2d
        # the stop rule is configuration: stopping once a level fits the
        # coarsest direct solve (the V-cycle's stated 2000-unknown budget)
        # avoids piling weakly-interpolating deep levels onto the cycle
        hier = build_hierarchy(mesh2d_ref,
                               CoarsenConfig("sizebased", desired_size=24, seed=1),
                               materials=spec.materials, operator=A,
                               stop=StopRule(coarse_nodes=2000),
                               fine_topology=topo2d_ref)
        M = VCyclePreconditioner(hier, inner=3)
        x, res, iters, conv = fgmres(A, b, M, restart=30, tol=1e-10, atol=0.0)
        assert conv, "did not converge"
        assert res[-1] <= 1e-10, f"relative residual {res[-1]:.2e}"
        assert iters <= 25, f"{iters} iterations > 25"

        _, _, iters_raw, conv_raw = fgmres(A, b, None, restart=30, tol=1e-10,
                                           atol=0.0, maxiter=500)
        # the unpreconditioned count is a lower bound when it hits the cap
        assert iters <= iters_raw // 2, \
            f"preconditioned {iters} not half of unpreconditioned {iters_raw}"
        report(9, f"sizebased s=24: {iters} iterations to rel 1e-10 "
                  f"(unpreconditioned: {iters_raw}{'' if conv_raw else '+, capped'})")

    def test_all_seven_algorithms_converge(self, mesh2d_ref, topo2d_ref,
                                           diffuse_system_2d):
        spec, A, b = diffuse_system_2d
        counts = {}
        for alg in ALGORITHMS:
            hier = build_hierarchy(mesh2d_ref,
                                   CoarsenConfig(alg, desired_size=24, seed=1),
                                   materials=spec.materials, operator=A,
                                   fine_topology=topo2d_ref)
            M = VCyclePreconditioner(hier, inner=3)
            x, res, iters, conv = fgmres(A, b, M, restart=30, tol=1e-10, atol=0.0)
            assert conv, f"{alg} failed to converge"
            counts[alg] = iters
        report(9, "all 7 converge: " + ", ".join(
            f"{alg}={it}" for alg, it in counts.items()))


class TestCriterion10QualitativeOrdering3D:
    def test_jones_vs_sizebased(self, hier3d_jones, hier3d_sizebased,
                                topo3d_ref):
        gc_j = grid_complexity(hier3d_jones)
        gc_s = grid_complexity(hier3d_sizebased)
        assert gc_j >= 1.5 * gc_s, f"jones {gc_j:.3f} < 1.5 x {gc_s:.3f}"
        stats = ag.agglomerate_stats(topo3d_ref,
                                     hier3d_jones.levels[0].agglomeration)
        assert stats.average_size < 12.0, \
            f"jones average size {stats.average_size:.2f} >= 12"
        report(10, f"jones gc {gc_j:.3f} >= 1.5 x sizebased gc {gc_s:.3f} "
                   f"(ratio {gc_j / gc_s:.2f}); jones avg size "
                   f"{stats.average_size:.2f} < 12")


class TestCriterion11DiscretisationOracle:
    def test_mms_slope(self):
        slope, points = mms_convergence((8, 16, 32), dim=2)
        assert abs(slope - 2.0) <= 0.2, f"slope {slope:.3f} outside 2.0 +/- 0.2"
        report(11, f"L2 slope {slope:.3f} over refinements "
                   + ", ".join(f"h=1/{int(1/h)}" for h, _ in points))


class TestCriterion12PartitionerOracle:
    def test_bisection_within_2x_of_brute_force(self):
        worst = 0.0
        for seed in range(50):
            mesh = generate_mesh(2, 2, extent=1.0, jitter=0.3, seed=seed)
            topo = LevelTopology.from_mesh(mesh)
            graph = pt.scale_weights(topo.dual)
            assert graph.n <= 14
            opt = self._brute_force(graph)
            got = pt.edge_cut(graph, pt.partition_kway(graph, 2, seed=seed))
            assert got <= 2 * opt, f"seed {seed}: cut {got} > 2 x optimum {opt}"
            worst = max(worst, got / opt)
        report(12, f"50 meshes, k=2: worst cut ratio {worst:.2f} (<= 2.0)")

    @staticmethod
    def _brute_force(graph):
        total = int(graph.vwgt.sum())
        (lo, _), (hi_b, _) = pt.balance_bounds([total / 2] * 2, int(graph.vwgt.max()))
        best = None
        for bits in range(1, 2 ** (graph.n - 1)):
            side = np.array([(bits >> i) & 1 for i in range(graph.n)],
                            dtype=np.int64)
            w0 = int(graph.vwgt[side == 0].sum())
            if not (lo <= w0 <= hi_b and lo <= total - w0 <= hi_b):
                continue
            cut = pt.edge_cut(graph, side)
            if best is None or cut < best:
                best = cut
        return best
