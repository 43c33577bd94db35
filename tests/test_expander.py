"""Expander machinery: rotations, transitions, spectra, masked-norm contraction."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import walkbound as wb
from walkbound.errors import BudgetError, ParameterError, StructuralError
from walkbound import expander


def torus_adjacency_oracle(m):
    """Direct adjacency construction from the affine maps, no rotation tables."""
    side = 1 << m
    n = side * side
    a = np.zeros((n, n))
    for x in range(side):
        for y in range(side):
            u = x * side + y
            for vx, vy in [
                ((x + 2 * y) % side, y),
                ((x - 2 * y) % side, y),
                ((x + 2 * y + 1) % side, y),
                ((x - 2 * y - 1) % side, y),
                (x, (y + 2 * x) % side),
                (x, (y - 2 * x) % side),
                (x, (y + 2 * x + 1) % side),
                (x, (y - 2 * x - 1) % side),
            ]:
                a[u, vx * side + vy] += 1 / 8
    return a


def complete_graph(n):
    a = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    return wb.TransitionMatrix(a)


class TestRotation:
    def test_involution_exhaustive(self, rot2):
        for u in range(rot2.n_vertices):
            for j in range(rot2.d):
                v, k = rot2.rotate(u, j)
                assert rot2.rotate(v, k) == (u, j)

    def test_golden_rotations_m2(self, rot2):
        # frozen from the first verified build of the affine maps
        assert rot2.rotate(0, 0) == (0, 1)
        assert rot2.rotate(4, 0) == (4, 1)
        assert rot2.rotate(4, 1) == (4, 0)
        assert rot2.rotate(6, 2) == (10, 3)
        assert rot2.rotate(1, 0) == (9, 1)
        assert rot2.rotate(5, 4) == (7, 5)
        assert rot2.rotate(15, 7) == (12, 6)

    def test_range_validation(self, rot2):
        with pytest.raises(StructuralError):
            rot2.rotate(16, 0)
        with pytest.raises(StructuralError):
            rot2.rotate(0, 8)

    def test_m_validation(self):
        with pytest.raises(ParameterError):
            wb.mgg_rotation(0)

    def test_broken_rotation_rejected(self):
        nb = np.array([[1, 2], [2, 0], [0, 1]])   # directed 3-cycle, not an involution
        bl = np.zeros((3, 2), dtype=int)
        with pytest.raises(StructuralError):
            wb.ColoredRotation(m=0, n_vertices=3, d=2, neighbors=nb, back_labels=bl)

    def test_from_function_matches_tables(self, rot2):
        rebuilt = wb.ColoredRotation.from_function(2, 16, 8, rot2.rotate)
        assert np.array_equal(rebuilt.neighbors, rot2.neighbors)
        assert np.array_equal(rebuilt.back_labels, rot2.back_labels)

    def test_k4_rotation(self):
        rot = wb.k4_rotation()
        assert rot.rotate(0, 0) == (1, 0)
        assert rot.rotate(2, 2) == (1, 2)


class TestTransitionMatrix:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_direct_adjacency_oracle(self, m):
        tm = wb.transition_matrix(wb.mgg_rotation(m))
        assert np.array_equal(tm.entries, torus_adjacency_oracle(m))

    def test_doubly_stochastic_and_symmetric(self, rot2):
        a = wb.transition_matrix(rot2).entries
        assert np.allclose(a.sum(axis=0), 1.0, atol=1e-15)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-15)
        assert np.array_equal(a, a.T)

    def test_entries_are_eighths(self, rot2):
        a = wb.transition_matrix(rot2).entries
        assert np.array_equal(a * 8, np.round(a * 8))

    def test_asymmetric_rejected_unless_directed(self):
        a = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(StructuralError):
            wb.TransitionMatrix(a)
        assert wb.TransitionMatrix(a, directed=True).n_dim == 3

    def test_non_stochastic_rejected(self):
        with pytest.raises(StructuralError):
            wb.TransitionMatrix(np.eye(3) * 0.5)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_nonzeros_in_row_major_order(self, m):
        tm = wb.transition_matrix(wb.mgg_rotation(m))
        oracle = torus_adjacency_oracle(m)
        rows, cols = np.nonzero(oracle)
        assert np.array_equal(tm.rows, rows) and np.array_equal(tm.cols, cols)
        assert np.array_equal(tm.vals, oracle[rows, cols])

    def test_unordered_nonzeros_rejected(self):
        with pytest.raises(StructuralError):
            wb.TransitionMatrix.from_triples(2, [1, 0], [1, 0], [1.0, 1.0])


class TestSpectrum:
    def test_k4_alpha_exact(self):
        rep = wb.second_eigenvalue_magnitude(wb.transition_matrix(wb.k4_rotation()))
        assert abs(rep.alpha - 1 / 3) <= 1e-12
        assert rep.method == "full-eigensolve"
        assert rep.beta == 1.0 - rep.alpha

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_complete_graph_alpha(self, n):
        rep = wb.second_eigenvalue_magnitude(complete_graph(n))
        assert abs(rep.alpha - 1 / (n - 1)) <= 1e-12

    def test_lazy_uniform_matrix(self):
        a = 0.5 * np.eye(4) + 0.5 * np.full((4, 4), 0.25)
        rep = wb.second_eigenvalue_magnitude(wb.TransitionMatrix(a))
        assert abs(rep.alpha - 0.5) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_family_alpha_below_bound(self, m):
        rep = wb.second_eigenvalue_magnitude(wb.transition_matrix(wb.mgg_rotation(m)))
        assert rep.alpha <= wb.ALPHA_FAMILY_BOUND + 1e-6
        assert rep.beta > 0.11

    def test_power_iteration_agrees_with_dense(self, monkeypatch):
        tm = wb.transition_matrix(wb.mgg_rotation(3))
        dense = wb.second_eigenvalue_magnitude(tm)
        monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 16)
        power = wb.second_eigenvalue_magnitude(tm, tol=1e-10)
        assert power.method == "lanczos" and power.converged
        assert abs(power.alpha - dense.alpha) <= 1e-6
        assert abs(power.lambda_min - dense.lambda_min) <= 1e-6

    @pytest.mark.parametrize("route", ["dense", "power"])
    def test_bipartite_rejected(self, monkeypatch, route):
        if route == "power":
            monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 0)
        cycle = np.zeros((4, 4))
        for i in range(4):
            cycle[i, (i + 1) % 4] = cycle[i, (i - 1) % 4] = 0.5
        with pytest.raises(StructuralError, match="bipartite"):
            wb.second_eigenvalue_magnitude(wb.TransitionMatrix(cycle))

    @pytest.mark.parametrize("route", ["dense", "power"])
    def test_disconnected_rejected(self, monkeypatch, route):
        if route == "power":
            monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 0)
        two = np.kron(np.eye(2), complete_graph(3).entries)
        with pytest.raises(StructuralError, match="connected"):
            wb.second_eigenvalue_magnitude(wb.TransitionMatrix(two))

    def test_directed_rejected(self):
        a = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(StructuralError):
            wb.second_eigenvalue_magnitude(wb.TransitionMatrix(a, directed=True))

    def test_power_route_memory_is_linear_in_the_edges(self):
        # N = 4096: a dense N x N matrix alone would take 128 MiB
        tracemalloc.start()
        try:
            rep = wb.second_eigenvalue_magnitude(wb.transition_matrix(wb.mgg_rotation(6)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.method == "lanczos" and rep.converged
        assert peak < 32 * 2 ** 20


def lifted(f, m):
    """``f`` on level m-1 read through the covering map: both coordinates of a
    level-m vertex reduced mod 2**(m-1)."""
    half = 1 << (m - 1)
    idx = np.arange(4 ** m)
    x, y = idx >> m, idx & ((1 << m) - 1)
    return f[(x % half) * half + y % half]


class TestLanczos:
    @pytest.mark.parametrize(
        "tm",
        [wb.transition_matrix(wb.k4_rotation())]
        + [wb.transition_matrix(wb.mgg_rotation(m)) for m in range(1, 6)]
        + [complete_graph(n) for n in (3, 4, 5, 8)],
        ids=["K4"] + [f"torus-m{m}" for m in range(1, 6)] + [f"complete-{n}" for n in (3, 4, 5, 8)],
    )
    def test_matches_dense(self, monkeypatch, tm):
        evals = np.linalg.eigvalsh(tm.entries)
        monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 0)
        rep = wb.second_eigenvalue_magnitude(tm)
        assert rep.method == "lanczos" and rep.converged
        assert rep.matvecs == {"lanczos": rep.iterations}
        assert abs(rep.lambda_second - evals[-2]) <= 1e-9
        assert abs(rep.lambda_min - evals[0]) <= 1e-9
        assert abs(rep.alpha - max(abs(evals[-2]), abs(evals[0]))) <= 1e-9

    def test_both_ends_are_certified(self):
        # the top is isolated and converges in a few steps; the bottom sits
        # 1e-5 from its neighbor and needs many more
        lam = np.concatenate([[1.0], np.linspace(-0.5, 0.5, 298), [-0.50001]])
        top, bottom, steps, converged = expander._lanczos_extremes(
            lambda v: lam * v, lambda v: v, lam.size, 1e-10)
        assert converged and steps <= lam.size
        assert abs(top - 1.0) <= 1e-10 and abs(bottom + 0.50001) <= 1e-10

    def test_basis_budget_checked_before_allocating(self, monkeypatch):
        tm = wb.transition_matrix(wb.mgg_rotation(6))
        monkeypatch.setattr(expander, "LANCZOS_BASIS_BYTES", 2 ** 20)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="Lanczos basis"):
                wb.second_eigenvalue_magnitude(tm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestCoveringRoute:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_lifted_eigenvectors_stay_eigenvectors(self, m):
        evals, vecs = np.linalg.eigh(torus_adjacency_oracle(m - 1))
        a = torus_adjacency_oracle(m)
        up = lifted(vecs, m)
        residual = np.linalg.norm(a @ up - up * evals, axis=0) / np.linalg.norm(up, axis=0)
        assert residual.max() <= 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_dense(self, m):
        rot = wb.mgg_rotation(m)
        evals = np.linalg.eigvalsh(wb.transition_matrix(rot).entries)
        base = wb.second_eigenvalue_magnitude(wb.transition_matrix(wb.mgg_rotation(m - 1)))
        rep = wb.torus_cover_spectrum(rot, base)
        assert rep.method == "torus-cover" and rep.converged
        assert rep.matvecs == {"torus-cover": rep.iterations}
        assert abs(rep.lambda_second - evals[-2]) <= 1e-9
        assert abs(rep.lambda_min - evals[0]) <= 1e-9

    def test_base_spectrum_is_kept(self):
        # spec(m-1) is part of spec(m): extremes of the base survive the merge
        rot = wb.mgg_rotation(3)
        base = wb.second_eigenvalue_magnitude(wb.transition_matrix(wb.mgg_rotation(2)))
        wide = replace(base, lambda_second=0.9, lambda_min=-0.95, converged=False)
        rep = wb.torus_cover_spectrum(rot, wide)
        assert rep.lambda_second == 0.9 and rep.lambda_min == -0.95 and rep.alpha == 0.95
        assert not rep.converged

    def test_agrees_with_lanczos_at_m6(self):
        rep = wb.torus_spectrum(wb.mgg_rotation(6))
        assert rep.method == "lanczos" and rep.converged
        assert set(rep.matvecs) == {"lanczos", "torus-cover"}
        assert rep.iterations == sum(rep.matvecs.values())
        assert abs(rep.alpha - rep.alpha_cover) <= rep.tol
        assert rep.alpha <= wb.ALPHA_FAMILY_BOUND

    def test_disagreeing_routes_do_not_converge(self, monkeypatch):
        honest = expander.torus_cover_spectrum

        def shifted(rot, base, tol):
            return replace(honest(rot, base, tol), alpha=0.5)

        monkeypatch.setattr(expander, "torus_cover_spectrum", shifted)
        monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 16)
        rep = wb.torus_spectrum(wb.mgg_rotation(3))
        assert rep.alpha_cover == 0.5 and not rep.converged

    def test_dense_sizes_run_one_route(self):
        rep = wb.torus_spectrum(wb.mgg_rotation(3))
        assert rep.method == "full-eigensolve" and rep.matvecs == {} and rep.alpha_cover is None
        assert "alpha_cover" not in rep.to_dict()

    def test_non_cover_rejected(self):
        rot = wb.mgg_rotation(3)
        sigma = np.random.default_rng(3).permutation(rot.n_vertices)
        relabeled = wb.ColoredRotation(
            m=3, n_vertices=rot.n_vertices, d=8,
            neighbors=sigma[rot.neighbors[np.argsort(sigma)]], back_labels=rot.back_labels,
        )
        base = wb.second_eigenvalue_magnitude(wb.transition_matrix(wb.mgg_rotation(2)))
        with pytest.raises(StructuralError, match="cover"):
            wb.torus_cover_spectrum(relabeled, base)


class TestProjection:
    def test_mu_exact(self):
        s = wb.Projection.from_indices(16, [0, 3, 7, 9, 12])
        assert s.size == 5 and s.mu == 5 / 16

    def test_apply_full_and_empty(self):
        v = np.arange(8, dtype=float)
        assert np.array_equal(wb.projection_apply(wb.Projection.full(8), v), v)
        empty = wb.Projection.from_indices(8, [])
        assert np.array_equal(wb.projection_apply(empty, v), np.zeros(8))

    def test_unit_vector_mass(self):
        rng = np.random.default_rng(2)
        u0 = np.full(16, 1 / 4)
        for _ in range(20):
            idx = np.nonzero(rng.integers(0, 2, 16))[0]
            s = wb.Projection.from_indices(16, idx)
            assert float(np.sum(wb.projection_apply(s, u0) ** 2)) == s.mu

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            wb.projection_apply(wb.Projection.full(4), np.ones(5))

    def test_index_validation(self):
        with pytest.raises(StructuralError):
            wb.Projection.from_indices(4, [4])


class TestContraction:
    def test_random_subsets_bounded(self, rot2):
        tm = wb.transition_matrix(rot2)
        alpha = wb.second_eigenvalue_magnitude(tm).alpha
        rng = np.random.default_rng(0)
        for trial in range(25):
            s1 = wb.Projection(rng.integers(0, 2, 16).astype(bool))
            s2 = wb.Projection(rng.integers(0, 2, 16).astype(bool))
            rep = wb.check_projection_contraction(tm, s1, s2, trials=40, seed=trial, alpha=alpha)
            assert rep.holds
            assert rep.exact_norm is not None    # N=16 always gets the SVD route

    def test_full_projections(self, rot2):
        tm = wb.transition_matrix(rot2)
        full = wb.Projection.full(16)
        rep = wb.check_projection_contraction(tm, full, full, trials=100, seed=1, alpha=0.7)
        assert rep.factor == 1.0 and rep.holds

    def test_empty_side_gives_zero(self, rot2):
        tm = wb.transition_matrix(rot2)
        rep = wb.check_projection_contraction(
            tm, wb.Projection.full(16), wb.Projection.from_indices(16, []), trials=10, seed=0, alpha=0.7
        )
        assert rep.exact_norm == 0.0 and rep.holds

    def test_hybrid_row_vector_bound(self, rot2):
        # after composing a permutation, ||v P A' P'|| <= ||v|| sqrt((a+b mu)(a+b mu'))
        tm = wb.transition_matrix(rot2)
        alpha = wb.second_eigenvalue_magnitude(tm).alpha
        beta = 1.0 - alpha
        rng = np.random.default_rng(9)
        perm = rng.permutation(16)
        ap = wb.compose_permutation(tm, perm).entries
        for _ in range(200):
            m1 = rng.integers(0, 2, 16).astype(float)
            m2 = rng.integers(0, 2, 16).astype(float)
            v = rng.standard_normal(16)
            lhs = float(np.linalg.norm((v * m1) @ ap * m2))
            factor = np.sqrt((alpha + beta * m1.mean()) * (alpha + beta * m2.mean()))
            assert lhs <= factor * float(np.linalg.norm(v)) + 1e-9

    def test_bound_invariant_under_preimage_projection(self, rot2):
        # ||P A' P'|| equals ||P A Q|| with Q the projection onto the permutation
        # preimage of S', so the masked norm never exceeds the undirected bound
        tm = wb.transition_matrix(rot2)
        rng = np.random.default_rng(4)
        perm = rng.permutation(16)
        ap = wb.compose_permutation(tm, perm).entries
        for _ in range(20):
            m1 = rng.integers(0, 2, 16).astype(float)
            m2 = rng.integers(0, 2, 16).astype(float)
            masked_hybrid = m1[:, None] * ap * m2[None, :]
            pre = m2[perm]                       # indicator of F^{-1}[S']
            masked_base = m1[:, None] * tm.entries * pre[None, :]
            n1 = np.linalg.svd(masked_hybrid, compute_uv=False)[0]
            n2 = np.linalg.svd(masked_base, compute_uv=False)[0]
            assert abs(n1 - n2) <= 1e-12


class TestComposePermutation:
    def test_identity_is_noop(self, rot2):
        tm = wb.transition_matrix(rot2)
        ap = wb.compose_permutation(tm, np.arange(16))
        assert np.array_equal(ap.entries, tm.entries)
        assert ap.directed

    def test_columns_are_permuted(self, rot2):
        tm = wb.transition_matrix(rot2)
        perm = np.random.default_rng(1).permutation(16)
        ap = wb.compose_permutation(tm, perm)
        # A'[u, F(v)] = A[u, v]
        assert np.array_equal(ap.entries[:, perm], tm.entries)
        assert np.allclose(ap.entries.sum(axis=0), 1.0, atol=1e-15)

    def test_non_bijection_rejected(self, rot2):
        tm = wb.transition_matrix(rot2)
        with pytest.raises(StructuralError):
            wb.compose_permutation(tm, np.zeros(16, dtype=int))


class TestEdgeColoring:
    def test_torus_family_has_none(self, rot2):
        assert wb.edge_coloring(rot2) is None

    def test_label_preserving_rotation_has_one(self):
        colors = wb.edge_coloring(wb.k4_rotation())
        assert colors is not None
        for u in range(4):
            assert sorted(colors[u]) == [0, 1, 2]


class TestAdjacencyText:
    def test_k4_golden(self):
        text = wb.adjacency_text(wb.k4_rotation())
        assert text == "0: 1 2 3\n1: 0 3 2\n2: 3 0 1\n3: 2 1 0\n"

    def test_line_count(self, rot2):
        lines = wb.adjacency_text(rot2).strip().split("\n")
        assert len(lines) == 16
        assert all(len(line.split(":")[1].split()) == 8 for line in lines)
