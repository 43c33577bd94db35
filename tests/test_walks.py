"""Hybrid walks: indexing, uniformity, terminal vectors, route agreement."""

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import walkbound as wb
from walkbound.errors import BudgetError, ParameterError, StructuralError

from conftest import exact_family_counts, exact_family_prob


def random_masks(rng, b, t, n):
    m = rng.integers(0, 2, size=(b, t + 1, n)).astype(bool)
    m[:, :, 0] = True    # keep events nonempty often enough to be interesting
    return m


class TestHybridGraph:
    def test_step_composes_rotation_and_permutation(self, rot2, g_random):
        for u in (0, 5, 11, 15):
            for j in range(8):
                v, _ = rot2.rotate(u, j)
                assert g_random.step(u, j) == g_random.perm[v]

    def test_transition_is_column_permuted(self, rot2, g_random):
        base = wb.transition_matrix(rot2).entries
        hybrid = g_random.transition().entries
        assert np.array_equal(hybrid[:, g_random.perm], base)
        assert hybrid.flags.writeable is False or True  # entries may be copies

    def test_bad_perm_rejected(self, rot2):
        with pytest.raises(StructuralError):
            wb.HybridGraph(rot2, np.zeros(16, dtype=int))
        with pytest.raises(StructuralError):
            wb.HybridGraph(rot2, np.arange(15))


class TestWalkIndexing:
    def test_count(self, g_identity):
        assert wb.walk_count(g_identity, 0) == 16
        assert wb.walk_count(g_identity, 3) == 16 * 512

    def test_count_overflow(self, g_identity):
        with pytest.raises(BudgetError):
            wb.walk_count(g_identity, 21)

    def test_round_trip_exhaustive_t2(self, g_random):
        for idx in range(wb.walk_count(g_random, 2)):
            w = wb.walk_from_index(g_random, 2, idx)
            wb.validate_walk(g_random, w)
            assert wb.walk_index(g_random, w) == idx

    def test_golden_walk(self, g_identity):
        # start 4, labels (0, 1, 2): stays at 4 twice, then moves to 8
        w = wb.walk_from_index(g_identity, 3, 4 * 512 + 0 * 64 + 1 * 8 + 2)
        assert w.vertices == (4, 4, 4, 8)
        assert w.labels == (0, 1, 2)

    def test_validate_rejects_wrong_vertices(self, g_identity):
        w = wb.walk_from_index(g_identity, 2, 100)
        bad = wb.Walk((w.vertices[0], w.vertices[1], (w.vertices[2] + 1) % 16), w.labels)
        with pytest.raises(StructuralError):
            wb.validate_walk(g_identity, bad)

    def test_walk_shape_mismatch(self):
        with pytest.raises(StructuralError):
            wb.Walk((0, 1), (0, 1, 2))

    def test_index_out_of_range(self, g_identity):
        with pytest.raises(StructuralError):
            wb.walk_from_index(g_identity, 1, 16 * 8)


class TestSampling:
    def test_deterministic_per_seed(self, g_random):
        assert wb.sample_walk(g_random, 4, 123) == wb.sample_walk(g_random, 4, 123)
        assert wb.sample_walk(g_random, 4, 123) != wb.sample_walk(g_random, 4, 124)

    def test_sampled_walks_are_valid(self, g_random):
        for seed in range(50):
            wb.validate_walk(g_random, wb.sample_walk(g_random, 3, seed))

    def test_uniform_over_walk_space(self):
        # m=1: 4 vertices, walk space 4 * 8 = 32 at t=1, chi-square at 1% level
        g = wb.HybridGraph(wb.mgg_rotation(1), np.arange(4))
        total = wb.walk_count(g, 1)
        counts = np.zeros(total, dtype=int)
        for seed in range(320 * 25):
            counts[wb.walk_index(g, wb.sample_walk(g, 1, seed))] += 1
        chi2 = stats.chisquare(counts).statistic
        assert chi2 < stats.chi2.ppf(0.99, total - 1)


class TestEnumeration:
    def test_rows_match_walk_from_index(self, g_random):
        verts = wb.enumerate_walk_vertices(g_random, 2)
        for idx in (0, 1, 97, 500, 1023):
            assert tuple(verts[idx]) == wb.walk_from_index(g_random, 2, idx).vertices

    def test_budget(self, g_identity):
        with pytest.raises(BudgetError):
            wb.enumerate_walk_vertices(g_identity, 8)   # 16 * 8^8 > 2^24


class TestTerminalVector:
    def test_matches_integer_oracle(self, g_random):
        rng = np.random.default_rng(3)
        t = 3
        total = wb.walk_count(g_random, t)
        for _ in range(10):
            masks = rng.integers(0, 2, size=(t + 1, 16)).astype(bool)
            tv = wb.terminal_vector(g_random, t, list(masks))
            counts = exact_family_counts(g_random, t, masks)
            for v in range(16):
                assert Fraction(tv.probs[v]) == Fraction(counts[v], total)

    def test_total_is_event_probability(self, g_random):
        masks = [np.ones(16, dtype=bool)] * 4
        tv = wb.terminal_vector(g_random, 3, masks)
        assert abs(tv.total - 1.0) <= 1e-15

    def test_index_constraints_accepted(self, g_identity):
        tv = wb.terminal_vector(g_identity, 1, [range(16), [4]])
        assert tv.probs[4] > 0 and np.sum(tv.probs > 0) == 1

    def test_wrong_constraint_count(self, g_identity):
        with pytest.raises(StructuralError):
            wb.terminal_vector(g_identity, 2, [range(16)] * 2)

    def test_bad_vertex_in_constraint(self, g_identity):
        with pytest.raises(StructuralError):
            wb.terminal_vector(g_identity, 1, [[0], [16]])


class TestExtensionIdentity:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_holds_on_random_events(self, g_random, t):
        rng = np.random.default_rng(t)
        total = wb.walk_count(g_random, t - 1)
        base = rng.choice(total, size=max(1, total // 3), replace=False)
        rep = wb.check_extension_identity(g_random, t, base)
        assert rep.holds
        assert rep.prob_diff == 0.0

    def test_empty_event(self, g_identity):
        rep = wb.check_extension_identity(g_identity, 2, [])
        assert rep.prob_base == 0.0 and rep.holds

    def test_invalid_index_rejected(self, g_identity):
        with pytest.raises(StructuralError):
            wb.check_extension_identity(g_identity, 1, [16])


class TestRouteAgreement:
    """Three independent routes: matrix products, vectorized enumeration, and the
    pure-integer DP oracle. The first two use the same dyadic arithmetic and are
    expected to agree exactly; the oracle pins both to the true rational value."""

    def test_matrix_vs_enumeration_exact(self, g_random):
        rng = np.random.default_rng(11)
        masks = random_masks(rng, 200, 3, 16)
        p_enum = wb.family_event_probs(g_random, 3, masks)
        p_mat = wb.family_event_probs_matrix(g_random, 3, masks)
        assert float(np.max(np.abs(p_enum - p_mat))) == 0.0

    def test_both_match_rational_oracle(self, g_random):
        rng = np.random.default_rng(12)
        masks = random_masks(rng, 12, 2, 16)
        p_mat = wb.family_event_probs_matrix(g_random, 2, masks)
        for b in range(12):
            exact = exact_family_prob(g_random, 2, masks[b])
            assert abs(Fraction(p_mat[b]) - exact) <= Fraction(1, 10**12)

    def test_single_set_table_matches_matrix_route(self, g_random):
        table = wb.single_set_event_probs(g_random, 2)
        rng = np.random.default_rng(13)
        for sub in rng.integers(0, 1 << 16, size=30):
            mask = (int(sub) >> np.arange(16)) & 1
            fam = np.broadcast_to(mask.astype(bool), (3, 16))[None]
            p = wb.family_event_probs_matrix(g_random, 2, fam)[0]
            assert table[int(sub)] == p

    def test_mask_shape_validation(self, g_random):
        with pytest.raises(StructuralError):
            wb.family_event_probs(g_random, 2, np.ones((1, 2, 16), dtype=bool))
        with pytest.raises(StructuralError):
            wb.family_event_probs_matrix(g_random, 2, np.ones((1, 3, 4)))


class TestWalkIndependence:
    def test_identity_permutation_holds(self, g_identity):
        beta = 1.0 - wb.second_eigenvalue_magnitude(wb.transition_matrix(g_identity.rot)).alpha
        rep = wb.verify_walk_independence(g_identity, 2, beta, trials=2000, seed=0)
        assert rep.holds
        assert rep.n_single == 1 << 16 and rep.n_sampled == 2000
        assert rep.witnesses == ()

    def test_random_permutation_holds(self, g_random):
        beta = 1.0 - wb.second_eigenvalue_magnitude(wb.transition_matrix(g_random.rot)).alpha
        rep = wb.verify_walk_independence(g_random, 3, beta, trials=2000, seed=1)
        assert rep.holds

    def test_overstated_beta_is_flagged(self, g_random):
        # claiming beta = 1 asserts genuine independence, which hybrid walks lack
        rep = wb.verify_walk_independence(g_random, 2, 1.0, trials=500, seed=2)
        assert not rep.holds
        assert rep.worst_ratio > 1.0 + 1e-6
        assert len(rep.witnesses) > 0

    def test_sampled_mode_skips_sweep(self, g_random):
        rep = wb.verify_walk_independence(g_random, 2, 0.2, mode="sampled", trials=300, seed=3)
        assert rep.n_single == 0 and rep.n_sampled == 300

    def test_mode_and_beta_validation(self, g_random):
        with pytest.raises(ParameterError):
            wb.verify_walk_independence(g_random, 2, 1.5)
        with pytest.raises(ParameterError):
            wb.verify_walk_independence(g_random, 2, 0.5, mode="quick")

    def test_exhaustive_budget(self):
        rot = wb.mgg_rotation(3)
        g = wb.HybridGraph(rot, np.arange(64))
        with pytest.raises(BudgetError):
            wb.verify_walk_independence(g, 2, 0.3, mode="exhaustive", trials=0)

    def test_report_serializes(self, g_random):
        rep = wb.verify_walk_independence(g_random, 2, 0.3, mode="sampled", trials=100, seed=4)
        d = rep.to_dict()
        assert set(d) == {"worst_ratio", "witnesses", "n_single", "n_sampled", "beta", "holds"}


class TestProjectionBridge:
    def test_walk_positions_feed_the_independence_checker(self, g_random):
        # position projections of the walk space behave like relaxed-independent
        # objects at the measured beta
        space, objects = wb.projection_objects(g_random, 2)
        assert len(space.outcomes) == wb.walk_count(g_random, 2)
        beta = 1.0 - wb.second_eigenvalue_magnitude(wb.transition_matrix(g_random.rot)).alpha
        rep = wb.check_independence(objects, beta, mode="sampled", trials=400, seed=5)
        assert rep.holds

    def test_marginals_are_uniform(self, g_random):
        _, objects = wb.projection_objects(g_random, 2)
        for obj in objects:
            assert np.allclose(obj.distribution(), 1 / 16, atol=1e-15)

    def test_budget(self, g_identity):
        with pytest.raises(BudgetError):
            wb.projection_objects(g_identity, 8)


class TestWalkSpaceMemo:
    def test_one_table_per_graph_and_length(self, g_random):
        verts = wb.enumerate_walk_vertices(g_random, 2)
        assert wb.enumerate_walk_vertices(g_random, 2) is verts
        assert wb.enumerate_walk_vertices(g_random, 1) is not verts

    def test_table_is_read_only(self, g_random):
        verts = wb.enumerate_walk_vertices(g_random, 2)
        assert not verts.flags.writeable
        with pytest.raises(ValueError):
            verts[0, 0] = 1

    def test_other_permutation_gets_its_own_table(self, rot2, g_random):
        other = wb.HybridGraph(rot2, np.roll(g_random.perm, 1))
        mine = wb.enumerate_walk_vertices(g_random, 2)
        theirs = wb.enumerate_walk_vertices(other, 2)
        assert theirs is not mine
        assert np.array_equal(theirs[:, 0], mine[:, 0])
        assert not np.array_equal(theirs[:, 1:], mine[:, 1:])
        for idx in (0, 97, 1023):
            assert tuple(theirs[idx]) == wb.walk_from_index(other, 2, idx).vertices

    def test_reverse_packing_is_shared_read_only(self, g_random):
        from walkbound import owf

        rho = owf._walk_reverse_ints(g_random, 2)
        assert owf._walk_reverse_ints(g_random, 2) is rho
        assert not rho.flags.writeable
        assert np.array_equal(wb.walk_permutation(g_random, 2).table, rho)
