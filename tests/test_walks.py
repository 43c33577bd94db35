"""Hybrid walks: indexing, uniformity, terminal vectors, route agreement."""

import tracemalloc
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
        columns = wb.walk_space(g_random, 2).columns
        for idx in (0, 1, 97, 500, 1023):
            assert tuple(columns[:, idx]) == wb.walk_from_index(g_random, 2, idx).vertices

    def test_rows_match_walk_from_index_at_degree_three(self):
        # d = 3 is not a power of two, so no walk index may be read as bit fields
        g = wb.HybridGraph(wb.k4_rotation(), [2, 0, 3, 1])
        columns = wb.walk_space(g, 3).columns
        assert columns.shape == (4, 4 * 3 ** 3)
        for idx in range(columns.shape[1]):
            assert tuple(columns[:, idx]) == wb.walk_from_index(g, 3, idx).vertices

    def test_budget(self, g_identity):
        with pytest.raises(BudgetError):
            wb.walk_space(g_identity, 8)   # 16 * 8^8 > 2^24

    @pytest.mark.parametrize(
        "m, dtype", [(1, np.uint8), (4, np.uint8), (5, np.uint16), (9, np.uint32)]
    )
    def test_columns_use_the_narrowest_vertex_dtype(self, m, dtype):
        n = 4 ** m
        columns = wb.walk_space(wb.HybridGraph(wb.mgg_rotation(m), np.arange(n)), 0).columns
        assert columns.dtype == dtype
        assert columns.shape == (1, n) and columns.flags.c_contiguous
        assert np.array_equal(columns[0], np.arange(n))

    def test_uint16_columns_match_walk_from_index(self):
        g = wb.HybridGraph(wb.mgg_rotation(5), np.random.default_rng(21).permutation(1024))
        columns = wb.walk_space(g, 1).columns
        assert columns.dtype == np.uint16
        for idx in np.random.default_rng(22).integers(0, columns.shape[1], size=40):
            assert tuple(columns[:, idx]) == wb.walk_from_index(g, 1, int(idx)).vertices


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

    def test_enumeration_route_memory_is_bounded(self):
        # W = 16 * 8**5 walks: 256 families in one pass would hold 2 x 128 MiB of flags
        g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(3).permutation(16))
        wb.walk_space(g, 5)
        masks = random_masks(np.random.default_rng(14), 256, 5, 16)
        tracemalloc.start()
        try:
            p_enum = wb.family_event_probs(g, 5, masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert np.array_equal(p_enum, wb.family_event_probs_matrix(g, 5, masks))

    @pytest.mark.parametrize("b", [0, 1, 63, 64, 65, 130])
    @pytest.mark.parametrize("graph", ["g_random", "k4", "m3"])
    def test_bit_sliced_blocks_are_exact(self, request, graph, b):
        # batch sizes around the 64-family word: empty, one family, a full word,
        # one past it and a third, partly filled word
        if graph == "g_random":
            g, t = request.getfixturevalue("g_random"), 3
        elif graph == "k4":
            g, t = wb.HybridGraph(wb.k4_rotation(), [2, 0, 3, 1]), 3
        else:
            g, t = wb.HybridGraph(wb.mgg_rotation(3), np.random.default_rng(9).permutation(64)), 2
        masks = random_masks(np.random.default_rng(b), b, t, g.n_vertices)
        p_enum = wb.family_event_probs(g, t, masks)
        p_mat = wb.family_event_probs_matrix(g, t, masks)
        assert p_enum.shape == (b,)
        for i in {0, 63, 64, b - 1} & set(range(b)):
            assert p_enum[i] == float(exact_family_prob(g, t, masks[i]))
        if g.d == 8:
            # transition entries are multiples of 1/8: the matrix route is exact too
            assert np.array_equal(p_enum, p_mat)
        else:
            # products of rounded 1/3 entries would drift; both routes instead
            # divide an exact integer count by the walk count once
            np.testing.assert_allclose(p_enum, p_mat, rtol=1e-14, atol=0)
            assert np.array_equal(p_enum, p_mat)

    @pytest.mark.parametrize("m, t", [(2, 3), (3, 2)])
    def test_count_operator_matches_the_dense_product(self, m, t):
        # the dense walk matrix survives only here, as an oracle: at d = 8 every
        # mass is dyadic, so the masked products are exact and must agree bit for bit
        g = wb.HybridGraph(wb.mgg_rotation(m), np.random.default_rng(m).permutation(4 ** m))
        masks = random_masks(np.random.default_rng(15), 100, t, g.n_vertices)
        a = g.transition().entries
        v = masks[:, 0, :] / g.n_vertices
        for i in range(1, t + 1):
            v = (v @ a) * masks[:, i, :]
        assert np.array_equal(wb.family_event_probs_matrix(g, t, masks), v.sum(axis=1))
        tv = wb.terminal_vector(g, t, list(masks[0]))
        assert np.array_equal(tv.probs, v[0])

    @pytest.mark.parametrize(
        "m, t", [(3, 8), (2, 9), (2, 11)], ids=["2m+3t=30", "2m+3t=31", "2m+3t=37"]
    )
    def test_full_family_probability_is_exactly_one(self, m, t):
        # 2**30 walks are counted in int32, 2**31 and more in int64; at t = 11
        # each vertex alone ends 2**33 walks, so an int32 count would wrap
        g = wb.HybridGraph(wb.mgg_rotation(m), np.random.default_rng(m).permutation(4 ** m))
        full = np.ones((1, t + 1, g.n_vertices), dtype=bool)
        assert wb.terminal_vector(g, t, list(full[0])).total == 1.0
        assert wb.family_event_probs_matrix(g, t, full).tolist() == [1.0]

    def test_matrix_route_memory_is_linear_in_the_vertices(self):
        # N = 4096: the dense walk matrix alone would take 128 MiB
        g = wb.HybridGraph(wb.mgg_rotation(6), np.random.default_rng(16).permutation(4096))
        masks = random_masks(np.random.default_rng(17), 64, 2, 4096)
        tracemalloc.start()
        try:
            p_mat = wb.family_event_probs_matrix(g, 2, masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert np.array_equal(p_mat, wb.family_event_probs(g, 2, masks))

    def test_runtime_routes_never_build_the_transition_matrix(self, monkeypatch, g_random):
        def dense(self):
            raise AssertionError("a runtime route built the dense transition matrix")

        monkeypatch.setattr(wb.HybridGraph, "transition", dense)
        masks = random_masks(np.random.default_rng(18), 5, 2, 16)
        wb.family_event_probs_matrix(g_random, 2, masks)
        wb.terminal_vector(g_random, 2, list(masks[0]))
        assert wb.check_extension_identity(g_random, 2, range(40)).holds
        wb.verify_walk_independence(g_random, 1, 0.3, trials=10, seed=0)

    def test_predecessors_invert_one_step(self, g_random):
        pred = g_random.predecessors
        assert pred.shape == (8, 16) and not pred.flags.writeable
        assert g_random.predecessors is pred
        for w in range(16):
            into = sorted(u for u in range(16) for j in range(8) if g_random.step(u, j) == w)
            assert sorted(pred[:, w]) == into

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

    def test_exhaustive_budget_is_checked_before_the_dense_matrix(self):
        # N = 1024: the dense transition matrix alone would take 8 MiB
        g = wb.HybridGraph(wb.mgg_rotation(5), np.random.default_rng(4).permutation(1024))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                wb.verify_walk_independence(g, 2, 0.3, mode="exhaustive", trials=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_multi_witnesses_decode_to_their_families(self):
        # N = 64: a set holding vertex 63 needs bit 63, the sign bit of an int64
        g = wb.HybridGraph(wb.mgg_rotation(3), np.random.default_rng(5).permutation(64))
        t = 2
        rep = wb.verify_walk_independence(g, t, 1.0, mode="sampled", trials=2000, seed=6)
        multi = [(sets, ratio) for (kind, sets), ratio in rep.witnesses if kind == "multi"]
        assert len(multi) == len(rep.witnesses) > 0
        assert any(s >> 63 & 1 for sets, _ in multi for s in sets)
        for sets, ratio in multi:
            assert all(0 <= s < 1 << 64 for s in sets)
            masks = np.array([[s >> v & 1 for v in range(64)] for s in sets], dtype=bool)
            p = wb.family_event_probs_matrix(g, t, masks[None])[0]
            # alpha = 0, so the bound is the product of the set densities; all
            # values are dyadic, so the recorded ratio is reproduced exactly
            assert p / np.prod(masks.sum(axis=1) / 64) == ratio

    @pytest.mark.parametrize(
        "mode, scratch", [("sampled", 1), ("sampled", 3 * 2 ** 12), ("exhaustive", 3 * 2 ** 12)]
    )
    def test_batch_size_does_not_change_the_report(self, monkeypatch, mode, scratch):
        # one family per batch, or a few: the 0/1 draws form one stream however
        # they are split, and witnesses keep the stream's order
        from walkbound import walks

        g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(8).permutation(16))
        kwargs = dict(mode=mode, trials=700, seed=9)
        whole = wb.verify_walk_independence(g, 2, 1.0, **kwargs).to_dict()
        monkeypatch.setattr(walks, "WALK_SCRATCH_BYTES", scratch)
        assert walks._batch_size(16, 2) < 700
        split = wb.verify_walk_independence(g, 2, 1.0, **kwargs).to_dict()
        assert split == whole
        assert len(whole["witnesses"]) > 0

    def test_sampled_batches_fit_the_scratch_budget(self):
        # N = 4096: 100 families drawn at once would take 9.4 MiB of int64 draws
        from walkbound import walks

        g = wb.HybridGraph(wb.mgg_rotation(6), np.random.default_rng(19).permutation(4096))
        tracemalloc.start()
        try:
            wb.verify_walk_independence(g, 2, 0.3, mode="sampled", trials=100, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * walks.WALK_SCRATCH_BYTES

    def test_family_draws_do_not_depend_on_the_batching(self, monkeypatch):
        from walkbound import walks

        whole = np.random.default_rng([3, 17]).integers(0, 2, size=(9, 3, 16)).astype(bool)
        assert np.array_equal(wb.random_families(np.random.default_rng([3, 17]), 9, 2, 16), whole)
        monkeypatch.setattr(walks, "WALK_SCRATCH_BYTES", 1)
        assert np.array_equal(wb.random_families(np.random.default_rng([3, 17]), 9, 2, 16), whole)

    def test_family_draws_fit_the_scratch_budget(self):
        # N = 4096: 100 families drawn at once would take 9.4 MiB of int64 draws
        from walkbound import walks

        tracemalloc.start()
        try:
            masks = wb.random_families(np.random.default_rng(1), 100, 2, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < masks.nbytes + walks.WALK_SCRATCH_BYTES

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
        space = wb.walk_space(g_random, 2)
        assert wb.walk_space(g_random, 2) is space
        assert wb.walk_space(g_random, 1) is not space

    def test_table_is_read_only(self, g_random):
        columns = wb.walk_space(g_random, 2).columns
        assert not columns.flags.writeable
        with pytest.raises(ValueError):
            columns[0, 0] = 1

    def test_other_permutation_gets_its_own_table(self, rot2, g_random):
        other = wb.HybridGraph(rot2, np.roll(g_random.perm, 1))
        mine = wb.walk_space(g_random, 2).columns
        theirs = wb.walk_space(other, 2).columns
        assert theirs is not mine
        assert np.array_equal(theirs[0], mine[0])
        assert not np.array_equal(theirs[1:], mine[1:])
        for idx in (0, 97, 1023):
            assert tuple(theirs[:, idx]) == wb.walk_from_index(other, 2, idx).vertices

    def test_reverse_packing_is_shared_read_only(self, g_random):
        rho = wb.walk_space(g_random, 2).reverse
        assert wb.walk_space(g_random, 2).reverse is rho
        assert not rho.flags.writeable
        assert np.array_equal(wb.walk_permutation(g_random, 2).table, rho)
