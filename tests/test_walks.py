"""Hybrid walks: indexing, enumeration, walk counts, route agreement."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import walkbound as wb
from walkbound.errors import BudgetError, ParameterError, StructuralError

from walkbound import expander, prob

from conftest import (TREE_GRAPHS, dense_oracle, exact_family_counts, exact_family_prob,
                      reverse_table, tree_graph)


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

    def test_one_step_is_column_permuted(self, rot2, g_random):
        # A'[u, F(v)] = A[u, v]: an edge, then the permutation
        base = dense_oracle(rot2)
        hybrid = dense_oracle(g_random)
        assert np.array_equal(hybrid[:, g_random.perm], base)

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

    def test_long_walk_count_is_refused_without_its_power(self, g_identity):
        # 8**(10**7) is never built; with one edge slot every length has N walks
        with pytest.raises(BudgetError, match=r"walk count 16 \* 8\*\*10000000 exceeds"):
            wb.walk_count(g_identity, 10 ** 7)
        loop = wb.ColoredRotation(0, 2, 1, [[1], [0]], [[0], [0]])
        assert wb.walk_count(wb.HybridGraph(loop, [1, 0]), 10 ** 7) == 2

    def test_vertex_count_past_the_int_string_limit_is_a_budget_error(self):
        # str() of an int past 4300 digits raises ValueError: such a count is
        # written as the power of ten it reaches
        from walkbound.walks import walk_space_size, walk_total

        for refuse in (walk_total, walk_space_size):
            for t in (0, 2):
                message = rf"^walk count at least 10\*\*6020 \* 8\*\*{t} exceeds"
                with pytest.raises(BudgetError, match=message):
                    refuse(4 ** 10000, 8, t)
        message = r"^walk count 4 \* 8\*\*4800 exceeds the 64-bit range$"
        with pytest.raises(BudgetError, match=message):
            walk_total(4, 8, 4800)
        below = 10 ** 100 - 1
        with pytest.raises(BudgetError, match=f"^walk count {below} \\* 8\\*\\*63 exceeds"):
            walk_total(below, 8, 63)
        # log10(10**200 - 1) rounds to 200.0
        with pytest.raises(BudgetError, match=r"^walk count at least 10\*\*199 \* 8\*\*0 exceeds"):
            walk_total(10 ** 200 - 1, 8, 0)

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

    @pytest.mark.parametrize("graph", TREE_GRAPHS, ids=["-".join(g) for g in TREE_GRAPHS])
    @pytest.mark.parametrize("t", [0, 1, 4])
    def test_reverse_indices_match_the_per_walk_codec(self, graph, t):
        # degree 3 as well as 8, with the points in a 2-d array
        g = tree_graph(*graph)
        xs = np.random.default_rng(t).integers(0, wb.walk_count(g, t), size=(5, 7))
        out = wb.reverse_indices(g, t, xs)
        assert out.dtype == np.int64 and out.shape == xs.shape
        for x, y in zip(xs.ravel(), out.ravel()):
            assert y == wb.reverse_index(g, wb.walk_from_index(g, t, int(x)))
        # a transposed (Fortran-ordered) input gives the transposed result
        assert np.array_equal(wb.reverse_indices(g, t, xs.T), out.T)

    def test_reverse_indices_reject_points_off_the_walk_space(self, g_identity):
        for xs in ([0, 16 * 8], [-1]):
            with pytest.raises(StructuralError):
                wb.reverse_indices(g_identity, 1, xs)
        assert wb.reverse_indices(g_identity, 1, []).size == 0


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

    def test_reverse_scratch_stays_within_the_budget(self):
        # m = 3, t = 5: 2**21 walks, a 16 MiB table; beside it one range of the
        # reverse packing, SCRATCH_BYTES at 11 bytes per walk
        g = wb.HybridGraph(wb.mgg_rotation(3), np.random.default_rng(26).permutation(64))
        f = wb.walk_permutation(g, 5)
        tracemalloc.start()
        try:
            reverse = f.table
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < reverse.nbytes + prob.SCRATCH_BYTES
        idx = np.random.default_rng(27).integers(0, reverse.size, size=40)
        for i in idx:
            assert reverse[i] == wb.reverse_index(g, wb.walk_from_index(g, 5, int(i)))

    def test_uint16_columns_match_walk_from_index(self):
        g = wb.HybridGraph(wb.mgg_rotation(5), np.random.default_rng(21).permutation(1024))
        columns = wb.walk_space(g, 1).columns
        assert columns.dtype == np.uint16
        for idx in np.random.default_rng(22).integers(0, columns.shape[1], size=40):
            assert tuple(columns[:, idx]) == wb.walk_from_index(g, 1, int(idx)).vertices


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
        a = dense_oracle(g)
        v = masks[:, 0, :] / g.n_vertices
        for i in range(1, t + 1):
            v = (v @ a) * masks[:, i, :]
        assert np.array_equal(wb.family_event_probs_matrix(g, t, masks), v.sum(axis=1))

    @pytest.mark.parametrize(
        "m, t", [(3, 8), (2, 9), (2, 11)], ids=["2m+3t=30", "2m+3t=31", "2m+3t=37"]
    )
    def test_full_family_probability_is_exactly_one(self, m, t):
        # 2**30 walks are counted in int32, 2**31 and more in int64; at t = 11
        # each vertex alone ends 2**33 walks, so an int32 count would wrap
        g = wb.HybridGraph(wb.mgg_rotation(m), np.random.default_rng(m).permutation(4 ** m))
        full = np.ones((1, t + 1, g.n_vertices), dtype=bool)
        assert wb.family_event_probs_matrix(g, t, full).tolist() == [1.0]

    @pytest.mark.parametrize(
        "t, dtype", [(2, np.int8), (3, np.int16), (5, np.int32), (11, np.int64)],
        ids=["8**2=64", "8**3=512", "8**5=32768", "8**11=2**33"],
    )
    def test_walk_counts_in_the_narrowest_dtype(self, t, dtype):
        # family 0 meets every mask, so each vertex ends exactly 8**t walks of
        # it: the bound max(counts) * d**t is reached, one past int16 at t = 5
        from walkbound import walks

        g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(2).permutation(16))
        masks = random_masks(np.random.default_rng(t), 3, t, 16).transpose(1, 2, 0)
        masks[:, :, 0] = True
        counts = walks._walk_counts(g, masks[0], masks[1:])
        ref = masks[0].astype(np.int64)
        for mask in masks[1:]:
            ref = sum(ref[row] for row in g.predecessors) * mask
        assert counts.dtype == dtype
        assert np.array_equal(counts, ref) and np.all(counts[:, 0] == 8 ** t)

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
        def dense(rot):
            raise AssertionError("a runtime route built the dense transition matrix")

        monkeypatch.setattr(expander, "_dense_operator", dense)
        masks = random_masks(np.random.default_rng(18), 5, 2, 16)
        wb.family_event_probs_matrix(g_random, 2, masks)
        assert wb.check_extension_identity(g_random, 2, range(40)).holds
        wb.verify_walk_independence(g_random, 1, 0.3, trials=10, seed=0)

    def test_walk_space_fills_its_narrow_predecessors_without_the_graphs(self, rot2):
        g = wb.HybridGraph(rot2, np.random.default_rng(19).permutation(16))
        space = wb.walk_space(g, 2)
        assert "predecessors" not in vars(g)
        assert space.predecessors.dtype == np.uint8 and not space.predecessors.flags.writeable
        assert np.array_equal(space.predecessors, g.predecessors.T)

    def test_predecessors_invert_one_step(self, g_random):
        pred = g_random.predecessors
        assert pred.shape == (8, 16) and not pred.flags.writeable
        assert g_random.predecessors is pred
        for w in range(16):
            into = sorted(u for u in range(16) for j in range(8) if g_random.step(u, j) == w)
            assert sorted(pred[:, w]) == into

    def test_terminal_counts_match_integer_oracle(self, g_random):
        # per-vertex counts of the count route, each against the pure-integer DP
        from walkbound import walks

        t = 3
        masks = random_masks(np.random.default_rng(3), 10, t, 16)
        fam = np.ascontiguousarray(masks.transpose(1, 2, 0))
        counts = walks._walk_counts(g_random, fam[0], fam[1:])
        for b in range(10):
            assert counts[:, b].tolist() == exact_family_counts(g_random, t, masks[b])

    def test_mask_shape_validation(self, g_random):
        with pytest.raises(StructuralError):
            wb.family_event_probs(g_random, 2, np.ones((1, 2, 16), dtype=bool))
        with pytest.raises(StructuralError):
            wb.family_event_probs_matrix(g_random, 2, np.ones((1, 3, 4)))


class TestEnumerationKernels:
    """The word-parallel pieces of the enumeration route, each against a plain oracle."""

    @pytest.mark.parametrize("size", [0, 1, 108, 1023, 1024, 1025])
    @pytest.mark.parametrize("fill", ["random", "ones"])
    def test_bit_counts_match_unpackbits(self, size, fill):
        # 108 = 4 * 3**3 walks (k4, t = 3); all-ones words make every count equal
        # the length, which reaches the top carry plane
        from walkbound import walks

        if fill == "ones":
            words = np.full(size, np.iinfo(np.uint64).max, dtype=np.uint64)
        else:
            words = np.random.default_rng(size).integers(
                0, np.iinfo(np.uint64).max, size=size, dtype=np.uint64, endpoint=True)
        oracle = np.unpackbits(words.view(np.uint8), bitorder="little").reshape(-1, 64).sum(axis=0)
        assert np.array_equal(walks._bit_counts(words.copy()), oracle)
        if fill == "ones":
            assert np.all(oracle == size)

    @pytest.mark.parametrize(
        "graph, t", [("k4", 3), ("m2", 3), ("m2", 0)], ids=["k4-t3", "m2-t3", "m2-t0"]
    )
    def test_and_fold_gives_the_per_walk_and(self, graph, t):
        from walkbound import walks

        if graph == "k4":
            g = wb.HybridGraph(wb.k4_rotation(), [2, 0, 3, 1])
        else:
            g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(3).permutation(16))
        n = g.n_vertices
        space = wb.walk_space(g, t)
        words = np.random.default_rng(t).integers(
            0, np.iinfo(np.uint64).max, size=(t + 1, n), dtype=np.uint64, endpoint=True)
        full = np.bitwise_and.reduce([words[s][space.columns[s]] for s in range(t + 1)])
        tables = [words[s][space.successors] for s in range(1, t + 1)]

        def fold(lo, hi):
            parents = [h[lo * g.d ** s: hi * g.d ** s] for s, h in enumerate(space.heads)]
            return walks._descend(parents, words[0][lo:hi], tables, np.bitwise_and)

        assert np.array_equal(fold(0, n), full)
        per_start = g.d ** t
        assert np.array_equal(fold(1, 3), full[per_start: 3 * per_start])

    @pytest.mark.parametrize("graph, t", [("k4", 3), ("m2", 3), ("m2", 0)],
                             ids=["k4-t3", "m2-t3", "m2-t0"])
    def test_enumeration_routes_leave_the_columns_unbuilt(self, graph, t):
        from walkbound.prob import subset_sums

        if graph == "k4":
            g = wb.HybridGraph(wb.k4_rotation(), [2, 0, 3, 1])
        else:
            g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(3).permutation(16))
        n = g.n_vertices
        masks = random_masks(np.random.default_rng(28), 70, t, n)
        table = wb.single_set_event_probs(g, t)
        probs = wb.family_event_probs(g, t, masks)
        space = wb.walk_space(g, t)
        assert "columns" not in vars(space)
        # references from the full position columns, built only now
        columns = space.columns.astype(np.int64)
        sig = np.bitwise_or.reduce(np.int64(1) << columns, axis=0)
        counts = np.bincount(sig, minlength=1 << n).astype(float)
        assert np.array_equal(table, subset_sums(counts, n) / space.n_walks)
        member = np.logical_and.reduce(masks[:, np.arange(t + 1)[:, None], columns], axis=1)
        assert np.array_equal(probs, member.sum(axis=1) / space.n_walks)

    def test_one_start_vertex_per_range_gives_the_same_probabilities(self, monkeypatch):
        g = wb.HybridGraph(wb.mgg_rotation(3), np.random.default_rng(9).permutation(64))
        masks = random_masks(np.random.default_rng(23), 130, 2, 64)
        whole = wb.family_event_probs(g, 2, masks)
        monkeypatch.setattr(prob, "SCRATCH_BYTES", 1)
        assert np.array_equal(wb.family_event_probs(g, 2, masks), whole)
        assert np.array_equal(whole, wb.family_event_probs_matrix(g, 2, masks))

    @pytest.mark.parametrize("scratch", [1, 3 * 8 * 8 ** 3, None],
                             ids=["one-vertex", "three-vertices", "default"])
    def test_start_ranges_split_the_start_vertices_within_the_budget(self, monkeypatch, scratch):
        # m = 2, t = 3: 16 start vertices of 8**3 walks each, 4 KiB at 8 bytes a walk
        def graph():
            return wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(3).permutation(16))

        whole = wb.single_set_event_probs(graph(), 3)
        g = graph()
        space = wb.walk_space(g, 3)
        per_start = g.d ** 3
        # the oracle columns are built under the default budget
        columns = space.columns
        if scratch is not None:
            monkeypatch.setattr(prob, "SCRATCH_BYTES", scratch)
        ranges = list(space._start_ranges(8))
        assert ranges[0][0] == 0 and ranges[-1][1] == g.n_vertices
        assert all(prev[1] == nxt[0] for prev, nxt in zip(ranges, ranges[1:]))
        expect = {1: 1, 3 * 8 * 8 ** 3: 3, None: g.n_vertices}[scratch]
        assert max(hi - lo for lo, hi, _ in ranges) == expect
        for lo, hi, parents in ranges:
            assert hi - lo == 1 or (hi - lo) * per_start * 8 <= prob.SCRATCH_BYTES
            assert len(parents) == 3
            for s, head in enumerate(parents):
                column = columns[s][lo * per_start: hi * per_start]
                assert np.array_equal(head, column[:: g.d ** (3 - s)])
        assert np.array_equal(wb.single_set_event_probs(g, 3), whole)

    def test_enumeration_scratch_does_not_grow_with_the_walks(self):
        # W = 256 * 8**4 = 2**20 walks: one membership word per walk would be 8 MiB,
        # a second full-length temporary 16 MiB
        g = wb.HybridGraph(wb.mgg_rotation(4), np.random.default_rng(24).permutation(256))
        wb.walk_space(g, 4)
        masks = random_masks(np.random.default_rng(25), 64, 4, 256)
        tracemalloc.start()
        try:
            p_enum = wb.family_event_probs(g, 4, masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * prob.SCRATCH_BYTES
        assert np.array_equal(p_enum, wb.family_event_probs_matrix(g, 4, masks))


class TestWalkIndependence:
    def test_identity_permutation_holds(self, g_identity):
        beta = 1.0 - wb.second_eigenvalue_magnitude(g_identity.rot).alpha
        rep = wb.verify_walk_independence(g_identity, 2, beta, trials=2000, seed=0)
        assert rep.holds
        assert rep.n_single == 1 << 16 and rep.n_sampled == 2000
        assert rep.witnesses == ()

    def test_random_permutation_holds(self, g_random):
        beta = 1.0 - wb.second_eigenvalue_magnitude(g_random.rot).alpha
        rep = wb.verify_walk_independence(g_random, 3, beta, trials=2000, seed=1)
        assert rep.holds

    def test_overstated_beta_is_flagged(self, g_random):
        # claiming beta = 1 asserts genuine independence, which hybrid walks lack
        rep = wb.verify_walk_independence(g_random, 2, 1.0, trials=500, seed=2)
        assert not rep.holds
        assert rep.worst_ratio > 1.0 + 1e-6
        assert len(rep.witnesses) > 0

    def test_overstated_beta_report_is_pinned(self):
        # the sampled families come from one exact 0/1 stream: a change to the
        # stream moves the ratios and the witness sets recorded here
        g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(8).permutation(16))
        rep = wb.verify_walk_independence(g, 2, 0.9, mode="sampled", trials=300, seed=4)
        assert rep.worst_ratio == 1.1676569361921985
        assert rep.witnesses == (
            (("multi", (13205, 5429, 65093)), 1.0476149119569231),
            (("multi", (14044, 41043, 30998)), 1.010844825277815),
            (("multi", (51461, 60430, 34404)), 1.020408163265306),
            (("multi", (64768, 50372, 12465)), 1.1676569361921985),
            (("multi", (1525, 61880, 19805)), 1.048319307432922),
            (("multi", (41646, 2649, 34963)), 1.0760667903525045),
        )

    def test_sampled_mode_skips_sweep(self, g_random):
        rep = wb.verify_walk_independence(g_random, 2, 0.2, mode="sampled", trials=300, seed=3)
        assert rep.n_single == 0 and rep.n_sampled == 300

    def test_mode_and_beta_validation(self, g_random):
        with pytest.raises(ParameterError):
            wb.verify_walk_independence(g_random, 2, 1.5)
        with pytest.raises(ParameterError):
            wb.verify_walk_independence(g_random, 2, 0.5, mode="quick")

    @pytest.mark.parametrize("mode,trials", [("exhaustive", -1), ("sampled", -1), ("sampled", 0)])
    def test_no_vacuous_pass_on_trial_counts(self, g_random, mode, trials):
        # sampled mode with no families would check nothing and hold
        with pytest.raises(ParameterError):
            wb.verify_walk_independence(g_random, 2, 0.3, mode=mode, trials=trials)

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
        monkeypatch.setattr(prob, "SCRATCH_BYTES", scratch)
        assert walks._batch_size(16, 2) < 700
        split = wb.verify_walk_independence(g, 2, 1.0, **kwargs).to_dict()
        assert split == whole
        assert len(whole["witnesses"]) > 0

    def test_sampled_batches_fit_the_scratch_budget(self):
        # N = 4096: 100 families drawn at once would take 9.4 MiB of int64 draws
        g = wb.HybridGraph(wb.mgg_rotation(6), np.random.default_rng(19).permutation(4096))
        tracemalloc.start()
        try:
            wb.verify_walk_independence(g, 2, 0.3, mode="sampled", trials=100, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * prob.SCRATCH_BYTES

    def test_family_draws_do_not_depend_on_the_batching(self, monkeypatch):
        # family f is flips 48f .. 48f + 47 of the key's 0/1 stream, whichever
        # call and batch draws it
        from walkbound import rng

        key = rng.stream_key(3, rng.STREAM_AGREE)
        whole = rng.coins(key, 0, 9 * 3 * 16).reshape(9, 3, 16)
        assert np.array_equal(wb.random_families(key, 9, 2, 16), whole)
        assert np.array_equal(wb.random_families(key, 4, 2, 16, first=5), whole[5:])
        monkeypatch.setattr(prob, "SCRATCH_BYTES", 1)
        assert np.array_equal(wb.random_families(key, 9, 2, 16), whole)
        assert np.array_equal(wb.random_families(key, 4, 2, 16, first=5), whole[5:])

    def test_family_draws_fit_the_scratch_budget(self):
        # N = 4096: 100 families drawn at once would take 9.4 MiB of int64 draws
        from walkbound import rng

        tracemalloc.start()
        try:
            masks = wb.random_families(rng.stream_key(1, rng.STREAM_AGREE), 100, 2, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < masks.nbytes + prob.SCRATCH_BYTES

    def test_report_serializes(self, g_random):
        rep = wb.verify_walk_independence(g_random, 2, 0.3, mode="sampled", trials=100, seed=4)
        d = rep.to_dict()
        assert set(d) == {"worst_ratio", "witnesses", "n_single", "n_sampled", "beta", "holds"}


class TestProjectionBridge:
    def test_walk_positions_feed_the_independence_checker(self, g_random):
        # position projections of the walk space behave like relaxed-independent
        # objects at the measured beta
        space, objects = wb.projection_objects(g_random, 2)
        assert space.size == wb.walk_count(g_random, 2)
        beta = 1.0 - wb.second_eigenvalue_magnitude(g_random.rot).alpha
        rep = wb.check_independence(objects, beta, mode="sampled", trials=400, seed=5)
        assert rep.holds

    def test_projections_share_the_walk_columns(self, g_random):
        columns = wb.walk_space(g_random, 2).columns
        _, objects = wb.projection_objects(g_random, 2)
        assert len(objects) == columns.shape[0]
        for u, col in zip(objects, columns):
            assert u.index_map.dtype == columns.dtype and np.shares_memory(u.index_map, col)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("beta", [0.9, 1.0, None], ids=["0.9", "1.0", "measured"])
    def test_both_independence_checkers_give_one_report(self, mode, beta):
        # every weight and mass here is dyadic, so the membership / subset-sum
        # route and the walk-count route give the same floats, witnesses included
        g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(8).permutation(16))
        if beta is None:
            beta = 1.0 - wb.second_eigenvalue_magnitude(g.rot).alpha
        _, objects = wb.projection_objects(g, 2)
        by_objects = wb.check_independence(objects, beta, mode, trials=300, seed=4)
        by_walks = wb.verify_walk_independence(g, 2, beta, mode, trials=300, seed=4)
        assert by_objects.to_dict() == by_walks.to_dict()

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

    def test_reverse_packing_is_read_only(self, g_random):
        f = wb.walk_permutation(g_random, 2)
        rho = f.table
        assert f.table is rho and not rho.flags.writeable
        assert np.array_equal(reverse_table(g_random, 2), rho)


class TestReverseTree:
    """The reverse-packing order: levels of the predecessor tree and the packing
    itself, against per-walk formulas over the walk-index columns."""

    @pytest.mark.parametrize("t", range(5))
    @pytest.mark.parametrize("graph", TREE_GRAPHS, ids="-".join)
    def test_reverse_matches_per_walk_packing(self, graph, t):
        g = tree_graph(*graph)
        d = g.d
        space = wb.walk_space(g, t)
        columns = space.columns.astype(np.int64)
        x = np.arange(columns.shape[1])
        expect = columns[t] * d ** t
        for s in range(1, t + 1):
            label = x // d ** (t - s) % d
            expect += g.rot.back_labels[columns[s - 1], label] * d ** (s - 1)
        reverse = reverse_table(g, t)
        assert reverse.dtype == np.int64 and not reverse.flags.writeable
        assert np.array_equal(reverse, expect)
        assert np.array_equal(np.sort(expect), x)

    @pytest.mark.parametrize("t", range(5))
    @pytest.mark.parametrize("graph", TREE_GRAPHS, ids="-".join)
    def test_levels_hold_the_vertices_backward_from_the_end(self, graph, t):
        g = tree_graph(*graph)
        space = wb.walk_space(g, t)
        reverse = reverse_table(g, t)
        assert len(space.levels) == t
        for k, level in enumerate(space.levels):
            assert level.size == g.n_vertices * g.d ** k
            assert level.dtype == space.columns.dtype and not level.flags.writeable
            assert np.array_equal(level[reverse // g.d ** (t - k)], space.columns[t - k])

    @pytest.mark.parametrize("t", [0, 3])
    def test_one_start_vertex_per_range_gives_the_same_reverse(self, monkeypatch, t):
        def graph():
            return wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(29).permutation(16))

        whole = reverse_table(graph(), t)
        monkeypatch.setattr(prob, "SCRATCH_BYTES", 1)
        g = graph()
        assert len(list(wb.walk_space(g, t)._start_ranges(8))) == 16
        assert np.array_equal(reverse_table(g, t), whole)
        assert np.array_equal(np.sort(whole), np.arange(whole.size))

    def test_one_byte_budget_gives_the_same_columns_and_visits(self, monkeypatch):
        def graph():
            return wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(30).permutation(16))

        # integer weights: every partial sum is exact, whatever the ranges
        weights = np.random.default_rng(31).integers(0, 100, size=16 * 8 ** 3).astype(float)
        space = wb.walk_space(graph(), 3)
        columns, visits = space.columns, space.interior_visits(weights)
        monkeypatch.setattr(prob, "SCRATCH_BYTES", 1)
        space = wb.walk_space(graph(), 3)
        assert np.array_equal(space.columns, columns)
        assert np.array_equal(space.interior_visits(weights), visits)

    def test_scalar_packing_matches_at_degree_three(self):
        g = tree_graph("k4", "random")
        reverse = reverse_table(g, 3)
        packed = [wb.reverse_index(g, wb.walk_from_index(g, 3, idx)) for idx in range(reverse.size)]
        assert packed == reverse.tolist()

    def test_build_holds_no_full_length_temporary(self):
        # W = 256 * 8**4 = 2**20 walks: the uint8 columns take 5 MiB, and one int64
        # temporary of a column's length would take 8 MiB
        g = wb.HybridGraph(wb.mgg_rotation(4), np.random.default_rng(26).permutation(256))
        tracemalloc.start()
        try:
            space = wb.walk_space(g, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < space.columns.nbytes + 2 * 2 ** 20

    def test_reverse_is_built_once_on_first_read(self):
        # beside the 8 MiB int64 packing, one range of it: SCRATCH_BYTES at 11
        # bytes per walk
        g = wb.HybridGraph(wb.mgg_rotation(4), np.random.default_rng(27).permutation(256))
        f = wb.walk_permutation(g, 4)
        assert "table" not in vars(f)
        tracemalloc.start()
        try:
            rho = f.table
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.table is rho and not rho.flags.writeable
        assert peak < rho.nbytes + prob.SCRATCH_BYTES

    @pytest.mark.parametrize("t", range(5))
    @pytest.mark.parametrize("graph", TREE_GRAPHS, ids="-".join)
    def test_heads_hold_each_run_of_the_columns_once(self, graph, t):
        g = tree_graph(*graph)
        space = wb.walk_space(g, t)
        assert len(space.heads) == t and space.n_walks == wb.walk_count(g, t)
        for s, head in enumerate(space.heads):
            assert head.size == g.n_vertices * g.d ** s
            assert head.dtype == space.columns.dtype and not head.flags.writeable
            assert np.array_equal(head, space.columns[s][:: g.d ** (t - s)])

    def test_columns_are_built_once_on_first_read(self):
        # W = 256 * 8**4 = 2**20 walks: beside the 5 MiB uint8 columns, only the
        # last gather's intp indices, one range of heads at a time (256 KiB); all
        # of them at once would take 1 MiB
        g = wb.HybridGraph(wb.mgg_rotation(4), np.random.default_rng(28).permutation(256))
        space = wb.walk_space(g, 4)
        assert "columns" not in vars(space)
        tracemalloc.start()
        try:
            columns = space.columns
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert space.columns is columns
        assert peak < columns.nbytes + 2 ** 20
