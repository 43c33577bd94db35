"""Toy one-way functions: constructions, reductions, exact success accounting."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import walkbound as wb
from walkbound.errors import BudgetError, ParameterError, StructuralError

from conftest import TREE_GRAPHS, reverse_inv, tree_graph


def mc_band(p, trials):
    return 4.0 * math.sqrt(p * (1.0 - p) / trials) + 1.0 / trials


class TestToyFunction:
    def test_identity(self):
        f = wb.identity_function(4)
        assert f.apply(11) == 11 and f.is_permutation

    def test_table_shape_rejected(self):
        with pytest.raises(StructuralError):
            wb.ToyFunction(3, 3, np.arange(7), False)

    def test_values_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            wb.ToyFunction(2, 1, np.array([0, 1, 2, 1]), False)

    def test_false_permutation_flag_rejected(self):
        with pytest.raises(StructuralError):
            wb.ToyFunction(2, 2, np.array([0, 0, 1, 2]), True)

    def test_false_permutation_flag_rejected_above_twenty_bits(self):
        # one collision in a 21-bit table: the flag is checked at every size
        table = np.arange(1 << 21)
        table[5] = 6
        with pytest.raises(StructuralError, match="bijection"):
            wb.ToyFunction(21, 21, table, True)

    @staticmethod
    def ranged(*chunks):
        offsets = np.cumsum([0] + [len(c) for c in chunks[:-1]])

        def ranges():
            return ((int(lo), np.array(c, dtype=np.int64)) for lo, c in zip(offsets, chunks))

        return wb.RangedTable(ranges, lambda: np.concatenate(chunks).astype(np.int64),
                              lambda xs: np.concatenate(chunks).astype(np.int64)[xs])

    def test_ranged_table_is_built_on_first_read(self):
        f = wb.ToyFunction(3, 3, self.ranged([3, 1, 0, 2], [7, 5, 4, 6]), True)
        assert "table" not in vars(f)
        assert f.apply(4) == 7 and np.array_equal(f.table, [3, 1, 0, 2, 7, 5, 4, 6])

    def test_ranged_collision_across_ranges_rejected(self):
        with pytest.raises(StructuralError, match="bijection"):
            wb.ToyFunction(3, 3, self.ranged([3, 1, 0, 2], [7, 5, 3, 6]), True)

    def test_duplicate_output_rejected_though_each_range_is_dropped(self):
        # four ranges, each made fresh and dropped before the next; the output
        # 7 comes twice, in the first range and in the last
        table = np.arange(1 << 12)
        table[4000] = 7

        def ranges():
            return ((lo, table[lo: lo + 1024].copy()) for lo in range(0, 1 << 12, 1024))

        source = wb.RangedTable(ranges, lambda: table, lambda xs: table[xs])
        with pytest.raises(StructuralError, match="bijection"):
            wb.ToyFunction(12, 12, source, True)

    def test_point_evaluator_serves_evaluate_and_apply_without_the_table(self):
        source = wb.RangedTable(lambda: iter([(0, np.array([3, 2, 1, 0]))]),
                                lambda: pytest.fail("the table was built"),
                                lambda xs: 3 - xs)
        f = wb.ToyFunction(2, 2, source, False)
        assert f.evaluate(np.array([0, 3])).tolist() == [3, 0] and f.apply(1) == 2
        with pytest.raises(StructuralError):
            f.evaluate([4])

    def test_ranged_value_out_of_range_in_last_range_rejected(self):
        for is_permutation in (True, False):
            with pytest.raises(StructuralError, match="out_bits"):
                wb.ToyFunction(3, 3, self.ranged([3, 1, 0, 2], [7, 5, 4, 8]), is_permutation)

    def test_ranges_that_do_not_tile_the_inputs_rejected(self):
        for chunks in (([0, 1, 2],), ([0, 1, 2, 3], [4, 5, 6, 7], [0]), ([[0, 1], [2, 3]],)):
            with pytest.raises(StructuralError, match="2\\*\\*n entries"):
                wb.ToyFunction(2, 2, self.ranged(*chunks), False)

    def test_permutation_must_preserve_length(self):
        with pytest.raises(StructuralError):
            wb.ToyFunction(2, 3, np.arange(4), True)

    def test_canonical_preimages_pick_smallest(self):
        f = wb.ToyFunction(2, 2, np.array([3, 1, 1, 0]), False)
        pre = f.canonical_preimages()
        assert pre[1] == 1          # ties go to the smaller preimage
        assert pre[2] == -1         # not in the image
        assert pre[0] == 3 and pre[3] == 0

    def test_apply_range(self):
        with pytest.raises(StructuralError):
            wb.identity_function(3).apply(8)

    @pytest.mark.parametrize(
        "build", [wb.identity_function, lambda n: wb.random_permutation(n, 0)], ids=["identity", "random"]
    )
    def test_table_budget_checked_before_allocation(self, build):
        # 2**25 int64 entries would be 256 MiB before any copy
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                build(25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_range_check_holds_no_table_length_temporary(self):
        # 2**20 entries: one bool mask of the table would take 1 MiB
        table = np.random.default_rng(5).integers(0, 1 << 20, 1 << 20)
        table.setflags(write=False)
        tracemalloc.start()
        try:
            f = wb.ToyFunction(20, 20, table, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.table is table
        assert peak < 2 ** 16

    def test_vertex_function(self, g_random):
        f = wb.vertex_function(g_random)
        assert f.n == 4 and f.is_permutation
        assert np.array_equal(f.table, g_random.perm)

    def test_read_only_int64_tables_are_shared(self, g_random):
        assert np.shares_memory(
            wb.walk_permutation(g_random, 2).table, wb.walk_space(g_random, 2).reverse
        )
        assert np.shares_memory(wb.vertex_function(g_random).table, g_random.perm)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_other_tables_are_copied(self, dtype):
        table = np.array([2, 0, 3, 1], dtype=dtype)
        f = wb.ToyFunction(2, 2, table, True)
        table[0] = 0
        assert f.apply(0) == 2
        assert f.table.dtype == np.int64 and not f.table.flags.writeable


class TestDistributionsAndProfiles:
    def test_image_distribution_permutation_uniform(self):
        f = wb.random_permutation(4, 2)
        assert np.array_equal(wb.image_distribution(f), np.full(16, 1 / 16))

    def test_image_distribution_counts_collisions(self):
        f = wb.ToyFunction(2, 2, np.array([0, 0, 0, 3]), False)
        assert np.array_equal(wb.image_distribution(f), [0.75, 0.0, 0.0, 0.25])

    def test_image_distribution_is_counts_over_inputs_bit_for_bit(self):
        table = np.random.default_rng(45).integers(0, 1 << 5, size=1 << 12)
        f = wb.ToyFunction(12, 5, table, False)
        expect = np.bincount(table, minlength=1 << 5) / (1 << 12)
        assert np.array_equal(wb.image_distribution(f), expect)

    def test_image_distribution_holds_one_array(self):
        # 2**20 outputs: the float64 result takes 8 MiB, and integer counts or a
        # copy of the read-only table would take 8 MiB more
        f = wb.random_permutation(20, 3)
        tracemalloc.start()
        try:
            dist = wb.image_distribution(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dist.nbytes + 2 ** 20

    def test_image_distribution_of_non_permutation_holds_one_array(self):
        table = np.random.default_rng(46).integers(0, 1 << 20, size=1 << 20)
        f = wb.ToyFunction(20, 20, table, False)
        tracemalloc.start()
        try:
            dist = wb.image_distribution(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dist.nbytes + 2 ** 20
        assert np.array_equal(dist, np.bincount(table, minlength=1 << 20) / (1 << 20))

    def test_walk_permutation_distribution_is_counts_over_inputs_bit_for_bit(self):
        # the uniform shortcut for permutations against counting, at 2**21 walks
        g = wb.HybridGraph(wb.mgg_rotation(3), np.random.default_rng(1).permutation(64))
        f = wb.walk_permutation(g, 5)
        assert f.n == 21 and f.is_permutation
        expect = np.bincount(f.table, minlength=1 << f.n) / (1 << f.n)
        assert wb.image_distribution(f).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: wb.ToyFunction(
                10, 8, np.random.default_rng(47).integers(0, 1 << 8, size=1 << 10), False
            ),
            lambda: wb.random_permutation(10, 4),
        ],
        ids=["collisions", "permutation"],
    )
    def test_planted_profile_matches_unique_reference(self, build, delta):
        f = build()
        img = np.unique(f.table)
        expect = np.zeros(1 << f.out_bits)
        expect[img[: round((1.0 - delta) * img.size)]] = 1.0
        assert np.array_equal(wb.planted_profile(f, delta), expect)

    def test_planted_profile_size(self):
        f = wb.random_permutation(4, 3)
        prof = wb.planted_profile(f, 0.25)
        assert prof.sum() == 12.0           # round(0.75 * 16) ones
        assert set(np.unique(prof)) <= {0.0, 1.0}
        assert np.array_equal(np.nonzero(prof)[0], np.arange(12))

    def test_planted_profile_skips_non_image(self):
        f = wb.ToyFunction(2, 2, np.array([1, 3, 1, 3]), False)
        prof = wb.planted_profile(f, 0.5)
        assert prof[1] == 1.0 and prof.sum() == 1.0

    def test_planted_delta_range(self):
        with pytest.raises(ParameterError):
            wb.planted_profile(wb.identity_function(2), 0.0)


class TestAdversaryOracle:
    def test_deterministic_per_seed_and_query_index(self):
        f = wb.random_permutation(4, 0)
        prof = np.full(16, 0.5)
        a = wb.AdversaryOracle(f, prof, seed=9)
        b = wb.AdversaryOracle(f, prof, seed=9)
        pattern_a = [a.invert(5) is None for _ in range(30)]
        pattern_b = [b.invert(5) is None for _ in range(30)]
        assert pattern_a == pattern_b
        assert a.query_count == 30

    def test_coin_of_query_q_is_counter_q_of_the_oracle_key(self, monkeypatch):
        # the coins of a block of queries are drawn at once; the block size
        # changes nothing
        from walkbound import owf, prob

        f = wb.random_permutation(4, 0)
        key = prob.stream_key(9, prob.STREAM_ORACLE)
        expect = (prob.uniforms(key, np.arange(50)) < 0.5).tolist()
        for block in (owf.QUERY_BLOCK, 7):
            monkeypatch.setattr(owf, "QUERY_BLOCK", block)
            oracle = wb.AdversaryOracle(f, np.full(16, 0.5), seed=9)
            assert [oracle.invert(5) is not None for _ in range(50)] == expect

    def test_answers_are_canonical_preimages(self):
        f = wb.ToyFunction(2, 2, np.array([3, 1, 1, 0]), False)
        oracle = wb.AdversaryOracle(f, np.ones(4), seed=0)
        assert oracle.invert(1) == 1
        assert oracle.invert(0) == 3

    def test_non_image_point_never_inverts(self):
        f = wb.ToyFunction(2, 2, np.array([3, 1, 1, 0]), False)
        oracle = wb.AdversaryOracle(f, np.ones(4), seed=0)
        assert all(oracle.invert(2) is None for _ in range(10))
        assert oracle.success_profile()[2] == 0.0

    def test_profile_validation(self):
        f = wb.identity_function(3)
        with pytest.raises(StructuralError):
            wb.AdversaryOracle(f, np.ones(4), seed=0)
        with pytest.raises(ParameterError):
            wb.AdversaryOracle(f, np.full(8, 1.5), seed=0)

    def test_exact_success_matches_planted_mass(self):
        f = wb.random_permutation(6, 1)
        oracle = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=4)
        rep = wb.measure_inversion(f, oracle, mode="exact")
        assert rep.success == 0.75
        assert oracle.success_profile().sum() == 48.0

    def test_expected_success_splits_into_body_and_tail(self):
        # E[W] <= eps + P{W > eps} for any profile, checked on the image measure
        rng = np.random.default_rng(6)
        f = wb.ToyFunction(4, 3, rng.integers(0, 8, 16), False)
        prof = rng.random(8)
        img = wb.image_distribution(f)
        e = float(img @ np.where(f.canonical_preimages() >= 0, prof, 0.0))
        for eps in np.linspace(0.05, 0.95, 19):
            tail = float(img[prof > eps].sum())
            assert e <= eps + tail + 1e-12


class TestProfileCache:
    def test_profile_is_computed_once_read_only(self, g_random):
        f = wb.vertex_function(g_random)
        base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=8)
        chain = wb.WalkChainInverter(base, g_random, 3)
        reduced = wb.reduce_walk(chain, g_random, 3, seed=1)
        power = wb.BlockwiseInverter(base, 2)
        inverters = (base, chain, reduced, wb.repeat_amplify(reduced, 3), power,
                     wb.reduce_direct(power, f, 2, seed=1))
        for inv in inverters:
            prof = inv.success_profile()
            assert inv.success_profile() is prof
            assert not prof.flags.writeable
            with pytest.raises(ValueError):
                prof[0] = 0.5

    def test_oracle_keeps_its_own_copy_of_the_profile(self):
        f = wb.random_permutation(3, 11)
        given = wb.planted_profile(f, 0.25)
        expect = given.copy()
        before = wb.AdversaryOracle(f, given, seed=1)
        after = wb.AdversaryOracle(f, given, seed=1)
        assert np.array_equal(before.success_profile(), expect)
        given[:] = 0.5
        assert np.array_equal(before.success_profile(), expect)
        assert np.array_equal(after.success_profile(), expect)
        assert not after.profile.flags.writeable


class TestRepeatedInverter:
    def test_profile_formula(self):
        f = wb.random_permutation(5, 2)
        base = wb.AdversaryOracle(f, np.random.default_rng(1).random(32), seed=3)
        rep = wb.repeat_amplify(base, 8)
        assert np.array_equal(rep.success_profile(), 1.0 - (1.0 - base.success_profile()) ** 8)
        assert rep.cost == 8.0

    def test_mc_matches_exact(self):
        f = wb.random_permutation(5, 2)
        base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.6), seed=3, cost=1.0)
        rep = wb.repeat_amplify(base, 4)
        exact = wb.measure_inversion(f, rep, mode="exact").success
        mc = wb.measure_inversion(f, rep, mode="mc", trials=4000, seed=7)
        assert mc.soundness_violations == 0
        assert abs(mc.success - exact) <= mc_band(exact, 4000)

    def test_k_validation(self):
        base = wb.AdversaryOracle(wb.identity_function(2), np.ones(4), seed=0)
        with pytest.raises(ParameterError):
            wb.repeat_amplify(base, 0)


class TestDirectPower:
    def test_block_zero_is_most_significant(self):
        f = wb.ToyFunction(2, 2, np.array([2, 0, 3, 1]), True)
        p = wb.direct_power(f, 2)
        for x0 in range(4):
            for x1 in range(4):
                assert p.apply((x0 << 2) | x1) == (f.apply(x0) << 2) | f.apply(x1)

    def test_power_of_permutation_is_permutation(self):
        p = wb.direct_power(wb.random_permutation(3, 4), 3)
        assert p.is_permutation and p.n == 9

    def test_budget(self):
        with pytest.raises(BudgetError):
            wb.direct_power(wb.identity_function(13), 2)

    def test_t_validation(self):
        with pytest.raises(ParameterError):
            wb.direct_power(wb.identity_function(2), 0)

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_matches_block_index_arithmetic(self, n, t):
        # a non-permutation with wider outputs, so the shift is by out_bits, not n
        rng = np.random.default_rng(100 * n + t)
        for f in (wb.random_permutation(n, n + t),
                  wb.ToyFunction(n, n + 1, rng.integers(0, 1 << (n + 1), size=1 << n), False)):
            idx = np.arange(1 << (n * t), dtype=np.int64)
            expect = np.zeros_like(idx)
            for j in range(t):
                block = (idx >> (n * (t - 1 - j))) & ((1 << n) - 1)
                expect = (expect << f.out_bits) | f.table[block]
            p = wb.direct_power(f, t)
            assert p.table.dtype == np.int64 and not p.table.flags.writeable
            assert p.table.tobytes() == expect.tobytes()
            assert (p.n, p.out_bits, p.is_permutation) == (n * t, f.out_bits * t, f.is_permutation)

    def test_power_table_waits_for_its_first_read(self):
        # exact success of a permutation's power sums the runs, never the table
        f = wb.random_permutation(6, 8)
        p = wb.direct_power(f, 3)
        base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=0)
        rep = wb.measure_inversion(p, wb.BlockwiseInverter(base, 3, power=p), mode="exact")
        assert rep.success == 0.75 ** 3 and "table" not in vars(p)

    def test_power_table_is_shared_not_copied(self):
        # 2**20 entries: the int64 table takes 8 MiB, and a copy of it 8 MiB more;
        # the construction checks hold bool temporaries of 1 MiB
        f = wb.random_permutation(10, 5)
        tracemalloc.start()
        try:
            p = wb.direct_power(f, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p.table.nbytes + 2 * 2 ** 20

    @pytest.mark.parametrize("n, t", [(1, 1), (3, 3), (5, 2), (3, 6)])
    def test_evaluator_equals_the_assembled_table(self, n, t):
        # (3, 6): 2**18 inputs, several ranges
        rng = np.random.default_rng(10 * n + t)
        f = wb.ToyFunction(n, n + 1, rng.integers(0, 1 << (n + 1), size=1 << n), False)
        p = wb.direct_power(f, t)
        values = p.evaluate(np.arange(1 << (n * t)))
        assert "table" not in vars(p)
        assert values.dtype == np.int64 and values.tobytes() == p.table.tobytes()

    def test_ranges_fit_the_scratch_budget_at_any_block_count(self):
        # ten 2-bit blocks, 2**20 inputs: the bijection mask takes 1 MiB and one
        # range WALK_SCRATCH_BYTES; a table of the other nine blocks' power,
        # beside two ranges of it, took 7 MiB
        from walkbound.walks import WALK_SCRATCH_BYTES

        f = wb.identity_function(2)
        tracemalloc.start()
        try:
            p = wb.direct_power(f, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.is_permutation and "table" not in vars(p)
        assert peak < 2 ** 20 + WALK_SCRATCH_BYTES + 2 ** 18

    def test_mc_reads_no_power_table(self):
        f = wb.random_permutation(4, 3)
        p = wb.direct_power(f, 3)
        base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=1)
        rep = wb.measure_inversion(p, wb.BlockwiseInverter(base, 3, power=p), mode="mc",
                                   trials=500, seed=2)
        assert rep.soundness_violations == 0 and rep.success > 0
        assert "table" not in vars(p)


def random_walk(g, t, seed):
    """A uniform t-walk of ``g``: the walk at a uniform index of its walk space."""
    index = int(np.random.default_rng(seed).integers(wb.walk_count(g, t)))
    return wb.walk_from_index(g, t, index)


class TestWalkPackings:
    def test_round_trip_int(self, g_identity):
        idx = ((9 * 8 + 3) * 8 + 0) * 8 + 7
        w = wb.walk_from_index(g_identity, 3, idx)
        assert (w.vertices[0], w.labels) == (9, (3, 0, 7))
        assert wb.walk_index(g_identity, w) == idx

    def test_golden_forward_packing(self, g_identity):
        w = wb.Walk((4, 4, 4, 8), (0, 1, 2))
        assert wb.walk_index(g_identity, w) == 2058
        assert wb.walk_from_index(g_identity, 3, 2058) == w

    def test_golden_reverse_packing(self, g_identity):
        w = wb.Walk((4, 4, 4, 8), (0, 1, 2))
        rho = wb.reverse_index(g_identity, w)
        assert rho // 8 ** 3 == 8
        assert [rho // 8 ** s % 8 for s in (2, 1, 0)] == [3, 0, 1]   # last step's backward label first
        assert rho == 4289

    def test_forward_round_trip_random(self, g_random):
        for seed in range(40):
            w = random_walk(g_random, 4, seed)
            assert wb.walk_from_index(g_random, 4, wb.walk_index(g_random, w)) == w

    def test_reverse_decodes_with_permutation_inverse(self, g_random):
        for seed in range(40):
            w = random_walk(g_random, 4, seed)
            assert reverse_inv(g_random, 4, wb.reverse_index(g_random, w)) == w


class TestWalkPermutation:
    def test_identity_at_t0(self, g_random):
        f = wb.walk_permutation(g_random, 0)
        assert np.array_equal(f.table, np.arange(16))

    def test_is_13_bit_permutation(self, g_random):
        f = wb.walk_permutation(g_random, 3)
        assert f.n == 13 and f.is_permutation       # constructor re-validates

    def test_golden_entry(self, g_identity):
        assert wb.walk_permutation(g_identity, 3).apply(2058) == 4289

    def test_agrees_with_per_walk_representations(self, g_random):
        f = wb.walk_permutation(g_random, 2)
        for idx in (0, 5, 333, 1023):
            w = wb.walk_from_index(g_random, 2, idx)
            assert wb.walk_index(g_random, w) == idx
            assert f.apply(idx) == wb.reverse_index(g_random, w)

    def test_table_is_the_walk_spaces_reverse_read_on_first_use(self, g_random):
        g = wb.HybridGraph(g_random.rot, g_random.perm)
        f = wb.walk_permutation(g, 2)
        assert "table" not in vars(f) and "reverse" not in vars(wb.walk_space(g, 2))
        assert f.table is wb.walk_space(g, 2).reverse

    @pytest.mark.parametrize("m, t", [(1, 1), (2, 3), (3, 4)])
    def test_evaluate_gives_the_reverse_packing_without_building_it(self, m, t):
        rot = wb.mgg_rotation(m)
        g = wb.HybridGraph(rot, np.random.default_rng(10 * m + t).permutation(rot.n_vertices))
        f = wb.walk_permutation(g, t)
        space = wb.walk_space(g, t)
        values = f.evaluate(np.arange(space.n_walks))
        assert "table" not in vars(f) and "reverse" not in vars(space)
        assert values.dtype == np.int64 and np.array_equal(values, space.reverse)

    def test_checks_hold_one_reverse_range_at_a_time(self):
        # m = 3, t = 5, walk space built beforehand: the 2 MiB bijection mask
        # plus one range's working set at 11 bytes per walk; holding a range
        # while the next was built traced 6.5 MiB
        g = wb.HybridGraph(wb.mgg_rotation(3), np.random.default_rng(26).permutation(64))
        wb.walk_space(g, 5)
        tracemalloc.start()
        try:
            wb.walk_permutation(g, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    def test_checks_hold_no_table_length_array(self):
        # m = 3, t = 5: 2**21 walks; the int64 table would take 16 MiB, and the
        # bool mask of the bijection check takes 2 MiB
        g = wb.HybridGraph(wb.mgg_rotation(3), np.random.default_rng(26).permutation(64))
        tracemalloc.start()
        try:
            f = wb.walk_permutation(g, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert f.n == 21 and "table" not in vars(f)

    def test_budget(self, g_random):
        with pytest.raises(BudgetError):
            wb.walk_permutation(g_random, 7)

    def test_degree_three_has_no_bit_width(self):
        # k4: 4 * 3**t walks, never a power of two for t >= 1
        g = tree_graph("k4", "random")
        with pytest.raises(StructuralError):
            wb.walk_permutation(g, 2)
        inner = wb.AdversaryOracle(wb.identity_function(5), np.zeros(32), seed=0)
        with pytest.raises(StructuralError):
            wb.reduce_walk(inner, g, 2, seed=0)


class TestConditionedReverse:
    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("y", [0, 2])
    @pytest.mark.parametrize("graph", ["mgg1", "k4"])
    def test_hits_each_conditioned_walk_once(self, graph, i, y):
        # m=1 and k4 (degree 3), t=3: ranging over all label choices must produce
        # exactly the reverse packings of the d**t walks whose position-i vertex is y
        if graph == "mgg1":
            g = wb.HybridGraph(wb.mgg_rotation(1), np.random.default_rng(5).permutation(4))
        else:
            g = tree_graph("k4", "random")
        t, d = 3, g.d
        reverse = wb.walk_space(g, t).reverse
        produced = set()
        for fwd_idx in range(d ** (t - i)):
            fwd = [(fwd_idx // d ** s) % d for s in range(t - i)]
            for pre_idx in range(d ** i):
                prefix = [(pre_idx // d ** s) % d for s in range(i)]
                produced.add(wb.conditioned_reverse_index(g, t, i, y, fwd, prefix))
        expected = {
            int(reverse[idx])
            for idx in range(wb.walk_count(g, t))
            if wb.walk_from_index(g, t, idx).vertices[i] == y
        }
        assert len(produced) == d ** t
        assert produced == expected

    def test_label_count_validation(self, g_random):
        with pytest.raises(StructuralError):
            wb.conditioned_reverse_index(g_random, 3, 2, 0, [0], [0])
        with pytest.raises(ParameterError):
            wb.conditioned_reverse_index(g_random, 3, 0, 0, [0, 0, 0], [])


class TestReductionDraws:
    @pytest.mark.parametrize("construction", ["direct", "walk"])
    def test_answers_do_not_depend_on_the_query_block(self, monkeypatch, g_random, construction):
        # t = 4 walk steps and t = 3 blocks: positions drawn below 3, so some
        # draws are redrawn; queries 0..39 span several 7-query blocks
        from walkbound import owf

        def answers():
            if construction == "direct":
                f = wb.random_permutation(3, 11)
                base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=1)
                reduced = wb.reduce_direct(wb.BlockwiseInverter(base, 3), f, 3, seed=4)
            else:
                f = wb.vertex_function(g_random)
                base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=1)
                reduced = wb.reduce_walk(wb.WalkChainInverter(base, g_random, 4), g_random, 4,
                                         seed=4)
            return [reduced.invert(y % (1 << f.n)) for y in range(40)]

        whole = answers()
        monkeypatch.setattr(owf, "QUERY_BLOCK", 7)
        assert answers() == whole
        assert None in whole and any(x is not None for x in whole)


class TestBlockwiseInverter:
    def setup_method(self):
        self.f = wb.random_permutation(3, 11)
        self.base = wb.AdversaryOracle(self.f, wb.planted_profile(self.f, 0.25), seed=1)

    def test_profile_is_outer_power(self):
        inv = wb.BlockwiseInverter(self.base, 2)
        prof = inv.success_profile()
        bp = self.base.success_profile()
        for y0 in range(8):
            for y1 in range(8):
                assert prof[(y0 << 3) | y1] == bp[y0] * bp[y1]

    def test_exact_success_is_power_of_base(self):
        for t in (1, 2, 3):
            inv = wb.BlockwiseInverter(self.base, t)
            got = wb.measure_inversion(inv.func, inv, mode="exact").success
            assert abs(got - 0.75 ** t) <= 1e-15

    def test_mc_agrees_and_stays_sound(self):
        inv = wb.BlockwiseInverter(self.base, 2)
        mc = wb.measure_inversion(inv.func, inv, mode="mc", trials=3000, seed=2)
        assert mc.soundness_violations == 0
        assert abs(mc.success - 0.75 ** 2) <= mc_band(0.75 ** 2, 3000)

    def test_cost(self):
        assert wb.BlockwiseInverter(self.base, 4).cost == 4.0


class TestWalkChainInverter:
    def test_profile_matches_per_walk_product(self, g_random):
        f = wb.vertex_function(g_random)
        base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=8)
        inv = wb.WalkChainInverter(base, g_random, 2)
        prof = inv.success_profile()
        bp = base.success_profile()
        wp = wb.walk_permutation(g_random, 2)
        for idx in (0, 17, 512, 1000):
            w = wb.walk_from_index(g_random, 2, idx)
            expect = bp[w.vertices[1]] * bp[w.vertices[2]]
            assert prof[int(wp.table[idx])] == expect

    def test_exact_success_is_chain_mean(self, g_random):
        f = wb.vertex_function(g_random)
        base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=8)
        inv = wb.WalkChainInverter(base, g_random, 3)
        got = wb.measure_inversion(inv.func, inv, mode="exact").success
        bp = base.success_profile()
        columns = wb.walk_space(g_random, 3).columns
        expect = float(np.mean(bp[columns[1]] * bp[columns[2]] * bp[columns[3]]))
        assert got == expect

    def test_mc_agrees_and_stays_sound(self, g_random):
        f = wb.vertex_function(g_random)
        base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=8)
        inv = wb.WalkChainInverter(base, g_random, 2)
        exact = wb.measure_inversion(inv.func, inv, mode="exact").success
        mc = wb.measure_inversion(inv.func, inv, mode="mc", trials=3000, seed=3)
        assert mc.soundness_violations == 0
        assert abs(mc.success - exact) <= mc_band(exact, 3000)


class TestReducedDirect:
    def setup_method(self):
        self.f = wb.random_permutation(3, 11)
        self.base = wb.AdversaryOracle(self.f, wb.planted_profile(self.f, 0.25), seed=1)
        self.block = wb.BlockwiseInverter(self.base, 3)
        self.red = wb.reduce_direct(self.block, self.f, 3, seed=21)

    def test_single_inner_query_per_call(self):
        for q in range(50):
            self.red.invert(q % 8)
        assert self.block.query_count == 50

    def test_exact_success_equals_power_success(self):
        mine = wb.measure_inversion(self.f, self.red, mode="exact").success
        inner = wb.measure_inversion(self.block.func, self.block, mode="exact").success
        assert mine == inner == 0.75 ** 3

    def test_mc_sound_and_in_band(self):
        mc = wb.measure_inversion(self.f, self.red, mode="mc", trials=2000, seed=5)
        assert mc.soundness_violations == 0
        assert abs(mc.success - 0.75 ** 3) <= mc_band(0.75 ** 3, 2000)

    def test_cost_accounting(self):
        assert self.red.cost == self.block.cost + 2 * 3 - 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            wb.reduce_direct(self.block, self.f, 2, seed=0)


class TestReducedWalk:
    def setup_method(self):
        rot = wb.mgg_rotation(2)
        self.g = wb.HybridGraph(rot, np.random.default_rng(7).permutation(16))
        self.f = wb.vertex_function(self.g)
        self.base = wb.AdversaryOracle(self.f, wb.planted_profile(self.f, 0.25), seed=8)
        self.chain = wb.WalkChainInverter(self.base, self.g, 3)
        self.red = wb.reduce_walk(self.chain, self.g, 3, seed=31)

    def test_single_inner_query_per_call(self):
        for q in range(40):
            self.red.invert(q % 16)
        assert self.chain.query_count == 40

    def test_exact_success_equals_chain_success(self):
        mine = wb.measure_inversion(self.f, self.red, mode="exact").success
        inner = wb.measure_inversion(self.chain.func, self.chain, mode="exact").success
        assert mine == inner

    def test_mc_sound_and_in_band(self):
        exact = wb.measure_inversion(self.f, self.red, mode="exact").success
        mc = wb.measure_inversion(self.f, self.red, mode="mc", trials=2000, seed=6)
        assert mc.soundness_violations == 0
        assert abs(mc.success - exact) <= mc_band(exact, 2000)

    def test_returned_preimages_are_correct(self):
        hits = 0
        for q in range(300):
            y = q % 16
            x = self.red.invert(y)
            if x is not None:
                assert self.f.apply(x) == y
                hits += 1
        assert hits > 0

    def test_t_must_allow_interior_position(self):
        with pytest.raises(ParameterError):
            wb.reduce_walk(wb.WalkChainInverter(self.base, self.g, 1), self.g, 1, seed=0)

    def test_cost_accounting(self):
        assert self.red.cost == self.chain.cost + 2 * 3 - 1


# Random float profiles: the tree kernels change only the order of the products
# and sums, so they agree with the per-walk formulas to rounding.
PROFILE_RTOL = 1e-12


def vertex_profile(g, kind):
    if kind == "planted":
        return wb.planted_profile(wb.vertex_function(g), 0.5)
    return np.random.default_rng(43).random(g.n_vertices)


def per_walk_chain(space, bp):
    """The product over positions 1..t in walk-index order, scattered through
    the reverse packing."""
    vals = np.ones(space.columns.shape[1])
    for col in space.columns[1:]:
        vals *= bp[col]
    out = np.zeros(space.columns.shape[1])
    out[space.reverse] = vals
    return out


def per_walk_interior(space, weights, n):
    """Weights gathered into walk-index order, then one bincount per interior
    position."""
    per_walk = weights[space.reverse]
    acc = np.zeros(n)
    for col in space.columns[1:-1]:
        acc += np.bincount(col, weights=per_walk, minlength=n)
    return acc


def assert_profiles_match(got, expect, kind):
    if kind == "planted":
        assert np.array_equal(got, expect)
    else:
        np.testing.assert_allclose(got, expect, rtol=PROFILE_RTOL, atol=0.0)


class TestReverseTreeProfiles:
    """Both walk profiles over the predecessor tree against the per-walk
    formulas; on k4 (d = 3, no bit packing) through the walk space's kernels."""

    @pytest.mark.parametrize("kind", ["planted", "random"])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("graph", TREE_GRAPHS, ids="-".join)
    def test_chain_profile(self, graph, t, kind):
        g = tree_graph(*graph)
        bp = vertex_profile(g, kind)
        space = wb.walk_space(g, t)
        expect = per_walk_chain(space, bp)
        assert_profiles_match(np.repeat(space.path_products(bp), g.d), expect, kind)
        if graph[0] == "mgg2":
            base = wb.AdversaryOracle(wb.vertex_function(g), bp, seed=9)
            got = wb.WalkChainInverter(base, g, t).success_profile()
            assert_profiles_match(got, expect, kind)

    @pytest.mark.parametrize("kind", ["planted", "random"])
    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("graph", TREE_GRAPHS, ids="-".join)
    def test_reduced_profile(self, graph, t, kind):
        g = tree_graph(*graph)
        space = wb.walk_space(g, t)
        bp = vertex_profile(g, kind)
        weights = per_walk_chain(space, bp)
        if kind == "random":
            weights = np.random.default_rng(44).random(weights.size)
        expect = per_walk_interior(space, weights, g.n_vertices)
        assert_profiles_match(space.interior_visits(weights), expect, kind)
        if graph[0] == "mgg2":
            base = wb.AdversaryOracle(wb.vertex_function(g), bp, seed=9)
            chain = wb.WalkChainInverter(base, g, t)
            inner = chain.success_profile()
            got = wb.reduce_walk(chain, g, t, seed=10).success_profile()
            expect = per_walk_interior(space, inner, g.n_vertices) / ((t - 1) * g.d ** t)
            assert_profiles_match(got, expect, kind)


class TestProfileRuns:
    """The chain profile is kept as one value per run of d outputs: every
    reader of the runs agrees with the per-output profile they expand to."""

    @pytest.mark.parametrize("kind", ["planted", "random"])
    @pytest.mark.parametrize("graph", [g for g in TREE_GRAPHS if g[0] == "mgg2"], ids="-".join)
    def test_every_inverter_expands_its_runs(self, graph, kind):
        g = tree_graph(*graph)
        f = wb.vertex_function(g)
        base = wb.AdversaryOracle(f, vertex_profile(g, kind), seed=9)
        chain = wb.WalkChainInverter(base, g, 3)
        reduced = wb.reduce_walk(chain, g, 3, seed=10)
        power = wb.BlockwiseInverter(base, 2)
        inverters = (base, chain, reduced, wb.repeat_amplify(reduced, 3), power,
                     wb.reduce_direct(power, f, 2, seed=1))
        for inv in inverters:
            runs = inv.success_runs()
            values, run = runs
            assert inv.success_runs() is runs
            assert run == (g.d if inv is chain else 1)
            assert values.size * run == 1 << inv.func.out_bits
            assert not values.flags.writeable
            prof = inv.success_profile()
            assert np.array_equal(prof, np.repeat(values, run))
            assert inv.success_profile() is prof and not prof.flags.writeable

    @pytest.mark.parametrize("kind", ["planted", "random"])
    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("graph", TREE_GRAPHS, ids="-".join)
    def test_reduced_profile_from_runs(self, graph, t, kind):
        # d = 8 scales exactly; k4's d = 3 rounds 3v once either way
        g = tree_graph(*graph)
        space = wb.walk_space(g, t)
        bp = vertex_profile(g, kind)
        values = space.path_products(bp)
        assert values.size == g.n_vertices * g.d ** (t - 1)
        expanded = space.interior_visits(np.repeat(values, g.d))
        assert np.array_equal(space.interior_visits(values * g.d), expanded)
        if graph[0] == "mgg2":
            base = wb.AdversaryOracle(wb.vertex_function(g), bp, seed=9)
            chain = wb.WalkChainInverter(base, g, t)
            got = wb.reduce_walk(chain, g, t, seed=10).success_profile()
            assert np.array_equal(got, expanded / ((t - 1) * g.d ** t))

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("graph", [g for g in TREE_GRAPHS if g[0] == "mgg2"], ids="-".join)
    def test_exact_chain_success_is_the_expanded_sum(self, graph, t):
        g = tree_graph(*graph)
        base = wb.AdversaryOracle(wb.vertex_function(g), vertex_profile(g, "planted"), seed=9)
        chain = wb.WalkChainInverter(base, g, t)
        rep = wb.measure_inversion(chain.func, chain, mode="exact")
        prof = chain.success_profile()
        assert rep.success == float(np.sum(prof)) * 2.0 ** -chain.func.n


class TestMeasureInversion:
    def test_zero_success_is_unbounded(self):
        f = wb.identity_function(4)
        oracle = wb.AdversaryOracle(f, np.zeros(16), seed=0)
        rep = wb.measure_inversion(f, oracle, mode="exact")
        assert rep.security.unbounded and rep.security.security == math.inf
        assert rep.security.to_dict()["security"] is None

    def test_security_ratio(self):
        f = wb.random_permutation(4, 9)
        oracle = wb.AdversaryOracle(f, wb.planted_profile(f, 0.5), seed=0, cost=3.0)
        rep = wb.measure_inversion(f, oracle, mode="exact")
        assert rep.security.security == 3.0 / rep.success

    def test_exact_report_does_not_keep_its_oracle(self):
        # a report holds numbers only: the oracle and its cached profile are freed
        f = wb.random_permutation(8, 3)
        oracle = wb.AdversaryOracle(f, wb.planted_profile(f, 0.5), seed=0)
        rep = wb.measure_inversion(f, oracle, mode="exact")
        freed = weakref.ref(oracle)
        del oracle
        gc.collect()
        assert freed() is None and rep.success == 0.5

    def test_permutation_success_is_the_profile_sum_with_no_image_array(self):
        # 2**20 outputs: a uniform image distribution beside the cached profile
        # would take 8 MiB
        f = wb.random_permutation(20, 6)
        oracle = wb.AdversaryOracle(f, wb.planted_profile(f, 0.3), seed=0)
        profile = oracle.success_profile()
        tracemalloc.start()
        try:
            rep = wb.measure_inversion(f, oracle, mode="exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert rep.success == float(np.sum(profile)) * 2.0 ** -20

    def test_exact_walk_measure_keeps_the_chain_profile_in_runs(self):
        # 16 * 8**6 = 2**22 walks: the expanded chain profile alone would take
        # 32 MiB; its runs take 4 MiB
        g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(45).permutation(16))
        f = wb.vertex_function(g)
        base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=9)
        chain = wb.WalkChainInverter(base, g, 6)
        reduced = wb.reduce_walk(chain, g, 6, seed=10)
        base.success_profile()
        n_walks = wb.walk_count(g, 6)
        tracemalloc.start()
        try:
            wb.measure_inversion(chain.func, chain, mode="exact")
            wb.measure_inversion(f, reduced, mode="exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_walks * 8 // 2

    def test_report_omits_per_point(self):
        f = wb.random_permutation(4, 9)
        oracle = wb.AdversaryOracle(f, wb.planted_profile(f, 0.5), seed=0)
        rep = wb.measure_inversion(f, oracle, mode="exact")
        assert "per_point" not in rep.to_dict()

    def test_mode_validation(self):
        f = wb.identity_function(2)
        oracle = wb.AdversaryOracle(f, np.ones(4), seed=0)
        with pytest.raises(ParameterError):
            wb.measure_inversion(f, oracle, mode="sampled")
        with pytest.raises(ParameterError):
            wb.measure_inversion(f, oracle, mode="mc", trials=0)

    @pytest.mark.parametrize("kind", ["table", "walk"])
    def test_mc_batched_check_counts_every_wrong_answer(self, g_random, kind):
        # by query: the true preimage, a wrong one, two off the domain, none
        if kind == "table":
            f = wb.random_permutation(6, 3)
            preimage = lambda y: int(f.canonical_preimages()[y])
        else:
            f = wb.walk_permutation(g_random, 2)
            preimage = lambda y: wb.walk_index(g_random, reverse_inv(g_random, 2, y))

        class Liar(wb.Inverter):
            def invert(self, y):
                q = self.query_count
                self.query_count += 1
                x = preimage(y)
                return (x, (x + 1) % (1 << f.n), -1, 1 << f.n, None)[q % 5]

        # 9000 trials: the answers are checked over more than one block
        rep = wb.measure_inversion(f, Liar(f, 1.0), mode="mc", trials=9000, seed=4)
        assert rep.success == 0.2 and rep.soundness_violations == 5400
        assert kind == "table" or "table" not in vars(f)


class TestEnvelope:
    def test_holds_on_dense_grid(self):
        rep = wb.envelope_check(0.3, 12, np.linspace(0.0, 1.0, 2000))
        assert rep.holds and not rep.dominance_applicable

    def test_touch_point_stays_below(self):
        # x = 1/(beta*t) makes the line side equal 1/e while (1-1/t)**t < 1/e
        beta, t = 0.5, 10
        rep = wb.envelope_check(beta, t, np.array([1.0 / (beta * t)]))
        assert rep.envelope_excess < 0.0

    @pytest.mark.parametrize(
        "beta,t,applicable", [(0.116, 61, True), (0.5, 61, True), (0.116, 60, False)]
    )
    def test_dominance_gate(self, beta, t, applicable):
        rep = wb.envelope_check(beta, t, np.linspace(0.0, 1.0, 200))
        assert rep.dominance_applicable == applicable
        assert rep.holds
        if applicable:
            assert rep.dominance_excess <= 1e-12
        else:
            assert rep.dominance_excess is None

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            wb.envelope_check(0.0, 5, np.array([0.1]))
        with pytest.raises(ParameterError):
            wb.envelope_check(0.5, 0, np.array([0.1]))


class TestExperimentConfig:
    def test_m_is_optional(self):
        d = wb.ExperimentConfig(n=4, t=2, k=1, delta=0.5, eps=0.1, seed=0, mode="mc", trials=10, m=2).to_dict()
        assert d["m"] == 2

    def test_validation(self):
        with pytest.raises(ParameterError):
            wb.ExperimentConfig(n=0, t=1, k=1, delta=0.5, eps=0.1, seed=0, mode="exact", trials=0)
        with pytest.raises(ParameterError):
            wb.ExperimentConfig(n=2, t=1, k=1, delta=1.5, eps=0.1, seed=0, mode="exact", trials=0)
        with pytest.raises(ParameterError):
            wb.ExperimentConfig(n=2, t=1, k=1, delta=0.5, eps=0.1, seed=0, mode="fast", trials=0)
