"""Toy one-way functions: constructions, reductions, exact success accounting."""

import math
import tracemalloc

import numpy as np
import pytest

import walkbound as wb
from walkbound.errors import BudgetError, ParameterError, StructuralError

from conftest import reverse_inv


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
        assert rep.per_point is not None and rep.per_point.sum() == 48.0

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


class TestPadExtend:
    def test_bijectivity_and_formula(self):
        f = wb.random_permutation(3, 5)
        ext = wb.pad_extend(f, [3, 6], 5)
        assert ext.n == 5 and ext.is_permutation
        for x in range(32):
            assert ext.apply(x) == (f.apply(x >> 2) << 2) | (x & 3)

    def test_exact_schedule_length_needs_no_padding(self):
        f = wb.random_permutation(3, 5)
        ext = wb.pad_extend(f, [2, 3], 3)
        assert np.array_equal(ext.table, f.table)

    def test_schedule_must_select_function_length(self):
        f = wb.random_permutation(3, 5)
        with pytest.raises(StructuralError):
            wb.pad_extend(f, [2, 4], 5)        # picks 4, function has 3
        with pytest.raises(ParameterError):
            wb.pad_extend(f, [6, 8], 5)        # nothing fits
        with pytest.raises(StructuralError):
            wb.pad_extend(f, [3, 3], 5)        # not strictly increasing

    def test_preserves_hardness_on_padded_bits(self):
        # inverting the extension on its image is exactly inverting f on the core
        f = wb.random_permutation(3, 6)
        ext = wb.pad_extend(f, [3], 7)
        prof = np.zeros(1 << 7)
        core = wb.planted_profile(f, 0.5)
        for y in range(1 << 7):
            prof[y] = core[y >> 4]
        oracle = wb.AdversaryOracle(ext, prof, seed=2)
        got = wb.measure_inversion(ext, oracle, mode="exact").success
        base = wb.measure_inversion(
            f, wb.AdversaryOracle(f, core, seed=2), mode="exact"
        ).success
        assert got == base


class TestWalkRepr:
    def test_round_trip_int(self):
        r = wb.WalkRepr(9, (3, 0, 7), 4, 3)
        assert wb.WalkRepr.from_int(r.to_int(), 3, 4, 3) == r
        assert r.n_bits == 13
        assert r.bit_string() == format(r.to_int(), "013b")

    def test_field_validation(self):
        with pytest.raises(StructuralError):
            wb.WalkRepr(16, (0,), 4, 3)
        with pytest.raises(StructuralError):
            wb.WalkRepr(0, (8,), 4, 3)
        with pytest.raises(StructuralError):
            wb.WalkRepr.from_int(1 << 13, 3, 4, 3)

    def test_golden_forward_packing(self, g_identity):
        w = wb.Walk((4, 4, 4, 8), (0, 1, 2))
        phi = wb.forward_repr(g_identity, w)
        assert phi.to_int() == 2058
        assert wb.forward_inv(g_identity, phi) == w

    def test_golden_reverse_packing(self, g_identity):
        w = wb.Walk((4, 4, 4, 8), (0, 1, 2))
        rho = wb.reverse_repr(g_identity, w)
        assert rho.vertex == 8
        assert rho.labels == (3, 0, 1)      # last step's backward label first
        assert rho.to_int() == 4289

    def test_forward_round_trip_random(self, g_random):
        for seed in range(40):
            w = wb.sample_walk(g_random, 4, seed)
            assert wb.forward_inv(g_random, wb.forward_repr(g_random, w)) == w

    def test_reverse_decodes_with_permutation_inverse(self, g_random):
        for seed in range(40):
            w = wb.sample_walk(g_random, 4, seed)
            assert reverse_inv(g_random, wb.reverse_repr(g_random, w)) == w

    def test_geometry_mismatch(self, g_identity):
        r = wb.WalkRepr(0, (0,), 3, 3)
        with pytest.raises(StructuralError):
            wb.forward_inv(g_identity, r)


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
            phi = wb.forward_repr(g_random, w)
            assert phi.to_int() == idx
            assert f.apply(idx) == wb.reverse_repr(g_random, w).to_int()

    def test_budget(self, g_random):
        with pytest.raises(BudgetError):
            wb.walk_permutation(g_random, 7)


class TestConditionedReverse:
    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("y", [0, 2])
    def test_hits_each_conditioned_walk_once(self, i, y):
        # m=1, t=3: ranging over all label choices must produce exactly the
        # reverse packings of the d**t walks whose position-i vertex is y
        g = wb.HybridGraph(wb.mgg_rotation(1), np.random.default_rng(5).permutation(4))
        t, d = 3, g.d
        f = wb.walk_permutation(g, t)
        produced = set()
        for fwd_idx in range(d ** (t - i)):
            fwd = [(fwd_idx // d ** s) % d for s in range(t - i)]
            for pre_idx in range(d ** i):
                prefix = [(pre_idx // d ** s) % d for s in range(i)]
                produced.add(wb.conditioned_reverse_repr(g, t, i, y, fwd, prefix).to_int())
        expected = {
            int(f.table[idx])
            for idx in range(wb.walk_count(g, t))
            if wb.walk_from_index(g, t, idx).vertices[i] == y
        }
        assert len(produced) == d ** t
        assert produced == expected

    def test_label_count_validation(self, g_random):
        with pytest.raises(StructuralError):
            wb.conditioned_reverse_repr(g_random, 3, 2, 0, [0], [0])
        with pytest.raises(ParameterError):
            wb.conditioned_reverse_repr(g_random, 3, 0, 0, [0, 0, 0], [])


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
    def test_round_trip(self):
        cfg = wb.ExperimentConfig(n=4, t=2, k=3, delta=0.25, eps=1 / 64, seed=7, mode="exact", trials=0)
        assert wb.ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_m_is_optional(self):
        d = wb.ExperimentConfig(n=4, t=2, k=1, delta=0.5, eps=0.1, seed=0, mode="mc", trials=10, m=2).to_dict()
        assert d["m"] == 2
        assert wb.ExperimentConfig.from_dict(d).m == 2

    def test_missing_field_rejected(self):
        with pytest.raises(StructuralError):
            wb.ExperimentConfig.from_dict({"n": 4, "t": 2})

    def test_validation(self):
        with pytest.raises(ParameterError):
            wb.ExperimentConfig(n=0, t=1, k=1, delta=0.5, eps=0.1, seed=0, mode="exact", trials=0)
        with pytest.raises(ParameterError):
            wb.ExperimentConfig(n=2, t=1, k=1, delta=1.5, eps=0.1, seed=0, mode="exact", trials=0)
        with pytest.raises(ParameterError):
            wb.ExperimentConfig(n=2, t=1, k=1, delta=0.5, eps=0.1, seed=0, mode="fast", trials=0)
