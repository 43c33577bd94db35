"""Probability core: spaces, conditionals, tails, bound evaluators, independence."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkbound as wb
from walkbound import prob
from walkbound.errors import (
    BudgetError,
    MarginalMismatchError,
    ParameterError,
    StructuralError,
)
from walkbound.prob import cube_instance, random_product_instance


def random_instance(seed, n_outcomes=12, psi=4, t=3):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, n_outcomes)
    space = wb.FiniteSpace(w / w.sum())
    z = wb.RandomVariable(space, rng.random(n_outcomes))
    objs = [
        wb.RandomObject(space, tuple(range(psi)), rng.integers(0, psi, n_outcomes))
        for _ in range(t)
    ]
    return space, z, objs


def brute_conditional(z, u):
    num, mass = {}, {}
    for i, w in enumerate(z.domain.weights):
        a = int(u.index_map[i])
        num[a] = num.get(a, 0.0) + w * z.values[i]
        mass[a] = mass.get(a, 0.0) + w
    out = np.zeros(len(u.codomain))
    for a in num:
        if mass[a] > 0:
            out[a] = num[a] / mass[a]
    return out


class TestSpaces:
    def test_weights_must_normalize(self):
        with pytest.raises(StructuralError):
            wb.FiniteSpace(np.array([0.7, 0.7]))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(StructuralError):
            wb.FiniteSpace(np.array([1.5, -0.5]))

    def test_empty_space_rejected(self):
        with pytest.raises(StructuralError):
            wb.FiniteSpace(np.array([]))

    def test_uniform(self):
        s = wb.FiniteSpace.uniform(4)
        assert s.size == 4
        assert np.allclose(s.weights, 0.25)

    def test_weights_are_read_only(self):
        s = wb.FiniteSpace.uniform(3)
        with pytest.raises(ValueError):
            s.weights[0] = 9.0

    def test_object_map_must_be_total(self):
        s = wb.FiniteSpace.uniform(3)
        with pytest.raises(StructuralError):
            wb.RandomObject(s, (0, 1), np.array([0, 1]))
        with pytest.raises(StructuralError):
            wb.RandomObject(s, (0, 1), np.array([0, 1, 2]))

    @pytest.mark.parametrize("index_map", [np.array([0.9, 0.2, 1.0]), np.array([True, False, True])],
                             ids=["float", "bool"])
    def test_object_map_must_be_integer(self, index_map):
        # a cast would read 0.9 as 0 and True as 1
        s = wb.FiniteSpace.uniform(3)
        with pytest.raises(StructuralError, match="integers"):
            wb.RandomObject(s, (0, 1), index_map)

    def test_distribution_is_pushforward(self):
        s = wb.FiniteSpace(np.array([0.2, 0.3, 0.5]))
        u = wb.RandomObject(s, ("x", "y"), np.array([0, 1, 0]))
        assert np.allclose(u.distribution(), [0.7, 0.3])

    def test_uint64_map_is_read_as_int64(self):
        # the one integer dtype int64 does not hold; bincount takes no uint64 indices
        s = wb.FiniteSpace(np.array([0.2, 0.3, 0.5]))
        u = wb.RandomObject(s, ("x", "y"), np.array([0, 1, 0], dtype=np.uint64))
        assert u.index_map.dtype == np.int64 and np.allclose(u.distribution(), [0.7, 0.3])

    def test_read_only_values_are_shared(self):
        # a read-only float64 array is kept as it is: no 8-byte copy per entry
        n = 2 ** 20
        space = wb.FiniteSpace.uniform(n)
        values = np.linspace(0.0, 1.0, n)
        values.setflags(write=False)
        tracemalloc.start()
        try:
            z = wb.RandomVariable(space, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert z.values is values and peak < 2 * n

    @pytest.mark.parametrize("writable, dtype", [(True, np.float64), (False, np.float32)],
                             ids=["writable", "float32"])
    def test_other_values_are_copied(self, writable, dtype):
        # only a read-only float64 array is kept; the caller's later writes never reach a copy
        values = np.array([0.25, 0.5, 0.75], dtype=dtype)
        values.setflags(write=writable)
        z = wb.RandomVariable(wb.FiniteSpace.uniform(3), values)
        assert z.values is not values and not z.values.flags.writeable
        assert z.values.dtype == np.float64
        if writable:
            values[0] = 9.0
        assert z.values.tolist() == [0.25, 0.5, 0.75]

    def test_variable_rejects_nan(self):
        s = wb.FiniteSpace.uniform(2)
        with pytest.raises(StructuralError):
            wb.RandomVariable(s, np.array([0.0, np.nan]))


class TestConditionals:
    def test_matches_brute_force(self):
        for seed in range(20):
            _, z, objs = random_instance(seed)
            for u in objs:
                got = wb.conditional_expectation(z, u)
                assert np.max(np.abs(got.values - brute_conditional(z, u))) <= 1e-12

    def test_constant_z(self):
        s, _, objs = random_instance(3)
        z = wb.RandomVariable(s, np.full(s.size, 0.42))
        w = wb.conditional_expectation(z, objs[0])
        assert np.allclose(w.values, 0.42)

    def test_iterated_expectation(self):
        for seed in range(30):
            _, z, objs = random_instance(seed, n_outcomes=40, psi=6)
            for u in objs:
                w = wb.conditional_expectation(z, u)
                assert abs(wb.expectation(w) - wb.expectation(z)) <= 1e-12

    def test_zero_mass_point_gets_zero(self):
        s = wb.FiniteSpace(np.array([0.5, 0.5, 0.0]))
        z = wb.RandomVariable(s, np.array([1.0, 1.0, 1.0]))
        u = wb.RandomObject(s, (0, 1, 2), np.array([0, 0, 2]))
        w = wb.conditional_expectation(z, u)
        assert w.values[2] == 0.0 and w.values[0] == 1.0

    def test_domain_mismatch(self):
        s1, z, _ = random_instance(0)
        s2 = wb.FiniteSpace.uniform(12)
        u = wb.RandomObject(s2, (0, 1), np.zeros(12, dtype=int))
        with pytest.raises(StructuralError):
            wb.conditional_expectation(z, u)


class TestTail:
    def test_strict_inequality(self):
        s = wb.FiniteSpace.uniform(4)
        w = wb.RandomVariable(s, np.full(4, 0.5))
        assert wb.tail_probability(w, 0.5) == 0.0
        assert wb.tail_probability(w, 0.49) == 1.0

    def test_matches_brute_force_on_grid(self):
        rng = np.random.default_rng(5)
        s = wb.FiniteSpace.uniform(32)
        w = wb.RandomVariable(s, rng.random(32))
        for eps in np.linspace(0.0, 1.0, 21):
            brute = sum(1 / 32 for v in w.values if v > eps)
            assert abs(wb.tail_probability(w, float(eps)) - brute) <= 1e-15


class TestPooledBound:
    def test_holds_on_product_spaces(self):
        for seed in range(100):
            z, objs = random_product_instance(3, 4, seed, identical=True)
            rep = wb.pooled_bound(z, objs, 0.05)
            assert rep.holds and rep.slack >= -1e-9
            assert rep.variant == "pooled-independent"

    def test_bound_formula(self):
        z, objs = random_product_instance(3, 4, 11, identical=True)
        rep = wb.pooled_bound(z, objs, 0.07, beta=0.8)
        p = rep.tail_terms[0]
        expect = (0.2 + 0.8 * p) ** 3 + 3 * 0.07
        assert abs(rep.bound_value - expect) <= 1e-15
        assert rep.variant == "pooled-relaxed"
        assert rep.alpha == 1.0 - rep.beta

    def test_beta_zero_is_vacuous(self):
        z, objs = random_product_instance(2, 3, 4, identical=True)
        rep = wb.pooled_bound(z, objs, 0.01, beta=0.0)
        assert rep.bound_value >= 1.0 and rep.holds

    def test_beta_monotonicity(self):
        z, objs = random_product_instance(3, 4, 2, identical=True)
        bounds = [wb.pooled_bound(z, objs, 0.05, beta=b).bound_value for b in (0.0, 0.3, 0.7, 1.0)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_tail_mass_over_one_is_capped(self):
        # weights that sum to 1 + 1 ulp, within WEIGHT_TOL, all in the tail: the
        # raw tail mass is 1.0000000000000002, which made the bound exceed
        # 1 + t*eps and rise from beta = 0.7 to beta = 1
        weights = np.array([0.5, 0.5 + 2.0 ** -52])
        assert np.sum(weights) == 1.0 + 2.0 ** -52
        space = wb.FiniteSpace(weights)
        z = wb.RandomVariable(space, [1.0, 1.0])
        objs = [wb.RandomObject(space, (0,), [0, 0])] * 3
        assert wb.tail_probability(z, 0.05) == 1.0
        bounds = []
        for beta in (0.0, 0.3, 0.7, 1.0):
            for rep in (wb.pooled_bound(z, objs, 0.05, beta),
                        wb.percoord_bound(z, objs, [0.05] * 3, beta)):
                assert rep.tail_terms == (1.0,) * len(rep.tail_terms)
                assert rep.bound_value == 1.0 + (0.05 + 0.05 + 0.05)
            bounds.append(rep.bound_value)
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_eps_monotonicity(self):
        z, objs = random_product_instance(3, 4, 9, identical=True)
        tails, bounds = [], []
        for eps in (0.01, 0.05, 0.2, 0.6):
            rep = wb.pooled_bound(z, objs, eps)
            tails.append(rep.tail_terms[0])
            bounds.append(rep.bound_value)
            assert abs(rep.bound_value - (rep.tail_terms[0] ** rep.t + rep.t * eps)) <= 1e-15
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_rejects_non_identical_marginals(self):
        z, objs = random_product_instance(3, 4, 8, identical=False)
        with pytest.raises(MarginalMismatchError):
            wb.pooled_bound(z, objs, 0.05)

    def test_rejects_bad_parameters(self):
        z, objs = random_product_instance(2, 3, 1, identical=True)
        with pytest.raises(ParameterError):
            wb.pooled_bound(z, objs, 0.0)
        with pytest.raises(ParameterError):
            wb.pooled_bound(z, objs, 1.0)
        with pytest.raises(ParameterError):
            wb.pooled_bound(z, objs, 0.1, beta=1.5)
        with pytest.raises(StructuralError):
            wb.pooled_bound(z, [], 0.1)

    def test_rejects_z_outside_unit_range(self):
        z, objs = random_product_instance(2, 3, 1, identical=True)
        big = wb.RandomVariable(z.domain, z.values + 1.0)
        with pytest.raises(ParameterError):
            wb.pooled_bound(big, objs, 0.1)


class TestPercoordBound:
    def test_holds_on_non_identical_instances(self):
        for seed in range(100):
            z, objs = random_product_instance(3, 4, seed, identical=False)
            rep = wb.percoord_bound(z, objs, [0.05, 0.1, 0.02])
            assert rep.holds and rep.variant == "percoord-independent"

    def test_matches_pooled_bit_for_bit_on_repeated_object(self):
        # the same object listed t times is the strictest identical-inputs case
        for seed in range(50):
            z, objs = random_product_instance(4, 5, seed, identical=True)
            same = [objs[0]] * 4
            for beta in (1.0, 0.45):
                r1 = wb.pooled_bound(z, same, 0.05, beta=beta)
                r2 = wb.percoord_bound(z, same, [0.05] * 4, beta=beta)
                assert r1.bound_value == r2.bound_value
                assert r1.expectation == r2.expectation
                assert r2.tail_terms == r1.tail_terms * 4

    def test_matches_pooled_bit_for_bit_on_cube(self):
        # distinct coordinate objects whose conditionals are bit-identical by symmetry
        for p, t in [(0.25, 2), (0.125, 3), (0.5, 4)]:
            z, objs = wb.cube_instance(p, t)
            for beta in (1.0, 0.3):
                r1 = wb.pooled_bound(z, objs, 0.01, beta=beta)
                r2 = wb.percoord_bound(z, objs, [0.01] * t, beta=beta)
                assert r1.bound_value == r2.bound_value

    def test_single_coordinate(self):
        z, objs = random_product_instance(1, 5, 13, identical=False)
        rep = wb.percoord_bound(z, objs, [0.03], beta=0.6)
        w = wb.conditional_expectation(z, objs[0])
        tail = wb.tail_probability(w, 0.03)
        assert abs(rep.bound_value - ((0.4 + 0.6 * tail) + 0.03)) <= 1e-15

    def test_eps_length_mismatch(self):
        z, objs = random_product_instance(3, 4, 2, identical=False)
        with pytest.raises(StructuralError):
            wb.percoord_bound(z, objs, [0.05, 0.1])


class TestCubeInstance:
    @pytest.mark.parametrize("p", [1 / 8, 1 / 4, 1 / 2])
    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_tightness(self, p, t):
        z, objs = cube_instance(p, t)
        assert abs(wb.expectation(z) - p) <= 1e-14
        eps = 0.5 * p ** (1.0 - 1.0 / t)
        rep = wb.pooled_bound(z, objs, eps)
        assert abs(rep.tail_terms[0] - p ** (1.0 / t)) <= 5e-15
        assert abs(rep.bound_value - (rep.expectation + t * eps)) <= 1e-12
        assert rep.holds

    @pytest.mark.parametrize("p,t", [(1 / 4, 2), (1 / 8, 3)])
    def test_dyadic_tail_is_bit_exact(self, p, t):
        # p**(1/t) = 1/2 makes all masses dyadic, so the tail carries no rounding
        z, objs = cube_instance(p, t)
        rep = wb.pooled_bound(z, objs, 0.5 * p ** (1.0 - 1.0 / t))
        assert rep.tail_terms[0] == 0.5

    def test_conditional_shape(self):
        z, objs = cube_instance(0.25, 2)
        w = wb.conditional_expectation(z, objs[0])
        # value 1/2 on the zero side, 0 on the other, each of marginal mass 1/2
        assert sorted(np.round(w.values, 12)) == [0.0, 0.5]
        assert abs(wb.tail_probability(w, 0.1) - 0.5) <= 1e-14

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            cube_instance(0.0, 2)
        with pytest.raises(ParameterError):
            cube_instance(0.25, 0)


class TestProductGrid:
    @pytest.mark.parametrize(
        "build",
        [lambda: cube_instance(0.25, 3), lambda: random_product_instance(3, 4, 6, identical=False)],
        ids=["cube", "random"],
    )
    def test_projections_and_weights_follow_the_outcomes(self, build):
        z, objs = build()
        space = z.domain
        outcomes = list(itertools.product(*(range(len(u.codomain)) for u in objs)))
        for i, u in enumerate(objs):
            assert u.index_map.tolist() == [o[i] for o in outcomes]
        dists = [u.distribution() for u in objs]
        product = [np.prod([d[c] for d, c in zip(dists, o)]) for o in outcomes]
        np.testing.assert_allclose(space.weights, product, rtol=1e-12)

    @pytest.mark.parametrize(
        "build", [lambda: cube_instance(0.25, 70), lambda: random_product_instance(40, 6, 1)],
        ids=["cube", "random"],
    )
    def test_grid_budget_is_checked_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_objects_share_one_read_only_grid(self):
        z, objs = cube_instance(0.25, 5)
        grid = objs[0].index_map.base
        assert grid.shape == (5, 2 ** 5) and not grid.flags.writeable
        for u in objs:
            assert u.index_map.base is grid and np.shares_memory(u.index_map, grid)

    @pytest.mark.parametrize("t", [14, 16])
    def test_byte_model_covers_the_traced_peak(self, t, monkeypatch):
        # _grid models 8t + 40 bytes per point of an instance and its bound
        model = 2 ** t * (8 * t + 40)
        tracemalloc.start()
        try:
            z, objs = cube_instance(0.25, t)
            wb.pooled_bound(z, objs, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= model + 2 ** 16
        monkeypatch.setattr(prob, "GRID_MAX_BYTES", model)
        cube_instance(0.25, t)
        monkeypatch.setattr(prob, "GRID_MAX_BYTES", model - 1)
        with pytest.raises(BudgetError):
            cube_instance(0.25, t)

    def test_binned_sums_hold_one_index_array(self):
        # one int64 bin index per entry, plus the block sums, their transposed
        # copy and the 64 KiB buffer of numpy's uint8 -> int64 cast; the weights
        # are writable, as the weight-times-Z rows are (np.bincount copies
        # read-only weights)
        n, k = 2 ** 20, 4
        index_map = (np.arange(n) % k).astype(np.uint8)
        weights = np.full((1, n), 1.0 / n)
        block_sums = 8 * k * (n // 4096)
        tracemalloc.start()
        try:
            sums = prob._binned_sums(index_map, weights, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 2 * block_sums + 2 ** 17
        assert sums.tolist() == [[0.25] * k]

    def test_more_coordinates_than_array_dimensions(self):
        # 65 coordinates of one point each: a single outcome, past numpy's 64 axes
        z, objs = random_product_instance(65, 1, 2)
        assert z.domain.size == 1 and len(objs) == 65
        assert all(u.index_map.tolist() == [0] for u in objs)


class TestSubsetSums:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        vals = rng.random(256)
        out = wb.subset_sums(vals, 8)
        for mask in rng.integers(0, 256, size=25):
            brute = sum(vals[s] for s in range(256) if (s & ~mask) == 0)
            assert abs(out[mask] - brute) <= 1e-12

    def test_full_mask_is_total(self):
        vals = np.arange(16, dtype=float)
        assert wb.subset_sums(vals, 4)[15] == vals.sum()

    def test_length_validation(self):
        with pytest.raises(StructuralError):
            wb.subset_sums(np.ones(5), 2)


class TestIndependence:
    def test_product_space_is_one_independent(self):
        z, objs = random_product_instance(3, 4, 21, identical=True)
        rep = wb.check_independence(objs, beta=1.0, mode="exhaustive", trials=500, seed=0)
        assert rep.holds and rep.n_single == 16 and rep.n_sampled == 500
        assert rep.worst_ratio <= 1.0 + 1e-9
        # equality is attained at the full family
        assert rep.worst_ratio >= 1.0 - 1e-9

    def test_each_object_is_bounded_by_its_own_marginal(self):
        # independent coordinates with distinct marginals: the product bound at
        # beta = 1 is the exact probability of every family
        z, objs = random_product_instance(3, 4, 22, identical=False)
        rep = wb.check_independence(objs, beta=1.0, mode="exhaustive", trials=500, seed=0)
        assert rep.holds and rep.worst_ratio >= 1.0 - 1e-9

    def test_correlated_objects_flagged(self):
        s = wb.FiniteSpace.uniform(2)
        u = wb.RandomObject(s, (0, 1), np.array([0, 1]))
        rep = wb.check_independence([u, u], beta=1.0, mode="exhaustive", trials=0)
        # P{U in {0}, U in {0}} = 1/2 over (1/2)^2 = 2
        assert rep.worst_ratio >= 2.0 - 1e-12
        assert not rep.holds
        assert len(rep.witnesses) > 0

    def test_beta_zero_never_flags(self):
        s = wb.FiniteSpace.uniform(2)
        u = wb.RandomObject(s, (0, 1), np.array([0, 1]))
        rep = wb.check_independence([u, u], beta=0.0, mode="exhaustive", trials=200, seed=1)
        assert rep.holds

    def test_budget_error(self):
        s = wb.FiniteSpace.uniform(4)
        u = wb.RandomObject(s, tuple(range(30)), np.arange(4))
        with pytest.raises(BudgetError):
            wb.check_independence([u, u], beta=1.0, mode="exhaustive", trials=0)

    def test_sampled_mode_only(self):
        z, objs = random_product_instance(2, 5, 5, identical=True)
        rep = wb.check_independence(objs, beta=1.0, mode="sampled", trials=300, seed=2)
        assert rep.n_single == 0 and rep.n_sampled == 300 and rep.holds

    def test_multi_witnesses_encode_codomains_past_63_points(self):
        # one uniform object on 4 of 70 codomain points, taken twice: fully
        # dependent, so beta = 1 is overstated and multi-set witnesses appear
        pts = [0, 63, 64, 69]
        u = wb.RandomObject(wb.FiniteSpace.uniform(4), tuple(range(70)), np.array(pts))
        rep = wb.check_independence([u, u], beta=1.0, mode="sampled", trials=300, seed=3)
        multi = [(sets, ratio) for (kind, sets), ratio in rep.witnesses if kind == "multi"]
        assert len(multi) == len(rep.witnesses) > 0
        assert any(s >> p & 1 for sets, _ in multi for s in sets for p in (63, 64, 69))
        for sets, ratio in multi:
            assert all(0 <= s < 1 << 70 for s in sets)
            # quarter weights: every sum and product below is exact
            joint = sum(0.25 for p in pts if all(s >> p & 1 for s in sets))
            prod = math.prod(sum(0.25 for p in pts if s >> p & 1) for s in sets)
            assert joint / prod == ratio

    def test_mode_validation(self):
        z, objs = random_product_instance(2, 3, 0, identical=True)
        with pytest.raises(ParameterError):
            wb.check_independence(objs, beta=1.0, mode="everything")

    @pytest.mark.parametrize("mode,trials", [("exhaustive", -1), ("sampled", -1), ("sampled", 0)])
    def test_no_vacuous_pass_on_trial_counts(self, mode, trials):
        # sampled mode with no families would check nothing and hold
        z, objs = random_product_instance(2, 3, 0, identical=True)
        with pytest.raises(ParameterError):
            wb.check_independence(objs, beta=1.0, mode=mode, trials=trials)

    @pytest.mark.parametrize("t,k", [(3, 3), (2, 5), (4, 7)])
    def test_sampled_families_follow_one_draw_per_family(self, t, k):
        # one fully dependent object taken t times, on eighth weights: the
        # witnesses are the families of per-family keyed draws whose
        # exact ratio exceeds 1, in draw order, for odd and even flag counts
        pts = np.arange(8) % k
        u = wb.RandomObject(wb.FiniteSpace.uniform(8), tuple(range(k)), pts)
        rep = wb.check_independence([u] * t, beta=1.0, mode="sampled", trials=200, seed=6)
        key = prob.stream_key(6, prob.STREAM_FAMILIES)
        expect = []
        for f in range(200):
            sets = prob.coins(key, f * t * k, (f + 1) * t * k).reshape(t, k)
            joint = sum(0.125 for p in pts if all(s[p] for s in sets))
            prod = math.prod(sum(0.125 for p in pts if s[p]) for s in sets)
            if prod > 0 and joint / prod > 1.0 + 1e-9:
                expect.append(joint / prod)
        assert [ratio for _, ratio in rep.witnesses] == expect[:16]


def reference_sweep(t, psi, seeds, eps, beta, pooled):
    """Per-instance bound terms from the object model alone: each instance built
    outcome by outcome as a FiniteSpace, then conditional_expectation and
    tail_probability per object, with the evaluators' left-to-right arithmetic."""
    grid = list(itertools.product(range(psi), repeat=t))
    cols = np.array(grid, dtype=np.int64).reshape(len(grid), t).T
    rows = []
    for seed in seeds:
        # an instance's keyed stream: psi marginal weights per drawn marginal,
        # then one Z value per grid point
        key = prob.stream_key(seed, prob.STREAM_INSTANCE)
        n_marg = 1 if pooled else t
        draws = [0.1 + 0.9 * prob.uniforms(key, np.arange(i * psi, (i + 1) * psi))
                 for i in range(n_marg)]
        margs = [m / m.sum() for m in draws] * (t if pooled else 1)
        w = np.ones(len(grid))
        for m, c in zip(margs, cols):
            w = w * m[c]
        space = wb.FiniteSpace(w / np.sum(w))
        z = wb.RandomVariable(space, prob.uniforms(key, np.arange(n_marg * psi,
                                                                  n_marg * psi + len(grid))))
        conds = [wb.conditional_expectation(z, wb.RandomObject(space, range(psi), c)) for c in cols]
        if pooled:
            vals = [c.values for c in conds]
            same = all(np.array_equal(v, vals[0]) for v in vals)
            avg = vals[0] if same else np.sum(np.stack(vals), axis=0) / t
            tails = (wb.tail_probability(wb.RandomVariable(conds[0].domain, avg), eps),)
            terms, eps_all = [(1.0 - beta) + beta * tails[0]] * t, [eps] * t
        else:
            tails = tuple(wb.tail_probability(c, e) for c, e in zip(conds, eps))
            terms, eps_all = [(1.0 - beta) + beta * p for p in tails], eps
        correction = 0.0
        for e in eps_all:
            correction += e
        bound = math.prod(terms) + correction
        rows.append((wb.expectation(z), tails, bound, bound - wb.expectation(z)))
    return rows


def sweep_terms(reports):
    return [(r.expectation, r.tail_terms, r.bound_value, r.slack) for r in reports]


def first_error(calls):
    """(type, message) of the first call that raises, running them in order."""
    for call in calls:
        try:
            call()
        except Exception as exc:
            return type(exc), str(exc)
    return None


class TestBoundSweep:
    @pytest.mark.parametrize("scratch", ["default", "one-byte"])
    @pytest.mark.parametrize("pooled", [False, True], ids=["percoord", "pooled"])
    @pytest.mark.parametrize("t, psi", [(4, 6), (3, 10), (2, 17), (5, 3), (1, 1)])
    def test_rows_match_the_per_instance_reference(self, monkeypatch, t, psi, pooled, scratch):
        # psi >= 8 reaches numpy's pairwise summation, where a tail summed with
        # zeros in place of the dropped entries rounds differently
        if scratch == "one-byte":
            monkeypatch.setattr(prob, "SWEEP_SCRATCH_BYTES", 1)
        seeds = np.random.default_rng(100 * t + psi).integers(0, 1 << 62, 60).tolist()
        eps = 0.5 if pooled else [0.45 + 0.1 * i / t for i in range(t)]
        reports = wb.product_bound_sweep(t, psi, seeds, eps, 0.3, pooled=pooled)
        assert sweep_terms(reports) == reference_sweep(t, psi, seeds, eps, 0.3, pooled)
        bound = wb.pooled_bound if pooled else wb.percoord_bound
        for seed, rep in zip(seeds[:3], reports):
            z, objs = random_product_instance(t, psi, seed, identical=pooled)
            assert bound(z, objs, eps, 0.3) == rep

    @pytest.mark.parametrize("pooled", [False, True], ids=["percoord", "pooled"])
    def test_rows_over_4096_outcomes_sum_in_blocks_and_match_one_row_calls(self, pooled):
        # 6**5 = 7776 outcomes: two blocks per row, several rows per batch
        t, psi = 5, 6
        seeds = np.random.default_rng(7).integers(0, 1 << 62, 8).tolist()
        eps = 0.5 if pooled else [0.45 + 0.1 * i / t for i in range(t)]
        reports = wb.product_bound_sweep(t, psi, seeds, eps, 0.3, pooled=pooled)
        assert sweep_terms(reports) == reference_sweep(t, psi, seeds, eps, 0.3, pooled)
        bound = wb.pooled_bound if pooled else wb.percoord_bound
        for seed, rep in zip(seeds, reports):
            z, objs = random_product_instance(t, psi, seed, identical=pooled)
            assert bound(z, objs, eps, 0.3) == rep

    def test_blocked_marginals_track_the_exact_sum(self):
        # 2**18 outcomes in two bins: one bincount drifts 1.4e-12 from the
        # correctly rounded sum here, the blocked sum under 1e-13
        z, objs = cube_instance(0.25, 18)
        for u in objs[:3]:
            dist = u.distribution()
            for v in (0, 1):
                assert abs(dist[v] - math.fsum(z.domain.weights[u.index_map == v])) < 1e-13

    def test_memory_is_bounded_by_the_block(self):
        seeds = np.random.default_rng(1).integers(0, 1 << 62, 2000).tolist()
        tracemalloc.start()
        try:
            reports = wb.product_bound_sweep(4, 6, seeds, [0.01] * 4, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == 2000 and all(r.holds for r in reports)
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("scratch", ["default", "one-byte"])
    @pytest.mark.parametrize("pooled", [False, True], ids=["percoord", "pooled"])
    @pytest.mark.parametrize("fault", ["negative-weight", "late-check-early-row", "zero-weight-tol"])
    def test_raises_the_error_of_the_first_failing_instance(
        self, monkeypatch, fault, pooled, scratch
    ):
        # rows are checked in order, and each row's checks in the order the
        # per-instance path runs them, even when both share one block
        if fault == "zero-weight-tol":
            monkeypatch.setattr(prob, "WEIGHT_TOL", 0.0)
        else:
            draw = prob._draw_instances

            def corrupted(batch, t, psi, identical):
                weights, values = draw(batch, t, psi, identical)
                for r, seed in enumerate(batch):
                    if seed == 13 and fault == "late-check-early-row":  # Z leaves [0, 1]
                        values[r, 5] = 1.5
                    if seed == 17:      # a negative weight, which no later check sees
                        weights[r, 1] += 2 * weights[r, 0]
                        weights[r, 0] *= -1.0
                return weights, values

            monkeypatch.setattr(prob, "_draw_instances", corrupted)
        if scratch == "one-byte":
            monkeypatch.setattr(prob, "SWEEP_SCRATCH_BYTES", 1)
        seeds = list(range(40))
        eps = 0.05 if pooled else [0.05] * 3
        bound = wb.pooled_bound if pooled else wb.percoord_bound

        def one(seed):
            z, objs = random_product_instance(3, 4, seed, identical=pooled)
            bound(z, objs, eps, 0.5)

        expected = first_error([lambda s=s: one(s) for s in seeds])
        assert expected is not None
        got = first_error([lambda: wb.product_bound_sweep(3, 4, seeds, eps, 0.5, pooled=pooled)])
        assert got == expected


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    t=st.integers(1, 4),
    psi=st.integers(2, 6),
    eps=st.floats(0.001, 0.9),
    beta=st.floats(0.0, 1.0),
)
def test_pooled_bound_property(seed, t, psi, eps, beta):
    z, objs = random_product_instance(t, psi, seed, identical=True)
    rep = wb.pooled_bound(z, objs, eps, beta=beta)
    assert rep.holds


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.integers(1, 4), psi=st.integers(2, 6))
def test_percoord_bound_property(seed, t, psi):
    z, objs = random_product_instance(t, psi, seed, identical=False)
    eps = np.random.default_rng(seed + 1).uniform(0.01, 0.5, t)
    rep = wb.percoord_bound(z, objs, list(eps))
    assert rep.holds


MASK64 = (1 << 64) - 1


def splitmix64_word(key, counter):
    """Word ``counter`` of ``key`` in pure Python: the splitmix64 finalizer of
    (counter + 1) * golden + finalizer(key), modulo 2**64."""
    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    return mix(((counter + 1) * 0x9E3779B97F4A7C15 + mix(key)) & MASK64)


def reference_key(seed, stream):
    key = stream
    while True:
        key = splitmix64_word(seed & MASK64, key)
        seed >>= 64
        if not seed:
            return key


class TestKeyedStream:
    def test_key_zero_is_plain_splitmix64(self):
        # the published splitmix64 outputs of state 0
        assert prob.words(0, np.arange(3)).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed, stream", [
        (0, prob.STREAM_PERMUTATION), (1, prob.STREAM_FAMILIES), (5, prob.STREAM_ORACLE),
        (2 ** 63 + 3, prob.STREAM_SWEEP), (2 ** 64 + 5, prob.STREAM_INPUTS),
        (7 << 130, 10),
    ])
    def test_first_words_match_a_pure_python_reference(self, seed, stream):
        key = prob.stream_key(seed, stream)
        assert key == reference_key(seed, stream)
        assert prob.words(key, np.arange(8)).tolist() == [
            splitmix64_word(key, c) for c in range(8)]

    def test_keys_of_a_block_match_the_one_seed_keys(self):
        seeds = [0, 9, 2 ** 64 - 1, 2 ** 64, 3 << 70]
        assert prob.stream_keys(seeds, prob.STREAM_INSTANCE).tolist() == [
            prob.stream_key(s, prob.STREAM_INSTANCE) for s in seeds]
        with pytest.raises(ParameterError):
            prob.stream_key(-1, prob.STREAM_INSTANCE)

    def test_uniforms_and_coins_read_the_words(self):
        key = prob.stream_key(4, prob.STREAM_FAMILIES)
        assert prob.uniforms(key, np.arange(5)).tolist() == [
            (splitmix64_word(key, c) >> 11) * 2.0 ** -53 for c in range(5)]
        # flips 50 .. 199 straddle three words, from the middle of the first
        assert prob.coins(key, 50, 200).tolist() == [
            bool(splitmix64_word(key, f // 64) >> (f % 64) & 1) for f in range(50, 200)]

    @pytest.mark.parametrize("bound", [3, 5, 8, 1])
    def test_bounded_draws_match_a_rejection_reference(self, bound):
        # t - 1 = 3 at t = 4: a draw of 3 under the mask 3 is redrawn at the
        # same counter of the next key, as often as it takes
        key = prob.stream_key(11, prob.STREAM_REDUCTION)
        mask = (1 << (bound - 1).bit_length()) - 1
        expect, redrawn = [], 0
        for c in range(2000):
            shift = 0
            while (w := splitmix64_word((key + shift) & MASK64, c) & mask) >= bound:
                shift += 1
            expect.append(w)
            redrawn += shift > 0
        got = prob.integers(key, np.arange(2000), bound)
        assert got.dtype == np.int64 and got.tolist() == expect
        assert (redrawn > 0) == (bound & (bound - 1) != 0)
        with pytest.raises(ParameterError):
            prob.integers(key, np.arange(3), 0)

    def test_permutation_orders_the_words(self):
        key = prob.stream_key(2, prob.STREAM_PERMUTATION)
        perm = prob.permutation(key, 300)
        ws = [splitmix64_word(key, c) for c in range(300)]
        assert perm.tolist() == sorted(range(300), key=ws.__getitem__)
