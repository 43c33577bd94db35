"""Probability core: spaces, conditionals, tails, bound evaluators, independence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkbound as wb
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
    space = wb.FiniteSpace(tuple(range(n_outcomes)), w / w.sum())
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
            wb.FiniteSpace((0, 1), np.array([0.7, 0.7]))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(StructuralError):
            wb.FiniteSpace((0, 1), np.array([1.5, -0.5]))

    def test_empty_space_rejected(self):
        with pytest.raises(StructuralError):
            wb.FiniteSpace((), np.array([]))

    def test_uniform(self):
        s = wb.FiniteSpace.uniform("abcd")
        assert s.size == 4
        assert np.allclose(s.weights, 0.25)

    def test_weights_are_read_only(self):
        s = wb.FiniteSpace.uniform(range(3))
        with pytest.raises(ValueError):
            s.weights[0] = 9.0

    def test_object_map_must_be_total(self):
        s = wb.FiniteSpace.uniform(range(3))
        with pytest.raises(StructuralError):
            wb.RandomObject(s, (0, 1), np.array([0, 1]))
        with pytest.raises(StructuralError):
            wb.RandomObject(s, (0, 1), np.array([0, 1, 2]))

    def test_distribution_is_pushforward(self):
        s = wb.FiniteSpace((0, 1, 2), np.array([0.2, 0.3, 0.5]))
        u = wb.RandomObject(s, ("x", "y"), np.array([0, 1, 0]))
        assert np.allclose(u.distribution(), [0.7, 0.3])

    def test_variable_rejects_nan(self):
        s = wb.FiniteSpace.uniform(range(2))
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
        s = wb.FiniteSpace((0, 1, 2), np.array([0.5, 0.5, 0.0]))
        z = wb.RandomVariable(s, np.array([1.0, 1.0, 1.0]))
        u = wb.RandomObject(s, (0, 1, 2), np.array([0, 0, 2]))
        w = wb.conditional_expectation(z, u)
        assert w.values[2] == 0.0 and w.values[0] == 1.0

    def test_domain_mismatch(self):
        s1, z, _ = random_instance(0)
        s2 = wb.FiniteSpace.uniform(range(12))
        u = wb.RandomObject(s2, (0, 1), np.zeros(12, dtype=int))
        with pytest.raises(StructuralError):
            wb.conditional_expectation(z, u)


class TestTail:
    def test_strict_inequality(self):
        s = wb.FiniteSpace.uniform(range(4))
        w = wb.RandomVariable(s, np.full(4, 0.5))
        assert wb.tail_probability(w, 0.5) == 0.0
        assert wb.tail_probability(w, 0.49) == 1.0

    def test_matches_brute_force_on_grid(self):
        rng = np.random.default_rng(5)
        s = wb.FiniteSpace.uniform(range(32))
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
        for i, u in enumerate(objs):
            assert u.index_map.tolist() == [o[i] for o in space.outcomes]
        dists = [u.distribution() for u in objs]
        product = [np.prod([d[c] for d, c in zip(dists, o)]) for o in space.outcomes]
        np.testing.assert_allclose(space.weights, product, rtol=1e-12)


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

    def test_correlated_objects_flagged(self):
        s = wb.FiniteSpace.uniform(range(2))
        u = wb.RandomObject(s, (0, 1), np.array([0, 1]))
        rep = wb.check_independence([u, u], beta=1.0, mode="exhaustive", trials=0)
        # P{U in {0}, U in {0}} = 1/2 over (1/2)^2 = 2
        assert rep.worst_ratio >= 2.0 - 1e-12
        assert not rep.holds
        assert len(rep.witnesses) > 0

    def test_beta_zero_never_flags(self):
        s = wb.FiniteSpace.uniform(range(2))
        u = wb.RandomObject(s, (0, 1), np.array([0, 1]))
        rep = wb.check_independence([u, u], beta=0.0, mode="exhaustive", trials=200, seed=1)
        assert rep.holds

    def test_budget_error(self):
        s = wb.FiniteSpace.uniform(range(4))
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
        u = wb.RandomObject(wb.FiniteSpace.uniform(range(4)), tuple(range(70)), np.array(pts))
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
