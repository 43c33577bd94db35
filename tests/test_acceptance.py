"""Acceptance gate: one test per advertised guarantee, one printed line each.

Each test prints ``ACCEPTANCE <k> PASS/FAIL: ...`` straight to the terminal
before asserting, so a red run still shows exactly which guarantee broke and by
how much.  Tolerances and sizes here are contractual; do not relax them.
"""

import math
import time

import numpy as np
import pytest

import walkbound as wb

from conftest import dense_oracle, exact_family_prob


def outcome(ok):
    return "PASS" if ok else "FAIL"


def test_01_torus_family_spectral_constant(announce):
    t0 = time.perf_counter()
    target = 5.0 * math.sqrt(2.0) / 8.0 + 1e-6
    measured = {}
    for m in range(2, 7):
        rep = wb.second_eigenvalue_magnitude(wb.mgg_rotation(m))
        measured[m] = rep.alpha
    elapsed = time.perf_counter() - t0
    worst = max(measured.values())
    ok = worst <= target and elapsed <= 60.0
    announce(
        f"ACCEPTANCE 1 {outcome(ok)}: torus alpha m=2..6 max {worst:.10f} "
        f"<= {target:.10f}, {elapsed:.1f}s (budget 60s)"
    )
    assert worst <= target
    assert elapsed <= 60.0


def test_02_product_bound_exhaustive_two_routes(announce):
    t0 = time.perf_counter()
    rot = wb.mgg_rotation(2)
    spectral = wb.second_eigenvalue_magnitude(rot)
    alpha, beta = spectral.alpha, spectral.beta
    t, n = 3, 16
    worst_slack = math.inf
    worst_diff = 0.0
    bit_cols = np.arange(n, dtype=np.int64)
    for perm_seed in range(10):
        g = wb.HybridGraph(rot, np.random.default_rng(perm_seed).permutation(n))
        a = dense_oracle(g)

        # every single-set family, enumeration route vs matrix route
        by_enum = wb.single_set_event_probs(g, t)
        for lo in range(0, 1 << n, 4096):
            ids = np.arange(lo, lo + 4096, dtype=np.int64)
            masks = ((ids[:, None] >> bit_cols) & 1).astype(float)
            v = masks / n
            for _ in range(t):
                v = (v @ a) * masks
            by_matrix = v.sum(axis=1)
            worst_diff = max(worst_diff, float(np.max(np.abs(by_matrix - by_enum[ids]))))
            mu = masks.sum(axis=1) / n
            slack = (alpha + beta * mu) ** (t + 1) - by_matrix
            worst_slack = min(worst_slack, float(np.min(slack)))

        # sampled multi-set families, same two routes
        rng = np.random.default_rng([perm_seed, 101])
        fam = rng.integers(0, 2, size=(10_000, t + 1, n)).astype(bool)
        p_enum = wb.family_event_probs(g, t, fam)
        p_mat = wb.family_event_probs_matrix(g, t, fam)
        worst_diff = max(worst_diff, float(np.max(np.abs(p_enum - p_mat))))
        mus = fam.sum(axis=2) / n
        bound = np.prod(alpha + beta * mus, axis=1)
        worst_slack = min(worst_slack, float(np.min(bound - p_mat)))

    elapsed = time.perf_counter() - t0
    ok = worst_slack >= -1e-9 and worst_diff <= 1e-12 and elapsed <= 120.0
    announce(
        f"ACCEPTANCE 2 {outcome(ok)}: 10 permutations x (65536 single-set + 10^4 "
        f"sampled) families, min slack {worst_slack:.3e} >= -1e-9, route diff "
        f"{worst_diff:.3e} <= 1e-12, {elapsed:.1f}s (budget 120s)"
    )
    assert worst_slack >= -1e-9
    assert worst_diff <= 1e-12
    assert elapsed <= 120.0


def test_03_cube_instance_tightness(announce):
    worst_tail_gap = 0.0
    worst_bound_gap = 0.0
    for p in (0.125, 0.25, 0.5):
        for t in (2, 3, 4):
            eps = 0.5 * p ** (1.0 - 1.0 / t)
            z, objects = wb.cube_instance(p, t)
            rep = wb.pooled_bound(z, objects, eps)
            tail_gap = abs(rep.tail_terms[0] - p ** (1.0 / t))
            bound_gap = abs(rep.bound_value - (rep.expectation + t * eps))
            worst_tail_gap = max(worst_tail_gap, tail_gap)
            worst_bound_gap = max(worst_bound_gap, bound_gap)
    ok = worst_tail_gap <= 5e-15 and worst_bound_gap <= 1e-12
    announce(
        f"ACCEPTANCE 3 {outcome(ok)}: cube tail gap {worst_tail_gap:.3e} <= 5e-15, "
        f"bound gap {worst_bound_gap:.3e} <= 1e-12 over p in {{1/8,1/4,1/2}} x t in {{2,3,4}}"
    )
    assert worst_tail_gap <= 5e-15
    assert worst_bound_gap <= 1e-12


def test_04_bound_property_suite(announce):
    worst = math.inf
    for seed in range(1000):
        z, objs = wb.random_product_instance(3, 4, seed, identical=True)
        worst = min(worst, wb.pooled_bound(z, objs, 0.05).slack)
    for seed in range(1000):
        z, objs = wb.random_product_instance(3, 4, 10_000 + seed, identical=False)
        worst = min(worst, wb.percoord_bound(z, objs, [0.05, 0.02, 0.1]).slack)

    exact_matches = 0
    cases = 0
    for seed in range(100):
        z, objs = wb.random_product_instance(4, 5, seed, identical=True)
        same = [objs[0]] * 4
        for beta in (1.0, 0.45):
            cases += 1
            r1 = wb.pooled_bound(z, same, 0.05, beta=beta)
            r2 = wb.percoord_bound(z, same, [0.05] * 4, beta=beta)
            exact_matches += r1.bound_value == r2.bound_value
    for p, t in [(0.125, 3), (0.25, 2), (0.5, 4)]:
        z, objs = wb.cube_instance(p, t)
        cases += 1
        r1 = wb.pooled_bound(z, objs, 0.01)
        r2 = wb.percoord_bound(z, objs, [0.01] * t)
        exact_matches += r1.bound_value == r2.bound_value

    ok = worst >= -1e-9 and exact_matches == cases
    announce(
        f"ACCEPTANCE 4 {outcome(ok)}: 2000 instances min slack {worst:.3e} >= -1e-9; "
        f"pooled == percoord bit-for-bit on {exact_matches}/{cases} identical inputs"
    )
    assert worst >= -1e-9
    assert exact_matches == cases


def test_05_tail_identity_under_repetition(announce):
    rng = np.random.default_rng(2024)
    eps_grid = np.linspace(0.01, 0.95, 20)
    worst = 0.0
    for trial in range(1000):
        if trial % 2:
            f = wb.random_permutation(4, trial)
        else:
            f = wb.ToyFunction(5, 4, rng.integers(0, 16, 32), False)
        img = wb.image_distribution(f)
        base = wb.AdversaryOracle(f, rng.random(16), seed=trial)
        w = base.success_profile()
        for k in (1, 2, 8):
            wk = wb.repeat_amplify(base, k).success_profile()
            for eps in eps_grid:
                p1 = float(img[w > eps].sum())
                p2 = float(img[wk > 1.0 - (1.0 - eps) ** k].sum())
                worst = max(worst, abs(p1 - p2))
    ok = worst <= 1e-12
    announce(
        f"ACCEPTANCE 5 {outcome(ok)}: repetition tail identity, 1000 profiles x "
        f"k in {{1,2,8}} x 20 eps, max gap {worst:.3e} <= 1e-12"
    )
    assert worst <= 1e-12


def test_06_reduction_soundness_and_single_query(announce):
    violations = 0
    query_gaps = 0
    calls = 0

    f = wb.random_permutation(4, 3)
    base = wb.AdversaryOracle(f, wb.planted_profile(f, 0.25), seed=5)
    block = wb.BlockwiseInverter(base, 3)
    red_d = wb.reduce_direct(block, f, 3, seed=6)
    for q in range(2000):
        y = q % 16
        before = block.query_count
        v = red_d.invert(y)
        calls += 1
        query_gaps += (block.query_count - before) != 1
        if v is not None and f.apply(v) != y:
            violations += 1

    g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(7).permutation(16))
    fv = wb.vertex_function(g)
    base_w = wb.AdversaryOracle(fv, wb.planted_profile(fv, 0.25), seed=8)
    chain = wb.WalkChainInverter(base_w, g, 3)
    red_w = wb.reduce_walk(chain, g, 3, seed=9)
    for q in range(2000):
        y = q % 16
        before = chain.query_count
        v = red_w.invert(y)
        calls += 1
        query_gaps += (chain.query_count - before) != 1
        if v is not None and fv.apply(v) != y:
            violations += 1

    mc_d = wb.measure_inversion(f, red_d, mode="mc", trials=1000, seed=10)
    mc_w = wb.measure_inversion(fv, red_w, mode="mc", trials=1000, seed=11)
    violations += mc_d.soundness_violations + mc_w.soundness_violations

    ok = violations == 0 and query_gaps == 0
    announce(
        f"ACCEPTANCE 6 {outcome(ok)}: {calls + 2000} reduction calls, "
        f"{violations} soundness violations, {query_gaps} calls without exactly "
        f"one inner query"
    )
    assert violations == 0
    assert query_gaps == 0


def test_07_packings_are_bijective(announce):
    results = []

    # forward packing covers the walk index space exactly once (m=2, t=3: 13 bits)
    g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(12).permutation(16))
    total = wb.walk_count(g, 3)
    phis = {wb.walk_index(g, wb.walk_from_index(g, 3, i)) for i in range(total)}
    results.append(("forward-packing-13bit", phis == set(range(total))))

    # the walk permutation itself, 13 and 14 bits
    wp = wb.walk_permutation(g, 3)
    results.append(("walk-permutation-13bit", np.array_equal(np.sort(wp.table), np.arange(1 << 13))))
    g1 = wb.HybridGraph(wb.mgg_rotation(1), np.random.default_rng(13).permutation(4))
    wp1 = wb.walk_permutation(g1, 4)
    results.append(("walk-permutation-14bit", np.array_equal(np.sort(wp1.table), np.arange(1 << 14))))

    # direct powers up to 16 input bits
    pw = wb.direct_power(wb.random_permutation(4, 14), 4)
    results.append(("direct-power-16bit", np.array_equal(np.sort(pw.table), np.arange(1 << 16))))

    ok = all(flag for _, flag in results)
    failed = [name for name, flag in results if not flag]
    announce(
        f"ACCEPTANCE 7 {outcome(ok)}: exhaustive bijectivity of "
        f"{', '.join(name for name, _ in results)}"
        + (f"; FAILED: {failed}" if failed else "")
    )
    assert not failed


def test_08_end_to_end_amplification(announce):
    t0 = time.perf_counter()
    delta, eps = 0.25, 1.0 / 64.0

    # blockwise construction on a 4-bit permutation, everything by enumeration
    f = wb.random_permutation(4, 16)
    profile = wb.planted_profile(f, delta)
    base = wb.AdversaryOracle(f, profile, seed=17)
    tail = float(wb.image_distribution(f) @ (profile > eps))
    power = wb.direct_power(f, 4)
    block = wb.BlockwiseInverter(base, 4, power=power)
    # independent enumeration over all 2**16 inputs of the power
    xs = np.arange(1 << 16, dtype=np.int64)
    succ = np.ones(1 << 16)
    for j in range(4):
        block_out = (power.table[xs] >> (4 * (4 - 1 - j))) & 15
        succ *= profile[block_out]
    direct_success = float(succ.mean())
    assert direct_success == wb.measure_inversion(power, block, mode="exact").success
    direct_bound = tail ** 4 + 4 * eps
    ok_direct = direct_success <= direct_bound + 1e-12

    # walk construction at m=2, t=3 against the spectral-gap bound
    rot = wb.mgg_rotation(2)
    spectral = wb.second_eigenvalue_magnitude(rot)
    g = wb.HybridGraph(rot, f.table)
    fv = wb.vertex_function(g)
    prof_w = wb.planted_profile(fv, delta)
    chain = wb.WalkChainInverter(wb.AdversaryOracle(fv, prof_w, seed=18), g, 3)
    tail_w = float(wb.image_distribution(fv) @ (prof_w > eps))
    columns = wb.walk_space(g, 3).columns
    walk_success = float(
        np.mean(prof_w[columns[1]] * prof_w[columns[2]] * prof_w[columns[3]])
    )
    assert walk_success == wb.measure_inversion(chain.func, chain, mode="exact").success
    walk_bound = (spectral.alpha + spectral.beta * tail_w) ** 3 + 3 * eps
    ok_walk = walk_success <= walk_bound + 1e-12

    elapsed = time.perf_counter() - t0
    ok = ok_direct and ok_walk and elapsed <= 120.0
    announce(
        f"ACCEPTANCE 8 {outcome(ok)}: direct {direct_success:.8f} <= "
        f"{direct_bound:.8f}; walk {walk_success:.8f} <= {walk_bound:.8f} "
        f"(beta {spectral.beta:.4f}), {elapsed:.1f}s (budget 120s)"
    )
    assert ok_direct
    assert ok_walk
    assert elapsed <= 120.0


def test_09_envelope_bounds(announce):
    xs = np.linspace(0.0, 1.0, 1000)
    worst_env = -math.inf
    worst_dom = -math.inf
    applicable = []
    for beta in (0.116, 0.5):
        for t in (8, 61):
            rep = wb.envelope_check(beta, t, xs, tol=1e-12)
            worst_env = max(worst_env, rep.envelope_excess)
            if rep.dominance_applicable:
                applicable.append((beta, t))
                worst_dom = max(worst_dom, rep.dominance_excess)
            assert rep.holds
    ok = worst_env <= 1e-12 and worst_dom <= 1e-12 and applicable == [(0.116, 61), (0.5, 61)]
    announce(
        f"ACCEPTANCE 9 {outcome(ok)}: envelope excess {worst_env:.3e} <= 1e-12 on "
        f"4 (beta,t) pairs x 1000 points; dominance excess {worst_dom:.3e} on "
        f"{applicable} (beta*t >= 7)"
    )
    assert worst_env <= 1e-12
    assert worst_dom <= 1e-12
    assert applicable == [(0.116, 61), (0.5, 61)]


def test_10_extension_identity(announce):
    g = wb.HybridGraph(wb.mgg_rotation(2), np.random.default_rng(19).permutation(16))
    t = 3
    rng = np.random.default_rng(20)
    total_base = wb.walk_count(g, t - 1)
    worst_prob = 0.0
    worst_vec = 0.0
    for _ in range(100):
        size = int(rng.integers(1, total_base))
        base = rng.choice(total_base, size=size, replace=False)
        rep = wb.check_extension_identity(g, t, base)
        worst_prob = max(worst_prob, rep.prob_diff)
        worst_vec = max(worst_vec, rep.vector_diff)
    ok = worst_prob <= 1e-12 and worst_vec <= 1e-12
    announce(
        f"ACCEPTANCE 10 {outcome(ok)}: 100 random events at N=16, t=3: probability "
        f"gap {worst_prob:.3e}, terminal-vector gap {worst_vec:.3e} (tol 1e-12)"
    )
    assert worst_prob <= 1e-12
    assert worst_vec <= 1e-12
