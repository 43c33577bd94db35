"""Expander machinery: rotations, the walk operator, spectra, masked-norm contraction."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

import walkbound as wb
from walkbound.errors import ParameterError, StructuralError
from walkbound import expander

from conftest import dense_oracle


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


def complete_rotation(n):
    """K_n: slot j runs from u to u+j+1 (mod n) and is slot n-2-j at the far end."""
    return wb.ColoredRotation.from_function(0, n, n - 1, lambda u, j: ((u + j + 1) % n, n - 2 - j))


def lazy_k4_rotation():
    """K4's three matchings plus five loops at every vertex: A = I/2 + J/8."""
    return wb.ColoredRotation.from_function(
        0, 4, 8, lambda u, j: (u ^ (j + 1), j) if j < 3 else (u, j))


def cycle_rotation(n):
    """C_n: slot 0 runs forward and slot 1 back; bipartite for even n."""
    return wb.ColoredRotation.from_function(
        0, n, 2, lambda u, j: ((u + 1) % n, 1) if j == 0 else ((u - 1) % n, 0))


def two_triangles_rotation():
    """Two disjoint copies of K3 on vertices 0-2 and 3-5."""
    return wb.ColoredRotation.from_function(
        0, 6, 2, lambda u, j: (u - u % 3 + (u % 3 + j + 1) % 3, 1 - j))


def relabeled_torus(m, seed=3):
    """``mgg_rotation(m)`` conjugated by a random vertex permutation sigma: the
    same spectrum, no torus coordinates, and a vertex-major neighbor table."""
    rot = wb.mgg_rotation(m)
    sigma = np.random.default_rng(seed).permutation(rot.n_vertices)
    return wb.ColoredRotation(
        m=m, n_vertices=rot.n_vertices, d=8,
        neighbors=sigma[rot.neighbors[np.argsort(sigma)]], back_labels=rot.back_labels,
    )


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

    def test_tables_are_kept_without_a_copy(self):
        nb = np.array([[1, 1], [0, 0]], dtype=np.int64)
        bl = np.broadcast_to(np.array([1, 0], dtype=np.int64), (2, 2))
        rot = wb.ColoredRotation(m=0, n_vertices=2, d=2, neighbors=nb, back_labels=bl)
        assert rot.neighbors is nb and rot.back_labels is bl
        assert not (rot.neighbors.flags.writeable or rot.back_labels.flags.writeable)

    def test_torus_tables_are_label_major_views(self):
        rot = wb.mgg_rotation(3)
        assert rot.neighbors.T.flags.c_contiguous and rot.neighbors.T.shape == (8, 64)
        assert rot.back_labels.strides[0] == 0
        assert np.array_equal(rot.back_labels[5], np.arange(8) ^ 1)
        assert wb.k4_rotation().back_labels.strides[0] == 0

    def test_build_holds_about_its_table(self):
        # N = 16,384: the table is 1 MiB; the back labels are one broadcast row
        tracemalloc.start()
        try:
            rot = wb.mgg_rotation(7)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rot.neighbors.nbytes <= kept < rot.neighbors.nbytes + 2 ** 12
        assert peak < 3 * rot.neighbors.nbytes

    def test_asymmetric_table_rejected(self):
        # the lazy 3-cycle: slot 0 a loop, slot 1 one step on, with no way back
        nb = np.array([[0, 1], [1, 2], [2, 0]])
        bl = np.broadcast_to(np.arange(2), (3, 2))
        with pytest.raises(StructuralError, match="involution"):
            wb.ColoredRotation(m=0, n_vertices=3, d=2, neighbors=nb, back_labels=bl)

    def test_uneven_in_degree_rejected(self):
        # every slot runs into vertex 0: rows sum to 1, columns do not
        nb = np.zeros((3, 2), dtype=np.int64)
        bl = np.broadcast_to(np.arange(2), (3, 2))
        with pytest.raises(StructuralError, match="involution"):
            wb.ColoredRotation(m=0, n_vertices=3, d=2, neighbors=nb, back_labels=bl)

    def test_back_labels_must_round_trip(self):
        # two parallel edges: the neighbors round-trip, but both slots of vertex 1
        # claim to come back through slot 0
        nb = np.array([[1, 1], [0, 0]])
        with pytest.raises(StructuralError, match="involution"):
            wb.ColoredRotation(m=0, n_vertices=2, d=2, neighbors=nb, back_labels=np.zeros((2, 2)))

    def test_broken_involution_found_on_the_last_vertices(self):
        # the torus tables with a 3-cycle on the last three vertices' slot 0
        rot = wb.mgg_rotation(3)
        nb = np.array(rot.neighbors)
        for u, v in [(61, 62), (62, 63), (63, 61)]:
            nb[u, 0] = v
        with pytest.raises(StructuralError, match="involution"):
            wb.ColoredRotation(m=3, n_vertices=64, d=8, neighbors=nb, back_labels=rot.back_labels)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("span", [7, expander._RANGE])
    def test_ranged_build_is_the_whole_table(self, monkeypatch, m, span):
        # the affine maps evaluated on all N vertices at once, label by label
        side = 1 << m
        x, y = np.divmod(np.arange(side * side, dtype=np.int64), side)
        maps = [(1, 0), (-1, 0), (1, 1), (-1, -1)]    # x -> x + s*2y + c, then y likewise
        whole = np.stack([(((x + s * 2 * y + c) % side) << m) | y for s, c in maps]
                         + [(x << m) | ((y + s * 2 * x + c) % side) for s, c in maps])
        monkeypatch.setattr(expander, "_RANGE", span)
        rot = wb.mgg_rotation(m)
        assert rot.neighbors.T.flags.c_contiguous
        assert np.array_equal(rot.neighbors.T, whole)

    def test_build_at_m9_holds_its_table_and_one_range(self):
        # N = 262,144: the table is 16 MiB; building it and checking its
        # involution at once traced 42 MiB
        tracemalloc.start()
        try:
            rot = wb.mgg_rotation(9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rot.neighbors.nbytes == 16 * 2 ** 20
        assert peak <= rot.neighbors.nbytes + 4 * 2 ** 20

    @pytest.mark.parametrize("u", [5, 60], ids=["first-range", "last-range"])
    @pytest.mark.parametrize("table", ["neighbors", "back_labels"])
    def test_broken_involution_found_in_any_range(self, monkeypatch, u, table):
        # four ranges of 16 vertices; one slot of vertex u points elsewhere
        monkeypatch.setattr(expander, "_RANGE", 16)
        rot = wb.mgg_rotation(3)
        tables = {"neighbors": np.array(rot.neighbors), "back_labels": np.array(rot.back_labels)}
        broken = tables[table]
        broken[u, 2] = (broken[u, 2] + 1) % (64 if table == "neighbors" else 8)
        with pytest.raises(StructuralError, match="not an involution"):
            wb.ColoredRotation(m=3, n_vertices=64, d=8, **tables)

    @pytest.mark.parametrize("u", [5, 60], ids=["first-range", "last-range"])
    @pytest.mark.parametrize(
        "table, value, needle",
        [("neighbors", 64, "vertices"), ("neighbors", -1, "vertices"),
         ("back_labels", 8, "edge slots"), ("back_labels", -1, "edge slots")],
    )
    def test_out_of_range_entries_rejected_in_any_range(self, monkeypatch, u, table, value,
                                                        needle):
        monkeypatch.setattr(expander, "_RANGE", 16)
        rot = wb.mgg_rotation(3)
        tables = {"neighbors": np.array(rot.neighbors), "back_labels": np.array(rot.back_labels)}
        tables[table][u, 7] = value
        with pytest.raises(StructuralError, match=needle):
            wb.ColoredRotation(m=3, n_vertices=64, d=8, **tables)


ROTATIONS = {
    "K4": wb.k4_rotation,
    "lazy-K4": lazy_k4_rotation,
    "relabeled-torus-m3": lambda: relabeled_torus(3),
    **{f"torus-m{m}": (lambda m=m: wb.mgg_rotation(m)) for m in (1, 2, 3)},
    **{f"complete-{n}": (lambda n=n: complete_rotation(n)) for n in (3, 4, 5, 8)},
}


class TestOperator:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_direct_adjacency_oracle(self, m):
        rot = wb.mgg_rotation(m)
        assert np.array_equal(dense_oracle(rot), torus_adjacency_oracle(m))
        assert np.array_equal(expander._dense_operator(rot), torus_adjacency_oracle(m))

    @pytest.mark.parametrize("name", list(ROTATIONS))
    def test_dense_builder_matches_the_oracle(self, name):
        rot = ROTATIONS[name]()
        assert np.array_equal(expander._dense_operator(rot), dense_oracle(rot))

    def test_doubly_stochastic_and_symmetric(self, rot2):
        a = dense_oracle(rot2)
        assert np.allclose(a.sum(axis=0), 1.0, atol=1e-15)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-15)
        assert np.array_equal(a, a.T)

    def test_entries_are_eighths(self, rot2):
        a = expander._dense_operator(rot2)
        assert np.array_equal(a * 8, np.round(a * 8))

    @pytest.mark.parametrize("name", ["K4", "relabeled-torus-m3"])
    def test_push_is_one_dense_step(self, name):
        # one operator: the push over the transposed neighbor table, over d, is A v,
        # with any trailing axes carried along
        rot = ROTATIONS[name]()
        v = np.random.default_rng(5).standard_normal((rot.n_vertices, 3))
        pushed = expander._push(rot.neighbors.T, v) / rot.d
        assert np.max(np.abs(pushed - dense_oracle(rot) @ v)) <= 1e-15
        assert np.max(np.abs(expander._step(rot)(v[:, 0]) - pushed[:, 0])) == 0.0

    @pytest.mark.parametrize("name", ["K4", "relabeled-torus-m3"])
    def test_route_a_matches_the_oracle(self, monkeypatch, name):
        rot = ROTATIONS[name]()
        evals = np.linalg.eigvalsh(dense_oracle(rot))
        monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 0)
        rep = wb.second_eigenvalue_magnitude(rot)
        assert rep.method == "lanczos" and rep.converged
        assert abs(rep.lambda_second - evals[-2]) <= 1e-9
        assert abs(rep.lambda_min - evals[0]) <= 1e-9


class TestSpectrum:
    def test_k4_alpha_exact(self):
        rep = wb.second_eigenvalue_magnitude(wb.k4_rotation())
        assert abs(rep.alpha - 1 / 3) <= 1e-12
        assert rep.method == "full-eigensolve"
        assert rep.beta == 1.0 - rep.alpha

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_complete_graph_alpha(self, n):
        rep = wb.second_eigenvalue_magnitude(complete_rotation(n))
        assert abs(rep.alpha - 1 / (n - 1)) <= 1e-12

    def test_lazy_uniform_matrix(self):
        # A = I/2 + J/8 = 0.5 * I + 0.5 * (uniform 4 x 4)
        a = 0.5 * np.eye(4) + 0.5 * np.full((4, 4), 0.25)
        assert np.array_equal(dense_oracle(lazy_k4_rotation()), a)
        rep = wb.second_eigenvalue_magnitude(lazy_k4_rotation())
        assert abs(rep.alpha - 0.5) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_family_alpha_below_bound(self, m):
        rep = wb.second_eigenvalue_magnitude(wb.mgg_rotation(m))
        assert rep.alpha <= wb.ALPHA_FAMILY_BOUND + 1e-6
        assert rep.beta > 0.11

    def test_power_iteration_agrees_with_dense(self, monkeypatch):
        rot = wb.mgg_rotation(3)
        dense = wb.second_eigenvalue_magnitude(rot)
        monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 16)
        power = wb.second_eigenvalue_magnitude(rot, tol=1e-10)
        assert power.method == "lanczos" and power.converged
        assert abs(power.alpha - dense.alpha) <= 1e-6
        assert abs(power.lambda_min - dense.lambda_min) <= 1e-6

    @pytest.mark.parametrize("route", ["dense", "power"])
    def test_bipartite_rejected(self, monkeypatch, route):
        if route == "power":
            monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 0)
        with pytest.raises(StructuralError, match="bipartite"):
            wb.second_eigenvalue_magnitude(cycle_rotation(4))

    @pytest.mark.parametrize("route", ["dense", "power"])
    def test_disconnected_rejected(self, monkeypatch, route):
        if route == "power":
            monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 0)
        rot = two_triangles_rotation()
        triangle = dense_oracle(complete_rotation(3))
        assert np.array_equal(dense_oracle(rot), np.kron(np.eye(2), triangle))
        with pytest.raises(StructuralError, match="connected"):
            wb.second_eigenvalue_magnitude(rot)

    def test_power_route_memory_is_linear_in_the_edges(self):
        # N = 4096: a dense N x N matrix alone would take 128 MiB
        tracemalloc.start()
        try:
            rep = wb.second_eigenvalue_magnitude(wb.mgg_rotation(6))
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


def character_block_extremes(rot):
    """``(lambda_2, lambda_min)`` of a torus level from its four character
    blocks, each built sparse from ``torus_character_blocks``'s formula and
    solved at its two ends by ARPACK; block [0, 0] holds the trivial 1."""
    m, d = rot.m, rot.d
    half = 1 << (m - 1)
    q = half * half
    x, y = np.divmod(np.arange(q), half)
    v = rot.neighbors[x * 2 * half + y]
    vx, vy = np.divmod(v, 2 * half)
    rows, cols = np.repeat(np.arange(q), d), ((vx % half) * half + vy % half).reshape(-1)
    start = np.linspace(1.0, 2.0, q)
    tops, bottoms = [], []
    for a, b in itertools.product((0, 1), repeat=2):
        signs = (-1.0) ** (a * (vx // half) + b * (vy // half)) / d
        block = sparse.csr_matrix((signs.reshape(-1), (rows, cols)), shape=(q, q))
        tops.append(np.sort(eigsh(block, k=2, which="LA", v0=start, return_eigenvectors=False)))
        bottoms.append(eigsh(block, k=1, which="SA", v0=start, return_eigenvectors=False)[0])
    return max(tops[0][0], *(top[1] for top in tops[1:])), min(bottoms)


@pytest.fixture
def solves(monkeypatch):
    """The size k of every dense solve of T that Lanczos makes, in order."""
    sizes, ritz = [], expander._ritz

    def counted(diag, off):
        sizes.append(len(diag))
        return ritz(diag, off)

    monkeypatch.setattr(expander, "_ritz", counted)
    return sizes


class TestLanczos:
    @pytest.mark.parametrize(
        "rot",
        [wb.k4_rotation(), lazy_k4_rotation()]
        + [wb.mgg_rotation(m) for m in range(1, 6)]
        + [complete_rotation(n) for n in (3, 4, 5, 8)],
        ids=["K4", "lazy-K4"] + [f"torus-m{m}" for m in range(1, 6)]
        + [f"complete-{n}" for n in (3, 4, 5, 8)],
    )
    def test_matches_dense(self, monkeypatch, rot):
        evals = np.linalg.eigvalsh(dense_oracle(rot))
        monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 0)
        rep = wb.second_eigenvalue_magnitude(rot)
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

    def test_route_memory_is_a_few_vectors(self):
        # N = 16,384: no Krylov basis is kept, so route A's solve holds the
        # Lanczos and Ritz vectors and the push's output and gathered row
        rot = wb.mgg_rotation(7)
        tracemalloc.start()
        try:
            rep = wb.second_eigenvalue_magnitude(rot)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.method == "lanczos" and rep.converged
        assert peak < 16 * rot.n_vertices * 8

    def test_certificate_overrules_the_estimate(self, monkeypatch):
        # a small non-symmetric part: pass 1's estimate |b_k s_k| falls under
        # tol at step 88, but the replayed Ritz vectors are no eigenvectors
        n = 200
        lam = np.concatenate([[1.0], np.linspace(-0.5, 0.5, n - 2), [-0.9]])
        upper = 1e-5 * np.triu(np.random.default_rng(0).standard_normal((n, n)), 1) / np.sqrt(n)
        certify, residuals = expander._residual, []

        def recorded(*args):
            residuals.append(certify(*args))
            return residuals[-1]

        monkeypatch.setattr(expander, "_residual", recorded)
        # step 88 is the last step, so its test is due whatever the schedule
        monkeypatch.setattr(expander, "LANCZOS_MAX_STEPS", 88)
        *_, converged = expander._lanczos_extremes(lambda v: lam * v + upper @ v, lambda v: v,
                                                   n, 1e-8)
        assert residuals and max(residuals) > 1e-8 and not converged
        # the symmetric part alone is certified
        assert expander._lanczos_extremes(lambda v: lam * v, lambda v: v, n, 1e-8)[3]

    @pytest.mark.parametrize(
        "n, max_steps, tested",
        [
            # every step up to k = 10 (k/8 <= 1 up to k = 8, k^3 <= n up to
            # k = 10), then at most k/8 steps apart, and the last step
            (1000, 100, list(range(1, 11)) + [12, 14, 16, 19, 22, 26, 30, 35, 40, 46, 53, 61,
                                              70, 80, 92, 100]),
            # k^3 <= n at every step, as at m = 9 and 10
            (125_000, 50, list(range(1, 51))),
        ],
        ids=["n1000", "n125000"],
    )
    def test_dense_solves_only_when_a_test_is_due(self, monkeypatch, solves, n, max_steps,
                                                   tested):
        # tol 0 is never met, so pass 1 runs every step and pass 2 never starts
        monkeypatch.setattr(expander, "LANCZOS_MAX_STEPS", max_steps)
        lam = np.linspace(-1.0, 1.0, n)
        *_, steps, converged = expander._lanczos_extremes(lambda v: lam * v, lambda v: v, n, 0.0)
        assert steps == max_steps and not converged
        assert solves == tested

    def test_route_solves_fewer_times_than_it_steps(self, solves):
        rep = wb.second_eigenvalue_magnitude(wb.mgg_rotation(6))
        assert rep.converged and solves[-1] == rep.iterations
        assert len(solves) < 0.6 * rep.iterations

    @pytest.mark.parametrize("m", [6, 7])
    def test_routes_agree_with_the_character_blocks(self, m):
        rot = wb.mgg_rotation(m)
        lam2, lam_min = character_block_extremes(rot)
        if m == 6:
            evals = expander._character_spectrum(rot)
            assert abs(lam2 - evals[-2]) <= 1e-12 and abs(lam_min - evals[0]) <= 1e-12
        route_a = wb.second_eigenvalue_magnitude(rot)
        route_b = wb.torus_cover_spectrum(rot, wb.torus_spectrum(wb.mgg_rotation(m - 1)))
        for rep in (route_a, route_b):
            assert rep.converged
            assert abs(rep.lambda_second - lam2) <= expander.EIGEN_TOL
            assert abs(rep.lambda_min - lam_min) <= expander.EIGEN_TOL

    def test_invariant_subspace_stops_without_dividing(self):
        # the zero operator leaves w = 0 after the first step: b_0 = 0
        with np.errstate(all="raise"):
            assert expander._lanczos_extremes(np.zeros_like, lambda v: v, 10, 1e-12) == (
                0.0, 0.0, 1, True)

    def test_start_vector_is_splitmix64_of_the_index(self):
        mask = (1 << 64) - 1

        def splitmix64(i):
            z = (i + 1) * 0x9E3779B97F4A7C15 & mask
            z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
            return z ^ z >> 31

        reference = [(splitmix64(i) >> 11) * 2.0 ** -52 - 1.0 for i in range(1000)]
        assert expander._start_vector(1000).tolist() == reference


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
        evals = np.linalg.eigvalsh(dense_oracle(rot))
        base = wb.second_eigenvalue_magnitude(wb.mgg_rotation(m - 1))
        rep = wb.torus_cover_spectrum(rot, base)
        assert rep.method == "torus-cover" and rep.converged
        assert rep.matvecs == {"torus-cover": rep.iterations}
        assert abs(rep.lambda_second - evals[-2]) <= 1e-9
        assert abs(rep.lambda_min - evals[0]) <= 1e-9

    def test_base_spectrum_is_kept(self):
        # spec(m-1) is part of spec(m): extremes of the base survive the merge
        rot = wb.mgg_rotation(3)
        base = wb.second_eigenvalue_magnitude(wb.mgg_rotation(2))
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
        base = wb.second_eigenvalue_magnitude(wb.mgg_rotation(2))
        with pytest.raises(StructuralError, match="cover"):
            wb.torus_cover_spectrum(relabeled_torus(3), base)


class TestCharacterBlocks:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_block_spectra_are_the_spectrum(self, m):
        rot = wb.mgg_rotation(m)
        evals = np.linalg.eigvalsh(dense_oracle(rot))
        merged = np.sort(np.linalg.eigvalsh(wb.torus_character_blocks(rot)), axis=None)
        assert merged.shape == evals.shape
        assert np.max(np.abs(merged - evals)) <= 1e-12
        # the blocks solved one at a time give the stacked solve bit for bit
        one_by_one = expander._character_spectrum(rot)
        assert one_by_one.dtype == merged.dtype and one_by_one.tobytes() == merged.tobytes()
        rep = wb.torus_spectrum(rot)
        assert rep.method == "full-eigensolve" and rep.converged
        assert abs(rep.lambda_second - evals[-2]) <= 1e-12
        assert abs(rep.lambda_min - evals[0]) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_trivial_block_is_the_level_below(self, m):
        blocks = wb.torus_character_blocks(wb.mgg_rotation(m))
        assert blocks.shape == (2, 2, 4 ** (m - 1), 4 ** (m - 1))
        assert np.array_equal(blocks[0, 0], dense_oracle(wb.mgg_rotation(m - 1)))
        for a in (0, 1):
            for b in (0, 1):
                assert np.array_equal(blocks[a, b], blocks[a, b].T)

    def test_dense_solve_never_builds_the_full_matrix(self):
        # N = 1024: the dense N x N matrix alone would take 8 MiB
        tracemalloc.start()
        try:
            rep = wb.torus_spectrum(wb.mgg_rotation(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.method == "full-eigensolve" and rep.converged
        assert peak < 4 * 2 ** 20

    def test_dense_solve_holds_one_block(self):
        # N = 1024: each block is 0.5 MiB, and the four stacked traced 2.26 MiB
        tracemalloc.start()
        try:
            rep = wb.torus_spectrum(wb.mgg_rotation(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.method == "full-eigensolve" and rep.converged
        assert peak < 1.25 * 2 ** 20

    def test_cover_base_comes_from_the_blocks(self, monkeypatch):
        # at m = 6 only route A runs the generic engine, over the push; the
        # level 5 base of route B is the block solve
        solved = []
        honest = expander.second_eigenvalue_magnitude

        def recorded(rot, tol):
            solved.append(rot.n_vertices)
            return honest(rot, tol)

        def dense(rot):
            raise AssertionError(f"dense {rot.n_vertices} x {rot.n_vertices} matrix built")

        monkeypatch.setattr(expander, "second_eigenvalue_magnitude", recorded)
        monkeypatch.setattr(expander, "_dense_operator", dense)
        rep = wb.torus_spectrum(wb.mgg_rotation(6))
        assert rep.converged and solved == [4096]

    def test_asymmetric_rotation_rejected(self):
        with pytest.raises(StructuralError, match="half translations"):
            wb.torus_spectrum(relabeled_torus(3))

    def test_non_torus_rejected(self):
        with pytest.raises(StructuralError, match="torus"):
            wb.torus_spectrum(wb.k4_rotation())


def contraction_cases(rot):
    """Mask pairs for the contraction check: random S != S', S = S', single
    vertices, two nonempty masks with no edge between them, full and empty."""
    n = rot.n_vertices
    rng = np.random.default_rng(n)
    full, empty = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    one = empty.copy()
    one[0] = True
    apart = full.copy()                          # vertex 0's non-neighbors
    apart[rot.neighbors[0]] = False
    s1, s2 = rng.random(n) < 0.3, rng.random(n) < 0.6
    return [(s1, s2), (s2, s1), (s1, s1), (one, one), (one, full), (one, apart),
            (full, full), (full, empty), (empty, s1)]


class TestContraction:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5], ids=lambda m: "k4" if m == 0 else f"mgg{m}")
    def test_matches_the_dense_svd(self, m):
        rot = wb.k4_rotation() if m == 0 else wb.mgg_rotation(m)
        a = dense_oracle(rot)
        for s1, s2 in contraction_cases(rot):
            rep = wb.check_projection_contraction(rot, s1, s2, alpha=0.5)
            svd = np.linalg.svd(s1[:, None] * a * s2[None, :], compute_uv=False)[0]
            assert rep.converged and abs(rep.exact_norm - svd) <= 1e-12

    @pytest.mark.parametrize("bad", [np.ones(5, dtype=bool), np.ones(4), np.ones((4, 1), dtype=bool)],
                             ids=["wrong-length", "float", "two-dimensional"])
    def test_mask_validation(self, bad):
        with pytest.raises(StructuralError):
            wb.check_projection_contraction(wb.k4_rotation(), bad, np.ones(4, dtype=bool))
        with pytest.raises(StructuralError):
            wb.check_projection_contraction(wb.k4_rotation(), np.ones(4, dtype=bool), bad)

    def test_unconverged_solve_does_not_hold(self, monkeypatch):
        monkeypatch.setattr(expander, "LANCZOS_MAX_STEPS", 1)
        rot = wb.mgg_rotation(3)
        (s1, s2), *_ = contraction_cases(rot)
        rep = wb.check_projection_contraction(rot, s1, s2, alpha=0.5)
        assert not rep.converged and not rep.holds

    def test_memory_at_m8_has_no_dense_operator(self, monkeypatch):
        def dense(rot):
            raise AssertionError("the contraction check built the dense operator")

        monkeypatch.setattr(expander, "_dense_operator", dense)
        rot = wb.mgg_rotation(8)
        (s1, s2), *_ = contraction_cases(rot)
        tracemalloc.start()
        try:
            rep = wb.check_projection_contraction(rot, s1, s2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.converged and rep.holds
        assert peak < 16 * 2 ** 20

    def test_random_subsets_bounded(self, rot2):
        alpha = wb.second_eigenvalue_magnitude(rot2).alpha
        rng = np.random.default_rng(0)
        for trial in range(25):
            s1 = rng.integers(0, 2, 16).astype(bool)
            s2 = rng.integers(0, 2, 16).astype(bool)
            rep = wb.check_projection_contraction(rot2, s1, s2, alpha=alpha)
            assert rep.holds
            assert rep.exact_norm is not None    # every N gets the certified norm

    def test_full_projections(self, rot2):
        full = np.ones(16, dtype=bool)
        rep = wb.check_projection_contraction(rot2, full, full, alpha=0.7)
        assert rep.factor == 1.0 and rep.holds

    def test_empty_side_gives_zero(self, rot2):
        rep = wb.check_projection_contraction(
            rot2, np.ones(16, dtype=bool), np.zeros(16, dtype=bool), alpha=0.7
        )
        assert rep.exact_norm == 0.0 and rep.holds

    def test_hybrid_row_vector_bound(self, rot2):
        # after composing a permutation, ||v P A' P'|| <= ||v|| sqrt((a+b mu)(a+b mu'))
        alpha = wb.second_eigenvalue_magnitude(rot2).alpha
        beta = 1.0 - alpha
        rng = np.random.default_rng(9)
        perm = rng.permutation(16)
        ap = dense_oracle(wb.HybridGraph(rot2, perm))
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
        a = dense_oracle(rot2)
        rng = np.random.default_rng(4)
        perm = rng.permutation(16)
        ap = dense_oracle(wb.HybridGraph(rot2, perm))
        for _ in range(20):
            m1 = rng.integers(0, 2, 16).astype(float)
            m2 = rng.integers(0, 2, 16).astype(float)
            masked_hybrid = m1[:, None] * ap * m2[None, :]
            pre = m2[perm]                       # indicator of F^{-1}[S']
            masked_base = m1[:, None] * a * pre[None, :]
            n1 = np.linalg.svd(masked_hybrid, compute_uv=False)[0]
            n2 = np.linalg.svd(masked_base, compute_uv=False)[0]
            assert abs(n1 - n2) <= 1e-12


class TestAdjacencyText:
    def test_k4_golden(self):
        text = wb.adjacency_text(wb.k4_rotation())
        assert text == "0: 1 2 3\n1: 0 3 2\n2: 3 0 1\n3: 2 1 0\n"

    def test_line_count(self, rot2):
        lines = wb.adjacency_text(rot2).strip().split("\n")
        assert len(lines) == 16
        assert all(len(line.split(":")[1].split()) == 8 for line in lines)

    @pytest.mark.parametrize("span", [1, 3, 1 << 14])
    def test_chunks_are_the_lines_range_by_range(self, monkeypatch, span):
        rot = wb.mgg_rotation(3)
        whole = "".join(f"{u}: " + " ".join(map(str, row)) + "\n"
                        for u, row in enumerate(rot.neighbors.tolist()))
        monkeypatch.setattr(expander, "_RANGE", span)
        chunks = list(wb.adjacency_chunks(rot))
        assert len(chunks) == -(-rot.n_vertices // span)
        assert "".join(chunks) == wb.adjacency_text(rot) == whole

    def test_dump_at_m8_holds_its_table_and_one_range(self, tmp_path):
        # 3.5 MB of text from a 4 MiB table; the whole text as one string took
        # 13.6 MiB beside the table
        tracemalloc.start()
        try:
            rot = wb.mgg_rotation(8)
            with open(tmp_path / "g8.txt", "w") as fh:
                fh.writelines(wb.adjacency_chunks(rot))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "g8.txt").stat().st_size == 3_504_490
        assert peak < rot.neighbors.nbytes + 8 * 2 ** 20
