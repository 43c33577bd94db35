"""Explicit constant-degree expanders: rotation maps, transition matrices, spectra.

The workhorse family is the affine-torus construction on ``N = 2**(2m)`` vertices
of degree 8: a vertex packs a pair ``(x, y)`` of m-bit residues as ``x * 2**m + y``
and the eight neighbor maps (in fixed label order 0..7) are

    0: (x+2y,   y)    1: (x-2y,   y)    2: (x+2y+1, y)    3: (x-2y-1, y)
    4: (x, y+2x)      5: (x, y-2x)      6: (x, y+2x+1)    7: (x, y-2x-1)

all mod 2**m.  Consecutive labels are mutually inverse, so the rotation map is
``rotate(u, j) = (map_j(u), j XOR 1)``.  The doubled linear parts matter: the
variant with ``x+y`` in place of ``x+2y`` has second eigenvalue drifting past
0.91 by m=5, while this family provably stays below ``5*sqrt(2)/8``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import BudgetError, ParameterError, StructuralError
from .prob import RATIO_TOL

STOCHASTIC_TOL = 1e-12
SYMMETRY_TOL = 1e-14
DENSE_EIGENSOLVE_MAX = 1024   # above this, switch to Lanczos
EIGEN_TOL = 1e-8              # residual stop of the Lanczos routes
LANCZOS_MAX_STEPS = 400
LANCZOS_BLOCK = 32            # basis vectors allocated at a time
LANCZOS_BASIS_BYTES = 2 ** 30 # worst-case Krylov basis, (steps + 1) * N * 8
EXACT_NORM_MAX = 256          # SVD-based exact operator norms up to this dimension
ALPHA_FAMILY_BOUND = 5.0 * np.sqrt(2.0) / 8.0


@dataclass(frozen=True, eq=False)
class ColoredRotation:
    """A rotation map stored as neighbor and back-label tables.

    ``neighbors[u, j]`` is the vertex reached from ``u`` along the edge slot
    labeled ``j``; ``back_labels[u, j]`` is the slot of the same edge at the far
    end.  The pair must be involutive: rotating twice is the identity.
    """

    m: int
    n_vertices: int
    d: int
    neighbors: np.ndarray
    back_labels: np.ndarray

    def __post_init__(self):
        nb = np.array(self.neighbors, dtype=np.int64)
        bl = np.array(self.back_labels, dtype=np.int64)
        nb.setflags(write=False)
        bl.setflags(write=False)
        object.__setattr__(self, "neighbors", nb)
        object.__setattr__(self, "back_labels", bl)
        n, d = self.n_vertices, self.d
        if nb.shape != (n, d) or bl.shape != (n, d):
            raise StructuralError("neighbor and back-label tables must be (n_vertices, d)")
        if np.any(nb < 0) or np.any(nb >= n):
            raise StructuralError("neighbor entries must be vertices")
        if np.any(bl < 0) or np.any(bl >= d):
            raise StructuralError("back labels must be edge slots")
        back_v = nb[nb, bl]
        back_j = bl[nb, bl]
        if not (
            np.array_equal(back_v, np.broadcast_to(np.arange(n)[:, None], (n, d)))
            and np.array_equal(back_j, np.broadcast_to(np.arange(d)[None, :], (n, d)))
        ):
            raise StructuralError("rotation map is not an involution")

    def rotate(self, u: int, j: int) -> tuple:
        """One application: returns ``(v, k)`` with ``rotate(v, k) == (u, j)``."""
        if not (0 <= u < self.n_vertices and 0 <= j < self.d):
            raise StructuralError("vertex or label out of range")
        return int(self.neighbors[u, j]), int(self.back_labels[u, j])

    @classmethod
    def from_function(
        cls, m: int, n_vertices: int, d: int, fn: Callable[[int, int], tuple]
    ) -> "ColoredRotation":
        nb = np.empty((n_vertices, d), dtype=np.int64)
        bl = np.empty((n_vertices, d), dtype=np.int64)
        for u in range(n_vertices):
            for j in range(d):
                v, k = fn(u, j)
                nb[u, j] = v
                bl[u, j] = k
        return cls(m, n_vertices, d, nb, bl)


def mgg_rotation(m: int) -> ColoredRotation:
    """The degree-8 affine-torus rotation on ``2**(2m)`` vertices (Margulis /
    Gabber-Galil style), with the involution check applied at construction."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    side = 1 << m
    n = side * side
    mask = side - 1
    idx = np.arange(n, dtype=np.int64)
    x = idx >> m
    y = idx & mask
    nb = np.empty((n, 8), dtype=np.int64)
    nb[:, 0] = (((x + 2 * y) & mask) << m) | y
    nb[:, 1] = (((x - 2 * y) & mask) << m) | y
    nb[:, 2] = (((x + 2 * y + 1) & mask) << m) | y
    nb[:, 3] = (((x - 2 * y - 1) & mask) << m) | y
    nb[:, 4] = (x << m) | ((y + 2 * x) & mask)
    nb[:, 5] = (x << m) | ((y - 2 * x) & mask)
    nb[:, 6] = (x << m) | ((y + 2 * x + 1) & mask)
    nb[:, 7] = (x << m) | ((y - 2 * x - 1) & mask)
    bl = np.broadcast_to(np.arange(8, dtype=np.int64) ^ 1, (n, 8)).copy()
    return ColoredRotation(m=m, n_vertices=n, d=8, neighbors=nb, back_labels=bl)


def k4_rotation() -> ColoredRotation:
    """Complete graph on 4 vertices as three XOR matchings; labels are preserved
    across each edge (slot j connects u to u^(j+1)), alpha is exactly 1/3."""
    verts = np.arange(4, dtype=np.int64)[:, None]
    labs = np.arange(3, dtype=np.int64)[None, :]
    nb = verts ^ (labs + 1)
    bl = np.broadcast_to(np.arange(3, dtype=np.int64), (4, 3)).copy()
    return ColoredRotation(m=0, n_vertices=4, d=3, neighbors=nb, back_labels=bl)


class TransitionMatrix:
    """A doubly stochastic transition matrix, symmetric unless directed.

    Stored as its nonzero entries: parallel arrays ``rows``, ``cols``, ``vals``
    in row-major order.  ``entries`` builds the dense array on demand, for the
    dense algorithms only.  ``TransitionMatrix(dense)`` wraps a hand-written
    matrix; ``from_triples`` takes the nonzeros directly.
    """

    def __init__(self, entries, directed: bool = False):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise StructuralError("entries must be square")
        rows, cols = np.indices(a.shape)[:, a != 0.0]
        self._store(a.shape[0], rows, cols, a[rows, cols], directed)

    @classmethod
    def from_triples(cls, n_dim: int, rows, cols, vals, directed: bool = False) -> "TransitionMatrix":
        tm = cls.__new__(cls)
        tm._store(n_dim, rows, cols, vals, directed)
        return tm

    def _store(self, n: int, rows, cols, vals, directed: bool) -> None:
        self.n_dim, self.directed = int(n), bool(directed)
        self.rows, self.cols = (np.array(x, dtype=np.int64) for x in (rows, cols))
        self.vals = np.array(vals, dtype=float)
        for arr in (self.rows, self.cols, self.vals):
            arr.setflags(write=False)
        keys = self.rows * n + self.cols
        if np.any(np.diff(keys) <= 0):
            raise StructuralError("nonzeros must be distinct and in row-major order")
        if np.any(self.vals < 0.0):
            raise StructuralError("entries must be nonnegative")
        row_sums = np.bincount(self.rows, weights=self.vals, minlength=n)
        col_sums = np.bincount(self.cols, weights=self.vals, minlength=n)
        if max(np.max(np.abs(row_sums - 1.0)), np.max(np.abs(col_sums - 1.0))) > STOCHASTIC_TOL:
            raise StructuralError("rows and columns must each sum to 1")
        if not directed:
            mirror_keys = self.cols * n + self.rows
            pos = np.minimum(np.searchsorted(keys, mirror_keys), keys.size - 1)
            mirror = np.where(keys[pos] == mirror_keys, self.vals[pos], 0.0)
            if float(np.max(np.abs(self.vals - mirror))) > SYMMETRY_TOL:
                raise StructuralError("undirected transition matrices must be symmetric")

    @property
    def entries(self) -> np.ndarray:
        a = np.zeros((self.n_dim, self.n_dim))
        a[self.rows, self.cols] = self.vals
        return a


def transition_matrix(rot: ColoredRotation) -> TransitionMatrix:
    """Normalized adjacency of the rotation's graph; parallel edges and loops
    accumulate multiples of 1/d."""
    n, d = rot.n_vertices, rot.d
    keys, counts = np.unique(
        np.repeat(np.arange(n, dtype=np.int64) * n, d) + rot.neighbors.reshape(-1),
        return_counts=True,
    )
    rows, cols = np.divmod(keys, n)
    return TransitionMatrix.from_triples(n, rows, cols, counts / d)


@dataclass(frozen=True)
class SpectralReport:
    """The two extreme nontrivial eigenvalues and the engine that found them.

    ``matvecs`` counts operator applications per route (empty for the dense
    eigensolve).  ``alpha_cover`` is the covering route's alpha when that
    route ran; ``converged`` then also requires the two routes to agree."""

    alpha: float
    beta: float
    lambda_second: float
    lambda_min: float
    method: str
    iterations: int
    tol: float
    converged: bool
    matvecs: dict = field(default_factory=dict)
    alpha_cover: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "alpha": self.alpha,
            "beta": self.beta,
            "lambda_second": self.lambda_second,
            "lambda_min": self.lambda_min,
            "method": self.method,
            "iterations": self.iterations,
            "tol": self.tol,
            "converged": self.converged,
            "matvecs": dict(self.matvecs),
        }
        if self.alpha_cover is not None:
            out["alpha_cover"] = self.alpha_cover
        return out


def _spectral_report(lam2: float, lam_min: float, tol: float, method: str, iterations: int,
                     converged: bool, matvecs: dict) -> SpectralReport:
    """Report of a computed spectrum, after the structural checks it settles: a
    second eigenvalue within ``tol`` of 1 means disconnected, a smallest one
    within ``tol`` of -1 bipartite."""
    if 1.0 - lam2 <= tol:
        raise StructuralError("graph must be connected")
    if 1.0 + lam_min <= tol:
        raise StructuralError("graph must not be bipartite")
    alpha = max(abs(lam2), abs(lam_min))
    return SpectralReport(alpha=alpha, beta=1.0 - alpha, lambda_second=lam2, lambda_min=lam_min,
                          method=method, iterations=iterations, tol=tol, converged=converged,
                          matvecs=matvecs)


def _lanczos_extremes(matvec, project, n: int, tol: float) -> tuple:
    """Largest and smallest eigenvalue of a symmetric operator on the subspace
    kept by ``project``, an orthogonal projection that commutes with it.

    Lanczos from a fixed random start, with the three-term recurrence followed
    by a full reorthogonalisation pass against the basis (Paige 1980).  The
    basis grows in blocks of ``LANCZOS_BLOCK`` vectors; its worst case,
    ``(LANCZOS_MAX_STEPS + 1) * n * 8`` bytes, is checked against
    ``LANCZOS_BASIS_BYTES`` first.  Stops when both extreme Ritz residuals
    ``|b_k s_k|`` are at most ``tol``, which certifies an eigenvalue within
    ``tol`` of each.  Returns ``(top, bottom, steps, converged)``.
    """
    need = (LANCZOS_MAX_STEPS + 1) * n * 8
    if need > LANCZOS_BASIS_BYTES:
        raise BudgetError(f"Lanczos basis needs {need} bytes at N={n}, "
                          f"over the {LANCZOS_BASIS_BYTES}-byte budget")
    v = project(np.random.default_rng(0x5EED).standard_normal(n))
    v /= np.linalg.norm(v)
    blocks, diag, off = [], [], []
    v_prev, b = v, 0.0
    for k in range(LANCZOS_MAX_STEPS):
        row = k % LANCZOS_BLOCK
        if row == 0:
            blocks.append(np.empty((LANCZOS_BLOCK, n)))
        blocks[-1][row] = v
        w = project(matvec(v))
        a = float(v @ w)
        w -= a * v
        w -= b * v_prev
        for blk in blocks[:-1] + [blocks[-1][: row + 1]]:
            w -= (blk @ w) @ blk
        diag.append(a)
        b = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        if b * max(abs(s[-1, 0]), abs(s[-1, -1])) <= tol:
            return float(theta[-1]), float(theta[0]), k + 1, True
        off.append(b)
        v_prev, v = v, w / b
    return float(theta[-1]), float(theta[0]), LANCZOS_MAX_STEPS, False


def second_eigenvalue_magnitude(tm: TransitionMatrix, tol: float = EIGEN_TOL) -> SpectralReport:
    """alpha = max(|second largest|, |most negative|) eigenvalue of a connected,
    non-bipartite, symmetric doubly stochastic matrix; beta = 1 - alpha.

    Dense symmetric eigensolve up to ``DENSE_EIGENSOLVE_MAX`` dimensions; above
    that, one Lanczos run over the nonzeros on the complement of the all-ones
    vector gives both ends of the spectrum.
    """
    if tm.directed:
        raise StructuralError("spectral verification requires a symmetric matrix")
    n = tm.n_dim
    if n <= DENSE_EIGENSOLVE_MAX:
        evals = np.linalg.eigvalsh(tm.entries)
        lam2 = float(evals[-2]) if n > 1 else 0.0
        return _spectral_report(lam2, float(evals[0]), tol, "full-eigensolve", 0, True, {})

    def step(v):
        return np.bincount(tm.rows, weights=tm.vals * v[tm.cols], minlength=n)

    lam2, lam_min, steps, converged = _lanczos_extremes(step, lambda v: v - v.mean(), n, tol)
    return _spectral_report(lam2, lam_min, tol, "lanczos", steps, converged, {"lanczos": steps})


def torus_cover_spectrum(rot: ColoredRotation, base: SpectralReport,
                         tol: float = EIGEN_TOL) -> SpectralReport:
    """The spectrum of the affine torus at level m from that of level m-1.

    Reducing both coordinates mod ``2**(m-1)`` maps ``rot`` onto the level m-1
    torus and preserves labels, so every eigenvector of level m-1 lifts to one
    of level m (Bilu & Linial 2006): spec(m-1) is contained in spec(m), and the
    other eigenvalues live on functions that sum to 0 on each 4-vertex fiber.
    ``base`` is the level m-1 spectrum; the fiber complement is solved by
    Lanczos with the step applied as a gather over the neighbor table, and
    its extremes are merged with ``base``'s.  The covering property is checked
    on the tables first.
    """
    m, n, d = rot.m, rot.n_vertices, rot.d
    quotient = mgg_rotation(m - 1)
    half = 1 << (m - 1)
    mask = half - 1
    nb = rot.neighbors
    reduced = (((nb >> m) & mask) << (m - 1)) | (nb & mask)
    if n != 4 * quotient.n_vertices or d != quotient.d or not np.all(
        reduced.reshape(2, half, 2, half, d) == quotient.neighbors.reshape(1, half, 1, half, d)
    ):
        raise StructuralError(f"rotation is not a label-preserving cover of the level {m - 1} torus")
    by_label = np.ascontiguousarray(nb.T)

    def step(v):
        return v[by_label].sum(axis=0) / d

    def fiber_free(v):
        f = v.reshape(2, half, 2, half)
        return (f - f.mean(axis=(0, 2), keepdims=True)).reshape(-1)

    top, bottom, steps, converged = _lanczos_extremes(step, fiber_free, n, tol)
    return _spectral_report(max(base.lambda_second, top), min(base.lambda_min, bottom), tol,
                            "torus-cover", steps, converged and base.converged,
                            {"torus-cover": steps})


def torus_spectrum(rot: ColoredRotation, base: Optional[SpectralReport] = None,
                   tol: float = EIGEN_TOL) -> SpectralReport:
    """Spectrum of ``mgg_rotation(m)`` by every route that applies.

    Up to ``DENSE_EIGENSOLVE_MAX`` vertices this is the dense eigensolve.  Above
    it, route A (Lanczos over the transition nonzeros) and route B
    (``torus_cover_spectrum`` over ``base``, the level m-1 spectrum, computed
    here when not given) both run; the report is route A's, with both routes'
    matvecs, route B's alpha, and ``converged`` only if both converged and
    their alphas agree within ``tol``.
    """
    lanczos = second_eigenvalue_magnitude(transition_matrix(rot), tol)
    if lanczos.method == "full-eigensolve":
        return lanczos
    if base is None:
        base = second_eigenvalue_magnitude(transition_matrix(mgg_rotation(rot.m - 1)), tol)
    cover = torus_cover_spectrum(rot, base, tol)
    agree = abs(lanczos.alpha - cover.alpha) <= tol
    return replace(lanczos, iterations=lanczos.iterations + cover.iterations,
                   converged=lanczos.converged and cover.converged and agree,
                   matvecs={**lanczos.matvecs, **cover.matvecs}, alpha_cover=cover.alpha)


@dataclass(frozen=True, eq=False)
class Projection:
    """Coordinate projection onto a vertex subset, stored as a boolean mask."""

    mask: np.ndarray

    def __post_init__(self):
        m = np.array(self.mask, dtype=bool)
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)
        if m.ndim != 1:
            raise StructuralError("mask must be one-dimensional")

    @classmethod
    def from_indices(cls, n: int, indices) -> "Projection":
        mask = np.zeros(n, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise StructuralError("subset indices out of range")
        mask[idx] = True
        return cls(mask)

    @classmethod
    def full(cls, n: int) -> "Projection":
        return cls(np.ones(n, dtype=bool))

    @property
    def n_dim(self) -> int:
        return self.mask.size

    @property
    def size(self) -> int:
        return int(np.sum(self.mask))

    @property
    def mu(self) -> float:
        return self.size / self.n_dim


def projection_apply(s: Projection, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (s.n_dim,):
        raise StructuralError("vector dimension does not match the projection")
    return np.where(s.mask, v, 0.0)


@dataclass(frozen=True)
class ContractionReport:
    max_ratio: float
    factor: float
    exact_norm: Optional[float]
    trials: int

    @property
    def holds(self) -> bool:
        return self.max_ratio <= 1.0 + RATIO_TOL


def check_projection_contraction(
    tm: TransitionMatrix,
    s1: Projection,
    s2: Projection,
    trials: int = 1000,
    seed: int = 0,
    alpha: Optional[float] = None,
) -> ContractionReport:
    """Verify ``|P A P' v| <= sqrt((a+b*mu)(a+b*mu')) |v|`` on random vectors, and
    exactly via the operator norm when the dimension allows an SVD."""
    n = tm.n_dim
    if s1.n_dim != n or s2.n_dim != n:
        raise StructuralError("projections must match the matrix dimension")
    if alpha is None:
        alpha = second_eigenvalue_magnitude(tm).alpha
    beta = 1.0 - alpha
    factor = float(np.sqrt((alpha + beta * s1.mu) * (alpha + beta * s2.mu)))
    masked = s1.mask[:, None] * tm.entries * s2.mask[None, :]

    def ratio_of(norm_val: float) -> float:
        if factor > 0:
            return norm_val / factor
        return 0.0 if norm_val == 0.0 else np.inf

    max_ratio = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        max_ratio = max(max_ratio, ratio_of(float(np.linalg.norm(masked @ v))))
    exact = None
    if n <= EXACT_NORM_MAX:
        exact = float(np.linalg.svd(masked, compute_uv=False)[0])
        max_ratio = max(max_ratio, ratio_of(exact))
    return ContractionReport(max_ratio=max_ratio, factor=factor, exact_norm=exact, trials=trials)


def compose_permutation(tm: TransitionMatrix, perm: np.ndarray) -> TransitionMatrix:
    """Transition matrix of the hybrid graph: take an edge, then apply the
    permutation.  Equals A*B with B the permutation's 0/1 matrix; directed."""
    perm = np.asarray(perm, dtype=np.int64)
    n = tm.n_dim
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise StructuralError("perm must be a bijection on the vertex set")
    cols = perm[tm.cols]
    order = np.argsort(tm.rows * n + cols)
    return TransitionMatrix.from_triples(n, tm.rows[order], cols[order], tm.vals[order], directed=True)


def edge_coloring(rot: ColoredRotation) -> Optional[np.ndarray]:
    """Edge coloring by labels, when the rotation preserves labels.

    Returns ``colors[u, j] = j`` (incident edges of a vertex get distinct colors)
    if ``rotate(u, j) = (v, j)`` everywhere; otherwise None.  Callers must treat
    None as a normal outcome: the affine-torus family has no such coloring.
    """
    labels = np.arange(rot.d, dtype=np.int64)
    if not np.array_equal(rot.back_labels, np.broadcast_to(labels, rot.back_labels.shape)):
        return None
    return np.broadcast_to(labels, (rot.n_vertices, rot.d)).copy()


def adjacency_text(rot: ColoredRotation) -> str:
    """One line per vertex: ``u: v0 v1 ... v_{d-1}`` with neighbors in label order."""
    lines = []
    for u in range(rot.n_vertices):
        lines.append(f"{u}: " + " ".join(str(int(v)) for v in rot.neighbors[u]))
    return "\n".join(lines) + "\n"
