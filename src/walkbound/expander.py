"""Explicit constant-degree expanders: rotation maps, their walk operator, spectra.

The workhorse family is the affine-torus construction on ``N = 2**(2m)`` vertices
of degree 8: a vertex packs a pair ``(x, y)`` of m-bit residues as ``x * 2**m + y``
and the eight neighbor maps (in fixed label order 0..7) are

    0: (x+2y,   y)    1: (x-2y,   y)    2: (x+2y+1, y)    3: (x-2y-1, y)
    4: (x, y+2x)      5: (x, y-2x)      6: (x, y+2x+1)    7: (x, y-2x-1)

all mod 2**m.  Consecutive labels are mutually inverse, so the rotation map is
``rotate(u, j) = (map_j(u), j XOR 1)``.  The doubled linear parts matter: the
variant with ``x+y`` in place of ``x+2y`` has second eigenvalue drifting past
0.91 by m=5, while this family provably stays below ``5*sqrt(2)/8``.

The rotation's neighbor table is the one form of the normalized adjacency A:
``_push`` sums a vector over each vertex's d neighbors, label row by label
row, and that sum over d is one step of A.  The dense N x N matrix is built
from the same table only for the generic engine's small sizes.  The doubling
also makes translation by ``2**(m-1)`` in either coordinate commute with every
neighbor map, so the torus operator splits into four character blocks of size
N/4 (``torus_character_blocks``).  No torus spectrum builds the dense N x N
matrix: up to ``DENSE_EIGENSOLVE_MAX`` vertices the four blocks are solved
densely, above it Lanczos runs over the push.

Lanczos keeps no Krylov basis (``_lanczos_extremes``): pass 1 runs the
three-term recurrence from a fixed hashed start and keeps the tridiagonal
matrix, pass 2 replays it to sum the two extreme Ritz vectors, and each
extreme counts only with its explicit residual.  A step applies the operator
twice, once per pass, and each certificate twice more; reports count Lanczos
steps as ``iterations`` and ``matvecs``.  A solve holds a few vectors of
length N, plus the operator's own scratch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError, StructuralError
from .prob import RATIO_TOL, STREAM_VECTORS, stream_key, uniforms

DENSE_EIGENSOLVE_MAX = 1024   # dense eigvalsh up to this N (torus: four N/4 blocks); Lanczos above
EIGEN_TOL = 1e-8              # residual stop of the Lanczos routes
LANCZOS_MAX_STEPS = 400
EXACT_NORM_MAX = 256          # SVD-based exact operator norms up to this dimension
ALPHA_FAMILY_BOUND = 5.0 * np.sqrt(2.0) / 8.0


@dataclass(frozen=True, eq=False)
class ColoredRotation:
    """A rotation map stored as neighbor and back-label tables.

    ``neighbors[u, j]`` is the vertex reached from ``u`` along the edge slot
    labeled ``j``; ``back_labels[u, j]`` is the slot of the same edge at the far
    end.  The pair must be involutive: rotating twice is the identity.  That
    check is all the operator needs: an involution pairs the d slots out of
    each vertex with d slots into it, so A (slot counts over d) is symmetric
    and doubly stochastic.  Tables that are already int64 are kept without a
    copy, views included (a transposed label-major table, a broadcast row of
    back labels), and made read-only.
    """

    m: int
    n_vertices: int
    d: int
    neighbors: np.ndarray
    back_labels: np.ndarray

    def __post_init__(self):
        nb = np.asarray(self.neighbors, dtype=np.int64)
        bl = np.asarray(self.back_labels, dtype=np.int64)
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
        # one far-end table at a time: the second is gathered only if the first passes
        if not (np.all(nb[nb, bl] == np.arange(n)[:, None])
                and np.all(bl[nb, bl] == np.arange(d))):
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
    Gabber-Galil style), with the involution check applied at construction.

    The table is built label-major, one row of N per label, and ``neighbors``
    is its transposed view, so ``neighbors.T`` is the push's table as it is;
    the back labels ``j ^ 1`` are one broadcast row."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    side = 1 << m
    n = side * side
    mask = side - 1
    idx = np.arange(n, dtype=np.int64)
    x = idx >> m
    y = idx & mask
    nb = np.empty((8, n), dtype=np.int64)
    nb[0] = (((x + 2 * y) & mask) << m) | y
    nb[1] = (((x - 2 * y) & mask) << m) | y
    nb[2] = (((x + 2 * y + 1) & mask) << m) | y
    nb[3] = (((x - 2 * y - 1) & mask) << m) | y
    nb[4] = (x << m) | ((y + 2 * x) & mask)
    nb[5] = (x << m) | ((y - 2 * x) & mask)
    nb[6] = (x << m) | ((y + 2 * x + 1) & mask)
    nb[7] = (x << m) | ((y - 2 * x - 1) & mask)
    bl = np.broadcast_to(np.arange(8, dtype=np.int64) ^ 1, (n, 8))
    return ColoredRotation(m=m, n_vertices=n, d=8, neighbors=nb.T, back_labels=bl)


def k4_rotation() -> ColoredRotation:
    """Complete graph on 4 vertices as three XOR matchings; labels are preserved
    across each edge (slot j connects u to u^(j+1)), alpha is exactly 1/3."""
    verts = np.arange(4, dtype=np.int64)[:, None]
    labs = np.arange(3, dtype=np.int64)[None, :]
    nb = verts ^ (labs + 1)
    bl = np.broadcast_to(np.arange(3, dtype=np.int64), (4, 3))
    return ColoredRotation(m=0, n_vertices=4, d=3, neighbors=nb, back_labels=bl)


def _push(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``out[w] = sum_k v[table[k, w]]`` over the rows of a label-major (d, N)
    table, in row order: one gather per row added into one output.  With the
    transposed neighbor table this is d times one step of A; with a hybrid
    graph's predecessor table it pushes walk counts one step forward.  ``v``
    may carry trailing axes, which come along with each gathered entry."""
    out = v[table[0]]
    for row in table[1:]:
        out += v[row]
    return out


def _step(rot: ColoredRotation):
    """One step of A as a function of a vector: the push over the transposed
    neighbor table, over d."""
    table, d = rot.neighbors.T, rot.d

    def step(v):
        out = _push(table, v)
        out /= d
        return out

    return step


def _dense_operator(rot: ColoredRotation) -> np.ndarray:
    """A as a dense N x N array: ``A[u, v]`` counts the edge slots from u to v
    (parallel edges and loops included), over d."""
    n = rot.n_vertices
    cells = np.arange(n, dtype=np.int64)[:, None] * n + rot.neighbors
    return np.bincount(cells.reshape(-1), minlength=n * n).reshape(n, n) / rot.d


@dataclass(frozen=True)
class SpectralReport:
    """The two extreme nontrivial eigenvalues and the engine that found them.

    ``matvecs`` counts Lanczos steps per route (empty for the dense
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


def _start_vector(n: int) -> np.ndarray:
    """The fixed Lanczos start: the keyed words of key 0 (``prob.words``, plain
    splitmix64 of each vertex index, since mix(0) = 0) as uniforms, scaled to
    [-1, 1)."""
    return 2.0 * uniforms(0, np.arange(n)) - 1.0


def _lanczos_vectors(matvec, project, n: int, diag: list, off: list):
    """The Lanczos recurrence from the fixed start, three vectors at a time.

    Yields each basis vector v_k once its step is done: ``w = P A v_k -
    a_k v_k - b_{k-1} v_{k-1}``, then ``v_{k+1} = w / b_k``.  The coefficients
    ``a_k = v_k . P A v_k`` and ``b_k = |w|`` are appended to ``diag`` and
    ``off`` when first reached and reused on a replay, so a replay yields the
    same vectors bit for bit and then carries on past them.
    """
    v = project(_start_vector(n))
    v /= np.linalg.norm(v)
    v_prev, b = v, 0.0
    for k in itertools.count():
        w = project(matvec(v))
        if k == len(diag):
            diag.append(float(v @ w))
        w -= diag[k] * v
        w -= b * v_prev
        del v_prev
        if k == len(off):
            off.append(float(np.linalg.norm(w)))
        yield v
        b = off[k]
        w /= b
        v_prev, v = v, w


def _residual(matvec, project, y: np.ndarray, theta: float) -> float:
    """``|P(A y) - theta y|``, the certificate of a Ritz pair with ``|y| = 1``."""
    r = project(matvec(y))
    r -= theta * y
    return float(np.linalg.norm(r))


def _lanczos_extremes(matvec, project, n: int, tol: float) -> tuple:
    """Largest and smallest eigenvalue of a symmetric operator on the subspace
    kept by ``project``, an orthogonal projection that commutes with it.

    Two-pass Lanczos with no stored basis (Paige 1980; Cullum & Willoughby
    1985).  Pass 1 runs the three-term recurrence and keeps only the
    tridiagonal matrix T; it stops once both extreme Ritz residual estimates
    ``|b_k s_k|`` are at most ``tol``.  Without reorthogonalisation that
    estimate is not a proof, so pass 2 replays the recurrence with the stored
    coefficients, sums the two extreme Ritz vectors y, and each Ritz value
    theta counts only if ``|P(A y) - theta y| <= tol`` with ``|y| = 1``, which
    puts an eigenvalue within ``tol`` of it.  If that certificate misses, pass
    1 goes on from where the replay ends, and pass 2 runs again once the
    step count has doubled.  A step costs two operator applications, one
    per pass, plus two per certificate; the returned step count counts
    Lanczos steps.  Returns ``(top, bottom, steps, converged)``.
    """
    diag, off = [], []
    run = _lanczos_vectors(matvec, project, n, diag, off)
    recheck = 0
    for steps in range(1, LANCZOS_MAX_STEPS + 1):
        next(run)
        theta, s = np.linalg.eigh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
        ends = s[:, [-1, 0]]
        stuck = off[-1] == 0.0  # an invariant subspace: the recurrence cannot go on
        if not stuck and (steps < recheck or off[-1] * np.max(np.abs(ends[-1])) > tol):
            continue
        run = _lanczos_vectors(matvec, project, n, diag, off)
        y = np.zeros((2, n))
        for c, v in zip(ends, run):
            y += c[:, None] * v
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        top, bottom = float(theta[-1]), float(theta[0])
        if all(_residual(matvec, project, u, lam) <= tol for u, lam in zip(y, (top, bottom))):
            return top, bottom, steps, True
        if stuck:
            break
        recheck = 2 * steps
    return float(theta[-1]), float(theta[0]), steps, False


def second_eigenvalue_magnitude(rot: ColoredRotation, tol: float = EIGEN_TOL) -> SpectralReport:
    """alpha = max(|second largest|, |most negative|) eigenvalue of the
    normalized adjacency A of a connected, non-bipartite rotation's graph;
    beta = 1 - alpha.

    Dense symmetric eigensolve of A up to ``DENSE_EIGENSOLVE_MAX`` vertices;
    above that, one Lanczos run over the push on the complement of the
    all-ones vector gives both ends of the spectrum.
    """
    n = rot.n_vertices
    if n <= DENSE_EIGENSOLVE_MAX:
        evals = np.linalg.eigvalsh(_dense_operator(rot))
        lam2 = float(evals[-2]) if n > 1 else 0.0
        return _spectral_report(lam2, float(evals[0]), tol, "full-eigensolve", 0, True, {})
    lam2, lam_min, steps, converged = _lanczos_extremes(_step(rot), lambda v: v - v.mean(), n, tol)
    return _spectral_report(lam2, lam_min, tol, "lanczos", steps, converged, {"lanczos": steps})


def torus_cover_spectrum(rot: ColoredRotation, base: SpectralReport,
                         tol: float = EIGEN_TOL) -> SpectralReport:
    """The spectrum of the affine torus at level m from that of level m-1.

    Reducing both coordinates mod ``2**(m-1)`` maps ``rot`` onto the level m-1
    torus and preserves labels, so every eigenvector of level m-1 lifts to one
    of level m (Bilu & Linial 2006): spec(m-1) is contained in spec(m), and the
    other eigenvalues live on functions that sum to 0 on each 4-vertex fiber.
    ``base`` is the level m-1 spectrum; the fiber complement is solved by
    Lanczos over the push, and its extremes are merged with ``base``'s.  The
    covering property is checked on the label-major tables first, one label
    at a time.
    """
    m, n, d = rot.m, rot.n_vertices, rot.d
    quotient = mgg_rotation(m - 1)
    half = 1 << (m - 1)
    mask = half - 1

    def covers(row, below):
        reduced = (((row >> m) & mask) << (m - 1)) | (row & mask)
        return np.all(reduced.reshape(2, half, 2, half) == below.reshape(1, half, 1, half))

    # one label row at a time, so the check holds a few vectors of length N
    if n != 4 * quotient.n_vertices or d != quotient.d or not all(
        map(covers, rot.neighbors.T, quotient.neighbors.T)
    ):
        raise StructuralError(f"rotation is not a label-preserving cover of the level {m - 1} torus")

    def fiber_free(v):
        f = v.reshape(2, half, 2, half)
        return (f - f.mean(axis=(0, 2), keepdims=True)).reshape(-1)

    top, bottom, steps, converged = _lanczos_extremes(_step(rot), fiber_free, n, tol)
    return _spectral_report(max(base.lambda_second, top), min(base.lambda_min, bottom), tol,
                            "torus-cover", steps, converged and base.converged,
                            {"torus-cover": steps})


def torus_character_blocks(rot: ColoredRotation) -> np.ndarray:
    """The torus operator A split by its half translations.

    With ``h = 2**(m-1)``, translation by h in x or in y commutes with every
    neighbor map of ``mgg_rotation(m)``, because ``2h = 0 mod 2**m``.  The two
    translations generate a Klein four-group, so A is block diagonal over its
    four characters (a, b) in {0,1}^2.  Returns a (2, 2, N/4, N/4) array
    whose ``[a, b]`` block acts on the quarter ``x, y < h``: for each
    neighbor v of a quarter vertex u, ``B[u, rep(v)] += (-1)**(a*qx(v) +
    b*qy(v)) / d``, where rep(v) reduces both coordinates mod h and qx, qy
    are the bits that reduction drops.  spec(A) is the union of the four
    block spectra, and block [0, 0] is the level m-1 operator.  Both
    translations are first checked to commute with the neighbor table, label
    by label: otherwise the blocks are not those of A and need not even be
    symmetric.
    """
    m, n, d = rot.m, rot.n_vertices, rot.d
    if m < 1 or n != 4 ** m:
        raise StructuralError(f"rotation on {n} vertices is not a 2**{m} x 2**{m} torus")
    half = 1 << (m - 1)
    nb = rot.neighbors
    idx = np.arange(n, dtype=np.int64)
    for shift in (half << m, half):
        if not np.array_equal(nb[idx ^ shift], nb ^ shift):
            raise StructuralError(f"rotation does not commute with the half translations "
                                  f"of the level {m} torus")
    q = n // 4
    x, y = np.divmod(np.arange(q, dtype=np.int64), half)
    v = nb[(x << m) | y]
    cell = np.arange(q)[:, None] * q + ((v >> m) & (half - 1)) * half + (v & (half - 1))
    qx, qy = (v >> (2 * m - 1)) & 1, (v >> (m - 1)) & 1
    char = np.arange(4)[:, None, None]
    sign = 1 - 2 * (((char >> 1) * qx + (char & 1) * qy) & 1)
    blocks = np.bincount((char * q * q + cell).reshape(-1), weights=sign.reshape(-1) / d,
                         minlength=4 * q * q)
    return blocks.reshape(2, 2, q, q)


def _one_route_spectrum(rot: ColoredRotation, tol: float) -> SpectralReport:
    """One route's spectrum of a torus level: the dense eigensolve of the four
    character blocks up to ``DENSE_EIGENSOLVE_MAX`` vertices, else Lanczos over
    the push."""
    if rot.n_vertices > DENSE_EIGENSOLVE_MAX:
        return second_eigenvalue_magnitude(rot, tol)
    evals = np.sort(np.linalg.eigvalsh(torus_character_blocks(rot)), axis=None)
    return _spectral_report(float(evals[-2]), float(evals[0]), tol, "full-eigensolve", 0, True, {})


def torus_spectrum(rot: ColoredRotation, base: Optional[SpectralReport] = None,
                   tol: float = EIGEN_TOL) -> SpectralReport:
    """Spectrum of ``mgg_rotation(m)`` by every route that applies.

    Up to ``DENSE_EIGENSOLVE_MAX`` vertices this is one route: a dense
    eigensolve of each of the four ``torus_character_blocks``, whose
    eigenvalues together are the spectrum; ``base`` is not used, so every
    level is solved on its own.  Above it, route A (Lanczos over the push
    on the complement of the all-ones vector) and route B (``torus_cover_spectrum`` over ``base``,
    the level m-1 spectrum, computed here by that level's one route when not
    given) both run; the report is route A's, with both routes' matvecs,
    route B's alpha, and ``converged`` only if both converged and their
    alphas agree within ``tol``.
    """
    lanczos = _one_route_spectrum(rot, tol)
    if lanczos.method == "full-eigensolve":
        return lanczos
    if base is None:
        base = _one_route_spectrum(mgg_rotation(rot.m - 1), tol)
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
    rot: ColoredRotation,
    s1: Projection,
    s2: Projection,
    trials: int = 1000,
    seed: int = 0,
    alpha: Optional[float] = None,
) -> ContractionReport:
    """Verify ``|P A P' v| <= sqrt((a+b*mu)(a+b*mu')) |v|`` for the rotation's
    dense A on ``trials`` random vectors, uniform on the cube [-1, 1)**n under
    the seed's STREAM_VECTORS key, and exactly via the operator norm when the
    dimension allows an SVD."""
    n = rot.n_vertices
    if s1.n_dim != n or s2.n_dim != n:
        raise StructuralError("projections must match the rotation's vertex count")
    if alpha is None:
        alpha = second_eigenvalue_magnitude(rot).alpha
    beta = 1.0 - alpha
    factor = float(np.sqrt((alpha + beta * s1.mu) * (alpha + beta * s2.mu)))
    masked = s1.mask[:, None] * _dense_operator(rot) * s2.mask[None, :]

    def ratio_of(norm_val: float) -> float:
        if factor > 0:
            return norm_val / factor
        return 0.0 if norm_val == 0.0 else np.inf

    max_ratio = 0.0
    key = stream_key(seed, STREAM_VECTORS)
    for trial in range(trials):
        v = 2.0 * uniforms(key, np.arange(trial * n, (trial + 1) * n)) - 1.0
        v /= np.linalg.norm(v)
        max_ratio = max(max_ratio, ratio_of(float(np.linalg.norm(masked @ v))))
    exact = None
    if n <= EXACT_NORM_MAX:
        exact = float(np.linalg.svd(masked, compute_uv=False)[0])
        max_ratio = max(max_ratio, ratio_of(exact))
    return ContractionReport(max_ratio=max_ratio, factor=factor, exact_norm=exact, trials=trials)


def adjacency_text(rot: ColoredRotation) -> str:
    """One line per vertex: ``u: v0 v1 ... v_{d-1}`` with neighbors in label order."""
    lines = []
    for u in range(rot.n_vertices):
        lines.append(f"{u}: " + " ".join(str(int(v)) for v in rot.neighbors[u]))
    return "\n".join(lines) + "\n"
