"""Finite probability spaces, conditional expectations, and tail-bound evaluators.

Everything here is desk scale: a space is the float64 weights of its outcomes
0 .. size-1, a random object or variable is an array aligned with them, and
every quantity a bound evaluator reports can be recomputed by brute force
summation over the full outcome set.  Two bound evaluators are provided:

* ``pooled_bound``   -- identically distributed objects, one epsilon, bound
                        ``(alpha + beta * p)**t + t*eps`` where ``p`` is the tail
                        mass of the averaged conditional expectation;
* ``percoord_bound`` -- per-object tails and epsilons, bound
                        ``prod_i(alpha + beta * p_i) + t * mean(eps_i)``.

``beta = 1`` is full independence; smaller ``beta`` relaxes the product bound the
way spectral-gap arguments require (see ``walkbound.walks``).

Both evaluators are the one-row case of a block evaluator: ``product_bound_sweep``
runs it over blocks of random product instances that share one grid, with every
check of the per-instance path and bit-identical reports.  Random instances
draw from the keyed generator of ``walkbound.rng``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BudgetError,
    MarginalMismatchError,
    ParameterError,
    StructuralError,
)
from .rng import RATIO_TOL, STREAM_INSTANCE, stream_keys, uniforms

WEIGHT_TOL = 1e-12        # allowed drift of a weight vector's total mass from 1
IDENTICAL_TOL = 1e-12     # marginal histograms closer than this count as identical
HOLDS_SLACK = 1e-9        # bound - E[Z] >= -HOLDS_SLACK counts as the bound holding
GRID_MAX_BYTES = 2 ** 30  # a product instance and its bound: coordinates, weights, Z, scratch
SWEEP_SCRATCH_BYTES = 2 ** 21  # working memory of one block of a product-instance sweep
MAX_WITNESSES = 16


def _frozen_array(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array.  An array that already is
    one is kept, so objects can share it; anything else is copied."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


# A check over a block of instances is a fault: (flags, error), where flags is
# a (rows,) bool array, or one bool when the check does not depend on the row,
# and error(row) builds the exception that row raises.

def _raise_first(faults, rows: int) -> None:
    """Raise what checking the rows one at a time would: the error of the first
    row with any fault and, within that row, of the first fault in list order."""
    bad = np.zeros((len(faults), rows), dtype=bool)
    for j, (flags, _) in enumerate(faults):
        bad[j] = flags
    hit = bad.any(axis=0)
    if hit.any():
        row = int(np.argmax(hit))
        raise faults[int(np.argmax(bad[:, row]))][1](row)


def _weight_faults(weights: np.ndarray) -> list:
    """FiniteSpace's weight checks on each row of ``weights``."""
    totals = np.sum(weights, axis=1)
    return [
        (np.any(weights < 0.0, axis=1), lambda r: StructuralError("weights must be nonnegative")),
        # written as "not within" so that a NaN total is a fault too
        (~(np.abs(totals - 1.0) <= WEIGHT_TOL), lambda r: StructuralError(
            f"weights sum to {float(totals[r])!r}, expected 1 within {WEIGHT_TOL}")),
    ]


def _finite_fault(values: np.ndarray) -> tuple:
    return ~np.all(np.isfinite(values), axis=1), lambda r: StructuralError("values must be finite")


def _map_fault(index_map: np.ndarray, k: int) -> tuple:
    return (bool(np.any(index_map < 0) or np.any(index_map >= k)),
            lambda r: StructuralError("index_map values must index the codomain"))


def _binned_sums(index_map: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """(rows, k): row r's sums of ``weights[r]`` over the k bins that
    ``index_map`` assigns its entries to; ``weights`` is (rows, size).

    One ``np.bincount`` adds each bin's weights one at a time, so its rounding
    grows with the row length.  A row is therefore cut into blocks of 4096
    entries (of k when there are more bins, so the block sums never outnumber
    the entries), all blocks go through one ``np.bincount``, and each bin's
    block sums are added by a pairwise ``np.sum``: the rounding then grows with
    the log of the row length.  A row of at most 4096 entries is one block,
    whose single sum per bin comes back unchanged.  Blocks stay within a row,
    so each row of a batch matches the one-row call bit for bit.
    """
    rows, size = weights.shape
    length = max(4096, k)
    blocks = -(-size // length)
    # one index array, built in place: the bin of entry j is its block's first
    # bin plus index_map[j]
    idx = np.arange(size)
    idx //= length
    idx *= k
    idx += index_map
    if rows > 1:   # row r's bins follow row r-1's; one row needs no second array
        idx = idx + k * blocks * np.arange(rows)[:, None]
    sums = np.bincount(idx.ravel(), weights.ravel(), minlength=rows * blocks * k)
    # blocks last and contiguous: np.sum adds them pairwise
    return np.ascontiguousarray(sums.reshape(rows, blocks, k).transpose(0, 2, 1)).sum(axis=2)


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite sample space: its outcomes are the positions 0 .. size-1 of its
    float64 ``weights``, and every map on it is an array aligned with them."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise StructuralError("a sample space needs a 1-d array of at least one weight")
        _raise_first(_weight_faults(self.weights[None]), 1)

    @classmethod
    def uniform(cls, n: int) -> "FiniteSpace":
        if n < 1:
            raise StructuralError("a sample space needs at least one outcome")
        return cls(np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.weights.size

    def same_space(self, other: "FiniteSpace") -> bool:
        return self is other or np.array_equal(self.weights, other.weights)


@dataclass(frozen=True, eq=False)
class RandomObject:
    """A measurable map from a finite space into an explicit codomain.

    ``index_map[w]`` is the codomain index outcome ``w`` maps to.  The map
    must have an integer dtype.  A read-only map that int64 holds is kept as
    it is, so objects can share one array of maps; any other is copied to a
    read-only int64 array.
    """

    domain: FiniteSpace
    codomain: tuple
    index_map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "codomain", tuple(self.codomain))
        index_map = np.asarray(self.index_map)
        if index_map.dtype.kind not in "iu":   # a cast would truncate 0.9 to 0
            raise StructuralError(f"index_map must hold integers, got dtype {index_map.dtype}")
        if index_map.flags.writeable or not np.can_cast(index_map.dtype, np.int64):
            index_map = _frozen_array(index_map, dtype=np.int64)
        object.__setattr__(self, "index_map", index_map)
        if index_map.ndim != 1 or index_map.size != self.domain.size:
            raise StructuralError("index_map must assign exactly one codomain point per outcome")
        if len(self.codomain) == 0:
            raise StructuralError("codomain must be nonempty")
        _raise_first([_map_fault(self.index_map, len(self.codomain))], 1)

    def distribution(self) -> np.ndarray:
        """Pushforward weights: P{U = psi} for each codomain point, in order."""
        return _binned_sums(self.index_map, self.domain.weights[None], len(self.codomain))[0]


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A real-valued function on a finite space, stored as an aligned value array."""

    domain: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.ndim != 1 or self.values.size != self.domain.size:
            raise StructuralError("values must assign exactly one real per outcome")
        _raise_first([_finite_fault(self.values[None])], 1)


def expectation(z: RandomVariable) -> float:
    return float(np.sum(z.domain.weights * z.values))


def conditional_expectation(z: RandomVariable, u: RandomObject) -> RandomVariable:
    """E[Z | U] as a random variable on U's induced space.

    Codomain points of probability zero get the conventional value 0.
    """
    if not z.domain.same_space(u.domain):
        raise StructuralError("Z and U must live on the same sample space")
    k = len(u.codomain)
    w = u.domain.weights
    mass = _binned_sums(u.index_map, w[None], k)[0]
    num = _binned_sums(u.index_map, (w * z.values)[None], k)[0]
    vals = np.divide(num, mass, out=np.zeros_like(num), where=mass > 0)
    return RandomVariable(FiniteSpace(mass), vals)


def tail_probability(w: RandomVariable, eps: float) -> float:
    """Mass of the strict tail {w > eps} under w's own space, capped at 1: the
    weights sum to 1 only within WEIGHT_TOL, and a tail mass over 1 would make
    the bounds rise with beta."""
    return min(float(np.sum(w.domain.weights[w.values > eps])), 1.0)


def _chain_sum(terms) -> float:
    # left to right on purpose: sum() of floats is compensated from Python 3.12,
    # which would make bound_value differ between interpreter versions
    out = 0.0
    for s in terms:
        out += s
    return out


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound evaluation, with enough inputs echoed to recheck it."""

    expectation: float
    tail_terms: tuple
    bound_value: float
    slack: float
    holds: bool
    variant: str
    beta: float
    epsilons: tuple
    t: int

    @property
    def alpha(self) -> float:
        return 1.0 - self.beta

    def to_dict(self) -> dict:
        return asdict(self)


def _tail_masses(mass: np.ndarray, values: np.ndarray, eps: float) -> np.ndarray:
    """``np.sum(mass[r][values[r] > eps])`` for every row r, capped at 1 as
    ``tail_probability`` caps it.

    Each row's tail is packed to the left and summed over its own length, as
    the one-row call does: numpy sums 8 or more terms pairwise, so zeros left
    in place of the dropped entries would change the rounding.
    """
    over = values > eps
    counts = over.sum(axis=1)
    packed = np.take_along_axis(mass, np.argsort(~over, axis=1, kind="stable"), axis=1)
    out = np.empty(mass.shape[0])
    for n in np.flatnonzero(np.bincount(counts)):
        rows = counts == n
        out[rows] = np.sum(packed[rows, :n], axis=1)
    return np.minimum(out, 1.0, out=out)


def _evaluate(
    weights: np.ndarray,
    values: np.ndarray,
    maps: Sequence[np.ndarray],
    sizes: Sequence[int],
    eps,
    beta: float,
    pooled: bool,
    faults=(),
    same_space: bool = True,
    one_codomain: bool = True,
) -> list:
    """BoundReports of a block of instances that share their random objects.

    Row r is the instance with outcome weights ``weights[r]`` and Z values
    ``values[r]``; object i maps outcome w to ``maps[i][w]`` among ``sizes[i]``
    codomain points.  ``pooled`` selects pooled_bound (``eps`` one float) over
    percoord_bound (``eps`` one float per object).  ``faults`` are the checks
    that building the instances runs; the bound's own checks follow them.

    Per row and object, the codomain masses and numerators of E[Z | U_i] are
    binned sums (``_binned_sums``): one ``np.bincount`` over 4096-outcome
    blocks of each row, the block sums added pairwise; a row of at most 4096
    outcomes is one block.  Each row matches the one-row call bit for bit.
    """
    rows, t = weights.shape[0], len(maps)
    faults = [
        *faults,
        (not 0.0 <= beta <= 1.0, lambda r: ParameterError(f"beta must lie in [0, 1], got {beta}")),
        (np.any((values < 0.0) | (values > 1.0), axis=1),
         lambda r: ParameterError("Z must take values in [0, 1]")),
        (not same_space, lambda r: StructuralError("all objects must share Z's sample space")),
    ]
    if pooled:
        faults += [
            (not 0.0 < eps < 1.0, lambda r: ParameterError(f"eps must lie in (0, 1), got {eps}")),
            (not one_codomain, lambda r: StructuralError("pooled bound requires one common codomain")),
        ]
    else:
        bad_eps = [e for e in eps if not 0.0 < e < 1.0]
        faults += [
            (len(eps) != t, lambda r: StructuralError("need exactly one eps per object")),
            (bool(bad_eps), lambda r: ParameterError(f"every eps must lie in (0, 1), got {bad_eps[0]}")),
        ]
    # a check that fails on every row fails on row 0 first, and nothing below
    # may run on inputs it rejects
    if any(flags for flags, _ in faults if np.ndim(flags) == 0):
        _raise_first(faults, rows)

    weighted = weights * values
    masses, conds = [], []
    for index_map, k in zip(maps, sizes):
        mass = _binned_sums(index_map, weights, k)
        num = _binned_sums(index_map, weighted, k)
        masses.append(mass)
        conds.append(np.divide(num, mass, out=np.zeros_like(num), where=mass > 0))
    if pooled:
        mismatch = np.zeros(rows, dtype=bool)
        for mass in masses[1:]:
            mismatch |= np.max(np.abs(mass - masses[0]), axis=1) > IDENTICAL_TOL
        faults.append((mismatch, lambda r: MarginalMismatchError(
            f"objects are not identically distributed within {IDENTICAL_TOL:g}; use percoord_bound")))
    for mass, cond in zip(masses, conds):
        faults += [*_weight_faults(mass), _finite_fault(cond)]
    if pooled:
        stacked = np.stack(conds, axis=1)
        # Averaging t bit-identical arrays must return the array itself, otherwise
        # the identical-inputs agreement with percoord_bound is lost to rounding.
        same = np.all(stacked == stacked[:, :1], axis=(1, 2))
        average = np.where(same[:, None], stacked[:, 0], np.sum(stacked, axis=1) / t)
        faults.append(_finite_fault(average))
    _raise_first(faults, rows)

    if pooled:
        tails = _tail_masses(masses[0], average, eps)[:, None]
        epsilons = (eps,)
        variant = "pooled-independent" if beta == 1.0 else "pooled-relaxed"
    else:
        tails = np.stack(
            [_tail_masses(m, c, e) for m, c, e in zip(masses, conds, eps)], axis=1
        )
        epsilons = tuple(eps)
        variant = "percoord-independent" if beta == 1.0 else "percoord-relaxed"
    correction = _chain_sum(epsilons * t if pooled else epsilons)
    alpha = 1.0 - beta
    reports = []
    for p, exp in zip(tails.tolist(), np.sum(weighted, axis=1).tolist()):
        terms = [alpha + beta * p[0]] * t if pooled else [alpha + beta * q for q in p]
        bound = math.prod(terms) + correction
        slack = bound - exp
        reports.append(BoundReport(
            expectation=exp,
            tail_terms=tuple(p),
            bound_value=bound,
            slack=slack,
            holds=slack >= -HOLDS_SLACK,
            variant=variant,
            beta=beta,
            epsilons=epsilons,
            t=t,
        ))
    return reports


def _object_bound(z: RandomVariable, objects: list, eps, beta: float, pooled: bool) -> BoundReport:
    if len(objects) == 0:
        raise StructuralError("need at least one random object")
    return _evaluate(
        z.domain.weights[None], z.values[None],
        [u.index_map for u in objects], [len(u.codomain) for u in objects],
        eps, beta, pooled,
        same_space=all(u.domain.same_space(z.domain) for u in objects),
        one_codomain=all(u.codomain == objects[0].codomain for u in objects),
    )[0]


def pooled_bound(
    z: RandomVariable, objects: Sequence[RandomObject], eps: float, beta: float = 1.0
) -> BoundReport:
    """Tail bound for identically distributed objects.

    With ``p`` the tail mass of the averaged conditional expectation, the bound
    is ``(alpha + beta*p)**t + t*eps`` (``alpha = 1 - beta``).  Objects whose
    marginals differ by more than 1e-12 are rejected; use ``percoord_bound``.
    """
    return _object_bound(z, list(objects), eps, beta, pooled=True)


def percoord_bound(
    z: RandomVariable,
    objects: Sequence[RandomObject],
    eps_list: Sequence[float],
    beta: float = 1.0,
) -> BoundReport:
    """Tail bound with per-object tails and epsilons.

    Bound: ``prod_i(alpha + beta * P{W_i > eps_i}) + sum_i eps_i`` (the correction
    term equals ``t * mean(eps_i)``).  Objects may have distinct codomains and
    distributions.
    """
    return _object_bound(z, list(objects), [float(e) for e in eps_list], beta, pooled=False)


def subset_sums(values: np.ndarray, nbits: int) -> np.ndarray:
    """Subset-sum (zeta) transform: out[T] = sum of values[S] over all S subseteq T.

    ``values`` is indexed by bitmask; done in nbits vectorized passes.
    """
    out = np.array(values, dtype=float)
    if out.size != 1 << nbits:
        raise StructuralError("values must have length 2**nbits")
    for b in range(nbits):
        out = out.reshape(-1, 2, 1 << b)
        out[:, 1, :] += out[:, 0, :]
    return out.reshape(-1)


def mask_int(mask) -> int:
    """A boolean row as the nonnegative int with bit v set iff ``mask[v]``, exact
    at any length (witness encoding of a set of codomain indices)."""
    row = np.packbits(np.asarray(mask, dtype=bool), bitorder="little")
    return int.from_bytes(row.tobytes(), "little")


@dataclass(frozen=True)
class IndependenceReport:
    worst_ratio: float
    witnesses: tuple
    n_single: int
    n_sampled: int
    beta: float

    @property
    def holds(self) -> bool:
        return self.worst_ratio <= 1.0 + RATIO_TOL

    def to_dict(self) -> dict:
        return {**asdict(self), "holds": self.holds}


def _grid_size_text(t: int, psi: int) -> str:
    """The number of points of a grid of t coordinates of psi values each: in
    full below 10**100, else the power of ten it reaches, which needs no huge
    integer."""
    digits = t * math.log10(psi)
    return str(psi ** t) if digits < 100 else f"at least 10**{int(digits)}"


def grid_points(t: int, psi: int) -> int:
    """psi**t, the points of the grid of t coordinates of psi values each, once
    t >= 1, psi >= 1 and the grid fits GRID_MAX_BYTES at 8t + 40 bytes a point
    (see ``_grid``).  The checks read t and psi alone: no sequence of length t
    exists before them, and psi**t only once it can fit."""
    if t < 1 or psi < 1:
        raise ParameterError("need t >= 1 and psi >= 1")
    # with psi >= 2 there are at least 2**t points, over the budget once 2**t is
    if (psi > 1 and t >= GRID_MAX_BYTES.bit_length()) or psi ** t * (8 * t + 40) > GRID_MAX_BYTES:
        raise BudgetError(
            f"a product grid of {_grid_size_text(t, psi)} outcomes over {t} "
            f"coordinates exceeds the {GRID_MAX_BYTES}-byte budget"
        )
    return psi ** t


def _grid(t: int, psi: int) -> np.ndarray:
    """Read-only coordinate columns of the grid of index tuples over t
    coordinates of psi values each, in ``itertools.product`` order: row i
    holds coordinate i of every point.

    An instance's objects share these rows as their index maps, so a grid
    point of an instance and its bound costs 8t + 40 bytes: t int64
    coordinates, its float64 weight, Z value and weight times Z, the int64 bin
    index of ``_binned_sums`` and the copy of the read-only weights that
    ``np.bincount`` makes.  ``grid_points`` checks the whole grid against
    GRID_MAX_BYTES before anything is allocated.
    """
    size = grid_points(t, psi)
    # coordinate i counts through its psi values in runs of psi**(t-1-i);
    # written through reshaped views, so any number of coordinates works
    coords = np.empty((t, size), dtype=np.int64)
    for i in range(t):
        coords[i].reshape(-1, psi, psi ** (t - 1 - i))[...] = np.arange(psi)[:, None]
    coords.setflags(write=False)
    return coords


def _grid_weights(margs: Sequence[np.ndarray]) -> np.ndarray:
    """Product weights over the grid for a block of rows: ``margs[i]`` is
    (rows, k_i), coordinate i's marginal per row.  Each weight is the product
    ``1 * m_0[c_0] * m_1[c_1] * ...`` taken left to right, and each row is then
    divided by its own ``np.sum``."""
    shape = tuple(m.shape[1] for m in margs)
    rows = margs[0].shape[0]
    weights = np.ones((rows, math.prod(shape)))
    for i, m in enumerate(margs):
        # the same runs as in _grid: a 4-d view broadcasts any number of coordinates
        view = weights.reshape(rows, -1, shape[i], math.prod(shape[i + 1:]))
        view *= m[:, None, :, None]
    weights /= np.sum(weights, axis=1, keepdims=True)
    return weights


def cube_instance(p: float, t: int) -> tuple:
    """Two-point product grid with an indicator of the all-zeros corner.

    Per coordinate the mass of 0 is ``q = p**(1/t)``, so the corner has mass p,
    each conditional takes the value ``p**(1 - 1/t)`` on a set of marginal mass
    ``q``, and the pooled bound is tight as eps -> 0.  Returns ``(z, objects)``.
    """
    if not (0.0 < p < 1.0):
        raise ParameterError(f"p must lie in (0, 1), got {p}")
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    coords = _grid(t, 2)
    q = p ** (1.0 / t)
    weights = _grid_weights([np.array((q, 1.0 - q))[None]] * t)[0]
    weights.setflags(write=False)   # read-only, so the space keeps it uncopied
    space = FiniteSpace(weights)
    z_values = np.zeros(space.size)
    z_values[0] = 1.0                   # grid point 0 is the all-zeros corner
    z_values.setflags(write=False)
    z = RandomVariable(space, z_values)
    objects = [RandomObject(space, (0, 1), c) for c in coords]
    return z, objects


def _draw_instances(seeds: Sequence[int], t: int, psi: int, identical: bool) -> tuple:
    """Grid weights and Z values, each (len(seeds), psi**t), of the random
    product instance of every seed.  Under its seed's STREAM_INSTANCE key, an
    instance draws its marginal (``identical``) or t of them, psi weights each
    from U(0.1, 1), at counters 0, 1, ..., then its Z values from U(0, 1) at the
    next psi**t counters.  All seeds of the block are drawn at once."""
    rows = 1 if identical else t
    keys = stream_keys(seeds, STREAM_INSTANCE)[:, None]
    margs = 0.1 + 0.9 * uniforms(keys, np.arange(rows * psi, dtype=np.uint64))
    margs = margs.reshape(len(seeds), rows, psi)
    values = uniforms(keys, np.arange(rows * psi, rows * psi + psi ** t, dtype=np.uint64))
    margs /= np.sum(margs, axis=2, keepdims=True)
    weights = _grid_weights([margs[:, 0 if identical else i] for i in range(t)])
    return weights, values


def random_product_instance(
    t: int, psi: int, seed: int, identical: bool = True
) -> tuple:
    """A random product space with coordinate projections and a random [0,1] variable.

    Coordinates are genuinely independent; with ``identical=True`` they share one
    marginal, otherwise each coordinate draws its own.  Returns ``(z, objects)``.
    """
    coords = _grid(t, psi)
    weights, values = _draw_instances([seed], t, psi, identical)
    weights.setflags(write=False)   # read-only, so the space and Z keep their rows uncopied
    values.setflags(write=False)
    space = FiniteSpace(weights[0])
    z = RandomVariable(space, values[0])
    objects = [RandomObject(space, tuple(range(psi)), c) for c in coords]
    return z, objects


def product_bound_sweep(
    t: int, psi: int, seeds: Sequence[int], eps, beta: float = 1.0, pooled: bool = False
) -> list:
    """For each seed, the BoundReport of ``pooled_bound(z, objects, eps, beta)``
    (``pooled``) or ``percoord_bound(z, objects, eps, beta)`` on
    ``random_product_instance(t, psi, seed, identical=pooled)``, bit for bit,
    with every check those calls run and the error the first failing instance
    would raise, but without building the instances.

    All instances share one grid.  Seeds are drawn and evaluated in blocks of
    about SWEEP_SCRATCH_BYTES: weights, values, their products and the bincount
    indices take some 40 bytes per instance and grid point.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        return []
    coords = _grid(t, psi)
    if not pooled:
        eps = [float(e) for e in eps]
    per = max(1, SWEEP_SCRATCH_BYTES // (40 * coords.shape[1]))
    maps_fault = _map_fault(coords, psi)
    reports = []
    for lo in range(0, len(seeds), per):
        weights, values = _draw_instances(seeds[lo: lo + per], t, psi, pooled)
        built = [*_weight_faults(weights), _finite_fault(values), maps_fault]
        reports += _evaluate(weights, values, coords, [psi] * t, eps, beta, pooled, built)
    return reports
