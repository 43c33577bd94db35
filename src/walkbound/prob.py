"""Finite probability spaces, conditional expectations, and tail-bound evaluators.

Everything here is desk scale: outcomes are enumerated explicitly, weights are
float64, and every quantity a bound evaluator reports can be recomputed by brute
force summation over the full outcome set.  Two bound evaluators are provided:

* ``pooled_bound``   -- identically distributed objects, one epsilon, bound
                        ``(alpha + beta * p)**t + t*eps`` where ``p`` is the tail
                        mass of the averaged conditional expectation;
* ``percoord_bound`` -- per-object tails and epsilons, bound
                        ``prod_i(alpha + beta * p_i) + t * mean(eps_i)``.

``beta = 1`` is full independence; smaller ``beta`` relaxes the product bound the
way spectral-gap arguments require (see ``walkbound.walks``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BudgetError,
    MarginalMismatchError,
    ParameterError,
    StructuralError,
)

WEIGHT_TOL = 1e-12        # allowed drift of a weight vector's total mass from 1
IDENTICAL_TOL = 1e-12     # marginal histograms closer than this count as identical
HOLDS_SLACK = 1e-9        # bound - E[Z] >= -HOLDS_SLACK counts as the bound holding
RATIO_TOL = 1e-9          # joint/product ratios up to 1 + RATIO_TOL count as bounded
EVENT_BUDGET = 2 ** 24    # exhaustive independence checks may evaluate this many events
MAX_WITNESSES = 16


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite sample space: a tuple of opaque outcomes plus float64 weights."""

    outcomes: tuple
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        if self.weights.ndim != 1 or len(self.outcomes) != self.weights.size:
            raise StructuralError("outcomes and weights must align one to one")
        if self.weights.size == 0:
            raise StructuralError("a sample space needs at least one outcome")
        if np.any(self.weights < 0.0):
            raise StructuralError("weights must be nonnegative")
        total = float(np.sum(self.weights))
        if abs(total - 1.0) > WEIGHT_TOL:
            raise StructuralError(f"weights sum to {total!r}, expected 1 within {WEIGHT_TOL}")

    @classmethod
    def uniform(cls, outcomes) -> "FiniteSpace":
        outcomes = tuple(outcomes)
        n = len(outcomes)
        if n == 0:
            raise StructuralError("a sample space needs at least one outcome")
        return cls(outcomes, np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def same_space(self, other: "FiniteSpace") -> bool:
        return self is other or (
            self.outcomes == other.outcomes and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True, eq=False)
class RandomObject:
    """A measurable map from a finite space into an explicit codomain.

    ``index_map[w]`` is the codomain index the outcome at position ``w`` maps to.
    """

    domain: FiniteSpace
    codomain: tuple
    index_map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "codomain", tuple(self.codomain))
        object.__setattr__(self, "index_map", _frozen_array(self.index_map, dtype=np.int64))
        if self.index_map.ndim != 1 or self.index_map.size != self.domain.size:
            raise StructuralError("index_map must assign exactly one codomain point per outcome")
        if len(self.codomain) == 0:
            raise StructuralError("codomain must be nonempty")
        if np.any(self.index_map < 0) or np.any(self.index_map >= len(self.codomain)):
            raise StructuralError("index_map values must index the codomain")

    def distribution(self) -> np.ndarray:
        """Pushforward weights: P{U = psi} for each codomain point, in order."""
        return np.bincount(self.index_map, weights=self.domain.weights, minlength=len(self.codomain))

    def induced_space(self) -> FiniteSpace:
        return FiniteSpace(self.codomain, self.distribution())


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A real-valued function on a finite space, stored as an aligned value array."""

    domain: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.ndim != 1 or self.values.size != self.domain.size:
            raise StructuralError("values must assign exactly one real per outcome")
        if not np.all(np.isfinite(self.values)):
            raise StructuralError("values must be finite")


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
    mass = np.bincount(u.index_map, weights=w, minlength=k)
    num = np.bincount(u.index_map, weights=w * z.values, minlength=k)
    vals = np.divide(num, mass, out=np.zeros_like(num), where=mass > 0)
    return RandomVariable(FiniteSpace(u.codomain, mass), vals)


def tail_probability(w: RandomVariable, eps: float) -> float:
    """Mass of the strict tail {w > eps} under w's own space."""
    return float(np.sum(w.domain.weights[w.values > eps]))


def _require_unit_range(z: RandomVariable) -> None:
    if np.any(z.values < 0.0) or np.any(z.values > 1.0):
        raise ParameterError("Z must take values in [0, 1]")


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
        return {
            "expectation": self.expectation,
            "tail_terms": list(self.tail_terms),
            "bound_value": self.bound_value,
            "slack": self.slack,
            "holds": self.holds,
            "variant": self.variant,
            "beta": self.beta,
            "epsilons": list(self.epsilons),
            "t": self.t,
        }


def _check_bound_inputs(z: RandomVariable, objects: Sequence[RandomObject], beta: float) -> None:
    if len(objects) == 0:
        raise StructuralError("need at least one random object")
    if not (0.0 <= beta <= 1.0):
        raise ParameterError(f"beta must lie in [0, 1], got {beta}")
    _require_unit_range(z)
    for u in objects:
        if not u.domain.same_space(z.domain):
            raise StructuralError("all objects must share Z's sample space")


def pooled_bound(
    z: RandomVariable, objects: Sequence[RandomObject], eps: float, beta: float = 1.0
) -> BoundReport:
    """Tail bound for identically distributed objects.

    With ``p`` the tail mass of the averaged conditional expectation, the bound
    is ``(alpha + beta*p)**t + t*eps`` (``alpha = 1 - beta``).  Objects whose
    marginals differ by more than 1e-12 are rejected; use ``percoord_bound``.
    """
    objects = list(objects)
    _check_bound_inputs(z, objects, beta)
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    codomain = objects[0].codomain
    for u in objects[1:]:
        if u.codomain != codomain:
            raise StructuralError("pooled bound requires one common codomain")
    dists = [u.distribution() for u in objects]
    for d in dists[1:]:
        if float(np.max(np.abs(d - dists[0]))) > IDENTICAL_TOL:
            raise MarginalMismatchError(
                "objects are not identically distributed within 1e-12; use percoord_bound"
            )
    conds = [conditional_expectation(z, u) for u in objects]
    first = conds[0].values
    # Averaging t bit-identical arrays must return the array itself, otherwise the
    # identical-inputs agreement with percoord_bound is lost to rounding.
    if all(np.array_equal(c.values, first) for c in conds[1:]):
        avg_values = first
    else:
        avg_values = np.sum(np.stack([c.values for c in conds]), axis=0) / len(conds)
    pooled = RandomVariable(conds[0].domain, avg_values)
    p = tail_probability(pooled, eps)
    t = len(objects)
    alpha = 1.0 - beta
    bound = math.prod([alpha + beta * p] * t) + _chain_sum([eps] * t)
    exp = expectation(z)
    slack = bound - exp
    return BoundReport(
        expectation=exp,
        tail_terms=(p,),
        bound_value=bound,
        slack=slack,
        holds=slack >= -HOLDS_SLACK,
        variant="pooled-independent" if beta == 1.0 else "pooled-relaxed",
        beta=beta,
        epsilons=(eps,),
        t=t,
    )


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
    objects = list(objects)
    eps_list = [float(e) for e in eps_list]
    _check_bound_inputs(z, objects, beta)
    if len(eps_list) != len(objects):
        raise StructuralError("need exactly one eps per object")
    for e in eps_list:
        if not (0.0 < e < 1.0):
            raise ParameterError(f"every eps must lie in (0, 1), got {e}")
    alpha = 1.0 - beta
    tails = tuple(
        tail_probability(conditional_expectation(z, u), e) for u, e in zip(objects, eps_list)
    )
    bound = math.prod([alpha + beta * p for p in tails]) + _chain_sum(eps_list)
    exp = expectation(z)
    slack = bound - exp
    return BoundReport(
        expectation=exp,
        tail_terms=tails,
        bound_value=bound,
        slack=slack,
        holds=slack >= -HOLDS_SLACK,
        variant="percoord-independent" if beta == 1.0 else "percoord-relaxed",
        beta=beta,
        epsilons=tuple(eps_list),
        t=len(objects),
    )


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
        return {
            "worst_ratio": self.worst_ratio,
            "witnesses": [list(w) for w in self.witnesses],
            "n_single": self.n_single,
            "n_sampled": self.n_sampled,
            "beta": self.beta,
            "holds": self.holds,
        }


def check_independence(
    objects: Sequence[RandomObject],
    beta: float,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
    budget: int = EVENT_BUDGET,
) -> IndependenceReport:
    """Measure how far a family is from beta-independence.

    For families (S_0, ..., S_{t-1}) of codomain subsets the ratio
    ``P{all U_i in S_i} / prod_i(alpha + beta * mu_i)`` is computed, with the
    0/0 convention that an empty event against a zero product counts as 0.
    ``exhaustive`` enumerates every single-set family (S_i = T for all i) and
    additionally samples ``trials`` random multi-set families; ``sampled`` does
    only the latter.  Exhaustive enumeration refuses to exceed ``budget`` event
    evaluations.
    """
    objects = list(objects)
    if len(objects) == 0:
        raise StructuralError("need at least one random object")
    if not (0.0 <= beta <= 1.0):
        raise ParameterError(f"beta must lie in [0, 1], got {beta}")
    if mode not in ("exhaustive", "sampled"):
        raise ParameterError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    domain = objects[0].domain
    codomain = objects[0].codomain
    for u in objects[1:]:
        if not u.domain.same_space(domain):
            raise StructuralError("all objects must share one sample space")
        if u.codomain != codomain:
            raise StructuralError("all objects must share one codomain")
    t = len(objects)
    k = len(codomain)
    alpha = 1.0 - beta
    dists = np.stack([u.distribution() for u in objects])
    maps = np.stack([u.index_map for u in objects])
    w = domain.weights

    worst = 0.0
    witnesses: list = []
    n_single = 0

    def _note(ratio: float, describe) -> None:
        nonlocal worst
        if ratio > worst:
            worst = ratio
        if ratio > 1.0 + RATIO_TOL and len(witnesses) < MAX_WITNESSES:
            witnesses.append((describe(), float(ratio)))

    if mode == "exhaustive":
        n_single = 1 << k
        if n_single * t > budget:
            raise BudgetError(
                f"exhaustive single-set enumeration needs {n_single * t} event "
                f"evaluations, over the budget of {budget}"
            )
        sig = np.zeros(domain.size, dtype=np.int64)
        for row in maps:
            sig |= np.int64(1) << row
        joint = subset_sums(np.bincount(sig, weights=w, minlength=n_single), k)
        masks = ((np.arange(n_single, dtype=np.int64)[:, None] >> np.arange(k)) & 1).astype(float)
        mus = masks @ dists.T                        # (2^k, t)
        prod = np.prod(alpha + beta * mus, axis=1)
        ratios = np.divide(joint, prod, out=np.zeros_like(joint), where=prod > 0)
        bad_zero = (prod == 0) & (joint > 0)
        if np.any(bad_zero):
            ratios = ratios.copy()
            ratios[bad_zero] = np.inf
        order = np.argsort(ratios)[::-1]
        for idx in order[: max(MAX_WITNESSES, 1)]:
            _note(float(ratios[idx]), lambda: ("single", int(idx)))
        worst = max(worst, float(np.max(ratios)))

    n_sampled = 0
    if trials > 0:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            fam_masks = rng.integers(0, 2, size=(t, k)).astype(bool)
            member = np.ones(domain.size, dtype=bool)
            for i in range(t):
                member &= fam_masks[i][maps[i]]
            joint = float(np.sum(w[member]))
            prod = 1.0
            for i in range(t):
                prod *= alpha + beta * float(np.sum(dists[i][fam_masks[i]]))
            if prod > 0:
                ratio = joint / prod
            else:
                ratio = 0.0 if joint == 0.0 else np.inf
            _note(ratio, lambda: ("multi", tuple(map(mask_int, fam_masks))))
            n_sampled += 1

    return IndependenceReport(
        worst_ratio=float(worst),
        witnesses=tuple(witnesses),
        n_single=n_single,
        n_sampled=n_sampled,
        beta=beta,
    )


def _product_space(margs: Sequence[np.ndarray]) -> tuple:
    """The product of the marginals ``margs`` over the grid of their index
    tuples, in ``itertools.product`` order, plus the grid's coordinate columns
    (row i holds coordinate i of every outcome).  Each weight is the product
    ``1 * m_0[c_0] * m_1[c_1] * ...`` taken left to right, then normalised."""
    shape = tuple(len(m) for m in margs)
    coords = np.indices(shape).reshape(len(shape), -1)
    weights = np.ones(coords.shape[1])
    for m, c in zip(margs, coords):
        weights = weights * m[c]
    outcomes = tuple(itertools.product(*(range(k) for k in shape)))
    return FiniteSpace(outcomes, weights / np.sum(weights)), coords


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
    q = p ** (1.0 / t)
    space, coords = _product_space([np.array((q, 1.0 - q))] * t)
    z_values = np.zeros(space.size)
    z_values[0] = 1.0                   # grid point 0 is the all-zeros corner
    z = RandomVariable(space, z_values)
    objects = [RandomObject(space, (0, 1), c) for c in coords]
    return z, objects


def random_product_instance(
    t: int, psi: int, seed: int, identical: bool = True
) -> tuple:
    """A random product space with coordinate projections and a random [0,1] variable.

    Coordinates are genuinely independent; with ``identical=True`` they share one
    marginal, otherwise each coordinate draws its own.  Returns ``(z, objects)``.
    """
    if t < 1 or psi < 1:
        raise ParameterError("need t >= 1 and psi >= 1")
    rng = np.random.default_rng(seed)
    if identical:
        m = rng.uniform(0.1, 1.0, psi)
        margs = [m / m.sum()] * t
    else:
        margs = []
        for _ in range(t):
            m = rng.uniform(0.1, 1.0, psi)
            margs.append(m / m.sum())
    space, coords = _product_space(margs)
    z = RandomVariable(space, rng.random(space.size))
    objects = [RandomObject(space, tuple(range(psi)), c) for c in coords]
    return z, objects
