"""Toy one-way-function experiments: amplification constructions and reductions.

Functions are exhaustive tables over n-bit inputs, adversaries are partial
inverters whose answers are always correct when defined, and every success
probability here can be computed exactly by enumeration.  Two amplifications are
covered: the t-fold direct power (n*t input bits) and the walk-based permutation
on the N * d**t walks, sending a walk's forward packing (start vertex plus
forward edge labels) to its reverse packing (terminal vertex plus backward edge
labels).  Both packings are integers, mixed radix in d, and live in ``walks``
(``walk_index``, ``reverse_index``); with d a power of two they are bit fields.
Each construction comes with its reduction turning an inverter for the big
function into one for the small function using exactly one inner query per call.

Oracle randomness is counter-based: query q of an oracle seeded with s reads
its own counters of s's key for that oracle's stream (``rng.words``), so
repeated trials are independent yet whole experiments replay bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import BudgetError, ParameterError, StructuralError
from .prob import _frozen_array
from .rng import (STREAM_INPUTS, STREAM_ORACLE, STREAM_PERMUTATION, STREAM_REDUCTION, integers,
                  permutation, stream_key, uniforms)
from .walks import (WALK_SCRATCH_BYTES, HybridGraph, Walk, _assemble, _digits, _pack, _replay,
                    reverse_index, reverse_indices, walk_count, walk_from_index, walk_space)

TABLE_MAX_BITS = 24        # exhaustive tables and profiles stop at 2**24 entries
QUERY_BLOCK = 4096         # queries whose draws an oracle makes at once


def _exact_log2(x: int) -> int:
    b = int(x).bit_length() - 1
    if x <= 0 or (1 << b) != x:
        raise StructuralError(f"{x} is not a power of two")
    return b


def _check_table_bits(bits: int, what: str) -> None:
    """BudgetError unless a 2**bits-entry table fits, before anything allocates it."""
    if bits < 1 or bits > TABLE_MAX_BITS:
        raise BudgetError(f"{what} length {bits} outside 1..{TABLE_MAX_BITS}")


@dataclass(frozen=True, eq=False)
class RangedTable:
    """A function table given one range at a time: ``ranges()`` yields
    ``(offset, chunk)`` pairs whose chunks tile the inputs in order, and
    ``build()`` returns the whole table as one read-only int64 array.
    ``evaluate(xs)`` is the point evaluator: the table's entries at an int64
    array of inputs, computed without the table."""

    ranges: Callable[[], Iterable]
    build: Callable[[], np.ndarray]
    evaluate: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class ToyFunction:
    """A function on n-bit strings given by its full lookup table of integers.

    ``source`` is the table as an array, or a ``RangedTable`` that builds it on
    the first read of ``table``; an array is a single range.  Construction
    streams over the ranges, dropping each chunk before the next is made:
    every chunk must hold out_bits-bit values, and the chunks must tile the
    2**n inputs.  The ``is_permutation`` flag is checked at every size: with
    2**n entries, all in range, a table is a bijection exactly when it covers
    every output, which one bool scatter of every chunk into a single mask of
    the outputs decides in O(2**n).

    ``evaluate`` and ``apply`` read points through a ranged table's point
    evaluator, so they never build ``table``.
    """

    n: int
    out_bits: int
    source: np.ndarray | RangedTable
    is_permutation: bool

    def __post_init__(self):
        _check_table_bits(self.n, "input")
        _check_table_bits(self.out_bits, "output")
        if self.is_permutation and self.out_bits != self.n:
            raise StructuralError("a permutation must be length-preserving")
        if isinstance(self.source, RangedTable):
            ranges = self.source.ranges()
        else:
            t = _frozen_array(self.source, dtype=np.int64)
            object.__setattr__(self, "source", t)
            ranges = [(0, t)]
        seen = np.zeros(1 << self.out_bits, dtype=bool) if self.is_permutation else None
        covered = 0
        for lo, chunk in ranges:
            if lo != covered or chunk.ndim != 1 or covered + chunk.size > 1 << self.n:
                raise StructuralError("table must have exactly 2**n entries")
            if chunk.size and (chunk.min() < 0 or chunk.max() >= 1 << self.out_bits):
                raise StructuralError("table values must be out_bits-bit integers")
            if seen is not None:
                seen[chunk] = True
            covered += chunk.size
            del chunk   # the next range is built without this one
        if covered != 1 << self.n:
            raise StructuralError("table must have exactly 2**n entries")
        if seen is not None and not seen.all():
            raise StructuralError("is_permutation is set but the table is not a bijection")

    @cached_property
    def table(self) -> np.ndarray:
        """The table as one read-only int64 array; a ``RangedTable`` builds it
        here, on the first read."""
        return self.source if isinstance(self.source, np.ndarray) else self.source.build()

    def evaluate(self, xs) -> np.ndarray:
        """The function at every input of ``xs``, as int64: a table lookup, or
        a ranged table's point evaluator."""
        xs = np.asarray(xs, dtype=np.int64)
        if xs.size and (xs.min() < 0 or xs.max() >= 1 << self.n):
            raise StructuralError(f"inputs must be {self.n}-bit strings")
        if isinstance(self.source, RangedTable):
            return self.source.evaluate(xs)
        return self.table[xs]

    def apply(self, x: int) -> int:
        if not (0 <= x < (1 << self.n)):
            raise StructuralError(f"input {x} is not an {self.n}-bit string")
        return int(self.evaluate([x])[0])

    def canonical_preimages(self) -> np.ndarray:
        """Per output point, the smallest preimage, or -1 where there is none."""
        cached = getattr(self, "_pre", None)
        if cached is None:
            pre = np.full(1 << self.out_bits, -1, dtype=np.int64)
            xs = np.arange((1 << self.n) - 1, -1, -1, dtype=np.int64)
            pre[self.table[xs]] = xs
            pre.setflags(write=False)
            object.__setattr__(self, "_pre", pre)
            cached = pre
        return cached


def identity_function(n: int) -> ToyFunction:
    _check_table_bits(n, "input")
    return ToyFunction(n, n, np.arange(1 << n, dtype=np.int64), True)


def random_permutation(n: int, seed: int) -> ToyFunction:
    """A uniformly random permutation of the n-bit strings, under the seed's
    STREAM_PERMUTATION key (``rng.permutation``)."""
    _check_table_bits(n, "input")
    return ToyFunction(n, n, permutation(stream_key(seed, STREAM_PERMUTATION), 1 << n), True)


def vertex_function(g: HybridGraph) -> ToyFunction:
    """The hybrid graph's vertex permutation as a function on packed vertices."""
    n = _exact_log2(g.n_vertices)
    return ToyFunction(n, n, g.perm, True)


def image_distribution(func: ToyFunction) -> np.ndarray:
    """Distribution of func(x) for uniform x, indexed by output value.

    A permutation (its flag is checked at construction) is uniform: 2**-n on
    every output, with no pass over the table.  Otherwise 2**-n is added once
    per input in place; every partial sum k * 2**-n is exact, so this equals
    the counts divided by 2**n bit for bit, with one float64 array and no
    integer counts or index copy beside it.  On a permutation that sum is one
    addition to 0.0 per output, so the two paths agree bit for bit.
    """
    if func.is_permutation:
        return np.full(1 << func.n, 2.0 ** -func.n)
    dist = np.zeros(1 << func.out_bits)
    np.add.at(dist, func.table, 2.0 ** -func.n)
    return dist


def planted_profile(func: ToyFunction, delta: float) -> np.ndarray:
    """Success 1 on the smallest (1-delta) fraction of image points, 0 elsewhere.

    With (1-delta)*|image| integral the best achievable success is exactly
    1 - delta on a permutation.
    """
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    seen = np.zeros(1 << func.out_bits, dtype=bool)
    seen[func.table] = True
    img = np.flatnonzero(seen)
    k = round((1.0 - delta) * img.size)
    prof = np.zeros(1 << func.out_bits)
    prof[img[:k]] = 1.0
    return prof


class _QueryDraws:
    """The draws of an oracle's queries: ``draw(queries)`` maps an int64 array
    of query numbers to one row of draws per query, a function of the query
    number alone.  ``row(q)`` returns query q's row as Python numbers; the rows
    of QUERY_BLOCK consecutive queries are drawn at once, which only saves
    numpy calls."""

    def __init__(self, draw: Callable[[np.ndarray], np.ndarray]):
        self._draw = draw
        self._lo, self._rows = -1, []

    def row(self, q: int):
        lo = q - q % QUERY_BLOCK
        if lo != self._lo:
            self._rows = self._draw(np.arange(lo, lo + QUERY_BLOCK)).tolist()
            self._lo = lo
        return self._rows[q - lo]


class Inverter:
    """Partial inverter for a target function: defined answers are always correct.

    ``cost`` is the modeled time per call (inner queries and function
    evaluations each count 1); ``query_count`` advances per call and keys the
    per-query randomness.
    """

    def __init__(self, func: ToyFunction, cost: float):
        self.func = func
        self.cost = float(cost)
        self.query_count = 0
        self._runs = None
        self._profile = None

    def invert(self, y: int) -> Optional[int]:
        raise NotImplementedError

    def success_runs(self) -> tuple:
        """``(values, run)``: the exact success profile with one value per run
        of ``run`` consecutive output points, so ``values[y // run]`` is the
        success probability at y.  ``run`` is read off the data: the output
        count over ``values.size``.  Computed on the first call, then the same
        read-only array every time."""
        if self._runs is None:
            values = self._exact_profile()
            values.setflags(write=False)
            self._runs = (values, (1 << self.func.out_bits) // values.size)
        return self._runs

    def success_profile(self) -> np.ndarray:
        """Exact per-output-point success probability, indexed by output value:
        the runs repeated out to one value per point on the first call, then
        the same read-only array every time."""
        if self._profile is None:
            values, run = self.success_runs()
            if run > 1:
                values = np.repeat(values, run)
                values.setflags(write=False)
            self._profile = values
        return self._profile

    def _exact_profile(self) -> np.ndarray:
        """The success values behind ``success_runs``, one per run."""
        raise NotImplementedError


class AdversaryOracle(Inverter):
    """Profile-driven inverter: succeeds on y with its configured probability and
    then returns the canonical (smallest) preimage."""

    def __init__(self, func: ToyFunction, profile: np.ndarray, seed: int, cost: float = 1.0):
        super().__init__(func, cost)
        profile = _frozen_array(profile)   # a writable profile is copied
        if profile.shape != (1 << func.out_bits,):
            raise StructuralError("profile must assign one probability per output point")
        if np.any(profile < 0.0) or np.any(profile > 1.0):
            raise ParameterError("profile values must lie in [0, 1]")
        self.profile = profile
        self.seed = int(seed)
        key = stream_key(self.seed, STREAM_ORACLE)
        self._coins = _QueryDraws(lambda qs: uniforms(key, qs))

    def invert(self, y: int) -> Optional[int]:
        q = self.query_count
        self.query_count += 1
        if self._coins.row(q) < self.profile[y]:
            x = int(self.func.canonical_preimages()[y])
            if x >= 0:
                return x
        return None

    def _exact_profile(self) -> np.ndarray:
        return np.where(self.func.canonical_preimages() >= 0, self.profile, 0.0)


class RepeatedInverter(Inverter):
    """k independent runs of an inner inverter; first verified answer wins."""

    def __init__(self, inner: Inverter, k: int):
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        super().__init__(inner.func, k * inner.cost)
        self.inner = inner
        self.k = k

    def invert(self, y: int) -> Optional[int]:
        self.query_count += 1
        answers = [self.inner.invert(y) for _ in range(self.k)]
        for x in answers:
            if x is not None and self.func.apply(x) == y:
                return x
        return None

    def _exact_profile(self) -> np.ndarray:
        w = self.inner.success_profile()
        return 1.0 - (1.0 - w) ** self.k


def repeat_amplify(inner: Inverter, k: int) -> RepeatedInverter:
    """Pointwise success moves from w to 1 - (1-w)**k; modeled cost scales by k."""
    return RepeatedInverter(inner, k)


def direct_power(func: ToyFunction, t: int) -> ToyFunction:
    """The t-fold parallel application, block 0 in the most significant bits.

    One point evaluator serves every read: an input splits into its t blocks
    of n bits, each is looked up in the base table, and the outputs are
    recombined.  The ranges are that evaluator on consecutive inputs, as many
    per range as fit WALK_SCRATCH_BYTES at 32 bytes per input (the inputs,
    the outputs, one block and its lookup, all int64).  The checks stream over
    those ranges, and the whole table is put together from them on its first
    read; no power of fewer blocks is ever tabulated.
    """
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    n, bits = func.n, func.out_bits
    if n * t > TABLE_MAX_BITS:
        raise BudgetError(f"power table needs {n * t} input bits, over {TABLE_MAX_BITS}")
    base, size = func.table, 1 << (n * t)

    def fill(xs, out, block, looked):
        for j in range(t):
            np.right_shift(xs, n * (t - 1 - j), out=block)
            block &= (1 << n) - 1
            # take(mode="clip") writes into ``out`` without a buffer; blocks never clip
            np.take(base, block, out=looked if j else out, mode="clip")
            if j:
                out <<= bits
                out |= looked
        return out

    def evaluate(xs):
        return fill(xs, *(np.empty_like(xs) for _ in range(3)))

    step = min(size, WALK_SCRATCH_BYTES // 32)

    def ranges(out=None):
        # one set of scratch arrays for every range, the inputs advanced in place
        xs = np.arange(step, dtype=np.int64)
        block, looked = np.empty_like(xs), np.empty_like(xs)
        for lo in range(0, size, step):
            place = np.empty_like(xs) if out is None else out[lo: lo + step]
            yield lo, fill(xs, place, block, looked)
            del place   # the next range is built without this one
            xs += step

    return ToyFunction(n * t, bits * t, RangedTable(ranges, lambda: _assemble(ranges, size), evaluate),
                       func.is_permutation)


def conditioned_reverse_index(
    g: HybridGraph, t: int, i: int, y: int, fwd_labels: Sequence[int], prefix_labels: Sequence[int]
) -> int:
    """Reverse packing of a walk conditioned to visit y at position i.

    The suffix (steps i+1..t) is realized by walking forward from y along
    ``fwd_labels`` (t-i of them); the prefix contributes ``prefix_labels`` (i of
    them) directly as the low backward labels.  Ranging over all label choices
    this hits every walk with position i equal to y exactly once, and only
    forward evaluations of the permutation are used.
    """
    if not (1 <= i <= t):
        raise ParameterError(f"position must lie in 1..t, got {i}")
    fwd_labels = [int(j) for j in fwd_labels]
    prefix_labels = [int(j) for j in prefix_labels]
    if len(fwd_labels) != t - i or len(prefix_labels) != i:
        raise StructuralError("need t-i forward labels and i prefix labels")
    suffix = Walk(_replay(g, y, fwd_labels), fwd_labels)
    return reverse_index(g, suffix) * g.d ** i + _pack(g, 0, prefix_labels)


def walk_permutation(g: HybridGraph, t: int) -> ToyFunction:
    """The permutation on the N * d**t walk packings sending a walk's forward
    packing to its reverse packing.  Needs a power-of-two walk count; identity
    at t = 0.

    Its checks stream over the walk space's ``reverse_ranges``, so building it
    holds no 2**n table.  Points are evaluated through the walk codec
    (``reverse_indices``); its ``table``, built only when read whole, is the
    walk space's shared ``reverse``.
    """
    bits = _exact_log2(walk_count(g, t))
    if bits > TABLE_MAX_BITS:
        raise BudgetError(f"walk permutation needs {bits} bits, over {TABLE_MAX_BITS}")
    space = walk_space(g, t)
    return ToyFunction(bits, bits, RangedTable(space.reverse_ranges, lambda: space.reverse,
                                               lambda xs: reverse_indices(g, t, xs)), True)


class BlockwiseInverter(Inverter):
    """Attacks the direct power by inverting every block with the base inverter."""

    def __init__(self, base: Inverter, t: int, power: Optional[ToyFunction] = None):
        if t < 1:
            raise ParameterError(f"t must be >= 1, got {t}")
        if power is None:
            power = direct_power(base.func, t)
        super().__init__(power, t * base.cost)
        self.base = base
        self.t = t

    def invert(self, y: int) -> Optional[int]:
        self.query_count += 1
        ob = self.base.func.out_bits
        nb = self.base.func.n
        parts = []
        for j in range(self.t):
            block = (y >> (ob * (self.t - 1 - j))) & ((1 << ob) - 1)
            x = self.base.invert(block)
            if x is None:
                return None
            parts.append(x)
        out = 0
        for x in parts:
            out = (out << nb) | x
        return out

    def _exact_profile(self) -> np.ndarray:
        if self.base.func.out_bits * self.t > TABLE_MAX_BITS:
            raise BudgetError("blockwise profile too large to materialize")
        prof = self.base.success_profile()
        out = prof
        for _ in range(self.t - 1):
            out = np.multiply.outer(out, prof).reshape(-1)
        return out


class WalkChainInverter(Inverter):
    """Attacks the walk permutation by undoing one step at a time: invert the
    current vertex with the base inverter, then rotate along the backward label."""

    def __init__(self, base: Inverter, g: HybridGraph, t: int, permutation: Optional[ToyFunction] = None):
        if t < 1:
            raise ParameterError(f"t must be >= 1, got {t}")
        if permutation is None:
            permutation = walk_permutation(g, t)
        super().__init__(permutation, t * base.cost)
        self.base = base
        self.g = g
        self.t = t

    def invert(self, y: int) -> Optional[int]:
        self.query_count += 1
        cur, back = _digits(self.g, self.t, y)
        fwd = []
        for k in back:
            v = self.base.invert(cur)
            if v is None:
                return None
            cur, j = self.g.rot.rotate(v, k)
            fwd.append(j)
        return _pack(self.g, cur, fwd[::-1])

    def _exact_profile(self) -> np.ndarray:
        """Per run of d reverse packings, the product of the base profile at
        the vertices the chain queries, v_t first: the walk space's path
        products, already in output order.  The chain never queries the start
        vertex, so the d packings that differ only in b_1 share one value."""
        return walk_space(self.g, self.t).path_products(self.base.success_profile())


class ReducedDirectInverter(Inverter):
    """Inverter for the base function built from a direct-power inverter.

    Per call: pick a uniform block position, plant y there, fill the other
    blocks with images of fresh uniform inputs, make exactly one inner query,
    verify every block, and return the planted block's preimage.
    """

    def __init__(self, inner: Inverter, func: ToyFunction, t: int, seed: int):
        if t < 1:
            raise ParameterError(f"t must be >= 1, got {t}")
        if inner.func.n != func.n * t or inner.func.out_bits != func.out_bits * t:
            raise StructuralError("inner inverter does not match the t-fold power")
        super().__init__(func, inner.cost + 2 * t - 1)
        self.inner = inner
        self.t = t
        self.seed = int(seed)
        key = stream_key(self.seed, STREAM_REDUCTION)

        def draw(qs):
            # query q: its position at counter q*(t+1), its t filler inputs after it
            counters = qs[:, None] * (t + 1) + np.arange(1, t + 1)
            fillers = func.evaluate(integers(key, counters, 1 << func.n))
            return np.column_stack([integers(key, qs * (t + 1), t), fillers])

        self._draws = _QueryDraws(draw)

    def invert(self, y: int) -> Optional[int]:
        q = self.query_count
        self.query_count += 1
        t, func = self.t, self.func
        i, *ys = self._draws.row(q)
        ys[i] = y
        yvec = 0
        for v in ys:
            yvec = (yvec << func.out_bits) | v
        ans = self.inner.invert(yvec)
        if ans is None:
            return None
        parts = [(ans >> (func.n * (t - 1 - j))) & ((1 << func.n) - 1) for j in range(t)]
        if func.evaluate(parts).tolist() != ys:
            return None
        return int(parts[i])

    def _exact_profile(self) -> np.ndarray:
        """Exact per-point success: average over the planted position of the inner
        profile contracted against the image distribution in the other blocks."""
        t = self.t
        k = 1 << self.func.out_bits
        if t * (k ** t) > 1 << TABLE_MAX_BITS:
            raise BudgetError("exact reduced profile too large")
        inner = self.inner.success_profile().reshape((k,) * t)
        img = image_distribution(self.func)
        acc = np.zeros(k)
        for i in range(t):
            cur = inner
            for axis in range(t - 1, -1, -1):
                if axis == i:
                    continue
                cur = np.tensordot(cur, img, axes=([axis], [0]))
            acc += cur.reshape(k)
        return acc / t


class ReducedWalkInverter(Inverter):
    """Inverter for the vertex permutation built from a walk-permutation inverter.

    Per call: pick a uniform position i in 1..t-1, build the reverse packing of a
    uniform walk conditioned to visit y at position i (forward evaluations only),
    make exactly one inner query, verify by replaying the answer, and return the
    pre-permutation neighbor whose image is y.
    """

    def __init__(self, inner: Inverter, g: HybridGraph, t: int, seed: int):
        if t < 2:
            raise ParameterError(f"t must be >= 2, got {t}")
        if inner.func.n != _exact_log2(walk_count(g, t)):
            raise StructuralError("inner inverter does not match the walk permutation")
        super().__init__(vertex_function(g), inner.cost + 2 * t - 1)
        self.inner = inner
        self.g = g
        self.t = t
        self.seed = int(seed)
        key = stream_key(self.seed, STREAM_REDUCTION)

        def draw(qs):
            # query q: its position at counter q*(t+1), its t labels after it
            labels = integers(key, qs[:, None] * (t + 1) + np.arange(1, t + 1), g.d)
            return np.column_stack([1 + integers(key, qs * (t + 1), t - 1), labels])

        self._draws = _QueryDraws(draw)

    def invert(self, y: int) -> Optional[int]:
        q = self.query_count
        self.query_count += 1
        g, t = self.g, self.t
        i, *labels = self._draws.row(q)
        fwd, prefix = labels[:t - i], labels[t - i:]
        packed = conditioned_reverse_index(g, t, i, y, fwd, prefix)
        ans = self.inner.invert(packed)
        if ans is None:
            return None
        try:
            walk = walk_from_index(g, t, ans)
        except StructuralError:
            return None
        if reverse_index(g, walk) != packed:
            return None
        return int(g.rot.neighbors[walk.vertices[i - 1], walk.labels[i - 1]])

    def _exact_profile(self) -> np.ndarray:
        """Exact per-vertex success: average over positions 1..t-1 of the inner
        profile conditioned on the walk visiting the vertex there.  The inner
        profile enters as its runs, none of whose walks differ at an interior
        position; the N sums are then scaled by the run length, a power of
        two, which is exact, so no run-scaled copy of the profile is made."""
        g, t = self.g, self.t
        values, run = self.inner.success_runs()
        visits = walk_space(g, t).interior_visits(values) * run
        return visits / ((t - 1) * g.d ** t)   # d**t walks visit each vertex at each position


def reduce_direct(inner: Inverter, func: ToyFunction, t: int, seed: int) -> ReducedDirectInverter:
    return ReducedDirectInverter(inner, func, t, seed)


def reduce_walk(inner: Inverter, g: HybridGraph, t: int, seed: int) -> ReducedWalkInverter:
    return ReducedWalkInverter(inner, g, t, seed)


@dataclass(frozen=True)
class SecurityEstimate:
    """Modeled time over success probability; infinite when nothing succeeds."""

    time_cost: float
    success: float
    security: float
    unbounded: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "security": None if self.unbounded else self.security}


@dataclass(frozen=True, eq=False)
class InversionReport:
    mode: str
    success: float
    trials: int
    soundness_violations: int
    security: SecurityEstimate

    def to_dict(self) -> dict:
        return {**asdict(self), "security": self.security.to_dict()}


def measure_inversion(
    func: ToyFunction,
    oracle: Inverter,
    mode: str = "exact",
    trials: int = 10_000,
    seed: int = 0,
) -> InversionReport:
    """Success probability of inverting func(x) for uniform x.

    ``exact`` integrates the oracle's success profile against the image
    distribution.  For a permutation (its flag is checked at construction)
    that is uniform, so the success is the sum of the profile's runs times the
    run length times 2**-n (both exact scalings): the runs are never expanded
    and no 2**n array sits beside them, nor is ``func.table`` read, so a
    ranged table stays unbuilt.  Otherwise the expanded profile is dotted with
    the image distribution.

    ``mc`` draws all ``trials`` inputs at once, trial q's at counter q of the
    seed's STREAM_INPUTS key, and maps them with one
    ``func.evaluate`` call, then queries the live oracle once per trial, in
    draw order.  Its answers go into a preallocated int64 array, and every
    defined one is checked after the loop, with one ``evaluate`` call per
    4096 answers so that no full-length copy is made: a wrong preimage, or one
    outside the domain, is a soundness violation.  A ranged table's point
    evaluator does both maps, so ``func.table`` is never read.
    """
    if mode not in ("exact", "mc"):
        raise ParameterError(f"mode must be 'exact' or 'mc', got {mode!r}")
    violations = 0
    if mode == "exact":
        if func.is_permutation:
            values, run = oracle.success_runs()
            success = float(np.sum(values)) * run * 2.0 ** -func.n
        else:
            success = float(image_distribution(func) @ oracle.success_profile())
        n_trials = 1 << func.n
    else:
        if trials < 1:
            raise ParameterError(f"trials must be >= 1, got {trials}")
        key = stream_key(seed, STREAM_INPUTS)
        ys = func.evaluate(integers(key, np.arange(trials), 1 << func.n))
        answers = np.full(trials, -1, dtype=np.int64)   # -1: no answer
        for q in range(trials):
            v = oracle.invert(int(ys[q]))
            if v is None:
                continue
            if 0 <= v < 1 << func.n:
                answers[q] = v
            else:
                violations += 1   # an answer off the domain is no preimage
        hits = defined = 0
        for lo in range(0, trials, 4096):   # 4096 answers at a time: no full-length copies
            part = answers[lo: lo + 4096]
            mask = part >= 0
            hits += int(np.count_nonzero(func.evaluate(part[mask]) == ys[lo: lo + 4096][mask]))
            defined += int(np.count_nonzero(mask))
        violations += defined - hits
        success = hits / trials
        n_trials = trials
    unbounded = success <= 0.0
    security = SecurityEstimate(
        time_cost=oracle.cost,
        success=success,
        security=math.inf if unbounded else oracle.cost / success,
        unbounded=unbounded,
    )
    return InversionReport(
        mode=mode,
        success=success,
        trials=n_trials,
        soundness_violations=violations,
        security=security,
    )


@dataclass(frozen=True)
class EnvelopeReport:
    envelope_excess: float
    dominance_excess: Optional[float]
    dominance_applicable: bool
    points: int
    tol: float

    @property
    def holds(self) -> bool:
        if self.envelope_excess > self.tol:
            return False
        return self.dominance_excess is None or self.dominance_excess <= self.tol

    def to_dict(self) -> dict:
        return {**asdict(self), "holds": self.holds}


def envelope_check(
    beta: float,
    t: int,
    xs: np.ndarray,
    deltas: Optional[np.ndarray] = None,
    tol: float = 1e-12,
) -> EnvelopeReport:
    """Verify ``(1 - beta*x)**t <= max(1 - (1 - 1/e)*beta*t*x, 1/e)`` on a grid,
    and, when beta*t >= 7, the consequence ``(1 - beta*d/2)**t <= max(1 - 2d, 1/2)``
    on a delta grid (default 0.01..0.5)."""
    if not (0.0 < beta <= 1.0):
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    xs = np.asarray(xs, dtype=float)
    f = (1.0 - beta * xs) ** t
    env = np.maximum(1.0 - (1.0 - math.exp(-1.0)) * beta * t * xs, math.exp(-1.0))
    env_excess = float(np.max(f - env))
    applicable = beta * t >= 7.0
    dom_excess = None
    points = xs.size
    if applicable:
        if deltas is None:
            deltas = np.linspace(0.01, 0.5, 1000)
        deltas = np.asarray(deltas, dtype=float)
        lhs = (1.0 - beta * deltas / 2.0) ** t
        rhs = np.maximum(1.0 - 2.0 * deltas, 0.5)
        dom_excess = float(np.max(lhs - rhs))
        points += deltas.size
    return EnvelopeReport(
        envelope_excess=env_excess,
        dominance_excess=dom_excess,
        dominance_applicable=applicable,
        points=points,
        tol=tol,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one amplification experiment; JSON field names match exactly."""

    n: int
    t: int
    k: int
    delta: float
    eps: float
    seed: int
    mode: str
    trials: int
    m: Optional[int] = None

    def __post_init__(self):
        if self.n < 1 or self.t < 1 or self.k < 1:
            raise ParameterError("n, t, k must be >= 1")
        if not (0.0 < self.delta < 1.0):
            raise ParameterError(f"delta must lie in (0, 1), got {self.delta}")
        if not (0.0 < self.eps < 1.0):
            raise ParameterError(f"eps must lie in (0, 1), got {self.eps}")
        if self.mode not in ("exact", "mc"):
            raise ParameterError(f"mode must be 'exact' or 'mc', got {self.mode!r}")
        if self.trials < 0 or self.seed < 0:
            raise ParameterError("trials and seed must be >= 0")
        if self.m is not None and self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")

    def to_dict(self) -> dict:
        return asdict(self)
