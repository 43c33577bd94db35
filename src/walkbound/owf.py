"""Toy one-way-function experiments: amplification constructions and reductions.

Functions are exhaustive tables over n-bit inputs, adversaries are partial
inverters whose answers are always correct when defined, and every success
probability here can be computed exactly by enumeration.  Two amplifications are
covered: the t-fold direct power (n*t input bits) and the walk-based permutation
over (n + t*e)-bit strings, where a walk is packed as start vertex plus forward
edge labels and relabeled as terminal vertex plus backward edge labels.  Each
comes with its reduction turning an inverter for the big function into one for
the small function using exactly one inner query per call.

Oracle randomness is counter-based: query q of an oracle seeded with s draws
from a generator keyed by (s, q), so repeated trials are independent yet whole
experiments replay bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, ParameterError, StructuralError
from .prob import _frozen_array
from .walks import HybridGraph, Walk, validate_walk, walk_space

TABLE_MAX_BITS = 24        # exhaustive tables and profiles stop at 2**24 entries
VALIDATE_PERM_MAX = 20     # permutation flags are checked exhaustively up to this n


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
class ToyFunction:
    """A function on n-bit strings stored as a full lookup table of integers."""

    n: int
    out_bits: int
    table: np.ndarray
    is_permutation: bool

    def __post_init__(self):
        _check_table_bits(self.n, "input")
        _check_table_bits(self.out_bits, "output")
        t = np.asarray(self.table)
        if t.dtype != np.int64 or t.flags.writeable:   # read-only int64 tables are shared
            t = _frozen_array(t, dtype=np.int64)
        object.__setattr__(self, "table", t)
        if t.shape != (1 << self.n,):
            raise StructuralError("table must have exactly 2**n entries")
        if np.any(t < 0) or np.any(t >= (1 << self.out_bits)):
            raise StructuralError("table values must be out_bits-bit integers")
        if self.is_permutation:
            if self.out_bits != self.n:
                raise StructuralError("a permutation must be length-preserving")
            if self.n <= VALIDATE_PERM_MAX and not np.array_equal(
                np.sort(t), np.arange(1 << self.n)
            ):
                raise StructuralError("is_permutation is set but the table is not a bijection")

    def apply(self, x: int) -> int:
        if not (0 <= x < (1 << self.n)):
            raise StructuralError(f"input {x} is not an {self.n}-bit string")
        return int(self.table[x])

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
    _check_table_bits(n, "input")
    return ToyFunction(n, n, np.random.default_rng(seed).permutation(1 << n), True)


def vertex_function(g: HybridGraph) -> ToyFunction:
    """The hybrid graph's vertex permutation as a function on packed vertices."""
    n = _exact_log2(g.n_vertices)
    return ToyFunction(n, n, g.perm, True)


def image_distribution(func: ToyFunction) -> np.ndarray:
    """Distribution of func(x) for uniform x, indexed by output value."""
    return np.bincount(func.table, minlength=1 << func.out_bits) / (1 << func.n)


def planted_profile(func: ToyFunction, delta: float) -> np.ndarray:
    """Success 1 on the smallest (1-delta) fraction of image points, 0 elsewhere.

    With (1-delta)*|image| integral the best achievable success is exactly
    1 - delta on a permutation.
    """
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    img = np.unique(func.table)
    k = round((1.0 - delta) * img.size)
    prof = np.zeros(1 << func.out_bits)
    prof[img[:k]] = 1.0
    return prof


def _query_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
        self._profile = None

    def invert(self, y: int) -> Optional[int]:
        raise NotImplementedError

    def success_profile(self) -> np.ndarray:
        """Exact per-output-point success probability, indexed by output value;
        computed on the first call, then the same read-only array every time."""
        if self._profile is None:
            self._profile = self._exact_profile()
            self._profile.setflags(write=False)
        return self._profile

    def _exact_profile(self) -> np.ndarray:
        raise NotImplementedError


class AdversaryOracle(Inverter):
    """Profile-driven inverter: succeeds on y with its configured probability and
    then returns the canonical (smallest) preimage."""

    def __init__(self, func: ToyFunction, profile: np.ndarray, seed: int, cost: float = 1.0):
        super().__init__(func, cost)
        profile = _frozen_array(profile)   # a copy: the caller's array may change
        if profile.shape != (1 << func.out_bits,):
            raise StructuralError("profile must assign one probability per output point")
        if np.any(profile < 0.0) or np.any(profile > 1.0):
            raise ParameterError("profile values must lie in [0, 1]")
        self.profile = profile
        self.seed = int(seed)

    def invert(self, y: int) -> Optional[int]:
        q = self.query_count
        self.query_count += 1
        if _query_rng(self.seed, q).random() < self.profile[y]:
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
            if x is not None and int(self.func.table[x]) == y:
                return x
        return None

    def _exact_profile(self) -> np.ndarray:
        w = self.inner.success_profile()
        return 1.0 - (1.0 - w) ** self.k


def repeat_amplify(inner: Inverter, k: int) -> RepeatedInverter:
    """Pointwise success moves from w to 1 - (1-w)**k; modeled cost scales by k."""
    return RepeatedInverter(inner, k)


def direct_power(func: ToyFunction, t: int) -> ToyFunction:
    """The t-fold parallel application, block 0 in the most significant bits."""
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    if func.n * t > TABLE_MAX_BITS:
        raise BudgetError(f"power table needs {func.n * t} input bits, over {TABLE_MAX_BITS}")
    idx = np.arange(1 << (func.n * t), dtype=np.int64)
    out = np.zeros_like(idx)
    in_mask = (1 << func.n) - 1
    for j in range(t):
        block = (idx >> (func.n * (t - 1 - j))) & in_mask
        out = (out << func.out_bits) | func.table[block]
    return ToyFunction(func.n * t, func.out_bits * t, out, func.is_permutation)


def pad_extend(func: ToyFunction, tau: Sequence[int], n_target: int) -> ToyFunction:
    """Extend a single-length function to length n_target along a schedule.

    ``tau`` is the strictly increasing list of defined input lengths; the largest
    entry <= n_target must be func's own length.  The extension splits x into
    x'z with |x'| = func.n and maps it to func(x')z, preserving bijectivity.
    """
    tau = [int(v) for v in tau]
    if any(b <= a for a, b in zip(tau, tau[1:])):
        raise StructuralError("tau must be strictly increasing")
    eligible = [v for v in tau if v <= n_target]
    if not eligible:
        raise ParameterError(f"no schedule length fits under n_target={n_target}")
    base_len = eligible[-1]
    if base_len != func.n:
        raise StructuralError(
            f"schedule selects length {base_len} but the function has length {func.n}"
        )
    pad = n_target - func.n
    if n_target > TABLE_MAX_BITS:
        raise BudgetError(f"target length {n_target} over {TABLE_MAX_BITS}")
    idx = np.arange(1 << n_target, dtype=np.int64)
    z = idx & ((1 << pad) - 1) if pad else np.zeros_like(idx)
    xp = idx >> pad
    table = (func.table[xp] << pad) | z
    return ToyFunction(
        n_target,
        func.out_bits + pad,
        table,
        func.is_permutation and func.out_bits == func.n,
    )


@dataclass(frozen=True)
class WalkRepr:
    """A walk packed into n + t*e bits: vertex first (most significant), then the
    edge labels in walk order, e bits each."""

    vertex: int
    labels: tuple
    vertex_bits: int
    label_bits: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))
        if not (0 <= self.vertex < (1 << self.vertex_bits)):
            raise StructuralError("vertex does not fit the vertex field")
        for lab in self.labels:
            if not (0 <= lab < (1 << self.label_bits)):
                raise StructuralError("label does not fit the label field")

    @property
    def n_bits(self) -> int:
        return self.vertex_bits + len(self.labels) * self.label_bits

    def to_int(self) -> int:
        value = int(self.vertex)
        for lab in self.labels:
            value = (value << self.label_bits) | lab
        return value

    def bit_string(self) -> str:
        return format(self.to_int(), f"0{self.n_bits}b")

    @classmethod
    def from_int(cls, value: int, t: int, vertex_bits: int, label_bits: int) -> "WalkRepr":
        if not (0 <= value < (1 << (vertex_bits + t * label_bits))):
            raise StructuralError("packed value out of range")
        labels = []
        for _ in range(t):
            labels.append(value & ((1 << label_bits) - 1))
            value >>= label_bits
        labels.reverse()
        return cls(value, tuple(labels), vertex_bits, label_bits)


def _graph_bits(g: HybridGraph) -> tuple:
    return _exact_log2(g.n_vertices), _exact_log2(g.d)


def forward_repr(g: HybridGraph, w: Walk) -> WalkRepr:
    """Pack a walk as start vertex plus its forward labels."""
    validate_walk(g, w)
    vb, lb = _graph_bits(g)
    return WalkRepr(w.vertices[0], w.labels, vb, lb)


def forward_inv(g: HybridGraph, r: WalkRepr) -> Walk:
    """Replay the labels from the packed start vertex; inverse of forward_repr."""
    vb, lb = _graph_bits(g)
    if r.vertex_bits != vb or r.label_bits != lb:
        raise StructuralError("representation geometry does not match the graph")
    cur = r.vertex
    vertices = [cur]
    for j in r.labels:
        if j >= g.d:
            raise StructuralError(f"label {j} is not an edge slot")
        cur = g.step(cur, j)
        vertices.append(cur)
    return Walk(tuple(vertices), r.labels)


def reverse_repr(g: HybridGraph, w: Walk) -> WalkRepr:
    """Pack a walk as terminal vertex plus backward labels, last step first.

    The backward label of a step u -> F(rot(u, j)) is the rotation's back label
    at u, which recovers (u, j) from the step's far end once F is undone.
    """
    validate_walk(g, w)
    vb, lb = _graph_bits(g)
    back = [
        int(g.rot.back_labels[w.vertices[s], w.labels[s]]) for s in range(w.t)
    ]
    return WalkRepr(w.vertices[-1], tuple(reversed(back)), vb, lb)


def conditioned_reverse_repr(
    g: HybridGraph, t: int, i: int, y: int, fwd_labels: Sequence[int], prefix_labels: Sequence[int]
) -> WalkRepr:
    """Reverse representation of a walk conditioned to visit y at position i.

    The suffix (steps i+1..t) is realized by walking forward from y along
    ``fwd_labels`` (t-i of them); the prefix contributes ``prefix_labels`` (i of
    them) directly as backward labels.  Ranging over all label choices this hits
    every walk with position i equal to y exactly once, and only forward
    evaluations of the permutation are used.
    """
    if not (1 <= i <= t):
        raise ParameterError(f"position must lie in 1..t, got {i}")
    fwd_labels = [int(j) for j in fwd_labels]
    prefix_labels = [int(j) for j in prefix_labels]
    if len(fwd_labels) != t - i or len(prefix_labels) != i:
        raise StructuralError("need t-i forward labels and i prefix labels")
    vb, lb = _graph_bits(g)
    cur = y
    back = []
    for j in fwd_labels:
        if not (0 <= j < g.d):
            raise StructuralError(f"label {j} is not an edge slot")
        back.append(int(g.rot.back_labels[cur, j]))
        cur = g.step(cur, j)
    return WalkRepr(cur, tuple(reversed(back)) + tuple(prefix_labels), vb, lb)


def walk_permutation(g: HybridGraph, t: int) -> ToyFunction:
    """The (n + t*e)-bit permutation sending a walk's forward packing to its
    reverse packing, sharing the walk space's table.  Identity at t = 0."""
    vb, lb = _graph_bits(g)
    bits = vb + t * lb
    if bits > TABLE_MAX_BITS:
        raise BudgetError(f"walk permutation needs {bits} bits, over {TABLE_MAX_BITS}")
    return ToyFunction(bits, bits, walk_space(g, t).reverse, True)


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
        vb, lb = _graph_bits(self.g)
        rep = WalkRepr.from_int(y, self.t, vb, lb)
        cur = rep.vertex
        fwd = []
        for k in rep.labels:
            v = self.base.invert(cur)
            if v is None:
                return None
            cur, j = self.g.rot.rotate(v, k)
            fwd.append(j)
        fwd.reverse()
        return WalkRepr(cur, tuple(fwd), vb, lb).to_int()

    def _exact_profile(self) -> np.ndarray:
        space = walk_space(self.g, self.t)
        base_prof = self.base.success_profile()
        vals = np.ones(space.columns.shape[1])
        for col in space.columns[1:]:
            vals *= base_prof[col]
        out = np.zeros(1 << self.func.n)
        out[space.reverse] = vals
        return out


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

    def invert(self, y: int) -> Optional[int]:
        q = self.query_count
        self.query_count += 1
        rng = _query_rng(self.seed, q)
        t, func = self.t, self.func
        i = int(rng.integers(t))
        fills = rng.integers(0, 1 << func.n, size=t)
        ys = [int(func.table[f]) for f in fills]
        ys[i] = y
        yvec = 0
        for v in ys:
            yvec = (yvec << func.out_bits) | v
        ans = self.inner.invert(yvec)
        if ans is None:
            return None
        parts = []
        for j in range(t):
            parts.append((ans >> (func.n * (t - 1 - j))) & ((1 << func.n) - 1))
        if any(int(func.table[x]) != ys[j] for j, x in enumerate(parts)):
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
        vb, lb = _graph_bits(g)
        if inner.func.n != vb + t * lb:
            raise StructuralError("inner inverter does not match the walk permutation")
        super().__init__(vertex_function(g), inner.cost + 2 * t - 1)
        self.inner = inner
        self.g = g
        self.t = t
        self.seed = int(seed)

    def invert(self, y: int) -> Optional[int]:
        q = self.query_count
        self.query_count += 1
        rng = _query_rng(self.seed, q)
        g, t = self.g, self.t
        i = 1 + int(rng.integers(t - 1))
        fwd = [int(v) for v in rng.integers(0, g.d, size=t - i)]
        prefix = [int(v) for v in rng.integers(0, g.d, size=i)]
        rep = conditioned_reverse_repr(g, t, i, y, fwd, prefix)
        ans = self.inner.invert(rep.to_int())
        if ans is None:
            return None
        vb, lb = _graph_bits(g)
        try:
            walk = forward_inv(g, WalkRepr.from_int(ans, t, vb, lb))
        except StructuralError:
            return None
        if reverse_repr(g, walk).to_int() != rep.to_int():
            return None
        return int(g.rot.neighbors[walk.vertices[i - 1], walk.labels[i - 1]])

    def _exact_profile(self) -> np.ndarray:
        """Exact per-vertex success: average over positions 1..t-1 of the inner
        profile conditioned on the walk visiting the vertex there."""
        g, t = self.g, self.t
        space = walk_space(g, t)
        per_walk = self.inner.success_profile()[space.reverse]
        n = g.n_vertices
        acc = np.zeros(n)
        for col in space.columns[1:t]:
            acc += np.bincount(col, weights=per_walk, minlength=n)
        return acc / ((t - 1) * g.d ** t)   # d**t walks visit each vertex at each position


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
        return {
            "time_cost": self.time_cost,
            "success": self.success,
            "security": None if self.unbounded else self.security,
            "unbounded": self.unbounded,
        }


@dataclass(frozen=True, eq=False)
class InversionReport:
    mode: str
    success: float
    trials: int
    soundness_violations: int
    security: SecurityEstimate
    per_point: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        # per_point stays in-memory only (it can be 2**n entries wide)
        return {
            "mode": self.mode,
            "success": self.success,
            "trials": self.trials,
            "soundness_violations": self.soundness_violations,
            "security": self.security.to_dict(),
        }


def measure_inversion(
    func: ToyFunction,
    oracle: Inverter,
    mode: str = "exact",
    trials: int = 10_000,
    seed: int = 0,
) -> InversionReport:
    """Success probability of inverting func(x) for uniform x.

    ``exact`` integrates the oracle's success profile against the image
    distribution; ``mc`` runs seeded trials through the live oracle and verifies
    every defined answer.
    """
    if mode not in ("exact", "mc"):
        raise ParameterError(f"mode must be 'exact' or 'mc', got {mode!r}")
    violations = 0
    per_point = None
    if mode == "exact":
        prof = oracle.success_profile()
        per_point = prof
        success = float(image_distribution(func) @ prof)
        n_trials = 1 << func.n
    else:
        if trials < 1:
            raise ParameterError(f"trials must be >= 1, got {trials}")
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, 1 << func.n, size=trials)
        hits = 0
        for x in xs:
            y = int(func.table[x])
            v = oracle.invert(y)
            if v is not None:
                if int(func.table[v]) == y:
                    hits += 1
                else:
                    violations += 1
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
        per_point=per_point,
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
        return {
            "envelope_excess": self.envelope_excess,
            "dominance_excess": self.dominance_excess,
            "dominance_applicable": self.dominance_applicable,
            "points": self.points,
            "tol": self.tol,
            "holds": self.holds,
        }


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
        return {
            "n": self.n,
            "t": self.t,
            "k": self.k,
            "delta": self.delta,
            "eps": self.eps,
            "seed": self.seed,
            "mode": self.mode,
            "trials": self.trials,
            "m": self.m,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f: data[f] for f in ("n", "t", "k", "delta", "eps", "seed", "mode", "trials") if f in data}
        missing = {"n", "t", "k", "delta", "eps", "seed", "mode", "trials"} - set(known)
        if missing:
            raise StructuralError(f"config missing fields: {sorted(missing)}")
        return cls(m=data.get("m"), **known)
