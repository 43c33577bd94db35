"""Directed walks on hybrid graphs: an expander edge followed by a permutation.

A length-t walk is generated by a uniform start vertex plus t uniform edge
labels, so the walk space has exactly ``N * d**t`` points; vertex sequences are
derived data (parallel edges mean several label sequences can share one vertex
sequence).  Events over walks are handled two independent ways that tests
compare: integer walk counts pushed step by step through the predecessor table
(terminal vectors, no N x N matrix) and direct enumeration of the walk space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BudgetError, ParameterError, StructuralError
from .expander import ColoredRotation, TransitionMatrix, compose_permutation, transition_matrix
from .prob import (MAX_WITNESSES, RATIO_TOL, FiniteSpace, IndependenceReport, RandomObject,
                   mask_int, subset_sums)

WALK_ENUM_MAX = 2 ** 24     # full walk enumerations stop at this many walks
SUBSET_EXH_MAX_N = 20       # exhaustive single-set sweeps stop at 2**N subsets
WALK_SCRATCH_BYTES = 2 ** 21   # working memory of one batch of families of the count operator
EXT_TOL = 1e-12
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1    # [v, i] = bit i of byte v


@dataclass(frozen=True, eq=False)
class HybridGraph:
    """A colored rotation together with a vertex permutation applied after each edge."""

    rot: ColoredRotation
    perm: np.ndarray

    def __post_init__(self):
        p = np.array(self.perm, dtype=np.int64)
        p.setflags(write=False)
        object.__setattr__(self, "perm", p)
        n = self.rot.n_vertices
        if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
            raise StructuralError("perm must be a bijection on the rotation's vertex set")
        object.__setattr__(self, "_spaces", {})

    @property
    def n_vertices(self) -> int:
        return self.rot.n_vertices

    @property
    def d(self) -> int:
        return self.rot.d

    def step(self, u: int, j: int) -> int:
        """Follow edge slot j out of u, then apply the permutation."""
        v, _ = self.rot.rotate(u, j)
        return int(self.perm[v])

    def transition(self) -> TransitionMatrix:
        """The dense-capable one-step matrix; the walk routes never build it, tests
        use it as their oracle."""
        return compose_permutation(transition_matrix(self.rot), self.perm)

    @cached_property
    def predecessors(self) -> np.ndarray:
        """``pred[k, w]``, k < d: the vertices one step before w, with multiplicity.

        The rotation is an involution, so the d edges into ``perm^-1(w)`` are the
        d edges out of it: ``pred = neighbors[perm^-1].T``, read-only.
        """
        pred = np.ascontiguousarray(self.rot.neighbors[np.argsort(self.perm)].T)
        pred.setflags(write=False)
        return pred


@dataclass(frozen=True)
class Walk:
    """A realized walk: vertex sequence plus the edge labels that produced it."""

    vertices: tuple
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))
        object.__setattr__(self, "labels", tuple(int(j) for j in self.labels))
        if len(self.vertices) != len(self.labels) + 1:
            raise StructuralError("a t-step walk has t+1 vertices and t labels")

    @property
    def t(self) -> int:
        return len(self.labels)


def validate_walk(g: HybridGraph, w: Walk) -> None:
    cur = w.vertices[0]
    if not (0 <= cur < g.n_vertices):
        raise StructuralError("walk start is not a vertex")
    for step, j in enumerate(w.labels):
        if not (0 <= j < g.d):
            raise StructuralError(f"label {j} at step {step} is not an edge slot")
        cur = g.step(cur, j)
        if cur != w.vertices[step + 1]:
            raise StructuralError("vertex sequence does not match the labels")


def walk_count(g: HybridGraph, t: int) -> int:
    """Number of t-step walks, ``N * d**t``; errors past the 64-bit range."""
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    total = g.n_vertices * g.d ** t
    if total >= 1 << 63:
        raise BudgetError(f"walk count {total} exceeds the 64-bit range")
    return total


def walk_index(g: HybridGraph, w: Walk) -> int:
    """Mixed-radix index (start vertex most significant, labels in walk order)."""
    idx = w.vertices[0]
    for j in w.labels:
        idx = idx * g.d + j
    return idx


def walk_from_index(g: HybridGraph, t: int, index: int) -> Walk:
    total = walk_count(g, t)
    if not (0 <= index < total):
        raise StructuralError("walk index out of range")
    labels = []
    for _ in range(t):
        labels.append(index % g.d)
        index //= g.d
    labels.reverse()
    start = index
    vertices = [start]
    cur = start
    for j in labels:
        cur = g.step(cur, j)
        vertices.append(cur)
    return Walk(tuple(vertices), tuple(labels))


def sample_walk(g: HybridGraph, t: int, seed: int) -> Walk:
    """Uniform start vertex, then t uniform edge labels."""
    rng = np.random.default_rng(seed)
    start = int(rng.integers(g.n_vertices))
    labels = [int(j) for j in rng.integers(0, g.d, size=t)]
    vertices = [start]
    cur = start
    for j in labels:
        cur = g.step(cur, j)
        vertices.append(cur)
    return Walk(tuple(vertices), tuple(labels))


@dataclass(frozen=True, eq=False)
class WalkSpace:
    """Every t-step walk in walk-index order, read-only: ``columns[s]`` holds the
    vertex at position s in the narrowest unsigned dtype that holds N - 1, and
    ``reverse`` the int64 reverse packing."""

    columns: np.ndarray
    reverse: np.ndarray


def walk_space(g: HybridGraph, t: int) -> WalkSpace:
    """The walk space of (graph, t), built once and cached on the graph
    (immutable, so never stale).

    The walk space is the grid (start, label_1, ..., label_t) in walk-index
    order.  Step s follows every label out of the N * d**(s-1) distinct prefixes
    and broadcasts the N * d**s results into column s.  Alongside, the reverse
    packing sums each step's back label times d**(s-1); the terminal vertex
    times d**t completes it (base-d digits, last step most significant).
    """
    if t not in g._spaces:
        total = walk_count(g, t)
        if total > WALK_ENUM_MAX:
            raise BudgetError(f"enumerating {total} walks exceeds the ceiling of {WALK_ENUM_MAX}")
        n, d = g.n_vertices, g.d
        columns = np.empty((t + 1, total), dtype=np.min_scalar_type(n - 1))
        cur = np.arange(n, dtype=np.int64)
        rho = np.zeros(n, dtype=np.int64)
        columns[0].reshape(n, -1)[:] = cur[:, None]
        for s in range(1, t + 1):
            back = g.rot.back_labels[cur] * d ** (s - 1)
            back += rho[:, None]
            rho = back.reshape(-1)
            cur = g.perm[g.rot.neighbors[cur]].reshape(-1)
            columns[s].reshape(cur.size, -1)[:] = cur[:, None]
        rho += cur * d ** t
        columns.setflags(write=False)
        rho.setflags(write=False)
        g._spaces[t] = WalkSpace(columns, rho)
    return g._spaces[t]


def _as_mask(n: int, subset) -> np.ndarray:
    if isinstance(subset, np.ndarray) and subset.dtype == bool:
        if subset.shape != (n,):
            raise StructuralError("constraint mask has the wrong length")
        return subset
    mask = np.zeros(n, dtype=bool)
    idx = np.asarray(list(subset), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise StructuralError("constraint contains a non-vertex")
    mask[idx] = True
    return mask


@dataclass(frozen=True, eq=False)
class TerminalVector:
    """Sub-probability masses over terminal vertices of a constrained walk event."""

    probs: np.ndarray

    @property
    def total(self) -> float:
        return float(np.sum(self.probs))


def terminal_vector(g: HybridGraph, t: int, constraints: Sequence) -> TerminalVector:
    """Masses ``p_j = P{walk stays in the constraint sets and ends at j}`` via
    the walk-count operator (uniform start, one mask per position 0..t)."""
    constraints = list(constraints)
    if len(constraints) != t + 1:
        raise StructuralError("need one constraint set per walk position (t+1 of them)")
    n = g.n_vertices
    masks = np.stack([_as_mask(n, c) for c in constraints])[:, :, None]
    counts = _walk_counts(g, t, masks[0], masks[1:])[:, 0]
    return TerminalVector(counts / walk_count(g, t))


@dataclass(frozen=True)
class ExtensionReport:
    prob_base: float
    prob_extended: float
    prob_diff: float
    vector_diff: float

    @property
    def holds(self) -> bool:
        return self.prob_diff <= EXT_TOL and self.vector_diff <= EXT_TOL


def check_extension_identity(g: HybridGraph, t: int, base_indices) -> ExtensionReport:
    """For an explicit event S' over (t-1)-walks and its one-step extension S over
    t-walks: P(S) = P(S') and the terminal vector of S equals that of S' pushed
    through one transition step."""
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    base_indices = np.asarray(sorted(set(int(i) for i in base_indices)), dtype=np.int64)
    n = g.n_vertices
    total_base = walk_count(g, t - 1)
    total_ext = walk_count(g, t)
    if base_indices.size and (base_indices.min() < 0 or base_indices.max() >= total_base):
        raise StructuralError("base event contains an invalid walk index")
    ends = np.empty(base_indices.size, dtype=np.int64)
    for pos, idx in enumerate(base_indices):
        ends[pos] = walk_from_index(g, t - 1, int(idx)).vertices[-1]
    base_counts = np.bincount(ends, minlength=n)
    prob_base = base_indices.size / total_base
    # every extension: d fresh labels per base walk
    ext_ends = g.perm[g.rot.neighbors[ends]]            # (|S'|, d)
    v_ext = np.bincount(ext_ends.reshape(-1), minlength=n).astype(float) / total_ext
    prob_ext = base_indices.size * g.d / total_ext
    pushed = _walk_counts(g, t, base_counts[:, None], [True])[:, 0] / total_ext  # one unmasked step
    return ExtensionReport(
        prob_base=float(prob_base),
        prob_extended=float(prob_ext),
        prob_diff=abs(float(prob_ext) - float(prob_base)),
        vector_diff=float(np.max(np.abs(v_ext - pushed))) if n else 0.0,
    )


def _walk_counts(g: HybridGraph, t: int, counts: np.ndarray, masks) -> np.ndarray:
    """Integer walk counts pushed one step per mask, with no transition matrix.

    ``counts`` has shape (N, B): walks ending at each vertex, per family.  Each
    mask broadcasts to (N, B), and a step is ``c[w] = mask[w] * sum_k
    c[pred[k, w]]``, one row gather per k.  ``t`` is the walks' length after
    the last step, so no count exceeds ``walk_count(g, t)``: the counts are
    int32 when that is below 2**31 (half the memory traffic), else int64.
    """
    counts = counts.astype(np.int32 if walk_count(g, t) < 1 << 31 else np.int64)
    for mask in masks:
        nxt = counts[g.predecessors[0]]
        for row in g.predecessors[1:]:
            nxt += counts[row]
        nxt *= mask
        counts = nxt
    return counts


def _batch_size(n: int, t: int) -> int:
    """Families per batch: the (B, t+1, N) int64 draws, their bool masks and the
    masks' transposed copy, plus three (N, B) count arrays of at most int64,
    fit in WALK_SCRATCH_BYTES (at least one family)."""
    return max(1, WALK_SCRATCH_BYTES // (n * (10 * (t + 1) + 24)))


def random_families(rng: np.random.Generator, count: int, t: int, n: int) -> np.ndarray:
    """``count`` uniformly random families of t+1 vertex sets, as a (count, t+1, N)
    boolean array filled ``_batch_size`` families at a time, so the int64 draws
    of a batch stay within WALK_SCRATCH_BYTES.  Each 0/1 draw takes one 32-bit
    half and N = 4**m is even, so the stream does not depend on the batching."""
    masks = np.empty((count, t + 1, n), dtype=bool)
    per = _batch_size(n, t)
    for lo in range(0, count, per):
        batch = masks[lo: lo + per]
        batch[...] = rng.integers(0, 2, size=batch.shape)
    return masks


def _family_counts(g: HybridGraph, masks: np.ndarray) -> np.ndarray:
    """Walks that meet every position mask, per family: ``masks`` is (B, t+1, N)
    boolean and the result (B,) int64, computed in batches of ``_batch_size``."""
    t = masks.shape[1] - 1
    per = _batch_size(g.n_vertices, t)
    out = np.empty(masks.shape[0], dtype=np.int64)
    for lo in range(0, masks.shape[0], per):
        fam = np.ascontiguousarray(masks[lo: lo + per].transpose(1, 2, 0))
        out[lo: lo + per] = _walk_counts(g, t, fam[0], fam[1:]).sum(axis=0)
    return out


def verify_walk_independence(
    g: HybridGraph,
    t: int,
    beta: float,
    mode: str = "exhaustive",
    trials: int = 10_000,
    seed: int = 0,
) -> IndependenceReport:
    """Check the product bound ``P{all positions hit their sets} <=
    prod_i(alpha + beta * mu_i)`` over families of vertex sets.

    ``exhaustive`` sweeps every single-set family (all 2**N subsets, same set at
    each of the t+1 positions) and additionally samples ``trials`` multi-set
    families; ``sampled`` does only the sampling.  ``beta`` is the caller's
    measured spectral gap; marginals are uniform so ``mu = |S|/N`` exactly.
    """
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if not (0.0 <= beta <= 1.0):
        raise ParameterError(f"beta must lie in [0, 1], got {beta}")
    if mode not in ("exhaustive", "sampled"):
        raise ParameterError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    n = g.n_vertices
    if mode == "exhaustive" and n > SUBSET_EXH_MAX_N:
        raise BudgetError(
            f"exhaustive single-set sweep needs 2**{n} subsets, over the "
            f"2**{SUBSET_EXH_MAX_N} ceiling"
        )
    alpha = 1.0 - beta
    total = walk_count(g, t)
    per = _batch_size(n, t)
    worst = 0.0
    witnesses: list = []
    n_single = 0

    def _note(probs: np.ndarray, bound: np.ndarray, describe) -> None:
        nonlocal worst
        ratios = np.divide(probs, bound, out=np.zeros_like(probs), where=bound > 0)
        ratios[(bound == 0) & (probs > 0)] = np.inf
        worst = max(worst, float(np.max(ratios)))
        if len(witnesses) < MAX_WITNESSES:
            for idx in np.nonzero(ratios > 1.0 + RATIO_TOL)[0]:
                if len(witnesses) >= MAX_WITNESSES:
                    break
                witnesses.append((describe(int(idx)), float(ratios[idx])))

    if mode == "exhaustive":
        n_single = 1 << n
        bit_cols = np.arange(n, dtype=np.int64)
        for lo in range(0, n_single, per):
            ids = np.arange(lo, min(lo + per, n_single), dtype=np.int64)
            sets = ((ids[:, None] >> bit_cols) & 1).astype(bool)
            mu = sets.sum(axis=1) / n
            same_set = np.broadcast_to(sets[:, None, :], (ids.size, t + 1, n))
            probs = _family_counts(g, same_set) / total
            bound = (alpha + beta * mu) ** (t + 1)
            _note(probs, bound, lambda i, lo=lo: ("single", lo + i))

    n_sampled = 0
    if trials > 0:
        rng = np.random.default_rng(seed)
        while n_sampled < trials:
            b = min(per, trials - n_sampled)
            masks = random_families(rng, b, t, n)
            probs = _family_counts(g, masks) / total
            mus = masks.sum(axis=2) / n
            bound = np.prod(alpha + beta * mus, axis=1)
            _note(probs, bound, lambda i, masks=masks: ("multi", tuple(map(mask_int, masks[i]))))
            n_sampled += b

    return IndependenceReport(
        worst_ratio=float(worst),
        witnesses=tuple(witnesses),
        n_single=n_single,
        n_sampled=n_sampled,
        beta=beta,
    )


def single_set_event_probs(g: HybridGraph, t: int) -> np.ndarray:
    """Exact single-set family probabilities for every subset, by enumerating the
    walk space: out[T] = P{every walk position lands in T}.

    Independent of the matrix-product route: per-walk vertex bitmasks are counted
    and accumulated with a subset-sum transform.
    """
    n = g.n_vertices
    if n > SUBSET_EXH_MAX_N:
        raise BudgetError(f"subset table needs 2**{n} entries, over the ceiling")
    columns = walk_space(g, t).columns
    sig = np.zeros(columns.shape[1], dtype=np.int64)
    for col in columns:
        sig |= np.int64(1) << col
    counts = np.bincount(sig, minlength=1 << n).astype(float)
    return subset_sums(counts, n) / columns.shape[1]


def family_event_probs(g: HybridGraph, t: int, masks: np.ndarray) -> np.ndarray:
    """Exact probabilities for a batch of families by walk enumeration; ``masks``
    has shape (B, t+1, N) boolean.

    Bit-sliced: each block of 64 families becomes one word per (position, vertex),
    bit f meaning family f.  Every walk ANDs the words of its t+1 vertices, so one
    word holds its membership in all 64 families; each byte lane's set bits are
    then counted exactly through a 256-bin histogram.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3 or masks.shape[1] != t + 1 or masks.shape[2] != g.n_vertices:
        raise StructuralError("masks must have shape (B, t+1, N)")
    columns = walk_space(g, t).columns
    total = columns.shape[1]
    n_blocks = -(-masks.shape[0] // 64)
    packed = np.packbits(masks, axis=0, bitorder="little")
    padded = np.zeros((8 * n_blocks,) + packed.shape[1:], dtype=np.uint8)
    padded[: packed.shape[0]] = packed
    # little-endian words: byte k of block w holds families 64w + 8k ... 64w + 8k + 7
    words = padded.reshape(n_blocks, 8, t + 1, g.n_vertices).transpose(0, 2, 3, 1).copy()
    words = words.view("<u8")[..., 0]
    counts = np.empty(64 * n_blocks, dtype=np.int64)
    for w in range(n_blocks):
        member = words[w, 0][columns[0]]
        for s in range(1, t + 1):
            member &= words[w, s][columns[s]]
        lanes = member.view(np.uint8).reshape(total, 8)
        hist = np.stack([np.bincount(lanes[:, k], minlength=256) for k in range(8)])
        counts[64 * w: 64 * (w + 1)] = (hist @ _BYTE_BITS).reshape(-1)
    return counts[: masks.shape[0]] / total


def family_event_probs_matrix(g: HybridGraph, t: int, masks: np.ndarray) -> np.ndarray:
    """Walk-count route for a batch of families: same contract as
    family_event_probs, computed via terminal counts instead of enumeration."""
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3 or masks.shape[1] != t + 1 or masks.shape[2] != g.n_vertices:
        raise StructuralError("masks must have shape (B, t+1, N)")
    return _family_counts(g, masks) / walk_count(g, t)


def projection_objects(g: HybridGraph, t: int) -> tuple:
    """The uniform walk space plus its t+1 position projections as random objects."""
    columns = walk_space(g, t).columns
    space = FiniteSpace.uniform(range(columns.shape[1]))
    codomain = tuple(range(g.n_vertices))
    objects = [RandomObject(space, codomain, col) for col in columns]
    return space, objects
