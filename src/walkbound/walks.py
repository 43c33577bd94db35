"""Directed walks on hybrid graphs: an expander edge followed by a permutation.

A length-t walk is generated by a uniform start vertex plus t uniform edge
labels, so the walk space has exactly ``N * d**t`` points; vertex sequences are
derived data (parallel edges mean several label sequences can share one vertex
sequence).  Events over walks are handled two independent ways that tests
compare: integer walk counts pushed step by step through the predecessor table
(no N x N matrix) and direct enumeration of the walk space.

The walk space has two orders.  Walk-index order (start vertex first, then the
labels) is a prefix tree growing forward along the successor table.  The
reverse packing (terminal vertex first, then the back labels, last step
first) is a tree growing backward along the predecessor table: its level k
holds the vertex k steps before the end once per subtree, N * d**k entries.
Both are the walks' integer packings, mixed radix in d, and this module is
the one codec: ``walk_index`` / ``walk_from_index`` and ``reverse_index`` per
walk, ``reverse_indices`` from one to the other for an array of points, and
``WalkSpace.reverse_ranges`` for every walk, a range of start vertices at a
time.
Every per-walk quantity is one fold down a tree (``_descend``): the reverse
packing (sums), a family block's membership words (ANDs) and the vertex
bitmasks (ORs) down the forward tree, products along a walk down the reverse
one.  Sums over the walks through a vertex run level by level up the reverse
tree, so the walks are never moved between the orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from . import prob
from .errors import BudgetError, ParameterError, StructuralError
from .expander import ColoredRotation, _push
from .prob import FiniteSpace, IndependenceReport, RandomObject, subset_sums
from .rng import RATIO_TOL, ROUTE_AGREE_TOL, STREAM_FAMILIES, coins, stream_key

WALK_ENUM_MAX = 2 ** 24     # full walk enumerations stop at this many walks
SUBSET_EXH_MAX_N = 20       # exhaustive single-set sweeps stop at 2**N subsets


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

    @cached_property
    def predecessors(self) -> np.ndarray:
        """``pred[k, w]``, k < d: the vertices one step before w, with multiplicity.

        The rotation is an involution, so the d edges into ``perm^-1(w)`` are the
        d edges out of it: ``pred = neighbors.T[:, perm^-1]``, read-only.
        """
        pred = np.ascontiguousarray(self.rot.neighbors.T[:, np.argsort(self.perm)])
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


def _replay(g: HybridGraph, start: int, labels: Sequence[int]) -> tuple:
    """The vertices of the walk from ``start`` along ``labels``, start first."""
    if not (0 <= start < g.n_vertices):
        raise StructuralError("walk start is not a vertex")
    vertices = [int(start)]
    for step, j in enumerate(labels):
        if not (0 <= j < g.d):
            raise StructuralError(f"label {j} at step {step} is not an edge slot")
        vertices.append(g.step(vertices[-1], j))
    return tuple(vertices)


def validate_walk(g: HybridGraph, w: Walk) -> None:
    if _replay(g, w.vertices[0], w.labels) != w.vertices:
        raise StructuralError("vertex sequence does not match the labels")


def walk_total(n: int, d: int, t: int) -> int:
    """``n * d**t``, the t-step walks on n vertices of degree d, below 2**63."""
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    # d**63 is past the range for any d >= 2, so a long walk never builds d**t
    total = n * d ** min(t, 63)
    if total >= 1 << 63:
        # n in full below 10**100, else the power of ten it reaches: str() refuses
        # an int past 4300 digits, and log10 rounds up just below a power of ten
        k = int(math.log10(n))
        count = n if n < 10 ** 100 else f"at least 10**{k - (10 ** k > n)}"
        raise BudgetError(f"walk count {count} * {d}**{t} exceeds the 64-bit range")
    return total


def walk_count(g: HybridGraph, t: int) -> int:
    """Number of t-step walks of ``g``, ``N * d**t`` (``walk_total``)."""
    return walk_total(g.n_vertices, g.d, t)


def walk_space_size(n: int, d: int, t: int) -> int:
    """``walk_total(n, d, t)``, once a walk space that size is within WALK_ENUM_MAX."""
    total = walk_total(n, d, t)
    if total > WALK_ENUM_MAX:
        raise BudgetError(f"enumerating {total} walks exceeds the ceiling of {WALK_ENUM_MAX}")
    return total


def subset_count(k: int) -> int:
    """2**k, the subsets of k points, once k <= SUBSET_EXH_MAX_N."""
    if k > SUBSET_EXH_MAX_N:
        raise BudgetError(f"2**{k} subsets of {k} points exceed the 2**{SUBSET_EXH_MAX_N} ceiling")
    return 1 << k


def _pack(g: HybridGraph, head: int, labels: Sequence[int]) -> int:
    """``head * d**t`` plus the t labels as base-d digits, the first most
    significant: both walk packings, read by ``_digits``."""
    for j in labels:
        if not (0 <= j < g.d):
            raise StructuralError(f"label {j} is not an edge slot")
        head = head * g.d + j
    return int(head)


def _digits(g: HybridGraph, t: int, value: int) -> tuple:
    """``(head, labels)`` of a packing of a t-step walk; inverse of ``_pack``."""
    if not (0 <= value < walk_count(g, t)):
        raise StructuralError("packed walk out of range")
    labels = []
    for _ in range(t):
        value, j = divmod(value, g.d)
        labels.append(int(j))
    return int(value), tuple(reversed(labels))


def walk_index(g: HybridGraph, w: Walk) -> int:
    """The forward packing: start vertex most significant, then the labels in
    walk order, mixed radix in d."""
    return _pack(g, w.vertices[0], w.labels)


def walk_from_index(g: HybridGraph, t: int, index: int) -> Walk:
    start, labels = _digits(g, t, index)
    return Walk(_replay(g, start, labels), labels)


def reverse_index(g: HybridGraph, w: Walk) -> int:
    """The reverse packing ``v_t * d**t + sum_s b_s * d**(s-1)``: terminal vertex
    most significant, then the back labels, last step first.

    The back label of a step u -> F(rot(u, j)) is the rotation's back label
    at u, which recovers (u, j) from the step's far end once F is undone.  The
    per-walk twin of ``WalkSpace.reverse_ranges``.
    """
    validate_walk(g, w)
    back = [int(g.rot.back_labels[u, j]) for u, j in zip(w.vertices, w.labels)]
    return _pack(g, w.vertices[-1], back[::-1])


def reverse_indices(g: HybridGraph, t: int, xs) -> np.ndarray:
    """The reverse packing of every forward packing in ``xs``, as int64: the
    array twin of ``reverse_index(g, walk_from_index(g, t, x))``.

    The walks are replayed together, one step at a time: step s reads label
    j_s off x's base-d digits, most significant first, adds the back label
    ``back_labels[u, j_s] * d**(s-1)`` and moves every walk on from u.  No
    walk space is built: the points go 4096 at a time, so beside ``xs`` and
    the result this holds a few int64 arrays of 4096 entries at any length
    and any t.  The tables are read as (u, j) pairs, so a label-major or
    broadcast table is never flattened into a copy.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size and (xs.min() < 0 or xs.max() >= walk_count(g, t)):
        raise StructuralError("packed walk out of range")
    d = g.d
    out = np.empty(xs.shape, dtype=np.int64)   # C order, so ``flat_out`` is a view
    flat_in, flat_out = xs.reshape(-1), out.reshape(-1)
    for lo in range(0, xs.size, 4096):
        x, acc = flat_in[lo: lo + 4096], flat_out[lo: lo + 4096]
        cur = x // d ** t          # each walk's vertex u before step s
        digit = np.empty_like(cur)
        acc[:] = 0
        for s in range(1, t + 1):
            np.floor_divide(x, d ** (t - s), out=digit)
            np.remainder(digit, d, out=digit)
            acc += g.rot.back_labels[cur, digit] * d ** (s - 1)
            cur = g.perm[g.rot.neighbors[cur, digit]]
        cur *= d ** t
        acc += cur
    return out


def _descend(parents: Sequence, acc: np.ndarray, tables: Sequence, op) -> np.ndarray:
    """Fold ``op`` down a prefix tree of vertices from ``acc``, one value per
    node of its top level.

    ``parents[s]`` holds the vertex of every node of level s.  The d children
    of a node at vertex u take the row ``tables[s][u]`` of an (N, d) edge
    table, combined in place with the node's value: ``op(row, acc)``.  Returns
    the values of the last level, flat.
    """
    for vertices, table in zip(parents, tables):
        child = np.take(table, vertices, axis=0, mode="clip")   # vertices never clip
        op(child, acc[:, None], out=child)
        acc = child.reshape(-1)
    return acc


def _assemble(ranges, size: int) -> np.ndarray:
    """The read-only int64 array of ``size`` entries tiled by the ``(offset,
    chunk)`` pairs of ``ranges``, each chunk copied into place and dropped
    before the next range is made."""
    out = np.empty(size, dtype=np.int64)
    for lo, chunk in ranges:
        out[lo: lo + chunk.size] = chunk
        del chunk
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class WalkSpace:
    """Every t-step walk of a hybrid graph, read-only, in two orders.

    Walk-index order (start vertex most significant, then the labels in walk
    order) is a prefix tree growing forward: the vertex at position s is
    constant on runs of d**(t-s) walks.  ``heads[s]``, s < t, holds it once per
    run, N * d**s entries in the narrowest unsigned dtype that holds N - 1;
    level s+1 is ``successors[heads[s]]``.  The tree is about 1/(d-1) of one
    position's full length; ``n_walks`` is N * d**t.  ``columns[s]``, the
    vertex at position s of every walk, is built from the heads on its first
    read: only ``projection_objects`` reads it, since the enumeration routes
    fold down the heads instead.

    Reverse-packing order, ``y = v_t * d**t + sum_s b_s * d**(s-1)`` with b_s
    the back label of step s: this enumerates the walks backward from their
    terminal vertex, so the vertex k steps before the end is constant on runs
    of d**(t-k) points.  ``levels[k]``, k < t, holds it once per run, N * d**k
    entries in the heads' dtype; level k+1 is level k's rows of the
    predecessor table, ``predecessors[levels[k]]``.  The start vertex's level
    would be a full column, and no reader needs it.  ``reverse_ranges``
    yields the reverse packing per walk index (int64) one range of start
    vertices at a time: the walk permutation's checks stream over the ranges,
    only a read of its whole table puts them together, and a point lookup goes
    through ``reverse_indices``.

    ``successors[u, j]``, ``predecessors[w, b]`` (both in the heads' dtype)
    and ``back_labels[u, j]`` are the step tables: edge slot j out of u ends
    at ``successors[u, j]`` and is undone by back label ``back_labels[u, j]``;
    back label b reached from w is ``predecessors[w, b]``.
    """

    heads: tuple
    n_walks: int
    levels: tuple
    successors: np.ndarray
    predecessors: np.ndarray
    back_labels: np.ndarray

    @cached_property
    def columns(self) -> np.ndarray:
        """``columns[s]``: the vertex at position s of every walk, in walk-index
        order, read-only (t+1, N * d**t) in the heads' dtype.

        Column s < t copies each head along its run of d**(t-s) walks.  Column
        t is ``successors[heads[t-1]]``, taken straight into place in ranges of
        heads, so the intp copy that ``np.take`` makes of its indices stays
        within SCRATCH_BYTES / 8 and nothing else has a column's length.
        """
        n, d = self.successors.shape
        t = len(self.heads)
        columns = np.empty((t + 1, self.n_walks), dtype=self.successors.dtype)
        columns[0].reshape(n, -1)[:] = np.arange(n, dtype=columns.dtype)[:, None]
        for s in range(1, t):
            columns[s].reshape(self.heads[s].size, -1)[:] = self.heads[s][:, None]
        if t:
            last, ends = columns[t].reshape(-1, d), self.heads[t - 1]
            # take(mode="clip") writes into ``out`` without a buffer; vertices never clip
            step = max(1, prob.SCRATCH_BYTES // 64)
            for lo in range(0, ends.size, step):
                np.take(self.successors, ends[lo: lo + step], axis=0, out=last[lo: lo + step],
                        mode="clip")
        columns.setflags(write=False)
        return columns

    def reverse_ranges(self):
        """``(offset, chunk)``: the reverse packings of walk indices offset ..
        offset + chunk.size - 1 as int64, in order, one range of start vertices
        at a time.

        An add fold down the walk-index tree (``_descend``): step s < t adds
        ``back_labels[u, j] * d**(s-1)`` per child j of a prefix ending at u,
        and the last step adds ``successors * d**t + back_labels * d**(t-1)``.
        A range's whole working set fits SCRATCH_BYTES at 8 + 16/(d-1)
        bytes per walk, rounded up (11 at d = 8): the int64 chunk, and the
        fold's partial sums and the intp copies ``np.take`` makes of the heads,
        at most 8/(d-1) each (8 at d = 1).
        """
        d = self.successors.shape[1]
        t = len(self.heads)
        tables = [self.back_labels * np.int64(d ** (s - 1)) for s in range(1, t)]
        if t:
            tables.append(self.successors * np.int64(d ** t)
                          + self.back_labels * np.int64(d ** (t - 1)))
        for lo, hi, parents in self._start_ranges(8 - (-16 // max(d - 1, 1))):
            # at t = 0 the packing is the start vertex itself
            root = np.zeros(hi - lo, dtype=np.int64) if t else np.arange(lo, hi, dtype=np.int64)
            yield lo * d ** t, _descend(parents, root, tables, np.add)

    def _start_ranges(self, walk_bytes: int):
        """Ranges ``lo <= v < hi`` of start vertices whose walks take at most
        SCRATCH_BYTES at ``walk_bytes`` each (at least one vertex), each
        with its subtree's slices of the heads: ``(lo, hi, parents)``."""
        n, d = self.successors.shape
        step = max(1, prob.SCRATCH_BYTES // (walk_bytes * d ** len(self.heads)))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            yield lo, hi, [h[lo * d ** s: hi * d ** s] for s, h in enumerate(self.heads)]

    def path_products(self, values: np.ndarray) -> np.ndarray:
        """``values[v_t] * values[v_(t-1)] * ... * values[v_1]``, multiplied in
        that order, once per run of d walks in reverse-packing order: float64
        of length N * d**(t-1), entry r for the reverse packings r*d .. r*d+d-1.

        The start vertex is no factor, so the d walks of a run, which differ
        only in the lowest digit b_1 and hence in the start vertex, share one
        product; ``np.repeat(out, d)`` is the per-walk array.  At t = 0 every
        walk is its own run: 1.0 once per walk.  A multiply fold down the
        reverse tree from ``values`` at the terminal vertex: level k's partial
        products take the factor ``values[predecessors]`` per child.
        """
        values = np.asarray(values, dtype=float)
        if not self.levels:
            return np.ones(self.successors.shape[0])
        tables = [values[self.predecessors]] * (len(self.levels) - 1)
        return _descend(self.levels[:-1], values[self.levels[0]], tables, np.multiply)

    def interior_visits(self, weights: np.ndarray) -> np.ndarray:
        """``out[v]``: the sum of ``weights[r]`` over every run r of
        ``n_walks // weights.size`` consecutive walks in reverse-packing order
        and every interior position 0 < s < t with v_s = v, as float64 of
        length N.  ``weights`` holds one total per walk, or one per run of d
        walks that differ only in the start vertex (the runs of
        ``path_products``): no interior position tells those d walks apart.

        Summing weights over runs gives each level's subtree sums, from level
        t-1 (position 1) up to level 1 (position t-1), and bincounts over
        ranges of each level add them per vertex, so the intp copy that
        ``np.bincount`` makes of its indices stays within SCRATCH_BYTES / 8.
        """
        sums = np.asarray(weights, dtype=float)
        n = self.successors.shape[0]
        out = np.zeros(n)
        step = max(1, prob.SCRATCH_BYTES // 64)
        for level in self.levels[:0:-1]:
            if sums.size != level.size:
                sums = sums.reshape(level.size, -1).sum(axis=1)
            for lo in range(0, level.size, step):
                out += np.bincount(level[lo: lo + step], weights=sums[lo: lo + step], minlength=n)
        return out


def walk_space(g: HybridGraph, t: int) -> WalkSpace:
    """The walk space of (graph, t), built once and cached on the graph
    (immutable, so never stale).

    The heads follow the narrow successor table from the start vertex, and
    the levels of the reverse tree follow the predecessor table from the
    terminal vertex: N * d**(t-1) entries each at the deepest level, all in
    the narrow vertex dtype.  The predecessor table is filled straight in that
    dtype, so the graph's int64 ``predecessors`` is not built.  ``columns``
    waits for its first read, and the reverse packing's ranges are folded on
    each request.
    """
    if t not in g._spaces:
        total = walk_space_size(g.n_vertices, g.d, t)
        n = g.n_vertices
        dtype = np.min_scalar_type(n - 1)
        succ = g.perm[g.rot.neighbors].astype(dtype, order="C")
        pred = np.empty_like(succ)
        pred[g.perm] = g.rot.neighbors   # the d steps into perm(v) start at v's neighbors
        root = np.arange(n, dtype=dtype)
        heads, levels = [root], [root]
        for _ in range(1, t):
            heads.append(succ[heads[-1]].reshape(-1))
            levels.append(pred[levels[-1]].reshape(-1))
        for table in (succ, pred, *heads, *levels):
            table.setflags(write=False)
        # no heads or levels at t = 0
        g._spaces[t] = WalkSpace(tuple(heads[:t]), total, tuple(levels[:t]), succ, pred,
                                 g.rot.back_labels)
    return g._spaces[t]


@dataclass(frozen=True)
class ExtensionReport:
    prob_base: float
    prob_extended: float
    prob_diff: float
    vector_diff: float

    @property
    def holds(self) -> bool:
        return self.prob_diff <= ROUTE_AGREE_TOL and self.vector_diff <= ROUTE_AGREE_TOL


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
    pushed = _walk_counts(g, base_counts[:, None], [True])[:, 0] / total_ext  # one unmasked step
    return ExtensionReport(
        prob_base=float(prob_base),
        prob_extended=float(prob_ext),
        prob_diff=abs(float(prob_ext) - float(prob_base)),
        vector_diff=float(np.max(np.abs(v_ext - pushed))) if n else 0.0,
    )


def _walk_counts(g: HybridGraph, counts: np.ndarray, masks) -> np.ndarray:
    """Integer walk counts pushed one step per mask, with no transition matrix.

    ``counts`` has shape (N, B): walks ending at each vertex, per family.  Each
    mask broadcasts to (N, B), and a step is ``c[w] = mask[w] * sum_k
    c[pred[k, w]]``, the push over the predecessor table.  A step multiplies
    the largest count by at most d, so no count exceeds ``max(counts) *
    d**len(masks)``: the counts are the narrowest of int8, int16, int32 and
    int64 that holds that bound (less memory traffic per push).
    """
    bound = int(counts.max(initial=0)) * g.d ** len(masks)
    counts = counts.astype(next((dt for dt in (np.int8, np.int16, np.int32)
                                 if bound <= np.iinfo(dt).max), np.int64))
    for mask in masks:
        nxt = _push(g.predecessors, counts)
        nxt *= mask
        counts = nxt
    return counts


def _batch_size(n: int, t: int) -> int:
    """Families per batch: the (B, t+1, N) flags at 4 bytes each (the bool mask,
    its transposed copy and the unpacked draw one byte each, the drawn words
    under one), plus three (N, B) count arrays of at most int64, fit in
    SCRATCH_BYTES (at least one family)."""
    return max(1, prob.SCRATCH_BYTES // (n * (4 * (t + 1) + 24)))


def random_families(key: int, count: int, t: int, n: int, first: int = 0) -> np.ndarray:
    """Families ``first`` .. ``first + count - 1`` of key's uniformly random
    families of t+1 sets of n points, as a (count, t+1, n) boolean array.

    Family f is flips f * (t+1) * n onward of the 0/1 stream (``rng.coins``),
    position-major then point by point, so its sets do not depend on ``count``,
    ``first`` or the batching.  The flips are drawn ``_batch_size`` families at
    a time, so a batch's words stay within SCRATCH_BYTES.
    """
    masks = np.empty((count, t + 1, n), dtype=bool)
    size = (t + 1) * n
    per = _batch_size(n, t)
    for lo in range(0, count, per):
        hi = min(count, lo + per)
        flips = coins(key, (first + lo) * size, (first + hi) * size)
        masks[lo:hi] = flips.reshape(hi - lo, t + 1, n)
    return masks


def _family_counts(g: HybridGraph, masks: np.ndarray) -> np.ndarray:
    """Walks that meet every position mask, per family: ``masks`` is (B, t+1, N)
    boolean and the result (B,) int64, computed in batches of ``_batch_size``."""
    t = masks.shape[1] - 1
    per = _batch_size(g.n_vertices, t)
    out = np.empty(masks.shape[0], dtype=np.int64)
    for lo in range(0, masks.shape[0], per):
        fam = np.ascontiguousarray(masks[lo: lo + per].transpose(1, 2, 0))
        out[lo: lo + per] = _walk_counts(g, fam[0], fam[1:]).sum(axis=0, dtype=np.int64)
    return out


def _check_families(marginals: np.ndarray, per: int, event_probs, beta: float, mode: str,
                    trials: int, seed: int) -> IndependenceReport:
    """Check the product bound ``P{U_i in S_i for all i} <= prod_i(alpha + beta *
    mu_i(S_i))`` over families (S_0, ..., S_{t-1}) of sets of k points, where
    ``marginals[i]`` (shape (t, k)) is the distribution of U_i.

    ``event_probs(masks, subsets)`` returns the left side for a (B, t, k)
    boolean batch of families; ``subsets`` is the (B,) int64 array of set ids
    (bit v set iff v is in the set) when each family repeats one set at every
    position, else None.  ``exhaustive`` sweeps every single-set family (all
    2**k subsets) and then samples ``trials`` families with ``random_families``
    under the seed's STREAM_FAMILIES key;
    ``sampled`` only samples, ``per`` families a batch.  Single-set batches are
    ``_batch_size(k, t - 1)`` families: their flags are the batch's only
    allocation here, and ``event_probs`` sizes its own scratch.  A ratio against a
    zero bound is 0 for an empty event and inf otherwise; the report keeps the
    first MAX_WITNESSES ratios over 1 + RATIO_TOL, in sweep order.
    """
    if not (0.0 <= beta <= 1.0):
        raise ParameterError(f"beta must lie in [0, 1], got {beta}")
    if mode not in ("exhaustive", "sampled"):
        raise ParameterError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if trials < 0:
        raise ParameterError(f"trials must be >= 0, got {trials}")
    if mode == "sampled" and trials == 0:
        raise ParameterError("sampled mode needs trials >= 1")
    t, k = marginals.shape
    n_single = subset_count(k) if mode == "exhaustive" else 0
    alpha = 1.0 - beta
    worst = 0.0
    witnesses: list = []

    def _note(masks: np.ndarray, probs: np.ndarray, describe) -> None:
        nonlocal worst
        bound = np.ones(probs.size)
        for i in range(t):
            bound *= alpha + beta * (masks[:, i] @ marginals[i])
        ratios = np.divide(probs, bound, out=np.zeros_like(probs), where=bound > 0)
        ratios[(bound == 0) & (probs > 0)] = np.inf
        worst = max(worst, float(np.max(ratios)))
        for idx in np.nonzero(ratios > 1.0 + RATIO_TOL)[0][: prob.MAX_WITNESSES - len(witnesses)]:
            witnesses.append((describe(int(idx)), float(ratios[idx])))

    bit_cols = np.arange(k, dtype=np.int64)
    step = _batch_size(k, t - 1)
    for lo in range(0, n_single, step):
        ids = np.arange(lo, min(lo + step, n_single), dtype=np.int64)
        sets = ((ids[:, None] >> bit_cols) & 1).astype(bool)
        same_set = np.broadcast_to(sets[:, None, :], (ids.size, t, k))
        _note(same_set, event_probs(same_set, ids), lambda i, lo=lo: ("single", lo + i))

    key = stream_key(seed, STREAM_FAMILIES)
    n_sampled = 0
    while n_sampled < trials:
        masks = random_families(key, min(per, trials - n_sampled), t - 1, k, first=n_sampled)
        _note(masks, event_probs(masks, None),
              lambda i, masks=masks: ("multi", tuple(map(prob.mask_int, masks[i]))))
        n_sampled += masks.shape[0]

    return IndependenceReport(
        worst_ratio=float(worst),
        witnesses=tuple(witnesses),
        n_single=n_single,
        n_sampled=n_sampled,
        beta=beta,
    )


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
    Event probabilities come from the walk-count route,
    ``family_event_probs_matrix``.
    """
    n = g.n_vertices
    return _check_families(
        np.full((t + 1, n), 1.0 / n), _batch_size(n, t),
        lambda masks, _: family_event_probs_matrix(g, t, masks), beta, mode, trials, seed,
    )


def check_independence(
    objects: Sequence[RandomObject],
    beta: float,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
) -> IndependenceReport:
    """Measure how far random objects on one finite space, with one codomain,
    are from beta-independence: the same check as ``verify_walk_independence``,
    with each object's own distribution as its marginal.

    Single-set families read one subset-sum table over the outcomes' signatures
    (bit v set iff some object maps the outcome to v), built once on the first
    read; sampled families sum the weights of the outcomes every object maps
    into its set.  A sampled batch holds the family flags and one float and two
    boolean copies of the outcome axis, within SCRATCH_BYTES.
    """
    objects = list(objects)
    if len(objects) == 0:
        raise StructuralError("need at least one random object")
    domain = objects[0].domain
    codomain = objects[0].codomain
    for u in objects[1:]:
        if not u.domain.same_space(domain):
            raise StructuralError("all objects must share one sample space")
        if u.codomain != codomain:
            raise StructuralError("all objects must share one codomain")
    t, k = len(objects), len(codomain)
    maps = np.stack([u.index_map for u in objects])
    w = domain.weights

    @cache
    def single_table() -> np.ndarray:
        sig = np.zeros(domain.size, dtype=np.int64)
        for row in maps:
            sig |= np.int64(1) << row
        return subset_sums(np.bincount(sig, weights=w, minlength=1 << k), k)

    def event_probs(masks: np.ndarray, subsets) -> np.ndarray:
        if subsets is not None:
            return single_table()[subsets]
        member = np.take(masks[:, 0], maps[0], axis=1)
        for i in range(1, t):
            member &= np.take(masks[:, i], maps[i], axis=1)
        return member @ w

    per = max(1, prob.SCRATCH_BYTES // (10 * (t * k + domain.size)))
    marginals = np.stack([u.distribution() for u in objects])
    return _check_families(marginals, per, event_probs, beta, mode, trials, seed)


def single_set_event_probs(g: HybridGraph, t: int) -> np.ndarray:
    """Exact single-set family probabilities for every subset, by enumerating the
    walk space: out[T] = P{every walk position lands in T}.

    Independent of the matrix-product route: per-walk vertex bitmasks, an OR
    fold of ``1 << successors`` down the walk-index tree (``_descend``), are
    counted per range of start vertices and accumulated with a subset-sum
    transform.
    """
    n = g.n_vertices
    size = subset_count(n)
    space = walk_space(g, t)
    bits = [np.int64(1) << space.successors] * t
    counts = np.zeros(size, dtype=np.int64)
    for lo, hi, parents in space._start_ranges(8):
        sig = _descend(parents, np.int64(1) << np.arange(lo, hi), bits, np.bitwise_or)
        counts += np.bincount(sig, minlength=size)
    return subset_sums(counts.astype(float), n) / space.n_walks


def _bit_counts(words: np.ndarray) -> np.ndarray:
    """(64,) int64: ``out[i]`` is the number of words with bit i set, for a 1-D
    uint64 array ``words``, which is overwritten (the adder tree's scratch).

    A carry-save adder tree: three words of weight 2**k compress into their sum
    (weight 2**k, written over the first) and their carry (weight 2**(k+1)), a
    third of the plane at a time.  The carries form the next plane, in a buffer
    that alternates with the input's.  A plane of at most 64 words, and the one
    or two words each pass leaves over, are counted bit by bit.
    """
    counts = np.zeros(64, dtype=np.int64)
    buffers = [words, np.empty(words.size // 2, dtype=words.dtype)]
    plane, k = words, 0
    while plane.size:
        rest, spare, filled = [], buffers[(k + 1) % 2], 0
        while plane.size > 64:    # 64 words unpack to 4 KiB: cheaper than more passes
            third = plane.size // 3
            a, b, c = plane[:third], plane[third: 2 * third], plane[2 * third: 3 * third]
            rest.append(plane[3 * third:])
            carry = spare[filled: filled + third]
            np.bitwise_and(a, b, out=carry)
            a ^= b
            np.bitwise_and(a, c, out=b)
            carry |= b
            a ^= c
            filled += third
            plane = a
        rest.append(plane)
        lanes = np.concatenate(rest).astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(lanes, bitorder="little").reshape(-1, 64)
        counts += bits.sum(axis=0, dtype=np.int64) << k
        plane, k = spare[:filled], k + 1
    return counts


def family_event_probs(g: HybridGraph, t: int, masks: np.ndarray) -> np.ndarray:
    """Exact probabilities for a batch of families by walk enumeration; ``masks``
    has shape (B, t+1, N) boolean.

    Bit-sliced: each block of 64 families becomes one word per (position, vertex),
    bit f meaning family f.  Every walk ANDs the words of its t+1 vertices, so one
    word holds its membership in all 64 families: an AND fold down the walk-index
    tree (``_descend``) over the tables ``words[s][successors]``.  Each bit's
    count over the walks comes from a carry-save adder tree (``_bit_counts``).
    Walks are taken in ranges of whole start vertices (d**t walks each), as many
    per range as fit SCRATCH_BYTES at 12 bytes per walk (the leaf word and
    half a word of adder-tree buffer), so the scratch does not grow with the
    walk count; beside it a block holds its t tables of N * d words, and
    ``columns`` is never built.
    """
    masks = _family_masks(g, t, masks)
    space = walk_space(g, t)
    n_blocks = -(-masks.shape[0] // 64)
    packed = np.packbits(masks, axis=0, bitorder="little")
    padded = np.zeros((8 * n_blocks,) + packed.shape[1:], dtype=np.uint8)
    padded[: packed.shape[0]] = packed
    # little-endian words: byte k of block w holds families 64w + 8k ... 64w + 8k + 7
    words = padded.reshape(n_blocks, 8, t + 1, g.n_vertices).transpose(0, 2, 3, 1).copy()
    words = words.view("<u8")[..., 0]
    counts = np.zeros((n_blocks, 64), dtype=np.int64)
    for w in range(n_blocks):
        tables = [words[w, s][space.successors] for s in range(1, t + 1)]
        for lo, hi, parents in space._start_ranges(12):
            # a copy of the root: at t = 0 it is the leaves, which _bit_counts overwrites
            leaves = _descend(parents, words[w, 0, lo:hi].copy(), tables, np.bitwise_and)
            counts[w] += _bit_counts(leaves)
    return counts.reshape(-1)[: masks.shape[0]] / space.n_walks


def family_event_probs_matrix(g: HybridGraph, t: int, masks: np.ndarray) -> np.ndarray:
    """Walk-count route for a batch of families: same contract as
    family_event_probs, computed via terminal counts instead of enumeration."""
    return _family_counts(g, _family_masks(g, t, masks)) / walk_count(g, t)


def _family_masks(g: HybridGraph, t: int, masks) -> np.ndarray:
    """``masks`` as a boolean array, once it has shape (B, t+1, N)."""
    masks = np.asarray(masks, dtype=bool)
    if masks.shape[1:] != (t + 1, g.n_vertices):
        raise StructuralError("masks must have shape (B, t+1, N)")
    return masks


def projection_objects(g: HybridGraph, t: int) -> tuple:
    """The uniform walk space plus its t+1 position projections as random
    objects, whose index maps are the rows of ``walk_space(g, t).columns``,
    shared in their narrow dtype."""
    columns = walk_space(g, t).columns
    space = FiniteSpace.uniform(columns.shape[1])
    codomain = tuple(range(g.n_vertices))
    objects = [RandomObject(space, codomain, col) for col in columns]
    return space, objects
