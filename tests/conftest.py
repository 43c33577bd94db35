"""Shared fixtures and harness-only oracles.

The harness may do things the library must not: reverse_inv inverts the vertex
permutation by table lookup to decode reverse packings, the integer
walk-counting oracle recomputes event masses in exact arithmetic independent of
any matrix product, and dense_oracle builds the one-step matrix slot by slot.
"""

from fractions import Fraction

import numpy as np
import pytest

import walkbound as wb
from walkbound import walks


@pytest.fixture(scope="session")
def rot2():
    return wb.mgg_rotation(2)


@pytest.fixture(scope="session")
def g_identity(rot2):
    return wb.HybridGraph(rot2, np.arange(rot2.n_vertices))


@pytest.fixture(scope="session")
def g_random(rot2):
    perm = np.random.default_rng(7).permutation(rot2.n_vertices)
    return wb.HybridGraph(rot2, perm)


@pytest.fixture
def announce(capsys):
    """Print a line straight to the terminal, bypassing pytest capture."""

    def _p(line):
        with capsys.disabled():
            print(line)

    return _p


# small graphs for the walk-space kernels: k4 has degree 3, so no bit packing
TREE_GRAPHS = [("k4", "identity"), ("k4", "random"), ("mgg2", "identity"), ("mgg2", "random")]


def tree_graph(rotation, perm):
    rot = wb.k4_rotation() if rotation == "k4" else wb.mgg_rotation(2)
    n = rot.n_vertices
    p = np.arange(n) if perm == "identity" else np.random.default_rng(41).permutation(n)
    return wb.HybridGraph(rot, p)


def reverse_table(g, t):
    """The reverse packing of every t-step walk, in walk-index order: the walk
    permutation's ``table``, put together from the walk space's ranges as that
    table is, so it also serves walk counts that are no power of two."""
    return walks._assemble(wb.walk_space(g, t).reverse_ranges(), wb.walk_count(g, t))


def reverse_inv(g, t, packed):
    """Decode a t-step walk's reverse packing by table-lookup inversion of the
    vertex permutation; the inverse the library deliberately does not ship."""
    inv = np.argsort(g.perm)
    cur, back = divmod(packed, g.d ** t)
    vertices = [cur]
    fwd = []
    for s in range(t - 1, -1, -1):    # the last step's back label is the top digit
        v = int(inv[cur])
        u, j = g.rot.rotate(v, back // g.d ** s % g.d)
        vertices.append(u)
        fwd.append(j)
        cur = u
    return wb.Walk(tuple(reversed(vertices)), tuple(reversed(fwd)))


def exact_family_counts(g, t, masks):
    """Per-terminal integer counts of t-walks meeting every position mask.

    Pure-integer dynamic programming over Python ints: exact, and independent of
    both library routes (matrix products and vectorized enumeration).
    """
    n, d = g.n_vertices, g.d
    c = [1 if masks[0][u] else 0 for u in range(n)]
    for i in range(1, t + 1):
        nxt = [0] * n
        for u in range(n):
            if c[u]:
                for j in range(d):
                    nxt[g.step(u, j)] += c[u]
        c = [nxt[u] if masks[i][u] else 0 for u in range(n)]
    return c


def exact_family_prob(g, t, masks):
    total = g.n_vertices * g.d ** t
    return Fraction(sum(exact_family_counts(g, t, masks)), total)


def dense_oracle(g):
    """The one-step matrix ``A[u, v] = #{j : step(u, j) = v} / d`` of a rotation
    (its ``rotate``) or a hybrid graph (its ``step``), looped slot by slot:
    independent of the library's tables, push and dense builder."""
    if isinstance(g, wb.ColoredRotation):
        step = lambda u, j: g.rotate(u, j)[0]   # noqa: E731
    else:
        step = g.step
    n, d = g.n_vertices, g.d
    counts = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for j in range(d):
            counts[u, step(u, j)] += 1
    return counts / d
