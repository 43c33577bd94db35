"""The keyed, counter-based generator, and the tolerances the layers share.

Every random draw comes from one keyed, counter-based generator (``words``):
word c of key k is the splitmix64 finalizer of
``(c + 1) * 0x9E3779B97F4A7C15 + mix(k)``.  A draw site's key is the user seed
under that site's fixed stream id (``stream_key``), and each draw reads its own
counter, so a draw does not depend on how many draws came before it or on how
they were batched.  Uniform floats, 0/1 flags, bounded integers and
permutations are derived from the words.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ParameterError

RATIO_TOL = 1e-9          # joint/product ratios up to 1 + RATIO_TOL count as bounded
ROUTE_AGREE_TOL = 1e-12   # largest gap between two routes to one number

# stream ids: one per draw site, so no two sites read the same words for a seed
STREAM_PERMUTATION = 1   # a random vertex or input permutation (verify-beta, amplify)
STREAM_FAMILIES = 2      # sampled families of the independence checks
STREAM_AGREE = 3         # verify-beta's route-agreement families
STREAM_SWEEP = 4         # the instance seeds of a bound sweep
STREAM_INSTANCE = 5      # a random product instance's marginals and Z values
STREAM_SUBSEEDS = 6      # amplify's oracle, reduction and Monte Carlo seeds
STREAM_ORACLE = 7        # an adversary oracle's per-query coin
STREAM_REDUCTION = 8     # a reduction's per-query position and fillers
STREAM_INPUTS = 9        # Monte Carlo inputs of measure_inversion
# stream id 10 is retired: no draw site reads it

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK64 = (1 << 64) - 1


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array (which it returns);
    a bijection of 64-bit words with mix(0) = 0."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def words(key, counters) -> np.ndarray:
    """Word c of key k for every counter: ``mix((c + 1) * 0x9E3779B97F4A7C15 +
    mix(k))`` as uint64, modulo 2**64.  ``key`` is a 64-bit int or a uint64 array
    that broadcasts against ``counters``.  At a fixed key distinct counters give
    distinct words, since both maps are bijections."""
    counters = np.asarray(counters, dtype=np.uint64)
    mixed = _mix(np.array(key, dtype=np.uint64, ndmin=1))
    z = np.empty(np.broadcast_shapes(counters.shape, mixed.shape), dtype=np.uint64)
    np.add(counters, np.uint64(1), out=z)
    z *= _GOLDEN
    z += mixed
    return _mix(z)


def stream_keys(seeds: Sequence[int], stream: int) -> np.ndarray:
    """(len(seeds),) uint64: the key of draw site ``stream`` under each seed.

    A seed is read in 64-bit limbs, lowest first, and each limb l takes the key
    k (the stream id before the first limb) to word k of key l.  So a seed below
    2**64 has key ``words(seed, stream)``, and every nonnegative seed has one.
    """
    rest = [int(s) for s in seeds]
    if any(s < 0 for s in rest):
        raise ParameterError("seeds must be >= 0")
    keys = np.full(len(rest), stream, dtype=np.uint64)
    todo = np.arange(len(rest))
    while todo.size:
        limbs = np.array([rest[i] & _MASK64 for i in todo], dtype=np.uint64)
        keys[todo] = words(limbs, keys[todo])
        for i in todo:
            rest[i] >>= 64
        todo = todo[[rest[i] > 0 for i in todo]]
    return keys


def stream_key(seed: int, stream: int) -> int:
    """The key of draw site ``stream`` under ``seed`` (see ``stream_keys``)."""
    return int(stream_keys([seed], stream)[0])


def uniforms(key, counters) -> np.ndarray:
    """Floats in [0, 1), one per counter: the top 53 bits of its word."""
    return (words(key, counters) >> np.uint64(11)) * 2.0 ** -53


def coins(key: int, lo: int, hi: int) -> np.ndarray:
    """Flips lo .. hi-1 of key's 0/1 stream as a bool array: flip f is bit f % 64
    of word f // 64, so every bit of a word is used."""
    first = lo // 64
    w = words(key, np.arange(first, -(-hi // 64), dtype=np.uint64))
    bits = np.unpackbits(w.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return bits[lo - 64 * first: hi - 64 * first].view(bool)


def integers(key: int, counters, bound: int) -> np.ndarray:
    """Exactly uniform int64 draws in [0, bound), one per counter, for
    1 <= bound <= 2**63.

    A draw is its word's low bits under the smallest mask 2**b - 1 that covers
    bound - 1; at a power of two every draw is accepted.  A draw of bound or
    more is rejected and read again at the same counter of key + 1, then of
    key + 2, and so on, so it stays one counter's draw.
    """
    if not 1 <= bound <= 1 << 63:
        raise ParameterError(f"bound must lie in 1..2**63, got {bound}")
    key = int(key)
    mask = np.uint64((1 << (bound - 1).bit_length()) - 1)
    counters = np.asarray(counters, dtype=np.uint64)
    out = (words(key, counters) & mask).astype(np.int64)
    if bound & (bound - 1) == 0:
        return out
    redraw = np.flatnonzero(out >= bound)
    shift = 0
    while redraw.size:
        shift += 1
        out.flat[redraw] = words((key + shift) & _MASK64, counters.flat[redraw]) & mask
        redraw = redraw[out.flat[redraw] >= bound]
    return out


def permutation(key: int, n: int) -> np.ndarray:
    """A uniformly random permutation of range(n) as int64: the argsort of words
    0 .. n-1 of ``key``.  The words are distinct, so the order is unique and
    every sort algorithm, stable or not, returns the same permutation."""
    return np.argsort(words(key, np.arange(n, dtype=np.uint64)))
