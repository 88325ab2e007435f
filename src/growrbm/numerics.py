"""Deterministic random streams and numerically safe elementwise ops.

Everything stochastic in this package draws from an :class:`RngStream`.
A stream is identified by a 64-bit key feeding a counter-based generator
(Philox), so two streams built from the same key always produce the same
draws regardless of platform or call site.  Child streams are derived by
hashing the parent key with an integer index, never by consuming draws,
which lets training code hand out per-epoch / per-batch / per-frame
streams that stay stable when unrelated code changes how much randomness
it uses.

Philox4x64-10 is counter-based (Salmon, Moraes, Dror & Shaw 2011,
*Parallel random numbers: as easy as 1, 2, 3*, SC11): block ``n`` of the
stream keyed ``k`` is a pure function of ``(k, n)``.  So the first draws
of many child streams can be computed at once.  :func:`philox4x64` runs
the ten Philox rounds in numpy ``uint64`` arithmetic over an array of
keys, bit for bit as ``np.random.Philox`` does, and
:meth:`RngStream.frame_uniforms` derives the child keys with an array
splitmix64 and serves a whole batch of per-frame streams in one call.
The scalar ``_splitmix64`` behind :meth:`RngStream.split` stays pure
Python: a single split is cheaper that way.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# sigmoid outputs are clamped into the open interval (0, 1) so that
# downstream log() / log1p() calls never see an exact 0 or 1.
_SIG_LO = float(np.finfo(np.float64).tiny)
_SIG_HI = float(np.nextafter(1.0, 0.0))


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; bijective on 64-bit ints."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` elementwise over a ``uint64`` array (wrapping)."""
    z = x + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# Philox4x64 multipliers and key bumps (Weyl constants), one row per
# multiplied counter word, and the 32-bit halves of the multipliers
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]],
                     dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32
_PHILOX_ROUNDS = 10


def _mulhi64(x: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products ``_PHILOX_M * x``, row by row,
    built from 32-bit halves so that no partial sum exceeds 64 bits."""
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    t = x_hi * _M_LO + ((x_lo * _M_LO) >> _SHIFT32)
    mid = (t & _LO32) + x_lo * _M_HI
    return x_hi * _M_HI + (t >> _SHIFT32) + (mid >> _SHIFT32)


def philox4x64(keys: np.ndarray, n_words: int) -> np.ndarray:
    """The first ``n_words`` raw 64-bit outputs of ``np.random.Philox(key=k)``
    for every ``k`` in ``keys``, as an ``(len(keys), n_words)`` array.

    Each stream's key is ``[k, 0]`` and its blocks use counters ``1, 2,
    ...``; all blocks of all keys go through the ten rounds together.
    The counter words ``(c0, c2)`` that the rounds multiply are kept as
    one ``(2, lanes)`` array and ``(c1, c3)`` as another.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1)
    n_blocks = -(-n_words // 4)
    lanes = keys.size * n_blocks
    key = np.zeros((2, lanes), dtype=np.uint64)
    key[0] = np.repeat(keys, n_blocks)
    even = np.zeros((2, lanes), dtype=np.uint64)
    even[0] = np.tile(np.arange(1, n_blocks + 1, dtype=np.uint64), keys.size)
    odd = np.zeros((2, lanes), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        even, odd = _mulhi64(even)[::-1] ^ odd ^ key, (even * _PHILOX_M)[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)
    return words.reshape(keys.size, 4 * n_blocks)[:, :n_words]


def uniforms_from_words(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw words, as ``Generator.random`` makes them:
    the top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


class RngStream:
    """Counter-based random stream with cheap deterministic splitting.

    Parameters
    ----------
    seed:
        Any integer; reduced to 64 bits.  Streams with equal seeds are
        bit-identical.
    """

    __slots__ = ("key", "_gen")

    def __init__(self, seed: int):
        self.key = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.key))

    def split(self, index: int) -> "RngStream":
        """Derive an independent child stream from (key, index).

        Splitting is a pure function of the parent key: it does not
        advance this stream, and the same index always yields the same
        child.  Distinct indices yield distinct Philox keys and hence
        non-overlapping draw sequences.
        """
        return RngStream(self._child_key(index))

    def _child_key(self, index: int) -> int:
        index = int(index)
        if index < 0:
            raise ValueError("split index must be non-negative")
        return _splitmix64(self.key ^ _splitmix64(index))

    def frame_uniforms(self, splits, lengths, width: int) -> np.ndarray:
        """Stacked uniform rows of two-level child streams.

        For each split index ``s`` in ``splits`` with ``T`` in ``lengths``,
        the ``T`` rows ``self.split(s).split(t).uniform(size=width)`` for
        ``t = 0 .. T - 1`` follow each other, bit for bit, so the result
        has ``sum(lengths)`` rows.  All child keys come from one array
        splitmix64 pass per level and all rows from one
        :func:`philox4x64` call.  This stream does not advance.
        """
        splits = np.asarray(splits, dtype=np.int64).reshape(-1)
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if splits.shape != lengths.shape:
            raise ValueError("one length per split index is needed")
        if splits.size and min(splits.min(), lengths.min()) < 0:
            raise ValueError("split indices and lengths must be non-negative")
        seq_keys = _splitmix64_array(
            np.uint64(self.key) ^ _splitmix64_array(splits.astype(np.uint64)))
        n_rows = int(lengths.sum())
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        frames = np.arange(n_rows, dtype=np.int64) - starts
        frame_mix = _splitmix64_array(np.arange(lengths.max(initial=0),
                                                dtype=np.uint64))
        row_keys = _splitmix64_array(np.repeat(seq_keys, lengths)
                                     ^ frame_mix[frames])
        return uniforms_from_words(philox4x64(row_keys, width))

    # thin wrappers over the numpy Generator so callers never touch it
    def uniform(self, size=None):
        return self._gen.random(size)

    def normal(self, sd: float = 1.0, size=None):
        return self._gen.normal(0.0, sd, size)

    def integers(self, n: int) -> int:
        return int(self._gen.integers(n))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def sigmoid(x):
    """Logistic function clamped into the open interval (0, 1).

    Input must be finite; output is never exactly 0 or 1, so callers can
    take logs without guarding.  Shape is preserved.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError("sigmoid: non-finite input")
    return np.clip(expit(arr), _SIG_LO, _SIG_HI)


def sample_bernoulli(p, rng: RngStream) -> np.ndarray:
    """Draw independent 0/1 floats with success probabilities ``p``.

    ``p == 0`` and ``p == 1`` are honoured exactly.  An empty input
    yields an empty output without consuming draws of a different shape.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("bernoulli probabilities must lie in [0, 1]")
    u = rng.uniform(size=p.shape)
    return (u < p).astype(np.float64)
