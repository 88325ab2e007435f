"""Deterministic random streams and numerically safe elementwise ops.

Everything stochastic in this package draws from an :class:`RngStream`.
A stream is identified by a 64-bit key feeding a counter-based generator
(Philox), so two streams built from the same key always produce the same
draws regardless of platform or call site.  Child streams are derived by
hashing the parent key with an integer index, never by consuming draws,
which lets training code hand out per-epoch / per-batch / per-frame
streams that stay stable when unrelated code changes how much randomness
it uses.
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

    def split_uniform_rows(self, n: int, width: int) -> np.ndarray:
        """``(n, width)`` uniforms whose row ``t`` is, bit for bit,
        ``self.split(t).uniform(size=width)``.

        One Philox generator is re-keyed per row instead of building
        ``n`` child streams: resetting its state is several times cheaper
        than constructing a generator, and yields the same doubles.
        """
        out = np.empty((n, width))
        bitgen = np.random.Philox(key=0)
        gen = np.random.Generator(bitgen)
        fresh = bitgen.state
        for t in range(n):
            fresh["state"]["key"] = np.array([self._child_key(t), 0],
                                             dtype=np.uint64)
            bitgen.state = fresh
            out[t] = gen.random(width)
        return out

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
