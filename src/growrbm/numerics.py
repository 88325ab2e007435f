"""Deterministic random streams and numerically safe elementwise ops.

Everything stochastic in this package draws from an :class:`RngStream`.
A stream is identified by a 64-bit key feeding a counter-based generator
(Philox), so two streams built from the same key always produce the same
draws regardless of platform or call site.  Child streams are derived by
hashing the parent key with an integer index, never by consuming draws,
which lets training code hand out per-epoch and per-batch streams that
stay stable when unrelated code changes how much randomness it uses.  A
hot loop that needs one short-lived child per step re-keys a single
stream in place (:meth:`RngStream.split_into`) instead of building a new
generator each time; the shared epoch loop serves the batch streams of
both model families that way.

:func:`sigmoid` refuses a non-finite input, so an overflow upstream
raises one ``FloatingPointError``.  A vectorised pass hands its
pre-activations to :func:`sigmoid` and silences numpy's overflow
warnings (``np.errstate``), which would only repeat that error.  Four
loops, the CD-k chain :func:`~growrbm.rbm._cd_chain`, the mean-field
passes :func:`~growrbm.rnn_rbm._mean_field_marginals` and the recursions
:func:`~growrbm.rnn_rbm.unroll` and
:func:`~growrbm.rnn_dbn.sample_sequence_deep`, keep one rule: bare
``expit``, one :func:`_unclamped` test, rerun on :func:`sigmoid` (in
place, through ``out``) where the test fails, which raises at the first
non-finite input.  The sampler's test, or the rerun, stands for the
range check of the tests' ``sample_bernoulli`` (``tests/references.py``),
so it draws by :func:`_draw`.
Their tiny per-step calls, and those of :func:`~growrbm.rbm.cd_step`,
which runs once per batch, pass outputs positionally
(``np.add(a, b, c)`` 335 ns, with ``out=c`` 384 ns), multiply by
``ndarray.dot`` (344 ns; ``np.dot`` dispatches in Python, 544 ns) or
``np.matmul`` and transpose by view (0.14 us; ``np.moveaxis`` 3.6 us).
A step's operands are contiguous: an ``(8, 12)`` step of a batch-major
``(8, 25, 12)`` array is a strided view, which costs ``np.multiply`` or
``np.add`` 1.3-1.5 us against 0.35-0.66 us for a contiguous one, so a
recursion over time steps runs on time-major copies
(:func:`~growrbm.rnn_rbm._chain_through_state`; 2-core VM, numpy 2.4.6).
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ZERO_BLOCK = (0, 0, 0, 0)  # a Philox counter or buffer before any draw

# sigmoid outputs are clamped into the open interval (0, 1) so that
# downstream log() / log1p() calls never see an exact 0 or 1.  The bounds
# are 0-d float64 arrays: a ufunc takes one in about half the time it
# takes to convert a Python float, and the results are the same.
_SIG_LO = np.array(np.finfo(np.float64).tiny)
_SIG_HI = np.array(np.nextafter(1.0, 0.0))
_SIG_LO.flags.writeable = _SIG_HI.flags.writeable = False
_LO, _HI = float(_SIG_LO), float(_SIG_HI)  # compared faster as floats


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

    def split_into(self, index: int, child: "RngStream") -> "RngStream":
        """Re-key ``child`` in place to ``self.split(index)``; returns it.

        The child's bit generator is set to the state a fresh
        ``Philox(key=k)`` starts in (counter 0, key ``[k, 0]``, no
        buffered words), so it then draws exactly what a new split would,
        whatever it drew before.  Cheaper than a split in a hot loop:
        the shared epoch loop re-keys one stream to every batch's, for
        both model families.
        """
        child.key = self._child_key(index)
        child._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_BLOCK, "key": (child.key, 0)},
            "buffer": _ZERO_BLOCK, "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0}
        return child

    def _child_key(self, index: int) -> int:
        index = int(index)
        if index < 0:
            raise ValueError("split index must be non-negative")
        return _splitmix64(self.key ^ _splitmix64(index))

    # thin wrappers over the numpy Generator so callers never touch it
    def uniform(self, size=None, out=None):
        """Uniforms on [0, 1), drawn into the float64 array ``out`` if
        given: the values a fresh array of its shape would hold."""
        return self._gen.random(size, out=out)

    def normal(self, sd: float = 1.0, size=None):
        return self._gen.normal(0.0, sd, size)

    def integers(self, n: int) -> int:
        return int(self._gen.integers(n))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def sigmoid(x, out=None):
    """Logistic function clamped into the open interval (0, 1).

    Input must be finite, checked before anything is written; output is
    never exactly 0 or 1, so callers can take logs without guarding.
    Shape is preserved.  Given ``out`` (which may be ``x``), the result
    is written there and ``out`` is returned (:func:`_logistic`).
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise FloatingPointError("sigmoid: non-finite input")
    res = _logistic(arr, out)
    return res if res.ndim or out is not None else res[()]


def _logistic(x: np.ndarray, out=None) -> np.ndarray:
    """:func:`sigmoid` of a float64 array without the finiteness check,
    into ``out`` if given."""
    out = np.asarray(expit(x, out=out))  # a 0-d input gives a scalar
    np.maximum(out, _SIG_LO, out=out)
    np.minimum(out, _SIG_HI, out=out)
    return out


def _unclamped(a: np.ndarray) -> bool:
    """Whether the ``expit`` output ``a`` lies in ``[tiny, 1 - 2**-53]``,
    where the clamp of :func:`_logistic` changes nothing.  NaN fails, and
    so do the 0 and 1 of infinite inputs: ``a`` came from finite ones."""
    return not a.size or (a.min() >= _LO and a.max() <= _HI)


def _draw(p: np.ndarray, rng: RngStream) -> np.ndarray:
    """Independent 0/1 floats with success probabilities ``p``, a
    float64 array known to lie in [0, 1]: the tests' ``sample_bernoulli``
    (``tests/references.py``) without its range check."""
    return (rng.uniform(size=p.shape) < p).astype(np.float64)
