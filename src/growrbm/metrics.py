"""Prediction-quality metrics pooled over bits.

Both metrics treat their inputs as flat collections of (probability,
target) pairs: every bit of every frame of every sequence counts once,
so long sequences weigh more than short ones.  The cross-entropy
computes its terms in place into scratch, which a caller scoring a
whole set every epoch keeps for the layer (``dbn._EpochFrames``).
"""
from __future__ import annotations

import numpy as np


def cross_entropy_per_bit(pred, actual, scratch=None) -> float:
    """Mean ``-[v log p + (1-v) log(1-p)]`` in nats over all entries.

    Predictions must lie strictly inside (0, 1); the model side of this
    package guarantees that.  Targets may be fractional (stacked layers
    train against activations), in which case this is the usual
    cross-entropy between two Bernoulli distributions per bit.

    The terms are computed in place into ``scratch``, a float64 array of
    shape ``(2,) + pred.shape``, overwritten; without it, into a fresh
    one.  A caller scoring the same whole set every epoch passes a
    buffer it keeps, so the pass allocates nothing of the set's size.
    """
    p = np.asarray(pred, dtype=np.float64)
    v = np.asarray(actual, dtype=np.float64)
    if p.shape != v.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {v.shape}")
    if p.size == 0:
        raise ValueError("no entries to score")
    if scratch is None:
        scratch = np.empty((2,) + p.shape)
    hit, miss = scratch[0, ...], scratch[1, ...]  # arrays even when 0-d
    np.subtract(1.0, v, miss)
    np.multiply(miss, np.log1p(np.negative(p, hit), hit), miss)
    np.multiply(v, np.log(p, hit), hit)
    return float(np.mean(np.negative(np.add(hit, miss, hit), hit)))


def fraction_correct(pred, actual) -> float:
    """Share of bits where thresholding the prediction at 1/2 recovers the
    target; a prediction of exactly 1/2 rounds to 0."""
    p = np.asarray(pred, dtype=np.float64)
    v = np.asarray(actual, dtype=np.float64)
    if p.shape != v.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {v.shape}")
    if p.size == 0:
        raise ValueError("no entries to score")
    return float(np.mean((p > 0.5) == (v > 0.5)))


class PooledMetrics:
    """Accumulates (prediction, target) blocks and reports pooled scores."""

    def __init__(self):
        self._preds = []
        self._actuals = []

    def add(self, pred, actual):
        pred = np.asarray(pred, dtype=np.float64)
        actual = np.asarray(actual, dtype=np.float64)
        if pred.shape != actual.shape:
            raise ValueError(f"shape mismatch: {pred.shape} vs {actual.shape}")
        if pred.size:
            self._preds.append(pred.reshape(-1))
            self._actuals.append(actual.reshape(-1))

    @property
    def empty(self) -> bool:
        return not self._preds

    def cross_entropy(self) -> float:
        return cross_entropy_per_bit(np.concatenate(self._preds),
                                     np.concatenate(self._actuals))

    def correct_ratio(self) -> float:
        return fraction_correct(np.concatenate(self._preds),
                                np.concatenate(self._actuals))
