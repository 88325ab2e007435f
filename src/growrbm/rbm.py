"""Restricted Boltzmann machine core.

Defines the bipartite energy model over binary visible and hidden
vectors, exact enumeration-based quantities for tiny models (partition
function, joint probabilities, exact log-likelihood and its gradient),
conditional distributions in both directions, and the contrastive
divergence estimator used for training at realistic sizes.

:class:`Rbm` is the one layer type.  The recurrent layer and its
gradient subclass :class:`Rbm` and :class:`RbmGradient` with more array
fields, so copying, validation, gradient arithmetic and the update step
(:func:`_apply_update`) are written once, over the fields in order.
``HIDDEN`` names the per-hidden-unit arrays that growth and pruning edit.

The CD-k Gibbs chain, :func:`_cd_chain`, also serves the recurrent
model's BPTT-CD gradient.  It takes its uniforms pre-drawn, one block
per Bernoulli draw in the order the chain consumes them, so each caller
keeps its own stream layout.

Conventions used throughout the package:

* rows are samples, so a batch is ``(N, I)`` and ``W`` has shape
  ``(I, J)`` with hidden activations computed as ``v @ W + c``;
* all gradient records point in the direction of *ascent* on
  log-likelihood, i.e. a trainer applies ``param += lr * grad``;
* exact operations refuse models with more than ``ENUM_LIMIT`` total
  units rather than silently taking forever.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import CapacityError, DimensionError
from .numerics import RngStream, sigmoid

ENUM_LIMIT = 24


@dataclass
class CdConfig:
    """Contrastive divergence hyperparameters."""

    k: int = 1
    learning_rate: float = 0.01
    batch_size: int = 100

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("cd k must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass
class Rbm:
    """Model parameters: visible bias ``b``, hidden bias ``c``, weights ``W``.

    The field order is the array order of :meth:`arrays`, gradients and
    checkpoints.  ``HIDDEN`` arrays hold one entry per hidden unit on
    their last axis.
    """

    b: np.ndarray
    c: np.ndarray
    W: np.ndarray

    HIDDEN = ("c", "W")

    @property
    def n_visible(self) -> int:
        return self.b.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.c.shape[0]

    @staticmethod
    def random(n_visible: int, n_hidden: int, rng: RngStream,
               weight_sd: float = 0.01) -> "Rbm":
        """Zero biases, Gaussian weights with the given standard deviation."""
        if n_visible < 1 or n_hidden < 1:
            raise ValueError("layer sizes must be >= 1")
        return Rbm(
            b=np.zeros(n_visible),
            c=np.zeros(n_hidden),
            W=rng.normal(sd=weight_sd, size=(n_visible, n_hidden)),
        )

    @staticmethod
    def zeros(n_visible: int, n_hidden: int) -> "Rbm":
        return Rbm(np.zeros(n_visible), np.zeros(n_hidden),
                   np.zeros((n_visible, n_hidden)))

    def copy(self):
        return type(self)(*(arr.copy() for arr in vars(self).values()))

    def arrays(self) -> dict:
        """Every array by field name, in field order."""
        return dict(vars(self))

    def _shapes(self) -> dict:
        """Expected shape of every array, by field name."""
        i, j = self.n_visible, self.n_hidden
        return {"b": (i,), "c": (j,), "W": (i, j)}

    def validate(self):
        """Raise if an array has the wrong shape or a non-finite value,
        checking the arrays in field order."""
        for name, arr in self.arrays().items():
            if arr.ndim == 0:  # the layer sizes read ``shape[0]``
                raise DimensionError(
                    f"{name} has shape (), expected at least one axis")
        for name, shape in self._shapes().items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DimensionError(
                    f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite values in {name}")


@dataclass
class RbmGradient:
    """Ascent-direction gradients, one field per model array, in the
    model's field order."""

    db: np.ndarray
    dc: np.ndarray
    dW: np.ndarray

    @classmethod
    def zeros(cls, model: Rbm) -> "RbmGradient":
        return cls(*map(np.zeros_like, vars(model).values()))

    def add_(self, other: "RbmGradient") -> "RbmGradient":
        """Add ``other``, which may hold only ``(b, c, W)``, in place."""
        for name, arr in vars(other).items():
            getattr(self, name).__iadd__(arr)
        return self

    def scale_(self, s: float) -> "RbmGradient":
        for arr in vars(self).values():
            arr *= s
        return self

    def norm(self) -> float:
        return float(np.sqrt(sum(np.sum(arr ** 2)
                                 for arr in vars(self).values())))

    def clip_(self, max_norm: float) -> "RbmGradient":
        n = self.norm()
        if n > max_norm:
            self.scale_(max_norm / n)
        return self


def _apply_update(model: Rbm, g: RbmGradient, lr: float):
    """Ascent step ``param += lr * grad`` on every array, in place."""
    for arr, step in zip(vars(model).values(), vars(g).values()):
        arr += lr * step


def _check_last_dim(name: str, arr: np.ndarray, expected: int):
    if arr.shape[-1] != expected:
        raise DimensionError(
            f"{name} has trailing dimension {arr.shape[-1]}, expected {expected}")


def energy(rbm: Rbm, v, h):
    """Joint energy ``-b.v - c.h - v.W.h``.

    Accepts single vectors or stacked rows; ``h`` may hold probabilities,
    in which case the result is the conditional expected energy (the
    energy is multilinear in the units, so the expectation just
    substitutes means).
    """
    v = np.asarray(v, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    _check_last_dim("visible vector", v, rbm.n_visible)
    _check_last_dim("hidden vector", h, rbm.n_hidden)
    term = v @ rbm.b + h @ rbm.c + np.sum((v @ rbm.W) * h, axis=-1)
    return -term


def all_states(n: int) -> np.ndarray:
    """All 2**n binary vectors of length n as float rows, counting order."""
    if n == 0:
        return np.zeros((1, 0))
    counts = np.arange(2 ** n, dtype=np.int64)
    bits = (counts[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return bits.astype(np.float64)


def _guard_exact(rbm: Rbm, limit: int = ENUM_LIMIT):
    if rbm.n_visible + rbm.n_hidden > limit:
        raise CapacityError(
            f"exact computation limited to {limit} total units, "
            f"model has {rbm.n_visible + rbm.n_hidden}")


def free_energy(rbm: Rbm, v) -> np.ndarray:
    """``F(v) = -b.v - sum_j softplus(c_j + (vW)_j)``; rows in, scalars out."""
    v = np.asarray(v, dtype=np.float64)
    _check_last_dim("visible vector", v, rbm.n_visible)
    return -(v @ rbm.b) - np.sum(np.logaddexp(0.0, v @ rbm.W + rbm.c), axis=-1)


def _hidden_free_energy(rbm: Rbm, h) -> np.ndarray:
    """Mirror image of :func:`free_energy` with hidden units enumerated."""
    h = np.asarray(h, dtype=np.float64)
    return -(h @ rbm.c) - np.sum(np.logaddexp(0.0, h @ rbm.W.T + rbm.b), axis=-1)


def log_partition_exact(rbm: Rbm) -> float:
    """Exact log Z, enumerating whichever layer is smaller."""
    _guard_exact(rbm)
    if rbm.n_visible <= rbm.n_hidden:
        states = all_states(rbm.n_visible)
        return float(logsumexp(-free_energy(rbm, states)))
    states = all_states(rbm.n_hidden)
    return float(logsumexp(-_hidden_free_energy(rbm, states)))


def partition_function_exact(rbm: Rbm) -> float:
    """Exact partition function; use :func:`log_partition_exact` when Z overflows."""
    return float(np.exp(log_partition_exact(rbm)))


def prob_exact(rbm: Rbm, v, h) -> float:
    """Exact joint probability of one (v, h) configuration."""
    _guard_exact(rbm)
    e = energy(rbm, v, h)
    return float(np.exp(-e - log_partition_exact(rbm)))


def hidden_conditional(rbm: Rbm, v) -> np.ndarray:
    """``p(h_j = 1 | v)`` for each hidden unit; supports stacked rows."""
    v = np.asarray(v, dtype=np.float64)
    _check_last_dim("visible vector", v, rbm.n_visible)
    return sigmoid(v @ rbm.W + rbm.c)


def visible_conditional(rbm: Rbm, h) -> np.ndarray:
    """``p(v_i = 1 | h)`` for each visible unit; supports stacked rows."""
    h = np.asarray(h, dtype=np.float64)
    _check_last_dim("hidden vector", h, rbm.n_hidden)
    return sigmoid(h @ rbm.W.T + rbm.b)


def log_likelihood_exact(rbm: Rbm, batch) -> float:
    """Mean log-likelihood of the rows of ``batch`` under the exact model."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    return float(np.mean(-free_energy(rbm, batch)) - log_partition_exact(rbm))


def log_likelihood_gradient_exact(rbm: Rbm, batch) -> RbmGradient:
    """Exact ascent gradient of the mean log-likelihood for a tiny model.

    Data statistics use the hidden conditionals; model statistics are
    computed by enumerating the smaller layer exactly.
    """
    _guard_exact(rbm)
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    _check_last_dim("batch", batch, rbm.n_visible)

    h_data = hidden_conditional(rbm, batch)
    data_v = batch.mean(axis=0)
    data_h = h_data.mean(axis=0)
    data_vh = batch.T @ h_data / batch.shape[0]

    if rbm.n_visible <= rbm.n_hidden:
        states = all_states(rbm.n_visible)
        logw = -free_energy(rbm, states)
        p = np.exp(logw - logsumexp(logw))
        cond = hidden_conditional(rbm, states)
        model_v = p @ states
        model_h = p @ cond
        model_vh = states.T @ (cond * p[:, None])
    else:
        states = all_states(rbm.n_hidden)
        logw = -_hidden_free_energy(rbm, states)
        p = np.exp(logw - logsumexp(logw))
        cond = visible_conditional(rbm, states)
        model_v = p @ cond
        model_h = p @ states
        model_vh = cond.T @ (states * p[:, None])

    return RbmGradient(data_v - model_v, data_h - model_h, data_vh - model_vh)


def _chain_widths(n_visible: int, n_hidden: int, k: int) -> list:
    """Widths of the uniform blocks a CD-k chain consumes, in draw order."""
    return [n_hidden] + [n_visible, n_hidden] * (k - 1)


def _cd_chain(W: np.ndarray, b, c, v: np.ndarray, uniforms):
    """The CD-k Gibbs chain from data rows ``v``; returns
    ``(h_data, v_prob, h_model)``.

    ``b`` and ``c`` are bias vectors or one bias row per data row.
    ``uniforms`` holds one ``(rows, width)`` block per Bernoulli draw,
    with widths :func:`_chain_widths`: the hidden sample, then a visible
    and a hidden sample per further step.  Intermediate states are
    sampled; the final visible state and the negative hidden statistics
    are probabilities, to cut sampling noise.
    """
    h_data = sigmoid(v @ W + c)
    h = (uniforms[0] < h_data).astype(np.float64)
    v_prob = sigmoid(h @ W.T + b)
    for u_v, u_h in zip(uniforms[1::2], uniforms[2::2]):
        v = (u_v < v_prob).astype(np.float64)
        h = (u_h < sigmoid(v @ W + c)).astype(np.float64)
        v_prob = sigmoid(h @ W.T + b)
    return h_data, v_prob, sigmoid(v_prob @ W + c)


def cd_step(rbm: Rbm, batch, cfg: CdConfig, rng: RngStream) -> RbmGradient:
    """One CD-k gradient estimate; does not modify the model.

    Positive statistics pair the data with its hidden conditionals; the
    negative ones come from :func:`_cd_chain`, whose uniform blocks are
    drawn from ``rng`` in chain order.  Visible inputs may be
    probabilities in [0, 1] (stacked-layer training feeds activations).
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    _check_last_dim("batch", batch, rbm.n_visible)
    if batch.min() < 0.0 or batch.max() > 1.0:
        raise ValueError("visible batch values must lie in [0, 1]")

    n = batch.shape[0]
    uniforms = [rng.uniform(size=(n, w))
                for w in _chain_widths(rbm.n_visible, rbm.n_hidden, cfg.k)]
    h_data, v_prob, h_model = _cd_chain(rbm.W, rbm.b, rbm.c, batch, uniforms)
    db = batch.mean(axis=0) - v_prob.mean(axis=0)
    dc = h_data.mean(axis=0) - h_model.mean(axis=0)
    dW = (batch.T @ h_data - v_prob.T @ h_model) / n
    return RbmGradient(db, dc, dW)
