"""Exact ground truth for tiny models, by enumeration.

The tests check the fast paths against these: the static model's
energy, free energies, log partition function, joint probabilities and
log-likelihood with its gradient; the recurrent model's sequence cost
with its gradient; :func:`state_update`, one step of the state
recursion; and :func:`visible_conditional`, which the package's CD
chain computes inline.  They live with the tests, outside the package, so no
training, evaluation or sampling code can import them.  Enumeration
refuses models with more than ``ENUM_LIMIT`` units (``SEQ_ENUM_LIMIT``
if recurrent), raising :class:`CapacityError`.
"""
from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from growrbm.errors import DimensionError, GrowRbmError
from growrbm.numerics import sigmoid
from growrbm.rbm import Rbm, RbmGradient, _check_last_dim, hidden_conditional
from growrbm.rnn_rbm import (RnnRbm, RnnRbmGradient, _as_sequence,
                             _chain_through_state, unroll)

ENUM_LIMIT = 24
SEQ_ENUM_LIMIT = 20


class CapacityError(GrowRbmError):
    """A model is too large for an exact (enumeration-based) operation."""


@np.errstate(over="ignore", invalid="ignore")
def visible_conditional(rbm: Rbm, h) -> np.ndarray:
    """``p(v_i = 1 | h)`` for each visible unit; supports stacked rows."""
    h = np.asarray(h, dtype=np.float64)
    _check_last_dim("hidden vector", h, rbm.n_hidden)
    return sigmoid(h @ rbm.W.T + rbm.b)


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


def prob_exact(rbm: Rbm, v, h) -> float:
    """Exact joint probability of one (v, h) configuration."""
    _guard_exact(rbm)
    e = energy(rbm, v, h)
    return float(np.exp(-e - log_partition_exact(rbm)))


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


def state_update(model: RnnRbm, u_prev: np.ndarray, v_t: np.ndarray) -> np.ndarray:
    """Next deterministic state after observing frame ``v_t``."""
    u_prev = np.asarray(u_prev, dtype=np.float64)
    v_t = np.asarray(v_t, dtype=np.float64)
    if v_t.shape[-1] != model.n_visible:
        raise DimensionError(
            f"frame has dimension {v_t.shape[-1]}, expected {model.n_visible}")
    return sigmoid(model.u_bias + u_prev @ model.w_uu + v_t @ model.w_vu)


def sequence_cost_exact(model: RnnRbm, seq) -> float:
    """Exact negative log-likelihood of one sequence (tiny models only)."""
    _guard_exact(model, SEQ_ENUM_LIMIT)
    seq = _as_sequence(seq)
    _, B, C = unroll(model, seq)
    states = all_states(model.n_visible)
    sw = states @ model.W
    cost = 0.0
    for t in range(seq.shape[0]):
        log_unnorm = states @ B[t] + np.sum(np.logaddexp(0.0, sw + C[t]), axis=1)
        log_z = logsumexp(log_unnorm)
        data_term = seq[t] @ B[t] + np.sum(
            np.logaddexp(0.0, seq[t] @ model.W + C[t]))
        cost -= data_term - log_z
    return float(cost)


def sequence_cost_gradient_exact(model: RnnRbm, seq) -> RnnRbmGradient:
    """Exact gradient of :func:`sequence_cost_exact` (descent direction).

    Per-frame partials come from full enumeration of the conditional
    RBM at each step; the recursion chaining is shared with the
    stochastic estimator, so finite-difference agreement here validates
    both.
    """
    _guard_exact(model, SEQ_ENUM_LIMIT)
    seq = _as_sequence(seq)
    t_len = seq.shape[0]
    U, B, C = unroll(model, seq)
    states = all_states(model.n_visible)
    sw = states @ model.W
    DB = np.empty((t_len, model.n_visible))
    DC = np.empty((t_len, model.n_hidden))
    dW = np.zeros_like(model.W)
    for t in range(t_len):
        log_unnorm = states @ B[t] + np.sum(np.logaddexp(0.0, sw + C[t]), axis=1)
        p = np.exp(log_unnorm - logsumexp(log_unnorm))
        cond = sigmoid(sw + C[t])
        h_data = sigmoid(seq[t] @ model.W + C[t])
        DB[t] = p @ states - seq[t]
        DC[t] = p @ cond - h_data
        dW += states.T @ (cond * p[:, None]) - np.outer(seq[t], h_data)
    return _chain_through_state(model, seq, U, DB, DC, dW)
