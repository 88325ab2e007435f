"""Recurrent conditional RBM for sequences.

A deterministic recurrent state ``u`` summarises the past.  At each
frame the state shifts the biases of an otherwise shared RBM:

* visible bias ``b_t = b + u_(t-1) @ w_uv``
* hidden bias  ``c_t = c + u_(t-1) @ w_uh``
* state update ``u_t = sigmoid(u_bias + u_(t-1) @ w_uu + v_t @ w_vu)``

so the sequence likelihood factorises into per-frame conditional RBM
terms.  Training backpropagates per-frame gradient estimates (CD at
scale, exact enumeration in the oracles) through the state recursion.

The batch paths (the BPTT-CD gradient and the epoch summaries) group
their sequences by exact length and stack each group as ``(S, T, I)``,
so one unroll, one pass of the static model's CD-k chain
(:func:`~growrbm.rbm._cd_chain`) over all ``S * T`` frames and one
backward chain serve the whole group.  Grouping changes no random draw:
frame ``t`` of batch sequence ``s`` draws one row of uniforms from
``rng.split(s).split(t)``, cut into the chain's blocks in draw order.
Those streams are counter-based, so the rows of a whole batch, all
groups included, come from one vectorised Philox draw
(:meth:`~growrbm.numerics.RngStream.frame_uniforms`).

:class:`RnnRbm` is a :class:`~growrbm.rbm.Rbm` with six more fields, so
it is copied, validated, updated and checkpointed by the static code.
Its ``HIDDEN`` adds ``w_uh`` to ``c`` and ``W``: the shared growth and
pruning sweeps of :mod:`~growrbm.adapt` resize ``w_uh`` in lockstep, so
the temporal bias keeps one column per hidden unit, and a split unit's
``w_uh`` column starts as fresh small noise, not a copy.  Training runs
the epoch loop shared with the static model,
:func:`~growrbm.adapt._train_layer`, with a clipped update step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .adapt import AdaptConfig, ForgettingConfig, TrainState, _train_layer
from .errors import DimensionError
from .log import TrainLog
from .metrics import PooledMetrics
from .numerics import _SIG_HI, _SIG_LO, RngStream, sigmoid
from .rbm import (CdConfig, Rbm, RbmGradient, _apply_update, _cd_chain,
                  _chain_widths, _guard_exact, all_states)

SEQ_ENUM_LIMIT = 20
MEAN_FIELD_PASSES = 10
GRAD_CLIP = 5.0
U0_MARGIN = 1e-6


@dataclass
class RnnRbm(Rbm):
    """A static RBM whose biases the recurrent state shifts each frame.

    The static fields ``b``, ``c``, ``W`` come first; the recurrent
    arrays follow the shape convention (state in rows): ``w_uv (K, I)``,
    ``w_uh (K, J)``, ``w_vu (I, K)``, ``w_uu (K, K)``, with ``u_bias``
    and the learned initial state ``u0`` of length ``K``.  ``w_uh``
    holds one column per hidden unit, so it is a per-unit array too.
    """

    u_bias: np.ndarray
    w_uv: np.ndarray
    w_uh: np.ndarray
    w_vu: np.ndarray
    w_uu: np.ndarray
    u0: np.ndarray

    HIDDEN = ("c", "W", "w_uh")

    @property
    def u_dim(self) -> int:
        return self.u_bias.shape[0]

    @staticmethod
    def random(n_visible: int, n_hidden: int, rng: RngStream,
               u_dim: int | None = None, weight_sd: float = 0.01) -> "RnnRbm":
        """Small Gaussian weights, zero biases, uniform initial state."""
        k = n_hidden if u_dim is None else u_dim
        if k < 1:
            raise ValueError("state dimension must be >= 1")
        return RnnRbm(
            *vars(Rbm.random(n_visible, n_hidden, rng, weight_sd)).values(),
            u_bias=np.zeros(k),
            w_uv=rng.normal(sd=weight_sd, size=(k, n_visible)),
            w_uh=rng.normal(sd=weight_sd, size=(k, n_hidden)),
            w_vu=rng.normal(sd=weight_sd, size=(n_visible, k)),
            w_uu=rng.normal(sd=weight_sd, size=(k, k)),
            u0=np.clip(rng.uniform(size=k), U0_MARGIN, 1.0 - U0_MARGIN),
        )

    @staticmethod
    def zeros(n_visible: int, n_hidden: int, u_dim: int | None = None) -> "RnnRbm":
        k = n_hidden if u_dim is None else u_dim
        return RnnRbm(*vars(Rbm.zeros(n_visible, n_hidden)).values(),
                      np.zeros(k), np.zeros((k, n_visible)),
                      np.zeros((k, n_hidden)), np.zeros((n_visible, k)),
                      np.zeros((k, k)), np.full(k, 0.5))

    def _shapes(self) -> dict:
        i, j, k = self.n_visible, self.n_hidden, self.u_dim
        return {**super()._shapes(), "u_bias": (k,), "w_uv": (k, i),
                "w_uh": (k, j), "w_vu": (i, k), "w_uu": (k, k), "u0": (k,)}

    def validate(self):
        super().validate()
        if self.u0.min() <= 0.0 or self.u0.max() >= 1.0:
            raise FloatingPointError("initial state left the open unit interval")


@dataclass
class RnnRbmGradient(RbmGradient):
    """The static gradient plus one entry per recurrent array."""

    du: np.ndarray
    dw_uv: np.ndarray
    dw_uh: np.ndarray
    dw_vu: np.ndarray
    dw_uu: np.ndarray
    du0: np.ndarray


def _as_sequence(seq) -> np.ndarray:
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2:
        raise DimensionError(f"sequence must be (frames, dim), got {seq.shape}")
    return seq


def temporal_biases(model: RnnRbm, u_prev: np.ndarray):
    """Frame biases induced by the previous state."""
    u_prev = np.asarray(u_prev, dtype=np.float64)
    if u_prev.shape[-1] != model.u_dim:
        raise DimensionError(
            f"state has dimension {u_prev.shape[-1]}, expected {model.u_dim}")
    return model.b + u_prev @ model.w_uv, model.c + u_prev @ model.w_uh


def state_update(model: RnnRbm, u_prev: np.ndarray, v_t: np.ndarray) -> np.ndarray:
    """Next deterministic state after observing frame ``v_t``."""
    u_prev = np.asarray(u_prev, dtype=np.float64)
    v_t = np.asarray(v_t, dtype=np.float64)
    if v_t.shape[-1] != model.n_visible:
        raise DimensionError(
            f"frame has dimension {v_t.shape[-1]}, expected {model.n_visible}")
    return sigmoid(model.u_bias + u_prev @ model.w_uu + v_t @ model.w_vu)


def unroll(model: RnnRbm, seq):
    """States and per-frame biases along one sequence or a group of them.

    ``seq`` is one sequence ``(T, I)`` or ``S`` equal-length sequences
    stacked as ``(S, T, I)``.  Returns ``(U, B, C)`` with the same leading
    axes, where ``U[..., t, :]`` is the state after ``t`` frames
    (``U[..., 0, :]`` is the learned initial state, so ``U`` has ``T + 1``
    rows per sequence) and ``B[..., t, :] / C[..., t, :]`` are the biases
    used for frame ``t``.

    Only the state recursion runs frame by frame; ``B`` and ``C`` are two
    matrix products over the stacked states afterwards.  Each step
    applies the same clamped logistic as :func:`state_update`, and one
    finiteness check over all pre-activations after the loop raises the
    error :func:`~growrbm.numerics.sigmoid` would have raised.
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim not in (2, 3):
        raise DimensionError("sequence must be (frames, dim) or "
                             f"(sequences, frames, dim), got {seq.shape}")
    if seq.shape[-1] != model.n_visible:
        raise DimensionError(
            f"frame has dimension {seq.shape[-1]}, expected {model.n_visible}")
    # the recursion runs time-major, so each step fills contiguous rows
    lead, t_len = seq.shape[:-2], seq.shape[-2]
    frames = seq.swapaxes(0, -2)
    U = np.empty((t_len + 1,) + lead + (model.u_dim,))
    pre = np.empty((t_len,) + lead + (model.u_dim,))
    U[0] = model.u0
    # an overflow here is reported once, by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(t_len):
            pre[t] = model.u_bias + U[t] @ model.w_uu + frames[t] @ model.w_vu
            u = expit(pre[t], out=U[t + 1])
            np.maximum(u, _SIG_LO, out=u)
            np.minimum(u, _SIG_HI, out=u)
    if not np.all(np.isfinite(pre)):
        raise FloatingPointError("sigmoid: non-finite input")
    U = U.swapaxes(0, -2)
    B = model.b + U[..., :-1, :] @ model.w_uv
    C = model.c + U[..., :-1, :] @ model.w_uh
    return U, B, C


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


def _rows(a: np.ndarray) -> np.ndarray:
    """``(..., n)`` as ``(rows, n)``."""
    return a.reshape(-1, a.shape[-1])


def _chain_through_state(model: RnnRbm, seq: np.ndarray, U: np.ndarray,
                         DB: np.ndarray, DC: np.ndarray,
                         dW_sum: np.ndarray) -> RnnRbmGradient:
    """Push per-frame bias/weight partials through the state recursion.

    Orientation-agnostic: feeds ascent partials in, gets ascent out, and
    likewise for descent.  ``seq``, ``U`` are one sequence or one group
    as returned by :func:`unroll`; ``DB[..., t, :] / DC[..., t, :]`` are
    the partials wrt the frame-``t`` biases; ``dW_sum`` is the summed
    weight partial.  The result is summed over the group.

    Only the backward recursion of the state partial runs frame by
    frame, on all sequences of the group at once; the per-frame
    pre-activation partials ``GA`` are stacked and the recurrent weight
    gradients are matrix products over them.
    """
    direct = DB @ model.w_uv.T + DC @ model.w_uh.T
    slope = U[..., 1:, :] * (1.0 - U[..., 1:, :])
    GA = np.empty_like(direct)
    gu = np.zeros(direct.shape[:-2] + (model.u_dim,))
    for t in range(seq.shape[-2] - 1, -1, -1):
        GA[..., t, :] = gu * slope[..., t, :]
        gu = direct[..., t, :] + GA[..., t, :] @ model.w_uu.T
    U_prev, DB, DC, GA = _rows(U[..., :-1, :]), _rows(DB), _rows(DC), _rows(GA)
    return RnnRbmGradient(
        db=DB.sum(axis=0), dc=DC.sum(axis=0), dW=dW_sum, du=GA.sum(axis=0),
        dw_uv=U_prev.T @ DB, dw_uh=U_prev.T @ DC, dw_vu=_rows(seq).T @ GA,
        dw_uu=U_prev.T @ GA, du0=_rows(gu).sum(axis=0))


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


def _length_groups(model: RnnRbm, sequences):
    """``(positions, stack)`` per distinct sequence length ``T``, in order
    of first appearance: ``stack`` is the ``(S, T, I)`` array of the
    sequences at ``positions`` in ``sequences``."""
    groups = {}
    for n, seq in enumerate(sequences):
        seq = _as_sequence(seq)
        if seq.shape[1] != model.n_visible:
            raise DimensionError(
                f"sequence dimension {seq.shape[1]} does not match model "
                f"visible size {model.n_visible}")
        groups.setdefault(seq.shape[0], []).append((n, seq))
    return [([n for n, _ in group], np.stack([seq for _, seq in group]))
            for group in groups.values()]


def _group_bptt_cd(model: RnnRbm, seqs: np.ndarray, cfg: CdConfig,
                   draws: np.ndarray) -> RnnRbmGradient:
    """CD-based ascent gradient summed over an ``(S, T, I)`` group of
    equal-length sequences, chained through time.

    Given the unrolled states the frames are independent conditional
    RBMs, so the shared chain :func:`~growrbm.rbm._cd_chain` runs once
    on all ``S * T`` frames with per-frame bias rows.  ``draws`` holds
    one row of uniforms per frame, sequence-major, which is split into
    the chain's blocks in draw order.
    """
    if seqs.min() < 0.0 or seqs.max() > 1.0:
        raise ValueError("visible batch values must lie in [0, 1]")
    U, B, C = unroll(model, seqs)
    V = _rows(seqs)
    widths = _chain_widths(model.n_visible, model.n_hidden, cfg.k)
    h_data, v_prob, h_model = _cd_chain(
        model.W, _rows(B), _rows(C), V,
        np.split(draws, np.cumsum(widths)[:-1], axis=1))
    dW = V.T @ h_data - v_prob.T @ h_model
    return _chain_through_state(
        model, seqs, U, (V - v_prob).reshape(seqs.shape),
        (h_data - h_model).reshape(seqs.shape[:2] + (model.n_hidden,)), dW)


def bptt_gradients(model: RnnRbm, batch, cfg: CdConfig,
                   rng: RngStream) -> RnnRbmGradient:
    """Mean ascent gradient over a batch of sequences.

    Frame ``t`` of the sequence at batch position ``s`` draws one row of
    uniforms from ``rng.split(s).split(t)``, as
    :func:`~growrbm.rbm.cd_step` on that frame alone would, so a given
    batch is reproducible from its stream alone.  The batch is split
    into groups of equal length (in order of first appearance); every
    row of every group comes from one
    :meth:`~growrbm.numerics.RngStream.frame_uniforms` call, ordered
    group by group, and each group takes its contiguous slice.  Each
    group then costs one unroll, one CD-k pass over all its frames at
    once and one backward pass through the state (see
    :func:`_group_bptt_cd`).  A sequence keeps the stream of its
    position in the batch, whatever its group, so grouping changes no
    draw.  Normalised by the total number of frames.
    """
    if len(batch) == 0:
        raise ValueError("empty sequence batch")
    groups = _length_groups(model, batch)
    lengths = [seqs.shape[1] for _, seqs in groups]
    if min(lengths) < 1:
        raise ValueError("sequences must have at least one frame")
    sizes = [seqs.shape[0] * seqs.shape[1] for _, seqs in groups]
    draws = rng.frame_uniforms(
        np.concatenate([positions for positions, _ in groups]),
        np.repeat(lengths, [len(positions) for positions, _ in groups]),
        sum(_chain_widths(model.n_visible, model.n_hidden, cfg.k)))
    total = RnnRbmGradient.zeros(model)
    for (_, seqs), rows in zip(groups, np.split(draws, np.cumsum(sizes)[:-1])):
        total.add_(_group_bptt_cd(model, seqs, cfg, rows))
    return total.scale_(1.0 / sum(sizes))


def _mean_field_marginals(W: np.ndarray, b_next: np.ndarray,
                          c_next: np.ndarray) -> np.ndarray:
    """Alternating mean-field passes from the uninformative 1/2 start."""
    v = np.full(b_next.shape, 0.5)
    for _ in range(MEAN_FIELD_PASSES):
        h = sigmoid(c_next + v @ W)
        v = sigmoid(b_next + h @ W.T)
    return v


def predict_next(model: RnnRbm, prefix) -> np.ndarray:
    """Marginal prediction for the frame after ``prefix``.

    An empty prefix predicts from the learned initial state.  The
    conditional RBM at the next step is summarised by mean-field
    marginals, which for a zero-parameter model is exactly 1/2 per bit.
    """
    prefix = np.asarray(prefix, dtype=np.float64)
    if prefix.size == 0:
        prefix = np.zeros((0, model.n_visible))
    U, _, _ = unroll(model, prefix)
    b_next, c_next = temporal_biases(model, U[-1])
    return _mean_field_marginals(model.W, b_next, c_next)


def next_frame_predictions(model: RnnRbm, seq) -> np.ndarray:
    """Marginal predictions for frames ``2..T`` of one sequence.

    Vectorised equivalent of calling :func:`predict_next` on every
    proper prefix; rows align with ``seq[1:]``.
    """
    seq = _as_sequence(seq)
    if seq.shape[0] < 2:
        return np.zeros((0, model.n_visible))
    U, B, C = unroll(model, seq)
    return _mean_field_marginals(model.W, B[1:], C[1:])


def mean_sequence_energy(model: RnnRbm, sequences) -> float:
    """Mean conditional expected frame energy with temporal biases."""
    total = 0.0
    frames = 0
    for _, seqs in _length_groups(model, sequences):
        _, B, C = unroll(model, seqs)
        pre = C + seqs @ model.W
        h = sigmoid(pre)
        e = -np.sum(seqs * B, axis=-1) - np.sum(h * pre, axis=-1)
        total += float(e.sum())
        frames += e.size
    return total / frames


def mean_hidden_activation(model: RnnRbm, sequences) -> np.ndarray:
    """Per-unit mean of ``p(h_j = 1 | v_t)`` over all frames."""
    acc = np.zeros(model.n_hidden)
    frames = 0
    for _, seqs in _length_groups(model, sequences):
        _, _, C = unroll(model, seqs)
        h = _rows(sigmoid(C + seqs @ model.W))
        acc += h.sum(axis=0)
        frames += h.shape[0]
    return acc / frames


def prediction_error(model: RnnRbm, sequences) -> float:
    """Pooled next-frame cross-entropy per bit over frames ``2..T``.

    The predictions are those of :func:`next_frame_predictions`, made
    for a whole length group at once.
    """
    pool = PooledMetrics()
    for _, seqs in _length_groups(model, sequences):
        if seqs.shape[1] >= 2:
            _, B, C = unroll(model, seqs)
            pool.add(_mean_field_marginals(model.W, B[:, 1:], C[:, 1:]),
                     seqs[:, 1:])
    return float("nan") if pool.empty else pool.cross_entropy()


def _clipped_update(model: RnnRbm, g: RnnRbmGradient, lr: float):
    """Clipped ascent step; the initial state stays inside (0, 1)."""
    _apply_update(model, g.clip_(GRAD_CLIP), lr)
    np.clip(model.u0, U0_MARGIN, 1.0 - U0_MARGIN, out=model.u0)


def train_adaptive_rnn_rbm(sequences, n_hidden: int, cd: CdConfig,
                           epochs: int, rng: RngStream,
                           adapt: AdaptConfig | None = None,
                           forget: ForgettingConfig | None = None,
                           u_dim: int | None = None,
                           init_model: RnnRbm | None = None,
                           layer: int = 1, n_layers: int = 1,
                           log: TrainLog | None = None,
                           first_event: str | None = None,
                           resume: TrainState | None = None,
                           epoch_callback=None):
    """Adaptive training of one recurrent layer in the shared epoch loop.

    Batches of sequences get BPTT-CD updates clipped to ``GRAD_CLIP``.  See
    the static trainer for the stream layout.  Returns
    ``(model, stats, log)``.
    """
    sequences = [_as_sequence(s) for s in sequences]
    if not sequences:
        raise ValueError("no training sequences")
    for s in sequences:
        if s.shape[0] < 1:
            raise ValueError("sequences must have at least one frame")
        if s.shape[1] != sequences[0].shape[1]:
            raise DimensionError("sequences disagree on frame dimension")
    if resume is None:
        init_model = (RnnRbm.random(sequences[0].shape[1], n_hidden,
                                    rng.split(0), u_dim=u_dim)
                      if init_model is None else init_model.copy())
    return _train_layer(
        sequences, init_model, cd, epochs, rng, adapt, forget, layer,
        n_layers, log, first_event, resume, epoch_callback,
        gradient=bptt_gradients, activations=mean_hidden_activation,
        update=_clipped_update,
        metrics=lambda m, seqs: (mean_sequence_energy(m, seqs),
                                 prediction_error(m, seqs)))
