"""Recurrent conditional RBM for sequences.

A deterministic recurrent state ``u`` summarises the past.  At each
frame the state shifts the biases of an otherwise shared RBM:

* visible bias ``b_t = b + u_(t-1) @ w_uv``
* hidden bias  ``c_t = c + u_(t-1) @ w_uh``
* state update ``u_t = sigmoid(u_bias + u_(t-1) @ w_uu + v_t @ w_vu)``

so the sequence likelihood factorises into per-frame conditional RBM
terms.  Training backpropagates per-frame CD estimates through the state
recursion (:func:`_chain_through_state`); the exact sequence cost and
its gradient, which chain enumerated partials the same way, live with
the tests, in ``tests/oracles.py``.

The batch paths (the BPTT-CD gradient and the epoch summaries) group
their sequences by exact length and stack each group as ``(S, T, I)``,
so one unroll, one pass of the static model's CD-k chain
(:func:`~growrbm.rbm._cd_chain`) over all ``S * T`` frames and one
backward chain serve the whole group.  The gradient also returns the
batch's mean hidden activations, which the chain computed anyway, so
the forgetting windows' clarify penalty unrolls nothing more.

The training set is stacked by length once per trained layer, in the
epoch view :class:`LengthGroups`, whose one hidden pass per epoch serves
the pruning sweep and both epoch metrics unless the sweep edits the
model.

Grouping changes no random draw.  A batch of ``R`` frames draws its
chain's uniforms as :func:`~growrbm.rbm.cd_step` on ``R`` rows does, one
``(R, width)`` block per chain step, and every frame reads the row of
its place in the batch, whatever its group (:func:`bptt_gradients`).

Prediction, evaluation and sampling belong to :mod:`~growrbm.rnn_dbn`,
which reads a recurrent RBM as a one-layer stack.  :func:`unroll`, the
mean-field passes and the shared CD-k chain run bare ``expit`` with one
range test per call or pass; every other pass, and their reruns, go
through the guarded sigmoid (the rule of :mod:`~growrbm.numerics`).

:class:`RnnRbm` is a :class:`~growrbm.rbm.Rbm` with six more fields, so
it is copied, validated, updated and checkpointed by the static code,
and its arrays, like its gradient's, are views into one buffer.
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

from .adapt import AdaptConfig, ForgettingConfig, TrainState, _train_layer
from .errors import DimensionError
from .metrics import PooledMetrics
from .numerics import RngStream, _unclamped, expit, sigmoid
from .rbm import (CdConfig, Rbm, RbmGradient, _apply_update, _cd_chain,
                  _chain_uniforms)

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


def _as_sequences(seq) -> np.ndarray:
    """One sequence ``(T, I)`` or equal-length sequences stacked on
    leading axes, such as a length group ``(S, T, I)``."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim < 2:
        raise DimensionError("sequence must be (frames, dim) or stacked as "
                             f"(..., frames, dim), got {seq.shape}")
    return seq


def unroll(model: RnnRbm, seq):
    """States and per-frame biases along one sequence or a group of them.

    ``seq`` is one sequence ``(T, I)`` or equal-length sequences stacked
    on leading axes, as ``(S, T, I)`` or ``(S, 1, T, I)`` (the lift's
    :func:`~growrbm.rnn_dbn._apart`).  Returns ``(U, B, C)`` with the same
    leading axes, where ``U[..., t, :]`` is the state after ``t`` frames
    (``U[..., 0, :]`` is the learned initial state, so ``U`` has ``T + 1``
    rows per sequence) and ``B[..., t, :] / C[..., t, :]`` are the biases
    used for frame ``t``.

    Only the state recursion runs frame by frame, under the rule of
    :mod:`~growrbm.numerics` with one test of the states; ``B`` and ``C``
    are two matrix products over the stacked states afterwards.  Every
    ``frames @ w_vu`` is one product before the loop, slice by slice with
    a lone frame's kernel (a lone sequence goes in as ``(T, 1, I)``).
    Each step's pre-activation is the state row it becomes, in place.
    """
    seq = _as_sequences(seq)
    if seq.shape[-1] != model.n_visible:
        raise DimensionError(
            f"frame has dimension {seq.shape[-1]}, expected {model.n_visible}")
    # the recursion runs time-major, so each step fills contiguous rows
    lead, t_len = seq.shape[:-2], seq.shape[-2]
    frames = _time_major(seq if lead else seq[None])  # (T, ..., I)
    U = np.empty((t_len + 1,) + lead + (model.u_dim,))
    U[0] = model.u0
    u_bias, w_uu, matmul, add = model.u_bias, model.w_uu, np.matmul, np.add
    # an overflow here is reported once, by the test or the rerun's error
    with np.errstate(over="ignore", invalid="ignore"):
        drive = (frames @ model.w_vu).reshape(U[1:].shape)
        for logistic in (expit, sigmoid):
            for t in range(t_len):
                p = matmul(U[t], w_uu, U[t + 1])
                logistic(add(add(u_bias, p, p), drive[t], p), p)
            if logistic is expit and _unclamped(U[1:]):
                break
    U = _time_major(U, back=True)
    prev = U[..., :-1, :]
    return U, model.b + prev @ model.w_uv, model.c + prev @ model.w_uh


def _time_major(a: np.ndarray, back: bool = False) -> np.ndarray:
    """The view ``np.moveaxis(a, -2, 0)``, or ``np.moveaxis(a, 0, -2)``
    with ``back``, at the cost of a transpose."""
    n = a.ndim
    return (a.transpose(*range(1, n - 1), 0, n - 1) if back
            else a.transpose(n - 2, *range(n - 2), n - 1))


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
    gradients are matrix products over them.  The recursion runs on
    time-major arrays, so every step's operands are contiguous: the
    direct partials are made batch-major, as the products round, and
    copied once; the slopes come from the states' time-major storage
    (:func:`unroll`'s); ``GA`` is copied back once for the sums.
    """
    direct = _time_major(DB @ model.w_uv.T + DC @ model.w_uh.T).copy()
    states = _time_major(U)[1:]
    slope = states * (1.0 - states)
    ga = np.empty_like(direct)
    gu, back = np.zeros((2,) + direct.shape[1:])
    w_uu_T, multiply, matmul, add = (model.w_uu.T, np.multiply, np.matmul,
                                     np.add)
    for t in range(seq.shape[-2] - 1, -1, -1):
        add(direct[t], matmul(multiply(gu, slope[t], ga[t]), w_uu_T, back),
            gu)
    GA = _rows(_time_major(ga, back=True).copy())
    U_prev, DB, DC = _rows(U[..., :-1, :]), _rows(DB), _rows(DC)
    g = RnnRbmGradient.empty(model)
    DB.sum(axis=0, out=g.db)
    DC.sum(axis=0, out=g.dc)
    g.dW[...] = dW_sum
    GA.sum(axis=0, out=g.du)
    np.matmul(U_prev.T, DB, out=g.dw_uv)
    np.matmul(U_prev.T, DC, out=g.dw_uh)
    np.matmul(_rows(seq).T, GA, out=g.dw_vu)
    np.matmul(U_prev.T, GA, out=g.dw_uu)
    _rows(gu).sum(axis=0, out=g.du0)
    return g


def _length_groups(sequences):
    """``(positions, stack)`` per distinct sequence length ``T``, in order
    of first appearance: ``stack`` is the ``(S, T, I)`` array of the
    sequences at ``positions`` in ``sequences``.  The sequences must be
    2-D and agree on their frame width; the width against a model is
    :func:`unroll`'s to check."""
    sequences = [_as_sequence(seq) for seq in sequences]
    if len({seq.shape[1] for seq in sequences}) > 1:
        raise DimensionError("sequences disagree on frame dimension")
    groups = {}
    for n, seq in enumerate(sequences):
        groups.setdefault(seq.shape[0], []).append(n)
    return [(positions, np.stack([sequences[n] for n in positions]))
            for positions in groups.values()]


class LengthGroups:
    """A sequence set stacked by exact length: the recurrent epoch view.

    ``stacks`` are the ``(S, T, I)`` arrays of the sequences grouped by
    length, in order of first appearance.  One view serves every epoch
    of a layer (:meth:`epoch`).  The last hidden pass is kept for its
    model object, until the next epoch or the metrics.
    """

    def __init__(self, sequences):
        self.stacks = [stack for _, stack in _length_groups(sequences)]
        self._kept = None  # (model, hidden_passes(model))

    def epoch(self) -> "LengthGroups":
        """This view for a new epoch: the batch updates changed the model
        in place, so the kept pass is dropped."""
        self._kept = None
        return self

    @np.errstate(over="ignore", invalid="ignore")
    def hidden_passes(self, model: RnnRbm) -> list:
        """``(seqs, B, C, pre, h)`` per stack for ``model``: the biases of
        :func:`unroll`, ``pre = C + seqs @ W`` and ``h = sigmoid(pre)``."""
        if self._kept is None or self._kept[0] is not model:
            self._kept = None  # another model's pass is freed first
            passes = []
            for seqs in self.stacks:
                _, B, C = unroll(model, seqs)
                pre = C + seqs @ model.W
                passes.append((seqs, B, C, pre, sigmoid(pre)))
            self._kept = model, passes
        return self._kept[1]

    def mean_activation(self, model: RnnRbm) -> np.ndarray:
        """:func:`mean_hidden_activation` of the set."""
        return mean_hidden_activation(model, self)

    def metrics(self, model: RnnRbm) -> tuple[float, float]:
        """The epoch metrics; the kept pass is freed after them."""
        energy = mean_sequence_energy(model, self)
        error = prediction_error(model, self)
        self._kept = None
        return energy, error


def _hidden_passes(model: RnnRbm, sequences) -> list:
    """:meth:`LengthGroups.hidden_passes` of a sequence list or of a
    :class:`LengthGroups` whose pass may already be kept."""
    if not isinstance(sequences, LengthGroups):
        sequences = LengthGroups(sequences)
    return sequences.hidden_passes(model)


def _group_bptt_cd(model: RnnRbm, seqs: np.ndarray,
                   uniforms: list) -> tuple[RnnRbmGradient, np.ndarray]:
    """CD-based ascent gradient summed over an ``(S, T, I)`` group of
    equal-length sequences, chained through time, and the hidden
    conditionals of the data frames summed per unit.

    Given the unrolled states the frames are independent conditional
    RBMs, so the shared chain :func:`~growrbm.rbm._cd_chain` runs once
    on all ``S * T`` frames with per-frame bias rows.  ``uniforms`` holds
    the chain's blocks, one row per frame, sequence-major.
    """
    if not (seqs.min() >= 0.0 and seqs.max() <= 1.0):  # NaN fails
        raise ValueError("visible batch values must lie in [0, 1]")
    U, B, C = unroll(model, seqs)
    V = _rows(seqs)
    (h_data, h_model), v_prob = _cd_chain(model.W, _rows(B), _rows(C), V,
                                          uniforms)
    dW = V.T @ h_data - v_prob.T @ h_model
    return _chain_through_state(
        model, seqs, U, (V - v_prob).reshape(seqs.shape),
        (h_data - h_model).reshape(seqs.shape[:2] + (model.n_hidden,)),
        dW), h_data.sum(axis=0)


def bptt_gradients(model: RnnRbm, batch, cfg: CdConfig,
                   rng: RngStream) -> tuple[RnnRbmGradient, np.ndarray]:
    """Mean ascent gradient over a batch of sequences, and the batch's
    mean hidden activations: ``(gradient, h_mean)``.

    The batch's ``R`` frames draw as :func:`~growrbm.rbm.cd_step` on
    ``R`` rows does: one ``(R, width)`` block of uniforms per chain step,
    from ``rng`` in chain order (:func:`~growrbm.rbm._chain_uniforms`).
    Frame ``t`` of the sequence at batch position ``s`` reads row
    ``starts[s] + t`` of every block, where ``starts[s]`` counts the
    frames of the sequences before it.  The batch is split into groups of
    equal length (in order of first appearance), each of which costs one
    unroll, one CD-k pass over all its frames at once and one backward
    pass through the state (see :func:`_group_bptt_cd`).  A sequence
    keeps the rows of its position in the batch, whatever its group, so
    grouping changes no draw.  Both results are normalised by ``R``;
    ``h_mean`` is :func:`mean_hidden_activation` of the batch.
    """
    if len(batch) == 0:
        raise ValueError("empty sequence batch")
    groups = _length_groups(batch)
    lengths = np.array([len(seq) for seq in batch])
    if lengths.min() < 1:
        raise ValueError("sequences must have at least one frame")
    frames = int(lengths.sum())
    uniform, blocks = _chain_uniforms(frames, model.n_visible,
                                      model.n_hidden, cfg.k)
    rng.uniform(None, uniform)
    starts = np.cumsum(lengths) - lengths
    total = RnnRbmGradient.zeros(model)
    h_sum = np.zeros(model.n_hidden)
    for positions, seqs in groups:
        rows = (starts[positions, None] + np.arange(seqs.shape[1])).ravel()
        g, h = _group_bptt_cd(model, seqs, [u[rows] for u in blocks])
        total.add_(g)
        h_sum += h
    return total.scale_(1.0 / frames), h_sum / frames


@np.errstate(over="ignore", invalid="ignore")
def _mean_field_marginals(W: np.ndarray, b_next: np.ndarray,
                          c_next: np.ndarray) -> np.ndarray:
    """Alternating mean-field passes from the uninformative 1/2 start.

    ``b_next (..., I)`` and ``c_next (..., J)`` are the biases of one
    frame, of the frames of one sequence ``(T, .)`` or of a length group
    ``(S, T, .)``; they share their leading axes, and every row is
    scored on its own.  The result has the shape of ``b_next``.  The
    passes keep the rule of :mod:`~growrbm.numerics`, one test a pass.
    """
    act = np.empty(c_next.size + b_next.size)  # h and v, tested at once
    h = act[:c_next.size].reshape(c_next.shape)
    v = act[c_next.size:].reshape(b_next.shape)
    for logistic in (expit, sigmoid):
        v.fill(0.5)
        for _ in range(MEAN_FIELD_PASSES):
            logistic(np.add(c_next, np.matmul(v, W, h), h), h)
            logistic(np.add(b_next, np.matmul(h, W.T, v), v), v)
            if logistic is expit and not _unclamped(act):
                break  # rerun every pass from the start
        else:
            return v


@np.errstate(over="ignore", invalid="ignore")
def mean_sequence_energy(model: RnnRbm, sequences) -> float:
    """Mean conditional expected frame energy with temporal biases.

    ``sequences`` is a list of sequences or a :class:`LengthGroups`, as
    for :func:`mean_hidden_activation` and :func:`prediction_error`.  An
    energy that overflows raises ``FloatingPointError``.
    """
    total = 0.0
    frames = 0
    for seqs, B, _, pre, h in _hidden_passes(model, sequences):
        e = -np.sum(seqs * B, axis=-1) - np.sum(h * pre, axis=-1)
        total += float(e.sum())
        frames += e.size
    if not np.isfinite(total):
        raise FloatingPointError("mean_sequence_energy: non-finite energy")
    return total / frames


def mean_hidden_activation(model: RnnRbm, sequences) -> np.ndarray:
    """Per-unit mean of ``p(h_j = 1 | v_t)`` over all frames."""
    acc = np.zeros(model.n_hidden)
    frames = 0
    for *_, h in _hidden_passes(model, sequences):
        h = _rows(h)
        acc += h.sum(axis=0)
        frames += h.shape[0]
    return acc / frames


def prediction_error(model: RnnRbm, sequences) -> float:
    """Pooled next-frame cross-entropy per bit over frames ``2..T``.

    The predictions are those of the model read as a one-layer stack
    (:func:`~growrbm.rnn_dbn.next_frame_predictions_deep`), made for a
    whole length group at once from the states the group keeps (the
    training layout, so equal to them within rounding).
    """
    pool = PooledMetrics()
    for seqs, B, C, _, _ in _hidden_passes(model, sequences):
        if seqs.shape[1] >= 2:
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
                           u_dim: int | None = None, layer: int = 1,
                           resume: TrainState | None = None,
                           epoch_callback=None):
    """Adaptive training of one recurrent layer in the shared epoch loop.

    Batches of sequences get :func:`bptt_gradients` updates clipped to
    ``GRAD_CLIP``, each batch drawing from its own stream, laid out as
    for the static trainer (:func:`~growrbm.adapt._train_layer`).  The
    training set is stacked by length once, in the layer's one
    :class:`LengthGroups`.  Returns ``(model, stats, log)``.
    """
    sequences = [_as_sequence(s) for s in sequences]
    if not sequences:
        raise ValueError("no training sequences")
    if min(len(s) for s in sequences) < 1:
        raise ValueError("sequences must have at least one frame")
    view = LengthGroups(sequences)
    start = resume or TrainState.fresh(RnnRbm.random(
        sequences[0].shape[1], n_hidden, rng.split(0), u_dim=u_dim))
    return _train_layer(
        sequences, start, cd, epochs, rng, adapt, forget, layer,
        epoch_callback, gradient=bptt_gradients, update=_clipped_update,
        epoch_data=view.epoch)
