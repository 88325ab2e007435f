"""Greedy deep stacking of recurrent layers, and the one recurrent read path.

The stacking loop is the static one, :func:`~growrbm.dbn._train_stack`,
and :class:`RnnDbn` is a marker subclass of :class:`~growrbm.dbn.Dbn`.
Each trained layer is frozen and its deterministic hidden activation
sequences (conditional probabilities, not samples, so the construction
is reproducible) become the training sequences for the next layer.  The
stack reuses the static gate: accumulated gradient-variance and energy
totals decide whether another layer is worth adding.

One function, :func:`_lift`, computes those sequences, for the trainer
and the read path alike.  Training and scoring stack a sequence set by
exact length and lift each group at once, one unroll per layer and
group, in the :func:`_apart` layout, where every row is bit for bit that
of its sequence lifted alone; :func:`_by_length` puts the rows back in
the order of the sequences.

Prediction runs bottom-up then top-down: the sequence is lifted through
the lower layers, the top layer predicts its own next frame, and each
layer below converts the prediction above it into visible marginals with
a single conditional pass using its own temporal bias for the next step.
A recurrent RBM is read as a one-layer stack, so this one path evaluates
and samples both recurrent kinds.

Sampling (:func:`sample_sequence_deep`) carries every layer's state
forward, so each frame costs one step through the stack, on bare
``expit`` with one range test before the draw and one after the last
state update, rerun on the guarded sigmoid where a test fails.
"""
from __future__ import annotations

import numpy as np

from .adapt import AdaptConfig, ForgettingConfig
from .dbn import Dbn, LayerGenConfig, _train_stack
from .metrics import PooledMetrics
from .numerics import RngStream, _draw, _unclamped, expit, sigmoid
from .rbm import CdConfig
from .rnn_rbm import (MEAN_FIELD_PASSES, RnnRbm, _as_sequences,
                      _length_groups, _mean_field_marginals,
                      train_adaptive_rnn_rbm, unroll)


class RnnDbn(Dbn):
    """Stack of recurrent layers, bottom first; a marker subclass that
    evaluation, sampling and checkpoints dispatch on."""


def train_adaptive_rnn_dbn(sequences, n_hidden: int, cd: CdConfig,
                           epochs_per_layer: int, rng: RngStream,
                           layer_cfg: LayerGenConfig,
                           adapt: AdaptConfig | None = None,
                           forget: ForgettingConfig | None = None,
                           u_dim: int | None = None, epoch_callback=None):
    """Greedy bottom-up training of the recurrent stack; ``adapt``,
    ``forget`` and ``epoch_callback`` act as in
    :func:`~growrbm.dbn.train_adaptive_dbn`.

    Layer ``l`` trains from the root stream's ``split(l)``, exactly as a
    standalone run would, so the first layer of a stack equals a
    single-layer run with the same seed.  ``u_dim`` sizes the first
    layer's state only: an upper layer starts square, its state as wide
    as its input (:func:`~growrbm.dbn._inherit`).  The lift to the next
    layer runs length group by group in the read path's layout
    (:func:`_lift_sequences`).  Returns ``(model, log)``.
    """
    return _train_stack(
        RnnDbn(), [np.asarray(s, dtype=np.float64) for s in sequences], rng,
        layer_cfg, train=train_adaptive_rnn_rbm, lift=_lift_sequences,
        n_hidden=n_hidden, cd=cd, epochs=epochs_per_layer, adapt=adapt,
        forget=forget, u_dim=u_dim, epoch_callback=epoch_callback)


def _apart(seqs: np.ndarray) -> np.ndarray:
    """``(..., T, I)`` viewed as ``(..., 1, T, I)``, where each state step
    of :func:`unroll` takes one vector-matrix product per sequence, as a
    lone sequence does, and so gives its states bit for bit.  BLAS may
    round the one product per step of an ``(S, T, I)`` group otherwise."""
    return seqs[..., None, :, :]


@np.errstate(over="ignore", invalid="ignore")
def _lift(layers, view):
    """``view`` (as :func:`unroll` takes it) lifted through ``layers``,
    each layer's hidden conditionals ``p(h | v_t)`` under its temporal
    bias feeding the next: the top view and each layer's states."""
    states = []
    for layer in layers:
        U, _, C = unroll(layer, view)
        view = sigmoid(C + view @ layer.W)
        states.append(U)
    return view, states


def _by_length(sequences, grouped) -> list:
    """The items of ``grouped(seqs)`` for each length group ``seqs``
    (:func:`~growrbm.rnn_rbm._length_groups`), in sequence order.  The
    grouping checks only that the sequences agree on their frame width;
    the width against a model is :func:`unroll`'s to check."""
    out = [None] * len(sequences)
    for positions, seqs in _length_groups(sequences):
        for n, item in zip(positions, grouped(seqs)):
            out[n] = item
    return out


def _lift_sequences(model: RnnRbm, sequences) -> list:
    """Each sequence lifted through ``model``, by length group apart."""
    return _by_length(sequences,
                      lambda seqs: _lift([model], _apart(seqs))[0][:, 0])


@np.errstate(over="ignore", invalid="ignore")
def predict_next_deep(stack: RnnDbn, prefix) -> np.ndarray:
    """Marginal prediction for the frame after ``prefix`` using the whole
    stack: top-layer prediction, then one conditional pass per layer down;
    the per-prefix reference of :func:`next_frame_predictions_deep`.
    """
    prefix = np.asarray(prefix, dtype=np.float64)
    if prefix.size == 0:
        prefix = np.zeros((0, stack.n_visible))
    *lower, top = stack.layers
    view, states = _lift(lower, prefix)
    u = unroll(top, view)[0][-1]
    signal = _mean_field_marginals(top.W, top.b + u @ top.w_uv,
                                   top.c + u @ top.w_uh)
    for layer, U in zip(reversed(lower), reversed(states)):
        signal = sigmoid(layer.b + U[-1] @ layer.w_uv + signal @ layer.W.T)
    return signal


@np.errstate(over="ignore", invalid="ignore")
def next_frame_predictions_deep(stack: RnnDbn, seq) -> np.ndarray:
    """Stack predictions for frames ``2..T`` of one sequence ``(T, I)`` or
    of every sequence of an equal-length group ``(S, T, I)``; rows align
    with ``seq[..., 1:, :]``.

    Vectorised over prefixes and over the group: each layer is unrolled
    once, the top layer runs its mean-field passes on the biases of all
    its frames after the first, and the down passes reuse the state
    trajectories of the lift.  Everything runs in the :func:`_apart`
    layout, so row ``s`` of a group's result is bit for bit the result
    for ``seq[s]`` alone.
    """
    seq = _as_sequences(seq)
    if seq.shape[-2] < 2:
        return np.zeros(seq.shape[:-2] + (0, stack.n_visible))
    *lower, top = stack.layers
    view, states = _lift(lower, _apart(seq))
    _, B, C = unroll(top, view)
    signal = _mean_field_marginals(top.W, B[..., 1:, :], C[..., 1:, :])
    for layer, U in zip(reversed(lower), reversed(states)):
        signal = sigmoid(layer.b + U[..., 1:-1, :] @ layer.w_uv
                         + signal @ layer.W.T)
    return signal[..., 0, :, :]


def _pool_predictions(stack: RnnDbn, sequences) -> PooledMetrics:
    """Next-frame predictions pooled against frames ``2..T``, one
    :func:`next_frame_predictions_deep` call per length group, in the
    order of ``sequences`` (:func:`_by_length`), so the pooled scores do
    not depend on how the set groups.  The grouping checks that the
    sequences agree on their frame width; the width against the stack is
    checked by ``harness._check_heldout`` before the call, and by
    :func:`unroll` in it."""
    pool = PooledMetrics()
    for pred, target in _by_length(
            sequences, lambda seqs: zip(
                next_frame_predictions_deep(stack, seqs), seqs[:, 1:])):
        pool.add(pred, target)
    return pool


def sample_sequence_deep(stack: RnnDbn, length: int,
                         rng: RngStream) -> np.ndarray:
    """Generate ``length`` frames from the stack in linear time.

    Each step predicts from the states every layer carries (the marginals
    of :func:`predict_next_deep` on the sampled prefix), samples a frame
    and lifts it up once, moving every state one step forward.

    Every product goes into buffers kept for the call, cut by plain
    slices, each pre-activation into its activation's slot, where bare
    ``expit`` runs in place.  The activations are tested once before the
    draw (the rule of :mod:`~growrbm.numerics`).  A failed test restores
    the states saved before the last update, and the call redoes it and
    goes on with the guarded sigmoid: it raises on exactly the stacks
    where the guarded steps (``state_update`` of ``tests/oracles.py``
    and a guarded pass per layer) raise, and every frame and marginal is bit
    for bit theirs.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    layers = stack.layers
    top, n_lower = layers[-1], len(layers) - 1
    # one frame's activations: the top layer's mean-field passes, then
    # per layer its down pass, state and lift (the top layer has no
    # down pass or lift); they start at 1/2.  A state update reads the
    # old state, so it alone has a scratch row per layer
    n_mf = 2 * MEAN_FIELD_PASSES
    sizes = [top.n_hidden, top.n_visible] * MEAN_FIELD_PASSES
    for layer in layers[:-1]:
        sizes += [layer.n_visible, layer.u_dim, layer.n_hidden]
    sizes += [0, top.u_dim, 0]
    bounds = np.cumsum([0, *sizes]).tolist()
    act = np.full(bounds[-1], 0.5)
    act_l = [act[i:j] for i, j in zip(bounds, bounds[1:])]
    passes = list(zip(act_l[0:n_mf:2], act_l[1:n_mf:2]))
    b_next = [np.empty(layer.n_visible) for layer in layers]
    down = list(zip(b_next, [layer.W.T for layer in layers],
                    act_l[n_mf::3]))[-2::-1]
    biases, up = [], []
    states = act_l[n_mf + 1::3]
    for layer, b, u, a in zip(layers, b_next, states, act_l[n_mf + 2::3]):
        u[...] = layer.u0
        biases.append((layer.b, layer.w_uv, b, u))
        up.append((layer.u_bias, layer.w_uu, layer.w_vu, u,
                   np.empty(layer.u_dim), layer.c, layer.w_uh, layer.W,
                   np.empty(layer.n_hidden), a))
    W, W_T, b_top, c_top = top.W, top.W.T, b_next[-1], np.empty(top.n_hidden)
    # the top layer's temporal hidden bias; a lower layer's is the lift's
    biases.append((top.c, top.w_uh, c_top, states[-1]))
    half = np.full(top.n_visible, 0.5)
    frames = np.zeros((length, stack.n_visible))
    saved = act.copy()  # the activations before the last state update
    logistic, drawn, t = expit, None, 0  # bare until a test fails
    add = np.add
    # an overflow is reported by the tests and the guarded rerun
    with np.errstate(over="ignore", invalid="ignore"):
        while t <= length:  # the update by frame t - 1, then frame t
            view = drawn
            for i, (u_bias, w_uu, w_vu, u, p, c, w_uh, W_l, q,
                    a) in enumerate(up if t else ()):
                if i < n_lower:  # the lift's bias, from the old state
                    add(c, u.dot(w_uh, a), a)
                add(u_bias, u.dot(w_uu, p), p)
                logistic(add(p, view.dot(w_vu, u), u), u)
                if i < n_lower:
                    view = logistic(add(a, view.dot(W_l, q), a), a)
            if t < length:
                for x, w, x_next, u in biases:
                    add(x, u.dot(w, x_next), x_next)
                v = half
                for ah, av in passes:
                    h = logistic(add(c_top, v.dot(W, ah), ah), ah)
                    v = logistic(add(b_top, h.dot(W_T, av), av), av)
                for b_l, W_T_l, a in down:
                    v = logistic(add(b_l, v.dot(W_T_l, a), a), a)
            if logistic is expit and not _unclamped(act):
                logistic, act[...] = sigmoid, saved
                continue  # redo the update and the frame
            if t < length:
                drawn = frames[t] = _draw(v, rng)
                saved[...] = act
            t += 1
    return frames
