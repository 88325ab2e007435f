"""Greedy deep stacking of recurrent layers.

The stacking loop is the static one, :func:`~growrbm.dbn._train_stack`,
and :class:`RnnDbn` is a marker subclass of :class:`~growrbm.dbn.Dbn`.
Each trained layer is frozen and its deterministic hidden activation
sequences (conditional probabilities, not samples, so the construction
is reproducible) become the training sequences for the next layer.  The
stack reuses the static gate: accumulated gradient-variance and energy
totals decide whether another layer is worth adding.

Prediction runs bottom-up then top-down: the sequence is lifted through
the lower layers as activation sequences, the top layer predicts its own
next frame, and each layer below converts the prediction above it into
visible marginals with a single conditional pass using its own temporal
bias for the next step.  A one-layer stack is the recurrent RBM itself,
so evaluation and sampling serve both recurrent kinds.

Scoring a held-out set stacks it by exact length, as training does, and
lifts and predicts each length group at once, so every layer unrolls
once per group rather than once per sequence; the predictions are
pooled back in the order of the sequences.  The groups are laid out
(:func:`~growrbm.rnn_rbm._apart`) so that every prediction is bit for
bit that of its sequence scored alone.  The finiteness of the top
layer's mean-field passes is checked once per call, after the passes
(:func:`~growrbm.rnn_rbm._mean_field_marginals`).
"""
from __future__ import annotations

import numpy as np

from .adapt import AdaptConfig, ForgettingConfig
from .dbn import Dbn, LayerGenConfig, _train_stack
from .log import TrainLog
from .metrics import PooledMetrics
from .numerics import RngStream, sample_bernoulli, sigmoid
from .rbm import CdConfig
from .rnn_rbm import (RnnRbm, _apart, _as_sequences, _length_groups,
                      _mean_field_marginals, next_frame_predictions,
                      predict_next, state_update, temporal_biases,
                      train_adaptive_rnn_rbm, unroll)


class RnnDbn(Dbn):
    """Stack of recurrent layers, bottom first; a marker subclass that
    evaluation, sampling and checkpoints dispatch on."""


def deterministic_hidden_sequence(model: RnnRbm, seq) -> np.ndarray:
    """Per-frame hidden conditionals ``p(h | v_t)`` under the temporal bias.

    Deterministic by construction; this is what upper layers train on.
    """
    seq = np.asarray(seq, dtype=np.float64)
    _, _, C = unroll(model, seq)
    return sigmoid(C + seq @ model.W)


def train_adaptive_rnn_dbn(sequences, n_hidden: int, cd: CdConfig,
                           epochs_per_layer: int, rng: RngStream,
                           layer_cfg: LayerGenConfig,
                           adapt: AdaptConfig | None = None,
                           forget: ForgettingConfig | None = None,
                           u_dim: int | None = None,
                           gate_layers: bool = True,
                           log: TrainLog | None = None):
    """Greedy bottom-up training of the recurrent stack.

    Layer ``l`` trains from the root stream's ``split(l)``, exactly as a
    standalone run would, so the first layer of a stack equals a
    single-layer run with the same seed.  Returns ``(model, log)``.
    """
    return _train_stack(
        RnnDbn(), [np.asarray(s, dtype=np.float64) for s in sequences], rng,
        layer_cfg, gate_layers, log, train=train_adaptive_rnn_rbm,
        lift=lambda m, seqs: [deterministic_hidden_sequence(m, s)
                              for s in seqs],
        n_hidden=n_hidden, cd=cd, epochs=epochs_per_layer, adapt=adapt,
        forget=forget, u_dim=u_dim)


def _lift_prefix(stack: RnnDbn, prefix: np.ndarray) -> list:
    """Prefix as seen by every layer, bottom first."""
    views = [prefix]
    for layer in stack.layers[:-1]:
        views.append(deterministic_hidden_sequence(layer, views[-1]))
    return views


def predict_next_deep(stack: RnnDbn, prefix) -> np.ndarray:
    """Marginal prediction for the frame after ``prefix`` using the whole
    stack: top-layer prediction, then one conditional pass per layer down.
    """
    prefix = np.asarray(prefix, dtype=np.float64)
    if prefix.size == 0:
        prefix = np.zeros((0, stack.n_visible))
    views = _lift_prefix(stack, prefix)
    signal = predict_next(stack.layers[-1], views[-1])
    for layer, view in zip(reversed(stack.layers[:-1]), reversed(views[:-1])):
        u_last = unroll(layer, view)[0][-1]
        b_next, _ = temporal_biases(layer, u_last)
        signal = sigmoid(b_next + signal @ layer.W.T)
    return signal


def next_frame_predictions_deep(stack: RnnDbn, seq) -> np.ndarray:
    """Stack predictions for frames ``2..T`` of one sequence ``(T, I)`` or
    of every sequence of an equal-length group ``(S, T, I)``; rows align
    with ``seq[..., 1:, :]``.

    Vectorised over prefixes and over the group: each layer is unrolled
    once, the top layer predicts all its steps with
    :func:`next_frame_predictions`, and the down passes reuse the state
    trajectories of the lift.  The lift runs in the
    :func:`~growrbm.rnn_rbm._apart` layout, so row ``s`` of a group's
    result is bit for bit the result for ``seq[s]`` alone.
    """
    seq = _as_sequences(seq)
    if seq.shape[-2] < 2:
        return np.zeros(seq.shape[:-2] + (0, stack.n_visible))
    view, states = _apart(seq), []
    for layer in stack.layers[:-1]:
        U, _, C = unroll(layer, view)
        view = sigmoid(C + view @ layer.W)
        states.append(U)
    signal = next_frame_predictions(stack.layers[-1], view)
    for layer, U in zip(reversed(stack.layers[:-1]), reversed(states)):
        signal = sigmoid(layer.b + U[..., 1:-1, :] @ layer.w_uv
                         + signal @ layer.W.T)
    return signal[..., 0, :, :]


def _pool_predictions(stack: RnnDbn, sequences) -> PooledMetrics:
    """Next-frame predictions pooled against frames ``2..T``.

    The sequences are stacked by exact length
    (:func:`~growrbm.rnn_rbm._length_groups`), each group is predicted by
    one :func:`next_frame_predictions_deep` call, and the predictions are
    added to the pool in the order of ``sequences``, so the pooled scores
    do not depend on how the set groups.  The frame sizes are the
    caller's to check.
    """
    pairs = [None] * len(sequences)
    for positions, seqs in _length_groups(stack.layers[0], sequences):
        preds = next_frame_predictions_deep(stack, seqs)
        for n, pred, seq in zip(positions, preds, seqs):
            pairs[n] = pred, seq[1:]
    pool = PooledMetrics()
    for pred, target in pairs:
        pool.add(pred, target)
    return pool


def sample_sequence_deep(stack: RnnDbn, length: int,
                         rng: RngStream) -> np.ndarray:
    """Generate ``length`` frames from the stack in linear time.

    Each step predicts from the states every layer carries (the marginals
    of :func:`predict_next_deep` on the sampled prefix), samples a frame
    and lifts it up once, moving every state one step forward.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    *lower, top = stack.layers
    states = [layer.u0 for layer in stack.layers]
    frames = np.zeros((length, stack.n_visible))
    for t in range(length):
        biases = [temporal_biases(*pair) for pair in zip(stack.layers, states)]
        signal = _mean_field_marginals(top.W, *biases[-1])
        for layer, (b_next, _) in zip(reversed(lower), reversed(biases[:-1])):
            signal = sigmoid(b_next + signal @ layer.W.T)
        view = frames[t] = sample_bernoulli(signal, rng)
        for i, layer in enumerate(stack.layers):
            states[i] = state_update(layer, states[i], view)
            if i < len(lower):
                view = sigmoid(biases[i][1] + view @ layer.W)
    return frames
