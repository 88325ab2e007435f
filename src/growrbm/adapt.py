"""Structure adaptation: hidden-unit growth, pruning, and forgetting.

Growth is driven by the *variance* of recent gradients.  A hidden unit
whose bias gradient and incoming weight gradients keep fluctuating after
the optimizer has had time to settle is treated as overloaded: it is
trying to represent more than one feature.  Such a unit is split into
two near-copies, halving its load.  Pruning removes units whose mean
activation over the data has collapsed toward zero, since a unit that
never switches on contributes nothing the visible bias could not.  Both
sweeps edit every per-unit array a layer names in ``HIDDEN``, where a
child goes directly after its parent on the last axis
(:func:`insert_after`).  A growth sweep draws each child's bias noise,
then its weight-column noise, in parent order, and then fresh columns
for any further per-unit array (the recurrent ``w_uh``).

Forgetting penalties sparsify a trained model: a constant-magnitude pull
toward zero on the weights (optionally only on weights that are already
large) and a push on the hidden biases that drives each unit's
activation away from the undecided region around 1/2.

The one adaptive epoch loop, :func:`_train_layer`, lives here too; the
static and recurrent trainers pass it their family's gradient, update
step and epoch view, and a :class:`TrainState` is where it starts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructureError
from .log import (LogRow, TrainLog, format_annihilation_event,
                  format_generation_event, format_layer_event, join_events)
from .numerics import RngStream
from .rbm import Packed, Rbm, RbmGradient


@dataclass
class AdaptConfig:
    """Hidden-unit growth and pruning hyperparameters.

    ``gen_threshold`` is the growth score a unit must exceed to be split
    (the paper's θ_G/(α_c·α_W)), and ``ann_threshold`` is the mean
    activation below which a unit is removed.  ``generation_phase_epochs``
    bounds how long growth checks run; pruning checks start once growth
    has finished.
    """

    generation_phase_epochs: int
    max_hidden: int
    gen_threshold: float = 0.001
    ann_threshold: float = 0.1
    min_hidden: int = 1

    def __post_init__(self):
        if self.generation_phase_epochs < 0:
            raise ValueError("generation_phase_epochs must be >= 0")
        if self.gen_threshold <= 0:
            raise ValueError("gen_threshold must be positive")
        if not 0.0 < self.ann_threshold < 1.0:
            raise ValueError("ann_threshold must lie in (0, 1)")
        if self.min_hidden < 1:
            raise ValueError("min_hidden must be >= 1")
        if self.max_hidden < self.min_hidden:
            raise ValueError("max_hidden must be >= min_hidden")


@dataclass
class ForgettingConfig:
    """Sparsification penalty strengths and schedule.

    The three strengths are deliberately capped at 0.01: these penalties
    are meant to be weak nudges applied alongside the data gradient, not
    competing objectives.
    """

    decay_strength: float = 0.001
    clarify_strength: float = 0.001
    selective_strength: float = 0.001
    selective_cutoff: float = 0.1
    forgetting_epochs: int = 0
    selective_epochs: int = 0

    _CAP = 0.01

    def __post_init__(self):
        for name in ("decay_strength", "clarify_strength", "selective_strength"):
            val = getattr(self, name)
            if not 0.0 <= val <= self._CAP:
                raise ValueError(f"{name} must lie in [0, {self._CAP}]")
        if self.selective_cutoff <= 0:
            raise ValueError("selective_cutoff must be positive")
        if self.forgetting_epochs < 0 or self.selective_epochs < 0:
            raise ValueError("epoch counts must be >= 0")


@dataclass
class GradientStats(Packed):
    """Exponential moving first and second moments of recent gradients.

    Tracks the hidden-bias gradient per unit and the weight gradient per
    connection; the four moments, hidden units on their last axis, are
    the whole state, and each :meth:`update` is given its decay,
    :data:`STATS_DECAY`.  ``var_*`` return the centred second moments.

    The moments share one buffer (:class:`~growrbm.rbm.Packed`), whose
    field order makes it two rows, the means ``[c | W]`` and the second
    moments ``[c | W]``, each laid out as a gradient's ``[dc | dW]``, so
    an update is one decay of the buffer and one in-place sum per row.
    """

    mean_c: np.ndarray
    mean_w: np.ndarray
    sq_c: np.ndarray
    sq_w: np.ndarray

    @classmethod
    def zeros(cls, n_visible: int, n_hidden: int) -> "GradientStats":
        w = (n_visible, n_hidden)
        return cls(np.zeros(n_hidden), np.zeros(w), np.zeros(n_hidden),
                   np.zeros(w))

    def update(self, g: RbmGradient, lam: float):
        """Decay the moments by ``lam`` towards the gradient's ``dc`` and
        ``dW`` and their squares, as ``M = lam * M + (1 - lam) * x``
        computed in place, on the gradient's ``[dc | dW]`` slice."""
        if g.dc.shape != self.mean_c.shape or g.dW.shape != self.mean_w.shape:
            raise ValueError("gradient shape does not match tracked statistics")
        moments = self.buffer.reshape(2, -1)
        x = g.buffer[g.db.size:g.db.size + moments.shape[1]]
        moments *= lam
        moments[0] += (1 - lam) * x
        moments[1] += (1 - lam) * x ** 2

    def var_c(self) -> np.ndarray:
        return np.maximum(self.sq_c - self.mean_c ** 2, 0.0)

    def var_w(self) -> np.ndarray:
        return np.maximum(self.sq_w - self.mean_w ** 2, 0.0)


def generation_scores(stats: GradientStats) -> np.ndarray:
    """Per-unit growth score, compared with ``AdaptConfig.gen_threshold``:
    bias-gradient variance times the mean variance of the unit's incoming
    weight gradients."""
    return stats.var_c() * np.mean(stats.var_w(), axis=0)


def insert_after(arr: np.ndarray, parents, values) -> np.ndarray:
    """``arr`` with one hidden unit inserted directly after each parent.

    Hidden units are the last axis of every per-unit array (``c``,
    ``W``, ``w_uh`` and the gradient statistics); ``values`` holds the
    children along that axis in parent order, or one scalar for all.
    """
    return np.insert(arr, np.add(parents, 1), values, axis=-1)


def maybe_generate(model: Rbm, stats: GradientStats, cfg: AdaptConfig,
                   rng: RngStream, scores: np.ndarray | None = None):
    """One growth sweep.  Returns ``(model, stats, parent_indices)``.

    ``scores`` are :func:`generation_scores` of ``stats`` (computed here
    unless given), on the pre-edit structure; each triggered unit
    gets a child inserted directly after it whose bias and weight column
    copy the parent plus Gaussian noise of sd :data:`SPLIT_NOISE_SD`, and
    whose further per-unit columns are fresh ``N(0, 0.01)`` draws.
    Children never trigger within the sweep that created them, and the
    sweep stops adding children once ``max_hidden`` is reached.  With no
    triggers the inputs are returned unchanged and no randomness is
    consumed.
    """
    if scores is None:
        scores = generation_scores(stats)
    triggered = [j for j in range(model.n_hidden)
                 if scores[j] > cfg.gen_threshold]
    room = cfg.max_hidden - model.n_hidden
    parents = triggered[:max(0, room)]
    if not parents:
        return model, stats, []

    sd = SPLIT_NOISE_SD
    child_c, child_cols = [], []
    for j in parents:
        child_c.append(model.c[j] + rng.normal(sd=sd))
        child_cols.append(model.W[:, j]
                          + rng.normal(sd=sd, size=model.n_visible))
    children = {"c": child_c, "W": np.transpose(child_cols)}
    for name in model.HIDDEN[2:]:  # past c and W
        rows = getattr(model, name).shape[0]
        children[name] = rng.normal(sd=0.01, size=(len(parents), rows)).T

    grown = type(model)(**{**model.arrays(), **{
        name: insert_after(getattr(model, name), parents, values)
        for name, values in children.items()}})
    return grown, GradientStats(*(insert_after(m, parents, 0.0)
                                  for m in vars(stats).values())), parents


def mask_from_activations(mean_act: np.ndarray, cfg: AdaptConfig) -> np.ndarray:
    """Pruning mask from per-unit mean activations.

    Marks units strictly below ``ann_threshold``; if that would leave
    fewer than ``min_hidden`` units, the most active marked units are
    retained (ties keep the lower index).
    """
    mean_act = np.asarray(mean_act, dtype=np.float64)
    mask = mean_act < cfg.ann_threshold
    keep = mean_act.shape[0] - int(mask.sum())
    if keep < cfg.min_hidden:
        need = cfg.min_hidden - keep
        marked = np.flatnonzero(mask)
        order = marked[np.argsort(-mean_act[marked], kind="stable")]
        mask[order[:need]] = False
    return mask


def apply_annihilation(model: Rbm, stats: GradientStats, mask: np.ndarray):
    """Drop the masked hidden units from every array of ``model.HIDDEN``
    and from the statistics.

    The kept units are picked with a boolean index, which leaves a 2-d
    array Fortran-ordered; the results are packed into C-ordered buffers
    (:class:`~growrbm.rbm.Packed`), the layout of a train state read back
    from disk, since BLAS and ``sum`` may round the two layouts
    differently and a resumed run must match an uninterrupted one bit
    for bit."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[0] != model.n_hidden:
        raise ValueError("mask length does not match hidden layer size")
    if mask.all():
        raise StructureError("refusing to remove every hidden unit; "
                             "raise min_hidden instead")
    keep = ~mask
    pruned = type(model)(**{**model.arrays(), **{
        name: getattr(model, name)[..., keep] for name in model.HIDDEN}})
    return pruned, GradientStats(*(m[..., keep] for m in vars(stats).values()))


def add_forgetting_(g: RbmGradient, model: Rbm, mode: str,
                    cfg: ForgettingConfig,
                    hidden_activations=None) -> RbmGradient:
    """Add the ascent-direction ``(b, c, W)`` contribution of one
    forgetting penalty into ``g`` in place, for either layer family;
    returns ``g``.

    ``decay``     constant pull of every weight toward zero.
    ``clarify``   pushes each unit's mean activation away from 1/2;
                  needs ``hidden_activations`` (per-unit means in (0,1)).
    ``selective`` decay applied only to weights at or above
                  ``selective_cutoff`` in magnitude, sparing weights that
                  are already small.

    A penalty lives in one of ``db``, ``dc`` and ``dW``; the other two
    get ``+= 0.0``, which turns a ``-0.0`` into ``+0.0``, so ``g`` ends
    bit for bit where adding the full penalty, zeros included, leaves it.
    Further fields of a recurrent gradient are not touched.
    """
    if mode == "decay":
        field, penalty = "dW", -cfg.decay_strength * np.sign(model.W)
    elif mode == "clarify":
        if hidden_activations is None:
            raise ValueError("clarify mode needs hidden activations")
        h = np.asarray(hidden_activations, dtype=np.float64)
        if h.shape != model.c.shape:
            raise ValueError("activation vector must have one entry per hidden unit")
        # derivative of min(h, 1-h) wrt the pre-activation, sign chosen to
        # shrink the penalty; steepest exactly at h = 1/2
        slope = np.where(h <= 0.5, 1.0, -1.0)
        field, penalty = "dc", -cfg.clarify_strength * slope * h * (1.0 - h)
    elif mode == "selective":
        large = np.abs(model.W) >= cfg.selective_cutoff
        field, penalty = "dW", np.where(
            large, -cfg.selective_strength * np.sign(model.W), 0.0)
    else:
        raise ValueError(f"unknown forgetting mode: {mode!r}")
    for name in ("db", "dc", "dW"):
        getattr(g, name).__iadd__(penalty if name == field else 0.0)
    return g


# sd of the noise a split adds to the child's copy of its parent
SPLIT_NOISE_SD = 0.01
# growth ends after this many growth epochs in a row that split no unit
STALL_LIMIT = 5
# decay of the gradient moments at every batch
STATS_DECAY = 0.9


def structure_phase(epoch: int, adapt: AdaptConfig | None, stall: int) -> str:
    """``'generate'``, ``'annihilate'`` or ``'static'`` for this epoch.

    Growth checks run until the phase budget is spent or ``stall``, the
    count of growth epochs in a row that split no unit, reaches
    :data:`STALL_LIMIT`; pruning checks run every epoch after that.
    """
    if adapt is None:
        return "static"
    if epoch >= adapt.generation_phase_epochs or stall >= STALL_LIMIT:
        return "annihilate"
    return "generate"


def forgetting_modes(epoch: int, forget: ForgettingConfig | None,
                     epochs: int) -> tuple:
    """Penalty modes active at this epoch of ``epochs``, possibly empty:
    plain decay plus clarify, then selective decay plus clarify for the
    final epochs."""
    if forget is None:
        return ()
    f, s = forget.forgetting_epochs, forget.selective_epochs
    sel_start = max(0, epochs - s)
    dec_start = max(0, epochs - s - f)
    if s > 0 and epoch >= sel_start:
        return ("selective", "clarify")
    if f > 0 and epoch >= dec_start:
        return ("decay", "clarify")
    return ()


@dataclass
class TrainState:
    """A layer after epoch ``epoch_done``: the model, the gradient
    moments and the growth stall count, which with the epoch fixes the
    rest of the schedule.  A layer starts from one: :meth:`fresh`, or
    what ``epoch_callback`` received or ``load_train_state`` read."""

    epoch_done: int
    model: object
    stats: GradientStats
    stall: int

    @staticmethod
    def fresh(model) -> "TrainState":
        """``model`` before its first epoch."""
        zeros = GradientStats.zeros(model.n_visible, model.n_hidden)
        return TrainState(-1, model, zeros, 0)


def _train_layer(data, start: TrainState, cd, epochs: int, rng: RngStream,
                 adapt: AdaptConfig | None, forget: ForgettingConfig | None,
                 layer: int, epoch_callback, *, gradient, update, epoch_data):
    """Adaptive epoch loop of both trainers; returns ``(model, stats, log)``
    with a fresh :class:`~growrbm.log.TrainLog` of this layer's rows.

    Training runs epochs ``start.epoch_done + 1`` to ``epochs - 1`` on
    copies of ``start``'s arrays; ``epoch_callback``, if given, gets the
    state after each.  The moments decay at :data:`STATS_DECAY`.

    ``data`` holds frames ``(N, I)`` or a list of sequences.  Epoch ``e``
    draws from ``ep = rng.split(e + 1)``: its permutation first, then
    batch ``i`` from ``ep.split(i + 1)``, and the growth sweep from
    ``ep.split(0)``.  Every batch stream of the layer is one stream,
    re-keyed in place to each batch's
    (:meth:`~growrbm.numerics.RngStream.split_into`), so it starts as a
    fresh split would.  The model's shape changes only after the batch
    loop.  The family operations are:

    * ``gradient(model, batch, cd, stream) -> (g, h_mean)``, the ascent
      gradient of the batch drawn from its stream, and its mean hidden
      activations, which the clarify penalty of the forgetting windows
      reads: :func:`~growrbm.rbm.cd_step` or
      :func:`~growrbm.rnn_rbm.bptt_gradients`;
    * ``update(model, g, lr)``;
    * ``epoch_data()``, the family's epoch view of the training set,
      called once per epoch after the updates: ``mean_activation(model)``
      for the pruning sweep and ``metrics(model) -> (energy, error)`` on
      the model after the sweep and its check.  Both views keep the
      sweep's hidden pass for the metrics while the model is the same
      object.  A view may serve every epoch of the layer, as the static
      one does to keep its buffers, but each call drops the kept pass:
      the updates change the model in place.

    ``layer`` counts from 1 and is logged as ``n_layers`` too; a layer
    above the first logs ``layer(l=...)`` on its first epoch.  Growth,
    pruning and the forgetting penalties are the same for both families.
    """
    log = TrainLog()
    model, stats, stall = start.model.copy(), start.stats.copy(), start.stall
    batch_rng = RngStream(0)  # re-keyed to each batch's stream

    for epoch in range(start.epoch_done + 1, epochs):
        ep = rng.split(epoch + 1)
        order = ep.permutation(len(data))
        modes = forgetting_modes(epoch, forget, epochs)
        for bi, offset in enumerate(range(0, len(order), cd.batch_size)):
            idx = order[offset:offset + cd.batch_size]
            batch = (data[idx] if isinstance(data, np.ndarray)
                     else [data[i] for i in idx])
            g, acts = gradient(model, batch, cd,
                               ep.split_into(bi + 1, batch_rng))
            for mode in modes:
                add_forgetting_(g, model, mode, forget, acts)
            stats.update(g, STATS_DECAY)
            update(model, g, cd.learning_rate)

        whole = epoch_data()
        first = epoch == 0 and layer > 1
        events = [format_layer_event(layer)] if first else []
        phase = structure_phase(epoch, adapt, stall)
        if phase == "generate":
            scores = generation_scores(stats)
            model, stats, parents = maybe_generate(model, stats, adapt,
                                                   ep.split(0), scores)
            events += [format_generation_event(j, scores[j]) for j in parents]
            stall = 0 if parents else stall + 1
        elif phase == "annihilate":
            mean_act = whole.mean_activation(model)
            mask = mask_from_activations(mean_act, adapt)
            if mask.any():
                events += [format_annihilation_event(int(j), mean_act[j])
                           for j in np.flatnonzero(mask)]
                model, stats = apply_annihilation(model, stats, mask)

        try:
            model.validate()
        except FloatingPointError as exc:
            raise NumericError(str(exc)) from exc
        energy, error = whole.metrics(model)
        log.append(LogRow(
            epoch=epoch + 1, layer=layer, energy=energy, error=error,
            wd_c=float(stats.var_c().sum()), wd_w=float(stats.var_w().sum()),
            n_hidden=model.n_hidden, n_layers=layer,
            event=join_events(events)))
        if epoch_callback is not None:
            epoch_callback(TrainState(epoch, model.copy(), stats.copy(),
                                      stall))

    return model, stats, log
