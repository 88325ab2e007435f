"""Static RBM training and greedy deep stacking for both model families.

The trainer interleaves CD updates with the structure schedule: growth
sweeps while gradients are still fluctuating, pruning sweeps once the
layer has settled, and forgetting penalties over the final epochs; the
loop itself is the shared :func:`~growrbm.adapt._train_layer`, reading
the rows through the epoch view :class:`_EpochFrames`.  The whole-set
passes of that view write their arrays into buffers kept for the
layer, so a large training set is not allocated (and page-faulted in)
again each epoch; the CD batches likewise write into one
:class:`~growrbm.rbm.CdBuffers` kept for the layer.  The deep model is
built greedily by :func:`_train_stack`, the one stacking loop for
:class:`Dbn` and ``rnn_dbn.RnnDbn``: each trained layer's hidden
activations become the next layer's data, the next layer starts from
:func:`_inherit` (a fresh layer of the same type), and stacking
continues while the accumulated gradient-variance and energy totals of
the stack stay above their thresholds (or, without ``adapt``,
unconditionally up to the cap).  The gate reads each layer's totals
from the last row of the log the layer returns.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapt import AdaptConfig, ForgettingConfig, TrainState, _train_layer
from .errors import NumericError
from .log import LogRow, TrainLog
from .metrics import cross_entropy_per_bit
from .numerics import RngStream, sigmoid
from .rbm import (CdBuffers, CdConfig, Rbm, _apply_update, _check_last_dim,
                  cd_step, hidden_conditional)


@dataclass
class LayerGenConfig:
    """Gate for growing the stack by one more layer.

    ``max_layers`` caps the depth of the stack; it defaults to 4.  The
    thresholds are the paper's θ_L1/α_WD and θ_L2/α_E.
    """

    max_layers: int = 4
    wd_threshold: float = 0.01
    energy_threshold: float = 0.01

    def __post_init__(self):
        if self.max_layers < 1:
            raise ValueError("max_layers must be >= 1")
        if self.wd_threshold <= 0 or self.energy_threshold <= 0:
            raise ValueError("thresholds must be positive")


@dataclass
class LayerTotals:
    """Summary of one trained layer used by the stacking gate."""

    wd: float
    energy: float


@dataclass
class Dbn:
    """Greedily trained stack of RBMs, bottom first."""

    layers: list = field(default_factory=list)
    totals: list = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_visible(self) -> int:
        return self.layers[0].n_visible

    def validate(self):
        for lower, upper in zip(self.layers, self.layers[1:]):
            if upper.n_visible != lower.n_hidden:
                raise NumericError(
                    f"layer chain broken: {upper.n_visible} visible units "
                    f"over {lower.n_hidden} hidden units")
        for layer in self.layers:
            layer.validate()


class _EpochFrames:
    """The static epoch view: the rows, the layer's whole-set buffers,
    and the pruning sweep's hidden pass kept for the metrics.

    One view serves every epoch of a layer (:meth:`epoch`).  Its
    whole-set arrays live in buffers kept for the layer: the products
    ``data @ W``, the hidden conditionals, the reconstruction and the
    cross-entropy scratch, every large product and ufunc writing into
    them positionally.  A fresh array of ``(N, J)`` floats is
    page-faulted in again on each allocation; a kept one is not.  The
    ``(N, J)`` pair is allocated again only when the layer's width
    changes (growth or pruning).

    :meth:`metrics` reuses the pass of :meth:`mean_activation` while the
    model is the object it was made for, that is when the sweep pruned
    nothing; a pruning sweep returns a new model, whose metrics take a
    pass of their own.
    """

    def __init__(self, data: np.ndarray):
        self.data = data
        self._kept = None  # the model whose hidden pass the buffers hold
        self._vW = self._h = None  # (N, J): data @ W, hidden conditionals
        self._rec = np.empty(data.shape)
        self._scratch = np.empty((2,) + data.shape)

    def epoch(self) -> "_EpochFrames":
        """This view for a new epoch: the batch updates changed the model
        in place, so the kept pass is dropped; the buffers stay."""
        self._kept = None
        return self

    @np.errstate(over="ignore", invalid="ignore")
    def _hidden_pass(self, rbm: Rbm):
        _check_last_dim("visible vector", self.data, rbm.n_visible)
        self._kept = None  # until the pass is complete
        if self._h is None or self._h.shape[1] != rbm.n_hidden:
            self._vW = self._h = None  # the old width's pair is freed first
            self._vW = np.empty((len(self.data), rbm.n_hidden))
            self._h = np.empty_like(self._vW)
        vW, h = self._vW, self._h
        np.matmul(self.data, rbm.W, vW)
        sigmoid(np.add(vW, rbm.c, h), h)
        self._kept = rbm

    def mean_activation(self, rbm: Rbm) -> np.ndarray:
        """Per-unit mean of the hidden conditionals over the rows."""
        self._hidden_pass(rbm)
        return self._h.mean(axis=0)

    def metrics(self, rbm: Rbm) -> tuple[float, float]:
        """``(energy, error)`` of the rows from one hidden pass: the mean
        conditional expected energy (``energy`` of ``tests/oracles.py`` at
        the hidden conditionals) and the cross-entropy per bit of the
        one-pass mean-field reconstruction."""
        if self._kept is not rbm:
            self._hidden_pass(rbm)
        self._kept = None  # the energy overwrites the products
        vW, h, rec = self._vW, self._h, self._rec
        energy = float(np.mean(-(self.data @ rbm.b + h @ rbm.c
                                 + np.sum(np.multiply(vW, h, vW), axis=-1))))
        with np.errstate(over="ignore", invalid="ignore"):  # sigmoid raises
            np.matmul(h, rbm.W.T, rec)
            sigmoid(np.add(rec, rbm.b, rec), rec)
        return energy, cross_entropy_per_bit(rec, self.data, self._scratch)


def train_adaptive_rbm(data: np.ndarray, n_hidden: int, cd: CdConfig,
                       epochs: int, rng: RngStream,
                       adapt: AdaptConfig | None = None,
                       forget: ForgettingConfig | None = None,
                       layer: int = 1, resume: TrainState | None = None,
                       epoch_callback=None):
    """Train one RBM with the full structure schedule.

    Returns ``(model, stats, log)``.  ``rng`` is the layer's root stream:
    ``split(0)`` seeds the weight init when ``resume`` is None and each
    epoch ``e`` draws from ``split(e + 1)``, so a run resumed from epoch
    ``e`` replays the exact tail of an uninterrupted run.  Each batch
    gets one :func:`~growrbm.rbm.cd_step` on its own stream, laid out by
    the shared loop (:func:`~growrbm.adapt._train_layer`), through the
    module's name ``cd_step`` and the layer's one
    :class:`~growrbm.rbm.CdBuffers`, which the loop's use of each
    gradient within its batch allows.  One epoch view
    (:class:`_EpochFrames`) serves the layer, and an epoch whose pruning
    sweep removes nothing scores itself from the sweep's hidden pass.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[0] == 0:
        raise ValueError("empty training data")
    start = resume or TrainState.fresh(
        Rbm.random(data.shape[1], n_hidden, rng.split(0)))
    buffers = CdBuffers()

    def gradient(model, batch, cfg, stream):
        return cd_step(model, batch, cfg, stream, buffers)

    return _train_layer(
        data, start, cd, epochs, rng, adapt, forget, layer, epoch_callback,
        gradient=gradient, update=_apply_update,
        epoch_data=_EpochFrames(data).epoch)


def _layer_totals(row: LogRow) -> LayerTotals:
    """Stack-gate summary of a trained layer, from its last log row.

    ``wd`` totals the tracked gradient variances over biases and weights.
    ``energy`` is the magnitude of the layer's mean data energy;
    magnitude, because a fitted layer sits at negative energy and the
    gate compares against a positive threshold.
    """
    return LayerTotals(wd=row.wd_c + row.wd_w, energy=abs(row.energy))


def should_generate_layer(dbn, cfg: LayerGenConfig) -> bool:
    """True when both accumulated totals clear their thresholds and the
    stack is below ``max_layers``.  Works for static and recurrent stacks."""
    if dbn.n_layers >= cfg.max_layers:
        return False
    wd_sum = sum(t.wd for t in dbn.totals)
    e_sum = sum(t.energy for t in dbn.totals)
    return wd_sum > cfg.wd_threshold and e_sum > cfg.energy_threshold


def _inherit(parent: Rbm, rng: RngStream) -> Rbm:
    """Untrained square layer of the parent's type over its hidden
    output: small weights (and, for a recurrent layer, a uniform initial
    state), and both bias vectors copy the parent's hidden bias, so the
    fresh layer initially mirrors the activation statistics it will be
    fed."""
    new = type(parent).random(parent.n_hidden, parent.n_hidden, rng)
    new.b[:] = parent.c
    new.c[:] = parent.c
    return new


def _train_stack(stack: Dbn, inputs, rng: RngStream,
                 layer_cfg: LayerGenConfig, *, train, lift, epochs: int,
                 adapt: AdaptConfig | None, **layer_kwargs):
    """Greedy bottom-up stacking loop of every model kind (a single-layer
    kind is a stack capped at one layer).

    Layer ``l`` trains as ``train(inputs, rng=rng.split(l), ...)``, as a
    standalone run would; the next layer starts from :func:`_inherit`
    with ``rng.split(l + 1).split(0)`` on ``lift(model, inputs)``.  Each
    layer returns a log of its own rows, which the stack's log takes in
    layer order; the layer's totals come from its last row, so every
    layer must train at least one epoch.  The layer gate runs exactly
    when ``adapt`` is given; without it the stack grows to the cap.  The
    ``layer_kwargs`` (``epoch_callback`` among them) reach every layer.
    Returns ``(stack, log)``.
    """
    if epochs < 1:
        raise ValueError("epochs_per_layer must be >= 1")
    log = TrainLog()
    layer_idx = 1
    start = None
    while True:
        model, _, layer_log = train(
            inputs, rng=rng.split(layer_idx), resume=start,
            layer=layer_idx, epochs=epochs, adapt=adapt, **layer_kwargs)
        log.rows.extend(layer_log.rows)
        totals = _layer_totals(layer_log.rows[-1])
        stack = type(stack)(layers=stack.layers + [model],
                            totals=stack.totals + [totals])
        stack.validate()

        if adapt is not None:
            grow = should_generate_layer(stack, layer_cfg)
        else:
            grow = stack.n_layers < layer_cfg.max_layers
        if not grow:
            break
        layer_idx += 1
        start = TrainState.fresh(
            _inherit(model, rng.split(layer_idx).split(0)))
        inputs = lift(model, inputs)

    return stack, log


def train_adaptive_dbn(data: np.ndarray, n_hidden: int, cd: CdConfig,
                       epochs_per_layer: int, rng: RngStream,
                       layer_cfg: LayerGenConfig,
                       adapt: AdaptConfig | None = None,
                       forget: ForgettingConfig | None = None,
                       epoch_callback=None):
    """Greedy bottom-up training of a stack of (optionally adaptive) RBMs.

    Without ``adapt`` the layers keep their size and the stack always
    grows to ``max_layers``; with it, growth stops as soon as the
    accumulated totals fall short.  ``forget`` and ``epoch_callback``
    (each layer's state after each of its epochs) reach every layer.
    Returns ``(dbn, log)``.
    """
    return _train_stack(
        Dbn(), np.atleast_2d(np.asarray(data, dtype=np.float64)), rng,
        layer_cfg, train=train_adaptive_rbm, lift=hidden_conditional,
        n_hidden=n_hidden, cd=cd, epochs=epochs_per_layer, adapt=adapt,
        forget=forget, epoch_callback=epoch_callback)
