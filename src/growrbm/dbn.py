"""Static RBM training and greedy deep stacking for both model families.

The trainer interleaves CD updates with the structure schedule: growth
sweeps while gradients are still fluctuating, pruning sweeps once the
layer has settled, and forgetting penalties over the final epochs; the
loop itself is the shared :func:`~growrbm.adapt._train_layer`.  The deep
model is built greedily by :func:`_train_stack`, the one stacking loop
for :class:`Dbn` and ``rnn_dbn.RnnDbn``: each trained layer's hidden
activations become the next layer's data, the next layer starts from
:func:`_inherit` (a fresh layer of the same type), and stacking
continues while the accumulated gradient-variance and energy totals of
the stack stay above their thresholds (or unconditionally up to the cap
when the layer gate is disabled).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapt import (AdaptConfig, ForgettingConfig, GradientStats, TrainState,
                    _train_layer)
from .errors import NumericError
from .log import TrainLog, format_layer_event
from .metrics import cross_entropy_per_bit
from .numerics import RngStream
from .rbm import (CdConfig, Rbm, _apply_update, cd_step, energy,
                  hidden_conditional, visible_conditional)


@dataclass
class LayerGenConfig:
    """Gate for growing the stack by one more layer.

    ``max_layers`` caps the depth of the stack; it defaults to 4.
    """

    max_layers: int = 4
    wd_gain: float = 1.0
    energy_gain: float = 1.0
    wd_threshold: float = 0.01
    energy_threshold: float = 0.01

    def __post_init__(self):
        if self.max_layers < 1:
            raise ValueError("max_layers must be >= 1")
        if self.wd_gain <= 0 or self.energy_gain <= 0:
            raise ValueError("gains must be positive")
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


def mean_field_energy(rbm: Rbm, data: np.ndarray) -> float:
    """Mean conditional expected energy of the data rows."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    h = hidden_conditional(rbm, data)
    return float(np.mean(energy(rbm, data, h)))


def reconstruction_error(rbm: Rbm, data: np.ndarray) -> float:
    """Cross-entropy per bit of the one-pass mean-field reconstruction."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    rec = visible_conditional(rbm, hidden_conditional(rbm, data))
    return cross_entropy_per_bit(rec, data)


def train_adaptive_rbm(data: np.ndarray, n_hidden: int, cd: CdConfig,
                       epochs: int, rng: RngStream,
                       adapt: AdaptConfig | None = None,
                       forget: ForgettingConfig | None = None,
                       init_model: Rbm | None = None,
                       layer: int = 1, n_layers: int = 1,
                       log: TrainLog | None = None,
                       first_event: str | None = None,
                       resume: TrainState | None = None,
                       epoch_callback=None):
    """Train one RBM with the full structure schedule.

    Returns ``(model, stats, log)``.  ``rng`` is the layer's root stream:
    ``split(0)`` seeds the weight init and each epoch ``e`` draws from
    ``split(e + 1)``, so a run resumed from epoch ``e`` replays the exact
    tail of an uninterrupted run (see :func:`~growrbm.adapt._train_layer`).
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[0] == 0:
        raise ValueError("empty training data")
    if resume is None:
        init_model = (Rbm.random(data.shape[1], n_hidden, rng.split(0))
                      if init_model is None else init_model.copy())
    return _train_layer(
        data, init_model, cd, epochs, rng, adapt, forget, layer, n_layers,
        log, first_event, resume, epoch_callback, gradient=cd_step,
        activations=lambda m, x: hidden_conditional(m, x).mean(axis=0),
        update=_apply_update,
        metrics=lambda m, x: (mean_field_energy(m, x),
                              reconstruction_error(m, x)))


def _layer_totals(stats: GradientStats, energy: float) -> LayerTotals:
    """Stack-gate summary of a trained layer.

    ``wd`` totals the tracked gradient variances over biases and weights.
    ``energy`` is the magnitude of the layer's mean data energy;
    magnitude, because a fitted layer sits at negative energy and the
    gate compares against a positive threshold.
    """
    return LayerTotals(wd=float(stats.var_c().sum() + stats.var_w().sum()),
                       energy=abs(energy))


def should_generate_layer(dbn, cfg: LayerGenConfig) -> bool:
    """True when both accumulated totals clear their thresholds and the
    stack is below ``max_layers``.  Works for static and recurrent stacks."""
    if dbn.n_layers >= cfg.max_layers:
        return False
    wd_sum = sum(cfg.wd_gain * t.wd for t in dbn.totals)
    e_sum = sum(cfg.energy_gain * t.energy for t in dbn.totals)
    return wd_sum > cfg.wd_threshold and e_sum > cfg.energy_threshold


def _inherit(parent: Rbm, rng: RngStream) -> Rbm:
    """Untrained square layer of the parent's type over its hidden
    output: small weights (and, for a recurrent layer, a uniform initial
    state), and both bias vectors copy the parent's hidden bias, so the
    fresh layer initially mirrors the activation statistics it will be
    fed."""
    new = type(parent).random(parent.n_hidden, parent.n_hidden, rng)
    new.b, new.c = parent.c.copy(), parent.c.copy()
    return new


def _train_stack(stack: Dbn, inputs, rng: RngStream,
                 layer_cfg: LayerGenConfig, gate_layers: bool,
                 log: TrainLog | None, *, train, energy, lift, **layer_kwargs):
    """Greedy bottom-up stacking loop of both stack kinds.

    Layer ``l`` trains as ``train(inputs, rng=rng.split(l), ...)``, as a
    standalone run would; the next layer starts from :func:`_inherit`
    with ``rng.split(l + 1).split(0)`` on ``lift(model, inputs)``.
    ``energy`` gives the layer's totals.  Returns ``(stack, log)``.
    """
    log = log if log is not None else TrainLog()
    layer_idx = 1
    init = None
    first_event = None
    while True:
        model, stats, _ = train(
            inputs, rng=rng.split(layer_idx), init_model=init,
            layer=layer_idx, n_layers=layer_idx, log=log,
            first_event=first_event, **layer_kwargs)
        totals = _layer_totals(stats, energy(model, inputs))
        stack = type(stack)(layers=stack.layers + [model],
                            totals=stack.totals + [totals])
        stack.validate()

        if gate_layers:
            grow = should_generate_layer(stack, layer_cfg)
        else:
            grow = stack.n_layers < layer_cfg.max_layers
        if not grow:
            break
        layer_idx += 1
        init = _inherit(model, rng.split(layer_idx).split(0))
        inputs = lift(model, inputs)
        first_event = format_layer_event(layer_idx)

    return stack, log


def train_adaptive_dbn(data: np.ndarray, n_hidden: int, cd: CdConfig,
                       epochs_per_layer: int, rng: RngStream,
                       layer_cfg: LayerGenConfig,
                       adapt: AdaptConfig | None = None,
                       forget: ForgettingConfig | None = None,
                       gate_layers: bool = True,
                       log: TrainLog | None = None):
    """Greedy bottom-up training of a stack of (optionally adaptive) RBMs.

    With ``gate_layers`` False the stack always grows to ``max_layers``;
    otherwise growth stops as soon as the accumulated totals fall short.
    Returns ``(dbn, log)``.
    """
    return _train_stack(
        Dbn(), np.atleast_2d(np.asarray(data, dtype=np.float64)), rng,
        layer_cfg, gate_layers, log, train=train_adaptive_rbm,
        energy=mean_field_energy, lift=hidden_conditional,
        n_hidden=n_hidden, cd=cd, epochs=epochs_per_layer, adapt=adapt,
        forget=forget)
