"""Restricted Boltzmann machine core.

Defines the bipartite energy model over binary visible and hidden
vectors, the hidden conditional, and the contrastive divergence
estimator used for training.  The exact enumeration-based quantities
the estimator is tested against (partition function, joint
probabilities, log-likelihood and its gradient) and the visible
conditional live with the tests, in ``tests/oracles.py``.

:class:`Rbm` is the one layer type.  The recurrent layer and its
gradient subclass :class:`Rbm` and :class:`RbmGradient` with more array
fields, so copying, validation and gradient arithmetic are written once.
A layer's arrays, a gradient's and the gradient moments' are views into
one C-ordered buffer each (:class:`Packed`), so the update step
(:func:`_apply_update`) and the gradient sums work on whole buffers, not
field by field; only the gradient norm sums per field, which rounds as
a single sum would not.  ``HIDDEN`` names the per-hidden-unit arrays
that growth and pruning edit.

The CD-k Gibbs chain, :func:`_cd_chain`, also serves the recurrent
model's BPTT-CD gradient.  It takes its uniforms pre-drawn, one block
per Bernoulli draw in the order the chain consumes them, and both
families draw those blocks the same way (:func:`_chain_uniforms`): one
block of every row of the batch per chain step.  It writes every
activation into one buffer on bare ``expit``, tests the buffer once,
and reruns on :func:`~growrbm.numerics.sigmoid` only where the test
fails (the rule of :mod:`~growrbm.numerics`).

Conventions used throughout the package:

* rows are samples, so a batch is ``(N, I)`` and ``W`` has shape
  ``(I, J)`` with hidden activations computed as ``v @ W + c``;
* all gradient records point in the direction of *ascent* on
  log-likelihood, i.e. a trainer applies ``param += lr * grad``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numerics import RngStream, _unclamped, expit, sigmoid


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


class Packed:
    """Dataclass mixin: every array field is a view, in field order, into
    one C-ordered float64 buffer, :attr:`buffer`, so one ufunc call on the
    buffer steps every field.  The buffer sits in a slot, outside
    ``vars()``, which holds the fields alone.

    Building an instance copies its arrays into a fresh buffer, of a
    wider type than float64 only if an array needs one.  A field keeps
    its shape: assigning one copies the value into its view, and a value
    of another shape raises ``ValueError``.  A layer changes width only
    by building a new layer, as growth and pruning do.
    """

    __slots__ = ("buffer",)

    def __post_init__(self):
        arrays = [np.asarray(a) for a in vars(self).values()]
        self.__dict__.update(zip(vars(self), arrays))
        self._view(np.concatenate(arrays, axis=None,
                                  dtype=np.result_type(np.float64, *arrays)))

    def __setattr__(self, name, value):
        view = self.__dict__.get(name)
        if view is None:  # a field set by ``__init__``
            object.__setattr__(self, name, value)
        elif np.shape(value) == view.shape:
            view[...] = value
        else:
            raise ValueError(f"{name} has shape {view.shape}; a value of "
                             f"shape {np.shape(value)} does not fit it")

    @classmethod
    def _on(cls, buffer: np.ndarray, like) -> "Packed":
        """An instance whose fields are views into ``buffer``, which is
        not copied, shaped as the arrays ``like`` in field order."""
        obj = cls.__new__(cls)
        obj.__dict__.update(zip(cls.__dataclass_fields__, like))
        obj._view(buffer)
        return obj

    def _view(self, buffer: np.ndarray):
        """Replace every field by a view into ``buffer`` of its shape."""
        fields, offset = self.__dict__, 0
        for name, arr in fields.items():
            end = offset + arr.size
            fields[name] = buffer[offset:end].reshape(arr.shape)
            offset = end
        object.__setattr__(self, "buffer", buffer)

    def copy(self):
        return self._on(self.buffer.copy(), vars(self).values())


@dataclass
class Rbm(Packed):
    """Model parameters: visible bias ``b``, hidden bias ``c``, weights ``W``.

    The field order is the array order of :meth:`arrays`, of the layer's
    buffer (:class:`Packed`), gradients and checkpoints.  ``HIDDEN``
    arrays hold one entry per hidden unit on their last axis.
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

    def arrays(self) -> dict:
        """Every array by field name, in field order."""
        return dict(vars(self))

    def _shapes(self) -> dict:
        """Expected shape of every array, by field name."""
        i, j = self.n_visible, self.n_hidden
        return {"b": (i,), "c": (j,), "W": (i, j)}

    def validate(self):
        """Raise at the first array, in field order, with the wrong shape
        or a non-finite value (tested only if the whole buffer fails)."""
        for name, arr in self.arrays().items():
            if arr.ndim == 0:  # the layer sizes read ``shape[0]``
                raise DimensionError(
                    f"{name} has shape (), expected at least one axis")
        finite = np.isfinite(self.buffer).all()
        for name, shape in self._shapes().items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DimensionError(
                    f"{name} has shape {arr.shape}, expected {shape}")
            if not (finite or np.isfinite(arr).all()):
                raise FloatingPointError(f"non-finite values in {name}")


@dataclass
class RbmGradient(Packed):
    """Ascent-direction gradients, one field per model array, in the
    model's field order, so the buffer is laid out as the model's."""

    db: np.ndarray
    dc: np.ndarray
    dW: np.ndarray

    @classmethod
    def zeros(cls, model: Rbm) -> "RbmGradient":
        return cls._on(np.zeros(model.buffer.size), vars(model).values())

    @classmethod
    def empty(cls, model: Rbm) -> "RbmGradient":
        """A gradient of ``model``'s shapes whose values are to be written."""
        return cls._on(np.empty(model.buffer.size), vars(model).values())

    def add_(self, other: "RbmGradient") -> "RbmGradient":
        """Add ``other`` in place.  A static ``other`` adds into the
        static fields of a recurrent gradient, which lead its buffer."""
        self.buffer[:other.buffer.size] += other.buffer
        return self

    def scale_(self, s: float) -> "RbmGradient":
        self.buffer *= s
        return self

    def norm(self) -> float:
        sq, total, start = self.buffer * self.buffer, 0.0, 0
        for arr in vars(self).values():
            total += np.add.reduce(sq[start:start + arr.size])
            start += arr.size
        return float(np.sqrt(total))

    def clip_(self, max_norm: float) -> "RbmGradient":
        n = self.norm()
        if n > max_norm:
            self.scale_(max_norm / n)
        return self


def _apply_update(model: Rbm, g: RbmGradient, lr: float):
    """Ascent step ``param += lr * grad`` on every array, in place, as
    two calls on the buffers."""
    model.buffer += lr * g.buffer


def _check_last_dim(name: str, arr: np.ndarray, expected: int):
    if arr.shape[-1] != expected:
        raise DimensionError(
            f"{name} has trailing dimension {arr.shape[-1]}, expected {expected}")


@np.errstate(over="ignore", invalid="ignore")
def hidden_conditional(rbm: Rbm, v) -> np.ndarray:
    """``p(h_j = 1 | v)`` for each hidden unit; supports stacked rows."""
    v = np.asarray(v, dtype=np.float64)
    _check_last_dim("visible vector", v, rbm.n_visible)
    return sigmoid(v @ rbm.W + rbm.c)


def _chain_uniforms(rng: RngStream, rows: int, rbm: Rbm, k: int) -> list:
    """The uniform blocks a CD-k chain on ``rows`` data rows consumes,
    drawn from ``rng`` in chain order: ``(rows, J)`` for the hidden
    sample, then ``(rows, I)`` and ``(rows, J)`` per further step."""
    widths = [rbm.n_hidden] + [rbm.n_visible, rbm.n_hidden] * (k - 1)
    return [rng.uniform(size=(rows, w)) for w in widths]


@np.errstate(over="ignore", invalid="ignore")
def _cd_chain(W: np.ndarray, b, c, v: np.ndarray, uniforms):
    """The CD-k Gibbs chain from data rows ``v``; returns
    ``(hidden, v_prob)``, where ``hidden`` stacks the data's hidden
    conditionals ``h_data`` and the negative statistics ``h_model`` as
    ``(2, rows, J)``, so one reduction gives both batch means.

    ``b`` and ``c`` are bias vectors or one bias row per data row.
    ``uniforms`` holds one block per Bernoulli draw, as
    :func:`_chain_uniforms` draws them: the hidden sample, then a visible
    and a hidden sample per further step.  Intermediate states are
    sampled; the final visible state and the negative hidden statistics
    are probabilities, to cut sampling noise.

    Every activation of the chain is written into one buffer, cut into
    views by plain slices, and the buffer is tested once: the whole chain
    reruns into the same views where the test fails.
    """
    rows, (i, j), k = v.shape[0], W.shape, len(uniforms[::2])
    # the first and last hidden activations lead the buffer as one block;
    # the others follow in the order the chain makes them
    act = np.empty(rows * (j + (i + j) * k))
    hidden = act[:2 * rows * j].reshape(2, rows, j)
    acts, start = [hidden[0]], 2 * rows * j
    for width in [i, j] * (k - 1) + [i]:
        acts.append(act[start:start + rows * width].reshape(rows, width))
        start += rows * width
    acts.append(hidden[1])
    for logistic in (expit, sigmoid):
        out = iter(acts)
        h = (uniforms[0] < _conditional(v, W, c, next(out), logistic)
             ).astype(np.float64)
        v_prob = _conditional(h, W.T, b, next(out), logistic)
        for u_v, u_h in zip(uniforms[1::2], uniforms[2::2]):
            v_k = (u_v < v_prob).astype(np.float64)
            h = (u_h < _conditional(v_k, W, c, next(out), logistic)
                 ).astype(np.float64)
            v_prob = _conditional(h, W.T, b, next(out), logistic)
        _conditional(v_prob, W, c, next(out), logistic)
        if logistic is expit and _unclamped(act):
            break
    return hidden, v_prob


def _conditional(x, M, bias, out, logistic) -> np.ndarray:
    """``logistic(x @ M + bias)`` of the chain, written into ``out``."""
    np.matmul(x, M, out)
    out += bias
    logistic(out, out)
    return out


def cd_step(rbm: Rbm, batch, cfg: CdConfig,
            rng: RngStream) -> tuple[RbmGradient, np.ndarray]:
    """One CD-k gradient estimate; does not modify the model.

    Returns ``(gradient, h_mean)``.  Positive statistics pair the data
    with its hidden conditionals, whose per-unit mean over the batch is
    ``h_mean`` (the activations the clarify penalty reads); the negative
    ones come from :func:`_cd_chain`, whose uniform blocks are drawn from
    ``rng`` in chain order.  Visible inputs may be probabilities in
    [0, 1] (stacked-layer training feeds activations).  The batch means
    are sums over the rows divided by ``n``: the reduction and division
    ``np.mean`` performs, bit for bit, without its per-call wrapper cost.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    _check_last_dim("batch", batch, rbm.n_visible)
    if not (batch.min() >= 0.0 and batch.max() <= 1.0):  # NaN fails
        raise ValueError("visible batch values must lie in [0, 1]")

    n = batch.shape[0]
    hidden, v_prob = _cd_chain(
        rbm.W, rbm.b, rbm.c, batch, _chain_uniforms(rng, n, rbm, cfg.k))
    h_mean, h_model_mean = hidden.sum(axis=1) / n
    g = RbmGradient.empty(rbm)
    np.subtract(batch.sum(axis=0) / n, v_prob.sum(axis=0) / n, out=g.db)
    np.subtract(h_mean, h_model_mean, out=g.dc)
    np.divide(batch.T @ hidden[0] - v_prob.T @ hidden[1], n, out=g.dW)
    return g, h_mean
