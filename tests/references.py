"""Plain or earlier forms of the package's fast paths, which the tests
compare them against, and the helpers that only the tests use; the
comment above each names the path it pins or what it serves."""
import json
from pathlib import Path

import numpy as np
from scipy.special import expit

from growrbm import adapt as adapt_module, dbn, rnn_rbm
from growrbm.adapt import AdaptConfig, ForgettingConfig, GradientStats
from growrbm.data import SequenceDataset
from growrbm.errors import DataFormatError
from growrbm.numerics import _draw, sigmoid
from growrbm.rbm import Rbm, RbmGradient, hidden_conditional
from growrbm.rnn_dbn import predict_next_deep
from growrbm.rnn_rbm import RnnRbmGradient, _mean_field_marginals
from oracles import state_update, visible_conditional


# the range-checked draw of the reference samplers and CD chain; the
# package's samplers draw by numerics._draw, which skips the check
def sample_bernoulli(p, rng) -> np.ndarray:
    """Draw independent 0/1 floats with success probabilities ``p``.

    ``p == 0`` and ``p == 1`` are honoured exactly.  An empty input
    yields an empty output without consuming draws of a different shape.
    A probability outside [0, 1], or NaN, raises ``ValueError``.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails
        raise ValueError("bernoulli probabilities must lie in [0, 1]")
    return _draw(p, rng)


# builds the parity data of acceptance criterion 7
def augment_parity(dataset: SequenceDataset) -> SequenceDataset:
    """Append one bit per frame holding the XOR of the frame's bits.

    The extra bit is a deterministic higher-order function of the frame,
    the kind of structure a single shallow layer has trouble modelling.
    """
    def with_parity(seqs):
        out = []
        for seq in seqs:
            parity = np.sum(seq, axis=1, keepdims=True) % 2
            out.append(np.hstack([seq, parity]))
        return out

    return SequenceDataset(dim=dataset.dim + 1,
                           train=with_parity(dataset.train),
                           test=with_parity(dataset.test))


# pins adapt.add_forgetting_, which adds the penalties in place
def reference_forgetting_gradient(model, mode, cfg, hidden_activations=None):
    """One forgetting penalty as a separate ``(b, c, W)`` gradient, zeros
    in the arrays it does not touch: the form in which the penalties
    were added into the batch gradient before they were added in place."""
    g = RbmGradient(*map(np.zeros_like, (model.b, model.c, model.W)))
    if mode == "decay":
        g.dW = -cfg.decay_strength * np.sign(model.W)
    elif mode == "clarify":
        h = np.asarray(hidden_activations, dtype=np.float64)
        slope = np.where(h <= 0.5, 1.0, -1.0)
        g.dc = -cfg.clarify_strength * slope * h * (1.0 - h)
    elif mode == "selective":
        large = np.abs(model.W) >= cfg.selective_cutoff
        g.dW = np.where(large, -cfg.selective_strength * np.sign(model.W), 0.0)
    return g


# pins data.write_jsonl, which writes each frame without per-value rounding
def reference_write_jsonl(path, sequences, ids=None):
    """The writer that rounded every value with ``int(round(x))``."""
    path = Path(path)
    lines = []
    for i, seq in enumerate(sequences):
        arr = np.asarray(seq)
        obj = {}
        if ids is not None:
            obj["id"] = ids[i]
        obj["seq"] = [[int(round(x)) for x in frame] for frame in arr]
        lines.append(json.dumps(obj, separators=(",", ":")))
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


# pins data._parse_sequence, which tests a line's frames with numpy first
def reference_parse_sequence(seq, where):
    """The per-value checks of a line's frames, with no numpy test."""
    if not isinstance(seq, list) or len(seq) == 0:
        raise DataFormatError(
            f"{where}: a sequence ('seq' or 'frames') must be a non-empty "
            "list of frames")
    width = None
    for frame in seq:
        if not isinstance(frame, list):
            raise DataFormatError(f"{where}: frames must be lists of 0/1")
        if width is None:
            width = len(frame)
            if width == 0:
                raise DataFormatError(f"{where}: frames must be non-empty")
        elif len(frame) != width:
            raise DataFormatError(
                f"{where}: frame width {len(frame)} does not match first "
                f"frame width {width}")
        for x in frame:
            if x not in (0, 1) or isinstance(x, bool):
                raise DataFormatError(f"{where}: frame values must be 0 or 1")
    return np.asarray(seq, dtype=np.float64)


# pins numerics._logistic, which clamps against 0-d array bounds
def reference_logistic(x, out=None):
    """The clamped logistic as it clamped against Python floats."""
    out = np.asarray(expit(x, out=out))
    np.maximum(out, float(np.finfo(np.float64).tiny), out=out)
    np.minimum(out, float(np.nextafter(1.0, 0.0)), out=out)
    return out


# pins rbm.RbmGradient.norm, which squares the buffer once
def reference_norm(g):
    """The gradient norm from a fresh square and ``np.sum`` per field."""
    return float(np.sqrt(sum(np.sum(arr ** 2) for arr in vars(g).values())))


# pins rbm.cd_step, whose chain runs on uniforms drawn up front
def reference_cd_step(rbm, batch, cfg, rng):
    """CD-k built from the library conditionals, each Bernoulli draw
    taken from ``rng`` when the chain reaches it."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    h_data = hidden_conditional(rbm, batch)
    h = sample_bernoulli(h_data, rng)
    v_prob = visible_conditional(rbm, h)
    for _ in range(cfg.k - 1):
        v = sample_bernoulli(v_prob, rng)
        h = sample_bernoulli(hidden_conditional(rbm, v), rng)
        v_prob = visible_conditional(rbm, h)
    h_model = hidden_conditional(rbm, v_prob)
    n = batch.shape[0]
    return RbmGradient(batch.mean(axis=0) - v_prob.mean(axis=0),
                       h_data.mean(axis=0) - h_model.mean(axis=0),
                       (batch.T @ h_data - v_prob.T @ h_model) / n)


# pins rbm._cd_chain, which runs bare expit into one buffer and reruns
# on the guarded sigmoid only where its range test fails
def reference_cd_chain(W, b, c, v, uniforms, chain=None):
    """The CD-k chain on the guarded sigmoid throughout, as a fresh array
    per activation, whatever buffers ``chain`` holds; returns
    ``(np.stack([h_data, h_model]), v_prob)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        h_data = sigmoid(v @ W + c)
        h = (uniforms[0] < h_data).astype(np.float64)
        v_prob = sigmoid(h @ W.T + b)
        for u_v, u_h in zip(uniforms[1::2], uniforms[2::2]):
            v = (u_v < v_prob).astype(np.float64)
            h = (u_h < sigmoid(v @ W + c)).astype(np.float64)
            v_prob = sigmoid(h @ W.T + b)
        return np.stack([h_data, sigmoid(v_prob @ W + c)]), v_prob


# the biases rnn_rbm.unroll gives a frame, one state at a time
def reference_frame_biases(model, u_prev):
    """Visible and hidden biases of the frame after state ``u_prev``."""
    return model.b + u_prev @ model.w_uv, model.c + u_prev @ model.w_uh


# pins rnn_dbn._lift_sequences, the stack trainer's lift, which lifts
# each length group at once in the _apart layout: one sequence at a time
@np.errstate(over="ignore", invalid="ignore")
def reference_hidden_sequence(model, seq):
    """Per-frame hidden conditionals ``p(h | v_t)`` of one sequence under
    the temporal bias, what the layer above trains on."""
    seq = np.asarray(seq, dtype=np.float64)
    _, _, C = rnn_rbm.unroll(model, seq)
    return sigmoid(C + seq @ model.W)


# pins rnn_dbn.sample_sequence_deep, which carries every layer's state
def reference_sample_sequence_deep(stack, length, rng):
    """Quadratic sampler: every step re-lifts the whole prefix through
    :func:`predict_next_deep`, samples the marginals and appends."""
    frames = np.zeros((length, stack.n_visible))
    for t in range(length):
        frames[t] = sample_bernoulli(predict_next_deep(stack, frames[:t]), rng)
    return frames


# pins rnn_dbn.sample_sequence_deep's one-buffer step, checked once a frame
def reference_linear_sampler(stack, length, rng, draw=sample_bernoulli):
    """Linear sampler, one layer function at a time: per frame the
    temporal biases, the top layer's mean-field passes, a guarded pass per
    layer down, the draw, then guarded state updates and lifts."""
    *lower, top = stack.layers
    states = [layer.u0 for layer in stack.layers]
    frames = np.zeros((length, stack.n_visible))
    for t in range(length):
        biases = [reference_frame_biases(*pair)
                  for pair in zip(stack.layers, states)]
        signal = _mean_field_marginals(top.W, *biases[-1])
        for layer, (b_next, _) in zip(reversed(lower), reversed(biases[:-1])):
            signal = sigmoid(b_next + signal @ layer.W.T)
        view = frames[t] = draw(signal, rng)
        for i, layer in enumerate(stack.layers):
            states[i] = state_update(layer, states[i], view)
            if i < len(lower):
                view = sigmoid(biases[i][1] + view @ layer.W)
    return frames


# pins the recurrent growth sweep, adapt.maybe_generate on an RnnRbm
def reference_grow_hidden(model, stats, cfg, rng):
    """The recurrent growth sweep written out on its own: split the
    triggered units of the static part (per parent, bias noise then
    weight-column noise), then draw one ``(P, K)`` block of fresh small
    ``w_uh`` columns.  Returns ``(model, stats, parents)``."""
    scores = stats.var_c() * np.mean(stats.var_w(), axis=0)
    parents = [j for j in range(model.n_hidden) if scores[j] > cfg.gen_threshold]
    parents = parents[:max(0, cfg.max_hidden - model.n_hidden)]
    if not parents:
        return model, stats, []
    child_c, child_cols, sd = [], [], adapt_module.SPLIT_NOISE_SD
    for j in parents:
        child_c.append(model.c[j] + rng.normal(sd=sd))
        child_cols.append(model.W[:, j]
                          + rng.normal(sd=sd, size=model.n_visible))
    new_cols = rng.normal(sd=0.01, size=(len(parents), model.u_dim))
    at = np.add(parents, 1)
    grown = type(model)(**{
        **model.arrays(), "c": np.insert(model.c, at, child_c),
        "W": np.insert(model.W, at, np.transpose(child_cols), axis=1),
        "w_uh": np.insert(model.w_uh, at, new_cols.T, axis=1)})
    grown_stats = GradientStats(**{
        name: np.insert(getattr(stats, name), at, 0.0, axis=-1)
        for name in ("mean_c", "sq_c", "mean_w", "sq_w")})
    return grown, grown_stats, parents


class _GivenRows:
    """A stand-in stream whose ``uniform`` calls serve given rows in turn."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def uniform(self, size):
        return next(self.rows).reshape(size)


# pins rnn_rbm.bptt_gradients, grouped by length with one block per step
def reference_bptt_gradients(model, batch, cfg, rng):
    """Frame-by-frame BPTT-CD.  The batch's ``R`` frames draw one
    ``(R, width)`` block per chain step from ``rng``, in chain order; the
    frame ``t`` of the sequence at batch position ``s`` runs a 1-row
    ``reference_cd_step`` on row ``starts[s] + t`` of every block, and
    the frames are chained through the state with outer products."""
    i, j = model.n_visible, model.n_hidden
    starts = np.cumsum([0] + [seq.shape[0] for seq in batch])
    blocks = [rng.uniform(size=(starts[-1], w))
              for w in [j] + [i, j] * (cfg.k - 1)]
    total = RnnRbmGradient.zeros(model)
    frames = 0
    for s, seq in enumerate(batch):
        t_len = seq.shape[0]
        U = [model.u0]
        DB, DC = [], []
        dW = np.zeros_like(model.W)
        for t in range(t_len):
            b_t, c_t = reference_frame_biases(model, U[t])
            rows = _GivenRows([u[starts[s] + t] for u in blocks])
            g = reference_cd_step(Rbm(b_t, c_t, model.W),
                                  seq[t][None, :], cfg, rows)
            DB.append(g.db)
            DC.append(g.dc)
            dW += g.dW
            U.append(state_update(model, U[t], seq[t]))
        U = np.array(U)
        g = RnnRbmGradient.zeros(model)
        g.db = np.sum(DB, axis=0)
        g.dc = np.sum(DC, axis=0)
        g.dW = dW
        g.dw_uv = U[:-1].T @ np.array(DB)
        g.dw_uh = U[:-1].T @ np.array(DC)
        gu = np.zeros(model.u_dim)
        for t in range(t_len - 1, -1, -1):
            ga = gu * U[t + 1] * (1.0 - U[t + 1])
            g.du += ga
            g.dw_uu += np.outer(U[t], ga)
            g.dw_vu += np.outer(seq[t], ga)
            gu = DB[t] @ model.w_uv.T + DC[t] @ model.w_uh.T \
                + ga @ model.w_uu.T
        g.du0 = gu
        total.add_(g)
        frames += t_len
    return total.scale_(1.0 / frames)


# pins rnn_rbm._mean_field_marginals, whose passes call the same guard
def reference_mean_field(W, b_next, c_next):
    """The mean-field passes through the guarded :func:`sigmoid`, which
    checks every pass's pre-activations as it goes."""
    v = np.full(b_next.shape, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(rnn_rbm.MEAN_FIELD_PASSES):
            h = sigmoid(c_next + v @ W)
            v = sigmoid(b_next + h @ W.T)
    return v


# the static epoch metrics, dbn._EpochFrames.metrics, of a data array
def mean_field_metrics(rbm, data):
    """The static epoch metrics ``(energy, error)`` of ``data``, as the
    trainer's epoch view computes them from one hidden pass."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    return dbn._EpochFrames(data).metrics(rbm)


# pins adapt.structure_phase and adapt.forgetting_modes, the schedule
# that was this stateful controller object
class StructureController:
    """Epoch-boundary schedule shared by all adaptive trainers.

    Growth checks run first and finish when the phase budget is spent or
    when no unit has triggered for ``STALL_LIMIT`` consecutive epochs;
    pruning checks run every epoch after that.  Forgetting penalties
    occupy the tail of the run: plain decay plus clarify first, then
    selective decay plus clarify for the final epochs.
    """

    STALL_LIMIT = 5

    def __init__(self, adapt: AdaptConfig | None,
                 forget: ForgettingConfig | None, total_epochs: int):
        self.adapt = adapt
        self.forget = forget
        self.total_epochs = total_epochs
        self.generation_done = adapt is None
        self.stall = 0

    def structure_phase(self, epoch: int) -> str:
        """``'generate'``, ``'annihilate'`` or ``'static'`` for this epoch."""
        if self.adapt is None:
            return "static"
        if not self.generation_done and epoch >= self.adapt.generation_phase_epochs:
            self.generation_done = True
        return "annihilate" if self.generation_done else "generate"

    def record_generation(self, n_new: int):
        if n_new > 0:
            self.stall = 0
        else:
            self.stall += 1
            if self.stall >= self.STALL_LIMIT:
                self.generation_done = True

    def forgetting_modes(self, epoch: int) -> tuple:
        """Penalty modes active at this epoch, possibly empty."""
        if self.forget is None:
            return ()
        f, s = self.forget.forgetting_epochs, self.forget.selective_epochs
        sel_start = max(0, self.total_epochs - s)
        dec_start = max(0, self.total_epochs - s - f)
        if s > 0 and epoch >= sel_start:
            return ("selective", "clarify")
        if f > 0 and epoch >= dec_start:
            return ("decay", "clarify")
        return ()

    def snapshot(self) -> dict:
        return {"generation_done": self.generation_done, "stall": self.stall}

    def restore(self, state: dict):
        self.generation_done = bool(state["generation_done"])
        self.stall = int(state["stall"])
