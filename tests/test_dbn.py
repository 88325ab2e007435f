"""Static trainer and greedy stacking."""
import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from growrbm import dbn, rbm as rbm_module, rnn_rbm
from growrbm.adapt import (AdaptConfig, ForgettingConfig, GradientStats,
                           apply_annihilation)
from growrbm.dbn import (Dbn, LayerGenConfig, LayerTotals, _inherit,
                         _layer_totals, should_generate_layer,
                         train_adaptive_dbn, train_adaptive_rbm)
from growrbm.errors import DimensionError
from growrbm.log import LogRow
from growrbm.metrics import cross_entropy_per_bit
from growrbm.numerics import RngStream
from growrbm.rbm import CdConfig, Rbm, RbmGradient, hidden_conditional
from growrbm.rnn_rbm import train_adaptive_rnn_rbm
from oracles import energy, log_likelihood_exact, visible_conditional
from references import mean_field_metrics


def parity_data(n_copies=40):
    """All 4-bit rows with even parity, tiled; has pure XOR structure."""
    rows = [r for r in itertools.product((0.0, 1.0), repeat=4)
            if int(sum(r)) % 2 == 0]
    return np.tile(np.array(rows), (n_copies, 1))


def mean_field_energy(rbm, data):
    """The static energy metric: the mean conditional expected energy of
    the data rows, from its own hidden pass (the reference for
    :func:`mean_field_metrics`)."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    h = hidden_conditional(rbm, data)
    return float(np.mean(energy(rbm, data, h)))


def reconstruction_error(rbm, data):
    """The static error metric: the cross-entropy per bit of the one-pass
    mean-field reconstruction, from its own hidden pass."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    rec = visible_conditional(rbm, hidden_conditional(rbm, data))
    return cross_entropy_per_bit(rec, data)


class TestMeanFieldMetrics:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), n_visible=st.integers(1, 9),
           n_hidden=st.integers(1, 9), binary=st.booleans(),
           scale=st.sampled_from([0.01, 1.0, 30.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_separate_passes(self, n, n_visible, n_hidden, binary,
                                    scale, seed):
        rng = RngStream(seed)
        rbm = Rbm(rng.normal(sd=scale, size=n_visible),
                  rng.normal(sd=scale, size=n_hidden),
                  rng.normal(sd=scale, size=(n_visible, n_hidden)))
        data = rng.uniform(size=(n, n_visible))
        if binary:
            data = (data < 0.5).astype(float)
        assert mean_field_metrics(rbm, data) == (
            mean_field_energy(rbm, data), reconstruction_error(rbm, data))

    def test_single_row_and_wrong_dimension(self):
        rbm = Rbm.random(3, 2, RngStream(4), weight_sd=0.5)
        v = np.array([1.0, 0.0, 1.0])
        assert mean_field_metrics(rbm, v) == mean_field_metrics(rbm, v[None])
        with pytest.raises(DimensionError):
            mean_field_metrics(rbm, np.zeros((2, 4)))


class TestMeanFieldEnergy:
    def test_zero_model_zero_energy(self):
        rbm = Rbm.zeros(3, 2)
        data = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert mean_field_metrics(rbm, data)[0] == 0.0

    def test_matches_explicit_hidden_expectation(self):
        # multilinearity: E_h[E(v, h) | v] equals the energy evaluated at
        # the conditional means; verify by summing over hidden states
        rng = RngStream(3)
        rbm = Rbm(b=rng.normal(size=2), c=rng.normal(size=2),
                  W=rng.normal(size=(2, 2)))
        v = np.array([1.0, 0.0])
        expected = 0.0
        probs = hidden_conditional(rbm, v)
        for h in itertools.product((0.0, 1.0), repeat=2):
            h = np.array(h)
            ph = np.prod(np.where(h == 1.0, probs, 1 - probs))
            e = -(v @ rbm.b + h @ rbm.c + v @ rbm.W @ h)
            expected += ph * e
        npt.assert_allclose(mean_field_metrics(rbm, v[None, :])[0], expected,
                            rtol=1e-10)


def layer_totals(rbm, stats, data):
    """The stack gate's totals of a layer, read from the log row the
    layer's last epoch appends."""
    return _layer_totals(LogRow(
        epoch=1, layer=1, energy=mean_field_metrics(rbm, data)[0], error=0.0,
        wd_c=float(stats.var_c().sum()), wd_w=float(stats.var_w().sum()),
        n_hidden=rbm.n_hidden, n_layers=1))


class TestLayerTotals:
    def test_converged_layer_has_zero_wd(self):
        rbm = Rbm.zeros(2, 2)
        stats = GradientStats.zeros(2, 2)
        g_c = np.array([0.1, -0.2])
        g_w = np.array([[0.3, 0.0], [0.0, -0.1]])
        for _ in range(400):
            # constant stream: variance -> 0
            stats.update(RbmGradient(np.zeros(2), g_c, g_w), 0.9)
        totals = layer_totals(rbm, stats, np.array([[1.0, 0.0]]))
        assert totals.wd < 1e-6

    def test_zero_parameter_layer_has_zero_energy(self):
        rbm = Rbm.zeros(3, 2)
        stats = GradientStats.zeros(3, 2)
        totals = layer_totals(rbm, stats, np.array([[1.0, 1.0, 0.0]]))
        assert totals.energy == 0.0
        assert totals.wd == 0.0

    def test_energy_total_is_magnitude_of_mean(self):
        rng = RngStream(9)
        rbm = Rbm(b=rng.normal(size=2), c=rng.normal(size=2),
                  W=rng.normal(size=(2, 2)))
        data = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        stats = GradientStats.zeros(2, 2)
        totals = layer_totals(rbm, stats, data)
        mean_energy = mean_field_metrics(rbm, data)[0]
        assert mean_energy < 0.0  # the logged sign, which the total drops
        assert totals.energy == -mean_energy

    def test_wd_sums_all_tracked_variances(self):
        rbm = Rbm.zeros(2, 2)
        stats = GradientStats.zeros(2, 2)
        rng = RngStream(21)
        for _ in range(50):
            stats.update(RbmGradient(np.zeros(2), rng.normal(size=2),
                                     rng.normal(size=(2, 2))), 0.9)
        totals = layer_totals(rbm, stats, np.array([[0.0, 1.0]]))
        assert totals.wd == stats.var_c().sum() + stats.var_w().sum()


class TestShouldGenerateLayer:
    def cfg(self, **kw):
        base = dict(max_layers=4, wd_threshold=0.01, energy_threshold=0.01)
        base.update(kw)
        return LayerGenConfig(**base)

    def stack(self, totals):
        return Dbn(layers=[Rbm.zeros(2, 2)] * len(totals),
                   totals=[LayerTotals(*t) for t in totals])

    def test_both_totals_above_grows(self):
        assert should_generate_layer(self.stack([(0.02, 0.02)]), self.cfg())

    def test_either_total_below_blocks(self):
        assert not should_generate_layer(self.stack([(0.005, 0.02)]),
                                         self.cfg())
        assert not should_generate_layer(self.stack([(0.02, 0.005)]),
                                         self.cfg())

    def test_boundary_is_strict(self):
        assert not should_generate_layer(self.stack([(0.01, 0.01)]),
                                         self.cfg())

    def test_totals_accumulate_across_layers(self):
        # each layer alone falls short; together they clear the bar
        stack = self.stack([(0.006, 0.006), (0.006, 0.006)])
        assert should_generate_layer(stack, self.cfg())

    def test_max_layers_blocks(self):
        stack = self.stack([(1.0, 1.0)] * 4)
        assert not should_generate_layer(stack, self.cfg(max_layers=4))


class TestGenerateLayer:
    def test_square_inherited_layer(self):
        rng = RngStream(31)
        base = Rbm(b=rng.normal(size=3), c=rng.normal(size=5),
                   W=rng.normal(size=(3, 5)))
        top = _inherit(base, RngStream(1))
        assert top.n_visible == 5
        assert top.n_hidden == 5
        npt.assert_array_equal(top.b, base.c)
        npt.assert_array_equal(top.c, base.c)
        assert np.abs(top.W).max() < 0.1  # small random start
        # the new biases are copies, not views of the parent's
        assert not np.shares_memory(top.b, base.c)
        assert not np.shares_memory(top.c, base.c)


class TestTrainAdaptiveRbm:
    def data(self):
        rng = RngStream(77)
        probs = np.array([0.9, 0.1, 0.8, 0.2])
        return (rng.uniform(size=(60, 4)) < probs).astype(float)

    def test_reduces_reconstruction_error(self):
        data = self.data()
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=20)
        _, _, log = train_adaptive_rbm(data, 4, cd, 25, RngStream(1))
        assert log.rows[-1].error < log.rows[0].error

    def test_deterministic_given_seed(self):
        data = self.data()
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=20)
        m1, _, log1 = train_adaptive_rbm(data, 3, cd, 5, RngStream(9))
        m2, _, log2 = train_adaptive_rbm(data, 3, cd, 5, RngStream(9))
        npt.assert_array_equal(m1.W, m2.W)
        assert log1.csv_text() == log2.csv_text()

    def test_inert_adaptation_matches_disabled(self):
        data = self.data()
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=20)
        inert = AdaptConfig(generation_phase_epochs=4, max_hidden=12,
                            gen_threshold=1e9, ann_threshold=1e-300)
        off, _, log_off = train_adaptive_rbm(data, 3, cd, 8, RngStream(4))
        on, _, log_on = train_adaptive_rbm(data, 3, cd, 8, RngStream(4),
                                           adapt=inert,
                                           forget=ForgettingConfig())
        npt.assert_array_equal(off.W, on.W)
        npt.assert_array_equal(off.b, on.b)
        assert log_off.csv_text() == log_on.csv_text()

    def test_forgetting_epochs_sparsify(self):
        data = self.data()
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=20)
        plain, _, _ = train_adaptive_rbm(data, 4, cd, 30, RngStream(8))
        forget = ForgettingConfig(decay_strength=0.01,
                                  clarify_strength=0.001,
                                  selective_strength=0.01,
                                  forgetting_epochs=10, selective_epochs=5)
        sparse, _, _ = train_adaptive_rbm(data, 4, cd, 30, RngStream(8),
                                          forget=forget)
        assert np.abs(sparse.W).sum() < np.abs(plain.W).sum()

    def test_resume_matches_uninterrupted(self):
        data = self.data()
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=20)
        captured = {}

        def grab(state):
            if state.epoch_done == 3:
                captured["state"] = state

        full, _, log_full = train_adaptive_rbm(data, 3, cd, 8, RngStream(6),
                                               epoch_callback=grab)
        resumed, _, log_tail = train_adaptive_rbm(
            data, 3, cd, 8, RngStream(6), resume=captured["state"])
        npt.assert_array_equal(full.W, resumed.W)
        npt.assert_array_equal(full.b, resumed.b)
        full_tail = [r for r in log_full.rows if r.epoch > 4]
        assert len(full_tail) == len(log_tail.rows)
        for a, b in zip(full_tail, log_tail.rows):
            assert (a.epoch, a.energy, a.error) == (b.epoch, b.energy, b.error)

    def layer_trainers(self):
        """``(module, gradient name, trainer, data)`` for both families:
        32 rows, or 32 sequences of 1-3 frames, so batches of 4 make
        eight batches per epoch."""
        rows = self.data()[:35]
        return [(dbn, "cd_step", train_adaptive_rbm, rows[:32]),
                (rnn_rbm, "bptt_gradients", train_adaptive_rnn_rbm,
                 [rows[n:n + 1 + n % 3] for n in range(32)])]

    def test_builds_no_stream_per_batch(self, monkeypatch):
        # eight batch streams per epoch, served by re-keying one stream;
        # per epoch only the epoch stream and the growth sweep's are
        # built, plus the init and batch streams once
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=4)
        adapt = AdaptConfig(generation_phase_epochs=3, max_hidden=6,
                            gen_threshold=1e9)
        built = []
        init = RngStream.__init__

        def counting(self, seed):
            built.append(seed)
            init(self, seed)

        monkeypatch.setattr(RngStream, "__init__", counting)
        epochs = 3
        for _, _, train, data in self.layer_trainers():
            root = RngStream(12)
            built.clear()
            _, _, log = train(data, 3, cd, epochs, root, adapt=adapt)
            assert len(log.rows) == epochs
            assert len(built) <= 2 + 2 * epochs

    def test_batch_streams_start_fresh(self, monkeypatch):
        # each batch's stream, in both families, is in the state of a new
        # split when the gradient reads it, whatever the previous batch
        # drew
        cd = CdConfig(k=2, learning_rate=0.1, batch_size=4)
        for module, name, train, data in self.layer_trainers():
            seen = []

            def recording(model, batch, cfg, rng, step=getattr(module, name)):
                seen.append((rng.key, rng._gen.bit_generator.state))
                return step(model, batch, cfg, rng)

            monkeypatch.setattr(module, name, recording)
            root = RngStream(13)
            train(data, 3, cd, 2, root)
            assert len(seen) == 2 * 8
            for i, (key, state) in enumerate(seen):
                fresh = root.split(i // 8 + 1).split(i % 8 + 1)
                assert key == fresh.key
                want = fresh._gen.bit_generator.state
                assert (state["buffer_pos"], state["has_uint32"]) == (
                    want["buffer_pos"], want["has_uint32"])
                for field in ("counter", "key"):
                    npt.assert_array_equal(state["state"][field],
                                           want["state"][field])

    def test_one_hidden_pass_per_epoch_that_prunes_nothing(self,
                                                           monkeypatch):
        # the pruning sweep's whole-set hidden pass also scores the epoch
        # when it removes no unit; the CD batches have 100 rows, and the
        # reconstruction pass has 16 columns, more than any hidden layer
        data = (RngStream(21).uniform(size=(800, 16)) < 0.3).astype(float)
        passes = []
        for module in (dbn, rbm_module):
            def counting(x, out=None, real=module.sigmoid):
                x = np.asarray(x)
                if x.ndim == 2 and x.shape[0] == 800 and x.shape[1] != 16:
                    passes.append(x.shape)
                return real(x, out)

            monkeypatch.setattr(module, "sigmoid", counting)
        adapt = AdaptConfig(generation_phase_epochs=4, max_hidden=12,
                            ann_threshold=1e-6)
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=100)
        _, _, log = train_adaptive_rbm(data, 6, cd, 10, RngStream(22),
                                       adapt=adapt)
        assert "ann(" not in log.csv_text()
        assert len(passes) == 10  # 16 when the sweep's pass is not kept

    def test_epoch_metrics_after_a_prune_take_their_own_pass(self):
        data = self.data()
        model = Rbm.random(4, 5, RngStream(23), weight_sd=0.5)
        pruned, _ = apply_annihilation(model, GradientStats.zeros(4, 5),
                                       np.array([0, 1, 0, 0, 1], dtype=bool))
        frames = dbn._EpochFrames(data)
        npt.assert_array_equal(frames.mean_activation(model),
                               hidden_conditional(model, data).mean(axis=0))
        assert frames.metrics(pruned) == mean_field_metrics(pruned, data)
        frames.mean_activation(model)
        assert frames.metrics(model) == mean_field_metrics(model, data)


class TestEpochView:
    """One static epoch view serves every epoch of a layer, from buffers
    kept for the layer."""

    @staticmethod
    def trainers_view(monkeypatch, data, n_hidden):
        """The ``epoch_data`` that :func:`train_adaptive_rbm` hands the
        shared loop for ``data``."""
        seen = {}
        monkeypatch.setattr(dbn, "_train_layer", lambda *args, epoch_data,
                            **kwargs: seen.setdefault("view", epoch_data))
        train_adaptive_rbm(data, n_hidden, CdConfig(), 2, RngStream(1))
        return seen["view"]

    def test_warm_epoch_allocates_no_whole_set_array(self, monkeypatch):
        # each (4000, 16) or (4000, 24) float array is 500 or 750 KiB;
        # a warm epoch's pruning sweep and metrics allocate none of them
        data = (RngStream(24).uniform(size=(4000, 16)) < 0.3).astype(float)
        epoch_data = self.trainers_view(monkeypatch, data, 24)
        model = Rbm.random(16, 24, RngStream(25), weight_sd=0.5)
        whole = epoch_data()
        whole.mean_activation(model)
        whole.metrics(model)
        model.W += 0.01  # the next epoch's batch updates
        tracemalloc.start()
        try:
            whole = epoch_data()
            mean = whole.mean_activation(model)
            scores = whole.metrics(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024
        fresh = dbn._EpochFrames(data)
        assert mean.tobytes() == fresh.mean_activation(model).tobytes()
        assert scores == mean_field_metrics(model, data)

    def test_next_epoch_drops_the_kept_pass(self):
        # the batch updates change the model in place, so a sweep's pass
        # does not outlive its epoch even when no metrics took it
        data = TestTrainAdaptiveRbm().data()
        model = Rbm.random(4, 5, RngStream(26), weight_sd=0.5)
        view = dbn._EpochFrames(data)
        view.epoch().mean_activation(model)
        model.W += 0.5
        assert view.epoch().metrics(model) == mean_field_metrics(model, data)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), n_visible=st.integers(1, 6),
           n_hidden=st.integers(1, 6), scale=st.sampled_from([0.1, 3.0]),
           seed=st.integers(0, 2 ** 32 - 1),
           epochs=st.lists(st.tuples(
               st.booleans(), st.booleans(),
               st.sampled_from(["grow", "prune", "redraw", "keep"]),
               st.booleans()), min_size=1, max_size=8))
    def test_reused_view_equals_fresh_views_bit_for_bit(
            self, n, n_visible, n_hidden, scale, seed, epochs):
        # each epoch: maybe an in-place update, then maybe a pruning
        # sweep on the model, then a change of model (a wider one, a
        # pruned one, another of the same width, or the same object),
        # then the metrics of the model it ends with, unless the epoch
        # is cut before them (the next epoch's view drops the kept pass)
        rng = RngStream(seed)
        data = (rng.uniform(size=(n, n_visible)) < 0.4).astype(float)
        model = Rbm.random(n_visible, n_hidden, rng.split(0), weight_sd=scale)
        view = dbn._EpochFrames(data)
        for e, (update, sweep, change, score) in enumerate(epochs):
            draw = rng.split(e + 1)
            if update:
                model.W += draw.normal(sd=0.1, size=model.W.shape)
            whole = view.epoch()
            if sweep:
                got = whole.mean_activation(model)
                want = hidden_conditional(model, data).mean(axis=0)
                assert got.tobytes() == want.tobytes()
                fresh = dbn._EpochFrames(data).mean_activation(model)
                assert got.tobytes() == fresh.tobytes()
            if change == "grow":
                extra = draw.integers(3) + 1
                model = Rbm(model.b.copy(), np.append(
                    model.c, draw.normal(sd=scale, size=extra)), np.hstack(
                    [model.W, draw.normal(sd=scale, size=(n_visible, extra))]))
            elif change == "prune" and model.n_hidden > 1:
                mask = draw.uniform(size=model.n_hidden) < 0.5
                mask[draw.integers(model.n_hidden)] = False
                model, _ = apply_annihilation(
                    model, GradientStats.zeros(n_visible, model.n_hidden),
                    mask)
            elif change == "redraw":
                model = Rbm.random(n_visible, model.n_hidden, draw.split(1),
                                   weight_sd=scale)
            if not score:
                continue
            got = whole.metrics(model)
            assert got == mean_field_metrics(model, data)  # a fresh view's
            assert got == (mean_field_energy(model, data),
                           reconstruction_error(model, data))


class TestTrainAdaptiveDbn:
    def test_prohibitive_thresholds_single_layer(self):
        data = (RngStream(2).uniform(size=(40, 4)) < 0.5).astype(float)
        cd = CdConfig(k=1, learning_rate=0.05, batch_size=20)
        cfg = LayerGenConfig(max_layers=4, wd_threshold=1e6,
                             energy_threshold=1e6)
        # the gate runs only with adapt; this one never fires a trigger
        inert = AdaptConfig(generation_phase_epochs=2, max_hidden=8,
                            gen_threshold=1e9, ann_threshold=1e-12)
        dbn, _ = train_adaptive_dbn(data, 3, cd, 4, RngStream(3), cfg,
                                    adapt=inert)
        assert dbn.n_layers == 1

    def test_permissive_thresholds_reach_cap(self):
        data = (RngStream(2).uniform(size=(40, 4)) < 0.7).astype(float)
        cd = CdConfig(k=1, learning_rate=0.05, batch_size=20)
        cfg = LayerGenConfig(max_layers=3, wd_threshold=1e-12,
                             energy_threshold=1e-12)
        dbn, log = train_adaptive_dbn(data, 3, cd, 4, RngStream(3), cfg)
        assert dbn.n_layers == 3
        dbn.validate()
        # log rows are grouped by layer, in order
        layers_seen = [r.layer for r in log.rows]
        assert layers_seen == sorted(layers_seen)
        assert {r.layer for r in log.rows} == {1, 2, 3}

    def test_layer_boundaries_logged(self):
        data = (RngStream(2).uniform(size=(40, 4)) < 0.7).astype(float)
        cd = CdConfig(k=1, learning_rate=0.05, batch_size=20)
        cfg = LayerGenConfig(max_layers=2, wd_threshold=1e-12,
                             energy_threshold=1e-12)
        _, log = train_adaptive_dbn(data, 3, cd, 3, RngStream(3), cfg)
        events = [r.event for r in log.rows if "layer" in r.event]
        assert events == ["layer(l=2)"]

    def test_gate_layers_false_ignores_thresholds(self):
        data = (RngStream(2).uniform(size=(30, 4)) < 0.5).astype(float)
        cd = CdConfig(k=1, learning_rate=0.05, batch_size=15)
        cfg = LayerGenConfig(max_layers=2, wd_threshold=1e6,
                             energy_threshold=1e6)
        # without adapt the stack grows to the cap, whatever the gate says
        dbn, _ = train_adaptive_dbn(data, 3, cd, 3, RngStream(3), cfg)
        assert dbn.n_layers == 2

    def test_depth_helps_on_parity_data(self):
        # XOR-structured data: a wider/deeper stack should model the
        # twisted modes at least as well as its own first layer
        data = parity_data(30)
        cd = CdConfig(k=2, learning_rate=0.2, batch_size=30)
        cfg = LayerGenConfig(max_layers=2, wd_threshold=1e-12,
                             energy_threshold=1e-12)
        dbn, _ = train_adaptive_dbn(data, 6, cd, 60, RngStream(12), cfg)
        assert dbn.n_layers == 2
        # the stack's first layer is shared, so compare exact likelihoods
        # of layer-1 data under layer 1 vs layer-2 data under layer 2
        ll1 = log_likelihood_exact(dbn.layers[0], data)
        assert np.isfinite(ll1)
