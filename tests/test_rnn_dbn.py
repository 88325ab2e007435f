"""Greedy recurrent stacking and deep prediction."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from growrbm import dbn, rnn_dbn, rnn_rbm
from growrbm.adapt import AdaptConfig, TrainState
from growrbm.dbn import (LayerGenConfig, _inherit, train_adaptive_dbn,
                         train_adaptive_rbm)
from growrbm.errors import DimensionError, NumericError
from growrbm.harness import evaluate_model
from growrbm.metrics import PooledMetrics
from growrbm.numerics import RngStream, sigmoid
from growrbm.rbm import CdConfig, hidden_conditional
from growrbm.rnn_dbn import (RnnDbn, _apart, _lift, _lift_sequences,
                             next_frame_predictions_deep, predict_next_deep,
                             sample_sequence_deep, train_adaptive_rnn_dbn)
from growrbm.rnn_rbm import (RnnRbm, mean_sequence_energy,
                             prediction_error, train_adaptive_rnn_rbm, unroll)
from oracles import state_update
from references import (mean_field_metrics, reference_hidden_sequence,
                        reference_linear_sampler, reference_mean_field,
                        reference_sample_sequence_deep, sample_bernoulli)
from test_rnn_rbm import cycle_sequences, small_model


def trained_stack(max_layers=2, seed=80, epochs=4):
    seqs = cycle_sequences(10, 8, RngStream(seed))
    cd = CdConfig(k=1, learning_rate=0.2, batch_size=5)
    cfg = LayerGenConfig(max_layers=max_layers, wd_threshold=1e-12,
                         energy_threshold=1e-12)
    return train_adaptive_rnn_dbn(seqs, 5, cd, epochs, RngStream(seed + 1),
                                  cfg), seqs


# the reference gate's ragged training set cuts its sequences to these
# lengths in turn, and its saturated stack scales these arrays
RAGGED_LENGTHS = (25, 9, 2, 1, 17)
SATURATED_SCALES = {"w_vu": 12.0, "w_uv": 5.0, "w_uh": 5.0, "W": 5.0}


def gate_layer(seed, weight_sd=0.5, saturated=False):
    """An 8 -> 6 layer with an 8-unit state, as the gate's stack starts,
    its arrays scaled as in the gate's saturated stack if asked."""
    layer = RnnRbm.random(8, 6, RngStream(seed), u_dim=8,
                          weight_sd=weight_sd)
    for name, scale in SATURATED_SCALES.items() if saturated else ():
        getattr(layer, name)[...] *= scale
    return layer


def ragged_binary(seed, lengths, dim=8):
    rng = RngStream(seed)
    return [(rng.split(n).uniform(size=(t, dim)) < 0.5).astype(float)
            for n, t in enumerate(lengths)]


class TestHiddenSequence:
    """The stack trainer's lift, by length group, against the lift of one
    sequence at a time."""

    def test_manual_recompute(self):
        m = small_model(81)
        seq = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        U, _, C = unroll(m, seq)
        want = sigmoid(C + seq @ m.W)
        npt.assert_array_equal(_lift_sequences(m, [seq])[0], want)
        view, states = _lift([m], seq)
        npt.assert_array_equal(view, want)
        npt.assert_array_equal(states[0], U)

    def test_reproducible_rows_in_unit_interval(self):
        m = small_model(82)
        seq = (RngStream(83).uniform(size=(6, 3)) < 0.5).astype(float)
        a, = _lift_sequences(m, [seq])
        b, = _lift_sequences(m, [seq])
        npt.assert_array_equal(a, b)
        assert a.shape == (6, 2)
        assert a.min() > 0.0 and a.max() < 1.0

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           lengths=st.lists(st.integers(1, 25), min_size=1, max_size=13),
           weight_sd=st.sampled_from([0.1, 0.5, 2.0]),
           saturated=st.booleans())
    def test_grouped_lift_equals_lone_lift_bit_for_bit(
            self, seed, lengths, weight_sd, saturated):
        layer = gate_layer(seed, weight_sd, saturated)
        seqs = ragged_binary(seed + 1, [*lengths, 1])
        got = _lift_sequences(layer, seqs)
        assert len(got) == len(seqs)
        for row, seq in zip(got, seqs):
            want = reference_hidden_sequence(layer, seq)
            assert row.shape == want.shape
            assert row.tobytes() == want.tobytes()

    def test_saturated_grouped_lift_reruns_bit_for_bit(self, monkeypatch):
        """The saturated layers rerun their grouped unrolls on the guarded
        sigmoid, and every row stays that of its sequence alone."""
        real, reruns = rnn_rbm.sigmoid, []

        def guarded(x, out=None):
            if np.ndim(x) == 3:  # a state step of a group apart
                reruns.append(1)
            return real(x, out)

        monkeypatch.setattr(rnn_rbm, "sigmoid", guarded)
        for seed in range(20):
            layer = gate_layer(300 + seed, saturated=True)
            seqs = ragged_binary(400 + seed, RAGGED_LENGTHS * 3)
            for row, seq in zip(_lift_sequences(layer, seqs), seqs):
                assert row.tobytes() == \
                    reference_hidden_sequence(layer, seq).tobytes()
        assert len(reruns) >= 100

    def test_stack_lift_unrolls_once_per_length(self, monkeypatch):
        """Training a 2-layer stack on the gate's ragged set lifts each of
        its five lengths with one unroll, not each of its 13 sequences."""
        seqs = [seq[:RAGGED_LENGTHS[n % len(RAGGED_LENGTHS)]] for n, seq
                in enumerate(cycle_sequences(13, 25, RngStream(96)))]
        calls, real = [], rnn_dbn.unroll

        def counting(model, seq):
            calls.append(np.shape(seq))
            return real(model, seq)

        monkeypatch.setattr(rnn_dbn, "unroll", counting)
        cd = CdConfig(k=1, learning_rate=0.2, batch_size=4)
        stack, _ = train_adaptive_rnn_dbn(seqs, 4, cd, 2, RngStream(97),
                                          LayerGenConfig(max_layers=2))
        assert stack.n_layers == 2
        assert calls == [(3, 1, 25, 4), (3, 1, 9, 4), (3, 1, 2, 4),
                         (2, 1, 1, 4), (2, 1, 17, 4)]


class TestStacking:
    def test_prohibitive_gate_single_layer(self):
        seqs = cycle_sequences(8, 6, RngStream(84))
        cd = CdConfig(k=1, learning_rate=0.2, batch_size=4)
        cfg = LayerGenConfig(max_layers=3, wd_threshold=1e9,
                             energy_threshold=1e9)
        # the gate runs only with adapt; this one never fires a trigger
        inert = AdaptConfig(generation_phase_epochs=2, max_hidden=8,
                            gen_threshold=1e9, ann_threshold=1e-12)
        stack, _ = train_adaptive_rnn_dbn(seqs, 4, cd, 3, RngStream(85), cfg,
                                          adapt=inert)
        assert stack.n_layers == 1

    def test_permissive_gate_reaches_cap(self):
        (stack, log), _ = trained_stack(max_layers=3, epochs=3)
        assert stack.n_layers == 3
        stack.validate()
        assert {r.layer for r in log.rows} == {1, 2, 3}
        assert [r.event for r in log.rows if "layer" in r.event] == \
            ["layer(l=2)", "layer(l=3)"]

    def test_upper_layers_are_square(self):
        (stack, _), _ = trained_stack(max_layers=2)
        top = stack.layers[1]
        j = stack.layers[0].n_hidden
        assert top.n_visible == j
        assert top.n_hidden == j
        assert top.u_dim == j

    @pytest.mark.parametrize(
        "recurrent, layer", [(True, 1), (False, 1), (True, 2), (False, 2)],
        ids=["rnn", "static", "rnn-layer2", "static-layer2"])
    def test_first_layer_matches_standalone_run(self, recurrent, layer):
        """Layer ``l`` of a stack equals a standalone run from the root's
        ``split(l)``; layer 2 trains on layer 1's lifted data, starting
        from the layer inherited from layer 1."""
        seqs = cycle_sequences(10, 8, RngStream(86))
        cd = CdConfig(k=1, learning_rate=0.2, batch_size=5)
        cfg = LayerGenConfig(max_layers=2, wd_threshold=1e-12,
                             energy_threshold=1e-12)
        if recurrent:
            data, stacked, single = (seqs, train_adaptive_rnn_dbn,
                                     train_adaptive_rnn_rbm)
            lift = _lift_sequences
        else:
            data, stacked, single = (np.vstack(seqs), train_adaptive_dbn,
                                     train_adaptive_rbm)
            lift = hidden_conditional
        stack, _ = stacked(data, 5, cd, 4, RngStream(87), cfg)
        assert stack.n_layers == 2
        rng, start = RngStream(87).split(layer), None
        if layer == 2:
            data = lift(stack.layers[0], data)
            start = TrainState.fresh(_inherit(stack.layers[0],
                                              rng.split(0)))
        solo, _, _ = single(data, 5, cd, 4, rng, resume=start)
        for name, arr in stack.layers[layer - 1].arrays().items():
            npt.assert_array_equal(arr, solo.arrays()[name], err_msg=name)

    @pytest.mark.parametrize("recurrent", [True, False],
                             ids=["rnn", "static"])
    def test_totals_match_final_layer_energy_and_variances(
            self, recurrent, monkeypatch):
        """The totals the gate reads from each layer's last log row equal
        the energy magnitude of the layer's final model on its inputs and
        the variance sum of the stats its trainer returned."""
        seqs = cycle_sequences(10, 8, RngStream(90))
        cd = CdConfig(k=1, learning_rate=0.2, batch_size=5)
        cfg = LayerGenConfig(max_layers=2, wd_threshold=1e-12,
                             energy_threshold=1e-12)
        if recurrent:
            module, name, stacked, data, energy = (
                rnn_dbn, "train_adaptive_rnn_rbm", train_adaptive_rnn_dbn,
                seqs, mean_sequence_energy)
        else:
            module, name, stacked, data, energy = (
                dbn, "train_adaptive_rbm", train_adaptive_dbn,
                np.vstack(seqs), lambda m, x: mean_field_metrics(m, x)[0])
        single, trained = getattr(module, name), []

        def recording(inputs, *args, **kwargs):
            model, stats, log = single(inputs, *args, **kwargs)
            trained.append((inputs, model, stats))
            return model, stats, log

        monkeypatch.setattr(module, name, recording)
        stack, _ = stacked(data, 5, cd, 4, RngStream(91), cfg)
        assert stack.n_layers == len(trained) == 2
        for totals, (inputs, model, stats) in zip(stack.totals, trained):
            assert totals.energy == abs(energy(model, inputs))
            assert totals.wd == stats.var_c().sum() + stats.var_w().sum()

    @pytest.mark.parametrize("recurrent", [True, False],
                             ids=["rnn", "static"])
    def test_zero_epochs_per_layer_rejected(self, recurrent):
        seqs = cycle_sequences(4, 3, RngStream(92))
        stacked, data = ((train_adaptive_rnn_dbn, seqs) if recurrent
                         else (train_adaptive_dbn, np.vstack(seqs)))
        with pytest.raises(ValueError, match="epochs_per_layer"):
            stacked(data, 3, CdConfig(), 0, RngStream(93), LayerGenConfig())

    def test_one_whole_set_unroll_per_layer_epoch(self, monkeypatch):
        """Only each epoch's metrics unroll the whole training set; the
        stack gate adds no unroll of its own."""
        seqs = cycle_sequences(8, 6, RngStream(94))
        whole, plain = [], rnn_rbm.unroll

        def counting(model, seq):
            # batches hold at most batch_size of the equal-length sequences
            if np.ndim(seq) == 3 and len(seq) == len(seqs):
                whole.append(np.shape(seq))
            return plain(model, seq)

        monkeypatch.setattr(rnn_rbm, "unroll", counting)
        cd = CdConfig(k=1, learning_rate=0.2, batch_size=4)
        stack, _ = train_adaptive_rnn_dbn(seqs, 4, cd, 5, RngStream(95),
                                          LayerGenConfig(max_layers=2))
        assert stack.n_layers == 2
        assert len(whole) == 10

    def test_gate_layers_false_ignores_thresholds(self):
        seqs = cycle_sequences(8, 6, RngStream(88))
        cd = CdConfig(k=1, learning_rate=0.2, batch_size=4)
        cfg = LayerGenConfig(max_layers=2, wd_threshold=1e9,
                             energy_threshold=1e9)
        # without adapt the stack grows to the cap, whatever the gate says
        stack, _ = train_adaptive_rnn_dbn(seqs, 4, cd, 3, RngStream(89), cfg)
        assert stack.n_layers == 2

    def test_u_dim_sizes_the_first_layer_only(self):
        """An upper layer starts from ``_inherit``, a square layer whose
        state is as wide as its input; the stack's ``u_dim`` is not
        forwarded to it."""
        seqs = cycle_sequences(8, 6, RngStream(96))
        cd = CdConfig(k=1, learning_rate=0.2, batch_size=4)
        stack, _ = train_adaptive_rnn_dbn(seqs, 5, cd, 2, RngStream(97),
                                          LayerGenConfig(max_layers=2),
                                          u_dim=3)
        assert [layer.u_dim for layer in stack.layers] == [3, 5]

    def test_validate_rejects_broken_chain(self):
        stack = RnnDbn(layers=[RnnRbm.zeros(3, 4), RnnRbm.zeros(5, 2)],
                       totals=[])
        with pytest.raises(NumericError):
            stack.validate()


class TestDeepPrediction:
    def test_single_layer_stack_equals_flat_model(self):
        m = small_model(91)
        stack = RnnDbn(layers=[m], totals=[])
        seq = (RngStream(92).uniform(size=(5, 3)) < 0.5).astype(float)
        npt.assert_array_equal(evaluate_model(stack, [seq])[0],
                               prediction_error(m, [seq]))

    def test_zero_stack_predicts_half(self):
        stack = RnnDbn(layers=[RnnRbm.zeros(3, 2), RnnRbm.zeros(2, 2)],
                       totals=[])
        p = predict_next_deep(stack, np.array([[1.0, 0.0, 1.0]]))
        npt.assert_array_equal(p, np.full(3, 0.5))

    def test_vectorised_matches_prefix_loop(self):
        (stack, _), seqs = trained_stack(max_layers=2)
        seq = seqs[0]
        rows = next_frame_predictions_deep(stack, seq)
        assert rows.shape == (seq.shape[0] - 1, stack.n_visible)
        for t in range(1, seq.shape[0]):
            npt.assert_allclose(rows[t - 1], predict_next_deep(stack, seq[:t]),
                                atol=1e-12, err_msg=f"prefix length {t}")

    def test_short_sequence_yields_no_rows(self):
        (stack, _), _ = trained_stack(max_layers=2)
        out = next_frame_predictions_deep(stack, np.zeros((1, 4)))
        assert out.shape == (0, 4)

    def test_empty_prefix_allowed(self):
        (stack, _), _ = trained_stack(max_layers=2)
        p = predict_next_deep(stack, np.zeros((0, 4)))
        assert p.shape == (4,)
        assert np.all((p > 0) & (p < 1))


def random_stack(n_layers, seed, sizes=(4, 3, 3, 2), k=2, sd=0.7):
    """``n_layers`` random recurrent layers over ``sizes[0]`` inputs."""
    return RnnDbn(layers=[small_model(seed + i, i=n_v, j=n_h, k=k, sd=sd)
                          for i, (n_v, n_h) in enumerate(
                              zip(sizes[:n_layers], sizes[1:n_layers + 1]))])


class TestGroupedScoring:
    """Scoring by length group against one sequence at a time."""

    LENGTHS = (25, 3, 25, 1, 3, 2)

    def sequences(self):
        rng = RngStream(110)
        return [(rng.split(n).uniform(size=(t, 4)) < 0.5).astype(float)
                for n, t in enumerate(self.LENGTHS)]

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_evaluate_model_equals_per_prefix_pool(self, n_layers):
        stack, seqs = random_stack(n_layers, 111), self.sequences()
        pool = PooledMetrics()
        for seq in seqs:
            preds = [predict_next_deep(stack, seq[:t])
                     for t in range(1, seq.shape[0])]
            pool.add(np.reshape(preds, (-1, 4)), seq[1:])
        npt.assert_allclose(evaluate_model(stack, seqs),
                            (pool.cross_entropy(), pool.correct_ratio()),
                            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_group_rows_equal_lone_sequences_bit_for_bit(self, n_layers):
        # stacks this wide round a group unrolled as (S, T, I) differently
        # from its lone sequences in every row, so only the _apart layout
        # passes
        for n, sd in enumerate(np.linspace(0.5, 3.5, 16)):
            seed = 1000 * n_layers + 10 * n
            stack = random_stack(n_layers, seed, (6, 10, 8, 6), k=8, sd=sd)
            group = (RngStream(seed + 5).uniform(size=(5, 25, 6))
                     < 0.5).astype(float)
            lone = next_frame_predictions_deep(stack, group[0])
            npt.assert_array_equal(
                next_frame_predictions_deep(stack, group[:1]), lone[None])
            rows = next_frame_predictions_deep(stack, group)
            assert rows.shape == (5, 24, 6)
            for row, seq in zip(rows, group):
                npt.assert_array_equal(
                    row, next_frame_predictions_deep(stack, seq))

    def test_single_frame_group_yields_no_rows(self):
        out = next_frame_predictions_deep(random_stack(2, 114),
                                          np.zeros((3, 1, 4)))
        assert out.shape == (3, 0, 4)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_one_unroll_per_layer_and_length_group(self, monkeypatch,
                                                   n_layers):
        calls = []
        real = rnn_rbm.unroll

        def counting(model, seq):
            calls.append(np.shape(seq))
            return real(model, seq)

        monkeypatch.setattr(rnn_rbm, "unroll", counting)
        monkeypatch.setattr(rnn_dbn, "unroll", counting)
        evaluate_model(random_stack(n_layers, 115), self.sequences())
        # a group of single frames predicts nothing and unrolls nothing
        groups = {t for t in self.LENGTHS if t >= 2}
        assert len(calls) == n_layers * len(groups)


class TestDeepSampling:
    def test_deterministic_binary_frames(self):
        (stack, _), _ = trained_stack(max_layers=2)
        s1 = sample_sequence_deep(stack, 6, RngStream(5))
        s2 = sample_sequence_deep(stack, 6, RngStream(5))
        npt.assert_array_equal(s1, s2)
        assert s1.shape == (6, 4)
        assert set(np.unique(s1)) <= {0.0, 1.0}

    def test_zero_length(self):
        (stack, _), _ = trained_stack(max_layers=2)
        assert sample_sequence_deep(stack, 0, RngStream(1)).shape == (0, 4)

    def test_negative_length_rejected(self):
        (stack, _), _ = trained_stack(max_layers=2)
        with pytest.raises(ValueError):
            sample_sequence_deep(stack, -2, RngStream(1))


def recording_draw(marginals):
    """A draw for the sampler's ``_draw`` that keeps a copy of every
    marginal it draws from and draws with ``sample_bernoulli``, so the
    marginals' range is checked too."""
    def draw(p, rng):
        marginals.append(np.array(p))
        return sample_bernoulli(p, rng)
    return draw


def sample_both(stack, length, seed):
    """``(frames, marginals)`` of the sampler and of the linear reference;
    a ``FloatingPointError`` takes the place of the frames."""
    got, want = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rnn_dbn, "_draw", recording_draw(got))
        try:
            frames = sample_sequence_deep(stack, length, RngStream(seed))
        except FloatingPointError as exc:
            frames = str(exc)
    # the reference's own overflow warnings are not under test
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ref = reference_linear_sampler(stack, length, RngStream(seed),
                                           recording_draw(want))
        except FloatingPointError as exc:
            ref = str(exc)
    return (frames, got), (ref, want)


@st.composite
def stacks_and_sequences(draw, max_layers=3):
    """A stack of 1..``max_layers`` random recurrent layers and ragged
    binary sequences of 1..8 frames."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    sd = draw(st.sampled_from([0.1, 0.7, 2.0]))
    sizes = draw(st.lists(st.integers(1, 5), min_size=2,
                          max_size=max_layers + 1))
    rng = RngStream(seed)
    layers = [small_model(seed + i, i=n_v, j=n_h, k=draw(st.integers(1, 4)),
                          sd=sd)
              for i, (n_v, n_h) in enumerate(zip(sizes, sizes[1:]))]
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    seqs = [(rng.split(n).uniform(size=(t, sizes[0])) < 0.5).astype(float)
            for n, t in enumerate(lengths)]
    return RnnDbn(layers=layers), seqs


class TestReadPathProperties:
    """The linear read path against the per-prefix references."""

    @settings(max_examples=60, deadline=None)
    @given(case=stacks_and_sequences())
    def test_vectorised_matches_per_prefix(self, case):
        stack, seqs = case
        for seq in seqs:
            rows = next_frame_predictions_deep(stack, seq)
            assert rows.shape == (seq.shape[0] - 1, stack.n_visible)
            for t in range(1, seq.shape[0]):
                npt.assert_allclose(rows[t - 1],
                                    predict_next_deep(stack, seq[:t]),
                                    rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=stacks_and_sequences(max_layers=1))
    def test_bare_recurrent_rbm_evaluates_as_flat_pool(self, case):
        stack, seqs = case
        model = stack.layers[0]
        pool = PooledMetrics()
        for seq in seqs:
            pool.add(next_frame_predictions_deep(stack, seq), seq[1:])
        if pool.empty:
            with pytest.raises(DimensionError, match="two frames"):
                evaluate_model(model, seqs)
        else:
            assert evaluate_model(model, seqs) == \
                (pool.cross_entropy(), pool.correct_ratio())

    @settings(max_examples=60, deadline=None)
    @given(case=stacks_and_sequences(), length=st.integers(0, 8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sampler_matches_quadratic_reference(self, case, length, seed):
        stack, _ = case
        marginals = []

        def recording(p, rng):
            marginals.append(np.array(p))
            return sample_bernoulli(p, rng)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rnn_dbn, "_draw", recording)
            frames = sample_sequence_deep(stack, length, RngStream(seed))
        npt.assert_array_equal(
            frames, reference_sample_sequence_deep(stack, length,
                                                   RngStream(seed)))
        assert len(marginals) == length
        for t, p in enumerate(marginals):
            npt.assert_allclose(p, predict_next_deep(stack, frames[:t]),
                                rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=stacks_and_sequences(), length=st.integers(0, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sampler_equals_linear_reference_bit_for_bit(self, case, length,
                                                         seed):
        (frames, got), (ref, want) = sample_both(case[0], length, seed)
        assert isinstance(frames, np.ndarray) and (frames == ref).all()
        assert len(got) == len(want) == length
        for p, q in zip(got, want):
            assert p.shape == q.shape and (p == q).all()

    @settings(max_examples=100, deadline=None)
    @given(case=stacks_and_sequences(), length=st.integers(0, 12),
           seed=st.integers(0, 2 ** 32 - 1),
           where=st.tuples(st.integers(0, 2),
                           st.sampled_from(["b", "c", "W", "u_bias", "w_uv",
                                            "w_uh", "w_vu", "w_uu"])),
           huge=st.sampled_from([1.7e308, -1.7e308]))
    def test_sampler_fails_where_linear_reference_fails(self, case, length,
                                                        seed, where, huge):
        # huge entries in one array overflow in some frame, before or
        # after its draw, or nowhere; either way the frames, the marginals
        # drawn from and the error are the reference's
        stack = case[0]
        arr = getattr(stack.layers[where[0] % stack.n_layers], where[1])
        arr += huge * (arr >= 0)
        (frames, got), (ref, want) = sample_both(stack, length, seed)
        if isinstance(ref, str):
            assert frames == ref == "sigmoid: non-finite input"
        else:
            assert isinstance(frames, np.ndarray) and (frames == ref).all()
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert (p == q).all()


def saturated_stack(seed):
    """A stack of 1..3 random layers of 1..5 units, weight sd 8, 10 or
    12: bare ``expit`` rounds some pre-activations to 1 in some frames,
    while the pre-activations stay finite."""
    rng = RngStream(seed)
    sd = (8.0, 10.0, 12.0)[seed % 3]
    sizes = [1 + rng.integers(5) for _ in range(2 + rng.integers(3))]
    return RnnDbn(layers=[
        small_model(10 * seed + n, i=n_v, j=n_h, k=1 + rng.integers(4), sd=sd)
        for n, (n_v, n_h) in enumerate(zip(sizes, sizes[1:]))])


class TestGuardedReruns:
    """Saturating stacks, on which the frame-by-frame recursions fall back
    to the clamped logistic, against the guarded references."""

    SEEDS = range(60)

    def test_sampler_equals_linear_reference_bit_for_bit(self, monkeypatch):
        real, reruns = rnn_dbn.sigmoid, []
        for seed in self.SEEDS:
            stack, got, want, first = saturated_stack(seed), [], [], []

            def guarded(x, out=None):
                if not first:
                    first.append(len(got))  # the frame being predicted
                return real(x, out)

            monkeypatch.setattr(rnn_dbn, "sigmoid", guarded)
            monkeypatch.setattr(rnn_dbn, "_draw", recording_draw(got))
            frames = sample_sequence_deep(stack, 20, RngStream(seed))
            with np.errstate(over="ignore", invalid="ignore"):
                ref = reference_linear_sampler(stack, 20, RngStream(seed),
                                               recording_draw(want))
            assert (frames == ref).all()
            assert len(got) == len(want) == 20
            for p, q in zip(got, want):
                assert p.shape == q.shape and (p == q).all()
            reruns += first
        # the rerun starts in the first frame and in later ones, where it
        # redoes the state update of the frame before from saved states
        assert len(reruns) >= 20 and sum(t >= 1 for t in reruns) >= 10

    def test_unroll_equals_state_update_loop_bit_for_bit(self, monkeypatch):
        real, steps = rnn_rbm.sigmoid, []

        def guarded(x, out=None):
            steps.append(1)
            return real(x, out)

        monkeypatch.setattr(rnn_rbm, "sigmoid", guarded)
        for seed in self.SEEDS:
            rng = RngStream(1000 + seed)
            for layer in saturated_stack(seed).layers:
                seq = rng.uniform(size=(6, layer.n_visible))
                group = rng.uniform(size=(3, 6, layer.n_visible))
                # a lone sequence, and a group apart, whose states are
                # bit for bit those of its sequences alone
                lone = unroll(layer, seq)[0][None]
                apart = unroll(layer, _apart(group))[0][:, 0]
                for seqs, U in [(seq[None], lone), (group, apart)]:
                    for one, states in zip(seqs, U):
                        u = layer.u0
                        for t, v in enumerate(one):
                            u = state_update(layer, u, v)
                            assert (states[t + 1] == u).all()
        # a rerun takes one guarded step per frame
        assert len(steps) // 6 >= 20

    def test_mean_field_equals_guarded_reference_bit_for_bit(self,
                                                             monkeypatch):
        real, steps = rnn_rbm.sigmoid, []

        def guarded(x, out=None):
            steps.append(1)
            return real(x, out)

        monkeypatch.setattr(rnn_rbm, "sigmoid", guarded)
        reran = calls = 0
        for seed in self.SEEDS:
            rng = RngStream(2000 + seed)
            for layer in saturated_stack(seed).layers:
                # the biases of one frame, of a sequence and of a group
                # apart, which reach pre-activations past 36.74
                for lead in [(), (6,), (3, 1, 5)]:
                    u = rng.uniform(size=lead + (layer.u_dim,))
                    b_next = layer.b + u @ layer.w_uv
                    c_next = layer.c + u @ layer.w_uh
                    before = len(steps)
                    got = rnn_rbm._mean_field_marginals(layer.W, b_next,
                                                        c_next)
                    reran += len(steps) > before
                    calls += 1
                    want = reference_mean_field(layer.W, b_next, c_next)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
        # a rerun takes two guarded steps a pass, hidden then visible; the
        # stacks saturate in some calls (102 of 357) and not in others
        assert len(steps) == 2 * rnn_rbm.MEAN_FIELD_PASSES * reran
        assert reran >= 60 and calls - reran >= 60
