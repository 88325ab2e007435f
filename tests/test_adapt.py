"""Growth, pruning, forgetting, and the schedule around them."""
import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from growrbm import adapt as adapt_module, dbn as dbn_module
from growrbm import rnn_rbm as rnn_rbm_module
from growrbm.adapt import (STALL_LIMIT, AdaptConfig, ForgettingConfig,
                           GradientStats, add_forgetting_,
                           apply_annihilation, forgetting_modes,
                           generation_scores, insert_after,
                           mask_from_activations, maybe_generate,
                           structure_phase)
from growrbm.checkpoint import load_train_state, save_train_state
from growrbm.errors import StructureError
from growrbm.dbn import train_adaptive_rbm
from growrbm.numerics import RngStream
from growrbm.rbm import CdConfig, Rbm, RbmGradient, hidden_conditional
from growrbm.rnn_rbm import RnnRbm, RnnRbmGradient, train_adaptive_rnn_rbm
from oracles import free_energy, log_partition_exact
from references import StructureController, reference_forgetting_gradient


def adapt_cfg(**kw):
    base = dict(generation_phase_epochs=10, max_hidden=16)
    base.update(kw)
    return AdaptConfig(**base)


def stats_with_variance(n_visible, n_hidden, var_c, var_w):
    """Statistics object with prescribed variances and zero means."""
    s = GradientStats.zeros(n_visible, n_hidden)
    s.sq_c = np.asarray(var_c, dtype=float).copy()
    s.sq_w = np.asarray(var_w, dtype=float).copy()
    return s


class TestGradientStats:
    def test_ema_matches_direct_simulation(self):
        lam = 0.9
        rng = RngStream(5)
        stats = GradientStats.zeros(2, 3)
        m_c = np.zeros(3)
        s_c = np.zeros(3)
        m_w = np.zeros((2, 3))
        s_w = np.zeros((2, 3))
        for _ in range(40):
            dc = rng.normal(size=3)
            dw = rng.normal(size=(2, 3))
            stats.update(RbmGradient(np.zeros(2), dc, dw), lam)
            m_c = lam * m_c + (1 - lam) * dc
            s_c = lam * s_c + (1 - lam) * dc ** 2
            m_w = lam * m_w + (1 - lam) * dw
            s_w = lam * s_w + (1 - lam) * dw ** 2
        npt.assert_allclose(stats.mean_c, m_c, atol=1e-14)
        npt.assert_allclose(stats.sq_c, s_c, atol=1e-14)
        npt.assert_allclose(stats.var_c(), np.maximum(s_c - m_c ** 2, 0),
                            atol=1e-14)
        npt.assert_allclose(stats.var_w(), np.maximum(s_w - m_w ** 2, 0),
                            atol=1e-14)

    def test_constant_stream_variance_decays_to_zero(self):
        stats = GradientStats.zeros(1, 2)
        g_c = np.array([0.3, -0.7])
        g_w = np.array([[0.1, 0.2]])
        for _ in range(300):
            stats.update(RbmGradient(np.zeros(1), g_c, g_w), 0.9)
        assert stats.var_c().max() < 1e-6
        assert stats.var_w().max() < 1e-6

    def test_alternating_stream_keeps_variance(self):
        # flipping sign every update: mean shrinks, second moment stays,
        # so the variance approaches the squared magnitude
        stats = GradientStats.zeros(1, 1)
        g = 0.5
        for t in range(500):
            sign = 1.0 if t % 2 == 0 else -1.0
            stats.update(RbmGradient(np.zeros(1), np.array([sign * g]),
                                     np.array([[sign * g]])), 0.9)
        # limit of the mean oscillates within (1-lam)/(1+lam) of g
        assert stats.var_c()[0] == pytest.approx(
            g ** 2 * (1 - ((1 - 0.9) / (1 + 0.9)) ** 2), rel=0.05)

    def test_fresh_stats_have_zero_variance(self):
        stats = GradientStats.zeros(3, 4)
        assert stats.var_c().max() == 0.0
        assert stats.var_w().max() == 0.0

    def test_shape_mismatch_raises(self):
        stats = GradientStats.zeros(2, 2)
        with pytest.raises(ValueError):
            stats.update(RbmGradient(np.zeros(2), np.zeros(3),
                                     np.zeros((2, 2))), 0.9)

    def test_insert_and_remove_roundtrip_layout(self):
        stats = GradientStats.zeros(2, 3)
        stats.sq_c[:] = [1.0, 2.0, 3.0]
        stats.sq_w[:] = 1.0
        # scores 1, 2 and 3: units 1 and 2 trigger, room for one child
        grown, grown_stats, parents = maybe_generate(
            Rbm.zeros(2, 3), stats, adapt_cfg(gen_threshold=1.5,
                                              max_hidden=4), RngStream(0))
        assert parents == [1]
        npt.assert_array_equal(grown_stats.sq_c, [1.0, 2.0, 0.0, 3.0])
        _, shrunk = apply_annihilation(
            grown, grown_stats, np.array([False, False, True, False]))
        npt.assert_array_equal(shrunk.sq_c, stats.sq_c)


class TestGenerationScore:
    def test_zero_variance_zero_score(self):
        stats = GradientStats.zeros(2, 3)
        npt.assert_array_equal(generation_scores(stats),
                               np.zeros(3))

    def test_worked_example(self):
        # bias variance 0.05, every weight variance 0.04:
        # score = 0.05 * 0.04 = 0.002, above the default 0.001 threshold
        stats = stats_with_variance(2, 1, [0.05], [[0.04], [0.04]])
        cfg = adapt_cfg()
        assert generation_scores(stats)[0] == pytest.approx(0.002)
        assert generation_scores(stats)[0] > cfg.gen_threshold

    def test_score_monotone_in_variance(self):
        lo = stats_with_variance(2, 1, [0.01], [[0.04], [0.04]])
        hi = stats_with_variance(2, 1, [0.02], [[0.04], [0.04]])
        assert generation_scores(hi)[0] > generation_scores(lo)[0]

    def test_weight_variance_averaged_over_inputs(self):
        # only one incoming weight fluctuates; the score uses the mean
        stats = stats_with_variance(4, 1, [0.1], [[0.08], [0.0], [0.0], [0.0]])
        assert generation_scores(stats)[0] == pytest.approx(
            0.1 * 0.08 / 4)


class TestMaybeGenerate:
    def test_no_trigger_returns_inputs_unchanged(self):
        rbm = Rbm.zeros(2, 3)
        stats = GradientStats.zeros(2, 3)
        out, out_stats, parents = maybe_generate(rbm, stats, adapt_cfg(),
                                                 RngStream(0))
        assert parents == []
        assert out is rbm
        assert out_stats is stats

    def test_split_without_noise_copies_parent(self, monkeypatch):
        monkeypatch.setattr(adapt_module, "SPLIT_NOISE_SD", 0.0)
        rng = RngStream(3)
        rbm = Rbm(b=rng.normal(size=2), c=rng.normal(size=2),
                  W=rng.normal(size=(2, 2)))
        stats = stats_with_variance(2, 2, [1.0, 0.0],
                                    [[1.0, 0.0], [1.0, 0.0]])
        cfg = adapt_cfg(gen_threshold=0.5)
        grown, grown_stats, parents = maybe_generate(rbm, stats, cfg,
                                                     RngStream(1))
        assert parents == [0]
        assert grown.n_hidden == 3
        # child sits directly after the parent and copies it exactly
        npt.assert_array_equal(grown.c[:2], [rbm.c[0], rbm.c[0]])
        npt.assert_array_equal(grown.W[:, 1], rbm.W[:, 0])
        npt.assert_array_equal(grown.c[2], rbm.c[1])
        npt.assert_array_equal(grown.W[:, 2], rbm.W[:, 1])
        # visible layer untouched
        npt.assert_array_equal(grown.b, rbm.b)
        # child statistics start cold
        assert grown_stats.sq_c[1] == 0.0

    def test_noisy_split_perturbs_child_only(self, monkeypatch):
        monkeypatch.setattr(adapt_module, "SPLIT_NOISE_SD", 0.05)
        rbm = Rbm.zeros(3, 1)
        rbm.W[:, 0] = [1.0, -1.0, 0.5]
        stats = stats_with_variance(3, 1, [1.0], [[1.0], [1.0], [1.0]])
        cfg = adapt_cfg(gen_threshold=0.5)
        grown, _, parents = maybe_generate(rbm, stats, cfg, RngStream(7))
        assert parents == [0]
        npt.assert_array_equal(grown.W[:, 0], rbm.W[:, 0])
        assert not np.array_equal(grown.W[:, 1], rbm.W[:, 0])
        npt.assert_allclose(grown.W[:, 1], rbm.W[:, 0], atol=0.3)

    def test_respects_max_hidden(self, monkeypatch):
        monkeypatch.setattr(adapt_module, "SPLIT_NOISE_SD", 0.0)
        rbm = Rbm.zeros(2, 3)
        stats = stats_with_variance(2, 3, [1.0, 1.0, 1.0], np.ones((2, 3)))
        cfg = adapt_cfg(gen_threshold=0.5, max_hidden=4)
        grown, _, parents = maybe_generate(rbm, stats, cfg, RngStream(0))
        assert parents == [0]  # only room for one child
        assert grown.n_hidden == 4

    def test_multiple_parents_insert_in_order(self, monkeypatch):
        monkeypatch.setattr(adapt_module, "SPLIT_NOISE_SD", 0.0)
        rbm = Rbm.zeros(1, 3)
        rbm.c[:] = [10.0, 20.0, 30.0]
        stats = stats_with_variance(1, 3, [1.0, 0.0, 1.0],
                                    [[1.0, 0.0, 1.0]])
        cfg = adapt_cfg(gen_threshold=0.5)
        grown, _, parents = maybe_generate(rbm, stats, cfg, RngStream(0))
        assert parents == [0, 2]
        npt.assert_array_equal(grown.c, [10.0, 10.0, 20.0, 30.0, 30.0])

    def test_duplicate_unit_changes_distribution_predictably(
            self, monkeypatch):
        # duplicating unit j multiplies every state weight by the extra
        # factor (1 + exp(c_j + v.W_j)); verify against enumeration
        monkeypatch.setattr(adapt_module, "SPLIT_NOISE_SD", 0.0)
        rng = RngStream(11)
        rbm = Rbm(b=rng.normal(size=2), c=rng.normal(size=2),
                  W=rng.normal(size=(2, 2)))
        stats = stats_with_variance(2, 2, [1.0, 0.0],
                                    [[1.0, 0.0], [1.0, 0.0]])
        cfg = adapt_cfg(gen_threshold=0.5)
        grown, _, _ = maybe_generate(rbm, stats, cfg, RngStream(0))

        states = np.array(list(itertools.product((0.0, 1.0), repeat=2)))
        before = np.exp(-free_energy(rbm, states)
                        - log_partition_exact(rbm))
        extra = 1.0 + np.exp(rbm.c[0] + states @ rbm.W[:, 0])
        expected = before * extra
        expected /= expected.sum()
        after = np.exp(-free_energy(grown, states)
                       - log_partition_exact(grown))
        npt.assert_allclose(after, expected, rtol=1e-9)


class TestAnnihilation:
    def test_silent_units_marked(self):
        rbm = Rbm.zeros(2, 3)
        rbm.c[:] = [-50.0, 0.0, -50.0]
        sample = np.array([[0.0, 0.0], [1.0, 1.0]])
        mask = mask_from_activations(
            hidden_conditional(rbm, sample).mean(axis=0),
            adapt_cfg(min_hidden=1))
        npt.assert_array_equal(mask, [True, False, True])

    def test_active_units_survive(self):
        rbm = Rbm.zeros(2, 3)
        sample = np.array([[1.0, 0.0]])
        # zero parameters: every activation is exactly 0.5 > 0.1
        mask = mask_from_activations(
            hidden_conditional(rbm, sample).mean(axis=0), adapt_cfg())
        assert not mask.any()

    def test_threshold_boundary_is_strict(self):
        cfg = adapt_cfg(ann_threshold=0.5)
        # activation exactly at the threshold must not be marked
        mask = mask_from_activations(np.array([0.5, 0.49]), cfg)
        npt.assert_array_equal(mask, [False, True])

    def test_min_hidden_keeps_most_active(self):
        cfg = adapt_cfg(ann_threshold=0.9, min_hidden=2)
        mask = mask_from_activations(np.array([0.1, 0.4, 0.2]), cfg)
        # all three fall below 0.9 but the two most active must stay
        npt.assert_array_equal(mask, [True, False, False])

    def test_min_hidden_tie_prefers_lower_index(self):
        cfg = adapt_cfg(ann_threshold=0.9, min_hidden=1)
        mask = mask_from_activations(np.array([0.3, 0.3, 0.3]), cfg)
        npt.assert_array_equal(mask, [False, True, True])

    def test_apply_removes_marked_columns(self):
        rng = RngStream(13)
        rbm = Rbm(b=rng.normal(size=2), c=rng.normal(size=3),
                  W=rng.normal(size=(2, 3)))
        stats = GradientStats.zeros(2, 3)
        pruned, pruned_stats = apply_annihilation(
            rbm, stats, np.array([False, True, False]))
        assert pruned.n_hidden == 2
        npt.assert_array_equal(pruned.c, rbm.c[[0, 2]])
        npt.assert_array_equal(pruned.W, rbm.W[:, [0, 2]])
        assert pruned_stats.mean_c.shape == (2,)

    def test_empty_mask_is_identity(self):
        rbm = Rbm.zeros(2, 2)
        stats = GradientStats.zeros(2, 2)
        pruned, _ = apply_annihilation(rbm, stats, np.zeros(2, dtype=bool))
        assert pruned.n_hidden == 2

    def test_removing_all_units_raises(self):
        rbm = Rbm.zeros(2, 2)
        stats = GradientStats.zeros(2, 2)
        with pytest.raises(StructureError):
            apply_annihilation(rbm, stats, np.ones(2, dtype=bool))

    def test_removing_silent_unit_barely_moves_distribution(self):
        rng = RngStream(17)
        rbm = Rbm(b=rng.normal(size=2), c=rng.normal(size=2),
                  W=rng.normal(size=(2, 2)))
        rbm.c[1] = -50.0  # effectively never on
        stats = GradientStats.zeros(2, 2)
        pruned, _ = apply_annihilation(rbm, stats,
                                       np.array([False, True]))
        states = np.array(list(itertools.product((0.0, 1.0), repeat=2)))
        before = np.exp(-free_energy(rbm, states) - log_partition_exact(rbm))
        after = np.exp(-free_energy(pruned, states)
                       - log_partition_exact(pruned))
        assert np.abs(before - after).sum() < 1e-6


def forgetting(model, mode, cfg, hidden_activations=None):
    """One penalty on its own: added into a zero static gradient."""
    g = RbmGradient(*map(np.zeros_like, (model.b, model.c, model.W)))
    return add_forgetting_(g, model, mode, cfg, hidden_activations)


# signed zeros, values that cancel a penalty exactly, both sides of the
# selective cutoff, and subnormals
EDGE_VALUES = [0.0, -0.0, 1e-3, -1e-3, 0.05, -0.05, 0.1, -0.1, 2.0,
               5e-324, -5e-324]
ACTIVATIONS = [0.2, 0.5, 0.8, 5e-324, 1e-300, 1.0 - 2 ** -53]


class TestForgetting:
    def rbm_with_weights(self, w):
        w = np.asarray(w, dtype=float)
        return Rbm(b=np.zeros(w.shape[0]), c=np.zeros(w.shape[1]), W=w)

    def test_decay_is_signed_constant_pull(self):
        rbm = self.rbm_with_weights([[0.5, -0.3], [0.0, 2.0]])
        cfg = ForgettingConfig(decay_strength=0.001)
        g = forgetting(rbm, "decay", cfg)
        npt.assert_array_equal(g.dW, [[-0.001, 0.001], [0.0, -0.001]])
        npt.assert_array_equal(g.db, np.zeros(2))
        npt.assert_array_equal(g.dc, np.zeros(2))

    def test_decay_shrinks_weight_norm(self):
        rbm = self.rbm_with_weights([[0.5, -0.3], [0.2, 2.0]])
        cfg = ForgettingConfig(decay_strength=0.01)
        before = np.abs(rbm.W).sum()
        for _ in range(50):
            g = forgetting(rbm, "decay", cfg)
            rbm.W += 0.1 * g.dW
        assert np.abs(rbm.W).sum() < before

    def test_clarify_pushes_away_from_half(self):
        rbm = Rbm.zeros(1, 3)
        cfg = ForgettingConfig(clarify_strength=0.01)
        acts = np.array([0.2, 0.5, 0.8])
        g = forgetting(rbm, "clarify", cfg, hidden_activations=acts)
        assert g.dc[0] < 0  # below half: push down
        assert g.dc[2] > 0  # above half: push up
        # magnitude is maximal exactly at one half
        assert abs(g.dc[1]) > abs(g.dc[0])
        assert abs(g.dc[1]) > abs(g.dc[2])
        npt.assert_allclose(abs(g.dc[1]), 0.01 * 0.25, rtol=1e-12)

    def test_clarify_requires_activations(self):
        rbm = Rbm.zeros(1, 1)
        with pytest.raises(ValueError):
            forgetting(rbm, "clarify", ForgettingConfig())

    def test_clarify_rejects_wrong_activation_shape(self):
        rbm = Rbm.zeros(2, 3)
        g = RbmGradient(np.ones(2), np.ones(3), np.ones((2, 3)))
        with pytest.raises(ValueError, match="one entry per hidden unit"):
            add_forgetting_(g, rbm, "clarify", ForgettingConfig(),
                            np.full(2, 0.5))
        for arr in (g.db, g.dc, g.dW):  # refused before any addition
            npt.assert_array_equal(arr, np.ones_like(arr))

    def test_selective_spares_small_weights(self):
        rbm = self.rbm_with_weights([[0.05, -0.2], [0.1, -0.05]])
        cfg = ForgettingConfig(selective_strength=0.001, selective_cutoff=0.1)
        g = forgetting(rbm, "selective", cfg)
        # |w| < cutoff: untouched; |w| >= cutoff: constant pull
        npt.assert_array_equal(g.dW, [[0.0, 0.001], [-0.001, 0.0]])

    def test_zero_weights_give_zero_decay(self):
        rbm = Rbm.zeros(2, 2)
        g = forgetting(rbm, "decay", ForgettingConfig())
        npt.assert_array_equal(g.dW, np.zeros((2, 2)))

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            forgetting(Rbm.zeros(1, 1), "melt", ForgettingConfig())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), recurrent=st.booleans(),
           modes=st.sampled_from([("decay",), ("clarify",), ("selective",),
                                  ("decay", "clarify"),
                                  ("selective", "clarify")]))
    def test_in_place_equals_added_penalty_bit_for_bit(self, data, recurrent,
                                                       modes):
        n_visible, n_hidden = 3, 2
        if recurrent:
            model = RnnRbm.random(n_visible, n_hidden, RngStream(1), u_dim=2)
            family = RnnRbmGradient
        else:
            model = Rbm.random(n_visible, n_hidden, RngStream(1))
            family = RbmGradient

        def edge_array(shape):
            size = int(np.prod(shape))
            values = data.draw(st.lists(st.sampled_from(EDGE_VALUES),
                                        min_size=size, max_size=size))
            return np.reshape(np.array(values, dtype=np.float64), shape)

        model.W = edge_array(model.W.shape)
        g = family(*(edge_array(arr.shape) for arr in vars(model).values()))
        acts = np.array(data.draw(st.lists(st.sampled_from(ACTIVATIONS),
                                           min_size=n_hidden,
                                           max_size=n_hidden)))
        cfg = ForgettingConfig(decay_strength=1e-3, clarify_strength=1e-3,
                               selective_strength=1e-3, selective_cutoff=0.1)
        want = family(*(arr.copy() for arr in vars(g).values()))
        for mode in modes:
            want.add_(reference_forgetting_gradient(model, mode, cfg, acts))
        got = g
        for mode in modes:
            assert add_forgetting_(got, model, mode, cfg, acts) is got
        for name, arr in vars(want).items():
            assert getattr(got, name).tobytes() == arr.tobytes(), name

    def test_strengths_capped(self):
        with pytest.raises(ValueError):
            ForgettingConfig(decay_strength=0.02)
        with pytest.raises(ValueError):
            ForgettingConfig(clarify_strength=-0.001)
        ForgettingConfig(decay_strength=0.01)  # cap itself is legal


def schedule(adapt, splits, epoch=0, stall=0):
    """``(phases, stall)``: each epoch's phase from ``epoch`` on, where
    growth epoch ``i`` splits ``splits[i]`` units and counts the stall as
    ``_train_layer`` does."""
    phases = []
    for n_new in splits:
        phases.append(structure_phase(epoch, adapt, stall))
        if phases[-1] == "generate":
            stall = 0 if n_new else stall + 1
        epoch += 1
    return phases, stall


class TestStructureController:
    """The schedule functions, beside the controller object they replace
    (``references.StructureController``)."""

    def test_generation_window_then_annihilation(self):
        phases, _ = schedule(adapt_cfg(generation_phase_epochs=3), [1] * 6)
        assert phases == ["generate"] * 3 + ["annihilate"] * 3

    def test_stall_ends_generation_early(self):
        adapt = adapt_cfg(generation_phase_epochs=100)
        phases, stall = schedule(adapt, [0] * 5)
        assert phases == ["generate"] * 5
        assert structure_phase(5, adapt, stall) == "annihilate"

    def test_trigger_resets_stall(self):
        adapt = adapt_cfg(generation_phase_epochs=100)
        # a split at epoch 4 resets the countdown
        phases, stall = schedule(adapt, [0, 0, 0, 0, 2] + [0] * 5)
        assert phases == ["generate"] * 10
        assert structure_phase(10, adapt, stall) == "annihilate"

    def test_disabled_adaptation_is_static(self):
        assert structure_phase(0, None, 0) == "static"
        assert forgetting_modes(9, None, 10) == ()

    def test_forgetting_windows(self):
        forget = ForgettingConfig(forgetting_epochs=3, selective_epochs=2)
        assert forgetting_modes(4, forget, 10) == ()
        assert forgetting_modes(5, forget, 10) == ("decay", "clarify")
        assert forgetting_modes(7, forget, 10) == ("decay", "clarify")
        assert forgetting_modes(8, forget, 10) == ("selective", "clarify")
        assert forgetting_modes(9, forget, 10) == ("selective", "clarify")

    def test_snapshot_roundtrip(self):
        # the epoch and the stall count are all a resume point needs
        adapt = adapt_cfg()
        full, _ = schedule(adapt, [0, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        _, stall = schedule(adapt, [0, 1, 0, 0])
        tail, _ = schedule(adapt, [0] * 6, epoch=4, stall=stall)
        assert tail == full[4:]

    @settings(max_examples=200, deadline=None)
    @given(adaptive=st.booleans(), phase_epochs=st.integers(0, 15),
           epochs=st.integers(0, 20), forgetting=st.integers(0, 8),
           selective=st.integers(0, 8), forgets=st.booleans(),
           splits=st.lists(st.integers(0, 2), max_size=20),
           cut=st.integers(0, 20))
    def test_functions_equal_the_controller(self, adaptive, phase_epochs,
                                            epochs, forgetting, selective,
                                            forgets, splits, cut):
        adapt = (adapt_cfg(generation_phase_epochs=phase_epochs)
                 if adaptive else None)
        forget = (ForgettingConfig(forgetting_epochs=forgetting,
                                   selective_epochs=selective)
                  if forgets else None)
        splits = (splits + [0] * epochs)[:epochs]
        ctl = StructureController(adapt, forget, epochs)
        assert ctl.STALL_LIMIT == STALL_LIMIT
        want, stalls = [], []
        for epoch, n_new in enumerate(splits):
            want.append(ctl.structure_phase(epoch))
            if want[-1] == "generate":
                ctl.record_generation(n_new)
            stalls.append(ctl.stall)
            assert (forgetting_modes(epoch, forget, epochs)
                    == ctl.forgetting_modes(epoch))
        phases, stall = schedule(adapt, splits)
        assert phases == want
        assert stall == ctl.stall
        # resumed after epoch ``cut - 1`` from that epoch's stall count
        cut = min(cut, epochs)
        tail, _ = schedule(adapt, splits[cut:], epoch=cut,
                           stall=stalls[cut - 1] if cut else 0)
        assert tail == want[cut:]


class TestTrainLayer:
    @pytest.mark.parametrize("recurrent", [False, True],
                             ids=["rbm", "rnn-rbm"])
    def test_growth_epoch_scores_units_once(self, monkeypatch, recurrent):
        """The growth sweep reuses the scores the event text reads."""
        calls = []

        def counted(stats):
            calls.append(stats.mean_c.shape)
            return generation_scores(stats)

        monkeypatch.setattr(adapt_module, "generation_scores", counted)
        rng = RngStream(3)
        seqs = [(rng.uniform(size=(5, 3)) < 0.5).astype(float)
                for _ in range(4)]
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=2)
        adapt = adapt_cfg(generation_phase_epochs=3, gen_threshold=1e-12)
        if recurrent:
            _, _, log = train_adaptive_rnn_rbm(seqs, 2, cd, 5, RngStream(4),
                                               adapt=adapt, u_dim=2)
        else:
            _, _, log = train_adaptive_rbm(np.vstack(seqs), 2, cd, 5,
                                           RngStream(4), adapt=adapt)
        assert "gen(" in log.rows[0].event
        assert len(calls) == 3  # one per growth epoch


class TestInsertHelpers:
    def test_insert_entries_scalar_and_list(self):
        vec = np.array([1.0, 2.0, 3.0])
        npt.assert_array_equal(insert_after(vec, [0, 2], [9.0, 8.0]),
                               [1.0, 9.0, 2.0, 3.0, 8.0])
        npt.assert_array_equal(insert_after(vec, [1], 0.0),
                               [1.0, 2.0, 0.0, 3.0])

    def test_insert_columns_matches_entries_layout(self):
        mat = np.arange(6.0).reshape(2, 3)
        out = insert_after(mat, [1], np.array([[9.0], [9.0]]))
        npt.assert_array_equal(out[:, 2], [9.0, 9.0])
        assert out.shape == (2, 4)
        npt.assert_array_equal(out[:, [0, 1, 3]], mat)
        out = insert_after(mat, [0, 2], np.array([[7.0, 5.0], [8.0, 6.0]]))
        npt.assert_array_equal(out, [[0.0, 7.0, 1.0, 2.0, 5.0],
                                     [3.0, 8.0, 4.0, 5.0, 6.0]])


class TestAdaptConfigValidation:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            adapt_cfg(gen_threshold=0.0)
        with pytest.raises(ValueError):
            adapt_cfg(ann_threshold=1.0)
        with pytest.raises(ValueError):
            adapt_cfg(min_hidden=0)
        with pytest.raises(ValueError):
            AdaptConfig(generation_phase_epochs=5, max_hidden=2, min_hidden=3)


class TestSweepLayout:
    """Both sweeps return C-ordered arrays, the layout a train state read
    back from disk has, so a resumed run rounds as the uninterrupted one
    does."""

    @pytest.mark.parametrize("recurrent", [False, True],
                             ids=["rbm", "rnn-rbm"])
    def test_every_array_is_c_contiguous_after_each_sweep(self, recurrent):
        rng = RngStream(31)
        model = RnnRbm.random(3, 4, rng.split(0), u_dim=3, weight_sd=1.0)
        if not recurrent:
            model = Rbm(model.b, model.c, model.W)
        stats = GradientStats.zeros(3, 4)
        stats.sq_c[:] = [1.0, 0.0, 1.0, 0.0]
        stats.sq_w[:] = 1.0
        cfg = adapt_cfg(max_hidden=8, gen_threshold=0.5)

        def assert_c_ordered(model, stats):
            arrays = {**model.arrays(), **vars(stats)}
            for name, arr in arrays.items():
                assert arr.flags.c_contiguous, name

        # prune, grow from the pruned layer, and prune again
        model, stats = apply_annihilation(
            model, stats, np.array([False, True, False, False]))
        assert_c_ordered(model, stats)
        model, stats, parents = maybe_generate(model, stats, cfg,
                                               rng.split(1))
        assert parents == [0, 1]
        assert_c_ordered(model, stats)
        model, stats = apply_annihilation(
            model, stats, np.array([True, False, False, True, False]))
        assert_c_ordered(model, stats)


def assert_packed(obj):
    """Every array of ``obj`` is a C-contiguous view into its one buffer,
    and the views tile the buffer in field order."""
    buffer = obj.buffer
    assert buffer.dtype == np.float64 and buffer.flags.owndata
    start, offset = buffer.__array_interface__["data"][0], 0
    for name, arr in vars(obj).items():
        assert arr.base is buffer and arr.flags.c_contiguous, name
        assert arr.__array_interface__["data"][0] == start + 8 * offset, name
        offset += arr.size
    assert offset == buffer.size


class TestPacking:
    """Each layer, gradient and set of moments lives in one buffer, so the
    update step reaches every array through it."""

    @pytest.mark.parametrize("recurrent", [False, True],
                             ids=["rbm", "rnn-rbm"])
    def test_trainer_steps_packed_arrays(self, monkeypatch, tmp_path,
                                         recurrent):
        # the trainer's layer and gradient at every update, and its moments
        # at every moment update, through growth, pruning and a resume
        rng = RngStream(41)
        seqs = [(rng.uniform(size=(6, 4)) < 0.5).astype(float)
                for _ in range(8)]
        module, name = ((rnn_rbm_module, "_clipped_update") if recurrent
                        else (dbn_module, "_apply_update"))
        real_step, real_update, steps = getattr(module, name), \
            GradientStats.update, []

        def step(model, g, lr):
            assert_packed(model)
            assert_packed(g)
            steps.append(model.n_hidden)
            real_step(model, g, lr)

        def update(stats, g, lam):
            assert_packed(stats)
            real_update(stats, g, lam)

        monkeypatch.setattr(module, name, step)
        monkeypatch.setattr(GradientStats, "update", update)
        train, data = ((train_adaptive_rnn_rbm, seqs) if recurrent
                       else (train_adaptive_rbm, np.vstack(seqs)))
        cd = CdConfig(k=2, learning_rate=0.2, batch_size=4)
        adapt = adapt_cfg(generation_phase_epochs=3, max_hidden=6,
                          gen_threshold=1e-12, ann_threshold=0.6)
        states = []
        model, stats, log = train(data, 3, cd, 8, RngStream(9), adapt=adapt,
                                  epoch_callback=states.append)
        assert "gen(" in log.csv_text() and "ann(" in log.csv_text()
        assert len(set(steps)) > 1  # the layer changed size in training
        for obj in [model, stats] + [getattr(s, part) for s in states
                                     for part in ("model", "stats")]:
            assert_packed(obj)
        save_train_state(tmp_path / "state.ckpt", states[4])
        state, _ = load_train_state(tmp_path / "state.ckpt")
        assert_packed(state.model)
        assert_packed(state.stats)
        steps.clear()
        train(data, 3, cd, 8, RngStream(9), adapt=adapt, resume=state)
        assert steps

    @pytest.mark.parametrize("recurrent", [False, True],
                             ids=["rbm", "rnn-rbm"])
    def test_sweeps_copies_and_field_writes_stay_packed(self, recurrent):
        rng = RngStream(43)
        model = RnnRbm.random(3, 4, rng.split(0), u_dim=2, weight_sd=1.0)
        if not recurrent:
            model = Rbm(model.b, model.c, model.W)
        stats = GradientStats.zeros(3, 4)
        stats.sq_c[:] = [1.0, 0.0, 1.0, 0.0]
        stats.sq_w[:] = 1.0
        family = RnnRbmGradient if recurrent else RbmGradient
        objects = [model, model.copy(), stats, stats.copy(),
                   family.zeros(model)]
        grown, grown_stats, parents = maybe_generate(
            model, stats, adapt_cfg(gen_threshold=0.5), rng.split(1))
        assert parents == [0, 2]
        pruned, pruned_stats = apply_annihilation(
            grown, grown_stats, np.array([False, True, True, False, False,
                                          False]))
        objects += [grown, grown_stats, pruned, pruned_stats]
        for obj in objects:
            assert_packed(obj)
        # a write of the same shape lands in the view; a new shape raises
        # and leaves every field as it was
        view, buffer = pruned.W, pruned.buffer
        pruned.W = np.ones_like(view)
        assert pruned.W is view and pruned.buffer is buffer
        assert (view == 1.0).all()
        for obj in (pruned, pruned_stats):
            buffer, before = obj.buffer, obj.buffer.copy()
            for name, arr in vars(obj).items():
                with pytest.raises(ValueError, match=rf"^{name} has shape"):
                    setattr(obj, name, np.zeros(arr.size + 1))
            assert obj.buffer is buffer
            assert buffer.tobytes() == before.tobytes()
            assert_packed(obj)


class TestGrowPruneRoundTrip:
    """Pruning exactly the children of a growth sweep restores every
    per-hidden-unit array bit for bit, for both model families."""

    @pytest.mark.parametrize("recurrent", [False, True],
                             ids=["rbm", "rnn-rbm"])
    @settings(max_examples=100, deadline=None)
    @given(n_visible=st.integers(1, 4), triggers=st.lists(st.booleans(),
                                                          min_size=1,
                                                          max_size=6),
           u_dim=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           room=st.integers(0, 6))
    def test_children_pruned_restore_originals(self, recurrent, n_visible,
                                               triggers, u_dim, seed, room):
        n_hidden = len(triggers)
        rng = RngStream(seed)
        model = RnnRbm.random(n_visible, n_hidden, rng.split(0), u_dim=u_dim,
                              weight_sd=1.0)
        model.b[:] = rng.normal(size=n_visible)
        model.c[:] = rng.normal(size=n_hidden)
        stats = GradientStats.zeros(n_visible, n_hidden)
        stats.mean_c = rng.normal(size=n_hidden)
        stats.mean_w = rng.normal(size=(n_visible, n_hidden))
        # variance 1 on triggered units, exactly 0 elsewhere
        hot = np.asarray(triggers, dtype=float)
        stats.sq_c = stats.mean_c ** 2 + hot
        stats.sq_w = stats.mean_w ** 2 + hot
        cfg = adapt_cfg(max_hidden=n_hidden + room, gen_threshold=0.5)
        before = model if recurrent else Rbm(model.b, model.c, model.W)

        grown, grown_stats, parents = maybe_generate(before, stats, cfg,
                                                     rng.split(1))
        assert parents == [j for j in range(n_hidden) if triggers[j]][:room]
        mask = np.zeros(grown.n_hidden, dtype=bool)
        mask[[p + i + 1 for i, p in enumerate(parents)]] = True
        pruned, pruned_stats = apply_annihilation(grown, grown_stats, mask)

        for name, arr in before.arrays().items():
            npt.assert_array_equal(pruned.arrays()[name], arr, err_msg=name)
            assert pruned.arrays()[name].dtype == arr.dtype
        for name in ("mean_c", "sq_c", "mean_w", "sq_w"):
            npt.assert_array_equal(getattr(pruned_stats, name),
                                   getattr(stats, name), err_msg=name)
