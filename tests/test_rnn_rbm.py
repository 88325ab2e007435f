"""Recurrent model: recursion arithmetic, exact-gradient oracle, trainer."""
import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from growrbm.adapt import (AdaptConfig, ForgettingConfig, GradientStats,
                           apply_annihilation, maybe_generate)
from growrbm.errors import CapacityError, DimensionError
from growrbm.metrics import PooledMetrics
from growrbm.numerics import RngStream, sigmoid
from growrbm.rbm import CdConfig, Rbm, cd_step, log_likelihood_exact
from growrbm.rnn_dbn import RnnDbn, sample_sequence_deep
from growrbm.rnn_rbm import (RnnRbm, RnnRbmGradient, bptt_gradients,
                             mean_hidden_activation, mean_sequence_energy,
                             next_frame_predictions, predict_next,
                             prediction_error, sequence_cost_exact,
                             sequence_cost_gradient_exact, state_update,
                             temporal_biases, train_adaptive_rnn_rbm, unroll)

from test_rbm import reference_cd_step

GRAD_PAIRS = [("db", "b"), ("dc", "c"), ("dW", "W"), ("du", "u_bias"),
              ("dw_uv", "w_uv"), ("dw_uh", "w_uh"), ("dw_vu", "w_vu"),
              ("dw_uu", "w_uu"), ("du0", "u0")]


def small_model(seed, i=3, j=2, k=2, sd=0.5):
    rng = RngStream(seed)
    return RnnRbm(
        b=rng.normal(sd=sd, size=i), c=rng.normal(sd=sd, size=j),
        W=rng.normal(sd=sd, size=(i, j)),
        u_bias=rng.normal(sd=sd, size=k),
        w_uv=rng.normal(sd=sd, size=(k, i)),
        w_uh=rng.normal(sd=sd, size=(k, j)),
        w_vu=rng.normal(sd=sd, size=(i, k)),
        w_uu=rng.normal(sd=sd, size=(k, k)),
        u0=np.linspace(0.3, 0.7, k))


def static_in_rnn(rbm, u_dim=2):
    """Wrap a static RBM with all-zero recurrent parts."""
    model = RnnRbm.zeros(rbm.n_visible, rbm.n_hidden, u_dim=u_dim)
    model.b, model.c, model.W = rbm.copy().arrays().values()
    return model


def grown_model(model, seed):
    """``model`` after a forced growth sweep: ``W`` and ``w_uh`` are no
    longer the arrays it started with."""
    i, j = model.n_visible, model.n_hidden
    stats = GradientStats.zeros(i, j)
    for step in range(40):
        sign = 1.0 if step % 2 == 0 else -1.0
        stats.update(np.full(j, sign), np.full((i, j), sign))
    adapt = AdaptConfig(generation_phase_epochs=1, max_hidden=2 * j,
                        gen_threshold=1e-6)
    grown, _, parents = maybe_generate(model, stats, adapt, RngStream(seed))
    assert grown.n_hidden > j and parents
    return grown


def reference_grow_hidden(model, stats, cfg, rng):
    """The recurrent growth sweep written out on its own: split the
    triggered units of the static part (per parent, bias noise then
    weight-column noise), then draw one ``(P, K)`` block of fresh small
    ``w_uh`` columns.  Returns ``(model, stats, parents)``."""
    scores = (cfg.c_gain * stats.var_c()
              * np.mean(cfg.w_gain * stats.var_w(), axis=0))
    parents = [j for j in range(model.n_hidden) if scores[j] > cfg.gen_threshold]
    parents = parents[:max(0, cfg.max_hidden - model.n_hidden)]
    if not parents:
        return model, stats, []
    child_c, child_cols = [], []
    for j in parents:
        child_c.append(model.c[j] + rng.normal(sd=cfg.split_noise_sd))
        child_cols.append(model.W[:, j] + rng.normal(sd=cfg.split_noise_sd,
                                                     size=model.n_visible))
    new_cols = rng.normal(sd=0.01, size=(len(parents), model.u_dim))
    at = np.add(parents, 1)
    grown = model.copy()
    grown.c = np.insert(model.c, at, child_c)
    grown.W = np.insert(model.W, at, np.transpose(child_cols), axis=1)
    grown.w_uh = np.insert(model.w_uh, at, new_cols.T, axis=1)
    grown_stats = GradientStats(
        *(np.insert(a, at, 0.0, axis=-1)
          for a in (stats.mean_c, stats.sq_c, stats.mean_w, stats.sq_w)),
        decay=stats.decay, count=stats.count)
    return grown, grown_stats, parents


def cycle_sequences(n_seq, t_len, rng, dim=4):
    eye = np.eye(dim)
    out = []
    for _ in range(n_seq):
        phase = int(rng.integers(dim))
        out.append(np.array([eye[(phase + t) % dim] for t in range(t_len)]))
    return out


def reference_bptt_gradients(model, batch, cfg, rng):
    """Frame-by-frame BPTT-CD: a 1-row ``reference_cd_step`` per frame on
    its ``split(t)`` stream, chained through the state with outer
    products."""
    total = RnnRbmGradient.zeros(model)
    frames = 0
    for s, seq in enumerate(batch):
        seq_rng = rng.split(s)
        t_len = seq.shape[0]
        U = [model.u0]
        DB, DC = [], []
        dW = np.zeros_like(model.W)
        for t in range(t_len):
            b_t, c_t = temporal_biases(model, U[t])
            g = reference_cd_step(Rbm(b_t, c_t, model.W),
                                  seq[t][None, :], cfg, seq_rng.split(t))
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


def exact_next_marginal(W, b, c):
    """Brute-force E[v] of the conditional RBM with the given biases."""
    states = np.array(list(itertools.product((0.0, 1.0),
                                             repeat=b.shape[0])))
    log_p = states @ b + np.sum(np.logaddexp(0.0, states @ W + c), axis=1)
    p = np.exp(log_p - log_p.max())
    p /= p.sum()
    return p @ states


class TestRecursionArithmetic:
    def test_temporal_biases_manual(self):
        m = small_model(1)
        u = np.array([0.2, 0.8])
        b_t, c_t = temporal_biases(m, u)
        npt.assert_allclose(b_t, m.b + u @ m.w_uv, atol=1e-15)
        npt.assert_allclose(c_t, m.c + u @ m.w_uh, atol=1e-15)

    def test_state_update_manual(self):
        m = small_model(2)
        u = np.array([0.5, 0.5])
        v = np.array([1.0, 0.0, 1.0])
        expected = sigmoid(m.u_bias + u @ m.w_uu + v @ m.w_vu)
        npt.assert_array_equal(state_update(m, u, v), expected)

    def test_unroll_shapes_and_recursion(self):
        m = small_model(3)
        seq = (RngStream(4).uniform(size=(5, 3)) < 0.5).astype(float)
        U, B, C = unroll(m, seq)
        assert U.shape == (6, 2)
        assert B.shape == (5, 3)
        assert C.shape == (5, 2)
        npt.assert_array_equal(U[0], m.u0)
        u = m.u0
        for t in range(5):
            npt.assert_allclose(B[t], m.b + u @ m.w_uv, atol=1e-15)
            npt.assert_allclose(C[t], m.c + u @ m.w_uh, atol=1e-15)
            u = sigmoid(m.u_bias + u @ m.w_uu + seq[t] @ m.w_vu)
            npt.assert_array_equal(U[t + 1], u)

    def test_zero_recurrence_keeps_static_biases(self):
        rbm = Rbm(np.array([0.3, -0.2]), np.array([0.1]),
                  np.array([[0.5], [-0.4]]))
        m = static_in_rnn(rbm)
        seq = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        _, B, C = unroll(m, seq)
        npt.assert_array_equal(B, np.tile(rbm.b, (3, 1)))
        npt.assert_array_equal(C, np.tile(rbm.c, (3, 1)))

    def test_rejects_flat_sequence(self):
        with pytest.raises(DimensionError):
            unroll(small_model(5), np.zeros(3))

    def test_rejects_wrong_frame_dimension(self):
        with pytest.raises(DimensionError):
            unroll(small_model(5), np.zeros((2, 4)))

    @pytest.mark.parametrize("seed, group", [(6, None), (7, None), (8, None),
                                             (9, 1), (10, 5)],
                             ids=["6", "7", "8", "group-of-1", "group-of-5"])
    def test_batched_biases_match_per_frame(self, seed, group):
        m = small_model(seed, i=5, j=4, k=6, sd=1.0)
        shape = (9, 5) if group is None else (group, 9, 5)
        seqs = (RngStream(seed + 100).uniform(size=shape) < 0.5).astype(float)
        got = unroll(m, seqs)
        if group is None:
            # one sequence against the row-by-row recursion: the states
            # agree bit for bit, the biases (one matrix product) to rounding
            U, B, C = got
            npt.assert_array_equal(U[0], m.u0)
            for t in range(9):
                b_t, c_t = temporal_biases(m, U[t])
                npt.assert_allclose(B[t], b_t, rtol=0, atol=1e-14)
                npt.assert_allclose(C[t], c_t, rtol=0, atol=1e-14)
                npt.assert_array_equal(U[t + 1],
                                       state_update(m, U[t], seqs[t]))
            return
        # a stacked group against one unroll per sequence: a group of one
        # is the same computation, larger groups agree to rounding
        for s in range(group):
            for stacked, alone in zip(got, unroll(m, seqs[s])):
                npt.assert_allclose(stacked[s], alone, rtol=0,
                                    atol=0 if group == 1 else 1e-14)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_pre_activation_raises(self, bad):
        m = small_model(10)
        m.w_vu[1, 0] = bad
        seq = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(FloatingPointError, match="non-finite input"):
            unroll(m, seq)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_non_finite_pre_activation_in_group_raises(self, bad):
        # finite weights; only the sequence with two bits on in one frame
        # overflows its state pre-activation
        m = small_model(11)
        m.w_vu[:, 0] = 1e308
        seqs = np.tile(np.eye(3), (3, 1, 1))
        seqs[bad, 1] = [1.0, 1.0, 0.0]
        for s in range(3):
            if s != bad:
                unroll(m, seqs[s])
        with pytest.raises(FloatingPointError, match="non-finite input"):
            unroll(m, seqs)

    def test_rejects_wrong_state_dimension(self):
        with pytest.raises(DimensionError):
            temporal_biases(small_model(5), np.zeros(3))


class TestSequenceCost:
    def test_zero_model_costs_one_ln2_per_bit(self):
        m = RnnRbm.zeros(3, 2)
        seq = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        npt.assert_allclose(sequence_cost_exact(m, seq), 2 * 3 * np.log(2),
                            rtol=1e-12)

    def test_zero_recurrence_sums_static_likelihoods(self):
        rng = RngStream(6)
        rbm = Rbm(rng.normal(sd=0.6, size=3), rng.normal(sd=0.6, size=2),
                  rng.normal(sd=0.6, size=(3, 2)))
        m = static_in_rnn(rbm)
        seq = (rng.uniform(size=(7, 3)) < 0.5).astype(float)
        npt.assert_allclose(sequence_cost_exact(m, seq),
                            -7 * log_likelihood_exact(rbm, seq), rtol=1e-10)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            sequence_cost_exact(RnnRbm.zeros(12, 9), np.zeros((2, 12)))

    def test_history_changes_cost(self):
        m = small_model(7)
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        # same final frame, different history, different conditional cost
        assert sequence_cost_exact(m, a) != sequence_cost_exact(m, b)


class TestExactGradient:
    def test_matches_central_finite_differences(self):
        m = small_model(11)
        seq = (RngStream(12).uniform(size=(4, 3)) < 0.5).astype(float)
        g = sequence_cost_gradient_exact(m, seq)
        step = 1e-5
        for g_name, a_name in GRAD_PAIRS:
            arr = m.arrays()[a_name]
            grad = np.atleast_1d(getattr(g, g_name))
            flat = arr.reshape(-1)
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + step
                up = sequence_cost_exact(m, seq)
                flat[i] = orig - step
                down = sequence_cost_exact(m, seq)
                flat[i] = orig
                npt.assert_allclose(
                    grad.reshape(-1)[i], (up - down) / (2 * step),
                    atol=2e-7, err_msg=f"{g_name}[{i}]")

    def test_descent_steps_reduce_cost(self):
        m = small_model(13)
        seq = (RngStream(14).uniform(size=(5, 3)) < 0.5).astype(float)
        costs = [sequence_cost_exact(m, seq)]
        for _ in range(10):
            g = sequence_cost_gradient_exact(m, seq)
            for g_name, a_name in GRAD_PAIRS:
                arr = m.arrays()[a_name]
                arr -= 0.05 * getattr(g, g_name)
            costs.append(sequence_cost_exact(m, seq))
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_single_frame_recovers_static_gradient(self):
        # one frame, zero recurrence: b/c/W parts must equal the exact
        # static likelihood gradient (negated, cost vs likelihood)
        from growrbm.rbm import log_likelihood_gradient_exact
        rng = RngStream(15)
        rbm = Rbm(rng.normal(sd=0.5, size=3), rng.normal(sd=0.5, size=2),
                  rng.normal(sd=0.5, size=(3, 2)))
        m = static_in_rnn(rbm)
        frame = np.array([[1.0, 0.0, 1.0]])
        g = sequence_cost_gradient_exact(m, frame)
        s = log_likelihood_gradient_exact(rbm, frame)
        npt.assert_allclose(g.db, -s.db, atol=1e-12)
        npt.assert_allclose(g.dc, -s.dc, atol=1e-12)
        npt.assert_allclose(g.dW, -s.dW, atol=1e-12)


class TestBpttGradients:
    def batch(self, seed=20, n=3, t=4, dim=3):
        rng = RngStream(seed)
        return [(rng.uniform(size=(t, dim)) < 0.5).astype(float)
                for _ in range(n)]

    def test_deterministic(self):
        m = small_model(21)
        cfg = CdConfig(k=1, learning_rate=0.1, batch_size=10)
        g1 = bptt_gradients(m, self.batch(), cfg, RngStream(5))
        g2 = bptt_gradients(m, self.batch(), cfg, RngStream(5))
        for f, _ in GRAD_PAIRS:
            npt.assert_array_equal(getattr(g1, f), getattr(g2, f))

    def test_zero_recurrence_reduces_to_static_cd(self):
        rng = RngStream(22)
        rbm = Rbm(rng.normal(sd=0.3, size=3), rng.normal(sd=0.3, size=2),
                  rng.normal(sd=0.3, size=(3, 2)))
        m = static_in_rnn(rbm)
        batch = self.batch(seed=23)
        cfg = CdConfig(k=1, learning_rate=0.1, batch_size=10)
        root = RngStream(9)
        g = bptt_gradients(m, batch, cfg, root)

        db = np.zeros(3)
        dc = np.zeros(2)
        dW = np.zeros((3, 2))
        frames = 0
        for s, seq in enumerate(batch):
            seq_rng = root.split(s)
            for t in range(seq.shape[0]):
                gs = cd_step(rbm, seq[t][None, :], cfg, seq_rng.split(t))
                db += gs.db
                dc += gs.dc
                dW += gs.dW
                frames += 1
        npt.assert_allclose(g.db, db / frames, atol=1e-12)
        npt.assert_allclose(g.dc, dc / frames, atol=1e-12)
        npt.assert_allclose(g.dW, dW / frames, atol=1e-12)
        # no path back through the state: chained parts vanish ...
        npt.assert_array_equal(g.du, np.zeros(2))
        npt.assert_array_equal(g.dw_uu, np.zeros((2, 2)))
        npt.assert_array_equal(g.dw_vu, np.zeros((3, 2)))
        npt.assert_array_equal(g.du0, np.zeros(2))
        # ... but the direct bias paths remain, scaled by the frozen
        # state value 1/2
        npt.assert_allclose(g.dw_uv, np.tile(0.5 * g.db, (2, 1)), atol=1e-12)
        npt.assert_allclose(g.dw_uh, np.tile(0.5 * g.dc, (2, 1)), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_frame_batched_matches_per_frame_reference(self, k):
        m = small_model(24, i=4, j=3, k=5, sd=0.8)
        rng = RngStream(25)
        batch = [(rng.uniform(size=(t, 4)) < 0.5).astype(float)
                 for t in (1, 6, 3, 9)]
        cfg = CdConfig(k=k, learning_rate=0.1, batch_size=10)
        fast = bptt_gradients(m, batch, cfg, RngStream(26))
        ref = reference_bptt_gradients(m, batch, cfg, RngStream(26))
        for f, _ in GRAD_PAIRS:
            npt.assert_allclose(getattr(fast, f), getattr(ref, f), rtol=0,
                                atol=1e-13, err_msg=f)

    @pytest.mark.parametrize("k", [1, 3])
    def test_frame_batched_matches_reference_after_growth(self, k):
        grown = grown_model(small_model(27, i=4, j=3, k=5, sd=0.8), 28)
        rng = RngStream(29)
        batch = [(rng.uniform(size=(t, 4)) < 0.5).astype(float)
                 for t in (7, 2, 5)]
        cfg = CdConfig(k=k, learning_rate=0.1, batch_size=10)
        fast = bptt_gradients(grown, batch, cfg, RngStream(30))
        ref = reference_bptt_gradients(grown, batch, cfg, RngStream(30))
        for f, _ in GRAD_PAIRS:
            npt.assert_allclose(getattr(fast, f), getattr(ref, f), rtol=0,
                                atol=1e-13, err_msg=f)

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bptt_gradients(small_model(1), [np.full((2, 3), 1.5)],
                           CdConfig(k=1, learning_rate=0.1, batch_size=4),
                           RngStream(0))

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            bptt_gradients(small_model(1), [],
                           CdConfig(k=1, learning_rate=0.1, batch_size=4),
                           RngStream(0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            bptt_gradients(small_model(1), [np.zeros((3, 5))],
                           CdConfig(k=1, learning_rate=0.1, batch_size=4),
                           RngStream(0))

    def test_gradient_clip_bounds_norm(self):
        g = RnnRbmGradient.zeros(small_model(1))
        g.dW += 100.0
        assert g.clip_(5.0).norm() == pytest.approx(5.0)
        g2 = RnnRbmGradient.zeros(small_model(1))
        g2.dW += 0.01
        before = g2.norm()
        assert g2.clip_(5.0).norm() == before


class TestPrediction:
    def test_zero_model_predicts_half(self):
        m = RnnRbm.zeros(4, 3)
        p = predict_next(m, np.array([[1.0, 0.0, 1.0, 0.0]]))
        npt.assert_array_equal(p, np.full(4, 0.5))

    def test_empty_prefix_uses_initial_state(self):
        m = small_model(31)
        from growrbm.rnn_rbm import _mean_field_marginals
        b0, c0 = temporal_biases(m, m.u0)
        expected = _mean_field_marginals(m.W, b0, c0)
        npt.assert_array_equal(predict_next(m, np.zeros((0, 3))), expected)
        npt.assert_array_equal(predict_next(m, []), expected)

    def test_mean_field_close_to_enumeration(self):
        m = small_model(33, i=3, j=3, k=2, sd=0.25)
        prefix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        U, _, _ = unroll(m, prefix)
        b_next, c_next = temporal_biases(m, U[-1])
        exact = exact_next_marginal(m.W, b_next, c_next)
        npt.assert_allclose(predict_next(m, prefix), exact, atol=0.05)

    def test_vectorised_predictions_match_prefix_loop(self):
        m = small_model(34)
        seq = (RngStream(35).uniform(size=(6, 3)) < 0.5).astype(float)
        rows = next_frame_predictions(m, seq)
        assert rows.shape == (5, 3)
        for t in range(1, 6):
            npt.assert_allclose(rows[t - 1], predict_next(m, seq[:t]),
                                atol=1e-12)

    def test_short_sequence_yields_no_rows(self):
        m = small_model(36)
        assert next_frame_predictions(m, np.zeros((1, 3))).shape == (0, 3)

    def test_prediction_error_matches_manual_pool(self):
        m = small_model(37)
        seqs = [(RngStream(38).uniform(size=(4, 3)) < 0.5).astype(float),
                np.zeros((1, 3))]  # single-frame sequence is skipped
        p = next_frame_predictions(m, seqs[0])
        v = seqs[0][1:]
        eps = np.finfo(float).tiny
        manual = -np.mean(v * np.log(np.maximum(p, eps))
                          + (1 - v) * np.log(np.maximum(1 - p, eps)))
        npt.assert_allclose(prediction_error(m, seqs), manual, rtol=1e-12)

    def test_prediction_error_empty_is_nan(self):
        assert np.isnan(prediction_error(small_model(39),
                                         [np.zeros((1, 3))]))


@st.composite
def ragged_batches(draw):
    """A fresh or grown model, CD ``k`` and 1-8 sequences of 1-8 frames in
    shuffled order, drawn from a few lengths so that groups form."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n_v = draw(st.integers(1, 5))
    model = small_model(seed, i=n_v, j=draw(st.integers(1, 4)),
                        k=draw(st.integers(1, 5)),
                        sd=draw(st.sampled_from([0.1, 0.8, 2.0])))
    if draw(st.booleans()):
        model = grown_model(model, seed + 1)
    pool = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    lengths = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    rng = RngStream(seed + 2)
    seqs = [(rng.uniform(size=(t, n_v)) < 0.5).astype(float)
            for t in draw(st.permutations(lengths))]
    return model, seqs, draw(st.sampled_from([1, 2]))


class TestRaggedBatches:
    """Length-grouped batch paths against one sequence at a time."""

    @settings(max_examples=80, deadline=None)
    @given(case=ragged_batches(), seed=st.integers(0, 2 ** 32 - 1))
    def test_bptt_matches_per_frame_reference(self, case, seed):
        model, seqs, k = case
        cfg = CdConfig(k=k, learning_rate=0.1, batch_size=8)
        fast = bptt_gradients(model, seqs, cfg, RngStream(seed))
        ref = reference_bptt_gradients(model, seqs, cfg, RngStream(seed))
        for f, _ in GRAD_PAIRS:
            npt.assert_allclose(getattr(fast, f), getattr(ref, f), rtol=0,
                                atol=1e-12, err_msg=f)

    @settings(max_examples=80, deadline=None)
    @given(case=ragged_batches())
    def test_metrics_match_per_sequence_loops(self, case):
        m, seqs, _ = case
        energy, frames = 0.0, 0
        acts = np.zeros(m.n_hidden)
        pool = PooledMetrics()
        for seq in seqs:
            _, B, C = unroll(m, seq)
            pre = C + seq @ m.W
            h = sigmoid(pre)
            energy += float(np.sum(-np.sum(seq * B, axis=1)
                                   - np.sum(h * pre, axis=1)))
            acts += h.sum(axis=0)
            frames += seq.shape[0]
            pool.add(next_frame_predictions(m, seq), seq[1:])
        npt.assert_allclose(mean_sequence_energy(m, seqs), energy / frames,
                            rtol=0, atol=1e-12)
        npt.assert_allclose(mean_hidden_activation(m, seqs), acts / frames,
                            rtol=0, atol=1e-12)
        if pool.empty:
            assert np.isnan(prediction_error(m, seqs))
        else:
            npt.assert_allclose(prediction_error(m, seqs),
                                pool.cross_entropy(), rtol=0, atol=1e-12)


def test_ragged_batch_draws_in_one_kernel_call(monkeypatch):
    import growrbm.numerics as numerics
    calls = []

    def counting(keys, n_words):
        calls.append(keys.shape)
        return kernel(keys, n_words)

    kernel = numerics.philox4x64
    monkeypatch.setattr(numerics, "philox4x64", counting)
    rng = RngStream(12)
    seqs = [(rng.uniform(size=(t, 3)) < 0.5).astype(float)
            for t in (4, 2, 4, 7, 2)]
    bptt_gradients(small_model(50), seqs, CdConfig(k=2, batch_size=8),
                   RngStream(13))
    assert calls == [(19,)]


class TestSampling:
    """A recurrent RBM samples as a one-layer stack."""

    @staticmethod
    def sample(model, length, rng):
        return sample_sequence_deep(RnnDbn(layers=[model]), length, rng)

    def test_deterministic_binary_frames(self):
        m = small_model(41)
        s1 = self.sample(m, 8, RngStream(3))
        s2 = self.sample(m, 8, RngStream(3))
        npt.assert_array_equal(s1, s2)
        assert s1.shape == (8, 3)
        assert set(np.unique(s1)) <= {0.0, 1.0}

    def test_zero_length(self):
        assert self.sample(small_model(42), 0, RngStream(1)).shape == (0, 3)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            self.sample(small_model(42), -1, RngStream(1))

    def test_strong_bias_drives_samples(self):
        m = RnnRbm.zeros(2, 1)
        m.b = np.array([8.0, -8.0])
        frames = self.sample(m, 50, RngStream(7))
        assert frames[:, 0].mean() > 0.95
        assert frames[:, 1].mean() < 0.05


class TestSummaries:
    def test_zero_model_zero_energy(self):
        m = RnnRbm.zeros(3, 2)
        seqs = [np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])]
        assert mean_sequence_energy(m, seqs) == 0.0

    def test_zero_recurrence_matches_static_energy(self):
        from growrbm.dbn import mean_field_energy
        rng = RngStream(44)
        rbm = Rbm(rng.normal(sd=0.4, size=3), rng.normal(sd=0.4, size=2),
                  rng.normal(sd=0.4, size=(3, 2)))
        m = static_in_rnn(rbm)
        frames = (rng.uniform(size=(6, 3)) < 0.5).astype(float)
        npt.assert_allclose(mean_sequence_energy(m, [frames[:4], frames[4:]]),
                            mean_field_energy(rbm, frames), rtol=1e-12)

    def test_mean_hidden_activation_manual(self):
        m = small_model(45)
        seq = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        _, _, C = unroll(m, seq)
        expected = sigmoid(C + seq @ m.W).mean(axis=0)
        npt.assert_allclose(mean_hidden_activation(m, [seq]), expected,
                            atol=1e-15)
        assert mean_hidden_activation(RnnRbm.zeros(3, 2),
                                      [seq]).tolist() == [0.5, 0.5]


class TestStructuralEdits:
    def high_variance_stats(self, i, j, unit):
        stats = GradientStats.zeros(i, j)
        g_c = np.zeros(j)
        g_w = np.zeros((i, j))
        for step in range(60):
            s = 1.0 if step % 2 == 0 else -1.0
            g_c[unit] = s
            g_w[:, unit] = s
            stats.update(g_c, g_w)
        return stats

    def test_grow_inserts_aligned_column(self):
        m = small_model(51, i=3, j=3, k=2)
        stats = self.high_variance_stats(3, 3, unit=1)
        cfg = AdaptConfig(generation_phase_epochs=1, max_hidden=6,
                          gen_threshold=1e-6)
        grown, stats2, parents = maybe_generate(m, stats, cfg, RngStream(4))
        assert parents == [1]
        assert grown.n_hidden == 4
        grown.validate()
        # surviving temporal-bias columns keep their values
        npt.assert_array_equal(grown.w_uh[:, [0, 1, 3]], m.w_uh)
        # the fresh column is small noise, not a copy of the parent
        assert np.abs(grown.w_uh[:, 2]).max() < 0.1
        assert not np.array_equal(grown.w_uh[:, 2], m.w_uh[:, 1])
        # the detector itself is inherited
        npt.assert_allclose(grown.W[:, 2], m.W[:, 1], atol=0.1)
        assert stats2.mean_c.shape == (4,)

    def test_grow_without_trigger_returns_inputs(self):
        m = small_model(52)
        stats = GradientStats.zeros(3, 2)
        cfg = AdaptConfig(generation_phase_epochs=1, max_hidden=6)
        same_model, same_stats, parents = maybe_generate(m, stats, cfg,
                                                         RngStream(4))
        assert parents == []
        assert same_model is m
        assert same_stats is stats

    def test_shrink_drops_matching_column(self):
        m = small_model(53, j=3)
        stats = GradientStats.zeros(3, 3)
        mask = np.array([False, True, False])
        smaller, stats2 = apply_annihilation(m, stats, mask)
        assert smaller.n_hidden == 2
        smaller.validate()
        npt.assert_array_equal(smaller.w_uh, m.w_uh[:, [0, 2]])
        npt.assert_array_equal(smaller.W, m.W[:, [0, 2]])
        assert stats2.mean_c.shape == (2,)

    def test_validate_rejects_boundary_state(self):
        m = small_model(54)
        m.u0 = np.array([0.0, 0.5])
        with pytest.raises(FloatingPointError):
            m.validate()

    def test_validate_rejects_misaligned_w_uh(self):
        m = small_model(55)
        m.w_uh = np.zeros((2, 5))
        with pytest.raises(DimensionError):
            m.validate()


@st.composite
def growth_cases(draw):
    """A random recurrent layer, noisy gradient statistics and a growth
    config with 0-6 units of room."""
    i, j, k = (draw(st.integers(1, 4)), draw(st.integers(1, 6)),
               draw(st.integers(1, 4)))
    rng = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    model = RnnRbm.random(i, j, rng.split(0), u_dim=k, weight_sd=0.5)
    stats = GradientStats(rng.normal(size=j), rng.uniform(size=j),
                          rng.normal(size=(i, j)), rng.uniform(size=(i, j)),
                          count=5)
    cfg = AdaptConfig(generation_phase_epochs=1,
                      max_hidden=j + draw(st.integers(0, 6)),
                      gen_threshold=draw(st.sampled_from([1e-3, 0.02, 0.1])),
                      split_noise_sd=0.1)
    return model, stats, cfg


class TestGrowthOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=growth_cases(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_grow_hidden(self, case, seed):
        model, stats, cfg = case
        grown, grown_stats, parents = maybe_generate(model, stats, cfg,
                                                     RngStream(seed))
        ref, ref_stats, ref_parents = reference_grow_hidden(
            model, stats, cfg, RngStream(seed))
        assert parents == ref_parents
        assert list(grown.arrays()) == list(ref.arrays())
        for name, arr in ref.arrays().items():
            npt.assert_array_equal(grown.arrays()[name], arr, err_msg=name)
        for name in ("mean_c", "sq_c", "mean_w", "sq_w"):
            npt.assert_array_equal(getattr(grown_stats, name),
                                   getattr(ref_stats, name), err_msg=name)


def _layer(cls):
    if cls is RnnRbm:
        return small_model(56, i=3, j=4, k=2)
    rng = RngStream(57)
    return Rbm(rng.normal(size=3), rng.normal(size=4), rng.normal(size=(3, 4)))


VALIDATE_CASES = [(Rbm, name) for name in ("b", "c", "W")] + [
    (RnnRbm, name) for _, name in GRAD_PAIRS]


class TestValidate:
    """``validate`` names the offending array, for every array of both
    layer types."""

    @pytest.mark.parametrize("cls,name", VALIDATE_CASES)
    def test_non_finite_value_names_array(self, cls, name):
        m = _layer(cls)
        m.validate()
        arr = getattr(m, name).copy()
        arr.flat[-1] = np.nan
        setattr(m, name, arr)
        with pytest.raises(FloatingPointError, match=rf"in {name}$"):
            m.validate()

    @pytest.mark.parametrize("cls,name", VALIDATE_CASES)
    def test_misshapen_array_names_array(self, cls, name):
        m = _layer(cls)
        setattr(m, name, np.full(getattr(m, name).shape + (1,), 0.5))
        with pytest.raises(DimensionError, match=rf"^{name} has shape"):
            m.validate()

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_initial_state_on_boundary_raises(self, edge):
        m = _layer(RnnRbm)
        m.u0 = np.array([0.5, edge])
        with pytest.raises(FloatingPointError, match="open unit interval"):
            m.validate()


class TestTrainer:
    def cd(self):
        return CdConfig(k=1, learning_rate=0.1, batch_size=5)

    def test_prediction_error_decreases_on_cycles(self):
        seqs = cycle_sequences(20, 12, RngStream(61))
        cd = CdConfig(k=1, learning_rate=0.5, batch_size=5)
        _, _, log = train_adaptive_rnn_rbm(seqs, 6, cd, 50, RngStream(62))
        assert log.rows[-1].error < log.rows[0].error
        # a static model is stuck at the marginal-rate cross-entropy
        # (each bit is on 1/4 of the time, about 0.562 nats); beating it
        # by a wide margin means the temporal rule was learned
        assert log.rows[-1].error < 0.3

    def test_deterministic(self):
        seqs = cycle_sequences(8, 6, RngStream(63))
        m1, _, l1 = train_adaptive_rnn_rbm(seqs, 4, self.cd(), 4,
                                           RngStream(64))
        m2, _, l2 = train_adaptive_rnn_rbm(seqs, 4, self.cd(), 4,
                                           RngStream(64))
        for name, arr in m1.arrays().items():
            npt.assert_array_equal(arr, m2.arrays()[name], err_msg=name)
        assert l1.csv_text() == l2.csv_text()

    def test_inert_adaptation_matches_disabled(self):
        seqs = cycle_sequences(10, 8, RngStream(65))
        inert = AdaptConfig(generation_phase_epochs=3, max_hidden=12,
                            gen_threshold=1e9, ann_threshold=1e-300)
        off, _, log_off = train_adaptive_rnn_rbm(seqs, 4, self.cd(), 6,
                                                 RngStream(66))
        on, _, log_on = train_adaptive_rnn_rbm(seqs, 4, self.cd(), 6,
                                               RngStream(66), adapt=inert,
                                               forget=ForgettingConfig())
        for name, arr in off.arrays().items():
            npt.assert_array_equal(arr, on.arrays()[name], err_msg=name)
        assert log_off.csv_text() == log_on.csv_text()

    def test_forced_generation_grows_and_logs(self):
        seqs = cycle_sequences(10, 8, RngStream(67))
        adapt = AdaptConfig(generation_phase_epochs=2, max_hidden=6,
                            gen_threshold=1e-30)
        model, _, log = train_adaptive_rnn_rbm(seqs, 4, self.cd(), 4,
                                               RngStream(68), adapt=adapt)
        assert model.n_hidden == 6
        model.validate()
        assert any("gen(" in r.event for r in log.rows)
        assert max(r.n_hidden for r in log.rows) == 6

    def test_forced_annihilation_prunes_to_floor(self):
        seqs = cycle_sequences(10, 8, RngStream(69))
        adapt = AdaptConfig(generation_phase_epochs=1, max_hidden=8,
                            gen_threshold=1e9, ann_threshold=0.999,
                            min_hidden=2)
        model, _, log = train_adaptive_rnn_rbm(seqs, 6, self.cd(), 3,
                                               RngStream(70), adapt=adapt)
        assert model.n_hidden == 2
        model.validate()
        assert any("ann(" in r.event for r in log.rows)

    def test_resume_matches_uninterrupted(self):
        seqs = cycle_sequences(8, 6, RngStream(71))
        captured = {}

        def grab(state):
            if state.epoch_done == 3:
                captured["state"] = state

        full, _, log_full = train_adaptive_rnn_rbm(
            seqs, 4, self.cd(), 8, RngStream(72), epoch_callback=grab)
        resumed, _, log_tail = train_adaptive_rnn_rbm(
            seqs, 4, self.cd(), 8, RngStream(72),
            resume=captured["state"])
        for name, arr in full.arrays().items():
            npt.assert_array_equal(arr, resumed.arrays()[name], err_msg=name)
        tail = [r for r in log_full.rows if r.epoch > 4]
        assert [(r.epoch, r.energy, r.error) for r in tail] == \
            [(r.epoch, r.energy, r.error) for r in log_tail.rows]

    def test_rejects_empty_and_ragged_input(self):
        with pytest.raises(ValueError):
            train_adaptive_rnn_rbm([], 3, self.cd(), 2, RngStream(1))
        with pytest.raises(DimensionError):
            train_adaptive_rnn_rbm([np.zeros((2, 3)), np.zeros((2, 4))],
                                   3, self.cd(), 2, RngStream(1))
