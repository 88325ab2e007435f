"""Recurrent model: recursion arithmetic, exact-gradient oracle, trainer."""
import itertools
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from growrbm import adapt as adapt_module, rnn_rbm
from growrbm.adapt import (STATS_DECAY, AdaptConfig, ForgettingConfig,
                           GradientStats, add_forgetting_, apply_annihilation,
                           forgetting_modes, maybe_generate)
from growrbm.errors import DimensionError
from growrbm.log import LogRow, TrainLog
from growrbm.metrics import PooledMetrics
from growrbm.numerics import RngStream, sigmoid
from growrbm.rbm import CdConfig, Rbm, RbmGradient, cd_step
from growrbm.rnn_dbn import (RnnDbn, next_frame_predictions_deep,
                             predict_next_deep, sample_sequence_deep)
from growrbm.rnn_rbm import (LengthGroups, RnnRbm, RnnRbmGradient,
                             bptt_gradients, mean_hidden_activation,
                             mean_sequence_energy, prediction_error,
                             train_adaptive_rnn_rbm, unroll)
from oracles import (CapacityError, log_likelihood_exact, sequence_cost_exact,
                     sequence_cost_gradient_exact, state_update)
from references import (reference_bptt_gradients, reference_frame_biases,
                        reference_grow_hidden, reference_mean_field)

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
        stats.update(RbmGradient(np.zeros(i), np.full(j, sign),
                                 np.full((i, j), sign)), 0.9)
    adapt = AdaptConfig(generation_phase_epochs=1, max_hidden=2 * j,
                        gen_threshold=1e-6)
    grown, _, parents = maybe_generate(model, stats, adapt, RngStream(seed))
    assert grown.n_hidden > j and parents
    return grown


def cycle_sequences(n_seq, t_len, rng, dim=4):
    eye = np.eye(dim)
    out = []
    for _ in range(n_seq):
        phase = int(rng.integers(dim))
        out.append(np.array([eye[(phase + t) % dim] for t in range(t_len)]))
    return out


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
        m.u0 = u
        _, (b_t,), (c_t,) = unroll(m, np.zeros((1, 3)))
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
                b_t, c_t = reference_frame_biases(m, U[t])
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

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), t_len=st.integers(1, 12),
           group=st.integers(1, 6), width=st.integers(1, 24),
           u_dim=st.integers(1, 24), sd=st.sampled_from([0.1, 1.0, 3.0]),
           layout=st.sampled_from(["lone", "group", "apart"]))
    def test_stacked_drive_equals_per_frame_products(self, seed, t_len, group,
                                                     width, u_dim, sd, layout):
        # ``unroll`` takes every frame's ``frames @ w_vu`` in one stacked
        # product, which must equal the product of each frame alone
        rng = RngStream(seed)
        w_vu = rng.normal(sd=sd, size=(width, u_dim))
        shape = {"lone": (t_len, width), "group": (group, t_len, width),
                 "apart": (group, 1, t_len, width)}[layout]
        frames = np.moveaxis(rng.uniform(size=shape), -2, 0)
        stacked = (frames[:, None] if layout == "lone" else frames) @ w_vu
        for t in range(t_len):
            alone = frames[t] @ w_vu
            assert stacked[t].tobytes() == alone.tobytes(), t


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
        from oracles import log_likelihood_gradient_exact
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
        g1, _ = bptt_gradients(m, self.batch(), cfg, RngStream(5))
        g2, _ = bptt_gradients(m, self.batch(), cfg, RngStream(5))
        for f, _ in GRAD_PAIRS:
            npt.assert_array_equal(getattr(g1, f), getattr(g2, f))

    def test_zero_recurrence_reduces_to_static_cd(self):
        # without recurrence a ragged batch is its frames stacked in batch
        # order, and it draws as one cd_step on them with the same stream;
        # weights this large make a frame's draws depend on its own row
        rng = RngStream(22)
        rbm = Rbm(rng.normal(sd=0.3, size=3), rng.normal(sd=0.3, size=2),
                  rng.normal(sd=2.0, size=(3, 2)))
        m = static_in_rnn(rbm)
        batch = [(rng.uniform(size=(t, 3)) < 0.5).astype(float)
                 for t in (4, 1, 6, 4, 2)]
        for k in (1, 2, 3):
            cfg = CdConfig(k=k, learning_rate=0.1, batch_size=10)
            g, _ = bptt_gradients(m, batch, cfg, RngStream(9))
            gs, _ = cd_step(rbm, np.vstack(batch), cfg, RngStream(9))
            npt.assert_allclose(g.db, gs.db, atol=1e-12)
            npt.assert_allclose(g.dc, gs.dc, atol=1e-12)
            npt.assert_allclose(g.dW, gs.dW, atol=1e-12)
            # no path back through the state: chained parts vanish ...
            npt.assert_array_equal(g.du, np.zeros(2))
            npt.assert_array_equal(g.dw_uu, np.zeros((2, 2)))
            npt.assert_array_equal(g.dw_vu, np.zeros((3, 2)))
            npt.assert_array_equal(g.du0, np.zeros(2))
            # ... but the direct bias paths remain, scaled by the frozen
            # state value 1/2
            npt.assert_allclose(g.dw_uv, np.tile(0.5 * g.db, (2, 1)),
                                atol=1e-12)
            npt.assert_allclose(g.dw_uh, np.tile(0.5 * g.dc, (2, 1)),
                                atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_frame_batched_matches_per_frame_reference(self, k):
        m = small_model(24, i=4, j=3, k=5, sd=0.8)
        rng = RngStream(25)
        batch = [(rng.uniform(size=(t, 4)) < 0.5).astype(float)
                 for t in (1, 6, 3, 9)]
        cfg = CdConfig(k=k, learning_rate=0.1, batch_size=10)
        fast, _ = bptt_gradients(m, batch, cfg, RngStream(26))
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
        fast, _ = bptt_gradients(grown, batch, cfg, RngStream(30))
        ref = reference_bptt_gradients(grown, batch, cfg, RngStream(30))
        for f, _ in GRAD_PAIRS:
            npt.assert_allclose(getattr(fast, f), getattr(ref, f), rtol=0,
                                atol=1e-13, err_msg=f)

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bptt_gradients(small_model(1), [np.full((2, 3), 1.5)],
                           CdConfig(k=1, learning_rate=0.1, batch_size=4),
                           RngStream(0))

    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_rejects_nan_as_out_of_range(self, where):
        seqs = [np.full((2, 3), 0.5), np.full((3, 3), 0.5)]
        seqs[where[0]][where[1], 1] = np.nan
        message = r"^visible batch values must lie in \[0, 1\]$"
        with pytest.raises(ValueError, match=message):
            bptt_gradients(small_model(1), seqs,
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
    """The read path of a recurrent RBM, a one-layer stack."""

    def test_zero_model_predicts_half(self):
        stack = RnnDbn(layers=[RnnRbm.zeros(4, 3)])
        p = predict_next_deep(stack, np.array([[1.0, 0.0, 1.0, 0.0]]))
        npt.assert_array_equal(p, np.full(4, 0.5))

    def test_empty_prefix_uses_initial_state(self):
        m = small_model(31)
        stack = RnnDbn(layers=[m])
        b0, c0 = reference_frame_biases(m, m.u0)
        expected = rnn_rbm._mean_field_marginals(m.W, b0, c0)
        npt.assert_array_equal(predict_next_deep(stack, np.zeros((0, 3))),
                               expected)
        npt.assert_array_equal(predict_next_deep(stack, []), expected)

    def test_mean_field_close_to_enumeration(self):
        m = small_model(33, i=3, j=3, k=2, sd=0.25)
        prefix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        U, _, _ = unroll(m, prefix)
        b_next, c_next = reference_frame_biases(m, U[-1])
        exact = exact_next_marginal(m.W, b_next, c_next)
        npt.assert_allclose(predict_next_deep(RnnDbn(layers=[m]), prefix),
                            exact, atol=0.05)

    def test_vectorised_predictions_match_prefix_loop(self):
        stack = RnnDbn(layers=[small_model(34)])
        seq = (RngStream(35).uniform(size=(6, 3)) < 0.5).astype(float)
        rows = next_frame_predictions_deep(stack, seq)
        assert rows.shape == (5, 3)
        for t in range(1, 6):
            npt.assert_allclose(rows[t - 1], predict_next_deep(stack, seq[:t]),
                                atol=1e-12)

    def test_short_sequence_yields_no_rows(self):
        stack = RnnDbn(layers=[small_model(36)])
        assert next_frame_predictions_deep(
            stack, np.zeros((1, 3))).shape == (0, 3)

    def test_prediction_error_matches_manual_pool(self):
        m = small_model(37)
        seqs = [(RngStream(38).uniform(size=(4, 3)) < 0.5).astype(float),
                np.zeros((1, 3))]  # single-frame sequence is skipped
        p = next_frame_predictions_deep(RnnDbn(layers=[m]), seqs[0])
        v = seqs[0][1:]
        eps = np.finfo(float).tiny
        manual = -np.mean(v * np.log(np.maximum(p, eps))
                          + (1 - v) * np.log(np.maximum(1 - p, eps)))
        npt.assert_allclose(prediction_error(m, seqs), manual, rtol=1e-12)

    def test_prediction_error_empty_is_nan(self):
        assert np.isnan(prediction_error(small_model(39),
                                         [np.zeros((1, 3))]))


@st.composite
def mean_field_inputs(draw):
    """Weights and next-frame biases for one frame ``(I,)``, a sequence
    ``(T, I)`` or a group ``(S, T, I)``, at scales from ordinary to near
    the float64 limit, and now and then one non-finite entry."""
    i, j = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    lead = draw(st.sampled_from([(), (1,), (6,), (1, 4), (3, 5), (48, 40)]))
    rng = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    scales = st.sampled_from([0.5, 8.0, 1e300, 1e307, 4e307, 1e308])
    with np.errstate(over="ignore"):
        arrays = [rng.normal(size=shape) * draw(scales)
                  for shape in [(i, j), lead + (i,), lead + (j,)]]
    if draw(st.booleans()):
        target = arrays[draw(st.integers(0, 2))].reshape(-1)
        target[draw(st.integers(0, target.size - 1))] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan]))
    return arrays


class TestMeanFieldGuard:
    """The mean-field passes against the reference's: equal marginals,
    and the sigmoid error on exactly the inputs where the reference
    raises it."""

    @settings(max_examples=150, deadline=None)
    @given(inputs=mean_field_inputs())
    def test_matches_guarded_passes(self, inputs):
        W, b_next, c_next = inputs
        try:
            want = reference_mean_field(W, b_next, c_next)
        except FloatingPointError as exc:
            assert str(exc) == "sigmoid: non-finite input"
            with pytest.raises(FloatingPointError,
                               match="^sigmoid: non-finite input$"):
                rnn_rbm._mean_field_marginals(W, b_next, c_next)
        else:
            npt.assert_array_equal(
                rnn_rbm._mean_field_marginals(W, b_next, c_next), want)

    # (W[0, 0], visible bias 0, hidden bias 0) of the one frame that
    # overflows.  With 1e308, its hidden unit 0 sits at 5e307 + 9e307 in
    # the first pass and near 1e308 + 9e307, past the float64 range,
    # from the second on.  With -1e308 it sits at -2e308 in the first
    # pass only: its visible unit 0 then falls near 0, and so does the
    # unit's share of the next pre-activations.
    OVERFLOWS = {"from the second pass": (1e308, 0.0, 9e307),
                 "in the first pass only": (-1e308, -50.0, -1.5e308)}

    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    @pytest.mark.parametrize("lead", [(4, 5), (64, 30)])
    def test_one_overflowing_row_of_a_group_raises(self, lead, case):
        # the overflowing row sits in a small group and in a large one
        w, b, c = self.OVERFLOWS[case]
        W = np.zeros((3, 2))
        W[0, 0] = w
        b_next, c_next = np.zeros(lead + (3,)), np.zeros(lead + (2,))
        b_next[2, 3, 0], c_next[2, 3, 0] = b, c
        for marginals in (reference_mean_field,
                          rnn_rbm._mean_field_marginals):
            with pytest.raises(FloatingPointError,
                               match="^sigmoid: non-finite input$"):
                marginals(W, b_next, c_next)
        c_next[2, 3, 0] = 0.0
        npt.assert_array_equal(
            rnn_rbm._mean_field_marginals(W, b_next, c_next),
            reference_mean_field(W, b_next, c_next))


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
        fast, _ = bptt_gradients(model, seqs, cfg, RngStream(seed))
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
            pool.add(next_frame_predictions_deep(RnnDbn(layers=[m]), seq),
                     seq[1:])
        npt.assert_allclose(mean_sequence_energy(m, seqs), energy / frames,
                            rtol=0, atol=1e-12)
        npt.assert_allclose(mean_hidden_activation(m, seqs), acts / frames,
                            rtol=0, atol=1e-12)
        if pool.empty:
            assert np.isnan(prediction_error(m, seqs))
        else:
            npt.assert_allclose(prediction_error(m, seqs),
                                pool.cross_entropy(), rtol=0, atol=1e-12)


class TestSharedUnroll:
    """The batch gradient's activations and the one unroll per epoch."""

    @settings(max_examples=80, deadline=None)
    @given(case=ragged_batches(), seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_activations_are_mean_hidden_activation(self, case, seed):
        model, seqs, k = case
        seqs = [s for s in seqs if s.shape[0] >= 2]
        assume(seqs)
        _, h = bptt_gradients(model, seqs, CdConfig(k=k), RngStream(seed))
        npt.assert_array_equal(h, mean_hidden_activation(model, seqs))

    @pytest.mark.parametrize("edit", ["grow", "prune"])
    def test_kept_states_serve_the_edited_model(self, edit, monkeypatch):
        model = small_model(80, i=4, j=4, k=5, sd=0.8)
        rng = RngStream(81)
        seqs = [(rng.uniform(size=(t, 4)) < 0.5).astype(float)
                for t in (5, 1, 3, 5, 2, 3)]
        calls = []
        monkeypatch.setattr(rnn_rbm, "unroll",
                            lambda m, seq: calls.append(1) or unroll(m, seq))
        groups = LengthGroups.of(model, seqs)
        mean_act = mean_hidden_activation(model, groups)
        npt.assert_array_equal(mean_act, mean_hidden_activation(model, seqs))
        if edit == "grow":
            edited = grown_model(model, 82)
        else:
            mask = np.arange(model.n_hidden) % 2 == 1
            edited, _ = apply_annihilation(
                model, GradientStats.zeros(4, model.n_hidden), mask)
        n_groups = len(groups.stacks)
        assert len(calls) == 2 * n_groups
        for metric in (mean_sequence_energy, prediction_error,
                       mean_hidden_activation):
            npt.assert_array_equal(metric(edited, groups),
                                   metric(edited, seqs), err_msg=edit)
        # only the calls on the plain list unrolled again
        assert len(calls) == 5 * n_groups

    def test_one_unroll_per_batch_group_and_per_epoch_group(self,
                                                            monkeypatch):
        rng = RngStream(83)
        seqs = [s for t in (4, 6, 7) for s in cycle_sequences(4, t, rng)]
        order = RngStream(84).permutation(len(seqs))
        seqs = [seqs[i] for i in order]
        calls = []
        monkeypatch.setattr(rnn_rbm, "unroll",
                            lambda m, seq: calls.append(1) or unroll(m, seq))
        adapt = AdaptConfig(generation_phase_epochs=2, max_hidden=6,
                            gen_threshold=1e-30, ann_threshold=0.999,
                            min_hidden=2)
        forget = ForgettingConfig(forgetting_epochs=2, selective_epochs=1)
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=5)
        epochs, root = 5, RngStream(85)
        _, _, log = train_adaptive_rnn_rbm(seqs, 4, cd, epochs, root,
                                           adapt=adapt, forget=forget)
        events = "|".join(r.event for r in log.rows)
        assert "gen(" in events and "ann(" in events
        lengths = [s.shape[0] for s in seqs]
        expected = 0
        for epoch in range(epochs):
            order = root.split(epoch + 1).permutation(len(seqs))
            for start in range(0, len(order), cd.batch_size):
                batch = order[start:start + cd.batch_size]
                expected += len({lengths[i] for i in batch})
            expected += len(set(lengths))
        assert len(calls) == expected


    def test_one_hidden_pass_per_epoch_that_prunes_nothing(self,
                                                           monkeypatch):
        # the pruning sweep's whole-set hidden pass also scores the epoch
        # when it removes no unit; the batches hold 4 of the 16 sequences
        seqs = cycle_sequences(16, 6, RngStream(86))
        passes = []

        def counting(x, real=rnn_rbm.sigmoid):
            x = np.asarray(x)
            if x.ndim == 3 and x.shape[:2] == (16, 6):
                passes.append(x.shape)
            return real(x)

        monkeypatch.setattr(rnn_rbm, "sigmoid", counting)
        adapt = AdaptConfig(generation_phase_epochs=4, max_hidden=12,
                            ann_threshold=1e-6)
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=4)
        _, _, log = train_adaptive_rnn_rbm(seqs, 6, cd, 10, RngStream(87),
                                           adapt=adapt)
        assert "ann(" not in log.csv_text()
        assert len(passes) == 10  # 26 when the sweep's pass is not kept

    @pytest.mark.parametrize("edit", ["none", "prune"])
    def test_view_metrics_equal_the_list_functions(self, edit):
        model = small_model(88, i=4, j=4, k=5, sd=0.8)
        rng = RngStream(89)
        seqs = [(rng.uniform(size=(t, 4)) < 0.5).astype(float)
                for t in (5, 2, 3, 5, 2, 3)]
        groups = LengthGroups.of(model, seqs)
        npt.assert_array_equal(groups.mean_activation(model),
                               mean_hidden_activation(model, seqs))
        if edit == "prune":
            model, _ = apply_annihilation(
                model, GradientStats.zeros(4, 4),
                np.array([0, 1, 1, 0], dtype=bool))
        assert groups.metrics(model) == (mean_sequence_energy(model, seqs),
                                         prediction_error(model, seqs))

    def test_kept_pass_serves_only_its_model_object(self, monkeypatch):
        model = small_model(90, i=4, j=3, k=2)
        rng = RngStream(91)
        seqs = [(rng.uniform(size=(t, 4)) < 0.5).astype(float)
                for t in (4, 3, 4)]
        groups = LengthGroups.of(model, seqs)
        kept = groups.hidden_passes(model)
        assert groups.hidden_passes(model) is kept
        freed = [weakref.ref(h) for *_, h in kept]
        del kept

        def checking(x, real=rnn_rbm.sigmoid):
            # the other model's pass is gone before a new one is made
            assert all(ref() is None for ref in freed)
            return real(x)

        monkeypatch.setattr(rnn_rbm, "sigmoid", checking)
        other = model.copy()
        other.W += 0.25
        got = groups.hidden_passes(other)
        want = LengthGroups.of(other, seqs).hidden_passes(other)
        for got_group, want_group in zip(got, want):
            for a, b in zip(got_group, want_group):
                npt.assert_array_equal(a, b)
        # an equal copy is another object, and gets a pass of its own
        assert groups.hidden_passes(other.copy()) is not got


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
        from references import mean_field_metrics
        rng = RngStream(44)
        rbm = Rbm(rng.normal(sd=0.4, size=3), rng.normal(sd=0.4, size=2),
                  rng.normal(sd=0.4, size=(3, 2)))
        m = static_in_rnn(rbm)
        frames = (rng.uniform(size=(6, 3)) < 0.5).astype(float)
        npt.assert_allclose(mean_sequence_energy(m, [frames[:4], frames[4:]]),
                            mean_field_metrics(rbm, frames)[0], rtol=1e-12)

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
            stats.update(RbmGradient(np.zeros(i), g_c, g_w), 0.9)
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
        m = RnnRbm(**{**m.arrays(), "w_uh": np.zeros((2, 5))})
        with pytest.raises(DimensionError):
            m.validate()


@st.composite
def growth_cases(draw):
    """A random recurrent layer, noisy gradient statistics and a growth
    config with 0-6 units of room; the splits add noise of sd 0.1
    (:class:`TestGrowthOracle` sets ``adapt.SPLIT_NOISE_SD``)."""
    i, j, k = (draw(st.integers(1, 4)), draw(st.integers(1, 6)),
               draw(st.integers(1, 4)))
    rng = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    model = RnnRbm.random(i, j, rng.split(0), u_dim=k, weight_sd=0.5)
    stats = GradientStats(mean_c=rng.normal(size=j), sq_c=rng.uniform(size=j),
                          mean_w=rng.normal(size=(i, j)),
                          sq_w=rng.uniform(size=(i, j)))
    cfg = AdaptConfig(generation_phase_epochs=1,
                      max_hidden=j + draw(st.integers(0, 6)),
                      gen_threshold=draw(st.sampled_from([1e-3, 0.02, 0.1])))
    return model, stats, cfg


class TestGrowthOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=growth_cases(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_grow_hidden(self, case, seed):
        model, stats, cfg = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adapt_module, "SPLIT_NOISE_SD", 0.1)
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
        m = cls(**{**m.arrays(),
                   name: np.full(getattr(m, name).shape + (1,), 0.5)})
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

    def test_training_equals_per_batch_loop(self):
        """Ragged sequences in a count that leaves a short last batch,
        against a hand loop that draws batch ``i`` of epoch stream ``ep``
        from a new ``ep.split(i + 1)``."""
        rng = RngStream(92)
        seqs = [(rng.uniform(size=(t, 4)) < 0.5).astype(float)
                for t in (25, 9, 2, 1, 17, 6, 9, 25, 3, 1, 12)]
        cd = CdConfig(k=2, learning_rate=0.3, batch_size=4)
        forget = ForgettingConfig(forgetting_epochs=2, selective_epochs=1)
        epochs, root = 6, RngStream(93)
        model, stats, log = train_adaptive_rnn_rbm(
            seqs, 3, cd, epochs, root, forget=forget, u_dim=5)

        want = RnnRbm.random(4, 3, root.split(0), u_dim=5)
        want_stats = GradientStats.zeros(4, 3)
        want_log = TrainLog()
        for epoch in range(epochs):
            ep = root.split(epoch + 1)
            order = ep.permutation(len(seqs))
            modes = forgetting_modes(epoch, forget, epochs)
            for bi, offset in enumerate(range(0, len(seqs), 4)):
                batch = [seqs[n] for n in order[offset:offset + 4]]
                g, acts = bptt_gradients(want, batch, cd, ep.split(bi + 1))
                for mode in modes:
                    add_forgetting_(g, want, mode, forget, acts)
                want_stats.update(g, STATS_DECAY)
                rnn_rbm._clipped_update(want, g, cd.learning_rate)
            energy, error = LengthGroups.of(want, seqs).metrics(want)
            want_log.append(LogRow(
                epoch=epoch + 1, layer=1, energy=energy, error=error,
                wd_c=float(want_stats.var_c().sum()),
                wd_w=float(want_stats.var_w().sum()),
                n_hidden=want.n_hidden, n_layers=1, event=""))
        assert log.csv_text() == want_log.csv_text()
        for name, arr in want.arrays().items():
            assert (model.arrays()[name] == arr).all(), name
        for name in ("mean_c", "sq_c", "mean_w", "sq_w"):
            assert (getattr(stats, name) == getattr(want_stats, name)).all()

    def test_rejects_empty_and_ragged_input(self):
        with pytest.raises(ValueError):
            train_adaptive_rnn_rbm([], 3, self.cd(), 2, RngStream(1))
        with pytest.raises(DimensionError):
            train_adaptive_rnn_rbm([np.zeros((2, 3)), np.zeros((2, 4))],
                                   3, self.cd(), 2, RngStream(1))
