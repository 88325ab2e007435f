"""RBM core: energies, exact distributions, conditionals, CD.

The oracles here are deliberately independent of the library: joint
probabilities come from test-local loops over all states, and gradients
are checked against central finite differences of the exact
log-likelihood.
"""
import itertools
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from growrbm import rbm as rbm_module, rnn_rbm
from growrbm.errors import DimensionError
from growrbm.numerics import RngStream
from growrbm.rbm import (CdBuffers, CdConfig, Rbm, RbmGradient, cd_step,
                         hidden_conditional)
from growrbm.rnn_rbm import RnnRbm, RnnRbmGradient, bptt_gradients
from oracles import (CapacityError, energy, free_energy, log_likelihood_exact,
                     log_likelihood_gradient_exact, log_partition_exact,
                     prob_exact, visible_conditional)
from references import reference_cd_chain, reference_cd_step, reference_norm


def naive_energy(rbm, v, h):
    """Triple-loop energy, the slowest possible oracle."""
    total = 0.0
    for i in range(rbm.n_visible):
        total -= rbm.b[i] * v[i]
    for j in range(rbm.n_hidden):
        total -= rbm.c[j] * h[j]
    for i in range(rbm.n_visible):
        for j in range(rbm.n_hidden):
            total -= v[i] * rbm.W[i, j] * h[j]
    return total


def enumerate_joint(rbm):
    """dict (v_bits, h_bits) -> probability via explicit enumeration."""
    table = {}
    z = 0.0
    for v in itertools.product((0.0, 1.0), repeat=rbm.n_visible):
        for h in itertools.product((0.0, 1.0), repeat=rbm.n_hidden):
            w = np.exp(-naive_energy(rbm, np.array(v), np.array(h)))
            table[(v, h)] = w
            z += w
    return {k: w / z for k, w in table.items()}, z


def tiny_rbm(seed=0, n_visible=2, n_hidden=2, scale=0.7):
    rng = RngStream(seed)
    return Rbm(b=rng.normal(sd=scale, size=n_visible),
               c=rng.normal(sd=scale, size=n_hidden),
               W=rng.normal(sd=scale, size=(n_visible, n_hidden)))


class TestEnergy:
    def test_zero_parameters_zero_energy(self):
        rbm = Rbm.zeros(3, 2)
        assert energy(rbm, np.ones(3), np.ones(2)) == 0.0

    def test_single_unit_arithmetic(self):
        rbm = Rbm(b=np.array([0.5]), c=np.array([-0.25]), W=np.array([[0.1]]))
        npt.assert_allclose(energy(rbm, [1.0], [1.0]), -0.35, atol=1e-15)
        npt.assert_allclose(energy(rbm, [0.0], [1.0]), 0.25, atol=1e-15)

    def test_matches_naive_loops(self):
        rbm = tiny_rbm(3, n_visible=3, n_hidden=2)
        rng = RngStream(5)
        for _ in range(10):
            v = (rng.uniform(size=3) < 0.5).astype(float)
            h = (rng.uniform(size=2) < 0.5).astype(float)
            npt.assert_allclose(energy(rbm, v, h), naive_energy(rbm, v, h),
                                atol=1e-12)

    def test_batched_rows(self):
        rbm = tiny_rbm(1)
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        h = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = energy(rbm, v, h)
        assert out.shape == (2,)
        npt.assert_allclose(out[0], naive_energy(rbm, v[0], h[0]), atol=1e-12)

    def test_dimension_mismatch_raises(self):
        rbm = Rbm.zeros(3, 2)
        with pytest.raises(DimensionError):
            energy(rbm, np.ones(4), np.ones(2))
        with pytest.raises(DimensionError):
            energy(rbm, np.ones(3), np.ones(3))


class TestPartition:
    def test_zero_one_one(self):
        # two units, all four states have energy 0
        rbm = Rbm.zeros(1, 1)
        npt.assert_allclose(np.exp(log_partition_exact(rbm)), 4.0, atol=1e-12)

    def test_zero_params_counts_states(self):
        rbm = Rbm.zeros(2, 3)
        npt.assert_allclose(np.exp(log_partition_exact(rbm)), 2.0 ** 5,
                            rtol=1e-12)

    def test_matches_enumeration(self):
        rbm = tiny_rbm(7)
        _, z = enumerate_joint(rbm)
        npt.assert_allclose(np.exp(log_partition_exact(rbm)), z, rtol=1e-10)

    def test_hidden_side_enumeration_agrees(self):
        # more visible than hidden exercises the other enumeration branch
        rbm = tiny_rbm(11, n_visible=4, n_hidden=2)
        _, z = enumerate_joint(rbm)
        npt.assert_allclose(np.exp(log_partition_exact(rbm)), z, rtol=1e-10)

    def test_guard_rejects_large_models(self):
        rbm = Rbm.zeros(20, 8)
        with pytest.raises(CapacityError):
            log_partition_exact(rbm)


class TestProbExact:
    def test_uniform_for_zero_params(self):
        rbm = Rbm.zeros(1, 1)
        for v in ([0.0], [1.0]):
            for h in ([0.0], [1.0]):
                npt.assert_allclose(prob_exact(rbm, v, h), 0.25, atol=1e-12)

    def test_sums_to_one(self):
        rbm = tiny_rbm(13)
        total = sum(prob_exact(rbm, np.array(v), np.array(h))
                    for v in itertools.product((0.0, 1.0), repeat=2)
                    for h in itertools.product((0.0, 1.0), repeat=2))
        npt.assert_allclose(total, 1.0, atol=1e-12)

    def test_matches_enumeration(self):
        rbm = tiny_rbm(17)
        table, _ = enumerate_joint(rbm)
        for (v, h), p in table.items():
            npt.assert_allclose(prob_exact(rbm, np.array(v), np.array(h)), p,
                                rtol=1e-10)


class TestConditionals:
    def test_zero_params_are_half(self):
        rbm = Rbm.zeros(3, 2)
        npt.assert_array_equal(hidden_conditional(rbm, np.ones(3)),
                               np.full(2, 0.5))
        npt.assert_array_equal(visible_conditional(rbm, np.zeros(2)),
                               np.full(3, 0.5))

    def test_hidden_conditional_matches_bayes(self):
        rbm = tiny_rbm(19)
        table, _ = enumerate_joint(rbm)
        for v in itertools.product((0.0, 1.0), repeat=2):
            pv = sum(p for (vv, _), p in table.items() if vv == v)
            for j in range(2):
                pj = sum(p for (vv, hh), p in table.items()
                         if vv == v and hh[j] == 1.0)
                got = hidden_conditional(rbm, np.array(v))[j]
                npt.assert_allclose(got, pj / pv, rtol=1e-9)

    def test_visible_conditional_matches_bayes(self):
        rbm = tiny_rbm(23)
        table, _ = enumerate_joint(rbm)
        for h in itertools.product((0.0, 1.0), repeat=2):
            ph = sum(p for (_, hh), p in table.items() if hh == h)
            for i in range(2):
                pi = sum(p for (vv, hh), p in table.items()
                         if hh == h and vv[i] == 1.0)
                got = visible_conditional(rbm, np.array(h))[i]
                npt.assert_allclose(got, pi / ph, rtol=1e-9)

    def test_decoupled_unit_ignores_other_columns(self):
        # hidden unit 0 only connects to visible unit 0
        rbm = Rbm.zeros(2, 2)
        rbm.W[0, 0] = 1.3
        rbm.c[0] = -0.4
        for v1 in (0.0, 1.0):
            p = hidden_conditional(rbm, np.array([1.0, v1]))
            npt.assert_allclose(p[0], 1 / (1 + np.exp(-(1.3 - 0.4))),
                                rtol=1e-12)

    def test_batched_conditionals(self):
        rbm = tiny_rbm(29)
        batch = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        out = hidden_conditional(rbm, batch)
        assert out.shape == (3, 2)
        npt.assert_allclose(out[1], hidden_conditional(rbm, batch[1]),
                            atol=1e-15)


class TestExactLikelihood:
    def test_zero_model_uniform_likelihood(self):
        rbm = Rbm.zeros(3, 2)
        batch = np.array([[1.0, 0.0, 1.0]])
        npt.assert_allclose(log_likelihood_exact(rbm, batch),
                            -3 * np.log(2.0), atol=1e-12)

    def test_free_energy_consistent_with_joint(self):
        rbm = tiny_rbm(31)
        table, _ = enumerate_joint(rbm)
        for v in itertools.product((0.0, 1.0), repeat=2):
            pv = sum(p for (vv, _), p in table.items() if vv == v)
            ll = -free_energy(rbm, np.array(v)) - log_partition_exact(rbm)
            npt.assert_allclose(np.exp(ll), pv, rtol=1e-9)


class TestExactGradient:
    def finite_difference(self, rbm, batch, step=1e-5):
        g = {"b": np.zeros_like(rbm.b), "c": np.zeros_like(rbm.c),
             "W": np.zeros_like(rbm.W)}
        for name in g:
            arr = getattr(rbm, name)
            flat = g[name].reshape(-1)
            for idx in range(arr.size):
                orig = arr.reshape(-1)[idx]
                arr.reshape(-1)[idx] = orig + step
                up = log_likelihood_exact(rbm, batch)
                arr.reshape(-1)[idx] = orig - step
                down = log_likelihood_exact(rbm, batch)
                arr.reshape(-1)[idx] = orig
                flat[idx] = (up - down) / (2 * step)
        return g

    def test_matches_finite_differences(self):
        rbm = tiny_rbm(37, n_visible=3, n_hidden=2)
        rng = RngStream(41)
        batch = (rng.uniform(size=(6, 3)) < 0.5).astype(float)
        grad = log_likelihood_gradient_exact(rbm, batch)
        fd = self.finite_difference(rbm, batch)
        npt.assert_allclose(grad.db, fd["b"], atol=1e-8)
        npt.assert_allclose(grad.dc, fd["c"], atol=1e-8)
        npt.assert_allclose(grad.dW, fd["W"], atol=1e-8)

    def test_hidden_side_branch_matches_finite_differences(self):
        rbm = tiny_rbm(43, n_visible=4, n_hidden=2)
        batch = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
        grad = log_likelihood_gradient_exact(rbm, batch)
        fd = self.finite_difference(rbm, batch)
        npt.assert_allclose(grad.db, fd["b"], atol=1e-8)
        npt.assert_allclose(grad.dW, fd["W"], atol=1e-8)

    def test_zero_model_visible_gradient_is_marginal_gap(self):
        # model expectation is exactly 1/2 per visible unit
        rbm = Rbm.zeros(2, 2)
        batch = np.array([[0.0, 0.0]])
        grad = log_likelihood_gradient_exact(rbm, batch)
        npt.assert_allclose(grad.db, np.array([-0.5, -0.5]), atol=1e-12)
        npt.assert_allclose(grad.dc, np.zeros(2), atol=1e-12)

    def test_gradient_vanishes_at_optimum_direction(self):
        # ascent along the exact gradient must increase likelihood
        rbm = tiny_rbm(47)
        batch = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
        before = log_likelihood_exact(rbm, batch)
        grad = log_likelihood_gradient_exact(rbm, batch)
        rbm.b += 0.01 * grad.db
        rbm.c += 0.01 * grad.dc
        rbm.W += 0.01 * grad.dW
        assert log_likelihood_exact(rbm, batch) > before

    def test_fifty_ascent_steps_strictly_increase(self):
        for seed in (1, 2, 3):
            rbm = tiny_rbm(seed, n_visible=3, n_hidden=2, scale=0.3)
            rng = RngStream(seed + 100)
            batch = (rng.uniform(size=(8, 3)) < 0.6).astype(float)
            prev = log_likelihood_exact(rbm, batch)
            for _ in range(50):
                g = log_likelihood_gradient_exact(rbm, batch)
                rbm.b += 0.02 * g.db
                rbm.c += 0.02 * g.dc
                rbm.W += 0.02 * g.dW
                cur = log_likelihood_exact(rbm, batch)
                assert cur > prev
                prev = cur


class TestCdStep:
    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 4), n=st.integers(1, 40),
           n_visible=st.integers(1, 9), n_hidden=st.integers(1, 9),
           binary=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_chain(self, k, n, n_visible, n_hidden,
                                     binary, seed):
        rng = RngStream(seed)
        rbm = Rbm(rng.normal(size=n_visible), rng.normal(size=n_hidden),
                  rng.normal(sd=1.5, size=(n_visible, n_hidden)))
        batch = rng.uniform(size=(n, n_visible))
        if binary:
            batch = (batch < 0.5).astype(float)
        cfg = CdConfig(k=k)
        got, _ = cd_step(rbm, batch, cfg, rng.split(1))
        want = reference_cd_step(rbm, batch, cfg, rng.split(1))
        for name in ("db", "dc", "dW"):
            npt.assert_array_equal(getattr(got, name), getattr(want, name),
                                   err_msg=name)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 3), n=st.integers(1, 40),
           n_visible=st.integers(1, 9), n_hidden=st.integers(1, 9),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_activations_are_hidden_conditional_mean(
            self, k, n, n_visible, n_hidden, seed):
        rng = RngStream(seed)
        rbm = Rbm(rng.normal(size=n_visible), rng.normal(size=n_hidden),
                  rng.normal(sd=1.5, size=(n_visible, n_hidden)))
        batch = rng.uniform(size=(n, n_visible))
        _, h_mean = cd_step(rbm, batch, CdConfig(k=k), rng.split(1))
        npt.assert_array_equal(h_mean,
                               hidden_conditional(rbm, batch).mean(axis=0))

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 3), n=st.integers(1, 300),
           n_visible=st.integers(1, 24), n_hidden=st.integers(1, 20),
           binary=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_means_equal_np_mean_bit_for_bit(self, k, n, n_visible, n_hidden,
                                             binary, seed):
        # cd_step writes its batch means as sums over n; the reference
        # takes them with np.mean
        rng = RngStream(seed)
        rbm = Rbm(rng.normal(size=n_visible), rng.normal(size=n_hidden),
                  rng.normal(sd=1.5, size=(n_visible, n_hidden)))
        batch = rng.uniform(size=(n, n_visible))
        if binary:
            batch = (batch < 0.5).astype(float)
        cfg = CdConfig(k=k)
        got, h_mean = cd_step(rbm, batch, cfg, rng.split(1))
        want = reference_cd_step(rbm, batch, cfg, rng.split(1))
        assert h_mean.tobytes() == np.mean(hidden_conditional(rbm, batch),
                                           axis=0).tobytes()
        for name in ("db", "dc", "dW"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), name

    def test_deterministic_given_stream(self):
        rbm = tiny_rbm(53)
        batch = np.array([[1.0, 0.0], [0.0, 1.0]])
        cfg = CdConfig(k=3, learning_rate=0.1, batch_size=2)
        a, _ = cd_step(rbm, batch, cfg, RngStream(99))
        b, _ = cd_step(rbm, batch, cfg, RngStream(99))
        npt.assert_array_equal(a.db, b.db)
        npt.assert_array_equal(a.dc, b.dc)
        npt.assert_array_equal(a.dW, b.dW)

    def test_does_not_mutate_model(self):
        rbm = tiny_rbm(59)
        snapshot = rbm.copy()
        cd_step(rbm, np.array([[1.0, 1.0]]), CdConfig(), RngStream(1))
        npt.assert_array_equal(rbm.b, snapshot.b)
        npt.assert_array_equal(rbm.c, snapshot.c)
        npt.assert_array_equal(rbm.W, snapshot.W)

    def test_visible_bias_fixed_point_with_zero_weights(self):
        # with W = 0 and b at the data log-odds the chain cannot move the
        # visible marginals, so the bias gradient is exactly zero
        rng = RngStream(61)
        batch = (rng.uniform(size=(32, 3)) < np.array([0.25, 0.5, 0.75]))
        batch = batch.astype(float)
        m = batch.mean(axis=0)
        m = np.clip(m, 1e-6, 1 - 1e-6)
        rbm = Rbm(b=np.log(m / (1 - m)), c=rng.normal(size=2),
                  W=np.zeros((3, 2)))
        grad, _ = cd_step(rbm, batch, CdConfig(k=1), rng.split(0))
        npt.assert_allclose(grad.db, np.zeros(3), atol=1e-12)

    def test_small_gradient_at_model_samples(self):
        # train a tiny model exactly, then feed it its own samples: CD
        # should see (almost) nothing left to fix
        rbm = tiny_rbm(67, n_visible=3, n_hidden=2, scale=0.2)
        rng = RngStream(71)
        target = (rng.uniform(size=(12, 3)) < np.array([0.8, 0.3, 0.5]))
        target = target.astype(float)
        for _ in range(400):
            g = log_likelihood_gradient_exact(rbm, target)
            rbm.b += 0.2 * g.db
            rbm.c += 0.2 * g.dc
            rbm.W += 0.2 * g.dW
        # sample the trained model exactly by enumeration
        from oracles import all_states
        states = all_states(3)
        logw = -free_energy(rbm, states)
        p = np.exp(logw - np.max(logw))
        p /= p.sum()
        counts = np.floor(p * 4000).astype(int)
        sample = np.repeat(states, counts, axis=0)
        grad, _ = cd_step(rbm, sample, CdConfig(k=1), rng.split(1))
        assert grad.norm() < 0.05

    def test_k_steps_differ_from_one(self):
        rbm = tiny_rbm(73, scale=1.5)
        batch = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        g1, _ = cd_step(rbm, batch, CdConfig(k=1), RngStream(5))
        g5, _ = cd_step(rbm, batch, CdConfig(k=5), RngStream(5))
        assert not np.allclose(g1.dW, g5.dW)

    def test_accepts_probability_inputs(self):
        rbm = tiny_rbm(79)
        soft = np.array([[0.2, 0.9], [0.5, 0.5]])
        grad, _ = cd_step(rbm, soft, CdConfig(), RngStream(3))
        assert np.all(np.isfinite(grad.dW))

    def test_rejects_out_of_range_and_empty(self):
        rbm = tiny_rbm(83)
        with pytest.raises(ValueError):
            cd_step(rbm, np.array([[1.2, 0.0]]), CdConfig(), RngStream(0))
        with pytest.raises(ValueError):
            cd_step(rbm, np.zeros((0, 2)), CdConfig(), RngStream(0))
        with pytest.raises(DimensionError):
            cd_step(rbm, np.zeros((1, 3)), CdConfig(), RngStream(0))

    @pytest.mark.parametrize("batch", [[[np.nan, 0.5]], [[0.0, 1.0],
                                                         [1.0, np.nan]]])
    def test_rejects_nan_as_out_of_range(self, batch):
        # a NaN fails ``min() < 0 or max() > 1``, and surfaced as the
        # chain's sigmoid error
        message = r"^visible batch values must lie in \[0, 1\]$"
        with pytest.raises(ValueError, match=message):
            cd_step(tiny_rbm(83), np.array(batch), CdConfig(), RngStream(0))


class TestCdBuffers:
    """``cd_step`` through buffers kept across calls, against the
    reference and against fresh buffers."""

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 3), rows=st.integers(1, 40),
           cut=st.integers(0, 39),
           sizes=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                          min_size=2, max_size=2),
           binary=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_consecutive_steps_equal_reference_bit_for_bit(
            self, k, rows, cut, sizes, binary, seed):
        # two batches of one width, two after a width change, then a
        # short last batch, all through one buffers object; each result
        # is read before the next call overwrites it
        rng = RngStream(seed)
        cfg, buffers = CdConfig(k=k), CdBuffers()
        last = rows - cut % rows
        steps = [(sizes[0], rows)] * 2 + [(sizes[1], rows)] * 2 + [
            (sizes[1], last)]
        for n, ((i, j), n_rows) in enumerate(steps):
            draw = rng.split(n)
            rbm = Rbm(draw.normal(size=i), draw.normal(size=j),
                      draw.normal(sd=1.5, size=(i, j)))
            batch = draw.uniform(size=(n_rows, i))
            if binary:
                batch = (batch < 0.5).astype(float)
            got, h_mean = cd_step(rbm, batch, cfg, RngStream(seed + n),
                                  buffers)
            want = reference_cd_step(rbm, batch, cfg, RngStream(seed + n))
            assert buffers.shape == (n_rows, i, j, k)
            assert got is buffers.gradient
            assert h_mean.tobytes() == np.mean(
                hidden_conditional(rbm, batch), axis=0).tobytes()
            for name in ("db", "dc", "dW"):
                assert getattr(got, name).tobytes() == \
                    getattr(want, name).tobytes(), name

    def test_buffers_are_rebuilt_only_for_another_shape(self):
        rbm, wider = tiny_rbm(3, 3, 2), tiny_rbm(4, 3, 4)
        batch = np.full((5, 3), 0.5)
        buffers = CdBuffers()
        g, _ = cd_step(rbm, batch, CdConfig(k=2), RngStream(1), buffers)
        arrays = vars(buffers).copy()
        assert cd_step(rbm, batch[::-1], CdConfig(k=2), RngStream(2),
                       buffers)[0] is g
        assert all(getattr(buffers, name) is a for name, a in arrays.items())
        for model, rows, k in ((wider, 5, 2), (rbm, 4, 2), (rbm, 5, 1)):
            cd_step(model, batch[:rows], CdConfig(k=k), RngStream(3),
                    buffers)
            assert buffers.gradient is not g
            g = buffers.gradient

    def test_steps_without_buffers_do_not_alias(self):
        rbm = tiny_rbm(5, 3, 4)
        cfg = CdConfig(k=2)
        first = cd_step(rbm, np.full((6, 3), 0.25), cfg, RngStream(1))
        kept = [a.copy() for a in (first[0].buffer, first[1])]
        second = cd_step(rbm, np.full((6, 3), 0.75), cfg, RngStream(2))
        for a, b, before in zip((first[0].buffer, first[1]),
                                (second[0].buffer, second[1]), kept):
            assert not np.shares_memory(a, b)
            assert a.tobytes() == before.tobytes()


def saturating_layer(seed):
    """A recurrent layer of 1-6 visible and hidden units with weight sd 8,
    12 or 20, and its static part: some pre-activations of the CD chain
    pass 36.74, where bare ``expit`` rounds to 1, while all stay finite."""
    rng = RngStream(seed)
    layer = RnnRbm.random(1 + rng.integers(6), 1 + rng.integers(6),
                          rng.split(0), u_dim=1 + rng.integers(4),
                          weight_sd=(8.0, 12.0, 20.0)[seed % 3])
    return layer, Rbm(layer.b, layer.c, layer.W)


class TestGuardedChain:
    """The CD chain on bare ``expit`` with one range test, against
    :func:`reference_cd_chain` on the guarded sigmoid throughout, through
    both gradients that run it."""

    @staticmethod
    def gradients(seed):
        """``[(gradient, h_mean)]`` of a saturating layer's ``cd_step`` on
        one batch and ``bptt_gradients`` on one ragged batch."""
        layer, static = saturating_layer(seed)
        rng = RngStream(1000 + seed)
        cfg = CdConfig(k=1 + rng.integers(3))
        rows = (rng.uniform(size=(1 + rng.integers(20), layer.n_visible))
                < 0.5).astype(float)
        seqs = [rng.uniform(size=(t, layer.n_visible)) for t in (5, 2, 5)]
        return [cd_step(static, rows, cfg, RngStream(seed)),
                bptt_gradients(layer, seqs, cfg, RngStream(seed))]

    def test_rerun_equals_guarded_reference_bit_for_bit(self, monkeypatch):
        real, calls, reran = rbm_module.sigmoid, [], []

        def guarded(x, out=None):
            calls.append(1)
            return real(x, out)

        monkeypatch.setattr(rbm_module, "sigmoid", guarded)
        for seed in range(60):
            before = len(calls)
            got = self.gradients(seed)
            reran.append(len(calls) > before)
            with monkeypatch.context() as patch:
                for module in (rbm_module, rnn_rbm):
                    patch.setattr(module, "_cd_chain", reference_cd_chain)
                want = self.gradients(seed)
            for (g, h), (g_ref, h_ref) in zip(got, want):
                assert h.tobytes() == h_ref.tobytes()
                for name, arr in vars(g_ref).items():
                    assert getattr(g, name).tobytes() == arr.tobytes(), name
        # both paths run: some chains saturate and rerun, others do not
        assert 20 <= sum(reran) <= 50

    @pytest.mark.parametrize("fill", [1e308, -1e308])
    @pytest.mark.parametrize("family", ["cd_step", "bptt_gradients"])
    def test_non_finite_pre_activation_raises_the_guarded_error(
            self, monkeypatch, family, fill):
        # rows of ones overflow the hidden pre-activations to inf or -inf
        layer = RnnRbm.random(3, 2, RngStream(5), u_dim=2)
        layer.W[:] = fill
        rows = np.ones((4, 3))
        if family == "cd_step":
            def run():
                return cd_step(Rbm(layer.b, layer.c, layer.W), rows,
                               CdConfig(k=2), RngStream(6))
        else:
            def run():
                return bptt_gradients(layer, [rows, rows[:1]], CdConfig(k=2),
                                      RngStream(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match="^sigmoid: non-finite input$"):
                run()
            with monkeypatch.context() as patch:
                for module in (rbm_module, rnn_rbm):
                    patch.setattr(module, "_cd_chain", reference_cd_chain)
                with pytest.raises(FloatingPointError,
                                   match="^sigmoid: non-finite input$"):
                    run()


def gradient(sizes, recurrent, values=None):
    """A zero gradient of a ``sizes = (I, J, K)`` layer, its buffer set to
    ``values`` or to normal draws at scales from 1 to 1e6."""
    i, j, k = sizes
    model = RnnRbm.zeros(i, j, k) if recurrent else Rbm.zeros(i, j)
    g = (RnnRbmGradient if recurrent else RbmGradient).zeros(model)
    n = g.buffer.size
    g.buffer[...] = (RngStream(n).normal(size=n) * 10.0 ** (np.arange(n) % 7)
                     if values is None else values(n))
    return g


@st.composite
def gradients(draw):
    sizes = draw(st.tuples(st.integers(1, 24), st.integers(1, 12),
                           st.integers(1, 12)))
    values = st.floats(-1e150, 1e150, allow_subnormal=True)
    return gradient(sizes, draw(st.booleans()),
                    lambda n: draw(hnp.arrays(np.float64, n, elements=values)))


class TestGradientNorm:
    # numpy sums an array pairwise in blocks of 128 values: W of 24 x 12
    # spans three, and every field of a 1 x 1 layer holds one value
    @settings(max_examples=200, deadline=None)
    @given(g=gradients())
    @example(g=gradient((1, 1, 1), False))
    @example(g=gradient((1, 1, 1), True))
    @example(g=gradient((24, 12, 12), False))
    @example(g=gradient((24, 12, 12), True))
    def test_equals_per_field_sums_bit_for_bit(self, g):
        assert g.norm().hex() == reference_norm(g).hex()


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CdConfig(k=0)
        with pytest.raises(ValueError):
            CdConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            CdConfig(batch_size=0)

    def test_defaults(self):
        cfg = CdConfig()
        assert cfg.k == 1
        assert cfg.learning_rate == 0.01
        assert cfg.batch_size == 100
