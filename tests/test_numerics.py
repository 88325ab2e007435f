"""Random streams and elementwise ops."""
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from growrbm import dbn
from growrbm.numerics import (_SIG_HI, _SIG_LO, RngStream, _logistic,
                              _unclamped, sigmoid)
from growrbm.rbm import CdConfig, Rbm, cd_step, hidden_conditional
from growrbm.rnn_dbn import (RnnDbn, _lift_sequences,
                             next_frame_predictions_deep, predict_next_deep)
from growrbm.rnn_rbm import (RnnRbm, bptt_gradients, mean_sequence_energy,
                             prediction_error)
from oracles import visible_conditional
from references import reference_logistic, sample_bernoulli

# both clamp ends, the tails of expit down to denormals and past them,
# tiny and denormal inputs, and ordinary values
EDGE_INPUTS = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, 36.0, 36.7, 37.0,
     38.0, 700.0, -700.0, -708.0, -708.4, -709.0, -720.0, -740.0, -744.4,
     -745.0, -746.0, 1e300, -1e300],
    np.linspace(-750.0, 750.0, 3001)])


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_one_matches_closed_form(self):
        npt.assert_allclose(sigmoid(1.0), 1.0 / (1.0 + math.exp(-1.0)),
                            rtol=0, atol=1e-15)

    def test_large_positive_close_to_one(self):
        assert sigmoid(50.0) > 1.0 - 1e-15

    def test_never_saturates_to_exact_bounds(self):
        lo = sigmoid(-1000.0)
        hi = sigmoid(1000.0)
        assert 0.0 < lo < 1.0
        assert 0.0 < hi < 1.0
        # logs must stay finite right at the clamp
        assert np.isfinite(np.log(lo))
        assert np.isfinite(np.log1p(-hi))

    def test_preserves_shape(self):
        out = sigmoid(np.zeros((3, 4)))
        assert out.shape == (3, 4)

    def test_rejects_non_finite(self):
        with pytest.raises(FloatingPointError):
            sigmoid(np.array([0.0, np.inf]))
        with pytest.raises(FloatingPointError):
            sigmoid(np.nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_non_finite_value_raises(self, bad):
        for x in (bad, np.array([0.5, bad]), np.full((2, 3), bad)):
            with pytest.raises(FloatingPointError,
                               match="sigmoid: non-finite input"):
                sigmoid(x)

    def test_equals_clipped_expit_bit_for_bit(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([EDGE_INPUTS, rng.normal(scale=300.0, size=2000)])
        want = np.clip(expit(x), _SIG_LO, _SIG_HI)
        for got, ref in ((sigmoid(x), want),
                         (sigmoid(x.reshape(-1, 8)), want.reshape(-1, 8))):
            assert got.dtype == np.float64 and got.shape == ref.shape
            npt.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
        for value in EDGE_INPUTS[:23]:
            got = sigmoid(value)
            assert isinstance(got, np.float64)
            assert got == np.clip(expit(value), _SIG_LO, _SIG_HI)

    def test_input_is_never_written(self):
        x = np.random.default_rng(8).normal(scale=400.0, size=(32, 24))
        before = x.copy()
        out = sigmoid(x)
        npt.assert_array_equal(x.view(np.uint64), before.view(np.uint64))
        assert not np.shares_memory(out, x)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_symmetry(self, x):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-12

    @given(st.floats(min_value=-30.0, max_value=29.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_monotone(self, x, dx):
        assert sigmoid(x + dx) > sigmoid(x)


# signed zeros, subnormals, both clamp ends (expit reaches 1 near 36.7
# and leaves the normal range near -708.4), overflowed and NaN inputs
LOGISTIC_INPUTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]),
    st.floats(min_value=36.0, max_value=37.5),
    st.floats(min_value=-709.5, max_value=-707.5),
    st.floats(min_value=707.5, max_value=709.5),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


class TestLogistic:
    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                     max_side=5),
                        elements=LOGISTIC_INPUTS),
           into=st.booleans())
    def test_equals_python_float_clamp_bit_for_bit(self, x, into):
        before = x.copy()
        outs = [np.empty_like(x), np.empty_like(x)] if into else [None, None]
        got, want = _logistic(x, outs[0]), reference_logistic(x, outs[1])
        assert got.dtype == want.dtype and got.shape == want.shape == x.shape
        npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        npt.assert_array_equal(x.view(np.uint64), before.view(np.uint64))
        if into:
            assert got is outs[0]


class TestSigmoidInto:
    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                     max_side=5),
                        elements=LOGISTIC_INPUTS),
           in_place=st.booleans())
    def test_equals_sigmoid_or_writes_nothing(self, x, in_place):
        # ``out`` is ``x`` itself or a separate array; a non-finite input
        # raises before either is written
        before = x.copy()
        out = x if in_place else np.full_like(x, 0.25)
        kept = out.copy()
        if np.isfinite(before).all():
            want = np.asarray(sigmoid(before))
            got = sigmoid(x, out=out)
            assert got is out
            npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            if not in_place:
                npt.assert_array_equal(x.view(np.uint64),
                                       before.view(np.uint64))
        else:
            with pytest.raises(FloatingPointError,
                               match="^sigmoid: non-finite input$"):
                sigmoid(x, out=out)
            npt.assert_array_equal(out.view(np.uint64), kept.view(np.uint64))
            npt.assert_array_equal(x.view(np.uint64), before.view(np.uint64))


class TestUnclamped:
    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                     min_side=0, max_side=5),
                        elements=LOGISTIC_INPUTS))
    def test_accepts_expit_exactly_where_the_clamp_changes_nothing(self, x):
        # the inputs straddle 36.7368, where expit rounds to 1, and
        # -708.396, below which it drops under tiny
        bare = np.asarray(expit(x))
        same = (bare.view(np.uint64) == _logistic(x).view(np.uint64)).all()
        assert _unclamped(bare) == (same and not np.isnan(bare).any())


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(12345)
        b = RngStream(12345)
        npt.assert_array_equal(a.uniform(size=100), b.uniform(size=100))
        npt.assert_array_equal(a.normal(size=50), b.normal(size=50))
        npt.assert_array_equal(a.permutation(20), b.permutation(20))

    def test_different_seeds_differ(self):
        a = RngStream(1).uniform(size=100)
        b = RngStream(2).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_split_is_pure(self):
        root = RngStream(7)
        first = root.split(3).uniform(size=10)
        root.uniform(size=1000)  # consuming draws must not move children
        second = root.split(3).uniform(size=10)
        npt.assert_array_equal(first, second)

    def test_split_children_distinct(self):
        root = RngStream(7)
        keys = {root.split(i).key for i in range(1000)}
        assert len(keys) == 1000
        a = root.split(0).uniform(size=50)
        b = root.split(1).uniform(size=50)
        assert not np.array_equal(a, b)

    def test_split_rejects_negative(self):
        with pytest.raises(ValueError):
            RngStream(0).split(-1)

    def test_child_differs_from_parent(self):
        root = RngStream(42)
        child = root.split(0)
        assert not np.array_equal(RngStream(42).uniform(size=50),
                                  child.uniform(size=50))


def draw(stream, kind):
    """One draw of each kind a stream serves, as an array."""
    if kind == "uniform":
        return stream.uniform(size=5)
    if kind == "normal":
        return stream.normal(sd=2.0, size=3)
    if kind == "integers":
        return np.array([stream.integers(7), stream.integers(2 ** 40)])
    return stream.permutation(6)


KINDS = ("uniform", "normal", "integers", "permutation")


class TestSplitInto:
    """Re-keying a stream in place against a fresh split."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=0, max_value=2 ** 40),
           st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.lists(st.sampled_from(KINDS), max_size=6),
           st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
    def test_draws_equal_fresh_split(self, seed, index, child_seed, before,
                                     after):
        root = RngStream(seed)
        child = RngStream(child_seed)
        for kind in before:
            draw(child, kind)
        assert root.split_into(index, child) is child
        fresh = root.split(index)
        assert child.key == fresh.key
        for kind in after:
            npt.assert_array_equal(draw(child, kind), draw(fresh, kind),
                                   err_msg=kind)

    def test_clears_a_buffered_half_word(self):
        # a bounded draw below 2**32 takes half a word and buffers the
        # other half; a fresh split has nothing buffered
        root, child = RngStream(5), RngStream(6)
        child.integers(7)
        assert child._gen.bit_generator.state["has_uint32"] == 1
        root.split_into(3, child)
        state = child._gen.bit_generator.state
        fresh = root.split(3)._gen.bit_generator.state
        assert state.keys() == fresh.keys()
        for name in ("buffer_pos", "has_uint32", "uinteger"):
            assert state[name] == fresh[name], name
        npt.assert_array_equal(state["buffer"], fresh["buffer"])
        for name in ("counter", "key"):
            npt.assert_array_equal(state["state"][name], fresh["state"][name])
        assert child.integers(7) == root.split(3).integers(7)

    def test_does_not_advance_parent(self):
        root = RngStream(8)
        root.split_into(4, RngStream(0))
        npt.assert_array_equal(root.uniform(size=20),
                               RngStream(8).uniform(size=20))

    def test_rejects_negative_index(self):
        child = RngStream(11)
        with pytest.raises(ValueError):
            RngStream(0).split_into(-1, child)
        assert child.key == 11


class TestSampleBernoulli:
    def test_extremes_are_exact(self):
        rng = RngStream(0)
        npt.assert_array_equal(sample_bernoulli(np.zeros(1000), rng),
                               np.zeros(1000))
        npt.assert_array_equal(sample_bernoulli(np.ones(1000), rng),
                               np.ones(1000))

    def test_values_are_binary_floats(self):
        rng = RngStream(1)
        out = sample_bernoulli(np.full(500, 0.3), rng)
        assert out.dtype == np.float64
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_mean_matches_probability(self):
        rng = RngStream(2)
        out = sample_bernoulli(np.full(20000, 0.5), rng)
        assert abs(out.mean() - 0.5) < 0.02

    def test_empty_input(self):
        rng = RngStream(3)
        out = sample_bernoulli(np.zeros((0, 4)), rng)
        assert out.shape == (0, 4)

    def test_deterministic_given_seed(self):
        p = np.linspace(0.1, 0.9, 64).reshape(8, 8)
        a = sample_bernoulli(p, RngStream(9))
        b = sample_bernoulli(p, RngStream(9))
        npt.assert_array_equal(a, b)

    def test_rejects_out_of_range(self):
        rng = RngStream(4)
        with pytest.raises(ValueError):
            sample_bernoulli(np.array([0.5, 1.5]), rng)
        with pytest.raises(ValueError):
            sample_bernoulli(np.array([-0.1]), rng)

    @pytest.mark.parametrize("p", [[np.nan, 0.5], [0.5, np.nan], [np.nan]],
                             ids=["first", "last", "alone"])
    def test_rejects_nan(self, p):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            sample_bernoulli(np.array(p), RngStream(1))


def _huge_static():
    rbm = Rbm.zeros(3, 2)
    rbm.W[:] = 1e308
    return rbm


def _huge_lower_stack():
    """A 2-layer stack whose lower layer's hidden pass overflows."""
    lower = RnnRbm.random(3, 2, RngStream(5), u_dim=2)
    lower.W[:] = 1e308
    return RnnDbn(layers=[lower, RnnRbm.random(2, 2, RngStream(6))])


def _huge_temporal_bias():
    """A recurrent layer whose visible biases are finite but whose
    energy sum overflows."""
    model = RnnRbm.random(3, 2, RngStream(5), u_dim=2)
    model.w_uv[:] = 1e308
    return model


ONES = np.ones((4, 3))
# each call computes a product that overflows and reads it through the
# guarded sigmoid, or sums one into an energy; numpy's overflow warning
# would only repeat the error
GUARDED_CALLS = {
    "cd_step": lambda: cd_step(_huge_static(), ONES, CdConfig(k=1),
                               RngStream(1)),
    "hidden_conditional": lambda: hidden_conditional(_huge_static(), ONES),
    "visible_conditional": lambda: visible_conditional(_huge_static(),
                                                       np.ones(2)),
    "epoch metrics": lambda: dbn._EpochFrames(ONES).metrics(_huge_static()),
    "bptt_gradients": lambda: bptt_gradients(
        _huge_lower_stack().layers[0], [ONES], CdConfig(k=1), RngStream(1)),
    "prediction_error": lambda: prediction_error(
        _huge_lower_stack().layers[0], [ONES]),
    "stack lift": lambda: _lift_sequences(_huge_lower_stack().layers[0],
                                          [ONES]),
    "predict_next_deep": lambda: predict_next_deep(_huge_lower_stack(), ONES),
    "next_frame_predictions_deep": lambda: next_frame_predictions_deep(
        _huge_lower_stack(), ONES),
    "mean_sequence_energy": lambda: mean_sequence_energy(
        _huge_temporal_bias(), [ONES[:3]]),
}
# the error of a call that is not the guarded sigmoid's
GUARDED_ERRORS = {
    "mean_sequence_energy": "mean_sequence_energy: non-finite energy"}


class TestGuardedPasses:
    @pytest.mark.parametrize("call", sorted(GUARDED_CALLS))
    def test_overflow_raises_without_warning(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            error = GUARDED_ERRORS.get(call, "sigmoid: non-finite input")
            with pytest.raises(FloatingPointError, match=f"^{error}$"):
                GUARDED_CALLS[call]()
