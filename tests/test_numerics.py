"""Random streams and elementwise ops."""
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from growrbm.numerics import (RngStream, philox4x64, sample_bernoulli,
                              sigmoid, uniforms_from_words)


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

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_symmetry(self, x):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-12

    @given(st.floats(min_value=-30.0, max_value=29.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_monotone(self, x, dx):
        assert sigmoid(x + dx) > sigmoid(x)


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


class TestFrameUniforms:
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                              st.integers(min_value=0, max_value=6)),
                    max_size=5),
           st.integers(min_value=0, max_value=11))
    def test_rows_equal_child_streams_exactly(self, seed, requests, width):
        root = RngStream(seed)
        splits = [s for s, _ in requests]
        lengths = [n for _, n in requests]
        rows = root.frame_uniforms(splits, lengths, width)
        assert rows.shape == (sum(lengths), width)
        expected = [root.split(s).split(t).uniform(size=width)
                    for s, n in requests for t in range(n)]
        npt.assert_array_equal(rows, np.reshape(expected, rows.shape))

    def test_rows_continue_like_successive_draws(self):
        # a frame's CD chain draws J, then I, then J uniforms from one
        # child stream; one row of width 2J + I must hold them in order
        root = RngStream(31)
        rows = root.frame_uniforms([2, 0], [5, 3], 3 + 5 + 3)
        frames = [(2, t) for t in range(5)] + [(0, t) for t in range(3)]
        for row, (s, t) in zip(rows, frames):
            child = root.split(s).split(t)
            parts = [child.uniform(size=(1, 3)), child.uniform(size=(1, 5)),
                     child.uniform(size=(1, 3))]
            npt.assert_array_equal(row, np.concatenate(parts, axis=1)[0])

    def test_does_not_advance_parent(self):
        a = RngStream(8)
        a.frame_uniforms([0, 1], [4, 2], 6)
        npt.assert_array_equal(a.uniform(size=20), RngStream(8).uniform(size=20))

    def test_rejects_negative_and_mismatched(self):
        with pytest.raises(ValueError):
            RngStream(0).frame_uniforms([-1], [2], 3)
        with pytest.raises(ValueError):
            RngStream(0).frame_uniforms([1], [-2], 3)
        with pytest.raises(ValueError):
            RngStream(0).frame_uniforms([1, 2], [2], 3)


class TestPhilox4x64:
    """The array kernel against ``np.random.Philox`` itself."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0, 2 ** 64 - 1]),
                              st.integers(min_value=0, max_value=2 ** 64 - 1)),
                    min_size=1, max_size=40),
           st.integers(min_value=0, max_value=17))
    def test_words_and_doubles_match_numpy(self, keys, width):
        words = philox4x64(np.array(keys, dtype=np.uint64), width)
        doubles = uniforms_from_words(words)
        assert words.shape == doubles.shape == (len(keys), width)
        assert words.dtype == np.uint64
        for k, row_words, row_doubles in zip(keys, words, doubles):
            npt.assert_array_equal(
                row_words, np.random.Philox(key=k).random_raw(width))
            npt.assert_array_equal(
                row_doubles,
                np.random.Generator(np.random.Philox(key=k)).random(width))

    def test_no_keys(self):
        assert philox4x64(np.zeros(0, dtype=np.uint64), 5).shape == (0, 5)


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
