"""softplus / sigmoid / lgamma / digamma against stdlib and scipy oracles."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from panelcast.special import digamma, lgamma, sigmoid, softplus


class TestSoftplus:
    def test_zero_is_log_two(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_input_asymptote(self):
        assert softplus(100.0) == pytest.approx(100.0, abs=1e-12)

    def test_negative_five(self):
        # log(1 + e^-5) evaluated at high precision
        assert softplus(-5.0) == pytest.approx(0.006715348489118068, rel=1e-12)

    def test_very_negative_underflows_to_zero_gracefully(self):
        assert softplus(-800.0) >= 0.0
        assert softplus(-800.0) == pytest.approx(0.0, abs=1e-300)

    def test_vectorized(self):
        x = np.array([-2.0, 0.0, 3.0])
        out = softplus(x)
        assert out.shape == (3,)
        for xi, oi in zip(x, out):
            assert oi == pytest.approx(math.log1p(math.exp(xi)), rel=1e-14)

    @given(st.floats(min_value=-700, max_value=700))
    @settings(max_examples=200, deadline=None)
    def test_positive_and_bounded_above_max(self, x):
        y = float(softplus(x))
        assert y > 0.0 or (y == 0.0 and x < -700)
        # softplus(x) - max(x, 0) = log(1 + e^{-|x|}) <= log 2
        assert y - max(x, 0.0) <= math.log(2.0) + 1e-12

    @given(st.floats(min_value=-50, max_value=50), st.floats(min_value=1e-3, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, x, dx):
        assert softplus(x + dx) > softplus(x)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(min_value=-500, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_range_and_symmetry(self, x):
        y = float(sigmoid(x))
        assert 0.0 <= y <= 1.0
        assert y + float(sigmoid(-x)) == pytest.approx(1.0, abs=1e-12)


class TestLgamma:
    def test_at_one(self):
        assert lgamma(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_at_half(self):
        assert lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-10)
        assert lgamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-10)

    @given(st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib(self, x):
        assert lgamma(x) == pytest.approx(math.lgamma(x), rel=1e-10, abs=1e-10)

    @given(st.floats(min_value=1e-2, max_value=1e4))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_identity(self, x):
        # lgamma(x+1) - lgamma(x) = log x
        assert lgamma(x + 1.0) - lgamma(x) == pytest.approx(math.log(x), rel=1e-10, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lgamma(0.0)
        with pytest.raises(ValueError):
            lgamma(-3.5)


class TestDigamma:
    def test_at_one_is_minus_euler_gamma(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, rel=1e-10)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(-1.9635100260214235, rel=1e-10)

    @given(st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, x):
        assert digamma(x) == pytest.approx(float(sp.digamma(x)), rel=1e-10, abs=1e-10)

    @given(st.floats(min_value=1e-2, max_value=1e4))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_identity(self, x):
        # psi(x+1) = psi(x) + 1/x
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-9, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.0)


@pytest.mark.parametrize("fn", [softplus, sigmoid, lgamma, digamma], ids=lambda f: f.__name__)
def test_zero_d_input_gives_array_bits(fn):
    # A float or a 0-d array gives a 0-d float64 ndarray, whose bits are
    # its entry's in an array evaluation: one path serves both.
    x = np.array([1e-300, 1e-3, 0.3, 0.5, 1.0, 2.5, 5.999, 6.0, 37.0, 1e6, 1e100])
    if fn in (softplus, sigmoid):
        x = np.concatenate((-x, [0.0], x))
    whole = fn(x)
    for xi, want in zip(x.tolist(), whole):
        for arg in (xi, np.array(xi)):
            got = fn(arg)
            assert type(got) is np.ndarray and got.shape == () and got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), xi
