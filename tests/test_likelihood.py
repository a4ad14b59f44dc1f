"""Likelihood NLLs, gradients, scale-aware heads, and samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelcast.errors import ConfigError
from panelcast.likelihood import (
    PARAM_FLOOR,
    HeadParams,
    LikelihoodKind,
    apply_heads,
    draw,
    gaussian_nll,
    heads_backward,
    negbin_nll,
    nll_and_grads,
    nll_only,
)
from panelcast.lstm import _padded
from panelcast.rng import RowKeys

from conftest import pcg64
from gradcheck import finite_diff_check


class TestGaussianNll:
    def test_standard_normal_at_mode(self):
        nll, dmu, dsig = gaussian_nll(0.0, 0.0, 1.0)
        assert nll == pytest.approx(0.9189385332046727, rel=1e-12)  # log sqrt(2 pi)
        assert dmu == pytest.approx(0.0, abs=1e-15)

    def test_unit_offset(self):
        nll, dmu, dsig = gaussian_nll(0.0, 1.0, 1.0)
        assert nll == pytest.approx(1.4189385332046727, rel=1e-12)
        assert dmu == pytest.approx(1.0, rel=1e-12)

    def test_gradient_formulas(self):
        z, mu, sigma = 2.0, 0.5, 1.5
        nll, dmu, dsig = gaussian_nll(z, mu, sigma)
        assert dmu == pytest.approx((mu - z) / sigma**2, rel=1e-12)
        assert dsig == pytest.approx(1 / sigma - (z - mu) ** 2 / sigma**3, rel=1e-12)

    def test_sigma_domain_error(self):
        with pytest.raises(ConfigError):
            gaussian_nll(0.0, 0.0, 0.0)
        with pytest.raises(ConfigError):
            gaussian_nll(0.0, 0.0, -1.0)

    def test_gradients_vs_finite_differences_20_points(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = float(rng.normal(0, 3))
            blocks = {
                "mu": np.array([rng.normal(0, 2)]),
                "sigma": np.array([rng.uniform(0.3, 3.0)]),
            }

            def loss_fn(b):
                nll, dmu, dsig = gaussian_nll(z, b["mu"][0], b["sigma"][0])
                return float(nll), {"mu": np.array([dmu]), "sigma": np.array([dsig])}

            report = finite_diff_check(loss_fn, blocks, 1e-7)
            assert report.passed, str(report)


class TestNegBinNll:
    def test_zero_count_unit_params(self):
        nll, dmu, dalpha = negbin_nll(0.0, 1.0, 1.0)
        assert math.exp(-nll) == pytest.approx(0.5, rel=1e-12)
        assert nll == pytest.approx(math.log(2.0), rel=1e-12)

    def test_one_count_unit_params(self):
        nll, _, _ = negbin_nll(1.0, 1.0, 1.0)
        assert math.exp(-nll) == pytest.approx(0.25, rel=1e-12)
        assert nll == pytest.approx(1.3862943611198906, rel=1e-9)

    def test_poisson_limit(self):
        nll, _, _ = negbin_nll(2.0, 2.0, 1e-8)
        poisson_mass = math.exp(-2.0) * 2.0**2 / 2.0
        assert math.exp(-nll) == pytest.approx(poisson_mass, abs=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            negbin_nll(1.5, 1.0, 1.0)  # non-integer count
        with pytest.raises(ConfigError):
            negbin_nll(-1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            negbin_nll(1.0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            negbin_nll(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("mu", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    def test_mass_sums_to_one(self, mu, alpha):
        total = math.fsum(
            math.exp(-negbin_nll(float(z), mu, alpha)[0]) for z in range(501)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = float(rng.integers(0, 30))
            blocks = {
                "mu": np.array([rng.uniform(0.2, 15.0)]),
                "alpha": np.array([rng.uniform(0.05, 2.0)]),
            }

            def loss_fn(b):
                nll, dmu, dalpha = negbin_nll(z, b["mu"][0], b["alpha"][0])
                return float(nll), {"mu": np.array([dmu]), "alpha": np.array([dalpha])}

            report = finite_diff_check(loss_fn, blocks, 1e-6)
            assert report.passed, str(report)

    @given(
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.01, max_value=3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_nll_finite_and_mass_at_most_one(self, z, mu, alpha):
        nll, dmu, dalpha = negbin_nll(float(z), mu, alpha)
        assert math.isfinite(nll) and math.isfinite(dmu) and math.isfinite(dalpha)
        assert nll >= -1e-12  # a single probability mass never exceeds 1


class TestNllOnly:
    # Validation scores with nll_only, training with nll_and_grads: both
    # evaluate one expression, so their NLL terms agree bit for bit.

    @pytest.mark.parametrize("kind", list(LikelihoodKind))
    def test_equals_nll_and_grads_nll_bitwise(self, kind):
        gen = pcg64(31, kind.value)
        n = 4000
        z = np.floor(gen.lognormal(1.0, 2.0, n))
        mu = gen.lognormal(0.0, 3.0, n)
        disp = gen.lognormal(-1.0, 2.0, n)
        # extremes whose terms overflow or lose all precision
        z[:3], mu[:3], disp[:3] = (0.0, 1e300, 2.0**53), (1e-300, 1e300, 1.0), (1e300, 1e-6, 1e-300)
        with np.errstate(all="ignore"):
            want = nll_and_grads(z, mu, disp, kind)[0]
            got = nll_only(z, mu, disp, kind)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert nll_only(3.0, 2.5, 0.7, kind) == nll_and_grads(3.0, 2.5, 0.7, kind)[0]

    @pytest.mark.parametrize("kind", list(LikelihoodKind))
    def test_domain_checked_as_with_grads(self, kind):
        with pytest.raises(ConfigError):
            nll_only(1.0, 1.0, 0.0, kind)


def make_heads(hidden, w_mu=None, b_mu=0.0, w_disp=None, b_disp=0.0):
    return HeadParams(
        np.zeros(hidden) if w_mu is None else np.asarray(w_mu, dtype=np.float64),
        np.array(float(b_mu)),
        np.zeros(hidden) if w_disp is None else np.asarray(w_disp, dtype=np.float64),
        np.array(float(b_disp)),
    )


def random_heads(hidden, gen):
    """w_mu then w_disp uniform within +-1/sqrt(hidden) from gen."""
    w_mu, w_disp = (gen.random((2, hidden)) * 2.0 - 1.0) * (1.0 / np.sqrt(hidden))
    return make_heads(hidden, w_mu=w_mu, w_disp=w_disp)


class TestApplyHeads:
    # h is feature-major, (H, rows), as the LSTM stores it.
    def test_negbin_mu_is_scaled_softplus(self):
        heads = make_heads(3)
        h = np.zeros((3, 1))
        mu, disp, _ = apply_heads(h, heads, np.array([1.0]), LikelihoodKind.NEG_BINOMIAL)
        assert mu[0] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_negbin_alpha_shrinks_with_sqrt_scale(self):
        heads = make_heads(3)
        h = np.zeros((3, 1))
        mu, disp, _ = apply_heads(h, heads, np.array([4.0]), LikelihoodKind.NEG_BINOMIAL)
        assert disp[0] == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
        assert mu[0] == pytest.approx(4.0 * math.log(2.0), rel=1e-12)

    def test_gaussian_zero_heads(self):
        heads = make_heads(4)
        h = np.ones((4, 1))
        mu, disp, _ = apply_heads(h, heads, np.array([1.0]), LikelihoodKind.GAUSSIAN)
        assert mu[0] == pytest.approx(0.0, abs=1e-15)
        assert disp[0] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gaussian_scale_multiplies_both(self):
        heads = make_heads(2, w_mu=[1.0, 0.0], b_mu=0.5)
        h = np.array([[2.0], [-1.0]])
        nu = np.array([3.0])
        mu, disp, _ = apply_heads(h, heads, nu, LikelihoodKind.GAUSSIAN)
        assert mu[0] == pytest.approx(3.0 * 2.5, rel=1e-12)
        assert disp[0] == pytest.approx(3.0 * math.log(2.0), rel=1e-12)

    def test_floor_keeps_parameters_positive(self):
        heads = make_heads(2, b_disp=-500.0)  # softplus underflows to 0
        h = np.zeros((2, 1))
        _, disp_g, _ = apply_heads(h, heads, np.array([1.0]), LikelihoodKind.GAUSSIAN)
        mu_nb, disp_nb, _ = apply_heads(
            h, make_heads(2, b_mu=-500.0, b_disp=-500.0), np.array([1.0]),
            LikelihoodKind.NEG_BINOMIAL,
        )
        assert disp_g[0] >= PARAM_FLOOR
        assert mu_nb[0] >= PARAM_FLOOR
        assert disp_nb[0] >= PARAM_FLOOR

    @pytest.mark.parametrize("kind", [LikelihoodKind.GAUSSIAN, LikelihoodKind.NEG_BINOMIAL])
    def test_outputs_in_domain_random(self, kind):
        heads = random_heads(6, pcg64(5, "heads"))
        rng = np.random.default_rng(2)
        h = rng.normal(size=(8, 6)).T * 3
        nu = 1.0 + rng.uniform(0, 50, size=8)
        mu, disp, _ = apply_heads(h, heads, nu, kind)
        assert np.all(disp > 0)
        if kind is LikelihoodKind.NEG_BINOMIAL:
            assert np.all(mu > 0)

    @pytest.mark.parametrize("kind", [LikelihoodKind.GAUSSIAN, LikelihoodKind.NEG_BINOMIAL])
    def test_rows_independent_of_batch(self, kind):
        # On columns padded as the LSTM pads them, a row's parameters have
        # the same bits whatever the number of rows beside it: the (2, H)
        # product, unlike a reduction along the features, does not round
        # a one-column block differently. So too over a float32 top, as a
        # forecast's slab holds it, which the heads read upcast.
        gen = pcg64(13, "heads-rows", kind.value)
        for hidden, dtype in ((7, np.float64), (40, np.float64), (7, np.float32),
                              (40, np.float32)):
            heads = random_heads(hidden, gen)
            heads.b_mu[...], heads.b_disp[...] = 0.3, -0.2
            rows = gen.normal(size=(hidden, 400))
            nu = 1.0 + gen.random(400) * 50.0

            def run(n):
                h = np.zeros((hidden, _padded(n, dtype)), dtype)
                h[:, :n] = rows[:, :n]
                return apply_heads(h, heads, nu[:n], kind)[:2]

            mu_full, disp_full = run(400)
            for n in (1, 7, 8, 9, 16, 17, 64, 203):
                mu, disp = run(n)
                msg = f"{hidden} units, {n} rows, {np.dtype(dtype)} top"
                np.testing.assert_array_equal(mu, mu_full[:n], err_msg=msg)
                np.testing.assert_array_equal(disp, disp_full[:n], err_msg=msg)

    def test_heads_backward_vs_finite_differences(self):
        for kind in (LikelihoodKind.GAUSSIAN, LikelihoodKind.NEG_BINOMIAL):
            heads = random_heads(4, pcg64(9, "hb", kind.value))
            rng = np.random.default_rng(3)
            h = rng.normal(size=(3, 4)).T.copy()
            nu = np.array([1.0, 2.5, 7.0])
            z = (
                np.array([1.0, 4.0, 0.0])
                if kind is LikelihoodKind.NEG_BINOMIAL
                else np.array([0.3, -2.0, 5.5])
            )
            blocks = {
                "w_mu": heads.w_mu, "b_mu": heads.b_mu,
                "w_disp": heads.w_disp, "b_disp": heads.b_disp,
                "h": h,
            }

            def loss_fn(b):
                from panelcast.likelihood import nll_and_grads

                mu, disp, cache = apply_heads(b["h"], heads, nu, kind)
                nll, dmu, ddisp = nll_and_grads(z, mu, disp, kind)
                d_h, grads = heads_backward(dmu, ddisp, cache, heads, kind)
                grads["h"] = d_h
                return float(math.fsum(np.atleast_1d(nll).tolist())), grads

            report = finite_diff_check(loss_fn, blocks, 1e-6)
            assert report.passed, f"{kind.value}: {report}"


def _keys(seed, tag, n):
    return RowKeys.for_series(seed, tag, ["s"] * n, np.arange(n))


class TestSample:
    def test_gaussian_degenerate_sigma(self):
        draws = draw(LikelihoodKind.GAUSSIAN, 4.2, 1e-12, _keys(0, "deg", 10), 0)
        assert all(d == pytest.approx(4.2, abs=1e-9) for d in draws)

    def test_negbin_counts_are_integers(self):
        draws = draw(LikelihoodKind.NEG_BINOMIAL, 5.0, 0.5, _keys(1, "nb", 500), 0)
        assert np.all(draws >= 0)
        assert np.array_equal(draws, np.round(draws))

    def test_fixed_seed_reproducible(self):
        kind = LikelihoodKind.GAUSSIAN
        seq1 = [draw(kind, 0.0, 1.0, _keys(3, "rep", 20), t) for t in range(3)]
        seq2 = [draw(kind, 0.0, 1.0, _keys(3, "rep", 20), t) for t in range(3)]
        assert all(np.array_equal(a, b) for a, b in zip(seq1, seq2))
        assert not np.array_equal(seq1[0], seq1[1])
