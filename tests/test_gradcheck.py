"""Finite-difference harness: calibration cases and misuse detection."""

import numpy as np
import pytest

from panelcast.likelihood import gaussian_nll

from gradcheck import CheckError, finite_diff_check


class TestHarness:
    def test_quadratic_loss_exact(self):
        blocks = {"p": np.array([0.3, -1.2, 2.0])}

        def loss_fn(b):
            return 0.5 * float(np.sum(b["p"] ** 2)), {"p": b["p"].copy()}

        report = finite_diff_check(loss_fn, blocks, 1e-9)
        assert report.passed, str(report)
        assert report.max_error < 1e-9

    def test_gaussian_nll_head_on_three_points(self):
        z = np.array([0.5, -1.0, 2.5])
        blocks = {"mu": np.array([0.1, 0.2, -0.3]), "sigma": np.array([1.0, 0.7, 1.5])}

        def loss_fn(b):
            nll, dmu, dsig = gaussian_nll(z, b["mu"], b["sigma"])
            return float(np.sum(nll)), {"mu": dmu, "sigma": dsig}

        report = finite_diff_check(loss_fn, blocks, 1e-7)
        assert report.passed, str(report)

    def test_detects_wrong_gradient(self):
        blocks = {"p": np.array([1.0, 2.0])}

        def loss_fn(b):
            return float(np.sum(b["p"] ** 2)), {"p": b["p"].copy()}  # missing factor 2

        report = finite_diff_check(loss_fn, blocks, 1e-4)
        assert not report.passed
        assert report.per_block["p"] > 0.4

    def test_detects_sign_flip(self):
        blocks = {"p": np.array([0.7])}

        def loss_fn(b):
            return 0.5 * float(b["p"][0] ** 2), {"p": -b["p"].copy()}

        report = finite_diff_check(loss_fn, blocks, 1e-4)
        assert not report.passed

    def test_non_deterministic_loss_rejected(self):
        rng = np.random.default_rng(0)
        blocks = {"p": np.array([1.0])}

        def loss_fn(b):
            return float(b["p"][0] + rng.normal() * 1e-3), {"p": np.ones(1)}

        with pytest.raises(CheckError, match="deterministic"):
            finite_diff_check(loss_fn, blocks, 1e-4)

    def test_restores_parameters(self):
        blocks = {"p": np.array([1.0, -2.0])}
        snapshot = blocks["p"].copy()

        def loss_fn(b):
            return 0.5 * float(np.sum(b["p"] ** 2)), {"p": b["p"].copy()}

        finite_diff_check(loss_fn, blocks, 1e-9)
        assert np.array_equal(blocks["p"], snapshot)

    def test_report_is_per_block(self):
        blocks = {"good": np.array([1.0]), "bad": np.array([2.0])}

        def loss_fn(b):
            loss = 0.5 * float(b["good"][0] ** 2 + b["bad"][0] ** 2)
            return loss, {"good": b["good"].copy(), "bad": 3.0 * b["bad"]}

        report = finite_diff_check(loss_fn, blocks, 1e-6)
        assert report.per_block["good"] < 1e-8
        assert report.per_block["bad"] > 0.5
        assert "bad" in str(report) and "FAIL" in str(report)
