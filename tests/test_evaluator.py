"""Tests for evaluation metrics: quantile loss and rho-risk, ND/RMSE,
coverage, the seasonal-naive reference, truth alignment, report
formatting, and rolling backtests."""

import json
from datetime import datetime, timedelta

import numpy as np
import pytest

from conftest import START, make_series, seasonal_naive, shuffle_paths, tiny_model
from panelcast.dataset import Panel
from panelcast.errors import ConfigError, MetricError
from panelcast.evaluator import (
    EvalPair,
    all_k_risk,
    align,
    coverage,
    evaluate,
    nd_rmse,
    quantile_loss,
    rho_risk,
    rolling_backtest,
)
from panelcast.forecaster import ForecastRecord, forecast_panel, record_from_samples
from panelcast.rng import derive_seed

# ---------------------------------------------------------------------------
# quantile loss and rho-risk
# ---------------------------------------------------------------------------


def test_quantile_loss_examples():
    assert quantile_loss(10.0, 10.0, 0.5) == 0.0
    assert quantile_loss(10.0, 10.0, 0.9) == 0.0
    # overshoot of 2 at rho=0.9 costs 2*2*0.9
    assert quantile_loss(10.0, 12.0, 0.9) == pytest.approx(3.6)
    # undershoot of 2 at rho=0.9 costs 2*2*0.1
    assert quantile_loss(10.0, 8.0, 0.9) == pytest.approx(0.4)
    # at rho=0.5 it is the absolute error
    assert quantile_loss(3.0, 7.0, 0.5) == pytest.approx(4.0)
    assert quantile_loss(7.0, 3.0, 0.5) == pytest.approx(4.0)


def test_quantile_loss_is_non_negative():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z, z_hat = rng.normal(0, 10, size=2)
        rho = rng.uniform(0.01, 0.99)
        assert quantile_loss(z, z_hat, rho) >= 0.0


def test_quantile_loss_level_validation():
    for rho in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(MetricError):
            quantile_loss(1.0, 1.0, rho)


def _pair(sid, quant, truth, samples=None, start=START):
    """Assemble an EvalPair directly from quantile arrays."""
    rec = ForecastRecord(
        sid,
        start,
        {float(k): np.asarray(v, dtype=np.float64) for k, v in quant.items()},
        num_samples=0 if samples is None else len(samples),
        seed=0,
        samples=None if samples is None else np.asarray(samples, dtype=np.float64),
    )
    return EvalPair(rec, np.asarray(truth, dtype=np.float64))


def test_rho_risk_single_pair_example():
    pairs = [_pair("a", {0.9: [12.0]}, [10.0])]
    assert rho_risk(pairs, 0, 1, 0.9) == pytest.approx(0.36)


def test_rho_risk_perfect_forecast_is_zero():
    pairs = [
        _pair("a", {0.5: [3.0, 4.0]}, [3.0, 4.0]),
        _pair("b", {0.5: [1.0, 2.0]}, [1.0, 2.0]),
    ]
    assert rho_risk(pairs, 0, 1, 0.5) == 0.0
    assert rho_risk(pairs, 1, 1, 0.5) == 0.0


def test_rho_risk_zero_truth_rejected():
    pairs = [_pair("a", {0.5: [1.0]}, [0.0])]
    with pytest.raises(MetricError, match="sums to 0"):
        rho_risk(pairs, 0, 1, 0.5)


def test_rho_risk_pools_across_series():
    pairs = [
        _pair("a", {0.5: [4.0]}, [5.0]),  # loss 2*1*0.5 = 1
        _pair("b", {0.5: [9.0]}, [5.0]),  # loss 2*4*0.5 = 4
    ]
    assert rho_risk(pairs, 0, 1, 0.5) == pytest.approx(5.0 / 10.0)


def test_all_k_risk_is_mean_of_marginals():
    pairs = [
        _pair("a", {0.5: [4.0, 10.0]}, [5.0, 5.0]),
        _pair("b", {0.5: [9.0, 5.0]}, [5.0, 5.0]),
    ]
    expected = (rho_risk(pairs, 0, 1, 0.5) + rho_risk(pairs, 1, 1, 0.5)) / 2
    assert all_k_risk(pairs, 2, 0.5) == pytest.approx(expected)
    with pytest.raises(MetricError):
        all_k_risk(pairs, 0, 0.5)


def test_span_risk_needs_samples():
    pairs = [_pair("a", {0.5: [1.0, 2.0]}, [1.0, 2.0])]
    # single-step spans work straight from the quantile arrays ...
    assert rho_risk(pairs, 0, 1, 0.5) == 0.0
    # ... but multi-step spans need the sample matrix
    with pytest.raises(MetricError, match="emit-samples"):
        rho_risk(pairs, 0, 2, 0.5)


def test_span_risk_from_samples():
    samples = [[1.0, 2.0], [3.0, 4.0]]
    pairs = [_pair("a", {0.5: [2.0, 3.0]}, [2.0, 2.0], samples=samples)]
    # span sums {3, 7}; p50 = 3; truth span = 4 -> loss 2*1*0.5 = 1
    assert rho_risk(pairs, 0, 2, 0.5) == pytest.approx(1.0 / 4.0)


def test_missing_truth_inside_span_rejected():
    pairs = [_pair("a", {0.5: [1.0, 2.0]}, [1.0, float("nan")])]
    assert rho_risk(pairs, 0, 1, 0.5) == 0.0  # clean prefix still usable
    with pytest.raises(MetricError, match="missing ground truth"):
        rho_risk(pairs, 1, 1, 0.5)


# ---------------------------------------------------------------------------
# ND and RMSE
# ---------------------------------------------------------------------------


def test_nd_rmse_examples():
    nd, rmse = nd_rmse([1.0, 3.0], [2.0, 2.0])
    assert nd == pytest.approx(0.5)
    assert rmse == pytest.approx(0.5)
    nd, rmse = nd_rmse([1.0, 3.0], [1.0, 3.0])
    assert nd == 0.0 and rmse == 0.0


def test_nd_of_zero_forecast_is_one():
    nd, _ = nd_rmse([2.0, 5.0, 1.0], [0.0, 0.0, 0.0])
    assert nd == pytest.approx(1.0)


def test_nd_rmse_validation():
    with pytest.raises(MetricError, match="sums to 0"):
        nd_rmse([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(MetricError, match="shape"):
        nd_rmse([1.0, 2.0], [1.0])
    with pytest.raises(MetricError, match="missing"):
        nd_rmse([1.0, float("nan")], [1.0, 1.0])


def test_nd_equals_median_risk_for_one_step():
    # For a single-step horizon both reduce to sum|z - zhat| / sum z.
    rng = np.random.default_rng(8)
    pairs = []
    for i in range(20):
        truth = rng.uniform(1.0, 9.0)
        pairs.append(_pair(f"s{i}", {0.5: [rng.uniform(1.0, 9.0)]}, [truth]))
    report = evaluate(pairs, [(0, 1)], [0.5])
    assert report.nd == pytest.approx(report.risks["0:1@0.5"], rel=1e-12)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def test_coverage_infinite_quantiles():
    pairs = [
        _pair(f"s{i}", {0.1: [float("inf")], 0.9: [float("inf")]}, [float(i)])
        for i in range(1, 5)
    ]
    cov = coverage(pairs, [0.1, 0.9])
    assert cov == {0.1: 1.0, 0.9: 1.0}


def test_coverage_tie_counts_as_not_covered():
    pairs = [_pair("a", {0.5: [5.0]}, [5.0])]
    assert coverage(pairs, [0.5]) == {0.5: 0.0}
    pairs = [_pair("a", {0.5: [5.0 + 1e-9]}, [5.0])]
    assert coverage(pairs, [0.5]) == {0.5: 1.0}


def test_coverage_calibrated_by_construction():
    # Truth drawn from Uniform(0,1); forecast quantile at level p is the
    # true quantile p, so Coverage(p) estimates p itself.
    rng = np.random.default_rng(17)
    levels = [0.1, 0.5, 0.9]
    pairs = [
        _pair(f"s{i}", {p: [p] for p in levels}, [rng.uniform()])
        for i in range(1000)
    ]
    cov = coverage(pairs, levels)
    for p in levels:
        assert abs(cov[p] - p) < 0.05, f"coverage({p}) = {cov[p]}"


def test_shuffled_samples_leave_single_step_coverage_unchanged():
    rng = np.random.default_rng(9)
    levels = [0.1, 0.5, 0.9]
    orig, shuf = [], []
    for i in range(40):
        samples = rng.gamma(2.0, 2.0, size=(64, 4))
        truth = rng.gamma(2.0, 2.0, size=4)
        quant = {p: np.quantile(samples, p, axis=0) for p in levels}
        orig.append(_pair(f"s{i}", quant, truth, samples=samples))
        shuffled = shuffle_paths(samples, seed=100 + i)
        shuf.append(_pair(f"s{i}", quant, truth, samples=shuffled))
    for lead in range(4):
        assert coverage(orig, levels, lead, 1) == coverage(shuf, levels, lead, 1)
        for p in levels:
            assert rho_risk(orig, lead, 1, p) == rho_risk(shuf, lead, 1, p)


# ---------------------------------------------------------------------------
# seasonal naive
# ---------------------------------------------------------------------------


def test_seasonal_naive_periodic_is_exact():
    series = make_series("p", [1.0, 2.0, 3.0] * 4)
    np.testing.assert_array_equal(
        seasonal_naive(series, 6, 3), [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    )


def test_seasonal_naive_constant_series():
    series = make_series("c", [4.0] * 10)
    np.testing.assert_array_equal(seasonal_naive(series, 3, 7), [4.0, 4.0, 4.0])


def test_seasonal_naive_season_one_carries_last_value():
    series = make_series("last", [1.0, 2.0, 9.0])
    np.testing.assert_array_equal(seasonal_naive(series, 4, 1), [9.0] * 4)


def test_seasonal_naive_missing_becomes_zero():
    series = make_series("gap", [1.0, 2.0, float("nan"), 4.0])
    np.testing.assert_array_equal(seasonal_naive(series, 4, 2), [0.0, 4.0, 0.0, 4.0])


def test_seasonal_naive_validation():
    series = make_series("short", [1.0, 2.0, 3.0])
    with pytest.raises(MetricError, match="shorter than one"):
        seasonal_naive(series, 2, 7)
    with pytest.raises(MetricError):
        seasonal_naive(series, 0, 1)
    with pytest.raises(MetricError):
        seasonal_naive(series, 2, 0)


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def _record(sid, start, values_by_level):
    return ForecastRecord(
        sid,
        start,
        {float(k): np.asarray(v, dtype=np.float64) for k, v in values_by_level.items()},
        num_samples=8,
        seed=0,
    )


def test_align_matches_by_id_and_start():
    panel = Panel([make_series("a", [float(t) for t in range(10)])])
    rec = _record("a", START + timedelta(days=6), {0.5: [60.0, 70.0]})
    pairs = align(panel, [rec])
    assert len(pairs) == 1
    np.testing.assert_array_equal(pairs[0].truth, [6.0, 7.0])


def test_align_unknown_series():
    panel = Panel([make_series("a", [1.0] * 10)])
    rec = _record("zzz", START, {0.5: [1.0]})
    with pytest.raises(MetricError, match="zzz"):
        align(panel, [rec])


def test_align_truth_out_of_range():
    panel = Panel([make_series("a", [1.0] * 10)])
    # forecast extends two steps past the recorded truth
    rec = _record("a", START + timedelta(days=9), {0.5: [1.0, 1.0, 1.0]})
    with pytest.raises(MetricError, match="truth covers"):
        align(panel, [rec])
    # forecast starting before the series also fails
    rec = _record("a", START - timedelta(days=1), {0.5: [1.0]})
    with pytest.raises(MetricError, match="truth covers"):
        align(panel, [rec])


def test_align_empty_records():
    panel = Panel([make_series("a", [1.0] * 10)])
    with pytest.raises(MetricError, match="no forecast records"):
        align(panel, [])


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


def _report_fixture():
    # the quantile arrays are the nearest-rank quantiles of the sample
    # columns, so sample-based and array-based span values agree
    pairs = [
        _pair("a", {0.5: [5.0, 6.0], 0.9: [6.0, 7.0]}, [5.0, 5.0],
              samples=[[4.0, 5.0], [5.0, 6.0], [6.0, 7.0]]),
        _pair("b", {0.5: [5.0, 6.0], 0.9: [7.0, 8.0]}, [4.0, 6.0],
              samples=[[4.0, 4.0], [5.0, 6.0], [7.0, 8.0]]),
    ]
    return evaluate(pairs, [(0, 1), (0, 2)], [0.5, 0.9])


def test_evaluate_report_contents():
    report = _report_fixture()
    assert report.n_series == 2
    assert set(report.risks) == {"0:1@0.5", "0:1@0.9", "0:2@0.5", "0:2@0.9"}
    assert set(report.all_k) == {"all(2)@0.5", "all(2)@0.9"}
    assert report.all_k["all(2)@0.5"] == pytest.approx(
        all_k_risk(
            [
                _pair("a", {0.5: [5.0, 6.0]}, [5.0, 5.0]),
                _pair("b", {0.5: [5.0, 6.0]}, [4.0, 6.0]),
            ],
            2,
            0.5,
        )
    )
    assert set(report.coverage_curve) == {"0:1", "0:2"}
    nd, rmse = nd_rmse([[5.0, 5.0], [4.0, 6.0]], [[5.0, 6.0], [5.0, 6.0]])
    assert report.nd == pytest.approx(nd)
    assert report.rmse == pytest.approx(rmse)


def test_evaluate_validates_spans_and_horizons():
    pairs = [_pair("a", {0.5: [1.0, 2.0]}, [1.0, 2.0])]
    with pytest.raises(MetricError, match="does not fit"):
        evaluate(pairs, [(1, 2)], [0.5])
    mixed = pairs + [_pair("b", {0.5: [1.0]}, [1.0])]
    with pytest.raises(MetricError, match="horizons differ"):
        evaluate(mixed, [(0, 1)], [0.5])
    with pytest.raises(MetricError, match="nothing to evaluate"):
        evaluate([], [(0, 1)], [0.5])


def test_evaluate_missing_level_is_reported():
    pairs = [_pair("a", {0.5: [1.0]}, [1.0])]
    with pytest.raises(MetricError, match="no 0.9 quantile"):
        evaluate(pairs, [(0, 1)], [0.5, 0.9])


def test_report_json_and_table():
    report = _report_fixture()
    obj = json.loads(report.to_json())
    assert obj["n_series"] == 2
    assert obj["spans"] == ["0:1", "0:2"]
    assert obj["levels"] == ["0.5", "0.9"]
    assert set(obj["risks"]) == set(report.risks)
    assert obj["nd"] == report.nd
    table = report.to_table()
    assert "series\t2" in table
    assert "ND\t" in table and "RMSE\t" in table
    assert "risk[0:1@0.5]\t" in table
    assert "all(2)@0.5\t" in table
    assert "coverage[0:2][0.9]\t" in table


# ---------------------------------------------------------------------------
# rolling backtest
# ---------------------------------------------------------------------------


def test_rolling_single_window_matches_direct_evaluation():
    panel, model = tiny_model()
    spans, levels = [(0, 1)], [0.1, 0.5, 0.9]
    reports, pooled = rolling_backtest(
        panel, model, count=1, stride=1, spans=spans, levels=levels,
        num_samples=32, seed=5,
    )
    h = model.spec.prediction_length
    direct = []
    for series in panel:
        cut = series.n - h
        truncated = make_series(series.id, series.target[:cut], category=series.category)
        seed = derive_seed(5, "rolling", 0)
        fc = next(forecast_panel([truncated], model, num_samples=32, seed=seed))
        rec = record_from_samples(fc, levels, emit_samples=True)
        direct.append(EvalPair(rec, series.target[cut : cut + h].copy()))
    expected = evaluate(direct, spans, levels)
    assert reports[0].risks == expected.risks
    assert reports[0].nd == expected.nd
    assert pooled.risks == expected.risks  # one window: pooled == per-window


def test_rolling_pooled_equals_concatenation():
    panel, model = tiny_model()
    spans, levels = [(0, 1), (1, 2)], [0.5]
    reports, pooled = rolling_backtest(
        panel, model, count=2, stride=3, spans=spans, levels=levels,
        num_samples=16, seed=9,
    )
    assert len(reports) == 2
    h = model.spec.prediction_length
    pairs = []
    for w in range(2):
        back = (2 - 1 - w) * 3 + h
        for series in panel:
            cut = series.n - back
            truncated = make_series(series.id, series.target[:cut], category=series.category)
            seed = derive_seed(9, "rolling", w)
            fc = next(forecast_panel([truncated], model, num_samples=16, seed=seed))
            rec = record_from_samples(fc, levels, emit_samples=True)
            pairs.append(EvalPair(rec, series.target[cut : cut + h].copy()))
    expected = evaluate(pairs, spans, levels)
    assert pooled.risks == expected.risks
    assert pooled.nd == expected.nd
    assert pooled.n_series == 2 * len(panel.series)


def test_rolling_validation():
    panel, model = tiny_model()
    with pytest.raises(ConfigError, match="COUNT >= 1"):
        rolling_backtest(panel, model, 0, 1, [(0, 1)], [0.5], 8, 0)
    with pytest.raises(ConfigError, match="STRIDE >= 1"):
        rolling_backtest(panel, model, 1, 0, [(0, 1)], [0.5], 8, 0)
    # the model predicts 6 steps
    with pytest.raises(ConfigError, match="prediction length 6"):
        rolling_backtest(panel, model, 1, 1, [(0, 1), (2, 5)], [0.5], 8, 0)
    # 26-step series cannot supply 5 windows 6 steps apart plus a horizon
    with pytest.raises(MetricError, match="trailing"):
        rolling_backtest(panel, model, 5, 6, [(0, 1)], [0.5], 8, 0)


def test_rolling_windows_see_different_truth():
    panel, model = tiny_model()
    reports, _ = rolling_backtest(
        panel, model, count=2, stride=2, spans=[(0, 1)], levels=[0.5],
        num_samples=16, seed=3,
    )
    assert reports[0].risks != reports[1].risks
