"""Tests for evaluation metrics: quantile loss and rho-risk, ND/RMSE,
coverage, the seasonal-naive reference, truth alignment, report
formatting, the one-pass fold against the list-based reference, and
rolling backtests."""

import json
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    START,
    all_k_risk,
    coverage,
    make_series,
    reference_report,
    rho_risk,
    seasonal_naive,
    shuffle_paths,
    tiny_model,
)
from panelcast import evaluator
from panelcast.dataset import Panel
from panelcast.errors import ConfigError, MetricError, PanelcastError
from panelcast.evaluator import align, evaluate, nd_rmse, quantile_loss, rolling_backtest
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
    """Assemble a (record, truth) pair directly from quantile arrays."""
    rec = ForecastRecord(
        sid,
        start,
        {float(k): np.asarray(v, dtype=np.float64) for k, v in quant.items()},
        num_samples=0 if samples is None else len(samples),
        seed=0,
        samples=None if samples is None else np.asarray(samples, dtype=np.float64),
    )
    return rec, np.asarray(truth, dtype=np.float64)


def _risk(pairs, lead, span, rho):
    """evaluate's rho-risk of one span and level."""
    return evaluate(pairs, [(lead, span)], [rho]).risks[f"{lead}:{span}@{rho}"]


def test_rho_risk_single_pair_example():
    pairs = [_pair("a", {0.5: [10.0], 0.9: [12.0]}, [10.0])]
    assert _risk(pairs, 0, 1, 0.9) == pytest.approx(0.36)
    assert _risk(pairs, 0, 1, 0.9) == rho_risk(pairs, 0, 1, 0.9)


def test_rho_risk_perfect_forecast_is_zero():
    pairs = [
        _pair("a", {0.5: [3.0, 4.0]}, [3.0, 4.0]),
        _pair("b", {0.5: [1.0, 2.0]}, [1.0, 2.0]),
    ]
    assert _risk(pairs, 0, 1, 0.5) == 0.0
    assert _risk(pairs, 1, 1, 0.5) == 0.0


def test_rho_risk_zero_truth_rejected():
    pairs = [_pair("a", {0.5: [1.0]}, [0.0])]
    with pytest.raises(MetricError, match=r"rho-risk undefined: span truth sums to 0 over \[0, 1\)"):
        _risk(pairs, 0, 1, 0.5)
    with pytest.raises(MetricError, match="sums to 0"):
        evaluator.rho_risk(1.0, 0.0, 0, 1)
    assert evaluator.rho_risk(1.0, 4.0, 0, 1) == 0.25


def test_rho_risk_pools_across_series():
    pairs = [
        _pair("a", {0.5: [4.0]}, [5.0]),  # loss 2*1*0.5 = 1
        _pair("b", {0.5: [9.0]}, [5.0]),  # loss 2*4*0.5 = 4
    ]
    assert _risk(pairs, 0, 1, 0.5) == pytest.approx(5.0 / 10.0)


def test_all_k_risk_is_mean_of_marginals():
    pairs = [
        _pair("a", {0.5: [4.0, 10.0]}, [5.0, 5.0]),
        _pair("b", {0.5: [9.0, 5.0]}, [5.0, 5.0]),
    ]
    report = evaluate(pairs, [(0, 1), (1, 1)], [0.5])
    expected = (report.risks["0:1@0.5"] + report.risks["1:1@0.5"]) / 2
    assert report.all_k["all(2)@0.5"] == pytest.approx(expected)
    assert report.all_k["all(2)@0.5"] == all_k_risk(pairs, 2, 0.5)


def test_span_risk_needs_samples():
    pairs = [_pair("a", {0.5: [1.0, 2.0]}, [1.0, 2.0])]
    # single-step spans work straight from the quantile arrays ...
    assert _risk(pairs, 0, 1, 0.5) == 0.0
    # ... but multi-step spans need the sample matrix
    with pytest.raises(MetricError, match="emit-samples"):
        _risk(pairs, 0, 2, 0.5)


def test_span_risk_from_samples():
    samples = [[1.0, 2.0], [3.0, 4.0]]
    pairs = [_pair("a", {0.5: [2.0, 3.0]}, [2.0, 2.0], samples=samples)]
    # span sums {3, 7}; p50 = 3; truth span = 4 -> loss 2*1*0.5 = 1
    assert _risk(pairs, 0, 2, 0.5) == pytest.approx(1.0 / 4.0)


def test_missing_truth_inside_span_rejected():
    pairs = [_pair("a", {0.5: [1.0, 2.0]}, [1.0, float("nan")])]
    # all(2) reads every step, so a gap outside the requested spans counts
    with pytest.raises(MetricError, match=r"'a': missing ground truth inside span \[1, 2\)"):
        evaluate(pairs, [(0, 1)], [0.5])
    # a span holding the gap is named first
    with pytest.raises(MetricError, match=r"inside span \[0, 2\)"):
        evaluate([_pair("a", {0.5: [1.0, 2.0]}, [1.0, float("nan")], samples=[[1.0, 2.0]])],
                 [(0, 2)], [0.5])


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
    # the reference's rule, which the fold shares (test_fold_matches_reference);
    # evaluate itself rejects the infinite risks these quantiles give
    pairs = [
        _pair(f"s{i}", {0.1: [float("inf")], 0.9: [float("inf")]}, [float(i)])
        for i in range(1, 5)
    ]
    cov = coverage(pairs, [0.1, 0.9])
    assert cov == {0.1: 1.0, 0.9: 1.0}


def test_coverage_tie_counts_as_not_covered():
    pairs = [_pair("a", {0.5: [5.0]}, [5.0])]
    assert evaluate(pairs, [(0, 1)], [0.5]).coverage_curve == {"0:1": {"0.5": 0.0}}
    pairs = [_pair("a", {0.5: [5.0 + 1e-9]}, [5.0])]
    assert evaluate(pairs, [(0, 1)], [0.5]).coverage_curve == {"0:1": {"0.5": 1.0}}


def test_coverage_calibrated_by_construction():
    # Truth drawn from Uniform(0,1); forecast quantile at level p is the
    # true quantile p, so Coverage(p) estimates p itself.
    rng = np.random.default_rng(17)
    levels = [0.1, 0.5, 0.9]
    pairs = [
        _pair(f"s{i}", {p: [p] for p in levels}, [rng.uniform()])
        for i in range(1000)
    ]
    cov = evaluate(pairs, [(0, 1)], levels).coverage_curve["0:1"]
    for p in levels:
        assert abs(cov[repr(p)] - p) < 0.05, f"coverage({p}) = {cov[repr(p)]}"


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
    spans = [(lead, 1) for lead in range(4)]
    a, b = evaluate(orig, spans, levels), evaluate(shuf, spans, levels)
    assert a.coverage_curve == b.coverage_curve
    assert a.risks == b.risks


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
    pairs = list(align(panel, [rec]))
    assert len(pairs) == 1 and pairs[0][0] is rec
    np.testing.assert_array_equal(pairs[0][1], [6.0, 7.0])


def test_align_unknown_series():
    panel = Panel([make_series("a", [1.0] * 10)])
    rec = _record("zzz", START, {0.5: [1.0]})
    with pytest.raises(MetricError, match="zzz"):
        list(align(panel, [rec]))


def test_align_truth_out_of_range():
    panel = Panel([make_series("a", [1.0] * 10)])
    # forecast extends two steps past the recorded truth
    rec = _record("a", START + timedelta(days=9), {0.5: [1.0, 1.0, 1.0]})
    with pytest.raises(MetricError, match="truth covers"):
        list(align(panel, [rec]))
    # forecast starting before the series also fails
    rec = _record("a", START - timedelta(days=1), {0.5: [1.0]})
    with pytest.raises(MetricError, match="truth covers"):
        list(align(panel, [rec]))


def test_align_empty_records():
    panel = Panel([make_series("a", [1.0] * 10)])
    with pytest.raises(MetricError, match="no forecast records"):
        list(align(panel, []))


def test_align_repeated_record():
    panel = Panel([make_series("a", [1.0] * 10), make_series("b", [1.0] * 10)])
    recs = [_record(sid, START + timedelta(days=2), {0.5: [1.0]}) for sid in ("a", "b", "a")]
    with pytest.raises(MetricError, match=r"series 'a': the forecasts repeat the record starting"):
        list(align(panel, recs))
    # the same series at another start is another forecast
    recs[2] = _record("a", START + timedelta(days=3), {0.5: [1.0]})
    assert len(list(align(panel, recs))) == 3


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
# the one-pass fold
# ---------------------------------------------------------------------------

LEVEL_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


@st.composite
def fold_cases(draw):
    """(pairs, spans, levels). Pairs with sample matrices carry quantile
    tracks at random levels, so some levels only the samples serve; pairs
    without carry every level and the median. Longer spans come only when
    every pair has samples. Spans may repeat, and counts may tie the truth
    or sum it to 0 over a span."""
    h = draw(st.integers(1, 5))
    levels = draw(st.lists(st.sampled_from(LEVEL_GRID), min_size=1, max_size=3, unique=True))
    mode = draw(st.sampled_from(["samples", "tracks", "mixed"]))
    lengths = (lambda lead: st.integers(1, h - lead)) if mode == "samples" else (lambda lead: st.just(1))
    spans = draw(st.lists(st.integers(0, h - 1).flatmap(lambda lead: st.tuples(st.just(lead), lengths(lead))),
                          min_size=1, max_size=4))
    values = st.integers(0, 12).map(float) if draw(st.booleans()) else st.floats(0.0, 50.0)
    steps = st.lists(values, min_size=h, max_size=h)
    pairs = []
    for i in range(draw(st.integers(1, 6))):
        samples = None
        if mode == "samples" or (mode == "mixed" and draw(st.booleans())):
            samples = draw(st.lists(steps, min_size=1, max_size=7))
            track_levels = draw(st.lists(st.sampled_from(LEVEL_GRID), min_size=1, max_size=2, unique=True))
        else:
            track_levels = {*levels, 0.5}
        quant = {rho: draw(steps) for rho in track_levels}
        pairs.append(_pair(f"s{i}", quant, draw(steps), samples=samples))
    return pairs, spans, levels


@given(fold_cases())
def test_fold_matches_reference(case):
    """evaluate folds each pair once; its report is the list-based
    reference's, bit for bit, and it fails where the reference fails,
    with the same error."""
    pairs, spans, levels = case
    try:
        expected = reference_report(pairs, spans, levels)
    except PanelcastError as e:
        with pytest.raises(type(e)) as got:
            evaluate(iter(pairs), spans, levels)
        assert str(got.value) == str(e)
        return
    report = evaluate(iter(pairs), spans, levels)
    assert report == expected
    assert report.to_json() == expected.to_json()


def test_evaluate_memory_is_set_by_series_and_horizon():
    """Records streamed through align and evaluate are held one at a time:
    the traced peak for 400 records of 200 x 14 samples stays below 32
    values per series and step, a sixth of the samples' 200."""
    n, paths, h = 400, 200, 14
    panel = Panel([make_series(f"s{i}", np.arange(1.0, h + 1.0)) for i in range(n)])

    def records():
        for i in range(n):
            samples = np.random.default_rng(i).uniform(0.0, 20.0, size=(paths, h))
            yield ForecastRecord(f"s{i}", START, {0.5: samples[0].copy()}, paths, 0, samples)

    tracemalloc.start()
    try:
        report = evaluate(align(panel, records()), [(0, 1), (6, 1), (0, 7)], [0.5, 0.9])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_series == n
    bound = 32 * 8 * n * h
    assert peak < bound, f"traced peak {peak} bytes, bound {bound}"


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
        direct.append((rec, series.target[cut : cut + h].copy()))
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
            pairs.append((rec, series.target[cut : cut + h].copy()))
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
