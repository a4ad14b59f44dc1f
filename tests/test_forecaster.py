"""Tests for Monte Carlo forecasting: path sampling, empirical quantiles,
span aggregation, the marginal-preserving path shuffle, and forecast-record
serialization."""

import math
from datetime import datetime

import numpy as np
import pytest

from conftest import START, count_panel, make_series, tiny_model
from panelcast.dataset import Granularity, Panel
from panelcast.errors import ConfigError, DataError
from panelcast.forecaster import (
    ROW_BUDGET,
    ForecastRecord,
    ForecastSamples,
    forecast,
    forecast_panel,
    nearest_rank,
    quantiles,
    read_forecasts,
    record_from_samples,
    shuffle_paths,
    render_forecasts,
    span_aggregate,
)
from panelcast.likelihood import LikelihoodKind
from panelcast.trainer import TrainConfig, train

# ---------------------------------------------------------------------------
# nearest-rank quantiles
# ---------------------------------------------------------------------------


def test_nearest_rank_median_of_200():
    values = np.arange(1.0, 201.0)  # already sorted
    # rank ceil(0.5 * 200) = 100 -> zero-based index 99 -> value 100
    assert nearest_rank(values, 0.5) == 100.0
    assert nearest_rank(values, 0.9) == 180.0
    assert nearest_rank(values, 0.005) == 1.0
    assert nearest_rank(values, 0.995) == 199.0


def test_nearest_rank_single_sample():
    assert nearest_rank(np.array([7.25]), 0.1) == 7.25
    assert nearest_rank(np.array([7.25]), 0.9) == 7.25


def test_nearest_rank_level_validation():
    values = np.arange(5.0)
    for rho in (0.0, 1.0, -0.2, 1.5, 17.0):
        with pytest.raises(ConfigError):
            nearest_rank(values, rho)


def test_quantiles_of_constant_samples():
    mat = np.full((64, 5), 3.5)
    q = quantiles(mat, [0.1, 0.5, 0.9])
    assert q.values.shape == (3, 5)
    assert np.all(q.values == 3.5)


def test_quantiles_monotone_in_level():
    rng = np.random.default_rng(11)
    mat = rng.normal(0.0, 2.0, size=(257, 8))
    levels = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95]
    q = quantiles(mat, levels)
    assert q.levels == levels
    diffs = np.diff(q.values, axis=0)
    assert np.all(diffs >= 0.0)


def test_quantiles_match_per_column_nearest_rank():
    rng = np.random.default_rng(5)
    mat = rng.uniform(size=(40, 3))
    q = quantiles(mat, [0.3])
    for t in range(3):
        col = np.sort(mat[:, t])
        assert q.values[0, t] == nearest_rank(col, 0.3)


def test_quantiles_rejects_bad_input():
    with pytest.raises(ConfigError):
        quantiles(np.array([1.0, 2.0]), [0.5])  # 1-d
    with pytest.raises(ConfigError):
        quantiles(np.empty((0, 4)), [0.5])  # empty
    with pytest.raises(ConfigError):
        quantiles(np.ones((4, 4)), [])  # no levels


# ---------------------------------------------------------------------------
# span aggregation
# ---------------------------------------------------------------------------


def test_span_aggregate_two_path_example():
    mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    # per-path sums are [3, 7]; the 0.5 nearest-rank quantile of 2 values
    # is the lower one
    assert span_aggregate(mat, 0, 2, 0.5) == 3.0
    assert span_aggregate(mat, 0, 2, 0.9) == 7.0


def test_span_of_one_equals_per_step_quantile():
    rng = np.random.default_rng(23)
    mat = rng.normal(5.0, 3.0, size=(101, 6))
    for rho in (0.1, 0.5, 0.9):
        q = quantiles(mat, [rho])
        for t in range(6):
            assert span_aggregate(mat, t, 1, rho) == q.values[0, t]


def test_span_aggregate_identical_paths():
    row = np.array([2.0, 4.0, 8.0, 16.0])
    mat = np.tile(row, (30, 1))
    for rho in (0.01, 0.5, 0.99):
        assert span_aggregate(mat, 0, 4, rho) == 30.0
        assert span_aggregate(mat, 1, 2, rho) == 12.0


def test_span_aggregate_range_validation():
    mat = np.ones((4, 6))
    with pytest.raises(ConfigError):
        span_aggregate(mat, -1, 2, 0.5)
    with pytest.raises(ConfigError):
        span_aggregate(mat, 0, 0, 0.5)
    with pytest.raises(ConfigError):
        span_aggregate(mat, 5, 2, 0.5)  # runs past the horizon
    with pytest.raises(ConfigError):
        span_aggregate(mat, 0, 2, 1.0)


# ---------------------------------------------------------------------------
# path shuffling
# ---------------------------------------------------------------------------


def _random_walk_paths(num_paths=400, horizon=9, seed=91):
    """Positively autocorrelated paths: cumulative sums of iid normals."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(1.0, 1.0, size=(num_paths, horizon))
    return np.cumsum(steps, axis=1)


def test_shuffle_preserves_per_step_marginals():
    mat = _random_walk_paths()
    shuffled = shuffle_paths(mat, seed=3)
    assert shuffled.shape == mat.shape
    assert not np.array_equal(shuffled, mat)  # paths themselves differ
    np.testing.assert_array_equal(np.sort(shuffled, axis=0), np.sort(mat, axis=0))


def test_shuffle_leaves_single_step_aggregates_unchanged():
    mat = _random_walk_paths()
    shuffled = shuffle_paths(mat, seed=3)
    for rho in (0.1, 0.5, 0.9):
        for t in range(mat.shape[1]):
            assert span_aggregate(shuffled, t, 1, rho) == span_aggregate(mat, t, 1, rho)


def test_shuffle_shrinks_span_sum_variance_on_correlated_paths():
    # Var(sum) = sum of variances + 2 * sum of covariances; the walk's
    # positive covariances vanish once steps are shuffled independently.
    mat = _random_walk_paths()
    shuffled = shuffle_paths(mat, seed=3)
    var_orig = np.var(mat.sum(axis=1))
    var_shuf = np.var(shuffled.sum(axis=1))
    assert var_shuf < var_orig
    assert var_shuf < 0.5 * var_orig  # the gap is large, not a tie-breaker


def test_shuffle_requires_two_paths():
    with pytest.raises(ConfigError):
        shuffle_paths(np.ones((1, 5)), seed=0)


def test_shuffle_is_seeded_and_preserves_wrapper():
    fc = ForecastSamples("s0", datetime(2014, 2, 1), _random_walk_paths(50, 4), 9)
    a = shuffle_paths(fc, seed=1)
    b = shuffle_paths(fc, seed=1)
    c = shuffle_paths(fc, seed=2)
    assert isinstance(a, ForecastSamples)
    assert a.series_id == "s0" and a.start == fc.start and a.seed == 9
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


# ---------------------------------------------------------------------------
# the forecast sampler
# ---------------------------------------------------------------------------


def test_forecast_shape_and_start():
    panel, model = tiny_model()
    fc = forecast(panel.series[0], model, num_samples=17, seed=4)
    assert fc.samples.shape == (17, model.spec.prediction_length)
    assert fc.num_samples == 17
    assert fc.horizon == model.spec.prediction_length
    assert fc.series_id == panel.series[0].id
    assert fc.start == panel.series[0].timestamp(panel.series[0].n)
    assert fc.seed == 4
    assert np.all(np.isfinite(fc.samples))


def test_forecast_explicit_horizon():
    panel, model = tiny_model()
    fc = forecast(panel.series[0], model, num_samples=5, seed=0, horizon=3)
    assert fc.samples.shape == (5, 3)
    long = forecast(panel.series[0], model, num_samples=5, seed=0, horizon=10)
    assert long.samples.shape == (5, 10)


def test_forecast_deterministic_for_fixed_seed():
    panel, model = tiny_model()
    a = forecast(panel.series[1], model, num_samples=32, seed=123)
    b = forecast(panel.series[1], model, num_samples=32, seed=123)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = forecast(panel.series[1], model, num_samples=32, seed=124)
    assert not np.array_equal(a.samples, c.samples)


def test_forecast_paths_stable_under_extra_samples():
    # Path p draws from its own substream, so asking for more paths must
    # not reshuffle the ones already drawn. The decode is batched, so BLAS
    # blocking may shift individual values by an ulp between batch sizes;
    # a reshuffle would show up as differences on the scale of the
    # predictive spread (~1e0 here), orders of magnitude above this bound.
    panel, model = tiny_model()
    small = forecast(panel.series[0], model, num_samples=50, seed=7)
    large = forecast(panel.series[0], model, num_samples=200, seed=7)
    np.testing.assert_allclose(
        large.samples[:50], small.samples, rtol=1e-9, atol=1e-9
    )


def _block_test_panel():
    series = list(count_panel(num_series=5, n=26).series)
    gappy = [3.0, 4.0, float("nan"), 5.0, 2.0, float("nan"), 4.0, 3.0, 2.0, 6.0]
    series.append(make_series("gappy", gappy, category=1))
    return series


@pytest.mark.parametrize("kind", [LikelihoodKind.GAUSSIAN, LikelihoodKind.NEG_BINOMIAL])
@pytest.mark.parametrize(
    "num_samples",
    [ROW_BUDGET // 2 - 10, ROW_BUDGET + 50],
    ids=["packed-blocks", "split-series"],
)
def test_series_alone_matches_series_in_blocked_panel(kind, num_samples):
    # A path's draws depend only on (seed, series id, path, step), so a
    # series forecast alone equals the same series inside a panel that is
    # split into several row blocks, whether blocks pack two series each
    # or a series has more paths than the budget. The network arithmetic
    # of a row does not depend on the other rows, so the match is exact.
    _, model = tiny_model(kind)
    series = _block_test_panel()
    blocked = list(forecast_panel(series, model, num_samples, seed=11))
    assert [fc.series_id for fc in blocked] == [s.id for s in series]
    for s, fc in zip(series, blocked):
        alone = forecast(s, model, num_samples=num_samples, seed=11)
        assert fc.samples.shape == (num_samples, model.spec.prediction_length)
        assert fc.start == alone.start and fc.seed == alone.seed
        np.testing.assert_array_equal(fc.samples, alone.samples)


def test_forecast_panel_rejects_unseen_category_before_work():
    _, model = tiny_model()  # two categories
    series = [make_series("ok", [3.0] * 12), make_series("new", [3.0] * 12, category=2)]
    with pytest.raises(DataError, match="'new': category 2"):
        forecast_panel(series, model, num_samples=4, seed=0)


def test_forecast_deterministic_with_missing_history():
    vals = [3.0, 4.0, float("nan"), 5.0, 2.0, float("nan"), 4.0, 3.0, 2.0, 6.0]
    series = make_series("gappy", vals)
    _, model = tiny_model()
    a = forecast(series, model, num_samples=16, seed=5)
    b = forecast(series, model, num_samples=16, seed=5)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_forecast_short_series_padded_history():
    series = make_series("short", [2.0, 3.0])  # shorter than the window
    _, model = tiny_model()
    fc = forecast(series, model, num_samples=8, seed=1)
    assert np.all(np.isfinite(fc.samples))


def test_forecast_rejects_empty_conditioning_range():
    # Observed values exist, but none inside the trailing window the
    # model conditions on.
    vals = [5.0, 6.0, 7.0] + [float("nan")] * 8
    series = make_series("tail-gap", vals)
    _, model = tiny_model()
    with pytest.raises(DataError, match="conditioning"):
        forecast(series, model, num_samples=4, seed=0)


def test_forecast_rejects_granularity_mismatch():
    _, model = tiny_model()  # a daily model
    series = make_series("hourly", [1.0] * 30, granularity=Granularity.HOURLY)
    with pytest.raises(DataError, match="hourly|daily"):
        forecast(series, model, num_samples=4, seed=0)


def test_forecast_rejects_bad_arguments():
    panel, model = tiny_model()
    with pytest.raises(ConfigError):
        forecast(panel.series[0], model, num_samples=0, seed=0)
    with pytest.raises(ConfigError):
        forecast(panel.series[0], model, num_samples=4, seed=0, horizon=-2)


def test_count_forecasts_are_non_negative_integers():
    panel, model = tiny_model(kind=LikelihoodKind.NEG_BINOMIAL)
    fc = forecast(panel.series[0], model, num_samples=64, seed=2)
    assert np.all(fc.samples >= 0)
    np.testing.assert_array_equal(fc.samples, np.round(fc.samples))


def test_tiny_spread_collapses_paths():
    # Drive the spread head far negative: the floor keeps the scale
    # positive but microscopic, so every path traces the same curve.
    panel, model = tiny_model(kind=LikelihoodKind.GAUSSIAN)
    model.blocks()["head.w_disp"][:] = 0.0
    model.blocks()["head.b_disp"][...] = -500.0
    fc = forecast(panel.series[0], model, num_samples=40, seed=3)
    spread = np.ptp(fc.samples, axis=0)
    assert spread.max() < 1e-3
    assert np.ptp(fc.samples[:, 0]) > 0.0  # still stochastic, not constant


def test_forecast_recovers_iid_count_distribution():
    # Train on draws from a single overdispersed count distribution
    # (mean 3, variance 3 + 9*0.5 = 7.5); pooled forecast samples should
    # reproduce both moments to within 10%.
    rng = np.random.default_rng(42)
    series = []
    for i in range(96):
        vals = rng.negative_binomial(2, 0.4, size=160).astype(float)
        series.append(
            make_series(f"nb{i}", vals, category=i % 2)
        )
    panel = Panel(series)
    cfg = TrainConfig(
        likelihood=LikelihoodKind.NEG_BINOMIAL,
        conditioning_length=24,
        prediction_length=6,
        num_layers=1,
        hidden_units=4,
        embedding_dim=2,
        batch_size=64,
        learning_rate=3e-3,
        max_batches=400,
        patience=3,
        windows_per_epoch=500,
        seed=3,
    )
    model, _ = train(panel, cfg)
    pooled = np.concatenate(
        [forecast(s, model, num_samples=100, seed=1).samples.ravel() for s in series]
    )
    mean = pooled.mean()
    var = pooled.var()
    assert abs(mean - 3.0) < 0.3, f"pooled mean {mean:.3f}"
    assert abs(var - 7.5) < 0.75, f"pooled variance {var:.3f}"


# ---------------------------------------------------------------------------
# forecast records on disk
# ---------------------------------------------------------------------------


def _sample_record(emit=False):
    fc = ForecastSamples(
        "widget-7",
        datetime(2014, 3, 1, 5),
        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        seed=11,
    )
    return record_from_samples(fc, [0.1, 0.5, 0.9], emit_samples=emit)


def test_record_from_samples_quantiles():
    rec = _sample_record()
    assert sorted(rec.quantile_values) == [0.1, 0.5, 0.9]
    np.testing.assert_array_equal(rec.quantile_values[0.5], [3.0, 4.0])
    np.testing.assert_array_equal(rec.quantile_values[0.1], [1.0, 2.0])
    np.testing.assert_array_equal(rec.quantile_values[0.9], [5.0, 6.0])
    assert rec.num_samples == 3
    assert rec.seed == 11
    assert rec.horizon == 2
    assert rec.samples is None


def test_record_emit_samples_keeps_paths():
    rec = _sample_record(emit=True)
    assert rec.samples is not None
    np.testing.assert_array_equal(rec.samples, [[1, 2], [3, 4], [5, 6]])


def test_record_json_round_trip():
    for emit in (False, True):
        rec = _sample_record(emit=emit)
        obj = rec.to_json_obj()
        assert set(obj["quantiles"]) == {"0.1", "0.5", "0.9"}
        back = ForecastRecord.from_json_obj(obj)
        assert back.series_id == rec.series_id
        assert back.start == rec.start
        assert back.num_samples == rec.num_samples
        assert back.seed == rec.seed
        assert sorted(back.quantile_values) == sorted(rec.quantile_values)
        for level, vals in rec.quantile_values.items():
            np.testing.assert_array_equal(back.quantile_values[level], vals)
        if emit:
            np.testing.assert_array_equal(back.samples, rec.samples)
        else:
            assert back.samples is None


def test_write_read_forecasts(tmp_path):
    records = [_sample_record(), _sample_record(emit=True)]
    records[1].series_id = "widget-8"
    path = tmp_path / "fc.jsonl"
    path.write_text(render_forecasts(records), encoding="utf-8")
    back = read_forecasts(path)
    assert [r.series_id for r in back] == ["widget-7", "widget-8"]
    np.testing.assert_array_equal(
        back[0].quantile_values[0.9], records[0].quantile_values[0.9]
    )
    np.testing.assert_array_equal(back[1].samples, records[1].samples)


def test_read_forecasts_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = _sample_record().to_json_obj()
    import json

    path.write_text(json.dumps(good) + "\n{oops\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.jsonl:2:"):
        read_forecasts(path)


def test_read_forecasts_rejects_missing_fields(tmp_path):
    path = tmp_path / "missing.jsonl"
    path.write_text('{"id": "x"}\n', encoding="utf-8")
    with pytest.raises(DataError, match="malformed forecast record"):
        read_forecasts(path)


def test_read_forecasts_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="no forecast records"):
        read_forecasts(path)
