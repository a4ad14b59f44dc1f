"""Window cuts from flat panel arrays: every gathered row equals the
scalar cut bit for bit, set-up sums keep the per-series summation order,
and the arrays grow with the panel, not with its longest series."""

import tracemalloc
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelcast.dataset import (
    FeatureStats,
    Granularity,
    Panel,
    TimeSeries,
    WindowSampler,
    WindowSpec,
    add_steps,
    conditioning_windows,
    feature_names,
    fit_feature_stats,
    series_scale,
)
from panelcast.errors import DataError

from conftest import placement_bounds, reference_window, series_features, sinusoid_panel

STEP = {
    Granularity.HOURLY: timedelta(hours=1),
    Granularity.DAILY: timedelta(days=1),
    Granularity.WEEKLY: timedelta(weeks=1),
    Granularity.MONTHLY: timedelta(days=31),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_rows_equal_reference(batch, panel, length, c, stats, covariate_length=None):
    """Every row of `batch` is the scalar cut of its series at its start."""
    for i, (sid, start) in enumerate(zip(batch.ids, batch.starts.tolist())):
        series = panel.get(sid)
        target, mask, nu, cov = reference_window(series, start, length, c, stats,
                                                 covariate_length)
        assert isinstance(sid, str)
        assert same_bits(batch.target[i], target), (sid, start)
        assert same_bits(batch.mask[i], mask), (sid, start)
        assert same_bits(batch.scale[i], np.float64(nu)), (sid, start)
        assert same_bits(batch.covariates[i], cov), (sid, start)
        assert batch.category[i] == series.category


@st.composite
def ragged_panels(draw):
    """A panel of 1-6 series of 1 to 3c steps, some too short to draw
    from, with NaN runs and several categories; and its window spec."""
    gran = draw(st.sampled_from(list(Granularity)))
    # Up to 12 conditioning steps: from 8 on numpy sums a row in unrolled
    # blocks, and each row's scale must still be compute_scale's.
    c = draw(st.integers(1, 12))
    spec = WindowSpec(c, draw(st.integers(1, 5)))
    start = datetime(1995, 1, 1) + draw(st.integers(0, 20_000)) * STEP[gran]
    if gran is Granularity.HOURLY:
        start += timedelta(minutes=draw(st.sampled_from([0, 30])))
    series = []
    for i in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 3 * c))
        values = np.array(draw(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n)))
        if n > 1 and draw(st.booleans()):
            first = draw(st.integers(0, n - 2))
            values[first : first + draw(st.integers(1, n - 1 - first))] = np.nan
        series.append(TimeSeries(f"s{i}", add_steps(start, draw(st.integers(-40, 40)), gran),
                                 gran, values, draw(st.integers(0, 3))))
    return Panel(series), spec


@given(ragged_panels(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_gathers_equal_the_scalar_cut(case, seed, horizon):
    # A training draw, the validation pool and the forecast's conditioning
    # cut, each one gather from flat arrays, against cut_series +
    # series_features + standardize + compute_scale a window at a time.
    panel, spec = case
    c, T = spec.conditioning_length, spec.total
    drawable = [s for s in panel if placement_bounds(s.n, spec) is not None]
    if not drawable:
        with pytest.raises(DataError):
            fit_feature_stats(panel, spec)
        return
    stats = fit_feature_stats(panel, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # short series are skipped
        sampler = WindowSampler(panel, spec, stats)
    top = 1.0 - 2.0**-53
    u = np.vstack([np.random.default_rng(seed).random((40, 2)),
                   [[0.0, 0.0], [top, top], [0.0, top], [top, 0.0]]])
    drawn = sampler.draw(u)
    assert drawn.target.shape == drawn.mask.shape == (len(u), T)
    assert_rows_equal_reference(drawn, panel, T, c, stats)
    pool = sampler.validation_windows(cap=7)
    assert len(pool) <= 7
    assert_rows_equal_reference(pool, panel, T, c, stats)
    for sid, start in zip(pool.ids, pool.starts.tolist()):
        assert placement_bounds(panel.get(sid).n, spec)[1] >= start
    cut = conditioning_windows(panel.series, stats, c, horizon)
    assert cut.ids.tolist() == [s.id for s in panel]
    assert cut.starts.tolist() == [s.n - c for s in panel]
    assert_rows_equal_reference(cut, panel, c, c, stats, covariate_length=c + horizon)


def scalar_feature_stats(panel, spec):
    """fit_feature_stats one series at a time, each series' weighted rows
    summed down its steps and the series added in panel order."""
    d = len(feature_names(panel.granularity))
    sum_w, sum_x, sum_x2 = 0.0, np.zeros(d), np.zeros(d)
    T = spec.total
    for series in panel:
        bounds = placement_bounds(series.n, spec)
        if bounds is None:
            continue
        lo, hi = bounds
        total = hi - lo + 1
        hi_train = lo + total - total // 10 - 1
        ks = np.arange(lo, series.n)
        w = np.maximum(0, np.minimum(hi_train, ks) - np.maximum(lo, ks - T + 1) + 1).astype(float)
        x = series_features(series, lo, series.n - lo)
        sum_w += w.sum()
        sum_x += (x * w[:, None]).sum(axis=0)
        sum_x2 += (x * x * w[:, None]).sum(axis=0)
    mean = sum_x / sum_w
    std = np.sqrt(np.maximum(sum_x2 / sum_w - mean * mean, 0.0))
    std[std < 1e-12] = 1.0
    return mean, std, sum_x2


def long_hourly_panel():
    start = datetime(2011, 1, 1, 5)
    lengths = (90_000, 300, 50_000, 7)
    rng = np.random.default_rng(17)
    return Panel([TimeSeries(f"h{i}", start + timedelta(hours=13 * i), Granularity.HOURLY,
                             rng.poisson(3.0, n).astype(float), i % 3)
                  for i, n in enumerate(lengths)])


def gaussian_panel():
    panel = sinusoid_panel(num_series=30, n=200, seed=19, amplitude=40.0, noise=7.3)
    for i, series in enumerate(panel):
        series.target[i : i + 5] = np.nan
    return panel


@pytest.mark.parametrize("make_panel, spec", [(long_hourly_panel, WindowSpec(167, 24)),
                                               (gaussian_panel, WindowSpec(14, 7))])
def test_set_up_sums_keep_the_per_series_order(make_panel, spec):
    # On the benchmark's panels every feature sum is an exact integer, so
    # any summation order gives the same bits. Here the hourly ages' x*x*w
    # sums pass 2**53, where order decides the last bits (an odd window
    # length keeps the weights from making every term a multiple of the
    # float spacing there), and the Gaussian targets are not integers:
    # the sums must be the per-series ones.
    panel = make_panel()
    stats = fit_feature_stats(panel, spec)
    mean, std, sum_x2 = scalar_feature_stats(panel, spec)
    if make_panel is long_hourly_panel:
        assert sum_x2[0] > 2.0**53
    assert same_bits(stats.mean, mean) and same_bits(stats.std, std)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sampler = WindowSampler(panel, spec, stats)
    drawable = [s for s in panel if placement_bounds(s.n, spec) is not None]
    assert same_bits(sampler._cum_weights, np.cumsum([series_scale(s) for s in drawable]))


def test_arrays_grow_with_the_panel_not_its_longest_series():
    # One series of 20 000 steps and 500 of 50: the flat arrays hold
    # sum(n + c) = 59 028 steps; a layout padded to the longest series
    # would hold 501 * 20 028, about 10M.
    spec = WindowSpec(28, 7)
    series = [TimeSeries("long", datetime(2015, 1, 1), Granularity.DAILY, np.ones(20_000))]
    series += [TimeSeries(f"s{i}", datetime(2015, 1, 1), Granularity.DAILY,
                          np.full(50, 2.0), i % 4) for i in range(500)]
    panel = Panel(series)
    sampler = WindowSampler(panel, spec, fit_feature_stats(panel, spec))
    steps = sum(s.n + spec.conditioning_length for s in panel)
    assert steps == 59_028
    held = [a for obj in (sampler, sampler._arrays) for a in vars(obj).values()
            if isinstance(a, np.ndarray)]
    d = len(feature_names(Granularity.DAILY))
    assert sum(a.size for a in held) <= (d + 3) * steps

    # A draw allocates its windows, O(B * T), nothing of the panel's size.
    u = np.random.default_rng(5).random((16, 2))
    u[0, 0] = 0.0  # the long series
    sampler.draw(u)
    tracemalloc.start()
    try:
        batch = sampler.draw(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.ids[0] == "long"
    window_bytes = 16 * spec.total * (d + 2) * 8
    assert peak < 4 * window_bytes < steps * 8

    # A forecast's conditioning cut reads c + h steps per series, so its
    # work is O(B * (c + h)), however long the longest series is.
    h = 7
    panel = Panel(series[1:101] + [TimeSeries("longer", datetime(1990, 1, 1),
                                              Granularity.DAILY, np.ones(1_000_000))])
    stats = FeatureStats(np.zeros(d), np.ones(d), feature_names(Granularity.DAILY))
    conditioning_windows(panel.series, stats, spec.conditioning_length, h)
    tracemalloc.start()
    try:
        cut = conditioning_windows(panel.series, stats, spec.conditioning_length, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cut.ids[-1] == "longer"
    window_bytes = len(panel) * (spec.conditioning_length + h) * (d + 2) * 8
    assert peak < 4 * window_bytes < 1_000_000
