"""Panel ingestion, scales, covariates, windows, and weighted sampling."""

import math
from datetime import datetime

import numpy as np
import pytest

from panelcast.dataset import (
    MASK_MISSING,
    MASK_OBSERVED,
    MASK_PADDED,
    FeatureStats,
    Granularity,
    Panel,
    TimeSeries,
    WindowSampler,
    WindowSpec,
    _train_placement_count,
    add_steps,
    compute_scale,
    feature_names,
    features,
    fit_feature_stats,
    load_jsonl,
    series_scale,
    steps_between,
    velocity_histogram,
)
from panelcast.errors import ConfigError, DataError

from conftest import (
    START,
    cut_window,
    make_series,
    pcg64,
    placement_bounds,
    sinusoid_panel,
    write_jsonl,
)


def series_features(series, start_offset, length, stats=None):
    """features of steps [start_offset, start_offset + length) of one series."""
    return features([series], [start_offset], [length], stats)


class TestGranularity:
    def test_codes(self):
        assert Granularity.from_code("H") is Granularity.HOURLY
        assert Granularity.from_code("D") is Granularity.DAILY
        assert Granularity.from_code("W") is Granularity.WEEKLY
        assert Granularity.from_code("M") is Granularity.MONTHLY

    def test_add_steps_roundtrip(self):
        for gran in Granularity:
            ts = datetime(2014, 3, 15, 7)
            stepped = add_steps(ts, 11, gran)
            assert steps_between(gran, ts, stepped) == 11

    def test_monthly_day_clamping(self):
        assert add_steps(datetime(2014, 1, 31), 1, Granularity.MONTHLY) == datetime(2014, 2, 28)
        assert add_steps(datetime(2016, 1, 31), 1, Granularity.MONTHLY) == datetime(2016, 2, 29)

    def test_misaligned_timestamps_rejected(self):
        with pytest.raises(DataError):
            steps_between(Granularity.DAILY, datetime(2014, 1, 1), datetime(2014, 1, 2, 12))


class TestLoadJsonl:
    def test_schema_example(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [
            {"id": "a", "start": "2014-01-01T00:00:00", "freq": "H",
             "target": [1, 2, None], "cat": 0},
        ])
        panel = load_jsonl(path)
        s = panel.get("a")
        assert s.n == 3
        assert np.isnan(s.target[2])
        assert s.granularity is Granularity.HOURLY

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            load_jsonl(path)

    def test_negative_target_names_series(self, tmp_path):
        path = write_jsonl(tmp_path / "neg.jsonl", [
            {"id": "bad-one", "start": "2014-01-01T00:00:00", "freq": "D",
             "target": [1, -1], "cat": 0},
        ])
        with pytest.raises(DataError, match="bad-one"):
            load_jsonl(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"id":"a","start":"2014-01-01T00:00:00","freq":"D","target":[1],"cat":0}\n'
            "this is not json\n"
        )
        with pytest.raises(DataError, match=r"broken\.jsonl:2:"):
            load_jsonl(path)

    def test_mixed_granularities_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "mixed.jsonl", [
            {"id": "a", "start": "2014-01-01T00:00:00", "freq": "D", "target": [1], "cat": 0},
            {"id": "b", "start": "2014-01-01T00:00:00", "freq": "H", "target": [1], "cat": 0},
        ])
        with pytest.raises(DataError):
            load_jsonl(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "dup.jsonl", [
            {"id": "a", "start": "2014-01-01T00:00:00", "freq": "D", "target": [1], "cat": 0},
            {"id": "a", "start": "2014-01-02T00:00:00", "freq": "D", "target": [2], "cat": 0},
        ])
        with pytest.raises(DataError, match="duplicate"):
            load_jsonl(path)

    def test_cat_at_limit_rejected(self, tmp_path):
        from panelcast.dataset import CATEGORY_LIMIT

        ok = {"id": "a", "start": "2014-01-01T00:00:00", "freq": "D", "target": [1, 2],
              "cat": CATEGORY_LIMIT - 1}
        assert load_jsonl(write_jsonl(tmp_path / "ok.jsonl", [ok])).category_cardinality == CATEGORY_LIMIT
        big = dict(ok, id="b", cat=10**9)
        with pytest.raises(DataError, match=r"big\.jsonl:2: cat 1000000000 is not below"):
            load_jsonl(write_jsonl(tmp_path / "big.jsonl", [ok, big]))

    @pytest.mark.parametrize("literal", [
        "1" + "0" * 400, "-" + "9" * 400, "true", '"3"', "NaN", "Infinity", "-Infinity",
        "1e400", "[1]", "{}",
    ])
    def test_bad_target_entry_names_its_index(self, tmp_path, literal):
        # Every entry is a finite number or null; the first other one is
        # named, including integers beyond float range.
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id":"a","start":"2014-01-01T00:00:00","freq":"D","target":[1,null,%s,%s]}\n'
            % (literal, literal)
        )
        with pytest.raises(DataError, match=r"bad\.jsonl:1: target\[2\] must be a finite number"):
            load_jsonl(path)

    def test_target_must_be_a_non_empty_array(self, tmp_path):
        for target in ('"abc"', "[]", "5", "null"):
            path = tmp_path / "t.jsonl"
            path.write_text('{"id":"a","start":"2014-01-01T00:00:00","freq":"D","target":%s}\n' % target)
            with pytest.raises(DataError, match="target must be a non-empty array"):
                load_jsonl(path)

    def test_missing_cat_defaults_to_zero(self, tmp_path):
        path = write_jsonl(tmp_path / "nocat.jsonl", [
            {"id": "a", "start": "2014-01-01T00:00:00", "freq": "D", "target": [1, 2]},
        ])
        assert load_jsonl(path).get("a").category == 0


class TestPanelLookup:
    def test_get_by_id_and_unknown_ids(self):
        panel = Panel([make_series(f"s{i}", [1.0, 2.0]) for i in range(5)])
        assert [panel.get(f"s{i}").id for i in (4, 0, 2)] == ["s4", "s0", "s2"]
        for bad in ("s5", "", ["s1"]):
            with pytest.raises(DataError, match="no series with id"):
                panel.get(bad)

    def test_get_is_constant_time(self):
        # A scan would compare ids until the match; the lookup hashes once.
        compared = []

        class Id(str):
            def __eq__(self, other):
                compared.append(other)
                return str.__eq__(self, other)

            __hash__ = str.__hash__

        panel = Panel([make_series(f"s{i}", [1.0]) for i in range(2000)])
        assert panel.get(Id("s1999")).id == "s1999"
        assert len(compared) <= 1


class TestScales:
    def test_simple_mean(self):
        assert compute_scale([2.0, 4.0, 6.0]) == pytest.approx(5.0)

    def test_all_zero(self):
        assert compute_scale([0.0, 0.0]) == pytest.approx(1.0)

    def test_missing_counts_in_divisor(self):
        assert compute_scale([10.0, None, 2.0]) == pytest.approx(5.0)
        assert compute_scale([10.0, np.nan, 2.0]) == pytest.approx(5.0)

    def test_series_scale_whole_series(self):
        s = make_series("x", [1.0, 2.0, 3.0, 6.0])
        assert series_scale(s) == pytest.approx(1.0 + 12.0 / 4)


class TestCovariates:
    def test_weekly_calendar_oracle(self):
        # 2014-01-06 is the Monday of ISO week 2 of 2014.
        s = make_series("w", [1.0] * 4, start=datetime(2014, 1, 6),
                        granularity=Granularity.WEEKLY)
        x = series_features(s, 0, 3)
        names = feature_names(Granularity.WEEKLY)
        assert names == ["age", "week_of_year"]
        assert x[0, 0] == 0.0
        assert x[0, 1] == 2.0
        assert x[1, 1] == 3.0

    def test_age_increments_by_step(self):
        s = make_series("d", [1.0] * 10)
        x = series_features(s, -3, 8)
        assert np.array_equal(x[:, 0], np.arange(-3, 5, dtype=float))

    def test_daily_day_of_week(self):
        s = make_series("d", [1.0] * 10, start=datetime(2014, 1, 6))  # a Monday
        x = series_features(s, 0, 8)
        assert np.array_equal(x[:7, 1], np.arange(7, dtype=float))
        assert x[7, 1] == 0.0

    def test_hourly_two_calendar_features(self):
        s = make_series("h", [1.0] * 30, start=datetime(2014, 1, 1, 22),
                        granularity=Granularity.HOURLY)
        x = series_features(s, 0, 4)
        assert feature_names(Granularity.HOURLY) == ["age", "hour_of_day", "day_of_week"]
        assert list(x[:, 1][:4]) == [22.0, 23.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "start",
        [
            datetime(2015, 12, 31, 21),  # year boundary
            datetime(2016, 2, 28, 23, 30),  # leap day, off-the-hour start
            datetime(2016, 3, 31, 5),  # month boundary
            datetime(2014, 1, 6, 0),
            datetime.fromisoformat("2016-02-29T22:00:00+05:30"),
            datetime.fromisoformat("2021-03-28T01:00:00-07:00"),
        ],
    )
    @pytest.mark.parametrize("granularity", [Granularity.HOURLY, Granularity.DAILY])
    def test_calendar_arithmetic_matches_timestamps(self, start, granularity):
        # Reference: read every feature off the timestamp itself, over
        # offsets before the start and across month, year and leap days.
        s = make_series("c", [1.0] * 5, start=start, granularity=granularity)
        lo, length = -800, 2000
        ref = np.empty((length, len(feature_names(granularity))))
        for j, k in enumerate(range(lo, lo + length)):
            ts = s.timestamp(k)
            ref[j, 0] = k
            ref[j, 1:] = [ts.hour, ts.weekday()] if granularity is Granularity.HOURLY else [ts.weekday()]
        np.testing.assert_array_equal(series_features(s, lo, length), ref)

    def test_monthly_month_of_year(self):
        s = make_series("m", [1.0] * 15, start=datetime(2014, 11, 1),
                        granularity=Granularity.MONTHLY)
        x = series_features(s, 0, 4)
        assert list(x[:, 1]) == [11.0, 12.0, 1.0, 2.0]

    def test_standardized_training_mean_is_zero(self):
        panel = sinusoid_panel(num_series=5, n=40, seed=1)
        spec = WindowSpec(10, 5)
        stats = fit_feature_stats(panel, spec)
        acc = np.zeros(len(stats.names))
        count = 0

        for s in panel:
            lo, hi = placement_bounds(s.n, spec)
            hi_train = lo + _train_placement_count(s.n, spec) - 1
            for start in range(lo, hi_train + 1):
                w = cut_window(s, spec, start, stats)
                acc += w.covariates[0].sum(axis=0)
                count += w.covariates.shape[1]
        assert np.all(np.abs(acc / count) < 1e-6)

    def test_standardize_unit_variance_shape(self):
        panel = sinusoid_panel(num_series=4, n=60, seed=2)
        spec = WindowSpec(14, 7)
        stats = fit_feature_stats(panel, spec)
        x = series_features(panel.get("s0"), 0, 21)
        z = series_features(panel.get("s0"), 0, 21, stats)
        assert z.shape == x.shape
        assert np.allclose(x, z * stats.std + stats.mean)


class TestWindows:
    def test_placement_bounds(self):
        # Under (4, 3) a series of 10 steps admits starts -4 .. 3, one of 3
        # steps only -4, and one of 2 none.
        spec = WindowSpec(4, 3)
        stats = FeatureStats(np.zeros(2), np.ones(2), feature_names(Granularity.DAILY))
        for n, lo, hi in ((10, -4, 3), (3, -4, -4)):
            sampler = WindowSampler(Panel([make_series("x", [1.0] * n)]), spec, stats)
            assert sampler.windows([0, 0], [lo, hi]).starts.tolist() == [lo, hi]
            for start in (lo - 1, hi + 1):
                with pytest.raises(ConfigError, match="outside the valid placement range"):
                    sampler.windows([0], [start])
        with pytest.warns(UserWarning, match="shorter"), pytest.raises(DataError):
            WindowSampler(Panel([make_series("x", [1.0, 1.0])]), spec, stats)

    def test_window_shape_mask_and_scale(self):
        panel = sinusoid_panel(num_series=3, n=30, seed=3)
        spec = WindowSpec(6, 4)
        stats = fit_feature_stats(panel, spec)
        s = panel.get("s1")
        lo, hi = placement_bounds(s.n, spec)
        for start in range(lo, hi + 1):
            w = cut_window(s, spec, start, stats)
            assert w.target.shape == w.mask.shape == (1, spec.total)
            assert w.covariates.shape == (1, spec.total, len(stats.names))
            assert w.scale[0] >= 1.0
            padded = np.flatnonzero(w.mask[0] == MASK_PADDED)
            if padded.size:
                # padding is a prefix: indices 0..k-1 exactly
                assert padded[-1] == padded.size - 1
                assert np.all(w.target[0, padded] == 0.0)
            # the prediction range never runs past recorded data
            assert start + spec.total <= s.n

    def test_fully_padded_conditioning_window(self):
        s = make_series("short", [5.0, 7.0, 9.0])
        spec = WindowSpec(4, 3)
        stats = FeatureStats(np.zeros(2), np.ones(2), feature_names(Granularity.DAILY))
        w = cut_window(s, spec, -4, stats)
        assert np.all(w.mask[0, :4] == MASK_PADDED)
        assert np.all(w.mask[0, 4:] == MASK_OBSERVED)
        assert np.array_equal(w.target[0, 4:], [5.0, 7.0, 9.0])
        assert w.scale[0] == pytest.approx(1.0)  # all-padded conditioning range

    def test_missing_steps_masked(self):
        s = make_series("m", [1.0, np.nan, 3.0, 4.0, 5.0, 6.0])
        spec = WindowSpec(3, 3)
        stats = FeatureStats(np.zeros(2), np.ones(2), feature_names(Granularity.DAILY))
        w = cut_window(s, spec, 0, stats)
        assert w.mask[0, 1] == MASK_MISSING
        assert w.scale[0] == pytest.approx(1.0 + (1.0 + 0.0 + 3.0) / 3)

    def test_out_of_range_placement_rejected(self):
        s = make_series("x", [1.0] * 10)
        spec = WindowSpec(3, 3)
        stats = FeatureStats(np.zeros(2), np.ones(2), feature_names(Granularity.DAILY))
        with pytest.raises(ConfigError):
            cut_window(s, spec, 5, stats)


class TestSampler:
    def test_two_series_weighted_frequencies(self):
        # scales 1 and 3 -> selection probabilities 0.25 / 0.75
        a = make_series("a", [0.0] * 40)            # scale 1
        b = make_series("b", [2.0] * 40)            # scale 3
        panel = Panel([a, b])
        spec = WindowSpec(5, 5)
        stats = fit_feature_stats(panel, spec)
        sampler = WindowSampler(panel, spec, stats)
        n = 100_000
        picks = np.count_nonzero(sampler.draw(pcg64(0, "draw").random((n, 2))).ids == "b")
        assert abs(picks / n - 0.75) < 0.01

    def test_ten_series_chi_square(self):
        rng = np.random.default_rng(5)
        series = []
        for i in range(10):
            level = float(rng.uniform(0.5, 20.0))
            series.append(make_series(f"s{i}", np.full(30, level)))
        panel = Panel(series)
        spec = WindowSpec(5, 5)
        stats = fit_feature_stats(panel, spec)
        sampler = WindowSampler(panel, spec, stats)
        weights = np.array([series_scale(s) for s in series])
        probs = weights / weights.sum()
        n = 100_000
        counts = np.zeros(10)
        for sid in sampler.draw(pcg64(1, "chi").random((n, 2))).ids:
            counts[int(sid[1:])] += 1
        chi2 = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
        # 9 degrees of freedom; 99.9th percentile is 27.88
        assert chi2 < 27.88

    def test_uniform_flag_equalizes_selection(self):
        a = make_series("a", [0.0] * 40)
        b = make_series("b", [30.0] * 40)
        panel = Panel([a, b])
        spec = WindowSpec(5, 5)
        stats = fit_feature_stats(panel, spec)
        sampler = WindowSampler(panel, spec, stats, uniform=True)
        n = 40_000
        picks = np.count_nonzero(sampler.draw(pcg64(2, "uni").random((n, 2))).ids == "b")
        assert abs(picks / n - 0.5) < 0.02

    def test_fixed_seed_identical_sequence(self):
        panel = sinusoid_panel(num_series=4, n=50, seed=6)
        spec = WindowSpec(8, 4)
        stats = fit_feature_stats(panel, spec)
        sampler = WindowSampler(panel, spec, stats)
        seq1 = sampler.draw(pcg64(9, "s").random((20, 2)))
        sampler2 = WindowSampler(panel, spec, stats)
        seq2 = sampler2.draw(pcg64(9, "s").random((20, 2)))
        assert len(seq1) == len(seq2) == 20
        assert np.array_equal(seq1.ids, seq2.ids)
        assert np.array_equal(seq1.starts, seq2.starts)
        assert np.array_equal(seq1.target, seq2.target)
        assert np.array_equal(seq1.covariates, seq2.covariates)

    def test_short_series_skipped_with_warning(self):
        long = make_series("long", [1.0] * 30)
        short = make_series("short", [1.0, 2.0])
        panel = Panel([long, short])
        spec = WindowSpec(5, 5)
        stats = fit_feature_stats(panel, spec)
        with pytest.warns(UserWarning, match="short"):
            sampler = WindowSampler(panel, spec, stats)
        windows = sampler.draw(pcg64(3, "skip").random((50, 2)))
        assert all(sid == "long" for sid in windows.ids)

    def test_single_series_covering_all_placements(self):
        s = make_series("only", [3.0, 1.0, 4.0, 1.0, 5.0])
        panel = Panel([s])
        spec = WindowSpec(2, 5)  # prediction range = series length
        stats = fit_feature_stats(panel, spec)
        sampler = WindowSampler(panel, spec, stats)
        starts = set(sampler.draw(pcg64(4, "all").random((300, 2))).starts.tolist())
        assert starts == {-2}  # only one valid placement
        w = cut_window(s, spec, -2, stats)
        assert np.all(w.mask[0, :2] == MASK_PADDED)
        assert np.all(w.target[0, :2] == 0.0)

    def test_draw_matches_scalar_reference(self):
        # Uneven lengths, and a series too short to draw from. The scales
        # 3, 29, 1 and 31 sum to 64, so u = 3/64 and 32/64 land exactly on
        # a cumulative weight, where a draw picks the next series.
        series = [
            make_series("a", np.full(30, 2.0)),
            make_series("short", [1.0, 2.0]),
            make_series("b", np.arange(57.0)),
            make_series("c", [0.0] * 12),
            make_series("d", np.full(90, 30.0)),
        ]
        panel = Panel(series)
        spec = WindowSpec(6, 4)
        with pytest.warns(UserWarning, match="short"):
            sampler = WindowSampler(panel, spec, fit_feature_stats(panel, spec))
        drawable = [s for s in series if s.id != "short"]
        cum = np.cumsum([series_scale(s) for s in drawable])
        lo = [placement_bounds(s.n, spec)[0] for s in drawable]
        n_train = [_train_placement_count(s.n, spec) for s in drawable]

        def reference(u0, u1):
            # One weighted choice, then one uniform placement, as scalars.
            i = int(np.searchsorted(cum, u0 * cum[-1], side="right"))
            return drawable[i].id, lo[i] + min(int(u1 * n_train[i]), n_train[i] - 1)

        top = 1.0 - 2.0**-53
        u = np.vstack([
            np.random.default_rng(11).random((2000, 2)),
            [[0.0, 0.0], [0.0, top], [top, 0.0], [top, top], [3 / 64, 0.5], [0.5, 0.5]],
        ])
        drawn = sampler.draw(u)
        got = list(zip(drawn.ids, drawn.starts.tolist()))
        assert got == [reference(u0, u1) for u0, u1 in u.tolist()]

    def test_placements_cover_training_range(self):
        series = [make_series("a", [1.0] * 7), make_series("b", [1.0] * 30)]
        panel = Panel(series)
        spec = WindowSpec(2, 3)
        sampler = WindowSampler(panel, spec, fit_feature_stats(panel, spec))
        starts = {s.id: set() for s in series}
        drawn = sampler.draw(pcg64(1, "ints").random((5000, 2)))
        for sid, start in zip(drawn.ids, drawn.starts.tolist()):
            starts[sid].add(start)
        for s in series:
            lo = placement_bounds(s.n, spec)[0]
            assert starts[s.id] == set(range(lo, lo + _train_placement_count(s.n, spec)))

    def test_validation_windows_chronological(self):
        panel = sinusoid_panel(num_series=3, n=60, seed=7)
        spec = WindowSpec(10, 5)
        stats = fit_feature_stats(panel, spec)
        sampler = WindowSampler(panel, spec, stats)
        val = sampler.validation_windows()
        assert len(val)

        for sid, start in zip(val.ids, val.starts):
            s = panel.get(sid)
            lo, hi = placement_bounds(s.n, spec)
            hi_train = lo + _train_placement_count(s.n, spec) - 1
            assert start > hi_train  # strictly after every training placement


class TestVelocityHistogram:
    def test_identical_series_single_bucket(self):
        panel = Panel([make_series(f"s{i}", [7.0] * 10) for i in range(5)])
        rows = velocity_histogram(panel)
        assert len(rows) == 1
        assert rows[0][1] == 5

    def test_two_bucket_edges(self):
        panel = Panel([
            make_series("zero", [0.0] * 10),
            make_series("big", [99.0] * 10),
        ])
        rows = velocity_histogram(panel)
        edges = [edge for edge, _ in rows]
        assert math.isclose(edges[0], 0.0)        # log10(1 + 0) = 0
        assert math.isclose(edges[-1], 2.0)       # log10(1 + 99) = 2
        assert all(count == 1 for _, count in rows)

    def test_counts_sum_to_series_count(self):
        panel = sinusoid_panel(num_series=13, n=30, seed=8)
        rows = velocity_histogram(panel)
        assert sum(count for _, count in rows) == 13


class TestShiftInvariance:
    def test_shifted_panel_identical_windows(self):
        # Shifting every series by one full season moves absolute time but
        # leaves age and calendar features identical, so the windows (and
        # therefore any training run) must be bit-identical.
        base = sinusoid_panel(num_series=4, n=50, seed=9)
        shifted = Panel([
            TimeSeries(s.id, add_steps(s.start, 7, s.granularity), s.granularity,
                       s.target.copy(), s.category)
            for s in base
        ])
        spec = WindowSpec(8, 4)
        stats_a = fit_feature_stats(base, spec)
        stats_b = fit_feature_stats(shifted, spec)
        assert np.array_equal(stats_a.mean, stats_b.mean)
        assert np.array_equal(stats_a.std, stats_b.std)
        for s in base:
            lo, hi = placement_bounds(s.n, spec)
            for start in (lo, 0, hi):
                wa = cut_window(s, spec, start, stats_a)
                wb = cut_window(shifted.get(s.id), spec, start, stats_b)
                assert np.array_equal(wa.target, wb.target)
                assert np.array_equal(wa.covariates, wb.covariates)
                assert np.array_equal(wa.scale, wb.scale)

    def test_shifted_panel_identical_training_loss(self):
        from panelcast.trainer import TrainConfig, train

        base = sinusoid_panel(num_series=4, n=50, seed=10)
        shifted = Panel([
            TimeSeries(s.id, add_steps(s.start, 7, s.granularity), s.granularity,
                       s.target.copy(), s.category)
            for s in base
        ])
        cfg = TrainConfig(
            likelihood="gaussian", conditioning_length=8, prediction_length=4,
            num_layers=1, hidden_units=8, embedding_dim=2, batch_size=8,
            learning_rate=1e-2, max_batches=12, patience=3,
            windows_per_epoch=32, seed=3,
        )
        _, log_a = train(base, cfg)
        _, log_b = train(shifted, cfg)
        assert [r[:7] for r in log_a.rows] == [r[:7] for r in log_b.rows]  # wall-clock excluded


class TestPanelValidation:
    def test_empty_panel_rejected(self):
        with pytest.raises(DataError):
            Panel([])

    def test_all_missing_series_rejected(self):
        with pytest.raises(DataError):
            make_series("gone", [np.nan, np.nan])

    def test_integer_requirement_for_counts(self):
        panel = Panel([make_series("f", [1.0, 2.5, 3.0])])
        with pytest.raises(DataError, match=r"'f': target\[1\] = 2.5 is not an integer"):
            panel.require_integer_targets()

    def test_counts_above_2_53_rejected(self):
        # 2**53 is the largest count float64 holds exactly.
        Panel([make_series("edge", [np.nan, 2.0**53, 0.0])]).require_integer_targets()
        panel = Panel([make_series("ok", [3.0]), make_series("big", [1.0, np.nan, 2.0**53 + 2])])
        with pytest.raises(DataError, match=r"'big': target\[2\] = 9007199254740994.0 is above"):
            panel.require_integer_targets()

    def test_category_cardinality(self):
        panel = Panel([
            make_series("a", [1.0], category=0),
            make_series("b", [1.0], category=3),
        ])
        assert panel.category_cardinality == 4
