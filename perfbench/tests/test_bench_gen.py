"""The generators are driven only by the seed: the same seed gives
byte-identical files, another seed gives other files."""

import json
import math

import pytest

import gen
from workloads import WORKLOADS


def _files(tmp_path, name, seed, tag="a"):
    wl = WORKLOADS[name]()
    work = tmp_path / tag
    work.mkdir()
    wl.prepare(seed, str(work))
    return {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(tmp_path, name):
    first = _files(tmp_path, name, 7, "a")
    second = _files(tmp_path, name, 7, "b")
    assert first and first == second
    other = _files(tmp_path, name, 8, "c")
    assert other.keys() == first.keys()
    data_files = [k for k in first if k.endswith(".jsonl")]
    assert data_files and all(other[k] != first[k] for k in data_files)


def test_history_is_a_prefix_of_truth(tmp_path):
    files = _files(tmp_path, "predict-negbin-paths", 3)
    hist = [json.loads(line) for line in files["history.jsonl"].splitlines()]
    truth = [json.loads(line) for line in files["truth.jsonl"].splitlines()]
    wl = WORKLOADS["predict-negbin-paths"]
    assert [h["id"] for h in hist] == [t["id"] for t in truth]
    for h, t in zip(hist, truth):
        assert len(h["target"]) == wl.HISTORY
        assert len(t["target"]) == wl.HISTORY + wl.HORIZON
        assert t["target"][: wl.HISTORY] == h["target"]
        assert all(isinstance(v, int) and v >= 0 for v in t["target"])
        assert 0 <= t["cat"] < 5  # within the negbin fixture's cardinality


def test_skewed_levels_span_three_decades():
    rows = gen.skewed_counts(1, 30, 200)
    means = sorted(sum(v) / len(v) for _, v, _ in rows)
    assert means[0] < 3 and means[-1] > 300


def test_hourly_tail_is_observed_and_history_has_holes():
    protect = 72
    rows = gen.hourly_real(5, 6, 600, protect)
    for _, values, cat in rows:
        assert not any(math.isnan(v) for v in values[-protect:])
        assert 0 <= cat < 4
    holes = sum(math.isnan(v) for _, values, _ in rows for v in values[:-protect])
    assert 0.02 < holes / (6 * (600 - protect)) < 0.08


def test_wide_forecast_tracks_do_not_cross():
    _, forecasts = gen.wide_daily(2, 50, 40, 14)
    for _, start, tracks in forecasts:
        assert start == "2021-01-30T00:00:00"
        assert all(a <= b <= c for a, b, c in zip(tracks[0.1], tracks[0.5], tracks[0.9]))
