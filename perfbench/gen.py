"""Deterministic input generators for the benchmark workloads.

Every generator is driven only by the workload seed (plus a fixed tag per
panel kind), draws from its own numpy PCG64 stream, and writes JSON lines
with a fixed key order, so the same seed gives byte-identical files.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta

import numpy as np

START = datetime(2021, 1, 4)

# One tag per generated artifact, so that changing one panel's recipe
# never reshuffles another's random numbers.
_TAGS = {"skewed": 1, "hourly": 2, "wide": 3, "wide-forecasts": 4}


def _rng(seed: int, kind: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([int(seed), _TAGS[kind]]))


def _row(sid: str, freq: str, target, cat: int) -> str:
    obj = {"id": sid, "start": START.isoformat(), "freq": freq, "target": target, "cat": cat}
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _levels(rng, num_series: int, lo: float, hi: float) -> np.ndarray:
    """Series levels 10**x with x stratified over [lo, hi): one draw per
    equal slice, so every seed covers the range the same way."""
    x = lo + (hi - lo) * (np.arange(num_series) + rng.uniform(size=num_series)) / num_series
    return 10.0 ** x


def skewed_counts(seed: int, num_series: int, length: int, num_cats: int = 5):
    """Daily negative-binomial counts whose series means span three orders
    of magnitude (levels stratified over 10**[0, 3)), with a weekly cycle
    and a slow trend.

    Returns a list of (id, values, cat) with integer values.
    """
    rng = _rng(seed, "skewed")
    t = np.arange(length)
    out = []
    for i, level in enumerate(_levels(rng, num_series, 0.0, 3.0)):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.1, 0.5)
        trend = 1.0 + rng.uniform(-0.3, 0.3) * t / length
        alpha = rng.uniform(0.02, 0.15)
        mean = level * trend * (1.0 + amp * np.sin(2.0 * np.pi * t / 7.0 + phase))
        lam = rng.gamma(1.0 / alpha, alpha * mean)
        values = rng.poisson(lam).astype(np.int64)
        out.append((f"n{i:05d}", values, int(rng.integers(num_cats))))
    return out


def hourly_real(seed: int, num_series: int, length: int, protect: int,
                missing: float = 0.05, num_cats: int = 4):
    """Hourly non-negative real values with daily and weekly cycles.

    About `missing` of the steps before the last `protect` are NaN; the
    protected tail, which holds the scored windows, is always observed.
    Returns a list of (id, values, cat) with NaN marking missing steps.
    """
    rng = _rng(seed, "hourly")
    t = np.arange(length)
    out = []
    for i, level in enumerate(_levels(rng, num_series, 1.0, 2.5)):
        day = 1.0 + rng.uniform(0.2, 0.6) * np.sin(2.0 * np.pi * t / 24.0 + rng.uniform(0, 6.3))
        week = 1.0 + rng.uniform(0.0, 0.3) * np.sin(2.0 * np.pi * t / 168.0 + rng.uniform(0, 6.3))
        noise = rng.normal(0.0, 0.05, length)
        values = np.round(np.maximum(level * day * week * (1.0 + noise), 0.0), 3)
        holes = rng.random(length) < missing
        holes[length - protect:] = False
        values[holes] = np.nan
        out.append((f"h{i:05d}", values, int(rng.integers(num_cats))))
    return out


def wide_daily(seed: int, num_series: int, length: int, horizon: int):
    """A wide daily panel plus quantile-only forecast records for its last
    `horizon` steps (levels 0.1/0.5/0.9), like a third-party forecaster's.

    Returns (series, forecasts): series as (id, values, cat) with integer
    values; forecasts as (id, ISO start timestamp, {level: track}).
    """
    rng = _rng(seed, "wide")
    frng = _rng(seed, "wide-forecasts")
    t = np.arange(length)
    series, forecasts = [], []
    for i, level in enumerate(_levels(rng, num_series, 0.5, 2.5)):
        mean = level * (1.0 + 0.3 * np.sin(2.0 * np.pi * t / 7.0 + rng.uniform(0, 6.3)))
        values = rng.poisson(mean).astype(np.int64)
        sid = f"w{i:06d}"
        series.append((sid, values, 0))
        tail = mean[length - horizon:]
        bias = frng.uniform(0.8, 1.2)
        q50 = np.round(tail * bias, 2)
        spread = np.sqrt(tail) * 1.2816
        tracks = {
            0.1: np.round(np.maximum(q50 - spread, 0.0), 2),
            0.5: q50,
            0.9: np.round(q50 + spread, 2),
        }
        start = (START + timedelta(days=length - horizon)).isoformat()
        forecasts.append((sid, start, tracks))
    return series, forecasts


def _target_list(values):
    if values.dtype.kind in "iu":
        return values.tolist()
    return [None if np.isnan(v) else float(v) for v in values]


def write_panel(path: str, freq: str, rows, length: int = None) -> None:
    """Write (id, values, cat) rows as a panel, keeping the first `length`
    steps of each series when given (a truncated history)."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, values, cat in rows:
            vals = values if length is None else values[:length]
            fh.write(_row(sid, freq, _target_list(vals), cat))


def write_forecasts(path: str, forecasts) -> None:
    """Write quantile-only forecast records in the engine's record format."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, start, tracks in forecasts:
            obj = {
                "id": sid,
                "start": start,
                "num_samples": 0,
                "seed": 0,
                "quantiles": {repr(level): track.tolist() for level, track in tracks.items()},
            }
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
