"""Output checks. Each returns None when the output is right and a one-line
reason when it is not; the benchmark counts every check as one operation.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _nearest_rank_track(samples: np.ndarray, rho: float) -> np.ndarray:
    """Nearest-rank quantile per step, recomputed independently of the
    engine: sorted column index ceil(rho * n) - 1."""
    n = samples.shape[0]
    idx = max(0, math.ceil(round(rho * n, 9)) - 1)
    return np.sort(samples, axis=0)[idx]


# -- train -------------------------------------------------------------------

def train_log(text: str):
    """Rows of (epoch, batches, train_nll, val_nll) from a train log."""
    rows = []
    for line in text.splitlines()[1:]:
        if line.startswith("#") or not line.strip():
            continue
        parts = line.split("\t")
        rows.append((int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])))
    return rows


def check_train_log(text: str, batches: int):
    """Every val NLL is finite, the run did all its batches, and the best
    val NLL is below the first epoch's."""
    try:
        rows = train_log(text)
    except (ValueError, IndexError) as e:
        return f"unreadable train log: {e}"
    if len(rows) < 2:
        return f"train log has {len(rows)} validation rows; expected at least 2"
    vals = [r[3] for r in rows]
    if not all(math.isfinite(v) for v in vals):
        return f"non-finite val NLL in train log: {vals}"
    if rows[-1][1] != batches:
        return f"train stopped after {rows[-1][1]} batches; expected {batches}"
    if not min(vals) < vals[0]:
        return f"val NLL never fell below the first epoch's {vals[0]}: {vals}"
    return None


def best_val_nll(text: str) -> float:
    return min(r[3] for r in train_log(text))


# -- predict -----------------------------------------------------------------

def parse_records(blob: bytes):
    return [json.loads(line) for line in blob.decode("utf-8").splitlines() if line.strip()]


def check_predict_records(records, ids, start: str, horizon: int, levels, num_samples: int):
    """One record per series, in panel order, with the right start,
    horizon, levels and (emitted) sample matrix shape."""
    got = [r.get("id") for r in records]
    if got != list(ids):
        return f"record ids do not match the panel ({len(got)} records, {len(ids)} series)"
    want_levels = sorted(repr(float(v)) for v in levels)
    for r in records:
        if r.get("start") != start:
            return f"{r['id']}: start {r.get('start')!r}, expected {start!r}"
        if sorted(r.get("quantiles", {})) != want_levels:
            return f"{r['id']}: quantile levels {sorted(r.get('quantiles', {}))}"
        if any(len(track) != horizon for track in r["quantiles"].values()):
            return f"{r['id']}: a quantile track is not {horizon} steps long"
        samples = r.get("samples")
        if samples is not None:
            if len(samples) != num_samples or any(len(row) != horizon for row in samples):
                return f"{r['id']}: sample matrix is not {num_samples} x {horizon}"
    return None


def check_monotone(records):
    """Quantile tracks do not decrease across increasing levels."""
    for r in records:
        tracks = [np.asarray(r["quantiles"][k], dtype=float)
                  for k in sorted(r["quantiles"], key=float)]
        for lo, hi in zip(tracks, tracks[1:]):
            if np.any(hi < lo):
                return f"{r['id']}: quantile tracks decrease across levels"
    return None


def check_counts(records):
    """Negative-binomial outputs are non-negative integers."""
    for r in records:
        arrays = [np.asarray(t, dtype=float) for t in r["quantiles"].values()]
        if r.get("samples") is not None:
            arrays.append(np.asarray(r["samples"], dtype=float))
        for a in arrays:
            if np.any(~np.isfinite(a)) or np.any(a < 0) or np.any(a != np.floor(a)):
                return f"{r['id']}: values are not non-negative integers"
    return None


def check_median_rank(records):
    """The emitted 0.5 track equals the nearest-rank median of the emitted
    samples."""
    for r in records:
        if r.get("samples") is None:
            return f"{r['id']}: no emitted samples to recompute the median from"
        want = _nearest_rank_track(np.asarray(r["samples"], dtype=float), 0.5)
        got = np.asarray(r["quantiles"]["0.5"], dtype=float)
        if not np.array_equal(got, want):
            return f"{r['id']}: 0.5 track differs from the nearest-rank median"
    return None


def check_identical(a: bytes, b: bytes, what: str):
    if a != b:
        return f"{what} differ"
    return None


# -- evaluate ----------------------------------------------------------------

def check_report(report: dict, spans, levels, n_series: int):
    """Every requested span and level key is present, risks and errors are
    finite and non-negative, coverage lies in [0, 1]."""
    try:
        risks, cov = report["risks"], report["coverage"]
        for lead, span in spans:
            for rho in levels:
                key = f"{lead}:{span}@{float(rho)}"
                if key not in risks:
                    return f"risk {key} missing from the report"
            span_cov = cov.get(f"{lead}:{span}")
            if span_cov is None or sorted(span_cov) != sorted(repr(float(v)) for v in levels):
                return f"coverage for span {lead}:{span} is missing levels"
        values = list(risks.values()) + list(report["all_k"].values())
        values += [report["nd"], report["rmse"]]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0 for v in values):
            return "a risk or error metric is negative or not finite"
        for span_cov in cov.values():
            if not all(0.0 <= v <= 1.0 for v in span_cov.values()):
                return "a coverage value lies outside [0, 1]"
        if report["n_series"] != n_series:
            return f"report covers {report['n_series']} series, expected {n_series}"
    except (KeyError, TypeError, AttributeError) as e:
        return f"malformed report: {e!r}"
    return None


def mean_risk(report: dict) -> float:
    """Mean scaled quantile risk over the report's spans and levels."""
    return float(np.mean(list(report["risks"].values())))


def mean_all_k(report: dict) -> float:
    """Mean over levels of the report's all(horizon) risk: the single-step
    quantile risk averaged over every step of the horizon."""
    return float(np.mean(list(report["all_k"].values())))


def scaled_quantile_loss(records, truth: dict, history: int) -> float:
    """Quantile loss 2*|pinball| of every emitted level and step, divided
    by the series' mean history level + 1, averaged over series, levels and
    steps, so that every series counts equally whatever its scale."""
    losses = []
    for r in records:
        values = np.asarray(truth[r["id"]], dtype=float)
        z = values[history:]
        scale = float(np.mean(values[:history])) + 1.0
        for level, track in r["quantiles"].items():
            rho, q = float(level), np.asarray(track, dtype=float)
            pinball = np.where(q > z, (q - z) * rho, (z - q) * (1.0 - rho))
            losses.append(2.0 * float(np.mean(pinball)) / scale)
    return float(np.mean(losses))
