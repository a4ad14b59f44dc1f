"""Forecast accuracy metrics over spans [L, L+S): quantile loss and
rho-risk, ND and normalized RMSE from the median forecast, Coverage(p),
and rolling backtests that re-condition a trained model without
retraining it.

A span's forecast value is the rho-quantile of per-path span sums; for
single-step spans this equals the per-step quantile, so those metrics
work from quantile arrays alone and longer spans need the sample
matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import Panel, TimeSeries, steps_between
from .errors import ConfigError, DataError, MetricError
from .forecaster import (
    ForecastRecord,
    forecast_panel,
    quantiles,
    record_from_samples,
    span_aggregate,
)
from .rng import derive_seed

__all__ = [
    "EvalPair",
    "MetricReport",
    "quantile_loss",
    "align",
    "rho_risk",
    "all_k_risk",
    "nd_rmse",
    "coverage",
    "evaluate",
    "rolling_backtest",
]


def quantile_loss(z: float, z_hat: float, rho: float) -> float:
    """2*(z_hat - z)*(rho*I[z_hat > z] - (1 - rho)*I[z_hat <= z]); >= 0."""
    if not 0.0 < rho < 1.0:
        raise MetricError(f"quantile level must be in (0, 1), got {rho}")
    if z_hat > z:
        return 2.0 * (z_hat - z) * rho
    return -2.0 * (z_hat - z) * (1.0 - rho)


@dataclass
class EvalPair:
    """One series' forecast aligned with its realized targets."""

    record: ForecastRecord
    truth: np.ndarray  # (horizon,), NaN where the observation is missing


def align(panel: Panel, records) -> list:
    """Match forecast records to ground truth by id and start timestamp."""
    pairs = []
    for rec in records:
        try:
            series = panel.get(rec.series_id)
        except DataError:
            raise MetricError(f"forecast id {rec.series_id!r} has no series in the truth panel") from None
        offset = steps_between(series.granularity, series.start, rec.start)
        h = rec.horizon
        if offset < 0 or offset + h > series.n:
            raise MetricError(
                f"series {rec.series_id!r}: truth covers steps [0, {series.n}) but the "
                f"forecast needs [{offset}, {offset + h})"
            )
        pairs.append(EvalPair(rec, series.target[offset : offset + h].copy()))
    if not pairs:
        raise MetricError("nothing to evaluate: no forecast records")
    return pairs


def _level_array(rec: ForecastRecord, rho: float) -> np.ndarray:
    for level, arr in rec.quantile_values.items():
        if level == rho or abs(level - rho) < 1e-12:
            return arr
    raise MetricError(
        f"series {rec.series_id!r}: forecast has no {rho} quantile "
        f"(available: {sorted(rec.quantile_values)})"
    )


def _truth_span(pair: EvalPair, lead: int, span: int) -> float:
    vals = pair.truth[lead : lead + span]
    if vals.shape[0] != span:
        raise MetricError(
            f"series {pair.record.series_id!r}: span [{lead}, {lead + span}) exceeds the horizon"
        )
    if np.any(np.isnan(vals)):
        raise MetricError(
            f"series {pair.record.series_id!r}: missing ground truth inside span "
            f"[{lead}, {lead + span})"
        )
    return float(vals.sum())


def _forecast_span(pair: EvalPair, lead: int, span: int, rho: float) -> float:
    if span == 1 and pair.record.samples is None:
        return float(_level_array(pair.record, rho)[lead])
    if pair.record.samples is None:
        raise MetricError(
            f"series {pair.record.series_id!r}: spans longer than one step need the "
            "sample matrix; re-run prediction with --emit-samples"
        )
    return span_aggregate(pair.record.samples, lead, span, rho)


def rho_risk(pairs, lead: int, span: int, rho: float) -> float:
    """Sum of span quantile losses normalized by the summed span truth."""
    denom = 0.0
    num = 0.0
    for pair in pairs:
        z = _truth_span(pair, lead, span)
        z_hat = _forecast_span(pair, lead, span, rho)
        num += quantile_loss(z, z_hat, rho)
        denom += z
    if denom == 0.0:
        raise MetricError(f"rho-risk undefined: span truth sums to 0 over [{lead}, {lead + span})")
    return num / denom


def all_k_risk(pairs, k: int, rho: float) -> float:
    """Mean of the K single-step marginal risks [L, L+1), L < K."""
    if k < 1:
        raise MetricError("all(K) requires K >= 1")
    return float(np.mean([rho_risk(pairs, lead, 1, rho) for lead in range(k)]))


def nd_rmse(truth: np.ndarray, p50: np.ndarray):
    """ND = sum|z - zhat| / sum|z|; RMSE = sqrt(mean((z - zhat)^2)) / mean|z|."""
    truth = np.asarray(truth, dtype=np.float64)
    p50 = np.asarray(p50, dtype=np.float64)
    if truth.shape != p50.shape:
        raise MetricError(f"shape mismatch: truth {truth.shape} vs forecast {p50.shape}")
    if np.any(np.isnan(truth)):
        raise MetricError("missing ground truth inside the evaluation range")
    denom = float(np.abs(truth).sum())
    if denom == 0.0:
        raise MetricError("ND/RMSE undefined: ground truth sums to 0")
    nd = float(np.abs(truth - p50).sum()) / denom
    rmse = float(np.sqrt(np.mean((truth - p50) ** 2))) / float(np.mean(np.abs(truth)))
    return nd, rmse


def _median(rec: ForecastRecord) -> np.ndarray:
    """The nearest-rank median of the samples when the record carries
    them, which is predict's 0.5 track, else that track."""
    if rec.samples is None:
        return _level_array(rec, 0.5)
    return quantiles(rec.samples, [0.5]).values[0]


def _pairs_nd_rmse(pairs):
    truth = np.stack([pair.truth for pair in pairs])
    p50 = np.stack([_median(pair.record) for pair in pairs])
    return nd_rmse(truth, p50)


def coverage(pairs, levels, lead: int = 0, span: int = 1) -> dict:
    """Fraction of series whose span-aggregated p-quantile strictly
    exceeds the span-aggregated truth; ties count as not covered."""
    out = {}
    for rho in levels:
        hits = 0
        for pair in pairs:
            if _forecast_span(pair, lead, span, rho) > _truth_span(pair, lead, span):
                hits += 1
        out[float(rho)] = hits / len(pairs)
    return out


@dataclass
class MetricReport:
    spans: list  # [(lead, span), ...]
    levels: list
    risks: dict  # "L:S@rho" -> value
    all_k: dict  # "all(K)@rho" -> value
    nd: float
    rmse: float
    coverage_curve: dict  # "L:S" -> {repr(rho): fraction}
    n_series: int

    def to_json_obj(self) -> dict:
        return {
            "spans": [f"{lead}:{span}" for lead, span in self.spans],
            "levels": [repr(float(v)) for v in self.levels],
            "risks": self.risks,
            "all_k": self.all_k,
            "nd": self.nd,
            "rmse": self.rmse,
            "coverage": self.coverage_curve,
            "n_series": self.n_series,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"

    def to_table(self) -> str:
        lines = [f"series\t{self.n_series}", f"ND\t{self.nd:.6f}", f"RMSE\t{self.rmse:.6f}"]
        for key in sorted(self.risks):
            lines.append(f"risk[{key}]\t{self.risks[key]:.6f}")
        for key in sorted(self.all_k):
            lines.append(f"{key}\t{self.all_k[key]:.6f}")
        for span_key in sorted(self.coverage_curve):
            for level_key in sorted(self.coverage_curve[span_key], key=float):
                val = self.coverage_curve[span_key][level_key]
                lines.append(f"coverage[{span_key}][{level_key}]\t{val:.6f}")
        return "\n".join(lines) + "\n"


# Finite values can still overflow a metric (a residual past 1e154 squares
# to inf): evaluate names such a metric in a DataError instead.
@np.errstate(over="ignore", invalid="ignore")
def evaluate(pairs, spans, levels) -> MetricReport:
    """Full report over aligned pairs: risks and coverage per requested
    span and level, all(horizon) marginal averages, ND and RMSE. A metric
    that is not finite is a DataError naming it."""
    if not pairs:
        raise MetricError("nothing to evaluate: no aligned pairs")
    horizon = pairs[0].truth.shape[0]
    for pair in pairs:
        if pair.truth.shape[0] != horizon:
            raise MetricError("forecast horizons differ between series")
    levels = [float(v) for v in levels]
    risks = {}
    cov = {}
    for lead, span in spans:
        if lead < 0 or span < 1 or lead + span > horizon:
            raise MetricError(f"span [{lead}, {lead + span}) does not fit horizon {horizon}")
        span_cov = coverage(pairs, levels, lead, span)
        cov[f"{lead}:{span}"] = {repr(rho): span_cov[rho] for rho in levels}
        for rho in levels:
            risks[f"{lead}:{span}@{rho}"] = rho_risk(pairs, lead, span, rho)
    all_k = {f"all({horizon})@{rho}": all_k_risk(pairs, horizon, rho) for rho in levels}
    nd, rmse = _pairs_nd_rmse(pairs)
    named = {"ND": nd, "RMSE": rmse, **{f"risk[{key}]": v for key, v in risks.items()}, **all_k}
    for name, value in named.items():
        if not np.isfinite(value):
            raise DataError(
                f"{name} is {value}: the truth or forecast values are too large to score")
    return MetricReport(list(spans), levels, risks, all_k, nd, rmse, cov, len(pairs))


def rolling_backtest(
    panel: Panel,
    params,
    count: int,
    stride: int,
    spans,
    levels,
    num_samples: int,
    seed: int,
):
    """Evaluate `count` forecast windows per series, each `stride` steps
    apart, with the last window ending at the series end. The model is
    re-conditioned on the truncated history for every window and never
    retrained. Returns (per-window reports, pooled report). A count or
    stride below 1, or a span that does not fit the model's prediction
    length, is a ConfigError raised before any forecasting.
    """
    if count < 1 or stride < 1:
        raise ConfigError(f"rolling backtest needs COUNT >= 1 and STRIDE >= 1, got {count}:{stride}")
    horizon = params.spec.prediction_length
    for lead, span in spans:
        if lead < 0 or span < 1 or lead + span > horizon:
            raise ConfigError(
                f"span [{lead}, {lead + span}) does not fit the model's prediction length {horizon}"
            )
    window_pairs = []
    for w in range(count):
        back = (count - 1 - w) * stride + horizon
        truncated = []
        for series in panel:
            cut = series.n - back
            if cut < 1:
                raise MetricError(
                    f"series {series.id!r}: rolling window {w} needs {back + 1} trailing "
                    f"steps but the series has {series.n}"
                )
            history = series.target[:cut]
            if np.all(np.isnan(history)):
                raise MetricError(f"series {series.id!r}: no observed history before window {w}")
            truncated.append(
                TimeSeries(series.id, series.start, series.granularity, history.copy(), series.category)
            )
        forecasts = forecast_panel(
            truncated, params, num_samples=num_samples, seed=derive_seed(seed, "rolling", w)
        )
        pairs = []
        for series, fc in zip(panel, forecasts):
            rec = record_from_samples(fc, levels, emit_samples=True)
            cut = series.n - back
            pairs.append(EvalPair(rec, series.target[cut : cut + horizon].copy()))
        window_pairs.append(pairs)
    reports = [evaluate(pairs, spans, levels) for pairs in window_pairs]
    pooled = evaluate([p for pairs in window_pairs for p in pairs], spans, levels)
    return reports, pooled
