"""Forecast accuracy metrics over spans [L, L+S): quantile loss and
rho-risk, ND and normalized RMSE from the median forecast, Coverage(p),
and rolling backtests that re-condition a trained model without
retraining it.

A span's forecast value is the rho-quantile of per-path span sums; for
single-step spans this equals the per-step quantile, so those metrics
work from quantile arrays alone and longer spans need the sample
matrices.

Every metric is a sum or a count over series, so a report is one pass.
Forecast records are read, aligned and folded one at a time: a pair's
span values are derived once, from its sample columns sorted once, and
added in pair order to running sums (quantile loss, span truth and
hits per span and level, and one truth and one median row per series
for ND and RMSE), and then its sample matrix is dropped. Memory is set
by series x horizon, not by the sample paths, and each sum is the one a
loop over all the pairs would make.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dataset import Panel, TimeSeries, steps_between
from .errors import ConfigError, DataError, MetricError
from .forecaster import ForecastRecord, forecast_panel, nearest_rank, record_from_samples
from .rng import derive_seed

__all__ = [
    "MetricReport",
    "quantile_loss",
    "align",
    "rho_risk",
    "nd_rmse",
    "report_json",
    "evaluate",
    "rolling_backtest",
]


def quantile_loss(z, z_hat, rho):
    """2*(z_hat - z)*(rho*I[z_hat > z] - (1 - rho)*I[z_hat <= z]); >= 0.
    Elementwise over broadcast arrays."""
    if not (np.min(rho) > 0.0 and np.max(rho) < 1.0):
        raise MetricError(f"quantile level must be in (0, 1), got {rho}")
    d = z_hat - z
    return np.where(z_hat > z, 2.0 * d * rho, -2.0 * d * (1.0 - rho))


def align(panel: Panel, records):
    """Match forecast records to ground truth by id and start timestamp,
    yielding one (record, truth) pair at a time; truth is the record's
    (horizon,) realized targets, NaN where missing. A record that repeats
    an earlier one's id and start is a MetricError."""
    seen = set()
    for rec in records:
        try:
            series = panel.get(rec.series_id)
        except DataError:
            raise MetricError(f"forecast id {rec.series_id!r} has no series in the truth panel") from None
        if (rec.series_id, rec.start) in seen:
            raise MetricError(
                f"series {rec.series_id!r}: the forecasts repeat the record starting "
                f"{rec.start.isoformat()}"
            )
        seen.add((rec.series_id, rec.start))
        offset = steps_between(series.granularity, series.start, rec.start)
        h = rec.horizon
        if offset < 0 or offset + h > series.n:
            raise MetricError(
                f"series {rec.series_id!r}: truth covers steps [0, {series.n}) but the "
                f"forecast needs [{offset}, {offset + h})"
            )
        yield rec, series.target[offset : offset + h].copy()
    if not seen:
        raise MetricError("nothing to evaluate: no forecast records")


def _level_array(rec: ForecastRecord, rho: float) -> np.ndarray:
    for level, arr in rec.quantile_values.items():
        if level == rho or abs(level - rho) < 1e-12:
            return arr
    raise MetricError(
        f"series {rec.series_id!r}: forecast has no {rho} quantile "
        f"(available: {sorted(rec.quantile_values)})"
    )


def rho_risk(loss_sum: float, truth_sum: float, lead: int, span: int) -> float:
    """A span's summed quantile losses normalized by its summed truth."""
    if truth_sum == 0.0:
        raise MetricError(f"rho-risk undefined: span truth sums to 0 over [{lead}, {lead + span})")
    return float(loss_sum) / float(truth_sum)


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


def report_json(doc) -> str:
    """A report document as one canonical JSON line."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


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
        return report_json(self.to_json_obj())

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


class _Fold:
    """A report's running sums over the pairs added so far, in order.

    Column e of the sums is the span self.spans[e]: the horizon's single
    steps [e, e + 1) first (all(horizon) reads every one), then each
    distinct longer requested span. Adding the pairs in order makes each
    sum the one a loop over them would make, bit for bit.
    """

    def __init__(self, spans, levels, horizon: int):
        self.requested = list(spans)
        self.levels = [float(v) for v in levels]
        if not self.levels:
            raise MetricError("at least one quantile level is required")
        for lead, span in self.requested:
            if lead < 0 or span < 1 or lead + span > horizon:
                raise MetricError(f"span [{lead}, {lead + span}) does not fit horizon {horizon}")
        self.horizon, self.n = horizon, 0
        self.spans = [(lead, 1) for lead in range(horizon)]
        self.spans += dict.fromkeys(s for s in self.requested if s[1] > 1)
        self.rho = np.array(self.levels)[:, None]
        self.truth_sum = np.zeros(len(self.spans))
        self.loss_sum = np.zeros((len(self.levels), len(self.spans)))
        self.hits = np.zeros(self.loss_sum.shape, dtype=np.int64)
        self.truth_rows, self.median_rows = [], []  # for ND and RMSE

    # Finite values can still overflow a metric (a residual past 1e154
    # squares to inf): report names such a metric in a DataError instead.
    @np.errstate(over="ignore", invalid="ignore")
    def add(self, rec: ForecastRecord, truth: np.ndarray, *also: _Fold) -> None:
        """Fold one pair into this fold and into each fold of `also`, which
        has the same spans, levels and horizon: the pair's span values are
        derived once."""
        h, longer = self.horizon, self.spans[self.horizon :]
        if truth.shape[0] != h:
            raise MetricError("forecast horizons differ between series")
        z = np.concatenate([truth, [truth[lead : lead + span].sum() for lead, span in longer]])
        if np.isnan(z).any():
            lead, span = next((lead, span) for lead, span in self.requested + self.spans
                              if np.isnan(truth[lead : lead + span]).any())
            raise MetricError(
                f"series {rec.series_id!r}: missing ground truth inside span "
                f"[{lead}, {lead + span})"
            )
        if rec.samples is None:
            if longer:
                raise MetricError(
                    f"series {rec.series_id!r}: spans longer than one step need the "
                    "sample matrix; re-run prediction with --emit-samples"
                )
            z_hat = np.stack([_level_array(rec, rho) for rho in self.levels])
            median = _level_array(rec, 0.5)
        else:
            # Every step's column and every longer span's path sums, sorted
            # once: row nearest_rank(rho) holds each span's rho-quantile.
            mat = rec.samples
            ranked = np.sort(np.column_stack(
                [mat] + [mat[:, lead : lead + span].sum(axis=1) for lead, span in longer]), axis=0)
            z_hat = np.stack([nearest_rank(ranked, rho) for rho in self.levels])
            median = nearest_rank(ranked[:, :h], 0.5).copy()  # a view would keep ranked
        loss = quantile_loss(z, z_hat, self.rho)
        hits = z_hat > z
        for fold in (self, *also):
            fold.loss_sum += loss
            fold.truth_sum += z
            fold.hits += hits
            fold.truth_rows.append(truth)
            fold.median_rows.append(median)
            fold.n += 1

    @np.errstate(over="ignore", invalid="ignore")
    def report(self) -> MetricReport:
        column = {span: e for e, span in enumerate(self.spans)}

        def risk(i, lead, span):
            e = column[lead, span]
            return rho_risk(self.loss_sum[i, e], self.truth_sum[e], lead, span)

        risks, cov = {}, {}
        for lead, span in self.requested:
            e = column[lead, span]
            cov[f"{lead}:{span}"] = {repr(rho): int(self.hits[i, e]) / self.n
                                     for i, rho in enumerate(self.levels)}
            for i, rho in enumerate(self.levels):
                risks[f"{lead}:{span}@{rho}"] = risk(i, lead, span)
        h = self.horizon
        all_k = {f"all({h})@{rho}": float(np.mean([risk(i, lead, 1) for lead in range(h)]))
                 for i, rho in enumerate(self.levels)}
        nd, rmse = nd_rmse(np.stack(self.truth_rows), np.stack(self.median_rows))
        named = {"ND": nd, "RMSE": rmse, **{f"risk[{key}]": v for key, v in risks.items()}, **all_k}
        for name, value in named.items():
            if not np.isfinite(value):
                raise DataError(
                    f"{name} is {value}: the truth or forecast values are too large to score")
        return MetricReport(self.requested, self.levels, risks, all_k, nd, rmse, cov, self.n)


def evaluate(pairs, spans, levels) -> MetricReport:
    """Full report over aligned (record, truth) pairs, folded one at a
    time: risks and coverage per requested span and level, all(horizon)
    marginal averages, ND and RMSE. A metric that is not finite is a
    DataError naming it."""
    pairs = iter(pairs)
    first = next(pairs, None)
    if first is None:
        raise MetricError("nothing to evaluate: no aligned pairs")
    fold = _Fold(spans, levels, first[1].shape[0])
    for rec, truth in chain([first], pairs):
        fold.add(rec, truth)
    return fold.report()


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
    reports, pooled = [], _Fold(spans, levels, horizon)
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
                TimeSeries(series.id, series.start, series.granularity, history, series.category)
            )
        forecasts = forecast_panel(
            truncated, params, num_samples=num_samples, seed=derive_seed(seed, "rolling", w)
        )
        window = _Fold(spans, levels, horizon)
        # forecasts first, so that the forecast ends, and frees its
        # decode state and histories, before the next window is cut
        for fc, series in zip(forecasts, panel):
            rec = record_from_samples(fc, levels, emit_samples=True)
            cut = series.n - back
            window.add(rec, series.target[cut : cut + horizon].copy(), pooled)
        reports.append(window.report())
    return reports, pooled.report()
