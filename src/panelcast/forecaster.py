"""Monte Carlo forecasting: encode each series' conditioning range, then
roll its sample paths forward by drawing from the predicted distribution
and feeding the draw back in.

A panel is forecast in row blocks. A block holds whole series with all
their paths, up to ROW_BUDGET rows; a series with more paths than that
fills blocks of its own. Each block encodes its series' conditioning
ranges together, then decodes all of its rows one step at a time.

Draws come from the keyed generator in `rng`: path p of series s at
step t reads the uniforms H(seed, s, p, t, round), and imputation of a
missing conditioning value at step t reads H(seed, s, 0, t, round)
under a separate tag. So path p is the same no matter how many paths
are drawn, which series share its block, or how the panel is split into
blocks, bit for bit: the network computes each row independently of the
other rows of its batch.

Quantiles are empirical nearest-rank: sorted column index ceil(rho*n)-1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .dataset import (
    MASK_MISSING,
    MASK_OBSERVED,
    MASK_PADDED,
    TimeSeries,
    compute_scale,
    raw_features,
)
from .errors import ConfigError, DataError
from .likelihood import draw
from .lstm import LstmState, step_buffers
from .network import ModelParams, decode_step, encode
from .rng import RowKeys, substream

__all__ = [
    "ForecastSamples",
    "QuantileForecast",
    "ForecastRecord",
    "ROW_BUDGET",
    "forecast",
    "forecast_panel",
    "nearest_rank",
    "quantiles",
    "span_aggregate",
    "shuffle_paths",
    "record_from_samples",
    "render_forecasts",
    "read_forecasts",
]

DEFAULT_NUM_SAMPLES = 200

# Rows (series x paths) decoded together. Each decode step's numpy calls
# are amortised over the block, and the block's arrays set the peak
# memory of a forecast, not the panel size; at 400 rows the peak RSS of
# `predict` stays within 1 MiB of a one-series-at-a-time loop.
ROW_BUDGET = 400


@dataclass
class ForecastSamples:
    series_id: str
    start: datetime  # timestamp of the first predicted step
    samples: np.ndarray  # (num_samples, horizon)
    seed: int

    @property
    def num_samples(self) -> int:
        return int(self.samples.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.samples.shape[1])


@dataclass
class QuantileForecast:
    levels: list
    values: np.ndarray  # (len(levels), horizon)


def _conditioning_arrays(series: TimeSeries, params: ModelParams):
    """Last conditioning_length steps, zero-padded in front when the
    series is shorter."""
    c = params.spec.conditioning_length
    n = series.n
    start_offset = n - c
    target = np.zeros(c, dtype=np.float64)
    mask = np.full(c, MASK_PADDED, dtype=np.int8)
    first_real = max(0, -start_offset)
    vals = series.target[max(0, start_offset) : n]
    missing = np.isnan(vals)
    mask[first_real:] = np.where(missing, MASK_MISSING, MASK_OBSERVED)
    target[first_real:] = vals
    if not np.any(mask == MASK_OBSERVED):
        raise DataError(
            f"series {series.id!r}: no observed value in the conditioning range"
        )
    cond_for_scale = target.copy()
    cond_for_scale[mask == MASK_MISSING] = np.nan
    nu = compute_scale(cond_for_scale)
    target[mask == MASK_MISSING] = np.nan
    return start_offset, target, mask, nu


def forecast(
    series: TimeSeries,
    params: ModelParams,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
    horizon: int = 0,
) -> ForecastSamples:
    """Sample paths for the steps after the series' last recorded point;
    see forecast_panel."""
    return next(forecast_panel([series], params, num_samples, seed, horizon))


def forecast_panel(
    series_list,
    params: ModelParams,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
    horizon: int = 0,
):
    """Sample paths for every series, as an iterator of ForecastSamples in
    input order.

    horizon defaults to the model's prediction length. Each series'
    conditioning range is encoded once per block (missing values imputed
    by sampling); all its paths start from that state. The whole panel
    is validated before any forecasting work.
    """
    series_list = list(series_list)
    if num_samples < 1:
        raise ConfigError("num_samples must be at least 1")
    h = horizon if horizon else params.spec.prediction_length
    if h < 1:
        raise ConfigError("horizon must be at least 1")
    for series in series_list:
        if series.granularity is not params.granularity:
            raise DataError(
                f"series {series.id!r} is {series.granularity.value} but the model "
                f"expects {params.granularity.value} data"
            )
        if series.category >= params.category_cardinality:
            raise DataError(
                f"series {series.id!r}: category {series.category} is outside the "
                f"model's {params.category_cardinality} categories"
            )
    return _forecast_blocks(series_list, params, num_samples, seed, h)


def _plan_blocks(num_series: int, num_samples: int) -> list:
    """Blocks of (series index, first path, end path) segments."""
    blocks, current, rows = [], [], 0
    for i in range(num_series):
        if num_samples > ROW_BUDGET:
            if current:
                blocks.append(current)
                current, rows = [], 0
            for p0 in range(0, num_samples, ROW_BUDGET):
                blocks.append([(i, p0, min(p0 + ROW_BUDGET, num_samples))])
            continue
        if rows + num_samples > ROW_BUDGET:
            blocks.append(current)
            current, rows = [], 0
        current.append((i, 0, num_samples))
        rows += num_samples
    if current:
        blocks.append(current)
    return blocks


def _forecast_blocks(series_list, params, num_samples, seed, h):
    pending = []  # path chunks of a series split over several blocks
    for block in _plan_blocks(len(series_list), num_samples):
        members = [series_list[i] for i, _, _ in block]
        chunks = _forecast_block(members, block, params, seed, h)
        for (i, _, p1), chunk in zip(block, chunks):
            pending.append(chunk)
            if p1 == num_samples:
                series = series_list[i]
                samples = pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending = []
                yield ForecastSamples(series.id, series.timestamp(series.n), samples, seed)


def _forecast_block(members, block, params: ModelParams, seed: int, h: int) -> list:
    """Sample matrices (paths, h) for one block's segments."""
    c = params.spec.conditioning_length
    conds = [_conditioning_arrays(series, params) for series in members]
    feats = np.stack(
        [
            params.stats.standardize(raw_features(series, cond[0], c + h))
            for series, cond in zip(members, conds)
        ]
    )
    nu = np.array([cond[3] for cond in conds])
    cats = np.array([series.category for series in members], dtype=np.intp)
    ids = [series.id for series in members]
    state, z_last = encode(
        np.stack([cond[1] for cond in conds]),
        np.stack([cond[2] for cond in conds]),
        feats[:, :c],
        nu,
        cats,
        params,
        RowKeys.for_series(seed, "impute", ids, np.zeros(len(ids))),
    )

    counts = [p1 - p0 for _, p0, p1 in block]
    row_series = np.repeat(np.arange(len(members)), counts)
    keys = RowKeys.for_series(
        seed,
        "path",
        [ids[i] for i in row_series],
        np.concatenate([np.arange(p0, p1) for _, p0, p1 in block]),
    )
    state = LstmState(
        [np.repeat(a, counts, axis=0) for a in state.h],
        [np.repeat(a, counts, axis=0) for a in state.c],
    )
    z_prev = z_last[row_series]
    row_nu = nu[row_series]
    row_cats = cats[row_series]
    buffers = step_buffers(params.layers, row_series.size)
    out = np.empty((row_series.size, h), dtype=np.float64)
    for t in range(h):
        state, mu, disp = decode_step(
            params, state, z_prev, feats[row_series, c + t], row_cats, row_nu, buffers
        )
        z_prev = draw(params.likelihood, mu, disp, keys, t)
        out[:, t] = z_prev
    return np.split(out, np.cumsum(counts)[:-1])


def _as_matrix(samples) -> np.ndarray:
    mat = samples.samples if isinstance(samples, ForecastSamples) else np.asarray(samples)
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise ConfigError("sample matrix must be non-empty and 2-d")
    return mat


def nearest_rank(sorted_values: np.ndarray, rho: float):
    """Empirical rho-quantile of an ascending array: index ceil(rho*n)-1.

    The tiny slack keeps products like 0.9*200 from rounding up a rank.
    """
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"quantile level must be in (0, 1), got {rho}")
    n = sorted_values.shape[0]
    idx = max(0, int(math.ceil(rho * n - 1e-9)) - 1)
    return sorted_values[idx]


def quantiles(samples, levels) -> QuantileForecast:
    """Per-step nearest-rank quantiles at each requested level."""
    mat = _as_matrix(samples)
    levels = [float(v) for v in levels]
    if not levels:
        raise ConfigError("at least one quantile level is required")
    sorted_cols = np.sort(mat, axis=0)
    values = np.stack([nearest_rank(sorted_cols, rho) for rho in levels])
    return QuantileForecast(levels, values)


def span_aggregate(samples, lead: int, span: int, rho: float) -> float:
    """rho-quantile of per-path sums over the span [lead, lead+span)."""
    mat = _as_matrix(samples)
    h = mat.shape[1]
    if lead < 0 or span < 1 or lead + span > h:
        raise ConfigError(
            f"span [{lead}, {lead + span}) does not fit a horizon of {h} steps"
        )
    sums = mat[:, lead : lead + span].sum(axis=1)
    return float(nearest_rank(np.sort(sums), rho))


def shuffle_paths(samples, seed: int):
    """Permute the path dimension independently at each step, destroying
    inter-step correlation while keeping each step's marginal intact."""
    mat = _as_matrix(samples)
    if mat.shape[0] < 2:
        raise ConfigError("shuffling needs at least two sample paths")
    out = np.empty_like(mat)
    for t in range(mat.shape[1]):
        perm = substream(seed, "shuffle", t).permutation(mat.shape[0])
        out[:, t] = mat[perm, t]
    if isinstance(samples, ForecastSamples):
        return ForecastSamples(samples.series_id, samples.start, out, samples.seed)
    return out


@dataclass
class ForecastRecord:
    """One series' forecast as written to the output file."""

    series_id: str
    start: datetime
    quantile_values: dict  # float level -> (horizon,) array
    num_samples: int
    seed: int
    samples: np.ndarray = None  # present only when emitted

    @property
    def horizon(self) -> int:
        first = next(iter(self.quantile_values.values()))
        return int(first.shape[0])

    def to_json_obj(self) -> dict:
        obj = {
            "id": self.series_id,
            "start": self.start.isoformat(),
            "num_samples": self.num_samples,
            "seed": self.seed,
            "quantiles": {
                repr(level): [float(v) for v in vals]
                for level, vals in self.quantile_values.items()
            },
        }
        if self.samples is not None:
            obj["samples"] = [[float(v) for v in row] for row in self.samples]
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ForecastRecord":
        try:
            quant = {
                float(k): np.asarray(v, dtype=np.float64)
                for k, v in obj["quantiles"].items()
            }
            samples = None
            if "samples" in obj:
                samples = np.asarray(obj["samples"], dtype=np.float64)
            return cls(
                obj["id"],
                datetime.fromisoformat(obj["start"]),
                quant,
                int(obj["num_samples"]),
                int(obj["seed"]),
                samples,
            )
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"malformed forecast record: {e}") from None


def record_from_samples(fc: ForecastSamples, levels, emit_samples: bool = False) -> ForecastRecord:
    q = quantiles(fc, levels)
    return ForecastRecord(
        fc.series_id,
        fc.start,
        {level: q.values[i] for i, level in enumerate(q.levels)},
        fc.num_samples,
        fc.seed,
        fc.samples if emit_samples else None,
    )


def render_forecasts(records) -> str:
    """The forecast file body: one canonical JSON line per record."""
    return "".join(
        json.dumps(rec.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n"
        for rec in records
    )


def read_forecasts(path):
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from None
            records.append(ForecastRecord.from_json_obj(obj))
    if not records:
        raise DataError(f"{path}: no forecast records")
    return records
