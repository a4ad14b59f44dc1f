"""Monte Carlo forecasting: encode each series' conditioning range, then
roll its sample paths forward by drawing from the predicted distribution
and feeding the draw back in.

A panel is forecast in two phases, one group of up to ROW_BUDGET series
at a time:

1. Encode. The group's series run through their conditioning ranges and
   the first prediction step together, one row per series, on the
   forecast's one lstm.StepSlab (network.encode). Every path of a series
   starts from the same state and first predictive distribution, so both
   are computed once per series; the state is kept as arrays.
2. Decode. The paths are packed into row blocks of whole series with all
   their paths, up to ROW_BUDGET rows; a series with more paths than that
   fills blocks of its own. Each block loads its series' rows of the
   encoded state into the slab (feature-major: one column per path),
   draws step 0 from the encoded distribution and steps the slab in
   place from step 1 on, allocating nothing per step. Each step's draw
   judges the rejection rounds of all the block's paths at once.

Draws come from the keyed generator in `rng`: path p of series s at
step t reads the uniforms H(seed, s, p, t, round), and imputation of a
missing conditioning value at step t reads H(seed, s, 0, t, round)
under a separate tag. So path p is the same no matter how many paths
are drawn, which series share its group or block, or how the panel is
split, bit for bit: the network computes each row independently of the
other rows of its batch (the slab pads its columns to a multiple of 8
so that BLAS rounds a row the same at every block size).

Quantiles are empirical nearest-rank: sorted column index ceil(rho*n)-1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .dataset import conditioning_windows, text_lines
from .errors import ConfigError, DataError
from .likelihood import draw
from .lstm import StepSlab
from .network import ModelParams, decode_step, encode
from .rng import RowKeys, tag_key

__all__ = [
    "ForecastSamples",
    "QuantileForecast",
    "ForecastRecord",
    "ROW_BUDGET",
    "forecast_panel",
    "nearest_rank",
    "quantiles",
    "span_aggregate",
    "record_from_samples",
    "render_forecasts",
    "read_forecasts",
]

DEFAULT_NUM_SAMPLES = 200

# Series encoded together, and rows (series x paths) decoded together.
# Each step's numpy calls are amortised over the rows, and a group's and
# a block's arrays, not the panel size, set the peak memory of a
# forecast.
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
    conditioning range and first prediction step are encoded once
    (missing values imputed by sampling); all its paths start from that
    state. The whole panel is validated before any forecasting work.
    """
    series_list = list(series_list)
    if num_samples < 1:
        raise ConfigError("num_samples must be at least 1")
    h = horizon if horizon else params.spec.prediction_length
    if h < 1:
        raise ConfigError("horizon must be at least 1")
    c = params.spec.conditioning_length
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
        if np.isnan(series.target[max(0, series.n - c) :]).all():
            raise DataError(
                f"series {series.id!r}: no observed value in the conditioning range"
            )
    return _forecast_groups(series_list, params, num_samples, seed, h)


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


def _forecast_groups(series_list, params, num_samples, seed, h):
    if not series_list:
        return
    slab = StepSlab(params.layers, min(ROW_BUDGET, len(series_list) * num_samples))
    path_key = tag_key(seed, "path")
    for g0 in range(0, len(series_list), ROW_BUDGET):
        group = series_list[g0 : g0 + ROW_BUDGET]
        encoded = _encode_group(group, params, seed, h, path_key, slab)
        pending = []  # path chunks of a series split over several blocks
        for block in _plan_blocks(len(group), num_samples):
            chunks = _decode_block(encoded, block, params, h, slab)
            for (i, _, p1), chunk in zip(block, chunks):
                pending.append(chunk)
                if p1 == num_samples:
                    series = group[i]
                    samples = pending[0] if len(pending) == 1 else np.concatenate(pending)
                    pending = []
                    yield ForecastSamples(series.id, series.timestamp(series.n), samples, seed)


@dataclass
class _EncodedGroup:
    """A group's series after the first prediction step, one row each."""

    keys: RowKeys  # path keys, one row per series
    state: tuple  # StepSlab.state() after step 0, embedding columns written
    mu: np.ndarray  # (G,) step-0 distribution parameters
    disp: np.ndarray
    nu: np.ndarray  # (G,)
    covariates: np.ndarray  # (G, h - 1, d), steps 1 .. h - 1


def _encode_group(group, params: ModelParams, seed: int, h: int, path_key,
                  slab: StepSlab) -> _EncodedGroup:
    c = params.spec.conditioning_length
    cut = conditioning_windows(group, params.stats, c, h)
    mu, disp = encode(cut, params, slab,
                      RowKeys.for_series(seed, "impute", cut.ids, np.zeros(len(group))))
    keys = RowKeys.for_ids(path_key, cut.ids, np.zeros(len(group)))
    return _EncodedGroup(keys, slab.state(), mu, disp, cut.scale, cut.covariates[:, c + 1 :])


def _block_rows(enc: _EncodedGroup, block):
    """(series of each row, as indices into the group, and the rows' keys)
    of one block's segments: path p of series i reads its series' key on
    counter path p."""
    counts = [p1 - p0 for _, p0, p1 in block]
    row_series = np.repeat([i for i, _, _ in block], counts)
    paths = np.concatenate([np.arange(p0, p1) for _, p0, p1 in block])
    return row_series, enc.keys.take(row_series, paths)


def _decode_block(enc: _EncodedGroup, block, params: ModelParams, h: int,
                  slab: StepSlab) -> list:
    """Sample matrices (paths, h) for one block's segments, stepped on `slab`."""
    row_series, keys = _block_rows(enc, block)
    slab.reset(row_series.size)
    slab.load(enc.state, row_series)
    nu = enc.nu[row_series]
    covariates = enc.covariates[row_series]
    out = np.empty((row_series.size, h), dtype=np.float64)
    out[:, 0] = draw(params.likelihood, enc.mu[row_series], enc.disp[row_series], keys, 0)
    for t in range(1, h):
        mu, disp = decode_step(params, slab, out[:, t - 1], covariates[:, t - 1], nu)
        out[:, t] = draw(params.likelihood, mu, disp, keys, t)
    return np.split(out, np.cumsum([p1 - p0 for _, p0, p1 in block])[:-1])


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
                repr(level): np.asarray(vals, dtype=np.float64).tolist()
                for level, vals in self.quantile_values.items()
            },
        }
        if self.samples is not None:
            obj["samples"] = np.asarray(self.samples, dtype=np.float64).tolist()
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ForecastRecord":
        try:
            quant = {
                float(k): np.asarray(v, dtype=np.float64)
                for k, v in obj["quantiles"].items()
            }
            lengths = {v.shape[0] if v.ndim == 1 else 0 for v in quant.values()}
            if len(lengths) != 1 or 0 in lengths:
                raise DataError(
                    "malformed forecast record: quantiles must map levels to "
                    "arrays of one common length of at least 1"
                )
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
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
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


def render_forecasts(records):
    """The forecast file body, one canonical JSON line per record, yielded
    a line at a time."""
    for rec in records:
        yield json.dumps(rec.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n"


def read_forecasts(path):
    records = []
    for lineno, line in text_lines(path):
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
