"""Monte Carlo forecasting: encode each series' conditioning range, then
roll its sample paths forward by drawing from the predicted distribution
and feeding the draw back in.

A panel is forecast in two phases, one group of up to ROW_BUDGET series
at a time:

1. Encode. The group's series run through their conditioning ranges and
   the first prediction step together, one row per series, on the
   forecast's one float32 lstm.StepSlab (network.encode). Every path of
   a series starts from the same state and first predictive
   distribution, so both are computed once per series; the state is kept
   as arrays.
2. Decode. Row r of a group of series with P paths each is path r % P
   of series r // P, and each run of ROW_BUDGET consecutive rows is one
   block, so a series' paths may span two or more blocks and every
   block but a group's last is full. Each block loads the encoded state
   of each row's series into the slab (feature-major: one column per
   path), draws step 0 from the encoded distribution and steps the slab
   in place from step 1 on, allocating nothing per step. Each step's
   draw judges the rejection rounds of all the block's paths at once.
   A series is yielded once its last row is drawn.

Draws come from the keyed generator in `rng`: path p of series s at
step t reads the uniforms H(seed, s, p, t, round), and imputation of a
missing conditioning value at step t reads H(seed, s, 0, t, round)
under a separate tag. So path p is the same no matter how many paths
are drawn, which series share its group or block, or how the panel is
split, bit for bit: the network computes each row independently of the
other rows of its batch (the float32 slab pads its columns to a multiple
of 16 so that BLAS rounds a row the same at every block size and in
every column).

The LSTM steps in float32 here (lstm.SLAB_DTYPE), as in validation: the
heads read the slab's top h upcast to float64, so the distribution
parameters, the samplers and the quantiles are float64, and training
steps in float64.

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
from .lstm import SLAB_DTYPE, StepSlab
from .network import ModelParams, decode_step, encode
from .rng import RowKeys, tag_key

__all__ = [
    "ForecastSamples",
    "ForecastRecord",
    "ROW_BUDGET",
    "forecast_panel",
    "nearest_rank",
    "quantiles",
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


def _forecast_groups(series_list, params, num_samples, seed, h):
    if not series_list:
        return
    slab = StepSlab(params.layers, min(ROW_BUDGET, len(series_list) * num_samples), SLAB_DTYPE)
    path_key = tag_key(seed, "path")
    for g0 in range(0, len(series_list), ROW_BUDGET):
        group = series_list[g0 : g0 + ROW_BUDGET]
        encoded = _encode_group(group, params, seed, h, path_key, slab)
        # Row r of the group is path r % P of series r // P, and each run
        # of ROW_BUDGET rows is one block, which may start or end inside a
        # series.
        rows = len(group) * num_samples
        pending = []  # drawn chunks of the series the last block ended in
        for r0 in range(0, rows, ROW_BUDGET):
            r = np.arange(r0, min(r0 + ROW_BUDGET, rows))
            out = _decode_block(encoded, r // num_samples, r % num_samples, params, h, slab)
            lo = 0
            # The series whose last row this block draws, in order.
            for i in range(r0 // num_samples, (r0 + r.size) // num_samples):
                hi = (i + 1) * num_samples - r0
                pending.append(out[lo:hi])
                samples = pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending, lo = [], hi
                series = group[i]
                yield ForecastSamples(series.id, series.timestamp(series.n), samples, seed)
            if lo < r.size:
                pending.append(out[lo:])


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


def _decode_block(enc: _EncodedGroup, row_series, paths, params: ModelParams, h: int,
                  slab: StepSlab) -> np.ndarray:
    """Sample paths (rows, h), stepped on `slab`, of the rows path paths[k]
    of series row_series[k] (an index into the group): path p of a series
    reads its series' key on counter path p."""
    keys = enc.keys.take(row_series, paths)
    slab.reset(row_series.size)
    slab.load(enc.state, row_series)
    nu = enc.nu[row_series]
    covariates = enc.covariates[row_series]
    out = np.empty((row_series.size, h), dtype=np.float64)
    out[:, 0] = draw(params.likelihood, enc.mu[row_series], enc.disp[row_series], keys, 0)
    for t in range(1, h):
        mu, disp = decode_step(params, slab, out[:, t - 1], covariates[:, t - 1], nu)
        out[:, t] = draw(params.likelihood, mu, disp, keys, t)
    return out


def nearest_rank(sorted_values: np.ndarray, rho: float):
    """Empirical rho-quantile of an ascending array: index ceil(rho*n)-1.

    The tiny slack keeps products like 0.9*200 from rounding up a rank.
    """
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"quantile level must be in (0, 1), got {rho}")
    n = sorted_values.shape[0]
    idx = max(0, int(math.ceil(rho * n - 1e-9)) - 1)
    return sorted_values[idx]


def quantiles(samples, levels) -> np.ndarray:
    """Per-step nearest-rank quantiles of a (paths, horizon) matrix or a
    ForecastSamples, (len(levels), horizon): one row per level."""
    mat = samples.samples if isinstance(samples, ForecastSamples) else samples
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise ConfigError("sample matrix must be non-empty and 2-d")
    levels = [float(v) for v in levels]
    if not levels:
        raise ConfigError("at least one quantile level is required")
    sorted_cols = np.sort(mat, axis=0)
    return np.stack([nearest_rank(sorted_cols, rho) for rho in levels])


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
            if not all(np.isfinite(v).all() for v in quant.values()):
                raise DataError("malformed forecast record: quantile values must be finite")
            samples = None
            if "samples" in obj:
                samples = np.asarray(obj["samples"], dtype=np.float64)
                h = lengths.pop()
                if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] != h:
                    raise DataError(
                        f"malformed forecast record: samples must be a matrix of at least "
                        f"one row and {h} columns, one per forecast step"
                    )
                if not np.isfinite(samples).all():
                    raise DataError("malformed forecast record: samples must be finite")
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
    levels = [float(v) for v in levels]
    return ForecastRecord(
        fc.series_id,
        fc.start,
        dict(zip(levels, quantiles(fc, levels))),
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
    """The records of a forecast file, parsed and yielded one line at a
    time. A file without a record is a DataError once it is read through."""
    empty = True
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from None
        yield ForecastRecord.from_json_obj(obj)
        empty = False
    if empty:
        raise DataError(f"{path}: no forecast records")
