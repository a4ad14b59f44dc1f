"""Shared fixtures: synthetic panels and small trained models."""

import base64
from collections import namedtuple
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from panelcast.dataset import (
    MASK_MISSING,
    MASK_OBSERVED,
    MASK_PADDED,
    Granularity,
    Panel,
    TimeSeries,
    WindowBatch,
    WindowSampler,
    WindowSpec,
    compute_scale,
    feature_names,
    fit_feature_stats,
)
from panelcast.errors import ConfigError, MetricError
from panelcast.forecaster import ForecastSamples
from panelcast.likelihood import LikelihoodKind
from panelcast.lstm import _slab_columns
from panelcast.network import init_model
from panelcast.rng import _path_key
from panelcast.trainer import TrainConfig, train

START = datetime(2014, 1, 6)
# The benchmark's committed models, read-only.
NEGBIN_FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "negbin.model"

# Property and fuzz tests draw the same examples on every run, take as
# long as they need per example, and stay few enough for the fast suite.
# A test's own @settings still overrides these.
settings.register_profile(
    "panelcast", deadline=None, derandomize=True, max_examples=100, database=None
)
settings.load_profile("panelcast")


# Per-layer hidden and cell vectors, each (B, hidden_dim).
LstmState = namedtuple("LstmState", "h c")


def slab_state(slab):
    """Copies of every layer's h and c on a StepSlab, read from its state()."""
    xh, cells = slab.state()
    h_rows = _slab_columns(slab.layers)[2]
    return LstmState([xh[row : row + layer.hidden_dim].T for row, layer in zip(h_rows, slab.layers)],
                     [c.T for c in cells])


def load_state(slab, state):
    """Write an LstmState into a StepSlab's rows, through its load()."""
    xh, cells = slab.state()
    for row, h, c, cell in zip(_slab_columns(slab.layers)[2], state.h, state.c, cells):
        xh[row : row + h.shape[1]] = h.T
        cell[...] = c.T
    slab.load((xh, cells), np.arange(slab.batch))


def make_series(sid, values, start=START, granularity=Granularity.DAILY, category=0):
    return TimeSeries(sid, start, granularity, np.asarray(values, dtype=np.float64), category)


def sinusoid_panel(num_series=20, n=120, seed=42, amplitude=5.0, noise=0.5):
    """Smooth weekly-periodic series with per-series phase, strictly positive."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    series = []
    for i in range(num_series):
        vals = 10.0 + amplitude * np.sin(2 * np.pi * t / 7 + i) + rng.normal(0, noise, n)
        series.append(make_series(f"s{i}", np.maximum(vals, 0.1), category=i % 4))
    return Panel(series)


def count_panel(num_series=8, n=60, seed=3, mean_lo=2.0, mean_hi=9.0):
    """Integer-valued Poisson panel for the negative binomial likelihood."""
    rng = np.random.default_rng(seed)
    series = []
    for i in range(num_series):
        mean = mean_lo + (mean_hi - mean_lo) * i / max(1, num_series - 1)
        vals = rng.poisson(mean, n).astype(np.float64)
        series.append(make_series(f"c{i}", vals, category=i % 2))
    return Panel(series)


def pcg64(seed, *path):
    """numpy's PCG64 generator of the SeedSequence (seed, path's words):
    the named streams the engine drew its weights and windows from
    before it had one keyed generator, kept for tests that pin those
    draws."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=_path_key(path))
    return np.random.Generator(np.random.PCG64(seq))


def pcg64_init_model(likelihood, spec, stats, granularity, cardinality, num_layers,
                     hidden_dim, embedding_dim, seed):
    """init_model's model at the engine's former PCG64 weights: each
    block uniform within +-1/sqrt(fan-in) from pcg64(seed, "init",
    block), the heads' w_mu then w_disp from one stream. Biases are
    init_model's."""
    model = init_model(likelihood, spec, stats, granularity, cardinality, num_layers,
                       hidden_dim, embedding_dim, seed)

    def uniform(block, shape, fan_in):
        return (pcg64(seed, "init", block).random(shape) * 2.0 - 1.0) * (1.0 / np.sqrt(fan_in))

    blocks = {"embedding": uniform("embedding", model.embedding.shape, embedding_dim)}
    for i, layer in enumerate(model.layers):
        blocks[f"lstm{i}.w"] = uniform(f"lstm{i}", layer.w.shape, layer.w.shape[0])
    blocks["head.w_mu"], blocks["head.w_disp"] = uniform("heads", (2, hidden_dim), hidden_dim)
    model.load_blocks({**model.copy_blocks(), **blocks})
    return model


def placement_bounds(n, spec):
    """(lo, hi), the first and last window start offsets of a series of
    length n, or None when it is shorter than the prediction range."""
    lo = -spec.conditioning_length
    hi = n - spec.total
    return None if hi < lo else (lo, hi)


def cut_window(series, spec, start_offset, stats):
    """The training window of `series` placed at `start_offset`, as a
    one-row WindowBatch cut the way WindowSampler cuts every window."""
    return WindowSampler(Panel([series]), spec, stats).windows([0], [start_offset])


def window_rows(batch, rows):
    """The WindowBatch of rows `rows` (a slice or indices) of `batch`."""
    return WindowBatch(*(getattr(batch, name)[rows] for name in WindowBatch.__dataclass_fields__))


def stack_windows(batches):
    """One WindowBatch of the rows of `batches`, in order."""
    return WindowBatch(*(np.concatenate([getattr(b, name) for b in batches])
                         for name in WindowBatch.__dataclass_fields__))


# The scalar window cut, one series and one window at a time: the
# reference the flat gathers of panelcast.dataset must equal bit for bit.

def cut_series(series, start_offset, length, conditioning_length):
    """Steps [start_offset, start_offset + length) of a series, as the
    network reads them: (target, mask, nu). target holds 0.0 at steps
    before the series start and NaN at missing steps; nu is the scale of
    the first conditioning_length steps. The steps must end by the series
    end."""
    target = np.zeros(length, dtype=np.float64)
    mask = np.full(length, MASK_PADDED, dtype=np.int8)
    first_real = max(0, -start_offset)
    vals = series.target[start_offset + first_real : start_offset + length]
    mask[first_real:] = np.where(np.isnan(vals), MASK_MISSING, MASK_OBSERVED)
    target[first_real:] = vals
    return target, mask, compute_scale(target[:conditioning_length])


def series_features(series, start_offset, length):
    """Unstandardized covariate rows for steps [start_offset,
    start_offset + length) of one series, hourly and daily calendars by
    integer arithmetic on the start, weekly and monthly ones read off
    each timestamp."""
    gran = series.granularity
    out = np.empty((length, len(feature_names(gran))), dtype=np.float64)
    k = np.arange(start_offset, start_offset + length)
    out[:, 0] = k
    start = series.start
    if gran is Granularity.HOURLY:
        hours = start.hour + k
        out[:, 1] = hours % 24
        out[:, 2] = (start.weekday() + hours // 24) % 7
        return out
    if gran is Granularity.DAILY:
        out[:, 1] = (start.weekday() + k) % 7
        return out
    stamps = [series.timestamp(j) for j in range(start_offset, start_offset + length)]
    if gran is Granularity.WEEKLY:
        out[:, 1] = [ts.isocalendar()[1] for ts in stamps]
    else:
        out[:, 1] = [ts.month for ts in stamps]
    return out


def reference_window(series, start_offset, length, conditioning_length, stats,
                     covariate_length=None):
    """(target, mask, nu, covariates) of one window by the scalar cut, its
    covariates standardized a whole array at a time."""
    target, mask, nu = cut_series(series, start_offset, length, conditioning_length)
    x = series_features(series, start_offset, covariate_length or length)
    return target, mask, nu, (x - stats.mean) / stats.std


def permutation(gen, n):
    """Fisher-Yates shuffle of range(n), one gen.random() per swap from
    the top index down."""
    out = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = min(int(gen.random() * (i + 1)), i)
        out[i], out[j] = out[j], out[i]
    return out


def shuffle_paths(samples, seed):
    """Permute the path dimension independently at each step, destroying
    inter-step correlation while keeping each step's marginal intact.
    Takes a (paths, horizon) matrix or ForecastSamples and returns the
    same kind."""
    wrapped = isinstance(samples, ForecastSamples)
    mat = np.asarray(samples.samples if wrapped else samples, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 2:
        raise ConfigError("shuffling needs a 2-d matrix of at least two sample paths")
    out = np.empty_like(mat)
    for t in range(mat.shape[1]):
        out[:, t] = mat[permutation(pcg64(seed, "shuffle", t), mat.shape[0]), t]
    if wrapped:
        return ForecastSamples(samples.series_id, samples.start, out, samples.seed)
    return out


def seasonal_naive(series, horizon, season):
    """Repeat the last observed season; missing source values become 0."""
    if season < 1 or horizon < 1:
        raise MetricError("seasonal_naive needs season >= 1 and horizon >= 1")
    if series.n < season:
        raise MetricError(
            f"series {series.id!r}: history of {series.n} steps is shorter than one "
            f"season of {season}"
        )
    last = series.target[series.n - season :]
    out = last[np.arange(horizon) % season]
    out[np.isnan(out)] = 0.0
    return out


def tiny_model(kind=LikelihoodKind.GAUSSIAN, panel=None, spec=None, *, hidden=8,
               layers=1, embedding_dim=2, cardinality=2, seed=0):
    """Untrained model over a small panel, for structural tests."""
    if panel is None:
        panel = count_panel(num_series=2, n=26)
    if spec is None:
        spec = WindowSpec(6, 6)
    stats = fit_feature_stats(panel, spec)
    model = init_model(kind, spec, stats, panel.granularity, cardinality,
                       layers, hidden, embedding_dim, seed=seed)
    return panel, model


@pytest.fixture(scope="session")
def trained_gaussian():
    """One small Gaussian model shared read-only across tests (trained once)."""
    panel = sinusoid_panel(num_series=12, n=90, seed=42)
    cfg = TrainConfig(
        likelihood="gaussian", conditioning_length=21, prediction_length=7,
        num_layers=2, hidden_units=16, embedding_dim=4, batch_size=32,
        learning_rate=1e-2, max_batches=200, patience=10,
        windows_per_epoch=320, seed=0,
    )
    params, log = train(panel, cfg)
    return panel, params, log


def write_jsonl(path, rows):
    import json

    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    return path


def count_rows(big=None):
    """Three daily count series of 40 steps, categories 0-2, for the negbin
    fixture; the middle one's target[20] set to `big` if given."""
    rng = np.random.default_rng(4)
    rows = [{"id": f"c{i}", "start": START.isoformat(), "freq": "D",
             "target": rng.poisson(5.0 * (i + 1), 40).tolist(), "cat": i} for i in range(3)]
    if big is not None:
        rows[1]["target"][20] = big
    return rows


def set_model_number(doc, path, index, value):
    """Put `value` into a model document at key path `path`: in place of
    the number there (index None), or of entry `index` of the list there
    or of a params block's decoded data."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if index is None:
        parent[path[-1]] = value
    elif isinstance(node, dict):
        data = np.frombuffer(base64.b64decode(node["data"]), dtype="<f8").copy()
        data[index] = value
        node["data"] = base64.b64encode(data.tobytes()).decode("ascii")
    else:
        node[index] = value
