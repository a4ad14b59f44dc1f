"""Shared fixtures: synthetic panels and small trained models."""

import base64
import json
import math
from collections import namedtuple
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from panelcast.dataset import (
    CATEGORY_LIMIT,
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
    text_lines,
)
from panelcast.errors import ConfigError, DataError, MetricError
from panelcast.evaluator import MetricReport, _level_array, nd_rmse
from panelcast.forecaster import ForecastSamples, nearest_rank
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
# A larger budget of the same fixed examples, for CI's fuzz step:
# pytest --hypothesis-profile=panelcast-deep tests/test_fuzz.py ...
settings.register_profile("panelcast-deep", settings.get_profile("panelcast"), max_examples=1000)
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
                     hidden_dim, embedding_dim, seed, scaling=True):
    """init_model's model at the engine's former PCG64 weights: each
    block uniform within +-1/sqrt(fan-in) from pcg64(seed, "init",
    block), the heads' w_mu then w_disp from one stream. Biases are
    init_model's."""
    model = init_model(likelihood, spec, stats, granularity, cardinality, num_layers,
                       hidden_dim, embedding_dim, seed, scaling)

    def uniform(block, shape, fan_in):
        return (pcg64(seed, "init", block).random(shape) * 2.0 - 1.0) * (1.0 / np.sqrt(fan_in))

    blocks = {"embedding": uniform("embedding", model.embedding.shape, embedding_dim)}
    for i, layer in enumerate(model.layers):
        blocks[f"lstm{i}.w"] = uniform(f"lstm{i}", layer.w.shape, layer.w.shape[0])
    blocks["head.w_mu"], blocks["head.w_disp"] = uniform("heads", (2, hidden_dim), hidden_dim)
    model.load_blocks({**model.copy_blocks(), **blocks})
    return model


def gradient_gate_case(kind):
    """The batch and model of the acceptance gradient gate: the 12-step
    window at offset 8 of each of two Poisson series, and a one-layer
    model at weights the gate draws itself: the PCG64 init of
    pcg64_init_model, every block then tripled so that every gate works
    in its nonlinear range. The gate's evaluation point thus stays put
    when the engine's initialisation changes."""
    rng = np.random.default_rng(0)
    panel = Panel([TimeSeries(f"s{i}", START, Granularity.DAILY,
                              rng.poisson(3.0 + 2 * i, 26).astype(float), i) for i in range(2)])
    spec = WindowSpec(6, 6)
    stats = fit_feature_stats(panel, spec)
    windows = stack_windows([cut_window(s, spec, 8, stats) for s in panel])
    model = pcg64_init_model(kind, spec, stats, Granularity.DAILY, 2, 1, 8, 2, 7)
    model.load_blocks({name: 3.0 * arr for name, arr in model.copy_blocks().items()})
    return windows, model


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


# The panel loader as it was before targets were converted and checked as
# whole arrays: one json.loads per line, a per-entry type scan of each
# target list, then the series checks. The reference the engine's
# load_jsonl must equal, in the panel it returns or the DataError it
# raises. It returns (id, start, granularity, target, category) tuples and
# checks series and panel as TimeSeries and Panel did. One deliberate
# difference from its original: an unknown freq code names its line, as
# every other fault of a line does.

def reference_target_values(raw: list, where: str) -> np.ndarray:
    if set(map(type, raw)) <= {int, float, type(None)}:
        try:
            values = np.array(raw, dtype=np.float64)
        except OverflowError:  # an integer beyond float range
            values = None
        if values is not None and np.count_nonzero(~np.isfinite(values)) == raw.count(None):
            return values
    j = next(j for j, v in enumerate(raw) if not _finite_or_null(v))
    raise DataError(f"{where}: target[{j}] must be a finite number or null")


def _finite_or_null(v) -> bool:
    if v is None:
        return True
    if type(v) not in (int, float):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _reference_series(sid, start, gran, target, category):
    observed = target[~np.isnan(target)]
    if observed.size == 0:
        raise DataError(f"series {sid!r}: no observed points")
    if observed.min() < 0.0:
        j = int(np.nanargmin(target))
        raise DataError(f"series {sid!r}: negative target at index {j}")
    with np.errstate(over="ignore"):
        total = observed.sum()
    if not math.isfinite(total):
        raise DataError(f"series {sid!r}: observed targets sum past the float range")
    if category < 0:
        raise DataError(f"series {sid!r}: category must be non-negative")
    return sid, start, gran, target, category


def reference_load_jsonl(path) -> list:
    series = []
    seen_ids = set()
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{where}: invalid JSON: {e}") from None
        if not isinstance(obj, dict):
            raise DataError(f"{where}: expected a JSON object")
        for key in ("id", "start", "freq", "target"):
            if key not in obj:
                raise DataError(f"{where}: missing key {key!r}")
        sid = obj["id"]
        if not isinstance(sid, str) or not sid:
            raise DataError(f"{where}: id must be a non-empty string")
        if sid in seen_ids:
            raise DataError(f"{where}: duplicate series id {sid!r}")
        try:
            start = datetime.fromisoformat(obj["start"])
        except (TypeError, ValueError):
            raise DataError(f"{where}: start is not an ISO-8601 timestamp") from None
        try:
            gran = Granularity.from_code(obj["freq"]) if isinstance(obj["freq"], str) else None
        except DataError as e:
            raise DataError(f"{where}: {e}") from None
        if gran is None:
            raise DataError(f"{where}: freq must be a string code")
        raw = obj["target"]
        if not isinstance(raw, list) or not raw:
            raise DataError(f"{where}: target must be a non-empty array")
        values = reference_target_values(raw, where)
        cat = obj.get("cat", 0)
        if not isinstance(cat, int) or isinstance(cat, bool):
            raise DataError(f"{where}: cat must be an integer")
        if cat >= CATEGORY_LIMIT:
            raise DataError(f"{where}: cat {cat} is not below the limit {CATEGORY_LIMIT}")
        try:
            series.append(_reference_series(sid, start, gran, values, cat))
        except DataError as e:
            raise DataError(f"{where}: {e}") from None
        seen_ids.add(sid)
    if not series:
        raise DataError(f"{path}: empty panel: no series")
    grans = {gran for _, _, gran, _, _ in series}
    if len(grans) > 1:
        raise DataError(f"{path}: mixed granularities in panel: {sorted(g.value for g in grans)}")
    return series


# The list-based metrics the evaluator computed before it folded each pair
# into running sums: every metric and level derives each pair's span
# values again. The reference evaluate's report must equal bit for bit,
# and the metrics the acceptance gates compute. A pair is (record, truth).

def span_aggregate(samples, lead: int, span: int, rho: float) -> float:
    """rho-quantile of per-path sums over the span [lead, lead+span)."""
    mat = np.asarray(samples, dtype=np.float64)
    h = mat.shape[1]
    if lead < 0 or span < 1 or lead + span > h:
        raise ConfigError(f"span [{lead}, {lead + span}) does not fit a horizon of {h} steps")
    return float(nearest_rank(np.sort(mat[:, lead : lead + span].sum(axis=1)), rho))


def _truth_span(pair, lead: int, span: int) -> float:
    rec, truth = pair
    vals = truth[lead : lead + span]
    if vals.shape[0] != span:
        raise MetricError(f"series {rec.series_id!r}: span [{lead}, {lead + span}) exceeds the horizon")
    if np.any(np.isnan(vals)):
        raise MetricError(
            f"series {rec.series_id!r}: missing ground truth inside span [{lead}, {lead + span})")
    return float(vals.sum())


def _forecast_span(pair, lead: int, span: int, rho: float) -> float:
    rec = pair[0]
    if span == 1 and rec.samples is None:
        return float(_level_array(rec, rho)[lead])
    if rec.samples is None:
        raise MetricError(
            f"series {rec.series_id!r}: spans longer than one step need the "
            "sample matrix; re-run prediction with --emit-samples")
    return span_aggregate(rec.samples, lead, span, rho)


def rho_risk(pairs, lead: int, span: int, rho: float) -> float:
    """Sum of span quantile losses normalized by the summed span truth."""
    if not 0.0 < rho < 1.0:
        raise MetricError(f"quantile level must be in (0, 1), got {rho}")
    denom = 0.0
    num = 0.0
    for pair in pairs:
        z = _truth_span(pair, lead, span)
        z_hat = _forecast_span(pair, lead, span, rho)
        num += 2.0 * (z_hat - z) * rho if z_hat > z else -2.0 * (z_hat - z) * (1.0 - rho)
        denom += z
    if denom == 0.0:
        raise MetricError(f"rho-risk undefined: span truth sums to 0 over [{lead}, {lead + span})")
    return num / denom


def all_k_risk(pairs, k: int, rho: float) -> float:
    """Mean of the K single-step marginal risks [L, L+1), L < K."""
    if k < 1:
        raise MetricError("all(K) requires K >= 1")
    return float(np.mean([rho_risk(pairs, lead, 1, rho) for lead in range(k)]))


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


@np.errstate(over="ignore", invalid="ignore")
def reference_report(pairs, spans, levels) -> MetricReport:
    """evaluate's report from the list-based metrics: ND and RMSE from the
    samples' nearest-rank median when a record carries them, else from
    its 0.5 track. A metric that is not finite is a DataError naming it."""
    horizon = pairs[0][1].shape[0]
    levels = [float(v) for v in levels]
    risks, cov = {}, {}
    for lead, span in spans:
        span_cov = coverage(pairs, levels, lead, span)
        cov[f"{lead}:{span}"] = {repr(rho): span_cov[rho] for rho in levels}
        for rho in levels:
            risks[f"{lead}:{span}@{rho}"] = rho_risk(pairs, lead, span, rho)
    all_k = {f"all({horizon})@{rho}": all_k_risk(pairs, horizon, rho) for rho in levels}
    medians = [_level_array(rec, 0.5) if rec.samples is None
               else nearest_rank(np.sort(rec.samples, axis=0), 0.5) for rec, _ in pairs]
    nd, rmse = nd_rmse(np.stack([truth for _, truth in pairs]), np.stack(medians))
    named = {"ND": nd, "RMSE": rmse, **{f"risk[{key}]": v for key, v in risks.items()}, **all_k}
    for name, value in named.items():
        if not np.isfinite(value):
            raise DataError(f"{name} is {value}: the truth or forecast values are too large to score")
    return MetricReport(list(spans), levels, risks, all_k, nd, rmse, cov, len(pairs))
