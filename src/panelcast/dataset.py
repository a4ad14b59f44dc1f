"""Panel ingestion, covariates, training windows, and window sampling.

A panel is an ordered collection of same-granularity series. Targets are
float arrays with NaN marking missing observations. Training windows have
a fixed total length; windows may start before the series does, in which
case the prefix is zero-padded and masked. Series are drawn with
probability proportional to their scale, placements uniformly within a
series.

Windows are cut from PanelArrays: the series laid end to end as flat
ragged arrays of targets, masks and standardized covariates, with no
padding to the longest series. Any set of windows (a training draw, the
validation pool, a forecast group's conditioning ranges) is then one
gather per array into a WindowBatch, the arrays the network reads.
Set-up is whole-array work: the sampler's arrays and series weights over
the flat layout, the feature statistics over all series of one length at
once.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "MASK_OBSERVED",
    "MASK_PADDED",
    "MASK_MISSING",
    "CATEGORY_LIMIT",
    "Granularity",
    "TimeSeries",
    "Panel",
    "WindowSpec",
    "WindowBatch",
    "FeatureStats",
    "load_jsonl",
    "add_steps",
    "steps_between",
    "compute_scale",
    "series_scale",
    "features",
    "feature_names",
    "fit_feature_stats",
    "PanelArrays",
    "conditioning_windows",
    "WindowSampler",
    "velocity_histogram",
    "text_lines",
]

MASK_OBSERVED = 0
MASK_PADDED = 1
MASK_MISSING = 2

# Category codes index an embedding table of max(cat) + 1 rows, so a code
# is bounded before it can size one.
CATEGORY_LIMIT = 2**20


class Granularity(str, Enum):
    HOURLY = "hourly"
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"

    @property
    def code(self) -> str:
        return {"hourly": "H", "daily": "D", "weekly": "W", "monthly": "M"}[self.value]

    @classmethod
    def from_code(cls, code: str) -> "Granularity":
        table = {"H": cls.HOURLY, "D": cls.DAILY, "W": cls.WEEKLY, "M": cls.MONTHLY}
        if code not in table:
            raise DataError(f"unknown freq code {code!r}; expected one of H, D, W, M")
        return table[code]


def _add_months(ts: datetime, k: int) -> datetime:
    total = ts.year * 12 + (ts.month - 1) + k
    year, month = divmod(total, 12)
    month += 1
    # Clamp to the target month's last day (e.g. Jan 31 + 1 month -> Feb 28).
    if month == 12:
        last = 31
    else:
        last = (datetime(year, month + 1, 1) - timedelta(days=1)).day
    return ts.replace(year=year, month=month, day=min(ts.day, last))


# Above 2**53 not every integer is a float64, so a count check cannot
# hold there; near 1e308 counts overflow the samplers and lgamma.
_MAX_EXACT_COUNT = 2.0**53

_STEP_DELTA = {
    Granularity.HOURLY: timedelta(hours=1),
    Granularity.DAILY: timedelta(days=1),
    Granularity.WEEKLY: timedelta(weeks=1),
}


def add_steps(ts: datetime, k: int, granularity: Granularity) -> datetime:
    """Timestamp k steps after ts (k may be negative)."""
    if granularity is Granularity.MONTHLY:
        return _add_months(ts, k)
    return ts + k * _STEP_DELTA[granularity]


def steps_between(granularity: Granularity, a: datetime, b: datetime) -> int:
    """Integer step count from a to b; errors if b is off the step grid or
    only one of the two carries a UTC offset."""
    if (a.utcoffset() is None) != (b.utcoffset() is None):
        raise DataError(
            f"timestamp {b.isoformat()} and {a.isoformat()} do not both carry a UTC offset"
        )
    if granularity is Granularity.MONTHLY:
        k = (b.year - a.year) * 12 + (b.month - a.month)
    else:
        delta = (b - a).total_seconds()
        unit = _STEP_DELTA[granularity].total_seconds()
        k = int(round(delta / unit))
    if add_steps(a, k, granularity) != b:
        raise DataError(
            f"timestamp {b.isoformat()} is not a whole number of "
            f"{granularity.value} steps from {a.isoformat()}"
        )
    return k


@dataclass
class TimeSeries:
    """One series; target holds NaN where the observation is missing."""

    id: str
    start: datetime
    granularity: Granularity
    target: np.ndarray
    category: int = 0

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.target.ndim != 1 or self.target.size == 0:
            raise DataError(f"series {self.id!r}: target must be a non-empty sequence")
        observed = self.target[~np.isnan(self.target)]
        if observed.size == 0:
            raise DataError(f"series {self.id!r}: no observed points")
        if np.any(observed < 0.0):
            j = int(np.nanargmin(self.target))
            raise DataError(f"series {self.id!r}: negative target at index {j}")
        if self.category < 0:
            raise DataError(f"series {self.id!r}: category must be non-negative")

    @property
    def n(self) -> int:
        return int(self.target.size)

    def timestamp(self, step: int) -> datetime:
        return add_steps(self.start, step, self.granularity)


@dataclass
class Panel:
    series: list[TimeSeries] = field(default_factory=list)
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.series:
            raise DataError("empty panel: no series")
        grans = {s.granularity for s in self.series}
        if len(grans) > 1:
            raise DataError(f"mixed granularities in panel: {sorted(g.value for g in grans)}")
        self._by_id = {}
        for s in self.series:
            self._by_id.setdefault(s.id, s)

    @property
    def granularity(self) -> Granularity:
        return self.series[0].granularity

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self):
        return iter(self.series)

    def get(self, series_id: str) -> TimeSeries:
        try:
            return self._by_id[series_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id from a bad record
            raise DataError(f"no series with id {series_id!r}") from None

    @property
    def category_cardinality(self) -> int:
        return max(s.category for s in self.series) + 1

    def require_integer_targets(self):
        """Count likelihoods need integer observations that float64 holds
        exactly: at most 2**53."""
        for s in self.series:
            t = s.target
            bad = np.flatnonzero(~np.isnan(t) & ((t != np.floor(t)) | (t > _MAX_EXACT_COUNT)))
            if bad.size:
                j = int(bad[0])
                why = "is above 2**53" if t[j] > _MAX_EXACT_COUNT else "is not an integer"
                raise DataError(f"series {s.id!r}: target[{j}] = {float(t[j])!r} {why}; "
                                "a count likelihood needs integers of at most 2**53")


def _target_values(raw: list, where: str) -> np.ndarray:
    """A JSON target list as float64, NaN for null. Any other entry than a
    finite number or null (bools and strings included) is a DataError
    naming the first such entry."""
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


def text_lines(path):
    """(line number, line) pairs of a UTF-8 text file; bytes that do not
    decode are a DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e}") from None


def load_jsonl(path) -> Panel:
    """Parse a JSON-lines panel file.

    Each line: {"id": str, "start": ISO-8601, "freq": H|D|W|M,
    "target": [num|null, ...], "cat": int (optional, default 0)}.
    """
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
        gran = Granularity.from_code(obj["freq"]) if isinstance(obj["freq"], str) else None
        if gran is None:
            raise DataError(f"{where}: freq must be a string code")
        raw = obj["target"]
        if not isinstance(raw, list) or not raw:
            raise DataError(f"{where}: target must be a non-empty array")
        values = _target_values(raw, where)
        cat = obj.get("cat", 0)
        if not isinstance(cat, int) or isinstance(cat, bool):
            raise DataError(f"{where}: cat must be an integer")
        if cat >= CATEGORY_LIMIT:
            raise DataError(f"{where}: cat {cat} is not below the limit {CATEGORY_LIMIT}")
        try:
            series.append(TimeSeries(sid, start, gran, values, cat))
        except DataError as e:
            raise DataError(f"{where}: {e}") from None
        seen_ids.add(sid)
    if not series:
        raise DataError(f"{path}: empty panel: no series")
    try:
        return Panel(series)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


@dataclass(frozen=True)
class WindowSpec:
    """Fixed window geometry: conditioning steps then prediction steps."""

    conditioning_length: int
    prediction_length: int

    def __post_init__(self):
        if self.conditioning_length < 1 or self.prediction_length < 1:
            raise ConfigError("window lengths must be at least 1")

    @property
    def total(self) -> int:
        return self.conditioning_length + self.prediction_length


def compute_scale(values) -> float:
    """Scale nu = 1 + mean of the conditioning range.

    Missing entries (None or NaN) and padded zeros contribute 0 to the
    sum; the divisor is the full conditioning length.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigError("compute_scale requires at least one conditioning step")
    return 1.0 + float(np.nansum(arr)) / arr.size


def series_scale(series: TimeSeries) -> float:
    """Whole-series scale used as the sampling weight for this series."""
    return compute_scale(series.target)


def feature_names(granularity: Granularity) -> list:
    base = ["age"]
    if granularity is Granularity.HOURLY:
        return base + ["hour_of_day", "day_of_week"]
    if granularity is Granularity.DAILY:
        return base + ["day_of_week"]
    if granularity is Granularity.WEEKLY:
        return base + ["week_of_year"]
    return base + ["month_of_year"]


@dataclass
class FeatureStats:
    """Per-feature mean and standard deviation from the training split."""

    mean: np.ndarray
    std: np.ndarray
    names: list

    def to_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "std": [float(v) for v in self.std],
            "names": list(self.names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureStats":
        return cls(
            np.asarray(d["mean"], dtype=np.float64),
            np.asarray(d["std"], dtype=np.float64),
            list(d["names"]),
        )


# Proleptic Gregorian ordinal of 1970-01-01, day 0 of datetime64[D].
_EPOCH_ORDINAL = 719163


def _iso_week(week: np.ndarray) -> np.ndarray:
    """ISO week number of each week counted from the one of ordinal 1 (a
    Monday): the week of its Thursday, counted from the first Thursday of
    that year."""
    day = (7 * week + 4 - _EPOCH_ORDINAL).astype("datetime64[D]")
    jan1 = day.astype("datetime64[Y]").astype("datetime64[D]")
    return (day - jan1).astype(np.int64) // 7 + 1


def _feature_columns(series_list) -> list:
    """Each covariate as (phase of each series, value of u): at step k of
    series i the feature is value(phase[i] + k). Calendar features are
    integer arithmetic on u, which equals reading them off each
    timestamp: steps are whole hours, days or weeks of wall-clock time,
    or calendar months, as add_steps takes them."""
    gran = series_list[0].granularity
    starts = [s.start for s in series_list]
    columns = [([0] * len(starts), lambda u: u)]  # age
    if gran is Granularity.HOURLY:
        phase = [t.hour + 24 * t.weekday() for t in starts]
        columns += [(phase, lambda u: u % 24), (phase, lambda u: u // 24 % 7)]
    elif gran is Granularity.DAILY:
        columns.append(([t.weekday() for t in starts], lambda u: u % 7))
    elif gran is Granularity.WEEKLY:
        columns.append(([(t.toordinal() - 1) // 7 for t in starts], _iso_week))
    else:
        columns.append(([t.month - 1 for t in starts], lambda u: u % 12 + 1))
    return columns


def features(series_list, first, lengths, stats: FeatureStats = None) -> np.ndarray:
    """Covariate rows (sum(lengths), d) of steps first[i] .. first[i] +
    lengths[i] - 1 of each series i in turn, all of one granularity;
    standardized by `stats` when given.

    Steps may precede the series start (negative age) or run past its end
    (future covariates are known). Every row is computed from its step,
    all rows at once.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    # u at the first row of series i is phase[i] + first[i], then it rises
    # by one a row; built a column at a time to hold one int array.
    u0 = np.asarray(first, dtype=np.int64) - (np.cumsum(lengths) - lengths)
    columns = _feature_columns(series_list)
    out = np.empty((int(lengths.sum()), len(columns)))
    for j, (phase, value) in enumerate(columns):
        u = np.repeat(np.array(phase, dtype=np.int64) + u0, lengths)
        u += np.arange(u.size)
        out[:, j] = value(u)
        del u
        if stats is not None:  # column by column: a (rows, d) broadcast is slow
            out[:, j] -= stats.mean[j]
            out[:, j] /= stats.std[j]
    return out


def _train_placement_count(n, spec: WindowSpec):
    """Training placements of series of length n (an int or an array).

    A window may start from -c, padding the whole conditioning range, to
    n - T, ending exactly at the series end, so the prediction range never
    runs past recorded data; a series shorter than the prediction range
    has no placement. The first ~90 % of the placements train.
    """
    total = np.maximum(n - spec.prediction_length + 1, 0)
    return total - total // 10


def fit_feature_stats(panel: Panel, spec: WindowSpec) -> FeatureStats:
    """Standardization statistics over the training split.

    Each extended step of each series is weighted by the number of
    training windows that contain it, so the standardized feature mean
    over the training windows is exactly zero without enumerating them.
    The series of one length are computed together.
    """
    gran = panel.granularity
    c, T = spec.conditioning_length, spec.total
    n = np.array([s.n for s in panel], dtype=np.int64)
    n_train = _train_placement_count(n, spec)
    keep = np.flatnonzero(n_train > 0)
    if keep.size == 0:
        raise DataError("no series admits a training window under this window spec")
    n, n_train = n[keep], n_train[keep]
    columns = _feature_columns([panel.series[i] for i in keep])
    d = len(columns)
    # sum(x * w) and sum(x * x * w) in the order of summing one series at
    # a time: each series down its steps, one after the next, then the
    # series in panel order. Series of one length are laid out step-major,
    # (steps, series, 2), so one reduction over the steps sums them all in
    # that order. (np.add.reduceat, or a sum along a series' contiguous
    # steps, adds in another order, which shows once the sums pass 2**53.)
    per_series = np.empty((keep.size, 2 * d))
    for length in sorted(set(n.tolist())):  # np.unique would import numpy.ma: +1 MiB RSS
        group = np.flatnonzero(n == length)
        k = np.arange(-c, length)[:, None]
        # Step k lies in the training windows that start in
        # [max(-c, k - T + 1), min(last training start, k)], the same for
        # every series of this length.
        last = int(_train_placement_count(length, spec)) - c - 1
        w = (np.minimum(last, k) - np.maximum(-c, k - (T - 1)) + 1).clip(0).astype(np.float64)
        weighted = np.empty((k.size, group.size, 2))
        for j, (phase, value) in enumerate(columns):
            x = weighted[:, :, 0]  # the feature, then x * w in place
            x[...] = value(np.array(phase, dtype=np.int64)[group] + k)
            np.multiply(x, x, out=weighted[:, :, 1])
            weighted[:, :, 1] *= w
            x *= w
            per_series[group, j], per_series[group, d + j] = weighted.sum(axis=0).T
    sums = per_series.sum(axis=0)
    # Every training window covers T steps: the weights sum to an integer.
    sum_w = float(T * int(n_train.sum()))
    mean = sums[:d] / sum_w
    var = np.maximum(sums[d:] / sum_w - mean * mean, 0.0)
    std = np.sqrt(var)
    std[std < 1e-12] = 1.0
    return FeatureStats(mean, std, feature_names(gran))


@dataclass
class WindowBatch:
    """Windows cut from a panel, one row each, as the network reads them.

    ids holds each row's series id and starts its first step, counted
    from the series start (negative when the window starts before it).
    target (B, L) holds 0.0 at padded steps and NaN at missing steps;
    mask (B, L) says which is which. scale (B,) is nu of the first
    conditioning-length steps. covariates (B, L', d), L' >= L, are
    standardized and may run past the target into known future steps.
    """

    ids: np.ndarray  # (B,) object array of str
    starts: np.ndarray  # (B,) int64
    target: np.ndarray
    mask: np.ndarray  # int8
    scale: np.ndarray
    covariates: np.ndarray
    category: np.ndarray  # (B,) intp

    def __len__(self) -> int:
        return int(self.target.shape[0])

    @property
    def size(self) -> int:
        """Window steps held, rows x target steps (as np.size reads it)."""
        return int(self.target.size)


class PanelArrays:
    """Series laid end to end as flat ragged arrays, so that any set of
    windows is cut by one gather.

    Series i holds its steps first[i] .. n_i + tail - 1 in rows
    offsets[i] .. offsets[i + 1] of `target` (0.0 at steps outside the
    series, NaN at missing ones), `mask` (int8) and `features`
    (standardized covariates, (rows, d)). Nothing is padded to the
    longest series: each array holds sum(n_i + tail - first[i]) rows.
    """

    def __init__(self, series_list, stats: FeatureStats, first, tail: int = 0):
        n = np.array([s.n for s in series_list], dtype=np.int64)
        self.first = np.broadcast_to(np.asarray(first, dtype=np.int64), n.shape).copy()
        lengths = n + tail - self.first
        self.offsets = np.zeros(n.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.offsets[1:])
        self.ids = np.array([s.id for s in series_list], dtype=object)
        self.category = np.array([s.category for s in series_list], dtype=np.intp)
        # Each series' steps before its start, then its steps from
        # max(0, first), then its tail steps: one concatenation per array.
        parts = [(max(0, -f), s.target[max(0, f):]) for s, f in zip(series_list,
                                                                    self.first.tolist())]
        zeros = np.zeros(max(-int(self.first.min()), tail, 0))
        padded = np.full(zeros.size, MASK_PADDED, dtype=np.int8)
        longest = max(values.size for _, values in parts)
        observed = np.full(longest, MASK_OBSERVED, dtype=np.int8)
        self.target = np.concatenate([a for pad, values in parts
                                      for a in (zeros[:pad], values, zeros[:tail])])
        self.mask = np.concatenate([a for pad, values in parts for a in
                                    (padded[:pad], observed[: values.size], padded[:tail])])
        self.mask[np.isnan(self.target)] = MASK_MISSING
        self.features = features(series_list, self.first, lengths, stats)

    def cut(self, rows, starts, length: int, conditioning_length: int,
            covariate_length: int = None) -> WindowBatch:
        """Windows of series `rows` at steps starts .. starts + length - 1,
        covariates through starts + covariate_length - 1 (default: length),
        one gather per array. The steps must lie within each series' rows."""
        cov_length = length if covariate_length is None else covariate_length
        base = self.offsets[rows] - self.first[rows] + starts
        pos = base[:, None] + np.arange(max(length, cov_length))
        target = np.take(self.target, pos[:, :length])
        scale = 1.0 + np.nansum(target[:, :conditioning_length], axis=1) / conditioning_length
        return WindowBatch(self.ids[rows], np.asarray(starts, dtype=np.int64), target,
                           np.take(self.mask, pos[:, :length]), scale,
                           np.take(self.features, pos[:, :cov_length], axis=0),
                           self.category[rows])


def conditioning_windows(series_list, stats: FeatureStats, conditioning_length: int,
                         horizon: int) -> WindowBatch:
    """Each series' last conditioning_length steps, with the covariates of
    the horizon steps after its end, one row each: the conditioning ranges
    a forecast encodes, cut as a training window is."""
    c = conditioning_length
    starts = np.array([s.n for s in series_list], dtype=np.int64) - c
    arrays = PanelArrays(series_list, stats, starts, tail=horizon)
    return arrays.cut(np.arange(starts.size), starts, c, c, covariate_length=c + horizon)


class WindowSampler:
    """Draws training windows: series by scale weight, placement uniform.

    Placements within a series split chronologically, roughly 90/10, into
    a training and a validation part. Series too short for any placement
    are skipped with a warning and never drawn. The drawable series are
    held as PanelArrays from c steps before each series start, so every
    draw and the validation pool are one gather.
    """

    def __init__(self, panel: Panel, spec: WindowSpec, stats: FeatureStats, uniform: bool = False):
        self.panel = panel
        self.spec = spec
        self.stats = stats
        c = spec.conditioning_length
        n = np.array([s.n for s in panel], dtype=np.int64)
        keep = n >= spec.prediction_length
        for i in np.flatnonzero(~keep).tolist():
            warnings.warn(
                f"series {panel.series[i].id!r} is shorter than the prediction range; skipped",
                stacklevel=2,
            )
        if not keep.any():
            raise DataError("no series is long enough for the window spec")
        n = n[keep]
        self._arrays = PanelArrays([s for s, k in zip(panel, keep.tolist()) if k], stats, -c)
        self._hi = n - spec.total
        self._n_train = _train_placement_count(n, spec)
        if uniform:
            weights = np.ones(n.size)
        else:
            # series_scale of each series, summed over its own contiguous
            # rows in the order np.nansum sums a series.
            ends = self._arrays.offsets[1:]
            zeroed = np.where(np.isnan(self._arrays.target), 0.0, self._arrays.target)
            sums = [np.add.reduce(zeroed[a:b]) for a, b in zip((ends - n).tolist(), ends.tolist())]
            weights = 1.0 + np.array(sums) / n
        self._cum_weights = np.cumsum(weights)

    def windows(self, rows, starts) -> WindowBatch:
        """The windows of the drawable series `rows` (indices in panel
        order, skipped series left out) placed at offsets `starts`."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = np.asarray(starts, dtype=np.int64)
        outside = (starts < -self.spec.conditioning_length) | (starts > self._hi[rows])
        if outside.any():
            j = int(np.argmax(outside))
            raise ConfigError(
                f"series {self._arrays.ids[rows[j]]!r}: start offset {int(starts[j])} is "
                f"outside the valid placement range"
            )
        return self._arrays.cut(rows, starts, self.spec.total, self.spec.conditioning_length)

    def draw(self, u) -> WindowBatch:
        """One window per row of the (n, 2) uniforms u in [0, 1): column 0
        picks the series by cumulative weight, column 1 its training
        placement."""
        idx = np.searchsorted(self._cum_weights, u[:, 0] * self._cum_weights[-1], side="right")
        n_train = self._n_train[idx]
        offsets = np.minimum(np.floor(u[:, 1] * n_train).astype(np.int64), n_train - 1)
        return self.windows(idx, offsets - self.spec.conditioning_length)

    def validation_windows(self, cap: int = 512) -> WindowBatch:
        """Deterministic held-out pool: the last ~10% of placements per
        series, strided down to at most cap windows."""
        n_val = self._hi + self.spec.conditioning_length + 1 - self._n_train
        rows = np.repeat(np.arange(n_val.size), n_val)
        begin = np.cumsum(n_val) - n_val
        starts = (np.arange(rows.size) - begin[rows] + self._n_train[rows]
                  - self.spec.conditioning_length)
        if rows.size > cap:
            stride = -(-rows.size // cap)
            rows, starts = rows[::stride], starts[::stride]
        return self.windows(rows, starts)


def velocity_histogram(panel: Panel, bucket_width: float = 0.25):
    """Bucket counts of log10(1 + series mean); missing steps count as 0.

    Returns (edge, count) rows sorted by edge; counts sum to the number
    of series.
    """
    if bucket_width <= 0.0:
        raise ConfigError("bucket width must be positive")
    counts = {}
    for series in panel:
        idx = int(math.floor(math.log10(series_scale(series)) / bucket_width))
        counts[idx] = counts.get(idx, 0) + 1
    return [(idx * bucket_width, counts[idx]) for idx in sorted(counts)]
