"""Panel ingestion, covariates, training windows, and window sampling.

A panel is an ordered collection of same-granularity series. Targets are
float arrays with NaN marking missing observations. Training windows have
a fixed total length; windows may start before the series does, in which
case the prefix is zero-padded and masked. Series are drawn with
probability proportional to their scale, placements uniformly within a
series.
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
    "TrainingWindow",
    "FeatureStats",
    "load_jsonl",
    "add_steps",
    "steps_between",
    "compute_scale",
    "cut_series",
    "series_scale",
    "raw_features",
    "feature_names",
    "fit_feature_stats",
    "placement_bounds",
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


def cut_series(series: TimeSeries, start_offset: int, length: int, conditioning_length: int):
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


def raw_features(series: TimeSeries, start_offset: int, length: int) -> np.ndarray:
    """Unstandardized covariate rows for steps [start_offset, start_offset+length).

    Steps may precede the series start (negative age) or run past its end
    (future covariates are known). Hourly and daily calendar features are
    integer arithmetic on the start's hour and weekday, which equals
    reading them off each timestamp: steps are whole hours or days of
    wall-clock time, as add_steps takes them.
    """
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


@dataclass
class FeatureStats:
    """Per-feature mean and standard deviation from the training split."""

    mean: np.ndarray
    std: np.ndarray
    names: list

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

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


def placement_bounds(n: int, spec: WindowSpec):
    """Valid window start offsets for a series of length n.

    The earliest start pads the whole conditioning range; the latest ends
    exactly at the series end, so the prediction range never runs past
    recorded data. Returns (lo, hi) inclusive, or None when the series is
    shorter than the prediction range.
    """
    lo = -spec.conditioning_length
    hi = n - spec.total
    if hi < lo:
        return None
    return lo, hi


def _train_placement_count(n: int, spec: WindowSpec) -> int:
    bounds = placement_bounds(n, spec)
    if bounds is None:
        return 0
    total = bounds[1] - bounds[0] + 1
    return total - total // 10


def fit_feature_stats(panel: Panel, spec: WindowSpec) -> FeatureStats:
    """Standardization statistics over the training split.

    Each extended step of each series is weighted by the number of
    training windows that contain it, so the standardized feature mean
    over the training windows is exactly zero without enumerating them.
    """
    gran = panel.granularity
    d = len(feature_names(gran))
    sum_w = 0.0
    sum_x = np.zeros(d)
    sum_x2 = np.zeros(d)
    T = spec.total
    for series in panel:
        bounds = placement_bounds(series.n, spec)
        if bounds is None:
            continue
        lo, _ = bounds
        hi_train = lo + _train_placement_count(series.n, spec) - 1
        ks = np.arange(lo, series.n)
        low = np.maximum(lo, ks - T + 1)
        high = np.minimum(hi_train, ks)
        w = np.maximum(0, high - low + 1).astype(np.float64)
        x = raw_features(series, lo, series.n - lo)
        sum_w += w.sum()
        sum_x += (x * w[:, None]).sum(axis=0)
        sum_x2 += (x * x * w[:, None]).sum(axis=0)
    if sum_w <= 0.0:
        raise DataError("no series admits a training window under this window spec")
    mean = sum_x / sum_w
    var = np.maximum(sum_x2 / sum_w - mean * mean, 0.0)
    std = np.sqrt(var)
    std[std < 1e-12] = 1.0
    return FeatureStats(mean, std, feature_names(gran))


@dataclass
class TrainingWindow:
    """One fixed-length slice of a series, ready for the network.

    target holds 0.0 at padded steps and NaN at missing steps; mask says
    which is which. covariates are standardized.
    """

    series_id: str
    start_offset: int
    target: np.ndarray
    mask: np.ndarray
    covariates: np.ndarray
    scale: float
    category: int

    @property
    def total(self) -> int:
        return int(self.target.size)


class WindowSampler:
    """Draws training windows: series by scale weight, placement uniform.

    Placements within a series split chronologically, roughly 90/10, into
    a training and a validation part. Series too short for any placement
    are skipped with a warning and never drawn.
    """

    def __init__(self, panel: Panel, spec: WindowSpec, stats: FeatureStats, uniform: bool = False):
        self.panel = panel
        self.spec = spec
        self.stats = stats
        self._series = []
        self._bounds = []
        weights = []
        for series in panel:
            bounds = placement_bounds(series.n, spec)
            if bounds is None:
                warnings.warn(
                    f"series {series.id!r} is shorter than the prediction range; skipped",
                    stacklevel=2,
                )
                continue
            self._series.append(series)
            self._bounds.append(bounds)
            weights.append(1.0 if uniform else series_scale(series))
        if not self._series:
            raise DataError("no series is long enough for the window spec")
        self._cum_weights = np.cumsum(np.asarray(weights, dtype=np.float64))
        self._lo = np.array([lo for lo, _ in self._bounds], dtype=np.int64)
        self._n_train = np.array(
            [_train_placement_count(s.n, spec) for s in self._series], dtype=np.int64
        )
        # Extended standardized features per series, sliced on each draw.
        self._features = [
            stats.standardize(raw_features(s, -spec.conditioning_length, s.n + spec.conditioning_length))
            for s in self._series
        ]

    def draw(self, u) -> list:
        """One window per row of the (n, 2) uniforms u in [0, 1): column 0
        picks the series by cumulative weight, column 1 its training
        placement."""
        idx = np.searchsorted(self._cum_weights, u[:, 0] * self._cum_weights[-1], side="right")
        n_train = self._n_train[idx]
        offsets = np.minimum(np.floor(u[:, 1] * n_train).astype(np.int64), n_train - 1)
        starts = self._lo[idx] + offsets
        return [self._window(i, s) for i, s in zip(idx.tolist(), starts.tolist())]

    def _window(self, i: int, start_offset: int) -> TrainingWindow:
        series = self._series[i]
        spec = self.spec
        lo, hi = self._bounds[i]
        if not lo <= start_offset <= hi:
            raise ConfigError(
                f"series {series.id!r}: start offset {start_offset} is outside "
                f"the valid placement range"
            )
        target, mask, scale = cut_series(series, start_offset, spec.total, spec.conditioning_length)
        # Slice the precomputed slab; identical to standardizing fresh rows.
        row0 = start_offset + spec.conditioning_length
        covariates = self._features[i][row0 : row0 + spec.total]
        return TrainingWindow(
            series.id, start_offset, target, mask, covariates, scale, series.category
        )

    def validation_windows(self, cap: int = 512) -> list:
        """Deterministic held-out pool: the last ~10% of placements per
        series, strided down to at most cap windows."""
        slots = []
        for i, series in enumerate(self._series):
            lo, hi = self._bounds[i]
            first_val = lo + int(self._n_train[i])
            for s in range(first_val, hi + 1):
                slots.append((i, s))
        if len(slots) > cap:
            stride = -(-len(slots) // cap)
            slots = slots[::stride]
        return [self._window(i, s) for i, s in slots]


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
