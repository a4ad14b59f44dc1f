"""Release acceptance suite.

Each test is one gate and prints a single PASS/FAIL line with the
measured quantities next to the tolerance it enforces. The gates:

1.  gradient suite         analytic vs central-difference gradients
2.  count-likelihood oracle pmf normalization and sampler moments
3.  synthetic calibration  coverage on a known seasonal count process
4.  oracle risk bound      quantile risk vs the true-distribution oracle
5.  scaling/sampling ablation  full config beats the stripped config
6.  shuffle miscalibration path shuffling degrades span calibration
7.  weighted selection     window sampler frequencies match scale weights
8.  reproducible runs      byte-identical CLI artifacts across reruns/workers
9.  electricity benchmark  optional, enabled by PANELCAST_ELECTRICITY
"""

import json
import math
import os
import time
from datetime import datetime

import numpy as np
import pytest
from scipy import stats as sps

from panelcast.cli import main as cli_main
from panelcast.dataset import (
    Granularity,
    Panel,
    TimeSeries,
    WindowSpec,
    fit_feature_stats,
    load_jsonl,
    series_scale,
)
from panelcast.errors import DivergenceError
from panelcast.evaluator import EvalPair, all_k_risk, coverage, nd_rmse, rolling_backtest
from panelcast.forecaster import ForecastRecord, forecast_panel, record_from_samples
from panelcast.likelihood import LikelihoodKind, negbin_nll
from panelcast.network import unroll_batch
from panelcast.rng import RowKeys, neg_binomials
from panelcast.trainer import TrainConfig, train

from conftest import (
    cut_window,
    pcg64,
    pcg64_init_model,
    seasonal_naive,
    shuffle_paths,
    stack_windows,
)
from gradcheck import finite_diff_check

START = datetime(2014, 1, 6)


def _verdict(name, ok, detail):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _truncated(series, steps):
    return TimeSeries(
        series.id,
        series.start,
        series.granularity,
        series.target[: series.n - steps].copy(),
        series.category,
    )


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def _gate_model(kind, spec, stats, seed=7, hidden=8, embedding_dim=2, cardinality=2):
    """A one-layer model at weights the gate draws itself: the PCG64
    init of conftest.pcg64_init_model, every block then tripled so that
    every gate works in its nonlinear range. The gate's evaluation point
    thus stays put when the engine's initialisation changes."""
    model = pcg64_init_model(kind, spec, stats, Granularity.DAILY, cardinality, 1, hidden,
                             embedding_dim, seed)
    model.load_blocks({name: 3.0 * arr for name, arr in model.copy_blocks().items()})
    return model


def test_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    series = []
    for i in range(2):
        vals = rng.poisson(3.0 + 2 * i, 26).astype(float)
        series.append(TimeSeries(f"s{i}", START, Granularity.DAILY, vals, i))
    panel = Panel(series)
    spec = WindowSpec(6, 6)  # 12-step unroll
    stats = fit_feature_stats(panel, spec)
    windows = stack_windows([cut_window(s, spec, 8, stats) for s in panel])

    errors = {}
    for kind in (LikelihoodKind.GAUSSIAN, LikelihoodKind.NEG_BINOMIAL):
        model = _gate_model(kind, spec, stats)

        def loss_fn(blocks):
            result = unroll_batch(windows, model)
            return result.loss, result.grads

        report = finite_diff_check(loss_fn, model.blocks(), tolerance=1e-4)
        errors[kind.value] = report.max_error

    elapsed = time.monotonic() - t0
    worst = max(errors.values())
    ok = worst < 1e-4 and elapsed < 120.0
    detail = (
        f"max rel err {worst:.2e} < 1e-4 "
        f"[gaussian {errors['gaussian']:.2e}, negbin {errors['negbin']:.2e}]; "
        f"{elapsed:.1f}s < 120s"
    )
    assert ok, _verdict("gradient suite", ok, detail)
    _verdict("gradient suite", ok, detail)


# ---------------------------------------------------------------------------
# 2. count-likelihood oracles
# ---------------------------------------------------------------------------


def test_count_likelihood_oracles():
    worst_gap = 0.0
    for mu in (0.5, 2.0, 10.0):
        for alpha in (0.1, 1.0):
            total = math.fsum(
                math.exp(-negbin_nll(float(z), mu, alpha)[0]) for z in range(501)
            )
            worst_gap = max(worst_gap, abs(total - 1.0))
    mass_ok = worst_gap <= 1e-8

    n = 1_000_000
    moment_lines = []
    moments_ok = True
    for mu, alpha in ((2.0, 1.0), (10.0, 0.1)):
        # 10^6 draws on consecutive paths of one key, in chunks of 10^5
        sid = f"nb-{mu!r}-{alpha!r}"
        x = np.concatenate(
            [
                neg_binomials(
                    RowKeys.for_series(2024, "acceptance", [sid] * 100_000,
                                       np.arange(p0, p0 + 100_000)),
                    0, mu, alpha,
                )
                for p0 in range(0, n, 100_000)
            ]
        )
        var = mu + mu * mu * alpha
        se_mean = math.sqrt(var / n)
        m4 = float(np.mean((x - x.mean()) ** 4))
        se_var = math.sqrt(max(m4 - var * var, 0.0) / n)
        dev_mean = abs(float(x.mean()) - mu)
        dev_var = abs(float(x.var()) - var)
        moments_ok = moments_ok and dev_mean < 3 * se_mean and dev_var < 3 * se_var
        moment_lines.append(
            f"mu={mu},a={alpha}: |mean-{mu}|={dev_mean:.4f}<{3*se_mean:.4f}, "
            f"|var-{var}|={dev_var:.4f}<{3*se_var:.4f}"
        )

    ok = mass_ok and moments_ok
    detail = f"mass gap {worst_gap:.2e} <= 1e-8; {'; '.join(moment_lines)}"
    assert ok, _verdict("count-likelihood oracles", ok, detail)
    _verdict("count-likelihood oracles", ok, detail)


# ---------------------------------------------------------------------------
# 3 + 4. seasonal count panel: calibration and the oracle risk bound
# ---------------------------------------------------------------------------

PROFILE = np.array([0.6, 0.8, 1.0, 1.3, 1.5, 1.1, 0.7])
SEASONAL_ALPHA = 0.25
SEASONAL_H = 7
LEVELS_34 = (0.1, 0.5, 0.9)


@pytest.fixture(scope="module")
def seasonal_experiment():
    """200 series from a weekly-profile overdispersed count process with
    known per-step parameters; five independently seeded training runs."""
    t_gen = time.monotonic()
    rng = np.random.default_rng(11)
    num, n = 200, 98
    base = 10 ** rng.uniform(np.log10(2.0), np.log10(20.0), num)
    series, mus = [], []
    for i in range(num):
        m = base[i] * PROFILE[np.arange(n) % 7]
        lam = rng.gamma(1.0 / SEASONAL_ALPHA, SEASONAL_ALPHA * m)
        z = rng.poisson(lam).astype(float)
        series.append(TimeSeries(f"s{i}", START, Granularity.DAILY, z, 0))
        mus.append(m)
    panel = Panel(series)
    gen_time = time.monotonic() - t_gen

    results = {"gen_time": gen_time, "seeds": []}
    for seed in range(5):
        t_seed = time.monotonic()
        cfg = TrainConfig(
            likelihood=LikelihoodKind.NEG_BINOMIAL,
            conditioning_length=14,
            prediction_length=SEASONAL_H,
            num_layers=1,
            hidden_units=16,
            embedding_dim=2,
            batch_size=64,
            learning_rate=5e-3,
            max_batches=800,
            patience=4,
            windows_per_epoch=600,
            seed=seed,
        )
        model, _ = train(panel, cfg)
        model_pairs, oracle_pairs = [], []
        for idx, s in enumerate(panel.series):
            cut = s.n - SEASONAL_H
            truth = s.target[cut : cut + SEASONAL_H].copy()
            fc = next(forecast_panel([_truncated(s, SEASONAL_H)], model,
                                     num_samples=200, seed=90 + seed))
            model_pairs.append(
                EvalPair(record_from_samples(fc, list(LEVELS_34)), truth)
            )
            m = mus[idx][cut : cut + SEASONAL_H]
            r_param = 1.0 / SEASONAL_ALPHA
            p_param = 1.0 / (1.0 + SEASONAL_ALPHA * m)
            true_q = {
                rho: sps.nbinom.ppf(rho, r_param, p_param).astype(float)
                for rho in LEVELS_34
            }
            oracle_pairs.append(
                EvalPair(ForecastRecord(s.id, s.timestamp(cut), true_q, 0, 0), truth)
            )
        covs = {
            p: float(
                np.mean(
                    [coverage(model_pairs, [p], lead, 1)[p] for lead in range(SEASONAL_H)]
                )
            )
            for p in LEVELS_34
        }
        results["seeds"].append(
            {
                "coverage": covs,
                "model_risk": {rho: all_k_risk(model_pairs, SEASONAL_H, rho) for rho in (0.5, 0.9)},
                "oracle_risk": {rho: all_k_risk(oracle_pairs, SEASONAL_H, rho) for rho in (0.5, 0.9)},
                "time": time.monotonic() - t_seed,
            }
        )
    return results


def test_synthetic_calibration(seasonal_experiment):
    first = seasonal_experiment["seeds"][0]
    covs = first["coverage"]
    elapsed = seasonal_experiment["gen_time"] + first["time"]
    cov_ok = all(abs(covs[p] - p) <= 0.1 for p in LEVELS_34)
    ok = cov_ok and elapsed < 900.0
    detail = (
        "coverage "
        + ", ".join(f"{p}->{covs[p]:.3f}" for p in LEVELS_34)
        + f" all within +/-0.1; {elapsed:.1f}s < 900s"
    )
    assert ok, _verdict("synthetic calibration", ok, detail)
    _verdict("synthetic calibration", ok, detail)


def test_oracle_risk_bound(seasonal_experiment):
    seeds = seasonal_experiment["seeds"]
    ratios = {}
    for rho in (0.5, 0.9):
        model_mean = float(np.mean([s["model_risk"][rho] for s in seeds]))
        oracle_mean = float(np.mean([s["oracle_risk"][rho] for s in seeds]))
        ratios[rho] = model_mean / oracle_mean
    ok = all(r <= 1.15 for r in ratios.values())
    detail = (
        f"5-seed mean risk ratios: rho=0.5 -> {ratios[0.5]:.3f}, "
        f"rho=0.9 -> {ratios[0.9]:.3f}; both <= 1.15"
    )
    assert ok, _verdict("oracle risk bound", ok, detail)
    _verdict("oracle risk bound", ok, detail)


# ---------------------------------------------------------------------------
# 5. scaling + weighted-sampling ablation
# ---------------------------------------------------------------------------


def test_scaling_sampling_ablation():
    rng = np.random.default_rng(5)
    profile = np.array([0.7, 0.9, 1.0, 1.2, 1.4, 1.1, 0.7])
    alpha, horizon, num, n = 0.3, 7, 60, 90
    scales = 10 ** np.linspace(0.0, 3.0, num)  # three orders of magnitude
    rng.shuffle(scales)
    series = []
    for i in range(num):
        m = scales[i] * profile[np.arange(n) % 7]
        lam = rng.gamma(1.0 / alpha, alpha * m)
        z = rng.poisson(lam).astype(float)
        series.append(TimeSeries(f"s{i}", START, Granularity.DAILY, z, 0))
    panel = Panel(series)

    base_kw = dict(
        likelihood=LikelihoodKind.NEG_BINOMIAL,
        conditioning_length=14,
        prediction_length=horizon,
        num_layers=1,
        hidden_units=16,
        embedding_dim=2,
        batch_size=64,
        learning_rate=5e-3,
        max_batches=500,
        patience=4,
        windows_per_epoch=600,
    )

    def median_risk(model, seed):
        pairs = []
        for s in panel.series:
            cut = s.n - horizon
            fc = next(forecast_panel([_truncated(s, horizon)], model,
                                     num_samples=200, seed=900 + seed))
            pairs.append(
                EvalPair(record_from_samples(fc, [0.5]), s.target[cut : cut + horizon].copy())
            )
        return all_k_risk(pairs, horizon, 0.5)

    outcomes = []
    for seed in range(5):
        full_model, _ = train(panel, TrainConfig(seed=seed, **base_kw))
        r_full = median_risk(full_model, seed)
        try:
            ablated, _ = train(
                panel,
                TrainConfig(seed=seed, uniform_sampling=True, no_scaling=True, **base_kw),
            )
            r_abl = median_risk(ablated, seed)
        except DivergenceError:
            r_abl = float("inf")
        outcomes.append((r_full, r_abl))

    wins = sum(1 for r_full, r_abl in outcomes if r_full < r_abl)
    ok = wins >= 4
    detail = f"full beats ablation in {wins}/5 seeds (need >=4): " + ", ".join(
        f"{f:.3f}vs{a:.3f}" for f, a in outcomes
    )
    assert ok, _verdict("scaling/sampling ablation", ok, detail)
    _verdict("scaling/sampling ablation", ok, detail)


# ---------------------------------------------------------------------------
# 6. shuffle miscalibration
# ---------------------------------------------------------------------------


def test_shuffle_miscalibration():
    rng = np.random.default_rng(21)
    phi, num, n, horizon = 0.8, 150, 120, 9
    p_grid = [round(0.1 * k, 1) for k in range(1, 10)]
    series = []
    for i in range(num):
        mu = rng.uniform(10.0, 30.0)
        z = np.empty(n)
        z[0] = mu + rng.normal(0.0, 1.0) / np.sqrt(1 - phi * phi)
        for t in range(1, n):
            z[t] = mu + phi * (z[t - 1] - mu) + rng.normal(0.0, 1.0)
        series.append(TimeSeries(f"s{i}", START, Granularity.DAILY, z, 0))
    panel = Panel(series)

    cfg = TrainConfig(
        likelihood=LikelihoodKind.GAUSSIAN,
        conditioning_length=24,
        prediction_length=horizon,
        num_layers=1,
        hidden_units=24,
        embedding_dim=2,
        batch_size=64,
        learning_rate=5e-3,
        max_batches=800,
        patience=5,
        windows_per_epoch=800,
        seed=0,
    )
    model, _ = train(panel, cfg)

    orig_pairs, shuf_pairs = [], []
    for i, s in enumerate(panel.series):
        cut = s.n - horizon
        truth = s.target[cut : cut + horizon].copy()
        fc = next(forecast_panel([_truncated(s, horizon)], model, num_samples=200, seed=777))
        orig_pairs.append(EvalPair(record_from_samples(fc, [0.5], emit_samples=True), truth))
        shuffled = shuffle_paths(fc, seed=31 + i)
        shuf_pairs.append(EvalPair(record_from_samples(shuffled, [0.5], emit_samples=True), truth))

    def mean_abs_dev(pairs):
        cov = coverage(pairs, p_grid, 0, horizon)
        return float(np.mean([abs(cov[p] - p) for p in p_grid]))

    dev_orig = mean_abs_dev(orig_pairs)
    dev_shuf = mean_abs_dev(shuf_pairs)
    span_worse = dev_shuf > dev_orig

    one_step_same = all(
        coverage(orig_pairs, p_grid, lead, 1) == coverage(shuf_pairs, p_grid, lead, 1)
        for lead in range(horizon)
    )

    ok = span_worse and one_step_same
    detail = (
        f"9-step mean|cov-p|: shuffled {dev_shuf:.4f} > original {dev_orig:.4f}; "
        f"1-step coverage identical at all {horizon} leads: {one_step_same}"
    )
    assert ok, _verdict("shuffle miscalibration", ok, detail)
    _verdict("shuffle miscalibration", ok, detail)


# ---------------------------------------------------------------------------
# 7. scale-weighted window selection
# ---------------------------------------------------------------------------


def test_weighted_selection_frequencies():
    from panelcast.dataset import WindowSampler

    means = [0, 1, 2, 3, 4, 6, 8, 10, 14, 20]
    series = [
        TimeSeries(f"s{i}", START, Granularity.DAILY, np.full(40, float(c)), 0)
        for i, c in enumerate(means)
    ]
    panel = Panel(series)
    spec = WindowSpec(4, 4)
    sampler = WindowSampler(panel, spec, fit_feature_stats(panel, spec))
    draws = 100_000
    counts = {s.id: 0 for s in series}
    for sid in sampler.draw(pcg64(77, "acceptance", "selection").random((draws, 2))).ids:
        counts[sid] += 1

    weights = np.array([series_scale(s) for s in series])
    expected = weights / weights.sum()
    deviations = {
        s.id: abs(counts[s.id] / draws - expected[i]) for i, s in enumerate(series)
    }
    worst_id = max(deviations, key=deviations.get)
    worst = deviations[worst_id]
    ok = worst <= 0.01
    detail = (
        f"worst |freq - weight| = {worst:.4f} <= 0.01 (series {worst_id!r}) "
        f"over {draws} draws, 10 series"
    )
    assert ok, _verdict("weighted selection", ok, detail)
    _verdict("weighted selection", ok, detail)


# ---------------------------------------------------------------------------
# 8. reproducible CLI artifacts
# ---------------------------------------------------------------------------


def test_reproducible_cli_runs(tmp_path):
    rng = np.random.default_rng(3)
    rows = []
    for i in range(8):
        t = np.arange(48)
        vals = 6.0 + 3.0 * np.sin(2 * np.pi * t / 7 + i) + rng.normal(0, 0.3, 48)
        rows.append(
            {
                "id": f"s{i}",
                "start": START.isoformat(),
                "freq": "D",
                "target": [round(float(v), 4) for v in np.clip(vals, 0.1, None)],
                "cat": i % 2,
            }
        )
    data = tmp_path / "panel.jsonl"
    with open(data, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    config = tmp_path / "train.cfg"
    config.write_text(
        "likelihood = gaussian\nconditioning_length = 8\nprediction_length = 4\n"
        "num_layers = 1\nhidden_units = 8\nembedding_dim = 2\nbatch_size = 16\n"
        "learning_rate = 0.01\nmax_batches = 30\npatience = 3\n"
        "windows_per_epoch = 128\nseed = 0\n",
        encoding="utf-8",
    )

    models = []
    for tag in ("a", "b"):
        out = tmp_path / f"model-{tag}.bin"
        rc = cli_main(
            ["train", "--data", str(data), "--config", str(config), "--output", str(out)]
        )
        assert rc == 0
        models.append(open(out, "rb").read())
    train_same = models[0] == models[1]

    forecasts = {}
    for run, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"fc-{run}.jsonl"
        rc = cli_main(
            [
                "predict", "--model", str(tmp_path / "model-a.bin"), "--data", str(data),
                "--output", str(out), "--samples", "50", "--seed", "7",
                "--workers", str(workers), "--emit-samples",
            ]
        )
        assert rc == 0
        forecasts[run] = open(out, "rb").read()
    predict_same = forecasts["a"] == forecasts["b"]
    workers_same = forecasts["a"] == forecasts["c"]

    ok = train_same and predict_same and workers_same
    detail = (
        f"model reruns byte-identical: {train_same}; forecast reruns byte-identical: "
        f"{predict_same}; workers 1 vs 4 byte-identical: {workers_same}"
    )
    assert ok, _verdict("reproducible runs", ok, detail)
    _verdict("reproducible runs", ok, detail)


# ---------------------------------------------------------------------------
# 9. optional electricity benchmark (enabled by PANELCAST_ELECTRICITY)
# ---------------------------------------------------------------------------

ELECTRICITY = os.environ.get("PANELCAST_ELECTRICITY", "")


def _load_electricity(path, num_customers=20, weeks=6):
    """Accept either an hourly JSONL panel or the raw 15-minute UCI export
    (semicolon-separated, comma decimals); reduce to the trailing weeks of
    the first `num_customers` mostly-active customers, hourly."""
    if not path.endswith(".txt"):
        panel = load_jsonl(path)
        return Panel(panel.series[:num_customers])

    from panelcast.dataset import add_steps

    hours = weeks * 7 * 24
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(";")
        names = [h.strip('"') for h in header[1:]]
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(";")
            rows.append(
                (parts[0].strip('"'), [float(v.replace(",", ".")) for v in parts[1:]])
            )
    # quarter-hour readings stamped at period end, so rows 0..3 cover the
    # first hour; average each block of four into one hourly value
    usable = (len(rows) // 4) * 4
    values = np.asarray([r[1] for r in rows[:usable]], dtype=np.float64)
    hourly = values.reshape(-1, 4, values.shape[1]).mean(axis=1)
    first_ts = datetime.fromisoformat(rows[0][0])
    file_start = datetime(first_ts.year, first_ts.month, first_ts.day, first_ts.hour)
    tail = hourly[-hours:, :]
    tail_start = add_steps(file_start, hourly.shape[0] - tail.shape[0], Granularity.HOURLY)
    series = []
    for col, name in enumerate(names):
        vals = tail[:, col]
        if np.mean(vals > 0) < 0.8:
            continue
        series.append(TimeSeries(name, tail_start, Granularity.HOURLY, vals.copy(), 0))
        if len(series) == num_customers:
            break
    if len(series) < num_customers:
        raise AssertionError(
            f"only {len(series)} active customers found; need {num_customers}"
        )
    return Panel(series)


@pytest.mark.skipif(
    not ELECTRICITY,
    reason="optional benchmark; set PANELCAST_ELECTRICITY to an hourly JSONL panel "
    "or the raw 15-minute UCI consumption export to enable",
)
def test_electricity_benchmark():
    holdout = 3 * 24  # three rolling day-ahead windows
    panel = _load_electricity(ELECTRICITY)
    train_panel = Panel([_truncated(s, holdout) for s in panel])
    cfg = TrainConfig(
        likelihood=LikelihoodKind.GAUSSIAN,
        conditioning_length=168,
        prediction_length=24,
        num_layers=2,
        hidden_units=32,
        embedding_dim=4,
        batch_size=32,
        learning_rate=2e-3,
        max_batches=1500,
        patience=6,
        windows_per_epoch=800,
        seed=0,
    )
    model, _ = train(train_panel, cfg)
    _, pooled = rolling_backtest(
        panel, model, count=3, stride=24, spans=[(0, 1)], levels=[0.5, 0.9],
        num_samples=200, seed=42,
    )

    naive_truth, naive_pred = [], []
    for w in range(3):
        back = (3 - 1 - w) * 24 + 24
        for s in panel:
            cut = s.n - back
            hist = TimeSeries(s.id, s.start, s.granularity, s.target[:cut].copy(), s.category)
            naive_pred.append(seasonal_naive(hist, 24, 168))
            naive_truth.append(s.target[cut : cut + 24])
    naive_nd, _ = nd_rmse(np.concatenate(naive_truth), np.concatenate(naive_pred))

    ok = pooled.nd <= 0.2 and pooled.nd < naive_nd
    detail = f"rolling ND {pooled.nd:.4f} <= 0.2 and < seasonal-naive {naive_nd:.4f}"
    assert ok, _verdict("electricity benchmark", ok, detail)
    _verdict("electricity benchmark", ok, detail)
