"""Training loop: config parsing, determinism, early stopping, divergence,
and hyperparameter grid search."""

import math

import numpy as np
import pytest

from panelcast.dataset import (
    MASK_MISSING,
    Panel,
    WindowSampler,
    _train_placement_count,
    fit_feature_stats,
)
from panelcast.errors import ConfigError, DivergenceError
from panelcast.forecaster import forecast_panel, quantiles
from panelcast.likelihood import LikelihoodKind
from panelcast.network import forward_nll, init_model, model_to_bytes, unroll_batch
from panelcast.rng import RowKeys, derive_seed
from panelcast.trainer import TrainConfig, _pool_nll, grid_search, parse_config, train

from conftest import (
    count_panel,
    make_series,
    pcg64,
    placement_bounds,
    sinusoid_panel,
    window_rows,
)


def small_config(**overrides):
    base = dict(
        likelihood="gaussian", conditioning_length=8, prediction_length=4,
        num_layers=1, hidden_units=8, embedding_dim=2, batch_size=8,
        learning_rate=1e-2, max_batches=40, patience=3,
        windows_per_epoch=64, seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestParseConfig:
    def test_round_trip_all_keys(self):
        cfg = small_config(uniform_sampling=True, no_scaling=True)
        text = "\n".join(f"{k} = {v}" for k, v in cfg.to_dict().items())
        parsed = parse_config(text)
        assert parsed == cfg

    def test_comments_and_blank_lines(self):
        parsed = parse_config("# a comment\n\nhidden_units = 12  # trailing\n")
        assert parsed.hidden_units == 12

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("hidden_units = 8\nlr = 0.1\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("hidden_units = eight")

    def test_bad_likelihood_rejected(self):
        with pytest.raises(ConfigError, match="likelihood"):
            parse_config("likelihood = cauchy")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(hidden_units=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="learning_rate must be finite and positive"):
                TrainConfig(learning_rate=value)

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.num_layers == 3
        assert cfg.hidden_units == 40
        assert cfg.learning_rate == 1e-3
        assert cfg.batch_size == 64


class TestTrain:
    def test_fixed_seed_reproducible(self):
        panel = sinusoid_panel(num_series=6, n=60, seed=1)
        cfg = small_config(max_batches=24)
        model_a, log_a = train(panel, cfg)
        model_b, log_b = train(panel, cfg)
        assert model_to_bytes(model_a) == model_to_bytes(model_b)
        assert [r[:7] for r in log_a.rows] == [r[:7] for r in log_b.rows]
        assert log_a.stopping_reason == log_b.stopping_reason

    def test_best_snapshot_property(self):
        panel = sinusoid_panel(num_series=6, n=60, seed=2)
        cfg = small_config(max_batches=64, learning_rate=3e-2, patience=2)
        model, log = train(panel, cfg)
        assert log.best_val_nll == min(r[3] for r in log.rows)
        # the returned parameters reproduce the best recorded validation NLL
        spec = cfg.window_spec
        stats = fit_feature_stats(panel, spec)
        sampler = WindowSampler(panel, spec, stats)
        pool = sampler.validation_windows(cap=512)
        best_epoch = min(log.rows, key=lambda r: r[3])[0]
        recomputed = _pool_nll(pool, model, cfg.batch_size,
                               derive_seed(cfg.seed, "val", best_epoch))
        assert recomputed == pytest.approx(log.best_val_nll, rel=1e-12)

    def test_max_batches_bound(self):
        panel = sinusoid_panel(num_series=4, n=50, seed=3)
        cfg = small_config(max_batches=10, patience=100)
        _, log = train(panel, cfg)
        assert log.rows[-1][1] <= 10
        assert "max_batches" in log.stopping_reason

    def test_early_stop_on_patience(self):
        panel = sinusoid_panel(num_series=4, n=50, seed=4)
        cfg = small_config(max_batches=2000, patience=2, learning_rate=5e-2,
                           windows_per_epoch=16)
        _, log = train(panel, cfg)
        assert "no validation improvement" in log.stopping_reason
        assert log.rows[-1][1] < 2000

    def test_constant_zero_negbin_predicts_zero(self):
        panel = Panel([make_series(f"z{i}", [0.0] * 40) for i in range(4)])
        cfg = small_config(likelihood="negbin", max_batches=60,
                           learning_rate=3e-2, patience=100)
        model, log = train(panel, cfg)
        # NLL falls toward the all-zero entropy floor
        assert log.rows[-1][3] < log.rows[0][3]
        fc = next(forecast_panel([panel.get("z0")], model, num_samples=64, seed=1))
        p50 = quantiles(fc, [0.5])[0]
        assert np.all(p50 == 0.0)

    def test_sinusoid_nll_improves_over_initialization(self):
        # measured against the run's own initialization on the same pool
        panel = sinusoid_panel(num_series=100, n=60, seed=5)
        cfg = small_config(
            conditioning_length=14, prediction_length=7, hidden_units=16,
            embedding_dim=4, batch_size=32, learning_rate=1e-2,
            max_batches=120, patience=100, windows_per_epoch=256,
        )
        model, log = train(panel, cfg)
        spec = cfg.window_spec
        stats = fit_feature_stats(panel, spec)
        sampler = WindowSampler(panel, spec, stats)
        pool = sampler.validation_windows(cap=512)
        init = init_model(
            cfg.likelihood, spec, stats, panel.granularity,
            panel.category_cardinality, cfg.num_layers, cfg.hidden_units,
            cfg.embedding_dim, cfg.seed,
        )
        init_nll = _pool_nll(pool, init, cfg.batch_size, derive_seed(cfg.seed, "val", 1))
        assert log.best_val_nll < 0.8 * init_nll

    def test_integer_requirement_enforced_for_negbin(self):
        panel = sinusoid_panel(num_series=3, n=40, seed=6)  # non-integer values
        cfg = small_config(likelihood="negbin")
        from panelcast.errors import DataError

        with pytest.raises(DataError):
            train(panel, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_log(self):
        panel = sinusoid_panel(num_series=4, n=50, seed=7)
        cfg = small_config(learning_rate=1e160, max_batches=20)
        with pytest.raises(DivergenceError) as exc:
            train(panel, cfg)
        assert exc.value.log is not None

    def test_non_finite_gradients_stop_training(self, monkeypatch):
        # A finite loss whose gradient norm is not finite counts as a
        # divergent batch; three in a row stop training.
        import panelcast.trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "clip_global_norm", lambda grads, max_norm: float("nan"))
        panel = sinusoid_panel(num_series=4, n=50, seed=7)
        with pytest.raises(DivergenceError) as exc:
            train(panel, small_config(max_batches=20))
        assert str(exc.value) == "training diverged after 3 batches: non-finite gradients"
        assert exc.value.log.stopping_reason == "diverged: non-finite gradients"

    def test_fallback_validation_pool_is_reproducible(self, monkeypatch):
        # Every series has 7 placements, fewer than the 10 it takes to hold
        # one out, so training validates on windows drawn in-sample.
        import panelcast.trainer as trainer_mod

        panel = Panel([
            make_series(f"f{i}", 4.0 + i + np.sin(np.arange(10.0) + i), category=i % 2)
            for i in range(5)
        ])
        cfg = small_config(max_batches=16)
        spec = cfg.window_spec
        sampler = WindowSampler(panel, spec, fit_feature_stats(panel, spec))
        assert len(sampler.validation_windows()) == 0
        pools = []

        def recording_pool_nll(pool, *args, **kwargs):
            pools.append(pool)
            return _pool_nll(pool, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "_pool_nll", recording_pool_nll)
        model_a, log_a = train(panel, cfg)
        model_b, log_b = train(panel, cfg)
        assert model_to_bytes(model_a) == model_to_bytes(model_b)
        assert [r[:7] for r in log_a.rows] == [r[:7] for r in log_b.rows]
        assert log_a.stopping_reason == log_b.stopping_reason
        pool = pools[0]
        assert len(pool) == 64
        assert list(pool.ids) == list(pools[-1].ids)
        assert list(pool.starts) == list(pools[-1].starts)
        # Window i reads path i of the key of (seed, "train", "valpool").
        keys = RowKeys.for_series(cfg.seed, "train", ["valpool"] * 64, np.arange(64))
        expected = WindowSampler(panel, spec, fit_feature_stats(panel, spec)).draw(
            keys.uniforms(0, 0).T
        )
        assert list(pool.ids) == list(expected.ids)
        assert list(pool.starts) == list(expected.starts)
        for sid, start in zip(pool.ids, pool.starts):
            n = panel.get(sid).n
            lo, _ = placement_bounds(n, spec)
            assert lo <= start < lo + _train_placement_count(n, spec)

    def test_window_draws_read_step_k_of_one_key(self, monkeypatch):
        # Batch k's window b reads step k, path b of the key of
        # (seed, "train", "draw").
        import panelcast.trainer as trainer_mod

        panel = count_panel(num_series=6, n=50, seed=8)
        cfg = small_config(max_batches=12, seed=4)
        batches = []

        def recording_unroll(windows, *args, **kwargs):
            batches.append(list(zip(windows.ids, windows.starts)))
            return unroll_batch(windows, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "unroll_batch", recording_unroll)
        train(panel, cfg)
        sampler = WindowSampler(panel, cfg.window_spec, fit_feature_stats(panel, cfg.window_spec))
        keys = RowKeys.for_series(4, "train", ["draw"] * 8, np.arange(8))
        assert len(batches) == 12
        for k, batch in enumerate(batches):
            expected = sampler.draw(keys.uniforms(k, 0).T)
            assert batch == list(zip(expected.ids, expected.starts))

    def test_ablation_flags_produce_different_models(self):
        panel = count_panel(num_series=6, n=50, seed=8)
        cfg = small_config(likelihood="negbin", max_batches=16)
        full, _ = train(panel, cfg)
        ablated, _ = train(panel, TrainConfig(**{**cfg.to_dict(),
                                                 "uniform_sampling": True,
                                                 "no_scaling": True}))
        assert model_to_bytes(full) != model_to_bytes(ablated)


def per_chunk_nll(pool, model, batch_size, seed):
    """The validation NLL by definition, in float64: each batch_size-window
    chunk unrolled alone as a training batch, imputing with the seed
    derived from its offset, the chunk losses added in order over the
    counted steps."""
    total, steps = 0.0, 0
    for i in range(0, len(pool), batch_size):
        res = unroll_batch(window_rows(pool, slice(i, i + batch_size)), model, derive_seed(seed, i))
        total += res.loss
        steps += res.counted_steps
    return total / steps


def per_chunk_forward_nll(pool, model, batch_size, seed):
    """The same definition at the validation pass's precision: each chunk
    run alone through forward_nll on its own float32 slab, with the keys
    unroll_batch would derive for it, and summed exactly."""
    total, steps = 0.0, 0
    for i in range(0, len(pool), batch_size):
        chunk = window_rows(pool, slice(i, i + batch_size))
        keys = RowKeys.for_series(derive_seed(seed, i), "impute", chunk.ids,
                                  np.arange(len(chunk)))
        nll, counted = forward_nll(chunk, model, keys)
        total += math.fsum(nll[counted].tolist())
        steps += int(counted.sum())
    return total / steps


# _pool_nll against per_chunk_nll, relative: the largest error over 120
# gappy pools (seeds 20-39; 203, 40 and 100 windows in chunks of 64 and
# 16) was 2.8e-9 for the Gaussian and 1.1e-9 for the negative binomial.
FLOAT32_POOL_RTOL = 1e-6


def gappy_pool(kind, size, seed):
    """`size` windows drawn from a panel with about 8 % of its values
    missing, and a model to score them."""
    if kind is LikelihoodKind.NEG_BINOMIAL:
        panel = count_panel(num_series=14, n=70, seed=seed, mean_hi=40.0)
    else:
        panel = sinusoid_panel(num_series=14, n=70, seed=seed)
    gaps = np.random.default_rng(seed)
    for series in panel:
        series.target[gaps.random(series.n) < 0.08] = np.nan
        series.target[-1] = 5.0  # every series keeps an observed point
    cfg = small_config(likelihood=kind, num_layers=2, hidden_units=16, embedding_dim=3)
    spec = cfg.window_spec
    stats = fit_feature_stats(panel, spec)
    pool = WindowSampler(panel, spec, stats).draw(pcg64(seed, "pool").random((size, 2)))
    model = init_model(kind, spec, stats, panel.granularity, panel.category_cardinality,
                       cfg.num_layers, cfg.hidden_units, cfg.embedding_dim, seed)
    return pool, model


class TestPoolNll:
    # The whole pool runs forward in one pass on one float32 slab; its NLL
    # must keep the bits of each chunk run alone on a slab of its own (a
    # row's float32 arithmetic does not depend on the rows beside it at
    # 16-column padding), and stay within FLOAT32_POOL_RTOL of the float64
    # per-chunk definition.

    @pytest.mark.parametrize("kind", list(LikelihoodKind))
    def test_equals_per_chunk_unrolls_with_missing_values(self, kind):
        pool, model = gappy_pool(kind, 203, seed=21)
        assert np.any(pool.mask[64:] == MASK_MISSING)
        seed = derive_seed(3, "val", 2)
        assert _pool_nll(pool, model, 64, seed) == per_chunk_forward_nll(pool, model, 64, seed)

    @pytest.mark.parametrize("kind", list(LikelihoodKind))
    def test_close_to_float64_per_chunk_unrolls(self, kind):
        for seed, size, batch_size in ((21, 203, 64), (25, 100, 16)):
            pool, model = gappy_pool(kind, size, seed=seed)
            assert np.any(pool.mask == MASK_MISSING)
            val_seed = derive_seed(3, "val", seed)
            got = _pool_nll(pool, model, batch_size, val_seed)
            want = per_chunk_nll(pool, model, batch_size, val_seed)
            assert got == pytest.approx(want, rel=FLOAT32_POOL_RTOL, abs=0.0)

    def test_equals_single_chunk_unroll(self):
        pool, model = gappy_pool(LikelihoodKind.NEG_BINOMIAL, 40, seed=22)
        assert _pool_nll(pool, model, 64, 9) == per_chunk_forward_nll(pool, model, 64, 9)

    def test_equals_per_chunk_on_fallback_pool(self):
        # The 64 in-sample windows train() validates on when no series
        # holds placements out.
        panel = Panel([
            make_series(f"f{i}", 4.0 + i + np.sin(np.arange(10.0) + i), category=i % 2)
            for i in range(5)
        ])
        cfg = small_config()
        spec = cfg.window_spec
        stats = fit_feature_stats(panel, spec)
        sampler = WindowSampler(panel, spec, stats)
        keys = RowKeys.for_series(cfg.seed, "train", ["valpool"] * 64, np.arange(64))
        pool = sampler.draw(keys.uniforms(0, 0).T)
        model = init_model(cfg.likelihood, spec, stats, panel.granularity,
                           panel.category_cardinality, cfg.num_layers, cfg.hidden_units,
                           cfg.embedding_dim, cfg.seed)
        seed = derive_seed(cfg.seed, "val", 1)
        assert _pool_nll(pool, model, 8, seed) == per_chunk_forward_nll(pool, model, 8, seed)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_heads_diverge(self):
        pool, model = gappy_pool(LikelihoodKind.GAUSSIAN, 100, seed=23)
        model.heads.w_mu.fill(1e308)
        with pytest.raises(DivergenceError, match="non-finite loss at step 0") as exc:
            _pool_nll(pool, model, 64, 5)
        assert exc.value.log["step"] == 0
        with pytest.raises(DivergenceError, match="non-finite loss at step 0"):
            per_chunk_nll(pool, model, 64, 5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_with_draws_diverges_as_a_loss(self):
        # Step 4 of window 3 has NaN inputs and a missing value: the step
        # is named as non-finite, as unroll_batch names it, rather than
        # failing the draw of the missing value.
        pool, model = gappy_pool(LikelihoodKind.NEG_BINOMIAL, 20, seed=24)
        pool.covariates[3, 4] = np.nan
        pool.mask[3, 4] = MASK_MISSING
        pool.target[3, 4] = np.nan
        with pytest.raises(DivergenceError, match="non-finite loss at step 4") as exc:
            _pool_nll(pool, model, 64, 5)
        assert exc.value.log["step"] == 4
        with pytest.raises(DivergenceError, match="non-finite loss at step 4"):
            per_chunk_nll(pool, model, 64, 5)


class TestTrainLogTelemetry:
    def _recording(self, monkeypatch):
        import panelcast.trainer as trainer_mod

        norms = []
        real = trainer_mod.clip_global_norm

        def clip(grads, max_norm):
            norms.append(real(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(trainer_mod, "clip_global_norm", clip)
        return norms

    def test_tsv_columns_after_val_nll(self):
        panel = sinusoid_panel(num_series=4, n=50, seed=14)
        _, log = train(panel, small_config(max_batches=16, windows_per_epoch=64))
        lines = log.to_tsv().splitlines()
        assert lines[0].split("\t") == [
            "epoch", "batches", "train_nll", "val_nll", "grad_norm_max", "clipped",
            "skipped_divergent", "windows_per_s", "elapsed_s", "val_s",
        ]
        body = [line.split("\t") for line in lines[1:-1]]
        assert len(body) == len(log.rows) == 2
        for fields, row in zip(body, log.rows):
            assert len(fields) == 10
            # the first four columns keep their meaning and format
            assert (int(fields[0]), int(fields[1])) == row[:2]
            assert float(fields[3]) == pytest.approx(row[3], abs=1e-6)
            assert row[7] > 0.0 and np.isfinite(row[7])
            # the validation pass takes a positive time, within the run's
            assert 0.0 < row[9] < row[8]
            assert float(fields[9]) == pytest.approx(row[9], abs=5e-4)

    def test_grad_norm_max_and_clipped_count(self, monkeypatch):
        import panelcast.trainer as trainer_mod

        norms = self._recording(monkeypatch)
        panel = sinusoid_panel(num_series=4, n=50, seed=15)
        _, log = train(panel, small_config(max_batches=16, windows_per_epoch=64))
        assert len(norms) == 16
        for k, row in enumerate(log.rows):
            epoch_norms = norms[8 * k : 8 * (k + 1)]
            assert row[4] == max(epoch_norms)
            assert row[5] == sum(n > trainer_mod.MAX_GRAD_NORM for n in epoch_norms)
            assert row[6] == 0

        # With a tiny clipping threshold every applied batch is clipped.
        monkeypatch.setattr(trainer_mod, "MAX_GRAD_NORM", 1e-9)
        _, log = train(panel, small_config(max_batches=16, windows_per_epoch=64))
        assert [row[5] for row in log.rows] == [8, 8]

    def test_skipped_divergent_batches_counted(self, monkeypatch):
        import panelcast.trainer as trainer_mod

        norms = self._recording(monkeypatch)
        real = trainer_mod.unroll_batch
        calls = []

        def flaky(windows, params, impute_seed=None, **kwargs):
            # Only training batches unroll; validation runs forward_nll.
            calls.append(1)
            if len(calls) in (2, 3, 11):
                raise DivergenceError("injected")
            return real(windows, params, impute_seed, **kwargs)

        monkeypatch.setattr(trainer_mod, "unroll_batch", flaky)
        panel = sinusoid_panel(num_series=4, n=50, seed=16)
        _, log = train(panel, small_config(max_batches=16, windows_per_epoch=64))
        assert [row[6] for row in log.rows] == [2, 1]
        assert [row[1] for row in log.rows] == [8, 16]
        assert len(norms) == 13
        assert log.rows[0][4] == max(norms[:6])


class TestGridSearch:
    def test_single_candidate_returned_unchanged(self):
        panel = sinusoid_panel(num_series=4, n=50, seed=9)
        cfg = small_config(max_batches=12)
        best, results = grid_search(panel, [8], [2], cfg)
        assert best == cfg
        assert len(results) == 1
        assert results[0][:2] == (8, 2)
        assert np.isfinite(results[0][2])

    def test_ranking_reproducible(self):
        panel = sinusoid_panel(num_series=4, n=50, seed=10)
        cfg = small_config(max_batches=16)
        best1, res1 = grid_search(panel, [4, 8], [2], cfg)
        best2, res2 = grid_search(panel, [4, 8], [2], cfg)
        assert best1 == best2
        assert res1 == res2

    def test_best_has_minimal_val_nll(self):
        panel = sinusoid_panel(num_series=4, n=50, seed=11)
        cfg = small_config(max_batches=16)
        best, results = grid_search(panel, [4, 8], [2, 4], cfg)
        winner = min(results, key=lambda r: r[2])
        assert (best.hidden_units, best.embedding_dim) == winner[:2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_diverged_rejected(self):
        panel = sinusoid_panel(num_series=4, n=50, seed=12)
        cfg = small_config(learning_rate=1e160, max_batches=20)
        with pytest.raises(ConfigError, match="diverged"):
            grid_search(panel, [4, 8], [2], cfg)

    def test_empty_axis_rejected(self):
        panel = sinusoid_panel(num_series=2, n=40, seed=13)
        with pytest.raises(ConfigError):
            grid_search(panel, [], [2], small_config())
