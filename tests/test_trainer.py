"""Training loop: config parsing, determinism, early stopping, divergence,
and hyperparameter grid search."""

import numpy as np
import pytest

from panelcast.dataset import Panel, WindowSampler, fit_feature_stats
from panelcast.errors import ConfigError, DivergenceError
from panelcast.forecaster import forecast, quantiles
from panelcast.likelihood import LikelihoodKind
from panelcast.network import init_model, model_to_bytes
from panelcast.rng import derive_seed
from panelcast.trainer import TrainConfig, _pool_nll, grid_search, parse_config, train

from conftest import count_panel, make_series, sinusoid_panel


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
        assert [r[:-2] for r in log_a.rows] == [r[:-2] for r in log_b.rows]
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
        fc = forecast(panel.get("z0"), model, num_samples=64, seed=1)
        p50 = quantiles(fc, [0.5]).values[0]
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

    def test_ablation_flags_produce_different_models(self):
        panel = count_panel(num_series=6, n=50, seed=8)
        cfg = small_config(likelihood="negbin", max_batches=16)
        full, _ = train(panel, cfg)
        ablated, _ = train(panel, TrainConfig(**{**cfg.to_dict(),
                                                 "uniform_sampling": True,
                                                 "no_scaling": True}))
        assert model_to_bytes(full) != model_to_bytes(ablated)


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
            "skipped_divergent", "windows_per_s", "elapsed_s",
        ]
        body = [line.split("\t") for line in lines[1:-1]]
        assert len(body) == len(log.rows) == 2
        for fields, row in zip(body, log.rows):
            assert len(fields) == 9
            # the first four columns keep their meaning and format
            assert (int(fields[0]), int(fields[1])) == row[:2]
            assert float(fields[3]) == pytest.approx(row[3], abs=1e-6)
            assert row[7] > 0.0 and np.isfinite(row[7])

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

        def flaky(windows, params, impute_seed=None, compute_grads=True, **kwargs):
            if compute_grads:
                calls.append(1)
                if len(calls) in (2, 3, 11):
                    raise DivergenceError("injected")
            return real(windows, params, impute_seed, compute_grads, **kwargs)

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
