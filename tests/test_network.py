"""Model assembly: teacher-forced unrolls, encode/decode equivalence,
causality, loss additivity, and bit-exact serialization."""

import math

import numpy as np
import pytest

from panelcast.dataset import (
    MASK_MISSING,
    MASK_OBSERVED,
    FeatureStats,
    Granularity,
    Panel,
    TimeSeries,
    WindowSpec,
    build_window,
    feature_names,
    fit_feature_stats,
)
from panelcast.errors import ConfigError, DataError, DivergenceError
from panelcast.likelihood import LikelihoodKind, gaussian_nll, nll_and_grads
from panelcast.lstm import zero_state
from panelcast.network import (
    _rows_input,
    decode_step,
    encode,
    init_model,
    model_from_bytes,
    model_to_bytes,
    unroll_batch,
)
from panelcast.rng import RowKeys

from conftest import count_panel, make_series, sinusoid_panel, tiny_model


def default_window(panel, model, sid=None, start=0):
    series = panel.get(sid) if sid else next(iter(panel))
    return build_window(series, model.spec, start, model.stats)


def window_input(w, model, t, z_prev):
    """One window's step-t input row, built the way the recurrence builds it."""
    return _rows_input(
        np.array([z_prev]), np.array([w.scale]), w.covariates[t : t + 1],
        model.embedding[[w.category]],
    )[0]


class TestStepInput:
    def test_first_step_lagged_slot_zero(self):
        # The recurrence starts from z = 0 before the window start.
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.scale = 7.0
        u = window_input(w, model, 0, 0.0)
        assert u[0] == 0.0

    def test_lagged_slot_divided_by_scale(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.scale = 5.0
        u = window_input(w, model, 3, 10.0)
        assert u[0] == pytest.approx(2.0)

    def test_vector_length(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        d = len(model.stats.names)
        u = window_input(w, model, 1, 0.0)
        assert u.size == 1 + d + model.embedding_dim

    def test_embedding_row_selected_by_category(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.category = 1
        u = window_input(w, model, 0, 0.0)
        assert np.array_equal(u[-model.embedding_dim:], model.embedding[1])


class TestUnroll:
    def test_all_steps_missing_zero_loss_and_gradients(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.mask[:] = MASK_MISSING
        w.target[:] = np.nan
        result = unroll_batch([w], model, impute_seed=0)
        assert result.loss == 0.0
        assert result.counted_steps == 0
        assert all(np.allclose(g, 0.0) for g in result.grads.values())

    def test_single_step_window_matches_hand_computation(self):
        # Conditioning length 1, prediction length 1; hand-compute both steps'
        # Gaussian NLL from the recurrence written out longhand.
        series = make_series("one", [4.0, 2.0])
        panel = Panel([series])
        spec = WindowSpec(1, 1)
        stats = fit_feature_stats(panel, spec)
        model = init_model(
            LikelihoodKind.GAUSSIAN, spec, stats, Granularity.DAILY,
            1, 1, 4, 2, seed=5,
        )
        w = build_window(series, spec, 0, stats)
        result = unroll_batch([w], model)

        # Longhand: two steps of the shared recurrence with teacher forcing.
        from panelcast.likelihood import apply_heads
        from panelcast.lstm import lstm_step

        nu = w.scale
        state = zero_state(model.layers, 1)
        total = 0.0
        z_prev = 0.0
        for t in range(2):
            lagged = 0.0 if t == 0 else z_prev / nu
            u = np.concatenate([[lagged], w.covariates[t], model.embedding[0]])[None, :]
            state = lstm_step(u, state, model.layers)
            mu, disp, _ = apply_heads(state.h[-1], model.heads, nu, model.likelihood)
            nll, _, _ = gaussian_nll(w.target[t], float(mu[0]), float(disp[0]))
            total += float(nll)
            z_prev = w.target[t]
        assert result.loss == pytest.approx(total, abs=1e-12)

    def test_loss_additivity_from_recorded_parameters(self):
        panel, model = tiny_model(LikelihoodKind.NEG_BINOMIAL)
        w = default_window(panel, model)
        result = unroll_batch([w], model)
        total = 0.0
        for t in range(w.total):
            if w.mask[t] == MASK_MISSING:
                continue
            p = result.step_likelihood(0, t)
            nll, _, _ = nll_and_grads(w.target[t], p.mu, p.disp, model.likelihood)
            total += float(nll)
        assert result.loss == pytest.approx(total, abs=1e-10)

    def test_batched_equals_sum_of_singles(self):
        panel, model = tiny_model()
        ws = [default_window(panel, model, sid, start) for sid in ("c0", "c1") for start in (0, 4)]
        batched = unroll_batch(ws, model)
        singles = [unroll_batch([w], model) for w in ws]
        assert batched.loss == pytest.approx(math.fsum(s.loss for s in singles), rel=1e-13)
        for name, g in batched.grads.items():
            acc = np.zeros_like(g)
            for s in singles:
                acc += s.grads[name]
            assert np.allclose(g, acc, atol=1e-10), name

    def test_causality_future_perturbation(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        base = unroll_batch([w], model)
        t_cut = 7
        w2 = default_window(panel, model)
        w2.target[t_cut + 1:] = w2.target[t_cut + 1:] * 3.0 + 1.0
        other = unroll_batch([w2], model)
        # distribution parameters at steps <= t_cut depend only on z_{<t}, x_{<=t}
        assert np.array_equal(base.mus[0, : t_cut + 1], other.mus[0, : t_cut + 1])
        assert np.array_equal(base.disps[0, : t_cut + 1], other.disps[0, : t_cut + 1])

    def test_missing_steps_excluded_from_loss_but_fed_forward(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.mask[2] = MASK_MISSING
        w.target[2] = np.nan
        result = unroll_batch([w], model, impute_seed=1)
        assert result.counted_steps == w.total - 1
        assert np.isfinite(result.loss)

    def test_missing_without_stream_rejected(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.mask[2] = MASK_MISSING
        w.target[2] = np.nan
        with pytest.raises(ConfigError):
            unroll_batch([w], model)

    def test_divergence_error_carries_step(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        model.heads.b_mu.fill(np.inf)
        with pytest.raises(DivergenceError) as exc:
            unroll_batch([w], model)
        assert exc.value.log is not None
        assert "step" in exc.value.log

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_first_non_finite_step(self):
        # A Gaussian NLL overflows on a huge target: window 1 at step 7
        # comes before window 0 at step 9, so step 7 is named, with the
        # parameters of the rows counted there.
        panel, model = tiny_model()
        ws = [default_window(panel, model, "c0"), default_window(panel, model, "c1")]
        ws[0].target[9] = 1e300
        ws[1].target[7] = 1e300
        ref = unroll_batch([default_window(panel, model, "c0"), default_window(panel, model, "c1")],
                           model)
        with pytest.raises(DivergenceError, match="step 7") as exc:
            unroll_batch(ws, model)
        assert exc.value.log["step"] == 7
        assert exc.value.log["mu"] == ref.mus[:, 7].tolist()
        assert exc.value.log["disp"] == ref.disps[:, 7].tolist()

    def test_divergence_before_imputation(self):
        # Non-finite parameters stop the unroll before any draw from them.
        panel, model = tiny_model(LikelihoodKind.NEG_BINOMIAL)
        w = default_window(panel, model)
        w.mask[3] = MASK_MISSING
        w.target[3] = np.nan
        model.heads.b_disp.fill(np.nan)
        with pytest.raises(DivergenceError) as exc:
            unroll_batch([w], model, impute_seed=2)
        assert exc.value.log["step"] == 0

    def test_mismatched_window_length_rejected(self):
        panel, model = tiny_model()
        other_spec = WindowSpec(3, 3)
        stats = fit_feature_stats(panel, other_spec)
        w = build_window(next(iter(panel)), other_spec, 0, stats)
        with pytest.raises(ConfigError):
            unroll_batch([w], model)


def encode_one(w, model, target=None, mask=None, category=None, keys=None):
    """Encode one window's conditioning range as a batch of one series."""
    c = model.spec.conditioning_length
    target = w.target[:c] if target is None else target
    mask = w.mask[:c] if mask is None else mask
    category = w.category if category is None else category
    return encode(
        target[None, :], mask[None, :], w.covariates[None, :c], np.array([w.scale]),
        np.array([category]), model, keys,
    )


def decode_one(model, state, z_prev, w):
    c = model.spec.conditioning_length
    n = z_prev.shape[0]
    return decode_step(
        model, state, z_prev, np.repeat(w.covariates[c][None, :], n, axis=0),
        np.full(n, w.category), np.full(n, w.scale),
    )


class TestEncodeDecode:
    def test_zero_length_conditioning_gives_zero_state(self):
        panel, model = tiny_model()
        state, z_last = encode(
            np.zeros((1, 0)), np.zeros((1, 0), dtype=np.int8),
            np.zeros((1, 0, len(model.stats.names))), np.ones(1), np.zeros(1, dtype=int), model,
        )
        assert all(np.all(h == 0.0) for h in state.h)
        assert all(np.all(c == 0.0) for c in state.c)
        assert z_last[0] == 0.0

    def test_encode_plus_decode_equals_direct_unroll(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        c = model.spec.conditioning_length
        state, z_last = encode_one(w, model)
        new_state, mu, disp = decode_one(model, state, z_last, w)
        result = unroll_batch([w], model)
        assert float(mu[0]) == result.mus[0, c]
        assert float(disp[0]) == result.disps[0, c]

    def test_encode_ignores_prediction_range(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        c = model.spec.conditioning_length
        s1, z1 = encode_one(w, model, category=0)
        s2, z2 = encode_one(w, model, w.target[:c].copy(), w.mask[:c].copy(), category=0)
        assert z1[0] == z2[0]
        for a, b in zip(s1.h, s2.h):
            assert np.array_equal(a, b)

    def test_missing_conditioning_imputation_deterministic(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        c = model.spec.conditioning_length
        mask = w.mask[:c].copy()
        target = w.target[:c].copy()
        mask[1] = MASK_MISSING
        target[1] = np.nan
        keys = RowKeys.for_series(4, "imp", [w.series_id], [0])
        s1, z1 = encode_one(w, model, target, mask, category=0, keys=keys)
        s2, z2 = encode_one(w, model, target, mask, category=0, keys=keys)
        assert z1[0] == z2[0]
        assert all(np.array_equal(a, b) for a, b in zip(s1.h, s2.h))

    def test_imputation_from_non_finite_parameters_diverges(self):
        panel, model = tiny_model(LikelihoodKind.NEG_BINOMIAL)
        w = default_window(panel, model)
        c = model.spec.conditioning_length
        mask = w.mask[:c].copy()
        target = w.target[:c].copy()
        mask[1] = MASK_MISSING
        target[1] = np.nan
        model.heads.b_disp.fill(np.nan)
        keys = RowKeys.for_series(4, "imp", [w.series_id], [0])
        with pytest.raises(DivergenceError):
            encode_one(w, model, target, mask, keys=keys)

    def test_decode_step_batched_paths_independent(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        state, z_last = encode_one(w, model)
        # Batch of three paths with different previous values: each row must
        # match running the same step with batch size one.
        z_prev = np.array([z_last[0], z_last[0] * 2.0, 0.0])
        tiled = type(state)(
            [np.repeat(h, 3, axis=0) for h in state.h],
            [np.repeat(cc, 3, axis=0) for cc in state.c],
        )
        _, mu_b, disp_b = decode_one(model, tiled, z_prev, w)
        for i in range(3):
            _, mu_1, disp_1 = decode_one(model, state, z_prev[i : i + 1], w)
            assert mu_b[i] == pytest.approx(float(mu_1[0]), rel=1e-12)
            assert disp_b[i] == pytest.approx(float(disp_1[0]), rel=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("kind", [LikelihoodKind.GAUSSIAN, LikelihoodKind.NEG_BINOMIAL])
    def test_round_trip_bitwise(self, kind):
        panel, model = tiny_model(kind, seed=9)
        blob = model_to_bytes(model)
        restored = model_from_bytes(blob)
        assert model_to_bytes(restored) == blob
        w = default_window(panel, model)
        loss_a = unroll_batch([w], model).loss
        loss_b = unroll_batch([w], restored).loss
        assert loss_a == loss_b  # bitwise, not approximately

    def test_round_trip_preserves_every_block(self):
        panel, model = tiny_model(seed=11)
        restored = model_from_bytes(model_to_bytes(model))
        for name, arr in model.blocks().items():
            assert np.array_equal(arr, restored.blocks()[name]), name

    def test_each_missing_top_level_key_is_a_data_error(self):
        import json

        panel, model = tiny_model()
        doc = json.loads(model_to_bytes(model))
        for key in sorted(doc):
            partial = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(DataError):
                model_from_bytes(json.dumps(partial).encode("utf-8"))

    def test_malformed_values_are_data_errors(self):
        import json

        panel, model = tiny_model()
        doc = json.loads(model_to_bytes(model))
        for key, bad in (("window", []), ("num_layers", "x"), ("params", {"embedding": 3}),
                         ("embedding_dim", 7), ("category_cardinality", 9), ("num_layers", 0)):
            with pytest.raises(DataError):
                model_from_bytes(json.dumps(dict(doc, **{key: bad})).encode("utf-8"))
        with pytest.raises(DataError):
            model_from_bytes(b"[1, 2]\n")

    def test_corrupt_payload_rejected(self):
        with pytest.raises(Exception):
            model_from_bytes(b'{"format": "something-else"}\n')

    def test_parameter_count_matches_blocks(self):
        panel, model = tiny_model()
        assert model.parameter_count() == sum(a.size for a in model.blocks().values())


class TestSigmaShrinksOnConstantData:
    def test_monotone_descent_toward_floor(self):
        from panelcast.optim import adam_step, clip_global_norm, init_adam

        series = make_series("const", [5.0] * 30)
        panel = Panel([series])
        spec = WindowSpec(6, 4)
        stats = fit_feature_stats(panel, spec)
        model = init_model(
            LikelihoodKind.GAUSSIAN, spec, stats, Granularity.DAILY, 1, 1, 8, 2, seed=0,
        )
        w = build_window(series, spec, 0, stats)
        opt = init_adam(model.blocks(), learning_rate=5e-3)
        sigmas = []
        for step in range(60):
            result = unroll_batch([w], model)
            sigmas.append(float(result.disps[0].mean()))
            grads = dict(result.grads)
            clip_global_norm(grads, 10.0)
            adam_step(model.blocks(), grads, opt)
        # steady shrink: every 10-step checkpoint strictly below the last
        checkpoints = sigmas[::10] + [sigmas[-1]]
        assert all(b < a for a, b in zip(checkpoints, checkpoints[1:])), checkpoints
        assert sigmas[-1] < 0.5 * sigmas[0]
