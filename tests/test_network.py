"""Model assembly: teacher-forced unrolls, encode/decode equivalence,
causality, loss additivity, and bit-exact serialization."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from panelcast.dataset import (
    MASK_MISSING,
    MASK_OBSERVED,
    FeatureStats,
    Granularity,
    Panel,
    TimeSeries,
    WindowBatch,
    WindowSampler,
    WindowSpec,
    feature_names,
    fit_feature_stats,
)
from panelcast.errors import ConfigError, DataError, DivergenceError
from panelcast.likelihood import LikelihoodKind, apply_heads, draw, gaussian_nll, nll_and_grads
from panelcast.lstm import SequenceTape, StepSlab, _padded
from panelcast.network import (
    _impute,
    _write_inputs,
    decode_step,
    encode,
    forward_nll,
    init_model,
    load_model,
    model_from_bytes,
    model_to_bytes,
    unroll_batch,
)
from panelcast.rng import RowKeys

from conftest import (
    count_panel,
    cut_window,
    gradient_gate_case,
    make_series,
    pcg64,
    pcg64_init_model,
    sinusoid_panel,
    slab_state,
    stack_windows,
    tiny_model,
)


def default_window(panel, model, sid=None, start=0):
    """A one-row WindowBatch of one of the panel's series."""
    series = panel.get(sid) if sid else next(iter(panel))
    return cut_window(series, model.spec, start, model.stats)


def window_input(w, model, t, z_prev):
    """One window's step-t input row, built the way the recurrence builds it."""
    x = np.full((1, model.input_dim), np.nan)
    _write_inputs(
        x, np.array([z_prev]), w.scale, w.covariates[0, t : t + 1], model.embedding[w.category],
    )
    return x[0]


class TestStepInput:
    def test_first_step_lagged_slot_zero(self):
        # The recurrence starts from z = 0 before the window start.
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.scale[:] = 7.0
        u = window_input(w, model, 0, 0.0)
        assert u[0] == 0.0

    def test_lagged_slot_divided_by_scale(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.scale[:] = 5.0
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
        w.category[:] = 1
        u = window_input(w, model, 0, 0.0)
        assert np.array_equal(u[-model.embedding_dim:], model.embedding[1])


class TestUnroll:
    def test_all_steps_missing_zero_loss_and_gradients(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.mask[:] = MASK_MISSING
        w.target[:] = np.nan
        result = unroll_batch(w, model, impute_seed=0)
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
        w = cut_window(series, spec, 0, stats)
        result = unroll_batch(w, model)

        # Longhand: two steps of the shared recurrence with teacher forcing.
        nu = w.scale[0]
        slab = StepSlab(model.layers, 1)
        total = 0.0
        z_prev = 0.0
        for t in range(2):
            lagged = 0.0 if t == 0 else z_prev / nu
            slab.step_inputs(t)[0] = np.concatenate([[lagged], w.covariates[0, t],
                                                     model.embedding[0]])
            slab.forward_step(t)
            mu, disp, _ = apply_heads(slab.top, model.heads, nu, model.likelihood)
            nll, _, _ = gaussian_nll(w.target[0, t], float(mu[0]), float(disp[0]))
            total += float(nll)
            z_prev = w.target[0, t]
        assert result.loss == pytest.approx(total, abs=1e-12)

    def test_loss_additivity_from_recorded_parameters(self):
        panel, model = tiny_model(LikelihoodKind.NEG_BINOMIAL)
        w = default_window(panel, model)
        result = unroll_batch(w, model)
        total = 0.0
        for t in range(w.target.shape[1]):
            if w.mask[0, t] == MASK_MISSING:
                continue
            nll, _, _ = nll_and_grads(
                w.target[0, t], result.mus[0, t], result.disps[0, t], model.likelihood
            )
            total += float(nll)
        assert result.loss == pytest.approx(total, abs=1e-10)

    def test_batched_equals_sum_of_singles(self):
        panel, model = tiny_model()
        ws = [default_window(panel, model, sid, start) for sid in ("c0", "c1") for start in (0, 4)]
        batched = unroll_batch(stack_windows(ws), model)
        singles = [unroll_batch(w, model) for w in ws]
        assert batched.loss == pytest.approx(math.fsum(s.loss for s in singles), rel=1e-13)
        for name, g in batched.grads.items():
            acc = np.zeros_like(g)
            for s in singles:
                acc += s.grads[name]
            assert np.allclose(g, acc, atol=1e-10), name

    def test_causality_future_perturbation(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        base = unroll_batch(w, model)
        t_cut = 7
        w2 = default_window(panel, model)
        w2.target[0, t_cut + 1:] = w2.target[0, t_cut + 1:] * 3.0 + 1.0
        other = unroll_batch(w2, model)
        # distribution parameters at steps <= t_cut depend only on z_{<t}, x_{<=t}
        assert np.array_equal(base.mus[0, : t_cut + 1], other.mus[0, : t_cut + 1])
        assert np.array_equal(base.disps[0, : t_cut + 1], other.disps[0, : t_cut + 1])

    def test_missing_steps_excluded_from_loss_but_fed_forward(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.mask[0, 2] = MASK_MISSING
        w.target[0, 2] = np.nan
        result = unroll_batch(w, model, impute_seed=1)
        assert result.counted_steps == w.target.shape[1] - 1
        assert np.isfinite(result.loss)

    def test_missing_without_stream_rejected(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        w.mask[0, 2] = MASK_MISSING
        w.target[0, 2] = np.nan
        with pytest.raises(ConfigError):
            unroll_batch(w, model)

    def test_divergence_error_carries_step(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        model.heads.b_mu.fill(np.inf)
        with pytest.raises(DivergenceError) as exc:
            unroll_batch(w, model)
        assert exc.value.log is not None
        assert "step" in exc.value.log

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_first_non_finite_step(self):
        # A Gaussian NLL overflows on a huge target: window 1 at step 7
        # comes before window 0 at step 9, so step 7 is named, with the
        # parameters of the rows counted there.
        panel, model = tiny_model()
        ws = stack_windows([default_window(panel, model, "c0"), default_window(panel, model, "c1")])
        ref = unroll_batch(ws, model)
        ws.target[0, 9] = 1e300
        ws.target[1, 7] = 1e300
        with pytest.raises(DivergenceError, match="step 7") as exc:
            unroll_batch(ws, model)
        assert exc.value.log["step"] == 7
        assert exc.value.log["mu"] == ref.mus[:, 7].tolist()
        assert exc.value.log["disp"] == ref.disps[:, 7].tolist()

    def test_divergence_before_imputation(self):
        # Non-finite parameters stop the unroll before any draw from them.
        panel, model = tiny_model(LikelihoodKind.NEG_BINOMIAL)
        w = default_window(panel, model)
        w.mask[0, 3] = MASK_MISSING
        w.target[0, 3] = np.nan
        model.heads.b_disp.fill(np.nan)
        with pytest.raises(DivergenceError) as exc:
            unroll_batch(w, model, impute_seed=2)
        assert exc.value.log["step"] == 0

    def test_derived_weights_follow_the_model(self):
        # Tape and slab derive their weights from the model at every reset:
        # after an Adam step, the reused tape and slab compute what a
        # fresh copy of the updated model computes.
        from panelcast.optim import adam_step, init_adam

        panel, model = tiny_model(LikelihoodKind.NEG_BINOMIAL, layers=2)
        ws = stack_windows([default_window(panel, model, sid) for sid in ("c0", "c1")])
        tape = SequenceTape(model.layers, model.spec.total, len(ws))
        slab = StepSlab(model.layers, len(ws))
        first = unroll_batch(ws, model, tape=tape)
        adam_step(model.blocks(), first.grads, init_adam(model.blocks(), learning_rate=1e-2))
        after = unroll_batch(ws, model, tape=tape)
        fresh_model = model_from_bytes(model_to_bytes(model))
        fresh = unroll_batch(ws, fresh_model)
        assert after.loss == fresh.loss != first.loss
        for name, g in after.grads.items():
            np.testing.assert_array_equal(g, fresh.grads[name], err_msg=name)
        slab.reset(len(ws))
        fresh_slab = StepSlab(fresh_model.layers, len(ws))
        x = np.random.default_rng(3).normal(size=(len(ws), model.input_dim))
        for s in (slab, fresh_slab):
            s.step_inputs(0)[...] = x
            s.forward_step(0)
        np.testing.assert_array_equal(slab.top, fresh_slab.top)

    @pytest.mark.parametrize("kind", [LikelihoodKind.GAUSSIAN, LikelihoodKind.NEG_BINOMIAL])
    def test_imputed_row_independent_of_block(self, kind):
        # The heads run on the whole block before the missing rows are
        # gathered, so a missing row of 64 draws what it draws alone.
        _, model = tiny_model(kind)
        gen = np.random.default_rng(21)
        h = gen.normal(size=(model.hidden_dim, 64))
        nu = 1.0 + gen.random(64) * 20.0
        keys = RowKeys.for_series(4, "impute", [f"s{i}" for i in range(64)], np.zeros(64))
        row = np.array([37])
        z = _impute(model, h, nu, keys, 5, row)
        alone = np.zeros((model.hidden_dim, _padded(1)))
        alone[:, 0] = h[:, 37]
        z_alone = _impute(model, alone, nu[row], keys.take(row), 5, np.array([0]))
        np.testing.assert_array_equal(z, z_alone)

    def test_unscaled_model_reads_unit_scales(self):
        # A model trained without scaling reads every window at nu = 1,
        # in training, validation and encoding alike.
        panel, model = tiny_model(LikelihoodKind.NEG_BINOMIAL, seed=3)
        unscaled = replace(model, scaling=False)
        w = default_window(panel, model)
        assert w.scale[0] != 1.0
        unit = replace(w, scale=np.ones_like(w.scale))
        assert unroll_batch(w, unscaled).loss == unroll_batch(unit, model).loss
        np.testing.assert_array_equal(forward_nll(w, unscaled)[0], forward_nll(unit, model)[0])
        for got, want in zip(encode_one(w, unscaled)[1:], encode_one(unit, model)[1:]):
            np.testing.assert_array_equal(got, want)
        assert unroll_batch(w, model).loss != unroll_batch(unit, model).loss

    @staticmethod
    def _tape_grads(windows, model):
        """unroll_batch's gradients on a float64 tape and on a float32 one."""
        tape = SequenceTape(model.layers, model.spec.total, len(windows), np.float32)
        return unroll_batch(windows, model).grads, unroll_batch(windows, model, tape=tape).grads

    @pytest.mark.parametrize("kind", [LikelihoodKind.GAUSSIAN, LikelihoodKind.NEG_BINOMIAL])
    def test_float32_tape_gradients_track_float64(self, kind):
        # On the gradient gate's model, and on the benchmark's shape (three
        # 40-unit layers, embedding 10, 64 windows of 28 + 14 steps), each
        # block of a float32 tape's gradients is float64 and within 1e-5
        # relative, in norm, of the float64 tape's.
        panel = count_panel(num_series=20, n=120, seed=4, mean_hi=500.0)
        spec = WindowSpec(28, 14)
        stats = fit_feature_stats(panel, spec)
        model = init_model(kind, spec, stats, panel.granularity, 2, 3, 40, 10, seed=6)
        windows = WindowSampler(panel, spec, stats).draw(pcg64(6, "windows").random((64, 2)))
        for windows, model in (gradient_gate_case(kind), (windows, model)):
            g64, g32 = self._tape_grads(windows, model)
            for name, g in g64.items():
                assert g32[name].dtype == np.float64
                assert np.linalg.norm(g32[name] - g) <= 1e-5 * np.linalg.norm(g), name

    @pytest.mark.parametrize("scaling, magnitude", [(False, 1e19), (True, 1e45)])
    def test_gaussian_gradients_stay_finite_on_a_float32_tape(self, scaling, magnitude):
        # At unit scale the Gaussian sigma-gradient grows as z^2, about 1e40
        # for targets near 1e20, past the float32 range. At scales near
        # 1e45 the gradients w.r.t. mu and sigma shrink as 1/nu, below the
        # float32 range, while the gradient w.r.t. the top h stays near 1.
        # The tape runs backward from the latter scaled by a power of two
        # to below 1, so either way a float32 tape's gradients are finite
        # and track the float64 tape's.
        panel = sinusoid_panel(num_series=4, n=30, seed=9)
        for series in panel:
            series.target *= magnitude
        _, model = tiny_model(panel=panel, layers=2, cardinality=4)
        model = replace(model, scaling=scaling)
        windows = stack_windows([default_window(panel, model, f"s{i}") for i in range(4)])
        g64, g32 = self._tape_grads(windows, model)
        if not scaling:
            assert abs(g64["head.b_disp"]) > np.finfo(np.float32).max
        for name, g in g64.items():
            assert np.isfinite(g32[name]).all(), name
            assert np.linalg.norm(g32[name] - g) <= 1e-5 * np.linalg.norm(g), name

    def test_mismatched_window_length_rejected(self):
        panel, model = tiny_model()
        other_spec = WindowSpec(3, 3)
        stats = fit_feature_stats(panel, other_spec)
        w = cut_window(next(iter(panel)), other_spec, 0, stats)
        with pytest.raises(ConfigError):
            unroll_batch(w, model)

    @pytest.mark.parametrize("misfit", ["steps", "layers"])
    def test_tape_that_does_not_fit_rejected(self, misfit):
        # A given tape is refused, not replaced by a new float64 one, when
        # it was made for another window length or other layers.
        panel, model = tiny_model(layers=2)
        w = default_window(panel, model)
        steps, layers = model.spec.total, model.layers
        if misfit == "steps":
            steps += 1
        else:
            layers = tiny_model(panel=panel, layers=2, seed=1)[1].layers
        tape = SequenceTape(layers, steps, len(w), np.float32)
        with pytest.raises(ConfigError, match="tape"):
            unroll_batch(w, model, tape=tape)

    def test_float32_tape_refuses_weights_past_its_range(self):
        # The range guard validation runs belongs to unroll_batch too: a
        # float32 tape cannot step a weight past the float32 range.
        panel, model = tiny_model()
        w = default_window(panel, model)
        tape = SequenceTape(model.layers, model.spec.total, len(w), np.float32)
        model.layers[0].w[0, 3] = 1e39
        with pytest.raises(DivergenceError) as exc:
            unroll_batch(w, model, tape=tape)
        assert str(exc.value) == "the model's lstm0.w holds a value past the float32 range"


def encode_one(w, model, target=None, mask=None, category=None, keys=None):
    """Encode one window's conditioning range and first prediction step as
    a batch of one series: (slab, mu, disp)."""
    c = model.spec.conditioning_length
    target = w.target[0, :c] if target is None else target
    mask = w.mask[0, :c] if mask is None else mask
    category = w.category if category is None else np.array([category])
    slab = StepSlab(model.layers, 1)
    batch = WindowBatch(w.ids, w.starts, target[None, :], mask[None, :], w.scale, w.covariates,
                        category)
    mu, disp = encode(batch, model, slab, keys)
    return slab, mu, disp


def decode_one(model, slab, z_prev, w):
    """The prediction step after encode's, for z_prev (n,) on n rows."""
    c = model.spec.conditioning_length
    n = z_prev.shape[0]
    return decode_step(
        model, slab, z_prev, np.repeat(w.covariates[0, c + 1][None, :], n, axis=0),
        np.full(n, w.scale[0]),
    )


class TestEncodeDecode:
    def test_zero_length_conditioning_gives_zero_state(self):
        # encode resets the slab: with no conditioning step, the first
        # prediction step starts from the zero state, whatever the slab
        # held, as a fresh slab steps it.
        panel, model = tiny_model()
        w = default_window(panel, model)
        d = len(model.stats.names)
        slab = StepSlab(model.layers, 3)
        slab.step_inputs(0)[...] = np.random.default_rng(5).normal(size=(3, model.input_dim))
        slab.forward_step(0)
        cov = w.covariates[:, :1]
        empty = WindowBatch(w.ids, w.starts, np.zeros((1, 0)), np.zeros((1, 0), dtype=np.int8),
                            w.scale, cov, w.category)
        mu, disp = encode(empty, model, slab)
        fresh = StepSlab(model.layers, 1)
        fresh.step_inputs(0)[0, 1 : 1 + d] = cov[0, 0]
        fresh.step_inputs(0)[0, 1 + d :] = model.embedding[w.category[0]]
        fresh.forward_step(0)
        for a, b in zip(slab_state(slab), slab_state(fresh)):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)
        ref = apply_heads(fresh.top, model.heads, w.scale, model.likelihood)
        assert (mu[0], disp[0]) == (ref[0][0], ref[1][0])

    def test_encode_plus_decode_equals_direct_unroll(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        c = model.spec.conditioning_length
        slab, mu, disp = encode_one(w, model)
        result = unroll_batch(w, model)
        assert float(mu[0]) == result.mus[0, c]
        assert float(disp[0]) == result.disps[0, c]
        mu, disp = decode_one(model, slab, w.target[0, c : c + 1], w)
        assert float(mu[0]) == result.mus[0, c + 1]
        assert float(disp[0]) == result.disps[0, c + 1]

    @pytest.mark.parametrize("kind", [LikelihoodKind.GAUSSIAN, LikelihoodKind.NEG_BINOMIAL])
    def test_missing_last_conditioning_value_drawn_at_its_step(self, kind):
        # The value fed to the first prediction step c, for a missing value
        # at step c - 1, is the draw at counter c - 1 from step c - 1's
        # distribution, under the key unroll_batch uses for the window.
        panel, model = tiny_model(kind)
        w = default_window(panel, model)
        c = model.spec.conditioning_length
        w.mask[0, c - 1] = MASK_MISSING
        w.target[0, c - 1] = np.nan
        keys = RowKeys.for_series(6, "impute", w.ids, [0])
        _, mu, disp = encode_one(w, model, keys=keys)
        result = unroll_batch(w, model, impute_seed=6)
        assert (float(mu[0]), float(disp[0])) == (result.mus[0, c], result.disps[0, c])
        z = draw(kind, result.mus[0, c - 1 : c], result.disps[0, c - 1 : c], keys, c - 1)
        target, mask = w.target[0, :c].copy(), w.mask[0, :c].copy()
        target[c - 1], mask[c - 1] = z[0], MASK_OBSERVED
        _, mu_z, disp_z = encode_one(w, model, target, mask)
        assert (mu_z[0], disp_z[0]) == (mu[0], disp[0])
        # A step that fed 0, or the draw of another counter, reads otherwise.
        for other in (0.0, draw(kind, result.mus[0, c - 1 : c], result.disps[0, c - 1 : c],
                                keys, c)[0]):
            target[c - 1] = other
            assert encode_one(w, model, target, mask)[1][0] != mu[0]

    def test_encode_ignores_prediction_range(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        c = model.spec.conditioning_length
        s1, mu1, _ = encode_one(w, model, category=0)
        s2, mu2, _ = encode_one(w, model, w.target[0, :c].copy(), w.mask[0, :c].copy(), category=0)
        assert mu1[0] == mu2[0]
        for a, b in zip(slab_state(s1).h, slab_state(s2).h):
            assert np.array_equal(a, b)

    def test_missing_conditioning_imputation_deterministic(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        c = model.spec.conditioning_length
        mask = w.mask[0, :c].copy()
        target = w.target[0, :c].copy()
        mask[1] = MASK_MISSING
        target[1] = np.nan
        keys = RowKeys.for_series(4, "imp", w.ids, [0])
        s1, mu1, _ = encode_one(w, model, target, mask, category=0, keys=keys)
        s2, mu2, _ = encode_one(w, model, target, mask, category=0, keys=keys)
        assert mu1[0] == mu2[0]
        assert all(np.array_equal(a, b) for a, b in zip(slab_state(s1).h, slab_state(s2).h))

    def test_imputation_from_non_finite_parameters_diverges(self):
        panel, model = tiny_model(LikelihoodKind.NEG_BINOMIAL)
        w = default_window(panel, model)
        c = model.spec.conditioning_length
        mask = w.mask[0, :c].copy()
        target = w.target[0, :c].copy()
        mask[1] = MASK_MISSING
        target[1] = np.nan
        model.heads.b_disp.fill(np.nan)
        keys = RowKeys.for_series(4, "imp", w.ids, [0])
        with pytest.raises(DivergenceError):
            encode_one(w, model, target, mask, keys=keys)

    def test_decode_step_batched_paths_independent(self):
        panel, model = tiny_model()
        w = default_window(panel, model)
        c = model.spec.conditioning_length
        encoded = encode_one(w, model)[0].state()
        # A block of three paths loaded from the encoded row, with different
        # previous values: each row must match running the same step with
        # batch size one.
        z_prev = np.array([w.target[0, c], w.target[0, c] * 2.0, 0.0])

        def paths(n):
            slab = StepSlab(model.layers, n)
            slab.load(encoded, np.zeros(n, dtype=np.intp))
            return slab

        mu_b, disp_b = decode_one(model, paths(3), z_prev, w)
        for i in range(3):
            mu_1, disp_1 = decode_one(model, paths(1), z_prev[i : i + 1], w)
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
        loss_a = unroll_batch(w, model).loss
        loss_b = unroll_batch(w, restored).loss
        assert loss_a == loss_b  # bitwise, not approximately

    @pytest.mark.parametrize("name", ["gaussian", "negbin"])
    def test_committed_fixtures_round_trip_bytewise(self, name):
        # The file format is unchanged: the benchmark's committed models
        # load and write back byte for byte.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / f"{name}.model"
        assert model_to_bytes(load_model(path)) == path.read_bytes()

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

    def test_features_inconsistent_with_layers_are_data_errors(self):
        # Such files would load and then fail inside predict.
        import json

        panel, model = tiny_model()
        doc = json.loads(model_to_bytes(model))
        features = doc["features"]
        for bad in (dict(features, mean=features["mean"] + [0.0]),
                    dict(features, std=features["std"][:1]),
                    dict(features, names=["age", "hour_of_day"])):
            with pytest.raises(DataError, match="feature statistics"):
                model_from_bytes(json.dumps(dict(doc, features=bad)).encode("utf-8"))
        hourly = dict(features, names=feature_names(Granularity.HOURLY),
                      mean=[0.0, 0.0, 0.0], std=[1.0, 1.0, 1.0])
        with pytest.raises(DataError, match="LSTM input width"):
            model_from_bytes(json.dumps(dict(doc, granularity="H", features=hourly)).encode("utf-8"))

    def test_scaling_off_is_recorded_and_read(self):
        # Only a model trained without scaling writes the key, so that the
        # files of scaled models keep their bytes.
        import json

        panel, model = tiny_model(seed=9)
        assert "scaling" not in json.loads(model_to_bytes(model))
        model.scaling = False
        blob = model_to_bytes(model)
        doc = json.loads(blob)
        assert doc["scaling"] is False
        restored = model_from_bytes(blob)
        assert restored.scaling is False and model_to_bytes(restored) == blob
        for bad in (0, 1, "false", None):
            with pytest.raises(DataError, match="scaling must be true or false"):
                model_from_bytes(json.dumps(dict(doc, scaling=bad)).encode("utf-8"))

    def test_corrupt_payload_rejected(self):
        with pytest.raises(Exception):
            model_from_bytes(b'{"format": "something-else"}\n')

    def test_parameter_count_matches_blocks(self):
        panel, model = tiny_model()
        assert model.parameter_count() == sum(a.size for a in model.blocks().values())


class TestInitModel:
    def test_blocks_read_their_own_keys(self):
        # Block b's n weights are the first n uniforms of one row, path 0,
        # of the key of (seed, "init", b), scaled to +-1/sqrt(fan-in).
        _, model = tiny_model(hidden=5, layers=2, embedding_dim=3, cardinality=4, seed=11)

        def expected(block, shape, fan_in):
            n = math.prod(shape)
            u = RowKeys.for_series(11, "init", [block], [0]).uniforms(0, 0, -(-n // 2))[:n, 0]
            return (u.reshape(shape) * 2.0 - 1.0) * (1.0 / np.sqrt(fan_in))

        assert np.array_equal(model.embedding, expected("embedding", (4, 3), 3))
        for i, layer in enumerate(model.layers):
            assert np.array_equal(layer.w, expected(f"lstm{i}", layer.w.shape, layer.w.shape[0]))
        w_mu, w_disp = expected("heads", (2, 5), 5)
        assert np.array_equal(model.heads.w_mu, w_mu)
        assert np.array_equal(model.heads.w_disp, w_disp)


class TestSigmaShrinksOnConstantData:
    def test_monotone_descent_toward_floor(self):
        from panelcast.optim import adam_step, clip_global_norm, init_adam

        series = make_series("const", [5.0] * 30)
        panel = Panel([series])
        spec = WindowSpec(6, 4)
        stats = fit_feature_stats(panel, spec)
        # Pinned starting weights: the descent is monotone from this init,
        # not from every one.
        model = pcg64_init_model(
            LikelihoodKind.GAUSSIAN, spec, stats, Granularity.DAILY, 1, 1, 8, 2, seed=0,
        )
        w = cut_window(series, spec, 0, stats)
        opt = init_adam(model.blocks(), learning_rate=5e-3)
        sigmas = []
        for step in range(60):
            result = unroll_batch(w, model)
            sigmas.append(float(result.disps[0].mean()))
            grads = dict(result.grads)
            clip_global_norm(grads, 10.0)
            adam_step(model.blocks(), grads, opt)
        # steady shrink: every 10-step checkpoint strictly below the last
        checkpoints = sigmas[::10] + [sigmas[-1]]
        assert all(b < a for a, b in zip(checkpoints, checkpoints[1:])), checkpoints
        assert sigmas[-1] < 0.5 * sigmas[0]
