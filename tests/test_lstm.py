"""LSTM cell and stack: hand oracles, brute-force gate equations, FD gradients."""

import numpy as np
import pytest

from panelcast.errors import ConfigError
from panelcast.lstm import LstmLayerParams, SequenceTape, StepSlab
from panelcast.special import sigmoid

from conftest import LstmState, load_state, pcg64, slab_state, tiny_model
from gradcheck import finite_diff_check


def zero_layer(input_dim, hidden, forget_bias=1.0):
    w = np.zeros((input_dim + hidden, 4 * hidden))
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = forget_bias
    return LstmLayerParams(input_dim, hidden, w, b)


def random_layer(input_dim, hidden, seed):
    """Weights uniform within +-1/sqrt(fan-in) from pcg64(seed, "layer"),
    the forget bias 1.0."""
    layer = zero_layer(input_dim, hidden)
    bound = 1.0 / np.sqrt(input_dim + hidden)
    layer.w[...] = (pcg64(seed, "layer").random(layer.w.shape) * 2.0 - 1.0) * bound
    return layer


def stack(dims, seed):
    """Layers dims[0] -> dims[1] -> ... with random weights."""
    return [random_layer(i, h, seed + k) for k, (i, h) in enumerate(zip(dims, dims[1:]))]


def brute_force_cell(x, h_prev, c_prev, layer):
    """Straight transcription of the gate equations, one unit at a time."""
    hidden = layer.hidden_dim
    xh = np.concatenate([x, h_prev])
    pre = xh @ layer.w + layer.b
    i = sigmoid(pre[0:hidden])
    f = sigmoid(pre[hidden : 2 * hidden])
    g = np.tanh(pre[2 * hidden : 3 * hidden])
    o = sigmoid(pre[3 * hidden : 4 * hidden])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def lstm_step(x, state, layers):
    """One step of the stack from `state` (None: zeros) on a StepSlab;
    the state after it."""
    slab = StepSlab(layers, x.shape[0])
    if state is not None:
        load_state(slab, state)
    slab.inputs[...] = x
    slab.step()
    return slab_state(slab)


def top_rows(tape):
    """(T, B, H) copy of the top layer's h at every step of a tape."""
    return tape.top[:, :, : tape.batch].transpose(1, 2, 0).copy()


def slab_top(slab):
    """(B, H) copy of the top layer's h on a StepSlab."""
    return slab.top[:, : slab.batch].T.copy()


def upstream(tape, d_h):
    """d_h (T, B, H) written into the tape's upstream buffer, feature-major,
    zero in the padding columns."""
    up = tape.upstream()
    up[...] = 0.0
    up[:, :, : tape.batch] = d_h.transpose(2, 0, 1)
    return up


def run_tape(layers, xs):
    """A SequenceTape over inputs xs (T, B, input_dim), run forward from
    the zero state."""
    tape = SequenceTape(layers, xs.shape[0], xs.shape[1])
    tape.inputs[...] = xs
    for t in range(xs.shape[0]):
        tape.forward_step(t)
    return tape


class TestForward:
    def test_zero_weights_zero_output(self):
        layer = zero_layer(3, 4)
        x = np.array([[1.0, -2.0, 0.5]])
        new_state = lstm_step(x, None, [layer])
        assert np.allclose(new_state.h[0], 0.0)
        assert np.allclose(new_state.c[0], 0.0)

    def test_zero_weights_nonzero_prior_cell_decays_through_forget_gate(self):
        layer = zero_layer(2, 3, forget_bias=1.0)
        state = LstmState([np.zeros((1, 3))], [np.ones((1, 3))])
        new_state = lstm_step(np.zeros((1, 2)), state, [layer])
        # candidate tanh(0)=0, forget gate sigmoid(1); c' = sigmoid(1)*1
        assert np.allclose(new_state.c[0], sigmoid(1.0))

    def test_random_cell_matches_brute_force(self):
        layer = random_layer(2, 3, seed=1)
        rng = np.random.default_rng(0)
        x = rng.normal(size=2)
        h_prev = rng.normal(size=3)
        c_prev = rng.normal(size=3)
        h_ref, c_ref = brute_force_cell(x, h_prev, c_prev, layer)
        state = LstmState([h_prev[None, :].copy()], [c_prev[None, :].copy()])
        new_state = lstm_step(x[None, :], state, [layer])
        assert np.allclose(new_state.h[0][0], h_ref, atol=1e-12)
        assert np.allclose(new_state.c[0][0], c_ref, atol=1e-12)

    def test_deterministic(self):
        layer = random_layer(4, 5, seed=2)
        x = np.random.default_rng(1).normal(size=(2, 4))
        s1 = lstm_step(x, None, [layer])
        s2 = lstm_step(x, None, [layer])
        assert np.array_equal(s1.h[0], s2.h[0])
        assert np.array_equal(s1.c[0], s2.c[0])

    def test_shape_mismatch_rejected(self):
        layer = random_layer(3, 4, seed=3)
        # A slab's input columns are as wide as the first layer's input.
        with pytest.raises(ValueError):
            StepSlab([layer], 1).inputs[...] = np.zeros((1, 5))
        with pytest.raises(ConfigError):
            StepSlab([layer, random_layer(3, 4, seed=4)], 1)
        with pytest.raises(ConfigError):
            SequenceTape([layer, random_layer(3, 4, seed=4)], 2, 1)

    def test_two_layer_stack_chains_hidden_to_input(self):
        l0 = random_layer(2, 3, seed=4)
        l1 = random_layer(3, 4, seed=5)
        x = np.array([[0.3, -0.7]])
        state = lstm_step(x, None, [l0, l1])
        # layer 1 must have consumed layer 0's fresh hidden state
        h0_ref, c0_ref = brute_force_cell(x[0], np.zeros(3), np.zeros(3), l0)
        h1_ref, _ = brute_force_cell(h0_ref, np.zeros(4), np.zeros(4), l1)
        assert np.allclose(state.h[0][0], h0_ref, atol=1e-12)
        assert np.allclose(state.h[1][0], h1_ref, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 2, 7, 64, 203, 400])
    def test_tape_equals_stepping_bitwise(self, batch):
        # Training records the same arithmetic that inference steps
        # through: on a small stack, on one 11-unit layer with 46 inputs,
        # and on three 40-unit layers at training and decode batch sizes.
        for layers in (stack((3, 5, 5, 5), seed=12), stack((46, 11), seed=25),
                       stack((13, 40, 40, 40), seed=21)):
            xs = np.random.default_rng(7).normal(size=(6, batch, layers[0].input_dim))
            tape = run_tape(layers, xs)
            slab = StepSlab(layers, batch)  # stepped in place throughout
            for t in range(xs.shape[0]):
                slab.inputs[...] = xs[t]
                slab.step()
                for c, recorded in zip(slab_state(slab).c, tape.c):
                    np.testing.assert_array_equal(c, recorded[t + 1, :, :batch].T)
                np.testing.assert_array_equal(top_rows(tape)[t], slab_top(slab))

    def test_forward_step_records_in_place(self):
        # The cell writes each step's gates and cell into the tape's
        # step-major stores as contiguous blocks; no array stages a step
        # to be copied in after it.
        layers = stack((13, 40, 40, 40), seed=27)
        steps, batch = 5, 9
        tape = SequenceTape(layers, steps, batch)
        for store in tape._gate_stores + tape._c_stores:
            store[...] = np.nan
        tape.reset(batch)
        tape.inputs[...] = np.random.default_rng(15).normal(size=(steps, batch, 13))
        for t in range(steps):
            tape.forward_step(t)
            for gates, c, g_store, c_store in zip(tape.gates, tape.c, tape._gate_stores,
                                                  tape._c_stores):
                for block, store in ((gates[t], g_store), (c[t + 1], c_store)):
                    assert block.flags.c_contiguous and np.shares_memory(block, store)
                assert np.isfinite(gates[: t + 1]).all() and np.isnan(gates[t + 1 :]).all()
                assert np.isfinite(c[: t + 2]).all() and np.isnan(c[t + 2 :]).all()
        owned = [tape._xh_store, tape._scratch, *tape._gate_stores, *tape._c_stores,
                 *tape._weights]
        held = [v for v in vars(tape).values() if isinstance(v, np.ndarray)]
        held += [a for v in vars(tape).values() if isinstance(v, (list, tuple))
                 for a in v if isinstance(a, np.ndarray)]
        for a in held:
            while a.base is not None:
                a = a.base
            assert any(a is store for store in owned)

    def test_pool_slab_equals_chunked_tapes_bitwise(self):
        # Validation steps a 507-window pool on one slab; the loss it
        # reproduces is defined by 64-row training tapes.
        layers = stack((13, 40, 40, 40), seed=24)
        xs = np.random.default_rng(13).normal(size=(6, 507, 13))
        tapes = [run_tape(layers, xs[:, lo : lo + 64]) for lo in range(0, 507, 64)]
        slab = StepSlab(layers, 507)
        for t in range(xs.shape[0]):
            slab.inputs[...] = xs[t]
            slab.step()
            np.testing.assert_array_equal(
                slab_top(slab), np.concatenate([top_rows(tape)[t] for tape in tapes])
            )

    @staticmethod
    def _check_load(layers, size, rows, capacity, rng):
        """Load rows `rows` of a stepped slab of `size` rows into a slab
        of `capacity` reset to len(rows): they hold the source's rows,
        inputs included, and step on as the source's rows would."""
        width = layers[0].input_dim
        source = StepSlab(layers, size)
        for _ in range(3):
            source.inputs[...] = rng.normal(size=(size, width))
            source.step()
        slab = StepSlab(layers, capacity)
        slab.reset(rows.size)
        slab.load(source.state(), rows)
        loaded, src = slab_state(slab), slab_state(source)
        for a, b in zip(loaded.h + loaded.c, src.h + src.c):
            np.testing.assert_array_equal(a, b[rows])
        np.testing.assert_array_equal(slab.inputs, source.inputs[rows])
        x = rng.normal(size=(rows.size, width))
        slab.inputs[...] = x
        slab.step()
        expected = lstm_step(x, LstmState([h[rows] for h in src.h], [c[rows] for c in src.c]), layers)
        stepped = slab_state(slab)
        for a, b in zip(stepped.h + stepped.c, expected.h + expected.c):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(ConfigError):
            slab.reset(capacity + 1)

    def test_slab_reset_and_load_rows(self):
        # A slab reset to fewer rows and loaded from another slab's rows
        # steps those rows exactly as the source would.
        rng = np.random.default_rng(9)
        layers = [random_layer(3, 5, seed=17), random_layer(5, 4, seed=18)]
        self._check_load(layers, 3, np.array([2, 0, 2]), 5, rng)
        # Decode shape: a block of reordered, repeated rows of a larger
        # encoded slab.
        rows = np.repeat(rng.permutation(57)[:23], 9)[:203]
        self._check_load(stack((13, 40, 40, 40), seed=22), 57, rows, 400, rng)

    def test_slab_rows_independent_of_batch(self):
        # A row steps to the same bits whatever the number of rows beside
        # it, at batch sizes up to the decode block's 400.
        layers = stack((13, 40, 40, 40), seed=23)
        xs = np.random.default_rng(11).normal(size=(3, 400, 13))

        def run(batch):
            slab = StepSlab(layers, batch)
            for x in xs[:, :batch]:
                slab.inputs[...] = x
                slab.step()
            return slab_top(slab)

        full = run(400)
        for batch in (1, 2, 7, 8, 161, 203, 399):
            np.testing.assert_array_equal(run(batch), full[:batch], err_msg=f"batch {batch}")

    def test_rows_independent_of_batch(self):
        layers = [random_layer(3, 6, seed=15), random_layer(6, 6, seed=16)]
        xs = np.random.default_rng(8).normal(size=(5, 9, 3))
        full = top_rows(run_tape(layers, xs))
        for r in (0, 4, 8):
            alone = top_rows(run_tape(layers, xs[:, r : r + 1]))
            np.testing.assert_array_equal(alone[:, 0], full[:, r])
        # One 11-unit layer with 46 inputs: a 400-row tape once rounded
        # rows differently from smaller tapes of the same rows.
        layers = stack((46, 11), seed=26)
        xs = np.random.default_rng(14).normal(size=(3, 400, 46))
        full = top_rows(run_tape(layers, xs))
        for batch in (1, 8, 64, 256):
            part = top_rows(run_tape(layers, xs[:, :batch]))
            np.testing.assert_array_equal(part, full[:, :batch], err_msg=f"batch {batch}")


def full_width_local_derivatives(tape, idx, a_out):
    """SequenceTape._local_derivatives as a full-width copy of the gates
    over all steps at once."""
    hd = tape.layers[idx].hidden_dim
    g, c = tape.gates[idx], tape.c[idx]
    np.tanh(c[1:], out=a_out)
    d = np.empty_like(g)
    np.subtract(1.0, g, out=d)
    d *= g
    gi, gf, gg, go = (g[:, k * hd : (k + 1) * hd] for k in range(4))
    di, df, dg, do = (d[:, k * hd : (k + 1) * hd] for k in range(4))
    do *= a_out
    np.square(a_out, out=a_out)
    np.subtract(1.0, a_out, out=a_out)
    a_out *= go
    di *= gg
    np.square(gg, out=dg)
    np.subtract(1.0, dg, out=dg)
    dg *= gi
    df *= c[:-1]
    np.copyto(c[1:], gf)
    np.copyto(g, d)


def per_step_backward(tape, d_h):
    """SequenceTape.backward as the tape once ran it: each layer's input
    gradient inside the time loop, one (input + H, 4H) @ (4H, columns)
    product per step, and the local derivatives through a full-width
    copy. The reference for the input-gradient product after the loop and
    the in-place local derivatives; the weight gradient, bias row and
    all, is the tape's one product over the layer's rows."""
    T, B = tape.steps, tape.batch
    cols = tape.xh.shape[-1]
    hidden = max(layer.hidden_dim for layer in tape.layers)
    a_store = np.empty((T, hidden, cols))
    d_up = np.zeros((T, d_h.shape[-1], cols))  # padded columns get no gradient
    d_up[:, :, :B] = d_h.transpose(0, 2, 1)
    d_param = [None] * len(tape.layers)
    for idx in range(len(tape.layers) - 1, -1, -1):
        layer = tape.layers[idx]
        hd, ind = layer.hidden_dim, layer.input_dim
        a_out = a_store[:, :hd]
        full_width_local_derivatives(tape, idx, a_out)
        d_pre, forget = tape.gates[idx], tape.c[idx][1:]
        d_x = np.empty((T, ind, cols))
        d_xh = np.zeros((ind + hd, cols))
        d_rec = d_xh[ind:]
        d_c = np.zeros((hd, cols))
        dc = np.empty((hd, cols))
        for t in range(T - 1, -1, -1):
            dh = d_up[t]
            dh += d_rec
            np.multiply(dh, a_out[t], out=dc)
            dc += d_c
            step = d_pre[t]
            step[:hd] *= dc
            step[hd : 2 * hd] *= dc
            step[2 * hd : 3 * hd] *= dc
            step[3 * hd :] *= dh
            np.multiply(dc, forget[t], out=d_c)
            np.matmul(layer.w, d_pre[t], out=d_xh)
            np.copyto(d_x[t], d_xh[:ind])
        flat = np.ascontiguousarray(d_pre.transpose(1, 0, 2)).reshape(4 * hd, T * cols)
        lo, hi = tape._rows[idx]
        xh = tape._xh(idx, slice(idx, idx + T)).reshape(hi - lo, T * cols)
        d_wb = xh @ flat.T
        one = tape._ones[idx] - lo
        d_param[idx] = (np.delete(d_wb, one, axis=0), d_wb[one])
        d_up = d_x
    return d_up[:, :, :B].transpose(0, 2, 1), d_param


class TestBackward:
    @pytest.mark.parametrize("batch, steps", [(64, 42), (9, 42), (1, 42), (203, 42)])
    def test_hoisted_input_gradient_equals_per_step_bitwise(self, batch, steps):
        # The input gradient, taken in one product over all steps after
        # the time loop, has the bits of one product per step inside it,
        # and the local derivatives, in chunks of steps, those of one
        # full-width pass.
        layers = stack((13, 40, 40, 40), seed=31)
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(steps, batch, 13))
        d_h = rng.normal(size=(steps, batch, 40))
        tape = run_tape(layers, xs)
        d_x, d_params = tape.backward(upstream(tape, d_h))
        ref_x, ref_params = per_step_backward(run_tape(layers, xs), d_h.copy())
        np.testing.assert_array_equal(d_x, ref_x)
        for (d_w, d_b), (ref_w, ref_b) in zip(d_params, ref_params):
            np.testing.assert_array_equal(d_w, ref_w)
            np.testing.assert_array_equal(d_b, ref_b)

    def test_zero_upstream_gradient_gives_zero(self):
        layer = random_layer(2, 3, seed=6)
        x = np.array([[[0.5, -1.0]]])
        tape = run_tape([layer], x)
        d_x, d_params = tape.backward(upstream(tape, np.zeros((1, 1, 3))))
        assert np.allclose(d_x, 0.0)
        assert np.allclose(d_params[0][0], 0.0)
        assert np.allclose(d_params[0][1], 0.0)

    def _sequence_loss(self, layers, xs, weights_only=False):
        """Scalar loss: sum of squares of final h over a short unroll."""

        def loss_fn(blocks):
            tape = run_tape(layers, xs)
            h_final = top_rows(tape)[-1]
            loss = 0.5 * float(np.sum(h_final ** 2))
            # backward: d loss / d h_final = h_final
            d_h = np.zeros((xs.shape[0], xs.shape[1], layers[-1].hidden_dim))
            d_h[-1] = h_final
            _, d_params = tape.backward(upstream(tape, d_h))
            grads = {}
            for i, (dw, db) in enumerate(d_params):
                grads[f"l{i}.w"] = dw
                grads[f"l{i}.b"] = db
            return loss, grads

        return loss_fn

    def test_single_cell_fd_tight(self):
        layer = random_layer(2, 1, seed=7)
        xs = np.random.default_rng(3).normal(size=(1, 1, 2)) * 0.5
        loss_fn = self._sequence_loss([layer], xs)
        blocks = {"l0.w": layer.w, "l0.b": layer.b}
        report = finite_diff_check(loss_fn, blocks, 1e-6)
        assert report.passed, str(report)

    def test_two_layer_eight_unit_twelve_steps_fd(self):
        layers = [random_layer(3, 8, seed=8), random_layer(8, 8, seed=9)]
        xs = np.random.default_rng(4).normal(size=(12, 1, 3)) * 0.8
        loss_fn = self._sequence_loss(layers, xs)
        blocks = {}
        for i, l in enumerate(layers):
            blocks[f"l{i}.w"] = l.w
            blocks[f"l{i}.b"] = l.b
        report = finite_diff_check(loss_fn, blocks, 1e-4)
        assert report.passed, str(report)

    def test_input_gradient_fd(self):
        layer = random_layer(3, 4, seed=10)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 3))
        xbox = {"x": x}

        def loss_fn(blocks):
            tape = run_tape([layer], blocks["x"][None])
            h = top_rows(tape)[0]
            loss = 0.5 * float(np.sum(h ** 2))
            d_x, _ = tape.backward(upstream(tape, h[None]))
            return loss, {"x": d_x[0]}

        report = finite_diff_check(loss_fn, xbox, 1e-6)
        assert report.passed, str(report)

    def test_stack_gradients_fd_with_per_step_loss(self):
        # Three layers, a loss on every step's top h, batch of three rows:
        # weights and inputs checked at once.
        layers = [random_layer(2, 4, seed=17), random_layer(4, 4, seed=18), random_layer(4, 4, seed=19)]
        rng = np.random.default_rng(9)
        box = {"x": rng.normal(size=(5, 3, 2))}
        for i, l in enumerate(layers):
            box[f"l{i}.w"] = l.w
            box[f"l{i}.b"] = l.b

        def loss_fn(blocks):
            tape = run_tape(layers, blocks["x"])
            h = top_rows(tape)
            loss = 0.5 * float(np.sum(h ** 2))
            d_x, d_params = tape.backward(upstream(tape, h))
            grads = {"x": d_x}
            for i, (dw, db) in enumerate(d_params):
                grads[f"l{i}.w"] = dw
                grads[f"l{i}.b"] = db
            return loss, grads

        report = finite_diff_check(loss_fn, box, 1e-4)
        assert report.passed, str(report)


class TestInit:
    # The layers network.init_model builds.
    def test_forget_bias_is_one(self):
        _, model = tiny_model(hidden=7, layers=2, seed=0)
        for layer in model.layers:
            assert np.all(layer.b[7:14] == 1.0)
            assert np.all(layer.b[:7] == 0.0)
            assert np.all(layer.b[14:] == 0.0)

    def test_weight_bound(self):
        _, model = tiny_model(hidden=7, layers=2, seed=1)
        for layer, in_dim in zip(model.layers, (model.input_dim, 7)):
            bound = 1.0 / np.sqrt(layer.w.shape[0])
            assert np.all(np.abs(layer.w) <= bound)
            assert np.abs(layer.w).max() > 0.9 * bound
            assert layer.w.shape == (in_dim + 7, 28)
