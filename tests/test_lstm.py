"""LSTM cell and stack: hand oracles, brute-force gate equations, FD gradients."""

import numpy as np
import pytest

from panelcast.errors import ConfigError
from panelcast.gradcheck import finite_diff_check
from panelcast.lstm import (
    LstmLayerParams,
    LstmState,
    SequenceTape,
    init_layer,
    lstm_step,
    zero_state,
)
from panelcast.rng import substream
from panelcast.special import sigmoid


def zero_layer(input_dim, hidden, forget_bias=1.0):
    w = np.zeros((input_dim + hidden, 4 * hidden))
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = forget_bias
    return LstmLayerParams(input_dim, hidden, w, b)


def random_layer(input_dim, hidden, seed):
    return init_layer(input_dim, hidden, substream(seed, "layer"))


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


def run_tape(layers, xs, state=None):
    """A SequenceTape over inputs xs (T, B, input_dim), run forward."""
    tape = SequenceTape(layers, xs.shape[0], xs.shape[1], state)
    tape.inputs[...] = xs
    for t in range(xs.shape[0]):
        tape.forward_step(t)
    return tape


class TestForward:
    def test_zero_weights_zero_output(self):
        layer = zero_layer(3, 4)
        x = np.array([[1.0, -2.0, 0.5]])
        state = zero_state([layer], batch=1)
        new_state = lstm_step(x, state, [layer])
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
        s1 = lstm_step(x, zero_state([layer], 2), [layer])
        s2 = lstm_step(x, zero_state([layer], 2), [layer])
        assert np.array_equal(s1.h[0], s2.h[0])
        assert np.array_equal(s1.c[0], s2.c[0])

    def test_shape_mismatch_rejected(self):
        layer = random_layer(3, 4, seed=3)
        with pytest.raises(ConfigError):
            lstm_step(np.zeros((1, 5)), zero_state([layer], 1), [layer])
        with pytest.raises(ConfigError):
            SequenceTape([layer, random_layer(3, 4, seed=4)], 2, 1)

    def test_two_layer_stack_chains_hidden_to_input(self):
        l0 = random_layer(2, 3, seed=4)
        l1 = random_layer(3, 4, seed=5)
        x = np.array([[0.3, -0.7]])
        state = lstm_step(x, zero_state([l0, l1], 1), [l0, l1])
        # layer 1 must have consumed layer 0's fresh hidden state
        h0_ref, c0_ref = brute_force_cell(x[0], np.zeros(3), np.zeros(3), l0)
        h1_ref, _ = brute_force_cell(h0_ref, np.zeros(4), np.zeros(4), l1)
        assert np.allclose(state.h[0][0], h0_ref, atol=1e-12)
        assert np.allclose(state.h[1][0], h1_ref, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_tape_equals_stepping_bitwise(self, batch):
        # Training records the same arithmetic that inference steps through.
        layers = [random_layer(3, 5, seed=12), random_layer(5, 5, seed=13), random_layer(5, 5, seed=14)]
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(6, batch, 3))
        start = LstmState([rng.normal(size=(batch, 5)) for _ in layers],
                          [rng.normal(size=(batch, 5)) for _ in layers])
        tape = run_tape(layers, xs, start)
        state = start
        for t in range(xs.shape[0]):
            state = lstm_step(xs[t], state, layers)
            recorded = tape.state(t)
            for a, b in zip(state.h + state.c, recorded.h + recorded.c):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(tape.hidden(t), state.h[-1])

    def test_rows_independent_of_batch(self):
        layers = [random_layer(3, 6, seed=15), random_layer(6, 6, seed=16)]
        xs = np.random.default_rng(8).normal(size=(5, 9, 3))
        full = run_tape(layers, xs).top_hidden()
        for r in (0, 4, 8):
            alone = run_tape(layers, xs[:, r : r + 1]).top_hidden()
            np.testing.assert_array_equal(alone, full.reshape(5, 9, -1)[:, r])


class TestBackward:
    def test_zero_upstream_gradient_gives_zero(self):
        layer = random_layer(2, 3, seed=6)
        x = np.array([[[0.5, -1.0]]])
        tape = run_tape([layer], x)
        d_x, d_in, d_params = tape.backward(np.zeros((1, 1, 3)))
        assert np.allclose(d_x, 0.0)
        assert np.allclose(d_in.h[0], 0.0)
        assert np.allclose(d_in.c[0], 0.0)
        assert np.allclose(d_params[0][0], 0.0)
        assert np.allclose(d_params[0][1], 0.0)

    def _sequence_loss(self, layers, xs, weights_only=False):
        """Scalar loss: sum of squares of final h over a short unroll."""

        def loss_fn(blocks):
            tape = run_tape(layers, xs)
            h_final = tape.hidden(xs.shape[0] - 1)
            loss = 0.5 * float(np.sum(h_final ** 2))
            # backward: d loss / d h_final = h_final
            d_h = np.zeros((xs.shape[0], xs.shape[1], layers[-1].hidden_dim))
            d_h[-1] = h_final
            _, _, d_params = tape.backward(d_h)
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
            h = tape.hidden(0)
            loss = 0.5 * float(np.sum(h ** 2))
            d_x, _, _ = tape.backward(h.copy()[None])
            return loss, {"x": d_x[0]}

        report = finite_diff_check(loss_fn, xbox, 1e-6)
        assert report.passed, str(report)

    def test_state_gradient_fd(self):
        layer = random_layer(2, 3, seed=11)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2))
        h0 = rng.normal(size=(1, 3))
        c0 = rng.normal(size=(1, 3))
        box = {"h0": h0, "c0": c0}

        def loss_fn(blocks):
            state = LstmState([blocks["h0"].copy()], [blocks["c0"].copy()])
            tape = run_tape([layer], x[None], state)
            new_state = tape.state(0)
            loss = 0.5 * float(np.sum(new_state.h[0] ** 2) + np.sum(new_state.c[0] ** 2))
            _, d_in, _ = tape.backward(np.zeros((1, 1, 3)), d_final=new_state)
            return loss, {"h0": d_in.h[0], "c0": d_in.c[0]}

        report = finite_diff_check(loss_fn, box, 1e-6)
        assert report.passed, str(report)

    def test_stack_gradients_fd_with_per_step_loss(self):
        # Three layers, a loss on every step's top h and on the final
        # state of every layer, batch of three rows: weights, inputs and
        # the initial state checked at once.
        layers = [random_layer(2, 4, seed=17), random_layer(4, 4, seed=18), random_layer(4, 4, seed=19)]
        rng = np.random.default_rng(9)
        box = {"x": rng.normal(size=(5, 3, 2)), "h1": rng.normal(size=(3, 4)) * 0.5,
               "c2": rng.normal(size=(3, 4)) * 0.5}
        for i, l in enumerate(layers):
            box[f"l{i}.w"] = l.w
            box[f"l{i}.b"] = l.b

        def loss_fn(blocks):
            start = zero_state(layers, 3)
            start.h[1] = blocks["h1"].copy()
            start.c[2] = blocks["c2"].copy()
            tape = run_tape(layers, blocks["x"], start)
            h = tape.top_hidden()
            final = tape.state(4)
            loss = 0.5 * float(np.sum(h ** 2)) + 0.1 * float(sum(np.sum(c) for c in final.c))
            d_final = LstmState([np.zeros((3, 4)) for _ in layers],
                                [np.full((3, 4), 0.1) for _ in layers])
            d_x, d_in, d_params = tape.backward(h.reshape(5, 3, 4).copy(), d_final)
            grads = {"x": d_x, "h1": d_in.h[1], "c2": d_in.c[2]}
            for i, (dw, db) in enumerate(d_params):
                grads[f"l{i}.w"] = dw
                grads[f"l{i}.b"] = db
            return loss, grads

        report = finite_diff_check(loss_fn, box, 1e-4)
        assert report.passed, str(report)


class TestInit:
    def test_forget_bias_is_one(self):
        layer = init_layer(5, 7, substream(0, "init"))
        assert np.all(layer.b[7:14] == 1.0)
        assert np.all(layer.b[:7] == 0.0)
        assert np.all(layer.b[14:] == 0.0)

    def test_weight_bound(self):
        layer = init_layer(5, 7, substream(1, "init"))
        bound = 1.0 / np.sqrt(layer.w.shape[0])
        assert np.all(np.abs(layer.w) <= bound)
        assert layer.w.shape == (12, 28)
