"""Stacked LSTM cell with hand-derived backward pass.

Arrays are float64 with a leading batch axis: inputs are (B, input_dim),
states (B, hidden_dim). The four gates are packed along the last axis of
one weight matrix in the order input | forget | candidate | output, with
the input and recurrent paths stacked row-wise so each step is a single
matmul of [x, h] against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .special import sigmoid

__all__ = [
    "LstmLayerParams",
    "LstmState",
    "CellCache",
    "init_layer",
    "zero_state",
    "step_buffers",
    "cell_forward",
    "cell_backward",
    "lstm_step",
    "lstm_forward",
    "lstm_backward",
]


@dataclass
class LstmLayerParams:
    """One layer's packed weights.

    w: ((input_dim + hidden_dim), 4 * hidden_dim), gate order i|f|g|o.
    b: (4 * hidden_dim,); the forget slice is initialized to 1.0.
    """

    input_dim: int
    hidden_dim: int
    w: np.ndarray
    b: np.ndarray

    def check_shapes(self):
        rows = self.input_dim + self.hidden_dim
        cols = 4 * self.hidden_dim
        if self.w.shape != (rows, cols) or self.b.shape != (cols,):
            raise ConfigError(
                f"LSTM layer shapes inconsistent: w {self.w.shape}, b {self.b.shape}, "
                f"expected ({rows}, {cols}) and ({cols},)"
            )


@dataclass
class LstmState:
    """Per-layer hidden and cell vectors, each (B, hidden_dim)."""

    h: list
    c: list


@dataclass
class CellCache:
    xh: np.ndarray  # (B, input_dim + hidden_dim)
    gate_i: np.ndarray
    gate_f: np.ndarray
    gate_g: np.ndarray
    gate_o: np.ndarray
    c_prev: np.ndarray
    tanh_c: np.ndarray


def init_layer(input_dim: int, hidden_dim: int, stream) -> LstmLayerParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights; biases zero except
    the forget gate's, which starts at 1.0."""
    rows = input_dim + hidden_dim
    bound = 1.0 / np.sqrt(rows)
    w = (stream.uniforms(rows * 4 * hidden_dim).reshape(rows, 4 * hidden_dim) * 2.0 - 1.0) * bound
    b = np.zeros(4 * hidden_dim)
    b[hidden_dim : 2 * hidden_dim] = 1.0
    return LstmLayerParams(input_dim, hidden_dim, w, b)


def zero_state(layers, batch: int) -> LstmState:
    return LstmState(
        [np.zeros((batch, layer.hidden_dim)) for layer in layers],
        [np.zeros((batch, layer.hidden_dim)) for layer in layers],
    )


def step_buffers(layers, batch: int) -> list:
    """Per-layer (xh, gates) work arrays for a batch of `batch` rows,
    which lstm_step can fill on every step instead of allocating them.
    The layers share one storage: a layer's step is done with its work
    arrays before the next layer starts."""
    xh_store = np.empty(batch * max(layer.input_dim + layer.hidden_dim for layer in layers))
    gates_store = np.empty(batch * max(4 * layer.hidden_dim for layer in layers))
    return [
        (
            xh_store[: batch * (layer.input_dim + layer.hidden_dim)].reshape(batch, -1),
            gates_store[: batch * 4 * layer.hidden_dim].reshape(batch, -1),
        )
        for layer in layers
    ]


def _cell(x, h_prev, c_prev, layer: LstmLayerParams, buffers=None):
    """The gate arithmetic of one layer, one step; `buffers` is one layer's
    entry of step_buffers, or None to allocate.

    Returns (h, c, xh, gate_i, gate_f, gate_g, gate_o, tanh_c).
    """
    if x.shape[1] != layer.input_dim:
        raise ConfigError(f"LSTM input width {x.shape[1]} != layer input_dim {layer.input_dim}")
    hd = layer.hidden_dim
    if buffers is None:
        xh = np.concatenate([x, h_prev], axis=1)
        gates = xh @ layer.w
    else:
        xh, gates = buffers
        xh[:, : layer.input_dim] = x
        xh[:, layer.input_dim :] = h_prev
        np.matmul(xh, layer.w, out=gates)
    # The gates overwrite their pre-activations in place: fewer large
    # temporaries per step, same values.
    gates += layer.b
    sigmoid(gates[:, : 2 * hd], out=gates[:, : 2 * hd])
    np.tanh(gates[:, 2 * hd : 3 * hd], out=gates[:, 2 * hd : 3 * hd])
    sigmoid(gates[:, 3 * hd :], out=gates[:, 3 * hd :])
    gate_i = gates[:, :hd]
    gate_f = gates[:, hd : 2 * hd]
    gate_g = gates[:, 2 * hd : 3 * hd]
    gate_o = gates[:, 3 * hd :]
    c = gate_f * c_prev
    c += gate_i * gate_g
    tanh_c = np.tanh(c)
    h = gate_o * tanh_c
    return h, c, xh, gate_i, gate_f, gate_g, gate_o, tanh_c


def cell_forward(x, h_prev, c_prev, layer: LstmLayerParams):
    """One layer, one step. Returns (h, c, cache)."""
    h, c, xh, gate_i, gate_f, gate_g, gate_o, tanh_c = _cell(x, h_prev, c_prev, layer)
    cache = CellCache(xh, gate_i, gate_f, gate_g, gate_o, c_prev, tanh_c)
    return h, c, cache


def cell_backward(cache: CellCache, d_h, d_c, layer: LstmLayerParams):
    """Exact gradients for one cell step.

    d_h, d_c are the upstream gradients w.r.t. this step's h and c.
    Returns (d_x, d_h_prev, d_c_prev, d_w, d_b).
    """
    i, f, g, o = cache.gate_i, cache.gate_f, cache.gate_g, cache.gate_o
    tc = cache.tanh_c
    if d_h.shape != tc.shape or d_c.shape != tc.shape:
        raise ConfigError("upstream gradient shape does not match the cached forward")

    dc = d_c + d_h * o * (1.0 - tc * tc)
    d_pre_o = (d_h * tc) * o * (1.0 - o)
    d_pre_i = (dc * g) * i * (1.0 - i)
    d_pre_f = (dc * cache.c_prev) * f * (1.0 - f)
    d_pre_g = (dc * i) * (1.0 - g * g)
    d_pre = np.concatenate([d_pre_i, d_pre_f, d_pre_g, d_pre_o], axis=1)

    d_xh = d_pre @ layer.w.T
    d_w = cache.xh.T @ d_pre
    d_b = d_pre.sum(axis=0)
    d_x = d_xh[:, : layer.input_dim]
    d_h_prev = d_xh[:, layer.input_dim :]
    d_c_prev = dc * f
    return d_x, d_h_prev, d_c_prev, d_w, d_b


def lstm_step(x, state: LstmState, layers, buffers=None) -> LstmState:
    """One step through the whole stack, keeping nothing for a backward
    pass; the inference counterpart of lstm_forward. `buffers` (from
    step_buffers) saves allocating the largest per-step arrays."""
    h_list, c_list = [], []
    inp = x
    for idx, layer in enumerate(layers):
        bufs = None if buffers is None else buffers[idx]
        h, c = _cell(inp, state.h[idx], state.c[idx], layer, bufs)[:2]
        h_list.append(h)
        c_list.append(c)
        inp = h
    return LstmState(h_list, c_list)


def lstm_forward(x, state: LstmState, layers):
    """One step through the whole stack. Returns (new state, caches)."""
    caches = []
    h_list, c_list = [], []
    inp = x
    for idx, layer in enumerate(layers):
        h, c, cache = cell_forward(inp, state.h[idx], state.c[idx], layer)
        caches.append(cache)
        h_list.append(h)
        c_list.append(c)
        inp = h
    return LstmState(h_list, c_list), caches


def lstm_backward(caches, d_state: LstmState, layers):
    """One step of BPTT through the stack.

    d_state holds upstream gradients w.r.t. this step's per-layer h and c
    (already including any contribution from the step's own output heads).
    Returns (d_x, d_state_in, per-layer [(d_w, d_b)]).
    """
    d_param = [None] * len(layers)
    d_h_in = [None] * len(layers)
    d_c_in = [None] * len(layers)
    d_from_above = None  # gradient flowing into layer idx's h via layer idx+1's input
    for idx in range(len(layers) - 1, -1, -1):
        d_h = d_state.h[idx] if d_from_above is None else d_state.h[idx] + d_from_above
        d_x, d_h_prev, d_c_prev, d_w, d_b = cell_backward(
            caches[idx], d_h, d_state.c[idx], layers[idx]
        )
        d_param[idx] = (d_w, d_b)
        d_h_in[idx] = d_h_prev
        d_c_in[idx] = d_c_prev
        d_from_above = d_x
    return d_from_above, LstmState(d_h_in, d_c_in), d_param
