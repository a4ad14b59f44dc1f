"""Stacked LSTM cell with hand-derived backward pass.

Arrays are float64 with a leading batch axis: inputs are (B, input_dim),
states (B, hidden_dim). The four gates are packed along the last axis of
one weight matrix in the order input | forget | candidate | output, with
the input and recurrent paths stacked row-wise so each step is a single
matmul of [x, h] against it.

Inference steps the stack one time step at a time (lstm_step). Training
records a whole sequence in a SequenceTape, whose per-layer (T, B, .)
slabs the same cell arithmetic fills step by step; its backward pass
runs layer by layer, keeps only the recurrence inside the time loop and
takes each layer's weight gradient as one product over all T*B rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "LstmLayerParams",
    "LstmState",
    "SequenceTape",
    "init_layer",
    "zero_state",
    "step_buffers",
    "lstm_step",
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
    """Per-layer (xh, gates, tanh_c, scratch) work arrays for a batch of
    `batch` rows, which lstm_step can fill on every step instead of
    allocating them. The layers share one storage: a layer's step is done
    with its work arrays before the next layer starts."""
    hidden = max(layer.hidden_dim for layer in layers)
    xh_store = np.empty(batch * max(layer.input_dim + layer.hidden_dim for layer in layers))
    gates_store = np.empty(batch * 4 * hidden)
    tanh_store = np.empty(batch * hidden)
    scratch_store = np.empty(batch * hidden)
    return [
        (
            xh_store[: batch * (layer.input_dim + layer.hidden_dim)].reshape(batch, -1),
            gates_store[: batch * 4 * layer.hidden_dim].reshape(batch, -1),
            tanh_store[: batch * layer.hidden_dim].reshape(batch, -1),
            scratch_store[: batch * layer.hidden_dim].reshape(batch, -1),
        )
        for layer in layers
    ]


def _cell(xh, c_prev, layer: LstmLayerParams, gates, c, tanh_c, h, scratch):
    """The gate arithmetic of one layer, one step, on caller-owned arrays.

    Reads xh = [x, h_prev] (B, input_dim + hidden_dim) and c_prev; writes
    the activated gates (B, 4 * hidden_dim), c, tanh(c) and h; scratch is a
    (B, hidden_dim) work array. Each row's result depends only on that row,
    bit for bit, whatever the batch size.
    """
    hd = layer.hidden_dim
    if xh.shape[0] == 1:
        # numpy sends a one-row product to gemv, which rounds differently
        # from the gemm every larger batch uses; two rows keep it on gemm.
        gates[...] = (np.repeat(xh, 2, axis=0) @ layer.w)[:1]
    else:
        np.matmul(xh, layer.w, out=gates)
    gates += layer.b
    cand = gates[:, 2 * hd : 3 * hd]
    np.copyto(scratch, cand)
    # One sigmoid over the whole slab as 1 / (1 + exp(-x)); exp overflows
    # to inf for very negative x, which gives the exact limit 0. The
    # candidate quarter is then replaced by tanh of its saved input.
    np.negative(gates, out=gates)
    with np.errstate(over="ignore"):
        np.exp(gates, out=gates)
    gates += 1.0
    np.reciprocal(gates, out=gates)
    np.tanh(scratch, out=cand)
    np.multiply(gates[:, hd : 2 * hd], c_prev, out=c)
    np.multiply(gates[:, :hd], cand, out=scratch)
    c += scratch
    np.tanh(c, out=tanh_c)
    np.multiply(gates[:, 3 * hd :], tanh_c, out=h)


def lstm_step(x, state: LstmState, layers, buffers=None) -> LstmState:
    """One step through the whole stack, keeping nothing for a backward
    pass. `buffers` (from step_buffers) saves allocating the work arrays."""
    if buffers is None:
        buffers = step_buffers(layers, x.shape[0])
    h_list, c_list = [], []
    inp = x
    for idx, layer in enumerate(layers):
        if inp.shape[1] != layer.input_dim:
            raise ConfigError(
                f"LSTM input width {inp.shape[1]} != layer input_dim {layer.input_dim}"
            )
        xh, gates, tanh_c, scratch = buffers[idx]
        xh[:, : layer.input_dim] = inp
        xh[:, layer.input_dim :] = state.h[idx]
        c = np.empty_like(state.c[idx])
        h = np.empty_like(c)
        _cell(xh, state.c[idx], layer, gates, c, tanh_c, h, scratch)
        h_list.append(h)
        c_list.append(c)
        inp = h
    return LstmState(h_list, c_list)


# Steps per pass of SequenceTape._local_derivatives; its work array,
# (_DERIV_STEPS, B, 4H), stays small.
_DERIV_STEPS = 8


class SequenceTape:
    """The stack run over `steps` time steps of `batch` rows, recorded for
    one backward pass.

    The layers' inputs and hidden states share one skewed slab
    xh (T+L, B, input_dim + sum of hidden dims): row r holds
    [x_r, h_0(r-1), h_1(r-2), ..., h_{L-1}(r-L)], so layer l's
    [input, h_prev] at step t is one column range of row t+l, and the h a
    layer writes is already the next layer's input. Per layer there are
    also gates (T, B, 4H), the activated gates of each step, and
    c (T+1, B, H), whose row 0 is the initial cell and row t+1 step t's.
    The caller writes the layer-0 inputs into `inputs` and calls
    forward_step(t) for t = 0, 1, ...
    """

    def __init__(self, layers, steps: int, batch: int, state: LstmState = None):
        self.layers = layers
        self.steps = steps
        self.capacity = batch
        # Column range of layer l's [input, h] in a slab row, and where its h starts.
        self._cols, self._h_col = [], []
        lo, hi = 0, layers[0].input_dim
        for idx, layer in enumerate(layers):
            if idx and layer.input_dim != layers[idx - 1].hidden_dim:
                raise ConfigError(
                    f"LSTM layer {idx} input_dim {layer.input_dim} != hidden_dim "
                    f"{layers[idx - 1].hidden_dim} of the layer below"
                )
            self._h_col.append(hi)
            self._cols.append((lo, hi + layer.hidden_dim))
            lo, hi = hi, hi + layer.hidden_dim
        self._width = hi
        hidden = max(layer.hidden_dim for layer in layers)
        # Flat storage for `capacity` rows; reset() carves the slabs for
        # the rows in use, so a shorter batch reuses the same memory.
        self._xh_store = np.empty((steps + len(layers)) * batch * hi)
        self._c_stores = [np.empty((steps + 1) * batch * layer.hidden_dim) for layer in layers]
        self._gate_stores = [np.empty(steps * batch * 4 * layer.hidden_dim) for layer in layers]
        self._row_work = np.empty((2, batch, hidden))  # a step's tanh(c) and scratch
        self._work = None  # backward's work arrays, made on first use
        self.reset(batch, state)

    def reset(self, batch: int, state: LstmState = None) -> None:
        """Start a new sequence of `batch` rows (at most the capacity) from
        `state`, or from zeros."""
        if not 0 < batch <= self.capacity:
            raise ConfigError(f"tape holds at most {self.capacity} rows, not {batch}")
        T = self.steps
        self.batch = batch
        self.xh = self._xh_store[: (T + len(self.layers)) * batch * self._width].reshape(
            T + len(self.layers), batch, self._width
        )
        self.c, self.gates = [], []
        for idx, layer in enumerate(self.layers):
            hd = layer.hidden_dim
            c = self._c_stores[idx][: (T + 1) * batch * hd].reshape(T + 1, batch, hd)
            self._h(idx, idx)[...] = 0.0 if state is None else state.h[idx]
            c[0] = 0.0 if state is None else state.c[idx]
            self.c.append(c)
            self.gates.append(self._gate_stores[idx][: T * batch * 4 * hd].reshape(T, batch, 4 * hd))

    def _h(self, idx: int, row):
        """Layer idx's h columns of slab row(s) `row`; row r holds h(r - idx - 1)."""
        col = self._h_col[idx]
        return self.xh[row, :, col : col + self.layers[idx].hidden_dim]

    def _xh(self, idx: int, row):
        lo, hi = self._cols[idx]
        return self.xh[row, :, lo:hi]

    @property
    def inputs(self) -> np.ndarray:
        """(T, B, input_dim) view of the layer-0 inputs, for the caller to fill."""
        return self.xh[: self.steps, :, : self.layers[0].input_dim]

    def forward_step(self, t: int) -> None:
        """Run every layer for step t, once its layer-0 inputs are written."""
        for idx, layer in enumerate(self.layers):
            hd = layer.hidden_dim
            _cell(
                self._xh(idx, t + idx),
                self.c[idx][t],
                layer,
                self.gates[idx][t],
                self.c[idx][t + 1],
                self._row_work[0, : self.batch, :hd],
                self._h(idx, t + idx + 1),
                self._row_work[1, : self.batch, :hd],
            )

    def hidden(self, t: int) -> np.ndarray:
        """(B, H) view of the top layer's h at step t."""
        return self._h(len(self.layers) - 1, t + len(self.layers))

    def top_hidden(self, steps: int = None) -> np.ndarray:
        """(steps * B, H) view of the top layer's h over the first `steps`
        steps, in (step, row) order."""
        steps = self.steps if steps is None else steps
        top = len(self.layers)
        return self._h(top - 1, slice(top, top + steps)).reshape(steps * self.batch, -1)

    def state(self, t: int) -> LstmState:
        """Copies of every layer's h and c after step t."""
        return LstmState(
            [self._h(i, t + i + 1).copy() for i in range(len(self.layers))],
            [c[t + 1].copy() for c in self.c],
        )

    def _local_derivatives(self, idx: int, work, a_out) -> None:
        """Overwrite layer idx's slabs with the factors of the cell backward
        that do not depend on the upstream gradient: gates i|f|g|o become
        g*i(1-i) | c_prev*f(1-f) | i(1-g^2) | tanh_c*o(1-o), a_out gets
        o(1-tanh_c^2) and c[1:] the forget gate f.

        Works through the slab _DERIV_STEPS steps at a time, the latest
        first: a chunk overwrites c[t0+1 : t1+1] with f, and c[t0] is still
        the previous cell of its first step. `work` holds a chunk's gates.
        """
        hd = self.layers[idx].hidden_dim
        B = self.batch
        gates, c = self.gates[idx], self.c[idx]
        np.tanh(c[1:], out=a_out)
        for t1 in range(self.steps, 0, -_DERIV_STEPS):
            t0 = max(0, t1 - _DERIV_STEPS)
            g = gates[t0:t1]
            d = work[: (t1 - t0) * B * 4 * hd].reshape(t1 - t0, B, 4 * hd)
            np.subtract(1.0, g, out=d)
            d *= g  # s(1-s) in every quarter; the candidate's is replaced below
            gi, gf, gg, go = (g[..., k * hd : (k + 1) * hd] for k in range(4))
            di, df, dg, do = (d[..., k * hd : (k + 1) * hd] for k in range(4))
            tc = a_out[t0:t1]
            do *= tc
            np.square(tc, out=tc)
            np.subtract(1.0, tc, out=tc)
            tc *= go
            di *= gg
            np.square(gg, out=dg)
            np.subtract(1.0, dg, out=dg)
            dg *= gi
            df *= c[t0:t1]
            np.copyto(c[t0 + 1 : t1 + 1], gf)
            np.copyto(g, d)

    def backward(self, d_h, d_final: LstmState = None):
        """Exact gradients of a loss whose gradient w.r.t. the top layer's h
        at every step is d_h (T, B, H), plus d_final, if given, w.r.t. every
        layer's h and c after the last step.

        Overwrites d_h and the tape's gate and cell slabs (each step's gate
        slab ends up holding its pre-activation gradient), so it can run
        once. Returns (d_x (T, B, input_dim), gradient w.r.t. the initial
        state, per-layer [(d_w, d_b)]).
        """
        T, B = self.steps, self.batch
        if d_h.shape != (T, B, self.layers[-1].hidden_dim):
            raise ConfigError("upstream gradient shape does not match the tape")
        hidden = max(layer.hidden_dim for layer in self.layers)
        if self._work is None:
            self._work = (
                np.empty(_DERIV_STEPS * self.capacity * 4 * hidden),
                np.empty(T * self.capacity * hidden),
            )
        work = self._work[0]
        a_store = self._work[1][: T * B * hidden].reshape(T, B, hidden)
        d_param = [None] * len(self.layers)
        d_h0 = [None] * len(self.layers)
        d_c0 = [None] * len(self.layers)
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            hd, ind = layer.hidden_dim, layer.input_dim
            a_out = a_store[..., :hd]
            self._local_derivatives(idx, work, a_out)
            d_pre, forget = self.gates[idx], self.c[idx][1:]
            d_pre4 = d_pre.reshape(T, B, 4, hd)
            w_t = np.ascontiguousarray(layer.w.T)
            # Gradient w.r.t. this layer's input at every step; step t of
            # d_h is spent once step t is done, so it can hold it in place.
            d_x = d_h if d_h.shape[-1] == ind else np.empty((T, B, ind))
            d_xh = np.zeros((B, ind + hd))
            d_rec = d_xh[:, ind:]
            d_c = np.zeros((B, hd))
            dc = np.empty((B, hd))
            if d_final is not None:
                d_h[T - 1] += d_final.h[idx]
                d_c += d_final.c[idx]
            for t in range(T - 1, -1, -1):
                dh = d_h[t]
                dh += d_rec
                np.multiply(dh, a_out[t], out=dc)
                dc += d_c
                step = d_pre4[t]
                step[:, 0] *= dc
                step[:, 1] *= dc
                step[:, 2] *= dc
                step[:, 3] *= dh
                np.multiply(dc, forget[t], out=d_c)
                np.matmul(d_pre[t], w_t, out=d_xh)
                np.copyto(d_x[t], d_xh[:, :ind])
            d_h0[idx] = d_rec.copy()
            d_c0[idx] = d_c
            flat = d_pre.reshape(T * B, 4 * hd)
            xh = self._xh(idx, slice(idx, idx + T)).reshape(T * B, ind + hd)
            d_param[idx] = (xh.T @ flat, flat.sum(axis=0))
            d_h = d_x
        return d_h, LstmState(d_h0, d_c0), d_param
