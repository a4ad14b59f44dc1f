"""Stacked LSTM cell with hand-derived backward pass.

Arrays are float64. The four gates are packed along the last axis of one
weight matrix in the order input | forget | candidate | output, with the
input and recurrent paths stacked row-wise so each step is a single
matmul of [x, h] against it.

Every array is stored feature-major, one column per row of the batch,
with the columns padded to a multiple of 8 (_padded). A step's inputs
and hidden states form one column vector [x, h_0, ..., h_{L-1}], so
layer l's [input, h_prev] is one row range and the h it writes is
already the next layer's input, and each gate quarter is a block of
rows. One cell, _step_layer, steps a layer on such (rows, columns)
blocks: the product layer.w.T @ [x, h], then the gate arithmetic. Each
row's result then depends only on that row, bit for bit, whatever the
batch size: the tests pin it, and a scan of hidden sizes 1-24 with 3-46
inputs at 1-400 rows found no exception.

Training records a whole sequence in a SequenceTape, whose arrays carry
a time axis between the features and the columns. Its backward pass runs
layer by layer and keeps only the recurrence inside the time loop, the
product of the recurrent weights with each step's pre-activation
gradient; each layer's input and weight gradients are single products
over the columns of all T steps after it.

Whatever runs forward only (validation, conditioning, decoding) steps a
StepSlab: the tape collapsed to a single step and updated in place, so
it allocates nothing per step. Both step through _step_layer on the same
layout, so tape and slab agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "LstmLayerParams",
    "SequenceTape",
    "StepSlab",
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


def _slab_columns(layers):
    """Layout of the vector [x, h_0, ..., h_{L-1}]: per layer the range
    of its [input, h] and the position its h starts at, and the length.
    It runs down the rows of a SequenceTape's and a StepSlab's arrays."""
    cols, h_col = [], []
    lo, hi = 0, layers[0].input_dim
    for idx, layer in enumerate(layers):
        if idx and layer.input_dim != layers[idx - 1].hidden_dim:
            raise ConfigError(
                f"LSTM layer {idx} input_dim {layer.input_dim} != hidden_dim "
                f"{layers[idx - 1].hidden_dim} of the layer below"
            )
        h_col.append(hi)
        cols.append((lo, hi + layer.hidden_dim))
        lo, hi = hi, hi + layer.hidden_dim
    return cols, h_col, hi


def _step_layer(layer: LstmLayerParams, xh, gates, c_prev, c, h, work) -> None:
    """One layer, one step, on blocks with one column per row of the batch.

    Reads xh = [x, h_prev] (input_dim + hidden_dim, columns) and c_prev;
    writes the activated gates i|f|g|o (4 * hidden_dim, columns), c and h;
    work is a (hidden_dim, columns) scratch, which may be the gates' i block
    when the caller does not keep them. c may be c_prev, and h may lie
    inside xh: xh is read only by the product, before anything is written.
    """
    hd = layer.hidden_dim
    np.matmul(layer.w.T, xh, out=gates)
    gates += layer.b[:, None]
    # The sigmoid as 1 / (1 + exp(-x)) on the i|f and o blocks; exp
    # overflows to inf for very negative x, which gives the exact limit 0
    # (the callers silence the overflow warning).
    for block in (gates[: 2 * hd], gates[3 * hd :]):
        np.negative(block, out=block)
        np.exp(block, out=block)
        block += 1.0
        np.reciprocal(block, out=block)
    i, f, g, o = (gates[k * hd : (k + 1) * hd] for k in range(4))
    np.tanh(g, out=g)
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=work)
    c += work
    np.tanh(c, out=work)
    np.multiply(o, work, out=h)


def _padded(batch: int) -> int:
    """Columns a tape or slab steps for `batch` rows: the next multiple of
    8, the columns past the batch being padding.

    The gate product puts the batch on the axis that OpenBLAS blocks and
    splits between threads. Unless the column count is a multiple of 8,
    those splits move with it, and a row's gates round differently with
    different batch sizes: a scan of a 40-unit layer found such rows at
    161 or more columns on two threads, 193 or more on one. At multiples
    of 8 no shape in the scan rounded a row differently from the same row
    stepped alone, and a one-row batch never reaches gemv, which rounds
    differently from gemm.
    """
    return -(-batch // 8) * 8


class StepSlab:
    """The stack stepped one time step at a time over a batch of rows, on
    arrays allocated once: the SequenceTape collapsed to a single step.

    xh (input_dim + sum of hidden dims, columns) holds
    [x, h_0, ..., h_{L-1}] down its rows. Each layer keeps one cell
    (H, columns), updated in place; the layers share one gate array
    (4H, columns), whose spent i block is the cell's scratch. Columns
    past the B rows in use are padding (see _padded), stepped and never
    read. The caller writes the layer-0 inputs into `inputs` (values it
    leaves alone are kept from step to step) and calls step(). A slab
    starts from the zero state; storage is sized for `batch` rows, and
    reset() starts over with fewer.
    """

    def __init__(self, layers, batch: int):
        self.layers = layers
        self.capacity = batch
        self._rows, self._h_row, self._width = _slab_columns(layers)
        self._hidden = max(layer.hidden_dim for layer in layers)
        cols = _padded(batch)
        self._xh_store = np.empty(self._width * cols)
        self._c_stores = [np.empty(layer.hidden_dim * cols) for layer in layers]
        self._gate_store = np.empty(4 * self._hidden * cols)
        self.reset(batch)

    def reset(self, batch: int) -> None:
        """Use the first `batch` rows (at most the capacity), with inputs
        and state all zero."""
        if not 0 < batch <= self.capacity:
            raise ConfigError(f"slab holds at most {self.capacity} rows, not {batch}")
        self.batch = batch
        cols = _padded(batch)
        self._xh = self._xh_store[: self._width * cols].reshape(self._width, cols)
        self._xh[...] = 0.0
        self._c = [store[: layer.hidden_dim * cols].reshape(-1, cols)
                   for store, layer in zip(self._c_stores, self.layers)]
        for c in self._c:
            c[...] = 0.0
        gates = self._gate_store[: 4 * self._hidden * cols].reshape(-1, cols)
        # Each layer's arguments to _step_layer, made once here: slicing
        # them afresh in every step() cost about 3 % of a 64-row step.
        self._step_args = []
        for (lo, hi), row, c, layer in zip(self._rows, self._h_row, self._c, self.layers):
            hd = layer.hidden_dim
            self._step_args.append((layer, self._xh[lo:hi], gates[: 4 * hd], c, c,
                                    self._xh[row : row + hd], gates[:hd]))
        # (B, H) views of each layer's cell.
        self.c = [c[:, :batch].T for c in self._c]

    def load(self, source: "StepSlab", rows) -> None:
        """Copy rows `rows` of `source` (inputs, states and all) into this
        slab's rows, which reset() has sized to len(rows)."""
        self._xh[:, : self.batch] = source._xh[:, rows]
        for c, src in zip(self._c, source._c):
            c[:, : self.batch] = src[:, rows]

    @property
    def inputs(self) -> np.ndarray:
        """(B, input_dim) view of the layer-0 inputs, for the caller to fill."""
        return self._xh[: self.layers[0].input_dim, : self.batch].T

    def h(self, idx: int) -> np.ndarray:
        """(B, H) view of layer idx's hidden state."""
        row = self._h_row[idx]
        return self._xh[row : row + self.layers[idx].hidden_dim, : self.batch].T

    @property
    def hidden(self) -> np.ndarray:
        """(B, H) C-ordered copy of the top layer's hidden state. The heads
        sum each row along its contiguous axis, which rounds differently
        from a strided one, so the slab hands them the layout the tape's
        hidden(t) and top_hidden do."""
        return self.h(len(self.layers) - 1).copy()

    def step(self) -> None:
        """Run every layer for one step on the inputs in place."""
        with np.errstate(over="ignore"):  # exp(-x) -> inf gives sigmoid 0
            for args in self._step_args:
                _step_layer(*args)


# Units per pass of SequenceTape._local_derivatives; its work array,
# (_DERIV_UNITS, T, columns), stays small.
_DERIV_UNITS = 8


class SequenceTape:
    """The stack run over `steps` time steps of `batch` rows, recorded for
    one backward pass.

    The layers' inputs and hidden states share one skewed slab
    xh (input_dim + sum of hidden dims, T+L, columns): time slot r holds
    [x_r, h_0(r-1), h_1(r-2), ..., h_{L-1}(r-L)] down its rows, so layer
    l's [input, h_prev] at step t is one row range of slot t+l, a strided
    (K, columns) block, and the h a layer writes is already the next
    layer's input. Per layer there are also gates (4H, T, columns), the
    activated gates of each step, and c (H, T+1, columns), whose slot 0 is
    the initial cell and slot t+1 step t's. Columns past the B rows are
    padding (see _padded), stepped from zero inputs and never read. A
    sequence starts from the zero state. The caller writes the layer-0
    inputs into `inputs` and calls forward_step(t) for t = 0, 1, ...
    """

    def __init__(self, layers, steps: int, batch: int):
        self.layers = layers
        self.steps = steps
        self.capacity = batch
        # Row range of layer l's [input, h] in xh, and where its h starts.
        self._rows, self._h_row, self._width = _slab_columns(layers)
        self._hidden = max(layer.hidden_dim for layer in layers)
        cols = _padded(batch)
        # Flat storage for `capacity` rows; reset() carves the slabs for
        # the rows in use, so a shorter batch reuses the same memory.
        self._xh_store = np.empty(self._width * (steps + len(layers)) * cols)
        self._c_stores = [np.empty(layer.hidden_dim * (steps + 1) * cols) for layer in layers]
        self._gate_stores = [np.empty(4 * layer.hidden_dim * steps * cols) for layer in layers]
        # A step's gates, cell and scratch, contiguous blocks (see forward_step).
        self._step_store = np.empty(6 * self._hidden * cols)
        self._grad_work = None  # backward's work arrays, made on first use
        self.reset(batch)

    def reset(self, batch: int) -> None:
        """Start a new sequence of `batch` rows (at most the capacity) from
        the zero state."""
        if not 0 < batch <= self.capacity:
            raise ConfigError(f"tape holds at most {self.capacity} rows, not {batch}")
        T, L = self.steps, len(self.layers)
        cols = _padded(batch)
        self.batch = batch
        self.xh = self._xh_store[: self._width * (T + L) * cols].reshape(self._width, T + L, cols)
        # Padding columns step from zero inputs, so every value the backward
        # pass multiplies by their zero gradient is finite.
        self.xh[: self.layers[0].input_dim, :, batch:] = 0.0
        step = self._step_store[: 6 * self._hidden * cols].reshape(-1, cols)
        self._step = (step[: 4 * self._hidden], step[4 * self._hidden : 5 * self._hidden],
                      step[5 * self._hidden :])
        self.c, self.gates = [], []
        for idx, layer in enumerate(self.layers):
            hd = layer.hidden_dim
            c = self._c_stores[idx][: hd * (T + 1) * cols].reshape(hd, T + 1, cols)
            self._h(idx, idx)[...] = 0.0
            c[:, 0] = 0.0
            self.c.append(c)
            self.gates.append(self._gate_stores[idx][: 4 * hd * T * cols].reshape(4 * hd, T, cols))

    def _h(self, idx: int, slot):
        """Layer idx's h rows of time slot(s) `slot`; slot r holds h(r - idx - 1)."""
        row = self._h_row[idx]
        return self.xh[row : row + self.layers[idx].hidden_dim, slot]

    def _xh(self, idx: int, slot):
        lo, hi = self._rows[idx]
        return self.xh[lo:hi, slot]

    @property
    def inputs(self) -> np.ndarray:
        """(T, B, input_dim) view of the layer-0 inputs, for the caller to fill."""
        return self.xh[: self.layers[0].input_dim, : self.steps, : self.batch].transpose(1, 2, 0)

    def forward_step(self, t: int) -> None:
        """Run every layer for step t, once its layer-0 inputs are written.

        The cell steps contiguous gate and cell blocks, which numpy's
        element-wise loops run through about twice as fast as the slabs'
        strided step views, and the tape records them after each layer.
        """
        gates, c, work = self._step
        with np.errstate(over="ignore"):  # exp(-x) -> inf gives sigmoid 0
            for idx, layer in enumerate(self.layers):
                hd = layer.hidden_dim
                _step_layer(layer, self._xh(idx, t + idx), gates[: 4 * hd], self.c[idx][:, t],
                            c[:hd], self._h(idx, t + idx + 1), work[:hd])
                self.gates[idx][:, t] = gates[: 4 * hd]
                self.c[idx][:, t + 1] = c[:hd]

    def hidden(self, t: int) -> np.ndarray:
        """(B, H) C-ordered copy of the top layer's h at step t."""
        return self._h(len(self.layers) - 1, t + len(self.layers))[:, : self.batch].T.copy()

    def top_hidden(self, steps: int = None) -> np.ndarray:
        """(steps * B, H) C-ordered copy of the top layer's h over the first
        `steps` steps, in (step, row) order."""
        steps = self.steps if steps is None else steps
        top = len(self.layers)
        h = self._h(top - 1, slice(top, top + steps))[:, :, : self.batch]
        return np.ascontiguousarray(h.transpose(1, 2, 0)).reshape(steps * self.batch, -1)

    def _local_derivatives(self, idx: int, work, a_out) -> None:
        """Overwrite layer idx's slabs with the factors of the cell backward
        that do not depend on the upstream gradient: gates i|f|g|o become
        g*i(1-i) | c_prev*f(1-f) | i(1-g^2) | tanh_c*o(1-o), a_out gets
        o(1-tanh_c^2) and c[:, 1:] the forget gate f.

        Works through the slabs _DERIV_UNITS units at a time, over every
        step at once, so each operand is a contiguous block. Each quarter
        is overwritten in place once nothing left reads it; `work` holds
        one quarter of a chunk meanwhile.
        """
        hd = self.layers[idx].hidden_dim
        T, cols = self.steps, _padded(self.batch)
        gates, c = self.gates[idx], self.c[idx]
        np.tanh(c[:, 1:], out=a_out)
        for j0 in range(0, hd, _DERIV_UNITS):
            j1 = min(hd, j0 + _DERIV_UNITS)
            gi, gf, gg, go = (gates[k * hd + j0 : k * hd + j1] for k in range(4))
            tmp = work[: (j1 - j0) * T * cols].reshape(j1 - j0, T, cols)
            tc = a_out[j0:j1]
            # o and a_out both read o and tanh_c.
            np.subtract(1.0, go, out=tmp)
            tmp *= go
            tmp *= tc
            np.square(tc, out=tc)
            np.subtract(1.0, tc, out=tc)
            tc *= go
            np.copyto(go, tmp)
            # f reads c_prev before the cells make way for f.
            np.subtract(1.0, gf, out=tmp)
            tmp *= gf
            tmp *= c[j0:j1, :T]
            np.copyto(c[j0:j1, 1:], gf)
            np.copyto(gf, tmp)
            # i and g each read the other's activation.
            np.subtract(1.0, gi, out=tmp)
            tmp *= gi
            tmp *= gg
            np.square(gg, out=gg)
            np.subtract(1.0, gg, out=gg)
            gg *= gi
            np.copyto(gi, tmp)

    def backward(self, d_h):
        """Exact gradients of a loss whose gradient w.r.t. the top layer's h
        at every step is d_h (T, B, H).

        Overwrites the tape's gate and cell slabs (each step's gates end up
        holding its pre-activation gradient), so it can run once. Returns
        (d_x (T, B, input_dim), a view of a feature-major array, and
        per-layer [(d_w, d_b)]).
        """
        T, B = self.steps, self.batch
        cols = _padded(B)
        if d_h.shape != (T, B, self.layers[-1].hidden_dim):
            raise ConfigError("upstream gradient shape does not match the tape")
        if self._grad_work is None:
            size = T * _padded(self.capacity)
            self._grad_work = (np.empty(_DERIV_UNITS * size), np.empty(self._hidden * size),
                               np.empty(self._hidden * size))
        work, a_store, d_store = self._grad_work
        d_up = d_store[: d_h.shape[-1] * T * cols].reshape(-1, T, cols)
        d_up[:, :, :B] = d_h.transpose(2, 0, 1)
        d_up[:, :, B:] = 0.0
        d_param = [None] * len(self.layers)
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            hd, ind = layer.hidden_dim, layer.input_dim
            a_out = a_store[: hd * T * cols].reshape(hd, T, cols)
            self._local_derivatives(idx, work, a_out)
            d_pre, forget = self.gates[idx], self.c[idx][:, 1:]
            d_pre4 = d_pre.reshape(4, hd, T, cols)
            w_rec = layer.w[ind:]
            # Only the gradient w.r.t. h_prev feeds the next step back.
            d_rec = np.zeros((hd, cols))
            d_c = np.zeros((hd, cols))
            dc = np.empty((hd, cols))
            for t in range(T - 1, -1, -1):
                dh = d_up[:, t]
                dh += d_rec
                np.multiply(dh, a_out[:, t], out=dc)
                dc += d_c
                step = d_pre4[:, :, t]
                step[:3] *= dc
                step[3] *= dh
                np.multiply(dc, forget[:, t], out=d_c)
                np.matmul(w_rec, d_pre[:, t], out=d_rec)
            flat = d_pre.reshape(4 * hd, T * cols)
            # The gradient w.r.t. this layer's input at every step, after
            # the loop. d_up is spent, so it makes way for the layer
            # below's; layer 0's is returned, in an array of its own.
            d_x = (d_store[: ind * T * cols] if idx else np.empty(ind * T * cols)).reshape(ind, -1)
            np.matmul(layer.w[:ind], flat, out=d_x)
            xh = self._xh(idx, slice(idx, idx + T)).reshape(ind + hd, T * cols)
            d_param[idx] = (xh @ flat.T, flat.sum(axis=1))
            d_up = d_x.reshape(ind, T, cols)
        return d_up[:, :, :B].transpose(1, 2, 0), d_param
