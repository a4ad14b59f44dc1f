"""Stacked LSTM cell with hand-derived backward pass.

The four gates are packed along the last axis of one weight matrix in
the order input | forget | candidate | output, with the input and
recurrent paths stacked row-wise and a bias per gate column.

Every step's block is stored feature-major, one column per row of the
batch, with the columns padded to a multiple of 8, or of 16 in float32
(_padded). A step's inputs and hidden states form one
column vector [1, x, h_0, 1, h_1, ..., 1, h_{L-1}]: layer l's row range,
[1, x, h_0] for layer 0 and [h_{l-1}, 1, h_l] above it, holds exactly
one ones row, the h a layer writes is already the next layer's input,
and each gate quarter is a block of rows. Each layer steps with a weight
derived from layer.w and layer.b (_derive_weights): transposed and
C-contiguous, with the bias as the column that meets the ones row and
the i, f and o rows negated. So one product of it with the layer's rows
yields the candidate's pre-activation, and minus the sigmoid gates',
bias included, and the sigmoid is 1 / (1 + exp(product)). Negating a
weight is exact, so the sign costs nothing. The derived weights are
rebuilt from the model at every reset(), never per step. One cell,
_step_layer, steps a layer on such (rows, columns) blocks. Each row's
result then depends only on that row, bit for bit, whatever the batch
size and the row's column: the tests pin it, and scans at both
precisions found no exception (see _padded).

Training records a whole sequence in a SequenceTape, whose slab of
inputs and hidden states carries a time axis between the features and
the columns, and whose gates and cells are step-major, so the cell
writes each step in place. Its backward pass runs layer by layer on
layer.w, cast to the tape's dtype, and keeps only the recurrence inside
the time loop, the product of the recurrent weights with each step's
contiguous pre-activation gradient; each layer's input and weight
gradients are single products over one feature-major copy of all T
steps after it, and the weight gradient's product over the ones row is
the bias gradient.

Whatever runs forward only (validation, conditioning, decoding) steps a
StepSlab: the tape collapsed to a single step and updated in place, so
it allocates nothing per step. Both step through _step_layer on the same
layout, so a slab and a tape of one dtype agree bit for bit. Each steps
in the dtype it is made with, its stores and derived weights alike; the
layers, and so the model, stay float64. Training, validation and a
forecast make theirs in SLAB_DTYPE, float32, whose products and
transcendentals cost about half as much; a float64 tape is the
reference the gradient checks run on. Tape and slab share one stepping
API: step_inputs(t) is the view of step t's layer-0 inputs to write,
and forward_step(t) takes the step and returns its top h. So one loop
steps either (see network), and decoding steps its slab the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "LstmLayerParams",
    "SLAB_DTYPE",
    "SequenceTape",
    "StepSlab",
]

# The precision training, validation, encode and decode step the LSTM
# in. float32 halves the cost of the step's products and
# transcendentals, and the float64 heads, NLL, optimiser and samplers
# around it gain nothing from more.
SLAB_DTYPE = np.float32


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
    """Layout of the vector [1, x, h_0, 1, h_1, ..., 1, h_{L-1}] that runs
    down the rows of a SequenceTape's and a StepSlab's arrays: per layer
    the range of the rows it multiplies, [1, x, h_0] for layer 0 and
    [h_{l-1}, 1, h_l] above it; the rows of the ones; the rows each h
    starts at; and the length."""
    rows, ones, h_row = [], [], []
    for idx, layer in enumerate(layers):
        if idx and layer.input_dim != layers[idx - 1].hidden_dim:
            raise ConfigError(
                f"LSTM layer {idx} input_dim {layer.input_dim} != hidden_dim "
                f"{layers[idx - 1].hidden_dim} of the layer below"
            )
        if idx == 0:
            lo = one = 0
            h = 1 + layer.input_dim
        else:
            lo = h_row[-1]
            one = lo + layer.input_dim
            h = one + 1
        rows.append((lo, h + layer.hidden_dim))
        ones.append(one)
        h_row.append(h)
    return rows, ones, h_row, rows[-1][1]


def _derive_weights(layers, rows, ones, out) -> None:
    """Write into each out[l] (4H, K + 1) the weight layer l steps with:
    layer.w with layer.b inserted as the row that meets the ones row of
    its range, transposed, and with the i, f and o rows negated, so that
    the product gives minus the pre-activation of each sigmoid gate."""
    for layer, (lo, _), one, w in zip(layers, rows, ones, out):
        hd, k = layer.hidden_dim, one - lo
        w_t = w.T
        w_t[:k] = layer.w[:k]
        w_t[k] = layer.b
        w_t[k + 1 :] = layer.w[k:]
        np.negative(w[: 2 * hd], out=w[: 2 * hd])
        np.negative(w[3 * hd :], out=w[3 * hd :])


def _step_layer(w, xh, gates, c_prev, c, h, work) -> None:
    """One layer, one step, on blocks with one column per row of the batch.

    Reads xh, the layer's rows of the slab vector (its ones row among
    them), and c_prev; writes the activated gates i|f|g|o (4H, columns),
    c and h. w is the layer's derived weight (_derive_weights). work is
    an (H, columns) scratch, which may be the gates' i block when the
    caller does not keep them. c may be c_prev, and h may lie inside xh:
    xh is read only by the product, before anything is written.
    """
    hd = c.shape[0]
    np.matmul(w, xh, out=gates)
    # The i|f and o blocks hold -x, so the sigmoid is 1 / (1 + exp(.));
    # exp overflows to inf for very negative x, which gives the exact
    # limit 0 (the callers silence the overflow warning).
    for block in (gates[: 2 * hd], gates[3 * hd :]):
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


def _padded(batch: int, dtype=np.float64) -> int:
    """Columns a tape or slab of `dtype` steps for `batch` rows: the next
    multiple of 8 for float64, of 16 for float32 (64 bytes either way),
    the columns past the batch being padding.

    The gate product puts the batch on the axis that OpenBLAS blocks and
    splits between threads. Unless the column count is such a multiple,
    those splits move with it, and a row's gates round differently with
    different batch sizes: a scan of a 40-unit float64 layer found such
    rows at 161 or more columns on two threads, 193 or more on one. At
    multiples of 8 no shape in the scan rounded a row differently from
    the same row stepped alone, and a one-row batch never reaches gemv,
    which rounds differently from gemm. The scan, rerun for the derived
    weights' (4H, K + 1) products on contiguous and strided slab rows,
    with hidden sizes 1-24, 3-46 inputs, 1-400 rows (8-400 columns, a row
    also moved to other columns) and 1 and 2 threads, and for the heads'
    (2, H) product, found no exception either.

    float32 products padded to multiples of 8 are not row-independent:
    in a scan of the gate product at two threads, 704 of 896 (4H, K + 1)
    shapes rounded some column differently inside a wider product. At
    multiples of 16 none did: hidden sizes 1-64 with 5-130 inputs (8,064
    shapes), the first n columns for n = 16-512 and the 512 columns
    shifted by seven offsets of 1-255, on contiguous and strided slab
    rows: 628,992 products at each of 1 and 2 OpenBLAS threads. Nor did
    the heads' float64 (2, H) product over an upcast float32 top (H
    1-64).
    """
    step = 64 // np.dtype(dtype).itemsize
    return -(-batch // step) * step


class StepSlab:
    """The stack stepped one time step at a time over a batch of rows, on
    arrays allocated once: the SequenceTape collapsed to a single step.

    xh (width, columns) holds the slab vector [1, x, h_0, ..., 1, h_{L-1}]
    down its rows. Each layer keeps one cell (H, columns), updated in
    place; the layers share one gate array (4H, columns), whose spent i
    block is the cell's scratch. Columns past the B rows in use are
    padding (see _padded), stepped and never read. The caller writes the
    layer-0 inputs into step_inputs(t) (values it leaves alone are kept
    from step to step) and calls forward_step(t), as it steps a
    SequenceTape; a slab holds one step, so t is only the step's name. A
    slab starts from the zero state;
    storage is sized for `batch` rows, and reset() starts over with
    fewer, and with weights derived afresh from the layers. Stores and
    derived weights are of `dtype`, float64 or float32; the layers stay
    float64, and a float32 slab rounds each derived weight once.
    """

    def __init__(self, layers, batch: int, dtype=np.float64):
        self.layers = layers
        self.capacity = batch
        self.dtype = np.dtype(dtype)
        self._rows, self._ones, self._h_row, self._width = _slab_columns(layers)
        self._hidden = max(layer.hidden_dim for layer in layers)
        cols = _padded(batch, dtype)
        self._xh_store = np.empty(self._width * cols, dtype)
        self._c_stores = [np.empty(layer.hidden_dim * cols, dtype) for layer in layers]
        self._gate_store = np.empty(4 * self._hidden * cols, dtype)
        self._weights = [np.empty((4 * layer.hidden_dim, hi - lo), dtype)
                         for layer, (lo, hi) in zip(layers, self._rows)]
        self.reset(batch)

    def reset(self, batch: int) -> None:
        """Use the first `batch` rows (at most the capacity), with inputs
        and state all zero, stepping with the layers' current weights."""
        if not 0 < batch <= self.capacity:
            raise ConfigError(f"slab holds at most {self.capacity} rows, not {batch}")
        self.batch = batch
        cols = _padded(batch, self.dtype)
        _derive_weights(self.layers, self._rows, self._ones, self._weights)
        self._xh = self._xh_store[: self._width * cols].reshape(self._width, cols)
        self._xh[...] = 0.0
        self._xh[self._ones] = 1.0
        self._c = [store[: layer.hidden_dim * cols].reshape(-1, cols)
                   for store, layer in zip(self._c_stores, self.layers)]
        for c in self._c:
            c[...] = 0.0
        gates = self._gate_store[: 4 * self._hidden * cols].reshape(-1, cols)
        # Each layer's arguments to _step_layer, made once here: slicing
        # them afresh in every step cost about 3 % of a 64-row step.
        self._step_args = []
        for (lo, hi), row, c, w in zip(self._rows, self._h_row, self._c, self._weights):
            hd = c.shape[0]
            self._step_args.append((w, self._xh[lo:hi], gates[: 4 * hd], c, c,
                                    self._xh[row : row + hd], gates[:hd]))

    def state(self):
        """Copies of the rows in use, inputs, states and all: the slab
        vectors (width, B) and each layer's cell (H, B), for load()."""
        return (self._xh[:, : self.batch].copy(),
                [c[:, : self.batch].copy() for c in self._c])

    def load(self, state, rows) -> None:
        """Copy rows `rows` of a state() into this slab's rows, which
        reset() has sized to len(rows)."""
        xh, cells = state
        self._xh[:, : self.batch] = xh[:, rows]
        for c, src in zip(self._c, cells):
            c[:, : self.batch] = src[:, rows]

    def step_inputs(self, t: int) -> np.ndarray:
        """(B, input_dim) view of the layer-0 inputs of the step to take,
        whatever t, for the caller to fill."""
        return self._xh[1 : 1 + self.layers[0].input_dim, : self.batch].T

    @property
    def top(self) -> np.ndarray:
        """(H, columns) view of the top layer's hidden state, padding
        columns included: what the heads read."""
        row = self._h_row[-1]
        return self._xh[row : row + self.layers[-1].hidden_dim]

    def forward_step(self, t: int) -> np.ndarray:
        """Run every layer for one step on the inputs, in place; returns
        `top`."""
        # exp(-x) -> inf gives sigmoid 0. An input past a float32 slab's
        # range is inf and can turn the rows that read it into NaN, which
        # the callers' checks on the heads report.
        with np.errstate(over="ignore", invalid="ignore"):
            for args in self._step_args:
                _step_layer(*args)
        return self.top


# Steps per pass of SequenceTape._local_derivatives; its work array,
# (_DERIV_STEPS, H, columns), stays small.
_DERIV_STEPS = 8


class SequenceTape:
    """The stack run over `steps` time steps of `batch` rows, recorded for
    one backward pass.

    The layers' inputs and hidden states share one skewed slab
    xh (width, T+L, columns): time slot r holds
    [1, x_r, h_0(r-1), 1, h_1(r-2), ..., 1, h_{L-1}(r-L)] down its rows,
    so layer l's rows at step t are one row range of slot t+l, a strided
    (K + 1, columns) block, and the h a layer writes is already the next
    layer's input. Per layer there are also gates (T, 4H, columns), the
    activated gates of each step, and c (T+1, H, columns), whose slot 0 is
    the initial cell and slot t+1 step t's. Both are step-major, so each
    step's gates and cell are contiguous blocks: the cell writes them in
    place, and the backward's time loop reads them so. Columns past the B
    rows are padding (see _padded), stepped from zero inputs and never
    read. A sequence starts from the zero state. The caller writes the
    layer-0 inputs into `inputs` and calls forward_step(t) for t = 0, 1, ...

    Stores, derived weights and the backward's work arrays are of
    `dtype`, float64 or float32, as a StepSlab's are; the layers stay
    float64, and backward() returns their gradients in float64.
    """

    def __init__(self, layers, steps: int, batch: int, dtype=np.float64):
        self.layers = layers
        self.steps = steps
        self.capacity = batch
        self.dtype = np.dtype(dtype)
        # Row ranges of the layers in xh, their ones rows and where each h starts.
        self._rows, self._ones, self._h_row, self._width = _slab_columns(layers)
        self._hidden = max(layer.hidden_dim for layer in layers)
        cols = _padded(batch, dtype)
        # Flat storage for `capacity` rows; reset() carves the slabs for
        # the rows in use, so a shorter batch reuses the same memory.
        self._xh_store = np.empty(self._width * (steps + len(layers)) * cols, dtype)
        self._c_stores = [np.empty(layer.hidden_dim * (steps + 1) * cols, dtype)
                          for layer in layers]
        # A gate store also takes the layer's input gradient once spent.
        self._gate_stores = [np.empty(max(4 * layer.hidden_dim, layer.input_dim) * steps * cols,
                                      dtype) for layer in layers]
        # Four quarters of H * T * columns: the cell's work array at the
        # start of the first, upstream() the last, and backward's work.
        self._scratch = np.empty(4 * self._hidden * steps * cols, dtype)
        self._weights = [np.empty((4 * layer.hidden_dim, hi - lo), dtype)
                         for layer, (lo, hi) in zip(layers, self._rows)]
        self.reset(batch)

    def reset(self, batch: int) -> None:
        """Start a new sequence of `batch` rows (at most the capacity) from
        the zero state, stepping with the layers' current weights."""
        if not 0 < batch <= self.capacity:
            raise ConfigError(f"tape holds at most {self.capacity} rows, not {batch}")
        T, L = self.steps, len(self.layers)
        cols = _padded(batch, self.dtype)
        self.batch = batch
        _derive_weights(self.layers, self._rows, self._ones, self._weights)
        self.xh = self._xh_store[: self._width * (T + L) * cols].reshape(self._width, T + L, cols)
        self.xh[self._ones] = 1.0
        # Padding columns step from zero inputs, so every value the backward
        # pass multiplies by their zero gradient is finite.
        self.xh[1 : 1 + self.layers[0].input_dim, :, batch:] = 0.0
        self._cell_work = self._scratch[: self._hidden * cols].reshape(self._hidden, cols)
        self.c, self.gates = [], []
        for idx, layer in enumerate(self.layers):
            hd = layer.hidden_dim
            c = self._c_stores[idx][: hd * (T + 1) * cols].reshape(T + 1, hd, cols)
            self._h(idx, idx)[...] = 0.0
            c[0] = 0.0
            self.c.append(c)
            self.gates.append(self._gate_stores[idx][: 4 * hd * T * cols].reshape(T, 4 * hd, cols))

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
        x = self.xh[1 : 1 + self.layers[0].input_dim, : self.steps, : self.batch]
        return x.transpose(1, 2, 0)

    def step_inputs(self, t: int) -> np.ndarray:
        """(B, input_dim) view of step t's layer-0 inputs."""
        return self.inputs[t]

    @property
    def top(self) -> np.ndarray:
        """(H, T, columns) view of the top layer's h at every step, padding
        columns included: what the heads read."""
        top = len(self.layers)
        return self._h(top - 1, slice(top, top + self.steps))

    def forward_step(self, t: int) -> np.ndarray:
        """Run every layer for step t, once its layer-0 inputs are written,
        recording in place; returns the (H, columns) view of `top` at t."""
        # exp(-x) -> inf gives sigmoid 0. As on a StepSlab, a value past a
        # float32 tape's range can turn rows into NaN, which the heads'
        # checks report.
        with np.errstate(over="ignore", invalid="ignore"):
            for idx, layer in enumerate(self.layers):
                c = self.c[idx]
                _step_layer(self._weights[idx], self._xh(idx, t + idx), self.gates[idx][t], c[t],
                            c[t + 1], self._h(idx, t + idx + 1), self._cell_work[: layer.hidden_dim])
        return self._h(len(self.layers) - 1, t + len(self.layers))

    def upstream(self) -> np.ndarray:
        """(H, T, columns) buffer for the gradient of the loss w.r.t. the
        top layer's h at every step, for the caller to fill (padding
        columns with zeros) and pass to backward()."""
        size = self.steps * _padded(self.batch, self.dtype)
        hd = self.layers[-1].hidden_dim
        return self._scratch[3 * self._hidden * size :][: hd * size].reshape(hd, self.steps, -1)

    def _local_derivatives(self, idx: int, work, a_out) -> None:
        """Overwrite layer idx's slabs with the factors of the cell backward
        that do not depend on the upstream gradient: gates i|f|g|o become
        g*i(1-i) | c_prev*f(1-f) | i(1-g^2) | tanh_c*o(1-o), a_out gets
        o(1-tanh_c^2) and c[1:] the forget gate f.

        Works through the slabs _DERIV_STEPS steps at a time, the last
        chunk first: a chunk overwrites the cell slots after its steps with
        f, and its last such slot is the first c_prev of the chunk after
        it. Each quarter is overwritten in place once nothing left reads
        it; `work` holds one quarter of a chunk meanwhile.
        """
        hd = self.layers[idx].hidden_dim
        gates, c = self.gates[idx], self.c[idx]
        for t1 in range(self.steps, 0, -_DERIV_STEPS):
            t0 = max(0, t1 - _DERIV_STEPS)
            gi, gf, gg, go = (gates[t0:t1, k * hd : (k + 1) * hd] for k in range(4))
            tmp = work[: go.size].reshape(go.shape)
            tc = a_out[t0:t1]
            np.tanh(c[t0 + 1 : t1 + 1], out=tc)
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
            tmp *= c[t0:t1]
            np.copyto(c[t0 + 1 : t1 + 1], gf)
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
        at every step is d_h (H, T, columns), feature-major like `top`,
        zero in the padding columns; upstream() gives a buffer for it.

        Overwrites the tape's gate and cell slabs (each step's gates end
        up holding its pre-activation gradient) and its scratch, so it can
        run once. Returns (d_x (T, B, input_dim), a feature-major view of
        layer 0's gate store in the tape's dtype, valid until the tape
        steps again, and per-layer [(d_w, d_b)] in float64).

        Each layer's time loop reads step-major blocks from the scratch:
        the upstream gradient d_up in its first quarter, a_out in its
        second; the third is _local_derivatives' work. Once they are spent,
        the scratch takes a feature-major copy of the pre-activation
        gradients, the operand of the input and weight gradient products,
        and then the layer below's d_up. The products read layer.w in the
        tape's dtype: a copy made here for a float32 tape, nothing held.
        """
        T, B = self.steps, self.batch
        cols = _padded(B, self.dtype)
        if d_h.shape != (self.layers[-1].hidden_dim, T, cols):
            raise ConfigError("upstream gradient shape does not match the tape")
        size = T * cols
        quarter = self._hidden * size
        d_up = self._scratch[: d_h.size].reshape(T, -1, cols)
        np.copyto(d_up, d_h.transpose(1, 0, 2))
        d_param = [None] * len(self.layers)
        # A non-finite value in a float32 tape reaches the gradients, whose
        # norm the trainer checks.
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in range(len(self.layers) - 1, -1, -1):
                layer = self.layers[idx]
                hd, ind = layer.hidden_dim, layer.input_dim
                w = layer.w.astype(self.dtype, copy=False)
                a_out = self._scratch[quarter : quarter + hd * size].reshape(T, hd, cols)
                self._local_derivatives(idx, self._scratch[2 * quarter :], a_out)
                d_pre, forget = self.gates[idx], self.c[idx][1:]
                d_pre4 = d_pre.reshape(T, 4, hd, cols)
                w_rec = w[ind:]
                # Only the gradient w.r.t. h_prev feeds the next step back.
                d_rec = np.zeros((hd, cols), self.dtype)
                d_c = np.zeros((hd, cols), self.dtype)
                dc = np.empty((hd, cols), self.dtype)
                for t in range(T - 1, -1, -1):
                    dh = d_up[t]
                    dh += d_rec
                    np.multiply(dh, a_out[t], out=dc)
                    dc += d_c
                    step = d_pre4[t]
                    step[:3] *= dc
                    step[3] *= dh
                    np.multiply(dc, forget[t], out=d_c)
                    np.matmul(w_rec, d_pre[t], out=d_rec)
                # The input gradient at every step, into the spent gate
                # store, and d_w with d_b from the ones row: one product
                # each, over all steps.
                flat = self._scratch[: 4 * hd * size].reshape(4 * hd, size)
                np.copyto(flat.reshape(4 * hd, T, cols), d_pre.transpose(1, 0, 2))
                d_x = self._gate_stores[idx][: ind * size].reshape(ind, T, cols)
                np.matmul(w[:ind], flat, out=d_x.reshape(ind, size))
                lo, hi = self._rows[idx]
                d_wb = self._xh(idx, slice(idx, idx + T)).reshape(hi - lo, size) @ flat.T
                d_wb = d_wb.astype(np.float64, copy=False)
                one = self._ones[idx] - lo
                d_param[idx] = (np.delete(d_wb, one, axis=0), d_wb[one])
                if idx:  # the layer below's upstream gradient, step-major
                    d_up = self._scratch[: ind * size].reshape(T, ind, cols)
                    np.copyto(d_up, d_x.transpose(1, 0, 2))
        return d_x[:, :, :B].transpose(1, 2, 0), d_param
