"""Stacked LSTM cell with hand-derived backward pass.

Arrays are float64. The four gates are packed along the last axis of one
weight matrix in the order input | forget | candidate | output, with the
input and recurrent paths stacked row-wise so each step is a single
matmul of [x, h] against it.

Training records a whole sequence in a SequenceTape, row-major with a
leading batch axis: inputs (B, input_dim), states and gates (B, .) per
step in (T, B, .) slabs. Its backward pass runs layer by layer and
keeps only the recurrence inside the time loop, the product of each
step's pre-activation gradient with the recurrent weights; each layer's
input gradient (in blocks of rows) and weight gradient are products over
all T*B rows after it.

Whatever runs forward only (validation, conditioning, decoding) steps
the stack one time step at a time on a StepSlab, which allocates
nothing per step and stores its rows feature-major: one column per row,
so each gate quarter is a contiguous block and a step is one product
layer.w.T @ [x, h] per layer. Its accessors still hand out (B, .) views.
The slab's cell arithmetic is the tape's, element for element, and at
the shapes the tests pin (among them a 3 x 40 stack at decode and
validation batch sizes) the two products round every row alike, so tape
and slab agree bit for bit. OpenBLAS does not promise that for every
shape: at 400 rows a scan found last-bit differences for odd hidden
sizes up to 23 once [x, h] is 16 or more wide, and none for even sizes.
Both lay a step's inputs and hidden states out as one vector
[x, h_0, ..., h_{L-1}].
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
    It runs along a SequenceTape row and down a StepSlab column."""
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


def _cell(xh, c_prev, layer: LstmLayerParams, gates, c, tanh_c, h, scratch):
    """The gate arithmetic of one layer, one step, on a SequenceTape's
    row-major arrays (StepSlab.step is its feature-major twin).

    Reads xh = [x, h_prev] (B, input_dim + hidden_dim) and c_prev; writes
    the activated gates (B, 4 * hidden_dim), c, tanh(c) and h; scratch is a
    (B, hidden_dim) work array. c may be c_prev, and h may lie inside xh:
    xh is read only by the product, before anything is written. At the
    shapes the tests pin, each row's result depends only on that row, bit
    for bit, whatever the batch size; OpenBLAS does not promise it for
    every shape (an 11-unit layer with 46 inputs rounds rows differently
    in a 400-row batch than in smaller ones).
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
    # to inf for very negative x, which gives the exact limit 0 (the
    # caller silences the overflow warning). The candidate quarter is then
    # replaced by tanh of its saved input.
    np.negative(gates, out=gates)
    np.exp(gates, out=gates)
    gates += 1.0
    np.reciprocal(gates, out=gates)
    np.tanh(scratch, out=cand)
    np.multiply(gates[:, hd : 2 * hd], c_prev, out=c)
    np.multiply(gates[:, :hd], cand, out=scratch)
    c += scratch
    np.tanh(c, out=tanh_c)
    np.multiply(gates[:, 3 * hd :], tanh_c, out=h)


def _padded(batch: int) -> int:
    """Columns a StepSlab steps for `batch` rows: the next multiple of 8,
    the columns past the batch being padding.

    The slab's gate product puts the batch on the axis that OpenBLAS
    blocks and splits between threads. Unless the column count is a
    multiple of 8, those splits move with it, and a row's gates round
    differently with different batch sizes: a scan of a 40-unit layer
    found such rows at 161 or more columns on two threads, 193 or more
    on one. At multiples of 8 no shape in the scan rounded a row
    differently from the same row stepped alone, and a one-row batch
    never reaches gemv, which rounds differently from gemm.
    """
    return -(-batch // 8) * 8


class StepSlab:
    """The stack stepped one time step at a time over a batch of rows, on
    arrays allocated once: the SequenceTape's skewed slab collapsed to a
    single step and stored feature-major, one column per row.

    xh (input_dim + sum of hidden dims, columns) holds
    [x, h_0, ..., h_{L-1}] down its rows, so layer l's [input, h_prev] is
    one row range, and the h it writes in place is already the next
    layer's input. Each layer keeps one cell (H, columns), updated in
    place; the layers share one gate array (4H, columns). So a step is
    one product layer.w.T @ xh per layer on a transposed view of the
    weights, and every gate quarter is a contiguous block. Columns past
    the B rows in use are padding (see _padded), stepped and never read.
    The caller writes the layer-0 inputs into `inputs` (values it leaves
    alone are kept from step to step) and calls step(). A slab starts
    from the zero state; storage is sized for `batch` rows, and reset()
    starts over with fewer.
    """

    def __init__(self, layers, batch: int):
        self.layers = layers
        self.capacity = batch
        self._rows, self._h_row, self._width = _slab_columns(layers)
        hidden = max(layer.hidden_dim for layer in layers)
        cols = _padded(batch)
        self._xh_store = np.empty(self._width * cols)
        self._c_stores = [np.empty(layer.hidden_dim * cols) for layer in layers]
        self._gate_store = np.empty(4 * hidden * cols)
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
        self._gates = [self._gate_store[: 4 * layer.hidden_dim * cols].reshape(-1, cols)
                       for layer in self.layers]
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
        """(B, H) C-ordered copy of the top layer's hidden state, so that
        row-wise reductions over it keep the bits they have on the
        SequenceTape's row-major slab."""
        return self.h(len(self.layers) - 1).copy()

    def step(self) -> None:
        """Run every layer for one step on the inputs in place.

        The cell arithmetic is _cell's, element for element: the sigmoid
        runs on the i|f and o blocks, tanh in place on the candidate, and
        the spent forget block holds tanh(c).
        """
        with np.errstate(over="ignore"):  # exp(-x) -> inf gives sigmoid 0
            for idx, layer in enumerate(self.layers):
                lo, hi = self._rows[idx]
                hd = layer.hidden_dim
                gates, c = self._gates[idx], self._c[idx]
                np.matmul(layer.w.T, self._xh[lo:hi], out=gates)
                gates += layer.b[:, None]
                for block in (gates[: 2 * hd], gates[3 * hd :]):
                    np.negative(block, out=block)
                    np.exp(block, out=block)
                    block += 1.0
                    np.reciprocal(block, out=block)
                i, f, g, o = (gates[k * hd : (k + 1) * hd] for k in range(4))
                np.tanh(g, out=g)
                c *= f
                i *= g
                c += i
                np.tanh(c, out=f)
                row = self._h_row[idx]
                np.multiply(o, f, out=self._xh[row : row + hd])


# Steps per pass of SequenceTape._local_derivatives; its work array,
# (_DERIV_STEPS, B, H), stays small.
_DERIV_STEPS = 8
# Rows per product of SequenceTape.backward's input gradient. OpenBLAS
# packs each thread's share of a product's rows into its buffers: on two
# threads, one product over all 2688 rows of a 42-step, 64-row tape
# raised a training run's peak RSS by 3 MiB, 256-row blocks by 0.1 MiB.
_GRAD_ROWS = 256


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
    A sequence starts from the zero state. The caller writes the layer-0
    inputs into `inputs` and calls forward_step(t) for t = 0, 1, ...
    """

    def __init__(self, layers, steps: int, batch: int):
        self.layers = layers
        self.steps = steps
        self.capacity = batch
        # Column range of layer l's [input, h] in a slab row, and where its h starts.
        self._cols, self._h_col, self._width = _slab_columns(layers)
        hidden = max(layer.hidden_dim for layer in layers)
        # Flat storage for `capacity` rows; reset() carves the slabs for
        # the rows in use, so a shorter batch reuses the same memory.
        self._xh_store = np.empty((steps + len(layers)) * batch * self._width)
        self._c_stores = [np.empty((steps + 1) * batch * layer.hidden_dim) for layer in layers]
        self._gate_stores = [np.empty(steps * batch * 4 * layer.hidden_dim) for layer in layers]
        self._row_work = np.empty((2, batch, hidden))  # a step's tanh(c) and scratch
        self._work = None  # backward's work arrays, made on first use
        self.reset(batch)

    def reset(self, batch: int) -> None:
        """Start a new sequence of `batch` rows (at most the capacity) from
        the zero state."""
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
            self._h(idx, idx)[...] = 0.0
            c[0] = 0.0
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
        with np.errstate(over="ignore"):  # exp(-x) -> inf gives sigmoid 0
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

    def _local_derivatives(self, idx: int, work, a_out) -> None:
        """Overwrite layer idx's slabs with the factors of the cell backward
        that do not depend on the upstream gradient: gates i|f|g|o become
        g*i(1-i) | c_prev*f(1-f) | i(1-g^2) | tanh_c*o(1-o), a_out gets
        o(1-tanh_c^2) and c[1:] the forget gate f.

        Works through the slab _DERIV_STEPS steps at a time, the latest
        first: a chunk overwrites c[t0+1 : t1+1] with f, and c[t0] is still
        the previous cell of its first step. Each quarter is overwritten in
        place once nothing left reads it; `work` holds one quarter of a
        chunk meanwhile.
        """
        hd = self.layers[idx].hidden_dim
        B = self.batch
        gates, c = self.gates[idx], self.c[idx]
        np.tanh(c[1:], out=a_out)
        for t1 in range(self.steps, 0, -_DERIV_STEPS):
            t0 = max(0, t1 - _DERIV_STEPS)
            g = gates[t0:t1]
            gi, gf, gg, go = (g[..., k * hd : (k + 1) * hd] for k in range(4))
            tmp = work[: (t1 - t0) * B * hd].reshape(t1 - t0, B, hd)
            tc = a_out[t0:t1]
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
        at every step is d_h (T, B, H).

        Overwrites d_h and the tape's gate and cell slabs (each step's gate
        slab ends up holding its pre-activation gradient), so it can run
        once. Returns (d_x (T, B, input_dim), per-layer [(d_w, d_b)]).
        """
        T, B = self.steps, self.batch
        if d_h.shape != (T, B, self.layers[-1].hidden_dim):
            raise ConfigError("upstream gradient shape does not match the tape")
        hidden = max(layer.hidden_dim for layer in self.layers)
        if self._work is None:
            self._work = (
                np.empty(_DERIV_STEPS * self.capacity * hidden),
                np.empty(T * self.capacity * hidden),
            )
        work = self._work[0]
        a_store = self._work[1][: T * B * hidden].reshape(T, B, hidden)
        d_param = [None] * len(self.layers)
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            hd, ind = layer.hidden_dim, layer.input_dim
            a_out = a_store[..., :hd]
            self._local_derivatives(idx, work, a_out)
            d_pre, forget = self.gates[idx], self.c[idx][1:]
            d_pre4 = d_pre.reshape(T, B, 4, hd)
            w_t = np.ascontiguousarray(layer.w.T)
            # Only the gradient w.r.t. h_prev feeds the next step back.
            d_rec = np.zeros((B, hd))
            d_c = np.zeros((B, hd))
            dc = np.empty((B, hd))
            for t in range(T - 1, -1, -1):
                dh = d_h[t]
                dh += d_rec
                np.multiply(dh, a_out[t], out=dc)
                dc += d_c
                step = d_pre4[t]
                step[:, :3] *= dc[:, None]
                step[:, 3] *= dh
                np.multiply(dc, forget[t], out=d_c)
                np.matmul(d_pre[t], w_t[:, ind:], out=d_rec)
            flat = d_pre.reshape(T * B, 4 * hd)
            # The gradient w.r.t. this layer's input at every step, after
            # the loop, _GRAD_ROWS rows of T*B per product; d_h is spent,
            # so an equally wide d_h holds it.
            if d_h.shape[-1] == ind and d_h.flags.c_contiguous:
                d_x = d_h
            else:
                d_x = np.empty((T, B, ind))
            d_x_flat = d_x.reshape(T * B, ind)
            for lo in range(0, T * B, _GRAD_ROWS):
                hi = lo + _GRAD_ROWS
                np.matmul(flat[lo:hi], w_t[:, :ind], out=d_x_flat[lo:hi])
            xh = self._xh(idx, slice(idx, idx + T)).reshape(T * B, ind + hd)
            d_param[idx] = (xh.T @ flat, flat.sum(axis=0))
            d_h = d_x
        return d_h, d_param
