"""The autoregressive model: category embedding + stacked LSTM + output
heads, with teacher-forced training unrolls, a forward-only validation
pass, batched conditioning-range encoding, and batched single-step
decoding for sampling.

One loop, _teacher_forced, is the teacher-forced recurrence: at each
step it writes the inputs, steps a stepper and draws the missing next
inputs. Training (`unroll_batch`) steps a float64 lstm.SequenceTape,
recorded for the backward pass; validation (`forward_nll`) steps a
float32 lstm.StepSlab that also keeps each step's top h, upcast; and
`encode` steps the forecast's float32 StepSlab through the conditioning
range and the first prediction step. All three read a
dataset.WindowBatch, the (B, T) arrays one gather cuts from a panel's
flat arrays, as they are: nothing is restacked per batch. One scorer,
_score, runs the float64 heads and the NLL over the top h of every step
of a training or validation batch (validation's without the NLL's
gradients) and names the first non-finite step. Decoding keeps its own
loop: `decode_step` advances a slab loaded from encoded rows a step at
a time in place.

Tape and slab hold the step vector [1, x, h_0, 1, h_1, ...]
feature-major, step the same cell and derive each layer's weight from
layer.w and layer.b at every reset (see lstm); the model file holds only
layer.w and layer.b. The heads read the top layer's rows in place: one
(2, H) product per decode step, or over all the steps of a batch, whose
gradient w.r.t. h goes straight into the tape's upstream buffer.

The input at step t is [z_{t-1}/nu, covariates_t, embedding]; z before
the window start is 0. The loss sums the negative log-likelihood over
observed and padded steps; steps with a missing target are excluded, and
the value fed forward from a missing step is a draw from that step's
predictive distribution, treated as a constant by the backward pass.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    MASK_MISSING,
    FeatureStats,
    Granularity,
    WindowBatch,
    WindowSpec,
    feature_names,
)
from .errors import ConfigError, DataError, DivergenceError
from .likelihood import (
    HeadParams,
    LikelihoodKind,
    apply_heads,
    draw,
    heads_backward,
    nll_and_grads,
    nll_only,
)
from .lstm import SLAB_DTYPE, LstmLayerParams, SequenceTape, StepSlab
from .rng import RowKeys

__all__ = [
    "ModelParams",
    "UnrollResult",
    "init_model",
    "unroll_batch",
    "forward_nll",
    "encode",
    "decode_step",
    "load_model",
    "model_to_bytes",
    "model_from_bytes",
]

_FORMAT = "panelcast-model"
_VERSION = 1


@dataclass
class ModelParams:
    likelihood: LikelihoodKind
    spec: WindowSpec
    stats: FeatureStats
    granularity: Granularity
    category_cardinality: int
    embedding: np.ndarray  # (cardinality, embedding_dim)
    layers: list
    heads: HeadParams

    @property
    def feature_dim(self) -> int:
        return len(self.stats.names)

    @property
    def embedding_dim(self) -> int:
        return int(self.embedding.shape[1])

    @property
    def input_dim(self) -> int:
        return 1 + self.feature_dim + self.embedding_dim

    @property
    def hidden_dim(self) -> int:
        return self.layers[-1].hidden_dim

    def blocks(self) -> dict:
        """Live views of every trainable array, keyed by block name."""
        out = {"embedding": self.embedding}
        for i, layer in enumerate(self.layers):
            out[f"lstm{i}.w"] = layer.w
            out[f"lstm{i}.b"] = layer.b
        out["head.w_mu"] = self.heads.w_mu
        out["head.b_mu"] = self.heads.b_mu
        out["head.w_disp"] = self.heads.w_disp
        out["head.b_disp"] = self.heads.b_disp
        return out

    def copy_blocks(self) -> dict:
        return {name: arr.copy() for name, arr in self.blocks().items()}

    def load_blocks(self, snapshot: dict) -> None:
        for name, arr in self.blocks().items():
            arr[...] = snapshot[name]

    def parameter_count(self) -> int:
        return sum(arr.size for arr in self.blocks().values())


def init_model(
    likelihood: LikelihoodKind,
    spec: WindowSpec,
    stats: FeatureStats,
    granularity: Granularity,
    category_cardinality: int,
    num_layers: int,
    hidden_dim: int,
    embedding_dim: int,
    seed: int,
) -> ModelParams:
    """Every weight block uniform within +-1/sqrt(fan-in), read from the
    key of (seed, "init", block); biases zero except the LSTM forget
    gate's, which starts at 1.0."""
    if num_layers < 1 or hidden_dim < 1 or embedding_dim < 1 or category_cardinality < 1:
        raise ConfigError("model dimensions must be positive")

    def uniform(block, shape, fan_in):
        n = math.prod(shape)
        keys = RowKeys.for_series(seed, "init", [block], [0])
        u = keys.uniforms(0, 0, lanes=-(-n // 2))[:n, 0].reshape(shape)
        return (u * 2.0 - 1.0) * (1.0 / np.sqrt(fan_in))

    embedding = uniform("embedding", (category_cardinality, embedding_dim), embedding_dim)
    input_dim = 1 + len(stats.names) + embedding_dim
    layers = []
    for i in range(num_layers):
        in_dim = input_dim if i == 0 else hidden_dim
        rows = in_dim + hidden_dim
        b = np.zeros(4 * hidden_dim)
        b[hidden_dim : 2 * hidden_dim] = 1.0
        w = uniform(f"lstm{i}", (rows, 4 * hidden_dim), rows)
        layers.append(LstmLayerParams(in_dim, hidden_dim, w, b))
    w_mu, w_disp = uniform("heads", (2, hidden_dim), hidden_dim)
    heads = HeadParams(w_mu, np.zeros(()), w_disp, np.zeros(()))
    return ModelParams(
        likelihood,
        spec,
        stats,
        granularity,
        category_cardinality,
        embedding,
        layers,
        heads,
    )


@dataclass
class UnrollResult:
    """Loss, per-step distribution parameters, and parameter gradients."""

    loss: float
    mus: np.ndarray  # (B, T)
    disps: np.ndarray  # (B, T)
    grads: dict
    counted_steps: int


def _write_inputs(x, z_prev, nu, covariates, emb=None) -> None:
    """Write the per-row step inputs [z_{t-1}/nu, x_t, embedding] into x
    (..., B, input_dim) in place, for z_prev (..., B), nu (B,), covariates
    (..., B, d) and emb (B, e). emb=None leaves the embedding columns as
    they are. A value past the range of x's dtype (a float32 slab's) is
    written as inf, for the stepper to carry to the heads' checks."""
    with np.errstate(over="ignore"):
        np.divide(z_prev, nu, out=x[..., 0])
        d = covariates.shape[-1]
        x[..., 1 : 1 + d] = covariates
        if emb is not None:
            x[..., 1 + d :] = emb


def _impute(params: ModelParams, h, nu, keys: RowKeys, step: int, rows):
    """Values to feed forward from the missing steps of rows `rows` of a
    block whose top hidden state is h (H, columns), feature-major and
    padded as a slab or tape holds it, and whose scales are nu (B,): one
    draw per row from its predictive distribution, at counter `step` of
    its row of keys. The heads run on the whole block and the rows are
    gathered after: a gathered subset of columns could reach gemv, which
    rounds differently. None when the rows' heads are not finite."""
    mu, disp, _ = apply_heads(h, params.heads, nu, params.likelihood)
    mu, disp = mu[rows], disp[rows]
    if not (np.isfinite(mu).all() and np.isfinite(disp).all()):
        return None
    return draw(params.likelihood, mu, disp, keys.take(rows), step)


def _divergence(step: int, mu, disp) -> DivergenceError:
    return DivergenceError(
        f"non-finite loss at step {step}",
        log={"step": step, "mu": np.asarray(mu).tolist(), "disp": np.asarray(disp).tolist()},
    )


def _teacher_forced(params: ModelParams, stepper, targets, missing, covariates, nu, cats,
                    keys) -> int:
    """The recurrence of training, validation and encoding: step
    `stepper` (a SequenceTape or a StepSlab of B rows, from the state it
    holds) over the n steps of covariates (B, n, d), for scales nu and
    categories cats (B,). Step t feeds z_{t-1}/nu: 0 at t = 0, then the
    target (targets and missing are (B, >= n - 1)), or for a missing one a
    draw from step t-1's predictive distribution at counter t-1 of the
    row's keys. Returns the steps taken: n, or t + 1 when a draw after
    step t would read non-finite distribution parameters.
    """
    n = covariates.shape[1]
    emb = params.embedding[cats]
    z_prev = np.zeros((n, nu.size))
    z_prev[1:] = np.where(missing, 0.0, targets)[:, : n - 1].T
    if keys is None and missing[:, : n - 1].any():
        raise ConfigError("missing values require sampling keys")
    for t in range(n):
        _write_inputs(stepper.step_inputs(t), z_prev[t], nu, covariates[:, t], emb)
        top = stepper.forward_step(t)
        if t + 1 < n and missing[:, t].any():
            miss = np.flatnonzero(missing[:, t])
            z = _impute(params, top, nu, keys, t, miss)
            if z is None:
                return t + 1
            z_prev[t + 1, miss] = z
    return n


def _score(params: ModelParams, top, nu, targets, counted, grads=True):
    """The heads and the NLL of a batch of B windows of T steps after the
    recurrence: top (H, n, columns) holds the top h of the n steps taken,
    targets and counted (B, T) the targets and the steps that count.

    Returns (mu, disp, hcache, nll, d_mu, d_disp): the heads' outputs and
    cache, and the NLL and its gradients w.r.t. mu and disp, 0 where a
    step does not count; each array (T * B,) in (step, window) order.
    With grads=False the gradients are not computed and are None.
    Raises DivergenceError at the first step where some row's parameters,
    or some counted row's NLL, are not finite; a recurrence stopped early
    (n < T) has such a step. The NLL terms are computed with numpy's
    floating-point warnings off: the NLL is checked here, and the
    gradients by the caller's norm (trainer).
    """
    kind = params.likelihood
    B = nu.size
    mu, disp, hcache = apply_heads(top, params.heads, nu, kind)
    mu, disp = mu.ravel(), disp.ravel()
    finite = np.isfinite(mu) & np.isfinite(disp)
    limit = mu.size if finite.all() else int(np.argmin(finite)) // B * B
    sel = np.flatnonzero(counted.T.ravel()[:limit])
    nll = np.zeros_like(mu)
    d_mu = d_disp = None
    if grads:
        d_mu, d_disp = np.zeros_like(mu), np.zeros_like(mu)
    if sel.size:
        args = (targets.T.ravel()[sel], mu[sel], disp[sel], kind)
        with np.errstate(all="ignore"):
            if grads:
                nll[sel], d_mu[sel], d_disp[sel] = nll_and_grads(*args)
            else:
                nll[sel] = nll_only(*args)
        bad = ~np.isfinite(nll)
        if bad.any():
            t = int(np.argmax(bad)) // B
            rows = sel[sel // B == t]
            raise _divergence(t, mu[rows], disp[rows])
    if limit < mu.size:
        raise _divergence(limit // B, mu[limit : limit + B], disp[limit : limit + B])
    return mu, disp, hcache, nll, d_mu, d_disp


def _batch_arrays(batch: WindowBatch, params: ModelParams):
    """(nu, cats, targets, counted, covariates) of a batch of windows
    checked against the model: scales and categories (B,), targets and
    the mask of steps that count toward the loss (B, T), covariates
    (B, T, d)."""
    if not len(batch):
        raise ConfigError("a batch needs at least one window")
    if batch.target.shape[1] != params.spec.total:
        raise ConfigError("window length does not match the model's window spec")
    cats = batch.category
    if np.any(cats >= params.category_cardinality):
        raise DataError("category code outside the embedding table")
    return batch.scale, cats, batch.target, batch.mask != MASK_MISSING, batch.covariates


def unroll_batch(batch: WindowBatch, params: ModelParams, impute_seed=None, *,
                 tape=None) -> UnrollResult:
    """Teacher-forced forward and backward over a batch of windows.

    Returns the summed NLL over all counted steps of all windows, with
    gradients for that sum. impute_seed is required only when some window
    has missing observations: the value fed forward from a missing step t
    of window b is drawn with the key of (impute_seed, window series id)
    on path b at step t.

    The batch runs as one (T, B) block: _teacher_forced fills a
    SequenceTape, evaluating the heads inside the loop only at steps where
    some row's next input must be imputed; _score then runs the heads and
    the NLL once over the tape's top rows at all T steps.
    `tape`, a SequenceTape of params.layers for T steps and at least B
    rows, is reused if given (a training loop saves re-allocating, and
    page-faulting, the slabs every batch); otherwise a new one is made.
    """
    nu, cats, targets, counted, covariates = _batch_arrays(batch, params)
    B, T = targets.shape
    keys = None
    if (~counted[:, :-1]).any():
        if impute_seed is None:
            raise ConfigError("windows with missing values require an imputation seed")
        keys = RowKeys.for_series(impute_seed, "impute", batch.ids, np.arange(B))
    if tape is None or tape.layers is not params.layers or tape.steps != T or tape.capacity < B:
        tape = SequenceTape(params.layers, T, B)
    else:
        tape.reset(B)
    steps = _teacher_forced(params, tape, targets, ~counted, covariates, nu, cats, keys)
    mu, disp, hcache, nll, d_mu, d_disp = _score(params, tape.top[:, :steps], nu, targets,
                                                 counted)
    # Exact summation keeps the loss reproducible to the last ulp, which
    # the finite-difference harness depends on. Terms that are each
    # finite can still sum past the float range.
    try:
        total_nll = math.fsum(nll.tolist())
    except OverflowError:
        raise DivergenceError("the summed NLL overflows") from None
    d_h, head_grads = heads_backward(d_mu.reshape(T, B), d_disp.reshape(T, B), hcache,
                                     params.heads, params.likelihood, out=tape.upstream())
    d_x, layer_grads = tape.backward(d_h)
    d_emb = d_x[:, :, 1 + params.feature_dim :].sum(axis=0)
    grads = {"embedding": np.zeros_like(params.embedding)}  # keyed in blocks() order
    np.add.at(grads["embedding"], cats, d_emb)
    for i, (d_w, d_b) in enumerate(layer_grads):
        grads[f"lstm{i}.w"] = d_w
        grads[f"lstm{i}.b"] = d_b
    grads.update((f"head.{key}", g) for key, g in head_grads.items())

    return UnrollResult(total_nll, mu.reshape(T, B).T, disp.reshape(T, B).T, grads,
                        int(counted.sum()))


class _TopRecord(StepSlab):
    """A SLAB_DTYPE StepSlab that also keeps the top h of each of `steps`
    steps, (H, steps, columns) as a SequenceTape's `top`, for _score: in
    float64, so each step's copy is the upcast the heads would make."""

    def __init__(self, layers, batch: int, steps: int):
        super().__init__(layers, batch, SLAB_DTYPE)
        self.tops = np.empty((layers[-1].hidden_dim, steps, self.top.shape[1]))

    def forward_step(self, t: int) -> np.ndarray:
        top = super().forward_step(t)
        self.tops[:, t] = top
        return top


def _past_slab_range(params: ModelParams):
    """The name of the first LSTM or embedding block holding a value past
    SLAB_DTYPE's range, which a forward-only pass cannot step; else None.
    The heads stay float64 and hold any finite value."""
    limit = np.finfo(SLAB_DTYPE).max
    for name, arr in params.blocks().items():
        if not name.startswith("head.") and np.abs(arr).max() > limit:
            return name
    return None


def forward_nll(batch: WindowBatch, params: ModelParams, keys: RowKeys = None):
    """The teacher-forced NLL of every step of a batch of windows, forward
    only: unroll_batch's loop and scorer on a float32 StepSlab instead of
    a tape, and the NLL without its gradients. So the terms are
    unroll_batch's loss terms at single-precision LSTM arithmetic (about
    1e-9 relative on a pool's total in the tests), and a row's bits do
    not depend on the rows beside it (see lstm._padded).

    Row b imputes its missing steps with keys row b (needed only when some
    window has missing values). Returns (nll, counted), each (B, T):
    counted marks the steps that contribute, and nll is 0 elsewhere.
    Raises DivergenceError as unroll_batch does, and when an LSTM or
    embedding value is past the float32 range, which the model loader
    would reject.
    """
    past = _past_slab_range(params)
    if past:
        raise DivergenceError(f"the model's {past} holds a value past the float32 range")
    nu, cats, targets, counted, covariates = _batch_arrays(batch, params)
    B, T = targets.shape
    slab = _TopRecord(params.layers, B, T)
    steps = _teacher_forced(params, slab, targets, ~counted, covariates, nu, cats, keys)
    tops = slab.tops[:, :steps]
    # Released before scoring, so that the scorer's arrays reuse the
    # slab's memory instead of growing the heap of a training run.
    del slab
    nll = _score(params, tops, nu, targets, counted, grads=False)[3]
    return nll.reshape(T, B).T, counted


def _heads(params: ModelParams, slab: StepSlab, nu):
    """(mu, disp), each (B,), of the prediction step `slab` has just taken."""
    mu, disp, _ = apply_heads(slab.top, params.heads, nu, params.likelihood)
    if not (np.isfinite(mu).all() and np.isfinite(disp).all()):
        raise DivergenceError("non-finite distribution parameters during decoding")
    return mu, disp


def encode(batch: WindowBatch, params: ModelParams, slab: StepSlab, keys: RowKeys = None):
    """Run the training recurrence over the conditioning ranges of a batch
    of series, one row each, and the first prediction step.

    The batch's target and mask are (B, c), its covariates (B, >= c + 1,
    d): those of the conditioning range and the first prediction step
    are read. `slab` is reset to B rows and left holding the state after
    the first prediction step, embeddings written, ready for decode_step.
    Returns that step's (mu, disp), each (B,). A missing value at step t,
    the last one too, is replaced by a draw from step t's predictive
    distribution at counter t of the row's key; padded steps feed zeros.
    A zero-length conditioning range starts from zero state.
    """
    slab.reset(len(batch))
    c = batch.target.shape[1]
    steps = _teacher_forced(params, slab, batch.target, batch.mask == MASK_MISSING,
                            batch.covariates[:, : c + 1], batch.scale, batch.category, keys)
    if steps < c + 1:
        raise DivergenceError("non-finite distribution parameters during encoding")
    return _heads(params, slab, batch.scale)


def decode_step(
    params: ModelParams,
    slab: StepSlab,
    z_prev: np.ndarray,
    covariates: np.ndarray,
    nu: np.ndarray,
):
    """One prediction step for a batch of rows (sample paths of one or
    more series), advancing `slab` in place; its embedding columns must
    already hold each row's embedding, as encode leaves them. z_prev and
    nu are (B,), covariates (B, d).

    Returns (mu, disp), each (B,), for the step just taken.
    """
    _write_inputs(slab.inputs, z_prev, nu, covariates)
    slab.step()
    return _heads(params, slab, nu)


def _encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(d["data"]), dtype="<f8")
    return raw.reshape([int(s) for s in d["shape"]]).copy()


def model_to_bytes(params: ModelParams) -> bytes:
    """Deterministic byte encoding; identical params give identical bytes."""
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "likelihood": params.likelihood.value,
        "granularity": params.granularity.code,
        "window": {
            "conditioning_length": params.spec.conditioning_length,
            "prediction_length": params.spec.prediction_length,
        },
        "features": params.stats.to_dict(),
        "category_cardinality": params.category_cardinality,
        "num_layers": len(params.layers),
        "hidden_dim": params.hidden_dim,
        "embedding_dim": params.embedding_dim,
        "params": {name: _encode_array(arr) for name, arr in params.blocks().items()},
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def model_from_bytes(blob: bytes) -> ModelParams:
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"unreadable model file: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise DataError("not a model file")
    if doc.get("version") != _VERSION:
        raise DataError(f"unsupported model version {doc.get('version')!r}")
    try:
        return _model_from_doc(doc)
    except KeyError as e:
        raise DataError(f"model file lacks {e}") from None
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as e:
        raise DataError(f"malformed model file: {e}") from None


def _model_from_doc(doc: dict) -> ModelParams:
    spec = WindowSpec(
        int(doc["window"]["conditioning_length"]), int(doc["window"]["prediction_length"])
    )
    stats = FeatureStats.from_dict(doc["features"])
    arrays = {name: _decode_array(d) for name, d in doc["params"].items()}
    num_layers = int(doc["num_layers"])
    hidden = int(doc["hidden_dim"])
    if num_layers < 1:
        raise ValueError(f"num_layers must be at least 1, got {num_layers}")
    layers = []
    for i in range(num_layers):
        w = arrays[f"lstm{i}.w"]
        layers.append(
            LstmLayerParams(w.shape[0] - hidden, hidden, w, arrays[f"lstm{i}.b"])
        )
        layers[-1].check_shapes()
    heads = HeadParams(
        arrays["head.w_mu"],
        arrays["head.b_mu"].reshape(()),
        arrays["head.w_disp"],
        arrays["head.b_disp"].reshape(()),
    )
    for name in ("w_mu", "w_disp"):
        shape = getattr(heads, name).shape
        if shape != (hidden,):
            raise ValueError(f"head.{name} shape {shape} does not match hidden_dim {hidden}")
    cardinality = int(doc["category_cardinality"])
    embedding = arrays["embedding"]
    if embedding.shape != (cardinality, int(doc["embedding_dim"])):
        raise ValueError(
            f"embedding shape {embedding.shape} does not match category_cardinality "
            f"{cardinality} and embedding_dim {doc['embedding_dim']}"
        )
    granularity = Granularity.from_code(doc["granularity"])
    names = feature_names(granularity)
    if stats.names != names or stats.mean.shape != (len(names),) or stats.std.shape != (len(names),):
        raise ValueError(f"feature statistics do not match the {granularity.value} features {names}")
    if layers[0].input_dim != 1 + len(names) + embedding.shape[1]:
        raise ValueError(
            f"LSTM input width {layers[0].input_dim} does not match the features and embedding"
        )
    for name, arr in [*arrays.items(), ("features.mean", stats.mean)]:
        if not np.isfinite(arr).all():
            raise DataError(f"model file: {name} holds a non-finite value")
    if not (np.isfinite(stats.std) & (stats.std > 0.0)).all():
        raise DataError("model file: features.std holds a value that is not finite and positive")
    params = ModelParams(
        LikelihoodKind(doc["likelihood"]),
        spec,
        stats,
        granularity,
        cardinality,
        embedding,
        layers,
        heads,
    )
    past = _past_slab_range(params)
    if past:
        raise DataError(f"model file: {past} holds a value past the float32 range")
    return params


def load_model(path) -> ModelParams:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
