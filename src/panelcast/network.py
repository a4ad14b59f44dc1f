"""The autoregressive model: category embedding + stacked LSTM + output
heads, with teacher-forced training unrolls, a forward-only validation
pass, batched conditioning-range encoding, and batched single-step
decoding for sampling.

Training records its unroll on a lstm.SequenceTape for the backward
pass. Everything that runs forward only steps a lstm.StepSlab, through
one recurrence (_run_slab): `encode` leaves the slab holding the state
after the conditioning range, `forward_nll` scores every step of a
batch of windows on the way, and `decode_step` advances an encoded slab
(or one loaded from its rows) a step at a time in place.

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
    init_heads,
    nll_and_grads,
)
from .lstm import (
    LstmLayerParams,
    SequenceTape,
    StepSlab,
    init_layer,
)
from .rng import RowKeys, substream

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
    if num_layers < 1 or hidden_dim < 1 or embedding_dim < 1 or category_cardinality < 1:
        raise ConfigError("model dimensions must be positive")
    u = substream(seed, "init", "embedding").random((category_cardinality, embedding_dim))
    embedding = (u * 2.0 - 1.0) * (1.0 / np.sqrt(embedding_dim))
    input_dim = 1 + len(stats.names) + embedding_dim
    layers = []
    for i in range(num_layers):
        in_dim = input_dim if i == 0 else hidden_dim
        layers.append(init_layer(in_dim, hidden_dim, substream(seed, "init", f"lstm{i}")))
    heads = init_heads(hidden_dim, substream(seed, "init", "heads"))
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
    they are."""
    np.divide(z_prev, nu, out=x[..., 0])
    d = covariates.shape[-1]
    x[..., 1 : 1 + d] = covariates
    if emb is not None:
        x[..., 1 + d :] = emb


def _impute(params: ModelParams, h, nu, keys: RowKeys, step: int):
    """Values to feed forward from missing steps: one draw per row of h
    (B, H) from its predictive distribution, at counter `step` of keys.
    None when the heads are not finite."""
    mu, disp, _ = apply_heads(h, params.heads, nu, params.likelihood)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(disp))):
        return None
    return draw(params.likelihood, mu, disp, keys, step)


def _divergence(step: int, mu, disp) -> DivergenceError:
    return DivergenceError(
        f"non-finite loss at step {step}",
        log={"step": step, "mu": np.asarray(mu).tolist(), "disp": np.asarray(disp).tolist()},
    )


def _batch_arrays(windows, params: ModelParams):
    """(nu, categories, targets, counted) of a batch of windows checked
    against the model: scales and categories (B,), targets and the mask
    of steps that count toward the loss (B, T)."""
    if not windows:
        raise ConfigError("a batch needs at least one window")
    if any(w.total != params.spec.total for w in windows):
        raise ConfigError("window length does not match the model's window spec")
    nu = np.array([w.scale for w in windows], dtype=np.float64)
    cats = np.array([w.category for w in windows], dtype=np.intp)
    if np.any(cats >= params.category_cardinality):
        raise DataError("category code outside the embedding table")
    targets = np.stack([w.target for w in windows])
    counted = np.stack([w.mask for w in windows]) != MASK_MISSING
    return nu, cats, targets, counted


def unroll_batch(windows, params: ModelParams, impute_seed=None, *, tape=None) -> UnrollResult:
    """Teacher-forced forward and backward over a batch of windows.

    Returns the summed NLL over all counted steps of all windows, with
    gradients for that sum. impute_seed is required only when some window
    has missing observations: the value fed forward from a missing step t
    of window b is drawn with the key of (impute_seed, window series id)
    on path b at step t.

    The batch runs as one (T, B) block: the recurrence fills a
    SequenceTape, evaluating the heads inside the loop only for rows whose
    next input must be imputed; the heads, the NLL and their gradients
    then run once over all T*B rows. `tape`, a SequenceTape of
    params.layers for T steps and at least B rows, is reused if given (a
    training loop saves re-allocating, and page-faulting, the slabs every
    batch); otherwise a new one is made.
    """
    kind = params.likelihood
    nu, cats, targets, counted = _batch_arrays(windows, params)
    B, T = targets.shape
    impute = ~counted[:, :-1]  # rows whose next input is a draw
    if impute_seed is None and impute.any():
        raise ConfigError("windows with missing values require an imputation seed")

    if tape is None or tape.layers is not params.layers or tape.steps != T or tape.capacity < B:
        tape = SequenceTape(params.layers, T, B)
    else:
        tape.reset(B)
    x = tape.inputs
    z_prev = np.zeros((T, B))
    z_prev[1:] = np.where(counted[:, :-1], targets[:, :-1], 0.0).T
    _write_inputs(
        x, z_prev, nu, np.stack([w.covariates for w in windows], axis=1), params.embedding[cats]
    )
    keys = None
    steps = T
    for t in range(T):
        tape.forward_step(t)
        if t + 1 < T and impute[:, t].any():
            miss = np.nonzero(impute[:, t])[0]
            if keys is None:
                keys = RowKeys.for_series(
                    impute_seed, "impute", [w.series_id for w in windows], np.arange(B)
                )
            z = _impute(params, tape.hidden(t)[miss], nu[miss], keys.take(miss), t)
            if z is None:
                steps = t + 1  # the block check below reports the first bad step
                break
            # The drawn value replaces the lagged slot of _write_inputs.
            x[t + 1, miss, 0] = z / nu[miss]

    # Rows of the block are in (step, window) order.
    mu, disp, hcache = apply_heads(tape.top_hidden(steps), params.heads, np.tile(nu, steps), kind)
    finite = np.isfinite(mu) & np.isfinite(disp)
    limit = mu.size if finite.all() else int(np.argmin(finite)) // B * B
    sel = np.flatnonzero(counted.T[:steps].ravel()[:limit])
    total_nll = 0.0
    d_mu = np.zeros_like(mu)
    d_disp = np.zeros_like(disp)
    if sel.size:
        nll, d_mu[sel], d_disp[sel] = nll_and_grads(targets.T.ravel()[sel], mu[sel], disp[sel], kind)
        bad = ~np.isfinite(nll)
        if bad.any():
            t = int(sel[np.argmax(bad)]) // B
            rows = sel[sel // B == t]
            raise _divergence(t, mu[rows], disp[rows])
        # Exact summation keeps the loss reproducible to the last ulp,
        # which the finite-difference harness depends on.
        total_nll = math.fsum(nll.tolist())
    if limit < mu.size:
        raise _divergence(limit // B, mu[limit : limit + B], disp[limit : limit + B])
    d_h, head_grads = heads_backward(d_mu, d_disp, hcache, params.heads, kind)
    d_x, layer_grads = tape.backward(d_h.reshape(T, B, -1))
    d_emb = d_x[:, :, 1 + params.feature_dim :].sum(axis=0)
    grads = {"embedding": np.zeros_like(params.embedding)}  # keyed in blocks() order
    np.add.at(grads["embedding"], cats, d_emb)
    for i, (d_w, d_b) in enumerate(layer_grads):
        grads[f"lstm{i}.w"] = d_w
        grads[f"lstm{i}.b"] = d_b
    grads.update((f"head.{key}", g) for key, g in head_grads.items())

    return UnrollResult(total_nll, mu.reshape(T, B).T, disp.reshape(T, B).T, grads,
                        int(counted.sum()))


def _run_slab(params: ModelParams, slab: StepSlab, target, missing, covariates, nu, keys,
              observe=None):
    """The forward-only recurrence: step the slab's rows, from the state
    it holds and with their embedding columns written, over the
    covariates.shape[1] steps of target and missing (B, n), covariates
    (B, n, d) and nu (B,). Step t feeds z_{t-1}/nu: the target, or for a
    missing one a draw from that step's predictive distribution at
    counter step t of the row's key. observe(t), if given, runs after
    step t and before its draws. Returns the values to feed next (B,).
    """
    z_prev = np.zeros(slab.batch)
    for t in range(covariates.shape[1]):
        _write_inputs(slab.inputs, z_prev, nu, covariates[:, t, :])
        slab.step()
        if observe is not None:
            observe(t)
        z_prev = target[:, t].copy()
        miss = np.nonzero(missing[:, t])[0]
        if miss.size:
            if keys is None:
                raise ConfigError("missing values require sampling keys")
            z = _impute(params, slab.hidden[miss], nu[miss], keys.take(miss), t)
            if z is None:
                raise DivergenceError("non-finite distribution parameters during encoding")
            z_prev[miss] = z
    return z_prev


def encode(
    target_cond: np.ndarray,
    mask_cond: np.ndarray,
    covariates_cond: np.ndarray,
    nu: np.ndarray,
    categories: np.ndarray,
    params: ModelParams,
    keys: RowKeys = None,
):
    """Run the training recurrence over the conditioning ranges of a batch
    of series, one row each.

    target_cond and mask_cond are (B, c), covariates_cond (B, c, d), nu
    and categories (B,). Returns (slab, z_last): a StepSlab holding the
    LSTM state after the last conditioning step, with each row's
    embedding written, ready for decode_step; and z_last (B,), the values
    to feed the first decode step. A missing value at step t is replaced
    by a draw from that step's predictive distribution at counter step t
    of the row's key; padded steps feed zeros. A zero-length conditioning
    range gives the zero state.
    """
    slab = StepSlab(params.layers, target_cond.shape[0])
    # The embedding columns of _write_inputs, written once for every step.
    slab.inputs[:, 1 + params.feature_dim :] = params.embedding[categories]
    z_last = _run_slab(params, slab, target_cond, mask_cond == MASK_MISSING, covariates_cond,
                       nu, keys)
    return slab, z_last


# Steps whose heads and NLL forward_nll evaluates in one pass.
_NLL_STEPS = 8


def forward_nll(windows, params: ModelParams, keys: RowKeys = None):
    """The teacher-forced NLL of every step of a batch of windows, forward
    only: unroll_batch's loss terms without a tape, bit for bit wherever
    the slab and the tape round alike (see lstm).

    The whole batch steps one StepSlab through the recurrence encode
    uses; the heads and the NLL run once per _NLL_STEPS steps over the
    top hidden states of all rows. Row b imputes its missing steps with
    keys row b (needed only when some window has missing values). Returns
    (nll, counted), each (B, T): counted marks the steps that contribute,
    and nll is 0 elsewhere. Raises DivergenceError at the first step where
    some row's distribution parameters or counted loss are not finite.
    """
    kind = params.likelihood
    nu, cats, targets, counted = _batch_arrays(windows, params)
    B, T = targets.shape
    # A missing last step feeds nothing forward, so it needs no draw.
    missing = ~counted
    missing[:, -1] = False
    draws = missing.any(axis=0)
    # Rows of a run are in (step, window) order.
    z = targets.T.ravel()
    live = counted.T.ravel()
    nll = np.zeros(T * B)
    top = np.empty((min(_NLL_STEPS, T), B, params.hidden_dim))
    slab = StepSlab(params.layers, B)
    slab.inputs[:, 1 + params.feature_dim :] = params.embedding[cats]
    first = 0  # the first step of the run being collected

    def observe(t):
        nonlocal first
        top[t - first] = slab.h(len(params.layers) - 1)
        # A run also ends at a step with draws: the draws read that step's
        # heads, which the run's check must have found finite.
        if t + 1 - first < len(top) and t + 1 < T and not draws[t]:
            return
        lo, hi = first * B, (t + 1) * B
        mu, disp, _ = apply_heads(top[: t + 1 - first].reshape(hi - lo, -1), params.heads,
                                  np.tile(nu, t + 1 - first), kind)
        bad = ~(np.isfinite(mu) & np.isfinite(disp))
        sel = np.flatnonzero(live[lo:hi] & ~bad)
        if sel.size:
            vals = nll_and_grads(z[lo:hi][sel], mu[sel], disp[sel], kind)[0]
            nll[lo + sel] = vals
            bad[sel] = ~np.isfinite(vals)
        if bad.any():
            row = int(np.argmax(bad)) // B * B
            rows = bad[row : row + B]
            raise _divergence(first + row // B, mu[row : row + B][rows],
                              disp[row : row + B][rows])
        first = t + 1

    _run_slab(params, slab, targets, missing, np.stack([w.covariates for w in windows]), nu,
              keys, observe)
    return nll.reshape(T, B).T, counted


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
    mu, disp, _ = apply_heads(slab.hidden, params.heads, nu, params.likelihood)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(disp))):
        raise DivergenceError("non-finite distribution parameters during decoding")
    return mu, disp


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
    return ModelParams(
        LikelihoodKind(doc["likelihood"]),
        spec,
        stats,
        granularity,
        cardinality,
        embedding,
        layers,
        heads,
    )


def load_model(path) -> ModelParams:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
