"""The autoregressive model: category embedding + stacked LSTM + output
heads, with teacher-forced training unrolls, batched conditioning-range
encoding, and batched single-step decoding for sampling.

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
    TrainingWindow,
    WindowSpec,
)
from .errors import ConfigError, DataError, DivergenceError
from .likelihood import (
    HeadParams,
    LikelihoodKind,
    LikelihoodParams,
    apply_heads,
    draw,
    heads_backward,
    init_heads,
    nll_and_grads,
)
from .lstm import (
    LstmLayerParams,
    LstmState,
    init_layer,
    lstm_backward,
    lstm_forward,
    lstm_step,
    zero_state,
)
from .rng import RowKeys, substream

__all__ = [
    "ModelParams",
    "UnrollResult",
    "init_model",
    "step_input",
    "unroll_batch",
    "encode",
    "decode_step",
    "save_model",
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
    emb_stream = substream(seed, "init", "embedding")
    bound = 1.0 / np.sqrt(embedding_dim)
    embedding = (
        emb_stream.uniforms(category_cardinality * embedding_dim).reshape(
            category_cardinality, embedding_dim
        )
        * 2.0
        - 1.0
    ) * bound
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


def step_input(window: TrainingWindow, t: int, z_prev: float, params: ModelParams) -> np.ndarray:
    """Input vector for one step: [z_{t-1}/nu, x_t, category embedding]."""
    if not 0 <= t < window.total:
        raise ConfigError(f"step {t} outside window of length {window.total}")
    lagged = 0.0 if t == 0 else z_prev / window.scale
    return np.concatenate(
        [[lagged], window.covariates[t], params.embedding[window.category]]
    )


@dataclass
class UnrollResult:
    """Loss, per-step distribution parameters, and parameter gradients."""

    loss: float
    mus: np.ndarray  # (B, T)
    disps: np.ndarray  # (B, T)
    grads: dict
    counted_steps: int
    likelihood: LikelihoodKind

    def step_likelihood(self, b: int, t: int) -> LikelihoodParams:
        return LikelihoodParams(self.likelihood, float(self.mus[b, t]), float(self.disps[b, t]))


def _rows_input(z_prev, nu, covariates, emb) -> np.ndarray:
    """Per-row step inputs [z_{t-1}/nu, x_t, embedding], shape (B, input_dim)."""
    return np.concatenate([(z_prev / nu)[:, None], covariates, emb], axis=1)


def _divergence(step: int, mu, disp) -> DivergenceError:
    return DivergenceError(
        f"non-finite loss at step {step}",
        log={"step": step, "mu": np.asarray(mu).tolist(), "disp": np.asarray(disp).tolist()},
    )


def unroll_batch(
    windows, params: ModelParams, impute_seed=None, compute_grads: bool = True
) -> UnrollResult:
    """Teacher-forced forward and backward over a batch of windows.

    Returns the summed NLL over all counted steps of all windows, with
    gradients for that sum. impute_seed is required only when some window
    has missing observations: the value fed forward from a missing step t
    of window b is drawn with the key of (impute_seed, window series id)
    on path b at step t. compute_grads=False skips the backward pass
    (validation passes need only the loss) and leaves grads empty.
    """
    if not windows:
        raise ConfigError("unroll_batch requires at least one window")
    kind = params.likelihood
    B = len(windows)
    T = params.spec.total
    for w in windows:
        if w.total != T:
            raise ConfigError("window length does not match the model's window spec")
    nu = np.array([w.scale for w in windows], dtype=np.float64)
    cats = np.array([w.category for w in windows], dtype=np.intp)
    if np.any(cats >= params.category_cardinality):
        raise DataError("category code outside the embedding table")
    emb = params.embedding[cats]
    targets = np.stack([w.target for w in windows])
    masks = np.stack([w.mask for w in windows])
    covs = np.stack([w.covariates for w in windows])
    counted = masks != MASK_MISSING

    state = zero_state(params.layers, B)
    caches = []
    mus = np.empty((B, T))
    disps = np.empty((B, T))
    d_mu_steps = np.zeros((B, T))
    d_disp_steps = np.zeros((B, T))
    # Exact summation keeps the loss reproducible to the last ulp, which
    # the finite-difference harness depends on.
    nll_terms = []
    z_prev = np.zeros(B)
    keys = None

    for t in range(T):
        u = _rows_input(z_prev, nu, covs[:, t, :], emb)
        state, step_caches = lstm_forward(u, state, params.layers)
        mu, disp, hcache = apply_heads(state.h[-1], params.heads, nu, kind)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(disp))):
            raise _divergence(t, mu, disp)
        mus[:, t] = mu
        disps[:, t] = disp
        caches.append((step_caches, hcache))
        sel = counted[:, t]
        if np.any(sel):
            nll, d_mu, d_disp = nll_and_grads(targets[sel, t], mu[sel], disp[sel], kind)
            nll = np.atleast_1d(nll)
            if not np.all(np.isfinite(nll)):
                raise _divergence(t, mu[sel], disp[sel])
            nll_terms.extend(nll.tolist())
            d_mu_steps[sel, t] = d_mu
            d_disp_steps[sel, t] = d_disp
        if t + 1 < T:
            z_prev = np.where(counted[:, t], targets[:, t], 0.0)
            miss = np.nonzero(~counted[:, t])[0]
            if miss.size:
                if impute_seed is None:
                    raise ConfigError("windows with missing values require an imputation seed")
                if keys is None:
                    keys = RowKeys.for_series(
                        impute_seed, "impute", [w.series_id for w in windows], np.arange(B)
                    )
                z_prev[miss] = draw(kind, mu[miss], disp[miss], keys.take(miss), t)

    total_nll = math.fsum(nll_terms)
    if not compute_grads:
        return UnrollResult(total_nll, mus, disps, {}, int(counted.sum()), kind)

    grads = {name: np.zeros_like(arr) for name, arr in params.blocks().items()}
    d_emb = np.zeros_like(emb)
    d_state = zero_state(params.layers, B)
    n_feat = params.feature_dim
    for t in range(T - 1, -1, -1):
        step_caches, hcache = caches[t]
        d_h_top, head_grads = heads_backward(
            d_mu_steps[:, t], d_disp_steps[:, t], hcache, params.heads, kind
        )
        for key, g in head_grads.items():
            grads[f"head.{key}"] += g
        d_state.h[-1] = d_state.h[-1] + d_h_top
        d_u, d_state, layer_grads = lstm_backward(step_caches, d_state, params.layers)
        for i, (d_w, d_b) in enumerate(layer_grads):
            grads[f"lstm{i}.w"] += d_w
            grads[f"lstm{i}.b"] += d_b
        d_emb += d_u[:, 1 + n_feat :]
    np.add.at(grads["embedding"], cats, d_emb)

    return UnrollResult(total_nll, mus, disps, grads, int(counted.sum()), kind)


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
    and categories (B,). Returns (state, z_last) where state is the LSTM
    state after the last conditioning step and z_last (B,) the values to
    feed the first decode step. A missing value at step t is replaced by
    a draw from that step's predictive distribution at counter step t of
    the row's key; padded steps feed zeros. A zero-length conditioning
    range gives the zero state.
    """
    batch, n = target_cond.shape
    kind = params.likelihood
    state = zero_state(params.layers, batch)
    emb = params.embedding[categories]
    z_prev = np.zeros(batch)
    for t in range(n):
        u = _rows_input(z_prev, nu, covariates_cond[:, t, :], emb)
        state = lstm_step(u, state, params.layers)
        z_prev = target_cond[:, t].copy()
        miss = np.nonzero(mask_cond[:, t] == MASK_MISSING)[0]
        if miss.size:
            if keys is None:
                raise ConfigError("missing conditioning values require sampling keys")
            mu, disp, _ = apply_heads(state.h[-1][miss], params.heads, nu[miss], kind)
            if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(disp))):
                raise DivergenceError("non-finite distribution parameters during encoding")
            z_prev[miss] = draw(kind, mu, disp, keys.take(miss), t)
    return state, z_prev


def decode_step(
    params: ModelParams,
    state: LstmState,
    z_prev: np.ndarray,
    covariates: np.ndarray,
    categories: np.ndarray,
    nu: np.ndarray,
    buffers=None,
):
    """One prediction step for a batch of rows (sample paths of one or
    more series); covariates is (B, d), categories and nu (B,). buffers,
    from lstm.step_buffers, are reused work arrays for the LSTM step.

    Returns (new state, mu, disp) with mu and disp shaped like z_prev.
    """
    u = _rows_input(z_prev, nu, covariates, params.embedding[categories])
    state = lstm_step(u, state, params.layers, buffers)
    mu, disp, _ = apply_heads(state.h[-1], params.heads, nu, params.likelihood)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(disp))):
        raise DivergenceError("non-finite distribution parameters during decoding")
    return state, mu, disp


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
    except (TypeError, ValueError, AttributeError) as e:
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
    return ModelParams(
        LikelihoodKind(doc["likelihood"]),
        spec,
        stats,
        Granularity.from_code(doc["granularity"]),
        cardinality,
        embedding,
        layers,
        heads,
    )


def save_model(params: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(params))


def load_model(path) -> ModelParams:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
