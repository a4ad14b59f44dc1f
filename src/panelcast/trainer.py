"""Training loop: weighted window draws, Adam with gradient clipping,
per-epoch validation on held-out placements, early stopping on the best
validation NLL, and a small grid search.

An epoch is a fixed number of drawn windows; weighted sampling has no
natural pass over the data. Validation NLL is the total NLL divided by
the number of steps that contribute to the loss. It is defined over the
pool cut into batch_size-window chunks, each summed exactly, but
computed in one forward-only pass of the whole pool on a float32 step
slab (network.forward_nll), with no tape and no NLL gradients, through
the loop and the scorer a training batch uses. The bits are those of
each chunk run alone on such a slab, and within about 1e-9 relative of
the chunks unrolled as float64 training batches, in less time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dataset import MASK_MISSING, Panel, WindowSampler, WindowSpec, fit_feature_stats
from .errors import ConfigError, DivergenceError
from .likelihood import LikelihoodKind
from .lstm import SequenceTape
from .network import ModelParams, forward_nll, init_model, unroll_batch
from .optim import clip_global_norm, init_adam, adam_step
from .rng import RowKeys, derive_seed

__all__ = ["TrainConfig", "TrainLog", "parse_config", "train", "grid_search"]

MAX_GRAD_NORM = 10.0
VALIDATION_CAP = 512
DIVERGENCE_LIMIT = 3


@dataclass
class TrainConfig:
    likelihood: LikelihoodKind = LikelihoodKind.GAUSSIAN
    conditioning_length: int = 24
    prediction_length: int = 12
    num_layers: int = 3
    hidden_units: int = 40
    embedding_dim: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3
    max_batches: int = 2000
    patience: int = 5
    windows_per_epoch: int = 500
    seed: int = 0
    uniform_sampling: bool = False
    no_scaling: bool = False

    def __post_init__(self):
        self.likelihood = LikelihoodKind(self.likelihood)
        for f in fields(self):
            if type(f.default) is int and f.name != "seed" and getattr(self, f.name) < 1:
                raise ConfigError(f"config {f.name} must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError("config learning_rate must be finite and positive")

    @property
    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.conditioning_length, self.prediction_length)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["likelihood"] = self.likelihood.value
        return out


def _read_bool(val: str) -> bool:
    if val.lower() not in ("true", "false"):
        raise ValueError(val)
    return val.lower() == "true"


# How a config value is read, by the type of its TrainConfig field's
# default, and the reason given for a value that does not read.
_READERS = {
    bool: (_read_bool, "{key} must be true or false"),
    int: (int, "{key} must be an integer"),
    float: (float, "{key} must be a number"),
    LikelihoodKind: (LikelihoodKind, "unknown likelihood {val!r}"),
}


def parse_config(text: str) -> TrainConfig:
    """Flat key=value config, a key per TrainConfig field; blank lines and
    # comments allowed; unknown keys rejected."""
    kinds = {f.name: type(f.default) for f in fields(TrainConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in kinds:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        read, reason = _READERS[kinds[key]]
        try:
            values[key] = read(val)
        except ValueError:
            raise ConfigError(f"config line {lineno}: {reason.format(key=key, val=val)}") from None
    return TrainConfig(**values)


@dataclass
class TrainLog:
    """One row per validation pass plus the final stopping reason.

    Besides the losses, a row says how healthy the epoch's updates were:
    the largest gradient norm before clipping, how many batches were
    clipped, how many were skipped as divergent, and the windows per
    second of the epoch's training batches (validation excluded). The
    last three columns, windows_per_s, elapsed_s and val_s (seconds of
    the epoch's validation pass), are wall-clock readings; the others
    repeat exactly for a fixed seed.
    """

    rows: list = field(default_factory=list)
    stopping_reason: str = ""

    COLUMNS = (
        "epoch", "batches", "train_nll", "val_nll", "grad_norm_max", "clipped",
        "skipped_divergent", "windows_per_s", "elapsed_s", "val_s",
    )

    def add(self, epoch: int, batches: int, train_nll: float, val_nll: float,
            grad_norm_max: float, clipped: int, skipped_divergent: int,
            windows_per_s: float, elapsed: float, val_s: float):
        self.rows.append((epoch, batches, train_nll, val_nll, grad_norm_max, clipped,
                          skipped_divergent, windows_per_s, elapsed, val_s))

    @property
    def best_val_nll(self) -> float:
        return min(r[3] for r in self.rows) if self.rows else float("inf")

    def to_tsv(self) -> str:
        lines = ["\t".join(self.COLUMNS)]
        for epoch, batches, train_nll, val_nll, norm, clipped, skipped, wps, elapsed, val_s in (
            self.rows
        ):
            lines.append(
                f"{epoch}\t{batches}\t{train_nll:.6f}\t{val_nll:.6f}\t{norm:.6f}\t{clipped}"
                f"\t{skipped}\t{wps:.1f}\t{elapsed:.3f}\t{val_s:.3f}"
            )
        lines.append(f"# stopped: {self.stopping_reason}")
        return "\n".join(lines) + "\n"


def _pool_nll(pool, params: ModelParams, batch_size: int, impute_seed: int) -> float:
    """Validation NLL of a pool of windows, taken as batch_size-window
    chunks: chunk i (its first window's offset in the pool) imputes row b
    with the key of (derive_seed(impute_seed, i), window series id) on
    path b, and sums its losses exactly; the chunk sums add in order. The
    whole pool runs forward in one float32 pass (network.forward_nll). A
    total past the float range is a DivergenceError."""
    chunks = range(0, len(pool), batch_size)
    keys = None
    if np.any(pool.mask[:, :-1] == MASK_MISSING):
        keys = RowKeys.concat([
            RowKeys.for_series(derive_seed(impute_seed, i), "impute", pool.ids[i : i + batch_size],
                               np.arange(len(pool.ids[i : i + batch_size])))
            for i in chunks
        ])
    nll, counted = forward_nll(pool, params, keys)
    total = 0.0
    try:
        for i in chunks:
            # Exact per chunk, as unroll_batch sums a batch's loss.
            total += math.fsum(nll[i : i + batch_size][counted[i : i + batch_size]].tolist())
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DivergenceError("the validation NLL overflows")
    steps = int(counted.sum())
    if steps == 0:
        raise ConfigError("validation pool has no contributing steps")
    return total / steps


def train(panel: Panel, config: TrainConfig):
    """Returns (ModelParams at the best validation NLL, TrainLog)."""
    if config.likelihood is LikelihoodKind.NEG_BINOMIAL:
        panel.require_integer_targets()
    spec = config.window_spec
    stats = fit_feature_stats(panel, spec)
    sampler = WindowSampler(panel, spec, stats, uniform=config.uniform_sampling)
    model = init_model(
        config.likelihood,
        spec,
        stats,
        panel.granularity,
        panel.category_cardinality,
        config.num_layers,
        config.hidden_units,
        config.embedding_dim,
        config.seed,
    )
    adam = init_adam(model.blocks(), learning_rate=config.learning_rate)
    # Batch k's (B, 2) draw uniforms: step k of one key, a path per window.
    batch = config.batch_size
    draws = RowKeys.for_series(config.seed, "train", ["draw"] * batch, np.arange(batch))

    pool = sampler.validation_windows(cap=VALIDATION_CAP)
    if not pool:
        # Panels where every series has fewer than 10 placements hold
        # nothing out; fall back to a fixed in-sample pool.
        size = min(VALIDATION_CAP, 64)
        fallback = RowKeys.for_series(config.seed, "train", ["valpool"] * size, np.arange(size))
        pool = sampler.draw(fallback.uniforms(0, 0).T)
    if config.no_scaling:
        pool.scale[:] = 1.0

    log = TrainLog()
    best_val = float("inf")
    best_blocks = model.copy_blocks()
    stale = 0
    batches_done = 0
    divergent_streak = 0
    start_time = time.monotonic()
    steps_per_epoch = -(-config.windows_per_epoch // config.batch_size)
    epoch = 0

    while batches_done < config.max_batches:
        epoch += 1
        epoch_nll = 0.0
        epoch_steps = 0
        norms = []  # pre-clip gradient norms of the batches applied
        skipped = 0
        epoch_windows = 0
        epoch_start = time.perf_counter()
        # One recording of the recurrence, refilled by every batch of the
        # epoch. Validation does not use it, and releasing it first keeps
        # the validation slab out of the run's peak RSS.
        tape = SequenceTape(model.layers, spec.total, config.batch_size)
        for _ in range(steps_per_epoch):
            if batches_done >= config.max_batches:
                break
            windows = sampler.draw(draws.uniforms(batches_done, 0).T)
            if config.no_scaling:
                windows.scale[:] = 1.0
            batches_done += 1
            epoch_windows += len(windows)
            try:
                res = unroll_batch(
                    windows, model, derive_seed(config.seed, "train", "impute", batches_done),
                    tape=tape,
                )
                grads = res.grads
                for g in grads.values():
                    g /= len(windows)
                norm = clip_global_norm(grads, MAX_GRAD_NORM)
                if not np.isfinite(norm):
                    raise DivergenceError("non-finite gradients")
            except DivergenceError as e:
                skipped += 1
                divergent_streak += 1
                if divergent_streak >= DIVERGENCE_LIMIT:
                    log.stopping_reason = f"diverged: {e}"
                    raise DivergenceError(
                        f"training diverged after {batches_done} batches: {e}", log=log
                    ) from None
                continue
            divergent_streak = 0
            norms.append(norm)
            adam_step(model.blocks(), grads, adam)
            epoch_nll += res.loss
            epoch_steps += res.counted_steps
        train_s = time.perf_counter() - epoch_start
        del tape
        train_nll = epoch_nll / epoch_steps if epoch_steps else float("nan")
        val_start = time.perf_counter()
        val_nll = _pool_nll(pool, model, config.batch_size, derive_seed(config.seed, "val", epoch))
        val_s = time.perf_counter() - val_start
        log.add(
            epoch, batches_done, train_nll, val_nll, max(norms, default=float("nan")),
            sum(n > MAX_GRAD_NORM for n in norms), skipped,
            epoch_windows / train_s if train_s > 0.0 else float("nan"),
            time.monotonic() - start_time, val_s,
        )
        if val_nll < best_val:
            best_val = val_nll
            best_blocks = model.copy_blocks()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                log.stopping_reason = f"no validation improvement for {config.patience} epochs"
                break
    if adam.step == 0:
        # Nothing was learned: the best blocks are the initial ones.
        log.stopping_reason = f"diverged: all {batches_done} batches skipped"
        raise DivergenceError(
            f"training diverged: all {batches_done} batches were skipped as divergent", log=log
        )
    if not log.stopping_reason:
        log.stopping_reason = f"reached max_batches={config.max_batches}"
    model.load_blocks(best_blocks)
    return model, log


def grid_search(panel: Panel, hidden_candidates, embedding_candidates, config: TrainConfig):
    """Trains every (hidden units, embedding dim) candidate and ranks by
    held-out NLL, ties broken by fewer parameters.

    Returns (best config, results) where results rows are
    (hidden_units, embedding_dim, val_nll).
    """
    if not hidden_candidates or not embedding_candidates:
        raise ConfigError("grid search needs at least one candidate per axis")
    results = []
    ranked = []
    for hidden in hidden_candidates:
        for emb in embedding_candidates:
            candidate = replace(config, hidden_units=hidden, embedding_dim=emb)
            try:
                model, log = train(panel, candidate)
                val = log.best_val_nll
                params = model.parameter_count()
            except DivergenceError:
                val = float("inf")
                params = 0
            results.append((hidden, emb, val))
            ranked.append((val, params, hidden, emb, candidate))
    finite = [r for r in ranked if np.isfinite(r[0])]
    if not finite:
        raise ConfigError("grid search: every candidate diverged")
    finite.sort(key=lambda r: (r[0], r[1]))
    best = finite[0][4]
    return best, results
