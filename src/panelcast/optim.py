"""Adam optimizer over named parameter blocks, plus global-norm clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = ["AdamState", "init_adam", "adam_step", "clip_global_norm"]


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(blocks: dict, learning_rate: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    state = AdamState(learning_rate, beta1, beta2, eps)
    state.m = {name: np.zeros_like(arr) for name, arr in blocks.items()}
    state.v = {name: np.zeros_like(arr) for name, arr in blocks.items()}
    return state


def adam_step(blocks: dict, grads: dict, state: AdamState) -> None:
    """Standard Adam update with bias correction, applied in place.

    The step counter is incremented before correction, so the first call
    uses t = 1. Raises on non-finite gradients without touching anything.
    """
    for name, grad in grads.items():
        if not np.isfinite(grad).all():
            bad = int(np.size(grad) - np.sum(np.isfinite(grad)))
            raise ConfigError(f"non-finite gradient in block '{name}' ({bad} entries); step aborted")
        if grad.shape != blocks[name].shape:
            raise ConfigError(f"gradient shape {grad.shape} != parameter shape {blocks[name].shape} for '{name}'")
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, grad in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad * grad
        blocks[name] -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all blocks by min(1, max_norm/||g||) in place; returns the
    norm, inf when its square overflows (the caller treats a norm that
    is not finite as divergence)."""
    total = 0.0
    with np.errstate(over="ignore"):
        for arr in grads.values():
            total += float(np.sum(arr * arr))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for arr in grads.values():
            arr *= scale
    return norm
