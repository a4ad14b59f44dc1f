"""Noise models: log-densities with analytic parameter gradients, the
scale-aware output heads, and keyed sampling.

Two likelihoods are supported. The Gaussian is parameterized by mean and
standard deviation; the negative binomial by its mean mu and a shape
alpha that scales variance relative to the mean, Var[z] = mu + mu^2*alpha.
The density functions work elementwise on arrays and return float64
ndarrays: 0-d inputs give 0-d results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .rng import RowKeys, neg_binomials, normals
from .special import digamma, lgamma, sigmoid, softplus

__all__ = [
    "LikelihoodKind",
    "HeadParams",
    "HeadCache",
    "PARAM_FLOOR",
    "gaussian_nll",
    "negbin_nll",
    "apply_heads",
    "heads_backward",
    "nll_and_grads",
    "nll_only",
    "draw",
]

# Lower bound on softplus outputs before scale multiplication; keeps the
# parameter domain (sigma, alpha, mu > 0) intact when softplus underflows.
PARAM_FLOOR = 1e-6

_LOG_2PI = math.log(2.0 * math.pi)


class LikelihoodKind(str, Enum):
    GAUSSIAN = "gaussian"
    NEG_BINOMIAL = "negbin"


def gaussian_nll(z, mu, sigma, grads=True):
    """Negative log density and its gradients w.r.t. mu and sigma, or with
    grads=False the negative log density alone, from the same expression.

    nll = 0.5*log(2*pi*sigma^2) + (z - mu)^2 / (2*sigma^2)
    """
    z = np.asarray(z, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0.0):
        raise ConfigError("gaussian_nll requires sigma > 0")
    resid = z - mu
    var = sigma * sigma
    nll = 0.5 * _LOG_2PI + np.log(sigma) + resid * resid / (2.0 * var)
    if not grads:
        return np.asarray(nll)
    d_mu = -resid / var
    d_sigma = 1.0 / sigma - resid * resid / (var * sigma)
    return np.asarray(nll), np.asarray(d_mu), np.asarray(d_sigma)


def negbin_nll(z, mu, alpha, grads=True):
    """Negative log mass and gradients for the mean/shape negative binomial,
    or with grads=False the negative log mass alone, from the same
    expression.

    log mass = lgamma(z + 1/a) - lgamma(z + 1) - lgamma(1/a)
               - (1/a) * log(1 + a*mu) + z * (log(a*mu) - log(1 + a*mu))
    """
    z = np.asarray(z, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(z < 0.0) or np.any(z != np.floor(z)):
        raise ConfigError("negbin_nll requires non-negative integer targets")
    # fmin passes NaN over, as the comparisons would.
    if min(np.fmin.reduce(mu, axis=None, initial=np.inf),
           np.fmin.reduce(alpha, axis=None, initial=np.inf)) <= 0.0:
        raise ConfigError("negbin_nll requires mu > 0 and alpha > 0")
    r = 1.0 / alpha
    log1am = np.log1p(alpha * mu)
    ll = lgamma(z + r) - lgamma(z + 1.0) - lgamma(r) - r * log1am + z * (np.log(alpha * mu) - log1am)
    nll = -ll
    if not grads:
        return np.asarray(nll)
    d_mu = (mu - z) / (mu * (1.0 + alpha * mu))
    # d(nll)/d(alpha), derived from the mass above; psi is the digamma.
    d_alpha = (
        r * r * (digamma(z + r) - digamma(r) - log1am)
        + mu * (r + z) / (1.0 + alpha * mu)
        - z * r
    )
    return np.asarray(nll), np.asarray(d_mu), np.asarray(d_alpha)


@dataclass
class HeadParams:
    """One affine map per distribution parameter on top of the network output.

    The location head produces mu's pre-activation; the dispersion head
    produces sigma's (Gaussian) or alpha's (negative binomial).
    """

    w_mu: np.ndarray  # (hidden,)
    b_mu: np.ndarray  # scalar, stored as shape-() array
    w_disp: np.ndarray
    b_disp: np.ndarray


@dataclass
class HeadCache:
    o: np.ndarray  # (2, ..., B): the pre-activations o_mu and o_disp
    h: np.ndarray  # (H, ..., columns), as apply_heads read it
    nu: np.ndarray


def _head_weights(heads: HeadParams) -> np.ndarray:
    """(2, H): w_mu above w_disp."""
    return np.stack((heads.w_mu, heads.w_disp))


def apply_heads(h, heads: HeadParams, nu, kind: LikelihoodKind):
    """Map network outputs to distribution parameters, rescaled by nu.

    Negative binomial: mu = nu * softplus(o_mu), alpha = softplus(o_a)/sqrt(nu).
    Gaussian: mu = nu * o_mu, sigma = nu * softplus(o_s).

    h is feature-major, (H, ..., columns): one column per row of the
    batch, then any padding columns past the B = len(nu) rows; nu (B,)
    broadcasts over the middle axes. Both pre-activations come from one
    (2, H) @ (H, columns) product over every column of h, so on columns
    padded as the LSTM pads them (lstm._padded) a row's parameters do not
    depend on the other rows. The element-wise tail then runs once on the
    (2, ..., B) result. Returns (mu, disp, cache), mu and disp (..., B).
    """
    h = np.asarray(h, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64).reshape(-1)
    prod = np.matmul(_head_weights(heads), h.reshape(h.shape[0], -1))
    bias = np.array((heads.b_mu, heads.b_disp)).reshape((2,) + (1,) * (h.ndim - 1))
    o = prod.reshape((2,) + h.shape[1:])[..., : nu.shape[0]] + bias
    if kind is LikelihoodKind.NEG_BINOMIAL:
        sp = np.maximum(softplus(o), PARAM_FLOOR)
        mu = nu * sp[0]
        disp = sp[1] / np.sqrt(nu)
    else:
        mu = nu * o[0]
        disp = nu * np.maximum(softplus(o[1]), PARAM_FLOOR)
    return mu, disp, HeadCache(o, h, nu)


def heads_backward(d_mu, d_disp, cache: HeadCache, heads: HeadParams, kind: LikelihoodKind):
    """Backprop through apply_heads.

    d_mu and d_disp are (..., B) like apply_heads' outputs. Returns (d_h,
    grads): d_h in the layout of the h apply_heads read, (H, ..., columns),
    zero in the padding columns; grads keyed like the head blocks.
    """
    nu = cache.nu
    o_mu, o_disp = cache.o
    # 1.0 where the floor is not binding.
    live = (softplus(cache.o) > PARAM_FLOOR).astype(np.float64)
    if kind is LikelihoodKind.NEG_BINOMIAL:
        d_o_mu = d_mu * nu * sigmoid(o_mu) * live[0]
        d_o_disp = d_disp * sigmoid(o_disp) * live[1] / np.sqrt(nu)
    else:
        d_o_mu = d_mu * nu
        d_o_disp = d_disp * nu * sigmoid(o_disp) * live[1]
    h = cache.h
    d_o = np.zeros((2,) + h.shape[1:])
    d_o[0, ..., : nu.shape[0]] = d_o_mu
    d_o[1, ..., : nu.shape[0]] = d_o_disp
    d_o = d_o.reshape(2, -1)
    flat_h = h.reshape(h.shape[0], -1)
    d_h = (_head_weights(heads).T @ d_o).reshape(h.shape)
    d_w = d_o @ flat_h.T
    d_b = d_o.sum(axis=1)
    grads = {
        "w_mu": d_w[0],
        "b_mu": np.asarray(d_b[0]),
        "w_disp": d_w[1],
        "b_disp": np.asarray(d_b[1]),
    }
    return d_h, grads


def nll_and_grads(z, mu, disp, kind: LikelihoodKind):
    """(nll, d_mu, d_disp): what training scores a batch with."""
    if kind is LikelihoodKind.NEG_BINOMIAL:
        return negbin_nll(z, mu, disp)
    return gaussian_nll(z, mu, disp)


def nll_only(z, mu, disp, kind: LikelihoodKind):
    """nll_and_grads' nll, bit for bit, without the gradients: what
    validation scores a pool with."""
    if kind is LikelihoodKind.NEG_BINOMIAL:
        return negbin_nll(z, mu, disp, grads=False)
    return gaussian_nll(z, mu, disp, grads=False)


def draw(kind: LikelihoodKind, mu, disp, keys: RowKeys, step: int) -> np.ndarray:
    """One draw per row at counter `step`; Gaussian via Box-Muller,
    negative binomial via the Gamma-Poisson mixture. Count draws come back
    as non-negative floats holding integers."""
    if kind is LikelihoodKind.NEG_BINOMIAL:
        return neg_binomials(keys, step, mu, disp)
    return mu + disp * normals(keys, step)
