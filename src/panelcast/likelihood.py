"""Noise models: log-densities with analytic parameter gradients, the
scale-aware output heads, and keyed sampling.

Two likelihoods are supported. The Gaussian is parameterized by mean and
standard deviation; the negative binomial by its mean mu and a shape
alpha that scales variance relative to the mean, Var[z] = mu + mu^2*alpha.
Accepts scalars or arrays (elementwise) for the density functions.
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
    "draw",
]

# Lower bound on softplus outputs before scale multiplication; keeps the
# parameter domain (sigma, alpha, mu > 0) intact when softplus underflows.
PARAM_FLOOR = 1e-6

_LOG_2PI = math.log(2.0 * math.pi)


class LikelihoodKind(str, Enum):
    GAUSSIAN = "gaussian"
    NEG_BINOMIAL = "negbin"


def gaussian_nll(z, mu, sigma):
    """Negative log density and its gradients w.r.t. mu and sigma.

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
    d_mu = -resid / var
    d_sigma = 1.0 / sigma - resid * resid / (var * sigma)
    if nll.ndim == 0:
        return float(nll), float(d_mu), float(d_sigma)
    return nll, d_mu, d_sigma


def negbin_nll(z, mu, alpha):
    """Negative log mass and gradients for the mean/shape negative binomial.

    log mass = lgamma(z + 1/a) - lgamma(z + 1) - lgamma(1/a)
               - (1/a) * log(1 + a*mu) + z * (log(a*mu) - log(1 + a*mu))
    """
    z = np.asarray(z, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(z < 0.0) or np.any(z != np.floor(z)):
        raise ConfigError("negbin_nll requires non-negative integer targets")
    if np.any(mu <= 0.0) or np.any(alpha <= 0.0):
        raise ConfigError("negbin_nll requires mu > 0 and alpha > 0")
    r = 1.0 / alpha
    log1am = np.log1p(alpha * mu)
    ll = lgamma(z + r) - lgamma(z + 1.0) - lgamma(r) - r * log1am + z * (np.log(alpha * mu) - log1am)
    d_mu = (mu - z) / (mu * (1.0 + alpha * mu))
    # d(nll)/d(alpha), derived from the mass above; psi is the digamma.
    d_alpha = (
        r * r * (digamma(z + r) - digamma(r) - log1am)
        + mu * (r + z) / (1.0 + alpha * mu)
        - z * r
    )
    nll = -ll
    if nll.ndim == 0:
        return float(nll), float(d_mu), float(d_alpha)
    return nll, d_mu, d_alpha


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
    o_mu: np.ndarray
    o_disp: np.ndarray
    mu_live: np.ndarray  # 1.0 where the floor is not binding
    disp_live: np.ndarray
    h: np.ndarray
    nu: np.ndarray


def apply_heads(h, heads: HeadParams, nu, kind: LikelihoodKind):
    """Map network outputs to distribution parameters, rescaled by nu.

    Negative binomial: mu = nu * softplus(o_mu), alpha = softplus(o_a)/sqrt(nu).
    Gaussian: mu = nu * o_mu, sigma = nu * softplus(o_s).
    Returns (mu, disp, cache); h is (B, hidden), nu broadcasts over B.
    The pre-activations are row-wise reductions, not matrix-vector
    products, so a row's parameters do not depend on the other rows.
    """
    h = np.atleast_2d(h)
    nu = np.broadcast_to(np.asarray(nu, dtype=np.float64), (h.shape[0],))
    prod = np.multiply(h, heads.w_mu)
    o_mu = prod.sum(axis=1)
    o_mu += heads.b_mu
    np.multiply(h, heads.w_disp, out=prod)
    o_disp = prod.sum(axis=1)
    o_disp += heads.b_disp
    sp_disp = softplus(o_disp)
    disp_live = (sp_disp > PARAM_FLOOR).astype(np.float64)
    sp_disp = np.maximum(sp_disp, PARAM_FLOOR)
    if kind is LikelihoodKind.NEG_BINOMIAL:
        sp_mu = softplus(o_mu)
        mu_live = (sp_mu > PARAM_FLOOR).astype(np.float64)
        mu = nu * np.maximum(sp_mu, PARAM_FLOOR)
        disp = sp_disp / np.sqrt(nu)
    else:
        mu_live = np.ones_like(o_mu)
        mu = nu * o_mu
        disp = nu * sp_disp
    return mu, disp, HeadCache(o_mu, o_disp, mu_live, disp_live, h, nu)


def heads_backward(d_mu, d_disp, cache: HeadCache, heads: HeadParams, kind: LikelihoodKind):
    """Backprop through apply_heads.

    Returns (d_h, grads) with grads keyed like the head blocks.
    """
    nu = cache.nu
    if kind is LikelihoodKind.NEG_BINOMIAL:
        d_o_mu = d_mu * nu * sigmoid(cache.o_mu) * cache.mu_live
        d_o_disp = d_disp * sigmoid(cache.o_disp) * cache.disp_live / np.sqrt(nu)
    else:
        d_o_mu = d_mu * nu
        d_o_disp = d_disp * nu * sigmoid(cache.o_disp) * cache.disp_live
    d_o = np.stack([d_o_mu, d_o_disp], axis=1)  # (B, 2)
    d_h = d_o @ np.stack([heads.w_mu, heads.w_disp])
    d_w = cache.h.T @ d_o
    d_b = d_o.sum(axis=0)
    grads = {
        "w_mu": d_w[:, 0].copy(),
        "b_mu": np.asarray(d_b[0]),
        "w_disp": d_w[:, 1].copy(),
        "b_disp": np.asarray(d_b[1]),
    }
    return d_h, grads


def nll_and_grads(z, mu, disp, kind: LikelihoodKind):
    if kind is LikelihoodKind.NEG_BINOMIAL:
        return negbin_nll(z, mu, disp)
    return gaussian_nll(z, mu, disp)


def draw(kind: LikelihoodKind, mu, disp, keys: RowKeys, step: int) -> np.ndarray:
    """One draw per row at counter `step`; Gaussian via Box-Muller,
    negative binomial via the Gamma-Poisson mixture. Count draws come back
    as non-negative floats holding integers."""
    if kind is LikelihoodKind.NEG_BINOMIAL:
        return neg_binomials(keys, step, mu, disp)
    return mu + disp * normals(keys, step)
