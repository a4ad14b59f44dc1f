"""Scalar special functions used by the likelihood heads and log-densities.

Everything here accepts either a Python float or a numpy array and returns
the same kind. All math is float64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softplus", "sigmoid", "lgamma", "digamma"]

_LOG_SQRT_2PI = 0.9189385332046727  # log(sqrt(2*pi))

# Lanczos coefficients, g = 7, n = 9 (GSL/Boost values). Accurate to ~1e-13
# relative over x >= 0.5; arguments below 0.5 are lifted by one recurrence.
_LANCZOS_G = 7.0
_LANCZOS_C = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)


def _wrap(x):
    """Return (array, was_scalar) for a float-or-array argument."""
    arr = np.asarray(x, dtype=np.float64)
    return arr, arr.ndim == 0


def softplus(x):
    """log(1 + exp(x)), computed without overflow on either tail."""
    arr, scalar = _wrap(x)
    out = np.maximum(arr, 0.0) + np.log1p(np.exp(-np.abs(arr)))
    return float(out) if scalar else out


def sigmoid(x):
    """Logistic function; stable companion of softplus (its derivative)."""
    arr, scalar = _wrap(x)
    t = np.exp(-np.abs(arr))
    # 1/(1+t) where arr >= 0 and t/(1+t) elsewhere.
    out = np.where(arr >= 0.0, 1.0, t) / (1.0 + t)
    return float(out) if scalar else out


def _lanczos_lgamma(x):
    # Valid for x >= 0.5.
    z = x - 1.0
    acc = np.full_like(z, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (z + 0.5) * np.log(t) - t + np.log(acc)


def lgamma(x):
    """log Gamma(x) for x > 0 via the Lanczos approximation."""
    arr, scalar = _wrap(x)
    if np.any(arr <= 0.0):
        raise ValueError("lgamma requires x > 0")
    small = arr < 0.5
    lifted = np.where(small, arr + 1.0, arr)
    out = _lanczos_lgamma(lifted) - np.where(small, np.log(arr), 0.0)
    return float(out) if scalar else out


def digamma(x):
    """d/dx log Gamma(x) for x > 0.

    Upward recurrence psi(x) = psi(x+1) - 1/x until x >= 6, then the
    asymptotic (de Moivre) series with terms through x**-14.
    """
    arr, scalar = _wrap(x)
    if np.any(arr <= 0.0):
        raise ValueError("digamma requires x > 0")
    z = arr.copy() if arr.ndim else np.array(arr, dtype=np.float64)
    acc = np.zeros_like(z)
    # At most six lifts are needed to reach z >= 6 from any positive start.
    for _ in range(6):
        low = z < 6.0
        if not np.any(low):
            break
        acc = acc - np.where(low, 1.0 / z, 0.0)
        z = z + np.where(low, 1.0, 0.0)
    r2 = 1.0 / (z * z)
    series = r2 * (
        1.0 / 12.0
        - r2 * (1.0 / 120.0 - r2 * (1.0 / 252.0 - r2 * (1.0 / 240.0 - r2 * (1.0 / 132.0 - r2 * 691.0 / 32760.0))))
    )
    out = acc + np.log(z) - 0.5 / z - series
    return float(out) if scalar else out
