"""The argument and finiteness checks of the samplers, the count NLL, the
decoder's heads and Adam give the verdict of their plain-numpy
definitions (np.all / np.any over fresh boolean arrays), and raise the
same exception type, on NaN, +-inf, zeros, negatives and empty input."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from panelcast import network
from panelcast.errors import ConfigError, DivergenceError
from panelcast.likelihood import negbin_nll
from panelcast.optim import adam_step, init_adam
from panelcast.rng import _GAMMA_LANE, _POISSON_LANE, RowKeys, _gammas, _poissons, neg_binomials

VALUES = (2.0, 0.5, 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf)
# Every pair of values behind a valid entry, and empty input.
ARRAYS = [np.array([1.0, a, b]) for a in VALUES for b in VALUES] + [np.zeros(0)]


def keys(n):
    return RowKeys.for_series(3, "checks", ["s"] * n, np.arange(n))


def finite(a):
    return np.all(np.isfinite(a))


def positive(a):
    return not np.any(a <= 0.0)


def outcome(call):
    """The type and message of the exception `call` raises, or None."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            call()
        except Exception as e:  # noqa: BLE001 - the type is the verdict
            return type(e), str(e)
    return None


@pytest.mark.parametrize("a", ARRAYS, ids=repr)
def test_sampler_checks(a):
    k = keys(a.size)
    ok = finite(a) and np.all(a > 0.0)
    got = outcome(lambda: _gammas(k, 0, a, k.rounds(0, 0, 1, 2, _GAMMA_LANE)))
    assert got == (None if ok else (ValueError, "gamma requires finite shape > 0"))
    ok = finite(a) and np.all(a >= 0.0)
    got = outcome(lambda: _poissons(k, 0, a, k.rounds(0, 0, 1, 1, _POISSON_LANE)))
    assert got == (None if ok else (ValueError, "poisson requires finite lambda >= 0"))
    for mu, alpha in ((a, np.ones(a.size)), (np.ones(a.size), a)):
        got = outcome(lambda: neg_binomials(k, 0, mu, alpha))
        if positive(a):  # NaN and inf pass this check, and fail the samplers'
            assert got is None or got[1] != "neg_binomial requires mu > 0 and alpha > 0"
        else:
            assert got == (ValueError, "neg_binomial requires mu > 0 and alpha > 0")


@pytest.mark.parametrize("a", ARRAYS, ids=repr)
def test_count_nll_check(a):
    z = np.arange(a.size, dtype=np.float64)
    for mu, alpha in ((a, np.ones(a.size)), (np.ones(a.size), a)):
        got = outcome(lambda: negbin_nll(z, mu, alpha))
        if positive(a):
            assert got is None or got[0] is not ConfigError
        else:
            assert got == (ConfigError, "negbin_nll requires mu > 0 and alpha > 0")


@pytest.mark.parametrize("a", [a for a in ARRAYS if a.size], ids=repr)
def test_decoder_head_checks(a, monkeypatch):
    params = SimpleNamespace(heads=None, likelihood=None)
    slab = SimpleNamespace(top=None)
    for mu, disp in ((a, np.ones(a.size)), (np.ones(a.size), a)):
        monkeypatch.setattr(network, "apply_heads", lambda *args, mu=mu, disp=disp: (mu, disp, None))
        monkeypatch.setattr(network, "draw", lambda *args: "drawn")
        ok = finite(mu) and finite(disp)
        got = outcome(lambda: network._heads(params, slab, None))
        assert got is None if ok else got[0] is DivergenceError
        rows = np.arange(a.size)
        assert network._impute(params, None, None, keys(a.size), 0, rows) == ("drawn" if ok else None)


@pytest.mark.parametrize("a", ARRAYS, ids=repr)
def test_adam_gradient_check(a):
    blocks = {"p": np.zeros(a.size)}
    state = init_adam(blocks, learning_rate=1e-3)
    got = outcome(lambda: adam_step(blocks, {"p": a.copy()}, state))
    assert (got is None) == bool(finite(a))
    if got is not None:
        assert got[0] is ConfigError and got[1].startswith("non-finite gradient in block 'p'")
        assert state.step == 0 and not blocks["p"].any()
