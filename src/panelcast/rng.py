"""Deterministic randomness: named PCG64 streams for sequential consumers
and a counter-based keyed generator for sampling.

Every piece of randomness in the engine flows from one non-negative
integer seed. Sequential consumers (weight init, window draws) read a
named substream: a numpy PCG64 Generator whose spawn key is a path of
strings/ints hashed into words, so adding paths never reshuffles
existing ones.

Sampling (forecast paths, imputation of missing values) uses no stream
state at all. Each uniform is a pure function

    u = H(seed, series id, path, step, round)

computed by Philox4x32-10 (Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC'11) on numpy uint64 arrays that hold 32-bit words.
The Philox key is derived from (seed, tag, series id); the counter is
(path, step, round, lane). So a path's draws depend only on its own key
and counters: not on how many paths are drawn, on which other series
share its batch, or on the order rows are processed.

The distribution transforms run on arrays of rows: normals via
Box-Muller, Gamma via the Marsaglia-Tsang squeeze (ACM TOMS 2000) with
the shape<1 boost, Poisson via inversion below lambda=10 and Hormann's
PTRS transformed rejection above, and the negative binomial as the
Gamma-Poisson mixture. Rejection round k of a row reads counter round k.
Since a round's uniforms depend on nothing else, a rejection stage
judges several rounds of every row in one vectorised pass and keeps
each row's first accepted round: the draw a round-by-round sampler
would make. Inversion reads a fixed-depth table of cdf terms, summed as
the sequential walk sums them. The transforms are implemented here
rather than taken from numpy's Generator methods so that draws stay
stable across numpy versions.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ConfigError
from .special import lgamma

__all__ = [
    "substream",
    "derive_seed",
    "philox4x32",
    "RowKeys",
    "normals",
    "gammas",
    "poissons",
    "neg_binomials",
]

_TWO_PI = 2.0 * math.pi


def _path_key(path):
    key = []
    for part in path:
        if isinstance(part, (int, np.integer)):
            key.append(int(part) & 0xFFFFFFFF)
            key.append((int(part) >> 32) & 0xFFFFFFFF)
        else:
            digest = hashlib.sha256(str(part).encode("utf-8")).digest()
            key.append(int.from_bytes(digest[:4], "little"))
            key.append(int.from_bytes(digest[4:8], "little"))
    return tuple(key)


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=_path_key(path))


def _seed_words(seed: int, path) -> np.ndarray:
    return _seed_sequence(seed, path).generate_state(2)


def substream(seed: int, *path) -> np.random.Generator:
    """The PCG64 generator of `seed`'s substream named by `path`."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path) -> int:
    """A new integer seed deterministically derived from (seed, path).

    Lets one seed fan out into independent whole seed spaces (e.g. one
    per rolling-backtest window) without colliding substream names.
    """
    lo, hi = _seed_words(seed, path)
    return int(lo) | (int(hi) << 32)


# -- Philox4x32-10 -------------------------------------------------------------

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_ROUNDS = 10
# Key schedule: round r uses (k0 + r*W0, k1 + r*W1) mod 2^32.
_BUMPS0 = np.arange(_PHILOX_ROUNDS, dtype=np.uint64) * np.uint64(0x9E3779B9)
_BUMPS1 = np.arange(_PHILOX_ROUNDS, dtype=np.uint64) * np.uint64(0xBB67AE85)


def _round_keys(k0, k1):
    """(rounds, ...) arrays of per-round key words."""
    k0 = np.asarray(k0, dtype=np.uint64)
    k1 = np.asarray(k1, dtype=np.uint64)
    shape = (_PHILOX_ROUNDS,) + (1,) * k0.ndim
    return (k0 + _BUMPS0.reshape(shape)) & _MASK32, (k1 + _BUMPS1.reshape(shape)) & _MASK32


def _philox(c0, c1, c2, c3, rk0, rk1):
    for r in range(_PHILOX_ROUNDS):
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0, c1, c2, c3 = (
            (p1 >> _SHIFT32) ^ c1 ^ rk0[r],
            p1 & _MASK32,
            (p0 >> _SHIFT32) ^ c3 ^ rk1[r],
            p0 & _MASK32,
        )
    return c0, c1, c2, c3


def philox4x32(ctr, key):
    """Philox4x32-10 block function.

    `ctr` is four and `key` two uint64 arrays (or scalars) holding 32-bit
    words; they broadcast against each other. Returns the four output
    words as uint64 arrays. Each 32x32-bit product fits a uint64 exactly,
    so its high and low halves are a shift and a mask.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in ctr)
    return _philox(c0, c1, c2, c3, *_round_keys(*key))


_SHIFT21 = np.uint64(21)
_SHIFT11 = np.uint64(11)
_TWO_M53 = 2.0**-53


def _doubles(hi, lo) -> np.ndarray:
    # 53 random bits from two 32-bit words, scaled into [0, 1).
    return ((hi << _SHIFT21) ^ (lo >> _SHIFT11)).astype(np.float64) * _TWO_M53


class RowKeys:
    """Keys and path counters for a batch of rows.

    Row i draws with Philox key (k0[i], k1[i]) and counter
    (path[i], step, round, lane); each counter gives two uniforms.
    """

    __slots__ = ("path", "_rk0", "_rk1")

    def __init__(self, k0, k1, path):
        self.path = np.asarray(path, dtype=np.uint64) & _MASK32
        self._rk0, self._rk1 = _round_keys(k0, k1)

    @classmethod
    def for_series(cls, seed: int, tag: str, series_ids, paths) -> "RowKeys":
        """Row i draws from the key of (seed, tag, series_ids[i]) on path
        paths[i]. The key is hashed once per distinct id."""
        words = {}
        k = np.empty((2, len(series_ids)), dtype=np.uint64)
        for i, sid in enumerate(series_ids):
            if sid not in words:
                words[sid] = _seed_words(seed, (tag, sid))
            k[:, i] = words[sid]
        return cls(k[0], k[1], paths)

    @classmethod
    def concat(cls, parts) -> "RowKeys":
        """The rows of every RowKeys in `parts`, in order."""
        out = cls.__new__(cls)
        out.path = np.concatenate([p.path for p in parts])
        out._rk0 = np.concatenate([p._rk0 for p in parts], axis=1)
        out._rk1 = np.concatenate([p._rk1 for p in parts], axis=1)
        return out

    def __len__(self) -> int:
        return int(self.path.shape[0])

    def take(self, rows) -> "RowKeys":
        out = RowKeys.__new__(RowKeys)
        out.path = self.path[rows]
        out._rk0 = self._rk0[:, rows]
        out._rk1 = self._rk1[:, rows]
        return out

    def uniforms(self, step: int, rnd: int, lanes: int = 1, first_lane: int = 0) -> np.ndarray:
        """(2 * lanes, rows) doubles in [0, 1) from counter round `rnd`,
        lanes first_lane .. first_lane + lanes - 1."""
        return self.rounds(step, rnd, 1, lanes, first_lane)[0]

    def rounds(self, step: int, first_round: int, rounds: int, lanes: int, first_lane: int):
        """(rounds, 2 * lanes, rows) doubles: uniforms() of several rounds
        in one pass."""
        n = len(self)
        # Counter words broadcast to (rounds, lanes, rows) inside the rounds.
        rnd = np.arange(first_round, first_round + rounds, dtype=np.uint64).reshape(-1, 1, 1)
        lane = np.arange(first_lane, first_lane + lanes, dtype=np.uint64).reshape(-1, 1)
        words = _philox(self.path, np.uint64(step), rnd, lane, self._rk0, self._rk1)
        out = np.empty((rounds, 2 * lanes, n))
        out[:, 0::2] = _doubles(words[0], words[1])
        out[:, 1::2] = _doubles(words[2], words[3])
        return out


# -- keyed samplers --------------------------------------------------------------
#
# Lanes: a Gamma round reads lanes 0 and 1 (Box-Muller pair, acceptance
# uniform, and in round 0 the shape<1 boost uniform); a Poisson round
# reads lane 2; a standalone normal reads lane 0. One step draws either a
# normal or a Gamma-Poisson pair, never both, so no counter is read twice.

_GAMMA_LANE = 0
_POISSON_LANE = 2
# Rounds that neg_binomials fetches for every row up front, and retry
# rounds fetched per Philox pass for the rows those leave rejected.
_PREFETCH_ROUNDS = 3
_RETRY_ROUNDS = 4
# Terms of the Poisson inversion table past its first, and the divisors
# k = 1 .. depth of the pmf recurrence p(k) = p(k-1) * (lam / k).
_INVERSION_DEPTH = 20
_INVERSION_STEPS = np.arange(1.0, _INVERSION_DEPTH + 1.0).reshape(-1, 1)


def _first_accepted(keys: RowKeys, step: int, lanes: int, first_lane: int, pre, attempt):
    """Rejection sampling over rows, a pass of rounds at a time.

    attempt(rows, u) -> (accepted, values), each (R, len(rows)), judges R
    consecutive rounds of the given row indices at once from their
    uniforms u (R, 2 * lanes, len(rows)). `pre` (k, 2 * lanes, rows)
    holds rounds 0 .. k-1 of every row; rows rejected in all of them
    judge passes of _RETRY_ROUNDS further rounds until all accept. Each
    row keeps the value of its first accepted round. A round's uniforms
    depend only on (row, step, round), so each row's draw is the one a
    round-by-round sampler makes; the rounds judged past it are unused.
    """
    out = np.empty(len(keys))
    rows = np.arange(len(keys))
    u, rnd = pre, len(pre)
    while True:
        accepted, values = attempt(rows, u)
        first = accepted.argmax(axis=0)
        cols = np.arange(rows.size)
        done = accepted[first, cols]
        out[rows[done]] = values[first, cols][done]
        rows = rows[~done]
        if not rows.size:
            return out
        u = keys.take(rows).rounds(step, rnd, _RETRY_ROUNDS, lanes, first_lane)
        rnd += _RETRY_ROUNDS


def _box_muller(u1, u2):
    # u1 in [0, 1) is flipped to (0, 1] so the log is finite.
    return np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(_TWO_PI * u2)


def normals(keys: RowKeys, step: int) -> np.ndarray:
    """One standard normal per row."""
    u = keys.uniforms(step, 0)
    return _box_muller(u[0], u[1])


def gammas(keys: RowKeys, step: int, shape, scale=1.0) -> np.ndarray:
    """One Gamma(shape, scale) per row; Marsaglia-Tsang rounds on the rows
    not yet accepted, with Gamma(a) = Gamma(a + 1) * U^(1/a) for a < 1."""
    if np.any(np.asarray(scale) <= 0.0):
        raise ValueError("gamma requires scale > 0")
    return _gammas(keys, step, shape, keys.rounds(step, 0, 1, 2, _GAMMA_LANE)) * scale


def _gammas(keys: RowKeys, step: int, shape, pre) -> np.ndarray:
    shape = np.broadcast_to(np.asarray(shape, dtype=np.float64), (len(keys),))
    if not np.all(np.isfinite(shape) & (shape > 0.0)):
        raise ValueError("gamma requires finite shape > 0")
    boosted = shape < 1.0
    d = np.where(boosted, shape + 1.0, shape) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)

    def attempt(rows, u):
        dr = d[rows]
        x = _box_muller(u[:, 0], u[:, 1])
        v = 1.0 + c[rows] * x
        live = v > 0.0
        v = v * v * v
        ua = 1.0 - u[:, 2]
        x2 = x * x
        accepted = live & (ua < 1.0 - 0.0331 * x2 * x2)
        slow = np.nonzero(live & ~accepted)
        if slow[0].size:
            vs = v[slow]
            accepted[slow] = np.log(ua[slow]) < 0.5 * x2[slow] + dr[slow[1]] * (1.0 - vs + np.log(vs))
        return accepted, dr * v

    out = _first_accepted(keys, step, 2, _GAMMA_LANE, pre, attempt)
    if np.any(boosted):
        out[boosted] *= np.exp(np.log(1.0 - pre[0, 3, boosted]) / shape[boosted])
    return out


def poissons(keys: RowKeys, step: int, lam) -> np.ndarray:
    """One Poisson(lam) count per row, as float64."""
    return _poissons(keys, step, lam, keys.rounds(step, 0, 1, 1, _POISSON_LANE))


def _poissons(keys: RowKeys, step: int, lam, pre) -> np.ndarray:
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (len(keys),))
    if not np.all(np.isfinite(lam) & (lam >= 0.0)):
        raise ValueError("poisson requires finite lambda >= 0")
    out = np.zeros(len(keys))
    small = np.nonzero((lam > 0.0) & (lam < 10.0))[0]
    if small.size:
        out[small] = _poisson_inversion(lam[small], pre[0, 0, small])
    large = np.nonzero(lam >= 10.0)[0]
    if large.size:
        out[large] = _poisson_ptrs(keys.take(large), step, lam[large], pre[..., large])
    return out


def _poisson_inversion(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Sequential search of the cdf: the count is the first k at which the
    # uniform is covered, u <= cdf(k), or the pmf term underflows to 0.
    # Terms 0 .. _INVERSION_DEPTH of every row come as one table, built
    # along its first axis with the walk's own products and sums; the
    # rows it does not settle walk on from its last term.
    p = np.empty((_INVERSION_DEPTH + 1, lam.size))
    p[0] = np.exp(-lam)
    np.divide(lam, _INVERSION_STEPS, out=p[1:])
    np.multiply.accumulate(p, axis=0, out=p)
    s = np.add.accumulate(p, axis=0)
    # Both tests fail from some k on and stay failed, so the count of
    # terms that pass them is the first k that does not.
    going = (u > s) & (p > 0.0)
    k = going.sum(axis=0, dtype=np.float64)
    walk = np.nonzero(going[-1])[0]  # k = depth + 1, the next term
    p, s = p[-1], s[-1]
    while walk.size:
        p[walk] *= lam[walk] / k[walk]
        s[walk] += p[walk]
        walk = walk[(u[walk] > s[walk]) & (p[walk] > 0.0)]
        k[walk] += 1.0
    return k


def _poisson_ptrs(keys: RowKeys, step: int, lam: np.ndarray, pre) -> np.ndarray:
    # Hormann's transformed rejection with squeeze (PTRS), lambda >= 10.
    loglam = np.log(lam)
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    log_invalpha = np.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2.0)

    def attempt(rows, w):
        u = w[:, 0] - 0.5
        v = 1.0 - w[:, 1]
        us = 0.5 - np.abs(u)
        ar, br, lr = a[rows], b[rows], lam[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            # us == 0 gives k = -inf, which the k < 0 test rejects.
            k = np.floor((2.0 * ar / us + br) * u + lr + 0.43)
        accepted = (us >= 0.07) & (v <= vr[rows])
        slow = np.nonzero(~accepted & (k >= 0.0) & ~((us < 0.013) & (v > us)))
        if slow[0].size:
            i = rows[slow[1]]
            ks, uss = k[slow], us[slow]
            accepted[slow] = np.log(v[slow]) + log_invalpha[i] - np.log(a[i] / (uss * uss) + b[i]) <= (
                ks * loglam[i] - lam[i] - lgamma(ks + 1.0)
            )
        return accepted, k

    return _first_accepted(keys, step, 1, _POISSON_LANE, pre, attempt)


def neg_binomials(keys: RowKeys, step: int, mu, alpha) -> np.ndarray:
    """Gamma-Poisson mixture with mean mu and variance mu + mu^2 * alpha,
    one count per row, as float64."""
    mu = np.asarray(mu, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(mu <= 0.0) or np.any(alpha <= 0.0):
        raise ValueError("neg_binomial requires mu > 0 and alpha > 0")
    # The first rounds of both stages in one pass: Gamma lanes 0-1,
    # Poisson lane 2. Few rows need a retry pass after them.
    pre = keys.rounds(step, 0, _PREFETCH_ROUNDS, 3, _GAMMA_LANE)
    lam = _gammas(keys, step, 1.0 / alpha, pre[:, :4]) * (alpha * mu)
    return _poissons(keys, step, lam, pre[:, 4:])
