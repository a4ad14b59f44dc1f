"""Deterministic randomness: one counter-based keyed generator.

Every piece of randomness in the engine flows from one non-negative
integer seed through one generator: Philox uniforms under keys derived
from (seed, tag, name). Forecast paths and imputed values key each row
by its series id. Training keys its window draws by (seed, "train",
"draw"), one path per window of a batch and batch k at step k, and
weight init keys each block by (seed, "init", block), one row of as
many lanes as the block has weights.

Keys (derive_seed, RowKeys.for_series) come from the same block
function: starting from key (0, 0), the seed and then each part of the
path are folded in, two words at a time, as the counter of one Philox
call whose first two output words become the next key. The counter's
other two words, a depth and a domain, keep seed chunks and path parts
apart. RowKeys.for_series folds the seed and tag once per call
(tag_key), then every distinct name in one vectorised call
(RowKeys.for_ids). No command loads numpy's random module or OpenSSL:
SHA-256, for the words of a string path part and the CLI's manifest
digests, is the interpreter's builtin module.

No draw keeps stream state. Each uniform is a pure function

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

import math

import numpy as np

# The builtin SHA-256, as CPython's random module imports its SHA-512:
# the OpenSSL-backed one would load libcrypto into every process.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from .errors import ConfigError
from .special import lgamma

__all__ = [
    "derive_seed",
    "tag_key",
    "philox4x32",
    "RowKeys",
    "normals",
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
            digest = sha256(str(part).encode("utf-8")).digest()
            key.append(int.from_bytes(digest[:4], "little"))
            key.append(int.from_bytes(digest[4:8], "little"))
    return tuple(key)


def _checked(seed) -> int:
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


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


# -- keys ----------------------------------------------------------------------
#
# A key folds in two words at a time: key <- the first two output words of
# philox4x32((w0, w1, depth, domain), key), from key (0, 0). The seed folds
# first, one 64-bit chunk per step (domain 0, depth = chunk index), then
# each path part's two words (domain 1, depth = part index).

_SEED_DOMAIN = 0
_PATH_DOMAIN = 1


def _fold(key, w0, w1, depth, domain):
    return philox4x32((w0, w1, depth, domain), key)[:2]


def _key(seed, path):
    seed = _checked(seed)
    key = (0, 0)
    for depth in range(max(1, (seed.bit_length() + 63) // 64)):
        chunk = seed >> (64 * depth)
        key = _fold(key, chunk & 0xFFFFFFFF, (chunk >> 32) & 0xFFFFFFFF, depth, _SEED_DOMAIN)
    words = _path_key(path)
    for depth in range(len(words) // 2):
        key = _fold(key, words[2 * depth], words[2 * depth + 1], depth, _PATH_DOMAIN)
    return key


def derive_seed(seed: int, *path) -> int:
    """A new integer seed deterministically derived from (seed, path): the
    Philox key that folding the seed and then each part of the path into
    key (0, 0) leaves, as k0 | k1 << 32.

    Lets one seed fan out into independent whole seed spaces (e.g. one
    per rolling-backtest window) without colliding key names.
    """
    k0, k1 = _key(seed, path)
    return int(k0) | (int(k1) << 32)


def tag_key(seed: int, tag: str):
    """The key (seed, tag) folds to: the prefix RowKeys.for_ids extends
    with each series id."""
    return _key(seed, (tag,))


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
        paths[i]: the words derive_seed(seed, tag, series_ids[i]) is made
        of. The seed and tag are folded once per call, then every distinct
        id in one Philox call, as path part 1."""
        return cls.for_ids(tag_key(seed, tag), series_ids, paths)

    @classmethod
    def for_ids(cls, prefix, series_ids, paths) -> "RowKeys":
        """for_series under prefix = tag_key(seed, tag), which a caller
        that makes keys for many batches folds once."""
        index = {}
        rows = [index.setdefault(sid, len(index)) for sid in series_ids]
        words = np.array([_path_key((sid,)) for sid in index], dtype=np.uint64).reshape(-1, 2)
        k0, k1 = _fold(prefix, words[:, 0], words[:, 1], 1, _PATH_DOMAIN)
        return cls(k0[rows], k1[rows], paths)

    def __len__(self) -> int:
        return int(self.path.shape[0])

    def take(self, rows, paths=None) -> "RowKeys":
        """Rows `rows`, on their own paths or on paths `paths` if given."""
        out = RowKeys.__new__(RowKeys)
        if paths is None:
            out.path = self.path[rows]
        else:
            out.path = np.asarray(paths, dtype=np.uint64) & _MASK32
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


def _gammas(keys: RowKeys, step: int, shape, pre) -> np.ndarray:
    shape = np.broadcast_to(np.asarray(shape, dtype=np.float64), (len(keys),))
    # min is NaN when an entry is; initial= keeps an empty batch valid.
    if not (shape.min(initial=np.inf) > 0.0 and shape.max(initial=0.0) < np.inf):
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


def _poissons(keys: RowKeys, step: int, lam, pre) -> np.ndarray:
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (len(keys),))
    if not (lam.min(initial=np.inf) >= 0.0 and lam.max(initial=0.0) < np.inf):
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
    # fmin passes NaN over, as the comparisons would.
    if min(np.fmin.reduce(mu, axis=None, initial=np.inf),
           np.fmin.reduce(alpha, axis=None, initial=np.inf)) <= 0.0:
        raise ValueError("neg_binomial requires mu > 0 and alpha > 0")
    # The first rounds of both stages in one pass: Gamma lanes 0-1,
    # Poisson lane 2. Few rows need a retry pass after them.
    pre = keys.rounds(step, 0, _PREFETCH_ROUNDS, 3, _GAMMA_LANE)
    lam = _gammas(keys, step, 1.0 / alpha, pre[:, :4]) * (alpha * mu)
    return _poissons(keys, step, lam, pre[:, 4:])
