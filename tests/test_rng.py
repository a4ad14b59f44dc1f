"""Deterministic stream derivation, the Philox keyed generator, and
distributional sanity of the keyed samplers."""

import numpy as np
import pytest

from panelcast.errors import ConfigError
from panelcast.likelihood import LikelihoodKind, draw
from panelcast.rng import (
    _GAMMA_LANE,
    _INVERSION_DEPTH,
    _POISSON_LANE,
    RowKeys,
    _gammas,
    _path_key,
    _poisson_inversion,
    _poissons,
    derive_seed,
    neg_binomials,
    normals,
    philox4x32,
)

from conftest import pcg64, permutation


def keys(seed, tag, n, first_path=0):
    """n rows of one key, on paths first_path .. first_path + n - 1."""
    return RowKeys.for_series(seed, tag, [tag] * n, np.arange(first_path, first_path + n))


def gammas(keys, step, shape, scale=1.0):
    """One Gamma(shape, scale) per row from the Gamma stage of
    neg_binomials: Marsaglia-Tsang rounds on lanes 0-1."""
    if np.any(np.asarray(scale) <= 0.0):
        raise ValueError("gamma requires scale > 0")
    return _gammas(keys, step, shape, keys.rounds(step, 0, 1, 2, _GAMMA_LANE)) * scale


def poissons(keys, step, lam):
    """One Poisson(lam) count per row from the Poisson stage of
    neg_binomials, on lane 2."""
    return _poissons(keys, step, lam, keys.rounds(step, 0, 1, 1, _POISSON_LANE))


def chunked(sampler, seed, tag, n, chunk=100_000):
    """n draws of `sampler(keys)` over consecutive paths, in chunks."""
    return np.concatenate(
        [sampler(keys(seed, tag, min(chunk, n - p0), p0)) for p0 in range(0, n, chunk)]
    )


class TestSubstreams:
    def test_derive_seed_stable_and_distinct(self):
        s1 = derive_seed(11, "rolling", 0)
        s2 = derive_seed(11, "rolling", 0)
        s3 = derive_seed(11, "rolling", 1)
        assert s1 == s2
        assert s1 != s3
        assert 0 <= s1 < 2**64

    @pytest.mark.parametrize(
        "derive",
        [
            lambda seed: derive_seed(seed, "rolling", 0),
            lambda seed: RowKeys.for_series(seed, "impute", ["s"], [0]),
        ],
        ids=["derive_seed", "row_keys"],
    )
    def test_negative_seed_rejected(self, derive):
        with pytest.raises(ConfigError, match="non-negative integer, got -1"):
            derive(-1)


KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 5]
KEY_PATHS = [
    (),
    ("impute",),
    ("path", "s1"),
    ("train", "impute", 0),
    ("rolling", 2**32 + 7, "série-β", 2**40),
    ("a", 0, "日本", 2**63 - 1, "z"),
]
# derive_seed(seed, *path), one row per path of KEY_PATHS and one column
# per seed of KEY_SEEDS. (0, ()) is a single fold of counter (0, 0, 0, 0)
# under key (0, 0): the first two words of the Random123 zero vector.
KNOWN_SEEDS = [
    [0xE169C58D6627E8D5, 0x5CB200DBF8E4CCA4, 0x4434EC4EC5B20A9D,
     0xEA2362496AD0C5EC, 0xDABB4A2762065AB2, 0x13E222DDD9291E67],
    [0xB493BCD8D7B13A28, 0x76C28ABAD7B615B6, 0xDF87B2BAF67AF47C,
     0x777F556C044BB440, 0x61B72A6300A4DCFB, 0x3966E9D0347AC50E],
    [0x0A82706C21656C0B, 0xB9380D07497D1BDF, 0xE4FBAB5EED890677,
     0xBEF503F040B1A392, 0x76BDF10CE1322D09, 0xD442AC4F8ACD4172],
    [0xB3F731A4DD5619B9, 0x466C67641FDE169D, 0x612A081D4B10374F,
     0x8D18E94D8B88FE34, 0x78BA04140AA29C18, 0xEB5602448C5CEFBF],
    [0x3D91429A94E81E39, 0x4E3A85EE94CFE346, 0x4110E981907DB347,
     0xEB93EA684FA83A56, 0xB12B397815F6FEE9, 0xA81BFB65DB0268A5],
    [0x85287E834A7712B5, 0xB0CFCE8B62EC860B, 0xEB6ED53F8B4790D5,
     0x46A68959181FE46A, 0x9DEB44E0CE8D2BCA, 0x3396CADB5ADD92C0],
]


def words(seed, *path):
    """The two key words derive_seed(seed, *path) is made of."""
    s = derive_seed(seed, *path)
    return [s & 0xFFFFFFFF, s >> 32]


class TestKeyFold:
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    @pytest.mark.parametrize("path", KEY_PATHS, ids=lambda p: f"{len(p)}-parts")
    def test_derive_seed_known_answer(self, seed, path):
        expected = KNOWN_SEEDS[KEY_PATHS.index(path)][KEY_SEEDS.index(seed)]
        assert derive_seed(seed, *path) == expected

    def test_fold_by_hand(self):
        # Seed 2**64 + 3 is two 64-bit chunks, (3, 0) and (1, 0), folded at
        # depths 0 and 1 of domain 0; the path parts fold at depths 0 and 1
        # of domain 1.
        a0, a1 = _path_key(("a",))
        key = (0, 0)
        for ctr in [(3, 0, 0, 0), (1, 0, 1, 0), (a0, a1, 0, 1), (7, 0, 1, 1)]:
            key = philox4x32(ctr, key)[:2]
        assert derive_seed(2**64 + 3, "a", 7) == int(key[0]) | int(key[1]) << 32

    @pytest.mark.parametrize(
        "a,b",
        [((3,), (2**64 + 3,)), ((1,), (1, 0)), ((1, "a", "b"), (1, "b", "a")), ((0, 5), (5,))],
        ids=["seed-chunks", "empty-path", "part-order", "seed-vs-part"],
    )
    def test_domain_and_depth_separate_inputs(self, a, b):
        assert derive_seed(*a) != derive_seed(*b)

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_for_series_equals_generic_path(self, seed):
        # Duplicates, non-ASCII strings and int ids in one call; the shared
        # seed-and-tag prefix must give each row the generic derivation.
        ids = ["s0", "ß-7", 0, 2**32 + 1, "s0", "日本", 0, "s0"]
        ids += [f"series-{i}" for i in range(200)]
        keys = RowKeys.for_series(seed, "path", ids, np.arange(len(ids)))
        # The key in force at every Philox round is (k0, k1) plus a bump
        # that is zero in round 0.
        got = np.stack([keys._rk0[0], keys._rk1[0]], axis=1).tolist()
        assert got == [words(seed, "path", sid) for sid in ids]

    def test_for_series_without_rows(self):
        assert len(RowKeys.for_series(3, "path", [], np.zeros(0))) == 0


class TestUniformAndInts:
    def test_uniform_range(self):
        # One row read across many lanes, as init_model reads a block.
        draws = keys(0, "u", 1).uniforms(0, 0, lanes=5_000)[:, 0]
        assert np.all((draws >= 0.0) & (draws < 1.0))
        assert abs(draws.mean() - 0.5) < 0.02

    def test_permutation_is_bijection(self):
        p = permutation(pcg64(2, "perm"), 50)
        assert sorted(p.tolist()) == list(range(50))

    def test_permutation_not_identity_often(self):
        s = pcg64(3, "perm")
        hits = sum(np.array_equal(permutation(s, 10), np.arange(10)) for _ in range(50))
        assert hits <= 1


class TestPhilox:
    # Known-answer vectors of the Random123 distribution (kat_vectors),
    # counter words, key words -> output words.
    @pytest.mark.parametrize(
        "ctr,key,expected",
        [
            ((0, 0, 0, 0), (0, 0), "6627e8d5 e169c58d bc57ac4c 9b00dbd8"),
            ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, "408f276d 41c83b0e a20bc7c6 6d5451fd"),
            (
                (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
                (0xA4093822, 0x299F31D0),
                "d16cfe09 94fdcceb 5001e420 24126ea1",
            ),
        ],
    )
    def test_known_answers(self, ctr, key, expected):
        out = philox4x32([np.uint64(c) for c in ctr], [np.uint64(k) for k in key])
        assert " ".join(f"{int(w):08x}" for w in out) == expected

    def test_array_lanes_match_scalar_calls(self):
        ctr = [np.array([0, 0xFFFFFFFF, 7], dtype=np.uint64)] * 4
        key = [np.array([0, 0xFFFFFFFF, 9], dtype=np.uint64)] * 2
        out = philox4x32(ctr, key)
        for i in range(3):
            one = philox4x32([c[i] for c in ctr], [k[i] for k in key])
            assert [int(w[i]) for w in out] == [int(w) for w in one]


class TestKeyedUniforms:
    def test_range_and_mean(self):
        u = keys(0, "u", 50_000).uniforms(0, 0, 2)
        assert u.shape == (4, 50_000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.01

    def test_row_draws_independent_of_batch(self):
        # A row's uniforms depend only on its key and counters: any subset,
        # in any order, reads the same values.
        full = keys(1, "sub", 64)
        ref = full.uniforms(3, 2, 2)
        rows = np.array([63, 5, 17, 0])
        np.testing.assert_array_equal(full.take(rows).uniforms(3, 2, 2), ref[:, rows])
        np.testing.assert_array_equal(keys(1, "sub", 10).uniforms(3, 2, 2), ref[:, :10])

    def test_every_counter_component_matters(self):
        base = keys(2, "c", 8).uniforms(0, 0)
        for other in (
            keys(3, "c", 8).uniforms(0, 0),
            keys(2, "d", 8).uniforms(0, 0),
            keys(2, "c", 8, first_path=8).uniforms(0, 0),
            keys(2, "c", 8).uniforms(1, 0),
            keys(2, "c", 8).uniforms(0, 1),
            keys(2, "c", 8).uniforms(0, 0, 1, first_lane=1),
        ):
            assert not np.any(other == base)

    @pytest.mark.parametrize("sampler", [
        lambda k, rows: normals(k, 4),
        lambda k, rows: gammas(k, 4, np.linspace(0.2, 30.0, 300)[rows]),
        lambda k, rows: poissons(k, 4, np.linspace(0.0, 400.0, 300)[rows]),
        lambda k, rows: neg_binomials(k, 4, np.linspace(0.5, 300.0, 300)[rows], 0.3),
    ])
    def test_samplers_row_independent(self, sampler):
        # Masked retry rounds must not couple rows: each draw equals the
        # draw made for that row alone.
        k = keys(4, "rows", 300)
        batch = sampler(k, slice(None))
        for i in (0, 1, 150, 299):
            alone = sampler(k.take(np.array([i])), np.array([i]))
            assert batch[i] == alone[0], i


class TestNormals:
    def test_moments(self):
        x = normals(keys(5, "norm", 200_000), 0)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01

    def test_gaussian_location_scale(self):
        draws = draw(LikelihoodKind.GAUSSIAN, 3.0, 0.5, keys(6, "gauss", 50_000), 0)
        assert abs(draws.mean() - 3.0) < 0.02
        assert abs(draws.std() - 0.5) < 0.02

    def test_kolmogorov_smirnov_vs_normal_cdf(self):
        from scipy.stats import kstest

        x = normals(keys(7, "ks", 100_000), 0)
        stat, p = kstest(x, "norm")
        assert p > 1e-4


class TestGamma:
    @pytest.mark.parametrize("shape,scale", [(0.5, 2.0), (1.0, 1.0), (4.0, 0.5), (20.0, 3.0)])
    def test_moments(self, shape, scale):
        n = 100_000
        x = gammas(keys(8, f"gamma{int(shape * 10)}", n), 0, shape, scale)
        mean, var = shape * scale, shape * scale**2
        se_mean = np.sqrt(var / n)
        assert abs(x.mean() - mean) < 4 * se_mean
        assert abs(x.var() - var) / var < 0.05

    def test_invalid_args(self):
        k = keys(9, "gamma", 4)
        with pytest.raises(ValueError):
            gammas(k, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gammas(k, 0, 1.0, -1.0)


class TestPoisson:
    @pytest.mark.parametrize("lam", [0.3, 4.0, 9.9, 25.0, 300.0])
    def test_moments(self, lam):
        n = 60_000
        x = poissons(keys(10, f"pois{int(lam * 10)}", n), 0, lam)
        assert np.all(x >= 0)
        assert np.array_equal(x, np.round(x))
        se = np.sqrt(lam / n)
        assert abs(x.mean() - lam) < 4 * se
        assert abs(x.var() - lam) / lam < 0.06

    def test_zero_rate(self):
        assert np.all(poissons(keys(11, "pois0", 10), 0, 0.0) == 0)


def walk_inversion(lam, u):
    """Poisson counts by inversion, row by row: walk k = 0, 1, ... until
    the cdf covers u or the pmf term underflows to 0."""
    out = np.zeros(lam.size)
    first = np.exp(-lam)
    for i in range(lam.size):
        p = s = first[i]
        while u[i] > s and p > 0.0:
            out[i] += 1.0
            p *= lam[i] / out[i]
            s += p
    return out


def cdf_terms(lam, n):
    """The first n cdf values of Poisson(lam) as the walk sums them."""
    p = s = np.exp(-np.array([lam]))[0]
    out = [s]
    for j in range(1, n):
        p *= lam / float(j)
        s += p
        out.append(s)
    return np.array(out)


class TestPoissonInversion:
    # The table of the first _INVERSION_DEPTH + 1 terms and the walk it
    # falls back to must give the row-by-row walk's count on every row.

    def check(self, lam, u):
        lam = np.asarray(lam, dtype=np.float64)
        u = np.broadcast_to(np.asarray(u, dtype=np.float64), lam.shape).copy()
        got = _poisson_inversion(lam, u)
        np.testing.assert_array_equal(got, walk_inversion(lam, u))
        return got

    def test_zero_uniform(self):
        assert np.all(self.check([1e-300, 0.3, 4.0, 9.999], 0.0) == 0.0)

    def test_uniform_equal_to_a_cdf_value(self):
        # u == cdf(j) is covered at j; the next double above it is not.
        cdf = cdf_terms(3.7, 12)
        lam = np.full(2 * cdf.size, 3.7)
        u = np.concatenate([cdf, np.nextafter(cdf, 1.0)])
        got = self.check(lam, u)
        np.testing.assert_array_equal(got, np.concatenate([np.arange(12.0), np.arange(1.0, 13.0)]))

    def test_uniform_next_to_one(self):
        # At lam = 9.999 the float cdf tops out at 1 - 3 * 2**-53: a u
        # above it is never covered, and the walk ends where the pmf term
        # underflows, far past the table.
        top = cdf_terms(9.999, 400).max()
        u = np.array([1.0 - 2.0**-40, 1.0 - 2.0**-52, 1.0 - 2.0**-53])
        assert np.all(u[1:] > top)
        got = self.check(np.full(3, 9.999), u)
        assert _INVERSION_DEPTH < got[0] < 60
        assert np.all(got[1:] > 300)

    def test_tiny_rate(self):
        assert np.all(self.check(np.full(3, 1e-300), [0.0, 0.5, 1.0 - 2.0**-53]) == 0.0)

    def test_fallback_rows_mixed_with_settled_rows(self):
        rng = np.random.default_rng(16)
        lam = rng.uniform(0.0, 10.0, 3000)
        u = rng.random(3000)
        tail = rng.choice(3000, 60, replace=False)
        lam[tail] = rng.uniform(8.0, 10.0, 60)
        u[tail] = 1.0 - 10.0 ** -rng.uniform(4.0, 15.9, 60)
        got = self.check(lam, u)
        assert np.any(got > _INVERSION_DEPTH) and np.any(got <= _INVERSION_DEPTH)


def reference_neg_binomials(k, step, mu, alpha):
    """The Gamma-Poisson draws written round by round: round r of a stage
    reads counter round r, fetched on its own for the rows still rejected.
    Returns the draws and the most rounds any row needed."""
    from panelcast.special import lgamma

    n = len(k)
    shape = 1.0 / alpha
    boosted = shape < 1.0
    d = np.where(boosted, shape + 1.0, shape) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    gam = np.empty(n)
    rows, rnd = np.arange(n), 0
    while rows.size:  # Marsaglia-Tsang, lanes 0-1
        u = k.take(rows).uniforms(step, rnd, 2, 0)
        x = np.sqrt(-2.0 * np.log(1.0 - u[0])) * np.cos(2.0 * np.pi * u[1])
        v = 1.0 + c[rows] * x
        v3 = v * v * v
        ua = 1.0 - u[2]
        x2 = x * x
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (v > 0.0) & (
                (ua < 1.0 - 0.0331 * x2 * x2)
                | (np.log(ua) < 0.5 * x2 + d[rows] * (1.0 - v3 + np.log(v3)))
            )
        gam[rows[ok]] = (d[rows] * v3)[ok]
        rows, rnd = rows[~ok], rnd + 1
    most = rnd
    u0 = k.uniforms(step, 0, 2, 0)
    gam[boosted] *= np.exp(np.log(1.0 - u0[3, boosted]) / shape[boosted])
    lam = gam * (alpha * mu)

    out = np.zeros(n)
    small = np.nonzero((lam > 0.0) & (lam < 10.0))[0]
    # inversion of the cdf, lane 2 round 0
    out[small] = walk_inversion(lam[small], k.take(small).uniforms(step, 0, 1, 2)[0])
    rows, rnd = np.nonzero(lam >= 10.0)[0], 0
    while rows.size:  # PTRS, lane 2
        lr = lam[rows]
        b = 0.931 + 2.53 * np.sqrt(lr)
        a = -0.059 + 0.02483 * b
        w = k.take(rows).uniforms(step, rnd, 1, 2)
        uu = w[0] - 0.5
        v = 1.0 - w[1]
        us = 0.5 - np.abs(uu)
        with np.errstate(divide="ignore", invalid="ignore"):
            kk = np.floor((2.0 * a / us + b) * uu + lr + 0.43)
            ok = (us >= 0.07) & (v <= 0.9277 - 3.6224 / (b - 2.0))
            slow = ~ok & (kk >= 0.0) & ~((us < 0.013) & (v > us))
            ok |= slow & (
                np.log(v) + np.log(1.1239 + 1.1328 / (b - 3.4)) - np.log(a / (us * us) + b)
                <= kk * np.log(lr) - lr - lgamma(np.where(slow, kk, 0.0) + 1.0)
            )
        out[rows[ok]] = kk[ok]
        rows, rnd = rows[~ok], rnd + 1
    return out, max(most, rnd)


class TestNegBinomial:
    def test_equals_round_by_round_reference(self):
        # The sampler fetches three rounds of every row in one pass and the
        # rest in batched retry passes; every draw must still read the
        # counter rounds a round-by-round sampler reads.
        n = 100_000
        rng = np.random.default_rng(14)
        mu = rng.uniform(0.2, 400.0, n)
        alpha = np.exp(rng.uniform(np.log(0.01), np.log(5.0), n))
        k = keys(15, "nbref", n)
        ref, most = reference_neg_binomials(k, 3, mu, alpha)
        assert most > 3  # some rows needed rounds beyond the prefetched ones
        np.testing.assert_array_equal(neg_binomials(k, 3, mu, alpha), ref)

    def test_rows_needing_two_retry_passes(self):
        # Paths of one key whose Poisson stage rejects its first seven
        # rounds (3 prefetched, 4 of the first retry pass) at mu = 10.5,
        # alpha = 1e-4, found by search, mixed with 300 random rows.
        slow = np.array([27996, 35626, 39610, 59277, 101855])
        paths = np.concatenate([slow, np.arange(300)])
        k = RowKeys.for_series(16, "nbretry", ["r"] * paths.size, paths)
        rng = np.random.default_rng(17)
        mu = np.concatenate([np.full(slow.size, 10.5), rng.uniform(0.2, 400.0, 300)])
        alpha = np.concatenate([np.full(slow.size, 1e-4), np.exp(rng.uniform(np.log(0.01), np.log(5.0), 300))])
        ref, most = reference_neg_binomials(k, 0, mu, alpha)
        assert most >= 8
        np.testing.assert_array_equal(neg_binomials(k, 0, mu, alpha), ref)

    def test_moment_oracle(self):
        # mean mu, variance mu + mu^2 alpha
        mu, alpha = 5.0, 0.5
        n = 1_000_000
        x = chunked(lambda k: neg_binomials(k, 0, mu, alpha), 12, "nb", n)
        assert np.all(x >= 0)
        assert np.array_equal(x, np.round(x))
        var = mu + mu * mu * alpha
        se_mean = np.sqrt(var / n)
        # var of the sample variance ~ (m4 - var^2)/n; use a generous 3-sigma-ish bound
        m4 = np.mean((x - x.mean()) ** 4)
        se_var = np.sqrt(max(m4 - var**2, 0.0) / n)
        assert abs(x.mean() - mu) < 3 * se_mean
        assert abs(x.var() - var) < 3 * se_var

    def test_pmf_buckets(self):
        # Empirical pmf within 3 standard errors per bucket for a small case.
        from panelcast.likelihood import negbin_nll

        mu, alpha = 2.0, 1.0
        n = 200_000
        x = chunked(lambda k: neg_binomials(k, 0, mu, alpha), 13, "nbpmf", n)
        for z in range(8):
            p = float(np.exp(-negbin_nll(float(z), mu, alpha)[0]))
            emp = float(np.mean(x == z))
            se = np.sqrt(p * (1 - p) / n)
            assert abs(emp - p) < 4 * se, f"z={z}: emp={emp:.5f} vs p={p:.5f}"
