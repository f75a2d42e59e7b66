"""Sampling and Monte Carlo estimators: determinism, accuracy, tilting."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import beta, ks_2samp
from verifiers import draw_sums_whole, sample_sum

from exptails import montecarlo
from exptails.core import Distribution, InvalidInputError, check_seed
from exptails.legendre import cumulant
from exptails.montecarlo import (
    _CHUNK,
    _DRAW_BLOCK,
    _binomial_interval,
    _chunks,
    _draw_sums,
    _substream,
    is_tail,
    mc_tail,
)
from exptails.oracle import exact_tail

EXP = Distribution.exponential()
LAP = Distribution.laplace()
GAMMA2 = Distribution.gamma(2.0)

SIGMA21 = math.sqrt(10.0)

# Frozen reference values from tests/oracles/closed_forms.py (mpmath, 50 dps).
LAPLACE21_AT_15SIGMA = 0.0607626427942472754055


class TestSampleSum:
    def test_deterministic_given_seed(self):
        a = sample_sum(EXP, [2.0, 1.0], 1000, seed=42)
        b = sample_sum(EXP, [2.0, 1.0], 1000, seed=42)
        c = sample_sum(EXP, [2.0, 1.0], 1000, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_worker_count_does_not_change_samples(self):
        # 200k draws span four chunks; threads must not reorder anything
        n = 200_000
        serial = sample_sum(LAP, [2.0, 1.0], n, seed=7, workers=1)
        threaded = sample_sum(LAP, [2.0, 1.0], n, seed=7, workers=4)
        assert np.array_equal(serial, threaded)

    def test_laplace_direct_is_centered(self):
        x = sample_sum(LAP, [1.0], 100_000, seed=5)
        # Var(X) = 2, so the sample mean has std sqrt(2/n)
        assert abs(float(x.mean())) <= 4.0 * math.sqrt(2.0 / 100_000)

    def test_gaussian_mixture_variance(self):
        x = sample_sum(LAP, [2.0, 1.0], 100_000, seed=5, representation="gaussian_mixture")
        # Var(S) = 2*(4+1) = 10; Var(S^2) = E S^4 - 100 = 404
        assert abs(float(x.var()) - 10.0) <= 4.0 * math.sqrt(404.0 / 100_000)

    def test_representations_agree_in_law(self):
        n = 100_000
        direct = sample_sum(LAP, [2.0, 1.0], n, seed=1)
        mixture = sample_sum(LAP, [2.0, 1.0], n, seed=2, representation="gaussian_mixture")
        assert ks_2samp(direct, mixture).pvalue > 0.001

    def test_exponential_sums_are_nonnegative(self):
        x = sample_sum(EXP, [2.0, 1.0], 10_000, seed=0)
        assert float(x.min()) >= 0.0
        y = sample_sum(GAMMA2, [0.5], 10_000, seed=0)
        assert float(y.min()) >= 0.0

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            sample_sum(EXP, [1.0], 0, seed=0)
        with pytest.raises(InvalidInputError):
            sample_sum(EXP, [1.0], 10, seed=-1)
        with pytest.raises(InvalidInputError):
            sample_sum(EXP, [1.0], 10, seed=True)
        with pytest.raises(InvalidInputError):
            sample_sum(EXP, [1.0], 10, seed=0, representation="antithetic")
        with pytest.raises(InvalidInputError, match="Laplace"):
            sample_sum(EXP, [1.0], 10, seed=0, representation="gaussian_mixture")


class TestMcTail:
    def test_worker_count_does_not_change_estimate(self):
        kwargs = dict(threshold=4.0, n=200_000, seed=9)
        serial = mc_tail(EXP, [2.0, 1.0], workers=1, **kwargs)
        threaded = mc_tail(EXP, [2.0, 1.0], workers=4, **kwargs)
        assert serial == threaded

    def test_laplace_median_is_half(self):
        est = mc_tail(LAP, [2.0, 1.0], 0.0, n=100_000, seed=3)
        assert abs(est.p_hat - 0.5) <= 4.0 * est.stderr
        assert est.method == "plain"
        assert est.tilt_theta == 0.0

    def test_matches_oracle_at_moderate_threshold(self):
        est = mc_tail(LAP, [2.0, 1.0], 1.5 * SIGMA21, n=100_000, seed=11)
        assert abs(est.p_hat - LAPLACE21_AT_15SIGMA) <= 4.0 * est.stderr
        assert est.ci_low <= est.p_hat <= est.ci_high

    def test_rare_hits_use_clopper_pearson(self):
        # P(S > 20) ~ 9.1e-5, so ~9 hits in 1e5: the normal interval would
        # be useless here and the exact one must still bracket the truth
        est = mc_tail(EXP, [2.0, 1.0], 20.0, n=100_000, seed=2)
        hits = round(est.p_hat * est.n)
        assert 0 < hits < 30
        truth = exact_tail(EXP, [2.0, 1.0], 20.0)[0]
        assert est.ci_low <= truth <= est.ci_high
        assert est.ci_low > 0.0

    def test_clopper_pearson_is_symmetric_in_hits_and_misses(self):
        for n in (100, 65536):
            for hits in range(30):
                _, lo, hi = _binomial_interval(hits, n)
                _, lo_m, hi_m = _binomial_interval(n - hits, n)
                assert math.isclose(lo_m, 1.0 - hi, rel_tol=1e-12)
                assert math.isclose(hi_m, 1.0 - lo, rel_tol=1e-12)

    def test_clopper_pearson_matches_scipy_stats(self):
        for n in (100, 65536, 131072, 10**6):
            for hits in range(30):
                _, lo, hi = _binomial_interval(hits, n)
                assert lo == (0.0 if hits == 0 else beta.ppf(0.025, hits, n - hits + 1))
                assert hi == beta.ppf(0.975, hits + 1, n - hits)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            mc_tail(EXP, [1.0], 1.0, n=99, seed=0)
        with pytest.raises(InvalidInputError):
            mc_tail(EXP, [1.0], math.inf, n=1000, seed=0)


class TestImportanceSampling:
    def test_worker_count_does_not_change_estimate(self):
        kwargs = dict(threshold=15.0, n=200_000, seed=9)
        serial = is_tail(EXP, [2.0, 1.0], workers=1, **kwargs)
        threaded = is_tail(EXP, [2.0, 1.0], workers=4, **kwargs)
        assert serial == threaded

    def test_laplace_deep_tail_matches_oracle(self):
        t = 5.0 * SIGMA21
        truth = exact_tail(LAP, [2.0, 1.0], t)[0]
        est = is_tail(LAP, [2.0, 1.0], t, n=100_000, seed=1)
        assert abs(est.p_hat - truth) <= 4.0 * est.stderr
        assert est.stderr / est.p_hat <= 0.02
        assert est.method == "tilted"
        assert est.tilt_theta > 0.0

    def test_exponential_deep_tail_matches_oracle(self):
        truth = exact_tail(EXP, [2.0, 1.0], 20.0)[0]
        est = is_tail(EXP, [2.0, 1.0], 20.0, n=100_000, seed=4)
        assert abs(est.p_hat - truth) <= 4.0 * est.stderr
        assert est.stderr / est.p_hat <= 0.02

    def test_gamma_deep_tail_is_consistent(self):
        from exptails.oracle import cf_tail_inversion

        truth = cf_tail_inversion(GAMMA2, [2.0, 1.0], 18.0)
        est = is_tail(GAMMA2, [2.0, 1.0], 18.0, n=100_000, seed=6)
        assert abs(est.p_hat - truth) <= 4.0 * est.stderr

    @pytest.mark.parametrize("d", [EXP, LAP, GAMMA2], ids=Distribution.label)
    def test_likelihood_ratio_integrates_to_one(self, d):
        theta = 0.3
        b = d.scales([2.0, 1.0])
        log_norm = cumulant(b, d.shape, theta)
        rng = _substream(99, 0)
        sums = _draw_sums(d.shape, b, theta, 60_000, rng)
        lr = np.exp(-theta * sums + log_norm)
        sem = float(lr.std(ddof=1)) / math.sqrt(lr.size)
        assert abs(float(lr.mean()) - 1.0) <= 4.0 * sem

    def test_variance_reduction_in_deep_tail(self):
        # plain MC at p ~ 1e-6 would need ~1e8 draws for this stderr
        t = 26.8
        n = 100_000
        truth = exact_tail(LAP, [2.0, 1.0], t)[0]
        assert truth < 5e-6
        est = is_tail(LAP, [2.0, 1.0], t, n=n, seed=17)
        plain_var = truth * (1.0 - truth) / n
        assert plain_var / est.stderr**2 >= 10.0

    def test_threshold_must_exceed_mean(self):
        with pytest.raises(InvalidInputError, match="use mc_tail"):
            is_tail(EXP, [2.0, 1.0], 3.0, n=1000, seed=0)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            is_tail(EXP, [1.0], 5.0, n=99, seed=0)
        with pytest.raises(InvalidInputError):
            is_tail(EXP, [1.0], math.nan, n=1000, seed=0)


class TestChunking:
    def test_chunks_partition_the_range(self):
        for n in (1, 100, 1 << 16, (1 << 16) + 1, 200_000):
            pairs = _chunks(n)
            assert [i for i, _ in pairs] == list(range(len(pairs)))
            assert sum(c for _, c in pairs) == n
            assert all(c == 1 << 16 for _, c in pairs[:-1])
            assert 0 < pairs[-1][1] <= 1 << 16

    def test_substreams_are_distinct(self):
        a = _substream(0, 0).random(8)
        b = _substream(0, 1).random(8)
        assert not np.array_equal(a, b)

    def test_check_seed_rejects_bool(self):
        for bad in (True, False, 5.0, np.float64(5), "5", None):
            with pytest.raises(InvalidInputError, match="must be an integer"):
                check_seed(bad)
        for good, expected in ((7, 7), (np.int64(5), 5)):
            seed = check_seed(good)
            assert seed == expected and type(seed) is int


class TestDrawBlocks:
    """A chunk drawn in row blocks keeps the bits of one whole-chunk matrix."""

    @pytest.mark.parametrize("k", [1, 2, 7, 14, 16, 17, 64, 128])
    def test_blocks_keep_the_whole_chunk_bits(self, k):
        rows = max(8, _DRAW_BLOCK // k // 8 * 8)  # one block
        b = np.random.default_rng(k).uniform(-2.0, 2.0, k)
        theta = 0.3 / float(np.max(np.abs(b)))
        for shape in (0.5, 1.0, 3.5):
            for m in (1, 2, 9, rows - 1, rows + 1, 34_464, _CHUNK):
                got = _draw_sums(shape, b, theta, m, _substream(k, m))
                want = draw_sums_whole(shape, b, theta, m, _substream(k, m))
                assert np.array_equal(got, want), (shape, m)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("d", [Distribution.gamma(0.5), LAP, Distribution.gamma(3.5)],
                             ids=Distribution.label)
    def test_estimates_keep_the_whole_chunk_bits(self, d, workers, monkeypatch):
        w = [1.0 + 0.25 * i for i in range(8)]
        b = d.scales(w)
        t = d.shape * float(b.sum()) + 3.0 * math.sqrt(d.shape * float(b @ b))
        n = _CHUNK + 34_464  # a whole chunk and a cut one

        def both():
            return (mc_tail(d, w, t, n, seed=5, workers=workers),
                    is_tail(d, w, t, n, seed=5, workers=workers))

        blocked = both()
        monkeypatch.setattr(montecarlo, "_draw_sums", draw_sums_whole)
        assert blocked == both()

    def test_a_tilted_chunk_holds_what_a_plain_chunk_holds(self):
        # one 2**16-draw chunk at n = 5: both estimators weigh the sums in place
        w = [1.0, 1.5, 2.0, 2.5, 3.0]
        peaks = []
        for estimator in (is_tail, mc_tail):
            estimator(EXP, w, 20.0, _CHUNK, seed=1)  # imports, caches
            tracemalloc.start()
            try:
                estimator(EXP, w, 20.0, _CHUNK, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.1 * peaks[1]

    def test_sampling_memory_is_bounded(self):
        # n = 64 Laplace weights, 128 signed scales: one whole 2**16-row chunk
        # of gammas is 64 MB; a worker holds one block plus its chunk's sums
        w = [1.0 + i / 64.0 for i in range(64)]
        t = 3.0 * math.sqrt(2.0 * sum(x * x for x in w))
        n = 1 << 17
        is_tail(LAP, w, t, _CHUNK + 100, seed=3, workers=2)  # imports, thread pool
        tracemalloc.start()
        try:
            is_tail(LAP, w, t, n, seed=3, workers=2)
            is_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            mc_tail(LAP, w, t, n, seed=3)
            mc_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert is_peak < 8 << 20
        assert mc_peak < 4 << 20
