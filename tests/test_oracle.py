"""Exact-tail oracles: partial-fraction mixtures and CF inversion."""

import math
import re
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaincc
from verifiers import mixture_parity, seeded_weight_vectors

import exptails.oracle as oracle
from exptails.core import Distribution, InvalidInputError, NumericFailureError
from exptails.oracle import (
    ExpMixture,
    MixtureSide,
    MixtureTerm,
    MixtureUnavailableError,
    _cluster_scales,
    _mixture,
    _recip_power_series,
    _series_product,
    cf_tail_inversion,
    exact_tail,
    hypoexp_mixture,
    hypoexp_tail,
    laplace_abs_norm,
    laplace_mixture,
    laplace_tail,
    p_ge_mean,
)
from exptails.special import erlang_tails

EXP = Distribution.exponential()
LAP = Distribution.laplace()
GAMMA2 = Distribution.gamma(2.0)
GAMMA05 = Distribution.gamma(0.5)

SIGMA21 = math.sqrt(10.0)  # std of 2 X_1 + X_2 for standard Laplace X_i

# Scales 3e-5 apart: too far apart for the clustering pass to merge, close
# enough that the partial-fraction coefficients (~6e12) fail the trust gates.
ILL_CONDITIONED = (1.0, 1.0 + 3e-5, 1.0 + 6e-5, 1.0 + 9e-5)

# Frozen reference values from tests/oracles/closed_forms.py (mpmath, 50 dps).
HYPOEXP21_AT_2 = 0.600423599106271951297
HYPOEXP21_AT_3 = 0.396473251928995714887
HYPOEXP21_AT_6 = 0.0970953845590615275356
ERLANG2_AT_2 = 0.406005849709838075682
HYPOEXP211_AT_4 = 0.41313166072531150552
LAPLACE21_AT_1 = 0.343040532946515228803
LAPLACE21_AT_2SIGMA = 0.0279208526098184112722
LAPLACE21_AT_15SIGMA = 0.0607626427942472754055
LAPLACE11_AT_3 = 0.0622338354598299287242
LAPLACE111_AT_3 = 0.0995741367357278859587
LAPLACE211_AT_15SIGMA = 0.0615965391582866956407
GAMMA2_W21_AT_12 = 0.0496794951433337480268
GAMMA2_W21_AT_6 = 0.425562820886241486488
GAMMA2_W11_AT_4 = 0.433470120366708933618
GAMMA05_W3_AT_6 = 0.0455002638963584144006
LAPLACE21_ABSMOMENT_P3 = 62.0
LAPLACE21_ABSMOMENT_P25 = 23.9584990894940575071
LAPLACE21_ABSMOMENT_P2 = 10.0
HYPOEXP_ILL_AT_5 = 0.265057499423848858718
LAPLACE_ILL_AT_3 = 0.132256772130214267814


def random_weights(rng, max_n=8):
    n = int(rng.integers(1, max_n + 1))
    return np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)).tolist()


class TestHypoexpMixture:
    def test_distinct_scales_frozen(self):
        mix = hypoexp_mixture([2.0, 1.0])
        assert mix.side is MixtureSide.ONE_SIDED
        assert math.isclose(mix.tail(2.0), HYPOEXP21_AT_2, rel_tol=1e-12)
        assert math.isclose(mix.tail(3.0), HYPOEXP21_AT_3, rel_tol=1e-12)
        assert math.isclose(mix.tail(6.0), HYPOEXP21_AT_6, rel_tol=1e-12)
        # classic residues: 2 e^{-t/2} - e^{-t}
        coefs = sorted(t.coef for t in mix.terms)
        assert coefs == [-1.0, 2.0]

    def test_repeated_scale_is_erlang(self):
        mix = hypoexp_mixture([1.0, 1.0])
        assert math.isclose(mix.tail(2.0), ERLANG2_AT_2, rel_tol=1e-12)
        assert max(t.power for t in mix.terms) == 1

    def test_confluent_block_frozen(self):
        # one simple pole at 2 plus a double pole at 1
        mix = hypoexp_mixture([2.0, 1.0, 1.0])
        assert math.isclose(mix.tail(4.0), HYPOEXP211_AT_4, rel_tol=1e-11)
        assert math.isclose(mix.coef_sum, 1.0, abs_tol=1e-12)

    def test_nearly_equal_scales_merge(self):
        mix = hypoexp_mixture([1.0, 1.0 + 1e-12])
        assert math.isclose(mix.tail(2.0), ERLANG2_AT_2, rel_tol=1e-9)

    def test_small_gap_merges_instead_of_blowing_up(self):
        # a 1e-6 relative gap would cost ~1e-4 of coefficient accuracy if
        # kept distinct; merged, the model error is O(gap^2)
        w = (1.0, 1.0 + 1e-6, 2.5)
        mix = hypoexp_mixture(w)
        assert max(term.power for term in mix.terms) == 1
        assert math.isclose(mix.coef_sum, 1.0, abs_tol=1e-12)
        t = 0.8 * sum(w)
        assert abs(mix.tail(t) - cf_tail_inversion(EXP, w, t)) <= 1e-8

    def test_single_weight_residue(self):
        mix = hypoexp_mixture([2.0])
        assert len(mix.terms) == 1
        assert mix.terms[0].coef == 1.0
        assert math.isclose(mix.tail(5.0), math.exp(-2.5), rel_tol=1e-15)

    def test_random_instances_behave_like_tails(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            w = random_weights(rng)
            mix = hypoexp_mixture(w)
            assert math.isclose(mix.coef_sum, 1.0, abs_tol=1e-8)
            assert mix.tail(0.0) == 1.0
            assert mix.tail(-1.0) == 1.0
            grid = np.linspace(0.0, 4.0 * sum(w), 40)
            vals = [mix.tail(t) for t in grid]
            assert all(0.0 <= v <= 1.0 for v in vals)
            for lo, hi in zip(vals[1:], vals):
                assert lo <= hi + 1e-12

    def test_too_many_distinct_scales(self):
        w = [1.0 + 0.01 * i for i in range(65)]
        with pytest.raises(MixtureUnavailableError, match="distinct scales"):
            hypoexp_mixture(w)

    def test_ill_conditioned_coefficients(self):
        with pytest.raises(MixtureUnavailableError, match="too large"):
            hypoexp_mixture(ILL_CONDITIONED)


def mp_partial_fraction_tail(w, t, two_sided):
    """P(S > t) from the partial fractions of distinct weights at 80 digits."""
    with mp.workdps(80):
        a = [mp.mpf(x) for x in w]
        total = mp.mpf(0)
        for j, aj in enumerate(a):
            coef = mp.mpf(1)
            for k, ak in enumerate(a):
                if k != j:
                    coef *= aj * aj / (aj * aj - ak * ak) if two_sided else aj / (aj - ak)
            total += coef * mp.exp(-mp.mpf(t) / aj)
        return float(total / 2 if two_sided else total)


class TestMixtureParity:
    """The closed-form product per pole against the all-series builder."""

    def test_coefficients_and_gates_match_the_series_builder(self):
        vectors = seeded_weight_vectors(1, 300, 24)
        accepted, worst, flips = mixture_parity(_mixture, vectors)
        assert accepted >= 250
        assert worst <= 2.0  # ulp per weight
        # summing the coefficients in another order moves the sum by rounding
        # only, so the two builders part at the 1e-10 drift gate alone, and
        # then the accepted mixture is a good one
        assert len(flips) <= 0.02 * 2 * len(vectors)
        for w, side, message in flips:
            assert "do not sum to 1" in message
            d = EXP if side is MixtureSide.ONE_SIDED else LAP
            try:
                mix = _mixture(w, side)
            except MixtureUnavailableError:
                continue
            sigma = math.sqrt(d.variance) * math.sqrt(math.fsum(a * a for a in w))
            for k in (-1.0, 0.0, 0.3, 1.0, 3.0, 8.0):
                t = d.mean * math.fsum(w) + k * sigma
                assert abs(mix.tail(t) - cf_tail_inversion(d, w, t)) <= 1e-8

    def test_doomed_builds_raise_and_invert(self):
        rng = np.random.default_rng(64)
        wide = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 64)).tolist()
        for w in (ILL_CONDITIONED, wide):
            for d, build, side in ((EXP, hypoexp_mixture, False), (LAP, laplace_mixture, True)):
                with pytest.raises(MixtureUnavailableError):
                    build(w)
                sigma = math.sqrt(d.variance * math.fsum(a * a for a in w))
                t = d.mean * math.fsum(w) + 2.0 * sigma
                value, source = exact_tail(d, w, t)
                assert source == "cf_inversion"
                want = mp_partial_fraction_tail(w, t, side)
                assert abs(value - want) <= 1e-9 * want

    def test_cap_stops_at_the_first_pole_past_it(self):
        rng = np.random.default_rng(64)
        w = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 64)).tolist()
        with pytest.raises(MixtureUnavailableError, match=r"after (\d+) of 64 poles") as info:
            hypoexp_mixture(w)
        assert int(re.search(r"after (\d+) of", str(info.value)).group(1)) < 64


class TestLaplaceMixture:
    def test_distinct_scales_frozen(self):
        mix = laplace_mixture([2.0, 1.0])
        assert mix.side is MixtureSide.TWO_SIDED
        assert math.isclose(mix.tail(1.0), LAPLACE21_AT_1, rel_tol=1e-12)
        assert math.isclose(mix.tail(2.0 * SIGMA21), LAPLACE21_AT_2SIGMA, rel_tol=1e-12)
        assert math.isclose(mix.tail(1.5 * SIGMA21), LAPLACE21_AT_15SIGMA, rel_tol=1e-12)

    def test_repeated_scales_frozen(self):
        assert math.isclose(laplace_mixture([1.0, 1.0]).tail(3.0), LAPLACE11_AT_3, rel_tol=1e-12)
        assert math.isclose(
            laplace_mixture([1.0, 1.0, 1.0]).tail(3.0), LAPLACE111_AT_3, rel_tol=1e-12
        )

    def test_confluent_block_frozen(self):
        mix = laplace_mixture([2.0, 1.0, 1.0])
        t = 1.5 * math.sqrt(12.0)
        assert math.isclose(mix.tail(t), LAPLACE211_AT_15SIGMA, rel_tol=1e-10)

    def test_symmetry_and_center(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mix = laplace_mixture(random_weights(rng))
            assert math.isclose(mix.tail(0.0), 0.5, rel_tol=1e-9)
            for t in (0.3, 1.7, 5.0):
                assert math.isclose(mix.tail(-t), 1.0 - mix.tail(t), rel_tol=1e-12)

    def test_single_weight_residue(self):
        mix = laplace_mixture([2.0])
        assert math.isclose(mix.tail(3.0), 0.5 * math.exp(-1.5), rel_tol=1e-15)

    def test_ill_conditioned_coefficients(self):
        with pytest.raises(MixtureUnavailableError):
            laplace_mixture(ILL_CONDITIONED)


class TestCfInversion:
    """The inversion path must reproduce the closed forms it replaces."""

    def test_moderate_thresholds_absolute(self):
        # near the mean, absolute tolerance
        assert abs(cf_tail_inversion(EXP, [2.0, 1.0], 3.0) - HYPOEXP21_AT_3) <= 2e-9
        assert abs(cf_tail_inversion(LAP, [2.0, 1.0], 1.0) - LAPLACE21_AT_1) <= 2e-9
        assert abs(cf_tail_inversion(GAMMA2, [1.0, 1.0], 4.0) - GAMMA2_W11_AT_4) <= 2e-9
        assert abs(cf_tail_inversion(GAMMA2, [2.0, 1.0], 6.0) - GAMMA2_W21_AT_6) <= 2e-9

    def test_deep_thresholds_relative(self):
        # deep thresholds, relative tolerance
        pairs = [
            (EXP, [2.0, 1.0], 6.0, HYPOEXP21_AT_6),
            (LAP, [2.0, 1.0], 2.0 * SIGMA21, LAPLACE21_AT_2SIGMA),
            (LAP, [2.0, 1.0], 1.5 * SIGMA21, LAPLACE21_AT_15SIGMA),
            (GAMMA2, [2.0, 1.0], 12.0, GAMMA2_W21_AT_12),
            (GAMMA05, [3.0], 6.0, GAMMA05_W3_AT_6),
        ]
        for d, w, t, want in pairs:
            got = cf_tail_inversion(d, w, t)
            assert math.isclose(got, want, rel_tol=1e-7), (d.label, t, got, want)

    def test_very_deep_tail_stays_relative(self):
        want = 2.0 * math.exp(-30.0) - math.exp(-60.0)
        got = cf_tail_inversion(EXP, [2.0, 1.0], 60.0)
        assert math.isclose(got, want, rel_tol=1e-7)

    def test_laplace_symmetry(self):
        w = [2.0, 1.0]
        assert cf_tail_inversion(LAP, w, 0.0) == 0.5
        up = cf_tail_inversion(LAP, w, 1.0)
        down = cf_tail_inversion(LAP, w, -1.0)
        assert math.isclose(up + down, 1.0, rel_tol=1e-12)

    def test_laplace_tail_near_zero_is_at_most_half(self):
        # successive trapezoid sums agree bit for bit here; with no rounding
        # floor on the error estimate the tail came out 0.5 + 1 ulp
        assert cf_tail_inversion(LAP, [1.0, 1.5], 5e-324) == 0.5

    def test_nonnegative_sums_below_zero(self):
        for d in (EXP, GAMMA2, GAMMA05):
            assert cf_tail_inversion(d, [2.0, 1.0], 0.0) == 1.0
            assert cf_tail_inversion(d, [2.0, 1.0], -3.0) == 1.0

    def test_non_finite_threshold(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                cf_tail_inversion(EXP, [1.0], bad)

    def test_walk_out_stops_before_u_max(self, monkeypatch):
        # the integrand is far from negligible at u = 1: the walk raises
        # without evaluating a node past the limit
        nodes = []

        def sinh(u):
            nodes.extend(u)
            return np.sinh(u)

        monkeypatch.setattr(oracle, "_U_MAX", 1.0)
        monkeypatch.setattr(oracle, "np", SimpleNamespace(**{**vars(np), "sinh": sinh}))
        with pytest.raises(NumericFailureError, match="still at"):
            cf_tail_inversion(GAMMA05, [2.0, 1.0], 3.0)
        assert 0.0 < max(nodes) < 1.0

    def test_agrees_with_mixture_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = random_weights(rng, max_n=5)
            mean = sum(w)
            for t in (0.7 * mean, 2.5 * mean):
                exact = hypoexp_mixture(w).tail(t)
                got = cf_tail_inversion(EXP, w, t)
                assert abs(got - exact) <= max(1e-8, 1e-6 * exact)


class TestFallbacks:
    def test_hypoexp_tail_falls_back_to_inversion(self):
        got = hypoexp_tail(ILL_CONDITIONED, 5.0)
        assert abs(got - HYPOEXP_ILL_AT_5) <= 1e-8

    def test_laplace_tail_falls_back_to_inversion(self):
        got = laplace_tail(ILL_CONDITIONED, 3.0)
        assert abs(got - LAPLACE_ILL_AT_3) <= 2e-8

    def test_clean_inputs_avoid_fallback(self):
        assert math.isclose(hypoexp_tail([2.0, 1.0], 6.0), HYPOEXP21_AT_6, rel_tol=1e-12)
        assert math.isclose(
            laplace_tail([2.0, 1.0], 2.0 * SIGMA21), LAPLACE21_AT_2SIGMA, rel_tol=1e-12
        )


class TestExactTail:
    def test_source_tags(self):
        value, source = exact_tail(EXP, [2.0, 1.0], 6.0)
        assert source == "mixture"
        assert math.isclose(value, HYPOEXP21_AT_6, rel_tol=1e-12)

        value, source = exact_tail(LAP, [2.0, 1.0], 2.0 * SIGMA21)
        assert source == "mixture"

        value, source = exact_tail(GAMMA2, [2.0, 1.0], 12.0)
        assert source == "cf_inversion"
        assert math.isclose(value, GAMMA2_W21_AT_12, rel_tol=1e-7)

        value, source = exact_tail(EXP, ILL_CONDITIONED, 5.0)
        assert source == "cf_inversion"
        assert abs(value - HYPOEXP_ILL_AT_5) <= 1e-8

    def test_thousand_equal_weights_stay_on_the_mixture(self):
        # one Erlang(1000) term: e^-1500 underflows and 1500^999 overflows, so
        # the tail is evaluated relative to its largest term
        value, source = exact_tail(EXP, [1.0] * 1000, 1500.0)
        assert source == "mixture"
        with mp.workdps(40):
            want = mp.gammainc(1000, 1500, mp.inf, regularized=True)
        assert math.isclose(value, float(want), rel_tol=1e-13)

    def test_laplace_tail_just_above_zero_is_at_most_half(self):
        # the mixture's coefficient sum drifts above 1, once giving 0.5000000000000009
        w = (6.862283619576183, 4.567786612409471, 8.621840609032201, 0.5201142460805447)
        value, _ = exact_tail(LAP, w, 1e-300)
        assert 0.5 - 1e-12 <= value <= 0.5
        assert exact_tail(LAP, w, 0.0)[0] == 0.5


class TestClusterTail:
    """A cluster of equal scales is one Erlang pass, not one per power."""

    @staticmethod
    def reference(t):
        # S = 2 G + E, G ~ gamma(999), E ~ exponential(1): P(S > t) =
        # Q(999, c) + e^-2c int_0^c g^998 e^g dg / 998!, c = t/2, and the
        # integral is 998! (e^c sum_k (-1)^(998-k) c^k/k! - 1)
        with mp.workdps(60):
            c = mp.mpf(t) / 2
            alternating = mp.fsum(
                (-1) ** (998 - k) * mp.exp(k * mp.log(c) - c - mp.loggamma(k + 1))
                for k in range(999)
            )
            head = mp.gammainc(999, c, mp.inf, regularized=True)
            return float(head + alternating - mp.exp(-2 * c))

    @pytest.mark.parametrize("t", [1998.0, 2500.0])
    def test_against_mpmath(self, t):
        value, source = exact_tail(EXP, [2.0] * 999 + [1.0], t)
        assert source == "mixture"
        want = self.reference(t)
        assert abs(value - want) <= 1e-12 * want

    def test_one_pass_per_scale(self, monkeypatch):
        calls = []

        def counted(k, x):
            calls.append(k)
            return erlang_tails(k, x)

        monkeypatch.setattr(oracle, "erlang_tails", counted)
        hypoexp_mixture([2.0] * 999 + [1.0]).tail(1998.0)
        laplace_mixture([2.0] * 3 + [1.0] * 2).tail(3.0)
        # simple poles take one exp and no pass
        assert calls == [998, 1, 2]

    def test_lone_cluster_is_one_term(self):
        # a lone pole's lower powers have coefficient exactly 0 and are left
        # out: the mixture is the single Erlang(10000) tail
        mix = hypoexp_mixture([1.0] * 10000)
        assert mix.terms == (MixtureTerm(1.0, 1.0, 9999),)
        with mp.workdps(40):
            want = float(mp.gammainc(10000, 10500, mp.inf, regularized=True))
        assert math.isclose(mix.tail(10500.0), want, rel_tol=1e-13)


class TestMixtureRange:
    def test_within_error_bound_is_the_range_end(self):
        mix = ExpMixture((MixtureTerm(1.0 + 1e-12, 1.0, 0),), MixtureSide.ONE_SIDED)
        assert mix.tail(1e-300) == 1.0
        mix = ExpMixture((MixtureTerm(1.0 + 1e-12, 1.0, 0),), MixtureSide.TWO_SIDED)
        assert mix.tail(1e-300) == 0.5
        assert mix.tail(-1e-300) == 0.5

    def test_beyond_error_bound_raises(self):
        # 2 e^{-t} - e^{-t/10} is -0.59 at t = 5 although the coefficients sum to 1
        mix = ExpMixture(
            (MixtureTerm(2.0, 1.0, 0), MixtureTerm(-1.0, 10.0, 0)), MixtureSide.ONE_SIDED
        )
        with pytest.raises(MixtureUnavailableError):
            mix.tail(5.0)


    # the exponential sandwich_report instances 19 and 45 of seed 1, at t = 200 E S:
    # scipy's Erlang tails flush to 0 there, while the tails are subnormal
    # floats (mpmath, 50 dps)
    @pytest.mark.parametrize(
        "w, ref",
        [
            ((8.140927477570385, 5.804703666114568, 0.3838131363974503, 2.510441640402915,
              0.19141181213129968, 0.40742392446449727, 5.285908038089396, 7.330496156709437),
             3.4869184633642202184e-319),
            ((3.5834570007328486, 4.310752199857048, 4.875069681709484, 7.081721277553747,
              5.09477749080252, 0.35108535294550003, 0.11262778759943758, 0.28505692678339306),
             4.673709022584965876e-314),
        ],
    )
    def test_subnormal_tail_is_inverted(self, w, ref):
        t = 200.0 * math.fsum(w)
        with pytest.raises(MixtureUnavailableError):
            hypoexp_mixture(w).tail(t)
        value, source = exact_tail(EXP, w, t)
        assert source == "cf_inversion"
        assert abs(value - ref) <= 1e-4 * ref

    def test_coefficients_past_float_range_are_rejected(self):
        # (1 - 1.00002)^100 underflows to 0 and (1 - 1.00002)^-100 overflows
        for w in ([1.0] + [1.00002] * 100, [1.0] * 100 + [1.00002]):
            for d, build in ((EXP, hypoexp_mixture), (LAP, laplace_mixture)):
                with pytest.raises(MixtureUnavailableError):
                    build(w)
                assert exact_tail(d, w, 0.5 * d.mean * sum(w) + 1.0)[1] == "cf_inversion"

    def test_quotient_past_float_range_is_a_zero_tail(self):
        # t/scale = 1e310 overflows, and the tail there is 0
        assert exact_tail(EXP, [1e-300], 1e10) == (0.0, "mixture")
        assert exact_tail(EXP, [1e-300, 1.0], 1e10) == (0.0, "mixture")

    def test_tail_below_the_smallest_float_stays_zero(self):
        # 2 e^{-800} - e^{-1600} rounds to 0: the mixture answers
        assert hypoexp_mixture([1.0, 0.5]).tail(800.0) == 0.0
        assert laplace_mixture([1.0, 0.5]).tail(800.0) == 0.0


class TestLaplaceAbsMoment:
    def test_frozen_moments(self):
        w = [2.0, 1.0]
        assert math.isclose(laplace_abs_norm(w, 3.0) ** 3.0, LAPLACE21_ABSMOMENT_P3, rel_tol=1e-12)
        assert math.isclose(laplace_abs_norm(w, 2.5) ** 2.5, LAPLACE21_ABSMOMENT_P25, rel_tol=1e-12)
        assert math.isclose(laplace_abs_norm(w, 2.0) ** 2.0, LAPLACE21_ABSMOMENT_P2, rel_tol=1e-12)

    def test_single_weight_closed_form(self):
        # E|aX|^p = a^p Gamma(p+1)
        assert math.isclose(laplace_abs_norm([2.0], 4.0) ** 4.0, 16.0 * 24.0, rel_tol=1e-12)

    def test_variance_identity_random(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            w = random_weights(rng, max_n=6)
            want = 2.0 * sum(a * a for a in w)
            assert math.isclose(laplace_abs_norm(w, 2.0) ** 2.0, want, rel_tol=1e-9)

    def test_contour_fallback_fourth_moment(self):
        # E S^4 = 24 sum a_i^4 + 12 sum_{i != j} a_i^2 a_j^2 for Laplace summands
        sq = [a * a for a in ILL_CONDITIONED]
        want = 24.0 * sum(s * s for s in sq) + 12.0 * (sum(sq) ** 2 - sum(s * s for s in sq))
        assert math.isclose(laplace_abs_norm(ILL_CONDITIONED, 4.0) ** 4.0, want, rel_tol=1e-9)

    def test_quadrature_fallback(self):
        # weights that defeat the tail mixture; E S^2 = 2 sum a_i^2
        want = 2.0 * sum(a * a for a in ILL_CONDITIONED)
        got = laplace_abs_norm(ILL_CONDITIONED, 2.0) ** 2.0
        assert math.isclose(got, want, rel_tol=1e-4)

    @pytest.mark.parametrize("p", [2.0, 20.0, 30.0, 40.0, 300.0, 1000.0])
    def test_high_orders_closed_form(self, p):
        # E|2 X_1 + X_2|^p = Gamma(p+1) (4/3 2^p - 1/3); at p = 30 and 40 the
        # saddle is near the pole at 1/2, where a contour placed by the
        # Gaussian rule did not converge; at p = 300 and 1000 the moment
        # overflows a float while the norm does not
        with mp.workdps(40):
            want = float((mp.gamma(p + 1) * (mp.mpf(4) / 3 * mp.mpf(2) ** p - mp.mpf(1) / 3)) ** (1 / p))
        assert math.isclose(laplace_abs_norm([2.0, 1.0], p), want, rel_tol=1e-11)

    def test_invalid_order(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidInputError):
                laplace_abs_norm([1.0], bad)


class TestEqualWeightGamma:
    """Equal weights have the closed form P(S > t) = Q(n * shape, t / a)."""

    def test_repro_at_the_mean(self):
        # total shape 5000 at its own mean, once clamped to 1.0
        d, w = Distribution.gamma(500.0), [1.0] * 10
        ref = gammaincc(5000.0, 5000.0)  # 0.49811936596618267
        value, source = exact_tail(d, w, 5000.0)
        assert source == "cf_inversion"
        assert abs(value - ref) <= 1e-9 * ref
        assert abs(p_ge_mean(d, w) - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("shape", [1e-3, 0.5, 2.0, 500.0, 8618.0])
    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    @pytest.mark.parametrize("factor", [0.3, 0.97, 1.0, 2.0, 40.0])
    def test_matches_closed_form(self, shape, n, factor):
        a = 0.7
        t = factor * n * shape * a
        ref = gammaincc(n * shape, t / a)
        got, _ = exact_tail(Distribution.gamma(shape), [a] * n, t)
        assert abs(got - ref) <= 1e-9 * ref + 1e-300, (got, ref)


    @pytest.mark.parametrize("shape", [1e-3, 0.01, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("ratio", [1e-160, 1e-200, 1e-300, 5e-324])
    def test_thresholds_far_below_the_scale(self, shape, n, ratio):
        # the saddle lies near -n*shape/t, out of float range for small shapes;
        # the small-t form of P(S <= t) answers there
        a = 2.0
        ref = gammaincc(n * shape, ratio)
        got = cf_tail_inversion(Distribution.gamma(shape), [a] * n, ratio * a)
        assert abs(got - ref) <= 1e-9 * ref, (got, ref)


class TestPGeMean:
    def test_exponential_frozen(self):
        assert math.isclose(p_ge_mean(EXP, [2.0, 1.0]), HYPOEXP21_AT_3, rel_tol=1e-12)

    def test_laplace_is_half(self):
        assert p_ge_mean(LAP, [5.0, 0.2]) == 0.5

    def test_gamma_shape_one_matches_exponential(self):
        got = p_ge_mean(Distribution.gamma(1.0), [2.0, 1.0])
        assert math.isclose(got, HYPOEXP21_AT_3, rel_tol=1e-12)

    def test_gamma_general_shape(self):
        assert abs(p_ge_mean(GAMMA2, [2.0, 1.0]) - GAMMA2_W21_AT_6) <= 2e-9

    def test_stays_inside_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            w = random_weights(rng, max_n=6)
            assert 0.0 < p_ge_mean(EXP, w) < 1.0


class TestSeriesHelpers:
    def test_cluster_scales_merges_close_values(self):
        groups = _cluster_scales([1.0, 1.0 + 5e-10, 3.0])
        assert [m for _, m in groups] == [2, 1]
        assert math.isclose(groups[0][0], 1.0 + 2.5e-10, rel_tol=1e-12)
        assert groups[1][0] == 3.0

    def test_recip_power_series_binomial(self):
        # (2 - z)^{-3} = 1/8 + 3/16 z + 3/16 z^2 + ...
        got = _recip_power_series(2.0, -1.0, 3, 2)
        want = [0.125, 0.1875, 0.1875]
        assert np.allclose(got, want, rtol=1e-15)

    def test_series_product_truncates(self):
        got = _series_product([[1.0, 1.0], [1.0, 2.0, 3.0]], 2)
        assert got == [1.0, 3.0, 5.0]
