"""Cumulants over signed scales, the Chernoff tilt solver, and the Cramer rate function."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from verifiers import cumulant_sums_by_list, h_sup, rate_argmax

from exptails import legendre
from exptails.core import Distribution, InvalidInputError, UnsupportedLawError, _array_fsum
from exptails.legendre import (
    chernoff_tilt,
    cumulant,
    cumulant_slopes,
    rate_function,
)
from exptails.special import h_closed

EXP = Distribution.exponential()
LAP = Distribution.laplace()
GAMMA2 = Distribution.gamma(2.0)

_LAWS = (EXP, LAP, GAMMA2, Distribution.gamma(0.5))


def log_mgf(d, theta):
    """psi(theta) of one unit summand: the cumulant at the weight vector [1]."""
    return cumulant(d.scales([1.0]), d.shape, theta)


def log_mgf_prime(d, theta):
    return cumulant_slopes(d.scales([1.0]), d.shape, theta)[0]


class TestLogMgf:
    def test_closed_forms(self):
        assert math.isclose(log_mgf(EXP, 0.5), math.log(2.0), rel_tol=1e-15)
        assert math.isclose(log_mgf(GAMMA2, 0.5), 2.0 * math.log(2.0), rel_tol=1e-15)
        assert math.isclose(log_mgf(LAP, 0.5), -math.log(0.75), rel_tol=1e-15)
        # Laplace MGF is even in theta
        assert log_mgf(LAP, -0.5) == log_mgf(LAP, 0.5)

    def test_domain_boundary(self):
        assert log_mgf(EXP, 1.0) == math.inf
        assert log_mgf(GAMMA2, 2.0) == math.inf
        assert log_mgf(LAP, 1.0) == math.inf
        assert log_mgf(LAP, -1.0) == math.inf

    def test_zero_tilt(self):
        for d in _LAWS:
            assert log_mgf(d, 0.0) == 0.0

    def test_prime_matches_finite_difference(self):
        eps = 1e-6
        rng = np.random.default_rng(5)
        for d in _LAWS:
            for _ in range(50):
                theta = float(rng.uniform(-0.9 if d is LAP else -2.0, 0.9))
                numeric = (log_mgf(d, theta + eps) - log_mgf(d, theta - eps)) / (2.0 * eps)
                assert math.isclose(log_mgf_prime(d, theta), numeric, rel_tol=1e-7, abs_tol=1e-7)


class TestSumLogMgf:
    def test_additivity(self):
        w = [2.0, 1.0, 0.5]
        theta = 0.3
        expected = math.fsum(log_mgf(EXP, theta * a) for a in w)
        assert math.isclose(cumulant(EXP.scales(w), EXP.shape, theta), expected, rel_tol=1e-15)

    def test_prime_scales_weights(self):
        w = [2.0, 1.0]
        theta = 0.2
        expected = math.fsum(a * log_mgf_prime(LAP, theta * a) for a in w)
        got = cumulant_slopes(LAP.scales(w), LAP.shape, theta)[0]
        assert math.isclose(got, expected, rel_tol=1e-14)


class TestBufferSums:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 999, 3000])
    def test_sums_keep_the_bits_of_list_copies(self, n, monkeypatch):
        # fsum reads the same terms in the same order from the buffer as from
        # a list, so every sum keeps its correctly rounded bits
        rng = np.random.default_rng(n)
        scales = np.exp(rng.uniform(-5.0, 5.0, 2 * n)) * rng.choice([1.0, -1.0], 2 * n)
        for b in (scales, scales[::2]):  # contiguous and strided
            for shape in (0.5, 3.0, np.exp(rng.uniform(-3.0, 3.0, len(b)))):
                reach = 1.0 / np.abs(b).max()
                for theta in (-0.9 * reach, -1e-3 * reach, 0.3 * reach, 0.99 * reach):
                    got = (cumulant(b, shape, theta), *cumulant_slopes(b, shape, theta))
                    want = cumulant_sums_by_list(b, shape, theta)
                    assert [v.hex() for v in got] == [v.hex() for v in want[:3]]
                # the saddle solve's first sum is its mean test
                sums = []
                with monkeypatch.context() as patch:
                    patch.setattr(legendre, "_array_fsum",
                                  lambda terms: sums.append(_array_fsum(terms)) or sums[-1])
                    legendre._solve_cumulant_prime(b, shape, abs(want[3]) + 1.0)
                assert sums[0].hex() == want[3].hex()


class TestListForm:
    """Scales as a list of floats with a list of shapes: the bits of the arrays, whatever the width."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
           signed=st.booleans(), per_column=st.booleans())
    @example(n=legendre.NARROW, seed=1, signed=True, per_column=True)
    @example(n=legendre.NARROW + 1, seed=2, signed=False, per_column=False)
    def test_lists_keep_the_bits_of_arrays(self, n, seed, signed, per_column):
        rng = np.random.default_rng(seed)
        b = np.exp(rng.uniform(-5.0, 5.0, n))
        if signed:
            b *= rng.choice([1.0, -1.0], n)
        shape = np.exp(rng.uniform(-3.0, 3.0, n)) if per_column else float(np.exp(rng.uniform(-3.0, 3.0)))
        listed = (b.tolist(), np.broadcast_to(shape, b.shape).tolist())
        reach = 1.0 / np.abs(b).max()
        for theta in (-0.9 * reach, -1e-3 * reach, 0.3 * reach, 0.99 * reach, 1.5 * reach):
            assert cumulant(*listed, theta).hex() == cumulant(b, shape, theta).hex()
            slopes = [v.hex() for v in cumulant_slopes(*listed, theta)]
            assert slopes == [v.hex() for v in cumulant_slopes(b, shape, theta)]
        mean = math.fsum(listed[0][j] * listed[1][j] for j in range(n))
        sigma = math.sqrt(cumulant_slopes(b, shape, 0.0)[1])
        for z in (-1.5, -0.1, 0.0, 0.5, 4.0):
            target = mean + z * sigma
            if z < 0.0 and not signed and target <= 0.0:
                continue  # no root below the mean of a positive sum
            got = legendre._solve_cumulant_prime(*listed, target)
            assert type(got) is float and got.hex() == legendre._solve_cumulant_prime(b, shape, target).hex()


class TestChernoffTilt:
    def test_single_exponential_closed_form(self):
        # psi'(theta) = 1/(1-theta) = t solves to theta = 1 - 1/t
        assert math.isclose(chernoff_tilt(EXP, [1.0], 2.0), 0.5, rel_tol=1e-9)

    def test_single_gamma_closed_form(self):
        assert math.isclose(chernoff_tilt(GAMMA2, [1.0], 4.0), 0.5, rel_tol=1e-9)

    def test_single_laplace_frozen(self):
        # 2 theta/(1-theta^2) = 3 gives theta = (sqrt(10)-1)/3; closed_forms.py
        # theta_star_at_3 (same stationarity as the h supremum)
        assert math.isclose(chernoff_tilt(LAP, [1.0], 3.0), 0.720759220056126444, rel_tol=1e-9)

    def test_two_weights_to_the_last_bits(self):
        # 1/(1-theta) + 2/(1-2 theta) = 9 is 18 theta^2 - 23 theta + 6 = 0, root
        # (23 - sqrt(97))/36; stopping on the step size left it 1e-12 off
        with mp.workdps(40):
            root = float((23 - mp.sqrt(97)) / 36)
        theta = chernoff_tilt(EXP, [1.0, 2.0], 9.0)
        assert abs(theta - root) <= 4 * math.ulp(root)

    def test_stationarity_on_random_instances(self):
        rng = np.random.default_rng(11)
        for d in _LAWS:
            for _ in range(25):
                n = int(rng.integers(1, 9))
                w = list(np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)))
                mean_s = d.mean * math.fsum(w)
                target = mean_s + float(rng.uniform(0.2, 20.0)) * max(w)
                theta = chernoff_tilt(d, w, target)
                assert 0.0 < theta < 1.0 / max(w)
                achieved = cumulant_slopes(d.scales(w), d.shape, theta)[0]
                assert math.isclose(achieved, target, rel_tol=1e-9)

    def test_matches_mpmath_root(self):
        # thresholds 1 to 30 sigma above the mean, where rounding of K' moves
        # the root by a few ulp at most; stopping on a bisection point after
        # a converged Newton step left roots as far as 1e-11 off
        rng = np.random.default_rng(3)
        for i in range(300):
            d = (EXP, LAP, None)[i % 3] or Distribution.gamma(10.0 ** rng.uniform(-2.0, 3.0))
            n = int(rng.integers(1, 13))
            w = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)).tolist()
            sigma = math.sqrt(d.variance) * math.hypot(*w)
            target = d.mean * math.fsum(w) + 30.0 ** rng.uniform(0.0, 1.0) * sigma
            theta = chernoff_tilt(d, w, target)
            with mp.workdps(40):
                b = [mp.mpf(v) for v in d.scales(w).tolist()]
                root = mp.mpf(theta)
                for _ in range(8):
                    k1 = mp.fsum(d.shape * v / (1 - v * root) for v in b) - target
                    root -= k1 / mp.fsum(d.shape * (v / (1 - v * root)) ** 2 for v in b)
                assert abs(theta - root) <= 1e-14 * root, (d.label(), w, target)

    def test_converged_solve_stops(self, monkeypatch):
        # an oracle_sweep threshold of an equal-weight sum that took 34
        # Newton iterations when a converged step fell on the bracket end
        evaluations = []

        slopes = legendre.cumulant_slopes

        def counted(*args):
            evaluations.append(args)
            return slopes(*args)

        monkeypatch.setattr(legendre, "cumulant_slopes", counted)
        chernoff_tilt(Distribution.gamma(3.2003041941695285), [0.14627827318435258] * 8,
                      18.255628424904334)
        assert len(evaluations) <= 12

    @pytest.mark.parametrize(
        "d, w",
        [(EXP, [2.0, 1.0]), (EXP, [1.0, 2.0, 3.0]), (LAP, [2.0, 1.0]), (LAP, [3.0, 1.0]), (LAP, [1.0, 2.0, 3.0])],
    )
    def test_one_float_above_the_mean_tilts_up(self, d, w):
        # a converged Newton step left the bracket [0, hi] below 0, and a
        # Laplace target of one subnormal rounded to the mean 0 in units of
        # w.unit, where the solve took the bracket below it
        theta = chernoff_tilt(d, w, math.nextafter(d.mean * math.fsum(w), math.inf))
        assert type(theta) is float and 0.0 < theta < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 999, 3000])
    def test_the_solve_keeps_to_its_bracket(self, n):
        # one float above the mean of 2n signed scales, where rounding in K'
        # outweighs K'' theta
        rng = np.random.default_rng(n)
        b = np.exp(rng.uniform(-5.0, 5.0, 2 * n)) * rng.choice([1.0, -1.0], 2 * n)
        for shape in (0.5, 3.0):
            mean = math.fsum((b * shape).tolist())
            theta = legendre._solve_cumulant_prime(b, shape, math.nextafter(mean, math.inf))
            assert type(theta) is float and 0.0 <= theta < 1.0 / b.max()

    def test_target_must_exceed_mean(self):
        with pytest.raises(InvalidInputError):
            chernoff_tilt(EXP, [2.0, 1.0], 3.0)
        with pytest.raises(InvalidInputError):
            chernoff_tilt(LAP, [1.0], 0.0)


class TestRateFunction:
    def test_exponential_frozen(self):
        # closed_forms.py: rate_exp_at_2 = 2 - 1 - log 2
        rate = rate_function(EXP, 2.0)
        assert math.isclose(rate, 0.306852819440054690583, rel_tol=1e-14)
        theta = rate_argmax(EXP, 2.0)
        assert math.isclose(theta, 0.5, rel_tol=1e-14)
        assert math.isclose(2.0 * theta - log_mgf(EXP, theta), rate, rel_tol=1e-14)

    def test_gamma_frozen(self):
        # closed_forms.py: rate_gamma2_at_4 = 4 - 2 - 2 log 2
        rate = rate_function(GAMMA2, 4.0)
        assert math.isclose(rate, 0.613705638880109381166, rel_tol=1e-14)
        theta = rate_argmax(GAMMA2, 4.0)
        assert math.isclose(4.0 * theta - log_mgf(GAMMA2, theta), rate, rel_tol=1e-14)

    @pytest.mark.parametrize("d", [EXP, GAMMA2, Distribution.gamma(0.5)], ids=lambda d: d.label())
    def test_the_rate_is_attained_at_its_argmax(self, d):
        # t theta - psi(theta) is concave with its maximum, the rate, at theta*
        for t in (1.5 * d.shape, 4.0 * d.shape, 30.0 * d.shape):
            theta = rate_argmax(d, t)
            assert math.isclose(log_mgf_prime(d, theta), t, rel_tol=1e-14)
            rate = rate_function(d, t)
            for off in (-1e-3, 1e-3):
                assert t * (theta + off) - log_mgf(d, theta + off) < rate

    def test_laplace_equals_h(self):
        """The Laplace rate t theta* - psi(theta*) is h(t); rate_function has no Laplace form."""
        for t in (0.5, 1.0, 3.0, 10.0):
            _, theta = h_sup(t)
            assert math.isclose(t * theta - log_mgf(LAP, theta), h_closed(t), rel_tol=1e-10)
            with pytest.raises(UnsupportedLawError):
                rate_function(LAP, t)

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            rate_function(EXP, 1.0)
        with pytest.raises(InvalidInputError):
            rate_function(GAMMA2, 2.0)
        with pytest.raises(InvalidInputError):
            rate_function(LAP, 0.0)

    def test_rate_is_convex_increasing_beyond_mean(self):
        values = [rate_function(EXP, t) for t in np.linspace(1.1, 8.0, 40)]
        diffs = np.diff(values)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) > 0)
