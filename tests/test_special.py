"""Special functions: Erlang tails and the h rate shape.

Frozen reference values come from tests/oracles/closed_forms.py (mpmath at
50 significant digits); Erlang tails are checked against mpmath directly.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from verifiers import h_sup

from exptails.core import InvalidInputError
from exptails.special import gamma_upper_tail, h_closed

EPS = sys.float_info.epsilon


def erlang_rel_errors(ks, xs):
    """|gamma_upper_tail(k, x) / Q(k+1, x) - 1| with Q from mpmath at 40 digits,
    over the tails in the normal float range."""
    errors = []
    with mp.workdps(40):
        for k, x in zip(ks, xs):
            k, x = int(k), float(x)
            want = mp.gammainc(k + 1, x, mp.inf, regularized=True)
            if want >= sys.float_info.min:
                errors.append(float(abs(gamma_upper_tail(k, x) / want - 1)))
    return np.array(errors)


class TestGammaUpperTail:
    def test_small_orders_within_16_eps(self):
        # orders below 64, out to where e^-x nears the end of the normal range
        rng = np.random.default_rng(23)
        ks = rng.integers(0, 64, 2000)
        xs = 10.0 ** rng.uniform(-3.0, math.log10(700.0), 2000)
        assert erlang_rel_errors(ks, xs).max() <= 16 * EPS

    def test_large_orders_around_the_mean(self):
        # orders up to 1000, from half to three times the mean, where e^-x
        # under- and x^k overflows
        rng = np.random.default_rng(29)
        ks = rng.integers(64, 1000, 400)
        xs = ks * rng.uniform(0.5, 3.0, 400)
        errors = erlang_rel_errors(ks, xs)
        assert len(errors) >= 300
        assert errors.max() <= 4e-12

    def test_closed_forms(self):
        assert gamma_upper_tail(0, 2.5) == math.exp(-2.5)
        assert math.isclose(gamma_upper_tail(1, 2.0), 3.0 * math.exp(-2.0), rel_tol=2 * EPS)
        for k in (0, 5, 1000):
            assert gamma_upper_tail(k, 0.0) == 1.0
            assert gamma_upper_tail(k, math.inf) == 0.0

    def test_below_the_smallest_float_is_zero(self):
        assert gamma_upper_tail(3, 1e4) == 0.0
        assert gamma_upper_tail(0, 800.0) == 0.0
        assert gamma_upper_tail(10, 1e300) == 0.0

    @pytest.mark.parametrize("k, x", [(-1, 1.0), (2, -1.0), (2, math.nan), (1.5, 1.0)])
    def test_invalid_arguments(self, k, x):
        with pytest.raises((InvalidInputError, TypeError)):
            gamma_upper_tail(k, x)

class TestErlangTails:
    """Q(p+1, x) for every power p <= k on one x."""

    @pytest.mark.parametrize("k, x", [(5, 0.3), (40, 12.5), (40, 80.0), (300, 250.0),
                                      (999, 999.0), (999, 1500.0), (200, 900.0)])
    def test_each_power_matches_its_own_tail(self, k, x):
        # the Poisson partial sums e^-x sum_{j<=p} x^j/j! at 40 digits
        with mp.workdps(40):
            term = mp.exp(-mp.mpf(x))
            want = term
            for p in range(k + 1):
                if p:
                    term *= mp.mpf(x) / p
                    want += term
                if want >= sys.float_info.min:
                    assert abs(gamma_upper_tail(p, x) / want - 1) <= 4e-12, p

    @pytest.mark.parametrize("k, x", [(40, 12.5), (300, 250.0), (999, 1500.0), (9999, 10500.0)])
    def test_against_mpmath(self, k, x):
        with mp.workdps(40):
            for p in range(0, k + 1, max(1, k // 25)):
                want = mp.gammainc(p + 1, x, mp.inf, regularized=True)
                if want >= sys.float_info.min:
                    assert abs(gamma_upper_tail(p, x) / want - 1) <= 4e-12

    def test_simple_and_degenerate(self):
        assert gamma_upper_tail(0, 2.5) == math.exp(-2.5)
        # one exp past the split of e^-x, where it is subnormal
        assert gamma_upper_tail(0, 720.0) == math.exp(-720.0) > 0.0
        assert gamma_upper_tail(3, 0.0) == 1.0
        assert gamma_upper_tail(3, math.inf) == 0.0
        assert gamma_upper_tail(3, 1e4) == 0.0


# closed_forms.py: h_at_* block
H_FROZEN = {
    0.5: 0.0606928746909751245458,
    2.0: 0.754856152440186248911,
    3.0: 1.4293624018229565067,
    math.sqrt(3.0): 0.594534891891835618022,
    8.0 / math.sqrt(10.0): 1.09963855753759256533,
}


class TestHClosed:
    def test_frozen_values(self):
        for u, want in H_FROZEN.items():
            assert math.isclose(h_closed(u), want, rel_tol=1e-14)

    def test_tiny_argument_is_stable(self):
        # naive sqrt(1+u^2)-1 loses all digits here; closed_forms.py gives
        # h(1e-4) = 2.49999999687500001042e-9
        assert math.isclose(h_closed(1e-4), 2.49999999687500001042e-9, rel_tol=1e-12)

    def test_huge_arguments_against_mpmath(self):
        # past u = 1.34e154 u^2 overflows; below it the value keeps its bits
        for u in (*map(float, np.geomspace(1e3, 1e308, 60)), 1.3407807929942596e154,
                  1.3407807929942597e154, sys.float_info.max):
            with mp.workdps(40):
                root = mp.sqrt(1 + mp.mpf(u) ** 2)
                want = root - 1 - mp.log((1 + root) / 2)
            assert abs(h_closed(u) - want) <= 4 * EPS * want, u
        u = 1e150
        d = u * u / (1.0 + math.hypot(1.0, u))
        assert h_closed(u) == d - math.log1p(0.5 * d)

    def test_zero_and_negative(self):
        assert h_closed(0.0) == 0.0
        with pytest.raises(InvalidInputError):
            h_closed(-0.5)

    def test_infinity_is_inf_and_nan_raises(self):
        assert h_closed(math.inf) == math.inf
        for u in (-math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                h_closed(u)

    def test_monotone_increasing(self):
        grid = np.geomspace(1e-3, 1e3, 400)
        values = [h_closed(float(u)) for u in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_regime_floors(self):
        """Quadratic floor u^2/5 below sqrt(2), linear floor u/4 above."""
        for u in map(float, np.geomspace(1e-3, 1e3, 200)):
            if u < math.sqrt(2.0):
                assert h_closed(u) >= u * u / 5.0
            else:
                assert h_closed(u) >= u / 4.0


class TestHSup:
    def test_matches_closed_form_on_grid(self):
        for u in map(float, np.geomspace(1e-3, 1e3, 60)):
            value, _ = h_sup(u)
            assert abs(value - h_closed(u)) <= 1e-10

    def test_argmax(self):
        # stationarity: theta* = (sqrt(1+u^2) - 1)/u; closed_forms.py theta_star_at_3
        # Golden section locates the maximizer of a flat quadratic peak only to
        # about sqrt(eps), even though the value itself is good to 1e-10.
        _, theta = h_sup(3.0)
        assert math.isclose(theta, 0.720759220056126444, rel_tol=1e-6)

