"""Property tests of the contour-inversion engine against independent references.

Derandomized, so every run draws the same examples and the suite stays
deterministic.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from exptails.core import Distribution, as_weights
from exptails.legendre import _solve_cumulant_prime, cumulant_double_prime
from exptails.oracle import _bromwich, cf_tail_inversion, hypoexp_mixture, laplace_mixture

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _log10_uniform(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda x: 10.0**x)


@st.composite
def separated_weights(draw, max_n=6):
    """Weights whose sorted neighbours differ by a factor of at least 1.5."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    first = draw(_log10_uniform(-200.0, 200.0))
    ratios = draw(st.lists(st.floats(min_value=1.5, max_value=4.0), min_size=n - 1, max_size=n - 1))
    weights = [first]
    for r in ratios:
        weights.append(weights[-1] * r)
    return draw(st.permutations(weights))


@PROPERTY
@given(
    shape=_log10_uniform(-3.0, 4.0),
    n=st.integers(min_value=1, max_value=2000),
    scale=_log10_uniform(-200.0, 200.0),
    factor=_log10_uniform(-2.0, 2.0),
)
def test_equal_weight_gamma_matches_closed_form(shape, n, scale, factor):
    t = factor * n * shape * scale
    ref = gammaincc(n * shape, t / scale)
    got = cf_tail_inversion(Distribution.gamma(shape), [scale] * n, t)
    assert abs(got - ref) <= 1e-9 * ref + 1e-300, (got, ref)


@PROPERTY
@given(weights=separated_weights(max_n=8), z=st.floats(min_value=0.0, max_value=30.0))
@example(weights=[1.0, 1.5], z=5e-324)
def test_laplace_symmetry(weights, z):
    d = Distribution.laplace()
    t = z * math.sqrt(d.variance) * math.hypot(*weights)
    up = cf_tail_inversion(d, weights, t)
    assert 0.0 <= up <= 0.5
    assert cf_tail_inversion(d, weights, -t) == 1.0 - up


@PROPERTY
@given(weights=separated_weights(), z=st.floats(min_value=-3.0, max_value=30.0))
def test_agrees_with_hypoexp_mixture(weights, z):
    d = Distribution.exponential()
    t = sum(weights) + z * math.hypot(*weights)
    ref = hypoexp_mixture(weights).tail(t)
    assert abs(cf_tail_inversion(d, weights, t) - ref) <= 1e-10 * ref


@PROPERTY
@given(weights=separated_weights(), z=st.floats(min_value=-30.0, max_value=30.0))
def test_agrees_with_laplace_mixture(weights, z):
    d = Distribution.laplace()
    t = z * math.sqrt(d.variance) * math.hypot(*weights)
    ref = laplace_mixture(weights).tail(t)
    assert abs(cf_tail_inversion(d, weights, t) - ref) <= 1e-10 * ref


@pytest.mark.parametrize("n", [1, 8, 64, 1000])
@pytest.mark.parametrize("d", [Distribution.exponential(), Distribution.gamma(0.5), Distribution.laplace()],
                         ids=lambda d: d.label())
def test_contour_integral_does_not_depend_on_theta(d, n):
    # P(S > t) = exp(K(theta) - theta t) I(theta) / theta for every theta in
    # (0, 1/b_max), I being the normalised integral; the nodes of each theta
    # fall elsewhere on its own hyperbola.  theta moves a quarter of the way to
    # either end of the domain, but at most one saddle width 1/sqrt(K''): far
    # beyond it, M(theta) e^(-theta t) exceeds the tail so much that the
    # integral cancels below rounding (by e^17 for a quarter of the domain at
    # n = 1000), and no trapezoid sum meets the 1e-12 agreement there
    rng = np.random.default_rng(n)
    w = as_weights(np.exp(rng.uniform(math.log(0.5), math.log(2.0), n)).tolist())
    b = d.scales(w) / w.unit
    mean = d.mean * w.l1 / w.unit
    sigma = math.sqrt(d.variance) * w.l2 / w.unit
    end = 1.0 / b.max()
    for z in (0.3, 3.0, 8.0, 30.0):
        t = mean + z * sigma
        star = _solve_cumulant_prime(b, d.shape, t)
        width = min(1.0 / math.sqrt(cumulant_double_prime(b, d.shape, star)), star, end - star)
        tails = []
        for theta in (star - min(0.25 * star, width), star, star + min(0.25 * (end - star), width)):
            integral, err = _bromwich(b, d.shape, theta, t, 0.0)
            with mp.workdps(30):
                th = mp.mpf(theta)
                rate = mp.fsum(-d.shape * mp.log1p(-mp.mpf(v) * th) for v in b.tolist()) - th * t
                scale = mp.exp(rate) / th
                tails.append((scale * integral, scale * err))
        (lo, lo_err), (mid, mid_err), (hi, hi_err) = tails
        assert abs(lo - mid) <= lo_err + mid_err, (z, lo, mid)
        assert abs(hi - mid) <= hi_err + mid_err, (z, hi, mid)
