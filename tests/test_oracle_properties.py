"""Property tests of the contour-inversion engine against independent references.

Derandomized, so every run draws the same examples and the suite stays
deterministic.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from exptails.core import Distribution
from exptails.oracle import cf_tail_inversion, hypoexp_mixture, laplace_mixture

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
