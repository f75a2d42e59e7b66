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
from verifiers import contour_sum_by_scales

from exptails import oracle
from exptails.core import Distribution, NumericFailureError, as_weights
from exptails.legendre import _solve_cumulant_prime, cumulant_slopes
from exptails.oracle import _bromwich, cf_tail_inversion, exact_tail, hypoexp_mixture, laplace_mixture

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
    if t > 0.0:
        assert 0.0 <= cf_tail_inversion(d, weights, t) <= 0.5
    up = exact_tail(d, weights, t)[0]
    assert 0.0 <= up <= 0.5
    assert exact_tail(d, weights, -t)[0] == 1.0 - up


@PROPERTY
@given(weights=separated_weights(), z=st.floats(min_value=-3.0, max_value=30.0))
def test_agrees_with_hypoexp_mixture(weights, z):
    d = Distribution.exponential()
    t = sum(weights) + z * math.hypot(*weights)
    if t <= 0.0:
        # the routes take only t > 0; exact_tail answers below
        assert exact_tail(d, weights, t)[0] == 1.0
        return
    ref = hypoexp_mixture(weights).tail(t)
    assert abs(cf_tail_inversion(d, weights, t) - ref) <= 1e-10 * ref


@PROPERTY
@given(weights=separated_weights(), z=st.floats(min_value=-30.0, max_value=30.0))
def test_agrees_with_laplace_mixture(weights, z):
    # the routes take only t > 0: below 0 they are compared at |t|, where the
    # tolerance is relative to the smaller of the two tails
    d = Distribution.laplace()
    t = abs(z) * math.sqrt(d.variance) * math.hypot(*weights)
    if t == 0.0:
        assert exact_tail(d, weights, t)[0] == 0.5
        return
    ref = laplace_mixture(weights).tail(t)
    assert abs(cf_tail_inversion(d, weights, t) - ref) <= 1e-10 * ref


def _seeded_scales(d, n):
    """n weights log-uniform on [0.5, 2] seeded by n, and the law's scales in units of w.unit."""
    rng = np.random.default_rng(n)
    w = as_weights(np.exp(rng.uniform(math.log(0.5), math.log(2.0), n)).tolist())
    return w, d.scales(w) / w.unit


def _seeded_columns(d, n):
    """The contour's columns of the seeded weights, as the oracle prepares them."""
    return oracle._sum(d, _seeded_scales(d, n)[0]).columns


_EXP, _LAP, _HALF = Distribution.exponential(), Distribution.laplace(), Distribution.gamma(0.5)
_SMALL_SHAPE = Distribution.gamma(0.01)

# (law, n, theta, t, p, integral, error), recorded with the engine at commit
# 4d96c42: saddles above and below the mean (theta < 0), shapes whose walk
# spans several calls, and the order p = 3 of laplace_abs_norm.  The Laplace
# rows at n = 8 (p = 0) and n = 1000 were re-recorded when the integrand took
# each pair +-a as one column: the first integral moved to 5.7e-17 from
# 120-digit partial fractions (1.4e-16 before), the rest in the error's last bit.
# Ten rows were re-recorded when the halving loop began to stop on the finer
# sum's predicted error, diff^2 / |sum|: each error moved, and three integrals
# against a 35-digit mpmath quadrature of the same integral, gamma(0.01) n = 8
# from 9.8e-17 to 5.5e-16, gamma(1000) n = 64 from 4.0e-15 to 4.4e-15 and the
# exponential n = 1000 from 5.4e-17 to 1.9e-16
_CONTOUR_TABLE = [
    (_EXP, 1, 0.7378089788641198, 4.066093102605765, 0.0, 0.06785618870895123, 7.444554097280287e-17),
    (_HALF, 1, 0.9610921460255009, 22.071976681238613, 0.0, 0.010479064558595081, 1.4341713164719793e-17),
    (_EXP, 8, 0.4562406451255536, 37.4589575065507, 0.0, 0.0175041648292667, 1.6178588541234365e-17),
    (Distribution.gamma(3.2), 8, 0.4875206657804345, 218.6316694157629, 0.0, 0.004519045443971526,
     4.038342206499287e-18),
    (_LAP, 8, 0.3729588673893503, 14.929859877460174, 0.0, 0.034553773068560126, 3.0871199263938944e-17),
    (_EXP, 8, -1.0618504800995725, 4.02844116174672, 0.0, 0.24246629070244288, 2.1535397613311878e-16),
    (_HALF, 8, -0.5943062023303857, 2.662823887591265, 0.0, 0.2059714602350648, 1.8295683185136481e-16),
    (_SMALL_SHAPE, 8, 0.49802260153493094, 1.1487699535767573, 0.0, 0.015320132182520787,
     1.0835993795950375e-16),
    (_HALF, 64, 0.2653950801847325, 56.38974795384952, 0.0, 0.030162860281106083, 2.6790002224192444e-17),
    (_LAP, 64, 0.38004299628328736, 109.10594557749879, 0.0, 0.015329976743140909, 1.3615754517762572e-17),
    (Distribution.gamma(1000.0), 64, 0.0009823476387037845, 71956.25443278477, 0.0, 0.0003920442156732765,
     3.504797414578665e-19),
    (_SMALL_SHAPE, 120, 0.495665439401471, 4.66810225149632, 0.0, 0.03585041916931445, 4.8759490953475865e-17),
    (_EXP, 1000, 0.00821442497422809, 1073.3277277784853, 0.0, 0.003244052177416453, 2.8922783459936188e-18),
    (_LAP, 1000, 0.14934750610020295, 408.5070118347538, 0.0, 0.007159665447949514, 6.433221401883985e-18),
    (_HALF, 1000, 0.417105248832194, 1297.1984221125822, 0.0, 0.005051678488615784, 4.506908477944877e-18),
    (_LAP, 8, 0.3361380669563512, 0.0, 3.0, 0.0428323672709773, 3.804858761016296e-17),
]


@pytest.mark.parametrize("d, n, theta, t, p, integral, err", _CONTOUR_TABLE,
                         ids=[f"{row[0].label()}-{row[1]}-{row[2]:.3g}-p{row[4]:g}" for row in _CONTOUR_TABLE])
def test_contour_values_are_fixed(d, n, theta, t, p, integral, err):
    # the nodes, their order of summation and the stop rules fix every bit
    assert _bromwich(_seeded_columns(d, n), theta, t, p) == (integral, err)


@pytest.mark.parametrize("d, n, theta, t, p, integral, err", _CONTOUR_TABLE,
                         ids=[f"{row[0].label()}-{row[1]}-{row[2]:.3g}-p{row[4]:g}" for row in _CONTOUR_TABLE])
def test_unit_counts_keep_the_contour_values(d, n, theta, t, p, integral, err):
    # distinct scales have unit counts, whose products the record skips:
    # taking them keeps every bit
    columns = _seeded_columns(d, n)
    assert columns.count is None
    counted = columns._replace(count=np.ones(len(columns.coef_b)))
    assert _bromwich(counted, theta, t, p) == (integral, err)


def test_unconverged_inversion_stops_at_the_last_halving(monkeypatch):
    # the walk-out's one call takes 64 nodes and their midpoints, so it
    # carries the first halving of the W nodes it keeps; the second to the
    # last halving evaluate 2W, 4W, ..., 128W midpoints, and no call follows
    sizes = []
    sinh = np.sinh

    def counted(u):
        sizes.append(len(u))
        return sinh(u)

    monkeypatch.setattr(np, "sinh", counted)
    monkeypatch.setattr(oracle, "_INV_RTOL", -1.0)
    columns = _seeded_columns(_EXP, 8)
    with pytest.raises(NumericFailureError, match="did not converge"):
        _bromwich(columns, 0.4562406451255536, 37.4589575065507, 0.0)
    walk, halvings = sizes[0], sizes[1:]
    assert halvings == [halvings[0] * 2**k for k in range(oracle._MAX_HALVINGS - 1)]
    assert walk == 128 and halvings[0] < walk


def test_a_converged_walk_makes_the_only_integrand_calls(monkeypatch):
    # n = 1000 exponential: each call of the walk takes 32 nodes and their
    # midpoints, and the walk keeps 36 nodes, so it makes two calls.  The
    # first halving sums the walk's midpoints, and its predicted error,
    # diff^2 / |sum|, meets the tolerance: no halving calls the integrand
    sizes = []
    sinh = np.sinh

    def counted(u):
        sizes.append(len(u))
        return sinh(u)

    d, n, theta, t, p, integral, err = next(row for row in _CONTOUR_TABLE if row[:2] == (_EXP, 1000))
    columns = _seeded_columns(d, n)
    monkeypatch.setattr(np, "sinh", counted)
    assert _bromwich(columns, theta, t, p) == (integral, err)
    assert sizes == [64, 64]


# The seeded instances whose error estimates are checked: each law of the
# table at n = 1, 8, 64 and 1000, at mean + 0.3, 3 and 8 sigma
_HONEST_LAWS = (_EXP, _HALF, _LAP, _SMALL_SHAPE, Distribution.gamma(1000.0))
_HONEST_SIZES = [
    pytest.param(d, n, marks=pytest.mark.xfail(
        strict=True, reason="the estimate leaves out the integrand's own rounding, 1e-14 here"))
    if d.shape == 1000.0 and n == 1000 else (d, n)
    for d in _HONEST_LAWS for n in (1, 8, 64, 1000)
]


def _assert_honest(d, n, theta, t, p):
    # the actual error is measured against the trapezoid sum at h = 1/256 of
    # the same contour taken scale by scale, three halvings finer than any
    # accepted sum here (every one stops by h = 1/32)
    w, b = _seeded_scales(d, n)
    integral, err = _bromwich(oracle._sum(d, w).columns, theta, t, p)
    actual = abs(integral - contour_sum_by_scales(b, d.shape, theta, t, p, 1.0 / 256))
    assert actual <= 10.0 * err, (theta, t, actual / err)


@pytest.mark.parametrize("d, n, theta, t, p, integral, err", _CONTOUR_TABLE,
                         ids=[f"{row[0].label()}-{row[1]}-{row[2]:.3g}-p{row[4]:g}" for row in _CONTOUR_TABLE])
def test_contour_error_estimates_are_honest(d, n, theta, t, p, integral, err):
    # no error estimate is more than 10 times too small
    _assert_honest(d, n, theta, t, p)


@pytest.mark.parametrize("d, n", _HONEST_SIZES,
                         ids=lambda v: v.label() if isinstance(v, Distribution) else str(v))
def test_seeded_error_estimates_are_honest(d, n):
    # at the saddle, and on the contour two saddle widths above it (at most
    # half way to the branch point), where the first halvings are coarse
    # enough that the predicted error, not the rounding, is the estimate
    w, b = _seeded_scales(d, n)
    mean = d.mean * w.l1 / w.unit
    sigma = math.sqrt(d.variance) * w.l2 / w.unit
    end = 1.0 / b.max()
    for z in (0.3, 3.0, 8.0):
        t = mean + z * sigma
        star = _solve_cumulant_prime(b, d.shape, t)
        width = min(1.0 / math.sqrt(cumulant_slopes(b, d.shape, star)[1]), star, end - star)
        for theta in (star, star + min(2.0 * width, 0.5 * (end - star))):
            _assert_honest(d, n, theta, t, 0.0)


@pytest.mark.parametrize("n", [1, 8, 64, 1000])
@pytest.mark.parametrize("d", [_EXP, _HALF, _LAP],
                         ids=lambda d: d.label())
def test_contour_integral_does_not_depend_on_theta(d, n):
    # P(S > t) = exp(K(theta) - theta t) I(theta) / theta for every theta in
    # (0, 1/b_max), I being the normalised integral; the nodes of each theta
    # fall elsewhere on its own hyperbola.  theta moves a quarter of the way to
    # either end of the domain, but at most one saddle width 1/sqrt(K''): far
    # beyond it, M(theta) e^(-theta t) exceeds the tail so much that the
    # integral cancels below rounding (by e^17 for a quarter of the domain at
    # n = 1000), and no trapezoid sum meets the 1e-12 agreement there
    w, b = _seeded_scales(d, n)
    columns = oracle._sum(d, w).columns
    mean = d.mean * w.l1 / w.unit
    sigma = math.sqrt(d.variance) * w.l2 / w.unit
    end = 1.0 / b.max()
    for z in (0.3, 3.0, 8.0, 30.0):
        t = mean + z * sigma
        star = _solve_cumulant_prime(b, d.shape, t)
        width = min(1.0 / math.sqrt(cumulant_slopes(b, d.shape, star)[1]), star, end - star)
        tails = []
        for theta in (star - min(0.25 * star, width), star, star + min(0.25 * (end - star), width)):
            integral, err = _bromwich(columns, theta, t, 0.0)
            with mp.workdps(30):
                th = mp.mpf(theta)
                rate = mp.fsum(-d.shape * mp.log1p(-mp.mpf(v) * th) for v in b.tolist()) - th * t
                scale = mp.exp(rate) / th
                tails.append((scale * integral, scale * err))
        (lo, lo_err), (mid, mid_err), (hi, hi_err) = tails
        assert abs(lo - mid) <= lo_err + mid_err, (z, lo, mid)
        assert abs(hi - mid) <= hi_err + mid_err, (z, hi, mid)


def test_paired_contour_on_near_equal_laplace_weights():
    # the Laplace integrand takes each pair +-a as one column; on weights
    # 0.3% to 30% apart (n = 2..12) it agrees with the integral of 60-digit
    # partial fractions, theta P(S > t) e^(theta t - K(theta)), within its
    # error estimate, at thresholds from 0.05 to 30 sigma
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 13))
        spacing = 10.0 ** rng.uniform(math.log10(0.003), math.log10(0.3))
        base = 10.0 ** rng.uniform(-1.0, 1.0)
        w = as_weights([base * (1.0 + spacing) ** k for k in range(n)])
        columns = oracle._sum(_LAP, w).columns
        assert columns.mirrored and len(columns.coef_b) == n
        t = 10.0 ** rng.uniform(math.log10(0.05), math.log10(30.0)) * math.sqrt(2.0) * w.l2 / columns.u
        theta = _solve_cumulant_prime(*columns.k, t)
        integral, err = _bromwich(columns, theta, t, 0.0)
        with mp.workdps(60):
            a = [mp.mpf(v) / columns.u for v in w.values]
            coefs = [mp.fprod(aj**2 / (aj**2 - ak**2) for k, ak in enumerate(a) if k != j)
                     for j, aj in enumerate(a)]
            tail = mp.fsum(c * mp.exp(-t / aj) for c, aj in zip(coefs, a)) / 2
            th = mp.mpf(theta)
            want = th * tail * mp.exp(th * t + mp.fsum(mp.log1p(-(aj * th) ** 2) for aj in a))
            worst = max(worst, abs(integral - want) / err)
    assert worst <= 1.0, worst
