"""Exact tail oracles for weighted sums.

``exact_tail`` is the one place that knows the threshold domain and picks
how the upper tail P(S > x), x > 0, is computed:

* a partial-fraction mixture of the moment generating function (closed
  form and fast) for the laws that have one in core's table (exponential and
  Laplace) on distinct weights (simple poles), when its coefficients pass the
  trust gates; one expansion serves both, the Laplace MGF being the
  exponential one with every pole mirrored, and
* otherwise Bromwich inversion of the moment generating function by the
  trapezoid rule on a hyperbolic contour through the saddle point, with
  relative accuracy of about 1e-12 and an error estimate; it raises instead
  of returning a value outside [0, top].  The engine reads only the signed
  scales of ``Distribution.scales`` (every law is gamma(shape) on them),
  equal scales merged into one column of the summed shape and each mirrored
  pair +-a (a Laplace sum) into one integrand factor, in units of a power
  of two next to the largest weight so that no scale over- or underflows.
  Far below the scale of a gamma or exponential sum, where the saddle point
  leaves float range, the leading small-t term of P(S <= t) answers; far
  above it, where the Chernoff bound is below the smallest float, the tail
  is 0.

The tests drive both on the same instances and require agreement.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .core import (
    Distribution,
    InvalidInputError,
    MixtureUnavailableError,
    NumericFailureError,
    WeightVector,
    as_weights,
)
from .legendre import NARROW, _solve_cumulant_prime, cumulant, cumulant_slopes
from .special import _LOG_TINIEST

if TYPE_CHECKING:
    import numpy as np

_COEF_ABS_CAP = 1e12
_COEF_DRIFT_TOL = 1e-10
_MAX_DISTINCT_SCALES = 64
# Contour inversion: relative agreement of successive trapezoid sums, the
# largest u walked out to, the number of step halvings from h = 1/8, and the
# entries per array of a node block (64 KB of floats).
_INV_RTOL = 1e-12
_U_MAX = 30.0
_MAX_HALVINGS = 8
_BLOCK = 1 << 13
# Rounding error of a trapezoid sum, relative to h * sum |terms|.
_ROUNDING = 4.0 * sys.float_info.epsilon
# Veltkamp's splitting constant 2^27 + 1: halves of 26 bits multiply exactly
_SPLIT = 134217729.0
_FLOAT_MIN = sys.float_info.min


class MixtureTerm(NamedTuple):
    """One exponential tail term: coef * e^(-t/scale)."""

    coef: float
    scale: float


@dataclass(frozen=True)
class ExpMixture:
    """P(S > t) at t > 0 as ``top`` times a signed mixture of exponential tails.

    ``top`` is the tail at 0+: 1 for a nonnegative sum, 1/2 for a symmetric
    (Laplace) one, whose upper tail is half the coefficient-weighted
    exponential tails.  No terms, no nonzero coef, a coef not finite, a scale
    outside (0, inf), an absolute coefficient sum past float range, a sum off
    1 by more than _COEF_DRIFT_TOL or another ``top`` is an InvalidInputError.
    """

    terms: tuple[MixtureTerm, ...]
    top: float

    def __post_init__(self):
        # per term (coef, e, m, m_hi, m_lo), scale = m 2^e with m split into
        # Veltkamp halves m_hi + m_lo: the threshold-free part of ``tail``
        if self.top not in (1.0, 0.5) or not any(coef for coef, _ in self.terms):
            raise InvalidInputError(f"a mixture needs top 1 or 1/2 and a nonzero coefficient: {self!r}")
        split = []
        for j, (coef, scale) in enumerate(self.terms):
            if not (math.isfinite(coef) and 0.0 < scale < math.inf):
                raise InvalidInputError(f"mixture term {j + 1} needs a finite coef and a scale in (0, inf)")
            m, e = math.frexp(scale)
            m_hi = _SPLIT * m - (_SPLIT * m - m)
            split.append((coef, e, m, m_hi, m - m_hi))
        # with sum |coef| finite, no partial sum of the terms in ``tail`` overflows
        try:
            math.fsum(abs(coef) for coef, _ in self.terms)
        except OverflowError:
            raise InvalidInputError("the mixture's absolute coefficient sum leaves float range") from None
        drift = abs(self.coef_sum - 1.0)
        if drift > _COEF_DRIFT_TOL:
            raise InvalidInputError(f"partial-fraction coefficients do not sum to 1 (off by {drift:.3e})")
        object.__setattr__(self, "_split", tuple(split))

    @property
    def coef_sum(self) -> float:
        return math.fsum(t.coef for t in self.terms)

    @property
    def coef_abs_sum(self) -> float:
        return math.fsum(abs(t.coef) for t in self.terms)

    def tail(self, t: float) -> float:
        """P(S > t) for finite t > 0; ``exact_tail`` answers the other thresholds.

        The range is [0, top].  A value within the error bound
        |sum coef - 1| + 4 eps sum |coef| of a range end is that end; one
        further out raises MixtureUnavailableError, and so does a value below
        the normal range where the tail may still be a nonzero (subnormal)
        float.
        """
        t = float(t)
        if not 0.0 < t < math.inf:  # at t < 0 the terms grow: a wrong value, not an error
            raise InvalidInputError(f"threshold must be positive and finite, got {t!r}")
        # e^-x is corrected for the rounding of x = t/scale, which is off by
        # dx = (t - x scale)/scale and would grow the tail's relative error to
        # about x eps.  In units of the power of two next to scale, x scale
        # splits error-free (Dekker) without overflow; to first order the tail
        # moves by -dx e^-x.  Where e^-x underflows to 0 the term is coef * 0
        # whatever dx, so the correction is skipped
        parts = []
        for coef, e, m, m_hi, m_lo in self._split:
            try:
                r = math.ldexp(t, -e)
            except OverflowError:
                continue  # t/scale is past float range: the tail is 0
            x = r / m
            q = math.exp(-x)
            dx = 0.0
            if q and x >= _FLOAT_MIN:
                p = x * m
                hi = _SPLIT * x
                x_hi = hi - (hi - x)
                x_lo = x - x_hi
                p_err = ((x_hi * m_hi - p) + x_hi * m_lo + x_lo * m_hi) + x_lo * m_lo
                dx = ((r - p) - p_err) / m
            parts.append(coef * (q - dx * q))
        # a symmetric mixture's upper tail is half its exponential sum: the
        # scale is the range end
        value = self.top * math.fsum(parts)
        if value < _FLOAT_MIN:
            # exponential tails below the normal range lose relative accuracy,
            # and the signed sum may cancel into them; it is bounded by
            # sum |coef| times the tail at the largest scale
            x = t / max(term.scale for term in self.terms)
            if math.log(self.coef_abs_sum) - x >= _LOG_TINIEST:
                raise MixtureUnavailableError(
                    f"mixture tail {value!r} is below the normal range, where it loses accuracy"
                )
        if not 0.0 <= value <= self.top:
            err = abs(self.coef_sum - 1.0) + _ROUNDING * self.coef_abs_sum
            if not -err <= value <= self.top + err:
                raise MixtureUnavailableError(
                    f"mixture tail {value!r} leaves [0, {self.top}] by more than {err:.3e}"
                )
            value = min(max(value, 0.0), self.top)
        return value


def _build_mixture(weights: tuple[float, ...], two_sided: bool) -> "ExpMixture | str":
    """Partial fractions of the MGF prod_j (1 - b_j z)^(-1) over distinct scales.

    The coefficient of the pole z = 1/b_j, poles in ascending order of
    scale, is prod_{k != j} (1 - e_k)^(-1), e_k = b_k/b_j; the two-sided
    (Laplace) MGF mirrors every pole, and it becomes prod_{k != j}
    ((1 - e_k)(1 + e_k))^(-1), which sums to 1 like the one-sided ones.
    Equal scales make a repeated pole, with a factor 1 - e_k = 0: the build
    is refused, and so is one of more than _MAX_DISTINCT_SCALES weights.  The
    trust gate on sum |coef| is checked pole by pole, so a build that fails
    it stops at the first pole past the cap.  A refused build, the
    constructor's refusal included, returns its reason.
    """
    n = len(weights)
    if n > _MAX_DISTINCT_SCALES:
        return f"{n} weights exceed the partial-fraction cap of {_MAX_DISTINCT_SCALES} distinct scales"
    scales = sorted(weights)
    terms: list[MixtureTerm] = []
    abs_sum = 0.0
    for j, b in enumerate(scales):
        prod = 1.0
        for k, bk in enumerate(scales):
            if k != j:
                e = bk / b
                prod *= (1.0 - e) * (1.0 + e) if two_sided else 1.0 - e
        try:
            coef = 1.0 / prod
        except ZeroDivisionError:
            clash = b in scales[j + 1:j + 2]
            why = f"coincides with pole {j + 2}" if clash else "leaves float range"
            return f"pole {j + 1} of {n} {why}"
        abs_sum += abs(coef)
        terms.append(MixtureTerm(coef, b))
        if not abs_sum <= _COEF_ABS_CAP:  # nan fails too
            return (
                f"partial-fraction coefficients too large to trust (sum |coef| = {abs_sum:.3e}"
                f" after {j + 1} of {n} poles)"
            )
    try:
        return ExpMixture(tuple(terms), 0.5 if two_sided else 1.0)
    except InvalidInputError as exc:
        return str(exc)


class _Columns(NamedTuple):
    """The contour's view of a sum, in units of the power of two ``u``.

    Equal scales are one column of the summed shape.  ``k`` is (columns,
    shapes) for the cumulants, lists of floats up to legendre.NARROW columns;
    ``pole`` is 1/max_j b_j and ``shape`` the law's.  The integrand reads
    ``coef_b`` and ``count`` (None when all counts are 1): the columns, or,
    when the second half of them mirrors the first with equal counts
    (``mirrored``: every Laplace sum), the first of each pair +-b_j.
    """

    u: float
    k: tuple
    pole: float
    shape: float
    coef_b: "np.ndarray"
    count: "np.ndarray | None"
    mirrored: bool


class _Sum:
    """What law d on weights w fixes for every threshold: one record per (d, w).

    ``mixture`` is the law's partial-fraction mixture, the reason it was
    refused, or None (gamma).  The contour's part loads numpy, which a sum
    the mixture answers never needs, so the rest is computed when first
    asked: the ``columns``, the hold on each side of the mean with K' there
    (``hold``), and ``small_t``, the weights' logs and sum_i 1/a_i.
    """

    def __init__(self, d: Distribution, w: WeightVector):
        self.d, self.w = d, w
        self.mixture = _build_mixture(w.values, not d.nonnegative) if d.mixture else None

    @functools.cached_property
    def columns(self) -> _Columns:
        import numpy as np

        u = self.w.unit
        scales = self.d.scales(self.w) / u
        b, count = _columns(scales)
        shape = count * self.d.shape
        for arr in (b, count, shape):
            arr.flags.writeable = False
        k = (b.tolist(), shape.tolist()) if len(b) <= NARROW else (b, shape)
        unit_counts = len(b) == len(scales)
        pole = 1.0 / float(b.max())
        mirrored = not self.d.nonnegative  # a symmetric law's scales are a, then -a
        if mirrored:
            half = len(b) // 2
            b, count = b[:half], count[:half]
        return _Columns(u, k, pole, self.d.shape, b, None if unit_counts else count, mirrored)

    def hold(self, above: bool) -> tuple[float, float]:
        """(hold, K'(hold)) above (True) or below the mean; K' may raise OverflowError."""
        holds = self.__dict__.setdefault("holds", {})
        if above not in holds:
            cols = self.columns
            h = 1.0 / (math.sqrt(self.d.variance) * (self.w.l2 / cols.u))
            h = min(h, 0.5 * cols.pole) if above else -h
            holds[above] = (h, cumulant_slopes(*cols.k, h)[0])
        return holds[above]

    @functools.cached_property
    def small_t(self) -> tuple[tuple[float, ...], float]:
        return tuple(math.log(a) for a in self.w), math.fsum(1.0 / a for a in self.w)


# A caller asks one weight vector at a grid of thresholds (or moment orders):
# the records of the last 16 (law, weights) pairs are kept
_sum = functools.lru_cache(maxsize=16)(_Sum)
_EXPONENTIAL, _LAPLACE = Distribution.exponential(), Distribution.laplace()


def _mixture(d: Distribution, w: "WeightVector | Sequence[float]") -> ExpMixture:
    built = _sum(d, as_weights(w)).mixture
    if isinstance(built, str):
        raise MixtureUnavailableError(built)
    return built


def hypoexp_mixture(w: "WeightVector | Sequence[float]") -> ExpMixture:
    """Mixture for sum_i a_i Y_i, Y_i iid exponential(1).

    B_j = prod_{k!=j} a_j/(a_j - a_k) and the tail sum_j B_j e^{-t/a_j};
    equal weights raise MixtureUnavailableError.
    """
    return _mixture(_EXPONENTIAL, w)


def laplace_mixture(w: "WeightVector | Sequence[float]") -> ExpMixture:
    """Symmetric mixture for sum_i a_i X_i, X_i iid standard Laplace.

    A_j = prod_{k!=j} a_j^2/(a_j^2 - a_k^2) and the upper tail
    sum_j (A_j/2) e^{-t/a_j}; equal weights raise MixtureUnavailableError.
    """
    return _mixture(_LAPLACE, w)


def laplace_abs_norm(w: "WeightVector | Sequence[float]", p: float) -> float:
    """The p-norm (E|S|^p)^(1/p) of a Laplace sum, p > 0, by contour inversion.

    E|S|^p = 2 Gamma(p+1) (1/2 pi i) int M(z) z^(-p-1) dz along
    Re z = theta, 0 < theta < 1/a_max; the contour crosses at the saddle of
    M(z) z^(-p-1), the root of z K'(z) = p + 1, which rises from 0 to
    infinity over (0, 1/a_max) and approaches the pole as p grows.  The
    moment is assembled in log space from the integral normalised by
    M(theta) theta^(-p-1), so that orders whose moment overflows keep their
    norm.  The weights are taken in units of the power of two ``w.unit``,
    and the norm scales with them.
    """
    w = as_weights(w)
    p = float(p)
    if not math.isfinite(p) or p <= 0.0:
        raise InvalidInputError(f"moment order must be positive, got {p!r}")
    cols = _sum(_LAPLACE, w).columns
    # bisection to a few digits of the distance to either end of the interval
    lo, hi = 0.0, cols.pole
    while hi - lo > 1e-3 * min(lo, cols.pole - hi):
        theta = 0.5 * (lo + hi)
        if not lo < theta < hi:
            # lo and hi are adjacent floats: no contour fits between saddle and pole
            raise NumericFailureError(
                f"the saddle of moment order {p!r} lies within one float of the pole"
            )
        if theta * cumulant_slopes(*cols.k, theta)[0] > p + 1.0:
            hi = theta
        else:
            lo = theta
    theta = 0.5 * (lo + hi)
    integral, _ = _bromwich(cols, theta, 0.0, p)
    if not integral > 0.0:
        raise NumericFailureError(f"contour integral of the absolute moment is {integral!r}")
    # E|S|^p itself may leave float range while its p-th root does not
    log_moment = (
        math.log(2.0) + math.lgamma(p + 1.0) + cumulant(*cols.k, theta)
        - (p + 1.0) * math.log(theta) + math.log(integral)
    )
    return cols.u * math.exp(log_moment / p)


# ---------------------------------------------------------------------------
# contour inversion
# ---------------------------------------------------------------------------


def _columns(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of b in order of first occurrence, and their counts as floats.

    gamma(shape) taken m times on one scale is gamma(m shape) on it, so the
    contour takes one column per distinct scale, of shape count * shape.
    Distinct entries come back as b itself.  Up to NARROW entries a dict
    counts them; wider, np.unique does, and its first indices give the order.
    """
    import numpy as np

    if len(b) <= NARROW:
        values = b.tolist()
        counts = dict.fromkeys(values, 1)
        if len(counts) < len(values):
            counts = collections.Counter(values)
            return np.array(list(counts)), np.array(list(counts.values()), dtype=float)
        return b, np.ones(len(b))
    distinct, first, counts = np.unique(b, return_index=True, return_counts=True)
    if len(distinct) < len(b):
        order = np.argsort(first)
        return distinct[order], counts[order].astype(float)
    return b, np.ones(len(b))


def _bromwich(cols: _Columns, theta: float, t: float, p: float) -> tuple[float, float]:
    """(1/2 pi i) int M(z) e^{-zt} (z/theta)^(-p-1) dz / (M(theta) e^{-theta t}) and its error.

    M is the moment generating function of the sum on the columns ``cols``,
    sum_j b_j G_j with G_j independent gamma(count_j shape), and theta is
    real with 0 < |theta| and b_j theta < 1.  The sums over the columns
    weight each by its count and take the shape after them.

    The contour is the hyperbola z(u) = theta + c (cosh u - 1) + i w sinh u,
    u real, which crosses the real axis only at theta and opens to the
    right, so it is equivalent to the vertical line Re z = theta.  w is the
    saddle width 1/sqrt(K''(theta)) of K = log M, capped at the distance
    from theta to the nearest singularity (the pole at 0 or the branch point
    at 1/max_j b_j; a negative scale's branch point lies beyond the pole),
    and c = w/2: the integrand decays double exponentially in u and is
    analytic in a strip of half-width about pi/4 around the real u axis, so
    the trapezoid rule converges geometrically.  The step halves from 1/8 until
    two successive sums agree to _INV_RTOL relative, or _INV_RTOL p for an
    order p > 1, whose p-th root (the norm) divides the error by p; that
    difference, or the sum's rounding error if larger, is the error estimate.
    The first sum walks out, no further than _U_MAX, and stops at the first
    four nodes whose last two terms are negligible; each call of the walk takes
    up to 64 nodes and the midpoints between them, which the first halving
    sums, so an inversion that halves once makes one call.  The sums over the
    columns run in blocks of nodes of at most _BLOCK entries per array, so
    memory stays bounded for any n.
    """
    import numpy as np

    b, count = cols.coef_b, cols.count
    coef = b / (1.0 - b * theta)
    if cols.mirrored:
        # the pair +-b is one factor: (1 - b theta - b dz)(1 + b theta + b dz)
        # over its value at dz = 0 is 1 - kappa dz (2 theta + dz), with kappa
        # = -c_+ c_- the product of the two columns' coefficients
        coef = coef * (b / (1.0 + b * theta))
    coef2 = coef * coef
    dist = min(abs(theta), cols.pole - theta)
    width = min(1.0 / math.sqrt(cumulant_slopes(*cols.k, theta)[1]), dist)
    bend = 0.5 * width
    rows = max(1, _BLOCK // len(b))

    def block(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # -sum_j count_j arg(1 - c_j v) and sum_j count_j log|1 - c_j v|^2 at
        # v = x + iy, over real outer products: arg(1 - c v) = -atan2(cy, 1 - cx),
        # and log|1 - c v|^2 is log1p(c^2 |v|^2 - 2 cx), accurate near 0
        cx = np.multiply.outer(x, coef)
        arg = np.arctan2(np.multiply.outer(y, coef), 1.0 - cx)
        q = np.multiply.outer(x * x + y * y, coef2)
        q -= cx
        q -= cx
        np.log1p(q, out=q)
        if count is not None:
            arg *= count
            q *= count
        return arg.sum(axis=1), q.sum(axis=1)

    def integrand(u: np.ndarray) -> np.ndarray:
        sh, ch = np.sinh(u), np.cosh(u)
        x, y = bend * (ch - 1.0), width * sh
        dz = x + 1j * y
        # log M(z) - log M(theta) = -shape sum_j count_j log(1 - c_j v), v = dz,
        # or dz (2 theta + dz) for mirrored pairs, whose arg may differ from the
        # two factors' by 2 pi: harmless, as Laplace's shape * count is an integer
        if cols.mirrored:
            x, y = x * (2.0 * theta + x) - y * y, 2.0 * y * (theta + x)
        parts = [block(x[lo:lo + rows], y[lo:lo + rows]) for lo in range(0, len(u), rows)]
        minus_arg, log_abs2 = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        # |theta/z| <= 1 wherever p > 0 (there theta > 0), so its power
        # cannot overflow
        power = np.reciprocal(1.0 + dz / theta)
        if p:
            power **= p + 1.0
        return (
            np.exp(cols.shape * (1j * minus_arg - 0.5 * log_abs2) - dz * t)
            * (bend * sh + 1j * width * ch)
            * power
        )

    # Half-line trapezoid sum (the integrand is conjugate-symmetric in u).
    # 64 nodes is a typical walk's length: a walk of few scales does not
    # evaluate every node below _U_MAX.  A wide sum, whose blocks hold fewer
    # nodes, still takes 32 a call: four or five calls cost more than it saves
    h = 0.125
    span = 4 * max(1, rows // 4)
    chunk = min(max(span, 32), 64)
    last = 4 * int(_U_MAX / h / 4)  # nodes below u = _U_MAX, in fours
    nodes, walked = 0, 0.0
    evens, odds = [], []
    while True:
        f = integrand(0.5 * h * np.arange(2 * nodes, 2 * min(nodes + chunk, last)))
        even, odd = f[0::2], f[1::2]
        if nodes == 0:
            even[0] *= 0.5
        # the first four nodes whose last two terms are negligible against
        # the sum through them end the walk
        fours = np.abs(even).reshape(-1, 4)[:, 2:].max(axis=1)
        sums = walked + np.cumsum(even.imag)[3::4]
        done = np.flatnonzero(fours <= 1e-16 * np.abs(sums))
        if len(done):
            even, odd = even[:4 * done[0] + 4], odd[:4 * done[0] + 4]
        evens.append(even.imag)
        odds.append(odd.imag)
        walked += evens[-1].sum()
        nodes += len(even)
        if len(done):
            break
        if nodes >= last:
            raise NumericFailureError(
                f"contour integrand still at {np.abs(even[-1]):.3e} at u = {_U_MAX}"
            )
    # the walked terms are summed in runs of span nodes, whatever the chunk,
    # so the sum does not depend on how many nodes a call takes
    f = evens[0] if len(evens) == 1 else np.concatenate(evens)
    total, mass = 0.0, 0.0
    for lo in range(0, nodes, span):
        total += f[lo:lo + span].sum()
        mass += np.abs(f[lo:lo + span]).sum()
    estimate = h * total
    f = odds[0] if len(odds) == 1 else np.concatenate(odds)
    for halving in range(_MAX_HALVINGS):
        if halving:
            f = integrand(h * (np.arange(nodes) + 0.5)).imag
        total += f.sum()
        mass += np.abs(f).sum()
        h, nodes = 0.5 * h, 2 * nodes
        err = abs(h * total - estimate)
        estimate = h * total
        if err <= _INV_RTOL * max(1.0, p) * abs(estimate):
            # successive sums can agree bit for bit; the sum's own rounding
            # is then the error
            return estimate / math.pi, max(err, _ROUNDING * h * mass) / math.pi
    raise NumericFailureError(
        f"contour inversion did not converge: successive sums differ by {err:.3e}"
    )


def cf_tail_inversion(d: Distribution, w: "WeightVector | Sequence[float]", t: float) -> float:
    """P(S > t) at t > 0 by numerical inversion of the moment generating function M.

    P(S > t) = (1/2 pi i) int M(z) e^{-zt} dz / z along Re z = theta for
    0 < theta < 1/a_max; for theta < 0 the line passes the pole at 0 and the
    integral is P(S > t) - 1.  theta is the saddle of log M(z) - zt, which is
    negative below the mean, and is held at least 1/sigma (or 1/(2 a_max)
    above the mean, if smaller) away from the pole at 0.  The weights and t
    are taken in units of the power of two ``w.unit``, so the result does not
    depend on their scale, and equal scales are one column of their summed
    shape.  The integral is scaled by M(theta) e^{-theta t} and the answer
    assembled in log space, so tails far below the scale keep their relative
    accuracy (about 1e-12).  Where the Chernoff bound M(theta) e^{-theta t}
    (theta > 0) is below the smallest float, the tail is 0 without a
    contour.  Below the mean of a nonnegative sum, the small-t form of
    P(S <= t) answers instead wherever its bracket is below rounding.

    Raises NumericFailureError if the trapezoid sums do not converge, the
    saddle is out of float range, or the tail leaves the law's range at t
    ([0, 1], or [0, 1/2] for Laplace) by more than the error estimate err.
    A value within err of a range end is that end.
    """
    w = as_weights(w)
    t = float(t)
    if not 0.0 < t < math.inf:
        raise InvalidInputError(f"threshold must be positive and finite, got {t!r}")
    above = t >= d.mean * w.l1
    prepared = _sum(d, w)
    if d.nonnegative and not above:
        # S has density x^(N-1) E[exp(-x sum_i U_i/a_i)] / (Gamma(N) prod_i a_i^shape),
        # N = n shape, U ~ Dirichlet(shape, ..., shape), so P(S <= t) lies in
        # [lead (1 - c), lead] with lead = t^N / (Gamma(N+1) prod_i a_i^shape)
        # and c = t shape sum_i (1/a_i) / (N+1).  1 - lead is the tail where the
        # interval's width, at most lead min(c, 1), is below its rounding.  The
        # logs are taken apart: t/a_i may be subnormal or 0
        n_shape = len(w) * d.shape
        log_t = math.log(t)
        log_a, inv_sum = prepared.small_t
        log_lead = d.shape * math.fsum(log_t - v for v in log_a) - math.lgamma(n_shape + 1.0)
        if log_lead < 0.0:
            tail = -math.expm1(log_lead)
            c = t * d.shape * inv_sum / (n_shape + 1.0)
            if math.exp(log_lead) * min(c, 1.0) <= 0.25 * sys.float_info.epsilon * tail:
                return tail
    # in units of the power of two w.unit no weight scale over- or underflows,
    # and rescaling by it is exact
    cols = prepared.columns
    t_u = t / cols.u
    try:
        # K' increases, so the saddle lies between 0 and the hold exactly
        # when K'(hold) is at or past t; the solve is skipped then
        hold, k_prime = prepared.hold(above)
        if (k_prime >= t_u) == above:
            theta = hold
        else:
            theta = _solve_cumulant_prime(*cols.k, t_u)
        # at theta > 0, P(S > t) <= M(theta) e^{-theta t}, the Chernoff bound
        log_bound = cumulant(*cols.k, theta) - theta * t_u
        if theta > 0.0 and log_bound < _LOG_TINIEST - 1.0:
            return 0.0
        integral, err = _bromwich(cols, theta, t_u, 0.0)
    except (OverflowError, ZeroDivisionError) as exc:
        # far below the scale the saddle, near -n*shape/t, squares past float range
        raise NumericFailureError(f"saddle point out of float range at threshold {t!r}") from exc
    # the integrand's (z/theta)^-1 carries a factor theta; take it out
    integral, err = integral / theta, err / abs(theta)
    # integral * M(theta) e^{-theta t} in log space; a part above e is out of
    # range whatever its error, so the exponent stops there (no overflow)
    log_part = log_bound + math.log(abs(integral))
    part = math.copysign(math.exp(min(log_part, 1.0)), integral)
    err *= abs(part / integral)
    tail = part if theta > 0.0 else 1.0 + part
    if not -err <= tail <= d.top + err:
        raise NumericFailureError(
            f"contour inversion left [0, {d.top}]: tail {tail!r}, error {err:.3e}"
        )
    return min(max(tail, 0.0), d.top)


def exact_tail(d: Distribution, w: "WeightVector | Sequence[float]", threshold: float) -> tuple[float, str]:
    """(P(S > threshold), source tag): mixture when usable, else contour inversion.

    The one place that knows the threshold domain: a non-finite threshold
    raises InvalidInputError; at 0 the tail is the law's ``top`` and below 0
    a nonnegative sum's is 1, both tagged ``domain``, and a symmetric sum's
    is 1 - P(S > -t), so the routes compute only P(S > x) at x > 0.  The
    mixture covers the laws that have one on weights whose partial-fraction
    coefficients pass the trust gates; every other case is inverted.  The
    tag is ``mixture`` when the law's mixture builds and passes its range
    gate at x.
    """
    w = as_weights(w)
    t = float(threshold)
    if not math.isfinite(t):
        raise InvalidInputError(f"threshold must be finite, got {t!r}")
    if t == 0.0 or t < 0.0 and d.nonnegative:
        return d.top, "domain"
    x = abs(t)
    tail, source = None, "cf_inversion"
    if d.mixture:
        try:
            mixture = hypoexp_mixture(w) if d.nonnegative else laplace_mixture(w)
            tail, source = mixture.tail(x), "mixture"
        except MixtureUnavailableError:
            pass
    if tail is None:
        tail = cf_tail_inversion(d, w, x)
    return (1.0 - tail if t < 0.0 else tail), source


def p_ge_mean(d: Distribution, w: "WeightVector | Sequence[float]") -> float:
    """P(S >= E S) via exact_tail; a symmetric sum's mean is 0, where the tail is ``top``."""
    w = as_weights(w)
    return exact_tail(d, w, d.mean * w.l1)[0]
