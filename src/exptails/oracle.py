"""Exact tail oracles for weighted sums.

``exact_tail`` is the one place that picks how a tail is computed:

* a partial-fraction mixture of the moment generating function (closed
  form and fast) for exponential and Laplace summands, when its
  coefficients pass the trust gates; one expansion serves both laws, the
  Laplace MGF being the exponential one with every pole mirrored, and
* otherwise Bromwich inversion of the moment generating function by the
  trapezoid rule on a hyperbolic contour through the saddle point, with
  relative accuracy of about 1e-12 and an error estimate; it raises instead
  of returning a value outside [0, 1].  The engine reads only the signed
  scales of ``Distribution.scales`` (every law is gamma(shape) on them),
  taken in units of a power of two next to the largest weight so that no
  weight scale over- or underflows.  Far below the scale of a gamma or
  exponential sum, where the saddle point leaves float range, the leading
  small-t term of P(S <= t) answers.

The tests drive both on the same instances and require agreement.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    Distribution,
    InvalidInputError,
    LawKind,
    MixtureUnavailableError,
    NumericFailureError,
    WeightVector,
    as_weights,
)
from .legendre import _solve_cumulant_prime, cumulant, cumulant_double_prime, cumulant_prime
from .special import _LOG_TINIEST, erlang_tails

# Scales closer than this merge into one pole: raw partial fractions lose
# ~eps/gap^2 of absolute coefficient accuracy, so below 1e-5 the merged
# (confluent) form is strictly more accurate (model error O(gap^2)).
_CLUSTER_RTOL = 1e-5
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


class MixtureSide(str, enum.Enum):
    ONE_SIDED = "one_sided"
    TWO_SIDED = "two_sided"


class MixtureTerm(NamedTuple):
    """One exponential-polynomial tail term: coef * Q(power+1, t/scale)."""

    coef: float
    scale: float
    power: int


@dataclass(frozen=True)
class ExpMixture:
    """Tail of a weighted sum as a signed mixture of Erlang tails.

    One-sided mixtures satisfy tail(0) = sum(coef) = 1; two-sided (symmetric)
    mixtures store coefficients summing to 1 and evaluate the upper tail as
    half the coefficient-weighted Erlang tails, so tail(0+) = 1/2.
    """

    terms: tuple[MixtureTerm, ...]
    side: MixtureSide

    @property
    def coef_sum(self) -> float:
        return math.fsum(t.coef for t in self.terms)

    @property
    def coef_abs_sum(self) -> float:
        return math.fsum(abs(t.coef) for t in self.terms)

    def tail(self, t: float) -> float:
        """P(S > t); symmetric mixtures accept negative t and give 1/2 at 0.

        The range at t > 0 is [0, 1/2] for a symmetric mixture and [0, 1]
        otherwise.  A value within the error bound |sum coef - 1| +
        4 eps sum |coef| of a range end is that end; one further out raises
        MixtureUnavailableError, and so does a value below the normal range
        where the tail may still be a nonzero (subnormal) float.
        """
        t = float(t)
        top = 1.0
        if self.side is MixtureSide.TWO_SIDED:
            if t < 0.0:
                return 1.0 - self.tail(-t)
            if t == 0.0:
                return 0.5
            top = 0.5
        elif t <= 0.0:
            return 1.0
        # a symmetric mixture's upper tail is half its Erlang sum: the scale is
        # the range end
        value = top * math.fsum(_weighted_erlang_tails(self.terms, t))
        if value < sys.float_info.min:
            # Erlang tails below the normal range lose relative accuracy, and
            # the signed sum may cancel into them.  With x = t/scale >= k,
            # Q(k+1, x) <= (k+1) x^k e^(-x) / k!, so the sum is bounded by
            # sum |coef| times the bound at the largest scale and power
            k = max(term.power for term in self.terms)
            x = t / max(term.scale for term in self.terms)
            log_term = k * math.log(x) - x - math.lgamma(k + 1)
            if log_term + math.log((k + 1) * self.coef_abs_sum) >= _LOG_TINIEST:
                raise MixtureUnavailableError(
                    f"mixture tail {value!r} is below the normal range, where it loses accuracy"
                )
        if not 0.0 <= value <= top:
            err = abs(self.coef_sum - 1.0) + _ROUNDING * self.coef_abs_sum
            if not -err <= value <= top + err:
                raise MixtureUnavailableError(
                    f"mixture tail {value!r} leaves [0, {top}] by more than {err:.3e}"
                )
            value = min(max(value, 0.0), top)
        return value


def _weighted_erlang_tails(terms: Sequence[MixtureTerm], t: float) -> list[float]:
    """coef * Q(power+1, t/scale) for each term whose tail is not 0 at t.

    The tails of a run of terms on one scale come from one pass of
    ``erlang_tails`` up to the run's largest power; a simple pole (one term,
    power 0) takes one exp.  Each tail is corrected for the rounding of the
    quotient x = t/scale, which is off by dx = (t - x scale)/scale and would
    grow the tail's relative error to about x eps.  t and scale are taken in
    units of the power of two next to scale, where x scale splits error-free
    (Dekker) without overflow; to first order the tail of power k moves by
    -dx x^k e^-x / k!.
    """
    out = []
    i, n = 0, len(terms)
    while i < n:
        scale = terms[i].scale
        j = i + 1
        while j < n and terms[j].scale == scale:
            j += 1
        run, i = terms[i:j], j
        if t / scale > 1e300:
            continue  # every tail on the scale is 0, and t/scale may overflow
        m, e = math.frexp(scale)
        r = math.ldexp(t, -e)
        x = r / m
        dx = 0.0
        if x >= sys.float_info.min:
            p = x * m
            hi = _SPLIT * x
            x_hi = hi - (hi - x)
            hi = _SPLIT * m
            m_hi = hi - (hi - m)
            x_lo, m_lo = x - x_hi, m - m_hi
            p_err = ((x_hi * m_hi - p) + x_hi * m_lo + x_lo * m_hi) + x_lo * m_lo
            dx = ((r - p) - p_err) / m
        if len(run) == 1 and run[0].power == 0:
            q = math.exp(-x)
            out.append(run[0].coef * (q - dx * q))
        else:
            qs, ps = erlang_tails(max(term.power for term in run), x)
            out.extend(term.coef * (qs[term.power] - dx * ps[term.power]) for term in run)
    return out


def _cluster_scales(values: Sequence[float], rtol: float = _CLUSTER_RTOL) -> list[tuple[float, int]]:
    """Group sorted scales whose neighbors differ by <= rtol relatively.

    Returns (representative, multiplicity) pairs, representative = group mean.
    """
    groups: list[list[float]] = []
    for v in sorted(values):
        if groups and v <= groups[-1][-1] * (1.0 + rtol):
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(math.fsum(g) / len(g), len(g)) for g in groups]


def _recip_power_series(d0: float, e0: float, m: int, order: int) -> list[float]:
    """Taylor coefficients of (d0 + e0*z)^(-m) around z=0, up to z^order."""
    coefs = [d0 ** (-m)]
    ratio = e0 / d0
    for i in range(1, order + 1):
        coefs.append(coefs[-1] * (-(m + i - 1) / i) * ratio)
    return coefs


def _series_product(factors: list[list[float]], order: int) -> list[float]:
    acc = [1.0] + [0.0] * order
    for f in factors:
        out = [0.0] * (order + 1)
        for i, ai in enumerate(acc):
            if ai == 0.0:
                continue
            for j in range(min(order - i, len(f) - 1) + 1):
                out[i + j] += ai * f[j]
        acc = out
    return acc


def _mixture(w: "WeightVector | Sequence[float]", side: MixtureSide) -> ExpMixture:
    """Partial fractions of the MGF prod_j (1 - b_j z)^(-m_j) over the clustered scales.

    Around the pole z = 1/b_j, with z = (1 - x)/b_j, each other scale
    contributes the factor (1 - e + e x)^(-m_k), e = b_k/b_j.  The two-sided
    (Laplace) MGF mirrors every pole, (1 + b_j z)^(-m_j): the pole's own
    mirror adds (2 - x)^(-m_j), and each other scale adds (1 + e - e x)^(-m_k)
    after its factor.  The coefficient of the pole's highest power is the
    product at x = 0, prod_k (1 - e)^(-m_k), or two-sided
    prod_k ((1 - e)(1 + e))^(-m_k) 2^(1 - m_j), doubled so that two-sided
    coefficients sum to 1 like one-sided ones.  Only a repeated pole
    (m_j > 1) has lower powers: the coefficient of power m_j - 1 - i is the
    x^i coefficient of the truncated product of the factors' Taylor series.
    The trust gate on sum |coef| is checked as each pole is produced, so a
    build that fails it stops at the first pole past the cap.
    """
    w = as_weights(w)
    groups = _cluster_scales(w.values)
    if len(groups) > _MAX_DISTINCT_SCALES:
        raise MixtureUnavailableError(
            f"{len(groups)} distinct scales exceeds the partial-fraction cap {_MAX_DISTINCT_SCALES}"
        )
    two_sided = side is MixtureSide.TWO_SIDED
    terms: list[MixtureTerm] = []
    abs_sum = 0.0
    for j, (b, m) in enumerate(groups):
        others = [(bk / b, mk) for bk, mk in groups[:j] + groups[j + 1:]]
        try:
            if two_sided:
                den = math.prod([((1.0 - e) * (1.0 + e)) ** mk for e, mk in others])
                lead = 2.0 ** (1 - m) / den
            else:
                lead = 1.0 / math.prod([(1.0 - e) ** mk for e, mk in others])
            coefs = [lead]
            if m > 1:
                order = m - 1
                factors = [_recip_power_series(2.0, -1.0, m, order)] if two_sided else []
                for e, mk in others:
                    factors.append(_recip_power_series(1.0 - e, e, mk, order))
                    if two_sided:
                        factors.append(_recip_power_series(1.0 + e, -e, mk, order))
                g = _series_product(factors, order)
                coefs = [2.0 * c if two_sided else c for c in g[:0:-1]] + coefs
        except (OverflowError, ZeroDivisionError) as exc:
            raise MixtureUnavailableError(
                f"partial-fraction coefficients of pole {j + 1} of {len(groups)} leave float range"
            ) from exc
        for power, coef in enumerate(coefs):
            if coef != 0.0:  # a lone pole's lower powers are exactly 0
                abs_sum += abs(coef)
                terms.append(MixtureTerm(coef, b, power))
        if not abs_sum <= _COEF_ABS_CAP:  # nan fails too
            raise MixtureUnavailableError(
                f"partial-fraction coefficients too large to trust (sum |coef| = {abs_sum:.3e}"
                f" after {j + 1} of {len(groups)} poles)"
            )
    mix = ExpMixture(tuple(terms), side)
    drift = abs(mix.coef_sum - 1.0)
    if drift > _COEF_DRIFT_TOL:
        raise MixtureUnavailableError(
            f"partial-fraction coefficients do not sum to 1 (off by {drift:.3e})"
        )
    return mix


def hypoexp_mixture(w: "WeightVector | Sequence[float]") -> ExpMixture:
    """Mixture for sum_i a_i Y_i, Y_i iid exponential(1).

    Distinct scales give B_j = prod_{k!=j} a_j/(a_j - a_k); scales equal
    within ~1e-5 merge into one repeated pole (Erlang terms).
    """
    return _mixture(w, MixtureSide.ONE_SIDED)


def laplace_mixture(w: "WeightVector | Sequence[float]") -> ExpMixture:
    """Symmetric mixture for sum_i a_i X_i, X_i iid standard Laplace.

    Distinct scales give A_j = prod_{k!=j} a_j^2/(a_j^2 - a_k^2) and the
    upper tail sum_j (A_j/2) e^{-t/a_j}.
    """
    return _mixture(w, MixtureSide.TWO_SIDED)


def hypoexp_tail(w: "WeightVector | Sequence[float]", t: float) -> float:
    """P(sum_i a_i Y_i > t), exact; contour inversion when the mixture is unusable."""
    return exact_tail(Distribution.exponential(), w, t)[0]


def laplace_tail(w: "WeightVector | Sequence[float]", t: float) -> float:
    """P(sum_i a_i X_i > t) for Laplace summands, any real t."""
    return exact_tail(Distribution.laplace(), w, t)[0]


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
    d = Distribution.laplace()
    u = w.unit
    b = d.scales(w) / u
    # bisection to a few digits of the distance to either end of the interval
    pole = 1.0 / b.max()
    lo, hi = 0.0, pole
    while hi - lo > 1e-3 * min(lo, pole - hi):
        theta = 0.5 * (lo + hi)
        if theta * cumulant_prime(b, d.shape, theta) > p + 1.0:
            hi = theta
        else:
            lo = theta
    theta = 0.5 * (lo + hi)
    integral, _ = _bromwich(b, d.shape, theta, 0.0, p)
    if not integral > 0.0:
        raise NumericFailureError(f"contour integral of the absolute moment is {integral!r}")
    # E|S|^p itself may leave float range while its p-th root does not
    log_moment = (
        math.log(2.0) + math.lgamma(p + 1.0) + cumulant(b, d.shape, theta)
        - (p + 1.0) * math.log(theta) + math.log(integral)
    )
    return u * math.exp(log_moment / p)


# ---------------------------------------------------------------------------
# contour inversion
# ---------------------------------------------------------------------------


def _bromwich(b: np.ndarray, shape: float, theta: float, t: float, p: float) -> tuple[float, float]:
    """(1/2 pi i) int M(z) e^{-zt} (z/theta)^(-p-1) dz / (M(theta) e^{-theta t}) and its error.

    M is the moment generating function of sum_j b_j G_j, G_j i.i.d.
    gamma(shape), and theta is real with 0 < |theta| and b_j theta < 1.

    The contour is the hyperbola z(u) = theta + c (cosh u - 1) + i w sinh u,
    u real, which crosses the real axis only at theta and opens to the
    right, so it is equivalent to the vertical line Re z = theta.  w is the
    saddle width 1/sqrt(K''(theta)) of K = log M, capped at the distance
    from theta to the nearest singularity (the pole at 0 or the branch point
    at 1/max_j b_j; a negative scale's branch point lies beyond the pole),
    and c = w/2: the integrand decays double exponentially in u and is
    analytic in a strip of half-width about pi/4 around the real u axis, so
    the trapezoid rule converges geometrically.  The step halves from 1/8
    until two successive sums agree to _INV_RTOL relative; that difference,
    or the sum's rounding error if larger, is the error estimate.  The first
    sum walks out in one chunk of nodes, no further than _U_MAX, and stops at
    the first four whose last two terms are negligible.  The sums over the
    scales run in blocks of nodes of at most _BLOCK entries per array, so
    memory stays bounded for any n.
    """
    coef = b / (1.0 - b * theta)
    coef2 = coef * coef
    dist = min(abs(theta), 1.0 / b.max() - theta)
    width = min(1.0 / math.sqrt(cumulant_double_prime(b, shape, theta)), dist)
    bend = 0.5 * width
    rows = max(1, _BLOCK // len(b))

    def integrand(u: np.ndarray) -> np.ndarray:
        sh, ch = np.sinh(u), np.cosh(u)
        x, y = bend * (ch - 1.0), width * sh
        # log M(z) - log M(theta) = -shape * sum_j log(1 - c_j dz), dz = x + iy,
        # from the real and imaginary parts of each log, summed apart over
        # real outer products, block by block: arg(1 - c dz) = -atan2(cy, 1 - cx),
        # and log|1 - c dz| is half log1p(c^2 |dz|^2 - 2 cx), accurate near 0
        r2 = x * x + y * y
        minus_arg, log_abs2 = np.empty(len(u)), np.empty(len(u))
        for lo in range(0, len(u), rows):
            block = slice(lo, lo + rows)
            cx = np.multiply.outer(x[block], coef)
            minus_arg[block] = np.arctan2(np.multiply.outer(y[block], coef), 1.0 - cx).sum(axis=1)
            q = np.multiply.outer(r2[block], coef2)
            q -= cx
            q -= cx
            log_abs2[block] = np.log1p(q).sum(axis=1)
        # |theta/z| <= 1 wherever p > 0 (there theta > 0), so its power
        # cannot overflow
        dz = x + 1j * y
        return (
            np.exp(shape * (1j * minus_arg - 0.5 * log_abs2) - dz * t)
            * (bend * sh + 1j * width * ch)
            * np.reciprocal(1.0 + dz / theta) ** (p + 1.0)
        )

    # Half-line trapezoid sum (the integrand is conjugate-symmetric in u).
    h = 0.125
    chunk = 4 * max(1, rows // 4)
    last = 4 * int(_U_MAX / h / 4)  # nodes below u = _U_MAX, in fours
    nodes, total, mass = 0, 0.0, 0.0
    while True:
        f = integrand(h * np.arange(nodes, min(nodes + chunk, last)))
        if nodes == 0:
            f[0] *= 0.5
        # the first four nodes whose last two terms are negligible against
        # the sum through them end the walk
        fours = np.abs(f).reshape(-1, 4)[:, 2:].max(axis=1)
        sums = total + np.cumsum(f.imag)[3::4]
        done = np.flatnonzero(fours <= 1e-16 * np.abs(sums))
        if len(done):
            f = f[:4 * done[0] + 4]
        total += f.imag.sum()
        mass += np.abs(f.imag).sum()
        nodes += len(f)
        if len(done):
            break
        if nodes >= last:
            raise NumericFailureError(
                f"contour integrand still at {np.abs(f[-1]):.3e} at u = {_U_MAX}"
            )
    estimate = h * total
    for _ in range(_MAX_HALVINGS):
        f = integrand(h * (np.arange(nodes) + 0.5)).imag
        total += f.sum()
        mass += np.abs(f).sum()
        h, nodes = 0.5 * h, 2 * nodes
        err = abs(h * total - estimate)
        estimate = h * total
        if err <= _INV_RTOL * abs(estimate):
            # successive sums can agree bit for bit; the sum's own rounding
            # is then the error
            return estimate / math.pi, max(err, _ROUNDING * h * mass) / math.pi
    raise NumericFailureError(
        f"contour inversion did not converge: successive sums differ by {err:.3e}"
    )


def cf_tail_inversion(d: Distribution, w: "WeightVector | Sequence[float]", t: float) -> float:
    """P(S > t) by numerical inversion of the moment generating function M.

    P(S > t) = (1/2 pi i) int M(z) e^{-zt} dz / z along Re z = theta for
    0 < theta < 1/a_max; for theta < 0 the line passes the pole at 0 and the
    integral is P(S > t) - 1.  theta is the saddle of log M(z) - zt, which is
    negative below the mean, and is held at least 1/sigma (or 1/(2 a_max)
    above the mean, if smaller) away from the pole at 0.  The weights and t
    are taken in units of the power of two ``w.unit``, so the result does not
    depend on their scale.  The integral is
    scaled by M(theta) e^{-theta t} and the answer assembled in log space,
    so tails far below the scale keep their relative accuracy (about 1e-12).
    Below the mean of a nonnegative sum, the small-t form of P(S <= t)
    answers instead wherever its bracket is below rounding.

    Raises NumericFailureError if the trapezoid sums do not converge, the
    saddle is out of float range, or the tail leaves the law's range at t
    ([0, 1], or [0, 1/2] for Laplace at t > 0) by more than the error
    estimate err.  A value within err of a range end is that end.
    """
    w = as_weights(w)
    t = float(t)
    if not math.isfinite(t):
        raise InvalidInputError(f"threshold must be finite, got {t!r}")
    if d.nonnegative:
        if t <= 0.0:
            return 1.0
        top = 1.0
    else:
        if t < 0.0:
            return 1.0 - cf_tail_inversion(d, w, -t)
        if t == 0.0:
            return 0.5
        top = 0.5
    above = t >= d.mean * w.l1
    if d.nonnegative and not above:
        # S has density x^(N-1) E[exp(-x sum_i U_i/a_i)] / (Gamma(N) prod_i a_i^shape),
        # N = n shape, U ~ Dirichlet(shape, ..., shape), so P(S <= t) lies in
        # [lead (1 - c), lead] with lead = t^N / (Gamma(N+1) prod_i a_i^shape)
        # and c = t shape sum_i (1/a_i) / (N+1).  1 - lead is the tail where the
        # interval's width, at most lead min(c, 1), is below its rounding
        n_shape = len(w) * d.shape
        log_lead = d.shape * math.fsum(math.log(t / a) for a in w) - math.lgamma(n_shape + 1.0)
        if log_lead < 0.0:
            tail = -math.expm1(log_lead)
            c = t * d.shape * math.fsum(1.0 / a for a in w) / (n_shape + 1.0)
            if math.exp(log_lead) * min(c, 1.0) <= 0.25 * sys.float_info.epsilon * tail:
                return tail
    # in units of the power of two w.unit no weight scale over- or underflows,
    # and rescaling by it is exact
    u = w.unit
    b, t_u = d.scales(w) / u, t / u
    hold = 1.0 / (math.sqrt(d.variance) * (w.l2 / u))
    hold = min(hold, 0.5 / b.max()) if above else -hold
    try:
        # K' increases, so the saddle lies between 0 and the hold exactly
        # when K'(hold) is at or past t; the solve is skipped then
        if (cumulant_prime(b, d.shape, hold) >= t_u) == above:
            theta = hold
        else:
            theta = _solve_cumulant_prime(b, d.shape, t_u)
        integral, err = _bromwich(b, d.shape, theta, t_u, 0.0)
    except (OverflowError, ZeroDivisionError) as exc:
        # far below the scale the saddle, near -n*shape/t, squares past float range
        raise NumericFailureError(f"saddle point out of float range at threshold {t!r}") from exc
    # the integrand's (z/theta)^-1 carries a factor theta; take it out
    integral, err = integral / theta, err / abs(theta)
    # integral * M(theta) e^{-theta t} in log space; a part above e is out of
    # range whatever its error, so the exponent stops there (no overflow)
    log_part = cumulant(b, d.shape, theta) - theta * t_u + math.log(abs(integral))
    part = math.copysign(math.exp(min(log_part, 1.0)), integral)
    err *= abs(part / integral)
    tail = part if theta > 0.0 else 1.0 + part
    if not -err <= tail <= top + err:
        raise NumericFailureError(
            f"contour inversion left [0, {top}]: tail {tail!r}, error {err:.3e}"
        )
    return min(max(tail, 0.0), top)


def exact_tail(d: Distribution, w: "WeightVector | Sequence[float]", threshold: float) -> tuple[float, str]:
    """(P(S > threshold), source tag): mixture when usable, else contour inversion.

    The mixture covers exponential and Laplace summands whose partial-fraction
    coefficients pass the trust gates; every other case is inverted.
    """
    w = as_weights(w)
    mixture = {LawKind.EXPONENTIAL: hypoexp_mixture, LawKind.LAPLACE: laplace_mixture}.get(d.kind)
    if mixture is not None:
        try:
            return mixture(w).tail(threshold), "mixture"
        except MixtureUnavailableError:
            pass
    return cf_tail_inversion(d, w, float(threshold)), "cf_inversion"


def p_ge_mean(d: Distribution, w: "WeightVector | Sequence[float]") -> float:
    """P(S >= E S) via exact_tail (1/2 for Laplace by symmetry)."""
    w = as_weights(w)
    if d.kind is LawKind.LAPLACE:
        return 0.5
    return exact_tail(d, w, d.mean * w.l1)[0]
