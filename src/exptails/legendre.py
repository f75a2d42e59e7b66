"""Log moment generating functions and the Cramer rate function.

Per-unit summand: psi(theta) = log E exp(theta X).  Weighted-sum versions
(psi_S(theta) = sum_i psi(a_i theta)) feed the saddle point of the
contour-inversion oracle and the Chernoff tilt of the importance sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Distribution,
    InvalidInputError,
    LawKind,
    NumericFailureError,
    UnsupportedLawError,
    WeightVector,
    as_weights,
)

_THETA_TOL = 1e-12
_MAX_NEWTON_ITER = 200


@dataclass(frozen=True)
class LegendreResult:
    """Value and maximizer of sup_{theta>0} (t*theta - psi(theta))."""

    value: float
    theta_star: float


def log_mgf(d: Distribution, theta: float) -> float:
    """psi(theta) for one unit summand; +inf outside the MGF domain."""
    theta = float(theta)
    if math.isnan(theta):
        raise InvalidInputError("theta must be a number")
    if d.kind is LawKind.LAPLACE:
        if abs(theta) >= 1.0:
            return math.inf
        return -math.log1p(-theta * theta)
    if theta >= 1.0:
        return math.inf
    return -d.shape * math.log1p(-theta)


def log_mgf_prime(d: Distribution, theta: float) -> float:
    """psi'(theta) inside the MGF domain; +inf at and beyond the boundary."""
    theta = float(theta)
    if d.kind is LawKind.LAPLACE:
        if abs(theta) >= 1.0:
            return math.inf
        return 2.0 * theta / (1.0 - theta * theta)
    if theta >= 1.0:
        return math.inf
    return d.shape / (1.0 - theta)


def _log_mgf_double_prime(d: Distribution, theta: float) -> float:
    if d.kind is LawKind.LAPLACE:
        t2 = theta * theta
        return 2.0 * (1.0 + t2) / (1.0 - t2) ** 2
    return d.shape / (1.0 - theta) ** 2


def sum_log_mgf(d: Distribution, w: "WeightVector | Sequence[float]", theta: float) -> float:
    """psi_S(theta) = sum_i psi(a_i * theta) for S = sum_i a_i X_i."""
    w = as_weights(w)
    return math.fsum(log_mgf(d, a * theta) for a in w)


def sum_log_mgf_prime(d: Distribution, w: "WeightVector | Sequence[float]", theta: float) -> float:
    """d/dtheta psi_S(theta) = sum_i a_i psi'(a_i theta)."""
    w = as_weights(w)
    return math.fsum(a * log_mgf_prime(d, a * theta) for a in w)


def sum_log_mgf_double_prime(d: Distribution, w: "WeightVector | Sequence[float]", theta: float) -> float:
    w = as_weights(w)
    return math.fsum(a * a * _log_mgf_double_prime(d, a * theta) for a in w)


def _solve_psi_prime(d: Distribution, w: WeightVector, target: float) -> float:
    """Solve sum_i a_i psi'(a_i theta) = target for theta inside the MGF domain.

    Safeguarded Newton: every step stays inside a shrinking bisection
    bracket.  psi_S' increases through the mean of S at theta = 0 to +inf at
    1/a_max, so targets above the mean have a root in (0, 1/a_max).  Below
    the mean the root is negative: in (-1/a_max, 0) for Laplace, and in
    (-n*shape/target, 0) for nonnegative laws, where psi_S'(theta) <
    n*shape/|theta| (the target must be positive there).
    """
    if target > d.mean * w.l1:
        lo, hi = 0.0, (1.0 - 1e-12) / w.a_max
        theta = min(0.5 / w.a_max, hi)
    else:
        lo = -len(w) * d.shape / target if d.nonnegative else -(1.0 - 1e-12) / w.a_max
        hi = 0.0
        theta = 0.5 * lo
    for _ in range(_MAX_NEWTON_ITER):
        g = sum_log_mgf_prime(d, w, theta) - target
        if g > 0.0:
            hi = theta
        else:
            lo = theta
        step = g / sum_log_mgf_double_prime(d, w, theta)
        nxt = theta - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - theta) <= _THETA_TOL * max(1.0, abs(theta)):
            return nxt
        theta = nxt
    raise NumericFailureError(
        f"tilt solve did not reach {_THETA_TOL} after {_MAX_NEWTON_ITER} iterations"
    )


def chernoff_tilt(d: Distribution, w: "WeightVector | Sequence[float]", target: float) -> float:
    """Stationary tilt theta* with psi_S'(theta*) = target, target above E S."""
    w = as_weights(w)
    target = float(target)
    mean_s = d.mean * w.l1
    if not target > mean_s:
        raise InvalidInputError(f"tilt target {target} must exceed the sum mean {mean_s}")
    return _solve_psi_prime(d, w, target)


def rate_function(d: Distribution, t: float) -> LegendreResult:
    """Cramer rate I(t) = sup_{theta>0} (t*theta - psi(theta)) for one summand.

    Closed form t - g - g log(t/g), attained at theta* = 1 - g/t, for
    gamma(g); exponential is g = 1.  ``t`` is in absolute units (t > mean
    of the summand).  Laplace summands raise UnsupportedLawError.
    """
    if not d.nonnegative:
        raise UnsupportedLawError(
            f"rate_function applies to nonnegative summands, not {d.kind.value}"
        )
    t = float(t)
    g = d.shape
    if not t > g:
        raise InvalidInputError(f"rate_function needs t > {g} (the summand mean), got {t}")
    return LegendreResult(t - g - g * math.log(t / g), 1.0 - g / t)
