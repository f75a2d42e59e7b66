"""Cumulants over signed scales, the Chernoff tilt, and the Cramer rate function.

Every law is gamma(shape) on signed scales b (``Distribution.scales``), so
the cumulant generating function of S = sum_j b_j G_j is
K(theta) = -shape sum_j log1p(-b_j theta) for every law, finite for
b_j theta < 1.  K, K' and K'' feed the saddle point of the contour-inversion
oracle and the Chernoff tilt of the importance sampler; each is one
expression over the array, summed with math.fsum from the array's buffer
(no list copy).  The shape is one scalar for every scale, or an array of one
shape per scale (the contour merges equal scales into one column of the
summed shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .core import (
    Distribution,
    InvalidInputError,
    NumericFailureError,
    UnsupportedLawError,
    WeightVector,
    as_weights,
)

if TYPE_CHECKING:
    import numpy as np

_THETA_TOL = 1e-12
_MAX_NEWTON_ITER = 200


@dataclass(frozen=True)
class LegendreResult:
    """Value and maximizer of sup_{theta>0} (t*theta - psi(theta))."""

    value: float
    theta_star: float


def cumulant(b: np.ndarray, shape: "np.ndarray | float", theta: float) -> float:
    """K(theta) = log E exp(theta S); +inf outside the domain max_j b_j theta < 1."""
    import numpy as np

    x = (b * theta).tolist()
    if max(x) >= 1.0:
        return math.inf
    # libm's log1p term by term: numpy's differs from it in the last bit, and
    # K reaches the printed tails and importance-sampling estimates
    return math.fsum(memoryview(-shape * np.array([math.log1p(-v) for v in x])))


def cumulant_prime(b: np.ndarray, shape: "np.ndarray | float", theta: float) -> float:
    """K'(theta) = sum_j b_j shape / (1 - b_j theta) inside the domain."""
    return math.fsum(memoryview(b * (shape / (1.0 - b * theta))))


def cumulant_double_prime(b: np.ndarray, shape: "np.ndarray | float", theta: float) -> float:
    """K''(theta) = sum_j b_j^2 shape / (1 - b_j theta)^2 inside the domain."""
    return math.fsum(memoryview(b * b * (shape / (1.0 - b * theta) ** 2)))


def _solve_cumulant_prime(b: np.ndarray, shape: "np.ndarray | float", target: float) -> float:
    """Solve K'(theta) = target for theta inside the domain of K.

    Safeguarded Newton: every step stays inside a shrinking bisection
    bracket, and once a step is below the tolerance one more Newton step
    from it brings the root, a float in the bracket, to rounding level.  K'
    increases through the mean of S at theta = 0 to +inf at 1/max_j b_j, so
    targets at or above the mean have a root in [0, 1/max_j b_j) (a target
    just above it may round to it in units of a power of two).
    Below the mean the root is negative: in (1/min_j b_j, 0) when a scale is
    negative, and otherwise in (-len(b)*shape/target, 0), where K'(theta) <
    len(b)*shape/|theta| (the target must be positive there); with one
    shape per scale, their sum stands for len(b)*shape.
    """
    import numpy as np

    if target >= math.fsum(memoryview(b * shape)):
        b_max = b.max()
        lo, hi = 0.0, (1.0 - 1e-12) / b_max
        theta = min(0.5 / b_max, hi)
    else:
        b_min = b.min()
        total = math.fsum(np.broadcast_to(shape, b.shape).tolist())
        lo = (1.0 - 1e-12) / b_min if b_min < 0.0 else -total / target
        hi = 0.0
        theta = 0.5 * lo
    for _ in range(_MAX_NEWTON_ITER):
        g = cumulant_prime(b, shape, theta) - target
        if g > 0.0:
            hi = theta
        else:
            lo = theta
        step = g / cumulant_double_prime(b, shape, theta)
        tol = _THETA_TOL * max(1.0, abs(theta))
        nxt = theta - step
        # at the root the step rounds to about 0 and nxt lands on the bracket
        # end just set to theta, where a converged step is kept; others bisect
        converged = abs(step) <= tol
        if not (lo < nxt < hi or converged and nxt == theta):
            nxt = 0.5 * (lo + hi)
            converged = abs(nxt - theta) <= tol
        if converged:
            # the stop rule trails the root by up to the last step: one more
            # Newton step from the converged iterate reaches rounding level
            g = cumulant_prime(b, shape, nxt) - target
            last = nxt - g / cumulant_double_prime(b, shape, nxt)
            return float(last if lo <= last <= hi else nxt)
        theta = nxt
    raise NumericFailureError(
        f"tilt solve did not reach {_THETA_TOL} after {_MAX_NEWTON_ITER} iterations"
    )


def chernoff_tilt(d: Distribution, w: "WeightVector | Sequence[float]", target: float) -> float:
    """Stationary tilt theta* with K'(theta*) = target, target above E S.

    Solved in units of the power of two ``w.unit``, where no weight scale
    over- or underflows; the tilt scales as 1/unit.
    """
    w = as_weights(w)
    target = float(target)
    mean_s = d.mean * w.l1
    if not target > mean_s:
        raise InvalidInputError(f"tilt target {target} must exceed the sum mean {mean_s}")
    u = w.unit
    return _solve_cumulant_prime(d.scales(w) / u, d.shape, target / u) / u


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
