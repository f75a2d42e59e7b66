"""Cumulants over signed scales, the Chernoff tilt, and the Cramer rate function.

Every law is gamma(shape) on signed scales b (``Distribution.scales``), so
the cumulant generating function of S = sum_j b_j G_j is
K(theta) = -shape sum_j log1p(-b_j theta) for every law, finite for
b_j theta < 1.  K and its slopes K', K'' feed the saddle point of the
contour-inversion oracle and the Chernoff tilt of the importance sampler;
each is one expression over the scales, summed exactly: with math.fsum's
bits.  The scales are an array, whose terms core._array_fsum sums (fsum on
its buffer below 512 terms, error-free extraction in array operations from
512 on), or a list of floats with a list of one shape per scale, whose terms
are the same IEEE operations in the same order, summed by math.fsum: the two
forms agree bit for bit, and the list form saves numpy's per-call overhead
on narrow sums.  With
an array, the shape is one scalar for every scale, or an array of one shape
per scale (the contour merges equal scales into one column of the summed
shape).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .core import (
    Distribution,
    InvalidInputError,
    NumericFailureError,
    WeightVector,
    _array_fsum,
    as_weights,
)

if TYPE_CHECKING:
    import numpy as np

_THETA_TOL = 1e-12
_MAX_NEWTON_ITER = 200
# Widest sum whose cumulants the contour takes on lists of floats.  One
# (K', K'') costs 2.6 us on lists against 4.2 us on arrays at 8 scales, 4.0
# against 4.5 at 16, 5.4 against 4.9 at 24 and 6.8 against 5.1 at 32 (K
# alone: 2.2/3.5, 3.4/4.6, 4.4/5.6, 5.5/6.6); best of 15 in-process runs on
# 2 shared cores, Python 3.11, numpy 2.4.
NARROW = 16


def cumulant(b: np.ndarray | list[float], shape, theta: float) -> float:
    """K(theta) = log E exp(theta S); +inf outside the domain max_j b_j theta < 1."""
    listed = isinstance(b, list)
    x = [v * theta for v in b] if listed else (b * theta).tolist()
    if max(x) >= 1.0:
        return math.inf
    # libm's log1p term by term: numpy's differs from it in the last bit, and
    # K reaches the printed tails and importance-sampling estimates
    logs = [math.log1p(-v) for v in x]
    if listed:
        return math.fsum([-s * v for s, v in zip(shape, logs)])
    import numpy as np

    return _array_fsum(-shape * np.array(logs))


def cumulant_slopes(b: np.ndarray | list[float], shape, theta: float) -> tuple[float, float]:
    """(K'(theta), K''(theta)) inside the domain, from one 1 - b_j theta per scale.

    K' = sum_j b_j shape / (1 - b_j theta) and K'' = sum_j b_j^2 shape / (1 - b_j theta)^2.
    """
    if isinstance(b, list):
        q = [1.0 - v * theta for v in b]
        return (math.fsum([v * (s / r) for v, s, r in zip(b, shape, q)]),
                math.fsum([v * v * (s / (r * r)) for v, s, r in zip(b, shape, q)]))
    q = 1.0 - b * theta
    return _array_fsum(b * (shape / q)), _array_fsum(b * b * (shape / q**2))


def _solve_cumulant_prime(b: np.ndarray | list[float], shape, target: float) -> float:
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
    listed = isinstance(b, list)
    fsum = math.fsum if listed else _array_fsum
    if target >= fsum([v * s for v, s in zip(b, shape)] if listed else b * shape):
        b_max = max(b) if listed else b.max()
        lo, hi = 0.0, (1.0 - 1e-12) / b_max
        theta = min(0.5 / b_max, hi)
    else:
        b_min = min(b) if listed else b.min()
        # n copies of one shape sum to n * shape, correctly rounded either way
        total = len(b) * shape if isinstance(shape, (int, float)) else fsum(shape)
        lo = (1.0 - 1e-12) / b_min if b_min < 0.0 else -total / target
        hi = 0.0
        theta = 0.5 * lo
    for _ in range(_MAX_NEWTON_ITER):
        k1, k2 = cumulant_slopes(b, shape, theta)
        g = k1 - target
        if g > 0.0:
            hi = theta
        else:
            lo = theta
        step = g / k2
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
            k1, k2 = cumulant_slopes(b, shape, nxt)
            last = nxt - (k1 - target) / k2
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


def rate_function(d: Distribution, t: float) -> float:
    """Cramer rate I(t) = sup_{theta>0} (t*theta - psi(theta)) for one summand.

    Closed form t - g - g log(t/g), attained at theta* = 1 - g/t, for
    gamma(g); exponential is g = 1.  ``t`` is in absolute units (t > mean
    of the summand).  Laplace summands raise UnsupportedLawError.
    """
    d.require_nonnegative("rate_function")
    t = float(t)
    g = d.shape
    if not t > g:
        raise InvalidInputError(f"rate_function needs t > {g} (the summand mean), got {t}")
    return t - g - g * math.log(t / g)
