"""Scalar special functions of the bounds and the harness: the Laplace rate
shape h and the standard normal tail with its lower bound.

The incomplete gamma and beta functions (Erlang tails of the mixture oracle,
Clopper-Pearson quantiles) come from scipy.special.
"""

from __future__ import annotations

import math

from .core import InvalidInputError


def h_closed(u: float) -> float:
    """h(u) = sqrt(1+u^2) - 1 - log((1+sqrt(1+u^2))/2).

    Evaluated as d - log1p(d/2) with d = u^2/(1+sqrt(1+u^2)), which stays
    accurate down to the h(u) ~ u^2/4 regime for tiny u.
    """
    u = float(u)
    if not math.isfinite(u) or u < 0.0:
        raise InvalidInputError(f"h is defined for u >= 0, got {u!r}")
    d = u * u / (1.0 + math.hypot(1.0, u))
    return d - math.log1p(0.5 * d)


def gaussian_tail(u: float) -> float:
    """Exact standard normal tail P(G > u) via erfc."""
    return 0.5 * math.erfc(float(u) / math.sqrt(2.0))


def gaussian_tail_lower(u: float) -> float:
    """Lower bound (1/sqrt(2*pi)) * u/(u^2+1) * exp(-u^2/2) on the normal tail, u > 0."""
    u = float(u)
    if not math.isfinite(u) or u <= 0.0:
        raise InvalidInputError(f"gaussian_tail_lower needs u > 0, got {u!r}")
    return u / (u * u + 1.0) * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
