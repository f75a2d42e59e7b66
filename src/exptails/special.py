"""Scalar special functions: the Erlang tail Q(k+1, x) and the Laplace rate
shape h of the bounds.

Each is elementary float arithmetic; nothing here imports scipy.  No package
route calls the Erlang tail; it stays while the benchmark's trace counts it.
"""

from __future__ import annotations

import math
import operator

from .core import InvalidInputError

# Up to this x, e^-x is a normal float and x^j/j! <= e^x is finite.
_X_DIRECT = 700.0
# log of the smallest positive float
_LOG_TINIEST = math.log(math.ulp(0.0))


def gamma_upper_tail(k: int, x: float) -> float:
    """Q(k+1, x) = e^-x sum_{j<=k} x^j/j! for an integer k >= 0 and x >= 0.

    The regularized upper incomplete gamma function at integer order, the
    tail P(G > x) of an Erlang(k+1) variable G; Q(1, x) is e^-x.  The sum is
    taken relative to its largest term, at j0 = min(k, floor(x)): up to it
    the Horner value 1 + (j0/x)(1 + ((j0-1)/x)(...)) on the ratios j/x <= 1,
    past it a forward sum on the ratios x/j < 1.  All terms are positive, so
    nothing cancels.  The largest term is e^-x times j0 factors x/m >= 1;
    past x = 700, e^-x is split into 2^i equal factors, interleaved with them
    while the product is at least 1 and applied after them otherwise, so that
    no partial product over- or underflows.  The relative error is a few eps
    times sqrt(k + 1); results below the normal range lose relative
    accuracy, and those below the smallest subnormal are 0.
    """
    k = operator.index(k)
    x = float(x)
    if k < 0 or not x >= 0.0:
        raise InvalidInputError(f"gamma_upper_tail needs k >= 0 and x >= 0, got {k!r}, {x!r}")
    if k == 0 or x == math.inf:
        return math.exp(-x)
    top = min(k, math.floor(x))
    if x <= _X_DIRECT:
        lead, pieces, down = math.exp(-x), 0, 1.0
    else:
        log_lead = top * math.log(x) - x - math.lgamma(top + 1)
        if log_lead + math.log(k + 1) < _LOG_TINIEST - 1.0:
            return 0.0
        pieces = 1 << math.ceil(math.log2(x / _X_DIRECT))
        lead, down = 1.0, math.exp(-x / pieces)
    below = 1.0
    for m in range(1, top + 1):
        if pieces and lead >= 1.0:
            lead *= down
            pieces -= 1
        lead *= x / m
        below = 1.0 + below * m / x
    for _ in range(pieces):  # the pieces still due
        lead *= down
    above, ratio = 0.0, 1.0
    for j in range(top + 1, k + 1):
        ratio *= x / j
        above += ratio
    return lead * (below + above)


def h_closed(u: float) -> float:
    """h(u) = sqrt(1+u^2) - 1 - log((1+sqrt(1+u^2))/2).

    Evaluated as d - log1p(d/2) with d = u^2/(1+sqrt(1+u^2)), which stays
    accurate down to the h(u) ~ u^2/4 regime for tiny u; where u^2 overflows
    (u past 1.3e154), d is u times u/(1+sqrt(1+u^2)), which rounds to 1.
    h(inf) is inf, the limit, so that a bound whose argument overflows is 0.
    """
    u = float(u)
    if not u >= 0.0:
        raise InvalidInputError(f"h is defined for u >= 0, got {u!r}")
    if u == math.inf:
        return u
    s = 1.0 + math.hypot(1.0, u)
    d = u * u / s if u * u < math.inf else u * (u / s)
    return d - math.log1p(0.5 * d)

