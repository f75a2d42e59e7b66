"""Closed-form tail bounds for weighted sums.

Every bound is computed in log space first and exponentiated at the end, so
far-tail evaluations (exponents up to ~1e4) stay finite and comparable.
Bounds evaluated outside their theorem range (t at or below 1) return the
formula value with ``valid=False`` instead of raising, so curves can be
plotted through the trivial region; past e^709 that value is inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Distribution,
    InvalidInputError,
    WeightVector,
    as_weights,
)
from .special import h_closed

_SQRT2E = math.sqrt(2.0 * math.e)
MOMENT_CONSTANT_PAPER = _SQRT2E / (_SQRT2E + 1.0)
MOMENT_CONSTANT_PROOF = math.sqrt(2.0 / math.e) / (_SQRT2E + 1.0)


@dataclass(frozen=True)
class BoundValue:
    """A bound evaluation: exp(log_value), the bound's name in ``core._LAWS``, and validity."""

    value: float
    log_value: float
    kind: str
    valid: bool


def _make(log_value: float, kind: str, valid: bool) -> BoundValue:
    try:
        value = math.exp(log_value)
    except OverflowError:  # only a formula value outside the theorem range passes e^709
        value = math.inf
    return BoundValue(value=value, log_value=log_value, kind=kind, valid=valid)


def _check_t(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidInputError(f"t must be a positive multiple of the scale, got {t!r}")
    return t


def _alpha_exp(w: "WeightVector | Sequence[float]") -> float:
    """alpha = l1/a_max, which drives the one-sided (exponential and gamma) bounds."""
    w = as_weights(w)
    return w.l1 / w.a_max


def _alpha_sym(w: "WeightVector | Sequence[float]") -> float:
    """alpha = sqrt(2) l2/a_max, which drives the Laplace bounds: sigma/a_max of the sum."""
    w = as_weights(w)
    return math.sqrt(2.0) * w.l2 / w.a_max


def _rate(t: float) -> float:
    """Cramer rate of one exponential(1) summand at t, in units of its mean."""
    return t - 1.0 - math.log(t)


def janson_upper(t: float, w: "WeightVector | Sequence[float]") -> BoundValue:
    """Upper tail bound (1/t) exp(-alpha (t-1-log t)) for P(S >= t E S), exponential sums."""
    t = _check_t(t)
    alpha = _alpha_exp(w)
    log_value = -math.log(t) - alpha * _rate(t)
    return _make(log_value, "janson_upper", valid=t > 1.0)


def janson_lower(t: float, w: "WeightVector | Sequence[float]") -> BoundValue:
    """Lower tail bound (1/(2 e alpha)) exp(-alpha (t-1)) for P(S >= t E S), exponential sums."""
    t = _check_t(t)
    alpha = _alpha_exp(w)
    log_value = -math.log(2.0 * math.e * alpha) - alpha * (t - 1.0)
    return _make(log_value, "janson_lower", valid=t > 1.0)


def laplace_upper(t: float, w: "WeightVector | Sequence[float]") -> BoundValue:
    """Upper bound exp(-(alpha^2/2) h(2t/alpha)) for P(S > t sqrt(Var S)), Laplace sums."""
    t = _check_t(t)
    alpha = _alpha_sym(w)
    log_value = -0.5 * alpha * alpha * h_closed(2.0 * (t / alpha))
    return _make(log_value, "laplace_upper", valid=True)


def laplace_lower(t: float, w: "WeightVector | Sequence[float]") -> BoundValue:
    """Lower bound (1/57) (alpha t)^(-1/2) exp(-alpha t) for P(S > t sqrt(Var S)), t >= 1."""
    t = _check_t(t)
    at = _alpha_sym(w) * t
    log_value = -math.log(57.0) - 0.5 * math.log(at) - at
    return _make(log_value, "laplace_lower", valid=t >= 1.0)


def generic_upper(d: Distribution, w: "WeightVector | Sequence[float]", t: float) -> BoundValue:
    """Chernoff-type bound exp(-alpha g (t-1-log t)) for P(S >= t E S), gamma(g) summands.

    g (t-1-log t) is one summand's Cramer rate at t times its mean g.  For
    t <= 1 the rate is 0 (the supremum over positive tilts collapses) and
    the bound degenerates to 1 with valid=False.
    """
    d.require_nonnegative("generic_upper")
    alpha = _alpha_exp(w)
    t = _check_t(t)
    rate = d.shape * _rate(t) if t > 1.0 else 0.0
    return _make(-alpha * rate, "generic_upper", valid=t > 1.0)


def _log_r_function(d: Distribution, v: float) -> float:
    """log of the tail-shift ratio bound r(v) <= inf_u P(X > u+v)/P(X > u).

    r(v) = exp(-v), times min(v^(shape-1), 1)/(2 Gamma(shape)) for gamma(shape < 1).
    """
    if d.shape < 1.0:
        g = d.shape
        return -math.log(2.0) - math.lgamma(g) + min((g - 1.0) * math.log(v), 0.0) - v
    return -v


def generic_lower(
    d: Distribution,
    w: "WeightVector | Sequence[float]",
    t: float,
    p_ge_mean: float,
) -> BoundValue:
    """Lower bound P(S >= E S) * r((t-1) alpha mu) for P(S >= t E S), nonnegative laws.

    ``p_ge_mean`` is the caller's bound or exact value for P(S >= E S).  For
    t <= 1 the shift is clamped at 0 where r(0+) = 1 by continuity, and the
    result is flagged invalid.
    """
    d.require_nonnegative("generic_lower")
    alpha = _alpha_exp(w)
    t = _check_t(t)
    p_ge_mean = float(p_ge_mean)
    if not 0.0 < p_ge_mean <= 1.0:
        raise InvalidInputError(f"p_ge_mean must be in (0, 1], got {p_ge_mean!r}")
    v = (t - 1.0) * alpha * d.mean
    log_r = _log_r_function(d, v) if v > 0.0 else 0.0
    return _make(math.log(p_ge_mean) + log_r, "generic_lower", valid=t > 1.0)


def pz_bound(c: float) -> float:
    """Paley-Zygmund-type floor 1/(16^(1/3) max(c, 3)) on P(Z >= 0).

    ``c`` is the fourth-moment ratio E Z^4 / (E Z^2)^2 of the centered sum.
    """
    c = float(c)
    if not math.isfinite(c) or c < 1.0:
        raise InvalidInputError(f"fourth-moment ratio must be >= 1, got {c!r}")
    return 1.0 / (16.0 ** (1.0 / 3.0) * max(c, 3.0))


def s_inequality_upper(d: Distribution, t: float, p_ge_mean: float) -> BoundValue:
    """Upper bound p^t = exp(-a t) with a = -log p for p = P(S >= E S), t >= 1.

    The bound needs a log-concave survival function: log P(S >= x) is then
    concave and 0 at x = 0, so it is at most t log p at x = t E S.  Gamma
    summands of shape >= 1 have log-concave densities, and so has their sum
    (Prekopa), whose survival function is then log-concave.  Below shape 1
    the bound fails (shape 0.5, one weight, t = 30: p^t is 1.1e-15, the tail
    4.3e-8).  Flagged invalid when t < 1, when the shape is below 1, or when
    p is outside the certified interval (1/24, 23/24).

    The interval guards only a p a caller supplies: for a log-concave law
    P(S >= E S) lies in [1/e, 1 - 1/e] (Grunbaum), inside it, so it never
    flips a printed row (exponential and gamma sums of shapes 1 to 1e4 on 60
    harness instances: p from 0.36788, 1/e at n = 1, to 0.49941).
    """
    d.require_nonnegative("s_inequality_upper")
    t = _check_t(t)
    p_ge_mean = float(p_ge_mean)
    if not 0.0 < p_ge_mean < 1.0:
        raise InvalidInputError(f"p_ge_mean must be in (0, 1), got {p_ge_mean!r}")
    valid = t >= 1.0 and d.shape >= 1.0 and 1.0 / 24.0 < p_ge_mean < 23.0 / 24.0
    return _make(t * math.log(p_ge_mean), "s_ineq_upper", valid=valid)


# keyed by core._LAWS' bound names, each looked up at call time: a wrapper put on the module sees it
_EVALUATE = {
    "janson_lower": lambda d, w, t, p: janson_lower(t, w),
    "janson_upper": lambda d, w, t, p: janson_upper(t, w),
    "laplace_lower": lambda d, w, t, p: laplace_lower(t, w),
    "laplace_upper": lambda d, w, t, p: laplace_upper(t, w),
    "generic_lower": lambda d, w, t, p: generic_lower(d, w, t, p),
    "generic_upper": lambda d, w, t, p: generic_upper(d, w, t),
    "s_ineq_upper": lambda d, w, t, p: s_inequality_upper(d, t, p),
}


def law_bounds(
    d: Distribution, w: "WeightVector | Sequence[float]", t: float, p_ge_mean: "float | None"
) -> list[BoundValue]:
    """The law's bounds at t threshold units, in the order of ``d.bounds``.

    ``p_ge_mean`` is a value or lower bound for P(S >= E S), which the generic
    lower bound and the power bound take; Laplace sums ignore it.
    """
    return [_EVALUATE[kind](d, w, t, p_ge_mean) for kind in d.bounds]


def moment_bounds(
    p: float,
    w: "WeightVector | Sequence[float]",
    mode: str = "proof_derived",
) -> tuple[float, float]:
    """Two-sided bounds on the moment norm (E|S|^p)^(1/p) for Laplace sums.

    Returns (lower, upper) = (c * base, 4 sqrt(2) * base) with
    base = p*max(a) + sqrt(p)*l2(a).  mode="proof_derived" uses
    c = sqrt(2/e)/(sqrt(2e)+1) ~ 0.2574596, the constant the argument
    actually yields; mode="paper" uses c = sqrt(2e)/(sqrt(2e)+1) ~ 0.6998479,
    which already fails at p=2, n=1 and is kept only so that counterexample
    can be reproduced.
    """
    p = float(p)
    if not math.isfinite(p) or p < 2.0:
        raise InvalidInputError(f"moment_bounds needs p >= 2, got {p!r}")
    if mode == "proof_derived":
        c = MOMENT_CONSTANT_PROOF
    elif mode == "paper":
        c = MOMENT_CONSTANT_PAPER
    else:
        raise InvalidInputError(f"mode must be 'proof_derived' or 'paper', got {mode!r}")
    w = as_weights(w)
    base = p * w.a_max + math.sqrt(p) * w.l2
    return c * base, 4.0 * math.sqrt(2.0) * base
