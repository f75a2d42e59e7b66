"""Verification campaigns: sandwich certification and invariant spot checks.

``sandwich_report`` certifies lower <= exact <= upper on random instances.
The bounds are those ``exptails bounds`` prints, evaluated the same way:
``bounds.law_bounds`` with the exact P(S >= E S).  A row's lower is the
largest valid lower bound and its upper the smallest valid upper bound, so
a row fails if any valid printed bound is on the wrong side of the exact
oracle; a NumericFailureError from the oracle propagates (the CLI exits 3).
``property_suite`` re-runs the library's mathematical invariants on random
instances and returns one result per invariant, with a witness for any
failure.  Both draw their instances from ``random_instances``, which rejects
a seed that is not a non-negative integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import bounds
from .core import (
    Distribution,
    InvalidInputError,
    WeightVector,
    check_seed,
    format_float,
    threshold_unit,
)
from .oracle import exact_tail, p_ge_mean

# relative tolerance of the sandwich check, on both sides
_SLACK = 1.0 + 1e-9
# random instances: n uniform on 1..8, weights log-uniform on [0.1, 10]
_N_RANGE = (1, 8)
_WEIGHT_RANGE = (0.1, 10.0)


class _Record:
    """A record whose output form is its fields in order, ``passed`` printed as ``pass``."""

    def as_dict(self) -> dict:
        return {
            "pass" if f.name == "passed" else f.name: getattr(self, f.name) for f in fields(self)
        }


@dataclass(frozen=True)
class SandwichRow(_Record):
    instance: int
    dist: str
    weights: tuple[float, ...]
    n: int
    t: float
    lower: float
    exact: float
    upper: float
    slack_low: float
    slack_high: float
    passed: bool
    source: str


@dataclass(frozen=True)
class PropertyResult(_Record):
    name: str
    passed: bool
    detail: str
    witness: str = ""


def random_instances(seed: int, count: int) -> list[WeightVector]:
    """Seeded random weight vectors: n uniform, weights log-uniform."""
    seed = check_seed(seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    log_lo, log_hi = math.log(_WEIGHT_RANGE[0]), math.log(_WEIGHT_RANGE[1])
    out = []
    for _ in range(count):
        n = int(rng.integers(_N_RANGE[0], _N_RANGE[1] + 1))
        values = np.exp(rng.uniform(log_lo, log_hi, n))
        out.append(WeightVector(tuple(float(v) for v in values)))
    return out


def sandwich_report(
    d: Distribution,
    instances: int = 50,
    t_grid: tuple[float, ...] = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0),
    seed: int = 0,
) -> list[SandwichRow]:
    """One row per (instance, t): tightest valid lower bound, exact tail,
    tightest valid upper bound, of the bounds ``exptails bounds`` prints.

    Every row is a pure function of the arguments.  Thresholds are t * sigma
    for Laplace sums and t * E S otherwise.  A row passes when
    lower <= exact (1 + 1e-9) and exact <= upper (1 + 1e-9): the tolerance
    is relative, so that it still tests tails far below 1e-9.
    """
    if instances < 0:
        raise InvalidInputError(f"instance count must be >= 0, got {instances}")
    for t in t_grid:
        if not (math.isfinite(t) and t > 1.0):
            raise InvalidInputError(f"t grid must lie in (1, inf), got {t!r}")
    rows: list[SandwichRow] = []
    for idx, w in enumerate(random_instances(seed, instances)):
        unit = threshold_unit(d, w)
        p = p_ge_mean(d, w)
        for t in t_grid:
            printed = zip(d.bounds, bounds.law_bounds(d, w, t, p))
            valid = [(kind, b.value) for kind, b in printed if b.valid]
            # each kind's name ends in its side; at t > 1 each side has a valid bound
            lower = max(v for kind, v in valid if kind.endswith("_lower"))
            upper = min(v for kind, v in valid if kind.endswith("_upper"))
            exact, source = exact_tail(d, w, t * unit)
            rows.append(
                SandwichRow(
                    instance=idx,
                    dist=d.label(),
                    weights=w.values,
                    n=len(w),
                    t=float(t),
                    lower=lower,
                    exact=exact,
                    upper=upper,
                    slack_low=exact - lower,
                    slack_high=upper - exact,
                    passed=lower <= exact * _SLACK and exact <= upper * _SLACK,
                    source=source,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------


def _fmt_weights(w: WeightVector) -> str:
    return "(" + ", ".join(format_float(v) for v in w) + ")"


def _prop_squared_weight_floor(seed: int) -> tuple[str, list[str]]:
    """min over instances of P(sum a_i^2 Y_i >= sum a_i^2) >= 1/(16^(1/3) * 9), by the exact oracle."""
    floor = bounds.pz_bound(9.0)
    worst = math.inf
    witness = ""
    for w in random_instances(seed, 50):
        squared = WeightVector(tuple(v * v for v in w))
        p = exact_tail(Distribution.exponential(), squared, squared.l1)[0]
        if p < worst:
            worst = p
            witness = _fmt_weights(w)
    detail = f"min P = {worst:.6f} over 50 instances, floor {floor:.6f}"
    return detail, [] if worst >= floor else [witness]


def _prop_decay_propagation(seed: int) -> tuple[str, list[str]]:
    """P(S > u + v) >= exp(-v/a_max) P(S > u) for exponential sums."""
    d = Distribution.exponential()
    witnesses = []
    for w in random_instances(seed, 10):
        for u_mult in (0.5, 1.0, 2.0):
            for v_mult in (0.5, 1.0):
                u = u_mult * w.l1
                v = v_mult * w.a_max
                lhs = exact_tail(d, w, u + v)[0]
                rhs = math.exp(-v / w.a_max) * exact_tail(d, w, u)[0]
                if lhs < rhs * (1.0 - 1e-9):
                    witnesses.append(f"weights {_fmt_weights(w)}, u = {u!r}, v = {v!r}")
    return "10 instances x 6 (u, v) pairs", witnesses


def _prop_p_ge_mean_interval(seed: int) -> tuple[str, list[str]]:
    lo, hi = 1.0 / 24.0, 23.0 / 24.0
    witnesses = []
    for w in random_instances(seed, 50):
        p = p_ge_mean(Distribution.exponential(), w)
        if not (lo < p < hi):
            witnesses.append(f"weights {_fmt_weights(w)}, p = {p!r}")
    return "P(S >= E S) in (1/24, 23/24) on 50 exponential instances", witnesses


def _prop_asymptotic_order(seed: int) -> tuple[str, list[str]]:
    """-log P(S > t sigma) / (alpha t) stays within [0.9, 1.1] at t = 50."""
    t = 50.0
    witnesses = []
    d = Distribution.laplace()
    for w in random_instances(seed, 10):
        sigma = threshold_unit(d, w)
        tail = exact_tail(d, w, t * sigma)[0]
        ratio = -math.log(tail) / (sigma / w.a_max * t)  # alpha = sigma/a_max for Laplace sums
        if not (0.9 <= ratio <= 1.1):
            witnesses.append(f"weights {_fmt_weights(w)}, ratio = {ratio!r}")
    return "10 Laplace instances at t = 50", witnesses


_PROPERTY_CHECKS = (
    _prop_squared_weight_floor,
    _prop_decay_propagation,
    _prop_p_ge_mean_interval,
    _prop_asymptotic_order,
)


def property_suite(seed: int) -> tuple[PropertyResult, ...]:
    """Re-run the library's mathematical invariants on seeded random instances:
    a check passes when it collects no witness, and a failure reports the first."""
    results = []
    for check in _PROPERTY_CHECKS:
        detail, witnesses = check(seed)
        results.append(PropertyResult(
            name=check.__name__.removeprefix("_prop_"),
            passed=not witnesses,
            detail=detail,
            witness=witnesses[0] if witnesses else "",
        ))
    return tuple(results)
