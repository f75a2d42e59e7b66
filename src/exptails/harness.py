"""Verification campaigns: sandwich certification and invariant spot checks.

``sandwich_report`` certifies lower <= exact <= upper on random instances:
the pair is the law's ``bounds.sandwich_pair``, with the Paley-Zygmund
floor standing in for P(S >= E S), and the middle is the exact oracle; a
NumericFailureError from it propagates (the CLI exits 3).
``property_suite`` re-runs the library's mathematical invariants on random
instances and returns one result per invariant, with a witness for any
failure.  Both draw their instances from ``random_instances``, which rejects
a seed that is not a non-negative integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bounds import pz_bound, sandwich_pair
from .core import (
    Distribution,
    InvalidInputError,
    WeightVector,
    check_seed,
    format_float,
    threshold_unit,
)
from .oracle import exact_tail, p_ge_mean
from .special import gaussian_tail, gaussian_tail_lower, h_closed

# relative tolerance of the sandwich check, on both sides
_SLACK = 1.0 + 1e-9
# random instances: n uniform on 1..8, weights log-uniform on [0.1, 10]
_N_RANGE = (1, 8)
_WEIGHT_RANGE = (0.1, 10.0)


@dataclass(frozen=True)
class SandwichConfig:
    """Campaign parameters; every row is a pure function of these."""

    distribution: Distribution
    instances: int = 50
    t_grid: tuple[float, ...] = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.instances < 0:
            raise InvalidInputError(f"instance count must be >= 0, got {self.instances}")
        for t in self.t_grid:
            if not (math.isfinite(t) and t > 1.0):
                raise InvalidInputError(f"t grid must lie in (1, inf), got {t!r}")


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


def sandwich_report(config: SandwichConfig) -> list[SandwichRow]:
    """One row per (instance, t): lower bound, exact tail, upper bound.

    Thresholds are t * sigma for Laplace sums and t * E S otherwise.  A row
    passes when lower <= exact (1 + 1e-9) and exact <= upper (1 + 1e-9): the
    tolerance is relative, so that it still tests tails far below 1e-9.
    """
    d = config.distribution
    rows: list[SandwichRow] = []
    # universal floor on P(S >= E S), the only unknown in the generic lower bound
    floor = pz_bound(3.0 * (1.0 + 2.0 / d.shape)) if d.nonnegative else None
    for idx, w in enumerate(random_instances(config.seed, config.instances)):
        unit = threshold_unit(d, w)
        for t in config.t_grid:
            lower, upper = (b.value for b in sandwich_pair(d, w, t, floor))
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


def _prop_squared_weight_floor(seed: int) -> PropertyResult:
    """P(sum a_i^2 Y_i >= sum a_i^2) >= 1/(16^(1/3) * 9) via the exact oracle."""
    floor = pz_bound(9.0)
    worst = math.inf
    witness = ""
    for w in random_instances(seed, 50):
        squared = WeightVector(tuple(v * v for v in w))
        p = exact_tail(Distribution.exponential(), squared, squared.l1)[0]
        if p < worst:
            worst = p
            witness = _fmt_weights(w)
    passed = worst >= floor
    return PropertyResult(
        name="squared_weight_floor",
        passed=passed,
        detail=f"min P = {worst:.6f} over 50 instances, floor {floor:.6f}",
        witness="" if passed else witness,
    )


def _prop_gaussian_tail_lower(_: int) -> PropertyResult:
    grid = np.geomspace(1e-2, 10.0, 100)
    bad = [float(u) for u in grid if gaussian_tail_lower(float(u)) > gaussian_tail(float(u))]
    return PropertyResult(
        name="gaussian_tail_lower",
        passed=not bad,
        detail=f"checked {len(grid)} grid points in [0.01, 10]",
        witness="" if not bad else f"u = {bad[0]!r}",
    )


def _prop_h_regimes(_: int) -> PropertyResult:
    """h(u) >= u^2/5 below sqrt(2) and h(u) >= u/4 above."""
    grid = np.geomspace(1e-3, 1e3, 200)
    bad = []
    for u in map(float, grid):
        value = h_closed(u)
        floor = u * u / 5.0 if u < math.sqrt(2.0) else u / 4.0
        if value < floor:
            bad.append(u)
    return PropertyResult(
        name="h_regimes",
        passed=not bad,
        detail="quadratic floor below sqrt(2), linear floor above, 200 points",
        witness="" if not bad else f"u = {bad[0]!r}",
    )


def _prop_decay_propagation(seed: int) -> PropertyResult:
    """P(S > u + v) >= exp(-v/a_max) P(S > u) for exponential sums."""
    d = Distribution.exponential()
    failures = []
    instances = random_instances(seed, 10)
    for w in instances:
        mean_s = w.l1
        for u_mult in (0.5, 1.0, 2.0):
            for v_mult in (0.5, 1.0):
                u = u_mult * mean_s
                v = v_mult * w.a_max
                lhs = exact_tail(d, w, u + v)[0]
                rhs = math.exp(-v / w.a_max) * exact_tail(d, w, u)[0]
                if lhs < rhs * (1.0 - 1e-9):
                    failures.append((w, u, v))
    passed = not failures
    witness = ""
    if failures:
        w, u, v = failures[0]
        witness = f"weights {_fmt_weights(w)}, u = {u!r}, v = {v!r}"
    return PropertyResult(
        name="decay_propagation",
        passed=passed,
        detail=f"{len(instances)} instances x 6 (u, v) pairs",
        witness=witness,
    )


def _prop_p_ge_mean_interval(seed: int) -> PropertyResult:
    lo, hi = 1.0 / 24.0, 23.0 / 24.0
    bad = []
    instances = random_instances(seed, 50)
    for w in instances:
        p = p_ge_mean(Distribution.exponential(), w)
        if not (lo < p < hi):
            bad.append((w, p))
    return PropertyResult(
        name="p_ge_mean_interval",
        passed=not bad,
        detail=f"P(S >= E S) in (1/24, 23/24) on {len(instances)} exponential instances",
        witness="" if not bad else f"weights {_fmt_weights(bad[0][0])}, p = {bad[0][1]!r}",
    )


def _prop_asymptotic_order(seed: int) -> PropertyResult:
    """-log P(S > t sigma) / (alpha t) stays within [0.9, 1.1] at t = 50."""
    t = 50.0
    bad = []
    instances = random_instances(seed, 10)
    d = Distribution.laplace()
    for w in instances:
        sigma = threshold_unit(d, w)
        tail = exact_tail(d, w, t * sigma)[0]
        ratio = -math.log(tail) / (sigma / w.a_max * t)  # alpha = sigma/a_max for Laplace sums
        if not (0.9 <= ratio <= 1.1):
            bad.append((w, ratio))
    return PropertyResult(
        name="asymptotic_order",
        passed=not bad,
        detail=f"{len(instances)} Laplace instances at t = 50",
        witness="" if not bad else f"weights {_fmt_weights(bad[0][0])}, ratio = {bad[0][1]!r}",
    )


_PROPERTY_CHECKS = (
    _prop_squared_weight_floor,
    _prop_gaussian_tail_lower,
    _prop_h_regimes,
    _prop_decay_propagation,
    _prop_p_ge_mean_interval,
    _prop_asymptotic_order,
)


def property_suite(seed: int) -> tuple[PropertyResult, ...]:
    """Re-run the library's mathematical invariants on seeded random instances."""
    return tuple(check(seed) for check in _PROPERTY_CHECKS)
