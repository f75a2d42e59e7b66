"""Numeric verifiers the tests check the package against.

``h_sup`` and ``r_infimum_numeric`` compute by brute-force search what the
package computes in closed form: the supremum behind the Laplace rate shape
h, and the infimum that the tail-shift ratio r(v) bounds from below.
``sample_sum`` draws the sums themselves, so that the samplers behind the
Monte Carlo estimators can be checked in law.
"""

import math

import numpy as np
from scipy.special import gammaincc

from exptails.core import (
    Distribution,
    InvalidInputError,
    LawKind,
    NumericFailureError,
    WeightVector,
    as_weights,
    check_seed,
)
from exptails.montecarlo import _chunks, _draw_sums, _run_chunks, _substream

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _h_objective(theta: float, u: float) -> float:
    return theta * u + math.log1p(-theta * theta)


def h_sup(u: float) -> tuple[float, float]:
    """Maximize theta*u + log(1-theta^2) over theta in (0,1).

    This is the Laplace rate sup_theta (theta u - psi(theta)) with
    psi(theta) = -log(1-theta^2).  Returns (value, argmax).  Golden-section
    search on the open unit interval; the bracket collapses below 1e-14
    well inside 200 steps.
    """
    lo, hi = 0.0, 1.0
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    gc = _h_objective(c, u)
    gd = _h_objective(d, u)
    for _ in range(200):
        if hi - lo <= 1e-14:
            break
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - _GOLDEN * (hi - lo)
            gc = _h_objective(c, u)
        else:
            lo, c, gc = c, d, gd
            d = lo + _GOLDEN * (hi - lo)
            gd = _h_objective(d, u)
    else:
        raise NumericFailureError(f"h_sup bracket still {hi - lo:.3e} wide after 200 steps")
    theta = c if gc >= gd else d
    return _h_objective(theta, u), theta


def r_infimum_numeric(d: Distribution, v: float) -> float:
    """Numeric inf_u P(X > u+v)/P(X > u) over u in (0, max(100, 20 (shape+v))], in log space.

    Grid scan plus golden-section refinement around the best grid point.
    Always at least r_function(d, v) up to roundoff (that bound is valid for
    every u, so the infimum cannot drop below it).  The tails come from
    scipy's gammaincc, so u must stay where Q(shape, u) does not underflow.
    """
    if d.kind is LawKind.EXPONENTIAL:
        return math.exp(-v)
    g = d.shape
    u_cap = max(100.0, 20.0 * (g + v))

    def log_ratio(u: float) -> float:
        return math.log(gammaincc(g, u + v)) - math.log(gammaincc(g, u))

    n_grid = 200
    lo_u = 1e-6 * min(1.0, g)
    grid = [lo_u * (u_cap / lo_u) ** (i / (n_grid - 1)) for i in range(n_grid)]
    values = [log_ratio(u) for u in grid]
    best = min(range(n_grid), key=values.__getitem__)
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, n_grid - 1)]
    c = hi - _GOLDEN * (hi - lo)
    e = lo + _GOLDEN * (hi - lo)
    fc, fe = log_ratio(c), log_ratio(e)
    for _ in range(200):
        if hi - lo <= 1e-10 * (1.0 + hi):
            break
        if fc <= fe:
            hi, e, fe = e, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = log_ratio(c)
        else:
            lo, c, fc = c, e, fe
            e = lo + _GOLDEN * (hi - lo)
            fe = log_ratio(e)
    return math.exp(min(values[best], fc, fe))


_REPRESENTATIONS = ("direct", "gaussian_mixture")


def _mixture_chunk(weights: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    # S has the law of sqrt(2 sum a_i^2 Y_i) * G, Y_i exponential, G Gaussian
    y = rng.standard_exponential((m, weights.shape[0]))
    g = rng.standard_normal(m)
    return np.sqrt(2.0 * (y @ np.square(weights))) * g


def sample_sum(
    d: Distribution,
    w: "WeightVector | list[float]",
    n: int,
    seed: int,
    representation: str = "direct",
    workers: "int | None" = None,
) -> np.ndarray:
    """n independent draws of S = sum_i a_i X_i, deterministic given seed.

    ``direct`` uses the chunked substreams of the plain estimator.
    ``gaussian_mixture`` draws S as sqrt(2 sum a_i^2 Y_i) * G and is valid
    for Laplace sums only.
    """
    w = as_weights(w)
    seed = check_seed(seed)
    if n < 1:
        raise InvalidInputError(f"sample count must be >= 1, got {n}")
    if representation not in _REPRESENTATIONS:
        raise InvalidInputError(
            f"unknown representation {representation!r}; expected one of {_REPRESENTATIONS}"
        )
    if representation == "gaussian_mixture" and d.kind is not LawKind.LAPLACE:
        raise InvalidInputError(
            f"gaussian_mixture representation applies to Laplace sums, not {d.label()}"
        )
    b = d.scales(w)
    weights = np.asarray(w.values, dtype=float)

    def worker(chunk: tuple[int, int]) -> np.ndarray:
        index, count = chunk
        rng = _substream(seed, index)
        if representation == "direct":
            return _draw_sums(d.shape, b, 0.0, count, rng)
        return _mixture_chunk(weights, count, rng)

    return np.concatenate(_run_chunks(worker, _chunks(n), workers))
