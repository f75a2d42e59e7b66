"""Samplers and Monte Carlo tail estimators for weighted sums.

Sampling is chunked over counter-based substreams (Philox) so that the same
seed gives bit-identical estimates no matter how many worker threads run the
chunks; a chunk is drawn in row blocks of bounded size, so a worker's memory
does not grow with the number of weights.  Every law is gamma(shape) on
signed scales b (``Distribution.scales``), so one draw serves all of them:
S = sum_j b_j G_j with G_j i.i.d. gamma(shape), and a Laplace sum is a
difference of exponential sums.
Tilting by theta keeps each G_j gamma(shape) and turns b_j into
b_j / (1 - theta b_j).  Plain estimation (theta = 0) is a hit count; deep
tails use exponentially tilted importance sampling with the Chernoff tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Distribution,
    InvalidInputError,
    WeightVector,
    as_weights,
    check_seed,
)
from .legendre import chernoff_tilt, cumulant

_CHUNK = 1 << 16
_DRAW_BLOCK = 1 << 15  # gamma entries drawn at once: a worker's memory, whatever n
_TILT_CLAMP = 0.999
_CP_CUTOFF = 30  # fewer hits or misses than this: Clopper-Pearson
# the 0.975 standard normal quantile, float(scipy.special.ndtri(0.975)) bit for bit
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class MCEstimate:
    """Tail estimate with a 95% interval; a pure function of inputs + seed."""

    p_hat: float
    stderr: float
    ci_low: float
    ci_high: float
    n: int
    method: str
    seed: int
    tilt_theta: float = 0.0


def _substream(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def _chunks(n: int) -> list[tuple[int, int]]:
    """(chunk index, count) pairs whose counts add up to n, in order."""
    return [(index, min(_CHUNK, n - start)) for index, start in enumerate(range(0, n, _CHUNK))]


def _draw_sums(
    shape: float, b: np.ndarray, theta: float, m: int, rng: np.random.Generator
) -> np.ndarray:
    """m draws of S = sum_j b_j G_j, G_j i.i.d. gamma(shape), under the theta-tilted law.

    The gammas come in row blocks of at most _DRAW_BLOCK entries (8 rows once
    a row is wider than _DRAW_BLOCK / 8), so the draw holds one block and the
    m sums.  The generator fills consecutive blocks as it would fill one
    matrix, and each row's product keeps its bits as long as every block but
    the last is a whole number of 8-row groups and no block is a single row,
    which BLAS would hand to a dot product: a one-row remainder joins the
    block before.
    """
    scales = b / (1.0 - theta * b)
    rows = max(8, _DRAW_BLOCK // b.size // 8 * 8)
    sums = np.empty(m)
    start = 0
    while start < m:
        stop = m if m - start <= rows + 1 else start + rows
        sums[start:stop] = rng.standard_gamma(shape, (stop - start, b.size)) @ scales
        start = stop
    return sums


def _run_chunks(worker, chunk_list, workers: "int | None"):
    if workers is not None and workers > 1 and len(chunk_list) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, chunk_list))
    return [worker(c) for c in chunk_list]


def _binomial_interval(hits: int, n: int) -> tuple[float, float, float]:
    """(stderr, ci_low, ci_high) for a hit count; Clopper-Pearson when hits or misses are rare."""
    p = hits / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    if min(hits, n - hits) < _CP_CUTOFF:
        # imported here: scipy.special would double the import time of the package
        from scipy.special import betaincinv

        lo = 0.0 if hits == 0 else float(betaincinv(hits, n - hits + 1, 0.025))
        hi = 1.0 if hits == n else float(betaincinv(hits + 1, n - hits, 0.975))
        return stderr, lo, hi
    lo = max(0.0, p - _Z95 * stderr)
    hi = min(1.0, p + _Z95 * stderr)
    return stderr, lo, hi


def _checked(w, seed: int, threshold: float, n: int, what: str):
    """(weights, seed, threshold) validated for an estimator that needs n >= 100."""
    w = as_weights(w)
    seed = check_seed(seed)
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise InvalidInputError(f"threshold must be finite, got {threshold!r}")
    if n < 100:
        raise InvalidInputError(f"{what} needs n >= 100, got {n}")
    return w, seed, threshold


def _weight_sums(
    d: Distribution, b: np.ndarray, theta: float, threshold: float, n: int, seed: int,
    workers: "int | None",
) -> tuple[float, float]:
    """(sum z, sum z^2) over n theta-tilted draws, z = 1{S > t} e^(-theta (S - t)) in [0, 1].

    Each chunk turns its sums into the weights in place, so a worker holds one
    draw block, the chunk's sums and one hit mask; ``exp`` runs on hits only.
    The chunks' partials are added with fsum in chunk order, so every worker
    count gives the same bits.  At theta = 0 every hit weighs exactly 1 and
    sum z is the hit count.
    """

    def worker(chunk: tuple[int, int]) -> tuple[float, float]:
        index, count = chunk
        z = _draw_sums(d.shape, b, theta, count, _substream(seed, index))
        hit = z > threshold
        z -= threshold
        z *= -theta
        np.exp(z, out=z, where=hit)
        z[~hit] = 0.0
        return float(np.sum(z)), float(np.dot(z, z))

    partials = _run_chunks(worker, _chunks(n), workers)
    return math.fsum(p[0] for p in partials), math.fsum(p[1] for p in partials)


def mc_tail(
    d: Distribution,
    w: "WeightVector | list[float]",
    threshold: float,
    n: int,
    seed: int,
    workers: "int | None" = None,
) -> MCEstimate:
    """Plain Monte Carlo estimate of P(S > threshold)."""
    w, seed, threshold = _checked(w, seed, threshold, n, "plain MC")
    hits = int(_weight_sums(d, d.scales(w), 0.0, threshold, n, seed, workers)[0])
    stderr, lo, hi = _binomial_interval(hits, n)
    return MCEstimate(
        p_hat=hits / n,
        stderr=stderr,
        ci_low=lo,
        ci_high=hi,
        n=n,
        method="plain",
        seed=seed,
        tilt_theta=0.0,
    )


def is_tail(
    d: Distribution,
    w: "WeightVector | list[float]",
    threshold: float,
    n: int,
    seed: int,
    workers: "int | None" = None,
) -> MCEstimate:
    """Importance-sampling estimate of P(S > threshold) by exponential tilting.

    The tilt solves the Chernoff stationarity condition at the threshold,
    clamped to 0.999/max(a), and is reported as ``tilt_theta``.  The
    estimator averages indicator * likelihood ratio and is unbiased.  The
    ratio e^(K(theta) - theta S) is the Chernoff bound e^(K(theta) - theta t)
    times a weight in (0, 1] on each hit; the bound scales the weights' mean
    and standard error once, so no square falls below the float range.
    """
    w, seed, threshold = _checked(w, seed, threshold, n, "importance sampling")
    mean_s = d.mean * w.l1
    if threshold <= mean_s:
        raise InvalidInputError(
            f"threshold {threshold!r} is not above the mean {mean_s!r}; use mc_tail"
        )
    theta = min(chernoff_tilt(d, w, threshold), _TILT_CLAMP / w.a_max)
    b = d.scales(w)
    bound = math.exp(cumulant(b, d.shape, theta) - theta * threshold)
    s1, s2 = _weight_sums(d, b, theta, threshold, n, seed, workers)
    mean_z = s1 / n
    p_hat = bound * mean_z
    stderr = bound * math.sqrt(max(0.0, (s2 - n * mean_z * mean_z) / (n - 1)) / n)
    lo = max(0.0, p_hat - _Z95 * stderr)
    hi = min(1.0, p_hat + _Z95 * stderr)
    return MCEstimate(
        p_hat=p_hat,
        stderr=stderr,
        ci_low=lo,
        ci_high=hi,
        n=n,
        method="tilted",
        seed=seed,
        tilt_theta=theta,
    )
