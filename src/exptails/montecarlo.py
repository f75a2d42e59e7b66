"""Samplers and Monte Carlo tail estimators for weighted sums.

Sampling is chunked over counter-based substreams (Philox) so that the same
seed gives bit-identical estimates no matter how many worker threads run the
chunks.  Plain estimation is a hit count; deep tails use exponentially
tilted importance sampling with the Chernoff tilt.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, ndtri

from .core import (
    Distribution,
    InvalidInputError,
    LawKind,
    WeightVector,
    as_weights,
    check_seed,
)
from .legendre import chernoff_tilt, sum_log_mgf

_CHUNK = 1 << 16
_TILT_CLAMP = 0.999
_CP_HIT_CUTOFF = 30
_Z95 = float(ndtri(0.975))


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


def _laplace_inverse_cdf(u: np.ndarray) -> np.ndarray:
    # F^{-1}(u) = log(2u) below the median, -log(2(1-u)) above
    lo = np.log(2.0 * np.maximum(u, 5e-324))
    hi = -np.log(2.0 * (1.0 - u))
    return np.where(u < 0.5, lo, hi)


def _direct_chunk(d: Distribution, weights: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    k = weights.shape[0]
    if d.kind is LawKind.LAPLACE:
        x = _laplace_inverse_cdf(rng.random((m, k)))
    elif d.kind is LawKind.EXPONENTIAL:
        x = rng.standard_exponential((m, k))
    else:
        x = rng.standard_gamma(d.shape, (m, k))
    return x @ weights


def _run_chunks(worker, chunk_list, workers: "int | None"):
    if workers is not None and workers > 1 and len(chunk_list) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, chunk_list))
    return [worker(c) for c in chunk_list]


def _binomial_interval(hits: int, n: int) -> tuple[float, float, float]:
    """(stderr, ci_low, ci_high) for a hit count; Clopper-Pearson when rare."""
    p = hits / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    if hits < _CP_HIT_CUTOFF:
        lo = 0.0 if hits == 0 else float(betaincinv(hits, n - hits + 1, 0.025))
        hi = 1.0 if hits == n else float(betaincinv(hits + 1, n - hits, 0.975))
        return stderr, lo, hi
    lo = max(0.0, p - _Z95 * stderr)
    hi = min(1.0, p + _Z95 * stderr)
    return stderr, lo, hi


def mc_tail(
    d: Distribution,
    w: "WeightVector | list[float]",
    threshold: float,
    n: int,
    seed: int,
    workers: "int | None" = None,
) -> MCEstimate:
    """Plain Monte Carlo estimate of P(S > threshold)."""
    w = as_weights(w)
    seed = check_seed(seed)
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise InvalidInputError(f"threshold must be finite, got {threshold!r}")
    if n < 100:
        raise InvalidInputError(f"plain MC needs n >= 100, got {n}")
    weights = np.asarray(w.values, dtype=float)

    def worker(chunk: tuple[int, int]) -> int:
        index, count = chunk
        rng = _substream(seed, index)
        sums = _direct_chunk(d, weights, count, rng)
        return int(np.count_nonzero(sums > threshold))

    hits = sum(_run_chunks(worker, _chunks(n), workers))
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


def _tilted_chunk(
    d: Distribution, weights: np.ndarray, theta: float, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Sums drawn from the theta-tilted product law."""
    k = weights.shape[0]
    if d.kind is LawKind.LAPLACE:
        tau = theta * weights
        # branch masses 1/(2(1-tau)) and 1/(2(1+tau)), normalized
        p_plus = (1.0 + tau) / 2.0
        positive = rng.random((m, k)) < p_plus
        mag = rng.standard_exponential((m, k))
        x = np.where(
            positive,
            mag * (weights / (1.0 - tau)),
            -mag * (weights / (1.0 + tau)),
        )
        return x.sum(axis=1)
    scales = weights / (1.0 - theta * weights)
    if d.kind is LawKind.EXPONENTIAL:
        x = rng.standard_exponential((m, k))
    else:
        x = rng.standard_gamma(d.shape, (m, k))
    return x @ scales


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
    estimator averages indicator * likelihood ratio and is unbiased.
    """
    w = as_weights(w)
    seed = check_seed(seed)
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise InvalidInputError(f"threshold must be finite, got {threshold!r}")
    if n < 100:
        raise InvalidInputError(f"importance sampling needs n >= 100, got {n}")
    mean_s = d.mean * w.l1
    if threshold <= mean_s:
        raise InvalidInputError(
            f"threshold {threshold!r} is not above the mean {mean_s!r}; use mc_tail"
        )
    theta = min(chernoff_tilt(d, w, threshold), _TILT_CLAMP / w.a_max)
    log_norm = sum_log_mgf(d, w, theta)
    weights = np.asarray(w.values, dtype=float)

    def worker(chunk: tuple[int, int]) -> tuple[float, float]:
        index, count = chunk
        rng = _substream(seed, index)
        sums = _tilted_chunk(d, weights, theta, count, rng)
        log_lr = -theta * sums + log_norm
        z = np.where(sums > threshold, np.exp(log_lr), 0.0)
        return float(np.sum(z)), float(np.dot(z, z))

    partials = _run_chunks(worker, _chunks(n), workers)
    s1 = math.fsum(p[0] for p in partials)
    s2 = math.fsum(p[1] for p in partials)
    p_hat = s1 / n
    var = max(0.0, (s2 - n * p_hat * p_hat) / (n - 1))
    stderr = math.sqrt(var / n)
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
