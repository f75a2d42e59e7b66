"""Numeric verifiers the tests check the package against.

``h_sup`` and ``r_infimum_numeric`` compute by brute-force search what the
package computes in closed form: the supremum behind the Laplace rate shape
h, and the infimum that the tail-shift ratio r(v) bounds from below.
``sample_sum`` draws the sums themselves, so that the samplers behind the
Monte Carlo estimators can be checked in law.  ``series_mixture`` builds the
partial-fraction mixture with every coefficient from a truncated power-series
product, the general form that the package's closed-form product per pole
must reproduce.
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
from exptails.oracle import (
    _COEF_ABS_CAP,
    _COEF_DRIFT_TOL,
    _MAX_DISTINCT_SCALES,
    ExpMixture,
    MixtureSide,
    MixtureTerm,
    MixtureUnavailableError,
    _cluster_scales,
    _recip_power_series,
    _series_product,
)

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


def series_mixture(w: "WeightVector | list[float]", side: MixtureSide) -> ExpMixture:
    """The partial-fraction mixture with every pole's coefficients from a series product.

    Around the pole z = 1/b_j, with z = (1 - x)/b_j, each other clustered
    scale contributes the factor (1 - e + e x)^(-m_k), e = b_k/b_j; the
    two-sided MGF adds the pole's mirror (2 - x)^(-m_j) and (1 + e - e x)^(-m_k)
    per other scale.  The truncated product of the factors' Taylor series
    gives all m_j coefficients of the pole.  The same trust gates as the
    package's builder apply, to the finished mixture.
    """
    w = as_weights(w)
    groups = _cluster_scales(w.values)
    if len(groups) > _MAX_DISTINCT_SCALES:
        raise MixtureUnavailableError(
            f"{len(groups)} distinct scales exceeds the partial-fraction cap {_MAX_DISTINCT_SCALES}"
        )
    two_sided = side is MixtureSide.TWO_SIDED
    terms: list[MixtureTerm] = []
    for j, (b, m) in enumerate(groups):
        order = m - 1
        factors = [_recip_power_series(2.0, -1.0, m, order)] if two_sided else []
        for k, (bk, mk) in enumerate(groups):
            if k == j:
                continue
            e = bk / b
            factors.append(_recip_power_series(1.0 - e, e, mk, order))
            if two_sided:
                factors.append(_recip_power_series(1.0 + e, -e, mk, order))
        g = _series_product(factors, order)
        for ell in range(1, m + 1):
            coef = 2.0 * g[m - ell] if two_sided else g[m - ell]
            terms.append(MixtureTerm(coef=coef, scale=b, power=ell - 1))
    mix = ExpMixture(tuple(terms), side)
    abs_sum = mix.coef_abs_sum
    if abs_sum > _COEF_ABS_CAP:
        raise MixtureUnavailableError(
            f"partial-fraction coefficients too large to trust (sum |coef| = {abs_sum:.3e})"
        )
    drift = abs(mix.coef_sum - 1.0)
    if drift > _COEF_DRIFT_TOL:
        raise MixtureUnavailableError(
            f"partial-fraction coefficients do not sum to 1 (off by {drift:.3e})"
        )
    return mix


def seeded_weight_vectors(seed: int, count: int, n_max: int) -> list[list[float]]:
    """``count`` weight vectors with n uniform in 1..n_max.

    Each is log-uniform on 0.1-10 or on 0.5-2 (even odds), and in about 30%
    of the vectors of n >= 2 some weights copy others at a relative gap of 0,
    1e-7 or 1e-3: equal, merged by the clustering pass, and kept apart.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        lo, hi = (0.1, 10.0) if rng.random() < 0.5 else (0.5, 2.0)
        w = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
        if n > 1 and rng.random() < 0.3:
            gap = (0.0, 1e-7, 1e-3)[int(rng.integers(3))]
            copies = int(rng.integers(1, n))
            for src, dst in zip(rng.integers(0, n, copies), rng.choice(n, copies, replace=False)):
                if src != dst:
                    w[dst] = w[src] * (1.0 + gap * rng.uniform(0.5, 1.5))
        out.append(w.tolist())
    return out


def mixture_parity(build, vectors) -> tuple[int, float, list]:
    """Compare ``build(w, side)`` with ``series_mixture`` on both sides of each vector.

    Returns (accepted, worst, flips): the number of (vector, side) pairs
    both builders accept, the largest coefficient difference over them in
    units of n ulp of the series coefficient, and (w, side, message) for
    each pair that exactly one of them rejects, with that one's message.
    """
    accepted, worst, flips = 0, 0.0, []
    for w in vectors:
        for side in MixtureSide:
            got = want = None
            try:
                got = build(w, side)
            except MixtureUnavailableError as exc:
                got_err = str(exc)
            try:
                want = series_mixture(w, side)
            except MixtureUnavailableError as exc:
                want_err = str(exc)
            if (got is None) != (want is None):
                flips.append((w, side, got_err if got is None else want_err))
                continue
            if got is None:
                continue
            accepted += 1
            assert [t[1:] for t in got.terms] == [t[1:] for t in want.terms]  # scale, power
            for a, b in zip(got.terms, want.terms):
                worst = max(worst, abs(a.coef - b.coef) / math.ulp(b.coef) / len(w))
    return accepted, worst, flips
