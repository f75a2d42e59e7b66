"""Numeric verifiers the tests check the package against.

``h_sup`` and ``r_infimum_numeric`` compute by brute-force search what the
package computes in closed form: the supremum behind the Laplace rate shape
h, and the infimum that the tail-shift ratio r(v) (``r_function``) bounds
from below.
``sample_sum`` draws the sums themselves, so that the samplers behind the
Monte Carlo estimators can be checked in law, and ``draw_sums_whole`` draws
a chunk's gammas as one matrix, the bits the blocked draw must keep.
``mp_mixture_coefficients`` takes the partial-fraction product per pole at
50 digits, which the package's float product must reproduce, and
``mp_partial_fraction_tail`` sums the partial fractions of distinct weights
at 80 digits.
``mixture_tail_sum`` sums a mixture's corrected terms splitting every scale
at every threshold, the bits ``ExpMixture.tail`` must keep.
``cumulant_sums_by_list`` takes K, K', K'' and the mean test of the saddle
solve through list copies, the bits the cumulants must keep.
``rate_argmax`` is where the Cramer rate of a gamma summand is attained.
"""

import math
import sys

import mpmath as mp
import numpy as np
from scipy.special import gammaincc

from exptails.bounds import _log_r_function
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
from exptails.oracle import MixtureUnavailableError

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


def r_function(d: Distribution, v: float) -> float:
    """The package's tail-shift ratio bound r(v) > 0 at v > 0, nonnegative laws only."""
    d.require_nonnegative("r_function")
    v = float(v)
    if not math.isfinite(v) or v <= 0.0:
        raise InvalidInputError(f"r_function needs v > 0, got {v!r}")
    return math.exp(_log_r_function(d, v))


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


def draw_sums_whole(
    shape: float, b: np.ndarray, theta: float, m: int, rng: np.random.Generator
) -> np.ndarray:
    """m draws of S = sum_j b_j G_j under the theta-tilted law, one (m, b.size) matrix."""
    return rng.standard_gamma(shape, (m, b.size)) @ (b / (1.0 - theta * b))


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


def mp_partial_fraction_tail(w, t, two_sided):
    """P(S > t) from the partial fractions of distinct weights at 80 digits."""
    with mp.workdps(80):
        a = [mp.mpf(x) for x in w]
        total = mp.mpf(0)
        for j, aj in enumerate(a):
            coef = mp.mpf(1)
            for k, ak in enumerate(a):
                if k != j:
                    coef *= aj * aj / (aj * aj - ak * ak) if two_sided else aj / (aj - ak)
            total += coef * mp.exp(-mp.mpf(t) / aj)
        return float(total / 2 if two_sided else total)


def mixture_tail_sum(mix, t: float) -> float:
    """top * sum_j coef_j e^(-t/scale_j) at t > 0, before any range gate, term by term.

    Each term is e^-x at the float quotient x = t/scale, corrected to first
    order for its rounding by an error-free (Dekker) product of x and the
    scale's mantissa, both split into Veltkamp halves at this t.
    """
    split = 134217729.0  # 2^27 + 1
    parts = []
    for coef, scale in mix.terms:
        if t / scale > 1e300:
            continue
        m, e = math.frexp(scale)
        r = math.ldexp(t, -e)
        x = r / m
        dx = 0.0
        if x >= sys.float_info.min:
            p = x * m
            hi = split * x
            x_hi = hi - (hi - x)
            hi = split * m
            m_hi = hi - (hi - m)
            x_lo, m_lo = x - x_hi, m - m_hi
            p_err = ((x_hi * m_hi - p) + x_hi * m_lo + x_lo * m_hi) + x_lo * m_lo
            dx = ((r - p) - p_err) / m
        q = math.exp(-x)
        parts.append(coef * (q - dx * q))
    return mix.top * math.fsum(parts)


def mp_mixture_coefficients(w: "list[float]", two_sided: bool) -> "list[float] | None":
    """Each pole's partial-fraction coefficient, by ascending scale, from a 50-digit product.

    The coefficient of the pole at scale b_j is prod_{k != j} (1 - e_k)^(-1),
    two-sided prod_{k != j} ((1 - e_k)(1 + e_k))^(-1), e_k = b_k/b_j.  Each
    ratio e_k is the float quotient the package forms; the rest is taken in
    mpmath, so a comparison measures the rounding of the product, not the
    conditioning of the ratios, which costs both sides the same eps/|1 - e_k|
    per factor.  Equal weights make a repeated pole, which has no such
    coefficients: the result is None.
    """
    scales = sorted(w)
    if len(set(scales)) < len(scales):
        return None
    out = []
    with mp.workdps(50):
        for j, b in enumerate(scales):
            coef = mp.mpf(1)
            for bk in scales[:j] + scales[j + 1:]:
                e = mp.mpf(bk / b)
                coef /= (1 - e) * (1 + e) if two_sided else 1 - e
            out.append(float(coef))
    return out


def build_mixture_by_slices(weights, two_sided: bool) -> "list[tuple[float, float]] | str":
    """The partial-fraction (coef, scale) terms, or the refusal message, built by list copies.

    The reference for ``oracle._build_mixture``: each pole's coefficient is
    1/math.prod of the factors over ``scales[:j] + scales[j + 1:]``, the
    other scales in ascending order, with the same caps and messages.
    """
    n = len(weights)
    if n > 64:
        return f"{n} weights exceed the partial-fraction cap of 64 distinct scales"
    scales = sorted(weights)
    terms = []
    abs_sum = 0.0
    for j, b in enumerate(scales):
        others = [bk / b for bk in scales[:j] + scales[j + 1:]]
        try:
            if two_sided:
                coef = 1.0 / math.prod([(1.0 - e) * (1.0 + e) for e in others])
            else:
                coef = 1.0 / math.prod([1.0 - e for e in others])
        except ZeroDivisionError:
            clash = b in scales[j + 1:j + 2]
            why = f"coincides with pole {j + 2}" if clash else "leaves float range"
            return f"pole {j + 1} of {n} {why}"
        abs_sum += abs(coef)
        terms.append((coef, b))
        if not abs_sum <= 1e12:
            return (
                f"partial-fraction coefficients too large to trust (sum |coef| = {abs_sum:.3e}"
                f" after {j + 1} of {n} poles)"
            )
    drift = abs(math.fsum(coef for coef, _ in terms) - 1.0)
    if drift > 1e-10:
        return f"partial-fraction coefficients do not sum to 1 (off by {drift:.3e})"
    return terms


def seeded_weight_vectors(seed: int, count: int, n_max: int) -> list[list[float]]:
    """``count`` weight vectors with n uniform in 1..n_max.

    Each is log-uniform on 0.1-10 or on 0.5-2 (even odds), and in about 30%
    of the vectors of n >= 2 some weights copy others at a relative gap of 0,
    1e-7 or 1e-3: a repeated pole, a pair the trust gates reject, and a pair
    they may accept.
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
    """Compare ``build(w, two_sided)`` with ``mp_mixture_coefficients`` on both sides of each vector.

    Returns (accepted, worst, rejected): the number of (vector, side) pairs
    the builder accepts, the largest coefficient difference over them in
    units of n ulp of the reference coefficient, and (w, two_sided, message) for
    each pair it rejects.  An accepted pair must have distinct weights, and
    one term per weight at its scale.
    """
    accepted, worst, rejected = 0, 0.0, []
    for w in vectors:
        for two_sided in (False, True):
            try:
                got = build(w, two_sided)
            except MixtureUnavailableError as exc:
                rejected.append((w, two_sided, str(exc)))
                continue
            want = mp_mixture_coefficients(w, two_sided)
            assert want is not None, f"equal weights accepted: {w}"
            accepted += 1
            assert [t.scale for t in got.terms] == sorted(w)
            for term, coef in zip(got.terms, want):
                worst = max(worst, abs(term.coef - coef) / math.ulp(coef) / len(w))
    return accepted, worst, rejected


def cumulant_sums_by_list(b: np.ndarray, shape, theta: float) -> tuple[float, float, float, float]:
    """(K(theta), K'(theta), K''(theta), sum_j b_j shape), each fsum over a list copy of its terms.

    The same terms, in the same order, as ``legendre`` sums from the arrays'
    buffers; theta lies inside the domain.
    """
    x = (b * theta).tolist()
    k = math.fsum((-shape * np.array([math.log1p(-v) for v in x])).tolist())
    k1 = math.fsum((b * (shape / (1.0 - b * theta))).tolist())
    k2 = math.fsum((b * b * (shape / (1.0 - b * theta) ** 2)).tolist())
    return k, k1, k2, math.fsum((b * shape).tolist())


def rate_argmax(d: Distribution, t: float) -> float:
    """theta* = 1 - g/t, where t theta - psi(theta) of one gamma(g) summand attains the rate."""
    return 1.0 - d.shape / t
