"""End-to-end acceptance checklist.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``) and
then asserts, so a run doubles as a certification report: the sandwich
campaigns, sampler cross-checks, and the library's headline constants, each
at its stated tolerance.
"""

import math
import time

import numpy as np
from scipy.stats import ks_2samp
from verifiers import h_sup, mp_partial_fraction_tail, sample_sum

from exptails.bounds import janson_lower, janson_upper, moment_bounds, pz_bound, s_inequality_upper
from exptails.core import Distribution, WeightVector, threshold_unit
from exptails.harness import SandwichConfig, random_instances, sandwich_report
from exptails.montecarlo import is_tail, mc_tail
from exptails.oracle import (
    cf_tail_inversion,
    exact_tail,
    laplace_abs_norm,
    p_ge_mean,
)
from exptails.special import h_closed

EXP = Distribution.exponential()
LAP = Distribution.laplace()

# Frozen reference values from tests/oracles/closed_forms.py (mpmath, 50 dps).
JANSON_LOWER_T2 = 0.0273616662079662650565
HYPOEXP21_AT_6 = 0.0970953845590615275356
JANSON_UPPER_T2 = 0.315553698656390155072
MOMENT_LOWER_P2_N1_PAPER = 2.38943012775881533751


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def random_weights(rng, max_n=8):
    n = int(rng.integers(1, max_n + 1))
    return tuple(float(v) for v in np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)))


def test_laplace_sandwich_certifies():
    start = time.perf_counter()
    rows = sandwich_report(SandwichConfig(distribution=LAP))
    elapsed = time.perf_counter() - start
    failing = [r for r in rows if r.slack_low < -1e-12 or r.slack_high < -1e-12]
    ok = not failing and elapsed < 10.0
    _report(
        "laplace_sandwich", ok,
        f"{len(rows)} rows, {len(failing)} failing, {elapsed:.2f}s (budget 10s)",
    )
    assert ok


def test_exponential_sandwich_and_fixed_point():
    rows = sandwich_report(SandwichConfig(distribution=EXP))
    failing = [r for r in rows if not r.passed]

    triple = (
        janson_lower(2.0, [2.0, 1.0]).value,
        exact_tail(EXP, [2.0, 1.0], 6.0)[0],
        janson_upper(2.0, [2.0, 1.0]).value,
    )
    want = (JANSON_LOWER_T2, HYPOEXP21_AT_6, JANSON_UPPER_T2)
    fixed_ok = all(abs(got - exp) <= 1e-6 for got, exp in zip(triple, want))

    ok = not failing and fixed_ok
    _report(
        "exponential_sandwich", ok,
        f"{len(rows)} rows, {len(failing)} failing; "
        f"fixed point ({triple[0]:.6f}, {triple[1]:.6f}, {triple[2]:.6f})",
    )
    assert ok


def test_gamma_sandwich_via_inversion():
    start = time.perf_counter()
    all_rows = []
    for shape in (0.5, 1.0, 2.0):
        all_rows += sandwich_report(
            SandwichConfig(distribution=Distribution.gamma(shape), instances=10)
        )
    elapsed = time.perf_counter() - start
    failing = [r for r in all_rows if not r.passed]
    sources = {r.source for r in all_rows}
    ok = not failing and sources == {"cf_inversion"} and elapsed < 60.0
    _report(
        "gamma_sandwich", ok,
        f"{len(all_rows)} rows over shapes (0.5, 1, 2), {len(failing)} failing, "
        f"sources {sorted(sources)}, {elapsed:.2f}s (budget 60s)",
    )
    assert ok


def test_h_identity_and_regime_floors():
    grid = np.geomspace(1e-3, 1e3, 200)
    worst_gap = 0.0
    floor_violations = 0
    for u in map(float, grid):
        closed = h_closed(u)
        worst_gap = max(worst_gap, abs(h_sup(u)[0] - closed))
        floor = u * u / 5.0 if u < math.sqrt(2.0) else u / 4.0
        if closed < floor:
            floor_violations += 1
    ok = worst_gap <= 1e-10 and floor_violations == 0
    _report(
        "h_identity", ok,
        f"sup-vs-closed gap {worst_gap:.2e} (tol 1e-10) on 200 points, "
        f"{floor_violations} regime-floor violations",
    )
    assert ok


def test_oracle_cross_agreement():
    # a threshold the mixture answers is checked against inversion; one it
    # hands to inversion (the pairs 1e-6 apart) against 80-digit partial fractions
    rng = np.random.default_rng(12)
    exp_instances = [random_weights(rng) for _ in range(8)]
    exp_instances += [(1.0, 1.0 + 1e-6, 2.5), (3.0, 3.0 * (1.0 + 1e-6), 0.7)]
    lap_instances = [random_weights(rng) for _ in range(8)]
    lap_instances += [(1.0, 1.0 + 1e-6, 2.5), (0.4, 0.4 * (1.0 + 1e-6), 1.3)]

    def disagreement(d, w, t):
        value, route = exact_tail(d, w, t)
        if route == "mixture":
            return abs(value - cf_tail_inversion(d, w, t))
        return abs(value - mp_partial_fraction_tail(w, t, d is LAP))

    worst = 0.0
    for w in exp_instances:
        mean = sum(w)
        for mult in (0.8, 1.2, 1.7, 2.5, 4.0):
            worst = max(worst, disagreement(EXP, w, mult * mean))
    for w in lap_instances:
        sigma = math.sqrt(2.0 * sum(v * v for v in w))
        for mult in (0.5, 1.0, 1.5, 2.5, 4.0):
            worst = max(worst, disagreement(LAP, w, mult * sigma))

    ok = worst <= 1e-8
    _report(
        "oracle_cross_agreement", ok,
        f"max |exact - reference| = {worst:.2e} (tol 1e-8) over 20 instances x 5 thresholds",
    )
    assert ok


def test_sampler_representations_agree():
    n = 100_000
    pvalues = []
    for seed in (1, 2, 3):
        direct = sample_sum(LAP, [2.0, 1.0], n, seed=seed)
        mixture = sample_sum(
            LAP, [2.0, 1.0], n, seed=seed + 100, representation="gaussian_mixture"
        )
        pvalues.append(float(ks_2samp(direct, mixture).pvalue))
    ok = all(p > 0.001 for p in pvalues)
    _report(
        "sampler_representations", ok,
        "KS p-values " + ", ".join(f"{p:.3f}" for p in pvalues) + " (all > 0.001)",
    )
    assert ok


def test_importance_sampling_accuracy():
    w = [2.0, 1.0]
    t = 5.0 * math.sqrt(10.0)
    truth = exact_tail(LAP, w, t)[0]

    est = is_tail(LAP, w, t, n=100_000, seed=1)
    tilted_ok = abs(est.p_hat - truth) <= 4.0 * est.stderr and est.stderr / est.p_hat <= 0.02

    plain = mc_tail(LAP, w, t, n=1_000_000, seed=2)
    plain_ok = plain.ci_low <= truth <= plain.ci_high

    ok = tilted_ok and plain_ok
    _report(
        "importance_sampling", ok,
        f"tilted p_hat {est.p_hat:.3e} vs oracle {truth:.3e} "
        f"(rel stderr {est.stderr / est.p_hat:.3f}); plain CI covers oracle: {plain_ok}",
    )
    assert ok


def test_moment_sandwich_and_counterexample():
    instances = random_instances(0, 20)
    failures = 0
    for w in instances:
        for p in (2.0, 3.0, 4.0, 6.0, 8.0):
            lower, upper = moment_bounds(p, w, mode="proof_derived")
            exact = laplace_abs_norm(w, p)
            if not (lower <= exact <= upper):
                failures += 1

    lower_paper, _ = moment_bounds(2.0, [1.0], mode="paper")
    exact_n1 = laplace_abs_norm([1.0], 2.0)
    counterexample = (
        math.isclose(lower_paper, MOMENT_LOWER_P2_N1_PAPER, rel_tol=1e-12)
        and lower_paper > exact_n1
    )

    ok = failures == 0 and counterexample
    _report(
        "moment_bounds", ok,
        f"{failures} sandwich failures over 20 instances x 5 orders; published-constant "
        f"counterexample at p=2, n=1: lower {lower_paper:.6f} > exact {exact_n1:.6f}",
    )
    assert ok


def test_paley_zygmund_floor():
    floor = pz_bound(9.0)
    worst = math.inf
    interval_ok = True
    for w in random_instances(0, 50):
        squared = WeightVector(tuple(v * v for v in w))
        p = exact_tail(EXP, squared, squared.l1)[0]
        worst = min(worst, p)
        interval_ok = interval_ok and (1.0 / 24.0 < p < 23.0 / 24.0)
    ok = worst >= floor and interval_ok
    _report(
        "paley_zygmund_floor", ok,
        f"min P(sum a^2 Y >= sum a^2) = {worst:.6f} >= floor {floor:.6f} on 50 instances; "
        f"all inside (1/24, 23/24): {interval_ok}",
    )
    assert ok


def test_s_inequality_domination():
    violations = 0
    cap_violations = 0
    for w in random_instances(0, 20):
        p = p_ge_mean(EXP, w)
        for t in (1.0, 1.5, 2.0, 3.0):
            bound = s_inequality_upper(t, p).value
            exact = exact_tail(EXP, w, t * w.l1)[0]
            if bound < exact - 1e-12:
                violations += 1
            if p <= 23.0 / 24.0 and bound > (23.0 / 24.0) ** t:
                cap_violations += 1
    ok = violations == 0 and cap_violations == 0
    _report(
        "s_inequality", ok,
        f"{violations} domination violations, {cap_violations} cap violations "
        "over 20 instances x 4 thresholds",
    )
    assert ok


def test_asymptotic_decay_order():
    ratios = []
    for w in random_instances(0, 10):
        sigma = threshold_unit(LAP, w)
        tail = exact_tail(LAP, w, 50.0 * sigma)[0]
        ratios.append(-math.log(tail) / (sigma / w.a_max * 50.0))
    ok = all(0.9 <= r <= 1.1 for r in ratios)
    _report(
        "asymptotic_order", ok,
        f"-log tail / (alpha t) in [{min(ratios):.3f}, {max(ratios):.3f}] "
        "for 10 Laplace instances at t = 50 (target [0.9, 1.1])",
    )
    assert ok
