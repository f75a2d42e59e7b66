"""End-to-end acceptance checklist.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``) and
then asserts, so a run doubles as a certification report: the sandwich
campaigns, sampler cross-checks, and the library's headline constants, each
at its stated tolerance.
"""

import inspect
import math
import time

import numpy as np
from scipy.stats import ks_2samp
from verifiers import h_sup, mp_partial_fraction_tail, sample_sum

from exptails.bounds import janson_lower, janson_upper, moment_bounds, pz_bound, s_inequality_upper
from exptails.cli import _bound_rows
from exptails.core import Distribution, WeightVector, threshold_unit
from exptails.harness import random_instances, sandwich_report
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
    rows = sandwich_report(LAP)
    elapsed = time.perf_counter() - start
    failing = [r for r in rows if r.slack_low < -1e-12 or r.slack_high < -1e-12]
    ok = not failing and elapsed < 10.0
    _report(
        "laplace_sandwich", ok,
        f"{len(rows)} rows, {len(failing)} failing, {elapsed:.2f}s (budget 10s)",
    )
    assert ok


def test_exponential_sandwich_and_fixed_point():
    rows = sandwich_report(EXP)
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
        all_rows += sandwich_report(Distribution.gamma(shape), instances=10)
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


def test_gamma_mean_floor_holds():
    # the Paley-Zygmund floor on P(S >= E S) from the fourth-moment ratio of a
    # gamma sum, at most 3 (1 + 2/shape); generic_lower may take it for p
    worst = math.inf
    for shape in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3, 1e4):
        floor = pz_bound(3.0 * (1.0 + 2.0 / shape))
        d = Distribution.gamma(shape)
        for w in random_instances(0, 60):
            worst = min(worst, p_ge_mean(d, w) / floor)
    ok = worst >= 1.0
    _report(
        "gamma_mean_floor", ok,
        f"min P(S >= E S) / floor = {worst:.4f} over 10 gamma shapes x 60 instances",
    )
    assert ok


def test_printed_bounds_hold():
    # every valid row that `exptails bounds` prints is on its side of the
    # exact tail, at verify's relative slack; a tail that underflows to 0
    # cannot check its rows, and they are counted, not hidden
    laws = [EXP, LAP] + [Distribution.gamma(s) for s in (1e-3, 0.5, 1.0, 2.0, 100.0, 1e4)]
    grid = (*inspect.signature(sandwich_report).parameters["t_grid"].default, 50.0, 200.0)
    slack = 1.0 + 1e-9
    wrong, checked, uncheckable = [], 0, 0
    for d in laws:
        for w in random_instances(0, 20):
            unit = threshold_unit(d, w)
            for row in _bound_rows(d, w, [(t, t * unit) for t in grid]):
                if not row["valid"]:
                    continue
                exact = exact_tail(d, w, row["threshold"])[0]
                if exact == 0.0:
                    uncheckable += 1
                    continue
                checked += 1
                if row["kind"].endswith("_lower"):
                    low, high = row["value"], exact
                else:
                    low, high = exact, row["value"]
                if low > high * slack:
                    wrong.append((d.label(), w.values, row["t"], row["kind"]))
    detail = (
        f"{len(wrong)} of {checked} valid rows on the wrong side; {uncheckable} more "
        "uncheckable, their exact tail 0, over 8 laws x 20 instances x 8 thresholds"
    )
    _report("printed_bounds", not wrong, detail)
    assert not wrong, (detail, wrong[:5])


def test_s_inequality_domination():
    violations = 0
    cap_violations = 0
    for w in random_instances(0, 20):
        p = p_ge_mean(EXP, w)
        for t in (1.0, 1.5, 2.0, 3.0):
            bound = s_inequality_upper(EXP, t, p).value
            exact = exact_tail(EXP, w, t * w.l1)[0]
            if bound < exact * (1.0 - 1e-12):
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


def test_s_inequality_valid_rows_dominate_gamma():
    # the power bound needs a log-concave survival function: shape >= 1.
    # Below it p^t falls under the tail (shape 0.99 included), so the rows
    # there must be flagged invalid; at shape 1e-3, p is outside (1/24, 23/24)
    violations = valid_rows = 0
    for shape in (1e-3, 0.1, 0.5, 0.99, 1.0, 3.0, 1e4):
        d = Distribution.gamma(shape)
        for w in random_instances(0, 20):
            p = p_ge_mean(d, w)
            for t in (1.01, 1.5, 2.0, 3.0, 10.0, 30.0):
                bound = s_inequality_upper(d, t, p)
                if not bound.valid:
                    continue
                valid_rows += 1
                exact = exact_tail(d, w, t * d.mean * w.l1)[0]
                if bound.value < exact * (1.0 - 1e-9):
                    violations += 1
    ok = violations == 0 and valid_rows == 3 * 20 * 6
    _report(
        "s_inequality_gamma", ok,
        f"{violations} valid rows below the exact tail, {valid_rows} valid rows "
        "over 7 gamma shapes x 20 instances x 6 thresholds",
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
