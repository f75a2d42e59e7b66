"""Reference tails that do not come from exptails.

* Equal weights: S = a * Gamma(n * shape), so P(S > t) = gammaincc(n*shape, t/a).
* Distinct-weight exponential and Laplace sums: the textbook partial-fraction
  formulas, evaluated in mpmath at a precision chosen from the size of the
  coefficients (the alternating sum cancels that many digits).
* Distinct-weight gamma sums, and exponential/Laplace sums too large to
  evaluate here quickly, come from refs.json, written by make_refs.py.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
from scipy.special import gammaincc

import inputs

REFS_JSON = Path(__file__).with_name("refs.json")

# |got - ref| <= RTOL * ref + ATOL.  ATOL sits below the smallest normal double,
# so it only forgives tails that float64 cannot represent.
RTOL = 1e-6
ATOL = 1e-300


def tail_ok(got: float, ref: float) -> bool:
    return math.isfinite(got) and abs(got - ref) <= RTOL * ref + ATOL


def _log10_coef_size(values) -> float:
    """log10 of the largest partial-fraction coefficient prod_k v_j/|v_j - v_k|."""
    worst = 0.0
    for j, vj in enumerate(values):
        s = math.fsum(
            math.log(vj) - math.log(abs(vj - vk)) for k, vk in enumerate(values) if k != j
        )
        worst = max(worst, s)
    return worst / math.log(10.0)


def _pf_coefficients(v) -> list:
    """c_j = prod_{k != j} v_j / (v_j - v_k) for mpf values v."""
    coefs = []
    for j in range(len(v)):
        den = mp.mpf(1)
        for k in range(len(v)):
            if k != j:
                den *= v[j] - v[k]
        coefs.append(v[j] ** (len(v) - 1) / den)
    return coefs


def partial_fraction_tails(kind: str, weights, thresholds) -> list:
    """P(S > t) at each threshold for distinct weights, exponential or Laplace.

    Exponential: sum_j B_j e^{-t/a_j}, B_j = prod_{k!=j} a_j/(a_j - a_k).
    Laplace (t >= 0): sum_j (A_j/2) e^{-t/a_j}, A_j = prod_{k!=j} a_j^2/(a_j^2 - a_k^2);
    negative t by symmetry.  Each term is at most 10^size e^{-t/a_max} while the
    tail is at least e^{-t/a_max}/4, so 30 + size digits keep 30 significant
    ones.  Everything is evaluated twice, 15 digits apart, and the two must
    agree, so lost precision raises instead of passing silently.
    """
    power = 1 if kind == "exponential" else 2
    dps = int(30 + _log10_coef_size([w**power for w in weights]))
    runs = []
    for extra in (0, 15):
        with mp.workdps(dps + extra):
            a = [mp.mpf(x) for x in weights]
            coefs = _pf_coefficients([x**power for x in a])

            def upper(t):
                total = mp.fsum(c * mp.exp(-mp.mpf(t) / aj) for c, aj in zip(coefs, a))
                return total if kind == "exponential" else total / 2

            out = []
            for t in thresholds:
                if kind == "exponential":
                    out.append(mp.mpf(1) if t <= 0.0 else upper(t))
                else:
                    out.append(1 - upper(-t) if t < 0.0 else upper(t))
            runs.append(out)
    for lo, hi in zip(*runs):
        if abs(lo - hi) > abs(hi) * mp.mpf(10) ** -20:
            raise ArithmeticError(f"partial fractions lost precision at {dps} digits")
    return runs[1]


def equal_weight_tail(law, weights, t: float) -> float:
    n, a, shape = len(weights), weights[0], law[1]
    return 1.0 if t <= 0.0 else float(gammaincc(n * shape, t / a))


def load_pool() -> dict:
    """{(law, weights): {threshold: tail}} from refs.json."""
    data = json.loads(REFS_JSON.read_text())
    pool = {}
    for entry in data["instances"]:
        law = (entry["kind"], entry["shape"])
        w = inputs.pool_weights(law, entry["n"], entry["variant"])
        if not math.isclose(math.fsum(w), entry["weights_sum"], rel_tol=1e-15):
            raise RuntimeError(f"pool weights for {entry['slot']} do not match refs.json")
        pool[(law, w)] = {float(t): float(tail) for t, tail in entry["tails"]}
    return pool


def tail_references(ops, pool) -> list[float]:
    """Reference P(S > threshold) for each TailOp (threshold None: P(S >= E S))."""
    wanted: dict = {}
    for op in ops:
        if not _is_laplace_median(op):
            wanted.setdefault((op.law, op.weights), set()).add(_threshold(op))
    table = {}
    for (law, weights), ts in wanted.items():
        ts = sorted(ts)
        kind = law[0]
        if (law, weights) in pool:
            values = [pool[(law, weights)][t] for t in ts]
        elif len(set(weights)) == 1 and kind != "laplace":
            values = [equal_weight_tail(law, weights, t) for t in ts]
        elif kind == "gamma":
            raise KeyError(f"no reference for distinct-weight gamma instance of size {len(weights)}")
        else:
            values = [float(v) for v in partial_fraction_tails(kind, weights, ts)]
        table.update({(law, weights, t): v for t, v in zip(ts, values)})
    out = []
    for op in ops:
        if _is_laplace_median(op):
            out.append(0.5)  # P(S >= 0) for a symmetric law
        else:
            out.append(table[(op.law, op.weights, _threshold(op))])
    return out


def _threshold(op) -> float:
    return inputs.mean_sigma(op.law, op.weights)[0] if op.threshold is None else op.threshold


def _is_laplace_median(op) -> bool:
    return op.threshold is None and op.law[0] == "laplace"
