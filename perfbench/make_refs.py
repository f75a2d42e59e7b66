"""Write refs.json: mpmath reference tails for the committed pool instances.

    python3 perfbench/make_refs.py

The pool holds every distinct-weight gamma instance the benchmark uses, and
exponential/Laplace sums with n >= 256, whose partial fractions need hundreds
of digits.  Weights are regenerated from inputs.pool_weights; refs.json keeps
their sum as a check.  Gamma tails use Moschopoulos' series (Ann. Inst.
Statist. Math. 37, 1985), a positive mixture of gamma tails with no
cancellation; exponential and Laplace use the partial fractions in refs.py.
Takes a few minutes.
"""

from __future__ import annotations

import json
import math

import mpmath as mp

import inputs
import refs


def moschopoulos_tails(shape: float, weights, thresholds, digits: int = 40) -> list:
    """P(sum a_i G_i > t), G_i ~ Gamma(shape, 1) independent, for each t.

    With b = min(a) and rho = n*shape, S has the law of b*Gamma(rho + K), where
    K is a nonnegative integer with P(K = k) = C delta_k.  So the tail is
    C sum_k delta_k Q(rho + k, t/b) with Q the regularized upper incomplete
    gamma.  Every term is positive and Q <= 1, so stopping once the mixing
    mass left, 1 - C sum delta_k, is below 10^-digits times the smallest tail
    bounds the truncation error.
    """
    with mp.workdps(digits + 40):
        a = [mp.mpf(x) for x in weights]
        g = mp.mpf(shape)
        b = min(a)
        rho = g * len(a)
        log_c = mp.fsum(g * mp.log(b / x) for x in a)
        ratios = [1 - b / x for x in a]
        powers = [mp.mpf(1)] * len(a)
        gammas = [mp.mpf(0)]  # gamma_k = sum_i shape (1 - b/a_i)^k / k
        deltas = [mp.mpf(1)]
        xs = [mp.mpf(t) / b for t in thresholds]
        # Q(rho + k, x) by the upward recurrence Q(s+1, x) = Q(s, x) + x^s e^-x / Gamma(s+1)
        q = [mp.gammainc(rho, x, regularized=True) for x in xs]
        step = [mp.exp(rho * mp.log(x) - x - mp.loggamma(rho + 1)) for x in xs]
        sums = [deltas[0] * qi for qi in q]
        mass = deltas[0]
        k = 0
        while True:
            c = mp.exp(log_c)
            smallest = min(c * s for s in sums)
            if 1 - c * mass < smallest * mp.mpf(10) ** -digits:
                return [c * s for s in sums]
            k += 1
            powers = [p * r for p, r in zip(powers, ratios)]
            gammas.append(g * mp.fsum(powers) / k)
            deltas.append(mp.fsum(i * gammas[i] * deltas[k - i] for i in range(1, k + 1)) / k)
            for i, x in enumerate(xs):
                q[i] += step[i]
                step[i] *= x / (rho + k)
                sums[i] += deltas[k] * q[i]
            mass += deltas[k]
            if k > 100_000:
                raise ArithmeticError("Moschopoulos series did not converge")


def main() -> None:
    entries = []
    for law, n, variants in inputs.POOL_SLOTS:
        kind, shape = law
        for variant in range(variants):
            w = inputs.pool_weights(law, n, variant)
            ts = list(inputs.pool_thresholds(law, w))
            if kind != "laplace":
                ts.append(inputs.mean_sigma(law, w)[0])  # for p_ge_mean
            if kind == "gamma":
                tails = moschopoulos_tails(shape, w, ts)
            else:
                tails = refs.partial_fraction_tails(kind, w, ts)
            entries.append(
                {
                    "slot": f"{kind}({shape:g})-n{n}",
                    "kind": kind,
                    "shape": shape,
                    "n": n,
                    "variant": variant,
                    "weights_sum": math.fsum(w),
                    "tails": [[t, mp.nstr(v, 25)] for t, v in zip(ts, tails)],
                }
            )
            print(entries[-1]["slot"], variant, entries[-1]["tails"], flush=True)
    doc = {"generator": "perfbench/make_refs.py", "instances": entries}
    refs.REFS_JSON.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
