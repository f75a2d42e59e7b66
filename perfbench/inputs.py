"""Seeded inputs for the three workloads.

Plain data only: nothing here imports exptails, so the package receives the
generated numbers and never the seed.  All randomness comes from
``random.Random``, whose streams are stable across Python versions, so a seed
names the same inputs on every machine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# A law is (kind, shape); shape is 1 for exponential and Laplace.
EXP = ("exponential", 1.0)
LAP = ("laplace", 1.0)
GAMMA_HALF = ("gamma", 0.5)

# Instances whose references come from refs.json (made by make_refs.py):
# every distinct-weight gamma instance, and exponential/Laplace sums too
# large for a runtime partial-fraction evaluation.  (law, n, variants): the
# seed picks one variant of each slot.  The n >= 256 slots have one variant,
# because their inversion time dominates a sweep pass and a per-seed choice
# would move ops_per_s by more than its bound.
POOL_SLOTS = (
    (GAMMA_HALF, 4, 3), (GAMMA_HALF, 64, 3), (GAMMA_HALF, 256, 1), (GAMMA_HALF, 1000, 1),
    (EXP, 256, 1), (EXP, 1000, 1), (LAP, 256, 1), (LAP, 1000, 1),
)

# The known clamp defect: gamma shape 500, ten unit weights, t = 1 (the mean).
REPRO = (("gamma", 500.0), (1.0,) * 10, 5000.0)


@dataclass(frozen=True)
class TailOp:
    """One threshold evaluation: exact_tail, or p_ge_mean when threshold is None."""

    law: tuple[str, float]
    weights: tuple[float, ...]
    threshold: float | None


@dataclass(frozen=True)
class McOp:
    method: str  # "plain" (mc_tail) or "tilted" (is_tail)
    law: tuple[str, float]
    weights: tuple[float, ...]
    threshold: float
    draws: int
    seed: int
    workers: int


def mean_sigma(law, weights) -> tuple[float, float]:
    kind, shape = law
    l1 = math.fsum(weights)
    l2 = math.sqrt(math.fsum(a * a for a in weights))
    if kind == "laplace":
        return 0.0, math.sqrt(2.0) * l2
    return shape * l1, math.sqrt(shape) * l2


def log_uniform(rng: random.Random, n: int, lo: float, hi: float) -> tuple[float, ...]:
    return tuple(math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n))


def pool_weights(law, n: int, variant: int) -> tuple[float, ...]:
    """Weights of one committed pool instance (fixed; refs.json holds their tails)."""
    rng = random.Random(f"pool-{law[0]}-{law[1]}-{n}-{variant}")
    lo, hi = (0.1, 10.0) if n < 64 else (0.5, 2.0)
    return log_uniform(rng, n, lo, hi)


def pool_thresholds(law, weights) -> tuple[float, float]:
    """(near-mean, deep) thresholds of a pool instance: mean + 0.3 sigma and + 8 sigma."""
    mean, sigma = mean_sigma(law, weights)
    return mean + 0.3 * sigma, mean + 8.0 * sigma


# threshold bands in units of E S (nonnegative laws) or sigma (Laplace):
# below the mean, near it, moderate, deep
_BANDS_POS = ((0.3, 0.95), (1.0, 2.0), (2.0, 5.0), (5.0, 40.0))
_BANDS_LAP = ((-1.5, -0.05), (0.05, 2.0), (2.0, 5.0), (5.0, 40.0))


def _band_thresholds(rng: random.Random, law, weights) -> list[float]:
    """One seeded threshold in each band."""
    mean, sigma = mean_sigma(law, weights)
    if law[0] == "laplace":
        return [rng.uniform(lo, hi) * sigma for lo, hi in _BANDS_LAP]
    return [rng.uniform(lo, hi) * mean for lo, hi in _BANDS_POS]


def _instance_ops(law, weights, thresholds) -> list[TailOp]:
    ops = [TailOp(law, weights, float(t)) for t in thresholds]
    ops.append(TailOp(law, weights, None))
    return ops


SMALL_PER_N = 8  # small-n instances per law and n; with them ~85% of evaluations are mixtures
EQUAL_GAMMA = 14


def oracle_sweep(seed: int) -> list[TailOp]:
    """One pass of the oracle sweep: small-n mixtures, mixture-defeating weights,
    large n, and equal-weight sums with gamma shapes from 1e-3 to 1e4."""
    rng = random.Random(f"oracle_sweep-{seed}")
    ops: list[TailOp] = []
    for law in (EXP, LAP):
        for n in range(1, 9):
            for _ in range(SMALL_PER_N):
                w = log_uniform(rng, n, 0.1, 10.0)
                ts = _band_thresholds(rng, law, w)
                # past float underflow: the tail is below exp(-800)
                ts.append(max(w) * rng.uniform(800.0, 1500.0))
                ops += _instance_ops(law, w, ts)
    # Mixture-defeating weights.  At 3% spacing the mixture is accepted for most
    # bases; at 1% it is rejected (always for exponential, ~90% for Laplace).
    for law in (EXP, LAP):
        base = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        spaced = tuple(base * 1.01**k for k in range(4))
        for w in (spaced, log_uniform(rng, 32, 0.5, 2.0)):
            ops += _instance_ops(law, w, _band_thresholds(rng, law, w))
    for law in (EXP, LAP):
        w = log_uniform(rng, 64, 0.5, 2.0)
        ops += _instance_ops(law, w, pool_thresholds(law, w))
    for law, n, variants in POOL_SLOTS:
        w = pool_weights(law, n, rng.randrange(variants))
        near, deep = pool_thresholds(law, w)
        if n < 256:
            ops += _instance_ops(law, w, (near, deep))
        elif n < 1000:
            ops += [TailOp(law, w, near), TailOp(law, w, deep)]
        else:
            # deep only: the near-mean threshold and p_ge_mean at n = 1000 would
            # take half a pass, leaving too few passes for steady timings
            ops.append(TailOp(law, w, deep))
    for _ in range(2):
        n = rng.randint(2, 8)
        w = (math.exp(rng.uniform(math.log(0.1), math.log(10.0))),) * n
        ops += _instance_ops(EXP, w, _band_thresholds(rng, EXP, w))
    for k in range(EQUAL_GAMMA):
        # shape and n stratified (shapes over 1e-3 .. 1e4, n cycling through
        # 1..8), so that every seed runs the same mix of costs
        shape = 10.0 ** rng.uniform(-3.0 + 7.0 * k / EQUAL_GAMMA, -3.0 + 7.0 * (k + 1) / EQUAL_GAMMA)
        n = 1 + k % 8
        law = ("gamma", shape)
        w = (math.exp(rng.uniform(math.log(0.1), math.log(10.0))),) * n
        ops += _instance_ops(law, w, _band_thresholds(rng, law, w))
    law, w, t = REPRO
    ops += _instance_ops(law, w, [t])
    return ops


def mc_tails(seed: int, draws: int) -> list[McOp]:
    """One pass of the Monte Carlo workload: three laws at n = 4 and n = 64,
    plain at a near-mean threshold and tilted at a deep one, each run with
    one worker and then two."""
    rng = random.Random(f"mc_tails-{seed}")
    ops: list[McOp] = []
    for law in (EXP, LAP, GAMMA_HALF):
        for n in (4, 64):
            if law == GAMMA_HALF:
                w = pool_weights(law, n, rng.randrange(3))
            else:
                w = log_uniform(rng, n, 0.1, 10.0) if n < 64 else log_uniform(rng, n, 0.5, 2.0)
            near, deep = pool_thresholds(law, w)
            for method, t in (("plain", near), ("tilted", deep)):
                mc_seed = rng.randrange(2**32)
                for workers in (1, 2):
                    ops.append(McOp(method, law, w, t, draws, mc_seed, workers))
    return ops


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]

    @property
    def fmt(self) -> str:
        return "csv" if "csv" in self.argv else "json"


def _fmt_list(values) -> str:
    return ",".join(f"{v:.4g}" for v in values)


def cli_session(seed: int) -> list[CliOp]:
    """The fixed CLI script: all five subcommands, all three laws (moments is
    defined for Laplace only), small weight vectors (n <= 8)."""
    rng = random.Random(f"cli_session-{seed}")
    shape = rng.choice((0.5, 2.0, 3.5))

    def dist(kind):
        if kind == "gamma":
            return ["--dist", "gamma", "--shape", f"{shape:g}"]
        return ["--dist", kind]

    def weights():
        return ["--weights", _fmt_list(log_uniform(rng, rng.randint(2, 8), 0.1, 10.0))]

    def tgrid(lo, hi, k=3):
        # one token, so that a negative first value is not read as an option
        return ["--t=" + _fmt_list(sorted(rng.uniform(lo, hi) for _ in range(k)))]

    def fmt():
        return ["--format", rng.choice(("json", "csv"))]

    def seed_arg():
        return ["--seed", str(rng.randrange(1000))]

    laws = ("exponential", "laplace", "gamma")
    script: list[list[str]] = []
    for kind in laws:
        script.append(["bounds", *dist(kind), *weights(), *tgrid(1.1, 5.0), *fmt()])
    script.append(["bounds", "--dist", "exponential", "--weights", "2,1", "--threshold",
                   _fmt_list(sorted(rng.uniform(3.0, 20.0) for _ in range(2))), "--format", "csv"])
    for kind in laws:
        script.append(["exact", *dist(kind), *weights(), *tgrid(0.5, 6.0), *fmt()])
    script.append(["exact", "--dist", "laplace", *weights(), *tgrid(-2.0, 0.0, 2), "--format", "csv"])
    script.append(["exact", *dist("gamma"), "--weights", "2,1", "--threshold",
                   _fmt_list(sorted(rng.uniform(1.0, 30.0) for _ in range(2))), "--format", "csv"])
    for kind in laws:
        script.append(["simulate", *dist(kind), *weights(), *tgrid(1.1, 2.5, 2), *seed_arg(), *fmt()])
    for kind in laws:
        script.append(["simulate", *dist(kind), *weights(), *tgrid(2.5, 5.0, 2), *seed_arg(),
                       "--method", "tilted", *fmt()])
    script.append(["moments", "--dist", "laplace", *weights(), "--p", "2,3,4", "--format", "json"])
    script.append(["moments", "--dist", "laplace", *weights(), "--p", "2,4,6", "--mode", "paper",
                   "--format", "csv"])
    script.append(["verify", "--dist", "exponential", *seed_arg(), *fmt()])
    script.append(["verify", "--dist", "laplace", *seed_arg(), *fmt()])
    script.append(["verify", "--dist", "gamma", "--shape", "0.5", *seed_arg(), *fmt()])
    return [CliOp(tuple(argv)) for argv in script]
