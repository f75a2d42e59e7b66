"""Shared domain types: summand laws, weight vectors, derived weight statistics.

Everything downstream works on a sum S = sum_i a_i X_i with positive weights
a_i and i.i.d. unit summands X_i that are exponential(1), gamma(shape), or
standard Laplace.  Each law is described once, in ``_LAWS``: as gamma(shape)
on the signed scales b_j of ``Distribution.scales``, S = sum_j b_j G_j with
G_j i.i.d. gamma(shape), the only view the cumulants, contour and samplers
take; and by the facts other modules read from a ``Distribution``, not its kind.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np


class InvalidInputError(ValueError):
    """An argument is outside the operation's domain."""


class UnsupportedLawError(InvalidInputError):
    """The operation does not apply to the given summand law."""


class NumericFailureError(RuntimeError):
    """An iterative routine could not reach its accuracy target."""


class MixtureUnavailableError(NumericFailureError):
    """A partial-fraction mixture is too ill-conditioned (or too large) to trust."""


class LawKind(str, enum.Enum):
    EXPONENTIAL = "exponential"
    GAMMA = "gamma"
    LAPLACE = "laplace"


# One row per law, read once by ``Distribution``: the unit scales u (a unit
# summand is sum_u u G_u, G_u i.i.d. gamma(shape), so a standard Laplace one is
# a difference of two exponentials), then its top, mixture, moments and bounds.
_GENERIC = ("generic_lower", "generic_upper", "s_ineq_upper")
_LAWS = {
    LawKind.EXPONENTIAL: ((1.0,), 1.0, True, False, ("janson_lower", "janson_upper", *_GENERIC)),
    LawKind.GAMMA: ((1.0,), 1.0, False, False, _GENERIC),
    LawKind.LAPLACE: ((1.0, -1.0), 0.5, True, True, ("laplace_lower", "laplace_upper")),
}


@dataclass(frozen=True)
class Distribution:
    """Law of one unit summand, hashed once (it keys the oracle's per-sum records).

    ``shape`` is the gamma shape parameter and must be 1 for the other kinds
    (exponential is gamma with shape 1; Laplace has no shape).  The rest is
    set once from the law's row of ``_LAWS``: E X, Var X, whether X >= 0, the
    tail ``top`` of a sum at 0+ (1, or 1/2 for a symmetric law), whether sums
    of distinct weights have a partial-fraction ``mixture``, whether the
    ``moments`` norms apply, and the ``bounds`` that ``exptails bounds``
    prints, in order, the (lower, upper) pair ``verify`` certifies first.
    """

    kind: LawKind
    shape: float = 1.0
    mean: float = field(init=False, repr=False, compare=False)
    variance: float = field(init=False, repr=False, compare=False)
    nonnegative: bool = field(init=False, repr=False, compare=False)
    top: float = field(init=False, repr=False, compare=False)
    mixture: bool = field(init=False, repr=False, compare=False)
    moments: bool = field(init=False, repr=False, compare=False)
    bounds: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = LawKind(self.kind)
        object.__setattr__(self, "kind", kind)
        shape = float(self.shape)
        if not math.isfinite(shape) or shape <= 0:
            raise InvalidInputError(f"shape must be positive and finite, got {self.shape!r}")
        if kind is not LawKind.GAMMA and shape != 1.0:
            raise InvalidInputError(f"shape only applies to gamma, got shape={shape} for {kind.value}")
        units, top, mixture, moments, bounds = _LAWS[kind]
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "mean", shape * math.fsum(units))
        object.__setattr__(self, "variance", shape * math.fsum(u * u for u in units))
        object.__setattr__(self, "nonnegative", min(units) > 0.0)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "mixture", mixture)
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "_hash", hash((kind, shape)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def exponential(cls) -> "Distribution":
        return cls(LawKind.EXPONENTIAL)

    @classmethod
    def gamma(cls, shape: float) -> "Distribution":
        return cls(LawKind.GAMMA, shape)

    @classmethod
    def laplace(cls) -> "Distribution":
        return cls(LawKind.LAPLACE)

    def scales(self, w: "WeightVector | Sequence[float]") -> np.ndarray:
        """Signed scales b with S = sum_j b_j G_j, G_j i.i.d. gamma(shape).

        That is a for exponential and gamma sums and (a, -a) for Laplace sums.
        """
        import numpy as np

        a = np.array(as_weights(w).values)
        return np.concatenate([u * a for u in _LAWS[self.kind][0]])

    def require_nonnegative(self, op: str) -> None:
        """Raise UnsupportedLawError, naming ``op``, unless the summands are nonnegative."""
        if not self.nonnegative:
            raise UnsupportedLawError(f"{op} applies to nonnegative summands, not {self.label()}")

    def label(self) -> str:
        """Short text form, e.g. 'gamma(0.5)' or 'laplace'."""
        if self.kind is LawKind.GAMMA:
            return f"gamma({self.shape:g})"
        return self.kind.value


# Fewest entries whose exact sum the array kernel takes over from fsum: fsum
# takes 4.8 us at 256 entries, 24 at 1,000 and 48 at 2,000, the kernel 7.8,
# 9 and 10 (best of 7 in-process runs on 2 shared cores, Python 3.11, numpy 2.4).
_ARRAY_FSUM_MIN = 512


def _array_fsum(x: np.ndarray) -> float:
    """math.fsum(memoryview(x)) for a 1-d float64 array, bit for bit, at array speed.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1),
    2008): with sigma = 2^e > (n + 1) max|r|, every q = (r + sigma) - sigma is
    exact, a multiple of 2^-53 sigma within 2^-53 sigma of r, so every partial
    sum of the q's is below sigma and exact, whatever numpy's order, and so is
    each remainder r - q, at most 2^-53 sigma.  sigma steps down by
    2^(52 - bit_length(n + 1)), which keeps it above (n + 1) times the
    remainders, until every remainder is 0; fsum then rounds the few exact
    level sums.  Their total is x's exact sum, whose correct rounding is
    unique, so the result has fsum's bits.  Short arrays, and those whose
    max |x| is 0, not finite or too close to overflow for sigma, go to fsum
    itself, with its values and exceptions.
    """
    n = len(x)
    if n < _ARRAY_FSUM_MIN:
        return math.fsum(memoryview(x))
    top = float(abs(x).max())
    bits = (n + 1).bit_length()
    e = math.frexp(top)[1] + bits
    if not 0.0 < top < math.inf or e > 1023:
        return math.fsum(memoryview(x))
    sigma = math.ldexp(1.0, e)
    step = math.ldexp(1.0, bits - 52)
    levels = []
    r = x
    while True:
        q = r + sigma
        q -= sigma
        levels.append(float(q.sum()))
        r = r - q
        if not r.any():
            return math.fsum(levels)
        sigma *= step


@dataclass(frozen=True)
class WeightVector:
    """Positive finite weights (a_1, ..., a_n) with a finite sum ``l1``, hashed once."""

    values: tuple[float, ...]

    def __post_init__(self):
        try:
            vals = tuple(map(float, self.values))
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"weights must be numbers: {exc}") from exc
        if not vals:
            raise InvalidInputError("weight vector must not be empty")
        if not (all(map(math.isfinite, vals)) and min(vals) > 0.0):
            for v in vals:  # name the first bad weight
                if not math.isfinite(v) or v <= 0.0:
                    raise InvalidInputError(f"weights must be positive and finite, got {v!r}")
        try:  # past float range the mean, and every ratio to l1, would be inf or nan
            l1 = math.fsum(vals)
        except OverflowError:
            raise InvalidInputError("weights must have a finite sum, got one past float range") from None
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "l1", l1)
        object.__setattr__(self, "_hash", hash(vals))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    @functools.cached_property
    def a_max(self) -> float:
        return max(self.values)

    @functools.cached_property
    def unit(self) -> float:
        """The power of two 2^k with 2^k <= a_max < 2^(k+1); dividing by it is exact."""
        return math.ldexp(1.0, math.frexp(self.a_max)[1] - 1)

    @functools.cached_property
    def l2(self) -> float:
        # squares in units of a power of two next to a_max neither overflow nor underflow
        u = self.unit
        if len(self.values) < _ARRAY_FSUM_MIN:
            return math.sqrt(math.fsum((v / u) * (v / u) for v in self.values)) * u
        import numpy as np

        a = np.array(self.values) / u
        return math.sqrt(_array_fsum(a * a)) * u


def as_weights(w: "WeightVector | Sequence[float]") -> WeightVector:
    """Coerce a sequence of numbers to a validated WeightVector.

    The last 16 are kept by their entries: equal ones (list, tuple, ints, numpy
    floats) share one vector, validated once; a rejected one raises every time.
    """
    if isinstance(w, WeightVector):
        return w
    values = tuple(w)
    try:
        return _weights(values)
    except TypeError:  # an unhashable entry: validated without the memo
        return WeightVector(values)


_weights = functools.lru_cache(maxsize=16)(WeightVector)


def check_seed(seed: int) -> int:
    """A seed is a non-negative integer (numpy integers included, bools not), as an int."""
    try:
        index = operator.index(seed)
    except TypeError:
        index = None
    if index is None or isinstance(seed, bool):
        raise InvalidInputError(f"seed must be an integer, got {seed!r}")
    if index < 0:
        raise InvalidInputError(f"seed must be non-negative, got {index}")
    return index


def parse_weights(text: str) -> WeightVector:
    """Parse weights from a comma-separated string or a JSON array.

    Accepts "2,1", " 2, 1 " and "[2, 1]".  A process parses its weights
    once, so the vector is built without the ``as_weights`` memo.
    """
    stripped = text.strip()
    if not stripped:
        raise InvalidInputError("empty weight list")
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"invalid JSON weight array: {exc}") from exc
        if isinstance(data, list) and any(isinstance(v, bool) for v in data):
            raise InvalidInputError(f"weights must be numbers, got {stripped!r}")
        return WeightVector(tuple(data))
    try:
        parts = [float(p) for p in stripped.split(",") if p.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"invalid weight list {text!r}: {exc}") from exc
    return WeightVector(tuple(parts))


@dataclass(frozen=True)
class WeightStats:
    """The law-dependent statistics of a weight vector: sigma, E S and the bounds' alphas.

    Nothing in the package calls ``weight_stats``: the bounds and
    ``threshold_unit`` take the law and the weights.  Both stay while the
    benchmark's tracer names ``core.weight_stats``, and go with
    ``special.gamma_upper_tail`` once it stops.
    """

    sigma: float
    alpha_exp: float
    alpha_sym: float
    mean_s: float


def weight_stats(w: "WeightVector | Sequence[float]", d: Distribution) -> WeightStats:
    """Compute WeightStats for the sum of d-distributed summands scaled by w."""
    w = as_weights(w)
    return WeightStats(
        sigma=math.sqrt(d.variance) * w.l2,
        alpha_exp=w.l1 / w.a_max,
        alpha_sym=math.sqrt(2.0) * w.l2 / w.a_max,
        mean_s=d.mean * w.l1,
    )


def threshold_unit(d: Distribution, w: "WeightVector | Sequence[float]") -> float:
    """Absolute size of one relative threshold unit: E S for nonnegative sums, sigma otherwise."""
    w = as_weights(w)
    return d.mean * w.l1 if d.nonnegative else math.sqrt(d.variance) * w.l2


def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits (lossless round-trip)."""
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInputError(f"cannot serialize non-finite value {x!r}")
    return "%.17g" % x


def json_dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats rendered by format_float.

    The stdlib encoder hardcodes repr() for floats; this renderer keeps dict
    insertion order and defers string escaping to the stdlib.
    """
    return _json_text(obj, indent, 0)


def _json_text(obj, indent: int, depth: int) -> str:
    """One value's text: a container joins its items' texts, each rendered one level deeper."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        colon = ": " if indent else ":"
        items = [json.dumps(str(k)) + colon + _json_text(v, indent, depth + 1) for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_json_text(v, indent, depth + 1) for v in obj]
        brackets = "[]"
    else:
        raise InvalidInputError(f"cannot serialize {type(obj).__name__} to JSON")
    if not items:
        return brackets
    if not indent:
        return brackets[0] + ",".join(items) + brackets[1]
    pad = "\n" + " " * (indent * (depth + 1))
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * (indent * depth) + brackets[1]
