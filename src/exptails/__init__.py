"""Tail bounds for weighted sums of exponential, gamma, and Laplace variables,
with exact oracles and Monte Carlo cross-checks.

The package namespace holds the law types and the exact and Monte Carlo tail
entry points; everything else is imported from its module (``exptails.bounds``,
``exptails.oracle``, ...).
"""

from .core import Distribution, LawKind
from .montecarlo import is_tail, mc_tail
from .oracle import exact_tail, p_ge_mean

__all__ = ["Distribution", "LawKind", "exact_tail", "is_tail", "mc_tail", "p_ge_mean"]
