"""Tail bounds for weighted sums of exponential, gamma, and Laplace variables,
with exact oracles and Monte Carlo cross-checks.

The package namespace holds the law types and the exact and Monte Carlo tail
entry points; everything else is imported from its module (``exptails.bounds``,
``exptails.oracle``, ...).  The namespace resolves each name on first use
(PEP 562), so ``import exptails`` loads no submodule and no numpy: a name
imports only the module that defines it.
"""

import importlib

__all__ = ["Distribution", "LawKind", "exact_tail", "is_tail", "mc_tail", "p_ge_mean"]

_HOME = {
    "Distribution": "core",
    "LawKind": "core",
    "exact_tail": "oracle",
    "is_tail": "montecarlo",
    "mc_tail": "montecarlo",
    "p_ge_mean": "oracle",
}


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    # later lookups find the name in the module dict and skip this function
    globals()[name] = value
    return value
