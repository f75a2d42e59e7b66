"""The names the benchmark in ``perfbench/`` reads from the package.

perfbench wraps every module in ``tracing.LAYERS`` and times calls into the
entry points below; renaming one breaks the benchmark without failing any
other test.  ``tracing.py`` is loaded by path and left unchanged.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import exptails
from exptails import Distribution, exact_tail, legendre, oracle

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_imports():
    for layer in _tracing().LAYERS:
        assert importlib.import_module(f"exptails.{layer}").__name__ == f"exptails.{layer}"


def test_traced_functions_exist():
    # span names are "layer.function": those the summary counts or times, and
    # those whose results it reads
    tracing = _tracing()
    names = set(tracing._INFO)
    names.update(re.findall(r'(?:calls|self_s|errors)\["(\w+\.\w+)"\]', _TRACING.read_text()))
    assert "oracle.cf_tail_inversion" in names
    for name in names:
        layer, attr = name.split(".")
        assert layer in tracing.LAYERS
        assert inspect.isfunction(getattr(importlib.import_module(f"exptails.{layer}"), attr)), name


def test_benchmark_entry_points():
    for name in ("Distribution", "LawKind", "exact_tail", "p_ge_mean", "mc_tail", "is_tail"):
        assert hasattr(exptails, name), name
    tail, route = exact_tail(Distribution.exponential(), [2.0, 1.0], 3.0)
    assert isinstance(tail, float) and route == "mixture"
    tail, route = exact_tail(Distribution.gamma(0.5), [2.0, 1.0], 3.0)
    assert isinstance(tail, float) and route == "cf_inversion"
    for build in (oracle.hypoexp_mixture, oracle.laplace_mixture):
        assert isinstance(build([2.0, 1.0]), oracle.ExpMixture)
    assert inspect.isfunction(oracle.ExpMixture.tail)
    assert callable(legendre.chernoff_tilt)
    assert callable(importlib.import_module("exptails.cli").run)
    # mc_tails calls the estimators by keyword, and the tracer's _info_mc
    # reads result.n and kwargs["workers"]
    info_mc = _tracing()._INFO["montecarlo.mc_tail"]
    d = Distribution.exponential()
    for estimator, threshold in ((exptails.mc_tail, 3.0), (exptails.is_tail, 9.0)):
        kwargs = {"n": 1000, "seed": 0, "workers": 2}
        est = estimator(d, [2.0, 1.0], threshold, **kwargs)
        assert est.n == 1000 and isinstance(est.p_hat, float) and isinstance(est.stderr, float)
        assert info_mc((d, [2.0, 1.0], threshold), kwargs, est) == {"draws": 1000, "workers": 2}
