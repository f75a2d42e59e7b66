"""The package namespace, and the names the benchmark under perfbench/ looks up."""

import importlib
import importlib.util
from pathlib import Path

import exptails

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The package namespace is the benchmark's entry points; everything else is
# imported from its own module.
PACKAGE_NAMES = ("Distribution", "LawKind", "exact_tail", "p_ge_mean", "mc_tail", "is_tail")


def test_namespace_holds_only_the_benchmark_entry_points():
    assert sorted(exptails.__all__) == sorted(PACKAGE_NAMES)


def test_every_exported_name_resolves():
    missing = [name for name in exptails.__all__ if not hasattr(exptails, name)]
    assert missing == []


def test_names_the_benchmark_uses_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.LAYERS) == 8
    for layer in tracing.LAYERS:
        importlib.import_module(f"exptails.{layer}")
    assert hasattr(importlib.import_module("exptails.oracle"), "ExpMixture")
    for name in PACKAGE_NAMES:
        assert hasattr(exptails, name), name
