"""The package namespace, the names the benchmark under perfbench/ looks up, and the
README's quick start."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


# The one read of a ``.kind`` outside ``core`` that is not a law's: the CLI
# prints each bound value's kind.  ``__init__`` names ``LawKind`` only in the
# strings of its lazy name map, which the scan does not read.
BOUND_KIND_READS = {("cli.py", "b.kind")}


def test_only_core_names_the_laws():
    # each law's facts live in core's table, so no other module imports
    # LawKind or reads the kind of a Distribution to branch on it
    found = []
    for path in sorted(Path(exptails.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias) and node.name == "LawKind":
                found.append(f"{path.name}:{node.lineno}: imports LawKind")
            elif isinstance(node, ast.Name) and node.id == "LawKind":
                found.append(f"{path.name}:{node.lineno}: names LawKind")
            elif isinstance(node, ast.Attribute) and node.attr in ("LawKind", "kind"):
                if (path.name, ast.unparse(node)) not in BOUND_KIND_READS:
                    found.append(f"{path.name}:{node.lineno}: reads {ast.unparse(node)}")
    assert found == []


def test_array_sums_go_through_the_kernel():
    # core._array_fsum returns fsum's bits by array operations from a few
    # hundred entries on, so fsum walks an array's buffer only in the
    # kernel's own fallback, for short or non-finite arrays
    found, kernel = [], range(0)
    for path in sorted(Path(exptails.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == ("core.py", "_array_fsum"):
                kernel = range(node.lineno, node.end_lineno + 1)
            elif (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("fsum") and node.args
                  and isinstance(node.args[0], ast.Call) and ast.unparse(node.args[0].func) == "memoryview"):
                found.append((path.name, node.lineno))
    assert found, "the scan finds the kernel's fallback"
    assert [(name, line) for name, line in found if name != "core.py" or line not in kernel] == []


# What the closed-form runs must not load: numpy arrives with the contour, the
# samplers and the harness, and the thread pool with sampling over workers.
ARRAY_MODULES = ("numpy", "exptails.montecarlo", "exptails.harness", "concurrent.futures")
CLOSED_FORM_RUNS = [
    ["bounds", "--dist", "exponential", "--weights", "2,1", "--t", "2"],
    ["bounds", "--dist", "laplace", "--weights", "2,1", "--t", "2"],
    ["exact", "--dist", "exponential", "--weights", "2,1", "--t", "0.5,2"],
    ["exact", "--dist", "laplace", "--weights", "2,1,0.5", "--t", "2,-2"],
]


def modules_after(code: str) -> set[str]:
    """The names in sys.modules after `code` runs in a fresh interpreter."""
    src = str(Path(exptails.__file__).parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n{code}\n"
        "import json; print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_code(argv: list[str]) -> str:
    return (
        "import contextlib, io, exptails.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert exptails.cli.run({argv!r}) == 0"
    )


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = modules_after("import exptails")
    assert sorted(m for m in loaded if m.startswith("exptails.")) == []
    assert "numpy" not in loaded


@pytest.mark.parametrize("argv", CLOSED_FORM_RUNS, ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_closed_form_cli_runs_load_no_arrays(argv):
    loaded = modules_after(cli_code(argv))
    assert sorted(loaded.intersection(ARRAY_MODULES)) == []


def test_contour_runs_load_numpy():
    argv = ["exact", "--dist", "gamma", "--shape", "0.5", "--weights", "2,1", "--t", "2"]
    assert "numpy" in modules_after(cli_code(argv))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        exptails.nope  # noqa: B018


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from exptails import *", namespace)
    for name in PACKAGE_NAMES:
        assert namespace[name] is vars(exptails)[name], name


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_as_shown(capsys):
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Quick start")) + len("```python\n")
    code = text[start:text.index("```\n", start)]
    namespace: dict = {}
    exec(compile(code, "README.md quick start", "exec"), namespace)  # runs its assert
    values = (namespace["lower"].value, namespace["exact"], namespace["upper"].value)
    bracket = " <= ".join(f"{v:.4f}" for v in values)
    assert bracket == "0.0274 <= 0.0971 <= 0.3156"
    assert f"# {bracket}\n" in code
    assert capsys.readouterr().out == "0.09573 in [0.09473, 0.09674]\n"
    assert code.endswith("\n# 0.09573 in [0.09473, 0.09674]\n")
