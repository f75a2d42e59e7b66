"""tools/same_outputs.py: two source trees' outputs compared op by op."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


def run_tool(parent, change, *args):
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change), *args],
                          capture_output=True, text=True, check=False)


def test_a_tree_prints_the_same_as_itself():
    result = run_tool(ROOT, ROOT, "--seeds", "1", "--limit", "3")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "cli_session: 3 ops at seeds 1, 0 differ",
        "oracle_sweep: 3 ops at seeds 1, 0 differ",
    ]


def test_every_differing_op_is_listed(tmp_path):
    # a stub package whose CLI prints one line and whose oracle answers 0.5
    pkg = tmp_path / "src" / "exptails"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("print('stub')\n")
    (pkg / "core.py").write_text(
        "class Distribution:\n    def __init__(self, kind, shape):\n        pass\n"
    )
    (pkg / "oracle.py").write_text(
        "def exact_tail(d, w, t):\n    return 0.5, 'stub'\n"
        "def p_ge_mean(d, w):\n    return 0.5\n"
    )
    result = run_tool(tmp_path, ROOT, "--seeds", "1", "--limit", "1")
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("cli_session seed 1 op 0: bounds --dist exponential")
    assert "cli_session: 1 ops at seeds 1, 1 differ" in lines
    assert "    - (0.5, 'stub')" in lines
    assert lines[-1] == "oracle_sweep: 1 ops at seeds 1, 1 differ"
