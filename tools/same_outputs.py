"""Check that two source trees print the same on the benchmark's inputs.

    python tools/same_outputs.py PARENT CHANGE [--seeds 1,901,5151] [--limit K]

PARENT and CHANGE are checkouts of this repository, each with ``src/``.  The
inputs are the benchmark's, read from CHANGE's ``perfbench/inputs.py``:

* every ``cli_session`` argument set at each seed runs as a fresh
  ``python -m exptails.cli`` process in each tree, and the exit statuses and
  the stdouts, with the ``generated_at`` timestamp masked, must be equal;
* every ``oracle_sweep`` op at each seed is evaluated in one process per tree
  (``exact_tail``, or ``p_ge_mean`` for an op without a threshold), and the
  ``repr`` of each result, or of the error it raised, must be equal.

Each op that differs is listed, and the exit status is 1 if any differs.
``--limit K`` checks only the first K ops of each workload at each seed.
Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_GENERATED_AT = re.compile(rb"(generated_at\W*)[0-9T:Z-]+")

# reads (kind, shape, weights, threshold) JSON lines, writes the repr of each answer
_SWEEP_CHILD = """\
import json, sys
from exptails.core import Distribution
from exptails.oracle import exact_tail, p_ge_mean
for line in sys.stdin:
    kind, shape, weights, threshold = json.loads(line)
    d = Distribution(kind, shape)
    try:
        got = p_ge_mean(d, weights) if threshold is None else exact_tail(d, weights, threshold)
    except Exception as exc:
        got = exc
    print(json.dumps(repr(got)))
"""


def _load_inputs(tree: Path):
    spec = importlib.util.spec_from_file_location("inputs", tree / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["inputs"] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _run(tree: Path, argv: list[str], stdin: "bytes | None" = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as cwd:  # nothing a run writes lands in a tree
        return subprocess.run([sys.executable, *argv], input=stdin, env=env, cwd=cwd,
                              capture_output=True, check=False)


def _first_difference(a: bytes, b: bytes) -> str:
    la, lb = a.decode().splitlines(), b.decode().splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}:\n    - {x}\n    + {y}"
    return f"{len(la)} lines against {len(lb)}"


def cli_differences(trees: tuple[Path, Path], ops) -> list[str]:
    out = []
    for label, op in ops:
        runs = [_run(tree, ["-m", "exptails.cli", *op.argv]) for tree in trees]
        status = [r.returncode for r in runs]
        stdout = [_GENERATED_AT.sub(rb"\1<masked>", r.stdout) for r in runs]
        if status[0] != status[1] or stdout[0] != stdout[1]:
            out.append(f"cli_session {label}: {' '.join(op.argv)}\n  exit {status[0]} against "
                       f"{status[1]}, stdout {_first_difference(*stdout)}")
    return out


def sweep_differences(trees: tuple[Path, Path], ops) -> list[str]:
    lines = b"".join(
        json.dumps([*op.law, op.weights, op.threshold]).encode() + b"\n" for _, op in ops
    )
    answers = []
    for tree in trees:
        result = _run(tree, ["-c", _SWEEP_CHILD], stdin=lines)
        if result.returncode:
            sys.exit(f"oracle_sweep failed in {tree}:\n{result.stderr.decode()}")
        answers.append([json.loads(line) for line in result.stdout.decode().splitlines()])
    return [
        f"oracle_sweep {label}: {op.law} weights {op.weights} threshold {op.threshold!r}\n"
        f"    - {a}\n    + {b}"
        for (label, op), a, b in zip(ops, *answers)
        if a != b
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="1,901,5151", help="comma-separated workload seeds")
    parser.add_argument("--limit", type=int, default=None, help="first K ops per workload and seed")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    for tree in trees:
        if not (tree / "src" / "exptails").is_dir():
            parser.error(f"{tree} has no src/exptails")
    inputs = _load_inputs(trees[1])
    seeds = [int(s) for s in args.seeds.split(",")]
    differ = 0
    for name, make, compare in (("cli_session", inputs.cli_session, cli_differences),
                                ("oracle_sweep", inputs.oracle_sweep, sweep_differences)):
        ops = [(f"seed {seed} op {i}", op) for seed in seeds
               for i, op in enumerate(make(seed)[:args.limit])]
        found = compare(trees, ops)
        for line in found:
            print(line)
        print(f"{name}: {len(ops)} ops at seeds {args.seeds}, {len(found)} differ")
        differ += len(found)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
