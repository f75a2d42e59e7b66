"""exptails benchmark: three closed-loop workloads, end-to-end or traced metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.

Workloads (one caller, each operation waits for the previous one):

* ``cli_session``: a fixed script of 20 argument sets, each run as a fresh
  ``python -m exptails.cli`` process once per pass, in at least two passes
  (the reruns check that stdout is byte-identical).  An operation is one
  argument set; its latency is its best process wall time.
* ``oracle_sweep``: in-process ``exact_tail`` / ``p_ge_mean`` over a seeded
  threshold grid.  An operation is one threshold evaluation.
* ``mc_tails``: in-process ``mc_tail`` / ``is_tail`` at 2**17 draws per call,
  each configuration with 1 and then 2 workers.  An operation is one call.
  Run it by name; BENCHMARK.json leaves it out, because its n = 64 sampling
  is bound by memory bandwidth, which neighbours on a shared 2-core host
  take: the medians of two ten-seed sets of the same code differed by 26%.

A run executes whole passes over the workload's operations until ``--seconds``
have elapsed (at least one pass).  Every operation's output is checked against
a reference that does not come from exptails; a wrong answer, an exception, a
non-zero exit or an unparsable or non-deterministic output fails the
operation, and the failure is listed on stdout.  ``attempted`` counts distinct
operations and ``failed`` those that failed in any pass.  The last stdout line
is the JSON result: end-to-end metrics with ``--trace 0``, per-layer metrics
from a separate traced run with ``--trace 1``.  ``--smoke`` shrinks every
workload for a quick check of the harness itself.
"""

from __future__ import annotations

import os

# Pinned before numpy loads (here and in every child), so two sampler threads
# plus BLAS threads stay within the two cores this benchmark was tuned on.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

SETUP_REPEATS = 3
# Draws per mc_tails call: two 65 536-row chunks, the fewest that a second
# worker splits.  At 1e6 draws a pass would take about 24 s on two cores and a
# run would time each call once; at 2**17 a pass takes about 3 s.
MC_DRAWS = 131_072
MC_SIGMAS = 4.0  # an estimate fails when it is further than this many standard errors off

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_iqm_ms": "ms",
    "ops_per_s": "1/s",
}

# one warm-up call into each layer the workload uses, after `import exptails`
SETUP_CODE = {
    "cli_session": (
        "import contextlib, io, exptails.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    exptails.cli.run(['exact', '--dist', 'exponential', '--weights', '2,1', '--t', '2'])\n"
    ),
    "oracle_sweep": (
        "from exptails import Distribution, exact_tail, p_ge_mean\n"
        "exact_tail(Distribution.exponential(), [2.0, 1.0], 3.0)\n"
        "exact_tail(Distribution.gamma(0.5), [2.0, 1.0], 3.0)\n"
        "p_ge_mean(Distribution.exponential(), [2.0, 1.0])\n"
    ),
    "mc_tails": (
        "from exptails import Distribution, is_tail, mc_tail\n"
        "mc_tail(Distribution.exponential(), [2.0, 1.0], 3.0, n=10000, seed=0)\n"
        "is_tail(Distribution.exponential(), [2.0, 1.0], 9.0, n=10000, seed=0)\n"
        "mc_tail(Distribution.exponential(), [2.0, 1.0], 3.0, n=200000, seed=0, workers=2)\n"
    ),
}

WARM_UP_ARGV = ["bounds", "--dist", "exponential", "--weights", "2,1", "--t", "2"]
IMPORT_SPLIT = {
    "import.exptails_s": "exptails",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.numpy_s": "numpy",
}


class Run:
    """Operation outcomes of one workload run, pass by pass.

    Every pass runs the same operations in the same order.  ``attempted`` is
    the number of distinct operations and ``failed`` the number of them that
    failed in any pass, so neither depends on how many passes fit in the run.
    """

    def __init__(self, operations: int) -> None:
        self.passes: list[tuple[float, list[float]]] = []  # (seconds, op latencies)
        self.attempted = operations
        self.failures: dict[int, str] = {}  # operation index -> its first failure
        self.wrong_tails = 0

    def record(self, index: int, latency: float, failure: str | None) -> None:
        if self.passes:
            self.passes[-1][1].append(latency)
        if failure is not None:
            self.failures.setdefault(index, failure)

    def run_passes(self, seconds: float, one_pass, min_passes: int = 1) -> None:
        """Call one_pass() until `seconds` have elapsed, at least min_passes times."""
        start, first = perf_counter(), len(self.passes)
        while len(self.passes) < first + min_passes or perf_counter() - start < seconds:
            begin = perf_counter()
            self.passes.append((0.0, []))
            one_pass()
            self.passes[-1] = (perf_counter() - begin, self.passes[-1][1])

    def end_to_end(self) -> dict:
        """Interquartile mean latency and throughput from each operation's
        best time over the run's passes.

        The 2-core VM this was tuned on slows by up to 1.7x for spells of tens
        of seconds, so the best time of an operation, taken over passes that
        lie seconds apart, moves much less between runs than its median does.
        The interquartile mean (the mean of the middle half) stands in for the
        median: on mc_tails the median falls between the n = 4 and n = 64
        calls and is the time of one or two calls, which spread by a quarter
        over ten seeds.
        """
        best = sorted(min(times) for times in zip(*(lat for _, lat in self.passes)))
        quarter = len(best) // 4
        middle = best[quarter:len(best) - quarter]
        return {
            "op_iqm_ms": 1e3 * statistics.fmean(middle),
            "ops_per_s": len(best) / sum(best),
        }


def child_python(args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], env=CHILD_ENV, cwd=ROOT, capture_output=True)
    return proc, perf_counter() - start


def measure_setup(workload: str, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing exptails plus warm-up calls."""
    times = []
    for _ in range(repeats):
        proc, wall = child_python(["-c", SETUP_CODE[workload]])
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr.decode()[-2000:]}")
        times.append(wall)
    return statistics.median(times)


def _cumulative_import_s(lines: list[tuple[int, str, float]], package: str) -> float:
    """Cumulative import time of `package`.  scipy's lazy loader can leave the
    package's own line out of the report; then its outermost submodules are summed."""
    exact = [t for _, name, t in lines if name == package]
    if exact:
        return exact[0]
    inner = [(depth, t) for depth, name, t in lines if name.startswith(package + ".")]
    if not inner:
        return 0.0
    top = min(depth for depth, _ in inner)
    return sum(t for depth, t in inner if depth == top)


def import_split(repeats: int) -> dict:
    """Cumulative `-X importtime` seconds of a few modules, median of `repeats`."""
    samples = {name: [] for name in IMPORT_SPLIT}
    for _ in range(repeats):
        proc, _ = child_python(["-X", "importtime", "-c", "import exptails"])
        lines = []
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                depth = len(name) - len(name.lstrip())
                lines.append((depth, name.strip(), int(parts[1]) * 1e-6))
        for metric, module in IMPORT_SPLIT.items():
            samples[metric].append(_cumulative_import_s(lines, module))
    return {metric: statistics.median(v) for metric, v in samples.items()}


# ---------------------------------------------------------------------------
# oracle_sweep and mc_tails (in-process)
# ---------------------------------------------------------------------------


def _distribution(exptails, law):
    kind, shape = law
    if kind == "gamma":
        return exptails.Distribution.gamma(shape)
    return exptails.Distribution(exptails.LawKind(kind))


def _describe(op) -> str:
    kind, shape = op.law
    law = f"gamma({shape:g})" if kind == "gamma" else kind
    where = "p_ge_mean" if op.threshold is None else f"threshold={op.threshold!r}"
    return f"{law} n={len(op.weights)} {where}"


def oracle_sweep(seed: int, smoke: bool):
    import refs

    ops = inputs.oracle_sweep(seed)
    if smoke:
        ops = ops[::12] + ops[-2:]
    expected = refs.tail_references(ops, refs.load_pool())
    exptails = sys.modules["exptails"]
    prepared = [(op, _distribution(exptails, op.law), ref) for op, ref in zip(ops, expected)]
    run = Run(len(prepared))

    def one_pass():
        # looked up per pass: the traced run wraps these names after the untraced passes
        exact_tail, p_ge_mean = exptails.exact_tail, exptails.p_ge_mean
        for i, (op, d, ref) in enumerate(prepared):
            failure = None
            start = perf_counter()
            try:
                if op.threshold is None:
                    got = p_ge_mean(d, op.weights)
                else:
                    got = exact_tail(d, op.weights, op.threshold)[0]
            except Exception as exc:  # an exptails error is a failed operation
                latency = perf_counter() - start
                failure = f"{_describe(op)}: {type(exc).__name__}: {exc}"
            else:
                latency = perf_counter() - start
                if not refs.tail_ok(got, ref):
                    run.wrong_tails += 1
                    failure = f"{_describe(op)}: got {got!r}, reference {ref!r}"
            run.record(i, latency, failure)

    return run, one_pass


def mc_tails(seed: int, smoke: bool):
    import refs

    ops = inputs.mc_tails(seed, draws=20_000 if smoke else MC_DRAWS)
    expected = refs.tail_references(ops, refs.load_pool())
    exptails = sys.modules["exptails"]
    prepared = [(op, _distribution(exptails, op.law), ref) for op, ref in zip(ops, expected)]
    run = Run(len(prepared))

    def one_pass():
        serial = {}
        for i, (op, d, ref) in enumerate(prepared):
            estimator = exptails.mc_tail if op.method == "plain" else exptails.is_tail
            failure = None
            start = perf_counter()
            try:
                est = estimator(d, op.weights, op.threshold, n=op.draws, seed=op.seed,
                                workers=op.workers)
            except Exception as exc:  # an exptails error is a failed operation
                latency = perf_counter() - start
                failure = f"{op.method} {_describe(op)}: {type(exc).__name__}: {exc}"
            else:
                latency = perf_counter() - start
                key = (op.method, op.law, op.weights, op.threshold, op.seed)
                if op.workers == 1:
                    serial[key] = est
                if abs(est.p_hat - ref) > MC_SIGMAS * est.stderr:
                    failure = (f"{op.method} {_describe(op)} workers={op.workers}: "
                               f"p_hat {est.p_hat!r} +- {est.stderr!r}, reference {ref!r}")
                elif op.workers != 1 and est != serial.get(key):
                    failure = (f"{op.method} {_describe(op)}: workers=2 estimate differs "
                               f"from workers=1")
            run.record(i, latency, failure)

    return run, one_pass


def in_process(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import exptails  # noqa: F401  (the workloads find it in sys.modules)

    make = oracle_sweep if workload == "oracle_sweep" else mc_tails
    run, one_pass = make(seed, smoke)
    exec(SETUP_CODE[workload], {})  # warm-up, untimed
    result = {"run": run}
    if not trace:
        run.run_passes(seconds, one_pass)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    import tracing

    # two untraced passes: the first one also warms up (thread pools, caches)
    run.run_passes(0.0, one_pass, min_passes=2)
    untraced = run.passes[1][0]
    tracer = tracing.Tracer()
    tracer.install()
    run.run_passes(seconds, one_pass)
    traced = statistics.median(t for t, _ in run.passes[2:])
    layers = tracing.summarize(tracer.spans, len(run.passes) - 2)
    layers["trace.overhead_frac"] = traced / untraced
    layers["oracle.wrong"] = run.wrong_tails // len(run.passes)  # per pass
    layers["cli.process_other_s"] = 0.0  # no CLI processes in this workload
    result["layers"] = layers
    result["spans"] = tracer.spans
    return result


# ---------------------------------------------------------------------------
# cli_session (one process per operation)
# ---------------------------------------------------------------------------

_GENERATED_AT = re.compile(rb"^.*generated_at.*$\n?", re.MULTILINE)


def _parse_failure(op: inputs.CliOp, stdout: bytes) -> str | None:
    text = stdout.decode("utf-8")
    try:
        if op.fmt == "json":
            json.loads(text)
            return None
        rows = list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))
    except (ValueError, csv.Error) as exc:
        return f"unparsable {op.fmt}: {exc}"
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        return "csv rows do not match the header"
    return None


def _cli_failure(op, proc, rerun_of: bytes | None) -> str | None:
    name = " ".join(op.argv)
    if proc.returncode != 0:
        return f"{name}: exit status {proc.returncode}: {proc.stderr.decode()[-300:]}"
    problem = _parse_failure(op, proc.stdout)
    if problem is None and rerun_of is not None:
        if _GENERATED_AT.sub(b"", proc.stdout) != _GENERATED_AT.sub(b"", rerun_of):
            problem = "stdout differs from the previous run with the same arguments"
    return None if problem is None else f"{name}: {problem}"


def cli_session(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    ops = inputs.cli_session(seed)
    if smoke:
        ops = ops[:2]
    run = Run(len(ops))
    module = ["-m", "exptails.cli"]
    if not trace:
        first_stdout: dict[int, bytes] = {}

        def one_pass():
            # every pass after the first is the rerun that must match its stdout
            for i, op in enumerate(ops):
                proc, wall = child_python([*module, *op.argv])
                run.record(i, wall, _cli_failure(op, proc, first_stdout.get(i)))
                first_stdout.setdefault(i, proc.stdout)

        # at least two passes: the rerun check, and a best time per argument
        # set from two runs about half a session apart
        run.run_passes(seconds, one_pass, min_passes=2)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return {"run": run, "peak_rss_mb": peak}

    import tracing

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / "cli_child_spans.json"
    spans: list[list] = []
    untraced = traced = other_s = 0.0
    for i, op in enumerate(ops):
        proc, wall = child_python([*module, *op.argv])
        run.record(i, wall, _cli_failure(op, proc, None))
        untraced += wall
        # the traced rerun doubles as the byte-identical stdout check
        spans_file.unlink(missing_ok=True)
        proc2, wall2 = child_python([str(HERE / "cli_child.py"), str(spans_file), *op.argv])
        run.record(i, wall2, _cli_failure(op, proc2, proc.stdout))
        traced += wall2
        if not spans_file.exists():  # the child failed; recorded above
            continue
        child = json.loads(spans_file.read_text())
        offset = len(spans)
        for name, start, end, parent, info in child["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, info])
            if name == "cli.run" and parent < 0:
                other_s += wall2 - child["import_s"] - (end - start)
    layers = tracing.summarize(spans, 1)
    layers["cli.process_other_s"] = other_s
    layers["trace.overhead_frac"] = traced / untraced
    layers["oracle.wrong"] = 0
    return {"run": run, "layers": layers, "spans": spans}


# ---------------------------------------------------------------------------


def environment() -> dict:
    git_dir = ROOT / ".git"
    sha = "unknown (not a git checkout)"
    if git_dir.exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or sha
        except OSError:  # no git program
            pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "OPENBLAS_NUM_THREADS": "1 (pinned by the benchmark)",
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith(("ratio", "speedup_2w", "frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_CODE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny workloads, one set-up")
    args = parser.parse_args(argv)
    if not (SRC / "exptails" / "__init__.py").is_file():
        print(f"error: no exptails package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # untimed: compiles the .pyc caches before anything is timed
    proc, _ = child_python(["-m", "exptails.cli", *WARM_UP_ARGV])
    if proc.returncode != 0:
        print(f"error: warm-up invocation failed: {proc.stderr.decode()[-2000:]}", file=sys.stderr)
        return 2
    env = environment()
    repeats = 1 if args.smoke else SETUP_REPEATS
    if not args.trace:
        setup_s = measure_setup(args.workload, repeats)
    if args.workload == "cli_session":
        result = cli_session(args.seed, args.seconds, bool(args.trace), args.smoke)
    else:
        result = in_process(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    run = result["run"]

    if args.trace:
        values = {**import_split(repeats), **result["layers"]}
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            **run.end_to_end(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{run.attempted} operations, {len(run.failures)} failed")
    if run.passes:
        print(f"# pass seconds: {[round(t, 3) for t, _ in run.passes]}")
    for failure in run.failures.values():
        print(f"# failed: {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        # every operation's output was checked; wrong answers are in "failed"
        "correct": run.attempted > 0,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
