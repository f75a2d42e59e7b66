"""Command-line front end: bound curves, exact tails, simulation, verification.

A run is described once: ``_config_from_args`` turns the parsed options
into a ``RunConfig``, and the subcommands read that alone.  One writer,
``_emit``, renders every subcommand's output as JSON or CSV, to stdout or
``--out``; numeric payloads are serialized with 17 significant digits so the
same argv always produces the same bytes (the timestamp lives in an
ignorable metadata header).  Exit codes: 0 success, 1 usage error (an
unwritable ``--out`` path and a threshold that leaves float range
included), 2 failing verification rows, 3 numeric failure.

Each subcommand imports the modules it runs when it runs, so a process loads
only what its subcommand needs.  numpy comes with the contour, the samplers
and the harness; ``bounds`` and ``exact`` on exponential and Laplace sums of
distinct weights, where the partial-fraction mixture answers, are plain float
arithmetic and never load it.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

from .core import (
    Distribution,
    InvalidInputError,
    NumericFailureError,
    WeightVector,
    format_float,
    json_dumps,
    parse_weights,
    threshold_unit,
)

_DISTS = ("exponential", "gamma", "laplace")

_COLUMNS = {
    "bounds": ("t", "threshold", "kind", "value", "log_value", "valid"),
    "exact": ("t", "threshold", "tail", "source"),
    "simulate": (
        "t", "threshold", "p_hat", "stderr", "ci_low", "ci_high",
        "n", "method", "seed", "tilt_theta",
    ),
    "moments": ("p", "lower", "exact", "upper", "mode"),
    "verify": ("instance", "dist", "n", "t", "lower", "exact", "upper", "pass", "source"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; the JSON meta header carries it verbatim."""

    subcommand: str
    dist: str
    shape: "float | None" = None
    weights: "tuple[float, ...] | None" = None
    t: "tuple[float, ...] | None" = None
    threshold: "tuple[float, ...] | None" = None
    p: "tuple[float, ...] | None" = None
    mode: "str | None" = None
    samples: "int | None" = None
    method: "str | None" = None
    instances: "int | None" = None
    seed: int = 0
    format: str = "json"
    out: "str | None" = None


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this front end uses 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(piece) for piece in text.split(",") if piece.strip())
    except ValueError as exc:
        raise InvalidInputError(f"invalid {what} list {text!r}: {exc}") from exc
    if not values:
        raise InvalidInputError(f"empty {what} list")
    for v in values:
        if not math.isfinite(v):
            raise InvalidInputError(f"{what} values must be finite, got {v!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exptails", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_common(p: argparse.ArgumentParser, with_weights: bool = True) -> None:
        p.add_argument("--dist", required=True, choices=_DISTS)
        p.add_argument("--shape", type=float, default=None,
                       help="gamma shape parameter (gamma only)")
        if with_weights:
            p.add_argument("--weights", required=True,
                           help="comma-separated positive weights, e.g. 2,1")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    def add_threshold_group(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--t", help="thresholds in units of sigma (Laplace) or E S")
        group.add_argument("--threshold", help="thresholds in absolute units")

    p_bounds = sub.add_parser("bounds", help="bound curves over a threshold grid")
    add_common(p_bounds)
    add_threshold_group(p_bounds)

    p_exact = sub.add_parser("exact", help="exact oracle tails")
    add_common(p_exact)
    add_threshold_group(p_exact)

    p_sim = sub.add_parser("simulate", help="Monte Carlo tail estimates")
    add_common(p_sim)
    add_threshold_group(p_sim)
    p_sim.add_argument("--samples", type=int, default=100_000)
    p_sim.add_argument("--method", choices=("plain", "tilted"), default="plain")

    p_mom = sub.add_parser("moments", help="moment-norm bounds and exact values")
    add_common(p_mom)
    p_mom.add_argument("--p", default="2,3,4,6,8", help="comma-separated moment orders")
    p_mom.add_argument("--mode", choices=("proof_derived", "paper"), default="proof_derived")

    p_verify = sub.add_parser("verify", help="sandwich certification + property suite")
    add_common(p_verify, with_weights=False)
    p_verify.add_argument("--instances", type=int, default=50)
    p_verify.add_argument("--t", default=None,
                          help="override the sandwich t grid (must lie in (1, inf))")

    return parser


def _make_distribution(config: RunConfig) -> Distribution:
    if config.dist == "gamma" and config.shape is None:
        raise InvalidInputError("--shape is required for --dist gamma")
    if config.dist != "gamma" and config.shape is not None:
        raise InvalidInputError("--shape applies only to --dist gamma")
    return Distribution(config.dist, 1.0 if config.shape is None else config.shape)


def _resolve_thresholds(
    config: RunConfig, d: Distribution, w: WeightVector
) -> list[tuple[float, float]]:
    """[(relative, absolute)] threshold pairs, each member finite, and positive for bounds."""
    unit = threshold_unit(d, w)
    if config.t is not None:
        option, given = "--t", config.t
        pairs = [(t, t * unit) for t in given]
    else:
        option, given = "--threshold", config.threshold
        pairs = [(x / unit, x) for x in given]
    for value, pair in zip(given, pairs):
        if not all(map(math.isfinite, pair)):
            raise InvalidInputError(
                f"{option} {value!r} leaves float range in threshold units of {unit!r}"
            )
        if config.subcommand == "bounds" and not value > 0.0:
            raise InvalidInputError(f"bounds need {option} above 0, got {value!r}")
    return pairs


def _bound_rows(d: Distribution, w: WeightVector, pairs: list[tuple[float, float]]) -> list[dict]:
    from .bounds import law_bounds
    from .oracle import p_ge_mean

    p_mean = p_ge_mean(d, w)
    return [
        {"t": t, "threshold": threshold, "kind": b.kind.value, "value": b.value,
         "log_value": b.log_value, "valid": b.valid}
        for t, threshold in pairs for b in law_bounds(d, w, t, p_mean)
    ]


def _exact_rows(d: Distribution, w: WeightVector, pairs: list[tuple[float, float]]) -> list[dict]:
    from .oracle import exact_tail

    rows = []
    for t, threshold in pairs:
        tail, source = exact_tail(d, w, threshold)
        rows.append({"t": t, "threshold": threshold, "tail": tail, "source": source})
    return rows


def _simulate_rows(
    d: Distribution, w: WeightVector, pairs: list[tuple[float, float]], config: RunConfig
) -> list[dict]:
    from .montecarlo import is_tail, mc_tail

    estimate = is_tail if config.method == "tilted" else mc_tail
    return [
        {"t": t, "threshold": threshold,
         **asdict(estimate(d, w, threshold, config.samples, config.seed))}
        for t, threshold in pairs
    ]


def _moment_rows(d: Distribution, w: WeightVector, config: RunConfig) -> list[dict]:
    if not d.moments:
        raise InvalidInputError("moments requires --dist laplace")
    from .bounds import moment_bounds
    from .oracle import laplace_abs_norm

    rows = []
    for p in config.p:
        lower, upper = moment_bounds(p, w, mode=config.mode)
        exact = laplace_abs_norm(w, p)
        rows.append({"p": p, "lower": lower, "exact": exact, "upper": upper, "mode": config.mode})
    return rows


def _table_csv(columns: tuple[str, ...], rows: list[dict], header_lines: list[str]) -> str:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[c]) for c in columns])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _emit(
    config: RunConfig, body: dict, rows: list[dict], header: "tuple[str, ...] | list[str]" = ()
) -> None:
    """Write a run's output: JSON ``{"meta", **body}`` or CSV, the meta and
    ``header`` as comment lines above the ``rows`` table."""
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    meta = {"config": asdict(config), "generated_at": stamp}
    if config.format == "json":
        text = json_dumps({"meta": meta, **body}, indent=2) + "\n"
    else:
        meta_lines = [f"generated_at={stamp}", f"config={json_dumps(meta['config'])}"]
        text = _table_csv(_COLUMNS[config.subcommand], rows, [*meta_lines, *header])
    if config.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {config.out!r}: {exc.strerror or exc}") from exc


def _config_from_args(args: argparse.Namespace) -> "tuple[RunConfig, WeightVector | None]":
    """The run's one description (options a subcommand does not define are
    None) and its validated weights, None for ``verify``."""
    values = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    w = None
    if values["weights"] is not None:
        w = parse_weights(values["weights"])
        values["weights"] = w.values
    for name in ("t", "threshold", "p"):
        if values[name] is not None:
            values[name] = _parse_float_list(values[name], f"--{name}")
    return RunConfig(**values), w


def _run_table_subcommand(config: RunConfig, w: WeightVector) -> int:
    d = _make_distribution(config)
    if config.subcommand == "moments":
        rows = _moment_rows(d, w, config)
    else:
        pairs = _resolve_thresholds(config, d, w)
        if config.subcommand == "bounds":
            rows = _bound_rows(d, w, pairs)
        elif config.subcommand == "exact":
            rows = _exact_rows(d, w, pairs)
        else:
            rows = _simulate_rows(d, w, pairs, config)
    _emit(config, {"rows": rows}, rows)
    return 0


def _run_verify(config: RunConfig) -> int:
    from .harness import SandwichConfig, property_suite, sandwich_report

    d = _make_distribution(config)
    grid = {} if config.t is None else {"t_grid": config.t}
    rows = sandwich_report(
        SandwichConfig(distribution=d, instances=config.instances, seed=config.seed, **grid)
    )
    results = property_suite(config.seed)
    all_pass = all(r.passed for r in (*rows, *results))
    sandwich = [r.as_dict() for r in rows]
    properties = [r.as_dict() for r in results]
    header = [f"property {r['name']} pass={_csv_cell(r['pass'])}" for r in properties]
    header.append(f"suite_pass={_csv_cell(all_pass)}")
    _emit(config, {"sandwich": sandwich, "properties": properties, "pass": all_pass},
          sandwich, header)
    failing = sum(1 for r in rows if not r.passed)
    prop_fail = sum(1 for r in results if not r.passed)
    print(
        f"verify: {len(rows)} rows ({failing} failing), "
        f"{len(results)} properties ({prop_fail} failing)",
        file=sys.stderr,
    )
    return 0 if all_pass else 2


def run(argv: "list[str] | None" = None) -> int:
    """Parse argv, execute the subcommand, return the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config, w = _config_from_args(args)
        if config.subcommand == "verify":
            return _run_verify(config)
        return _run_table_subcommand(config, w)
    except InvalidInputError as exc:
        print(f"exptails: error: {exc}", file=sys.stderr)
        return 1
    except NumericFailureError as exc:
        print(f"exptails: numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
