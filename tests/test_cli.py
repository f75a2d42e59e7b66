"""Command-line interface: exit codes, output formats, determinism."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest
from scipy.special import gammaincc

import exptails.cli as cli
import exptails.harness as harness
import exptails.montecarlo as montecarlo
import exptails.oracle as oracle
from exptails.core import Distribution, NumericFailureError, WeightVector
from exptails.harness import PropertyResult
from exptails.cli import run
from exptails.oracle import exact_tail

LAP = Distribution.laplace()
SIGMA21 = math.sqrt(10.0)  # std of 2 X_1 + X_2 for standard Laplace X_i

# Frozen reference values from tests/oracles/closed_forms.py (mpmath, 50 dps).
LAPLACE_UPPER_T2 = 0.252953855321830831452
LAPLACE21_AT_1 = 0.343040532946515228803
HYPOEXP21_AT_6 = 0.0970953845590615275356
MOMENT_EXACT_P3_W21 = 3.95789160968040547894
MOMENT_LOWER_P2_N1_PAPER = 2.38943012775881533751

GOLDEN = Path(__file__).parent / "golden"


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def mask_timestamp(text):
    return re.sub(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", "<generated_at>", text)


def mask_out(text):
    """Output with the --out value of its config header masked."""
    return re.sub(r'"out": ?(null|"[^"]*")', '"out": <out>', text)


def masked_stdout(capsys, argv):
    """Stdout of a successful run with the generated_at timestamp masked."""
    assert run(argv) == 0
    return mask_timestamp(capsys.readouterr().out)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate", "--dist", "laplace", "--weights", "1"],
            ["bounds", "--dist", "laplace", "--t", "2"],  # missing --weights
            ["bounds", "--dist", "laplace", "--weights", "2,1"],  # no threshold
            ["bounds", "--dist", "laplace", "--weights", "2,1", "--t", "2", "--threshold", "3"],
            ["bounds", "--dist", "gamma", "--weights", "1", "--t", "2"],  # no shape
            ["bounds", "--dist", "laplace", "--shape", "2", "--weights", "1", "--t", "2"],
            ["bounds", "--dist", "laplace", "--weights", "1,oops", "--t", "2"],
            ["bounds", "--dist", "laplace", "--weights", "2,1", "--t", "2", "--format", "xml"],
            ["moments", "--dist", "exponential", "--weights", "2,1"],
            ["exact", "--dist", "laplace", "--weights", "2,1", "--t", ""],
        ],
    )
    def test_exit_code_one(self, capsys, argv):
        assert run(argv) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "weights, thresholds",
        [
            ("2,1", ["--t", "1,x"]),
            ("2,1", ["--t", ","]),
            ("2,1", ["--threshold", "nan"]),
            ("2,1", ["--t", "inf"]),
            ("[1,", ["--t", "2"]),
            ('[1, "x"]', ["--t", "2"]),
            ("[true,2]", ["--t", "2"]),  # float(True) is 1.0, not a weight
            ("1e-300", ["--threshold", "1e10"]),  # t overflows
        ],
    )
    def test_bad_values_are_one_line_errors(self, capsys, weights, thresholds):
        argv = ["exact", "--dist", "exponential", "--weights", weights, *thresholds]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("exptails: error:"), captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["exact", "--dist", "exponential", "--weights", "1e-300", "--threshold", "1e10"],
             1e10),
            (["bounds", "--dist", "exponential", "--weights", "2,1", "--t", "1e308"], 1e308),
            (["bounds", "--dist", "laplace", "--weights", "1e-300", "--threshold", "1e10"], 1e10),
            (["simulate", "--dist", "gamma", "--shape", "2", "--weights", "1e-300",
              "--threshold", "1e10"], 1e10),
        ],
        ids=["exact", "bounds", "bounds_laplace", "simulate"],
    )
    def test_threshold_out_of_float_range_stops_before_computing(
        self, capsys, monkeypatch, argv, value
    ):
        def untouched(*args, **kwargs):
            raise AssertionError("computed at a threshold out of float range")

        for name in ("exact_tail", "p_ge_mean"):
            monkeypatch.setattr(oracle, name, untouched)
        for name in ("mc_tail", "is_tail"):
            monkeypatch.setattr(montecarlo, name, untouched)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("exptails: error:")
        assert captured.err.count("\n") == 1
        assert repr(value) in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--dist", "gamma", "--shape", "0.5", "--weights", "1e308,1e308", "--t", "3"],
            ["bounds", "--dist", "exponential", "--weights", "1e308,1e308", "--t", "3"],
            ["bounds", "--dist", "laplace", "--weights", "1e308,1e308", "--t", "3"],
            ["simulate", "--dist", "laplace", "--weights", "1e308,1e308", "--t", "3"],
            ["exact", "--dist", "exponential", "--weights", "[1e308, 9e307]", "--t", "3"],
        ],
        ids=["exact_gamma", "bounds_exponential", "bounds_laplace", "simulate_laplace", "exact_json"],
    )
    def test_weights_summing_past_float_range_are_one_line_errors(self, capsys, argv):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "exptails: error: weights must have a finite sum, got one past float range\n"

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        def broken(d, w, threshold):
            raise NumericFailureError("inversion stalled")

        monkeypatch.setattr(oracle, "exact_tail", broken)
        assert run(["exact", "--dist", "laplace", "--weights", "2,1", "--t", "2"]) == 3
        assert "numeric failure" in capsys.readouterr().err


class TestBoundsCommand:
    def test_laplace_pair(self, capsys):
        payload = run_json(
            capsys, ["bounds", "--dist", "laplace", "--weights", "2,1", "--t", "2"]
        )
        rows = payload["rows"]
        assert [r["kind"] for r in rows] == ["laplace_lower", "laplace_upper"]
        upper = rows[1]
        assert math.isclose(upper["value"], LAPLACE_UPPER_T2, rel_tol=1e-9)
        assert upper["valid"] is True
        assert math.isclose(upper["threshold"], 2.0 * math.sqrt(10.0), rel_tol=1e-15)
        assert payload["meta"]["config"]["subcommand"] == "bounds"

    def test_exponential_emits_all_routes(self, capsys):
        payload = run_json(
            capsys, ["bounds", "--dist", "exponential", "--weights", "2,1", "--t", "2"]
        )
        kinds = [r["kind"] for r in payload["rows"]]
        assert kinds == [
            "janson_lower",
            "janson_upper",
            "generic_lower",
            "generic_upper",
            "s_ineq_upper",
        ]

    def test_threshold_grid(self, capsys):
        payload = run_json(
            capsys,
            ["bounds", "--dist", "exponential", "--weights", "2,1", "--threshold", "6,9"],
        )
        # absolute thresholds divide by E S = 3 to recover t
        ts = sorted({r["t"] for r in payload["rows"]})
        assert ts == [2.0, 3.0]

    @pytest.mark.parametrize(
        "dist, thresholds, message",
        [
            ("laplace", ["--threshold", "-3"], "bounds need --threshold above 0, got -3.0"),
            ("laplace", ["--t", "2,-0.5"], "bounds need --t above 0, got -0.5"),
            ("exponential", ["--threshold", "6,0"], "bounds need --threshold above 0, got 0.0"),
            ("exponential", ["--t", "0"], "bounds need --t above 0, got 0.0"),
        ],
    )
    def test_nonpositive_threshold_names_the_value_given(self, capsys, dist, thresholds, message):
        # the error names the option and its value, not the threshold in units of the scale
        argv = ["bounds", "--dist", dist, "--weights", "2,1", *thresholds]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"exptails: error: {message}\n"

    def test_csv_format(self, capsys):
        code = run(
            ["bounds", "--dist", "laplace", "--weights", "2,1", "--t", "2", "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# generated_at=")
        assert lines[1].startswith("# config=")
        assert lines[2] == "t,threshold,kind,value,log_value,valid"
        cells = lines[4].split(",")
        assert math.isclose(float(cells[3]), LAPLACE_UPPER_T2, rel_tol=1e-9)

    def test_csv_config_header_bytes(self, capsys):
        argv = ["bounds", "--dist", "laplace", "--weights", "2,1", "--t", "1.5,2",
                "--format", "csv"]
        assert run(argv) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            '# config={"subcommand":"bounds","dist":"laplace","shape":null,"weights":[2,1],'
            '"t":[1.5,2],"threshold":null,"p":null,"mode":null,"samples":null,"method":null,'
            '"instances":null,"seed":0,"format":"csv","out":null}'
        )


class TestExactCommand:
    def test_absolute_threshold(self, capsys):
        payload = run_json(
            capsys, ["exact", "--dist", "exponential", "--weights", "2,1", "--threshold", "6"]
        )
        row = payload["rows"][0]
        assert math.isclose(row["tail"], HYPOEXP21_AT_6, rel_tol=1e-10)
        assert row["source"] == "mixture"
        assert row["t"] == 2.0

    def test_relative_threshold_matches(self, capsys):
        payload = run_json(
            capsys, ["exact", "--dist", "exponential", "--weights", "2,1", "--t", "2"]
        )
        assert math.isclose(payload["rows"][0]["tail"], HYPOEXP21_AT_6, rel_tol=1e-10)

    def test_gamma_uses_inversion(self, capsys):
        payload = run_json(
            capsys,
            ["exact", "--dist", "gamma", "--shape", "2", "--weights", "2,1", "--t", "2"],
        )
        assert payload["rows"][0]["source"] == "cf_inversion"

    def test_gamma_large_total_shape_at_the_mean(self, capsys):
        # ten unit gamma(500) summands: P(S >= E S) = Q(5000, 5000), once printed as 1
        payload = run_json(
            capsys,
            ["exact", "--dist", "gamma", "--shape", "500", "--weights", "1,1,1,1,1,1,1,1,1,1",
             "--t", "1"],
        )
        assert abs(payload["rows"][0]["tail"] - gammaincc(5000.0, 5000.0)) <= 1e-9

    def test_gamma_threshold_far_below_the_scale(self, capsys):
        # P(S <= t) <= (t/a)^2 here, so the tail is 1 to double precision
        payload = run_json(
            capsys,
            ["exact", "--dist", "gamma", "--shape", "1", "--weights", "1,1",
             "--threshold", "1e-160"],
        )
        assert payload["rows"][0]["tail"] == 1.0

    def test_gamma_threshold_at_the_smallest_float(self, capsys):
        # t/a_i underflows to 0 here: the small-t form takes log t - log a_i
        payload = run_json(
            capsys,
            ["exact", "--dist", "gamma", "--shape", "0.5", "--weights", "2,1",
             "--threshold", "5e-324"],
        )
        assert payload["rows"][0]["tail"] == 1.0

    def test_gamma_threshold_past_the_smallest_tail(self, capsys):
        # the Chernoff bound is below the smallest float: the tail is 0
        payload = run_json(
            capsys,
            ["exact", "--dist", "gamma", "--shape", "0.5", "--weights", "2,1",
             "--threshold", "1e14"],
        )
        assert payload["rows"][0] == {"t": 1e14 / 1.5, "threshold": 1e14, "tail": 0.0,
                                      "source": "cf_inversion"}

    def test_small_gamma_shape_far_below_the_scale(self, capsys):
        payload = run_json(
            capsys,
            ["exact", "--dist", "gamma", "--shape", "0.001", "--weights", "2,2",
             "--threshold", "1e-200"],
        )
        ref = gammaincc(0.002, 0.5e-200)
        assert abs(payload["rows"][0]["tail"] - ref) <= 1e-9 * ref

    def test_gamma_weights_far_below_one(self, capsys):
        # the sum of squares of the weights underflowed to 0 here
        payload = run_json(
            capsys,
            ["exact", "--dist", "gamma", "--shape", "0.5", "--weights", "1e-200,2e-200",
             "--threshold", "7e-201"],
        )
        # P(X_1 + 2 X_2 > 0.7) for gamma(1/2) X_i (mpmath quadrature, 40 dps)
        ref = 0.6140571521824074614
        assert abs(payload["rows"][0]["tail"] - ref) <= math.ulp(ref)

    def test_gamma_weights_far_above_one(self, capsys):
        # the sum of squares of the weights overflowed here
        argv = ["exact", "--dist", "gamma", "--shape", "0.5", "--format", "json"]
        far = run_json(capsys, [*argv, "--weights", "1e200,2e200", "--threshold", "7e200"])
        unit = run_json(capsys, [*argv, "--weights", "1,2", "--threshold", "7"])
        assert math.isclose(far["rows"][0]["tail"], unit["rows"][0]["tail"], rel_tol=1e-14)

    def test_laplace_weights_far_below_one(self, capsys):
        # sigma was 0, and the relative threshold a division by it
        payload = run_json(
            capsys,
            ["exact", "--dist", "laplace", "--weights", "1e-200,2e-200", "--threshold", "1e-200"],
        )
        row = payload["rows"][0]
        assert math.isclose(row["t"], 1.0 / SIGMA21, rel_tol=1e-15)
        assert math.isclose(row["tail"], LAPLACE21_AT_1, rel_tol=1e-12)


class TestSimulateCommand:
    def test_plain_estimate(self, capsys):
        argv = [
            "simulate", "--dist", "laplace", "--weights", "2,1",
            "--t", "1.5", "--samples", "2000", "--seed", "7",
        ]
        payload = run_json(capsys, argv)
        row = payload["rows"][0]
        assert row["method"] == "plain"
        assert row["n"] == 2000
        assert 0.0 <= row["ci_low"] <= row["p_hat"] <= row["ci_high"] <= 1.0

    def test_tilted_estimate(self, capsys):
        argv = [
            "simulate", "--dist", "exponential", "--weights", "2,1",
            "--t", "5", "--samples", "2000", "--method", "tilted",
        ]
        payload = run_json(capsys, argv)
        row = payload["rows"][0]
        assert row["method"] == "tilted"
        assert row["tilt_theta"] > 0.0

    def test_tilt_one_float_above_the_mean(self, capsys):
        # the tilt was -1.7e-17: a converged Newton step had left its bracket
        argv = [
            "simulate", "--dist", "exponential", "--weights", "2,1", "--threshold",
            "3.0000000000000004", "--method", "tilted", "--samples", "1000",
        ]
        row = run_json(capsys, argv)["rows"][0]
        assert 0.0 < row["tilt_theta"] < 1e-15

    def test_laplace_tilted_weights_far_above_one(self, capsys):
        # sigma overflowed, so the relative threshold was inf
        argv = [
            "simulate", "--dist", "laplace", "--weights", "1e200,2e200",
            "--t", "3", "--method", "tilted",
        ]
        row = run_json(capsys, argv)["rows"][0]
        assert math.isclose(row["threshold"], 3.0 * SIGMA21 * 1e200, rel_tol=1e-15)
        truth = exact_tail(LAP, [1.0, 2.0], 3.0 * SIGMA21)[0]
        assert abs(row["p_hat"] - truth) <= 4.0 * row["stderr"]

    @pytest.mark.parametrize("dist", ["exponential", "laplace"])
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_tilt_at_extreme_scales(self, capsys, dist, scale):
        # the tilt solve divided by K'' = 0 at 1e-200 and stopped early at 1e200.
        # For weights (a, 2a) and t = 3, a K'(theta) = 9 (3 E S) or 3 sqrt(10) (3 sigma)
        argv = [
            "simulate", "--dist", dist, "--weights", f"{scale:g},{2 * scale:g}",
            "--t", "3", "--method", "tilted",
        ]
        row = run_json(capsys, argv)["rows"][0]
        if dist == "exponential":
            def k_prime(th):
                return 1 / (1 - th) + 2 / (1 - 2 * th) - 9

            truth = 2.0 * math.exp(-4.5) - math.exp(-9.0)  # P(2 Y_1 + Y_2 > 9)
        else:
            def k_prime(th):
                return 2 * th / (1 - th**2) + 8 * th / (1 - 4 * th**2) - 3 * mp.sqrt(10)

            truth = exact_tail(LAP, [1.0, 2.0], 3.0 * SIGMA21)[0]
        with mp.workdps(30):
            want = float(mp.findroot(k_prime, (0.01, 0.49), solver="anderson"))
        assert math.isclose(row["tilt_theta"] * scale, want, rel_tol=1e-12)
        assert abs(row["p_hat"] - truth) <= 4.0 * row["stderr"]


class TestMomentsCommand:
    def test_sandwich_holds(self, capsys):
        payload = run_json(
            capsys, ["moments", "--dist", "laplace", "--weights", "2,1", "--p", "2,3"]
        )
        for row in payload["rows"]:
            assert row["lower"] <= row["exact"] <= row["upper"]
            assert row["mode"] == "proof_derived"
        assert math.isclose(payload["rows"][1]["exact"], MOMENT_EXACT_P3_W21, rel_tol=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales(self, capsys, scale):
        # the contour ran in raw units: 1/0 at 1e-200, overflow at 1e200
        argv = ["moments", "--dist", "laplace", "--p", "2,3"]
        rows = run_json(capsys, [*argv, "--weights", f"{scale:g},{2 * scale:g}"])["rows"]
        unit = run_json(capsys, [*argv, "--weights", "1,2"])["rows"]
        assert math.isclose(rows[0]["exact"], SIGMA21 * scale, rel_tol=1e-14)
        assert math.isclose(rows[1]["exact"], MOMENT_EXACT_P3_W21 * scale, rel_tol=1e-12)
        for row, ref in zip(rows, unit):
            assert math.isclose(row["exact"], ref["exact"] * scale, rel_tol=1e-14)

    def test_paper_mode_counterexample_is_visible(self, capsys):
        # the published constant overshoots E S^2 for a single weight; the
        # CLI reports the numbers as they are instead of hiding the clash
        payload = run_json(
            capsys,
            ["moments", "--dist", "laplace", "--weights", "1", "--p", "2", "--mode", "paper"],
        )
        row = payload["rows"][0]
        assert math.isclose(row["lower"], MOMENT_LOWER_P2_N1_PAPER, rel_tol=1e-12)
        assert row["lower"] > row["exact"]

    def test_high_order_row_is_fixed(self, capsys):
        argv = ["moments", "--dist", "laplace", "--weights", "2,1", "--p", "1e6"]
        payload = run_json(capsys, argv)
        assert payload["rows"][0]["exact"] == 735764.85259130085

    def test_orders_past_a_million_print_their_norms(self, capsys):
        # these orders once exited 3: their trapezoid sums did not agree to 1e-12
        argv = ["moments", "--dist", "laplace", "--weights", "2,1", "--p", "3e6,1e8,1e9,1e12"]
        rows = run_json(capsys, argv)["rows"]
        assert [row["p"] for row in rows] == [3e6, 1e8, 1e9, 1e12]
        assert [row["exact"] for row in rows] == [
            oracle.laplace_abs_norm([2.0, 1.0], p) for p in (3e6, 1e8, 1e9, 1e12)
        ]

    @pytest.mark.parametrize("p", ["1e15", "1e20", "1e300"])
    def test_order_whose_saddle_meets_the_pole_fails(self, p):
        # the bisection for the saddle once looped forever when its ends were
        # adjacent floats; a subprocess with a timeout keeps a regression from
        # hanging the suite
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "exptails.cli", "moments", "--dist", "laplace",
             "--weights", "2,1", "--p", p],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("exptails: numeric failure:")
        assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--dist", "gamma", "--shape", "0.5", "--weights", "3,1,1", "--t", "0.8,2"],
        ["exact", "--dist", "laplace", "--weights", "2,1,0.5,0.5", "--t=-1.5,0,3"],
        ["simulate", "--dist", "exponential", "--weights", "2,1", "--t", "1.2", "--samples", "1000"],
        ["moments", "--dist", "laplace", "--weights", "2,1,0.5", "--p", "2,3"],
    ],
)
def test_weights_are_validated_once(capsys, monkeypatch, argv):
    built = []
    post_init = WeightVector.__post_init__
    monkeypatch.setattr(WeightVector, "__post_init__", lambda w: built.append(post_init(w)))
    assert run(argv) == 0
    assert len(built) == 1
    assert json.loads(capsys.readouterr().out)["meta"]["config"]["weights"] == [
        float(v) for v in argv[argv.index("--weights") + 1].split(",")
    ]


class TestDeterminism:
    def test_json_reruns_identical_modulo_timestamp(self, capsys):
        argv = ["simulate", "--dist", "laplace", "--weights", "2,1", "--t", "2",
                "--samples", "1000"]
        first = run_json(capsys, argv)
        second = run_json(capsys, argv)
        first["meta"].pop("generated_at")
        second["meta"].pop("generated_at")
        assert first == second

    def test_csv_reruns_identical_modulo_timestamp(self, capsys):
        argv = ["bounds", "--dist", "exponential", "--weights", "2,1", "--t", "1.5,2,3",
                "--format", "csv"]

        def stripped():
            assert run(argv) == 0
            out = capsys.readouterr().out
            return [ln for ln in out.splitlines() if not ln.startswith("# generated_at=")]

        assert stripped() == stripped()

    def test_csv_and_json_carry_identical_values(self, capsys):
        base = ["exact", "--dist", "laplace", "--weights", "2,1", "--t", "1.5,2"]
        payload = run_json(capsys, base)
        assert run(base + ["--format", "csv"]) == 0
        out = capsys.readouterr().out
        data_lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        for row, line in zip(payload["rows"], data_lines[1:]):
            cells = line.split(",")
            assert float(cells[2]) == row["tail"]


class TestOutFile:
    def test_writes_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "bounds.json"
        argv = ["bounds", "--dist", "laplace", "--weights", "2,1", "--t", "2",
                "--out", str(target)]
        assert run(argv) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text())
        assert payload["rows"][0]["kind"] == "laplace_lower"
        # the file holds the bytes that the same run prints, its --out path aside
        for case in (
            argv,
            ["verify", "--dist", "exponential", "--instances", "2", "--t", "2",
             "--format", "csv", "--out", str(tmp_path / "verify.csv")],
        ):
            assert run(case) == 0
            assert capsys.readouterr().out == ""
            written = Path(case[-1]).read_text(encoding="utf-8")
            printed = masked_stdout(capsys, case[:-2])
            assert mask_out(mask_timestamp(written)) == mask_out(printed)

    def test_unwritable_path_is_a_one_line_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        argv = ["exact", "--dist", "exponential", "--weights", "2,1", "--t", "2",
                "--out", str(target)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"exptails: error: cannot write {str(target)!r}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestVerifyCommand:
    def test_small_campaign_passes(self, capsys):
        argv = ["verify", "--dist", "laplace", "--instances", "3", "--t", "1.5,2"]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["pass"] is True
        assert len(payload["sandwich"]) == 6
        assert len(payload["properties"]) == 6
        assert "verify: 6 rows (0 failing), 6 properties (0 failing)" in captured.err

    def test_csv_carries_property_lines(self, capsys):
        argv = ["verify", "--dist", "exponential", "--instances", "2", "--t", "2",
                "--format", "csv"]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "# property squared_weight_floor pass=true" in out
        assert "# suite_pass=true" in out
        header = next(ln for ln in out.splitlines() if not ln.startswith("#"))
        assert header == "instance,dist,n,t,lower,exact,upper,pass,source"

    def test_failing_property_sets_exit_code(self, capsys, monkeypatch):
        def failing_suite(seed):
            result = PropertyResult(
                name="squared_weight_floor", passed=False,
                detail="forced failure", witness="(1)",
            )
            return (result,)

        monkeypatch.setattr(harness, "property_suite", failing_suite)
        argv = ["verify", "--dist", "laplace", "--instances", "1", "--t", "2"]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["pass"] is False

    def test_bad_t_grid(self, capsys):
        argv = ["verify", "--dist", "laplace", "--instances", "1", "--t", "0.5"]
        assert run(argv) == 1
        capsys.readouterr()

    def test_negative_seed(self, capsys):
        # the same check as simulate's, not an uncaught numpy error
        assert run(["verify", "--dist", "exponential", "--instances", "1", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "exptails: error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_bytes(self, capsys, fmt):
        argv = ["verify", "--dist", "exponential", "--instances", "2", "--t", "2,3",
                "--format", fmt]
        golden = (GOLDEN / f"verify_exponential_2x2.{fmt}").read_text(encoding="utf-8")
        assert masked_stdout(capsys, argv) == golden

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        # no sampling fallback: an oracle failure ends the run like any subcommand
        def broken(d, w, threshold):
            raise NumericFailureError("inversion stalled")

        monkeypatch.setattr(harness, "exact_tail", broken)
        argv = ["verify", "--dist", "exponential", "--instances", "2", "--t", "3"]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric failure: inversion stalled" in captured.err


# Byte-exact stdout of one argument set per case, with the timestamp masked.
# The Laplace exact grid has a repeated weight and takes the contour on both
# sides of 0.  The simulate cases span four sampling chunks.
GOLDEN_CASES = {
    "bounds_exponential.csv": ["bounds", "--dist", "exponential", "--weights", "2,1,0.5",
                               "--t", "0.5,1,2,5", "--format", "csv"],
    "bounds_laplace.json": ["bounds", "--dist", "laplace", "--weights", "2,1",
                            "--t", "0.5,1.5,3", "--format", "json"],
    "bounds_gamma.csv": ["bounds", "--dist", "gamma", "--shape", "0.5", "--weights", "3,1,1",
                         "--t", "0.8,1.5,2,4", "--format", "csv"],
    "exact_laplace.csv": ["exact", "--dist", "laplace", "--weights", "2,1,0.5,0.5",
                          "--t=-1.5,-0.2,0,0.7,3", "--format", "csv"],
    "moments_laplace.json": ["moments", "--dist", "laplace", "--weights", "2,1,0.5",
                             "--p", "2,3,4", "--format", "json"],
    "moments_laplace_paper.csv": ["moments", "--dist", "laplace", "--weights", "2,1,0.5",
                                  "--p", "2,3,4", "--mode", "paper", "--format", "csv"],
    "simulate_exponential.csv": ["simulate", "--dist", "exponential", "--weights", "2,1,0.5",
                                 "--t", "1.2,2", "--samples", "200000", "--seed", "7",
                                 "--format", "csv"],
    "simulate_exponential_tilted.json": ["simulate", "--dist", "exponential", "--weights",
                                         "2,1,0.5", "--t", "3,6", "--samples", "200000",
                                         "--seed", "7", "--method", "tilted", "--format", "json"],
    "simulate_gamma.json": ["simulate", "--dist", "gamma", "--shape", "2", "--weights", "3,1,1",
                            "--t", "1.2,2", "--samples", "200000", "--seed", "11",
                            "--format", "json"],
    "simulate_gamma_tilted.csv": ["simulate", "--dist", "gamma", "--shape", "2", "--weights",
                                  "3,1,1", "--t", "2.5,4", "--samples", "200000", "--seed", "11",
                                  "--method", "tilted", "--format", "csv"],
    "simulate_laplace.json": ["simulate", "--dist", "laplace", "--weights", "2,1,0.5",
                              "--t", "0.5,1.5", "--samples", "200000", "--seed", "5",
                              "--format", "json"],
    "simulate_laplace_tilted.csv": ["simulate", "--dist", "laplace", "--weights", "2,1,0.5",
                                    "--t", "3,5", "--samples", "200000", "--seed", "5",
                                    "--method", "tilted", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output_bytes(capsys, name):
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    assert masked_stdout(capsys, GOLDEN_CASES[name]) == golden


def test_cli_import_leaves_scipy_stats_out():
    src = str(Path(cli.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import exptails.cli; "
        "print('scipy.stats' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_runs_leave_scipy_special_out():
    # Erlang tails are elementary and Clopper-Pearson intervals (under 30
    # hits) load scipy.special on demand, so none of these runs imports it
    src = str(Path(cli.__file__).parents[1])
    runs = [
        ["bounds", "--dist", "exponential", "--weights", "2,1", "--t", "2"],
        ["exact", "--dist", "laplace", "--weights", "2,1,0.5", "--t", "0.5,3"],
        ["verify", "--dist", "exponential", "--instances", "2", "--t", "2,3"],
        ["simulate", "--dist", "exponential", "--weights", "2,1", "--t", "1",
         "--samples", "1000"],
    ]
    code = (
        f"import contextlib, io, json, sys; sys.path.insert(0, {src!r}); import exptails.cli\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert exptails.cli.run(argv) == 0\n"
        "row = json.loads(out.getvalue())['rows'][0]\n"
        "print(row['p_hat'] * row['n'], 'scipy.special' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    hits, loaded = proc.stdout.split()
    assert float(hits) >= 30  # the normal interval, not Clopper-Pearson
    assert loaded == "False"


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("exptails")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "exact", "--dist", "exponential", "--weights", "2,1", "--threshold", "6"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert math.isclose(payload["rows"][0]["tail"], HYPOEXP21_AT_6, rel_tol=1e-10)
