"""Sandwich campaigns and the invariant property suite."""

import csv
import dataclasses
import io
import json
import math

import pytest

from exptails import bounds, harness
from exptails.cli import _VERIFY_COLUMNS, _table_csv
from exptails.core import Distribution, InvalidInputError, json_dumps, threshold_unit
from exptails.harness import (
    PropertyResult,
    SandwichRow,
    property_suite,
    random_instances,
    sandwich_report,
)
from exptails.oracle import exact_tail

EXP = Distribution.exponential()
LAP = Distribution.laplace()


def small_report(d, **overrides):
    kwargs = dict(instances=10, seed=0)
    kwargs.update(overrides)
    return sandwich_report(d, **kwargs)


class TestSandwichConfig:
    """The campaign's parameters, as ``sandwich_report`` takes them."""

    def test_defaults(self):
        rows = sandwich_report(LAP)
        grid = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0)
        assert len(rows) == 50 * len(grid)
        assert [r.instance for r in rows] == [i for i in range(50) for _ in grid]
        assert [r.t for r in rows] == list(grid) * 50
        assert rows == sandwich_report(LAP, 50, grid, 0)

    def test_rejects_bad_parameters(self, monkeypatch):
        # refused before any instance is drawn
        def no_draws(seed, count):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(harness, "random_instances", no_draws)
        with pytest.raises(InvalidInputError, match="instance count must be >= 0, got -1"):
            sandwich_report(LAP, instances=-1)
        for grid, shown in (((0.5,), "0.5"), ((1.0,), "1.0"), ((math.nan,), "nan")):
            with pytest.raises(InvalidInputError, match=rf"t grid must lie in \(1, inf\), got {shown}$"):
                sandwich_report(LAP, t_grid=grid)


class TestSandwichReport:
    def test_laplace_campaign_passes(self):
        rows = small_report(LAP)
        assert len(rows) == 10 * 6
        assert all(r.passed for r in rows)
        assert all(r.lower <= r.exact <= r.upper for r in rows)
        assert all(r.slack_low >= 0.0 and r.slack_high >= 0.0 for r in rows)
        assert {r.source for r in rows} == {"mixture"}

    def test_exponential_campaign_passes(self):
        rows = small_report(EXP)
        assert len(rows) == 60
        assert all(r.passed for r in rows)

    def test_gamma_campaigns_pass_via_inversion(self):
        for shape in (0.5, 2.0):
            rows = small_report(Distribution.gamma(shape), instances=5)
            assert all(r.passed for r in rows)
            assert {r.source for r in rows} == {"cf_inversion"}

    def test_threshold_units(self):
        # Laplace thresholds are t * sigma of the sum
        for row in small_report(LAP, instances=3, t_grid=(2.0,)):
            sigma = math.sqrt(2.0 * sum(v * v for v in row.weights))
            assert math.isclose(row.exact, exact_tail(LAP, row.weights, 2.0 * sigma)[0], rel_tol=1e-12)

    def test_deterministic(self):
        assert small_report(EXP, instances=5) == small_report(EXP, instances=5)

    def test_zero_instances(self):
        assert small_report(LAP, instances=0) == []

    @pytest.mark.parametrize("d", [LAP, EXP, Distribution.gamma(0.5), Distribution.gamma(2.0)],
                             ids=lambda d: d.label())
    def test_deep_thresholds_pass(self, d):
        # at t = 745 the n = 1 exponential tail is e^-745, the smallest
        # subnormal, and so is its power bound: neither may flush to 0
        rows = small_report(d, instances=5, t_grid=(50.0, 200.0, 745.0))
        assert all(r.passed for r in rows)

    def test_lower_bound_above_a_deep_tail_fails(self, monkeypatch):
        # at 50 sigma the Laplace tails are far below 1e-12, where an absolute
        # tolerance would pass any lower bound
        law_bounds = bounds.law_bounds

        def raised_lower(d, w, t, p):
            exact = exact_tail(d, w, t * threshold_unit(d, w))[0]
            return [dataclasses.replace(b, value=1.1 * exact) if b.kind == "laplace_lower"
                    else b for b in law_bounds(d, w, t, p)]

        monkeypatch.setattr(bounds, "law_bounds", raised_lower)
        rows = small_report(LAP, instances=3, t_grid=(50.0,))
        assert all(0.0 < r.exact < 1e-12 for r in rows)
        assert not any(r.passed for r in rows)

    def test_power_bound_below_the_tail_fails(self, monkeypatch):
        # the power bound is the third printed exponential bound: a row fails
        # when it alone is on the wrong side
        law_bounds = bounds.law_bounds

        def lowered_power(d, w, t, p):
            exact = exact_tail(d, w, t * threshold_unit(d, w))[0]
            return [dataclasses.replace(b, value=0.9 * exact) if b.kind == "s_ineq_upper"
                    else b for b in law_bounds(d, w, t, p)]

        monkeypatch.setattr(bounds, "law_bounds", lowered_power)
        rows = small_report(EXP, instances=3)
        assert not any(r.passed for r in rows)
        assert all(r.upper < r.exact for r in rows)


@pytest.fixture(scope="module")
def rows():
    return small_report(LAP, instances=4)


class TestRowSerialization:
    """Rows reach the verify output through as_dict and the CLI's writers."""

    def test_csv_round_trip(self, rows):
        text = _table_csv(_VERIFY_COLUMNS, [r.as_dict() for r in rows], [])
        parsed = list(csv.reader(io.StringIO(text)))
        assert tuple(parsed[0]) == _VERIFY_COLUMNS
        assert len(parsed) == len(rows) + 1
        first = dict(zip(parsed[0], parsed[1]))
        assert float(first["exact"]) == rows[0].exact
        assert first["pass"] in ("true", "false")
        assert first["dist"] == "laplace"

    def test_json_round_trip(self, rows):
        data = json.loads(json_dumps([r.as_dict() for r in rows]))
        assert len(data) == len(rows)
        entry = data[0]
        assert entry["pass"] is True
        assert entry["weights"] == list(rows[0].weights)
        assert entry["exact"] == rows[0].exact

    def test_json_indented_parses_identically(self, rows):
        flat = json.loads(json_dumps([r.as_dict() for r in rows]))
        pretty = json.loads(json_dumps([r.as_dict() for r in rows], indent=2))
        assert flat == pretty


class TestRandomInstances:
    def test_deterministic_and_bounded(self):
        a = random_instances(5, 20)
        b = random_instances(5, 20)
        assert a == b
        for w in a:
            assert 1 <= len(w) <= 8
            assert all(0.1 <= v <= 10.0 for v in w)

    def test_seed_changes_draw(self):
        assert random_instances(0, 5) != random_instances(1, 5)


class TestPropertySuite:
    def test_all_invariants_hold(self):
        results = property_suite(0)
        assert all(isinstance(result, PropertyResult) for result in results)
        for result in results:
            assert result.passed, (result.name, result.detail, result.witness)
            assert result.witness == ""

    def test_expected_check_names(self):
        names = [r.name for r in property_suite(0)]
        assert names == [
            "squared_weight_floor",
            "decay_propagation",
            "p_ge_mean_interval",
            "asymptotic_order",
        ]

    def test_deterministic(self):
        assert property_suite(3) == property_suite(3)

    def test_other_seed_also_passes(self):
        assert all(r.passed for r in property_suite(3))

    def test_results_serialize(self):
        for result in property_suite(0):
            entry = json.loads(json.dumps(result.as_dict()))
            assert set(entry) == {"name", "pass", "detail", "witness"}


def _exponential_tail(rate_on_four, rate_elsewhere):
    """A fake exact_tail, exp(-c x / a_max), with c = rate_on_four on the
    four-weight instances: at c > 1 decay_propagation fails, and
    asymptotic_order reads ratio c."""

    def tail(d, w, x):
        c = rate_on_four if len(w) == 4 else rate_elsewhere
        return math.exp(-c * x / w.a_max), "fake"

    return tail


def _scaled_exact_tail(d, w, x):
    return exact_tail(d, w, x)[0] * 1e-3, "fake"


class TestFailingProperties:
    """Each property fails on a faked oracle, and its witness is the worst
    instance (squared_weight_floor) or the first failure (the other three):
    at seed 0 the instances have n = 2, 1, 2, 8, 4, ..."""

    W4 = "weights (2.789238112726077, 0.38597542967199383, 0.16830525059013218, 0.12062215682871358)"

    @pytest.mark.parametrize("index, name, patch, detail, witness", [
        (0, "squared_weight_floor", ("exact_tail", _scaled_exact_tail),
         "min P = 0.000368 over 50 instances, floor 0.044094",
         # the n = 1 instances tie at e^-1; the first of them is the witness
         "(0.1523489067940812)"),
        (1, "decay_propagation", ("exact_tail", _exponential_tail(2.0, 0.5)),
         "10 instances x 6 (u, v) pairs",
         W4 + ", u = 1.7320704749084583, v = 1.3946190563630385"),
        (2, "p_ge_mean_interval", ("p_ge_mean", lambda d, w: 0.98 if len(w) == 1 else 0.5),
         "P(S >= E S) in (1/24, 23/24) on 50 exponential instances",
         "weights (0.1523489067940812), p = 0.98"),
        (3, "asymptotic_order", ("exact_tail", _exponential_tail(3.0, 1.0)),
         "10 Laplace instances at t = 50",
         W4 + ", ratio = 3.0"),
    ])
    def test_witness_text(self, monkeypatch, index, name, patch, detail, witness):
        monkeypatch.setattr(harness, *patch)
        result = property_suite(0)[index]
        assert result == PropertyResult(name=name, passed=False, detail=detail, witness=witness)
