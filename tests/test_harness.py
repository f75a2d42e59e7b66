"""Sandwich campaigns and the invariant property suite."""

import csv
import dataclasses
import io
import json
import math

import pytest

from exptails import harness
from exptails.cli import _COLUMNS, _table_csv
from exptails.core import Distribution, InvalidInputError, json_dumps, threshold_unit
from exptails.harness import (
    PropertyResult,
    SandwichConfig,
    SandwichRow,
    property_suite,
    random_instances,
    sandwich_report,
)
from exptails.oracle import exact_tail

EXP = Distribution.exponential()
LAP = Distribution.laplace()


def small_config(d, **overrides):
    kwargs = dict(distribution=d, instances=10, seed=0)
    kwargs.update(overrides)
    return SandwichConfig(**kwargs)


class TestSandwichConfig:
    def test_defaults(self):
        cfg = SandwichConfig(distribution=LAP)
        assert cfg.instances == 50
        assert cfg.t_grid == (1.1, 1.5, 2.0, 3.0, 5.0, 10.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            SandwichConfig(distribution=LAP, instances=-1)
        with pytest.raises(InvalidInputError):
            SandwichConfig(distribution=LAP, t_grid=(0.5,))
        with pytest.raises(InvalidInputError):
            SandwichConfig(distribution=LAP, t_grid=(1.0,))


class TestSandwichReport:
    def test_laplace_campaign_passes(self):
        rows = sandwich_report(small_config(LAP))
        assert len(rows) == 10 * 6
        assert all(r.passed for r in rows)
        assert all(r.lower <= r.exact <= r.upper for r in rows)
        assert all(r.slack_low >= 0.0 and r.slack_high >= 0.0 for r in rows)
        assert {r.source for r in rows} == {"mixture"}

    def test_exponential_campaign_passes(self):
        rows = sandwich_report(small_config(EXP))
        assert len(rows) == 60
        assert all(r.passed for r in rows)

    def test_gamma_campaigns_pass_via_inversion(self):
        for shape in (0.5, 2.0):
            rows = sandwich_report(small_config(Distribution.gamma(shape), instances=5))
            assert all(r.passed for r in rows)
            assert {r.source for r in rows} == {"cf_inversion"}

    def test_threshold_units(self):
        # Laplace thresholds are t * sigma of the sum
        cfg = small_config(LAP, instances=3, t_grid=(2.0,))
        for row in sandwich_report(cfg):
            sigma = math.sqrt(2.0 * sum(v * v for v in row.weights))
            assert math.isclose(row.exact, exact_tail(LAP, row.weights, 2.0 * sigma)[0], rel_tol=1e-12)

    def test_deterministic(self):
        cfg = small_config(EXP, instances=5)
        assert sandwich_report(cfg) == sandwich_report(cfg)

    def test_zero_instances(self):
        assert sandwich_report(small_config(LAP, instances=0)) == []

    @pytest.mark.parametrize("d", [LAP, EXP, Distribution.gamma(0.5), Distribution.gamma(2.0)],
                             ids=lambda d: d.label())
    def test_deep_thresholds_pass(self, d):
        rows = sandwich_report(small_config(d, instances=5, t_grid=(50.0, 200.0)))
        assert all(r.passed for r in rows)

    def test_lower_bound_above_a_deep_tail_fails(self, monkeypatch):
        # at 50 sigma the Laplace tails are far below 1e-12, where an absolute
        # tolerance would pass any lower bound
        sandwich_pair = harness.sandwich_pair

        def raised_lower(d, w, t, floor):
            lower, upper = sandwich_pair(d, w, t, floor)
            exact = exact_tail(d, w, t * threshold_unit(d, w))[0]
            return dataclasses.replace(lower, value=1.1 * exact), upper

        monkeypatch.setattr(harness, "sandwich_pair", raised_lower)
        rows = sandwich_report(small_config(LAP, instances=3, t_grid=(50.0,)))
        assert all(0.0 < r.exact < 1e-12 for r in rows)
        assert not any(r.passed for r in rows)


@pytest.fixture(scope="module")
def rows():
    return sandwich_report(small_config(LAP, instances=4))


class TestRowSerialization:
    """Rows reach the verify output through as_dict and the CLI's writers."""

    def test_csv_round_trip(self, rows):
        text = _table_csv(_COLUMNS["verify"], [r.as_dict() for r in rows], [])
        parsed = list(csv.reader(io.StringIO(text)))
        assert tuple(parsed[0]) == _COLUMNS["verify"]
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

    def test_expected_check_names(self):
        names = [r.name for r in property_suite(0)]
        assert names == [
            "squared_weight_floor",
            "gaussian_tail_lower",
            "h_regimes",
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
