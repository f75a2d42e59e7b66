"""Tail bounds: the two-sided sandwich pairs, floors, and moment brackets.

Frozen reference values come from tests/oracles/closed_forms.py.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from verifiers import r_function, r_infimum_numeric

from exptails.bounds import (
    MOMENT_CONSTANT_PAPER,
    MOMENT_CONSTANT_PROOF,
    BoundKind,
    generic_lower,
    generic_upper,
    janson_lower,
    janson_upper,
    laplace_lower,
    laplace_upper,
    law_bounds,
    moment_bounds,
    pz_bound,
    s_inequality_upper,
    sandwich_pair,
)
from exptails.core import (
    Distribution,
    InvalidInputError,
    UnsupportedLawError,
    WeightVector,
    threshold_unit,
)
from exptails.special import h_closed

EXP = Distribution.exponential()
LAP = Distribution.laplace()
W21 = [2, 1]
GOLDEN = Path(__file__).parent / "golden"


def _golden_kinds(name: str) -> list[str]:
    """The bound kinds a ``bounds`` golden prints at each of its thresholds, all alike."""
    text = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        rows = json.loads(text)["rows"]
    else:
        rows = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    by_t: dict = {}
    for row in rows:
        by_t.setdefault(row["t"], []).append(row["kind"])
    assert len(by_t) > 1 and len(set(map(tuple, by_t.values()))) == 1, (name, by_t)
    return next(iter(by_t.values()))


class TestJansonPair:
    def test_frozen_values_at_t2(self):
        # closed_forms.py: janson_lower_t2 / janson_upper_t2 for weights (2,1)
        lo = janson_lower(2.0, W21)
        hi = janson_upper(2.0, W21)
        assert math.isclose(lo.value, 0.0273616662079662650565, rel_tol=1e-14)
        assert math.isclose(hi.value, 0.315553698656390155072, rel_tol=1e-14)
        assert lo.kind is BoundKind.JANSON_LOWER
        assert lo.valid and hi.valid

    def test_degenerate_below_t1(self):
        assert not janson_upper(1.0, W21).valid
        assert not janson_lower(0.5, W21).valid
        assert janson_upper(1.0, W21).value == 1.0

    def test_ordering_on_grid(self):
        for t in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
            assert janson_lower(t, W21).value < janson_upper(t, W21).value

    def test_rejects_bad_t(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                janson_upper(bad, W21)


class TestLaplacePair:
    def test_frozen_values_at_t2(self):
        # closed_forms.py: laplace_upper_t2 / laplace_lower_t2 for weights (2,1)
        hi = laplace_upper(2.0, W21)
        lo = laplace_lower(2.0, W21)
        assert math.isclose(hi.value, 0.252953855321830831452, rel_tol=1e-14)
        assert math.isclose(lo.value, 0.000417604727319060125706, rel_tol=1e-14)

    def test_lower_needs_t_at_least_1(self):
        assert laplace_lower(0.5, W21).valid is False
        assert laplace_lower(1.0, W21).valid is True

    def test_upper_underflows_to_zero_cleanly(self):
        b = laplace_upper(1e6, W21)
        assert b.value == 0.0
        assert b.log_value < -745.0
        assert math.isfinite(b.log_value)


class TestGenericPair:
    def test_upper_frozen_values(self):
        # closed_forms.py: generic_upper_exp_t2, generic_upper_gamma2_w11_t2
        assert math.isclose(
            generic_upper(EXP, [2, 1], 2.0).value, 0.631107397312780310145, rel_tol=1e-14
        )
        assert math.isclose(
            generic_upper(Distribution.gamma(2.0), [1, 1], 2.0).value,
            0.293050222219746884699,
            rel_tol=1e-14,
        )

    def test_exponential_upper_is_t_times_janson(self):
        """Chernoff route drops Janson's 1/t prefactor and nothing else."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            w = list(np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)))
            t = float(rng.uniform(1.01, 12.0))
            diff = generic_upper(EXP, w, t).log_value - janson_upper(t, w).log_value
            assert abs(diff - math.log(t)) <= 1e-12

    def test_lower_is_p_times_r(self):
        p = 0.396473251928995714887  # P(S >= E S) for exp weights (2,1)
        b = generic_lower(EXP, [2, 1], 2.0, p)
        v = (2.0 - 1.0) * 1.5 * 1.0
        assert math.isclose(b.value, p * r_function(EXP, v), rel_tol=1e-14)

    def test_laplace_unsupported(self):
        with pytest.raises(UnsupportedLawError):
            generic_upper(LAP, [2, 1], 2.0)
        with pytest.raises(UnsupportedLawError):
            generic_lower(LAP, [2, 1], 2.0, 0.5)

    def test_lower_validates_p(self):
        for bad in (0.0, -0.2, 1.5, math.nan):
            with pytest.raises(InvalidInputError):
                generic_lower(EXP, [2, 1], 2.0, bad)

    def test_sandwich_orders_itself(self):
        d = Distribution.gamma(0.5)
        floor = pz_bound(3.0 * (1.0 + 2.0 / 0.5))
        for t in (1.5, 2.0, 4.0):
            lo = generic_lower(d, [3, 1], t, floor).value
            hi = generic_upper(d, [3, 1], t).value
            assert lo < hi



def _seeded_weights():
    """Weight vectors with n from 1 to 64, weights log-uniform on [1e-3, 1e3]."""
    rng = np.random.default_rng(23)
    for n in (1, 64, *rng.integers(1, 65, 10)):
        yield tuple(float(v) for v in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), int(n))))


PIN_T = (0.5, 1.0, 1.1, 2.0, 10.0, 1e3)


def _forms(values):
    """The same weights as a list, a tuple and a WeightVector built apart from the memo."""
    return [list(values), tuple(values), WeightVector(tuple(values))]


def _closed_log_values(w: WeightVector, t: float) -> dict:
    """Each family's log bound written out from l1, l2 and a_max."""
    a_exp = w.l1 / w.a_max
    a_sym = math.sqrt(2.0) * w.l2 / w.a_max
    return {
        janson_upper: -math.log(t) - a_exp * (t - 1.0 - math.log(t)),
        janson_lower: -math.log(2.0 * math.e * a_exp) - a_exp * (t - 1.0),
        laplace_upper: -0.5 * a_sym * a_sym * h_closed(2.0 * t / a_sym),
        laplace_lower: -math.log(57.0) - 0.5 * math.log(a_sym * t) - a_sym * t,
    }


class TestWeightSignatures:
    """The bounds take the weights in any form and give the same bits."""

    def test_family_bounds_match_the_closed_forms(self):
        for values in _seeded_weights():
            w = WeightVector(values)
            for t in PIN_T:
                for bound, log_value in _closed_log_values(w, t).items():
                    got = [bound(t, form) for form in _forms(values)]
                    assert got[0].log_value == log_value, (bound.__name__, values, t)
                    assert got[0] == got[1] == got[2], (bound.__name__, values, t)

    def test_sandwich_pair_is_the_family_pair(self):
        # law_bounds gives the law's kinds in the order the bounds goldens
        # print them, and sandwich_pair is its first two
        gamma = Distribution.gamma(0.5)
        floor = pz_bound(3.0 * (1.0 + 2.0 / 0.5))
        printed = {
            EXP: _golden_kinds("bounds_exponential.csv"),
            LAP: _golden_kinds("bounds_laplace.json"),
            gamma: _golden_kinds("bounds_gamma.csv"),
        }
        for d, kinds in printed.items():
            assert list(d.bounds) == kinds, d.label()
        for values in _seeded_weights():
            for t in PIN_T:
                want = {
                    EXP: (janson_lower(t, values), janson_upper(t, values)),
                    LAP: (laplace_lower(t, values), laplace_upper(t, values)),
                    gamma: (generic_lower(gamma, values, t, floor), generic_upper(gamma, values, t)),
                }
                for d, pair in want.items():
                    for form in _forms(values):
                        every = law_bounds(d, form, t, floor)
                        assert [b.kind.value for b in every] == printed[d], (d.label(), values, t)
                        assert tuple(every[:2]) == pair, (d.label(), values, t)
                        assert sandwich_pair(d, form, t, floor) == pair, (d.label(), values, t)

    def test_threshold_unit_is_the_mean_or_sigma(self):
        laws = (EXP, LAP, Distribution.gamma(0.5), Distribution.gamma(2.0))
        for values in _seeded_weights():
            w = WeightVector(values)
            for d in laws:
                want = d.mean * w.l1 if d.nonnegative else math.sqrt(d.variance) * w.l2
                assert [threshold_unit(d, form) for form in _forms(values)] == [want] * 3


class TestRFunction:
    def test_exponential_is_exact_shift(self):
        for v in (0.1, 1.0, 5.0):
            assert math.isclose(r_function(EXP, v), math.exp(-v), rel_tol=1e-15)

    def test_gamma_below_one_frozen(self):
        # closed_forms.py: r_gamma05_v1
        assert math.isclose(
            r_function(Distribution.gamma(0.5), 1.0), 0.103776874355148675835, rel_tol=1e-14
        )

    def test_gamma_at_least_one_matches_exponential_form(self):
        assert math.isclose(r_function(Distribution.gamma(2.0), 1.5), math.exp(-1.5), rel_tol=1e-15)

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            r_function(EXP, 0.0)
        with pytest.raises(UnsupportedLawError):
            r_function(LAP, 1.0)

    def test_closed_form_is_below_numeric_infimum(self):
        """r(v) must lower-bound inf_u P(X>u+v)/P(X>u) for every gamma shape."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            shape = float(10.0 ** rng.uniform(-0.8, 0.8))
            v = float(10.0 ** rng.uniform(-1.0, 0.8))
            d = Distribution.gamma(shape)
            closed = r_function(d, v)
            numeric = r_infimum_numeric(d, v)
            assert closed <= numeric * (1.0 + 1e-9)

    def test_numeric_infimum_exponential(self):
        assert r_infimum_numeric(EXP, 2.0) == math.exp(-2.0)


class TestPZBound:
    def test_frozen_values(self):
        # closed_forms.py: pz_c9, pz_c3, pz_gamma2 (c = 3(1+2/gamma) at gamma=2)
        assert math.isclose(pz_bound(9.0), 0.0440944736657833187431, rel_tol=1e-14)
        assert math.isclose(pz_bound(3.0), 0.132283420997349956229, rel_tol=1e-14)
        assert math.isclose(pz_bound(6.0), 0.0661417104986749781147, rel_tol=1e-14)

    def test_clamps_small_ratios_to_3(self):
        assert pz_bound(1.0) == pz_bound(3.0)

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            pz_bound(0.5)


class TestSInequality:
    def test_frozen_value(self):
        # closed_forms.py: s_ineq_t2_exp21 = p^2 with p = P(S >= E S) for (2,1)
        p = 0.396473251928995714887
        b = s_inequality_upper(EXP, 2.0, p)
        assert math.isclose(b.value, 0.157191039495152904356, rel_tol=1e-14)
        assert b.valid

    def test_validity_interval(self):
        assert not s_inequality_upper(EXP, 2.0, 1.0 / 30.0).valid
        assert not s_inequality_upper(EXP, 2.0, 0.97).valid
        assert not s_inequality_upper(EXP, 0.5, 0.5).valid
        assert s_inequality_upper(EXP, 1.0, 0.5).valid
        # valid only for laws with a log-concave survival function: shape >= 1
        assert not s_inequality_upper(Distribution.gamma(0.5), 30.0, 0.5).valid
        assert not s_inequality_upper(Distribution.gamma(0.999), 2.0, 0.5).valid
        assert s_inequality_upper(Distribution.gamma(1.0), 2.0, 0.5).valid
        assert s_inequality_upper(Distribution.gamma(3.0), 2.0, 0.5).valid
        with pytest.raises(UnsupportedLawError):
            s_inequality_upper(Distribution.laplace(), 2.0, 0.5)

    def test_rejects_degenerate_p(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InvalidInputError):
                s_inequality_upper(EXP, 2.0, bad)


class TestMomentBounds:
    def test_frozen_proof_mode(self):
        # closed_forms.py: moment_lower_p3_w21_proof / moment_upper_p3_w21
        lo, hi = moment_bounds(3.0, [2, 1])
        assert math.isclose(lo, 2.54189481168258291906, rel_tol=1e-14)
        assert math.isclose(hi, 55.8500277971609257095, rel_tol=1e-14)

    def test_constants(self):
        # closed_forms.py: moment_c_proof / moment_c_paper
        assert math.isclose(MOMENT_CONSTANT_PROOF, 0.257459647458943606013, rel_tol=1e-14)
        assert math.isclose(MOMENT_CONSTANT_PAPER, 0.699847881249118404767, rel_tol=1e-14)

    def test_paper_mode_counterexample_value(self):
        """The stated constant gives lower = 2.3894... at p=2, n=1, above the
        exact moment norm sqrt(2); closed_forms.py moment_lower_p2_n1_paper."""
        lo, _ = moment_bounds(2.0, [1.0], mode="paper")
        assert math.isclose(lo, 2.38943012775881533751, rel_tol=1e-14)
        assert lo > math.sqrt(2.0)

    def test_mode_and_order_validation(self):
        with pytest.raises(InvalidInputError):
            moment_bounds(1.5, [2, 1])
        with pytest.raises(InvalidInputError):
            moment_bounds(2.0, [2, 1], mode="exact")

    def test_upper_is_4sqrt2_times_base(self):
        p = 6.0
        w = [3.0, 1.0, 0.5]
        _, hi = moment_bounds(p, w)
        base = p * 3.0 + math.sqrt(p) * math.sqrt(9.0 + 1.0 + 0.25)
        assert math.isclose(hi, 4.0 * math.sqrt(2.0) * base, rel_tol=1e-14)
