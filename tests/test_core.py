"""Domain types: laws, weight vectors, derived statistics, serialization."""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from verifiers import json_dumps_by_tokens

import exptails.core as core
from exptails.core import (
    Distribution,
    InvalidInputError,
    LawKind,
    WeightVector,
    as_weights,
    format_float,
    json_dumps,
    parse_weights,
    weight_stats,
)


class TestDistribution:
    def test_constructors(self):
        assert Distribution.exponential().kind is LawKind.EXPONENTIAL
        assert Distribution.laplace().kind is LawKind.LAPLACE
        assert Distribution.gamma(0.5).shape == 0.5

    def test_equal_laws_hash_alike(self):
        # the hash is taken once, at construction, from the validated fields
        assert hash(Distribution("gamma", 2)) == hash(Distribution.gamma(2.0)) == hash((LawKind.GAMMA, 2.0))
        laws = {Distribution.exponential(), Distribution.gamma(1.0), Distribution.laplace(), Distribution.gamma(1)}
        assert len(laws) == 3

    def test_moments(self):
        assert Distribution.exponential().mean == 1.0
        assert Distribution.exponential().variance == 1.0
        assert Distribution.gamma(2.5).mean == 2.5
        assert Distribution.gamma(2.5).variance == 2.5
        assert Distribution.laplace().mean == 0.0
        assert Distribution.laplace().variance == 2.0

    def test_nonnegative_flag(self):
        assert Distribution.exponential().nonnegative
        assert Distribution.gamma(1.5).nonnegative
        assert not Distribution.laplace().nonnegative

    def test_signed_scales(self):
        w = [2.0, 0.5]
        assert Distribution.exponential().scales(w).tolist() == w
        assert Distribution.gamma(0.5).scales(w).tolist() == w
        assert Distribution.laplace().scales(w).tolist() == [2.0, 0.5, -2.0, -0.5]

    def test_labels(self):
        assert Distribution.exponential().label() == "exponential"
        assert Distribution.laplace().label() == "laplace"
        assert Distribution.gamma(0.5).label() == "gamma(0.5)"

    def test_invalid_shape(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                Distribution.gamma(bad)

    def test_shape_fixed_for_non_gamma(self):
        with pytest.raises(InvalidInputError):
            Distribution(kind=LawKind.EXPONENTIAL, shape=2.0)
        with pytest.raises(InvalidInputError):
            Distribution(kind=LawKind.LAPLACE, shape=0.5)


class TestWeightVector:
    def test_norms(self):
        w = WeightVector((2.0, 1.0))
        assert w.a_max == 2.0
        assert w.l1 == 3.0
        assert w.l2 == math.sqrt(5.0)
        assert len(w) == 2
        assert list(w) == [2.0, 1.0]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            WeightVector(())
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                WeightVector((1.0, bad))

    def test_validation_names_the_first_bad_weight(self):
        for values, bad in (((1.0, -2.0, math.nan), "-2.0"), ((math.inf, 0.0), "inf"),
                            ((3, 1, 0), "0.0")):
            with pytest.raises(InvalidInputError, match=f"got {bad}$"):
                WeightVector(values)

    def test_statistics_are_computed_once(self):
        w = WeightVector((3.0, 1.5, 0.25))
        stats = (w.a_max, w.unit, w.l1, w.l2)
        assert stats == (3.0, 2.0, 4.75, math.sqrt(math.fsum((9.0, 2.25, 0.0625))))
        assert all(name in vars(w) for name in ("a_max", "unit", "l1", "l2"))
        assert (w.a_max, w.unit, w.l1, w.l2) == stats
        # cached statistics are not fields: equality and hashing see the weights only
        assert w == WeightVector((3.0, 1.5, 0.25)) and hash(w) == hash(WeightVector(w.values))

    def test_sum_past_float_range_is_rejected(self):
        for values in ((1e308, 1e308), (sys.float_info.max, 1e300), (1e308,) * 3):
            with pytest.raises(InvalidInputError, match="^weights must have a finite sum"):
                WeightVector(values)
        assert WeightVector((sys.float_info.max, 1e291)).l1 == sys.float_info.max

    def test_hash_is_taken_once(self):
        w = WeightVector((3.0, 1.5, 0.25))
        assert hash(w) == hash((3.0, 1.5, 0.25)) == hash(WeightVector((3, 1.5, 0.25)))
        assert repr(w) == "WeightVector(values=(3.0, 1.5, 0.25))"
        assert w == WeightVector((3.0, 1.5, 0.25)) and w != WeightVector((3.0, 1.5))
        # later hashes read the stored one: the tuple is not hashed again
        object.__setattr__(w, "values", [3.0, 1.5, 0.25])  # an unhashable stand-in
        assert hash(w) == hash((3.0, 1.5, 0.25))

    def test_as_weights_passthrough(self):
        w = WeightVector((1.0, 2.0))
        assert as_weights(w) is w
        assert as_weights([1, 2]).values == (1.0, 2.0)

    def test_l2_keeps_its_bits_at_any_scale(self):
        # squares taken in units of a power of two next to a_max are exact
        # rescalings, so neither underflow nor overflow reaches the norm
        rng = np.random.default_rng(3)
        for _ in range(200):
            values = np.exp(rng.uniform(-3.0, 3.0, int(rng.integers(1, 9)))).tolist()
            l2 = math.sqrt(math.fsum(v * v for v in values))
            assert WeightVector(tuple(values)).l2 == l2
            for k in (-700, 700):
                scaled = WeightVector(tuple(math.ldexp(v, k) for v in values))
                assert scaled.l2 == math.ldexp(l2, k)

    def test_l1_uses_compensated_summation(self):
        # fsum keeps the l1 norm exact where naive accumulation drifts
        w = as_weights([0.1] * 1000)
        assert w.l1 == 100.0


class TestWeightMemo:
    """as_weights validates each weight tuple once; every answer is as from a fresh WeightVector."""

    @pytest.fixture(autouse=True)
    def cold(self):
        core._weights.cache_clear()
        yield
        core._weights.cache_clear()

    def test_equal_entries_in_any_form_are_one_vector(self):
        forms = ([2.0, 1.0, 4.0], (2.0, 1.0, 4.0), [2, 1, 4], list(np.array([2.0, 1.0, 4.0])),
                 np.array([2, 1, 4]))
        vectors = [as_weights(w) for w in forms]
        assert all(v is vectors[0] for v in vectors)
        assert vectors[0].values == (2.0, 1.0, 4.0)
        assert all(type(v) is float for v in vectors[0].values)
        assert core._weights.cache_info().misses == 1

    def test_mutating_the_list_afterwards_changes_nothing(self):
        w = [2.0, 1.0]
        v = as_weights(w)
        l1 = v.l1
        w[0] = 5.0
        assert (v.values, v.l1) == ((2.0, 1.0), l1)
        assert as_weights(w).values == (5.0, 1.0)
        assert as_weights([2.0, 1.0]) is v

    @pytest.mark.parametrize(
        "w, message",
        [
            ([1.0, math.nan], "weights must be positive and finite, got nan"),
            ([math.inf], "weights must be positive and finite, got inf"),
            ([2.0, 0.0, -1.0], "weights must be positive and finite, got 0.0"),
            ([1.0, -1.0], "weights must be positive and finite, got -1.0"),
            ([1.0, "a"], "weights must be numbers: could not convert string to float: 'a'"),
            ([1.0, None], "weights must be numbers: float() argument must be a string or a real number,"
                          " not 'NoneType'"),
            ([[1.0]], "weights must be numbers: float() argument must be a string or a real number,"
                      " not 'list'"),
            ([1.0, {}], "weights must be numbers: float() argument must be a string or a real number,"
                        " not 'dict'"),
            ([], "weight vector must not be empty"),
        ],
    )
    def test_a_rejection_raises_the_same_message_every_time(self, w, message):
        for _ in range(3):
            with pytest.raises(InvalidInputError) as info:
                as_weights(w)
            assert str(info.value) == message
        assert core._weights.cache_info().currsize == 0

    def test_more_vectors_than_the_bound(self):
        vectors = [[1.0 + i, 0.5, 0.25 * (i + 1)] for i in range(40)]
        first = [as_weights(w) for w in vectors]
        assert core._weights.cache_info().currsize == 16
        for w, v in zip(reversed(vectors), reversed(first)):
            again = as_weights(w)
            assert again == v == WeightVector(tuple(w))
            assert (again.l1, again.l2, again.a_max) == (v.l1, v.l2, v.a_max)


class TestParseWeights:
    def test_plain_and_json_forms(self):
        assert parse_weights("2,1").values == (2.0, 1.0)
        assert parse_weights(" 2 , 1 ").values == (2.0, 1.0)
        assert parse_weights("[2, 1]").values == (2.0, 1.0)

    def test_rejects_garbage(self):
        for bad in ("", "a,b", "[1, \"x\"]", "{\"a\": 1}", ",,", "[true, 2]"):
            with pytest.raises(InvalidInputError):
                parse_weights(bad)


class TestWeightStats:
    def test_exponential_stats(self):
        s = weight_stats([2, 1], Distribution.exponential())
        # the vector's own norms live on WeightVector, not here
        assert [f.name for f in dataclasses.fields(s)] == ["sigma", "alpha_exp", "alpha_sym", "mean_s"]
        assert s.alpha_exp == 1.5
        assert s.mean_s == 3.0
        assert math.isclose(s.sigma, math.sqrt(5.0), rel_tol=1e-15)

    def test_laplace_stats(self):
        s = weight_stats([2, 1], Distribution.laplace())
        # sigma^2 = Var(S) = 2 * (4 + 1) = 10
        assert math.isclose(s.sigma, math.sqrt(10.0), rel_tol=1e-15)
        assert math.isclose(s.alpha_sym, math.sqrt(10.0) / 2.0, rel_tol=1e-15)
        assert s.mean_s == 0.0

    def test_gamma_mean_scales_with_shape(self):
        s = weight_stats([2, 1], Distribution.gamma(2.0))
        assert s.mean_s == 6.0


class TestSerialization:
    def test_format_float_round_trip(self):
        rng = np.random.default_rng(42)
        values = list(rng.uniform(-1e6, 1e6, 200)) + list(10.0 ** rng.uniform(-300, 300, 200))
        for x in values:
            assert float(format_float(float(x))) == float(x)

    def test_format_float_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                format_float(bad)

    def test_json_dumps_parses_back(self):
        payload = {"a": 0.1, "b": [1, True, None, "x\"y"], "c": {"nested": 2.5e-300}}
        for indent in (0, 2):
            parsed = json.loads(json_dumps(payload, indent=indent))
            assert parsed["a"] == 0.1
            assert parsed["b"] == [1, True, None, 'x"y']
            assert parsed["c"]["nested"] == 2.5e-300

    def test_json_dumps_is_deterministic(self):
        payload = {"rows": [{"v": 1.0 / 3.0} for _ in range(3)]}
        assert json_dumps(payload) == json_dumps(payload)

    def test_json_dumps_keeps_the_token_walk_bytes(self):
        golden = Path(__file__).parent / "golden" / "verify_exponential_2x2.json"
        verify_payload = json.loads(golden.read_text(encoding="utf-8"))
        payloads = [
            verify_payload,
            {"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}], "e": ()},
            {"quo\"te": 1, "back\\slash": [0.5], "line\nbreak": "tab\t", "\u00e9\u2028": None,
             "\x00": {"\x1f": -0.0}, 7: True},
            [],
            {},
            "plain",
            3.25,
        ]
        for payload in payloads:
            for indent in (0, 2):
                assert json_dumps(payload, indent) == json_dumps_by_tokens(payload, indent)
        assert json_dumps(verify_payload, indent=2) + "\n" == golden.read_text(encoding="utf-8")

    def test_json_dumps_rejects_unknown_types(self):
        with pytest.raises(InvalidInputError):
            json_dumps({"a": {1, 2}})
