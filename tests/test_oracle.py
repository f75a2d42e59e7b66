"""Exact-tail oracles: partial-fraction mixtures and CF inversion."""

import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaincc
from verifiers import (
    build_mixture_by_slices,
    mixture_parity,
    mixture_tail_sum,
    mp_partial_fraction_tail,
    seeded_weight_vectors,
)

import exptails.oracle as oracle
from exptails.core import Distribution, InvalidInputError, NumericFailureError, WeightVector, as_weights
from exptails.legendre import NARROW, chernoff_tilt
from exptails.oracle import (
    ExpMixture,
    MixtureTerm,
    MixtureUnavailableError,
    cf_tail_inversion,
    exact_tail,
    hypoexp_mixture,
    laplace_abs_norm,
    laplace_mixture,
    p_ge_mean,
)

EXP = Distribution.exponential()
LAP = Distribution.laplace()
GAMMA2 = Distribution.gamma(2.0)
GAMMA05 = Distribution.gamma(0.5)
GAMMA_TINY = Distribution.gamma(1e-3)

SIGMA21 = math.sqrt(10.0)  # std of 2 X_1 + X_2 for standard Laplace X_i

# Scales 3e-5 apart: the partial-fraction coefficients (~6e12) fail the
# trust gates.
ILL_CONDITIONED = (1.0, 1.0 + 3e-5, 1.0 + 6e-5, 1.0 + 9e-5)

# Frozen reference values from tests/oracles/closed_forms.py (mpmath, 50 dps).
HYPOEXP21_AT_2 = 0.600423599106271951297
HYPOEXP21_AT_3 = 0.396473251928995714887
HYPOEXP21_AT_6 = 0.0970953845590615275356
ERLANG2_AT_2 = 0.406005849709838075682
HYPOEXP211_AT_4 = 0.41313166072531150552
LAPLACE21_AT_1 = 0.343040532946515228803
LAPLACE21_AT_2SIGMA = 0.0279208526098184112722
LAPLACE21_AT_15SIGMA = 0.0607626427942472754055
LAPLACE11_AT_3 = 0.0622338354598299287242
LAPLACE111_AT_3 = 0.0995741367357278859587
LAPLACE211_AT_15SIGMA = 0.0615965391582866956407
GAMMA2_W21_AT_12 = 0.0496794951433337480268
GAMMA2_W21_AT_6 = 0.425562820886241486488
GAMMA2_W11_AT_4 = 0.433470120366708933618
GAMMA05_W3_AT_6 = 0.0455002638963584144006
LAPLACE21_ABSMOMENT_P3 = 62.0
LAPLACE21_ABSMOMENT_P25 = 23.9584990894940575071
LAPLACE21_ABSMOMENT_P2 = 10.0
HYPOEXP_ILL_AT_5 = 0.265057499423848858718
LAPLACE_ILL_AT_3 = 0.132256772130214267814
HYPOEXP_NEAR_PAIR = {200.0: 2.78384741684854104754e-85, 600.0: 1.5967109826102325161e-258}
LAPLACE_NEAR_PAIR = {200.0: 6.99424365526348700168e-86, 600.0: 3.99841938845019048711e-259}


def random_weights(rng, max_n=8):
    n = int(rng.integers(1, max_n + 1))
    return np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)).tolist()


def two_or_wide(n):
    """[2, 1], or n weights log-uniform on [0.5, 2] seeded by n."""
    if n == 2:
        return [2.0, 1.0]
    return np.exp(np.random.default_rng(n).uniform(math.log(0.5), math.log(2.0), n)).tolist()


class TestHypoexpMixture:
    def test_distinct_scales_frozen(self):
        mix = hypoexp_mixture([2.0, 1.0])
        assert mix.top == 1.0
        assert math.isclose(mix.tail(2.0), HYPOEXP21_AT_2, rel_tol=1e-12)
        assert math.isclose(mix.tail(3.0), HYPOEXP21_AT_3, rel_tol=1e-12)
        assert math.isclose(mix.tail(6.0), HYPOEXP21_AT_6, rel_tol=1e-12)
        # classic residues: 2 e^{-t/2} - e^{-t}
        coefs = sorted(t.coef for t in mix.terms)
        assert coefs == [-1.0, 2.0]

    def test_repeated_scale_is_erlang(self):
        # a repeated pole has no simple partial fractions: the contour takes
        # the equal weights as one gamma(2) column
        value, source = exact_tail(EXP, [1.0, 1.0], 2.0)
        assert source == "cf_inversion"
        assert math.isclose(value, ERLANG2_AT_2, rel_tol=1e-12)

    def test_confluent_block_frozen(self):
        # one simple pole at 2 plus a double pole at 1
        with pytest.raises(MixtureUnavailableError, match="pole 1 of 3 coincides with pole 2"):
            hypoexp_mixture([2.0, 1.0, 1.0])
        value, source = exact_tail(EXP, [2.0, 1.0, 1.0], 4.0)
        assert source == "cf_inversion"
        assert math.isclose(value, HYPOEXP211_AT_4, rel_tol=1e-11)

    def test_nearly_equal_scales_merge(self):
        # the tail of two scales 1e-12 apart is the Erlang(2) tail to 1e-12
        value, source = exact_tail(EXP, [1.0, 1.0 + 1e-12], 2.0)
        assert source == "cf_inversion"
        assert math.isclose(value, ERLANG2_AT_2, rel_tol=1e-9)

    def test_small_gap_merges_instead_of_blowing_up(self):
        # a 1e-6 relative gap costs the coefficients ~eps/gap of accuracy;
        # whichever route answers, the tail stays near the partial fractions
        w = (1.0, 1.0 + 1e-6, 2.5)
        t = 0.8 * sum(w)
        value, _ = exact_tail(EXP, w, t)
        assert abs(value - mp_partial_fraction_tail(w, t, False)) <= 1e-8

    def test_single_weight_residue(self):
        mix = hypoexp_mixture([2.0])
        assert len(mix.terms) == 1
        assert mix.terms[0].coef == 1.0
        assert math.isclose(mix.tail(5.0), math.exp(-2.5), rel_tol=1e-15)

    def test_random_instances_behave_like_tails(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            w = random_weights(rng)
            mix = hypoexp_mixture(w)
            assert math.isclose(math.fsum(c for c, _ in mix.terms), 1.0, abs_tol=1e-8)
            assert exact_tail(EXP, w, 0.0) == (1.0, "domain")
            assert exact_tail(EXP, w, -1.0) == (1.0, "domain")
            for t in (0.0, -1.0, math.inf):
                with pytest.raises(InvalidInputError, match="positive"):
                    mix.tail(t)
            grid = np.linspace(0.0, 4.0 * sum(w), 40)
            vals = [exact_tail(EXP, w, t)[0] for t in grid]
            assert all(0.0 <= v <= 1.0 for v in vals)
            for lo, hi in zip(vals[1:], vals):
                assert lo <= hi + 1e-12

    def test_too_many_distinct_scales(self):
        w = [1.0 + 0.01 * i for i in range(65)]
        with pytest.raises(MixtureUnavailableError, match="distinct scales"):
            hypoexp_mixture(w)

    def test_ill_conditioned_coefficients(self):
        with pytest.raises(MixtureUnavailableError, match="too large"):
            hypoexp_mixture(ILL_CONDITIONED)


class TestMixtureParity:
    """The closed-form product per pole against a 50-digit product."""

    def test_coefficients_and_gates_match_mpmath(self):
        vectors = seeded_weight_vectors(1, 300, 24)

        def build(w, two_sided):
            return (laplace_mixture if two_sided else hypoexp_mixture)(w)

        accepted, worst, rejected = mixture_parity(build, vectors)
        assert accepted >= 250
        assert worst <= 2.0  # ulp per weight
        # every vector with equal weights is rejected; the others only by the
        # trust gates, and the contour answers for them
        repeated = sum(2 for w in vectors if len(set(w)) < len(w))
        assert repeated >= 30
        assert sum(len(set(w)) < len(w) for w, _, _ in rejected) == repeated
        for w, _, message in rejected:
            if len(set(w)) == len(w):
                assert re.search("too large|do not sum to 1", message), message

    def test_builder_keeps_the_reference_bits(self):
        # the running product per pole makes the IEEE operations of
        # 1/math.prod over the sliced list: same coefficients, same refusals
        rng = np.random.default_rng(24)
        vectors = [np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)).tolist() for n in range(1, 65)]
        # neighbours a factor 2 to 4 apart keep sum |coef| small: built at every n
        vectors += [np.exp2(np.cumsum(rng.uniform(1.0, 2.0, n)) - n).tolist() for n in range(1, 65)]
        for _ in range(60):
            # near-equal: neighbours 0.3% to 30% apart
            n = int(rng.integers(2, 13))
            gaps = np.exp(rng.uniform(math.log(3e-3), math.log(0.3), n - 1))
            vectors.append((rng.uniform(0.5, 2.0) * np.cumprod(np.r_[1.0, 1.0 + gaps])).tolist())
        for w in vectors[1:30]:
            vectors.append(w + [w[int(rng.integers(len(w)))]])  # an equal pair
        for _ in range(60):
            vectors.append(np.exp(rng.uniform(math.log(1e-300), math.log(1e300), int(rng.integers(1, 9)))).tolist())
        vectors += [[1.0 + k * 1e-7 for k in range(64)], [1.0] * 65]
        kinds = ("coincides", "leaves float range", "too large", "do not sum to 1", "exceed", "built")
        seen, longest = set(), 0
        for w in vectors:
            for two_sided in (False, True):
                got = oracle._build_mixture(tuple(w), two_sided)
                want = build_mixture_by_slices(w, two_sided)
                if isinstance(want, str):
                    assert got == want, (w, two_sided)
                    seen.update(kind for kind in kinds if kind in want)
                else:
                    assert [(c.hex(), b) for c, b in got.terms] == [(c.hex(), b) for c, b in want], w
                    assert got.top == (0.5 if two_sided else 1.0)
                    seen.add("built")
                    longest = max(longest, len(w))
        assert seen == set(kinds) and longest == 64

    def test_doomed_builds_raise_and_invert(self):
        rng = np.random.default_rng(64)
        wide = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 64)).tolist()
        for w in (ILL_CONDITIONED, wide):
            for d, build, side in ((EXP, hypoexp_mixture, False), (LAP, laplace_mixture, True)):
                with pytest.raises(MixtureUnavailableError):
                    build(w)
                sigma = math.sqrt(d.variance * math.fsum(a * a for a in w))
                t = d.mean * math.fsum(w) + 2.0 * sigma
                value, source = exact_tail(d, w, t)
                assert source == "cf_inversion"
                want = mp_partial_fraction_tail(w, t, side)
                assert abs(value - want) <= 1e-9 * want

    def test_cap_stops_at_the_first_pole_past_it(self):
        rng = np.random.default_rng(64)
        w = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 64)).tolist()
        with pytest.raises(MixtureUnavailableError, match=r"after (\d+) of 64 poles") as info:
            hypoexp_mixture(w)
        assert int(re.search(r"after (\d+) of", str(info.value)).group(1)) < 64


class ColdRecords:
    """Tests of the one record per (law, weights); each starts and ends with none kept."""

    @pytest.fixture(autouse=True)
    def cold(self):
        oracle._sum.cache_clear()
        yield
        oracle._sum.cache_clear()


class TestMixtureMemo(ColdRecords):
    """The record's mixture: built once per (law, weights), answers as from a fresh one."""

    def test_one_weight_vector_in_any_form_is_one_mixture(self):
        forms = ([2.0, 1.0, 0.5], (2.0, 1.0, 0.5), [2, 1, 0.5], WeightVector((2.0, 1.0, 0.5)))
        for build in (hypoexp_mixture, laplace_mixture):
            mixtures = [build(w) for w in forms]
            assert all(mix is mixtures[0] for mix in mixtures)
            assert oracle._sum.cache_info().misses == 1
            oracle._sum.cache_clear()
            assert build(forms[0]) == mixtures[0]
            oracle._sum.cache_clear()

    @pytest.mark.parametrize(
        "w",
        [
            [1.0 + 0.01 * i for i in range(40)],  # 1%-spaced: past the coefficient cap
            [2.0, 1.0, 1.0],  # a repeated pole
            [1.0 + k * 1e-7 for k in range(64)],  # a product past float range
            [1.0 + 0.01 * i for i in range(65)],  # past the scale cap
        ],
    )
    def test_a_rejection_raises_the_same_message_every_time(self, w):
        for build in (hypoexp_mixture, laplace_mixture):
            messages = []
            for _ in range(3):
                with pytest.raises(MixtureUnavailableError) as info:
                    build(w)
                messages.append(str(info.value))
            assert oracle._sum.cache_info().misses == 1
            oracle._sum.cache_clear()
            with pytest.raises(MixtureUnavailableError) as info:
                build(w)
            assert messages == [str(info.value)] * 3
            assert ("distinct scales" in messages[0]) == (len(w) > 64)
            oracle._sum.cache_clear()

    def test_the_laws_do_not_collide(self):
        w = [2.0, 1.0, 0.5]
        for _ in range(2):
            hypo, lap = hypoexp_mixture(w), laplace_mixture(w)
            assert (hypo.top, lap.top) == (1.0, 0.5)
            assert hypo.terms[0].coef == 1.0 / ((1.0 - 2.0) * (1.0 - 4.0))
            assert lap.terms[0].coef == 1.0 / ((1.0 - 4.0) * (1.0 - 16.0))
            assert exact_tail(EXP, w, 3.0)[0] != exact_tail(LAP, w, 3.0)[0]
        assert oracle._sum(Distribution.gamma(1.0), as_weights(w)).mixture is None
        assert oracle._sum.cache_info().misses == 3

    @pytest.mark.parametrize("d", [EXP, LAP])
    def test_a_threshold_grid_keeps_its_bits(self, d):
        rng = np.random.default_rng(16)
        for w in [[2.0, 1.0], ILL_CONDITIONED] + [random_weights(rng) for _ in range(10)]:
            grid = [-3.0, 0.0, 0.1, 1.0, 2.5, 10.0, 80.0, 900.0]
            warm = [exact_tail(d, w, t) for t in grid]
            cold = []
            for t in grid:
                oracle._sum.cache_clear()
                cold.append(exact_tail(d, w, t))
            assert [(v.hex(), s) for v, s in warm] == [(v.hex(), s) for v, s in cold]

    def test_mixture_answers_never_build_the_contour(self):
        w = [2.0, 1.0, 0.5]
        for d in (EXP, LAP):
            assert all(exact_tail(d, w, t)[1] == "mixture" for t in (0.5, 3.0, 40.0))
            assert exact_tail(d, w, -2.0)[1] == ("domain" if d is EXP else "mixture")
            assert p_ge_mean(d, w) > 0.0
            prepared = oracle._sum(d, as_weights(w))
            assert isinstance(prepared.mixture, ExpMixture)
            # the contour part, its list form included, is never built
            assert not {"columns", "holds"} & set(vars(prepared))

    def test_each_side_holds_when_asked(self):
        w = as_weights(ILL_CONDITIONED)  # the mixture is refused
        prepared = oracle._sum(EXP, w)
        mean = EXP.mean * w.l1
        for t in (1.1 * mean, 2.0 * mean, 9.0 * mean):
            assert exact_tail(EXP, w, t)[1] == "cf_inversion"
        assert vars(prepared)["holds"].keys() == {True}
        exact_tail(EXP, w, 0.8 * mean)
        assert vars(prepared)["holds"].keys() == {True, False}

    def test_more_instances_than_the_bound(self):
        rng = np.random.default_rng(17)
        vectors = [random_weights(rng) for _ in range(40)]
        first = [(exact_tail(EXP, w, 5.0), exact_tail(LAP, w, 5.0)) for w in vectors]
        assert oracle._sum.cache_info().currsize == 16
        for w, answers in zip(reversed(vectors), reversed(first)):
            assert (exact_tail(EXP, w, 5.0), exact_tail(LAP, w, 5.0)) == answers
        for w, answers in zip(vectors, first):
            for (value, source), two_sided in zip(answers, (False, True)):
                if source == "mixture":
                    want = mp_partial_fraction_tail(w, 5.0, two_sided)
                    assert abs(value - want) <= 1e-10 * want


class TestContourMemo(ColdRecords):
    """The record's contour part: prepared once per (law, weights), answers as from a fresh one."""

    @staticmethod
    def grid(d, w):
        # below the mean (where the sum is nonnegative), near it and deep above it
        w = as_weights(w)
        mean, sigma = d.mean * w.l1, math.sqrt(d.variance) * w.l2
        return [mean + z * sigma for z in (-0.9, -0.2, 0.05, 0.4, 2.0, 7.0, 40.0) if mean + z * sigma > 0.0]

    @pytest.mark.parametrize("d", [EXP, LAP, GAMMA05, GAMMA_TINY], ids=lambda d: d.label())
    @pytest.mark.parametrize(
        "w",
        [
            [1.0] * 5,  # one column
            [2.0, 1.0, 1.0, 0.5, 0.5, 0.5],  # equal scales among others
            list(ILL_CONDITIONED),  # the mixture is refused
            [1.0 + 0.01 * i for i in range(80)],  # past the mixture's scale cap
        ],
        ids=["one-column", "equal-scales", "ill-conditioned", "n80"],
    )
    def test_a_threshold_grid_keeps_its_bits(self, d, w):
        grid = self.grid(d, w)
        warm = [cf_tail_inversion(d, w, t) for t in grid] + [p_ge_mean(d, w)]
        assert oracle._sum.cache_info().misses == 1
        cold = []
        for t in grid:
            oracle._sum.cache_clear()
            cold.append(cf_tail_inversion(d, w, t))
        oracle._sum.cache_clear()
        cold.append(p_ge_mean(d, w))
        assert [v.hex() for v in warm] == [v.hex() for v in cold]
        routed = [exact_tail(d, w, t) for t in grid]
        assert all(v == c for (v, s), c in zip(routed, cold) if s == "cf_inversion")

    @pytest.mark.parametrize("w", [[2.0, 1.0], [1.0] * 4, [0.3, 0.7, 0.7, 1.9]])
    def test_absolute_norms_keep_their_bits(self, w):
        orders = (0.5, 2.0, 3.0, 30.0, 3e6)
        warm = [laplace_abs_norm(w, p) for p in orders]
        cold = []
        for p in orders:
            oracle._sum.cache_clear()
            cold.append(laplace_abs_norm(w, p))
        assert [v.hex() for v in warm] == [v.hex() for v in cold]
        # the norms, the tails and the mixture share the Laplace record of w
        oracle._sum.cache_clear()
        laplace_abs_norm(w, 3.0)
        cf_tail_inversion(LAP, w, 1.0)
        exact_tail(LAP, w, 1.0)
        assert oracle._sum.cache_info().misses == 1

    def test_the_arrays_are_read_only(self):
        columns = oracle._sum(GAMMA05, as_weights([2.0, 1.0, 1.0])).columns
        assert columns.u == 2.0 and columns.k == ([1.0, 0.5], [0.5, 1.0]) and columns.pole == 1.0
        assert columns.coef_b.tolist() == [1.0, 0.5] and columns.count.tolist() == [1.0, 2.0]
        wide = oracle._sum(GAMMA05, as_weights([1.0 + 0.01 * i for i in range(40)] + [1.0])).columns
        assert [type(v) for v in wide.k] == [np.ndarray] * 2 and len(wide.k[0]) == 40
        for arr in (columns.coef_b, columns.count, *wide.k, wide.count):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 3.0
        assert columns.coef_b.tolist() == [1.0, 0.5]

    def test_the_laws_do_not_collide(self):
        w = as_weights([2.0, 1.0, 1.0])
        exp, gamma, lap = (oracle._sum(d, w).columns for d in (EXP, Distribution.gamma(1.0), LAP))
        assert exp.k[1] == gamma.k[1] == [1.0, 2.0] and not exp.mirrored
        # the Laplace integrand takes each pair +-a as one column
        assert lap.k[0] == [1.0, 0.5, -1.0, -0.5] and lap.mirrored
        assert lap.coef_b.tolist() == [1.0, 0.5] and lap.count.tolist() == [1.0, 2.0]
        assert oracle._sum.cache_info().misses == 3

    @pytest.mark.parametrize("n", [1, NARROW // 2, NARROW, NARROW + 1, 40])
    def test_narrow_sums_take_lists(self, n):
        # up to legendre.NARROW columns the cumulants take lists of floats
        # (TestListForm: the bits of the arrays); a Laplace sum has 2n columns
        w = as_weights([0.5 + 0.1 * i for i in range(n)])
        for d, width in ((EXP, n), (LAP, 2 * n)):
            k = oracle._sum(d, w).columns.k
            assert len(k[0]) == len(k[1]) == width
            assert all(type(v) is (list if width <= NARROW else np.ndarray) for v in k)

    def test_more_instances_than_the_bound(self):
        # equal weights make one gamma column, whose tail is a regularized
        # incomplete gamma function
        rng = np.random.default_rng(19)
        cases = []
        for _ in range(40):
            n, a, x = int(rng.integers(1, 9)), float(np.exp(rng.uniform(-3.0, 3.0))), float(rng.uniform(0.5, 6.0))
            cases.append(([a] * n, x * 0.5 * n * a, gammaincc(0.5 * n, x * 0.5 * n)))
        first = [cf_tail_inversion(GAMMA05, w, t) for w, t, _ in cases]
        assert oracle._sum.cache_info().currsize == 16
        for (w, t, ref), value in zip(reversed(cases), reversed(first)):
            assert cf_tail_inversion(GAMMA05, w, t) == value
            assert abs(value - ref) <= 1e-10 * ref, (w, t, value, ref)


class TestLaplaceMixture:
    def test_distinct_scales_frozen(self):
        mix = laplace_mixture([2.0, 1.0])
        assert mix.top == 0.5
        assert math.isclose(mix.tail(1.0), LAPLACE21_AT_1, rel_tol=1e-12)
        assert math.isclose(mix.tail(2.0 * SIGMA21), LAPLACE21_AT_2SIGMA, rel_tol=1e-12)
        assert math.isclose(mix.tail(1.5 * SIGMA21), LAPLACE21_AT_15SIGMA, rel_tol=1e-12)

    def test_repeated_scales_frozen(self):
        for w, want in (([1.0, 1.0], LAPLACE11_AT_3), ([1.0, 1.0, 1.0], LAPLACE111_AT_3)):
            value, source = exact_tail(LAP, w, 3.0)
            assert source == "cf_inversion"
            assert math.isclose(value, want, rel_tol=1e-12)

    def test_confluent_block_frozen(self):
        with pytest.raises(MixtureUnavailableError, match="coincides"):
            laplace_mixture([2.0, 1.0, 1.0])
        value, source = exact_tail(LAP, [2.0, 1.0, 1.0], 1.5 * math.sqrt(12.0))
        assert source == "cf_inversion"
        assert math.isclose(value, LAPLACE211_AT_15SIGMA, rel_tol=1e-10)

    def test_symmetry_and_center(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = random_weights(rng)
            mix = laplace_mixture(w)
            assert exact_tail(LAP, w, 0.0) == (0.5, "domain")
            for t in (0.3, 1.7, 5.0):
                assert math.isclose(exact_tail(LAP, w, -t)[0], 1.0 - mix.tail(t), rel_tol=1e-12)

    def test_single_weight_residue(self):
        mix = laplace_mixture([2.0])
        assert math.isclose(mix.tail(3.0), 0.5 * math.exp(-1.5), rel_tol=1e-15)

    def test_ill_conditioned_coefficients(self):
        with pytest.raises(MixtureUnavailableError):
            laplace_mixture(ILL_CONDITIONED)


class TestCfInversion:
    """The inversion path must reproduce the closed forms it replaces."""

    def test_moderate_thresholds_absolute(self):
        # near the mean, absolute tolerance
        assert abs(cf_tail_inversion(EXP, [2.0, 1.0], 3.0) - HYPOEXP21_AT_3) <= 2e-9
        assert abs(cf_tail_inversion(LAP, [2.0, 1.0], 1.0) - LAPLACE21_AT_1) <= 2e-9
        assert abs(cf_tail_inversion(GAMMA2, [1.0, 1.0], 4.0) - GAMMA2_W11_AT_4) <= 2e-9
        assert abs(cf_tail_inversion(GAMMA2, [2.0, 1.0], 6.0) - GAMMA2_W21_AT_6) <= 2e-9

    def test_deep_thresholds_relative(self):
        # deep thresholds, relative tolerance
        pairs = [
            (EXP, [2.0, 1.0], 6.0, HYPOEXP21_AT_6),
            (LAP, [2.0, 1.0], 2.0 * SIGMA21, LAPLACE21_AT_2SIGMA),
            (LAP, [2.0, 1.0], 1.5 * SIGMA21, LAPLACE21_AT_15SIGMA),
            (GAMMA2, [2.0, 1.0], 12.0, GAMMA2_W21_AT_12),
            (GAMMA05, [3.0], 6.0, GAMMA05_W3_AT_6),
        ]
        for d, w, t, want in pairs:
            got = cf_tail_inversion(d, w, t)
            assert math.isclose(got, want, rel_tol=1e-7), (d.label, t, got, want)

    def test_very_deep_tail_stays_relative(self):
        want = 2.0 * math.exp(-30.0) - math.exp(-60.0)
        got = cf_tail_inversion(EXP, [2.0, 1.0], 60.0)
        assert math.isclose(got, want, rel_tol=1e-7)

    def test_laplace_symmetry(self):
        # the contour's upper tail against exact_tail's reflection of the mixture's
        w = [2.0, 1.0]
        assert exact_tail(LAP, w, 0.0)[0] == 0.5
        up = cf_tail_inversion(LAP, w, 1.0)
        down = exact_tail(LAP, w, -1.0)[0]
        assert math.isclose(up + down, 1.0, rel_tol=1e-12)

    def test_laplace_tail_near_zero_is_at_most_half(self):
        # successive trapezoid sums agree bit for bit here; with no rounding
        # floor on the error estimate the tail came out 0.5 + 1 ulp
        assert cf_tail_inversion(LAP, [1.0, 1.5], 5e-324) == 0.5

    def test_nonnegative_sums_below_zero(self):
        # exact_tail answers at and below 0; the contour takes only t > 0
        for d in (EXP, GAMMA2, GAMMA05):
            for t in (0.0, -0.0, -3.0):
                assert exact_tail(d, [2.0, 1.0], t)[0] == 1.0
                with pytest.raises(InvalidInputError, match="positive"):
                    cf_tail_inversion(d, [2.0, 1.0], t)

    def test_domain_answers_are_tagged_domain(self, monkeypatch):
        # neither route runs at t = 0 or below 0 on a nonnegative law: no mixture is built
        def refuse(w):
            raise AssertionError("mixture built for a threshold-domain answer")

        monkeypatch.setattr(oracle, "hypoexp_mixture", refuse)
        monkeypatch.setattr(oracle, "laplace_mixture", refuse)
        assert exact_tail(LAP, [1.0, 1.0], 0.0) == (0.5, "domain")
        assert exact_tail(LAP, [2.0, 1.0], -0.0) == (0.5, "domain")
        assert exact_tail(GAMMA2, [1.0, 2.0], -1.0) == (1.0, "domain")
        for t in (0.0, -1e-300, -5.0):
            assert exact_tail(EXP, [2.0, 1.0], t) == (1.0, "domain")

    def test_non_finite_threshold(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                cf_tail_inversion(EXP, [1.0], bad)

    def test_walk_out_stops_before_u_max(self, monkeypatch):
        # the integrand is far from negligible at u = 1: the walk raises
        # without evaluating a node past the limit
        nodes = []
        real_sinh = np.sinh

        def sinh(u):
            nodes.extend(u)
            return real_sinh(u)

        monkeypatch.setattr(oracle, "_U_MAX", 1.0)
        monkeypatch.setattr(np, "sinh", sinh)
        with pytest.raises(NumericFailureError, match="still at"):
            cf_tail_inversion(GAMMA05, [2.0, 1.0], 3.0)
        assert 0.0 < max(nodes) < 1.0

    def test_agrees_with_mixture_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = random_weights(rng, max_n=5)
            mean = sum(w)
            for t in (0.7 * mean, 2.5 * mean):
                exact = hypoexp_mixture(w).tail(t)
                got = cf_tail_inversion(EXP, w, t)
                assert abs(got - exact) <= max(1e-8, 1e-6 * exact)


class TestFallbacks:
    def test_hypoexp_tail_falls_back_to_inversion(self):
        got = exact_tail(EXP, ILL_CONDITIONED, 5.0)[0]
        assert abs(got - HYPOEXP_ILL_AT_5) <= 1e-8

    def test_laplace_tail_falls_back_to_inversion(self):
        got = exact_tail(LAP, ILL_CONDITIONED, 3.0)[0]
        assert abs(got - LAPLACE_ILL_AT_3) <= 2e-8

    def test_clean_inputs_avoid_fallback(self):
        assert math.isclose(exact_tail(EXP, [2.0, 1.0], 6.0)[0], HYPOEXP21_AT_6, rel_tol=1e-12)
        assert math.isclose(
            exact_tail(LAP, [2.0, 1.0], 2.0 * SIGMA21)[0], LAPLACE21_AT_2SIGMA, rel_tol=1e-12
        )


class TestExactTail:
    def test_source_tags(self):
        value, source = exact_tail(EXP, [2.0, 1.0], 6.0)
        assert source == "mixture"
        assert math.isclose(value, HYPOEXP21_AT_6, rel_tol=1e-12)

        value, source = exact_tail(LAP, [2.0, 1.0], 2.0 * SIGMA21)
        assert source == "mixture"

        value, source = exact_tail(GAMMA2, [2.0, 1.0], 12.0)
        assert source == "cf_inversion"
        assert math.isclose(value, GAMMA2_W21_AT_12, rel_tol=1e-7)

        value, source = exact_tail(EXP, ILL_CONDITIONED, 5.0)
        assert source == "cf_inversion"
        assert abs(value - HYPOEXP_ILL_AT_5) <= 1e-8

    @pytest.mark.parametrize("n", [1, 5, 65, 3000])
    def test_columns_in_order_of_first_occurrence(self, n):
        rng = np.random.default_rng(n)
        for b in (rng.choice([0.5, 2.0, -1.0, 0.75, -3.0], n), rng.uniform(-2.0, 2.0, n)):
            values, counts = oracle._columns(b)
            seen = {}
            for v in b.tolist():
                seen[v] = seen.get(v, 0) + 1
            assert list(zip(values.tolist(), counts.tolist())) == list(seen.items())

    def test_thousand_equal_weights_are_one_column(self):
        # the contour takes the equal weights as one gamma(1000) column
        value, source = exact_tail(EXP, [1.0] * 1000, 1500.0)
        assert source == "cf_inversion"
        with mp.workdps(40):
            want = mp.gammainc(1000, 1500, mp.inf, regularized=True)
        assert math.isclose(value, float(want), rel_tol=1e-13)

    @pytest.mark.parametrize("t", [200.0, 600.0])
    @pytest.mark.parametrize("law", ["exponential", "laplace"])
    def test_near_pair_is_not_merged(self, law, t):
        # merged into one repeated pole, scales 8e-6 apart put the tail 1e-7
        # (t = 200) and 1e-6 (t = 600) off in relative terms
        d, want = (EXP, HYPOEXP_NEAR_PAIR) if law == "exponential" else (LAP, LAPLACE_NEAR_PAIR)
        value, _ = exact_tail(d, [1.0, 1.000008], t)
        assert abs(value - want[t]) <= 1e-12 * want[t]

    @pytest.mark.parametrize("n", [2, 70])
    @pytest.mark.parametrize("d", [EXP, LAP, GAMMA05, GAMMA_TINY], ids=lambda d: d.label())
    def test_every_route_keeps_the_threshold_domain(self, d, n):
        # n = 2 takes the mixture where the law has one; n = 70 is past its cap
        w = two_or_wide(n)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="finite"):
                exact_tail(d, w, bad)
        for t in (5e-324, 1e-300, 0.0, 1e14 * max(w), 1e308):
            for x in (t, -t):
                value, _ = exact_tail(d, w, x)
                if d.nonnegative:
                    assert 0.0 <= value <= 1.0, (x, value)
                elif x >= 0.0:
                    assert 0.0 <= value <= 0.5, (x, value)
                else:
                    assert 0.5 <= value <= 1.0, (x, value)

    @pytest.mark.parametrize("n", [2, 70])
    @pytest.mark.parametrize("d", [EXP, LAP, GAMMA05], ids=lambda d: d.label())
    def test_tails_below_the_smallest_float_are_zero(self, d, n):
        # the Chernoff bound is below the smallest float: both routes give 0,
        # the contour without summing a contour
        w = two_or_wide(n)
        for t in (1e14, 1e200, 1e308):
            assert cf_tail_inversion(d, w, t) == 0.0
            assert exact_tail(d, w, t)[0] == 0.0
            if not d.nonnegative:
                assert exact_tail(d, w, -t)[0] == 1.0

    def test_laplace_tail_just_above_zero_is_at_most_half(self):
        # the mixture's coefficient sum drifts above 1, once giving 0.5000000000000009
        w = (6.862283619576183, 4.567786612409471, 8.621840609032201, 0.5201142460805447)
        value, _ = exact_tail(LAP, w, 1e-300)
        assert 0.5 - 1e-12 <= value <= 0.5
        assert exact_tail(LAP, w, 0.0)[0] == 0.5


class TestClusterTail:
    """A cluster of equal scales is one contour column of the summed shape."""

    @staticmethod
    def reference(t):
        # S = 2 G + E, G ~ gamma(999), E ~ exponential(1): P(S > t) =
        # Q(999, c) + e^-2c int_0^c g^998 e^g dg / 998!, c = t/2, and the
        # integral is 998! (e^c sum_k (-1)^(998-k) c^k/k! - 1)
        with mp.workdps(60):
            c = mp.mpf(t) / 2
            alternating = mp.fsum(
                (-1) ** (998 - k) * mp.exp(k * mp.log(c) - c - mp.loggamma(k + 1))
                for k in range(999)
            )
            head = mp.gammainc(999, c, mp.inf, regularized=True)
            return float(head + alternating - mp.exp(-2 * c))

    @pytest.mark.parametrize("t", [1998.0, 2500.0])
    def test_against_mpmath(self, t):
        value, source = exact_tail(EXP, [2.0] * 999 + [1.0], t)
        assert source == "cf_inversion"
        want = self.reference(t)
        assert abs(value - want) <= 1e-12 * want

    def test_lone_cluster_is_one_term(self):
        # the single Erlang(10000) tail
        value, source = exact_tail(EXP, [1.0] * 10000, 10500.0)
        assert source == "cf_inversion"
        with mp.workdps(40):
            want = float(mp.gammainc(10000, 10500, mp.inf, regularized=True))
        assert math.isclose(value, want, rel_tol=1e-13)

    @pytest.mark.parametrize("m, a, t", [(2, 1.0, 2.0), (7, 0.3, 4.0), (1000, 2.0, 2600.0)])
    def test_equal_weights_are_one_gamma_column(self, m, a, t):
        # m exponential summands on one scale are one gamma(m) summand on it
        got = cf_tail_inversion(EXP, [a] * m, t)
        want = cf_tail_inversion(Distribution.gamma(float(m)), [a], t)
        assert math.isclose(got, want, rel_tol=1e-13)


class TestMixtureTerms:
    """A mixture takes only terms ``tail`` can evaluate; the first bad one is named."""

    @pytest.mark.parametrize(
        "terms, top, message",
        [
            ((), 1.0, "nonzero coefficient"),
            (((0.0, 1.0),), 1.0, "nonzero coefficient"),
            (((0.0, 1.0), (-0.0, 2.0)), 0.5, "nonzero coefficient"),
            (((1.0, 1.0),), 0.7, "top 1 or 1/2"),
            (((1.0, 1.0),), 2.0, "top 1 or 1/2"),
            (((1.0, 0.0),), 1.0, "term 1 "),
            (((1.0, -1.0),), 1.0, "term 1 "),
            (((1.0, math.inf),), 1.0, "term 1 "),
            (((1.0, math.nan),), 1.0, "term 1 "),
            (((2.0, 1.0), (math.inf, 2.0), (1.0, 0.0)), 1.0, "term 2 "),
            (((2.0, 1.0), (-1.0, 2.0), (math.nan, 3.0)), 0.5, "term 3 "),
        ],
    )
    def test_unusable_terms_raise(self, terms, top, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            ExpMixture(tuple(MixtureTerm(*term) for term in terms), top)

    @pytest.mark.parametrize("t", [1.0, 2000.0])
    @pytest.mark.parametrize("coefs", [(1e308, 1e308), (1e308, -1e308)])
    def test_coefficient_sum_past_float_range_raises(self, coefs, t):
        # fsum over the terms in ``tail`` would overflow at either threshold
        with pytest.raises(InvalidInputError, match="leaves float range"):
            ExpMixture((MixtureTerm(coefs[0], 1.0), MixtureTerm(coefs[1], 2.0)), 1.0).tail(t)

    @pytest.mark.parametrize("coefs", [(0.7, 0.7), (8e307, 8e307)])
    def test_coefficients_that_do_not_sum_to_one_raise(self, coefs):
        # ``tail`` clamps into [0, top] within the coefficients' drift from 1, so
        # these would answer 1.0 at t = 0.01 and t = 1 (signed sums 1.39 and 7.8e307)
        with pytest.raises(InvalidInputError, match="do not sum to 1"):
            ExpMixture((MixtureTerm(coefs[0], 1.0), MixtureTerm(coefs[1], 2.0)), 1.0)

    def test_a_zero_coefficient_among_others_is_usable(self):
        mix = ExpMixture((MixtureTerm(0.0, 0.5), MixtureTerm(1.0, 1.0)), 1.0)
        assert mix.tail(2.0) == math.exp(-2.0)
        assert mix.tail(1000.0) == 0.0


class TestMixtureRange:
    def test_within_error_bound_is_the_range_end(self, monkeypatch):
        mix = ExpMixture((MixtureTerm(1.0 + 1e-12, 1.0),), 1.0)
        assert mix.tail(1e-300) == 1.0
        mix = ExpMixture((MixtureTerm(1.0 + 1e-12, 1.0),), 0.5)
        assert mix.tail(1e-300) == 0.5
        # exact_tail reflects the clamped upper tail
        monkeypatch.setattr(oracle, "laplace_mixture", lambda w: mix)
        assert exact_tail(LAP, [1.0], -1e-300) == (0.5, "mixture")

    def test_beyond_error_bound_raises(self):
        # 2 e^{-t} - e^{-t/10} is -0.59 at t = 5 although the coefficients sum
        # to 1: below the normal range, where the subnormal gate raises
        mix = ExpMixture((MixtureTerm(2.0, 1.0), MixtureTerm(-1.0, 10.0)), 1.0)
        with pytest.raises(MixtureUnavailableError, match="below the normal range"):
            mix.tail(5.0)
        # -e^{-t} + 2 e^{-t/10} is 1.44 at t = 1, above the range end
        mix = ExpMixture((MixtureTerm(-1.0, 1.0), MixtureTerm(2.0, 10.0)), 1.0)
        with pytest.raises(MixtureUnavailableError, match="leaves"):
            mix.tail(1.0)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the fixed trust gates accept mixture answers 3.5e-11 off")
    def test_near_equal_scales_keep_1e_12(self):
        # both mixtures pass the gates (exponential: sum |coef| 1.8e5, drift
        # 4.0e-11) and answer about 3e-11 relative off, while the contour on
        # the same inputs is within 3e-16; the Laplace threshold is 0.05 sigma
        cases = ((EXP, (1.0, 1.02, 1.04, 1.06), 0.206),
                 (LAP, (1.0, 1.03, 1.06, 1.09, 1.12), 0.16773490990250062))
        for d, w, x in cases:
            ref = mp_partial_fraction_tail(w, x, not d.nonnegative)
            assert abs(cf_tail_inversion(d, w, x) - ref) <= 1e-12 * ref
            value, _ = exact_tail(d, w, x)
            assert abs(value - ref) <= 1e-12 * ref, (d.label(), value, ref)


    # the exponential sandwich_report instances 19 and 45 of seed 1, at t = 200 E S:
    # scipy's Erlang tails flush to 0 there, while the tails are subnormal
    # floats (mpmath, 50 dps)
    @pytest.mark.parametrize(
        "w, ref",
        [
            ((8.140927477570385, 5.804703666114568, 0.3838131363974503, 2.510441640402915,
              0.19141181213129968, 0.40742392446449727, 5.285908038089396, 7.330496156709437),
             3.4869184633642202184e-319),
            ((3.5834570007328486, 4.310752199857048, 4.875069681709484, 7.081721277553747,
              5.09477749080252, 0.35108535294550003, 0.11262778759943758, 0.28505692678339306),
             4.673709022584965876e-314),
        ],
    )
    def test_subnormal_tail_is_inverted(self, w, ref):
        t = 200.0 * math.fsum(w)
        with pytest.raises(MixtureUnavailableError):
            hypoexp_mixture(w).tail(t)
        value, source = exact_tail(EXP, w, t)
        assert source == "cf_inversion"
        assert abs(value - ref) <= 1e-4 * ref

    def test_coefficients_past_float_range_are_rejected(self):
        # 64 scales 1e-7 apart: the product of the first pole's 63 factors
        # underflows to 0; 101 weights fail the cap before any product
        near = [1.0 + k * 1e-7 for k in range(64)]
        for w in ([1.0] + [1.00002] * 100, [1.0] * 100 + [1.00002], near):
            for d, build in ((EXP, hypoexp_mixture), (LAP, laplace_mixture)):
                with pytest.raises(MixtureUnavailableError):
                    build(w)
                assert exact_tail(d, w, 0.5 * d.mean * sum(w) + 1.0)[1] == "cf_inversion"

    def test_quotient_past_float_range_is_a_zero_tail(self):
        # t/scale = 1e310 overflows, and the tail there is 0
        assert exact_tail(EXP, [1e-300], 1e10) == (0.0, "mixture")
        assert exact_tail(EXP, [1e-300, 1.0], 1e10) == (0.0, "mixture")

    def test_tail_below_the_smallest_float_stays_zero(self):
        # 2 e^{-800} - e^{-1600} rounds to 0: the mixture answers
        assert hypoexp_mixture([1.0, 0.5]).tail(800.0) == 0.0
        assert laplace_mixture([1.0, 0.5]).tail(800.0) == 0.0


def _log_uniform_float(rng, lo_exp=-1074, hi_exp=1023):
    """A positive float from 2^lo_exp (5e-324) to below 2^(hi_exp + 1), log-uniform."""
    return math.ldexp(rng.uniform(0.5, 1.0), int(rng.integers(lo_exp + 1, hi_exp + 2)))


class TestMixtureSplit:
    """Each scale is split once, at build; ``tail`` keeps the bits of splitting it at every t."""

    @staticmethod
    def assert_same_bits(mix, t):
        want = mixture_tail_sum(mix, t)
        try:
            got = mix.tail(t)
        except MixtureUnavailableError:
            # the gates raise only below the normal range or outside [0, top]
            assert not sys.float_info.min <= want <= mix.top, (mix, t)
        else:
            assert got.hex() == min(max(want, 0.0), mix.top).hex(), (mix, t)

    def test_direct_mixtures_at_every_float_magnitude(self):
        rng = np.random.default_rng(18)
        for _ in range(400):
            n = int(rng.integers(1, 5))
            coefs = rng.uniform(0.1, 1.0, n)
            terms = tuple(MixtureTerm(float(c), _log_uniform_float(rng)) for c in coefs / coefs.sum())
            mix = ExpMixture(terms, float(rng.choice([1.0, 0.5])))
            for _ in range(5):
                # a threshold near a scale, so that most tails are neither 0 nor 1
                near = terms[0].scale * rng.uniform(0.01, 50.0)
                t = _log_uniform_float(rng) if rng.random() < 0.5 else near
                if 0.0 < t < math.inf:
                    self.assert_same_bits(mix, t)

    def test_edges(self):
        tiny, huge = 5e-324, 1e308
        cases = [
            (tiny, huge), (huge, tiny), (tiny, tiny), (huge, huge), (sys.float_info.max, 1.0),
            (1e-10, 1e308),  # t/scale > 1e300: e^-x underflows to 0
            (1e10, 1e-300),  # ldexp(t, -e) subnormal: no correction
            (1e-300, 1e10), (1.0, 3.0), (0.7, 0.7), (2.2250738585072014e-308, 1e-300),
        ]
        for scale, t in cases:
            for top in (1.0, 0.5):
                self.assert_same_bits(ExpMixture((MixtureTerm(1.0, scale),), top), t)
                mix = ExpMixture((MixtureTerm(1.5, scale), MixtureTerm(-0.5, 0.25 * scale or scale)), top)
                self.assert_same_bits(mix, t)
        # t/scale past float range in one term, an ordinary tail in the other
        mix = ExpMixture((MixtureTerm(0.5, 5e-324), MixtureTerm(0.5, 1e308)), 1.0)
        self.assert_same_bits(mix, 1e300)

    @pytest.mark.parametrize("scale", [1.0, 3.0, 0.1, 1e-5, 7e10, 2.0**-1000])
    def test_thresholds_at_the_underflow_of_exp_and_past_1e300(self, scale):
        # t steps ulp by ulp so that x = t/scale crosses 745.1332191019411,
        # the largest x with e^-x > 0, and 1e300; at scale 2^-1000, t near
        # 2^25 takes t 2^-e (scale = m 2^e) past float range.  Mixed signs:
        # the other term may be live, 0 or at its own float limits
        last = 745.1332191019411
        assert math.exp(-last) > 0.0 == math.exp(-math.nextafter(last, math.inf))
        centres = [last * scale, 1e300 * scale, math.ldexp(1.0, 25)]
        sides = set()
        for top in (1.0, 0.5):
            for c, c_other in ((1.5, -0.5), (-0.5, 1.5), (-1.0, 2.0)):
                for other in (0.25 * scale, 2.0 * scale, 1e-300 * scale or scale):
                    mix = ExpMixture((MixtureTerm(c, scale), MixtureTerm(c_other, other)), top)
                    for centre in centres:
                        t = centre
                        for _ in range(6):
                            t = math.nextafter(t, 0.0)
                        for _ in range(12):
                            if t < math.inf:  # 1e300 * 7e10 is not a threshold
                                self.assert_same_bits(mix, t)
                                sides.add(math.exp(-(t / scale)) > 0.0)
                            t = math.nextafter(t, math.inf)
        assert sides == {True, False}

    def test_built_mixtures(self):
        rng = np.random.default_rng(19)
        for w in seeded_weight_vectors(20, 60, 8):
            for build in (hypoexp_mixture, laplace_mixture):
                try:
                    mix = build(w)
                except MixtureUnavailableError:
                    continue
                for t in rng.uniform(0.0, 20.0 * max(w), 8):
                    self.assert_same_bits(mix, float(t) + 1e-3)

    def test_the_split_is_not_a_field(self):
        terms = (MixtureTerm(1.5, 1.0), MixtureTerm(-0.5, 0.25))
        mix = ExpMixture(terms, 1.0)
        assert mix == ExpMixture(terms, 1.0) and hash(mix) == hash(ExpMixture(terms, 1.0))
        assert repr(mix) == f"ExpMixture(terms={terms!r}, top=1.0)"


class TestLaplaceAbsMoment:
    def test_frozen_moments(self):
        w = [2.0, 1.0]
        assert math.isclose(laplace_abs_norm(w, 3.0) ** 3.0, LAPLACE21_ABSMOMENT_P3, rel_tol=1e-12)
        assert math.isclose(laplace_abs_norm(w, 2.5) ** 2.5, LAPLACE21_ABSMOMENT_P25, rel_tol=1e-12)
        assert math.isclose(laplace_abs_norm(w, 2.0) ** 2.0, LAPLACE21_ABSMOMENT_P2, rel_tol=1e-12)

    def test_single_weight_closed_form(self):
        # E|aX|^p = a^p Gamma(p+1)
        assert math.isclose(laplace_abs_norm([2.0], 4.0) ** 4.0, 16.0 * 24.0, rel_tol=1e-12)

    def test_variance_identity_random(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            w = random_weights(rng, max_n=6)
            want = 2.0 * sum(a * a for a in w)
            assert math.isclose(laplace_abs_norm(w, 2.0) ** 2.0, want, rel_tol=1e-9)

    def test_contour_fallback_fourth_moment(self):
        # E S^4 = 24 sum a_i^4 + 12 sum_{i != j} a_i^2 a_j^2 for Laplace summands
        sq = [a * a for a in ILL_CONDITIONED]
        want = 24.0 * sum(s * s for s in sq) + 12.0 * (sum(sq) ** 2 - sum(s * s for s in sq))
        assert math.isclose(laplace_abs_norm(ILL_CONDITIONED, 4.0) ** 4.0, want, rel_tol=1e-9)

    def test_quadrature_fallback(self):
        # weights that defeat the tail mixture; E S^2 = 2 sum a_i^2
        want = 2.0 * sum(a * a for a in ILL_CONDITIONED)
        got = laplace_abs_norm(ILL_CONDITIONED, 2.0) ** 2.0
        assert math.isclose(got, want, rel_tol=1e-4)

    @pytest.mark.parametrize("p", [2.0, 20.0, 30.0, 40.0, 300.0, 1000.0])
    def test_high_orders_closed_form(self, p):
        # E|2 X_1 + X_2|^p = Gamma(p+1) (4/3 2^p - 1/3); at p = 30 and 40 the
        # saddle is near the pole at 1/2, where a contour placed by the
        # Gaussian rule did not converge; at p = 300 and 1000 the moment
        # overflows a float while the norm does not
        with mp.workdps(40):
            want = float((mp.gamma(p + 1) * (mp.mpf(4) / 3 * mp.mpf(2) ** p - mp.mpf(1) / 3)) ** (1 / p))
        assert math.isclose(laplace_abs_norm([2.0, 1.0], p), want, rel_tol=1e-11)

    @pytest.mark.parametrize("p", [3e6, 1e8, 1e9, 1e12])
    def test_orders_past_a_million(self, p):
        # the trapezoid sums need agree only to 1e-12 p relative, the norm's
        # relative error being the moment's divided by p; at 1e-12 they did
        # not converge from p = 3e6 on
        with mp.workdps(60):
            p_mp = mp.mpf(p)
            want = (mp.gamma(p_mp + 1) * (mp.mpf(4) / 3 * mp.mpf(2) ** p_mp - mp.mpf(1) / 3)) ** (1 / p_mp)
        assert math.isclose(laplace_abs_norm([2.0, 1.0], p), float(want), rel_tol=1e-13)

    def test_order_whose_saddle_meets_the_pole(self):
        with pytest.raises(NumericFailureError, match="within one float of the pole"):
            laplace_abs_norm([2.0, 1.0], 1e13)

    def test_invalid_order(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidInputError):
                laplace_abs_norm([1.0], bad)


class TestEqualWeightGamma:
    """Equal weights have the closed form P(S > t) = Q(n * shape, t / a)."""

    def test_repro_at_the_mean(self):
        # total shape 5000 at its own mean, once clamped to 1.0
        d, w = Distribution.gamma(500.0), [1.0] * 10
        ref = gammaincc(5000.0, 5000.0)  # 0.49811936596618267
        value, source = exact_tail(d, w, 5000.0)
        assert source == "cf_inversion"
        assert abs(value - ref) <= 1e-9 * ref
        assert abs(p_ge_mean(d, w) - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("shape", [1e-3, 0.5, 2.0, 500.0, 8618.0])
    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    @pytest.mark.parametrize("factor", [0.3, 0.97, 1.0, 2.0, 40.0])
    def test_matches_closed_form(self, shape, n, factor):
        a = 0.7
        t = factor * n * shape * a
        ref = gammaincc(n * shape, t / a)
        got, _ = exact_tail(Distribution.gamma(shape), [a] * n, t)
        assert abs(got - ref) <= 1e-9 * ref + 1e-300, (got, ref)


    @pytest.mark.parametrize("shape", [1e-3, 0.01, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("ratio", [1e-160, 1e-200, 1e-300, 5e-324])
    def test_thresholds_far_below_the_scale(self, shape, n, ratio):
        # the saddle lies near -n*shape/t, out of float range for small shapes;
        # the small-t form of P(S <= t) answers there
        a = 2.0
        ref = gammaincc(n * shape, ratio)
        got = cf_tail_inversion(Distribution.gamma(shape), [a] * n, ratio * a)
        assert abs(got - ref) <= 1e-9 * ref, (got, ref)

    @pytest.mark.parametrize("t", [5e-324, 3e-322, 1e-320, 1e-310])
    @pytest.mark.parametrize("a", [2.0, 3.0, 1e10])
    @pytest.mark.parametrize("shape", [1e-3, 1e-2])
    def test_subnormal_thresholds(self, shape, a, t):
        # t/a is subnormal or 0 here: the small-t form takes log t - log a
        with mp.workdps(50):
            ref = float(1 - mp.gammainc(shape, 0, mp.mpf(t) / a, regularized=True))
        got = cf_tail_inversion(Distribution.gamma(shape), [a], t)
        assert abs(got - ref) <= 1e-12 * ref, (got, ref)


@pytest.mark.parametrize("d", [EXP, LAP, GAMMA05], ids=lambda d: d.label())
def test_weights_summing_past_float_range_are_invalid(d):
    # the sum's mean would be inf, and 0 * inf = nan for Laplace
    for w in ([1e308, 1e308], [1e308, 1e308, 1.0], [sys.float_info.max, sys.float_info.max]):
        with pytest.raises(InvalidInputError, match="finite sum"):
            exact_tail(d, w, 3.0)
        with pytest.raises(InvalidInputError, match="finite sum"):
            p_ge_mean(d, w)
    # a sum just inside float range answers, on either side of its mean
    w = [sys.float_info.max / 2.0, sys.float_info.max / 4.0]
    assert exact_tail(d, w, 3.0)[0] == exact_tail(d, [2.0, 1.0], 3.0 / (sys.float_info.max / 4.0))[0]
    assert 0.0 <= exact_tail(d, w, 1e308)[0] <= 1.0


class TestPGeMean:
    def test_exponential_frozen(self):
        assert math.isclose(p_ge_mean(EXP, [2.0, 1.0]), HYPOEXP21_AT_3, rel_tol=1e-12)

    def test_laplace_is_half(self):
        assert p_ge_mean(LAP, [5.0, 0.2]) == 0.5

    def test_gamma_shape_one_matches_exponential(self):
        got = p_ge_mean(Distribution.gamma(1.0), [2.0, 1.0])
        assert math.isclose(got, HYPOEXP21_AT_3, rel_tol=1e-12)

    def test_gamma_general_shape(self):
        assert abs(p_ge_mean(GAMMA2, [2.0, 1.0]) - GAMMA2_W21_AT_6) <= 2e-9

    def test_stays_inside_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            w = random_weights(rng, max_n=6)
            assert 0.0 < p_ge_mean(EXP, w) < 1.0


class TestWideSumBits:
    """The bits of wide sums, recorded at 6f4fd3e, before their array sums ran through core._array_fsum.

    ``spread`` has 1,000 distinct weights, so every cumulant sums 1,000 or
    2,000 terms; ``repeats`` has 100 weights, each 10 times, which the contour
    merges into 100 columns.  Near and deep are mean + 0.3 and + 8 sigma; the
    tilt aims at mean + 3 sigma.  The two norms were re-recorded when the
    contour began to stop on the finer sum's predicted error: against mpmath
    they moved from 7.1e-16 to 1.2e-14 (``spread``, 56 ulps) and from 7.1e-16
    to 1.5e-14 (``repeats``, 96 ulps), inside the norm's 1e-12.
    """

    SPREAD = [0.5 + 1.5 * ((i * 0.6180339887498949) % 1.0) for i in range(1000)]
    REPEATS = [1.0 + (i % 100) / 64 for i in range(1000)]
    # weights: (l2, laplace_abs_norm(w, 3)) and, per law, (near, deep, tilt)
    BITS = {
        "spread": (("0x1.4ea8d94e29b11p+5", "0x1.14946d7740c55p+6"), {
            "exponential": ("0x1.82f687a441eccp-2", "0x1.dddd586b4e202p-44", "0x1.08bf99a4b0a59p-4"),
            "laplace": ("0x1.87330a04acb84p-2", "0x1.5950109b18e63p-50", "0x1.9cd7d7c9c4dc5p-5"),
            "gamma(0.5)": ("0x1.812f846e98779p-2", "0x1.38d842459731ep-41", "0x1.6795eccd371adp-4"),
        }),
        "repeats": (("0x1.ceee380e54864p+5", "0x1.7e94f234e7c87p+6"), {
            "exponential": ("0x1.8330d851799b8p-2", "0x1.788bc587a95d2p-44", "0x1.80d97ced00a8fp-5"),
            "laplace": ("0x1.8734cac217e37p-2", "0x1.411126f1c9908p-50", "0x1.2aa9da327da97p-5"),
            "gamma(0.5)": ("0x1.81821f299d00fp-2", "0x1.cf4ea442cdd8ap-42", "0x1.05e3c5bec3eb2p-4"),
        }),
    }

    @pytest.mark.parametrize("name", ["spread", "repeats"])
    def test_wide_sums_keep_their_bits(self, name):
        w = as_weights(getattr(self, name.upper()))
        (l2, norm3), laws = self.BITS[name]
        assert [w.l2.hex(), laplace_abs_norm(w, 3.0).hex()] == [l2, norm3]
        for d in (EXP, LAP, GAMMA05):
            mean, sigma = d.mean * w.l1, math.sqrt(d.variance) * w.l2
            tails = [exact_tail(d, w, mean + z * sigma) for z in (0.3, 8.0)]
            assert all(route == "cf_inversion" for _, route in tails)
            got = [v.hex() for v, _ in tails] + [chernoff_tilt(d, w, mean + 3.0 * sigma).hex()]
            assert got == list(laws[d.label()])
