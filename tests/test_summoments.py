import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import oracles
from momentbounds import dists, summoments
from momentbounds.verify import reference_estimate
from momentbounds.coeffs import CoefficientVector
from momentbounds.dists import CHAR_FUNCTION_TOLERANCE
from momentbounds.errors import (
    DegenerateCoefficientsError,
    EngineCapacityError,
    QuadratureError,
    ResidueCancellationError,
)
from momentbounds.summoments import (
    ENUMERATION_CAP,
    EVEN_MOMENT_CAP,
    MomentEstimate,
    Rigor,
    char_function_moment,
    even_sum_moment,
    gaussian_sum_norm,
    haagerup_moment,
    laplace_sum_moment_exact,
    laplace_sum_moment_recursion,
    monte_carlo_sum_moment,
    monte_carlo_sum_moments,
    rademacher_sum_moment,
)

SQRT2 = math.sqrt(2.0)
CV = CoefficientVector


class TestMomentEstimate:
    def test_value_must_match_raw_root(self):
        # built from the moment m of the unit-scale sum and its exponent e:
        # value 2^e m^{1/p}, raw moment m 2^{e p} while that is a normal float
        est = MomentEstimate.scaled(2.0, 1.0, 1, "enumeration", Rigor.exact())
        assert (est.value, est.raw_moment) == (2.0, 4.0)
        est = MomentEstimate.scaled(4.0, 0.5, -300, "enumeration", Rigor.exact())
        assert est.value == math.ldexp(0.5**0.25, -300) and est.raw_moment is None
        assert MomentEstimate.scaled(3.0, 0.0, None, "enumeration", Rigor.exact()).value == 0.0
        for m in (0.0, 1e-310, math.inf):
            with pytest.raises(EngineCapacityError, match="positive normal float"):
                MomentEstimate.scaled(2.0, m, 0, "enumeration", Rigor.exact())
        with pytest.raises(OverflowError):
            MomentEstimate.scaled(2.0, 1.0, 1024, "enumeration", Rigor.exact())

    def test_scale_moment_past_the_float_range_is_none(self):
        # m 2^{e p}, None outside the normal range, also once e p itself overflows
        assert summoments._scale_moment(0.5, 3, 2.0) == 32.0
        assert summoments._scale_moment(0.5, 3, 1e308) is None
        assert summoments._scale_moment(0.5, -3, 1e308) is None
        assert summoments._scale_moment(0.5, 1100, 1.0) is None

    def test_exact_rigor_restricted_to_exact_paths(self):
        with pytest.raises(ValueError):
            MomentEstimate.scaled(2.0, 1.0, 1, "monteCarlo", Rigor.exact())
        with pytest.raises(ValueError):
            MomentEstimate.scaled(2.0, 1.0, 1, "haagerup", Rigor.exact())

    def test_ci_rigor_fields(self):
        with pytest.raises(ValueError):
            Rigor.ci(-0.1)
        with pytest.raises(ValueError):
            Rigor("ci", halfwidth=0.1, confidence=1.5)
        r = Rigor.ci(0.1)
        assert r.confidence == 0.997


class TestEnumeration:
    def test_spot_values(self):
        assert rademacher_sum_moment(CV([1, 1]), 4).raw_moment == pytest.approx(8.0, rel=1e-14)
        assert rademacher_sum_moment(CV([1, 1, 1]), 4).raw_moment == pytest.approx(21.0, rel=1e-14)
        est = rademacher_sum_moment(CV([1, 1, 1]), 3)
        assert est.raw_moment == pytest.approx(7.5, rel=1e-14)
        assert est.value == pytest.approx(7.5 ** (1 / 3), rel=1e-13)

    def test_against_full_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-2, 2, n)
            p = float(rng.uniform(1, 7))
            got = rademacher_sum_moment(CV(a), p).raw_moment
            assert got == pytest.approx(oracles.enumeration_moment(a, p), rel=1e-12)

    def test_quadratic_and_quartic_identities(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.uniform(-3, 3, int(rng.integers(1, 9)))
            s2 = float(np.sum(a**2))
            s4 = float(np.sum(a**4))
            assert rademacher_sum_moment(CV(a), 2).raw_moment == pytest.approx(s2, rel=1e-12)
            assert rademacher_sum_moment(CV(a), 4).raw_moment == pytest.approx(
                3 * s2 * s2 - 2 * s4, rel=1e-12
            )

    def test_capacity_error_names_cap(self):
        with pytest.raises(EngineCapacityError, match=str(ENUMERATION_CAP)):
            rademacher_sum_moment(CV([1.0] * (ENUMERATION_CAP + 1)), 2)

    # n = 21 fills exactly one 2^20-pattern block; larger n stream the
    # sign patterns of the coefficients past the 21st block by block
    @pytest.mark.parametrize("n", [21, 22, ENUMERATION_CAP])
    def test_flat_moments_across_blocks(self, n):
        v = CV([1.0] * n)
        expected = {2: n, 4: 3 * n**2 - 2 * n, 6: 15 * n**3 - 30 * n**2 + 16 * n}
        for p, want in expected.items():
            assert rademacher_sum_moment(v, p).raw_moment == pytest.approx(want, rel=1e-14)

    def test_streamed_sign_and_permutation_invariance(self):
        rng = np.random.default_rng(23)
        a = rng.uniform(-2.0, 2.0, 23)
        flipped = rng.permutation(a * rng.choice([-1.0, 1.0], a.size))
        for p in (2.0, 3.5, 6.0):
            assert rademacher_sum_moment(CV(a), p) == rademacher_sum_moment(CV(flipped), p)

    def test_streamed_memory_stays_within_one_block(self):
        v = CV(np.random.default_rng(24).uniform(0.5, 1.5, 24))
        tracemalloc.start()
        try:
            rademacher_sum_moment(v, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one whole-array sweep of 2^23 doubles would need 64 MB plus temporaries
        assert peak < 40 * 2**20


class TestEvenMoments:
    LAWS = (dists.rademacher(), dists.sym_exponential(), dists.gaussian(), dists.weibull_tail(2.0))

    @pytest.mark.parametrize("n", [1, 5, 12, 20])
    def test_against_enumeration(self, n):
        a = np.random.default_rng(40 + n).uniform(-2.0, 2.0, n)
        for p in (2.0, 4.0, 6.0, 8.0):
            got = even_sum_moment(CV(a), dists.rademacher(), p)
            assert got.method == "evenMoments" and got.rigor.kind == "exact"
            assert got.raw_moment == pytest.approx(rademacher_sum_moment(CV(a), p).raw_moment, rel=1e-13)

    def test_against_partial_fractions(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 4, 6):
            a = rng.uniform(0.3, 2.0, n) * np.linspace(1.0, 1.5, n)
            for p in (2.0, 4.0, 6.0, 8.0):
                got = even_sum_moment(CV(a), dists.sym_exponential(), p).raw_moment
                assert got == pytest.approx(laplace_sum_moment_exact(CV(a), p).raw_moment, rel=1e-10)

    def test_against_gaussian_closed_form(self):
        a = np.random.default_rng(42).uniform(-2.0, 2.0, 9)
        for p in (2.0, 4.0, 6.0, 8.0):
            got = even_sum_moment(CV(a), dists.gaussian(), p).value
            assert got == pytest.approx(gaussian_sum_norm(CV(a), p).value, rel=1e-14)

    @pytest.mark.parametrize("n", [30, 100])
    def test_flat_rademacher_closed_forms(self, n):
        v = CV([1.0] * n)
        assert even_sum_moment(v, dists.rademacher(), 4.0).raw_moment == 3 * n**2 - 2 * n
        assert even_sum_moment(v, dists.rademacher(), 6.0).raw_moment == 15 * n**3 - 30 * n**2 + 16 * n

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_single_weibull_closed_form(self, alpha):
        b = math.gamma(1.0 + 2.0 / alpha) ** -0.5
        for p in (2.0, 4.0, 6.0, 8.0):
            got = even_sum_moment(CV([-0.75]), dists.weibull_tail(alpha), p).raw_moment
            assert got == pytest.approx(0.75**p * b**p * math.gamma(1.0 + p / alpha), rel=1e-13)

    def test_two_term_expansion(self):
        # E(aX + bY)^4 = a^4 E X^4 + 6 a^2 b^2 + b^4 E X^4 for unit variance
        a, b = 1.3, -0.4
        fourth = {
            "rademacher": 1.0,
            "symExponential": 6.0,
            "gaussian": 3.0,
            "weibullTail": math.gamma(3.0) / math.gamma(2.0) ** 2,
        }
        for d in self.LAWS:
            ex4 = fourth[d.kind]
            want = a**4 * ex4 + 6 * a * a * b * b + b**4 * ex4
            assert even_sum_moment(CV([a, b]), d, 4.0).raw_moment == pytest.approx(want, rel=1e-14)

    def test_permutation_sign_invariance_and_homogeneity(self):
        rng = np.random.default_rng(43)
        a = rng.uniform(-2.0, 2.0, 7)
        flipped = rng.permutation(a * rng.choice([-1.0, 1.0], a.size))
        for d in self.LAWS:
            for p in (2.0, 4.0, 6.0):
                base = even_sum_moment(CV(a), d, p)
                assert even_sum_moment(CV(flipped), d, p) == base
                # a power of two scales exactly, any other factor to rounding
                assert even_sum_moment(CV(8.0 * a), d, p).raw_moment == 8.0**p * base.raw_moment
                scaled = even_sum_moment(CV(1.7 * a), d, p)
                assert scaled.raw_moment == pytest.approx(1.7**p * base.raw_moment, rel=1e-13)

    @pytest.mark.parametrize("p", [3.0, 4.5, 29.5])
    def test_refuses_orders_that_are_not_even_integers(self, p):
        for d in self.LAWS:
            with pytest.raises(EngineCapacityError, match="even integer"):
                even_sum_moment(CV([1.0, 0.5]), d, p)

    def test_work_cap_names_cap(self):
        half = 100
        n = EVEN_MOMENT_CAP // half**2 + 1
        with pytest.raises(EngineCapacityError, match=str(EVEN_MOMENT_CAP)):
            even_sum_moment(CV([1.0] * n), dists.rademacher(), 2.0 * half)
        assert even_sum_moment(CV([1.0] * (n - 1)), dists.rademacher(), 2.0).raw_moment == n - 1

    @pytest.mark.parametrize(
        "values, d, p",
        [
            ([1.7e308, 1.7e308], dists.rademacher(), 4.0),  # the norm
            ([0.99, 0.99], dists.gaussian(), 300.0),  # a level of the scaled sum
            ([1.0], dists.weibull_tail(1.0), 400.0),  # E X^400
        ],
    )
    def test_refuses_overflow(self, values, d, p):
        with pytest.raises(EngineCapacityError, match="overflow"):
            even_sum_moment(CV(values), d, p)


class TestRowKernels:
    """A batch of rows gets the bits each row gets alone from its engine."""

    # n = 21 fills a whole block per row, n = 22 streams two blocks per row
    @staticmethod
    def estimates(moments, exponents, p, method):
        return [MomentEstimate.scaled(p, m, e, method, Rigor.exact()) for m, e in zip(moments, exponents)]

    @pytest.mark.parametrize("n, rows", [(3, 50), (21, 3), (22, 2)])
    def test_enumeration_rows(self, n, rows):
        a = np.random.default_rng(n).uniform(0.0, 2.0, (rows, n))
        y, e = summoments._canonical(a)
        for p in (2.0, 3.5):
            totals = summoments._enumeration_totals(y, p) / (1 << (n - 1))
            got = self.estimates(totals.tolist(), e, p, "enumeration")
            assert got == [rademacher_sum_moment(CV(row), p) for row in a]

    @pytest.mark.parametrize("n, rows", [(4, 13), (22, 4), (26, 2)])
    def test_row_orders_give_the_scalar_bits(self, n, rows):
        # unsorted orders, 2 among them (numpy squares there); n = 22 and 26
        # run the pattern loop over the coefficients past the block
        a = np.random.default_rng(n).uniform(0.1, 2.0, (rows, n))
        y, _ = summoments._canonical(a)
        p = np.resize([2.0, 12.5, 3.0, 2.5, 2.0, 3.0], rows)
        got = summoments._enumeration_totals(y, p)
        want = [summoments._enumeration_totals(y[i : i + 1], q)[0] for i, q in enumerate(p.tolist())]
        assert got.tobytes() == np.array(want).tobytes()

    def test_partial_fraction_row_orders_and_refusals(self):
        a = -np.sort(-np.random.default_rng(6).uniform(0.1, 2.0, (12, 4)), axis=1)
        a[3, 1] = a[3, 0]  # equal squares
        a[7, 3] = 0.0
        y, _ = summoments._canonical(a)
        p = np.resize([2.0, 12.5, 3.0, 2.5], len(a))
        moments, refusals = summoments._partial_fraction_rows(y, p)
        for i, q in enumerate(p.tolist()):
            (m,), (refusal,) = summoments._partial_fraction_rows(y[i : i + 1], q)
            assert repr(refusals[i]) == repr(refusal)
            if refusal is None:
                assert moments[i].tobytes() == m.tobytes()
        assert [r is None for r in refusals].count(False) == 2

    def test_partial_fraction_rows_and_refusals(self):
        a = -np.sort(-np.random.default_rng(5).uniform(0.1, 2.0, (40, 4)), axis=1)
        a[3, 1] = a[3, 0]  # equal squares
        a[7, 3] = 0.0
        y, e = summoments._canonical(a)
        for p in (2.0, 3.5):
            moments, refusals = summoments._partial_fraction_rows(y, p)
            for row, m, x, refusal in zip(a, moments, e, refusals):
                try:
                    want = laplace_sum_moment_exact(CV(row), p)
                    assert self.estimates([m], [x], p, "partialFractions") == [want] and refusal is None
                except (DegenerateCoefficientsError, ResidueCancellationError) as exc:
                    assert type(refusal) is type(exc) and str(refusal) == str(exc)


class TestPartialFractions:
    def test_spot_values(self):
        assert laplace_sum_moment_exact(CV([2, 1]), 2).raw_moment == pytest.approx(5.0, rel=1e-12)
        assert laplace_sum_moment_exact(CV([2, 1]), 0).raw_moment == pytest.approx(1.0, rel=1e-12)
        # multinomial oracle: E(X+Y)^4 = 6(a1^4 + a2^4) + 6 a1^2 a2^2
        assert laplace_sum_moment_exact(CV([3, 1]), 4).raw_moment == pytest.approx(
            6 * 82 + 54, rel=1e-12
        )

    def test_residue_mass_and_variance(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            a = rng.uniform(0.3, 3.0, n) * rng.choice([-1, 1], n)
            y, (e,) = summoments._canonical(a)
            c, (refusal,) = summoments._residue_rows(y)
            if refusal is not None:
                continue
            aa, c = np.ldexp(y[0], e), c[0]
            assert float(np.sum(c)) == pytest.approx(1.0, rel=1e-9)
            assert float(np.sum(c * aa * aa)) == pytest.approx(float(np.sum(a * a)), rel=1e-9)

    def test_degeneracy_refusals(self):
        with pytest.raises(DegenerateCoefficientsError):
            laplace_sum_moment_exact(CV([1.0, 1.0]), 3)
        with pytest.raises(DegenerateCoefficientsError):
            laplace_sum_moment_exact(CV([1.0, 0.0]), 3)
        with pytest.raises(DegenerateCoefficientsError):
            laplace_sum_moment_exact(CV([1.0, 1.0 + 1e-9]), 3)

    def test_cancellation_guard(self):
        # pairwise gaps just above the acceptance threshold blow up residues
        a = np.sqrt(1.0 + 1.1e-6 * np.arange(8))
        with pytest.raises(ResidueCancellationError):
            laplace_sum_moment_exact(CV(a), 3)


class TestRecursionEngine:
    def test_even_p_exact(self):
        est = laplace_sum_moment_recursion(CV([1, 1]), 4)
        assert est.raw_moment == pytest.approx(18.0, rel=1e-14)
        assert est.rigor.kind == "exact"
        assert laplace_sum_moment_recursion(CV([2, 1]), 2).raw_moment == pytest.approx(
            5.0, rel=1e-14
        )

    def test_two_term_fractional_against_density_oracle(self):
        est = laplace_sum_moment_recursion(CV([1, 1]), 3)
        assert est.raw_moment == pytest.approx(15.0 / (2 * SQRT2), rel=1e-11)
        assert est.raw_moment == pytest.approx(oracles.two_term_laplace_moment(3.0), rel=1e-10)
        assert est.rigor.kind == "tolerance"
        est1 = laplace_sum_moment_recursion(CV([1, 1]), 1)
        assert est1.raw_moment == pytest.approx(oracles.two_term_laplace_moment(1.0), rel=1e-10)

    def test_agrees_with_partial_fractions(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            n = int(rng.integers(1, 7))
            a = rng.uniform(0.4, 2.5, n)
            p = float(rng.choice([2.0, 2.5, 3.0, 3.5, 4.0, 6.0]))
            try:
                want = laplace_sum_moment_exact(CV(a), p).raw_moment
            except (DegenerateCoefficientsError, ResidueCancellationError):
                continue
            got = laplace_sum_moment_recursion(CV(a), p).raw_moment
            assert got == pytest.approx(want, rel=1e-9)

    def test_zero_coefficients_dropped(self):
        got = laplace_sum_moment_recursion(CV([1, 0, 0]), 2).raw_moment
        assert got == pytest.approx(1.0, rel=1e-14)

    def test_single_term_matches_closed_form(self):
        est = laplace_sum_moment_recursion(CV([1]), 2.5)
        assert est.raw_moment == pytest.approx(dists.single_abs_moment(dists.sym_exponential(), 2.5), rel=1e-10)

    @pytest.mark.parametrize("p", [20.5, 31.0])
    def test_past_the_char_function_floor(self, p):
        # E|E1 + E2|^p = 2^{-p/2} Gamma(p+1) (p+2)/2, where charFunction cancels
        with pytest.raises(EngineCapacityError, match="cancels"):
            char_function_moment(CV([1, 1]), dists.sym_exponential(), p)
        est = laplace_sum_moment_recursion(CV([1, 1]), p)
        with mpmath.workdps(30):
            want = mpmath.mpf(2) ** (-p / 2) * mpmath.gamma(p + 1) * (p + 2) / 2
        assert est.rigor.kind == "tolerance" and est.rigor.epsilon < 1e-12
        assert abs(est.raw_moment / want - 1) <= est.rigor.epsilon

    def test_base_levels_are_char_function_integrals(self, monkeypatch):
        # one charFunction integral per prefix of the unit-scale vector,
        # shortest first; its error bound carries over and its refusals are
        # the recursion's, so a ladder moves past them
        calls = []
        real = summoments._char_function_integral

        def spy(d, y, mom, q):
            value, err = real(d, y, mom, q)
            calls.append((list(y), q, err))
            return value, err

        monkeypatch.setattr(summoments, "_char_function_integral", spy)
        est = laplace_sum_moment_recursion(CV([1, 1, 0.5]), 7.5)
        assert [(y, q) for y, q, _ in calls] == [([0.5], 1.5), ([0.5, 0.5], 1.5), ([0.5, 0.5, 0.25], 1.5)]
        assert est.rigor.epsilon >= max(err for _, _, err in calls)

        def diverges(*args, **kwargs):
            raise QuadratureError("forced")

        monkeypatch.setattr(summoments, "integrate_adaptive", diverges)
        with pytest.raises(QuadratureError):
            laplace_sum_moment_recursion(CV([1, 1]), 20.5)
        refusals = [summoments.ENGINES[e].refusals for e in ("recursion", "charFunction", "haagerup")]
        assert refusals[0] == refusals[1] == refusals[2]

    def test_no_work_cap_past_char_function(self, monkeypatch):
        # n 13^2 > EVEN_MOMENT_CAP: charFunction refuses the whole vector at
        # every p (13 levels and more), the recursion still answers without
        # a seed; it agrees with charFunction (14 levels at p = 3.5) run
        # under a raised cap
        n = EVEN_MOMENT_CAP // 13**2 + 1
        v = CV([1.0] * (n // 2) + [0.5] * (n - n // 2))
        with pytest.raises(EngineCapacityError, match="work"):
            char_function_moment(v, dists.sym_exponential(), 3.5)
        est = reference_estimate(v, dists.sym_exponential(), 3.5)
        assert est.method == "recursion" and est.rigor.epsilon < 1e-12
        monkeypatch.setattr(summoments, "EVEN_MOMENT_CAP", 14**2 * n)
        want = char_function_moment(v, dists.sym_exponential(), 3.5)
        assert abs(est.raw_moment / want.raw_moment - 1) <= est.rigor.epsilon + want.rigor.epsilon


class TestCharacteristicFunction:
    def test_at_zero(self):
        assert oracles.characteristic_function(CV([0.3, 1.7]), dists.RADEMACHER, 0.0) == 1.0
        assert oracles.characteristic_function(CV([0.3, 1.7]), dists.SYM_EXPONENTIAL, 0.0) == 1.0

    def test_values(self):
        assert oracles.characteristic_function(CV([1, 1]), dists.RADEMACHER, math.pi) == pytest.approx(
            1.0, rel=1e-12
        )
        assert oracles.characteristic_function(CV([SQRT2]), dists.SYM_EXPONENTIAL, 1.0) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            oracles.characteristic_function(CV([1]), dists.GAUSSIAN, 1.0)


def within_own_eps(est, exact):
    return est.rigor.kind == "tolerance" and abs(est.raw_moment - exact) <= est.rigor.epsilon * exact


class TestHaagerup:
    def test_single_rademacher(self):
        est = haagerup_moment(CV([1]), dists.rademacher(), 3.0)
        assert est.rigor.epsilon <= 1e-6
        assert within_own_eps(est, 1.0)

    def test_rademacher_corpus_within_derived_eps(self):
        # seeded vectors against enumeration, p = 2.5 at n >= 3 and p = 3 at
        # n >= 4 included; each record within its own eps, every eps <= 1e-6
        rng = np.random.default_rng(10)
        for n in range(1, 11):
            v = CV(rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n))
            for p in (2.5, 3.0, 3.5):
                est = haagerup_moment(v, dists.rademacher(), p)
                assert est.rigor.epsilon <= 1e-6
                assert within_own_eps(est, rademacher_sum_moment(v, p).raw_moment), (n, p)

    def test_single_exponential(self):
        got = haagerup_moment(CV([1]), dists.sym_exponential(), 3.0).raw_moment
        assert got == pytest.approx(3.0 / SQRT2, rel=1e-6)

    def test_two_term_equal_against_density_oracle(self):
        got = haagerup_moment(CV([1, 1]), dists.sym_exponential(), 3.0).raw_moment
        assert got == pytest.approx(oracles.two_term_laplace_moment(3.0), rel=1e-6)
        assert got == pytest.approx(15.0 / (2 * SQRT2), rel=1e-6)

    @pytest.mark.parametrize("p", [2.1, 2.5, 3.0, 3.5, 3.9])
    def test_agrees_with_partial_fractions(self, p):
        v = CV([2.0, 1.1, 0.4])
        want = laplace_sum_moment_exact(v, p).raw_moment
        got = haagerup_moment(v, dists.sym_exponential(), p).raw_moment
        assert got == pytest.approx(want, rel=1e-6)

    def test_rademacher_against_enumeration(self):
        v = CV([1.0, 0.6, 0.3, 0.9])
        for p in [2.5, 3.0, 3.7]:
            want = rademacher_sum_moment(v, p).raw_moment
            got = haagerup_moment(v, dists.rademacher(), p).raw_moment
            assert got == pytest.approx(want, rel=1e-6)

    def test_rejects_p_outside_open_interval(self):
        for p in [2.0, 4.0, 1.5, 5.0]:
            with pytest.raises(ValueError):
                haagerup_moment(CV([1]), dists.sym_exponential(), p)


class TestCharFunction:
    W2 = dists.weibull_tail(2.0)

    def check(self, est, want, slack=1e-15):
        # the label must hold: |error| <= eps of the reference, plus the
        # reference's own rounding
        assert est.method == "charFunction" and est.rigor.kind == "tolerance"
        assert est.rigor.epsilon <= CHAR_FUNCTION_TOLERANCE
        assert abs(est.raw_moment - want) <= (est.rigor.epsilon + slack) * want

    @pytest.mark.parametrize("p", [0.5, 1.5, 3.0, 3.5, 5.0, 5.5, 7.0])
    def test_single_weibull_closed_form(self, p):
        b = self.W2.scale
        est = char_function_moment(CV([-0.75]), self.W2, p)
        self.check(est, 0.75**p * b**p * math.gamma(1.0 + p / 2.0))

    @pytest.mark.parametrize("pair", [(1.0, 1.0), (1.3, -0.4), (0.7, 2.0)])
    def test_weibull_pairs_against_nested_quadrature(self, pair):
        for p in (0.5, 3.0, 3.5, 5.0, 5.5):
            want = oracles.weibull2_pair_moment(*pair, p, self.W2.scale)
            self.check(char_function_moment(CV(list(pair)), self.W2, p), want, slack=1e-13)

    @pytest.mark.parametrize("p", [1.5, 3.0, 3.5, 5.5, 7.3])
    def test_exponential_against_partial_fractions(self, p):
        rng = np.random.default_rng(44)
        for n in (1, 2, 3, 5):
            v = CV(rng.uniform(0.3, 2.0, n) * np.linspace(1.0, 1.5, n))
            want = laplace_sum_moment_exact(v, p).raw_moment
            self.check(char_function_moment(v, dists.sym_exponential(), p), want, slack=1e-13)
            # Weibull alpha = 1 is the same law
            self.check(char_function_moment(v, dists.weibull_tail(1.0), p), want, slack=1e-13)

    def test_continuous_with_even_moments_at_four(self):
        for v in (CV([1.0]), CV([1.0, 2.0]), CV([0.3, 1.0, 2.0, 0.5, 0.1])):
            exact = even_sum_moment(v, self.W2, 4.0).raw_moment
            below, above = (char_function_moment(v, self.W2, 4.0 + h).raw_moment for h in (-1e-6, 1e-6))
            # first order in the step on each side, second order in the mean
            assert abs(below - exact) <= 1e-5 * exact and abs(above - exact) <= 1e-5 * exact
            assert abs(0.5 * (below + above) - exact) <= 1e-11 * exact

    @pytest.mark.parametrize("v", [CV(np.random.default_rng(45).uniform(-1.0, 1.0, 5)), CV([1.0 / 8.0] * 64)])
    def test_weibull_sums_against_monte_carlo(self, v):
        ps = [3.0, 3.5, 5.0]
        for p, mc in zip(ps, monte_carlo_sum_moments(v, self.W2, ps, 200_000, 46)):
            est = char_function_moment(v, self.W2, p)
            assert est.rigor.epsilon <= CHAR_FUNCTION_TOLERANCE
            assert abs(est.raw_moment - mc.raw_moment) <= mc.rigor.halfwidth

    def test_permutation_sign_invariance_and_homogeneity(self):
        rng = np.random.default_rng(47)
        a = rng.uniform(-2.0, 2.0, 6)
        flipped = rng.permutation(a * rng.choice([-1.0, 1.0], a.size))
        for p in (1.5, 3.0, 5.5):
            base = char_function_moment(CV(a), self.W2, p)
            assert char_function_moment(CV(flipped), self.W2, p) == base
            # a power of two leaves the scaled problem, so the label, as it is
            scaled = char_function_moment(CV(8.0 * a), self.W2, p)
            assert scaled.rigor == base.rigor
            assert scaled.raw_moment == pytest.approx(8.0**p * base.raw_moment, rel=1e-15)
            scaled = char_function_moment(CV(1.7 * a), self.W2, p)
            assert scaled.raw_moment == pytest.approx(1.7**p * base.raw_moment, rel=1e-13)

    def test_weibull_bounds_it_relies_on(self):
        # the pieces of every record with a closed-form phi, at a shape it applies to
        laws = (dists.rademacher(), dists.sym_exponential(), dists.weibull_tail(2.0))
        assert {d.kind for d in laws} == {k for k, law in dists.LAWS.items() if law.char is not None}
        t = np.linspace(1e-3, 400.0, 400_001)
        for d in laws:
            char = dists.LAWS[d.kind].char
            assert char.refusal(d, 3.0) is None
            phi, envelope, mgf, radius = char.sums(d, np.array([1.0]))
            # the phi-tail envelope bounds sup_{s >= t} |phi_X(s)| at every grid point
            sup = np.maximum.accumulate(np.abs(phi(t))[::-1])[::-1]
            assert np.all(np.array([envelope(s) for s in t.tolist()]) >= sup), d

            # E cosh(u X) = 1 + int_0^inf u sinh(u r) P(|X| >= r) dr, the
            # series bound, by quadrature below the radius
            def integrand(r, u):
                tail = dists.tail_probability(d, r)
                return u * math.sinh(u * r) * tail if tail else 0.0

            for u in [u for u in (0.5, 0.9, 2.0, 4.0) if u < radius]:
                want, _ = integrate.quad(integrand, 0.0, 200.0, args=(u,), points=[1.0], limit=400)
                assert mgf(u) == pytest.approx(1.0 + want, rel=1e-12), (d, u)

    @pytest.mark.parametrize("p", [0.0, 2.0, 4.0, 6.0])
    def test_refuses_even_orders(self, p):
        with pytest.raises(EngineCapacityError, match="even integer"):
            char_function_moment(CV([1.0, 0.5]), self.W2, p)

    @pytest.mark.parametrize("d", [dists.weibull_tail(1.5), dists.weibull_tail(3.0)])
    def test_refuses_laws_without_closed_form(self, d):
        with pytest.raises(EngineCapacityError, match="closed-form"):
            char_function_moment(CV([1.0, 0.5]), d, 3.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 1.99])
    def test_refuses_rademacher_below_two(self, p):
        # on lattices the phi_S of signs has peaks of height 1 that the tail
        # blocks can step over, so eps is no bound below 2: 300 equal
        # coefficients at p = 1.5 land 7.2 eps off
        with pytest.raises(EngineCapacityError, match="p > 2"):
            char_function_moment(CV([1.0, 0.5]), dists.rademacher(), p)

    def test_refuses_a_bound_past_the_label(self):
        with pytest.raises(EngineCapacityError, match="error bound"):
            char_function_moment(CV([1.0]), self.W2, 13.5)

    def test_refuses_large_p_before_any_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(summoments, "integrate_adaptive", forbidden)
        for v in (CV([1.0, 2.0]), CV([1.0] * 5), CV([1.5, 0.5, 0.3])):
            with pytest.raises(EngineCapacityError, match="error bound is at least"):
                char_function_moment(v, self.W2, 25.0)

    def test_refuses_work_and_range(self):
        with pytest.raises(EngineCapacityError, match=str(EVEN_MOMENT_CAP)):
            char_function_moment(CV([1.0] * 2000), self.W2, 3.0)
        # no range refusal: moments past the float range keep their norm
        for values, p in (([1.0, 1.0], 3.0), ([1.0, 3.0], 3.5)):
            base = char_function_moment(CV(values), self.W2, p)
            for scale in (1e200, 1e-200):
                est = char_function_moment(CV([scale * x for x in values]), self.W2, p)
                assert est.raw_moment is None
                assert est.value == pytest.approx(scale * base.value, rel=2 * base.rigor.epsilon)


def lattice_moment(levels, p):
    """Exact E|S|^p for S the sum of `count` signs of weight c over the
    (c, count) levels: a binomial sum over the values S attains."""
    law = {0.0: 1.0}
    for c, count in levels:
        grown = {}
        for x, w in law.items():
            for k in range(count + 1):
                y = x + c * (count - 2 * k)
                grown[y] = grown.get(y, 0.0) + w * math.comb(count, k) / 2.0**count
        law = grown
    return math.fsum(w * abs(x) ** p for x, w in law.items())


class TestCharFunctionRademacher:
    R = dists.rademacher()

    def test_against_enumeration_past_four(self):
        rng = np.random.default_rng(48)
        for n in (1, 2, 5, 9, 14):
            v = CV(rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n))
            for p in (4.5, 5.5, 7.5, 9.5):
                est = char_function_moment(v, self.R, p)
                assert est.rigor.epsilon <= 1e-6
                assert within_own_eps(est, rademacher_sum_moment(v, p).raw_moment), (n, p)

    def test_lattice_corpus_past_the_enumeration_cap(self):
        # equal and two-level coefficients, n > ENUMERATION_CAP: the ladder
        # takes them without a seed, each value within its own eps of the
        # exact binomial sum
        rng = np.random.default_rng(49)
        for _ in range(24):
            n = int(rng.integers(ENUMERATION_CAP + 1, 240))
            p = float(rng.choice([2.05, 2.5, 3.0, 3.5, 5.5, 7.5, 9.5]))
            scale = float(rng.uniform(0.1, 10.0))
            if rng.random() < 0.5:
                levels = [(scale, n)]
            else:
                head = int(rng.integers(1, n))
                levels = [(scale, head), (scale * float(rng.choice([0.25, 1 / 3, 0.5, 0.6, 0.75])), n - head)]
            values = [c * float(rng.choice([-1.0, 1.0])) for c, count in levels for _ in range(count)]
            est = reference_estimate(CV(values), self.R, p)
            assert est.method == "charFunction" and est.rigor.epsilon <= 1e-6
            assert within_own_eps(est, lattice_moment(levels, p)), (levels, p)

    def test_haagerup_is_char_function_between_two_and_four(self):
        v = CV([0.8, 0.7, 0.5, 0.4, 0.2])
        for d in (self.R, dists.sym_exponential(), dists.weibull_tail(2.0)):
            for p in (2.5, 3.0, 3.5):
                est = char_function_moment(v, d, p)
                want = MomentEstimate(est.p, est.raw_moment, est.value, "haagerup", est.rigor)
                assert haagerup_moment(v, d, p) == want


class TestMonteCarlo:
    def test_spot_values_within_ci(self):
        est = monte_carlo_sum_moment(CV([1, 1]), dists.sym_exponential(), 4, 10**6, 5)
        assert abs(est.raw_moment - 18.0) <= est.rigor.halfwidth
        est = monte_carlo_sum_moment(CV([1, 1, 1]), dists.rademacher(), 4, 10**6, 6)
        assert abs(est.raw_moment - 21.0) <= est.rigor.halfwidth
        est = monte_carlo_sum_moment(CV([1]), dists.gaussian(), 2, 10**6, 7)
        assert abs(est.raw_moment - 1.0) <= est.rigor.halfwidth

    def test_deterministic_per_seed(self):
        a = monte_carlo_sum_moment(CV([1, 2]), dists.gaussian(), 3, 10**5, 42)
        b = monte_carlo_sum_moment(CV([1, 2]), dists.gaussian(), 3, 10**5, 42)
        c = monte_carlo_sum_moment(CV([1, 2]), dists.gaussian(), 3, 10**5, 43)
        assert a == b
        assert a.raw_moment != c.raw_moment

    @pytest.mark.parametrize(
        "d",
        [dists.rademacher(), dists.sym_exponential(), dists.gaussian(), dists.weibull_tail(1.5)],
        ids=lambda d: f"{d.kind}-{d.alpha}",
    )
    def test_in_place_arithmetic_keeps_every_bit(self, d):
        # the estimates of the loop that squared into a temporary and drew
        # from the sampler's formulas with temporaries
        ps = [1.0, 2.0, 2.5, 4.0]
        for seed in (3, 11):
            for values, samples in (([1.0], 10_000), ([0.5, -2.0, 0.25], 70_001)):
                (y,), (e,) = summoments._canonical(np.array(values))
                sums, squares = dict.fromkeys(ps, 0.0), dict.fromkeys(ps, 0.0)
                for block, lo in enumerate(range(0, samples, 1 << 16)):
                    size = (min(1 << 16, samples - lo), len(y))
                    abs_s = np.abs(oracles.sample_array_reference(d, dists.substream(seed, block), size) @ y)
                    for p in ps:
                        x = abs_s**p
                        sums[p] += float(np.sum(x))
                        squares[p] += float(np.sum(x * x))
                want = []
                for p in ps:
                    mean = sums[p] / samples
                    var = max(squares[p] - samples * mean * mean, 0.0) / (samples - 1)
                    halfwidth = summoments._scale_moment(3.0 * math.sqrt(var / samples), e, p)
                    want.append(MomentEstimate.scaled(p, mean, e, "monteCarlo", Rigor.ci(halfwidth, 0.997)))
                assert monte_carlo_sum_moments(CV(values), d, ps, samples, seed) == want

    def test_rejects_small_sample_counts(self):
        with pytest.raises(ValueError):
            monte_carlo_sum_moment(CV([1]), dists.gaussian(), 2, 9_999, 1)

    def test_multi_p_shares_draws(self):
        ests = monte_carlo_sum_moments(CV([1, 1]), dists.sym_exponential(), [2.0, 4.0], 10**5, 3)
        single = monte_carlo_sum_moment(CV([1, 1]), dists.sym_exponential(), 2.0, 10**5, 3)
        assert ests[0] == single

    def test_ci_confidence(self):
        est = monte_carlo_sum_moment(CV([1]), dists.gaussian(), 2, 10**4, 1)
        assert est.rigor.kind == "ci"
        assert est.rigor.confidence == 0.997


class TestGaussianSum:
    def test_examples(self):
        assert gaussian_sum_norm(CV([3, 4]), 2).value == pytest.approx(5.0, rel=1e-14)
        assert gaussian_sum_norm(CV([1]), 4).value == pytest.approx(3**0.25, rel=1e-13)
        assert gaussian_sum_norm(CV([1, 1]), 4).value == pytest.approx(
            3**0.25 * SQRT2, rel=1e-13
        )
        assert gaussian_sum_norm(CV([1]), 4).rigor.kind == "exact"


ENGINES = {
    "enumeration": lambda v, p: rademacher_sum_moment(v, p),
    "partialFractions": lambda v, p: laplace_sum_moment_exact(v, p),
    "recursion": lambda v, p: laplace_sum_moment_recursion(v, p),
    "haagerup": lambda v, p: haagerup_moment(v, dists.sym_exponential(), p),
    "charFunction": lambda v, p: char_function_moment(v, dists.sym_exponential(), p),
    "monteCarlo": lambda v, p: monte_carlo_sum_moment(v, dists.sym_exponential(), p, 10**5, 17),
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_permutation_and_sign_invariance(name):
    engine = ENGINES[name]
    v1 = CV([1.5, -0.7, 0.3])
    v2 = CV([0.3, 1.5, 0.7])  # permuted, signs flipped
    p = 3.0
    assert engine(v1, p).raw_moment == engine(v2, p).raw_moment


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_scaling(name):
    engine = ENGINES[name]
    v = CV([1.1, -0.6, 0.35])
    lam = 1.7
    p = 3.0
    base = engine(v, p)
    scaled = engine(CV([lam * x for x in v.values]), p)
    rel = 2 * base.rigor.epsilon if name == "haagerup" else (0.05 if name == "monteCarlo" else 1e-9)
    assert scaled.raw_moment == pytest.approx(lam**p * base.raw_moment, rel=rel)
    assert scaled.value == pytest.approx(lam * base.value, rel=rel)


LAWS = {
    dists.RADEMACHER: dists.rademacher(),
    dists.SYM_EXPONENTIAL: dists.sym_exponential(),
    dists.GAUSSIAN: dists.gaussian(),
    dists.WEIBULL_TAIL: dists.weibull_tail(2.0),
}


def run_engine(name, law, values, p):
    """The estimate of one registry engine, seeded, or None where it refuses
    the input or p lies outside its domain."""
    engine = summoments.ENGINES[name]
    given = {"v": CV(values), "d": LAWS[law], "p": p, "samples": 10_000, "seed": 5}
    try:
        return getattr(summoments, engine.function)(*[given[arg] for arg in engine.args])
    except (ValueError, *engine.refusals):
        return None


def norm_width(est):
    """The relative width of the rigor class of est on the norm scale."""
    r = est.rigor
    if r.kind == "exact" or est.value == 0.0:
        return 0.0
    rel = r.epsilon if r.kind == "tolerance" else r.halfwidth / est.raw_moment
    return (1.0 + rel) ** (1.0 / est.p) - 1.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.one_of(st.floats(0.05, 20.0), st.just(0.0)), min_size=1, max_size=5),
    st.lists(st.booleans(), min_size=5, max_size=5),
    st.one_of(st.sampled_from([2.0, 4.0, 6.0, 8.0]), st.floats(1.0, 9.0).filter(lambda x: x % 2 != 0)),
    st.integers(-990, 990),
    st.integers(-300, 300),
)
def test_scaling_covariance(magnitudes, signs, p, k, j):
    # every engine computes on the unit-scale vector: at 2^k a it sees the
    # same one (Monte Carlo the same draws), so the norm scales to the bit;
    # at 1.7 10^j a the unit-scale vector moves by rounding only
    a = [-x if s else x for x, s in zip(magnitudes, signs)]
    lam = 1.7 * 10.0**j
    for name, engine in summoments.ENGINES.items():
        for law in sorted(engine.laws):
            base = run_engine(name, law, a, p)
            if base is None:
                continue
            for exact_scale, values, want in ((True, [math.ldexp(x, k) for x in a], math.ldexp(base.value, k)),
                                              (False, [lam * x for x in a], lam * base.value)):
                try:
                    est = run_engine(name, law, values, p)
                except EngineCapacityError as exc:
                    # the ci label cannot carry a raw moment past the float range
                    assert name == "monteCarlo" and "normal float range" in str(exc)
                    continue
                if exact_scale:
                    assert est is not None and est.value == want, (name, law)
                elif est is not None:
                    slack = 4 * math.ulp(want)
                    if name == "partialFractions":
                        # the partial-fraction sum moves with its residue mass
                        slack *= float(np.abs(summoments._residue_rows(summoments._canonical(a)[0])[0]).sum())
                    assert abs(est.value - want) <= want * (norm_width(base) + norm_width(est)) + slack, (name, law)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=6),
    st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0]),
)
def test_norm_scale_consistency(values, p):
    est = rademacher_sum_moment(CV(values), p)
    if est.raw_moment is None:
        # E|S|^p is below the normal range; the norm is not
        assert 0.0 < est.value and math.log2(est.value) * p < -1021
    elif est.raw_moment > 0:
        assert est.value == pytest.approx(est.raw_moment ** (1 / p), rel=1e-12)
    else:
        assert est.value == 0.0


def test_engine_agreement_small_corpus():
    rng = np.random.default_rng(21)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.3, 2.0, n)
        if np.min(np.abs(np.subtract.outer(a * a, a * a))[~np.eye(n, dtype=bool)]) < 1e-3:
            continue
        v = CV(a)
        for p in [2.5, 3.0, 3.5]:
            exact = laplace_sum_moment_exact(v, p)
            haag = haagerup_moment(v, dists.sym_exponential(), p)
            rec = laplace_sum_moment_recursion(v, p)
            mc = monte_carlo_sum_moment(v, dists.sym_exponential(), p, 10**5, 31)
            assert haag.raw_moment == pytest.approx(exact.raw_moment, rel=1e-5)
            assert rec.raw_moment == pytest.approx(exact.raw_moment, rel=1e-8)
            assert abs(mc.raw_moment - exact.raw_moment) <= mc.rigor.halfwidth
