import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from momentbounds import dists
from momentbounds.coeffs import CoefficientVector
from momentbounds.errors import (
    DegenerateCoefficientsError,
    EngineCapacityError,
    ResidueCancellationError,
)
from momentbounds.summoments import (
    ENUMERATION_CAP,
    EVEN_MOMENT_CAP,
    MomentEstimate,
    Rigor,
    even_sum_moment,
    gaussian_sum_norm,
    haagerup_moment,
    laplace_residues,
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
        with pytest.raises(ValueError):
            MomentEstimate(2.0, 4.0, 3.0, "enumeration", Rigor.exact())
        est = MomentEstimate.from_raw(2.0, 4.0, "enumeration", Rigor.exact())
        assert est.value == 2.0

    def test_exact_rigor_restricted_to_exact_paths(self):
        with pytest.raises(ValueError):
            MomentEstimate.from_raw(2.0, 4.0, "monteCarlo", Rigor.exact())
        with pytest.raises(ValueError):
            MomentEstimate.from_raw(2.0, 4.0, "haagerup", Rigor.exact())

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
            ([1e200, 1e200], dists.rademacher(), 4.0),  # the raw moment
            ([0.99, 0.99], dists.gaussian(), 300.0),  # a level of the scaled sum
            ([1.0], dists.weibull_tail(1.0), 400.0),  # E X^400
        ],
    )
    def test_refuses_overflow(self, values, d, p):
        with pytest.raises(EngineCapacityError, match="overflow"):
            even_sum_moment(CV(values), d, p)


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
            try:
                aa, c = laplace_residues(CV(a))
            except (DegenerateCoefficientsError, ResidueCancellationError):
                continue
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
        assert est.raw_moment == pytest.approx(dists.exponential_abs_moment(2.5), rel=1e-10)


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


class TestHaagerup:
    def test_single_rademacher(self):
        est = haagerup_moment(CV([1]), dists.RADEMACHER, 3.0)
        assert est.raw_moment == pytest.approx(1.0, rel=1e-6)
        assert est.rigor == Rigor.tolerance(1e-6)

    def test_single_exponential(self):
        got = haagerup_moment(CV([1]), dists.SYM_EXPONENTIAL, 3.0).raw_moment
        assert got == pytest.approx(3.0 / SQRT2, rel=1e-6)

    def test_two_term_equal_against_density_oracle(self):
        got = haagerup_moment(CV([1, 1]), dists.SYM_EXPONENTIAL, 3.0).raw_moment
        assert got == pytest.approx(oracles.two_term_laplace_moment(3.0), rel=1e-6)
        assert got == pytest.approx(15.0 / (2 * SQRT2), rel=1e-6)

    @pytest.mark.parametrize("p", [2.1, 2.5, 3.0, 3.5, 3.9])
    def test_agrees_with_partial_fractions(self, p):
        v = CV([2.0, 1.1, 0.4])
        want = laplace_sum_moment_exact(v, p).raw_moment
        got = haagerup_moment(v, dists.SYM_EXPONENTIAL, p).raw_moment
        assert got == pytest.approx(want, rel=1e-6)

    def test_rademacher_against_enumeration(self):
        v = CV([1.0, 0.6, 0.3, 0.9])
        for p in [2.5, 3.0, 3.7]:
            want = rademacher_sum_moment(v, p).raw_moment
            got = haagerup_moment(v, dists.RADEMACHER, p).raw_moment
            assert got == pytest.approx(want, rel=1e-6)

    def test_rejects_p_outside_open_interval(self):
        for p in [2.0, 4.0, 1.5, 5.0]:
            with pytest.raises(ValueError):
                haagerup_moment(CV([1]), dists.SYM_EXPONENTIAL, p)


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
    "haagerup": lambda v, p: haagerup_moment(v, dists.SYM_EXPONENTIAL, p),
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
    rel = 2e-6 if name == "haagerup" else (0.05 if name == "monteCarlo" else 1e-9)
    assert scaled.raw_moment == pytest.approx(lam**p * base.raw_moment, rel=rel)
    assert scaled.value == pytest.approx(lam * base.value, rel=rel)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=6),
    st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0]),
)
def test_norm_scale_consistency(values, p):
    est = rademacher_sum_moment(CV(values), p)
    if est.raw_moment > 0:
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
            haag = haagerup_moment(v, dists.SYM_EXPONENTIAL, p)
            rec = laplace_sum_moment_recursion(v, p)
            mc = monte_carlo_sum_moment(v, dists.sym_exponential(), p, 10**5, 31)
            assert haag.raw_moment == pytest.approx(exact.raw_moment, rel=1e-5)
            assert rec.raw_moment == pytest.approx(exact.raw_moment, rel=1e-8)
            assert abs(mc.raw_moment - exact.raw_moment) <= mc.rigor.halfwidth
