import dataclasses
import json
import math

import numpy as np
import pytest

from momentbounds import coeffs, dists, summoments, verify
from momentbounds.coeffs import CoefficientVector
from momentbounds.dists import gamma_p
from momentbounds.errors import JobValidationError
from momentbounds.verify import (
    SearchConfig,
    _Norm,
    _Tally,
    check_bounds_sandwich,
    check_comparison_chain,
    check_cos_product,
    check_extremality,
    check_gk_ratio,
    check_p24_comparison,
    default_t_grid,
    merge_reports,
    reference_estimate,
    sample_coefficient_vector,
    search_counterexamples,
    suite,
)

CV = CoefficientVector
SQRT2 = math.sqrt(2.0)


class TestSlackDiscipline:
    def test_exact_pass_and_violation(self):
        t = _Tally()
        t.compare(_Norm.exact(1.0), _Norm.exact(1.0))
        t.compare(_Norm.exact(1.0), _Norm.exact(1.0 + 5e-10))  # inside slack
        assert t.violations == 0 and t.inconclusive == 0
        t.compare(_Norm.exact(1.0), _Norm.exact(1.1))
        assert t.violations == 1

    def test_statistical_classification(self):
        t = _Tally()
        # decisive pass: CI well clear of the boundary
        t.compare(_Norm(2.0, 1.9, 2.1, True), _Norm.exact(1.0))
        assert (t.violations, t.ci_resolved, t.inconclusive) == (0, 1, 0)
        # straddle: equality within CI is inconclusive, never a pass
        t.compare(_Norm(1.0, 0.9, 1.1, True), _Norm.exact(1.05))
        assert (t.violations, t.ci_resolved, t.inconclusive) == (0, 1, 1)
        # certified violation even after CI widening
        t.compare(_Norm(1.0, 0.9, 1.1, True), _Norm.exact(1.5))
        assert t.violations == 1

    def test_worst_margin_is_raw_difference(self):
        t = _Tally()
        t.compare(_Norm(1.0, 0.9, 1.1, True), _Norm.exact(1.05))
        assert t.worst == pytest.approx(-0.05)


class TestCosProduct:
    def test_single_coefficient_reduces_to_cosine_bound(self):
        # cos t + t^2/2 >= 1 (empty right product)
        r = check_cos_product(CV([1.0]), np.linspace(0, 50, 5001))
        assert r.violations == 0

    def test_two_ones_at_pi(self):
        r = check_cos_product(CV([1.0, 1.0]), [math.pi])
        assert r.violations == 0
        assert r.worst_margin > 5.0

    def test_flat_ten_on_default_grid(self):
        r = check_cos_product(CV([1.0] * 10), default_t_grid())
        assert r.cases == 100_001
        assert r.violations == 0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            check_cos_product(CV([1.0, 2.0]), [0.5])

    def test_report_deterministic(self):
        grid = default_t_grid(dists.substream(5, 0))
        r1 = check_cos_product(CV([2, 1, 0.5]), grid, seed=5)
        r2 = check_cos_product(CV([2, 1, 0.5]), grid, seed=5)
        assert r1 == r2


class TestComparisonChain:
    def test_equality_chain_single_coefficient(self):
        r = check_comparison_chain(CV([1, 0, 0]), 2.0, seed=1)
        assert r.violations == 0
        assert r.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_three_ones_at_p3_matches_derived_values(self):
        r = check_comparison_chain(CV([1, 1, 1]), 3.0, seed=1)
        assert r.violations == 0
        assert r.cases == 3

    def test_random_instances(self):
        rng = dists.substream(77, 0)
        for _ in range(10):
            v = sample_coefficient_vector(rng, int(rng.integers(1, 7)))
            for p in [2.0, 3.0, 4.0]:
                r = check_comparison_chain(v, p, seed=3)
                assert r.violations == 0

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            check_comparison_chain(CV([1]), 1.5, seed=0)


class TestP24:
    def test_empty_right_side(self):
        r = check_p24_comparison(CV([1.0]), 3.0, seed=0)
        assert r.violations == 0

    def test_two_ones_closed_forms(self):
        # E|eps1+eps2|^3 = 4 vs E|E|^3 = 3/sqrt2
        r = check_p24_comparison(CV([1.0, 1.0]), 3.0, seed=0)
        assert r.violations == 0
        assert r.worst_margin == pytest.approx(4 ** (1 / 3) - (3 / SQRT2) ** (1 / 3), rel=1e-6)

    def test_p_range_enforced(self):
        with pytest.raises(ValueError):
            check_p24_comparison(CV([1.0]), 4.5, seed=0)


class TestExtremality:
    def test_alpha_one_degenerate_link_is_exact(self):
        # X = E in law: the middle term is the exact exponential norm, so the
        # right link is an exact equality, neither violated nor inconclusive
        r = check_extremality(CV([1, 1, 1]), 1.0, 3.0, seed=4, samples=50_000)
        assert r.violations == 0 and r.inconclusive == 0
        assert r.worst_margin == 0.0

    def test_alpha_two(self):
        r = check_extremality(CV([1, 1, 1]), 2.0, 4.0, seed=4, samples=50_000)
        assert r.violations == 0

    def test_single_coefficient_closed_forms(self):
        # E|eps|^3 = 1 <= E|X|^3 = b^3 Gamma(2) <= E|E|^3 = 3/sqrt2
        d = dists.weibull_tail(3.0)
        left = 1.0
        mid = dists.single_abs_moment(d, 3.0)
        right = dists.exponential_abs_moment(3.0)
        assert left <= mid <= right
        r = check_extremality(CV([1]), 3.0, 3.0, seed=4, samples=100_000)
        assert r.violations == 0


class TestSandwich:
    def test_rademacher_example(self):
        r = check_bounds_sandwich(CV([1, 1, 1]), dists.rademacher(), 3.0, seed=2)
        assert r.violations == 0

    def test_exponential_example(self):
        r = check_bounds_sandwich(CV([1, 1]), dists.sym_exponential(), 4.0, seed=2)
        assert r.violations == 0

    def test_weibull_flat_vector_gap(self):
        v = CV([0.1] * 100)
        r = check_bounds_sandwich(v, dists.weibull_tail(2.0), 3.0, seed=2, samples=50_000)
        assert r.violations == 0


class TestGkRatio:
    def test_ratio_within_default_band(self):
        r = check_gk_ratio(CV([1.2, 0.8, 0.5]), dists.sym_exponential(), 3.0, seed=2)
        assert r.violations == 0 and r.cases == 2

    def test_zero_head_skipped(self):
        r = check_gk_ratio(CV([0.0, 0.0]), dists.sym_exponential(), 3.0, seed=2)
        assert r.cases == 0


class TestSearch:
    def test_finds_no_counterexamples(self):
        for check in ["cos_product", "rec2"]:
            r = search_counterexamples(SearchConfig(check, iterations=400, seed=11))
            assert r.violations == 0, check
            assert r.witness is not None

    def test_zero_vector_equality_margins(self):
        r = check_cos_product(CV([0.0, 0.0]), [0.5, 1.0])
        assert r.violations == 0
        assert r.worst_margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("check", ["comp2", "p24"])
    def test_witness_replays_at_its_p(self, check):
        r = search_counterexamples(SearchConfig(check, iterations=60, seed=17))
        v, p = CV(r.witness), r.witness_p
        assert p in SearchConfig(check).p_grid
        rad = summoments.rademacher_sum_moment(v, p).value
        if check == "p24":
            margin = rad - reference_estimate(CV(r.witness[1:]), dists.sym_exponential(), p).value
        else:
            _, tail = coeffs.head_tail_split(v, p)
            lap = reference_estimate(tail, dists.sym_exponential(), p).value
            links = (gamma_p(p) * coeffs.norm(v, 2) - rad, rad - lap, lap - gamma_p(p) * coeffs.norm(tail, 2))
            margin = min(links)
        assert margin == r.worst_margin

    def test_witness_p_of_the_other_checks(self):
        assert search_counterexamples(SearchConfig("cos_product", iterations=5, seed=1)).witness_p is None
        r = search_counterexamples(SearchConfig("rec2", iterations=5, seed=1))
        assert r.witness_p == r.witness[2]

    def test_reproducible(self):
        a = search_counterexamples(SearchConfig("comp2", iterations=60, seed=13))
        b = search_counterexamples(SearchConfig("comp2", iterations=60, seed=13))
        assert a == b

    def test_monotone_coverage(self):
        small = search_counterexamples(SearchConfig("p24", iterations=50, seed=13))
        big = search_counterexamples(SearchConfig("p24", iterations=150, seed=13))
        assert big.cases >= small.cases
        assert small.violations == 0 and big.violations == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig("nonsense", iterations=10, seed=0)
        with pytest.raises(ValueError):
            SearchConfig("comp2", iterations=0, seed=0)


class TestSuite:
    def test_reports_reproducible_byte_for_byte(self):
        r1 = suite(42, samples=20_000, checks=("comp2", "p24"))
        r2 = suite(42, samples=20_000, checks=("comp2", "p24"))
        s1 = json.dumps([dataclasses.asdict(r) for r in r1])
        s2 = json.dumps([dataclasses.asdict(r) for r in r2])
        assert s1 == s2

    def test_merge_fold(self):
        r1 = suite(1, samples=20_000, checks=("p24",))[0]
        assert r1.cases > 0
        merged = merge_reports([r1, r1], "p24", 1)
        assert merged.cases == 2 * r1.cases
        assert merged.worst_margin == r1.worst_margin

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            suite(1, checks=("bogus",))

    def test_extremality_seed_50_has_no_false_violation(self):
        # at alpha = 1 the middle term is the exact exponential norm, not a
        # Monte Carlo interval around it (200k samples, as the CLI runs it)
        (rep,) = suite(50, samples=200_000, checks=("extremality",))
        assert rep.cases == 144
        assert rep.violations == 0


class TestReferenceEstimate:
    def test_ladders(self):
        est = reference_estimate(CV([1, 1]), dists.rademacher(), 3.0)
        assert est.method == "enumeration"
        est = reference_estimate(CV([1, 1]), dists.rademacher(), 4.0)
        assert est.method == "evenMoments" and est.raw_moment == 8.0
        est = reference_estimate(CV([2, 1]), dists.sym_exponential(), 3.0)
        assert est.method == "partialFractions"
        est = reference_estimate(CV([1, 1]), dists.sym_exponential(), 3.0)
        assert est.method == "recursion"  # equal coefficients: PF refuses
        est = reference_estimate(CV([1]), dists.gaussian(), 3.0)
        assert est.method == "closedForm"
        est = reference_estimate(CV([1]), dists.weibull_tail(2.0), 3.0, samples=10**4, seed=1)
        assert est.method == "monteCarlo"
        est = reference_estimate(CV([1]), dists.weibull_tail(2.0), 4.0)
        assert est.method == "evenMoments" and est.rigor.kind == "exact"
        with pytest.raises(JobValidationError, match="seed"):
            reference_estimate(CV([1]), dists.weibull_tail(2.0), 3.0)
        # Weibull alpha = 1 is the two-sided exponential: its exact ladder, no seed
        for v, method in (([2, 1], "partialFractions"), ([1, 1], "recursion")):
            est = reference_estimate(CV(v), dists.weibull_tail(1.0), 3.0)
            assert est.method == method
            assert est == reference_estimate(CV(v), dists.sym_exponential(), 3.0)

    def test_prefer_override(self):
        est = reference_estimate(
            CV([2, 1]), dists.sym_exponential(), 3.0, prefer=["haagerup"]
        )
        assert est.method == "haagerup"
