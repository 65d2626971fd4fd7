import dataclasses
import json
import math
import re

import numpy as np
import pytest

from momentbounds import bounds, coeffs, dists, summoments, verify
from momentbounds.coeffs import CoefficientVector
from momentbounds.dists import gamma_p
from momentbounds.errors import JobValidationError, QuadratureError
from momentbounds.verify import (
    CHECK_P_RANGES,
    SearchConfig,
    _Norm,
    _Tally,
    applicable_bounds,
    check_bounds_sandwich,
    check_comparison_chain,
    check_cos_product,
    check_extremality,
    check_gk_ratio,
    check_p24_comparison,
    default_t_grid,
    lowest_bound_order,
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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_certified_points_leave_the_report_bitwise_unchanged(self, n):
        # against every point evaluated: tiny a_1 (nothing certified), zero
        # vectors, grids without 0, negative t, and grids whose points are
        # all certified (every point is then evaluated after all)
        rng = np.random.default_rng(1000 + n)
        for case in range(12):
            scale = (1e-310, 0.0, 1e-4, 1.0, 30.0, 1e3)[case % 6]
            a = coeffs.rearrange(CV(rng.uniform(-1.0, 1.0, n) * scale)).as_array()
            if case % 6 == 3:
                a[n // 2 :] = 0.0
            cut = min(math.sqrt(8.0) / abs(float(a[0])), 1e300) if a[0] else 1.0
            for t in (
                default_t_grid(dists.substream(n, case)),
                rng.uniform(-50.0, 50.0, 400),
                np.geomspace(1e-3, 1e3, 300),
                cut * rng.uniform(1.0, 1e3, 50),
                -cut * rng.uniform(1.0, 1e3, 50),
            ):
                m = cos_margins(a, t)
                want = verify.VerificationReport(
                    "cos_product", len(t), int(np.sum(m < -1e-12)), float(np.min(m)), 0, 0, case
                )
                got = check_cos_product(CV(a), t, seed=case)
                assert got == want and math.copysign(1.0, got.worst_margin) == math.copysign(1.0, want.worst_margin)

    def test_only_points_below_the_cut_are_evaluated(self, monkeypatch):
        seen, sizes = [], []
        margins = verify._cos_product_margins

        def counted(a, t):
            seen.append(t.size)
            sizes.append(a.size)  # one row of coefficients per point
            return margins(a, t)

        monkeypatch.setattr(verify, "_cos_product_margins", counted)
        check_cos_product(CV([2, 1, 0.5]), default_t_grid(dists.substream(5, 0)))
        assert seen == [1416]
        seen.clear()
        (rep,) = suite(42, checks=["cos_product"])
        assert rep.cases == 1_320_012 and sum(seen) == 53_729
        assert max(sizes) <= verify._WORKING_SET
        # the one margin below the cut, cos 2.5 + 2.5^2/2 - 1 = 1.32, is not
        # below 1: the other point is evaluated after it
        seen.clear()
        assert check_cos_product(CV([1.0]), [2.5, 10.0]).worst_margin == math.cos(2.5) + 3.125 - 1.0
        assert seen == [1, 1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_point_is_refused(self, bad):
        with pytest.raises(ValueError, match=rf"t\[1\] = {bad!r} is not finite"):
            check_cos_product(CV([1.0, 0.5]), [0.0, bad, 1.0])

    @pytest.mark.parametrize("grid", [1.0, [[0.0, 1.0]]])
    def test_grid_must_be_a_sequence_of_points(self, grid):
        # a nested grid would count its rows as cases
        with pytest.raises(ValueError, match="sequence of points"):
            check_cos_product(CV([1.0]), grid)

    def test_overflowing_square_is_an_infinite_margin(self):
        # runs with warnings as errors: no overflow may reach numpy's handler
        r = check_cos_product(CV([1e200, 1.0]), [0.0, 1.0])
        assert (r.cases, r.violations, r.worst_margin) == (2, 0, 0.0)
        # nothing below the cut: every point is evaluated, a_1 t finite or not
        for t in ([1.0], [1.0, 1e300]):
            r = check_cos_product(CV([1e200, 1.0]), t)
            assert (r.cases, r.violations, r.worst_margin) == (len(t), 0, math.inf)


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
        right = dists.single_abs_moment(dists.sym_exponential(), 3.0)
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


def law_id(x):
    if isinstance(x, dists.DistributionSpec):
        return x.kind + (f"{x.alpha:g}" if x.alpha else "")
    return None


RADEMACHER_SOURCES = ["khintchine", "comp2", "estrad"]
LOGCONCAVE_SOURCES = ["logconc", "gaussGap"]


class TestApplicableBounds:
    @pytest.mark.parametrize(
        "d, p, sources",
        [
            (dists.rademacher(), 2.0, RADEMACHER_SOURCES),
            (dists.rademacher(), 2.5, RADEMACHER_SOURCES),
            (dists.rademacher(), 3.0, RADEMACHER_SOURCES + LOGCONCAVE_SOURCES),
            (dists.sym_exponential(), 2.0, ["estexp"]),
            (dists.sym_exponential(), 3.0, ["estexp"] + LOGCONCAVE_SOURCES),
            (dists.gaussian(), 2.0, []),
            (dists.gaussian(), 3.0, LOGCONCAVE_SOURCES),
            (dists.weibull_tail(2.0), 2.0, []),
            (dists.weibull_tail(2.0), 3.0, LOGCONCAVE_SOURCES),
            (dists.weibull_tail(1.0), 2.0, ["estexp"]),
            (dists.weibull_tail(1.0), 3.0, ["estexp"] + LOGCONCAVE_SOURCES),
        ],
        ids=law_id,
    )
    def test_sources_by_law_and_order(self, d, p, sources):
        found = applicable_bounds(CV([2.0, 1.0, 0.5]), d, p, samples=10_000, seed=3)
        assert [bi.source for bi, _, _ in found] == sources

    @pytest.mark.parametrize(
        "d, lowest",
        [
            (dists.rademacher(), 2.0),
            (dists.sym_exponential(), 2.0),
            (dists.gaussian(), 3.0),
            (dists.weibull_tail(2.0), 3.0),
            (dists.weibull_tail(1.0), 2.0),
        ],
        ids=law_id,
    )
    def test_lowest_bound_order(self, d, lowest):
        assert lowest_bound_order(d) == lowest

    def test_evaluators_are_looked_up_at_call_time(self, monkeypatch):
        # a wrapper installed on the bounds module (perfbench's tracer) sees every call
        calls = []
        for entry in bounds.BOUND_SOURCES.values():
            original = getattr(bounds, entry.function)
            monkeypatch.setattr(
                bounds, entry.function, lambda *a, _f=original, _n=entry.function: calls.append(_n) or _f(*a)
            )
        applicable_bounds(CV([2.0, 1.0]), dists.rademacher(), 3.0)
        assert calls == [
            "khintchine_bounds", "comp2_bounds", "rademacher_bounds",
            "logconcave_bounds", "logconcave_bounds", "logconcave_bounds", "gaussian_approx_gap",
        ]


CHECK_FUNCTIONS = {
    "comp2": lambda p: check_comparison_chain(CV([1.0, 0.5]), p, seed=0, samples=10_000),
    "p24": lambda p: check_p24_comparison(CV([1.0, 0.5]), p, seed=0, samples=10_000),
    "extremality": lambda p: check_extremality(CV([1.0, 0.5]), 1.5, p, seed=0, samples=10_000),
    "gk_ratio": lambda p: check_gk_ratio(CV([1.0, 0.5]), dists.sym_exponential(), p, seed=0, samples=10_000),
}


@pytest.mark.parametrize("check", list(CHECK_FUNCTIONS))
def test_check_refuses_orders_outside_its_range(check):
    lo, hi = CHECK_P_RANGES[check]
    outside = [float(np.nextafter(lo, 0.0))] + ([float(np.nextafter(hi, math.inf))] if math.isfinite(hi) else [])
    for p in outside:
        with pytest.raises(ValueError, match=f"the {check} check needs p in "):
            CHECK_FUNCTIONS[check](p)
    for p in (lo, hi) if math.isfinite(hi) else (lo,):
        assert CHECK_FUNCTIONS[check](p).violations == 0


class TestGkRatio:
    def test_ratio_within_default_band(self):
        r = check_gk_ratio(CV([1.2, 0.8, 0.5]), dists.sym_exponential(), 3.0, seed=2)
        assert r.violations == 0 and r.cases == 2

    def test_zero_head_skipped(self):
        r = check_gk_ratio(CV([0.0, 0.0]), dists.sym_exponential(), 3.0, seed=2)
        assert r.cases == 0


def cos_margins(a, t):
    """The cosine-product margins of one vector, one point per row."""
    lhs = np.prod(np.cos(np.outer(t, a)), axis=1) + 0.5 * (a[0] * t) ** 2 if len(a) else np.ones_like(t)
    rhs = np.exp(-np.sum(np.log1p(0.5 * np.outer(t, a[1:]) ** 2), axis=1)) if len(a) > 1 else np.ones_like(t)
    return lhs - rhs


ORDERS = {"comp2": lambda x: x >= 2.0, "p24": lambda x: 2.0 <= x <= 4.0, "rec2": lambda x: x >= 3.0}


def sequential_margin(check, inst, rng):
    if check == "cos_product":
        t = np.concatenate([np.geomspace(1e-3, 50.0, 64), rng.uniform(0.0, 100.0, 32)])
        return float(np.min(cos_margins(inst[0].as_array(), t)))
    if check == "rec2":
        a, b, p = inst
        rhs = abs(b) ** p + 0.5 * p * (p - 1.0) * a * a * abs(b) ** (p - 2.0)
        return (dists.single_moment_rademacher(a, b, p) - rhs) / max(1.0, abs(rhs))
    v, p = inst
    rad = summoments.rademacher_sum_moment(v, p).value
    if check == "p24":
        return rad - reference_estimate(CV(v.values[1:]), dists.sym_exponential(), p).value
    _, tail = coeffs.head_tail_split(v, p)
    lap = reference_estimate(tail, dists.sym_exponential(), p).value
    return min(gamma_p(p) * coeffs.norm(v, 2) - rad, rad - lap, lap - gamma_p(p) * coeffs.norm(tail, 2))


def sequential_search(cfg):
    """The hill-climb one iteration at a time: the reference the lockstep
    search must reproduce bit for bit."""
    rng = dists.substream(cfg.seed, 0)
    slack = verify.COS_PRODUCT_SLACK if cfg.check == "cos_product" else verify.NUMERICAL_SLACK * 10
    worst, witness, witness_p, violations, best, state = math.inf, None, None, 0, math.inf, None
    orders = [x for x in cfg.p_grid if ORDERS[cfg.check](x)] if cfg.check in ORDERS else None
    for it in range(cfg.iterations):
        if state is None or it % 25 == 0:
            best = math.inf
            if cfg.check == "rec2":
                inst = (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)), float(rng.choice(orders)))
            else:
                v = coeffs.rearrange(sample_coefficient_vector(rng, int(rng.integers(1, cfg.n_max + 1))))
                inst = (v,) if orders is None else (v, float(rng.choice(orders)))
        elif cfg.check == "rec2":
            a, b, p = state
            inst = (a * (1.0 + 0.1 * rng.standard_normal()), b * (1.0 + 0.1 * rng.standard_normal()), p)
        else:
            vals = state[0].as_array() * (1.0 + 0.15 * rng.standard_normal(len(state[0])))
            inst = (coeffs.rearrange(CV(vals)),) + state[1:]
        margin = sequential_margin(cfg.check, inst, rng)
        if margin < best:
            best, state = margin, inst
        if margin < worst:
            worst = margin
            witness = tuple(float(x) for x in (inst if cfg.check == "rec2" else inst[0].values))
            witness_p = None if cfg.check == "cos_product" else float(inst[-1])
        violations += margin < -slack
    return verify.VerificationReport(
        cfg.check + "_search", cfg.iterations, violations, worst, 0, 0, cfg.seed, witness, witness_p
    )


class TestSearch:
    @pytest.mark.parametrize("check", verify.SEARCH_CHECKS)
    @pytest.mark.parametrize("p_grid", [verify.SEARCH_P_GRID, (1.5, 2.0, 3.5, 4.5, 8.0)])
    def test_lockstep_matches_sequential(self, check, p_grid):
        for seed in (0, 13, 424242):
            for iterations in (1, 24, 25, 26, 137):
                for n_max in (1, 3, 6):
                    cfg = SearchConfig(check, n_max=n_max, p_grid=p_grid, iterations=iterations, seed=seed)
                    assert search_counterexamples(cfg) == sequential_search(cfg), cfg

    def test_cos_product_suite_check_unchanged(self):
        rng = dists.substream(3, 0)
        for n in (1, 2, 4, 8):
            v = coeffs.rearrange(sample_coefficient_vector(rng, n))
            grid = default_t_grid(rng)
            m = cos_margins(v.as_array(), grid)
            violations = int(np.sum(m < -1e-12))
            want = verify.VerificationReport("cos_product", len(grid), violations, float(np.min(m)), 0, 0, 3)
            assert check_cos_product(v, grid, seed=3) == want

    @pytest.mark.parametrize("p_grid, p", [((500.0,), 500.0), ((3.0, 700.0), 700.0)])
    def test_moment_out_of_float_range_raises(self, p_grid, p):
        # at n <= 12 and p = 500 the comp2 tail is empty, so the inequality
        # holds with margin 0; an overflowed enumeration moment must not
        # score as a violation with margin -inf
        cfg = SearchConfig("comp2", n_max=12, p_grid=p_grid, iterations=2000, seed=1)
        message = f"the comp2 search at p={p!r}: enumeration's moment of the unit-scale sum, inf, "
        with pytest.raises(OverflowError, match=re.escape(message)):
            search_counterexamples(cfg)

    def test_cos_product_search_skips_certified_points(self, monkeypatch):
        # 64 fixed and 32 random points an iteration; those with
        # |a_1 t| >= sqrt 8 have margin >= 2 and are not evaluated
        margins = verify._cos_product_margins
        evaluated = []

        def counted(a, t):
            evaluated.append(t.size)
            return margins(a, t)

        monkeypatch.setattr(verify, "_cos_product_margins", counted)
        search_counterexamples(SearchConfig("cos_product", iterations=10_000, seed=3))
        assert sum(evaluated) == 520_449  # of 10,000 x 96 = 960,000

    @pytest.mark.parametrize(
        "a, t",
        [
            # the first row has no point below the cut
            ([[1000.0, 1.0], [0.5, 0.25]], np.geomspace(0.01, 20.0, 40)),
            # its points below the cut have margins >= 1 only
            ([[1.0, 0.5], [0.5, 0.25]], np.linspace(2.5, 20.0, 40)),
        ],
    )
    def test_cos_product_scoring_falls_back_to_every_point(self, a, t, monkeypatch):
        a, t = np.array(a), np.broadcast_to(t, (2, 40))
        margins = verify._cos_product_margins
        full = np.min(margins(a, t), axis=1)
        seen = []

        def counted(rows, points):
            seen.extend(zip(rows[:, 0].tolist(), points[:, 0].tolist()))
            return margins(rows, points)

        monkeypatch.setattr(verify, "_cos_product_margins", counted)
        got = verify._search_margins("cos_product", a, None, t)
        assert got.tobytes() == full.tobytes()
        assert got[0] >= 1.0 > got[1]
        # every point of the first row, once; of the second, those below its cut
        cut = math.sqrt(8.0) / a[1, 0]
        want = [(a[0, 0], x) for x in t[0].tolist()] + [(a[1, 0], x) for x in t[1].tolist() if x < cut]
        assert sorted(seen) == sorted(want)

    @pytest.mark.parametrize("working_set", [verify._WORKING_SET, 50])
    def test_cos_product_scores_match_full_evaluation(self, working_set, monkeypatch):
        # batches mix rows that certify points, rows with no point below the
        # cut, rows whose evaluated margins are all >= 1, zero rows, a_1 from
        # 1e-310 to 1e200 and negative t; a small working set splits rows
        # across batches
        monkeypatch.setattr(verify, "_WORKING_SET", working_set)
        rng = np.random.default_rng(22)
        m = 48
        for n in range(1, 7):
            rows, points = [], []
            for scale in (1e-310, 0.0, 1e-4, 1.0, 30.0, 1e3, 1e200):
                a = coeffs.rearrange(CV(rng.uniform(-1.0, 1.0, n) * scale)).as_array()
                for t in (
                    np.concatenate([[0.0], rng.uniform(-50.0, 50.0, m - 1)]),
                    np.geomspace(0.01, 20.0, m),
                    -np.linspace(2.5, 20.0, m),
                ):
                    rows.append(a)
                    points.append(t)
            # the one point below the cut has margin about 1.32
            rows.append([1.0] + [1e-3] * (n - 1))
            points.append(np.linspace(2.5, 20.0, m))
            a, t = np.array(rows), np.array(points)
            got = verify._cos_product_scores(a, t)
            with np.errstate(over="ignore"):
                full = np.array([cos_margins(x, y) for x, y in zip(a, t)])
            assert got.min(axis=1).tobytes() == full.min(axis=1).tobytes()
            for slack in (verify.COS_PRODUCT_SLACK, 0.0, -0.5):
                assert ((got < -slack).sum(axis=1) == (full < -slack).sum(axis=1)).all()
            certified = np.isinf(got) & np.isfinite(full)
            assert certified.any() and (full[certified] >= 1.0).all()
            assert (np.isinf(got) | (got == full)).all()

    def test_p_grid_must_meet_the_check(self):
        for check, grid in (("comp2", (1.5,)), ("p24", (5.0, 6.0)), ("rec2", (2.5,))):
            with pytest.raises(ValueError, match=check):
                SearchConfig(check, p_grid=grid)
        assert SearchConfig("cos_product", p_grid=(1.5,)).p_grid == (1.5,)

    def test_enumerating_checks_cap_n_max(self):
        for check in ("comp2", "p24"):
            with pytest.raises(ValueError, match=str(summoments.ENUMERATION_CAP)):
                SearchConfig(check, n_max=summoments.ENUMERATION_CAP + 1)
        SearchConfig("cos_product", n_max=5000)

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

    @pytest.mark.parametrize(
        "p_grid, cases",
        [
            (None, [1_320_012, 288, 60, 144, 520, 72]),
            ((2.0, 2.5, 3.0, 4.0, 5.5, 7.0), [1_320_012, 216, 48, 144, 520, 72]),
        ],
    )
    def test_case_counts_per_check(self, p_grid, cases):
        # cos_product: 12 grids of 110,001 points; comp2 and p24: 12 vectors
        # at every order in range, 3 and 1 links; extremality: 4 shapes x 6
        # vectors x 3 orders, 2 links; sandwich: 9 vectors per law (10 for
        # Weibull) x 4 orders, 2 links per interval; gk_ratio: 2 laws x 6
        # vectors x 3 orders, 2 links
        reports = suite(42, samples=10_000, p_grid=p_grid)
        assert [r.check for r in reports] == list(verify.SUITE_CHECKS)
        assert [r.cases for r in reports] == cases

    def test_checks_are_looked_up_at_call_time(self, monkeypatch):
        # a wrapper installed on the verify module (perfbench's tracer) sees every case
        calls = {}
        functions = ["check_cos_product", "check_comparison_chain", "check_p24_comparison",
                     "check_extremality", "check_bounds_sandwich", "check_gk_ratio"]
        for check, name in zip(verify.SUITE_CHECKS, functions):
            def stub(*args, _check=check, _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return verify.VerificationReport(_check, 1, 0, 0.0, 0, 0, 0)

            monkeypatch.setattr(verify, name, stub)
        reports = suite(42)
        assert calls == dict(zip(functions, [12, 96, 60, 72, 112, 36]))
        assert [r.cases for r in reports] == [12, 96, 60, 72, 112, 36]

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
        # past the enumeration cap the characteristic function takes p > 2;
        # below 2 it refuses signs, so the ladder needs a seed there
        est = reference_estimate(CV([1] * 30), dists.rademacher(), 3.0)
        assert est.method == "charFunction" and est.rigor.kind == "tolerance"
        with pytest.raises(JobValidationError, match="seed"):
            reference_estimate(CV([1] * 30), dists.rademacher(), 1.5)
        est = reference_estimate(CV([2, 1]), dists.sym_exponential(), 3.0)
        assert est.method == "partialFractions"
        # equal coefficients: PF refuses; the characteristic function takes
        # them up to its cancellation floor, the recursion beyond, no seed
        est = reference_estimate(CV([1, 1]), dists.sym_exponential(), 3.0)
        assert est.method == "charFunction"
        est = reference_estimate(CV([1, 1]), dists.sym_exponential(), 20.5)
        assert est.method == "recursion" and est.rigor.kind == "tolerance"
        est = reference_estimate(CV([1, 1]), dists.sym_exponential(), 4.0)
        assert est.method == "recursion" and est.rigor.kind == "exact"  # charFunction refuses even p
        est = reference_estimate(CV([1]), dists.gaussian(), 3.0)
        assert est.method == "closedForm"
        est = reference_estimate(CV([1]), dists.weibull_tail(2.0), 3.0)
        assert est.method == "charFunction" and est.rigor.kind == "tolerance"
        est = reference_estimate(CV([1]), dists.weibull_tail(1.5), 3.0, samples=10**4, seed=1)
        assert est.method == "monteCarlo"
        est = reference_estimate(CV([1]), dists.weibull_tail(2.0), 4.0)
        assert est.method == "evenMoments" and est.rigor.kind == "exact"
        with pytest.raises(JobValidationError, match="seed"):
            reference_estimate(CV([1]), dists.weibull_tail(1.5), 3.0)
        # Weibull alpha = 1 is the two-sided exponential: its exact ladder, no seed
        for v, p, method in (([2, 1], 3.0, "partialFractions"), ([1, 1], 3.0, "charFunction"),
                             ([1, 1], 20.5, "recursion")):
            est = reference_estimate(CV(v), dists.weibull_tail(1.0), p)
            assert est.method == method
            assert est == reference_estimate(CV(v), dists.sym_exponential(), p)

    def test_char_function_quadrature_failure_moves_on(self, monkeypatch):
        def diverges(*args, **kwargs):
            raise QuadratureError("forced")

        monkeypatch.setattr(summoments, "integrate_adaptive", diverges)
        est = reference_estimate(CV([1, 2]), dists.weibull_tail(2.0), 3.0, samples=10**4, seed=1)
        assert est.method == "monteCarlo"
        with pytest.raises(JobValidationError, match="seed"):
            reference_estimate(CV([1, 2]), dists.weibull_tail(2.0), 3.0)

    def test_prefer_override(self):
        est = reference_estimate(
            CV([2, 1]), dists.sym_exponential(), 3.0, prefer=["haagerup"]
        )
        assert est.method == "haagerup"

    # every law the CLI takes, Weibull alpha = 1 being the exponential
    REGISTRY_LAWS = (
        dists.rademacher(),
        dists.sym_exponential(),
        dists.gaussian(),
        dists.weibull_tail(1.5),
        dists.weibull_tail(2.0),
        dists.weibull_tail(3.0),
    )

    @pytest.mark.parametrize("name", sorted(summoments.ENGINES))
    def test_pinned_engine_keeps_its_registry_entry(self, name):
        # an engine pinned alone refuses a law outside its table by name, and
        # on a law inside it returns a record or raises one of its refusals
        engine = summoments.ENGINES[name]
        v = CV([1.0, 0.5, 0.25])
        pinned = {"samples": 10**4, "seed": 3, "prefer": [name]}
        for d in self.REGISTRY_LAWS:
            for p in (3.0, 3.5):
                if dists.LAWS[d.kind].engine_spec(d).kind not in engine.laws:
                    with pytest.raises(ValueError, match="does not compute"):
                        reference_estimate(v, d, p, **pinned)
                    continue
                try:
                    est = reference_estimate(v, d, p, **pinned)
                except engine.refusals:
                    continue
                assert est.method == name and est.p == p, (name, d, p)
