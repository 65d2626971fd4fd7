import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from momentbounds import bounds, dists
from momentbounds.bounds import (
    BOUND_SOURCES,
    BoundInterval,
    OrliczFunction,
    _TailPiece,
    _gk_order,
    _gk_regimes,
    _gk_solve,
    comp2_bounds,
    exponential_bounds,
    gaussian_approx_gap,
    gk_dual_norm,
    khintchine_bounds,
    logconcave_bounds,
    rademacher_bounds,
)
from momentbounds.coeffs import CoefficientVector
from momentbounds.dists import gamma_p
from momentbounds.errors import UnboundedSupremumError
from momentbounds.summoments import (
    laplace_sum_moment_recursion,
    rademacher_sum_moment,
)

SQRT2 = math.sqrt(2.0)
CV = CoefficientVector

finite_vec = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=10
).map(CV)
p_values = st.sampled_from([2.0, 2.5, 3.0, 3.5, 4.0, 6.0, 8.0])


class TestBoundInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            BoundInterval(2.0, 1.0, "estrad", 3.0)
        with pytest.raises(ValueError):
            BoundInterval(-0.1, 1.0, "estrad", 3.0)
        with pytest.raises(ValueError):
            BoundInterval(0.0, 1.0, "nonsense", 3.0)


class TestRademacherBounds:
    def test_p2_tight(self):
        b = rademacher_bounds(CV([1, 1, 1]), 2)
        assert b.lower == b.upper == pytest.approx(math.sqrt(3), rel=1e-14)

    def test_p3_example(self):
        b = rademacher_bounds(CV([1, 1, 1]), 3)
        assert b.lower == pytest.approx(max(gamma_p(3) * SQRT2, 1 / SQRT2), rel=1e-12)
        assert b.upper == pytest.approx(gamma_p(3) * SQRT2 + 1, rel=1e-12)
        exact = rademacher_sum_moment(CV([1, 1, 1]), 3).value
        assert b.lower <= exact <= b.upper

    def test_single_spike(self):
        b = rademacher_bounds(CV([5, 0, 0]), 6)
        assert b.lower == pytest.approx(5 / SQRT2, rel=1e-14)
        assert b.upper == pytest.approx(5.0, rel=1e-14)
        assert b.lower - 1e-12 <= 5.0 <= b.upper + 1e-12  # |S| = 5 a.s., upper attained

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            rademacher_bounds(CV([1]), 1.5)


class TestExponentialBounds:
    def test_p4_example(self):
        b = exponential_bounds(CV([1, 1]), 4)
        assert b.lower == pytest.approx(3**0.25 * SQRT2, rel=1e-12)
        assert b.upper == pytest.approx(3**0.25 * SQRT2 + 4, rel=1e-12)
        exact = 18.0 ** 0.25
        assert b.lower <= exact <= b.upper

    def test_unit_cases(self):
        b = exponential_bounds(CV([1]), 2)
        assert b.lower == pytest.approx(1.0, rel=1e-14)
        assert b.upper == pytest.approx(3.0, rel=1e-14)
        b6 = exponential_bounds(CV([1]), 6)
        exact = (dists.single_abs_moment(dists.sym_exponential(), 6.0)) ** (1 / 6)  # 90^{1/6}
        assert exact == pytest.approx(90 ** (1 / 6), rel=1e-13)
        assert b6.lower <= exact <= b6.upper


class TestLogconcaveBounds:
    def test_single_coefficient_degenerate(self):
        head = laplace_sum_moment_recursion(CV([1]), 3)
        b = logconcave_bounds(CV([1, 0, 0]), dists.sym_exponential(), 3, head.value)
        hn = (3 / SQRT2) ** (1 / 3)
        assert b.lower == pytest.approx(hn, rel=1e-10)
        assert b.upper == pytest.approx(hn, rel=1e-10)

    def test_three_ones(self):
        head = laplace_sum_moment_recursion(CV([1, 1]), 3)
        b = logconcave_bounds(CV([1, 1, 1]), dists.sym_exponential(), 3, head.value)
        hn = (15 / (2 * SQRT2)) ** (1 / 3)
        assert head.value == pytest.approx(hn, rel=1e-10)
        assert b.lower == pytest.approx(max(gamma_p(3) * SQRT2, hn), rel=1e-10)
        assert b.upper == pytest.approx(gamma_p(3) * SQRT2 + hn, rel=1e-10)

    def test_rejects_unsorted_and_small_p(self):
        head = laplace_sum_moment_recursion(CV([1]), 3)
        with pytest.raises(ValueError):
            logconcave_bounds(CV([1, 2]), dists.sym_exponential(), 3, head.value)
        with pytest.raises(ValueError):
            logconcave_bounds(CV([2, 1]), dists.sym_exponential(), 2.5, head.value)


class TestGaussianGap:
    def test_flat_vector(self):
        n = 100
        b = gaussian_approx_gap(CV([1 / math.sqrt(n)] * n), 3)
        assert b.lower == pytest.approx(gamma_p(3) - 0.3, rel=1e-10)
        assert b.upper == pytest.approx(gamma_p(3) + 0.3, rel=1e-10)

    def test_clamp_cases(self):
        b = gaussian_approx_gap(CV([1]), 3)
        assert b.lower == 0.0
        assert b.upper == pytest.approx(gamma_p(3) + 3, rel=1e-12)
        b = gaussian_approx_gap(CV([1 / SQRT2, 1 / SQRT2]), 4)
        assert b.lower == 0.0
        assert b.upper == pytest.approx(3**0.25 + 2 * SQRT2, rel=1e-12)


@pytest.mark.parametrize("source", list(BOUND_SOURCES))
def test_evaluator_refuses_below_its_table_order(source):
    entry = BOUND_SOURCES[source]
    v = CV([2.0, 1.0, 0.5])
    if source == "logconc":
        evaluate = lambda p: logconcave_bounds(v, dists.sym_exponential(), p, 1.0)
    else:
        evaluate = lambda p: getattr(bounds, entry.function)(v, p)
    with pytest.raises(ValueError, match=f"p must be >= {entry.p_min:g}, got "):
        evaluate(float(np.nextafter(entry.p_min, 0.0)))
    assert evaluate(entry.p_min).source == source


@given(finite_vec, p_values)
@settings(max_examples=60, deadline=None)
def test_intervals_are_ordered(v, p):
    evaluators = [khintchine_bounds, comp2_bounds, rademacher_bounds, exponential_bounds]
    if p >= 3:
        evaluators.append(gaussian_approx_gap)
    for make in evaluators:
        b = make(v, p)
        assert 0.0 <= b.lower <= b.upper


@given(finite_vec, p_values)
@settings(max_examples=40, deadline=None)
def test_khintchine_upper_dominates_enumeration(v, p):
    # first inequality of the comparison chain, exact engine side
    exact = rademacher_sum_moment(v, p).value
    assert exact <= gamma_p(p) * math.sqrt(sum(x * x for x in v.values)) + 1e-9


class TestOrliczFunction:
    def test_piecewise_definition(self):
        m = OrliczFunction(dists.sym_exponential())
        assert m(0.5) == 0.25
        assert m(-0.5) == 0.25
        assert m(1.0) == 1.0
        assert m(2.0) == pytest.approx(SQRT2 * 2.0, rel=1e-14)

    def test_even_and_monotone_per_piece(self):
        for d in [dists.sym_exponential(), dists.weibull_tail(2.0), dists.gaussian()]:
            m = OrliczFunction(d)
            xs = np.linspace(0, 0.999, 50)
            vals = [m(x) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            xs = np.linspace(1.0001, 8, 50)
            vals = [m(x) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert m(0.7) == m(-0.7)

    def test_tail_exponent_convex_on_grid(self):
        for d in [dists.sym_exponential(), dists.weibull_tail(1.5), dists.gaussian()]:
            m = OrliczFunction(d)
            xs = np.linspace(1.0, 10.0, 181)
            n = np.array([m.tail_exponent(x) for x in xs])
            mid = 0.5 * (n[:-2] + n[2:])
            assert np.all(n[1:-1] <= mid + 1e-9)

    def test_largest_sublevel_round_trip(self):
        for d in [dists.sym_exponential(), dists.weibull_tail(2.0), dists.gaussian()]:
            m = OrliczFunction(d)
            for y in [0.25, 1.0, 2.0, 5.0]:
                x = m.largest_sublevel(y)
                assert m(x) <= y + 1e-10
        # past y = 708.4 the tail e^{-y} is no normal float; each law states N
        # in closed form, so M(x) may round an ulp or a few below y, not to inf
        for d in [dists.sym_exponential(), dists.gaussian()] + [dists.weibull_tail(a) for a in (1.0, 1.5, 3.0)]:
            m = OrliczFunction(d)
            for y in [740.0, 745.5, 1000.0, 1e4]:
                x = m.largest_sublevel(y)
                assert y * (1.0 - 1e-15) <= m(x) <= y + 1e-10
        # at y = inf the set is unbounded, which gk_dual_norm reports
        m = OrliczFunction(dists.gaussian())
        assert m.largest_sublevel(math.inf) == math.inf
        with pytest.raises(UnboundedSupremumError, match="unbounded"):
            gk_dual_norm(CV([1.0]), [m], math.inf)

    def test_rademacher_sublevel_capped_at_one(self):
        m = OrliczFunction(dists.rademacher())
        assert m.largest_sublevel(9.0) == 1.0
        assert m.largest_sublevel(0.25) == 0.5


class TestGkDualNorm:
    def test_spec_examples(self):
        m = OrliczFunction(dists.sym_exponential())
        assert gk_dual_norm(CV([1]), [m], 2) == pytest.approx(SQRT2, rel=1e-10)
        assert gk_dual_norm(CV([0, 0]), [m, m], 5) == 0.0
        assert gk_dual_norm(CV([1, 1]), [m, m], 2) == pytest.approx(2.0, rel=1e-10)

    def test_single_coordinate_against_oracle(self):
        for d in [dists.sym_exponential(), dists.weibull_tail(2.0), dists.gaussian()]:
            m = OrliczFunction(d)
            for p in [2.0, 3.0, 6.0]:
                got = gk_dual_norm(CV([1.3]), [m], p)
                assert got == pytest.approx(oracles.gk_grid_oracle([1.3], [m], p), rel=1e-9)

    @pytest.mark.parametrize("p", [744.0, 745.5, 1000.0, 1e6])
    def test_gaussian_coordinate_past_the_float_range(self, p):
        # one coordinate's value is N^{-1}(p), N(t) = -ln erfc(t/sqrt2), whose
        # erfc is no normal float past p = 708.4
        with mpmath.workdps(50):
            want = mpmath.findroot(lambda x: -mpmath.log(mpmath.erfc(x / mpmath.sqrt(2))) - p, math.sqrt(2.0 * p))
        got = gk_dual_norm(CV([1.0]), [OrliczFunction(dists.gaussian())], p)
        assert got == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("p", [744.0, 745.5, 1000.0, 1e6])
    def test_exponential_past_the_float_range(self, p):
        # N(t) = sqrt2 t is linear, so the first coordinate takes the tail at the
        # multiplier lam = a_1/sqrt2 and the others sit on the quadratic piece at
        # b_i = a_i/(2 lam); entering another tail costs sqrt2 for at most a_i
        a = [1.0, 0.5, 0.25]
        with mpmath.workdps(50):
            lam = mpmath.mpf(a[0]) / mpmath.sqrt(2)
            quad = [mpmath.mpf(x) / (2 * lam) for x in a[1:]]
            want = (p - sum(b * b for b in quad)) / mpmath.sqrt(2) + sum(x * b for x, b in zip(a[1:], quad))
        got = gk_dual_norm(CV(a), [OrliczFunction(dists.sym_exponential())] * 3, p)
        assert got == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("p", [1000.0, 1e6])
    def test_weibull_past_the_float_range(self, alpha, p):
        # at these p every coordinate takes its tail, N(t) = (t/b)^alpha, and
        # Hoelder's equality case gives b p^{1/alpha} ||a||_q, q = alpha/(alpha - 1)
        a = [1.0, 0.5, 0.25]
        d = dists.weibull_tail(alpha)
        with mpmath.workdps(50):
            q = mpmath.mpf(alpha) / (alpha - 1)
            want = d.scale * mpmath.mpf(p) ** (1 / mpmath.mpf(alpha)) * sum(mpmath.mpf(x) ** q for x in a) ** (1 / q)
        got = gk_dual_norm(CV(a), [OrliczFunction(d)] * 3, p)
        assert got == pytest.approx(float(want), rel=1e-13)

    def test_random_instances_against_grid_oracle(self):
        rng = np.random.default_rng(12)
        kinds = [
            dists.sym_exponential(),
            dists.weibull_tail(2.0),
            dists.weibull_tail(3.0),
            dists.gaussian(),
            dists.rademacher(),
        ]
        for _ in range(12):
            n = int(rng.integers(1, 4))
            a = rng.uniform(0.1, 2.0, n) * rng.choice([-1, 1], n)
            d = kinds[int(rng.integers(0, len(kinds)))]
            Ms = [OrliczFunction(d)] * n
            p = float(rng.choice([2.0, 3.0, 4.0, 6.0]))
            got = gk_dual_norm(CV(a), Ms, p)
            want = oracles.gk_grid_oracle(a, Ms, p, step=2e-3 if n == 3 else 1e-3)
            assert got == pytest.approx(want, rel=2e-4, abs=1e-9)

    def test_mixed_costs(self):
        Ms = [OrliczFunction(dists.sym_exponential()), OrliczFunction(dists.weibull_tail(2.0))]
        got = gk_dual_norm(CV([1.3, 0.8]), Ms, 3.0)
        want = oracles.gk_grid_oracle([1.3, 0.8], Ms, 3.0, step=5e-4)
        assert got == pytest.approx(want, rel=1e-4)

    def test_homogeneous_monotone_sign_invariant(self):
        m = OrliczFunction(dists.weibull_tail(1.5))
        base = gk_dual_norm(CV([1.0, 0.5]), [m, m], 3)
        assert gk_dual_norm(CV([2.0, 1.0]), [m, m], 3) == pytest.approx(2 * base, rel=1e-10)
        assert gk_dual_norm(CV([-1.0, 0.5]), [m, m], 3) == pytest.approx(base, rel=1e-10)
        assert gk_dual_norm(CV([1.0, 0.5]), [m, m], 4) >= base

    def test_length_mismatch_rejected(self):
        m = OrliczFunction(dists.sym_exponential())
        with pytest.raises(ValueError):
            gk_dual_norm(CV([1, 2]), [m], 3)


class TestGkRegimes:
    LAWS = [
        dists.rademacher(),
        dists.sym_exponential(),
        dists.gaussian(),
        dists.weibull_tail(1.0),
        dists.weibull_tail(1.5),
        dists.weibull_tail(3.0),
    ]

    def test_per_cost_prefixes_match_every_tail_set(self):
        # the regime rule against the maximum over all 2^n tail sets
        rng = np.random.default_rng(15)
        for _ in range(80):
            n = int(rng.integers(1, 9))
            a = rng.uniform(0.05, 2.0, n) * rng.choice([-1, 1], n)
            a[rng.random(n) < 0.15] = 0.0
            if n > 1 and rng.random() < 0.4:
                a[int(rng.integers(0, n))] = a[int(rng.integers(0, n))]  # a tie
            pool = [self.LAWS[int(i)] for i in rng.choice(len(self.LAWS), int(rng.integers(2, 4)), replace=False)]
            Ms = [OrliczFunction(pool[int(rng.integers(0, len(pool)))]) for _ in range(n)]
            p = float(rng.choice([1.0, 2.0, 3.0, 4.5, 8.0]))
            got = gk_dual_norm(CV(a), Ms, p)
            # the solver's canonical coordinate order, so that every regime sums
            # its terms in the same order as gk_dual_norm does
            order = _gk_order(np.abs(a), Ms)
            abs_a, Ms = np.abs(a)[order], [Ms[i] for i in order]
            pieces = [_TailPiece(m, m.largest_sublevel(p)) for m in Ms]
            # Rademacher has no tail piece, so its coordinates never join a tail set
            tailed = [i for i in range(n) if Ms[i].dist.kind != dists.RADEMACHER]
            values = [_gk_solve(abs_a, pieces, p, frozenset(s)) for s in _subsets(tailed)]
            want = max([0.0] + [x[0] for x in values if x is not None])
            keys = [(m.dist, x) for m, x in zip(Ms, abs_a)]
            if len(set(keys)) == n:
                assert got == want
            else:
                # tied coordinates of one cost are exchangeable: the regimes that
                # differ in which of them is on the tail piece are equal but for the
                # order of rounding, so the maximum over all tail sets may be an ulp up
                assert want * (1.0 - 2.0**-52) <= got <= want

    def test_bitwise_permutation_invariance(self):
        # equal-cost (one Weibull alpha = 1.5 law, ties included) and
        # mixed-cost instances, each under several permutations and sign flips
        rng = np.random.default_rng(16)
        for k in range(120):
            n = int(rng.integers(2, 9))
            a = rng.uniform(0.05, 2.0, n)
            if n > 2 and rng.random() < 0.3:
                a[0] = a[1]
            if k % 2:
                Ms = [OrliczFunction(dists.weibull_tail(1.5))] * n
            else:
                Ms = [OrliczFunction(self.LAWS[int(i)]) for i in rng.integers(0, len(self.LAWS), n)]
            p = float(rng.choice([1.0, 2.0, 3.0, 4.5, 8.0]))
            want = gk_dual_norm(CV(a), Ms, p)
            for _ in range(3):
                perm = rng.permutation(n)
                signs = rng.choice([-1.0, 1.0], n)
                assert gk_dual_norm(CV(signs * a[perm]), [Ms[i] for i in perm], p) == want

    @staticmethod
    def regime_values(a, Ms, p):
        """_gk_solve's optimum on every regime of gk_dual_norm, in its order
        (None for an infeasible one)."""
        order = _gk_order(np.abs(a), Ms)
        abs_a, Ms = np.abs(a)[order], [Ms[i] for i in order]
        pieces = [_TailPiece(m, m.largest_sublevel(p)) for m in Ms]
        solved = [_gk_solve(abs_a, pieces, p, s) for s in _gk_regimes(abs_a, Ms)]
        return [None if x is None else x[0] for x in solved]

    def test_skipped_regimes_leave_the_maximum(self):
        # gk_dual_norm skips the regimes its weak-duality bound rules out; the
        # value is still bitwise the maximum over every regime
        rng = np.random.default_rng(27)
        for k in range(72):
            if k % 4 == 3:
                n = int(rng.integers(2, 9))
                pool = [self.LAWS[int(i)] for i in rng.choice(len(self.LAWS), int(rng.integers(2, 4)), replace=False)]
                Ms = [OrliczFunction(pool[int(rng.integers(0, len(pool)))]) for _ in range(n)]
            else:
                n = int(rng.integers(1, 21))
                Ms = [OrliczFunction(self.LAWS[k % len(self.LAWS)])] * n
            a = rng.uniform(0.05, 2.0, n) * rng.choice([-1, 1], n)
            p = float(rng.choice([1.0, 2.0, 3.0, 5.5, 8.0, 17.5, 30.0]))
            want = max([0.0] + [x for x in self.regime_values(a, Ms, p) if x is not None])
            assert gk_dual_norm(CV(a), Ms, p) == want

    def test_weak_duality_skips_most_regimes(self, monkeypatch):
        solves = []
        solve = bounds._gk_solve

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(bounds, "_gk_solve", counted)
        a = np.random.default_rng(20).uniform(0.1, 1.0, 20)
        Ms = [OrliczFunction(dists.gaussian())] * 20
        got = gk_dual_norm(CV(a), Ms, 8.0)
        assert len(list(_gk_regimes(a, Ms))) == 21 and len(solves) <= 5
        assert got == max(x for x in self.regime_values(a, Ms, 8.0) if x is not None)

    def test_tied_regimes_return_their_value(self):
        # the zero coefficient's cost on either piece fits the budget beside the
        # Rademacher coordinate's, so both regimes give exactly 1
        Ms = [OrliczFunction(dists.rademacher()), OrliczFunction(dists.sym_exponential())]
        assert self.regime_values(np.array([1.0, 0.0]), Ms, 3.0) == [1.0, 1.0]
        assert gk_dual_norm(CV([1.0, 0.0]), Ms, 3.0) == 1.0

    def test_two_law_mix_past_sixteen_coordinates(self):
        rng = np.random.default_rng(20)
        a = rng.uniform(0.1, 1.0, 20)
        Ms = [OrliczFunction(dists.sym_exponential())] * 10 + [OrliczFunction(dists.weibull_tail(2.0))] * 10
        p = 4.0
        got = gk_dual_norm(CV(a), Ms, p)
        tops = a * np.array([m.largest_sublevel(p) for m in Ms])
        assert float(tops.max()) * (1.0 - 1e-12) <= got <= float(tops.sum())
        for lam in (0.3, 7.0):
            assert gk_dual_norm(CV(lam * a), Ms, p) == pytest.approx(lam * got, rel=1e-9)

    def test_every_tail_piece_has_an_inverse(self):
        # a coordinate joins a tail set only when N'(1) is finite (_gk_regimes),
        # and _gk_solve's budget top-up then reads N^{-1} of its law
        for kind, law in dists.LAWS.items():
            for alpha in (1.0, 1.5, 2.0, 3.0):
                d = law.spec(**dict.fromkeys(law.params, alpha))
                if math.isfinite(law.exponent_slope(d, 1.0)):
                    assert law.exponent_inverse is not None, kind

    def test_too_many_regimes_refused(self):
        Ms = [OrliczFunction(dists.weibull_tail(1.0 + k / 8.0)) for k in range(17)]
        with pytest.raises(UnboundedSupremumError, match="regimes"):
            gk_dual_norm(CV([1.0] * 17), Ms, 3.0)


def _subsets(items):
    return [[x for k, x in enumerate(items) if mask >> k & 1] for mask in range(1 << len(items))]
