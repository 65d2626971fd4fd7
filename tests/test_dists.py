import math

import mpmath
import numpy as np
import pytest

import oracles
from momentbounds import dists
from momentbounds.dists import (
    gamma_p,
    log_gamma,
    sample_array,
    single_abs_moment,
    single_moment_rademacher,
    substream,
    tail_probability,
)

SQRT2 = math.sqrt(2.0)


class TestTailProbability:
    def test_total_mass(self):
        assert tail_probability(dists.sym_exponential(), 0.0) == 1.0

    def test_exponential_point(self):
        # exp(-sqrt2 * 1/sqrt2) = 1/e
        got = tail_probability(dists.sym_exponential(), 1.0 / SQRT2)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_weibull_alpha2_normalized(self):
        d = dists.weibull_tail(2.0)
        assert d.scale == pytest.approx(1.0, rel=1e-14)  # Gamma(2) = 1
        assert tail_probability(d, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_rademacher_step(self):
        d = dists.rademacher()
        assert tail_probability(d, 0.5) == 1.0
        assert tail_probability(d, 1.0) == 1.0
        assert tail_probability(d, 1.0000001) == 0.0

    def test_gaussian_matches_erfc(self):
        assert tail_probability(dists.gaussian(), 1.0) == pytest.approx(
            math.erfc(1.0 / SQRT2), rel=1e-14
        )

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            tail_probability(dists.gaussian(), -0.1)


_EVERY_LAW = [dists.rademacher(), dists.sym_exponential(), dists.gaussian()] + [
    dists.weibull_tail(a) for a in (1.0, 1.5, 2.0, 3.0)
]


@pytest.mark.parametrize("d", _EVERY_LAW, ids=lambda d: f"{d.kind}-{d.alpha}")
def test_tail_is_e_to_the_minus_exponent(d):
    # each record states N; a tail derived from it is e^{-N} to the bit.  The
    # Gaussian states erfc(t/sqrt2), which rounds t/sqrt2 as N rounds t: the
    # two agree within 2 units of relative rounding times the condition
    # number 1 + t N'(t) of the tail in t, on [0, 37], where erfc is a normal
    # float
    law = dists.LAWS[d.kind]
    for t in np.linspace(0.0, 37.0, 7001).tolist():
        tail, derived = tail_probability(d, t), math.exp(-law.exponent(d, t))
        if law.tail is dists.Law.tail:
            assert tail == derived
        else:
            assert abs(tail - derived) <= 2.0 * (1.0 + t * law.exponent_slope(d, t)) * 2.0**-52 * tail


def test_gaussian_exponent_pieces_against_mpmath():
    # N(t) = -ln erfc(t/sqrt2), its slope and its inverse, each one formula in
    # log space from t = 1 past the float range of erfc (t ~ 38.5) to t = 100
    d = dists.gaussian()
    law = dists.LAWS[d.kind]
    with mpmath.workdps(50):

        def exponent(t):
            return -mpmath.log(mpmath.erfc(mpmath.mpf(t) / mpmath.sqrt(2)))

        for t in np.linspace(1.0, 100.0, 397).tolist():
            tt = mpmath.mpf(t)
            slope = mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-tt * tt / 2) / mpmath.erfc(tt / mpmath.sqrt(2))
            assert law.exponent(d, t) == pytest.approx(float(exponent(t)), rel=1e-15, abs=0)
            assert law.exponent_slope(d, t) == pytest.approx(float(slope), rel=1e-15, abs=0)
        for y in np.geomspace(1.2, 1e6, 61).tolist():
            x = mpmath.findroot(lambda x: exponent(x) - y, math.sqrt(2.0 * y))
            assert law.exponent_inverse(d, y) == pytest.approx(float(x), rel=1e-15, abs=0)


class TestNormalization:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_unit_variance_by_quadrature(self, alpha):
        d = dists.weibull_tail(alpha)
        assert oracles.weibull_variance_quad(alpha, d.scale) == pytest.approx(1.0, abs=1e-10)

    def test_alpha_one_matches_sym_exponential_tail(self):
        d = dists.weibull_tail(1.0)
        assert d.scale == pytest.approx(1.0 / SQRT2, rel=1e-14)
        for t in [0.0, 0.3, 1.0, 4.0]:
            assert tail_probability(d, t) == pytest.approx(
                tail_probability(dists.sym_exponential(), t), rel=1e-13
            )

    def test_alpha3_scale(self):
        d = dists.weibull_tail(3.0)
        assert d.scale == pytest.approx(math.gamma(5.0 / 3.0) ** -0.5, rel=1e-13)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            dists.weibull_tail(0.9)

    def test_spec_rejects_wrong_scale(self):
        with pytest.raises(ValueError):
            dists.DistributionSpec(dists.WEIBULL_TAIL, alpha=2.0, scale=0.5)


class TestGammaP:
    def test_p2_is_one(self):
        assert gamma_p(2.0) == 1.0

    def test_p4(self):
        assert gamma_p(4.0) == pytest.approx(3.0**0.25, rel=1e-13)

    def test_p3_against_quadrature(self):
        want = oracles.gaussian_abs_moment_quad(3.0) ** (1.0 / 3.0)
        assert gamma_p(3.0) == pytest.approx(want, rel=1e-10)
        # frozen from the quadrature oracle: (2 sqrt2 Gamma(2) / sqrt(pi))^{1/3}
        assert gamma_p(3.0) == pytest.approx(1.1685752549624655, rel=1e-12)

    def test_nondecreasing(self):
        grid = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0]
        vals = [gamma_p(p) for p in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            gamma_p(0.5)


def test_log_gamma_contract_against_mpmath():
    mpmath.mp.dps = 30
    xs = np.concatenate([np.linspace(0.5, 200.0, 160), [0.5, 1.0, 1.5, 2.0, 200.0]])
    for x in xs:
        want = float(mpmath.loggamma(mpmath.mpf(float(x))))
        assert log_gamma(float(x)) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSingleMomentRademacher:
    def test_examples(self):
        assert single_moment_rademacher(1, 0, 7) == 1.0
        assert single_moment_rademacher(1, 1, 3) == 4.0
        assert single_moment_rademacher(2, 3, 2) == 13.0

    def test_rec2_inequality_and_equality_case(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            a = float(rng.uniform(-3, 3))
            b = float(rng.uniform(-3, 3))
            p = float(rng.uniform(3.0, 7.0))
            lhs = single_moment_rademacher(a, b, p)
            rhs = abs(b) ** p + 0.5 * p * (p - 1) * a * a * abs(b) ** (p - 2)
            assert lhs >= rhs - 1e-9 * max(1.0, rhs)
        lhs = single_moment_rademacher(1, 1, 3)
        assert lhs == pytest.approx(1 + 3.0, abs=1e-12)  # equality at (1,1,3)


class TestSingleMomentExponential:
    def test_closed_forms(self):
        d = dists.sym_exponential()
        assert single_abs_moment(d, 2) == pytest.approx(1.0, rel=1e-14)
        assert single_abs_moment(d, 4) == pytest.approx(6.0, rel=1e-13)
        assert single_abs_moment(d, 3) == pytest.approx(3.0 / SQRT2, rel=1e-13)

    def test_stein_identity_fourth_moment(self):
        # E f(E) = f(0) + E f''(E)/2 with f = x^4 gives E E^4 = 6
        assert oracles.exponential_abs_moment_quad(4.0) == pytest.approx(6.0, rel=1e-10)
        assert single_abs_moment(dists.sym_exponential(), 4) == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 5.5])
def test_fractional_single_moments_against_quadrature(p):
    assert single_abs_moment(dists.sym_exponential(), p) == pytest.approx(
        oracles.exponential_abs_moment_quad(p), rel=1e-10
    )
    assert single_abs_moment(dists.gaussian(), p) == pytest.approx(oracles.gaussian_abs_moment_quad(p), rel=1e-10)


def test_even_single_moments_are_exact():
    for j in range(1, 12):
        assert single_abs_moment(dists.gaussian(), 2.0 * j) == math.prod(range(1, 2 * j, 2))
        assert single_abs_moment(dists.sym_exponential(), 2.0 * j) == math.factorial(2 * j) // 2**j
        assert single_abs_moment(dists.weibull_tail(2.0), 2.0 * j) == math.factorial(j)
    assert single_abs_moment(dists.weibull_tail(3.0), 4.0) == pytest.approx(
        dists.weibull_tail(3.0).scale ** 4 * math.gamma(1.0 + 4.0 / 3.0), rel=1e-15
    )
    for d in (dists.gaussian(), dists.sym_exponential(), dists.weibull_tail(1.0)):
        with pytest.raises(OverflowError):
            single_abs_moment(d, 400.0)


def test_weibull_closed_moment_vs_quadrature():
    from scipy import integrate

    d = dists.weibull_tail(3.0)
    want, _ = integrate.quad(
        lambda t: 3.0 * t * t * math.exp(-((t / d.scale) ** 3.0)), 0, np.inf
    )
    assert single_abs_moment(d, 3.0) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "d",
    [
        dists.rademacher(),
        dists.sym_exponential(),
        dists.gaussian(),
        dists.weibull_tail(1.0),
        dists.weibull_tail(1.5),
        dists.weibull_tail(3.0),
    ],
)
def test_log_concave_tails_midpoint_inequality(d):
    # -ln P(|X| >= t) convex where the tail is positive
    ts = np.linspace(0.0, 20.0, 401)
    ts = ts[[tail_probability(d, t) > 0 for t in ts]]
    n = np.array([-math.log(tail_probability(d, t)) for t in ts])
    mid = 0.5 * (n[:-2] + n[2:])
    assert np.all(n[1:-1] <= mid + 1e-9)


class TestSampling:
    def test_rademacher_support(self):
        x = sample_array(dists.rademacher(), substream(1, 0), 10_000)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_exponential_symmetry(self):
        x = sample_array(dists.sym_exponential(), substream(2, 0), 10**6)
        assert abs(x.mean()) < 0.005  # 3 sigma of 1/sqrt(N)
        assert x.var() == pytest.approx(1.0, abs=0.01)

    def test_weibull_normalized_second_moment(self):
        d = dists.weibull_tail(1.5)
        x = sample_array(d, substream(3, 0), 10**6)
        assert float(np.mean(x * x)) == pytest.approx(1.0, abs=0.01)

    def test_gaussian_moments(self):
        x = sample_array(dists.gaussian(), substream(4, 0), 10**6)
        assert abs(x.mean()) < 0.005
        assert x.var() == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize(
        "d",
        [dists.rademacher(), dists.sym_exponential(), dists.gaussian()]
        + [dists.weibull_tail(alpha) for alpha in (1.0, 1.5, 2.0, 3.0)],
        ids=lambda d: f"{d.kind}-{d.alpha}",
    )
    def test_in_place_draws_keep_every_bit(self, d):
        # the same bits, dtype and shape as the formulas with temporaries,
        # and the stream left at the same place
        for seed in (0, 1, 42):
            for size in (1, 7, (3, 5), (1 << 16, 8)):
                rng, ref = substream(seed, 3), substream(seed, 3)
                got, want = sample_array(d, rng, size), oracles.sample_array_reference(d, ref, size)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes(), (seed, size)
                assert rng.random() == ref.random()

    def test_substreams_reproducible_and_distinct(self):
        a = sample_array(dists.gaussian(), substream(7, 0), 8)
        b = sample_array(dists.gaussian(), substream(7, 0), 8)
        c = sample_array(dists.gaussian(), substream(7, 1), 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
