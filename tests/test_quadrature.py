import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from momentbounds import quadrature
from momentbounds.errors import QuadratureError
from momentbounds.quadrature import integrate_adaptive


@pytest.mark.parametrize("degree", range(32))
def test_one_panel_is_exact_on_polynomials_up_to_degree_31(degree):
    # 21 Kronrod nodes integrate degree 3 * 10 + 1 exactly
    (value,), _ = quadrature._qk21(lambda x: x**degree, np.array([0.3]), np.array([1.7]))
    exact = (1.7 ** (degree + 1) - 0.3 ** (degree + 1)) / (degree + 1)
    assert value == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (np.exp, -1.0, 2.0),
        (lambda x: 1.0 / (1.0 + x * x), -40.0, 40.0),
        (lambda x: np.cos(3.0 * x) * np.exp(-x), 0.0, 20.0),
        (lambda x: np.sqrt(x), 0.0, 1.0),
        (lambda x: np.log1p(x) / x, 1e-3, 5.0),
    ],
)
def test_smooth_integrands_within_their_error_estimate(f, a, b):
    value, abserr = integrate_adaptive(f, a, b)
    want, want_err = integrate.quad(lambda x: float(f(np.array([x]))[0]), a, b, epsabs=0.0, epsrel=1e-13, limit=500)
    assert abserr <= 1e-12 * abs(value)
    assert abs(value - want) <= abserr + want_err


@pytest.mark.parametrize("p", [0.5, 1.5, 2.5, 3.5, 7.5, 12.5])
def test_power_on_the_char_function_body_within_its_error_estimate(p):
    # t^{-p-1} on [t0, 2 t1] with t0 = t1/4, as in the characteristic-function
    # integral at sigma = 1
    t0, cut = 1.0, 8.0
    value, abserr = integrate_adaptive(lambda t: t ** (-p - 1.0), t0, cut)
    exact = (t0**-p - cut**-p) / p
    assert abs(value - exact) <= abserr + 4e-16 * exact


@pytest.mark.parametrize("k", [4, 10, 15, 20])
def test_cosine_product_block_within_its_error_estimate(k):
    # a tail block [T, 2T] of a Rademacher characteristic function, with the
    # engine's cap; the product of cosines is an average of 4 cosines, so
    # the integral is exact in closed form
    y = np.array([0.9, 0.55, 0.3])
    T = 2.0**k
    value, abserr = integrate_adaptive(
        lambda t: np.cos(np.multiply.outer(t, y)).prod(-1), T, 2.0 * T, epsabs=1e-10 * T, limit=int(T) + 100
    )
    with mpmath.workdps(40):
        exact = 0
        for s1 in (1, -1):
            for s2 in (1, -1):
                w = mpmath.mpf(y[0]) + s1 * mpmath.mpf(y[1]) + s2 * mpmath.mpf(y[2])
                exact += (mpmath.sin(2 * T * w) - mpmath.sin(T * w)) / (4 * w)
    assert abserr <= 1e-10 * T
    assert abs(value - float(exact)) <= abserr


def test_epsabs_is_honoured():
    def f(t):
        return 1.0 + np.cos(50.0 * t) / (1.0 + t)

    want, want_err = integrate.quad(lambda t: 1.0 + math.cos(50.0 * t) / (1.0 + t), 0.0, 10.0, epsrel=1e-13, limit=1000)
    tight, tight_err = integrate_adaptive(f, 0.0, 10.0)
    loose, loose_err = integrate_adaptive(f, 0.0, 10.0, epsabs=1e-4)
    assert tight_err <= 1e-12 * abs(tight) and abs(tight - want) <= tight_err + want_err
    assert tight_err < loose_err <= 1e-4 and abs(loose - want) <= loose_err + want_err


def test_overflowing_the_cap_names_the_interval():
    with pytest.raises(QuadratureError, match=r"\[0\.0, 100\.0\].*cap 10 "):
        integrate_adaptive(lambda t: np.cos(1000.0 * t), 0.0, 100.0, limit=10)


def test_a_non_finite_integrand_names_the_interval():
    with pytest.raises(QuadratureError, match=r"\[0\.0, 1\.0\].*non-finite"):
        integrate_adaptive(lambda t: np.where(t < 0.5, np.nan, t), 0.0, 1.0)
