"""Independent oracles used to freeze expected values.

Everything here is deliberately naive (direct quadrature, closed densities,
brute-force grids) and never shares code with the engine paths it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

SQRT2 = math.sqrt(2.0)


def characteristic_function(v, kind: str, t):
    """phi_S(t): prod cos(a_i t) for Rademacher, prod 1/(1 + a_i^2 t^2/2)
    for the two-sided exponential.  Vectorized over t."""
    if kind not in ("rademacher", "symExponential"):
        raise ValueError(f"characteristic function defined for rademacher/symExponential, got {kind!r}")
    a = v.as_array()
    t_arr = np.asarray(t, dtype=float)
    if kind == "rademacher":
        out = np.prod(np.cos(np.outer(t_arr.ravel(), a)), axis=1)
    else:
        out = np.exp(-np.sum(np.log1p(0.5 * np.outer(t_arr.ravel(), a) ** 2), axis=1))
    out = out.reshape(t_arr.shape)
    return float(out) if np.isscalar(t) or t_arr.shape == () else out


def gaussian_abs_moment_quad(p: float) -> float:
    """E|N(0,1)|^p by direct quadrature against the normal density."""
    val, _ = integrate.quad(
        lambda x: abs(x) ** p * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
        -40.0,
        40.0,
        limit=200,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return val


def exponential_abs_moment_quad(p: float) -> float:
    """E|E|^p by quadrature against the density 2^{-1/2} exp(-sqrt2 |x|)."""
    val, _ = integrate.quad(
        lambda x: 2.0 * x**p * math.exp(-SQRT2 * x) / SQRT2, 0.0, 80.0, limit=200,
        epsabs=1e-14, epsrel=1e-12
    )
    return val


def exp_affine_moment_quad(a: float, b: float, p: float) -> float:
    """E|a E + b|^p by direct quadrature (independent of any recursion)."""
    val, _ = integrate.quad(
        lambda x: abs(a * x + b) ** p * math.exp(-SQRT2 * abs(x)) / SQRT2,
        -80.0,
        80.0,
        limit=400,
        points=[0.0, -b / a if a != 0 else 0.0],
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return val


def two_term_laplace_moment(p: float) -> float:
    """E|E_1 + E_2|^p from the closed-form density of the equal-coefficient
    two-term sum, f(x) = (b + |x|) exp(-|x|/b) / (4 b^2) with b = 1/sqrt2."""
    b = 1.0 / SQRT2
    val, _ = integrate.quad(
        lambda x: 2.0 * x**p * (b + x) * math.exp(-x / b) / (4.0 * b * b), 0.0, 80.0,
        limit=200, epsabs=1e-14, epsrel=1e-12
    )
    return val


def weibull2_pair_moment(a: float, c: float, p: float, scale: float = 1.0) -> float:
    """E|a X + c Y|^p for independent Weibull-tail X, Y with alpha = 2 and the
    given scale b, by nested quadrature against the density 2x/b^2 exp(-x^2/b^2)
    of |X|.  By symmetry the inner mean over Y is even in x; it is split at its
    kink y = |a| x/|c|.  Beyond 12 b the density is below exp(-140)."""
    a, c, b = abs(a), abs(c), scale
    hi = 12.0 * b

    def density(x):
        return 2.0 * x / (b * b) * math.exp(-((x / b) ** 2))

    def inner(x):
        def f(y):
            return density(y) * 0.5 * (abs(a * x + c * y) ** p + abs(a * x - c * y) ** p)

        kink = min(a * x / c, hi)
        left, _ = integrate.quad(f, 0.0, kink, epsabs=0.0, epsrel=1e-13, limit=200)
        right, _ = integrate.quad(f, kink, hi, epsabs=0.0, epsrel=1e-13, limit=200)
        return left + right

    val, _ = integrate.quad(lambda x: density(x) * inner(x), 0.0, hi, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def weibull_variance_quad(alpha: float, scale: float) -> float:
    """E X^2 = int 2 t P(|X| >= t) dt for the Weibull-tail law."""
    val, _ = integrate.quad(
        lambda t: 2.0 * t * math.exp(-((t / scale) ** alpha)), 0.0, np.inf, limit=200
    )
    return val


def enumeration_moment(values, p: float) -> float:
    """E|sum a_i eps_i|^p over all 2^n sign patterns (no symmetry tricks)."""
    a = np.asarray(values, dtype=float)
    n = len(a)
    total = 0.0
    for mask in range(1 << n):
        signs = np.array([1.0 if mask >> i & 1 else -1.0 for i in range(n)])
        total += abs(float(signs @ a)) ** p
    return total / (1 << n)


def sample_array_reference(d, rng, size):
    """dists.sample_array's formulas with a temporary per step, as they read
    before its arithmetic ran in place: the same draw calls, in the same
    order."""
    if d.kind == "rademacher":
        return rng.integers(0, 2, size).astype(float) * 2.0 - 1.0
    if d.kind == "gaussian":
        return rng.standard_normal(size)
    if d.kind == "symExponential":
        v = rng.random(size) - 0.5
        z = np.maximum(1.0 - 2.0 * np.abs(v), 5e-324)
        return (-1.0 / SQRT2) * np.sign(v) * np.log(z)
    sign = rng.integers(0, 2, size).astype(float) * 2.0 - 1.0
    u = np.maximum(rng.random(size), 5e-324)
    return sign * d.scale * (-np.log(u)) ** (1.0 / d.alpha)


def _tail_exponent(d, x):
    """N(x) = -ln P(|X| >= x), vectorized over x >= 1, from the law's closed
    tail."""
    if d.kind == "rademacher":
        return np.full_like(x, np.inf)
    if d.kind == "symExponential":
        return SQRT2 * x
    if d.kind == "gaussian":
        with np.errstate(divide="ignore"):  # erfc underflows to 0 far out
            return -np.log(special.erfc(x / SQRT2))
    return (x / d.scale) ** d.alpha


def _cost(d, x):
    """M(x) = x^2 on [0, 1] and N(x) beyond, x >= 0."""
    return np.where(x <= 1.0, x * x, _tail_exponent(d, np.maximum(x, 1.0)))


def _largest_sublevel(d, y):
    """max{x >= 0 : M(x) <= y} for y >= 0; the tail piece is entered once y
    reaches N(1), and Rademacher has none."""
    y = np.asarray(y, dtype=float)
    quad = np.where(y < 1.0, np.sqrt(y), 1.0)
    if d.kind == "rademacher":
        return quad
    if d.kind == "symExponential":
        inv = y / SQRT2
    elif d.kind == "gaussian":
        inv = SQRT2 * special.erfcinv(np.exp(-y))
    else:
        inv = d.scale * y ** (1.0 / d.alpha)
    return np.where(y >= _tail_exponent(d, 1.0), np.maximum(quad, inv), quad)


def gk_grid_oracle(values, Ms, p: float, step: float = 1e-3) -> float:
    """Brute-force grid search for the dual-norm functional, n <= 3.

    Only the law of each Orlicz function is read; its cost M and largest
    sublevel come from the closed tails above.  The last coordinate is
    solved exactly from the remaining budget, so the grid error is
    quadratic in the step near the optimum.
    """
    a = [abs(float(x)) for x in values]
    ds = [m.dist for m in Ms]
    n = len(a)
    if n == 1:
        return a[0] * float(_largest_sublevel(ds[0], p))
    grid1 = np.arange(0.0, float(_largest_sublevel(ds[0], p)) + step, step)
    r1 = p - _cost(ds[0], grid1)
    keep = r1 >= 0
    grid1, r1 = grid1[keep], r1[keep]
    if n == 2:
        return float(np.max(a[0] * grid1 + a[1] * _largest_sublevel(ds[1], r1), initial=0.0))
    if n != 3:
        raise ValueError("oracle supports n <= 3")
    b2caps = np.minimum(_largest_sublevel(ds[1], p), _largest_sublevel(ds[1], r1))
    best = 0.0
    for b1, rest, b2cap in zip(grid1, r1, b2caps):
        b2 = np.arange(0.0, b2cap + step, step)
        rem = rest - _cost(ds[1], b2)
        keep = rem >= 0
        val = a[0] * b1 + a[1] * b2[keep] + a[2] * _largest_sublevel(ds[2], rem[keep])
        best = float(np.max(val, initial=best))
    return best
