"""Reference values computed apart from momentbounds.

Nothing here imports the package under test.  Laws are named by the same
strings the CLI uses (``rademacher``, ``symExponential``, ``gaussian``,
``weibullTail``); every law has unit variance.

* ``even_norm``        - even-p norms of sums for all four laws, from the
                         positive-term recursion
                         E(S + aX)^{2k} = sum_j C(2k,2j) a^{2j} E X^{2j} E S^{2k-2j}
                         with E X^{2j} from the laws' closed forms;
* ``rademacher_brute`` - brute-force sign enumeration, n <= 12, any p;
* ``laplace2_norm``    - two-term two-sided-exponential sums at any p, by
                         mpmath quadrature over one variable of the closed
                         conditional moment in the other;
* ``gaussian_norm``    - gamma_p ||a||_2 from the Gaussian absolute moment;
* ``gk_grid2``         - the Orlicz dual norm at n = 2 by a 1-D grid.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy import special

from workloads import LAWS

SQRT2 = math.sqrt(2.0)
RADEMACHER, SYM_EXPONENTIAL, GAUSSIAN, WEIBULL_TAIL = LAWS


def weibull_scale(alpha: float) -> float:
    """b with E X^2 = b^2 Gamma(1 + 2/alpha) = 1."""
    return math.exp(-0.5 * math.lgamma(1.0 + 2.0 / alpha))


def log_abs_moment(law: str, q: float, alpha: float | None = None) -> float:
    """log E|X|^q for one variable of the law, q >= 0."""
    if q == 0:
        return 0.0
    if law == RADEMACHER:
        return 0.0
    if law == SYM_EXPONENTIAL:
        # Laplace with scale 1/sqrt2: E|X|^q = 2^{-q/2} Gamma(q + 1)
        return -0.5 * q * math.log(2.0) + math.lgamma(q + 1.0)
    if law == GAUSSIAN:
        return 0.5 * q * math.log(2.0) + math.lgamma(0.5 * (q + 1.0)) - 0.5 * math.log(math.pi)
    if law == WEIBULL_TAIL:
        return q * math.log(weibull_scale(alpha)) + math.lgamma(1.0 + q / alpha)
    raise ValueError(f"unknown law {law!r}")


def even_norm(coeffs, law: str, p: int, alpha: float | None = None) -> float:
    """||sum a_i X_i||_p for even integer p >= 2.

    Coefficients are scaled to max |a| = 1 before the recursion and the norm
    is scaled back, so the result is finite at any scale.
    """
    if p < 2 or p % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p!r}")
    a = [abs(float(x)) for x in coeffs if x != 0]
    if not a:
        return 0.0
    top = max(a)
    k_max = p // 2
    ex = [math.exp(log_abs_moment(law, 2 * j, alpha)) for j in range(k_max + 1)]
    m = [1.0] + [0.0] * k_max  # E S^{2k} of the empty sum
    for x in a:
        x2 = (x / top) ** 2
        m = [
            sum(math.comb(2 * k, 2 * j) * x2**j * ex[j] * m[k - j] for j in range(k + 1))
            for k in range(k_max + 1)
        ]
    return top * m[k_max] ** (1.0 / p)


def gaussian_norm(coeffs, p: float) -> float:
    """gamma_p ||a||_2, with E|N|^p = 2^{p/2} Gamma((p+1)/2) / sqrt(pi)."""
    a = np.abs(np.asarray(coeffs, dtype=float))
    top = float(a.max())
    l2 = top * math.sqrt(float(np.sum((a / top) ** 2)))
    return l2 * math.exp(log_abs_moment(GAUSSIAN, p) / p)


def rademacher_brute(coeffs, p: float) -> float:
    """||sum a_i eps_i||_p by visiting every one of the 2^n sign patterns."""
    a = np.abs(np.asarray(coeffs, dtype=float))
    if len(a) > 12:
        raise ValueError("brute-force enumeration is limited to n <= 12")
    top = float(a.max())
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(a))))
    raw = float(np.mean(np.abs(signs @ (a / top)) ** p))
    return top * raw ** (1.0 / p)


def laplace2_norm(a1: float, a2: float, p: float) -> float:
    """||a1 X + a2 Y||_p for independent unit-variance two-sided exponentials.

    Given X = x, with c = |a1 x| and Z = a2 Y of rate mu = sqrt2/|a2|,
        E|c + Z|^p = mu/2 [ e^{mu c} mu^{-p-1} Gamma(p+1, mu c)
                            + c^{p+1} 1F1(1; p+2; -mu c)/(p+1)
                            + e^{-mu c} Gamma(p+1) mu^{-p-1} ],
    which is then integrated against the density of X by mpmath.quad.
    """
    a1, a2 = abs(float(a1)), abs(float(a2))
    if a2 == 0.0:
        a1, a2 = a2, a1
    if a2 == 0.0:
        return 0.0
    top = max(a1, a2)
    b1, b2 = a1 / top, a2 / top
    with mpmath.workdps(16):
        pm = mpmath.mpf(p)
        lam = mpmath.sqrt(2)
        mu = lam / b2
        gp1 = mpmath.gamma(pm + 1)

        def conditional(c):
            x = mu * c
            upper = mpmath.exp(x) * mpmath.gammainc(pm + 1, x) * mu ** (-pm - 1)
            lower = c ** (pm + 1) * mpmath.hyp1f1(1, pm + 2, -x) / (pm + 1) if c > 0 else 0
            return mu / 2 * (upper + lower + mpmath.exp(-x) * gp1 * mu ** (-pm - 1))

        if b1 == 0.0:
            raw = conditional(mpmath.mpf(0))
        else:
            raw = mpmath.quad(lambda x: conditional(b1 * x) * lam * mpmath.exp(-lam * x), [0, 1, 4, mpmath.inf])
        return top * float(raw ** (1 / pm))


# --- Orlicz dual norm at n = 2 ----------------------------------------------


def _tail_exponent(law: str, x, alpha=None):
    """N(x) = -ln P(|X| >= x) for x > 1 (vectorized)."""
    x = np.asarray(x, dtype=float)
    if law == SYM_EXPONENTIAL:
        return SQRT2 * x
    if law == GAUSSIAN:
        return -np.log(special.erfc(x / SQRT2))
    if law == WEIBULL_TAIL:
        return (x / weibull_scale(alpha)) ** alpha
    raise ValueError(f"no tail piece for law {law!r}")


def _tail_inverse(law: str, r, alpha=None):
    r = np.asarray(r, dtype=float)
    if law == SYM_EXPONENTIAL:
        return r / SQRT2
    if law == GAUSSIAN:
        return SQRT2 * special.erfcinv(np.exp(-r))
    return weibull_scale(alpha) * r ** (1.0 / alpha)


def orlicz_cost(law: str, x, alpha=None):
    """M(x) = x^2 on [0, 1], N(x) beyond."""
    x = np.asarray(x, dtype=float)
    tail = _tail_exponent(law, np.maximum(x, 1.0), alpha)
    return np.where(x <= 1.0, x * x, tail)


def orlicz_sublevel(law: str, r, alpha=None):
    """max{x >= 0 : M(x) <= r} for r >= 0 (vectorized)."""
    r = np.asarray(r, dtype=float)
    quad = np.sqrt(np.clip(r, 0.0, 1.0))
    entry = float(_tail_exponent(law, 1.0, alpha))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        tail = np.where(r > entry, _tail_inverse(law, np.maximum(r, entry), alpha), 0.0)
    return np.maximum(quad, tail)


def gk_grid2(a, laws, p: float, points: int = 200_001) -> float:
    """sup{a1 b1 + a2 b2 : M1(b1) + M2(b2) <= p} for two coordinates.

    ``laws`` holds (law, alpha) pairs.  For each b1 on a fine grid (plus the
    points where the budget left for b2 crosses the entry cost of its tail
    piece) b2 takes the largest feasible value; both coordinate orders are
    swept and the best value is returned.  The grid value is below the
    supremum by at most about max|a| times the grid step.
    """
    best = 0.0
    for (x1, (l1, al1)), (x2, (l2, al2)) in (
        ((a[0], laws[0]), (a[1], laws[1])),
        ((a[1], laws[1]), (a[0], laws[0])),
    ):
        x1, x2 = abs(float(x1)), abs(float(x2))
        top = float(orlicz_sublevel(l1, p, al1))
        b1 = np.linspace(0.0, top, points)
        entry2 = float(_tail_exponent(l2, 1.0, al2))
        extra = [1.0, np.nextafter(1.0, 2.0), top]
        if p >= entry2:
            extra.append(float(orlicz_sublevel(l1, p - entry2, al1)))
        b1 = np.concatenate([b1, [e for e in extra if e <= top]])
        rem = p - orlicz_cost(l1, b1, al1)
        ok = rem >= 0.0
        b2 = orlicz_sublevel(l2, rem[ok], al2)
        best = max(best, float(np.max(x1 * b1[ok] + x2 * b2)))
    return best
