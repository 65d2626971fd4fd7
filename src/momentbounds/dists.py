"""Symmetric unit-variance laws, one record per law.

Four families, all with log-concave tails, each a ``Law`` in ``LAWS``:
``rademacher`` (fair signs +-1), ``symExponential`` (two-sided exponential,
density 2^{-1/2} exp(-sqrt2 |x|)), ``gaussian`` (standard normal) and
``weibullTail`` (P(|X| >= t) = exp(-(t/b)^alpha), alpha >= 1, b fixed by the
unit-variance normalization).  A law's record is the one place that says
what the law is (README, "Adding a law"); other modules read a law through
its record and compare no kind or shape.

The module also owns the special-function contract (log-gamma to 1e-12
relative on [0.5, 200]; Gamma ratios evaluated in log space, except the
even single-variable moments, rounded once from exact values) and the
Gaussian p-norm gamma_p.  Moments of sums live in summoments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

__all__ = [
    "RADEMACHER",
    "SYM_EXPONENTIAL",
    "GAUSSIAN",
    "WEIBULL_TAIL",
    "KINDS",
    "CHAR_FUNCTION_TOLERANCE",
    "NO_CHAR_FUNCTION",
    "DistributionSpec",
    "CharFunction",
    "Law",
    "LAWS",
    "rademacher",
    "sym_exponential",
    "gaussian",
    "weibull_tail",
    "log_gamma",
    "gamma_p",
    "tail_probability",
    "single_abs_moment",
    "single_moment_rademacher",
    "sample_array",
    "substream",
]

SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)

RADEMACHER = "rademacher"
SYM_EXPONENTIAL = "symExponential"
GAUSSIAN = "gaussian"
WEIBULL_TAIL = "weibullTail"

# the largest relative error charFunction may report on a law whose phi_X
# decays; it refuses past it
CHAR_FUNCTION_TOLERANCE = 1e-10


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    The special-function contract of the package: 1e-12 relative accuracy
    over [0.5, 200] (libm lgamma is ~1 ulp there, verified in the tests).
    """
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


@dataclass(frozen=True)
class DistributionSpec:
    """One symmetric unit-variance law.

    For weibullTail the scale must equal the unit-variance value
    Gamma(1 + 2/alpha)^{-1/2}; construct it through weibull_tail() rather
    than by hand.
    """

    kind: str
    alpha: float | None = None
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == WEIBULL_TAIL:
            if self.alpha is None or self.alpha < 1:
                raise ValueError(
                    f"weibullTail requires shape alpha >= 1 (log-concave tails), got {self.alpha!r}"
                )
            b = _weibull_unit_scale(self.alpha)
            if self.scale is None or not math.isclose(self.scale, b, rel_tol=1e-12):
                raise ValueError(
                    f"weibullTail scale must be the unit-variance value {b!r}, got {self.scale!r}"
                )
        elif self.alpha is not None or self.scale is not None:
            raise ValueError(f"{self.kind} takes no shape/scale parameters")


# the pieces of a law, each a function of the spec d and one float
_Piece = Callable[[DistributionSpec, float], float]
# why charFunction refuses a spec without a closed-form phi_X
NO_CHAR_FUNCTION = "has no closed-form characteristic function for {d.kind} alpha={d.alpha!r}"


@dataclass(frozen=True)
class CharFunction:
    """A closed-form phi_X for summoments' charFunction (README, "Adding a law")."""

    sums: Callable  # sums(d, y): phi_S, its envelope, E cosh(t S) and the radius, S = sum y_i X_i
    tail: float = 1e-15  # the tail blocks stop once the phi-tail bound is below tail times the integral
    tolerance: float = CHAR_FUNCTION_TOLERANCE  # the largest error bound returned
    refusal: Callable[[DistributionSpec, float], str | None] = lambda d, p: None  # why (d, p) is refused


def _tail_from_exponent(d: DistributionSpec, t: float) -> float:
    return math.exp(-LAWS[d.kind].exponent(d, t))


@dataclass(frozen=True)
class Law:
    """Everything the package knows of one family of laws (README, "Adding a law")."""

    spec: Callable[..., DistributionSpec]  # spec(**params) builds d
    exponent: _Piece  # N(t) = -ln P(|X| >= t) in closed form
    exponent_slope: _Piece  # N'(x) on [1, inf)
    abs_moment: _Piece  # E|X|^p, p not an even integer
    even_moment: Callable[[DistributionSpec, int], float]  # E X^{2j} rounded once, OverflowError past floats
    sample: Callable[..., np.ndarray]  # sample(d, rng, size)
    ladder: tuple[str, ...]  # default engines of summoments.ENGINES, strongest first
    tail: _Piece = _tail_from_exponent  # P(|X| >= t); stated only where e^{-N(t)} would round
    exponent_inverse: _Piece | None = None  # x with N(x) = y; None: N takes no finite value past 1
    slope_inverse: _Piece | None = None  # x with N'(x) = s in closed form; None: constant N' or a root finder
    char: CharFunction | None = None  # None: no closed-form phi_X, which charFunction refuses
    params: tuple[str, ...] = ()  # the job fields that spec takes
    engine_spec: Callable[[DistributionSpec], DistributionSpec] = lambda d: d  # d as the engines see it


def _weibull_unit_scale(alpha: float) -> float:
    # E X^2 = b^2 Gamma(1 + 2/alpha)  =>  b = Gamma(1 + 2/alpha)^{-1/2}
    return math.exp(-0.5 * log_gamma(1.0 + 2.0 / alpha))


def rademacher() -> DistributionSpec:
    return DistributionSpec(RADEMACHER)


def sym_exponential() -> DistributionSpec:
    return DistributionSpec(SYM_EXPONENTIAL)


def gaussian() -> DistributionSpec:
    return DistributionSpec(GAUSSIAN)


def weibull_tail(alpha: float) -> DistributionSpec:
    """Weibull-tail law P(|X| >= t) = exp(-(t/b)^alpha) with E X^2 = 1.

    Rejects alpha < 1: those tails are not log-concave.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha!r}")
    return DistributionSpec(WEIBULL_TAIL, alpha=float(alpha), scale=_weibull_unit_scale(alpha))


def tail_probability(d: DistributionSpec, t: float) -> float:
    """P(|X| >= t) for t >= 0."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    return LAWS[d.kind].tail(d, t)


def gamma_p(p: float) -> float:
    """p-th norm of a standard Gaussian: (E|N(0,1)|^p)^{1/p}.

    The absolute moment is 2^{p/2} Gamma((p+1)/2) / sqrt(pi); this returns
    its p-th root so that gamma_2 = 1 (norm convention).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p!r}")
    if p == 2.0:
        return 1.0  # E N^2 = 1 exactly; keeps the p = 2 intervals degenerate
    return math.exp(_gaussian_log_moment(p) / p)


def _gaussian_log_moment(p: float) -> float:
    # ln E|N|^p = ln(2^{p/2} Gamma((p+1)/2) / sqrt(pi)), valid for all p > -1
    return (p / 2) * math.log(2.0) + log_gamma((p + 1) / 2) - 0.5 * math.log(math.pi)


def single_abs_moment(d: DistributionSpec, p: float) -> float:
    """E|X|^p in closed form, p >= 0.

    Even integer orders p = 2j are rounded once from exact values:
    (2j)!/2^j (two-sided exponential), (2j-1)!! (Gaussian) and
    b^{2j} Gamma(1 + 2j/alpha) by math.gamma (Weibull tail), which is
    exact for alpha = 2.  OverflowError past the float range.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p!r}")
    if p % 2 == 0:
        return LAWS[d.kind].even_moment(d, int(p) // 2)
    return LAWS[d.kind].abs_moment(d, p)


def single_moment_rademacher(a: float, b: float, p: float) -> float:
    """E|a eps + b|^p = (|a+b|^p + |a-b|^p) / 2, exact."""
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p!r}")
    return 0.5 * (abs(a + b) ** p + abs(a - b) ** p)


# --- sampling ---------------------------------------------------------------

_OPEN_UNIT_FLOOR = 5e-324  # keeps inverse CDFs finite on the measure-zero u=0 draw


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent reproducible substream: master seed + stream index."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def sample_array(d: DistributionSpec, rng: np.random.Generator, size) -> np.ndarray:
    """Vectorized draws from d using the caller-supplied stream.

    ``size`` may be an int or a shape tuple.  The arithmetic runs in place
    on the draws; multiplying by a sign or by 0 is exact, so the order of
    the products moves no bit.
    """
    return LAWS[d.kind].sample(d, rng, size)


# --- the pieces of each law ---------------------------------------------------


def _even_factorial(exact: Callable[[int], int]) -> Callable[[DistributionSpec, int], float]:
    # E X^{2j} = exact(j) rounded once; (2j)!/2^j leaves the float range at
    # j = 92 and (2j-1)!! at j = 151, and no larger one is formed
    def even_moment(d: DistributionSpec, j: int) -> float:
        if j > 151:
            raise OverflowError(f"E X^{2 * j} of {d.kind} is beyond the float range")
        return float(exact(j))

    return even_moment


def _signs(d: DistributionSpec, rng: np.random.Generator, size) -> np.ndarray:
    # fair signs +-1.0, in place on the integer draws' float copy
    x = rng.integers(0, 2, size).astype(float)
    x *= 2.0
    x -= 1.0
    return x


def _sign_sums(d: DistributionSpec, y: np.ndarray):
    # phi_X(u) = cos u, bounded by 1; E cosh(u X) = cosh u is entire
    def phi(t):
        return np.cos(np.multiply.outer(t, y)).prod(-1)

    return phi, lambda t: 1.0, lambda t: float(np.prod(np.cosh(y * t))), math.inf


def _laplace_sample(d: DistributionSpec, rng: np.random.Generator, size) -> np.ndarray:
    # inverse CDF of Laplace(scale 1/sqrt2): X = -s sign(v) ln(1 - 2|v|)
    v = rng.random(size)
    v -= 0.5
    z = np.abs(v)
    z *= 2.0
    np.subtract(1.0, z, out=z)
    np.maximum(z, _OPEN_UNIT_FLOOR, out=z)
    np.log(z, out=z)
    np.sign(v, out=v)
    v *= -1.0 / SQRT2
    v *= z
    return v


def _laplace_sums(d: DistributionSpec, y: np.ndarray):
    # phi_X(u) = 1/(1 + u^2/2), which decreases, and E cosh(u X) =
    # 1/(1 - u^2/2) <= 2 for u <= 1
    h = 0.5 * y * y

    def phi(t):
        return np.exp(-np.log1p(np.multiply.outer(t * t, h)).sum(-1))

    def mgf(t: float) -> float:
        return math.exp(-float(np.sum(np.log1p(-h * (t * t)))))

    return phi, lambda t: float(phi(t)), mgf, 1.0 / float(y[0])


# Gaussian: P(|X| >= t) = erfc(t/sqrt2) = 2 Phi(-t); N, its inverse and its
# slope in log space, one formula each over the whole float range


def _gaussian_exponent(d: DistributionSpec, t: float) -> float:
    return -(_LN2 + float(special.log_ndtr(-t)))


def _gaussian_exponent_inverse(d: DistributionSpec, y: float) -> float:
    x = -float(special.ndtri_exp(-y - _LN2))  # Phi(-x) = e^{-y}/2, then one Newton step on N
    return x if math.isinf(x) else x - (_gaussian_exponent(d, x) - y) / _gaussian_slope(d, x)


def _gaussian_slope(d: DistributionSpec, x: float) -> float:
    # 2 phi(x) / erfc(x/sqrt2), with erfc(z) = erfcx(z) e^{-z^2}
    return math.sqrt(2.0 / math.pi) / float(special.erfcx(x / SQRT2))


def _weibull_even_moment(d: DistributionSpec, j: int) -> float:
    value = math.gamma(1.0 + 2.0 * j / d.alpha) * d.scale ** (2 * j)
    if not math.isfinite(value):
        raise OverflowError(f"E X^{2 * j} of {d.kind} alpha={d.alpha!r} is beyond the float range")
    return value


def _weibull_sample(d: DistributionSpec, rng: np.random.Generator, size) -> np.ndarray:
    # symmetric sign times b * (-ln U)^{1/alpha}
    x = _signs(d, rng, size)
    u = rng.random(size)
    np.maximum(u, _OPEN_UNIT_FLOOR, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    u **= 1.0 / d.alpha
    x *= d.scale
    x *= u
    return x


def _weibull2_sums(d: DistributionSpec, y: np.ndarray):
    # alpha = 2 with scale b: phi_X(u) = 1 - 2x D(x), x = b u/2, with Dawson's
    # function D; |1 - 2x D(x)| <= min(1, 1/x^2), and E cosh(u X) =
    # 1 + sqrt(pi) x e^{x^2} erf(x) is entire
    c = 0.5 * d.scale * y

    def phi(t):
        x = np.multiply.outer(t, c)
        return (1.0 - 2.0 * x * special.dawsn(x)).prod(-1)

    def envelope(t: float) -> float:
        return math.exp(-2.0 * float(np.sum(np.log(np.maximum(c * t, 1.0)))))

    def mgf(t: float) -> float:
        x = c * t
        return float(np.prod(1.0 + math.sqrt(math.pi) * x * np.exp(x * x) * special.erf(x)))

    return phi, envelope, mgf, math.inf


LAWS = {
    RADEMACHER: Law(
        spec=rademacher,
        exponent=lambda d, t: 0.0 if t <= 1.0 else math.inf,
        exponent_slope=lambda d, x: math.inf,
        abs_moment=lambda d, p: 1.0,
        even_moment=lambda d, j: 1.0,
        # a product of cosines does not decay, so its tail closes as T^{-p}
        # only; on lattices eps is no bound below p = 2
        char=CharFunction(
            _sign_sums, 1e-8, 1e-6,
            lambda d, p: f"handles Rademacher sums at p > 2 only, got p={p!r}" if p < 2 else None,
        ),
        sample=_signs,
        ladder=("evenMoments", "enumeration", "charFunction", "monteCarlo"),
    ),
    SYM_EXPONENTIAL: Law(
        spec=sym_exponential,
        exponent=lambda d, t: SQRT2 * t,
        exponent_inverse=lambda d, y: y / SQRT2,
        exponent_slope=lambda d, x: SQRT2,
        # 2^{-p/2} Gamma(p+1) and (2j)!/2^j
        abs_moment=lambda d, p: math.exp(-0.5 * p * math.log(2.0) + log_gamma(p + 1.0)),
        even_moment=_even_factorial(lambda j: math.factorial(2 * j) >> j),
        char=CharFunction(_laplace_sums),
        sample=_laplace_sample,
        ladder=("partialFractions", "charFunction", "recursion", "monteCarlo"),
    ),
    GAUSSIAN: Law(
        spec=gaussian,
        tail=lambda d, t: math.erfc(t / SQRT2),  # e^{-N} would round
        exponent=_gaussian_exponent,
        exponent_inverse=_gaussian_exponent_inverse,
        exponent_slope=_gaussian_slope,
        abs_moment=lambda d, p: math.exp(_gaussian_log_moment(p)),
        even_moment=_even_factorial(lambda j: math.prod(range(1, 2 * j, 2))),
        sample=lambda d, rng, size: rng.standard_normal(size),
        ladder=("closedForm",),
    ),
    WEIBULL_TAIL: Law(
        spec=weibull_tail,
        exponent=lambda d, t: (t / d.scale) ** d.alpha,
        exponent_inverse=lambda d, y: d.scale * y ** (1.0 / d.alpha),
        exponent_slope=lambda d, x: (d.alpha / d.scale) * (x / d.scale) ** (d.alpha - 1.0),
        # asked at alpha > 1 only: at alpha = 1 the slope is constant
        slope_inverse=lambda d, s: d.scale * (s * d.scale / d.alpha) ** (1.0 / (d.alpha - 1.0)),
        # b^p Gamma(1 + p/alpha)
        abs_moment=lambda d, p: math.exp(p * math.log(d.scale) + log_gamma(1.0 + p / d.alpha)),
        even_moment=_weibull_even_moment,
        char=CharFunction(
            _weibull2_sums, refusal=lambda d, p: None if d.alpha == 2.0 else NO_CHAR_FUNCTION.format(d=d)
        ),
        sample=_weibull_sample,
        ladder=("evenMoments", "charFunction", "monteCarlo"),
        params=("alpha",),
        # alpha = 1 is the two-sided exponential, to the bit on every engine
        engine_spec=lambda d: sym_exponential() if d.alpha == 1.0 else d,
    ),
}

KINDS = tuple(LAWS)
