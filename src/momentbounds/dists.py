"""Symmetric unit-variance distributions and single-variable moments.

Four families, all with log-concave tails:

* ``rademacher``      — fair signs +-1,
* ``symExponential``  — two-sided exponential with density 2^{-1/2} exp(-sqrt2 |x|),
* ``gaussian``        — standard normal,
* ``weibullTail``     — symmetric law with P(|X| >= t) = exp(-(t/b)^alpha),
                        alpha >= 1, b fixed by the unit-variance normalization.

The module also owns the special-function contract (log-gamma to 1e-12
relative on [0.5, 200]; Gamma ratios evaluated in log space, except the
even single-variable moments, rounded once from exact values), the
Gaussian p-norm gamma_p, the single-variable moments in closed form, and
sampling.  Moments of sums live in summoments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RADEMACHER",
    "SYM_EXPONENTIAL",
    "GAUSSIAN",
    "WEIBULL_TAIL",
    "KINDS",
    "DistributionSpec",
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

RADEMACHER = "rademacher"
SYM_EXPONENTIAL = "symExponential"
GAUSSIAN = "gaussian"
WEIBULL_TAIL = "weibullTail"

KINDS = (RADEMACHER, SYM_EXPONENTIAL, GAUSSIAN, WEIBULL_TAIL)


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
    if d.kind == RADEMACHER:
        return 1.0 if t <= 1.0 else 0.0
    if d.kind == SYM_EXPONENTIAL:
        return math.exp(-SQRT2 * t)
    if d.kind == GAUSSIAN:
        return math.erfc(t / SQRT2)
    return math.exp(-((t / d.scale) ** d.alpha))


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
    if d.kind == RADEMACHER:
        return 1.0
    if p % 2 == 0:
        return _even_abs_moment(d, int(p) // 2)
    if d.kind == SYM_EXPONENTIAL:
        # E|E|^p = 2^{-p/2} Gamma(p+1)
        return math.exp(-0.5 * p * math.log(2.0) + log_gamma(p + 1.0))
    if d.kind == GAUSSIAN:
        return math.exp(_gaussian_log_moment(p))
    # weibull: E|X|^p = b^p Gamma(1 + p/alpha)
    return math.exp(p * math.log(d.scale) + log_gamma(1.0 + p / d.alpha))


# (2j)!/2^j leaves the float range at j = 92 and (2j-1)!! at j = 151
_EVEN_FACTORIAL_MAX = 151


def _even_abs_moment(d: DistributionSpec, j: int) -> float:
    if d.kind == WEIBULL_TAIL:
        value = math.gamma(1.0 + 2.0 * j / d.alpha) * d.scale ** (2 * j)
        if not math.isfinite(value):
            raise OverflowError(f"E X^{2 * j} of {d.kind} alpha={d.alpha!r} is beyond the float range")
        return value
    if j > _EVEN_FACTORIAL_MAX:
        raise OverflowError(f"E X^{2 * j} of {d.kind} is beyond the float range")
    if d.kind == SYM_EXPONENTIAL:
        return float(math.factorial(2 * j) >> j)
    return float(math.prod(range(1, 2 * j, 2)))


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


def _signs(rng: np.random.Generator, size) -> np.ndarray:
    # fair signs +-1.0, in place on the integer draws' float copy
    x = rng.integers(0, 2, size).astype(float)
    x *= 2.0
    x -= 1.0
    return x


def sample_array(d: DistributionSpec, rng: np.random.Generator, size) -> np.ndarray:
    """Vectorized draws from d using the caller-supplied stream.

    ``size`` may be an int or a shape tuple.  The arithmetic runs in place
    on the draws; multiplying by a sign or by 0 is exact, so the order of
    the products moves no bit.
    """
    if d.kind == RADEMACHER:
        return _signs(rng, size)
    if d.kind == GAUSSIAN:
        return rng.standard_normal(size)
    if d.kind == SYM_EXPONENTIAL:
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
    # weibullTail: symmetric sign times b * (-ln U)^{1/alpha}
    x = _signs(rng, size)
    u = rng.random(size)
    np.maximum(u, _OPEN_UNIT_FLOOR, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    u **= 1.0 / d.alpha
    x *= d.scale
    x *= u
    return x
