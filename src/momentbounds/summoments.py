"""Moment engines for S = sum_i a_i X_i.

Six independent routes to E|S|^p / ||S||_p:

* ``evenMoments``      — exact positive-term dynamic program over prefix sums
                         for even integer p, in O(n p^2) (every law),
* ``enumeration``      — exact sweep of the 2^{n-1} sign patterns (Rademacher),
* ``partialFractions`` — exact signed Laplace mixture for distinct nonzero
                         coefficients (two-sided exponential),
* ``recursion``        — the conditional moment recursion
                         E|S|^p = E|S'|^p + p(p-1)/2 a_1^2 E|S|^{p-2}
                         over suffix sums; exact for even integer p, a single
                         fractional-order characteristic-function integral
                         otherwise (two-sided exponential, any coefficients),
* ``haagerup``         — the characteristic-function representation
                         E|S|^p = C_p int (phi - 1 + t^2 E S^2 / 2) t^{-p-1} dt
                         with C_p = -(2/pi) sin(p pi/2) Gamma(p+1), 2 < p < 4,
* ``monteCarlo``       — seeded sample mean with a 3-sigma confidence interval.

Plus the 2-stable closed form gamma_p ||a||_2 for Gaussian sums.

Every engine canonicalizes the coefficients to their nonincreasing positive
rearrangement (dropping zeros where the sum is unaffected), so outputs are
bitwise invariant under permutation and sign flips of the input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import coeffs, dists
from .coeffs import CoefficientVector
from .dists import SQRT2, DistributionSpec, gamma_p, log_gamma
from .errors import (
    DegenerateCoefficientsError,
    EngineCapacityError,
    MomentBoundsError,
    QuadratureError,
    ResidueCancellationError,
)
from .quadrature import integrate_adaptive

__all__ = [
    "EVEN_MOMENT_CAP",
    "ENUMERATION_CAP",
    "PARTIAL_FRACTION_GAP",
    "RESIDUE_MAGNITUDE_CAP",
    "Engine",
    "ENGINES",
    "LADDERS",
    "engine_law",
    "Rigor",
    "MomentEstimate",
    "even_sum_moment",
    "rademacher_sum_moment",
    "laplace_residues",
    "laplace_sum_moment_exact",
    "laplace_sum_moment_recursion",
    "haagerup_moment",
    "monte_carlo_sum_moment",
    "monte_carlo_sum_moments",
    "gaussian_sum_norm",
]

# Named capacity constants, surfaced in error messages.
# work n (p/2)^2 of evenMoments; the costliest call it admits, p = 2 at
# n = 2e5, takes about as long as an n = 26 enumeration (0.3 s)
EVEN_MOMENT_CAP = 200_000
ENUMERATION_CAP = 26
PARTIAL_FRACTION_GAP = 1e-6
RESIDUE_MAGNITUDE_CAP = 1e8


# --- engine registry ------------------------------------------------------------


@dataclass(frozen=True)
class Engine:
    """One moment engine: the name of the function of this module that
    computes it (looked up at call time), the engine laws it computes,
    whether it may claim exact rigor, the errors by which it declines an
    input so that a ladder moves on, and its positional arguments among
    v, law (engine_law of d), d, p, samples and seed."""

    function: str
    laws: frozenset[str]
    exact: bool
    refusals: tuple[type[MomentBoundsError], ...] = ()
    args: tuple[str, ...] = ("v", "p")

    @property
    def seeded(self) -> bool:
        return "seed" in self.args


_SIGNS = frozenset({dists.RADEMACHER})
_EXPONENTIAL = frozenset({dists.SYM_EXPONENTIAL})
ENGINES = {
    "evenMoments": Engine(
        "even_sum_moment", frozenset(dists.KINDS), True, (EngineCapacityError,), args=("v", "d", "p")
    ),
    "enumeration": Engine("rademacher_sum_moment", _SIGNS, True, (EngineCapacityError,)),
    "partialFractions": Engine(
        "laplace_sum_moment_exact", _EXPONENTIAL, True, (DegenerateCoefficientsError, ResidueCancellationError)
    ),
    "recursion": Engine("laplace_sum_moment_recursion", _EXPONENTIAL, True),
    "haagerup": Engine("haagerup_moment", _SIGNS | _EXPONENTIAL, False, args=("v", "law", "p")),
    "monteCarlo": Engine(
        "monte_carlo_sum_moment", frozenset(dists.KINDS), False, args=("v", "d", "p", "samples", "seed")
    ),
    "closedForm": Engine("gaussian_sum_norm", frozenset({dists.GAUSSIAN}), True),
}

# default preference ladder of each engine law, strongest engine first
LADDERS = {
    dists.RADEMACHER: ("evenMoments", "enumeration", "monteCarlo"),
    dists.SYM_EXPONENTIAL: ("partialFractions", "recursion", "monteCarlo"),
    dists.GAUSSIAN: ("closedForm",),
    dists.WEIBULL_TAIL: ("evenMoments", "monteCarlo"),
}


def engine_law(d: DistributionSpec) -> str:
    """The law the engines see: Weibull alpha = 1 is the two-sided exponential."""
    if d.kind == dists.WEIBULL_TAIL and d.alpha == 1.0:
        return dists.SYM_EXPONENTIAL
    return d.kind


@dataclass(frozen=True)
class Rigor:
    """Rigor class of an estimate: exact / tolerance(eps) / ci(halfwidth, confidence)."""

    kind: str
    epsilon: float | None = None
    halfwidth: float | None = None
    confidence: float | None = None

    def __post_init__(self):
        if self.kind == "exact":
            if self.epsilon is not None or self.halfwidth is not None or self.confidence is not None:
                raise ValueError("exact rigor carries no parameters")
        elif self.kind == "tolerance":
            if self.epsilon is None or self.epsilon <= 0:
                raise ValueError("tolerance rigor requires epsilon > 0")
        elif self.kind == "ci":
            if self.halfwidth is None or self.halfwidth < 0:
                raise ValueError("ci rigor requires a nonnegative halfwidth")
            if self.confidence is None or not 0 < self.confidence < 1:
                raise ValueError("ci rigor requires confidence in (0, 1)")
        else:
            raise ValueError(f"unknown rigor kind {self.kind!r}")

    @classmethod
    def exact(cls) -> "Rigor":
        return cls("exact")

    @classmethod
    def tolerance(cls, epsilon: float) -> "Rigor":
        return cls("tolerance", epsilon=epsilon)

    @classmethod
    def ci(cls, halfwidth: float, confidence: float = 0.997) -> "Rigor":
        return cls("ci", halfwidth=halfwidth, confidence=confidence)


@dataclass(frozen=True)
class MomentEstimate:
    """A computed value of ||S||_p with its raw moment, method and rigor."""

    p: float
    raw_moment: float
    value: float
    method: str
    rigor: Rigor

    def __post_init__(self):
        if self.method not in ENGINES:
            raise ValueError(f"unknown method {self.method!r}")
        if self.raw_moment < 0 or self.value < 0:
            raise ValueError("moments and norms are nonnegative")
        if self.rigor.kind == "exact" and not ENGINES[self.method].exact:
            raise ValueError(f"method {self.method!r} cannot claim exact rigor")
        expected = _norm_from_raw(self.p, self.raw_moment)
        if not math.isclose(self.value, expected, rel_tol=1e-12, abs_tol=1e-300):
            raise ValueError(
                f"value {self.value!r} is not raw_moment**(1/p) = {expected!r} within 1e-12"
            )

    @classmethod
    def from_raw(cls, p: float, raw_moment: float, method: str, rigor: Rigor) -> "MomentEstimate":
        raw = float(raw_moment)
        return cls(float(p), raw, _norm_from_raw(float(p), raw), method, rigor)


def _norm_from_raw(p: float, raw: float) -> float:
    if p == 0:
        return raw
    if raw == 0.0:
        return 0.0
    return raw ** (1.0 / p)


def _canonical(v: CoefficientVector, drop_zeros: bool = True) -> np.ndarray:
    """Nonincreasing absolute coefficients; zeros dropped when the sum law
    is unaffected.  Gives all engines permutation/sign invariance."""
    a = np.sort(np.abs(v.as_array()))[::-1]
    if drop_zeros:
        a = a[a > 0.0]
    return a


# --- exact even moments -----------------------------------------------------


def _even_binomials(half: int) -> list[list[float]]:
    """Rows C(2k, 2j), j = 0..k, for k = 0..half; exact integers rounded
    once to float, OverflowError past the float range."""
    rows = []
    for k in range(half + 1):
        c = 1
        row = [1.0]
        for j in range(1, k + 1):
            c = c * (2 * k - 2 * j + 2) * (2 * k - 2 * j + 1) // ((2 * j - 1) * 2 * j)
            row.append(float(c))
        rows.append(row)
    return rows


def even_sum_moment(v: CoefficientVector, d: DistributionSpec, p: float) -> MomentEstimate:
    """Exact E S^p for even integer p, any law, by a dynamic program over
    the prefix sums S_k = a_1 X_1 + ... + a_k X_k:

        E S_{k+1}^{2m} = sum_{j=0}^{m} C(2m, 2j) a_{k+1}^{2j} E X^{2j} E S_k^{2m-2j},

    with E X^{2j} from dists.single_abs_moment.  The odd moments of a
    symmetric law vanish, so every term is nonnegative and nothing cancels.
    The coefficients are divided by the power of two 2^e with
    max |a_i| < 2^e <= 2 max |a_i|, which is exact, and the raw moment is
    multiplied back by 2^{e p}; integer inputs therefore give exact integer
    moments.  Work is n (p/2)^2.

    Refuses (EngineCapacityError) a p that is not an even integer, work
    above EVEN_MOMENT_CAP, and a moment of the sum or of one variable
    beyond the float range.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p!r}")
    if p % 2 != 0:
        raise EngineCapacityError(f"evenMoments handles even integer p, got p={p!r}")
    a = _canonical(v)
    n = len(a)
    half = int(p) // 2
    if n * half * half > EVEN_MOMENT_CAP:
        raise EngineCapacityError(
            f"evenMoments handles work n (p/2)^2 <= {EVEN_MOMENT_CAP}, got {n * half * half}"
        )
    e = math.frexp(float(a[0]))[1] if n else 0
    try:
        rows = _even_binomials(half)
        ex = [dists.single_abs_moment(d, 2.0 * j) for j in range(half + 1)]
        m = [1.0] + [0.0] * half  # E S^{2k} of the empty sum
        w = [1.0] * (half + 1)  # a^{2j} E X^{2j} of the next term
        for x in a:
            y = math.ldexp(float(x), -e)
            y2 = y * y
            power = 1.0
            for j in range(1, half + 1):
                power *= y2
                w[j] = power * ex[j]
            # descending k reads the levels of S_k before they are replaced;
            # each product stays below the level it adds to, so an overflow
            # means the moment itself leaves the float range
            for k in range(half, 0, -1):
                row = rows[k]
                total = 0.0
                for j in range(k + 1):
                    total += row[j] * (w[j] * m[k - j])
                m[k] = total
        if not math.isfinite(m[half]):
            raise OverflowError(f"E S^{p:g} of the scaled sum is {m[half]!r}")
        raw = math.ldexp(m[half], e * 2 * half)
    except OverflowError as exc:
        raise EngineCapacityError(f"evenMoments overflows the float range: {exc}") from None
    return MomentEstimate.from_raw(p, raw, "evenMoments", Rigor.exact())


# --- exact Rademacher enumeration -------------------------------------------


# Sign patterns per enumeration block, the partial sums of the first 21
# coefficients.  It is also the summation chunk of the moment: another size
# changes the summation tree and so the last bits of every result.
_ENUMERATION_BLOCK = 1 << 20


def rademacher_sum_moment(v: CoefficientVector, p: float) -> MomentEstimate:
    """Exact E|sum a_i eps_i|^p over all sign patterns.

    Symmetry halves the sweep to 2^{n-1} patterns of weight 2^{-(n-1)}.
    The patterns are taken in blocks of 2^20: the partial sums of the first
    21 coefficients are built once, and each sign pattern of the remaining
    ones is applied to a copy of that block, so memory is O(2^20) whatever n
    is, while time stays proportional to 2^{n-1}.  Every float operation and
    the summation order are those of a sweep over one 2^{n-1}-element array
    summed in 2^20-element chunks, so the result is bit-identical to it.
    Refuses n > ENUMERATION_CAP; use Monte Carlo beyond the cap.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p!r}")
    a = _canonical(v, drop_zeros=False)
    n = len(a)
    if n > ENUMERATION_CAP:
        raise EngineCapacityError(
            f"enumeration handles n <= {ENUMERATION_CAP}, got n={n}; "
            "fall back to the Monte Carlo engine"
        )
    if n == 0:
        return MomentEstimate.from_raw(p, 1.0 if p == 0 else 0.0, "enumeration", Rigor.exact())
    # fix eps_1 = +1, build the block's partial sums by in-place doubling
    split = _ENUMERATION_BLOCK.bit_length()
    head, rest = a[:split], a[split:]
    base = np.empty(1 << (len(head) - 1), dtype=float)
    base[0] = head[0]
    size = 1
    for coef in head[1:]:
        base[size : 2 * size] = base[:size] - coef
        base[:size] += coef
        size *= 2
    # a power past the float range is inf, which the caller reports
    with np.errstate(over="ignore"):
        if len(rest) == 0:
            total = float(np.sum(np.abs(base) ** p))
        else:
            # bit k of the pattern set means eps = -1 on rest[k]; this is the
            # order of the 2^20-element chunks of the whole 2^{n-1} sweep
            total = 0.0
            block = np.empty_like(base)
            for pattern in range(1 << len(rest)):
                np.copyto(block, base)
                for k, coef in enumerate(rest):
                    if pattern >> k & 1:
                        block -= coef
                    else:
                        block += coef
                np.abs(block, out=block)
                block **= p
                total += float(np.sum(block))
    return MomentEstimate.from_raw(p, total / (1 << (n - 1)), "enumeration", Rigor.exact())


# --- exact Laplace partial fractions -----------------------------------------


def laplace_residues(v: CoefficientVector):
    """Residues c_i of prod_j 1/(1 + a_j^2 t^2/2) = sum_i c_i/(1 + a_i^2 t^2/2).

    Requires all coefficients nonzero with pairwise-distinct squares
    (relative gap >= PARTIAL_FRACTION_GAP).  Returns (canonical |a|, c).
    """
    a = _canonical(v, drop_zeros=False)
    if len(a) == 0:
        raise DegenerateCoefficientsError("empty coefficient vector")
    if np.any(a == 0.0):
        raise DegenerateCoefficientsError(
            "partial fractions require all coefficients nonzero; "
            "use the recursion or Monte Carlo engine"
        )
    s = a * a
    top = float(s[0])
    diffs = s[:, None] - s[None, :]
    off = ~np.eye(len(a), dtype=bool)
    if np.min(np.abs(diffs[off]), initial=np.inf) < PARTIAL_FRACTION_GAP * top:
        raise DegenerateCoefficientsError(
            f"squared coefficients closer than relative gap {PARTIAL_FRACTION_GAP:g}; "
            "use the recursion or Monte Carlo engine"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(off, s[:, None] / diffs, 1.0)
    c = np.prod(ratios, axis=1)
    if float(np.sum(np.abs(c))) > RESIDUE_MAGNITUDE_CAP:
        raise ResidueCancellationError(
            f"residue mass sum |c| exceeds {RESIDUE_MAGNITUDE_CAP:g}: "
            "catastrophic cancellation; use the recursion or Monte Carlo engine"
        )
    return a, c


def laplace_sum_moment_exact(v: CoefficientVector, p: float) -> MomentEstimate:
    """Exact E|sum a_i E_i|^p = Gamma(p+1) sum_i c_i (|a_i|/sqrt2)^p, p > -1.

    The sum of independent Laplace laws with distinct scales is a signed
    mixture of single Laplace laws; fractional moments follow termwise.
    """
    if p <= -1:
        raise ValueError(f"p must be > -1, got {p!r}")
    a, c = laplace_residues(v)
    lg = log_gamma(p + 1.0)
    terms = c * np.exp(lg + p * np.log(a / SQRT2))
    raw = float(np.sum(terms))
    if raw <= 0.0:
        raise ResidueCancellationError(
            f"partial-fraction sum collapsed to {raw!r}; cancellation too severe"
        )
    return MomentEstimate.from_raw(p, raw, "partialFractions", Rigor.exact())


# --- recursion engine for Laplace sums ---------------------------------------


def laplace_sum_moment_recursion(v: CoefficientVector, p: float) -> MomentEstimate:
    """E|sum a_i E_i|^p by the conditional moment recursion over suffix sums:

        F(i, q) = F(i+1, q) + q(q-1)/2 * a_i^2 * F(i, q-2),

    descending q by 2 until the base order lies in [0, 2).  The base case
    q = 0 is exact (moment 1), so even integer p needs no quadrature at all;
    fractional base orders use the characteristic-function integral
    E|S|^q = C_q int_0^inf (1 - phi_S(t)) t^{-q-1} dt, 0 < q < 2,
    with C_q = 2 Gamma(q+1) sin(q pi/2) / pi.

    Works for any coefficients (repeated values included), which makes it the
    high-precision fallback where partial fractions refuse.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p!r}")
    a = _canonical(v)
    n = len(a)
    if n == 0:
        raw = 1.0 if p == 0 else 0.0
        return MomentEstimate.from_raw(p, raw, "recursion", Rigor.exact())
    # descending by 2.0 is exact in binary floating point; ascend over the
    # same ladder rather than re-adding (which could round)
    ladder = [p]
    while ladder[-1] >= 2.0:
        ladder.append(ladder[-1] - 2.0)
    q0 = ladder[-1]  # base order in [0, 2)
    if q0 == 0.0:
        level = [1.0] * (n + 1)
        exact = True
    else:
        level = [_laplace_fractional_moment(a[i:], q0) for i in range(n)]
        level.append(0.0)  # empty suffix, q0 > 0
        exact = False
    for q in reversed(ladder[:-1]):
        nxt = [0.0] * (n + 1)
        coef = 0.5 * q * (q - 1.0)
        for i in range(n - 1, -1, -1):
            nxt[i] = nxt[i + 1] + coef * a[i] * a[i] * level[i]
        level = nxt
    rigor = Rigor.exact() if exact else Rigor.tolerance(1e-10)
    return MomentEstimate.from_raw(p, level[0], "recursion", rigor)


def _laplace_fractional_moment(a_desc: np.ndarray, q: float) -> float:
    """E|sum a_i E_i|^q for 0 < q < 2 via the characteristic function.

    1 - phi is evaluated as -expm1(-sum log1p(a_i^2 t^2/2)) (no cancellation),
    the semi-infinite range as doubling blocks plus the closed-form tail
    int_T^inf t^{-q-1} dt = T^{-q}/q; the remaining phi-tail is bounded by
    phi(T) T^{-q}/q and driven below 1e-13 of the accumulated integral.
    """
    amax = float(a_desc[0])
    ah = a_desc / amax
    ah2 = ah * ah

    def one_minus_phi(t: float) -> float:
        expo = 0.0
        tt = 0.5 * t * t
        for s in ah2:
            expo += math.log1p(s * tt)
        return -math.expm1(-expo)

    def integrand(t: float) -> float:
        return one_minus_phi(t) * t ** (-q - 1.0)

    acc = integrate_adaptive(integrand, 0.0, 1.0, epsrel=1e-12)
    t_hi = 1.0
    while True:
        acc += integrate_adaptive(integrand, t_hi, 2.0 * t_hi, epsrel=1e-12)
        t_hi *= 2.0
        closed_tail = t_hi ** (-q) / q
        phi_tail = (1.0 - one_minus_phi(t_hi)) * closed_tail
        if phi_tail <= 1e-13 * (acc + closed_tail):
            acc += closed_tail
            break
        if t_hi > 2.0**34:
            raise QuadratureError("fractional-moment tail did not close below 2^34")
    c_q = 2.0 * math.exp(log_gamma(q + 1.0)) * math.sin(0.5 * q * math.pi) / math.pi
    return amax**q * c_q * acc


# --- Haagerup representation, 2 < p < 4 ---------------------------------------


def _x_minus_log1p(x: float) -> float:
    # x - log1p(x) without cancellation for small x
    if x < 1e-3:
        return x * x * (0.5 + x * (-1.0 / 3.0 + x * (0.25 - 0.2 * x)))
    return x - math.log1p(x)


def _expm1_minus_x(x: float) -> float:
    # expm1(x) - x without cancellation for small |x|
    if abs(x) < 1e-3:
        return x * x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x / 120.0)))
    return math.expm1(x) - x


def _half_sq_plus_logcos(z: float) -> float:
    # z^2/2 + ln cos z, accurate for |z| < pi/2 (series below 1e-2)
    if z < 1e-2:
        z2 = z * z
        return -(z2 * z2) * (1.0 / 12.0 + z2 * (1.0 / 45.0 + z2 * (17.0 / 2520.0)))
    s = math.sin(0.5 * z)
    return 0.5 * z * z + math.log1p(-2.0 * s * s)


def haagerup_moment(v: CoefficientVector, kind: str, p: float) -> MomentEstimate:
    """E|S|^p = C_p int_0^inf (phi_S(t) - 1 + t^2 E S^2/2) t^{-p-1} dt for
    2 < p < 4 strictly (C_p changes sign at the endpoints).

    Numerics (coefficients normalized to max |a_i| = 1, result rescaled):

    * below t = 1e-4 the integrand is replaced by its analytic expansion
      (K4 t^4 + K6 t^6) t^{-p-1}, integrated in closed form;
    * on [1e-4, 1] and doubling blocks [T, 2T] the compensated form
      g = sum(per-coefficient compensated terms) + (expm1(L) - L) is used,
      which survives the phi ~ 1 - sigma^2 t^2/2 cancellation;
    * the (-1 + sigma^2 t^2/2) part of the tail is added in closed form,
      sigma^2 T^{2-p}/(2(p-2)) - T^{-p}/p, and blocks stop once the bound on
      the remaining phi-tail drops below 1e-8 of the accumulated integral.
      Each block's phi part asks for absolute error 1e-8 of the accumulated
      integral (1e-10 on a retry), which never exceeds the total (the
      integrand is nonnegative as cos x >= 1 - x^2/2), so at most 25 blocks
      add at most 2.5e-7 of it.

    Rigor: tolerance(1e-6 relative).
    """
    if not 2.0 < p < 4.0:
        raise ValueError(f"the Haagerup representation requires 2 < p < 4, got {p!r}")
    if kind not in ENGINES["haagerup"].laws:
        raise ValueError(f"haagerup_moment supports rademacher/symExponential, got {kind!r}")
    a = _canonical(v)
    if len(a) == 0:
        return MomentEstimate(p, 0.0, 0.0, "haagerup", Rigor.tolerance(1e-6))
    amax = float(a[0])
    ah = a / amax
    sig2 = float(np.sum(ah * ah))
    s4 = float(np.sum(ah**4))
    s6 = float(np.sum(ah**6))
    rad = kind == dists.RADEMACHER
    if rad:
        k4 = sig2 * sig2 / 8.0 - s4 / 12.0
        k6 = -s6 / 45.0 + sig2 * s4 / 24.0 - sig2**3 / 48.0
    else:
        k4 = sig2 * sig2 / 8.0 + s4 / 8.0
        k6 = -s6 / 24.0 - sig2 * s4 / 16.0 - sig2**3 / 48.0

    def g(t: float) -> float:
        tt = 0.5 * t * t
        if rad:
            if t < 0.5 * math.pi:
                c0 = 0.0
                ell = 0.0
                for z in ah * t:
                    y = _half_sq_plus_logcos(float(z))
                    c0 += y
                    ell += y - 0.5 * z * z
                return c0 + _expm1_minus_x(ell)
            prod = 1.0
            for z in ah * t:
                prod *= math.cos(float(z))
            return prod - 1.0 + sig2 * tt
        c0 = 0.0
        ell = 0.0
        for s in ah * ah:
            x = float(s) * tt
            c0 += _x_minus_log1p(x)
            ell -= math.log1p(x)
        return c0 + _expm1_minus_x(ell)

    def integrand(t: float) -> float:
        return g(t) * t ** (-p - 1.0)

    def phi_integrand(t: float) -> float:
        if rad:
            prod = 1.0
            for z in ah * t:
                prod *= math.cos(float(z))
        else:
            expo = 0.0
            for s in ah * ah:
                expo += math.log1p(float(s) * 0.5 * t * t)
            prod = math.exp(-expo)
        return prod * t ** (-p - 1.0)

    def phi_tail_bound(t: float) -> float:
        if rad:
            tail_sum = float(np.sum(ah[1:])) if len(ah) > 1 else 0.0
            return min(t ** (-p) / p, 2.0 * t ** (-p - 1.0) + tail_sum * t ** (-p) / p)
        log_phi = -float(np.sum(np.log1p(ah * ah * 0.5 * t * t)))
        return math.exp(log_phi) * t ** (-p) / p

    def poly_piece(t1: float, t2: float) -> float:
        # int_{t1}^{t2} (sigma^2 t^2/2 - 1) t^{-p-1} dt in closed form
        return sig2 * (t1 ** (2.0 - p) - t2 ** (2.0 - p)) / (2.0 * (p - 2.0)) - (
            t1 ** (-p) - t2 ** (-p)
        ) / p

    # analytic expansion below t0, compensated full integrand up to t = 2
    t0 = 1e-4
    acc = k4 * t0 ** (4.0 - p) / (4.0 - p) + k6 * t0 ** (6.0 - p) / (6.0 - p)
    acc += integrate_adaptive(integrand, t0, 1.0, epsrel=1e-9)
    acc += integrate_adaptive(integrand, 1.0, 2.0, epsrel=1e-9)
    # beyond t = 2 the polynomial part of each doubling block goes in closed
    # form and only the (small, possibly oscillatory) phi part is quadrated;
    # blocks stop once the phi-tail bound is negligible and the remaining
    # polynomial tail closes in closed form
    t_hi = 2.0
    while True:
        closed_tail = sig2 * t_hi ** (2.0 - p) / (2.0 * (p - 2.0)) - t_hi ** (-p) / p
        if phi_tail_bound(t_hi) <= 1e-8 * abs(acc + closed_tail):
            total = acc + closed_tail
            break
        if t_hi > 2.0**26:
            raise QuadratureError(
                "Haagerup phi-tail did not close below 2^26; "
                "p is too close to 2 for this coefficient vector"
            )
        cap = max(200, int(t_hi) + 100) if rad else 200
        block = functools.partial(integrate_adaptive, phi_integrand, t_hi, 2.0 * t_hi, epsrel=1e-8, limit=cap)
        try:
            piece = block(epsabs=1e-8 * abs(acc))
        except QuadratureError:
            # QAGS's extrapolation gives up on the oscillating Rademacher
            # tail at some tolerances and not at others; a tighter request
            # subdivides further
            piece = block(epsabs=1e-10 * abs(acc))
        acc += poly_piece(t_hi, 2.0 * t_hi) + piece
        t_hi *= 2.0
    c_p = -(2.0 / math.pi) * math.sin(0.5 * p * math.pi) * math.exp(log_gamma(p + 1.0))
    raw = amax**p * c_p * total
    return MomentEstimate.from_raw(p, raw, "haagerup", Rigor.tolerance(1e-6))


# --- Monte Carlo ---------------------------------------------------------------

_MC_BLOCK = 1 << 16
MC_MIN_SAMPLES = 10**4


def monte_carlo_sum_moments(
    v: CoefficientVector,
    d: DistributionSpec,
    ps: list[float],
    samples: int,
    seed: int,
) -> list[MomentEstimate]:
    """Monte Carlo estimates of E|S|^p for several p sharing one draw stream.

    Deterministic for fixed (seed, samples): draws come from per-block
    substreams of the master seed with a fixed block size and reduction
    order, so runs are reproducible and parallelizable.  CI halfwidth is the
    asymptotic-normal 3-sigma value (confidence 0.997).
    """
    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MC_MIN_SAMPLES}, got {samples!r}")
    for p in ps:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p!r}")
    a = _canonical(v)
    sums = {p: 0.0 for p in ps}
    sq_sums = {p: 0.0 for p in ps}
    done = 0
    block_index = 0
    while done < samples:
        m = min(_MC_BLOCK, samples - done)
        rng = dists.substream(seed, block_index)
        if len(a) == 0:
            abs_s = np.zeros(m)
        else:
            abs_s = np.abs(dists.sample_array(d, rng, (m, len(a))) @ a)
        for p in ps:
            x = abs_s**p
            sums[p] += float(np.sum(x))
            sq_sums[p] += float(np.sum(x * x))
        done += m
        block_index += 1
    out = []
    for p in ps:
        mean = sums[p] / samples
        var = max(sq_sums[p] - samples * mean * mean, 0.0) / (samples - 1)
        halfwidth = 3.0 * math.sqrt(var / samples)
        out.append(
            MomentEstimate.from_raw(p, mean, "monteCarlo", Rigor.ci(halfwidth, 0.997))
        )
    return out


def monte_carlo_sum_moment(
    v: CoefficientVector,
    d: DistributionSpec,
    p: float,
    samples: int,
    seed: int,
) -> MomentEstimate:
    """Single-p Monte Carlo estimate; see monte_carlo_sum_moments."""
    return monte_carlo_sum_moments(v, d, [p], samples, seed)[0]


# --- Gaussian sums by 2-stability ----------------------------------------------


def gaussian_sum_norm(v: CoefficientVector, p: float) -> MomentEstimate:
    """||sum a_i g_i||_p = gamma_p ||a||_2 exactly (2-stability)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p!r}")
    value = gamma_p(p) * coeffs.norm(v, 2)
    return MomentEstimate(p, value**p, value, "closedForm", Rigor.exact())
