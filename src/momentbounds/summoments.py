"""Moment engines for S = sum_i a_i X_i.

Seven routes to E|S|^p / ||S||_p:

* ``evenMoments``      — exact positive-term dynamic program over prefix sums
                         for even integer p, in O(n p^2) (every law),
* ``enumeration``      — exact sweep of the 2^{n-1} sign patterns (Rademacher),
* ``partialFractions`` — exact signed Laplace mixture for distinct nonzero
                         coefficients (two-sided exponential),
* ``recursion``        — the conditional moment recursion
                         E|S|^p = E|S'|^p + p(p-1)/2 a_n^2 E|S|^{p-2}
                         over prefix sums; exact for even integer p, from
                         charFunction's integrals of order below 2 otherwise
                         (two-sided exponential, any coefficients),
* ``charFunction``     — E|S|^p = C_p int (phi_S - P_m) t^{-p-1} dt with
                         C_p = -(2/pi) sin(p pi/2) Gamma(p+1) and P_m the
                         Taylor polynomial of phi_S of degree 2 floor(p/2)
                         from the even-moment program, for every p > 0 that
                         is not an even integer, on the laws whose record
                         (dists.LAWS) has a closed-form phi_X: two-sided
                         exponential, Weibull alpha = 2, Rademacher at p > 2,
* ``haagerup``         — charFunction at 2 < p < 4, where the integral is
                         Haagerup's (1981) with m = 1,
* ``monteCarlo``       — seeded sample mean with a 3-sigma confidence interval.

Plus the 2-stable closed form gamma_p ||a||_2 for Gaussian sums.  Each
law's default ladder of these engines is in its record, and the engines
compute the sums of a spec d with its record's engine_spec(d).

One scale rule: every engine computes only on the unit-scale vector of
_canonical, the nonincreasing |a_i| divided by the power of two 2^e that
puts the largest in [1/2, 1), and MomentEstimate.scaled returns
||S||_p = 2^e ||S / 2^e||_p.  Outputs are bitwise invariant under
permutation, sign flips and power-of-two scaling of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
from .quadrature import DEFAULT_SUBDIVISION_CAP, integrate_adaptive

__all__ = [
    "EVEN_MOMENT_CAP",
    "ENUMERATION_CAP",
    "PARTIAL_FRACTION_GAP",
    "RESIDUE_MAGNITUDE_CAP",
    "Engine",
    "ENGINES",
    "Rigor",
    "MomentEstimate",
    "even_sum_moment",
    "rademacher_sum_moment",
    "laplace_sum_moment_exact",
    "laplace_sum_moment_recursion",
    "haagerup_moment",
    "char_function_moment",
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
    v, d, p, samples and seed."""

    function: str
    laws: frozenset[str]
    exact: bool
    refusals: tuple[type[MomentBoundsError], ...] = ()
    args: tuple[str, ...] = ("v", "p")

    @property
    def seeded(self) -> bool:
        return "seed" in self.args


# the refusals of the engines that run _char_function_integral
_INTEGRAL_REFUSALS = (EngineCapacityError, QuadratureError)
_EXPONENTIAL = frozenset({dists.SYM_EXPONENTIAL})
# the laws with a closed-form phi_X in their record
_CHAR_LAWS = frozenset(kind for kind, law in dists.LAWS.items() if law.char is not None)
ENGINES = {
    "evenMoments": Engine(
        "even_sum_moment", frozenset(dists.KINDS), True, (EngineCapacityError,), args=("v", "d", "p")
    ),
    "enumeration": Engine("rademacher_sum_moment", frozenset({dists.RADEMACHER}), True, (EngineCapacityError,)),
    "partialFractions": Engine(
        "laplace_sum_moment_exact", _EXPONENTIAL, True, (DegenerateCoefficientsError, ResidueCancellationError)
    ),
    "recursion": Engine("laplace_sum_moment_recursion", _EXPONENTIAL, True, _INTEGRAL_REFUSALS),
    "haagerup": Engine("haagerup_moment", _CHAR_LAWS, False, _INTEGRAL_REFUSALS, args=("v", "d", "p")),
    "charFunction": Engine("char_function_moment", _CHAR_LAWS, False, _INTEGRAL_REFUSALS, args=("v", "d", "p")),
    "monteCarlo": Engine(
        "monte_carlo_sum_moment", frozenset(dists.KINDS), False, args=("v", "d", "p", "samples", "seed")
    ),
    "closedForm": Engine("gaussian_sum_norm", frozenset({dists.GAUSSIAN}), True),
}


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
    """A computed value of ||S||_p with its raw moment E|S|^p (None outside
    the normal float range), method and rigor.  Built by scaled()."""

    p: float
    raw_moment: float | None
    value: float
    method: str
    rigor: Rigor

    def __post_init__(self):
        if self.method not in ENGINES:
            raise ValueError(f"unknown method {self.method!r}")
        if self.value < 0 or (self.raw_moment is not None and self.raw_moment < 0):
            raise ValueError("moments and norms are nonnegative")
        if self.rigor.kind == "exact" and not ENGINES[self.method].exact:
            raise ValueError(f"method {self.method!r} cannot claim exact rigor")

    @classmethod
    def scaled(cls, p: float, m: float, e: int | None, method: str, rigor: Rigor) -> "MomentEstimate":
        """From the moment m = E|S / 2^e|^p of the unit-scale sum and e (None
        for the zero sum): value 2^e m^{1/p} (m at p = 0), raw moment m 2^{e p}.
        EngineCapacityError for an m that is not a positive normal float,
        OverflowError for a norm past the float range."""
        p, m = float(p), float(m)
        norm = _scaled_norm(m, e, p, method)  # refuses m before the raw moment is formed
        return cls(p, _scale_moment(m, e, p), norm, method, rigor)


_TINY = 2.0**-1022  # the smallest normal float


def _scaled_norm(m: float, e: int | None, p: float, method: str, refusal: type = EngineCapacityError) -> float:
    """2^e m^{1/p}: the norm of a sum whose unit-scale sum has moment m.
    Refuses (refusal, naming the method) an m of a nonzero sum that is not a
    positive normal float."""
    if e is not None and not _TINY <= m < math.inf:
        raise refusal(f"{method}'s moment of the unit-scale sum, {m!r}, is not a positive normal float")
    return m if p == 0 or e is None else math.ldexp(m ** (1.0 / p), e)


def _scale_moment(m: float, e: int | None, p: float) -> float | None:
    """m 2^{e p}, exact when e p is an integer; None outside the normal
    float range."""
    if e is None or m == 0.0:
        return m
    if not math.isfinite(e * p):
        return None
    whole = math.floor(e * p)
    x = m * 2.0 ** (e * p - whole)
    return math.ldexp(x, whole) if -1022 < math.frexp(x)[1] + whole <= 1024 else None


def _canonical(a) -> tuple[np.ndarray, list[int | None]]:
    """For each row of a (rows, n) array (a vector is one row): its |a_i| in
    nonincreasing order divided by 2^e, e from math.frexp of the largest, and
    e (None for a zero row).  Exact but for entries that fall below the
    normal range, which are negligible next to the largest."""
    y = np.sort(np.abs(np.atleast_2d(a)), axis=1)[:, ::-1]
    top = y[:, 0] if y.shape[1] else np.zeros(len(y))
    e = np.frexp(top)[1]
    return np.ldexp(y, -e[:, None]), [x if t else None for x, t in zip(e.tolist(), top.tolist())]


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


def _prefix_even_levels(y: np.ndarray, d: DistributionSpec, half: int):
    """After each coefficient of a unit-scale canonical y (see _canonical),
    the levels E S^{2k}, k = 0..half, of the prefix sum S = sum y_i X_i so
    far (one list, updated in place), by a dynamic program over prefix sums:

        E S_{k+1}^{2m} = sum_{j=0}^{m} C(2m, 2j) y_{k+1}^{2j} E X^{2j} E S_k^{2m-2j},

    with E X^{2j} from dists.single_abs_moment.  The odd moments of a
    symmetric law vanish, so every term is nonnegative and nothing cancels.
    Work is len(y) half^2; OverflowError when a level or a moment of one
    variable leaves the float range.
    """
    rows = _even_binomials(half)
    ex = [dists.single_abs_moment(d, 2.0 * j) for j in range(half + 1)]
    m = [1.0] + [0.0] * half  # E S^{2k} of the empty sum
    w = [1.0] * (half + 1)  # y^{2j} E X^{2j} of the next term
    for x in y:
        y2 = float(x) * float(x)
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
            raise OverflowError(f"E S^{2 * half} of the unit-scale sum is {m[half]!r}")
        yield m


def _even_levels(y: np.ndarray, d: DistributionSpec, half: int) -> list[float]:
    """The last levels of _prefix_even_levels; EngineCapacityError for work
    n half^2 above EVEN_MOMENT_CAP."""
    if (work := len(y) * half * half) > EVEN_MOMENT_CAP:
        raise EngineCapacityError(
            f"the even-moment recursion handles work n k^2 <= {EVEN_MOMENT_CAP} for k = {half} levels, got {work}"
        )
    m = [1.0] + [0.0] * half
    for m in _prefix_even_levels(y, d, half):
        pass
    return m


def even_sum_moment(v: CoefficientVector, d: DistributionSpec, p: float) -> MomentEstimate:
    """Exact E S^p for even integer p, any law: the top level of
    _even_levels on the unit-scale vector.  Integer inputs therefore give
    exact integer moments.  Work is n (p/2)^2.

    Refuses (EngineCapacityError) a p that is not an even integer, work
    above EVEN_MOMENT_CAP, and a moment of the unit-scale sum, of one
    variable or a norm beyond the float range.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p!r}")
    if p % 2 != 0:
        raise EngineCapacityError(f"evenMoments handles even integer p, got p={p!r}")
    half = int(p) // 2
    (y,), (e,) = _canonical(v.as_array())
    try:
        return MomentEstimate.scaled(p, _even_levels(y[y > 0.0], d, half)[half], e, "evenMoments", Rigor.exact())
    except OverflowError as exc:
        raise EngineCapacityError(f"evenMoments overflows the float range: {exc}") from None


# --- exact Rademacher enumeration -------------------------------------------


# Partial sums per tile: every sweep is built, powered and summed in tiles of
# at most 2^17 doubles (1 MB), which stay in cache.
_TILE = 1 << 17
# Sign patterns per summation chunk of the moment: the tile sums of each
# chunk are combined in numpy's pairwise tree over 2^20 elements, and the
# chunk sums in order.  Another size changes the summation tree and so the
# last bits of every result.
_ENUMERATION_BLOCK = 1 << 20


def _order_runs(p: np.ndarray) -> list[tuple[int, int, float]]:
    """The runs of equal entries of an array of row orders, as (first row,
    end row, order); rows sorted by order make one run per distinct order."""
    q = p.tolist()
    edges = [0, *(i for i in range(1, len(q)) if q[i] != q[i - 1]), len(q)]
    return [(lo, hi, q[lo]) for lo, hi in zip(edges, edges[1:])]


def _power_rows(x: np.ndarray, p: np.ndarray) -> None:
    """x **= p[i] in place on each row i of x.  The orders are applied one
    run of equal orders at a time, each as a scalar power, so that a row
    gets the bits of a call at its order alone: numpy squares at p = 2 and
    takes a square root at p = 0.5, which the elementwise power of an array
    of orders does not match bit for bit."""
    for lo, hi, q in _order_runs(p):
        x[lo:hi] **= q


def _pairwise(sums: list[np.ndarray]) -> np.ndarray:
    """The sum of 2^k arrays in numpy's pairwise tree: np.sum splits a
    power-of-two length of at least 2^8 exactly in half, so the sum of a
    2^20-element chunk is this tree over the sums of its tiles."""
    while len(sums) > 1:
        sums = [x + y for x, y in zip(sums[0::2], sums[1::2])]
    return sums[0]


def _enumeration_totals(a: np.ndarray, p) -> np.ndarray:
    """sum |S|^p over the 2^{n-1} sign patterns with eps_1 = +1, for each row
    of a (rows, n) array of unit-scale canonical coefficients (see
    _canonical), n >= 1, at the order p (a scalar, or one order per row;
    see _power_rows).

    The patterns are taken in tiles of 2^17: the partial sums of the first
    18 coefficients are built once, and each sign pattern of the remaining
    ones is folded onto them in coefficient order, written to one scratch
    tile.  Rows go in batches whose tiles hold at most 2^17 partial sums
    together, so memory is two 1 MB tiles whatever n and the number of rows
    are, while time stays proportional to 2^{n-1}.
    Every float operation and the summation order of a row are those of a
    sweep over one 2^{n-1}-element array summed in 2^20-element chunks, so
    a row gets the same bits in any batch.
    """
    rows, n = a.shape
    p = np.full(rows, p, dtype=float)
    split = _TILE.bit_length()
    width = 1 << (min(n, split) - 1)
    batch = _TILE // width
    patterns = 1 << (n - min(n, split))
    # tile patterns per summation chunk
    group = min(patterns, _ENUMERATION_BLOCK // width)
    totals = np.zeros(rows)
    for lo in range(0, rows, batch):
        part, order = a[lo : lo + batch], p[lo : lo + batch]
        head, rest = part[:, :split], part[:, split:]
        # fix eps_1 = +1, build the tile's partial sums by in-place doubling
        base = np.empty((len(part), width))
        base[:, 0] = head[:, 0]
        size = 1
        for j in range(1, head.shape[1]):
            coef = head[:, j : j + 1]
            base[:, size : 2 * size] = base[:, :size] - coef
            base[:, :size] += coef
            size *= 2
        scratch = np.empty_like(base) if patterns > 1 else base
        sums = []
        # a power past the float range is inf, which MomentEstimate.scaled refuses
        with np.errstate(over="ignore"):
            # bit k of the pattern means eps = -1 on rest[:, k]; this is the
            # order of the tiles of the whole 2^{n-1} sweep
            for pattern in range(patterns):
                tile = base
                for k in range(rest.shape[1]):
                    (np.subtract if pattern >> k & 1 else np.add)(tile, rest[:, k : k + 1], out=scratch)
                    tile = scratch
                np.abs(tile, out=tile)
                _power_rows(tile, order)
                sums.append(np.sum(tile, axis=1))
                if len(sums) == group:
                    totals[lo : lo + batch] += _pairwise(sums)
                    sums = []
    return totals


def rademacher_sum_moment(v: CoefficientVector, p: float) -> MomentEstimate:
    """Exact E|sum a_i eps_i|^p over all sign patterns.

    Symmetry halves the sweep to 2^{n-1} patterns of weight 2^{-(n-1)},
    streamed in tiles of 2^17 (see _enumeration_totals), so memory is two
    1 MB tiles whatever n is.  Refuses (EngineCapacityError) n past
    ENUMERATION_CAP, where a ladder moves on to its next engine.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p!r}")
    y, (e,) = _canonical(v.as_array())
    n = y.shape[1]
    if n > ENUMERATION_CAP:
        raise EngineCapacityError(f"enumeration handles n <= {ENUMERATION_CAP}, got n={n}")
    # the empty sum is 0, whose moment is 1 at p = 0
    m = float(_enumeration_totals(y, p)[0]) / (1 << (n - 1)) if n else float(p == 0)
    return MomentEstimate.scaled(p, m, e, "enumeration", Rigor.exact())


# --- exact Laplace partial fractions -----------------------------------------


def _residue_rows(a: np.ndarray) -> tuple[np.ndarray, list[MomentBoundsError | None]]:
    """Residues c (rows, n) of prod_j 1/(1 + a_j^2 t^2/2) for each row of a
    (rows, n) array of unit-scale canonical coefficients, with each row's refusal
    (None where the row has residues; its row of c is then meaningless)."""
    rows, n = a.shape
    if n == 0:
        return np.empty((rows, 0)), [DegenerateCoefficientsError("empty coefficient vector") for _ in range(rows)]
    s = a * a
    diffs = s[:, :, None] - s[:, None, :]
    eye = np.eye(n, dtype=bool)
    zero = (a == 0.0).any(axis=1)
    crowded = np.where(eye, np.inf, np.abs(diffs)).min(axis=(1, 2)) < PARTIAL_FRACTION_GAP * s[:, 0]
    # refused rows may divide by zero or overflow here
    with np.errstate(all="ignore"):
        c = np.where(eye, 1.0, s[:, :, None] / diffs).prod(axis=2)
        mass = np.abs(c).sum(axis=1)

    def refusal(i: int) -> MomentBoundsError:
        if zero[i]:
            return DegenerateCoefficientsError(
                "partial fractions require all coefficients nonzero; use the charFunction or recursion engine"
            )
        if crowded[i]:
            return DegenerateCoefficientsError(
                f"squared coefficients closer than relative gap {PARTIAL_FRACTION_GAP:g}; "
                "use the charFunction or recursion engine"
            )
        return ResidueCancellationError(
            f"residue mass sum |c| exceeds {RESIDUE_MAGNITUDE_CAP:g}: "
            "catastrophic cancellation; use the charFunction or recursion engine"
        )

    refusals: list[MomentBoundsError | None] = [None] * rows
    for i in np.flatnonzero(zero | crowded | (mass > RESIDUE_MAGNITUDE_CAP)).tolist():
        refusals[i] = refusal(i)
    return c, refusals


def _partial_fraction_rows(a: np.ndarray, p) -> tuple[np.ndarray, list[MomentBoundsError | None]]:
    """E|sum a_i E_i|^p = Gamma(p+1) sum_i c_i (|a_i|/sqrt2)^p for each row of
    a (rows, n) array of unit-scale canonical coefficients, with each row's
    refusal (None where the row has a moment).  p is a scalar order or one
    order per row; it enters by products and sums only, so a row gets the
    bits of a call at its order alone."""
    c, refusals = _residue_rows(a)
    p = np.full(len(a), p, dtype=float)
    lg = np.empty((len(a), 1))
    for lo, hi, q in _order_runs(p):
        lg[lo:hi] = log_gamma(q + 1.0)
    with np.errstate(all="ignore"):
        raw = (c * np.exp(lg + p[:, None] * np.log(a / SQRT2))).sum(axis=1)
    for i, refusal in enumerate(refusals):
        if refusal is None and raw[i] <= 0.0:
            refusals[i] = ResidueCancellationError(
                f"partial-fraction sum collapsed to {float(raw[i])!r}; cancellation too severe"
            )
    return raw, refusals


def laplace_sum_moment_exact(v: CoefficientVector, p: float) -> MomentEstimate:
    """Exact E|sum a_i E_i|^p = Gamma(p+1) sum_i c_i (|a_i|/sqrt2)^p, p > -1.

    The sum of independent Laplace laws with distinct scales is a signed
    mixture of single Laplace laws; fractional moments follow termwise.
    """
    if p <= -1:
        raise ValueError(f"p must be > -1, got {p!r}")
    y, (e,) = _canonical(v.as_array())
    (m,), (refusal,) = _partial_fraction_rows(y, p)
    if refusal is not None:
        raise refusal
    return MomentEstimate.scaled(p, m, e, "partialFractions", Rigor.exact())


# --- recursion engine for Laplace sums ---------------------------------------


def laplace_sum_moment_recursion(v: CoefficientVector, p: float) -> MomentEstimate:
    """E|sum a_i E_i|^p by the conditional moment recursion over the prefix
    sums P_k = sum_{i<=k} y_i E_i of the unit-scale canonical vector y:

        E|P_k|^q = E|P_{k-1}|^q + q(q-1)/2 * y_k^2 * E|P_k|^{q-2},

    descending q by 2 until the base order q0 lies in [0, 2).  The base case
    q0 = 0 is exact (moment 1), so even integer p needs no quadrature at all;
    a fractional q0 takes E|P_k|^{q0} of all n prefixes from charFunction's
    integral (O(n) per integrand evaluation, no work cap), and its refusals
    (EngineCapacityError, QuadratureError) are the recursion's.  Every prefix
    holds the largest coefficient, so all of them share the scale of y.

    Works for any coefficients (repeated values included) and at every p:
    the fallback where charFunction's Taylor subtraction cancels (non-even p
    from about 9.5 at n = 2 to 13.5 at n = 100 upward) or its work cap
    refuses.  Rigor: exact for even p; otherwise tolerance(eps), eps the
    largest relative error of a base level plus (n + 3) rounding units per
    level of the ascent, which adds nonnegative terms only.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p!r}")
    (y,), (e,) = _canonical(v.as_array())
    y = y[y > 0.0]
    n = len(y)
    if n == 0:
        return MomentEstimate.scaled(p, 1.0 if p == 0 else 0.0, None, "recursion", Rigor.exact())
    squares = [x * x for x in y.tolist()]
    # descending by 2.0 is exact in binary floating point; ascend over the
    # same ladder rather than re-adding (which could round)
    ladder = [p]
    while ladder[-1] >= 2.0:
        ladder.append(ladder[-1] - 2.0)
    q0 = ladder[-1]  # base order in [0, 2)
    if q0 == 0.0:
        level = [1.0] * (n + 1)
        eps = None
    else:
        # E|P_k|^{q0} of every prefix; the empty one stays 0
        level, eps = [0.0] * (n + 1), 0.0
        d = dists.sym_exponential()
        for k, mom in enumerate(_prefix_even_levels(y, d, _SERIES_TERMS), 1):
            level[k], err = _char_function_integral(d, y[:k], mom, q0)
            eps = max(eps, err)
        # a term adds 4 roundings (coef, three products) to the relative error
        # of the level below, and a sum of n nonnegative terms n - 1 more
        eps += (len(ladder) - 1) * (n + 3) * _UNIT_ROUNDOFF
    for q in reversed(ladder[:-1]):
        nxt = [0.0] * (n + 1)
        coef = 0.5 * q * (q - 1.0)
        for k in range(1, n + 1):
            nxt[k] = nxt[k - 1] + coef * squares[k - 1] * level[k]
        level = nxt
    rigor = Rigor.exact() if eps is None else Rigor.tolerance(eps)
    return MomentEstimate.scaled(p, level[n], e, "recursion", rigor)


# --- characteristic-function integral, p not an even integer -----------------

# Taylor terms of phi_S beyond the subtracted ones, integrated below t0
_SERIES_TERMS = 13
_LAST_BLOCK = 2.0**60
_UNIT_ROUNDOFF = 2.0**-53


def _power_integral(k: int, p: float, lo: float, hi: float) -> float:
    # int_lo^hi t^{k-p-1} dt for an integer k != p
    return (hi ** (k - p) - lo ** (k - p)) / (k - p)


def _char_function_integral(d: DistributionSpec, y: np.ndarray, mom: list[float], p: float) -> tuple[float, float]:
    """E|S|^p and its relative error bound for S = sum y_i X_i, X_i of the
    law d with a closed-form phi_X, max |y_i| in [1/2, 1), with levels
    mom[j] = E S^{2j}, j <= p/2 + 13: the numerics and refusals of
    char_function_moment; past the float range OverflowError."""
    char = dists.LAWS[d.kind].char
    tail, tolerance = char.tail, char.tolerance
    n = len(y)
    m = int(p) // 2
    top = m + _SERIES_TERMS
    phi, envelope, mgf, radius = char.sums(d, y)
    coef = [(-1) ** j * mom[j] / math.factorial(2 * j) for j in range(top + 1)]
    t1 = min(4.0 / math.sqrt(mom[1]), radius)
    t0 = 0.25 * t1
    cut = 2.0 * t1
    series = [coef[j] * t0 ** (2 * j - p) / (2 * j - p) for j in range(m + 1, top + 1)]
    truncation = mgf(t1) * 0.25 ** (2 * top + 2) / (1.0 - 1.0 / 16.0) * t0**-p / (2 * top + 2 - p)
    closed_tail = [coef[j] * cut ** (2 * j - p) / (p - 2 * j) for j in range(m + 1)]

    # phi_S and P_m come to within about n + m ulps of their size
    rounding = _UNIT_ROUNDOFF * (
        (n + m + 2) * sum(abs(coef[j]) * _power_integral(2 * j, p, t0, cut) for j in range(m + 1))
        + (n + 2) * _power_integral(0, p, t0, cut)
        + top * (sum(map(abs, series)) + sum(map(abs, closed_tail)))
    )
    # sin(p pi/2) = (-1)^k sin(r pi/2) for p = 2k + r: the exact remainder r
    # keeps its relative accuracy near even p, where the sine vanishes
    r = math.remainder(p, 2.0)
    sine = math.sin(0.5 * math.pi * r) * (-1.0 if round((p - r) / 2.0) % 2 else 1.0)
    c_p = -(2.0 / math.pi) * sine * math.gamma(p + 1.0)
    # the integral is E|S|^p / |c_p| <= (E S^{2m+2})^{p/(2m+2)} / |c_p|
    # (Lyapunov), so the rounding alone bounds eps from below
    floor = rounding * abs(c_p) / mom[m + 1] ** (p / (2 * m + 2)) + 16 * _UNIT_ROUNDOFF
    if floor > tolerance:
        raise EngineCapacityError(
            f"the characteristic-function integral's error bound is at least {floor:.3g}, "
            f"above {tolerance:g} at p={p!r}: the Taylor subtraction cancels"
        )

    def remainder(t: np.ndarray) -> np.ndarray:
        s = t * t
        poly = coef[m]
        for j in range(m - 1, -1, -1):
            poly = poly * s + coef[j]
        return (phi(t) - poly) * t ** (-p - 1.0)

    body, abserr = integrate_adaptive(remainder, t0, cut)
    total = sum(series) + body - sum(closed_tail)

    def phi_part(t: np.ndarray) -> np.ndarray:
        return phi(t) * t ** (-p - 1.0)

    t_hi = cut
    while (phi_tail := envelope(t_hi) * t_hi**-p / p) > tail * abs(total):
        if t_hi >= _LAST_BLOCK:
            raise QuadratureError("the characteristic function's tail did not close below 2^60")
        # an oscillating phi_S needs subintervals in proportion to the length
        cap = max(DEFAULT_SUBDIVISION_CAP, int(t_hi) + 100)
        piece, err = integrate_adaptive(phi_part, t_hi, 2.0 * t_hi, epsabs=tail * abs(total), limit=cap)
        total += piece
        abserr += err
        t_hi *= 2.0
    eps = (abserr + truncation + rounding + phi_tail) / abs(total) + 16 * _UNIT_ROUNDOFF
    if not eps <= tolerance:
        raise EngineCapacityError(
            f"the characteristic-function integral's error bound {eps:.3g} exceeds {tolerance:g} "
            f"at p={p!r}: the Taylor subtraction cancels"
        )
    return c_p * total, eps


def char_function_moment(v: CoefficientVector, d: DistributionSpec, p: float) -> MomentEstimate:
    """E|S|^p for p > 0 not an even integer, by the Taylor-subtracted
    characteristic-function formula (von Bahr at m = 0, Haagerup at m = 1):

        E|S|^p = C_p int_0^inf (phi_S(t) - P_m(t)) t^{-p-1} dt,
        P_m(t) = sum_{j<=m} (-1)^j E S^{2j} t^{2j}/(2j)!,   2m < p < 2m+2,

    with C_p = -(2/pi) Gamma(p+1) sin(p pi/2), for the laws whose record has
    a closed-form phi_X (dists.CharFunction): the two-sided exponential,
    Weibull alpha = 2 and, at p > 2, Rademacher signs.  It runs on the
    unit-scale vector (max |a_i| in [1/2, 1)), whose moments E S^{2j} come
    from _even_levels.

    Numerics, with sigma = ||S||_2 of the unit-scale sum, t1 = 4/sigma (at most
    1/max|a_i| for the exponential, whose phi_S has poles) and t0 = t1/4:

    * below t0 the integrand is the Taylor series of phi_S - P_m, integrated
      term by term for j = m+1 .. m+13.  Every Taylor coefficient is at most
      E cosh(t1 S) / t1^{2j}, which bounds the omitted terms;
    * on [t0, 2 t1] the adaptive Gauss-Kronrod rule of
      quadrature.integrate_adaptive integrates (phi_S - P_m) t^{-p-1};
    * past 2 t1 the polynomial P_m goes in closed form, and the same rule
      integrates phi_S t^{-p-1} on doubling blocks [T, 2T] until the bound
      sup_{t>=T} |phi_S(t)| T^{-p}/p on the rest is below 1e-15 of the
      integral (1e-8 for signs: a product of cosines does not decay).

    Rigor: tolerance(eps), where eps is the sum of the rule's error
    estimates, the series truncation bound, the phi-tail bound and a bound
    on the rounding of phi_S - P_m and of the closed-form pieces, over the
    integral, plus 16 ulps for the final products.  Refuses
    (EngineCapacityError) an even integer p, a law without a closed-form
    phi_S, Rademacher signs at p < 2 (on lattices eps is no bound there),
    eps above dists.CHAR_FUNCTION_TOLERANCE (1e-6 for signs; at large p the pieces
    cancel), and work of _even_levels above EVEN_MOMENT_CAP; QuadratureError
    when a quadrature does not converge.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p!r}")
    if p % 2 == 0:
        raise EngineCapacityError(f"charFunction handles p that is not an even integer, got p={p!r}")
    spec = dists.LAWS[d.kind].engine_spec(d)
    char = dists.LAWS[spec.kind].char
    refusal = dists.NO_CHAR_FUNCTION.format(d=d) if char is None else char.refusal(spec, p)
    if refusal is not None:
        raise EngineCapacityError(f"charFunction {refusal}")
    (y,), (e,) = _canonical(v.as_array())
    y = y[y > 0.0]
    if e is None:
        return MomentEstimate.scaled(p, 0.0, None, "charFunction", Rigor.tolerance(_UNIT_ROUNDOFF))
    try:
        mom = _even_levels(y, d, int(p) // 2 + _SERIES_TERMS)
        value, eps = _char_function_integral(spec, y, mom, p)
    except OverflowError as exc:
        raise EngineCapacityError(f"charFunction overflows the float range: {exc}") from None
    return MomentEstimate.scaled(p, value, e, "charFunction", Rigor.tolerance(eps))


def haagerup_moment(v: CoefficientVector, d: DistributionSpec, p: float) -> MomentEstimate:
    """char_function_moment for 2 < p < 4 strictly, where it is Haagerup's
    representation E|S|^p = C_p int_0^inf (phi_S(t) - 1 + t^2 E S^2/2)
    t^{-p-1} dt (Haagerup 1981), labelled haagerup."""
    if not 2.0 < p < 4.0:
        raise ValueError(f"the Haagerup representation requires 2 < p < 4, got {p!r}")
    return replace(char_function_moment(v, d, p), method="haagerup")


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
    order, so runs are reproducible and parallelizable; they weight the
    unit-scale vector, so they are the same at every power-of-two scale.
    CI halfwidth is the asymptotic-normal 3-sigma value (confidence 0.997);
    EngineCapacityError where it or the raw moment leaves the float range.
    """
    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MC_MIN_SAMPLES}, got {samples!r}")
    for p in ps:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p!r}")
    (y,), (e,) = _canonical(v.as_array())
    y = y[y > 0.0]
    sums = {p: 0.0 for p in ps}
    sq_sums = {p: 0.0 for p in ps}
    done = 0
    block_index = 0
    while done < samples:
        m = min(_MC_BLOCK, samples - done)
        rng = dists.substream(seed, block_index)
        abs_s = np.abs(dists.sample_array(d, rng, (m, len(y))) @ y)
        with np.errstate(over="ignore"):  # an inf power is refused below
            for p in ps:
                x = abs_s**p
                sums[p] += float(np.sum(x))
                x *= x
                sq_sums[p] += float(np.sum(x))
        done += m
        block_index += 1
    out = []
    for p in ps:
        mean = sums[p] / samples
        var = max(sq_sums[p] - samples * mean * mean, 0.0) / (samples - 1)
        halfwidth = _scale_moment(3.0 * math.sqrt(var / samples), e, p)
        if halfwidth is None or _scale_moment(mean, e, p) is None:
            raise EngineCapacityError(f"monteCarlo's ci at p={p!r} lies outside the normal float range")
        out.append(MomentEstimate.scaled(p, mean, e, "monteCarlo", Rigor.ci(halfwidth, 0.997)))
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
    """||sum a_i g_i||_p = gamma_p ||a||_2 exactly (2-stability), on the
    unit-scale vector."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p!r}")
    y, (e,) = _canonical(v.as_array())
    m = (gamma_p(p) * coeffs._l2_rows(y)[0]) ** p
    return MomentEstimate.scaled(p, m, e, "closedForm", Rigor.exact())
