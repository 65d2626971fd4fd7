"""Closed-form two-sided moment bounds and the Orlicz dual-norm functional.

Bound sources (``BoundInterval.source``, the keys of ``BOUND_SOURCES``):

* ``khintchine`` — ||sum a_i eps_i||_p in [||a||_2, gamma_p ||a||_2], p >= 2
                   (upper: optimal-constant Khintchine; lower: norm monotonicity);
* ``comp2``      — the outer members of the Bernoulli/exponential comparison
                   chain: [gamma_p (tail l2), gamma_p ||a||_2], p >= 2;
* ``estrad``     — Rademacher sums: lower max{gamma_p (tail l2), head-sum/sqrt2},
                   upper gamma_p (tail l2) + head-sum, head/tail split at ceil(p/2);
* ``estexp``     — two-sided exponential sums: lower max{gamma_p ||a||_2,
                   (p/(e sqrt2)) ||a||_inf}, upper gamma_p ||a||_2 + p ||a||_inf;
* ``logconc``    — any unit-variance symmetric law with log-concave tails,
                   p >= 3: gamma_p (sum_{i >= ceil(p/2)} a_i^2)^{1/2} combined
                   with the supplied head norm ||sum_{i<p} a_i X_i||_p (the head
                   i < p and tail i >= ceil(p/2) overlap by design);
* ``gaussGap``   — |  ||S||_p - gamma_p ||a||_2 | <= p ||a||_inf, p >= 3,
                   clamped below at 0.

The dual-norm functional sup{ sum a_i b_i : sum M_i(b_i) <= p } with
M_i(x) = x^2 for |x| <= 1 and M_i(x) = N(|x|) = -ln P(|X_i| >= |x|) for
|x| > 1 is solved by Lagrange-multiplier bisection on the budget, treating
the jump of M at |x| = 1 as a kink (both one-sided candidates evaluated,
ties resolved toward the largest maximizer), plus an exact budget top-up
pass for the discontinuous-budget case.  N, its inverse, its slope and the
slope's inverse are read from the law's record (dists.LAWS).  Each
candidate regime pins every coordinate to one piece of M; per cost the tail
piece goes to a prefix of that cost's coordinates sorted by |a|, so n_c
coordinates of cost c give n_c + 1 choices.
A regime whose weak-duality bound lies below the best value found is not
solved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import coeffs, dists
from .coeffs import CoefficientVector
from .dists import DistributionSpec, gamma_p
from .errors import UnboundedSupremumError

__all__ = [
    "BoundInterval",
    "OrliczFunction",
    "khintchine_bounds",
    "comp2_bounds",
    "rademacher_bounds",
    "exponential_bounds",
    "logconcave_bounds",
    "gaussian_approx_gap",
    "gk_dual_norm",
    "BoundSource",
    "BOUND_SOURCES",
]


class BoundSource(NamedTuple):
    """One bound source: the name of the function of this module that
    evaluates it (looked up at call time), the engine law whose sums it
    bounds (None: every law) and the lowest order p at which it holds."""

    function: str
    law: str | None
    p_min: float


BOUND_SOURCES = {
    "khintchine": BoundSource("khintchine_bounds", dists.RADEMACHER, 2.0),
    "comp2": BoundSource("comp2_bounds", dists.RADEMACHER, 2.0),
    "estrad": BoundSource("rademacher_bounds", dists.RADEMACHER, 2.0),
    "estexp": BoundSource("exponential_bounds", dists.SYM_EXPONENTIAL, 2.0),
    "logconc": BoundSource("logconcave_bounds", None, 3.0),
    "gaussGap": BoundSource("gaussian_approx_gap", None, 3.0),
}


@dataclass(frozen=True)
class BoundInterval:
    """A [lower, upper] pair for ||S||_p with its provenance; OverflowError
    for an endpoint past the float range."""

    lower: float
    upper: float
    source: str
    p: float

    def __post_init__(self):
        if self.source not in BOUND_SOURCES:
            raise ValueError(f"unknown bound source {self.source!r}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise OverflowError(f"the {self.source} bound at p={self.p!r} has an endpoint past the float range")
        if self.lower < 0 or self.lower > self.upper:
            raise ValueError(f"need 0 <= lower <= upper, got [{self.lower}, {self.upper}]")


def _check_order(source: str, p: float) -> None:
    """Refuse an order below the source's lowest (BOUND_SOURCES)."""
    lowest = BOUND_SOURCES[source].p_min
    if p < lowest:
        raise ValueError(f"p must be >= {lowest:g}, got {p!r}")


def _tail_l2(v: CoefficientVector, p: float) -> tuple[CoefficientVector, CoefficientVector, float]:
    rearranged = coeffs.rearrange(v)
    head, tail = coeffs.head_tail_split(rearranged, p)
    return head, tail, coeffs.norm(tail, 2)


def khintchine_bounds(v: CoefficientVector, p: float) -> BoundInterval:
    """[||a||_2, gamma_p ||a||_2] for Rademacher sums, p >= 2."""
    _check_order("khintchine", p)
    l2 = coeffs.norm(v, 2)
    return BoundInterval(l2, max(gamma_p(p) * l2, l2), "khintchine", p)


def comp2_bounds(v: CoefficientVector, p: float) -> BoundInterval:
    """Outer members of the comparison chain: [gamma_p tail-l2, gamma_p ||a||_2]."""
    _check_order("comp2", p)
    _, _, tl2 = _tail_l2(v, p)
    g = gamma_p(p)
    upper = g * coeffs.norm(v, 2)
    return BoundInterval(min(g * tl2, upper), upper, "comp2", p)


def rademacher_bounds(v: CoefficientVector, p: float) -> BoundInterval:
    """Two-sided bound for ||sum a_i eps_i||_p, p >= 2.

    With the rearranged split at ceil(p/2): the tail contributes at Gaussian
    l2 scale, the head at first-moment scale (lower constant 1/sqrt2).
    """
    _check_order("estrad", p)
    head, _, tl2 = _tail_l2(v, p)
    head_sum = sum(head.values)
    g = gamma_p(p)
    lower = max(g * tl2, head_sum / math.sqrt(2.0))
    return BoundInterval(lower, g * tl2 + head_sum, "estrad", p)


def exponential_bounds(v: CoefficientVector, p: float) -> BoundInterval:
    """Two-sided bound for ||sum a_i E_i||_p, p >= 2."""
    _check_order("estexp", p)
    l2 = coeffs.norm(v, 2)
    linf = coeffs.norm(v, math.inf)
    g = gamma_p(p)
    lower = max(g * l2, p / (math.e * math.sqrt(2.0)) * linf)
    return BoundInterval(lower, g * l2 + p * linf, "estexp", p)


def logconcave_bounds(
    v: CoefficientVector, d: DistributionSpec, p: float, head_norm: float
) -> BoundInterval:
    """Two-sided bound for ||sum a_i X_i||_p, X symmetric unit-variance with
    log-concave tails, p >= 3, from the rearranged v.

    ``head_norm`` must be the value of ||sum_{i<p} a_i X_i||_p computed by a
    summoments engine over coeffs.strict_head(v, p); the head (i < p) and
    the l2 tail (i >= ceil(p/2)) overlap by design.  The law ``d`` enters
    only through ``head_norm``, and both endpoints are nondecreasing in it.
    """
    _check_order("logconc", p)
    _, tail = coeffs.head_tail_split(v, p)  # refuses an unrearranged v
    g_tail = gamma_p(p) * coeffs.norm(tail, 2)
    return BoundInterval(max(g_tail, head_norm), g_tail + head_norm, "logconc", p)


def gaussian_approx_gap(v: CoefficientVector, p: float) -> BoundInterval:
    """Gaussian approximation window: gamma_p ||a||_2 +- p ||a||_inf, p >= 3,
    clamped below at 0 (norms are nonnegative; the signed form is checked
    separately by the verification module)."""
    _check_order("gaussGap", p)
    center = gamma_p(p) * coeffs.norm(v, 2)
    width = p * coeffs.norm(v, math.inf)
    return BoundInterval(max(center - width, 0.0), center + width, "gaussGap", p)


# --- Orlicz dual norm ---------------------------------------------------------


class OrliczFunction:
    """Per-coordinate cost M(x) = x^2 for |x| <= 1, N(|x|) beyond, where
    N(t) = -ln P(|X| >= t) is the tail exponent of a unit-variance law,
    read with its inverse and slope from the law's record (dists.LAWS).

    M is even and nondecreasing on each piece; when N(1) != 1 it jumps at
    |x| = 1 and the solver treats the jump as a kink.
    """

    def __init__(self, d: DistributionSpec):
        self.dist = d
        self.law = dists.LAWS[d.kind]

    def tail_exponent(self, x: float) -> float:
        return self.law.exponent(self.dist, x)

    def __call__(self, x: float) -> float:
        ax = abs(x)
        return ax * ax if ax <= 1.0 else self.tail_exponent(ax)

    def tail_exponent_inverse(self, y: float) -> float | None:
        """x with N(x) = y, or None when N never attains finite y (Rademacher)."""
        inverse = self.law.exponent_inverse
        return None if inverse is None else inverse(self.dist, y)

    def tail_exponent_slope(self, x: float) -> float:
        """N'(x) for x >= 1 (N is convex, so the slope is nondecreasing)."""
        return self.law.exponent_slope(self.dist, x)

    def largest_sublevel(self, y: float) -> float:
        """max{x >= 0 : M(x) <= y} for y >= 0."""
        if y < 0:
            raise ValueError("sublevel requires y >= 0")
        cand = math.sqrt(y) if y < 1.0 else 1.0
        n1 = self.tail_exponent(1.0)
        if y >= n1:
            inv = self.tail_exponent_inverse(y)
            if inv is not None:
                cand = max(cand, inv)
        return cand


class _TailPiece:
    """One coordinate's tail piece: b in [1, cap] at cost N(b), with the
    slopes and the costs at both ends computed once."""

    __slots__ = ("m", "cap", "slope1", "slope_cap", "cost1", "cost_cap")

    def __init__(self, m: OrliczFunction, cap: float):
        self.m, self.cap = m, cap
        self.slope1, self.slope_cap = m.tail_exponent_slope(1.0), m.tail_exponent_slope(cap)
        self.cost1, self.cost_cap = m.tail_exponent(1.0), m.tail_exponent(cap)

    def argmax(self, s: float) -> tuple[float, float]:
        """(b, N(b)) for the b in [1, cap] with N'(b) = s, clipped to the
        piece: the largest maximizer of s b - N(b) on it.  The cap comes
        first, so a constant slope (slope1 == slope_cap) ties toward it."""
        inverse = self.m.law.slope_inverse
        if s >= self.slope_cap:
            b = self.cap
        elif s <= self.slope1:
            b = 1.0
        elif inverse is not None:
            b = min(max(inverse(self.m.dist, s), 1.0), self.cap)
        else:
            # imported here, so that importing the package leaves
            # scipy.optimize unloaded
            from scipy.optimize import brentq

            b = float(brentq(lambda x: self.m.tail_exponent_slope(x) - s, 1.0, self.cap))
        if b == 1.0:
            return b, self.cost1
        if b == self.cap:
            return b, self.cost_cap
        return b, self.m.tail_exponent(b)


# the most regimes gk_dual_norm tries: 2^16, i.e. 16 laws of one coordinate each
_GK_REGIME_CAP = 1 << 16
# how far past p the entry fees of a regime's tail set may go before the
# regime counts as infeasible; a regime in that band keeps the excess
_GK_BUDGET_SLACK = 1e-12


def _gk_order(a: np.ndarray, M: Sequence[OrliczFunction]) -> list[int]:
    """The canonical order of the coordinates: by law (kind, alpha, scale),
    then by decreasing |a|.  Coordinates that tie are interchangeable."""
    return sorted(range(len(a)), key=lambda i: (M[i].dist.kind, M[i].dist.alpha or 0.0, M[i].dist.scale or 0.0, -a[i]))


def _gk_regimes(a: np.ndarray, M: Sequence[OrliczFunction]):
    """Regime assignments to try, for coordinates in canonical order (see
    _gk_order): which sit on the tail piece (b > 1) versus the quadratic
    piece (b <= 1).

    Among coordinates of one cost an optimal solution gives the tail piece
    to the larger |a| (exchange argument), so per cost the tail set is a
    prefix of its coordinates, and only the empty one for a cost without a
    tail piece (Rademacher).  The regimes are the products of those
    prefixes, refused past _GK_REGIME_CAP of them.
    """
    groups: dict[DistributionSpec, list[int]] = {}
    for i in range(len(a)):
        groups.setdefault(M[i].dist, []).append(i)
    prefixes = []
    for idx in groups.values():
        has_tail = math.isfinite(M[idx[0]].tail_exponent_slope(1.0))
        prefixes.append([idx[:k] for k in range(len(idx) + 1 if has_tail else 1)])
    if math.prod(map(len, prefixes)) > _GK_REGIME_CAP:
        raise UnboundedSupremumError(f"the Orlicz costs give more than {_GK_REGIME_CAP} tail regimes to try")
    for choice in itertools.product(*prefixes):
        yield frozenset(itertools.chain.from_iterable(choice))


def _gk_allocate(
    af: Sequence[float], tail: Sequence[_TailPiece | None], lam: float
) -> tuple[list[float], list[float], float]:
    """Each coordinate's maximizer of a_i b - lam M_i(b) on its piece (the
    quadratic one where tail[i] is None), its cost, and the total cost."""
    bs, ms = [], []
    for ai, piece in zip(af, tail):
        if piece is not None:
            b, mval = piece.argmax(ai / lam)
        else:
            b = min(max(ai / (2.0 * lam), 0.0), 1.0)
            mval = b * b
        bs.append(b)
        ms.append(mval)
    return bs, ms, float(sum(ms))


def _gk_solve(
    a: np.ndarray, pieces: Sequence[_TailPiece], p: float, tail_set: frozenset[int]
) -> tuple[float, float] | None:
    """Exact optimum with each coordinate pinned to one piece of M, and the
    multiplier of its final allocation; None when the regime is infeasible.

    Quad coordinates take b in [0, 1] at cost b^2; the coordinates of
    tail_set take b in [1, cap] of their piece at cost N(b) (convex), so the
    restricted problem is concave and multiplier bisection is exact.  Linear
    tail segments (constant N') make the budget jump at the critical
    multiplier; the remainder is then spent in closed form on the best
    coordinate, which is exact because tied linear segments all trade budget
    at the same rate.  A tail piece always has N^{-1}: only a law with a
    finite N'(1) gets one, and every such law states its inverse.
    """
    n = len(a)
    af = [float(x) for x in a]
    tail = [pieces[i] if i in tail_set else None for i in range(n)]
    lo, hi = 1e-30, 1e30
    bs, _, g_max = _gk_allocate(af, tail, lo)
    if g_max <= p:  # budget cannot be filled: caps are optimal
        return float(np.dot(a, bs)), lo
    _, _, g_min = _gk_allocate(af, tail, hi)
    if g_min > p + _GK_BUDGET_SLACK:
        return None  # regime infeasible: tail entry fees alone exceed p
    for _ in range(300):
        mid = math.sqrt(lo * hi)
        g = _gk_allocate(af, tail, mid)[2]
        if g > p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi and hi - lo < 1.0:
            break
    bs, ms, g = _gk_allocate(af, tail, hi)  # feasible side
    # spend any remainder left by a budget jump (linear tail segments)
    for _ in range(2 * n + 2):
        remaining = p - g
        if remaining <= 1e-12 * max(1.0, p):
            break
        best_gain, best_i, best_b, best_m = 0.0, -1, 0.0, 0.0
        for i in range(n):
            if af[i] == 0.0:
                continue
            piece = tail[i]
            if piece is not None:
                b_new = min(piece.m.tail_exponent_inverse(ms[i] + remaining), piece.cap)
                m_new = piece.m.tail_exponent(b_new)
            else:
                b_new = min(math.sqrt(ms[i] + remaining), 1.0)
                m_new = b_new * b_new
            gain = af[i] * (b_new - bs[i])
            if gain > best_gain:
                best_gain, best_i, best_b, best_m = gain, i, b_new, m_new
        if best_i < 0:
            break
        g += best_m - ms[best_i]
        bs[best_i], ms[best_i] = best_b, best_m
    return float(np.dot(a, bs)), hi


class _DualBound:
    """Weak-duality bound, at one multiplier lam > 0, on the value _gk_solve
    returns for any regime.

    Every allocation the solver returns lies on the regime's pieces and
    spends at most p + _GK_BUDGET_SLACK, so its value is at most
    U(lam) = lam (p + slack) + sum_i max_{b in piece_i} (a_i b - lam M_i(b)),
    whose maximizers are the ones _gk_allocate takes.

    The rounding margin is 16 (n + 2) eps times the sum of the absolute
    values of U's terms.  Each term, the sum and the solver's value are off
    by a few ulps of that sum; each cost the solver tested its budget with
    is off by a few ulps of max(1, M_i), which lam (p + slack) covers n
    times over as p >= 1; brentq's root error lowers U only to second
    order.  The margin scales with a, as the problem does.  A non-finite
    bound skips nothing.
    """

    def __init__(self, a: np.ndarray, pieces: Sequence[_TailPiece], p: float, lam: float):
        af = [float(x) for x in a]
        self.budget = lam * (p + _GK_BUDGET_SLACK)
        per_piece = []
        for tail in ([None] * len(af), pieces):
            bs, ms, _ = _gk_allocate(af, tail, lam)
            per_piece.append([(ai * b - lam * m, ai * b + lam * m) for ai, b, m in zip(af, bs, ms)])
        # per coordinate: (term, |term|) on the quadratic, then on the tail piece
        self.terms = list(zip(*per_piece))
        self.rel = 16.0 * (len(af) + 2) * math.ulp(1.0)

    def upper(self, tail_set: frozenset[int]) -> float:
        """U(lam) plus the rounding margin for the regime with this tail set."""
        total = size = self.budget
        for i, pair in enumerate(self.terms):
            term, mag = pair[i in tail_set]
            total += term
            size += mag
        return total + self.rel * size


def gk_dual_norm(v: CoefficientVector, M: Sequence[OrliczFunction], p: float) -> float:
    """sup{ sum a_i b_i : sum M_i(b_i) <= p }.

    By symmetry the optimum takes a_i, b_i >= 0, and the convex, coercive
    budget saturates whenever it can.  The jump of M at |x| = 1 makes the
    plain multiplier bisection leave a duality gap, so the solver pins each
    coordinate to a piece of M (quadratic or tail) and bisects the
    multiplier within each now-concave regime, taking the best regime; the
    one-sided candidates of the kink appear as the b = 1 endpoints of the
    two regimes, with ties resolved toward the largest maximizer.  It
    solves on the coordinates in canonical order, so the value is bitwise
    invariant under permutations of the input.

    A regime is skipped when its weak-duality bound at the multiplier of
    the best regime so far (_DualBound, rounding margin included) lies
    below the best value: its solve could not have beaten it, so the value
    is bitwise the maximum over every regime.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p!r}")
    if len(M) != len(v):
        raise ValueError(f"got {len(v)} coefficients but {len(M)} Orlicz functions")
    a = np.abs(v.as_array())
    if len(a) == 0 or float(a.max()) == 0.0:
        return 0.0
    order = _gk_order(a, M)
    a, M = a[order], [M[i] for i in order]
    caps = [mi.largest_sublevel(p) for mi in M]
    if not all(map(math.isfinite, caps)):
        raise UnboundedSupremumError("a coordinate's sublevel set is unbounded")
    pieces = [_TailPiece(mi, cap) for mi, cap in zip(M, caps)]
    best, bound = 0.0, None
    for tail_set in _gk_regimes(a, M):
        if bound is not None and bound.upper(tail_set) < best:
            continue
        solved = _gk_solve(a, pieces, p, tail_set)
        if solved is not None and solved[0] > best:
            best = solved[0]
            bound = _DualBound(a, pieces, p, solved[1])
    return best
