"""Machine verification of the moment inequalities over grids and random
instances, plus a counterexample search.

Every comparison goes through one slack discipline:

* an exact link gets only the numerical slack (1e-9 on the norm scale);
* a statistical link is widened by its 3-sigma confidence interval; it is a
  *violation* only when the CI-widened inequality fails, *inconclusive* when
  the CI straddles the boundary, and a pass only when the margin clears the
  combined slack.  Statistical links that resolve decisively are tallied in
  ``ci_resolved``; inconclusive cases are never counted as passes.

Reports are reproducible: all randomness derives from (seed, case index)
substreams, and merges use a fixed fold.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike

from . import bounds, coeffs, dists, summoments
from .coeffs import CoefficientVector
from .dists import DistributionSpec, gamma_p
from .errors import JobValidationError, MomentBoundsError
from .summoments import MomentEstimate

__all__ = [
    "NUMERICAL_SLACK",
    "COS_PRODUCT_SLACK",
    "VerificationReport",
    "SearchConfig",
    "merge_reports",
    "reference_estimate",
    "sample_coefficient_vector",
    "default_t_grid",
    "check_cos_product",
    "check_comparison_chain",
    "check_extremality",
    "applicable_bounds",
    "lowest_bound_order",
    "check_bounds_sandwich",
    "check_p24_comparison",
    "check_gk_ratio",
    "search_counterexamples",
    "suite",
    "SUITE_CHECKS",
    "SEARCH_CHECKS",
    "SEARCH_P_GRID",
    "CHECK_P_RANGES",
    "DEFAULT_P_GRID",
    "GK_BAND",
]

NUMERICAL_SLACK = 1e-9
COS_PRODUCT_SLACK = 1e-12
DEFAULT_P_GRID = (2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0)
GK_BAND = (1.0 / 20.0, 20.0)  # default band of the gk_ratio check
COEFFICIENT_REGIMES = ("uniform", "geometric", "spiked")


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail ledger for one check: counts, worst signed margin
    (negative = violation), CI bookkeeping and the seed that reproduces it.

    ``witness`` carries the instance achieving the worst margin for the
    counterexample search, and ``witness_p`` the moment order at which it
    achieves it; None elsewhere and for checks without an order.
    """

    check: str
    cases: int
    violations: int
    worst_margin: float
    ci_resolved: int
    inconclusive: int
    seed: int
    witness: tuple[float, ...] | None = None
    witness_p: float | None = None


def merge_reports(reports: Sequence[VerificationReport], check: str, seed: int) -> VerificationReport:
    """Associative, commutative fold of per-instance reports."""
    cases = sum(r.cases for r in reports)
    violations = sum(r.violations for r in reports)
    ci_resolved = sum(r.ci_resolved for r in reports)
    inconclusive = sum(r.inconclusive for r in reports)
    worst = math.inf
    witness = witness_p = None
    for r in reports:
        if r.worst_margin < worst:
            worst = r.worst_margin
            witness, witness_p = r.witness, r.witness_p
    return VerificationReport(
        check, cases, violations, worst, ci_resolved, inconclusive, seed, witness, witness_p
    )


# --- estimates with certainty intervals on the norm scale ---------------------


@dataclass(frozen=True)
class _Norm:
    value: float
    lo: float
    hi: float
    statistical: bool = False

    @classmethod
    def exact(cls, x: float) -> "_Norm":
        return cls(x, x, x, False)

    @classmethod
    def from_estimate(cls, est: MomentEstimate) -> "_Norm":
        r = est.rigor
        if r.kind == "exact":
            return cls.exact(est.value)
        # the relative width on the raw moment, which a ci estimate (Monte
        # Carlo) always carries, taken to the norm scale
        rel = r.epsilon if r.kind == "tolerance" else r.halfwidth / (est.raw_moment or 1.0)
        lo, hi = (est.value * max(1.0 + s * rel, 0.0) ** (1.0 / est.p) for s in (-1.0, 1.0))
        return cls(est.value, lo, hi, r.kind == "ci")


@dataclass
class _Tally:
    """Accumulator for link comparisons within one check invocation."""

    cases: int = 0
    violations: int = 0
    ci_resolved: int = 0
    inconclusive: int = 0
    worst: float = math.inf

    def compare(self, lhs: _Norm, rhs: _Norm, slack: float = NUMERICAL_SLACK) -> float:
        """Record the inequality lhs >= rhs; returns the raw margin."""
        margin = lhs.value - rhs.value
        certain_worst = lhs.lo - rhs.hi
        certain_best = lhs.hi - rhs.lo
        statistical = lhs.statistical or rhs.statistical
        self.cases += 1
        self.worst = min(self.worst, margin)
        if certain_best < -slack:
            self.violations += 1
        elif certain_worst >= -slack:
            if statistical:
                self.ci_resolved += 1
        else:
            self.inconclusive += 1
        return margin

    def report(self, check: str, seed: int) -> VerificationReport:
        worst = self.worst if self.cases else math.inf
        return VerificationReport(
            check, self.cases, self.violations, worst, self.ci_resolved, self.inconclusive, seed
        )


# --- engine selection ----------------------------------------------------------


def reference_estimate(
    v: CoefficientVector,
    d: DistributionSpec,
    p: float,
    *,
    samples: int = 200_000,
    seed: int | None = None,
    prefer: Sequence[str] | None = None,
) -> MomentEstimate:
    """Strongest available engine for ||sum a_i X_i||_p under d.

    Walks ``prefer`` (default: the ladder in the record of the spec the
    engines compute d's sums with, its record's engine_spec) and moves past an
    engine that refuses the input.  A ladder that reaches Monte Carlo
    without a seed raises JobValidationError on ``seed``: there is no default
    seed, not even on a fallback.
    """
    spec = dists.LAWS[d.kind].engine_spec(d)
    given = {"v": v, "d": spec, "p": p, "samples": samples, "seed": seed}
    last_error: Exception | None = None
    for method in dists.LAWS[spec.kind].ladder if prefer is None else prefer:
        engine = summoments.ENGINES.get(method)
        if engine is None:
            raise ValueError(f"unknown engine {method!r}")
        if spec.kind not in engine.laws:
            raise ValueError(f"engine {method!r} does not compute {d.kind!r} sums")
        if engine.seeded and seed is None:
            raise JobValidationError("seed", f"required: the {d.kind} engine ladder reached {method}")
        try:
            return getattr(summoments, engine.function)(*[given[arg] for arg in engine.args])
        except engine.refusals as exc:
            last_error = exc
    raise last_error if last_error is not None else ValueError("no engine accepted the input")


# --- instance generation ---------------------------------------------------------


def sample_coefficient_vector(
    rng: np.random.Generator, n: int, regime: str | None = None
) -> CoefficientVector:
    """One random coefficient vector from the three regimes the bounds
    distinguish: balanced (uniform), tail-dominated (geometric decay) and
    head-dominated (spiked)."""
    if regime is None:
        regime = COEFFICIENT_REGIMES[int(rng.integers(0, len(COEFFICIENT_REGIMES)))]
    # the draw and values of rng.choice([-1.0, 1.0], n)
    signs = dists.LAWS[dists.RADEMACHER].sample(dists.rademacher(), rng, n)
    if regime == "uniform":
        vals = rng.uniform(-1.0, 1.0, n)
    elif regime == "geometric":
        r = float(rng.uniform(0.2, 0.95))
        vals = signs * (r ** np.arange(1, n + 1)) * float(rng.uniform(0.5, 2.0))
    elif regime == "spiked":
        vals = signs * np.concatenate(([rng.uniform(1.0, 3.0)], rng.uniform(0.0, 0.3, n - 1)))
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return CoefficientVector(vals)


def default_t_grid(rng: np.random.Generator | None = None) -> np.ndarray:
    """Default grid for the cosine-product check: [0, 100] at step 1e-3 plus
    10^4 random points in [0, 10^4] when a stream is supplied."""
    grid = np.arange(0.0, 100.0 + 1e-9, 1e-3)
    if rng is None:
        return grid
    return np.concatenate([grid, rng.uniform(0.0, 1e4, 10_000)])


@contextmanager
def _failure_named(what: str, p: float):
    """Re-raise an OverflowError, or a MomentBoundsError other than
    JobValidationError (an engine's refusal), as one of the same class that
    names what failed and the order p it ran at."""
    try:
        yield
    except JobValidationError:
        raise
    except (OverflowError, MomentBoundsError) as exc:
        raise type(exc)(f"{what} at p={p!r}: {exc}") from None


def _require_order(check: str, p: float) -> None:
    """Refuse an order outside the check's CHECK_P_RANGES range."""
    lo, hi = CHECK_P_RANGES[check]
    if not lo <= p <= hi:
        raise ValueError(f"the {check} check needs p in [{lo:g}, {hi:g}], got {p!r}")


# --- deterministic checks ---------------------------------------------------------


def _cos_product_margins(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """prod cos(a_i t) + a_1^2 t^2/2 - prod_{i>=2} 1/(1 + a_i^2 t^2/2) for each
    row of a (rows, n) array of rearranged coefficients at the points of the
    same row of t (rows, m); (rows, m).  A row gets the same bits in any
    batch.  Memory is a few rows x m x n floats."""
    if a.shape[1] == 0:
        return np.zeros(t.shape)
    lhs = np.prod(np.cos(t[:, :, None] * a[:, None, :]), axis=2) + 0.5 * (a[:, :1] * t) ** 2
    rhs = np.exp(-np.sum(np.log1p(0.5 * (t[:, :, None] * a[:, None, 1:]) ** 2), axis=2))
    return lhs - rhs


def _cos_product_scores(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The cosine-product margins of rows a (rows, n) of rearranged
    coefficients at their points t (rows, m), +inf at the certified points.

    Where |a_1 t| >= sqrt 8 the left side is at least (a_1 t)^2/2 - 1 >= 3
    and the right side at most 1, so the margin is at least 2, less n + 3
    roundings.  The points with |t| < sqrt(8)/|a_1| are evaluated first,
    then the other points of each row with no evaluated margin below 1
    (+inf where a_1 t leaves the float range).  So each row's minimum and
    count of margins below any slack under 1 are the full evaluation's, bit
    for bit.  Batches hold at most _WORKING_SET points x coefficients."""
    rows, n = a.shape
    step = max(1, _WORKING_SET // max(n, 1))
    a1 = np.abs(a[:, :1]) if n else np.zeros((rows, 1))
    # |t|, then the margins: a second (rows, m) buffer costs the suite's
    # 12 grids about 2,400 page faults in a fresh process
    margins = np.abs(t)

    def evaluate(r: np.ndarray, c: np.ndarray) -> None:
        for i in range(0, len(r), step):
            ri, ci = r[i : i + step], c[i : i + step]
            margins[ri, ci] = _cos_product_margins(a[ri], t[ri, ci, None])[:, 0]

    with np.errstate(divide="ignore", over="ignore"):
        near = margins < math.sqrt(8.0) / a1  # a zero or tiny a_1 certifies nothing
        margins.fill(math.inf)
        evaluate(*np.divmod(np.flatnonzero(near), t.shape[1]))
        left = np.flatnonzero(~(margins < 1.0).any(axis=1))
        r, c = np.divmod(np.flatnonzero(~near[left] & np.isfinite(a1[left] * t[left])), t.shape[1])
        evaluate(left[r], c)
    return margins


def check_cos_product(v: CoefficientVector, t_grid: ArrayLike, seed: int = 0) -> VerificationReport:
    """prod cos(a_i t) + a_1^2 t^2/2 >= prod_{i>=2} 1/(1 + a_i^2 t^2/2) on a
    grid, absolute slack 1e-12.  Deterministic; the input must be rearranged
    (the hypothesis |a_1| >= ... >= |a_n|) and the grid a sequence of finite
    points.

    The points with |a_1 t| >= sqrt 8, where the margin is at least 2, are
    certified rather than evaluated when some evaluated margin lies below 1
    (see _cos_product_scores).  The default grid always qualifies, as its
    t = 0 has margin 0.  Either way the report is the full evaluation's,
    bit for bit."""
    if not v.is_rearranged():
        raise ValueError("check_cos_product requires a rearranged vector")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"the grid must be a sequence of points, got shape {t.shape}")
    if not np.isfinite(t).all():
        i = int(np.flatnonzero(~np.isfinite(t))[0])
        raise ValueError(f"grid point t[{i}] = {float(t[i])!r} is not finite")
    (margins,) = _cos_product_scores(v.as_array()[None, :], t[None, :])
    violations = int(np.sum(margins < -COS_PRODUCT_SLACK))
    worst = float(np.min(margins)) if len(margins) else math.inf
    return VerificationReport("cos_product", len(t), violations, worst, 0, 0, seed)


# --- engine-backed checks -----------------------------------------------------------


def check_comparison_chain(
    v: CoefficientVector, p: float, seed: int, samples: int = 100_000
) -> VerificationReport:
    """The three-link chain for one vector:

    gamma_p ||a||_2 >= ||sum a_i eps_i||_p >= ||sum_{i >= ceil(p/2)} a*_i E_i||_p
    >= gamma_p (sum_{i >= ceil(p/2)} a*_i^2)^{1/2},

    on the norm scale, strongest engine per term.
    """
    _require_order("comp2", p)
    rearranged = coeffs.rearrange(v)
    _, tail = coeffs.head_tail_split(rearranged, p)
    e1 = _Norm.exact(gamma_p(p) * coeffs.norm(rearranged, 2))
    e2 = _Norm.from_estimate(reference_estimate(rearranged, dists.rademacher(), p, samples=samples, seed=seed))
    e3 = _Norm.from_estimate(
        reference_estimate(tail, dists.sym_exponential(), p, samples=samples, seed=seed + 1)
    )
    e4 = _Norm.exact(gamma_p(p) * coeffs.norm(tail, 2))
    tally = _Tally()
    tally.compare(e1, e2)
    tally.compare(e2, e3)
    tally.compare(e3, e4)
    return tally.report("comp2", seed)


def check_p24_comparison(
    v: CoefficientVector, p: float, seed: int, samples: int = 100_000
) -> VerificationReport:
    """E|sum_{i=1}^n a_i eps_i|^p >= E|sum_{i=2}^n a_i E_i|^p for 2 <= p <= 4
    (drop exactly the largest coefficient on the right)."""
    _require_order("p24", p)
    if not v.is_rearranged():
        raise ValueError("check_p24_comparison requires a rearranged vector")
    lhs = _Norm.from_estimate(reference_estimate(v, dists.rademacher(), p, samples=samples, seed=seed))
    rest = CoefficientVector(v.values[1:])
    rhs = _Norm.from_estimate(
        reference_estimate(rest, dists.sym_exponential(), p, samples=samples, seed=seed + 1)
    )
    tally = _Tally()
    tally.compare(lhs, rhs)
    return tally.report("p24", seed)


def check_extremality(
    v: CoefficientVector, alpha: float, p: float, seed: int, samples: int = 100_000
) -> VerificationReport:
    """||sum a_i eps_i||_p <= ||sum a_i X_i||_p <= ||sum a_i E_i||_p for
    X Weibull-tailed with shape alpha, p >= 3; every term from its strongest
    engine, so the middle one is Monte Carlo at p that is not an even
    integer, except at alpha = 2 (the characteristic-function engine) and at
    alpha = 1, where X is the two-sided exponential and the upper link an
    exact equality."""
    _require_order("extremality", p)
    w = dists.weibull_tail(alpha)
    left = _Norm.from_estimate(reference_estimate(v, dists.rademacher(), p, samples=samples, seed=seed))
    mid = _Norm.from_estimate(reference_estimate(v, w, p, samples=samples, seed=seed + 1))
    right = _Norm.from_estimate(
        reference_estimate(v, dists.sym_exponential(), p, samples=samples, seed=seed + 2)
    )
    tally = _Tally()
    tally.compare(mid, left)
    tally.compare(right, mid)
    return tally.report("extremality", seed)


def applicable_bounds(
    v: CoefficientVector,
    d: DistributionSpec,
    p: float,
    *,
    samples: int = 200_000,
    seed: int | None = None,
) -> list[tuple[bounds.BoundInterval, _Norm, _Norm]]:
    """Every closed-form interval for ||sum a_i X_i||_p that applies at
    (d, p), each with its lower and upper endpoint on the norm scale.

    The sources are those of bounds.BOUND_SOURCES, in its order, whose law
    is the engine law of d or every law and whose lowest order is at most
    p; each evaluator is looked up in bounds at call time.
    The logconc head norm comes from reference_estimate at seed + 1; both
    logconc endpoints grow with it, so when it is not exact they span the
    images of its certainty interval.  All other endpoints are exact.
    """
    law = dists.LAWS[d.kind].engine_spec(d).kind
    out = []
    for name, source in bounds.BOUND_SOURCES.items():
        if source.law not in (law, None) or p < source.p_min:
            continue
        evaluate = getattr(bounds, source.function)
        if name != "logconc":
            bi = evaluate(v, p)
            out.append((bi, _Norm.exact(bi.lower), _Norm.exact(bi.upper)))
            continue
        rearranged = coeffs.rearrange(v)
        head_seed = None if seed is None else seed + 1
        head = reference_estimate(coeffs.strict_head(rearranged, p), d, p, samples=samples, seed=head_seed)
        hn = _Norm.from_estimate(head)
        bi, lo, hi = (evaluate(rearranged, d, p, x) for x in (hn.value, hn.lo, hn.hi))
        lower = _Norm(bi.lower, lo.lower, hi.lower, hn.statistical)
        out.append((bi, lower, _Norm(bi.upper, lo.upper, hi.upper, hn.statistical)))
    return out


def lowest_bound_order(d: DistributionSpec) -> float:
    """The lowest p at which applicable_bounds has an interval for d: the
    least lowest order of the bounds.BOUND_SOURCES for its engine law."""
    law = dists.LAWS[d.kind].engine_spec(d).kind
    return min(s.p_min for s in bounds.BOUND_SOURCES.values() if s.law in (law, None))


def check_bounds_sandwich(
    v: CoefficientVector, d: DistributionSpec, p: float, seed: int, samples: int = 100_000
) -> VerificationReport:
    """Reference norm inside every interval of applicable_bounds but comp2,
    whose endpoints are the outer links of the chain check_comparison_chain
    verifies link by link."""
    ref = _Norm.from_estimate(reference_estimate(v, d, p, samples=samples, seed=seed))
    tally = _Tally()
    for bi, lower, upper in applicable_bounds(v, d, p, samples=samples, seed=seed):
        if bi.source != "comp2":
            tally.compare(ref, lower)
            tally.compare(upper, ref)
    return tally.report("sandwich", seed)


def check_gk_ratio(
    v: CoefficientVector,
    d: DistributionSpec,
    p: float,
    seed: int,
    samples: int = 100_000,
    band: tuple[float, float] = GK_BAND,
) -> VerificationReport:
    """Empirical two-sidedness of the Orlicz dual-norm functional:
    ||sum_{i<p} a_i X_i||_p / gk stays inside a configurable band (the
    underlying equivalence holds up to unspecified universal constants)."""
    _require_order("gk_ratio", p)
    head = coeffs.strict_head(coeffs.rearrange(v), p)
    tally = _Tally()
    if len(head) == 0 or coeffs.norm(head, 2) == 0.0:
        return tally.report("gk_ratio", seed)
    gk = bounds.gk_dual_norm(head, [bounds.OrliczFunction(d)] * len(head), p)
    if gk <= 0.0:
        return tally.report("gk_ratio", seed)
    est = reference_estimate(head, d, p, samples=samples, seed=seed)
    hn = _Norm.from_estimate(est)
    ratio = _Norm(hn.value / gk, hn.lo / gk, hn.hi / gk, hn.statistical)
    tally.compare(ratio, _Norm.exact(band[0]))
    tally.compare(_Norm.exact(band[1]), ratio)
    return tally.report("gk_ratio", seed)


# --- counterexample search ------------------------------------------------------


SEARCH_CHECKS = ("cos_product", "comp2", "p24", "rec2")
SEARCH_P_GRID = (2.5, 3.0, 4.0, 6.0)
# the orders p at which each searched inequality is proved and each suite
# check runs cases (sandwich runs the Weibull law from p = 3 only)
CHECK_P_RANGES = {
    "comp2": (2.0, math.inf),
    "p24": (2.0, 4.0),
    "rec2": (3.0, math.inf),
    "extremality": (3.0, math.inf),
    "sandwich": (2.0, math.inf),
    "gk_ratio": (3.0, math.inf),
}
# iterations of one hill-climbing chain: a fresh instance, then perturbations
# of the best state the chain has found
_CHAIN = 25
# float64 numbers drawn ahead for one window of chains, and elements of one
# batch of cosine-product points x coefficients; 1 MB each
_WORKING_SET = 1 << 17


@dataclass(frozen=True)
class SearchConfig:
    check: str
    n_max: int = 6
    p_grid: tuple[float, ...] = SEARCH_P_GRID
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.check not in SEARCH_CHECKS:
            raise ValueError(f"search supports {SEARCH_CHECKS}, got {self.check!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        # the rules of a search job, refused with the field they concern
        if self.check in ("comp2", "p24") and self.n_max > (cap := summoments.ENUMERATION_CAP):
            raise JobValidationError("n_max", f"the {self.check} search enumerates up to n = {cap}, got {self.n_max}")
        if self.check in CHECK_P_RANGES:
            _check_orders(self.check, self.p_grid)


def _check_orders(check: str, ps: Sequence[float]) -> list[float]:
    """The orders of ps in the check's CHECK_P_RANGES range; refused
    (JobValidationError on p_grid) when there are none."""
    lo, hi = CHECK_P_RANGES[check]
    orders = [x for x in ps if lo <= x <= hi]
    if not orders:
        raise JobValidationError("p_grid", f"{check} needs p in [{lo:g}, {hi:g}], got {list(ps)}")
    return orders


class _Chain(NamedTuple):
    """The numbers one chain draws: its fresh instance (rearranged
    coefficients, or a and b for rec2) with its order p, the standard normals
    of each perturbation, and the random points of each iteration (32 for
    cos_product, none for the other checks)."""

    start: np.ndarray
    p: float | None
    normals: np.ndarray
    points: np.ndarray

    @property
    def size(self) -> int:
        return self.start.size + self.normals.size + self.points.size


def _draw_chain(cfg: SearchConfig, rng: np.random.Generator, length: int) -> _Chain:
    """The numbers of one chain of `length` iterations, drawn in the order in
    which a one-iteration-at-a-time hill-climb draws them.  The cosine-product
    draws are written in place: rng.random times 100 is uniform(0, 100) bit
    for bit, which computes 0 + 100 u from the same u."""
    if cfg.check == "rec2":
        start = np.array([float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0))])
    else:
        n = int(rng.integers(1, cfg.n_max + 1))
        start = coeffs.rearrange(sample_coefficient_vector(rng, n)).as_array()
    if cfg.check != "cos_product":
        orders = _check_orders(cfg.check, cfg.p_grid)
        p = float(orders[int(rng.integers(len(orders)))])  # the draw of rng.choice(orders)
        return _Chain(start, p, rng.standard_normal((length - 1, len(start))), np.empty((length, 0)))
    normals = np.empty((length - 1, len(start)))
    points = np.empty((length, 32))
    for it in range(length):
        if it:
            rng.standard_normal(out=normals[it - 1])
        rng.random(out=points[it])
    points *= 100.0
    return _Chain(start, None, normals, points)


def _search_margins(check: str, v: np.ndarray, p: np.ndarray | None, t: np.ndarray | None) -> np.ndarray:
    """Worst margin of each instance of one group of rows with the same n,
    exact engines only: rows v of rearranged coefficients (a and b for
    rec2), each at its own order p[i] (None for cos_product), at the points
    t (cos_product; see _cos_product_scores).

    A row gets the bits it gets alone.  The order-free pieces (the
    canonical form, the residues and the whole-vector l2 norms) are computed
    once per call, the comp2 tail split once per distinct ceil(p/2).  An
    empty tail has norm 0.  Tail rows that partial fractions refuse take the
    exponential ladder with no seed, which ends in charFunction or the
    recursion and does not reach Monte Carlo.  A unit-scale moment that the
    engines would refuse as out of the float range raises OverflowError."""
    if check == "cos_product":
        return _cos_product_scores(v, t).min(axis=1)
    ps = p.tolist()
    if check == "rec2":
        out = []
        for (a, b), q in zip(v.tolist(), ps):
            lhs = dists.single_moment_rademacher(a, b, q)
            rhs = abs(b) ** q + 0.5 * q * (q - 1.0) * a * a * abs(b) ** (q - 2.0)
            out.append((lhs - rhs) / max(1.0, abs(rhs)))
        return np.array(out)
    n = v.shape[1]
    # gamma_p first: an order whose log-gamma overflows fails on it, not on its moments
    g = {q: gamma_p(q) for q in set(ps)} if check == "comp2" else {}
    y, e = summoments._canonical(v)
    totals = (summoments._enumeration_totals(y, p) / (1 << (n - 1))).tolist()
    rad = np.array([summoments._scaled_norm(m, x, q, "enumeration", OverflowError) for m, x, q in zip(totals, e, ps)])
    # the tail: from coefficient ceil(p/2) (comp2) or 2 (p24) on
    cuts = {q: min(coeffs.half_ceil(q) - 1, n) if check == "comp2" else 1 for q in set(ps)}
    first = np.array([cuts[q] for q in ps])
    lap, tail = np.zeros(len(v)), np.zeros(len(v))
    for c in set(cuts.values()) - {n}:
        rows = np.flatnonzero(first == c)
        rest = v[rows, c:]
        lap[rows] = _laplace_norms(rest, p[rows])
        tail[rows] = coeffs._l2_rows(rest)
    if check == "p24":
        return rad - lap
    gs = np.array([g[q] for q in ps])
    # min(upper, middle, lower) with Python's min: the first of equal links
    links = (gs * np.array(coeffs._l2_rows(v)) - rad, rad - lap, lap - gs * tail)
    least = links[0]
    for link in links[1:]:
        least = np.where(link < least, link, least)
    return least


def _laplace_norms(rest: np.ndarray, p: np.ndarray) -> list[float]:
    """||sum rest_i E_i||_p of each nonempty row at its order: partial
    fractions, and the exponential ladder for the rows it refuses (equal
    rows share one ladder walk)."""
    y, e = summoments._canonical(rest)
    moments, refusals = summoments._partial_fraction_rows(y, p)
    out = []
    ladder: dict[tuple, float] = {}
    for m, x, q, row, refusal in zip(moments.tolist(), e, p.tolist(), rest.tolist(), refusals):
        if refusal is None:
            out.append(summoments._scaled_norm(m, x, q, "partialFractions", OverflowError))
            continue
        key = (q, *row)
        if key not in ladder:
            ladder[key] = reference_estimate(CoefficientVector(row), dists.sym_exponential(), q).value
        out.append(ladder[key])
    return out


def _climb(check: str, chains: list[_Chain], slack: float) -> tuple[list[float], np.ndarray, int]:
    """Advance chains of one (n, length) group side by side, one iteration
    at a time: perturb each chain's best state, score all rows in one call,
    each at its chain's order, and keep the better rows.  Returns each
    chain's worst margin with its first instance, and the count of margins
    below -slack.  An OverflowError names the check and the lowest order of
    the group that overflows alone."""
    state = np.stack([c.start for c in chains])
    normals = np.stack([c.normals for c in chains])
    points = np.stack([c.points for c in chains])
    orders = None if check == "cos_product" else np.array([c.p for c in chains])
    fixed = np.broadcast_to(np.geomspace(1e-3, 50.0, 64), (len(chains), 64))
    best = np.full(len(chains), math.inf)
    violations = 0
    for it in range(normals.shape[1] + 1):
        if it == 0:
            inst = state
        elif check == "rec2":
            inst = state * (1.0 + 0.1 * normals[:, it - 1])
        else:
            inst = -np.sort(-np.abs(state * (1.0 + 0.15 * normals[:, it - 1])), axis=1)
        t = np.concatenate([fixed, points[:, it]], axis=1) if check == "cos_product" else None
        try:
            margins = _search_margins(check, inst, orders, t)
        except OverflowError:
            for q in sorted(set(orders.tolist())):
                with _failure_named(f"the {check} search", q):
                    _search_margins(check, inst[orders == q], orders[orders == q], t)
            raise
        violations += int(np.count_nonzero(margins < -slack))
        better = margins < best
        best[better] = margins[better]
        state[better] = inst[better]
    return best.tolist(), state, violations


def search_counterexamples(config: SearchConfig) -> VerificationReport:
    """Random restarts plus coordinate-wise perturbation hill-climbing on the
    negative margin of the chosen inequality.  Returns the minimal margin
    found and its witness; a margin below the combined slack would expose an
    implementation bug (the inequalities are proved).

    Iteration it starts a fresh instance when it % 25 == 0 and otherwise
    perturbs the best state of its chain.  How many numbers an iteration
    draws never depends on a margin, so the numbers of a window of chains
    are drawn first, in stream order, and the chains of the window then
    advance side by side, batched by n and chain length: one scoring call
    per step takes every chain that shares n, each at its own order, and
    the cosine-product scoring certifies points as check_cos_product does
    (see _cos_product_scores).  The report is the one the
    one-iteration-at-a-time loop gives, bit for bit: the first witness of
    the worst margin, and the count of margins below the slack.
    OverflowError names the check and the order p past the float range.
    """
    rng = dists.substream(config.seed, 0)
    slack = COS_PRODUCT_SLACK if config.check == "cos_product" else NUMERICAL_SLACK * 10
    lengths = [min(_CHAIN, config.iterations - it) for it in range(0, config.iterations, _CHAIN)]
    worst = math.inf
    witness: tuple[float, ...] | None = None
    witness_p: float | None = None
    violations = 0
    done = 0
    while done < len(lengths):
        window: list[_Chain] = []
        drawn = 0
        while done < len(lengths) and drawn < _WORKING_SET:
            window.append(_draw_chain(config, rng, lengths[done]))
            drawn += window[-1].size
            done += 1
        groups: dict[tuple, list[int]] = {}
        # rows sorted by order score each distinct order as one run
        for i in sorted(range(len(window)), key=lambda i: window[i].p or 0.0):
            groups.setdefault((len(window[i].start), len(window[i].normals)), []).append(i)
        found: dict[int, tuple[float, np.ndarray]] = {}
        for members in groups.values():
            best, state, bad = _climb(config.check, [window[i] for i in members], slack)
            violations += bad
            found.update(zip(members, zip(best, state)))
        for i, chain in enumerate(window):
            b, s = found[i]
            if b < worst:
                worst = b
                witness = tuple(s.tolist()) + ((chain.p,) if config.check == "rec2" else ())
                witness_p = chain.p
    return VerificationReport(
        config.check + "_search", config.iterations, violations, worst, 0, 0, config.seed, witness, witness_p
    )


# --- suite ------------------------------------------------------------------------


class _SuiteCheck(NamedTuple):
    """How the suite runs one check: for each law, in draw order, one vector
    per size and regime, then the law's fixed vectors, each at the orders
    `orders` picks of the check's grid ([None] for cos_product).  `run` takes
    the case by keyword and calls the check by its name in this module at
    call time, so a wrapper installed there sees the call."""

    sizes: tuple[int, ...]
    run: Callable[..., VerificationReport]
    laws: tuple[tuple[Any, tuple[tuple[float, ...], ...]], ...] = ((None, ()),)  # no law
    orders: Callable[[Any, list], list] = lambda law, ps: ps


_SUITE = {
    "cos_product": _SuiteCheck(
        (1, 2, 4, 8), lambda v, seed, rng, **_: check_cos_product(coeffs.rearrange(v), default_t_grid(rng), seed)
    ),
    "comp2": _SuiteCheck((1, 3, 6, 8), lambda v, p, seed, samples, **_: check_comparison_chain(v, p, seed, samples)),
    "p24": _SuiteCheck(
        (1, 3, 6, 8), lambda v, p, seed, samples, **_: check_p24_comparison(coeffs.rearrange(v), p, seed, samples)
    ),
    "extremality": _SuiteCheck(
        (2, 6),
        lambda v, law, p, seed, samples, **_: check_extremality(v, law, p, seed, samples),
        tuple((alpha, ()) for alpha in (1.0, 1.5, 2.0, 3.0)),
        lambda alpha, ps: ps[:3],
    ),
    "sandwich": _SuiteCheck(
        (2, 5, 8),
        lambda v, law, p, seed, samples, **_: check_bounds_sandwich(v, law, p, seed, samples),
        # Weibull also takes many equal terms, near the Gaussian limit
        ((dists.rademacher(), ()), (dists.sym_exponential(), ()), (dists.weibull_tail(2.0), ((1.0 / 8.0,) * 64,))),
        lambda d, ps: [x for x in ps if x >= lowest_bound_order(d)][:4],
    ),
    "gk_ratio": _SuiteCheck(
        (3, 6),
        lambda v, law, p, seed, samples, band, **_: check_gk_ratio(v, law, p, seed, samples, band),
        ((dists.sym_exponential(), ()), (dists.weibull_tail(2.0), ())),
        lambda d, ps: ps[:3],
    ),
}
SUITE_CHECKS = tuple(_SUITE)


def suite(
    seed: int,
    *,
    samples: int = 50_000,
    checks: Sequence[str] | None = None,
    p_grid: Sequence[float] | None = None,
    gk_band: tuple[float, float] = GK_BAND,
) -> list[VerificationReport]:
    """Run the named checks (default: all) over the default grids; one merged
    report per check, in SUITE_CHECKS order, byte-reproducible from the seed.
    A check left with no order of p_grid in its range is refused
    (JobValidationError on p_grid) before any check runs.  An OverflowError,
    or an engine refusal with no fallback left, names the check and the
    order p it ran at.  One loop runs every check from its _SUITE entry;
    check i draws from substream i its first case seed, then its vectors
    law by law, and each case seed is the last one plus 7.

    cos_product counts every point of its 12 grids as a case, but evaluates
    only those with |a_1 t| < sqrt 8: each grid's t = 0 has margin 0, so
    check_cos_product certifies the others (margin >= 2)."""
    wanted = tuple(checks) if checks is not None else SUITE_CHECKS
    ps = tuple(p_grid) if p_grid is not None else DEFAULT_P_GRID
    for c in wanted:
        if c not in SUITE_CHECKS:
            raise ValueError(f"unknown check {c!r}; available: {SUITE_CHECKS}")
        if c in CHECK_P_RANGES:
            _check_orders(c, ps)
    reports = []
    for idx, (check, entry) in enumerate(_SUITE.items()):
        if check not in wanted:
            continue
        rng = dists.substream(seed, idx)
        case_seed = int(rng.integers(0, 2**31))
        grid = _check_orders(check, ps) if check in CHECK_P_RANGES else [None]
        subs: list[VerificationReport] = []
        for law, fixed in entry.laws:
            vectors = [sample_coefficient_vector(rng, n, r) for n in entry.sizes for r in COEFFICIENT_REGIMES]
            for v in vectors + [CoefficientVector(f) for f in fixed]:
                for p in entry.orders(law, grid):
                    with _failure_named(f"the {check} check", p):
                        case = {"v": v, "law": law, "p": p, "seed": case_seed, "rng": rng}
                        subs.append(entry.run(**case, samples=samples, band=gk_band))
                    case_seed += 7
        reports.append(merge_reports(subs, check, seed))
    return reports
