"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them)."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from momentbounds import bounds, dists, summoments, verify
from momentbounds.coeffs import CoefficientVector, rearrange
from momentbounds.dists import gamma_p, single_abs_moment, single_moment_rademacher
from momentbounds.summoments import (
    haagerup_moment,
    laplace_sum_moment_exact,
    laplace_sum_moment_recursion,
    monte_carlo_sum_moment,
    monte_carlo_sum_moments,
    rademacher_sum_moment,
)

CV = CoefficientVector
SQRT2 = math.sqrt(2.0)


def _report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def _distinct_vector(rng, n_max=8):
    """Random vector accepted by the partial-fraction engine."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        a = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
        s = np.sort(a * a)
        if n > 1 and np.min(np.diff(s)) < 1e-3 * s[-1]:
            continue
        c, (refusal,) = summoments._residue_rows(summoments._canonical(a)[0])
        if refusal is None and float(np.sum(np.abs(c))) < 1e6:
            return CV(a)


@pytest.mark.slow
def test_criterion_01_engine_agreement():
    start = time.time()
    rng = dists.substream(1001, 0)
    ps = [2.5, 3.0, 3.5]
    worst_haag = 0.0
    worst_mc = 0.0
    for i in range(500):
        v = _distinct_vector(rng)
        exact = {p: laplace_sum_moment_exact(v, p).raw_moment for p in ps}
        mcs = monte_carlo_sum_moments(v, dists.sym_exponential(), ps, 10**6, 1002 + i)
        for p, mc in zip(ps, mcs):
            haag = haagerup_moment(v, dists.sym_exponential(), p).raw_moment
            rel = abs(haag - exact[p]) / exact[p]
            worst_haag = max(worst_haag, rel)
            assert rel <= 1e-5, (v.values, p, rel)
            gap = abs(mc.raw_moment - exact[p])
            worst_mc = max(worst_mc, gap / mc.rigor.halfwidth)
            assert gap <= mc.rigor.halfwidth, (v.values, p)
    elapsed = time.time() - start
    _report(
        1,
        elapsed <= 300,
        f"engine agreement on 500 vectors x p in {{2.5,3,3.5}}: "
        f"haagerup worst rel {worst_haag:.2e} (<=1e-5), MC worst CI fraction "
        f"{worst_mc:.2f} (<=1), {elapsed:.0f}s (<=300s)",
    )


def test_criterion_02_closed_form_spot_values():
    checks = [
        ("E|sum_3 eps|^4", rademacher_sum_moment(CV([1, 1, 1]), 4).raw_moment, 21.0),
        ("E|E1+E2|^4", laplace_sum_moment_recursion(CV([1, 1]), 4).raw_moment, 18.0),
        (
            "E|E1+E2|^3",
            laplace_sum_moment_recursion(CV([1, 1]), 3).raw_moment,
            15.0 / (2.0 * SQRT2),
        ),
        ("E|2E1+E2|^2", laplace_sum_moment_exact(CV([2, 1]), 2).raw_moment, 5.0),
    ]
    for p in [2.0, 3.0, 4.0, 6.0]:
        want = math.exp(-0.5 * p * math.log(2.0) + math.lgamma(p + 1.0))
        checks.append((f"E|E|^{p:g}", single_abs_moment(dists.sym_exponential(), p), want))
        checks.append((f"rec E|E|^{p:g}", laplace_sum_moment_recursion(CV([1]), p).raw_moment, want))
    worst = max(abs(got - want) / want for _, got, want in checks)
    # density-based oracle cross-checks for the two-term values
    assert oracles.two_term_laplace_moment(4.0) == pytest.approx(18.0, rel=1e-10)
    assert oracles.two_term_laplace_moment(3.0) == pytest.approx(15 / (2 * SQRT2), rel=1e-10)
    _report(2, worst <= 1e-10, f"closed-form spot values, worst rel err {worst:.2e} (<=1e-10)")


def test_criterion_03_cos_product_inequality():
    start = time.time()
    rng = dists.substream(1003, 0)
    grid = verify.default_t_grid()
    total_cases = 0
    violations = 0
    worst = math.inf
    for v in [CV([1.0]), CV([1.0] * 10), CV([3, 2, 1]), CV([2, 0.5, 0.1, 0.05])]:
        r = verify.check_cos_product(rearrange(v), grid)
        total_cases += r.cases
        violations += r.violations
        worst = min(worst, r.worst_margin)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        v = rearrange(verify.sample_coefficient_vector(rng, n))
        t = float(rng.uniform(0.0, 1e4))
        r = verify.check_cos_product(v, [t])
        total_cases += 1
        violations += r.violations
        worst = min(worst, r.worst_margin)
    elapsed = time.time() - start
    _report(
        3,
        violations == 0 and elapsed <= 60,
        f"cosine-product inequality: 0 violations in {total_cases} cases "
        f"(worst margin {worst:.2e}, slack 1e-12), {elapsed:.0f}s (<=60s)",
    )


def test_criterion_04_single_variable_recursions():
    rng = dists.substream(1004, 0)
    worst_rec1 = 0.0
    for _ in range(200):
        a = float(rng.uniform(-3, 3))
        b = float(rng.uniform(-3, 3))
        p = float(rng.choice([2.5, 3.0, 4.7, 6.0]))
        lhs = oracles.exp_affine_moment_quad(a, b, p)
        inner = oracles.exp_affine_moment_quad(a, b, p - 2)
        rhs = abs(b) ** p + 0.5 * p * (p - 1) * a * a * inner
        worst_rec1 = max(worst_rec1, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    rec2_ok = True
    for _ in range(200):
        a = float(rng.uniform(-3, 3))
        b = float(rng.uniform(-3, 3))
        p = float(rng.uniform(3.0, 8.0))
        lhs = single_moment_rademacher(a, b, p)
        rhs = abs(b) ** p + 0.5 * p * (p - 1) * a * a * abs(b) ** (p - 2)
        rec2_ok = rec2_ok and lhs >= rhs - 1e-9 * max(1.0, rhs)
    eq_gap = abs(single_moment_rademacher(1, 1, 3) - (1 + 3.0))
    _report(
        4,
        worst_rec1 <= 1e-8 and rec2_ok and eq_gap <= 1e-12,
        f"rec1 identity worst rel {worst_rec1:.2e} (<=1e-8) on 200 cases; "
        f"rec2 holds on 200 cases with equality gap {eq_gap:.1e} at (1,1,3) (<=1e-12)",
    )


def test_criterion_05_comparison_chain():
    start = time.time()
    rng = dists.substream(1005, 0)
    violations = 0
    cases = 0
    for i in range(200):
        v = verify.sample_coefficient_vector(rng, int(rng.integers(1, 9)))
        for p in [2.0, 2.5, 3.0, 4.0, 6.0]:
            r = verify.check_comparison_chain(v, p, seed=2000 + i)
            violations += r.violations
            cases += r.cases
    # spot chain at p = 3, v = (1,1,1)
    g3 = gamma_p(3.0)
    chain = (
        g3 * math.sqrt(3.0),
        float(rademacher_sum_moment(CV([1, 1, 1]), 3).value),
        float(laplace_sum_moment_recursion(CV([1, 1]), 3).value),
        g3 * SQRT2,
    )
    spec_chain = (2.024, 1.9574, 1.7437, 1.6528)
    spot_ok = all(abs(g - s) <= 1e-3 for g, s in zip(chain, spec_chain))
    ordered = all(x >= y for x, y in zip(chain, chain[1:]))
    elapsed = time.time() - start
    _report(
        5,
        violations == 0 and spot_ok and ordered and elapsed <= 600,
        f"comparison chain: 0 violations in {cases} links over 200 vectors x 5 p; "
        f"spot chain {tuple(round(x, 4) for x in chain)} within 1e-3, {elapsed:.0f}s (<=600s)",
    )


def test_criterion_06_p24_comparison():
    rng = dists.substream(1006, 0)
    violations = 0
    cases = 0
    for i in range(100):
        v = rearrange(verify.sample_coefficient_vector(rng, int(rng.integers(1, 9))))
        for p in [2.0, 2.5, 3.0, 3.5, 4.0]:
            r = verify.check_p24_comparison(v, p, seed=3000 + i)
            violations += r.violations
            cases += r.cases
    _report(6, violations == 0, f"p in [2,4] comparison: 0 violations in {cases} cases")


def test_criterion_07_extremality():
    start = time.time()
    rng = dists.substream(1007, 0)
    violations = 0
    cases = 0
    inconclusive = 0
    for alpha in [1.0, 1.5, 2.0, 3.0]:
        for i in range(50):
            v = verify.sample_coefficient_vector(rng, int(rng.integers(1, 7)))
            p = float(rng.choice([3.0, 4.0, 6.0]))
            r = verify.check_extremality(v, alpha, p, seed=4000 + i, samples=100_000)
            violations += r.violations
            cases += r.cases
            inconclusive += r.inconclusive
    # alpha = 1 degeneracy: X = E in law, so the upper link is an equality
    v = CV([1.2, 0.7, 0.4])
    mid = monte_carlo_sum_moment(v, dists.weibull_tail(1.0), 4.0, 400_000, 5001)
    right = laplace_sum_moment_exact(v, 4.0)
    degenerate_ok = abs(mid.raw_moment - right.raw_moment) <= mid.rigor.halfwidth
    elapsed = time.time() - start
    _report(
        7,
        violations == 0 and degenerate_ok,
        f"extremality: 0 violations in {cases} links ({inconclusive} inconclusive straddles), "
        f"alpha=1 equality within CI, {elapsed:.0f}s",
    )


def test_criterion_08_bound_sandwiches():
    rng = dists.substream(1008, 0)
    counts = {"estrad": 0, "estexp": 0, "logconc": 0}
    violations = 0
    # Corollary 1: Rademacher, 200 cases
    for i in range(200):
        v = verify.sample_coefficient_vector(rng, int(rng.integers(1, 9)))
        p = float(rng.choice([2.0, 2.5, 3.0, 4.0, 6.0, 8.0]))
        exact = rademacher_sum_moment(v, p).value
        bi = bounds.rademacher_bounds(v, p)
        violations += 0 if bi.lower - 1e-9 <= exact <= bi.upper + 1e-9 else 1
        counts["estrad"] += 1
    # Corollary 2: two-sided exponential, 200 cases
    for i in range(200):
        v = verify.sample_coefficient_vector(rng, int(rng.integers(1, 9)))
        p = float(rng.choice([2.0, 2.5, 3.0, 4.0, 6.0, 8.0]))
        est = verify.reference_estimate(v, dists.sym_exponential(), p, seed=5000 + i)
        bi = bounds.exponential_bounds(v, p)
        slack = 1e-6 * max(1.0, est.value)
        violations += 0 if bi.lower - slack <= est.value <= bi.upper + slack else 1
        counts["estexp"] += 1
    # Theorem 2: log-concave family, 200 cases (exact engines + Monte Carlo)
    for i in range(200):
        d = [dists.sym_exponential(), dists.rademacher(), dists.weibull_tail(2.0)][i % 3]
        v = verify.sample_coefficient_vector(rng, int(rng.integers(1, 9)))
        p = float(rng.choice([3.0, 4.0, 6.0]))
        samples = 50_000
        r = verify.check_bounds_sandwich(v, d, p, seed=6000 + i, samples=samples)
        violations += r.violations
        counts["logconc"] += 1
    # Corollary 1 tightness at p = 2: empty head, zero-width interval
    rng2 = dists.substream(1008, 1)
    tight_ok = True
    for _ in range(50):
        v = verify.sample_coefficient_vector(rng2, int(rng2.integers(1, 9)))
        bi = bounds.rademacher_bounds(v, 2.0)
        l2 = math.sqrt(sum(x * x for x in v.values))
        tight_ok &= bi.upper - bi.lower <= 1e-12 * max(1.0, bi.upper)
        tight_ok &= abs(rademacher_sum_moment(v, 2.0).value - l2) <= 1e-12 * max(1.0, l2)
        tight_ok &= abs(bi.lower - l2) <= 1e-12 * max(1.0, l2)
    _report(
        8,
        violations == 0 and tight_ok,
        f"bound sandwiches: 0 violations over {counts} cases; p=2 Khintchine tight to 1e-12",
    )


def test_criterion_09_gaussian_approximation_gap():
    gaps = {}
    ok = True
    case = 0
    for n in [25, 100]:
        for alpha in [1.0, 2.0]:
            for p in [3.0, 4.0]:
                v = CV([1.0 / math.sqrt(n)] * n)
                est = monte_carlo_sum_moment(v, dists.weibull_tail(alpha), p, 200_000, 7000 + case)
                case += 1
                bound = p / math.sqrt(n)
                lo = max(est.raw_moment - est.rigor.halfwidth, 0.0) ** (1.0 / p)
                hi = (est.raw_moment + est.rigor.halfwidth) ** (1.0 / p)
                gap = abs(est.value - gamma_p(p))
                worst_gap = max(abs(lo - gamma_p(p)), abs(hi - gamma_p(p)))
                ok = ok and worst_gap <= bound
                gaps.setdefault((alpha, p), {})[n] = gap
    trend = {k: (round(v[25], 4), round(v[100], 4)) for k, v in gaps.items()}
    _report(
        9,
        ok,
        f"|norm - gamma_p| <= p/sqrt(n) within CI for flat vectors; "
        f"observed gaps (n=25 -> n=100): {trend} (1/sqrt(n) trend reported)",
    )


def test_criterion_10_gk_dual_norm():
    start = time.time()
    rng = dists.substream(1010, 0)
    kinds = [dists.sym_exponential(), dists.weibull_tail(2.0), dists.weibull_tail(3.0), dists.gaussian()]
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        a = rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)
        d = kinds[int(rng.integers(0, len(kinds)))]
        Ms = [bounds.OrliczFunction(d)] * n
        p = float(rng.choice([2.0, 3.0, 4.0, 6.0]))
        got = bounds.gk_dual_norm(CV(a), Ms, p)
        want = oracles.gk_grid_oracle(a, Ms, p, step=1e-3)
        worst = max(worst, abs(got - want) / max(want, 1e-12))
    # empirical two-sidedness ratio across a corpus
    ratios = []
    for i in range(30):
        d = [dists.sym_exponential(), dists.weibull_tail(2.0)][i % 2]
        v = rearrange(verify.sample_coefficient_vector(rng, int(rng.integers(2, 8))))
        p = float(rng.choice([3.0, 4.0, 6.0]))
        from momentbounds.coeffs import head_count_below

        head = CV(v.values[: head_count_below(p, len(v))])
        if len(head) == 0 or max(abs(x) for x in head.values) == 0:
            continue
        gk = bounds.gk_dual_norm(head, [bounds.OrliczFunction(d)] * len(head), p)
        if gk <= 0:
            continue
        est = verify.reference_estimate(head, d, p, samples=100_000, seed=8000 + i)
        ratios.append(est.value / gk)
    band_ok = all(1.0 / 20.0 <= r <= 20.0 for r in ratios)
    elapsed = time.time() - start
    _report(
        10,
        worst <= 1e-4 and band_ok,
        f"gk vs grid oracle worst rel {worst:.2e} (<=1e-4) on 50 instances; "
        f"head-norm/gk ratio in [{min(ratios):.3f}, {max(ratios):.3f}] within [1/20, 20] "
        f"({len(ratios)} cases), {elapsed:.0f}s",
    )


def test_criterion_11_counterexample_search():
    start = time.time()
    results = {}
    violations = 0
    for check in verify.SEARCH_CHECKS:
        cfg = verify.SearchConfig(check, n_max=6, p_grid=(2.5, 3.0, 4.0, 6.0), iterations=10_000, seed=424242)
        r = verify.search_counterexamples(cfg)
        violations += r.violations
        results[check] = r.worst_margin
    elapsed = time.time() - start
    _report(
        11,
        violations == 0,
        f"counterexample search (1e4 iters/check): 0 violations, minimal margins "
        f"{ {k: f'{v:.2e}' for k, v in results.items()} }, {elapsed:.0f}s",
    )


def test_criterion_12_reproducibility():
    argv = [
        sys.executable, "-m", "momentbounds.cli",
        "verify", "--seed", "42", "--samples", "50000",
    ]
    r1 = subprocess.run(argv, capture_output=True, timeout=900)
    r2 = subprocess.run(argv, capture_output=True, timeout=900)
    ok = r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0
    _report(
        12,
        ok,
        f"full verify run (seed 42) byte-identical across two executions "
        f"({len(r1.stdout)} bytes, exit {r1.returncode})",
    )
