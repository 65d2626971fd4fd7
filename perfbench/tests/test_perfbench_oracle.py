"""The benchmark's oracles against closed forms, and its output checks on
hand-made inputs.  Run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import workloads  # noqa: E402

A = [1.0, -0.7, 0.3, 0.2, 0.05]


def gaussian_abs_moment_density(p: float) -> float:
    """E|N(0,1)|^p by quadrature against the standard normal density."""
    from scipy import integrate

    val, _ = integrate.quad(lambda x: 2.0 * x**p * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
                            0.0, 60.0, limit=200, epsabs=0.0, epsrel=1e-13)
    return val


def _s2_s4(a):
    return sum(x * x for x in a), sum(x**4 for x in a)


def test_rademacher_fourth_moment():
    s2, s4 = _s2_s4(A)
    expected = 3 * s2 * s2 - 2 * s4
    assert math.isclose(oracle.even_norm(A, "rademacher", 4) ** 4, expected, rel_tol=1e-13)
    assert math.isclose(oracle.rademacher_brute(A, 4) ** 4, expected, rel_tol=1e-13)


def test_laplace_fourth_moment():
    s2, s4 = _s2_s4(A)
    expected = 3 * s2 * s2 + 3 * s4
    assert math.isclose(oracle.even_norm(A, "symExponential", 4) ** 4, expected, rel_tol=1e-13)
    a1, a2 = 0.8, 0.35
    s2, s4 = _s2_s4([a1, a2])
    assert math.isclose(oracle.laplace2_norm(a1, a2, 4.0) ** 4, 3 * s2 * s2 + 3 * s4, rel_tol=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.3, 4.0, 7.25])
def test_gamma_p_from_gaussian_density(p):
    gamma_p = gaussian_abs_moment_density(p) ** (1.0 / p)
    assert math.isclose(oracle.gaussian_norm([1.0], p), gamma_p, rel_tol=1e-12)
    assert math.isclose(oracle.gaussian_norm([3.0, 4.0], p), 5.0 * gamma_p, rel_tol=1e-12)


def test_even_norm_matches_brute_force_and_gaussian():
    for p in (2, 6, 8):
        assert math.isclose(oracle.even_norm(A, "rademacher", p), oracle.rademacher_brute(A, p), rel_tol=1e-13)
        assert math.isclose(oracle.even_norm(A, "gaussian", p), oracle.gaussian_norm(A, p), rel_tol=1e-13)
    # unit variance for every law, and the fourth moment of one variable
    for law, alpha, fourth in (("symExponential", None, 6.0), ("gaussian", None, 3.0), ("weibullTail", 2.0, 2.0)):
        assert math.isclose(oracle.even_norm([1.0], law, 2, alpha), 1.0, rel_tol=1e-14)
        assert math.isclose(oracle.even_norm([1.0], law, 4, alpha) ** 4, fourth, rel_tol=1e-13)


def test_even_norm_is_scale_safe():
    for lam in (1e-200, 1e200):
        assert math.isclose(oracle.even_norm([x * lam for x in A], "rademacher", 8),
                            lam * oracle.even_norm(A, "rademacher", 8), rel_tol=1e-14)


def test_laplace2_single_term_closed_form():
    # E|X|^p = 2^{-p/2} Gamma(p + 1) for the unit-variance two-sided exponential
    for p in (2.5, 3.5, 7.25):
        expected = math.exp((-0.5 * p * math.log(2.0) + math.lgamma(p + 1.0)) / p)
        assert math.isclose(oracle.laplace2_norm(0.0, 1.0, p), expected, rel_tol=1e-13)


def test_gk_grid_on_a_single_coordinate():
    # with a = (1, 0) the supremum is the largest b with M(b) <= p
    for p in (3.0, 6.5):
        assert math.isclose(oracle.gk_grid2([1.0, 0.0], [("symExponential", None)] * 2, p),
                            p / math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(oracle.gk_grid2([1.0, 0.0], [("weibullTail", 2.0)] * 2, 4.0), 2.0, rel_tol=1e-12)


def test_gk_grid_quadratic_regime():
    # small budget: both coordinates stay on b^2, and b = sqrt(p) a / |a|_2
    a = np.array([0.6, 0.8])
    p = 0.5
    assert math.isclose(oracle.gk_grid2(a, [("gaussian", None)] * 2, p), math.sqrt(p), rel_tol=1e-8)


def test_suite_case_counts():
    counts = workloads.suite_case_counts()
    assert counts["comp2"] == 12 * 8 * 3
    assert counts["cos_product"] == 12 * 110_001
    assert counts["sandwich"] == 9 * (4 + 4 + 8 + 8) + 9 * (2 + 2 + 6 + 6) + 10 * 4 * 4


def test_search_replays():
    a, b, p = 0.5, -1.25, 4.0
    lhs = 0.5 * ((a + b) ** 4 + (a - b) ** 4)
    rhs = b**4 + 6 * a * a * b * b
    record = {"witness": [a, b, p], "min_margin": (lhs - rhs) / max(1.0, rhs)}
    assert workloads._replay_rec2(record) == []
    record["min_margin"] += 1e-3
    assert workloads._replay_rec2(record)
    w = [0.9, 0.4, 0.1]
    fixed = float(np.min(workloads.cos_product_margins(w, np.geomspace(1e-3, 50.0, 64))))
    assert workloads._replay_cos_product({"witness": w, "min_margin": fixed}) == []
    assert workloads._replay_cos_product({"witness": w, "min_margin": fixed + 1e-6})


def test_request_list_is_seeded_and_fixed_in_shape():
    first, again, other = (workloads.exact_queries(s) for s in (5, 5, 6))
    assert [r.job or r.gk for r in first] == [r.job or r.gk for r in again]
    assert [r.name for r in first] == [r.name for r in other]
    assert [r.job or r.gk for r in first] != [r.job or r.gk for r in other]
    twins = [r for r in first if r.twin]
    assert [r.job for r in twins] == [r.job for r in other if r.twin]
    assert all(r.job["p"] and min(r.job["p"]) >= 4 for r in twins)
