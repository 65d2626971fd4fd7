"""Workload definitions and the checks that judge their outputs.

This module does not import momentbounds: requests are plain data, and the
checks compare the program's emitted text with ``oracle`` and with
properties the method must satisfy.  ``oracle`` (mpmath, scipy.special) is
imported by the checks that use it, so a worker process that only builds
requests does not load it.

* ``verify-suite``  - ``verify --checks cos_product,comp2,p24,sandwich,gk_ratio
                      --seed S`` (default 200,000 samples): the suite without
                      ``extremality``, which reports a false violation on
                      some seeds (see ``SUITE_CHECKS``);
* ``search``        - ``search --checks cos_product,comp2,p24,rec2
                      --iterations 10000 --p 2.5,3,4,6 --nmax 6 --seed S``;
* ``exact-queries`` - a seeded list of CLI ``moment``/``bounds``/``sweep``
                      jobs and library ``gk_dual_norm`` solves on the
                      deterministic engines, plus fixed scaled twins.

The shape of the request list (law, n, p and engine of every request) is
fixed; the seed draws coefficient values, signs and order only, so every
seed costs about the same and no request fails.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("verify-suite", "exact-queries", "search")
LAWS = ("rademacher", "symExponential", "gaussian", "weibullTail")
SEARCH_CHECKS = ("cos_product", "comp2", "p24", "rec2")
SEARCH_ITERATIONS = 10_000
SEARCH_P_GRID = (2.5, 3.0, 4.0, 6.0)
SEARCH_NMAX = 6
# The suite's checks but `extremality`.  At alpha = 1 the Weibull-tailed law
# is the two-sided exponential, so two of its links are equalities between a
# 3-sigma Monte Carlo interval and an exact norm, and on about one seed in
# fifty (seed 50) the interval misses and `verify` exits 3 with a violation.
# A check that fails on some seeds only cannot be counted steadily.
SUITE_CHECKS = ("cos_product", "comp2", "p24", "sandwich", "gk_ratio")
TWIN_SCALES = (1e-100, 1e100)

EXACT_REL = 1e-10  # "exact" rigor: floating-point agreement
ORACLE_REL = 1e-7  # agreement of the n = 2 dual-norm grid


def verify_job(seed: int) -> dict:
    return {"command": "verify", "checks": list(SUITE_CHECKS), "seed": seed}


def search_job(seed: int) -> dict:
    return {"command": "search", "checks": list(SEARCH_CHECKS), "iterations": SEARCH_ITERATIONS,
            "p": list(SEARCH_P_GRID), "nmax": SEARCH_NMAX, "seed": seed}


# --- verify-suite -------------------------------------------------------------


def suite_case_counts() -> dict[str, int]:
    """Cases per suite check, recomputed from the suite's grid definitions:
    coefficient vectors are drawn per size for each of three regimes, and the
    default p grid is (2, 2.5, 3, 3.5, 4, 5, 6, 8)."""
    regimes = 3
    p_grid = (2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0)
    t_points = round(100.0 / 1e-3) + 1 + 10_000  # [0, 100] at step 1e-3, plus 10^4 random t
    counts = {"cos_product": 4 * regimes * t_points}
    counts["comp2"] = 4 * regimes * len(p_grid) * 3  # 3 links per (vector, p)
    counts["p24"] = 4 * regimes * len([p for p in p_grid if 2 <= p <= 4])
    # sandwich: links per (law, p); Rademacher estrad + khintchine, exponential
    # estexp, and from p >= 3 the logconc interval and the signed gaussGap window
    sandwich = 0
    for law, vectors in (("rademacher", 9), ("symExponential", 9), ("weibullTail", 10)):
        grid = [p for p in p_grid if p >= (3 if law == "weibullTail" else 2)][:4]
        for p in grid:
            links = {"rademacher": 4, "symExponential": 2, "weibullTail": 0}[law]
            links += 4 if p >= 3 else 0
            sandwich += vectors * links
    counts["sandwich"] = sandwich
    counts["gk_ratio"] = 2 * 2 * regimes * 3 * 2
    return counts


def check_suite(status: int, text: str, seed: int) -> list[str]:
    """Problems with one suite's output (empty when correct)."""
    errors = []
    if status != 0:
        errors.append(f"verify exit status {status}")
    records = [json.loads(line) for line in text.splitlines()]
    expected = suite_case_counts()
    if [r["check"] for r in records] != list(SUITE_CHECKS):
        return errors + [f"verify checks {[r['check'] for r in records]}"]
    for r in records:
        if r["violations"] != 0:
            errors.append(f"verify {r['check']}: {r['violations']} violations")
        if r["cases"] != expected[r["check"]]:
            errors.append(f"verify {r['check']}: {r['cases']} cases, grid gives {expected[r['check']]}")
        if r["seed"] != seed or r["ci_resolved"] + r["inconclusive"] > r["cases"]:
            errors.append(f"verify {r['check']}: inconsistent record {r}")
    return errors


def inconclusive(text: str) -> int:
    return sum(json.loads(line).get("inconclusive", 0) for line in text.splitlines())


# --- search -----------------------------------------------------------------------


def check_search(status: int, text: str, seed: int) -> list[str]:
    errors = []
    if status != 0:
        errors.append(f"search exit status {status}")
    records = {r["check"]: r for r in map(json.loads, text.splitlines())}
    if list(records) != list(SEARCH_CHECKS):
        return errors + [f"search checks {list(records)}"]
    for check, r in records.items():
        if r["violations"] != 0:
            errors.append(f"search {check}: {r['violations']} violations")
        if r["cases"] != SEARCH_ITERATIONS or r["iterations"] != SEARCH_ITERATIONS:
            errors.append(f"search {check}: {r['cases']} cases for {SEARCH_ITERATIONS} iterations")
        w = r["witness"]
        if not w or not math.isfinite(r["min_margin"]):
            errors.append(f"search {check}: no witness or margin")
    errors += _replay_rec2(records["rec2"])
    errors += _replay_cos_product(records["cos_product"])
    for check in ("comp2", "p24"):
        w = records[check]["witness"]
        if not 1 <= len(w) <= SEARCH_NMAX or any(x < 0 for x in w) or w != sorted(w, reverse=True):
            errors.append(f"search {check}: witness {w} is not a rearranged vector of n <= {SEARCH_NMAX}")
    return errors


def _replay_rec2(r: dict) -> list[str]:
    # margin of E|a eps + b|^p >= |b|^p + p(p-1)/2 a^2 |b|^{p-2}, relative
    a, b, p = r["witness"]
    lhs = 0.5 * (abs(a + b) ** p + abs(a - b) ** p)
    rhs = abs(b) ** p + 0.5 * p * (p - 1.0) * a * a * abs(b) ** (p - 2.0)
    margin = (lhs - rhs) / max(1.0, abs(rhs))
    if p not in SEARCH_P_GRID or p < 3:
        return [f"search rec2: witness p={p} is off the grid"]
    if not math.isclose(margin, r["min_margin"], rel_tol=1e-9, abs_tol=1e-14) or margin < -1e-8:
        return [f"search rec2: witness replays to margin {margin!r}, reported {r['min_margin']!r}"]
    return []


def cos_product_margins(a, t) -> np.ndarray:
    """prod cos(a_i t) + a_1^2 t^2/2 - prod_{i>=2} 1/(1 + a_i^2 t^2/2)."""
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    lhs = np.prod(np.cos(np.outer(t, a)), axis=1) + 0.5 * (a[0] * t) ** 2
    rhs = np.prod(1.0 / (1.0 + 0.5 * np.outer(t, a[1:]) ** 2), axis=1)
    return lhs - rhs


def _replay_cos_product(r: dict) -> list[str]:
    # the search scores each vector on 64 fixed points plus 32 random ones,
    # so its minimum is at most the minimum over the fixed points
    fixed = float(np.min(cos_product_margins(r["witness"], np.geomspace(1e-3, 50.0, 64))))
    dense = float(np.min(cos_product_margins(r["witness"], np.linspace(0.0, 100.0, 200_001))))
    errors = []
    if r["min_margin"] > fixed + 1e-15:
        errors.append(f"search cos_product: reported {r['min_margin']!r} above fixed-point replay {fixed!r}")
    if dense < -1e-12:
        errors.append(f"search cos_product: witness violates on a dense grid ({dense!r})")
    return errors


# --- exact-queries: the request list -----------------------------------------------


@dataclass
class Request:
    """One operation.  ``job`` holds CLI fields for ``kind == "cli"``;
    ``gk`` holds (coefficients, [(law, alpha)], p) for ``kind == "gk"``."""

    name: str
    kind: str
    job: dict | None = None
    gk: tuple | None = None
    twin: tuple | None = None  # (base request name, scale)
    props: bool = True  # run the homogeneity and invariance replays


def _signed(rng, values) -> list[float]:
    """Random signs and a random order: engines must not care."""
    v = np.asarray(values, dtype=float) * rng.choice((-1.0, 1.0), len(values))
    return [float(x) for x in rng.permutation(v)]


def _moment(name, coeffs, law, p, **extra) -> Request:
    job = {"command": "moment", "coefficients": coeffs, "distribution": law, "p": list(p)}
    props = extra.pop("props", True)
    job.update(extra)
    return Request(name, "cli", job=job, props=props)


FRACTIONAL_P = (2.5, 3.25, 3.5, 4.5, 5.5, 6.75, 7.5)
# Latency percentiles are taken over 116 requests a pass.  A percentile
# that falls between two unlike requests jumps with every small change, so
# each lands inside a block of like requests: the 95th among six n = 25
# enumerations (ranks 3-8 from the top), the median among fourteen n = 18
# enumerations, with about as many requests cheaper than that block as
# dearer.  Enumeration cost depends on n alone and varies least from run to
# run on a shared machine.
RADEMACHER_HEAVY = ((16, 5.5), (17, 4.0), (19, 6.0), (20, 4.5), (21, 4.0), (22, 7.5), (23, 3.0),
                    (24, 5.5), (26, 4.0))
MEDIAN_BLOCK = (18, 14)  # (n, count)
P95_BLOCK = (25, 6)
RECURSION_SIZES = (10, 20, 30, 40, 50, 100)
PF_SIZES = (3, 4, 5, 6, 8, 10, 12, 14, 16, 20)
GAUSS_SIZES = (2, 5, 10, 20, 50, 100)
GK_LAWS = {
    "exp": [("symExponential", None)],
    "gauss": [("gaussian", None)],
    "w1.5": [("weibullTail", 1.5)],
    "w2": [("weibullTail", 2.0)],
    "w3": [("weibullTail", 3.0)],
    "mixA": [("symExponential", None), ("weibullTail", 3.0)],
    "mixB": [("gaussian", None), ("weibullTail", 1.5), ("weibullTail", 2.0)],
}
TWIN_BASES = (
    ("twin-rademacher", [3.0, 2.0, 1.0], "rademacher", (4.0, 6.0)),
    ("twin-exp-distinct", [1.0, 3.0], "symExponential", (4.5, 8.0)),
    ("twin-exp-repeated", [1.0, 1.0], "symExponential", (4.5, 8.0)),
)


def exact_queries(seed: int) -> list[Request]:
    """The fixed-shape, seeded request list of one ``exact-queries`` pass."""
    rng = np.random.default_rng([seed, 2])
    frac = lambda: float(rng.choice(FRACTIONAL_P))  # noqa: E731
    reqs: list[Request] = []
    # Rademacher enumeration: several p at n <= 15, one p per heavy size
    for n in range(8, 16):
        reqs.append(_moment(f"rad-n{n}", _signed(rng, rng.uniform(0.1, 1.0, n)), "rademacher",
                            sorted({frac(), 4.0, 6.0})))
    for n, p in RADEMACHER_HEAVY:
        reqs.append(_moment(f"rad-n{n}", _signed(rng, rng.uniform(0.1, 1.0, n)), "rademacher", [p],
                            props=n <= 20))
    for n, count in (MEDIAN_BLOCK, P95_BLOCK):
        for i in range(count):
            reqs.append(_moment(f"rad-n{n}-{i}", _signed(rng, rng.uniform(0.1, 1.0, n)), "rademacher",
                                [(4.0, 6.0)[i % 2]], props=False))
    # two-sided exponential, distinct coefficients: partial fractions
    for i, n in enumerate(PF_SIZES * 2):
        base = 0.8 ** np.arange(n) * (1.0 + 0.03 * rng.uniform(-1.0, 1.0, n))
        reqs.append(_moment(f"pf-n{n}-{i}", _signed(rng, base * rng.uniform(0.5, 2.0)), "symExponential",
                            sorted({frac(), 4.0, 6.0})))
    # n <= 2 at fractional p, against the mpmath oracle
    pair = _signed(rng, rng.uniform(0.2, 1.0, 2))
    pair_p = [float(rng.choice(FRACTIONAL_P[:3])), float(rng.choice(FRACTIONAL_P[3:]))]
    reqs.append(_moment("exp2-distinct", pair, "symExponential", pair_p))
    c = float(rng.uniform(0.2, 2.0))
    reqs.append(_moment("exp2-repeated", _signed(rng, [c, c]), "symExponential", [frac()]))
    reqs.append(_moment("exp1", _signed(rng, [rng.uniform(0.2, 2.0)]), "symExponential", sorted([frac(), 6.0])))
    # repeated coefficients at fractional p: the recursion engine, O(n^2)
    for i, n in enumerate(RECURSION_SIZES):
        r = float(rng.uniform(0.4, 0.8))
        base = [1.0] * (n - n // 2) + [r] * (n // 2)
        reqs.append(_moment(f"rec-n{n}", _signed(rng, base), "symExponential",
                            [FRACTIONAL_P[i % len(FRACTIONAL_P)]], props=n <= 20))
    # the Haagerup integral pinned, 2 < p < 4.  On Rademacher sums it fails
    # its tail quadrature for some vectors at p = 2.5 (n >= 3) and p = 3
    # (n >= 4), so those are left out (see CHANGES.md)
    for n in (2, 3, 4, 6, 8, 10):
        reqs.append(_moment(f"haag-rad-n{n}", _signed(rng, rng.uniform(0.1, 1.0, n)), "rademacher",
                            [3.0, 3.5] if n <= 3 else [3.5], engine=["haagerup"]))
    reqs.append(_moment("haag-exp2", pair, "symExponential", pair_p[:1], engine=["haagerup"]))
    for n in (4, 6):
        reqs.append(_moment(f"haag-exp-n{n}", _signed(rng, rng.uniform(0.1, 1.0, n)), "symExponential",
                            [2.5, 3.5], engine=["haagerup"]))
    # Gaussian closed form
    for n in GAUSS_SIZES:
        reqs.append(_moment(f"gauss-n{n}", _signed(rng, rng.uniform(0.1, 1.0, n)), "gaussian",
                            sorted({frac(), 4.0, 8.0})))
    # closed-form bound intervals at p >= 3
    for law, sizes in (("rademacher", (5, 12)), ("symExponential", (4, 9)), ("gaussian", (6, 15))):
        for n in sizes:
            coeffs = _signed(rng, rng.uniform(0.1, 1.0, n))
            reqs.append(Request(f"bounds-{law}-n{n}", "cli", job={
                "command": "bounds", "coefficients": coeffs, "distribution": law,
                "p": sorted({3.0, float(rng.choice((3.5, 4.5, 5.5))), 6.0})}))
    # norms next to bound endpoints, CSV
    for law in ("rademacher", "symExponential", "gaussian"):
        reqs.append(Request(f"sweep-{law}", "cli", job={
            "command": "sweep", "distribution": law, "seed": int(rng.integers(0, 2**31)), "format": "csv"}))
    # library dual-norm solves; n = 2 against the grid oracle
    gk_plan = [(k, 2) for k in ("exp", "gauss", "w2", "w3", "mixA", "mixB")]
    gk_plan += [(k, n) for k in ("exp", "gauss", "w1.5") for n in (3, 8, 20)]
    gk_plan += [(k, n) for k in ("w2", "w3") for n in (5, 12)] + [("mixA", 3), ("mixB", 5), ("mixA", 6)]
    for key, n in gk_plan:
        laws = [GK_LAWS[key][i % len(GK_LAWS[key])] for i in range(n)]
        p = float(rng.choice((3.0, 4.0, 5.5, 8.0)))
        reqs.append(Request(f"gk-{key}-n{n}", "gk", gk=(_signed(rng, rng.uniform(0.1, 1.0, n)), laws, p)))
    # fixed queries, then their scaled twins
    for name, coeffs, law, ps in TWIN_BASES:
        reqs.append(_moment(name, coeffs, law, ps))
    for name, coeffs, law, ps in TWIN_BASES:
        for lam in TWIN_SCALES:
            twin = _moment(f"{name}-x{lam:g}", [x * lam for x in coeffs], law, ps, props=False)
            twin.twin = (name, lam)
            reqs.append(twin)
    return reqs


# --- exact-queries: parsing and checks ----------------------------------------------


def parse_output(req: Request, text: str):
    if req.kind == "gk":
        return float(text)
    if req.job.get("format") == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return [{k: _cell(v) for k, v in row.items()} for row in rows]
    return [json.loads(line) for line in text.splitlines()]


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def rel_tolerance(rec: dict) -> float:
    """Relative tolerance on the norm that the record's rigor class allows."""
    if rec["rigor"] == "exact":
        return EXACT_REL
    if rec["rigor"] == "tolerance":
        return rec["epsilon"] + EXACT_REL
    raise AssertionError(f"statistical record in exact-queries: {rec}")


def close(value: float, ref: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rel * abs(ref)


class OracleCache:
    """Oracle values keyed by their inputs, so shared inputs cost one call."""

    def __init__(self):
        self._memo = {}

    def __call__(self, fn, *args):
        key = (fn.__name__, json.dumps(args))
        if key not in self._memo:
            self._memo[key] = fn(*args)
        return self._memo[key]


def reference_norm(coeffs, law: str, p: float, cache: OracleCache) -> float | None:
    """An oracle value of ||sum a_i X_i||_p where one exists."""
    import oracle

    a = [abs(x) for x in coeffs]
    if law == "gaussian":
        return cache(oracle.gaussian_norm, a, p)
    if float(p).is_integer() and int(p) % 2 == 0:
        return cache(oracle.even_norm, a, law, int(p))
    if law == "rademacher" and len(a) <= 12:
        return cache(oracle.rademacher_brute, a, p)
    if law == "symExponential" and len(a) <= 2:
        return cache(oracle.laplace2_norm, a[0], a[-1] if len(a) == 2 else 0.0, p)
    return None


def lyapunov_bracket(coeffs, law: str, p: float, cache: OracleCache):
    """(lower, upper) for a fractional p from the even orders around it:
    ||S||_{p0} <= ||S||_p <= ||S||_{p1}, and by log-convexity of p -> E|S|^p,
    E|S|^p <= (E|S|^{p0})^theta (E|S|^{p1})^{1-theta}."""
    p0 = 2 * math.floor(p / 2)
    p1 = p0 + 2
    lo = reference_norm(coeffs, law, p0, cache) if p0 >= 2 else 0.0
    n1 = reference_norm(coeffs, law, p1, cache)
    theta = (p1 - p) / (p1 - p0)
    if p0 >= 2:
        log_raw = theta * p0 * math.log(lo) + (1 - theta) * p1 * math.log(n1)
        return lo, math.exp(log_raw / p)
    return lo, n1


def check_moment_records(req: Request, records: list, cache: OracleCache) -> list[str]:
    errors = []
    job = req.job
    if [r["p"] for r in records] != [float(p) for p in job["p"]] * len(job.get("engine") or [None]):
        return [f"{req.name}: records for p {[r['p'] for r in records]}"]
    for r in records:
        if r["method"] == "monteCarlo":
            errors.append(f"{req.name}: monteCarlo record")
            continue
        ref = reference_norm(job["coefficients"], job["distribution"], r["p"], cache)
        tol = rel_tolerance(r)
        if ref is not None:
            if not close(r["value"], ref, tol):
                errors.append(f"{req.name}: p={r['p']} {r['method']} gives {r['value']!r}, oracle {ref!r}")
        else:
            lo, hi = lyapunov_bracket(job["coefficients"], job["distribution"], r["p"], cache)
            if not lo * (1 - tol) <= r["value"] <= hi * (1 + tol):
                errors.append(f"{req.name}: p={r['p']} value {r['value']!r} outside [{lo!r}, {hi!r}]")
        if r["value"] > 0 and not close(r["raw_moment"], r["value"] ** r["p"], 1e-9):
            errors.append(f"{req.name}: raw moment {r['raw_moment']!r} is not value**p")
    values = [r["value"] for r in records]
    for lo_rec, hi_rec in zip(records, records[1:]):
        if hi_rec["p"] > lo_rec["p"] and hi_rec["value"] < lo_rec["value"] * (1 - rel_tolerance(hi_rec)):
            errors.append(f"{req.name}: norm decreases in p: {values}")
    return errors


def check_bound_records(req: Request, records: list, reference) -> list[str]:
    """Every interval must contain the reference norm of its p;
    ``reference(p)`` gives (value, relative tolerance)."""
    import oracle

    errors = []
    a = np.abs(np.asarray(req.job["coefficients"], dtype=float))
    l2 = float(np.sqrt(np.sum(a * a)))
    for r in records:
        p = r["p"]
        ref, tol = reference(p)
        slack = tol * ref + 1e-12
        if not r["lower"] - slack <= ref <= r["upper"] + slack:
            errors.append(f"{req.name}: {r['source']} [{r['lower']!r}, {r['upper']!r}] misses {ref!r} at p={p}")
        gp = math.exp(oracle.log_abs_moment("gaussian", p) / p)
        expected = {
            "khintchine": (l2, gp * l2),
            "gaussGap": (max(gp * l2 - p * a.max(), 0.0), gp * l2 + p * a.max()),
            "estexp": (max(gp * l2, p / (math.e * math.sqrt(2.0)) * a.max()), gp * l2 + p * a.max()),
        }.get(r["source"])
        if expected and not all(close(x, y, 1e-12) or x == y for x, y in zip((r["lower"], r["upper"]), expected)):
            errors.append(f"{req.name}: {r['source']} endpoints {r['lower']!r}, {r['upper']!r} != {expected}")
    expected_sources = {
        "rademacher": ["khintchine", "comp2", "estrad", "logconc", "gaussGap"],
        "symExponential": ["estexp", "logconc", "gaussGap"],
        "gaussian": ["logconc", "gaussGap"],
    }[req.job["distribution"]]
    for p in req.job["p"]:
        got = [r["source"] for r in records if r["p"] == p]
        if got != expected_sources:
            errors.append(f"{req.name}: sources at p={p} are {got}")
    return errors


def check_sweep_rows(req: Request, rows: list) -> list[str]:
    errors = []
    if len(rows) != 6 * 4:
        errors.append(f"{req.name}: {len(rows)} rows, expected 3 families x 2 sizes x 4 p")
    by_vector: dict = {}
    for row in rows:
        if row["method"] == "monteCarlo":
            errors.append(f"{req.name}: monteCarlo row")
        by_vector.setdefault((row["family"], row["n"]), []).append(row)
        v = row["value"]
        for src in ("khintchine", "comp2", "estrad", "estexp", "logconc", "gaussGap"):
            lo, hi = row[f"{src}_lower"], row[f"{src}_upper"]
            if lo is not None and not lo - 1e-9 * v <= v <= hi + 1e-9 * v:
                errors.append(f"{req.name}: {src} [{lo!r}, {hi!r}] misses {v!r} at p={row['p']}")
        if row["p"] >= 3 and row["gaussGap_lower"] and req.job["distribution"] == "gaussian":
            center = 0.5 * (row["gaussGap_lower"] + row["gaussGap_upper"])
            if not close(v, center, 1e-12):
                errors.append(f"{req.name}: Gaussian norm {v!r} is not gamma_p ||a||_2 = {center!r}")
    for key, group in by_vector.items():
        values = [r["value"] for r in sorted(group, key=lambda r: r["p"])]
        if any(b < a * (1 - 1e-9) for a, b in zip(values, values[1:])):
            errors.append(f"{req.name}: {key} norms decrease in p: {values}")
    return errors


def gk_reference(req: Request):
    """(lower, upper) bounds on the dual norm from the oracle."""
    import oracle

    coeffs, laws, p = req.gk
    a = np.abs(np.asarray(coeffs, dtype=float))
    if len(a) == 2:
        g = oracle.gk_grid2(a, laws, p)
        return g * (1 - ORACLE_REL), g * (1 + ORACLE_REL)
    caps = np.array([float(oracle.orlicz_sublevel(law, p, alpha)) for law, alpha in laws])
    # feasible points: all budget on one coordinate, or spread on the
    # quadratic pieces along a; the supremum is at least their value
    spread = a / float(np.sqrt(np.sum(a * a))) * math.sqrt(p)
    spread /= max(1.0, float(spread.max()))
    lower = max(float(np.max(a * caps)), float(np.dot(a, spread)))
    return lower * (1 - 1e-12), float(np.dot(a, caps)) * (1 + 1e-12)


# --- exact-queries: judging one pass -------------------------------------------------


def judge_twins(reqs, results) -> dict[str, bool]:
    """A scaled twin passes when it returns lambda times its base query's
    norm, for every p, within the base record's rigor class."""
    by_name = {r.name: res for r, res in zip(reqs, results)}
    verdict = {}
    for req in reqs:
        if req.twin is None:
            continue
        base_name, lam = req.twin
        _, b_status, b_text = by_name[base_name]
        _, status, text = by_name[req.name]
        ok = status == 0 and b_status == 0
        if ok:
            base = [json.loads(x) for x in b_text.splitlines()]
            scaled = [json.loads(x) for x in text.splitlines()]
            ok = len(base) == len(scaled) and all(
                close(s["value"], lam * b["value"], rel_tolerance(b))
                for b, s in zip(base, scaled))
        verdict[req.name] = ok
    return verdict


def check_exact(reqs, outputs, execute) -> list[str]:
    """Oracles and properties for the first timed pass; runs outside the
    timed region and may call the program again for the replays."""
    cache = OracleCache()
    errors = []
    for req, (_, status, text) in zip(reqs, outputs):
        if req.twin is not None or status != 0:
            continue
        try:
            errors += check_one(req, parse_output(req, text), execute, cache)
        except Exception as exc:  # a check that crashes is a failed check
            errors.append(f"{req.name}: check raised {type(exc).__name__}: {exc}")
    return errors


def check_one(req, parsed, execute, cache) -> list[str]:
    if req.kind == "gk":
        lo, hi = gk_reference(req)
        errors = [] if lo <= parsed <= hi else [f"{req.name}: dual norm {parsed!r} outside [{lo!r}, {hi!r}]"]
        if req.props:
            errors += replay_properties(req, parsed, execute)
        return errors
    command = req.job["command"]
    if command == "moment":
        errors = check_moment_records(req, parsed, cache)
        if req.props:
            errors += replay_properties(req, parsed, execute)
        return errors
    if command == "sweep":
        return check_sweep_rows(req, parsed)

    def reference(p):
        ref = reference_norm(req.job["coefficients"], req.job["distribution"], p, cache)
        if ref is not None:
            return ref, EXACT_REL
        moment = Request(req.name, "cli", job={**req.job, "command": "moment", "p": [p]})
        rec = json.loads(execute(moment)[1])
        return rec["value"], rel_tolerance(rec)

    return check_bound_records(req, parsed, reference)


def replay_properties(req, parsed, execute) -> list[str]:
    """Homogeneity (coefficients times 3) and permutation and sign
    invariance (reversed order, every sign flipped)."""
    errors = []
    for label, lam, transform in (("homogeneity", 3.0, lambda v: [3.0 * x for x in v]),
                                  ("invariance", 1.0, lambda v: [-x for x in reversed(v)])):
        if req.kind == "gk":
            a, laws, p = req.gk
            laws = laws if label == "homogeneity" else list(reversed(laws))
            other = Request(req.name, "gk", gk=(transform(a), laws, p))
            got = float(execute(other)[1])
            if not close(got, lam * parsed, 1e-9):
                errors.append(f"{req.name}: {label}: {got!r} vs {lam * parsed!r}")
            continue
        other = Request(req.name, "cli", job={**req.job, "coefficients": transform(req.job["coefficients"])})
        status, text = execute(other)
        recs = [json.loads(x) for x in text.splitlines()] if status == 0 else []
        if len(recs) != len(parsed):
            errors.append(f"{req.name}: {label}: status {status}")
            continue
        for base, rec in zip(parsed, recs):
            if not close(rec["value"], lam * base["value"], 2 * rel_tolerance(base)):
                errors.append(f"{req.name}: {label} at p={base['p']}: {rec['value']!r} vs {lam * base['value']!r}")
    return errors
