"""Command-line front end.

A job is a single JSON document (file or stdin via ``--job``) plus flag
overrides; flags win.  Commands:

* ``moment``  — MomentEstimate records, one per p per requested engine;
* ``bounds``  — BoundInterval records for every applicable source;
* ``verify``  — run the verification suite; exit 0 iff zero violations;
* ``sweep``   — coefficient families x p grid, norms next to bound
                endpoints (plot-ready CSV);
* ``search``  — counterexample search per check.

Output is newline-delimited JSON or RFC-4180 CSV with a fixed header; every
record carries {command, digest, seed, version} and numbers are rendered as
shortest round-trip decimals, so identical invocations are byte-identical.

Exit codes: 0 ok; 1 usage/validation (a missing seed included); 2 engine
capacity/degeneracy/failure with no fallback left, or a result out of float
range; 3 verification violation found.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, fields

from . import __version__, bounds, dists, summoments, verify
from .coeffs import CoefficientVector
from .errors import JobValidationError, MomentBoundsError

__all__ = ["JobSpec", "parse_job", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_VIOLATION = 3

_COMMANDS = ("moment", "bounds", "verify", "sweep", "search")
_FORMATS = ("json", "csv")

_CSV_COLUMNS = {
    "moment": [
        "command", "digest", "seed", "version", "coefficients", "distribution",
        "alpha", "p", "method", "raw_moment", "value", "rigor", "epsilon",
        "halfwidth", "confidence",
    ],
    "bounds": [
        "command", "digest", "seed", "version", "coefficients", "distribution",
        "alpha", "p", "source", "lower", "upper",
    ],
    "verify": [
        "command", "digest", "seed", "version", "check", "cases", "violations",
        "worst_margin", "ci_resolved", "inconclusive",
    ],
    "sweep": [
        "command", "digest", "seed", "version", "family", "n", "distribution",
        "alpha", "p", "method", "value",
        *(f"{src}_{end}" for src in bounds.BOUND_SOURCES for end in ("lower", "upper")),
    ],
    "search": [
        "command", "digest", "seed", "version", "check", "iterations", "cases",
        "violations", "min_margin", "witness", "witness_p",
    ],
}


@dataclass
class JobSpec:
    """Validated job document.  Unknown fields are rejected at parse time."""

    command: str
    coefficients: list[float] | None = None
    distribution: str | None = None
    alpha: float | None = None
    p: list[float] | None = None
    engine: list[str] | None = None
    samples: int = 200_000
    seed: int | None = None
    format: str = "json"
    checks: list[str] | None = None
    iterations: int = 10_000
    nmax: int = 6
    gk_band: list[float] | None = None


_JOB_FIELDS = {f.name for f in fields(JobSpec)}


def _fail(field: str, message: str):
    raise JobValidationError(field, message)


def _is_number(x, kinds=(int, float)) -> bool:
    # bool subclasses int, but JSON true/false is not a number
    return isinstance(x, kinds) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A number that converts to a float: a JSON integer beyond the double
    range is none."""
    if not _is_number(x):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def parse_job(document: dict | None, overrides: dict) -> JobSpec:
    """Merge document and flag overrides, then validate everything.

    Validation is all-or-nothing: any bad field aborts with a field-path
    diagnostic before any computation starts.
    """
    doc = dict(document or {})
    for key in doc:
        if key not in _JOB_FIELDS:
            _fail(key, "unknown field")
    for key, val in overrides.items():
        if val is not None:
            doc[key] = val
    if "command" not in doc:
        _fail("command", "required (positional argument or document field)")
    job = JobSpec(command=doc["command"])
    for key, val in doc.items():
        setattr(job, key, val)
    _validate(job)
    return job


def _validate_names(field: str, names, allowed):
    if not isinstance(names, (list, tuple)) or len(names) == 0:
        _fail(field, "must be a nonempty list of names")
    for i, x in enumerate(names):
        if not isinstance(x, str) or x not in allowed:
            _fail(f"{field}[{i}]", f"must be one of {allowed}, got {x!r}")


def _validate(job: JobSpec):
    if job.command not in _COMMANDS:
        _fail("command", f"must be one of {_COMMANDS}, got {job.command!r}")
    if job.format not in _FORMATS:
        _fail("format", f"must be one of {_FORMATS}, got {job.format!r}")
    if job.coefficients is not None:
        if not isinstance(job.coefficients, (list, tuple)) or len(job.coefficients) == 0:
            _fail("coefficients", "must be a nonempty list of finite reals")
        for i, x in enumerate(job.coefficients):
            if not _is_real(x) or not math.isfinite(x):
                _fail(f"coefficients[{i}]", f"must be a finite real, got {x!r}")
    if job.distribution is not None and job.distribution not in dists.KINDS:
        _fail("distribution", f"must be one of {dists.KINDS}, got {job.distribution!r}")
    if job.alpha is not None:
        if not _is_real(job.alpha) or not math.isfinite(job.alpha) or job.alpha < 1:
            _fail("alpha", f"must be a finite real >= 1, got {job.alpha!r}")
    if job.p is not None:
        if not isinstance(job.p, (list, tuple)) or len(job.p) == 0:
            _fail("p", "must be a nonempty list of reals >= 1")
        for i, x in enumerate(job.p):
            if not _is_real(x) or not math.isfinite(x) or x < 1:
                _fail(f"p[{i}]", f"must be a finite real >= 1, got {x!r}")
    if job.engine is not None:
        _validate_names("engine", job.engine, tuple(summoments.ENGINES))
    if not _is_number(job.samples, int) or job.samples < summoments.MC_MIN_SAMPLES:
        _fail("samples", f"must be an integer >= {summoments.MC_MIN_SAMPLES}")
    if job.seed is not None and not _is_number(job.seed, int):
        _fail("seed", "must be an integer")
    if job.checks is not None:
        _validate_names("checks", job.checks, sorted(set(verify.SUITE_CHECKS) | set(verify.SEARCH_CHECKS)))
    if not _is_number(job.iterations, int) or job.iterations < 1:
        _fail("iterations", "must be an integer >= 1")
    if not _is_number(job.nmax, int) or job.nmax < 1:
        _fail("nmax", "must be an integer >= 1")
    if job.gk_band is not None:
        ok = (
            isinstance(job.gk_band, (list, tuple))
            and len(job.gk_band) == 2
            and all(_is_real(x) for x in job.gk_band)
            and 0 < job.gk_band[0] < job.gk_band[1]
        )
        if not ok:
            _fail("gk_band", "must be [lo, hi] with 0 < lo < hi")

    # per-command requirements
    if job.command in ("moment", "bounds"):
        if job.coefficients is None:
            _fail("coefficients", f"required for {job.command!r}")
        if job.distribution is None:
            _fail("distribution", f"required for {job.command!r}")
        if job.p is None:
            _fail("p", f"required for {job.command!r}")
    if job.distribution == dists.WEIBULL_TAIL and job.alpha is None:
        _fail("alpha", "required for weibullTail")
    engines = job.engine or []
    if job.distribution is not None:
        law = summoments.engine_law(_distribution(job))
        for i, e in enumerate(engines):
            if law not in summoments.ENGINES[e].laws:
                _fail(f"engine[{i}]", f"{e!r} does not compute {job.distribution!r} sums")
    # a default ladder that falls back to Monte Carlo asks for the seed when
    # it gets there (verify.reference_estimate)
    stochastic = job.command in ("verify", "sweep", "search") or any(
        summoments.ENGINES[e].seeded for e in engines
    )
    if stochastic and job.seed is None:
        _fail("seed", "required for stochastic commands (no wall-clock default)")
    if job.command == "search":
        for c in _search_checks(job):
            try:
                verify.SearchConfig(c, n_max=job.nmax, p_grid=_search_p_grid(job))
            except JobValidationError as exc:
                _fail({"n_max": "nmax", "p_grid": "p"}[exc.field], exc.message)


def _search_checks(job: JobSpec) -> list[str]:
    return [c for c in job.checks or verify.SEARCH_CHECKS if c in verify.SEARCH_CHECKS]


def _search_p_grid(job: JobSpec) -> tuple[float, ...]:
    return tuple(job.p) if job.p else verify.SEARCH_P_GRID


def _job_digest(job: JobSpec) -> str:
    # the digest identifies the computation inputs; the output format is
    # presentation only and stays out so CSV/JSON runs share a digest
    payload = {f.name: getattr(job, f.name) for f in fields(JobSpec) if f.name != "format"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _distribution(job: JobSpec) -> dists.DistributionSpec:
    if job.distribution == dists.WEIBULL_TAIL:
        return dists.weibull_tail(job.alpha)
    return dists.DistributionSpec(job.distribution)


def _coeff_cell(values) -> str:
    return " ".join(repr(float(x)) for x in values)


# --- command implementations -----------------------------------------------------


def _run_moment(job: JobSpec, envelope: dict) -> tuple[int, list[dict]]:
    v = CoefficientVector(job.coefficients)
    d = _distribution(job)
    # default: the law's ladder, with fallback; an explicit list: one record
    # per requested engine, no fallback
    ladders = [None] if job.engine is None else [[e] for e in job.engine]
    records = []
    for p in job.p:
        for prefer in ladders:
            est = verify.reference_estimate(v, d, float(p), samples=job.samples, seed=job.seed, prefer=prefer)
            r = est.rigor
            records.append(
                {
                    **envelope,
                    "coefficients": list(map(float, job.coefficients)),
                    "distribution": job.distribution,
                    "alpha": job.alpha,
                    "p": float(p),
                    "method": est.method,
                    "raw_moment": est.raw_moment,
                    "value": est.value,
                    "rigor": r.kind,
                    "epsilon": r.epsilon,
                    "halfwidth": r.halfwidth,
                    "confidence": r.confidence,
                }
            )
    return EXIT_OK, records


def _run_bounds(job: JobSpec, envelope: dict) -> tuple[int, list[dict]]:
    v = CoefficientVector(job.coefficients)
    d = _distribution(job)
    records = []
    for p in job.p:
        for bi, _, _ in verify.applicable_bounds(v, d, float(p), samples=job.samples, seed=job.seed):
            records.append(
                {
                    **envelope,
                    "coefficients": list(map(float, job.coefficients)),
                    "distribution": job.distribution,
                    "alpha": job.alpha,
                    "p": bi.p,
                    "source": bi.source,
                    "lower": bi.lower,
                    "upper": bi.upper,
                }
            )
    return EXIT_OK, records


def _run_verify(job: JobSpec, envelope: dict) -> tuple[int, list[dict]]:
    checks = None
    if job.checks is not None:
        checks = [c for c in job.checks if c in verify.SUITE_CHECKS]
        if not checks:
            _fail("checks", f"no suite checks among {job.checks!r}")
    band = tuple(job.gk_band) if job.gk_band else (1.0 / 20.0, 20.0)
    reports = verify.suite(
        job.seed, samples=job.samples, checks=checks, p_grid=job.p, gk_band=band
    )
    records = []
    violations = 0
    for rep in reports:
        violations += rep.violations
        records.append(
            {
                **envelope,
                "check": rep.check,
                "cases": rep.cases,
                "violations": rep.violations,
                "worst_margin": rep.worst_margin,
                "ci_resolved": rep.ci_resolved,
                "inconclusive": rep.inconclusive,
            }
        )
    return (EXIT_VIOLATION if violations else EXIT_OK), records


def _run_search(job: JobSpec, envelope: dict) -> tuple[int, list[dict]]:
    checks = _search_checks(job)
    if not checks:
        _fail("checks", f"no searchable checks among {job.checks!r}")
    p_grid = _search_p_grid(job)
    records = []
    violations = 0
    for i, check in enumerate(checks):
        cfg = verify.SearchConfig(
            check, n_max=job.nmax, p_grid=p_grid, iterations=job.iterations, seed=job.seed + i
        )
        rep = verify.search_counterexamples(cfg)
        violations += rep.violations
        records.append(
            {
                **envelope,
                "check": check,
                "iterations": job.iterations,
                "cases": rep.cases,
                "violations": rep.violations,
                "min_margin": rep.worst_margin,
                "witness": list(rep.witness) if rep.witness else None,
                "witness_p": rep.witness_p,
            }
        )
    return (EXIT_VIOLATION if violations else EXIT_OK), records


_SWEEP_SIZES = (4, 8)


def _run_sweep(job: JobSpec, envelope: dict) -> tuple[int, list[dict]]:
    d = _distribution(job) if job.distribution else dists.sym_exponential()
    ps = [float(x) for x in (job.p or [2.0, 3.0, 4.0, 6.0])]
    records = []
    case = 0
    for family in verify.COEFFICIENT_REGIMES:
        for n in _SWEEP_SIZES:
            rng = dists.substream(job.seed, case)
            case += 1
            v = (
                CoefficientVector(job.coefficients)
                if job.coefficients
                else verify.sample_coefficient_vector(rng, n, family)
            )
            for p in ps:
                if p < 2 or (summoments.engine_law(d) == dists.WEIBULL_TAIL and p < 3):
                    continue
                est = verify.reference_estimate(
                    v, d, p, samples=job.samples, seed=job.seed + case
                )
                row = {
                    **envelope,
                    "family": family,
                    "n": len(v),
                    "distribution": d.kind,
                    "alpha": job.alpha,
                    "p": p,
                    "method": est.method,
                    "value": est.value,
                }
                for src in bounds.BOUND_SOURCES:
                    row[f"{src}_lower"] = None
                    row[f"{src}_upper"] = None
                for bi, _, _ in verify.applicable_bounds(v, d, p, samples=job.samples, seed=job.seed):
                    row[f"{bi.source}_lower"] = bi.lower
                    row[f"{bi.source}_upper"] = bi.upper
                records.append(row)
            if job.coefficients:
                break
        if job.coefficients:
            break
    return EXIT_OK, records


# --- serialization ------------------------------------------------------------------


def _render_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"out of range float value {x!r} in CSV")
        return repr(x)
    if isinstance(x, list):
        return _coeff_cell(x)
    return str(x)


def emit(records: list[dict], fmt: str, command: str, stream) -> None:
    if fmt == "json":
        for rec in records:
            stream.write(json.dumps(rec, allow_nan=False) + "\n")
        return
    columns = _CSV_COLUMNS[command]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_render_cell(rec.get(col)) for col in columns])


# --- entry point ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="momentbounds",
        description="Moments of weighted sums of symmetric random variables, "
        "closed-form two-sided bounds, and machine verification of the "
        "underlying inequalities.",
    )
    ap.add_argument("command", nargs="?", choices=_COMMANDS, help="job command")
    ap.add_argument("--job", help="job document: JSON file path or '-' for stdin")
    ap.add_argument("--coeffs", help="comma-separated coefficients, e.g. 1,-2,0.5")
    ap.add_argument("--dist", choices=dists.KINDS, help="distribution kind")
    ap.add_argument("--alpha", type=float, help="weibullTail shape (alpha >= 1)")
    ap.add_argument("--p", help="comma-separated moment orders, e.g. 2,3,4")
    ap.add_argument("--engine", help="comma-separated engine preference")
    ap.add_argument("--samples", type=int, help="Monte Carlo sample count")
    ap.add_argument("--seed", type=int, help="master seed (required when stochastic)")
    ap.add_argument("--format", choices=_FORMATS, help="output format")
    ap.add_argument("--checks", help="comma-separated check ids for verify/search")
    ap.add_argument("--iterations", type=int, help="search iterations per check")
    ap.add_argument("--nmax", type=int, help="search: max coefficient count")
    ap.add_argument("--gk-band", dest="gk_band", help="ratio band lo,hi for gk_ratio")
    ap.add_argument("--out", help="write records to this path instead of stdout")
    return ap


def _split_floats(text: str, field: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        _fail(field, f"could not parse {text!r} as comma-separated reals")


def _load_document(path: str | None) -> dict | None:
    if path is None:
        return None
    try:
        raw = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        _fail("job", f"cannot read document: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        _fail("job", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        _fail("job", "document must be a single top-level object")
    return doc


def run(job: JobSpec) -> tuple[int, list[dict]]:
    """Execute a validated job; returns (exit status, records)."""
    envelope = {
        "command": job.command,
        "digest": _job_digest(job),
        "seed": job.seed,
        "version": __version__,
    }
    impl = {
        "moment": _run_moment,
        "bounds": _run_bounds,
        "verify": _run_verify,
        "sweep": _run_sweep,
        "search": _run_search,
    }[job.command]
    return impl(job, envelope)


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        document = _load_document(args.job)
        overrides = {
            "command": args.command,
            "coefficients": _split_floats(args.coeffs, "coeffs") if args.coeffs else None,
            "distribution": args.dist,
            "alpha": args.alpha,
            "p": _split_floats(args.p, "p") if args.p else None,
            "engine": args.engine.split(",") if args.engine else None,
            "samples": args.samples,
            "seed": args.seed,
            "format": args.format,
            "checks": args.checks.split(",") if args.checks else None,
            "iterations": args.iterations,
            "nmax": args.nmax,
            "gk_band": _split_floats(args.gk_band, "gk_band") if args.gk_band else None,
        }
        job = parse_job(document, overrides)
    except JobValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        status, records = run(job)
    except (JobValidationError, ValueError) as exc:
        # ValueError: a domain error surfaced by an explicitly pinned engine
        # (e.g. the Haagerup representation outside 2 < p < 4)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MomentBoundsError as exc:
        # an engine refused or failed and the ladder had nothing left
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OverflowError as exc:
        print(f"error: result out of float range: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    buffer = io.StringIO()
    try:
        emit(records, job.format, job.command, buffer)
    except ValueError as exc:
        # a value out of float range (neither format carries inf/nan)
        print(f"error: cannot render the result: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    payload = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return status


if __name__ == "__main__":
    sys.exit(main())
