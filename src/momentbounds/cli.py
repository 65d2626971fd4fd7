"""Command-line front end.

A job is a single JSON document (file or stdin via ``--job``) plus flag
overrides; flags win.  Commands:

* ``moment``  — MomentEstimate records, one per p per requested engine;
* ``bounds``  — BoundInterval records for every applicable source;
* ``verify``  — run the verification suite; exit 0 iff zero violations;
* ``sweep``   — coefficient families x p grid, norms next to bound
                endpoints (plot-ready CSV);
* ``search``  — counterexample search per check.

Output is newline-delimited JSON or RFC-4180 CSV whose header is the
records' own fields, in the order each command builds them; every
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

_FORMATS = ("json", "csv")

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
    if job.seed is not None and (not _is_number(job.seed, int) or job.seed < 0):
        _fail("seed", f"must be a nonnegative integer, got {job.seed!r}")
    if job.checks is not None:
        # verify and search take only the checks they run
        own = {"verify": verify.SUITE_CHECKS, "search": verify.SEARCH_CHECKS}.get(job.command)
        _validate_names("checks", job.checks, own or sorted({*verify.SUITE_CHECKS, *verify.SEARCH_CHECKS}))
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
    if job.command in ("verify", "search"):
        for name in ("alpha", "distribution"):
            if getattr(job, name) is not None:
                _fail(name, f"{job.command!r} runs no single law")
    kind = _law_kind(job)
    if kind is not None and (job.alpha is not None) != ("alpha" in dists.LAWS[kind].params):
        _fail("alpha", f"required for {kind}" if job.alpha is None else f"{kind} takes no alpha")
    engines = job.engine or []
    if job.distribution is not None:
        d = _distribution(job)
        law = dists.LAWS[d.kind].engine_spec(d).kind
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
        for c in job.checks or verify.SEARCH_CHECKS:
            try:
                verify.SearchConfig(c, n_max=job.nmax, p_grid=_search_p_grid(job))
            except JobValidationError as exc:
                _fail({"n_max": "nmax", "p_grid": "p"}[exc.field], exc.message)


def _search_p_grid(job: JobSpec) -> tuple[float, ...]:
    return tuple(job.p) if job.p else verify.SEARCH_P_GRID


def _job_digest(job: JobSpec) -> str:
    # the digest identifies the computation inputs; the output format is
    # presentation only and stays out so CSV/JSON runs share a digest
    payload = {f.name: getattr(job, f.name) for f in fields(JobSpec) if f.name != "format"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _law_kind(job: JobSpec) -> str | None:
    # the law the job runs; a sweep without --dist runs the two-sided exponential
    return job.distribution or (dists.SYM_EXPONENTIAL if job.command == "sweep" else None)


def _distribution(job: JobSpec) -> dists.DistributionSpec:
    law = dists.LAWS[_law_kind(job)]
    return law.spec(**{name: getattr(job, name) for name in law.params})


def _coeff_cell(values) -> str:
    return " ".join(repr(float(x)) for x in values)


# --- command implementations -----------------------------------------------------


def _orders_from(lowest: float, ps: list[float], what: str) -> list[float]:
    """The orders of ps from lowest on, as floats; refused on p when there
    are none, since the command would print no record."""
    orders = [float(x) for x in ps if x >= lowest]
    if not orders:
        _fail("p", f"{what} need p >= {lowest:g}, got {[float(x) for x in ps]}")
    return orders


def _run_moment(job: JobSpec, envelope: dict) -> list[dict]:
    v = CoefficientVector(job.coefficients)
    d = _distribution(job)
    # default: the law's ladder, with fallback; an explicit list: one record
    # per requested engine, no fallback
    ladders = [None] if job.engine is None else [[e] for e in job.engine]
    records = []
    for i, p in enumerate(job.p):
        for prefer in ladders:
            with verify._failure_named("the moment command", float(p)):
                try:
                    est = verify.reference_estimate(v, d, float(p), samples=job.samples, seed=job.seed, prefer=prefer)
                except ValueError as exc:
                    if prefer is None or isinstance(exc, JobValidationError):
                        raise  # e.g. a missing seed, which names its own field
                    # a pinned engine's domain error (haagerup outside 2 < p < 4)
                    raise JobValidationError(f"p[{i}]", str(exc)) from exc
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
    return records


def _run_bounds(job: JobSpec, envelope: dict) -> list[dict]:
    v = CoefficientVector(job.coefficients)
    d = _distribution(job)
    records = []
    for p in _orders_from(verify.lowest_bound_order(d), job.p, f"bounds of {d.kind} sums"):
        with verify._failure_named("the bounds command", p):
            found = verify.applicable_bounds(v, d, p, samples=job.samples, seed=job.seed)
        for bi, _, _ in found:
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
    return records


def _run_verify(job: JobSpec, envelope: dict) -> list[dict]:
    band = tuple(job.gk_band) if job.gk_band else verify.GK_BAND
    try:
        reports = verify.suite(job.seed, samples=job.samples, checks=job.checks, p_grid=job.p, gk_band=band)
    except JobValidationError as exc:
        if exc.field != "p_grid":
            raise
        _fail("p", exc.message)
    return [
        {
            **envelope,
            "check": rep.check,
            "cases": rep.cases,
            "violations": rep.violations,
            "worst_margin": rep.worst_margin,
            "ci_resolved": rep.ci_resolved,
            "inconclusive": rep.inconclusive,
        }
        for rep in reports
    ]


def _run_search(job: JobSpec, envelope: dict) -> list[dict]:
    p_grid = _search_p_grid(job)
    records = []
    for i, check in enumerate(job.checks or verify.SEARCH_CHECKS):
        cfg = verify.SearchConfig(
            check, n_max=job.nmax, p_grid=p_grid, iterations=job.iterations, seed=job.seed + i
        )
        rep = verify.search_counterexamples(cfg)
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
    return records


_SWEEP_SIZES = (4, 8)


def _run_sweep(job: JobSpec, envelope: dict) -> list[dict]:
    """One row per (family, n) case and order: the reference norm next to
    every applicable bound interval.  Case k (from 1) draws its vector from
    substream k - 1 and takes its reference at seed + k; given coefficients
    are the one case, with the first family and size as its labels."""
    d = _distribution(job)
    # a sweep row needs p >= 2, and p >= 3 for Weibull-law sums
    lowest = 3.0 if dists.LAWS[d.kind].engine_spec(d).kind == dists.WEIBULL_TAIL else 2.0
    ps = _orders_from(lowest, job.p or [2.0, 3.0, 4.0, 6.0], f"sweep rows of {d.kind} sums")
    cases = [(family, n) for family in verify.COEFFICIENT_REGIMES for n in _SWEEP_SIZES]
    records = []
    for case, (family, n) in enumerate(cases[:1] if job.coefficients else cases, 1):
        v = (
            CoefficientVector(job.coefficients)
            if job.coefficients
            else verify.sample_coefficient_vector(dists.substream(job.seed, case - 1), n, family)
        )
        for p in ps:
            with verify._failure_named("the sweep command", p):
                est = verify.reference_estimate(v, d, p, samples=job.samples, seed=job.seed + case)
                found = verify.applicable_bounds(v, d, p, samples=job.samples, seed=job.seed)
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
            for bi, _, _ in found:
                row[f"{bi.source}_lower"] = bi.lower
                row[f"{bi.source}_upper"] = bi.upper
            records.append(row)
    return records


# each command's runner: runner(job, envelope) -> records
_RUNNERS = {
    "moment": _run_moment,
    "bounds": _run_bounds,
    "verify": _run_verify,
    "sweep": _run_sweep,
    "search": _run_search,
}
_COMMANDS = tuple(_RUNNERS)


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
    """Write the records of one command as JSON lines or as CSV whose header
    is the first record's fields, in order, not a table kept by command
    (every record of a command has the same fields); no records write
    nothing."""
    if fmt == "json":
        for rec in records:
            stream.write(json.dumps(rec, allow_nan=False) + "\n")
        return
    if not records:
        return
    columns = list(records[0])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_render_cell(rec[col]) for col in columns])


# --- entry point ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="momentbounds",
        description="Moments of weighted sums of symmetric random variables, "
        "closed-form two-sided bounds, and machine verification of the "
        "underlying inequalities.",
    )
    ap.add_argument("command", nargs="?", help=f"job command: one of {', '.join(_COMMANDS)}")
    ap.add_argument("--job", help="job document: JSON file path or '-' for stdin")
    ap.add_argument("--coeffs", help="comma-separated coefficients, e.g. 1,-2,0.5")
    ap.add_argument("--dist", help=f"distribution kind: one of {', '.join(dists.KINDS)}")
    ap.add_argument("--alpha", help="weibullTail shape (alpha >= 1)")
    ap.add_argument("--p", help="comma-separated moment orders, e.g. 2,3,4")
    ap.add_argument("--engine", help="comma-separated engine preference")
    ap.add_argument("--samples", help="Monte Carlo sample count")
    ap.add_argument("--seed", help="master seed (required when stochastic)")
    ap.add_argument("--format", help="output format: json or csv")
    ap.add_argument("--checks", help="comma-separated check ids for verify/search")
    ap.add_argument("--iterations", help="search iterations per check")
    ap.add_argument("--nmax", help="search: max coefficient count")
    ap.add_argument("--gk-band", dest="gk_band", help="ratio band lo,hi for gk_ratio")
    ap.add_argument("--out", help="write records to this path instead of stdout")
    return ap


def _flag(text: str | None, field: str, kind=float, many: bool = False):
    """A flag's text as kind (a comma-separated list if many); empty is absent."""
    if not text:
        return None
    try:
        return [kind(x) for x in text.split(",") if x.strip() != ""] if many else kind(text)
    except ValueError:
        _fail(field, f"could not parse {text!r} as {'comma-separated reals' if many else kind.__name__}")


def _load_document(path: str | None) -> dict | None:
    if path is None:
        return None
    try:
        raw = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        _fail("job", f"cannot read document: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        _fail("job", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        _fail("job", "document must be a single top-level object")
    return doc


def run(job: JobSpec) -> tuple[int, list[dict]]:
    """Execute a validated job; returns (exit status, records), the status
    EXIT_VIOLATION when a record counts a violation."""
    envelope = {
        "command": job.command,
        "digest": _job_digest(job),
        "seed": job.seed,
        "version": __version__,
    }
    records = _RUNNERS[job.command](job, envelope)
    violated = any(rec.get("violations", 0) > 0 for rec in records)
    return (EXIT_VIOLATION if violated else EXIT_OK), records


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        document = _load_document(args.job)
        overrides = {
            "command": args.command,
            "coefficients": _flag(args.coeffs, "coeffs", many=True),
            "distribution": args.dist,
            "alpha": _flag(args.alpha, "alpha"),
            "p": _flag(args.p, "p", many=True),
            "engine": args.engine.split(",") if args.engine else None,
            "samples": _flag(args.samples, "samples", int),
            "seed": _flag(args.seed, "seed", int),
            "format": args.format,
            "checks": args.checks.split(",") if args.checks else None,
            "iterations": _flag(args.iterations, "iterations", int),
            "nmax": _flag(args.nmax, "nmax", int),
            "gk_band": _flag(args.gk_band, "gk_band", many=True),
        }
        job = parse_job(document, overrides)
    except JobValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        status, records = run(job)
    except (JobValidationError, ValueError) as exc:
        # ValueError: a domain error that no job field owns
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
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: out: cannot write records: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(payload)
    return status


if __name__ == "__main__":
    sys.exit(main())
