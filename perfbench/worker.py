"""One benchmark process: imports momentbounds from ``src/`` of the
checkout it lives in, does one kind of work, and prints one JSON line.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py cli-pass --job '{"command": "verify", "seed": 3}' [--trace FILE]
    python3 perfbench/worker.py exact --seed 3 --seconds 20 [--trace FILE]

``setup`` imports the package and answers one small query; ``cli-pass``
runs one ``verify`` or ``search`` job, given as CLI job fields in JSON;
``exact`` runs ``exact-queries`` passes in a closed loop (one warm-up
pass, then timed passes until ``--seconds`` have gone by) and checks every
output afterwards.

Only the standard library and momentbounds are imported before the
measured work, so set-up time, latencies and peak memory are the
program's; the benchmark's own modules (``workloads``, ``oracle``,
``tracer``) are loaded where a mode needs them.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def load_program():
    """Import momentbounds from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import momentbounds
    from momentbounds import bounds, cli, coeffs, dists

    if Path(momentbounds.__file__).resolve().parent != src / "momentbounds":
        raise ImportError(f"momentbounds was imported from {momentbounds.__file__}, not {src}")
    return momentbounds, cli, bounds, coeffs, dists


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(cli, fields: dict) -> tuple[int, str]:
    job = cli.parse_job(None, fields)
    status, records = cli.run(job)
    buf = io.StringIO()
    cli.emit(records, job.format, job.command, buf)
    return status, buf.getvalue()


def make_executor(cli, bounds, coeffs, dists):
    def law(name, alpha):
        return dists.weibull_tail(alpha) if name == "weibullTail" else dists.DistributionSpec(name)

    def execute(req) -> tuple[int, str]:
        if req.kind == "cli":
            return run_cli(cli, req.job)
        a, laws, p = req.gk
        m = [bounds.OrliczFunction(law(*x)) for x in laws]
        return 0, repr(bounds.gk_dual_norm(coeffs.CoefficientVector(a), m, p))

    return execute


def start_trace(momentbounds):
    from tracer import Tracer

    return Tracer(momentbounds)


def finish_trace(tracer, path: str, dists, inconclusive: int) -> dict:
    """Per-layer metrics of a traced pass, the sampler probe, and the list of
    wrapped functions that fired."""
    tracer.restore()
    metrics = tracer.metrics()
    if "dists.sample_array" not in tracer.missing:
        for law, rate in sampler_rates(dists).items():
            metrics[f"dists.sample_array.{law}.draws_per_s"] = (rate, "1/s")
    metrics["verify.inconclusive"] = (inconclusive, "count")
    tracer.write(path)
    return {"metrics": metrics, "fired": sorted(tracer.fired()), "missing": tracer.missing}


def sampler_rates(dists, blocks: int = 8, width: int = 8, reps: int = 3) -> dict[str, float]:
    """Draws per second of ``dists.sample_array`` for each law, on the block
    shape Monte Carlo uses (65536 rows), median of ``reps`` timings."""
    specs = {
        "rademacher": dists.rademacher(),
        "symExponential": dists.sym_exponential(),
        "gaussian": dists.gaussian(),
        "weibullTail": dists.weibull_tail(2.0),
    }
    rates = {}
    for i, (name, spec) in enumerate(specs.items()):
        times = []
        for r in range(reps):
            start = time.perf_counter()
            for b in range(blocks):
                dists.sample_array(spec, dists.substream(i, r * blocks + b), (1 << 16, width))
            times.append(time.perf_counter() - start)
        rates[name] = blocks * (1 << 16) * width / statistics.median(times)
    return rates


# --- modes ---------------------------------------------------------------------


def mode_setup() -> dict:
    _, cli, *_ = load_program()
    status, text = run_cli(cli, {"command": "moment", "coefficients": [1.0, 1.0, 1.0],
                                 "distribution": "rademacher", "p": [4.0]})
    # ||e1 + e2 + e3||_4 = (E S^4)^(1/4) = 21^(1/4)
    ok = status == 0 and math.isclose(json.loads(text)["value"], 21.0 ** 0.25, rel_tol=1e-12)
    return {"ok": ok, "ready": time.monotonic()}


def mode_cli_pass(fields: dict, trace: str | None) -> dict:
    momentbounds, cli, bounds, coeffs, dists = load_program()
    tracer = start_trace(momentbounds) if trace else None
    start = time.perf_counter()
    status, text = run_cli(cli, fields)
    pass_s = time.perf_counter() - start
    out = {"status": status, "output": text, "pass_s": pass_s, "peak_rss_mb": peak_rss_mb()}
    if tracer:
        import workloads

        out["trace"] = finish_trace(tracer, trace, dists, workloads.inconclusive(text))
    return out


def run_pass(execute, reqs) -> tuple[float, list]:
    """One closed-loop pass; per request (seconds, status, text or error)."""
    results = []
    start = time.perf_counter()
    for req in reqs:
        t0 = time.perf_counter()
        try:
            status, text = execute(req)
        except Exception as exc:  # an operation that fails is counted, not fatal
            status, text = None, f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter() - t0, status, text))
    return time.perf_counter() - start, results


def mode_exact(seed: int, seconds: float, trace: str | None) -> dict:
    momentbounds, cli, bounds, coeffs, dists = load_program()
    import workloads

    execute = make_executor(cli, bounds, coeffs, dists)
    reqs = workloads.exact_queries(seed)
    run_pass(execute, reqs)  # warm-up: lazy imports and first-touch pages
    passes, latencies, outputs = [], [], None
    attempted = failed = 0
    errors: list[str] = []
    unexpected: list[str] = []  # failed operations other than the scaled twins
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        pass_s, results = run_pass(execute, reqs)
        passes.append(pass_s)
        if outputs is None:
            outputs = results
        twin_ok = workloads.judge_twins(reqs, results)
        for i, (req, (lat, status, text)) in enumerate(zip(reqs, results)):
            attempted += 1
            ok = status == 0 and (req.twin is None or twin_ok[req.name])
            if not ok:
                failed += 1
                if req.twin is None:
                    unexpected.append(f"{req.name}: status {status}: {text[:200]}")
                continue
            latencies.append(lat * 1e3)
            if text != outputs[i][2]:
                errors.append(f"{req.name}: output differs between passes")
    rss = peak_rss_mb()
    errors += workloads.check_exact(reqs, outputs, execute)
    out = {"passes": passes, "latencies_ms": latencies, "attempted": attempted, "failed": failed,
           "errors": errors[:50], "unexpected_failures": unexpected[:50], "peak_rss_mb": rss,
           "twins": {r.name: t[2][:160] for r, t in zip(reqs, outputs) if r.twin}}
    if trace:
        tracer = start_trace(momentbounds)
        pass_s, results = run_pass(execute, reqs)
        out["traced_pass_s"] = pass_s
        out["trace"] = finish_trace(tracer, trace, dists, 0)
        if out["trace"]["metrics"].get("summoments.monteCarlo.calls", (0,))[0] != 0:
            out["errors"].append("exact-queries reached the Monte Carlo engine")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "cli-pass", "exact"))
    ap.add_argument("--job", type=json.loads, help="cli-pass: the job's CLI fields as JSON")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", help="write the traced pass's spans to this file")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        out = mode_setup()
    elif args.mode == "cli-pass":
        out = mode_cli_pass(args.job, args.trace)
    else:
        out = mode_exact(args.seed, args.seconds, args.trace)
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
