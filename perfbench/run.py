"""The momentbounds benchmark.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  Each workload runs in processes of its own, one client in a
closed loop:

* ``verify-suite``  - one ``verify --seed S`` suite per fresh process,
                      repeated until ``--seconds`` have gone by;
* ``search``        - one ``search ... --iterations 10000 --seed S`` per
                      fresh process, likewise;
* ``exact-queries`` - one process: a warm-up pass over the request list,
                      then timed passes until ``--seconds`` have gone by.

Every output is checked (see ``workloads.py``).  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of one
extra traced pass with ``--trace 1``.  Raw results and the spans of traced
passes go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# set-up is sampled in fresh interpreters spread over the run (before every
# pass of verify-suite and search, before and after exact-queries), so its
# median sees the same drift in machine speed as pass_s does
SETUP_SAMPLES_EACH_SIDE = 3
MIN_CLI_PASSES = 3
RUN_BUDGET_S = 170.0  # every run ends within 180 s


class BenchmarkError(Exception):
    pass


def worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run one worker process to its end; returns its JSON line and the
    wall time from start to exit."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def setup_sample(deadline: float) -> float:
    """Time from starting an interpreter to ``import momentbounds`` plus one
    answered query.  The worker stamps the moment its answer is ready on the
    system-wide monotonic clock, so interpreter teardown is not counted."""
    start = time.monotonic()
    res, _ = worker(["setup"], deadline - time.perf_counter())
    if not res["ok"]:
        raise BenchmarkError("set-up query gave a wrong answer")
    return res["ready"] - start


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between observed
    values and never beyond them, however few there are."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_cli_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    check = workloads.check_suite if name == "verify-suite" else workloads.check_search
    fields = workloads.verify_job(seed) if name == "verify-suite" else workloads.search_job(seed)
    job = ["--job", json.dumps(fields)]
    passes, walls, rss, errors, setup = [], [], [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_CLI_PASSES or time.perf_counter() - start < seconds:
        if not trace:
            setup.append(setup_sample(deadline))
        res, wall = worker(["cli-pass", *job], deadline - time.perf_counter())
        passes.append(res["pass_s"])
        walls.append(wall)
        rss.append(res["peak_rss_mb"])
        errors += check(res["status"], res["output"], seed)
    if not trace:
        setup.append(setup_sample(deadline))
    out = {"attempted": len(passes), "failed": 0, "errors": errors, "passes": passes, "setup_s": setup,
           "latencies_ms": [w * 1e3 for w in walls], "peak_rss_mb": statistics.median(rss)}
    if trace:
        path = OUT / f"trace-{name}-{seed}.ndjson.gz"
        res, _ = worker(["cli-pass", *job, "--trace", str(path)], deadline - time.perf_counter())
        errors += check(res["status"], res["output"], seed)
        out["traced_pass_s"] = res["pass_s"]
        out["trace"] = res["trace"]
    return out


def run_exact(seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    args = ["exact", "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        args += ["--trace", str(OUT / f"trace-exact-queries-{seed}.ndjson.gz")]
    setup = [] if trace else [setup_sample(deadline) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    res, _ = worker(args, deadline - time.perf_counter())
    if not trace:
        setup += [setup_sample(deadline) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    return {**res, "setup_s": setup}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="momentbounds benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    if not (ROOT / "src" / "momentbounds" / "__init__.py").is_file():
        print(f"error: no momentbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload == "exact-queries":
            res = run_exact(args.seed, args.seconds, bool(args.trace), deadline)
        else:
            res = run_cli_workload(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    pass_s = statistics.median(res["passes"])
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["trace"]["metrics"].items()}
        metrics["trace.overhead_s"] = {"value": res["traced_pass_s"] - pass_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "query_p50_ms": {"value": quantile(res["latencies_ms"], 50), "unit": "ms"},
            "query_p95_ms": {"value": quantile(res["latencies_ms"], 95), "unit": "ms"},
        }
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    for err in res.get("unexpected_failures", ()):
        print(f"operation failed: {err}", file=sys.stderr)
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **res}
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw) + "\n")
    correct = not res["errors"] and not res.get("unexpected_failures")
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
