"""Every wrapper of the traced run fires on the workloads where it is
expected, so a renamed or deleted public function shows up as a missing
metric and not as 0.  Each case runs one traced pass in a worker process
(about 10-25 s each)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

CLI = {"cli.parse_job", "cli.run", "cli.emit"}
EXPECTED = {
    "verify-suite": CLI | {
        "dists.sample_array",
        "summoments.monte_carlo_sum_moment",
        "summoments.monte_carlo_sum_moments",
        "summoments.rademacher_sum_moment",
        "summoments.laplace_sum_moment_exact",
        "summoments.laplace_sum_moment_recursion",
        "bounds.gk_dual_norm",
        "bounds.khintchine_bounds",
        "bounds.rademacher_bounds",
        "bounds.exponential_bounds",
        "verify.reference_estimate",
        "verify.suite",
        *(f"verify.{fn}" for fn in tracer.SUITE_CHECK_FUNCTIONS.values()),
        "coeffs.rearrange",
    },
    "search": CLI | {
        "summoments.rademacher_sum_moment",
        "summoments.laplace_sum_moment_exact",
        "summoments.laplace_sum_moment_recursion",
        "verify.search_counterexamples",
        "coeffs.rearrange",
    },
    "exact-queries": CLI | {
        "summoments.rademacher_sum_moment",
        "summoments.laplace_sum_moment_exact",
        "summoments.laplace_sum_moment_recursion",
        "summoments.haagerup_moment",
        "summoments.gaussian_sum_norm",
        "quadrature.integrate_adaptive",
        "bounds.gk_dual_norm",
        *(f"bounds.{fn}" for fn in tracer.BOUND_EVALUATORS),
        "verify.reference_estimate",
        "coeffs.rearrange",
    },
}
# count metrics that must be positive where their layer does work
POSITIVE = {
    "verify-suite": ["dists.sample_array.weibullTail.draws", "summoments.monteCarlo.samples",
                     "summoments.enumeration.patterns", "verify.engine_attempts", "verify.inconclusive"],
    "search": ["summoments.enumeration.patterns", "verify.engine_attempts", "verify.engine_refusals"],
    "exact-queries": ["quadrature.evals", "summoments.enumeration.patterns", "summoments.enumeration.peak_alloc_mb",
                      "verify.engine_attempts", "verify.engine_refusals"],
}


def traced_pass(workload: str, tmp_path) -> dict:
    out = tmp_path / "trace.ndjson.gz"
    if workload == "exact-queries":
        args = ["exact", "--seed", "11", "--seconds", "0"]
    else:
        job = workloads.verify_job(11) if workload == "verify-suite" else workloads.search_job(11)
        args = ["cli-pass", "--job", json.dumps(job)]
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args, "--trace", str(out)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    assert out.is_file()
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_wrappers_fire_where_expected(workload, tmp_path):
    res = traced_pass(workload, tmp_path)
    trace = res["trace"]
    assert trace["missing"] == []
    assert EXPECTED[workload] <= set(trace["fired"]), EXPECTED[workload] - set(trace["fired"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    assert set(trace["metrics"]) == names
    for name in POSITIVE[workload]:
        assert trace["metrics"][name][0] > 0, name
    if workload == "exact-queries":
        assert "summoments.monte_carlo_sum_moments" not in trace["fired"]
        assert "dists.sample_array" not in trace["fired"]
        assert res["errors"] == [] and res["unexpected_failures"] == []


def test_missing_function_drops_its_metrics():
    class FakeModule:
        __name__ = "fakepkg"

    t = tracer.Tracer(FakeModule)  # no fakepkg.* modules: every source is missing
    assert set(t.missing) == set(tracer.METRIC_SOURCES)
    assert t.metrics() == {}
