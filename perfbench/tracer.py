"""Tracing from outside the program: wraps the public functions of each
momentbounds module, keeps spans and counts in memory, and turns them into
the per-layer metrics at the end.

Every public function (the module's ``__all__``, plus ``cli.emit``) is
replaced by a wrapper in every momentbounds namespace that holds it, so a
``from .quadrature import integrate_adaptive`` in another module is traced
too.  A wrapper records one span: function, parent span, start and end
(``perf_counter_ns``) and the exception class if the call raised.  Self
time is the span's duration minus the durations of its traced children.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict

from workloads import LAWS, SEARCH_CHECKS, SUITE_CHECKS

LAYERS = ("cli", "verify", "bounds", "summoments", "dists", "quadrature", "coeffs")
EXTRA_PUBLIC = {"cli": ("emit",)}

# engine name -> the summoments functions that implement it
ENGINES = {
    "enumeration": ("rademacher_sum_moment",),
    "partialFractions": ("laplace_sum_moment_exact",),
    "recursion": ("laplace_sum_moment_recursion",),
    "haagerup": ("haagerup_moment",),
    "closedForm": ("gaussian_sum_norm",),
    "monteCarlo": ("monte_carlo_sum_moment", "monte_carlo_sum_moments"),
}
FALLBACK_ERRORS = ("EngineCapacityError", "DegenerateCoefficientsError", "ResidueCancellationError")
# suite check -> the verify function that runs it
SUITE_CHECK_FUNCTIONS = dict(zip(SUITE_CHECKS, (
    "check_cos_product",
    "check_comparison_chain",
    "check_p24_comparison",
    "check_bounds_sandwich",
    "check_gk_ratio",
)))
BOUND_EVALUATORS = (
    "khintchine_bounds",
    "comp2_bounds",
    "rademacher_bounds",
    "exponential_bounds",
    "logconcave_bounds",
    "gaussian_approx_gap",
)

# (qualified function name) -> metrics that read it; a function missing
# from the program drops exactly these metrics from the report
METRIC_SOURCES = {
    "dists.sample_array": [f"dists.sample_array.{law}.{k}" for law in LAWS for k in ("draws", "draws_per_s")],
    "summoments.monte_carlo_sum_moments": [
        "summoments.monteCarlo.calls",
        "summoments.monteCarlo.self_s",
        "summoments.monteCarlo.samples",
    ],
    "summoments.rademacher_sum_moment": [
        "summoments.enumeration.calls",
        "summoments.enumeration.self_s",
        "summoments.enumeration.patterns",
        "summoments.enumeration.peak_alloc_mb",
    ],
    **{
        f"summoments.{ENGINES[e][0]}": [f"summoments.{e}.calls", f"summoments.{e}.self_s"]
        for e in ("partialFractions", "recursion", "haagerup", "closedForm")
    },
    "quadrature.integrate_adaptive": [
        "quadrature.integrate_adaptive.calls",
        "quadrature.integrate_adaptive.self_s",
        "quadrature.evals",
    ],
    "bounds.gk_dual_norm": ["bounds.gk_dual_norm.calls", "bounds.gk_dual_norm.s"],
    **{f"bounds.{f}": ["bounds.evaluators.s"] for f in BOUND_EVALUATORS},
    "verify.reference_estimate": [
        "verify.reference_estimate.calls",
        "verify.engine_attempts",
        "verify.engine_refusals",
    ],
    **{f"verify.{fn}": [f"verify.{c}.s"] for c, fn in SUITE_CHECK_FUNCTIONS.items()},
    "verify.search_counterexamples": [f"verify.search.{c}.s" for c in SEARCH_CHECKS],
    "coeffs.rearrange": ["coeffs.rearrange.calls", "coeffs.rearrange.s"],
    "cli.run": ["cli.run.calls", "cli.run.self_s"],
    "cli.emit": ["cli.emit.s"],
}

NS = 1e-9


class Tracer:
    """Installs wrappers on construction; ``restore()`` puts the originals back."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []  # (id, parent, qualname, start_ns, end_ns, error, label)
        self.stack: list[list] = []  # [span id, child_ns, qualname]
        self.counts: dict[str, float] = defaultdict(float)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.label_ns: dict[tuple, int] = defaultdict(int)
        self.missing: list[str] = []
        self.alloc_sizes: set[int] = set()
        self._patched: list[tuple] = []
        self._engine_of = {f: e for e, fs in ENGINES.items() for f in fs}
        self._install()

    # -- installation ----------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items()) if m is not None and name.split(".")[0] == prefix]

    def _install(self):
        pkg = self.package.__name__
        originals = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{pkg}.{layer}")
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_PUBLIC.get(layer, ()))
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn):
                    originals[id(fn)] = (f"{layer}.{name}", fn)
        found = {q for q, _ in originals.values()}
        self.missing = [q for q in METRIC_SOURCES if q not in found]
        wrappers = {key: self._wrap(qual, fn) for key, (qual, fn) in originals.items()}
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and val is originals[id(val)][1]:
                    setattr(mod, attr, wrappers[id(val)])
                    self._patched.append((mod, attr, val))

    def restore(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, qual: str, fn):
        layer, name = qual.split(".", 1)
        engine = self._engine_of.get(name) if layer == "summoments" else None
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            label = None
            if qual == "quadrature.integrate_adaptive":
                integrand = args[0]

                def counted(x, _f=integrand):
                    tracer.counts["quadrature.evals"] += 1
                    return _f(x)

                args = (counted,) + args[1:]
            elif qual in ("dists.sample_array", "summoments.monte_carlo_sum_moments", "verify.search_counterexamples"):
                bound = sig.bind(*args, **kwargs).arguments
                if qual == "dists.sample_array":
                    label = bound["d"].kind
                    size = bound["size"]
                    draws = math.prod(size) if isinstance(size, tuple) else int(size)
                    tracer.counts[f"dists.sample_array.{label}.draws"] += draws
                elif qual == "verify.search_counterexamples":
                    label = bound["config"].check
                else:
                    tracer.counts["summoments.monteCarlo.samples"] += bound["samples"]
            # the arrays an enumeration allocates depend on n alone, so the
            # first call for each n is measured (tracemalloc is slow)
            trace_alloc = False
            if qual == "summoments.rademacher_sum_moment":
                n = len(args[0] if args else kwargs["v"])
                trace_alloc = n not in tracer.alloc_sizes and not tracemalloc.is_tracing()
                tracer.alloc_sizes.add(n)
            parent, _, parent_qual = tracer.stack[-1] if tracer.stack else (-1, 0, "")
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [span_id, 0, qual]
            tracer.stack.append(frame)
            error = None
            if trace_alloc:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                if trace_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = "summoments.enumeration.peak_alloc_mb"
                    tracer.counts[key] = max(tracer.counts[key], peak / 2**20)
                tracer.stack.pop()
                dur = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                tracer.spans[span_id] = (span_id, parent, qual, start, end, error, label)
                tracer.calls[qual] += 1
                tracer.total_ns[qual] += dur
                tracer.self_ns[qual] += dur - frame[1]
                if label is not None:
                    tracer.label_ns[(qual, label)] += dur
                if engine is not None:
                    if parent_qual.startswith("verify."):
                        tracer.counts["verify.engine_attempts"] += 1
                        if error in FALLBACK_ERRORS:
                            tracer.counts["verify.engine_refusals"] += 1
                    if qual == "summoments.rademacher_sum_moment" and error is None:
                        tracer.counts["summoments.enumeration.patterns"] += 2 ** (n - 1) if n else 0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  Metrics whose source
        function is missing from the program are left out."""
        s = lambda ns: ns * NS  # noqa: E731
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for law in LAWS:
            out[f"dists.sample_array.{law}.draws"] = (c[f"dists.sample_array.{law}.draws"], "count")
        for engine, fns in ENGINES.items():
            quals = [f"summoments.{f}" for f in fns]
            # a call to the single-p Monte Carlo entry point reaches the
            # multi-p one, so count the inner function only
            out[f"summoments.{engine}.calls"] = (self.calls[quals[-1]], "count")
            out[f"summoments.{engine}.self_s"] = (s(sum(self.self_ns[q] for q in quals)), "s")
        out["summoments.monteCarlo.samples"] = (c["summoments.monteCarlo.samples"], "count")
        out["summoments.enumeration.patterns"] = (c["summoments.enumeration.patterns"], "count")
        out["summoments.enumeration.peak_alloc_mb"] = (c["summoments.enumeration.peak_alloc_mb"], "MB")
        q = "quadrature.integrate_adaptive"
        out[f"{q}.calls"] = (self.calls[q], "count")
        out[f"{q}.self_s"] = (s(self.self_ns[q]), "s")
        out["quadrature.evals"] = (c["quadrature.evals"], "count")
        out["bounds.gk_dual_norm.calls"] = (self.calls["bounds.gk_dual_norm"], "count")
        out["bounds.gk_dual_norm.s"] = (s(self.total_ns["bounds.gk_dual_norm"]), "s")
        out["bounds.evaluators.s"] = (s(sum(self.total_ns[f"bounds.{f}"] for f in BOUND_EVALUATORS)), "s")
        out["verify.reference_estimate.calls"] = (self.calls["verify.reference_estimate"], "count")
        out["verify.engine_attempts"] = (c["verify.engine_attempts"], "count")
        out["verify.engine_refusals"] = (c["verify.engine_refusals"], "count")
        for check, fn in SUITE_CHECK_FUNCTIONS.items():
            out[f"verify.{check}.s"] = (s(self.total_ns[f"verify.{fn}"]), "s")
        for check in SEARCH_CHECKS:
            out[f"verify.search.{check}.s"] = (s(self.label_ns[("verify.search_counterexamples", check)]), "s")
        out["coeffs.rearrange.calls"] = (self.calls["coeffs.rearrange"], "count")
        out["coeffs.rearrange.s"] = (s(self.total_ns["coeffs.rearrange"]), "s")
        out["cli.run.calls"] = (self.calls["cli.run"], "count")
        out["cli.run.self_s"] = (s(self.self_ns["cli.run"]), "s")
        out["cli.emit.s"] = (s(self.total_ns["cli.emit"]), "s")
        for qual in self.missing:
            for name in METRIC_SOURCES[qual]:
                out.pop(name, None)
        return out

    def fired(self) -> set[str]:
        """Qualified names of the wrapped functions that were called."""
        return {q for q, n in self.calls.items() if n}

    def write(self, path) -> None:
        """Spans (one JSON array per line) and the aggregates, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"calls": self.calls, "self_ns": self.self_ns, "total_ns": self.total_ns,
                                 "counts": self.counts, "missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
