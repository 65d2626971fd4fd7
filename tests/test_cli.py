import contextlib
import csv
import io
import json
import math
import re
import warnings

import mpmath

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from momentbounds import cli, dists, summoments, verify
from momentbounds.coeffs import CoefficientVector
from momentbounds.errors import JobValidationError, QuadratureError
from momentbounds.summoments import MomentEstimate, Rigor


def invoke(argv, capsys):
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def records_of(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestValidation:
    def test_unknown_document_field_rejected(self):
        with pytest.raises(JobValidationError, match="frobnicate"):
            cli.parse_job({"command": "moment", "frobnicate": 1}, {})

    def test_field_path_in_diagnostic(self):
        with pytest.raises(JobValidationError, match=r"p\[1\]"):
            cli.parse_job(
                {"command": "moment", "coefficients": [1.0], "distribution": "rademacher",
                 "p": [2.0, 0.5]},
                {},
            )

    def test_missing_seed_for_stochastic(self, capsys):
        status, out, err = invoke(
            ["moment", "--coeffs", "1,2", "--dist", "weibullTail", "--alpha", "3", "--p", "3"],
            capsys,
        )
        assert status == cli.EXIT_USAGE
        assert "seed" in err
        assert out == ""  # reject before any execution

    def test_empty_coefficients_rejected(self):
        with pytest.raises(JobValidationError, match="coefficients"):
            cli.parse_job(
                {"command": "moment", "coefficients": [], "distribution": "rademacher", "p": [2]},
                {},
            )

    def test_flag_overrides_document(self):
        job = cli.parse_job(
            {"command": "moment", "coefficients": [1.0], "distribution": "rademacher", "p": [2.0]},
            {"p": [4.0]},
        )
        assert job.p == [4.0]

    def test_alpha_required_for_weibull(self):
        with pytest.raises(JobValidationError, match="alpha"):
            cli.parse_job(
                {"command": "moment", "coefficients": [1.0], "distribution": "weibullTail",
                 "p": [3.0], "seed": 1},
                {},
            )


# any JSON value, NaN and the infinities included (json.loads accepts them)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_NAMES = st.sampled_from(
    [*summoments.ENGINES, *verify.SUITE_CHECKS, *verify.SEARCH_CHECKS, *cli._COMMANDS, "x"]
)
# each field gets a value of its own shape or arbitrary JSON, so the draws
# reach every validation step, not only the first one that fails
_FIELD_VALUES = {
    "command": st.sampled_from(cli._COMMANDS),
    "coefficients": st.lists(st.floats(-3, 3), min_size=1, max_size=3),
    "distribution": st.sampled_from(["rademacher", "symExponential", "gaussian", "weibullTail"]),
    "alpha": st.floats(1, 3),
    "p": st.lists(st.floats(1, 8), min_size=1, max_size=3),
    "engine": st.lists(_NAMES, max_size=3),
    "samples": st.integers(10**4, 10**5),
    "seed": st.integers(0, 100),
    "format": st.sampled_from(["json", "csv"]),
    "checks": st.lists(_NAMES, max_size=3),
    "iterations": st.integers(1, 10),
    "nmax": st.integers(1, 30),
    "gk_band": st.lists(st.floats(0, 10), min_size=2, max_size=2),
}


@settings(max_examples=400, deadline=None)
@given(st.fixed_dictionaries({}, optional={k: v | _JSON for k, v in _FIELD_VALUES.items()}))
def test_parse_job_returns_a_job_or_a_field_error(doc):
    assert set(_FIELD_VALUES) == cli._JOB_FIELDS
    try:
        job = cli.parse_job(doc, {})
    except JobValidationError:
        return
    assert isinstance(job, cli.JobSpec)


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("engine", 5, "engine"),
        ("engine", [["x"]], "engine[0]"),
        ("engine", "haagerup", "engine"),
        ("engine", [], "engine"),
        ("checks", 5, "checks"),
        ("checks", [["x"]], "checks[0]"),
        ("checks", [], "checks"),
    ],
)
def test_engine_and_checks_are_nonempty_name_lists(field, value, path):
    doc = {"command": "verify", "seed": 1, field: value}
    with pytest.raises(JobValidationError) as caught:
        cli.parse_job(doc, {})
    assert caught.value.field == path


_BASE_JOB = {"command": "moment", "coefficients": [1.0, 2.0], "distribution": "rademacher",
             "p": [3.0]}


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"seed": True}, "seed"),
        ({"iterations": True}, "iterations"),
        ({"nmax": True}, "nmax"),
        ({"samples": True}, "samples"),
        ({"distribution": "weibullTail", "alpha": True, "seed": 1}, "alpha"),
        ({"p": [3.0, True]}, "p[1]"),
        ({"coefficients": [True]}, "coefficients[0]"),
        ({"command": "verify", "seed": 1, "gk_band": [True, 2.0]}, "gk_band"),
    ],
)
def test_booleans_are_not_numbers(fields, path, tmp_path, capsys):
    _assert_rejected_on(path, fields, tmp_path, capsys)


def _assert_rejected_on(path, fields, tmp_path, capsys):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({**_BASE_JOB, **fields}))
    status, out, err = invoke(["--job", str(doc)], capsys)
    assert status == cli.EXIT_USAGE
    assert err.startswith(f"error: {path}:")
    assert out == ""


_MOMENT_ARGV = ["moment", "--coeffs", "1,2", "--dist", "rademacher", "--p", "3"]


@pytest.mark.parametrize(
    "argv, path",
    [
        (["moment", "--coeffs", "1,2", "--dist", "foo", "--p", "3"], "distribution"),
        ([*_MOMENT_ARGV, "--format", "xml"], "format"),
        ([*_MOMENT_ARGV, "--samples", "x"], "samples"),
        ([*_MOMENT_ARGV, "--seed", "1.5"], "seed"),
        ([*_MOMENT_ARGV, "--seed", "-1"], "seed"),
        (["moment", "--coeffs", "1,2", "--dist", "weibullTail", "--alpha", "abc", "--p", "3"], "alpha"),
        (["foo", *_MOMENT_ARGV[1:]], "command"),
        # a law without a shape takes no alpha, the sweep's default exponential included
        (["moment", "--coeffs", "1,1", "--dist", "rademacher", "--alpha", "2", "--p", "3"], "alpha"),
        (["bounds", "--coeffs", "1,1", "--dist", "gaussian", "--alpha", "3", "--p", "3"], "alpha"),
        (["sweep", "--alpha", "2", "--seed", "1"], "alpha"),
        # verify and search run no one law and take neither law field, alpha named first
        (["verify", "--dist", "rademacher", "--alpha", "2", "--seed", "1"], "alpha"),
        (["verify", "--dist", "gaussian", "--seed", "1"], "distribution"),
        (["verify", "--alpha", "2", "--seed", "1"], "alpha"),
        (["search", "--dist", "rademacher", "--seed", "1"], "distribution"),
    ],
)
def test_bad_flag_values_are_rejected_on_their_field(argv, path, capsys):
    # the same checks as for a job document: exit 1 with the field, no usage text
    status, out, err = invoke(argv, capsys)
    assert status == cli.EXIT_USAGE
    assert err.startswith(f"error: {path}:")
    assert out == ""


def test_flag_values_parse_as_document_values(tmp_path, capsys):
    argv = ["--dist", "weibullTail", "--alpha", "2", "--samples", "10000", "--seed", "5", "--engine", "monteCarlo"]
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({**_BASE_JOB, "distribution": "weibullTail", "alpha": 2.0, "samples": 10000, "seed": 5,
                               "engine": ["monteCarlo"]}))
    by_flags = invoke(["moment", "--coeffs", "1,2", "--p", "3", *argv], capsys)
    assert by_flags[0] == cli.EXIT_OK
    assert by_flags == invoke(["--job", str(doc)], capsys)


_HUGE = 10**400  # a JSON integer no double holds


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"coefficients": [_HUGE, 1.0]}, "coefficients[0]"),
        ({"p": [3.0, _HUGE]}, "p[1]"),
        ({"distribution": "weibullTail", "alpha": _HUGE, "seed": 1}, "alpha"),
        ({"command": "verify", "seed": 1, "gk_band": [1.0, _HUGE]}, "gk_band"),
    ],
)
def test_integers_beyond_float_range_are_rejected(fields, path, tmp_path, capsys):
    _assert_rejected_on(path, fields, tmp_path, capsys)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_alpha_must_be_finite(alpha, tmp_path, capsys):
    _assert_rejected_on("alpha", {"distribution": "weibullTail", "alpha": alpha, "seed": 1}, tmp_path, capsys)


_THIRTY_ONES = ",".join(["1"] * 30)


class TestMissingSeedOnFallback:
    """Past the enumeration cap, at an order that the even-moment and
    characteristic-function engines refuse, the Rademacher ladder falls back
    to Monte Carlo, which must not run without the job's seed."""

    def test_moment_beyond_enumeration_cap(self, capsys):
        # charFunction takes Rademacher sums at p > 2 only
        argv = ["moment", "--coeffs", _THIRTY_ONES, "--dist", "rademacher", "--p", "1.5"]
        status, out, err = invoke(argv, capsys)
        assert status == cli.EXIT_USAGE
        assert err.startswith("error: seed:")
        assert out == ""
        status, out, _ = invoke(argv + ["--seed", "3", "--samples", "10000"], capsys)
        assert status == cli.EXIT_OK
        (rec,) = records_of(out)
        assert rec["method"] == "monteCarlo" and rec["seed"] == 3

    def test_bounds_head_beyond_enumeration_cap(self, capsys):
        # the logconc head at p = 29.5 is the 29 largest coefficients
        argv = ["bounds", "--coeffs", _THIRTY_ONES, "--dist", "rademacher", "--p", "29.5"]
        status, out, err = invoke(argv, capsys)
        assert status == cli.EXIT_USAGE
        assert err.startswith("error: seed:")
        assert out == ""

    def test_fractional_moment_beyond_enumeration_cap_needs_no_seed(self, capsys):
        argv = ["moment", "--coeffs", _THIRTY_ONES, "--dist", "rademacher", "--p", "3"]
        status, out, _ = invoke(argv, capsys)
        assert status == cli.EXIT_OK
        (rec,) = records_of(out)
        assert rec["method"] == "charFunction" and rec["rigor"] == "tolerance" and rec["seed"] is None

    def test_even_moment_beyond_enumeration_cap_is_exact(self, capsys):
        argv = ["moment", "--coeffs", _THIRTY_ONES, "--dist", "rademacher", "--p", "4"]
        status, out, _ = invoke(argv, capsys)
        assert status == cli.EXIT_OK
        (rec,) = records_of(out)
        assert rec["method"] == "evenMoments" and rec["rigor"] == "exact"
        assert rec["raw_moment"] == 2640.0 and rec["seed"] is None


class TestEngineFailureExitCodes:
    def test_quadrature_failure_exits_capacity(self, capsys, monkeypatch):
        # no input is known to defeat the Haagerup tail quadrature, so the
        # integrator fails here as a non-converging quadrature does
        def diverges(f, a, b, **_):
            raise QuadratureError(f"adaptive quadrature on [{a!r}, {b!r}] did not converge")

        monkeypatch.setattr(summoments, "integrate_adaptive", diverges)
        status, out, err = invoke(
            ["moment", "--coeffs", "0.8,0.7,0.5,0.4,0.2", "--dist", "rademacher", "--p", "2.5",
             "--engine", "haagerup"],
            capsys,
        )
        assert status == cli.EXIT_CAPACITY
        assert "quadrature" in err
        assert out == ""

    def test_haagerup_rademacher_tail_converges(self, capsys):
        argv = ["moment", "--coeffs", "0.8,0.7,0.5,0.4,0.2", "--dist", "rademacher", "--p", "2.5"]
        status, out, _ = invoke(argv + ["--engine", "haagerup,enumeration"], capsys)
        assert status == cli.EXIT_OK
        haagerup, exact = records_of(out)
        assert haagerup["method"] == "haagerup" and exact["method"] == "enumeration"
        assert haagerup["raw_moment"] == pytest.approx(exact["raw_moment"], rel=haagerup["epsilon"])

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "--dist", dist, "--p", "3"] for dist in ("symExponential", "rademacher", "gaussian")]
        + [["sweep", "--seed", "1"]],
    )
    def test_overflowing_bound_endpoint_exits_capacity(self, argv, capsys):
        # an upper endpoint of about 3e308 is past the float range
        status, out, err = invoke(argv + ["--coeffs", "1e308,1e308"], capsys)
        assert status == cli.EXIT_CAPACITY
        assert err.startswith("error: result out of float range") and "past the float range" in err
        assert out == ""

    def test_overflowing_moment_exits_capacity(self, capsys):
        # ||S||_5 is about 2e308, past the float range
        status, out, err = invoke(
            ["moment", "--coeffs", "1e308,1e308", "--dist", "gaussian", "--p", "5"], capsys
        )
        assert status == cli.EXIT_CAPACITY
        assert err.startswith("error: result out of float range")
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # log-gamma of the order overflows
            (["verify", "--seed", "1", "--checks", "comp2"], "result out of float range: the comp2 check at p=1e+308: "),
            (["bounds", "--coeffs", "1,2", "--dist", "rademacher"], "result out of float range: the bounds command at p=1e+308: "),
            (["sweep", "--seed", "1"], "result out of float range: the sweep command at p=1e+308: "),
            # |S|^p of the samples overflows with no numpy warning; the record refuses it
            (
                ["verify", "--seed", "1", "--checks", "sandwich"],
                "the sandwich check at p=1e+308: monteCarlo's moment of the unit-scale sum, inf, ",
            ),
            # |S|^p of the samples underflows to 0; the record refuses it
            (
                ["verify", "--seed", "1", "--checks", "extremality"],
                "the extremality check at p=1e+308: monteCarlo's moment of the unit-scale sum, 0.0, ",
            ),
            (
                ["moment", "--coeffs", "1,2", "--dist", "gaussian"],
                "result out of float range: the moment command at p=1e+308: ",
            ),
            # e p of the unit-scale split leaves the float range; Monte Carlo refuses its ci
            (
                ["moment", "--coeffs", "3,3", "--dist", "rademacher", "--seed", "1"],
                "the moment command at p=1e+308: monteCarlo's ci at p=1e+308 lies outside the normal float range",
            ),
        ],
        ids=["verify", "bounds", "sweep", "monteCarlo", "extremality", "moment", "moment-scale-split"],
    )
    def test_order_past_the_float_range_is_named(self, argv, message, capsys):
        status, out, err = invoke(argv + ["--p", "1e308"], capsys)
        assert status == cli.EXIT_CAPACITY
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.filterwarnings("error")
    def test_overflow_warning_stays_off_stderr(self, capsys):
        # E|S|^p = 2^1e6 / 2 is past the float range, its root 2^(1 - 1e-6) is not
        status, out, err = invoke(["moment", "--coeffs", "1,1", "--dist", "rademacher", "--p", "1e6"], capsys)
        assert status == cli.EXIT_OK and err == ""
        (rec,) = records_of(out)
        assert rec["raw_moment"] is None and rec["rigor"] == "exact"
        assert rec["value"] == pytest.approx(2.0 ** (1.0 - 1e-6), rel=1e-15)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unrenderable_record_exits_capacity(self, fmt, capsys):
        # the norm sqrt(2) 1.5e308 overflows, which neither format carries
        status, out, err = invoke(
            ["moment", "--coeffs", "1.5e308,1.5e308", "--dist", "rademacher", "--p", "2", "--format", fmt], capsys
        )
        assert status == cli.EXIT_CAPACITY
        assert "float range" in err
        assert out == ""


class TestMomentCommand:
    def test_enumeration_record(self, capsys):
        status, out, _ = invoke(
            ["moment", "--coeffs", "1,1,1", "--dist", "rademacher", "--p", "3"], capsys
        )
        assert status == cli.EXIT_OK
        (rec,) = records_of(out)
        assert rec["raw_moment"] == 7.5
        assert rec["method"] == "enumeration"
        assert rec["rigor"] == "exact"
        assert rec["command"] == "moment" and rec["version"]

    def test_even_moments_record(self, capsys):
        status, out, _ = invoke(
            ["moment", "--coeffs", "1,1,1", "--dist", "rademacher", "--p", "4"], capsys
        )
        assert status == cli.EXIT_OK
        (rec,) = records_of(out)
        assert rec["raw_moment"] == 21.0
        assert rec["method"] == "evenMoments"
        assert rec["rigor"] == "exact"

    def test_char_function_record_needs_no_seed(self, capsys):
        status, out, _ = invoke(
            ["moment", "--coeffs", "1,2", "--dist", "weibullTail", "--alpha", "2", "--p", "3"], capsys
        )
        assert status == cli.EXIT_OK
        (rec,) = records_of(out)
        assert rec["method"] == "charFunction" and rec["rigor"] == "tolerance"
        assert 0 < rec["epsilon"] <= dists.CHAR_FUNCTION_TOLERANCE
        assert rec["seed"] is None

    def test_even_gaussian_moment_is_exact(self, capsys):
        status, out, _ = invoke(
            ["moment", "--coeffs", "2", "--dist", "gaussian", "--p", "2", "--engine", "evenMoments"], capsys
        )
        assert status == cli.EXIT_OK
        (rec,) = records_of(out)
        assert rec["raw_moment"] == 4.0 and rec["rigor"] == "exact"

    def test_capacity_exit_code(self, capsys):
        coeffs = ",".join(["1"] * 30)
        status, out, err = invoke(
            ["moment", "--coeffs", coeffs, "--dist", "rademacher", "--p", "2",
             "--engine", "enumeration"],
            capsys,
        )
        assert status == cli.EXIT_CAPACITY
        assert "enumeration" in err

    def test_one_record_per_requested_engine(self, capsys):
        status, out, _ = invoke(
            ["moment", "--coeffs", "2,1", "--dist", "symExponential", "--p", "3",
             "--engine", "partialFractions,recursion,haagerup"],
            capsys,
        )
        assert status == cli.EXIT_OK
        recs = records_of(out)
        assert [r["method"] for r in recs] == ["partialFractions", "recursion", "haagerup"]
        vals = [r["raw_moment"] for r in recs]
        assert max(vals) - min(vals) <= 1e-6 * max(vals)

    def test_pinned_engine_domain_error_names_its_order(self, capsys):
        status, out, err = invoke(
            ["moment", "--coeffs", "1,1", "--dist", "symExponential", "--p", "3,5", "--engine", "haagerup"], capsys
        )
        assert status == cli.EXIT_USAGE
        assert err.startswith("error: p[1]: the Haagerup representation requires 2 < p < 4")
        assert out == ""

    def test_degeneracy_without_fallback(self, capsys):
        status, _, err = invoke(
            ["moment", "--coeffs", "1,1", "--dist", "symExponential", "--p", "3",
             "--engine", "partialFractions"],
            capsys,
        )
        assert status == cli.EXIT_CAPACITY
        assert "charFunction" in err

    def test_incompatible_engine_rejected(self, capsys):
        status, _, err = invoke(
            ["moment", "--coeffs", "1,2", "--dist", "symExponential", "--p", "3",
             "--engine", "enumeration"],
            capsys,
        )
        assert status == cli.EXIT_USAGE
        assert "engine[0]" in err


class TestEngineRegistry:
    def test_every_engine_is_accepted(self):
        for name, engine in summoments.ENGINES.items():
            rigor = Rigor.exact() if engine.exact else Rigor.tolerance(1e-6)
            assert MomentEstimate.scaled(3.0, 1.0, 1, name, rigor).method == name
            if not engine.exact:
                with pytest.raises(ValueError, match="cannot claim exact"):
                    MomentEstimate.scaled(3.0, 1.0, 1, name, Rigor.exact())
            for law in engine.laws:
                doc = {"command": "moment", "coefficients": [1.0], "distribution": law,
                       "p": [3.0], "engine": [name], "seed": 1}
                if law == "weibullTail":
                    doc["alpha"] = 2.0
                assert cli.parse_job(doc, {}).engine == [name]

    def test_weibull_alpha_one_is_the_exponential(self, capsys):
        # same engines, values and bound sources, and no seed needed: only
        # the job fields differ.  [1, 1] at p = 20.5 is past charFunction's
        # cancellation floor, so the recursion answers it
        skip = ("digest", "distribution", "alpha")
        for command, coeffs, p in (("moment", "2,1,1,0.5", "3,4"), ("bounds", "2,1,1,0.5", "3,4"),
                                   ("moment", "1,1", "20.5")):
            got = []
            for dist in (["symExponential"], ["weibullTail", "--alpha", "1"]):
                argv = [command, "--coeffs", coeffs, "--p", p, "--dist", *dist]
                status, out, _ = invoke(argv, capsys)
                assert status == cli.EXIT_OK
                got.append([{k: v for k, v in r.items() if k not in skip} for r in records_of(out)])
            assert got[0] == got[1]
        assert [(r["method"], r["rigor"]) for r in got[0]] == [("recursion", "tolerance")]
        # pinned engines get the exponential's bits too
        for engine, p in (("evenMoments", "4"), ("charFunction", "3")):
            got = []
            for dist in (["symExponential"], ["weibullTail", "--alpha", "1"]):
                argv = ["moment", "--coeffs", "2,1,1,0.5", "--p", p, "--dist", *dist, "--engine", engine]
                status, out, _ = invoke(argv, capsys)
                assert status == cli.EXIT_OK
                (rec,) = records_of(out)
                got.append((rec["method"], rec["raw_moment"], rec["rigor"]))
            assert got[0] == got[1] and got[0][0] == engine

    @pytest.mark.parametrize(
        "dist, sources",
        [
            (["rademacher"], ["khintchine", "comp2", "estrad", "logconc", "gaussGap"]),
            (["symExponential"], ["estexp", "logconc", "gaussGap"]),
            (["gaussian"], ["logconc", "gaussGap"]),
            (["weibullTail", "--alpha", "2", "--seed", "5", "--samples", "10000"], ["logconc", "gaussGap"]),
        ],
    )
    def test_bounds_sources_in_order(self, dist, sources, capsys):
        argv = ["bounds", "--coeffs", "1,0.5,0.25,0.125", "--p", "2,4", "--dist", *dist]
        status, out, _ = invoke(argv, capsys)
        assert status == cli.EXIT_OK
        recs = records_of(out)
        assert [r["source"] for r in recs if r["p"] == 4.0] == sources
        # logconc and gaussGap need p >= 3
        assert [r["source"] for r in recs if r["p"] == 2.0] == sources[:-2]


class TestBoundsCommand:
    def test_estexp_interval(self, capsys):
        status, out, _ = invoke(
            ["bounds", "--coeffs", "1,1", "--dist", "symExponential", "--p", "4"], capsys
        )
        assert status == cli.EXIT_OK
        recs = records_of(out)
        est = next(r for r in recs if r["source"] == "estexp")
        assert est["lower"] == pytest.approx(1.8612, abs=1e-4)
        assert est["upper"] == pytest.approx(5.8612, abs=1e-4)


class TestNoUsableOrder:
    """bounds and sweep refuse a p grid on which they would print no record."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bounds", "--coeffs", "1,2", "--dist", "rademacher", "--p", "1"],
             "bounds of rademacher sums need p >= 2, got [1.0]"),
            (["bounds", "--coeffs", "1,2", "--dist", "gaussian", "--p", "1.5,2"],
             "bounds of gaussian sums need p >= 3, got [1.5, 2.0]"),
            (["bounds", "--coeffs", "1,2", "--dist", "weibullTail", "--alpha", "2", "--p", "2.5"],
             "bounds of weibullTail sums need p >= 3, got [2.5]"),
            (["sweep", "--seed", "1", "--p", "1.5", "--dist", "rademacher"],
             "sweep rows of rademacher sums need p >= 2, got [1.5]"),
            (["sweep", "--seed", "1", "--p", "2.5", "--dist", "weibullTail", "--alpha", "3"],
             "sweep rows of weibullTail sums need p >= 3, got [2.5]"),
        ],
    )
    def test_refused_on_p_naming_the_lowest_order(self, argv, message, fmt, capsys):
        status, out, err = invoke([*argv, "--format", fmt], capsys)
        assert status == cli.EXIT_USAGE
        assert err == f"error: p: {message}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv, orders",
        [
            # Weibull alpha = 1 is the two-sided exponential: bounds and rows from p = 2
            (["bounds", "--coeffs", "1,2", "--dist", "weibullTail", "--alpha", "1", "--p", "1.5,2"], {2.0}),
            (["sweep", "--seed", "1", "--p", "1.5,2", "--dist", "weibullTail", "--alpha", "1"], {2.0}),
            (["bounds", "--coeffs", "1,2", "--dist", "gaussian", "--p", "2,3"], {3.0}),
        ],
    )
    def test_orders_from_the_lowest_are_kept(self, argv, orders, capsys):
        status, out, _ = invoke(argv, capsys)
        assert status == cli.EXIT_OK
        assert {r["p"] for r in records_of(out)} == orders


class TestTinyScales:
    """The l2 norm of tiny coefficients squares nothing that underflows."""

    def test_bounds_contain_the_norm(self, capsys):
        status, out, _ = invoke(
            ["bounds", "--coeffs", "1e-200,1e-200", "--dist", "rademacher", "--p", "4"], capsys
        )
        assert status == cli.EXIT_OK
        norm = 8 ** 0.25 * 1e-200  # E S^4 = 8e-800 for S = 1e-200 (eps_1 + eps_2)
        recs = {r["source"]: r for r in records_of(out)}
        for source in ("khintchine", "comp2", "estrad", "gaussGap"):
            assert recs[source]["lower"] <= norm <= recs[source]["upper"], source

    def test_gaussian_moment_refuses_a_wrong_exact_value(self, capsys):
        # the norm 5e-160 is exact; its square lies below the normal range,
        # so the record carries no raw moment rather than a wrong one
        status, out, err = invoke(
            ["moment", "--coeffs", "3e-160,4e-160", "--dist", "gaussian", "--p", "2"], capsys
        )
        assert status == cli.EXIT_OK and err == ""
        (rec,) = records_of(out)
        assert rec["raw_moment"] is None and rec["rigor"] == "exact"
        assert rec["value"] == pytest.approx(5e-160, rel=1e-15)


class TestScaleRule:
    """Every engine runs on the unit-scale vector: a norm is printed at any
    scale it can take, whether or not its raw moment can be."""

    @staticmethod
    def laplace_pair_norm(a, b, p):
        # E|a E1 + b E2|^p from the density of the sum: for distinct a, b the
        # partial fractions, for a = b (a/sqrt2)^p Gamma(p+1) (p+2)/2
        a, b, p = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(p)
        s, t = a / mpmath.sqrt(2), b / mpmath.sqrt(2)
        if a == b:
            raw = s**p * mpmath.gamma(p + 1) * (p + 2) / 2
        else:
            raw = mpmath.gamma(p + 1) * (a**2 * s**p - b**2 * t**p) / (a**2 - b**2)
        return float(raw ** (1 / p))

    @pytest.mark.parametrize(
        "coeffs, dist, p, unit",
        [
            ("1e-200,1e-200", ["rademacher"], "4", lambda: 8.0**0.25),
            ("1e200,1e200", ["symExponential"], "8", lambda: TestScaleRule.laplace_pair_norm(1, 1, 8)),
            ("1e-200,3e-200", ["symExponential"], "3.5", lambda: TestScaleRule.laplace_pair_norm(3, 1, 3.5)),
            ("1e-100,3e-100", ["symExponential"], "8", lambda: TestScaleRule.laplace_pair_norm(3, 1, 8)),
            ("1e-100,2e-100,1e-100", ["gaussian"], "5", lambda: dists.gamma_p(5.0) * math.sqrt(6.0)),
            ("1e-160,1e-160", ["weibullTail", "--alpha", "2"], "3",
             lambda: oracles.weibull2_pair_moment(1.0, 1.0, 3.0, dists.weibull_tail(2.0).scale) ** (1 / 3)),
            ("1,1", ["rademacher"], "1e6", lambda: 2.0 ** (1.0 - 1e-6)),
        ],
    )
    def test_norm_at_every_scale(self, coeffs, dist, p, unit, capsys):
        status, out, err = invoke(["moment", "--coeffs", coeffs, "--dist", *dist, "--p", p], capsys)
        assert status == cli.EXIT_OK and err == ""
        (rec,) = records_of(out)
        scale = abs(float(coeffs.split(",")[0]))
        eps = rec["epsilon"] if rec["rigor"] == "tolerance" else 0.0
        assert rec["value"] == pytest.approx(scale * unit(), rel=eps + 1e-14)

    def test_logconc_interval_contains_the_norm(self, capsys):
        status, out, err = invoke(["bounds", "--coeffs", "1e-200,1e-200", "--dist", "rademacher", "--p", "4"], capsys)
        assert status == cli.EXIT_OK and err == ""
        (logconc,) = [r for r in records_of(out) if r["source"] == "logconc"]
        norm = 8.0**0.25 * 1e-200
        assert logconc["lower"] <= norm * (1 + 1e-15) and norm <= logconc["upper"]


_FIELD_ERROR = re.compile(r"error: [a-z_]+(\[\d+\])?: ")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["moment", "bounds"]),
    st.one_of(
        st.sampled_from([["rademacher"], ["symExponential"], ["gaussian"]]),
        st.sampled_from(["1", "1.5", "2", "3"]).map(lambda alpha: ["weibullTail", "--alpha", alpha]),
    ),
    st.lists(
        st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300)), min_size=1, max_size=5
    ),
    st.integers(0, 3),
    st.one_of(st.floats(1.0, 64.0), st.integers(1, 32).map(lambda k: 2.0 * k)),
    st.one_of(st.none(), st.integers(0, 2**31)),
)
def test_cli_fuzz_ends_in_a_record_or_a_diagnostic(command, dist, coeffs, repeats, p, seed):
    # repeated entries: the first few again
    coeffs = coeffs + coeffs[:repeats]
    argv = [command, "--coeffs=" + ",".join(map(repr, coeffs)), "--dist", *dist, "--p", repr(p), "--samples", "10000"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    assert not caught, [str(w.message) for w in caught]
    err = err.getvalue()
    assert status in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_CAPACITY, cli.EXIT_VIOLATION), err
    assert "Traceback" not in err and "Warning" not in err
    if status == cli.EXIT_USAGE:
        assert _FIELD_ERROR.match(err), err
    if status == cli.EXIT_OK:
        for rec in records_of(out.getvalue()):
            if command == "moment":
                assert math.isfinite(rec["value"]) and (rec["value"] > 0) == any(coeffs)
            else:
                assert 0.0 <= rec["lower"] <= rec["upper"] < math.inf


class TestVerifyCommand:
    def test_exit_zero_and_reports(self, capsys):
        status, out, _ = invoke(
            ["verify", "--seed", "42", "--checks", "comp2,p24", "--samples", "20000"], capsys
        )
        assert status == cli.EXIT_OK
        recs = records_of(out)
        assert {r["check"] for r in recs} == {"comp2", "p24"}
        assert all(r["violations"] == 0 for r in recs)

    def test_byte_identical_reruns(self, capsys):
        argv = ["verify", "--seed", "42", "--checks", "cos_product,p24", "--samples", "20000"]
        _, out1, _ = invoke(argv, capsys)
        _, out2, _ = invoke(argv, capsys)
        assert out1 == out2

    def test_violation_exit_code(self, capsys):
        # an absurdly narrow ratio band makes gk_ratio genuinely fail
        status, out, _ = invoke(
            ["verify", "--seed", "1", "--checks", "gk_ratio", "--samples", "20000",
             "--gk-band", "5,6"],
            capsys,
        )
        assert status == cli.EXIT_VIOLATION
        (rec,) = records_of(out)
        assert rec["violations"] > 0

    def test_gk_band_validation(self):
        with pytest.raises(JobValidationError, match="gk_band"):
            cli.parse_job({"command": "verify", "seed": 1, "gk_band": [5.0, 2.0]}, {})

    def test_search_check_mismatch(self, capsys):
        status, _, err = invoke(
            ["verify", "--seed", "1", "--checks", "rec2"], capsys
        )
        assert status == cli.EXIT_USAGE
        assert "checks" in err

    @pytest.mark.parametrize(
        "argv", [["verify", "--checks", "p24,rec2"], ["search", "--checks", "rec2,sandwich"]], ids=["verify", "search"]
    )
    def test_checks_of_another_command_are_rejected(self, argv, capsys):
        # each command takes only the checks it runs, not the union
        status, out, err = invoke([*argv, "--seed", "1"], capsys)
        assert status == cli.EXIT_USAGE
        assert err.startswith("error: checks[1]: must be one of")
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--p", "5", "--checks", "p24"], "p24 needs p in [2, 4], got [5.0]"),
            (["--p", "1.5", "--checks", "comp2", "--format", "csv"], "comp2 needs p in [2, inf], got [1.5]"),
            (["--p", "2.5"], "extremality needs p in [3, inf], got [2.5]"),
        ],
    )
    def test_check_without_orders_is_rejected_on_p(self, argv, message, capsys):
        # a check with no order in its range would run no case and report
        # worst_margin inf, which neither format carries
        status, out, err = invoke(["verify", "--seed", "1", *argv], capsys)
        assert status == cli.EXIT_USAGE
        assert err == f"error: p: {message}\n"
        assert out == ""


class TestSearchCommand:
    def test_emits_witness(self, capsys):
        status, out, _ = invoke(
            ["search", "--checks", "rec2", "--iterations", "200", "--seed", "3"], capsys
        )
        assert status == cli.EXIT_OK
        (rec,) = records_of(out)
        assert rec["violations"] == 0
        assert isinstance(rec["witness"], list)

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--checks", "comp2", "--nmax", str(summoments.ENUMERATION_CAP + 1)], "nmax"),
            (["--nmax", "40"], "nmax"),
            (["--checks", "comp2", "--p", "1.5"], "p"),
            (["--checks", "p24", "--p", "5,6"], "p"),
            (["--checks", "rec2,cos_product", "--p", "2.5"], "p"),
        ],
    )
    def test_rejected_before_searching(self, argv, field, capsys):
        status, out, err = invoke(["search", *argv, "--iterations", "400", "--seed", "1"], capsys)
        assert status == cli.EXIT_USAGE
        assert err.startswith(f"error: {field}:")
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # log-gamma of the order overflows
            (["comp2", "--p", "1e308", "--iterations", "10"], "the comp2 search at p=1e+308: math range error"),
            # |b|^p overflows; the message after the order is the C library's
            (["rec2", "--p", "1e6", "--iterations", "10"], "the rec2 search at p=1000000.0: "),
            # chains at p = 3 score in the same calls and do not overflow
            (["rec2", "--p", "3,1e6", "--iterations", "100"], "the rec2 search at p=1000000.0: "),
            # the enumeration moment of the unit-scale sum leaves the float range
            (["comp2", "--nmax", "12", "--iterations", "2000", "--p", "500"], "the comp2 search at p=500.0: "),
            (["comp2", "--nmax", "12", "--iterations", "2000", "--p", "3,700"], "the comp2 search at p=700.0: "),
        ],
        ids=["comp2", "rec2", "rec2-mixed-orders", "comp2-moment", "comp2-moment-mixed-orders"],
    )
    def test_order_past_the_float_range_names_check_and_order(self, argv, message, capsys):
        status, out, err = invoke(["search", "--seed", "1", "--checks", *argv], capsys)
        assert status == cli.EXIT_CAPACITY
        assert err.startswith(f"error: result out of float range: {message}")
        assert out == ""

    def test_checks_without_enumeration_or_order_take_any(self, capsys):
        argv = ["search", "--checks", "cos_product", "--nmax", "40", "--p", "1.5", "--iterations", "30", "--seed", "1"]
        status, out, _ = invoke(argv, capsys)
        assert status == cli.EXIT_OK
        assert len(records_of(out)[0]["witness"]) <= 40

    def test_witness_p_field(self, capsys):
        argv = ["search", "--checks", "cos_product,p24", "--iterations", "30", "--seed", "3"]
        status, out, _ = invoke(argv, capsys)
        assert status == cli.EXIT_OK
        cos, p24 = records_of(out)
        assert cos["witness_p"] is None and p24["witness_p"] in (2.5, 3.0, 4.0)
        status, out, _ = invoke(argv + ["--format", "csv"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["witness_p"] for r in rows] == ["", repr(p24["witness_p"])]


class TestOutputFormats:
    def test_csv_json_numeric_identity(self, capsys):
        base = ["moment", "--coeffs", "1,2,0.5", "--dist", "symExponential", "--p", "2.5,3"]
        _, out_json, _ = invoke(base + ["--format", "json"], capsys)
        _, out_csv, _ = invoke(base + ["--format", "csv"], capsys)
        jrecs = records_of(out_json)
        rows = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(rows) == len(jrecs)
        for j, c in zip(jrecs, rows):
            for key in ("raw_moment", "value", "p"):
                assert float(c[key]) == j[key]
                # shortest round-trip rendering is identical in both formats
                assert c[key] == repr(j[key])

    def test_identical_invocations_byte_identical(self, capsys):
        argv = ["bounds", "--coeffs", "1,2", "--dist", "rademacher", "--p", "3,4"]
        _, a, _ = invoke(argv, capsys)
        _, b, _ = invoke(argv, capsys)
        assert a == b

    def test_sweep_coeffs_is_one_case(self, capsys):
        # given coefficients are case 1: one row per order, labelled with the
        # first family and the vector's length, the reference at seed + 1
        # (Monte Carlo for this Weibull law at these orders)
        status, out, _ = invoke(
            ["sweep", "--seed", "2", "--coeffs", "1,0.5,0.25", "--dist", "weibullTail", "--alpha", "1.5",
             "--p", "3,3.5", "--samples", "20000"],
            capsys,
        )
        assert status == cli.EXIT_OK
        rows = records_of(out)
        assert [(r["family"], r["n"], r["p"]) for r in rows] == [("uniform", 3, 3.0), ("uniform", 3, 3.5)]
        v, d = CoefficientVector([1.0, 0.5, 0.25]), dists.weibull_tail(1.5)
        refs = [verify.reference_estimate(v, d, p, samples=20_000, seed=3) for p in (3.0, 3.5)]
        assert [r["method"] for r in rows] == [e.method for e in refs] == ["monteCarlo"] * 2
        assert [r["value"] for r in rows] == [e.value for e in refs]

    def test_sweep_csv_has_bound_columns(self, capsys):
        status, out, _ = invoke(
            ["sweep", "--seed", "7", "--dist", "symExponential", "--p", "3",
             "--samples", "20000", "--format", "csv"],
            capsys,
        )
        assert status == cli.EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        for row in rows:
            lo, hi = float(row["estexp_lower"]), float(row["estexp_upper"])
            assert lo <= float(row["value"]) <= hi

    ENVELOPE = ["command", "digest", "seed", "version"]

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (
                ["moment", "--coeffs", "1,0.5", "--dist", "rademacher", "--p", "3"],
                ["coefficients", "distribution", "alpha", "p", "method", "raw_moment", "value", "rigor",
                 "epsilon", "halfwidth", "confidence"],
            ),
            (
                ["bounds", "--coeffs", "1,0.5", "--dist", "rademacher", "--p", "3"],
                ["coefficients", "distribution", "alpha", "p", "source", "lower", "upper"],
            ),
            (
                ["verify", "--seed", "1", "--checks", "p24", "--p", "3", "--samples", "10000"],
                ["check", "cases", "violations", "worst_margin", "ci_resolved", "inconclusive"],
            ),
            (
                ["sweep", "--seed", "1", "--coeffs", "1,0.5", "--dist", "gaussian", "--p", "3"],
                ["family", "n", "distribution", "alpha", "p", "method", "value",
                 "khintchine_lower", "khintchine_upper", "comp2_lower", "comp2_upper",
                 "estrad_lower", "estrad_upper", "estexp_lower", "estexp_upper",
                 "logconc_lower", "logconc_upper", "gaussGap_lower", "gaussGap_upper"],
            ),
            (
                ["search", "--seed", "1", "--checks", "rec2", "--iterations", "10"],
                ["check", "iterations", "cases", "violations", "min_margin", "witness", "witness_p"],
            ),
        ],
        ids=["moment", "bounds", "verify", "sweep", "search"],
    )
    def test_csv_header_is_each_commands_record_fields(self, argv, fields, capsys):
        status, out, _ = invoke(argv + ["--format", "csv"], capsys)
        assert status == cli.EXIT_OK
        assert out.splitlines()[0] == ",".join(self.ENVELOPE + fields)
        _, out, _ = invoke(argv, capsys)
        assert all(list(r) == self.ENVELOPE + fields for r in records_of(out))

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "records.jsonl"
        status, out, _ = invoke(
            ["moment", "--coeffs", "1", "--dist", "gaussian", "--p", "2", "--out", str(target)],
            capsys,
        )
        assert status == cli.EXIT_OK
        assert out == ""
        rec = json.loads(target.read_text().strip())
        assert rec["value"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_out_is_rejected_on_out(self, where, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "x" if where == "missing" else tmp_path
        status, out, err = invoke(
            ["moment", "--coeffs", "1", "--dist", "rademacher", "--p", "3", "--out", str(target)],
            capsys,
        )
        assert status == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: out: ")


class TestJobDocument:
    def test_document_from_file(self, tmp_path, capsys):
        doc = {
            "command": "moment",
            "coefficients": [1.0, 1.0, 1.0],
            "distribution": "rademacher",
            "p": [4.0],
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        status, out, _ = invoke(["--job", str(path)], capsys)
        assert status == cli.EXIT_OK
        (rec,) = records_of(out)
        assert rec["raw_moment"] == 21.0

    def test_non_utf8_document_is_rejected_on_job(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_bytes(b'{"command": "moment", "distribution": "\xff"}')
        status, out, err = invoke(["--job", str(path)], capsys)
        assert status == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: job: ")

    def test_digest_stable_across_formats(self, capsys):
        argv = ["moment", "--coeffs", "1,1", "--dist", "rademacher", "--p", "2"]
        _, out_json, _ = invoke(argv + ["--format", "json"], capsys)
        _, out_csv, _ = invoke(argv + ["--format", "csv"], capsys)
        j = records_of(out_json)[0]["digest"]
        c = list(csv.DictReader(io.StringIO(out_csv)))[0]["digest"]
        assert j == c
