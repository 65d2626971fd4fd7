import csv
import io
import json
import math

import pytest

from momentbounds import cli, summoments
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
            ["moment", "--coeffs", "1,2", "--dist", "weibullTail", "--alpha", "2", "--p", "3"],
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
    """Past the enumeration cap, at an order the even-moment engine refuses,
    the Rademacher ladder falls back to Monte Carlo, which must not run
    without the job's seed."""

    def test_moment_beyond_enumeration_cap(self, capsys):
        argv = ["moment", "--coeffs", _THIRTY_ONES, "--dist", "rademacher", "--p", "3"]
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
        # integrator fails here as QUADPACK does
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

    def test_overflowing_moment_exits_capacity(self, capsys):
        # ||S||_5 is about 4e100, so its fifth power leaves the float range
        status, out, err = invoke(
            ["moment", "--coeffs", "1e100,2e100", "--dist", "gaussian", "--p", "5"], capsys
        )
        assert status == cli.EXIT_CAPACITY
        assert err.startswith("error: result out of float range")
        assert out == ""

    @pytest.mark.filterwarnings("error")
    def test_overflow_warning_stays_off_stderr(self, capsys):
        status, out, err = invoke(["moment", "--coeffs", "1,1", "--dist", "rademacher", "--p", "1e6"], capsys)
        assert status == cli.EXIT_CAPACITY
        assert err.startswith("error: cannot render the result") and "Warning" not in err
        assert out == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unrenderable_record_exits_capacity(self, fmt, capsys):
        # the raw moment 2^1e6 / 2 overflows to inf, which neither format carries
        status, out, err = invoke(
            ["moment", "--coeffs", "1,1", "--dist", "rademacher", "--p", "1e6", "--format", fmt], capsys
        )
        assert status == cli.EXIT_CAPACITY
        assert "render" in err
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

    def test_degeneracy_without_fallback(self, capsys):
        status, _, err = invoke(
            ["moment", "--coeffs", "1,1", "--dist", "symExponential", "--p", "3",
             "--engine", "partialFractions"],
            capsys,
        )
        assert status == cli.EXIT_CAPACITY
        assert "Monte Carlo" in err or "recursion" in err

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
            assert MomentEstimate.from_raw(3.0, 8.0, name, rigor).method == name
            if not engine.exact:
                with pytest.raises(ValueError, match="cannot claim exact"):
                    MomentEstimate.from_raw(3.0, 8.0, name, Rigor.exact())
            for law in engine.laws:
                doc = {"command": "moment", "coefficients": [1.0], "distribution": law,
                       "p": [3.0], "engine": [name], "seed": 1}
                if law == "weibullTail":
                    doc["alpha"] = 2.0
                assert cli.parse_job(doc, {}).engine == [name]

    def test_weibull_alpha_one_is_the_exponential(self, capsys):
        # same engines, values and bound sources, and no seed needed: only
        # the job fields differ
        skip = ("digest", "distribution", "alpha")
        for command in ("moment", "bounds"):
            got = []
            for dist in (["symExponential"], ["weibullTail", "--alpha", "1"]):
                argv = [command, "--coeffs", "2,1,1,0.5", "--p", "3,4", "--dist", *dist]
                status, out, _ = invoke(argv, capsys)
                assert status == cli.EXIT_OK
                got.append([{k: v for k, v in r.items() if k not in skip} for r in records_of(out)])
            assert got[0] == got[1]

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
        # the norm 5e-160 is exact, but its square lies below the normal range
        status, out, err = invoke(
            ["moment", "--coeffs", "3e-160,4e-160", "--dist", "gaussian", "--p", "2"], capsys
        )
        assert status == cli.EXIT_USAGE
        assert "raw_moment" in err
        assert out == ""


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


class TestSearchCommand:
    def test_emits_witness(self, capsys):
        status, out, _ = invoke(
            ["search", "--checks", "rec2", "--iterations", "200", "--seed", "3"], capsys
        )
        assert status == cli.EXIT_OK
        (rec,) = records_of(out)
        assert rec["violations"] == 0
        assert isinstance(rec["witness"], list)

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

    def test_digest_stable_across_formats(self, capsys):
        argv = ["moment", "--coeffs", "1,1", "--dist", "rademacher", "--p", "2"]
        _, out_json, _ = invoke(argv + ["--format", "json"], capsys)
        _, out_csv, _ = invoke(argv + ["--format", "csv"], capsys)
        j = records_of(out_json)[0]["digest"]
        c = list(csv.DictReader(io.StringIO(out_csv)))[0]["digest"]
        assert j == c
