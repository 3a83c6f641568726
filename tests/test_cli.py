import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from symheat.cli import main
from symheat.engine import K_MAX_LIMIT

JOBS = Path(__file__).resolve().parent.parent / "jobs"
S2_EXPLICIT = {"n": 2, "p": 1, "flat_dim": 0,
               "E": [[["0/1", "1/1"], ["-1/1", "0/1"]]], "beta": [["1/1"]]}
# jobs whose a_k exist but whose tr a_1 is not real, so --trace ends in exit 3
NON_REAL_TRACE_JOBS = {
    "complex_generator": {
        "space": {"catalog": "sphere", "params": {"n": 2}},
        "bundle": {"explicit": {"dimV": 1, "G": {"1,2": [[{"re": "1", "im": "1"}]]}}}},
    "complex_beta": {"space": {"explicit": {**S2_EXPLICIT, "beta": [[{"re": "1", "im": "1"}]]}}},
}


def write_job(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def s3_explicit(beta_diag):
    """Explicit S3 on the frame E_12, E_13, E_23 with a diagonal beta."""
    def e(a, b):
        return [["1/1" if (i, j) == (a, b) else "-1/1" if (j, i) == (a, b) else "0/1"
                 for j in range(3)] for i in range(3)]
    beta = [[x if i == j else "0/1" for j in range(3)] for i, x in enumerate(beta_diag)]
    return {"n": 3, "p": 3, "flat_dim": 0, "E": [e(0, 1), e(0, 2), e(1, 2)], "beta": beta}


def scalar_entries(report):
    return [entry["matrix"][0][0] for entry in report["a"]]


class TestCompute:
    def test_s2_scalar(self, tmp_path, capsys):
        rc = main(["compute", str(JOBS / "s2_scalar.json")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert scalar_entries(report) == ["1/1", "1/3", "1/15", "4/315"]

    def test_flat_zeros(self, capsys):
        rc = main(["compute", str(JOBS / "flat3.json"), "-k", "5"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert scalar_entries(report) == ["1/1"] + ["0/1"] * 5

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        rc = main(["compute", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize("k_max", ["x", 2.5, True])
    def test_non_integer_kmax(self, tmp_path, capsys, k_max):
        job = json.loads((JOBS / "s2_scalar.json").read_text(encoding="utf-8"))
        job["k_max"] = k_max
        rc = main(["compute", write_job(tmp_path, job)])
        assert rc == 2
        assert "k_max must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "validate", "check-group"])
    def test_top_level_array_rejected(self, tmp_path, capsys, command):
        rc = main([command, write_job(tmp_path, [{"space": {}}])])
        assert rc == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["compute", "/nonexistent/job.json"]) == 2

    def test_kmax_overflow_exit_code(self, capsys):
        rc = main(["compute", str(JOBS / "s2_scalar.json"), "-k", str(K_MAX_LIMIT + 1)])
        assert rc == 4

    def test_trace_output(self, capsys):
        rc = main(["compute", str(JOBS / "s2_scalar.json"), "--trace"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace"][1]["coeff"] == "4/3"
        assert report["trace"][1]["pi_power"] == 1

    def test_trace_needs_volume(self, capsys):
        rc = main(["compute", str(JOBS / "flat2_twist.json"), "--trace"])
        assert rc == 2

    @pytest.mark.parametrize("volume", [
        "abc", {"coeff": "4", "pi_power": "x"}, "-1",
        # rationals are "p/q" strings: floats and bools are not read as numbers
        {"coeff": 12.5, "pi_power": 1}, {"coeff": True, "pi_power": 1}, 4.0,
        # a zero denominator is not a number; exponents are refused before expansion
        "1/0", {"coeff": "1/0", "pi_power": 1}, "1e5", {"coeff": "1e999999999"},
    ])
    def test_trace_bad_volume(self, tmp_path, capsys, volume):
        job = json.loads((JOBS / "s2_scalar.json").read_text(encoding="utf-8"))
        job["volume"] = volume
        rc = main(["compute", write_job(tmp_path, job), "--trace"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: bad volume")

    @pytest.mark.parametrize("pi_power", [1.5, True, "x"])
    def test_trace_non_integer_pi_power(self, tmp_path, capsys, pi_power):
        job = json.loads((JOBS / "s2_scalar.json").read_text(encoding="utf-8"))
        job["volume"] = {"coeff": "4", "pi_power": pi_power}
        rc = main(["compute", write_job(tmp_path, job), "--trace"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert "pi_power must be an integer" in err

    @pytest.mark.parametrize("command", ["compute", "validate", "check-group"])
    @pytest.mark.parametrize("space", ["sphere", "hyperbolic", "flat", "explicit"])
    def test_catalog_dimension_zero_rejected(self, tmp_path, capsys, space, command):
        if space == "explicit":
            descriptor = {"explicit": {"n": 0, "p": 0, "E": [], "beta": []}}
        else:
            descriptor = {"catalog": space, "params": {"n": 0}}
        job = {"space": descriptor, "bundle": {"catalog": "scalar"}}
        rc = main([command, write_job(tmp_path, job)])
        assert rc == 3
        assert "n >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "validate", "check-group"])
    @pytest.mark.parametrize("job", [
        {"bundle": {"explicit": {"dimV": 1, "G": {"1,2": [["x"]]}}}},
        {"bundle": {"explicit": {"dimV": "x"}}},
        {"bundle": {"catalog": "tensor_product", "factors": "vector"}},
        {"space": {"catalog": "flat", "params": {"n": 2}}, "twist": {"blocks": "1/2"}},
        {"space": {"catalog": "flat", "params": {"n": 2}}, "twist": {"blocks": "1"}},
        {"twist": "x"},
        {"bundle": {"explicit": {"dimV": 1, "G": []}}},
        {"bundle": {"explicit": {"dimV": 1, "G": "x"}}},
        {"bundle": []},
        {"bundle": 0},
        {"bundle": {"explicit": {"dimV": 1.5}}},
        {"bundle": {"explicit": {"dimV": True}}},
        {"bundle": {"explicit": {"dimV": "2"}}},
        {"space": {"catalog": "sphere", "params": {"n": 2, "radius": 0.1}}},
        {"space": {"catalog": "sphere", "params": {"n": 2, "radius": True}}},
        {"space": {"explicit": {"n": 2, "p": 1, "E": [[[0, True], [-1, 0]]],
                                "beta": [[1]]}}},
        {"space": {"catalog": "flat", "params": {"n": 2}}, "twist": {"blocks": [0.5]}},
        {"bundle": {"explicit": {"dimV": 1, "G": {"1,2": [[True]]}}}},
        {"space": {"catalog": "sphere", "params": {"n": 2, "radius": "1/0"}}},
        {"space": {"catalog": "sphere", "params": {"n": 2, "radius": "1e999999999"}}},
        {"space": {"catalog": "flat", "params": {"n": 2}}, "twist": {"blocks": ["1/0"]}},
        {"space": {"catalog": "flat", "params": {"n": 2}}, "twist": {"blocks": ["1e5"]}},
        {"bundle": {"explicit": {"dimV": 1, "G": {"1,2": [["1/0"]]}}}},
        {"space": {"explicit": {**S2_EXPLICIT, "beta": [["1e999999999"]]}}},
        {"space": {"explicit": {**S2_EXPLICIT, "E": [[["0/1", "1/0"], ["-1/1", "0/1"]]]}}},
        {"space": {"explicit": {**S2_EXPLICIT, "beta": "1"}}},
        {"space": {"explicit": {"n": 2, "p": 0, "E": "", "beta": []}}},
        {"space": {"explicit": {**S2_EXPLICIT, "E": ["0"]}}},
        {"bundle": {"explicit": {"dimV": 1, "G": {"1,2": "0"}}}},
        {"bundle": {"explicit": []}},
        {"space": []},
        {"space": {"explicit": "x"}},
        {"space": {"catalog": "product", "params": []}},
        {"space": {"catalog": "product", "params": {"factors": "ab"}}},
    ], ids=["bad_rational", "bad_dimV", "factors_string", "blocks_fraction_string",
            "blocks_string", "twist_string", "G_array", "G_string", "bundle_array",
            "bundle_zero", "dimV_float", "dimV_bool", "dimV_string", "radius_float",
            "radius_bool", "E_entry_bool", "block_float", "G_entry_bool",
            "radius_zero_denominator", "radius_exponent", "block_zero_denominator",
            "block_exponent", "G_entry_zero_denominator", "beta_entry_exponent",
            "E_entry_zero_denominator", "beta_string", "E_string", "E_matrix_string",
            "G_matrix_string", "bundle_body_array", "space_array", "space_body_string",
            "product_params_array", "product_factors_string"])
    def test_bad_bundle_rejected(self, tmp_path, capsys, job, command):
        # arrays and objects must have their JSON kind, not be strings read by character
        job = {"space": {"catalog": "sphere", "params": {"n": 2}}, **job}
        rc = main([command, write_job(tmp_path, job)])
        assert rc == 2
        assert "error: bad job file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "validate", "check-group"])
    @pytest.mark.parametrize("value", [1.5, True, "2"], ids=["float", "bool", "string"])
    @pytest.mark.parametrize("field", ["catalog_n", "n", "p", "flat_dim"])
    def test_non_integer_space_field_rejected(self, tmp_path, capsys, field, value,
                                              command):
        # int() would truncate 1.5 to 1 and read True as 1
        if field == "catalog_n":
            space = {"catalog": "sphere", "params": {"n": value}}
        else:
            space = {"explicit": {**S2_EXPLICIT, field: value}}
        rc = main([command, write_job(tmp_path, {"space": space})])
        assert rc == 2
        assert "error: bad job file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "validate", "check-group"])
    @pytest.mark.parametrize("job,field", [
        ({"space": {"explicit": {k: v for k, v in S2_EXPLICIT.items() if k != "p"}}}, "p"),
        ({"space": {"explicit": {k: v for k, v in S2_EXPLICIT.items() if k != "n"}}}, "n"),
        ({"space": {"explicit": {k: v for k, v in S2_EXPLICIT.items() if k != "E"}}}, "E"),
        ({"space": {"explicit": {k: v for k, v in S2_EXPLICIT.items() if k != "beta"}}}, "beta"),
        ({"space": {"catalog": "sphere", "params": {"radius": "1/2"}}}, "n"),
        ({"space": {"catalog": "sphere", "params": {"n": 2}}, "bundle": {"explicit": {}}}, "dimV"),
    ], ids=["explicit_p", "explicit_n", "explicit_E", "explicit_beta", "catalog_n", "dimV"])
    def test_missing_field_named(self, tmp_path, capsys, job, field, command):
        rc = main([command, write_job(tmp_path, job)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: bad job file: missing field '{field}'\n"

    @pytest.mark.parametrize("command", ["compute", "validate", "check-group"])
    @pytest.mark.parametrize("dimV", [0, -1])
    def test_fiber_dimension_below_one_rejected(self, tmp_path, capsys, dimV, command):
        job = {"space": {"catalog": "sphere", "params": {"n": 2}},
               "bundle": {"explicit": {"dimV": dimV}}}
        rc = main([command, write_job(tmp_path, job)])
        assert rc == 3
        assert f"dimV >= 1, got {dimV}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "validate"])
    @pytest.mark.parametrize("job", [
        {"space": {"catalog": "sphere", "params": {"n": 41}}},
        {"space": {"catalog": "flat", "params": {"n": 100000}}},
        {"space": {"explicit": {**S2_EXPLICIT, "n": 41}}},
        {"space": {"catalog": "product", "params": {"factors": [
            {"catalog": "flat", "params": {"n": 9}},
            {"catalog": "sphere", "params": {"n": 2}}]}}},
        {"bundle": {"explicit": {"dimV": 100000}}},
        {"bundle": {"catalog": "tensor_product", "factors": ["spinor"] * 12}},
    ], ids=["catalog_n", "flat_n", "explicit_n", "product_total_n", "explicit_dimV",
            "catalog_tensor_dimV"])
    def test_dimension_above_bound_rejected(self, tmp_path, capsys, job, command):
        # refused at parse time, before a model or fiber of that size is built
        job = {"space": {"catalog": "sphere", "params": {"n": 2}}, **job}
        start = time.perf_counter()
        rc = main([command, write_job(tmp_path, job)])
        assert time.perf_counter() - start < 1
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad job file: ") and "exceeds the bound" in err

    def test_oversized_product_refused_at_running_total(self, tmp_path, capsys):
        # the total is checked after each factor, so 28 of the 30 S10 factors are never built
        factors = [{"catalog": "sphere", "params": {"n": 10}}] * 30
        job = {"space": {"catalog": "product", "params": {"factors": factors}}}
        start = time.perf_counter()
        rc = main(["compute", write_job(tmp_path, job)])
        assert time.perf_counter() - start < 2
        assert rc == 2
        assert "product n = 20 exceeds the bound 10" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "validate"])
    def test_singular_beta_named(self, tmp_path, capsys, command):
        # a singular beta makes the D_i dependent too; the beta message comes first
        job = {"space": {"explicit": {**S2_EXPLICIT, "beta": [["0/1"]]}}}
        rc = main([command, write_job(tmp_path, job)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "beta is singular: " in err and "linearly dependent" not in err

    def test_tensor_factor_failure_names_product_checks(self, tmp_path, capsys):
        # the catalog product fiber is checked once, as a whole, so its failed
        # checks are named rather than those of the first factor
        job = {"space": {"explicit": s3_explicit(["1/1", "2/1", "3/1"])},
               "bundle": {"catalog": "tensor_product", "factors": ["spinor", "vector"]}}
        rc = main(["compute", write_job(tmp_path, job)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "validation error: fiber checks failed: "
            "casimir-centrality, fiber-curvature-integrability\n")

    @pytest.mark.parametrize("content", [b'{"k_max": "\xff"}', b'{"k_max": ' + b"1" * 5000 + b"}"],
                             ids=["not_utf8", "integer_too_long"])
    def test_undecodable_job_file(self, tmp_path, capsys, content):
        path = tmp_path / "job.json"
        path.write_bytes(content)
        assert main(["compute", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    @pytest.mark.parametrize("command", ["compute", "validate", "check-group"])
    def test_deeply_nested_json_refused(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        rc = main([command, str(path)])
        assert (rc, *capsys.readouterr()) == (
            2, "", f"error: malformed JSON in {path}: nested too deeply\n")

    @pytest.mark.parametrize("radius, k_max, flags", [
        ("1/" + "7" * 1000, 6, []),
        ("1/" + "7" * 1000, 6, ["--trace"]),
        ("1/1" + "0" * 200, 1, ["--output", "both"]),
        ("1/1" + "0" * 200, 1, ["--format", "text"]),
    ], ids=["digits", "digits_trace", "float_both", "float_text"])
    def test_result_too_large_to_render_refused(self, tmp_path, capsys, radius, k_max, flags):
        # the a_k compute, but an exact value passes Python's int-to-str digit
        # limit, or a decimal passes the float range
        job = {"space": {"catalog": "sphere", "params": {"n": 2, "radius": radius}},
               "bundle": {"catalog": "scalar"}, "k_max": k_max, "volume": "4"}
        out = tmp_path / "out.json"
        rc = main(["compute", write_job(tmp_path, job), *flags, "-o", str(out)])
        stdout, err = capsys.readouterr()
        assert (rc, stdout) == (2, "") and not out.exists()
        assert err.startswith("error: result too large to render: ") and err.count("\n") == 1

    def test_non_invariant_weight_refused(self, tmp_path, capsys):
        # beta = diag(1, 2, 3) on the so(3) frame of S3: the model builds, but
        # beta F_j is not antisymmetric, so the holonomy average is undefined
        job = {"space": {"explicit": s3_explicit(["1/1", "2/1", "3/1"])},
               "bundle": {"catalog": "scalar"}}
        rc = main(["compute", write_job(tmp_path, job)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "beta-f-invariance" in err

    @pytest.mark.parametrize("job", list(NON_REAL_TRACE_JOBS.values()),
                             ids=list(NON_REAL_TRACE_JOBS))
    def test_non_real_fiber_trace_refused(self, tmp_path, capsys, job):
        # the a_k exist, but tr a_1 is not real, so --trace has no A_1 to report
        path = write_job(tmp_path, {**job, "k_max": 2, "volume": "1"})
        assert main(["compute", path]) == 0
        capsys.readouterr()
        rc = main(["compute", path, "--trace"])
        assert (rc, *capsys.readouterr()) == (3, "", "error: fiber trace is not real\n")

    def test_text_format(self, capsys):
        rc = main(["compute", str(JOBS / "s2_scalar.json"), "--format", "text"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "a_1 = 1/3 (~0.333333)" in out

    def test_decimal_output_mode(self, capsys):
        rc = main(["compute", str(JOBS / "s2_scalar.json"), "--output", "both"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["a"][1]["matrix_decimal"][0][0] == pytest.approx(1 / 3)

    def test_twist_job(self, capsys):
        rc = main(["compute", str(JOBS / "flat2_twist.json")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert scalar_entries(report) == ["1/1", "0/1", "-1/6", "0/1", "7/360"]


class TestValidate:
    @pytest.mark.parametrize("job", sorted(JOBS.glob("*.json")), ids=lambda p: p.stem)
    def test_catalog_s3_spinor_passes(self, capsys, job):
        rc = main(["validate", str(job)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "fiber-so-n-relations: pass" in out

    def test_rep_checks_run_once(self, capsys, monkeypatch):
        # the verdict build_rep reached is listed; validate_rep does not run again
        from symheat import bundles, cli

        calls = []

        def counting(*args):
            calls.append(args)
            return validate_rep(*args)

        validate_rep = bundles.validate_rep
        monkeypatch.setattr(bundles, "validate_rep", counting)
        # also catch a name imported into the CLI module
        monkeypatch.setattr(cli, "validate_rep", counting, raising=False)
        assert main(["validate", str(JOBS / "s2_spinor.json")]) == 0
        assert "fiber-holonomy-bracket: pass" in capsys.readouterr().out
        assert len(calls) == 1

    def test_bad_beta_named_in_output(self, tmp_path, capsys):
        # beta not proportional to the invariant form: the model builds but
        # the invariance check must fail and be named
        eye3 = [["1/1" if i == j else "0/1" for j in range(3)] for i in range(3)]
        e12 = [["0/1", "1/1", "0/1"], ["-1/1", "0/1", "0/1"], ["0/1", "0/1", "0/1"]]
        e13 = [["0/1", "0/1", "1/1"], ["0/1", "0/1", "0/1"], ["-1/1", "0/1", "0/1"]]
        e23 = [["0/1", "0/1", "0/1"], ["0/1", "0/1", "1/1"], ["0/1", "-1/1", "0/1"]]
        beta = [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"], ["0/1", "0/1", "2/1"]]
        job = {
            "space": {"explicit": {"n": 3, "p": 3, "flat_dim": 0,
                                   "E": [e12, e13, e23], "beta": beta}},
            "bundle": {"catalog": "scalar"},
        }
        rc = main(["validate", write_job(tmp_path, job)])
        out = capsys.readouterr().out
        assert rc == 3
        assert "beta-f-invariance: FAIL" in out

    def test_dependent_generators_reported(self, tmp_path, capsys):
        e12 = [["0/1", "1/1", "0/1"], ["-1/1", "0/1", "0/1"], ["0/1", "0/1", "0/1"]]
        job = {
            "space": {"explicit": {"n": 3, "p": 2, "flat_dim": 0,
                                   "E": [e12, e12],
                                   "beta": [["1/1", "0/1"], ["0/1", "1/1"]]}},
            "bundle": {"catalog": "scalar"},
        }
        rc = main(["validate", write_job(tmp_path, job)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "dependent" in err


class TestCheckGroup:
    def test_s2_passes(self, capsys):
        rc = main(["check-group", str(JOBS / "s2_scalar.json"), "--samples", "4"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert all(c["pass"] for c in report["checks"])
        names = [c["check"] for c in report["checks"]]
        assert names == ["laplace-identity", "heat-equation"]

    def test_flat_twist_passes(self, capsys):
        rc = main(["check-group", str(JOBS / "flat2_twist.json"), "--samples", "4"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert all(c["pass"] for c in report["checks"])

    def test_large_group_refused(self, tmp_path, capsys):
        job = {
            "space": {"catalog": "sphere", "params": {"n": 4, "radius": "1"}},
            "bundle": {"catalog": "scalar"},
        }
        rc = main(["check-group", write_job(tmp_path, job)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "N <= 6" in err

    @pytest.mark.parametrize("params", [{"radius": "1"}, {"n": 2, "radius": "x"},
                                        {"n": 2, "radius": 0.1}, {"n": 2, "radius": True},
                                        {"n": 2, "radius": "1/0"}, {"n": 2, "radius": "1e5"},
                                        {"n": 2, "radius": "1e999999999"}])
    def test_bad_sphere_params(self, tmp_path, capsys, params):
        job = {"space": {"catalog": "sphere", "params": params},
               "bundle": {"catalog": "scalar"}}
        rc = main(["check-group", write_job(tmp_path, job)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("radius", ["1/" + "7" * 1000, "1/1" + "0" * 200],
                             ids=["digits", "float"])
    def test_model_too_large_for_floats_refused(self, tmp_path, capsys, radius):
        job = {"space": {"catalog": "sphere", "params": {"n": 2, "radius": radius}},
               "bundle": {"catalog": "scalar"}}
        rc = main(["check-group", write_job(tmp_path, job)])
        stdout, err = capsys.readouterr()
        assert (rc, stdout) == (2, "")
        assert err.startswith("refused: ") and err.count("\n") == 1

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_refused(self, capsys, samples):
        rc = main(["check-group", str(JOBS / "s2_scalar.json"), "--samples", samples])
        assert rc == 2
        assert capsys.readouterr().err.startswith("refused:")

    def test_tolerance_override(self, capsys):
        rc = main(["check-group", str(JOBS / "s2_scalar.json"), "--samples", "2",
                   "--tolerance", "1e-15"])
        assert rc == 3  # impossible tolerance: checks must report failure


class TestOracle:
    def test_sphere_json(self, capsys):
        rc = main(["oracle", "sphere", "--n", "2", "--kmax", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 2
        assert len(report["approx_a"]) == 4
        assert len(report["error_estimates"]) == 4
        assert report["approx_a"][1] == pytest.approx(1 / 3, abs=1e-8)

    def test_bad_kmax(self, capsys):
        assert main(["oracle", "sphere", "--n", "2", "--kmax", "9"]) == 2


class TestDeterminism:
    @pytest.mark.parametrize("job", [
        "s2_scalar.json", "s3_scalar.json", "flat2_x_s2_spinor_twist.json",
    ])
    def test_byte_identical_across_runs_and_threads(self, tmp_path, job):
        outputs = []
        for i in range(3):
            path = tmp_path / f"out{i}.json"
            args = ["compute", str(JOBS / job), "--output", "both", "-o", str(path)]
            if job == "s2_scalar.json":
                args.append("--trace")
            assert main(args) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    # stdout and exit code of `symheat compute <job> --output both` and
    # `symheat validate <job>` for every jobs/*.json, stored as
    # {"<command> <job file>": {"exit_code": .., "stdout": ..}}; a new job
    # needs its entries added
    GOLDENS = json.loads((Path(__file__).resolve().parent / "goldens" / "cli_jobs.json")
                         .read_text(encoding="utf-8"))

    @pytest.mark.parametrize("command", ["compute", "validate"])
    @pytest.mark.parametrize("job", sorted(p.name for p in JOBS.glob("*.json")))
    def test_job_output_matches_golden(self, capsys, command, job):
        rc = main([command, str(JOBS / job)] + (["--output", "both"] if command == "compute" else []))
        golden = self.GOLDENS[f"{command} {job}"]
        assert (rc, capsys.readouterr().out) == (golden["exit_code"], golden["stdout"])


def _paths(node, path=()):
    """Every position in a JSON tree, the root first, as a tuple of keys."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


_LEAVES = st.sampled_from([
    -1, 0, 1, 2, 3, 4, 41, 100000, None, True, 0.5, "1/0", "1e999999999", "x", "1/2", "", "1,2",
    "sphere", "product", "explicit", "spinor", "vector",
]) | st.fixed_dictionaries({"re": st.just("1"), "im": st.just("1")})  # a complex entry
_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["catalog", "explicit", "params", "n", "p", "E",
                                     "beta", "dimV", "G", "factors", "blocks", "radius"]),
                    inner, max_size=3),
), max_leaves=6)


# explicit-form seeds with a volume, so that a leaf mutation can put a
# complex entry into E, beta or G and reach the --trace path; a draw picks
# them as often as all of jobs/*.json, since only a single leaf mutation on
# their matrix entries reaches that path
_EXPLICIT_SEEDS = [
    {"space": {"explicit": S2_EXPLICIT}, "bundle": {"catalog": "scalar"}, "volume": "4"},
    {"space": {"catalog": "sphere", "params": {"n": 2, "radius": "1"}},
     "bundle": {"explicit": {"dimV": 1, "G": {"1,2": [[{"re": "0/1", "im": "1/2"}]]}}},
     "volume": "4"},
]


@st.composite
def mutated_jobs(draw):
    """A jobs/*.json job or an explicit-form seed, each half the time, with
    one to three leaves or subtrees replaced, deleted or wrapped in an array."""
    job = json.loads(draw(st.sampled_from([p.read_text() for p in sorted(JOBS.glob("*.json"))])
                          | st.sampled_from([json.dumps(j) for j in _EXPLICIT_SEEDS])))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["leaf", "subtree", "delete", "wrap"]))
        paths = list(_paths(job))
        if op == "leaf":
            paths = [q for q in paths if not isinstance(_at(job, q), (dict, list))] or paths
        path = draw(st.sampled_from(paths))
        if not path:  # the root itself: wrap or replace the whole job
            job = [job] if op == "wrap" else draw(_VALUES)
            continue
        parent = _at(job, path[:-1])
        if op == "delete":
            del parent[path[-1]]
        elif op == "wrap":
            parent[path[-1]] = [parent[path[-1]]]
        else:
            parent[path[-1]] = draw(_LEAVES if op == "leaf" else _VALUES)
    return job


@settings(max_examples=300, derandomize=True, deadline=None)
@given(job=mutated_jobs())
# the non-real trace path, which few draws reach, is run on every run
@example(job={**NON_REAL_TRACE_JOBS["complex_generator"], "volume": "1"})
@example(job={**NON_REAL_TRACE_JOBS["complex_beta"], "volume": "1"})
def test_mutated_jobs_end_in_documented_exit_codes(tmp_path_factory, job):
    # any malformed job must end in a documented exit code, never a traceback
    path = tmp_path_factory.getbasetemp() / "mutated_job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    for argv in (["compute", str(path), "-k", "2"], ["compute", str(path), "-k", "2", "--trace"],
                 ["validate", str(path)]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3, 4), (argv, job)
