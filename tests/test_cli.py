import ast
import hashlib
import json
import re
import warnings
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from lorhol.bivector import SVD_TOL
from lorhol.cli import main
from lorhol.holonomy import SPAN_TOL
from lorhol.projective import GEODESIC_TOL, RESIDUAL_TOL


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def emitted(tmp_path, runner):
    """Emit the appendix fixture's files once per test."""
    def _emit(name="r9"):
        res = runner.invoke(main, ["fixtures", "emit", name, "-o",
                                   str(tmp_path)])
        assert res.exit_code == 0, res.output
        return {
            "g": str(tmp_path / f"{name}-g.json"),
            "a": str(tmp_path / f"{name}-a.json"),
            "gp": str(tmp_path / f"{name}-gprime-expected.json"),
        }
    return _emit


def run_json(runner, args):
    res = runner.invoke(main, args + ["--json"])
    try:
        report = json.loads(res.output)
    except json.JSONDecodeError:
        report = None
    return res, report


class TestFixturesCommands:
    def test_list(self, runner):
        res, report = run_json(runner, ["fixtures", "list"])
        assert res.exit_code == 0
        assert "minkowski" in report["fixtures"]

    def test_emit_unknown_name(self, runner):
        res = runner.invoke(main, ["fixtures", "emit", "nope"])
        assert res.exit_code == 2


class TestClassify:
    def test_minkowski_is_O_everywhere(self, runner, emitted):
        files = emitted("minkowski")
        res, report = run_json(runner, ["classify", "-m", files["g"],
                                        "--samples", "8"])
        assert res.exit_code == 0
        assert report["classes_seen"] == ["O"]

    def test_appendix_class_A(self, runner, emitted):
        files = emitted("r9")
        res, report = run_json(runner, ["classify", "-m", files["g"],
                                        "--samples", "8"])
        assert res.exit_code == 0
        assert report["classes_seen"] == ["A"]

    def test_waveband_class_D_spacelike(self, runner, emitted):
        files = emitted("r11")
        res, report = run_json(runner, ["classify", "-m", files["g"],
                                        "--samples", "8"])
        assert res.exit_code == 0
        assert report["classes_seen"] == ["D"]
        assert all(e["theta"] > 0 for e in report["per_point"])

    def test_single_point(self, runner, emitted):
        files = emitted("r9")
        res, report = run_json(runner, ["classify", "-m", files["g"],
                                        "-p", "1.0,1.0,0.2,0.3"])
        assert res.exit_code == 0
        assert len(report["per_point"]) == 1

    def test_thousand_term_entry(self, runner, emitted, tmp_path):
        # a sum as deep as it is long compiles and evaluates: no walk
        # over the expression is bounded by Python's recursion limit
        data = json.loads(open(emitted("r9")["g"]).read())
        data["metric"][3][3] += "".join(f" + {k}/10^9*u^{k % 5}*x"
                                        for k in range(1, 1001))
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        res, report = run_json(runner, ["classify", "-m", str(path),
                                        "--samples", "8"])
        assert res.exit_code == 0, res.output
        assert report["command"] == "classify"
        assert len(report["per_point"]) == 8
        assert res.exception is None

    @pytest.mark.parametrize("factor, c, message", [
        ("1 + c^(1/3)/10", -8,
         "fractional power of a negative value in `c^(1/3)`"),
        ("1 + 1/(c - 2)", 2, "division by zero in `1/(c - 2)`"),
    ])
    def test_parameter_only_domain_error(self, runner, emitted, tmp_path,
                                         factor, c, message):
        # a subexpression of parameters alone is a domain error (exit 2),
        # not a complex number's real part or a ZeroDivisionError
        data = json.loads(open(emitted("r9")["g"]).read())
        data["metric"][3][3] = f"u^2*exp(x*y)*({factor})"
        data["parameters"]["c"] = c
        path = tmp_path / "param.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, ["classify", "-m", str(path),
                                       "--samples", "4"])
        assert res.exit_code == 2, res.output
        assert res.output == f"error: {message}\n"

    def test_svd_tol_is_fixed(self, runner, emitted):
        # the kernel and range ranks are decided at SVD_TOL, which the
        # report states and no option sets
        files = emitted("r9")
        res, report = run_json(runner, ["classify", "-m", files["g"],
                                        "--samples", "2"])
        assert res.exit_code == 0
        assert report["tolerances"] == {"svd_tol": SVD_TOL}
        res = runner.invoke(main, ["classify", "-m", files["g"],
                                   "--svd-tol", "1e-6"])
        assert res.exit_code == 2
        assert "No such option '--svd-tol'" in res.stderr

    def test_point_of_three_values_is_usage_error(self, runner, emitted):
        files = emitted("r9")
        res = runner.invoke(main, ["classify", "-m", files["g"],
                                   "-p", "1,1,0.2"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == ("error: point must have 4 comma-separated "
                              "values\n")

    def test_unsupported_file_version_is_usage_error(self, runner, emitted,
                                                     tmp_path):
        data = json.loads(open(emitted("r9")["g"]).read())
        data["version"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["classify", "-m", str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (f"error: {path}: unsupported or missing file "
                              "version\n")

    def test_too_few_admissible_points_is_one_error_line(self, runner,
                                                        emitted, tmp_path):
        data = json.loads(open(emitted("minkowski")["g"]).read())
        data["constraints"] = ["0.000004 - x^2"]
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["classify", "-m", str(path),
                                   "--samples", "64"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == ("error: sample box gave 50 admissible points "
                              "of the 64 asked for in 25600 draws\n")

    def test_missing_file_is_usage_error(self, runner):
        res = runner.invoke(main, ["classify", "-m", "no-such-file.json"])
        assert res.exit_code == 2

    def test_box_without_a_coordinate_is_usage_error(self, runner, emitted,
                                                     tmp_path):
        data = json.loads(open(emitted("r9")["g"]).read())
        del data["sample_box"]["u"]
        path = tmp_path / "no-u.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["classify", "-m", str(path)])
        assert res.exit_code == 2
        assert res.output == (f"error: {path}: sample_box has no bounds "
                              "for coordinate 'u'\n")


    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["parameters"].update(x=1.0),
         "parameters: 'x' is also the name of a coordinate"),
        (lambda d: d["sample_box"]["u"].reverse(),
         "sample_box: low 2.0 is not below high 0.5 for 'u'"),
        (lambda d: d["sample_box"]["u"].__setitem__(1, "nan"),
         "sample_box: bounds [0.5, nan] for 'u' are not finite"),
        (lambda d: d["sample_box"]["u"].append(3.0),
         "sample_box: need one (low, high) pair per coordinate"),
    ], ids=["parameter-named-like-a-coordinate", "reversed-bound",
            "nan-bound", "three-bounds"])
    def test_bad_metric_file_is_named(self, runner, emitted, tmp_path,
                                      edit, message):
        data = json.loads(open(emitted("r9")["g"]).read())
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["classify", "-m", str(path)])
        assert res.exit_code == 2
        assert res.output == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("kind, edit, key", [
        ("g", lambda d: {**d, "metric": 5}, "'metric'"),
        ("g", lambda d: {**d, "constraints": 5}, "'constraints'"),
        ("g", lambda d: {**d, "parameters": 5}, "'parameters'"),
        ("g", lambda d: {**d, "parameters": "xi"}, "'parameters'"),
        ("g", lambda d: [d], "top level"),
        ("a", lambda d: {**d, "a": 5}, "'a'"),
        ("a", lambda d: {**d, "lambda": 5}, "'lambda'"),
        ("a", lambda d: {**d, "parameters": 5}, "'parameters'"),
        ("a", lambda d: {**d, "parameters": "xi"}, "'parameters'"),
        # element shapes
        ("g", lambda d: {**d, "metric": d["metric"][:3] + [5]}, "'metric'"),
        ("g", lambda d: {**d, "sample_box": {**d["sample_box"], "u": 3}},
         "'sample_box'"),
        ("g", lambda d: {**d, "sample_box": {**d["sample_box"],
                                             "u": ["a", 2.0]}},
         "'sample_box'"),
        ("g", lambda d: {**d, "parameters": {**d["parameters"], "xi": None}},
         "'parameters'"),
        ("g", lambda d: {**d, "parameters": {**d["parameters"], "xi": "x"}},
         "'parameters'"),
        ("g", lambda d: {**d, "parameters": {**d["parameters"],
                                             "xi": 10 ** 400}},
         "'parameters'"),
        ("g", lambda d: {**d, "sample_box": {**d["sample_box"],
                                             "u": [10 ** 400, 2.0]}},
         "'sample_box'"),
        ("a", lambda d: {**d, "a": d["a"][:3] + [5]}, "'a'"),
        ("a", lambda d: {**d, "lambda": ["0", "0", "0"]}, "'lambda'"),
        ("a", lambda d: {**d, "lambda": [0, 0, 0, 0]}, "'lambda'"),
        ("a", lambda d: {**d, "lambda": "foo"}, "'lambda'"),
    ], ids=["metric-number", "constraints-number", "parameters-number",
            "parameters-string", "top-level-list", "a-number",
            "lambda-number", "pair-parameters-number",
            "pair-parameters-string", "metric-row-number", "bound-number",
            "bound-string", "parameter-null", "parameter-string",
            "parameter-overflow", "bound-overflow",
            "a-row-number", "lambda-three-entries", "lambda-numbers",
            "lambda-string"])
    def test_mistyped_key_is_named(self, runner, emitted, tmp_path, kind,
                                   edit, key):
        files = emitted("r9")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(json.loads(open(files[kind]).read()))))
        args = (["classify", "-m", str(path)] if kind == "g" else
                ["sinyukov-check", "-m", files["g"], "-a", str(path)])
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert res.output.startswith(f"error: {path}: ")
        assert key in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("command", ["classify", "derive-partner"])
    @pytest.mark.parametrize("name", [[1], {}, 3],
                             ids=["list", "object", "number"])
    def test_mistyped_name_is_named(self, runner, emitted, tmp_path,
                                    command, name):
        # a list or an object used to crash every command with a
        # TypeError, and a number derive-partner
        files = emitted("r9")
        data = json.loads(open(files["g"]).read())
        data["name"] = name
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        args = [command, "-m", str(path), "--samples", "2"]
        if command == "derive-partner":
            args += ["-a", files["a"], "-o", str(tmp_path / "partner.json")]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert res.output == (f"error: {path}: 'name' must be a string "
                              "or null\n")

    def test_null_name_reads_as_absent(self, runner, emitted, tmp_path):
        files = emitted("r9")
        data = json.loads(open(files["g"]).read())
        data["name"] = None
        path = tmp_path / "unnamed.json"
        path.write_text(json.dumps(data))
        partner = tmp_path / "partner.json"
        res = runner.invoke(main, ["derive-partner", "-m", str(path), "-a",
                                   files["a"], "-o", str(partner)])
        assert res.exit_code == 0, res.output
        assert json.loads(partner.read_text())["name"] == "unnamed-partner"

    @pytest.mark.parametrize("kind, edit, message", [
        ("g", lambda d: d["metric"][2].__setitem__(1, "u +* v"),
         "metric[2][1]: expected a value (offset 3)"),
        ("g", lambda d: d["constraints"].__setitem__(0, "q"),
         "constraints[0]: unknown identifier 'q' (offset 0)"),
        ("g", lambda d: d.update(coordinates=["u", "v", "v", "y"]),
         "need 4 distinct coordinate names"),
        ("g", lambda d: d["coordinates"].append("z"),
         "need 4 distinct coordinate names"),
        ("a", lambda d: d["a"][3].__setitem__(2, "x +"),
         "a[3][2]: expected a value (offset 3)"),
        ("a", lambda d: d.update({"lambda": ["0", "q", "0", "0"]}),
         "lambda[1]: unknown identifier 'q' (offset 0)"),
    ], ids=["metric-entry", "constraint", "duplicate-coordinates",
            "five-coordinates", "a-entry", "lambda-entry"])
    def test_parse_error_names_file_and_entry(self, runner, emitted,
                                              tmp_path, kind, edit, message):
        # these used to print the parser's message alone, or, for five
        # coordinates, the missing bound of the fifth
        files = emitted("r9")
        data = json.loads(open(files[kind]).read())
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        args = (["classify", "-m", str(path)] if kind == "g" else
                ["sinyukov-check", "-m", files["g"], "-a", str(path)])
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert res.output == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("entry, message", [
        ("1e400*u", "constant out of float range in `1" + "0" * 400 + "`"),
        # a parse error names the file and the entry
        ("(" * 199 + "u" + ")" * 199,
         "{path}: metric[3][3]: nesting deeper than 100 levels (offset 100)"),
        ("u^(10^400)", "exponent out of float range in `u^1" + "0" * 400
         + "`"),
        # arithmetic on constants alone is compiled to read inf or nan,
        # so the evaluator's diagnosis names the subexpression
        ("u^2*exp(x*y) + 1/0", "division by zero in `1/0`"),
        ("u^2*exp(x*y) + x/0", "division by zero in `x/0`"),
        ("u^2*exp(x*y)*(-1)^(1/3)",
         "fractional power of a negative value in `(-1)^(1/3)`"),
    ], ids=["constant-overflow", "deep-nesting", "exponent-overflow",
            "constant-over-zero", "coordinate-over-zero",
            "root-of-a-negative-constant"])
    def test_bad_expression_is_usage_error(self, runner, emitted, tmp_path,
                                           entry, message):
        data = json.loads(open(emitted("r9")["g"]).read())
        data["metric"][3][3] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["classify", "-m", str(path)])
        assert res.exit_code == 2
        assert res.output == f"error: {message.format(path=path)}\n"


class TestHolonomy:
    def test_appendix_r9(self, runner, emitted):
        files = emitted("r9")
        res, report = run_json(runner, ["holonomy", "-m", files["g"],
                                        "--samples", "12"])
        assert res.exit_code == 0
        assert report["label"] == "R9"

    def test_nonharmonic_r14(self, runner, emitted):
        files = emitted("r14")
        res, report = run_json(runner, ["holonomy", "-m", files["g"],
                                        "--samples", "12"])
        assert res.exit_code == 0
        assert report["label"] == "R14"

    def test_minkowski_r1(self, runner, emitted):
        files = emitted("minkowski")
        res, report = run_json(runner, ["holonomy", "-m", files["g"],
                                        "--samples", "8"])
        assert res.exit_code == 0
        assert report["label"] == "R1"
        # the report states the tolerance the survey decided with
        assert report["tolerances"]["span_tol"] == SPAN_TOL

    def test_partner_order1_closes(self, runner, emitted, tmp_path):
        # the derived r9 partner's order-1 closure used to exceed so(1,3)
        # and exit 2
        files = emitted("r9")
        partner = str(tmp_path / "partner.json")
        res = runner.invoke(main, ["derive-partner", "-m", files["g"], "-a",
                                   files["a"], "-o", partner])
        assert res.exit_code == 0, res.output
        res, report = run_json(runner, ["holonomy", "-m", partner,
                                        "--order", "1", "--seed", "1"])
        assert res.exit_code == 0, res.output
        assert report["label"] != "unrecognized"

    def test_report_records_derivative_order(self, runner, emitted):
        # flat space gives the same algebra at every order, so the order
        # key is all that tells the two reports apart
        files = emitted("minkowski")
        reports = []
        for order in ("0", "1"):
            res, report = run_json(runner, ["holonomy", "-m", files["g"],
                                            "--samples", "4", "--order",
                                            order])
            assert res.exit_code == 0, res.output
            reports.append(report)
        assert [r.pop("derivative_order") for r in reports] == [0, 1]
        assert reports[0] == reports[1]


class TestSampleCount:
    @pytest.mark.parametrize("samples", ["0", "-3"])
    @pytest.mark.parametrize("command", ["classify", "holonomy",
                                         "weyl-projective"])
    def test_counts_below_one_are_usage_errors(self, runner, emitted,
                                               command, samples):
        files = emitted("r9")
        args = [command, "-m", files["g"], "--samples", samples]
        if command == "weyl-projective":
            args += ["-M", files["g"]]
        res = runner.invoke(main, args + ["--json"])
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--samples'" in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)


class TestSinyukovAndPartner:
    def test_sinyukov_check_passes(self, runner, emitted):
        files = emitted("r9")
        res, report = run_json(runner, ["sinyukov-check", "-m", files["g"],
                                        "-a", files["a"], "--samples", "20"])
        assert res.exit_code == 0
        assert report["residual"] < 1e-9

    def test_pair_file_binds_an_extra_parameter(self, runner, emitted,
                                                tmp_path):
        # the pair file's "parameters" are merged into the metric's: r9's
        # a times k/2 with k = 2 is r9's own pair
        files = emitted("r9")
        pair = json.loads(open(files["a"]).read())
        pair["a"] = [[f"k/2*({e})" for e in row] for row in pair["a"]]
        pair["parameters"] = {"k": 2}
        path = tmp_path / "k-a.json"
        path.write_text(json.dumps(pair))
        residuals = []
        for a in (files["a"], str(path)):
            res, report = run_json(runner, ["sinyukov-check", "-m",
                                            files["g"], "-a", a,
                                            "--samples", "8"])
            assert res.exit_code == 0, res.output
            residuals.append(report["residual"])
        # k/2 is 1 exactly, so each product is r9's to the bit
        assert residuals[1] == residuals[0] < 1e-13

    @pytest.mark.parametrize("edit", [
        lambda pair: {**pair, "parameters": {"xi": 0.5}},
        lambda pair: {**pair, "parameters": {"k": 2},
                      "a": [[f"k/2*({e})" for e in row]
                            for row in pair["a"]]},
    ], ids=["overridden-xi", "extra-k"])
    def test_pair_parameters_reach_projective_check(self, runner, emitted,
                                                    tmp_path, edit):
        # the partner binds the pair file's parameters; projective-check
        # used to evaluate it with g's (eq. 13 residual 0.27 for xi = 1/2)
        # and, with -a, the pair's psi too (error: Param('k') for k)
        files = emitted("r9")
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps(edit(json.loads(open(files["a"]).read()))))
        partner = str(tmp_path / "partner.json")
        res = runner.invoke(main, ["derive-partner", "-m", files["g"], "-a",
                                   str(pair), "-o", partner])
        assert res.exit_code == 0, res.output
        for psi in (["--auto-psi"], ["-a", str(pair)]):
            res, report = run_json(runner, ["projective-check", "-m",
                                            files["g"], "-M", partner, *psi])
            assert res.exit_code == 0, res.output
            values = [v for k, v in report.items()
                      if k.endswith(("_residual", "_diff"))]
            assert len(values) == (1 if psi == ["--auto-psi"] else 4)
            assert max(values) <= 1e-13

    def test_derive_partner_matches_expected(self, runner, emitted,
                                             tmp_path):
        files = emitted("r9")
        partner = str(tmp_path / "partner.json")
        res, report = run_json(runner, ["derive-partner", "-m", files["g"],
                                        "-a", files["a"], "-o", partner])
        assert res.exit_code == 0, res.output
        res2, rep2 = run_json(runner, ["weyl-projective", "-m", partner,
                                       "-M", files["gp"], "--samples", "10"])
        assert res2.exit_code == 0
        assert rep2["max_diff"] < 1e-8

    def test_a_past_the_overflow_is_one_error_line(self, runner, emitted,
                                                   tmp_path):
        # r9's a times 1e80: det a and the determinant test's threshold
        # overflow, and a is degenerate; the user sees the error alone,
        # and no numpy warning is raised on the way
        files = emitted("r9")
        with open(files["a"]) as fh:
            pair = json.load(fh)
        pair["a"] = [[f"1e80*({e})" for e in row] for row in pair["a"]]
        big = tmp_path / "big-a.json"
        big.write_text(json.dumps(pair))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, ["derive-partner", "-m", files["g"],
                                       "-a", str(big), "-o",
                                       str(tmp_path / "partner.json")])
        assert res.exit_code == 2
        assert res.stderr == "error: a is degenerate at a sample point\n"

    def test_projective_check_auto_psi(self, runner, emitted, tmp_path):
        files = emitted("r9")
        partner = str(tmp_path / "partner.json")
        runner.invoke(main, ["derive-partner", "-m", files["g"], "-a",
                             files["a"], "-o", partner])
        res, report = run_json(runner, ["projective-check", "-m", files["g"],
                                        "-M", partner, "--auto-psi",
                                        "--samples", "20"])
        assert res.exit_code == 0
        assert report["eq13_residual"] < 1e-8

    def test_projective_check_with_pair(self, runner, emitted, tmp_path):
        files = emitted("r11")
        partner = str(tmp_path / "partner.json")
        runner.invoke(main, ["derive-partner", "-m", files["g"], "-a",
                             files["a"], "-o", partner])
        res, report = run_json(runner, ["projective-check", "-m", files["g"],
                                        "-M", partner, "-a", files["a"],
                                        "--samples", "15"])
        assert res.exit_code == 0
        assert report["eq14_residual"] < 1e-8
        assert report["weyl_projective_diff"] < 1e-8

    @pytest.mark.parametrize("command", [
        ["derive-partner", "-o", "{partner}"], ["sinyukov-check"],
        ["projective-check", "-M", "{gp}"]])
    def test_non_finite_pair_is_usage_error(self, runner, emitted, tmp_path,
                                            command):
        # a_yy = ln(x - 5) is NaN on the whole sample box
        files = emitted("r9")
        data = json.loads(open(files["a"]).read())
        data["a"][3][3] = "ln(x - 5)"
        bad = tmp_path / "bad-a.json"
        bad.write_text(json.dumps(data))
        partner = tmp_path / "partner.json"
        args = [c.format(partner=partner, gp=files["gp"]) for c in command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, [*args, "-m", files["g"],
                                       "-a", str(bad)])
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        [line] = res.stderr.splitlines()
        assert line.startswith("error: ") and "not finite" in line
        assert not partner.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--auto-psi", "-a", "{a}"],
         "need --auto-psi or -a/--sinyukov for psi, not both"),
        ([], "need --auto-psi or -a/--sinyukov for psi"),
    ], ids=["both", "neither"])
    def test_psi_comes_from_exactly_one_source(self, runner, emitted, flags,
                                               message):
        # given both, the pair file used to be ignored without a word
        files = emitted("r9")
        res = runner.invoke(main, ["projective-check", "-m", files["g"],
                                   "-M", files["gp"], "--json",
                                   *[f.format(**files) for f in flags]])
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("args", [
        ["projective-check", "-a", "{a}"], ["weyl-projective"]])
    def test_metrics_on_other_coordinates_are_usage_error(self, runner,
                                                         emitted, args):
        # r9's (u, v, x, y) against r10's (t, x, y, z): unchecked,
        # projective-check leaks a KeyError from the compiler and
        # weyl-projective compares the two charts point by point
        files, other = emitted("r9"), emitted("r10")
        res = runner.invoke(main, [*[a.format(**files) for a in args],
                                   "-m", files["g"], "-M", other["g"],
                                   "--samples", "4"])
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert res.stderr == "error: metrics must share coordinates\n"

    def test_projective_check_fails_on_unrelated(self, runner, emitted,
                                                 tmp_path):
        files = emitted("r9")
        mink = {
            "version": 1, "coordinates": ["u", "v", "x", "y"],
            "parameters": {}, "metric": [["-1"], ["0", "1"], ["0", "0", "1"],
                                         ["0", "0", "0", "1"]],
            "constraints": ["v"],
            "sample_box": {"u": [0.5, 2], "v": [0.5, 2],
                           "x": [-1, 1], "y": [-1, 1]},
        }
        mink_path = tmp_path / "mink.json"
        mink_path.write_text(json.dumps(mink))
        res, report = run_json(runner, ["projective-check", "-m", files["g"],
                                        "-M", str(mink_path), "--auto-psi",
                                        "--samples", "10"])
        assert res.exit_code == 1
        assert report["aggregate"]["verdict"] == "fail"


class TestGeodesicCheck:
    def test_pass_and_negative_control(self, runner, emitted, tmp_path):
        files = emitted("r9")
        partner = str(tmp_path / "partner.json")
        runner.invoke(main, ["derive-partner", "-m", files["g"], "-a",
                             files["a"], "-o", partner])
        res, report = run_json(runner, ["geodesic-check", "-m", files["g"],
                                        "-M", partner, "--trials", "4",
                                        "--steps", "100", "--horizon", "0.5"])
        assert res.exit_code == 0
        assert report["score"] < 1e-6

        mink = {
            "version": 1, "coordinates": ["u", "v", "x", "y"],
            "parameters": {}, "metric": [["-1"], ["0", "1"], ["0", "0", "1"],
                                         ["0", "0", "0", "1"]],
            "constraints": ["v"],
            "sample_box": {"u": [0.5, 2], "v": [0.5, 2],
                           "x": [-1, 1], "y": [-1, 1]},
        }
        mink_path = tmp_path / "mink.json"
        mink_path.write_text(json.dumps(mink))
        res2, rep2 = run_json(runner, ["geodesic-check", "-m", files["g"],
                                       "-M", str(mink_path), "--trials", "4",
                                       "--steps", "50", "--horizon", "0.3"])
        assert res2.exit_code == 1
        assert rep2["score"] > 1e-2


    @pytest.mark.parametrize("args, message", [
        (["--trials", "0"], "--trials"),
        (["--steps", "-1"], "--steps"),
        (["--horizon", "0"], "--horizon"),
        # NaN passes click's range check; the library names it
        (["--horizon", "nan"], "horizon must be positive and finite"),
    ])
    def test_bad_run_size_is_a_usage_error(self, runner, emitted, args,
                                           message):
        files = emitted("r9")
        res, report = run_json(runner, ["geodesic-check", "-m", files["g"],
                                        "-M", files["g"], *args])
        assert res.exit_code == 2 and report is None
        assert message in res.output

    def test_long_run_keeps_stderr_empty(self, runner, emitted, tmp_path):
        # the determinant test overflows on these r11 trajectories; no
        # numpy warning may reach the user's stderr
        files = emitted("r11")
        partner = str(tmp_path / "partner.json")
        runner.invoke(main, ["derive-partner", "-m", files["g"], "-a",
                             files["a"], "-o", partner])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, report = run_json(runner, [
                "geodesic-check", "-m", files["g"], "-M", partner,
                "--steps", "400", "--horizon", "2", "--seed", "1"])
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        assert report["truncated"]


class TestSwappedRoles:
    def test_verdicts_survive_swapping_g_and_partner(self, runner, emitted,
                                                     tmp_path):
        # projective relatedness is symmetric: the partner's geodesics
        # are pre-geodesics of g as well
        files = emitted("r9")
        partner = str(tmp_path / "partner.json")
        res = runner.invoke(main, ["derive-partner", "-m", files["g"], "-a",
                                   files["a"], "-o", partner])
        assert res.exit_code == 0, res.output
        short = ["--trials", "4", "--steps", "50", "--horizon", "0.1"]
        for first, second in ((files["g"], partner), (partner, files["g"])):
            for args in (["weyl-projective", "--samples", "4"],
                         ["geodesic-check", *short],
                         ["projective-check", "--auto-psi", "--samples",
                          "4"]):
                res, report = run_json(runner, [*args, "-m", first,
                                                "-M", second])
                assert res.exit_code == 0, res.output
                assert report["aggregate"]["verdict"] == "pass"


class TestDegenerateSecondMetric:
    """A second metric that is degenerate at the sample points: a zero
    row, or g_yy = 1e-30 u next to O(1) entries."""

    @pytest.fixture(params=["zero-row", "tiny-gyy"])
    def degenerate(self, request, emitted, tmp_path):
        files = emitted("r9")
        data = json.loads(open(files["g"]).read())
        if request.param == "zero-row":
            data["metric"][3] = ["0", "0", "0", "0"]
        else:
            data["metric"][3][3] = "1e-30*u"
        path = tmp_path / f"{request.param}.json"
        path.write_text(json.dumps(data))
        return files, str(path)

    def test_auto_psi_reports_degenerate_metric(self, runner, degenerate):
        files, bad = degenerate
        res, report = run_json(runner, ["projective-check", "-m", files["g"],
                                        "-M", bad, "--auto-psi",
                                        "--samples", "4"])
        assert res.exit_code == 2 and report is None
        assert res.output.startswith("error: det g = ")
        assert " at [" in res.output

    def test_geodesic_check_fails_when_nothing_is_scored(self, runner,
                                                         degenerate):
        files, bad = degenerate
        res, report = run_json(runner, ["geodesic-check", "-m", files["g"],
                                        "-M", bad, "--trials", "3",
                                        "--steps", "10", "--horizon", "0.1"])
        assert res.exit_code == 1
        assert report["score"] == 0.0
        assert report["aggregate"]["verdict"] == "fail"
        assert report["truncated"] == [{"trial": t, "step": 0}
                                       for t in range(3)]


# command -> its arguments, the input files it digests (report key ->
# emitted file), and whether -o/--out writes the report
ENVELOPE_CASES = {
    "classify": (["-m", "{g}", "--samples", "2"], {"metric": "g"}, True),
    "holonomy": (["-m", "{g}", "--samples", "2", "--order", "0"],
                 {"metric": "g"}, True),
    "sinyukov-check": (["-m", "{g}", "-a", "{a}", "--samples", "2"],
                       {"metric": "g", "sinyukov": "a"}, True),
    "derive-partner": (["-m", "{g}", "-a", "{a}", "--samples", "2",
                        "-o", "{tmp}/partner.json"],
                       {"metric": "g", "sinyukov": "a"}, False),
    "projective-check": (["-m", "{g}", "-M", "{gp}", "-a", "{a}",
                          "--samples", "2"],
                         {"metric": "g", "metric2": "gp", "sinyukov": "a"},
                         True),
    "weyl-projective": (["-m", "{g}", "-M", "{gp}", "--samples", "2"],
                        {"metric": "g", "metric2": "gp"}, True),
    "geodesic-check": (["-m", "{g}", "-M", "{gp}", "--trials", "1",
                        "--steps", "2", "--horizon", "0.1"],
                       {"metric": "g", "metric2": "gp"}, True),
    "fixtures-list": ([], {}, False),
    "fixtures-emit": (["r9", "-o", "{tmp}/emitted"], {}, False),
}


class TestReportEnvelope:
    """Every command's report carries the same envelope, and a report
    written with -o/--out is the --json output byte for byte."""

    @pytest.mark.parametrize("command", ENVELOPE_CASES)
    def test_every_command_shares_one_envelope(self, runner, emitted,
                                               tmp_path, command):
        args, inputs, writes = ENVELOPE_CASES[command]
        files = emitted("r9")
        argv = command.replace("fixtures-", "fixtures ").split()
        argv += [a.format(tmp=tmp_path, **files) for a in args]
        out = tmp_path / "report.json"
        if writes:
            argv += ["-o", str(out)]
        res, report = run_json(runner, argv)
        assert res.exit_code == 0, res.output
        assert {"schema_version", "command", "inputs", "seed", "tolerances",
                "aggregate"} <= report.keys()
        assert report["command"] == command
        assert report["inputs"] == {
            key: hashlib.sha256(open(files[f], "rb").read()).hexdigest()
            for key, f in inputs.items()}
        assert report["aggregate"] == {"verdict": "pass"}
        if writes:
            assert out.read_bytes() == res.stdout_bytes

    def test_out_into_a_missing_directory_is_usage_error(self, runner,
                                                          emitted, tmp_path):
        files = emitted("r9")
        res = runner.invoke(main, ["classify", "-m", files["g"], "--samples",
                                   "2", "-o", str(tmp_path / "no" / "r.json")])
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        [line] = res.stderr.splitlines()
        assert line.startswith("error: ")


class TestFixedThresholds:
    """Each check decides at a fixed threshold, which its report states
    and no option sets."""

    @pytest.mark.parametrize("command, option, tolerances", [
        ("sinyukov-check", "--tol", {"tol": RESIDUAL_TOL}),
        ("derive-partner", "--tol", {"tol": RESIDUAL_TOL}),
        ("projective-check", "--tol", {"tol": RESIDUAL_TOL}),
        ("weyl-projective", "--tol", {"tol": RESIDUAL_TOL}),
        ("geodesic-check", "--geo-tol", {"geo_tol": GEODESIC_TOL}),
    ])
    def test_report_states_the_threshold_no_option_sets(
            self, runner, emitted, tmp_path, command, option, tolerances):
        args, _, _ = ENVELOPE_CASES[command]
        files = emitted("r9")
        argv = [command, *(a.format(tmp=tmp_path, **files) for a in args)]
        res, report = run_json(runner, argv)
        assert res.exit_code == 0, res.output
        assert report["tolerances"] == tolerances
        res = runner.invoke(main, argv + [option, "1e-6"])
        assert res.exit_code == 2
        assert f"No such option '{option}'" in res.stderr


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["classify", "--samples", "6"],
        ["holonomy", "--samples", "6"],
    ])
    def test_byte_identical_reports(self, runner, emitted, args):
        files = emitted("r9")
        full = [args[0], "-m", files["g"]] + args[1:] + ["--seed", "3"]
        res1, _ = run_json(runner, full)
        res2, _ = run_json(runner, full)
        assert res1.output == res2.output

    def test_seed_env_override(self, runner, emitted, monkeypatch):
        files = emitted("r9")
        res1, rep1 = run_json(runner, ["classify", "-m", files["g"],
                                       "--samples", "4"])
        monkeypatch.setenv("LORHOL_SEED", "99")
        res2, rep2 = run_json(runner, ["classify", "-m", files["g"],
                                       "--samples", "4"])
        assert rep1["seed"] == 7 and rep2["seed"] == 99
        assert rep1["points"] != rep2["points"]

    def test_seed_option_overrides_env_and_is_checked(self, runner, emitted,
                                                      monkeypatch):
        files = emitted("r9")
        args = ["classify", "-m", files["g"], "--samples", "2"]
        monkeypatch.setenv("LORHOL_SEED", "3")
        _, rep = run_json(runner, args)
        assert rep["seed"] == 3
        _, rep = run_json(runner, args + ["--seed", "5"])
        assert rep["seed"] == 5
        for bad_env, extra in (("3x", []), ("3", ["--seed", "3x"])):
            monkeypatch.setenv("LORHOL_SEED", bad_env)
            res, rep = run_json(runner, args + extra)
            assert res.exit_code == 2 and rep is None
            assert "not a valid integer" in res.output


# a -x or --long flag, not the tail of a word such as r9-g.json
_FLAG = re.compile(r"(?<![\w-])--?[A-Za-z][\w-]*")


def readme_drift(section: str, group: click.Group) -> tuple[list, list]:
    """(options of the group's commands that ``section`` names by none
    of their spellings, ``--flags`` in ``section`` that no command
    has), each sorted."""
    def commands(g):
        for cmd in g.commands.values():
            yield from commands(cmd) if isinstance(cmd, click.Group) else [cmd]

    named = set(_FLAG.findall(section))
    spellings = [p.opts + p.secondary_opts for cmd in commands(group)
                 for p in cmd.params if isinstance(p, click.Option)]
    known = {s for opts in spellings for s in opts}
    return (sorted({"/".join(opts) for opts in spellings
                    if not named & set(opts)}),
            sorted(f for f in named - known if f.startswith("--")))


def test_readme_cli_section_names_every_option_and_no_other():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert readme_drift(section, main) == ([], [])


def unexercised_options(sources: list[str], group: click.Group) -> list:
    """The options of the group's commands that no string literal of
    ``sources`` (test modules) spells, docstrings aside, read as
    readme_drift reads a section."""
    literals = []
    for source in sources:
        # ast.walk visits a body before its statements: each docstring
        # is known before it is reached
        tree, docs = ast.parse(source), set()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                    and node.body and isinstance(node.body[0], ast.Expr)):
                docs.add(id(node.body[0].value))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docs):
                literals.append(node.value)
    return readme_drift("\n".join(literals), group)[0]


def test_every_option_is_passed_by_a_test():
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert unexercised_options([p.read_text() for p in tests], main) == []


def test_unexercised_option_check_sees_what_it_should():
    @click.group()
    def group():
        pass

    @group.command()
    @click.option("-q", "--quiet", is_flag=True)
    @click.option("--alpha")
    @click.option("--beta")
    @click.option("--gamma/--no-gamma")
    @click.option("--delta")
    def leaf(quiet, alpha, beta, gamma, delta):
        pass

    source = ('def test_x():\n'
              '    """--beta, in a docstring"""\n'
              '    run(["leaf", "-q", f"--alpha={1}", "--no-gamma"])\n'
              '    # --delta, in a comment\n')
    assert unexercised_options([source], group) == ["--beta", "--delta"]


def test_readme_drift_check_sees_what_it_should():
    @click.group()
    def group():
        pass

    @group.group()
    def sub():
        pass

    @sub.command()
    @click.option("-m", "--metric")
    @click.option("--seed")
    @click.option("--flag/--no-flag")
    def leaf(metric, seed, flag):
        pass

    section = "`-m` and --no-flag, but r9-g.json and --svd-tol/--gone.\n"
    assert readme_drift(section, group) == (["--seed"],
                                            ["--gone", "--svd-tol"])
