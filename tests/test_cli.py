import json
import warnings

import pytest
from click.testing import CliRunner

from lorhol.cli import main
from lorhol.holonomy import SPAN_TOL


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

    @pytest.mark.parametrize("entry, message", [
        ("1e400*u", "constant out of float range in `1" + "0" * 400 + "`"),
        ("(" * 199 + "u" + ")" * 199,
         "nesting deeper than 100 levels (offset 100)"),
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
        assert res.output == f"error: {message}\n"


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
