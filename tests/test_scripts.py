import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import fixture_spec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_survey_digests_prints_two_stable_digests():
    # the byte-identity check between commits rests on these lines
    spec = importlib.util.spec_from_file_location(
        "survey_digests", SCRIPTS / "survey_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    minkowski, r9, r11 = (fixture_spec(name)
                          for name in ("minkowski", "r9", "r11"))
    r9_partner = fixture_spec("r9", True)
    for digest, pattern in (
            (lambda: digests.survey_digest(minkowski, 4, 1, 1),
             r"[0-9a-f]{64} [0-9a-f]{64}"),
            (lambda: digests.classify_digest(r9, 4, 1),
             r"[0-9a-f]{64} [0-9a-f]{64}"),
            # class D at every point: each digest reads the lazy blades
            (lambda: digests.classify_digest(r11, 4, 1),
             r"[0-9a-f]{64} [0-9a-f]{64}"),
            (lambda: digests.geodesic_digest(r9, r9_partner, 1),
             r"[0-9a-f]{64}")):
        lines = [digest() for _ in range(2)]
        assert re.fullmatch(pattern, lines[0]), lines[0]
        assert lines[0] == lines[1]


def test_survey_digests_synthetic_section_reaches_b_r5_and_r12():
    # the fixtures never reach class B, R5 or R12: this section does, and
    # each line ends in the class or label it was built to have
    spec = importlib.util.spec_from_file_location(
        "survey_digests", SCRIPTS / "survey_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    lines = digests.synthetic_lines()
    assert len(lines) == 2 * (5 + 14)
    for line in lines:
        # a classify line carries its decision digest after the full one
        name, *hashes, got = line.split(" ")
        case = name.split(":")[1].split("-", 1)[1]
        assert len(hashes) == (2 if "classify" in name else 1), line
        for digest in hashes:
            assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert got == (case[0] if "classify" in name else case), line


def test_stack_timing_prints_one_line_per_fixture_and_order(capsys):
    spec = importlib.util.spec_from_file_location(
        "stack_timing", SCRIPTS / "stack_timing.py")
    timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(timing)
    timing.main(["--fixtures", "minkowski", "--orders", "2", "--rows", "1",
                 "--repeat", "1", "--number", "1"])
    head, line = capsys.readouterr().out.splitlines()
    assert head.startswith("fixture order")
    assert re.fullmatch(r"minkowski 2 +[0-9]+\.[0-9]", line), line


def test_survey_timing_prints_one_line_per_fixture_and_partner(capsys):
    _script("survey_timing").main(["--fixtures", "minkowski", "r9",
                                   "--orders", "0", "2", "--samples", "2",
                                   "2", "--repeat", "1", "--number", "1"])
    head, *lines = capsys.readouterr().out.splitlines()
    assert head.split()[:4] == ["fixture", "classify", "holonomy-0",
                                "holonomy-2"]
    assert [line.split()[0] for line in lines] == [
        "minkowski", "r9", "r9-partner"]
    for line in lines:
        # a partner's order-2 survey is not run
        last = "-" if "partner" in line else r"[0-9]+\.[0-9]{2}"
        assert re.fullmatch(r"[a-z0-9-]+ +[0-9]+\.[0-9] +[0-9]+\.[0-9]{2} +"
                            + last, line), line


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_geodesic_timing_prints_one_line_per_pair(capsys):
    _script("geodesic_timing").main(["--fixtures", "r9", "minkowski",
                                     "--steps", "2", "--repeat", "1",
                                     "--number", "1"])
    head, *lines = capsys.readouterr().out.splitlines()
    assert head.split()[:5] == ["fixture", "pair", "us/step", "scored",
                                "stops"]
    # minkowski has no derived partner
    assert [line.split()[:2] for line in lines] == [
        ["r9", "self"], ["r9", "partner"], ["r9", "flat"],
        ["minkowski", "self"], ["minkowski", "flat"]]
    for line in lines:
        assert re.fullmatch(r"[a-z0-9]+ +[a-z]+ +[0-9]+\.[0-9] +40 +0 +-",
                            line), line


def test_geodesic_sweep_scans_seeds_at_the_benchmark_shape(capsys):
    # seed 1055 is the benchmark's pass 55 at --seed 1, where the r9 and
    # r14 partner scores once read rounding noise over a vanishing A'
    _script("geodesic_sweep").main(["--seeds", "1055", "1055"])
    head, columns, *lines = capsys.readouterr().out.splitlines()
    assert head == ("seeds 1055-1055: 20 trials x 125 steps, horizon "
                    "0.125, fixtures r9 r11 r14")
    assert columns.split() == ["kind", "worst", "seed", "fixture", "decades"]
    rows = {kind: (float(score), int(seed), name, float(decades))
            for kind, score, seed, name, decades in map(str.split, lines)}
    assert list(rows) == ["self", "partner", "flat"]
    assert rows["self"] == (0.0, 1055, "r9", float("inf"))
    score, seed, _, decades = rows["partner"]
    assert score < 1e-12 and decades > 6 and seed == 1055
    score, _, _, decades = rows["flat"]
    assert score > 1e-2 and decades > 4


def test_survey_fixtures_rows_meet_each_fixtures_expectations(capsys):
    from lorhol.fixtures import FIXTURE_NAMES, named_fixture
    _script("survey_fixtures").main(["--samples", "2"])
    head, _, *lines = capsys.readouterr().out.splitlines()
    assert head.split() == ["fixture", "class", "holonomy", "sinyukov",
                            "projective", "secs"]
    assert [line.split()[0] for line in lines] == list(FIXTURE_NAMES)
    for line in lines:
        assert "(!)" not in line, line
        name, tag, label, siny, proj, _ = line.split()
        bundle = named_fixture(name)
        assert tag == bundle.expected_class, line
        assert label in bundle.expected_holonomy, line
        assert float(siny) < 1e-8 and float(proj) < 1e-8, line


@pytest.mark.parametrize("argv", [["survey_fixtures.py", "--samples", "2"]]
                         + [[p.name, "--help"]
                            for p in sorted(SCRIPTS.glob("*.py"))])
def test_experiment_scripts_run_from_a_checkout(argv, tmp_path):
    # no PYTHONPATH and a foreign working directory: the script must find
    # lorhol in the src/ of its own checkout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage:" if "--help" in argv else "fixture")


def test_readme_names_every_script():
    readme = (SCRIPTS.parent / "README.md").read_text()
    for script in SCRIPTS.glob("*.py"):
        assert f"`{script.name}`" in readme, script.name
