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
