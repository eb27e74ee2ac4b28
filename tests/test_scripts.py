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
    minkowski, r9 = fixture_spec("minkowski"), fixture_spec("r9")
    r9_partner = fixture_spec("r9", True)
    for digest, pattern in (
            (lambda: digests.survey_digest(minkowski, 4, 1, 1),
             r"[0-9a-f]{64} [0-9a-f]{64}"),
            (lambda: digests.classify_digest(r9, 4, 1), r"[0-9a-f]{64}"),
            (lambda: digests.geodesic_digest(r9, r9_partner, 1),
             r"[0-9a-f]{64}")):
        lines = [digest() for _ in range(2)]
        assert re.fullmatch(pattern, lines[0]), lines[0]
        assert lines[0] == lines[1]


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
