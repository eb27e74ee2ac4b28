import importlib.util
import re
from pathlib import Path

from helpers import fixture_spec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_survey_digests_prints_two_stable_digests():
    # the byte-identity check between commits rests on this line
    spec = importlib.util.spec_from_file_location(
        "survey_digests", SCRIPTS / "survey_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    minkowski = fixture_spec("minkowski")
    lines = [digests.survey_digest(minkowski, 4, 1, 1) for _ in range(2)]
    assert re.fullmatch(r"[0-9a-f]{64} [0-9a-f]{64}", lines[0]), lines[0]
    assert lines[0] == lines[1]
