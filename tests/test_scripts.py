import importlib.util
import re
from pathlib import Path

from helpers import fixture_spec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_survey_digests_prints_two_stable_digests():
    # the byte-identity check between commits rests on these lines
    spec = importlib.util.spec_from_file_location(
        "survey_digests", SCRIPTS / "survey_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    minkowski, r9 = fixture_spec("minkowski"), fixture_spec("r9")
    for digest, pattern in (
            (lambda: digests.survey_digest(minkowski, 4, 1, 1),
             r"[0-9a-f]{64} [0-9a-f]{64}"),
            (lambda: digests.classify_digest(r9, 4, 1), r"[0-9a-f]{64}")):
        lines = [digest() for _ in range(2)]
        assert re.fullmatch(pattern, lines[0]), lines[0]
        assert lines[0] == lines[1]
