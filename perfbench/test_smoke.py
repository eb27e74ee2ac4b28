"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]


def _bindings(modules, frame_cls):
    out = {(mod.__name__, name): value
           for mod in modules for name, value in vars(mod).items()}
    out.update({("PointFrame", name): value
                for name, value in vars(frame_cls).items()})
    return out


def test_tracer_removes_its_wrappers():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import tracing
        import lorhol.cli  # noqa: F401  (its bindings are wrapped too)
        from lorhol import exprdsl, pointcalc
        from lorhol.fixtures import named_fixture

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "lorhol" or n.startswith("lorhol.")]
        before = _bindings(modules, pointcalc.PointFrame)
        spec = named_fixture("r9").g
        tracer = tracing.Tracer()
        with tracer:
            assert exprdsl.parse_expr is not before[("lorhol.exprdsl",
                                                     "parse_expr")]
            pointcalc.frame_at(spec, (1.0, 1.0, 0.2, 0.3)).cov_riemann
        at_exit = tracer.snapshot()
        assert at_exit["pointcalc.frame"]["calls"] == 1
        assert at_exit["pointcalc.cov_riemann"]["calls"] == 1

        after = _bindings(modules, pointcalc.PointFrame)
        assert after.keys() == before.keys()
        changed = [k for k in before if after[k] is not before[k]]
        assert not changed

        # code run after exit, compiling new programs, is not counted
        other = named_fixture("r14").g
        pointcalc.frame_at(other, (1.0, 1.0, 0.2, 0.3)).cov_riemann
        coords = ("u", "v", "x", "y")
        exprdsl.compile_program([exprdsl.parse_expr("u*v", coords)], coords,
                                ())([[1.0, 2.0, 3.0, 4.0]])
        assert tracer.snapshot() == at_exit
    finally:
        del sys.path[:2]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
