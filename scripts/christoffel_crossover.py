#!/usr/bin/env python3
"""Where the fused Christoffel program stops paying: emitted lines,
per-call time and per-call peak memory of christoffel_batch's two paths.

The fused path evaluates det g and Gamma in the metric's one compiled
call; the numeric path evaluates the order-1 jets and then calls
np.linalg.det, np.linalg.inv and one einsum.  For every shipped fixture,
every derived partner and a ladder of synthetic metrics with more and
more off-diagonal entries, this prints the lines of the jet program, the
lines the fused rows add to it (what pointcalc._FUSED_LINES bounds), the
best per-call time of each path at 20 rows (one RK4 stage of a default
geodesic-check, the traffic of its first metric) and at 240 rows (one
block of its second metric), and the traced peak memory of one 240-row
call.  Next to them, at 20 rows, it prints the bare call of the compiled
program that christoffel_batch runs for the metric (the fused program,
or the order-1 jet program past the budget) and the whole
christoffel_batch call, so the per-call overhead around the program
shows.  The last line fits the difference of the two paths' times at
20 rows as a line in the added lines, and gives where it crosses zero.

Usage: python scripts/christoffel_crossover.py [--repeat 5] [--number 200]
"""
import argparse
import sys
import timeit
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from lorhol.exprdsl import count_lines  # noqa: E402
from lorhol.fixtures import FIXTURE_NAMES, named_fixture  # noqa: E402
from lorhol.pointcalc import (  # noqa: E402
    _christoffel_kernel, _christoffel_rows, _fused_christoffel,
    _fused_program, _jet_levels, _metric_program, _numeric_christoffel,
    christoffel_batch, metric_spec, sample_points,
)
from lorhol.projective import invert_pair  # noqa: E402

ROWS = (20, 240)
DIAGONAL = ["-1 - u^2", "1 + v^2", "1 + x^2", "1 + y^2"]
# off-diagonal entries (a, b) filled one more per ladder rung
OFF_DIAGONAL = [((1, 0), "u*v/10"), ((2, 1), "v*x/10"), ((3, 2), "x*y/10"),
                ((2, 0), "u*x/10"), ((3, 1), "v*y/10"), ((3, 0), "u*y/10")]
BOX = ((0.5, 1.0),) * 4


def ladder():
    for k in range(len(OFF_DIAGONAL) + 1):
        rows = [["0"] * (a + 1) for a in range(4)]
        for a in range(4):
            rows[a][a] = DIAGONAL[a]
        for (a, b), entry in OFF_DIAGONAL[:k]:
            rows[a][b] = entry
        yield f"ladder-{k}", metric_spec("uvxy", rows, sample_box=BOX)


def specs():
    for name in FIXTURE_NAMES:
        bundle = named_fixture(name)
        yield name, bundle.g
        if name != "minkowski":
            yield name + "-partner", invert_pair(bundle.pair).partner
    yield from ladder()


def per_call_us(run, repeat, number):
    run()
    return min(timeit.repeat(run, number=number, repeat=repeat)) / number * 1e6


def peak_kb(run):
    run()
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1024


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--number", type=int, default=200)
    args = ap.parse_args()

    head = "".join(f" {'fused@' + str(n):>10s} {'numeric@' + str(n):>11s}"
                   for n in ROWS)
    print(f"{'metric':16s} {'jet lines':>9s} {'added':>6s}{head} "
          f"{'fused KB':>8s} {'numeric KB':>10s} "
          f"{'program@' + str(ROWS[0]):>10s} {'batch@' + str(ROWS[0]):>8s}")
    points = []
    for name, spec in specs():
        jets = [e for level in _jet_levels(spec.g, spec.coords, 1)
                for e in level.values()] + list(spec.constraints)
        rows = tuple(_christoffel_rows(spec.g, spec.coords))
        jet_lines = count_lines(jets)
        added = count_lines(jets + list(rows)) - jet_lines
        fused = _fused_program(spec, rows)
        cells = ""
        for n in ROWS:
            pts = sample_points(spec, n, seed=1)
            runs = (lambda: _fused_christoffel(*fused, pts),
                    lambda: _numeric_christoffel(spec, pts))
            tf, tn = (per_call_us(run, args.repeat, args.number)
                      for run in runs)
            cells += f" {tf:10.1f} {tn:11.1f}"
            if n == ROWS[0]:
                points.append((added, tf - tn))
        kb = [peak_kb(run) for run in runs]
        # the program christoffel_batch runs, alone and in the whole call
        kernel = _christoffel_kernel(spec)
        if kernel.func is _fused_christoffel:
            f, values = kernel.args
        else:
            f, _, values = _metric_program(spec, 1)
        pts = sample_points(spec, ROWS[0], seed=1)
        tp, tb = (per_call_us(run, args.repeat, args.number)
                  for run in (lambda: f(pts, values),
                              lambda: christoffel_batch(spec, pts)))
        print(f"{name:16s} {jet_lines:9d} {added:6d}{cells} "
              f"{kb[0]:8.0f} {kb[1]:10.0f} {tp:10.1f} {tb:8.1f}", flush=True)

    # fused minus numeric at 20 rows, against the added lines: a least-
    # squares line through every metric, and its zero
    x, y = np.array(points, dtype=float).T
    slope, icpt = np.polyfit(x, y, 1)
    print(f"fused - numeric at {ROWS[0]} rows ~ {icpt:.1f} us + "
          f"{slope:.3f} us per added line: equal at {-icpt / slope:.0f} "
          "added lines")


if __name__ == "__main__":
    main()
