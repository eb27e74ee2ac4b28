#!/usr/bin/env python3
"""Per-row cost of the derivative stack, the step of frames_at that turns
the compiled block of metric jets into g^-1, Gamma, R and, at orders 3
and 4, the packed R;e and R;e;f.

For every listed fixture and the partner derived from its Sinyukov
pair, at each metric derivative order and each row count, this
evaluates g and the block of metric jets at that many sampled points
once, then times pointcalc._riemann_derivative_stack on them alone: the
best of ``--repeat`` rounds of ``--number`` calls, printed in
microseconds per row.  The block is evaluated outside the timed region,
so the numbers are the stack's own and do not include the compiled jet
program.  Run it pinned to one core (``taskset -c 0``) for stable
numbers.

Usage: python scripts/stack_timing.py [--fixtures r14 minkowski]
           [--orders 2 3 4] [--rows 1 8 32 128] [--repeat 10] [--number 5]
"""
import argparse
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorhol.fixtures import FIXTURE_NAMES, named_fixture  # noqa: E402
from lorhol.pointcalc import (  # noqa: E402
    _metric_jets, _riemann_derivative_stack, sample_points,
)
from lorhol.projective import invert_pair  # noqa: E402


def specs(names):
    for name in names:
        bundle = named_fixture(name)
        yield name, bundle.g
        if name != "minkowski":
            yield name + "-partner", invert_pair(bundle.pair).partner


def us_per_row(spec, order: int, rows: int, repeat: int, number: int):
    g, block = _metric_jets(spec, sample_points(spec, rows, seed=4),
                            order)[:2]
    run = lambda: _riemann_derivative_stack(g, block, order)  # noqa: E731
    run()
    best = min(timeit.repeat(run, number=number, repeat=repeat)) / number
    return best / rows * 1e6


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fixtures", nargs="+", default=list(FIXTURE_NAMES))
    ap.add_argument("--orders", nargs="+", type=int, default=[2, 3, 4],
                    choices=[2, 3, 4])
    ap.add_argument("--rows", nargs="+", type=int, default=[1, 8, 32, 128])
    ap.add_argument("--repeat", type=int, default=10)
    ap.add_argument("--number", type=int, default=5)
    args = ap.parse_args(argv)
    print("fixture order " + " ".join(f"{r:>8}-row" for r in args.rows)
          + "   (us per row, best of repeats)")
    for name, spec in specs(args.fixtures):
        for order in args.orders:
            cells = [us_per_row(spec, order, r, args.repeat, args.number)
                     for r in args.rows]
            print(f"{name} {order} " + " ".join(f"{c:12.1f}" for c in cells),
                  flush=True)


if __name__ == "__main__":
    main()
