#!/usr/bin/env python3
"""Cost of the two pointwise decisions at the shape of the benchmark's
survey-warm workload: classify_curvature per point, and one
holonomy_survey per call.

For every listed fixture and the partner derived from its Sinyukov
pair, this times classify_curvature on the frames of ``--samples``
sampled points (16 for a fixture, 8 for a partner, as survey-warm
takes), printed in microseconds per point, and one holonomy_survey call
of as many points at each listed derivative order, printed in
milliseconds per call.  The frames are built once, outside the timed
region, so the classify figure is the decision's own.  A survey call
includes sampling, the frames, the closure and the labels.  A warm-up
call fills the compile caches first, so no figure includes a compile.
Each figure is the best of ``--repeat`` rounds of ``--number`` calls.  A
survey that raises MetricError prints ``fail``.  A partner's order-2
survey is not run and prints ``-``: its order-4 tables take minutes to
compile, and survey-warm does not run it.  Run it pinned to one core
(``taskset -c 0``) for stable numbers.

Usage: python scripts/survey_timing.py [--fixtures r9 r14]
           [--orders 0 1 2] [--samples 16 8] [--seed 1] [--repeat 5]
           [--number 3]
"""
import argparse
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorhol.curvclass import classify_curvature  # noqa: E402
from lorhol.fixtures import FIXTURE_NAMES, named_fixture  # noqa: E402
from lorhol.holonomy import holonomy_survey  # noqa: E402
from lorhol.pointcalc import (  # noqa: E402
    MetricError, frames_at, sample_points,
)
from lorhol.projective import invert_pair  # noqa: E402


def specs(names):
    """(name, spec, partner?) for each fixture and its derived partner."""
    for name in names:
        bundle = named_fixture(name)
        yield name, bundle.g, False
        if name != "minkowski":
            yield name + "-partner", invert_pair(bundle.pair).partner, True


def best(run, repeat: int, number: int) -> float:
    """Seconds per call of run, best of the rounds, after one warm-up."""
    run()
    return min(timeit.repeat(run, number=number, repeat=repeat)) / number


def classify_us(spec, samples: int, seed: int, repeat: int,
                number: int) -> float:
    frames = list(frames_at(spec, sample_points(spec, samples, seed=seed)))
    run = lambda: [classify_curvature(fr) for fr in frames]  # noqa: E731
    return best(run, repeat, number) / len(frames) * 1e6


def survey_ms(spec, samples: int, order: int, seed: int, repeat: int,
              number: int) -> str:
    run = lambda: holonomy_survey(spec, samples=samples,  # noqa: E731
                                  seed=seed, derivative_order=order)
    try:
        return f"{best(run, repeat, number) * 1e3:.2f}"
    except MetricError:  # a sample point the survey cannot frame
        return "fail"


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fixtures", nargs="+", default=list(FIXTURE_NAMES))
    ap.add_argument("--orders", nargs="+", type=int, default=[0, 1, 2],
                    choices=[0, 1, 2])
    ap.add_argument("--samples", nargs=2, type=int, default=[16, 8],
                    metavar=("FIXTURE", "PARTNER"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--number", type=int, default=3)
    args = ap.parse_args(argv)
    print(f"{'fixture':16} {'classify':>9} "
          + " ".join(f"{f'holonomy-{o}':>10}" for o in args.orders)
          + "   (classify: us per point; holonomy: ms per survey;"
            " best of repeats)")
    for name, spec, partner in specs(args.fixtures):
        n = args.samples[partner]
        cells = [survey_ms(spec, n, order, args.seed, args.repeat,
                           args.number)
                 if not (partner and order == 2) else "-"
                 for order in args.orders]
        us = classify_us(spec, n, args.seed, args.repeat, args.number)
        print(f"{name:16} {us:9.1f} " + " ".join(f"{c:>10}" for c in cells),
              flush=True)


if __name__ == "__main__":
    main()
