#!/usr/bin/env python3
"""Pre-geodesic deviation sweep: how the score separates projectively
related partners from unrelated metrics as the integrator step shrinks.

Usage: python scripts/geodesic_sweep.py [--fixture r9] [--trials N]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorhol.fixtures import named_fixture  # noqa: E402
from lorhol.pointcalc import metric_spec  # noqa: E402
from lorhol.projective import invert_pair, pregeodesic_check  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fixture", default="r9")
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--horizon", type=float, default=1.0)
    args = ap.parse_args()

    bundle = named_fixture(args.fixture)
    pp = invert_pair(bundle.pair)
    mink = metric_spec(bundle.g.coords,
                       [["-1"], ["0", "1"], ["0", "0", "1"],
                        ["0", "0", "0", "1"]],
                       sample_box=bundle.g.sample_box)
    print(f"{'steps':>7s} {'identity':>12s} {'partner':>12s} {'unrelated':>12s}")
    for steps in (125, 250, 500, 1000, 2000):
        scores = []
        for other in (bundle.g, pp.partner, mink):
            rep = pregeodesic_check(bundle.g, other, trials=args.trials,
                                    steps=steps, horizon=args.horizon, seed=7)
            scores.append(rep.score)
        print(f"{steps:7d} {scores[0]:12.3e} {scores[1]:12.3e} "
              f"{scores[2]:12.3e}")


if __name__ == "__main__":
    main()
