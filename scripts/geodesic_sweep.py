#!/usr/bin/env python3
"""Pre-geodesic deviation sweep: how the score separates projectively
related partners from unrelated metrics as the integrator step shrinks.

With ``--seeds A B`` it scans seeds A..B (inclusive) instead, at the
shape of the benchmark's geodesic workload: r9, r11 and r14 each drive
20 trials of 125 steps over horizon 0.125 against themselves
(``self``), their derived partners (``partner``) and the flat Minkowski
metric (``flat``).  Per pair kind it prints the worst score (the largest
for self and partner pairs, the smallest for flat ones), the seed and
fixture where it occurs, and its margin in decades to ``geodesic-check``'s
default tolerance 1e-6 (positive when the score is on the right side).
The benchmark's pass k at ``--seed s`` uses seed 1000 s + k.

Usage: python scripts/geodesic_sweep.py [--fixture r9] [--trials N]
       python scripts/geodesic_sweep.py --seeds 1000 1149
"""
import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorhol.fixtures import named_fixture  # noqa: E402
from lorhol.pointcalc import metric_spec  # noqa: E402
from lorhol.projective import invert_pair, pregeodesic_check  # noqa: E402

FLAT = [["-1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]
GEO_TOL = 1e-6
BENCH_FIXTURES = ("r9", "r11", "r14")
BENCH_TRIALS, BENCH_STEPS, BENCH_HORIZON = 20, 125, 0.125


def _others(bundle):
    """(kind, second metric): the fixture itself, its derived partner and
    the flat metric in its chart."""
    g = bundle.g
    return [("self", g), ("partner", invert_pair(bundle.pair).partner),
            ("flat", metric_spec(g.coords, FLAT, sample_box=g.sample_box))]


def sweep_steps(fixture: str, trials: int, horizon: float) -> None:
    bundle = named_fixture(fixture)
    others = [spec for _, spec in _others(bundle)]
    print(f"{'steps':>7s} {'identity':>12s} {'partner':>12s} {'unrelated':>12s}")
    for steps in (125, 250, 500, 1000, 2000):
        scores = [pregeodesic_check(bundle.g, other, trials=trials,
                                    steps=steps, horizon=horizon,
                                    seed=7).score
                  for other in others]
        print(f"{steps:7d} {scores[0]:12.3e} {scores[1]:12.3e} "
              f"{scores[2]:12.3e}")


def scan_seeds(first: int, last: int) -> None:
    pairs = [(name, kind, bundle.g, other)
             for name in BENCH_FIXTURES
             for bundle in (named_fixture(name),)
             for kind, other in _others(bundle)]
    worst: dict[str, tuple] = {}
    for seed in range(first, last + 1):
        for name, kind, g, other in pairs:
            score = pregeodesic_check(g, other, trials=BENCH_TRIALS,
                                      steps=BENCH_STEPS,
                                      horizon=BENCH_HORIZON, seed=seed).score
            # a flat pair's worst score is its smallest
            key = -score if kind == "flat" else score
            if kind not in worst or key > worst[kind][0]:
                worst[kind] = (key, score, seed, name)
    print(f"seeds {first}-{last}: {BENCH_TRIALS} trials x {BENCH_STEPS} "
          f"steps, horizon {BENCH_HORIZON}, fixtures "
          + " ".join(BENCH_FIXTURES))
    print(f"{'kind':8s} {'worst':>10s} {'seed':>6s} {'fixture':>8s} "
          f"{'decades':>8s}")
    for kind in ("self", "partner", "flat"):
        _, score, seed, name = worst[kind]
        if kind == "flat":
            margin = math.log10(score / GEO_TOL) if score else -math.inf
        else:
            margin = math.log10(GEO_TOL / score) if score else math.inf
        print(f"{kind:8s} {score:10.3e} {seed:6d} {name:>8s} "
              f"{margin:8.1f}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--fixture", default="r9")
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("A", "B"),
                    help="scan seeds A..B at the benchmark's shape")
    args = ap.parse_args(argv)
    if args.seeds:
        scan_seeds(*args.seeds)
    else:
        sweep_steps(args.fixture, args.trials, args.horizon)


if __name__ == "__main__":
    main()
