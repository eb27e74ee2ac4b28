#!/usr/bin/env python3
"""Per-step cost of the pre-geodesic check, the RK4 loop of
projective.pregeodesic_check.

For every listed fixture this times pregeodesic_check with the
fixture's metric driving the RK4 against three second metrics: itself
(``self``), the partner derived from its Sinyukov pair (``partner``)
and the flat Minkowski metric in the same chart (``flat``).  Each run
has ``--trials`` trajectories (20, the CLI's batch width) of ``--steps``
steps of size 1e-3, as in the benchmark's geodesic workload, from the
start points and velocities of ``--seed``.  A warm-up run fills the
compile caches first, so the numbers are the loop's own: the best of
``--repeat`` rounds of ``--number`` runs, printed in microseconds per
RK4 step of all trials, with the steps the run scored, the number of
trials it stopped and the first step at which one stopped (``-`` if
none did).  Long runs (``--steps 2000``) stop trials that leave a
metric's domain, so they time the loop with truncation.  Run it pinned
to one core (``taskset -c 0``) for stable numbers.

Usage: python scripts/geodesic_timing.py [--fixtures r9 r11 r14]
           [--trials 20] [--steps 125] [--seed 1] [--repeat 5]
           [--number 3]
"""
import argparse
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorhol.fixtures import FIXTURE_NAMES, named_fixture  # noqa: E402
from lorhol.pointcalc import metric_spec  # noqa: E402
from lorhol.projective import invert_pair, pregeodesic_check  # noqa: E402

STEP = 1e-3
FLAT = [["-1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]


def pairs(names):
    for name in names:
        bundle = named_fixture(name)
        g = bundle.g
        yield name, "self", g, g
        if name != "minkowski":
            yield name, "partner", g, invert_pair(bundle.pair).partner
        yield name, "flat", g, metric_spec(g.coords, FLAT,
                                           sample_box=g.sample_box)


def us_per_step(g, other, trials: int, steps: int, seed: int, repeat: int,
                number: int):
    def run():
        return pregeodesic_check(g, other, trials=trials, steps=steps,
                                 horizon=steps * STEP, seed=seed)
    rep = run()
    best = min(timeit.repeat(run, number=number, repeat=repeat)) / number
    return best / steps * 1e6, rep


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fixtures", nargs="+", default=["r9", "r11", "r14"],
                    choices=list(FIXTURE_NAMES))
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--steps", type=int, default=125)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--number", type=int, default=3)
    args = ap.parse_args(argv)
    print(f"{'fixture':9s} {'pair':8s} {'us/step':>10s} {'scored':>7s}"
          f" {'stops':>5s} {'first':>5s}"
          f"   (best of repeats, {args.trials} trials)")
    for name, kind, g, other in pairs(args.fixtures):
        us, rep = us_per_step(g, other, args.trials, args.steps, args.seed,
                              args.repeat, args.number)
        first = min((s for _, s in rep.truncated), default="-")
        print(f"{name:9s} {kind:8s} {us:10.1f} {rep.scored:7d}"
              f" {len(rep.truncated):5d} {first:>5}", flush=True)


if __name__ == "__main__":
    main()
