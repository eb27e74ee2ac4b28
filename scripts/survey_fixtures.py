#!/usr/bin/env python3
"""Survey every shipped fixture: curvature class, holonomy label and the
Sinyukov/projective closure residuals, printed as one table row each.

Usage: python scripts/survey_fixtures.py [--samples N] [--seed S]
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorhol.curvclass import classify_curvature  # noqa: E402
from lorhol.fixtures import FIXTURE_NAMES, named_fixture  # noqa: E402
from lorhol.holonomy import holonomy_survey  # noqa: E402
from lorhol.pointcalc import frames_at, sample_points  # noqa: E402
from lorhol.projective import (  # noqa: E402
    invert_pair, projective_residual, psi_from_connections, sinyukov_residual,
)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=24)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    header = (f"{'fixture':16s} {'class':6s} {'holonomy':9s} "
              f"{'sinyukov':>10s} {'projective':>11s} {'secs':>6s}")
    print(header)
    print("-" * len(header))
    for name in FIXTURE_NAMES:
        t0 = time.time()
        bundle = named_fixture(name)
        pts = sample_points(bundle.g, args.samples, seed=args.seed)
        tags = {classify_curvature(fr).tag for fr in frames_at(bundle.g, pts)}
        hol = holonomy_survey(bundle.g, samples=min(args.samples, 16),
                              seed=args.seed)
        siny = sinyukov_residual(bundle.pair, pts)
        pp = invert_pair(bundle.pair, pts)
        psi = psi_from_connections(bundle.g, pp.partner, pts)
        proj = projective_residual(bundle.g, pp.partner, psi, pts)
        flag = "" if hol.label in bundle.expected_holonomy else "  (!)"
        print(f"{name:16s} {'/'.join(sorted(tags)):6s} {hol.label:9s} "
              f"{siny:10.2e} {proj:11.2e} {time.time() - t0:6.2f}{flag}")


if __name__ == "__main__":
    main()
