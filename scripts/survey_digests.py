#!/usr/bin/env python3
"""Digest in-process holonomy surveys and curvature classifications.

Each survey line reads ``spec:o<order>:s<seed> full-sha256
label-sha256``, each classification line ``spec:classify:s<seed>
sha256``, each geodesic line ``fixture:geodesic-<kind>:s<seed>
sha256``; any of them is followed by the exception class when a call
raised.

The in-process counterpart of ``report_digests.py``: for every listed
fixture and the partner derived from its Sinyukov pair, orders 0-2 on
both, and each seed, run ``holonomy_survey``.  The full digest hashes
everything it returns: the label and mixed-types flag, every per-point
entry (point bytes, label, dimension), and the representative's
dimension, basis bytes, constant directions with their characters,
recurrent directions, omega, realizability and diagnostics.  The CLI
report omits the basis, so this is the byte-identity check for the
closure path.  The label-only digest hashes just the label, the
mixed-types flag, each point's label and dimension, the
representative's dimension, the characters of its constant directions
and the number of its recurrent directions; it survives a change of
basis representation.  A survey that raises is hashed, in both, by its
exception class and message.

The classification digest covers, at each of the same sampled points
of every listed fixture and partner, every field of
``classify_curvature``: the tag, kernel bytes, range bivector
components, margin, the class-D bivector with its class, theta and
blade or canonical pair, the class-C direction and the class-B dual
pair; and the basis bytes of ``solve_theorem1``.  The CLI report shows
only dimensions, margin and theta, so this is the byte-identity check
for the rank and kernel decisions.  A call that raises is hashed by its
exception class and message, and the point's remaining calls still run.

The geodesic digest covers the pre-geodesic RK4 path of each listed
fixture g against a second metric of each kind: ``self`` (g itself),
``partner`` (the partner derived from its Sinyukov pair) and ``flat``
(the Minkowski metric in g's chart and sample box).  It hashes the
report fields (score, truncated, scored) of ``pregeodesic_check`` from
a short run (4 trials x 50 steps, horizon 0.1) and from a truncating
run (20 trials x 400 steps, horizon 2), and the bytes of
``christoffel_batch``'s (gamma, ok, admissible) for both metrics at
points sampled from g's domain and from its sample box widened by its
own width on every side, so that the masks and the placeholder rows
are covered too.  ``report_digests.py`` reaches this path only through
the CLI and on four fixtures.

Two checkouts that survey and classify alike print the same lines, and
the check is a ``diff`` of their outputs.  Uses only the standard
library, numpy and lorhol from the ``src/`` of the checkout that holds
this script.

Usage: python scripts/survey_digests.py [--fixtures r9 r11 ...]
           [--seeds 0 1 2 3 4 5] [--samples 12]
"""
import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorhol.curvclass import classify_curvature, solve_theorem1  # noqa: E402
from lorhol.fixtures import FIXTURE_NAMES, named_fixture  # noqa: E402
from lorhol.holonomy import holonomy_survey  # noqa: E402
from lorhol.pointcalc import (  # noqa: E402
    christoffel_batch, frames_at, metric_spec, sample_points,
)
from lorhol.projective import invert_pair, pregeodesic_check  # noqa: E402

ORDERS = (0, 1, 2)
# (trials, steps, horizon): a short run and one whose trajectories leave
# the domain and truncate
GEODESIC_RUNS = ((4, 50, 0.1), (20, 400, 2.0))
FLAT_ROWS = [["-1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]


def _put(h, *items):
    for x in items:
        h.update(x.tobytes() if hasattr(x, "tobytes") else repr(x).encode())
        h.update(b"|")


def classify_digest(spec, samples: int, seed: int) -> str:
    """The digest of every classify_curvature and solve_theorem1 result
    at the sampled points, followed by the class of the last exception
    if any call raised."""
    h = hashlib.sha256()
    raised = []

    def attempt(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001  the error is the result
            _put(h, "raised", type(exc).__name__, str(exc))
            raised.append(type(exc).__name__)
            return None

    def bivectors(*fs):
        for f in fs:
            _put(h, None if f is None else f.comps)

    def classify(fr):
        _put(h, "point", fr.point)
        rep = attempt(classify_curvature, fr)
        if rep is not None:
            _put(h, rep.tag, rep.kernel, rep.range_dim, rep.margin,
                 len(rep.range_basis))
            bivectors(*rep.range_basis, rep.simple_f)
            fc = rep.f_class
            if fc is not None:
                _put(h, fc.tag, fc.theta, *(fc.blade or ()))
                bivectors(*(fc.pair or ()))
            _put(h, rep.direction)
            bivectors(*(rep.dual_pair or ()))
        got = attempt(solve_theorem1, fr)
        if got is not None:
            _put(h, "theorem1", got[0])

    def run():
        for fr in frames_at(spec, sample_points(spec, samples, seed=seed)):
            classify(fr)

    attempt(run)
    return " ".join([h.hexdigest(), *raised[-1:]])


def survey_digest(spec, samples: int, seed: int, order: int) -> str:
    """The full and label-only digests, followed by the exception class
    if the survey raised."""
    full, labels = hashlib.sha256(), hashlib.sha256()
    both = (full, labels)

    def put(*items, into=(full,)):
        for h in into:
            _put(h, *items)

    try:
        rep = holonomy_survey(spec, samples=samples, seed=seed,
                              derivative_order=order)
    except Exception as exc:  # noqa: BLE001  the error is the result
        put("raised", type(exc).__name__, str(exc), into=both)
        return (f"{full.hexdigest()} {labels.hexdigest()} "
                f"{type(exc).__name__}")
    put("label", rep.label, rep.mixed_types, into=both)
    for point, label, dim in rep.per_point:
        put(point)
        put(label, dim, into=both)
    r = rep.representative
    put("representative", r.dimension, into=both)
    put(r.label, len(r.basis))
    for m in r.basis:
        put(m)
    for v, character in r.constant:
        put(v)
        put(character, into=both)
    put("recurrent", len(r.recurrent), into=(labels,))
    for v in r.recurrent:
        put(v)
    put(r.omega, r.realizable, sorted(r.diagnostics.items()))
    return f"{full.hexdigest()} {labels.hexdigest()}"


def geodesic_digest(g, other, seed: int) -> str:
    """The digest of the pre-geodesic runs of g against other and of
    both metrics' Christoffel batches, followed by the exception class
    if a call raised."""
    h = hashlib.sha256()
    try:
        for trials, steps, horizon in GEODESIC_RUNS:
            rep = pregeodesic_check(g, other, trials=trials, steps=steps,
                                    horizon=horizon, seed=seed)
            _put(h, "run", trials, steps, horizon, rep.score, rep.truncated,
                 rep.scored)
        lo, hi = np.array(g.sample_box).T
        wide = np.random.default_rng(seed).uniform(2 * lo - hi, 2 * hi - lo,
                                                   size=(20, 4))
        pts = np.concatenate([sample_points(g, 20, seed=seed), wide])
        for spec in (g, other):
            gamma, ok, admissible = christoffel_batch(spec, pts)
            _put(h, "christoffel", gamma, ok, admissible)
    except Exception as exc:  # noqa: BLE001  the error is the result
        _put(h, "raised", type(exc).__name__, str(exc))
        return f"{h.hexdigest()} {type(exc).__name__}"
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fixtures", nargs="+", default=list(FIXTURE_NAMES))
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(6)))
    ap.add_argument("--samples", type=int, default=12)
    args = ap.parse_args()
    for name in args.fixtures:
        bundle = named_fixture(name)
        partner = invert_pair(bundle.pair).partner
        for label, spec in ((name, bundle.g), (f"{name}-partner", partner)):
            for order in ORDERS:
                for seed in args.seeds:
                    print(f"{label}:o{order}:s{seed} "
                          f"{survey_digest(spec, args.samples, seed, order)}",
                          flush=True)
            for seed in args.seeds:
                print(f"{label}:classify:s{seed} "
                      f"{classify_digest(spec, args.samples, seed)}",
                      flush=True)
        flat = metric_spec(bundle.g.coords, FLAT_ROWS,
                           sample_box=bundle.g.sample_box)
        for kind, other in (("self", bundle.g), ("partner", partner),
                            ("flat", flat)):
            for seed in args.seeds:
                print(f"{name}:geodesic-{kind}:s{seed} "
                      f"{geodesic_digest(bundle.g, other, seed)}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
