#!/usr/bin/env python3
"""Digest in-process holonomy surveys and curvature classifications.

Each survey line reads ``spec:o<order>:s<seed> full-sha256
label-sha256``, each classification line ``spec:classify:s<seed>
full-sha256 decision-sha256``, each geodesic line
``fixture:geodesic-<kind>:s<seed> sha256``; any of them is followed by
the exception class when a call raised.

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
for the rank and kernel decisions.  The decision digest hashes, at each
point, just the point, the tag, the kernel dimension, the range
dimension, the margin, theta of class D and the dimension of
``solve_theorem1``'s basis; it survives a change of basis
representation.  A call that raises is hashed, in both, by its
exception class and message, and the point's remaining calls still run.

The geodesic digest covers the pre-geodesic RK4 path of each listed
fixture g against a second metric of each kind: ``self`` (g itself),
``partner`` (the partner derived from its Sinyukov pair), ``flat``
(the Minkowski metric in g's chart and sample box) and ``narrow`` (g
with one more domain constraint: the first coordinate stays below the
plane 0.65 of the way across its sample-box range, so that the second
metric alone truncates trajectories, some of them mid-run).  It hashes the
report fields (score, truncated, scored) of ``pregeodesic_check`` from
a short run (4 trials x 50 steps, horizon 0.1) and from a truncating
run (20 trials x 400 steps, horizon 2), and the bytes of
``christoffel_batch``'s (gamma, ok, admissible) for both metrics at
points sampled from g's domain and from its sample box widened by its
own width on every side, so that the masks and the placeholder rows
are covered too.  ``report_digests.py`` reaches this path only through
the CLI and on four fixtures.

The fixtures never reach class B, R5 or R12, so a fixed synthetic
section comes last, whatever the arguments: ``classify_curvature`` and
``solve_theorem1`` (hashed as in the classification digest) at
synthetic class-B and class-D points, and every ``identify_type`` field
on the R2-R15 table bases, each in two fixed Lorentz frames of Minkowski
space.  Each line reads ``synthetic:<case>:<frame> sha256 got``, a
classify line with its decision digest after the full one, got being
the class or label reached, or None; a call that raised puts its
exception class after the digests, as on the other lines.

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
from lorhol.holonomy import holonomy_survey, identify_type  # noqa: E402
from lorhol.exprdsl import const, coord, sub  # noqa: E402
from lorhol.pointcalc import (  # noqa: E402
    MetricSpec, PointFrame, christoffel_batch, frames_at, metric_spec,
    sample_points,
)
from lorhol.projective import invert_pair, pregeodesic_check  # noqa: E402

ORDERS = (0, 1, 2)
# (trials, steps, horizon): a short run and one whose trajectories leave
# the domain and truncate
GEODESIC_RUNS = ((4, 50, 0.1), (20, 400, 2.0))
FLAT_ROWS = [["-1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]


def narrowed(g):
    """g with the extra domain constraint x0 < lo + 0.65 (hi - lo) on its
    first coordinate x0, whose sample-box range is [lo, hi]."""
    lo, hi = g.sample_box[0]
    plane = sub(const(lo + 0.65 * (hi - lo)), coord(g.coords[0]))
    return MetricSpec(g.coords, g.g, g.params, g.constraints + (plane,),
                      g.sample_box, name=f"{g.name}-narrow")


def _put(h, *items):
    for x in items:
        h.update(x.tobytes() if hasattr(x, "tobytes") else repr(x).encode())
        h.update(b"|")


def classify_digest(spec, samples: int, seed: int) -> str:
    """The full and decision digests of every classify_curvature and
    solve_theorem1 result at the sampled points, followed by the class
    of the last exception if any call raised."""
    return frames_digest(
        lambda: frames_at(spec, sample_points(spec, samples, seed=seed)))[0]


def frames_digest(frames) -> tuple[str, str | None]:
    """classify_digest of the frames that the call ``frames()`` yields,
    and the class tag of the last frame classified (None if none was)."""
    full, decisions = hashlib.sha256(), hashlib.sha256()
    both = (full, decisions)
    raised = []
    tags = []

    def put(*items, into=(full,)):
        for h in into:
            _put(h, *items)

    def attempt(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001  the error is the result
            put("raised", type(exc).__name__, str(exc), into=both)
            raised.append(type(exc).__name__)
            return None

    def bivectors(*fs):
        for f in fs:
            put(None if f is None else f.comps)

    def classify(fr):
        put("point", fr.point, into=both)
        rep = attempt(classify_curvature, fr)
        if rep is not None:
            tags.append(rep.tag)
            put(rep.tag, into=both)
            put(rep.kernel)
            put(len(rep.kernel), into=(decisions,))
            put(rep.range_dim, rep.margin, into=both)
            put(len(rep.range_basis))
            bivectors(*rep.range_basis, rep.simple_f)
            fc = rep.f_class
            if fc is not None:
                put(fc.tag)
                put(fc.theta, into=both)
                put(*(fc.blade or ()))
                bivectors(*(fc.pair or ()))
            put(rep.direction)
            bivectors(*(rep.dual_pair or ()))
        got = attempt(solve_theorem1, fr)
        if got is not None:
            put("theorem1", got[0])
            put("theorem1", len(got[0]), into=(decisions,))

    def run():
        for fr in frames():
            classify(fr)

    attempt(run)
    return (" ".join([full.hexdigest(), decisions.hexdigest(), *raised[-1:]]),
            (tags or [None])[-1])


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


# the synthetic section: two fixed Lorentz frames of Minkowski space, the
# identity and a rotation * boost * rotation
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def _rotation(i: int, j: int, angle: float) -> np.ndarray:
    m = np.eye(4)
    m[i, i] = m[j, j] = np.cos(angle)
    m[i, j], m[j, i] = -np.sin(angle), np.sin(angle)
    return m


def _boost(axis: int, rapidity: float) -> np.ndarray:
    m = np.eye(4)
    m[0, 0] = m[axis, axis] = np.cosh(rapidity)
    m[0, axis] = m[axis, 0] = np.sinh(rapidity)
    return m


LORENTZ = {"f0": np.eye(4),
           "f1": _rotation(1, 2, 0.4) @ _boost(3, 0.7) @ _rotation(2, 3, 1.1)}


def _tetrad(lam):
    """(l, n, x, y, u, z) pushed by lam: a null tetrad with g(l, n) = 1
    and the unit timelike u and spacelike z with l, n = (u +- z) / sqrt 2."""
    u, x, y, z = np.eye(4)
    l, n = (u + z) / np.sqrt(2), (z - u) / np.sqrt(2)
    return tuple(lam @ v for v in (l, n, x, y, u, z))


def _low(p, q):
    """(p ^ q)_ab with eta."""
    pl, ql = ETA @ p, ETA @ q
    return np.outer(pl, ql) - np.outer(ql, pl)


def _riemann(*terms):
    """sum of c F_ab F_cd over the (c, F_ab) terms."""
    return sum(c * np.einsum("ab,cd->abcd", f, f) for c, f in terms)


def _classify_cases(l, n, x, y):
    """(name, Riem) of class-B and class-D points: Riem = alpha F (x) F +
    beta *F (x) *F with F = l^n, and alpha F (x) F with F simple timelike,
    spacelike or null."""
    ln, xy = _low(l, n), _low(x, y)
    return (("B", _riemann((1.0, ln), (1.0, xy))),
            ("B-mixed", _riemann((1.3, ln), (-0.8, xy))),
            ("D-timelike", _riemann((2.0, ln))),
            ("D-spacelike", _riemann((1.0, xy))),
            ("D-null", _riemann((-0.5, _low(l, x)))))


def _table_bases(l, n, x, y, u, z, omega: float = 2.0):
    """The type R2-R15 bases of the holonomy taxonomy, as (1,1) matrices
    in the tetrad; omega is R5's and R12's parameter."""
    def m(p, q):
        return (np.outer(p, q) - np.outer(q, p)) @ ETA

    return {
        "R2": [m(l, n)], "R3": [m(l, x)], "R4": [m(x, y)],
        "R5": [m(l, n) + omega * m(x, y)],
        "R6": [m(l, n), m(l, x)], "R7": [m(l, n), m(x, y)],
        "R8": [m(l, x), m(l, y)], "R9": [m(l, n), m(l, x), m(l, y)],
        "R10": [m(l, n), m(l, x), m(n, x)],
        "R11": [m(l, x), m(l, y), m(x, y)],
        "R12": [m(l, x), m(l, y), m(l, n) + omega * m(x, y)],
        "R13": [m(x, y), m(y, z), m(x, z)],
        "R14": [m(l, n), m(l, x), m(l, y), m(x, y)],
        "R15": [m(l, n), m(l, x), m(l, y), m(n, x), m(n, y), m(x, y)],
    }


def identify_digest(basis, frame) -> tuple[str, str | None]:
    """The digest of every identify_type field on the basis, followed by
    the exception class if the call raised, and the label (None if it
    raised)."""
    h = hashlib.sha256()
    try:
        r = identify_type(basis, frame)
    except Exception as exc:  # noqa: BLE001  the error is the result
        _put(h, "raised", type(exc).__name__, str(exc))
        return f"{h.hexdigest()} {type(exc).__name__}", None
    _put(h, r.label, r.dimension, len(r.basis), *r.basis)
    for v, character in r.constant:
        _put(h, v, character)
    _put(h, "recurrent", len(r.recurrent), *r.recurrent)
    _put(h, r.omega, r.realizable, sorted(r.diagnostics.items()))
    return h.hexdigest(), r.label


def synthetic_lines() -> list[str]:
    """The synthetic section: one line per classified point and per
    identified table basis in each fixed frame."""
    lines = []
    flat = PointFrame.synthetic(ETA, np.zeros((4, 4, 4, 4)))
    for key, lam in LORENTZ.items():
        vectors = _tetrad(lam)
        for name, riem in _classify_cases(*vectors[:4]):
            digest, tag = frames_digest(
                lambda: [PointFrame.synthetic(ETA, riem)])
            lines.append(f"synthetic:classify-{name}:{key} {digest} {tag}")
        for label, basis in _table_bases(*vectors).items():
            digest, got = identify_digest(basis, flat)
            lines.append(f"synthetic:identify-{label}:{key} {digest} {got}")
    return lines


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
                            ("flat", flat), ("narrow", narrowed(bundle.g))):
            for seed in args.seeds:
                print(f"{name}:geodesic-{kind}:s{seed} "
                      f"{geodesic_digest(bundle.g, other, seed)}",
                      flush=True)
    for line in synthetic_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
