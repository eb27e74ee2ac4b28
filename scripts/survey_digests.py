#!/usr/bin/env python3
"""Digest in-process holonomy surveys, two sha256 digests a line.

Each line reads ``spec:o<order>:s<seed> full-sha256 label-sha256``,
followed by the exception class when the survey raised.

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
exception class and message.  Two checkouts that survey alike print the
same lines, and the check is a ``diff`` of their outputs.  Uses only the
standard library and lorhol from the ``src/`` of the checkout that holds
this script.

Usage: python scripts/survey_digests.py [--fixtures r9 r11 ...]
           [--seeds 0 1 2 3 4 5] [--samples 12]
"""
import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorhol.fixtures import FIXTURE_NAMES, named_fixture  # noqa: E402
from lorhol.holonomy import holonomy_survey  # noqa: E402
from lorhol.projective import invert_pair  # noqa: E402

ORDERS = (0, 1, 2)


def survey_digest(spec, samples: int, seed: int, order: int) -> str:
    """The full and label-only digests, followed by the exception class
    if the survey raised."""
    full, labels = hashlib.sha256(), hashlib.sha256()
    both = (full, labels)

    def put(*items, into=(full,)):
        for h in into:
            for x in items:
                h.update(x.tobytes() if hasattr(x, "tobytes")
                         else repr(x).encode())
                h.update(b"|")

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
