#!/usr/bin/env python3
"""Digest the CLI's reports over a fixed command matrix, one line each.

Each listed fixture is emitted to a temporary directory, and every
command below runs there in a fresh ``python -m lorhol.cli`` process
against the ``src/`` of the checkout that holds this script:

    derive-partner; classify, holonomy --order 0/1/2 on g and on the
    derived partner; projective-check with -a and with --auto-psi;
    weyl-projective; sinyukov-check; a short geodesic-check of g
    against the partner and against itself, and a long one (20 trials x
    400 steps) of g against the partner.

Every line reads ``name stdout-sha256 stderr-sha256 exit file-sha256``
(the file digest is the written partner file, or ``-``).  Paths are
relative to the temporary directory, so two checkouts that produce the
same reports print the same lines, and a byte-identity check between two
commits is a ``diff`` of their outputs.  Uses only the standard library.

Usage: python scripts/report_digests.py --fixtures r9 r11 r13 r14 --seeds 1 2
"""
import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def commands(fixture: str, seed: int):
    """(name, argv, written file or None) for one fixture and seed."""
    g, a = f"{fixture}-g.json", f"{fixture}-a.json"
    partner = f"{fixture}-partner-s{seed}.json"
    s = ["--seed", str(seed), "--json"]
    yield ("derive-partner", ["derive-partner", "-m", g, "-a", a,
                              "-o", partner, *s], partner)
    for label, spec in (("g", g), ("partner", partner)):
        yield (f"classify:{label}", ["classify", "-m", spec, *s], None)
        for order in (0, 1, 2):
            yield (f"holonomy{order}:{label}",
                   ["holonomy", "-m", spec, "--order", str(order), *s], None)
    yield ("projective-check:pair", ["projective-check", "-m", g, "-M",
                                     partner, "-a", a, *s], None)
    yield ("projective-check:auto-psi", ["projective-check", "-m", g, "-M",
                                         partner, "--auto-psi", *s], None)
    yield ("weyl-projective", ["weyl-projective", "-m", g, "-M", partner,
                               *s], None)
    yield ("sinyukov-check", ["sinyukov-check", "-m", g, "-a", a, *s], None)
    short = ["--trials", "4", "--steps", "50", "--horizon", "0.1"]
    yield ("geodesic-check", ["geodesic-check", "-m", g, "-M", partner,
                              *short, *s], None)
    yield ("geodesic-check:self", ["geodesic-check", "-m", g, "-M", g,
                                   *short, *s], None)
    # long enough that trajectories leave the domain and truncate
    yield ("geodesic-check:long", ["geodesic-check", "-m", g, "-M", partner,
                                   "--trials", "20", "--steps", "400",
                                   "--horizon", "2", *s], None)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fixtures", nargs="+", default=["r9", "r11", "r13",
                                                       "r14"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if k != "LORHOL_SEED"}
    env["PYTHONPATH"] = str(SRC)

    def cli(argv, cwd):
        return subprocess.run([sys.executable, "-m", "lorhol.cli", *argv],
                              cwd=cwd, env=env, capture_output=True)

    with tempfile.TemporaryDirectory() as work:
        for fixture in args.fixtures:
            done = cli(["fixtures", "emit", fixture, "-o", "."], work)
            if done.returncode:
                sys.stderr.write(done.stderr.decode())
                return 2
            for seed in args.seeds:
                for name, argv, written in commands(fixture, seed):
                    done = cli(argv, work)
                    path = Path(work, written) if written else None
                    file_sha = (sha(path.read_bytes())
                                if path and path.exists() else "-")
                    print(f"{fixture}:s{seed}:{name} {sha(done.stdout)} "
                          f"{sha(done.stderr)} {done.returncode} {file_sha}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
