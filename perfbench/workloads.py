"""The benchmark's workloads.  See README.md for why each was chosen.

Every workload is a closed loop with one client.  ``cycle_ops(k)`` lists
the operations of pass ``k``; the runner times each ``Op.run`` and then,
outside the timed region, asks ``Op.judge`` whether the output is right.
An exception from ``run`` (or a failing CLI exit) is a failed operation;
a wrong answer fails the whole benchmark.

lorhol is imported inside ``setup`` so that the import is part of the
measured set-up time.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

LABELS = {f"R{i}" for i in range(1, 16)}
CLASSES = {"A", "B", "C", "D", "O"}
PARTNER_TOL = 1e-8
GEO_SAME_MAX = 1e-6
GEO_FLAT_MIN = 1e-2
DEFECT_ROUNDS = 4
MINKOWSKI_ROWS = [["-1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]


@dataclass
class Outcome:
    points: int = 0
    failure: str | None = None  # the operation failed (counted)
    wrong: str | None = None    # the output is wrong (fails the benchmark)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], Outcome]


@dataclass(frozen=True)
class Scale:
    cli_fixtures: tuple[str, ...]
    cli_samples: int
    survey_base: tuple[str, ...]
    survey_base_order2: tuple[str, ...]
    survey_partners: tuple[str, ...]
    survey_partner_order0: tuple[str, ...]
    survey_partner_order1: tuple[str, ...]
    base_samples: int
    partner_samples: int
    geo_fixtures: tuple[str, ...]
    geo_trials: int
    geo_steps: int
    geo_horizon: float


FULL = Scale(
    # one family member each (r10 and r9-b0 repeat the families of r13
    # and r9), which keeps one pass of the chain under a minute
    cli_fixtures=("r9", "r11", "r13", "r14"),
    cli_samples=32,
    survey_base=("minkowski", "r11", "r10", "r13", "r9", "r14", "r9-b0"),
    # the timed loop holds only surveys that succeed for every sampling
    # seed; the others are known defects, run by SurveyWarm.defect_ops
    survey_base_order2=("minkowski", "r14"),
    survey_partners=("r11", "r10", "r13", "r9", "r14", "r9-b0"),
    survey_partner_order0=("r11", "r10", "r13", "r9", "r14"),
    # order 1 needs the order-3 table of each partner, compiled in set-up;
    # r14 is the partner whose order-1 survey succeeds today
    survey_partner_order1=("r14",),
    # small surveys, so that a run holds several passes and its figures
    # average over several sampling seeds
    base_samples=16,
    partner_samples=8,
    geo_fixtures=("r9", "r11", "r14"),
    # the CLI's 20-row batches and step size 1e-3 over a sixteenth of its
    # horizon, so that a run holds enough operations for a tail percentile
    geo_trials=20, geo_steps=125, geo_horizon=0.125,
)

SMOKE = Scale(
    cli_fixtures=("r9",), cli_samples=4,
    survey_base=("minkowski", "r9"), survey_base_order2=("minkowski",),
    survey_partners=("r9",), survey_partner_order0=("r9",),
    survey_partner_order1=(), base_samples=4, partner_samples=4,
    geo_fixtures=("r9",), geo_trials=4, geo_steps=20, geo_horizon=0.02,
)


def _unexpected(what: str, got, allowed) -> str | None:
    return None if got in allowed else f"{what} {got!r} not in {sorted(allowed)}"


# ---------------------------------------------------------------------------
# cli-partners: one fresh `python -m lorhol.cli` process per command
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: str
    stats_path: Path | None


# commands whose exit code 1 means a failed check, i.e. a wrong answer
_CHECK_COMMANDS = ("derive-partner", "projective-check", "weyl-projective")


class CliPartners:
    """Cold CLI on the fixtures' derived partners."""

    name = "cli-partners"
    in_process = False

    def __init__(self, seed: int, work: Path, scale: Scale, env: dict,
                 trace_dir: Path | None = None):
        self.seed, self.work, self.scale, self.env = seed, work, scale, env
        self.trace_dir = trace_dir
        self.stats_files: list[Path] = []
        self.digests: dict[tuple[str, str], set[str]] = {}

    def cli(self, args: list[str]) -> CliResult:
        stats = None
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "lorhol.cli", *args]
        else:
            stats = self.trace_dir / f"{len(self.stats_files)}.json"
            self.stats_files.append(stats)
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(stats),
                   *args]
        proc = subprocess.run(cmd, env=self.env, cwd=self.work,
                              capture_output=True, timeout=150)
        return CliResult(proc.returncode, proc.stdout,
                         proc.stderr.decode(errors="replace"), stats)

    def setup(self) -> None:
        for name in self.scale.cli_fixtures:
            res = self.cli(["fixtures", "emit", name, "-o", "fixtures",
                            "--json"])
            if res.code != 0:
                raise RuntimeError(f"fixtures emit {name}: exit {res.code}: "
                                   f"{res.stderr.strip()}")

    def _chain(self, name: str) -> list[tuple[str, list[str]]]:
        g, a = f"fixtures/{name}-g.json", f"fixtures/{name}-a.json"
        p = f"fixtures/{name}-partner.json"
        return [
            ("derive-partner", ["derive-partner", "-m", g, "-a", a, "-o", p]),
            ("classify", ["classify", "-m", p]),
            ("holonomy-0", ["holonomy", "-m", p, "--order", "0"]),
            ("holonomy-1", ["holonomy", "-m", p, "--order", "1"]),
            ("projective-check", ["projective-check", "-m", g, "-M", p,
                                  "-a", a]),
            ("weyl-projective", ["weyl-projective", "-m", g, "-M", p]),
        ]

    def _args(self, args: list[str]) -> list[str]:
        return args + ["--samples", str(self.scale.cli_samples),
                       "--seed", str(self.seed), "--json"]

    def cycle_ops(self, cycle: int) -> list[Op]:
        return [Op(f"{name} {label}", partial(self.cli, self._args(args)),
                   partial(self.judge, name, label))
                for name in self.scale.cli_fixtures
                for label, args in self._chain(name)]

    def defect_ops(self) -> list[Op]:
        # partner `holonomy --order 1` fails on r9, r11 and r13 for every
        # seed, so it stays in the timed loop and is counted there
        return []

    def judge(self, name: str, label: str, res: CliResult) -> Outcome:
        self.digests.setdefault((name, label), set()).add(
            hashlib.sha256(res.stdout).hexdigest())
        if res.code != 0:
            message = (res.stderr.strip().splitlines() or ["(no message)"])[-1]
            if res.code == 1 and label in _CHECK_COMMANDS:
                return Outcome(wrong=f"check failed: {message}")
            exc = "-"
            if res.stats_path is not None and res.stats_path.exists():
                error = json.loads(res.stats_path.read_text())["error"]
                exc = error[0] if error else "-"
            return Outcome(failure=f"exit {res.code} {exc}: {message}")
        report = json.loads(res.stdout)
        if report["aggregate"]["verdict"] != "pass":
            return Outcome(wrong="verdict is not pass with exit code 0")
        if label == "classify":
            bad = sorted(set(report["classes_seen"]) - CLASSES)
            return Outcome(points=len(report["per_point"]),
                           wrong=f"classes {bad}" if bad else None)
        if label.startswith("holonomy"):
            return Outcome(points=len(report["per_point"]),
                           wrong=_unexpected("label", report["label"], LABELS))
        return Outcome()

    def check(self) -> list[str]:
        """Partner files against the expected partners, and repeatability
        of every command's JSON stdout for this seed."""
        from lorhol.cli import load_metric_file

        wrong = []
        for name in self.scale.cli_fixtures:
            got_path = self.work / f"fixtures/{name}-partner.json"
            if not got_path.exists():
                continue  # derive-partner failed; counted as a failure
            want_path = self.work / f"fixtures/{name}-gprime-expected.json"
            wrong += _partner_mismatch(name, load_metric_file(str(got_path)),
                                       load_metric_file(str(want_path)),
                                       self.seed)
        # repeat the first fixture's three fastest commands to compare
        # stdout digests
        name = self.scale.cli_fixtures[0]
        for label, args in self._chain(name):
            if label in ("derive-partner", "classify", "holonomy-0"):
                self.judge(name, label, self.cli(self._args(args)))
        for (fixture, label), seen in sorted(self.digests.items()):
            if len(seen) > 1:
                wrong.append(f"{fixture} {label}: JSON stdout differs between "
                             f"repeats with seed {self.seed}")
        return wrong


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def _classify_pass(spec, n: int, seed: int):
    from lorhol.curvclass import classify_curvature
    from lorhol.pointcalc import frame_at, sample_points

    pts = sample_points(spec, n, seed=seed)
    return {classify_curvature(frame_at(spec, p)).tag for p in pts}, len(pts)


def _survey(spec, n: int, seed: int, order: int):
    from lorhol.holonomy import holonomy_survey

    rep = holonomy_survey(spec, samples=n, seed=seed, derivative_order=order)
    return rep.label, len(rep.per_point)


def _judge_classes(allowed, out) -> Outcome:
    tags, n = out
    bad = [t for t in sorted(tags) if t not in allowed]
    return Outcome(points=n, wrong=f"classes {bad} not in {sorted(allowed)}"
                   if bad else None)


def _judge_label(allowed, out) -> Outcome:
    label, n = out
    if label == "unrecognized":
        return Outcome(failure="holonomy label 'unrecognized'")
    return Outcome(points=n, wrong=_unexpected("label", label, allowed))


def _base_survey(name: str, fixture, n: int, seed: int, order: int) -> Op:
    # order 0 sees only the curvature, a subalgebra of the holonomy, so
    # only its validity is checked
    allowed = set(fixture.expected_holonomy) if order else LABELS
    return Op(f"{name} holonomy-{order}",
              partial(_survey, fixture.g, n, seed, order),
              partial(_judge_label, allowed))


def _partner_survey(name: str, spec, n: int, seed: int, order: int) -> Op:
    return Op(f"{name}-partner holonomy-{order}",
              partial(_survey, spec, n, seed, order),
              partial(_judge_label, LABELS))


def _partner_mismatch(name: str, got, want, seed: int) -> list[str]:
    """Derived partner g' against the fixture's expected g' at sample
    points, with the tree-walking evaluator."""
    from lorhol.exprdsl import eval_expr
    from lorhol.pointcalc import sample_points

    out = []
    for pt in sample_points(want, 8, seed=seed):
        for i in range(4):
            for j in range(i + 1):
                a = eval_expr(got.g[i][j], pt, got.coords, got.params)
                b = eval_expr(want.g[i][j], pt, want.coords, want.params)
                if abs(a - b) > PARTNER_TOL * max(1.0, abs(b)):
                    out.append(f"{name}: derived partner g[{i}][{j}] = {a!r},"
                               f" expected {b!r} at {[float(x) for x in pt]}")
    return out


class SurveyWarm:
    """Per-point classification and holonomy surveys with every compile
    cache filled in set-up."""

    name = "survey-warm"
    in_process = True

    def __init__(self, seed: int, work: Path, scale: Scale, env: dict):
        self.seed, self.scale = seed, scale

    def setup(self) -> None:
        from lorhol.fixtures import named_fixture
        from lorhol.projective import invert_pair

        self.base = {n: named_fixture(n) for n in self.scale.survey_base}
        self.partners = {n: invert_pair(self.base[n].pair).partner
                         for n in self.scale.survey_partners}
        for op in self.cycle_ops(-1, warmup=True):
            try:
                op.run()
            except Exception:  # noqa: BLE001  known defects; tables are built
                pass

    def cycle_ops(self, cycle: int, warmup: bool = False) -> list[Op]:
        seed = self.seed * 1000 + cycle
        nb = 2 if warmup else self.scale.base_samples
        npart = 2 if warmup else self.scale.partner_samples
        ops = []
        for name, b in self.base.items():
            ops.append(Op(f"{name} classify",
                          partial(_classify_pass, b.g, nb, seed),
                          partial(_judge_classes, {b.expected_class})))
            orders = ((0, 1, 2) if name in self.scale.survey_base_order2
                      else (0, 1))
            ops += [_base_survey(name, b, nb, seed, order) for order in orders]
        for name, spec in self.partners.items():
            ops.append(Op(f"{name}-partner classify",
                          partial(_classify_pass, spec, npart, seed),
                          partial(_judge_classes, CLASSES)))
            orders = [order for order, kept in (
                (0, self.scale.survey_partner_order0),
                (1, self.scale.survey_partner_order1)) if name in kept]
            ops += [_partner_survey(name, spec, npart, seed, order)
                    for order in orders]
        return ops

    def defect_ops(self) -> list[Op]:
        """The surveys left out of the timed loop because they fail for
        some sampling seeds (order-2 closure on most base fixtures, the
        r9-b0 partner's "unrecognized" order-0 label), over the sampling
        seeds of the first DEFECT_ROUNDS passes.  Not timed and not
        counted, so that the failed count of a run does not depend on how
        many passes it made; their successful outputs are still checked."""
        ops = []
        for cycle in range(DEFECT_ROUNDS):
            seed = self.seed * 1000 + cycle
            ops += [_base_survey(name, b, self.scale.base_samples, seed, 2)
                    for name, b in self.base.items()
                    if name not in self.scale.survey_base_order2]
            ops += [_partner_survey(name, spec, self.scale.partner_samples,
                                    seed, 0)
                    for name, spec in self.partners.items()
                    if name not in self.scale.survey_partner_order0]
        return ops

    def check(self) -> list[str]:
        return [msg for name, spec in self.partners.items()
                for msg in _partner_mismatch(
                    name, spec, self.base[name].expected_partner, self.seed)]


class Geodesic:
    """pregeodesic_check on (g, g), (g, derived partner), (g, flat)."""

    name = "geodesic"
    in_process = True

    def __init__(self, seed: int, work: Path, scale: Scale, env: dict):
        self.seed, self.scale = seed, scale

    def setup(self) -> None:
        from lorhol.fixtures import named_fixture
        from lorhol.pointcalc import metric_spec
        from lorhol.projective import invert_pair, pregeodesic_check

        self.base = {n: named_fixture(n) for n in self.scale.geo_fixtures}
        self.pairs = []
        for name, b in self.base.items():
            partner = invert_pair(b.pair).partner
            flat = metric_spec(b.g.coords, MINKOWSKI_ROWS,
                               sample_box=b.g.sample_box)
            self.pairs += [(name, "self", b.g, b.g),
                           (name, "partner", b.g, partner),
                           (name, "flat", b.g, flat)]
        for _, _, g, other in self.pairs:
            pregeodesic_check(g, other, trials=2, steps=2, horizon=0.002,
                              seed=self.seed)

    def _run(self, g, other, seed: int):
        from lorhol.projective import pregeodesic_check

        return pregeodesic_check(g, other, trials=self.scale.geo_trials,
                                 steps=self.scale.geo_steps,
                                 horizon=self.scale.geo_horizon, seed=seed)

    @staticmethod
    def _judge(kind: str, rep) -> Outcome:
        steps = rep.trials * rep.steps - sum(rep.steps - s
                                             for _, s in rep.truncated)
        if kind == "flat":
            ok = rep.score > GEO_FLAT_MIN
        else:
            ok = rep.score < GEO_SAME_MAX
        return Outcome(points=steps, wrong=None if ok else
                       f"pre-geodesic score {rep.score:.3e} for the {kind} pair")

    def defect_ops(self) -> list[Op]:
        return []

    def cycle_ops(self, cycle: int) -> list[Op]:
        seed = self.seed * 1000 + cycle
        return [Op(f"{name} {kind}", partial(self._run, g, other, seed),
                   partial(self._judge, kind))
                for name, kind, g, other in self.pairs]

    def check(self) -> list[str]:
        return [msg for (name, kind, g, other) in self.pairs
                if kind == "partner"
                for msg in _partner_mismatch(
                    name, other, self.base[name].expected_partner, self.seed)]


WORKLOADS = {w.name: w for w in (CliPartners, SurveyWarm, Geodesic)}
