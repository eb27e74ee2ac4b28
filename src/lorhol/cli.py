"""Command-line front end: metric-spec files in, reports out.

Metric-spec files are JSON:

    {
      "version": 1,
      "coordinates": ["u", "v", "x", "y"],
      "parameters": {"xi": 0.25},
      "metric": [["0"], ["1", "0"], ...],     # lower triangle or full 4x4
      "constraints": ["v"],                    # each must evaluate > 0
      "sample_box": {"u": [0.5, 2.0], ...}
    }

Sinyukov pair files carry "a" (same layout), "lambda" (four expression
strings, or "trace" to derive it) and optional extra "parameters".
Reports embed the seed, tolerances and input digests and are
byte-reproducible for a fixed seed.
"""
from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import fixtures as fixture_mod
from .bivector import SVD_TOL
from .curvclass import ClassificationError, classify_curvature
from .exprdsl import ExprError, to_string
from .holonomy import SPAN_TOL, holonomy_survey
from .pointcalc import (
    MetricError, MetricSpec, frames_at, metric_spec, sample_points,
)
from .projective import (
    InversionError, SinyukovPair, invert_pair, pregeodesic_check,
    projective_residual, psi_from_connections, sinyukov_residual,
    weyl_projective_equal, curvature_relation_residual,
)

SCHEMA_VERSION = 1
FILE_VERSION = 1
DEFAULT_SEED = 7

USAGE_ERROR, CHECK_FAILED = 2, 1


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _entry(x) -> bool:
    """An expression entry: a string, or a number that is read as one."""
    return isinstance(x, (str, int, float)) and not isinstance(x, bool)


def _number(x) -> bool:
    """A JSON number, or a string that float() reads (such as "nan")."""
    try:
        float(x)
    except (TypeError, ValueError, OverflowError):
        return False
    return not isinstance(x, bool)


def _array(each, n=None):
    """A check for an array (of n entries) whose entries pass ``each``."""
    return lambda v: (isinstance(v, list) and n in (None, len(v))
                      and all(map(each, v)))


def _object(each):
    """A check for an object whose values pass ``each``, or null, which
    stands for an absent key where the loader gives one a default."""
    return lambda v: v is None or (isinstance(v, dict)
                                   and all(map(each, v.values())))


def _string(x) -> bool:
    return isinstance(x, str)


# key -> (the check its value must pass, what the check asks for)
_ROWS = (_array(_array(_entry)), "an array of rows of strings or numbers")
_PARAMETERS = (_object(_number), "an object of numbers or null")
_METRIC_KEYS = {
    "coordinates": (_array(_string), "an array of strings"),
    "metric": _ROWS, "parameters": _PARAMETERS,
    "constraints": (_array(_entry), "an array of strings or numbers"),
    "sample_box": (_object(_array(_number)),
                   "an object of [low, high] number arrays or null")}
_PAIR_KEYS = {
    "a": _ROWS, "parameters": _PARAMETERS,
    "lambda": (lambda v: v == "trace" or _array(_string, 4)(v),
               '"trace" or an array of 4 strings')}


def _load_json(path: str, schema: dict) -> dict:
    """The JSON object in ``path`` once its version and the shape of each
    key of ``schema`` that it holds are checked; a MetricError names the
    file and the key."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise MetricError(f"{path}: the top level must be an object")
    if data.get("version") != FILE_VERSION:
        raise MetricError(f"{path}: unsupported or missing file version")
    for key, (ok, what) in schema.items():
        if key in data and not ok(data[key]):
            raise MetricError(f"{path}: {key!r} must be {what}")
    return data


def load_metric_file(path: str) -> MetricSpec:
    data = _load_json(path, _METRIC_KEYS)
    coords = data["coordinates"]
    box = None
    if data.get("sample_box"):
        missing = [c for c in coords if c not in data["sample_box"]]
        if missing:
            raise MetricError(f"{path}: sample_box has no bounds for "
                              f"coordinate {missing[0]!r}")
        box = [tuple(data["sample_box"][c]) for c in coords]
    try:
        return metric_spec(coords, data["metric"],
                           params=data.get("parameters", {}),
                           constraints=data.get("constraints", ()),
                           sample_box=box,
                           name=data.get("name", Path(path).stem))
    except MetricError as exc:
        raise MetricError(f"{path}: {exc}") from None


def metric_to_json(spec: MetricSpec) -> dict:
    box = None
    if spec.sample_box:
        box = {c: list(b) for c, b in zip(spec.coords, spec.sample_box)}
    return {
        "version": FILE_VERSION,
        "name": spec.name,
        "coordinates": list(spec.coords),
        "parameters": spec.params.values,
        "metric": [[to_string(spec.g[i][j]) for j in range(i + 1)]
                   for i in range(4)],
        "constraints": [to_string(c) for c in spec.constraints],
        "sample_box": box,
    }


def load_pair_file(path: str, base: MetricSpec) -> SinyukovPair:
    data = _load_json(path, _PAIR_KEYS)
    spec = base
    try:
        if data.get("parameters"):
            spec = MetricSpec(base.coords, base.g,
                              base.params.merged(data["parameters"]),
                              base.constraints, base.sample_box, base.name)
        helper = metric_spec(spec.coords, data["a"], spec.params,
                             name="sinyukov-a")
    except MetricError as exc:
        raise MetricError(f"{path}: {exc}") from None
    lam_field = data.get("lambda", "trace")
    if lam_field == "trace":
        lam = None
    else:
        from .exprdsl import parse_expr
        lam = tuple(parse_expr(s, spec.coords, spec.params.names())
                    for s in lam_field)
    return SinyukovPair(spec, helper.g, lam)


def pair_to_json(pair: SinyukovPair) -> dict:
    lam = pair.lam
    return {
        "version": FILE_VERSION,
        "a": [[to_string(pair.a[i][j]) for j in range(i + 1)]
              for i in range(4)],
        "lambda": "trace" if lam is None else [to_string(e) for e in lam],
        "parameters": {},
    }


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return _jsonable(x.item())
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, float):
        return x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def emit(report: dict, as_json: bool, out: str | None = None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    if as_json:
        click.echo(text, nl=False)
    else:
        _emit_human(report)


def _emit_human(report: dict, prefix: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            click.echo(f"{prefix}{key}:")
            _emit_human(value, prefix + "  ")
        elif isinstance(value, list):
            scalars = all(not isinstance(v, (dict, list)) for v in value)
            if scalars and len(value) <= 16:
                click.echo(f"{prefix}{key}: {', '.join(map(str, value))}")
            else:
                click.echo(f"{prefix}{key}: [{len(value)} entries]")
        else:
            click.echo(f"{prefix}{key}: {value}")


def _points_for(spec: MetricSpec, point: str | None, samples: int,
                seed: int) -> np.ndarray:
    if point is not None:
        vals = [float(x) for x in point.split(",")]
        if len(vals) != 4:
            raise MetricError("point must have 4 comma-separated values")
        return np.array([vals])
    return sample_points(spec, samples, seed=seed)


_ERRORS = (MetricError, ExprError, InversionError, ClassificationError,
           ValueError, OSError, KeyError, json.JSONDecodeError)


# each file option a command was given -> the key of its sha256 in "inputs"
_INPUTS = {"metric_path": "metric", "metric2_path": "metric2",
           "pair_path": "sinyukov"}


def _reports(command: str):
    """Make a command of a function that returns ``(tolerances, body,
    passed)``: the command builds the report around ``body``, prints it,
    also writes it to ``--out`` where it has that option, and exits 0 if
    ``passed``, else CHECK_FAILED.  One of _ERRORS in the function, a
    digest or the write exits USAGE_ERROR with one ``error:`` line."""
    def decorate(fn):
        @functools.wraps(fn)
        def run(as_json, out=None, **options):
            try:
                tolerances, body, passed = fn(**options)
                report = {
                    "schema_version": SCHEMA_VERSION,
                    "command": command,
                    "inputs": {key: _digest(options[name])
                               for name, key in _INPUTS.items()
                               if options.get(name)},
                    "seed": options.get("seed"),
                    "tolerances": _jsonable(tolerances),
                    **_jsonable(body),
                    "aggregate": {"verdict": "pass" if passed else "fail"},
                }
                emit(report, as_json, out)
            except _ERRORS as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(USAGE_ERROR)
            sys.exit(0 if passed else CHECK_FAILED)
        return run
    return decorate


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Curvature, holonomy and projective-equivalence analysis of
    closed-form 4d Lorentz metrics."""


_metric_opt = click.option("-m", "--metric", "metric_path", required=True,
                           type=click.Path(exists=True))
_metric2_opt = click.option("-M", "--metric2", "metric2_path", required=True,
                            type=click.Path(exists=True))
_pair_opt = click.option("-a", "--sinyukov", "pair_path", required=True,
                         type=click.Path(exists=True))
_point_opt = click.option("-p", "--point", default=None,
                          help="comma-separated coordinates")
_samples_opt = click.option("--samples", default=32, show_default=True,
                            type=click.IntRange(min=1))
_seed_opt = click.option("--seed", default=DEFAULT_SEED, type=int,
                         envvar="LORHOL_SEED", show_default=True,
                         help="sampling seed (env LORHOL_SEED overrides "
                              "the default)")
_json_opt = click.option("--json", "as_json", is_flag=True)
_out_opt = click.option("-o", "--out", default=None,
                        help="also write the JSON report here")


@main.command()
@_metric_opt
@_point_opt
@_samples_opt
@_seed_opt
@_json_opt
@_out_opt
@_reports("classify")
def classify(metric_path, point, samples, seed):
    """Pointwise curvature class (A/B/C/D/O) of a metric."""
    spec = load_metric_file(metric_path)
    pts = _points_for(spec, point, samples, seed)
    per_point = []
    tags = set()
    for fr in frames_at(spec, pts):
        rep = classify_curvature(fr)
        entry = {"point": list(fr.point), "class": rep.tag,
                 "kernel_dim": len(rep.kernel), "range_dim": rep.range_dim,
                 "margin": rep.margin}
        if rep.tag == "D":
            entry["theta"] = rep.f_class.theta
        tags.add(rep.tag)
        per_point.append(entry)
    body = {"points": [list(p) for p in pts], "per_point": per_point,
            "classes_seen": sorted(tags)}
    return {"svd_tol": SVD_TOL}, body, True


@main.command()
@_metric_opt
@_samples_opt
@_seed_opt
@click.option("--order", default=1, type=click.IntRange(0, 2),
              show_default=True, help="covariant-derivative order")
@_json_opt
@_out_opt
@_reports("holonomy")
def holonomy(metric_path, samples, seed, order):
    """Infinitesimal holonomy algebra type over sampled points."""
    spec = load_metric_file(metric_path)
    rep = holonomy_survey(spec, samples=samples, seed=seed,
                          derivative_order=order)
    body = {
        "label": rep.label,
        "derivative_order": order,
        "dimension": rep.representative.dimension,
        "mixed_types": rep.mixed_types,
        "caveat": rep.caveat,
        "constant_directions": [
            {"direction": list(v), "character": ch}
            for v, ch in rep.representative.constant],
        "recurrent_directions": [list(v)
                                 for v in rep.representative.recurrent],
        "omega": rep.representative.omega,
        "per_point": [{"point": list(p), "label": lab, "dimension": d}
                      for p, lab, d in rep.per_point],
    }
    return {"span_tol": SPAN_TOL}, body, rep.label != "unrecognized"


@main.command("sinyukov-check")
@_metric_opt
@_pair_opt
@_samples_opt
@_seed_opt
@click.option("--tol", default=1e-8, show_default=True)
@_json_opt
@_out_opt
@_reports("sinyukov-check")
def sinyukov_check(metric_path, pair_path, samples, seed, tol):
    """Residual of Sinyukov's equation for a candidate (a, lambda)."""
    spec = load_metric_file(metric_path)
    pair = load_pair_file(pair_path, spec)
    pts = sample_points(spec, samples, seed=seed)
    residual = sinyukov_residual(pair, pts)
    body = {"residual": residual, "samples": samples}
    return {"tol": tol}, body, residual < tol


@main.command("derive-partner")
@_metric_opt
@_pair_opt
@_samples_opt
@_seed_opt
@click.option("--tol", default=1e-8, show_default=True)
@click.option("-o", "--out", "partner_path", required=True,
              help="path for the derived partner metric-spec file")
@_json_opt
@_reports("derive-partner")
def derive_partner(metric_path, pair_path, samples, seed, tol, partner_path):
    """Invert (a, lambda) and write the projectively related metric g'."""
    spec = load_metric_file(metric_path)
    pair = load_pair_file(pair_path, spec)
    pts = sample_points(spec, samples, seed=seed)
    residual = sinyukov_residual(pair, pts)
    pp = invert_pair(pair, pts, tol=tol)
    partner_json = metric_to_json(pp.partner)
    Path(partner_path).write_text(json.dumps(partner_json, sort_keys=True,
                                             indent=2) + "\n")
    body = {
        "sinyukov_residual": residual,
        "partner_file": str(partner_path),
        "chi": to_string(pp.chi),
        "psi": [to_string(e) for e in pp.psi],
    }
    return {"tol": tol}, body, residual < tol


@main.command("projective-check")
@_metric_opt
@_metric2_opt
@click.option("-a", "--sinyukov", "pair_path", default=None,
              type=click.Path(exists=True),
              help="pair file supplying a symbolic psi")
@click.option("--auto-psi", is_flag=True,
              help="recover psi from the two connections pointwise")
@_samples_opt
@_seed_opt
@click.option("--tol", default=1e-8, show_default=True)
@_json_opt
@_out_opt
@_reports("projective-check")
def projective_check(metric_path, metric2_path, pair_path, auto_psi, samples,
                     seed, tol):
    """Verify that two metrics are projectively related."""
    if auto_psi and pair_path:
        raise MetricError("need --auto-psi or -a/--sinyukov for psi, "
                          "not both")
    if not (auto_psi or pair_path):
        raise MetricError("need --auto-psi or -a/--sinyukov for psi")
    spec = load_metric_file(metric_path)
    spec2 = load_metric_file(metric2_path)
    pts = sample_points(spec, samples, seed=seed)
    body: dict = {"samples": samples}
    if auto_psi:
        psi = psi_from_connections(spec, spec2, pts)
        body["psi_source"] = "connections"
    else:
        pair = load_pair_file(pair_path, spec)
        psi = invert_pair(pair, pts, tol=tol).psi
        body["psi_source"] = "sinyukov-pair"
    res13 = projective_residual(spec, spec2, psi, pts)
    body["eq13_residual"] = res13
    passed = res13 < tol
    if not auto_psi:
        res14, res_ric = curvature_relation_residual(spec, spec2, psi,
                                                     pts[:min(len(pts), 20)])
        wdiff = weyl_projective_equal(spec, spec2, pts[:min(len(pts), 20)])
        body.update({"eq14_residual": res14, "ricci_residual": res_ric,
                     "weyl_projective_diff": wdiff})
        passed = passed and max(res14, res_ric, wdiff) < tol
    return {"tol": tol}, body, passed


@main.command("weyl-projective")
@_metric_opt
@_metric2_opt
@_samples_opt
@_seed_opt
@click.option("--tol", default=1e-8, show_default=True)
@_json_opt
@_out_opt
@_reports("weyl-projective")
def weyl_projective(metric_path, metric2_path, samples, seed, tol):
    """Compare the Weyl projective tensors of two metrics."""
    spec = load_metric_file(metric_path)
    spec2 = load_metric_file(metric2_path)
    pts = sample_points(spec, samples, seed=seed)
    diff = weyl_projective_equal(spec, spec2, pts)
    return {"tol": tol}, {"max_diff": diff, "samples": samples}, diff < tol


@main.command("geodesic-check")
@_metric_opt
@_metric2_opt
@click.option("--trials", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--steps", default=2000, show_default=True,
              type=click.IntRange(min=1))
@click.option("--horizon", default=2.0, show_default=True,
              type=click.FloatRange(min=0, min_open=True))
@_seed_opt
@click.option("--geo-tol", default=1e-6, show_default=True)
@_json_opt
@_out_opt
@_reports("geodesic-check")
def geodesic_check(metric_path, metric2_path, trials, steps, horizon, seed,
                   geo_tol):
    """Score whether the second metric shares the first one's geodesic
    paths (pre-geodesic deviation along integrated trajectories)."""
    spec = load_metric_file(metric_path)
    spec2 = load_metric_file(metric2_path)
    rep = pregeodesic_check(spec, spec2, trials=trials, steps=steps,
                            horizon=horizon, seed=seed)
    body = {"score": rep.score, "trials": trials, "steps": steps,
            "horizon": horizon,
            "truncated": [{"trial": t, "step": s} for t, s in rep.truncated]}
    return ({"geo_tol": geo_tol}, body,
            rep.scored > 0 and rep.score < geo_tol)


@main.group()
def fixtures():
    """Built-in fixture families from the projective-equivalence
    literature."""


@fixtures.command("list")
@_json_opt
@_reports("fixtures-list")
def fixtures_list():
    return {}, {"fixtures": list(fixture_mod.FIXTURE_NAMES)}, True


@fixtures.command("emit")
@click.argument("name")
@click.option("-o", "--out", "outdir", default=".", help="output directory")
@_json_opt
@_reports("fixtures-emit")
def fixtures_emit(name, outdir):
    """Write a fixture's g, (a, lambda) and expected g' as spec files."""
    bundle = fixture_mod.named_fixture(name)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {
        f"{name}-g.json": metric_to_json(bundle.g),
        f"{name}-a.json": pair_to_json(bundle.pair),
        f"{name}-gprime-expected.json": metric_to_json(
            bundle.expected_partner),
    }
    for fname, data in files.items():
        (outdir / fname).write_text(
            json.dumps(data, sort_keys=True, indent=2) + "\n")
    body = {"fixture": name,
            "files": sorted(str(outdir / f) for f in files),
            "expected_class": bundle.expected_class,
            "expected_holonomy": list(bundle.expected_holonomy)}
    return {}, body, True


if __name__ == "__main__":
    main()
