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

import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import fixtures as fixture_mod
from .curvclass import ClassificationError, classify_curvature
from .exprdsl import DomainError, ExprError, ParseError, to_string
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


def load_metric_file(path: str) -> MetricSpec:
    data = json.loads(Path(path).read_text())
    if data.get("version") != FILE_VERSION:
        raise MetricError(f"{path}: unsupported or missing file version")
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
    data = json.loads(Path(path).read_text())
    if data.get("version") != FILE_VERSION:
        raise MetricError(f"{path}: unsupported or missing file version")
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


def make_report(command: str, inputs: dict, seed, tolerances: dict,
                body: dict, passed: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "tolerances": _jsonable(tolerances),
        **_jsonable(body),
        "aggregate": {"verdict": "pass" if passed else "fail"},
    }


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


def _finish(report: dict) -> None:
    sys.exit(0 if report["aggregate"]["verdict"] == "pass" else CHECK_FAILED)


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


def _guard(fn):
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SystemExit:
            raise
        except _ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(USAGE_ERROR)
    wrapped.__name__ = fn.__name__
    return wrapped


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
@click.option("--svd-tol", default=1e-9, show_default=True)
@_json_opt
@_out_opt
@_guard
def classify(metric_path, point, samples, seed, svd_tol, as_json, out):
    """Pointwise curvature class (A/B/C/D/O) of a metric."""
    spec = load_metric_file(metric_path)
    pts = _points_for(spec, point, samples, seed)
    per_point = []
    tags = set()
    for fr in frames_at(spec, pts):
        rep = classify_curvature(fr, tol=svd_tol)
        entry = {"point": list(fr.point), "class": rep.tag,
                 "kernel_dim": len(rep.kernel), "range_dim": rep.range_dim,
                 "margin": rep.margin}
        if rep.tag == "D":
            entry["theta"] = rep.f_class.theta
        tags.add(rep.tag)
        per_point.append(entry)
    body = {"points": [list(p) for p in pts], "per_point": per_point,
            "classes_seen": sorted(tags)}
    report = make_report("classify", {"metric": _digest(metric_path)}, seed,
                         {"svd_tol": svd_tol}, body, passed=True)
    emit(report, as_json, out)
    _finish(report)


@main.command()
@_metric_opt
@_samples_opt
@_seed_opt
@click.option("--order", default=1, type=click.IntRange(0, 2),
              show_default=True, help="covariant-derivative order")
@_json_opt
@_out_opt
@_guard
def holonomy(metric_path, samples, seed, order, as_json, out):
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
    report = make_report("holonomy", {"metric": _digest(metric_path)}, seed,
                         {"span_tol": SPAN_TOL},
                         body, passed=rep.label != "unrecognized")
    emit(report, as_json, out)
    _finish(report)


@main.command("sinyukov-check")
@_metric_opt
@_pair_opt
@_samples_opt
@_seed_opt
@click.option("--tol", default=1e-8, show_default=True)
@_json_opt
@_out_opt
@_guard
def sinyukov_check(metric_path, pair_path, samples, seed, tol, as_json, out):
    """Residual of Sinyukov's equation for a candidate (a, lambda)."""
    spec = load_metric_file(metric_path)
    pair = load_pair_file(pair_path, spec)
    pts = sample_points(spec, samples, seed=seed)
    residual = sinyukov_residual(pair, pts)
    body = {"residual": residual, "samples": samples}
    report = make_report(
        "sinyukov-check",
        {"metric": _digest(metric_path), "sinyukov": _digest(pair_path)},
        seed, {"tol": tol}, body, passed=residual < tol)
    emit(report, as_json, out)
    _finish(report)


@main.command("derive-partner")
@_metric_opt
@_pair_opt
@_samples_opt
@_seed_opt
@click.option("--tol", default=1e-8, show_default=True)
@click.option("-o", "--out", required=True,
              help="path for the derived partner metric-spec file")
@_json_opt
@_guard
def derive_partner(metric_path, pair_path, samples, seed, tol, out, as_json):
    """Invert (a, lambda) and write the projectively related metric g'."""
    spec = load_metric_file(metric_path)
    pair = load_pair_file(pair_path, spec)
    pts = sample_points(spec, samples, seed=seed)
    residual = sinyukov_residual(pair, pts)
    pp = invert_pair(pair, pts, tol=tol)
    partner_json = metric_to_json(pp.partner)
    Path(out).write_text(json.dumps(partner_json, sort_keys=True, indent=2)
                         + "\n")
    body = {
        "sinyukov_residual": residual,
        "partner_file": str(out),
        "chi": to_string(pp.chi),
        "psi": [to_string(e) for e in pp.psi],
    }
    report = make_report(
        "derive-partner",
        {"metric": _digest(metric_path), "sinyukov": _digest(pair_path)},
        seed, {"tol": tol}, body, passed=residual < tol)
    emit(report, as_json, None)
    _finish(report)


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
@_guard
def projective_check(metric_path, metric2_path, pair_path, auto_psi, samples,
                     seed, tol, as_json, out):
    """Verify that two metrics are projectively related."""
    spec = load_metric_file(metric_path)
    spec2 = load_metric_file(metric2_path)
    pts = sample_points(spec, samples, seed=seed)
    inputs = {"metric": _digest(metric_path), "metric2": _digest(metric2_path)}
    body: dict = {"samples": samples}
    if auto_psi:
        psi = psi_from_connections(spec, spec2, pts)
        body["psi_source"] = "connections"
    elif pair_path:
        pair = load_pair_file(pair_path, spec)
        pp = invert_pair(pair, pts, tol=tol)
        psi = pp.psi
        inputs["sinyukov"] = _digest(pair_path)
        body["psi_source"] = "sinyukov-pair"
    else:
        raise MetricError("need --auto-psi or -a/--sinyukov for psi")
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
    report = make_report("projective-check", inputs, seed, {"tol": tol},
                         body, passed=passed)
    emit(report, as_json, out)
    _finish(report)


@main.command("weyl-projective")
@_metric_opt
@_metric2_opt
@_samples_opt
@_seed_opt
@click.option("--tol", default=1e-8, show_default=True)
@_json_opt
@_out_opt
@_guard
def weyl_projective(metric_path, metric2_path, samples, seed, tol, as_json,
                    out):
    """Compare the Weyl projective tensors of two metrics."""
    spec = load_metric_file(metric_path)
    spec2 = load_metric_file(metric2_path)
    pts = sample_points(spec, samples, seed=seed)
    diff = weyl_projective_equal(spec, spec2, pts)
    report = make_report(
        "weyl-projective",
        {"metric": _digest(metric_path), "metric2": _digest(metric2_path)},
        seed, {"tol": tol}, {"max_diff": diff, "samples": samples},
        passed=diff < tol)
    emit(report, as_json, out)
    _finish(report)


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
@_guard
def geodesic_check(metric_path, metric2_path, trials, steps, horizon, seed,
                   geo_tol, as_json, out):
    """Score whether the second metric shares the first one's geodesic
    paths (pre-geodesic deviation along integrated trajectories)."""
    spec = load_metric_file(metric_path)
    spec2 = load_metric_file(metric2_path)
    rep = pregeodesic_check(spec, spec2, trials=trials, steps=steps,
                            horizon=horizon, seed=seed)
    body = {"score": rep.score, "trials": trials, "steps": steps,
            "horizon": horizon,
            "truncated": [{"trial": t, "step": s} for t, s in rep.truncated]}
    report = make_report(
        "geodesic-check",
        {"metric": _digest(metric_path), "metric2": _digest(metric2_path)},
        seed, {"geo_tol": geo_tol}, body,
        passed=rep.scored > 0 and rep.score < geo_tol)
    emit(report, as_json, out)
    _finish(report)


@main.group()
def fixtures():
    """Built-in fixture families from the projective-equivalence
    literature."""


@fixtures.command("list")
@_json_opt
@_guard
def fixtures_list(as_json):
    body = {"fixtures": list(fixture_mod.FIXTURE_NAMES)}
    report = make_report("fixtures-list", {}, None, {}, body, passed=True)
    emit(report, as_json, None)


@fixtures.command("emit")
@click.argument("name")
@click.option("-o", "--out", default=".", help="output directory")
@_json_opt
@_guard
def fixtures_emit(name, out, as_json):
    """Write a fixture's g, (a, lambda) and expected g' as spec files."""
    bundle = fixture_mod.named_fixture(name)
    outdir = Path(out)
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
    report = make_report("fixtures-emit", {}, None, {}, body, passed=True)
    emit(report, as_json, None)


if __name__ == "__main__":
    main()
