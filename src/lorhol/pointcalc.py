"""Metric specifications and pointwise tensor assembly.

All coordinate derivatives of the metric are taken symbolically (exact),
then every tensor (Christoffels, curvature, covariant derivatives) is
assembled numerically at sample points with numpy.  Finite differences
never appear outside the test oracles.  Jets come from one compiled
program per field and derivative order k, whose one call returns
orders 0..k.  A metric's programs, and its Christoffel kernel, are also
memoised per spec, since the geodesic loop evaluates them on every RK4
stage.  When the symbolic det g and adjugate of a metric add few lines
to its order-1 program, christoffel_batch compiles them in, with Gamma
= adj(g) s / (2 det g) over one shared reciprocal, so a stage makes no
numpy linear-algebra call and tests a valid block in one pass; larger
metrics invert g numerically.  frames_at assembles the
tensors of a chunk of points in one batched stack and hands each
PointFrame its rows; a frame computes any other tensor when first read.

Index conventions, fixed throughout the package:

* dg[a,b,c]        = d_c g_ab   (derivative indices trail)
* gamma[a,b,c]     = Gamma^a_bc
* riem_ud[a,b,c,d] = R^a_bcd = d_c Gamma^a_bd - d_d Gamma^a_bc
                     + Gamma^a_ce Gamma^e_bd - Gamma^a_de Gamma^e_bc
* ricci[a,b]       = R^c_acb
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Mapping, Sequence

import numpy as np

from .exprdsl import (
    Const, DomainError, Expr, ParamEnv, add, compile_program, count_lines,
    differentiate, div, eval_expr, free_symbols, mul, parse_expr, sub,
    sym_cofactor4, sym_det4, sym_sum,
)

__all__ = [
    "MetricSpec", "PointFrame", "MetricError", "DegenerateMetricError",
    "SignatureError", "AdmissibilityError", "metric_spec", "frame_at",
    "frames_at", "signature_at", "cov_deriv_sym2_at", "sample_points",
    "christoffel_batch", "require_valid", "cov_deriv_batch",
    "eval_field_batch",
]

DIM = 4
DEGENERACY_TOL = 1e-12
# frames_at assembles _CHUNK * 4^(4 - order) rows per derivative stack:
# the largest arrays through order k hold 4^(k + 2) floats per row, so
# every chunk's arrays stay within _CHUNK * 4^6 floats (256 kB)
_CHUNK = 8


class MetricError(Exception):
    pass


class DegenerateMetricError(MetricError):
    pass


class SignatureError(MetricError):
    pass


class AdmissibilityError(MetricError):
    """Point violates a declared domain constraint."""


# ---------------------------------------------------------------------------
# MetricSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    """A 4d metric in closed form: coordinates, symmetric component matrix
    of expressions, bound parameters and positivity domain constraints."""

    coords: tuple[str, str, str, str]
    g: tuple[tuple[Expr, ...], ...]
    params: ParamEnv = field(default_factory=ParamEnv)
    constraints: tuple[Expr, ...] = ()
    sample_box: tuple[tuple[float, float], ...] | None = None
    name: str = ""

    def __post_init__(self):
        if len(self.coords) != DIM or len(set(self.coords)) != DIM:
            raise MetricError("need 4 distinct coordinate names")
        if len(self.g) != DIM or any(len(row) != DIM for row in self.g):
            raise MetricError("metric must be 4x4")
        shadowed = sorted(set(self.params.names()) & set(self.coords))
        if shadowed:
            raise MetricError(f"parameters: {shadowed[0]!r} is also the "
                              "name of a coordinate")
        if self.sample_box is not None:
            if len(self.sample_box) != DIM or any(len(b) != 2
                                                  for b in self.sample_box):
                raise MetricError("sample_box: need one (low, high) pair "
                                  "per coordinate")
            for c, (lo, hi) in zip(self.coords, self.sample_box):
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise MetricError(f"sample_box: bounds [{lo}, {hi}] for "
                                      f"{c!r} are not finite")
                if not lo < hi:
                    raise MetricError(f"sample_box: low {lo} is not below "
                                      f"high {hi} for {c!r}")
        for a in range(DIM):
            for b in range(a):
                if self.g[a][b] != self.g[b][a]:
                    raise MetricError(f"metric not symmetric at ({a},{b})")
        for e in self.all_exprs():
            cs, ps = free_symbols(e)
            bad = cs - set(self.coords)
            if bad:
                raise MetricError(f"undeclared coordinates {sorted(bad)}")
            unbound = ps - set(self.params.names())
            if unbound:
                raise MetricError(f"unbound parameters {sorted(unbound)}")

    def all_exprs(self):
        for row in self.g:
            yield from row
        yield from self.constraints

    def with_name(self, name: str) -> "MetricSpec":
        return MetricSpec(self.coords, self.g, self.params,
                          self.constraints, self.sample_box, name)


def metric_spec(coords: Sequence[str],
                components: Sequence[Sequence],
                params: Mapping[str, float] | ParamEnv | None = None,
                constraints: Sequence = (),
                sample_box=None,
                name: str = "") -> MetricSpec:
    """Build a MetricSpec from strings or Exprs.

    ``components`` is either a full 4x4 matrix or a lower triangle
    (rows of length 1..4); either way it is mirrored symmetrically.
    """
    env = params if isinstance(params, ParamEnv) else ParamEnv(params or {})
    coords = tuple(coords)

    def to_expr(x) -> Expr:
        if isinstance(x, Expr):
            return x
        return parse_expr(str(x), coords, env.names())

    rows = [list(r) for r in components]
    if [len(r) for r in rows] == [1, 2, 3, 4]:
        full = [[None] * DIM for _ in range(DIM)]
        for a in range(DIM):
            for b in range(a + 1):
                full[a][b] = full[b][a] = to_expr(rows[a][b])
    elif [len(r) for r in rows] == [4, 4, 4, 4]:
        full = [[to_expr(rows[a][b]) for b in range(DIM)] for a in range(DIM)]
        for a in range(DIM):
            for b in range(a):
                if full[a][b] != full[b][a]:
                    raise MetricError(f"asymmetric input at ({a},{b})")
    else:
        raise MetricError("components must be a 4x4 matrix or lower triangle")
    g = tuple(tuple(row) for row in full)
    cons = tuple(to_expr(c) for c in constraints)
    box = tuple(tuple(float(x) for x in b) for b in sample_box) if sample_box else None
    return MetricSpec(coords, g, env, cons, box, name)


# ---------------------------------------------------------------------------
# Symbolic jets with compiled scatter evaluation
# ---------------------------------------------------------------------------

def _jet_levels(comps: tuple, coords: Sequence[str], order: int) -> list:
    """The symbolic jets of orders 0..order of an expression field: one
    dict per order, keyed (field slots, sorted derivative slots).  Four
    Exprs are a covector, a 4x4 tuple a symmetric (0,2) tensor (its upper
    triangle is read).  differentiate memoises every derivative for the
    process, so walking the levels again costs lookups only."""
    if isinstance(comps[0], Expr):
        level = {((a,), ()): comps[a] for a in range(DIM)}
    else:
        level = {((a, b), ()): comps[a][b]
                 for a in range(DIM) for b in range(a, DIM)}
    levels = [level]
    for _ in range(order):
        level = {(f, m + (c,)): differentiate(e, coords[c])
                 for (f, m), e in level.items()
                 for c in range(m[-1] if m else 0, DIM)}
        levels.append(level)
    return levels


@lru_cache(maxsize=1024)
def _jet_program(comps: tuple, coords: tuple, pnames: tuple, order: int,
                 extra: tuple = ()) -> tuple:
    """(f, gathers) for a field's jets of orders 0..order.  One compiled
    program f(points (n, 4), parameter values) returns an (n_exprs, n)
    block: the jets' entries, sharing their subexpressions, then one row
    per extra expression (a metric's domain constraints).  gathers holds
    per order k the (index, shape) that scatters the block into the
    order-k array, shape (n,) + (4,)*rank + (4,)*k with the derivative
    indices trailing.  Parameter values are call-time arguments, so
    structurally equal fields share one program across parameter draws."""
    exprs, gathers = [], []
    for level in _jet_levels(comps, coords, order):
        # a key's field and derivative slots are the array's axes
        shape = (DIM,) * sum(map(len, next(iter(level))))
        # index[flat position] = the expression filling it; the
        # permutations cover every position
        index = np.empty(DIM ** len(shape), dtype=np.intp)
        for f, m in sorted(level):
            for full in {p + q for p in itertools.permutations(f)
                         for q in itertools.permutations(m)}:
                index[np.ravel_multi_index(full, shape)] = len(exprs)
            exprs.append(level[(f, m)])
        gathers.append((index, shape))
    return compile_program(exprs + list(extra), coords, pnames), gathers


def _values(spec: MetricSpec) -> tuple:
    # as np.float64, so that a subexpression of parameters alone follows
    # numpy's arithmetic like every other line of a compiled program: a
    # domain error gives nan or inf under np.errstate, which the masks
    # and _diagnose_point report, not a Python complex or exception
    return tuple(np.float64(spec.params[n]) for n in spec.params.names())


@lru_cache(maxsize=1024)
def _metric_program(spec: MetricSpec, order: int) -> tuple:
    """(f, gathers, values): the _jet_program of spec's metric through
    ``order`` with spec.constraints riding along, and spec's parameter
    values.  The one per-spec memo, for _metric_jets runs on every RK4
    stage of the geodesic loop: a lookup by spec (nodes hash by identity)
    costs about a third of a _jet_program lookup plus _values."""
    return (*_jet_program(spec.g, spec.coords, spec.params.names(), order,
                          spec.constraints), _values(spec))


# christoffel_batch takes det g and Gamma from one compiled call when
# they add at most this many lines (count_lines) to the order-1 jet
# program of g.  In 20-row RK4 stage calls fused and numeric time cross
# at about 100-125 added lines (scripts/christoffel_crossover.py, 2-core
# VM).  The shipped fixtures add 0-39 lines, and their derived partners,
# in exprdsl's normal form, 70-97 (r14, r9, r9-b0, r10 and r13, r11),
# so every one of them is fused: on each, the fused call took 7-36 %
# less time than the numeric one at 20 rows, and about a third of its
# time at 240 rows.  A partner as the raw adjugate formula added 288-431
# lines and took the numeric path: with it fused, cold CLI, median of 4
# alternating runs pinned to one CPU of a 2-core VM, geodesic-check with
# the raw r11 partner driving took 3.33 s -> 4.22 s and with the raw r9
# partner driving 2.91 s -> 4.15 s.  So the budget stays.
_FUSED_LINES = 100

# the index pairs b <= c in order, and the row of Gamma^a_bc among the
# 40 Gamma rows (a, then b <= c) for each (a, b, c) in C order
_PAIRS = [(b, c) for b in range(DIM) for c in range(b, DIM)]
_GAMMA_ROWS = np.array([len(_PAIRS) * a + _PAIRS.index(tuple(sorted(bc)))
                        for a, *bc in np.ndindex(DIM, DIM, DIM)])


def _christoffel_rows(g: tuple, coords: tuple):
    """Yield det g, then Gamma^a_bc for a and b <= c in order, as
    expressions.  With s_dbc = d_b g_dc + d_c g_db - d_d g_bc and one
    shared reciprocal r = 1/2 / det g, Gamma^a_bc = (sum_d adj(g)^ad
    s_dbc) r.  The adjugate is built one row a at a time, so a consumer
    that stops early builds only the minors it has read."""
    det = sym_det4(g)
    yield det
    dg = [[[differentiate(g[a][b], c) for c in coords] for b in range(DIM)]
          for a in range(DIM)]
    r = div(Const(Fraction(1, 2)), det)
    for a in range(DIM):
        adj = [sym_cofactor4(g, a, d) for d in range(DIM)]
        for b, c in _PAIRS:
            yield mul(sym_sum([
                mul(adj[d], sub(add(dg[d][c][b], dg[d][b][c]), dg[b][c][d]))
                for d in range(DIM)]), r)


@lru_cache(maxsize=1024)
def _fused_rows(g: tuple, coords: tuple, constraints: tuple) -> tuple | None:
    """_christoffel_rows as a tuple, to ride along the order-1 jet program
    of g after its constraints; None when they would add more than
    _FUSED_LINES lines to that program.  The lines are counted, not
    emitted, as each row is built, so a rejected metric stops at the row
    that passes the budget.  Keyed by structure, so parameter draws share
    the decision and the program."""
    seen: set = set()
    count_lines([e for level in _jet_levels(g, coords, 1)
                 for e in level.values()] + list(constraints), seen)
    rows: list = []
    added = 0
    for row in _christoffel_rows(g, coords):
        rows.append(row)
        added += count_lines([row], seen)
        if added > _FUSED_LINES:
            return None
    return tuple(rows)


def _fused_program(spec: MetricSpec, rows: tuple) -> tuple:
    """(f, values): spec's order-1 jet program with its constraints and
    ``rows`` (det g and the 40 Gamma rows) riding along, and spec's
    parameter values."""
    f, _ = _jet_program(spec.g, spec.coords, spec.params.names(), 1,
                        spec.constraints + rows)
    return f, _values(spec)


def _field_jets(spec: MetricSpec, comps, points, order: int = 0) -> tuple:
    """The jets of orders 0..order at ``points`` of a covector or
    symmetric (0,2) expression field over spec's coordinates and
    parameter values (see _jet_levels for the layout of ``comps``)."""
    comps = tuple(c if isinstance(c, Expr) else tuple(c) for c in comps)
    f, gathers = _jet_program(comps, spec.coords, spec.params.names(), order)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with np.errstate(all="ignore"):
        vals = f(pts, _values(spec))
    return tuple(vals[index].T.reshape((len(pts),) + shape)
                 for index, shape in gathers)


def _diagnose_point(spec: MetricSpec, point, max_order: int = 2) -> None:
    """Re-evaluate with the safe evaluator to produce a precise error."""
    exprs = list(spec.all_exprs())
    for level in _jet_levels(spec.g, spec.coords, max_order)[1:]:
        exprs.extend(level.values())
    for e in exprs:
        eval_expr(e, point, spec.coords, spec.params)
    raise MetricError(
        f"non-finite tensor assembly at {np.asarray(point).tolist()}")


def _metric_jets(spec: MetricSpec, pts: np.ndarray, order: int):
    """(jets, finite, admissible, valid) at points pts (n, 4) float: the
    metric jets of orders 0..order; the rows where all of them are
    finite; the rows with finite coordinates at which every domain
    constraint evaluates finite and > 0; and the rows whose jets of
    orders 0..min(order, 2) pass _valid_rows.  One compiled call
    evaluates the jets and spec.constraints, and one np.errstate
    silences its floating-point warnings and the determinant test's."""
    f, gathers, values = _metric_program(spec, order)
    with np.errstate(all="ignore"):
        vals = f(pts, values)
        jets = tuple(vals[index].T.reshape((len(pts),) + shape)
                     for index, shape in gathers)
        finite, admissible = _row_masks(vals, pts,
                                        len(vals) - len(spec.constraints))
        # the rows of vals are the jets' entries, so up to order 2 their
        # finiteness is the one the determinant test needs
        valid = _valid_rows(jets[:3], finite if order <= 2 else None)
    return jets, finite, admissible, valid


def _row_masks(vals: np.ndarray, pts: np.ndarray, m: int) -> tuple:
    """(finite, admissible) of a compiled block at points pts whose rows
    [:m] are jet entries and the rest domain constraints: the rows with
    finite jets, and the rows with finite coordinates at which every
    constraint evaluates finite and > 0."""
    finite = np.isfinite(vals)
    admissible = (np.isfinite(pts).all(axis=1)
                  & (finite[m:] & (vals[m:] > 0.0)).all(axis=0))
    return finite[:m].all(axis=0), admissible


def admissible_mask(spec: MetricSpec, points: np.ndarray) -> np.ndarray:
    """Rows of ``points`` with finite coordinates at which every domain
    constraint evaluates finite and > 0; the constraints are evaluated
    in the compiled call that also evaluates g."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _metric_jets(spec, pts, 0)[2]


def _inadmissible(point) -> AdmissibilityError:
    return AdmissibilityError(
        f"point {list(map(float, point))} violates the domain constraints")


def check_admissible(spec: MetricSpec, point) -> None:
    if not admissible_mask(spec, np.asarray(point, float)[None, :])[0]:
        raise _inadmissible(point)


def sample_points(spec: MetricSpec, n: int, seed: int = 7,
                  box=None) -> np.ndarray:
    """Uniform admissible points from the sample box (rejection sampling)."""
    if n < 1:
        raise MetricError(f"need at least one sample point, got {n}")
    box = box or spec.sample_box
    if box is None:
        raise MetricError("no sample box declared")
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(200):
        cand = rng.uniform(lo, hi, size=(max(2 * n, 16), DIM))
        good = cand[admissible_mask(spec, cand)]
        out.append(good)
        if sum(len(g) for g in out) >= n:
            break
    pts = np.concatenate(out) if out else np.empty((0, DIM))
    if len(pts) < n:
        raise AdmissibilityError("sample box contains no admissible points")
    return pts[:n]


# ---------------------------------------------------------------------------
# Batched assembly building blocks
# ---------------------------------------------------------------------------

def _gamma_terms(g, dg):
    ginv = np.linalg.inv(g)
    s = dg.transpose(0, 1, 3, 2) + dg - dg.transpose(0, 3, 1, 2)
    # s[n,d,b,c] = d_b g_dc + d_c g_db - d_d g_bc
    gamma = 0.5 * np.einsum("nad,ndbc->nabc", ginv, s)
    return ginv, s, gamma


def _valid_rows(jets, finite=None) -> np.ndarray:
    """Rows of a batch of metric jets (g, dg, ...) that are all finite and
    whose g passes the determinant test of frame_at.  ``finite`` is the
    rows' finiteness if the caller has it already.  _metric_jets calls
    it under np.errstate: rows that are not finite are masked by
    ``finite``, and an overflowing det or scale is inf and decides as it
    would unmuted."""
    if finite is None:
        n = len(jets[0])
        finite = np.ones(n, dtype=bool)
        for j in jets:
            finite &= np.all(np.isfinite(j), axis=tuple(range(1, j.ndim)))
    return finite & _nondegenerate(np.linalg.det(jets[0]),
                                   np.max(np.abs(jets[0]), axis=(1, 2)))


def _nondegenerate(det: np.ndarray, gmax: np.ndarray) -> np.ndarray:
    """The determinant test: |det g| > DEGENERACY_TOL * (max |g_ab|)^4."""
    return np.abs(det) > DEGENERACY_TOL * np.maximum(gmax, 1e-300) ** 4


def _raise_invalid(spec: MetricSpec, point, jets) -> None:
    """Raise for a point whose batch-of-one jets failed _valid_rows."""
    if not all(np.all(np.isfinite(j)) for j in jets):
        _diagnose_point(spec, point, max_order=len(jets) - 1)
    det = float(np.linalg.det(jets[0][0]))
    raise DegenerateMetricError(
        f"det g = {det:.3e} at {np.asarray(point, float).tolist()}")


def christoffel_batch(spec: MetricSpec, points):
    """Return (gamma, ok, admissible): gamma[n,a,b,c] = Gamma^a_bc batched
    over points, ok marks the rows with finite jets and a non-degenerate
    g, and admissible the rows that admissible_mask accepts.  Rows not ok
    hold the flat placeholder gamma = 0.  An RK4 stage costs one compiled
    call per metric, through spec's _christoffel_kernel: for a metric
    whose fused program is small that call also returns det g and Gamma,
    so no np.linalg call follows, and one pass tests whether the whole
    block is valid; otherwise _metric_jets (jets, masks and the
    determinant test) is followed by _gamma_terms."""
    return _christoffel_kernel(spec)(
        np.atleast_2d(np.asarray(points, dtype=float)))


@lru_cache(maxsize=1024)
def _christoffel_kernel(spec: MetricSpec, whole: bool = True):
    """christoffel_batch of spec as a callable pts (n, 4) float ->
    (gamma, ok, admissible): _fused_christoffel bound to spec's
    _fused_program, or _numeric_christoffel past the line budget.  A
    per-spec memo, like _metric_program; the geodesic loop fetches it
    once a block and calls it on every RK4 stage.  whole=False skips
    the whole-block test, for blocks that are known to fail it; the
    triple is the same."""
    rows = _fused_rows(spec.g, spec.coords, spec.constraints)
    if rows is None:
        return partial(_numeric_christoffel, spec)
    return partial(_fused_christoffel, *_fused_program(spec, rows),
                   whole=whole)


def _fused_christoffel(f, values, pts: np.ndarray, *,
                       whole: bool = True) -> tuple:
    """christoffel_batch from a fused program f: rows 0..9 of its block
    are g (upper triangle), 10..49 dg, then the constraints, det g and
    the 40 Gamma rows.  With ``whole``, a block that passes _block_valid
    has every row ok and admissible; only a block that fails it takes
    the per-row masks."""
    with np.errstate(all="ignore"):
        vals = f(pts, values)
        rows, det = vals[:-41], vals[-41]
        gamma = vals[-40:][_GAMMA_ROWS].T.reshape(len(pts), DIM, DIM, DIM)
        if whole and _block_valid(rows, det, pts):
            ok = np.empty(len(pts), dtype=bool)
            ok.fill(True)
            return gamma, ok, ok.copy()
        finite, admissible = _row_masks(rows, pts, 50)
        ok = finite & _nondegenerate(det, np.abs(rows[:10]).max(axis=0))
    gamma[~ok] = 0.0
    return gamma, ok, admissible


def _block_valid(rows: np.ndarray, det: np.ndarray, pts: np.ndarray) -> bool:
    """Whether every row of a non-empty fused block passes the per-row
    tests, in a few whole-block reductions: the squares of the jet and
    constraint rows and of the points have a finite sum (so every entry
    is finite), every constraint row (rows[50:]) is > 0, and half the
    smallest |det g| passes the determinant test of _nondegenerate at
    the block's largest |g_ab|.  That threshold is at least every row's
    own, and the halving is slack for rounding in it, so a block that
    passes has no row that the per-row test rejects; a False costs only
    the per-row masks.  The threshold is a numpy scalar, as in
    _nondegenerate: past max |g_ab| ~ 1e77 its fourth power is inf
    under the caller's np.errstate, and the block fails."""
    if not (len(pts)
            and math.isfinite(np.vdot(rows, rows) + np.vdot(pts, pts))
            and (len(rows) == 50 or np.minimum.reduce(rows[50:], None) > 0)):
        return False
    gmax = np.maximum(np.maximum.reduce(np.abs(rows[:10]), None), 1e-300)
    dmin = np.minimum.reduce(np.abs(det))
    return bool(dmin / 2 > DEGENERACY_TOL * gmax ** 4)


def _numeric_christoffel(spec: MetricSpec, pts: np.ndarray) -> tuple:
    """christoffel_batch from spec's order-1 jet program (_metric_jets),
    then np.linalg.inv and one einsum (_gamma_terms)."""
    (g, dg), _, admissible, ok = _metric_jets(spec, pts, 1)
    if not ok.all():
        g[~ok] = np.eye(DIM)
        dg[~ok] = 0.0
    return _gamma_terms(g, dg)[2], ok, admissible


def require_valid(spec: MetricSpec, points, ok) -> None:
    """Raise for the first row that christoffel_batch flagged in ``ok``:
    the precise domain error for non-finite jets, DegenerateMetricError
    for a degenerate g."""
    if not np.all(ok):
        point = np.atleast_2d(np.asarray(points, float))[np.argmin(ok)]
        _raise_invalid(spec, point, _metric_jets(spec, point[None, :], 1)[0])


def eval_field_batch(spec: MetricSpec, comps, points) -> np.ndarray:
    """Values of a covector or symmetric (0,2) expression field, batched."""
    return _field_jets(spec, comps, points)[0]


def cov_deriv_batch(spec: MetricSpec, comps, points):
    """Covariant derivative of a covector (w_a;b) or symmetric (0,2)
    (T_ab;c) expression field, batched; returns (field, covariant
    derivative) with the derivative index trailing."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t, dt = _field_jets(spec, comps, pts, 1)
    gamma, ok, _ = christoffel_batch(spec, pts)
    require_valid(spec, pts, ok)
    if t.ndim == 2:
        return t, dt - np.einsum("neab,ne->nab", gamma, t)
    cov = (dt
           - np.einsum("neca,neb->nabc", gamma, t)
           - np.einsum("necb,nae->nabc", gamma, t))
    return t, cov


# ---------------------------------------------------------------------------
# PointFrame
# ---------------------------------------------------------------------------

class PointFrame:
    """All metric-derived tensors of one metric at one point.

    Built by frame_at / frames_at (full, with derivative access) or
    synthetically from raw g/Riemann arrays for classifier oracles.
    frames_at assigns what its chunk computed (g^-1, R;e, R;e;f); every
    other tensor is computed when first read and then kept.
    """

    def __init__(self, g, riem_ud=None, *, point=None, spec=None,
                 gamma=None):
        self.spec = spec
        self.point = None if point is None else np.asarray(point, float)
        self.g = np.asarray(g, float)
        self.gamma = gamma
        self._riem_ud = riem_ud

    # -- construction helpers ------------------------------------------------

    @classmethod
    def synthetic(cls, g, riem_dddd) -> "PointFrame":
        """Frame from a metric and a fully-lowered curvature tensor; no
        derivative information is available on such frames."""
        frame = cls(g)
        frame._riem_ud = np.einsum("ae,ebcd->abcd", frame.ginv,
                                   np.asarray(riem_dddd, float))
        return frame

    # -- core tensors ---------------------------------------------------------

    @property
    def riem_ud(self) -> np.ndarray:
        if self._riem_ud is None:
            raise MetricError("frame has no curvature data")
        return self._riem_ud

    @cached_property
    def ginv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    @cached_property
    def detg(self) -> float:
        return float(np.linalg.det(self.g))

    @cached_property
    def riem_dddd(self) -> np.ndarray:
        return np.einsum("ae,ebcd->abcd", self.g, self.riem_ud)

    @cached_property
    def ricci(self) -> np.ndarray:
        return np.einsum("cacb->ab", self.riem_ud)

    @property
    def ricci_scalar(self) -> float:
        return float(np.einsum("ab,ab->", self.ginv, self.ricci))

    @cached_property
    def tracefree_ricci(self) -> np.ndarray:
        return self.ricci - 0.25 * self.ricci_scalar * self.g

    @cached_property
    def e_ud(self) -> np.ndarray:
        # Coefficient 1/2, not 1/12: this is what makes the conformal
        # tensor below fully trace-free (E contracts to the trace-free
        # Ricci tensor exactly).
        tr = self.tracefree_ricci
        tr_ud = self.ginv @ tr
        d = np.eye(DIM)
        return (np.einsum("ac,bd->abcd", tr_ud, self.g)
                - np.einsum("ad,bc->abcd", tr_ud, self.g)
                + np.einsum("ac,bd->abcd", d, tr)
                - np.einsum("ad,bc->abcd", d, tr)) / 2.0

    @cached_property
    def weyl_ud(self) -> np.ndarray:
        """Weyl conformal tensor C^a_bcd (fully trace-free)."""
        d = np.eye(DIM)
        trace_part = (np.einsum("ac,bd->abcd", d, self.g)
                      - np.einsum("ad,bc->abcd", d, self.g))
        return (self.riem_ud - self.e_ud
                - (self.ricci_scalar / 12.0) * trace_part)

    # -- derivative tensors (need a backing spec) ------------------------------

    def _rebuilt(self, order: int) -> "PointFrame":
        """This point's frame from a one-row frames_at through ``order``."""
        if self.spec is None or self.point is None:
            raise MetricError("synthetic frame carries no derivative data")
        return next(frames_at(self.spec, self.point[None, :], order))

    # Plain properties over __dict__, which frames_at fills, so that a
    # profiler can wrap their getters.
    @property
    def cov_riemann(self) -> np.ndarray:
        """R^a_bcd;e with the covariant index trailing."""
        if "cov_riemann" not in vars(self):
            vars(self)["cov_riemann"] = vars(self._rebuilt(3))["cov_riemann"]
        return vars(self)["cov_riemann"]

    @property
    def cov2_riemann(self) -> np.ndarray:
        """R^a_bcd;e;f, second covariant derivative (trailing f)."""
        if "cov2_riemann" not in vars(self):
            fresh = vars(self._rebuilt(4))
            vars(self).setdefault("cov_riemann", fresh["cov_riemann"])
            vars(self)["cov2_riemann"] = fresh["cov2_riemann"]
        return vars(self)["cov2_riemann"]


# subscripts -> (swap operands, x axes, y axes, product axes, number of
# free x indices, number of free y indices)
_PLANS: dict[str, tuple] = {}


def _contract(subscripts: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.einsum(subscripts, x, y) for a one-index contraction of two
    batched tensors, as one batched np.matmul: the batch index n leads
    every operand and the output, one index is summed, and every other
    index appears once.  Each operand's free indices are moved into the
    output's order, the operand holding the output's last index goes on
    the right (so the result's innermost axis is contiguous), and the
    product is returned as a view in the output's index order.  The axis
    plan of each subscript string is worked out once."""
    plan = _PLANS.get(subscripts)
    if plan is None:
        ins, out = subscripts.split("->")
        xs, ys = ins.split(",")
        swap = out[-1] in xs
        if swap:
            xs, ys = ys, xs
        (m,) = (set(xs) & set(ys)) - {"n"}
        xf = [c for c in out[1:] if c in xs]
        yf = [c for c in out[1:] if c in ys]
        plan = _PLANS[subscripts] = (
            swap,
            (0, *(xs.index(c) for c in xf), xs.index(m)),
            (0, ys.index(m), *(ys.index(c) for c in yf)),
            (0, *(1 + (xf + yf).index(c) for c in out[1:])),
            len(xf), len(yf))
    swap, px, py, po, kx, ky = plan
    if swap:
        x, y = y, x
    n = len(x)
    prod = np.matmul(x.transpose(px).reshape(n, DIM ** kx, DIM),
                     y.transpose(py).reshape(n, DIM, DIM ** ky))
    return prod.reshape((n,) + (DIM,) * (kx + ky)).transpose(po)


def _riemann_derivative_stack(jets) -> dict:
    """Riemann and its covariant derivatives from batched metric jets
    (g, dg, d2g[, d3g[, d4g]]): a dict with ginv, gamma and R (R^a_bcd),
    plus covR (R^a_bcd;e) from d3g and cov2R (R^a_bcd;e;f) from d4g.
    frames_at calls it on row chunks (_CHUNK).

    Up to R, Gamma^a_bc = 1/2 g^ad s_dbc with s_dbc = d_b g_dc + d_c g_db
    - d_d g_bc, and d_e Gamma comes from d_e g^ad.  Higher derivatives of
    Gamma need no derivative of g^ad: differentiating g_ad Gamma^d_bc =
    1/2 s_abc gives

        g_ad d_e d_f Gamma^d_bc = 1/2 d_e d_f s_abc - d_e d_f g_am Gamma^m_bc
            - d_e g_am d_f Gamma^m_bc - d_f g_am d_e Gamma^m_bc

    and d_e d_f d_h Gamma the same way with seven terms, each raised
    with one product by g^ad.  With M^a_bcd = d_c Gamma^a_bd +
    Gamma^a_cm Gamma^m_bd, R^a_bcd = M^a_bcd - M^a_bdc, and so are its
    partial derivatives.  Every one-index contraction past R is a
    batched matmul (_contract).
    """
    g, dg, d2g = jets[:3]
    ginv, s, gamma = _gamma_terms(g, dg)
    ds = d2g.transpose(0, 1, 3, 2, 4) + d2g - d2g.transpose(0, 3, 1, 2, 4)
    dginv = -np.einsum("nam,nbp,nmpe->nabe", ginv, ginv, dg)
    dgamma = 0.5 * (np.einsum("nade,ndbc->nabce", dginv, s)
                    + np.einsum("nad,ndbce->nabce", ginv, ds))
    riem = (dgamma.transpose(0, 1, 2, 4, 3) - dgamma
            + np.einsum("nace,nebd->nabcd", gamma, gamma)
            - np.einsum("nade,nebc->nabcd", gamma, gamma))
    out = {"ginv": ginv, "gamma": gamma, "R": riem}
    if len(jets) < 4:
        return out

    # low = g_ad d_e d_f Gamma^d_bc; the sums below are built in place,
    # since the arrays alive at once set the peak memory of a chunk
    d3g = jets[3]
    low = d3g.transpose(0, 1, 3, 2, 4, 5) + d3g
    low -= d3g.transpose(0, 3, 1, 2, 4, 5)
    low *= 0.5
    low -= _contract("namef,nmbc->nabcef", d2g, gamma)
    t = _contract("name,nmbcf->nabcef", dg, dgamma)
    low -= t
    low -= t.transpose(0, 1, 2, 3, 5, 4)
    d2gamma = _contract("nad,ndbcef->nabcef", ginv, low)
    del low, t
    # d_e M^a_bcd, then d_e R = d_e M^a_bcd - d_e M^a_bdc
    dm = d2gamma.transpose(0, 1, 2, 4, 3, 5) + _contract(
        "nacme,nmbd->nabcde", dgamma, gamma)
    dm += _contract("nacm,nmbde->nabcde", gamma, dgamma)
    driem = dm - dm.transpose(0, 1, 2, 4, 3, 5)
    del dm
    covr = driem + _contract("naem,nmbcd->nabcde", gamma, riem)
    covr -= _contract("nmeb,namcd->nabcde", gamma, riem)
    covr -= _contract("nmec,nabmd->nabcde", gamma, riem)
    covr -= _contract("nmed,nabcm->nabcde", gamma, riem)
    out["covR"] = covr
    if len(jets) < 5:
        return out

    d4g = jets[4]
    # low = g_ad d_e d_f d_h Gamma^d_bc; the terms d_e d_f g d_h Gamma and
    # d_e g d_f d_h Gamma are each summed over the three ways to split
    # (e, f, h)
    low = d4g.transpose(0, 1, 3, 2, 4, 5, 6) + d4g
    low -= d4g.transpose(0, 3, 1, 2, 4, 5, 6)
    low *= 0.5
    low -= _contract("namefh,nmbc->nabcefh", d3g, gamma)
    t = _contract("namef,nmbch->nabcefh", d2g, dgamma)
    low -= t
    low -= t.transpose(0, 1, 2, 3, 4, 6, 5)
    low -= t.transpose(0, 1, 2, 3, 6, 4, 5)
    t = _contract("name,nmbcfh->nabcefh", dg, d2gamma)
    low -= t
    low -= t.transpose(0, 1, 2, 3, 5, 4, 6)
    low -= t.transpose(0, 1, 2, 3, 5, 6, 4)
    # d_f d_e M^a_bcd, its first term d_c d_e d_f Gamma^a_bd raised from low
    d2m = _contract("nam,nmbdcef->nabcdef", ginv, low)
    del low, t
    d2m += _contract("nacmef,nmbd->nabcdef", d2gamma, gamma)
    t = _contract("nacme,nmbdf->nabcdef", dgamma, dgamma)
    d2m += t
    d2m += t.transpose(0, 1, 2, 3, 4, 6, 5)
    d2m += _contract("nacm,nmbdef->nabcdef", gamma, d2gamma)
    # d_f R;e from d_f d_e R, then the connection terms of R;e;f
    cov2r = d2m - d2m.transpose(0, 1, 2, 4, 3, 5, 6)
    del d2m, t
    cov2r += _contract("naemf,nmbcd->nabcdef", dgamma, riem)
    cov2r += _contract("naem,nmbcdf->nabcdef", gamma, driem)
    cov2r -= _contract("nmebf,namcd->nabcdef", dgamma, riem)
    cov2r -= _contract("nmeb,namcdf->nabcdef", gamma, driem)
    cov2r -= _contract("nmecf,nabmd->nabcdef", dgamma, riem)
    cov2r -= _contract("nmec,nabmdf->nabcdef", gamma, driem)
    cov2r -= _contract("nmedf,nabcm->nabcdef", dgamma, riem)
    cov2r -= _contract("nmed,nabcmf->nabcdef", gamma, driem)
    cov2r += _contract("nafm,nmbcde->nabcdef", gamma, covr)
    cov2r -= _contract("nmfb,namcde->nabcdef", gamma, covr)
    cov2r -= _contract("nmfc,nabmde->nabcdef", gamma, covr)
    cov2r -= _contract("nmfd,nabcme->nabcdef", gamma, covr)
    cov2r -= _contract("nmfe,nabcdm->nabcdef", gamma, covr)
    out["cov2R"] = cov2r
    return out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _signature_signs(eig: np.ndarray):
    scale = max(1.0, float(np.max(np.abs(eig))))
    if np.any(np.abs(eig) < 1e-10 * scale):
        raise DegenerateMetricError("metric has a (near-)zero eigenvalue")
    return tuple(int(np.sign(v)) for v in np.sort(eig))


def signature_at(spec: MetricSpec, point) -> tuple[int, ...]:
    """Sorted eigenvalue signs of g at the point; Lorentz iff (-1,1,1,1)."""
    (g,), finite, admissible, _ = _metric_jets(
        spec, np.asarray(point, float)[None, :], 0)
    if not admissible[0]:
        raise _inadmissible(point)
    if not finite[0]:
        _diagnose_point(spec, point, max_order=0)
    return _signature_signs(np.linalg.eigvalsh(g[0]))


def frame_at(spec: MetricSpec, point, order: int = 2) -> PointFrame:
    """Evaluate the full tensor frame of ``spec`` at ``point``, built
    through metric derivative ``order`` as in frames_at.

    Raises AdmissibilityError / DomainError for bad points,
    DegenerateMetricError and SignatureError for bad metrics.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (DIM,):
        raise MetricError("point must have 4 coordinates")
    return next(frames_at(spec, point[None, :], order))


def frames_at(spec: MetricSpec, points, order: int = 2):
    """Yield the tensor frame of ``spec`` at each of ``points`` (n, 4), in
    point order.

    ``order`` is the highest metric derivative the caller will use: 2 for
    Riemann, 3 for R^a_bcd;e, 4 for R^a_bcd;e;f.  The points are taken
    in chunks of _CHUNK * 4^(4 - order) rows (8 at order 4): one compiled
    call (_metric_jets) evaluates the chunk's jets up to that order and
    its domain constraints, one derivative stack
    (_riemann_derivative_stack) assembles its tensors (g^-1 included),
    one eigvalsh call tests its signatures, and its frames, which hold
    row views of them, are yielded before the next chunk is evaluated;
    so memory does not grow with the batch.

    Nothing is raised before iteration reaches a bad row.  There the
    exception that frame_at raises for that point is raised, checked in
    frame_at's order: admissibility, finite jets, determinant, signature.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != DIM:
        raise MetricError("points must have 4 coordinates")
    order = min(max(order, 2), 4)
    rows = _CHUNK * DIM ** (4 - order)
    for start in range(0, len(pts), rows):
        chunk = pts[start:start + rows]
        jets, _, admissible, valid = _metric_jets(spec, chunk, order)
        ok = admissible & valid
        # iteration stops at the first bad row, so the stack covers the
        # rows before it
        n = len(chunk) if ok.all() else int(np.argmin(ok))
        stack = _riemann_derivative_stack(tuple(j[:n] for j in jets))
        eig = np.linalg.eigvalsh(jets[0][:n])
        for i in range(n):
            signs = _signature_signs(eig[i])
            if signs != (-1, 1, 1, 1):
                raise SignatureError(f"signature {signs} is not Lorentz")
            frame = PointFrame(jets[0][i], stack["R"][i], point=chunk[i],
                               spec=spec, gamma=stack["gamma"][i])
            frame.ginv = stack["ginv"][i]
            if "covR" in stack:
                vars(frame)["cov_riemann"] = stack["covR"][i]
            if "cov2R" in stack:
                vars(frame)["cov2_riemann"] = stack["cov2R"][i]
            yield frame
        if n < len(chunk):
            if not admissible[n]:
                raise _inadmissible(chunk[n])
            _raise_invalid(spec, chunk[n],
                           tuple(j[n:n + 1] for j in jets[:3]))


def cov_deriv_sym2_at(spec: MetricSpec, field, point) -> np.ndarray:
    """Covariant derivative T_ab;c of a symmetric (0,2) expression field."""
    comps = tuple(tuple(row) for row in field)
    for a in range(DIM):
        for b_ in range(a):
            if comps[a][b_] != comps[b_][a]:
                raise MetricError("field must be symmetric")
    check_admissible(spec, point)
    _, cov = cov_deriv_batch(spec, comps, np.asarray(point, float)[None, :])
    return cov[0]
