"""Metric specifications and pointwise tensor assembly.

All coordinate derivatives of the metric are taken symbolically (exact),
then every tensor (Christoffels, curvature, covariant derivatives) is
assembled numerically at sample points with numpy.  Finite differences
never appear outside the test oracles.  Jets come from one compiled
program per field and derivative order k, whose one call returns
orders 0..k.  A metric's programs, and its Christoffel kernel, are also
memoised per spec, since the geodesic loop evaluates them on every RK4
stage.  The Christoffel kernel is the metric's order-1 program with
the symbolic det g and Gamma = adj(g) s / (2 det g), over one shared
reciprocal, compiled in: a christoffel_batch block or an RK4 stage is
one compiled call and no numpy linear-algebra call, and the stages of
a block of RK4 steps are tested valid in one pass.  frames_at
assembles the tensors of a chunk of points in one batched stack and
hands each PointFrame its rows; a frame computes any other tensor when
first read.
The stack is packed from Gamma on: the jets of Gamma keep b <= c and
sorted derivative indices, R, R;e and R;e;f keep the pairs c < d of
their antisymmetric (c, d) slots; the stack unpacks R for its frames,
and a frame unpacks R;e or R;e;f to the full tensor only when
cov_riemann or cov2_riemann is read.

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
    Const, Expr, ParamEnv, add, compile_program, differentiate, div,
    eval_expr, free_symbols, mul, parse_expr, sub, sym_cofactor4, sym_det4,
    sym_sum,
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
# frames_at assembles _CHUNK * 4^(4 - order) rows per derivative stack.
# The largest arrays through order k hold about 4^(k + 2) floats per
# row: d^k g itself (256, 1 024, 4 096 at orders 2-4), and at order 4 the
# gathered factors of d^3 Gamma and of d_e d_f R, 4 800 and 3 200; the
# packed R;e and R;e;f hold 384 and 1 536 (the full ones 1 024 and 4 096).
# So every chunk's arrays stay within about _CHUNK * 4^6 floats (256-300
# kB)
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
    values.  A per-spec memo, for _metric_jets runs on every chunk of
    frames_at and every batch of sample_points: a lookup by spec (nodes
    hash by identity) costs about a third of a _jet_program lookup plus
    _values."""
    return (*_jet_program(spec.g, spec.coords, spec.params.names(), order,
                          spec.constraints), _values(spec))


# the index pairs b <= c in order, and the row of Gamma^a_bc among the
# 40 Gamma rows (a, then b <= c) for each (a, b, c) in C order
_PAIRS = [(b, c) for b in range(DIM) for c in range(b, DIM)]
_GAMMA_ROWS = np.array([len(_PAIRS) * a + _PAIRS.index(tuple(sorted(bc)))
                        for a, *bc in np.ndindex(DIM, DIM, DIM)])


@lru_cache(maxsize=1024)
def _christoffel_rows(g: tuple, coords: tuple) -> tuple:
    """det g, then Gamma^a_bc for a and b <= c in order, as expressions,
    to ride along the order-1 jet program of g.  With s_dbc = d_b g_dc +
    d_c g_db - d_d g_bc and one shared reciprocal r = 1/2 / det g,
    Gamma^a_bc = (sum_d adj(g)^ad s_dbc) r.  s_bbb is emitted as d_b g_bb,
    the value of (x + x) - x in IEEE arithmetic (2x is exact, and so is
    2x - x by Sterbenz's lemma) wherever 2x does not overflow.  Keyed by
    structure, so parameter draws share the rows and their program."""
    det = sym_det4(g)
    dg = [[[differentiate(g[a][b], c) for c in coords] for b in range(DIM)]
          for a in range(DIM)]

    def s(d, b, c):
        if d == b == c:
            return dg[b][b][b]
        return sub(add(dg[d][c][b], dg[d][b][c]), dg[b][c][d])

    r = div(Const(Fraction(1, 2)), det)
    rows = [det]
    for a in range(DIM):
        adj = [sym_cofactor4(g, a, d) for d in range(DIM)]
        rows.extend(mul(sym_sum([mul(adj[d], s(d, b, c))
                                 for d in range(DIM)]), r)
                    for b, c in _PAIRS)
    return tuple(rows)


def _fused_program(spec: MetricSpec, rows: tuple) -> tuple:
    """(program, values, size): the bare program (exprdsl's
    evaluate.program) of spec's order-1 jets with its constraints and
    ``rows`` (det g and the 40 Gamma rows) riding along, spec's
    parameter values, and the rows of the block it writes."""
    f, _ = _jet_program(spec.g, spec.coords, spec.params.names(), 1,
                        spec.constraints + rows)
    # perfbench's tracer wraps the evaluators it sees compiled, keeping
    # the evaluator as __wrapped__
    program = getattr(f, "__wrapped__", f).program
    return program, _values(spec), 50 + len(spec.constraints) + len(rows)


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
        finite, admissible = _row_masks(vals, pts.T,
                                        len(vals) - len(spec.constraints))
        # the rows of vals are the jets' entries, so up to order 2 their
        # finiteness is the one the determinant test needs
        valid = _valid_rows(jets[:3], finite if order <= 2 else None)
    return jets, finite, admissible, valid


def _row_masks(vals: np.ndarray, cols: np.ndarray, m: int) -> tuple:
    """(finite, admissible) of compiled blocks vals (..., rows, n) at
    points with coordinate rows cols (..., 4, n), whose rows [:m] are
    jet entries and the rest domain constraints: the points with finite
    jets, and the points with finite coordinates at which every
    constraint evaluates finite and > 0."""
    finite = np.isfinite(vals)
    admissible = (np.isfinite(cols).all(axis=-2)
                  & (finite[..., m:, :] & (vals[..., m:, :] > 0.0))
                  .all(axis=-2))
    return finite[..., :m, :].all(axis=-2), admissible


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
    hold the flat placeholder gamma = 0.  One block of spec's
    _christoffel_kernel: one compiled call gives det g and Gamma, then
    the block's validity is tested, per row only when the whole-block
    test fails."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _christoffel_block(_christoffel_kernel(spec), pts)


def _christoffel_block(kernel, pts: np.ndarray) -> tuple:
    """christoffel_batch at points pts (n, 4) float through kernel, a
    _christoffel_kernel; one np.errstate silences the evaluation and the
    validity tests."""
    stages = kernel(1, len(pts))
    with np.errstate(all="ignore"):
        gamma = stages(pts)
        if stages.valid():
            ok = np.empty(len(pts), dtype=bool)
            ok.fill(True)
            return gamma, ok, ok.copy()
        (ok,), (admissible,) = stages.masks()
    gamma[~ok] = 0.0
    return gamma, ok, admissible


@lru_cache(maxsize=1024)
def _christoffel_kernel(spec: MetricSpec):
    """spec's Christoffel kernel, a per-spec memo like _metric_program:
    kernel(count, n) gives the stages of one block, _FusedStages bound to
    spec's _fused_program.  christoffel_batch runs one stage; the
    geodesic loop runs four per RK4 step in one buffer, rewound for each
    block of steps, and decides a block's validity once."""
    rows = _christoffel_rows(spec.g, spec.coords)
    return partial(_FusedStages, *_fused_program(spec, rows))


class _FusedStages:
    """The Christoffel stages of one block: up to ``count`` evaluations
    of a metric's fused program (_fused_program) at n points each, in
    two parts.  Evaluation: a call writes the points' coordinate rows
    and the program's block (rows 0..9 g, upper triangle, 10..49 dg,
    then the constraints, det g and the 40 Gamma rows) into the next
    slice of one buffer and returns Gamma, unmasked; the block's
    constant rows are written into every slice when the buffer is
    built.  Validity: valid() is _block_valid over every block
    evaluated since the last rewind(), masks() their per-row (ok,
    admissible), each (k, n).  Callers hold the np.errstate."""

    def __init__(self, program, values: tuple, size: int, count: int,
                 n: int):
        self.program, self.k = program, 0
        self.vals = np.empty((count, size, n))
        self.cols = np.empty((count, DIM, n))
        # the program leaves its constant rows alone: write them once
        rows, consts = program.const_rows
        self.vals[:, rows] = consts
        # per slice: its coordinate rows, the program's arguments and
        # its Gamma rows
        self.slices = [(cols, (vals, *cols, *values), vals[-40:])
                       for vals, cols in zip(self.vals, self.cols)]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        cols, args, gamma = self.slices[self.k]
        self.k += 1
        cols[...] = pts.T
        self.program(*args)
        return gamma.take(_GAMMA_ROWS, axis=0).T.reshape(
            len(pts), DIM, DIM, DIM)

    def rewind(self) -> None:
        """Start the next block in the same buffer."""
        self.k = 0

    def valid(self) -> bool:
        return _block_valid(self.vals[:self.k], self.cols[:self.k])

    def masks(self) -> tuple:
        vals = self.vals[:self.k]
        finite, admissible = _row_masks(vals[:, :-41], self.cols[:self.k],
                                        50)
        ok = finite & _nondegenerate(vals[:, -41],
                                     np.abs(vals[:, :10]).max(axis=1))
        return ok, admissible


def _block_valid(vals: np.ndarray, cols: np.ndarray) -> bool:
    """Whether every row of non-empty fused blocks vals (k, size, n) at
    points with coordinate rows cols (k, 4, n) passes the per-row tests
    of _FusedStages.masks, in a few reductions over all k blocks at once:
    the squares of every entry of the blocks and of the points have a
    finite sum (so every entry is finite), every constraint row is > 0,
    and half the smallest |det g| passes the determinant test of
    _nondegenerate at the blocks' largest |g_ab|.
    That threshold is at least every row's own, and the halving is slack
    for rounding in it, so blocks that pass have no row that the per-row
    test rejects; a False costs only the per-row masks.  The threshold
    is a numpy scalar, as in _nondegenerate: past max |g_ab| ~ 1e77 its
    fourth power is inf under the caller's np.errstate, and the blocks
    fail."""
    m = vals.shape[1] - 41  # the end of the constraint rows
    if not (vals.shape[-1]
            and math.isfinite(np.vdot(vals, vals) + np.vdot(cols, cols))
            and (m == 50 or np.minimum.reduce(vals[:, 50:m], None) > 0)):
        return False
    gmax = np.maximum(np.maximum.reduce(np.abs(vals[:, :10]), None), 1e-300)
    dmin = np.minimum.reduce(np.abs(vals[:, -41]), None)
    return bool(dmin / 2 > DEGENERACY_TOL * gmax ** 4)


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
    frames_at assigns what its chunk computed: g^-1 and, through its
    order, the packed rows of R;e and R;e;f (packed).  cov_riemann and
    cov2_riemann unpack those to the full tensors when first read;
    every other tensor is computed when first read.  All are then kept.
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

    def packed(self, key: str) -> np.ndarray:
        """This point's row of the derivative stack's packed R;e ("covR6",
        laid out (e, a, b, cd)) or R;e;f ("cov2R6", (e, f, a, b, cd)), c <
        d: as frames_at stored it, or else from a one-row frames_at at
        order 3 or 4, whose rows are kept (an order-4 one serves both)."""
        if key not in vars(self):
            fresh = vars(self._rebuilt(3 + _PACKED.index(key)))
            for k in _PACKED:
                if k in fresh:
                    vars(self).setdefault(k, fresh[k])
        return vars(self)[key]

    # Plain properties over __dict__, so that a profiler can wrap their
    # getters.
    @property
    def cov_riemann(self) -> np.ndarray:
        """R^a_bcd;e with the covariant index trailing, unpacked from
        packed("covR6") when first read."""
        if "cov_riemann" not in vars(self):
            vars(self)["cov_riemann"] = _unpack(
                self.packed("covR6")[None])[0]
        return vars(self)["cov_riemann"]

    @property
    def cov2_riemann(self) -> np.ndarray:
        """R^a_bcd;e;f, second covariant derivative (trailing f), unpacked
        from packed("cov2R6") when first read."""
        if "cov2_riemann" not in vars(self):
            vars(self)["cov2_riemann"] = _unpack(
                self.packed("cov2R6")[None])[0]
        return vars(self)["cov2_riemann"]


# The packed layouts of the derivative stack.  A row's Gamma jets d^Q
# Gamma^a_bc, Q sorted and b <= c, sit in one flat array: the constant
# 0, then level k = 0, 1, ... (|Q| = k), each laid out (a, Q, bc).  R,
# R;e and R;e;f keep the pairs c < d of their antisymmetric (c, d)
# slots, in bivector.BASIS_PAIRS order, laid out ([e[, f],] a, b, cd).
_SIX = [(c, d) for c in range(DIM) for d in range(c + 1, DIM)]
_SIX_INDEX = tuple(np.array(ix) for ix in zip(*_SIX))
_PAIR_AT = np.zeros((DIM, DIM), dtype=np.intp)  # the position of pair bc
for _i, (_b, _c) in enumerate(_PAIRS):
    _PAIR_AT[_b, _c] = _PAIR_AT[_c, _b] = _i
_ZERO = 0
_PACKED = ("covR6", "cov2R6")  # the stack's packed R;e and R;e;f
# where each level of the Gamma jets starts: 1, 41, 201, 601, 1401
_OFF = list(itertools.accumulate(
    (DIM * math.comb(DIM + k - 1, k) * len(_PAIRS) for k in range(4)),
    initial=1))
_AXIS = np.arange(DIM)


@lru_cache(maxsize=None)
def _sorted_multi(k: int) -> dict:
    """{sorted derivative multi-index of length k: its position}."""
    return {q: i for i, q in enumerate(
        itertools.combinations_with_replacement(range(DIM), k))}


def _flat(*ix):
    """The row-major position of index ix in a (4,) * len(ix) array; the
    indices broadcast, and the first may run past 3."""
    pos = 0
    for i in ix:
        pos = pos * DIM + i
    return pos


# where d_f Gamma^a_em sits in a row's packed Gamma jets, laid out (e, f,
# a, m): at level 1, (a, f, em)
_DGAMMA_EF = np.fromfunction(
    lambda e, f, a, m: _OFF[1] + len(_PAIRS) * _flat(a, f) + _PAIR_AT[e, m],
    (DIM,) * 4, dtype=np.intp)


def _jet_row(r: tuple, m):
    """The row (of 10 pairs bc) that holds d^r Gamma^m_bc in a row's
    packed Gamma jets, counted from the first level; r is sorted."""
    multi = _sorted_multi(len(r))
    return (_OFF[len(r)] - _OFF[0]) // len(_PAIRS) + m * len(multi) + multi[r]


def _leibniz(q: tuple, top: int):
    """The Leibniz terms d^(q-r) x d^r y of d^q (x y) with |r| < top, one
    per multiset r in q: (the jet rows (r, m) over m, q - r, how many
    of the 2^|q| terms it stands for)."""
    for j in range(top):
        for r in _sorted_multi(j):
            rest = list(q)
            for i in r:
                if i in rest:
                    rest.remove(i)
            if len(rest) == len(q) - j:  # r lies in q
                yield (_jet_row(r, _AXIS), tuple(rest), math.prod(
                    math.comb(q.count(i), r.count(i)) for i in set(r)))


@lru_cache(maxsize=None)
def _level_tables(k: int) -> tuple:
    """(s, w, times): the gathers for level k of the Gamma jets, from

        g_ad d^Q Gamma^d_bc = 1/2 d^Q s_abc
            - sum over r strictly inside Q of
              times d^(Q-r) g_am d^r Gamma^m_bc,

    Gamma itself at k = 0, where the sum is empty.  s holds the
    positions of d^Q d_b g_ac, d^Q d_c g_ab and d^Q d_a g_bc in the flat
    d^(k+1) g, laid out (a, Q, bc).  w holds the positions of d^(Q-r)
    g_am in the flat dg, d2g, ... put one after the other, laid out (a,
    Q) by the jet row (r, m) it multiplies, and times the Leibniz count
    (0 where r is not in Q; None where all are 1)."""
    multi = _sorted_multi(k)
    rows = (_OFF[k] - _OFF[0]) // len(_PAIRS)
    w = np.zeros((DIM, len(multi), rows), dtype=np.intp)
    times = np.zeros(w.shape)
    start = np.cumsum([0] + [DIM ** (j + 2) for j in range(1, k)])
    digits = [np.array(list(multi))[:, i, None] for i in range(k)]
    a, (b, c) = _AXIS[:, None, None], np.array(_PAIRS).T
    s = np.array([_flat(a, c, b, *digits), _flat(a, b, c, *digits),
                  _flat(b, c, a, *digits)])
    for q, qi in multi.items():
        for col, rest, t in _leibniz(q, k):
            w[:, qi][:, col] = start[len(rest) - 1] + _flat(
                _AXIS[:, None], _AXIS, *rest)
            times[:, qi][:, col] = t
    times = None if (times == 1).all() else times
    return _read_only(s, w, times)


@lru_cache(maxsize=None)
def _dm_tables(k: int) -> tuple:
    """(top, u, times, v, lead, last, anti): the gathers that give d^Q
    R^a_bcd for |Q| = k from a row's packed Gamma jets through level k +
    1.

    With M^a_bcd = d_c Gamma^a_bd + Gamma^a_cm Gamma^m_bd, d^Q M for every
    (c, d), rows (Q, c, a) by columns (d, b), is d^Q d_c Gamma^a_db,
    gathered by top, plus two products.  In the first, the left factor, u scaled by
    times (None where all are 1), holds d^(Q-r) Gamma^a_cm for every r
    strictly inside Q, by the jet row (r, m) it multiplies, and the
    right factor, v, holds d^r Gamma^m_db; at k = 0 there is no such r.
    The second, Gamma^a_cm d^Q Gamma^m_db, is one product per Q of lead,
    Gamma^a_cm as rows (c, a) by m, and last, d^Q Gamma^m_db as (Q, m,
    db).  anti holds the positions in the sum of d^Q M^a_bcd and d^Q
    M^a_bdc, for every Q in every order, laid out (Q, ab, cd) with c <
    d: their difference is d^Q R."""
    multi = _sorted_multi(k)
    rows = (_OFF[k] - _OFF[0]) // len(_PAIRS)
    u = np.full((len(multi), DIM, DIM, rows), _ZERO, dtype=np.intp)
    times = np.ones(u.shape)
    top = np.empty((len(multi), DIM, DIM, DIM * DIM), dtype=np.intp)
    last = np.empty((len(multi), DIM, DIM * DIM), dtype=np.intp)
    c, a, m = np.ix_(_AXIS, _AXIS, _AXIS)
    for q, qi in multi.items():
        for col, rest, t in _leibniz(q, k):
            u[qi][..., col] = (_OFF[0] + _PAIR_AT[c, m]
                               + len(_PAIRS) * _jet_row(rest, a))
            times[qi][..., col] = t
        for cc in range(DIM):
            row = _jet_row(tuple(sorted(q + (cc,))), _AXIS[:, None])
            top[qi, cc] = (_OFF[0] + len(_PAIRS) * row
                           + _PAIR_AT.reshape(-1))
        last[qi] = (_OFF[0] + len(_PAIRS) * _jet_row(q, _AXIS[:, None])
                    + _PAIR_AT.reshape(-1))
    v = (_OFF[0] + len(_PAIRS) * np.arange(rows)[:, None]
         + _PAIR_AT.reshape(-1))
    lead = (_OFF[0] + len(_PAIRS) * _jet_row((), a)
            + _PAIR_AT[c, m]).reshape(DIM * DIM, DIM)
    qi = np.array([multi[tuple(sorted(x))]
                   for x in itertools.product(range(DIM), repeat=k)])
    qi = qi.reshape((DIM,) * k + (1, 1, 1))
    a, b, (c, d) = _AXIS[:, None, None], _AXIS[:, None], _SIX_INDEX
    anti = np.array([_flat(qi, c, a, d, b), _flat(qi, d, a, c, b)]).reshape(
        (2,) + (DIM,) * k + (DIM * DIM, len(_SIX)))
    u = u.reshape(len(multi) * DIM * DIM, rows)
    times = None if (times == 1).all() else times.reshape(u.shape)
    top = top.reshape(len(multi), DIM * DIM, DIM * DIM)
    return _read_only(top, u, times, v, lead, last, anti)


def _read_only(*tables) -> tuple:
    """The cached tables, made read only: every stack shares them."""
    for t in tables:
        if t is not None:
            t.setflags(write=False)
    return tables


def _unit_actions() -> tuple:
    """The connection terms of each unit matrix x^u_v, row uv of two maps:
    (16, 256) to its 16x16 action on the slots ab, x on a and -x on b,
    and (16, 36) to the transpose of its 6x6 action on the pairs cd,
    (K y)_cd = -x^m_c y_md - x^m_d y_cm."""
    on_ab = np.zeros((DIM,) * 6)  # (u, v, a, b, a', b')
    on_cd = np.zeros((DIM, DIM, len(_SIX), len(_SIX)))  # (u, v, q, p)
    for u, v, i in itertools.product(range(DIM), repeat=3):
        on_ab[u, v, u, i, v, i] += 1.0  # x^a_m y^m_b
        on_ab[u, v, i, v, i, u] -= 1.0  # -y^a_m x^m_b
    for p, (c, d) in enumerate(_SIX):
        for m in range(DIM):
            # -x^m_c y_md and -x^m_d y_cm, with y_ij = -y_ji
            for x, (i, j) in ((c, (m, d)), (d, (c, m))):
                if i != j:
                    on_cd[m, x, _SIX.index((min(i, j), max(i, j))), p] -= (
                        1.0 if i < j else -1.0)
    return on_ab.reshape(DIM * DIM, -1), on_cd.reshape(DIM * DIM, -1)


_ACTIONS = _unit_actions()


def _act(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The connection terms of a covariant derivative, with the matrices x
    (..., 4, 4), x^a_m = Gamma^a_em or a derivative of it, on the packed
    y (..., 16, 6), slots ab by pairs cd < : x y on a, -y x on b and the
    6x6 action of x on cd, two products (_ACTIONS).  The leading axes of
    x and y broadcast."""
    flat = x.reshape(x.shape[:-2] + (DIM * DIM,))
    on_ab, on_cd = _ACTIONS
    out = (flat @ on_ab).reshape(x.shape[:-2] + (DIM * DIM,) * 2) @ y
    out += y @ (flat @ on_cd).reshape(x.shape[:-2] + (len(_SIX),) * 2)
    return out


def _dm(jet: np.ndarray, k: int) -> np.ndarray:
    """d^Q R^a_bcd, |Q| = k, of every row of packed Gamma jets, laid out
    (n, Q, ab, cd) with c < d (_dm_tables)."""
    top, u, times, v, lead, last, anti = _dm_tables(k)
    n = len(jet)
    prod = np.take(jet, top, axis=1)
    if k:
        left = np.take(jet, u, axis=1)
        if times is not None:
            left *= times
        prod += (left @ np.take(jet, v, axis=1)).reshape(prod.shape)
    prod += np.take(jet, lead, axis=1)[:, None] @ np.take(jet, last, axis=1)
    pair = np.take(prod.reshape(n, len(last) * DIM ** 4), anti, axis=1)
    return pair[:, 0] - pair[:, 1]


def _unpack(six: np.ndarray) -> np.ndarray:
    """The full R^a_bcd;e or R^a_bcd;e;f of packed rows (n, e[, f], a, b,
    cd), c < d: (n, a, b, c, d, e[, f]), antisymmetric in (c, d)."""
    lead = six.shape[:-3]
    k = len(lead) - 1
    full = np.zeros(lead[:1] + (DIM,) * 4 + lead[1:])
    moved = six.transpose(0, k + 1, k + 2, k + 3, *range(1, k + 1))
    full[:, :, :, _SIX_INDEX[0], _SIX_INDEX[1]] = moved
    full[:, :, :, _SIX_INDEX[1], _SIX_INDEX[0]] = -moved
    return full


def _riemann_derivative_stack(jets) -> dict:
    """Riemann and its covariant derivatives from batched metric jets
    (g, dg, d2g[, d3g[, d4g]]): a dict with ginv, gamma and R (R^a_bcd,
    unpacked), plus covR6 (R^a_bcd;e) from d3g and cov2R6 (R^a_bcd;e;f)
    from d4g, packed: the pairs c < d only, laid out (n, e[, f], a, b,
    cd), which _unpack turns into the full tensor.  frames_at calls it
    on row chunks (_CHUNK).

    The jets of Gamma need no derivative of g^ad: with s_abc = d_b g_ac
    + d_c g_ab - d_a g_bc, g_ad Gamma^d_bc = 1/2 s_abc, and
    differentiating it gives, by the Leibniz rule,

        g_ad d^Q Gamma^d_bc = 1/2 d^Q s_abc
            - sum over r strictly inside Q of d^(Q-r) g_am d^r Gamma^m_bc

    each raised with one product by g^ad.  These jets stay packed, b <=
    c and Q sorted, and each level, Gamma itself the first, is one
    product of gathered factors (_level_tables).  With M^a_bcd = d_c
    Gamma^a_bd + Gamma^a_cm Gamma^m_bd, R^a_bcd = M^a_bcd - M^a_bdc, and
    its partial derivatives are those of M: M, d_e M, and the symmetric
    d_e d_f M on the 10 sorted pairs ef each come from gathered jets and
    products of gathered factors (_dm).  Then, with A_x the connection
    terms of x^a_m (_act: x on a, -x on b, and one 6x6 action on cd),

        R;e   = d_e R + A_{Gamma_e} R
        R;e;f = d_e d_f R + A_{d_f Gamma_e} R + A_{Gamma_e} d_f R
                + A_{Gamma_f} R;e - Gamma^m_fe R;m

    where (Gamma_e)^a_m = Gamma^a_em.
    """
    order = len(jets) - 1
    n = len(jets[0])
    ginv = np.linalg.inv(jets[0])
    jet = np.empty((n, _OFF[order]))
    jet[:, _ZERO] = 0.0
    flat_g = np.concatenate([j.reshape(n, DIM ** j.ndim // DIM)
                             for j in jets[1:order]], axis=1)
    for k in range(order):
        s_at, w_at, times = _level_tables(k)
        nq, rows = w_at.shape[1:]
        part = jets[k + 1].reshape(n, DIM ** (k + 3))[:, s_at]
        low = part[:, 0] + part[:, 1]
        low -= part[:, 2]
        low *= 0.5
        if k:  # the Leibniz sum; level 0 has none
            w = np.take(flat_g, w_at, axis=1)
            if times is not None:
                w *= times
            low -= (w.reshape(n, DIM * nq, rows)
                    @ jet[:, _OFF[0]:_OFF[k]].reshape(n, rows, len(_PAIRS))
                    ).reshape(low.shape)
        np.matmul(ginv, low.reshape(n, DIM, nq * len(_PAIRS)),
                  out=jet[:, _OFF[k]:_OFF[k + 1]].reshape(
                      n, DIM, nq * len(_PAIRS)))

    gamma = jet[:, _OFF[0]:_OFF[1]].take(_GAMMA_ROWS, axis=1).reshape(
        n, DIM, DIM, DIM)
    r6 = _dm(jet, 0)
    out = dict(ginv=ginv, gamma=gamma,
               R=_unpack(r6.reshape(n, DIM, DIM, len(_SIX))))
    if order < 3:
        return out
    gamma_e = gamma.transpose(0, 2, 1, 3)  # (Gamma_e)^a_m = Gamma^a_em
    dr = _dm(jet, 1)
    covr = dr + _act(gamma_e, r6[:, None])
    out["covR6"] = covr.reshape(n, *(DIM,) * 3, len(_SIX))
    if order < 4:
        return out
    cov2r = _dm(jet, 2)
    cov2r += _act(np.take(jet, _DGAMMA_EF, axis=1), r6[:, None, None])
    cov2r += _act(gamma_e[:, :, None], dr[:, None])
    cov2r += _act(gamma_e[:, None], covr[:, :, None])
    cov2r -= (gamma.transpose(0, 3, 2, 1).reshape(n, DIM * DIM, DIM)
              @ covr.reshape(n, DIM, DIM * DIM * len(_SIX))
              ).reshape(cov2r.shape)
    out["cov2R6"] = cov2r.reshape(n, *(DIM,) * 4, len(_SIX))
    return out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _signature_signs(eig: np.ndarray):
    """Signs of g's eigenvalues, ascending as eigvalsh returns them."""
    scale = max(1.0, float(np.max(np.abs(eig))))
    if np.any(np.abs(eig) < 1e-10 * scale):
        raise DegenerateMetricError("metric has a (near-)zero eigenvalue")
    return tuple(int(np.sign(v)) for v in eig)


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
    (_riemann_derivative_stack) assembles its tensors (g^-1 included,
    R;e and R;e;f packed), one vectorised test over one eigvalsh call
    checks its signatures, and its frames, which hold row views of them,
    are yielded before the next chunk is evaluated; so memory does not
    grow with the batch.  A frame unpacks R;e or R;e;f only when
    cov_riemann or cov2_riemann is read.

    Nothing is raised before iteration reaches a bad row.  There the
    exception that frame_at raises for that point is raised, checked in
    frame_at's order: admissibility, finite jets, determinant, signature.
    """
    for frames, _ in _frame_chunks(spec, points, order):
        yield from frames


def _frame_chunks(spec: MetricSpec, points, order: int):
    """frames_at one chunk at a time: for each chunk, its frames up to
    its first bad row and the stacked arrays they view, the derivative
    stack's dict with g, ginv, gamma, R and, as ``order`` allows, the
    packed covR6 and cov2R6; then the exception of the bad row.  A chunk
    with no good row yields nothing.
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
        stack["g"] = jets[0][:n]
        # _signature_signs for every row: with the eigenvalues ascending,
        # a row is Lorentz and no eigenvalue is near zero exactly when the
        # first is at most -bound and the second at least +bound
        eig = np.linalg.eigvalsh(stack["g"])
        bound = 1e-10 * np.maximum(1.0, np.abs(eig).max(axis=1))
        good = (eig[:, 0] <= -bound) & (eig[:, 1] >= bound)
        lorentz = n if good.all() else int(np.argmin(good))
        if lorentz < n:
            stack = {k: v[:lorentz] for k, v in stack.items()}
        if lorentz:
            yield [_frame(spec, chunk[i], stack, i)
                   for i in range(lorentz)], stack
        if lorentz < n:
            signs = _signature_signs(eig[lorentz])
            raise SignatureError(f"signature {signs} is not Lorentz")
        if n < len(chunk):
            if not admissible[n]:
                raise _inadmissible(chunk[n])
            _raise_invalid(spec, chunk[n],
                           tuple(j[n:n + 1] for j in jets[:3]))


def _frame(spec: MetricSpec, point, stack: dict, i: int) -> PointFrame:
    """The frame of row i of a _frame_chunks stack, holding views of it."""
    frame = PointFrame(stack["g"][i], stack["R"][i], point=point, spec=spec,
                       gamma=stack["gamma"][i])
    frame.ginv = stack["ginv"][i]
    for key in _PACKED:
        if key in stack:
            vars(frame)[key] = stack[key][i]
    return frame


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
