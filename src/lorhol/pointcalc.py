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
    Const, Expr, ExprError, ParamEnv, add, compile_program, differentiate,
    div, eval_expr, free_symbols, mul, parse_expr, sub, sym_cofactor4,
    sym_det4, sym_sum,
)

__all__ = [
    "MetricSpec", "PointFrame", "MetricError", "DegenerateMetricError",
    "SignatureError", "AdmissibilityError", "metric_spec", "frame_at",
    "frames_at", "signature_at", "cov_deriv_sym2_at", "sample_points",
    "christoffel_batch", "require_valid", "cov_deriv_batch",
    "eval_field_batch", "check_coords", "parse_entry", "symmetric_components",
]

DIM = 4
DEGENERACY_TOL = 1e-12
# frames_at assembles _CHUNK * 4^(4 - order) rows per derivative stack.
# The largest arrays through order k hold about 4^(k + 2) floats per
# row: at order 4 the gathered factors of d^3 Gamma and of d_e d_f R,
# 4 800 and 3 200; the packed R;e and R;e;f hold 384 and 1 536 (the full
# ones 1 024 and 4 096); the metric's jets stay in the compiled block,
# 700 rows.  So every chunk's arrays stay within about _CHUNK * 4^6
# floats (256-300 kB)
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
        check_coords(self.coords)
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


def check_coords(coords: Sequence[str]) -> None:
    """Raise MetricError unless coords are 4 distinct names."""
    if len(coords) != DIM or len(set(coords)) != DIM:
        raise MetricError("need 4 distinct coordinate names")


def parse_entry(where: str, x, coords: Sequence[str],
                params: Sequence[str]) -> Expr:
    """x as an Expr: x itself, or its str parsed against the coordinate
    and parameter names.  An ExprError keeps its class and names
    ``where``, the entry's place in its input (such as metric[2][1])."""
    if isinstance(x, Expr):
        return x
    try:
        return parse_expr(str(x), coords, params)
    except ExprError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def symmetric_components(where: str, components: Sequence[Sequence],
                         coords: Sequence[str], params: Sequence[str]) -> tuple:
    """The symmetric 4x4 tuple of Exprs of ``components``, a full 4x4
    matrix or a lower triangle (rows of length 1..4), mirrored either
    way; entry i, j is parse_entry's where[i][j]."""
    rows = [list(r) for r in components]

    def entry(a, b):
        return parse_entry(f"{where}[{a}][{b}]", rows[a][b], coords, params)

    if [len(r) for r in rows] == [1, 2, 3, 4]:
        full = [[None] * DIM for _ in range(DIM)]
        for a in range(DIM):
            for b in range(a + 1):
                full[a][b] = full[b][a] = entry(a, b)
    elif [len(r) for r in rows] == [4, 4, 4, 4]:
        full = [[entry(a, b) for b in range(DIM)] for a in range(DIM)]
        for a in range(DIM):
            for b in range(a):
                if full[a][b] != full[b][a]:
                    raise MetricError(f"asymmetric input at ({a},{b})")
    else:
        raise MetricError("components must be a 4x4 matrix or lower triangle")
    return tuple(tuple(row) for row in full)


def metric_spec(coords: Sequence[str],
                components: Sequence[Sequence],
                params: Mapping[str, float] | ParamEnv | None = None,
                constraints: Sequence = (),
                sample_box=None,
                name: str = "") -> MetricSpec:
    """Build a MetricSpec from strings or Exprs: the coordinates are
    checked first, then ``components`` (symmetric_components, entries
    named metric[i][j]) and the constraints (constraints[k]) parsed."""
    env = params if isinstance(params, ParamEnv) else ParamEnv(params or {})
    coords = tuple(coords)
    check_coords(coords)
    g = symmetric_components("metric", components, coords, env.names())
    cons = tuple(parse_entry(f"constraints[{k}]", c, coords, env.names())
                 for k, c in enumerate(constraints))
    box = tuple(tuple(float(x) for x in b) for b in sample_box) if sample_box else None
    return MetricSpec(coords, g, env, cons, box, name)


# ---------------------------------------------------------------------------
# Symbolic jets with compiled scatter evaluation
# ---------------------------------------------------------------------------

def _jet_levels(comps: tuple, coords: Sequence[str], order: int) -> list:
    """The symbolic jets of orders 0..order of an expression field: one
    dict per order, keyed (field slots, derivative slots), each sorted,
    in _jet_layout's row order.  Four Exprs are a covector, a 4x4 tuple
    a symmetric (0,2) tensor (its upper triangle is read).  differentiate
    memoises every derivative for the process, so walking the levels
    again costs lookups only."""
    rank = 1 if isinstance(comps[0], Expr) else 2
    levels = []
    for keys, _ in _jet_layout(rank, order):
        levels.append({(f, m): differentiate(levels[-1][f, m[:-1]],
                                             coords[m[-1]]) if m
                       else (comps[f[0]] if rank == 1 else comps[f[0]][f[1]])
                       for f, m in keys})
    return levels


# the index pairs b <= c in order; _LEVEL[k], the first row of order k
# of a metric's jets in its compiled block (_jet_layout(2, .)): 0, 10,
# 50, 150, 350, and 700 past order 4.  A Christoffel kernel's block is
# the order-1 one, then the constraints, det g and the _GAMMA Gamma rows.
_PAIRS = list(itertools.combinations_with_replacement(range(DIM), 2))
_LEVEL = list(itertools.accumulate(
    (len(_PAIRS) * math.comb(DIM + k - 1, k) for k in range(5)), initial=0))
_GAMMA = DIM * len(_PAIRS)


def _read_only(*tables) -> tuple:
    """The cached tables, made read only: their every reader shares them."""
    for t in tables:
        if t is not None:
            t.setflags(write=False)
    return tables


def _flat(*ix):
    """The row-major position of index ix in a (4,) * len(ix) array; the
    indices broadcast, and the first may run past 3."""
    pos = 0
    for i in ix:
        pos = pos * DIM + i
    return pos


@lru_cache(maxsize=None)
def _sorted_multi(k: int) -> dict:
    """{sorted multi-index of length k: its position}."""
    return {q: i for i, q in enumerate(
        itertools.combinations_with_replacement(range(DIM), k))}


@lru_cache(maxsize=None)
def _sorted_at(k: int) -> np.ndarray:
    """(4,) * k: the position of each multi-index's sorted form in
    _sorted_multi(k)."""
    multi = _sorted_multi(k)
    at = np.array([multi[tuple(sorted(ix))]
                   for ix in itertools.product(range(DIM), repeat=k)])
    return _read_only(at.reshape((DIM,) * k))[0]


@lru_cache(maxsize=None)
def _jet_layout(rank: int, order: int) -> tuple:
    """The rows of a compiled block of a covector's (rank 1) or symmetric
    (0,2) tensor's (rank 2) jets: per order k in 0..order, (keys, index),
    keys the entries (field slots, derivative slots), each sorted, in row
    order, and index (4,) * (rank + k) the row of each entry of the full
    order-k array.  _jet_levels orders its keys by it; _field_jets,
    _metric_jets and the stack's tables (_level_tables) gather by it."""
    fields, levels, start = list(_sorted_multi(rank)), [], 0
    for k in range(order + 1):
        multi = list(_sorted_multi(k))
        index = (start + len(multi) * _sorted_at(rank)[(...,) + (None,) * k]
                 + _sorted_at(k))
        levels.append((tuple(itertools.product(fields, multi)),
                       *_read_only(index)))
        start += len(fields) * len(multi)
    return tuple(levels)


@lru_cache(maxsize=1024)
def _jet_program(comps: tuple, coords: tuple, pnames: tuple, order: int,
                 extra: tuple = ()) -> tuple:
    """(f, layout) for a field's jets of orders 0..order.  One compiled
    program f(points (n, 4), parameter values) returns an (n_exprs, n)
    block: the jets' entries, laid out by layout (_jet_layout), sharing
    their subexpressions, then one row per extra expression (a metric's
    domain constraints).  Parameter values are call-time arguments, so
    structurally equal fields share one program across parameter draws."""
    exprs = [e for level in _jet_levels(comps, coords, order)
             for e in level.values()]
    layout = _jet_layout(1 if isinstance(comps[0], Expr) else 2, order)
    return compile_program(exprs + list(extra), coords, pnames), layout


def _values(spec: MetricSpec) -> tuple:
    # as np.float64, so that a subexpression of parameters alone follows
    # numpy's arithmetic like every other line of a compiled program: a
    # domain error gives nan or inf under np.errstate, which the masks
    # and _diagnose_point report, not a Python complex or exception
    return tuple(np.float64(spec.params[n]) for n in spec.params.names())


@lru_cache(maxsize=1024)
def _metric_program(spec: MetricSpec, order: int, rows: tuple = ()) -> tuple:
    """(f, layout, values): the _jet_program of spec's metric through
    ``order`` with spec.constraints and then ``rows`` riding along, and
    spec's parameter values.  A per-spec memo, for _metric_jets runs on
    every chunk of frames_at and every batch of sample_points: a lookup
    by spec (nodes hash by identity) costs about a third of a
    _jet_program lookup plus _values."""
    return (*_jet_program(spec.g, spec.coords, spec.params.names(), order,
                          spec.constraints + rows), _values(spec))


# the row of Gamma^a_bc among the _GAMMA rows for each (a, b, c) in C order
_GAMMA_ROWS = (len(_PAIRS) * np.arange(DIM)[:, None, None]
               + _sorted_at(2)).ravel()


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


def _field_jets(spec: MetricSpec, comps, points, order: int = 0) -> tuple:
    """The jets of orders 0..order at ``points`` of a covector or
    symmetric (0,2) expression field over spec's coordinates and
    parameter values (see _jet_levels for the layout of ``comps``)."""
    comps = tuple(c if isinstance(c, Expr) else tuple(c) for c in comps)
    f, layout = _jet_program(comps, spec.coords, spec.params.names(), order)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with np.errstate(all="ignore"):
        vals = f(pts, _values(spec))
    return tuple(vals[index.ravel()].T.reshape((len(pts),) + index.shape)
                 for _, index in layout)


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
    """(g, block, finite, admissible, valid) at points pts (n, 4) float:
    g (n, 4, 4); the compiled block (rows, n), the metric's jets of
    orders 0..order (_jet_layout), then spec.constraints; the points
    whose jets of orders 0..min(order, 2) are finite; the points with
    finite coordinates at which every constraint evaluates finite and >
    0; and the finite points whose g passes _nondegenerate, under one
    np.errstate with the compiled call (an overflowing det or scale is
    inf and decides as it would unmuted)."""
    f, layout, values = _metric_program(spec, order)
    _, index = layout[0]
    with np.errstate(all="ignore"):
        vals = f(pts, values)
        g = vals[index.ravel()].T.reshape((len(pts),) + index.shape)
        finite, admissible = _row_masks(vals[:_LEVEL[min(order, 2) + 1]],
                                        vals[_LEVEL[order + 1]:], pts.T)
        valid = finite & _nondegenerate(np.linalg.det(g),
                                        np.max(np.abs(g), axis=(1, 2)))
    return g, vals, finite, admissible, valid


def _row_masks(jets: np.ndarray, cons: np.ndarray, cols: np.ndarray) -> tuple:
    """(finite, admissible) of compiled blocks whose jet rows are jets
    (..., m, n) and domain constraint rows cons (..., c, n), at points
    with coordinate rows cols (..., 4, n): the points whose jets are all
    finite, and the points with finite coordinates at which every
    constraint evaluates finite and > 0."""
    admissible = (np.isfinite(cols).all(axis=-2)
                  & (np.isfinite(cons) & (cons > 0.0)).all(axis=-2))
    return np.isfinite(jets).all(axis=-2), admissible


def admissible_mask(spec: MetricSpec, points: np.ndarray) -> np.ndarray:
    """Rows of ``points`` with finite coordinates at which every domain
    constraint evaluates finite and > 0; the constraints are evaluated
    in the compiled call that also evaluates g."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _metric_jets(spec, pts, 0)[3]


def _inadmissible(point) -> AdmissibilityError:
    return AdmissibilityError(
        f"point {list(map(float, point))} violates the domain constraints")


def check_admissible(spec: MetricSpec, point) -> None:
    if not admissible_mask(spec, np.asarray(point, float)[None, :])[0]:
        raise _inadmissible(point)


def sample_points(spec: MetricSpec, n: int, seed: int = 7) -> np.ndarray:
    """Uniform admissible points from spec.sample_box (rejection sampling,
    in rounds of max(2n, 16) draws, at most 200 rounds)."""
    if n < 1:
        raise MetricError(f"need at least one sample point, got {n}")
    box = spec.sample_box
    if box is None:
        raise MetricError("no sample box declared")
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    rng = np.random.default_rng(seed)
    draw = max(2 * n, 16)
    out = []
    for _ in range(200):
        cand = rng.uniform(lo, hi, size=(draw, DIM))
        out.append(cand[admissible_mask(spec, cand)])
        if sum(len(g) for g in out) >= n:
            break
    pts = np.concatenate(out)
    if len(pts) < n:
        raise AdmissibilityError(
            f"sample box gave {len(pts)} admissible points of the {n} asked "
            f"for in {draw * len(out)} draws")
    return pts[:n]


# ---------------------------------------------------------------------------
# Batched assembly building blocks
# ---------------------------------------------------------------------------

def _nondegenerate(det: np.ndarray, gmax: np.ndarray) -> np.ndarray:
    """The determinant test: |det g| > DEGENERACY_TOL * (max |g_ab|)^4."""
    return np.abs(det) > DEGENERACY_TOL * np.maximum(gmax, 1e-300) ** 4


def _raise_invalid(spec: MetricSpec, point, g, finite, order: int) -> None:
    """Raise for a point that _metric_jets(spec, ., order) found not
    valid, given its g and its finiteness there."""
    if not finite:
        _diagnose_point(spec, point, max_order=min(order, 2))
    raise DegenerateMetricError(f"det g = {float(np.linalg.det(g)):.3e} at "
                                f"{np.asarray(point, float).tolist()}")


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
    the bare program (exprdsl's evaluate.program) of spec's order-1
    block with det g and the Gamma rows, spec's parameter values and the
    block's row count.
    christoffel_batch runs one stage; the geodesic loop runs four per RK4
    step in one buffer, rewound for each block of steps, and decides a
    block's validity once."""
    rows = _christoffel_rows(spec.g, spec.coords)
    f, _, values = _metric_program(spec, 1, rows)
    # perfbench's tracer wraps the evaluators it sees compiled, keeping
    # the evaluator as __wrapped__
    program = getattr(f, "__wrapped__", f).program
    return partial(_FusedStages, program, values,
                   _LEVEL[2] + len(spec.constraints) + len(rows))


class _FusedStages:
    """The Christoffel stages of one block: up to ``count`` evaluations
    of a metric's fused program (_christoffel_kernel) at n points each,
    in two parts.  Evaluation: a call writes the points' coordinate rows
    and the program's block (_LEVEL: rows 0..9 g, upper triangle, 10..49
    dg, then the constraints, det g and the 40 Gamma rows) into the next
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
        self.slices = [(cols, (vals, *cols, *values), vals[-_GAMMA:])
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
        finite, admissible = _row_masks(vals[:, :_LEVEL[2]],
                                        vals[:, _LEVEL[2]:-_GAMMA - 1],
                                        self.cols[:self.k])
        ok = finite & _nondegenerate(vals[:, -_GAMMA - 1],
                                     np.abs(vals[:, :_LEVEL[1]]).max(axis=1))
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
    cons = vals[:, _LEVEL[2]:-_GAMMA - 1]
    if not (vals.shape[-1]
            and math.isfinite(np.vdot(vals, vals) + np.vdot(cols, cols))
            and (not cons.size or np.minimum.reduce(cons, None) > 0)):
        return False
    gmax = np.maximum(np.maximum.reduce(np.abs(vals[:, :_LEVEL[1]]), None),
                      1e-300)
    dmin = np.minimum.reduce(np.abs(vals[:, -_GAMMA - 1]), None)
    return bool(dmin / 2 > DEGENERACY_TOL * gmax ** 4)


def require_valid(spec: MetricSpec, points, ok) -> None:
    """Raise for the first row that christoffel_batch flagged in ``ok``:
    the precise domain error for non-finite jets, DegenerateMetricError
    for a degenerate g."""
    if not np.all(ok):
        point = np.atleast_2d(np.asarray(points, float))[np.argmin(ok)]
        g, _, finite, _, _ = _metric_jets(spec, point[None, :], 1)
        _raise_invalid(spec, point, g[0], finite[0], 1)


def eval_field_batch(spec: MetricSpec, comps, points) -> np.ndarray:
    """Values of a covector or symmetric (0,2) expression field, batched."""
    return _field_jets(spec, comps, points)[0]


def cov_deriv_batch(spec: MetricSpec, comps, points):
    """Covariant derivative of a covector (w_a;b) or symmetric (0,2)
    (T_ab;c) expression field, batched; returns (field, covariant
    derivative) with the derivative index trailing."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t, dt = _field_jets(spec, comps, pts, 1)
    return t, _covariant(spec, t, dt, pts)


def _covariant(spec: MetricSpec, t: np.ndarray, dt: np.ndarray,
               pts: np.ndarray) -> np.ndarray:
    """The covariant derivative, with spec's connection at pts (n, 4),
    of a covector or symmetric (0,2) field whose values and partial
    derivatives there are t and dt (_field_jets, orders 0 and 1)."""
    gamma, ok, _ = christoffel_batch(spec, pts)
    require_valid(spec, pts, ok)
    if t.ndim == 2:
        return dt - np.einsum("neab,ne->nab", gamma, t)
    return (dt
            - np.einsum("neca,neb->nabc", gamma, t)
            - np.einsum("necb,nae->nabc", gamma, t))


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
# slots, in BASIS_PAIRS order, laid out ([e[, f],] a, b, cd): the
# bivector basis order, which bivector re-exports with BASIS_INDEX.
BASIS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# the same pairs as (rows, cols) index arrays, np.triu_indices(4, 1)
BASIS_INDEX = tuple(np.array(ix) for ix in zip(*BASIS_PAIRS))
_PAIR_AT = _sorted_at(2)  # the position of pair bc
_ZERO = 0
_PACKED = ("covR6", "cov2R6")  # the stack's packed R;e and R;e;f
# where each level of the Gamma jets starts: 1, 41, 201, 601, 1401
_OFF = [1 + DIM * start for start in _LEVEL]
_AXIS = np.arange(DIM)


# where d_f Gamma^a_em sits in a row's packed Gamma jets, laid out (e, f,
# a, m): at level 1, (a, f, em)
_DGAMMA_EF = np.fromfunction(
    lambda e, f, a, m: _OFF[1] + len(_PAIRS) * _flat(a, f) + _PAIR_AT[e, m],
    (DIM,) * 4, dtype=np.intp)


def _jet_row(r: tuple, m):
    """The row (of 10 pairs bc) that holds d^r Gamma^m_bc in a row's
    packed Gamma jets, laid out as a covector's jets (_jet_layout)."""
    return _jet_layout(1, len(r))[-1][1][(m, *r)]


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

    Gamma itself at k = 0, where the sum is empty.  s holds the rows of
    the metric's block (_jet_layout) that hold d^Q d_b g_ac, d^Q d_c g_ab
    and d^Q d_a g_bc, laid out (a, Q, bc).  w holds the rows of d^(Q-r)
    g_am, laid out (a, Q) by the jet row (r, m) it multiplies, and times
    the Leibniz count (0 where r is not in Q, and w dg's first row there;
    None where all are 1).  Each row is read from _jet_layout's index at
    the entry's indices."""
    multi = _sorted_multi(k)
    rows = (_OFF[k] - _OFF[0]) // len(_PAIRS)
    layout = [index for _, index in _jet_layout(2, k + 1)]
    w = np.full((DIM, len(multi), rows), layout[1][0, 0, 0])
    times = np.zeros(w.shape)
    digits = tuple(np.array(list(multi)).T[..., None])  # Q, each (nq, 1)
    a, (b, c), at = _AXIS[:, None, None], np.array(_PAIRS).T, layout[k + 1]
    s = np.array([at[(a, c, b, *digits)], at[(a, b, c, *digits)],
                  at[(b, c, a, *digits)]])
    for q, qi in multi.items():
        for col, rest, t in _leibniz(q, k):
            w[:, qi][:, col] = layout[len(rest)][(_AXIS[:, None], _AXIS,
                                                  *rest)]
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
    qi = _sorted_at(k)[..., None, None, None]
    a, b, (c, d) = _AXIS[:, None, None], _AXIS[:, None], BASIS_INDEX
    anti = np.array([_flat(qi, c, a, d, b), _flat(qi, d, a, c, b)]).reshape(
        (2,) + (DIM,) * k + (DIM * DIM, len(BASIS_PAIRS)))
    u = u.reshape(len(multi) * DIM * DIM, rows)
    times = None if (times == 1).all() else times.reshape(u.shape)
    top = top.reshape(len(multi), DIM * DIM, DIM * DIM)
    return _read_only(top, u, times, v, lead, last, anti)


def _unit_actions() -> tuple:
    """The connection terms of each unit matrix x^u_v, row uv of two maps:
    (16, 256) to its 16x16 action on the slots ab, x on a and -x on b,
    and (16, 36) to the transpose of its 6x6 action on the pairs cd,
    (K y)_cd = -x^m_c y_md - x^m_d y_cm."""
    on_ab = np.zeros((DIM,) * 6)  # (u, v, a, b, a', b')
    six = len(BASIS_PAIRS)
    on_cd = np.zeros((DIM, DIM, six, six))  # (u, v, q, p)
    for u, v, i in itertools.product(range(DIM), repeat=3):
        on_ab[u, v, u, i, v, i] += 1.0  # x^a_m y^m_b
        on_ab[u, v, i, v, i, u] -= 1.0  # -y^a_m x^m_b
    for p, (c, d) in enumerate(BASIS_PAIRS):
        for m in range(DIM):
            # -x^m_c y_md and -x^m_d y_cm, with y_ij = -y_ji
            for x, (i, j) in ((c, (m, d)), (d, (c, m))):
                if i != j:
                    q = BASIS_PAIRS.index((min(i, j), max(i, j)))
                    on_cd[m, x, q, p] -= 1.0 if i < j else -1.0
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
    out += y @ (flat @ on_cd).reshape(x.shape[:-2]
                                      + (len(BASIS_PAIRS),) * 2)
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
    full[:, :, :, BASIS_INDEX[0], BASIS_INDEX[1]] = moved
    full[:, :, :, BASIS_INDEX[1], BASIS_INDEX[0]] = -moved
    return full


def _riemann_derivative_stack(g: np.ndarray, block: np.ndarray,
                              order: int) -> dict:
    """Riemann and its covariant derivatives from g (n, 4, 4) and a
    compiled block (rows, n) of the metric's jets through ``order`` (2
    to 4; _metric_jets gives both), read by row: a dict with ginv, gamma
    and R (R^a_bcd, unpacked), plus covR6 (R^a_bcd;e) at order 3 and
    cov2R6 (R^a_bcd;e;f) at order 4, packed: the pairs c < d only, laid
    out (n, e[, f], a, b, cd), which _unpack turns into the full tensor.
    frames_at calls it on row chunks (_CHUNK).

    The jets of Gamma need no derivative of g^ad: with s_abc = d_b g_ac
    + d_c g_ab - d_a g_bc, g_ad Gamma^d_bc = 1/2 s_abc, and
    differentiating it gives, by the Leibniz rule,

        g_ad d^Q Gamma^d_bc = 1/2 d^Q s_abc
            - sum over r strictly inside Q of d^(Q-r) g_am d^r Gamma^m_bc

    each raised with one product by g^ad.  These jets stay packed, b <=
    c and Q sorted, and each level, Gamma itself the first, is one
    product of factors gathered from the block's rows (_level_tables).
    With M^a_bcd = d_c Gamma^a_bd + Gamma^a_cm Gamma^m_bd, R^a_bcd =
    M^a_bcd - M^a_bdc, and its partial derivatives are those of M: M,
    d_e M, and the symmetric d_e d_f M on the 10 sorted pairs ef each
    come from gathered jets and products of gathered factors (_dm).
    Then, with A_x the connection terms of x^a_m (_act: x on a, -x on
    b, and one 6x6 action on cd),

        R;e   = d_e R + A_{Gamma_e} R
        R;e;f = d_e d_f R + A_{d_f Gamma_e} R + A_{Gamma_e} d_f R
                + A_{Gamma_f} R;e - Gamma^m_fe R;m

    where (Gamma_e)^a_m = Gamma^a_em.
    """
    n = len(g)
    ginv = np.linalg.inv(g)
    # the block's jet rows, one point a row, contiguous for the gathers
    metric = np.ascontiguousarray(block[:_LEVEL[order + 1]].T)
    jet = np.empty((n, _OFF[order]))
    jet[:, _ZERO] = 0.0
    for k in range(order):
        s_at, w_at, times = _level_tables(k)
        nq, rows = w_at.shape[1:]
        part = metric[:, s_at]
        low = part[:, 0] + part[:, 1]
        low -= part[:, 2]
        low *= 0.5
        if k:  # the Leibniz sum; level 0 has none
            w = np.take(metric, w_at, axis=1)
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
               R=_unpack(r6.reshape(n, DIM, DIM, len(BASIS_PAIRS))))
    if order < 3:
        return out
    gamma_e = gamma.transpose(0, 2, 1, 3)  # (Gamma_e)^a_m = Gamma^a_em
    dr = _dm(jet, 1)
    covr = dr + _act(gamma_e, r6[:, None])
    out["covR6"] = covr.reshape(n, *(DIM,) * 3, len(BASIS_PAIRS))
    if order < 4:
        return out
    cov2r = _dm(jet, 2)
    cov2r += _act(np.take(jet, _DGAMMA_EF, axis=1), r6[:, None, None])
    cov2r += _act(gamma_e[:, :, None], dr[:, None])
    cov2r += _act(gamma_e[:, None], covr[:, :, None])
    cov2r -= (gamma.transpose(0, 3, 2, 1).reshape(n, DIM * DIM, DIM)
              @ covr.reshape(n, DIM, DIM * DIM * len(BASIS_PAIRS))
              ).reshape(cov2r.shape)
    out["cov2R6"] = cov2r.reshape(n, *(DIM,) * 4, len(BASIS_PAIRS))
    return out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _signature_signs(eig: np.ndarray):
    """Signs of g's eigenvalues, ascending as eigvalsh returns them."""
    if np.any(np.abs(eig) <= 1e-10 * float(np.max(np.abs(eig)))):
        raise DegenerateMetricError("metric has a (near-)zero eigenvalue")
    return tuple(int(np.sign(v)) for v in eig)


def signature_at(spec: MetricSpec, point) -> tuple[int, ...]:
    """Sorted eigenvalue signs of g at the point; Lorentz iff (-1,1,1,1)."""
    g, _, finite, admissible, _ = _metric_jets(
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
        g, block, finite, admissible, valid = _metric_jets(spec, chunk, order)
        ok = admissible & valid
        # iteration stops at the first bad row, so the stack covers the
        # rows before it
        n = len(chunk) if ok.all() else int(np.argmin(ok))
        stack = _riemann_derivative_stack(g[:n], block[:, :n], order)
        stack["g"] = g[:n]
        # _signature_signs for every row: with the eigenvalues ascending,
        # a row is Lorentz and no eigenvalue is near zero exactly when the
        # first is below -bound and the second above +bound
        eig = np.linalg.eigvalsh(stack["g"])
        bound = 1e-10 * np.abs(eig).max(axis=1)
        good = (eig[:, 0] < -bound) & (eig[:, 1] > bound)
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
            _raise_invalid(spec, chunk[n], g[n], finite[n], order)


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
