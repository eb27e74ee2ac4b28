"""Metric specifications and pointwise tensor assembly.

All coordinate derivatives of the metric are taken symbolically (exact),
then every tensor (Christoffels, curvature, covariant derivatives) is
assembled numerically at sample points with numpy.  Finite differences
never appear outside the test oracles.  Jets come from one table per
field, and one compiled call returns its derivative orders 0..k.

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
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .exprdsl import (
    DomainError, Expr, ParamEnv, compile_program, differentiate, eval_expr,
    free_symbols, parse_expr,
)

__all__ = [
    "MetricSpec", "PointFrame", "MetricError", "DegenerateMetricError",
    "SignatureError", "AdmissibilityError", "metric_spec", "frame_at",
    "frames_at", "signature_at", "weyl_conformal_at",
    "cov_deriv_riemann_at", "cov_deriv_sym2_at", "sample_points",
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
# Symbolic jet tables with compiled scatter evaluation
# ---------------------------------------------------------------------------

class _JetTable:
    """Evaluates an expression field and its coordinate derivatives,
    batched over points.  The rank comes from the nesting of ``comps``:
    four Exprs are a covector, a 4x4 tuple a symmetric (0,2) tensor (its
    upper triangle is read).  The order-k array has shape
    (n,) + (4,)*rank + (4,)*k with derivative indices trailing, and
    orders 0..k come from one compiled program, so they share
    subexpressions; extra expressions (a metric's domain constraints) can
    ride in the same program.  Parameter values are call-time arguments,
    so structurally equal fields share one program across parameter
    draws."""

    def __init__(self, comps: tuple, coords: Sequence[str],
                 param_names: Sequence[str]):
        self.coords = tuple(coords)
        self.param_names = tuple(param_names)
        if isinstance(comps[0], Expr):
            self.rank = 1
            base = {(a,): comps[a] for a in range(DIM)}
        else:
            self.rank = 2
            base = {(a, b): comps[a][b]
                    for a in range(DIM) for b in range(a, DIM)}
        # keys (field slots, sorted derivative slots)
        self._sym: dict[int, dict] = {0: {(f, ()): e for f, e in base.items()}}
        self._evaluators: dict[int, tuple] = {}

    def _symbolic(self, order: int) -> dict:
        while order not in self._sym:
            k = len(self._sym)
            self._sym[k] = {(f, m + (c,)): differentiate(e, self.coords[c])
                            for (f, m), e in self._sym[k - 1].items()
                            for c in range(m[-1] if m else 0, DIM)}
        return self._sym[order]

    def _evaluator(self, order: int, extra: tuple):
        ev = self._evaluators.get((order, extra))
        if ev is not None:
            return ev
        exprs, gathers = [], []
        for k in range(order + 1):
            table = self._symbolic(k)
            shape = (DIM,) * (self.rank + k)
            # index[flat position] = the expression filling it; the
            # permutations cover every position
            index = np.empty(DIM ** len(shape), dtype=np.intp)
            for f, m in sorted(table):
                for full in {p + q for p in itertools.permutations(f)
                             for q in itertools.permutations(m)}:
                    index[np.ravel_multi_index(full, shape)] = len(exprs)
                exprs.append(table[(f, m)])
            gathers.append((index, shape))
        f = compile_program(exprs + list(extra), self.coords,
                            self.param_names)
        ev = self._evaluators[(order, extra)] = (f, gathers)
        return ev

    def evaluate(self, pts, values, order: int, extra: tuple = ()):
        """(jets, vals): the arrays of orders 0..order at the points pts
        (n, 4) float, and the compiled (n_exprs, n) block whose last
        len(extra) rows are the extra expressions' values.  Callers
        convert the points and silence floating-point warnings."""
        f, gathers = self._evaluator(order, extra)
        vals = f(pts, values)
        n = pts.shape[0]
        return tuple(vals[index].T.reshape((n,) + shape)
                     for index, shape in gathers), vals


class _Bound:
    """Table plus the parameter values of one spec; evaluate(points,
    order) returns the jets of orders 0..order."""

    __slots__ = ("table", "values")

    def __init__(self, table, values):
        self.table = table
        self.values = values

    def evaluate(self, points, order: int = 0) -> tuple:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        with np.errstate(all="ignore"):
            return self.table.evaluate(pts, self.values, order)[0]


@lru_cache(maxsize=512)
def _jet_table(comps: tuple, coords: tuple, pnames: tuple) -> _JetTable:
    return _JetTable(comps, coords, pnames)


def _values(spec: MetricSpec) -> tuple:
    # ParamEnv converted the values to floats once; the compiled programs
    # take them as they are
    return tuple(spec.params[n] for n in spec.params.names())


@lru_cache(maxsize=256)
def _metric_table(spec: MetricSpec) -> _Bound:
    # the one per-spec memo: the geodesic loop calls this on every RK4
    # stage; a spec hashes in time independent of its expression sizes
    # (nodes hash by identity)
    return _field_table(spec, spec.g)


def _field_table(spec: MetricSpec, comps) -> _Bound:
    comps = tuple(c if isinstance(c, Expr) else tuple(c) for c in comps)
    return _Bound(_jet_table(comps, spec.coords, spec.params.names()),
                  _values(spec))


def _diagnose_point(spec: MetricSpec, point, max_order: int = 2) -> None:
    """Re-evaluate with the safe evaluator to produce a precise error."""
    table = _metric_table(spec).table
    exprs = list(spec.all_exprs())
    for k in range(1, max_order + 1):
        exprs.extend(table._symbolic(k).values())
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
    bound = _metric_table(spec)
    with np.errstate(all="ignore"):
        jets, vals = bound.table.evaluate(pts, bound.values, order,
                                          spec.constraints)
        finite = np.isfinite(vals)
        m = len(vals) - len(spec.constraints)
        admissible = (np.isfinite(pts).all(axis=1)
                      & (finite[m:] & (vals[m:] > 0.0)).all(axis=0))
        finite = finite[:m].all(axis=0)
        # the rows of vals are the jets' entries, so up to order 2 their
        # finiteness is the one the determinant test needs
        valid = _valid_rows(jets[:3], finite if order <= 2 else None)
    return jets, finite, admissible, valid


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
    gmax = np.max(np.abs(jets[0]), axis=(1, 2))
    return finite & (np.abs(np.linalg.det(jets[0]))
                     > DEGENERACY_TOL * np.maximum(gmax, 1e-300) ** 4)


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
    hold the flat placeholder gamma = 0.  The points are converted once;
    one _metric_jets call (one compiled program call, the admissibility
    and the determinant test) is followed by _gamma_terms, so an RK4
    stage costs one compiled call per metric."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
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
    return _field_table(spec, comps).evaluate(points, 0)[0]


def cov_deriv_batch(spec: MetricSpec, comps, points):
    """Covariant derivative of a covector (w_a;b) or symmetric (0,2)
    (T_ab;c) expression field, batched; returns (field, covariant
    derivative) with the derivative index trailing."""
    bound = _field_table(spec, comps)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t, dt = bound.evaluate(pts, 1)
    gamma, ok, _ = christoffel_batch(spec, pts)
    require_valid(spec, pts, ok)
    if bound.table.rank == 1:
        return t, dt - np.einsum("neab,ne->nab", gamma, t)
    cov = (dt
           - np.einsum("neca,neb->nabc", gamma, t)
           - np.einsum("necb,nae->nabc", gamma, t))
    return t, cov


# ---------------------------------------------------------------------------
# PointFrame
# ---------------------------------------------------------------------------

class PointFrame:
    """All metric-derived tensors of one metric at one point, cached.

    Built by frame_at / frames_at (full, with derivative access) or
    synthetically from raw g/Riemann arrays for classifier oracles.
    """

    def __init__(self, g, riem_ud=None, *, point=None, spec=None,
                 gamma=None, dg=None):
        self.spec = spec
        self.point = None if point is None else np.asarray(point, float)
        self.g = np.asarray(g, float)
        self.ginv = np.linalg.inv(self.g)
        self.detg = float(np.linalg.det(self.g))
        self.gamma = gamma
        self.dg = dg
        self._riem_ud = riem_ud
        self._cache: dict = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def synthetic(cls, g, riem_dddd) -> "PointFrame":
        """Frame from a metric and a fully-lowered curvature tensor; no
        derivative information is available on such frames."""
        g = np.asarray(g, float)
        riem_ud = np.einsum("ae,ebcd->abcd", np.linalg.inv(g),
                            np.asarray(riem_dddd, float))
        return cls(g, riem_ud)

    # -- core tensors ---------------------------------------------------------

    @property
    def riem_ud(self) -> np.ndarray:
        if self._riem_ud is None:
            raise MetricError("frame has no curvature data")
        return self._riem_ud

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def riem_dddd(self) -> np.ndarray:
        return self._get("riem_dddd",
                         lambda: np.einsum("ae,ebcd->abcd", self.g, self.riem_ud))

    @property
    def ricci(self) -> np.ndarray:
        return self._get("ricci", lambda: np.einsum("cacb->ab", self.riem_ud))

    @property
    def ricci_scalar(self) -> float:
        return float(np.einsum("ab,ab->", self.ginv, self.ricci))

    @property
    def tracefree_ricci(self) -> np.ndarray:
        return self._get("tfricci",
                         lambda: self.ricci - 0.25 * self.ricci_scalar * self.g)

    @property
    def e_ud(self) -> np.ndarray:
        # Coefficient 1/2, not 1/12: this is what makes the conformal
        # tensor below fully trace-free (E contracts to the trace-free
        # Ricci tensor exactly).
        def build():
            tr = self.tracefree_ricci
            tr_ud = self.ginv @ tr
            d = np.eye(DIM)
            return (np.einsum("ac,bd->abcd", tr_ud, self.g)
                    - np.einsum("ad,bc->abcd", tr_ud, self.g)
                    + np.einsum("ac,bd->abcd", d, tr)
                    - np.einsum("ad,bc->abcd", d, tr)) / 2.0
        return self._get("e_ud", build)

    @property
    def weyl_ud(self) -> np.ndarray:
        def build():
            d = np.eye(DIM)
            trace_part = (np.einsum("ac,bd->abcd", d, self.g)
                          - np.einsum("ad,bc->abcd", d, self.g))
            return self.riem_ud - self.e_ud - (self.ricci_scalar / 12.0) * trace_part
        return self._get("weyl_ud", build)

    # -- derivative tensors (need a backing spec) ------------------------------

    def _derived(self, key: str, order: int) -> np.ndarray:
        """A derivative tensor that frames_at stored at ``order``; a frame
        built below that order gets it from a one-row frames_at there."""
        if key not in self._cache:
            if self.spec is None or self.point is None:
                raise MetricError("synthetic frame carries no derivative data")
            fresh = next(frames_at(self.spec, self.point[None, :], order))
            for k, v in fresh._cache.items():
                self._cache.setdefault(k, v)
        return self._cache[key]

    @property
    def cov_riemann(self) -> np.ndarray:
        """R^a_bcd;e with the covariant index trailing."""
        return self._derived("cov_riemann", 3)

    @property
    def cov2_riemann(self) -> np.ndarray:
        """R^a_bcd;e;f, second covariant derivative (trailing f)."""
        return self._derived("cov2_riemann", 4)


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
    (g, dg, d2g[, d3g[, d4g]]): a dict with gamma and R (R^a_bcd), plus
    covR (R^a_bcd;e) from d3g and cov2R (R^a_bcd;e;f) from d4g.
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
    out = {"gamma": gamma, "R": riem}
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

def _signature_signs(g: np.ndarray):
    eig = np.linalg.eigvalsh(g)
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
    return _signature_signs(g[0])


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
    (_riemann_derivative_stack) assembles its tensors, and its frames,
    which hold row views of them, are yielded before the next chunk is
    evaluated; so memory does not grow with the batch.

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
        for i in range(n):
            g = jets[0][i]
            signs = _signature_signs(g)
            if signs != (-1, 1, 1, 1):
                raise SignatureError(f"signature {signs} is not Lorentz")
            frame = PointFrame(g, stack["R"][i], point=chunk[i], spec=spec,
                               gamma=stack["gamma"][i], dg=jets[1][i])
            for key, attr in (("covR", "cov_riemann"),
                              ("cov2R", "cov2_riemann")):
                if key in stack:
                    frame._cache[attr] = stack[key][i]
            yield frame
        if n < len(chunk):
            if not admissible[n]:
                raise _inadmissible(chunk[n])
            _raise_invalid(spec, chunk[n],
                           tuple(j[n:n + 1] for j in jets[:3]))


def weyl_conformal_at(frame: PointFrame) -> np.ndarray:
    """Weyl conformal tensor C^a_bcd of the frame (fully trace-free)."""
    return frame.weyl_ud


def cov_deriv_riemann_at(spec: MetricSpec, point) -> np.ndarray:
    """R^a_bcd;e assembled from third-order symbolic metric derivatives."""
    return frame_at(spec, point, 3).cov_riemann


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
