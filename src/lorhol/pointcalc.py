"""Metric specifications and pointwise tensor assembly.

All coordinate derivatives of the metric are taken symbolically (exact),
then every tensor (Christoffels, curvature, covariant derivatives) is
assembled numerically at sample points with numpy.  Finite differences
never appear outside the test oracles.

Index conventions, fixed throughout the package:

* dg[a,b,c]        = d_c g_ab   (derivative indices trail)
* gamma[a,b,c]     = Gamma^a_bc
* riem_ud[a,b,c,d] = R^a_bcd = d_c Gamma^a_bd - d_d Gamma^a_bc
                     + Gamma^a_ce Gamma^e_bd - Gamma^a_de Gamma^e_bc
* ricci[a,b]       = R^c_acb
"""
from __future__ import annotations

import itertools
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
    "signature_at", "weyl_conformal_at", "cov_deriv_riemann_at",
    "cov_deriv_sym2_at", "sample_points", "christoffel_batch",
    "sym2_cov_deriv_batch", "oneform_cov_deriv_batch", "eval_sym2_batch",
    "eval_oneform_batch",
]

DIM = 4
DEGENERACY_TOL = 1e-12


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
# Symbolic derivative tables with compiled scatter evaluation
# ---------------------------------------------------------------------------

class _SymArrayTable:
    """Evaluates a symmetric (0,2) expression field and its coordinate
    derivatives, batched over points.  Order-k output has shape
    (n, 4, 4) + (4,)*k with derivative indices trailing.  Parameter
    values are call-time arguments, so structurally equal fields share
    one compiled program across parameter draws."""

    def __init__(self, comps: Mapping[tuple[int, int], Expr],
                 coords: Sequence[str], param_names: Sequence[str]):
        self.coords = tuple(coords)
        self.param_names = tuple(param_names)
        self._sym: dict[int, dict] = {
            0: {(a, b, ()): comps[(a, b)]
                for a in range(DIM) for b in range(a, DIM)}}
        self._evaluators: dict[int, tuple] = {}

    def _symbolic(self, order: int) -> dict:
        while order not in self._sym:
            k = max(self._sym) + 1
            cur = {}
            for (a, b, m), e in self._sym[k - 1].items():
                for c in range(m[-1] if m else 0, DIM):
                    cur[(a, b, m + (c,))] = differentiate(e, self.coords[c])
            self._sym[k] = cur
        return self._sym[order]

    def _evaluator(self, order: int):
        if order in self._evaluators:
            return self._evaluators[order]
        table = self._symbolic(order)
        keys = sorted(table.keys())
        exprs = [table[k] for k in keys]
        f = compile_program(exprs, self.coords, self.param_names)
        shape = (DIM, DIM) + (DIM,) * order
        positions, sources = [], []
        strides = np.cumprod((1,) + shape[::-1][:-1])[::-1]
        for idx, (a, b, m) in enumerate(keys):
            seen = set()
            for (p, q) in ((a, b), (b, a)):
                for perm in itertools.permutations(m):
                    full = (p, q) + perm
                    if full in seen:
                        continue
                    seen.add(full)
                    positions.append(int(np.dot(full, strides)))
                    sources.append(idx)
        ev = (f, np.asarray(positions), np.asarray(sources), shape)
        self._evaluators[order] = ev
        return ev

    def evaluate(self, points: np.ndarray, values, order: int) -> np.ndarray:
        f, positions, sources, shape = self._evaluator(order)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = f(pts, values)  # (n_exprs, n)
        n = pts.shape[0]
        out = np.zeros((n, int(np.prod(shape))))
        out[:, positions] = vals[sources].T
        return out.reshape((n,) + shape)


class _OneFormTable:
    """Same as _SymArrayTable for a covector field; order-k output shape
    (n, 4) + (4,)*k."""

    def __init__(self, comps: Sequence[Expr], coords, param_names):
        self.coords = tuple(coords)
        self.param_names = tuple(param_names)
        self._sym = {0: {(a, ()): comps[a] for a in range(DIM)}}
        self._evaluators: dict[int, tuple] = {}

    def _symbolic(self, order: int) -> dict:
        while order not in self._sym:
            k = max(self._sym) + 1
            cur = {}
            for (a, m), e in self._sym[k - 1].items():
                for c in range(m[-1] if m else 0, DIM):
                    cur[(a, m + (c,))] = differentiate(e, self.coords[c])
            self._sym[k] = cur
        return self._sym[order]

    def _evaluator(self, order: int):
        if order in self._evaluators:
            return self._evaluators[order]
        table = self._symbolic(order)
        keys = sorted(table.keys())
        exprs = [table[k] for k in keys]
        f = compile_program(exprs, self.coords, self.param_names)
        shape = (DIM,) + (DIM,) * order
        strides = np.cumprod((1,) + shape[::-1][:-1])[::-1]
        positions, sources = [], []
        for idx, (a, m) in enumerate(keys):
            seen = set()
            for perm in itertools.permutations(m):
                full = (a,) + perm
                if full in seen:
                    continue
                seen.add(full)
                positions.append(int(np.dot(full, strides)))
                sources.append(idx)
        ev = (f, np.asarray(positions), np.asarray(sources), shape)
        self._evaluators[order] = ev
        return ev

    def evaluate(self, points, values, order: int) -> np.ndarray:
        f, positions, sources, shape = self._evaluator(order)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = f(pts, values)
        n = pts.shape[0]
        out = np.zeros((n, int(np.prod(shape))))
        out[:, positions] = vals[sources].T
        return out.reshape((n,) + shape)


class _Bound:
    """Table plus the parameter values of one spec; call sites keep the
    two-argument evaluate(points, order) shape.  A metric's bound table
    also carries the compiled domain constraints (None if it has none)."""

    __slots__ = ("table", "values", "constraints")

    def __init__(self, table, values, constraints=None):
        self.table = table
        self.values = values
        self.constraints = constraints

    def evaluate(self, points, order: int = 0) -> np.ndarray:
        return self.table.evaluate(points, self.values, order)


@lru_cache(maxsize=256)
def _sym_table_cached(comps: tuple, coords: tuple,
                      pnames: tuple) -> _SymArrayTable:
    cd = {(a, b): comps[a][b] for a in range(DIM) for b in range(a, DIM)}
    return _SymArrayTable(cd, coords, pnames)


@lru_cache(maxsize=256)
def _oneform_table_cached(comps: tuple, coords: tuple,
                          pnames: tuple) -> _OneFormTable:
    return _OneFormTable(comps, coords, pnames)


def _values(spec: MetricSpec) -> tuple:
    return tuple(spec.params.values[n] for n in spec.params.names())


@lru_cache(maxsize=256)
def _metric_table(spec: MetricSpec) -> _Bound:
    # the one per-spec memo: the geodesic loop calls this (directly and
    # through admissible_mask) on every RK4 stage; a spec hashes in time
    # independent of its expression sizes (nodes hash by identity)
    pnames = spec.params.names()
    table = _sym_table_cached(spec.g, spec.coords, pnames)
    constraints = (compile_program(spec.constraints, spec.coords, pnames)
                   if spec.constraints else None)
    return _Bound(table, _values(spec), constraints)


def _sym2_table(spec: MetricSpec, comps: tuple) -> _Bound:
    table = _sym_table_cached(tuple(map(tuple, comps)), spec.coords,
                              spec.params.names())
    return _Bound(table, _values(spec))


def _oneform_table(spec: MetricSpec, comps: tuple) -> _Bound:
    table = _oneform_table_cached(tuple(comps), spec.coords,
                                  spec.params.names())
    return _Bound(table, _values(spec))


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


def admissible_mask(spec: MetricSpec, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    mask = np.all(np.isfinite(pts), axis=1)
    if spec.constraints:
        bound = _metric_table(spec)
        with np.errstate(all="ignore"):
            vals = bound.constraints(pts, bound.values)
        mask &= np.all(np.isfinite(vals) & (vals > 0.0), axis=0)
    return mask


def check_admissible(spec: MetricSpec, point) -> None:
    if not admissible_mask(spec, np.asarray(point, float)[None, :])[0]:
        raise AdmissibilityError(
            f"point {list(map(float, point))} violates the domain constraints")


def sample_points(spec: MetricSpec, n: int, seed: int = 7,
                  box=None) -> np.ndarray:
    """Uniform admissible points from the sample box (rejection sampling)."""
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


def christoffel_batch(spec: MetricSpec, points: np.ndarray):
    """Return (g, ginv, gamma) batched over points; used by the geodesic
    integrator and the covariant-derivative helpers."""
    table = _metric_table(spec)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    g = table.evaluate(pts, 0)
    dg = table.evaluate(pts, 1)
    if not np.all(np.isfinite(g)) or not np.all(np.isfinite(dg)):
        flat = np.all(np.isfinite(g.reshape(len(pts), -1)), axis=1)
        flat &= np.all(np.isfinite(dg.reshape(len(pts), -1)), axis=1)
        bad = np.where(~flat)[0]
        _diagnose_point(spec, pts[bad[0] if len(bad) else 0], max_order=1)
    ginv, _, gamma = _gamma_terms(g, dg)
    return g, ginv, gamma


def eval_sym2_batch(spec: MetricSpec, comps, points) -> np.ndarray:
    return _sym2_table(spec, tuple(map(tuple, comps))).evaluate(points, 0)


def eval_oneform_batch(spec: MetricSpec, comps, points) -> np.ndarray:
    return _oneform_table(spec, tuple(comps)).evaluate(points, 0)


def sym2_cov_deriv_batch(spec: MetricSpec, comps, points):
    """Covariant derivative T_ab;c of a symmetric (0,2) expression field,
    batched; returns (T, covT) with covT shape (n,4,4,4), c trailing."""
    table = _sym2_table(spec, tuple(map(tuple, comps)))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t = table.evaluate(pts, 0)
    dt = table.evaluate(pts, 1)
    _, _, gamma = christoffel_batch(spec, pts)
    cov = (dt
           - np.einsum("neca,neb->nabc", gamma, t)
           - np.einsum("necb,nae->nabc", gamma, t))
    return t, cov


def oneform_cov_deriv_batch(spec: MetricSpec, comps, points):
    """Covariant derivative w_a;b of a covector expression field, batched;
    returns (w, covw) with covw shape (n,4,4), b trailing."""
    table = _oneform_table(spec, tuple(comps))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = table.evaluate(pts, 0)
    dw = table.evaluate(pts, 1)
    _, _, gamma = christoffel_batch(spec, pts)
    cov = dw - np.einsum("neab,ne->nab", gamma, w)
    return w, cov


# ---------------------------------------------------------------------------
# PointFrame
# ---------------------------------------------------------------------------

class PointFrame:
    """All metric-derived tensors of one metric at one point, cached.

    Built by frame_at (full, with derivative access) or synthetically from
    raw g/Riemann arrays for classifier oracles.
    """

    def __init__(self, g, riem_ud=None, *, point=None, spec=None,
                 gamma=None, dg=None, curvature_sign=1.0):
        self.spec = spec
        self.point = None if point is None else np.asarray(point, float)
        self.g = np.asarray(g, float)
        self.ginv = np.linalg.inv(self.g)
        self.detg = float(np.linalg.det(self.g))
        self.gamma = gamma
        self.dg = dg
        self._sign = float(curvature_sign)
        self._riem_ud = riem_ud
        self._cache: dict[str, np.ndarray] = {}

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

    def _derivative_pack(self, order: int):
        if self.spec is None or self.point is None:
            raise MetricError("synthetic frame carries no derivative data")
        key = f"pack{order}"

        def build():
            table = _metric_table(self.spec)
            pts = self.point[None, :]
            return tuple(table.evaluate(pts, k)[0] for k in range(order + 1))
        return self._get(key, build)

    @property
    def cov_riemann(self) -> np.ndarray:
        """R^a_bcd;e with the covariant index trailing."""
        return self._get("cov_riemann", self._build_cov_riemann)

    def _build_cov_riemann(self):
        g, dg, d2g, d3g = self._derivative_pack(3)
        arrs = _riemann_derivative_stack(g, dg, d2g, d3g, sign=self._sign)
        self._cache.setdefault("_stack1", arrs)
        return arrs["covR"]

    @property
    def cov2_riemann(self) -> np.ndarray:
        """R^a_bcd;e;f, second covariant derivative (trailing f)."""
        def build():
            g, dg, d2g, d3g, d4g = self._derivative_pack(4)
            arrs = _riemann_derivative_stack(g, dg, d2g, d3g, d4g,
                                             sign=self._sign)
            return arrs["cov2R"]
        return self._get("cov2_riemann", build)


def _riemann_derivative_stack(g, dg, d2g, d3g=None, d4g=None, sign=1.0):
    """Assemble Riemann and its covariant derivatives from metric jets.

    Returns dict with gamma, dGamma, R (R^a_bcd), and when the jets allow,
    dR, covR, cov2R.  ``sign`` flips the Christoffel-to-Riemann sign for
    the convention-pinning test; production code always uses +1.
    """
    b = (g.ndim == 3)
    if not b:  # promote to batch of one
        g, dg, d2g = g[None], dg[None], d2g[None]
        d3g = None if d3g is None else d3g[None]
        d4g = None if d4g is None else d4g[None]
    ginv, s, gamma = _gamma_terms(g, dg)
    ds = d2g.transpose(0, 1, 3, 2, 4) + d2g - d2g.transpose(0, 3, 1, 2, 4)
    dginv = -np.einsum("nam,nbp,nmpe->nabe", ginv, ginv, dg)
    dgamma = 0.5 * (np.einsum("nade,ndbc->nabce", dginv, s)
                    + np.einsum("nad,ndbce->nabce", ginv, ds))
    riem = (dgamma.transpose(0, 1, 2, 4, 3) - dgamma
            + np.einsum("nace,nebd->nabcd", gamma, gamma)
            - np.einsum("nade,nebc->nabcd", gamma, gamma))
    riem = sign * riem
    out = {"ginv": ginv, "gamma": gamma, "dgamma": dgamma, "R": riem}

    if d3g is not None:
        d2s = (d3g.transpose(0, 1, 3, 2, 4, 5) + d3g
               - d3g.transpose(0, 3, 1, 2, 4, 5))
        d2ginv = -(np.einsum("namf,nbp,nmpe->nabef", dginv, ginv, dg)
                   + np.einsum("nam,nbpf,nmpe->nabef", ginv, dginv, dg)
                   + np.einsum("nam,nbp,nmpef->nabef", ginv, ginv, d2g))
        d2gamma = 0.5 * (np.einsum("nadef,ndbc->nabcef", d2ginv, s)
                         + np.einsum("nade,ndbcf->nabcef", dginv, ds)
                         + np.einsum("nadf,ndbce->nabcef", dginv, ds)
                         + np.einsum("nad,ndbcef->nabcef", ginv, d2s))
        driem = (d2gamma.transpose(0, 1, 2, 4, 3, 5)
                 - d2gamma
                 + np.einsum("nacme,nmbd->nabcde", dgamma, gamma)
                 + np.einsum("nacm,nmbde->nabcde", gamma, dgamma)
                 - np.einsum("nadme,nmbc->nabcde", dgamma, gamma)
                 - np.einsum("nadm,nmbce->nabcde", gamma, dgamma))
        driem = sign * driem
        covr = (driem
                + np.einsum("naem,nmbcd->nabcde", gamma, riem)
                - np.einsum("nmeb,namcd->nabcde", gamma, riem)
                - np.einsum("nmec,nabmd->nabcde", gamma, riem)
                - np.einsum("nmed,nabcm->nabcde", gamma, riem))
        out.update({"dR": driem, "covR": covr,
                    "d2gamma": d2gamma, "d2ginv": d2ginv})

    if d4g is not None:
        d3s = (d4g.transpose(0, 1, 3, 2, 4, 5, 6) + d4g
               - d4g.transpose(0, 3, 1, 2, 4, 5, 6))
        d2ginv = out["d2ginv"]
        d3ginv = -(np.einsum("namfh,nbp,nmpe->nabefh", d2ginv, ginv, dg)
                   + np.einsum("namf,nbph,nmpe->nabefh", dginv, dginv, dg)
                   + np.einsum("namf,nbp,nmpeh->nabefh", dginv, ginv, d2g)
                   + np.einsum("namh,nbpf,nmpe->nabefh", dginv, dginv, dg)
                   + np.einsum("nam,nbpfh,nmpe->nabefh", ginv, d2ginv, dg)
                   + np.einsum("nam,nbpf,nmpeh->nabefh", ginv, dginv, d2g)
                   + np.einsum("namh,nbp,nmpef->nabefh", dginv, ginv, d2g)
                   + np.einsum("nam,nbph,nmpef->nabefh", ginv, dginv, d2g)
                   + np.einsum("nam,nbp,nmpefh->nabefh", ginv, ginv, d3g))
        d2gamma = out["d2gamma"]
        d2s_ = (d3g.transpose(0, 1, 3, 2, 4, 5) + d3g
                - d3g.transpose(0, 3, 1, 2, 4, 5))
        d3gamma = 0.5 * (np.einsum("nadefh,ndbc->nabcefh", d3ginv, s)
                         + np.einsum("nadef,ndbch->nabcefh", d2ginv, ds)
                         + np.einsum("nadeh,ndbcf->nabcefh", d2ginv, ds)
                         + np.einsum("nade,ndbcfh->nabcefh", dginv, d2s_)
                         + np.einsum("nadfh,ndbce->nabcefh", d2ginv, ds)
                         + np.einsum("nadf,ndbceh->nabcefh", dginv, d2s_)
                         + np.einsum("nadh,ndbcef->nabcefh", dginv, d2s_)
                         + np.einsum("nad,ndbcefh->nabcefh", ginv, d3s))
        dgamma_ = out["dgamma"]
        d2riem = (d3gamma.transpose(0, 1, 2, 4, 3, 5, 6)
                  - d3gamma
                  + np.einsum("nacmef,nmbd->nabcdef", d2gamma, gamma)
                  + np.einsum("nacme,nmbdf->nabcdef", dgamma_, dgamma_)
                  + np.einsum("nacmf,nmbde->nabcdef", dgamma_, dgamma_)
                  + np.einsum("nacm,nmbdef->nabcdef", gamma, d2gamma)
                  - np.einsum("nadmef,nmbc->nabcdef", d2gamma, gamma)
                  - np.einsum("nadme,nmbcf->nabcdef", dgamma_, dgamma_)
                  - np.einsum("nadmf,nmbce->nabcdef", dgamma_, dgamma_)
                  - np.einsum("nadm,nmbcef->nabcdef", gamma, d2gamma))
        d2riem = sign * d2riem
        driem, covr = out["dR"], out["covR"]
        dcovr = (d2riem
                 + np.einsum("naemf,nmbcd->nabcdef", dgamma_, riem)
                 + np.einsum("naem,nmbcdf->nabcdef", gamma, driem)
                 - np.einsum("nmebf,namcd->nabcdef", dgamma_, riem)
                 - np.einsum("nmeb,namcdf->nabcdef", gamma, driem)
                 - np.einsum("nmecf,nabmd->nabcdef", dgamma_, riem)
                 - np.einsum("nmec,nabmdf->nabcdef", gamma, driem)
                 - np.einsum("nmedf,nabcm->nabcdef", dgamma_, riem)
                 - np.einsum("nmed,nabcmf->nabcdef", gamma, driem))
        cov2r = (dcovr
                 + np.einsum("nafm,nmbcde->nabcdef", gamma, covr)
                 - np.einsum("nmfb,namcde->nabcdef", gamma, covr)
                 - np.einsum("nmfc,nabmde->nabcdef", gamma, covr)
                 - np.einsum("nmfd,nabcme->nabcdef", gamma, covr)
                 - np.einsum("nmfe,nabcdm->nabcdef", gamma, covr))
        out["cov2R"] = cov2r

    if not b:
        out = {k: v[0] for k, v in out.items()}
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
    check_admissible(spec, point)
    g = _metric_table(spec).evaluate(np.asarray(point, float)[None, :], 0)[0]
    if not np.all(np.isfinite(g)):
        _diagnose_point(spec, point, max_order=0)
    return _signature_signs(g)


def frame_at(spec: MetricSpec, point, *, require_lorentz: bool = True,
             _curvature_sign: float = 1.0) -> PointFrame:
    """Evaluate the full tensor frame of ``spec`` at ``point``.

    Raises AdmissibilityError / DomainError for bad points,
    DegenerateMetricError and SignatureError for bad metrics.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (DIM,):
        raise MetricError("point must have 4 coordinates")
    check_admissible(spec, point)
    table = _metric_table(spec)
    pts = point[None, :]
    g = table.evaluate(pts, 0)[0]
    dg = table.evaluate(pts, 1)[0]
    d2g = table.evaluate(pts, 2)[0]
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(dg))
            and np.all(np.isfinite(d2g))):
        _diagnose_point(spec, point)
    gmax = float(np.max(np.abs(g)))
    det = float(np.linalg.det(g))
    if abs(det) <= DEGENERACY_TOL * max(gmax, 1e-300) ** 4:
        raise DegenerateMetricError(f"det g = {det:.3e} at {point.tolist()}")
    if require_lorentz:
        signs = _signature_signs(g)
        if signs != (-1, 1, 1, 1):
            raise SignatureError(f"signature {signs} is not Lorentz")
    arrs = _riemann_derivative_stack(g, dg, d2g, sign=_curvature_sign)
    frame = PointFrame(g, arrs["R"], point=point, spec=spec,
                       gamma=arrs["gamma"], dg=dg,
                       curvature_sign=_curvature_sign)
    return frame


def weyl_conformal_at(frame: PointFrame) -> np.ndarray:
    """Weyl conformal tensor C^a_bcd of the frame (fully trace-free)."""
    return frame.weyl_ud


def cov_deriv_riemann_at(spec: MetricSpec, point) -> np.ndarray:
    """R^a_bcd;e assembled from third-order symbolic metric derivatives."""
    return frame_at(spec, point).cov_riemann


def cov_deriv_sym2_at(spec: MetricSpec, field, point) -> np.ndarray:
    """Covariant derivative T_ab;c of a symmetric (0,2) expression field."""
    comps = tuple(tuple(row) for row in field)
    for a in range(DIM):
        for b_ in range(a):
            if comps[a][b_] != comps[b_][a]:
                raise MetricError("field must be symmetric")
    check_admissible(spec, point)
    _, cov = sym2_cov_deriv_batch(spec, comps, np.asarray(point, float)[None, :])
    return cov[0]
