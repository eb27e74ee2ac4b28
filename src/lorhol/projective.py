"""Projective relatedness via the Sinyukov substitution.

The linearised data is a symmetric non-degenerate tensor a and a 1-form
lambda satisfying a_ab;c = g_ac lambda_b + g_bc lambda_a.  Inverting the
pair reconstructs the projectively related metric:

    psi_a = -ainv_ab lambda^b   (ainv lowered with g)
    chi   = -1/2 ln(|det a| / |det g|),  psi = d(chi)
    g'_ab = e^{2 chi} (a^{-1})_ab       (indices lowered with g)

all of which this module performs symbolically (adjugate/determinant),
with every consistency statement verified numerically at sample points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exprdsl import (
    Div, DomainError, Expr, Fn, Mul, Neg, Pow, const, differentiate, div,
    eval_expr, fn, free_symbols, mul, neg, normal_forms, pow_, sym_adjugate4,
    sym_det4, sym_sum,
)
from .pointcalc import (
    DIM, MetricSpec, PointFrame, _christoffel_kernel, _covariant,
    _field_jets, _metric_jets, _nondegenerate, admissible_mask,
    christoffel_batch, cov_deriv_batch, eval_field_batch, frames_at,
    require_valid, sample_points,
)

__all__ = [
    "SinyukovPair", "ProjectivePair", "InversionError", "lambda_from_trace",
    "sinyukov_residual", "invert_pair", "psi_from_connections",
    "projective_residual", "curvature_relation_residual",
    "weyl_projective_at", "weyl_projective_equal", "lemma1_checks",
    "pregeodesic_check", "GeodesicReport", "check_pair_wellformed",
    "RESIDUAL_TOL", "GEODESIC_TOL",
]

# Fixed pass thresholds: RESIDUAL_TOL of every relative residual (the
# checks', d(chi) = psi and nabla'' a = 0 in invert_pair), GEODESIC_TOL
# of the pre-geodesic score.  test_projective pins their margins.
RESIDUAL_TOL = 1e-8
GEODESIC_TOL = 1e-6


class InversionError(Exception):
    """The supplied (a, lambda) pair does not invert consistently,
    typically because it fails Sinyukov's equation."""


@dataclass(frozen=True)
class SinyukovPair:
    """Base metric with candidate Sinyukov data; lam=None means derive
    lambda from the trace gradient d(a_ab g^ab / 2)."""

    base: MetricSpec
    a: tuple[tuple[Expr, ...], ...]
    lam: tuple[Expr, Expr, Expr, Expr] | None = None

    def lam_exprs(self):
        return self.lam if self.lam is not None else lambda_from_trace(self)


@dataclass(frozen=True)
class ProjectivePair:
    base: MetricSpec
    partner: MetricSpec
    psi: tuple[Expr, Expr, Expr, Expr]
    chi: Expr | None = None


# ---------------------------------------------------------------------------
# Symbolic 4x4 linear algebra
# ---------------------------------------------------------------------------

def _mat_vec(m, v):
    return tuple(sym_sum([mul(m[i][j], v[j]) for j in range(4)])
                 for i in range(4))


# ---------------------------------------------------------------------------
# Pair validation and the trace gradient
# ---------------------------------------------------------------------------

def lambda_from_trace(pair: SinyukovPair) -> tuple[Expr, ...]:
    """lambda_a = d_a (a_bc g^bc / 2), computed symbolically."""
    spec = pair.base
    adjg = sym_adjugate4(spec.g)
    detg = sym_det4(spec.g)
    trace_num = sym_sum([mul(adjg[a][b], pair.a[a][b])
                      for a in range(4) for b in range(4)])
    half_trace = div(trace_num, mul(const(2), detg))
    return tuple(differentiate(half_trace, c) for c in spec.coords)


def check_pair_wellformed(pair: SinyukovPair, points) -> None:
    """a symmetric, finite and non-degenerate at the points (the
    determinant test of pointcalc); lambda curl-free against
    max(max|lambda|, max|d lambda|, max|a| / max|g|), which scales with a."""
    spec = pair.base
    for i in range(4):
        for j in range(i):
            if pair.a[i][j] != pair.a[j][i]:
                raise InversionError("a must be symmetric")
    pts = np.atleast_2d(np.asarray(points, float))
    a_vals = eval_field_batch(spec, pair.a, pts)
    if not np.isfinite(a_vals).all():
        raise InversionError("a is not finite at a sample point")
    with np.errstate(all="ignore"):  # past |a_ab| ~ 1e77, as for g
        if not _nondegenerate(np.linalg.det(a_vals),
                              np.max(np.abs(a_vals), axis=(1, 2))).all():
            raise InversionError("a is degenerate at a sample point")
    lam, dlam = _field_jets(spec, pair.lam_exprs(), pts, 1)
    curl = dlam - dlam.transpose(0, 2, 1)
    g = _metric_jets(spec, pts, 0)[0]
    scale = max(float(np.max(np.abs(lam))), float(np.max(np.abs(dlam))),
                float(np.max(np.abs(a_vals)) / np.max(np.abs(g))))
    if not float(np.max(np.abs(curl))) <= 1e-9 * scale:
        raise InversionError("lambda is not a gradient (nonzero curl)")


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def sinyukov_residual(pair: SinyukovPair, points) -> float:
    """max |a_ab;c - g_ac lam_b - g_bc lam_a| over the points,
    normalised by max |a|.  Inadmissible points are skipped."""
    spec = pair.base
    pts = np.atleast_2d(np.asarray(points, float))
    ok = admissible_mask(spec, pts)
    pts = pts[ok]
    if not len(pts):
        raise InversionError("no admissible points supplied")
    a_vals, cov = cov_deriv_batch(spec, pair.a, pts)
    lam = eval_field_batch(spec, pair.lam_exprs(), pts)
    g = _metric_jets(spec, pts, 0)[0]
    rhs = (np.einsum("nac,nb->nabc", g, lam)
           + np.einsum("nbc,na->nabc", g, lam))
    amax = max(float(np.max(np.abs(a_vals))), 1e-300)
    residual = float(np.max(np.abs(cov - rhs))) / amax
    if not np.isfinite(residual):
        raise InversionError("the Sinyukov residual is not finite")
    return residual


def _require_shared_coords(g_spec: MetricSpec, gp_spec: MetricSpec):
    """Raise InversionError unless both metrics use the same coordinates:
    every two-metric function compares them point by point in one chart."""
    if gp_spec.coords != g_spec.coords:
        raise InversionError("metrics must share coordinates")


def psi_from_connections(g_spec: MetricSpec, gp_spec: MetricSpec,
                         points) -> np.ndarray:
    """psi_b = (Gamma'^a_ba - Gamma^a_ba) / 5 at each point."""
    _require_shared_coords(g_spec, gp_spec)
    pts = np.atleast_2d(np.asarray(points, float))
    gamma, ok, _ = christoffel_batch(g_spec, pts)
    require_valid(g_spec, pts, ok)
    gamma_p, ok, _ = christoffel_batch(gp_spec, pts)
    require_valid(gp_spec, pts, ok)
    return (np.einsum("naba->nb", gamma_p) - np.einsum("naba->nb", gamma)) / 5.0


def projective_residual(g_spec: MetricSpec, gp_spec: MetricSpec, psi,
                        points) -> float:
    """Residual of g'_ab;c = 2 g'_ab psi_c + g'_ac psi_b + g'_bc psi_a,
    the semicolon derivative taken with the connection of g."""
    _require_shared_coords(g_spec, gp_spec)
    pts = np.atleast_2d(np.asarray(points, float))
    # g' at its own parameter values, differentiated with g's connection
    gp_vals, dgp = _field_jets(gp_spec, gp_spec.g, pts, 1)
    cov = _covariant(g_spec, gp_vals, dgp, pts)
    if isinstance(psi, np.ndarray):
        psi_vals = psi
    else:
        psi_vals = eval_field_batch(g_spec, tuple(psi), pts)
    rhs = (2.0 * np.einsum("nab,nc->nabc", gp_vals, psi_vals)
           + np.einsum("nac,nb->nabc", gp_vals, psi_vals)
           + np.einsum("nbc,na->nabc", gp_vals, psi_vals))
    scale = max(float(np.max(np.abs(gp_vals))), 1e-300)
    return float(np.max(np.abs(cov - rhs))) / scale


def curvature_relation_residual(g_spec: MetricSpec, gp_spec: MetricSpec,
                                psi, points) -> tuple[float, float]:
    """Residuals of R'^a_bcd = R^a_bcd + delta^a_d psi_bc - delta^a_c psi_bd
    and its Ricci contraction R'_ab = R_ab - 3 psi_ab, where
    psi_ab = psi_a;b - psi_a psi_b."""
    _require_shared_coords(g_spec, gp_spec)
    pts = np.atleast_2d(np.asarray(points, float))
    psi_vals, cov_psi = cov_deriv_batch(g_spec, tuple(psi), pts)
    psi_ab = cov_psi - np.einsum("na,nb->nab", psi_vals, psi_vals)
    delta = np.eye(4)
    worst14 = worst_ric = 0.0
    scale14 = scale_ric = 1.0
    for pab, fr, fr_p in zip(psi_ab, frames_at(g_spec, pts),
                             frames_at(gp_spec, pts)):
        rel = (fr_p.riem_ud - fr.riem_ud
               - np.einsum("ad,bc->abcd", delta, pab)
               + np.einsum("ac,bd->abcd", delta, pab))
        ric = fr_p.ricci - fr.ricci + 3.0 * pab
        worst14 = np.maximum(worst14, np.max(np.abs(rel)))
        worst_ric = np.maximum(worst_ric, np.max(np.abs(ric)))
        scale14 = max(scale14, float(np.max(np.abs(fr.riem_ud))),
                      float(np.max(np.abs(fr_p.riem_ud))))
        scale_ric = max(scale_ric, float(np.max(np.abs(fr.ricci))),
                        float(np.max(np.abs(fr_p.ricci))))
    return float(worst14 / scale14), float(worst_ric / scale_ric)


def weyl_projective_at(frame: PointFrame) -> np.ndarray:
    """W^a_bcd = R^a_bcd + (delta^a_d R_bc - delta^a_c R_bd) / 3."""
    delta = np.eye(4)
    return (frame.riem_ud
            + (np.einsum("ad,bc->abcd", delta, frame.ricci)
               - np.einsum("ac,bd->abcd", delta, frame.ricci)) / 3.0)


def weyl_projective_equal(g_spec: MetricSpec, gp_spec: MetricSpec,
                          points) -> float:
    """max-abs difference of the Weyl projective tensors of the two
    metrics over the points (equal when projectively related)."""
    _require_shared_coords(g_spec, gp_spec)
    pts = np.atleast_2d(np.asarray(points, float))
    worst, scale = 0.0, 1.0
    for fr, fr_p in zip(frames_at(g_spec, pts), frames_at(gp_spec, pts)):
        w = weyl_projective_at(fr)
        wp = weyl_projective_at(fr_p)
        worst = np.maximum(worst, np.max(np.abs(w - wp)))
        scale = max(scale, float(np.max(np.abs(w))))
    return float(worst / scale)


# ---------------------------------------------------------------------------
# Pair inversion
# ---------------------------------------------------------------------------

def invert_pair(pair: SinyukovPair, points=None) -> ProjectivePair:
    """Invert (a, lambda) into (g', psi) symbolically.

    g'_ab = s det(g) B_ab / det(a)^2 with B = g adj(a) g, psi and chi
    are built by the adjugate/determinant formulas above and brought to
    exprdsl's normal form, which cancels what the bases share: det(a)^2
    against det(g) and B, the content of each sum, the exp factors.  The
    new domain constraint s det(a) / det(g) has its numerator and its
    denominator normalised apart, so nothing cancels across it.  A base
    cancelled from a denominator of g' that can vanish, is not a factor
    of a constraint, and so could widen the domain, stays as one more
    constraint base^2 > 0.  The consistency d(chi) = psi and the
    auxiliary metric-compatibility of Gamma'' = Gamma - psi^a g_bc (which
    must kill nabla'' a) are asserted numerically at the sample points,
    each within RESIDUAL_TOL of its scale.
    """
    spec = pair.base
    if points is None:
        points = sample_points(spec, 25)
    pts = np.atleast_2d(np.asarray(points, float))
    check_pair_wellformed(pair, pts)
    lam = pair.lam_exprs()

    deta = sym_det4(pair.a)
    detg = sym_det4(spec.g)
    adja = sym_adjugate4(pair.a)
    adjg = sym_adjugate4(spec.g)

    # constant sign of det a / det g on the (connected) sample domain
    a0 = eval_field_batch(spec, pair.a, pts[:1])[0]
    g0 = _metric_jets(spec, pts[:1], 0)[0][0]
    with np.errstate(all="ignore"):  # det a may overflow to +-inf
        s = 1.0 if np.linalg.det(a0) / np.linalg.det(g0) > 0 else -1.0
    sgn = const(int(s))
    sdeta = mul(sgn, deta)

    # g'_ab = e^{2 chi} (a^{-1})_ab = s det(g) B_ab / det(a)^2 for b >= a,
    # with B = g adj(a) g; mirrored, so g' is structurally symmetric
    deta_sq = mul(deta, deta)
    upper = [div(mul(mul(sgn, detg), sym_sum([
        mul(spec.g[i][c], mul(adja[c][d], spec.g[d][j]))
        for c in range(4) for d in range(4)])), deta_sq)
        for i in range(4) for j in range(i, 4)]
    forms, cancelled = normal_forms(upper + [sdeta, detg]
                                    + list(spec.constraints))
    entries = iter(forms[:10])
    gp_rows = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            gp_rows[i][j] = gp_rows[j][i] = next(entries)
    gp = tuple(tuple(r) for r in gp_rows)
    excluded = _factors(forms[10:])
    kept = [pow_(b, 2) for b in cancelled
            if b not in excluded and _can_vanish(b, spec.params)]
    # e^{-2 chi} = s det(a) / det(g)
    row = div(forms[10], forms[11])
    gp_constraints = spec.constraints + (row,) + tuple(kept)

    # psi_a = -(a^{-1})_ab lam^b = -e^{-2 chi} g'_ab lam^b, with
    # lam^b = adj(g)^bc lam_c / det g
    lam_up = [div(e, forms[11]) for e in _mat_vec(adjg, lam)]
    psi = [neg(mul(row, sym_sum([mul(gp[i][j], lam_up[j])
                                 for j in range(4)])))
           for i in range(4)]
    chi = mul(const(Fraction(-1, 2)), fn("ln", row))
    *psi, chi = normal_forms(psi + [chi])[0]
    gp_spec = MetricSpec(spec.coords, gp, spec.params, gp_constraints,
                         spec.sample_box,
                         name=(spec.name + "-partner") if spec.name else "partner")

    # consistency: d(chi) = psi at the sample points
    dchi = tuple(differentiate(chi, c) for c in spec.coords)
    dchi_vals = eval_field_batch(spec, dchi, pts)
    psi_vals = eval_field_batch(spec, psi, pts)
    scale = max(1.0, float(np.max(np.abs(psi_vals))))
    worst = float(np.max(np.abs(dchi_vals - psi_vals)))
    if not worst <= RESIDUAL_TOL * scale:
        raise InversionError(
            f"psi is not the gradient of chi (residual {worst:.3e}); "
            "the pair does not satisfy Sinyukov's equation")
    _assert_aux_connection(spec, pair, psi_vals, pts)
    return ProjectivePair(spec, gp_spec, tuple(psi), chi)


def _factors(exprs) -> set:
    """The bases multiplied together in each of exprs (through products,
    quotients, negations and powers; x^(p/q) counts as x^(1/q)): a
    constraint > 0 keeps each of them finite and nonzero."""
    out, stack = set(), list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, (Mul, Div)):
            stack += [e.lhs, e.rhs]
        elif isinstance(e, Neg):
            stack.append(e.arg)
        elif isinstance(e, Pow) and e.exponent.numerator != 1:
            stack.append(pow_(e.base, Fraction(1, e.exponent.denominator)))
        else:
            out.add(e)
    return out


def _can_vanish(b: Expr, params) -> bool:
    """Whether the base b may be 0 somewhere: not an exp, and not a
    nonzero constant."""
    if isinstance(b, Fn) and b.name == "exp":
        return False
    if free_symbols(b)[0]:
        return True
    try:
        return eval_expr(b, (), (), params) == 0.0
    except DomainError:
        return True


def _assert_aux_connection(spec, pair, psi_vals, pts):
    """nabla'' a = 0 for Gamma''^a_bc = Gamma^a_bc - psi^a g_bc."""
    a_vals, cov = cov_deriv_batch(spec, pair.a, pts)
    g = _metric_jets(spec, pts, 0)[0]
    ginv = np.linalg.inv(g)
    psi_up = np.einsum("nab,nb->na", ginv, psi_vals)
    corr = (np.einsum("ne,nca,neb->nabc", psi_up, g, a_vals)
            + np.einsum("ne,ncb,nae->nabc", psi_up, g, a_vals))
    resid = cov + corr
    scale = max(1.0, float(np.max(np.abs(a_vals))))
    if not float(np.max(np.abs(resid))) <= RESIDUAL_TOL * scale:
        raise InversionError("auxiliary connection fails nabla'' a = 0; "
                             "the pair does not satisfy Sinyukov's equation")


# ---------------------------------------------------------------------------
# Lemma 1 conclusions
# ---------------------------------------------------------------------------

def lemma1_checks(g_spec: MetricSpec, pair: SinyukovPair, points):
    """(a) best-fit constant c with residual of lam_a;b - c g_ab,
    (b) residual of lam_d R^d_abc, (c) residual of the theorem-1 form
    a_ae R^e_bcd + a_be R^e_acd.  Returns (c, res_a, res_b, res_c)."""
    pts = np.atleast_2d(np.asarray(points, float))
    lam_vals, cov_lam = cov_deriv_batch(g_spec, pair.lam_exprs(), pts)
    g = _metric_jets(g_spec, pts, 0)[0]
    c_fit = (float(np.sum(cov_lam * g)) / float(np.sum(g * g)))
    res_a = float(np.max(np.abs(cov_lam - c_fit * g)))
    res_a /= max(1.0, float(np.max(np.abs(cov_lam))))

    a_vals = eval_field_batch(g_spec, pair.a, pts)
    res_b = res_c = 0.0
    scale_b = scale_c = 1.0
    for k, fr in enumerate(frames_at(g_spec, pts)):
        rd = fr.riem_dddd  # lam_d R^d_abc = lam^d R_dabc with lam^d = ginv lam
        lam_up = fr.ginv @ lam_vals[k]
        res_b = np.maximum(res_b, np.max(np.abs(
            np.einsum("d,dabc->abc", lam_up, rd))))
        t = (np.einsum("ae,ebcd->abcd", a_vals[k], fr.riem_ud)
             + np.einsum("be,eacd->abcd", a_vals[k], fr.riem_ud))
        res_c = np.maximum(res_c, np.max(np.abs(t)))
        rmax = float(np.max(np.abs(fr.riem_ud)))
        scale_b = max(scale_b, rmax * float(np.max(np.abs(lam_up))))
        scale_c = max(scale_c, rmax * float(np.max(np.abs(a_vals[k]))))
    return c_fit, res_a, float(res_b / scale_b), float(res_c / scale_c)


# ---------------------------------------------------------------------------
# Pre-geodesic check
# ---------------------------------------------------------------------------

@dataclass
class GeodesicReport:
    score: float
    trials: int
    steps: int
    # (trial, step) pairs, by trial: where each truncated trajectory stopped
    truncated: list[tuple[int, int]] = field(default_factory=list)
    scored: int = 0  # (trial, step) pairs that entered the score


# rows (steps x trials) at which pregeodesic_check evaluates and scores g'
# in one call.  Against one call per step, the geodesic benchmark's peak
# RSS rose 1.4 % at 256 rows, 3.9 % at 512 and 9.9 % at 1024
_BLOCK_ROWS = 256


def _norms(x: np.ndarray) -> np.ndarray:
    # the arithmetic of np.linalg.norm(x, axis=1) for a real (n, k)
    # array, without its wrapper
    return np.sqrt(np.add.reduce(x * x, axis=1))


def pregeodesic_check(g_spec: MetricSpec, gp_spec: MetricSpec,
                      trials: int = 20, steps: int = 2000,
                      horizon: float = 2.0, seed: int = 7) -> GeodesicReport:
    """Integrate geodesics of g (RK4, fixed step) and score how far the
    second connection's acceleration tilts away from the velocity.

    Along each trajectory A'^a = xdd^a + Gamma'^a_bc xd^b xd^c with
    xdd^a = -Gamma^a_bc xd^b xd^c; the score is the Euclideanised norm of
    A' ^ xd over ((|Gamma' xd xd| + |Gamma xd xd|) |xd| + machine
    epsilon), maximised over trials and steps.  Projectively related
    pairs give A' parallel to xd exactly, and score rounding noise
    relative to the accelerations, about 1e-16; a g' whose connection is
    within relative delta of a partner's scores about delta.  The sizes
    of the two terms scale the score, not |A'|: |A'| vanishes where g'
    nearly shares the geodesic, and over it that rounding noise reads
    as large as 1e-5 along the fixtures' own partners.
    A trajectory is truncated where either metric's Christoffels are
    invalid or the point leaves either metric's domain.

    Only g drives the integration, so g is integrated alone over a block
    of max(1, _BLOCK_ROWS // trials) steps: each RK4 step evaluates g's
    four stages unmasked, one compiled call each (the stages of g's
    _christoffel_kernel), into one stage buffer that the check keeps.
    The block's validity is then decided at once: one whole-block test,
    and per-row masks only in a block that fails it.  One
    christoffel_batch call evaluates g' at all of the block's points,
    and the block's scores are computed at once.  A trial stops at the
    first step where either metric rejects its point or g rejects a
    later stage; its rows past that step carry garbage that the masks
    keep out of the report, and at the block's end it leaves the batch.
    The report is the one of a loop that checks both metrics at every
    step, bit for bit: no row's arithmetic depends on the batch size or
    on another row.
    """
    _require_shared_coords(g_spec, gp_spec)
    if trials < 1 or steps < 1:
        raise ValueError("trials and steps must be positive")
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    if horizon / steps <= np.finfo(float).tiny:
        raise ValueError("step size underflow: horizon/steps too small")
    x = sample_points(g_spec, trials, seed=seed)
    rng = np.random.default_rng(seed + 1)
    v = rng.normal(size=(trials, DIM))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    h = float(horizon) / steps
    # the step factors as 0-d arrays, which numpy multiplies faster than
    # floats, to the same bits
    half, h, sixth, two = map(np.array, (0.5 * h, h, h / 6, 2.0))
    block = min(max(1, _BLOCK_ROWS // trials), steps)
    kernel = _christoffel_kernel(g_spec)
    stages = kernel(4 * block, trials)
    # the batch's rows: the trials that neither metric has stopped
    ids = np.arange(trials)
    truncated: dict[int, int] = {}
    score = 0.0
    scored = 0
    eps = np.finfo(float).eps

    def gvv(gamma, vel):  # Gamma^a_bc vel^b vel^c, minus the acceleration
        return np.einsum("nabc,nb,nc->na", gamma, vel, vel)

    first = 0
    # a row that fails a stage carries nan, inf or points outside the
    # domain into its later stages, steps and scores, which the masks
    # then discard
    with np.errstate(all="ignore"):
        while first < steps and len(ids):
            n, m = min(block, steps - first), len(ids)
            xs, vs, es = [], [], []
            stages.rewind()
            for _ in range(n):
                # RK4 on (x, v); each stage's velocity is its position
                # slope, and e_i = -k_iv is subtracted where k_iv was
                # added: IEEE negation commutes with rounding, so the
                # step is the one with the k_iv bit for bit
                e1 = gvv(stages(x), v)
                k2x = v - half * e1
                e2 = gvv(stages(x + half * v), k2x)
                k3x = v - half * e2
                e3 = gvv(stages(x + half * k2x), k3x)
                k4x = v - h * e3
                e4 = gvv(stages(x + h * k3x), k4x)
                xs.append(x)
                vs.append(v)
                es.append(e1)
                x = x + sixth * (v + two * k2x + two * k3x + k4x)
                v = v - sixth * (e1 + two * e2 + two * e3 + e4)
            if stages.valid():
                x_ok = stage_ok = np.ones((n, m), dtype=bool)
            else:
                ok, admissible = stages.masks()
                ok = (ok & admissible).reshape(n, 4, m)
                x_ok, stage_ok = ok[:, 0], ok[:, 1:].all(axis=1)

            # the second metric and the scores of the whole block at once
            gamma_p, ok_p, inside_p = christoffel_batch(gp_spec,
                                                        np.concatenate(xs))
            live = x_ok & (ok_p & inside_p).reshape(n, m)
            vel = np.concatenate(vs)
            # A' = xdd + Gamma' v v = Gamma' v v - Gamma v v, scored
            # against the sizes of its two terms
            gp_vv, g_vv = gvv(gamma_p, vel), np.concatenate(es)
            a_prime = gp_vv - g_vv
            outer = np.einsum("na,nb->nab", a_prime, vel)
            wedge = outer - outer.transpose(0, 2, 1)
            num = _norms(wedge.reshape(n * m, -1)) / np.sqrt(2.0)
            den = (_norms(gp_vv) + _norms(g_vv)) * _norms(vel) + eps
            step_scores = (num / den).reshape(n, m)

            # a trial is scored at each step where it is live and has not
            # stopped, and stops at its first step that is not live or
            # has a stage that g rejects
            alive = np.logical_and.accumulate(live & stage_ok, axis=0)
            counted = live.copy()
            counted[1:] &= alive[:-1]
            scored += int(np.count_nonzero(counted))
            # max(score, step max) step by step, so a step whose max is
            # nan leaves the score as it was
            score = max(score, *np.max(np.where(counted, step_scores, 0.0),
                                       axis=1).tolist())
            keep = alive[-1]
            if not keep.all():
                stops = first + np.argmin(alive[:, ~keep], axis=0)
                truncated.update(zip(ids[~keep].tolist(), stops.tolist()))
                ids, x, v = ids[keep], x[keep], v[keep]
                if len(ids):
                    stages = kernel(4 * block, len(ids))
            first += n

    return GeodesicReport(score, trials, steps,
                          sorted(truncated.items()), scored)
