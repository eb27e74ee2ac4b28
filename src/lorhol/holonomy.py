"""Infinitesimal holonomy: generators, Lie closure and identification
against the fifteen-type subalgebra taxonomy of the Lorentz algebra.

Generators at a point are the matrices R^a_bcd X^c Y^d (plus covariant
derivative contractions at higher order); their bracket closure is a
subalgebra of so(g(m)).  Closure and identification work in the six
components w_ab (a < b) of each matrix's lowered form g.m, so every span
stays inside the 6-dimensional so(1,3).  Identification keys on
dimension, the common annihilated directions with their causal
character, and for the two 3-dimensional types with trivial annihilator
on a Pfaffian discriminant.

One closure (_close) and one decision (_decide) serve every caller;
only identify_type checks its basis (skew, then bracket-closed).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bivector import (
    BASIS_INDEX, Bivector, antisym_from_six, canonical_span_basis,
    classify_bivector, null_basis, to_six,
)
from .pointcalc import (
    MetricSpec, PointFrame, frame_at, frames_at, sample_points,
)

__all__ = [
    "HolonomyAlgebraReport", "HolonomySurveyReport", "ihol_generators",
    "lie_bracket", "close_algebra", "identify_type", "constant_directions",
    "recurrent_directions", "holonomy_survey", "TYPE_DIMENSIONS",
]

SPAN_TOL = 1e-8

TYPE_DIMENSIONS = {
    "R1": 0, "R2": 1, "R3": 1, "R4": 1, "R5": 1, "R6": 2, "R7": 2, "R8": 2,
    "R9": 3, "R10": 3, "R11": 3, "R12": 3, "R13": 3, "R14": 4, "R15": 6,
}
# the 2- and 3-dim types with one constant direction, by its character
_BY_CONSTANT = {2: {"spacelike": "R6", "null": "R8"},
                3: {"spacelike": "R10", "null": "R11", "timelike": "R13"}}


@dataclass
class HolonomyAlgebraReport:
    """Identified (sub)algebra at a point or aggregated over a survey."""

    dimension: int
    basis: list[np.ndarray]  # skew-self-adjoint (1,1) matrices
    label: str  # R1..R15 or "unrecognized"
    constant: list[tuple[np.ndarray, str]]  # annihilated directions + character
    recurrent: list[np.ndarray]  # null eigen-directions, nonzero eigenvalue
    omega: float | None = None  # R5 / R12 parameter (reported >= 0)
    realizable: bool = True  # False only for R5
    diagnostics: dict = field(default_factory=dict)


@dataclass
class HolonomySurveyReport:
    label: str
    representative: HolonomyAlgebraReport
    per_point: list[tuple[np.ndarray, str, int]]  # (point, label, dimension)
    mixed_types: bool
    caveat: str = ("infinitesimal holonomy is a subalgebra of the true "
                   "holonomy algebra; the label is a lower bound")


# ---------------------------------------------------------------------------
# Generators and closure
# ---------------------------------------------------------------------------

def ihol_generators(spec: MetricSpec, point, derivative_order: int = 1,
                    frame: PointFrame | None = None) -> list[np.ndarray]:
    """Raw generators R^a_bcd X^c Y^d (order 0), plus first and second
    covariant-derivative contractions for derivative_order 1 / 2."""
    if derivative_order not in (0, 1, 2):
        raise ValueError("derivative_order must be 0, 1 or 2")
    fr = frame or frame_at(spec, point, 2 + derivative_order)
    r = fr.riem_ud
    scale = max(float(np.max(np.abs(r))), 1e-300)
    tensors = [r]
    if derivative_order >= 1:
        tensors.append(fr.cov_riemann)
    if derivative_order >= 2:
        tensors.append(fr.cov2_riemann)
    # R^a_b[cd](;e(;f)) for c < d, in (c, d, e, f) row-major order
    gens = np.concatenate([np.moveaxis(t, (0, 1), (-2, -1))[BASIS_INDEX]
                           .reshape(-1, 4, 4) for t in tensors])
    return list(gens[np.max(np.abs(gens), axis=(1, 2)) > 1e-13 * scale])


def lie_bracket(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Matrix commutator FH - HF of two (1,1) bivector matrices."""
    f, h = np.asarray(f, float), np.asarray(h, float)
    return f @ h - h @ f


def _to_six(mats, g: np.ndarray):
    """Each (1,1) matrix m as the six w_ab (a < b) of the antisymmetric
    part of W = g.m, with max|W + W^T| / max|W|, its distance from so(g)."""
    w = g @ np.asarray(mats, float).reshape(-1, 4, 4)
    wt = np.swapaxes(w, 1, 2)
    sym = np.max(np.abs(w + wt), axis=(1, 2)) / np.maximum(
        np.max(np.abs(w), axis=(1, 2)), 1e-300)
    return 0.5 * to_six(w - wt), sym


def _brackets(six: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Six components of g.[M_i, M_j], i < j, for the rows' M = g^-1 W.

    One stacked block P - P^T with P = W_i g^-1 W_j, which is exactly
    antisymmetric.  It is divided by max|g^-1| max|W|, so that it stays
    commensurate with the rows whatever the metric's scale.
    """
    w = antisym_from_six(six)
    i, j = np.triu_indices(len(w), 1)
    p = w[i] @ ginv @ w[j]
    p /= np.max(np.abs(ginv)) * np.max(np.abs(six))
    return to_six(p - np.swapaxes(p, 1, 2))


def _reduce(rows: np.ndarray, rref: np.ndarray) -> np.ndarray:
    """The rows modulo the span of canonical_span_basis rows: zero in the
    pivot columns, which are exactly the identity columns of the RREF."""
    piv = (rref == 1.0) & (np.count_nonzero(rref, axis=0) == 1)
    return rows - rows[:, np.argmax(piv, axis=1)] @ rref


def _close(six: np.ndarray, ginv: np.ndarray, tol: float):
    """RREF rows of the smallest bracket-closed span of the six-component
    rows, and the bracket block of exactly those rows (None at dimension
    0, 1 or 6, where no round brackets the final span)."""
    span = canonical_span_basis(six, tol)
    while 1 < len(span) < 6:
        brackets = _brackets(span, ginv)
        grown = canonical_span_basis(np.vstack([span, brackets]), tol)
        if len(grown) == len(span):
            return span, brackets
        span = grown
    return span, None


def close_algebra(generators, frame: PointFrame,
                  tol: float = SPAN_TOL) -> list[np.ndarray]:
    """Smallest bracket-closed span containing the generators.

    The span lives in so(g) as the six coordinates w_ab (a < b) of each
    generator's g.m, kept at their raw magnitude, so it cannot exceed
    dimension 6.  The returned basis is deterministic: reduced row
    echelon form in those coordinates with lexicographic pivoting,
    returned as the (1,1) matrices g^-1 W.
    """
    span, _ = _close(_to_six(generators, frame.g)[0], frame.ginv, tol)
    return list(frame.ginv @ antisym_from_six(span))


# ---------------------------------------------------------------------------
# Structure probes
# ---------------------------------------------------------------------------

def _causal_character(v: np.ndarray, g: np.ndarray, tol: float = 1e-8) -> str:
    norm2 = float(v @ g @ v)
    scale = float(v @ v) * float(np.max(np.abs(g)))
    if abs(norm2) <= tol * max(scale, 1e-300):
        return "null"
    return "timelike" if norm2 < 0 else "spacelike"


def constant_directions(basis, frame: PointFrame,
                        tol: float = SPAN_TOL) -> list[tuple[np.ndarray, str]]:
    """Common nullspace of all basis matrices, tagged by causal character;
    these integrate to covariantly constant vector fields."""
    if not len(basis):
        return [(np.eye(4)[i], _causal_character(np.eye(4)[i], frame.g))
                for i in range(4)]
    stack = np.vstack([np.asarray(m, float)
                       / max(np.max(np.abs(m)), 1e-300) for m in basis])
    return [(v / np.linalg.norm(v), _causal_character(v, frame.g))
            for v in null_basis(stack, tol)]


def recurrent_directions(basis, frame: PointFrame,
                         tol: float = 1e-8) -> list[np.ndarray]:
    """Common eigen-directions of the basis with some nonzero eigenvalue.

    Candidates come from real eigenvectors of a few fixed generic
    combinations, then each is verified against every basis element.
    All surviving directions are null (skew-self-adjointness forces it).
    """
    if not len(basis):
        return []
    mats = [np.asarray(m, float) / max(np.max(np.abs(m)), 1e-300)
            for m in basis]
    combos = [np.mean(mats, axis=0)] + list(mats)
    for w in _combo_weights(len(mats)):
        combos.append(sum(c * m for c, m in zip(w, mats)))
    vals, vecs = np.linalg.eig(np.array(combos))
    # real eigenvectors, combo by combo, as unit rows; the norms, products
    # and residuals use np.linalg.norm's dot-product arithmetic
    cand = np.swapaxes(vecs.real, 1, 2)[np.abs(vals.imag) <= 1e-8]
    nrm = np.sqrt(_rowdot(cand, cand))
    big = nrm >= 1e-12
    cand = cand[big] / nrm[big, None]
    # verify every candidate against every basis element at once
    stack = np.array(mats)
    mv = (stack @ cand[:, None, :, None])[..., 0]  # (candidate, element, 4)
    mu = _rowdot(cand[:, None, :], mv)  # v is unit
    off = mv - mu[..., None] * cand[:, None, :]
    bound = tol * np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
    eigen = (~np.any(np.sqrt(_rowdot(off, off)) > bound, axis=1)
             & (np.max(np.abs(mu), axis=1) > tol))
    found = []
    for v in cand[eigen]:
        k = int(np.argmax(np.abs(v) > 1e-8))
        u = v * np.sign(v[k])
        u[np.abs(u) <= 1e-12] = 0.0  # round-off, as +0.0 after the flip
        # a repeat is dropped whatever its causal character, so only a new
        # direction needs the test
        if any(np.linalg.norm(u - f) < 1e-6 for f in found):
            continue
        if _causal_character(v, frame.g) == "null":
            # not null is numerically impossible for exact eigen-directions
            found.append(u)
    return found


@lru_cache(maxsize=None)
def _combo_weights(k: int) -> tuple:
    """The weights of recurrent_directions' three generic combinations of
    k basis elements: fixed draws, so reports are deterministic.  Read
    only, since every call shares them."""
    rng = np.random.default_rng(20090629)
    weights = tuple(rng.normal(size=k) for _ in range(3))
    for w in weights:
        w.setflags(write=False)
    return weights


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes, computed as a 1-D ``a @ b`` is."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _mixed_to_bivector(m: np.ndarray, frame: PointFrame) -> Bivector:
    return Bivector(np.asarray(m, float) @ frame.ginv, frame)


def _adapted_null_tetrad(l: np.ndarray, frame: PointFrame):
    """Null tetrad (l, n, x, y) with the given null l, g(l,n)=1."""
    g = frame.g
    probes = [np.eye(4)[i] for i in range(4)]
    t = max(probes, key=lambda p: abs(float(l @ g @ p)))
    lt = float(l @ g @ t)
    n0 = t / lt
    n = n0 - 0.5 * float(n0 @ g @ n0) * l
    rest = []
    for p in probes:
        v = p - float(p @ g @ n) * l - float(p @ g @ l) * n
        for q in rest:
            v = v - float(v @ g @ q) * q
        nrm2 = float(v @ g @ v)
        if nrm2 > 1e-8 * float(np.max(np.abs(g))):
            rest.append(v / np.sqrt(nrm2))
        if len(rest) == 2:
            break
    x, y = rest
    return l, n, x, y


def _project_biv(w: Bivector, p: np.ndarray, q: np.ndarray) -> float:
    """Coefficient of p^q in w, for tetrad members (uses <A,B> = A_ab B^ab)."""
    fr = w.frame
    pq = np.outer(p, q) - np.outer(q, p)
    pq_low = fr.g @ pq @ fr.g.T
    denom = float(np.sum(pq_low * pq))
    return float(np.sum(pq_low * w.comps)) / denom


def _r9_r12_discriminant(span: np.ndarray, brackets: np.ndarray,
                         frame: PointFrame, tol: float):
    """For a 3-dim algebra with trivial annihilator: the derived algebra
    (the span of the bracket block) is 2-dim; the Pfaffian of any
    complement representative modulo it is zero for R9 and nonzero for
    R12 (then omega is extracted).  The span and the derived algebra are
    RREF rows of six components."""
    derived = canonical_span_basis(brackets, tol)
    if len(derived) != 2:
        return None
    # the first span row outside the derived algebra, reduced modulo it
    red = _reduce(span, derived)
    outside = np.max(np.abs(red), axis=1) > 10 * tol
    if not np.any(outside):
        return None
    rep = frame.ginv @ antisym_from_six(red[outside][0])
    w = _mixed_to_bivector(rep, frame)
    pf = w.pfaffian
    smax = float(np.linalg.svd(w.comps, compute_uv=False)[0])
    if abs(pf) <= 1e-7 * smax ** 2:
        return ("R9", None)
    # omega: common annihilator of the derived algebra gives the null l
    anns = constant_directions(frame.ginv @ antisym_from_six(derived), frame,
                               tol)
    nulls = [v for v, ch in anns if ch == "null"]
    if len(anns) != 1 or not nulls:
        return None
    l, n, x, y = _adapted_null_tetrad(nulls[0], frame)
    w_ln = _project_biv(w, l, n)
    w_xy = _project_biv(w, x, y)
    if abs(w_ln) < 1e-12:
        return None
    return ("R12", abs(w_xy / w_ln))


# ---------------------------------------------------------------------------
# Identification
# ---------------------------------------------------------------------------

def identify_type(basis, frame: PointFrame,
                  tol: float = SPAN_TOL) -> HolonomyAlgebraReport:
    """Identify the span of bivector matrices against the taxonomy; its
    dimension is the span's rank.  The basis must be skew-self-adjoint
    and bracket-closed, tested on the one bracket block _decide reuses.
    Structure that fits no type is labelled "unrecognized" with
    diagnostics instead of guessing."""
    basis = [np.asarray(m, float) for m in basis]
    six, sym = _to_six(basis, frame.g)
    if np.any(sym > tol):
        return HolonomyAlgebraReport(
            len(basis), basis, "unrecognized", [], [],
            diagnostics={"reason": "basis not skew-self-adjoint"})
    span = canonical_span_basis(six, tol)
    brackets = _brackets(span, frame.ginv) if len(span) > 1 else None
    if brackets is not None:
        resid = float(np.max(np.abs(_reduce(brackets, span))))
        if resid > max(tol, 1e-6) * np.max(np.abs(span)):
            return HolonomyAlgebraReport(
                len(span), basis, "unrecognized", [], [],
                diagnostics={"reason": "basis not bracket-closed",
                             "residual": resid})
    return _complete(_decide(basis, span, brackets, frame, tol), frame, tol)


def _decide(basis, span: np.ndarray, brackets, frame: PointFrame,
            tol: float) -> HolonomyAlgebraReport:
    """Label a closed algebra, given as (1,1) matrices, the RREF rows of
    their span and the bracket block of those rows, from only the probes
    its dimension's rule reads: the bivector class at dimension 1, the
    constant directions at dimensions 2 and 3 (then the R9/R12
    discriminant when there are none), the recurrent directions at
    dimension 4.  A probe the rule did not read is left as None."""
    diags: dict = {}
    dim = len(span)
    const = recur = omega = None
    label = "unrecognized"
    if dim == 0:
        label = "R1"
    elif dim == 1:
        # the span's element: basis[0] may be zero or nearly so
        one = (frame.ginv @ antisym_from_six(span))[0]
        cls = classify_bivector(_mixed_to_bivector(one, frame), max(tol, 1e-8))
        label = {"simple-timelike": "R2", "simple-null": "R3",
                 "simple-spacelike": "R4", "non-simple": "R5"}.get(
                     cls.tag, "unrecognized")
        if label == "R5":
            g_t, h_s = cls.pair
            omega = float(np.sqrt(h_s.theta / -g_t.theta))
    elif dim in (2, 3):
        const = constant_directions(basis, frame, tol)
        chars = [ch for _, ch in const]
        if len(chars) == 1:
            label = _BY_CONSTANT[dim].get(chars[0], "unrecognized")
        elif not chars and dim == 2:
            label = "R7"
        elif not chars:
            got = _r9_r12_discriminant(span, brackets, frame, tol)
            if got is not None:
                label, omega = got
            else:
                diags["reason"] = "dim-3 discriminant failed"
    elif dim == 4:
        recur = recurrent_directions(basis, frame)
        if recur:
            label = "R14"
        else:
            diags["reason"] = "dim-4 algebra without a null eigen-direction"
    elif dim == 5:
        diags["reason"] = "the Lorentz algebra has no 5-dim subalgebra"
    elif dim == 6:
        label = "R15"
    return HolonomyAlgebraReport(
        dim, basis, label, const, recur, omega,
        realizable=(label != "R5"), diagnostics=diags)


def _complete(rep: HolonomyAlgebraReport, frame: PointFrame,
              tol: float) -> HolonomyAlgebraReport:
    """Fill in the probes _decide left as None."""
    if rep.constant is None:
        rep.constant = constant_directions(rep.basis, frame, tol)
    if rep.recurrent is None:
        rep.recurrent = recurrent_directions(rep.basis, frame)
    return rep


# ---------------------------------------------------------------------------
# Survey
# ---------------------------------------------------------------------------

def holonomy_survey(spec: MetricSpec, samples: int = 32, seed: int = 7,
                    derivative_order: int = 1, box=None,
                    tol: float = SPAN_TOL) -> HolonomySurveyReport:
    """Identify the infinitesimal holonomy algebra over sampled points.

    Each point is closed and labelled in its own frame (the matrices at
    different points are skew-self-adjoint for different g(m), so a naive
    cross-point union of chart components is not an algebra and is not
    attempted); its per-point entry carries the label and dimension only.
    The span the closure built is labelled with no input check.
    The representative is the first point of maximal dimension,
    preferring a recognised label, and its label is the survey's; only
    the representative carries constant and recurrent directions, omega
    and diagnostics, as identify_type reports them at that point.
    Disagreeing per-point labels are flagged.
    """
    pts = sample_points(spec, samples, seed=seed, box=box)
    per_point = []
    best = None  # (decision, frame)
    for fr in frames_at(spec, pts, derivative_order + 2):
        gens = ihol_generators(spec, fr.point, derivative_order, frame=fr)
        span, brackets = _close(_to_six(gens, fr.g)[0], fr.ginv, tol)
        rep = _decide(list(fr.ginv @ antisym_from_six(span)), span,
                      brackets, fr, tol)
        per_point.append((fr.point, rep.label, rep.dimension))
        if best is None or _better(rep, best[0]):
            best = rep, fr
    labels = {lab for _, lab, _ in per_point}
    mixed = len(labels) > 1
    representative = _complete(*best, tol)
    return HolonomySurveyReport(representative.label, representative,
                                per_point, mixed)


def _better(a: HolonomyAlgebraReport, b: HolonomyAlgebraReport) -> bool:
    if a.dimension != b.dimension:
        return a.dimension > b.dimension
    return b.label == "unrecognized" and a.label != "unrecognized"
