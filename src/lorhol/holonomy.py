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

One closure (_close), which closes a stack of points at once, and one
decision (_decide) serve every caller; only identify_type checks its
basis (skew, then bracket-closed).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bivector import (
    BASIS_INDEX, Bivector, _span_bases, antisym_from_six,
    canonical_span_basis, classify_bivector, null_basis, to_six,
)
from .pointcalc import (
    MetricSpec, PointFrame, _frame_chunks, frame_at, sample_points,
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
    covariant-derivative contractions for derivative_order 1 / 2: the
    one-point call of _generators, without the zeroed matrices."""
    if derivative_order not in (0, 1, 2):
        raise ValueError("derivative_order must be 0, 1 or 2")
    fr = frame or frame_at(spec, point, 2 + derivative_order)
    tensors = [fr.riem_ud]
    if derivative_order >= 1:
        tensors.append(fr.cov_riemann)
    if derivative_order >= 2:
        tensors.append(fr.cov2_riemann)
    gens, kept = _generators([t[None] for t in tensors])
    return list(gens[0, kept[0]])


def _generators(tensors) -> tuple[np.ndarray, np.ndarray]:
    """The generators of every point of a stack, from its R^a_bcd and, as
    the order asks, R^a_bcd;e and R^a_bcd;e;f, each with the points on
    the leading axis: the (B, k, 4, 4) matrices R^a_b[cd](;e(;f)) for
    c < d, in (c, d, e, f) row-major order, and the (B, k) mask of those
    above 1e-13 max|R| at their point.  A matrix below it is written as
    zeros, which no span counts."""
    r = tensors[0]
    scale = np.maximum(np.max(np.abs(r), axis=(1, 2, 3, 4)), 1e-300)
    gens = np.concatenate(
        [np.moveaxis(t, (1, 2), (-2, -1))[:, BASIS_INDEX[0], BASIS_INDEX[1]]
         .reshape(len(t), -1, 4, 4) for t in tensors], axis=1)
    kept = np.max(np.abs(gens), axis=(2, 3)) > 1e-13 * scale[:, None]
    gens[~kept] = 0.0
    return gens, kept


def lie_bracket(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Matrix commutator FH - HF of two (1,1) bivector matrices."""
    f, h = np.asarray(f, float), np.asarray(h, float)
    return f @ h - h @ f


def _to_six(mats, g: np.ndarray):
    """Each (1,1) matrix m, given as (..., k, 4, 4) with the metrics
    (..., 4, 4) of their points, as the six w_ab (a < b) of the
    antisymmetric part of W = g.m, with max|W + W^T| / max|W|, its
    distance from so(g)."""
    w = g[..., None, :, :] @ np.asarray(mats, float).reshape(
        g.shape[:-2] + (-1, 4, 4))
    wt = np.swapaxes(w, -1, -2)
    sym = np.max(np.abs(w + wt), axis=(-2, -1)) / np.maximum(
        np.max(np.abs(w), axis=(-2, -1)), 1e-300)
    return 0.5 * to_six(w - wt), sym


def _brackets(six: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Six components of g.[M_i, M_j], i < j, for the rows' M = g^-1 W,
    of one point's rows (k, 6) or of a stack of points (..., k, 6) with
    their g^-1 (..., 4, 4).

    One stacked block P - P^T with P = W_i g^-1 W_j, which is exactly
    antisymmetric.  It is divided by max|g^-1| max|W| of its point, so
    that it stays commensurate with the rows whatever the metric's
    scale.
    """
    w = antisym_from_six(six)
    i, j = np.triu_indices(six.shape[-2], 1)
    p = w[..., i, :, :] @ ginv[..., None, :, :] @ w[..., j, :, :]
    p /= (np.max(np.abs(ginv), axis=(-2, -1))
          * np.max(np.abs(six), axis=(-2, -1)))[..., None, None, None]
    return to_six(p - np.swapaxes(p, -1, -2))


def _reduce(rows: np.ndarray, rref: np.ndarray) -> np.ndarray:
    """The rows modulo the span of canonical_span_basis rows: zero in the
    pivot columns, which are exactly the identity columns of the RREF."""
    piv = (rref == 1.0) & (np.count_nonzero(rref, axis=0) == 1)
    return rows - rows[:, np.argmax(piv, axis=1)] @ rref


# the bracket pairs of six rows, as _brackets orders them
_PAIRS = np.triu_indices(6, 1)


def _close(six: np.ndarray, ginv: np.ndarray):
    """For every point of a stack, given as its six-component rows
    (B, m, 6) and g^-1 (B, 4, 4): the RREF rows of the smallest
    bracket-closed span of its rows as _span_bases returns them, a
    (B, 6, 6) array and the (B, 6) mask of its rows, and the bracket
    block of exactly those rows (None at dimension 0, 1 or 6, where no
    round brackets the final span).

    The points are reduced together: one batched RREF for the first
    spans, then one bracket block and one RREF per round over the points
    still growing.  Each span is held as _span_bases returns it, a row
    per pivot column with zeros elsewhere; a zero row brackets to zero
    rows, and the real rows and brackets keep their order, so every
    point's span is the one it would reach alone.
    """
    span, pivoted = _span_bases(six, SPAN_TOL)
    dim = pivoted.sum(axis=1)
    brackets = [None] * len(span)
    grow = np.flatnonzero((dim > 1) & (dim < 6))
    while grow.size:
        block = _brackets(span[grow], ginv[grow])
        grown, now = _span_bases(np.concatenate([span[grow], block], axis=1),
                                 SPAN_TOL)
        closed = now.sum(axis=1) == dim[grow]
        for k in np.flatnonzero(closed):
            real = pivoted[grow[k]]
            brackets[grow[k]] = block[k, real[_PAIRS[0]] & real[_PAIRS[1]]]
        grow, grown, now = grow[~closed], grown[~closed], now[~closed]
        span[grow], pivoted[grow] = grown, now
        dim[grow] = now.sum(axis=1)
        grow = grow[dim[grow] < 6]
    return span, pivoted, brackets


def close_algebra(generators, frame: PointFrame) -> list[np.ndarray]:
    """Smallest bracket-closed span containing the generators.

    The span lives in so(g) as the six coordinates w_ab (a < b) of each
    generator's g.m, kept at their raw magnitude, so it cannot exceed
    dimension 6.  The returned basis is deterministic: reduced row
    echelon form in those coordinates with lexicographic pivoting,
    returned as the (1,1) matrices g^-1 W.
    """
    span, pivoted, _ = _close(_to_six(generators, frame.g)[0][None],
                              frame.ginv[None])
    return list(frame.ginv @ antisym_from_six(span[0, pivoted[0]]))


# ---------------------------------------------------------------------------
# Structure probes
# ---------------------------------------------------------------------------

def _causal_character(v: np.ndarray, g: np.ndarray) -> str:
    norm2 = float(v @ g @ v)
    scale = float(v @ v) * float(np.max(np.abs(g)))
    if abs(norm2) <= 1e-8 * max(scale, 1e-300):
        return "null"
    return "timelike" if norm2 < 0 else "spacelike"


def constant_directions(basis,
                        frame: PointFrame) -> list[tuple[np.ndarray, str]]:
    """Common nullspace of all basis matrices, tagged by causal character;
    these integrate to covariantly constant vector fields."""
    if not len(basis):
        return [(np.eye(4)[i], _causal_character(np.eye(4)[i], frame.g))
                for i in range(4)]
    stack = np.vstack([np.asarray(m, float)
                       / max(np.max(np.abs(m)), 1e-300) for m in basis])
    return [(v / np.linalg.norm(v), _causal_character(v, frame.g))
            for v in null_basis(stack, SPAN_TOL)]


def recurrent_directions(basis, frame: PointFrame) -> list[np.ndarray]:
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
    bound = 1e-8 * np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
    eigen = (~np.any(np.sqrt(_rowdot(off, off)) > bound, axis=1)
             & (np.max(np.abs(mu), axis=1) > 1e-8))
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
                         frame: PointFrame):
    """For a 3-dim algebra with trivial annihilator: the derived algebra
    (the span of the bracket block) is 2-dim; the Pfaffian of any
    complement representative modulo it is zero for R9 and nonzero for
    R12 (then omega is extracted).  The span and the derived algebra are
    RREF rows of six components."""
    derived = canonical_span_basis(brackets, SPAN_TOL)
    if len(derived) != 2:
        return None
    # the first span row outside the derived algebra, reduced modulo it
    red = _reduce(span, derived)
    outside = np.max(np.abs(red), axis=1) > 10 * SPAN_TOL
    if not np.any(outside):
        return None
    rep = frame.ginv @ antisym_from_six(red[outside][0])
    w = _mixed_to_bivector(rep, frame)
    pf = w.pfaffian
    smax = float(np.linalg.svd(w.comps, compute_uv=False)[0])
    if abs(pf) <= 1e-7 * smax ** 2:
        return ("R9", None)
    # omega: common annihilator of the derived algebra gives the null l
    anns = constant_directions(frame.ginv @ antisym_from_six(derived), frame)
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

def identify_type(basis, frame: PointFrame) -> HolonomyAlgebraReport:
    """Identify the span of bivector matrices against the taxonomy; its
    dimension is the span's rank.  The basis must be skew-self-adjoint
    and bracket-closed, tested on the one bracket block _decide reuses.
    Structure that fits no type is labelled "unrecognized" with
    diagnostics instead of guessing."""
    basis = [np.asarray(m, float) for m in basis]
    six, sym = _to_six(basis, frame.g)
    if np.any(sym > SPAN_TOL):
        return HolonomyAlgebraReport(
            len(basis), basis, "unrecognized", [], [],
            diagnostics={"reason": "basis not skew-self-adjoint"})
    span = canonical_span_basis(six, SPAN_TOL)
    brackets = _brackets(span, frame.ginv) if len(span) > 1 else None
    if brackets is not None:
        resid = float(np.max(np.abs(_reduce(brackets, span))))
        if resid > 1e-6 * np.max(np.abs(span)):
            return HolonomyAlgebraReport(
                len(span), basis, "unrecognized", [], [],
                diagnostics={"reason": "basis not bracket-closed",
                             "residual": resid})
    return _complete(_decide(basis, span, brackets, frame), frame)


def _decide(basis, span: np.ndarray, brackets,
            frame: PointFrame) -> HolonomyAlgebraReport:
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
        cls = classify_bivector(_mixed_to_bivector(one, frame), SPAN_TOL)
        label = {"simple-timelike": "R2", "simple-null": "R3",
                 "simple-spacelike": "R4", "non-simple": "R5"}.get(
                     cls.tag, "unrecognized")
        if label == "R5":
            g_t, h_s = cls.pair
            omega = float(np.sqrt(h_s.theta / -g_t.theta))
    elif dim in (2, 3):
        const = constant_directions(basis, frame)
        chars = [ch for _, ch in const]
        if len(chars) == 1:
            label = _BY_CONSTANT[dim].get(chars[0], "unrecognized")
        elif not chars and dim == 2:
            label = "R7"
        elif not chars:
            got = _r9_r12_discriminant(span, brackets, frame)
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


def _complete(rep: HolonomyAlgebraReport,
              frame: PointFrame) -> HolonomyAlgebraReport:
    """Fill in the probes _decide left as None."""
    if rep.constant is None:
        rep.constant = constant_directions(rep.basis, frame)
    if rep.recurrent is None:
        rep.recurrent = recurrent_directions(rep.basis, frame)
    return rep


# ---------------------------------------------------------------------------
# Survey
# ---------------------------------------------------------------------------

def holonomy_survey(spec: MetricSpec, samples: int = 32, seed: int = 7,
                    derivative_order: int = 1,
                    box=None) -> HolonomySurveyReport:
    """Identify the infinitesimal holonomy algebra over sampled points.

    Each point is closed and labelled in its own frame (the matrices at
    different points are skew-self-adjoint for different g(m), so a naive
    cross-point union of chart components is not an algebra and is not
    attempted); its per-point entry carries the label and dimension only.
    The points are taken one frames_at chunk at a time: the generators,
    their six coordinates and the bracket closure of all the chunk's
    points are computed on its stacked arrays (_generators, _close), bit
    for bit as point by point, and only the labelling is per point.
    The span the closure built is labelled with no input check.
    The representative is the first point of maximal dimension,
    preferring a recognised label, and its label is the survey's; only
    the representative carries constant and recurrent directions, omega
    and diagnostics, as identify_type reports them at that point.
    Disagreeing per-point labels are flagged.
    """
    if derivative_order not in (0, 1, 2):
        raise ValueError("derivative_order must be 0, 1 or 2")
    pts = sample_points(spec, samples, seed=seed, box=box)
    per_point = []
    best = None  # (decision, frame)
    for frames, stack in _frame_chunks(spec, pts, derivative_order + 2):
        gens, _ = _generators([stack[k] for k in ("R", "covR", "cov2R")
                               [:derivative_order + 1]])
        span, pivoted, brackets = _close(_to_six(gens, stack["g"])[0],
                                         stack["ginv"])
        mats = stack["ginv"][:, None] @ antisym_from_six(span)
        for fr, s, m, p, b in zip(frames, span, mats, pivoted, brackets):
            rep = _decide(list(m[p]), s[p], b, fr)
            per_point.append((fr.point, rep.label, rep.dimension))
            if best is None or _better(rep, best[0]):
                best = rep, fr
    labels = {lab for _, lab, _ in per_point}
    mixed = len(labels) > 1
    representative = _complete(*best)
    return HolonomySurveyReport(representative.label, representative,
                                per_point, mixed)


def _better(a: HolonomyAlgebraReport, b: HolonomyAlgebraReport) -> bool:
    if a.dimension != b.dimension:
        return a.dimension > b.dimension
    return b.label == "unrecognized" and a.label != "unrecognized"
