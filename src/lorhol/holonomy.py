"""Infinitesimal holonomy: generators, Lie closure and identification
against the fifteen-type subalgebra taxonomy of the Lorentz algebra.

Generators at a point are the matrices R^a_bcd X^c Y^d (plus covariant
derivative contractions at higher order); their bracket closure is a
subalgebra of so(g(m)).  Closure and identification work in the six
components w_ab (a < b) of each matrix's lowered form g.m, so every span
stays inside the 6-dimensional so(1,3).  Identification keys on
dimension, the common annihilated directions with their causal
character, and for the two 3-dimensional types with trivial annihilator
on a Pfaffian discriminant.  The parameter omega of R5 and R12 is |b / a|
of the closed-form split F = a G + b *G of one element
(bivector._dual_split).

One closure (_close) and one decision (_decide), each of which takes a
stack of points at once, serve every caller: a survey passes a frames_at
chunk, identify_type a single point.  Only identify_type checks its
basis (skew, then bracket-closed).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bivector import (
    BASIS_INDEX, Bivector, _bivector_tags, _canonical_pair, _dual_split,
    _null_bases, _rowdot, _span_bases, antisym_from_six,
    canonical_span_basis, to_six,
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
    one-point call of _generators, without the matrices it writes as
    zeros."""
    if derivative_order not in (0, 1, 2):
        raise ValueError("derivative_order must be 0, 1 or 2")
    fr = frame or frame_at(spec, point, 2 + derivative_order)
    tensors = [fr.riem_ud] + [fr.packed(key) for key in
                              ("covR6", "cov2R6")[:derivative_order]]
    gens, kept = _generators([t[None] for t in tensors])
    return list(gens[0, kept[0]])


def _generators(tensors) -> tuple[np.ndarray, np.ndarray]:
    """The generators of every point of a stack, from its R^a_bcd and, as
    the order asks, the derivative stack's packed R^a_bcd;e and
    R^a_bcd;e;f (covR6, cov2R6), each with the points on the leading
    axis: the (B, k, 4, 4) matrices R^a_b[cd](;e(;f)) for c < d, in (c,
    d, e, f) row-major order, and the (B, k) mask of those whose largest
    entry exceeds SPAN_TOL times the largest entry of their own tensor
    (R, R;e or R;e;f) at their point.  A matrix below it is written as
    zeros, which no span counts."""
    r = tensors[0]
    six = [np.moveaxis(r, (1, 2), (-2, -1))[:, BASIS_INDEX[0],
                                              BASIS_INDEX[1]]]
    six += [np.moveaxis(t, -1, 1) for t in tensors[1:]]  # cd first
    blocks = [t.reshape(len(r), -1, 4, 4) for t in six]
    peaks = [np.max(np.abs(b), axis=(2, 3)) for b in blocks]
    kept = np.concatenate([p > SPAN_TOL * p.max(axis=1, keepdims=True)
                           for p in peaks], axis=1)
    gens = np.concatenate(blocks, axis=1)
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

def _characters(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The causal character of each vector of a stack (n, 4) in its
    metric (n, 4, 4): null when |g(v, v)| <= 1e-8 |v|^2 max|g|."""
    norm2 = _rowdot((v[:, None, :] @ g)[:, 0], v)
    scale = _rowdot(v, v) * np.max(np.abs(g), axis=(1, 2))
    null = np.abs(norm2) <= 1e-8 * np.maximum(scale, 1e-300)
    return np.where(null, "null", np.where(norm2 < 0, "timelike",
                                           "spacelike"))


def _unit_scaled(basis: np.ndarray) -> np.ndarray:
    """Each matrix of a (B, k, 4, 4) stack divided by its largest entry."""
    return basis / np.maximum(np.max(np.abs(basis), axis=(2, 3)),
                              1e-300)[..., None, None]


def constant_directions(basis,
                        frame: PointFrame) -> list[tuple[np.ndarray, str]]:
    """Common nullspace of all basis matrices, tagged by causal character;
    these integrate to covariantly constant vector fields.  The one-point
    call of _constant_stack."""
    return _constant_stack(np.reshape(np.asarray(basis, float), (1, -1, 4, 4)),
                           frame.g[None])[0]


def _constant_stack(basis: np.ndarray, g: np.ndarray):
    """constant_directions at every point of a stack: its basis (B, k, 4,
    4), as many elements at every point, and metrics (B, 4, 4).

    The common nullspace is the null_basis of the k matrices, each
    scaled to a unit largest entry, stacked as (4k, 4) rows: one batched
    SVD and RREF for the stack.  An empty basis annihilates every vector,
    and its directions are the coordinate axes."""
    rows, kept = _null_bases(_unit_scaled(basis).reshape(len(basis), -1, 4),
                             SPAN_TOL)
    at = np.nonzero(kept)[0]
    v = rows[kept]
    unit = v / np.sqrt(_rowdot(v, v))[:, None]
    found = [[] for _ in basis]
    for i, u, ch in zip(at.tolist(), unit, _characters(v, g[at]).tolist()):
        found[i].append((u, ch))
    return found


def recurrent_directions(basis, frame: PointFrame) -> list[np.ndarray]:
    """Common eigen-directions of the basis with some nonzero eigenvalue,
    the one-point call of _recurrent_stack.

    Candidates come from real eigenvectors of a few fixed generic
    combinations, then each is verified against every basis element.
    All surviving directions are null (skew-self-adjointness forces it).
    """
    return _recurrent_stack(
        np.reshape(np.asarray(basis, float), (1, -1, 4, 4)), frame.g[None])[0]


def _recurrent_stack(basis: np.ndarray, g: np.ndarray):
    """recurrent_directions at every point of a stack: its basis (B, k, 4,
    4), as many elements at every point, and metrics (B, 4, 4).

    One eig of the 4 + k combinations of every point: their mean, the
    scaled elements and three fixed draws (_combo_weights).  The real
    eigenvectors are the candidates, combination by combination, and
    all of them are verified against their point's elements at once; a
    verified null candidate, signed so that its first entry above 1e-8
    is positive, is kept unless it repeats one kept before it.
    """
    b, k = basis.shape[:2]
    if not k:
        return [[] for _ in range(b)]
    mats = _unit_scaled(basis)
    elems = list(np.moveaxis(mats, 1, 0))  # k arrays (B, 4, 4)
    combos = ([np.mean(mats, axis=1)] + elems
              + [sum(c * m for c, m in zip(w, elems))
                 for w in _combo_weights(k)])
    vals, vecs = np.linalg.eig(np.stack(combos, axis=1))
    # real eigenvectors, point by point and combo by combo, as unit rows;
    # the norms, products and residuals use np.linalg.norm's dot-product
    # arithmetic
    real = np.abs(vals.imag) <= 1e-8
    pt = np.nonzero(real)[0]
    cand = np.swapaxes(vecs.real, 2, 3)[real]
    nrm = np.sqrt(_rowdot(cand, cand))
    big = nrm >= 1e-12
    pt, cand = pt[big], cand[big] / nrm[big, None]
    mv = (mats[pt] @ cand[:, None, :, None])[..., 0]  # (candidate, element, 4)
    mu = _rowdot(cand[:, None, :], mv)  # v is unit
    off = mv - mu[..., None] * cand[:, None, :]
    bound = 1e-8 * np.maximum(1.0, np.max(np.abs(mats), axis=(2, 3)))[pt]
    eigen = (~np.any(np.sqrt(_rowdot(off, off)) > bound, axis=1)
             & (np.max(np.abs(mu), axis=1) > 1e-8))
    pt, v = pt[eigen], cand[eigen]
    # not null is numerically impossible for exact eigen-directions
    null = _characters(v, g[pt]) == "null"
    pt, v = pt[null], v[null]
    lead = np.argmax(np.abs(v) > 1e-8, axis=1)
    u = v * np.sign(v[np.arange(len(v)), lead])[:, None]
    u[np.abs(u) <= 1e-12] = 0.0  # round-off, as +0.0 after the flip
    # keep each point's first candidate left and drop those within 1e-6
    # of it, until none is left: a candidate is kept exactly when it
    # repeats no candidate kept before it
    left = np.ones(len(pt), dtype=bool)
    kept = np.zeros(len(pt), dtype=bool)
    head = np.zeros(b, dtype=int)
    while left.any():
        at = np.flatnonzero(left)
        first = at[np.r_[True, pt[at[1:]] != pt[at[:-1]]]]
        kept[first] = True
        left[first] = False
        head[pt[first]] = first
        at = np.flatnonzero(left)
        d = u[at] - u[head[pt[at]]]
        left[at[np.sqrt(_rowdot(d, d)) < 1e-6]] = False
    found = [[] for _ in range(b)]
    for i in np.flatnonzero(kept).tolist():
        found[pt[i]].append(u[i])
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


def _r9_r12_discriminant(span: np.ndarray, brackets: np.ndarray,
                         frame: PointFrame):
    """For a 3-dim algebra with trivial annihilator: the derived algebra
    (the span of the bracket block) is 2-dim; the Pfaffian of any
    complement representative modulo it is zero for R9 and nonzero for
    R12.  The span and the derived algebra are RREF rows of six
    components.

    R12's derived algebra is {l^x, l^y} for the null l it annihilates,
    and its representative is c (l^n + omega x^y) plus some of it.
    Adding l^x or l^y changes neither invariant of _dual_split, so
    omega = |b / a| of the representative; a != 0, as its Pfaffian is
    not."""
    derived = canonical_span_basis(brackets, SPAN_TOL)
    if len(derived) != 2:
        return None
    # the first span row outside the derived algebra, reduced modulo it
    red = _reduce(span, derived)
    outside = np.max(np.abs(red), axis=1) > 10 * SPAN_TOL
    if not np.any(outside):
        return None
    rep = frame.ginv @ antisym_from_six(red[outside][0])
    w = Bivector(rep @ frame.ginv, frame)
    pf = w.pfaffian
    smax = float(np.linalg.svd(w.comps, compute_uv=False)[0])
    if abs(pf) <= 1e-7 * smax ** 2:
        return ("R9", None)
    # R12's derived algebra annihilates exactly one direction, null
    anns = constant_directions(frame.ginv @ antisym_from_six(derived), frame)
    nulls = [v for v, ch in anns if ch == "null"]
    if len(anns) != 1 or not nulls:
        return None
    a, b, _ = _dual_split(w)
    return ("R12", abs(b / a))


# ---------------------------------------------------------------------------
# Identification
# ---------------------------------------------------------------------------

def identify_type(basis, frame: PointFrame) -> HolonomyAlgebraReport:
    """Identify the span of bivector matrices against the taxonomy; its
    dimension is the span's rank.  The basis must be skew-self-adjoint
    and bracket-closed, tested on the one bracket block _decide reuses.
    Structure that fits no type is labelled "unrecognized" with
    diagnostics instead of guessing."""
    basis = np.reshape(np.asarray(basis, float), (-1, 4, 4))
    six, sym = _to_six(basis, frame.g)
    if np.any(sym > SPAN_TOL):
        return HolonomyAlgebraReport(
            len(basis), list(basis), "unrecognized", [], [],
            diagnostics={"reason": "basis not skew-self-adjoint"})
    span, pivoted = _span_bases(six[None], SPAN_TOL)
    rows = span[0, pivoted[0]]
    brackets = _brackets(rows, frame.ginv) if len(rows) > 1 else None
    if brackets is not None:
        resid = float(np.max(np.abs(_reduce(brackets, rows))))
        if resid > 1e-6 * np.max(np.abs(rows)):
            return HolonomyAlgebraReport(
                len(rows), list(basis), "unrecognized", [], [],
                diagnostics={"reason": "basis not bracket-closed",
                             "residual": resid})
    rep, = _decide([basis], span, pivoted, [brackets], [frame])
    return _complete(rep, frame)


_BY_TAG = {"simple-timelike": "R2", "simple-null": "R3",
           "simple-spacelike": "R4", "non-simple": "R5"}


def _decide(bases, span: np.ndarray, pivoted: np.ndarray, brackets,
            frames) -> list[HolonomyAlgebraReport]:
    """Label the closed algebra at every point of a stack: its basis of
    (1,1) matrices (a (k, 4, 4) array per point), its span as _close
    returns it, RREF rows (B, 6, 6) with the (B, 6) pivot mask, the
    bracket block of those rows per point, and its frame.

    Each label is read from only the probes its dimension's rule reads:
    the bivector class at dimension 1, the constant directions at
    dimensions 2 and 3 (then the R9/R12 discriminant when there are
    none), the recurrent directions at dimension 4.  A probe the rule
    did not read is left as None.  The points are grouped by dimension
    and number of basis elements, so that each group's arrays have the
    shape a point has alone, and every group's probes are computed in
    one stacked call (_bivector_tags, _constant_stack, _recurrent_stack).
    Only the canonical pair of an R5 element and the R9/R12
    discriminant, both rare, are computed point by point, in point order.
    """
    g = np.array([fr.g for fr in frames])
    dims = pivoted.sum(axis=1).tolist()
    labels = [{0: "R1", 6: "R15"}.get(d, "unrecognized") for d in dims]
    const, recur, omega = ([None] * len(dims) for _ in range(3))
    diags = [{} for _ in dims]
    groups: dict = {}
    for i, (d, basis) in enumerate(zip(dims, bases)):
        groups.setdefault((d, len(basis)), []).append(i)
    alone = []  # points that need a per-point step
    for (d, _), at in groups.items():
        at = np.array(at)
        if d == 1:
            # the span's element: a basis element may be zero or nearly so
            ginv = np.array([frames[i].ginv for i in at])
            f = (ginv @ antisym_from_six(span[at][pivoted[at]])) @ ginv
            tags, _ = _bivector_tags(0.5 * (f - np.swapaxes(f, 1, 2)), g[at],
                                     SPAN_TOL)
            for i, fi, tag in zip(at.tolist(), f, tags):
                labels[i] = _BY_TAG.get(tag, "unrecognized")
                if tag == "non-simple":
                    alone.append((i, fi))
        elif d in (2, 3):
            found = _constant_stack(np.array([bases[i] for i in at]), g[at])
            for i, c in zip(at.tolist(), found):
                const[i] = c
                if len(c) == 1:
                    labels[i] = _BY_CONSTANT[d].get(c[0][1], "unrecognized")
                elif not c and d == 2:
                    labels[i] = "R7"
                elif not c:
                    alone.append((i, None))
        elif d == 4:
            found = _recurrent_stack(np.array([bases[i] for i in at]), g[at])
            for i, r in zip(at.tolist(), found):
                recur[i] = r
                if r:
                    labels[i] = "R14"
                else:
                    diags[i]["reason"] = ("dim-4 algebra without a null "
                                          "eigen-direction")
        elif d == 5:
            for i in at.tolist():
                diags[i]["reason"] = ("the Lorentz algebra has no 5-dim "
                                      "subalgebra")
    for i, f in sorted(alone, key=lambda t: t[0]):
        if f is not None:
            g_t, h_s = _canonical_pair(Bivector(f, frames[i]))
            omega[i] = float(np.sqrt(h_s.theta / -g_t.theta))
            continue
        got = _r9_r12_discriminant(span[i, pivoted[i]], brackets[i],
                                   frames[i])
        if got is not None:
            labels[i], omega[i] = got
        else:
            diags[i]["reason"] = "dim-3 discriminant failed"
    return [HolonomyAlgebraReport(
        d, list(basis), label, c, r, w, realizable=(label != "R5"),
        diagnostics=diag) for d, basis, label, c, r, w, diag in zip(
            dims, bases, labels, const, recur, omega, diags)]


def _complete(rep: HolonomyAlgebraReport,
              frame: PointFrame) -> HolonomyAlgebraReport:
    """Fill in the probes _decide left as None, with the one-point calls
    of their stacked cores.  A 6-dim algebra is all of so(1,3), which
    leaves no line invariant: both are empty, with no probe run."""
    if rep.dimension == 6:
        rep.constant, rep.recurrent = [], []
        return rep
    if rep.constant is None:
        rep.constant = constant_directions(rep.basis, frame)
    if rep.recurrent is None:
        rep.recurrent = recurrent_directions(rep.basis, frame)
    return rep


# ---------------------------------------------------------------------------
# Survey
# ---------------------------------------------------------------------------

def holonomy_survey(spec: MetricSpec, samples: int = 32, seed: int = 7,
                    derivative_order: int = 1) -> HolonomySurveyReport:
    """Identify the infinitesimal holonomy algebra over sampled points.

    Each point is closed and labelled in its own frame (the matrices at
    different points are skew-self-adjoint for different g(m), so a naive
    cross-point union of chart components is not an algebra and is not
    attempted); its per-point entry carries the label and dimension only.
    The points are taken one frames_at chunk at a time: the generators,
    their six coordinates, the bracket closure and the labels of all the
    chunk's points are computed on its stacked arrays (_generators,
    _close, _decide), bit for bit as point by point.  The span the
    closure built is labelled with no input check.
    The representative is the first point of maximal dimension,
    preferring a recognised label, and its label is the survey's; only
    the representative carries constant and recurrent directions, omega
    and diagnostics, as identify_type reports them at that point.
    Disagreeing per-point labels are flagged.
    """
    if derivative_order not in (0, 1, 2):
        raise ValueError("derivative_order must be 0, 1 or 2")
    pts = sample_points(spec, samples, seed=seed)
    per_point = []
    best = None  # (decision, frame)
    for frames, stack in _frame_chunks(spec, pts, derivative_order + 2):
        gens, _ = _generators([stack[k] for k in ("R", "covR6", "cov2R6")
                               [:derivative_order + 1]])
        span, pivoted, brackets = _close(_to_six(gens, stack["g"])[0],
                                         stack["ginv"])
        mats = stack["ginv"][:, None] @ antisym_from_six(span)
        reps = _decide([m[p] for m, p in zip(mats, pivoted)], span, pivoted,
                       brackets, frames)
        for fr, rep in zip(frames, reps):
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
