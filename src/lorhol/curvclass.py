"""Pointwise curvature classification and the constrained-tensor solver.

The five classes are decided from the kernel of k^d -> R_{abcd} k^d and
the structure of the curvature-map range B_m:

    O  Riem = 0                (kernel dim 4)
    D  kernel dim 2            (B_m = span{F}, F simple)
    C  kernel dim 1            (distinguished direction r)
    B  kernel dim 0, dim B_m = 2 spanned by a simple timelike bivector
       and its dual
    A  everything else with trivial kernel
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bivector import (
    SVD_TOL, Bivector, BivectorClass, canonical_span_basis,
    classify_bivector, curvature_map_matrix, hodge_dual, null_basis,
    svd_rank, to_six,
)
from .pointcalc import PointFrame

__all__ = [
    "CurvatureClassReport", "ClassificationError", "kernel_vectors",
    "classify_curvature", "solve_theorem1", "riemann_is_zero",
]

# the ten components h[a, b], a <= b, of a symmetric 4x4 tensor
_SYM_INDEX = np.triu_indices(4)


class ClassificationError(Exception):
    """Inconsistent kernel/range structure; usually tolerance trouble."""


@dataclass
class CurvatureClassReport:
    tag: str  # A | B | C | D | O
    kernel: np.ndarray  # (k, 4) basis of {k : R_abcd k^d = 0}
    range_dim: int
    range_basis: list[Bivector]
    margin: float
    simple_f: Bivector | None = None  # class D
    f_class: BivectorClass | None = None  # class D
    direction: np.ndarray | None = None  # class C
    dual_pair: tuple[Bivector, Bivector] | None = None  # class B
    diagnostics: dict = field(default_factory=dict)


def riemann_is_zero(frame: PointFrame) -> bool:
    rmax = float(np.max(np.abs(frame.riem_dddd)))
    gmax = float(np.max(np.abs(frame.g)))
    return rmax < 1e-10 * max(1.0, gmax * gmax * rmax)


def kernel_vectors(frame: PointFrame, tol: float = SVD_TOL) -> np.ndarray:
    """Orthonormal basis of the solution space of R_{abcd} k^d = 0."""
    a = frame.riem_dddd.reshape(64, 4)
    if not np.any(a):
        return np.eye(4)
    basis = null_basis(a, tol)
    # orthonormalise the canonical rows (Gram-Schmidt keeps determinism)
    out = []
    for row in basis:
        for prev in out:
            row = row - (row @ prev) * prev
        nrm = np.linalg.norm(row)
        if nrm > 0:
            out.append(row / nrm)
    return np.array(out) if out else np.empty((0, 4))


def _simple_elements_in_plane(b1: Bivector, b2: Bivector):
    """Simple bivectors in span{b1, b2}: projective roots of the Pfaffian
    quadratic pf(alpha b1 + beta b2)."""
    def pf(F):
        return F.pfaffian

    p11, p22 = pf(b1), pf(b2)
    p12 = 0.5 * (pf(b1 + b2) - p11 - p22)
    scale = max(abs(p11), abs(p22), abs(p12), 1e-300)
    cands = []
    if abs(p11) / scale < 1e-9 and abs(p22) / scale < 1e-9 \
            and abs(p12) / scale < 1e-9:
        return [b1, b2, b1 + b2]  # whole plane simple
    # roots of p11 t^2 + 2 p12 t + p22 = 0 with F = t b1 + b2, plus t = inf
    if abs(p11) / scale < 1e-9:
        cands.append(b1)
        if abs(p12) / scale > 1e-9:
            cands.append(b1 * (-p22 / (2 * p12)) + b2)
    else:
        disc = p12 * p12 - p11 * p22
        if disc >= -1e-12 * scale * scale:
            r = np.sqrt(max(disc, 0.0))
            for t in ((-p12 + r) / p11, (-p12 - r) / p11):
                cands.append(b1 * t + b2)
    if abs(p22) / scale < 1e-9:
        cands.append(b2)
    return cands


def classify_curvature(frame: PointFrame,
                       tol: float = SVD_TOL) -> CurvatureClassReport:
    """Decide the curvature class at the frame's point.

    Raises ClassificationError when the kernel and range dimensions do not
    fit any class (a sign of tolerance trouble near class boundaries).
    """
    cm = curvature_map_matrix(frame, tol)
    if riemann_is_zero(frame):
        return CurvatureClassReport("O", np.eye(4), 0, [], cm.margin)
    kern = kernel_vectors(frame, tol)
    kdim = len(kern)
    if kdim == 2:
        if cm.rank != 1:
            raise ClassificationError(
                f"kernel dim 2 with curvature rank {cm.rank} (expected 1); "
                f"margin {cm.margin:.2e}")
        f = cm.range_[0]
        fc = classify_bivector(f, tol)
        if not fc.simple:
            raise ClassificationError("class D range bivector is not simple")
        return CurvatureClassReport("D", kern, cm.rank, cm.range_, cm.margin,
                                    simple_f=f, f_class=fc)
    if kdim == 1:
        if cm.rank not in (2, 3):
            raise ClassificationError(
                f"kernel dim 1 with curvature rank {cm.rank} (expected 2 or 3)")
        return CurvatureClassReport("C", kern, cm.rank, cm.range_, cm.margin,
                                    direction=kern[0])
    if kdim == 0:
        if cm.rank == 2:
            got = _class_b_structure(frame, cm, tol)
            if got is not None:
                return CurvatureClassReport("B", kern, cm.rank, cm.range_,
                                            cm.margin, dual_pair=got)
        return CurvatureClassReport("A", kern, cm.rank, cm.range_, cm.margin)
    raise ClassificationError(
        f"kernel dimension {kdim} fits no curvature class")


def _class_b_structure(frame, cm, tol):
    """Check that the 2-dim range is spanned by a simple timelike bivector
    together with its dual; return the (F, *F) pair if so."""
    b1, b2 = cm.range_
    span = canonical_span_basis([to_six(b1), to_six(b2)], tol)

    def in_range(F):
        aug = canonical_span_basis(
            np.vstack([span, to_six(F)]), max(tol, 1e-8))
        return len(aug) == 2

    if not (in_range(hodge_dual(b1)) and in_range(hodge_dual(b2))):
        return None
    for cand in _simple_elements_in_plane(b1, b2):
        if cand.norm() == 0:
            continue
        cls = classify_bivector(cand, max(tol, 1e-8))
        if cls.tag == "simple-timelike" and in_range(hodge_dual(cand)):
            return cand, hodge_dual(cand)
    return None


def solve_theorem1(frame: PointFrame, tol: float = SVD_TOL):
    """Solution space of h_ae R^e_bcd + h_be R^e_acd = 0 over symmetric h.

    Returns (basis, report): basis is a (k, 4, 4) array of symmetric
    tensors; the dimension is checked against the classified class
    (A:1, B:2, C:2, D:4) and membership of the canonical span is verified.
    """
    r = frame.riem_ud
    cols = []
    for h in _sym_from_vec(np.eye(10)):
        t = np.einsum("ae,ebcd->abcd", h, r) + np.einsum("be,eacd->abcd", h, r)
        cols.append(t.reshape(-1))
    a = np.array(cols).T  # 256 x 10 (rows beyond the 60 independent are dupes)
    basis = _sym_from_vec(null_basis(a, tol))

    report = classify_curvature(frame, tol)
    expected = {"A": 1, "B": 2, "C": 2, "D": 4, "O": 10}[report.tag]
    if len(basis) != expected:
        raise ClassificationError(
            f"theorem-1 nullspace dim {len(basis)} but class {report.tag} "
            f"predicts {expected}")
    _check_canonical_span(frame, report, basis, tol)
    return basis, report


def _sym_from_vec(v):
    """The symmetric 4x4 tensor of each row of ten components."""
    v = np.asarray(v, float)
    h = np.zeros(v.shape[:-1] + (4, 4))
    h[..., _SYM_INDEX[0], _SYM_INDEX[1]] = v
    h[..., _SYM_INDEX[1], _SYM_INDEX[0]] = v
    return h


def _sym_to_vec(h):
    return h[..., _SYM_INDEX[0], _SYM_INDEX[1]]


def _check_canonical_span(frame, report, basis, tol):
    g = frame.g
    span_mats = [g]
    if report.tag == "D":
        u, v = report.f_class.blade  # blade of F
        # the eigen-2-space is the blade of *F: take the g-orthogonal
        # complement of the blade of F
        comp = _orthogonal_complement(frame, np.array([u, v]))
        p, q = comp
        pl, ql = g @ p, g @ q
        span_mats = [g, np.outer(pl, pl), np.outer(ql, ql),
                     np.outer(pl, ql) + np.outer(ql, pl)]
    elif report.tag == "C":
        rl = g @ report.direction
        span_mats = [g, np.outer(rl, rl)]
    elif report.tag == "B":
        f, _ = report.dual_pair
        fl = f.lowered  # alpha (l_a n_b - n_a l_b)
        sym = fl @ frame.ginv @ fl  # proportional to l_a n_b + n_a l_b
        span_mats = [g, 0.5 * (sym + sym.T)]
    elif report.tag == "O":
        return
    span = canonical_span_basis(_sym_to_vec(np.array(span_mats)), tol)
    for h in basis:
        aug = canonical_span_basis(np.vstack([span, _sym_to_vec(h)]),
                                   max(tol, 1e-7))
        if len(aug) != len(span):
            raise ClassificationError(
                f"theorem-1 solution escapes the canonical class-"
                f"{report.tag} span")


def _orthogonal_complement(frame, vectors):
    """g-orthogonal complement of the span of the given vectors."""
    a = vectors @ frame.g  # rows: v_a = g(v, .)
    rank, _, _, vt = svd_rank(a, 1e-10)
    return canonical_span_basis(vt[rank:])
