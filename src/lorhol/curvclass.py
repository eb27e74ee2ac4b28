"""Pointwise curvature classification and the constrained-tensor solver.

The five classes are decided from the kernel of k^d -> R_{abcd} k^d and
the structure of the curvature-map range B_m:

    O  Riem = 0                (kernel dim 4)
    D  kernel dim 2            (B_m = span{F}, F simple)
    C  kernel dim 1            (distinguished direction r)
    B  kernel dim 0, dim B_m = 2, closed under * and not null: spanned
       by a simple timelike bivector G and *G (bivector._dual_split)
    A  everything else with trivial kernel
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bivector import (
    BASIS_INDEX, SVD_TOL, Bivector, BivectorClass, _dual_split, _span_bases,
    canonical_span_basis, classify_bivector, curvature_map_matrix,
    hodge_dual, null_basis, to_six,
)
from .pointcalc import PointFrame

__all__ = [
    "CurvatureClassReport", "ClassificationError", "kernel_vectors",
    "classify_curvature", "solve_theorem1", "riemann_is_zero",
]

# the ten components h[a, b], a <= b, of a symmetric 4x4 tensor
_SYM_INDEX = np.triu_indices(4)
# Theorem 1's equation (ab, cd), a <= b, c < d, weighted by the root of
# its count among the 256 (ab/ba, cd/dc): the 60 have the 256's Gram matrix
_SYM_WEIGHT = np.where(_SYM_INDEX[0] < _SYM_INDEX[1], 2.0, np.sqrt(2.0))


class ClassificationError(Exception):
    """Inconsistent kernel/range structure; usually tolerance trouble."""


@dataclass
class CurvatureClassReport:
    tag: str  # A | B | C | D | O
    kernel: np.ndarray  # (k, 4) RREF basis of {k : R_abcd k^d = 0}
    range_dim: int
    range_basis: list[Bivector]
    margin: float
    simple_f: Bivector | None = None  # class D
    f_class: BivectorClass | None = None  # class D
    direction: np.ndarray | None = None  # class C: the kernel row
    dual_pair: tuple[Bivector, Bivector] | None = None  # class B


def riemann_is_zero(frame: PointFrame) -> bool:
    """max|R^a_bcd| < 1e-10.  R^a_bcd does not change under g -> c g, so
    neither does the answer."""
    return float(np.max(np.abs(frame.riem_ud))) < 1e-10


def kernel_vectors(frame: PointFrame) -> np.ndarray:
    """Canonical RREF basis (null_basis) of the solution space of
    R_{abcd} k^d = 0; the identity where R = 0."""
    a = frame.riem_dddd.reshape(64, 4)
    if not np.any(a):
        return np.eye(4)
    return null_basis(a, SVD_TOL)


def classify_curvature(frame: PointFrame) -> CurvatureClassReport:
    """Decide the curvature class at the frame's point, ranks at SVD_TOL.

    Raises ClassificationError when the kernel and range dimensions do not
    fit any class (a sign of tolerance trouble near class boundaries).
    """
    cm = curvature_map_matrix(frame)
    if riemann_is_zero(frame):
        return CurvatureClassReport("O", np.eye(4), 0, [], cm.margin)
    kern = kernel_vectors(frame)
    kdim = len(kern)
    if kdim == 2:
        if cm.rank != 1:
            raise ClassificationError(
                f"kernel dim 2 with curvature rank {cm.rank} (expected 1); "
                f"margin {cm.margin:.2e}")
        f = cm.range_[0]
        fc = classify_bivector(f, SVD_TOL)
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
            got = _class_b_structure(cm)
            if got is not None:
                return CurvatureClassReport("B", kern, cm.rank, cm.range_,
                                            cm.margin, dual_pair=got)
        return CurvatureClassReport("A", kern, cm.rank, cm.range_, cm.margin)
    raise ClassificationError(
        f"kernel dimension {kdim} fits no curvature class")


def _class_b_structure(cm):
    """Check that the 2-dim range is closed under *, and so spanned by
    its first bivector F and *F; return the (G, *G) of F's _dual_split
    if so, G simple timelike.  A simple-null F gives None: then every
    bivector of the plane is null, and none is timelike."""
    b1, b2 = cm.range_
    span = canonical_span_basis([to_six(b1), to_six(b2)], SVD_TOL)

    def in_range(F):
        aug = canonical_span_basis(np.vstack([span, to_six(F)]), 1e-8)
        return len(aug) == 2

    if not (in_range(hodge_dual(b1)) and in_range(hodge_dual(b2))):
        return None
    if classify_bivector(b1, 1e-8).tag == "simple-null":
        return None
    _, _, G = _dual_split(b1)
    return G, hodge_dual(G)


def solve_theorem1(frame: PointFrame):
    """Solution space of h_ae R^e_bcd + h_be R^e_acd = 0 over symmetric h,
    solved on its 60 independent equations (see _SYM_WEIGHT).

    Returns (basis, report): basis is a (k, 4, 4) array of symmetric
    tensors, RREF in the components a <= b; the dimension is checked
    against the class (A:1, B:2, C:2, D:4) and membership of the
    canonical span is verified.
    """
    report = classify_curvature(frame)
    # h X + (h X)^T, X = R^e_b[cd], for each unit h and c < d
    hx = np.einsum("iae,ebk->ikab", _sym_from_vec(np.eye(10)),
                   frame.riem_ud[:, :, BASIS_INDEX[0], BASIS_INDEX[1]])
    eqs = _sym_to_vec(hx + hx.swapaxes(-1, -2)) * _SYM_WEIGHT
    basis = _sym_from_vec(null_basis(eqs.reshape(10, 60).T, SVD_TOL))
    expected = {"A": 1, "B": 2, "C": 2, "D": 4, "O": 10}[report.tag]
    if len(basis) != expected:
        raise ClassificationError(
            f"theorem-1 nullspace dim {len(basis)} but class {report.tag} "
            f"predicts {expected}")
    _check_canonical_span(frame, report, basis)
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


def _check_canonical_span(frame, report, basis):
    """Raise ClassificationError unless every solution lies in the
    class's canonical span; class D's eigen-plane, the blade of *F, is
    the kernel."""
    g = frame.g
    span_mats = [g]
    if report.tag == "D":
        pl, ql = (g @ k for k in report.kernel)
        span_mats = [g, np.outer(pl, pl), np.outer(ql, ql),
                     np.outer(pl, ql) + np.outer(ql, pl)]
    elif report.tag == "C":
        # unit r: the span's pivot tolerance is relative to its largest entry
        rl = g @ (report.direction / np.linalg.norm(report.direction))
        span_mats = [g, np.outer(rl, rl)]
    elif report.tag == "B":
        f, _ = report.dual_pair
        fl = f.lowered  # alpha (l_a n_b - n_a l_b)
        sym = fl @ frame.ginv @ fl  # proportional to l_a n_b + n_a l_b
        span_mats = [g, 0.5 * (sym + sym.T)]
    elif report.tag == "O":
        return
    span = canonical_span_basis(_sym_to_vec(np.array(span_mats)), SVD_TOL)
    # the span with each solution below it, reduced as one stack
    aug = np.concatenate([np.broadcast_to(span, (len(basis),) + span.shape),
                          _sym_to_vec(basis)[:, None]], axis=1)
    if np.any(_span_bases(aug, 1e-7)[1].sum(axis=1) != len(span)):
        raise ClassificationError(f"theorem-1 solution escapes the "
                                  f"canonical class-{report.tag} span")
