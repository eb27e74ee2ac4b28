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

from dataclasses import dataclass, field

import numpy as np

from .bivector import (
    BASIS_INDEX, SVD_TOL, Bivector, BivectorClass, _dual_split, _OnFirstRead,
    _span_bases, antisym_from_six, canonical_span_basis, classify_bivector,
    hodge_dual, null_basis, svd_rank, to_six,
)
from .pointcalc import PointFrame

__all__ = [
    "CurvatureClassReport", "ClassificationError", "classify_curvature",
    "solve_theorem1",
]

# the ten components h[a, b], a <= b, of a symmetric 4x4 tensor
_SYM_INDEX = np.triu_indices(4)
# Theorem 1's equation (ab, cd), a <= b, c < d, weighted by the root of
# its count among the 256 (ab/ba, cd/dc): the 60 have the 256's Gram matrix
_SYM_WEIGHT = np.where(_SYM_INDEX[0] < _SYM_INDEX[1], 2.0, np.sqrt(2.0))


class ClassificationError(Exception):
    """Inconsistent kernel/range structure; usually tolerance trouble."""


def _range_bivectors(rows, frame) -> list[Bivector]:
    """The canonical basis of the span of six-component rows, as
    bivectors at the frame's point."""
    return [Bivector(w, frame) for w in antisym_from_six(
        canonical_span_basis(rows, SVD_TOL))]


@dataclass
class CurvatureClassReport:
    """The class at a point, decided from two SVD ranks: kernel_dim is 4
    minus the rank of R_abcd k^d as a 64x4 system, range_dim the rank of
    the curvature map.  kernel, range_basis and direction are built on
    their first read, from the singular vectors kept in factors, as
    null_basis and canonical_span_basis build them; class B's and class
    D's tests read the range while classifying, and give it."""

    tag: str  # A | B | C | D | O
    kernel_dim: int
    range_dim: int  # the curvature map's rank
    margin: float  # smallest discarded singular-value ratio of the map
    simple_f: Bivector | None = None  # class D
    f_class: BivectorClass | None = None  # class D
    dual_pair: tuple[Bivector, Bivector] | None = None  # class B
    # (k, 4) RREF basis of {k : R_abcd k^d = 0}
    kernel: np.ndarray = _OnFirstRead(
        lambda r: canonical_span_basis(r.factors[0], SVD_TOL))
    # canonical basis of the curvature map's range
    range_basis: list[Bivector] = _OnFirstRead(
        lambda r: _range_bivectors(*r.factors[1:]))
    # class C: the kernel row
    direction: np.ndarray | None = _OnFirstRead(
        lambda r: r.kernel[0] if r.tag == "C" else None)
    # (vt[rank:] of the 64x4 system, u[:, :rank].T of the map, the frame)
    factors: tuple = field(default=(), repr=False, compare=False)


def classify_curvature(frame: PointFrame) -> CurvatureClassReport:
    """Decide the curvature class at the frame's point, ranks at SVD_TOL.

    The report's range and margin are those of the curvature map F^ab ->
    R^ab_cd F^cd, the 6x6 matrix 2 R^ab_cd over a < b, c < d.  Class O is
    max|R^a_bcd| < 1e-10, which g -> c g leaves alone.  Only class B's
    and class D's tests reduce the range to its canonical basis here;
    no class reduces its kernel (see CurvatureClassReport).

    Raises ClassificationError when the kernel and range dimensions do not
    fit any class (a sign of tolerance trouble near class boundaries).
    """
    riem = frame.riem_ud
    ruu = np.einsum("be,aecd->abcd", frame.ginv, riem)
    rank, u, s, _ = svd_rank(2.0 * to_six(ruu[BASIS_INDEX]), SVD_TOL)
    margin = float(s[rank] / s[0]) if (s[0] > 0 and rank < 6) else 0.0
    if float(np.max(np.abs(riem))) < 1e-10:
        return CurvatureClassReport("O", 4, 0, margin, kernel=np.eye(4),
                                    range_basis=[])
    krank, _, _, vt = svd_rank(frame.riem_dddd.reshape(64, 4), SVD_TOL)
    kdim = 4 - krank
    factors = (vt[krank:], u[:, :rank].T, frame)
    if kdim == 2:
        if rank != 1:
            raise ClassificationError(
                f"kernel dim 2 with curvature rank {rank} (expected 1); "
                f"margin {margin:.2e}")
        range_ = _range_bivectors(*factors[1:])
        f = range_[0]
        fc = classify_bivector(f, SVD_TOL)
        if not fc.simple:
            raise ClassificationError("class D range bivector is not simple")
        return CurvatureClassReport("D", kdim, rank, margin, simple_f=f,
                                    f_class=fc, range_basis=range_,
                                    factors=factors)
    if kdim == 1:
        if rank not in (2, 3):
            raise ClassificationError(
                f"kernel dim 1 with curvature rank {rank} (expected 2 or 3)")
        return CurvatureClassReport("C", kdim, rank, margin, factors=factors)
    if kdim == 0:
        range_ = _range_bivectors(*factors[1:]) if rank == 2 else None
        pair = _class_b_structure(range_) if range_ else None
        return CurvatureClassReport("A" if pair is None else "B", kdim, rank,
                                    margin, dual_pair=pair,
                                    range_basis=range_, factors=factors)
    raise ClassificationError(
        f"kernel dimension {kdim} fits no curvature class")


def _class_b_structure(range_):
    """Check that the 2-dim range is closed under *, and so spanned by
    its first bivector F and *F; return the (G, *G) of F's _dual_split
    if so, G simple timelike.  A simple-null F gives None: then every
    bivector of the plane is null, and none is timelike."""
    b1, b2 = range_
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
