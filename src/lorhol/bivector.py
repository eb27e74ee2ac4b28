"""Bivectors at a point: duality, classification and the curvature maps.

A bivector is stored in type (2,0) position as an antisymmetric 4x4 array
together with the PointFrame supplying the metric for index moves.  The
6-dimensional space uses the fixed basis order [01, 02, 03, 12, 13, 23].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pointcalc import PointFrame

__all__ = [
    "BASIS_PAIRS", "Bivector", "BivectorClass", "CurvatureMap",
    "hodge_dual", "classify_bivector", "curvature_map_matrix",
    "from_six", "to_six", "wedge", "canonical_span_basis", "SVD_TOL",
]

BASIS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SVD_TOL = 1e-9

# Levi-Civita symbol, epsilon[0,1,2,3] = +1
_LC = np.zeros((4, 4, 4, 4))
for _perm, _sign in [
        ((0, 1, 2, 3), 1), ((0, 1, 3, 2), -1), ((0, 2, 1, 3), -1),
        ((0, 2, 3, 1), 1), ((0, 3, 1, 2), 1), ((0, 3, 2, 1), -1),
        ((1, 0, 2, 3), -1), ((1, 0, 3, 2), 1), ((1, 2, 0, 3), 1),
        ((1, 2, 3, 0), -1), ((1, 3, 0, 2), -1), ((1, 3, 2, 0), 1),
        ((2, 0, 1, 3), 1), ((2, 0, 3, 1), -1), ((2, 1, 0, 3), -1),
        ((2, 1, 3, 0), 1), ((2, 3, 0, 1), 1), ((2, 3, 1, 0), -1),
        ((3, 0, 1, 2), -1), ((3, 0, 2, 1), 1), ((3, 1, 0, 2), 1),
        ((3, 1, 2, 0), -1), ((3, 2, 0, 1), -1), ((3, 2, 1, 0), 1)]:
    _LC[_perm] = _sign


def canonical_span_basis(vectors, tol: float = SVD_TOL) -> np.ndarray:
    """Deterministic basis of span(rows): reduced row echelon form with
    lexicographic pivoting, pivots scaled to 1.  Shared by every module
    that must return reproducible subspace bases."""
    rows = np.atleast_2d(np.asarray(vectors, dtype=float)).copy()
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim > 1 else 0)
    scale = np.max(np.abs(rows))
    if scale == 0.0:
        return np.empty((0, rows.shape[1]))
    m, n = rows.shape
    out = []
    col = 0
    work = rows / scale
    while col < n and len(out) < m:
        pivots = np.abs(work[:, col])
        i = int(np.argmax(pivots))
        if pivots[i] > tol:
            row = work[i] / work[i, col]
            work = np.delete(work, i, axis=0)
            work = work - np.outer(work[:, col], row)
            out = [r - r[col] * row for r in out]
            out.append(row)
        col += 1
    if not out:
        return np.empty((0, n))
    arr = np.array(out)
    arr[np.abs(arr) <= tol] = 0.0  # sub-pivot noise in skipped columns
    return arr


@dataclass
class Bivector:
    """Antisymmetric (2,0) tensor at a point with its metric context."""

    comps: np.ndarray
    frame: PointFrame

    def __post_init__(self):
        c = np.asarray(self.comps, dtype=float)
        self.comps = 0.5 * (c - c.T)  # enforce antisymmetry exactly

    @classmethod
    def from_vectors(cls, p, q, frame: PointFrame) -> "Bivector":
        p, q = np.asarray(p, float), np.asarray(q, float)
        return cls(np.outer(p, q) - np.outer(q, p), frame)

    @property
    def lowered(self) -> np.ndarray:
        g = self.frame.g
        return g @ self.comps @ g.T

    @property
    def mixed(self) -> np.ndarray:
        """F^a_b = F^{ac} g_cb, the skew-self-adjoint (1,1) form."""
        return self.comps @ self.frame.g

    @property
    def theta(self) -> float:
        """The scalar F_ab F^ab."""
        return float(np.sum(self.lowered * self.comps))

    @property
    def pfaffian(self) -> float:
        """Coordinate Pfaffian of F^{ab}; zero iff F is simple."""
        f = self.comps
        return float(f[0, 1] * f[2, 3] - f[0, 2] * f[1, 3]
                     + f[0, 3] * f[1, 2])

    def norm(self) -> float:
        return float(np.linalg.norm(self.comps))

    def is_zero(self, tol: float = 1e-12) -> bool:
        return self.norm() <= tol

    def __mul__(self, s: float) -> "Bivector":
        return Bivector(self.comps * float(s), self.frame)

    __rmul__ = __mul__

    def __add__(self, other: "Bivector") -> "Bivector":
        return Bivector(self.comps + other.comps, self.frame)

    def __sub__(self, other: "Bivector") -> "Bivector":
        return Bivector(self.comps - other.comps, self.frame)


def wedge(p, q, frame: PointFrame) -> Bivector:
    return Bivector.from_vectors(p, q, frame)


def to_six(F: Bivector | np.ndarray) -> np.ndarray:
    comps = F.comps if isinstance(F, Bivector) else np.asarray(F, float)
    return np.array([comps[a, b] for a, b in BASIS_PAIRS])


def from_six(v, frame: PointFrame) -> Bivector:
    comps = np.zeros((4, 4))
    for k, (a, b) in enumerate(BASIS_PAIRS):
        comps[a, b] = v[k]
        comps[b, a] = -v[k]
    return Bivector(comps, frame)


def hodge_dual(F: Bivector, orientation: float = 1.0) -> Bivector:
    """*F with epsilon_{0123} = orientation * sqrt|det g| in the chart's
    coordinate order.  Classification never depends on the orientation
    sign (tested)."""
    fr = F.frame
    eps = orientation * np.sqrt(abs(fr.detg)) * _LC
    dual_low = 0.5 * np.einsum("abcd,cd->ab", eps, F.comps)
    dual_up = fr.ginv @ dual_low @ fr.ginv.T
    return Bivector(dual_up, fr)


@dataclass
class BivectorClass:
    """Pointwise algebraic class of a bivector."""

    tag: str  # zero | simple-timelike | simple-spacelike | simple-null | non-simple
    theta: float
    blade: tuple[np.ndarray, np.ndarray] | None = None  # simple case
    pair: tuple[Bivector, Bivector] | None = None  # non-simple canonical (G, H)

    @property
    def simple(self) -> bool:
        return self.tag.startswith("simple")


def _blade_from_svd(F: Bivector, tol: float) -> tuple[np.ndarray, np.ndarray]:
    u, s, _ = np.linalg.svd(F.comps)
    basis = canonical_span_basis(u[:, :2].T, tol)
    return basis[0], basis[1]


def _canonical_pair(F: Bivector, tol: float) -> tuple[Bivector, Bivector]:
    fr = F.frame
    mixed = F.mixed
    scale = max(np.max(np.abs(mixed)), 1e-300)
    vals, vecs = np.linalg.eig(mixed)
    real = [(lam.real, vecs[:, i].real) for i, lam in enumerate(vals)
            if abs(lam.imag) <= 1e-8 * scale and abs(lam.real) > 1e-8 * scale]
    if len(real) != 2:
        raise ValueError("could not isolate the timelike blade "
                         f"(found {len(real)} real eigen-directions)")
    (mu, l), (_, n) = sorted(real, key=lambda t: -t[0])
    ln = float(l @ fr.g @ n)
    n = n / ln
    G = Bivector(mu * (np.outer(l, n) - np.outer(n, l)), fr)
    H = F - G
    return G, H


def classify_bivector(F: Bivector, tol: float = SVD_TOL) -> BivectorClass:
    """Tag F as zero / simple-{timelike,spacelike,null} / non-simple.

    Simplicity is the vanishing of the Pfaffian at scaled tolerance; the
    causal character of a simple F is the sign of theta = F_ab F^ab.
    For a non-simple F the canonical pair (G timelike, H spacelike,
    H proportional to *G) is returned.
    """
    s = np.linalg.svd(F.comps, compute_uv=False)
    smax = float(s[0])
    if smax <= 1e-14 * max(1.0, float(np.max(np.abs(F.frame.g)))):
        return BivectorClass("zero", 0.0)
    theta = F.theta
    gscale = float(np.linalg.norm(F.frame.g, 2) * np.linalg.norm(F.frame.ginv, 2))
    if abs(F.pfaffian) <= tol * smax ** 2:
        p, q = _blade_from_svd(F, tol)
        if abs(theta) <= tol * gscale * smax ** 2:
            tag = "simple-null"
        elif theta < 0:
            tag = "simple-timelike"
        else:
            tag = "simple-spacelike"
        return BivectorClass(tag, theta, blade=(p, q))
    G, H = _canonical_pair(F, tol)
    return BivectorClass("non-simple", theta, pair=(G, H))


@dataclass
class CurvatureMap:
    """Matrix of f~ : F^{ab} -> R^{ab}_{cd} F^{cd} in the fixed basis,
    with rank, kernel and range bases."""

    matrix: np.ndarray  # 6x6
    rank: int
    kernel: list[Bivector]
    range_: list[Bivector]
    margin: float  # smallest discarded singular-value ratio


def curvature_map_matrix(frame: PointFrame, tol: float = SVD_TOL) -> CurvatureMap:
    ruu = np.einsum("be,aecd->abcd", frame.ginv, frame.riem_ud)
    m = np.empty((6, 6))
    for i, (a, b) in enumerate(BASIS_PAIRS):
        for j, (c, d) in enumerate(BASIS_PAIRS):
            m[i, j] = 2.0 * ruu[a, b, c, d]
    u, s, vt = np.linalg.svd(m)
    smax = float(s[0]) if s[0] > 0 else 0.0
    if smax == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > tol * smax))
    kern = canonical_span_basis(vt[rank:], tol) if rank < 6 else np.empty((0, 6))
    rng = canonical_span_basis(u[:, :rank].T, tol) if rank else np.empty((0, 6))
    margin = float(s[rank] / smax) if (smax > 0 and rank < 6) else 0.0
    return CurvatureMap(
        matrix=m,
        rank=rank,
        kernel=[from_six(v, frame) for v in kern],
        range_=[from_six(v, frame) for v in rng],
        margin=margin,
    )
