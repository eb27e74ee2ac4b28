"""Bivectors at a point: duality, classification and the curvature maps.

A bivector is stored in type (2,0) position as an antisymmetric 4x4 array
together with the PointFrame supplying the metric for index moves.  The
6-dimensional space uses the fixed basis order [01, 02, 03, 12, 13, 23].
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .pointcalc import PointFrame

__all__ = [
    "BASIS_PAIRS", "Bivector", "BivectorClass", "CurvatureMap",
    "hodge_dual", "classify_bivector", "curvature_map_matrix",
    "from_six", "to_six", "antisym_from_six", "BASIS_INDEX", "wedge",
    "canonical_span_basis", "svd_rank", "null_basis", "SVD_TOL",
]

BASIS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# the same pairs as (rows, cols) index arrays, np.triu_indices(4, 1)
BASIS_INDEX = tuple(np.array(ix) for ix in zip(*BASIS_PAIRS))
SVD_TOL = 1e-9

# Levi-Civita symbol, epsilon[0,1,2,3] = +1: the parity of each permutation
_LC = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    _LC[_perm] = (-1) ** sum(i > j for i, j in
                             itertools.combinations(_perm, 2))


def svd_rank(a, tol: float = SVD_TOL):
    """Numerical rank of ``a`` with its full SVD: (rank, u, s, vt).

    The rank is the number of singular values above tol * s_max (Golub &
    Van Loan's rule); a zero or empty matrix has rank 0.  Every rank
    decision of the package is made here."""
    u, s, vt = np.linalg.svd(a)
    smax = float(s[0]) if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    return rank, u, s, vt


def null_basis(a, tol: float = SVD_TOL) -> np.ndarray:
    """Canonical basis (see canonical_span_basis) of the numerical null
    space of ``a``: the right singular vectors past svd_rank's rank."""
    rank, _, _, vt = svd_rank(a, tol)
    return canonical_span_basis(vt[rank:], tol)


def canonical_span_basis(vectors, tol: float = SVD_TOL) -> np.ndarray:
    """Deterministic basis of span(rows): reduced row echelon form with
    lexicographic pivoting, pivots scaled to 1.  Shared by every module
    that must return reproducible subspace bases."""
    rows = np.atleast_2d(np.asarray(vectors, dtype=float))
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim > 1 else 0)
    scale = np.abs(rows).max()
    if scale == 0.0:
        return np.empty((0, rows.shape[1]))
    m, n = rows.shape
    # one array: pivot rows stay in place, are reduced like the others and
    # are masked out of the search for the next pivot
    work = rows / scale
    used = np.zeros(m, dtype=bool)
    order = []
    col = 0
    while col < n and len(order) < m:
        pivots = np.abs(work[:, col])
        pivots[used] = -1.0
        i = int(pivots.argmax())
        if pivots[i] > tol:
            row = work[i] / work[i, col]
            work -= work[:, col, None] * row
            work[i] = row
            used[i] = True
            order.append(i)
        col += 1
    if not order:
        return np.empty((0, n))
    arr = work[order]
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
    """The six components F[a, b], a < b in BASIS_PAIRS order, of a
    bivector or of the trailing 4x4 axes of an array."""
    comps = F.comps if isinstance(F, Bivector) else np.asarray(F, float)
    return comps[..., BASIS_INDEX[0], BASIS_INDEX[1]]


def antisym_from_six(six) -> np.ndarray:
    """The antisymmetric 4x4 array with the six components ``six`` (in
    BASIS_PAIRS order) above the diagonal, batched over leading axes."""
    six = np.asarray(six, float)
    w = np.zeros(six.shape[:-1] + (4, 4))
    w[..., BASIS_INDEX[0], BASIS_INDEX[1]] = six
    w[..., BASIS_INDEX[1], BASIS_INDEX[0]] = -six
    return w


def from_six(v, frame: PointFrame) -> Bivector:
    return Bivector(antisym_from_six(v), frame)


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
    causal character of a simple F is the sign of theta = F_ab F^ab,
    null when |theta| is within tol of its Cauchy-Schwarz bound
    |F_ab| |F^ab|.  For a non-simple F the canonical pair (G timelike,
    H spacelike, H proportional to *G) is returned.  Every test compares
    quantities of equal weight in g, so the class is unchanged under
    g -> c g.
    """
    if np.max(np.abs(F.mixed)) <= 1e-14:
        return BivectorClass("zero", 0.0)
    smax = float(np.linalg.svd(F.comps, compute_uv=False)[0])
    theta = F.theta
    if abs(F.pfaffian) <= tol * smax ** 2:
        p, q = _blade_from_svd(F, tol)
        if abs(theta) <= tol * np.linalg.norm(F.lowered) * F.norm():
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
    m = 2.0 * to_six(ruu[BASIS_INDEX])
    rank, u, s, vt = svd_rank(m, tol)
    kern = canonical_span_basis(vt[rank:], tol)
    rng = canonical_span_basis(u[:, :rank].T, tol)
    margin = float(s[rank] / s[0]) if (s[0] > 0 and rank < 6) else 0.0
    return CurvatureMap(
        matrix=m,
        rank=rank,
        kernel=[from_six(v, frame) for v in kern],
        range_=[from_six(v, frame) for v in rng],
        margin=margin,
    )
