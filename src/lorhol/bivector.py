"""Bivectors at a point: duality, classification and the curvature maps.

A bivector is stored in type (2,0) position as an antisymmetric 4x4 array
together with the PointFrame supplying the metric for index moves.  The
6-dimensional space uses the fixed basis order [01, 02, 03, 12, 13, 23].

Every non-null bivector is F = a G + b *G with G simple timelike, G_ab
G^ab = -2, and (a, b) fixed by the invariants theta = F_ab F^ab = 2 (b^2
- a^2) and phi = F_ab *F^ab = 4 a b (Landau & Lifshitz, The Classical
Theory of Fields, sec. 25).  _dual_split computes it in closed form; the
canonical pair of a non-simple bivector, the class-B pair of curvclass
and omega of the holonomy types R5 and R12 all read it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
    """Numerical rank of ``a`` with its SVD: (rank, u, s, vt), of one
    matrix or of each matrix of a stack (..., m, n), then with a rank per
    matrix.  A tall or square matrix (m >= n) gets the reduced SVD, whose
    u is m x n; a wide one the full SVD, so that vt holds every right
    singular vector, the null space's too.

    The rank is the number of singular values above tol * s_max (Golub &
    Van Loan's rule); a zero or empty matrix has rank 0.  Every rank
    decision of the package is made here."""
    a = np.asarray(a, dtype=float)
    u, s, vt = np.linalg.svd(a, full_matrices=a.shape[-2] < a.shape[-1])
    # s is sorted descending: s[..., :1] is s_max, or empty with s
    rank = (s > tol * s[..., :1]).sum(axis=-1)
    return (rank if rank.ndim else int(rank)), u, s, vt


def null_basis(a, tol: float = SVD_TOL) -> np.ndarray:
    """Canonical basis (see canonical_span_basis) of the numerical null
    space of ``a``: the right singular vectors past svd_rank's rank."""
    rank, _, _, vt = svd_rank(a, tol)
    return canonical_span_basis(vt[rank:], tol)


def _null_bases(stack, tol: float = SVD_TOL) -> tuple[np.ndarray, np.ndarray]:
    """null_basis of every matrix of a (B, m, n) stack, as _span_bases
    returns it: the right singular vectors past svd_rank's rank, with
    zero rows standing in for those up to it."""
    rank, _, _, vt = svd_rank(stack, tol)
    past = np.arange(vt.shape[-1]) >= rank[:, None]
    return _span_bases(np.where(past[..., None], vt, 0.0), tol)


def canonical_span_basis(vectors, tol: float = SVD_TOL) -> np.ndarray:
    """Deterministic basis of span(rows): reduced row echelon form with
    lexicographic pivoting, pivots scaled to 1.  Shared by every module
    that must return reproducible subspace bases; the one-matrix call of
    _span_bases."""
    rows = np.atleast_2d(np.asarray(vectors, dtype=float))
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim > 1 else 0)
    basis, pivoted = _span_bases(rows[None], tol)
    return basis[0, pivoted[0]]


def _span_bases(stack, tol: float = SVD_TOL) -> tuple[np.ndarray, np.ndarray]:
    """canonical_span_basis of every matrix of a (B, m, n) stack, indexed
    by pivot column: (B, n, n) rows, row c of matrix b being its RREF row
    with the pivot in column c, or zero if column c has no pivot, and the
    (B, n) mask of the pivot columns.

    Each matrix is scaled by its own largest entry and gets its own
    lexicographic pivots, bit for bit as if it were reduced alone.  A
    row of zeros is never a pivot and changes no other row, so zero rows
    may stand in for rows a caller dropped.
    """
    stack = np.asarray(stack, dtype=float)
    b, m, n = stack.shape
    size = np.abs(stack).max(axis=2, initial=0.0)  # of each row
    # rows not yet pivots; a zero row never is one
    left = int(np.count_nonzero(size))
    if not left:
        return np.zeros((b, n, n)), np.zeros((b, n), dtype=bool)
    # each matrix's n pivot rows, by column, above its m rows: a pivot
    # moves up and leaves zeros, which are never picked again
    work = np.zeros((b, n + m, n))
    work[:, n:] = stack
    scale = size.max(axis=1)  # nonzero for a matrix with a nonzero row
    scale += scale == 0.0  # a zero matrix stays zero, of rank 0
    work /= scale[:, None, None]
    flat = work.reshape(-1, n)
    first = np.arange(n, b * (n + m), n + m)  # each matrix's row 0 in flat
    pivoted = np.zeros((b, n), dtype=bool)
    for col in range(n):
        if not left:
            break
        at = np.abs(work[:, n:, col]).argmax(axis=1) + first
        row = flat.take(at, axis=0)
        act = np.abs(row[:, col]) > tol
        count = int(np.count_nonzero(act))
        if not count:
            continue
        if count < b:
            at, row = at[act], row[act]
        row = row / row[:, col, None]
        flat[at] = 0.0
        if count == b:
            work -= work[:, :, col, None] * row[:, None]
            work[:, col] = row
        else:
            sub = work[act]
            sub -= sub[:, :, col, None] * row[:, None]
            sub[:, col] = row
            work[act] = sub
        pivoted[:, col] = act
        left -= count
    basis = work[:, :n]
    basis[np.abs(basis) <= tol] = 0.0  # sub-pivot noise in skipped columns
    return basis, pivoted


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


def hodge_dual(F: Bivector) -> Bivector:
    """*F with epsilon_{0123} = +sqrt|det g| in the chart's coordinate
    order.  Classification never depends on that sign: the opposite
    orientation's dual is -*F (tested)."""
    fr = F.frame
    eps = np.sqrt(abs(fr.detg)) * _LC
    dual_low = 0.5 * np.einsum("abcd,cd->ab", eps, F.comps)
    dual_up = fr.ginv @ dual_low @ fr.ginv.T
    return Bivector(dual_up, fr)


@dataclass
class BivectorClass:
    """Pointwise algebraic class of a bivector: its tag and theta = F_ab
    F^ab, with the classified F and the tol it was classified at.

    The blade of a simple F (_blade_from_svd) and the canonical pair of
    a non-simple one (_canonical_pair) are built the first time they are
    read, and kept; they are None for the other tags.
    """

    tag: str  # zero | simple-timelike | simple-spacelike | simple-null | non-simple
    theta: float
    bivector: Bivector = field(repr=False)
    tol: float = SVD_TOL

    @property
    def simple(self) -> bool:
        return self.tag.startswith("simple")

    @property
    def blade(self) -> tuple[np.ndarray, np.ndarray] | None:
        return (self._once("_blade", _blade_from_svd, self.bivector, self.tol)
                if self.simple else None)

    @property
    def pair(self) -> tuple[Bivector, Bivector] | None:
        return (self._once("_pair", _canonical_pair, self.bivector)
                if self.tag == "non-simple" else None)

    def _once(self, key: str, build, *args):
        """build(*args), kept under key from its first read on; stored
        with dict.setdefault, so every reader gets the value of whichever
        thread stored first."""
        got = self.__dict__.get(key)
        if got is None:
            got = self.__dict__.setdefault(key, build(*args))
        return got


def _blade_from_svd(F: Bivector, tol: float) -> tuple[np.ndarray, np.ndarray]:
    u, s, _ = np.linalg.svd(F.comps)
    basis = canonical_span_basis(u[:, :2].T, tol)
    return basis[0], basis[1]


def _dual_split(F: Bivector) -> tuple[float, float, Bivector | None]:
    """(a, b, G) with F = a G + b *G, G simple timelike and G_ab G^ab = -2.

    The invariants theta = F_ab F^ab = 2 (b^2 - a^2) and phi = F_ab *F^ab
    = 4 a b fix them: b + i a is the principal square root of (theta + i
    phi) / 2, and G = (a F - b *F) / (a^2 + b^2).  The sign of a and G
    follows the orientation of *; a G and b *G do not.  A null F has
    a = b = 0, and then no G."""
    dual = hodge_dual(F)
    phi = float(np.sum(F.lowered * dual.comps))
    root = np.sqrt(complex(F.theta, phi) / 2)
    a, b = float(root.imag), float(root.real)
    if not (a or b):
        return 0.0, 0.0, None
    return a, b, (F * a - dual * b) * (1.0 / (a * a + b * b))


def _canonical_pair(F: Bivector) -> tuple[Bivector, Bivector]:
    """(a G, F - a G) of _dual_split: the simple timelike and simple
    spacelike parts of a non-simple F, each the other's dual up to a
    factor."""
    a, _, G = _dual_split(F)
    G = G * a
    return G, F - G


def classify_bivector(F: Bivector, tol: float = SVD_TOL) -> BivectorClass:
    """Tag F as zero / simple-{timelike,spacelike,null} / non-simple, the
    one-bivector call of _bivector_tags.  The blade of a simple F and the
    canonical pair (G timelike, H spacelike, H proportional to *G) of a
    non-simple one are built on their first read (see BivectorClass).
    """
    (tag,), theta = _bivector_tags(F.comps[None], F.frame.g[None], tol)
    return BivectorClass(tag, 0.0 if tag == "zero" else float(theta[0]),
                         F, tol)


def _bivector_tags(comps: np.ndarray, g: np.ndarray,
                   tol: float = SVD_TOL) -> tuple[list[str], np.ndarray]:
    """classify_bivector's tag of every bivector of a stack, given as its
    antisymmetric (2,0) components (B, 4, 4) with the metrics (B, 4, 4),
    and each one's theta = F_ab F^ab.

    F is zero when max|F^a_b| <= 1e-14.  The test is absolute: g -> c g
    scales F^a_b by c, so a tiny F can be zero at one scale of g and not
    at another; every caller passes an F built from an RREF row, whose
    pivot is 1.  Otherwise simplicity is the vanishing of the Pfaffian at
    scaled tolerance, and the causal character of a simple F is the sign
    of theta, null when |theta| is within tol of its Cauchy-Schwarz bound
    |F_ab| |F^ab|; these tests compare quantities of equal weight in g.
    """
    b = len(comps)
    # F_ab, F^ab and F^a_b of every bivector as 16 entries each
    flat = np.concatenate([g @ comps @ np.swapaxes(g, 1, 2), comps,
                           comps @ g], axis=1).reshape(b, 3, 16)
    theta = (flat[:, 0] * flat[:, 1]).sum(axis=1)
    norms = np.sqrt(_rowdot(flat[:, :2], flat[:, :2]))  # |F_ab|, |F^ab|
    mixed = np.abs(flat[:, 2]).max(axis=1)
    smax = np.linalg.svd(comps, compute_uv=False)[:, 0]
    tags = []
    # the scalar tests, in Python floats
    for f, t, s, (low, up), big in zip(
            to_six(comps).tolist(), theta.tolist(), smax.tolist(),
            norms.tolist(), mixed.tolist()):
        if big <= 1e-14:
            tags.append("zero")
        elif abs(f[0] * f[5] - f[1] * f[4] + f[2] * f[3]) <= tol * s ** 2:
            tags.append("simple-null" if abs(t) <= tol * low * up else
                        "simple-timelike" if t < 0 else "simple-spacelike")
        else:
            tags.append("non-simple")
    return tags, theta


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes, computed as a 1-D ``a @ b`` is."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@dataclass
class CurvatureMap:
    """The curvature map f~ : F^{ab} -> R^{ab}_{cd} F^{cd}: its rank and
    the canonical basis of its range."""

    rank: int
    range_: list[Bivector]
    margin: float  # smallest discarded singular-value ratio


def curvature_map_matrix(frame: PointFrame) -> CurvatureMap:
    ruu = np.einsum("be,aecd->abcd", frame.ginv, frame.riem_ud)
    m = 2.0 * to_six(ruu[BASIS_INDEX])
    rank, u, s, _ = svd_rank(m, SVD_TOL)
    rng = canonical_span_basis(u[:, :rank].T, SVD_TOL)
    margin = float(s[rank] / s[0]) if (s[0] > 0 and rank < 6) else 0.0
    return CurvatureMap(
        rank=rank,
        range_=[Bivector(w, frame) for w in antisym_from_six(rng)],
        margin=margin,
    )
