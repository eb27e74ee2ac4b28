"""Shared fixtures: Minkowski frames, random Lorentz transforms, null
tetrads and synthetic curvature tensors for the classifier oracles."""
from functools import lru_cache

import numpy as np

from lorhol.pointcalc import PointFrame

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def minkowski_frame() -> PointFrame:
    return PointFrame.synthetic(ETA, np.zeros((4, 4, 4, 4)))


def rotation(i: int, j: int, angle: float) -> np.ndarray:
    m = np.eye(4)
    c, s = np.cos(angle), np.sin(angle)
    m[i, i] = m[j, j] = c
    m[i, j], m[j, i] = -s, s
    return m


def boost(axis: int, rapidity: float) -> np.ndarray:
    m = np.eye(4)
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    m[0, 0] = m[axis, axis] = c
    m[0, axis] = m[axis, 0] = s
    return m


def random_lorentz(rng: np.random.Generator) -> np.ndarray:
    """Proper orthochronous Lorentz transform: rotation * boost * rotation."""
    r1 = rotation(1, 2, rng.uniform(0, 2 * np.pi)) @ rotation(2, 3, rng.uniform(0, 2 * np.pi))
    r2 = rotation(1, 3, rng.uniform(0, 2 * np.pi)) @ rotation(1, 2, rng.uniform(0, 2 * np.pi))
    b = boost(rng.integers(1, 4), rng.uniform(-1.0, 1.0))
    lam = r1 @ b @ r2
    assert np.max(np.abs(lam.T @ ETA @ lam - ETA)) < 1e-12
    return lam


def null_tetrad(transform: np.ndarray | None = None):
    """Null tetrad (l, n, x, y) with l.n = x.x = y.y = 1 in eta; optionally
    pushed forward by a Lorentz transform."""
    u = np.array([1.0, 0.0, 0.0, 0.0])
    ex = np.array([0.0, 1.0, 0.0, 0.0])
    ey = np.array([0.0, 0.0, 1.0, 0.0])
    ez = np.array([0.0, 0.0, 0.0, 1.0])
    l = (u + ez) / np.sqrt(2)
    n = (ez - u) / np.sqrt(2)
    if transform is not None:
        l, n, ex, ey = (transform @ v for v in (l, n, ex, ey))
    return l, n, ex, ey


def low(v: np.ndarray) -> np.ndarray:
    return ETA @ v


def biv_low(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(p ^ q)_ab, lowered with eta."""
    pl, ql = low(p), low(q)
    return np.outer(pl, ql) - np.outer(ql, pl)


def synthetic_class_d(F_low: np.ndarray, alpha: float = 1.0) -> PointFrame:
    """Riem = alpha F (x) F, the class-D form for simple F."""
    riem = alpha * np.einsum("ab,cd->abcd", F_low, F_low)
    return PointFrame.synthetic(ETA, riem)


def synthetic_class_b(l, n, x, y, alpha: float = 1.0,
                      beta: float = 1.0) -> PointFrame:
    """Riem = alpha F(x)F + beta *F(x)*F with F = l^n, *F = x^y."""
    f = biv_low(l, n)
    fs = biv_low(x, y)
    riem = (alpha * np.einsum("ab,cd->abcd", f, f)
            + beta * np.einsum("ab,cd->abcd", fs, fs))
    return PointFrame.synthetic(ETA, riem)


@lru_cache(maxsize=None)
def fixture_spec(name: str, partner: bool = False):
    """A shipped fixture's metric, or the partner derived from its pair."""
    from lorhol.fixtures import named_fixture
    from lorhol.projective import invert_pair
    bundle = named_fixture(name)
    return invert_pair(bundle.pair).partner if partner else bundle.g
