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


@lru_cache(maxsize=None)
def raw_partner(name: str):
    """The partner of a shipped fixture as the raw adjugate formula that
    invert_pair normalises: g'_ab = s det g B_ab / (det a)^2 with
    B = g adj(a) g, under the base's constraints and s det a / det g,
    where s is the sign of det a / det g at a sample point."""
    from lorhol.exprdsl import (
        const, div, mul, sym_adjugate4, sym_det4, sym_sum,
    )
    from lorhol.fixtures import named_fixture
    from lorhol.pointcalc import MetricSpec, eval_field_batch, sample_points
    pair = named_fixture(name).pair
    spec = pair.base
    point = sample_points(spec, 1)
    det = [np.linalg.det(eval_field_batch(spec, m, point)[0])
           for m in (pair.a, spec.g)]
    sgn = const(1 if det[0] / det[1] > 0 else -1)
    deta, detg = sym_det4(pair.a), sym_det4(spec.g)
    adja = sym_adjugate4(pair.a)
    gp = [[div(mul(mul(sgn, detg), sym_sum([
        mul(spec.g[i][c], mul(adja[c][d], spec.g[d][j]))
        for c in range(4) for d in range(4)])), mul(deta, deta))
        for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(i):
            gp[i][j] = gp[j][i]
    return MetricSpec(spec.coords, tuple(map(tuple, gp)), spec.params,
                      spec.constraints + (div(mul(sgn, deta), detg),),
                      spec.sample_box, name=f"{spec.name}-raw-partner")


def narrowed(g):
    """g with one more domain constraint, x0 < lo + 0.65 (hi - lo) on its
    first coordinate x0 with sample-box range [lo, hi]: the same metric
    on a smaller domain, so a second metric that truncates trajectories
    where the first one does not."""
    from lorhol.exprdsl import const, coord, sub
    from lorhol.pointcalc import MetricSpec
    lo, hi = g.sample_box[0]
    plane = sub(const(lo + 0.65 * (hi - lo)), coord(g.coords[0]))
    return MetricSpec(g.coords, g.g, g.params, g.constraints + (plane,),
                      g.sample_box, name=f"{g.name}-narrow")


def reference_riemann_stack(jets) -> dict:
    """R^a_bcd, R^a_bcd;e and R^a_bcd;e;f from batched metric jets (g, dg,
    d2g, d3g[, d4g]) through explicit derivatives of g^ab up to the third:
    the assembly pointcalc used before its stack built the derivatives of
    Gamma from g_ad Gamma^d_bc = 1/2 s_abc.  Plain einsums, kept as an
    oracle for that stack."""
    g, dg, d2g, d3g = jets[:4]
    ginv = np.linalg.inv(g)
    s = dg.transpose(0, 1, 3, 2) + dg - dg.transpose(0, 3, 1, 2)
    gamma = 0.5 * np.einsum("nad,ndbc->nabc", ginv, s)
    ds = d2g.transpose(0, 1, 3, 2, 4) + d2g - d2g.transpose(0, 3, 1, 2, 4)
    dginv = -np.einsum("nam,nbp,nmpe->nabe", ginv, ginv, dg)
    dgamma = 0.5 * (np.einsum("nade,ndbc->nabce", dginv, s)
                    + np.einsum("nad,ndbce->nabce", ginv, ds))
    riem = (dgamma.transpose(0, 1, 2, 4, 3) - dgamma
            + np.einsum("nace,nebd->nabcd", gamma, gamma)
            - np.einsum("nade,nebc->nabcd", gamma, gamma))

    d2s = (d3g.transpose(0, 1, 3, 2, 4, 5) + d3g
           - d3g.transpose(0, 3, 1, 2, 4, 5))
    d2ginv = -(np.einsum("namf,nbp,nmpe->nabef", dginv, ginv, dg)
               + np.einsum("nam,nbpf,nmpe->nabef", ginv, dginv, dg)
               + np.einsum("nam,nbp,nmpef->nabef", ginv, ginv, d2g))
    d2gamma = 0.5 * (np.einsum("nadef,ndbc->nabcef", d2ginv, s)
                     + np.einsum("nade,ndbcf->nabcef", dginv, ds)
                     + np.einsum("nadf,ndbce->nabcef", dginv, ds)
                     + np.einsum("nad,ndbcef->nabcef", ginv, d2s))
    driem = (d2gamma.transpose(0, 1, 2, 4, 3, 5)
             - d2gamma
             + np.einsum("nacme,nmbd->nabcde", dgamma, gamma)
             + np.einsum("nacm,nmbde->nabcde", gamma, dgamma)
             - np.einsum("nadme,nmbc->nabcde", dgamma, gamma)
             - np.einsum("nadm,nmbce->nabcde", gamma, dgamma))
    covr = (driem
            + np.einsum("naem,nmbcd->nabcde", gamma, riem)
            - np.einsum("nmeb,namcd->nabcde", gamma, riem)
            - np.einsum("nmec,nabmd->nabcde", gamma, riem)
            - np.einsum("nmed,nabcm->nabcde", gamma, riem))
    out = {"R": riem, "covR": covr}
    if len(jets) < 5:
        return out

    d4g = jets[4]
    d3s = (d4g.transpose(0, 1, 3, 2, 4, 5, 6) + d4g
           - d4g.transpose(0, 3, 1, 2, 4, 5, 6))
    d3ginv = -(np.einsum("namfh,nbp,nmpe->nabefh", d2ginv, ginv, dg)
               + np.einsum("namf,nbph,nmpe->nabefh", dginv, dginv, dg)
               + np.einsum("namf,nbp,nmpeh->nabefh", dginv, ginv, d2g)
               + np.einsum("namh,nbpf,nmpe->nabefh", dginv, dginv, dg)
               + np.einsum("nam,nbpfh,nmpe->nabefh", ginv, d2ginv, dg)
               + np.einsum("nam,nbpf,nmpeh->nabefh", ginv, dginv, d2g)
               + np.einsum("namh,nbp,nmpef->nabefh", dginv, ginv, d2g)
               + np.einsum("nam,nbph,nmpef->nabefh", ginv, dginv, d2g)
               + np.einsum("nam,nbp,nmpefh->nabefh", ginv, ginv, d3g))
    d3gamma = 0.5 * (np.einsum("nadefh,ndbc->nabcefh", d3ginv, s)
                     + np.einsum("nadef,ndbch->nabcefh", d2ginv, ds)
                     + np.einsum("nadeh,ndbcf->nabcefh", d2ginv, ds)
                     + np.einsum("nade,ndbcfh->nabcefh", dginv, d2s)
                     + np.einsum("nadfh,ndbce->nabcefh", d2ginv, ds)
                     + np.einsum("nadf,ndbceh->nabcefh", dginv, d2s)
                     + np.einsum("nadh,ndbcef->nabcefh", dginv, d2s)
                     + np.einsum("nad,ndbcefh->nabcefh", ginv, d3s))
    d2riem = (d3gamma.transpose(0, 1, 2, 4, 3, 5, 6)
              - d3gamma
              + np.einsum("nacmef,nmbd->nabcdef", d2gamma, gamma)
              + np.einsum("nacme,nmbdf->nabcdef", dgamma, dgamma)
              + np.einsum("nacmf,nmbde->nabcdef", dgamma, dgamma)
              + np.einsum("nacm,nmbdef->nabcdef", gamma, d2gamma)
              - np.einsum("nadmef,nmbc->nabcdef", d2gamma, gamma)
              - np.einsum("nadme,nmbcf->nabcdef", dgamma, dgamma)
              - np.einsum("nadmf,nmbce->nabcdef", dgamma, dgamma)
              - np.einsum("nadm,nmbcef->nabcdef", gamma, d2gamma))
    dcovr = (d2riem
             + np.einsum("naemf,nmbcd->nabcdef", dgamma, riem)
             + np.einsum("naem,nmbcdf->nabcdef", gamma, driem)
             - np.einsum("nmebf,namcd->nabcdef", dgamma, riem)
             - np.einsum("nmeb,namcdf->nabcdef", gamma, driem)
             - np.einsum("nmecf,nabmd->nabcdef", dgamma, riem)
             - np.einsum("nmec,nabmdf->nabcdef", gamma, driem)
             - np.einsum("nmedf,nabcm->nabcdef", dgamma, riem)
             - np.einsum("nmed,nabcmf->nabcdef", gamma, driem))
    out["cov2R"] = (dcovr
                    + np.einsum("nafm,nmbcde->nabcdef", gamma, covr)
                    - np.einsum("nmfb,namcde->nabcdef", gamma, covr)
                    - np.einsum("nmfc,nabmde->nabcdef", gamma, covr)
                    - np.einsum("nmfd,nabcme->nabcdef", gamma, covr)
                    - np.einsum("nmfe,nabcdm->nabcdef", gamma, covr))
    return out
