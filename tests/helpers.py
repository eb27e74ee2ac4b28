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


def synthetic_class_c(l, x, y) -> PointFrame:
    """Riem = F (x) F + *F (x) *F with F = l^x null: the range is closed
    under *, both bivectors annihilate l, and the class is C."""
    f, fs = biv_low(l, x), biv_low(l, y)
    return PointFrame.synthetic(ETA, np.einsum("ab,cd->abcd", f, f)
                                + np.einsum("ab,cd->abcd", fs, fs))


@lru_cache(maxsize=None)
def lazy_field_frames() -> tuple:
    """The frames on which report fields built on first read are checked
    against the eager calls they replace: two sample points of every
    fixture and of every partner, a synthetic point of class B, C and D,
    and each of them with g -> c g for c = 1e-6 and 1e6."""
    from lorhol.fixtures import FIXTURE_NAMES
    from lorhol.pointcalc import frames_at, sample_points
    l, n, x, y = null_tetrad(random_lorentz(np.random.default_rng(5)))
    frames = [synthetic_class_b(l, n, x, y, 0.7, -1.3),
              synthetic_class_c(l, x, y),
              synthetic_class_d(biv_low(x, y), 0.4)]
    for name in FIXTURE_NAMES:
        for partner in (False, True):
            spec = fixture_spec(name, partner)
            frames += frames_at(spec, sample_points(spec, 2, seed=3))
    return tuple(PointFrame.synthetic(c * fr.g, c * fr.riem_dddd) if c
                 else fr for fr in frames for c in (None, 1e-6, 1e6))


@lru_cache(maxsize=None)
def fixture_spec(name: str, partner: bool = False):
    """A shipped fixture's metric, or the partner derived from its pair."""
    from lorhol.fixtures import named_fixture
    from lorhol.projective import invert_pair
    bundle = named_fixture(name)
    return invert_pair(bundle.pair).partner if partner else bundle.g


@lru_cache(maxsize=None)
def scaled_spec(name: str, c):
    """A shipped fixture's metric times the exact constant c."""
    from dataclasses import replace
    from fractions import Fraction
    from lorhol.exprdsl import const, mul
    spec = fixture_spec(name)
    k = const(Fraction(c))
    return replace(spec, g=tuple(tuple(mul(k, e) for e in row)
                                 for row in spec.g), name=f"{spec.name}*{c}")


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


def three_term_christoffel_rows(g: tuple, coords: tuple) -> tuple:
    """pointcalc._christoffel_rows with every s_dbc = d_b g_dc + d_c g_db
    - d_d g_bc in the three-term form, s_bbb = (d_b g_bb + d_b g_bb) -
    d_b g_bb included: det g, then the 40 Gamma rows."""
    from fractions import Fraction

    from lorhol.exprdsl import (
        Const, add, differentiate, div, mul, sub, sym_cofactor4, sym_det4,
        sym_sum,
    )
    from lorhol.pointcalc import _PAIRS
    det = sym_det4(g)
    dg = [[[differentiate(g[a][b], c) for c in coords] for b in range(4)]
          for a in range(4)]
    r = div(Const(Fraction(1, 2)), det)
    rows = [det]
    for a in range(4):
        adj = [sym_cofactor4(g, a, d) for d in range(4)]
        rows.extend(mul(sym_sum([
            mul(adj[d], sub(add(dg[d][c][b], dg[d][b][c]), dg[b][c][d]))
            for d in range(4)]), r) for b, c in _PAIRS)
    return tuple(rows)


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


def reference_valid_rows(g, dg) -> np.ndarray:
    """The rows of full metric jets g (n, 4, 4) and dg (n, 4, 4, 4), as
    _field_jets gives them, that are finite and whose g passes the
    determinant test of pointcalc: the frame validity test as it read
    full arrays, kept as an oracle for the block-row test."""
    from lorhol.pointcalc import _nondegenerate
    with np.errstate(all="ignore"):
        finite = (np.isfinite(g).all(axis=(1, 2))
                  & np.isfinite(dg).all(axis=(1, 2, 3)))
        return finite & _nondegenerate(np.linalg.det(g),
                                       np.max(np.abs(g), axis=(1, 2)))


def full_array_positions(k: int) -> tuple:
    """(s, w): where the derivative stack's level-k gathers sit in full
    metric jets, as it read them before it read the compiled block.  s
    holds the flat positions of d^Q d_b g_ac, d^Q d_c g_ab and d^Q d_a
    g_bc in d^(k+1) g, laid out (a, Q, bc); w those of d^(Q-r) g_am in
    dg, d2g, ... put one after the other, laid out (a, Q) by the jet row
    (r, m) it multiplies, 0 where r is not in Q.  The row-major formula
    of those positions, kept apart from pointcalc's block layout as an
    oracle for pointcalc._level_tables."""
    from lorhol.pointcalc import _OFF, _PAIRS, _leibniz, _sorted_multi

    def flat(*ix):
        pos = 0
        for i in ix:
            pos = pos * 4 + i
        return pos

    axis = np.arange(4)
    multi = _sorted_multi(k)
    w = np.zeros((4, len(multi), (_OFF[k] - _OFF[0]) // len(_PAIRS)),
                 dtype=np.intp)
    start = np.cumsum([0] + [4 ** (j + 2) for j in range(1, k)])
    digits = [np.array(list(multi))[:, i, None] for i in range(k)]
    a, (b, c) = axis[:, None, None], np.array(_PAIRS).T
    s = np.array([flat(a, c, b, *digits), flat(a, b, c, *digits),
                  flat(b, c, a, *digits)])
    for q, qi in multi.items():
        for col, rest, _ in _leibniz(q, k):
            w[:, qi][:, col] = start[len(rest) - 1] + flat(
                axis[:, None], axis, *rest)
    return s, w


def reference_riemann_stack(jets) -> dict:
    """Gamma^a_bc, R^a_bcd, R^a_bcd;e and R^a_bcd;e;f from batched metric
    jets (g, dg, d2g, d3g[, d4g]) through explicit derivatives of g^ab up
    to the third: the assembly pointcalc used before its stack built the
    jets of Gamma from g_ad Gamma^d_bc = 1/2 s_abc.  Plain einsums, kept
    as an oracle for that stack."""
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
    out = {"gamma": gamma, "R": riem, "covR": covr}
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


def span_basis_loop(vectors, tol=1e-9):
    """canonical_span_basis as it was written for one matrix, pivot by
    pivot with scalar indices: the reference for the stacked RREF."""
    rows = np.atleast_2d(np.asarray(vectors, dtype=float))
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim > 1 else 0)
    scale = np.abs(rows).max()
    if scale == 0.0:
        return np.empty((0, rows.shape[1]))
    m, n = rows.shape
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
    arr[np.abs(arr) <= tol] = 0.0
    return arr


def curvature_map_stack(frame, tol=1e-9):
    """The curvature map of classify_curvature as it was first written,
    reducing its kernel and range as one stack of two: the reference for
    the range-only reduction.  Returns (rank, range bivectors, margin)."""
    from lorhol.bivector import (
        BASIS_INDEX, Bivector, _span_bases, antisym_from_six, svd_rank,
        to_six,
    )
    ruu = np.einsum("be,aecd->abcd", frame.ginv, frame.riem_ud)
    m = 2.0 * to_six(ruu[BASIS_INDEX])
    rank, u, s, vt = svd_rank(m, tol)
    both = np.zeros((2, 6, 6))
    both[0, rank:] = vt[rank:]
    both[1, :rank] = u[:, :rank].T
    basis, pivoted = _span_bases(both, tol)
    margin = float(s[rank] / s[0]) if (s[0] > 0 and rank < 6) else 0.0
    return (rank, [Bivector(w, frame)
                   for w in antisym_from_six(basis[1, pivoted[1]])], margin)


def causal_character_loop(v, g):
    """The causal character of one vector, as holonomy tested it vector
    by vector."""
    norm2 = float(v @ g @ v)
    scale = float(v @ v) * float(np.max(np.abs(g)))
    if abs(norm2) <= 1e-8 * max(scale, 1e-300):
        return "null"
    return "timelike" if norm2 < 0 else "spacelike"


def constant_directions_loop(basis, frame, tol=1e-8):
    """constant_directions as it was written for one point, with the
    per-matrix RREF loop: the reference for the stacked version."""
    if not len(basis):
        return [(np.eye(4)[i], causal_character_loop(np.eye(4)[i], frame.g))
                for i in range(4)]
    stack = np.vstack([np.asarray(m, float)
                       / max(np.max(np.abs(m)), 1e-300) for m in basis])
    _, s, vt = np.linalg.svd(stack)
    smax = float(s[0]) if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    return [(v / np.linalg.norm(v), causal_character_loop(v, frame.g))
            for v in span_basis_loop(vt[rank:], tol)]


def recurrent_directions_loop(basis, frame, tol=1e-8):
    """recurrent_directions as it was written, one eig per combination and
    one candidate against one basis element at a time: the reference for
    the stacked version."""
    if not len(basis):
        return []
    mats = [np.asarray(m, float) / max(np.max(np.abs(m)), 1e-300)
            for m in basis]
    rng = np.random.default_rng(20090629)
    candidates = []
    combos = [np.mean(mats, axis=0)] + list(mats)
    for _ in range(3):
        w = rng.normal(size=len(mats))
        combos.append(sum(c * m for c, m in zip(w, mats)))
    for m in combos:
        vals, vecs = np.linalg.eig(m)
        for i, lam in enumerate(vals):
            if abs(lam.imag) > 1e-8:
                continue
            v = vecs[:, i].real
            nrm = np.linalg.norm(v)
            if nrm < 1e-12:
                continue
            candidates.append(v / nrm)
    found = []
    for v in candidates:
        mus = []
        ok = True
        for m in mats:
            mv = m @ v
            mu = float(v @ mv)
            if np.linalg.norm(mv - mu * v) > tol * max(1.0, np.max(np.abs(m))):
                ok = False
                break
            mus.append(mu)
        if not ok or max(abs(mu) for mu in mus) <= tol:
            continue
        if causal_character_loop(v, frame.g) != "null":
            continue
        k = int(np.argmax(np.abs(v) > 1e-8))
        v = v * np.sign(v[k])
        v[np.abs(v) <= 1e-12] = 0.0
        if not any(np.linalg.norm(v - u) < 1e-6 for u in found):
            found.append(v)
    return found


def bivector_tag_loop(F, tol=1e-9):
    """classify_bivector's tag as it was written for one bivector: the
    reference for the stacked tags."""
    if np.max(np.abs(F.mixed)) <= 1e-14:
        return "zero"
    smax = float(np.linalg.svd(F.comps, compute_uv=False)[0])
    theta = F.theta
    if abs(F.pfaffian) > tol * smax ** 2:
        return "non-simple"
    if abs(theta) <= tol * np.linalg.norm(F.lowered) * F.norm():
        return "simple-null"
    return "simple-timelike" if theta < 0 else "simple-spacelike"


def canonical_pair_eig(F):
    """bivector._canonical_pair as it was written with np.linalg.eig of
    F^a_b: G = mu l^n from the real eigen-directions l (eigenvalue mu >
    0) and n with g(l, n) = 1, and H = F - G.  The independent reference
    for the closed form; raises ValueError unless exactly two real
    nonzero eigenvalues are found."""
    from lorhol.bivector import Bivector
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
    n = n / float(l @ fr.g @ n)
    G = Bivector(mu * (np.outer(l, n) - np.outer(n, l)), fr)
    return G, F - G


def decide_loop(basis, span, brackets, frame):
    """holonomy's _decide as it was written for one point, on the loop
    references above: the reference for the stacked decision.  span is
    the point's RREF rows, brackets their bracket block."""
    from lorhol.bivector import Bivector, _canonical_pair, antisym_from_six
    from lorhol.holonomy import (
        _BY_CONSTANT, SPAN_TOL, HolonomyAlgebraReport, _r9_r12_discriminant,
    )
    diags = {}
    dim = len(span)
    const = recur = omega = None
    label = "unrecognized"
    if dim == 0:
        label = "R1"
    elif dim == 1:
        one = (frame.ginv @ antisym_from_six(span))[0]
        f = Bivector(one @ frame.ginv, frame)
        tag = bivector_tag_loop(f, SPAN_TOL)
        label = {"simple-timelike": "R2", "simple-null": "R3",
                 "simple-spacelike": "R4", "non-simple": "R5"}.get(
                     tag, "unrecognized")
        if label == "R5":
            g_t, h_s = _canonical_pair(f)
            omega = float(np.sqrt(h_s.theta / -g_t.theta))
    elif dim in (2, 3):
        const = constant_directions_loop(basis, frame)
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
        recur = recurrent_directions_loop(basis, frame)
        if recur:
            label = "R14"
        else:
            diags["reason"] = "dim-4 algebra without a null eigen-direction"
    elif dim == 5:
        diags["reason"] = "the Lorentz algebra has no 5-dim subalgebra"
    elif dim == 6:
        label = "R15"
    return HolonomyAlgebraReport(
        dim, list(basis), label, const, recur, omega,
        realizable=(label != "R5"), diagnostics=diags)


def kernel_vectors_gram_schmidt(frame, tol=1e-9):
    """classify_curvature's kernel as it was first written: the
    canonical null basis orthonormalised row by row (Gram-Schmidt).  The
    reference for the RREF kernel."""
    from lorhol.bivector import null_basis
    a = frame.riem_dddd.reshape(64, 4)
    if not np.any(a):
        return np.eye(4)
    out = []
    for row in null_basis(a, tol):
        for prev in out:
            row = row - (row @ prev) * prev
        nrm = np.linalg.norm(row)
        if nrm > 0:
            out.append(row / nrm)
    return np.array(out) if out else np.empty((0, 4))


def solve_theorem1_loop(frame, report, tol=1e-9):
    """curvclass.solve_theorem1 as it was written, given the point's
    classify_curvature report: the canonical null basis of all 256
    components of h_ae R^e_bcd + h_be R^e_acd, one column per unit
    symmetric h, its dimension checked against the class, and the span
    check with class D's plane the blade of *F by SVD.  Returns (basis,
    s), s the system's singular values.  The null basis takes the
    reduced SVD: the full one's 256x256 U, which nothing reads, costs
    most of the call."""
    from dataclasses import replace
    from lorhol.bivector import (
        _blade_from_svd, canonical_span_basis, hodge_dual,
    )
    from lorhol.curvclass import (
        ClassificationError, _check_canonical_span, _sym_from_vec,
    )
    r = frame.riem_ud
    cols = []
    for h in _sym_from_vec(np.eye(10)):
        t = np.einsum("ae,ebcd->abcd", h, r) + np.einsum("be,eacd->abcd", h, r)
        cols.append(t.reshape(-1))
    _, s, vt = np.linalg.svd(np.array(cols).T, full_matrices=False)
    rank = int((s > tol * s[0]).sum())
    basis = _sym_from_vec(canonical_span_basis(vt[rank:], tol))
    expected = {"A": 1, "B": 2, "C": 2, "D": 4, "O": 10}[report.tag]
    if len(basis) != expected:
        raise ClassificationError(
            f"theorem-1 nullspace dim {len(basis)} but class {report.tag} "
            f"predicts {expected}")
    if report.tag == "D":
        plane = _blade_from_svd(hodge_dual(report.simple_f), tol)
        report = replace(report, kernel=np.array(plane))
    _check_canonical_span(frame, report, basis)
    return basis, s
