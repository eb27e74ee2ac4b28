"""Exact oracle for Gamma, R, R;e and R;e;f, and for g^-1, det g, Ricci
and Weyl: the tensors are built with sympy from a fixture's expression
strings and evaluated at one dyadic point to 30 digits, sharing no
assembly code with lorhol.pointcalc.  Likewise for the projective
partner g', inverted with sympy's own determinant and adjugate.

sympy is a test-only dependency; without it this module is skipped.
"""
import numpy as np
import pytest

sp = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import (  # noqa: E402
    convert_xor, parse_expr, standard_transformations,
)

from lorhol.exprdsl import to_string  # noqa: E402
from lorhol.fixtures import named_fixture  # noqa: E402
from lorhol.pointcalc import frame_at  # noqa: E402
from lorhol.projective import invert_pair  # noqa: E402

# dyadic, so the float point lorhol sees is the exact one
POINT = (sp.Rational(5, 4), sp.Rational(3, 4), sp.Rational(1, 4),
         sp.Rational(-3, 8))
R4 = range(4)


def _grad(t: dict, x) -> dict:
    """Partial derivatives of the nonzero entries of t, the derivative
    index appended."""
    return {idx + (f,): d for idx, e in t.items() for f in R4
            if (d := sp.diff(e, x[f])) != 0}


def _nabla(t: dict, dt: dict, gam: dict) -> dict:
    """Covariant derivative of the (1, k) tensor t (upper index first),
    the derivative index appended: dt + Gamma^p_fq t^q... - sum over the
    lower slots of Gamma^p_fq t^..p..."""
    out = dict(dt)
    for (p, f, q), gv in gam.items():
        for idx, tv in t.items():
            if idx[0] == q:
                key = (p,) + idx[1:] + (f,)
                out[key] = out.get(key, 0) + gv * tv
            for k in range(1, len(idx)):
                if idx[k] == p:
                    key = idx[:k] + (q,) + idx[k + 1:] + (f,)
                    out[key] = out.get(key, 0) - gv * tv
    return out


def _weyl(g, ginv, riem: dict) -> tuple:
    """(Ricci, C^a_bcd) from 30-digit g, g^-1 and R^a_bcd at a point:
    R_ab = R^c_acb, and the n = 4 Weyl tensor
    C_abcd = R_abcd - 1/2 (g_ac R_bd - g_ad R_bc - g_bc R_ad + g_bd R_ac)
             + R/6 (g_ac g_bd - g_ad g_bc)."""
    ric = sp.Matrix(4, 4, lambda a, b: sum(riem.get((c, a, c, b), 0)
                                           for c in R4))
    scalar = sum(ginv[a, b] * ric[a, b] for a, b in np.ndindex(4, 4))
    low = {}
    for a, b, c, d in np.ndindex(4, 4, 4, 4):
        low[a, b, c, d] = (
            sum(g[a, e] * riem.get((e, b, c, d), 0) for e in R4)
            - (g[a, c] * ric[b, d] - g[a, d] * ric[b, c]
               - g[b, c] * ric[a, d] + g[b, d] * ric[a, c]) / 2
            + scalar / 6 * (g[a, c] * g[b, d] - g[a, d] * g[b, c]))
    weyl = {(a, b, c, d): sum(ginv[a, e] * low[e, b, c, d] for e in R4)
            for a, b, c, d in np.ndindex(4, 4, 4, 4)}
    return ric, weyl


def _exact_tensors(spec) -> dict:
    """Gamma, R, R;e, R;e;f, g^-1, det g, Ricci and Weyl of spec at
    POINT, keyed by their PointFrame attribute, as floats of the 30-digit
    values.  Everything through R;e is symbolic; R;e;f is the covariant
    derivative of the symbolic R;e, and the rest come from the 30-digit
    g and R, at the point."""
    x = sp.symbols(spec.coords)
    local = dict(zip(spec.coords, x), ln=sp.log)
    local.update({p: sp.Rational(spec.params[p])
                  for p in spec.params.names()})
    rules = standard_transformations + (convert_xor,)
    g = sp.Matrix(4, 4, lambda a, b: parse_expr(
        to_string(spec.g[a][b]), local_dict=local, transformations=rules))
    ginv = g.inv()
    gam = {}
    for a, b, c in np.ndindex(4, 4, 4):
        e = sum(ginv[a, d] * (sp.diff(g[d, b], x[c]) + sp.diff(g[d, c], x[b])
                              - sp.diff(g[b, c], x[d])) for d in R4) / 2
        if e != 0:
            gam[a, b, c] = e
    dgam = _grad(gam, x)
    riem = {}
    for a, b, c, d in np.ndindex(4, 4, 4, 4):
        # R^a_bcd = d_c Gamma^a_bd - d_d Gamma^a_bc
        #           + Gamma^a_cm Gamma^m_bd - Gamma^a_dm Gamma^m_bc
        e = (dgam.get((a, b, d, c), 0) - dgam.get((a, b, c, d), 0)
             + sum(gam.get((a, c, m), 0) * gam.get((m, b, d), 0)
                   - gam.get((a, d, m), 0) * gam.get((m, b, c), 0)
                   for m in R4))
        # normalising the entries keeps the next two derivatives small
        # and drops the ones that cancel
        e = sp.together(sp.expand(e))
        if e != 0:
            riem[a, b, c, d] = e
    cov = _nabla(riem, _grad(riem, x), gam)
    at = dict(zip(x, POINT))

    def value(t: dict) -> dict:
        return {k: sp.N(e.xreplace(at), 30) for k, e in t.items()}

    gam_at, riem_at, cov_at = value(gam), value(riem), value(cov)
    cov2_at = _nabla(cov_at, value(_grad(cov, x)), gam_at)
    g_at = g.xreplace(at).evalf(30)
    ginv_at = g_at.inv()
    ric_at, weyl_at = _weyl(g_at, ginv_at, riem_at)

    def array(t: dict, rank: int) -> np.ndarray:
        out = np.zeros((4,) * rank)
        for k, v in t.items():
            out[k] = float(v)
        return out

    return {"gamma": array(gam_at, 3), "riem_ud": array(riem_at, 4),
            "cov_riemann": array(cov_at, 5), "cov2_riemann": array(cov2_at, 6),
            "ginv": np.array(ginv_at, dtype=float),
            "detg": float(g_at.det()),
            "ricci": np.array(ric_at, dtype=float),
            "weyl_ud": array(weyl_at, 4)}


@pytest.mark.parametrize("name", ["r9", "r14", "r11"])
def test_frame_matches_exact_tensors(name):
    spec = named_fixture(name).g
    fr = frame_at(spec, [float(p) for p in POINT])
    for attr, want in _exact_tensors(spec).items():
        got = getattr(fr, attr)
        scale = np.max(np.abs(want))
        assert scale > 0.0, attr
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, attr


@pytest.mark.parametrize("name", ["r9", "r14", "r11"])
def test_partner_matches_exact_inversion(name):
    # g' = s det(g) g adj(a) g / det(a)^2 with sympy's determinant and
    # adjugate, from the fixture's strings, against lorhol's normal form
    # read back through to_string, at POINT to 30 digits
    bundle = named_fixture(name)
    spec = bundle.g
    x = sp.symbols(spec.coords)
    local = dict(zip(spec.coords, x), ln=sp.log)
    local.update({p: sp.Rational(spec.params[p])
                  for p in spec.params.names()})
    rules = standard_transformations + (convert_xor,)
    at = dict(zip(x, POINT))

    def value(m) -> sp.Matrix:
        return sp.Matrix(4, 4, lambda i, j: parse_expr(
            to_string(m[i][j]), local_dict=local,
            transformations=rules).xreplace(at).evalf(40))

    g, a = value(spec.g), value(bundle.pair.a)
    s = sp.sign(a.det() / g.det())
    want = s * g.det() * g * a.adjugate() * g / a.det() ** 2
    got = value(invert_pair(bundle.pair).partner.g)
    scale = max(abs(v) for v in want)
    assert scale > 0
    assert max(abs(v) for v in got - want) <= sp.Float(10) ** -30 * scale
