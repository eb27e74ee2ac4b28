"""Closed-form fixture families with their Sinyukov data and expected
projective partners, used as regression oracles throughout the suite.

Three families:

* waveband   2 du dv + u^2 h(x,y) (dx^2+dy^2)       (null constant direction)
* cylinder   e1 dt^2 + e2 dz^2 + z^2 h(x,y)(dx,dy)  (non-null constant dir.)
* appendix   2 du dv + b(u) sqrt(v) du^2 + u^2 e^f (dx^2+dy^2)

plus flat Minkowski space as the trivial baseline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprdsl import Expr, add, differentiate, eval_expr, parse_expr
from .pointcalc import MetricSpec, metric_spec
from .projective import SinyukovPair

__all__ = [
    "FixtureBundle", "fixture_r11", "fixture_r10_r13", "fixture_r9_r14",
    "fixture_minkowski", "named_fixture", "FIXTURE_NAMES", "H_CATALOG",
]

# conformal factors exp(f) for the 2d sector; Delta f == 0 makes the
# corresponding 2-metric flat
H_CATALOG = {
    "delta": "0",
    "exp_xy": "x*y",
    "exp_x2_y2": "x^2 + y^2",
}

_HARMONIC = {"delta": True, "exp_xy": True, "exp_x2_y2": False}


@dataclass(frozen=True)
class FixtureBundle:
    name: str
    g: MetricSpec
    pair: SinyukovPair
    expected_chi: Expr
    expected_partner: MetricSpec
    expected_class: str
    expected_theta_sign: int | None
    expected_holonomy: tuple[str, ...]

    @property
    def spec(self) -> MetricSpec:
        return self.g


def fixture_r11(c: float = 1.0, e1: float = 0.3, e2: float = 0.1,
                h_choice: str = "exp_x2_y2") -> FixtureBundle:
    """2 du dv + u^2 h (dx^2+dy^2) with its quadratic Sinyukov tensor.

    The conformal factor must make the 2d sector non-flat (harmonic
    exponents give a flat metric here and are rejected).
    """
    if h_choice not in H_CATALOG:
        raise ValueError(f"unknown h choice {h_choice!r}")
    if _HARMONIC[h_choice]:
        raise ValueError(
            f"h choice {h_choice!r} yields a flat metric for this family")
    coords = ("u", "v", "x", "y")
    params = {"c": float(c), "e1": float(e1), "e2": float(e2)}
    f = H_CATALOG[h_choice]
    sector = f"u^2*exp({f})"
    bracket = "(1 + 2*c*u*v + 2*e1*u + (e1^2 - c*e2)*u^2)"
    box = ((0.5, 2.0), (0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0))
    g = metric_spec(coords,
                    [["0"], ["1", "0"], ["0", "0", sector],
                     ["0", "0", "0", sector]],
                    params, constraints=["u", bracket], sample_box=box,
                    name=f"waveband-{h_choice}")
    names = tuple(params)
    a = [["c*v^2 + 2*e1*v + e2"],
         ["1 + e1*u + c*u*v", "c*u^2"],
         ["0", "0", sector],
         ["0", "0", "0", sector]]
    a_full = metric_spec(coords, a, params).g
    lam = tuple(parse_expr(s, coords, names)
                for s in ("c*v + e1", "c*u", "0", "0"))
    pair = SinyukovPair(g, a_full, lam)

    chi = parse_expr(f"-1/2*ln({bracket})", coords, names)
    fexpr = f"(1/{bracket})"
    beta = "(c*v^2 + 2*e1*v + e2)"
    cross = "(u*(c*v + e1 + (e1^2 - c*e2)*u))"
    gp = metric_spec(coords,
                     [[f"-{fexpr}^2*{beta}"],
                      [f"{fexpr} - {fexpr}^2*{cross}", f"-{fexpr}^2*c*u^2"],
                      ["0", "0", f"{fexpr}*{sector}"],
                      ["0", "0", "0", f"{fexpr}*{sector}"]],
                     params, constraints=["u", bracket], sample_box=box,
                     name=f"waveband-{h_choice}-partner")
    return FixtureBundle(f"waveband-{h_choice}", g, pair, chi, gp,
                         expected_class="D", expected_theta_sign=1,
                         expected_holonomy=("R3", "R8", "R11"))


def fixture_r10_r13(eps1: int, eps2: int, c: float = 1.0, c2: float = 0.0,
                    c3: float = 0.2,
                    h_choice: str = "delta") -> FixtureBundle:
    """eps1 dt^2 + eps2 dz^2 + z^2 h (dx^2+dy^2) and its Sinyukov data.

    eps1 = -1, eps2 = +1 is the timelike-constant-direction context;
    eps1 = +1 the spacelike one.  When both signs are +1 the 2d sector
    carries the Lorentz signature instead: h -> diag(-e^f, e^f).
    """
    if eps1 not in (-1, 1) or eps2 not in (-1, 1):
        raise ValueError("eps signs must be +-1")
    if (eps1, eps2) == (-1, -1):
        raise ValueError("two timelike directions cannot give a Lorentz metric")
    if eps1 == -1 and eps2 != 1:
        raise ValueError("the timelike-direction context requires eps2 = +1")
    if h_choice not in H_CATALOG:
        raise ValueError(f"unknown h choice {h_choice!r}")
    coords = ("t", "z", "x", "y")
    params = {"c": float(c), "c2": float(c2), "c3": float(c3)}
    names = tuple(params)
    f = H_CATALOG[h_choice]
    lorentz_sector = (eps1 == 1 and eps2 == 1)
    sx = f"-z^2*exp({f})" if lorentz_sector else f"z^2*exp({f})"
    sy = f"z^2*exp({f})"
    e1s, e2s = str(eps1), str(eps2)
    poly_t = "(c*t^2 + 2*c2*t + c3)"
    disc = "(c*c3 - c2^2)"
    bracket = (f"(1 + ({e2s})*(c + ({e1s})*{disc})*z^2"
               f" + ({e1s})*{poly_t})")
    # keep the bracket (the reciprocal conformal factor of g') safely
    # positive on the whole box so partner frames stay well-conditioned
    if eps1 == -1:
        box = ((-0.5, 0.5), (0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0))
    else:
        box = ((0.5, 2.0), (0.5, 1.25), (-1.0, 1.0), (-1.0, 1.0))
    g = metric_spec(coords,
                    [[e1s], ["0", e2s], ["0", "0", sx], ["0", "0", "0", sy]],
                    params, constraints=["z", bracket], sample_box=box,
                    name=f"cylinder-{eps1}-{eps2}")
    a = [[f"({e1s}) + {poly_t}"],
         [f"(c*t + c2)*z*({e1s})*({e2s})", f"({e2s}) + c*z^2"],
         ["0", "0", sx],
         ["0", "0", "0", sy]]
    a_full = metric_spec(coords, a, params).g
    lam = tuple(parse_expr(s, coords, names) for s in
                (f"(c*t + c2)*({e1s})", f"c*z*({e2s})", "0", "0"))
    pair = SinyukovPair(g, a_full, lam)

    chi = parse_expr(f"-1/2*ln({bracket})", coords, names)
    fexpr = f"(1/{bracket})"
    gp = metric_spec(
        coords,
        [[f"{fexpr}*({e1s}) - {fexpr}^2*({poly_t} + ({e2s})*{disc}*z^2)"],
         [f"-{fexpr}^2*({e1s})*({e2s})*(c*t + c2)*z",
          f"{fexpr}*({e2s}) - {fexpr}^2*(c + ({e1s})*{disc})*z^2"],
         ["0", "0", f"{fexpr}*{sx}"],
         ["0", "0", "0", f"{fexpr}*{sy}"]],
        params, constraints=["z", bracket], sample_box=box,
        name=f"cylinder-{eps1}-{eps2}-partner")
    labels = ("R4", "R13") if eps1 == -1 else ("R4", "R6", "R10")
    return FixtureBundle(f"cylinder-{eps1}-{eps2}", g, pair, chi, gp,
                         expected_class="D", expected_theta_sign=None,
                         expected_holonomy=labels)


def fixture_r9_r14(b: str = "1 + u^2", f: str = "x*y", phi: float = 1.0,
                   xi: float = 0.5) -> FixtureBundle:
    """2 du dv + b(u) sqrt(v) du^2 + u^2 e^f (dx^2+dy^2), v > 0, with the
    one-parameter Sinyukov deformation a = phi(g + 2 xi u du dv + ...)."""
    if phi <= 0:
        raise ValueError("phi must be positive")
    coords = ("u", "v", "x", "y")
    params = {"phi": float(phi), "xi": float(xi)}
    names = tuple(params)
    box = ((0.5, 2.0), (0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0))
    for u_end in (box[0][0], box[0][1]):
        if 1.0 + xi * u_end <= 0.0:
            raise ValueError("1 + xi*u must stay positive on the sample box")
    sector = f"u^2*exp({f})"
    buv = f"({b})*sqrt(v)"
    g = metric_spec(coords,
                    [[buv], ["1", "0"], ["0", "0", sector],
                     ["0", "0", "0", sector]],
                    params, constraints=["v", "u", "1 + xi*u"],
                    sample_box=box, name="appendix")
    a = [[f"phi*({buv} + xi*(2*v + u*({b})*sqrt(v)))"],
         ["phi*(1 + xi*u)", "0"],
         ["0", "0", f"phi*{sector}"],
         ["0", "0", "0", f"phi*{sector}"]]
    a_full = metric_spec(coords, a, params).g
    pair = SinyukovPair(g, a_full, None)  # lambda from the trace gradient

    # chi = 1/2 ln(kappa^4 (1+xi u)^-2), kappa = 1/phi
    chi = parse_expr("1/2*ln(phi^-4*(1 + xi*u)^-2)", coords, names)
    fexpr = "(phi^-4*(1 + xi*u)^-2)"
    kf = f"(phi^-1*{fexpr})"  # kappa * F
    k3f2 = f"(phi^3*{fexpr}^2)"  # kappa^-3 F^2
    gp = metric_spec(
        coords,
        [[f"{kf}*{buv} - {k3f2}*xi*(u*(1 + xi*u)*({b})*sqrt(v) + 2*v)"],
         [f"{kf} - {k3f2}*xi*u*(1 + xi*u)", "0"],
         ["0", "0", f"{kf}*{sector}"],
         ["0", "0", "0", f"{kf}*{sector}"]],
        params, constraints=["v", "u", "1 + xi*u"], sample_box=box,
        name="appendix-partner")

    b_zero = _vanishes(parse_expr(b, coords, names), coords, params, box, 0)
    f_expr = parse_expr(f, coords, names)
    laplacian = add(differentiate(differentiate(f_expr, "x"), "x"),
                    differentiate(differentiate(f_expr, "y"), "y"))
    harmonic = _vanishes(laplacian, coords, params, box, 1)
    if b_zero:
        expected_class, labels, theta = "D", ("R3", "R8", "R11"), 1
    else:
        expected_class, theta = "A", None
        labels = ("R9",) if harmonic else ("R14",)
    return FixtureBundle("appendix", g, pair, chi, gp, expected_class,
                         theta, labels)


def fixture_minkowski() -> FixtureBundle:
    coords = ("t", "x", "y", "z")
    g = metric_spec(coords,
                    [["-1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]],
                    sample_box=((-1.0, 1.0),) * 4, name="minkowski")
    a_full = g.g
    lam = tuple(parse_expr("0", coords, ()) for _ in range(4))
    chi = parse_expr("0", coords, ())
    return FixtureBundle("minkowski", g, SinyukovPair(g, a_full, lam), chi,
                         g.with_name("minkowski-partner"),
                         expected_class="O", expected_theta_sign=None,
                         expected_holonomy=("R1",))


def _vanishes(e: Expr, coords, params, box, seed: int) -> bool:
    """|e| < 1e-12 at 20 points drawn uniformly from the box."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = rng.uniform(lo, hi, size=(20, 4))
    return all(abs(eval_expr(e, p, coords, params)) < 1e-12 for p in pts)


FIXTURE_NAMES = ("minkowski", "r11", "r10", "r13", "r9", "r14", "r9-b0")


def named_fixture(name: str) -> FixtureBundle:
    """Shipped default-parameter bundles, one per paper family/context."""
    if name == "minkowski":
        return fixture_minkowski()
    if name == "r11":
        return fixture_r11(c=1.0, e1=0.3, e2=0.1, h_choice="exp_x2_y2")
    if name == "r10":
        return fixture_r10_r13(1, -1, c=0.5, c2=0.1, c3=0.0)
    if name == "r13":
        return fixture_r10_r13(-1, 1, c=1.0, c2=0.0, c3=0.2)
    if name == "r9":
        return fixture_r9_r14(b="1 + u^2", f="x*y", phi=2.0, xi=0.25)
    if name == "r14":
        return fixture_r9_r14(b="1 + u^2", f="x^2", phi=2.0, xi=0.25)
    if name == "r9-b0":
        return fixture_r9_r14(b="0", f="x^2 + y^2", phi=1.0, xi=0.5)
    raise ValueError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
