import math
import warnings

import numpy as np
import pytest
from helpers import fixture_spec, narrowed, raw_partner

from lorhol.exprdsl import count_lines, eval_expr, parse_expr
from lorhol.fixtures import (
    FIXTURE_NAMES, fixture_minkowski, fixture_r9_r14, named_fixture,
)
from lorhol.pointcalc import (
    _jet_levels, admissible_mask, eval_field_batch, frame_at, metric_spec,
    sample_points,
)
from lorhol import projective
from lorhol.projective import (
    _BLOCK_ROWS, InversionError, SinyukovPair, curvature_relation_residual, invert_pair,
    lambda_from_trace, lemma1_checks, pregeodesic_check, projective_residual,
    psi_from_connections, sinyukov_residual, weyl_projective_at,
    weyl_projective_equal,
)


@pytest.fixture(scope="module")
def waveband():
    return named_fixture("r11")


@pytest.fixture(scope="module")
def appendix():
    return named_fixture("r9")


def pts_for(bundle, n=20, seed=7):
    return sample_points(bundle.g, n, seed=seed)


class TestLambdaFromTrace:
    def test_a_equals_g_gives_zero(self):
        b = fixture_minkowski()
        lam = lambda_from_trace(SinyukovPair(b.g, b.g.g, None))
        pts = pts_for(b, 5)
        vals = eval_field_batch(b.g, lam, pts)
        assert np.max(np.abs(vals)) == 0.0

    def test_waveband_matches_paper_closed_form(self, waveband):
        # lambda = (c v + e1) du + c u dv for the quadratic Sinyukov tensor
        lam = lambda_from_trace(
            SinyukovPair(waveband.g, waveband.pair.a, None))
        pts = pts_for(waveband, 10)
        got = eval_field_batch(waveband.g, lam, pts)
        want = eval_field_batch(waveband.g, waveband.pair.lam, pts)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_appendix_trace_lambda_closes_residual(self, appendix):
        pair = SinyukovPair(appendix.g, appendix.pair.a, None)
        assert sinyukov_residual(pair, pts_for(appendix, 100)) < 1e-12


class TestSinyukovResidual:
    def test_fixture_residuals(self, waveband, appendix):
        assert sinyukov_residual(waveband.pair, pts_for(waveband, 30)) < 1e-9
        assert sinyukov_residual(appendix.pair, pts_for(appendix, 30)) < 1e-9

    def test_trivial_pair_zero(self):
        b = fixture_minkowski()
        assert sinyukov_residual(b.pair, pts_for(b, 5)) == 0.0

    def test_scaling_invariance(self, waveband):
        # a -> k a, lambda -> k lambda leaves the normalised residual alone
        k = parse_expr("3", waveband.g.coords)
        from lorhol.exprdsl import mul
        a2 = tuple(tuple(mul(k, e) for e in row) for row in waveband.pair.a)
        lam2 = tuple(mul(k, e) for e in waveband.pair.lam)
        pair2 = SinyukovPair(waveband.g, a2, lam2)
        pts = pts_for(waveband, 20)
        r1 = sinyukov_residual(waveband.pair, pts)
        r2 = sinyukov_residual(pair2, pts)
        assert abs(r1 - r2) < 1e-12

    def test_broken_pair_is_loud(self, waveband):
        lam2 = tuple(parse_expr(s, waveband.g.coords, ("c", "e1", "e2"))
                     for s in ("c*v + e1 + 1/10", "c*u", "0", "0"))
        pair2 = SinyukovPair(waveband.g, waveband.pair.a, lam2)
        assert sinyukov_residual(pair2, pts_for(waveband, 20)) > 1e-3


class TestInvertPair:
    def test_identity_pair(self):
        b = fixture_minkowski()
        pp = invert_pair(b.pair, pts_for(b, 10))
        pts = pts_for(b, 10)
        assert np.max(np.abs(eval_field_batch(b.g, pp.psi, pts))) < 1e-14
        chi_vals = [eval_expr(pp.chi, p, b.g.coords, b.g.params) for p in pts]
        assert np.max(np.abs(chi_vals)) < 1e-14
        gp = eval_field_batch(b.g, pp.partner.g, pts)
        g = eval_field_batch(b.g, b.g.g, pts)
        assert np.max(np.abs(gp - g)) < 1e-14

    def test_constant_conformal_pair(self):
        # a = phi g, lambda = 0  =>  chi = -2 ln phi and g' = phi^-5 g
        b = fixture_minkowski()
        phi = 1.7
        coords = b.g.coords
        spec = metric_spec(coords,
                           [["-1"], ["0", "1"], ["0", "0", "1"],
                            ["0", "0", "0", "1"]],
                           params={"phi": phi}, sample_box=b.g.sample_box)
        a = tuple(tuple(parse_expr(f"phi*({e})", coords, ("phi",))
                        for e in row)
                  for row in (("-1", "0", "0", "0"), ("0", "1", "0", "0"),
                              ("0", "0", "1", "0"), ("0", "0", "0", "1")))
        pair = SinyukovPair(spec, a, tuple(parse_expr("0", coords)
                                           for _ in range(4)))
        pts = pts_for(b, 5)
        pp = invert_pair(pair, pts)
        chi = eval_expr(pp.chi, pts[0], coords, spec.params)
        assert chi == pytest.approx(-2 * np.log(phi), rel=1e-12)
        gp = eval_field_batch(spec, pp.partner.g, pts)
        g = eval_field_batch(spec, spec.g, pts)
        assert np.max(np.abs(gp - phi ** -5 * g)) < 1e-12

    def test_appendix_reproduces_expected_closed_forms(self, appendix):
        pts = pts_for(appendix, 50)
        pp = invert_pair(appendix.pair, pts)
        chi_got = np.array([eval_expr(pp.chi, p, appendix.g.coords,
                                      appendix.g.params) for p in pts])
        chi_want = np.array([eval_expr(appendix.expected_chi, p,
                                       appendix.g.coords, appendix.g.params)
                             for p in pts])
        assert np.max(np.abs(chi_got - chi_want)) < 1e-9
        gp_got = eval_field_batch(appendix.g, pp.partner.g, pts)
        gp_want = eval_field_batch(appendix.g, appendix.expected_partner.g, pts)
        scale = np.max(np.abs(gp_want))
        assert np.max(np.abs(gp_got - gp_want)) < 1e-8 * scale

    def test_forward_map_round_trip(self, appendix):
        # Sinyukov forward map: a_ab = e^{2 chi} g'^{cd} g_ac g_bd and
        # lambda_a = -a_ab psi^b must reproduce the input pair
        pts = pts_for(appendix, 20)
        pp = invert_pair(appendix.pair, pts)
        chi_vals = np.array([eval_expr(pp.chi, p, appendix.g.coords,
                                       appendix.g.params) for p in pts])
        gp = eval_field_batch(appendix.g, pp.partner.g, pts)
        g = eval_field_batch(appendix.g, appendix.g.g, pts)
        a_want = eval_field_batch(appendix.g, appendix.pair.a, pts)
        gp_up = np.linalg.inv(gp)
        a_got = np.exp(2 * chi_vals)[:, None, None] * np.einsum(
            "ncd,nac,nbd->nab", gp_up, g, g)
        assert np.max(np.abs(a_got - a_want)) < 1e-9 * np.max(np.abs(a_want))
        lam_want = eval_field_batch(appendix.g, appendix.pair.lam_exprs(),
                                      pts)
        psi_vals = eval_field_batch(appendix.g, pp.psi, pts)
        psi_up = np.einsum("nbc,nc->nb", np.linalg.inv(g), psi_vals)
        lam_got = -np.einsum("nab,nb->na", a_got, psi_up)
        scale = max(1.0, float(np.max(np.abs(lam_want))))
        assert np.max(np.abs(lam_got - lam_want)) < 1e-9 * scale

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_normal_form_keeps_the_raw_domain(self, name):
        # on the sample box enlarged 1.5x about its centre, and on the
        # coordinate planes through some of those points (where bases the
        # normal form cancels, such as u and z, vanish), the normalised
        # partner is admissible exactly where the raw adjugate formula is
        # finite and its constraints hold
        gp, raw = fixture_spec(name, True), raw_partner(name)
        lo, hi = np.array(gp.sample_box).T
        mid, half = (lo + hi) / 2, 0.75 * (hi - lo)
        pts = np.random.default_rng(3).uniform(mid - half, mid + half,
                                               size=(400, 4))
        planes = np.repeat(pts[:50], 4, axis=0)
        planes[np.arange(200), np.tile(np.arange(4), 50)] = 0.0
        pts = np.concatenate([pts, planes])
        values = eval_field_batch(raw, raw.g, pts)
        want = np.isfinite(values).all(axis=(1, 2)) & admissible_mask(raw, pts)
        assert admissible_mask(gp, pts).tolist() == want.tolist()

    def test_cancelled_denominator_stays_a_constraint(self):
        # g_xx = x/x is 1 but where x = 0; the normal form cancels x, so
        # the partner keeps x^2 > 0 and is not admissible on x = 0
        coords = ("t", "x", "y", "z")
        g = metric_spec(coords, [["-1"], ["0", "x/x"], ["0", "0", "1"],
                                 ["0", "0", "0", "1"]],
                        sample_box=((-1.0, 1.0),) * 4)
        a = metric_spec(coords, [["-2"], ["0", "2*x/x"], ["0", "0", "2"],
                                 ["0", "0", "0", "2"]]).g
        zero = parse_expr("0", coords)
        partner = invert_pair(SinyukovPair(g, a, (zero,) * 4)).partner
        assert partner.g[1][1] is parse_expr("1/32", coords)
        assert partner.constraints[-1] is parse_expr("x^2", coords)
        pts = np.array([[0.1, 0.0, 0.2, 0.3], [0.1, 0.5, 0.2, 0.3]])
        assert admissible_mask(partner, pts).tolist() == [False, True]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_partner_program_near_the_closed_form(self, name):
        # the order-4 jet program (what `holonomy --order 2` compiles) of
        # the derived partner against the paper's closed form
        lines = [count_lines([e for level in _jet_levels(s.g, s.coords, 4)
                              for e in level.values()])
                 for s in (fixture_spec(name, True),
                           named_fixture(name).expected_partner)]
        assert lines[0] <= 2.5 * lines[1]

    def test_g_is_read_from_the_metric_program(self, waveband, monkeypatch):
        # g's values come from the order-0 jet program that carries the
        # domain constraints, which the admissibility checks run anyway:
        # no program of g's ten entries alone is asked for
        from lorhol import pointcalc
        asked = []
        jet_program = pointcalc._jet_program

        def spy(comps, coords, pnames, order, extra=()):
            asked.append((comps, extra))
            return jet_program(comps, coords, pnames, order, extra)

        monkeypatch.setattr(pointcalc, "_jet_program", spy)
        invert_pair(waveband.pair)
        sinyukov_residual(waveband.pair, pts_for(waveband, 5))
        assert asked  # the field programs pass the spy
        assert (waveband.g.g, ()) not in asked

    def test_bad_pair_rejected(self, waveband):
        lam2 = tuple(parse_expr(s, waveband.g.coords, ("c", "e1", "e2"))
                     for s in ("c*v + e1 + 1/10", "c*u", "0", "0"))
        pair2 = SinyukovPair(waveband.g, waveband.pair.a, lam2)
        with pytest.raises(InversionError):
            invert_pair(pair2, pts_for(waveband, 10))

    def test_degenerate_a_rejected(self, waveband):
        zero = parse_expr("0", waveband.g.coords)
        a2 = tuple(tuple(zero for _ in range(4)) for _ in range(4))
        with pytest.raises(InversionError):
            invert_pair(SinyukovPair(waveband.g, a2,
                                     waveband.pair.lam),
                        pts_for(waveband, 5))


class TestPsiFromConnections:
    def test_same_metric_zero(self):
        b = fixture_minkowski()
        psi = psi_from_connections(b.g, b.g, pts_for(b, 5))
        assert np.max(np.abs(psi)) == 0.0

    @pytest.mark.parametrize("name", ["r11", "r10", "r13", "r9", "r9-b0"])
    def test_matches_symbolic_psi_on_every_fixture(self, name):
        bundle = named_fixture(name)
        pts = pts_for(bundle, 20)
        pp = invert_pair(bundle.pair, pts)
        got = psi_from_connections(bundle.g, pp.partner, pts)
        want = eval_field_batch(bundle.g, pp.psi, pts)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_constant_conformal_gives_zero(self):
        b = fixture_minkowski()
        coords = b.g.coords
        gp = metric_spec(coords,
                         [["-7/10"], ["0", "7/10"], ["0", "0", "7/10"],
                          ["0", "0", "0", "7/10"]],
                         sample_box=b.g.sample_box)
        psi = psi_from_connections(b.g, gp, pts_for(b, 5))
        assert np.max(np.abs(psi)) == 0.0


class TestProjectiveResidual:
    def test_fixture_pairs_close(self, waveband, appendix):
        for bundle in (waveband, appendix):
            pts = pts_for(bundle, 30)
            pp = invert_pair(bundle.pair, pts)
            assert projective_residual(bundle.g, pp.partner, pp.psi,
                                       pts) < 1e-8

    def test_identity_zero(self):
        b = fixture_minkowski()
        zero = tuple(parse_expr("0", b.g.coords) for _ in range(4))
        assert projective_residual(b.g, b.g, zero, pts_for(b, 5)) == 0.0

    def test_perturbed_psi_negative_control(self, appendix):
        pts = pts_for(appendix, 20)
        pp = invert_pair(appendix.pair, pts)
        from lorhol.exprdsl import add, const
        psi_bad = (add(pp.psi[0], const("1/10")),) + pp.psi[1:]
        assert projective_residual(appendix.g, pp.partner, psi_bad,
                                   pts) > 1e-3


class TestCurvatureRelation:
    def test_fixture_pair(self, appendix):
        pts = pts_for(appendix, 10)
        pp = invert_pair(appendix.pair, pts)
        r14, ric = curvature_relation_residual(appendix.g, pp.partner,
                                               pp.psi, pts)
        assert r14 < 1e-8 and ric < 1e-8

    def test_identity(self):
        b = fixture_minkowski()
        zero = tuple(parse_expr("0", b.g.coords) for _ in range(4))
        r14, ric = curvature_relation_residual(b.g, b.g, zero, pts_for(b, 3))
        assert r14 == 0.0 and ric == 0.0

    def test_nan_psi_gives_nan_residuals(self, appendix):
        # ln(x - 5) is NaN on the whole sample box; a running max(0.0, nan)
        # would read 0.0, a pass
        nan = parse_expr("ln(x - 5)", appendix.g.coords)
        zero = parse_expr("0", appendix.g.coords)
        r14, ric = curvature_relation_residual(
            appendix.g, appendix.g, (nan, zero, zero, zero),
            pts_for(appendix, 3))
        assert math.isnan(r14) and math.isnan(ric)

    def test_ricci_corollary_is_the_contraction(self):
        # delta^a_d psi_bc - delta^a_c psi_bd contracted over (a, c)
        # equals -3 psi_bd for any symmetric psi
        rng = np.random.default_rng(3)
        p = rng.normal(size=(4, 4))
        p = 0.5 * (p + p.T)
        delta = np.eye(4)
        t = (np.einsum("ad,bc->abcd", delta, p)
             - np.einsum("ac,bd->abcd", delta, p))
        contracted = np.einsum("abad->bd", t)
        assert np.max(np.abs(contracted + 3 * p)) < 1e-12


class TestWeylProjective:
    def test_flat_zero(self):
        b = fixture_minkowski()
        w = weyl_projective_at(frame_at(b.g, (0, 0, 0, 0)))
        assert np.max(np.abs(w)) == 0.0

    def test_fixture_pairs_equal(self, waveband, appendix):
        for bundle in (waveband, appendix):
            pts = pts_for(bundle, 10)
            pp = invert_pair(bundle.pair, pts)
            assert weyl_projective_equal(bundle.g, pp.partner, pts) < 1e-8

    def test_trace_free_in_first_pair(self, appendix):
        for pt in pts_for(appendix, 5):
            w = weyl_projective_at(frame_at(appendix.g, pt))
            assert np.max(np.abs(np.einsum("abad->bd", w))) < 1e-10


class TestLemma1:
    def test_waveband_recovers_c(self, waveband):
        c, ra, rb, rc = lemma1_checks(waveband.g, waveband.pair,
                                      pts_for(waveband, 20))
        assert c == pytest.approx(1.0, abs=1e-8)
        assert max(ra, rb, rc) < 1e-8

    def test_cylinder_recovers_c(self):
        b = named_fixture("r13")
        c, ra, rb, rc = lemma1_checks(b.g, b.pair, pts_for(b, 20))
        assert c == pytest.approx(1.0, abs=1e-8)
        assert max(ra, rb, rc) < 1e-8

    def test_zero_lambda(self):
        b = fixture_minkowski()
        c, ra, rb, rc = lemma1_checks(b.g, b.pair, pts_for(b, 5))
        assert c == 0.0 and ra == rb == rc == 0.0


class TestPregeodesic:
    def test_identical_metrics_score_zero(self, appendix):
        rep = pregeodesic_check(appendix.g, appendix.g, trials=5, steps=100,
                                horizon=0.5, seed=7)
        assert rep.score <= 1e-10

    def test_fixture_pair_parallel(self, appendix):
        pp = invert_pair(appendix.pair)
        rep = pregeodesic_check(appendix.g, pp.partner, trials=5, steps=200,
                                horizon=1.0, seed=7)
        assert rep.score < 1e-6

    def test_unrelated_negative_control(self, appendix):
        mink = metric_spec(appendix.g.coords,
                           [["-1"], ["0", "1"], ["0", "0", "1"],
                            ["0", "0", "0", "1"]],
                           sample_box=appendix.g.sample_box)
        rep = pregeodesic_check(appendix.g, mink, trials=5, steps=100,
                                horizon=0.5, seed=7)
        assert rep.score > 1e-2

    def test_step_halving_does_not_worsen_identity_score(self, appendix):
        r1 = pregeodesic_check(appendix.g, appendix.g, trials=3, steps=50,
                               horizon=0.5, seed=7)
        r2 = pregeodesic_check(appendix.g, appendix.g, trials=3, steps=100,
                               horizon=0.5, seed=7)
        # A' vanishes identically along the flow for g' = g, so both are
        # at the roundoff floor; halving the step must keep it there
        assert r2.score <= max(r1.score / 8.0, 1e-12)

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_horizon_is_named(self, appendix, horizon):
        with pytest.raises(ValueError,
                           match="horizon must be positive and finite"):
            pregeodesic_check(appendix.g, appendix.g, trials=2, steps=2,
                              horizon=horizon)

    def test_step_underflow_is_named(self, appendix):
        # a positive, finite horizon whose step is below the smallest
        # normal float
        with pytest.raises(ValueError, match="step size underflow"):
            pregeodesic_check(appendix.g, appendix.g, trials=2, steps=1,
                              horizon=1e-320)

    def test_truncation_reported(self):
        # a box that lets trajectories escape the admissible domain
        b = fixture_r9_r14(b="1 + u^2", f="x*y", phi=1.0, xi=0.5)
        wide = ((0.5, 2.0), (0.05, 0.2), (-1.0, 1.0), (-1.0, 1.0))
        rep = pregeodesic_check(b.g, b.g, trials=8, steps=300, horizon=3.0,
                                seed=3, box=wide)
        assert rep.truncated  # at least one trial left v > 0

    def test_scored_pairs_counted(self, appendix):
        rep = pregeodesic_check(appendix.g, appendix.g, trials=3, steps=20,
                                horizon=0.1, seed=7)
        assert not rep.truncated and rep.scored == 3 * 20
        # a second metric with a zero row is degenerate at every start
        # point: every trial stops at step 0 and nothing is scored
        rows = [list(r[:i + 1]) for i, r in enumerate(appendix.g.g)]
        rows[3] = ["0"] * 4
        flat_y = metric_spec(appendix.g.coords, rows,
                             params=appendix.g.params,
                             sample_box=appendix.g.sample_box)
        rep = pregeodesic_check(appendix.g, flat_y, trials=3, steps=20,
                                horizon=0.1, seed=7)
        assert rep.scored == 0 and rep.score == 0.0
        assert rep.truncated == [(0, 0), (1, 0), (2, 0)]


def _reference_pregeodesic(g_spec, gp_spec, trials, steps, horizon, seed,
                           box=None):
    """The RK4 pre-geodesic loop with each Christoffel evaluation composed
    from the separate pieces: metric jets, the validity test, the Gamma
    kernel of christoffel_batch (fused or numeric, as for the spec), and
    the standalone admissibility mask."""
    from lorhol.pointcalc import (
        DIM, _metric_jets, _valid_rows, admissible_mask, christoffel_batch,
    )

    def christoffel(spec, pts):
        # the determinant test sees the rows outside the domain too
        with np.errstate(all="ignore"):
            g, dg = _metric_jets(spec, pts, 1)[0]
            ok = _valid_rows((g, dg))
        gamma = np.where(ok[:, None, None, None],
                         christoffel_batch(spec, pts)[0], 0.0)
        return gamma, ok & admissible_mask(spec, pts)

    def acc(gamma, vel):
        return -np.einsum("nabc,nb,nc->na", gamma, vel, vel)

    x = sample_points(g_spec, trials, seed=seed, box=box)
    rng = np.random.default_rng(seed + 1)
    v = rng.normal(size=(trials, DIM))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    h = float(horizon) / steps
    active = np.ones(trials, dtype=bool)
    truncated, score, scored = {}, 0.0, 0
    eps = np.finfo(float).eps
    for step in range(steps):
        gamma, ok = christoffel(g_spec, x)
        gamma_p, ok_p = christoffel(gp_spec, x)
        for idx in np.where(active & ~(ok & ok_p))[0]:
            truncated[int(idx)] = step
        active &= ok & ok_p
        if not np.any(active):
            break
        scored += int(np.count_nonzero(active))
        # A' = Gamma' v v - Gamma v v over the sizes of its two terms
        gpvv, gvv = acc(gamma_p, v) * -1.0, acc(gamma, v) * -1.0
        a_prime = gpvv - gvv
        wedge = (np.einsum("na,nb->nab", a_prime, v)
                 - np.einsum("na,nb->nab", a_prime, v).transpose(0, 2, 1))
        num = np.linalg.norm(wedge.reshape(trials, -1), axis=1) / np.sqrt(2.0)
        den = ((np.linalg.norm(gpvv, axis=1) + np.linalg.norm(gvv, axis=1))
               * np.linalg.norm(v, axis=1) + eps)
        score = max(score, float(np.max(np.where(active, num / den, 0.0))))
        k1x, k1v = v, acc(gamma, v)
        g2, ok2 = christoffel(g_spec, x + 0.5 * h * k1x)
        k2x, k2v = v + 0.5 * h * k1v, acc(g2, v + 0.5 * h * k1v)
        g3, ok3 = christoffel(g_spec, x + 0.5 * h * k2x)
        k3x, k3v = v + 0.5 * h * k2v, acc(g3, v + 0.5 * h * k2v)
        g4, ok4 = christoffel(g_spec, x + h * k3x)
        k4x, k4v = v + h * k3v, acc(g4, v + h * k3v)
        for idx in np.where(active & ~(ok2 & ok3 & ok4))[0]:
            truncated[int(idx)] = step
        active &= ok2 & ok3 & ok4
        upd = active[:, None]
        x = np.where(upd, x + (h / 6) * (k1x + 2 * k2x + 2 * k3x + k4x), x)
        v = np.where(upd, v + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v), v)
    return score, sorted(truncated.items()), scored


@pytest.mark.parametrize("name", ["r9", "r14"])
def test_partner_score_is_not_rounding_noise_over_a_vanishing_a_prime(name):
    # seed 1055 (the benchmark's pass 55 at --seed 1): at r9's worst
    # partner step |A'| = 4e-11 against |Gamma v v| = 0.93, so a score
    # over |A'| |v| read the rounding noise of A' as 1.1e-5 (r9) and
    # 1.3e-5 (r14), above geodesic-check's default tolerance 1e-6
    b = named_fixture(name)
    partner = invert_pair(b.pair).partner
    rep = pregeodesic_check(b.g, partner, trials=20, steps=125,
                            horizon=0.125, seed=1055)
    assert rep.score < 1e-12
    assert (rep.score, rep.truncated, rep.scored) == \
        _reference_pregeodesic(b.g, partner, 20, 125, 0.125, 1055)


class TestFusedStage:
    """Pins pregeodesic_check to the reference loop
    (_reference_pregeodesic), which evaluates the Christoffels of each
    metric once per RK4 stage: the reports must be equal exactly."""

    def test_r9_partner_matches_reference(self, appendix):
        partner = invert_pair(appendix.pair).partner
        rep = pregeodesic_check(appendix.g, partner, trials=20, steps=400,
                                horizon=2.0, seed=1)
        assert rep.truncated  # trajectories leave the domain
        assert (rep.score, rep.truncated, rep.scored) == \
            _reference_pregeodesic(appendix.g, partner, 20, 400, 2.0, 1)

    def test_kernel_spec_matches_reference(self):
        from test_pointcalc import TestChristoffelKernel
        spec = TestChristoffelKernel.spec()
        box = ((0.05, 0.5), (0.05, 0.5), (-0.3, 0.3), (-0.5, 0.5))
        rep = pregeodesic_check(spec, spec, trials=12, steps=200,
                                horizon=2.0, seed=4, box=box)
        assert 0 < len(rep.truncated) < 12
        assert (rep.score, rep.truncated, rep.scored) == \
            _reference_pregeodesic(spec, spec, 12, 200, 2.0, 4, box=box)

    def test_waveband_self_scores_zero_like_reference(self, waveband):
        rep = pregeodesic_check(waveband.g, waveband.g, trials=20,
                                steps=400, horizon=2.0, seed=1)
        assert rep.score == 0.0 and rep.scored > 0
        assert (rep.score, rep.truncated, rep.scored) == \
            _reference_pregeodesic(waveband.g, waveband.g, 20, 400, 2.0, 1)

    def test_waveband_against_flat_matches_reference(self, waveband):
        # the large-score branch: A' is the full Gamma v v of g
        flat = metric_spec(waveband.g.coords,
                           [["-1"], ["0", "1"], ["0", "0", "1"],
                            ["0", "0", "0", "1"]],
                           sample_box=waveband.g.sample_box)
        rep = pregeodesic_check(waveband.g, flat, trials=20, steps=200,
                                horizon=1.0, seed=2)
        assert rep.score > 1e-2
        assert (rep.score, rep.truncated, rep.scored) == \
            _reference_pregeodesic(waveband.g, flat, 20, 200, 1.0, 2)

    def test_single_trial_matches_reference(self, appendix):
        partner = invert_pair(appendix.pair).partner
        rep = pregeodesic_check(appendix.g, partner, trials=1, steps=300,
                                horizon=1.5, seed=3)
        assert rep.scored > 0
        assert (rep.score, rep.truncated, rep.scored) == \
            _reference_pregeodesic(appendix.g, partner, 1, 300, 1.5, 3)

    def test_long_r11_run_emits_no_warnings(self, waveband):
        # the determinant test overflows along these trajectories; the
        # overflow must decide as before without reaching the user
        partner = invert_pair(waveband.pair).partner
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = pregeodesic_check(waveband.g, partner, trials=20,
                                    steps=400, horizon=2.0, seed=1)
        assert rep.truncated and rep.scored > 0


class TestBlockedSecondMetric:
    """pregeodesic_check integrates g alone over blocks of
    max(1, _BLOCK_ROWS // trials) steps and evaluates and scores g' once
    per block; its reports must still equal the step-by-step reference."""

    @staticmethod
    def matches_reference(g, gp, trials, steps, horizon, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = pregeodesic_check(g, gp, trials=trials, steps=steps,
                                    horizon=horizon, seed=seed)
        assert (rep.score, rep.truncated, rep.scored) == \
            _reference_pregeodesic(g, gp, trials, steps, horizon, seed)
        return rep

    def test_second_metric_truncates_after_the_first_block(self, appendix):
        g = appendix.g
        rep = self.matches_reference(g, narrowed(g), 20, 120, 0.6, 0)
        alone = dict(pregeodesic_check(g, g, trials=20, steps=120,
                                       horizon=0.6, seed=0).truncated)
        block = _BLOCK_ROWS // 20
        # trials that only the narrowed domain stops, some of them after
        # the first block has been integrated and scored
        own = [s for t, s in rep.truncated if alone.get(t) != s]
        assert own and max(own) >= block

    def test_more_trials_than_block_rows(self, appendix):
        # each block is one step
        self.matches_reference(appendix.g, narrowed(appendix.g),
                               _BLOCK_ROWS + 13, 10, 0.1, 2)

    @pytest.mark.parametrize("trials, steps", [(20, 50), (7, 40)])
    def test_steps_not_a_multiple_of_the_block(self, appendix, trials,
                                               steps):
        assert steps % max(1, _BLOCK_ROWS // trials)
        partner = invert_pair(appendix.pair).partner
        self.matches_reference(appendix.g, partner, trials, steps, 0.5, 5)

    @staticmethod
    def spy_stages(monkeypatch, spec, events):
        # g's stages as the loop runs them, logging into events each stage
        # buffer built (its batch width, an int), compiled call (p),
        # whole-block test (v) and per-row masks (m, then a tuple of the
        # masks and the block's buffer); g' goes through
        # christoffel_batch, which is not spied here
        from functools import partial, wraps
        from lorhol import pointcalc
        program, values, size = pointcalc._christoffel_kernel(spec).args

        @wraps(program)  # with its const_rows
        def counted(*args):
            events.append("p")
            return program(*args)

        class Stages(pointcalc._FusedStages):
            def __init__(self, *args):
                super().__init__(*args)
                events.append(self.vals.shape[-1])

            def valid(self):
                events.append("v")
                return super().valid()

            def masks(self):
                events.append("m")
                masks = super().masks()
                events.append((*(m.copy() for m in masks),
                               self.vals[:self.k].copy()))
                return masks

        monkeypatch.setattr(projective, "_christoffel_kernel",
                            lambda s: partial(Stages, counted, values, size))

    @staticmethod
    def trace(events):
        # the logged events as one string, a buffer of width n as [n]
        return "".join(f"[{e}]" if isinstance(e, int) else e
                       for e in events if not isinstance(e, tuple))

    @staticmethod
    def step_masks(events):
        # the valid masks (ok and admissible) and the ok masks of each
        # block that took the per-row masks, as (steps, 4 stages, trials)
        for ok, admissible, _ in (e for e in events if isinstance(e, tuple)):
            ok = ok.reshape(-1, 4, ok.shape[-1])
            yield ok & admissible.reshape(ok.shape), ok

    def test_one_second_metric_call_per_block(self, appendix, monkeypatch):
        # each RK4 step of g is four compiled calls into one stage buffer,
        # each block of steps one whole-block test, and g' one
        # christoffel_batch call per block
        partner = invert_pair(appendix.pair).partner
        events = []
        self.spy_stages(monkeypatch, appendix.g, events)
        batch = projective.christoffel_batch
        monkeypatch.setattr(
            projective, "christoffel_batch",
            lambda spec, pts: events.append("b" if spec is partner else "g")
            or batch(spec, pts))
        trials, steps = 20, 50
        block = _BLOCK_ROWS // trials
        rep = pregeodesic_check(appendix.g, partner, trials=trials,
                                steps=steps, horizon=0.1, seed=7)
        assert not rep.truncated
        assert self.trace(events) == "[20]" + "".join(
            "pppp" * min(block, steps - i) + "vb"
            for i in range(0, steps, block))

    def test_stopped_trials_leave_the_batch(self, appendix, monkeypatch):
        # r9 against itself: one trial stops in block 3 and none in block
        # 4.  Block 3 fails the whole-block test and takes the masks;
        # block 4 runs in a buffer one column narrower and passes it
        events = []
        self.spy_stages(monkeypatch, appendix.g, events)
        rep = self.matches_reference(appendix.g, appendix.g, 20, 120, 2.0, 7)
        block = _BLOCK_ROWS // 20
        blocks = [s // block for _, s in rep.truncated]
        assert min(blocks) == 3 and blocks.count(3) == 1 and 4 not in blocks
        step = "pppp" * block
        assert self.trace(events).startswith(
            "[20]" + (step + "v") * 3 + step + "vm[19]" + step + "vp")

    def test_step_failing_after_its_first_stage(self, monkeypatch):
        # narrowed r9 drives: rows valid at stage 1 of the step where they
        # stop have non-finite or degenerate Christoffels first at stage
        # 2, at stage 3 and at stage 4; the unmasked stages carry them
        # into the later stages and the update
        g = narrowed(fixture_spec("r9"))
        events = []
        self.spy_stages(monkeypatch, g, events)
        rep = self.matches_reference(g, fixture_spec("r9"), 20, 10, 2.0, 0)
        assert rep.truncated and rep.scored > 0
        first_bad = set()
        for valid, ok in self.step_masks(events):
            for r in np.flatnonzero(~valid.all(axis=(0, 1))):
                i = np.argmin(valid[:, :, r].all(axis=1))
                if valid[i, 0, r] and not ok[i, :, r].all():
                    first_bad.add(int(np.argmin(ok[i, :, r])) + 1)
        assert first_bad == {2, 3, 4}

    def test_every_moving_trial_stops_at_stage_1(self, monkeypatch):
        # one r9 trajectory whose point at step 106 leaves the domain
        # although every stage of step 105 was inside it: its one block
        # takes the masks, which first fail at stage 1 of step 106
        spec = fixture_spec("r9")
        events = []
        self.spy_stages(monkeypatch, spec, events)
        rep = self.matches_reference(spec, spec, 1, 200, 2.0, 2)
        assert rep.truncated == [(0, 106)] and rep.scored == 106
        assert self.trace(events) == "[1]" + "pppp" * 200 + "vm"
        (valid, _), = self.step_masks(events)
        assert valid[:106].all() and not valid[106, 0, 0]

    def test_rows_past_a_stop_overflow_unseen(self, monkeypatch):
        # r10 against itself with long steps: trials stop mid-block, and
        # the stages of their later steps in that block overflow; the
        # overflow reaches neither the report nor a warning
        spec = fixture_spec("r10")
        events = []
        self.spy_stages(monkeypatch, spec, events)
        rep = self.matches_reference(spec, spec, 20, 120, 12.0, 0)
        block = _BLOCK_ROWS // 20
        stop = dict(rep.truncated)
        overflowed, j = [], -1
        for e in events:
            j += e == "v"
            if isinstance(e, tuple):
                vals = e[2].reshape(-1, 4, *e[2].shape[1:])
                # the batch of block j: the trials not stopped before it
                batch = [t for t in range(20)
                         if stop.get(t, 120) >= j * block]
                for col, t in enumerate(batch):
                    i = stop.get(t, 120) - j * block
                    past = vals[i + 1:, ..., col]
                    if i < len(vals) and np.isinf(past).any():
                        overflowed.append(t)
        assert overflowed

    def test_every_trial_stops_inside_one_block(self, monkeypatch):
        # r10 against itself with very long steps: all 20 trials stop at
        # steps 0 to 9 of the first block, and no further block runs
        spec = fixture_spec("r10")
        events = []
        self.spy_stages(monkeypatch, spec, events)
        rep = self.matches_reference(spec, spec, 20, 120, 96.0, 2)
        stops = [s for _, s in rep.truncated]
        assert len(stops) == 20 and 0 < max(stops) < _BLOCK_ROWS // 20
        assert self.trace(events) == "[20]" + "pppp" * 12 + "vm"

    def test_degenerate_first_metric_stops_every_trial_at_step_0(self):
        # g with a zero row: det g = 0 at every start point, so every
        # trial stops at step 0 with the unmasked Gamma of g inf or nan
        # there; the masks keep it out of the scores
        g = fixture_spec("r9")
        rows = [list(r[:i + 1]) for i, r in enumerate(g.g)]
        rows[3] = ["0"] * 4
        flat_y = metric_spec(g.coords, rows, params=g.params,
                             sample_box=g.sample_box)
        rep = self.matches_reference(flat_y, g, 3, 20, 0.1, 7)
        assert rep.truncated == [(0, 0), (1, 0), (2, 0)]
        assert rep.scored == 0

    def test_numeric_path_drives(self):
        # a partner as the raw adjugate formula, whose masks the reference
        # takes from np.linalg.det, drives through the fused kernel like
        # every other metric
        from lorhol.pointcalc import _christoffel_kernel, _FusedStages
        g = raw_partner("r9")
        assert _christoffel_kernel(g).func is _FusedStages
        rep = self.matches_reference(g, fixture_spec("r9"), 20, 100, 2.0, 1)
        assert rep.truncated and rep.scored > 0
