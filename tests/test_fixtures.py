import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorhol.curvclass import classify_curvature
from lorhol.exprdsl import eval_expr
from lorhol.fixtures import (
    FIXTURE_NAMES, fixture_minkowski, fixture_r9_r14, fixture_r10_r13,
    fixture_r11, named_fixture,
)
from lorhol.holonomy import holonomy_survey
from lorhol.pointcalc import (
    eval_field_batch, frame_at, sample_points,
    signature_at,
)
from lorhol.projective import invert_pair, sinyukov_residual


def bundle_closes(bundle, n=40, seed=11, tol_chi=1e-9, tol_gp=1e-8):
    pts = sample_points(bundle.g, n, seed=seed)
    assert sinyukov_residual(bundle.pair, pts) < 1e-9
    pp = invert_pair(bundle.pair, pts)
    chi_got = np.array([eval_expr(pp.chi, p, bundle.g.coords,
                                  bundle.g.params) for p in pts])
    chi_want = np.array([eval_expr(bundle.expected_chi, p, bundle.g.coords,
                                   bundle.g.params) for p in pts])
    assert np.max(np.abs(chi_got - chi_want)) < tol_chi
    gp_got = eval_field_batch(bundle.g, pp.partner.g, pts)
    gp_want = eval_field_batch(bundle.g, bundle.expected_partner.g, pts)
    scale = max(1.0, float(np.max(np.abs(gp_want))))
    assert np.max(np.abs(gp_got - gp_want)) < tol_gp * scale


class TestShippedBundles:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_bundle_closes(self, name):
        bundle_closes(named_fixture(name))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_expected_partner_is_lorentz(self, name):
        bundle = named_fixture(name)
        for pt in sample_points(bundle.expected_partner, 20, seed=5):
            assert signature_at(bundle.expected_partner, pt) == (-1, 1, 1, 1)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_expected_curvature_class(self, name):
        bundle = named_fixture(name)
        for pt in sample_points(bundle.g, 10, seed=3):
            rep = classify_curvature(frame_at(bundle.g, pt))
            assert rep.tag == bundle.expected_class
            if bundle.expected_theta_sign is not None:
                assert np.sign(rep.f_class.theta) == bundle.expected_theta_sign


class TestWaveband:
    def test_flat_h_choices_flagged(self):
        with pytest.raises(ValueError):
            fixture_r11(h_choice="delta")
        with pytest.raises(ValueError):
            fixture_r11(h_choice="exp_xy")

    def test_c_zero_lambda_is_constant_multiple_of_null_direction(self):
        b = fixture_r11(c=0.0, e1=1.0, e2=0.0)
        pts = sample_points(b.g, 10, seed=2)
        lam = eval_field_batch(b.g, b.pair.lam, pts)
        np.testing.assert_allclose(lam[:, 0], 1.0)  # du component
        assert np.max(np.abs(lam[:, 1:])) == 0.0

    def test_all_deformations_off_gives_identity_pair(self):
        b = fixture_r11(c=0.0, e1=0.0, e2=0.0)
        pts = sample_points(b.g, 5, seed=2)
        a_vals = eval_field_batch(b.g, b.pair.a, pts)
        g_vals = eval_field_batch(b.g, b.g.g, pts)
        assert np.max(np.abs(a_vals - g_vals)) == 0.0
        pp = invert_pair(b.pair, pts)
        gp = eval_field_batch(b.g, pp.partner.g, pts)
        assert np.max(np.abs(gp - g_vals)) < 1e-12


class TestCylinder:
    def test_invalid_eps_rejected(self):
        with pytest.raises(ValueError):
            fixture_r10_r13(2, 1)
        with pytest.raises(ValueError):
            fixture_r10_r13(-1, -1)

    def test_all_deformations_off_gives_identity_pair(self):
        b = fixture_r10_r13(-1, 1, c=0.0, c2=0.0, c3=0.0)
        pts = sample_points(b.g, 5, seed=2)
        a_vals = eval_field_batch(b.g, b.pair.a, pts)
        g_vals = eval_field_batch(b.g, b.g.g, pts)
        assert np.max(np.abs(a_vals - g_vals)) == 0.0

    def test_both_plus_uses_lorentz_sector(self):
        b = fixture_r10_r13(1, 1, c=0.2, c2=0.0, c3=0.1)
        for pt in sample_points(b.g, 10, seed=4):
            assert signature_at(b.g, pt) == (-1, 1, 1, 1)
        bundle_closes(b)

    def test_constant_direction_character(self):
        for name, want in (("r13", "timelike"), ("r10", "spacelike")):
            b = named_fixture(name)
            rep = holonomy_survey(b.g, samples=12, seed=7)
            chars = [ch for _, ch in rep.representative.constant]
            assert want in chars
            assert rep.label in b.expected_holonomy


class TestAppendix:
    def test_harmonic_labels(self):
        assert named_fixture("r9").expected_holonomy == ("R9",)
        assert named_fixture("r14").expected_holonomy == ("R14",)

    def test_b_zero_is_class_d_bundle(self):
        b = named_fixture("r9-b0")
        assert b.expected_class == "D"
        assert set(b.expected_holonomy) == {"R3", "R8", "R11"}

    def test_xi_domain_violation_rejected(self):
        with pytest.raises(ValueError):
            fixture_r9_r14(xi=-0.9)

    def test_phi_must_be_positive(self):
        with pytest.raises(ValueError):
            fixture_r9_r14(phi=-1.0)

    def test_general_phi_consistency(self):
        # the phi factor must drop out of every closure property
        for phi in (0.5, 1.0, 3.0):
            bundle_closes(fixture_r9_r14(b="1 + u^2", f="x*y",
                                         phi=phi, xi=0.25), n=15)


class TestMinkowskiBundle:
    def test_class_o_and_r1(self):
        b = fixture_minkowski()
        fr = frame_at(b.g, (0.2, -0.1, 0.4, 0.0))
        assert classify_curvature(fr).tag == "O"
        assert holonomy_survey(b.g, samples=8, seed=7).label == "R1"

    def test_weyl_projective_zero(self):
        from lorhol.projective import weyl_projective_at
        b = fixture_minkowski()
        w = weyl_projective_at(frame_at(b.g, (0, 0, 0, 0)))
        assert np.max(np.abs(w)) == 0.0


# property-based closure over random parameter draws (the full 50-draw
# sweeps run in the acceptance suite; this guards the family generators)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(c=st.floats(-0.06, 0.06), e1=st.floats(-0.06, 0.06),
       e2=st.floats(-0.06, 0.06))
def test_waveband_random_parameters(c, e1, e2):
    bundle_closes(fixture_r11(c=c, e1=e1, e2=e2), n=10, seed=1)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(c=st.floats(-0.08, 0.08), c2=st.floats(-0.08, 0.08),
       c3=st.floats(-0.08, 0.08),
       ctx=st.sampled_from([(-1, 1), (1, -1), (1, 1)]))
def test_cylinder_random_parameters(c, c2, c3, ctx):
    bundle_closes(fixture_r10_r13(ctx[0], ctx[1], c=c, c2=c2, c3=c3),
                  n=10, seed=1)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(phi=st.floats(0.5, 2.5), xi=st.floats(-0.4, 0.4))
def test_appendix_random_parameters(phi, xi):
    bundle_closes(fixture_r9_r14(b="1 + u^2", f="x*y", phi=phi, xi=xi),
                  n=10, seed=1)
