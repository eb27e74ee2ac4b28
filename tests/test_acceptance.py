"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (collected into the terminal summary)."""
import contextlib
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from lorhol.cli import main as cli_main
from lorhol.curvclass import classify_curvature, solve_theorem1
from lorhol.exprdsl import eval_expr
from lorhol.fixtures import (
    fixture_r9_r14, fixture_r10_r13, fixture_r11, named_fixture,
)
from lorhol.holonomy import TYPE_DIMENSIONS, holonomy_survey, identify_type
from lorhol.pointcalc import (
    PointFrame, eval_oneform_batch, eval_sym2_batch, frame_at, metric_spec,
    sample_points,
)
from lorhol.projective import (
    curvature_relation_residual, invert_pair, lemma1_checks,
    pregeodesic_check, projective_residual, psi_from_connections,
    sinyukov_residual, weyl_projective_equal,
)

from helpers import ETA, biv_low, minkowski_frame, null_tetrad, random_lorentz
from test_holonomy import table1_basis


@contextlib.contextmanager
def criterion(log, number, title):
    try:
        yield
    except BaseException:
        log.append(f"criterion {number} ({title}): FAIL")
        raise
    log.append(f"criterion {number} ({title}): PASS")


def chi_partner_match(bundle, pts, tol_chi=1e-9, tol_gp=1e-8):
    pp = invert_pair(bundle.pair, pts)
    coords, params = bundle.g.coords, bundle.g.params
    chi_got = np.array([eval_expr(pp.chi, p, coords, params) for p in pts])
    chi_want = np.array([eval_expr(bundle.expected_chi, p, coords, params)
                         for p in pts])
    assert np.max(np.abs(chi_got - chi_want)) < tol_chi
    gp_got = eval_sym2_batch(bundle.g, pp.partner.g, pts)
    gp_want = eval_sym2_batch(bundle.g, bundle.expected_partner.g, pts)
    scale = max(1.0, float(np.max(np.abs(gp_want))))
    assert np.max(np.abs(gp_got - gp_want)) < tol_gp * scale
    return pp


def test_criterion_1_appendix_reproduction(acceptance_log):
    with criterion(acceptance_log, 1, "appendix fixture reproduction"):
        t0 = time.monotonic()
        bundle = fixture_r9_r14(b="1 + u^2", f="x*y", phi=2.0, xi=0.25)
        pts = sample_points(bundle.g, 100, seed=7)
        assert sinyukov_residual(bundle.pair, pts) < 1e-9
        chi_partner_match(bundle, pts, tol_chi=1e-9, tol_gp=1e-8)
        assert time.monotonic() - t0 < 5.0


def test_criterion_2_families_property_sweep(acceptance_log):
    with criterion(acceptance_log, 2, "waveband/cylinder 50-draw sweep"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            c, e1, e2 = rng.uniform(-0.06, 0.06, size=3)
            bundle = fixture_r11(c=c, e1=e1, e2=e2)
            pts = sample_points(bundle.g, 15, seed=3)
            assert sinyukov_residual(bundle.pair, pts) < 1e-9
            chi_partner_match(bundle, pts)
            c_fit, ra, rb, rc = lemma1_checks(bundle.g, bundle.pair, pts[:8])
            assert abs(c_fit - c) < 1e-8
            assert max(ra, rb, rc) < 1e-8
        contexts = [(-1, 1), (1, -1), (1, 1)]
        for k in range(50):
            c, c2, c3 = rng.uniform(-0.08, 0.08, size=3)
            eps1, eps2 = contexts[k % 3]
            bundle = fixture_r10_r13(eps1, eps2, c=c, c2=c2, c3=c3)
            pts = sample_points(bundle.g, 15, seed=3)
            assert sinyukov_residual(bundle.pair, pts) < 1e-9
            chi_partner_match(bundle, pts)
            c_fit, ra, rb, rc = lemma1_checks(bundle.g, bundle.pair, pts[:8])
            assert abs(c_fit - c) < 1e-8
            assert max(ra, rb, rc) < 1e-8


def test_criterion_3_weyl_and_curvature_relation(acceptance_log):
    with criterion(acceptance_log, 3, "Weyl projective invariance"):
        for name in ("r11", "r13", "r9"):
            bundle = named_fixture(name)
            pts = sample_points(bundle.g, 100, seed=7)
            pp = invert_pair(bundle.pair, pts)
            assert weyl_projective_equal(bundle.g, pp.partner, pts) < 1e-8
            res14, res_ric = curvature_relation_residual(
                bundle.g, pp.partner, pp.psi, pts)
            assert res14 < 1e-8 and res_ric < 1e-8


def test_criterion_4_classifier_oracle(acceptance_log):
    with criterion(acceptance_log, 4, "synthetic classifier oracle"):
        t0 = time.monotonic()
        rng = np.random.default_rng(4242)
        for i in range(200):
            lam = random_lorentz(rng)
            l, n, x, y = null_tetrad(lam)
            if i % 2 == 0:
                alpha = rng.uniform(0.3, 2.0) * rng.choice([-1, 1])
                beta = rng.uniform(0.3, 2.0) * rng.choice([-1, 1])
                f = biv_low(l, n)
                fs = biv_low(x, y)
                riem = (alpha * np.einsum("ab,cd->abcd", f, f)
                        + beta * np.einsum("ab,cd->abcd", fs, fs))
                fr = PointFrame.synthetic(ETA, riem)
                rep = classify_curvature(fr)
                assert rep.tag == "B" and len(rep.kernel) == 0
                basis, _ = solve_theorem1(fr)
                assert len(basis) == 2
            else:
                p, q = [(x, y), (l, n), (l, x)][(i // 2) % 3]
                alpha = rng.uniform(0.3, 2.0) * rng.choice([-1, 1])
                f = biv_low(p, q)
                fr = PointFrame.synthetic(
                    ETA, alpha * np.einsum("ab,cd->abcd", f, f))
                rep = classify_curvature(fr)
                assert rep.tag == "D" and len(rep.kernel) == 2
                basis, _ = solve_theorem1(fr)
                assert len(basis) == 4
        # class A (fixture frame) and class C (synthetic) theorem-1 dims
        bundle = named_fixture("r9")
        fr_a = frame_at(bundle.g, (1.0, 1.0, 0.3, 0.2))
        basis_a, rep_a = solve_theorem1(fr_a)
        assert rep_a.tag == "A" and len(basis_a) == 1
        l, n, x, y = null_tetrad()
        f1, f2 = biv_low(l, n), biv_low(l, x)
        fr_c = PointFrame.synthetic(
            ETA, (np.einsum("ab,cd->abcd", f1, f1)
                  + np.einsum("ab,cd->abcd", f2, f2)))
        basis_c, rep_c = solve_theorem1(fr_c)
        assert rep_c.tag == "C" and len(basis_c) == 2
        assert time.monotonic() - t0 < 10.0


def test_criterion_5_holonomy_identification(acceptance_log):
    with criterion(acceptance_log, 5, "holonomy identification"):
        assert holonomy_survey(named_fixture("r9").g, samples=32,
                               seed=7).label == "R9"
        assert holonomy_survey(named_fixture("r14").g, samples=32,
                               seed=7).label == "R14"
        assert holonomy_survey(named_fixture("minkowski").g, samples=32,
                               seed=7).label == "R1"
        fr = minkowski_frame()
        for label in sorted(TYPE_DIMENSIONS)[1:]:  # R2..R15 directly
            rep = identify_type(table1_basis(label, fr, omega=2.0), fr)
            assert rep.label == label
            if label == "R5":
                assert not rep.realizable
            if label == "R12":
                assert rep.omega == pytest.approx(2.0, abs=1e-9)
        b0 = holonomy_survey(named_fixture("r9-b0").g, samples=16, seed=7)
        assert b0.label in ("R3", "R8", "R11")
        assert any(ch == "null" for _, ch in b0.representative.constant)


def test_criterion_6_projective_end_to_end(acceptance_log, tmp_path):
    with criterion(acceptance_log, 6, "projective end-to-end"):
        t0 = time.monotonic()
        from lorhol.cli import load_metric_file
        runner = CliRunner()
        for name in ("r11", "r13", "r9"):
            bundle = named_fixture(name)
            res = runner.invoke(cli_main, ["fixtures", "emit", name, "-o",
                                           str(tmp_path)])
            assert res.exit_code == 0
            partner_path = str(tmp_path / f"{name}-partner.json")
            res = runner.invoke(cli_main, [
                "derive-partner", "-m", str(tmp_path / f"{name}-g.json"),
                "-a", str(tmp_path / f"{name}-a.json"), "-o", partner_path])
            assert res.exit_code == 0, res.output
            partner = load_metric_file(partner_path)
            pts = sample_points(bundle.g, 40, seed=7)
            psi_vals = psi_from_connections(bundle.g, partner, pts)
            assert projective_residual(bundle.g, partner, psi_vals,
                                       pts) < 1e-8
            rep = pregeodesic_check(bundle.g, partner, trials=20,
                                    steps=2000, horizon=2.0, seed=7)
            assert rep.score < 1e-6
        bundle = named_fixture("r9")
        same = pregeodesic_check(bundle.g, bundle.g, trials=20, steps=2000,
                                 horizon=2.0, seed=7)
        assert same.score <= 1e-10
        mink = metric_spec(bundle.g.coords,
                           [["-1"], ["0", "1"], ["0", "0", "1"],
                            ["0", "0", "0", "1"]],
                           sample_box=bundle.g.sample_box)
        neg = pregeodesic_check(bundle.g, mink, trials=20, steps=400,
                                horizon=0.5, seed=7)
        assert neg.score > 1e-2
        assert time.monotonic() - t0 < 30.0


def test_criterion_7_cli_determinism(acceptance_log, tmp_path):
    with criterion(acceptance_log, 7, "CLI determinism"):
        runner = CliRunner()
        res = runner.invoke(cli_main, ["fixtures", "emit", "r9", "-o",
                                       str(tmp_path)])
        assert res.exit_code == 0
        g = str(tmp_path / "r9-g.json")
        a = str(tmp_path / "r9-a.json")
        commands = [
            ["classify", "-m", g, "--samples", "6", "--seed", "5", "--json"],
            ["holonomy", "-m", g, "--samples", "6", "--seed", "5", "--json"],
            ["sinyukov-check", "-m", g, "-a", a, "--samples", "8",
             "--seed", "5", "--json"],
            ["geodesic-check", "-m", g, "-M", g, "--trials", "3", "--steps",
             "40", "--horizon", "0.3", "--seed", "5", "--json"],
        ]
        for args in commands:
            out1 = runner.invoke(cli_main, args).output
            out2 = runner.invoke(cli_main, args).output
            assert out1 == out2
            json.loads(out1)  # valid JSON


def test_criterion_8_suite_wall_clock(acceptance_log, session_start):
    with criterion(acceptance_log, 8, "suite wall-clock < 60 s"):
        elapsed = time.monotonic() - session_start
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
