from functools import partial

import numpy as np
import pytest

from lorhol.exprdsl import DomainError, parse_expr
from lorhol.pointcalc import (
    AdmissibilityError, DegenerateMetricError, MetricError, SignatureError,
    cov_deriv_sym2_at, frame_at, metric_spec, sample_points, signature_at,
)

UVXY = ("u", "v", "x", "y")


def minkowski():
    return metric_spec(("t", "x", "y", "z"),
                       [["-1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]],
                       sample_box=[(-1, 1)] * 4)


def waveband(h="exp(x*y)"):
    # 2 du dv + u^2 h(x,y) (dx^2 + dy^2), coordinate order (u, v, x, y)
    return metric_spec(UVXY,
                       [["0"], ["1", "0"], ["0", "0", f"u^2*{h}"],
                        ["0", "0", "0", f"u^2*{h}"]],
                       constraints=["u"],
                       sample_box=[(0.5, 2), (0.5, 2), (-1, 1), (-1, 1)])


def appendix_metric(b="1", f="x*y"):
    # 2 du dv + b(u) sqrt(v) du^2 + u^2 e^f (dx^2 + dy^2), v > 0
    return metric_spec(UVXY,
                       [[f"({b})*sqrt(v)"], ["1", "0"],
                        ["0", "0", f"u^2*exp({f})"],
                        ["0", "0", "0", f"u^2*exp({f})"]],
                       constraints=["v", "u"],
                       sample_box=[(0.5, 2), (0.5, 2), (-1, 1), (-1, 1)])


def fd_riemann(spec, point, h=1e-5):
    """Finite-difference Riemann oracle built from metric samples only.

    Independent of the production path: Christoffels by central differences
    of g, curvature by central differences of Christoffels.
    """
    coords = spec.coords

    def g_at(pt):
        rows = [[parse_expr("0", coords)] * 4 for _ in range(4)]
        vals = np.empty((4, 4))
        for a in range(4):
            for b in range(4):
                from lorhol.exprdsl import eval_expr
                vals[a, b] = eval_expr(spec.g[a][b], pt, coords, spec.params)
        return vals

    def gamma_at(pt):
        pt = np.asarray(pt, float)
        dg = np.empty((4, 4, 4))
        for c in range(4):
            ep = pt.copy(); ep[c] += h
            em = pt.copy(); em[c] -= h
            dg[:, :, c] = (g_at(ep) - g_at(em)) / (2 * h)
        ginv = np.linalg.inv(g_at(pt))
        s = dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1)
        return 0.5 * np.einsum("ad,dbc->abc", ginv, s)

    pt = np.asarray(point, float)
    dgam = np.empty((4, 4, 4, 4))
    for e in range(4):
        ep = pt.copy(); ep[e] += h
        em = pt.copy(); em[e] -= h
        dgam[:, :, :, e] = (gamma_at(ep) - gamma_at(em)) / (2 * h)
    gam = gamma_at(pt)
    return (dgam.transpose(0, 1, 3, 2) - dgam
            + np.einsum("ace,ebd->abcd", gam, gam)
            - np.einsum("ade,ebc->abcd", gam, gam))


class TestFrameAt:
    def test_minkowski_flat(self):
        fr = frame_at(minkowski(), (0.3, -0.2, 0.9, 0.0))
        assert np.max(np.abs(fr.gamma)) == 0.0
        assert np.max(np.abs(fr.riem_ud)) == 0.0

    def test_waveband_christoffel_matches_paper_form(self):
        # For 2dudv + u^2 h dx^a dx^b one has -u Gamma^v_{alpha beta} = g_{alpha beta}
        spec = waveband()
        pt = (1.0, 0.0, 0.0, 0.0)
        fr = frame_at(spec, pt)
        for alpha in (2, 3):
            for beta in (2, 3):
                assert fr.gamma[1, alpha, beta] == pytest.approx(
                    -fr.g[alpha, beta] / pt[0], abs=1e-12)

    def test_riemann_matches_finite_difference_oracle(self):
        spec = appendix_metric(b="1", f="x*y")
        pt = (1.0, 1.0, 0.0, 0.0)
        fr = frame_at(spec, pt)
        oracle = fd_riemann(spec, pt)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(fr.riem_ud - oracle)) < 1e-6 * scale

    def test_riemann_oracle_second_point(self):
        spec = appendix_metric(b="1 + u^2", f="x^2")
        pt = (0.8, 1.4, 0.3, -0.5)
        fr = frame_at(spec, pt)
        oracle = fd_riemann(spec, pt)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(fr.riem_ud - oracle)) < 1e-6 * scale

    def test_degenerate_metric_rejected(self):
        spec = metric_spec(UVXY, [["-1"], ["0", "u"], ["0", "0", "1"],
                                  ["0", "0", "0", "1"]])
        with pytest.raises(DegenerateMetricError):
            frame_at(spec, (0.0, 0.0, 0.0, 0.0))

    def test_wrong_signature_rejected(self):
        spec = metric_spec(UVXY, [["1"], ["0", "1"], ["0", "0", "1"],
                                  ["0", "0", "0", "1"]])
        with pytest.raises(SignatureError):
            frame_at(spec, (0.0, 0.0, 0.0, 0.0))

    def test_constraint_violation_rejected(self):
        spec = appendix_metric()
        with pytest.raises(AdmissibilityError):
            frame_at(spec, (1.0, -1.0, 0.0, 0.0))

    def test_deterministic_bitwise(self):
        spec = appendix_metric(b="1+u^2", f="x*y")
        pt = (1.1, 0.7, 0.2, -0.3)
        f1, f2 = frame_at(spec, pt), frame_at(spec, pt)
        assert np.array_equal(f1.riem_ud, f2.riem_ud)
        assert np.array_equal(f1.cov_riemann, f2.cov_riemann)


class TestSignature:
    def test_minkowski(self):
        assert signature_at(minkowski(), (0, 0, 0, 0)) == (-1, 1, 1, 1)

    def test_null_block_is_lorentz(self):
        assert signature_at(appendix_metric(), (1, 1, 0, 0)) == (-1, 1, 1, 1)

    def test_euclidean_flagged(self):
        spec = metric_spec(UVXY, [["1"], ["0", "1"], ["0", "0", "1"],
                                  ["0", "0", "0", "1"]])
        assert signature_at(spec, (0, 0, 0, 0)) == (1, 1, 1, 1)


def frame_invariants(fr, tol=1e-9):
    r = fr.riem_dddd
    scale = max(1.0, np.max(np.abs(r)))
    assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) < tol * scale
    assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) < tol * scale
    assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) < tol * scale
    cyc = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
    assert np.max(np.abs(cyc)) < tol * scale
    assert np.max(np.abs(fr.ginv @ fr.g - np.eye(4))) < 1e-12
    assert abs(np.einsum("ab,ab->", fr.tracefree_ricci, fr.ginv)) < 1e-10 * scale


class TestInvariants:
    @pytest.mark.parametrize("spec", [
        minkowski(), waveband(), appendix_metric(),
        appendix_metric(b="1+u^2", f="x^2"),
    ], ids=["minkowski", "waveband", "appendix", "appendix-nonharmonic"])
    def test_pointframe_invariants_random_points(self, spec):
        pts = sample_points(spec, 100, seed=11)
        for pt in pts:
            frame_invariants(frame_at(spec, pt))

    def test_metric_compatibility(self):
        spec = appendix_metric(b="1+u^2", f="x*y")
        for pt in sample_points(spec, 10, seed=3):
            cov_g = cov_deriv_sym2_at(spec, spec.g, pt)
            assert np.max(np.abs(cov_g)) < 1e-10

    def test_second_bianchi(self):
        spec = appendix_metric(b="1", f="x*y")
        for pt in sample_points(spec, 5, seed=5):
            cr = frame_at(spec, pt).cov_riemann
            cyc = (cr + cr.transpose(0, 1, 3, 4, 2)
                   + cr.transpose(0, 1, 4, 2, 3))
            scale = max(1.0, np.max(np.abs(cr)))
            assert np.max(np.abs(cyc)) < 1e-8 * scale


class TestWeyl:
    def test_minkowski_zero(self):
        assert np.max(np.abs(
            frame_at(minkowski(), (0, 0, 0, 0)).weyl_ud)) == 0.0

    def test_weyl_traceless(self):
        spec = appendix_metric(b="1+u^2", f="x^2+y^2")
        for pt in sample_points(spec, 10, seed=9):
            c = frame_at(spec, pt).weyl_ud
            scale = max(1.0, np.max(np.abs(c)))
            assert np.max(np.abs(np.einsum("abad->bd", c))) < 1e-10 * scale
            # full trace-freeness: contract every index pair
            fr = frame_at(spec, pt)
            c_dddd = np.einsum("ae,ebcd->abcd", fr.g, c)
            for axes in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
                tr = np.einsum(c_dddd, [0, 1, 2, 3], fr.ginv,
                               list(axes), sorted({0, 1, 2, 3} - set(axes)))
                assert np.max(np.abs(tr)) < 1e-10 * scale

    def test_einstein_space_has_zero_e(self):
        # Ricci-flat => trace-free Ricci vanishes => E = 0; Minkowski suffices
        fr = frame_at(minkowski(), (0, 0, 0, 0))
        assert np.max(np.abs(fr.e_ud)) == 0.0


class TestCovDerivRiemann:
    def test_minkowski_zero(self):
        assert np.max(np.abs(
            frame_at(minkowski(), (0, 0, 0, 0), 3).cov_riemann)) == 0.0

    def test_one_frame_at_order_three(self, monkeypatch):
        from lorhol import pointcalc
        spec = appendix_metric(b="1 + u^2")
        pt = (1.0, 1.0, 0.2, 0.4)
        lazy = frame_at(spec, pt).cov_riemann
        orders = []
        jets = pointcalc._metric_jets

        def spy(spec, pts, k):
            orders.append(k)
            return jets(spec, pts, k)

        monkeypatch.setattr(pointcalc, "_metric_jets", spy)
        cov = frame_at(spec, pt, 3).cov_riemann
        assert orders == [3]
        assert np.max(np.abs(cov)) > 0 and np.array_equal(cov, lazy)

    def test_cov2_rebuild_serves_cov_riemann(self, monkeypatch):
        from lorhol import pointcalc
        spec = appendix_metric(b="1 + u^2")
        pt = (1.0, 1.0, 0.2, 0.4)
        want = frame_at(spec, pt, 4)
        fr = frame_at(spec, pt)
        orders = []
        frames_at = pointcalc.frames_at

        def spy(spec, pts, order=2):
            orders.append(order)
            return frames_at(spec, pts, order)

        monkeypatch.setattr(pointcalc, "frames_at", spy)
        cov2, cov = fr.cov2_riemann, fr.cov_riemann
        # one order-4 rebuild fills both derivative tensors
        assert orders == [4]
        assert cov2.tobytes() == want.cov2_riemann.tobytes()
        assert cov.tobytes() == want.cov_riemann.tobytes()

    def test_flat_chart_equals_partial(self):
        # constant Christoffels = 0 chart: covariant = partial = 0 for Riem=0
        spec = minkowski()
        fr = frame_at(spec, (0.1, 0.2, 0.3, 0.4))
        assert np.max(np.abs(fr.cov_riemann)) == 0.0


class TestCovDerivSym2:
    def test_metric_gives_zero(self):
        spec = waveband()
        cov = cov_deriv_sym2_at(spec, spec.g, (1.0, 0.5, 0.1, 0.2))
        assert np.max(np.abs(cov)) < 1e-12

    def test_constant_field_on_minkowski(self):
        spec = minkowski()
        field = [[str(v) for v in row] for row in
                 [[2, 0, 0, 1], [0, 3, 0, 0], [0, 0, 5, 0], [1, 0, 0, 7]]]
        comps = tuple(tuple(parse_expr(s, spec.coords) for s in row)
                      for row in field)
        cov = cov_deriv_sym2_at(spec, comps, (0, 0, 0, 0))
        assert np.max(np.abs(cov)) == 0.0

    def test_asymmetric_field_rejected(self):
        spec = minkowski()
        field = [[parse_expr(s, spec.coords) for s in row] for row in
                 [["1", "t", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]]]
        from lorhol.pointcalc import MetricError
        with pytest.raises(MetricError):
            cov_deriv_sym2_at(spec, field, (0, 0, 0, 0))


def test_domain_error_reports_subexpression():
    spec = metric_spec(UVXY, [["-1"], ["0", "1"], ["0", "0", "sqrt(v)"],
                              ["0", "0", "0", "1"]])
    with pytest.raises(DomainError):
        frame_at(spec, (0.0, -2.0, 0.0, 0.0))


def test_domain_error_in_a_derivative_names_it():
    # g is finite at x = 0 but d_x g_yy is not: the diagnosis walks the
    # derivative levels in order and names the first bad subexpression
    spec = metric_spec(UVXY, [["-1"], ["0", "1"], ["0", "0", "1"],
                              ["0", "0", "0", "1 + x*sqrt(x)"]])
    with pytest.raises(DomainError) as exc:
        frame_at(spec, (0.3, 0.2, 0.0, 0.1))
    assert str(exc.value) == "zero raised to a negative power in `x^(-1/2)`"


@pytest.fixture
def compiles(monkeypatch):
    """The arguments of every compile_program call pointcalc makes."""
    from lorhol import pointcalc
    calls, real = [], pointcalc.compile_program
    monkeypatch.setattr(pointcalc, "compile_program",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def _fresh_spec(pname, value):
    # the parameter name appears in no other test, so its program is
    # compiled here first
    return metric_spec(UVXY, [["-1"], ["0", "1"], ["0", "0", "1"],
                              ["0", "0", "0", f"1 + {pname}*u^2"]],
                       {pname: value}, constraints=["u"])


def test_parameter_draws_share_one_program_per_order(compiles):
    from lorhol.pointcalc import admissible_mask, christoffel_batch
    specs = [_fresh_spec("p_draws", v) for v in (0.5, 2.0)]
    pts = np.array([[0.5, 0.1, 0.2, 0.3], [1.5, -0.2, 0.1, 0.4]])
    for run in (admissible_mask, christoffel_batch,
                lambda spec, x: frame_at(spec, x[0])):
        compiles.clear()
        for spec in specs:
            run(spec, pts)
        assert len(compiles) == 1


def test_repeated_christoffel_calls_compile_once(compiles):
    from lorhol.pointcalc import christoffel_batch
    spec = _fresh_spec("p_repeat", 1.0)
    pts = np.array([[0.5, 0.1, 0.2, 0.3]])
    for _ in range(50):
        christoffel_batch(spec, pts)
        assert len(compiles) == 1


class TestCurvatureSignConvention:
    def test_opposite_sign_fails_curvature_relation(self):
        # the Christoffel-to-Riemann sign is pinned by the projective
        # curvature relation closing on the fixture pairs; flipping it
        # must break the round trip loudly
        from lorhol.fixtures import named_fixture
        from lorhol.pointcalc import cov_deriv_batch
        from lorhol.projective import invert_pair

        bundle = named_fixture("r9")
        pts = sample_points(bundle.g, 5, seed=2)
        pp = invert_pair(bundle.pair, pts)
        psi_vals, cov_psi = cov_deriv_batch(bundle.g, pp.psi, pts)
        psi_ab = cov_psi - np.einsum("na,nb->nab", psi_vals, psi_vals)
        delta = np.eye(4)
        worst = {}
        for sign in (1.0, -1.0):
            w = 0.0
            for k, pt in enumerate(pts):
                fr = frame_at(bundle.g, pt)
                frp = frame_at(pp.partner, pt)
                rel = (sign * (frp.riem_ud - fr.riem_ud)
                       - np.einsum("ad,bc->abcd", delta, psi_ab[k])
                       + np.einsum("ac,bd->abcd", delta, psi_ab[k]))
                w = max(w, float(np.max(np.abs(rel))))
            worst[sign] = w
        assert worst[1.0] < 1e-10
        assert worst[-1.0] > 1e-3

    def test_second_cov_deriv_satisfies_ricci_identity(self):
        # independent validation of the 4th-order jet assembly:
        # R;e;f - R;f;e must equal the curvature commutator terms
        spec = appendix_metric(b="1 + u^2", f="x*y")
        fr = frame_at(spec, (1.1, 0.9, 0.3, -0.2))
        c2 = fr.cov2_riemann
        r = fr.riem_ud
        comm = c2 - c2.transpose(0, 1, 2, 3, 5, 4)
        want = (-np.einsum("amef,mbcd->abcdef", r, r)
                + np.einsum("mbef,amcd->abcdef", r, r)
                + np.einsum("mcef,abmd->abcdef", r, r)
                + np.einsum("mdef,abcm->abcdef", r, r))
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(comm - want)) < 1e-8 * scale


class TestChristoffelKernel:
    # rows: good, non-finite jets (sqrt of a negative v), inadmissible
    # (u < 0, jets finite), degenerate (g_xx = x^2 = 0), good again
    PTS = np.array([[1.0, 1.0, 0.5, 0.2], [1.0, -1.0, 0.5, 0.2],
                    [-1.0, 1.0, 0.5, 0.2], [1.0, 1.0, 0.0, 0.2],
                    [0.7, 1.3, -0.4, 0.1]])

    @staticmethod
    def spec():
        return metric_spec(UVXY, [["-1 - u^2"], ["0", "1"],
                                  ["0", "0", "x^2"],
                                  ["0", "0", "0", "sqrt(v)*exp(y)"]],
                           constraints=["u"])

    def test_mask_flags_exactly_the_bad_rows(self):
        from lorhol.pointcalc import _metric_jets, admissible_mask, \
            christoffel_batch
        spec = self.spec()
        gamma, ok, _ = christoffel_batch(spec, self.PTS)
        assert ok.tolist() == [True, False, True, False, True]
        assert (ok & admissible_mask(spec, self.PTS)).tolist() == [
            True, False, False, False, True]
        assert np.all(gamma[~ok] == 0.0)
        # the Christoffel formula assembled as before the kernel merge,
        # on the rows with valid jets; the spec's program is fused, so
        # equal to 1e-14 of the largest entry
        good = self.PTS[ok]
        g, dg = _metric_jets(spec, good, 1)[0]
        ginv = np.linalg.inv(g)
        s = dg.transpose(0, 1, 3, 2) + dg - dg.transpose(0, 3, 1, 2)
        want = 0.5 * np.einsum("nad,ndbc->nabc", ginv, s)
        assert np.max(np.abs(gamma[ok] - want)) <= 1e-14 * np.max(
            np.abs(want))

    def test_admissible_mask_matches_the_standalone_one(self):
        from lorhol.pointcalc import admissible_mask, christoffel_batch
        spec = self.spec()
        # a box straddling u = 0 (the constraint), v = 0 (non-finite
        # jets) and x = 0 (degenerate g), plus non-finite points
        rng = np.random.default_rng(11)
        pts = rng.uniform([-1, -1, -1, -1], [1, 2, 1, 1], size=(200, 4))
        pts[[3, 50, 120]] = [[np.nan, 1, 1, 0], [np.inf, 1, 1, 0],
                             [1, 1, -np.inf, 0]]
        for batch in (self.PTS, pts):
            _, ok, admissible = christoffel_batch(spec, batch)
            want = admissible_mask(spec, batch)
            assert admissible.tolist() == want.tolist()
        assert 0 < np.count_nonzero(admissible) < len(pts)
        assert 0 < np.count_nonzero(ok & admissible) < len(pts)

    def test_raising_helper_reports_first_bad_row(self):
        from lorhol.pointcalc import christoffel_batch, require_valid
        spec = self.spec()
        gamma, ok, _ = christoffel_batch(spec, self.PTS)
        with pytest.raises(DomainError):
            require_valid(spec, self.PTS, ok)
        pts = self.PTS[[0, 3, 1]]
        gamma, ok, _ = christoffel_batch(spec, pts)
        with pytest.raises(DegenerateMetricError,
                           match=r"det g = 0\.000e\+00 at \[1\.0, 1\.0, 0\.0, 0\.2\]"):
            require_valid(spec, pts, ok)
        # inadmissible but finite and non-degenerate: no error
        pts = self.PTS[[0, 2, 4]]
        gamma, ok, _ = christoffel_batch(spec, pts)
        require_valid(spec, pts, ok)

    def test_cov_deriv_raises_on_degenerate_metric(self):
        from lorhol.pointcalc import cov_deriv_batch
        spec = self.spec()
        with pytest.raises(DegenerateMetricError, match="det g = "):
            cov_deriv_batch(spec, spec.g, self.PTS[[0, 3]])


def _eval_once(e, point, spec, memo):
    """eval_expr of ``e`` with each shared subexpression walked once: a
    node's children enter as constants holding their values, which is
    exact because a float round-trips through Fraction."""
    from lorhol.exprdsl import Const, Expr, eval_expr
    if e not in memo:
        fields = [Const(_eval_once(f, point, spec, memo))
                  if isinstance(f, Expr) else f
                  for f in (getattr(e, n) for n in e._fields)]
        memo[e] = eval_expr(type(e)(*fields), point, spec.coords,
                            spec.params)
    return memo[e]


@pytest.mark.parametrize("field", ["a", "lam"])
def test_jet_table_scatter_matches_derivative_chains(field):
    # every index permutation of orders 0..3 against eval_expr of
    # differentiate applied in that permutation's order
    from lorhol.exprdsl import differentiate
    from lorhol.fixtures import named_fixture
    from lorhol.pointcalc import _field_jets

    pair = named_fixture("r9").pair
    spec = pair.base
    comps = pair.a if field == "a" else pair.lam_exprs()
    rank = 2 if field == "a" else 1
    point = sample_points(spec, 1, seed=5)
    jets = _field_jets(spec, comps, point, 3)
    assert len(jets) == 4
    memo = {}
    for order, arr in enumerate(jets):
        assert arr.shape == (1,) + (4,) * (rank + order)
        for idx in np.ndindex(arr.shape[1:]):
            e = comps[idx[0]] if rank == 1 else comps[idx[0]][idx[1]]
            for c in idx[rank:]:
                e = differentiate(e, spec.coords[c])
            want = _eval_once(e, point[0], spec, memo)
            assert arr[(0,) + idx] == pytest.approx(want, rel=1e-12,
                                                    abs=1e-12), idx


FIXTURES = ["minkowski", "r11", "r10", "r13", "r9", "r14", "r9-b0"]


class TestFramesAt:
    @pytest.mark.parametrize("partner", [False, True])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_batch_equals_frame_at_bitwise(self, name, partner):
        from helpers import fixture_spec
        from lorhol.pointcalc import _CHUNK, frames_at
        spec = fixture_spec(name, partner)
        # one order-4 chunk and a partial second; each frame_at is a
        # chunk of one row
        pts = sample_points(spec, _CHUNK + 3, seed=4)
        singles = [frame_at(spec, p) for p in pts]
        for order in (2, 3, 4):
            frames = list(frames_at(spec, pts, order))
            assert len(frames) == len(pts)
            for fr, one in zip(frames, singles):
                assert fr.point is not None and np.array_equal(fr.point,
                                                               one.point)
                for attr in ("g", "gamma", "riem_ud", "ginv", "ricci",
                             "weyl_ud", "cov_riemann", "cov2_riemann"):
                    got, want = getattr(fr, attr), getattr(one, attr)
                    assert got.shape == want.shape, (order, attr)
                    assert got.tobytes() == want.tobytes(), (order, attr)
                # the chunk's g^-1 and the lazy det g are the per-row ones
                assert fr.ginv.tobytes() == np.linalg.inv(fr.g).tobytes()
                assert (np.float64(fr.detg).tobytes()
                        == np.linalg.det(fr.g).tobytes())

    # g = diag(-1, t, 1, sqrt(x)) on y > 0; each bad point with the
    # exception and message frame_at raises there
    GOOD = [[1.0, 1.0, 1.0, 0.0], [0.5, 2.0, 0.3, 0.7]]
    BAD = {"inadmissible": ([1.0, 1.0, -1.0, 0.0], AdmissibilityError,
                            "point [1.0, 1.0, -1.0, 0.0] violates the "
                            "domain constraints"),
           "non-finite": ([1.0, -1.0, 1.0, 0.0], DomainError,
                          "fractional power of a negative value in "
                          "`sqrt(x)`"),
           "degenerate": ([0.0, 1.0, 1.0, 0.0], DegenerateMetricError,
                          "det g = 0.000e+00 at [0.0, 1.0, 1.0, 0.0]"),
           "non-Lorentz": ([-1.0, 1.0, 1.0, 0.0], SignatureError,
                           "signature (-1, -1, 1, 1) is not Lorentz"),
           # det g passes, one eigenvalue is under 1e-10 max(1, max|eig|)
           "near-zero eigenvalue": ([5e-11, 1.0, 1.0, 0.0],
                                    DegenerateMetricError,
                                    "metric has a (near-)zero eigenvalue")}

    @staticmethod
    def bad_spec():
        return metric_spec(("t", "x", "y", "z"),
                           [["-1"], ["0", "t"], ["0", "0", "1"],
                            ["0", "0", "0", "sqrt(x)"]],
                           constraints=["y"])

    @pytest.mark.parametrize("kind", list(BAD))
    def test_first_bad_row_raises_what_frame_at_raises(self, kind):
        from lorhol.pointcalc import frames_at
        spec = self.bad_spec()
        point, error, message = self.BAD[kind]
        with pytest.raises(error) as single:
            frame_at(spec, point)
        assert type(single.value) is error and str(single.value) == message
        # every kind of bad row follows the first one
        later = [p for k, (p, _, _) in self.BAD.items() if k != kind]
        pts = np.array(self.GOOD + [point] + later + self.GOOD)
        frames = frames_at(spec, pts)
        for p in self.GOOD:
            fr = next(frames)
            assert fr.riem_ud.tobytes() == frame_at(spec, p).riem_ud.tobytes()
        with pytest.raises(error) as batched:
            next(frames)
        assert type(batched.value) is error and str(batched.value) == message

    def test_stack_never_spans_more_than_one_chunk(self, monkeypatch):
        from helpers import fixture_spec
        from lorhol import pointcalc
        spec = fixture_spec("r14", True)
        stack = pointcalc._riemann_derivative_stack
        rows = []

        def spy(jets):
            rows.append(len(jets[0]))
            return stack(jets)

        monkeypatch.setattr(pointcalc, "_riemann_derivative_stack", spy)
        for order, chunk in ((4, pointcalc._CHUNK),
                             (3, 4 * pointcalc._CHUNK),
                             (2, 16 * pointcalc._CHUNK)):
            pts = sample_points(spec, 2 * chunk + 3, seed=4)
            rows.clear()
            frames = pointcalc.frames_at(spec, pts, order)
            next(frames)
            # the first chunk's frames come before the next chunk is built
            assert rows == [chunk]
            assert len(list(frames)) == len(pts) - 1
            assert rows == [chunk, chunk, 3]

    def test_empty_batch_and_bad_shape(self):
        from lorhol.pointcalc import frames_at
        spec = self.bad_spec()
        assert list(frames_at(spec, np.empty((0, 4)))) == []
        with pytest.raises(MetricError, match="4 coordinates"):
            next(frames_at(spec, np.ones((2, 3))))


@pytest.mark.parametrize("n", [0, -3])
def test_sample_points_rejects_counts_below_one(n):
    with pytest.raises(MetricError, match="at least one sample point"):
        sample_points(waveband(), n)


# the 7 fixtures and the 6 partners that differ from their fixture
FIXTURES_AND_PARTNERS = ([(n, False) for n in FIXTURES]
                         + [(n, True) for n in FIXTURES if n != "minkowski"])


def _reference_christoffel(spec, pts):
    """christoffel_batch with g inverted by numpy: the order-1 jets,
    masks and determinant test (_metric_jets), then np.linalg.inv and one
    einsum."""
    from lorhol.pointcalc import _metric_jets
    (g, dg), _, admissible, ok = _metric_jets(spec, pts, 1)
    g[~ok] = np.eye(4)
    dg[~ok] = 0.0
    # s[n,d,b,c] = d_b g_dc + d_c g_db - d_d g_bc
    s = dg.transpose(0, 1, 3, 2) + dg - dg.transpose(0, 3, 1, 2)
    return (0.5 * np.einsum("nad,ndbc->nabc", np.linalg.inv(g), s), ok,
            admissible)


def _around_the_box(spec, n):
    # a box twice as wide as the sample box, so some rows leave the
    # domain and some have non-finite jets
    lo, hi = np.array(spec.sample_box).T
    mid, half = (lo + hi) / 2, hi - lo
    return np.random.default_rng(n).uniform(mid - half, mid + half,
                                            size=(n, 4))


# the fixtures, their partners and the partners as the raw adjugate
# formula (helpers.raw_partner), tagged "raw"
EVERY_METRIC = FIXTURES_AND_PARTNERS + [(n, "raw") for n in FIXTURES
                                        if n != "minkowski"]


def _metric(name, partner):
    from helpers import fixture_spec, raw_partner
    return raw_partner(name) if partner == "raw" else \
        fixture_spec(name, partner)


@pytest.mark.parametrize("name,partner", EVERY_METRIC)
def test_fused_christoffels_match_the_numeric_path(name, partner):
    from lorhol.pointcalc import christoffel_batch
    spec = _metric(name, partner)
    for n in (20, 240):
        # Gamma at points of the domain; the masks there and around it
        pts = sample_points(spec, n, seed=5)
        gamma = christoffel_batch(spec, pts)[0]
        want = _reference_christoffel(spec, pts)[0]
        assert np.max(np.abs(gamma - want)) <= 1e-14 * np.max(np.abs(want))
        for pts in (pts, _around_the_box(spec, n)):
            gamma, ok, admissible = christoffel_batch(spec, pts)
            _, want_ok, want_admissible = _reference_christoffel(spec, pts)
            assert ok.tolist() == want_ok.tolist()
            assert admissible.tolist() == want_admissible.tolist()
            assert np.all(gamma[~ok] == 0.0)


@pytest.mark.parametrize("name,partner", EVERY_METRIC)
def test_christoffel_rows_equal_the_three_term_form(name, partner):
    # s_bbb = d_b g_bb is (x + x) - x in IEEE arithmetic: det g and the
    # Gamma rows of the fused program are the three-term form's bit for
    # bit
    from helpers import three_term_christoffel_rows
    from lorhol.pointcalc import (
        _christoffel_kernel, _fused_program, _FusedStages,
    )
    spec = _metric(name, partner)
    pts = sample_points(spec, 16, seed=5)
    three_term = three_term_christoffel_rows(spec.g, spec.coords)
    blocks = []
    for kernel in (_christoffel_kernel(spec),
                   partial(_FusedStages, *_fused_program(spec, three_term))):
        stages = kernel(1, 16)
        stages(pts)
        blocks.append(stages.vals[0, -41:])
    assert np.isfinite(blocks[0]).all()
    assert blocks[0].tobytes() == blocks[1].tobytes()


def test_stage_buffer_keeps_exact_constant_rows():
    # the fused program leaves its constant rows (r9's zero Gamma rows
    # among them) to the stage buffer, which writes them when it is
    # built: after rewind() and in a buffer rebuilt for a smaller batch
    # every slice is the evaluator's whole block, bit for bit
    from helpers import fixture_spec
    from lorhol.pointcalc import (
        _christoffel_kernel, _christoffel_rows, _jet_program,
    )
    spec = fixture_spec("r9")
    kernel = _christoffel_kernel(spec)
    program, values, _ = kernel.args
    assert len(program.const_rows[0]) > 10
    evaluate = _jet_program(spec.g, spec.coords, spec.params.names(), 1,
                            spec.constraints
                            + _christoffel_rows(spec.g, spec.coords))[0]
    pts = sample_points(spec, 20, seed=5)
    want = evaluate(pts, values)
    for n in (20, 7):
        stages = kernel(3, n)
        for _ in range(2):
            stages.rewind()
            for _ in range(3):
                stages(pts[:n])
            assert stages.vals.tobytes() == np.stack([want[:, :n]] * 3
                                                     ).tobytes()


@pytest.mark.parametrize("name", ["r9", "r11", "r14", "r9-b0"])
def test_christoffel_rows_drop_the_three_term_s_bbb(name):
    from helpers import fixture_spec, three_term_christoffel_rows
    from lorhol.exprdsl import count_lines
    from lorhol.pointcalc import _christoffel_rows
    g = fixture_spec(name)
    assert (count_lines(_christoffel_rows(g.g, g.coords))
            < count_lines(three_term_christoffel_rows(g.g, g.coords)))


def test_line_budget_fuses_the_fixtures_and_their_partners():
    # one kernel for every metric: the fixtures, their partners in normal
    # form and as the raw adjugate formula
    from lorhol.pointcalc import _christoffel_kernel, _FusedStages
    for name, partner in EVERY_METRIC:
        spec = _metric(name, partner)
        assert _christoffel_kernel(spec).func is _FusedStages, (name, partner)


class TestBlockValidity:
    """The fused Christoffel path tests a whole block's validity at once
    and takes the per-row masks only when that test fails; its triple
    must equal the per-row path's bit for bit either way."""

    @staticmethod
    def per_row(spec, pts):
        # the fused path with the per-row masks only
        from lorhol.pointcalc import (
            _GAMMA_ROWS, _christoffel_kernel, _nondegenerate, _row_masks,
        )
        stages = _christoffel_kernel(spec)(1, len(pts))
        vals = stages.vals[0]
        with np.errstate(all="ignore"):
            stages(pts)
            finite, admissible = _row_masks(vals[:-41], pts.T, 50)
            ok = finite & _nondegenerate(vals[-41],
                                         np.abs(vals[:10]).max(axis=0))
        gamma = vals[-40:][_GAMMA_ROWS].T.reshape(len(pts), 4, 4, 4)
        gamma[~ok] = 0.0
        return gamma, ok, admissible

    def check(self, spec, pts, monkeypatch, per_row_taken):
        from lorhol import pointcalc
        from lorhol.pointcalc import christoffel_batch
        taken = []
        row_masks = pointcalc._row_masks
        monkeypatch.setattr(pointcalc, "_row_masks",
                            lambda *a: taken.append(1) or row_masks(*a))
        got = christoffel_batch(spec, pts)
        monkeypatch.undo()
        want = self.per_row(spec, pts)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert not np.shares_memory(got[1], got[2])
        assert bool(taken) == per_row_taken
        return got

    @staticmethod
    def appendix():
        from helpers import fixture_spec
        spec = fixture_spec("r9")
        return spec, sample_points(spec, 20, seed=3)

    def test_every_row_valid(self, monkeypatch):
        spec, pts = self.appendix()
        _, ok, admissible = self.check(spec, pts, monkeypatch, False)
        assert ok.all() and admissible.all()
        gamma, ok, admissible = self.check(spec, pts[:0], monkeypatch, True)
        assert gamma.shape == (0, 4, 4, 4) and ok.shape == admissible.shape

    @staticmethod
    def flat_but_v():
        # a metric that reads v alone, so most coordinates reach no jet
        return metric_spec("uvxy", [["-1"], ["0", "1 + v^2"],
                                    ["0", "0", "1"], ["0", "0", "0", "1"]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_one_coordinate_not_finite(self, monkeypatch, bad):
        spec, pts = self.appendix()
        pts[7, 2] = bad
        _, ok, admissible = self.check(spec, pts, monkeypatch, True)
        assert admissible.tolist() == [i != 7 for i in range(20)]
        assert not ok[7] and ok.sum() == 19
        # a coordinate that no jet reads: the jets stay finite and g
        # non-degenerate, and only the point's own finiteness rejects it
        pts = np.full((5, 4), 0.5)
        pts[2, 3] = bad
        _, ok, admissible = self.check(self.flat_but_v(), pts, monkeypatch,
                                       True)
        assert ok.all() and np.flatnonzero(~admissible).tolist() == [2]

    @pytest.mark.parametrize("us, inadmissible, degenerate", [
        ((-1.0,), [3], []), ((-1.0, 0.0), [3, 11], [11])])
    def test_constraint_not_positive(self, monkeypatch, us, inadmissible,
                                     degenerate):
        # r9's constraints are v, u and 1 + xi*u: u = -1 leaves the jets
        # finite and g non-degenerate, u = 0 makes g degenerate
        spec, pts = self.appendix()
        pts[[3, 11][:len(us)], 0] = us
        _, ok, admissible = self.check(spec, pts, monkeypatch, True)
        assert np.flatnonzero(~admissible).tolist() == inadmissible
        assert np.flatnonzero(~ok).tolist() == degenerate

    def test_one_row_degenerate_at_the_threshold(self, monkeypatch):
        # det g = -x^2 against 1e-12 max|g|^4 = 1e-12: rows just above
        # and just below the threshold decide per row
        spec = metric_spec("uvxy", [["-1"], ["0", "1"], ["0", "0", "1"],
                                    ["0", "0", "0", "x^2"]])
        pts = np.zeros((6, 4))
        pts[:, 2] = [0.5, 1e-6 * (1 + 1e-9), 1e-6 * (1 - 1e-9), 0.0, 0.3,
                     -0.7]
        _, ok, admissible = self.check(spec, pts, monkeypatch, True)
        assert ok.tolist() == [True, True, False, False, True, True]
        assert admissible.all()

    @pytest.mark.parametrize("bad", [False, True])
    def test_four_stages_decide_as_each_block(self, bad):
        # an RK4 step's four blocks in one _FusedStages: one whole-step
        # test over all of them, and per-block masks and Gamma equal to
        # the per-row path's on each block
        from lorhol.pointcalc import _christoffel_kernel
        spec, pts = self.appendix()
        blocks = [pts, pts[::-1].copy(), pts + 0.01, pts.copy()]
        if bad:
            # u = -1 is outside the domain, u = 0 makes g degenerate
            blocks[2][5, 0], blocks[3][11, 0] = -1.0, 0.0
        stages = _christoffel_kernel(spec)(4, len(pts))
        with np.errstate(all="ignore"):
            gammas = [stages(b) for b in blocks]
            valid = stages.valid()
            ok, admissible = stages.masks()
        assert valid is not bad
        for k, b in enumerate(blocks):
            gamma, want_ok, want_admissible = self.per_row(spec, b)
            assert ok[k].tolist() == want_ok.tolist()
            assert admissible[k].tolist() == want_admissible.tolist()
            masked = np.where(ok[k][:, None, None, None], gammas[k], 0.0)
            assert masked.tobytes() == gamma.tobytes()
        assert (~ok).sum() == bad and (~admissible).sum() == 2 * bad

    def test_finite_entries_whose_sum_overflows(self, monkeypatch):
        # the block test's sums overflow here; every row is valid all the
        # same
        pts = np.full((4, 4), 0.5)
        pts[:2, 0] = 1.5e308
        _, ok, admissible = self.check(self.flat_but_v(), pts, monkeypatch,
                                       True)
        assert ok.all() and admissible.all()

    def test_finite_entries_whose_fourth_power_overflows(self, monkeypatch):
        # g_vv = exp(x) ~ 1e80 and 1e87: the squares in the block test stay
        # finite, max|g|^4 does not, and those rows are degenerate per row
        from lorhol.pointcalc import DegenerateMetricError, cov_deriv_batch
        spec = metric_spec("uvxy", [["-1"], ["0", "exp(x)"], ["0", "0", "1"],
                                    ["0", "0", "0", "1"]])
        pts = np.full((4, 4), 0.5)
        pts[:, 2] = [0.5, 184.2, 0.3, 200.0]
        _, ok, admissible = self.check(spec, pts, monkeypatch, True)
        assert ok.tolist() == [True, False, True, False] and admissible.all()
        _, ok, _ = self.check(spec, pts[[1, 3]], monkeypatch, True)
        assert not ok.any()
        with pytest.raises(DegenerateMetricError):
            cov_deriv_batch(spec, spec.g, pts)


@pytest.mark.parametrize("name,partner", FIXTURES_AND_PARTNERS)
def test_derivative_stack_matches_reference(name, partner):
    # the Gamma-recursion stack against the explicit d^k g^ab formulas
    from helpers import fixture_spec, reference_riemann_stack
    from lorhol.pointcalc import (
        _metric_jets, _riemann_derivative_stack, _unpack,
    )
    spec = fixture_spec(name, partner)
    jets = _metric_jets(spec, sample_points(spec, 16, seed=4), 4)[0]
    got = _riemann_derivative_stack(jets)
    got["covR"], got["cov2R"] = _unpack(got["covR6"]), _unpack(got["cov2R6"])
    want = reference_riemann_stack(jets)
    for key in ("gamma", "R", "covR", "cov2R"):
        scale = np.max(np.abs(want[key]))
        assert np.max(np.abs(got[key] - want[key])) <= 1e-13 * scale, key


def _frames_at_order_4(name, partner):
    from helpers import fixture_spec
    from lorhol.pointcalc import frames_at
    spec = fixture_spec(name, partner)
    return list(frames_at(spec, sample_points(spec, 4, seed=2), 4))


# The two identities below read only the full tensors that frames unpack
# on read, with plain index arithmetic: they share no code with the
# stack.  Both hold to about 5e-16 relative on every fixture and
# partner; 1e-14 leaves room for rounding, not for a wrong term.
@pytest.mark.parametrize("name,partner", FIXTURES_AND_PARTNERS)
def test_second_bianchi_identity(name, partner):
    # R^a_bcd;e + R^a_bde;c + R^a_bec;d = 0
    for fr in _frames_at_order_4(name, partner):
        cr = fr.cov_riemann
        cyc = cr + cr.transpose(0, 1, 3, 4, 2) + cr.transpose(0, 1, 4, 2, 3)
        assert np.max(np.abs(cyc)) <= 1e-14 * np.max(np.abs(cr))


@pytest.mark.parametrize("name,partner", FIXTURES_AND_PARTNERS)
def test_ricci_identity(name, partner):
    # with f the second derivative, R^a_bcd;ef - R^a_bcd;fe = R^m_bef
    # R^a_mcd + R^m_cef R^a_bmd + R^m_def R^a_bcm - R^a_mef R^m_bcd
    for fr in _frames_at_order_4(name, partner):
        c2, r = fr.cov2_riemann, fr.riem_ud
        terms = [np.einsum("mbef,amcd->abcdef", r, r),
                 np.einsum("mcef,abmd->abcdef", r, r),
                 np.einsum("mdef,abcm->abcdef", r, r),
                 -np.einsum("amef,mbcd->abcdef", r, r)]
        scale = max(np.max(np.abs(t)) for t in [c2] + terms)
        commutator = c2 - c2.transpose(0, 1, 2, 3, 5, 4)
        assert np.max(np.abs(commutator - sum(terms))) <= 1e-14 * scale


@pytest.mark.parametrize("c", [1e6, 1e-6])
def test_packed_derivatives_are_unchanged_by_scaling_g(c):
    # g -> c g leaves Gamma, R^a_bcd and its covariant derivatives as
    # they are
    from helpers import fixture_spec
    from lorhol.pointcalc import _metric_jets, _riemann_derivative_stack
    for name, partner in FIXTURES_AND_PARTNERS:
        spec = fixture_spec(name, partner)
        jets = _metric_jets(spec, sample_points(spec, 4, seed=4), 4)[0]
        got = _riemann_derivative_stack(jets)
        scaled = _riemann_derivative_stack(tuple(c * j for j in jets))
        for key in ("covR6", "cov2R6"):
            assert (np.max(np.abs(scaled[key] - got[key]))
                    <= 1e-12 * np.max(np.abs(got[key]))), (name, key)


def test_stack_unpacks_a_full_tensor_when_read():
    # the stack keeps R;e and R;e;f packed; _unpack lays them out in
    # full: the pairs c < d as stored, their negatives below the diagonal
    from helpers import fixture_spec
    from lorhol.pointcalc import (
        _metric_jets, _riemann_derivative_stack, _unpack,
    )
    spec = fixture_spec("r14")
    stack = _riemann_derivative_stack(
        _metric_jets(spec, sample_points(spec, 2, seed=4), 4)[0])
    assert "covR" not in stack and "cov2R" not in stack
    for key in ("covR", "cov2R"):
        six = stack[key + "6"]
        full = _unpack(six)
        for p, (c, d) in enumerate([(c, d) for c in range(4)
                                    for d in range(c + 1, 4)]):
            assert np.array_equal(
                np.moveaxis(full[:, :, :, c, d], (1, 2), (-2, -1)),
                six[..., p])
        assert np.array_equal(full, -full.swapaxes(3, 4))
