import numpy as np
import pytest

from lorhol.exprdsl import DomainError, parse_expr
from lorhol.pointcalc import (
    AdmissibilityError, DegenerateMetricError, MetricError, SignatureError,
    cov_deriv_riemann_at, cov_deriv_sym2_at, frame_at, metric_spec,
    sample_points, signature_at, weyl_conformal_at,
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
        assert np.max(np.abs(weyl_conformal_at(
            frame_at(minkowski(), (0, 0, 0, 0))))) == 0.0

    def test_weyl_traceless(self):
        spec = appendix_metric(b="1+u^2", f="x^2+y^2")
        for pt in sample_points(spec, 10, seed=9):
            c = weyl_conformal_at(frame_at(spec, pt))
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
        assert np.max(np.abs(cov_deriv_riemann_at(
            minkowski(), (0, 0, 0, 0)))) == 0.0

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
        cov = cov_deriv_riemann_at(spec, pt)
        assert orders == [3]
        assert np.max(np.abs(cov)) > 0 and np.array_equal(cov, lazy)

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
        from lorhol.pointcalc import _metric_table, admissible_mask, \
            christoffel_batch
        spec = self.spec()
        gamma, ok, _ = christoffel_batch(spec, self.PTS)
        assert ok.tolist() == [True, False, True, False, True]
        assert (ok & admissible_mask(spec, self.PTS)).tolist() == [
            True, False, False, False, True]
        assert np.all(gamma[~ok] == 0.0)
        # the Christoffel formula assembled as before the kernel merge,
        # on the rows with valid jets: equal bit for bit
        good = self.PTS[ok]
        g, dg = _metric_table(spec).evaluate(good, 1)
        ginv = np.linalg.inv(g)
        s = dg.transpose(0, 1, 3, 2) + dg - dg.transpose(0, 3, 1, 2)
        want = 0.5 * np.einsum("nad,ndbc->nabc", ginv, s)
        assert np.array_equal(gamma[ok], want)

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
    from lorhol.pointcalc import _field_table

    pair = named_fixture("r9").pair
    spec = pair.base
    comps = pair.a if field == "a" else pair.lam_exprs()
    rank = 2 if field == "a" else 1
    point = sample_points(spec, 1, seed=5)
    jets = _field_table(spec, comps).evaluate(point, 3)
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
                for attr in ("g", "dg", "gamma", "riem_ud", "cov_riemann",
                             "cov2_riemann"):
                    got, want = getattr(fr, attr), getattr(one, attr)
                    assert got.shape == want.shape, (order, attr)
                    assert got.tobytes() == want.tobytes(), (order, attr)

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
                           "signature (-1, -1, 1, 1) is not Lorentz")}

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
@pytest.mark.parametrize("name,partner", [(n, False) for n in FIXTURES]
                         + [(n, True) for n in FIXTURES if n != "minkowski"])
def test_derivative_stack_matches_reference(name, partner):
    # the Gamma-recursion stack against the explicit d^k g^ab formulas
    from helpers import fixture_spec, reference_riemann_stack
    from lorhol.pointcalc import _metric_jets, _riemann_derivative_stack
    spec = fixture_spec(name, partner)
    jets = _metric_jets(spec, sample_points(spec, 16, seed=4), 4)[0]
    got = _riemann_derivative_stack(jets)
    want = reference_riemann_stack(jets)
    for key in ("R", "covR", "cov2R"):
        scale = np.max(np.abs(want[key]))
        assert np.max(np.abs(got[key] - want[key])) <= 1e-13 * scale, key
