from fractions import Fraction

import numpy as np
import pytest

from lorhol.bivector import (
    BASIS_INDEX, SVD_TOL, Bivector, antisym_from_six, canonical_span_basis,
    classify_bivector, hodge_dual, null_basis, svd_rank, to_six, wedge,
)
from lorhol.curvclass import (
    ClassificationError, classify_curvature, solve_theorem1,
)
from lorhol.pointcalc import (
    PointFrame, frame_at, frames_at, metric_spec, sample_points,
)

from helpers import (
    ETA, biv_low, fixture_spec, kernel_vectors_gram_schmidt,
    lazy_field_frames, minkowski_frame, null_tetrad, random_lorentz,
    scaled_spec, solve_theorem1_loop, synthetic_class_b, synthetic_class_c,
    synthetic_class_d,
)


def appendix_metric(b="1 + u^2", f="x*y"):
    return metric_spec(("u", "v", "x", "y"),
                       [[f"({b})*sqrt(v)"], ["1", "0"],
                        ["0", "0", f"u^2*exp({f})"],
                        ["0", "0", "0", f"u^2*exp({f})"]],
                       constraints=["v", "u"],
                       sample_box=[(0.5, 2), (0.5, 2), (-1, 1), (-1, 1)])


def _unit(i, j):
    """The 4x4 array with a single 1 at (i, j)."""
    out = np.zeros((4, 4))
    out[i, j] = 1.0
    return out


def _blade(i, j):
    """e_i ^ e_j as an antisymmetric 4x4 array."""
    return _unit(i, j) - _unit(j, i)


class TestKernelVectors:
    def test_class_d_kernel_spans_dual_blade(self):
        l, n, x, y = null_tetrad()
        fr = synthetic_class_d(biv_low(x, y))
        kern = classify_curvature(fr).kernel
        assert len(kern) == 2
        # kernel = blade of *F = span{l, n}
        for k in kern:
            assert abs(k @ ETA @ x) < 1e-10
            assert abs(k @ ETA @ y) < 1e-10

    def test_class_b_kernel_trivial(self):
        l, n, x, y = null_tetrad()
        fr = synthetic_class_b(l, n, x, y)
        assert len(classify_curvature(fr).kernel) == 0

    def test_flat_kernel_everything(self):
        assert len(classify_curvature(minkowski_frame()).kernel) == 4

    def test_kernel_is_the_canonical_null_basis(self):
        # an r11 point in a rotated, boosted basis, where the kernel is
        # no pair of coordinate directions
        spec = fixture_spec("r11")
        fr = frame_at(spec, sample_points(spec, 1, seed=1)[0])
        lam = random_lorentz(np.random.default_rng(3))
        fr = PointFrame.synthetic(
            lam.T @ fr.g @ lam, np.einsum("ae,bf,cg,dh,efgh->abcd",
                                          lam, lam, lam, lam, fr.riem_dddd))
        want = null_basis(fr.riem_dddd.reshape(64, 4))
        assert len(want) == 2 and np.count_nonzero(want) > 2
        assert classify_curvature(fr).kernel.tobytes() == want.tobytes()


class TestClassify:
    def test_minkowski_is_O(self):
        assert classify_curvature(minkowski_frame()).tag == "O"

    def test_appendix_generic_point_is_A(self):
        spec = appendix_metric(b="1 + u^2", f="x*y")
        for pt in sample_points(spec, 10, seed=2):
            assert classify_curvature(frame_at(spec, pt)).tag == "A"

    def test_appendix_b_zero_is_D(self):
        spec = appendix_metric(b="0", f="x^2 + y^2")
        for pt in sample_points(spec, 10, seed=4):
            rep = classify_curvature(frame_at(spec, pt))
            assert rep.tag == "D"
            assert rep.f_class.tag == "simple-spacelike"

    def test_synthetic_d_spacelike(self):
        l, n, x, y = null_tetrad()
        rep = classify_curvature(synthetic_class_d(biv_low(x, y), alpha=2.0))
        assert rep.tag == "D"
        assert rep.f_class.theta > 0

    def test_synthetic_d_null_and_timelike(self):
        l, n, x, y = null_tetrad()
        rep = classify_curvature(synthetic_class_d(biv_low(l, x)))
        assert rep.tag == "D" and rep.f_class.tag == "simple-null"
        rep = classify_curvature(synthetic_class_d(biv_low(l, n)))
        assert rep.tag == "D" and rep.f_class.theta < 0

    def test_synthetic_b(self):
        l, n, x, y = null_tetrad()
        rep = classify_curvature(synthetic_class_b(l, n, x, y, 1.0, 1.0))
        assert rep.tag == "B"
        f, fdual = rep.dual_pair
        assert classify_bivector(f).tag == "simple-timelike"

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_class_b_pair_under_lorentz_and_metric_scale(self, c):
        # Riem = alpha F (x) F + beta *F (x) *F with F = l^n, pushed by a
        # random Lorentz transform L and with g -> c g: the pair is
        # (G, *G), G simple timelike with G_ab G^ab = -2, *G in the
        # range, and G = +-(L l^n L^T) / c
        rng = np.random.default_rng(11)
        for _ in range(10):
            lam = random_lorentz(rng)
            l, n, x, y = null_tetrad(lam)
            alpha, beta = rng.uniform(0.2, 2.0, size=2) * rng.choice(
                [-1, 1], size=2)
            fr = synthetic_class_b(l, n, x, y, alpha, beta)
            fr = PointFrame.synthetic(c * fr.g, c * fr.riem_dddd)
            rep = classify_curvature(fr)
            assert rep.tag == "B"
            G, dual = rep.dual_pair
            assert classify_bivector(G, 1e-8).tag == "simple-timelike"
            assert G.theta == pytest.approx(-2.0, rel=1e-9)
            assert np.max(np.abs(dual.comps - hodge_dual(G).comps)) == 0.0
            span = [to_six(b) for b in rep.range_basis]
            assert len(canonical_span_basis(span + [to_six(dual)],
                                            1e-8)) == 2
            want = (np.outer(l, n) - np.outer(n, l)) / c
            err = min(np.max(np.abs(G.comps - s * want)) for s in (1, -1))
            assert err <= 1e-9 * np.max(np.abs(want))

    def test_null_star_closed_range_has_no_class_b_pair(self):
        # Riem = F (x) F + *F (x) *F with F = l^x null: the range is
        # closed under * but holds no timelike bivector.  Both annihilate
        # l, so classify_curvature reads class C first
        from lorhol.curvclass import _class_b_structure
        l, n, x, y = null_tetrad(random_lorentz(np.random.default_rng(4)))
        f, fs = biv_low(l, x), biv_low(l, y)
        fr = PointFrame.synthetic(ETA, np.einsum("ab,cd->abcd", f, f)
                                  + np.einsum("ab,cd->abcd", fs, fs))
        rep = classify_curvature(fr)
        assert rep.range_dim == 2
        assert _class_b_structure(rep.range_basis) is None
        assert rep.tag == "C"

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1e6, 1e12])
    def test_flat_and_curved_under_metric_scale(self, c):
        # g -> c g leaves R^a_bcd and so the class alone
        l, n, x, y = null_tetrad()
        for fr in (minkowski_frame(), synthetic_class_d(biv_low(x, y)),
                   synthetic_class_b(l, n, x, y)):
            scaled = PointFrame.synthetic(c * fr.g, c * fr.riem_dddd)
            assert (classify_curvature(scaled).tag
                    == classify_curvature(fr).tag)

    @pytest.mark.parametrize("c", [Fraction(1, 10 ** 12), 10 ** 12],
                             ids=["1e-12", "1e12"])
    def test_fixture_classes_under_metric_scale(self, c):
        # g -> c g of a fixture's spec: every eigenvalue of g scales by
        # c, and the signature test with it
        for name in ("r11", "r9", "r14"):
            spec, scaled = fixture_spec(name), scaled_spec(name, c)
            pts = sample_points(spec, 4, seed=2)
            assert ([classify_curvature(fr).tag for fr in frames_at(spec, pts)]
                    == [classify_curvature(fr).tag
                        for fr in frames_at(scaled, pts)])

    def test_oracle_200_random_synthetic(self):
        # classes B and D under random Lorentz-transformed tetrads
        rng = np.random.default_rng(42)
        for i in range(200):
            lam = random_lorentz(rng)
            l, n, x, y = null_tetrad(lam)
            alpha = rng.uniform(0.2, 2.0) * rng.choice([-1, 1])
            beta = rng.uniform(0.2, 2.0) * rng.choice([-1, 1])
            if i % 2 == 0:
                fr = synthetic_class_b(l, n, x, y, alpha, beta)
                rep = classify_curvature(fr)
                assert rep.tag == "B"
                assert len(rep.kernel) == 0
            else:
                p, q = [(l, n), (x, y), (l, x)][i % 3]
                fr = synthetic_class_d(biv_low(p, q), alpha)
                rep = classify_curvature(fr)
                assert rep.tag == "D"
                assert len(rep.kernel) == 2

    def test_classification_lorentz_invariant(self):
        spec = appendix_metric(b="0", f="x^2+y^2")
        fr = frame_at(spec, (1.0, 1.0, 0.2, -0.1))
        rep0 = classify_curvature(fr)
        rng = np.random.default_rng(9)
        for _ in range(10):
            lam = random_lorentz(rng)
            # transform to a non-coordinate basis: g -> L^T g L etc.
            g2 = lam.T @ fr.g @ lam
            riem2 = np.einsum("ae,bf,cg,dh,efgh->abcd",
                              lam, lam, lam, lam, fr.riem_dddd)
            rep = classify_curvature(PointFrame.synthetic(g2, riem2))
            assert rep.tag == rep0.tag

    def test_margin_reported(self):
        l, n, x, y = null_tetrad()
        rep = classify_curvature(synthetic_class_d(biv_low(x, y)))
        assert 0.0 <= rep.margin < 1e-9

    def test_class_d_point_reduces_only_what_it_reads(self, monkeypatch):
        # one one-matrix reduction, the range of the curvature map that
        # the simple-F test reads; the kernel and the blade of F wait for
        # their readers
        from lorhol import bivector
        from helpers import fixture_spec
        spec = fixture_spec("r11")
        fr = frame_at(spec, sample_points(spec, 1, seed=1)[0])
        span_bases, blade = bivector._span_bases, bivector._blade_from_svd
        stacks, blades = [], []

        def span_spy(stack, tol):
            stacks.append(len(stack))
            return span_bases(stack, tol)

        def blade_spy(f, tol):
            blades.append(tol)
            return blade(f, tol)

        monkeypatch.setattr(bivector, "_span_bases", span_spy)
        monkeypatch.setattr(bivector, "_blade_from_svd", blade_spy)
        rep = classify_curvature(fr)
        assert rep.tag == "D"
        assert (stacks, blades) == ([1], [])
        got = rep.f_class.blade
        assert blades == [1e-9]
        want = blade(rep.simple_f, 1e-9)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
        assert rep.f_class.blade is got and blades == [1e-9]

    @pytest.mark.parametrize("case", ["A", "C"])
    def test_class_a_and_c_points_reduce_nothing_until_read(self, case,
                                                           monkeypatch):
        # the class is fixed by the two ranks; the kernel, the range and
        # class C's direction are reduced on their first read, once
        from lorhol import bivector
        if case == "A":  # rank 4: no class-B test
            spec = fixture_spec("r14")
            fr = frame_at(spec, sample_points(spec, 1, seed=1)[0])
        else:
            l, _, x, y = null_tetrad()
            fr = synthetic_class_c(l, x, y)
        span_bases = bivector._span_bases
        stacks = []

        def span_spy(stack, tol):
            stacks.append(len(stack))
            return span_bases(stack, tol)

        monkeypatch.setattr(bivector, "_span_bases", span_spy)
        rep = classify_curvature(fr)
        assert rep.tag == case and stacks == []
        kernel, range_ = rep.kernel, rep.range_basis
        # class A's kernel is empty, and an empty span needs no reduction
        reduced = [1, 1] if case == "C" else [1]
        assert stacks == reduced
        assert rep.kernel is kernel and rep.range_basis is range_
        if case == "C":
            assert rep.direction.tobytes() == kernel[0].tobytes()
        else:
            assert rep.direction is None
        assert stacks == reduced

    @pytest.mark.parametrize("pieces, message", [
        # R_abcd k^d = 0 for k in span{e_0, e_2} alone, where the map
        # has rank 2
        ([(_blade(0, 1), _unit(0, 1)), (_blade(2, 3), _unit(2, 3))],
         "kernel dim 2 with curvature rank 2 (expected 1); margin 0.00e+00"),
        # the range e_0^e_1 + e_2^e_3 of rank 1 is not simple
        ([(_blade(0, 1) + _blade(2, 3), _blade(2, 3))],
         "class D range bivector is not simple"),
        # R_abcd k^d = 0 for every k with k^3 = 0
        ([(_blade(0, 1), _unit(2, 3))],
         "kernel dimension 3 fits no curvature class"),
    ], ids=["rank-not-one", "f-not-simple", "kernel-dim-3"])
    def test_kernel_and_range_that_fit_no_class_raise(self, pieces, message):
        # R_abcd = sum of F_ab G_cd over the pieces (F, G)
        riem = sum(np.einsum("ab,cd->abcd", f, g) for f, g in pieces)
        with pytest.raises(ClassificationError) as err:
            classify_curvature(PointFrame.synthetic(ETA, riem))
        assert str(err.value) == message


class TestTheorem1:
    def test_class_a_gives_metric_only(self):
        spec = appendix_metric(b="1 + u^2", f="x^2")
        fr = frame_at(spec, (1.0, 1.0, 0.3, 0.4))
        basis, rep = solve_theorem1(fr)
        assert rep.tag == "A"
        assert len(basis) == 1
        ratio = basis[0][np.unravel_index(np.argmax(np.abs(fr.g)), (4, 4))] \
            / fr.g[np.unravel_index(np.argmax(np.abs(fr.g)), (4, 4))]
        assert np.max(np.abs(basis[0] - ratio * fr.g)) < 1e-8 * abs(ratio)

    def test_class_d_dimension_four(self):
        l, n, x, y = null_tetrad()
        fr = synthetic_class_d(biv_low(x, y))
        basis, rep = solve_theorem1(fr)
        assert rep.tag == "D"
        assert len(basis) == 4
        # solutions built on the blade of *F: g, l l, n n, l n + n l
        ll, nl = ETA @ l, ETA @ n
        span = [ETA, np.outer(ll, ll), np.outer(nl, nl),
                np.outer(ll, nl) + np.outer(nl, ll)]
        for h in basis:
            coeff, res, *_ = np.linalg.lstsq(
                np.array([m.reshape(-1) for m in span]).T,
                h.reshape(-1), rcond=None)
            rebuilt = sum(c * m for c, m in zip(coeff, span))
            assert np.max(np.abs(rebuilt - h)) < 1e-8

    def test_class_b_dimension_two(self):
        rng = np.random.default_rng(1)
        lam = random_lorentz(rng)
        l, n, x, y = null_tetrad(lam)
        fr = synthetic_class_b(l, n, x, y, 1.2, -0.7)
        basis, rep = solve_theorem1(fr)
        assert rep.tag == "B"
        assert len(basis) == 2
        ll, nl = ETA @ l, ETA @ n
        span = [ETA, np.outer(ll, nl) + np.outer(nl, ll)]
        for h in basis:
            coeff, *_ = np.linalg.lstsq(
                np.array([m.reshape(-1) for m in span]).T,
                h.reshape(-1), rcond=None)
            rebuilt = sum(c * m for c, m in zip(coeff, span))
            assert np.max(np.abs(rebuilt - h)) < 1e-8

    def test_class_c_dimension_two(self):
        # class C synthetic: R = F1 F1 + F2 F2 with F1 = l^n, F2 = l^x;
        # both annihilate exactly y, so the kernel is span{y}.
        l, n, x, y = null_tetrad()
        f1, f2 = biv_low(l, n), biv_low(l, x)
        riem = (np.einsum("ab,cd->abcd", f1, f1)
                + np.einsum("ab,cd->abcd", f2, f2))
        fr = PointFrame.synthetic(ETA, riem)
        basis, rep = solve_theorem1(fr)
        assert rep.tag == "C"
        assert len(basis) == 2
        rl = ETA @ rep.direction
        span = [ETA, np.outer(rl, rl)]
        for h in basis:
            coeff, *_ = np.linalg.lstsq(
                np.array([m.reshape(-1) for m in span]).T,
                h.reshape(-1), rcond=None)
            rebuilt = sum(c * m for c, m in zip(coeff, span))
            assert np.max(np.abs(rebuilt - h)) < 1e-8

    def test_class_d_point_solves_60_rows_on_the_kernel_plane(
            self, monkeypatch):
        # the 60 independent equations, and class D's plane read from the
        # kernel, which classify_curvature's factors give: no dual, no SVD
        # blade, no second null basis of the 64x4 system
        from lorhol import bivector, curvclass
        spec = fixture_spec("r11")
        fr = frame_at(spec, sample_points(spec, 1, seed=1)[0])
        calls, shapes = [], []

        def spy(module, name):
            real = getattr(module, name)

            def call(*args):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(module, name, call)

        for module in (bivector, curvclass):
            for name in ("hodge_dual", "_blade_from_svd"):
                if hasattr(module, name):
                    spy(module, name)
        null_basis = curvclass.null_basis

        def null_spy(a, tol):
            shapes.append(np.shape(a))
            return null_basis(a, tol)

        monkeypatch.setattr(curvclass, "null_basis", null_spy)
        basis, rep = solve_theorem1(fr)
        assert rep.tag == "D" and len(basis) == 4
        assert calls == []
        assert shapes == [(60, 10)]

    def test_dimension_counts_oracle(self):
        rng = np.random.default_rng(17)
        for i in range(40):
            lam = random_lorentz(rng)
            l, n, x, y = null_tetrad(lam)
            if i % 2 == 0:
                fr = synthetic_class_b(l, n, x, y,
                                       rng.uniform(0.5, 2), rng.uniform(0.5, 2))
                want = 2
            else:
                fr = synthetic_class_d(biv_low(x, y), rng.uniform(0.5, 2))
                want = 4
            basis, _ = solve_theorem1(fr)
            assert len(basis) == want


def _random_riemann(rng):
    """A random tensor with the symmetries of Riemann: sum S_IJ W^I W^J
    over the six basis bivectors, S symmetric, less its cyclic part,
    which for such a tensor is totally antisymmetric."""
    from lorhol.bivector import antisym_from_six
    s = rng.normal(size=(6, 6))
    w = antisym_from_six(np.eye(6))
    r = np.einsum("ij,iab,jcd->abcd", s + s.T, w, w)
    return r - (r + np.einsum("acdb->abcd", r)
                + np.einsum("adbc->abcd", r)) / 3


def _class_riemann(kind, rng):
    """Riem_abcd of a class-A/B/C/D/O point in eta, in a random Lorentz
    frame."""
    l, n, x, y = null_tetrad(random_lorentz(rng))
    alpha, beta = rng.uniform(0.2, 2.0, size=2) * rng.choice([-1, 1], 2)
    if kind == "A":
        return _random_riemann(rng)
    if kind == "B":
        return synthetic_class_b(l, n, x, y, alpha, beta).riem_dddd
    if kind == "C":  # l^n and l^x both annihilate y alone
        f1, f2 = biv_low(l, n), biv_low(l, x)
        return (alpha * np.einsum("ab,cd->abcd", f1, f1)
                + beta * np.einsum("ab,cd->abcd", f2, f2))
    if kind == "D":
        p, q = [(l, n), (x, y), (l, x)][rng.integers(3)]
        return synthetic_class_d(biv_low(p, q), alpha).riem_dddd
    return np.zeros((4, 4, 4, 4))


def _outcome(fn):
    try:
        return fn()
    except ClassificationError as exc:
        return str(exc)


def test_rref_kernel_and_60_row_theorem1_match_the_former_steps():
    # every fixture and partner at 8 points, synthetic A-O points at three
    # scales of g, and B/C/D points pushed toward class A by a random
    # Riemann tensor 1e-14..1e-5 their size: the RREF kernel spans the
    # Gram-Schmidt one, and solve_theorem1 on its 60 weighted rows, with
    # class D's plane the kernel, does as the 256-row system with the
    # plane the blade of *F did
    from lorhol.fixtures import FIXTURE_NAMES
    frames = [fr for name in FIXTURE_NAMES for partner in (False, True)
              for spec in [fixture_spec(name, partner)]
              for fr in frames_at(spec, sample_points(spec, 8, seed=1))]
    rng = np.random.default_rng(1)
    frames += [PointFrame.synthetic(c * ETA, c * _class_riemann(kind, rng))
               for c in (1e-6, 1.0, 1e6) for kind in "ABCDO"]
    for i in range(200):
        riem = _class_riemann("BCD"[i % 3], rng)
        push = _random_riemann(rng)
        push *= (10.0 ** rng.uniform(-14, -5) * np.abs(riem).max()
                 / np.abs(push).max())
        c = 10.0 ** rng.choice([-6, 0, 6])
        frames.append(PointFrame.synthetic(c * ETA, c * (riem + push)))
    raised = 0
    for fr in frames:
        new = null_basis(fr.riem_dddd.reshape(64, 4), SVD_TOL)
        old = kernel_vectors_gram_schmidt(fr)
        assert len(new) == len(old)
        if len(new):  # the projectors onto the two spans
            proj = np.linalg.pinv(new) @ new
            assert np.abs(proj - old.T @ old).max() <= 1e-12
        new = _outcome(lambda: solve_theorem1(fr))
        report = new[1] if isinstance(new, tuple) else _outcome(
            lambda: classify_curvature(fr))
        old = report if isinstance(report, str) else _outcome(
            lambda: solve_theorem1_loop(fr, report))
        assert type(new) is type(old)
        if isinstance(new, str):
            assert new == old
            raised += 1
            continue
        (got, _), (want, s) = new, old
        assert got.shape == want.shape
        # within 1e-12 of the basis size times the system's condition
        # s_max / s_rank, which bounds how far its null space may turn
        rank = 10 - len(want)
        cond = s[0] / s[rank - 1] if rank else 1.0
        assert np.abs(got - want).max() <= 1e-12 * cond * np.abs(want).max()
    assert 0 < raised < 10  # near the boundaries, both outcomes occur


def test_fields_built_on_first_read_equal_the_eager_calls():
    # the kernel as null_basis of the 64x4 system, the range as the
    # canonical basis of the map's leading left singular vectors, and
    # class C's direction as the kernel row, bit for bit; each dimension
    # is its basis's length
    seen = set()
    for fr in lazy_field_frames():
        rep = classify_curvature(fr)
        seen.add(rep.tag)
        if rep.tag == "O":
            kernel, range_ = np.eye(4), []
        else:
            ruu = np.einsum("be,aecd->abcd", fr.ginv, fr.riem_ud)
            rank, u, _, _ = svd_rank(2.0 * to_six(ruu[BASIS_INDEX]), SVD_TOL)
            kernel = null_basis(fr.riem_dddd.reshape(64, 4), SVD_TOL)
            range_ = [Bivector(w, fr) for w in antisym_from_six(
                canonical_span_basis(u[:, :rank].T, SVD_TOL))]
        assert rep.kernel.tobytes() == kernel.tobytes()
        assert ([b.comps.tobytes() for b in rep.range_basis]
                == [b.comps.tobytes() for b in range_])
        if rep.tag == "C":
            assert rep.direction.tobytes() == kernel[0].tobytes()
        else:
            assert rep.direction is None
        assert rep.kernel_dim == len(rep.kernel)
        assert rep.range_dim == len(rep.range_basis)
    assert seen == set("ABCDO")
