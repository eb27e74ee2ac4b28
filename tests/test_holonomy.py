import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorhol.holonomy import (
    TYPE_DIMENSIONS, close_algebra, constant_directions, holonomy_survey,
    identify_type, ihol_generators, lie_bracket, recurrent_directions,
)
from lorhol.bivector import to_six, from_six
from lorhol.curvclass import classify_curvature
from lorhol.pointcalc import PointFrame, frame_at, metric_spec, sample_points

from helpers import ETA, minkowski_frame, null_tetrad, random_lorentz

UVXY = ("u", "v", "x", "y")


def appendix_metric(b="1 + u^2", f="x*y"):
    return metric_spec(UVXY,
                       [[f"({b})*sqrt(v)"], ["1", "0"],
                        ["0", "0", f"u^2*exp({f})"],
                        ["0", "0", "0", f"u^2*exp({f})"]],
                       constraints=["v", "u"],
                       sample_box=[(0.5, 2), (0.5, 2), (-1, 1), (-1, 1)])


def minkowski_spec():
    return metric_spec(("t", "x", "y", "z"),
                       [["-1"], ["0", "1"], ["0", "0", "1"],
                        ["0", "0", "0", "1"]],
                       sample_box=[(-1, 1)] * 4)


def mixed(p, q, frame):
    """(p^q)^a_b as a (1,1) matrix."""
    up = np.outer(p, q) - np.outer(q, p)
    return up @ frame.g


def table1_basis(label, frame, omega=2.0):
    l, n, x, y = null_tetrad()
    u = np.array([1.0, 0, 0, 0])
    z = np.array([0.0, 0, 0, 1])
    m = lambda p, q: mixed(p, q, frame)
    return {
        "R2": [m(l, n)],
        "R3": [m(l, x)],
        "R4": [m(x, y)],
        "R5": [m(l, n) + omega * m(x, y)],
        "R6": [m(l, n), m(l, x)],
        "R7": [m(l, n), m(x, y)],
        "R8": [m(l, x), m(l, y)],
        "R9": [m(l, n), m(l, x), m(l, y)],
        "R10": [m(l, n), m(l, x), m(n, x)],
        "R11": [m(l, x), m(l, y), m(x, y)],
        "R12": [m(l, x), m(l, y), m(l, n) + omega * m(x, y)],
        "R13": [m(x, y), m(y, z), m(x, z)],
        "R14": [m(l, n), m(l, x), m(l, y), m(x, y)],
        "R15": [m(l, n), m(l, x), m(l, y), m(n, x), m(n, y), m(x, y)],
    }[label]


class TestLieBracket:
    def test_ln_lx_gives_lx(self):
        fr = minkowski_frame()
        l, n, x, y = null_tetrad()
        br = lie_bracket(mixed(l, n, fr), mixed(l, x, fr))
        assert np.max(np.abs(br - mixed(l, x, fr))) < 1e-12

    def test_null_rotations_commute(self):
        fr = minkowski_frame()
        l, n, x, y = null_tetrad()
        br = lie_bracket(mixed(l, x, fr), mixed(l, y, fr))
        assert np.max(np.abs(br)) < 1e-12

    def test_self_bracket_zero(self):
        fr = minkowski_frame()
        l, n, x, y = null_tetrad()
        assert np.max(np.abs(lie_bracket(mixed(l, n, fr),
                                         mixed(l, n, fr)))) == 0.0


class TestCloseAlgebra:
    def test_already_closed(self):
        fr = minkowski_frame()
        l, n, x, y = null_tetrad()
        basis = close_algebra([mixed(l, n, fr), mixed(l, x, fr)], fr)
        assert len(basis) == 2

    def test_rotations_close_to_so3(self):
        fr = minkowski_frame()
        e = np.eye(4)
        gens = [mixed(e[1], e[2], fr), mixed(e[2], e[3], fr)]
        basis = close_algebra(gens, fr)
        assert len(basis) == 3

    def test_empty(self):
        assert close_algebra([], minkowski_frame()) == []

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e9, 1e12])
    def test_metric_scale_leaves_closure_and_label(self, c):
        # g -> c g scales each table generator by c, so the closed
        # algebra and its label must not depend on c
        fr = PointFrame.synthetic(c * ETA, np.zeros((4, 4, 4, 4)))
        for label in sorted(TYPE_DIMENSIONS)[1:]:
            gens = table1_basis(label, fr)
            basis = close_algebra(gens[:2] if label == "R13" else gens, fr)
            assert len(basis) == TYPE_DIMENSIONS[label], label
            assert identify_type(basis, fr).label == label

    def test_closure_invariant(self):
        fr = minkowski_frame()
        l, n, x, y = null_tetrad()
        basis = close_algebra([mixed(l, n, fr), mixed(n, x, fr)], fr)
        rows = np.array([b.reshape(-1) for b in basis])
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                br = lie_bracket(basis[i], basis[j]).reshape(-1)
                coeff, *_ = np.linalg.lstsq(rows.T, br, rcond=None)
                assert np.linalg.norm(rows.T @ coeff - br) < 1e-9


class TestIdentifyType:
    @pytest.mark.parametrize("label", sorted(TYPE_DIMENSIONS)[1:])  # skip R1
    def test_table_bases_identify(self, label):
        fr = minkowski_frame()
        basis = table1_basis(label, fr)
        rep = identify_type(basis, fr)
        assert rep.label == label
        assert rep.dimension == TYPE_DIMENSIONS[label]
        # both probes are reported, whichever the label was decided on
        assert [(v.tobytes(), ch) for v, ch in rep.constant] == [
            (v.tobytes(), ch) for v, ch in constant_directions(basis, fr)]
        assert [v.tobytes() for v in rep.recurrent] == [
            v.tobytes() for v in recurrent_directions(basis, fr)]

    @pytest.mark.parametrize("label", sorted(TYPE_DIMENSIONS)[1:])  # skip R1
    def test_dependent_element_keeps_label(self, label):
        # the dimension is the rank of the span, not the number of
        # matrices: a redundant element must not change the label
        fr = minkowski_frame()
        basis = table1_basis(label, fr)
        extra = sum((k + 2) * m for k, m in enumerate(basis))
        for padded in (basis + [extra], [0 * extra] + basis):
            rep = identify_type(padded, fr)
            assert (rep.label, rep.dimension) == (
                label, TYPE_DIMENSIONS[label])

    def test_r1_trivial(self):
        rep = identify_type([], minkowski_frame())
        assert rep.label == "R1"
        assert len(rep.constant) == 4 and rep.recurrent == []

    def test_r5_flagged_non_realizable(self):
        fr = minkowski_frame()
        rep = identify_type(table1_basis("R5", fr), fr)
        assert not rep.realizable

    def test_r12_omega_recovery(self):
        fr = minkowski_frame()
        rep = identify_type(table1_basis("R12", fr, omega=2.0), fr)
        assert rep.label == "R12"
        assert rep.omega == pytest.approx(2.0, abs=1e-9)

    def test_r12_omega_random_values(self):
        fr = minkowski_frame()
        for omega in (0.5, 1.0, 3.25):
            rep = identify_type(table1_basis("R12", fr, omega=omega), fr)
            assert rep.omega == pytest.approx(omega, abs=1e-9)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("label", ["R5", "R12"])
    def test_omega_under_lorentz_and_metric_scale(self, label, c):
        # the table basis with g -> c g, conjugated by random Lorentz
        # transforms: omega is the table's
        fr = PointFrame.synthetic(c * ETA, np.zeros((4, 4, 4, 4)))
        rng = np.random.default_rng(12)
        for omega in (0.5, 1.0, 3.25):
            basis = table1_basis(label, fr, omega=omega)
            for _ in range(3):
                lam = random_lorentz(rng)
                conj = [lam @ m @ np.linalg.inv(lam) for m in basis]
                rep = identify_type(conj, fr)
                assert rep.label == label
                assert rep.omega == pytest.approx(omega, abs=1e-9)

    def test_identification_invariant_under_lorentz_conjugation(self):
        fr = minkowski_frame()
        rng = np.random.default_rng(23)
        for label in ("R2", "R6", "R8", "R9", "R11", "R12", "R13", "R14"):
            basis0 = table1_basis(label, fr)
            for _ in range(4):
                lam = random_lorentz(rng)
                lam_inv = np.linalg.inv(lam)
                conj = [lam @ m @ lam_inv for m in basis0]
                assert identify_type(conj, fr).label == label

    def test_r9_discriminant_independent_of_representative(self):
        fr = minkowski_frame()
        l, n, x, y = null_tetrad()
        rng = np.random.default_rng(5)
        base = table1_basis("R9", fr)
        for _ in range(100):
            a, b_ = rng.normal(size=2)
            rep_el = base[0] + a * base[1] + b_ * base[2]
            rep = identify_type([rep_el, base[1], base[2]], fr)
            assert rep.label == "R9"

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-9])
    def test_non_skew_basis_rejected_at_any_scale(self, scale):
        # the symmetric part is measured relative to each element, so a
        # small non-skew matrix is caught as surely as a large one
        fr = minkowski_frame()
        bad = scale * np.diag([1.0, 2.0, 3.0, 4.0])
        rep = identify_type([bad], fr)
        assert rep.label == "unrecognized"
        assert rep.diagnostics["reason"] == "basis not skew-self-adjoint"

    def test_unrecognized_dim3_bad_annihilator(self):
        # {x^y, x^z} closes to so(3) = R13; feeding a NON-closed pair must
        # be flagged rather than mislabelled
        fr = minkowski_frame()
        e = np.eye(4)
        rep = identify_type([mixed(e[1], e[2], fr), mixed(e[2], e[3], fr)], fr)
        assert rep.label == "unrecognized"


class TestDirections:
    def test_r8_constant_null(self):
        fr = minkowski_frame()
        l, n, x, y = null_tetrad()
        const = constant_directions(table1_basis("R8", fr), fr)
        assert len(const) == 1
        v, char = const[0]
        assert char == "null"
        # direction is l up to scale
        assert np.linalg.norm(np.cross(v[1:], l[1:])) < 1e-9 or \
            abs(abs(v @ ETA @ np.array([-1, 0, 0, 1]) / np.sqrt(2)) -
                np.linalg.norm(v)) < 1e-6

    def test_r13_constant_timelike(self):
        fr = minkowski_frame()
        const = constant_directions(table1_basis("R13", fr), fr)
        assert len(const) == 1
        assert const[0][1] == "timelike"

    def test_r7_no_constant(self):
        fr = minkowski_frame()
        assert constant_directions(table1_basis("R7", fr), fr) == []

    def test_r2_recurrent_l_and_n(self):
        fr = minkowski_frame()
        rec = recurrent_directions(table1_basis("R2", fr), fr)
        assert len(rec) == 2
        l, n, x, y = null_tetrad()
        for v in rec:
            assert abs(float(v @ ETA @ v)) < 1e-9
            aligned = any(np.linalg.norm(np.abs(v) - np.abs(w / np.linalg.norm(w)))
                          < 1e-8 for w in (l, n))
            assert aligned

    def test_r14_recurrent_single_null(self):
        fr = minkowski_frame()
        rec = recurrent_directions(table1_basis("R14", fr), fr)
        assert len(rec) == 1
        assert abs(float(rec[0] @ ETA @ rec[0])) < 1e-9

    def test_r13_no_recurrent(self):
        fr = minkowski_frame()
        assert recurrent_directions(table1_basis("R13", fr), fr) == []


class TestGenerators:
    def test_minkowski_empty(self):
        spec = minkowski_spec()
        assert ihol_generators(spec, (0, 0, 0, 0), 0) == []
        assert ihol_generators(spec, (0, 0, 0, 0), 2) == []

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_one_frame_at_the_top_order(self, order, monkeypatch):
        from lorhol import pointcalc
        spec = appendix_metric()
        pt = (1.0, 1.0, 0.2, 0.4)
        # an order-2 frame derives cov_riemann and cov2_riemann lazily,
        # through one-row frames at orders 3 and 4
        lazy = ihol_generators(spec, pt, order, frame=frame_at(spec, pt))
        orders = []
        jets = pointcalc._metric_jets

        def spy(spec, pts, k):
            orders.append(k)
            return jets(spec, pts, k)

        monkeypatch.setattr(pointcalc, "_metric_jets", spy)
        gens = ihol_generators(spec, pt, order)
        assert orders == [2 + order]
        assert len(gens) == len(lazy) > 0
        assert all(np.array_equal(a, b) for a, b in zip(gens, lazy))

    def test_order0_spans_curvature_range(self):
        spec = appendix_metric()
        pt = (1.0, 1.0, 0.2, 0.4)
        fr = frame_at(spec, pt)
        gens = ihol_generators(spec, pt, 0, frame=fr)
        rep = classify_curvature(fr)
        gen_six = [to_six(np.asarray(m) @ fr.ginv) for m in gens]
        from lorhol.bivector import canonical_span_basis
        s1 = canonical_span_basis(gen_six)
        s2 = canonical_span_basis([to_six(b) for b in rep.range_basis])
        assert len(s1) == len(s2)
        assert np.max(np.abs(s1 - s2)) < 1e-8

    def test_order1_contains_order0_span(self):
        # for (A.1) with b=1 the order-0 span already saturates the
        # 3-dim algebra at generic points; order 1 must contain it
        spec = appendix_metric(b="1", f="x*y")
        pt = (1.0, 1.0, 0.2, 0.4)
        g0 = ihol_generators(spec, pt, 0)
        g1 = ihol_generators(spec, pt, 1)
        from lorhol.bivector import canonical_span_basis
        d0 = len(canonical_span_basis([m.reshape(-1) / np.max(np.abs(m))
                                       for m in g0]))
        d01 = len(canonical_span_basis(
            [m.reshape(-1) / np.max(np.abs(m)) for m in g0 + g1]))
        d1 = len(canonical_span_basis([m.reshape(-1) / np.max(np.abs(m))
                                       for m in g1]))
        assert d1 == d01 >= d0

    def test_order1_enlarges_span_on_plane_wave_form(self):
        # derivative generators genuinely enlarge the span where order 0
        # sees only the single range bivector (the u^2 h form)
        spec = metric_spec(UVXY,
                           [["0"], ["1", "0"], ["0", "0", "u^2*exp(x^2+y^2)"],
                            ["0", "0", "0", "u^2*exp(x^2+y^2)"]],
                           constraints=["u"],
                           sample_box=[(0.5, 2), (0.5, 2), (-1, 1), (-1, 1)])
        pt = (1.0, 1.0, 0.2, 0.4)
        g0 = ihol_generators(spec, pt, 0)
        g1 = ihol_generators(spec, pt, 1)
        from lorhol.bivector import canonical_span_basis
        d0 = len(canonical_span_basis([m.reshape(-1) / np.max(np.abs(m))
                                       for m in g0]))
        d1 = len(canonical_span_basis([m.reshape(-1) / np.max(np.abs(m))
                                       for m in g1]))
        assert d0 == 1 and d1 == 3


class TestSurvey:
    def test_minkowski_r1(self):
        rep = holonomy_survey(minkowski_spec(), samples=32, seed=7)
        assert rep.label == "R1"

    def test_harmonic_appendix_is_r9(self):
        rep = holonomy_survey(appendix_metric(b="1 + u^2", f="x*y"),
                              samples=32, seed=7)
        assert rep.label == "R9"

    def test_nonharmonic_appendix_is_r14(self):
        rep = holonomy_survey(appendix_metric(b="1 + u^2", f="x^2"),
                              samples=32, seed=7)
        assert rep.label == "R14"

    def test_survey_contains_per_point_order0_span(self):
        spec = appendix_metric(b="1 + u^2", f="x*y")
        rep = holonomy_survey(spec, samples=8, seed=3)
        for pt, label, dim in rep.per_point:
            fr = frame_at(spec, pt)
            assert dim >= classify_curvature(fr).range_dim

    def test_b_zero_annihilates_null_direction(self):
        spec = metric_spec(UVXY,
                           [["0"], ["1", "0"], ["0", "0", "u^2*exp(x^2+y^2)"],
                            ["0", "0", "0", "u^2*exp(x^2+y^2)"]],
                           constraints=["u"],
                           sample_box=[(0.5, 2), (0.5, 2), (-1, 1), (-1, 1)])
        rep = holonomy_survey(spec, samples=16, seed=7)
        assert rep.label in ("R3", "R8", "R11")
        chars = [ch for _, ch in rep.representative.constant]
        assert "null" in chars

    @pytest.mark.parametrize("c", [Fraction(1, 10 ** 12), 10 ** 12],
                             ids=["1e-12", "1e12"])
    def test_fixture_labels_under_metric_scale(self, c):
        # g -> c g of a fixture's spec: the same label at every point
        from helpers import fixture_spec, scaled_spec
        for name in ("r11", "r9", "r14"):
            got, want = (holonomy_survey(s, samples=4, seed=2)
                         for s in (scaled_spec(name, c), fixture_spec(name)))
            assert [lab for _, lab, _ in got.per_point] == [
                lab for _, lab, _ in want.per_point]
            assert got.label == want.label

    def test_representative_probes_wait_for_their_read(self, monkeypatch):
        # the survey runs the probes _decide's rules read, and the
        # representative runs the others when they are read, once each
        from helpers import fixture_spec
        from lorhol import holonomy
        decide = holonomy._decide
        calls = []

        def spy(name):
            real = getattr(holonomy, name)

            def call(basis, g):
                calls.append((name, deciding))
                return real(basis, g)
            monkeypatch.setattr(holonomy, name, call)

        def decide_spy(*args):
            nonlocal deciding
            deciding = True
            try:
                return decide(*args)
            finally:
                deciding = False

        deciding = False
        spy("_constant_stack")
        spy("_recurrent_stack")
        monkeypatch.setattr(holonomy, "_decide", decide_spy)
        for name, given in (("r14", "_recurrent_stack"),
                            ("r11", "_constant_stack")):
            calls.clear()
            rep = holonomy_survey(fixture_spec(name), samples=16, seed=1)
            assert set(calls) == {(given, True)}
            calls.clear()
            rep = rep.representative
            constant, recurrent = rep.constant, rep.recurrent
            assert calls == [(n, False) for n in ("_constant_stack",
                                                  "_recurrent_stack")
                             if n != given]
            assert rep.constant is constant and rep.recurrent is recurrent
            assert len(calls) == 1


class TestOrderTwo:
    def test_order2_survey_matches_order1_on_appendix(self):
        spec = appendix_metric(b="1 + u^2", f="x*y")
        rep = holonomy_survey(spec, samples=6, seed=7, derivative_order=2)
        assert rep.label == "R9"

    def test_order2_generators_contain_order1_span(self):
        spec = appendix_metric(b="1 + u^2", f="x^2")
        pt = (1.0, 1.0, 0.2, 0.4)
        g1 = ihol_generators(spec, pt, 1)
        g2 = ihol_generators(spec, pt, 2)
        from lorhol.bivector import canonical_span_basis
        d1 = len(canonical_span_basis([m.reshape(-1) / np.max(np.abs(m))
                                       for m in g1]))
        d12 = len(canonical_span_basis([m.reshape(-1) / np.max(np.abs(m))
                                        for m in g1 + g2]))
        d2 = len(canonical_span_basis([m.reshape(-1) / np.max(np.abs(m))
                                       for m in g2]))
        assert d2 == d12 >= d1


def _generators_reference(fr, derivative_order):
    """ihol_generators' per-slice loop, kept as the reference: each
    order's slices above SPAN_TOL times the largest entry of their own
    tensor."""
    from lorhol.holonomy import SPAN_TOL
    r = fr.riem_ud
    orders = [[r[:, :, c, d] for c in range(4) for d in range(c + 1, 4)]]
    if derivative_order >= 1:
        orders.append([fr.cov_riemann[:, :, c, d, e] for c in range(4)
                       for d in range(c + 1, 4) for e in range(4)])
    if derivative_order >= 2:
        orders.append([fr.cov2_riemann[:, :, c, d, e, f] for c in range(4)
                       for d in range(c + 1, 4) for e in range(4)
                       for f in range(4)])
    kept = []
    for out in orders:
        scale = max(np.max(np.abs(m)) for m in out)
        kept += [m for m in out if np.max(np.abs(m)) > SPAN_TOL * scale]
    return kept


SURVEYED = [(name, partner) for name in ("minkowski", "r11", "r10", "r13",
                                         "r9", "r14", "r9-b0")
            for partner in (False, True)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(SURVEYED), st.integers(0, 1), st.integers(0, 99),
       st.randoms(use_true_random=False),
       st.lists(st.integers(-6, 6), min_size=6, max_size=6))
def test_stacked_kernels_match_reference_loops(which, order, seed, rnd,
                                               exps):
    from helpers import fixture_spec, recurrent_directions_loop
    from lorhol.pointcalc import frames_at
    spec = fixture_spec(*which)
    for fr in frames_at(spec, sample_points(spec, 2, seed=seed), order + 2):
        gens = ihol_generators(spec, fr.point, order, frame=fr)
        want = _generators_reference(fr, order)
        assert [m.tobytes() for m in gens] == [m.tobytes() for m in want]
        basis = close_algebra(gens, fr)
        # the surveyed basis; reordered and rescaled; and in a random
        # chart (M -> A M A^-1, g -> A^-T g A^-1), where its directions
        # are no longer coordinate axes
        a = np.eye(4) + 0.3 * np.random.default_rng(seed).normal(size=(4, 4))
        ainv = np.linalg.inv(a)
        moved = PointFrame(ainv.T @ fr.g @ ainv)
        for b, frame in ((basis, fr),
                         ([m * 10.0 ** e for m, e in
                           zip(rnd.sample(basis, len(basis)), exps)], fr),
                         ([a @ m @ ainv for m in basis], moved)):
            got = recurrent_directions(b, frame)
            ref = recurrent_directions_loop(b, frame)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in ref]


def test_stacked_recurrent_directions_on_r14_survey():
    # a fixture whose surveyed algebras carry a recurrent null direction
    from helpers import fixture_spec, recurrent_directions_loop
    from lorhol.pointcalc import frames_at
    spec = fixture_spec("r14")
    seen = 0
    for fr in frames_at(spec, sample_points(spec, 4, seed=1), 3):
        basis = close_algebra(ihol_generators(spec, fr.point, 1, frame=fr),
                              fr)
        got = recurrent_directions(basis, fr)
        assert [v.tobytes() for v in got] == [
            v.tobytes() for v in recurrent_directions_loop(basis, fr)]
        seen += len(got)
    assert seen > 0


def test_partner_surveys_close_and_grow_with_order():
    # the derived partners' round-off generators once spanned spurious
    # directions outside so(g) and the closure raised; every fixture and
    # partner must now give one valid label at all points, and at each
    # sampled point the order-k algebra contains the order-(k-1) one, so
    # its dimension never drops
    from lorhol.fixtures import FIXTURE_NAMES
    from helpers import fixture_spec
    for name, partner in itertools.product(FIXTURE_NAMES, (False, True)):
        spec = fixture_spec(name, partner)
        for seed in (1, 2):
            dims = None
            for order in (0, 1, 2):
                rep = holonomy_survey(spec, samples=4, seed=seed,
                                      derivative_order=order)
                assert rep.label != "unrecognized" and not rep.mixed_types, (
                    name, partner, seed, order, rep.per_point)
                now = [d for _, _, d in rep.per_point]
                if dims is not None:
                    assert all(b >= a for a, b in zip(dims, now)), (
                        name, partner, seed, order, dims, now)
                dims = now


def _given(rep):
    """The probe fields of a report that hold a value, read or given,
    without building the others."""
    return [k for k in ("constant", "recurrent")
            if rep.__dict__.get("_" + k) is not None]


def _report_bytes(rep):
    return (rep.dimension, rep.label, [m.tobytes() for m in rep.basis],
            [(v.tobytes(), ch) for v, ch in rep.constant],
            [v.tobytes() for v in rep.recurrent], rep.omega, rep.realizable,
            sorted(rep.diagnostics.items()))


@pytest.mark.parametrize("name, partner, order", [
    ("r14", False, 1), ("r9", False, 1), ("r10", False, 1),
    ("r11", False, 1), ("r13", False, 1), ("r9", True, 0),
    ("r14", False, 2), ("r14", True, 1), ("r11", False, 0),
    ("r9-b0", True, 0)])
def test_survey_matches_identify_type_at_every_point(name, partner, order):
    # the survey labels each point from the probes its dimension needs and
    # builds the full report for the representative alone; both must be
    # what identify_type gives at those points.  At order 2, 12 samples
    # make two frames_at chunks, of 8 and 4 points
    from helpers import fixture_spec
    from lorhol.pointcalc import frames_at
    spec = fixture_spec(name, partner)
    samples = 12 if order == 2 else 6
    rep = holonomy_survey(spec, samples=samples, seed=1,
                          derivative_order=order)
    pts = sample_points(spec, samples, seed=1)
    full = [identify_type(close_algebra(
        ihol_generators(spec, fr.point, order, frame=fr), fr), fr)
        for fr in frames_at(spec, pts, order + 2)]
    assert np.array_equal([pt for pt, _, _ in rep.per_point], pts)
    assert [(lab, dim) for _, lab, dim in rep.per_point] == [
        (r.label, r.dimension) for r in full]
    top = max(r.dimension for r in full)
    first = [r for r in full if r.dimension == top]
    first = ([r for r in first if r.label != "unrecognized"] or first)[0]
    assert _report_bytes(rep.representative) == _report_bytes(first)


def test_order2_survey_builds_one_stack_per_chunk(monkeypatch):
    # 20 points at order 2 are three frames_at chunks (8, 8, 4): the
    # survey stacks each chunk once and never holds more than one
    from helpers import fixture_spec
    from lorhol import pointcalc
    stack = pointcalc._riemann_derivative_stack
    rows = []

    def spy(g, block, order):
        rows.append(len(g))
        return stack(g, block, order)

    monkeypatch.setattr(pointcalc, "_riemann_derivative_stack", spy)
    rep = holonomy_survey(fixture_spec("r14"), samples=20, seed=1,
                          derivative_order=2)
    assert len(rep.per_point) == 20
    assert rows == [8, 8, 4]


@pytest.mark.parametrize("which", SURVEYED, ids=[
    name + "-partner" * partner for name, partner in SURVEYED])
def test_packed_generators_match_the_full_tensors(which):
    # the survey's order-1 and order-2 generators, read from the packed
    # stack, against those read from the reference stack's full tensors
    # as _generators read them when the stack was full
    from helpers import fixture_spec, reference_riemann_stack
    from lorhol.bivector import BASIS_INDEX
    from lorhol.holonomy import SPAN_TOL, _generators
    from lorhol.pointcalc import (
        _field_jets, _metric_jets, _riemann_derivative_stack,
    )
    spec = fixture_spec(*which)
    pts = sample_points(spec, 4, seed=4)
    got = _riemann_derivative_stack(*_metric_jets(spec, pts, 4)[:2], 4)
    full = reference_riemann_stack(_field_jets(spec, spec.g, pts, 4))
    for order in (1, 2):
        gens, kept = _generators([got[k] for k in ("R", "covR6", "cov2R6")
                                  [:order + 1]])
        # each order's matrices, kept above SPAN_TOL times the largest
        # entry of their own full tensor at their point
        blocks = [np.moveaxis(full[k], (1, 2), (-2, -1))[:, BASIS_INDEX[0],
                                                         BASIS_INDEX[1]]
                  .reshape(4, -1, 4, 4)
                  for k in ("R", "covR", "cov2R")[:order + 1]]
        want = np.concatenate(blocks, axis=1)
        want_kept = np.concatenate(
            [np.max(np.abs(b), axis=(2, 3))
             > SPAN_TOL * np.max(np.abs(b), axis=(1, 2, 3))[:, None]
             for b in blocks], axis=1)
        want[~want_kept] = 0.0
        assert np.array_equal(kept, want_kept)
        for g, w in zip(gens, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_order2_survey_unpacks_no_full_tensor(monkeypatch):
    # the survey reads the packed R;e and R;e;f; the stack unpacks only
    # R, once a chunk, and a frame's cov_riemann or cov2_riemann unpacks
    # when it is read
    from helpers import fixture_spec
    from lorhol import pointcalc
    unpack = pointcalc._unpack
    calls = []

    def spy(six):
        calls.append(six.shape)
        return unpack(six)

    monkeypatch.setattr(pointcalc, "_unpack", spy)
    spec = fixture_spec("r14")
    rep = holonomy_survey(spec, samples=12, seed=1, derivative_order=2)
    # R of each chunk (8 and 4 rows) and of the one-row frame below
    assert len(rep.per_point) == 12
    assert calls == [(8, 4, 4, 6), (4, 4, 4, 6)]
    frame_at(spec, rep.per_point[0][0], 4).cov2_riemann
    assert calls[2:] == [(1, 4, 4, 6), (1, 4, 4, 4, 4, 6)]


def _close_reference(six, ginv):
    """_close as it was written for one point, with the per-matrix RREF
    loop: the reference for the stacked closure."""
    from helpers import span_basis_loop
    from lorhol.holonomy import SPAN_TOL, _brackets
    span = span_basis_loop(six, SPAN_TOL)
    while 1 < len(span) < 6:
        brackets = _brackets(span, ginv)
        grown = span_basis_loop(np.vstack([span, brackets]), SPAN_TOL)
        if len(grown) == len(span):
            return span, brackets
        span = grown
    return span, None


def test_stacked_closure_matches_each_point_alone():
    # one stack of many fixtures' points, so that it mixes dimensions 0-6
    # and rounds in which only some points still grow; the order-0 and
    # order-1 rows are padded with zero rows to the order-2 count
    from helpers import fixture_spec
    from lorhol.holonomy import _close, _generators, _to_six
    from lorhol.pointcalc import _frame_chunks
    six, ginv = [], []
    for name, partner in SURVEYED:
        spec = fixture_spec(name, partner)
        for order in (0, 1, 2):
            for frames, stack in _frame_chunks(
                    spec, sample_points(spec, 2, seed=3), order + 2):
                names = ("R", "covR6", "cov2R6")[:order + 1]
                gens, _ = _generators([stack[k] for k in names])
                rows = _to_six(gens, stack["g"])[0]
                six += list(np.pad(rows, ((0, 0), (0, 126 - rows.shape[1]),
                                          (0, 0))))
                ginv += list(stack["ginv"])
    span, pivoted, brackets = _close(np.array(six), np.array(ginv))
    dims = set()
    for k in range(len(six)):
        want_span, want_brackets = _close_reference(
            six[k][np.any(six[k], axis=1)], ginv[k])
        assert span[k][pivoted[k]].tobytes() == want_span.tobytes()
        assert not np.any(span[k][~pivoted[k]])
        if want_brackets is None:
            assert brackets[k] is None
        else:
            assert brackets[k].tobytes() == want_brackets.tobytes()
        dims.add(len(want_span))
    assert {0, 1, 3, 4, 6} <= dims


def test_r15_survey_runs_no_probe(monkeypatch):
    # so(1,3) leaves no line invariant, so a 6-dim representative's
    # constant and recurrent directions are empty without a probe
    from helpers import fixture_spec
    from lorhol import holonomy
    calls = []
    for probe in ("_constant_stack", "_recurrent_stack"):
        monkeypatch.setattr(holonomy, probe,
                            lambda *a, probe=probe: calls.append(probe))
    rep = holonomy_survey(fixture_spec("r11", True), samples=4, seed=1)
    assert (rep.label, rep.representative.dimension) == ("R15", 6)
    assert (rep.representative.constant, rep.representative.recurrent,
            calls) == ([], [], [])


@pytest.mark.parametrize("name", ["r10", "r11", "r13"])
def test_r15_representatives_have_no_invariant_line(name):
    # the probes that a 6-dim representative skips find nothing there
    from helpers import fixture_spec
    spec = fixture_spec(name, True)
    for order in (0, 1, 2):
        rep = holonomy_survey(spec, samples=2, seed=1,
                              derivative_order=order)
        # every point is 6-dim, so the representative is the first
        assert rep.representative.label == "R15"
        fr = frame_at(spec, rep.per_point[0][0])
        assert constant_directions(rep.representative.basis, fr) == []
        assert recurrent_directions(rep.representative.basis, fr) == []


def test_order1_survey_runs_one_eig_per_chunk(monkeypatch):
    # 40 points at order 1 are two frames_at chunks (32, 8), every point
    # of dimension 4: the recurrent directions of a chunk come from one
    # eig over all its points' combinations
    from helpers import fixture_spec
    eig = np.linalg.eig
    stacks = []

    def spy(a):
        stacks.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", spy)
    rep = holonomy_survey(fixture_spec("r14"), samples=40, seed=1,
                          derivative_order=1)
    assert {dim for _, _, dim in rep.per_point} == {4}
    # the representative keeps the recurrent directions of its chunk
    assert stacks == [(32, 8, 4, 4), (8, 8, 4, 4)]


def test_stacked_decision_matches_each_point_alone():
    # one stack of every type R1-R15: as in the table, with a dependent
    # element, rescaled by 1e6 and 1e-6, Lorentz-conjugated and in a
    # random chart; plus a 5-dim span, fed directly.  The fixtures never
    # reach dimensions 2 and 5, or R5 and R12
    from helpers import (
        constant_directions_loop, decide_loop, recurrent_directions_loop,
    )
    from lorhol.bivector import _span_bases
    from lorhol.holonomy import SPAN_TOL, _brackets, _decide, _to_six
    fr = minkowski_frame()
    rng = np.random.default_rng(24)
    cases = [("R1", [], fr)]
    for label in sorted(TYPE_DIMENSIONS)[1:]:
        basis = table1_basis(label, fr)
        lam = random_lorentz(rng)
        a = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
        ainv = np.linalg.inv(a)
        cases += [(label, b, f) for b, f in (
            (basis, fr),
            (basis + [sum((k + 2) * m for k, m in enumerate(basis))], fr),
            ([m * 1e6 for m in basis], fr),
            ([m * 1e-6 for m in basis], fr),
            ([lam @ m @ np.linalg.inv(lam) for m in basis], fr),
            ([a @ m @ ainv for m in basis], PointFrame(ainv.T @ ETA @ ainv)))]
    cases.append((None, table1_basis("R15", fr)[:5], fr))
    bases = [np.reshape(b, (-1, 4, 4)) for _, b, _ in cases]
    frames = [f for _, _, f in cases]
    six = np.zeros((len(cases), 7, 6))
    for k, (b, f) in enumerate(zip(bases, frames)):
        six[k, :len(b)] = _to_six(b, f.g)[0]
    span, pivoted = _span_bases(six, SPAN_TOL)
    rows = [s[p] for s, p in zip(span, pivoted)]
    brackets = [_brackets(r, f.ginv) if len(r) > 1 else None
                for r, f in zip(rows, frames)]
    got = _decide(bases, span, pivoted, brackets, frames)
    for (label, _, f), b, r, br, rep in zip(cases, bases, rows, brackets,
                                            got):
        want = decide_loop(b, r, br, f)
        assert (rep.label, rep.dimension) == (want.label, want.dimension)
        assert rep.label == (label or "unrecognized")
        # the probes the rule read are given; the others wait for a read
        assert _given(rep) == _given(want)
        if "constant" not in _given(want):
            want.constant = constant_directions_loop(b, f)
        if "recurrent" not in _given(want):
            want.recurrent = recurrent_directions_loop(b, f)
        assert _report_bytes(rep) == _report_bytes(want)
    assert {rep.dimension for rep in got} == set(range(7))


def test_probes_built_on_first_read_equal_the_eager_calls():
    # at every frame of lazy_field_frames, the identified algebra of its
    # curvature, and the representative of every fixture's and partner's
    # survey: the probes a report builds when read are the one-point
    # calls, bit for bit
    from helpers import fixture_spec, lazy_field_frames
    from lorhol.fixtures import FIXTURE_NAMES
    cases = []
    for fr in lazy_field_frames():
        gens = ihol_generators(None, None, 0, frame=fr)
        cases.append((identify_type(close_algebra(gens, fr), fr), fr))
    for name in FIXTURE_NAMES:
        for partner in (False, True):
            spec = fixture_spec(name, partner)
            survey = holonomy_survey(spec, samples=4, seed=3,
                                     derivative_order=0)
            rep = survey.representative
            # the representative is the first point of its label and
            # dimension
            at = next(pt for pt, lab, dim in survey.per_point
                      if (lab, dim) == (rep.label, rep.dimension))
            cases.append((rep, frame_at(spec, at)))
    for rep, fr in cases:
        constant, recurrent = rep.constant, rep.recurrent
        assert [(v.tobytes(), ch) for v, ch in constant] == [
            (v.tobytes(), ch) for v, ch in
            constant_directions(rep.basis, fr)]
        assert [v.tobytes() for v in recurrent] == [
            v.tobytes() for v in recurrent_directions(rep.basis, fr)]
    assert {rep.dimension for rep, _ in cases} >= {0, 1, 3, 4, 6}
