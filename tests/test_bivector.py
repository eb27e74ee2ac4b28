import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lorhol.bivector import (
    BASIS_PAIRS, Bivector, _blade_from_svd, _canonical_pair, _dual_split,
    _span_bases,
    antisym_from_six, canonical_span_basis, classify_bivector, from_six,
    hodge_dual, null_basis, svd_rank, to_six, wedge,
)
from lorhol.curvclass import classify_curvature
from lorhol.fixtures import FIXTURE_NAMES
from lorhol.pointcalc import PointFrame, frames_at, sample_points

from helpers import (
    ETA, biv_low, canonical_pair_eig, curvature_map_stack, fixture_spec,
    minkowski_frame, null_tetrad, random_lorentz, span_basis_loop,
    synthetic_class_b, synthetic_class_d,
)


@pytest.fixture
def frame():
    return minkowski_frame()


def random_bivector(rng, frame):
    return from_six(rng.normal(size=6), frame)


class TestHodgeDual:
    def test_double_dual_is_minus_identity(self, frame):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f = random_bivector(rng, frame)
            dd = hodge_dual(hodge_dual(f))
            assert np.max(np.abs(dd.comps + f.comps)) < 1e-12 * max(1, f.norm())

    def test_e0_wedge_e1_dualises_to_e2_wedge_e3(self, frame):
        e = np.eye(4)
        f = wedge(e[0], e[1], frame)
        d = hodge_dual(f)
        expected = wedge(e[2], e[3], frame)
        ratio = d.comps[2, 3] / expected.comps[2, 3]
        assert abs(abs(ratio) - 1.0) < 1e-12
        assert np.max(np.abs(d.comps - ratio * expected.comps)) < 1e-12

    def test_blades_are_orthogonal_complements(self, frame):
        l, n, x, y = null_tetrad()
        f = wedge(x, n, frame)
        d = hodge_dual(f)
        cls = classify_bivector(d)
        # every vector of the dual blade is orthogonal to the blade of F
        for v in cls.blade:
            assert abs(v @ frame.g @ x) < 1e-10
            assert abs(v @ frame.g @ n) < 1e-10

    def test_zero(self, frame):
        z = Bivector(np.zeros((4, 4)), frame)
        assert hodge_dual(z).norm() == 0.0

    def test_dual_pairing_symmetry(self, frame):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = random_bivector(rng, frame)
            g2 = random_bivector(rng, frame)
            lhs = np.sum(hodge_dual(f).lowered * g2.comps)
            rhs = np.sum(f.lowered * hodge_dual(g2).comps)
            scale = max(1.0, f.norm() * g2.norm())
            assert abs(lhs - rhs) < 1e-10 * scale


class TestClassify:
    def test_timelike(self, frame):
        l, n, x, y = null_tetrad()
        cls = classify_bivector(wedge(l, n, frame))
        assert cls.tag == "simple-timelike"
        assert cls.theta == pytest.approx(-2.0)

    def test_spacelike(self, frame):
        l, n, x, y = null_tetrad()
        cls = classify_bivector(wedge(x, y, frame))
        assert cls.tag == "simple-spacelike"
        assert cls.theta == pytest.approx(2.0)

    def test_null(self, frame):
        l, n, x, y = null_tetrad()
        cls = classify_bivector(wedge(l, x, frame))
        assert cls.tag == "simple-null"
        assert cls.theta == pytest.approx(0.0, abs=1e-12)

    def test_non_simple_canonical_pair(self, frame):
        l, n, x, y = null_tetrad()
        f = wedge(l, n, frame) + wedge(x, y, frame)
        cls = classify_bivector(f)
        assert cls.tag == "non-simple"
        G, H = cls.pair
        assert classify_bivector(G).tag == "simple-timelike"
        assert classify_bivector(H).tag == "simple-spacelike"
        assert np.max(np.abs(G.comps + H.comps - f.comps)) < 1e-10
        # H is (a multiple of) the dual of G
        dG = hodge_dual(G)
        ratio = H.norm() / dG.norm()
        diff = min(np.max(np.abs(H.comps - ratio * dG.comps)),
                   np.max(np.abs(H.comps + ratio * dG.comps)))
        assert diff < 1e-10

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_closed_form_pair_matches_the_eig_reference(self, c):
        # random non-simple bivectors, pushed by random Lorentz transforms,
        # with g = c eta: a G and F - a G are the eigenvector-built pair
        rng = np.random.default_rng(26)
        fr = PointFrame.synthetic(c * ETA, np.zeros((4, 4, 4, 4)))
        for _ in range(170):
            lam = random_lorentz(rng)
            f = Bivector(lam @ antisym_from_six(rng.normal(size=6)) @ lam.T,
                         fr)
            want = canonical_pair_eig(f)
            bound = 1e-12 * np.max(np.abs(f.comps))
            for got, ref in zip(_canonical_pair(f), want):
                assert np.max(np.abs(got.comps - ref.comps)) <= bound
            a, b, g = _dual_split(f)
            assert g.theta == pytest.approx(-2.0, rel=1e-12)
            assert f.theta == pytest.approx(2 * (b * b - a * a), rel=1e-9,
                                            abs=1e-12 * abs(f.theta))

    def test_pair_never_raises(self, frame):
        # a timelike part 5e-9 of the spacelike one, below the eig
        # reference's 1e-8 cut for a real eigenvalue, and a null F plus
        # a little of a non-null one: the closed form still splits them
        l, n, x, y = null_tetrad(random_lorentz(np.random.default_rng(8)))
        for f in (5e-9 * wedge(l, n, frame) + wedge(x, y, frame),
                  wedge(l, n, frame) + 5e-9 * wedge(x, y, frame),
                  wedge(l, x, frame) + 1e-4 * wedge(n, y, frame)):
            cls = classify_bivector(f)
            assert cls.tag == "non-simple"
            G, H = cls.pair
            a, b, g = _dual_split(f)
            assert classify_bivector(g).tag == "simple-timelike"
            assert g.theta == pytest.approx(-2.0, rel=1e-12)
            bound = 1e-12 * np.max(np.abs(f.comps))
            assert np.max(np.abs(G.comps - a * g.comps)) <= bound
            assert np.max(np.abs(H.comps - b * hodge_dual(g).comps)) <= bound
        with pytest.raises(ValueError):
            canonical_pair_eig(5e-9 * wedge(l, n, frame) + wedge(x, y, frame))

    def test_null_bivector_splits_to_zero(self, frame):
        l, n, x, y = null_tetrad()
        assert _dual_split(wedge(l, x, frame)) == (0.0, 0.0, None)

    def test_zero_tag(self, frame):
        assert classify_bivector(Bivector(np.zeros((4, 4)), frame)).tag == "zero"

    def test_dual_swaps_causal_character(self, frame):
        rng = np.random.default_rng(7)
        swap = {"simple-timelike": "simple-spacelike",
                "simple-spacelike": "simple-timelike",
                "simple-null": "simple-null"}
        l, n, x, y = null_tetrad()
        seeds = [wedge(l, n, frame), wedge(x, y, frame), wedge(l, x, frame)]
        for _ in range(20):
            lam = random_lorentz(rng)
            for f0 in seeds:
                f = Bivector(lam @ f0.comps @ lam.T, frame)
                tag = classify_bivector(f).tag
                assert classify_bivector(hodge_dual(f)).tag == swap[tag]

    def test_classification_invariant_under_orientation_flip(self, frame):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_bivector(rng, frame)
            t1 = classify_bivector(f).tag
            # duality with flipped epsilon, which negates every entry of
            # the dual exactly: classification of duals agrees
            d_plus = hodge_dual(f)
            d_minus = -1.0 * hodge_dual(f)
            assert classify_bivector(d_plus).tag == classify_bivector(d_minus).tag
            assert classify_bivector(f).tag == t1

    def test_blade_spans_F(self, frame):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lam = random_lorentz(rng)
            l, n, x, y = null_tetrad(lam)
            f = wedge(x, y, frame)
            cls = classify_bivector(f)
            p, q = cls.blade
            rebuilt = wedge(p, q, frame)
            ratio = f.norm() / rebuilt.norm()
            diff = min(np.max(np.abs(f.comps - ratio * rebuilt.comps)),
                       np.max(np.abs(f.comps + ratio * rebuilt.comps)))
            assert diff < 1e-9

    def test_blade_and_pair_are_built_on_first_read(self, frame):
        # the same bytes as built at classification, once per class
        l, n, x, y = null_tetrad(random_lorentz(np.random.default_rng(13)))
        for f in (wedge(l, n, frame), wedge(x, y, frame), wedge(l, x, frame),
                  wedge(l, n, frame) + 0.5 * wedge(x, y, frame),
                  Bivector(np.zeros((4, 4)), frame)):
            for tol in (1e-9, 1e-8):
                cls = classify_bivector(f, tol)
                if cls.simple:
                    assert cls.pair is None
                    got, want = cls.blade, _blade_from_svd(f, tol)
                    assert [v.tobytes() for v in got] == [
                        v.tobytes() for v in want]
                elif cls.tag == "non-simple":
                    assert cls.blade is None
                    got, want = cls.pair, _canonical_pair(f)
                    assert [b.comps.tobytes() for b in got] == [
                        b.comps.tobytes() for b in want]
                else:
                    assert cls.blade is None and cls.pair is None
                    continue
                assert (cls.blade or cls.pair) is got  # kept, not rebuilt

    def test_threads_racing_on_the_first_read_get_one_blade(self, frame):
        # more threads than cores, switching often: a blade stored by
        # plain assignment lets two racing readers keep different ones
        l, n, x, y = null_tetrad()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                cls = classify_bivector(wedge(x, y, frame))
                got = []
                start = threading.Barrier(4)

                def read():
                    start.wait(timeout=10)
                    got.append(cls.blade)

                threads = [threading.Thread(target=read) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert len(got) == 4
                assert all(b is got[0] for b in got)
        finally:
            sys.setswitchinterval(interval)


class TestCurvatureMap:
    # the curvature map's rank, range and margin, as classify_curvature
    # reports them
    def test_flat_rank_zero(self, frame):
        rep = classify_curvature(frame)
        assert rep.range_dim == 0
        assert rep.range_basis == []
        assert rep.margin == 0.0

    def test_class_d_rank_one(self):
        l, n, x, y = null_tetrad()
        fr = synthetic_class_d(biv_low(x, y))
        rep = classify_curvature(fr)
        assert rep.range_dim == 1
        got = to_six(rep.range_basis[0])
        want = to_six(wedge(x, y, fr))
        ratio = got[np.argmax(np.abs(want))] / want[np.argmax(np.abs(want))]
        assert np.max(np.abs(got - ratio * want)) < 1e-9

    def test_class_b_rank_two(self):
        l, n, x, y = null_tetrad()
        fr = synthetic_class_b(l, n, x, y)
        rep = classify_curvature(fr)
        assert rep.range_dim == 2
        span = canonical_span_basis([to_six(wedge(l, n, fr)),
                                     to_six(wedge(x, y, fr))])
        got = canonical_span_basis([to_six(b) for b in rep.range_basis])
        assert np.max(np.abs(span - got)) < 1e-9

    def test_range_members_skew_self_adjoint(self):
        rng = np.random.default_rng(5)
        lam = random_lorentz(rng)
        l, n, x, y = null_tetrad(lam)
        fr = synthetic_class_b(l, n, x, y, alpha=1.3, beta=-0.8)
        for b in classify_curvature(fr).range_basis:
            m = b.mixed
            resid = fr.g @ m + (fr.g @ m).T
            assert np.max(np.abs(resid)) < 1e-10 * max(1.0, b.norm())

    def test_range_matches_the_two_matrix_stack_bitwise(self):
        # every fixture and partner at two points, the synthetic classes
        # B and D, and each frame again with g -> c g
        frames = [synthetic_class_b(*null_tetrad()),
                  synthetic_class_d(biv_low(*null_tetrad()[2:])),
                  synthetic_class_d(biv_low(*null_tetrad()[::2]), alpha=-2.0)]
        for name in FIXTURE_NAMES:
            for partner in (False, True):
                spec = fixture_spec(name, partner)
                frames += frames_at(spec, sample_points(spec, 2, seed=1))
        ranks = set()
        for fr in frames:
            for c in (1.0, 1e6, 1e-6):
                scaled = fr if c == 1.0 else PointFrame.synthetic(
                    c * fr.g, c * fr.riem_dddd)
                rank, range_, margin = curvature_map_stack(scaled)
                rep = classify_curvature(scaled)
                assert (rep.range_dim, rep.margin) == (rank, margin)
                assert len(rep.range_basis) == len(range_)
                for got, want in zip(rep.range_basis, range_):
                    assert got.comps.tobytes() == want.comps.tobytes()
                ranks.add(rank)
        assert {0, 1, 2} <= ranks


def test_six_roundtrip(frame):
    rng = np.random.default_rng(2)
    v = rng.normal(size=6)
    assert np.max(np.abs(to_six(from_six(v, frame)) - v)) == 0.0


def test_canonical_span_basis_deterministic():
    rows = np.array([[0.0, 2.0, 1.0], [0.0, 4.0, 2.0], [1.0, 1.0, 1.0]])
    b1 = canonical_span_basis(rows)
    b2 = canonical_span_basis(rows[::-1])
    assert b1.shape == (2, 3)
    assert np.max(np.abs(b1 - b2)) < 1e-12


def _span_basis_reference(vectors, tol=1e-9):
    """canonical_span_basis as it was written with np.delete/np.outer and
    a list of finished rows: the reference for the one-array version."""
    rows = np.atleast_2d(np.asarray(vectors, dtype=float)).copy()
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim > 1 else 0)
    scale = np.max(np.abs(rows))
    if scale == 0.0:
        return np.empty((0, rows.shape[1]))
    m, n = rows.shape
    out = []
    col = 0
    work = rows / scale
    while col < n and len(out) < m:
        pivots = np.abs(work[:, col])
        i = int(np.argmax(pivots))
        if pivots[i] > tol:
            row = work[i] / work[i, col]
            work = np.delete(work, i, axis=0)
            work = work - np.outer(work[:, col], row)
            out = [r - r[col] * row for r in out]
            out.append(row)
        col += 1
    if not out:
        return np.empty((0, n))
    arr = np.array(out)
    arr[np.abs(arr) <= tol] = 0.0
    return arr


@st.composite
def span_inputs(draw):
    """Rows at magnitudes 1e-12..1e12, with duplicate, negated (exact
    pivot ties), zero and dependent rows mixed in."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 16))
    mant = draw(hnp.arrays(np.float64, (m, n),
                           elements=st.floats(-1.0, 1.0, width=32)))
    exp = draw(hnp.arrays(np.int64, (m, n), elements=st.integers(-12, 12)))
    rows = mant * 10.0 ** exp
    for i in range(1, m):
        j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        kind = draw(st.sampled_from(["keep", "dup", "neg", "zero", "comb",
                                     "tie"]))
        if kind == "dup":
            rows[i] = rows[j]
        elif kind == "neg":
            rows[i] = -rows[j]
        elif kind == "zero":
            rows[i] = 0.0
        elif kind == "comb":
            rows[i] = 3.0 * rows[j] - 0.5 * rows[k]
        elif kind == "tie":
            c = draw(st.integers(0, n - 1))
            rows[i, c] = -rows[j, c]
    tol = draw(st.sampled_from([1e-9, 1e-8, 1e-6]))
    return rows, tol


@settings(max_examples=400, deadline=None, derandomize=True)
@given(span_inputs())
def test_canonical_span_basis_matches_reference_bitwise(case):
    rows, tol = case
    got = canonical_span_basis(rows, tol)
    want = _span_basis_reference(rows, tol)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def span_stacks(draw):
    """Stacks of up to six matrices of six columns, each of rank 0-6 with
    zero, repeated, rescaled and negated rows (exact pivot ties) and
    entries on either side of tol times the matrix's largest entry;
    sometimes transposed in memory, as the closure's inputs are."""
    tol = draw(st.sampled_from([1e-9, 1e-8]))
    b, m = draw(st.integers(1, 6)), draw(st.integers(0, 12))
    stack = np.zeros((b, m, 6))
    for mat in stack:
        rank = draw(st.integers(0, 6))
        seed = draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        mat[:] = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, 6))
        mat *= 10.0 ** rng.integers(-6, 7, size=(m, 1))
        for i in range(m):
            j = int(rng.integers(0, m))
            kind = draw(st.sampled_from(["keep", "zero", "dup", "scale",
                                         "neg", "edge"]))
            if kind == "zero":
                mat[i] = 0.0
            elif kind == "dup":
                mat[i] = mat[j]
            elif kind == "scale":
                mat[i] = 2.0 ** int(rng.integers(-8, 9)) * mat[j]
            elif kind == "neg":
                mat[i] = -mat[j]
            elif kind == "edge" and np.any(mat):
                ulps = int(rng.integers(-2, 3))
                edge = tol * np.abs(mat).max() * (1.0 + ulps * 2.0 ** -52)
                mat[i, int(rng.integers(0, 6))] = edge
    if draw(st.booleans()):
        stack = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(
            0, 2, 1)
    return stack, tol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(span_stacks())
def test_span_bases_match_the_per_matrix_loop_bitwise(case):
    # each matrix of the stack reduced alone, by the loop, and with its
    # zero rows dropped, as a closure that zeroes rows relies on
    stack, tol = case
    before = stack.copy()
    basis, pivoted = _span_bases(stack, tol)
    assert np.array_equal(stack, before)
    assert basis.shape == (len(stack), 6, 6)
    for mat, rows, piv in zip(stack, basis, pivoted):
        want = span_basis_loop(mat, tol)
        assert rows[piv].tobytes() == want.tobytes()
        assert not np.any(rows[~piv])
        nonzero = mat[np.any(mat != 0.0, axis=1)]
        assert span_basis_loop(nonzero, tol).tobytes() == want.tobytes()
        assert canonical_span_basis(mat, tol).tobytes() == want.tobytes()


def test_span_bases_round_off_of_a_moved_pivot_is_never_a_pivot():
    # b is a multiple of a plus 1.5-5 tol in column 1: column 0's pivot
    # a leaves round-off in its place, which b's tiny column-1 pivot
    # multiplies past tol in column 2; the loop masks that row, and so
    # must the stack, or a rank-2 matrix reads as rank 3
    rng = np.random.default_rng(1)
    stack = []
    for _ in range(40):
        a = rng.uniform(0.3, 1.0, size=3)
        b = rng.uniform(0.2, 0.9) * a + [0.0, rng.uniform(1.5e-9, 5e-9),
                                          rng.uniform(0.5, 1.0)]
        stack.append([a, b, np.zeros(3)])
    basis, pivoted = _span_bases(stack, 1e-9)
    for mat, rows, piv in zip(stack, basis, pivoted):
        want = span_basis_loop(mat, 1e-9)
        assert len(want) == 2
        assert rows[piv].tobytes() == want.tobytes()


# The rank blocks that svd_rank and null_basis replaced, as each site
# wrote them: (rank, null basis) of a at tol; None where the site took
# its zero special case.

def _rank_block_kernel_vectors(a, tol):
    u, s, vt = np.linalg.svd(a)
    smax = float(s[0]) if s.size and s[0] > 0 else 0.0
    if smax == 0.0:
        return None
    rank = int(np.sum(s > tol * smax))
    return rank, canonical_span_basis(vt[rank:], tol)


def _rank_block_solve_theorem1(a, tol):
    u, s, vt = np.linalg.svd(a)
    smax = float(s[0]) if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    null = canonical_span_basis(vt[rank:], tol) if rank < 10 else np.empty((0, 10))
    return rank, null


def _rank_block_curvature_map(a, tol):
    u, s, vt = np.linalg.svd(a)
    smax = float(s[0]) if s[0] > 0 else 0.0
    if smax == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > tol * smax))
    kern = canonical_span_basis(vt[rank:], tol) if rank < 6 else np.empty((0, 6))
    return rank, kern


def _rank_block_constant_directions(a, tol):
    _, s, vt = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    null = canonical_span_basis(vt[rank:], tol) if rank < 4 else []
    return rank, np.reshape(np.asarray(null, float), (-1, 4))


def _shared_rank(a, tol):
    return svd_rank(a, tol)[0], null_basis(a, tol)


def _shared_kernel_vectors(a, tol):
    return _shared_rank(a, tol) if np.any(a) else None


# site: (former block, the shared helpers as the site calls them, shapes)
_RANK_SITES = {
    "kernel_vectors": (_rank_block_kernel_vectors, _shared_kernel_vectors,
                       [(64, 4)]),
    "solve_theorem1": (_rank_block_solve_theorem1, _shared_rank,
                       [(256, 10), (60, 10)]),
    "curvature_map_matrix": (_rank_block_curvature_map, _shared_rank,
                             [(6, 6)]),
    "constant_directions": (_rank_block_constant_directions, _shared_rank,
                            [(4 * k, 4) for k in range(7)]),
}


@st.composite
def rank_inputs(draw):
    """A site's matrix: zero, rank-deficient, full-rank, or with a
    singular value exactly at the rank threshold, scaled overall and
    row by row over 1e-12..1e12."""
    site = draw(st.sampled_from(sorted(_RANK_SITES)))
    shapes = _RANK_SITES[site][2]
    m, n = draw(st.sampled_from(shapes))
    tol = draw(st.sampled_from([1e-9, 1e-8]))
    kind = draw(st.sampled_from(["zero", "deficient", "full", "threshold",
                                 "graded"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-12, 12))
    k = min(m, n)
    a = np.zeros((m, n))
    if kind == "deficient" and k > 1:
        r = draw(st.integers(1, k - 1))
        a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n)) * scale
    elif kind in ("full", "graded"):
        a = rng.normal(size=(m, n)) * scale
        if kind == "graded":
            a *= 10.0 ** rng.integers(-12, 13, size=(m, 1))
    elif kind == "threshold" and k > 1:
        # s = (scale, t * scale) exactly: '>' drops the second, '>=' not
        a[0, 0], a[1, 1] = scale, tol * scale
        a = a[rng.permutation(m)][:, rng.permutation(n)]
    return site, a, tol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rank_inputs())
def test_svd_rank_and_null_basis_match_the_former_blocks_bitwise(case):
    site, a, tol = case
    old, new, _ = _RANK_SITES[site]
    want, got = old(a, tol), new(a, tol)
    if want is None:
        assert got is None
        return
    assert got[0] == want[0]
    assert got[1].shape == want[1].shape
    assert got[1].tobytes() == want[1].tobytes()


def test_svd_rank_threshold_and_empty():
    a = np.diag([2.0, 2e-9, 0.0])
    assert svd_rank(a, 1e-9)[0] == 1
    assert svd_rank(np.zeros((3, 3)), 1e-9)[0] == 0
    assert svd_rank(np.empty((0, 4)), 1e-9)[0] == 0
    assert null_basis(np.empty((0, 4))).tobytes() == np.eye(4).tobytes()


# the six-coordinate map as it was written, one pair at a time

def _to_six_loop(comps):
    return np.array([comps[a, b] for a, b in BASIS_PAIRS])


def _antisym_loop(v):
    comps = np.zeros((4, 4))
    for k, (a, b) in enumerate(BASIS_PAIRS):
        comps[a, b] = v[k]
        comps[b, a] = -v[k]
    return comps


_six_values = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 5), st.just(6)),
    elements=st.one_of(st.just(0.0), st.just(-0.0),
                       st.floats(-1.0, 1.0, width=32).map(
                           lambda x: x * 1e12),
                       st.floats(-1.0, 1.0, width=32).map(
                           lambda x: x * 1e-12),
                       st.floats(-1e3, 1e3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_six_values)
def test_six_coordinate_map_matches_the_loops_bitwise(six):
    frame = minkowski_frame()
    loops = np.array([_antisym_loop(v) for v in six])
    assert antisym_from_six(six).tobytes() == loops.tobytes()
    assert antisym_from_six(six[0]).tobytes() == loops[0].tobytes()
    assert (to_six(loops).tobytes()
            == np.array([_to_six_loop(w) for w in loops]).tobytes())
    for v, w in zip(six, loops):
        want = Bivector(w, frame)
        got = from_six(v, frame)
        assert got.comps.tobytes() == want.comps.tobytes()
        assert to_six(got).tobytes() == _to_six_loop(want.comps).tobytes()
