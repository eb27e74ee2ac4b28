import copy
import dis
import inspect
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import raw_partner
from lorhol.exprdsl import (
    MAX_NESTING, Add, Const, Coord, DomainError, Fn, Mul, Param,
    ParseError, Pow, UnknownIdentifierError, add, compile_program, const,
    count_lines, coord, differentiate, eval_expr, fn, free_symbols, mul, neg,
    normal_forms, normalize, param, parse_expr, pow_, sub, sym_sum, to_string,
)
from lorhol.cli import load_metric_file
from lorhol.fixtures import named_fixture
from lorhol.pointcalc import sample_points
from lorhol.projective import invert_pair

COORDS = ("u", "v", "x", "y")
PARAMS = ("b0", "f0", "kappa", "xi")


def p(src, params=PARAMS):
    return parse_expr(src, COORDS, params)


def ev(expr, point, **env):
    return eval_expr(expr, point, COORDS, env)


class TestParse:
    def test_product_of_param_and_sqrt(self):
        e = p("b0*sqrt(v)")
        assert isinstance(e, Mul)
        assert e.lhs == Param("b0")
        assert e.rhs == Pow(Coord("v"), Fraction(1, 2))

    def test_power_exp_tree(self):
        e = p("u^2*exp(f0*x*y)")
        assert isinstance(e, Mul)
        assert e.lhs == Pow(Coord("u"), Fraction(2))
        assert isinstance(e.rhs, Fn) and e.rhs.name == "exp"

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            p("u +")
        assert exc.value.offset == 3

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            p("u*q")

    def test_unknown_identifier_offset(self):
        with pytest.raises(ParseError) as exc:
            p("u + zoom")
        assert exc.value.offset == 4

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            p("u @ v")

    def test_function_requires_parens(self):
        with pytest.raises(ParseError):
            p("sqrt v")

    def test_exponent_must_be_rational(self):
        with pytest.raises(ParseError):
            p("u^v")

    def test_rational_exponent_forms(self):
        assert p("v^(1/2)") == Pow(Coord("v"), Fraction(1, 2))
        assert p("v^-2") == Pow(Coord("v"), Fraction(-2))
        assert p("v^2.5") == Pow(Coord("v"), Fraction(5, 2))

    def test_power_right_associative(self):
        assert p("u^2^3") == Pow(Coord("u"), Fraction(8))

    def test_constant_folding(self):
        assert p("2*3 + 1") == Const(Fraction(7))
        assert p("u*1") == Coord("u")
        assert p("u + 0") == Coord("u")
        assert p("u^0") == Const(Fraction(1))
        assert p("1/2") == Const(Fraction(1, 2))
        assert p("1e-3") == Const(Fraction(1, 1000))

    @pytest.mark.parametrize("opening", ["(", "sqrt(", "-"])
    def test_nesting_limit(self, opening):
        # each level opens one more operand; the recursive descent would
        # overflow Python's stack near 200 levels
        def nest(n):
            return opening * n + "u" + ")" * (n * opening.count("("))
        p(nest(MAX_NESTING - 1))
        for n in (MAX_NESTING, 199):
            with pytest.raises(ParseError, match="nesting deeper than 100 "
                               "levels") as exc:
                p(nest(n))
            assert exc.value.offset == MAX_NESTING * len(opening)


class TestDifferentiate:
    def test_power_rule(self):
        e = differentiate(p("u^2"), "u")
        assert ev(e, (3.0, 1.0, 0.0, 0.0)) == pytest.approx(6.0)

    def test_chain_rule_sqrt(self):
        e = differentiate(p("b0*sqrt(v)"), "v")
        got = ev(e, (0.0, 4.0, 0.0, 0.0), b0=3.0)
        assert got == pytest.approx(3.0 / (2.0 * 2.0))

    def test_chain_rule_exp(self):
        e = differentiate(p("exp(x*y)"), "x")
        got = ev(e, (0.0, 0.0, 2.0, 5.0))
        assert got == pytest.approx(5.0 * math.exp(10.0))

    def test_other_coordinate_is_zero(self):
        assert differentiate(p("u^2"), "x") == Const(Fraction(0))


class TestInterning:
    def test_equal_structures_are_one_node(self):
        built = [
            p("b0*sqrt(v) + 1"),
            add(mul(param("b0"), fn("sqrt", coord("v"))), const(1)),
            Add(Mul(Param("b0"), Pow(Coord("v"), Fraction(1, 2))), Const(1)),
            differentiate(p("b0*sqrt(v)*u + u"), "u"),
        ]
        assert all(e is built[0] for e in built)

    def test_payloads_are_coerced_to_fraction(self):
        assert Const(1) is Const(Fraction(1)) is Const(1.0)
        assert Pow(Coord("v"), 2) is Pow(Coord("v"), Fraction(2))
        assert type(Const(3).value) is Fraction
        assert type(Pow(Coord("v"), 2).exponent) is Fraction

    def test_nodes_are_immutable(self):
        e = p("u*v")
        with pytest.raises(AttributeError):
            e.lhs = Coord("x")

    def test_concurrent_construction_gives_one_node(self):
        # threads racing to intern the same fresh structures must all get
        # the same nodes (the table is filled with dict.setdefault)
        names = [f"t{i}" for i in range(200)]

        def build():
            return [differentiate(p("sin(u*v) + u^3/(v + 2)"), "u")
                    + mul(Param(n), Coord("u")) for n in names]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(build) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for got in results:
            assert all(a is b for a, b in zip(got, results[0]))
        assert len(results[0]) == len(names)

    def test_self_squared_dag(self):
        # e_{k+1} = e_k*e_k + u: 49 distinct nodes, 2^48 tree paths
        def build():
            e = Coord("u")
            for _ in range(48):
                e = add(mul(e, e), Coord("u"))
            return e

        e = build()
        assert hash(e) == hash(build()) and e == build()
        assert free_symbols(e) == ({"u"}, set())
        de = differentiate(e, "u")
        u = 0.2
        val, dval = u, 1.0
        for _ in range(48):
            val, dval = val * val + u, (dval * val + val * dval) + 1.0
        got = compile_program([e, de], COORDS, ())(
            np.array([[u, 0.0, 0.0, 0.0]]), ())
        assert got[:, 0] == pytest.approx([val, dval], rel=1e-12)


def test_compiled_partner_table_matches_tree_walk():
    # The order-3 table of the r11 partner as the raw adjugate formula
    # (what `holonomy --order 1` compiled before partners were
    # normalised) is a large shared DAG; check the emitted code against
    # the tree-walking evaluator on a fixed subset of entries.
    spec = raw_partner("r11")
    table = []
    for a in range(4):
        for b in range(a, 4):
            for m in itertools.combinations_with_replacement(range(4), 3):
                e = spec.g[a][b]
                for c in m:
                    e = differentiate(e, spec.coords[c])
                table.append(e)
    names = spec.params.names()
    prog = compile_program(table, spec.coords, names)
    point = sample_points(spec, 1, seed=3)[0]
    got = prog(point[None, :], [spec.params[n] for n in names])[:, 0]
    refs = {k: eval_expr(table[k], point, spec.coords, spec.params)
            for k in range(0, len(table), 9)}
    assert sum(ref != 0.0 for ref in refs.values()) >= 10
    for k, ref in refs.items():
        assert got[k] == pytest.approx(ref, rel=1e-10), k


class TestCompiledWrites:
    """The emitted code writes each output row into the preallocated
    result; every output kind must land in its own row."""

    PTS = np.array([[1.0, 2.0, 0.5, -0.3], [4.0, 0.5, -1.0, 2.0],
                    [0.25, 3.0, 0.0, 1.0]])
    ENV = {"b0": 1.5, "xi": -0.25}

    def check(self, exprs, pts):
        names = tuple(sorted(self.ENV))
        got = compile_program(exprs, COORDS, names)(
            pts, [self.ENV[n] for n in names])
        assert got.shape == (len(exprs), len(pts))
        for k, e in enumerate(exprs):
            for i, point in enumerate(pts):
                ref = eval_expr(e, point, COORDS, self.ENV)
                assert got[k, i] == pytest.approx(ref, rel=1e-14, abs=0)
        return got

    def test_constant_output(self):
        got = self.check([p("u*v"), const(Fraction(5, 2)), p("x")], self.PTS)
        assert np.all(got[1] == 2.5)

    def test_bare_coordinate_output(self):
        got = self.check([coord("v"), p("u + y"), coord("y")], self.PTS)
        assert np.array_equal(got[0], self.PTS[:, 1])
        assert np.array_equal(got[2], self.PTS[:, 3])

    def test_bare_parameter_output(self):
        got = self.check([param("xi"), p("b0*u"), param("b0")], self.PTS)
        assert np.all(got[0] == -0.25) and np.all(got[2] == 1.5)

    def test_shared_node_in_two_slots(self):
        e = p("exp(x)*sqrt(v) + b0")
        got = self.check([e, p("u"), e], self.PTS)
        assert np.array_equal(got[0], got[2])

    @pytest.mark.parametrize("n", [1, 0])
    def test_small_batches(self, n):
        exprs = [p("u^2 + b0*v"), const(3), coord("x"), param("xi")]
        got = self.check(exprs, self.PTS[:n])
        assert got.shape == (4, n)

    ALL_CONST = [const(0), const(Fraction(-3, 4)), const(0), const(7)]
    MIXED = [const(0), p("u*v + b0"), const(Fraction(1, 3)), coord("x"),
             const(0), p("exp(y)*xi"), param("b0"), const(-2)]
    NO_CONST = [p("u^2"), coord("v"), param("xi"), p("sin(x) + cos(y)")]

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("kind", ["all", "mixed", "shared", "none"])
    def test_hoisted_constant_rows(self, kind, n):
        # constant rows are written in one assignment; every row, whatever
        # its kind, must still land where eval_expr puts it
        half = const(Fraction(1, 2))
        exprs = {"all": self.ALL_CONST, "mixed": self.MIXED,
                 "shared": [p("u"), half, p("v*b0"), half],
                 "none": self.NO_CONST}[kind]
        got = self.check(exprs, self.PTS[:n])
        for k, e in enumerate(exprs):
            if isinstance(e, Const):
                assert np.all(got[k] == float(e.value))
        if kind == "shared":
            assert np.array_equal(got[1], got[3])

    def test_no_per_row_constant_writes(self):
        # one store per computed row and one for the whole constant block
        f = compile_program(self.MIXED, COORDS, tuple(sorted(self.ENV)))
        prog = inspect.getclosurevars(f).nonlocals["f"]
        stores = [i for i in dis.get_instructions(prog)
                  if i.opname == "STORE_SUBSCR"]
        assert len(stores) == 5
        assert prog.__globals__["_ck"].tolist() == [0, 2, 4, 7]
        assert prog.__globals__["_cv"][:, 0].tolist() == [0.0, 1 / 3, 0.0,
                                                          -2.0]

    def test_count_lines_counts_the_emitted_assignments(self):
        # the partner tests compare the sizes of programs by this count
        exprs = self.MIXED + [p("exp(u*v + b0)*sqrt(v) - u*v"), const(2)]
        f = compile_program(exprs, COORDS, tuple(sorted(self.ENV)))
        prog = inspect.getclosurevars(f).nonlocals["f"]
        assigned = [i for i in dis.get_instructions(prog)
                    if i.opname == "STORE_FAST"]
        assert count_lines(exprs) == len(assigned) == 8
        # with a shared set, each call counts only what its batch adds
        seen = set()
        assert (count_lines(exprs[:2], seen), count_lines(exprs, seen),
                count_lines(exprs, seen)) == (2, 6, 0)

    @pytest.mark.parametrize("src", ["1e400*u", "10^400*u", "1e400"])
    def test_constant_out_of_float_range(self, src):
        # the compiler (for a computed row and for a constant row, which
        # a bare constant is) and eval_expr each turn the exact constant
        # into a float
        e = p(src)
        for run in (lambda: compile_program([e], COORDS, ())(self.PTS),
                    lambda: eval_expr(e, self.PTS[0], COORDS, {})):
            with pytest.raises(DomainError, match="^constant out of float "
                               "range in `10{400}`$"):
                run()

    @pytest.mark.parametrize("src", ["u^(10^400)", "u^(10^400/3)"])
    def test_exponent_out_of_float_range(self, src):
        # the compiler rejects the exponent before any program runs, and
        # eval_expr with the same message
        e = p(src)
        message = r"^exponent out of float range in `u\^\(?10{400}"
        with pytest.raises(DomainError, match=message):
            compile_program([e], COORDS, ())
        with pytest.raises(DomainError, match=message):
            eval_expr(e, self.PTS[0], COORDS, {})

    @pytest.mark.parametrize("src", ["u^(10^20)", "u^(10^20/3)"])
    def test_exponent_within_float_range(self, src):
        e = p(src)
        got = compile_program([e], COORDS, ())(self.PTS[:1])[0, 0]
        assert got == eval_expr(e, self.PTS[0], COORDS, {}) == 1.0

    @pytest.mark.parametrize("src", ["1/0", "u + 1/0", "0^(-1)*u",
                                     "(-1)^(1/3)", "(10^300)^(3/2)*u"])
    def test_constant_domain_violation_reads_non_finite(self, src):
        # arithmetic on constants alone runs in numpy, as on the rows:
        # no Python exception, and no finite value where eval_expr fails
        e = p(src)
        with np.errstate(all="ignore"):
            got = compile_program([e], COORDS, ())(self.PTS)
        assert got.shape == (1, len(self.PTS))
        assert not np.any(np.isfinite(got))
        with pytest.raises(DomainError):
            eval_expr(e, self.PTS[0], COORDS, {})

    def test_domain_violation_reads_nan(self):
        e = p("sqrt(u)")
        pts = np.array([[-1.0, 1.0, 0.0, 0.0], [4.0, 1.0, 0.0, 0.0]])
        # the evaluator leaves floating-point warnings to its caller
        with pytest.warns(RuntimeWarning, match="invalid value"):
            got = compile_program([e, p("v")], COORDS, ())(pts)
        assert np.isnan(got[0, 0]) and got[0, 1] == 2.0
        assert np.all(got[1] == 1.0)
        with pytest.raises(DomainError):
            eval_expr(e, pts[0], COORDS, {})


class TestEval:
    def test_arithmetic(self):
        assert ev(p("2*u*v"), (1.0, 3.0, 0.0, 0.0)) == pytest.approx(6.0)

    def test_sqrt_domain_violation(self):
        with pytest.raises(DomainError) as exc:
            ev(p("sqrt(v)"), (0.0, -1.0, 0.0, 0.0))
        assert "sqrt(v)" in str(exc.value)

    def test_appendix_conformal_factor(self):
        e = p("kappa^4*(1 + xi*u)^-2")
        got = ev(e, (0.0, 1.0, 0.0, 0.0), kappa=1.0, xi=0.5)
        assert got == pytest.approx(1.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev(p("u/v"), (1.0, 0.0, 0.0, 0.0))

    def test_ln_domain(self):
        with pytest.raises(DomainError):
            ev(p("ln(u)"), (-2.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("src, message", [
        ("ln(-1)/0", "division by zero in `ln(-1)/0`"),
        ("sqrt(-v)/ln(-u)", "ln of a non-positive value in `ln(-u)`"),
    ])
    def test_first_failure_in_recursive_order(self, src, message):
        # both operands fail; a quotient tests its denominator, and
        # whether it is zero, before it evaluates its numerator
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ev(p(src), (1.0, 1.0, 1.0, 1.0))


class TestLongExpressions:
    """A sum is a chain as deep as it has terms.  Every walk over the DAG
    keeps its own stack, so none meets Python's recursion limit."""

    N = 5000

    @pytest.fixture(scope="class")
    def chain(self):
        u, x = coord("u"), coord("x")
        return sym_sum(mul(mul(const(Fraction(k, 10**9)), pow_(u, k % 5)), x)
                       for k in range(1, self.N + 1))

    def test_every_walk_takes_it(self, chain):
        assert to_string(chain).count(" + ") == self.N - 1
        assert free_symbols(chain) == ({"u", "x"}, set())
        assert count_lines([chain]) > 2 * self.N
        # the sum is linear in x, so x * d/dx gives it back
        point = (1.25, 0.0, 0.5, 0.0)
        value = ev(chain, point)
        slope = ev(differentiate(chain, "x"), point)
        assert 0.5 * slope == pytest.approx(value, rel=1e-12)

    def test_compiled_value_and_few_names(self, chain):
        f = compile_program([chain], COORDS, ())
        got = f(np.array([[1.25, 0.0, 0.5, 0.0]]))[0, 0]
        assert got == ev(chain, (1.25, 0.0, 0.5, 0.0))
        # a name is reused once its node is dead, so the thousands of
        # lines share a handful of locals
        prog = inspect.getclosurevars(f).nonlocals["f"]
        assert len(prog.__code__.co_varnames) <= 16

    def test_pickle_and_deepcopy_give_the_interned_node(self):
        # a node reduces to a flat table of its DAG, so pickling nests no
        # deeper than one row, and rows are rebuilt through the
        # constructors, so the copy is the interned node itself
        u, x, xi = coord("u"), coord("x"), param("xi")
        terms = sym_sum(mul(mul(const(Fraction(k, 7)), pow_(u, k % 5 - 2)),
                            fn("sin", mul(xi, x)) if k % 2 else neg(x))
                        for k in range(1, 10_001))
        assert pickle.loads(pickle.dumps(terms)) is terms
        assert copy.deepcopy(terms) is terms

    def test_normalize_merges_the_terms(self, chain):
        # the 5000 terms are five monomials x u^k, k = 0..4, so the sum
        # becomes x times a 5-term sum
        out = normalize(chain)
        assert to_string(out).count(" + ") == 4
        point = (1.25, 0.0, 0.5, 0.0)
        assert ev(out, point) == pytest.approx(ev(chain, point), rel=1e-12)


# --- random expression machinery -------------------------------------------

def _leaf():
    return st.one_of(
        st.integers(min_value=-4, max_value=4).map(lambda n: Const(Fraction(n))),
        st.sampled_from([Const(Fraction(1, 2)), Const(Fraction(3, 4))]),
        st.sampled_from([Coord(c) for c in COORDS]),
        st.sampled_from([Param("b0"), Param("f0")]),
    )


def _extend(children):
    # Build through the smart constructors: the canonical-form guarantees
    # only cover trees that went through constant folding.
    exponents = st.sampled_from(
        [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(3, 2)])
    return st.one_of(
        st.tuples(children, children).map(lambda t: add(*t)),
        st.tuples(children, children).map(lambda t: sub(*t)),
        st.tuples(children, children).map(lambda t: mul(*t)),
        st.tuples(children, exponents).map(lambda t: pow_(t[0], t[1])),
        children.map(neg),
        children.map(lambda e: fn("exp", e)),
        children.map(lambda e: fn("sin", e)),
        children.map(lambda e: fn("cos", e)),
    )


EXPRS = st.recursive(_leaf(), _extend, max_leaves=12)
POINTS = st.tuples(*[st.floats(min_value=0.3, max_value=1.7) for _ in range(4)])
ENV = {"b0": 0.7, "f0": -0.4}


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(EXPRS, POINTS)
def test_symbolic_derivative_matches_finite_difference(expr, point):
    var = "u"
    h = 1e-6

    def value(shift):
        pt = (point[0] + shift,) + point[1:]
        return eval_expr(expr, pt, COORDS, ENV)

    try:
        f_plus, f_minus = value(h), value(-h)
        sym = eval_expr(differentiate(expr, var), point, COORDS, ENV)
    except DomainError:
        return  # point fell outside the expression's domain
    fd = (f_plus - f_minus) / (2 * h)
    scale = max(1.0, abs(sym), abs(fd))
    if scale > 1e12:
        return  # FD step underflows at these magnitudes
    assert sym == pytest.approx(fd, rel=2e-5, abs=2e-5 * scale)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(EXPRS)
def test_print_parse_print_fixed_point(expr):
    s1 = to_string(expr)
    back = parse_expr(s1, COORDS, PARAMS)
    assert to_string(back) == s1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(EXPRS, POINTS)
def test_reparse_preserves_value(expr, point):
    back = parse_expr(to_string(expr), COORDS, PARAMS)
    try:
        v1 = eval_expr(expr, point, COORDS, ENV)
    except DomainError:
        return
    v2 = eval_expr(back, point, COORDS, ENV)
    assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(EXPRS, POINTS)
def test_compiled_eval_matches_reference(expr, point):
    try:
        ref = eval_expr(expr, point, COORDS, ENV)
    except DomainError:
        return
    f = compile_program([expr], COORDS, tuple(ENV))
    got = f(np.array([point]), tuple(ENV.values()))[0, 0]
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_compiled_eval_batches():
    e = p("u^2 + b0*v")
    f = compile_program([e, differentiate(e, "u")], COORDS, ("b0",))
    pts = np.array([[1.0, 2.0, 0, 0], [3.0, 1.0, 0, 0]])
    out = f(pts, (2.0,))
    np.testing.assert_allclose(out, [[5.0, 11.0], [2.0, 6.0]])


def test_free_symbols():
    cs, ps = free_symbols(p("b0*sqrt(v) + u*cos(x)"))
    assert cs == {"v", "u", "x"}
    assert ps == {"b0"}


class TestNormalize:
    """normalize: a rational coefficient times a product of interned
    bases with integer exponents, sums of such terms, like terms merged,
    exp folded."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(EXPRS, POINTS)
    def test_value_fixed_point_and_round_trip(self, expr, point):
        out = normalize(expr)
        assert normalize(out) is out
        assert parse_expr(to_string(out), COORDS, PARAMS) is out
        try:
            ref = eval_expr(expr, point, COORDS, ENV)
            got = eval_expr(out, point, COORDS, ENV)
        except DomainError:
            return  # one of them is not finite here
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("src, want", [
        ("exp(0)", "1"),
        ("exp(u - u)", "1"),
        ("exp(u)^3", "exp(3*u)"),
        ("exp(u)^-2", "exp(-2*u)"),
        ("exp(u)*exp(x*y)", "exp(u + x*y)"),
        ("exp(u)*exp(-u)", "1"),
        ("u^2*exp(x*y)*exp(x*y)/exp(2*x*y)", "u^2"),
    ])
    def test_exp_folds(self, src, want):
        assert normalize(p(src)) is p(want)

    @pytest.mark.parametrize("src, want", [
        # a repeated sum is one base, raised to a power
        ("(1 + xi*u)*(1 + xi*u)", "(1 + xi*u)^2"),
        # S and -S share a base
        ("(1 + xi*u)*(-1 - xi*u)", "-(1 + xi*u)^2"),
        # a sum gives up its content when it becomes a base
        ("(u + u*v)/(1 + v)", "u"),
        ("(2*u + 4)*(2 + u)", "2*(2 + u)^2"),
        # a monomial times a sum distributes; like terms merge
        ("u*(1 + v) - u*v", "u"),
    ])
    def test_sums_as_bases(self, src, want):
        assert normalize(p(src)) is p(want)

    def test_cancelled_denominators(self):
        [out], cancelled = normal_forms([p("u*x/(u*(1 + v))")])
        assert out is p("x/(1 + v)")
        assert cancelled == (p("u"),)


def test_derive_partner_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # bases are ordered by a structural key, not by id or hash; each
    # interpreter derives the r9 and r11 partners
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = textwrap.dedent("""
        import sys
        from lorhol.cli import main
        out = sys.argv[1]
        for name in ("r9", "r11"):
            for cmd in (["fixtures", "emit", name, "-o", out],
                        ["derive-partner", "-m", f"{out}/{name}-g.json",
                         "-a", f"{out}/{name}-a.json",
                         "-o", f"{out}/{name}-gp.json"]):
                try:
                    main(cmd)
                except SystemExit as stop:
                    assert stop.code == 0, stop.code
        """)
    for seed in ("0", "4242"):
        out = tmp_path / seed
        out.mkdir()
        subprocess.run([sys.executable, "-c", code, str(out)], check=True,
                       env=dict(env, PYTHONHASHSEED=seed), capture_output=True)
    for name in ("r9", "r11"):
        first = (tmp_path / "0" / f"{name}-gp.json").read_bytes()
        assert first == (tmp_path / "4242" / f"{name}-gp.json").read_bytes()
        # and the file parses back to the very nodes of the derivation
        spec = load_metric_file(str(tmp_path / "0" / f"{name}-gp.json"))
        derived = invert_pair(named_fixture(name).pair).partner
        assert spec.g == derived.g
        assert spec.constraints == derived.constraints
