"""Small closed-form expression language used for metric components.

The grammar is deliberately tiny: rational constants, coordinates,
named parameters, +, -, *, /, powers with exact rational exponents and
the functions sqrt/exp/ln/sin/cos.  It is closed under partial
differentiation, which is all the tensor machinery needs.  sqrt(x) is
stored canonically as x^(1/2).  The symbolic 4x4 determinant and
adjugate that pointcalc and projective build on live here too, and the
normal form (normalize) that projective writes derived partners in.

See docs/grammar.md for the concrete syntax.
"""
from __future__ import annotations

import math
import operator
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain
from typing import Callable, Container, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Expr", "Const", "Coord", "Param", "Neg", "Add", "Sub", "Mul", "Div",
    "Pow", "Fn", "ParamEnv", "ExprError", "ParseError",
    "UnknownIdentifierError", "DomainError", "parse_expr", "differentiate",
    "eval_expr", "to_string", "const", "coord", "param", "add", "sub",
    "mul", "div", "neg", "pow_", "fn", "free_symbols", "MAX_NESTING",
    "count_lines", "sym_sum", "sym_det4", "sym_cofactor4", "sym_adjugate4",
    "normalize", "normal_forms",
]

FUNCTION_NAMES = ("sqrt", "exp", "ln", "sin", "cos")


class ExprError(Exception):
    """Base class for everything this module raises."""


class ParseError(ExprError):
    """Syntax error; ``offset`` is the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier that is neither a declared coordinate nor parameter."""


class DomainError(ExprError):
    """Evaluation left the expression's domain (ln/sqrt of a negative,
    division by zero, overflow).  ``expr`` is the offending subexpression."""

    def __init__(self, message: str, expr: "Expr"):
        super().__init__(f"{message} in `{to_string(expr)}`")
        self.expr = expr


# ---------------------------------------------------------------------------
# AST (hash-consed)
# ---------------------------------------------------------------------------

# Every node ever built, keyed by (class, *fields); children are keyed by
# identity.  Append-only: an interned node lives as long as the process,
# so a node's identity stands for its structure.  Filled with
# dict.setdefault, so threads racing to build one structure still get
# one node.
_NODES: dict[tuple, "Expr"] = {}


class Expr:
    """Immutable, hash-consed expression node.

    Building a node returns the one node of that structure, so structural
    equality is identity: ``==`` is ``is`` and the hash is the identity
    hash, both O(1) however large the shared DAG below the node.  Use the
    module-level smart constructors (or the operator overloads) rather
    than instantiating subclasses, so constant folding and the trivial
    identities are applied uniformly."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _operands: tuple[str, ...] = ()  # the fields that hold nodes

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            if len(fields) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes fields {cls._fields}")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                object.__setattr__(node, name, value)
            node = _NODES.setdefault(key, node)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # the DAG as a flat post-order table, operands given by row, so a
        # long sum pickles and copies without recursion; _unreduce builds
        # it through the constructors, so the copy is this very node
        table, row = [], {}
        for node in _postorder([self]):
            row[node] = len(table)
            table.append((type(node), *(
                row[getattr(node, f)] if f in node._operands
                else getattr(node, f) for f in node._fields)))
        return _unreduce, (tuple(table),)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_string(self)!r})"

    def __str__(self) -> str:
        return to_string(self)

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __neg__(self):
        return neg(self)


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __new__(cls, value):
        if type(value) is not Fraction:
            value = Fraction(value)
        return Expr.__new__(cls, value)


class Coord(Expr):
    __slots__ = _fields = ("name",)


class Param(Expr):
    __slots__ = _fields = ("name",)


class Neg(Expr):
    __slots__ = _fields = _operands = ("arg",)


class Add(Expr):
    __slots__ = _fields = _operands = ("lhs", "rhs")


class Sub(Expr):
    __slots__ = _fields = _operands = ("lhs", "rhs")


class Mul(Expr):
    __slots__ = _fields = _operands = ("lhs", "rhs")


class Div(Expr):
    __slots__ = _fields = _operands = ("lhs", "rhs")


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")
    _operands = ("base",)

    def __new__(cls, base, exponent):
        if type(exponent) is not Fraction:
            exponent = Fraction(exponent)
        return Expr.__new__(cls, base, exponent)


class Fn(Expr):
    __slots__ = _fields = ("name", "arg")  # exp, ln, sin, cos (sqrt is Pow)
    _operands = ("arg",)


ZERO = Const(0)
ONE = Const(1)
_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, Fraction)):
        return Const(x)
    raise TypeError(f"cannot coerce {x!r} to Expr")


def _unreduce(table: tuple) -> Expr:
    nodes: list = []
    for cls, *row in table:
        nodes.append(cls(*(nodes[v] if f in cls._operands else v
                           for f, v in zip(cls._fields, row))))
    return nodes[-1]


def _children(e: Expr) -> list:
    return [getattr(e, f) for f in e._operands]


def _postorder(roots: Sequence[Expr], done: Container = ()) -> Iterator[Expr]:
    """Yield each distinct node under ``roots`` not in ``done`` (say, a
    memo the caller fills as it goes) once, after its operands, left to
    right.  The stack is explicit, so a sum of any length walks."""
    seen: set[Expr] = set()
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is None:  # every operand of the node below it is out
            node = stack.pop()
            seen.add(node)
            yield node
        elif node not in seen and node not in done:
            # no node is below itself, so none is expanded twice
            stack += (node, None)
            for f in reversed(node._operands):
                if (c := getattr(node, f)) not in done and c not in seen:
                    stack.append(c)


def _fold(e: Expr, step: Callable[[Expr, list], object]):
    """step(node, its operands' results) for each node under ``e`` in
    _postorder; returns e's result.  Each result is dropped after its
    last use, so a long chain's strings are not all alive at once."""
    order = list(_postorder([e]))
    uses = Counter(c for n in order for c in _children(n))
    results: dict = {}
    for n in order:
        operands = []
        for c in _children(n):
            uses[c] -= 1
            operands.append(results[c] if uses[c] else results.pop(c))
        results[n] = step(n, operands)
    return results[e]


# ---------------------------------------------------------------------------
# Smart constructors (constant folding + trivial identities only)
# ---------------------------------------------------------------------------

def const(v) -> Const:
    return Const(v)


def coord(name: str) -> Coord:
    return Coord(name)


def param(name: str) -> Param:
    return Param(name)


# The identities come before the folding: they return the node the
# folding would build, without Fraction arithmetic and hashing.

def add(a: Expr, b: Expr) -> Expr:
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return Const(a.value / b.value)
    if b is ONE:
        return a
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _exact_root(v: Fraction, q: int) -> Fraction | None:
    """Exact q-th root of a non-negative rational, or None."""
    def iroot(n: int) -> int | None:
        if n in (0, 1):
            return n
        r = round(n ** (1.0 / q))
        for c in (r - 1, r, r + 1):
            if c >= 0 and c ** q == n:
                return c
        return None

    pn, pd = iroot(v.numerator), iroot(v.denominator)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd)


def pow_(base: Expr, exponent) -> Expr:
    e = Fraction(exponent)
    if e == 0:
        return ONE  # includes 0^0 -> 1 by convention
    if e == 1:
        return base
    if isinstance(base, Const):
        v = base.value
        if e.denominator == 1:
            if v != 0 or e > 0:
                return Const(v ** e.numerator)
        elif v >= 0:
            root = _exact_root(v, e.denominator)
            if root is not None and (root != 0 or e > 0):
                return Const(root ** e.numerator)
    return Pow(base, e)


def fn(name: str, arg: Expr) -> Expr:
    if name == "sqrt":
        return pow_(arg, Fraction(1, 2))
    if name not in FUNCTION_NAMES:
        raise ExprError(f"unknown function {name!r}")
    return Fn(name, arg)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

# coordinate -> {node: derivative}.  Interned nodes are never freed, so
# entries stay valid across calls, and each derivative of a shared
# subtree is taken once per process.
_DERIVATIVES: dict[str, dict[Expr, Expr]] = {}


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to the coordinate
    named ``var``.  Total on the grammar; never approximates.

    Derivatives of shared subtrees are computed once (the trees produced
    by repeated differentiation are heavily shared DAGs)."""
    memo = _DERIVATIVES.setdefault(var, {})
    if e in memo:
        return memo[e]
    d = memo.__getitem__
    for node in _postorder([e], memo):
        if isinstance(node, (Const, Param)):
            out = ZERO
        elif isinstance(node, Coord):
            out = ONE if node.name == var else ZERO
        elif isinstance(node, Neg):
            out = neg(d(node.arg))
        elif isinstance(node, Add):
            out = add(d(node.lhs), d(node.rhs))
        elif isinstance(node, Sub):
            out = sub(d(node.lhs), d(node.rhs))
        elif isinstance(node, Mul):
            out = add(mul(d(node.lhs), node.rhs), mul(node.lhs, d(node.rhs)))
        elif isinstance(node, Div):
            num = sub(mul(d(node.lhs), node.rhs), mul(node.lhs, d(node.rhs)))
            out = div(num, pow_(node.rhs, 2))
        elif isinstance(node, Pow):
            out = mul(mul(Const(node.exponent),
                          pow_(node.base, node.exponent - 1)), d(node.base))
        elif isinstance(node, Fn):
            inner = d(node.arg)
            if node.name == "exp":
                out = mul(node, inner)
            elif node.name == "ln":
                out = div(inner, node.arg)
            elif node.name == "sin":
                out = mul(Fn("cos", node.arg), inner)
            elif node.name == "cos":
                out = neg(mul(Fn("sin", node.arg), inner))
            else:
                raise ExprError(f"cannot differentiate {node.name!r}")
        else:
            raise ExprError(f"cannot differentiate node {type(node).__name__}")
        memo[node] = out
    return memo[e]


def free_symbols(e: Expr) -> tuple[set[str], set[str]]:
    """Return (coordinate names, parameter names) referenced by ``e``."""
    nodes = list(_postorder([e]))
    return ({n.name for n in nodes if isinstance(n, Coord)},
            {n.name for n in nodes if isinstance(n, Param)})


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------

# The normaliser's values are polynomials over bases, {monomial:
# coefficient}: a monomial is a frozenset of (base, integer exponent)
# pairs, a coefficient a nonzero rational (an int where it is one).  The
# bases are interned nodes: coordinates, parameters, x^(1/q), ln/sin/cos
# of a normal form, at most one exp of a normal form per monomial (at
# exponent 1), sums, and 0^-1 (a reciprocal of zero).  No monomial holds
# one sum base at exponent 1 and no other sum base: that product is
# distributed over the sum's terms.  So normalising a polynomial's
# expression gives the polynomial back, and normalize is idempotent.
# The tables memoise pure functions of interned nodes, like
# _DERIVATIVES: a base's sort key (tuples of kind, name or exponent and
# the keys below it), a monomial's, the polynomial of a sum base or of an
# exp base's argument, and the sum or exp base of a polynomial (keyed
# by kind and the polynomial's items).  A base's key is written before
# the base is published in _SUMS, _EXPS or _BASES, so a thread that
# meets it there finds its key.
_KEYS: dict[Expr, tuple] = {}
_MONO_KEYS: dict[frozenset, tuple] = {}
_SUMS: dict[Expr, dict] = {}
_EXPS: dict[Expr, dict] = {}
_BASES: dict[tuple, Expr] = {}
_UNIT = frozenset()
_ZERO_RECIPROCAL = Pow(ZERO, -1)


def _mono_key(m: frozenset) -> tuple:
    key = _MONO_KEYS.get(m)
    if key is None:
        key = _MONO_KEYS[m] = tuple(sorted((_KEYS[b], e) for b, e in m))
    return key


def _rational(v):
    return v.numerator if v.denominator == 1 else v


def _terms(p: dict) -> list:
    """p's (monomial, coefficient) pairs in structural order: by the
    bases' keys, which depend on structure only, never on id or hash,
    so every process orders them alike."""
    return sorted(p.items(), key=lambda t: _mono_key(t[0]))


def _poly_key(p: dict) -> tuple:
    return tuple((_mono_key(m), c) for m, c in _terms(p))


def _base(b: Expr, key: tuple) -> dict:
    _KEYS.setdefault(b, key)
    return {frozenset(((b, 1),)): 1}


def _add_term(p: dict, m: frozenset, c) -> None:
    v = p.get(m, 0) + c
    if v:
        p[m] = v
    else:
        del p[m]


def _accumulate(target: dict, p: dict, k=1) -> dict:
    """target += k * p, in place."""
    for m, c in p.items():
        _add_term(target, m, k * c)
    return target


def _product(*factors) -> frozenset:
    """The monomial prod m^k over (m, k) in factors, with its exp bases
    folded into one: exp(a)^j exp(b)^k = exp(j a + k b), exp(0) = 1."""
    if len(factors) == 2 and factors[0][1] == factors[1][1] == 1:
        if not factors[0][0]:
            return factors[1][0]
        if not factors[1][0]:
            return factors[0][0]
    d: dict = {}
    exps = []
    for m, k in factors:
        for b, e in m:
            if b in d:
                d[b] += e * k
            else:
                d[b] = e * k
                if b in _EXPS:
                    exps.append(b)
    if exps and (len(exps) > 1 or d[exps[0]] != 1):
        arg: dict = {}
        for b in exps:
            if k := d.pop(b):
                _accumulate(arg, _EXPS[b], k)
        if arg:
            d[_exp_base(arg)] = 1
    return frozenset([(b, e) for b, e in d.items() if e])


def _settle(out: dict, c, m: frozenset) -> None:
    """out += c * m, distributed over the terms of m's sum if that is m's
    only sum base and at exponent 1 (a monomial times a sum)."""
    sums = [(b, e) for b, e in m if b in _SUMS]
    if len(sums) == 1 and sums[0][1] == 1:
        rest = m - set(sums)
        for ms, cs in _SUMS[sums[0][0]].items():
            _add_term(out, _product((rest, 1), (ms, 1)), c * cs)
    else:
        _add_term(out, m, c)


def _content(p: dict) -> tuple:
    """(c, g): the positive rational gcd c of p's coefficients and the
    gcd monomial g of p's terms over every base but sums, exponents
    negative too (a base missing from a term counts as exponent 0), so
    p / (c g) has coprime integer coefficients and no denominator but of
    sums."""
    num, den = 0, 1
    low: dict = {}
    seen: Counter = Counter()
    for m, c in p.items():
        num, den = math.gcd(num, c.numerator), math.lcm(den, c.denominator)
        for b, e in m:
            if b not in _SUMS:
                low[b] = min(low.get(b, e), e)
                seen[b] += 1
    g = frozenset((b, e) for b, e in low.items()
                  if e < 0 or seen[b] == len(p))
    return Fraction(num, den), g


def _sum_base(p: dict) -> tuple:
    """(c, m) with p = c * m for a multi-term p: m is p's gcd monomial
    times one base, the primitive sum p / (c gcd) whose leading term has
    a positive coefficient, so S and -S share a base."""
    c, g = _content(p)
    inv = (g, -1)
    prim = {_product((m, 1), inv): _rational(v / c) for m, v in p.items()}
    if _terms(prim)[0][1] < 0:
        c = -c
        prim = {m: -v for m, v in prim.items()}
    s = _BASES.get(key := (5, frozenset(prim.items())))
    if s is None:
        s = _sum_expr(prim)
        _KEYS.setdefault(s, (5, _poly_key(prim)))
        _SUMS.setdefault(s, prim)
        _BASES[key] = s
    return _rational(c), _product((g, 1), (frozenset(((s, 1),)), 1))


def _mul(p: dict, q: dict) -> dict:
    """p * q: a monomial times a sum distributes, unless the monomial
    holds a sum base already; a sum times a sum is a product of two
    bases, so a quotient of sums cancels a common base."""
    if not p or not q:
        return {}
    if len(p) > 1 and len(q) > 1:
        (cp, mp), (cq, mq) = _sum_base(p), _sum_base(q)
        out: dict = {}
        _settle(out, cp * cq, _product((mp, 1), (mq, 1)))
        return out
    if len(p) > 1:
        p, q = q, p
    [(m, c)] = p.items()
    if len(q) > 1 and any(b in _SUMS for b, _ in m):
        cq, mq = _sum_base(q)
        q = {mq: cq}
    out = {}
    for mq, cq in q.items():
        _settle(out, c * cq, _product((m, 1), (mq, 1)))
    return out


def _pow(p: dict, k: Fraction) -> dict:
    if not p:
        return {} if k > 0 else _base(_ZERO_RECIPROCAL, (6,))
    if k.denominator != 1:
        x = _rebuild(p)
        root = pow_(x, k)
        if isinstance(root, Const):
            return {_UNIT: _rational(root.value)} if root.value else {}
        b = Pow(x, Fraction(1, k.denominator))
        _KEYS.setdefault(b, (2, k.denominator, _poly_key(p)))
        return {frozenset(((b, k.numerator),)): 1}
    if k == 1:
        return dict(p)
    if len(p) > 1:
        c, m = _sum_base(p)
    else:
        [(m, c)] = p.items()
    out: dict = {}
    _settle(out, _rational(Fraction(c) ** k.numerator),
            _product((m, k.numerator)))
    return out


def _exp_base(p: dict) -> Expr:
    b = _BASES.get(key := (4, frozenset(p.items())))
    if b is None:
        b = Fn("exp", _rebuild(p))
        _KEYS.setdefault(b, (4, _poly_key(p)))
        _EXPS.setdefault(b, dict(p))
        _BASES[key] = b
    return b


def _fn(name: str, p: dict) -> dict:
    if name == "exp":
        return {frozenset(((_exp_base(p), 1),)): 1} if p else {_UNIT: 1}
    return _base(Fn(name, _rebuild(p)), (3, name, _poly_key(p)))


def _factor(b: Expr, e: int) -> Expr:
    """b^e for e > 0; a base x^(1/q) gives x^(e/q) when e and q are
    coprime.  sqrt(x)^2 stays, for it is not defined where x < 0."""
    if e == 1:
        return b
    if (isinstance(b, Pow) and b.exponent.denominator != 1
            and math.gcd(e, b.exponent.denominator) == 1):
        return pow_(b.base, e * b.exponent)
    return pow_(b, e)


def _term(c: Fraction, m: frozenset, tail: Expr | None = None) -> Expr:
    """c * m as coefficient * numerator [* tail] / denominator, the bases
    in key order."""
    num, den = [], []
    for b, e in sorted(m, key=lambda t: _KEYS[t[0]]):
        (num if e > 0 else den).append(_factor(b, abs(e)))
    if tail is not None:
        num.append(tail)
    out = reduce(mul, num if num and abs(c) == 1 else [Const(c)] + num)
    if den:
        out = div(out, reduce(mul, den))
    return neg(out) if num and c == -1 else out


def _sum_expr(p: dict) -> Expr:
    """p's terms added left to right, in structural order."""
    terms = _terms(p)
    out = _term(*terms[0][::-1])
    for m, c in terms[1:]:
        out = add(out, _term(c, m)) if c > 0 else sub(out, _term(-c, m))
    return out


def _rebuild(p: dict) -> Expr:
    """The expression of p: a term, or c * g * (sum) / g' with p's
    content c g taken out of the sum."""
    if not p:
        return ZERO
    if len(p) == 1:
        [(m, c)] = p.items()
        return _term(c, m)
    c, g = _content(p)
    if c == 1 and not g:
        return _sum_expr(p)
    inv = (g, -1)
    return _term(c, g, _sum_expr({_product((m, 1), inv): _rational(v / c)
                                  for m, v in p.items()}))


def _normal_step(n: Expr, ops: list, owned: list, below: set) -> dict:
    """n's polynomial from its operands'; an operand whose last use this
    is (owned) may be changed in place, so a long sum takes linear time.
    A quotient or a negative power adds the bases it puts in a
    denominator to ``below``."""
    if isinstance(n, Const):
        return {_UNIT: _rational(n.value)} if n.value else {}
    if isinstance(n, Coord):
        return _base(n, (1, n.name))
    if isinstance(n, Param):
        return _base(n, (0, n.name))
    if isinstance(n, Neg):
        p = ops[0] if owned[0] else dict(ops[0])
        for m in p:
            p[m] = -p[m]
        return p
    if isinstance(n, (Add, Sub)):
        k = 1 if isinstance(n, Add) else -1
        (a, b), shared = ops, ops[0] is ops[1]
        if owned[0] and not shared:
            return _accumulate(a, b, k)
        if owned[1] and not shared:
            if k == -1:
                for m in b:
                    b[m] = -b[m]
            return _accumulate(b, a)
        return _accumulate(dict(a), b, k)
    if isinstance(n, Mul):
        return _mul(*ops)
    if isinstance(n, Div):
        inv = _pow(ops[1], Fraction(-1))
        below.update(b for m in inv for b, e in m if e < 0)
        return _mul(ops[0], inv)
    if isinstance(n, Pow):
        p = _pow(ops[0], n.exponent)
        if n.exponent < 0:
            below.update(b for m in p for b, e in m if e < 0)
        return p
    if isinstance(n, Fn):
        return _fn(n.name, ops[0])
    raise ExprError(f"cannot normalise node {type(n).__name__}")


def normal_forms(exprs: Sequence[Expr]) -> tuple[list, tuple]:
    """(the normal form of each of exprs, the cancelled denominators).

    One walk over the DAG under exprs in _postorder, each node once,
    with no recursion.  Each node becomes a rational coefficient times a
    product of bases with integer exponents, or a sum of such terms (see
    the tables above): like terms merge; a sum that becomes a base gives
    up its content (gcd monomial and coefficient, sign included) first,
    so S and -S share a base; exp folds; a monomial times a sum
    distributes, and a sum times a sum, or times a monomial that holds a
    sum base, is a product of bases, so a quotient cancels the bases its
    numerator and denominator share.  Bases and terms are ordered by
    structure, so the result is the same in every process.  No
    polynomial gcd is taken, so sums that are equal only as polynomials
    stay apart.

    The cancelled denominators are the bases, in structural order, that
    stood at a negative exponent in some node and at none at the top of
    any result: where one vanishes an expression may be finite that was
    not before."""
    roots = list(exprs)
    order = list(_postorder(roots))
    operand_lists = [_children(n) for n in order]
    uses = Counter(chain.from_iterable(operand_lists))
    uses.update(roots)
    polys: dict = {}
    below: set = set()
    for n, operands in zip(order, operand_lists):
        ops, owned = [], []
        for c in operands:
            uses[c] -= 1
            owned.append(not uses[c])
            ops.append(polys[c] if uses[c] else polys.pop(c))
        polys[n] = _normal_step(n, ops, owned, below)
    top = {b for r in roots for m in polys[r] for b, e in m if e < 0}
    return ([_rebuild(polys[r]) for r in roots],
            tuple(sorted(below - top, key=_KEYS.__getitem__)))


def normalize(e: Expr) -> Expr:
    """e in normal form (see normal_forms): the same value wherever e is
    finite, and normalize(normalize(e)) is normalize(e)."""
    return normal_forms([e])[0][0]


# ---------------------------------------------------------------------------
# Symbolic 4x4 linear algebra
# ---------------------------------------------------------------------------

def sym_sum(terms) -> Expr:
    return reduce(add, terms, ZERO)


def _det3(m, rows, cols) -> Expr:
    (r0, r1, r2), (c0, c1, c2) = rows, cols
    return sym_sum([
        mul(m[r0][c0], sub(mul(m[r1][c1], m[r2][c2]),
                           mul(m[r1][c2], m[r2][c1]))),
        neg(mul(m[r0][c1], sub(mul(m[r1][c0], m[r2][c2]),
                               mul(m[r1][c2], m[r2][c0])))),
        mul(m[r0][c2], sub(mul(m[r1][c0], m[r2][c1]),
                           mul(m[r1][c1], m[r2][c0]))),
    ])


def sym_det4(m) -> Expr:
    rows = (1, 2, 3)
    out = ZERO
    for j in range(4):
        cols = tuple(c for c in range(4) if c != j)
        term = mul(m[0][j], _det3(m, rows, cols))
        out = add(out, term) if j % 2 == 0 else sub(out, term)
    return out


def sym_cofactor4(m, i: int, j: int) -> Expr:
    """adj(m)[i][j]: the signed minor of m without row j and column i."""
    rows = tuple(r for r in range(4) if r != j)
    cols = tuple(c for c in range(4) if c != i)
    minor = _det3(m, rows, cols)
    return minor if (i + j) % 2 == 0 else neg(minor)


def sym_adjugate4(m):
    """adj(m) with m assumed symmetric, so adj is symmetric too."""
    return [[sym_cofactor4(m, i, j) for j in range(4)] for i in range(4)]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _const_float(e: Const) -> float:
    try:
        return float(e.value)
    except OverflowError:
        raise DomainError("constant out of float range", e) from None


def _exponent_float(e: Pow) -> float:
    try:
        return float(e.exponent)
    except OverflowError:
        raise DomainError("exponent out of float range", e) from None


_ARITHMETIC = {Neg: operator.neg, Add: operator.add, Sub: operator.sub,
               Mul: operator.mul}
_FUNCTIONS = {"exp": math.exp, "ln": math.log, "sin": math.sin,
              "cos": math.cos}


def _ok(v):
    if isinstance(v, DomainError):
        # without its traceback, which would grow by a frame per ancestor
        raise v.with_traceback(None)
    return v


def _eval(e: Expr, operands: list, bindings: Mapping[str, float]) -> float:
    """e's value from its operands'.  A failed operand holds its
    DomainError, raised in a recursive evaluation's order: left to right,
    but a quotient's denominator and zero test before its numerator."""
    if isinstance(e, Const):
        return _const_float(e)
    if isinstance(e, (Coord, Param)):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise DomainError(f"unbound symbol {e.name!r}", e) from None
    if isinstance(e, Div):
        den = _ok(operands[1])
        if den == 0.0:
            raise DomainError("division by zero", e)
        return _ok(operands[0]) / den
    x = [_ok(v) for v in operands]
    if type(e) in _ARITHMETIC:
        return _ARITHMETIC[type(e)](*x)
    try:
        if isinstance(e, Pow):
            base, exp = x[0], e.exponent
            if exp.denominator != 1 and base < 0.0:
                raise DomainError("fractional power of a negative value", e)
            if base == 0.0 and exp < 0:
                raise DomainError("zero raised to a negative power", e)
            return base ** _exponent_float(e)
        if isinstance(e, Fn) and e.name in _FUNCTIONS:
            if e.name == "ln" and x[0] <= 0.0:
                raise DomainError("ln of a non-positive value", e)
            return _FUNCTIONS[e.name](x[0])
    except OverflowError:
        raise DomainError("overflow", e) from None
    raise ExprError(f"cannot evaluate node {type(e).__name__}")


def eval_expr(e: Expr, point: Sequence[float], coords: Sequence[str],
              env: "ParamEnv | Mapping[str, float] | None" = None) -> float:
    """Evaluate ``e`` at a point given in coordinate order.

    Raises DomainError (with the offending subexpression) on ln/sqrt of a
    negative, division by zero, or a non-finite result; where several
    fail, the error is the one _eval's order meets first.
    """
    bindings = dict(zip(coords, (float(p) for p in point)))
    if env is not None:
        bindings.update(env.values if isinstance(env, ParamEnv) else env)

    def step(node, operands):
        try:
            return _eval(node, operands, bindings)
        except DomainError as err:
            return err

    out = _ok(_fold(e, step))
    if not math.isfinite(out):
        raise DomainError("non-finite result", e)
    return out


# ---------------------------------------------------------------------------
# Parameter environment
# ---------------------------------------------------------------------------

class ParamEnv:
    """Immutable map from parameter name to real value."""

    __slots__ = ("_items",)

    def __init__(self, values: Mapping[str, float] | None = None):
        items = tuple(sorted((str(k), float(v))
                             for k, v in (values or {}).items()))
        object.__setattr__(self, "_items", items)

    @property
    def values(self) -> dict[str, float]:
        return dict(self._items)

    def names(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self._items)

    def __getitem__(self, name: str) -> float:
        for k, v in self._items:
            if k == name:
                return v
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(k == name for k, _ in self._items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamEnv) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"ParamEnv({inner})"

    def merged(self, extra: Mapping[str, float]) -> "ParamEnv":
        d = self.values
        d.update(extra)
        return ParamEnv(d)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 25, 30, 40


def _frac_str(v: Fraction) -> tuple[str, int]:
    if v.denominator == 1:
        s = str(v.numerator)
        return s, (_PREC_ATOM if v >= 0 else _PREC_NEG)
    return f"{v.numerator}/{v.denominator}", _PREC_MUL


def _render(e: Expr, operands: list) -> tuple[str, int]:
    """e's text and precedence from its operands' (text, precedence)."""
    if isinstance(e, Const):
        return _frac_str(e.value)
    if isinstance(e, (Coord, Param)):
        return e.name, _PREC_ATOM
    if isinstance(e, Neg):
        [(s, p)] = operands
        if p < _PREC_NEG:
            s = f"({s})"
        return f"-{s}", _PREC_NEG
    if type(e) in _BINARY_OPS:
        op = _BINARY_OPS[type(e)]
        prec = _PREC_ADD if isinstance(e, (Add, Sub)) else _PREC_MUL
        (ls, lp), (rs, rp) = operands
        if lp < prec:
            ls = f"({ls})"
        if rp <= prec:
            rs = f"({rs})"
        return (f"{ls} {op} {rs}" if prec == _PREC_ADD else ls + op + rs), prec
    if isinstance(e, Pow):
        [(bs, bp)] = operands
        if e.exponent == Fraction(1, 2):
            return f"sqrt({bs})", _PREC_ATOM
        if bp <= _PREC_POW:
            bs = f"({bs})"
        es, _ = _frac_str(e.exponent)
        if e.exponent.denominator != 1:
            es = f"({es})"
        return f"{bs}^{es}", _PREC_POW
    if isinstance(e, Fn):
        [(s, _)] = operands
        return f"{e.name}({s})", _PREC_ATOM
    raise ExprError(f"cannot print node {type(e).__name__}")


def to_string(e: Expr) -> str:
    return _fold(e, _render)[0]


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


def _byte_offset(src: str, pos: int) -> int:
    return len(src[:pos].encode("utf-8"))


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = pos + len(src[pos:]) - len(src[pos:].lstrip())
            if stripped >= len(src):
                break
            raise ParseError(f"unexpected character {src[stripped]!r}",
                             _byte_offset(src, stripped))
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


# deepest chain of nested unary operands (parentheses, function
# arguments, signs and exponents each add a level) that parse_expr
# accepts; the recursive descent would overflow Python's stack near 200
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str, coords: Sequence[str], params: Sequence[str]):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.coords = set(coords)
        self.params = set(params)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: _Token,
              cls: type[ParseError] = ParseError):
        raise cls(message, _byte_offset(self.src, tok.pos))

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.error(f"unexpected {tok.text!r}", tok)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels", tok)
        if tok.kind == "+":
            self.advance()
            e = self.unary()
        elif tok.kind == "-":
            self.advance()
            e = neg(self.unary())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            etok = self.peek()
            exponent = self.unary()  # right-associative chain
            if not isinstance(exponent, Const):
                self.error("exponent must be a rational constant", etok)
            return pow_(base, exponent.value)
        return base

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Const(Fraction(tok.text))
        if tok.kind == "ident":
            name = tok.text
            if name in FUNCTION_NAMES:
                open_tok = self.peek()
                if open_tok.kind != "(":
                    self.error(f"function {name!r} requires parentheses",
                               open_tok)
                self.advance()
                arg = self.expr()
                close_tok = self.advance()
                if close_tok.kind != ")":
                    self.error("expected ')'", close_tok)
                return fn(name, arg)
            if name in self.coords:
                return Coord(name)
            if name in self.params:
                return Param(name)
            self.error(f"unknown identifier {name!r}", tok,
                       UnknownIdentifierError)
        if tok.kind == "(":
            e = self.expr()
            close_tok = self.advance()
            if close_tok.kind != ")":
                self.error("expected ')'", close_tok)
            return e
        self.error("expected a value", tok)


def parse_expr(src: str, coords: Sequence[str],
               params: Sequence[str] = ()) -> Expr:
    """Parse ``src`` against declared coordinate and parameter names.

    Raises ParseError with the byte offset of the problem (a syntax
    error, or operands nested deeper than MAX_NESTING), or
    UnknownIdentifierError for undeclared identifiers.
    """
    return _Parser(src, coords, params).parse()


# ---------------------------------------------------------------------------
# Compiled batch evaluation (hash-consed common subexpressions)
# ---------------------------------------------------------------------------

_COMPILE_GLOBALS = {
    "__builtins__": {},
    "_exp": np.exp, "_ln": np.log, "_sin": np.sin, "_cos": np.cos,
    "_sqrt": np.sqrt, "_square": np.square, "_reciprocal": np.reciprocal,
    "_pow": np.power, "_neg": np.negative, "_add": np.add,
    "_sub": np.subtract, "_mul": np.multiply, "_div": np.true_divide,
}
_UFUNCS = {Neg: "_neg", Add: "_add", Sub: "_sub", Mul: "_mul", Div: "_div"}
# the exponents for which numpy's ``array ** exponent`` calls a ufunc of
# its own, not np.power (its fast_scalar_power)
_POWER_UFUNCS = {Fraction(1, 2): "_sqrt", 2: "_square", -1: "_reciprocal"}


def _rhs(e: Expr, refs: list) -> str:
    """The code computing e from numpy scalars, its operands' references:
    numpy's scalar operators."""
    if isinstance(e, Neg):
        return f"-{refs[0]}"
    if type(e) in _BINARY_OPS:
        return f"{refs[0]} {_BINARY_OPS[type(e)]} {refs[1]}"
    if isinstance(e, Pow):
        exp = repr(_exponent_float(e))
        if e.exponent == Fraction(1, 2):
            return f"_sqrt({refs[0]})"
        if e.exponent.denominator == 1:
            exp = e.exponent.numerator
        return f"{refs[0]} ** ({exp})"
    if isinstance(e, Fn):
        return f"_{e.name}({refs[0]})"
    raise ExprError(f"cannot compile node {type(e).__name__}")


def _ufunc_call(e: Expr, refs: list, bind: Callable) -> tuple[str, list]:
    """(ufunc, arguments) computing e from its operands' references when
    one of them is a row: the ufunc that numpy's operator calls for an
    array operand, so that the row is the operator's bit for bit.
    bind(x) names the float x as a bound value."""
    if isinstance(e, Pow):
        if e.exponent in _POWER_UFUNCS:
            return _POWER_UFUNCS[e.exponent], refs
        return "_pow", [refs[0], bind(_exponent_float(e))]
    if isinstance(e, Fn):
        return f"_{e.name}", refs
    if type(e) in _UFUNCS:
        return _UFUNCS[type(e)], refs
    raise ExprError(f"cannot compile node {type(e).__name__}")


def count_lines(exprs: Sequence[Expr], seen: set | None = None) -> int:
    """The assignments compile_program emits to compute ``exprs``: one
    per distinct node that is not a constant, a coordinate or a
    parameter.  Nodes in ``seen`` are skipped and the
    ones walked added, so successive calls count what each batch adds."""
    seen = set() if seen is None else seen
    new = list(_postorder(exprs, seen))
    seen.update(new)
    return sum(not isinstance(n, (Const, Coord, Param)) for n in new)


def compile_program(exprs: Sequence[Expr], coords: Sequence[str],
                    param_names: Sequence[str]):
    """Compile expressions into one vectorised evaluator with parameters
    passed at call time: f(points (n,4), values (len(param_names),))
    returns (len(exprs), n).  ``values`` are floats, converted once by
    whoever binds them to the program.

    The code assigns each distinct node once, in _postorder.  A node
    that varies with the point is one ufunc call, the ufunc that numpy's
    operator calls on arrays (for ``**``, the one numpy picks by the
    exponent), so its row is the operator's bit for bit; a node that
    fills output rows is computed into the first of them,
    ``_t3 = _mul(_t1, _t2, _out[5])``, and copied into the others.  Its
    constant operands are 0-d float64 arrays bound once in the program's
    namespace.  A node of parameters and constants alone computes with
    numpy scalars and numpy's scalar operators, its constants
    np.float64, so 1/0 or (-1)^(1/3) read inf or nan, not raising or as
    -(1^(1/3)); its rows are copies.  A name is reused once its node's
    last reader has run (linear-scan register allocation), so a call
    holds only the rows still to be read.  Domain violations surface as
    non-finite entries, with numpy's floating-point warnings unless the
    caller runs f under np.errstate (pointcalc does, around each metric
    evaluation); callers wanting precise errors fall back on eval_expr.

    f.program is the bare compiled function, program(out, *coordinate
    rows, *values), which writes the (len(exprs), n) block into ``out``
    except its constant rows: program.const_rows = (rows, values (m, 1))
    lists them, for callers that hold their points as contiguous
    coordinate rows and own the block to write once (pointcalc's stage
    buffers do, when they are built).  f writes them after each call."""
    var: dict[Expr, str] = {Coord(c): f"_c{i}" for i, c in enumerate(coords)}
    var.update({Param(p): f"_p{i}" for i, p in enumerate(param_names)})
    varying: set[Expr] = {Coord(c) for c in coords}
    rows: dict[Expr, list[int]] = {}
    for k, e in enumerate(exprs):
        rows.setdefault(e, []).append(k)
    order = list(_postorder(exprs))
    operand_lists = [_children(n) for n in order]
    uses = Counter(chain.from_iterable(operand_lists))
    names: dict[tuple, str] = {}

    def bind(x: float, kind=np.array) -> str:
        # one name per value and kind: a 0-d array or an np.float64
        return names.setdefault((kind, x), f"_k{len(names)}")

    free: list[str] = []
    lines: list[str] = []
    for e, operands in zip(order, operand_lists):
        if isinstance(e, Const):
            continue
        copies = rows.get(e, [])
        if operands:  # not a coordinate or a parameter
            scalar = varying.isdisjoint(operands)
            kind = np.float64 if scalar else np.array
            refs = [bind(_const_float(c), kind) if isinstance(c, Const)
                    else var[c] for c in operands]
            for c in operands:
                uses[c] -= 1
                if not uses[c] and c._operands:  # c is dead: reuse its name
                    free.append(var[c])
            # var only grows, so _t{len(var)} names no earlier variable
            out = var[e] = free.pop() if free else f"_t{len(var)}"
            if scalar:
                lines.append(f"    {out} = {_rhs(e, refs)}")
            else:
                varying.add(e)
                ufunc, args = _ufunc_call(e, refs, bind)
                if copies:  # computed into its first row
                    args, copies = args + [f"_out[{copies[0]}]"], copies[1:]
                lines.append(f"    {out} = {ufunc}({', '.join(args)})")
            if not uses[e]:
                free.append(out)
        lines += [f"    _out[{k}] = {var[e]}" for k in copies]
    namespace = dict(_COMPILE_GLOBALS)
    namespace.update((name, kind(x)) for (kind, x), name in names.items())
    args = ["_out"] + [f"_c{i}" for i in range(len(coords))]
    args += [f"_p{i}" for i in range(len(param_names))]
    src = "def _f({}):\n{}\n".format(
        ", ".join(args), "\n".join(lines) or "    pass")
    exec(compile(src, "<lorhol-expr>", "exec"), namespace)  # noqa: S102
    f = namespace["_f"]
    consts = [k for k, e in enumerate(exprs) if isinstance(e, Const)]
    f.const_rows = ck, cv = (
        np.array(consts, dtype=np.intp),
        np.array([_const_float(exprs[k]) for k in consts]).reshape(-1, 1))
    n_exprs = len(exprs)

    def evaluate(points: np.ndarray, param_values=()) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((n_exprs, pts.shape[0]), dtype=float)
        f(out, *np.ascontiguousarray(pts.T), *param_values)
        if consts:
            out[ck] = cv
        return out

    evaluate.program = f
    return evaluate
