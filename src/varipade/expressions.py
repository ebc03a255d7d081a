"""Integrand expressions F(x, y, dy) with analytic partials dF/dy and dF/ddy.

Grammar (infix, `^` is power, right associative):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | 'y' | 'dy' | 'pi'
            | FUNCTION '(' expr ')'
            | '(' expr ')'

where FUNCTION is a name in the `_FUNCTIONS` table below.

Trees are immutable. Each is compiled once, when parsed, into closures that
vectorize over numpy arrays and carry forward-mode partials in two tangent
slots (y and dy); constant subtrees are folded, structurally zero partials
are never computed, and subtrees of x alone are computed once per grid by
`IntegrandExpr.bind`. Nesting deeper than MAX_DEPTH levels is a syntax error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ExpressionSyntaxError, UnknownIdentifierError

_DIV_FLOOR = 1e-300
# deepest accepted nesting (see _Parser); the parser and the compiler recurse
# a few frames per level, well inside Python's default recursion limit
MAX_DEPTH = 100
_VARIABLES = ("x", "y", "dy")


@dataclass(frozen=True)
class _Function:
    value: Callable  # u -> f(u)
    derivative: Callable  # (u, f(u)) -> f'(u)
    domain: Optional[Callable] = None  # u -> mask of arguments outside the domain
    domain_error: str = ""


_FUNCTIONS = {
    "sqrt": _Function(np.sqrt, lambda u, r: 0.5 / r, lambda u: u < 0, "sqrt of negative value"),
    "sin": _Function(np.sin, lambda u, r: np.cos(u)),
    "cos": _Function(np.cos, lambda u, r: -np.sin(u)),
    "tan": _Function(np.tan, lambda u, r: 1.0 + r * r),
    "exp": _Function(np.exp, lambda u, r: r),
    "log": _Function(np.log, lambda u, r: 1.0 / u, lambda u: u <= 0, "log of nonpositive value"),
    "abs": _Function(np.abs, lambda u, r: np.sign(u)),
    "sinh": _Function(np.sinh, lambda u, r: np.cosh(u)),
    "cosh": _Function(np.cosh, lambda u, r: np.sinh(u)),
    "tanh": _Function(np.tanh, lambda u, r: 1.0 - r * r),
}


# ---------------------------------------------------------------------------
# Tree nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # one of "x", "y", "dy"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+", "-", "*", "/", "^"
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Call:
    fn: str  # a name in _FUNCTIONS
    arg: object


@dataclass(frozen=True)
class IntegrandExpr:
    """Parsed integrand; `text` is the original source, and its `str`.

    The tree is compiled once, when the expression is built, into `run` and its
    x-only `slots` (see `_compile`); `bind(x)` evaluates the slots on a block of grids.
    """

    root: object
    text: str
    slots: list = field(init=False, repr=False, compare=False)
    run: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = []
        reads, run = _compile(self.root, slots)
        # F is taken as an operand of y: F of x alone becomes a slot, a constant F a number
        object.__setattr__(self, "run", _operand(reads, run, slots, _VAR_READS["y"]))
        object.__setattr__(self, "slots", slots)

    def __reduce__(self):
        # the compiled closures do not pickle; an unpickled copy compiles again
        return IntegrandExpr, (self.root, self.text)

    def __str__(self):
        return self.text

    def bind(self, x):
        """One evaluator (y, dy) -> (F, dF/dy, dF/ddy) per row of a (K, N) block of grids.

        The x-only values are computed once, for the whole block.
        """
        with np.errstate(all="ignore"):
            xv = [slot(x, None, None, None)[0] for slot in self.slots]
        return [self._evaluator(x[k, ...], [v[k, ...] for v in xv]) for k in range(x.shape[0])]

    def _evaluator(self, x, xv):
        """The evaluator on grid x, whose slot values are xv."""
        run = self.run

        def evaluate(y, dy):
            # an infinite or NaN intermediate is reported by the finiteness checks
            with np.errstate(all="ignore"):
                f, f_y, f_dy = run(x, xv, y, dy)
            return _on_grid(f, x), _on_grid(f_y, x), _on_grid(f_dy, x)

        return evaluate


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ExpressionSyntaxError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; every method returns (node, nesting depth).

    A leaf has depth 1; parentheses, a function call and an operator each
    add one level. Deeper expressions are rejected before they can exhaust
    the interpreter stack, here or in the recursive compiler.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0  # levels entered on the way down and not yet closed

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, off = self.next()
        if val != value:
            raise ExpressionSyntaxError(f"expected {value!r}, found {val!r}", off)

    def nested(self, parse, off):
        """Parse one level down, rejecting the level past MAX_DEPTH at `off`."""
        self.open += 1
        if self.open >= MAX_DEPTH:
            raise ExpressionSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", off)
        node, depth = parse()
        self.open -= 1
        return node, depth

    def binop(self, op, left, right, off):
        depth = max(left[1], right[1]) + 1
        if depth > MAX_DEPTH:
            raise ExpressionSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", off)
        return BinOp(op, left[0], right[0]), depth

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op, off = self.next()
            node = self.binop(op, node, self.term(), off)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            _, op, off = self.next()
            node = self.binop(op, node, self.unary(), off)
        return node

    def unary(self):
        kind, val, off = self.peek()
        if val == "-":
            self.next()
            arg, depth = self.nested(self.unary, off)
            return Neg(arg), depth + 1
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, off = self.peek()
        if val == "^":
            self.next()
            return self.binop("^", base, self.nested(self.unary, off), off)
        return base

    def atom(self):
        kind, val, off = self.next()
        if kind == "num":
            return Const(float(val)), 1
        if kind == "ident":
            if val in _VARIABLES:
                return Var(val), 1
            if val == "pi":
                return Const(math.pi), 1
            if val in _FUNCTIONS:
                self.expect("(")
                arg, depth = self.nested(self.expr, off)
                self.expect(")")
                return Call(val, arg), depth + 1
            raise UnknownIdentifierError(val, off)
        if val == "(":
            node, depth = self.nested(self.expr, off)
            self.expect(")")
            return node, depth + 1
        raise ExpressionSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse_integrand(text):
    """Parse integrand source into an immutable IntegrandExpr."""
    if not isinstance(text, str):
        raise ExpressionSyntaxError(f"integrand must be a string, got {type(text).__name__}", 0)
    parser = _Parser(text)
    root, _ = parser.expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"trailing input {val!r}", off)
    return IntegrandExpr(root, text)


# ---------------------------------------------------------------------------
# Compilation to closures with forward-mode partials w.r.t. y and dy
# ---------------------------------------------------------------------------
#
# `_compile(node, slots)` returns (reads, run): `reads` is the set of
# variables the subtree reads, and run(x, xv, y, dy) returns (value, d/dy,
# d/ddy), where a partial is None when it is structurally zero (and 1.0 for
# y and dy themselves). Under a node that reads a variable, a subtree without
# variables is folded to a float at compile time; under a node that reads y
# or dy, a subtree of x alone becomes a slot: `bind` computes its value once
# per grid and `run` reads it from xv. The arithmetic is the same, operation
# for operation, as a plain numpy evaluation of the tree.

_FOLD_AT = np.zeros(1)


def _domain_error(what, x, mask):
    """DomainError for `what` at the first x where `mask` holds; `.x` is that x."""
    at = float(np.asarray(x).reshape(-1)[int(np.argmax(mask))] if np.ndim(x) else x)
    return DomainError(f"{what} near x = {at}", at)


def _plus(s, t):
    if s is None:
        return t
    if t is None:
        return s
    return s + t


def _minus(s, t):
    if t is None:
        return s
    if s is None:
        return -t
    return s - t


def _times(t, d):
    if t is None:
        return None
    return d if t is _ONE else t * d


def _operand(reads, run, slots, parent_reads):
    """The run of a child as its parent reads it: folded, slotted or inline.

    A parent without variables keeps its children inline, so that folding
    it evaluates the whole subtree in numpy arrays, like any other subtree.
    """
    if not parent_reads:
        return run
    if not reads:
        try:
            with np.errstate(all="ignore"):
                c = float(run(_FOLD_AT, None, None, None)[0][0])
        except DomainError:
            pass  # raised again, at its real location, when a grid is bound
        else:
            return lambda x, xv, y, dy: (c, None, None)
    if reads <= {"x"} and ("y" in parent_reads or "dy" in parent_reads):
        slots.append(run)
        i = len(slots) - 1
        return lambda x, xv, y, dy: (xv[i], None, None)
    return run


def _compile(node, slots):
    if isinstance(node, Const):
        c = node.value
        return frozenset(), lambda x, xv, y, dy: (np.full_like(x, c), None, None)
    if isinstance(node, Var):
        return _VAR_READS[node.name], _VAR_RUNS[node.name]
    if isinstance(node, Neg):
        reads, arg = _compile(node.arg, slots)
        return reads, _neg(arg)
    if isinstance(node, Call):
        reads, arg = _compile(node.arg, slots)
        return reads, _call(_FUNCTIONS[node.fn], arg)
    left_reads, left = _compile(node.left, slots)
    right_reads, right = _compile(node.right, slots)
    reads = left_reads | right_reads
    left = _operand(left_reads, left, slots, reads)
    if node.op == "^" and not right_reads:
        return reads, _const_pow(left, right)
    right = _operand(right_reads, right, slots, reads)
    return reads, _BINARY[node.op](left, right)


_VAR_READS = {name: frozenset([name]) for name in _VARIABLES}
# a variable's partial with respect to itself; `_times` does not multiply it in
_ONE = 1.0
_VAR_RUNS = {
    "x": lambda x, xv, y, dy: (x, None, None),
    "y": lambda x, xv, y, dy: (y, _ONE, None),
    "dy": lambda x, xv, y, dy: (dy, None, _ONE),
}


def _neg(arg):
    def run(x, xv, y, dy):
        v, ty, tdy = arg(x, xv, y, dy)
        return -v, None if ty is None else -ty, None if tdy is None else -tdy
    return run


def _call(fn, arg):
    def run(x, xv, y, dy):
        v, ty, tdy = arg(x, xv, y, dy)
        if fn.domain is not None:
            bad = fn.domain(v)
            if np.any(bad):
                raise _domain_error(fn.domain_error, x, bad)
        r = fn.value(v)
        if ty is None and tdy is None:
            return r, None, None
        d = fn.derivative(v, r)
        return r, _times(ty, d), _times(tdy, d)
    return run


def _add(left, right):
    def run(x, xv, y, dy):
        a, ay, ady = left(x, xv, y, dy)
        b, by, bdy = right(x, xv, y, dy)
        return a + b, _plus(ay, by), _plus(ady, bdy)
    return run


def _sub(left, right):
    def run(x, xv, y, dy):
        a, ay, ady = left(x, xv, y, dy)
        b, by, bdy = right(x, xv, y, dy)
        return a - b, _minus(ay, by), _minus(ady, bdy)
    return run


def _mul(left, right):
    def run(x, xv, y, dy):
        a, ay, ady = left(x, xv, y, dy)
        b, by, bdy = right(x, xv, y, dy)
        return a * b, _plus(_times(ay, b), _times(by, a)), _plus(_times(ady, b), _times(bdy, a))
    return run


def _div(left, right):
    # division with a hard floor on the divisor magnitude
    def run(x, xv, y, dy):
        a, ay, ady = left(x, xv, y, dy)
        b, by, bdy = right(x, xv, y, dy)
        small = np.abs(b) < _DIV_FLOOR
        if np.any(small):
            raise _domain_error("near-zero divisor", x, small)
        v = a / b

        def partial(at, bt):
            if bt is None:
                return None if at is None else at / b
            return _minus(at, v * bt) / b

        return v, partial(ay, by), partial(ady, bdy)
    return run


def _var_pow(left, right):
    # a^b = exp(b log a): the base must be strictly positive
    def run(x, xv, y, dy):
        a, ay, ady = left(x, xv, y, dy)
        b, by, bdy = right(x, xv, y, dy)
        if np.any(a <= 0):
            raise _domain_error("variable power of non-positive base", x, a <= 0)
        la = np.log(a)
        v = np.exp(b * la)

        def partial(at, bt):
            s = _plus(_times(bt, la), None if at is None else b * at / a)
            return None if s is None else v * s

        return v, partial(ay, by), partial(ady, bdy)
    return run


def _const_pow(left, exponent):
    """a^p for an exponent without variables, folded to a number here."""
    try:
        with np.errstate(all="ignore"):
            p = float(exponent(_FOLD_AT, None, None, None)[0][0])
    except DomainError:
        p = math.nan  # evaluating the exponent again below raises at its real location
    if math.isfinite(p) and p.is_integer():
        p = int(p)

    def run(x, xv, y, dy):
        a, ay, ady = left(x, xv, y, dy)
        if not math.isfinite(p):
            # the exponent does not depend on x; the first point names it in errors
            at = x.reshape(-1)[:1] if x.size else _FOLD_AT
            exponent(at, None, None, None)
            raise _domain_error("non-finite constant exponent", at, True)
        if p == 0:
            return np.ones_like(a), None, None
        if isinstance(p, int):
            if p < 0:
                small = np.abs(a) < _DIV_FLOOR
                if np.any(small):
                    raise _domain_error("negative power of near-zero base", x, small)
            v = a ** p
            if ay is None and ady is None:
                return v, None, None
            d = p * a if p == 2 else p * a ** (p - 1)
        else:
            # real exponent: only defined for nonnegative bases
            if np.any(a < 0):
                raise _domain_error("non-integer power of negative base", x, a < 0)
            v = a ** p
            if ay is None and ady is None:
                return v, None, None
            d = p * a ** (p - 1.0)
        return v, _times(ay, d), _times(ady, d)
    return run


_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _var_pow}


def _on_grid(t, x):
    """A value or partial as a finite array shaped like x (None is a structural zero)."""
    if t is None:
        return np.zeros(x.shape)
    if np.shape(t) != x.shape:
        t = np.full(x.shape, t)
    if not np.isfinite(t).all():
        raise _domain_error("non-finite integrand value", x, ~np.isfinite(t))
    return t


def eval_integrand_many(expr, x, y, dy, bound=None):
    """Vectorized integrand evaluation.

    Returns (F, dF_dy, dF_ddy) as arrays shaped like the broadcast inputs.
    `bound` is `expr.bind(x[None])[0]` for this x, when the caller keeps one.
    """
    if bound is not None:
        return bound(y, dy)
    x, y, dy = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(dy, dtype=float)
    )
    return expr.bind(x[None])[0](y, dy)
