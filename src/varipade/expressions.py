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

Trees are immutable; evaluation is pure and vectorizes over numpy arrays.
Partials are propagated by forward mode with two tangent slots (y and dy).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ExpressionSyntaxError, UnknownIdentifierError

_DIV_FLOOR = 1e-300
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
    """Parsed integrand; `text` is the original source (for error messages)."""

    root: object
    text: str

    def __str__(self):
        return to_string(self.root)


@dataclass(frozen=True)
class IntegrandEval:
    value: float
    dF_dy: float
    dF_ddy: float


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
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

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

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        kind, val, off = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            if val in _VARIABLES:
                return Var(val)
            if val == "pi":
                return Const(math.pi)
            if val in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(val, arg)
            raise UnknownIdentifierError(val, off)
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse_integrand(text):
    """Parse integrand source into an immutable IntegrandExpr."""
    parser = _Parser(text)
    root = parser.expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"trailing input {val!r}", off)
    return IntegrandExpr(root, text)


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through parse_integrand)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def to_string(node):
    if isinstance(node, Const):
        if node.value == math.pi:
            return "pi"
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_string(node.arg)})"
    if isinstance(node, Neg):
        inner = to_string(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        left = to_string(node.left)
        right = to_string(node.right)
        if node.op == "^":
            # the grammar allows only an atom as the base and a unary exponent
            if _prec(node.left) < _PREC["atom"]:
                left = f"({left})"
            if _prec(node.right) < _PREC["neg"]:
                right = f"({right})"
            return f"{left}^{right}"
        p = _PREC[node.op]
        if _prec(node.left) < p:
            left = f"({left})"
        if _prec(node.right) <= p:  # left associative
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation with forward-mode partials w.r.t. y and dy
# ---------------------------------------------------------------------------

def _is_const_tree(node):
    if isinstance(node, Const):
        return True
    if isinstance(node, Var):
        return False
    if isinstance(node, Neg):
        return _is_const_tree(node.arg)
    if isinstance(node, Call):
        return _is_const_tree(node.arg)
    return _is_const_tree(node.left) and _is_const_tree(node.right)


def _first_bad(x, mask):
    idx = int(np.argmax(mask))
    return float(np.asarray(x).reshape(-1)[idx] if np.ndim(x) else x)


def _eval_node(node, x, y, dy):
    """Return (value, d/dy, d/ddy), each broadcast to the input shape."""
    if isinstance(node, Const):
        z = np.zeros_like(x)
        return np.full_like(x, node.value), z, z
    if isinstance(node, Var):
        z = np.zeros_like(x)
        if node.name == "x":
            return x, z, z
        if node.name == "y":
            return y, np.ones_like(x), z
        return dy, z, np.ones_like(x)
    if isinstance(node, Neg):
        v, ty, tdy = _eval_node(node.arg, x, y, dy)
        return -v, -ty, -tdy
    if isinstance(node, Call):
        v, ty, tdy = _eval_node(node.arg, x, y, dy)
        fn = _FUNCTIONS[node.fn]
        if fn.domain is not None:
            bad = fn.domain(v)
            if np.any(bad):
                raise DomainError(f"{fn.domain_error} near x = {_first_bad(x, bad)}")
        # an infinite or NaN result is reported by the finiteness check at the end
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = fn.value(v)
            d = fn.derivative(v, r)
            return r, d * ty, d * tdy
    # BinOp
    a, ay, ady = _eval_node(node.left, x, y, dy)
    if node.op == "^":
        return _eval_pow(node, a, ay, ady, x, y, dy)
    b, by, bdy = _eval_node(node.right, x, y, dy)
    if node.op == "+":
        return a + b, ay + by, ady + bdy
    if node.op == "-":
        return a - b, ay - by, ady - bdy
    if node.op == "*":
        return a * b, ay * b + a * by, ady * b + a * bdy
    # division with a hard floor on the divisor magnitude
    small = np.abs(b) < _DIV_FLOOR
    if np.any(small):
        raise DomainError(f"near-zero divisor near x = {_first_bad(x, small)}")
    v = a / b
    return v, (ay - v * by) / b, (ady - v * bdy) / b


def _const_exponent(node, x):
    """Value of an exponent without variables, checked to be finite."""
    # the value does not depend on x; evaluating at the first point names it in errors
    at = x.reshape(-1)[:1] if x.size else np.zeros(1)
    v, _, _ = _eval_node(node, at, at, at)
    p = float(v[0])
    if not math.isfinite(p):
        raise DomainError(f"non-finite constant exponent near x = {float(at[0])}")
    return p


def _eval_pow(node, a, ay, ady, x, y, dy):
    if _is_const_tree(node.right):
        p = _const_exponent(node.right, x)
        if p == 0:
            one = np.ones_like(a)
            z = np.zeros_like(a)
            return one, z, z
        if float(p).is_integer():
            p = int(p)
            if p < 0:
                small = np.abs(a) < _DIV_FLOOR
                if np.any(small):
                    raise DomainError(f"negative power of near-zero base near x = {_first_bad(x, small)}")
            with np.errstate(divide="ignore", invalid="ignore"):
                v = a ** p
                d = p * a ** (p - 1)
            return v, d * ay, d * ady
        # real exponent: only defined for nonnegative bases
        if np.any(a < 0):
            raise DomainError(
                f"non-integer power of negative base near x = {_first_bad(x, a < 0)}"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            v = a ** p
            d = p * a ** (p - 1.0)
        return v, d * ay, d * ady
    # variable exponent: a^b = exp(b log a), base must be strictly positive
    b, by, bdy = _eval_node(node.right, x, y, dy)
    if np.any(a <= 0):
        raise DomainError(
            f"variable power of non-positive base near x = {_first_bad(x, a <= 0)}"
        )
    la = np.log(a)
    v = np.exp(b * la)
    return v, v * (by * la + b * ay / a), v * (bdy * la + b * ady / a)


def eval_integrand_many(expr, x, y, dy):
    """Vectorized integrand evaluation.

    Returns (F, dF_dy, dF_ddy) as arrays shaped like the broadcast inputs.
    """
    x, y, dy = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(dy, dtype=float)
    )
    v, ty, tdy = _eval_node(expr.root, x, y, dy)
    for arr in (v, ty, tdy):
        bad = ~np.isfinite(arr)
        if np.any(bad):
            raise DomainError(f"non-finite integrand value near x = {_first_bad(x, bad)}")
    return v, ty, tdy


def eval_integrand(expr, x, y, dy):
    """Scalar integrand evaluation: F and its partials w.r.t. y and dy."""
    v, ty, tdy = eval_integrand_many(expr, np.float64(x), np.float64(y), np.float64(dy))
    return IntegrandEval(float(v), float(ty), float(tdy))
