"""Expression trees for dynamics, control laws, and partitioning functions.

The grammar is plain infix arithmetic over state variables ``x1..xn`` and
input variables ``u1..um``: ``+ - * /``, unary minus, ``^`` with a literal
nonnegative integer exponent, and the functions sin, cos, exp, sqrt, abs.
``sign`` is also accepted so that derivatives of ``abs`` stay printable.

Trees are frozen dataclasses: immutable, hashable, and safe to share across
workers. Printing a parsed tree and re-parsing it reproduces the tree node
for node. Differentiation folds literal zeros and ones but performs no other
simplification.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Union

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownVariableError

__all__ = [
    "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "Expression", "parse_expression", "eval_expression", "differentiate",
    "substitute", "variables", "to_text", "compile_scalar", "compile_vector",
    "compile_step", "compile_stay",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs", "sign")


@dataclass(frozen=True, eq=False)
class Const:
    value: float

    # -0.0 == 0.0, but the two compile to different code ((-0.0) ** 1 is
    # -0.0), and the compile_* caches look expressions up by equality, so
    # equality and hash tell the signed zeros apart
    def _key(self):
        return (self.value, math.copysign(1.0, self.value))

    def __eq__(self, other):
        if not isinstance(other, Const):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class Add:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Sub:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Mul:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Div:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("power exponent must be a nonnegative integer")


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"

    def __post_init__(self):
        if self.func not in FUNCTIONS:
            raise ValueError("unknown function '%s'" % self.func)


Expression = Union[Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call]

_VAR_RE = re.compile(r"^([xu])([1-9][0-9]*)$")


def var_kind_index(name):
    """Split a variable name into ('x'|'u', 1-based index); None if malformed."""
    m = _VAR_RE.match(name)
    if m is None:
        return None
    return m.group(1), int(m.group(2))


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError("unexpected character '%s'" % text[bad], bad)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n_states, n_inputs):
        self.text = text
        self.n = n_states
        self.m = n_inputs
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError("expected '%s', found '%s'" % (op, val or "end of input"), pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input '%s'" % val, pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, lexeme, pos = self.next()
            if kind != "num" or not lexeme.isdigit():
                raise ExprSyntaxError(
                    "power exponent must be a nonnegative integer literal", pos)
            node = Pow(node, int(lexeme))
        return node

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            ki = var_kind_index(val)
            if ki is None:
                raise UnknownVariableError(val, pos)
            which, idx = ki
            limit = self.n if which == "x" else self.m
            if idx > limit:
                raise UnknownVariableError(val, pos)
            return Var(val)
        raise ExprSyntaxError("expected a value, found '%s'" % (val or "end of input"), pos)


def parse_expression(text, n_states, n_inputs):
    """Parse infix text into an expression over x1..x{n} and u1..u{m}."""
    if n_states < 1 or n_inputs < 0:
        raise ValueError("dimensions must satisfy n >= 1, m >= 0")
    return _Parser(text, n_states, n_inputs).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _is_negative_const(e):
    return isinstance(e, Const) and math.copysign(1.0, e.value) < 0.0


def _prec(e):
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    # a negative constant prints with a leading minus, so it binds like Neg
    if isinstance(e, Neg) or _is_negative_const(e):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _format_const(v):
    if math.copysign(1.0, v) < 0.0:
        return "-" + _format_const(-v)
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def _render(e, min_prec):
    p = _prec(e)
    if isinstance(e, Const):
        s = _format_const(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Neg):
        s = "-" + _render(e.arg, _PREC_NEG)
    elif isinstance(e, Add):
        s = _render(e.left, _PREC_ADD) + " + " + _render(e.right, _PREC_ADD + 1)
    elif isinstance(e, Sub):
        s = _render(e.left, _PREC_ADD) + " - " + _render(e.right, _PREC_ADD + 1)
    elif isinstance(e, Mul):
        s = _render(e.left, _PREC_MUL) + "*" + _render(e.right, _PREC_MUL + 1)
    elif isinstance(e, Div):
        s = _render(e.left, _PREC_MUL) + "/" + _render(e.right, _PREC_MUL + 1)
    elif isinstance(e, Pow):
        s = _render(e.base, _PREC_ATOM) + "^" + str(e.exponent)
    elif isinstance(e, Call):
        s = e.func + "(" + _render(e.arg, 0) + ")"
    else:
        raise TypeError("not an expression node: %r" % (e,))
    if p < min_prec:
        return "(" + s + ")"
    return s


def to_text(e):
    """Render with minimal parentheses; re-parsing reproduces the tree."""
    return _render(e, 0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_expression(e, x, u=()):
    """IEEE-double value of ``e`` at state ``x`` and input ``u``."""

    def ev(node):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            which, idx = var_kind_index(node.name)
            vec = x if which == "x" else u
            if idx > len(vec):
                raise UnknownVariableError(node.name)
            return float(vec[idx - 1])
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, Add):
            return ev(node.left) + ev(node.right)
        if isinstance(node, Sub):
            return ev(node.left) - ev(node.right)
        if isinstance(node, Mul):
            return ev(node.left) * ev(node.right)
        if isinstance(node, Div):
            den = ev(node.right)
            if den == 0.0:
                raise EvalDomainError("division by zero", x, u)
            return ev(node.left) / den
        if isinstance(node, Pow):
            base = ev(node.base)
            try:
                return float(base ** node.exponent)
            except OverflowError:
                sign = -1.0 if (base < 0 and node.exponent % 2 == 1) else 1.0
                return sign * math.inf
        if isinstance(node, Call):
            v = ev(node.arg)
            if node.func == "sin":
                return math.sin(v)
            if node.func == "cos":
                return math.cos(v)
            if node.func == "exp":
                try:
                    return math.exp(v)
                except OverflowError:
                    return math.inf
            if node.func == "sqrt":
                if v < 0.0:
                    raise EvalDomainError("sqrt of negative value", x, u)
                return math.sqrt(v)
            if node.func == "abs":
                return abs(v)
            if node.func == "sign":
                return 0.0 if v == 0.0 else (1.0 if v > 0.0 else -1.0)
        raise TypeError("not an expression node: %r" % (node,))

    return ev(e)


# ---------------------------------------------------------------------------
# Differentiation and substitution
# ---------------------------------------------------------------------------

def _is_zero(e):
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e):
    return isinstance(e, Const) and e.value == 1.0


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return Const(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_zero(a):
        return Const(0.0)
    if _is_one(b):
        return a
    return Div(a, b)


def _neg(a):
    if _is_zero(a):
        return Const(0.0)
    return Neg(a)


def _pow(base, k):
    if k == 0:
        return Const(1.0)
    if k == 1:
        return base
    return Pow(base, k)


def differentiate(e, var):
    """Symbolic partial derivative of ``e`` with respect to variable name ``var``.

    abs differentiates to sign(arg) * d(arg), with sign(0) = 0; the kink is
    the caller's responsibility to stay away from.
    """

    def d(node):
        if isinstance(node, Const):
            return Const(0.0)
        if isinstance(node, Var):
            return Const(1.0) if node.name == var else Const(0.0)
        if isinstance(node, Neg):
            return _neg(d(node.arg))
        if isinstance(node, Add):
            return _add(d(node.left), d(node.right))
        if isinstance(node, Sub):
            return _sub(d(node.left), d(node.right))
        if isinstance(node, Mul):
            return _add(_mul(d(node.left), node.right), _mul(node.left, d(node.right)))
        if isinstance(node, Div):
            return _sub(
                _div(d(node.left), node.right),
                _div(_mul(node.left, d(node.right)), _pow(node.right, 2)),
            )
        if isinstance(node, Pow):
            if node.exponent == 0:
                return Const(0.0)
            return _mul(
                _mul(Const(float(node.exponent)), _pow(node.base, node.exponent - 1)),
                d(node.base),
            )
        if isinstance(node, Call):
            da = d(node.arg)
            if node.func == "sin":
                return _mul(Call("cos", node.arg), da)
            if node.func == "cos":
                return _mul(_neg(Call("sin", node.arg)), da)
            if node.func == "exp":
                return _mul(Call("exp", node.arg), da)
            if node.func == "sqrt":
                return _div(da, _mul(Const(2.0), Call("sqrt", node.arg)))
            if node.func == "abs":
                return _mul(Call("sign", node.arg), da)
            if node.func == "sign":
                return Const(0.0)
        raise TypeError("not an expression node: %r" % (node,))

    return d(e)


def substitute(e, mapping: Mapping[str, "Expression"]):
    """Replace variables by expressions (used to close the loop u := g(x))."""

    def s(node):
        if isinstance(node, Const):
            return node
        if isinstance(node, Var):
            return mapping.get(node.name, node)
        if isinstance(node, Neg):
            return _neg(s(node.arg))
        if isinstance(node, Add):
            return _add(s(node.left), s(node.right))
        if isinstance(node, Sub):
            return _sub(s(node.left), s(node.right))
        if isinstance(node, Mul):
            return _mul(s(node.left), s(node.right))
        if isinstance(node, Div):
            return _div(s(node.left), s(node.right))
        if isinstance(node, Pow):
            return _pow(s(node.base), node.exponent)
        if isinstance(node, Call):
            return Call(node.func, s(node.arg))
        raise TypeError("not an expression node: %r" % (node,))

    return s(e)


def variables(e):
    """Set of variable names used by the expression."""
    out = set()

    def walk(node):
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Neg):
            walk(node.arg)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Pow):
            walk(node.base)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(e)
    return out


# ---------------------------------------------------------------------------
# Compilation to fast callables
# ---------------------------------------------------------------------------

_SCALAR_FUNCS = {
    "sin": "math.sin", "cos": "math.cos", "exp": "math.exp",
    "sqrt": "math.sqrt", "abs": "abs", "sign": "_sign",
}
_VECTOR_FUNCS = {
    "sin": "np.sin", "cos": "np.cos", "exp": "np.exp",
    "sqrt": "np.sqrt", "abs": "np.abs", "sign": "np.sign",
}


def _emit(e, funcs, xfmt, ufmt):
    if isinstance(e, Const):
        # parenthesised so that ``**`` cannot bind tighter than the minus
        return "(%r)" % e.value if _is_negative_const(e) else repr(e.value)
    if isinstance(e, Var):
        which, idx = var_kind_index(e.name)
        return (xfmt if which == "x" else ufmt) % (idx - 1)
    if isinstance(e, Neg):
        return "(-%s)" % _emit(e.arg, funcs, xfmt, ufmt)
    if isinstance(e, Add):
        return "(%s + %s)" % (_emit(e.left, funcs, xfmt, ufmt), _emit(e.right, funcs, xfmt, ufmt))
    if isinstance(e, Sub):
        return "(%s - %s)" % (_emit(e.left, funcs, xfmt, ufmt), _emit(e.right, funcs, xfmt, ufmt))
    if isinstance(e, Mul):
        return "(%s * %s)" % (_emit(e.left, funcs, xfmt, ufmt), _emit(e.right, funcs, xfmt, ufmt))
    if isinstance(e, Div):
        return "(%s / %s)" % (_emit(e.left, funcs, xfmt, ufmt), _emit(e.right, funcs, xfmt, ufmt))
    if isinstance(e, Pow):
        return "(%s ** %d)" % (_emit(e.base, funcs, xfmt, ufmt), e.exponent)
    if isinstance(e, Call):
        return "%s(%s)" % (funcs[e.func], _emit(e.arg, funcs, xfmt, ufmt))
    raise TypeError("not an expression node: %r" % (e,))


def _py_sign(v):
    return 0.0 if v == 0.0 else (1.0 if v > 0.0 else -1.0)


@lru_cache(maxsize=None)
def compile_scalar(e) -> Callable:
    """Compile to ``f(x, u=()) -> float`` where x, u are indexable sequences."""
    src = "lambda x, u=(): (%s)" % _emit(e, _SCALAR_FUNCS, "x[%d]", "u[%d]")
    return eval(src, {"math": math, "_sign": _py_sign, "abs": abs})


@lru_cache(maxsize=None)
def compile_vector(e) -> Callable:
    """Compile to ``f(X, U=None) -> ndarray`` over columns of (N, n) arrays."""
    src = "lambda X, U=None: (%s) + 0.0 * X[:, 0]" % _emit(
        e, _VECTOR_FUNCS, "X[:, %d]", "U[:, %d]")
    return eval(src, {"np": np})


@lru_cache(maxsize=None)
def compile_field(exprs) -> Callable:
    """Compile a tuple of expressions to ``f(x, u=()) -> tuple`` (one call per step)."""
    parts = ", ".join(_emit(e, _SCALAR_FUNCS, "x[%d]", "u[%d]") for e in exprs)
    src = "lambda x, u=(): (%s,)" % parts
    return eval(src, {"math": math, "_sign": _py_sign, "abs": abs})


def _rk4_body(exprs, pad):
    """Source lines of one classic RK4 step of length ``h`` from the local
    floats ``x0, x1, ...`` to ``n0, n1, ...``, in the textbook operation
    order that ``compile_step`` documents."""
    idx = range(len(exprs))

    def stage(k, at):
        return ["%s%s%d = %s" % (pad, k, i,
                                 _emit(e, _SCALAR_FUNCS, at + "%d", "u%d"))
                for i, e in enumerate(exprs)]

    def point(coef, k):
        return ["%sy%d = x%d + %sh * %s%d" % (pad, i, i, coef, k, i)
                for i in idx]

    lines = stage("a", "x") + point("0.5 * ", "a")
    lines += stage("b", "y") + point("0.5 * ", "b")
    lines += stage("c", "y") + point("", "c")
    lines += stage("d", "y")
    lines.append("%ss = h / 6.0" % pad)
    lines += ["%sn%d = x%d + s * (a%d + 2.0 * b%d + 2.0 * c%d + d%d)"
              % ((pad,) + (i,) * 6) for i in idx]
    return lines


def _exec_def(lines, name):
    namespace = {"math": math, "_sign": _py_sign, "abs": abs}
    exec("\n".join(lines), namespace)
    return namespace[name]


@lru_cache(maxsize=None)
def compile_step(exprs) -> Callable:
    """Compile an x-only field to one classic RK4 step ``step(x, h) -> tuple``.

    The four stages are unrolled over local floats and perform the same
    operations in the same order as the textbook step over
    ``compile_field(exprs)`` (stage points ``xi + 0.5 * h * ki`` and
    ``xi + h * ki``, result ``xi + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``),
    so both give bit-identical states. Float errors inside the field
    (ZeroDivisionError, OverflowError, math-domain ValueError) propagate.
    """
    xs = ", ".join("x%d" % i for i in range(len(exprs)))
    ns = ", ".join("n%d" % i for i in range(len(exprs)))
    lines = ["def step(x, h):", "    %s, = x" % xs]
    lines += _rk4_body(exprs, "    ")
    lines.append("    return (%s,)" % ns)
    return _exec_def(lines, "step")


@lru_cache(maxsize=None)
def compile_stay(field_exprs, phi_exprs) -> Callable:
    """Compile one whole stay in a (cell, control) location.

    Returns ``stay(x, t, t_stop, horizon, hmax, box, bands, times, coords)``.
    From state ``x`` at time ``t`` it takes RK4 steps of length
    ``min(hmax, horizon - t)`` over the x-only field ``field_exprs`` while
    ``t < t_stop``. ``box`` holds one ``(lo, hi)`` pair per coordinate and
    ``bands`` one per phi. A step is accepted when every coordinate of the
    new state lies in its box pair and then every ``phi_exprs[j]`` at the
    new state lies in ``bands[j]``; an accepted step appends its time to
    ``times`` and its coordinates, one by one, to ``coords``. It returns
    ``(t, x, xn, h)``: the time and state of the last accepted step, the
    state the first rejected step reached (None when ``t_stop`` was reached)
    and the length of the last step taken.

    Bit-identity contract: every step is the step of ``compile_step``
    (the same generated statements), and each phi is evaluated inline with
    the operations of ``compile_scalar``, so the appended times and
    coordinates, and the returned values, are bit for bit those of a loop
    that calls ``compile_step`` and the compiled phis and checks the box and
    bands. No finiteness check is made: a nan or infinite coordinate fails
    its finite box check, so the step that produced it is rejected and
    returned as ``xn``. Float errors inside the field or a phi
    (ZeroDivisionError, OverflowError, math-domain ValueError) propagate,
    after every step before the failing one was appended.
    """
    idx = range(len(field_exprs))
    xs = ", ".join("x%d" % i for i in idx)
    leave = "            return t, (%s,), (%s,), h" % (
        xs, ", ".join("n%d" % i for i in idx))
    lines = ["def stay(x, t, t_stop, horizon, hmax, box, bands, times, coords):",
             "    %s, = x" % xs,
             "    %s, = box" % ", ".join("(bl%d, bh%d)" % (i, i) for i in idx)]
    if phi_exprs:
        lines.append("    %s, = bands" % ", ".join(
            "(fl%d, fh%d)" % (j, j) for j in range(len(phi_exprs))))
    lines += ["    append_t = times.append",
              "    append_c = coords.append",
              "    h = hmax",
              "    while t < t_stop:",
              "        h = horizon - t",
              "        if h > hmax:",
              "            h = hmax"]
    lines += _rk4_body(field_exprs, "        ")
    lines += ["        if not (%s):" % " and ".join(
        "bl%d <= n%d <= bh%d" % (i, i, i) for i in idx), leave]
    for j, e in enumerate(phi_exprs):
        lines += ["        if not fl%d <= %s <= fh%d:"
                  % (j, _emit(e, _SCALAR_FUNCS, "n%d", "u%d"), j), leave]
    lines.append("        t += h")
    lines += ["        x%d = n%d" % (i, i) for i in idx]
    lines.append("        append_t(t)")
    lines += ["        append_c(x%d)" % i for i in idx]
    lines.append("    return t, (%s,), None, h" % xs)
    return _exec_def(lines, "stay")
