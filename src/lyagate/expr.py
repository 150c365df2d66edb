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

from .errors import (
    EvalDomainError, ExprSyntaxError, UnknownVariableError, raise_float_error,
)

__all__ = [
    "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "Expression", "parse_expression", "eval_expression", "differentiate",
    "substitute", "variables", "to_text", "compile_scalar", "compile_vector",
    "compile_step", "compile_stay", "compile_refine", "compile_polish",
    "compile_bisect", "compile_field",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs", "sign")


def _hash_once(cls):
    """Keep each node's hash once it is first computed.

    The class's own ``__hash__`` (the dataclass's, over the fields, or
    Const's) still decides the value, so a node hashes as before, but a
    lookup in a ``compile_*`` cache no longer walks the whole tree. The
    hash is an instance attribute beside the fields, not a field, set
    without reading ``__dict__``, which would give every hashed node a
    dict of its own. It is left out of the pickled and copied state,
    because a string's hash differs between processes.
    """
    field_hash = cls.__hash__
    names = tuple(cls.__dataclass_fields__)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {f: getattr(self, f) for f in names}

    cls._hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_hash_once
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


@_hash_once
@dataclass(frozen=True)
class Var:
    name: str


@_hash_once
@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@_hash_once
@dataclass(frozen=True)
class Add:
    left: "Expression"
    right: "Expression"


@_hash_once
@dataclass(frozen=True)
class Sub:
    left: "Expression"
    right: "Expression"


@_hash_once
@dataclass(frozen=True)
class Mul:
    left: "Expression"
    right: "Expression"


@_hash_once
@dataclass(frozen=True)
class Div:
    left: "Expression"
    right: "Expression"


@_hash_once
@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("power exponent must be a nonnegative integer")


@_hash_once
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
            if node.exponent == 2:
                return base * base      # rounds as the compiled forms do
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
        base = _emit(e.base, funcs, xfmt, ufmt)
        if e.exponent == 2:
            # a product, which numpy's ``** 2`` also is; Python's float
            # ``** 2`` calls libm pow, which can round the last bit apart
            return "(%s * %s)" % (base, base)
        return "(%s ** %d)" % (base, e.exponent)
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
    order that ``compile_step`` documents. The caller binds ``hh = 0.5 * h``
    and ``s = h / 6.0``: ``0.5 * h * k`` parses as ``(0.5 * h) * k``, so the
    stage points round as the textbook's do."""
    idx = range(len(exprs))

    def stage(k, at):
        return ["%s%s%d = %s" % (pad, k, i,
                                 _emit(e, _SCALAR_FUNCS, at + "%d", "u%d"))
                for i, e in enumerate(exprs)]

    def point(step, k):
        return ["%sy%d = x%d + %s * %s%d" % (pad, i, i, step, k, i)
                for i in idx]

    lines = stage("a", "x") + point("hh", "a")
    lines += stage("b", "y") + point("hh", "b")
    lines += stage("c", "y") + point("h", "c")
    lines += stage("d", "y")
    lines += ["%sn%d = x%d + s * (a%d + 2.0 * b%d + 2.0 * c%d + d%d)"
              % ((pad,) + (i,) * 6) for i in idx]
    return lines


def _exec_def(lines, name):
    namespace = {"math": math, "np": np, "_sign": _py_sign, "abs": abs,
                 "copysign": math.copysign,
                 "raise_float_error": raise_float_error}
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
    lines = ["def step(x, h):", "    %s, = x" % xs,
             "    hh = 0.5 * h", "    s = h / 6.0"]
    lines += _rk4_body(exprs, "    ")
    lines.append("    return (%s,)" % ns)
    return _exec_def(lines, "step")


def _stepping(field_exprs, full, rest, after):
    """The stepping loop of ``compile_stay`` and ``compile_walk`` from the
    local floats ``x0, x1, ...`` at time ``t``: steps of length ``hmax``
    (``0.5 * hmax`` and ``hmax / 6.0`` bound once) while ``full`` and
    ``horizon - t > hmax`` hold, then of length ``horizon - t`` while
    ``rest`` holds. Each ``_rk4_body`` sits in a try that passes its float
    errors to ``errors.raise_float_error``; ``after`` follows each step."""
    xs = ", ".join("x%d" % i for i in range(len(field_exprs)))
    step = (["        try:"] + _rk4_body(field_exprs, "            ")
            + ["        except (OverflowError, ZeroDivisionError, "
               "ValueError) as err:",
               "            raise_float_error(err, (%s,), t, h)" % xs]
            + after)
    return (["    h = hmax", "    hh = 0.5 * h", "    s = h / 6.0",
             "    while %shorizon - t > hmax:" % full] + step
            + ["    while %s:" % rest, "        h = horizon - t",
               "        hh = 0.5 * h", "        s = h / 6.0"] + step)


@lru_cache(maxsize=None)
def compile_stay(field_exprs, phi_exprs) -> Callable:
    """Compile one whole stay in a (cell, control) location.

    Returns ``stay(x, t, t_stop, horizon, hmax, box, bands)``. From state
    ``x`` at time ``t`` it takes RK4 steps of length
    ``min(hmax, horizon - t)`` over the x-only field ``field_exprs`` while
    ``t < t_stop``; ``t_stop`` must lie within ``hmax`` of the horizon (the
    caller's is ``horizon - 1e-15``). ``box`` holds one ``(lo, hi)`` pair per
    coordinate and ``bands`` one per phi. A step is accepted when every
    coordinate of the new state lies in its box pair and then every
    ``phi_exprs[j]`` at the new state lies in ``bands[j]``. Nothing is
    recorded per step. It returns ``(t, x, xn, h, steps, t_prev, x_prev)``:
    the time and state of the last accepted step, the state the first
    rejected step reached (None when ``t_stop`` was reached), the length of
    the last step taken, the number of accepted steps, and the time and
    state before the last accepted step (the start when none was accepted).

    Bit-identity contract: the steps are ``_stepping``'s, each the step of
    ``compile_step`` (the same generated statements, with the same
    ``0.5 * h`` and ``h / 6.0``), and each phi is evaluated inline with the
    operations of ``compile_scalar``, so the returned values are bit for bit
    those of a loop that calls ``compile_step`` and the compiled phis and
    checks the box and bands. No finiteness check is made: a nan or infinite
    coordinate fails its finite box check, so the step that produced it is
    rejected and returned as ``xn``. A float error of the field becomes the
    package's own at the step that raised it, as in ``sim._advance``; one
    of a phi propagates as it is.
    """
    idx = range(len(field_exprs))
    xs = ", ".join("x%d" % i for i in idx)
    ps = ", ".join("p%d" % i for i in idx)
    leave = "            return t, (%s,), (%s,), h, k, tp, (%s,)" % (
        xs, ", ".join("n%d" % i for i in idx), ps)
    after = ["        if not (%s):" % " and ".join(
        "bl%d <= n%d <= bh%d" % (i, i, i) for i in idx), leave]
    for j, e in enumerate(phi_exprs):
        after += ["        if not fl%d <= %s <= fh%d:"
                  % (j, _emit(e, _SCALAR_FUNCS, "n%d", "u%d"), j), leave]
    after += ["        tp = t"] + ["        p%d = x%d" % (i, i) for i in idx]
    after += ["        t += h"] + ["        x%d = n%d" % (i, i) for i in idx]
    after.append("        k += 1")
    lines = ["def stay(x, t, t_stop, horizon, hmax, box, bands):",
             "    %s, = x" % xs,
             "    %s, = box" % ", ".join("(bl%d, bh%d)" % (i, i) for i in idx)]
    if phi_exprs:
        lines.append("    %s, = bands" % ", ".join(
            "(fl%d, fh%d)" % (j, j) for j in range(len(phi_exprs))))
    lines += ["    k = 0", "    tp = t", "    %s = %s" % (ps, xs)]
    lines += _stepping(field_exprs, "", "t < t_stop", after)
    lines.append("    return t, (%s,), None, h, k, tp, (%s,)" % (xs, ps))
    return _exec_def(lines, "stay")


@lru_cache(maxsize=None)
def compile_walk(field_exprs) -> Callable:
    """Compile ``walk(x, t, k, horizon, hmax, times, coords)``: from state
    ``x`` at time ``t``, exactly ``k`` of ``_stepping``'s steps, appending
    each time to ``times`` and each state's coordinates to ``coords``, with
    no check: the states ``compile_stay`` accepted from there, bit for bit."""
    idx = range(len(field_exprs))
    after = ["        t += h"] + ["        x%d = n%d" % (i, i) for i in idx]
    after += ["        append(t)",
              "        extend((%s,))" % ", ".join("n%d" % i for i in idx),
              "        k -= 1"]
    lines = ["def walk(x, t, k, horizon, hmax, times, coords):",
             "    %s, = x" % ", ".join("x%d" % i for i in idx),
             "    append, extend = times.append, coords.extend"]
    lines += _stepping(field_exprs, "k and ", "k", after)
    return _exec_def(lines, "walk")


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@lru_cache(maxsize=None)
def compile_refine(phi, lie, n) -> Callable:
    """Compile the coordinate-sweep golden-section refinement of ``|lie|``
    over one band of ``phi`` inside a box of dimension ``n``.

    Returns ``refine(x, maximize, box, spacing, band, sweeps, iters)``.
    From the start point ``x`` (a sequence of floats) it makes ``sweeps``
    sweeps over the coordinates. For coordinate d it runs ``iters``
    golden-section iterations on ``t`` over the bracket
    ``[max(lo_d, x_d - spacing[d]), min(hi_d, x_d + spacing[d])]``, where
    ``box`` holds one ``(lo, hi)`` pair per coordinate. The objective at a
    trial point (``x`` with coordinate d set to ``t``) is ``|lie|``, negated
    when ``maximize``; it is ``math.inf`` unless the trial passes
    ``lo_d <= t <= hi_d`` and then ``band[0] <= phi <= band[1]``. The point
    moves to the search's result when that point passes the same test. It
    returns ``(point, |lie| at point)``.

    The sweeps stop early once a whole sweep leaves the bits of every
    coordinate unchanged (the same value with the same sign, so 0.0 and
    -0.0 differ): a sweep is a function of the point alone, so every later
    sweep would repeat the same operations and end at the same point.

    Bit-identity contract: phi and lie are evaluated inline with the
    operations of ``compile_scalar``, and the bracket ends, the golden
    updates, the ``fc <= fd`` comparison and the short-circuited
    box-then-band test run in the order of a golden-section loop over
    closures that call the compiled scalars, so every argument and value
    returned is bit for bit that loop's. Float errors inside phi or lie
    (ZeroDivisionError, OverflowError, math-domain ValueError) propagate.
    """
    idx = range(n)
    xs = ", ".join("x%d" % i for i in idx)
    ys = ", ".join("y%d" % i for i in idx)
    phi_y = _emit(phi, _SCALAR_FUNCS, "y%d", "u%d")
    lie_y = _emit(lie, _SCALAR_FUNCS, "y%d", "u%d")
    lines = ["def refine(x, maximize, box, spacing, band, sweeps, iters):",
             "    %s, = x" % xs,
             "    %s, = box" % ", ".join("(bl%d, bh%d)" % (i, i) for i in idx),
             "    %s, = spacing" % ", ".join("sp%d" % i for i in idx),
             "    fl, fh = band",
             "    inf = math.inf",
             "    invphi = %r" % _INVPHI,
             "    for _ in range(sweeps):",
             "        %s, = %s," % (", ".join("s%d" % i for i in idx), xs)]
    for j in idx:
        # the trial point y is x with coordinate j replaced
        feasible = "bl%d <= y%d <= bh%d and fl <= %s <= fh" % (j, j, j, phi_y)

        def trial(t, f, pad):
            return [pad + "y%d = %s" % (j, t),
                    pad + "if %s:" % feasible,
                    pad + "    v = abs(%s)" % lie_y,
                    pad + "    %s = -v if maximize else v" % f,
                    pad + "else:",
                    pad + "    %s = inf" % f]

        lines += ["        %s, = %s," % (ys, xs),
                  "        a = max(bl%d, x%d - sp%d)" % (j, j, j),
                  "        b = min(bh%d, x%d + sp%d)" % (j, j, j),
                  "        c = b - invphi * (b - a)",
                  "        d = a + invphi * (b - a)"]
        lines += trial("c", "fc", "        ") + trial("d", "fd", "        ")
        lines += ["        for _ in range(iters):",
                  "            if fc <= fd:",
                  "                b, d, fd = d, c, fc",
                  "                c = b - invphi * (b - a)"]
        lines += trial("c", "fc", "                ")
        lines += ["            else:",
                  "                a, c, fc = c, d, fd",
                  "                d = a + invphi * (b - a)"]
        lines += trial("d", "fd", "                ")
        lines += ["        y%d = c if fc <= fd else d" % j,
                  "        if %s:" % feasible,
                  "            x%d = y%d" % (j, j)]
    # a sweep that left every coordinate's bits as they were is a fixed
    # point: equal floats with equal signs have equal bits (``==`` alone
    # would let 0.0 stand for -0.0), and a NaN never stops the sweeps
    lines += ["        if %s:" % " and ".join(
                  "x%d == s%d and copysign(1.0, x%d) == copysign(1.0, s%d)"
                  % ((i,) * 4) for i in idx),
              "            break"]
    lines.append("    return (%s,), abs(%s)"
                 % (xs, _emit(lie, _SCALAR_FUNCS, "x%d", "u%d")))
    return _exec_def(lines, "refine")


def _emit_column(e, col="c"):
    """``e`` over the column arrays ``c0, c1, ...`` (named by ``col``) with
    the operations of ``compile_vector``, its ``+ 0.0 * X[:, 0]`` term
    included."""
    return "(%s) + 0.0 * %s0" % (_emit(e, _VECTOR_FUNCS, col + "%d", "U%d"),
                                 col)


def _compact(mask, names, pad):
    """Source lines that keep the rows of ``mask`` in every named array."""
    return ["%s%s = %s[%s]" % (pad, a, a, mask) for a in names]


_POLISH_ROUNDS = 40   # Gauss-Newton steps per row at most
_BISECT_ITERS = 60    # halvings of a segment onto its level at most


@lru_cache(maxsize=None)
def compile_polish(phi, n) -> Callable:
    """Compile the row-wise Gauss-Newton projection onto levels of ``phi``
    over ``x1..xn``.

    Returns ``polish(x, level, scale, box)``, which moves the rows of the
    (N, n) array ``x`` in place. Row i is projected onto ``phi =
    level[i]``: up to ``_POLISH_ROUNDS`` times, with ``r = phi(x) -
    level[i]``, gradient ``g`` and ``g2 = g . g``, the row stops when
    ``|r| < 1e-14 * scale[i]`` or ``g2 < 1e-30``, else moves to
    ``x - r * g / g2``, clipped into ``box`` (one ``(lo, hi)`` pair per
    coordinate); it also stops once a step leaves its bits unchanged.

    The kernel keeps one contiguous array per coordinate holding the live
    rows only. It compacts them on a round where some row stops, and writes
    a row back to ``x`` when it stops.

    Bit-identity contract: phi and every gradient component are evaluated
    inline with the operations of ``compile_vector`` (its ``+ 0.0 *
    X[:, 0]`` term included, which gives a constant component its array
    shape and fixes signed zeros and non-finite rows); ``g2`` comes from
    the batched ``matmul`` of the gradient rows, because a plain ``g0 * g0
    + g1 * g1`` rounds apart from BLAS, which uses FMA (``fma(g1, g1, g0 *
    g0)`` on the rows checked where they differ), so its operand is the
    same C-contiguous (N, n) array the stacked rows were, filled column by
    column into a fresh buffer each round; the step
    is ``x - r * g / g2``, clipped by ``np.minimum(np.maximum(., lo), hi)``,
    which matches the ``np.clip`` of the (N, n) rows against the box
    vectors bit for bit; and the fixed-point test compares bits. So every
    row ends where a loop over whole (N, n) arrays of those compiled
    vectors ends it.
    """
    idx = range(n)
    grads = [differentiate(phi, "x%d" % (i + 1)) for i in idx]
    cs = ["c%d" % i for i in idx]
    gs = ["g%d" % i for i in idx]
    ns = ["n%d" % i for i in idx]
    lines = ["def polish(x, level, scale, box):",
             "    rows = np.arange(len(x))",
             "    %s, = %s," % (", ".join(cs),
                               ", ".join("x[:, %d]" % i for i in idx)),
             "    %s, = box" % ", ".join("(bl%d, bh%d)" % (i, i) for i in idx),
             "    lv, sc = level, scale",
             "    for _ in range(%d):" % _POLISH_ROUNDS,
             "        if not len(rows):",
             "            break",
             "        r = (%s) - lv" % _emit_column(phi)]
    lines += ["        g%d = %s" % (i, _emit_column(e))
              for i, e in enumerate(grads)]
    lines.append("        g = np.empty((len(rows), %d))" % n)
    lines += ["        g[:, %d] = g%d" % (i, i) for i in idx]
    lines += ["        g2 = (g[:, None, :] @ g[:, :, None])[:, 0, 0]",
              "        go = (np.abs(r) >= 1e-14 * sc) & (g2 >= 1e-30)",
              "        if not go.all():",
              "            out = rows[~go]"]
    lines += ["            x[out, %d] = c%d[~go]" % (i, i) for i in idx]
    lines += _compact("go", ["rows", "lv", "sc", "r", "g2"] + cs + gs,
                      "            ")
    lines += ["        n%d = np.minimum(np.maximum(c%d - r * g%d / g2, bl%d), bh%d)"
              % ((i,) * 5) for i in idx]
    lines += ["        moved = %s" % " | ".join(
                  "(n%d.view(np.uint64) != c%d.view(np.uint64))" % (i, i)
                  for i in idx),
              "        if not moved.all():",
              "            out = rows[~moved]"]
    lines += ["            x[out, %d] = n%d[~moved]" % (i, i) for i in idx]
    lines += _compact("moved", ["rows", "lv", "sc"] + ns, "            ")
    lines.append("        %s, = %s," % (", ".join(cs), ", ".join(ns)))
    lines += ["    x[rows, %d] = c%d" % (i, i) for i in idx]
    return _exec_def(lines, "polish")


@lru_cache(maxsize=None)
def compile_bisect(phi, n) -> Callable:
    """Compile the row-wise bisection of segments onto levels of ``phi``
    over ``x1..xn``.

    Returns ``bisect(p, q, levels)``: for (k, n) arrays ``p`` and ``q``
    and a (k,) array ``levels``, the (k, n) array of points ``p + t * (q -
    p)`` where phi crosses each row's level. With ``d = q - p``, ``stat_lo
    = phi(p) - level``, ``lo = 0`` and ``hi = 1``, each row halves ``[lo,
    hi]`` at most ``_BISECT_ITERS`` times: the probe ``p + mid * d`` at
    ``mid = 0.5 * (lo + hi)`` moves ``lo`` (and ``stat_lo``) when ``(fm >
    0) == (stat_lo > 0)`` for ``fm = phi(probe) - level``, else ``hi``. A row stops early once ``mid`` rounds to ``lo`` or ``hi``, and
    ``t = 0.5 * (lo + hi)``, which for a stopped row is that ``mid``.

    The early stop is a fixed point, so the row ends where the full count
    ends it. ``stat_lo`` only takes the value of a probe on the same side
    as ``phi(p) - level``, and ``hi`` only moves to a probe on the other
    side. If ``mid == lo`` with ``lo > 0``, the probe repeats the one that
    set ``lo`` and ``stat_lo``, so it lands on the same side and changes
    nothing (``lo == 0`` cannot recur, as ``hi`` stays at or above
    ``2**-_BISECT_ITERS``). If ``mid == hi < 1``, the probe repeats the
    one that set ``hi`` and changes nothing. If ``mid == hi == 1.0``, then ``lo == 1 -
    2**-53`` and the probe may set ``lo`` to 1.0, but both before and after,
    ``0.5 * (lo + hi)`` rounds to 1.0. In every case the later midpoints,
    and the final ``t``, stay the same.

    The kernel keeps one contiguous array per coordinate of ``p`` and ``d``
    holding the live rows only, and compacts the live arrays on a round
    where some row stops.

    Bit-identity contract: phi is evaluated inline with the operations of
    ``compile_vector`` (its ``+ 0.0 * X[:, 0]`` term included), and the
    probe, the side test and the stop are the operations above in that
    order, so every point is bit for bit that of a loop that bisects every
    row over whole (k, n) arrays with the compiled vector phi.
    """
    idx = range(n)
    ps = ["p%d" % i for i in idx]
    ds = ["d%d" % i for i in idx]
    lines = ["def bisect(p, q, levels):",
             "    rows = np.arange(len(p))",
             "    %s, = %s," % (", ".join(ps),
                               ", ".join("p[:, %d]" % i for i in idx)),
             "    %s, = %s," % (", ".join(ds), ", ".join(
                 "q[:, %d] - p%d" % (i, i) for i in idx)),
             "    lv = levels",
             "    st = (%s) - lv" % _emit_column(phi, "p"),
             "    lo = np.zeros(len(p))",
             "    hi = np.ones(len(p))",
             "    t = np.empty(len(p))",
             "    for _ in range(%d):" % _BISECT_ITERS,
             "        mid = 0.5 * (lo + hi)",
             "        moving = (mid != lo) & (mid != hi)",
             "        if not moving.all():",
             "            t[rows[~moving]] = mid[~moving]"]
    lines += _compact("moving", ["rows", "mid", "lo", "hi", "st", "lv"]
                      + ps + ds, "            ")
    lines += ["            if not len(rows):",
              "                break"]
    lines += ["        c%d = p%d + mid * d%d" % (i, i, i) for i in idx]
    lines += ["        fm = (%s) - lv" % _emit_column(phi),
              "        same = (fm > 0) == (st > 0)",
              "        lo = np.where(same, mid, lo)",
              "        st = np.where(same, fm, st)",
              "        hi = np.where(same, hi, mid)",
              "    t[rows] = 0.5 * (lo + hi)",
              "    return p + t[:, None] * (q - p)"]
    return _exec_def(lines, "bisect")
