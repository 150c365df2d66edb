"""Expression parsing, printing, evaluation, and differentiation."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from lyagate import expr as ex
from lyagate.errors import (
    EvalDomainError, ExprSyntaxError, NonFiniteStateError, UnknownVariableError,
)


def p(text, n=3, m=2):
    return ex.parse_expression(text, n, m)


class TestParse:
    def test_neg_plus(self):
        assert p("-x1 + u1") == ex.Add(ex.Neg(ex.Var("x1")), ex.Var("u1"))

    def test_power(self):
        assert p("x1^2") == ex.Pow(ex.Var("x1"), 2)

    def test_unknown_input_index(self):
        with pytest.raises(UnknownVariableError) as err:
            p("x3 + u9", n=3, m=2)
        assert err.value.name == "u9"

    def test_unknown_identifier(self):
        with pytest.raises(UnknownVariableError) as err:
            p("x1 + foo")
        assert err.value.name == "foo"

    def test_state_index_out_of_range(self):
        with pytest.raises(UnknownVariableError):
            p("x4", n=3, m=2)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            p("x1 + * x2")
        assert err.value.offset == 5

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            p("x1 x2")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            p("x1^2.5")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            p("x1^-1")

    def test_precedence(self):
        assert p("x1 + x2*x3") == ex.Add(
            ex.Var("x1"), ex.Mul(ex.Var("x2"), ex.Var("x3")))
        assert p("-x1^2") == ex.Neg(ex.Pow(ex.Var("x1"), 2))
        assert p("(x1 + x2)^2") == ex.Pow(ex.Add(ex.Var("x1"), ex.Var("x2")), 2)

    def test_functions(self):
        assert p("sin(x1)*cos(x2)") == ex.Mul(
            ex.Call("sin", ex.Var("x1")), ex.Call("cos", ex.Var("x2")))


class TestEval:
    def test_square(self):
        assert ex.eval_expression(p("2*x1^2"), (3.0, 0, 0), (0, 0)) == 18.0

    def test_affine(self):
        assert ex.eval_expression(p("-x1 + u1"), (1.0, 0, 0), (1.5, 0)) == 0.5

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError) as err:
            ex.eval_expression(p("1/x1"), (0.0, 0, 0), (0, 0))
        assert err.value.x[0] == 0.0

    def test_sqrt_negative(self):
        with pytest.raises(EvalDomainError):
            ex.eval_expression(p("sqrt(x1)"), (-1.0, 0, 0), (0, 0))

    def test_abs_and_sign(self):
        assert ex.eval_expression(p("abs(x1)"), (-2.0, 0, 0), (0, 0)) == 2.0
        assert ex.eval_expression(p("sign(x1)"), (0.0, 0, 0), (0, 0)) == 0.0

    def test_compiled_matches_tree(self):
        e = p("sin(x1)*x2 + exp(x3)/2 - u1^3")
        f = ex.compile_scalar(e)
        x, u = (0.3, -1.2, 0.7), (0.5, 0.0)
        assert f(x, u) == ex.eval_expression(e, x, u)


class TestNegativeConstant:
    """Trees with a negative constant, which substitute() and API callers can
    build although the parser never does."""

    @pytest.mark.parametrize("e", [
        ex.Pow(ex.Const(-2.0), 2),
        ex.Pow(ex.Const(-2.0), 3),
        ex.Pow(ex.Const(-0.0), 1),
        ex.Mul(ex.Var("x1"), ex.Pow(ex.Const(-0.5), 4)),
        ex.Neg(ex.Pow(ex.Const(-3.0), 2)),
        ex.Sub(ex.Var("x1"), ex.Const(-1.5)),
        ex.Pow(ex.Pow(ex.Const(-1.25), 2), 3),
    ])
    def test_compiled_forms_printing_and_tree_agree(self, e):
        import numpy as np
        x = (1.75,)
        value = ex.eval_expression(e, x)
        assert ex.compile_scalar(e)(x) == value
        assert ex.compile_field((e,))(x) == (value,)
        assert ex.compile_vector(e)(np.array([x]))[0] == value
        back = ex.parse_expression(ex.to_text(e), 1, 0)
        assert ex.eval_expression(back, x).hex() == value.hex()
        assert ex.to_text(back) == ex.to_text(e)

    def test_power_of_negative_constant_is_positive(self):
        e = ex.Pow(ex.Const(-2.0), 2)
        assert ex.compile_scalar(e)(()) == 4.0
        assert ex.to_text(e) == "(-2)^2"

    def test_signed_zeros_compile_apart(self):
        # -0.0 == 0.0, so a cache keyed on float equality would hand the
        # code of one tree to the other
        neg, pos = ex.Pow(ex.Const(-0.0), 1), ex.Pow(ex.Const(0.0), 1)
        assert neg != pos
        assert ex.compile_scalar(neg)(()).hex() == "-0x0.0p+0"
        assert ex.compile_scalar(pos)(()).hex() == "0x0.0p+0"


class TestDifferentiate:
    def test_power_rule(self):
        assert ex.differentiate(p("x1^2"), "x1") == p("2*x1")

    def test_independent(self):
        assert ex.differentiate(p("u1"), "x1") == ex.Const(0.0)

    def test_product_chain(self):
        assert ex.differentiate(p("sin(x1)*x2"), "x1") == p("cos(x1)*x2")

    def test_abs_uses_sign(self):
        d = ex.differentiate(p("abs(x1)"), "x1")
        assert d == ex.Call("sign", ex.Var("x1"))

    def test_quotient(self):
        d = ex.differentiate(p("x1/x2"), "x2")
        val = ex.eval_expression(d, (3.0, 2.0, 0), (0, 0))
        assert val == pytest.approx(-3.0 / 4.0)


# -- property tests ---------------------------------------------------------

_leaf = st.one_of(
    st.sampled_from([ex.Var("x1"), ex.Var("x2"), ex.Var("u1")]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False).map(ex.Const),
)


def _branch(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: ex.Add(*ab)),
        st.tuples(children, children).map(lambda ab: ex.Sub(*ab)),
        st.tuples(children, children).map(lambda ab: ex.Mul(*ab)),
        children.map(ex.Neg),
        st.tuples(children, st.integers(0, 3)).map(lambda bk: ex.Pow(*bk)),
        children.map(lambda c: ex.Call("sin", c)),
        children.map(lambda c: ex.Call("cos", c)),
    )


exprs = st.recursive(_leaf, _branch, max_leaves=12)

_signed_leaf = st.one_of(
    st.sampled_from([ex.Var("x1"), ex.Var("x2"), ex.Var("u1")]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(ex.Const),
)
signed_exprs = st.recursive(_signed_leaf, _branch, max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(exprs, st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_print_parse_round_trip(e, x1, x2, u1):
    text = ex.to_text(e)
    back = ex.parse_expression(text, 2, 1)
    assert back == e
    v1 = ex.eval_expression(e, (x1, x2), (u1,))
    v2 = ex.eval_expression(back, (x1, x2), (u1,))
    assert v1 == v2 or (math.isnan(v1) and math.isnan(v2))


def _bits(v):
    return "nan" if math.isnan(v) else float(v).hex()


@settings(max_examples=200, deadline=None)
@example(ex.Pow(ex.Const(-2.0), 2), 0.0, 0.0, 0.0)
@given(signed_exprs, st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_negative_constants_compile_and_print_faithfully(e, x1, x2, u1):
    x, u = (x1, x2), (u1,)
    try:
        compiled = ex.compile_scalar(e)(x, u)
    except OverflowError:
        return      # the tree walk returns inf where the compiled ** raises
    value = ex.eval_expression(e, x, u)
    assert _bits(compiled) == _bits(value)
    # the parser reads a negative constant back as Neg(Const): same value
    back = ex.parse_expression(ex.to_text(e), 2, 1)
    assert _bits(ex.eval_expression(back, x, u)) == _bits(value)
    assert ex.to_text(back) == ex.to_text(e)


@settings(max_examples=100, deadline=None)
@given(exprs, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_derivative_matches_finite_difference(e, x1, x2, u1):
    d = ex.differentiate(e, "x1")
    h = 1e-6
    f = ex.compile_scalar(e)
    up = f((x1 + h, x2), (u1,))
    dn = f((x1 - h, x2), (u1,))
    fd = (up - dn) / (2 * h)
    sym = ex.compile_scalar(d)((x1, x2), (u1,))
    assert sym == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_derivative_fd_random_corpus():
    """100 random (expression, point) pairs vs central differences."""
    import numpy as np
    rng = np.random.default_rng(42)
    texts = [
        "x1^3 - 2*x2", "sin(x1)*cos(x2)", "exp(x1/2)*x2", "x1*x2 + x2^2",
        "(x1 + x2)^2 - x1", "sin(x1^2)", "x1/(2 + x2^2)", "cos(x1)*exp(x2)",
    ]
    checked = 0
    for _ in range(100):
        e = ex.parse_expression(texts[rng.integers(len(texts))], 2, 0)
        x = tuple(rng.uniform(-1.5, 1.5, 2))
        d = ex.compile_scalar(ex.differentiate(e, "x1"))((x), ())
        f = ex.compile_scalar(e)
        h = 1e-6
        fd = (f((x[0] + h, x[1]), ()) - f((x[0] - h, x[1]), ())) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-5, abs=1e-5)
        checked += 1
    assert checked == 100


# -- fused RK4 step ---------------------------------------------------------

_FUNCS = ("sin", "cos", "exp", "sqrt", "abs", "sign")


def _x_expr(n):
    """x-only expressions over x1..xn that use every node type."""
    leaf = st.one_of(
        st.sampled_from([ex.Var("x%d" % (i + 1)) for i in range(n)]),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(ex.Const),
    )

    def branch(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda ab: ex.Add(*ab)),
            pair.map(lambda ab: ex.Sub(*ab)),
            pair.map(lambda ab: ex.Mul(*ab)),
            pair.map(lambda ab: ex.Div(*ab)),
            children.map(ex.Neg),
            st.tuples(children, st.integers(0, 5)).map(lambda bk: ex.Pow(*bk)),
            st.tuples(st.sampled_from(_FUNCS), children).map(
                lambda fc: ex.Call(*fc)),
        )

    return st.recursive(leaf, branch, max_leaves=10)


def _field_exprs(n):
    """n-component x-only fields that use every node type."""
    return st.tuples(*[_x_expr(n)] * n)


@st.composite
def _step_case(draw):
    n = draw(st.integers(1, 3))
    exprs = draw(_field_exprs(n))
    x = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(n))
    h = draw(st.floats(1e-6, 0.5))
    return exprs, x, h


def _outcome(fn, *args):
    """Bit patterns of the result (nan as one token), or the raised error."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    return tuple("nan" if math.isnan(v) else float(v).hex() for v in out)


@settings(max_examples=300, deadline=None)
@given(_step_case())
def test_compile_step_bit_identical_to_textbook_rk4(textbook_rk4, case):
    exprs, x, h = case
    fused = _outcome(ex.compile_step(exprs), x, h)
    reference = _outcome(textbook_rk4, ex.compile_field(exprs), x, h)
    assert fused == reference


# -- stay kernel ------------------------------------------------------------

@st.composite
def _stay_case(draw):
    """A random field, phis with bands around their start values, a box
    around the start state, a step and a horizon."""
    n = draw(st.integers(1, 3))
    fields = draw(_field_exprs(n))
    phis = tuple(draw(st.lists(_x_expr(n), min_size=1, max_size=2)))
    x = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(n))
    margin = st.floats(0.0, 3.0)
    box = tuple((xi - draw(margin), xi + draw(margin)) for xi in x)
    bands = ()
    for e in phis:
        try:
            v0 = ex.compile_scalar(e)(x)
        except (ArithmeticError, ValueError):
            v0 = 0.0
        if not math.isfinite(v0):
            v0 = 0.0
        bands += ((v0 - draw(margin), v0 + draw(margin)),)
    hmax = draw(st.floats(1e-3, 0.5))
    horizon = draw(st.floats(0.01, 3.0))
    t = draw(st.floats(0.0, 0.9)) * horizon
    return fields, phis, (x, t, horizon - 1e-15, horizon, hmax, box, bands)


def _stay_outcome(stay, phis, args):
    """Bits of the returned (t, x, xn, h) and of the appended times and
    coordinates, or the raised error. A returned xn then goes through what
    `simulate_closed_loop` does with the step that left: the finiteness
    check and every phi at xn."""
    times, coords = [], []
    try:
        t, x, xn, h = stay(*args, times, coords)
        if xn is not None:
            if not all(math.isfinite(v) for v in xn):
                raise NonFiniteStateError(
                    "non-finite state at t=%g" % (t + h))
            for e in phis:
                ex.compile_scalar(e)(xn)
        result = [_bits(v) for v in (t, *x, h)] + (
            ["horizon"] if xn is None else [_bits(v) for v in xn])
    except (ArithmeticError, ValueError, NonFiniteStateError) as err:
        result = (type(err), str(err))
    return result, [_bits(v) for v in times], [_bits(v) for v in coords]


def _stay_example(field, phi, x0, hmax, horizon, band=(-100.0, 100.0)):
    fields = (ex.parse_expression(field, 1, 0),)
    phis = (ex.parse_expression(phi, 1, 0),)
    box = ((x0 - 3.0, x0 + 3.0),)
    return fields, phis, ((x0,), 0.0, horizon - 1e-15, horizon, hmax, box,
                          (band,))


@settings(max_examples=300, deadline=None)
@example(_stay_example("x1*x1*1e200", "sin(x1)", 2.0, 1e-3, 1.0))  # inf
@example(_stay_example("-x1^9", "x1", 2.5, 1.0, 5.0))  # overflow
@example(_stay_example("-x1", "x1^2", 2.0, 0.01, 2.0, (1.0, 9.0)))  # leaves
@given(_stay_case())
def test_compile_stay_bit_identical_to_reference_loop(reference_stay, case):
    fields, phis, args = case
    kernel = _stay_outcome(ex.compile_stay(fields, phis), phis, args)
    reference = _stay_outcome(
        lambda *a: reference_stay(fields, phis, *a), phis, args)
    assert kernel == reference
