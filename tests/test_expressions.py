import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from varipade import (
    DomainError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
    eval_integrand_many,
    parse_integrand,
)
from varipade.expressions import MAX_DEPTH


def at(expr, x, y, dy):
    """(F, dF/dy, dF/ddy) of expr at one point, each a one-point array."""
    return eval_integrand_many(expr, np.array([float(x)]), np.array([float(y)]), np.array([float(dy)]))


class TestParsing:
    def test_shortest_path_integrand(self):
        expr = parse_integrand("sqrt(1 + dy^2)")
        assert at(expr, 0.0, 0.0, 0.0)[0][0] == 1.0

    def test_round_trip(self):
        for text in [
            "sqrt(1 + dy^2)",
            "y * dy^3",
            "dy^2 + x * dy",
            "dy^2 - 2 * y * cos(x + pi/2)",
            "dy^2 - y^2 - 2*x*y",
            "-x^2 + (y - dy) / (2.5 + y^2)",
            "exp(-x) * sin(y)",
            "(x + y)^3",
            "2^-2",
            " dy ^2 +x*dy ",
            "sqrt( 1+dy^2 )\t",
        ]:
            expr = parse_integrand(text)
            assert str(expr) == text
            assert parse_integrand(str(expr)).root == expr.root, text
        # spacing is kept in the text and ignored by the tree
        assert parse_integrand(" dy ^2 +x*dy ").root == parse_integrand("dy^2 + x * dy").root

    def test_pickle_round_trip_compiles_again(self):
        expr = parse_integrand("dy^2 - 2 * y * cos(x + pi/2)")
        copy = pickle.loads(pickle.dumps(expr))
        assert copy == expr
        assert np.array_equal(at(copy, 0.3, 0.2, 0.1), at(expr, 0.3, 0.2, 0.1))

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse_integrand("frob(x)")
        assert exc.value.offset == 0

    def test_unknown_identifier_offset(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse_integrand("x + zz")
        assert exc.value.offset == 4

    @pytest.mark.parametrize("text", ["sqrt(", "x +", "1 ** 2", ")", "sin 3", "", 5, None])
    def test_syntax_errors_carry_offset(self, text):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_integrand(text)
        if isinstance(text, str):
            assert 0 <= exc.value.offset <= len(text)
        else:  # a non-string is named by its type
            assert exc.value.offset == 0
            assert f"got {type(text).__name__}" in str(exc.value)

    def test_pi_is_a_constant(self):
        expr = parse_integrand("pi")
        assert at(expr, 0, 0, 0)[0][0] == math.pi

    def test_precedence(self):
        assert at(parse_integrand("2 + 3 * 4^2"), 0, 0, 0)[0][0] == 50.0
        assert at(parse_integrand("-2^2"), 0, 0, 0)[0][0] == -4.0


class TestEvaluation:
    def test_shortest_path_point(self):
        value, dF_dy, dF_ddy = at(parse_integrand("sqrt(1+dy^2)"), 0.0, 0.0, 1.0)
        assert value[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert dF_dy[0] == 0.0
        assert dF_ddy[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_drag_point(self):
        value, dF_dy, dF_ddy = at(parse_integrand("y*dy^3"), 0.5, 1.0, 1.0)
        assert (value[0], dF_dy[0], dF_ddy[0]) == (1.0, 1.0, 3.0)

    def test_linear_source_point(self):
        value, dF_dy, dF_ddy = at(parse_integrand("dy^2 - y^2 - 2*x*y"), 1.0, 0.0, 1.0)
        assert (value[0], dF_dy[0], dF_ddy[0]) == (1.0, -2.0, 2.0)

    def test_sqrt_negative_raises(self):
        x = np.array([0.1, 0.2, 0.3])
        with pytest.raises(DomainError, match=r"^sqrt of negative value near x = 0.2$") as exc:
            eval_integrand_many(parse_integrand("sqrt(y)"), x, np.array([1.0, -1.0, -2.0]), np.zeros(3))
        assert exc.value.x == 0.2

    def test_division_floor_raises(self):
        with pytest.raises(DomainError):
            at(parse_integrand("x / y"), 1.0, 0.0, 0.0)

    def test_real_power_negative_base_raises(self):
        with pytest.raises(DomainError):
            at(parse_integrand("y^0.5"), 0.0, -2.0, 0.0)

    def test_integer_power_negative_base_ok(self):
        value, dF_dy, _ = at(parse_integrand("y^3"), 0.0, -2.0, 0.0)
        assert value[0] == -8.0
        assert dF_dy[0] == 12.0

    @pytest.mark.parametrize("text", ["y^(1/0)", "y^(0^(0-1))", "y^(sqrt(0-1))", "y^(exp(1000))"])
    def test_bad_constant_exponent_raises_domain_error(self, text):
        with pytest.raises(DomainError):
            at(parse_integrand(text), 0.5, 0.7, -0.3)

    def test_constant_exponent_expression(self):
        value, dF_dy, _ = at(parse_integrand("y^(2 * 3 - 4)"), 0.0, 3.0, 0.0)
        assert (value[0], dF_dy[0]) == (9.0, 6.0)

    @pytest.mark.parametrize("y", [0.0, -1.5])
    def test_log_of_nonpositive_raises(self, y):
        with pytest.raises(DomainError):
            at(parse_integrand("log(y)"), 0.0, y, 0.0)

    def test_determinism(self):
        expr = parse_integrand("sqrt(1 + dy^2) * exp(x) - cos(y)")
        a = at(expr, 0.3, -0.7, 1.1)
        b = at(expr, 0.3, -0.7, 1.1)
        assert [v[0] for v in a] == [v[0] for v in b]


INTEGRANDS = [
    "sqrt(1 + dy^2)",
    "y * dy^3",
    "dy^2 + x * dy",
    "dy^2 - 2 * y * cos(x + pi/2)",
    "dy^2 - y^2 - 2*x*y",
    "exp(x) * sin(y) + cos(dy) / (4.5 + y)",
    "(1 + y^2)^1.5 - dy^4 / 7",
    # the README's functions beyond sqrt sin cos exp, with arguments inside their domains
    "tan(0.3 * y) * dy",
    "log(2.5 + y) * dy^2",
    "abs(y - dy) + x",
    "sinh(y) * dy",
    "cosh(dy) - y",
    "tanh(x * y) * dy",
]


class TestPartialsAgainstFiniteDifferences:
    @pytest.mark.parametrize("text", INTEGRANDS)
    def test_partials_match_central_differences(self, text, rng):
        expr = parse_integrand(text)
        pts = rng.uniform(-2.0, 2.0, size=(1000, 3))
        x, y, dy = pts[:, 0], pts[:, 1], pts[:, 2]
        v, fy, fdy = eval_integrand_many(expr, x, y, dy)
        h = 1e-6
        vp, _, _ = eval_integrand_many(expr, x, y + h, dy)
        vm, _, _ = eval_integrand_many(expr, x, y - h, dy)
        fd_y = (vp - vm) / (2 * h)
        vp, _, _ = eval_integrand_many(expr, x, y, dy + h)
        vm, _, _ = eval_integrand_many(expr, x, y, dy - h)
        fd_dy = (vp - vm) / (2 * h)
        # central differences lose ~1e-16*|f|/h to cancellation, so allow an
        # absolute slack proportional to the local integrand magnitude
        slack = 1e-6 * (1.0 + np.abs(v))
        for analytic, fd in ((fy, fd_y), (fdy, fd_dy)):
            err = np.abs(analytic - fd)
            assert np.all(err <= 1e-6 * np.abs(fd) + slack)


class TestNestingLimit:
    @pytest.mark.parametrize("text,offset", [
        ("(" * 5000 + "x" + ")" * 5000, MAX_DEPTH - 1),
        ("-" * 3000 + "x", MAX_DEPTH - 1),
        ("sqrt(" * 3000 + "y" + ")" * 3000, 5 * (MAX_DEPTH - 1)),
        ("y^" * 3000 + "y", 2 * (MAX_DEPTH - 1) + 1),
    ])
    def test_deep_nesting_is_a_syntax_error(self, text, offset):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_integrand(text)
        assert exc.value.offset == offset

    def test_long_operator_chain_is_a_syntax_error(self):
        # a left-associative chain nests without recursing in the parser
        text = "+".join(["y"] * 5000)
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_integrand(text)
        assert exc.value.offset == 2 * MAX_DEPTH - 1

    def test_nesting_up_to_the_limit_evaluates(self):
        deep = parse_integrand("(" * (MAX_DEPTH - 2) + "y" + ")" * (MAX_DEPTH - 2))
        assert at(deep, 0.0, 2.0, 0.0)[1][0] == 1.0
        chain = parse_integrand("+".join(["y"] * MAX_DEPTH))
        assert at(chain, 0.0, 1.0, 0.0)[1][0] == MAX_DEPTH


def test_overflow_raises_domain_error_without_numpy_warnings():
    expr = parse_integrand("exp(1000*dy) * y")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            eval_integrand_many(expr, np.array([0.1, 0.2]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))


# F of each builtin integrand at fixed points, recorded from the tree-walking
# evaluator that the compiler replaced: (text, x, y, dy, F as float.hex)
BUILTIN_VALUES = [
    ("sqrt(1 + dy^2)", [0.173589, -0.767828, -0.919238, -0.333693],
     [0.353167, 0.442739, 1.396401, 1.13609], [0.182633, 1.26551, 1.058163, 1.006242],
     ["0x1.043c0164ed8d7p+0", "0x1.9ce86b547d843p+0", "0x1.74b74e3ea4692p+0", "0x1.6b2b9c374b417p+0"]),
    ("y * dy^3", [0.607938, 0.378367, 0.524626, 0.394086],
     [1.352547, 1.438734, 0.6261, 0.844402], [1.783083, 0.389305, 1.346656, 0.287894],
     ["0x1.eabc27c85c9ecp+2", "0x1.5bb45ebde821ap-4", "0x1.876dfb3b21761p+0", "0x1.4a1dc916ada60p-6"]),
    ("dy^2 + x * dy", [0.823125, 0.942032, 0.694343, 0.770757],
     [0.584717, 1.41972, 0.162244, 1.192647], [0.310385, 1.550105, 1.321856, 0.321106],
     ["0x1.6844ae9ceb45ap-2", "0x1.ee7935aa615e0p+1", "0x1.5522cec281a3ap+1", "0x1.6704ac146e35ep-2"]),
    ("dy^2 - 2 * y * cos(x + pi/2)", [-0.75994, -0.117395, -1.336962, 0.204987],
     [0.735692, 1.472709, 1.255922, 0.108186], [1.625827, 0.477594, 1.861576, 1.267542],
     ["0x1.a134a334d31d8p+0", "-0x1.dec59251c87eep-4", "0x1.05a088703f2a6p+0", "0x1.a694ae7e1502cp+0"]),
    ("dy^2 - y^2 - 2 * x * y", [0.182343, 0.288993, 0.696711, 0.00268],
     [0.127329, 1.214606, 0.737211, 0.231893], [1.288077, 0.884166, 1.092068, 0.995156],
     ["0x1.98b3de6950c3ap+0", "-0x1.654256747905ep+0", "-0x1.83303401e3342p-2", "0x1.dee2056910f83p-1"]),
]


@pytest.mark.parametrize("text,x,y,dy,values", BUILTIN_VALUES)
def test_builtin_integrands_match_recorded_values_bit_for_bit(text, x, y, dy, values):
    f, _, _ = eval_integrand_many(parse_integrand(text), np.array(x), np.array(y), np.array(dy))
    assert [float(v).hex() for v in f] == values


# Random grammar trees whose every subexpression stays finite and inside its
# domain for |x|, |y|, |dy| <= 2, written both as integrand text and as numpy code
_LEAVES = st.sampled_from([("x", "x"), ("y", "y"), ("dy", "dy"), ("pi", "np.pi"),
                           ("2.5", "2.5"), ("0.5", "0.5")])


def _extend(children):
    def unary(arg):
        text, code = arg
        return st.sampled_from([
            (f"-({text})", f"-({code})"),
            (f"sin({text})", f"np.sin({code})"),
            (f"cos({text})", f"np.cos({code})"),
            (f"tanh({text})", f"np.tanh({code})"),
            (f"exp(sin({text}))", f"np.exp(np.sin({code}))"),
            (f"sqrt(1 + ({text})^2)", f"np.sqrt(1 + ({code})**2)"),
            (f"log(2 + cos({text}))", f"np.log(2 + np.cos({code}))"),
            (f"tanh({text})^3", f"np.tanh({code})**3"),
        ])

    def binary(pair):
        (a, ca), (b, cb) = pair
        return st.sampled_from([
            (f"({a}) + ({b})", f"({ca}) + ({cb})"),
            (f"({a}) - ({b})", f"({ca}) - ({cb})"),
            (f"tanh({a}) * tanh({b})", f"np.tanh({ca}) * np.tanh({cb})"),
            (f"sin({a}) / (2 + cos({b}))", f"np.sin({ca}) / (2 + np.cos({cb}))"),
            (f"(2 + sin({a}))^cos({b})", f"(2 + np.sin({ca}))**np.cos({cb})"),
        ])

    return children.flatmap(unary) | st.tuples(children, children).flatmap(binary)


_TREES = st.recursive(_LEAVES, _extend, max_leaves=12)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=_TREES, seed=st.integers(0, 2**31 - 1))
def test_compiled_evaluator_against_numpy_and_finite_differences(tree, seed):
    text, code = tree
    expr = parse_integrand(text)
    x, y, dy = np.random.default_rng(seed).uniform(-2.0, 2.0, (3, 50))
    f, f_y, f_dy = eval_integrand_many(expr, x, y, dy)
    expected = np.broadcast_to(eval(code, {"np": np, "x": x, "y": y, "dy": dy}), x.shape)
    assert np.allclose(f, expected, rtol=1e-12, atol=1e-12)
    h = 1e-6
    value = lambda y, dy: eval_integrand_many(expr, x, y, dy)[0]  # noqa: E731
    fd_y = (value(y + h, dy) - value(y - h, dy)) / (2 * h)
    fd_dy = (value(y, dy + h) - value(y, dy - h)) / (2 * h)
    slack = 1e-6 * (1.0 + np.abs(f))
    assert np.all(np.abs(f_y - fd_y) <= 1e-5 * np.abs(fd_y) + slack)
    assert np.all(np.abs(f_dy - fd_dy) <= 1e-5 * np.abs(fd_dy) + slack)
