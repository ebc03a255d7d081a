import math

import numpy as np
import pytest

from varipade import (
    DomainError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
    eval_integrand,
    eval_integrand_many,
    parse_integrand,
)

class TestParsing:
    def test_shortest_path_integrand(self):
        expr = parse_integrand("sqrt(1 + dy^2)")
        assert eval_integrand(expr, 0.0, 0.0, 0.0).value == 1.0

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
        ]:
            expr = parse_integrand(text)
            assert parse_integrand(str(expr)).root == expr.root, text

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse_integrand("frob(x)")
        assert exc.value.offset == 0

    def test_unknown_identifier_offset(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse_integrand("x + zz")
        assert exc.value.offset == 4

    @pytest.mark.parametrize("text", ["sqrt(", "x +", "1 ** 2", ")", "sin 3", ""])
    def test_syntax_errors_carry_offset(self, text):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_integrand(text)
        assert 0 <= exc.value.offset <= len(text)

    def test_pi_is_a_constant(self):
        expr = parse_integrand("pi")
        assert eval_integrand(expr, 0, 0, 0).value == math.pi

    def test_precedence(self):
        assert eval_integrand(parse_integrand("2 + 3 * 4^2"), 0, 0, 0).value == 50.0
        assert eval_integrand(parse_integrand("-2^2"), 0, 0, 0).value == -4.0


class TestEvaluation:
    def test_shortest_path_point(self):
        out = eval_integrand(parse_integrand("sqrt(1+dy^2)"), 0.0, 0.0, 1.0)
        assert out.value == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert out.dF_dy == 0.0
        assert out.dF_ddy == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_drag_point(self):
        out = eval_integrand(parse_integrand("y*dy^3"), 0.5, 1.0, 1.0)
        assert (out.value, out.dF_dy, out.dF_ddy) == (1.0, 1.0, 3.0)

    def test_linear_source_point(self):
        out = eval_integrand(parse_integrand("dy^2 - y^2 - 2*x*y"), 1.0, 0.0, 1.0)
        assert (out.value, out.dF_dy, out.dF_ddy) == (1.0, -2.0, 2.0)

    def test_sqrt_negative_raises(self):
        with pytest.raises(DomainError):
            eval_integrand(parse_integrand("sqrt(y)"), 0.0, -1.0, 0.0)

    def test_division_floor_raises(self):
        with pytest.raises(DomainError):
            eval_integrand(parse_integrand("x / y"), 1.0, 0.0, 0.0)

    def test_real_power_negative_base_raises(self):
        with pytest.raises(DomainError):
            eval_integrand(parse_integrand("y^0.5"), 0.0, -2.0, 0.0)

    def test_integer_power_negative_base_ok(self):
        out = eval_integrand(parse_integrand("y^3"), 0.0, -2.0, 0.0)
        assert out.value == -8.0
        assert out.dF_dy == 12.0

    @pytest.mark.parametrize("text", ["y^(1/0)", "y^(0^(0-1))", "y^(sqrt(0-1))", "y^(exp(1000))"])
    def test_bad_constant_exponent_raises_domain_error(self, text):
        with pytest.raises(DomainError):
            eval_integrand(parse_integrand(text), 0.5, 0.7, -0.3)

    def test_constant_exponent_expression(self):
        out = eval_integrand(parse_integrand("y^(2 * 3 - 4)"), 0.0, 3.0, 0.0)
        assert (out.value, out.dF_dy) == (9.0, 6.0)

    @pytest.mark.parametrize("y", [0.0, -1.5])
    def test_log_of_nonpositive_raises(self, y):
        with pytest.raises(DomainError):
            eval_integrand(parse_integrand("log(y)"), 0.0, y, 0.0)

    def test_determinism(self):
        expr = parse_integrand("sqrt(1 + dy^2) * exp(x) - cos(y)")
        a = eval_integrand(expr, 0.3, -0.7, 1.1)
        b = eval_integrand(expr, 0.3, -0.7, 1.1)
        assert (a.value, a.dF_dy, a.dF_ddy) == (b.value, b.dF_dy, b.dF_ddy)


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
