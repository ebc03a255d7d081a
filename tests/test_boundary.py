import numpy as np
import pytest

from varipade import (
    BoundaryCondition,
    DomainError,
    boundary_factor_many,
    compose_final_many,
    init_params,
    linear_interpolant,
    param_count,
    parse_structure,
    sample_grid,
)
from varipade.boundary import BoundaryTables
from test_families import ALL_FAMILIES


class TestBoundaryCondition:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            BoundaryCondition(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            BoundaryCondition(2.0, -1.0, 0.0, 0.0)

    @pytest.mark.parametrize("values", [
        (0.0, np.inf, 0.0, 0.0),
        (-np.inf, 1.0, 0.0, 0.0),
        (0.0, 1.0, np.nan, 0.0),
        (0.0, 1.0, 0.0, -np.inf),
        (None, 1, 0, 0),
        ("0", 1, 0, 0),
        (False, True, 0, 0),
    ])
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(ValueError):
            BoundaryCondition(*values)

    @pytest.mark.parametrize("field,values", [
        ("x_a", (None, 1.0, 0.0, 0.0)),
        ("x_b", (0.0, "1", 0.0, 0.0)),
        ("y_a", (0.0, 1.0, True, 0.0)),
        ("y_b", (0.0, 1.0, 0.0, np.nan)),
    ])
    def test_error_names_the_field(self, field, values):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            BoundaryCondition(*values)


class TestBoundaryFactor:
    def test_value_example(self):
        # (x - 0)^0.75 * (1 - x)^1 at x = 0.5 is 0.5^1.75
        bc = BoundaryCondition(0.0, 1.0, 0.0, 0.0)
        fac, dfac, _, _ = boundary_factor_many(bc, np.log(0.75), 0.0, np.array([0.5]))
        assert fac[0] == pytest.approx(0.5 ** 1.75, rel=1e-14)
        # d/dx = 0.75 x^-0.25 (1-x) - x^0.75
        expected_dy = 0.75 * 0.5 ** -0.25 * 0.5 - 0.5 ** 0.75
        assert dfac[0] == pytest.approx(expected_dy, rel=1e-13)

    def test_unit_exponents_give_parabola(self):
        bc = BoundaryCondition(-1.0, 1.0, 0.0, 0.0)
        xs = np.linspace(-0.9, 0.9, 7)
        fac, dfac, _, _ = boundary_factor_many(bc, 0.0, 0.0, xs)
        assert np.allclose(fac, (xs + 1) * (1 - xs), atol=1e-14)
        assert np.allclose(dfac, -2 * xs, atol=1e-13)

    def test_symmetric_about_midpoint(self):
        bc = BoundaryCondition(0.0, 2.0, 0.0, 0.0)
        rho = np.log(1.3)
        left, _, _, _ = boundary_factor_many(bc, rho, rho, np.array([0.4]))
        right, _, _, _ = boundary_factor_many(bc, rho, rho, np.array([1.6]))
        assert left[0] == pytest.approx(right[0], rel=1e-14)

    def test_vanishes_at_endpoints(self):
        bc = BoundaryCondition(0.0, 1.0, 0.0, 0.0)
        for rho in (0.0, 0.4, 1.0):
            fac, _, _, _ = boundary_factor_many(bc, rho, rho, np.array([1e-12, 1.0 - 1e-12]))
            assert np.all(np.abs(fac) <= 1e-10)

    def test_rejects_points_outside_open_interval(self):
        bc = BoundaryCondition(0.0, 1.0, 0.0, 0.0)
        for bad in (0.0, 1.0, -0.5, 2.0):
            later = 0.0 if bad else 2.0  # the error names the first point outside
            with pytest.raises(DomainError, match=rf"^x = {bad} outside the open interval") as exc:
                boundary_factor_many(bc, 0.0, 0.0, np.array([0.5, bad, later]))
            assert exc.value.x == bad

    def test_exponent_gradients_match_finite_differences(self, rng):
        bc = BoundaryCondition(-0.5, 2.0, 0.0, 0.0)
        h = 1e-6
        for _ in range(100):
            rho_a, rho_b = rng.uniform(-0.5, 1.2, 2)
            xs = np.array([float(rng.uniform(-0.45, 1.95))])
            _, _, gy, gdy = boundary_factor_many(bc, rho_a, rho_b, xs)
            for k, (da, db) in enumerate(((h, 0.0), (0.0, h))):
                yp, dyp, _, _ = boundary_factor_many(bc, rho_a + da, rho_b + db, xs)
                ym, dym, _, _ = boundary_factor_many(bc, rho_a - da, rho_b - db, xs)
                fd_y = (yp[0] - ym[0]) / (2 * h)
                fd_dy = (dyp[0] - dym[0]) / (2 * h)
                assert gy[k, 0] == pytest.approx(fd_y, rel=1e-5, abs=1e-7)
                assert gdy[k, 0] == pytest.approx(fd_dy, rel=1e-5, abs=1e-6)

    @pytest.mark.parametrize("x_a,x_b", [(0.0, 1.0), (1000.0, 1001.5), (0.0, 1e30)])
    def test_factor_from_logs_matches_the_powers(self, x_a, x_b):
        # the factor is exp(m_a log u + m_b log v); check it against u^m_a v^m_b
        bc = BoundaryCondition(x_a, x_b, 0.0, 0.0)
        xs = sample_grid(bc, 1000).points
        u, v = xs - x_a, x_b - xs
        tables = BoundaryTables(bc, xs)
        for m_a in (0.5, 1.0, 4.0):
            for m_b in (0.5, 1.0, 4.0):
                rho_a, rho_b = np.log(m_a), np.log(m_b)
                fac, dfac, _ = tables.compose(np.ones_like(xs), np.zeros_like(xs), rho_a, rho_b)
                ma, mb = np.exp(rho_a), np.exp(rho_b)  # the exponents compose reads
                expected = u ** ma * v ** mb
                expected_dx = ma * u ** (ma - 1.0) * v ** mb - mb * u ** ma * v ** (mb - 1.0)
                assert np.max(np.abs(fac - expected) / np.abs(expected)) <= 1e-12
                assert np.max(np.abs(dfac - expected_dx) / np.abs(expected_dx)) <= 1e-12


class TestLinearInterpolant:
    def test_examples(self):
        value, slope = linear_interpolant(BoundaryCondition(0.0, 1.0, 2.0, 4.0), np.array([0.5]))
        assert (value[0], slope) == (3.0, 2.0)
        value, slope = linear_interpolant(BoundaryCondition(-1.0, 3.0, 1.0, 1.0), np.array([2.0]))
        assert (value[0], slope) == (1.0, 0.0)

    def test_vectorized_hits_endpoint_values(self):
        bc = BoundaryCondition(0.5, 2.5, -1.0, 7.0)
        values, slope = linear_interpolant(bc, np.array([0.5, 2.5]))
        assert np.allclose(values, [-1.0, 7.0], atol=1e-14)
        assert slope == 4.0


class TestComposition:
    def test_constant_family_example(self):
        # family == 1 with unit exponents gives x*(1 - x) on top of the line
        spec = parse_structure("Poly-1")
        bc = BoundaryCondition(0.0, 1.0, 0.0, 0.0)
        theta = np.array([0.0, 1.0])
        y, dy, _, _ = compose_final_many(spec, theta, 0.0, 0.0, bc, np.array([0.5]))
        assert y[0] == pytest.approx(0.25, abs=1e-15)
        assert dy[0] == pytest.approx(0.0, abs=1e-15)
        y, dy, _, _ = compose_final_many(spec, theta, 0.0, 0.0, bc, np.array([0.25]))
        assert y[0] == pytest.approx(0.1875, abs=1e-15)
        assert dy[0] == pytest.approx(0.5, abs=1e-14)

    def test_interpolant_recovered_with_zero_family(self):
        spec = parse_structure("Leg-3")
        bc = BoundaryCondition(0.0, 1.0, 1.0, 3.0)
        theta = np.zeros(param_count(spec))
        xs = np.linspace(0.1, 0.9, 9)
        y, dy, _, _ = compose_final_many(spec, theta, 0.2, -0.1, bc, xs)
        assert np.allclose(y, 1.0 + 2.0 * xs, atol=1e-14)
        assert np.allclose(dy, 2.0, atol=1e-14)

    @pytest.mark.parametrize("structure", ["Pade-[3/2]", "RBF-[3]", "MLP-[[3,sigmoid]]", "Leg-4"])
    def test_endpoint_values_enforced(self, structure, rng):
        spec = parse_structure(structure)
        bc = BoundaryCondition(-1.0, 2.0, 0.7, -1.4)
        eps = 1e-12 * (bc.x_b - bc.x_a)
        for _ in range(50):
            theta = init_params(spec, int(rng.integers(1 << 30)), domain=(bc.x_a, bc.x_b))
            theta = theta + rng.normal(0, 0.5, theta.shape)
            rho_a, rho_b = rng.uniform(0.0, 1.0, 2)
            y, _, _, _ = compose_final_many(
                spec, theta, rho_a, rho_b, bc, np.array([bc.x_a + eps, bc.x_b - eps])
            )
            assert abs(y[0] - bc.y_a) <= 1e-9
            assert abs(y[1] - bc.y_b) <= 1e-9

    # on (-0.5, 2.0) Pade, Leg and Poly read x / 2, and their slopes carry the factor 1/2
    @pytest.mark.parametrize("bc", [BoundaryCondition(0.0, 1.0, 0.0, 2.0),
                                    BoundaryCondition(-0.5, 2.0, 0.0, 2.0)], ids=["unit", "scale-2"])
    @pytest.mark.parametrize("structure", ["Pade-[2/2]"] + ALL_FAMILIES)
    def test_full_gradient_matches_finite_differences(self, structure, bc, rng):
        spec = parse_structure(structure)
        pf = param_count(spec)
        h = 1e-6
        for _ in range(50):
            theta = np.concatenate(
                [init_params(spec, int(rng.integers(1 << 30))), rng.uniform(-0.3, 0.8, 2)]
            )
            length = bc.x_b - bc.x_a
            xs = np.array([float(rng.uniform(bc.x_a + 0.05 * length, bc.x_b - 0.05 * length))])
            _, dy, gy, gdy = compose_final_many(spec, theta[:pf], theta[pf], theta[pf + 1], bc, xs)
            # dy/dx too: a parameter difference cannot see a slope table of the wrong scale
            y_right = compose_final_many(spec, theta[:pf], theta[pf], theta[pf + 1], bc, xs + h)[0]
            y_left = compose_final_many(spec, theta[:pf], theta[pf], theta[pf + 1], bc, xs - h)[0]
            assert dy[0] == pytest.approx((y_right[0] - y_left[0]) / (2 * h), rel=1e-5, abs=1e-6)
            for k in range(pf + 2):
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                yp, dyp, _, _ = compose_final_many(spec, tp[:pf], tp[pf], tp[pf + 1], bc, xs)
                ym, dym, _, _ = compose_final_many(spec, tm[:pf], tm[pf], tm[pf + 1], bc, xs)
                fd_y = (yp[0] - ym[0]) / (2 * h)
                fd_dy = (dyp[0] - dym[0]) / (2 * h)
                assert gy[k, 0] == pytest.approx(fd_y, rel=1e-5, abs=1e-7)
                assert gdy[k, 0] == pytest.approx(fd_dy, rel=1e-5, abs=1e-6)
