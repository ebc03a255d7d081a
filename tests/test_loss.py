import math

import numpy as np
import pytest

from varipade import (
    BoundaryCondition,
    DomainError,
    Plan,
    Problem,
    SampleGrid,
    builtin_cases,
    compose_final_many,
    eval_integrand_many,
    functional_value,
    init_params,
    loss_and_grad,
    param_count,
    parse_integrand,
    parse_structure,
    sample_grid,
)
from varipade.boundary import BoundaryTables
from test_families import NARROW_RHO, OFF_UNIT


class TestSampleGrid:
    def test_midpoints_unit_interval(self):
        grid = sample_grid(BoundaryCondition(0.0, 1.0, 0.0, 0.0), 2)
        assert np.allclose(grid.points, [0.25, 0.75], atol=1e-15)
        assert grid.weight == 0.5

    def test_midpoints_symmetric_interval(self):
        grid = sample_grid(BoundaryCondition(-1.0, 1.0, 0.0, 0.0), 4)
        assert np.allclose(grid.points, [-0.75, -0.25, 0.25, 0.75], atol=1e-15)
        assert grid.weight == 0.5

    def test_endpoints_never_sampled(self):
        bc = BoundaryCondition(0.0, 1.0, 0.0, 0.0)
        for n in (1, 2, 17, 1000):
            grid = sample_grid(bc, n)
            assert grid.points.min() > 0.0 and grid.points.max() < 1.0

    def test_random_mode_seeded(self):
        bc = BoundaryCondition(0.0, 2.0, 0.0, 0.0)
        a = sample_grid(bc, 50, mode="random", seed=3)
        b = sample_grid(bc, 50, mode="random", seed=3)
        c = sample_grid(bc, 50, mode="random", seed=4)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)
        assert np.all(np.diff(a.points) >= 0)
        assert a.points.min() > 0.0 and a.points.max() < 2.0

    def test_a_sequence_of_seeds_draws_a_block_of_grids(self):
        bc = BoundaryCondition(-1.0, 2.0, 0.0, 0.0)
        block = sample_grid(bc, 40, mode="random", seed=[7, 8, 9])
        assert block.points.shape == (3, 40)
        for row, seed in zip(block.points, [7, 8, 9]):
            single = sample_grid(bc, 40, mode="random", seed=seed)
            assert np.array_equal(row, single.points) and single.weight == block.weight

    def test_rejects_bad_arguments(self):
        bc = BoundaryCondition(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            sample_grid(bc, 0)
        with pytest.raises(ValueError):
            sample_grid(bc, 10, mode="sobol")

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize("mode", ["midpoint", "random"])
    def test_rejects_a_count_that_is_no_integer(self, n, mode):
        # 2.5 midpoints would put the last point on x_b, an endpoint the loss never samples
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_grid(BoundaryCondition(0.0, 1.0, 0.0, 0.0), n, mode)

    def test_a_numpy_integer_count(self):
        grid = sample_grid(BoundaryCondition(0.0, 1.0, 0.0, 0.0), np.int64(2))
        assert np.allclose(grid.points, [0.25, 0.75], atol=1e-15)


class TestFunctionalValue:
    """Midpoint quadrature of each benchmark integrand on its exact solution
    must reproduce the analytic functional value."""

    def test_shortest_path(self):
        case = builtin_cases()[0]
        j = functional_value(case.problem, case.exact_solution, 1000)
        assert j == pytest.approx(2.0 * math.sqrt(2.0), abs=3e-3)

    def test_minimum_drag(self):
        # y = x^0.75 has a singular derivative at 0, so convergence is slow
        case = builtin_cases()[1]
        j = functional_value(case.problem, case.exact_solution, 10000)
        assert j == pytest.approx(27.0 / 64.0, abs=5e-3)

    def test_parabolic(self):
        case = builtin_cases()[2]
        j = functional_value(case.problem, case.exact_solution, 10000)
        assert j == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_cosine_source(self):
        case = builtin_cases()[3]
        j = functional_value(case.problem, case.exact_solution, 10000)
        assert j == pytest.approx(4.0 / math.pi - math.pi / 2.0, abs=1e-3)

    def test_sine_source(self):
        case = builtin_cases()[4]
        j = functional_value(case.problem, case.exact_solution, 10000)
        assert j == pytest.approx(1.0 / math.tan(1.0) - 2.0 / 3.0, abs=1e-4)

    def test_zero_integrand(self):
        problem = Problem(parse_integrand("0 * y"), BoundaryCondition(0.0, 1.0, 0.0, 0.0))
        assert functional_value(problem, lambda x: (x, np.ones_like(x)), 100) == 0.0

    def test_rejects_a_count_that_is_no_integer(self):
        problem = Problem(parse_integrand("dy^2"), BoundaryCondition(0.0, 1.0, 0.0, 1.0))
        line = lambda x: (x, np.ones_like(x))  # noqa: E731
        assert functional_value(problem, line, 2) == 1.0
        with pytest.raises(ValueError, match="n must be an integer"):
            functional_value(problem, line, 2.5)

    def test_quadrature_is_second_order(self):
        # midpoint rule error should shrink ~4x when n doubles on smooth data
        problem = Problem(parse_integrand("dy^2 - y^2 - 2 * x * y"),
                          BoundaryCondition(0.0, 1.0, 0.0, 0.0))
        y = lambda x: (np.sin(math.pi * x), math.pi * np.cos(math.pi * x))
        exact = functional_value(problem, y, 400000)
        e1 = abs(functional_value(problem, y, 50) - exact)
        e2 = abs(functional_value(problem, y, 100) - exact)
        assert e1 / e2 >= 3.5


class TestLossAndGrad:
    def test_loss_is_weighted_sum(self):
        # constant integrand: loss is just the interval length times the constant
        problem = Problem(parse_integrand("3 + 0 * y"), BoundaryCondition(0.0, 2.0, 0.0, 0.0))
        spec = parse_structure("Poly-1")
        grid = sample_grid(problem.bc, 64)
        loss, grad = loss_and_grad(Plan(problem, spec, grid), np.zeros(4))
        assert loss == pytest.approx(6.0, rel=1e-14)
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_point_order_irrelevant(self, rng):
        case = builtin_cases()[4]
        spec = parse_structure("Pade-[3/2]")
        theta = np.concatenate([init_params(spec, 11), [0.0, 0.0]])
        grid = sample_grid(case.problem.bc, 200)
        perm = rng.permutation(200)
        shuffled = SampleGrid(grid.points[perm], grid.weight)
        l1, g1 = loss_and_grad(Plan(case.problem, spec, grid), theta)
        l2, g2 = loss_and_grad(Plan(case.problem, spec, shuffled), theta)
        assert l1 == pytest.approx(l2, rel=1e-12)
        assert np.allclose(g1, g2, rtol=1e-11, atol=1e-14)

    @pytest.mark.parametrize("case_index,structure", [
        (0, "Pade-[3/2]"),
        (1, "Poly-3"),
        (2, "RBF-[3]"),
        (3, "MLP-[[3,sigmoid]]"),
        (4, "Leg-4"),
    ])
    def test_gradient_matches_finite_differences(self, case_index, structure, rng):
        case = builtin_cases()[case_index]
        spec = parse_structure(structure)
        pf = param_count(spec)
        plan = Plan(case.problem, spec, sample_grid(case.problem.bc, 32))
        h = 1e-6
        for _ in range(20):
            theta = np.concatenate([
                init_params(spec, int(rng.integers(1 << 30)),
                            domain=(case.problem.bc.x_a, case.problem.bc.x_b)),
                rng.uniform(-0.2, 0.5, 2),
            ])
            _, grad = loss_and_grad(plan, theta)
            for k in range(pf + 2):
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                lp, _ = loss_and_grad(plan, tp)
                lm, _ = loss_and_grad(plan, tm)
                fd = (lp - lm) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)


# every family on the builtin case it is paired with in the paper's matrix, and
# RBF on (1000, 1001.5) with one kernel narrowed, which needs x centred
ORACLE_PAIRS = [(0, "Pade-[5/5]"), (1, "RBF-[8]"), (2, "MLP-[[4,sigmoid]]"), (3, "Leg-15"),
                (4, "Poly-4"), (4, "MLP-[[3,tanh],[3,tanh]]"), (3, "Pade-[4/5]"), (2, "RBF-[16]"),
                ("off-unit", "RBF-[4]")]
OFF_UNIT_PROBLEM = Problem(parse_integrand("dy^2 + (x - 1000) * y^2"), OFF_UNIT)


class TestReverseModeAgainstForwardJet:
    """loss_and_grad against the contraction of compose_final_many's dense rows."""

    @pytest.mark.parametrize("mode", ["midpoint", "random"])
    @pytest.mark.parametrize("case_index,structure", ORACLE_PAIRS)
    def test_loss_bitwise_and_gradient_to_rounding(self, case_index, structure, mode, rng):
        off_unit = case_index == "off-unit"
        problem = OFF_UNIT_PROBLEM if off_unit else builtin_cases()[case_index].problem
        bc = problem.bc
        spec = parse_structure(structure)
        pf = param_count(spec)
        grid = sample_grid(bc, 300, mode, seed=int(rng.integers(1 << 30)))
        for _ in range(5):
            theta = init_params(spec, int(rng.integers(1 << 30)), domain=(bc.x_a, bc.x_b))
            theta = theta + rng.normal(0, 0.05, pf)
            if off_unit:
                theta[2 * spec.centers] = NARROW_RHO
            rho_a, rho_b = rng.uniform(-0.4, 0.8, 2)
            y, dy, gy, gdy = compose_final_many(spec, theta, rho_a, rho_b, bc, grid.points)
            f, f_y, f_dy = eval_integrand_many(problem.integrand, grid.points, y, dy)
            expected_loss = grid.weight * float(np.sum(f))
            expected_grad = grid.weight * (gy @ f_y + gdy @ f_dy)
            plan = Plan(problem, spec, grid)
            loss, grad = loss_and_grad(plan, np.concatenate([theta, [rho_a, rho_b]]))
            assert loss == expected_loss
            assert np.max(np.abs(grad - expected_grad)) <= 1e-12 * np.max(np.abs(expected_grad))

    def test_a_reused_plan_gives_the_same_bits(self):
        case = builtin_cases()[3]
        spec = parse_structure("Leg-15")
        theta = np.concatenate([init_params(spec, 3), [0.1, -0.2]])
        plan = Plan(case.problem, spec, sample_grid(case.problem.bc, 200))
        l1, g1 = loss_and_grad(plan, theta)
        l2, g2 = loss_and_grad(plan, theta)  # a plan is reused across steps
        assert l1 == l2 and np.array_equal(g1, g2)

    @pytest.mark.parametrize("extra", [1, 3])
    def test_theta_of_another_length_is_rejected(self, extra):
        # theta is the family's P parameters, then rho_a and rho_b: P + 2 entries
        case = builtin_cases()[3]
        spec = parse_structure("Leg-15")
        plan = Plan(case.problem, spec, sample_grid(case.problem.bc, 50))
        with pytest.raises(ValueError, match="needs 18 entries"):
            loss_and_grad(plan, np.zeros(param_count(spec) + extra))


def _leaves(tables):
    return [a for t in tables for a in _leaves(t)] if isinstance(tables, tuple) else [tables]


class TestPlanBlocks:
    """A plan over a block of grids: row k is the plan of grid k alone, bit for bit."""

    # x-only subtrees (cos, sin, x*x) are computed once per block when it is bound
    PROBLEM = Problem(parse_integrand("(cos(2 * x) + 2 * sin(x)^2) * dy^2 + x * x * y + sqrt(x) * y^2"),
                      BoundaryCondition(0.0, 1.5, 0.3, -0.2))

    @pytest.mark.parametrize("structure", ["Pade-[2/3]", "RBF-[4]", "MLP-[[3,tanh],[2,sigmoid]]",
                                           "Leg-6", "Poly-5"])
    def test_row_matches_a_plan_of_its_grid(self, structure, rng):
        spec = parse_structure(structure)
        bc = self.PROBLEM.bc
        for n in (1, 7, 64, 201):
            block = sample_grid(bc, n, mode="random", seed=[int(s) for s in rng.integers(1 << 30, size=5)])
            plan = Plan(self.PROBLEM, spec, block)
            assert len(plan.rows) == 5
            theta = init_params(spec, int(rng.integers(1 << 30)), domain=(bc.x_a, bc.x_b))
            theta = np.concatenate([theta, rng.uniform(-0.4, 0.8, 2)])
            for k in range(5):
                single = Plan(self.PROBLEM, spec, SampleGrid(block.points[k], block.weight))
                loss, grad = loss_and_grad(plan, theta, k)
                expected_loss, expected_grad = loss_and_grad(single, theta)
                assert loss == expected_loss
                assert np.array_equal(grad, expected_grad)

    def test_row_tables_are_contiguous(self):
        block = sample_grid(self.PROBLEM.bc, 30, mode="random", seed=[1, 2, 3])
        for structure in ("Pade-[2/3]", "Leg-6", "Poly-5", "RBF-[4]"):
            for row in Plan(self.PROBLEM, parse_structure(structure), block).rows:
                tables = [row.points] + [getattr(row.boundary, name) for name in BoundaryTables._ROW_TABLES]
                tables += _leaves(row.family)
                assert all(t.flags.c_contiguous for t in tables)

    def test_a_bad_point_is_reported_for_the_block(self):
        block = SampleGrid(np.array([[0.5, 1.0], [0.2, 1.6]]), 0.75)
        with pytest.raises(DomainError, match="x = 1.6 outside"):
            Plan(self.PROBLEM, parse_structure("Leg-3"), block)
