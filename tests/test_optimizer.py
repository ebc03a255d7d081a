import math

import numpy as np
import pytest

from varipade import (
    AdamState,
    BoundaryCondition,
    Problem,
    TrainConfig,
    adam_step,
    builtin_cases,
    parse_integrand,
    parse_structure,
    sgd_step,
    train,
)


class TestConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.algorithm == "adam"
        assert config.learning_rate == 0.01
        assert config.steps == 20000
        assert config.grid_n == 1000

    @pytest.mark.parametrize("kwargs", [
        {"algorithm": "lbfgs"},
        {"learning_rate": 0.0},
        {"steps": -1},
        {"adam_beta1": 1.0},
        {"grid_n": 0},
        {"record_every": 0},
        {"exponent_bounds": (0.0, 4.0)},
        {"exponent_bounds": (2.0, 4.0)},
        {"grid_mode": "bogus"},
        {"steps": 2.5},
        {"grid_n": 2.5},
        {"record_every": 10.0},
        {"seed": -1},
        {"seed": 0.5},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestSteps:
    def test_sgd_example(self):
        assert sgd_step(np.array([5.0]), np.array([4.0]), 0.5)[0] == 3.0

    def test_zero_gradient_is_fixed_point(self):
        params = np.array([1.0, -2.0, 0.5])
        zero = np.zeros(3)
        assert np.array_equal(sgd_step(params, zero, 0.1), params)
        state, new = adam_step(AdamState.zeros(3), params, zero, TrainConfig())
        assert np.array_equal(new, params)
        assert state.t == 1

    def test_adam_first_step_is_signed_learning_rate(self):
        # after bias correction the first update is lr * sign(grad) (up to eps)
        config = TrainConfig(learning_rate=0.05)
        grad = np.array([3.0, -0.004, 1e-3])
        _, new = adam_step(AdamState.zeros(3), np.zeros(3), grad, config)
        assert np.allclose(new, -0.05 * np.sign(grad), rtol=1e-4)

    def test_quadratic_convergence(self):
        # minimize (w - 1)^2 elementwise with both algorithms
        w = np.full(4, 6.0)
        for _ in range(200):
            w = sgd_step(w, 2 * (w - 1), 0.1)
        assert np.max(np.abs(w - 1)) < 1e-6
        w = np.full(4, 6.0)
        state = AdamState.zeros(4)
        config = TrainConfig(learning_rate=0.05)
        for _ in range(2000):
            state, w = adam_step(state, w, 2 * (w - 1), config)
        assert np.max(np.abs(w - 1)) < 1e-3


def _tiny_config(**kwargs):
    base = dict(steps=200, grid_n=50, record_every=50)
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrain:
    def test_loss_decreases_on_benchmark(self):
        case = builtin_cases()[0]
        report = train(case.problem, parse_structure("Pade-[3/3]"), _tiny_config(steps=500))
        assert report.status == "max_steps"
        first = report.loss_history[0][1]
        assert report.final_loss < first
        assert report.final_loss >= 2.0 * math.sqrt(2.0) - 5e-3

    def test_history_shape(self):
        case = builtin_cases()[4]
        report = train(case.problem, parse_structure("Poly-3"), _tiny_config(steps=200))
        steps = [s for s, _ in report.loss_history]
        assert steps == [0, 50, 100, 150, 200]
        assert all(np.isfinite(l) for _, l in report.loss_history)
        assert report.loss_history[-1][1] == report.final_loss
        assert report.j_final == report.final_loss

    def test_zero_steps(self):
        case = builtin_cases()[4]
        report = train(case.problem, parse_structure("Poly-3"), _tiny_config(steps=0))
        assert report.status == "max_steps"
        assert [s for s, _ in report.loss_history] == [0]
        assert report.final_loss == report.loss_history[0][1]

    def test_deterministic_given_seed(self):
        case = builtin_cases()[2]
        spec = parse_structure("RBF-[3]")
        a = train(case.problem, spec, _tiny_config(seed=5))
        b = train(case.problem, spec, _tiny_config(seed=5))
        c = train(case.problem, spec, _tiny_config(seed=6))
        assert a.final_loss == b.final_loss
        assert np.array_equal(a.final_params, b.final_params)
        assert a.final_loss != c.final_loss

    def test_exponents_stay_in_bounds(self):
        case = builtin_cases()[0]
        report = train(case.problem, parse_structure("Poly-4"),
                       _tiny_config(steps=400, exponent_bounds=(0.5, 4.0)))
        assert 0.5 - 1e-12 <= report.exponents.m_a <= 4.0 + 1e-12
        assert 0.5 - 1e-12 <= report.exponents.m_b <= 4.0 + 1e-12

    def test_frozen_exponents(self):
        case = builtin_cases()[4]
        report = train(case.problem, parse_structure("Poly-3"),
                       _tiny_config(train_exponents=False))
        assert report.exponents.m_a == 1.0
        assert report.exponents.m_b == 1.0

    def test_failure_is_reported_not_raised(self):
        # integrand with a domain violation once y wanders negative
        problem = Problem(parse_integrand("sqrt(y - 100)"),
                          BoundaryCondition(0.0, 1.0, 0.0, 1.0), name="doomed")
        report = train(problem, parse_structure("Poly-2"), _tiny_config())
        assert report.status == "failed"
        assert report.failure_reason
        assert len(report.loss_history) >= 1

    def test_non_finite_constant_exponent_is_reported_not_raised(self):
        problem = Problem(parse_integrand("dy^2 + y^(1/0)"),
                          BoundaryCondition(0.0, 1.0, 0.0, 1.0), name="doomed")
        report = train(problem, parse_structure("Poly-2"), _tiny_config())
        assert report.status == "failed"
        assert "divisor" in report.failure_reason

    def test_random_grid_mode_runs(self):
        case = builtin_cases()[4]
        report = train(case.problem, parse_structure("Poly-3"),
                       _tiny_config(grid_mode="random"))
        assert report.status == "max_steps"
        assert np.isfinite(report.final_loss)

    def test_early_stop(self):
        case = builtin_cases()[4]
        report = train(case.problem, parse_structure("Poly-3"),
                       _tiny_config(steps=5000, record_every=10, early_stop=True,
                                    early_stop_tol=1e-9, early_stop_window=50))
        assert report.status == "converged"
        assert report.loss_history[-1][0] < 5000
