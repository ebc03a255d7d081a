import math
import warnings

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
from varipade.optimize import _BLOCK_POINTS


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
        {"adam_eps": float("inf")},
        {"adam_eps": float("nan")},
        {"early_stop_tol": float("nan")},
        {"exponent_bounds": (0.5, float("inf"))},
        {"early_stop_window": 2.5},
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

    def test_overflow_in_the_preconditioner_is_reported_not_raised(self):
        # x^15 overflows on this interval while the initial step scale is computed
        problem = Problem(parse_integrand("dy^2"), BoundaryCondition(0.0, 1e30, 0.0, 1.0))
        with np.errstate(all="ignore"):
            report = train(problem, parse_structure("Poly-15"), _tiny_config(precondition=True))
        assert report.status == "failed"
        assert "non-finite" in report.failure_reason

    @pytest.mark.parametrize("precondition,reason", [
        (True, "non-finite value while evaluating Poly-15"),
        (False, "non-finite value in composed model for Poly-15"),
    ])
    def test_overflowing_basis_fails_without_a_numpy_warning(self, precondition, reason):
        # x^15 overflows on this interval in the power table and in the basis values
        problem = Problem(parse_integrand("dy^2"), BoundaryCondition(0.0, 1e30, 0.0, 1.0))
        config = TrainConfig(steps=5, precondition=precondition)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = train(problem, parse_structure("Poly-15"), config)
        assert report.status == "failed"
        assert report.failure_reason == reason
        assert report.steps_done == 0 and report.failure_step == 0

    def test_steps_done(self):
        case = builtin_cases()[4]
        report = train(case.problem, parse_structure("Poly-3"), _tiny_config(steps=30))
        assert report.steps_done == 30
        assert report.failure_step is None

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


# Random-grid training of y(0) = 0, y(1) = 1 under F = dy^2 + x*y, written with
# an x-only factor (it is 1) that the bound integrand computes once per grid
BLOCK_PROBLEM = Problem(parse_integrand("(cos(2 * x) + 2 * sin(x)^2) * dy^2 + x * y"),
                        BoundaryCondition(0.0, 1.0, 0.0, 1.0))

# loss_history and final_params of each structure after 50 random-grid steps
# (seed 5, grid_n 200, record_every 10), recorded when every step's grid was
# drawn and bound on its own
RANDOM_GRID_TRAINING = {
    "Pade-[2/2]": (
        [(0, 1.3485891280106277), (10, 1.2955999006622347), (20, 1.327595732476313),
         (30, 1.346931526095401), (40, 1.3847894469321107), (50, 1.3281142208938592)],
        [-0.041192146825018185, -0.09145897354887873, -0.05864352931390288, 0.0640730566606776,
         0.03313936207686403, 1.0569578094502305, -0.03753356099642458, 0.03754164891296269],
    ),
    "RBF-[3]": (
        [(0, 1.3574032996196272), (10, 1.306312168886617), (20, 1.3370960043900193),
         (30, 1.3412926791228756), (40, 1.380347101908661), (50, 1.327940887062763)],
        [-0.015145136372418207, -0.10571172702471045, -0.05025838048577721, 0.13859437042485068,
         0.6719180528657448, 1.033068742378057, -0.9917703554046805, -0.9055701614263221,
         -1.2545631290828023, 0.03724293802724671, 0.08099408678998256, -0.09524522521707826],
    ),
    "MLP-[[3,tanh]]": (
        [(0, 1.3474023357614044), (10, 1.2975939607704887), (20, 1.3311807191907437),
         (30, 1.3430544282809516), (40, 1.386654128699729), (50, 1.3277372266830987)],
        [-0.13508539612409762, -0.13066368386739882, 0.02196654029456317, 0.04706383607739699,
         0.11663144368820487, 0.042188335773560195, -0.11897879239086502, -0.09840718903062895,
         0.04902928102753711, -0.11435953331576311],
    ),
    "Leg-4": (
        [(0, 1.3578913514798496), (10, 1.3031483754227697), (20, 1.3280081107818729),
         (30, 1.3477337590944671), (40, 1.3892687146762948), (50, 1.327885713345238)],
        [-0.16382361720144634, 0.024706128425596656, 0.03171057555032692, -0.06119589437883775,
         -0.05259073814383341, 0.10471580800489265, 0.03138151236306967],
    ),
    "Poly-3": (
        [(0, 1.3480075032531553), (10, 1.2946969533593649), (20, 1.3252798261044252),
         (30, 1.3485473466583517), (40, 1.3858960622540661), (50, 1.3280697488515645)],
        [-0.046261812991606345, -0.07533214981968393, 0.00791230977797135, -0.060182307448442954,
         0.004345264726809394, 0.06601083874268346],
    ),
}


@pytest.mark.parametrize("structure", list(RANDOM_GRID_TRAINING))
def test_random_grid_training_keeps_its_stream(structure):
    config = TrainConfig(steps=50, grid_n=200, grid_mode="random", seed=5, record_every=10)
    assert config.steps % (_BLOCK_POINTS // config.grid_n) != 0  # the last block is partial
    history, params = RANDOM_GRID_TRAINING[structure]
    report = train(BLOCK_PROBLEM, parse_structure(structure), config)
    assert report.status == "max_steps" and report.steps_done == 50
    assert report.loss_history == history
    assert report.final_params.tolist() == params


def test_a_failing_grid_fails_at_its_own_step():
    # with one point per grid, seed 2 first draws a point below 0.1 at step 18;
    # all 60 grids fall in one block
    problem = Problem(parse_integrand("sqrt(x - 0.1) * dy^2"), BoundaryCondition(0.0, 1.0, 0.0, 1.0))
    config = TrainConfig(steps=60, grid_n=1, grid_mode="random", seed=2, record_every=5)
    assert _BLOCK_POINTS // config.grid_n >= config.steps
    report = train(problem, parse_structure("Leg-3"), config)
    assert report.status == "failed"
    assert report.failure_reason == "sqrt of negative value near x = 0.0016093294323541452"
    assert report.failure_step == 18 and report.steps_done == 18
    assert report.loss_history == [(0, 0.5653958062591761), (5, 0.34453154993686813),
                                   (10, 1.6010920710050047), (15, 2.470932418451748)]
    assert report.final_params.tolist() == [
        -0.023639863833392772, -0.12266646650950656, -0.07050304015297484,
        -0.22370004874831056, 0.11821368257029864, -0.08109316625924996,
    ]
