import math
import warnings

import numpy as np
import pytest

from varipade import (
    AdamState,
    BoundaryCondition,
    EvaluationOverflowError,
    Problem,
    TrainConfig,
    TrainReport,
    adam_step,
    builtin_cases,
    case_by_name,
    compose_final_many,
    family_jet_many,
    functional_value,
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

    def test_fields(self):
        # every field is one a CLI flag or the benchmark sets
        assert tuple(TrainConfig.__dataclass_fields__) == (
            "algorithm", "learning_rate", "steps", "grid_n", "grid_mode", "seed",
            "record_every", "train_exponents", "precondition",
        )

    @pytest.mark.parametrize("kwargs", [
        {"algorithm": "lbfgs"},
        {"learning_rate": 0.0},
        {"steps": -1},
        {"grid_n": 0},
        {"record_every": 0},
        {"grid_mode": "bogus"},
        {"steps": 2.5},
        {"grid_n": 2.5},
        {"record_every": 10.0},
        {"seed": -1},
        {"seed": 0.5},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"precondition": "false"},
        {"precondition": 1},
        {"train_exponents": 0},
        {"train_exponents": None},
        {"learning_rate": True},
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
        state, new = adam_step(AdamState.zeros(3), params, zero, 0.01)
        assert np.array_equal(new, params)
        assert state.t == 1

    def test_adam_first_step_is_signed_learning_rate(self):
        # after bias correction the first update is lr * sign(grad) (up to eps)
        grad = np.array([3.0, -0.004, 1e-3])
        _, new = adam_step(AdamState.zeros(3), np.zeros(3), grad, 0.05)
        assert np.allclose(new, -0.05 * np.sign(grad), rtol=1e-4)

    def test_adam_two_steps_match_reference(self):
        # the fixed recipe: beta1 = 0.9, beta2 = 0.999, eps = 1e-8
        g1, g2, lr = 2.0, -0.5, 0.01
        m1, v1 = 0.1 * g1, 0.001 * g1 * g1
        w1 = -lr * (m1 / 0.1) / (math.sqrt(v1 / 0.001) + 1e-8)
        m2, v2 = 0.9 * m1 + 0.1 * g2, 0.999 * v1 + 0.001 * g2 * g2
        w2 = w1 - lr * (m2 / (1 - 0.9 ** 2)) / (math.sqrt(v2 / (1 - 0.999 ** 2)) + 1e-8)
        state, w = adam_step(AdamState.zeros(1), np.zeros(1), np.array([g1]), lr)
        assert math.isclose(w[0], w1, rel_tol=1e-12)
        state, w = adam_step(state, w, np.array([g2]), lr)
        assert state.t == 2
        assert math.isclose(w[0], w2, rel_tol=1e-12)

    def test_adam_updates_its_state_in_place(self):
        state = AdamState.zeros(2)
        m, v = state.m, state.v
        params, grad = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        same, new = adam_step(state, params, grad, 0.1)
        assert same is state and state.m is m and state.v is v and state.t == 1
        assert np.array_equal(m, (1.0 - 0.9) * grad) and np.array_equal(v, (1.0 - 0.999) * grad * grad)
        assert np.array_equal(params, [1.0, 2.0]) and new is not params

    def test_quadratic_convergence(self):
        # minimize (w - 1)^2 elementwise with both algorithms
        w = np.full(4, 6.0)
        for _ in range(200):
            w = sgd_step(w, 2 * (w - 1), 0.1)
        assert np.max(np.abs(w - 1)) < 1e-6
        w = np.full(4, 6.0)
        state = AdamState.zeros(4)
        for _ in range(2000):
            state, w = adam_step(state, w, 2 * (w - 1), 0.05)
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
        assert report.j_final < first
        assert report.j_final >= 2.0 * math.sqrt(2.0) - 5e-3

    def test_history_shape(self):
        case = builtin_cases()[4]
        report = train(case.problem, parse_structure("Poly-3"), _tiny_config(steps=200))
        steps = [s for s, _ in report.loss_history]
        assert steps == [0, 50, 100, 150, 200]
        assert all(np.isfinite(l) for _, l in report.loss_history)
        assert report.loss_history[-1][1] == report.j_final

    def test_zero_steps(self):
        case = builtin_cases()[4]
        report = train(case.problem, parse_structure("Poly-3"), _tiny_config(steps=0))
        assert report.status == "max_steps"
        assert [s for s, _ in report.loss_history] == [0]
        assert report.j_final == report.loss_history[0][1]

    def test_deterministic_given_seed(self):
        case = builtin_cases()[2]
        spec = parse_structure("RBF-[3]")
        a = train(case.problem, spec, _tiny_config(seed=5))
        b = train(case.problem, spec, _tiny_config(seed=5))
        c = train(case.problem, spec, _tiny_config(seed=6))
        assert a.j_final == b.j_final
        assert np.array_equal(a.final_params, b.final_params)
        assert a.j_final != c.j_final

    def test_exponents_stay_in_bounds(self):
        case = builtin_cases()[0]
        report = train(case.problem, parse_structure("Poly-4"),
                       _tiny_config(steps=400))
        for m in report.exponents:
            assert 0.5 - 1e-12 <= m <= 4.0 + 1e-12

    def test_frozen_exponents(self):
        case = builtin_cases()[4]
        report = train(case.problem, parse_structure("Poly-3"),
                       _tiny_config(train_exponents=False))
        assert report.exponents == (1.0, 1.0)

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
        # the boundary factor overflows on this interval while the initial step scale is computed
        problem = Problem(parse_integrand("dy^2"), BoundaryCondition(0.0, 1e200, 0.0, 1.0))
        with np.errstate(all="ignore"):
            report = train(problem, parse_structure("Poly-15"), _tiny_config(precondition=True))
        assert report.status == "failed"
        assert "non-finite" in report.failure_reason

    @pytest.mark.parametrize("precondition,reason", [
        (True, "non-finite value in composed model for Poly-15"),
        (False, "non-finite value in composed model for Poly-15"),
    ])
    def test_overflowing_basis_fails_without_a_numpy_warning(self, precondition, reason):
        # the basis reads x / x_b, so only the boundary factor can overflow on this interval
        problem = Problem(parse_integrand("dy^2"), BoundaryCondition(0.0, 1e200, 0.0, 1.0))
        config = TrainConfig(steps=5, precondition=precondition)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = train(problem, parse_structure("Poly-15"), config)
        assert report.status == "failed"
        assert report.failure_reason == reason
        assert report.steps_done == 0 and report.failure_step == 0

    def test_overflowing_power_table_fails_without_a_numpy_warning(self):
        # x^15 overflows in the power table of a raw x
        spec = parse_structure("Poly-15")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EvaluationOverflowError, match="non-finite value while evaluating Poly-15"):
                family_jet_many(spec, np.full(16, 0.1), np.array([1e30]))

    def test_overflowing_adam_moment_fails_without_a_numpy_warning(self):
        # the first gradient exceeds 1e154 on this interval, so Adam's grad * grad overflows
        problem = Problem(parse_integrand("dy^2"), BoundaryCondition(0.0, 1e60, 0.0, 1.0))
        config = TrainConfig(steps=20, precondition=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = train(problem, parse_structure("Poly-15"), config)
        assert report.status == "failed"
        assert report.failure_reason == "non-finite Adam second moment at step 0 for Poly-15"
        assert report.steps_done == 0 and report.failure_step == 0

    @pytest.mark.parametrize("structure", ["RBF-[4]", "MLP-[[4,tanh]]"])
    def test_overflowing_sensitivity_fails_without_a_numpy_warning(self, structure):
        # the model's gradient rows are finite on this interval but their squares overflow
        problem = Problem(parse_integrand("dy^2"), BoundaryCondition(0.0, 1e100, 0.0, 1.0))
        config = TrainConfig(steps=20, precondition=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = train(problem, parse_structure(structure), config)
        assert report.status == "failed"
        assert report.failure_reason == f"non-finite output sensitivity at step 0 for {structure}"
        assert report.steps_done == 0 and report.failure_step == 0

    def test_exponents_are_exp_of_rho(self):
        report = TrainReport([], np.array([0.3, np.log(2.0), np.log(0.75)]))
        m_a, m_b = report.exponents
        assert m_a == pytest.approx(2.0, rel=1e-15)
        assert m_b == pytest.approx(0.75, rel=1e-15)
        assert TrainReport([], np.zeros(3)).exponents == (1.0, 1.0)

    def test_preconditioner_keeps_the_pade_denominator_constant(self):
        # the sensitivity of b2 is about 5e57 here; shrinking its initial 1 by
        # that put a pole on the grid at step 0
        problem = Problem(parse_integrand("dy^2"), BoundaryCondition(0.0, 1e30, 0.0, 1.0))
        config = TrainConfig(steps=50, grid_n=100, precondition=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = train(problem, parse_structure("Pade-[3/3]"), config)
        assert report.status == "max_steps" and report.steps_done == 50
        assert report.final_params[7] == 1.0  # b2 moved by less than an ulp
        assert report.j_final == pytest.approx(1e-30, rel=1e-3)  # J = 1 / (x_b - x_a)

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
        assert np.isfinite(report.j_final)


# Training of y(0) = 0, y(1) = 1 under F = dy^2 + x*y, written with
# an x-only factor (it is 1) that the bound integrand computes once per grid
BLOCK_PROBLEM = Problem(parse_integrand("(cos(2 * x) + 2 * sin(x)^2) * dy^2 + x * y"),
                        BoundaryCondition(0.0, 1.0, 0.0, 1.0))

# loss_history and final_params of each structure after 50 steps (seed 5,
# grid_n 200, record_every 10). Recorded when the boundary factor came to be
# computed from its log tables and Pade, Leg and Poly from one [p | dp] table,
# which moved the earlier values by rounding only (at most 2e-12 relative)
GRID_TRAINING = {
    ("Pade-[2/2]", "random"): (
        [(0, 1.3485891280106277), (10, 1.2955999006622347), (20, 1.327595732476313),
         (30, 1.346931526095401), (40, 1.3847894469321107), (50, 1.3281142208938592)],
        [-0.041192146825018164, -0.09145897354887883, -0.05864352931390299, 0.06407305666067738,
         0.03313936207686413, 1.0569578094502308, -0.03753356099642438, 0.037541648912963015],
    ),
    ("RBF-[3]", "random"): (
        [(0, 1.3574032996196272), (10, 1.306312168886617), (20, 1.3370960043900193),
         (30, 1.3412926791228756), (40, 1.3803471019086606), (50, 1.327940887062763)],
        [-0.015145136372418303, -0.10571172702471042, -0.0502583804857772, 0.13859437042485068,
         0.6719180528657447, 1.033068742378057, -0.9917703554046805, -0.9055701614263215,
         -1.254563129082802, 0.037242938027246805, 0.08099408678998253, -0.09524522521707827],
    ),
    ("MLP-[[3,tanh]]", "random"): (
        [(0, 1.3474023357614044), (10, 1.2975939607704887), (20, 1.3311807191907437),
         (30, 1.3430544282809513), (40, 1.3866541286997287), (50, 1.3277372266830987)],
        [-0.1350853961240978, -0.13066368386739885, 0.021966540294563366, 0.04706383607739708,
         0.11663144368820443, 0.04218833577356023, -0.11897879239086515, -0.0984071890306289,
         0.04902928102753696, -0.11435953331576325],
    ),
    ("Leg-4", "random"): (
        [(0, 1.3578913514798496), (10, 1.3031483754227697), (20, 1.3280081107818729),
         (30, 1.3477337590944671), (40, 1.3892687146762948), (50, 1.327885713345238)],
        [-0.16382361720144645, 0.0247061284255967, 0.031710575550326914, -0.06119589437883779,
         -0.052590738143833346, 0.1047158080048926, 0.0313815123630697],
    ),
    ("Poly-3", "random"): (
        [(0, 1.3480075032531553), (10, 1.2946969533593649), (20, 1.3252798261044252),
         (30, 1.3485473466583517), (40, 1.3858960622540661), (50, 1.3280697488515645)],
        [-0.046261812991606546, -0.07533214981968393, 0.007912309777971461, -0.060182307448442975,
         0.004345264726809771, 0.06601083874268339],
    ),
    ("Pade-[2/2]", "midpoint"): (
        [(0, 1.3288101047798235), (10, 1.3279435636166925), (20, 1.3278013807583764),
         (30, 1.327781550476821), (40, 1.3277509739453135), (50, 1.3277142456874753)],
        [-0.05555295505476361, -0.025551490615454336, -0.10843241257766863, 0.10363603534151695,
         0.12642325568267027, 1.082775598599032, 0.06308068136694968, -0.07406694244777202],
    ),
    ("RBF-[3]", "midpoint"): (
        [(0, 1.3294875749838229), (10, 1.3279364450637967), (20, 1.3278267272232858),
         (30, 1.3276159834497763), (40, 1.327505612527367), (50, 1.3273383227507367)],
        [-0.03670587931066549, -0.08054784510150624, -0.014449328609027083, 0.1548423598751223,
         0.5789931007055537, 0.9827102173795134, -0.9523046083981501, -0.7373241815575121,
         -1.0765138075386738, 0.014229006277163125, 0.03514157546061017, -0.35149019243873303],
    ),
    ("MLP-[[3,tanh]]", "midpoint"): (
        [(0, 1.3287205674565905), (10, 1.3277731872594731), (20, 1.3277094271506342),
         (30, 1.327673629956475), (40, 1.327647780606869), (50, 1.3276147721658946)],
        [-0.10221319503475874, -0.11165731983073438, -0.044225549075160284, 0.034054931580937,
         0.05453761938416706, -0.007466524777131934, -0.12747790037519138, -0.11131455719323108,
         0.0917537478591055, -0.20161575221024547],
    ),
    ("Leg-4", "midpoint"): (
        [(0, 1.3449277534780484), (10, 1.329341950492734), (20, 1.3281347864128616),
         (30, 1.3282891351888357), (40, 1.3279803222967874), (50, 1.3279754411286633)],
        [-0.2187440712289169, 0.00014869012895024733, 0.07080899435838235, -0.07613476585671408,
         -0.035894330121828445, 0.19001073835275106, 0.1192721324041734],
    ),
    ("Poly-3", "midpoint"): (
        [(0, 1.3313255808827282), (10, 1.3279302543524518), (20, 1.3280757702943793),
         (30, 1.327834486902871), (40, 1.3277543094783297), (50, 1.3276779143056112)],
        [-0.11695633995287703, 0.07166544400920286, 0.008280923052083004, -0.08080611649960583,
         -0.004808763807124101, -0.13224345177187374],
    ),
}


@pytest.mark.parametrize("structure,grid_mode", list(GRID_TRAINING),
                         ids=[f"{s}-{m}" for s, m in GRID_TRAINING])
def test_training_keeps_its_answers(structure, grid_mode):
    random = grid_mode == "random"
    config = TrainConfig(steps=50, grid_n=200, grid_mode=grid_mode, seed=5, record_every=10,
                         precondition=not random)
    if random:
        assert config.steps % (_BLOCK_POINTS // config.grid_n) != 0  # the last block is partial
    history, params = GRID_TRAINING[structure, grid_mode]
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
                                   (10, 1.6010920710050047), (15, 2.470932418451749)]
    assert report.final_params.tolist() == [
        -0.023639863833392755, -0.12266646650950654, -0.07050304015297483,
        -0.22370004874831048, 0.11821368257029864, -0.08109316625924996,
    ]


def _refined_error(case, spec, report):
    """Relative error of J for the trained model, re-integrated on 2N+1 midpoints."""
    theta = report.final_params
    pf = theta.shape[0] - 2

    def model(xs):
        return compose_final_many(spec, theta[:pf], theta[pf], theta[pf + 1], case.problem.bc, xs)[:2]

    j = functional_value(case.problem, model, 2 * 1000 + 1)
    return abs(j - case.j_exact_analytic) / abs(case.j_exact_analytic)


@pytest.mark.parametrize("structure,seed,precondition", [
    ("Pade-[4/5]", 26, True),  # diverged when its powers read the raw x
    ("Leg-15", 0, False),  # needed the preconditioner when its polynomials read the raw x
])
def test_bases_read_the_reference_interval_on_cosine_source(structure, seed, precondition):
    # cosine-source lives on (-pi/2, pi/2); Pade, Leg and Poly tabulate x / (pi/2)
    case = case_by_name("cosine-source")
    spec = parse_structure(structure)
    config = TrainConfig(steps=350, grid_n=1000, seed=seed, precondition=precondition, record_every=10)
    report = train(case.problem, spec, config)
    assert report.status == "max_steps"
    assert _refined_error(case, spec, report) < 1e-2
