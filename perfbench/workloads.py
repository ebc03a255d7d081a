"""The three benchmark workloads and the correctness gate every solve passes.

A workload is a sequence of rounds. A round is a fixed unit of work whose
inputs depend only on (seed, round index), so the traced run can replay
exactly the round an untraced run measured. A solve is one `train` call.

    matrix-analytic  the paper's matrix without MLP: 17 Pade/RBF/Leg/Poly
                     pairs of the five builtin cases, grid_n=1000 midpoint,
                     precondition on, run_matrix(parallel=1). Small arrays on
                     a fixed grid: per-call overhead and basis rebuilds set
                     the time.
    matrix-mlp       the five default MLP pairs plus MLP-[[8,tanh],[8,tanh]]
                     on sine-source, grid_n=1000, run_matrix(parallel=1).
                     The MLP jet kernel dominates.
    solve-requests   closed loop, one client: short independent requests,
                     each parsing a fresh long-hand integrand with a
                     closed-form J and training a small structure from one
                     of the five families at N around 200, half of them on a
                     grid resampled every step. Parsing, integrand evaluation,
                     per-solve set-up and grid sampling dominate; nothing
                     repeats that a fixed-grid or long-run cache could reuse.

Note for a later documentation fix: README.md lists `tan log abs sinh
cosh tanh` among the integrand functions, but the parser accepts only
`sqrt sin cos exp` and rejects the others with UnknownIdentifierError. The
request generator therefore uses only those four (`run.py --smoke` checks
that the mismatch still stands and says so).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# |relative error| at which a solve counts as having reached the answer, for
# time_to_tol_s and optimize.steps_to_tol (taken from the loss history)
REACH_TOL = 1e-3


@dataclasses.dataclass
class Solve:
    family: str
    structure: str
    grid_mode: str
    grid_n: int
    steps: int
    solve_s: float  # scaled to the reference speed (speed.py)
    raw_s: float
    problem: object
    spec: object
    report: object
    j_exact: float
    rel_error: float = math.nan  # gate: re-integrated J against closed-form J
    ok: bool = False
    steps_to_tol: int = 0

    @property
    def time_to_tol_s(self):
        return self.solve_s * self.steps_to_tol / max(self.steps, 1)


@dataclasses.dataclass
class Round:
    wall_s: float  # scaled to the reference speed (speed.py)
    raw_s: float
    solves: list


def derived_seed(*parts):
    """A 32-bit seed that depends on every part, for per-round inputs."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def family_of(structure):
    return structure.split("-", 1)[0]


def check(vp, solve, tol):
    """Correctness gate; fills rel_error, ok and steps_to_tol of one solve.

    The trained model is re-integrated with functional_value on a midpoint
    grid of 2N+1 points, none of which lies on the N-point training midpoint
    grid, and compared with the closed-form J; `tol` maps grid mode to the
    allowed relative error.
    """
    report = solve.report
    j = solve.j_exact
    solve.steps_to_tol = solve.steps
    for step, loss in report.loss_history:
        if abs(loss - j) <= REACH_TOL * abs(j):
            solve.steps_to_tol = min(step, solve.steps)
            break
    if report.status == "failed":
        solve.rel_error, solve.ok = math.inf, False
        return solve
    theta = report.final_params
    pf = theta.shape[0] - 2
    bc = solve.problem.bc

    def model(xs):
        y, dy, _, _ = vp.compose_final_many(solve.spec, theta[:pf], theta[pf], theta[pf + 1], bc, xs)
        return y, dy

    try:
        value = vp.functional_value(solve.problem, model, 2 * solve.grid_n + 1)
    except vp.VaripadeError:
        value = math.nan
    solve.rel_error = abs(value - j) / abs(j)
    solve.ok = math.isfinite(solve.rel_error) and solve.rel_error <= tol[solve.grid_mode]
    return solve


# ---------------------------------------------------------------------------
# matrix-analytic and matrix-mlp
# ---------------------------------------------------------------------------

class Matrix:
    """The paper's fixed matrix: the same inputs for every seed.

    Round k trains it from the initial weights of seed k, as `varipade bench
    --seed k` would, so runs differ only in timing while consecutive rounds
    still train different weights.
    """

    grid_n = 1000
    tol = {"midpoint": 1e-2}  # the matrix tolerance of the repository's acceptance test

    def __init__(self, vp, meter, mlp, steps, min_rounds):
        self.vp = vp
        self.meter = meter
        self.steps = steps
        self.min_rounds = min_rounds
        cases = []
        for case in vp.builtin_cases():
            keep = tuple(s for s in case.default_structures if s.startswith("MLP") == mlp)
            if mlp and case.name == "sine-source":
                keep += ("MLP-[[8,tanh],[8,tanh]]",)  # depth > 1 and tanh
            cases.append(dataclasses.replace(case, default_structures=keep))
        self.cases = cases
        self.specs = {s: vp.parse_structure(s) for c in cases for s in c.default_structures}

    def config(self, k, steps):
        return self.vp.TrainConfig(
            steps=steps, grid_n=self.grid_n, precondition=True, seed=k, record_every=10,
        )

    def warm_up(self):
        self.vp.run_matrix(self.cases, config=self.config(0, 3), parallel=1)

    def round(self, k):
        """One pass over the matrix, one run_matrix(parallel=1) call per pair.

        run_matrix(parallel=1) trains the pairs one after another anyway;
        calling it per pair puts a speed probe between pairs.
        """
        config = self.config(k, self.steps)
        problems = {c.index: c.problem for c in self.cases}
        solves = []
        for case in self.cases:
            for structure in case.default_structures:
                report, raw, scaled = self.meter.time(
                    self.vp.run_matrix, [case], structures=[structure], config=config, parallel=1)
                row = report.rows[0]
                solves.append(Solve(
                    family=family_of(row.structure), structure=row.structure,
                    grid_mode="midpoint", grid_n=self.grid_n, steps=self.steps,
                    solve_s=scaled, raw_s=raw,
                    problem=problems[row.case_index], spec=self.specs[row.structure],
                    report=row.report, j_exact=row.j_exact,
                ))
        return Round(sum(s.solve_s for s in solves), sum(s.raw_s for s in solves), solves)


# ---------------------------------------------------------------------------
# solve-requests
# ---------------------------------------------------------------------------

# long-hand spellings of the constant 1, so the integrand tree is long while
# the closed-form J stays that of the short problem
ONES = (
    "(sin(x)^2 + cos(x)^2)",
    "exp(x - x)",
    "(cos(2 * x) + 2 * sin(x)^2)",
    "(sqrt(exp(2 * x)) * exp(-x))",
)
STRUCTURES = {
    "Pade": ("Pade-[2/2]", "Pade-[3/2]"),
    "RBF": ("RBF-[4]", "RBF-[5]"),
    "MLP": ("MLP-[[4,tanh]]", "MLP-[[6,sigmoid]]"),
    "Leg": ("Leg-4", "Leg-6"),
    "Poly": ("Poly-4", "Poly-5"),
}
GRID_SIZES = (160, 200, 240)


@dataclasses.dataclass(frozen=True)
class Request:
    text: str
    x_a: float
    x_b: float
    y_a: float
    y_b: float
    j_exact: float
    exact: object  # x array -> (y, y') of the closed-form minimizer
    structure: str
    grid_mode: str
    grid_n: int
    seed: int


def _num(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 4)


def _line(ya, yb, length):
    slope = (yb - ya) / length
    return lambda s: (ya + slope * s, np.full_like(s, slope))


# Each template draws one problem and returns (integrand text, interval
# length, y_a, y_b, closed-form J, exact minimizer as a function of x - x_a).

def _helmholtz(rng, one):
    """F = (y'^2 + k^2 y^2): y = ya cosh(ks) + c sinh(ks), J = [y y'] over the ends."""
    kk = _num(rng, 0.25, 4.0)
    k = math.sqrt(kk)
    length = _num(rng, 0.8, 1.5)
    ya, yb = _num(rng, -1.0, 1.0), _num(rng, 0.5, 1.5)
    c = (yb - ya * math.cosh(k * length)) / math.sinh(k * length)
    j = yb * k * (ya * math.sinh(k * length) + c * math.cosh(k * length)) - ya * k * c

    def exact(s):
        return (ya * np.cosh(k * s) + c * np.sinh(k * s),
                k * (ya * np.sinh(k * s) + c * np.cosh(k * s)))

    return f"(dy^2 + {kk!r} * y^2) * {one}", length, ya, yb, j, exact


def _arc(rng, one):
    """F = sqrt(1 + y'^2): the straight line, J = its length."""
    length = _num(rng, 0.8, 1.5)
    ya, yb = _num(rng, -1.0, 1.0), _num(rng, -1.0, 1.0)
    return f"sqrt({one} + dy^2)", length, ya, yb, math.hypot(length, yb - ya), _line(ya, yb, length)


def _load(rng, one):
    """F = y'^2 + 2 C y, zero ends: y = C s (s - L) / 2, J = -C^2 L^3 / 12."""
    cc = _num(rng, 1.0, 3.0)
    length = _num(rng, 1.0, 1.5)

    def exact(s):
        return 0.5 * cc * s * (s - length), 0.5 * cc * (2.0 * s - length)

    return f"dy^2 + 2 * {cc!r} * y * {one}", length, 0.0, 0.0, -cc * cc * length ** 3 / 12.0, exact


def _dirichlet(rng, one):
    """F = y'^2 written as (y' cos x)^2 + (y' sin x)^2: the line, J = (yb - ya)^2 / L."""
    length = _num(rng, 0.8, 1.5)
    ya = _num(rng, -1.0, 1.0)
    yb = ya + _num(rng, 0.5, 1.5) * (1.0 if rng.random() < 0.5 else -1.0)
    return ("(dy * cos(x))^2 + (dy * sin(x))^2", length, ya, yb, (yb - ya) ** 2 / length,
            _line(ya, yb, length))


TEMPLATES = (_helmholtz, _arc, _load, _dirichlet)


def make_batch(seed, k, size):
    """Requests of round k.

    Every (family, grid mode, structure, grid size) combination appears
    equally often, and every template and spelling of 1 as evenly as `size`
    allows, so rounds of different seeds cost about the same; the seed picks
    the pairing, the problem parameters and the initial weights.
    """
    rng = np.random.default_rng(derived_seed(seed, k, 7))
    combos = [(family, mode, variant, n)
              for family in STRUCTURES for mode in ("midpoint", "random")
              for variant in (0, 1) for n in GRID_SIZES]
    templates = rng.permutation(size) % len(TEMPLATES)
    ones = rng.permutation(size) % len(ONES)
    requests = []
    for i in range(size):
        family, grid_mode, variant, grid_n = combos[i % len(combos)]
        text, length, ya, yb, j, exact = TEMPLATES[templates[i]](rng, ONES[ones[i]])
        x_a = _num(rng, -1.0, 1.0)
        requests.append(Request(
            text=text, x_a=x_a, x_b=x_a + length, y_a=ya, y_b=yb, j_exact=j,
            exact=lambda x, f=exact, a=x_a: f(np.asarray(x, dtype=float) - a),
            structure=STRUCTURES[family][variant], grid_mode=grid_mode,
            grid_n=grid_n, seed=int(rng.integers(1 << 31)),
        ))
    return [requests[i] for i in rng.permutation(size)]


class SolveRequests:
    learning_rate = 0.02
    # 200 steps stop short of convergence (worst error seen when this
    # benchmark was defined: 1.9e-2 on the midpoint grid) and, on a resampled
    # grid, keep Monte Carlo noise in J (worst seen 0.108, a Poly-5 load
    # problem at N=160, in about 2000 such solves); the gate allows 2.5 to 3
    # times that
    tol = {"midpoint": 5e-2, "random": 3e-1}

    def __init__(self, vp, meter, seed, batch, steps):
        self.vp = vp
        self.meter = meter
        self.seed = seed
        self.batch = batch
        self.steps = steps
        # at least 200 requests, so that p95 has 10 samples beyond it
        self.min_rounds = -(-200 // batch)

    def config(self, request, steps):
        return self.vp.TrainConfig(
            steps=steps, learning_rate=self.learning_rate, grid_n=request.grid_n,
            grid_mode=request.grid_mode, seed=request.seed, record_every=10, precondition=True,
        )

    def _solve(self, request, steps):
        vp = self.vp
        problem = vp.Problem(
            integrand=vp.parse_integrand(request.text),
            bc=vp.BoundaryCondition(request.x_a, request.x_b, request.y_a, request.y_b),
        )
        spec = vp.parse_structure(request.structure)
        return problem, spec, vp.train(problem, spec, self.config(request, steps))

    def solve(self, request, steps):
        """One request, timed against the speed probe: parse, set up, train."""
        (problem, spec, report), raw, scaled = self.meter.time(self._solve, request, steps)
        return Solve(
            family=family_of(request.structure), structure=request.structure,
            grid_mode=request.grid_mode, grid_n=request.grid_n, steps=steps,
            solve_s=scaled, raw_s=raw, problem=problem, spec=spec, report=report,
            j_exact=request.j_exact,
        )

    def warm_up(self):
        # the first structure of each family at N=200 on each grid mode, from
        # a round index no run reaches, so set-up costs the same for every
        # seed and nothing timed is pre-solved
        for request in make_batch(self.seed, 1 << 30, self.batch):
            family = family_of(request.structure)
            if request.structure == STRUCTURES[family][0] and request.grid_n == 200:
                self.solve(request, 3)

    def round(self, k):
        requests = make_batch(self.seed, k, self.batch)
        solves = [self.solve(request, self.steps) for request in requests]
        return Round(sum(s.solve_s for s in solves), sum(s.raw_s for s in solves), solves)
