"""Discretized functional and its exact parameter gradient.

The functional J[y] = integral of F(x, y, y') over (x_a, x_b) is
approximated by the midpoint sum with weight (x_b - x_a)/N. The same
weight convention is used for both the training loss and the oracle
quadrature, so the loss evaluated on the exact solution estimates J
directly. Endpoints are never sampled: the composed model lives on the
open interval and some benchmark solutions have singular derivatives at
an endpoint.

Training computes the gradient in reverse mode on a `Plan`, a grid bound
to one problem and structure that holds everything computed from the grid
alone. `compose_final_many` is the forward jet, with dense (P, N) gradient
rows; it is kept for evaluating a trained model, for the step
preconditioner and as the reference the tests check the gradient against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# compose_final_many is not called here, but perfbench/tracing.py wraps it in this namespace
from .boundary import BoundaryCondition, BoundaryTables, compose_final_many  # noqa: F401
from .errors import EvaluationOverflowError
from .expressions import IntegrandExpr, eval_integrand_many
from .families import family_forward, family_tables


@dataclass(frozen=True)
class Problem:
    integrand: IntegrandExpr
    bc: BoundaryCondition
    name: str = ""
    exact: Optional[Callable] = None  # x array -> (value, derivative)
    j_exact: Optional[float] = None


@dataclass(frozen=True)
class SampleGrid:
    points: np.ndarray
    weight: float


def sample_grid(bc, n, mode="midpoint", seed=0):
    """Sample points strictly inside (x_a, x_b) with equal quadrature weight.

    midpoint: x_i = x_a + (i - 1/2) (x_b - x_a) / n, deterministic.
    random:   n i.i.d. uniform draws, sorted, seeded.
    """
    if n < 1:
        raise ValueError(f"need at least one sample point, got {n}")
    length = bc.x_b - bc.x_a
    if mode == "midpoint":
        points = bc.x_a + (np.arange(1, n + 1) - 0.5) * (length / n)
    elif mode == "random":
        rng = np.random.default_rng(seed)
        points = np.sort(bc.x_a + length * rng.random(n))
    else:
        raise ValueError(f"unknown grid mode {mode!r}")
    return SampleGrid(points, length / n)


class Plan:
    """A grid bound to one problem and one family structure.

    Holds what `loss_and_grad` reads from the grid alone: the boundary
    tables, the family's basis tables and the integrand's x-only values.
    `train` builds one per call on a fixed grid; a SampleGrid passed to
    `loss_and_grad` is bound on the spot.
    """

    def __init__(self, problem, spec, grid):
        self.problem = problem
        self.spec = spec
        self.points = np.asarray(grid.points, dtype=float)
        self.weight = grid.weight
        self.boundary = BoundaryTables(problem.bc, self.points)
        self.family = family_tables(spec, self.points)
        self.integrand = problem.integrand.bind(self.points)


def loss_and_grad(problem, spec, params, exps, grid):
    """Midpoint-rule loss and its exact gradient over (family params, rho_a, rho_b).

    `exps` is a BoundaryExponents; `grid` is a SampleGrid or a Plan for this
    problem and spec. The gradient is computed in reverse mode: the loss's
    weights w * dF/dy and w * dF/ddy are pulled back through the
    composition and the family, and no (P, N) Jacobian is formed.
    """
    plan = grid if isinstance(grid, Plan) else Plan(problem, spec, grid)
    if plan.problem is not problem or plan.spec != spec:
        raise ValueError("the plan was built for another problem or structure")
    fy, fdy, family_pullback = family_forward(spec, params, plan.family)
    y, dy, boundary_pullback = plan.boundary.compose(fy, fdy, exps.rho_a, exps.rho_b)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(dy))):
        raise EvaluationOverflowError(f"non-finite value in composed model for {spec}")
    f, f_y, f_dy = eval_integrand_many(problem.integrand, plan.points, y, dy, bound=plan.integrand)
    loss = plan.weight * float(np.sum(f))
    c1, c2, grad_rho = boundary_pullback(plan.weight * f_y, plan.weight * f_dy)
    grad = np.concatenate([family_pullback(c1, c2), grad_rho])
    if not np.all(np.isfinite(grad)):
        raise EvaluationOverflowError(f"non-finite gradient of the composed model for {spec}")
    return loss, grad


def functional_value(problem, y, n):
    """Midpoint quadrature of F(x, y(x), y'(x)) for an arbitrary callable y.

    `y` maps an array of x values to (value, derivative) arrays.
    """
    grid = sample_grid(problem.bc, n, mode="midpoint")
    yv, dyv = y(grid.points)
    f, _, _ = eval_integrand_many(problem.integrand, grid.points, yv, dyv)
    return grid.weight * float(np.sum(f))
