"""Discretized functional and its exact parameter gradient.

The functional J[y] = integral of F(x, y, y') over (x_a, x_b) is
approximated by the midpoint sum with weight (x_b - x_a)/N. The same
weight convention is used for both the training loss and the oracle
quadrature, so the loss evaluated on the exact solution estimates J
directly. Endpoints are never sampled: the composed model lives on the
open interval and some benchmark solutions have singular derivatives at
an endpoint.

Training computes the gradient in reverse mode on a `Plan`, grids bound to
one problem and structure that hold everything computed from the grid
alone. A plan binds a block of grids, one per row, in one vectorized pass,
and row k gives the same bits as a plan of grid k alone. `train` binds a
fixed grid once; a grid resampled at every step is drawn and bound in
blocks of consecutive steps, at most 8192 points to a block (about 1-2 MB
of tables for the paper's structures), and step s still draws its grid
from default_rng(seed * 1_000_003 + s).

`compose_final_many` is the forward jet, with dense (P, N) gradient rows;
it is kept for evaluating a trained model, for the step preconditioner and
as the reference the tests check the gradient against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

# compose_final_many is not called here, but perfbench/tracing.py wraps it in this namespace
from .boundary import BoundaryCondition, BoundaryTables, compose_final_many  # noqa: F401
from .errors import EvaluationOverflowError
from .expressions import IntegrandExpr, eval_integrand_many
from .families import family_forward, family_tables, table_row


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
    random:   n i.i.d. uniform draws, sorted, seeded. A sequence of K seeds
              gives a (K, n) block of grids, row k drawn exactly as seed[k]
              alone would draw it.
    """
    if n < 1:
        raise ValueError(f"need at least one sample point, got {n}")
    length = bc.x_b - bc.x_a
    if mode == "midpoint":
        points = bc.x_a + (np.arange(1, n + 1) - 0.5) * (length / n)
    elif mode == "random":
        one = np.ndim(seed) == 0
        seeds = [seed] if one else list(seed)
        draws = np.empty((len(seeds), n))
        for row, s in zip(draws, seeds):
            np.random.default_rng(s).random(out=row)
        points = np.sort(bc.x_a + length * draws, axis=-1)
        if one:
            points = points[0]
    else:
        raise ValueError(f"unknown grid mode {mode!r}")
    return SampleGrid(points, length / n)


class _Row(NamedTuple):
    points: np.ndarray
    boundary: BoundaryTables
    family: object
    integrand: Callable


class Plan:
    """Grids bound to one problem and one family structure.

    `grid.points` is one grid (N,) or a block of K grids (K, N) that share
    the weight. The boundary tables, the family's basis tables and the
    integrand's x-only values are computed once for the whole block, in one
    vectorized pass; `rows[k]` holds grid k's share as C-contiguous views,
    and `loss_and_grad` reads one row.
    """

    def __init__(self, problem, spec, grid):
        points = np.asarray(grid.points, dtype=float)
        block = points.reshape(-1, points.shape[-1])
        self.problem = problem
        self.spec = spec
        self.weight = grid.weight
        boundary = BoundaryTables(problem.bc, block)
        family = family_tables(spec, block)
        integrand = problem.integrand.bind_rows(block)
        self.rows = tuple(
            _Row(block[k], boundary.row(k), table_row(family, k), integrand[k])
            for k in range(block.shape[0])
        )


def loss_and_grad(problem, spec, params, exps, grid, row=0):
    """Midpoint-rule loss and its exact gradient over (family params, rho_a, rho_b).

    `exps` is a BoundaryExponents; `grid` is a SampleGrid or a Plan for this
    problem and spec, of which grid `row` is read. The gradient is computed
    in reverse mode: the loss's weights w * dF/dy and w * dF/ddy are pulled
    back through the composition and the family, and no (P, N) Jacobian is
    formed.
    """
    plan = grid if isinstance(grid, Plan) else Plan(problem, spec, grid)
    if plan.problem is not problem or (plan.spec is not spec and plan.spec != spec):
        raise ValueError("the plan was built for another problem or structure")
    points, boundary, family, integrand = plan.rows[row]
    weight = plan.weight
    # an overflow or a NaN is reported by the finiteness checks
    with np.errstate(all="ignore"):
        fy, fdy, family_pullback = family_forward(spec, params, family)
        y, dy, boundary_pullback = boundary.compose(fy, fdy, exps.rho_a, exps.rho_b)
        if not (np.isfinite(y).all() and np.isfinite(dy).all()):
            raise EvaluationOverflowError(f"non-finite value in composed model for {spec}")
        f, f_y, f_dy = eval_integrand_many(problem.integrand, points, y, dy, bound=integrand)
        loss = weight * float(f.sum())
        c1, c2, grad_rho = boundary_pullback(weight * f_y, weight * f_dy)
        grad = np.concatenate([family_pullback(c1, c2), grad_rho])
    if not np.isfinite(grad).all():
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
