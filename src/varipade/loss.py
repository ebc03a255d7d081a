"""Discretized functional and its exact parameter gradient.

The functional J[y] = integral of F(x, y, y') over (x_a, x_b) is
approximated by the midpoint sum with weight (x_b - x_a)/N. The same
weight convention is used for both the training loss and the oracle
quadrature, so the loss evaluated on the exact solution estimates J
directly. Endpoints are never sampled: the composed model lives on the
open interval and some benchmark solutions have singular derivatives at
an endpoint.

`loss_and_grad(plan, theta, row)` takes the reverse-mode gradient over the
flat theta = (family params, rho_a, rho_b) on a `Plan`: grids bound to one
problem and structure, holding all that is computed from the grid alone. A
plan binds a block of grids, one per row, in one vectorized pass, and row k
gives the same bits as a plan of grid k alone. `train` binds a fixed grid
once; a grid resampled at every step is drawn and bound in blocks of
consecutive steps, at most 8192 points to a block (about 1-2 MB of tables
for the paper's structures), and step s still draws its grid from
default_rng(seed * 1_000_003 + s).

`compose_final_many` is the jet, with dense (P, N) gradient rows, the
per-point terms of the pullbacks that training contracts; it is kept for
evaluating a trained model, for the step preconditioner and as the
reference the tests check the gradient against.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

# compose_final_many is not called here, but perfbench/tracing.py wraps it in this namespace
from .boundary import BoundaryCondition, BoundaryTables, compose_final_many  # noqa: F401
from .errors import EvaluationOverflowError
from .expressions import IntegrandExpr, eval_integrand_many
from .families import family_forward, family_tables, param_count, table_row


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
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
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
        family = family_tables(spec, block, (problem.bc.x_a, problem.bc.x_b))
        integrand = problem.integrand.bind(block)
        self.rows = tuple(
            _Row(block[k], boundary.row(k), table_row(family, k), integrand[k])
            for k in range(block.shape[0])
        )


def loss_and_grad(plan, theta, row=0):
    """Midpoint-rule loss on grid `row` of `plan` and its exact gradient over theta.

    `theta` is the flat vector (family params, rho_a, rho_b). The gradient is
    computed in reverse mode: dF/dy and dF/ddy are pulled back through the
    composition and the family, the quadrature weight w scales the (P + 2)
    result, and no (P, N) Jacobian is formed.
    """
    spec = plan.spec
    pf = param_count(spec)
    if np.shape(theta) != (pf + 2,):
        raise ValueError(f"theta of shape {np.shape(theta)} for {spec}, "
                         f"which needs {pf + 2} entries")
    points, boundary, family, integrand = plan.rows[row]
    weight = plan.weight
    # an overflow or a NaN is reported by the finiteness checks
    with np.errstate(all="ignore"):
        fy, fdy, family_pullback = family_forward(spec, theta, family)
        y, dy, boundary_pullback = boundary.compose(fy, fdy, theta[pf], theta[pf + 1])
        if not (np.isfinite(y).all() and np.isfinite(dy).all()):
            raise EvaluationOverflowError(f"non-finite value in composed model for {spec}")
        f, f_y, f_dy = eval_integrand_many(plan.problem.integrand, points, y, dy, bound=integrand)
        loss = weight * float(f.sum())
        c1, c2, grad_rho = boundary_pullback(f_y, f_dy)
        grad = np.concatenate([family_pullback(c1, c2), grad_rho])
        grad *= weight
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
