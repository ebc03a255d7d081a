"""Discretized functional and its exact parameter gradient.

The functional J[y] = integral of F(x, y, y') over (x_a, x_b) is
approximated by the midpoint sum with weight (x_b - x_a)/N. The same
weight convention is used for both the training loss and the oracle
quadrature, so the loss evaluated on the exact solution estimates J
directly. Endpoints are never sampled: the composed model lives on the
open interval and some benchmark solutions have singular derivatives at
an endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .boundary import BoundaryCondition, compose_final_many
from .expressions import IntegrandExpr, eval_integrand_many


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


def loss_and_grad(problem, spec, params, exps, grid):
    """Midpoint-rule loss and its exact gradient over (family params, rho_a, rho_b).

    `exps` is a BoundaryExponents.
    """
    xs = grid.points
    y, dy, gy, gdy = compose_final_many(spec, params, exps.rho_a, exps.rho_b, problem.bc, xs)
    f, f_y, f_dy = eval_integrand_many(problem.integrand, xs, y, dy)
    loss = grid.weight * float(np.sum(f))
    grad = grid.weight * (gy @ f_y + gdy @ f_dy)
    return loss, grad


def functional_value(problem, y, n):
    """Midpoint quadrature of F(x, y(x), y'(x)) for an arbitrary callable y.

    `y` maps an array of x values to (value, derivative) arrays.
    """
    grid = sample_grid(problem.bc, n, mode="midpoint")
    yv, dyv = y(grid.points)
    f, _, _ = eval_integrand_many(problem.integrand, grid.points, yv, dyv)
    return grid.weight * float(np.sum(f))
