"""Solve a user-defined variational problem from an integrand string.

Minimize J[y] = integral of (y'^2 + y^2) on (0, 1) with y(0) = 0 and
y(1) = 1. The Euler-Lagrange equation y'' = y gives y = sinh(x)/sinh(1)
and J = coth(1) = cosh(1)/sinh(1).

Run:  python3 demos/custom_problem.py
"""

import math

import numpy as np

from varipade import (
    BoundaryCondition,
    Problem,
    TrainConfig,
    evaluate,
    parse_integrand,
    parse_structure,
    train,
)

problem = Problem(
    integrand=parse_integrand("dy^2 + y^2"),
    bc=BoundaryCondition(0.0, 1.0, 0.0, 1.0),
    name="sinh-profile",
)
j_exact = math.cosh(1.0) / math.sinh(1.0)

spec = parse_structure("Leg-6")
# the minimizer is smooth, so keep the boundary exponents fixed at 1
report = train(problem, spec, TrainConfig(steps=4000, grid_n=500, record_every=1000,
                                          seed=0, train_exponents=False))

print(f"integrand: dy^2 + y^2 on (0, 1), y(0)=0, y(1)=1")
print(f"J_exact = coth(1) = {j_exact:.10f}")
print(f"trained {spec}: J = {report.j_final:.10f} "
      f"(gap {report.j_final - j_exact:+.2e})")

xs = np.linspace(0.1, 0.9, 5)
y, _ = evaluate(spec, report.final_params, problem.bc, xs)
exact = np.sinh(xs) / math.sinh(1.0)
print("x, trained y, sinh(x)/sinh(1):")
for x, a, b in zip(xs, y, exact):
    print(f"  {x:.2f}  {a:.6f}  {b:.6f}")
assert abs(report.j_final - j_exact) < 1e-5
