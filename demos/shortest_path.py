"""Train a rational approximator on the shortest-path problem.

The functional is the arc length J[y] = integral of sqrt(1 + y'^2) from
-1 to 1 with y(-1) = 0 and y(1) = 2. The minimizer is the straight line
y = x + 1 with J = 2*sqrt(2). A Pade-[5/5] model composed with the
boundary factor starts from random coefficients and recovers the line.

Run:  python3 demos/shortest_path.py
"""

import numpy as np

from varipade import TrainConfig, case_by_name, evaluate, parse_structure, relative_error, train

case = case_by_name("shortest-path")
spec = parse_structure("Pade-[5/5]")
# the minimizer is smooth, so keep the boundary exponents fixed at 1
config = TrainConfig(steps=5000, grid_n=1000, record_every=500, seed=0,
                     train_exponents=False)

print(f"problem: {case.name}, J_exact = {case.j_exact_analytic:.10f}")
print(f"structure: {spec} ({config.steps} steps of {config.algorithm})")
report = train(case.problem, spec, config)

for step, loss in report.loss_history:
    print(f"  step {step:5d}  loss {loss:.10f}")

rel = relative_error(case.j_exact_analytic, report.j_final)
print(f"final J = {report.j_final:.10f}  relative error {rel:.2e}")
m_a, m_b = report.exponents
print(f"boundary exponents m_a = {m_a:.4f}, m_b = {m_b:.4f}")

# compare the trained curve to the exact line on a few points
xs = np.linspace(-0.9, 0.9, 7)
y, _ = evaluate(spec, report.final_params, case.problem.bc, xs)
y_exact, _ = case.exact_solution(xs)
print("x, trained y, exact y:")
for x, a, b in zip(xs, y, y_exact):
    print(f"  {x:+.2f}  {a:+.6f}  {b:+.6f}")
assert np.max(np.abs(y - y_exact)) < 1e-4
