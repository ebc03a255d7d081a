"""End-to-end acceptance checks.

Each test prints a single summary line on success; with pytest -v the
test name itself doubles as the pass/fail line. The heavy benchmark
check (criterion 7) trains the full comparison matrix and takes a few
minutes; the rest finish in well under two minutes combined.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from varipade import (
    BoundaryCondition,
    Plan,
    TrainConfig,
    builtin_cases,
    evaluate,
    functional_value,
    init_params,
    loss_and_grad,
    param_count,
    parse_structure,
    relative_error,
    sample_grid,
    train,
)
from varipade.cli import main


GRADIENT_FAMILIES = [
    "Pade-[3/2]",
    "Poly-4",
    "Leg-4",
    "RBF-[3]",
    "MLP-[[3,sigmoid]]",
    "MLP-[[3,tanh]]",
]


def test_criterion_1_analytic_gradients_match_finite_differences():
    """Loss gradients agree with central differences across families and problems."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = builtin_cases()
    h = 1e-6
    checked = 0
    for structure in GRADIENT_FAMILIES:
        spec = parse_structure(structure)
        pf = param_count(spec)
        for draw in range(50):
            case = cases[draw % len(cases)]
            bc = case.problem.bc
            plan = Plan(case.problem, spec, sample_grid(bc, 16))
            theta = np.concatenate([
                init_params(spec, int(rng.integers(1 << 30)), domain=(bc.x_a, bc.x_b)),
                rng.uniform(-0.2, 0.5, 2),
            ])
            _, grad = loss_and_grad(plan, theta)
            for k in range(pf + 2):
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                lp, _ = loss_and_grad(plan, tp)
                lm, _ = loss_and_grad(plan, tm)
                fd = (lp - lm) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-7), (
                    f"{structure} on {case.name}, coordinate {k}")
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient sweep took {elapsed:.1f}s"
    print(f"criterion 1: {checked} gradient coordinates matched "
          f"finite differences in {elapsed:.1f}s ... PASS")


def test_criterion_2_parameter_counts():
    """Flat parameter vector sizes for the nine tabulated structures."""
    expected = {
        "Pade-[5/5]": 12,
        "RBF-[8]": 25,
        "MLP-[[8,sigmoid]]": 18,
        "Leg-10": 11,
        "Poly-10": 11,
        "Pade-[8/10]": 20,
        "MLP-[[16,sigmoid]]": 34,
        "Leg-15": 16,
        "RBF-[16]": 49,
    }
    for structure, count in expected.items():
        assert param_count(parse_structure(structure)) == count, structure
    print(f"criterion 2: all {len(expected)} structure parameter counts correct ... PASS")


def test_criterion_3_quadrature_reproduces_exact_functionals():
    """Midpoint quadrature of each exact solution recovers the analytic J."""
    for case in builtin_cases():
        j = functional_value(case.problem, case.exact_solution, 10000)
        assert abs(j - case.j_exact_analytic) < 1e-6, case.name
    print("criterion 3: all 5 exact functionals reproduced to 1e-6 at n=10000 ... PASS")


def test_criterion_4_shortest_path_training_accuracy():
    """Pade-[5/5] on the shortest-path problem reaches 1e-3 relative error."""
    case = builtin_cases()[0]
    spec = parse_structure("Pade-[5/5]")
    hits = 0
    for seed in (0, 1, 2):
        start = time.perf_counter()
        report = train(case.problem, spec, TrainConfig(seed=seed))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
        assert report.status != "failed", report.failure_reason
        rel = abs(relative_error(case.j_exact_analytic, report.j_final))
        if rel <= 1e-3:
            hits += 1
    assert hits >= 2, f"only {hits}/3 seeds reached 1e-3 relative error"
    print(f"criterion 4: {hits}/3 seeds within 1e-3 relative error ... PASS")


def test_criterion_5_sine_source_functional_gap():
    """Pade-[4/5] on the sine-source problem closes the functional gap to 5e-4."""
    case = builtin_cases()[4]
    report = train(case.problem, parse_structure("Pade-[4/5]"), TrainConfig(seed=0))
    assert report.status != "failed", report.failure_reason
    gap = abs(report.j_final - case.j_exact_analytic)
    assert gap <= 5e-4, f"gap {gap:.2e}"
    print(f"criterion 5: functional gap {gap:.2e} <= 5e-4 ... PASS")


def test_criterion_6_boundary_conditions_exact():
    """Composed models hit both endpoint values for arbitrary parameters."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        structure = GRADIENT_FAMILIES[int(rng.integers(len(GRADIENT_FAMILIES)))]
        spec = parse_structure(structure)
        x_a = float(rng.uniform(-2, 0))
        x_b = x_a + float(rng.uniform(0.5, 3))
        bc = BoundaryCondition(x_a, x_b, float(rng.normal(0, 2)), float(rng.normal(0, 2)))
        theta = init_params(spec, int(rng.integers(1 << 30)), domain=(x_a, x_b))
        theta = theta + rng.normal(0, 0.5, theta.shape)
        rho = rng.uniform(0.0, 1.0, 2)
        eps = 1e-12 * (x_b - x_a)
        y, _ = evaluate(spec, np.concatenate([theta, rho]), bc, np.array([x_a + eps, x_b - eps]))
        worst = max(worst, abs(y[0] - bc.y_a), abs(y[1] - bc.y_b))
    assert worst <= 1e-9, f"worst endpoint mismatch {worst:.2e}"
    print(f"criterion 6: 1000 random models, worst endpoint mismatch "
          f"{worst:.1e} <= 1e-9 ... PASS")


def test_criterion_7_benchmark_matrix(tmp_path):
    """The full comparison matrix trains to 1e-2 relative error everywhere,
    and the rational structure reaches the exact functional no later than
    the neural one on the first benchmark. Takes ~5 minutes."""
    out = tmp_path / "bench"
    code = main(["bench", "--steps", "6000", "--samples", "1000", "--seed", "0",
                 "--record-every", "50", "--out", str(out)])
    assert code == 0
    worst = (None, 0.0)
    n_rows = 0
    for case in builtin_cases():
        with open(out / f"table{case.index}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(case.default_structures)
        for row in rows:
            assert row["status"] == "max_steps", row
            rel = abs(float(row["relative_error"]))
            n_rows += 1
            if rel > worst[1]:
                worst = (f"case {case.index} {row['structure']}", rel)
            assert rel <= 1e-2, f"case {case.index} {row['structure']}: rel {rel:.2e}"
    # convergence-speed comparison on the first benchmark
    j1 = builtin_cases()[0].j_exact_analytic
    first_reach = {}
    with open(out / "curves1.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            name = row["structure"]
            if name not in ("Pade-[5/5]", "MLP-[[8,sigmoid]]") or name in first_reach:
                continue
            if abs(float(row["loss"]) - j1) <= 1e-3 * abs(j1):
                first_reach[name] = int(row["step"])
    assert "Pade-[5/5]" in first_reach, "rational model never reached 1e-3 of J"
    assert "MLP-[[8,sigmoid]]" in first_reach, "neural model never reached 1e-3 of J"
    assert first_reach["Pade-[5/5]"] <= first_reach["MLP-[[8,sigmoid]]"], first_reach
    print(f"criterion 7: {n_rows} matrix entries all within 1e-2 "
          f"(worst {worst[1]:.1e} at {worst[0]}); first-reach steps "
          f"{first_reach} ... PASS")


def test_criterion_8_runs_are_reproducible(tmp_path):
    """Identical invocations produce byte-identical loss curves."""
    args = ["run", "--problem", "shortest-path", "--structure", "Pade-[5/5]",
            "--steps", "20000", "--samples", "1000", "--record-every", "50",
            "--seed", "0"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a/loss.csv").read_bytes()
    b = (tmp_path / "b/loss.csv").read_bytes()
    assert a == b
    with open(tmp_path / "a/summary.json") as fh:
        ja = json.load(fh)
    with open(tmp_path / "b/summary.json") as fh:
        jb = json.load(fh)
    assert ja["j_final"] == jb["j_final"]
    print("criterion 8: repeated runs byte-identical ... PASS")
