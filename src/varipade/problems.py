"""The five built-in variational benchmarks and the comparison matrix.

Each case carries the integrand, the boundary conditions, the known exact
solution, and the analytic value of the functional on it. Case 3 also
records the value printed in the source tables (5/3) alongside the value
obtained by direct integration of the stated functional on the stated
solution (1/6); reports show both rather than choosing silently.
"""

from __future__ import annotations

import math
import numbers
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .boundary import BoundaryCondition
from .errors import DegenerateReferenceError
from .expressions import parse_integrand
from .families import param_count, parse_structure
from .loss import Problem
from .optimize import TrainConfig, train


@dataclass(frozen=True)
class BenchmarkCase:
    index: int
    problem: Problem
    j_exact_analytic: float
    j_paper_reported: Optional[float]
    default_structures: tuple

    @property
    def name(self):
        return self.problem.name

    @property
    def exact_solution(self):
        return self.problem.exact


def _exact_line(x):
    x = np.asarray(x, dtype=float)
    return x + 1.0, np.ones_like(x)


def _exact_drag(x):
    x = np.asarray(x, dtype=float)
    # the derivative is infinite at x = 0; return inf there without warning
    with np.errstate(divide="ignore"):
        return x ** 0.75, 0.75 * x ** -0.25


def _exact_parabola(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * x * (1.0 - 0.5 * x), 0.5 - 0.5 * x


def _exact_cosine(x):
    x = np.asarray(x, dtype=float)
    return np.cos(x + np.pi / 2) + (2.0 / np.pi) * x, -np.sin(x + np.pi / 2) + 2.0 / np.pi


def _exact_sine(x):
    x = np.asarray(x, dtype=float)
    s1 = math.sin(1.0)
    return np.sin(x) / s1 - x, np.cos(x) / s1 - 1.0


def builtin_cases():
    """The five benchmark problems, in their canonical order."""
    return [
        BenchmarkCase(
            index=1,
            problem=Problem(
                integrand=parse_integrand("sqrt(1 + dy^2)"),
                bc=BoundaryCondition(-1.0, 1.0, 0.0, 2.0),
                name="shortest-path",
                exact=_exact_line,
                j_exact=2.0 * math.sqrt(2.0),
            ),
            j_exact_analytic=2.0 * math.sqrt(2.0),
            j_paper_reported=None,
            default_structures=(
                "Pade-[5/5]", "RBF-[8]", "MLP-[[8,sigmoid]]", "Leg-10", "Poly-10",
            ),
        ),
        BenchmarkCase(
            index=2,
            problem=Problem(
                integrand=parse_integrand("y * dy^3"),
                bc=BoundaryCondition(0.0, 1.0, 0.0, 1.0),
                name="minimum-drag",
                exact=_exact_drag,
                j_exact=27.0 / 64.0,
            ),
            j_exact_analytic=27.0 / 64.0,
            j_paper_reported=None,
            default_structures=(
                "Pade-[8/10]", "RBF-[8]", "MLP-[[16,sigmoid]]", "Leg-15", "Poly-15",
            ),
        ),
        BenchmarkCase(
            index=3,
            problem=Problem(
                integrand=parse_integrand("dy^2 + x * dy"),
                bc=BoundaryCondition(0.0, 1.0, 0.0, 0.25),
                name="parabolic",
                exact=_exact_parabola,
                j_exact=1.0 / 6.0,
            ),
            # direct integration of the stated functional on the stated
            # solution gives 1/6; the published tables print 5/3
            j_exact_analytic=1.0 / 6.0,
            j_paper_reported=5.0 / 3.0,
            default_structures=(
                "Pade-[8/10]", "RBF-[16]", "MLP-[[16,sigmoid]]", "Leg-15",
            ),
        ),
        BenchmarkCase(
            index=4,
            problem=Problem(
                integrand=parse_integrand("dy^2 - 2 * y * cos(x + pi/2)"),
                bc=BoundaryCondition(-math.pi / 2, math.pi / 2, 0.0, 0.0),
                name="cosine-source",
                exact=_exact_cosine,
                j_exact=4.0 / math.pi - math.pi / 2.0,
            ),
            j_exact_analytic=4.0 / math.pi - math.pi / 2.0,
            j_paper_reported=None,
            default_structures=(
                "Pade-[4/5]", "RBF-[16]", "MLP-[[16,sigmoid]]", "Leg-15",
            ),
        ),
        BenchmarkCase(
            index=5,
            problem=Problem(
                integrand=parse_integrand("dy^2 - y^2 - 2 * x * y"),
                bc=BoundaryCondition(0.0, 1.0, 0.0, 0.0),
                name="sine-source",
                exact=_exact_sine,
                j_exact=1.0 / math.tan(1.0) - 2.0 / 3.0,
            ),
            j_exact_analytic=1.0 / math.tan(1.0) - 2.0 / 3.0,
            j_paper_reported=None,
            default_structures=(
                "Pade-[4/5]", "RBF-[16]", "MLP-[[16,sigmoid]]", "Leg-15",
            ),
        ),
    ]


def builtin_names():
    return [case.name for case in builtin_cases()]


def case_by_name(name):
    for case in builtin_cases():
        if case.name == name:
            return case
    raise KeyError(name)


def relative_error(j_exact, j_net):
    """(j_exact - j_net) / j_exact, the sign convention of the result tables."""
    if abs(j_exact) < 1e-300:
        raise DegenerateReferenceError(f"reference value {j_exact} too small")
    return (j_exact - j_net) / j_exact


@dataclass(frozen=True)
class MatrixRow:
    case_index: int
    case_name: str
    structure: str
    n_params: int
    j_final: float
    j_exact: float
    rel_error: Optional[float]
    status: str
    report: object  # TrainReport of the representative (median) seed


@dataclass(frozen=True)
class MatrixReport:
    rows: list  # MatrixRow, sorted by (case_index, structure position)

    def rows_for_case(self, index):
        return [r for r in self.rows if r.case_index == index]


def _run_pair(case, structure, config, n_seeds):
    spec = parse_structure(structure)
    reports = []
    for k in range(n_seeds):
        reports.append(train(case.problem, spec, replace(config, seed=config.seed + k)))
    finite = [r for r in reports if not math.isnan(r.j_final)]
    if finite:
        med = statistics.median_low([r.j_final for r in finite])
        rep = next(r for r in finite if r.j_final == med)
    else:
        rep = reports[0]
    rel = None
    if rep.status != "failed":
        rel = relative_error(case.j_exact_analytic, rep.j_final)
    return MatrixRow(
        case_index=case.index,
        case_name=case.name,
        structure=structure,
        n_params=param_count(spec),
        j_final=rep.j_final,
        j_exact=case.j_exact_analytic,
        rel_error=rel,
        status=rep.status,
        report=rep,
    )


def run_matrix(cases, structures=None, config=TrainConfig(), n_seeds=1, parallel=1):
    """Train every (case, structure) pair and assemble the comparison matrix.

    `structures=None` uses each case's default structure list; otherwise the
    given list is applied to every case. Pair failures are recorded in their
    row and the matrix continues. Rows come back sorted by case, then by
    position in the structure list, regardless of execution order.
    """
    if not cases or (structures is not None and not structures):
        raise ValueError("cases and structures must be nonempty")
    for name, value in (("n_seeds", n_seeds), ("parallel", parallel)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    pairs = []
    for case in cases:
        for pos, structure in enumerate(structures or case.default_structures):
            pairs.append((case, pos, structure))
    # pairs are built in (case, structure-position) order and both execution
    # paths preserve it, so the report is order-deterministic
    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            rows = list(pool.map(lambda p: _run_pair(p[0], p[2], config, n_seeds), pairs))
    else:
        rows = [_run_pair(case, structure, config, n_seeds) for case, _, structure in pairs]
    return MatrixReport(rows=rows)
