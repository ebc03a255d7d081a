import math

import numpy as np
import pytest

from varipade import (
    DegenerateReferenceError,
    TrainConfig,
    builtin_cases,
    builtin_names,
    case_by_name,
    relative_error,
    run_matrix,
)


class TestCaseCatalog:
    def test_names_and_order(self):
        assert builtin_names() == [
            "shortest-path", "minimum-drag", "parabolic", "cosine-source", "sine-source",
        ]
        assert [c.index for c in builtin_cases()] == [1, 2, 3, 4, 5]

    def test_lookup(self):
        assert case_by_name("minimum-drag").index == 2
        with pytest.raises(KeyError):
            case_by_name("brachistochrone")

    def test_exact_functional_values(self):
        values = {c.name: c.j_exact_analytic for c in builtin_cases()}
        assert values["shortest-path"] == pytest.approx(2 * math.sqrt(2), rel=1e-15)
        assert values["minimum-drag"] == 27.0 / 64.0
        assert values["parabolic"] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert values["cosine-source"] == pytest.approx(4 / math.pi - math.pi / 2, rel=1e-14)
        assert values["sine-source"] == pytest.approx(1 / math.tan(1) - 2 / 3, rel=1e-14)

    def test_parabolic_case_records_published_value_separately(self):
        case = case_by_name("parabolic")
        assert case.j_paper_reported == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert case.j_exact_analytic != case.j_paper_reported

    def test_exact_solutions_satisfy_boundary_conditions(self):
        for case in builtin_cases():
            bc = case.problem.bc
            y, _ = case.exact_solution(np.array([bc.x_a, bc.x_b]))
            assert abs(y[0] - bc.y_a) < 1e-12
            assert abs(y[1] - bc.y_b) < 1e-12

    def test_exact_derivatives_match_finite_differences(self):
        for case in builtin_cases():
            bc = case.problem.bc
            xs = np.linspace(bc.x_a, bc.x_b, 13)[1:-1]
            h = 1e-7
            _, dy = case.exact_solution(xs)
            fd = (case.exact_solution(xs + h)[0] - case.exact_solution(xs - h)[0]) / (2 * h)
            assert np.allclose(dy, fd, rtol=1e-5, atol=1e-6)


class TestRelativeError:
    def test_sign_convention(self):
        # (exact - network) / exact: overshoot is negative
        assert relative_error(2.8284, 2.8285) == pytest.approx(-3.5356e-5, rel=1e-3)
        assert relative_error(2.0, 1.0) == 0.5
        assert relative_error(-2.0, -1.0) == 0.5

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateReferenceError):
            relative_error(0.0, 1.0)


class TestRunMatrix:
    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            run_matrix([], structures=["Poly-3"])
        with pytest.raises(ValueError):
            run_matrix(builtin_cases()[:1], structures=[])

    @pytest.mark.parametrize("n_seeds", [0, -1, 1.5, True])
    def test_rejects_a_seed_count_below_one_or_no_integer(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds must be a positive integer"):
            run_matrix(builtin_cases()[:1], structures=["Poly-3"], n_seeds=n_seeds)

    @pytest.mark.parametrize("parallel", [0, -3, 2.5, True])
    def test_rejects_a_parallel_below_one_or_no_integer(self, parallel):
        with pytest.raises(ValueError, match="parallel must be a positive integer"):
            run_matrix(builtin_cases()[:1], structures=["Poly-3"], parallel=parallel)

    def test_small_matrix(self):
        config = TrainConfig(steps=300, grid_n=100, record_every=100)
        report = run_matrix(builtin_cases()[:1], structures=["Pade-[5/5]", "Poly-3"],
                            config=config)
        assert [r.structure for r in report.rows] == ["Pade-[5/5]", "Poly-3"]
        row = report.rows[0]
        assert (row.case_index, row.case_name) == (1, "shortest-path")
        assert row.n_params == 12
        assert row.status == "max_steps"
        assert row.j_exact == pytest.approx(2 * math.sqrt(2), rel=1e-15)
        assert row.rel_error == pytest.approx((row.j_exact - row.j_final) / row.j_exact, rel=1e-12)
        assert report.rows_for_case(1) == report.rows

    def test_parallel_matches_serial(self):
        config = TrainConfig(steps=150, grid_n=64, record_every=50)
        cases = builtin_cases()[3:]
        serial = run_matrix(cases, structures=["Poly-3"], config=config)
        threaded = run_matrix(cases, structures=["Poly-3"], config=config, parallel=4)
        assert [r.j_final for r in serial.rows] == [r.j_final for r in threaded.rows]
        assert [(r.case_index, r.structure) for r in serial.rows] == [
            (r.case_index, r.structure) for r in threaded.rows
        ]

    def test_multi_seed_uses_median_run(self):
        config = TrainConfig(steps=150, grid_n=64, record_every=50, seed=0)
        report = run_matrix(builtin_cases()[4:], structures=["Poly-3"], config=config, n_seeds=3)
        row = report.rows[0]
        singles = [
            run_matrix(builtin_cases()[4:], structures=["Poly-3"],
                       config=TrainConfig(steps=150, grid_n=64, record_every=50, seed=s)).rows[0]
            for s in (0, 1, 2)
        ]
        finals = sorted(r.j_final for r in singles)
        assert row.j_final == finals[1]
