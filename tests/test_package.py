"""The package's public surface, the benchmark's use of the library, and the demos."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import varipade

ROOT = Path(__file__).resolve().parents[1]

# the exported names: the single-point evaluators are not among them, since a
# one-point array through the vectorized functions does their job
PUBLIC = """
    AdamState BenchmarkCase BoundaryCondition DegenerateReferenceError
    DomainError EvaluationOverflowError ExpressionSyntaxError FamilySpec IntegrandExpr
    InvalidStructureError MatrixReport MatrixRow Plan PoleError Problem SampleGrid
    StructureSyntaxError TrainConfig TrainReport UnknownIdentifierError VaripadeError
    adam_step boundary_factor_many builtin_cases builtin_names case_by_name
    compose_final_many eval_integrand_many family_jet_many functional_value init_params
    legendre_table linear_interpolant loss_and_grad param_count parse_integrand
    parse_structure relative_error run_matrix sample_grid sgd_step train
""".split()


def test_star_import_exports_the_public_names_and_no_module():
    namespace = {}
    exec("from varipade import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(varipade.__all__) == sorted(PUBLIC)
    assert [name for name, value in namespace.items() if isinstance(value, types.ModuleType)] == []


def test_benchmark_smoke_run_passes():
    # perfbench/ wraps library attributes by name and calls the library directly,
    # so a refactor that renames or re-signs one of them fails here
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: ok"


@pytest.mark.parametrize("structure", ["Pade-[2/2]", "RBF-[3]", "Leg-4", "Poly-3", "MLP-[[3,tanh]]"])
def test_every_step_goes_through_the_traced_names(structure, monkeypatch):
    # perfbench/tracing.py times a step by wrapping these names where the
    # library looks them up; a step that bypassed one would empty its span
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(varipade.optimize, "adam_step")
    counted(varipade.optimize, "loss_and_grad")
    counted(varipade.loss, "eval_integrand_many")
    steps = 7
    case = varipade.case_by_name("sine-source")
    config = varipade.TrainConfig(steps=steps, grid_n=50, precondition=True)
    report = varipade.train(case.problem, varipade.parse_structure(structure), config)
    assert report.status == "max_steps"
    assert calls == {"adam_step": steps, "loss_and_grad": steps + 1, "eval_integrand_many": steps + 1}


@pytest.mark.parametrize("demo", ["shortest_path.py", "custom_problem.py"])
def test_demo_runs(demo):
    # each demo ends in an assert on its answer; family_comparison.py is left out,
    # since it takes about ten seconds and writes an SVG next to itself
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
