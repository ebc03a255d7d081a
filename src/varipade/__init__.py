"""Boundary-conforming parametric approximators for 1-D fixed-endpoint
variational problems, trained with exact analytic gradients."""

from types import ModuleType as _ModuleType

from .boundary import (
    BoundaryCondition,
    boundary_factor_many,
    compose_final_many,
    linear_interpolant,
)
from .errors import (
    DegenerateReferenceError,
    DomainError,
    EvaluationOverflowError,
    ExpressionSyntaxError,
    InvalidStructureError,
    PoleError,
    StructureSyntaxError,
    UnknownIdentifierError,
    VaripadeError,
)
from .expressions import (
    IntegrandExpr,
    eval_integrand_many,
    parse_integrand,
)
from .families import (
    FamilySpec,
    family_jet_many,
    init_params,
    legendre_table,
    param_count,
    parse_structure,
)
from .loss import Plan, Problem, SampleGrid, evaluate, functional_value, loss_and_grad, sample_grid
from .optimize import AdamState, TrainConfig, TrainReport, adam_step, sgd_step, train
from .problems import (
    BenchmarkCase,
    MatrixReport,
    MatrixRow,
    builtin_cases,
    builtin_names,
    case_by_name,
    relative_error,
    run_matrix,
)

__version__ = "0.1.0"

# the names imported above; the submodules stay importable but are not exported
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
