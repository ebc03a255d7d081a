"""Boundary-conforming parametric approximators for 1-D fixed-endpoint
variational problems, trained with exact analytic gradients."""

from .boundary import (
    BoundaryCondition,
    BoundaryExponents,
    boundary_factor_jet,
    boundary_factor_many,
    compose_final,
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
    IntegrandEval,
    IntegrandExpr,
    eval_integrand,
    eval_integrand_many,
    parse_integrand,
)
from .families import (
    FamilySpec,
    Jet,
    eval_jet,
    family_jet_many,
    init_params,
    legendre_table,
    param_count,
    parse_structure,
)
from .loss import Plan, Problem, SampleGrid, functional_value, loss_and_grad, sample_grid
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

__all__ = [name for name in dir() if not name.startswith("_")]
