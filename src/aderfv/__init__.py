"""One-step high-order finite-volume solver for 1-D hyperbolic balance laws.

The scheme combines WENO reconstruction, an implicit-Taylor space-time
predictor (stiff-source capable), and a centred alpha-split path-conservative
update, with a von Neumann stability analyzer and a mesh-refinement harness.
"""
from .grid import (
    CellField,
    Grid,
    QuadratureRule,
    RunConfig,
    error_norms,
    gauss_legendre,
    gauss_lobatto,
    observed_order,
)
from .predictor import PredictorError, PredictorTable, build_predictor_tables
from .solver import (
    ConvergenceRow,
    RunReport,
    StepReport,
    compute_dt,
    convergence_study,
    initial_field,
    run,
    step,
)
from .systems import (
    SystemDescriptor,
    conserved_to_primitive,
    euler_ideal_gas,
    leveque_yee,
    linear_system,
    noncons_system,
    primitive_to_conserved,
    scalar_advection_reaction,
)
from .vonneumann import StabilityQuery, stability_fraction, stability_map
from .weno import reconstruct_batch

__version__ = "0.1.0"

__all__ = [
    "CellField",
    "ConvergenceRow",
    "Grid",
    "PredictorError",
    "PredictorTable",
    "QuadratureRule",
    "RunConfig",
    "RunReport",
    "StabilityQuery",
    "StepReport",
    "SystemDescriptor",
    "build_predictor_tables",
    "compute_dt",
    "conserved_to_primitive",
    "convergence_study",
    "error_norms",
    "euler_ideal_gas",
    "gauss_legendre",
    "gauss_lobatto",
    "initial_field",
    "leveque_yee",
    "linear_system",
    "noncons_system",
    "observed_order",
    "primitive_to_conserved",
    "reconstruct_batch",
    "run",
    "scalar_advection_reaction",
    "stability_fraction",
    "stability_map",
    "step",
]
