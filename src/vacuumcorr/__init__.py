"""Finite-dimensional operator-algebra workbench.

Models a net of local algebras as tensor factors, certifies
cyclic/separating properties of a vacuum analog, runs the constructive
root-certificate pipeline with its full eps-budget, and verifies the EPR
and Bell correlation results up to the Tsirelson bound.
"""

from .linalg import EigenSystem, hermitian_eig, operator_norm
from .local_algebra import (
    LocalOperator,
    RegionLayout,
    VacuumModel,
    check_cyclic,
    check_separating,
    make_vacuum,
    random_projector,
    vacuum_positivity,
)
from .root_theorem import (
    EpsilonBudget,
    ProjectorDecomposition,
    RootCertificate,
    StageFailure,
    combined_window,
    expectation_window,
    normalize_approximant,
    positive_spectral_decomposition,
    prove_root_certificate,
    rescale_to_unit_vacuum,
    select_extremal_projectors,
    solve_cyclic_approx,
)
from .correlations import (
    SQRT2,
    BellReport,
    BellSettings,
    bell_correlation,
    bell_operator,
    canonical_max_violation,
    conditional_bell_correlation,
    contraction_from_projector,
    epr_projector_pair,
    general_contraction_extension,
    seesaw_maximize,
    tsirelson_certificate,
    violate_conditional_bell,
)
from .harness import (
    ConfigError,
    RunReport,
    ScenarioConfig,
    SweepTable,
    emit_report,
    run_scenario,
    sweep_eps,
)

__version__ = "0.1.0"

__all__ = [
    "BellReport",
    "BellSettings",
    "ConfigError",
    "EigenSystem",
    "EpsilonBudget",
    "LocalOperator",
    "ProjectorDecomposition",
    "RegionLayout",
    "RootCertificate",
    "RunReport",
    "ScenarioConfig",
    "SQRT2",
    "StageFailure",
    "SweepTable",
    "VacuumModel",
    "bell_correlation",
    "bell_operator",
    "canonical_max_violation",
    "check_cyclic",
    "check_separating",
    "combined_window",
    "conditional_bell_correlation",
    "contraction_from_projector",
    "emit_report",
    "epr_projector_pair",
    "expectation_window",
    "general_contraction_extension",
    "hermitian_eig",
    "make_vacuum",
    "normalize_approximant",
    "operator_norm",
    "positive_spectral_decomposition",
    "prove_root_certificate",
    "random_projector",
    "rescale_to_unit_vacuum",
    "run_scenario",
    "seesaw_maximize",
    "select_extremal_projectors",
    "solve_cyclic_approx",
    "sweep_eps",
    "tsirelson_certificate",
    "vacuum_positivity",
    "violate_conditional_bell",
]
