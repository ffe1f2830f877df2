"""Finite-dimensional operator-algebra workbench.

Models a net of local algebras as tensor factors, certifies
cyclic/separating properties of a vacuum analog, runs the constructive
root-certificate pipeline with its full eps-budget, and verifies the EPR
and Bell correlation results up to the Tsirelson bound.
"""

import types

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
    RootProducts,
    StageFailure,
    certify_root,
    prove_root_certificate,
    rescale_to_unit_vacuum,
    root_products,
)
from .correlations import (
    SQRT2,
    BellReport,
    BellSettings,
    bell_correlation,
    bell_operator,
    canonical_max_violation,
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

# Every name imported above: the public names, without the submodules.
__all__ = sorted(name for name, value in list(globals().items())
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
