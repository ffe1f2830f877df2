import vacuumcorr

# The package's public names.  A change to the exports is a change to this list.
PUBLIC = [
    "BellReport", "BellSettings", "ConfigError", "EigenSystem", "EpsilonBudget",
    "LocalOperator", "ProjectorDecomposition", "RegionLayout", "RootCertificate",
    "RootProducts", "RunReport", "SQRT2", "ScenarioConfig", "StageFailure", "SweepTable",
    "VacuumModel", "bell_correlation", "bell_operator", "canonical_max_violation",
    "certify_root", "check_cyclic", "check_separating", "conditional_bell_correlation",
    "contraction_from_projector", "emit_report", "epr_projector_pair",
    "general_contraction_extension", "hermitian_eig", "make_vacuum", "operator_norm",
    "prove_root_certificate", "random_projector", "rescale_to_unit_vacuum", "root_products",
    "run_scenario", "seesaw_maximize", "sweep_eps", "tsirelson_certificate",
    "vacuum_positivity", "violate_conditional_bell",
]


def test_public_names_are_pinned():
    assert vacuumcorr.__all__ == PUBLIC
