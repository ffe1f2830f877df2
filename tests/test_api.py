import copy
from dataclasses import fields, is_dataclass

import numpy as np

import vacuumcorr
from vacuumcorr import (
    LocalOperator,
    ProjectorDecomposition,
    RegionLayout,
    ScenarioConfig,
    make_vacuum,
    rescale_to_unit_vacuum,
    root_products,
    run_scenario,
    sweep_eps,
)

# The package's public names.  A change to the exports is a change to this list.
PUBLIC = [
    "BellReport", "BellSettings", "ConfigError", "EigenSystem", "EpsilonBudget",
    "LocalOperator", "ProjectorDecomposition", "RegionLayout", "RootCertificate",
    "RootProducts", "RunReport", "SQRT2", "ScenarioConfig", "StageFailure", "SweepTable",
    "VacuumModel", "bell_correlation", "canonical_max_violation",
    "certify_root", "emit_report", "epr_projector_pair",
    "hermitian_eig", "make_vacuum", "operator_norm",
    "prove_root_certificate", "random_projector", "rescale_to_unit_vacuum", "root_products",
    "run_scenario", "sweep_eps", "tsirelson_certificate",
    "vacuum_positivity", "violate_conditional_bell",
]


def test_public_names_are_pinned():
    assert vacuumcorr.__all__ == PUBLIC


# Records that hold an ndarray compare and hash by identity; the others by value.
IDENTITY_RECORDS = {
    "BellReport", "BellSettings", "ConditionalResult", "EPRReport", "EigenSystem",
    "LocalOperator", "ProjectorDecomposition", "RootCertificate", "RootProducts",
    "RunReport", "VacuumModel",
}
VALUE_RECORDS = {"EpsilonBudget", "RegionLayout", "ScenarioConfig", "SweepTable", "Tolerances"}


def _walk(value, records: list) -> bool:
    """True if ``value`` reaches an ndarray through dicts, lists, tuples and dataclass
    fields; appends each dataclass instance on the way with that answer."""
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any([_walk(v, records) for v in value])
    if is_dataclass(value) and not isinstance(value, type):
        reaches = any([_walk(getattr(value, f.name), records) for f in fields(value)])
        records.append((value, reaches))
        return reaches
    return False


def test_records_that_hold_arrays_compare_by_identity():
    objects = [run_scenario(ScenarioConfig.from_dict({"scenario": scenario, "layout": layout}))
               for scenario, layout in (
                   ("reeh-schlieder", [2, 2]), ("root-cert", [2, 2]), ("epr", [2, 2]),
                   ("bell-max", [2, 2]), ("tsirelson-sweep", [2, 2]), ("cond-bell", [2, 2, 4]))]
    v = make_vacuum(RegionLayout((2, 2)), 0)
    objects += [
        v,
        root_products(LocalOperator(1, np.diag([1.0, -1.0])), v.omega, v, (0,)),
        rescale_to_unit_vacuum(ProjectorDecomposition((0,), (2.0,), (np.eye(2),), 0.0), v),
        sweep_eps(ScenarioConfig.from_dict(
            {"scenario": "root-cert", "layout": [2, 2], "sweep": [0.1, 0.01]})),
    ]
    records: list = []
    for obj in objects:
        _walk(obj, records)
    # A class is an identity record if any of its instances reaches an array.
    identity = {type(x).__name__ for x, reaches in records if reaches}
    assert identity == IDENTITY_RECORDS
    assert {type(x).__name__ for x, _ in records} - identity == VALUE_RECORDS
    for x, _ in records:
        if type(x).__name__ in identity:
            assert type(x).__eq__ is object.__eq__ and type(x).__hash__ is object.__hash__
            assert x == x and hash(x) == hash(x)
            assert x != copy.copy(x)
        else:
            assert x == copy.copy(x)


def test_vacua_compare_by_identity_and_configs_by_value():
    layout = RegionLayout((3, 3))
    assert (make_vacuum(layout, 0) == make_vacuum(layout, 0)) is False
    d = {"scenario": "root-cert", "layout": [3, 3], "seed": 1, "eps": 0.05, "sweep": [0.1]}
    assert ScenarioConfig.from_dict(d) == ScenarioConfig.from_dict(d)
    assert hash(ScenarioConfig.from_dict(d)) == hash(ScenarioConfig.from_dict(d))
