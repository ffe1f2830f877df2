"""Acceptance gate: every headline result at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s or in the
captured output of a failing run) and asserts the same condition.
"""

import math
import time

import numpy as np

from conftest import bell_oracle, embed_oracle, random_state

from vacuumcorr.correlations import (
    SQRT2,
    BellSettings,
    bell_correlation,
    canonical_max_violation,
    epr_projector_pair,
    seesaw_starts,
    violate_conditional_bell,
)
from vacuumcorr.harness import ScenarioConfig, render_report, run_scenario
from vacuumcorr.linalg import PROJECTOR_FLOOR, operator_norm, random_hermitian, schmidt_values
from vacuumcorr.local_algebra import (
    LocalOperator,
    RegionLayout,
    VacuumModel,
    make_vacuum,
    random_projector,
)
from vacuumcorr.root_theorem import prove_root_certificate

L22 = RegionLayout((2, 2))
L224 = RegionLayout((2, 2, 4))


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _random_settings(layout: RegionLayout, seed: int) -> BellSettings:
    rng = np.random.default_rng(seed)
    ops = []
    for slot in (0, 0, 1, 1):
        d = layout.dims[slot]
        rank = int(rng.integers(1, d + 1))
        p = random_projector(layout, slot, rank, int(rng.integers(0, 10**6)))
        ops.append(LocalOperator(p.slots, 2.0 * p.matrix - np.eye(p.dim)))
    return BellSettings(a1=ops[0], a2=ops[1], b1=ops[2], b2=ops[3])


def test_criterion_1_tsirelson_bound():
    start = time.perf_counter()
    worst_norm = -math.inf
    for seed in range(100):
        s = _random_settings(L22, seed)
        worst_norm = max(worst_norm, 0.5 * operator_norm(bell_oracle(
            s.a1.matrix, s.a2.matrix, s.b1.matrix, s.b2.matrix, L22.dims)))
    state, _ = canonical_max_violation(L22)
    worst_beta = max(
        beta for beta, _, _ in seesaw_starts(schmidt_values(state, L22.dims, 0), range(20))
    )
    elapsed = time.perf_counter() - start
    ok = (
        worst_norm <= SQRT2 + 1e-9
        and worst_beta <= SQRT2 + 1e-7
        and elapsed < 5.0
    )
    _verdict(
        "criterion 1 (tsirelson bound)",
        ok,
        f"max half-norm {worst_norm:.12f}, max beta {worst_beta:.12f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_maximal_violation():
    state, settings = canonical_max_violation(L22)
    value = bell_correlation(settings, state, L22)
    best = max(beta for beta, _, _ in
               seesaw_starts(schmidt_values(state, L22.dims, 0), range(20)))
    ok = abs(value - SQRT2) <= 1e-9 and best >= SQRT2 - 1e-6
    _verdict(
        "criterion 2 (maximal violation)",
        ok,
        f"canonical {value:.12f}, see-saw best {best:.12f}",
    )


def test_criterion_3_root_theorem():
    start = time.perf_counter()
    v = make_vacuum(L22, seed=0)
    eps = 0.01
    tol = 1e-9
    bounds_by_stage = {
        "cyclic_residual": "eps1",
        "normalized_error": "eps2",
        "window_error": "eps3",
        "decomposition_residual": "eps4_tilde",
        "rescale_error": "eps4",
        "combined_error": "eps5",
    }
    failures = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        a = LocalOperator(1, random_hermitian(2, rng))
        psi = random_state(4, rng)
        cert = prove_root_certificate(a, psi, v, (0,), eps)
        # Re-verify both inequalities from scratch with the elementwise
        # embedding oracle.
        ea = embed_oracle(a.matrix, 1, (2, 2))
        k = float(np.vdot(psi, ea @ psi).real)
        for proj, sign, strict_greater in (
            (cert.p_max, -1.0, True), (cert.p_min, +1.0, False),
        ):
            ep = embed_oracle(proj.matrix, 0, (2, 2))
            lhs = float(np.vdot(v.omega, ea @ ep @ v.omega).real)
            rhs = (k + sign * eps) * float(np.vdot(v.omega, ep @ v.omega).real)
            if strict_greater and not lhs > rhs:
                failures.append((seed, "max", lhs, rhs))
            if not strict_greater and not lhs < rhs:
                failures.append((seed, "min", lhs, rhs))
        for stage, bound_name in bounds_by_stage.items():
            bound = getattr(cert.budget, bound_name)
            if cert.achieved[stage] > bound + tol:
                failures.append((seed, stage, cert.achieved[stage], bound))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _verdict(
        "criterion 3 (root theorem)",
        ok,
        f"200 certificates re-verified, {len(failures)} failures, {elapsed:.2f}s",
    )


def test_criterion_4_epr_correlation():
    v = make_vacuum(L22, seed=0)
    eps = 1e-3
    failures = 0
    for rank in (1, 2):
        for seed in range(50):
            p2 = random_projector(L22, 1, rank, seed)
            _, report = epr_projector_pair(p2, v.omega, v, eps)
            # The upper inequality is exact (P1 P2 <= P1 as operators), so
            # it is checked at the floating-point noise floor; the lower
            # EPR inequality must hold strictly.
            chain = (
                report.joint_expect <= report.p1_expect + 1e-12
                and report.joint_expect > (1.0 - eps) * report.p1_expect
                and report.p1_expect > 0.0
            )
            failures += not chain
    _verdict(
        "criterion 4 (epr correlation)",
        failures == 0,
        f"100 projector pairs, {failures} chain failures",
    )


def test_criterion_5_conditional_bell():
    start = time.perf_counter()
    v = make_vacuum(L224, seed=0)
    eps = 0.05
    report = violate_conditional_bell(L224, v, eps)
    cond = report.conditional
    # Independent recomputation from the returned operators.
    r = bell_oracle(*(op.matrix for op in (report.settings.a1, report.settings.a2,
                                            report.settings.b1, report.settings.b2)), L224.dims)
    ep3 = embed_oracle(cond.p3.matrix, 2, (2, 2, 4))
    recomputed = (
        0.5 * float(np.vdot(v.omega, r @ ep3 @ v.omega).real)
        / float(np.vdot(v.omega, ep3 @ v.omega).real)
    )
    elapsed = time.perf_counter() - start
    ok = (
        cond.conditional_correlation > SQRT2 - eps
        and abs(recomputed - cond.conditional_correlation) <= 1e-9
        and elapsed < 5.0
    )
    _verdict(
        "criterion 5 (conditional bell)",
        ok,
        f"conditional {cond.conditional_correlation:.12f} vs "
        f"{SQRT2 - eps:.12f}, recompute gap "
        f"{abs(recomputed - cond.conditional_correlation):.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_cyclic_separating():
    checks = []
    for layout in (L22, L224):
        v = make_vacuum(layout, seed=0)
        regions = [(s,) for s in range(layout.n_slots)]
        if layout.n_slots == 3:
            regions.append((0, 1))
        for region in regions:
            # Separating: Schmidt rank = the region's dimension, and no one of
            # five random norm-1 operators on the region annihilates omega.
            rng = np.random.default_rng(1)
            d = layout.region_dim(region)
            trials = [random_hermitian(d, rng) for _ in range(5)]
            checks.append(v.schmidt_rank(region) == d and all(
                np.linalg.norm(LocalOperator(region, a / operator_norm(a)).apply(v.omega, layout))
                > PROJECTOR_FLOOR for a in trials))
            # Cyclicity is attainable exactly where the region matches its
            # complement in dimension; elsewhere the Schmidt rank is capped
            # below the complement dimension for every vector.
            comp_dim = layout.region_dim(layout.complement(region))
            if layout.region_dim(region) == comp_dim:
                checks.append(v.schmidt_rank(region) == comp_dim)
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0
    counter = VacuumModel.from_vector(L22, product)
    checks.append(counter.schmidt_rank((0,)) < 2)
    _verdict(
        "criterion 6 (cyclic/separating)",
        all(checks),
        f"{sum(checks)}/{len(checks)} checks passed",
    )


def test_criterion_7_classical_ceiling():
    rng = np.random.default_rng(0)
    worst = -math.inf
    for seed in range(100):
        s = _random_settings(L22, 7000 + seed)
        degenerate = BellSettings(a1=s.a1, a2=s.a2, b1=s.b1, b2=s.b1)
        psi = random_state(4, rng)
        worst = max(worst, abs(bell_correlation(degenerate, psi, L22)))
    _verdict(
        "criterion 7 (classical ceiling)",
        worst <= 1.0 + 1e-9,
        f"max |correlation| {worst:.12f} over 100 states and settings",
    )


def test_criterion_8_determinism():
    configs = [
        ("reeh-schlieder", [2, 2]),
        ("root-cert", [2, 2]),
        ("epr", [2, 2]),
        ("bell-max", [2, 2]),
        ("tsirelson-sweep", [2, 2]),
        ("cond-bell", [2, 2, 4]),
    ]
    mismatches = []
    for scenario, layout in configs:
        cfg = ScenarioConfig.from_dict({
            "scenario": scenario, "layout": layout, "seed": 13, "eps": 0.05,
        })
        first = render_report(run_scenario(cfg), "json")
        second = render_report(run_scenario(cfg), "json")
        if first != second:
            mismatches.append(scenario)
    _verdict(
        "criterion 8 (determinism)",
        not mismatches,
        f"byte-identical reports for all {len(configs)} scenarios"
        if not mismatches else f"mismatches: {mismatches}",
    )
