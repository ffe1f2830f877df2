"""Closed-form oracles at the top of the ladder.

Every vacuum ``make_vacuum`` builds has, across the cut its root pipelines use, a
coefficient matrix that is a scaled unitary: I / sqrt(d) across 0|1 on 2 slots, and
the Haar basis {f_ij} over sqrt(d1 d2) across 2|(0,1) on 3.  On such a vacuum the
paper's constructions are exact, so each scenario's answer follows from numpy alone:

* epr: P1 = conj(P2) (on the maximally entangled vector, X (x) 1 acts as 1 (x) X^T),
  <P1>_omega = <P1 P2>_omega = 1/d, and one eigenspace is kept, with weight 1;
* cond-bell: the conditional correlation is sqrt(2), <P3>_omega = 1/(d1 d2), and
  P3 = f f^† with f = sqrt(d1 d2) sum_ij conj(phi_ij) omega_ij, omega_ij the slot-2
  vector of omega at |ij>;
* root-cert: C = sqrt(d) Psi for psi's coefficient matrix Psi = U S V^†, so Q1 = C^† C
  has eigenvalues d S^2 and eigenvectors v_i, <P_i>_omega = rank(P_i) / d, and each
  ratio <A P_i> / <P_i> is v_i^† A^T v_i; P_max and P_min sit at the largest and
  smallest of them.  A computed eigenvector turns within its eigenvalue's gap by
  rounding over the gap (Davis-Kahan), so each ratio is compared times its gap: at
  the bottom of the spectrum of 512,512 two eigenvalues lie 1.3e-5 apart and that
  ratio reads 2.7e-11 off, 5e-15 times the gap.

The tolerances belong to these tests: each sits 3 or more times above the worst
rounding measured on these rungs, and none follows a later change's bits.
"""

import math

import numpy as np
import pytest

from vacuumcorr.harness import ScenarioConfig, _root_inputs, run_scenario
from vacuumcorr.local_algebra import make_vacuum
from vacuumcorr.root_theorem import certify_root, root_products

ENTRY_TOL = 1e-14  # a projector against its closed form, per entry
EXPECT_TOL = 1e-13  # d <P>_omega against its rank, a correlation against sqrt(2)
GAP_RATIO_TOL = 1e-13  # |<A P_i> / <P_i> - v_i^† A^T v_i| times v_i's eigenvalue gap
PICK_TOL = 1e-11  # the ratio of P_max (P_min) against the largest (smallest) ratio

# The 256-wide rungs at three seeds, the top rungs at seed 0.
RUNGS = [(256, 0), (256, 1), (256, 7), (512, 0)]
COND_RUNGS = [((16, 16, 256), 0), ((16, 16, 256), 1), ((16, 16, 256), 7), ((24, 24, 576), 0)]


def config(scenario: str, layout, seed: int, eps: float) -> ScenarioConfig:
    return ScenarioConfig.from_dict(
        {"scenario": scenario, "layout": list(layout), "seed": seed, "eps": eps})


def failed(report) -> int:
    return sum(not a["passed"] for a in report.assertions)


def epr_errors(d: int, seed: int) -> dict:
    report = run_scenario(config("epr", (d, d), seed, 0.01))
    epr = report.certificates["epr"]
    return {
        "failed": failed(report), "kept": len(epr.certificate.weights) - 1,
        "p1_conj_p2": np.abs(epr.p1.matrix - epr.p2.matrix.conj()).max(),
        "d_p1": abs(d * epr.p1_expect - 1.0),
        "d_p1p2": abs(d * epr.joint_expect - 1.0),
        "weight": abs(epr.certificate.weights[0] - 1.0),
    }


def cond_bell_errors(dims, seed: int) -> dict:
    d1, d2, d3 = dims
    report = run_scenario(config("cond-bell", dims, seed, 0.05))
    bell = report.certificates["bell"]
    # The scenario's psi is phi (x) e_0 on (0,1)|2; omega's rows across (0,1)|2 are omega_ij.
    phi = bell.state.reshape(d1 * d2, d3)[:, 0]
    rows = make_vacuum(report.config.region_layout(), seed).omega.reshape(d1 * d2, d3)
    f = math.sqrt(d1 * d2) * (rows.T @ phi.conj())
    cond = bell.conditional
    return {
        "failed": failed(report),
        "correlation": abs(cond.conditional_correlation - math.sqrt(2.0)),
        "d1d2_p3": abs(d1 * d2 * cond.p3_expect - 1.0),
        "p3_ff": np.abs(cond.p3.matrix - np.outer(f, f.conj())).max(),
    }


def root_cert_errors(d: int, seed: int) -> dict:
    cfg = config("root-cert", (d, d), seed, 0.01)
    a, psi, v = _root_inputs(cfg)
    products = root_products(a, psi, v, (0,))
    cert = certify_root(products, cfg.eps)
    _, s, vh = np.linalg.svd(psi.reshape(d, d))
    lam = d * s**2
    gaps = np.minimum(np.r_[np.inf, -np.diff(lam)], np.r_[-np.diff(lam), np.inf])
    # v_i^† A^T v_i for the rows v_i^† of V^†, in Q1's descending eigenvalue order.
    oracle = np.sum((vh @ a.matrix.T) * vh.conj(), axis=1).real
    ranks = np.array([b.shape[1] for b in products.spectrum.blocks])
    ratios = (products.aps / products.p_expects).real
    kept = oracle[:len(cert.weights)]

    def ratio(p):
        return float(np.sum(a.matrix * p.matrix).real / np.trace(p.matrix).real)

    return {
        "eigenvalues": np.abs(products.spectrum.values - lam).max(),
        "d_p_i": np.abs(d * products.p_expects - ranks).max(),
        "ratios_times_gap": (np.abs(ratios - oracle) * gaps).max(),
        "p_max": abs(ratio(cert.p_max) - kept.max()),
        "p_min": abs(ratio(cert.p_min) - kept.min()),
    }


TOLERANCES = {
    "failed": 0, "kept": 0,
    "p1_conj_p2": ENTRY_TOL, "d_p1": EXPECT_TOL, "d_p1p2": EXPECT_TOL, "weight": EXPECT_TOL,
    "correlation": EXPECT_TOL, "d1d2_p3": EXPECT_TOL, "p3_ff": ENTRY_TOL,
    "eigenvalues": EXPECT_TOL, "d_p_i": EXPECT_TOL, "ratios_times_gap": GAP_RATIO_TOL,
    "p_max": PICK_TOL, "p_min": PICK_TOL,
}


def assert_within(errors: dict) -> None:
    over = {k: e for k, e in errors.items() if not e <= TOLERANCES[k]}
    assert not over, over


@pytest.mark.parametrize("d,seed", RUNGS)
def test_epr_is_exact(d, seed):
    assert_within(epr_errors(d, seed))


@pytest.mark.parametrize("dims,seed", COND_RUNGS, ids=[f"{d[2]}-{s}" for d, s in COND_RUNGS])
def test_cond_bell_is_exact(dims, seed):
    assert_within(cond_bell_errors(dims, seed))


@pytest.mark.parametrize("d,seed", RUNGS)
def test_root_cert_matches_the_svd(d, seed):
    assert_within(root_cert_errors(d, seed))
