"""Constructive approximation pipeline producing root certificates.

Given a self-adjoint A on one region, a unit vector psi with
<A>_psi = K, and a target eps, the pipeline produces projectors P_max
and P_min on a disjoint region such that

    <A P_max>_omega > (K - eps) <P_max>_omega     and
    <A P_min>_omega < (K + eps) <P_min>_omega.

Every intermediate stage is exposed with its explicit error bound so the
whole eps-budget chain can be checked numerically:

    eps2 = 2 eps1 / (1 - eps1)
    eps3 = (eps2^2 + 2 eps2) ||A||
    eps4 = (||Q1|| + 1) eps4_tilde / <Q1'~>_omega
    eps5 = eps3 + ||A|| eps4
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg
from .linalg import NOISE_TOL, PROJECTOR_FLOOR, as_state, hermitian_eig, operator_norm, projector
from .local_algebra import LocalOperator, VacuumModel, check_cyclic

SPECTRAL_TAU = 1e-12
BUDGET_TOL = 1e-9
# Slack on sum(weights) = 1, which the rescaled weights miss by rounding.
WEIGHTS_TOL = 1e-9


class StageFailure(RuntimeError):
    """A pipeline stage missed its error bound (signals an upstream bug)."""

    def __init__(self, stage: str, message: str, **values: float):
        self.stage = stage
        self.values = values
        detail = ", ".join(f"{k}={v!r}" for k, v in values.items())
        super().__init__(f"[{stage}] {message}" + (f" ({detail})" if detail else ""))


def _off(got: float, want: float, tol: float) -> bool:
    """True if ``got`` misses the formula value ``want`` beyond relative ``tol``."""
    return abs(got - want) > tol * max(1.0, abs(want))


@dataclass(frozen=True)
class EpsilonBudget:
    """The chained stage tolerances eps1..eps5 with their inputs."""

    eps1: float
    eps2: float
    eps3: float
    eps4: float
    eps5: float
    norm_a: float
    q_norm: float
    q_expect: float
    eps4_tilde: float

    def __post_init__(self):
        if not 0 < self.eps1 < 1:
            raise ValueError(f"eps1 must lie in (0, 1), got {self.eps1}")
        for name in ("eps2", "eps3", "eps4", "eps5"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        self.validate(BUDGET_TOL)

    def validate(self, tol: float) -> None:
        checks = [
            ("eps2", self.eps2, 2.0 * self.eps1 / (1.0 - self.eps1)),
            ("eps3", self.eps3, (self.eps2**2 + 2.0 * self.eps2) * self.norm_a),
            ("eps4", self.eps4, (self.q_norm + 1.0) * self.eps4_tilde / self.q_expect),
            ("eps5", self.eps5, self.eps3 + self.norm_a * self.eps4),
        ]
        for name, got, want in checks:
            if _off(got, want, tol):
                raise ValueError(f"budget inconsistency: {name}={got}, formula gives {want}")

    @staticmethod
    def eps2_from_eps1(eps1: float) -> float:
        return 2.0 * eps1 / (1.0 - eps1)

    @staticmethod
    def eps2_from_eps3(eps3: float, norm_a: float) -> float:
        """Closed-form eps2 achieving a requested eps3 for given ||A||:
        the exact inverse of eps3 = (eps2^2 + 2 eps2) ||A||."""
        return -1.0 + math.sqrt(1.0 + eps3 / norm_a)

    @staticmethod
    def eps1_from_eps2(eps2: float) -> float:
        return eps2 / (2.0 + eps2)


@dataclass(frozen=True)
class ProjectorDecomposition:
    """Positive combination sum_i lambda_i P_i of orthogonal projectors
    approximating Q1, each P_i = B_i B_i^† held as its block B_i of
    orthonormal eigenvectors (region_dim x rank)."""

    slots: tuple[int, ...]
    coeffs: tuple[float, ...]
    blocks: tuple[np.ndarray, ...]
    residual: float  # achieved ||Q1 - Q1'~||
    q: Optional[np.ndarray] = None  # the decomposed Q1 = C^† C, when built from C
    q_expect: float = 1.0  # <Q1'~>_omega the coefficients were divided by

    def __post_init__(self):
        if any(c <= 0 for c in self.coeffs):
            raise ValueError("all coefficients must be positive")
        if len(self.coeffs) != len(self.blocks):
            raise ValueError("coefficients and blocks must pair up")

    @property
    def is_degenerate(self) -> bool:
        return len(self.coeffs) == 0

    def local_matrix(self) -> np.ndarray:
        """sum_i lambda_i P_i as one product (V lambda) V^† over the
        concatenated blocks V, with lambda_i repeated per column of B_i."""
        if self.is_degenerate:
            raise StageFailure("spectral", "empty (degenerate) decomposition")
        vecs = np.hstack(self.blocks)
        lam = np.repeat(self.coeffs, [b.shape[1] for b in self.blocks])
        m = (vecs * lam) @ vecs.conj().T
        return 0.5 * (m + m.conj().T)

    def overlaps(self, v: VacuumModel, x) -> np.ndarray:
        """<omega, (P_i (x) 1) x> for every i, as vdot(B_i^† W, B_i^† X) with W
        and X the coefficient matrices of omega and x across slots|rest: the
        per-column products of V^† W and V^† X, summed over each block."""
        vh = np.hstack(self.blocks).conj().T
        w, xm = (vh @ linalg.coefficient_matrix(y, v.layout.dims, self.slots)
                 for y in (v.omega, x))
        starts = np.cumsum([0] + [b.shape[1] for b in self.blocks[:-1]])
        return np.add.reduceat(np.sum(w.conj() * xm, axis=1), starts)


@dataclass(frozen=True)
class ExtremalProjectors:
    p_max: LocalOperator
    p_min: LocalOperator
    ratio_max: float
    ratio_min: float
    weights: tuple[float, ...]
    ap_max: float  # <A P_max>_omega
    p_max_expect: float  # <P_max>_omega
    ap_min: float  # <A P_min>_omega
    p_min_expect: float  # <P_min>_omega


@dataclass(frozen=True)
class RootCertificate:
    """Output of the full pipeline; every claim is recomputable from it."""

    target_k: float
    requested_eps: float
    p_max: LocalOperator
    p_min: LocalOperator
    lhs_max: float
    rhs_max: float
    lhs_min: float
    rhs_min: float
    budget: EpsilonBudget
    weights: tuple[float, ...]
    achieved: dict[str, float]

    def __post_init__(self):
        if not self.lhs_max > self.rhs_max:
            raise StageFailure("certificate", "max inequality violated",
                               lhs=self.lhs_max, rhs=self.rhs_max)
        if not self.lhs_min < self.rhs_min:
            raise StageFailure("certificate", "min inequality violated",
                               lhs=self.lhs_min, rhs=self.rhs_min)
        if abs(sum(self.weights) - 1.0) > WEIGHTS_TOL:
            raise StageFailure("certificate", "weights do not sum to 1", total=sum(self.weights))


def solve_cyclic_approx(
    psi, v: VacuumModel, slots, eps1: float
) -> tuple[LocalOperator, float]:
    """Find C on the region with ||psi - embed(C) omega|| <= eps1.

    Solved exactly: embed(C) omega is linear in C, and for a cyclic vacuum
    the map from region operators onto the whole space is surjective, so
    the least-squares residual sits at numerical noise level.  Returns
    (C~, achieved residual).
    """
    psi = as_state(psi)
    slots = linalg._normalize_slots(slots)
    if not check_cyclic(v, slots):
        raise ValueError(f"vacuum is not cyclic for region {slots}")
    omega_mat = linalg.coefficient_matrix(v.omega, v.layout.dims, slots)
    psi_mat = linalg.coefficient_matrix(psi, v.layout.dims, slots)
    # C @ omega_mat = psi_mat  <=>  omega_mat.T @ C.T = psi_mat.T
    sol, *_ = np.linalg.lstsq(omega_mat.T, psi_mat.T, rcond=None)
    c_tilde = LocalOperator(slots, sol.T)
    residual = float(np.linalg.norm(c_tilde.apply(v.omega, v.layout) - psi))
    if residual > eps1:
        raise StageFailure(
            "cyclic-approx", "residual exceeds eps1", achieved=residual, bound=eps1
        )
    return c_tilde, residual


def normalize_approximant(
    c_tilde: LocalOperator, psi, v: VacuumModel, eps1: float
) -> tuple[LocalOperator, float]:
    """Rescale C~ so ||C omega|| = 1; the error grows to at most
    eps2 = 2 eps1 / (1 - eps1).  Returns (C, achieved error)."""
    psi = as_state(psi)
    nrm = float(np.linalg.norm(c_tilde.apply(v.omega, v.layout)))
    if nrm <= PROJECTOR_FLOOR:
        raise ValueError("||C~ omega|| is at the numerical floor; vacuum not separating?")
    if nrm <= 1.0 - eps1:
        raise StageFailure(
            "normalize", "||C~ omega|| <= 1 - eps1", norm=nrm, bound=1.0 - eps1
        )
    c = LocalOperator(c_tilde.slots, c_tilde.matrix / nrm)
    achieved = float(np.linalg.norm(c.apply(v.omega, v.layout) - psi))
    eps2 = EpsilonBudget.eps2_from_eps1(eps1)
    if achieved > eps2:
        raise StageFailure(
            "normalize", "error exceeds eps2", achieved=achieved, bound=eps2
        )
    return c, achieved


def expectation_window(
    a: LocalOperator, c: LocalOperator, v: VacuumModel, k: float, eps3: float
) -> float:
    """<A>_{C omega}, certified to lie in the open window (K - eps3, K + eps3)."""
    if set(a.slots) & set(c.slots):
        raise ValueError(f"regions overlap: {a.slots} vs {c.slots}")
    state = c.apply(v.omega, v.layout)
    state = state / np.linalg.norm(state)
    val = complex(np.vdot(state, a.apply(state, v.layout)))
    if abs(val.imag) > NOISE_TOL:
        raise StageFailure("window", "non-real expectation of Hermitian A", imag=val.imag)
    value = float(val.real)
    if not (k - eps3 < value < k + eps3):
        raise StageFailure(
            "window", "expectation outside eps3 window",
            value=value, lower=k - eps3, upper=k + eps3,
        )
    return value


def positive_spectral_decomposition(
    c: LocalOperator, tau: float = SPECTRAL_TAU
) -> ProjectorDecomposition:
    """Spectral decomposition of Q1 = C^† C keeping eigenvalues above tau.

    The residual is the largest dropped eigenvalue (at most tau), so
    ||Q1 - Q1'~|| <= tau by construction.  The result keeps Q1 as ``q``.
    """
    q = c.matrix.conj().T @ c.matrix
    es = hermitian_eig(q)
    coeffs = []
    blocks = []
    dropped = [0.0]
    for lam, block in zip(es.eigenvalues, es.blocks):
        if lam > tau:
            coeffs.append(float(lam))
            blocks.append(block)
        else:
            dropped.append(abs(lam))
    return ProjectorDecomposition(
        c.slots, tuple(coeffs), tuple(blocks), residual=max(dropped), q=q
    )


def rescale_to_unit_vacuum(
    dec: ProjectorDecomposition, v: VacuumModel
) -> ProjectorDecomposition:
    """Divide the coefficients by <Q1'~>_omega so <Q1'>_omega = 1; the
    result records the divisor as ``q_expect``."""
    if dec.is_degenerate:
        raise StageFailure("rescale", "degenerate decomposition (Q1 = 0)")
    q_expect = float(np.dot(dec.coeffs, dec.overlaps(v, v.omega)).real)
    if q_expect <= PROJECTOR_FLOOR:
        raise ValueError(
            f"<Q1'~>_omega = {q_expect} at the floor; vacuum not separating for {dec.slots}"
        )
    coeffs = tuple(c / q_expect for c in dec.coeffs)
    return replace(dec, coeffs=coeffs, q_expect=q_expect)


def combined_window(
    a: LocalOperator, dec: ProjectorDecomposition, v: VacuumModel, k: float, eps5: float
) -> float:
    """<A Q1'>_omega, certified to lie in (K - eps5, K + eps5)."""
    if set(a.slots) & set(dec.slots):
        raise ValueError(f"regions overlap: {a.slots} vs {dec.slots}")
    val = complex(np.dot(dec.coeffs, dec.overlaps(v, a.apply(v.omega, v.layout))))
    if abs(val.imag) > NOISE_TOL:
        raise StageFailure("combined", "non-real expectation of commuting product", imag=val.imag)
    value = float(val.real)
    if not (k - eps5 < value < k + eps5):
        raise StageFailure(
            "combined", "expectation outside eps5 window",
            value=value, lower=k - eps5, upper=k + eps5,
        )
    return value


def select_extremal_projectors(
    a: LocalOperator, dec: ProjectorDecomposition, v: VacuumModel
) -> ExtremalProjectors:
    """Pick the projectors with extremal vacuum ratios <A P_i> / <P_i>.

    Weights w_i = lambda_i <P_i>_omega form a convex combination whose
    value is <A Q1'>_omega, so the max ratio dominates it and the min
    ratio is dominated by it.  Ties break toward the lowest index.
    """
    if dec.is_degenerate:
        raise StageFailure("extremal", "empty decomposition")
    p_expects = dec.overlaps(v, v.omega).real.tolist()
    for p_expect in p_expects:
        if p_expect <= PROJECTOR_FLOOR:
            raise StageFailure("extremal", "<P_i>_omega at the floor", value=p_expect)
    aps = dec.overlaps(v, a.apply(v.omega, v.layout)).real.tolist()
    ratios = [ap / p for ap, p in zip(aps, p_expects)]
    i_max = int(np.argmax(ratios))
    i_min = int(np.argmin(ratios))
    # One operator when both picks are the same block.
    picks = {i: LocalOperator(dec.slots, projector(dec.blocks[i])) for i in {i_max, i_min}}
    return ExtremalProjectors(
        p_max=picks[i_max],
        p_min=picks[i_min],
        ratio_max=ratios[i_max],
        ratio_min=ratios[i_min],
        weights=tuple(lam * p for lam, p in zip(dec.coeffs, p_expects)),
        ap_max=aps[i_max],
        p_max_expect=p_expects[i_max],
        ap_min=aps[i_min],
        p_min_expect=p_expects[i_min],
    )


def prove_root_certificate(
    a: LocalOperator,
    psi,
    v: VacuumModel,
    slots,
    eps: float,
    tau: float = SPECTRAL_TAU,
) -> RootCertificate:
    """Run the full pipeline and return a verified certificate.

    The requested eps is split evenly between the expectation window
    (eps3 = eps/2) and the decomposition term (||A|| eps4 = eps/2);
    eps1 is then derived through the closed-form eps2.
    """
    psi = as_state(psi)
    slots = linalg._normalize_slots(slots)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if set(a.slots) & set(slots):
        raise ValueError(f"A's region {a.slots} overlaps the target region {slots}")
    herm_dev = linalg.dagger_distance(a.matrix)
    if herm_dev > NOISE_TOL:
        raise ValueError(f"A is not Hermitian: |A - A^†| = {herm_dev}")
    norm_a = operator_norm(a.matrix)
    if norm_a <= PROJECTOR_FLOOR:
        raise ValueError("A is numerically zero; the eps-budget is undefined")

    k = float(np.vdot(psi, a.apply(psi, v.layout)).real)

    eps3 = 0.5 * eps
    eps4_target = 0.5 * eps / norm_a
    eps2 = EpsilonBudget.eps2_from_eps3(eps3, norm_a)
    eps1 = EpsilonBudget.eps1_from_eps2(eps2)
    # EpsilonBudget's checks before any stage runs: from eps / ||A|| ~ 1e16 on,
    # 1 - eps1 cancels, then eps1 rounds to 1; below ~1e-16, eps2 rounds to 0.
    if not 0 < eps1 < 1 or _off(eps2, EpsilonBudget.eps2_from_eps1(eps1), BUDGET_TOL):
        raise StageFailure("budget", "eps is out of floating-point range for eps1..eps5",
                           eps=eps, eps1=eps1, eps2=eps2)

    c_tilde, err1 = solve_cyclic_approx(psi, v, slots, eps1)
    c, err2 = normalize_approximant(c_tilde, psi, v, eps1)
    val3 = expectation_window(a, c, v, k, eps3)

    dec = positive_spectral_decomposition(c, tau)
    dec_unit = rescale_to_unit_vacuum(dec, v)
    q_norm = dec.coeffs[0]  # ||Q1||: the top kept eigenvalue of the positive Q1
    eps4 = (q_norm + 1.0) * tau / dec_unit.q_expect
    if eps4 > eps4_target:
        raise StageFailure(
            "spectral", "eps4 exceeds its share of the budget",
            achieved=eps4, bound=eps4_target,
        )

    eps5 = eps3 + norm_a * eps4
    budget = EpsilonBudget(
        eps1=eps1, eps2=eps2, eps3=eps3, eps4=eps4, eps5=eps5,
        norm_a=norm_a, q_norm=q_norm, q_expect=dec_unit.q_expect, eps4_tilde=tau,
    )
    val5 = combined_window(a, dec_unit, v, k, eps5)
    ext = select_extremal_projectors(a, dec_unit, v)

    achieved = {
        "cyclic_residual": err1,
        "normalized_error": err2,
        "window_error": abs(val3 - k),
        "decomposition_residual": dec.residual,
        "rescale_error": operator_norm(dec.q - dec_unit.local_matrix()),
        "combined_error": abs(val5 - k),
    }
    return RootCertificate(
        target_k=k,
        requested_eps=eps,
        p_max=ext.p_max,
        p_min=ext.p_min,
        lhs_max=ext.ap_max,
        rhs_max=(k - eps) * ext.p_max_expect,
        lhs_min=ext.ap_min,
        rhs_min=(k + eps) * ext.p_min_expect,
        budget=budget,
        weights=ext.weights,
        achieved=achieved,
    )
