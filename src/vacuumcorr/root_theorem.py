"""Constructive approximation pipeline producing root certificates.

Given a self-adjoint A on one region, a unit vector psi with
<A>_psi = K, and a target eps, the pipeline produces projectors P_max
and P_min on a disjoint region such that

    <A P_max>_omega > (K - eps) <P_max>_omega     and
    <A P_min>_omega < (K + eps) <P_min>_omega.

Every stage checks its explicit error bound, and the certificate records
the budget and each stage's achieved error, so the whole eps-budget chain
can be checked numerically:

    eps2 = 2 eps1 / (1 - eps1)
    eps3 = (eps2^2 + 2 eps2) ||A||
    eps4 = (||Q1|| + 1) eps4_tilde / <Q1'~>_omega
    eps5 = eps3 + ||A|| eps4

eps4_tilde is not a free parameter: the spectral cutoff tau is derived
from the share of eps that the split leaves to ||A|| eps4.

The work that does not depend on eps is done once, by ``root_products``:
K, ||A||, the one cyclic solve C~ = Psi G^-1 M^† on the Gram matrix G whose
bound also proves the vacuum cyclic, C~ omega, C omega = C~ omega /
||C~ omega|| (scaled, not recomputed), <A>_{C omega}, tr Q1, Q1's
eigenspaces, and every eigenspace's <P_i>_omega and <A P_i>_omega from one
V^† W and one V^† (A omega).  ``certify_root`` certifies one eps on them:
the budget check, then each stage's check in pipeline order, on the
eigenspaces above tau (a prefix, as the eigenvalues descend), with
||Q1 - Q1'|| read from Q1's eigenvalues; ||A|| is the one operator norm.
A is read only through ``slots``, ``apply(vec, layout)`` and ``hermitian_norm()``: a
``LocalOperator``, or ``correlations.BellSettings``, which applies R term by term.
``prove_root_certificate`` is the one-eps case; a sweep builds the products
once.  ``rescale_to_unit_vacuum`` runs the rescale stage alone, on a
decomposition the caller builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .linalg import NOISE_TOL, PROJECTOR_FLOOR, as_state, hermitian_eig, projector
from .linalg import operator_norm  # noqa: F401  benchmark/test_benchmark.py traces this binding
from .local_algebra import LocalOperator, VacuumModel, check_cyclic

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
        checks = [
            ("eps2", self.eps2, 2.0 * self.eps1 / (1.0 - self.eps1)),
            ("eps3", self.eps3, (self.eps2**2 + 2.0 * self.eps2) * self.norm_a),
            ("eps4", self.eps4, (self.q_norm + 1.0) * self.eps4_tilde / self.q_expect),
            ("eps5", self.eps5, self.eps3 + self.norm_a * self.eps4),
        ]
        for name, got, want in checks:
            if _off(got, want, BUDGET_TOL):
                raise ValueError(f"budget inconsistency: {name}={got}, formula gives {want}")

    @staticmethod
    def eps2_from_eps1(eps1: float) -> float:
        return 2.0 * eps1 / (1.0 - eps1)

    @staticmethod
    def eps2_from_eps3(eps3: float, norm_a: float) -> float:
        """Closed-form eps2 achieving a requested eps3 for given ||A||:
        the exact inverse of eps3 = (eps2^2 + 2 eps2) ||A||, written as
        x / (1 + sqrt(1 + x)) with x = eps3 / ||A|| so that no 1 cancels."""
        x = eps3 / norm_a
        return x / (1.0 + math.sqrt(1.0 + x))

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
    q_expect: float = 1.0  # <Q1'~>_omega the coefficients were divided by

    def __post_init__(self):
        if any(c <= 0 for c in self.coeffs):
            raise ValueError("all coefficients must be positive")
        if len(self.coeffs) != len(self.blocks):
            raise ValueError("coefficients and blocks must pair up")


def _block_overlaps(blocks, slots, v: VacuumModel, x) -> tuple[np.ndarray, np.ndarray]:
    """<P_i>_omega and <omega, (P_i (x) 1) x> for each P_i = B_i B_i^†, as
    vdot(B_i^† W, B_i^† W) and vdot(B_i^† W, B_i^† X) with W and X the
    coefficient matrices of omega and x across slots|rest: the per-column
    products of V^† W with itself and with V^† X, summed over each block of
    the concatenated blocks V.  Two products by V^† serve every block."""
    vh = np.hstack(blocks).conj().T
    w, xm = (vh @ linalg.coefficient_matrix(y, v.layout.dims, slots) for y in (v.omega, x))
    starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
    w_conj = w.conj()
    return tuple(np.add.reduceat(np.sum(w_conj * y, axis=1), starts) for y in (w, xm))


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


@dataclass(frozen=True)
class RootProducts:
    """The eps-independent products of the pipeline for one A, psi and target
    region, each computed once by ``root_products``; ``certify_root``
    certifies any eps on them."""

    slots: tuple[int, ...]
    k: float  # <A>_psi
    norm_a: float  # ||A||
    cyclic_residual: float  # ||C~ omega - psi||
    c_tilde_norm: float  # ||C~ omega||
    normalized_error: float  # ||C omega - psi||
    window: complex  # <A>_{C omega}
    q_trace: float  # tr Q1
    spectrum: linalg.EigenSystem  # Q1's eigenspaces, eigenvalues descending
    p_expects: np.ndarray  # <P_i>_omega for every eigenspace P_i of Q1
    aps: np.ndarray  # <A P_i>_omega for every eigenspace P_i of Q1


def _real_in_window(stage: str, of: str, bound: str, val: complex, k: float, eps: float) -> float:
    """Re ``val``, certified real to NOISE_TOL and inside (k - eps, k + eps)."""
    if abs(val.imag) > NOISE_TOL:
        raise StageFailure(stage, f"non-real expectation of {of}", imag=val.imag)
    value = float(val.real)
    if not (k - eps < value < k + eps):
        raise StageFailure(
            stage, f"expectation outside {bound} window",
            value=value, lower=k - eps, upper=k + eps,
        )
    return value


def _unit(dec: ProjectorDecomposition, p_expects: np.ndarray) -> ProjectorDecomposition:
    """``dec`` with its coefficients divided by <Q1'~>_omega = sum_i lambda_i <P_i>_omega."""
    if not dec.coeffs:
        raise StageFailure("rescale", "degenerate decomposition (Q1 = 0)")
    q_expect = float(np.dot(dec.coeffs, p_expects).real)
    if q_expect <= PROJECTOR_FLOOR:
        raise ValueError(
            f"<Q1'~>_omega = {q_expect} at the floor; vacuum not separating for {dec.slots}"
        )
    coeffs = tuple(c / q_expect for c in dec.coeffs)
    return replace(dec, coeffs=coeffs, q_expect=q_expect)


def rescale_to_unit_vacuum(
    dec: ProjectorDecomposition, v: VacuumModel
) -> ProjectorDecomposition:
    """Divide the coefficients by <Q1'~>_omega so <Q1'>_omega = 1; the
    result records the divisor as ``q_expect``."""
    p_expects = _block_overlaps(dec.blocks, dec.slots, v, v.omega)[0] if dec.blocks else ()
    return _unit(dec, p_expects)


def root_products(a, psi, v: VacuumModel, slots) -> RootProducts:
    """Validate the inputs and compute every eps-independent product once."""
    psi = as_state(psi)
    slots = linalg._normalize_slots(slots)
    if set(a.slots) & set(slots):
        raise ValueError(f"A's region {a.slots} overlaps the target region {slots}")
    norm_a = a.hermitian_norm()
    if norm_a <= PROJECTOR_FLOOR:
        raise ValueError("A is numerically zero; the eps-budget is undefined")
    # The least-squares C~ on the region with C~ omega = psi: C~ M = Psi for the
    # coefficient matrices M, Psi of omega, psi across region|rest, and cyclicity
    # gives M full column rank, so C~ = Psi G^-1 M^† on the Gram G = M^† M.  A wide
    # M has rank below its column count; a tall one has full rank where G's bound
    # proves it, else as the Schmidt spectrum decides.
    cut = v.layout.cut(slots)  # a proper region, or ValueError
    omega_mat = linalg.coefficient_matrix(v.omega, v.layout.dims, slots)
    g, lower = linalg.gram_bound(omega_mat)
    v.bounds.setdefault(cut, lower)  # M has the cut's singular values (transposed at most)
    if omega_mat.shape[0] < omega_mat.shape[1] or (
            lower <= linalg.SCHMIDT_RANK_TOL**2 and not check_cyclic(v, slots)):
        raise ValueError(f"vacuum is not cyclic for region {slots}")
    psi_mat = linalg.coefficient_matrix(psi, v.layout.dims, slots)
    try:
        c_tilde = LocalOperator(slots, psi_mat @ np.linalg.solve(g, omega_mat.conj().T))
    except ValueError as exc:  # LinAlgError, or entries that overflowed
        raise StageFailure("cyclic-approx", "the cut's Gram matrix is singular "
                           "to working precision") from exc
    c_tilde_omega = c_tilde.apply(v.omega, v.layout)
    nrm = float(np.linalg.norm(c_tilde_omega))
    if nrm <= PROJECTOR_FLOOR:
        raise ValueError("||C~ omega|| is at the numerical floor; vacuum not separating?")
    c = c_tilde.matrix / nrm
    c_omega = c_tilde_omega / nrm
    state = c_omega / np.linalg.norm(c_omega)  # C omega as a unit vector
    spectrum = hermitian_eig(c.conj().T @ c)
    p_expects, aps = _block_overlaps(spectrum.blocks, slots, v, a.apply(v.omega, v.layout))
    return RootProducts(
        slots=slots,
        k=float(np.vdot(psi, a.apply(psi, v.layout)).real),
        norm_a=norm_a,
        cyclic_residual=float(np.linalg.norm(c_tilde_omega - psi)),
        c_tilde_norm=nrm,
        normalized_error=float(np.linalg.norm(c_omega - psi)),
        window=complex(np.vdot(state, a.apply(state, v.layout))),
        q_trace=float(np.vdot(c, c).real),
        spectrum=spectrum,
        p_expects=p_expects,
        aps=aps,
    )


def certify_root(p: RootProducts, eps: float) -> RootCertificate:
    """Certify one eps on the products and return the verified certificate.

    The requested eps is split evenly between the expectation window
    (eps3 = eps/2) and the decomposition term (||A|| eps4 = eps/2);
    eps1 is then derived through the closed-form eps2, and the spectral
    cutoff tau = eps4_tilde from the eps4 share.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    k, norm_a = p.k, p.norm_a
    eps3 = 0.5 * eps
    eps4_target = 0.5 * eps / norm_a
    eps2 = EpsilonBudget.eps2_from_eps3(eps3, norm_a)
    eps1 = EpsilonBudget.eps1_from_eps2(eps2)
    # EpsilonBudget's checks before any stage runs: from eps / ||A|| ~ 1e16 on,
    # 1 - eps1 cancels, then eps1 rounds to 1.
    if not 0 < eps1 < 1 or _off(eps2, EpsilonBudget.eps2_from_eps1(eps1), BUDGET_TOL):
        raise StageFailure("budget", "eps is out of floating-point range for eps1..eps5",
                           eps=eps, eps1=eps1, eps2=eps2)

    if p.cyclic_residual > eps1:
        raise StageFailure("cyclic-approx", "residual exceeds eps1",
                           achieved=p.cyclic_residual, bound=eps1)
    if p.c_tilde_norm <= 1.0 - eps1:
        raise StageFailure("normalize", "||C~ omega|| <= 1 - eps1",
                           norm=p.c_tilde_norm, bound=1.0 - eps1)
    eps2_bound = EpsilonBudget.eps2_from_eps1(eps1)  # the normalize stage's own bound
    if p.normalized_error > eps2_bound:
        raise StageFailure("normalize", "error exceeds eps2",
                           achieved=p.normalized_error, bound=eps2_bound)
    val3 = _real_in_window("window", "Hermitian A", "eps3", p.window, k, eps3)

    # ||Q1|| <= tr Q1, <Q1'~>_omega >= 1 - tau, so eps4 < eps4_target/2; and tau < 1 <= ||Q1||.
    tau = eps4_target / (2.0 * (p.q_trace + 1.0 + eps4_target))
    # Q1's eigenspaces with eigenvalue above tau: a prefix, since the eigenvalues
    # descend.  The residual is the largest dropped |eigenvalue|.
    eigenvalues = p.spectrum.eigenvalues
    kept = sum(lam > tau for lam in eigenvalues)
    residual = max((abs(lam) for lam in eigenvalues[kept:]), default=0.0)
    dec = ProjectorDecomposition(p.slots, eigenvalues[:kept], p.spectrum.blocks[:kept], residual)
    dec_unit = _unit(dec, p.p_expects[:kept])
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
    val5 = _real_in_window("combined", "commuting product", "eps5",
                           complex(np.dot(dec_unit.coeffs, p.aps[:kept])), k, eps5)

    # The extremal vacuum ratios <A P_i> / <P_i>: the weights w_i = lambda_i <P_i>_omega
    # form a convex combination whose value is <A Q1'>_omega, so the max ratio
    # dominates it and the min ratio is dominated by it.  Ties break toward the
    # lowest index.
    p_expects = p.p_expects[:kept].real.tolist()
    for p_expect in p_expects:
        if p_expect <= PROJECTOR_FLOOR:
            raise StageFailure("extremal", "<P_i>_omega at the floor", value=p_expect)
    aps = p.aps[:kept].real.tolist()
    ratios = [ap / p_expect for ap, p_expect in zip(aps, p_expects)]
    i_max = int(np.argmax(ratios))
    i_min = int(np.argmin(ratios))
    # One operator when both picks are the same block.
    picks = {i: LocalOperator(p.slots, projector(dec.blocks[i])) for i in {i_max, i_min}}

    # Q1 - Q1' is diagonal in Q1's eigenbasis: lambda_j - lambda_i / q_expect on
    # the kept eigenspaces, lambda_j on the dropped ones, over the unmerged lambda_j.
    sizes = [b.shape[1] for b in dec.blocks]
    offsets = p.spectrum.values.copy()
    offsets[:sum(sizes)] -= np.repeat(dec_unit.coeffs, sizes)

    achieved = {
        "cyclic_residual": p.cyclic_residual,
        "normalized_error": p.normalized_error,
        "window_error": abs(val3 - k),
        "decomposition_residual": dec.residual,
        "rescale_error": float(np.max(np.abs(offsets))),
        "combined_error": abs(val5 - k),
    }
    return RootCertificate(
        target_k=k,
        requested_eps=eps,
        p_max=picks[i_max],
        p_min=picks[i_min],
        lhs_max=aps[i_max],
        rhs_max=(k - eps) * p_expects[i_max],
        lhs_min=aps[i_min],
        rhs_min=(k + eps) * p_expects[i_min],
        budget=budget,
        weights=tuple(lam * p_expect for lam, p_expect in zip(dec_unit.coeffs, p_expects)),
        achieved=achieved,
    )


def prove_root_certificate(
    a,
    psi,
    v: VacuumModel,
    slots,
    eps: float,
) -> RootCertificate:
    """Run the full pipeline for one eps: ``certify_root`` on ``root_products``."""
    return certify_root(root_products(a, psi, v, slots), eps)
