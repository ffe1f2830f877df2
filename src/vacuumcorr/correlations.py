"""EPR projector correlations and Bell inequality machinery.

The Bell operator is R = A1 (B1 + B2) + A2 (B1 - B2) for self-adjoint
contractions A_i on slot 0 and B_i on slot 1.  Its spectral ceiling is
2 sqrt(2), so every correlation (1/2) <R> stays below the sqrt(2) bound;
the canonical two-qubit construction saturates it.  Conditioning on a
projector in a third region reproduces the near-maximal vacuum violation
through the root-certificate pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .linalg import NOISE_TOL, as_state, expectation, hermitian_eig, operator_norm
from .local_algebra import LocalOperator, RegionLayout, VacuumModel, check_cyclic
from .root_theorem import (
    PROJECTOR_FLOOR,
    SPECTRAL_TAU,
    RootCertificate,
    StageFailure,
    prove_root_certificate,
)

SQRT2 = math.sqrt(2.0)

# Draws per see-saw start.  About a quarter of draws end at a classical
# fixed point, so all of them stalling has probability near 0.25**8.
SEESAW_DRAWS = 8


def _check_contraction(op: LocalOperator, name: str) -> None:
    dev = linalg.dagger_distance(op.matrix)
    if dev > NOISE_TOL:
        raise ValueError(f"{name} is not self-adjoint: |X - X^†| = {dev}")
    nrm = operator_norm(op.matrix)
    if nrm > 1.0 + NOISE_TOL:
        raise ValueError(f"{name} is not a contraction: norm {nrm}")


@dataclass(frozen=True)
class BellSettings:
    """Two self-adjoint contractions per side: A's on slot 0, B's on slot 1."""

    a1: LocalOperator
    a2: LocalOperator
    b1: LocalOperator
    b2: LocalOperator

    def __post_init__(self):
        for name, op, slot in (
            ("A1", self.a1, 0), ("A2", self.a2, 0),
            ("B1", self.b1, 1), ("B2", self.b2, 1),
        ):
            if op.slots != (slot,):
                raise ValueError(f"{name} must live on slot {slot}, got {op.slots}")
            _check_contraction(op, name)


@dataclass(frozen=True)
class ConditionalResult:
    p3: LocalOperator
    p3_expect: float
    conditional_correlation: float
    certificate: RootCertificate


@dataclass(frozen=True)
class BellReport:
    settings: BellSettings
    state: np.ndarray
    correlation: float  # (1/2) <R> in `state`
    tsirelson_margin: float  # sqrt(2) - (1/2) ||R||
    conditional: Optional[ConditionalResult] = None


def contraction_from_projector(p: LocalOperator) -> LocalOperator:
    """2P - 1: a self-adjoint contraction with spectrum in {-1, +1}."""
    if not p.is_projector():
        raise ValueError("input is not a projector")
    return LocalOperator(p.slots, 2.0 * p.matrix - np.eye(p.dim, dtype=complex))


def bell_operator(s: BellSettings, layout: RegionLayout) -> np.ndarray:
    """R = A1 (B1 + B2) + A2 (B1 - B2) on the full space of the layout."""
    a1 = s.a1.embed(layout)
    a2 = s.a2.embed(layout)
    b1 = s.b1.embed(layout)
    b2 = s.b2.embed(layout)
    r = a1 @ (b1 + b2) + a2 @ (b1 - b2)
    dev = linalg.dagger_distance(r)
    if dev > NOISE_TOL:
        raise StageFailure("bell-operator", "R is not Hermitian", deviation=dev)
    return r


def bell_correlation(s: BellSettings, state, layout: RegionLayout) -> float:
    """(1/2) Re <R>_state; bounded by sqrt(2) in absolute value."""
    state = as_state(state)
    r = bell_operator(s, layout)
    return 0.5 * float(expectation(r, state).real)


def _qubit_block(d: int, block: np.ndarray) -> np.ndarray:
    out = np.zeros((d, d), dtype=complex)
    out[:2, :2] = block
    return out


def canonical_max_violation(layout: RegionLayout) -> tuple[np.ndarray, BellSettings]:
    """The standard two-qubit construction saturating the sqrt(2) bound.

    A1, A2 are spin operators along orthogonal axes, B1, B2 along the
    diagonal axes between them, and the state is maximally entangled on
    the leading 2x2 blocks of slots 0 and 1.  The returned state lives on
    the product of the first two slots.
    """
    d1, d2 = layout.dims[0], layout.dims[1]
    if d1 < 2 or d2 < 2:
        raise ValueError(f"need at least qubit slots, got dims ({d1}, {d2})")
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    settings = BellSettings(
        a1=LocalOperator(0, _qubit_block(d1, z)),
        a2=LocalOperator(0, _qubit_block(d1, x)),
        b1=LocalOperator(1, _qubit_block(d2, (z + x) / SQRT2)),
        b2=LocalOperator(1, _qubit_block(d2, (z - x) / SQRT2)),
    )
    state = np.zeros(d1 * d2, dtype=complex)
    state[0 * d2 + 0] = 1.0 / SQRT2
    state[1 * d2 + 1] = 1.0 / SQRT2
    return state, settings


def _sign_contraction(g: np.ndarray) -> np.ndarray:
    """sign(G) via eigendecomposition; zero eigenvalues map to +1."""
    w, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
    s = np.where(w < 0.0, -1.0, 1.0)
    return (vecs * s) @ vecs.conj().T


def seesaw_maximize(
    state,
    layout: RegionLayout,
    seed: int,
    max_iters: int = 200,
    tol: float = 1e-12,
) -> tuple[BellSettings, float]:
    """Alternating maximization of (1/2) <R> over contraction settings.

    With the B's fixed, each A_i sees the effective Hermitian operator
    G_i = herm(Psi M_i^T Psi^†) (M1 = B1 + B2, M2 = B1 - B2, Psi the
    coefficient matrix of the state), and sign(G_i) is the optimal
    contraction; symmetrically for the B's.  The objective never
    decreases, so the run stops at a fixed point or after max_iters.
    A run ending with A1, A2 commuting on the state's support is stuck at a
    classical point (value <= 1); it is redone from the next draw, up to
    SEESAW_DRAWS draws.
    """
    if layout.n_slots != 2:
        raise ValueError("see-saw runs on 2-slot layouts")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    state = as_state(state)
    d1, d2 = layout.dims
    psi_mat = state.reshape(d1, d2)
    rng = np.random.default_rng(seed)

    def objective(a1, a2, b1, b2) -> float:
        val = np.trace(a1 @ psi_mat @ (b1 + b2).T @ psi_mat.conj().T)
        val += np.trace(a2 @ psi_mat @ (b1 - b2).T @ psi_mat.conj().T)
        return 0.5 * float(val.real)

    for _ in range(SEESAW_DRAWS):
        b1 = _sign_contraction(linalg.random_hermitian(d2, rng))
        b2 = _sign_contraction(linalg.random_hermitian(d2, rng))
        a1 = _sign_contraction(linalg.random_hermitian(d1, rng))
        a2 = _sign_contraction(linalg.random_hermitian(d1, rng))
        best = objective(a1, a2, b1, b2)
        for _ in range(max_iters):
            a1 = _sign_contraction(psi_mat @ (b1 + b2).T @ psi_mat.conj().T)
            a2 = _sign_contraction(psi_mat @ (b1 - b2).T @ psi_mat.conj().T)
            h1 = (psi_mat.conj().T @ a1 @ psi_mat).T
            h2 = (psi_mat.conj().T @ a2 @ psi_mat).T
            b1 = _sign_contraction(h1 + h2)
            b2 = _sign_contraction(h1 - h2)
            current = objective(a1, a2, b1, b2)
            if current - best < tol:
                best = max(best, current)
                break
            best = current
        if np.linalg.norm((a1 @ a2 - a2 @ a1) @ psi_mat) > NOISE_TOL:
            break
    settings = BellSettings(
        a1=LocalOperator(0, a1), a2=LocalOperator(0, a2),
        b1=LocalOperator(1, b1), b2=LocalOperator(1, b2),
    )
    return settings, best


def tsirelson_certificate(s: BellSettings, layout: RegionLayout) -> float:
    """sqrt(2) - (1/2) ||R||; nonnegative (up to noise) for any settings."""
    return SQRT2 - 0.5 * operator_norm(bell_operator(s, layout))


@dataclass(frozen=True)
class EPRReport:
    p1: LocalOperator
    p1_expect: float  # <P1>_omega
    joint_expect: float  # <P1 P2>_omega
    lower_bound: float  # (1 - eps) <P1>_omega
    certificate: RootCertificate


def epr_projector_pair(
    p2: LocalOperator, phi, v: VacuumModel, eps: float, tau: float = SPECTRAL_TAU
) -> tuple[LocalOperator, EPRReport]:
    """Find P1 on the complementary region with
    <P1>_omega >= <P1 P2>_omega > (1 - eps) <P1>_omega.

    Builds psi = P2 phi / ||P2 phi|| (so <P2>_psi = 1) and applies the
    root pipeline (cutoff tau) with A = P2 and K = 1; P1 is the max-ratio projector.
    """
    if not p2.is_projector():
        raise ValueError("P2 is not a projector")
    phi = as_state(phi)
    ep2 = p2.embed(v.layout)
    cut = ep2 @ phi
    nrm = float(np.linalg.norm(cut))
    if nrm <= PROJECTOR_FLOOR:
        raise ValueError(
            "P2 phi = 0; pass phi = omega instead (the separating vacuum "
            "never annihilates a nonzero local projector)"
        )
    psi = cut / nrm
    target = v.layout.complement(p2.slots)
    cert = prove_root_certificate(p2, psi, v, target, eps, tau)
    p1 = cert.p_max
    ep1 = p1.embed(v.layout)
    p1_expect = float(expectation(ep1, v.omega).real)
    # P1 P2 is itself a projector (commuting factors), so its expectation
    # is ||P2 P1 omega||^2; this form keeps <P1 P2> <= <P1> at noise level.
    joint = float(np.linalg.norm(ep2 @ (ep1 @ v.omega)) ** 2)
    report = EPRReport(
        p1=p1,
        p1_expect=p1_expect,
        joint_expect=joint,
        lower_bound=(1.0 - eps) * p1_expect,
        certificate=cert,
    )
    return p1, report


def conditional_bell_correlation(
    s: BellSettings, p3: LocalOperator, v: VacuumModel
) -> float:
    """(1/2) <R P3>_omega / <P3>_omega for a projector P3 on slot 2."""
    if v.layout.n_slots != 3:
        raise ValueError("conditional correlations need a 3-slot layout")
    if p3.slots != (2,):
        raise ValueError(f"P3 must live on slot 2, got {p3.slots}")
    if not p3.is_projector():
        raise ValueError("P3 is not a projector")
    ep3 = p3.embed(v.layout)
    p3_expect = float(expectation(ep3, v.omega).real)
    if p3_expect <= PROJECTOR_FLOOR:
        raise ValueError(
            f"<P3>_omega = {p3_expect} at the floor (cannot occur for a separating vacuum)"
        )
    r = bell_operator(s, v.layout)
    val = expectation(r @ ep3, v.omega)
    if abs(val.imag) > NOISE_TOL:
        raise StageFailure("conditional", "non-real <R P3>", imag=val.imag)
    return 0.5 * float(val.real) / p3_expect


def _sub_layout(layout: RegionLayout) -> RegionLayout:
    return RegionLayout(layout.dims[:2])


def _conditional_pipeline(
    settings: BellSettings,
    phi: np.ndarray,
    v: VacuumModel,
    eps: float,
    tau: float = SPECTRAL_TAU,
) -> BellReport:
    """Shared machinery for the conditional violation results.

    ``phi`` is a state on slots (0,1) with (1/2) <R>_phi = K/2; the root
    pipeline treats slots (0,1) as one merged region carrying A = R and
    produces P3 on slot 2.  Targets on <R> use 2*eps since the claimed
    bound is on (1/2) <R>.
    """
    layout = v.layout
    if layout.n_slots != 3:
        raise ValueError("the conditional pipeline needs a 3-slot layout")
    if layout.dims[2] != layout.dims[0] * layout.dims[1]:
        raise ValueError(
            f"need d3 = d1*d2, got {layout.dims} (vacuum cannot be cyclic for slot 2)"
        )
    if not check_cyclic(v, (2,)):
        raise ValueError("vacuum is not cyclic for slot 2")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    sub = _sub_layout(layout)
    r01 = bell_operator(settings, sub)
    # chi = first basis vector on slot 2; any unit vector works.
    chi = np.zeros(layout.dims[2], dtype=complex)
    chi[0] = 1.0
    psi = np.kron(phi, chi)
    a_region = LocalOperator((0, 1), r01)
    cert = prove_root_certificate(a_region, psi, v, (2,), 2.0 * eps, tau)
    p3 = cert.p_max
    cond = conditional_bell_correlation(settings, p3, v)
    half_k = 0.5 * cert.target_k
    if not cond > half_k - eps:
        raise StageFailure(
            "conditional", "conditional correlation misses the target",
            achieved=cond, target=half_k - eps,
        )
    ep3 = p3.embed(layout)
    return BellReport(
        settings=settings,
        state=psi,
        correlation=bell_correlation(settings, psi, layout),
        tsirelson_margin=SQRT2 - 0.5 * operator_norm(r01),
        conditional=ConditionalResult(
            p3=p3,
            p3_expect=float(expectation(ep3, v.omega).real),
            conditional_correlation=cond,
            certificate=cert,
        ),
    )


def violate_conditional_bell(
    layout: RegionLayout, v: VacuumModel, eps: float, tau: float = SPECTRAL_TAU
) -> BellReport:
    """Conditional near-maximal violation: (1/2) <R>_{P3=1} > sqrt(2) - eps."""
    phi, settings = canonical_max_violation(layout)
    return _conditional_pipeline(settings, phi, v, eps, tau)


def general_contraction_extension(
    a1: LocalOperator,
    a2: LocalOperator,
    b1: LocalOperator,
    b2: LocalOperator,
    v: VacuumModel,
    eps: float,
) -> BellReport:
    """Conditional violation for arbitrary non-commuting contraction pairs.

    The state is the optimum for the given settings (the top eigenvector
    of R on slots (0,1)); the conditional correlation then exceeds that
    optimum minus eps.
    """
    settings = BellSettings(a1=a1, a2=a2, b1=b1, b2=b2)
    sub = _sub_layout(v.layout)
    for name, p, q in (("A", a1, a2), ("B", b1, b2)):
        comm = p.matrix @ q.matrix - q.matrix @ p.matrix
        if operator_norm(comm) <= NOISE_TOL:
            raise ValueError(f"{name}1 and {name}2 commute; the extension needs "
                             "non-commuting pairs")
    r01 = bell_operator(settings, sub)
    es = hermitian_eig(r01)
    cols = es.projectors[0]
    top = cols[:, int(np.argmax(np.linalg.norm(cols, axis=0)))]
    top = top / np.linalg.norm(top)
    # Deterministic global phase: largest component real positive.
    lead = top[int(np.argmax(np.abs(top)))]
    top = top * (abs(lead) / lead)
    return _conditional_pipeline(settings, top, v, eps)
