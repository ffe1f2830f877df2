"""EPR projector correlations and Bell inequality machinery.

The Bell operator is R = A1 (B1 + B2) + A2 (B1 - B2) for self-adjoint
contractions A_i on slot 0 and B_i on slot 1.  Its spectral ceiling is
2 sqrt(2), so every correlation (1/2) <R> stays below the sqrt(2) bound;
the canonical two-qubit construction saturates it.  Conditioning on a
projector in a third region reproduces the near-maximal vacuum violation
through the root-certificate pipeline.

R is applied term by term, never formed for a correlation.  Landau's identity
(Phys. Lett. A 120, 54 (1987)) gives its norm when A1^2 = A2^2 = P_A and
B1^2 = B2^2 = P_B are nonzero projectors (every 2P - 1, the canonical settings):
R^2 = 4 P_A P_B - [A1,A2][B1,B2], each commutator's spectrum is symmetric
(A1 [A1,A2] A1 = -[A1,A2]), so ||R|| = sqrt(4 + ||[A1,A2]|| ||[B1,B2]||).
``tsirelson_margins`` works on stacks of settings; the Tsirelson sweep passes
it stacks of at most 64 KiB, and it takes the dense norm per setting where
Landau's precondition fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .linalg import NOISE_TOL, PROJECTOR_FLOOR, apply_local, as_state, hermitian_eig, operator_norm
from .local_algebra import LocalOperator, RegionLayout, VacuumModel
from .root_theorem import RootCertificate, StageFailure, prove_root_certificate

SQRT2 = math.sqrt(2.0)

# A see-saw run stops once an iteration gains less than SEESAW_TOL, or after SEESAW_ITERS.
SEESAW_TOL = 1e-12
SEESAW_ITERS = 200
# Draws per see-saw start.  About a quarter of draws end at a classical
# fixed point, so all of them stalling has probability near 0.25**8.
SEESAW_DRAWS = 8


def _herm_norm(h: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix, as max |eigenvalue| (no SVD)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


@dataclass(frozen=True)
class BellSettings:
    """Two self-adjoint contractions per side: A's on slot 0, B's on slot 1,
    each stored as its Hermitian part H, so that R is exactly Hermitian."""

    a1: LocalOperator
    a2: LocalOperator
    b1: LocalOperator
    b2: LocalOperator

    def __post_init__(self):
        for attr, slot in (("a1", 0), ("a2", 0), ("b1", 1), ("b2", 1)):
            op, name = getattr(self, attr), attr.upper()
            if op.slots != (slot,):
                raise ValueError(f"{name} must live on slot {slot}, got {op.slots}")
            herm = hermitian_contractions(op.matrix[None], (name,))[0]
            object.__setattr__(self, attr, LocalOperator(slot, herm))


def hermitian_contractions(x: np.ndarray, names) -> np.ndarray:
    """The Hermitian parts H of a stack (..., k, d, d) of self-adjoint
    contractions, the last stack axis running over ``names``; ValueError
    names the first matrix that is not self-adjoint or not a contraction."""
    dev = linalg.dagger_distance(x)
    herm = 0.5 * (x + linalg.dagger(x))
    # >= ||X||, as ||X - H||_F = dev / 2
    nrm = np.abs(np.linalg.eigvalsh(herm)).max(axis=-1) + 0.5 * dev
    bad = (dev > NOISE_TOL) | (nrm > 1.0 + NOISE_TOL)
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        name = names[i[-1]]
        if dev[i] > NOISE_TOL:
            raise ValueError(f"{name} is not self-adjoint: |X - X^†| = {dev[i]}")
        raise ValueError(f"{name} is not a contraction: norm {nrm[i]}")
    return herm


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
    return LocalOperator(p.slots, reflections(p.matrix))


def reflections(p: np.ndarray) -> np.ndarray:
    """2P - 1 for each projector P of a stack (..., d, d)."""
    if not np.all(linalg.is_projector(p)):
        raise ValueError("input is not a projector")
    return 2.0 * p - np.eye(p.shape[-1], dtype=complex)


def bell_operator(s: BellSettings, layout: RegionLayout) -> np.ndarray:
    """R = A1 (B1 + B2) + A2 (B1 - B2) as a dense matrix on the layout: R01 (x) 1,
    since slots (0,1) are the leading Kronecker factors."""
    a1, a2, b1, b2 = (op.matrix for op in (s.a1, s.a2, s.b1, s.b2))
    r01 = np.kron(a1, b1 + b2) + np.kron(a2, b1 - b2)
    dev = linalg.dagger_distance(r01)
    if dev > NOISE_TOL:
        raise StageFailure("bell-operator", "R is not Hermitian", deviation=dev)
    return np.kron(r01, np.eye(math.prod(layout.dims[2:])))


def _apply_bell(s: BellSettings, vec, layout: RegionLayout) -> np.ndarray:
    """R vec = A1 (B1 + B2) vec + A2 (B1 - B2) vec, one slot at a time."""
    a1, a2, b1, b2 = (op.matrix for op in (s.a1, s.a2, s.b1, s.b2))
    dims = layout.dims
    return (apply_local(a1, 0, apply_local(b1 + b2, 1, vec, dims), dims)
            + apply_local(a2, 0, apply_local(b1 - b2, 1, vec, dims), dims))


def bell_correlation(s: BellSettings, state, layout: RegionLayout) -> float:
    """(1/2) Re <R>_state; bounded by sqrt(2) in absolute value."""
    state = as_state(state)
    return 0.5 * float(np.vdot(state, _apply_bell(s, state, layout)).real)


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
) -> tuple[BellSettings, float]:
    """Alternating maximization of (1/2) <R> over contraction settings.

    With the B's fixed, each A_i sees the effective Hermitian operator
    G_i = herm(Psi M_i^T Psi^†) (M1 = B1 + B2, M2 = B1 - B2, Psi the
    coefficient matrix of the state), and sign(G_i) is the optimal
    contraction; symmetrically for the B's.  The objective never
    decreases, so the run stops at a fixed point or after SEESAW_ITERS.
    A run ending with A1, A2 commuting on the state's support is stuck at a
    classical point (value <= 1); it is redone from the next draw, up to
    SEESAW_DRAWS draws.
    """
    if layout.n_slots != 2:
        raise ValueError("see-saw runs on 2-slot layouts")
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
        for _ in range(SEESAW_ITERS):
            a1 = _sign_contraction(psi_mat @ (b1 + b2).T @ psi_mat.conj().T)
            a2 = _sign_contraction(psi_mat @ (b1 - b2).T @ psi_mat.conj().T)
            h1 = (psi_mat.conj().T @ a1 @ psi_mat).T
            h2 = (psi_mat.conj().T @ a2 @ psi_mat).T
            b1 = _sign_contraction(h1 + h2)
            b2 = _sign_contraction(h1 - h2)
            current = objective(a1, a2, b1, b2)
            if current - best < SEESAW_TOL:
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


def _landau_factor(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each pair (X1, X2) of a stack (n, 2, d, d): ||[X1, X2]||, and whether
    X1^2 = X2^2 is a nonzero projector, to NOISE_TOL in the Frobenius norm."""
    x1, x2 = x[:, 0], x[:, 1]
    p = x1 @ x1
    shared = ((linalg.frobenius(p - x2 @ x2) <= NOISE_TOL)
              & (linalg.frobenius(p @ p - p) <= NOISE_TOL) & (NOISE_TOL < linalg.frobenius(p)))
    comm = np.abs(np.linalg.eigvalsh(1j * (x1 @ x2 - x2 @ x1))).max(axis=-1)
    return comm, shared


def tsirelson_margins(a: np.ndarray, b: np.ndarray, layout: RegionLayout) -> np.ndarray:
    """sqrt(2) - (1/2) ||R|| >= 0 (to noise) for each setting of a stack: ``a``
    (n, 2, d1, d1) holds (A1, A2) and ``b`` (n, 2, d2, d2) holds (B1, B2), as
    the Hermitian parts ``hermitian_contractions`` returns.  ||R|| is
    Landau's where both pairs share their support, and else the dense norm."""
    ca, shared_a = _landau_factor(a)
    cb, shared_b = _landau_factor(b)
    margins = SQRT2 - 0.5 * np.sqrt(4.0 + ca * cb)
    for i in np.flatnonzero(~(shared_a & shared_b)):
        s = BellSettings(LocalOperator(0, a[i, 0]), LocalOperator(0, a[i, 1]),
                         LocalOperator(1, b[i, 0]), LocalOperator(1, b[i, 1]))
        margins[i] = SQRT2 - 0.5 * _herm_norm(bell_operator(s, RegionLayout(layout.dims[:2])))
    return margins


def tsirelson_certificate(s: BellSettings, layout: RegionLayout) -> float:
    """sqrt(2) - (1/2) ||R|| >= 0 (to noise); ||R|| by Landau's identity where it holds."""
    a = np.array([[s.a1.matrix, s.a2.matrix]])
    b = np.array([[s.b1.matrix, s.b2.matrix]])
    return float(tsirelson_margins(a, b, layout)[0])


@dataclass(frozen=True)
class EPRReport:
    p1: LocalOperator
    p2: LocalOperator
    p1_expect: float  # <P1>_omega
    joint_expect: float  # <P1 P2>_omega
    lower_bound: float  # (1 - eps) <P1>_omega
    certificate: RootCertificate


def epr_projector_pair(
    p2: LocalOperator, phi, v: VacuumModel, eps: float
) -> tuple[LocalOperator, EPRReport]:
    """Find P1 on the complementary region with
    <P1>_omega >= <P1 P2>_omega > (1 - eps) <P1>_omega.

    Builds psi = P2 phi / ||P2 phi|| (so <P2>_psi = 1) and applies the
    root pipeline with A = P2 and K = 1; P1 is the max-ratio projector.
    """
    if not p2.is_projector():
        raise ValueError("P2 is not a projector")
    phi = as_state(phi)
    cut = p2.apply(phi, v.layout)
    nrm = float(np.linalg.norm(cut))
    if nrm <= PROJECTOR_FLOOR:
        raise ValueError(
            "P2 phi = 0; pass phi = omega instead (the separating vacuum "
            "never annihilates a nonzero local projector)"
        )
    psi = cut / nrm
    target = v.layout.complement(p2.slots)
    cert = prove_root_certificate(p2, psi, v, target, eps)
    p1 = cert.p_max
    p1_omega = p1.apply(v.omega, v.layout)
    p1_expect = float(np.vdot(v.omega, p1_omega).real)
    # P1 P2 is itself a projector (commuting factors), so its expectation
    # is ||P2 P1 omega||^2; this form keeps <P1 P2> <= <P1> at noise level.
    joint = float(np.linalg.norm(p2.apply(p1_omega, v.layout)) ** 2)
    report = EPRReport(
        p1=p1,
        p2=p2,
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
    p3_omega = p3.apply(v.omega, v.layout)
    p3_expect = float(np.vdot(v.omega, p3_omega).real)
    if p3_expect <= PROJECTOR_FLOOR:
        raise ValueError(
            f"<P3>_omega = {p3_expect} at the floor (cannot occur for a separating vacuum)"
        )
    val = complex(np.vdot(v.omega, _apply_bell(s, p3_omega, v.layout)))
    if abs(val.imag) > NOISE_TOL:
        raise StageFailure("conditional", "non-real <R P3>", imag=val.imag)
    return 0.5 * float(val.real) / p3_expect


def _conditional_pipeline(
    settings: BellSettings,
    phi: np.ndarray,
    v: VacuumModel,
    eps: float,
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
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    r01 = bell_operator(settings, RegionLayout(layout.dims[:2]))
    # chi = first basis vector on slot 2; any unit vector works.
    chi = np.zeros(layout.dims[2], dtype=complex)
    chi[0] = 1.0
    psi = np.kron(phi, chi)
    cert = prove_root_certificate(LocalOperator((0, 1), r01), psi, v, (2,), 2.0 * eps)
    p3 = cert.p_max
    cond = conditional_bell_correlation(settings, p3, v)
    half_k = 0.5 * cert.target_k
    if not cond > half_k - eps:
        raise StageFailure(
            "conditional", "conditional correlation misses the target",
            achieved=cond, target=half_k - eps,
        )
    return BellReport(
        settings=settings,
        state=psi,
        correlation=bell_correlation(settings, psi, layout),
        tsirelson_margin=tsirelson_certificate(settings, layout),
        conditional=ConditionalResult(
            p3=p3,
            p3_expect=float(np.vdot(v.omega, p3.apply(v.omega, layout)).real),
            conditional_correlation=cond,
            certificate=cert,
        ),
    )


def violate_conditional_bell(layout: RegionLayout, v: VacuumModel, eps: float) -> BellReport:
    """Conditional near-maximal violation: (1/2) <R>_{P3=1} > sqrt(2) - eps."""
    phi, settings = canonical_max_violation(layout)
    return _conditional_pipeline(settings, phi, v, eps)


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
    for name, p, q in (("A", a1, a2), ("B", b1, b2)):
        comm = p.matrix @ q.matrix - q.matrix @ p.matrix
        if operator_norm(comm) <= NOISE_TOL:
            raise ValueError(f"{name}1 and {name}2 commute; the extension needs "
                             "non-commuting pairs")
    r01 = bell_operator(settings, RegionLayout(v.layout.dims[:2]))
    cols = linalg.projector(hermitian_eig(r01).blocks[0])
    top = cols[:, int(np.argmax(np.linalg.norm(cols, axis=0)))]
    top = top / np.linalg.norm(top)
    # Deterministic global phase: largest component real positive.
    lead = top[int(np.argmax(np.abs(top)))]
    top = top * (abs(lead) / lead)
    return _conditional_pipeline(settings, top, v, eps)
