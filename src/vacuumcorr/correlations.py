"""EPR projector correlations and Bell inequality machinery.

The Bell operator is R = A1 (B1 + B2) + A2 (B1 - B2) for self-adjoint
contractions A_i on slot 0 and B_i on slot 1.  Its spectral ceiling is
2 sqrt(2), so every correlation (1/2) <R> stays below the sqrt(2) bound;
the canonical two-qubit construction saturates it.  Conditioning on a
projector in a third region reproduces the near-maximal vacuum violation
through the root pipeline, whose A is the settings' ``slots``, ``apply`` and ``hermitian_norm``.

R is applied term by term, never formed for a correlation or a pipeline.  Landau's identity
(Phys. Lett. A 120, 54 (1987)) gives its norm when A1^2 = A2^2 = P_A and
B1^2 = B2^2 = P_B are nonzero projectors (every 2P - 1, the canonical settings):
R^2 = 4 P_A P_B - [A1,A2][B1,B2], each commutator's spectrum is symmetric
(A1 [A1,A2] A1 = -[A1,A2]), so ||R|| = sqrt(4 + ||[A1,A2]|| ||[B1,B2]||).
``BellSettings.hermitian_norm`` takes the dense norm where Landau's precondition fails.
The Tsirelson sweep's settings are 2P - 1 for Haar projectors P, each pair read as a
coordinate projector E and one Haar frame (one unitary on both keeps the norm), in the
two-subspace sine form (Halmos, 1969): ``reflection_commutator_norms``, each matrix at most
d // 2 wide by ||E P (1 - E)|| = ||(1 - E) P E|| = ||E (1 - P) (1 - E)|| (1 - P is Haar too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from . import linalg
from .linalg import NOISE_TOL, PROJECTOR_FLOOR, as_state, hermitian_eig, operator_norm
from .local_algebra import LocalOperator, RegionLayout, VacuumModel
from .root_theorem import RootCertificate, StageFailure, prove_root_certificate

SQRT2 = math.sqrt(2.0)

# A see-saw run stops once an iteration gains less than SEESAW_TOL, or after SEESAW_ITERS.
SEESAW_TOL = 1e-12
SEESAW_ITERS = 200
# Draws per see-saw start.  On the canonical state 0.20 of draws end at a
# classical fixed point, so all of them stalling has probability near 0.2**8.
SEESAW_DRAWS = 8


@dataclass(frozen=True)
class BellSettings:
    """Two self-adjoint contractions per side: A's on slot 0, B's on slot 1,
    each stored as its Hermitian part H.  R lives on ``slots`` and is exactly
    Hermitian with no check: sums and Kronecker products of exactly Hermitian
    factors stay exactly Hermitian."""

    slots: ClassVar[tuple[int, ...]] = (0, 1)
    a1: LocalOperator
    a2: LocalOperator
    b1: LocalOperator
    b2: LocalOperator

    def __post_init__(self):
        for slot, names in ((0, ("A1", "A2")), (1, ("B1", "B2"))):
            ops = [getattr(self, name.lower()) for name in names]
            for name, op in zip(names, ops):
                if op.slots != (slot,):
                    raise ValueError(f"{name} must live on slot {slot}, got {op.slots}")
            if ops[0].dim != ops[1].dim:
                raise ValueError(f"{names[0]} and {names[1]} differ in dimension")
            herm = hermitian_contractions(np.stack([op.matrix for op in ops]), names)
            for name, h in zip(names, herm):
                object.__setattr__(self, name.lower(), LocalOperator(slot, h))

    def apply(self, vec, layout: RegionLayout) -> np.ndarray:
        """R vec = A1 (B1 + B2) vec + A2 (B1 - B2) vec, one slot at a time."""
        a1, a2, b1, b2 = (op.matrix for op in (self.a1, self.a2, self.b1, self.b2))
        dims = layout.dims
        return (linalg._apply_local(a1, (0,), linalg._apply_local(b1 + b2, (1,), vec, dims), dims)
                + linalg._apply_local(a2, (0,), linalg._apply_local(b1 - b2, (1,), vec, dims), dims))

    def hermitian_norm(self) -> float:
        """||R||: Landau's where X1^2 = X2^2 is a nonzero projector on each side, to
        NOISE_TOL in the Frobenius norm, and else the dense norm of R01."""
        comms = []
        for x1, x2 in ((self.a1.matrix, self.a2.matrix), (self.b1.matrix, self.b2.matrix)):
            p = x1 @ x1
            if not (linalg.frobenius(p - x2 @ x2) <= NOISE_TOL
                    and linalg.frobenius(p @ p - p) <= NOISE_TOL and NOISE_TOL < linalg.frobenius(p)):
                return operator_norm(bell_operator(self, RegionLayout((self.a1.dim, self.b1.dim))))
            comms.append(np.abs(np.linalg.eigvalsh(1j * (x1 @ x2 - x2 @ x1))).max())
        return float(np.sqrt(4.0 + comms[0] * comms[1]))


def hermitian_contractions(x: np.ndarray, names) -> np.ndarray:
    """The Hermitian parts H of a stack (..., k, d, d) of self-adjoint
    contractions, the last stack axis running over ``names``; ValueError
    names the first matrix that is not self-adjoint or not a contraction."""
    dev = linalg.dagger_distance(x)
    herm = 0.5 * (x + linalg.dagger(x))
    # >= ||X||, as ||X - H||_F = dev / 2.  First by two products, tight where H^2 is a
    # projector: an eigenvalue l of H with l^2 > 1 has l^2 - 1 <= ||H^4 - H^2||_F.  eigvalsh
    # runs only where that misses 1 + NOISE_TOL / 2, half the tolerance left for rounding.
    h2 = herm @ herm
    nrm = np.sqrt(1.0 + linalg.frobenius(h2 @ h2 - h2)) + 0.5 * dev
    loose = nrm > 1.0 + 0.5 * NOISE_TOL
    if loose.any():
        nrm[loose] = np.abs(np.linalg.eigvalsh(herm[loose])).max(axis=-1) + 0.5 * dev[loose]
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
    if not p.is_projector():
        raise ValueError("input is not a projector")
    return LocalOperator(p.slots, 2.0 * p.matrix - np.eye(p.dim, dtype=complex))


def bell_operator(s: BellSettings, layout: RegionLayout) -> np.ndarray:
    """R = A1 (B1 + B2) + A2 (B1 - B2) as a dense matrix on the layout: R01 (x) 1,
    since slots (0,1) are the leading Kronecker factors, and R01 itself on 2 slots."""
    a1, a2, b1, b2 = (op.matrix for op in (s.a1, s.a2, s.b1, s.b2))
    r01 = np.kron(a1, b1 + b2) + np.kron(a2, b1 - b2)
    return r01 if layout.n_slots == 2 else np.kron(r01, np.eye(math.prod(layout.dims[2:])))


def bell_correlation(s: BellSettings, state, layout: RegionLayout) -> float:
    """(1/2) Re <R>_state; bounded by sqrt(2) in absolute value."""
    state = as_state(state)
    return 0.5 * float(np.vdot(state, s.apply(state, layout)).real)


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
    """sign(G) for each matrix of a stack (..., r, r), via eigendecomposition of
    its Hermitian part; zero eigenvalues map to +1."""
    w, vecs = np.linalg.eigh(0.5 * (g + linalg.dagger(g)))
    return (vecs * np.where(w < 0.0, -1.0, 1.0)[..., None, :]) @ linalg.dagger(vecs)


def seesaw_maximize(state, layout: RegionLayout, seed: int) -> tuple[BellSettings, float]:
    """Alternating maximization of (1/2) <R> over contraction settings, on the
    state's Schmidt support (Werner & Wolf, Quantum Inf. Comput. 1, 1 (2001)).

    With the B's fixed, A_i = sign(Psi M_i^T Psi^†) (M1 = B1 + B2, M2 = B1 - B2,
    Psi the state's coefficient matrix) is optimal; symmetrically for the B's.
    With Psi = U S W^† of Schmidt rank r (singular values below SCHMIDT_RANK_TOL
    count as 0), sign(U g U^†) = U sign(g) U^† + (1 - U U^†), so the alternation
    runs on r x r matrices a_i = U^† A_i U and t_i = W^† B_i^T W:
    a_{1,2} = sign(S (t1 ± t2) S), t_{1,2} = sign(S (a1 ± a2) S), and the
    objective (1/2) Re sum_i tr(a_i S (t1 ± t2) S) never decreases; a run stops
    at a fixed point or after SEESAW_ITERS.  A run ending with [A1, A2] Psi = 0
    ([a1, a2] S = 0) is stuck at a classical point (value <= 1) and is redone
    from the next draw, up to SEESAW_DRAWS; a draw starts from t1, t2, a1, a2,
    the signs of random r x r Hermitian matrices (the law of U^† H U for a d x d
    draw H).  The settings are written once, as A_i = U a_i U^† + (1 - U U^†)
    and B_i = (W t_i W^†)^T + (1 - (W W^†)^T): +1 on the kernel by construction.
    """
    if layout.n_slots != 2:
        raise ValueError("see-saw runs on 2-slot layouts")
    u, s, wh = linalg.schmidt_support(as_state(state), layout.dims, 0)
    value, a, t = seesaw_starts(s, (seed,))[0]
    a = np.eye(len(u)) + u @ (a - np.eye(len(s))) @ linalg.dagger(u)
    b = np.eye(wh.shape[1]) + (linalg.dagger(wh) @ (t - np.eye(len(s))) @ wh).swapaxes(-1, -2)
    return BellSettings(LocalOperator(0, a[0]), LocalOperator(0, a[1]),
                        LocalOperator(1, b[0]), LocalOperator(1, b[1])), value


def seesaw_starts(s: np.ndarray, seeds) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """``seesaw_maximize``'s value and r x r settings (a, t), checked but not lifted,
    for each of ``seeds``, on a state with the r Schmidt coefficients ``s``
    (``linalg.schmidt_values``): the see-saw depends on nothing else.  The starts iterate
    as one stack, each on its own seed's stream; a start leaves it once it stops gaining,
    and the starts that end at a classical point draw again together."""
    r = len(s)

    def sums(x):  # S (x1 + x2) S and S (x1 - x2) S for each start of a stack (k, 2, r, r)
        return s[:, None] * np.stack((x[:, 0] + x[:, 1], x[:, 0] - x[:, 1]), axis=1) * s

    def values(a, g):  # (1/2) tr(a g) = (1/2) <a, g> for Hermitian a, one start at a time
        return np.array([0.5 * np.vdot(ak, gk).real for ak, gk in zip(a, g)])

    rngs = [np.random.default_rng(seed) for seed in seeds]
    best, out = np.empty(len(rngs)), np.empty((len(rngs), 4, r, r), dtype=complex)  # a, t
    todo = np.arange(len(rngs))
    for _ in range(SEESAW_DRAWS):
        # Four random_hermitian(r, rng) draws per start (t1, t2, a1, a2), in one call.
        z = np.stack([rngs[i].standard_normal((4, 2, r, r)) for i in todo])
        x = z[:, :, 0] + 1j * z[:, :, 1]
        x = _sign_contraction(0.5 * (x + linalg.dagger(x)))
        live, g = todo, sums(x[:, :2])
        value = values(x[:, 2:], g)
        for _ in range(SEESAW_ITERS):
            a = _sign_contraction(g)
            t = _sign_contraction(sums(a))
            g = sums(t)
            current = values(a, g)
            best[live] = np.where(current > value, current, value)  # max(value, current)
            out[live] = np.concatenate((a, t), axis=1)
            going = ~(current - value < SEESAW_TOL)
            live, g, value = live[going], g[going], current[going]
            if not live.size:
                break
        a = out[todo, :2]
        todo = todo[~(linalg.frobenius((a[:, 0] @ a[:, 1] - a[:, 1] @ a[:, 0]) * s) > NOISE_TOL)]
        if not todo.size:
            break
    # U a U^† + (1 - U U^†) is a self-adjoint contraction exactly when a is.
    herm = hermitian_contractions(out, ("A1", "A2", "B1", "B2"))
    return [(float(v), h[:2], h[2:]) for v, h in zip(best, herm)]


def reflection_commutator_norms(u: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """||[2 E - 1, 2 P - 1]|| for each setting of a stack ``u`` (n, d, w): E projects
    onto the first ``ranks[i, 0]`` basis vectors, P onto the first ``ranks[i, 1]``
    columns Q of ``u[i]``, which must be orthonormal to NOISE_TOL (ValueError).  It is
    4 ||(E Q) ((1 - E) Q)^†||, a sine form (Halmos, Trans. AMS 144, 381 (1969)) on row
    blocks of Q with no subtraction: exact at small principal angles, which the cosine
    form from the singular values of E Q loses (Björck & Golub, Math. Comp. 27, 579 (1973)).
    Where 2 k1 > d it takes the adjoint's norm, so ``eigvalsh`` runs on <= d // 2 rows."""
    d = u.shape[1]
    flip = 2 * ranks[:, 0] > d  # ||(1 - E) P E||: rank d - k1 on Q's rows reversed
    k1 = np.where(flip, d - ranks[:, 0], ranks[:, 0])
    rows, width = int(k1.max()), int(ranks[:, 1].max())
    kept = np.arange(width) < ranks[:, 1, None]
    q = u[..., :width] * kept[:, None, :]
    dev = linalg.frobenius(linalg.dagger(q) @ q - kept[..., None] * np.eye(width))
    if not (dev <= NOISE_TOL).all():
        i = int(np.argmax(~(dev <= NOISE_TOL)))
        raise ValueError(f"the frame of setting {i} is not orthonormal: {dev[i]}")
    if not (rows and width):  # E = 0 or P = 0 in every setting: the pairs commute
        return np.zeros(len(u))
    q[flip] = q[flip, ::-1]
    inside = np.arange(d)[:, None] < k1[:, None, None]
    t = (q[:, :rows] * inside[:, :rows]) @ linalg.dagger(q * ~inside)  # E P (1 - E)'s top rows
    return 4.0 * np.sqrt(np.linalg.eigvalsh(t @ linalg.dagger(t))[..., -1])


def tsirelson_certificate(s: BellSettings, layout: RegionLayout) -> float:
    """sqrt(2) - (1/2) ||R|| >= 0 (to noise), R on the layout's slots (0, 1)."""
    return SQRT2 - 0.5 * s.hermitian_norm()


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
    val = complex(np.vdot(v.omega, s.apply(p3_omega, v.layout)))
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

    # chi = first basis vector on slot 2; any unit vector works.
    chi = np.zeros(layout.dims[2], dtype=complex)
    chi[0] = 1.0
    psi = np.kron(phi, chi)
    cert = prove_root_certificate(settings, psi, v, (2,), 2.0 * eps)
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
        tsirelson_margin=SQRT2 - 0.5 * cert.budget.norm_a,  # the pipeline's ||A|| is ||R||
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
    for name, p, q in (("A", settings.a1, settings.a2), ("B", settings.b1, settings.b2)):
        if operator_norm(1j * (p.matrix @ q.matrix - q.matrix @ p.matrix)) <= NOISE_TOL:
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
