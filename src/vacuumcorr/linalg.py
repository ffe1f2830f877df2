"""Dense complex linear algebra on tensor-product spaces.

Everything here works on plain numpy arrays: operators are square complex
matrices, states are normalized complex vectors.  Slot 0 is always the
leftmost (slowest-varying) Kronecker factor; this convention is fixed
globally so serialized outputs are bit-stable.

``apply_local`` and ``coefficient_matrix`` carry every vacuum quantity:
nothing here builds a matrix on the whole tensor-product space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Noise floor for identities that hold exactly in exact arithmetic:
# Hermiticity, projector and contraction checks, the imaginary part of a
# real expectation, a vanishing commutator, the gap between equal eigenvalues.
NOISE_TOL = 1e-10
SCHMIDT_RANK_TOL = 1e-9
# Floor below which a vacuum norm or expectation counts as zero; also the
# slack on a unit vector's norm.
PROJECTOR_FLOOR = 1e-12


def as_operator(a) -> np.ndarray:
    """Validate and coerce a square complex matrix with finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_state(psi) -> np.ndarray:
    """Validate a unit vector (within PROJECTOR_FLOOR of norm 1)."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if not np.all(np.isfinite(psi)):
        raise ValueError("vector entries must be finite")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > PROJECTOR_FLOOR:
        raise ValueError(f"expected a unit vector, got norm {nrm}")
    return psi


def dagger_distance(a: np.ndarray) -> float:
    """Frobenius distance to the adjoint: 0 for Hermitian input, >= the operator-norm one."""
    a = as_operator(a)
    return float(np.linalg.norm(a - a.conj().T))


def _normalize_slots(slots) -> tuple[int, ...]:
    if isinstance(slots, (int, np.integer)):
        return (int(slots),)
    out = tuple(int(s) for s in slots)
    if len(out) != len(set(out)):
        raise ValueError(f"duplicate slot indices: {out}")
    return out


def coefficient_matrix(vec, dims, slots) -> np.ndarray:
    """``vec`` as a matrix across slots|rest: rows run over ``slots`` in the
    given order, columns over the other slots in layout order."""
    slots = _normalize_slots(slots)
    t = np.asarray(vec, dtype=complex).reshape(dims)
    t = t.transpose(slots + tuple(i for i in range(len(dims)) if i not in slots))
    return t.reshape(math.prod(dims[s] for s in slots), -1)


def apply_local(op, slots, vec, dims) -> np.ndarray:
    """``op`` acting on the (ordered) factors ``slots`` of the layout ``dims``
    and as the identity on the others, applied to ``vec``.

    Reshapes ``vec`` to the layout tensor, contracts ``op`` with the axes
    in ``slots`` and flattens the result back: O(dim(op) total_dim) work,
    never the total_dim x total_dim matrix.
    """
    op = as_operator(op)
    dims = tuple(int(d) for d in dims)
    slots = _normalize_slots(slots)
    n = len(dims)
    if not slots or any(s < 0 or s >= n for s in slots):
        raise ValueError(f"slots {slots} out of range for layout {dims}")
    d_slots = math.prod(dims[s] for s in slots)
    if op.shape[0] != d_slots:
        raise ValueError(
            f"operator dim {op.shape[0]} does not match slot dims "
            f"{tuple(dims[s] for s in slots)} (need {d_slots})"
        )
    order = list(slots) + [i for i in range(n) if i not in slots]
    t = op @ coefficient_matrix(vec, dims, slots)
    return t.reshape([dims[i] for i in order]).transpose(np.argsort(order)).reshape(-1)


def operator_norm(a) -> float:
    """Largest singular value (max |eigenvalue| for Hermitian input)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues are real and strictly descending after merging near-equal
    values; ``blocks[i]`` holds orthonormal eigenvectors spanning the i-th
    eigenspace as its columns (d x multiplicity).
    """

    eigenvalues: tuple[float, ...]
    blocks: tuple[np.ndarray, ...]


def projector(block) -> np.ndarray:
    """The orthogonal projector B B^† onto the span of the orthonormal columns B."""
    p = block @ block.conj().T
    return 0.5 * (p + p.conj().T)


def hermitian_eig(a) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix into eigenspace blocks.

    Eigenvalues agreeing within NOISE_TOL are merged into a single block
    with one column per unit of multiplicity.
    """
    a = as_operator(a)
    dev = dagger_distance(a)
    if dev > NOISE_TOL:
        raise ValueError(f"matrix is not Hermitian: |a - a^†| = {dev}")
    w, vecs = np.linalg.eigh(a)
    w = w[::-1]
    vecs = vecs[:, ::-1]
    eigenvalues: list[float] = []
    blocks: list[np.ndarray] = []
    i = 0
    n = len(w)
    while i < n:
        j = i + 1
        while j < n and abs(w[j] - w[j - 1]) <= NOISE_TOL:
            j += 1
        eigenvalues.append(float(np.mean(w[i:j])))
        blocks.append(vecs[:, i:j])
        i = j
    return EigenSystem(tuple(eigenvalues), tuple(blocks))


def schmidt_coefficients(psi, dims, left_slots) -> np.ndarray:
    """Singular values of the coefficient matrix across a bipartition."""
    dims = tuple(int(d) for d in dims)
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.shape[0] != math.prod(dims):
        raise ValueError(f"vector dim {psi.shape[0]} does not match layout {dims}")
    left = _normalize_slots(left_slots)
    n = len(dims)
    if not left or any(s < 0 or s >= n for s in left):
        raise ValueError(f"left slots {left} out of range for layout {dims}")
    if len(left) == n:
        raise ValueError("left slots must be a proper subset of all slots")
    return np.linalg.svd(coefficient_matrix(psi, dims, left), compute_uv=False)


def schmidt_rank(psi, dims, left_slots, tol: float = SCHMIDT_RANK_TOL) -> int:
    """Number of Schmidt coefficients above ``tol`` across the bipartition."""
    return int(np.sum(schmidt_coefficients(psi, dims, left_slots) > tol))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
