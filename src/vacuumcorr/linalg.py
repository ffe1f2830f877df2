"""Dense complex linear algebra on tensor-product spaces.

Everything here works on plain numpy arrays: operators are square complex
matrices, states are normalized complex vectors.  Slot 0 is always the
leftmost (slowest-varying) Kronecker factor; this convention is fixed
globally so serialized outputs are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Noise floor for identities that hold exactly in exact arithmetic:
# Hermiticity, projector and contraction checks, the imaginary part of a
# real expectation, a vanishing commutator.
NOISE_TOL = 1e-10
EIG_MERGE_TOL = 1e-10
SCHMIDT_RANK_TOL = 1e-9
STATE_NORM_TOL = 1e-12


def as_operator(a) -> np.ndarray:
    """Validate and coerce a square complex matrix with finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_state(psi, *, norm_tol: float = STATE_NORM_TOL) -> np.ndarray:
    """Validate a unit vector (within norm_tol of norm 1)."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if not np.all(np.isfinite(psi)):
        raise ValueError("vector entries must be finite")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > norm_tol:
        raise ValueError(f"expected a unit vector, got norm {nrm}")
    return psi


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def dagger_distance(a: np.ndarray) -> float:
    """Operator-norm distance to the adjoint (0 for Hermitian input)."""
    a = as_operator(a)
    return operator_norm(a - adjoint(a))


def _normalize_slots(slots) -> tuple[int, ...]:
    if isinstance(slots, (int, np.integer)):
        return (int(slots),)
    out = tuple(int(s) for s in slots)
    if len(out) != len(set(out)):
        raise ValueError(f"duplicate slot indices: {out}")
    return out


def tensor_embed(op, slots, dims) -> np.ndarray:
    """Embed a local operator into the full space.

    ``op`` acts on the (ordered) tensor factors listed in ``slots`` and as
    the identity on all other factors of the layout ``dims``.  ``slots``
    may be a single index or a tuple of indices.
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
    rest = [i for i in range(n) if i not in slots]
    d_rest = math.prod(dims[i] for i in rest) if rest else 1
    big = np.kron(op, np.eye(d_rest, dtype=complex))
    if not rest:
        return big
    order = list(slots) + rest
    if order == list(range(n)):
        return big
    # Permute the axes from (slots..., rest...) back to layout order.
    ax_dims = [dims[i] for i in order]
    t = big.reshape(ax_dims + ax_dims)
    perm = [order.index(i) for i in range(n)]
    t = t.transpose(perm + [n + p for p in perm])
    total = math.prod(dims)
    return np.ascontiguousarray(t.reshape(total, total))


def operator_norm(a) -> float:
    """Largest singular value (max |eigenvalue| for Hermitian input)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def expectation(a, psi) -> complex:
    """(psi, A psi) for a unit vector psi."""
    a = as_operator(a)
    psi = as_state(psi)
    if a.shape[0] != psi.shape[0]:
        raise ValueError(
            f"operator dim {a.shape[0]} does not match vector dim {psi.shape[0]}"
        )
    return complex(np.vdot(psi, a @ psi))


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues are real and strictly descending after merging near-equal
    values; ``projectors[i]`` is the orthogonal projector onto the i-th
    eigenspace (rank = multiplicity).
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def reconstruct(self) -> np.ndarray:
        dim = self.projectors[0].shape[0]
        out = np.zeros((dim, dim), dtype=complex)
        for lam, proj in zip(self.eigenvalues, self.projectors):
            out += lam * proj
        return out


def hermitian_eig(
    a,
    *,
    merge_tol: float = EIG_MERGE_TOL,
    herm_tol: float = NOISE_TOL,
) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix into eigenspace projectors.

    Eigenvalues agreeing within ``merge_tol`` are merged into a single
    projector of rank equal to the multiplicity.
    """
    a = as_operator(a)
    dev = dagger_distance(a)
    if dev > herm_tol:
        raise ValueError(f"matrix is not Hermitian: |a - a^†| = {dev}")
    w, vecs = np.linalg.eigh(a)
    w = w[::-1]
    vecs = vecs[:, ::-1]
    eigenvalues: list[float] = []
    projectors: list[np.ndarray] = []
    i = 0
    n = len(w)
    while i < n:
        j = i + 1
        while j < n and abs(w[j] - w[j - 1]) <= merge_tol:
            j += 1
        block = vecs[:, i:j]
        proj = block @ block.conj().T
        proj = 0.5 * (proj + proj.conj().T)
        eigenvalues.append(float(np.mean(w[i:j])))
        projectors.append(proj)
        i = j
    return EigenSystem(tuple(eigenvalues), tuple(projectors))


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
    right = tuple(i for i in range(n) if i not in left)
    t = psi.reshape(dims).transpose(left + right)
    d_left = math.prod(dims[s] for s in left)
    m = t.reshape(d_left, -1)
    return np.linalg.svd(m, compute_uv=False)


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
