"""Dense complex linear algebra on tensor-product spaces.

Everything here works on plain numpy arrays: operators are square complex
matrices, states are normalized complex vectors.  Slot 0 is always the
leftmost (slowest-varying) Kronecker factor; this convention is fixed
globally so serialized outputs are bit-stable.

Nothing here builds a matrix on the whole tensor-product space.
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


def dagger(a: np.ndarray) -> np.ndarray:
    """The adjoint of each matrix in a stack (..., m, n)."""
    return a.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm (>= the operator norm) of each matrix in a stack (..., m, n)."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))


def dagger_distance(a: np.ndarray) -> np.ndarray:
    """Frobenius distance of each matrix in a stack (..., d, d) to its adjoint:
    0 for Hermitian input, >= the operator-norm one."""
    return frobenius(a - dagger(a))


def _normalize_slots(slots) -> tuple[int, ...]:
    if isinstance(slots, (int, np.integer)):
        return (int(slots),)
    out = tuple(int(s) for s in slots)
    if len(out) != len(set(out)):
        raise ValueError(f"duplicate slot indices: {out}")
    return out


def _slot_order(dims, slots: tuple[int, ...]):
    """The axis order that puts the normalized ``slots`` first, and the shape
    of the layout tensor in that order."""
    order = slots + tuple([i for i in range(len(dims)) if i not in slots])
    return order, tuple(dims[i] for i in order)


def _slots_first(vec, dims, slots: tuple[int, ...]):
    """``coefficient_matrix`` on normalized slots, with the axis order and the
    shape of the permuted layout tensor that it flattens."""
    order, shape = _slot_order(dims, slots)
    t = np.asarray(vec, dtype=complex).reshape(dims).transpose(order)
    return t.reshape(math.prod(shape[:len(slots)]), -1), order, shape


def _slots_back(m: np.ndarray, order, shape) -> np.ndarray:
    """The inverse of ``_slots_first``: a matrix across slots|rest, in the axis
    order and shape that it returned, as a vector in layout order."""
    inverse = tuple(map(order.index, range(len(order))))
    return m.reshape(shape).transpose(inverse).reshape(-1)


def coefficient_matrix(vec, dims, slots) -> np.ndarray:
    """``vec`` as a matrix across slots|rest: rows run over ``slots`` in the
    given order, columns over the other slots in layout order."""
    return _slots_first(vec, dims, _normalize_slots(slots))[0]


def _apply_local(op: np.ndarray, slots: tuple[int, ...], vec, dims: tuple[int, ...]):
    """The validated ``op`` acting on the normalized factors ``slots`` of the layout
    ``dims`` and as the identity on the others, applied to ``vec``.

    One transpose puts the axes ``slots`` first, one matmul applies ``op`` to
    the coefficient matrix across slots|rest, one transpose puts the axes
    back: O(dim(op) total_dim) work, never the total_dim x total_dim matrix.
    """
    if not slots or min(slots) < 0 or max(slots) >= len(dims):
        raise ValueError(f"slots {slots} out of range for layout {dims}")
    m, order, shape = _slots_first(vec, dims, slots)
    if op.shape[0] != m.shape[0]:
        raise ValueError(f"operator dim {op.shape[0]} does not match slot dims "
                         f"{tuple(dims[s] for s in slots)} (need {m.shape[0]})")
    return _slots_back(op @ m, order, shape)


def operator_norm(a) -> float:
    """The operator norm of a Hermitian matrix, max |eigenvalue|; the input
    must be Hermitian (``eigvalsh`` reads only its lower triangle)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues are real and strictly descending after merging near-equal
    values; ``blocks[i]`` holds orthonormal eigenvectors spanning the i-th
    eigenspace as its columns (d x multiplicity); ``values`` are the unmerged
    eigenvalues, one per column of the blocks in turn.
    """

    eigenvalues: tuple[float, ...]
    blocks: tuple[np.ndarray, ...]
    values: np.ndarray


def projector(block) -> np.ndarray:
    """The orthogonal projector B B^† onto the span of the orthonormal columns B,
    for each block of a stack (..., d, r)."""
    p = block @ dagger(block)
    return 0.5 * (p + dagger(p))


def is_projector(p: np.ndarray) -> np.ndarray:
    """P^2 = P = P^† to NOISE_TOL in the Frobenius norm, for each matrix of a
    stack (..., d, d)."""
    return (frobenius(p @ p - p) <= NOISE_TOL) & (dagger_distance(p) <= NOISE_TOL)


def hermitian_eig(a) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix into eigenspace blocks.

    Eigenvalues agreeing within NOISE_TOL are merged into a single block
    with one column per unit of multiplicity.  ``a`` must be Hermitian to
    NOISE_TOL relative to its Frobenius norm (at least 1), so that rounding
    in a large product such as C^† C does not count as skew.
    """
    a = as_operator(a)
    dev = dagger_distance(a)
    if dev > NOISE_TOL * max(1.0, float(np.linalg.norm(a))):
        raise ValueError(f"matrix is not Hermitian: |a - a^†| = {dev}")
    w, vecs = np.linalg.eigh(a)
    w = w[::-1]
    vecs = vecs[:, ::-1]
    bounds = [0, *(np.flatnonzero(np.abs(np.diff(w)) > NOISE_TOL) + 1).tolist(), len(w)]
    blocks = tuple(vecs[:, i:j] for i, j in zip(bounds, bounds[1:]))
    # Each block is summed after a leading 0.0, as np.add.reduce sums from its
    # identity: every eigenvalue keeps the bits of np.mean over its block (a block
    # of one reads x itself, but -0.0 reads 0.0).
    starts = bounds[:-1]
    sums = np.add.reduceat(np.insert(w, starts, 0.0), np.arange(len(starts)) + starts)
    return EigenSystem(tuple((sums / np.diff(bounds)).tolist()), blocks, w)


def gram_bound(m: np.ndarray) -> tuple[np.ndarray, float]:
    """The Gram matrix G of ``m``'s shorter side (m^† m, or m m^† for a wide
    ``m``) and a lower bound on each squared singular value of ``m``: by
    Weyl's inequality each lies within ||G - cI||_F of c = tr G / n, where
    the product's rounding moves G by at most gamma_{k+2} ||m||_F^2 (inner
    length k; Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 3) and the norm's own rounding, once below c, by no more."""
    k, n = max(m.shape), min(m.shape)
    g = m.conj().T @ m if m.shape[0] >= m.shape[1] else m @ m.conj().T
    trace = float(np.trace(g).real)  # ||m||_F^2 to rounding
    diag = g.diagonal().copy()
    np.fill_diagonal(g, diag - trace / n)  # G - cI in place, then G again
    dev = float(np.linalg.norm(g))
    np.fill_diagonal(g, diag)
    ku = (k + 2) * np.finfo(float).eps / 2
    return g, trace / n - dev - 2 * ku / (1 - ku) * trace


def schmidt_coefficients(psi, dims, left_slots) -> np.ndarray:
    """Singular values of the coefficient matrix across left_slots|rest.
    ``VacuumModel`` validates the vector and the region it asks about."""
    return np.linalg.svd(coefficient_matrix(psi, dims, left_slots), compute_uv=False)


def schmidt_values(psi, dims, left_slots) -> np.ndarray:
    """The Schmidt coefficients across left_slots|rest above SCHMIDT_RANK_TOL (those
    below count as 0), from an SVD that forms no vectors."""
    s = schmidt_coefficients(psi, dims, left_slots)
    return s[:int(np.sum(s > SCHMIDT_RANK_TOL))]


def complex_gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A dim x dim standard complex Gaussian matrix: the real block is drawn
    first, then the imaginary block, in one call."""
    g = rng.standard_normal((2, dim, dim))
    return g[0] + 1j * g[1]


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = complex_gaussian(dim, rng)
    return 0.5 * (g + g.conj().T)


def haar_unitary(g: np.ndarray) -> np.ndarray:
    """A Haar unitary's first k columns from each complex Gaussian matrix of a stack
    (..., d, k): its QR factor Q with the standard phase fix (Mezzadri, Notices
    AMS 54, 592 (2007)), column j times the phase of R_jj."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
