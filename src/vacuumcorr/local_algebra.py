"""Local algebras as tensor factors and the vacuum analog.

Each spacetime region is modeled as one tensor slot carrying a full matrix
algebra; spacelike commutativity then holds by construction.  The vacuum
analog is a unit vector and nothing else.  The vacuum's two rules live here:
the layout check ``require_vacuum_layout``, and the rank proof
``VacuumModel.gram``, full rank by the region's Gram bound, else counted
from the cut's Schmidt spectrum.  The ranks, read through
``VacuumModel.schmidt_rank``, certify cyclic and separating:

* cyclic for a region  <=>  Schmidt rank across region|rest equals the
  dimension of the complement,
* separating for a region  <=>  Schmidt rank equals the region's own
  dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import NOISE_TOL, as_operator, operator_norm


@dataclass(frozen=True)
class RegionLayout:
    """Ordered local Hilbert-space dimensions, one slot per region."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) not in (2, 3):
            raise ValueError(f"layout must have 2 or 3 slots, got {len(dims)}")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")

    @property
    def n_slots(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def region_dim(self, slots) -> int:
        return math.prod(self.dims[s] for s in linalg._normalize_slots(slots))

    def complement(self, slots) -> tuple[int, ...]:
        slots = linalg._normalize_slots(slots)
        return tuple(i for i in range(self.n_slots) if i not in slots)

    def cut(self, slots) -> int:
        """The cut of a proper region: the slot alone on one side of
        region|rest (slot 0 for 2 slots); slot order is immaterial."""
        slots, n = linalg._normalize_slots(slots), self.n_slots
        if not slots or len(slots) == n or any(s < 0 or s >= n for s in slots):
            raise ValueError(f"region {slots} is not a proper region of layout {self.dims}")
        if len(slots) > 1:  # a merged region's cut is its complement's
            slots = self.complement(slots)
        return slots[0] if n == 3 else 0  # the one cut of 2 slots


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """A matrix attached to one region (a slot or a merged slot group)."""

    slots: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "slots", linalg._normalize_slots(self.slots))
        object.__setattr__(self, "matrix", as_operator(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def embed(self, layout: RegionLayout) -> np.ndarray:
        """The total_dim x total_dim matrix of the operator on the layout, a
        dense reference only: column j is ``apply(e_j, layout)``."""
        basis = np.eye(layout.total_dim, dtype=complex)
        return np.column_stack([self.apply(e, layout) for e in basis])

    def apply(self, vec, layout: RegionLayout) -> np.ndarray:
        """The operator on the layout applied to ``vec``, by the local-action
        kernel on the matrix the constructor validated."""
        return linalg._apply_local(self.matrix, self.slots, vec, layout.dims)

    def hermitian_norm(self) -> float:
        """||X|| by ``operator_norm``, once X = X^† to NOISE_TOL (else ValueError)."""
        dev = linalg.dagger_distance(self.matrix)
        if dev > NOISE_TOL:
            raise ValueError(f"A is not Hermitian: |A - A^†| = {dev}")
        return operator_norm(self.matrix)

    def is_projector(self) -> bool:
        """P^2 = P = P^† to NOISE_TOL in the Frobenius norm (>= the operator norm)."""
        return bool(linalg.is_projector(self.matrix))


@dataclass(frozen=True, eq=False)
class VacuumModel:
    """A unit vector playing the role of the vacuum, on a 2- or 3-slot layout.
    Each cut has one slot alone on a side (slot 0 for 2 slots); a rank
    question reads the cut from ``omega`` and keeps nothing."""

    layout: RegionLayout
    omega: np.ndarray

    @classmethod
    def from_vector(cls, layout: RegionLayout, omega) -> "VacuumModel":
        """Validate an arbitrary unit vector as a vacuum, taking no spectrum
        (also serves as the bounded-energy replacement for the distinguished
        vacuum)."""
        omega = linalg.as_state(omega)
        if omega.shape[0] != layout.total_dim:
            raise ValueError(
                f"vector dim {omega.shape[0]} does not match layout {layout.dims}"
            )
        return cls(layout, omega)

    def gram(self, slots, tol: float = linalg.SCHMIDT_RANK_TOL):
        """The coefficient matrix M of ``omega`` across region|rest, the Gram
        matrix of M's shorter side and M's rank: full where the Gram bound
        exceeds tol^2, else the number of the cut's Schmidt coefficients above
        ``tol``.  ValueError unless the region is proper."""
        cut, dims = self.layout.cut(slots), self.layout.dims
        m = linalg.coefficient_matrix(self.omega, dims, slots)
        g, lower = linalg.gram_bound(m)
        if lower > tol * tol:
            return m, g, min(m.shape)
        return m, g, int(np.sum(linalg.schmidt_coefficients(self.omega, dims, cut) > tol))

    def schmidt_rank(self, slots, tol: float = linalg.SCHMIDT_RANK_TOL) -> int:
        """Number of Schmidt coefficients above ``tol`` across region|rest, by ``gram``."""
        return self.gram(slots, tol)[2]


def require_vacuum_layout(layout: RegionLayout) -> None:
    """ValueError unless ``make_vacuum`` can build a vacuum on the layout:
    d1 = d2 on 2 slots, d3 = d1*d2 on 3."""
    d = layout.dims
    if layout.n_slots == 2 and d[0] != d[1]:
        raise ValueError(f"2-slot vacuum needs d1 = d2: Schmidt rank across 0|1 is capped "
                         f"at min{d}, so rank {max(d)} is unreachable")
    if layout.n_slots == 3 and d[2] != d[0] * d[1]:
        raise ValueError(f"3-slot vacuum needs d3 = d1*d2: Schmidt rank {d[0] * d[1]} across "
                         f"(0,1)|2 is unreachable with d3 = {d[2]}")


def make_vacuum(layout: RegionLayout, seed: int) -> VacuumModel:
    """Construct the vacuum analog for a layout.

    2 slots: requires d1 = d2 and returns the maximally entangled vector
    sum_k e_k (x) e_k / sqrt(d).  3 slots: requires d3 = d1*d2 and returns
    sum_ij |ij> (x) f_ij / sqrt(d1*d2) with {f_ij} a seeded Haar-random
    orthonormal basis of slot 2.  In both cases the result is cyclic and
    separating wherever the dimension counting permits (every slot of a
    2-slot layout; slot 2 and the merged group (0,1) of a 3-slot layout;
    separating additionally holds on every single slot).
    """
    require_vacuum_layout(layout)
    if layout.n_slots == 2:
        omega = np.eye(layout.dims[0], dtype=complex).ravel() / math.sqrt(layout.dims[0])
    else:
        d1, d2, d3 = layout.dims
        rng = np.random.default_rng(seed)
        basis = linalg.haar_unitary(linalg.complex_gaussian(d3, rng))  # column ij is f_ij
        omega = (basis.T / math.sqrt(d1 * d2)).reshape(d1, d2, d3).ravel()
    return VacuumModel.from_vector(layout, omega)


def vacuum_positivity(v: VacuumModel, p: LocalOperator) -> float:
    """Vacuum expectation of an embedded nonzero local projector.

    Strictly positive whenever the vacuum is separating for the region.
    """
    if not p.is_projector():
        raise ValueError("operator is not a projector")
    if np.trace(p.matrix).real <= NOISE_TOL:  # P's rank, once P is a projector
        raise ValueError("zero projector rejected")
    return float(np.vdot(v.omega, p.apply(v.omega, v.layout)).real)


def random_projector(
    layout: RegionLayout, slots, rank: int, seed: int | np.random.Generator
) -> LocalOperator:
    """Haar-random rank-``rank`` projector on a region, drawn from ``seed``
    (an integer seed, or a Generator whose stream it continues)."""
    d = layout.region_dim(slots)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    g = linalg.complex_gaussian(d, np.random.default_rng(seed))
    return LocalOperator(slots, linalg.projector(linalg.haar_unitary(g[:, :rank])))
