"""Local algebras as tensor factors and the vacuum analog.

Each spacetime region is modeled as one tensor slot carrying a full matrix
algebra; spacelike commutativity then holds by construction.  The vacuum
analog is a unit vector whose Schmidt ranks across the relevant
bipartitions certify the cyclic and separating properties:

* cyclic for a region  <=>  Schmidt rank across region|rest equals the
  dimension of the complement,
* separating for a region  <=>  Schmidt rank equals the region's own
  dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import (
    NOISE_TOL,
    SCHMIDT_RANK_TOL,
    as_operator,
    operator_norm,
    tensor_embed,
)


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


@dataclass(frozen=True)
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
        return tensor_embed(self.matrix, self.slots, layout.dims)

    def is_projector(self, tol: float = NOISE_TOL) -> bool:
        p = self.matrix
        return (
            operator_norm(p @ p - p) <= tol
            and operator_norm(p - p.conj().T) <= tol
        )


@dataclass(frozen=True)
class VacuumModel:
    """A unit vector playing the role of the vacuum, with certified ranks."""

    layout: RegionLayout
    omega: np.ndarray
    certified_ranks: dict[tuple[int, ...], int] = field(compare=False)

    @classmethod
    def from_vector(cls, layout: RegionLayout, omega) -> "VacuumModel":
        """Certify an arbitrary unit vector (also serves as the
        bounded-energy replacement for the distinguished vacuum)."""
        omega = linalg.as_state(omega)
        if omega.shape[0] != layout.total_dim:
            raise ValueError(
                f"vector dim {omega.shape[0]} does not match layout {layout.dims}"
            )
        ranks = {}
        for region in _certified_regions(layout):
            ranks[region] = linalg.schmidt_rank(omega, layout.dims, region)
        return cls(layout, omega, ranks)


def _certified_regions(layout: RegionLayout):
    regions = [(s,) for s in range(layout.n_slots)]
    if layout.n_slots == 3:
        regions.append((0, 1))
    return regions


def make_vacuum(layout: RegionLayout, seed: int) -> VacuumModel:
    """Construct the vacuum analog for a layout.

    2 slots: requires d1 = d2 and returns the maximally entangled vector
    sum_k e_k (x) e_k / sqrt(d).  3 slots: requires d3 = d1*d2 and returns
    sum_ij |ij> (x) f_ij / sqrt(d1*d2) with {f_ij} a seeded Haar-random
    orthonormal basis of slot 3.  In both cases the result is cyclic and
    separating wherever the dimension counting permits (every slot of a
    2-slot layout; slot 2 and the merged group (0,1) of a 3-slot layout;
    separating additionally holds on every single slot).
    """
    dims = layout.dims
    if layout.n_slots == 2:
        d1, d2 = dims
        if d1 != d2:
            raise ValueError(
                f"2-slot vacuum needs d1 = d2: Schmidt rank across 0|1 is capped "
                f"at min({d1}, {d2}), so rank {max(d1, d2)} is unreachable"
            )
        omega = np.eye(d1, dtype=complex).ravel() / math.sqrt(d1)
    else:
        d1, d2, d3 = dims
        if d3 != d1 * d2:
            raise ValueError(
                f"3-slot vacuum needs d3 = d1*d2: Schmidt rank {d1 * d2} across "
                f"(0,1)|2 is unreachable with d3 = {d3}"
            )
        rng = np.random.default_rng(seed)
        basis = linalg.haar_unitary(d3, rng)  # column ij is f_ij
        omega = (basis.T / math.sqrt(d1 * d2)).reshape(d1, d2, d3).ravel()
    return VacuumModel.from_vector(layout, omega)


def check_commutativity(a: LocalOperator, b: LocalOperator, layout: RegionLayout) -> float:
    """Norm of the commutator of the embedded operators.

    Zero (within tolerance) whenever the regions are disjoint.
    """
    ea = a.embed(layout)
    eb = b.embed(layout)
    return operator_norm(ea @ eb - eb @ ea)


def check_cyclic(v: VacuumModel, slots, rank_tol: float = SCHMIDT_RANK_TOL) -> bool:
    """True iff {embed(C) omega : C on the region} spans the whole space."""
    slots = linalg._normalize_slots(slots)
    rank = linalg.schmidt_rank(v.omega, v.layout.dims, slots, rank_tol)
    complement_dim = v.layout.region_dim(v.layout.complement(slots))
    return rank == complement_dim


def check_separating(
    v: VacuumModel,
    slots,
    trials: int = 0,
    seed: int = 0,
    rank_tol: float = SCHMIDT_RANK_TOL,
) -> bool:
    """True iff no nonzero operator on the region annihilates the vacuum.

    The rank criterion is exact; ``trials`` random nonzero local operators
    cross-validate it (any A with embed(A) omega = 0 refutes the claim).
    """
    slots = linalg._normalize_slots(slots)
    rank = linalg.schmidt_rank(v.omega, v.layout.dims, slots, rank_tol)
    ok = rank == v.layout.region_dim(slots)
    if ok and trials > 0:
        rng = np.random.default_rng(seed)
        d = v.layout.region_dim(slots)
        for _ in range(trials):
            a = linalg.random_hermitian(d, rng)
            a /= operator_norm(a)
            if np.linalg.norm(tensor_embed(a, slots, v.layout.dims) @ v.omega) <= 1e-12:
                return False
    return ok


def vacuum_positivity(v: VacuumModel, p: LocalOperator) -> float:
    """Vacuum expectation of an embedded nonzero local projector.

    Strictly positive whenever the vacuum is separating for the region.
    """
    if not p.is_projector():
        raise ValueError("operator is not a projector")
    if operator_norm(p.matrix) <= NOISE_TOL:
        raise ValueError("zero projector rejected")
    val = linalg.expectation(p.embed(v.layout), v.omega)
    return float(val.real)


def random_projector(layout: RegionLayout, slots, rank: int, seed: int) -> LocalOperator:
    """Seeded Haar-random rank-``rank`` projector on a region."""
    d = layout.region_dim(slots)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    basis = linalg.haar_unitary(d, rng)[:, :rank]
    p = basis @ basis.conj().T
    p = 0.5 * (p + p.conj().T)
    return LocalOperator(slots, p)
