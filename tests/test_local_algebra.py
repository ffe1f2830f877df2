import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import embed_oracle, random_state, span_dimension

from vacuumcorr import linalg
from vacuumcorr.linalg import operator_norm, schmidt_coefficients
from vacuumcorr.local_algebra import (
    LocalOperator,
    RegionLayout,
    VacuumModel,
    check_cyclic,
    check_separating,
    make_vacuum,
    random_projector,
    vacuum_positivity,
)

Z = LocalOperator(0, np.diag([1.0, -1.0]))
X0 = LocalOperator(0, np.array([[0.0, 1.0], [1.0, 0.0]]))
X1 = LocalOperator(1, np.array([[0.0, 1.0], [1.0, 0.0]]))

L22 = RegionLayout((2, 2))
L224 = RegionLayout((2, 2, 4))


def bell_vacuum():
    return make_vacuum(L22, seed=0)


class TestRegionLayout:
    def test_rejects_wrong_slot_count(self):
        with pytest.raises(ValueError, match="2 or 3 slots"):
            RegionLayout((2,))
        with pytest.raises(ValueError, match="2 or 3 slots"):
            RegionLayout((2, 2, 2, 2))

    def test_rejects_trivial_dims(self):
        with pytest.raises(ValueError, match=">= 2"):
            RegionLayout((1, 2))

    def test_total_dim(self):
        assert L224.total_dim == 16
        assert L224.region_dim((0, 1)) == 4
        assert L224.complement((2,)) == (0, 1)


class TestMakeVacuum:
    def test_two_slot_maximally_entangled(self):
        v = bell_vacuum()
        svals = schmidt_coefficients(v.omega, (2, 2), 0)
        np.testing.assert_allclose(svals, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_three_slot_rank_across_pair(self):
        v = make_vacuum(L224, seed=1)
        assert v.schmidt_rank((0, 1)) == 4
        assert v.schmidt_rank((2,)) == 4
        assert v.schmidt_rank((0,)) == 2
        assert v.schmidt_rank((1,)) == 2

    def test_rejects_mismatched_third_slot(self):
        with pytest.raises(ValueError, match="unreachable"):
            make_vacuum(RegionLayout((2, 2, 3)), seed=0)

    def test_rejects_unequal_two_slot(self):
        with pytest.raises(ValueError, match="unreachable"):
            make_vacuum(RegionLayout((2, 3)), seed=0)

    def test_deterministic_per_seed(self):
        a = make_vacuum(L224, seed=9)
        b = make_vacuum(L224, seed=9)
        np.testing.assert_array_equal(a.omega, b.omega)


def commutator_norm(a: LocalOperator, b: LocalOperator, layout: RegionLayout) -> float:
    """||[A, B]|| of the operators on the whole layout, from the oracle embedding."""
    ea = embed_oracle(a.matrix, a.slots, layout.dims)
    eb = embed_oracle(b.matrix, b.slots, layout.dims)
    return operator_norm(ea @ eb - eb @ ea)


def product_sum(dims, terms: int, rng: np.random.Generator) -> np.ndarray:
    """A unit sum of ``terms`` random product vectors: its Schmidt rank
    across every cut is at most ``terms``."""
    psi = 0
    for _ in range(terms):
        term = np.ones(1, dtype=complex)
        for d in dims:
            term = np.kron(term, random_state(d, rng))
        psi = psi + term
    return psi / np.linalg.norm(psi)


class TestSchmidtRank:
    def test_product_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        assert VacuumModel.from_vector(L22, psi).schmidt_rank(0) == 1

    def test_bell_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
        assert VacuumModel.from_vector(L22, psi).schmidt_rank(0) == 2

    def test_full_support_capped_by_smaller_factor(self):
        rng = np.random.default_rng(2)
        psi = random_state(6, rng)
        # Oracle: rank of the coefficient matrix built by hand.
        m = psi.reshape(2, 3)
        svals = np.sqrt(np.linalg.eigvalsh(m @ m.conj().T))
        assert int(np.sum(svals > 1e-9)) == 2
        v = VacuumModel.from_vector(RegionLayout((2, 3)), psi)
        assert v.schmidt_rank(0) == v.schmidt_rank(1) == 2

    def test_rejects_empty_or_full_slot_set(self):
        v = VacuumModel.from_vector(L22, random_state(4, np.random.default_rng(3)))
        with pytest.raises(ValueError):
            v.schmidt_rank(())
        with pytest.raises(ValueError):
            v.schmidt_rank((0, 1))

    @pytest.mark.parametrize("slots", [(3,), (-1,), (0, 3), (0, 0), (2, 1, 0)])
    def test_rejects_out_of_range_duplicate_or_full_slots(self, slots):
        with pytest.raises(ValueError):
            make_vacuum(L224, seed=0).schmidt_rank(slots)

    def test_tolerance_is_the_cutoff(self):
        v = bell_vacuum()  # both Schmidt coefficients are 1/sqrt(2)
        assert v.schmidt_rank(0, tol=0.7) == v.schmidt_rank(1, tol=0.7) == 2
        assert v.schmidt_rank(0, tol=0.8) == v.schmidt_rank(1, tol=0.8) == 0

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2, 4), (2, 3, 6)])
    @pytest.mark.parametrize("terms", [None, 1, 2])
    def test_matches_span_oracle_on_every_region(self, dims, terms):
        # The span of {(C (x) 1) omega} has dimension rank * dim(region); it
        # does not depend on the slot order, so one oracle serves every order.
        rng = np.random.default_rng(len(dims) * 10 + (terms or 0))
        total = math.prod(dims)
        psi = random_state(total, rng) if terms is None else product_sum(dims, terms, rng)
        v = VacuumModel.from_vector(RegionLayout(dims), psi)
        for k in range(1, len(dims)):
            for region in itertools.combinations(range(len(dims)), k):
                want = span_dimension(psi, dims, region) // v.layout.region_dim(region)
                for ordered in itertools.permutations(region):
                    assert v.schmidt_rank(ordered) == want, (dims, ordered)


class TestCommutativity:
    def test_distinct_slots(self):
        v = L22
        z0 = Z
        x1 = X1
        assert commutator_norm(z0, x1, v) <= 1e-10

    def test_same_slot_pauli(self):
        # ||[Z, X]|| = ||2iY|| = 2 by direct 2x2 computation.
        assert abs(commutator_norm(Z, X0, L22) - 2.0) <= 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_distinct_slots(self, seed):
        rng = np.random.default_rng(seed)
        a = LocalOperator(0, linalg.random_hermitian(2, rng))
        b = LocalOperator(2, linalg.random_hermitian(4, rng))
        assert commutator_norm(a, b, L224) <= 1e-10


class TestCyclicSeparating:
    def test_maximally_entangled_cyclic(self):
        v = bell_vacuum()
        assert check_cyclic(v, 0)
        assert check_cyclic(v, 1)

    def test_product_state_not_cyclic(self):
        product = np.zeros(4, dtype=complex)
        product[0] = 1.0
        v = VacuumModel.from_vector(L22, product)
        assert not check_cyclic(v, 0)

    def test_rank_capped_state_on_2x3(self):
        # A full-support state on (2, 3) has rank 2: cyclic for slot 1
        # (complement dim 2) but not for slot 0 (complement dim 3).
        psi = random_state(6, np.random.default_rng(4))
        v = VacuumModel.from_vector(RegionLayout((2, 3)), psi)
        assert check_cyclic(v, 1)
        assert not check_cyclic(v, 0)

    def test_matches_span_oracle(self):
        v = bell_vacuum()
        assert span_dimension(v.omega, (2, 2), 0) == 4
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        assert span_dimension(psi, (2, 2), 0) == 2

    def test_separating_maximally_entangled(self):
        v = bell_vacuum()
        assert check_separating(v, 0, trials=10, seed=1)
        assert check_separating(v, 1, trials=10, seed=1)

    def test_explicit_annihilator(self):
        # omega = e1 (x) e0 is annihilated by |e0><e0| on slot 0.
        omega = np.zeros(4, dtype=complex)
        omega[2] = 1.0  # e1 (x) e0
        v = VacuumModel.from_vector(L22, omega)
        a = np.diag([1.0, 0.0]).astype(complex)
        assert np.linalg.norm(embed_oracle(a, 0, (2, 2)) @ omega) <= 1e-14
        assert not check_separating(v, 0)

    def test_three_slot_vacuum(self):
        v = make_vacuum(L224, seed=2)
        for region in [(0,), (1,), (2,), (0, 1)]:
            assert check_separating(v, region, trials=5, seed=3)
        assert check_cyclic(v, (2,))
        assert check_cyclic(v, (0, 1))


class TestVacuumPositivity:
    def test_identity(self):
        v = bell_vacuum()
        assert abs(vacuum_positivity(v, LocalOperator(0, np.eye(2))) - 1.0) <= 1e-12

    def test_rank_one_on_maximally_entangled(self):
        # The reduced state is maximally mixed, so any rank-1 projector
        # has vacuum expectation exactly 1/2.
        v = bell_vacuum()
        for seed in range(5):
            p = random_projector(L22, 0, 1, seed)
            assert abs(vacuum_positivity(v, p) - 0.5) <= 1e-10

    def test_zero_projector_rejected(self):
        v = bell_vacuum()
        with pytest.raises(ValueError, match="zero projector"):
            vacuum_positivity(v, LocalOperator(0, np.zeros((2, 2))))

    def test_non_projector_rejected(self):
        v = bell_vacuum()
        with pytest.raises(ValueError, match="not a projector"):
            vacuum_positivity(v, LocalOperator(0, 0.5 * np.eye(2)))

    def test_separating_implies_positive(self):
        v = make_vacuum(L224, seed=5)
        for seed in range(100):
            slot = seed % 3
            d = L224.dims[slot]
            rank = 1 + seed % d
            p = random_projector(L224, slot, rank, seed)
            assert vacuum_positivity(v, p) > 1e-12


class TestRandomProjector:
    def test_full_rank_is_identity(self):
        p = random_projector(L22, 0, 2, seed=7)
        np.testing.assert_allclose(p.matrix, np.eye(2), atol=1e-10)

    def test_trace_equals_rank(self):
        p = random_projector(L224, 2, 3, seed=8)
        assert abs(np.trace(p.matrix).real - 3.0) <= 1e-10
        assert p.is_projector()

    @given(dim=st.integers(2, 6), seed=st.integers(0, 10_000),
           log_noise=st.floats(-13, -8), hermitian=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_is_projector_rejects_what_the_operator_norm_rejects(
        self, dim, seed, log_noise, hermitian
    ):
        rng = np.random.default_rng(seed)
        p = random_projector(RegionLayout((dim, 2)), 0, int(rng.integers(1, dim + 1)), seed).matrix
        g = linalg.random_hermitian(dim, rng) if hermitian else (
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        p = p + 10.0**log_noise * g
        old_accepts = (np.linalg.norm(p @ p - p, 2) <= linalg.NOISE_TOL
                       and np.linalg.norm(p - p.conj().T, 2) <= linalg.NOISE_TOL)
        if not old_accepts:
            assert not LocalOperator(0, p).is_projector()

    def test_deterministic(self):
        a = random_projector(L22, 1, 1, seed=42)
        b = random_projector(L22, 1, 1, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_generator_seed_continues_its_stream(self):
        rng = np.random.default_rng(42)
        first = random_projector(L224, 2, 2, rng)
        second = random_projector(L224, 2, 2, rng)
        np.testing.assert_array_equal(first.matrix, random_projector(L224, 2, 2, 42).matrix)
        assert not np.allclose(first.matrix, second.matrix)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="rank"):
            random_projector(L22, 0, 3, seed=0)
        with pytest.raises(ValueError, match="rank"):
            random_projector(L22, 0, 0, seed=0)


class TestSchliederProperty:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_product_of_embedded_norms(self, seed):
        rng = np.random.default_rng(seed)
        a = linalg.random_hermitian(2, rng)
        b = linalg.random_hermitian(2, rng)
        ea = embed_oracle(a, 0, (2, 2))
        eb = embed_oracle(b, 1, (2, 2))
        prod = operator_norm(ea @ eb)
        assert abs(prod - operator_norm(a) * operator_norm(b)) <= 1e-9
        assert prod > 0.0
