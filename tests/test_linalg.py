import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import charpoly_eigenvalues, embed_oracle, random_state

from vacuumcorr import linalg
from vacuumcorr.linalg import (
    hermitian_eig,
    operator_norm,
    projector,
    schmidt_coefficients,
)
from vacuumcorr.local_algebra import LocalOperator, RegionLayout

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def ordered_slot_tuples(n: int):
    for k in range(1, n + 1):
        yield from itertools.permutations(range(n), k)


class TestApplyLocal:
    @given(dims=st.lists(st.integers(2, 4), min_size=2, max_size=3), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_on_every_ordered_slot_tuple(self, dims, seed):
        rng = np.random.default_rng(seed)
        layout = RegionLayout(tuple(dims))
        for slots in ordered_slot_tuples(len(dims)):
            d = layout.region_dim(slots)
            op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            vec = random_state(layout.total_dim, rng)
            want = embed_oracle(op, slots, dims) @ vec
            got = linalg.apply_local(op, slots, vec, dims)
            np.testing.assert_allclose(got, want, atol=1e-12)
            local = LocalOperator(slots, op)
            np.testing.assert_allclose(local.apply(vec, layout), want, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            linalg.apply_local(Z, 1, np.ones(6), (2, 3))


def embed(op, slots, dims) -> np.ndarray:
    return LocalOperator(slots, op).embed(RegionLayout(dims))


class TestLocalOperatorEmbed:
    def test_diag_slot0(self):
        out = embed(Z, 0, (2, 2))
        np.testing.assert_allclose(out, np.diag([1, 1, -1, -1]).astype(complex))

    def test_identity_any_slot(self):
        for slot, d in [(0, 2), (1, 3)]:
            out = embed(np.eye(d), slot, (2, 3))
            np.testing.assert_allclose(out, np.eye(6))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            embed(Z, 1, (2, 3))

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        dims = (2, 3, 2)
        for slots in [0, 1, 2, (0, 1), (1, 2), (0, 2), (2, 1), (2, 0, 1)]:
            d = math.prod(
                dims[s] for s in ((slots,) if isinstance(slots, int) else slots)
            )
            op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            np.testing.assert_allclose(
                embed(op, slots, dims), embed_oracle(op, slots, dims),
                atol=1e-12,
            )

    def test_preserves_operator_norm(self):
        rng = np.random.default_rng(11)
        for slot in (0, 1):
            a = linalg.random_hermitian(2, rng)
            assert abs(
                operator_norm(embed(a, slot, (2, 2))) - operator_norm(a)
            ) <= 1e-10

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_distinct_slots_commute(self, seed):
        rng = np.random.default_rng(seed)
        a = embed(linalg.random_hermitian(2, rng), 0, (2, 3))
        b = embed(linalg.random_hermitian(3, rng), 1, (2, 3))
        assert operator_norm(a @ b - b @ a) <= 1e-10


class TestOperatorNorm:
    def test_projector_norm_one(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        assert abs(operator_norm(p) - 1.0) <= 1e-12

    def test_symmetry_norm_one(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        assert abs(operator_norm(2 * p - np.eye(2)) - 1.0) <= 1e-12

    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_submultiplicative(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9


class TestDaggerDistance:
    @given(dim=st.integers(1, 6), seed=st.integers(0, 10_000), log_noise=st.floats(-13, -8))
    @settings(max_examples=80, deadline=None)
    def test_rejects_what_the_operator_norm_rejects(self, dim, seed, log_noise):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = linalg.random_hermitian(dim, rng) + 10.0**log_noise * g
        old = np.linalg.norm(a - a.conj().T, 2)
        new = linalg.dagger_distance(a)
        assert new >= old * (1.0 - 1e-12)
        if old > linalg.NOISE_TOL:
            assert new > linalg.NOISE_TOL


class TestHermitianEig:
    def test_degenerate_diagonal(self):
        es = hermitian_eig(np.diag([3.0, 1.0, 1.0]).astype(complex))
        assert es.eigenvalues == (3.0, 1.0)
        ranks = [b.shape[1] for b in es.blocks]
        assert ranks == [1, 2]

    def test_pauli_x(self):
        es = hermitian_eig(X)
        np.testing.assert_allclose(es.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(5)
        a = linalg.random_hermitian(8, rng)
        es = hermitian_eig(a)
        rebuilt = sum(lam * projector(b) for lam, b in zip(es.eigenvalues, es.blocks))
        assert operator_norm(rebuilt - a) <= 1e-10

    def test_projector_invariants(self):
        rng = np.random.default_rng(6)
        a = linalg.random_hermitian(6, rng)
        es = hermitian_eig(a)
        projectors = [projector(b) for b in es.blocks]
        for i, p in enumerate(projectors):
            assert operator_norm(p @ p - p) <= 1e-10
            assert operator_norm(p - p.conj().T) <= 1e-10
            for q in projectors[i + 1:]:
                assert operator_norm(p @ q) <= 1e-10

    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_charpoly_oracle(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = linalg.random_hermitian(dim, rng)
        es = hermitian_eig(a)
        got = np.concatenate(
            [
                np.full(b.shape[1], lam)
                for lam, b in zip(es.eigenvalues, es.blocks)
            ]
        )
        want = np.sort(charpoly_eigenvalues(a).real)[::-1]
        np.testing.assert_allclose(np.sort(got)[::-1], want, atol=1e-8)


class TestStacks:
    """Stacked kernels give each matrix of the stack the bits it gets alone."""

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_haar_unitary_stack(self, d):
        rng = np.random.default_rng(d)
        g = np.array([[linalg.complex_gaussian(d, rng) for _ in range(2)] for _ in range(3)])
        u = linalg.haar_unitary(g)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(u[idx], linalg.haar_unitary(g[idx]))
        np.testing.assert_allclose(u @ linalg.dagger(u), np.broadcast_to(np.eye(d), u.shape),
                                   atol=1e-12)

    def test_projector_checks_per_matrix(self):
        u = linalg.haar_unitary(linalg.complex_gaussian(4, np.random.default_rng(1)))
        p = projector(u[:, :2])
        stack = np.array([p, 0.5 * p, p + 1e-9 * np.triu(np.ones((4, 4)), 1), np.eye(4)])
        assert linalg.is_projector(stack).tolist() == [True, False, False, True]
        assert [bool(linalg.is_projector(m)) for m in stack] == [True, False, False, True]
        np.testing.assert_array_equal(linalg.dagger_distance(stack),
                                      [linalg.dagger_distance(m) for m in stack])


class TestSchmidtCoefficients:
    def test_coefficients_normalized(self):
        psi = random_state(12, np.random.default_rng(4))
        svals = schmidt_coefficients(psi, (2, 3, 2), (0, 2))
        assert abs(np.sum(svals**2) - 1.0) <= 1e-10
