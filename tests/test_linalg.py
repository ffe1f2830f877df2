import ast
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SRC,
    charpoly_eigenvalues,
    embed_oracle,
    hermitian_eig_loop,
    operator_norm_oracle,
    random_state,
    schmidt_rank_oracle,
    spectrum_matrix,
)

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

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 3, 2), (2, 2, 4)])
    def test_local_operator_matches_apply_local_bit_for_bit(self, dims):
        # LocalOperator.apply skips only the re-validation of its matrix;
        # merged and unordered slot tuples included.
        rng = np.random.default_rng(len(dims) * 10 + dims[-1])
        layout = RegionLayout(dims)
        for slots in ordered_slot_tuples(len(dims)):
            d = layout.region_dim(slots)
            op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            vec = random_state(layout.total_dim, rng)
            np.testing.assert_array_equal(LocalOperator(slots, op).apply(vec, layout),
                                          linalg.apply_local(op, slots, vec, dims))


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
        assert operator_norm_oracle(a @ b - b @ a) <= 1e-10


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
        assert operator_norm_oracle(a @ b) <= (
            operator_norm_oracle(a) * operator_norm_oracle(b) + 1e-9)

    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 12),
           log_scale=st.floats(-8, 8), rank=st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_svd_oracle_on_hermitian_input(self, seed, dim, log_scale, rank):
        rng = np.random.default_rng(seed)
        w = 10.0**log_scale * rng.standard_normal(dim)
        w[rank:] = 0.0  # zero eigenvalues where rank < dim
        u = linalg.haar_unitary(linalg.complex_gaussian(dim, rng))
        a = (u * w) @ u.conj().T
        a = 0.5 * (a + a.conj().T)
        want = operator_norm_oracle(a)
        assert abs(operator_norm(a) - want) <= 1e-13 * want


def _svd_calls(path):
    """``module:line: call`` for each call in a source file that takes an SVD
    (``*.svd``, or a 2-norm ``*.norm(x, 2)``), and how many of them sit in
    ``schmidt_coefficients`` or ``schmidt_support``, the two functions allowed to."""
    tree = ast.parse(path.read_text())
    allowed = {id(node) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef)
               and f.name in ("schmidt_coefficients", "schmidt_support")
               for node in ast.walk(f)}
    found, inside = [], 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        orders = [ast.unparse(k.value) for k in node.keywords if k.arg == "ord"]
        orders += [ast.unparse(arg) for arg in node.args[1:2]]
        if name.endswith("svd") or (name.endswith("norm") and {"2", "-2"} & set(orders)):
            if id(node) in allowed:
                inside += 1
            else:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found, inside


def test_no_svd_outside_the_schmidt_spectra():
    # Every other norm in the package is of a Hermitian matrix or of a vector.
    paths = sorted((SRC / "vacuumcorr").glob("*.py"))
    results = [_svd_calls(path) for path in paths]
    assert [call for found, _ in results for call in found] == []
    assert sum(inside for _, inside in results) == 2


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

    # The check is relative to ||a||_F, and absolute below ||a||_F = 1.
    @pytest.mark.parametrize("scale,skew", [(1e18, 1e3), (1e-3, 5e-11)],
                             ids=["relative", "absolute"])
    def test_rounding_level_skew_accepted(self, scale, skew):
        a = scale * np.array([[1.0, 1.0], [1.0, 2.0]])
        a[0, 1] += skew
        assert len(hermitian_eig(a).eigenvalues) == 2

    # A 1e18-norm matrix skewed by 1e-6 of its norm still fails.
    @pytest.mark.parametrize("a", [[[0.0, 1.0], [0.0, 0.0]],
                                   [[1e18, 1e18 + 2e12], [1e18, 1e18]]])
    def test_non_hermitian_rejected(self, a):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(np.array(a))

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
            assert operator_norm_oracle(p - p.conj().T) <= 1e-10
            for q in projectors[i + 1:]:
                assert operator_norm_oracle(p @ q) <= 1e-10

    @given(sizes=st.lists(st.sampled_from([1, 2, 9]), min_size=1, max_size=5),
           seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_the_merge_loop_bit_for_bit(self, sizes, seed):
        # Clusters spread over 0.8 NOISE_TOL merge, clusters 1 apart do not.
        rng = np.random.default_rng(seed)
        w = np.concatenate([c + rng.uniform(-0.4, 0.4, size) * linalg.NOISE_TOL
                            for c, size in zip(rng.permutation(len(sizes)), sizes)])
        u = linalg.haar_unitary(linalg.complex_gaussian(len(w), rng))
        a = (u * w) @ u.conj().T
        a = 0.5 * (a + a.conj().T)
        es = hermitian_eig(a)
        eigenvalues, blocks = hermitian_eig_loop(a)
        assert es.eigenvalues == eigenvalues
        assert sorted(b.shape[1] for b in es.blocks) == sorted(sizes)
        assert len(es.blocks) == len(blocks)
        for got, want in zip(es.blocks, blocks):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(es.values, np.linalg.eigh(a)[0][::-1])

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


class TestComplexGaussian:
    @pytest.mark.parametrize("d", [2, 3, 8, 13])
    def test_one_draw_matches_the_two_call_form(self, d):
        # complex_gaussian draws both blocks in one call, and the Tsirelson
        # sweep fills a real (2, d, d) buffer: both must continue the stream
        # exactly as a real draw followed by an imaginary one.
        one, buffered, two = (np.random.default_rng(d) for _ in range(3))
        want = two.standard_normal((d, d)) + 1j * two.standard_normal((d, d))
        buf = np.empty((2, d, d))
        buffered.standard_normal(out=buf)
        np.testing.assert_array_equal(linalg.complex_gaussian(d, one), want)
        np.testing.assert_array_equal(buf[0] + 1j * buf[1], want)
        assert one.bit_generator.state == buffered.bit_generator.state == two.bit_generator.state


class TestGramBound:
    @given(kind=st.sampled_from(["deficient", "ill-conditioned", "scaled", "product"]),
           shape=st.tuples(st.integers(2, 9), st.integers(2, 9)),
           log_scale=st.floats(-14.0, 0.0), seed=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_never_proves_a_rank_the_svd_denies(self, kind, shape, log_scale, seed):
        m = spectrum_matrix(kind, shape, log_scale, np.random.default_rng(seed))
        g, lower = linalg.gram_bound(m)
        n = min(shape)
        np.testing.assert_array_equal(g, m.conj().T @ m if shape[0] >= shape[1]
                                      else m @ m.conj().T)
        if lower > linalg.SCHMIDT_RANK_TOL**2:
            assert schmidt_rank_oracle(m.ravel(), shape, 0) == n

    @pytest.mark.parametrize("shape", [(2, 2), (3, 7), (9, 4), (64, 64)])
    def test_proves_the_rank_of_a_maximally_entangled_cut(self, shape):
        n = min(shape)
        m = np.eye(*shape) / math.sqrt(n)
        g, lower = linalg.gram_bound(m)
        assert 0.0 < 1.0 / n - lower <= 1e-12  # the rounding terms alone
        assert g.shape == (n, n)


class TestSchmidtCoefficients:
    def test_coefficients_normalized(self):
        psi = random_state(12, np.random.default_rng(4))
        svals = schmidt_coefficients(psi, (2, 3, 2), (0, 2))
        assert abs(np.sum(svals**2) - 1.0) <= 1e-10
