import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bell_oracle,
    charpoly_eigenvalues,
    embed_oracle,
    expectation,
    off_maximal_vacuum,
    off_maximal_vacuum_3slot,
    operator_norm_oracle,
    qubit_angle_grid_bell,
    random_state,
    reflection_commutator_oracle,
    seesaw_oracle,
    seesaw_starts_loop,
)

from vacuumcorr import correlations, harness, linalg
from vacuumcorr.correlations import (
    SQRT2,
    BellSettings,
    bell_correlation,
    bell_operator,
    canonical_max_violation,
    contraction_from_projector,
    epr_projector_pair,
    general_contraction_extension,
    hermitian_contractions,
    reflection_commutator_norms,
    seesaw_maximize,
    seesaw_starts,
    tsirelson_certificate,
    violate_conditional_bell,
)
from vacuumcorr.linalg import (
    NOISE_TOL,
    PROJECTOR_FLOOR,
    complex_gaussian,
    haar_unitary,
    operator_norm,
    random_hermitian,
)
from vacuumcorr.local_algebra import (
    LocalOperator,
    RegionLayout,
    VacuumModel,
    make_vacuum,
    random_projector,
)
from vacuumcorr.root_theorem import StageFailure, root_products

L22 = RegionLayout((2, 2))
L224 = RegionLayout((2, 2, 4))

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_settings(layout, seed):
    rng = np.random.default_rng(seed)
    d1, d2 = layout.dims[0], layout.dims[1]
    ops = []
    for slot, d in ((0, d1), (0, d1), (1, d2), (1, d2)):
        rank = int(rng.integers(1, d))
        p = random_projector(layout, slot, rank, int(rng.integers(0, 10**6)))
        ops.append(contraction_from_projector(p))
    return BellSettings(a1=ops[0], a2=ops[1], b1=ops[2], b2=ops[3])


def random_contractions(dims, rng, noise=0.0):
    """Four Hermitian contractions on slots 0, 0, 1, 1, each plus ``noise``
    times a non-Hermitian perturbation."""
    ops = []
    for d in (dims[0], dims[0], dims[1], dims[1]):
        h = random_hermitian(d, rng)
        h *= rng.uniform(0.5, 1.0) / np.max(np.abs(np.linalg.eigvalsh(h)))
        ops.append(h + noise * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    return ops


def settings_of(a1, a2, b1, b2) -> BellSettings:
    return BellSettings(a1=LocalOperator(0, a1), a2=LocalOperator(0, a2),
                        b1=LocalOperator(1, b1), b2=LocalOperator(1, b2))


def partial_involutions(d, rank, rng):
    """X1, X2 = V S V^† with V a d x rank isometry onto one fixed subspace and
    S = diag(+-1), so that X1^2 = X2^2 is the same rank-``rank`` projector."""
    u = haar_unitary(complex_gaussian(d, rng))[:, :rank]

    def one():
        v = u @ haar_unitary(complex_gaussian(rank, rng))
        return (v * rng.choice([-1.0, 1.0], size=rank)) @ v.conj().T

    return one(), one()


def dense_margin(s: BellSettings, dims) -> float:
    r = bell_oracle(*(op.matrix for op in (s.a1, s.a2, s.b1, s.b2)), dims[:2])
    return SQRT2 - 0.5 * float(np.max(np.abs(np.linalg.eigvalsh(r))))


DENSE_CASES = ["half", "unequal_squares", "zero", "general_b"]


def dense_path_settings(case: str) -> BellSettings:
    """Settings on 3,3 outside Landau's precondition (X1^2 = X2^2 a nonzero
    projector on both sides)."""
    _, canon = canonical_max_violation(RegionLayout((3, 3)))
    a1, a2, b1, b2 = (op.matrix for op in (canon.a1, canon.a2, canon.b1, canon.b2))
    if case == "half":  # A1^2 = A2^2 = P / 4, not a projector
        a1, a2 = 0.5 * a1, 0.5 * a2
    elif case == "unequal_squares":  # A1^2 = 1, A2^2 = the rank-2 block
        a1 = np.diag([1.0, -1.0, 1.0]).astype(complex)
    elif case == "zero":
        a1 = a2 = np.zeros((3, 3), dtype=complex)
    else:
        b2 = random_contractions((3, 3), np.random.default_rng(5))[3]
    return settings_of(a1, a2, b1, b2)


def spy_bell_operator():
    return mock.patch.object(correlations, "bell_operator", wraps=correlations.bell_operator)


class TestContractionFromProjector:
    def test_rank_one_qubit(self):
        p = LocalOperator(0, np.diag([1.0, 0.0]))
        c = contraction_from_projector(p)
        np.testing.assert_allclose(c.matrix, Z, atol=1e-12)

    def test_spectrum_is_plus_minus_one(self):
        p = random_projector(L22, 1, 1, seed=3)
        c = contraction_from_projector(p)
        vals = np.linalg.eigvalsh(c.matrix)
        np.testing.assert_allclose(np.sort(vals), [-1.0, 1.0], atol=1e-10)

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError, match="not a projector"):
            contraction_from_projector(LocalOperator(0, 0.5 * np.eye(2)))


class TestBellSettings:
    def test_wrong_slot_rejected(self):
        good = LocalOperator(1, Z)
        with pytest.raises(ValueError, match="slot 0"):
            BellSettings(a1=good, a2=good, b1=good, b2=good)

    def test_non_contraction_rejected(self):
        with pytest.raises(ValueError, match="not a contraction"):
            BellSettings(
                a1=LocalOperator(0, 2.0 * Z),
                a2=LocalOperator(0, X),
                b1=LocalOperator(1, Z),
                b2=LocalOperator(1, X),
            )

    def test_one_stacked_validation_per_side(self, monkeypatch):
        _, s = canonical_max_violation(RegionLayout((3, 4)))
        stacks = []
        original = correlations.hermitian_contractions

        def recording(x, names):
            stacks.append((x.shape, tuple(names)))
            return original(x, names)

        monkeypatch.setattr(correlations, "hermitian_contractions", recording)
        BellSettings(a1=s.a1, a2=s.a2, b1=s.b1, b2=s.b2)
        assert stacks == [((2, 3, 3), ("A1", "A2")), ((2, 4, 4), ("B1", "B2"))]

    def test_pair_of_different_dimensions_rejected(self):
        with pytest.raises(ValueError, match="B1 and B2 differ in dimension"):
            BellSettings(a1=LocalOperator(0, Z), a2=LocalOperator(0, X),
                         b1=LocalOperator(1, Z), b2=LocalOperator(1, np.eye(3)))

    def test_reflections_take_no_eigvalsh(self, monkeypatch):
        # 2P - 1 clears the one-product bound, so no matrix is loose.
        p = random_projector(RegionLayout((5, 5)), 0, 2, seed=1)
        x = contraction_from_projector(p).matrix[None]
        monkeypatch.setattr(np.linalg, "eigvalsh", mock.Mock(side_effect=AssertionError))
        assert np.array_equal(hermitian_contractions(x, ("A1",)), x)

    @pytest.mark.parametrize("dims", [(16, 16), (3, 8)])
    def test_canonical_settings_take_no_eigvalsh(self, monkeypatch, dims):
        # The zero-padded qubit blocks square to projectors: the two-product bound is tight.
        monkeypatch.setattr(np.linalg, "eigvalsh", mock.Mock(side_effect=AssertionError))
        canonical_max_violation(RegionLayout(dims))

    def test_non_self_adjoint_rejected(self):
        with pytest.raises(ValueError, match="not self-adjoint"):
            BellSettings(
                a1=LocalOperator(0, np.array([[0.0, 1.0], [0.0, 0.0]])),
                a2=LocalOperator(0, X),
                b1=LocalOperator(1, Z),
                b2=LocalOperator(1, X),
            )


class TestHermitianPart:
    @given(d1=st.integers(2, 5), d2=st.integers(2, 5), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_r_exactly_hermitian_for_validated_settings(self, d1, d2, seed):
        rng = np.random.default_rng(seed)
        s = settings_of(*random_contractions((d1, d2), rng, noise=1e-13))
        r = bell_operator(s, RegionLayout((d1, d2)))
        assert np.array_equal(r, r.conj().T)

    @given(d=st.integers(2, 5), seed=st.integers(0, 10_000),
           log_excess=st.floats(-13, -8), sign=st.sampled_from([-1.0, 1.0]),
           log_noise=st.floats(-14, -9))
    @settings(max_examples=80, deadline=None)
    def test_contraction_check_rejects_what_the_operator_norm_rejects(
        self, d, seed, log_excess, sign, log_noise
    ):
        rng = np.random.default_rng(seed)
        h = random_hermitian(d, rng)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = (1.0 + sign * 10.0**log_excess) * h / operator_norm(h) + 10.0**log_noise * g
        old_rejects = (np.linalg.norm(x - x.conj().T, 2) > NOISE_TOL
                       or np.linalg.norm(x, 2) > 1.0 + NOISE_TOL)
        if old_rejects:
            _, canon = canonical_max_violation(RegionLayout((d, 2)))
            with pytest.raises(ValueError, match="not self-adjoint|not a contraction"):
                BellSettings(a1=LocalOperator(0, x), a2=canon.a2, b1=canon.b1, b2=canon.b2)


    @given(d=st.integers(2, 6), n=st.integers(1, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_contraction_check_decides_as_eigvalsh_alone(self, d, n, seed):
        # Reflections 2P - 1 (which the one-product bound clears) and scaled
        # Hermitian matrices, each stretched or shrunk by 10**-12 to 10**-8,
        # across the NOISE_TOL threshold, and some pushed off the Hermitian line.
        rng = np.random.default_rng(seed)
        x = np.empty((n, 2, d, d), dtype=complex)
        for idx in np.ndindex(n, 2):
            if rng.random() < 0.5:
                u = haar_unitary(complex_gaussian(d, rng))[:, :rng.integers(1, d + 1)]
                h = 2.0 * u @ u.conj().T - np.eye(d)
            else:
                h = random_hermitian(d, rng)
                h /= np.abs(np.linalg.eigvalsh(h)).max()
            scale = 1.0 + rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-12, -8)
            noise = 10.0 ** rng.uniform(-16, -9) * complex_gaussian(d, rng)
            x[idx] = scale * h + noise * (rng.random() < 0.3)
        names = ("A1", "A2")
        dev = linalg.dagger_distance(x)
        herm = 0.5 * (x + linalg.dagger(x))
        nrm = np.abs(np.linalg.eigvalsh(herm)).max(axis=-1) + 0.5 * dev
        bad = (dev > NOISE_TOL) | (nrm > 1.0 + NOISE_TOL)
        if not bad.any():
            np.testing.assert_array_equal(correlations.hermitian_contractions(x, names), herm)
            return
        i = np.unravel_index(np.argmax(bad), bad.shape)
        if dev[i] > NOISE_TOL:
            want = f"{names[i[-1]]} is not self-adjoint: |X - X^†| = {dev[i]}"
        else:
            want = f"{names[i[-1]]} is not a contraction: norm {nrm[i]}"
        with pytest.raises(ValueError) as info:
            correlations.hermitian_contractions(x, names)
        assert str(info.value) == want

    def test_stack_names_the_first_failing_matrix(self):
        x = np.array([[Z, X]] * 3)
        x[1, 1] = 2.0 * X
        x[2, 0] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="A2 is not a contraction"):
            correlations.hermitian_contractions(x, ("A1", "A2"))
        with pytest.raises(ValueError, match="B1 is not self-adjoint"):
            correlations.hermitian_contractions(x[2:], ("B1", "B2"))
        np.testing.assert_array_equal(correlations.hermitian_contractions(x[:1], ("A1", "A2")),
                                      x[:1])


class TestApplyBell:
    @given(dims=st.lists(st.integers(2, 3), min_size=2, max_size=3), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_term_by_term_matches_the_dense_operator(self, dims, seed):
        rng = np.random.default_rng(seed)
        layout = RegionLayout(tuple(dims))
        mats = random_contractions(layout.dims, rng)
        s = settings_of(*mats)
        vec = rng.standard_normal(layout.total_dim) + 1j * rng.standard_normal(layout.total_dim)
        got = s.apply(vec, layout)
        np.testing.assert_allclose(got, bell_operator(s, layout) @ vec, atol=1e-12)
        np.testing.assert_allclose(got, bell_oracle(*mats, layout.dims) @ vec, atol=1e-12)


class TestSettingsAsRootOperator:
    """The root pipeline reads the settings through their seam (term-by-term R,
    Landau's or the dense ||R||) as it reads the dense R01 on slots (0, 1)."""

    @pytest.mark.parametrize("dims", [(2, 2, 4), (2, 3, 6), (3, 2, 6), (3, 3, 9)])
    @pytest.mark.parametrize("kind", ["canonical", "random"])
    def test_products_match_the_dense_operator(self, dims, kind):
        layout = RegionLayout(dims)
        rng = np.random.default_rng(sum(dims))
        if kind == "canonical":  # Landau's norm
            _, s = canonical_max_violation(layout)
        else:  # the dense norm
            s = settings_of(*random_contractions(dims, rng))
        v = make_vacuum(layout, 0)
        psi = random_state(layout.total_dim, rng)
        dense = LocalOperator((0, 1), bell_operator(s, RegionLayout(dims[:2])))
        got, want = (root_products(a, psi, v, (2,)) for a in (s, dense))
        for name in ("k", "norm_a", "cyclic_residual", "c_tilde_norm", "normalized_error",
                     "window", "q_trace"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name
        np.testing.assert_allclose(got.p_expects, want.p_expects, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.aps, want.aps, rtol=0, atol=1e-12)


class TestLandauNorm:
    @given(d1=st.integers(2, 6), d2=st.integers(2, 6), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_shared_support_matches_dense(self, d1, d2, seed):
        rng = np.random.default_rng(seed)
        a1, a2 = partial_involutions(d1, int(rng.integers(1, d1 + 1)), rng)
        b1, b2 = partial_involutions(d2, int(rng.integers(1, d2 + 1)), rng)
        s = settings_of(a1, a2, b1, b2)
        with spy_bell_operator() as dense:
            got = tsirelson_certificate(s)
        assert dense.call_count == 0
        assert abs(got - dense_margin(s, (d1, d2))) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_canonical_matches_dense(self, d):
        _, s = canonical_max_violation(RegionLayout((d, d)))
        with spy_bell_operator() as dense:
            got = tsirelson_certificate(s)
        assert dense.call_count == 0
        assert abs(got - dense_margin(s, (d, d))) <= 1e-12

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_other_settings_take_the_dense_path(self, case):
        layout = RegionLayout((3, 3))
        s = dense_path_settings(case)
        with spy_bell_operator() as dense:
            got = tsirelson_certificate(s)
        assert dense.call_count == 1
        assert abs(got - dense_margin(s, layout.dims)) <= 1e-12

    def test_three_slot_layout_uses_slots_zero_and_one(self):
        layout = RegionLayout((2, 3, 6))
        rng = np.random.default_rng(3)
        s = settings_of(*random_contractions(layout.dims, rng))
        assert abs(tsirelson_certificate(s) - dense_margin(s, layout.dims)) <= 1e-12


class TestBellOperator:
    def test_canonical_norm(self):
        # The canonical settings give ||R|| = 2 sqrt(2) exactly.
        _, s = canonical_max_violation(L22)
        r = bell_operator(s, L22)
        assert abs(operator_norm(r) - 2.0 * SQRT2) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (3, 5)])
    def test_two_slot_operator_is_r01_bit_for_bit(self, dims):
        a1, a2, b1, b2 = random_contractions(dims, np.random.default_rng(sum(dims)))
        r = bell_operator(settings_of(a1, a2, b1, b2), RegionLayout(dims))
        np.testing.assert_array_equal(r, np.kron(a1, b1 + b2) + np.kron(a2, b1 - b2))

    def test_equal_b_settings_collapse(self):
        # B1 = B2 removes the A2 term: R = 2 A1 B1, so ||R|| <= 2.
        s = BellSettings(
            a1=LocalOperator(0, Z), a2=LocalOperator(0, X),
            b1=LocalOperator(1, Z), b2=LocalOperator(1, Z),
        )
        assert operator_norm(bell_operator(s, L22)) <= 2.0 + 1e-12

    def test_correlation_at_canonical_state(self):
        state, s = canonical_max_violation(L22)
        assert abs(bell_correlation(s, state, L22) - SQRT2) <= 1e-12

    def test_canonical_on_padded_dims(self):
        layout = RegionLayout((3, 3))
        state, s = canonical_max_violation(layout)
        assert abs(bell_correlation(s, state, layout) - SQRT2) <= 1e-12

    def test_classical_settings_respect_two(self):
        # Commuting (diagonal) settings: |<R>| <= 2, i.e. correlation <= 1.
        s = BellSettings(
            a1=LocalOperator(0, Z), a2=LocalOperator(0, -Z),
            b1=LocalOperator(1, Z), b2=LocalOperator(1, -Z),
        )
        for seed in range(20):
            psi = random_state(4, np.random.default_rng(seed))
            assert abs(bell_correlation(s, psi, L22)) <= 1.0 + 1e-10


class TestTsirelson:
    def test_canonical_margin_zero(self):
        _, s = canonical_max_violation(L22)
        assert abs(tsirelson_certificate(s)) <= 1e-12

    def test_random_settings_nonnegative(self):
        for seed in range(50):
            s = random_settings(L22, seed)
            assert tsirelson_certificate(s) >= -1e-9

    def test_correlation_never_beats_half_norm(self):
        rng = np.random.default_rng(77)
        for seed in range(20):
            s = random_settings(L22, 1000 + seed)
            psi = random_state(4, rng)
            corr = abs(bell_correlation(s, psi, L22))
            assert corr <= 0.5 * operator_norm(bell_operator(s, L22)) + 1e-10


class TestSeesaw:
    def test_bell_state_reaches_tsirelson(self):
        state, _ = canonical_max_violation(L22)
        best = max(
            seesaw_maximize(state, L22, seed=seed)[1] for seed in range(10)
        )
        assert best >= SQRT2 - 1e-6
        assert best <= SQRT2 + 1e-9

    def test_product_state_classical_ceiling(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        best = max(
            seesaw_maximize(state, L22, seed=seed)[1] for seed in range(5)
        )
        oracle = qubit_angle_grid_bell(state)
        assert best <= 1.0 + 1e-9
        assert best >= oracle - 1e-6

    def test_returned_settings_reproduce_value(self):
        state = random_state(4, np.random.default_rng(5))
        s, val = seesaw_maximize(state, L22, seed=1)
        assert abs(bell_correlation(s, state, L22) - val) <= 1e-10

    def test_matches_angle_grid_on_random_states(self):
        for seed in range(5):
            state = random_state(4, np.random.default_rng(seed))
            best = max(
                seesaw_maximize(state, L22, seed=s)[1] for s in range(8)
            )
            oracle = qubit_angle_grid_bell(state)
            # The grid restricts settings to a real plane, so it can only
            # lose to the see-saw; both stay under the spectral ceiling.
            assert best >= oracle - 1e-3
            assert best <= SQRT2 + 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="2-slot"):
            seesaw_maximize(np.ones(16) / 4.0, L224, seed=0)


def rotated_rank_two(d: int, rotation: int):
    """The canonical state (U (x) V) phi for Haar unitaries U, V, with the
    projectors onto U's and V's first two columns: ran Psi and ran Psi^T."""
    layout = RegionLayout((d, d))
    phi, _ = canonical_max_violation(layout)
    rng = np.random.default_rng(1000 + rotation)
    u, v = (haar_unitary(complex_gaussian(d, rng)) for _ in range(2))
    state = (u @ phi.reshape(d, d) @ v.T).ravel()
    return layout, state, u[:, :2] @ u[:, :2].conj().T, v[:, :2] @ v[:, :2].conj().T


class TestSeesawOnTheSupport:
    @pytest.mark.parametrize("dims", [(d, d) for d in range(2, 25)] + [(2, 5), (6, 3)])
    def test_matches_the_dense_oracle_on_the_canonical_state(self, dims):
        layout = RegionLayout(dims)
        state, _ = canonical_max_violation(layout)
        for seed in range(40):
            got = seesaw_maximize(state, layout, seed)[1]
            assert abs(got - seesaw_oracle(state, layout, seed)[1]) <= 1e-12, seed

    @pytest.mark.parametrize("d", [3, 4, 8, 16])
    def test_every_call_reaches_tsirelson_on_rotated_rank_two_states(self, d):
        # The dense iteration misses sqrt(2) - 1e-6 on some of these calls at d = 3, 4.
        for rotation in range(5):
            layout, state, _, _ = rotated_rank_two(d, rotation)
            for seed in range(40):
                assert seesaw_maximize(state, layout, seed)[1] >= SQRT2 - 1e-6, (rotation, seed)

    def test_settings_are_the_identity_on_the_kernel(self):
        layout, state, pa, pb = rotated_rank_two(16, 0)
        s, value = seesaw_maximize(state, layout, seed=0)
        assert value >= SQRT2 - 1e-6
        for ops, p in (((s.a1, s.a2), pa), ((s.b1, s.b2), pb)):
            kernel = np.eye(16) - p
            for op in ops:
                assert np.abs(op.matrix @ kernel - kernel).max() <= 1e-12

    def test_no_full_size_eigh_inside_the_iteration(self, monkeypatch):
        sides = []
        original = np.linalg.eigh

        def recording(a, *args, **kwargs):
            sides.append(np.shape(a)[-2:])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        canonical = RegionLayout((16, 16))
        skewed = RegionLayout((6, 3))
        for layout, state, rank in (
            (canonical, canonical_max_violation(canonical)[0], 2),
            (skewed, random_state(18, np.random.default_rng(4)), 3),
        ):
            sides.clear()
            seesaw_maximize(state, layout, seed=3)
            # The starts and every iteration sign r x r stacks only.
            assert sides and set(sides) == {(rank, rank)}, layout.dims

    @pytest.mark.parametrize("d,canonical", [(2, True), (3, False), (16, True)])
    def test_starts_yield_the_values_of_seesaw_maximize(self, d, canonical):
        layout = RegionLayout((d, d))
        state = (canonical_max_violation(layout)[0] if canonical
                 else random_state(d * d, np.random.default_rng(d)))
        s = linalg.schmidt_support(state, layout.dims, 0)[1]
        assert len(s) == (2 if canonical else d)
        seeds = range(12)
        for seed, (value, a, t) in zip(seeds, seesaw_starts(s, seeds), strict=True):
            assert value == seesaw_maximize(state, layout, seed)[1]
            assert a.shape == t.shape == (2, len(s), len(s))

    @pytest.mark.parametrize("dims,canonical,seeds", [
        ((16, 16), True, range(40)),
        ((6, 3), False, range(40)),
        # Every start of these first ends at a classical point and draws again.
        ((3, 3), True, range(1834, 1839)),
        ((4, 4), True, range(2030, 2035)),
    ])
    def test_stack_matches_the_one_start_loop(self, dims, canonical, seeds):
        layout = RegionLayout(dims)
        state = (canonical_max_violation(layout)[0] if canonical
                 else random_state(math.prod(dims), np.random.default_rng(6)))
        s = linalg.schmidt_support(state, layout.dims, 0)[1]
        assert len(s) == (2 if canonical else min(dims))
        got, want = seesaw_starts(s, seeds), seesaw_starts_loop(s, seeds)
        assert len(got) == len(want) == len(seeds)
        for (value, a, t), (value_loop, a_loop, t_loop) in zip(got, want):
            assert value == value_loop
            assert np.array_equal(a, a_loop) and np.array_equal(t, t_loop)


def frame_stack(d: int, n: int, rng) -> np.ndarray:
    """n d x d Haar unitaries, (n, d, d)."""
    return haar_unitary(np.array([complex_gaussian(d, rng) for _ in range(n)]))


def frames_and_ranks(d: int, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """n Haar frames Q and ranks (k1, k2), the first four pairs (E, P) commuting."""
    u = frame_stack(d, n, rng)
    ranks = rng.integers(1, d + 1, size=(n, 2))
    # 2E - 1 = 1, 2P - 1 = 1, or both.
    ranks[0, 0] = ranks[1, 1] = ranks[2, 0] = ranks[2, 1] = d
    # span Q = range E, in a frame of its own.
    k = ranks[3, 0] = ranks[3, 1] = max(1, d // 2)
    u[3, :, :k] = 0.0
    u[3, :k, :k] = haar_unitary(complex_gaussian(k, rng))
    return u, ranks


class TestReflectionCommutatorNorms:
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 12])
    def test_matches_the_dense_oracle(self, d):
        rng = np.random.default_rng(d)
        u, ranks = frames_and_ranks(d, 25, rng)
        got = reflection_commutator_norms(u, ranks)
        e = np.broadcast_to(np.eye(d), u.shape)  # E's range: the first k1 columns of 1
        want = reflection_commutator_oracle(np.stack([e, u], axis=1), ranks)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert got[:4].max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 5, 12])
    def test_one_unitary_on_both_frames_keeps_the_norm(self, d):
        # The sweep's sample rests on this: (E, P) and (W E W^†, W P W^†) for a Haar W.
        rng = np.random.default_rng(100 + d)
        u, ranks = frames_and_ranks(d, 25, rng)
        w = frame_stack(d, 25, rng)
        want = reflection_commutator_oracle(np.stack([w, w @ u], axis=1), ranks)
        np.testing.assert_allclose(reflection_commutator_norms(u, ranks), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("theta", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("k1", [3, 4, 5])
    def test_planted_principal_angle(self, theta, k1):
        # E projects onto the first k1 basis vectors, and Q is the first 3 with
        # column 0 rotated by theta toward column k1.  The norm is 2 sin(2 theta);
        # the cosine form from the singular values of E Q misses it at 1e-6.
        # Past k1 = d / 2 the kernel reads the adjoint pair on reversed rows.
        d, k = 6, 3
        u = np.eye(d, dtype=complex)[None].copy()
        u[0, [0, k1], 0] = np.cos(theta), np.sin(theta)
        got = reflection_commutator_norms(u, np.array([[k1, k]]))[0]
        want = 2.0 * math.sin(2.0 * theta)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("d", [2, 3, 5, 12])
    def test_stacks_with_no_rows_or_no_columns_match_the_dense_oracle(self, d):
        # Every k1 = d (no rows once folded: E = 1), or every frame of width 0 (P = 0):
        # each pair commutes, and the frame check still runs.
        rng = np.random.default_rng(200 + d)
        u, ranks = frames_and_ranks(d, 10, rng)
        e = np.broadcast_to(np.eye(d), u.shape)
        for column, value in ((0, d), (1, 0)):
            planted = ranks.copy()
            planted[:, column] = value
            got = reflection_commutator_norms(u, planted)
            want = reflection_commutator_oracle(np.stack([e, u], axis=1), planted)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        planted = ranks.copy()
        planted[:, 0] = d
        u[6, :, 0] *= 2.0
        with pytest.raises(ValueError, match="the frame of setting 6 is not orthonormal"):
            reflection_commutator_norms(u, planted)

    def test_rejects_a_frame_that_is_not_orthonormal(self):
        u = frame_stack(4, 3, np.random.default_rng(0))
        ranks = np.full((3, 2), 2)
        u[1, :, 2] *= 2.0  # beyond the rank: never read
        assert reflection_commutator_norms(u, ranks).shape == (3,)
        u[2, :, 1] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="the frame of setting 2 is not orthonormal"):
            reflection_commutator_norms(u, ranks)
        u[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="the frame of setting 0 is not orthonormal"):
            reflection_commutator_norms(u, ranks)


class TestEPRProjectorPair:
    def test_chain_on_maximally_entangled(self):
        v = make_vacuum(L22, seed=0)
        p2 = random_projector(L22, 1, 1, seed=4)
        p1, report = epr_projector_pair(p2, v.omega, v, eps=1e-3)
        assert p1.slots == (0,)
        assert p1.is_projector()
        assert report.joint_expect <= report.p1_expect + 1e-12
        assert report.joint_expect > report.lower_bound
        assert report.p1_expect > 0.0

    def test_perfect_correlation_strictness(self):
        # The joint expectation sits within eps of <P1>_omega.
        v = make_vacuum(L22, seed=0)
        eps = 1e-3
        for seed in range(10):
            p2 = random_projector(L22, 1, 1, seed=seed)
            _, report = epr_projector_pair(p2, v.omega, v, eps)
            assert report.joint_expect <= report.p1_expect + 1e-12
            assert report.joint_expect > (1.0 - eps) * report.p1_expect

    # Off the maximally entangled point, at eps 0.01 and seed 0, as the pair behaves today.
    @pytest.mark.parametrize("d", [4, 16, 64])
    @pytest.mark.parametrize("s_min", [0.1, 1e-3, 1e-5])
    def test_perfect_correlation_off_maximal(self, d, s_min):
        v = off_maximal_vacuum(d, s_min)
        _, report = epr_projector_pair(random_projector(v.layout, 1, 1, 0), v.omega, v, 0.01)
        assert report.joint_expect - report.p1_expect <= PROJECTOR_FLOOR
        assert report.joint_expect > report.lower_bound
        assert abs(report.joint_expect / report.p1_expect - 1.0) <= 1e-12

    @pytest.mark.parametrize("d,stage", [(4, "extremal"), (16, "rescale"), (64, "rescale")])
    def test_ends_at_a_stage_near_the_rank_cutoff(self, d, stage):
        # At s_min = 1e-7 Q1's one eigenvalue is 5.6e12 to 7.4e13 and its <P>_omega
        # lies at the floor (1.3e-14 to 1.8e-13).  At d = 16 and 64 that eigenvalue
        # times the rounding of <Q1'~>_omega = 1 +- 5e-16 puts ||Q1 - Q1'|| at 2.9e-3
        # to 7.8e-3, past eps4 = 2.5e-3; at d = 4 it reads 0.
        v = off_maximal_vacuum(d, 1e-7)
        with pytest.raises(StageFailure) as failure:
            epr_projector_pair(random_projector(v.layout, 1, 1, 0), v.omega, v, 0.01)
        assert failure.value.stage == stage

    def test_annihilated_phi_rejected(self):
        v = make_vacuum(L22, seed=0)
        p2 = LocalOperator(1, np.diag([0.0, 1.0]))
        phi = np.zeros(4, dtype=complex)
        phi[0] = 1.0  # e0 (x) e0, killed by |e1><e1| on slot 1
        with pytest.raises(ValueError, match="pass phi = omega"):
            epr_projector_pair(p2, phi, v, eps=1e-3)

    def test_non_projector_rejected(self):
        v = make_vacuum(L22, seed=0)
        with pytest.raises(ValueError, match="not a projector"):
            epr_projector_pair(LocalOperator(1, 0.3 * np.eye(2)), v.omega, v, 1e-3)


def conditional_on(v, p3, eps=0.05):
    """The conditional step of ``violate_conditional_bell`` on ``p3``, swapped in for
    the certificate's ``p_max``: the report's value, or the value that the step's
    target check reports when it raises."""
    original = correlations.prove_root_certificate

    def with_p3(*args):
        return dataclasses.replace(original(*args), p_max=p3)

    with mock.patch.object(correlations, "prove_root_certificate", with_p3):
        try:
            return violate_conditional_bell(v.layout, v, eps).conditional.conditional_correlation
        except StageFailure as exc:
            assert exc.stage == "conditional"
            return exc.values["achieved"]


class TestConditionalCorrelation:
    def test_identity_projector_reduces_to_vacuum(self):
        # make_vacuum's <R>_omega is 0 to rounding; this vacuum's (1/2) <R>_omega is 0.19.
        v = off_maximal_vacuum_3slot(2, 2, 0.1)
        _, s = canonical_max_violation(L224)
        cond = conditional_on(v, LocalOperator(2, np.eye(4)))
        r = bell_operator(s, L224)
        direct = 0.5 * float(expectation(r, v.omega).real)
        assert abs(cond - direct) <= 1e-12

    def test_bounded_by_half_norm(self):
        v = make_vacuum(L224, seed=1)
        for seed in range(10):
            p3 = random_projector(L224, 2, 1 + seed % 4, seed=seed)
            assert abs(conditional_on(v, p3)) <= SQRT2 + 1e-10

    def test_non_projector_rejected(self):
        v = make_vacuum(L224, seed=0)
        with pytest.raises(ValueError, match="not a projector"):
            conditional_on(v, LocalOperator(2, 0.5 * np.eye(4)))

    def test_zero_projector_rejected_at_the_floor(self):
        v = make_vacuum(L224, seed=0)
        with pytest.raises(ValueError, match="at the floor"):
            conditional_on(v, LocalOperator(2, np.zeros((4, 4))))


class TestViolateConditionalBell:
    def test_near_maximal_violation(self):
        v = make_vacuum(L224, seed=0)
        report = violate_conditional_bell(L224, v, eps=0.05)
        cond = report.conditional
        assert cond.conditional_correlation > SQRT2 - 0.05
        assert cond.p3_expect > 0.0
        assert cond.p3.is_projector()

    def test_recompute_from_report(self):
        # (1/2) <R P3>_omega / <P3>_omega from the dense oracles.
        v = make_vacuum(L224, seed=0)
        report = violate_conditional_bell(L224, v, eps=0.05)
        cond, s = report.conditional, report.settings
        p3 = embed_oracle(cond.p3.matrix, 2, L224.dims)
        r = bell_oracle(s.a1.matrix, s.a2.matrix, s.b1.matrix, s.b2.matrix, L224.dims)
        p3_expect = expectation(p3, v.omega).real
        assert abs(p3_expect - cond.p3_expect) <= 1e-12
        recomputed = 0.5 * expectation(r @ p3, v.omega).real / p3_expect
        assert abs(recomputed - cond.conditional_correlation) <= 1e-9

    def test_two_slot_layout_rejected(self):
        v = make_vacuum(L22, seed=0)
        with pytest.raises(ValueError, match="3-slot"):
            violate_conditional_bell(L22, v, eps=0.05)

    def test_loose_budget_also_passes(self):
        v = make_vacuum(L224, seed=3)
        report = violate_conditional_bell(L224, v, eps=0.5)
        assert report.conditional.conditional_correlation > SQRT2 - 0.5

    def test_rejects_bad_layout(self):
        layout = RegionLayout((2, 2, 6))
        omega = random_state(24, np.random.default_rng(0))
        from vacuumcorr.local_algebra import VacuumModel

        v = VacuumModel.from_vector(layout, omega)
        with pytest.raises(ValueError, match="d3 = d1\\*d2"):
            violate_conditional_bell(layout, v, eps=0.05)

    def test_rejects_non_cyclic_vacuum(self):
        # A product vector has Schmidt rank 1 across slot 2 | rest.
        product = np.zeros(L224.total_dim, dtype=complex)
        product[0] = 1.0
        v = VacuumModel.from_vector(L224, product)
        with pytest.raises(ValueError, match="not cyclic"):
            violate_conditional_bell(L224, v, eps=0.05)


class TestOffMaximalThreeSlotVacua:
    """cond-bell on ``off_maximal_vacuum_3slot``, whose Gram across 2|(0,1) is not
    real.  The root products of psi = phi (x) chi, of rank 1 across the cut, match
    a dense numpy reference to the cut's conditioning, 1 / s_min^2 times rounding,
    and the report is pinned as it ends today."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("s_min", [0.1, 1e-3])
    def test_rank_one_products_match_a_numpy_reference(self, d, s_min):
        v = off_maximal_vacuum_3slot(d, d, s_min)
        phi, s = canonical_max_violation(v.layout)
        n = d * d
        psi = np.kron(phi, np.eye(n)[0])
        got = root_products(s, psi, v, (2,))
        # Coefficients across (0,1)|2 are the vector reshaped n x n; across 2|(0,1),
        # that matrix transposed.  C~ solves C~ M = Psi by least squares.
        r01 = bell_operator(s, RegionLayout((d, d)))
        m, psi_mat = v.omega.reshape(n, n).T, psi.reshape(n, n).T
        c_tilde = np.linalg.lstsq(m.T, psi_mat.T, rcond=None)[0].T
        c_omega = c_tilde @ m
        nrm = np.linalg.norm(c_omega)
        unit = (c_omega / nrm).T
        c = c_tilde / nrm
        w, vecs = np.linalg.eigh(c.conj().T @ c)
        bm = vecs[:, -1:].conj().T @ m
        want = {"k": np.vdot(psi_mat.T, r01 @ psi_mat.T).real, "norm_a": np.linalg.norm(r01, 2),
                "cyclic_residual": np.linalg.norm(c_omega - psi_mat), "c_tilde_norm": nrm,
                "normalized_error": np.linalg.norm(c_omega / nrm - psi_mat),
                "window": np.vdot(unit, r01 @ unit / np.linalg.norm(unit) ** 2),
                "q_trace": np.vdot(c, c).real}
        tol = 1e-15 / s_min**2
        for name, want_x in want.items():
            got_x = getattr(got, name)
            assert abs(got_x - want_x) <= tol * max(1.0, abs(want_x)), name
        # The dense Q1 has rank 1: one eigenvalue, the rest rounding.
        (lam,), top = got.spectrum.eigenvalues, w[-1]
        assert np.max(np.abs(w[:-1])) <= 1e-14 * top
        assert abs(lam - top) <= tol * top
        (b,) = got.spectrum.blocks
        np.testing.assert_allclose(b @ b.conj().T, vecs[:, -1:] @ vecs[:, -1:].conj().T,
                                   rtol=0, atol=tol)
        np.testing.assert_allclose(got.p_expects, [np.vdot(bm, bm)], rtol=0, atol=tol)
        np.testing.assert_allclose(got.aps, [np.vdot(bm, bm @ r01.T)], rtol=0, atol=tol)

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("s_min", [0.1, 1e-3])
    def test_report(self, monkeypatch, d, s_min):
        monkeypatch.setattr(harness, "make_vacuum",
                            lambda layout, seed: off_maximal_vacuum_3slot(d, d, s_min, seed))
        report = harness.run_scenario(harness.ScenarioConfig.from_dict(
            {"scenario": "cond-bell", "layout": [d, d, d * d], "seed": 0, "eps": 0.05}))
        assert [(a["name"], a["passed"]) for a in report.assertions] == [
            ("conditional_violation", True), ("conditional_recompute", True),
            ("tsirelson_margin", True)]
        assert len(report.certificates["bell"].conditional.certificate.weights) == 1


class TestGeneralContractionExtension:
    def test_canonical_settings(self):
        v = make_vacuum(L224, seed=0)
        _, s = canonical_max_violation(L224)
        report = general_contraction_extension(s.a1, s.a2, s.b1, s.b2, v, eps=0.05)
        assert report.conditional.conditional_correlation > SQRT2 - 0.05
        # The optimal state hits (1/2) lambda_max(R), the charpoly root.
        r = bell_operator(s, RegionLayout(L224.dims[:2]))
        top = max(charpoly_eigenvalues(r).real)
        assert abs(report.correlation - 0.5 * top) <= 1e-9

    def test_random_non_commuting_pairs(self):
        v = make_vacuum(L224, seed=7)
        rng = np.random.default_rng(7)
        found = 0
        seed = 0
        while found < 3:
            s = random_settings(L224, 5000 + seed)
            seed += 1
            if operator_norm_oracle(
                s.a1.matrix @ s.a2.matrix - s.a2.matrix @ s.a1.matrix
            ) <= 1e-6:
                continue
            if operator_norm_oracle(
                s.b1.matrix @ s.b2.matrix - s.b2.matrix @ s.b1.matrix
            ) <= 1e-6:
                continue
            found += 1
            report = general_contraction_extension(
                s.a1, s.a2, s.b1, s.b2, v, eps=0.05
            )
            r = bell_operator(s, RegionLayout(L224.dims[:2]))
            top = max(charpoly_eigenvalues(r).real)
            assert abs(report.correlation - 0.5 * top) <= 1e-8
            assert report.conditional.conditional_correlation > (
                report.correlation - 0.05
            )

    def test_commuting_pair_rejected(self):
        v = make_vacuum(L224, seed=0)
        _, s = canonical_max_violation(L224)
        with pytest.raises(ValueError, match="commute"):
            general_contraction_extension(s.a1, s.a1, s.b1, s.b2, v, eps=0.05)
