import math

import numpy as np
import pytest

from conftest import embed_oracle, expectation, normal_equations_solve, random_state

from vacuumcorr import linalg
from vacuumcorr.linalg import operator_norm
from vacuumcorr.local_algebra import (
    LocalOperator,
    RegionLayout,
    VacuumModel,
    make_vacuum,
)
from vacuumcorr.root_theorem import (
    EpsilonBudget,
    StageFailure,
    combined_window,
    expectation_window,
    normalize_approximant,
    positive_spectral_decomposition,
    prove_root_certificate,
    rescale_to_unit_vacuum,
    select_extremal_projectors,
    solve_cyclic_approx,
)

L22 = RegionLayout((2, 2))
L224 = RegionLayout((2, 2, 4))

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def dense(op: LocalOperator, layout: RegionLayout) -> np.ndarray:
    """``op`` on the whole layout, from the index-by-index oracle."""
    return embed_oracle(op.matrix, op.slots, layout.dims)


@pytest.fixture
def v22():
    return make_vacuum(L22, seed=0)


@pytest.fixture
def v224():
    return make_vacuum(L224, seed=0)


class TestBudgetFormulas:
    def test_eps2_from_eps1(self):
        # eps1 = 0.1 gives the bound 2*0.1/0.9 = 0.2222...
        assert abs(EpsilonBudget.eps2_from_eps1(0.1) - 0.2222222222222222) <= 1e-15

    def test_eps3_formula(self):
        eps2 = 2.0 / 9.0
        eps3 = (eps2**2 + 2.0 * eps2) * 1.0
        assert abs(eps3 - 0.49382716049382713) <= 1e-15

    def test_eps5_formula(self):
        eps2 = EpsilonBudget.eps2_from_eps3(0.1, 1.0)
        budget = EpsilonBudget(
            eps1=EpsilonBudget.eps1_from_eps2(eps2),
            eps2=eps2,
            eps3=0.1,
            eps4=0.05,
            eps5=0.15,
            norm_a=1.0,
            q_norm=1.0,
            q_expect=1.0,
            eps4_tilde=0.025,
        )
        assert abs(budget.eps5 - (budget.eps3 + budget.norm_a * budget.eps4)) <= 1e-15

    def test_eps2_eps3_roundtrip(self):
        for eps3 in (1e-4, 0.01, 0.3):
            for norm_a in (0.5, 1.0, 3.7):
                eps2 = EpsilonBudget.eps2_from_eps3(eps3, norm_a)
                assert abs((eps2**2 + 2 * eps2) * norm_a - eps3) <= 1e-12

    def test_inconsistent_budget_rejected(self):
        with pytest.raises(ValueError, match="inconsistency"):
            EpsilonBudget(
                eps1=0.1, eps2=0.5, eps3=0.1, eps4=0.1, eps5=0.2,
                norm_a=1.0, q_norm=1.0, q_expect=1.0, eps4_tilde=0.05,
            )


class TestSolveCyclicApprox:
    def test_vacuum_preimage_is_identity(self, v22):
        c, _ = solve_cyclic_approx(v22.omega, v22, (0,), eps1=0.1)
        np.testing.assert_allclose(c.matrix, np.eye(2), atol=1e-12)

    def test_exact_preimage_of_local_action(self, v22):
        psi = embed_oracle(X, 0, (2, 2)) @ v22.omega
        c, _ = solve_cyclic_approx(psi, v22, (0,), eps1=0.1)
        np.testing.assert_allclose(c.matrix, X, atol=1e-12)
        assert np.linalg.norm(dense(c, L22) @ v22.omega - psi) <= 1e-12

    def test_random_state_residual_at_noise_floor(self, v22):
        psi = random_state(4, np.random.default_rng(1))
        c, achieved = solve_cyclic_approx(psi, v22, (0,), eps1=0.01)
        residual = np.linalg.norm(dense(c, L22) @ v22.omega - psi)
        assert residual <= 1e-10
        assert abs(achieved - residual) <= 1e-12

    def test_matches_normal_equations_oracle(self, v22):
        psi = random_state(4, np.random.default_rng(2))
        c, _ = solve_cyclic_approx(psi, v22, (0,), eps1=0.01)
        c_oracle, res_oracle = normal_equations_solve(psi, v22.omega, (2, 2), 0)
        np.testing.assert_allclose(c.matrix, c_oracle, atol=1e-6)
        assert res_oracle <= 1e-6

    def test_non_cyclic_vacuum_rejected(self):
        product = np.zeros(4, dtype=complex)
        product[0] = 1.0
        v = VacuumModel.from_vector(L22, product)
        with pytest.raises(ValueError, match="not cyclic"):
            solve_cyclic_approx(random_state(4, np.random.default_rng(0)), v, (0,), 0.1)

    def test_three_slot_region(self, v224):
        psi = random_state(16, np.random.default_rng(3))
        c, _ = solve_cyclic_approx(psi, v224, (2,), eps1=0.01)
        assert np.linalg.norm(dense(c, L224) @ v224.omega - psi) <= 1e-10


class TestNormalizeApproximant:
    def test_unit_input_unchanged(self, v22):
        c_tilde = LocalOperator(0, X)  # ||X omega|| = 1 already
        psi = dense(c_tilde, L22) @ v22.omega
        c, achieved = normalize_approximant(c_tilde, psi, v22, eps1=0.1)
        np.testing.assert_allclose(c.matrix, X, atol=1e-12)
        assert achieved <= 1e-12

    def test_achieved_error_within_eps2(self, v22):
        rng = np.random.default_rng(4)
        psi = random_state(4, rng)
        eps1 = 0.2
        c_tilde, _ = solve_cyclic_approx(psi, v22, (0,), eps1)
        c, achieved = normalize_approximant(c_tilde, psi, v22, eps1)
        assert abs(np.linalg.norm(dense(c, L22) @ v22.omega) - 1.0) <= 1e-12
        assert achieved <= EpsilonBudget.eps2_from_eps1(eps1)
        # Recompute the error directly.
        direct = np.linalg.norm(psi - dense(c, L22) @ v22.omega)
        assert abs(direct - achieved) <= 1e-14


class TestExpectationWindow:
    def test_exact_preimage_hits_k(self, v22):
        psi = embed_oracle(X, 0, (2, 2)) @ v22.omega
        a = LocalOperator(1, linalg.random_hermitian(2, np.random.default_rng(5)))
        k = float(expectation(dense(a, L22), psi).real)
        c_tilde, _ = solve_cyclic_approx(psi, v22, (0,), 0.1)
        c, _ = normalize_approximant(c_tilde, psi, v22, 0.1)
        val = expectation_window(a, c, v22, k, eps3=1e-6)
        assert abs(val - k) <= 1e-12

    def test_overlapping_regions_rejected(self, v22):
        a = LocalOperator(0, np.eye(2))
        c = LocalOperator(0, X)
        with pytest.raises(ValueError, match="overlap"):
            expectation_window(a, c, v22, 0.0, 0.1)

    def test_violated_window_reports_both_sides(self, v22):
        a = LocalOperator(1, np.eye(2))
        c = LocalOperator(0, X)
        with pytest.raises(StageFailure) as err:
            expectation_window(a, c, v22, k=5.0, eps3=0.01)
        assert "lower" in err.value.values and "upper" in err.value.values


class TestSpectralDecomposition:
    def test_identity(self):
        dec = positive_spectral_decomposition(LocalOperator(0, np.eye(2)), tau=1e-12)
        assert dec.coeffs == (1.0,)
        np.testing.assert_allclose(linalg.projector(dec.blocks[0]), np.eye(2), atol=1e-12)
        assert dec.residual == 0.0

    def test_rank_one_partial_isometry(self):
        c = LocalOperator(0, np.array([[0.0, 1.0], [0.0, 0.0]]))
        dec = positive_spectral_decomposition(c, tau=1e-12)
        assert len(dec.coeffs) == 1
        assert abs(dec.coeffs[0] - 1.0) <= 1e-12
        assert dec.residual <= 1e-12

    def test_reconstruction_within_tau(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = LocalOperator(2, g)
        dec = positive_spectral_decomposition(c, tau=1e-12)
        q = g.conj().T @ g
        assert operator_norm(q - dec.local_matrix()) <= 1e-10

    def test_projectors_orthogonal(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        dec = positive_spectral_decomposition(LocalOperator(0, g), tau=1e-12)
        projectors = [linalg.projector(b) for b in dec.blocks]
        for i, p in enumerate(projectors):
            for q in projectors[i + 1:]:
                assert operator_norm(p @ q) <= 1e-10


class TestRescale:
    def test_identity_with_coefficient_two(self, v22):
        from vacuumcorr.root_theorem import ProjectorDecomposition

        dec = ProjectorDecomposition(
            (0,), (2.0,), (np.eye(2),), residual=0.0
        )
        out = rescale_to_unit_vacuum(dec, v22)
        assert abs(out.coeffs[0] - 1.0) <= 1e-12

    def test_random_case_unit_vacuum_expectation(self, v22):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        dec = positive_spectral_decomposition(LocalOperator(0, g), tau=1e-12)
        out = rescale_to_unit_vacuum(dec, v22)
        val = expectation(embed_oracle(out.local_matrix(), out.slots, L22.dims), v22.omega)
        assert abs(val.real - 1.0) <= 1e-10


class TestCombinedWindowAndExtremal:
    def _pipeline(self, v, seed, region, a_region):
        rng = np.random.default_rng(seed)
        layout = v.layout
        d_a = layout.region_dim(a_region)
        a = LocalOperator(a_region, linalg.random_hermitian(d_a, rng))
        psi = random_state(layout.total_dim, rng)
        k = float(expectation(dense(a, layout), psi).real)
        eps1 = 0.05
        c_tilde, _ = solve_cyclic_approx(psi, v, region, eps1)
        c, _ = normalize_approximant(c_tilde, psi, v, eps1)
        dec = rescale_to_unit_vacuum(positive_spectral_decomposition(c, tau=1e-12), v)
        return a, psi, k, dec

    def test_identity_trivial_window(self, v22):
        a = LocalOperator(1, np.eye(2))
        dec = rescale_to_unit_vacuum(
            positive_spectral_decomposition(LocalOperator(0, X), tau=1e-12), v22
        )
        val = combined_window(a, dec, v22, k=1.0, eps5=1e-6)
        assert abs(val - 1.0) <= 1e-10

    def test_random_pipeline_inside_window(self, v22):
        a, psi, k, dec = self._pipeline(v22, seed=9, region=(0,), a_region=(1,))
        eps2 = EpsilonBudget.eps2_from_eps1(0.05)
        eps3 = (eps2**2 + 2 * eps2) * operator_norm(a.matrix)
        val = combined_window(a, dec, v22, k, eps5=eps3 + 1e-9)
        assert k - eps3 - 1e-9 < val < k + eps3 + 1e-9

    def test_single_projector_extremal(self, v22):
        a = LocalOperator(1, linalg.random_hermitian(2, np.random.default_rng(10)))
        dec = rescale_to_unit_vacuum(
            positive_spectral_decomposition(LocalOperator(0, np.eye(2)), tau=1e-12), v22
        )
        ext = select_extremal_projectors(a, dec, v22)
        assert ext.p_max is ext.p_min
        val = combined_window(a, dec, v22, k=ext.ratio_max, eps5=1e-6)
        assert abs(ext.ratio_max - val) <= 1e-12

    def test_weight_convexity(self, v22):
        a, psi, k, dec = self._pipeline(v22, seed=11, region=(0,), a_region=(1,))
        ext = select_extremal_projectors(a, dec, v22)
        assert abs(sum(ext.weights) - 1.0) <= 1e-9
        val = float(
            expectation(
                dense(a, L22) @ embed_oracle(dec.local_matrix(), dec.slots, L22.dims),
                v22.omega,
            ).real
        )
        assert ext.ratio_min <= val + 1e-12
        assert val <= ext.ratio_max + 1e-12


class TestProveRootCertificate:
    def test_identity_observable(self, v22):
        a = LocalOperator(1, np.eye(2))
        psi = random_state(4, np.random.default_rng(12))
        cert = prove_root_certificate(a, psi, v22, (0,), eps=0.01)
        assert abs(cert.target_k - 1.0) <= 1e-12
        assert cert.lhs_max > cert.rhs_max
        assert cert.lhs_min < cert.rhs_min

    def test_soundness_recheck_from_scratch(self, v22):
        # Re-verify the inequalities with an independent embedding path.
        rng = np.random.default_rng(13)
        a = LocalOperator(1, linalg.random_hermitian(2, rng))
        psi = random_state(4, rng)
        cert = prove_root_certificate(a, psi, v22, (0,), eps=0.01)
        ea = embed_oracle(a.matrix, 1, (2, 2))
        k = float(np.vdot(psi, ea @ psi).real)
        for proj, sign, op in (
            (cert.p_max, -1.0, np.greater),
            (cert.p_min, +1.0, np.less),
        ):
            ep = embed_oracle(proj.matrix, 0, (2, 2))
            lhs = float(np.vdot(v22.omega, ea @ ep @ v22.omega).real)
            rhs = (k + sign * cert.requested_eps) * float(
                np.vdot(v22.omega, ep @ v22.omega).real
            )
            assert op(lhs, rhs)
            got = (cert.lhs_max, cert.rhs_max) if sign < 0 else (cert.lhs_min, cert.rhs_min)
            np.testing.assert_allclose(got, (lhs, rhs), rtol=0, atol=1e-12)

    def test_commuting_product_reality(self, v22):
        rng = np.random.default_rng(14)
        a = LocalOperator(1, linalg.random_hermitian(2, rng))
        psi = random_state(4, rng)
        cert = prove_root_certificate(a, psi, v22, (0,), eps=0.01)
        ea = dense(a, L22)
        for proj in (cert.p_max, cert.p_min):
            val = expectation(ea @ dense(proj, L22), v22.omega)
            assert abs(val.imag) <= 1e-10

    def test_monotone_budget(self, v22):
        rng = np.random.default_rng(15)
        a = LocalOperator(1, linalg.random_hermitian(2, rng))
        psi = random_state(4, rng)
        prev = None
        for eps in (0.1, 0.01, 0.001):
            cert = prove_root_certificate(a, psi, v22, (0,), eps)
            if prev is not None:
                for key, value in cert.achieved.items():
                    assert value <= prev[key] + 1e-15
            prev = cert.achieved

    def test_rejects_bad_inputs(self, v22):
        psi = random_state(4, np.random.default_rng(16))
        herm = LocalOperator(1, np.eye(2))
        with pytest.raises(ValueError, match="overlap"):
            prove_root_certificate(LocalOperator(0, np.eye(2)), psi, v22, (0,), 0.01)
        with pytest.raises(ValueError, match="not Hermitian"):
            prove_root_certificate(
                LocalOperator(1, np.array([[0, 1], [0, 0]])), psi, v22, (0,), 0.01
            )
        with pytest.raises(ValueError, match="eps"):
            prove_root_certificate(herm, psi, v22, (0,), 0.0)
        with pytest.raises(ValueError, match="zero"):
            prove_root_certificate(
                LocalOperator(1, np.zeros((2, 2))), psi, v22, (0,), 0.01
            )


class TestEpsilonChainProperty:
    @pytest.mark.parametrize(
        "layout,region,a_region",
        [(L22, (0,), (1,)), (L224, (2,), (0, 1)), (L224, (2,), (0,)), (L224, (2,), (1,))],
        ids=["2x2", "2x2x4", "2x2x4-a-on-0", "2x2x4-a-on-1"],
    )
    def test_realized_errors_respect_bounds(self, layout, region, a_region):
        v = make_vacuum(layout, seed=100)
        rng = np.random.default_rng(100)
        d_r = layout.region_dim(region)
        for trial in range(101):
            eps1 = float(rng.uniform(1e-3, 0.499))
            d_a = layout.region_dim(a_region)
            a = LocalOperator(a_region, linalg.random_hermitian(d_a, rng))
            degenerate = trial == 100
            if degenerate:
                # C ~ U diag(2, 1, ..., 1): Q1 has eigenvalue 1 with multiplicity d_r - 1.
                u = linalg.haar_unitary(linalg.complex_gaussian(d_r, rng))
                c0 = u * np.r_[2.0, np.ones(d_r - 1)]
                psi = embed_oracle(c0, region, layout.dims) @ v.omega
                psi /= np.linalg.norm(psi)
            else:
                psi = random_state(layout.total_dim, rng)
            norm_a = operator_norm(a.matrix)
            ea = dense(a, layout)
            k = float(expectation(ea, psi).real)

            c_tilde, achieved1 = solve_cyclic_approx(psi, v, region, eps1)
            res1 = np.linalg.norm(dense(c_tilde, layout) @ v.omega - psi)
            assert res1 <= eps1
            assert abs(achieved1 - res1) <= 1e-12

            c, err2 = normalize_approximant(c_tilde, psi, v, eps1)
            eps2 = EpsilonBudget.eps2_from_eps1(eps1)
            assert err2 <= eps2

            eps3 = (eps2**2 + 2 * eps2) * norm_a
            val3 = expectation_window(a, c, v, k, eps3 + 1e-9)
            assert abs(val3 - k) <= eps3 + 1e-9

            tau = 1e-12
            dec = positive_spectral_decomposition(c, tau)
            assert dec.residual <= tau
            q = c.matrix.conj().T @ c.matrix
            np.testing.assert_array_equal(dec.q, q)
            q_expect = float(expectation(
                embed_oracle(dec.local_matrix(), dec.slots, layout.dims), v.omega
            ).real)
            eps4 = (operator_norm(q) + 1.0) * tau / q_expect
            dec_unit = rescale_to_unit_vacuum(dec, v)
            assert abs(dec_unit.q_expect - q_expect) <= 1e-12
            assert operator_norm(q - dec_unit.local_matrix()) <= eps4 + 1e-9

            eps5 = eps3 + norm_a * eps4
            val5 = combined_window(a, dec_unit, v, k, eps5 + 1e-9)
            assert abs(val5 - k) <= eps5 + 1e-9

            if degenerate:
                assert max(b.shape[1] for b in dec.blocks) == d_r - 1
            ext = select_extremal_projectors(a, dec_unit, v)
            for p, ap, p_expect in ((ext.p_max, ext.ap_max, ext.p_max_expect),
                                    (ext.p_min, ext.ap_min, ext.p_min_expect)):
                ep = dense(p, layout)
                assert abs(ap - expectation(ea @ ep, v.omega).real) <= 1e-12
                assert abs(p_expect - expectation(ep, v.omega).real) <= 1e-12
