import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import (
    embed_oracle,
    expectation,
    local_matrix,
    normal_equations_solve,
    operator_norm_oracle,
    random_state,
)

from vacuumcorr import linalg
from vacuumcorr.linalg import operator_norm
from vacuumcorr.local_algebra import (
    LocalOperator,
    RegionLayout,
    VacuumModel,
    make_vacuum,
)
from vacuumcorr.root_theorem import (
    BUDGET_TOL,
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

    @pytest.mark.parametrize("norm_a", [1.0, 0.37, 3.7, 1024.0])
    def test_eps2_within_four_ulp_of_a_decimal_reference(self, norm_a):
        # -1 + sqrt(1 + x) to 60 digits, with x = eps3 / ||A|| taken exactly.
        with localcontext() as ctx:
            ctx.prec = 60
            for x in np.logspace(-20, 16, 361):
                eps3 = float(x) * norm_a
                want = (1 + Decimal(eps3) / Decimal(norm_a)).sqrt() - 1
                got = EpsilonBudget.eps2_from_eps3(eps3, norm_a)
                assert abs(Decimal(got) - want) <= 4 * Decimal(math.ulp(float(want))), x

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

    @pytest.mark.parametrize("factor", [1.01, 1.5, 4.0])
    @pytest.mark.parametrize("d", [
        pytest.param(d, marks=pytest.mark.xfail(
            raises=ValueError, strict=True,
            reason="the residual passes, then Q1 = C^† C (norm ~1e18) fails "
                   "hermitian_eig's absolute NOISE_TOL Hermitian check"))
        for d in (2, 3)] + [8, 32])
    def test_ill_conditioned_cyclic_vacuum_ends_at_cyclic_approx(self, d, factor):
        # sigma_min just above SCHMIDT_RANK_TOL: cyclic, but the cut's Gram has
        # condition number ~1e18, so its solve may leave a large residual.
        rng = np.random.default_rng(0)
        layout = RegionLayout((d, d))
        s_min = factor * linalg.SCHMIDT_RANK_TOL
        s = np.r_[np.full(d - 1, math.sqrt((1.0 - s_min**2) / (d - 1))), s_min]
        u, w = (linalg.haar_unitary(linalg.complex_gaussian(d, rng)) for _ in range(2))
        omega = ((u * s) @ w.T).ravel()
        v = VacuumModel.from_vector(layout, omega / np.linalg.norm(omega))
        assert v.schmidt_rank((0,)) == d
        a = LocalOperator(1, linalg.random_hermitian(d, rng))
        psi = random_state(layout.total_dim, rng)
        for eps in (0.1, 1e-3):
            try:
                prove_root_certificate(a, psi, v, (0,), eps)
            except StageFailure as exc:
                assert exc.stage == "cyclic-approx"
            except ValueError as exc:
                assert not isinstance(exc, np.linalg.LinAlgError)
                raise

    def test_singular_gram_ends_at_cyclic_approx(self, monkeypatch, v22):
        # A Gram that LAPACK finds exactly singular ends at the stage, not in a traceback.
        monkeypatch.setattr(VacuumModel, "gram",
                            lambda self, slots: (np.eye(2), np.zeros((2, 2), complex)))
        with pytest.raises(StageFailure) as info:
            solve_cyclic_approx(random_state(4, np.random.default_rng(0)), v22, (0,), 0.1)
        assert info.value.stage == "cyclic-approx"


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
        assert operator_norm(q - local_matrix(dec)) <= 1e-10

    def test_projectors_orthogonal(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        dec = positive_spectral_decomposition(LocalOperator(0, g), tau=1e-12)
        projectors = [linalg.projector(b) for b in dec.blocks]
        for i, p in enumerate(projectors):
            for q in projectors[i + 1:]:
                assert operator_norm_oracle(p @ q) <= 1e-10


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
        val = expectation(embed_oracle(local_matrix(out), out.slots, L22.dims), v22.omega)
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
                dense(a, L22) @ embed_oracle(local_matrix(dec), dec.slots, L22.dims),
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
            q_expect = float(expectation(
                embed_oracle(local_matrix(dec), dec.slots, layout.dims), v.omega
            ).real)
            eps4 = (operator_norm(q) + 1.0) * tau / q_expect
            dec_unit = rescale_to_unit_vacuum(dec, v)
            assert abs(dec_unit.q_expect - q_expect) <= 1e-12
            assert operator_norm(q - local_matrix(dec_unit)) <= eps4 + 1e-9

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


def stagewise_certificate(a, psi, v, slots, eps) -> dict:
    """The pipeline as a chain of the stage functions, each forming its own
    products: the reference for the products-once path.  Returns the
    certificate's numbers and picks, or raises the first StageFailure."""
    norm_a = operator_norm(a.matrix)
    k = float(np.vdot(psi, a.apply(psi, v.layout)).real)
    eps3 = 0.5 * eps
    eps4_target = 0.5 * eps / norm_a
    eps2 = EpsilonBudget.eps2_from_eps3(eps3, norm_a)
    eps1 = EpsilonBudget.eps1_from_eps2(eps2)
    want2 = EpsilonBudget.eps2_from_eps1(eps1)
    if not 0 < eps1 < 1 or abs(eps2 - want2) > BUDGET_TOL * max(1.0, abs(want2)):
        raise StageFailure("budget", "eps out of range")
    c_tilde, err1 = solve_cyclic_approx(psi, v, slots, eps1)
    c, err2 = normalize_approximant(c_tilde, psi, v, eps1)
    val3 = expectation_window(a, c, v, k, eps3)
    tau = eps4_target / (2.0 * (float(np.vdot(c.matrix, c.matrix).real) + 1.0 + eps4_target))
    dec = positive_spectral_decomposition(c, tau)
    dec_unit = rescale_to_unit_vacuum(dec, v)
    eps4 = (dec.coeffs[0] + 1.0) * tau / dec_unit.q_expect
    if eps4 > eps4_target:
        raise StageFailure("spectral", "eps4 over its share")
    eps5 = eps3 + norm_a * eps4
    val5 = combined_window(a, dec_unit, v, k, eps5)
    ext = select_extremal_projectors(a, dec_unit, v)
    rhs_max, rhs_min = (k - eps) * ext.p_max_expect, (k + eps) * ext.p_min_expect
    if not (ext.ap_max > rhs_max and ext.ap_min < rhs_min):
        raise StageFailure("certificate", "inequality violated")
    return {
        "numbers": [k, eps1, eps2, eps3, eps4, eps5, norm_a, dec.coeffs[0], dec_unit.q_expect,
                    tau, err1, err2, abs(val3 - k), dec.residual, abs(val5 - k),
                    ext.ap_max, rhs_max, ext.ap_min, rhs_min, *ext.weights],
        "picks": (ext.p_max.matrix, ext.p_min.matrix),
    }


def certificate_numbers(cert) -> dict:
    b, got = cert.budget, cert.achieved
    return {
        "numbers": [cert.target_k, b.eps1, b.eps2, b.eps3, b.eps4, b.eps5, b.norm_a, b.q_norm,
                    b.q_expect, b.eps4_tilde, got["cyclic_residual"], got["normalized_error"],
                    got["window_error"], got["decomposition_residual"], got["combined_error"],
                    cert.lhs_max, cert.rhs_max, cert.lhs_min, cert.rhs_min, *cert.weights],
        "picks": (cert.p_max.matrix, cert.p_min.matrix),
    }


class TestProductsOnceMatchesStagewise:
    """prove_root_certificate forms each product once and certifies eps on
    them; the chain of stage functions forms them per stage.  Both fail at
    the same stage, and agree on every number to rounding."""

    @pytest.mark.parametrize("layout,region,a_region", [
        (L22, (0,), (1,)), (RegionLayout((3, 3)), (0,), (1,)), (RegionLayout((8, 8)), (0,), (1,)),
        (L224, (2,), (0, 1)), (L224, (2,), (1,)),
    ], ids=["2x2", "3x3", "8x8", "2x2x4", "2x2x4-a-on-1"])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_stage_and_numbers(self, layout, region, a_region, seed):
        v = make_vacuum(layout, seed)
        rng = np.random.default_rng(seed)
        a = LocalOperator(a_region, linalg.random_hermitian(layout.region_dim(a_region), rng))
        psi = random_state(layout.total_dim, rng)
        for eps in (1e20, 1e17, 1e3, 1.0, 0.1, 0.01, 1e-4, 1e-8, 1e-12,
                    1e-14, 1e-15, 1e-16, 1e-17):
            try:
                want = stagewise_certificate(a, psi, v, region, eps)
            except StageFailure as exc:
                with pytest.raises(StageFailure) as info:
                    prove_root_certificate(a, psi, v, region, eps)
                assert info.value.stage == exc.stage, eps
                continue
            got = certificate_numbers(prove_root_certificate(a, psi, v, region, eps))
            # Noise-level values (residuals near 1e-16) are compared absolutely.
            np.testing.assert_allclose(got["numbers"], want["numbers"], rtol=1e-14, atol=1e-13)
            for mine, ref in zip(got["picks"], want["picks"]):
                np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-13)
