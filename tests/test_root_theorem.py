import itertools
import math
from dataclasses import replace
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    embed_oracle,
    expectation,
    hermitian_eig_loop,
    local_matrix,
    matrix_units,
    normal_equations_solve,
    off_maximal_vacuum,
    operator_norm_oracle,
    random_state,
    rescale_error_oracle,
    schmidt_rank_oracle,
)

from vacuumcorr import linalg
from vacuumcorr.harness import ScenarioConfig, _root_assertions, _root_inputs, sweep_eps
from vacuumcorr.linalg import NOISE_TOL, PROJECTOR_FLOOR
from vacuumcorr.local_algebra import (
    LocalOperator,
    RegionLayout,
    VacuumModel,
    make_vacuum,
)
from vacuumcorr.root_theorem import (
    BUDGET_TOL,
    EpsilonBudget,
    ProjectorDecomposition,
    StageFailure,
    certify_root,
    prove_root_certificate,
    rescale_to_unit_vacuum,
    root_products,
)

L22 = RegionLayout((2, 2))
L224 = RegionLayout((2, 2, 4))

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# A local action whose Q1 = G^† G / ||G omega||^2 is not a multiple of 1.
G = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
ONE = LocalOperator(1, np.eye(2))  # A = 1 on slot 1, so <A>_psi = 1


def dense(op: LocalOperator, layout: RegionLayout) -> np.ndarray:
    """``op`` on the whole layout, from the index-by-index oracle."""
    return embed_oracle(op.matrix, op.slots, layout.dims)


def q1_matrix(products) -> np.ndarray:
    """Q1 = C^† C from the products' eigenspaces, by the local_matrix oracle."""
    s = products.spectrum
    return local_matrix(SimpleNamespace(coeffs=s.eigenvalues, blocks=s.blocks))


def normalized_oracle(psi, v: VacuumModel, slots) -> tuple[np.ndarray, float]:
    """C = C~ / ||C~ omega|| and ||C~ omega|| for the normal-equations C~."""
    c, _ = normal_equations_solve(psi, v.omega, v.layout.dims, slots)
    nrm = float(np.linalg.norm(embed_oracle(c, slots, v.layout.dims) @ v.omega))
    return c / nrm, nrm


def q1_prime_oracle(psi, v: VacuumModel, slots, budget) -> np.ndarray:
    """Q1' = sum_i (lambda_i / q_expect) P_i over Q1's eigenspaces above the
    budget's tau, as one matrix: Q1 from the normal equations, its eigenspaces
    from the loop."""
    c, _ = normalized_oracle(psi, v, slots)
    lam, blocks = hermitian_eig_loop(c.conj().T @ c)
    kept = [i for i, x in enumerate(lam) if x > budget.eps4_tilde]
    return local_matrix(SimpleNamespace(coeffs=[lam[i] / budget.q_expect for i in kept],
                                        blocks=[blocks[i] for i in kept]))


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


class TestCyclicApproxStage:
    """root_products' cyclic solve against the normal-equations oracle, and
    the vacua on which it ends at the stage."""

    def test_vacuum_preimage_is_identity(self, v22):
        p = root_products(ONE, v22.omega, v22, (0,))
        assert p.cyclic_residual <= 1e-12
        assert abs(p.c_tilde_norm - 1.0) <= 1e-12
        np.testing.assert_allclose(q1_matrix(p), np.eye(2), atol=1e-12)

    def test_exact_preimage_of_local_action(self, v22):
        g_omega = embed_oracle(G, 0, (2, 2)) @ v22.omega
        nrm = np.linalg.norm(g_omega)
        p = root_products(ONE, g_omega / nrm, v22, (0,))
        assert p.cyclic_residual <= 1e-12
        np.testing.assert_allclose(q1_matrix(p), G.conj().T @ G / nrm**2, atol=1e-12)

    def test_random_state_residual_at_noise_floor(self, v22):
        psi = random_state(4, np.random.default_rng(1))
        p = root_products(ONE, psi, v22, (0,))
        c, _ = normal_equations_solve(psi, v22.omega, (2, 2), 0)
        residual = np.linalg.norm(embed_oracle(c, 0, (2, 2)) @ v22.omega - psi)
        assert p.cyclic_residual <= 1e-10
        assert abs(p.cyclic_residual - residual) <= 1e-12

    def test_matches_normal_equations_oracle(self, v22):
        psi = random_state(4, np.random.default_rng(2))
        p = root_products(ONE, psi, v22, (0,))
        c, nrm = normalized_oracle(psi, v22, (0,))
        _, res_oracle = normal_equations_solve(psi, v22.omega, (2, 2), 0)
        np.testing.assert_allclose(q1_matrix(p), c.conj().T @ c, atol=1e-12)
        assert abs(p.c_tilde_norm - nrm) <= 1e-12
        assert res_oracle <= 1e-12

    @pytest.mark.parametrize("dims,own_gram", [
        ((3, 3), [(1,)]),  # M across 1|0 is the transpose of the cut's
        ((2, 2, 4), [(0, 1), (1, 0)]),  # the cut is 2|(0, 1)
        ((2, 3, 6), [(0, 1), (1, 0)]),
    ])
    def test_accepts_exactly_the_cyclic_regions(self, dims, own_gram):
        # The solve's own Gram bound accepts a region with at least as many rows
        # as columns; a wide one is rejected, as the rank oracle has it.
        layout = RegionLayout(dims)
        v = make_vacuum(layout, 0)
        rng = np.random.default_rng(0)
        psi = random_state(layout.total_dim, rng)
        n = len(dims)
        regions = [r for k in range(1, n) for r in itertools.permutations(range(n), k)]
        accepted = []
        for region in regions:
            rest = layout.complement(region)
            a = LocalOperator(rest[0], linalg.random_hermitian(dims[rest[0]], rng))
            cyclic = schmidt_rank_oracle(v.omega, dims, region) == layout.region_dim(rest)
            try:
                p = root_products(a, psi, v, region)
            except ValueError as exc:
                assert not cyclic and "not cyclic" in str(exc), region
            else:
                assert cyclic and p.cyclic_residual <= 1e-10, region
                accepted.append(region)
        tall = [r for r in regions
                if layout.region_dim(r) >= layout.region_dim(layout.complement(r))]
        assert accepted == tall
        assert set(own_gram) <= set(accepted)

    def test_non_cyclic_vacuum_rejected(self):
        product = np.zeros(4, dtype=complex)
        product[0] = 1.0
        v = VacuumModel.from_vector(L22, product)
        with pytest.raises(ValueError, match="not cyclic"):
            root_products(ONE, random_state(4, np.random.default_rng(0)), v, (0,))

    def test_three_slot_region(self, v224):
        rng = np.random.default_rng(3)
        psi = random_state(16, rng)
        a = LocalOperator((0, 1), linalg.random_hermitian(4, rng))
        p = root_products(a, psi, v224, (2,))
        c, _ = normalized_oracle(psi, v224, (2,))
        assert p.cyclic_residual <= 1e-10
        np.testing.assert_allclose(q1_matrix(p), c.conj().T @ c, atol=1e-10)

    @pytest.mark.parametrize("factor", [1.01, 1.5, 4.0])
    @pytest.mark.parametrize("d", [2, 3, 8, 32])
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

    @pytest.mark.parametrize("region", [(0,), (1,)])
    def test_a_failed_gram_bound_is_formed_once(self, monkeypatch, region):
        # Schmidt coefficients in proportion (1, 1, 1e-8): cyclic, but the Gram
        # bound fails, so the rank comes from the cut's spectrum, not a second Gram.
        # Region (1,)'s matrix is the transpose of the cut's: the same bound.
        rng = np.random.default_rng(0)
        layout = RegionLayout((3, 3))
        u, w = (linalg.haar_unitary(linalg.complex_gaussian(3, rng)) for _ in range(2))
        omega = ((u * np.array([1.0, 1.0, 1e-8])) @ w.T).ravel()
        v = VacuumModel.from_vector(layout, omega / np.linalg.norm(omega))
        calls = []
        original = linalg.gram_bound
        monkeypatch.setattr(linalg, "gram_bound", lambda m: calls.append(m) or original(m))
        a = LocalOperator(1 - region[0], linalg.random_hermitian(3, rng))
        root_products(a, random_state(layout.total_dim, rng), v, region)
        assert len(calls) == 1
        assert v.schmidt_rank(region) == 3 and len(calls) == 2  # the query forms its own

    @pytest.mark.parametrize("dims,region", [((2, 2), (0,)), ((3, 3), (1,)), ((2, 2, 4), (2,))])
    def test_cyclicity_is_the_vacuums_rank_proof(self, monkeypatch, dims, region):
        # root_products asks the vacuum for M, its Gram and M's rank: a proof one
        # rank short makes a cyclic region not cyclic.
        layout = RegionLayout(dims)
        v = make_vacuum(layout, 0)
        original = VacuumModel.gram

        def one_short(self, *args):
            m, g, rank = original(self, *args)
            return m, g, rank - 1

        monkeypatch.setattr(VacuumModel, "gram", one_short)
        rng = np.random.default_rng(0)
        rest = layout.complement(region)[0]
        a = LocalOperator(rest, linalg.random_hermitian(layout.dims[rest], rng))
        with pytest.raises(ValueError, match="not cyclic"):
            root_products(a, random_state(layout.total_dim, rng), v, region)

    @pytest.mark.parametrize("gram", [np.zeros((2, 2)), np.diag([1e-320, 1.0])],
                             ids=["singular", "overflowing"])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_singular_gram_ends_at_cyclic_approx(self, monkeypatch, v22, gram, rank):
        # A Gram that LAPACK finds exactly singular, or whose solve overflows, ends
        # at the stage, not in a traceback, on either branch: a psi of rank 1 or 2.
        monkeypatch.setattr(linalg, "gram_bound", lambda m: (gram.astype(complex), 1.0))
        rng = np.random.default_rng(0)
        x, y = random_state(2, rng), random_state(2, rng)
        psi = np.kron(x, y) if rank == 1 else random_state(4, rng)
        with pytest.raises(StageFailure) as info:
            root_products(ONE, psi, v22, (0,))
        assert info.value.stage == "cyclic-approx"


class TestNormalizeStage:
    def test_unit_input_unchanged(self, v22):
        psi = embed_oracle(X, 0, (2, 2)) @ v22.omega  # ||X omega|| = 1 already
        p = root_products(ONE, psi, v22, (0,))
        assert abs(p.c_tilde_norm - 1.0) <= 1e-12
        assert p.normalized_error <= 1e-12
        np.testing.assert_allclose(q1_matrix(p), X.conj().T @ X, atol=1e-12)

    def test_achieved_error_within_eps2(self, v22):
        rng = np.random.default_rng(4)
        psi = random_state(4, rng)
        cert = prove_root_certificate(ONE, psi, v22, (0,), eps=0.2)
        achieved = cert.achieved["normalized_error"]
        assert achieved <= EpsilonBudget.eps2_from_eps1(cert.budget.eps1)
        # Recompute the error directly.
        c, _ = normalized_oracle(psi, v22, (0,))
        c_omega = embed_oracle(c, 0, (2, 2)) @ v22.omega
        assert abs(np.linalg.norm(c_omega) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(psi - c_omega) - achieved) <= 1e-14


class TestWindowStage:
    def test_exact_preimage_hits_k(self, v22):
        psi = embed_oracle(X, 0, (2, 2)) @ v22.omega
        a = LocalOperator(1, linalg.random_hermitian(2, np.random.default_rng(5)))
        k = float(expectation(dense(a, L22), psi).real)
        p = root_products(a, psi, v22, (0,))
        assert abs(p.window - k) <= 1e-12
        cert = certify_root(p, eps=2e-6)  # eps3 = 1e-6
        assert cert.achieved["window_error"] <= 1e-12

    def test_violated_window_reports_both_sides(self, v22):
        p = root_products(ONE, embed_oracle(X, 0, (2, 2)) @ v22.omega, v22, (0,))
        with pytest.raises(StageFailure) as err:
            certify_root(replace(p, k=5.0), eps=0.02)
        assert err.value.stage == "window"
        assert err.value.values == pytest.approx({"value": 1.0, "lower": 4.99, "upper": 5.01},
                                                  rel=0, abs=1e-12)


# certify_root on products with one value pushed just past its check: (stage, the
# change, the failure's values), from the budget the unchanged products pass at eps 0.1.
PUSHED = [
    pytest.param("cyclic-approx", lambda p, b: dict(cyclic_residual=1.01 * b.eps1),
                 lambda b: {"achieved": 1.01 * b.eps1, "bound": b.eps1}, id="cyclic-approx"),
    pytest.param("normalize", lambda p, b: dict(c_tilde_norm=1.0 - b.eps1),
                 lambda b: {"norm": 1.0 - b.eps1, "bound": 1.0 - b.eps1}, id="normalize-norm"),
    pytest.param("normalize",
                 lambda p, b: dict(normalized_error=1.01 * EpsilonBudget.eps2_from_eps1(b.eps1)),
                 lambda b: {"achieved": 1.01 * EpsilonBudget.eps2_from_eps1(b.eps1),
                            "bound": EpsilonBudget.eps2_from_eps1(b.eps1)},
                 id="normalize-error"),
    pytest.param("window", lambda p, b: dict(window=complex(p.window.real, 1e-6)),
                 lambda b: {"imag": 1e-6}, id="window-imag"),
    # <Q1'~>_omega a millionth of itself: eps4 a million times over.
    pytest.param("spectral", lambda p, b: dict(p_expects=p.p_expects * 1e-6),
                 lambda b: {"achieved": b.eps4 * 1e6, "bound": 0.5 * 0.1 / b.norm_a},
                 id="spectral"),
    # A dropped eigenvalue of twice eps4 is ||Q1 - Q1'|| itself.
    pytest.param("rescale", lambda p, b: dict(spectrum=replace(
                     p.spectrum, values=np.append(p.spectrum.values, 2.0 * b.eps4))),
                 lambda b: {"achieved": 2.0 * b.eps4, "bound": b.eps4}, id="rescale"),
    # The rescaled weights sum to 1, so <A Q1'>_omega moves by 1e-6 i.
    pytest.param("combined", lambda p, b: dict(aps=p.aps + 1e-6j * p.p_expects),
                 lambda b: {"imag": 1e-6}, id="combined-imag"),
]


class TestStageChecks:
    @pytest.mark.parametrize("stage,change,values", PUSHED)
    def test_ends_at_the_stage_with_its_values(self, v22, stage, change, values):
        rng = np.random.default_rng(17)
        a = LocalOperator(1, linalg.random_hermitian(2, rng))
        p = root_products(a, random_state(4, rng), v22, (0,))
        budget = certify_root(p, 0.1).budget
        with pytest.raises(StageFailure) as info:
            certify_root(replace(p, **change(p, budget)), 0.1)
        assert info.value.stage == stage
        assert info.value.values == pytest.approx(values(budget), rel=1e-9)


class TestSpectralStage:
    def test_identity(self, v22):
        a = LocalOperator(1, linalg.random_hermitian(2, np.random.default_rng(6)))
        cert = prove_root_certificate(a, v22.omega, v22, (0,), eps=0.01)
        assert len(cert.weights) == 1
        assert abs(cert.budget.q_norm - 1.0) <= 1e-12
        np.testing.assert_allclose(cert.p_max.matrix, np.eye(2), atol=1e-12)
        assert cert.achieved["decomposition_residual"] == 0.0

    def test_rank_one_partial_isometry(self, v22):
        # C ~ E_01: Q1 = 2 diag(0, 1), with eigenvalues 2 (kept) and 0 (dropped).
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        psi = embed_oracle(e01, 0, (2, 2)) @ v22.omega * math.sqrt(2.0)
        cert = prove_root_certificate(ONE, psi, v22, (0,), eps=0.01)
        assert len(cert.weights) == 1
        assert abs(cert.budget.q_norm - 2.0) <= 1e-12
        np.testing.assert_allclose(cert.p_max.matrix, np.diag([0.0, 1.0]), atol=1e-12)
        assert cert.achieved["decomposition_residual"] <= 1e-12

    def test_reconstruction_within_tau(self, v224):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g_omega = embed_oracle(g, 2, L224.dims) @ v224.omega
        nrm = np.linalg.norm(g_omega)
        a = LocalOperator((0, 1), linalg.random_hermitian(4, rng))
        p = root_products(a, g_omega / nrm, v224, (2,))
        q = g.conj().T @ g / nrm**2
        assert operator_norm_oracle(q - q1_matrix(p)) <= 1e-10

    def test_projectors_orthogonal(self):
        rng = np.random.default_rng(7)
        layout = RegionLayout((3, 3))
        v = make_vacuum(layout, 0)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g_omega = embed_oracle(g, 0, layout.dims) @ v.omega
        a = LocalOperator(1, linalg.random_hermitian(3, rng))
        p = root_products(a, g_omega / np.linalg.norm(g_omega), v, (0,))
        projectors = [b @ b.conj().T for b in p.spectrum.blocks]
        for i, proj in enumerate(projectors):
            for other in projectors[i + 1:]:
                assert operator_norm_oracle(proj @ other) <= 1e-10


class TestRescale:
    def test_identity_with_coefficient_two(self, v22):
        dec = ProjectorDecomposition(
            (0,), (2.0,), (np.eye(2),), residual=0.0
        )
        out = rescale_to_unit_vacuum(dec, v22)
        assert abs(out.coeffs[0] - 1.0) <= 1e-12

    def test_random_case_unit_vacuum_expectation(self, v22):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        eigenvalues, blocks = hermitian_eig_loop(g.conj().T @ g)
        dec = ProjectorDecomposition((0,), eigenvalues, blocks, residual=0.0)
        out = rescale_to_unit_vacuum(dec, v22)
        val = expectation(embed_oracle(local_matrix(out), out.slots, L22.dims), v22.omega)
        assert abs(val.real - 1.0) <= 1e-10

    def test_certify_root_builds_no_decomposition(self, monkeypatch, v22):
        """certify_root reads the unit coefficients directly: a decomposition
        is built only for the stand-alone rescale stage."""
        built = []
        init = ProjectorDecomposition.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProjectorDecomposition, "__init__", counting_init)
        a = LocalOperator(1, linalg.random_hermitian(3, np.random.default_rng(3)))
        v33 = make_vacuum(RegionLayout((3, 3)), 0)
        prove_root_certificate(a, random_state(9, np.random.default_rng(4)), v33, (0,), 0.01)
        table = sweep_eps(ScenarioConfig.from_dict(
            {"scenario": "root-cert", "layout": [3, 3], "sweep": [0.1, 0.03, 0.01, 0.003, 0.001]}))
        assert table.passed and len(table.rows) == 5
        assert built == []
        # The counter sees the rescale stage's input and its replace.
        rescale_to_unit_vacuum(ProjectorDecomposition((0,), (2.0,), (np.eye(2),), 0.0), v22)
        assert len(built) == 2


class TestCombinedWindowAndExtremal:
    def _pipeline(self, v, seed, region, a_region, eps):
        rng = np.random.default_rng(seed)
        layout = v.layout
        d_a = layout.region_dim(a_region)
        a = LocalOperator(a_region, linalg.random_hermitian(d_a, rng))
        psi = random_state(layout.total_dim, rng)
        k = float(expectation(dense(a, layout), psi).real)
        cert = prove_root_certificate(a, psi, v, region, eps)
        # <A Q1'>_omega from the oracles.
        q1_prime = embed_oracle(q1_prime_oracle(psi, v, region, cert.budget), region, layout.dims)
        val = float(expectation(dense(a, layout) @ q1_prime, v.omega).real)
        return a, k, cert, val

    def test_identity_trivial_window(self, v22):
        psi = embed_oracle(X, 0, (2, 2)) @ v22.omega
        cert = prove_root_certificate(ONE, psi, v22, (0,), eps=1e-6)
        assert abs(cert.target_k - 1.0) <= 1e-12
        assert cert.achieved["combined_error"] <= 1e-10

    def test_random_pipeline_inside_window(self, v22):
        a, k, cert, val = self._pipeline(v22, seed=9, region=(0,), a_region=(1,), eps=0.1)
        assert abs(val - k) < cert.budget.eps5
        assert abs(abs(val - k) - cert.achieved["combined_error"]) <= 1e-12

    def test_single_projector_extremal(self, v22):
        a = LocalOperator(1, linalg.random_hermitian(2, np.random.default_rng(10)))
        cert = prove_root_certificate(a, v22.omega, v22, (0,), eps=1e-6)
        assert cert.p_max is cert.p_min
        # P_max = 1, so its ratio <A P_max> / <P_max> is <A Q1'>_omega = <A>_omega.
        assert abs(cert.lhs_max - cert.target_k) <= 1e-12
        assert cert.achieved["combined_error"] <= 1e-12

    def test_weight_convexity(self, v22):
        a, k, cert, val = self._pipeline(v22, seed=11, region=(0,), a_region=(1,), eps=0.1)
        assert abs(sum(cert.weights) - 1.0) <= 1e-9
        ea = dense(a, L22)
        ratio_max, ratio_min = (expectation(ea @ dense(p, L22), v22.omega).real
                                / expectation(dense(p, L22), v22.omega).real
                                for p in (cert.p_max, cert.p_min))
        assert ratio_min <= val + 1e-12
        assert val <= ratio_max + 1e-12


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


class TestOffMaximalVacua:
    """root-cert's A and psi on off_maximal_vacuum at eps 0.01 and seed 0, pinned as the
    pipeline ends today: whether the ill-conditioned cases should end earlier is open."""

    @staticmethod
    def certify(d: int, s_min: float):
        cfg = ScenarioConfig.from_dict(
            {"scenario": "root-cert", "layout": [d, d], "seed": 0, "eps": 0.01})
        a, psi, _ = _root_inputs(cfg)
        return cfg, prove_root_certificate(a, psi, off_maximal_vacuum(d, s_min), (0,), cfg.eps)

    @pytest.mark.parametrize("d", [4, 16, 64])
    @pytest.mark.parametrize("s_min", [0.1, 1e-3])
    def test_report_assertions(self, d, s_min):
        cfg, cert = self.certify(d, s_min)
        assert all(a["passed"] for a in _root_assertions(cfg, cert))

    @pytest.mark.parametrize("d", [4, 16, 64])
    @pytest.mark.parametrize("s_min", [1e-5, 1e-7])
    def test_ends_at_rescale(self, d, s_min):
        # Q1 / <Q1'~>_omega misses Q1 by 0.6 to 25 at 1e-5 and by 1.5e5 to 1.3e9
        # at 1e-7, against eps4 ~ 1e-3 to 5e-5.
        with pytest.raises(StageFailure) as failure:
            self.certify(d, s_min)
        assert failure.value.stage == "rescale"


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
            eps = float(10.0 ** rng.uniform(-8.0, 0.0))
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
            ea = dense(a, layout)
            k = float(expectation(ea, psi).real)
            products = root_products(a, psi, v, region)
            cert = certify_root(products, eps)
            b, got = cert.budget, cert.achieved
            want = stagewise_products(a, psi, v, region)

            assert got["cyclic_residual"] <= b.eps1
            assert abs(got["cyclic_residual"] - want["residual"]) <= 1e-12
            assert got["normalized_error"] <= EpsilonBudget.eps2_from_eps1(b.eps1)
            assert got["window_error"] <= b.eps3
            assert abs(cert.target_k - k) <= 1e-12

            tau = b.eps4_tilde
            assert got["decomposition_residual"] <= tau
            kept = [i for i, lam in enumerate(want["eigenvalues"]) if lam > tau]
            lam = [want["eigenvalues"][i] for i in kept]
            blocks = [want["blocks"][i] for i in kept]
            q_expect = float(expectation(
                embed_oracle(local_matrix(SimpleNamespace(coeffs=lam, blocks=blocks)),
                             region, layout.dims), v.omega).real)
            assert abs(b.q_expect - q_expect) <= 1e-12
            dec_unit = SimpleNamespace(coeffs=[x / q_expect for x in lam], blocks=blocks)
            rescale_error = rescale_error_oracle(want["q"], dec_unit)
            assert rescale_error <= b.eps4 + 1e-9
            assert abs(got["rescale_error"] - rescale_error) <= 1e-12
            assert got["combined_error"] <= b.eps5

            if degenerate:
                assert max(blk.shape[1] for blk in products.spectrum.blocks) == d_r - 1
            for proj, lhs, rhs, sign in ((cert.p_max, cert.lhs_max, cert.rhs_max, -1.0),
                                         (cert.p_min, cert.lhs_min, cert.rhs_min, 1.0)):
                ep = dense(proj, layout)
                assert abs(lhs - expectation(ea @ ep, v.omega).real) <= 1e-12
                assert abs(rhs - (k + sign * eps) * expectation(ep, v.omega).real) <= 1e-12


def vector_from_coefficients(mat, dims, slots) -> np.ndarray:
    """The layout vector whose coefficient matrix across slots|rest is ``mat``:
    the inverse of ``coefficient_matrix_oracle``, by moveaxis."""
    rest = [s for s in range(len(dims)) if s not in slots]
    t = np.asarray(mat).reshape([dims[s] for s in (*slots, *rest)])
    return np.moveaxis(t, range(len(slots)), slots).ravel()


def stagewise_products(a, psi, v, slots) -> dict:
    """The pipeline's eps-independent values from numpy and the oracles alone:
    C~ by least squares over the matrix-unit images of omega, every vector and
    expectation through index-by-index embeddings, ||A|| by a dense SVD, and
    Q1's eigenspaces from the loop."""
    dims = v.layout.dims
    ea = embed_oracle(a.matrix, a.slots, dims)
    d = math.prod(dims[s] for s in slots)
    m = np.column_stack([embed_oracle(e, slots, dims) @ v.omega for e in matrix_units(d)])
    coeff = np.linalg.lstsq(m, psi, rcond=None)[0]
    c_tilde_omega = m @ coeff
    nrm = float(np.linalg.norm(c_tilde_omega))
    c = coeff.reshape(d, d) / nrm
    c_omega = embed_oracle(c, slots, dims) @ v.omega
    q = c.conj().T @ c
    eigenvalues, blocks = hermitian_eig_loop(q)
    ps = [embed_oracle(blk @ blk.conj().T, slots, dims) for blk in blocks]
    return {
        "k": float(expectation(ea, psi).real),
        "norm_a": operator_norm_oracle(a.matrix),
        "residual": float(np.linalg.norm(c_tilde_omega - psi)),
        "nrm": nrm,
        "err2": float(np.linalg.norm(c_omega - psi)),
        "window": expectation(ea, c_omega / np.linalg.norm(c_omega)),
        "q": q,
        "eigenvalues": eigenvalues,
        "blocks": blocks,
        "p_expects": [float(expectation(p, v.omega).real) for p in ps],
        "aps": [expectation(ea @ p, v.omega) for p in ps],
    }


def _in_window(stage: str, val: complex, k: float, eps: float) -> float:
    if abs(val.imag) > NOISE_TOL:
        raise StageFailure(stage, "non-real", imag=val.imag)
    if not k - eps < val.real < k + eps:
        raise StageFailure(stage, "outside", value=val.real, lower=k - eps, upper=k + eps)
    return val.real


def stagewise_certificate(o: dict, eps: float) -> dict:
    """The certificate for one eps on ``stagewise_products``, one stage at a
    time with the paper's formulas.  Returns its numbers and picks, or raises
    the first StageFailure, with the values the pipeline reports."""
    k, norm_a = o["k"], o["norm_a"]
    eps3 = 0.5 * eps
    eps4_target = 0.5 * eps / norm_a
    x = eps3 / norm_a  # eps2 from eps3 = (eps2^2 + 2 eps2) ||A||, then eps1 from eps2
    eps2 = x / (1.0 + math.sqrt(1.0 + x))
    eps1 = eps2 / (2.0 + eps2)
    if not 0 < eps1 < 1 or abs(eps2 - 2.0 * eps1 / (1.0 - eps1)) > BUDGET_TOL * max(
            1.0, abs(2.0 * eps1 / (1.0 - eps1))):
        raise StageFailure("budget", "eps out of range", eps=eps, eps1=eps1, eps2=eps2)
    if o["residual"] > eps1:
        raise StageFailure("cyclic-approx", "", achieved=o["residual"], bound=eps1)
    if o["nrm"] <= 1.0 - eps1:
        raise StageFailure("normalize", "", norm=o["nrm"], bound=1.0 - eps1)
    if o["err2"] > 2.0 * eps1 / (1.0 - eps1):
        raise StageFailure("normalize", "", achieved=o["err2"], bound=2.0 * eps1 / (1.0 - eps1))
    val3 = _in_window("window", o["window"], k, eps3)
    tau = eps4_target / (2.0 * (float(np.trace(o["q"]).real) + 1.0 + eps4_target))
    n = sum(lam > tau for lam in o["eigenvalues"])
    if n == 0:
        raise StageFailure("rescale", "Q1 = 0")
    lam, p_expects, aps = o["eigenvalues"][:n], o["p_expects"][:n], o["aps"][:n]
    q_expect = sum(x * p for x, p in zip(lam, p_expects))
    eps4 = (lam[0] + 1.0) * tau / q_expect
    if eps4 > eps4_target:
        raise StageFailure("spectral", "", achieved=eps4, bound=eps4_target)
    coeffs = [x / q_expect for x in lam]
    rescale_error = rescale_error_oracle(o["q"], SimpleNamespace(coeffs=coeffs,
                                                                 blocks=o["blocks"][:n]))
    if rescale_error > eps4:
        raise StageFailure("rescale", "", achieved=rescale_error, bound=eps4)
    eps5 = eps3 + norm_a * eps4
    val5 = _in_window("combined", sum(c * ap for c, ap in zip(coeffs, aps)), k, eps5)
    for p in p_expects:
        if p <= PROJECTOR_FLOOR:
            raise StageFailure("extremal", "", value=p)
    ratios = [ap.real / p for ap, p in zip(aps, p_expects)]
    i_max, i_min = int(np.argmax(ratios)), int(np.argmin(ratios))
    lhs_max, lhs_min = aps[i_max].real, aps[i_min].real
    rhs_max, rhs_min = (k - eps) * p_expects[i_max], (k + eps) * p_expects[i_min]
    if not lhs_max > rhs_max:
        raise StageFailure("certificate", "", lhs=lhs_max, rhs=rhs_max)
    if not lhs_min < rhs_min:
        raise StageFailure("certificate", "", lhs=lhs_min, rhs=rhs_min)
    residual = max((abs(x) for x in o["eigenvalues"][n:]), default=0.0)
    return {
        "numbers": [k, eps1, eps2, eps3, eps4, eps5, norm_a, lam[0], q_expect, tau,
                    o["residual"], o["err2"], abs(val3 - k), residual, abs(val5 - k),
                    lhs_max, rhs_max, lhs_min, rhs_min,
                    *(c * p for c, p in zip(coeffs, p_expects))],
        "picks": tuple(o["blocks"][i] @ o["blocks"][i].conj().T for i in (i_max, i_min)),
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


STAGES = ("budget", "cyclic-approx", "normalize", "window", "spectral", "rescale",
          "combined", "extremal", "certificate", None)


def outcome(run) -> tuple:
    """(the failed stage, its values) or (None, the certificate's numbers and picks)."""
    try:
        return None, run()
    except StageFailure as exc:
        return exc.stage, exc.values


class TestProductsOnceMatchesStagewise:
    """prove_root_certificate against the stagewise reference, built from
    numpy and the oracles alone.  Both end at the same stage with the same
    values, or both certify with the same numbers and picks, to rounding.
    They may part only at a check decided within that rounding: the failed
    value then lies within the comparison's tolerance of its bound."""

    @pytest.mark.parametrize("layout,region,a_region,s_min,terms", [
        (L22, (0,), (1,), None, None), (RegionLayout((3, 3)), (0,), (1,), None, None),
        (RegionLayout((8, 8)), (0,), (1,), None, None), (L224, (2,), (0, 1), None, None),
        (L224, (2,), (1,), None, None), (RegionLayout((4, 4)), (0,), (1,), 0.1, None),
        (L224, (2,), (0, 1), None, (1.0,)), (RegionLayout((3, 3)), (0,), (1,), None, (1.0, 1.0)),
        (L224, (2,), (0, 1), None, (1.0, 1e-6)),
    ], ids=["2x2", "3x3", "8x8", "2x2x4", "2x2x4-a-on-1", "4x4-off-maximal",
            "2x2x4-product", "3x3-rank-2", "2x2x4-product-plus-1e-6"])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_stage_and_numbers(self, layout, region, a_region, s_min, terms, seed):
        # s_min: make_vacuum's vacuum if None, else off_maximal_vacuum's.  Q1's top
        # eigenvalue grows as 1 / s_min^2 and carries rounding into eps4 and eps5: at
        # s_min = 0.01 the two sides part by 2e-14 relative, beyond this comparison's 1e-14.
        # terms: a random psi if None, else psi = x y^T across region|rest with x's
        # columns scaled by terms.  One term is rank 1 (on 2x2x4, cond-bell's
        # phi (x) chi) and takes Q1 in closed form; a second term, even at 1e-6, does not.
        v = (make_vacuum(layout, seed) if s_min is None
             else off_maximal_vacuum(layout.dims[0], s_min))
        rng = np.random.default_rng(seed)
        a = LocalOperator(a_region, linalg.random_hermitian(layout.region_dim(a_region), rng))
        if terms is None:
            psi = random_state(layout.total_dim, rng)
        else:
            x, y = (linalg.complex_gaussian(layout.region_dim(r), rng)[:, :len(terms)]
                    for r in (region, layout.complement(region)))
            x *= terms
            x /= np.linalg.norm(x @ y.T)
            psi = vector_from_coefficients(x @ y.T, layout.dims, region)
            # The rank-1 branch lists Q1's one eigenvalue, the vector branch all of them.
            listed = len(root_products(a, psi, v, region).spectrum.values)
            assert listed == (1 if len(terms) == 1 else layout.region_dim(region))
        reference = stagewise_products(a, psi, v, region)
        for eps in (1e20, 1e17, 1e3, 1.0, 0.1, 0.01, 1e-4, 1e-8, 1e-12,
                    1e-14, 1e-15, 1e-16, 1e-17):
            got_stage, got = outcome(lambda: certificate_numbers(
                prove_root_certificate(a, psi, v, region, eps)))
            want_stage, want = outcome(lambda: stagewise_certificate(reference, eps))
            # Noise-level values (residuals near 1e-16) are compared absolutely.
            close = dict(rtol=1e-14, atol=1e-13)
            if got_stage != want_stage:
                stage, values = min((got_stage, got), (want_stage, want),
                                    key=lambda side: STAGES.index(side[0]))
                value, *bounds = values.values()
                assert any(np.isclose(value, bound, **close) for bound in bounds), (eps, stage)
            elif got_stage is not None:
                assert got.keys() == want.keys(), eps
                np.testing.assert_allclose(list(got.values()), list(want.values()), **close)
            else:
                np.testing.assert_allclose(got["numbers"], want["numbers"], **close)
                for mine, ref in zip(got["picks"], want["picks"]):
                    np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-13)
