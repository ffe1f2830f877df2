"""Shared independent oracles for the test suite.

These deliberately avoid the library code paths they check: eigenvalues
come from characteristic-polynomial roots, span dimensions from explicit
matrix-unit orbits, coefficient matrices from an entry-by-entry copy,
Schmidt ranks from a dense SVD, least-squares residuals from normal equations, operator norms of any matrix from a
dense SVD, eigenspace blocks from a loop over the eigenvalues, a
decomposition's Q1' from its d x d sum, and Bell ceilings from a grid
over qubit measurement angles.  The see-saw's reference iterates
on full d x d matrices, from the library's r x r starts lifted to d x d, and
the stacked starts' reference runs them one at a time.
The Tsirelson sweep's reference takes its settings one at a time through
the single-setting API, the frame norm's reference builds the d x d
reflections, and the report writer's reference formats one float at a time.
``off_maximal_vacuum`` and ``off_maximal_vacuum_3slot`` are families of 2- and 3-slot
vacua off the maximally entangled point.
``run_cli`` runs the command line on this checkout's sources, in ``cli_env()``.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from vacuumcorr.correlations import (
    SEESAW_DRAWS,
    SEESAW_ITERS,
    SEESAW_TOL,
    BellSettings,
    _sign_contraction,
    hermitian_contractions,
    tsirelson_certificate,
)
from vacuumcorr.linalg import (
    NOISE_TOL,
    SCHMIDT_RANK_TOL,
    as_operator,
    complex_gaussian,
    frobenius,
    haar_unitary,
    random_hermitian,
)
from vacuumcorr.local_algebra import LocalOperator, RegionLayout, VacuumModel

SRC = Path(__file__).resolve().parents[1] / "src"


def charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial, computed
    with the trace-based Faddeev-LeVerrier recursion (sane for dim <= 4)."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    roots = np.roots(coeffs)
    return np.sort_complex(roots)[::-1]


def operator_norm_oracle(a) -> float:
    """The largest singular value of any matrix, from a dense SVD."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def schmidt_rank_oracle(psi, dims, slots, tol: float = SCHMIDT_RANK_TOL) -> int:
    """Singular values above ``tol`` of psi's coefficients across slots|rest,
    the tensor permuted with moveaxis and decomposed by a dense SVD."""
    slots = (slots,) if isinstance(slots, int) else tuple(slots)
    t = np.moveaxis(np.asarray(psi, dtype=complex).reshape(dims), slots, range(len(slots)))
    m = t.reshape(math.prod(dims[s] for s in slots), -1)
    return int(np.sum(np.linalg.svd(m, compute_uv=False) > tol))


def spectrum_matrix(kind: str, shape, log_scale: float, rng) -> np.ndarray:
    """A matrix U diag(s) V^T of the given shape with Haar U, V and the
    singular values of ``kind``: rank-deficient, spread geometrically down
    to 10^log_scale (ill-conditioned), all near 10^log_scale (scaled), or a
    single one (a product state)."""
    n = min(shape)
    if kind == "deficient":
        s = np.r_[rng.uniform(0.1, 1.0, rng.integers(1, n)), np.zeros(n)][:n]
    elif kind == "ill-conditioned":
        s = np.logspace(0.0, log_scale, n)
    elif kind == "scaled":
        s = rng.uniform(0.5, 1.0, n) * 10.0**log_scale
    else:
        s = np.r_[1.0, np.zeros(n - 1)]
    u, v = (haar_unitary(complex_gaussian(d, rng))[:, :n] for d in shape)
    return (u * s) @ v.T


def hermitian_eig_loop(a) -> tuple[tuple[float, ...], tuple[np.ndarray, ...]]:
    """Eigenvalues and eigenspace blocks of a Hermitian matrix, merged one
    eigenvalue at a time: a run within NOISE_TOL of its neighbours is one
    block, its eigenvalue the mean of the run."""
    w, vecs = np.linalg.eigh(as_operator(a))
    w = w[::-1]
    vecs = vecs[:, ::-1]
    eigenvalues, blocks = [], []
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and abs(w[j] - w[j - 1]) <= NOISE_TOL:
            j += 1
        eigenvalues.append(float(np.mean(w[i:j])))
        blocks.append(vecs[:, i:j])
        i = j
    return tuple(eigenvalues), tuple(blocks)


def local_matrix(dec) -> np.ndarray:
    """A decomposition's sum_i lambda_i P_i as one d x d matrix (V lambda) V^†
    over its concatenated blocks V, lambda_i repeated per column of B_i."""
    vecs = np.hstack(dec.blocks)
    lam = np.repeat(dec.coeffs, [b.shape[1] for b in dec.blocks])
    m = (vecs * lam) @ vecs.conj().T
    return 0.5 * (m + m.conj().T)


def rescale_error_oracle(q: np.ndarray, dec_unit) -> float:
    """||Q1 - Q1'|| from the dense difference of Q1 and the rescaled
    decomposition's local matrix, by a dense SVD."""
    return operator_norm_oracle(q - local_matrix(dec_unit))


def matrix_units(dim: int):
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            yield e


def embed_oracle(op: np.ndarray, slots, dims) -> np.ndarray:
    """Index-by-index embedding, independent of the kron/transpose path."""
    slots = (slots,) if isinstance(slots, int) else tuple(slots)
    dims = tuple(dims)
    total = math.prod(dims)
    out = np.zeros((total, total), dtype=complex)
    rest = [s for s in range(len(dims)) if s not in slots]
    for row in itertools.product(*[range(d) for d in dims]):
        for col in itertools.product(*[range(d) for d in dims]):
            if any(row[s] != col[s] for s in rest):
                continue
            r_local = 0
            c_local = 0
            for s in slots:
                r_local = r_local * dims[s] + row[s]
                c_local = c_local * dims[s] + col[s]
            r_full = 0
            c_full = 0
            for s, d in enumerate(dims):
                r_full = r_full * d + row[s]
                c_full = c_full * d + col[s]
            out[r_full, c_full] = op[r_local, c_local]
    return out


def coefficient_matrix_oracle(vec, dims, slots) -> np.ndarray:
    """``vec``'s coefficients across slots|rest, copied entry by entry: the row
    index runs over ``slots`` in the given order, the column index over the
    other slots in layout order."""
    slots = (slots,) if isinstance(slots, int) else tuple(slots)
    dims = tuple(dims)
    rest = [s for s in range(len(dims)) if s not in slots]
    vec = np.asarray(vec, dtype=complex).ravel()
    out = np.zeros((math.prod(dims[s] for s in slots), math.prod(dims[s] for s in rest)),
                   dtype=complex)
    for idx in itertools.product(*[range(d) for d in dims]):
        row = col = flat = 0
        for s in slots:
            row = row * dims[s] + idx[s]
        for s in rest:
            col = col * dims[s] + idx[s]
        for s, d in enumerate(dims):
            flat = flat * d + idx[s]
        out[row, col] = vec[flat]
    return out


def expectation(a: np.ndarray, psi: np.ndarray) -> complex:
    """(psi, A psi) by a plain matrix product."""
    return complex(np.vdot(psi, a @ psi))


def bell_oracle(a1, a2, b1, b2, dims) -> np.ndarray:
    """R = A1 (B1 + B2) + A2 (B1 - B2) on the whole layout, from index-by-index
    embeddings of the four factors (A's on slot 0, B's on slot 1)."""
    e1, e2, f1, f2 = (embed_oracle(m, slot, dims)
                      for m, slot in ((a1, 0), (a2, 0), (b1, 1), (b2, 1)))
    return e1 @ (f1 + f2) + e2 @ (f1 - f2)


def span_dimension(omega: np.ndarray, dims, slots) -> int:
    """Dimension of span{embed(E_ab) omega} over the matrix-unit basis."""
    slots = (slots,) if isinstance(slots, int) else tuple(slots)
    d = math.prod(dims[s] for s in slots)
    vectors = []
    for e in matrix_units(d):
        vectors.append(embed_oracle(e, slots, dims) @ omega)
    return int(np.linalg.matrix_rank(np.column_stack(vectors), tol=1e-9))


def normal_equations_solve(psi: np.ndarray, omega: np.ndarray, dims, slots):
    """Least-squares preimage via explicit normal equations.

    Returns (c_matrix, residual) for min_C ||embed(C) omega - psi||; the
    Gram over the matrix units is invertible where omega is separating for
    the region.
    """
    slots = (slots,) if isinstance(slots, int) else tuple(slots)
    d = math.prod(dims[s] for s in slots)
    cols = [embed_oracle(e, slots, dims) @ omega for e in matrix_units(d)]
    m = np.column_stack(cols)
    gram = m.conj().T @ m
    rhs = m.conj().T @ psi
    coeff = np.linalg.solve(gram, rhs)
    c = coeff.reshape(d, d)
    residual = float(np.linalg.norm(m @ coeff - psi))
    return c, residual


def qubit_angle_grid_bell(state: np.ndarray, n_angles: int = 48) -> float:
    """Best (1/2) <R> over qubit settings cos(t) Z + sin(t) X on each side.

    Brute-force grid over the four angles; exact enough to certify the
    classical ceiling for product states and sqrt(2) for the Bell state.
    """
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    paulis = [z, x]
    state = np.asarray(state, dtype=complex).ravel()
    t = np.zeros((2, 2))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            op = np.kron(si, sj)
            t[i, j] = float(np.vdot(state, op @ state).real)
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    u = np.column_stack([np.cos(angles), np.sin(angles)])  # (n, 2)
    corr = u @ t @ u.T  # corr[a, b] = <A(a) B(b)>
    best = -np.inf
    for ia1 in range(n_angles):
        for ia2 in range(n_angles):
            val = 0.5 * np.max(
                corr[ia1][None, :] + corr[ia1][:, None]
                + corr[ia2][None, :] - corr[ia2][:, None]
            )
            best = max(best, float(val))
    return best


def tsirelson_sweep_reference(dims, seed: int, samples: int = 100) -> tuple[float, float]:
    """Min and max Tsirelson margin of tsirelson-sweep's settings, one setting
    at a time: the ranks of every A1, A2, B1, B2 are drawn first, in one call;
    A1 and B1 are 2E - 1 for the dense coordinate projectors E of their ranks.
    A2 and B2, in that order, continue the same stream with a d x (d // 2)
    complex Gaussian each (real block, then imaginary), and are 2P - 1 for the
    dense projector P onto the Haar frame of its first min(k, d - k) columns,
    k the drawn rank: where 2k > d, that P is 1 minus a Haar projector of rank k,
    whose reflection has the opposite sign and the same commutator norm."""
    layout = RegionLayout(tuple(dims))
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, np.repeat(layout.dims, 2) + 1, size=(samples, 4))

    def coordinate(slot, rank):
        e = np.diag((np.arange(layout.dims[slot]) < rank).astype(complex))
        return LocalOperator(slot, 2.0 * e - np.eye(layout.dims[slot]))

    def haar(slot, rank):
        d = layout.dims[slot]
        g = rng.standard_normal((2, d, d // 2))
        q = haar_unitary((g[0] + 1j * g[1])[:, :min(rank, d - rank)])
        return LocalOperator(slot, 2.0 * q @ q.conj().T - np.eye(d))

    margins = []
    for r in ranks:
        s = BellSettings(a1=coordinate(0, r[0]), a2=haar(0, r[1]),
                         b1=coordinate(1, r[2]), b2=haar(1, r[3]))
        margins.append(tsirelson_certificate(s))
    return min(margins), max(margins)


def reflection_commutator_oracle(u: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """||[2 P1 - 1, 2 P2 - 1]|| for each pair of a stack ``u`` (n, 2, d, k), P_j
    projecting onto the first ``ranks[i, j]`` columns of ``u[i, j]``, from the
    dense reflections and an SVD."""
    norms = []
    for frames, kept in zip(u, ranks):
        x1, x2 = (2.0 * q[:, :k] @ q[:, :k].conj().T - np.eye(len(q))
                  for q, k in zip(frames, kept))
        norms.append(operator_norm_oracle(x1 @ x2 - x2 @ x1))
    return np.array(norms)


def _dense_sign(g: np.ndarray) -> np.ndarray:
    """sign(G) via eigendecomposition; zero eigenvalues map to +1."""
    w, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
    s = np.where(w < 0.0, -1.0, 1.0)
    return (vecs * s) @ vecs.conj().T


def seesaw_oracle(state, layout, seed: int):
    """The see-saw on full d x d matrices, with the library's random stream:
    each draw's r x r starts (r the Schmidt rank) are lifted to d x d as
    U a U^† + (1 - U U^†), with U from this function's own SVD, then iterated
    by four d x d eigendecompositions and the objective from d x d products.
    Returns the lifted d x d settings (BellSettings) and the best value."""
    state = np.asarray(state, dtype=complex).ravel()
    d1, d2 = layout.dims
    psi_mat = state.reshape(d1, d2)
    u, s, wh = np.linalg.svd(psi_mat, full_matrices=False)
    r = int(np.sum(s > SCHMIDT_RANK_TOL))
    u, w = u[:, :r], wh[:r].conj().T
    rng = np.random.default_rng(seed)

    def lift(v, h):  # sign(h) on ran V, +1 on its complement
        p = v @ v.conj().T
        return v @ _dense_sign(h) @ v.conj().T + np.eye(len(p)) - p

    def objective(a1, a2, b1, b2) -> float:
        val = np.trace(a1 @ psi_mat @ (b1 + b2).T @ psi_mat.conj().T)
        val += np.trace(a2 @ psi_mat @ (b1 - b2).T @ psi_mat.conj().T)
        return 0.5 * float(val.real)

    for _ in range(SEESAW_DRAWS):
        b1 = lift(w, random_hermitian(r, rng)).T
        b2 = lift(w, random_hermitian(r, rng)).T
        a1 = lift(u, random_hermitian(r, rng))
        a2 = lift(u, random_hermitian(r, rng))
        best = objective(a1, a2, b1, b2)
        for _ in range(SEESAW_ITERS):
            a1 = _dense_sign(psi_mat @ (b1 + b2).T @ psi_mat.conj().T)
            a2 = _dense_sign(psi_mat @ (b1 - b2).T @ psi_mat.conj().T)
            h1 = (psi_mat.conj().T @ a1 @ psi_mat).T
            h2 = (psi_mat.conj().T @ a2 @ psi_mat).T
            b1 = _dense_sign(h1 + h2)
            b2 = _dense_sign(h1 - h2)
            current = objective(a1, a2, b1, b2)
            if current - best < SEESAW_TOL:
                best = max(best, current)
                break
            best = current
        if np.linalg.norm((a1 @ a2 - a2 @ a1) @ psi_mat) > NOISE_TOL:
            break
    settings = BellSettings(
        a1=LocalOperator(0, a1), a2=LocalOperator(0, a2),
        b1=LocalOperator(1, b1), b2=LocalOperator(1, b2),
    )
    return settings, best


def seesaw_starts_loop(s: np.ndarray, seeds) -> list:
    """``seesaw_starts`` one start after another: each draw's four r x r starts
    from four ``random_hermitian`` calls, and each start iterated on its own."""
    r = len(s)

    def sums(x):  # S (x1 + x2) S and S (x1 - x2) S
        return s[:, None] * np.stack((x[0] + x[1], x[0] - x[1])) * s

    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(SEESAW_DRAWS):
            x = _sign_contraction(np.stack([random_hermitian(r, rng) for _ in range(4)]))
            g, a = sums(x[:2]), x[2:]
            best = 0.5 * np.vdot(a, g).real
            for _ in range(SEESAW_ITERS):
                a = _sign_contraction(g)
                t = _sign_contraction(sums(a))
                g = sums(t)
                current = 0.5 * np.vdot(a, g).real
                if current - best < SEESAW_TOL:
                    best = max(best, current)
                    break
                best = current
            if frobenius((a[0] @ a[1] - a[1] @ a[0]) * s) > NOISE_TOL:
                break
        herm = hermitian_contractions(np.concatenate((a, t)), ("A1", "A2", "B1", "B2"))
        out.append((float(best), herm[:2], herm[2:]))
    return out


def _format_float_reference(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return f"{x:.17g}"


def canonical_json_reference(value) -> str:
    """The report writer, one node and one float at a time: sorted keys,
    floats at 17 significant digits, and an ndarray as (rows of) complex
    ``[re, im]`` pairs, each array written in full wherever it appears."""
    if isinstance(value, np.ndarray):
        if value.ndim != 1:
            return "[" + ",".join(canonical_json_reference(row) for row in value) + "]"
        re_im = np.ascontiguousarray(value, complex).view(float).tolist()
        cells = [_format_float_reference(x) for x in re_im]
        return "[" + ",".join(f"[{re},{im}]" for re, im in zip(cells[::2], cells[1::2])) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        body = ",".join(f"{json.dumps(str(k))}:{canonical_json_reference(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json_reference(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float_reference(float(value))
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def off_maximal_vacuum(d: int, s_min: float) -> VacuumModel:
    """sum_k s_k e_k (x) e_k / ||s|| on ``d,d`` with s_k = s_min^(k / (d - 1)): Schmidt
    coefficients falling geometrically from 1 to s_min, through VacuumModel.from_vector."""
    s = s_min ** (np.arange(d) / (d - 1))
    return VacuumModel.from_vector(RegionLayout((d, d)), (np.diag(s) / np.linalg.norm(s)).ravel())


def off_maximal_vacuum_3slot(d1: int, d2: int, s_min: float, seed: int = 0) -> VacuumModel:
    """sum_k s_k u_k (x) f_k / ||s|| on ``d1,d2,d1 d2``, with s_k = s_min^(k / (n - 1))
    over n = d1 d2 and u_k, f_k the columns of two Haar unitaries, on slots (0, 1) and on
    slot 2: ``off_maximal_vacuum``'s Schmidt coefficients across 2|(0,1), through
    VacuumModel.from_vector.  The u_k are a Haar basis rather than the product basis
    |ij>: with |ij>, the Gram matrix across that cut would be real and diagonal, and
    a solve on it could not tell G from conj(G)."""
    n = d1 * d2
    rng = np.random.default_rng(seed)
    s = s_min ** (np.arange(n) / (n - 1))
    u, f = (haar_unitary(complex_gaussian(n, rng)) for _ in range(2))
    return VacuumModel.from_vector(RegionLayout((d1, d2, n)),
                                   ((u * s) @ f.T / np.linalg.norm(s)).ravel())


def cli_env() -> dict:
    """This process's environment with this checkout's src/ first on PYTHONPATH, so a
    subprocess imports the package from it ahead of any installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m vacuumcorr ARGS`` in a subprocess, with ``cli_env()``."""
    return subprocess.run(
        [sys.executable, "-m", "vacuumcorr", *args], capture_output=True, text=True, env=cli_env()
    )
