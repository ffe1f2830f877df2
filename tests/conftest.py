"""Shared independent oracles for the test suite.

These deliberately avoid the library code paths they check: eigenvalues
come from characteristic-polynomial roots, span dimensions from explicit
matrix-unit orbits, least-squares residuals from normal equations, and
Bell ceilings from a grid over qubit measurement angles.  The Tsirelson
sweep's reference takes its settings one at a time through the single-setting
API.  ``run_cli`` runs the command line on this checkout's sources.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from vacuumcorr.correlations import BellSettings, contraction_from_projector, tsirelson_certificate
from vacuumcorr.local_algebra import RegionLayout, random_projector

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

    Returns (c_matrix, residual) for min_C ||embed(C) omega - psi||.
    """
    slots = (slots,) if isinstance(slots, int) else tuple(slots)
    d = math.prod(dims[s] for s in slots)
    cols = [embed_oracle(e, slots, dims) @ omega for e in matrix_units(d)]
    m = np.column_stack(cols)
    gram = m.conj().T @ m
    rhs = m.conj().T @ psi
    coeff = np.linalg.solve(gram + 1e-14 * np.eye(d * d), rhs)
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
    at a time: each of A1, A2, B1, B2 draws a rank, then a random projector
    of that rank continuing the same stream, and becomes 2P - 1."""
    layout = RegionLayout(tuple(dims))
    rng = np.random.default_rng(seed)

    def contraction(slot):
        rank = int(rng.integers(1, layout.dims[slot] + 1))
        return contraction_from_projector(random_projector(layout, slot, rank, rng))

    margins = []
    for _ in range(samples):
        s = BellSettings(a1=contraction(0), a2=contraction(0), b1=contraction(1), b2=contraction(1))
        margins.append(tsirelson_certificate(s, layout))
    return min(margins), max(margins)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m vacuumcorr ARGS`` in a subprocess, importing the package
    from this checkout's src/ ahead of any installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "vacuumcorr", *args], capture_output=True, text=True, env=env
    )
