"""Independent recheck of the claims a JSON report carries enough data for.

The code here is the benchmark's own dense numpy (``np.kron`` embeddings,
``eigvalsh`` norms) and calls nothing in vacuumcorr.  Each value is
checked against the claim's own bound, or against its recomputation to
within ``NOISE``, never against stored report bytes, so a later change of
numerics that keeps every claim true still passes.

Facts of the model used here, from the paper's setup:

* the 2-slot vacuum is the maximally entangled vector sum_k e_k (x) e_k
  / sqrt(d), so <X (x) 1>_omega = tr(X) / d;
* the 3-slot vacuum sum_ij |ij> (x) f_ij / sqrt(d1 d2) with {f_ij} an
  orthonormal basis of slot 2 has the maximally mixed reduced state on
  slot 2, so <1 (x) 1 (x) Y>_omega = tr(Y) / d3.
"""

from __future__ import annotations

import json
import math
import operator

import numpy as np

SQRT2 = math.sqrt(2.0)
NOISE = 1e-9  # slack for a value recomputed in another order of operations

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


def _matrix(payload) -> np.ndarray:
    a = np.asarray(payload, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _embed(m: np.ndarray, slot: int, dims) -> np.ndarray:
    out = np.eye(1)
    for i, d in enumerate(dims):
        out = np.kron(out, m if i == slot else np.eye(d))
    return out


def _bell_operator(settings) -> np.ndarray:
    a1, a2, b1, b2 = (_matrix(settings[k]["matrix"]) for k in ("a1", "a2", "b1", "b2"))
    return np.kron(a1, b1 + b2) + np.kron(a2, b1 - b2)


def _norm(h: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


class _Checker:
    def __init__(self):
        self.problems: list[str] = []

    def check(self, ok: bool, what: str, *values) -> None:
        if not ok:
            self.problems.append(f"{what}: {values}")

    def close(self, got: float, want: float, what: str) -> None:
        self.check(abs(got - want) <= NOISE * max(1.0, abs(want)), what, got, want)

    def projector(self, p: np.ndarray, what: str) -> None:
        self.check(np.linalg.norm(p - p.conj().T, 2) <= NOISE, f"{what} is not Hermitian")
        self.check(np.linalg.norm(p @ p - p, 2) <= NOISE, f"{what} is not idempotent")
        self.check(np.trace(p).real >= 1 - NOISE, f"{what} is zero")

    def certificate(self, cert: dict, eps: float, region_dim: int) -> None:
        """The eps1..eps5 chain, the stage errors against their bounds and
        both root inequalities.  The vacuum is maximally mixed on the
        projectors' region, so <P>_omega = tr(P) / region_dim."""
        b = cert["budget"]
        self.close(b["eps2"], 2 * b["eps1"] / (1 - b["eps1"]), "eps2 chain")
        self.close(b["eps3"], (b["eps2"] ** 2 + 2 * b["eps2"]) * b["norm_a"], "eps3 chain")
        self.close(b["eps4"], (b["q_norm"] + 1) * b["eps4_tilde"] / b["q_expect"], "eps4 chain")
        self.close(b["eps5"], b["eps3"] + b["norm_a"] * b["eps4"], "eps5 chain")
        self.check(0 < b["eps1"] < 1, "eps1 outside (0, 1)", b["eps1"])
        self.check(b["eps5"] <= eps * (1 + NOISE), "eps5 exceeds the requested eps", b["eps5"], eps)
        self.close(cert["requested_eps"], eps, "requested eps")
        achieved = cert["achieved"]
        for name, bound in (("cyclic_residual", b["eps1"]), ("normalized_error", b["eps2"]),
                            ("window_error", b["eps3"]),
                            ("decomposition_residual", b["eps4_tilde"]),
                            ("rescale_error", b["eps4"]), ("combined_error", b["eps5"])):
            self.check(achieved[name] <= bound + NOISE, f"{name} over its bound",
                       achieved[name], bound)
        self.check(cert["lhs_max"] > cert["rhs_max"], "max inequality",
                   cert["lhs_max"], cert["rhs_max"])
        self.check(cert["lhs_min"] < cert["rhs_min"], "min inequality",
                   cert["lhs_min"], cert["rhs_min"])
        self.check(abs(sum(cert["weights"]) - 1) <= NOISE, "weights do not sum to 1")
        k = cert["target_k"]
        for side, sign in (("max", -1.0), ("min", 1.0)):
            p = _matrix(cert[f"p_{side}"]["matrix"])
            self.projector(p, f"p_{side}")
            expect = float(np.trace(p).real) / region_dim
            self.close(cert[f"rhs_{side}"], (k + sign * eps) * expect, f"rhs_{side}")

    def bell(self, bell: dict, dims) -> None:
        """(1/2)<R> and the Tsirelson margin from the settings and state."""
        settings = bell["settings"]
        for key in ("a1", "a2", "b1", "b2"):
            m = _matrix(settings[key]["matrix"])
            self.check(np.linalg.norm(m - m.conj().T, 2) <= NOISE, f"{key} is not Hermitian")
            self.check(np.linalg.norm(m, 2) <= 1 + NOISE, f"{key} is not a contraction")
        r01 = _bell_operator(settings)
        rest = math.prod(dims[2:])
        state = _matrix(bell["state"])
        r = np.kron(r01, np.eye(rest))
        corr = 0.5 * float(np.vdot(state, r @ state).real)
        self.close(bell["correlation"], corr, "(1/2)<R>")
        self.check(abs(corr) <= SQRT2 + NOISE, "(1/2)<R> above sqrt(2)", corr)
        margin = SQRT2 - 0.5 * _norm(r01)
        self.close(bell["tsirelson_margin"], margin, "Tsirelson margin")
        self.check(margin >= -NOISE, "negative Tsirelson margin", margin)


def _check_assertions(c: _Checker, assertions: list) -> None:
    for a in assertions:
        c.check(a["passed"] and _OPS[a["op"]](a["lhs"], a["rhs"]),
                f"assertion {a['name']}", a["lhs"], a["op"], a["rhs"])


def _reeh_schlieder(c: _Checker, cfg: dict, certs: dict) -> None:
    dims = cfg["layout"]
    ranks = certs["certified_ranks"]
    regions = ["0", "1"] + (["2", "0+1"] if len(dims) == 3 else [])
    c.check(sorted(ranks) == sorted(regions), "certified regions", sorted(ranks))
    for region in regions:
        want = math.prod(dims[int(s)] for s in region.split("+"))
        c.check(ranks.get(region) == want, f"separating rank of {region}", ranks.get(region), want)


def _root_cert(c: _Checker, cfg: dict, certs: dict) -> None:
    c.certificate(certs["root_certificate"], cfg["eps"], cfg["layout"][0])


def _epr(c: _Checker, cfg: dict, certs: dict) -> None:
    epr = certs["epr"]
    dims = cfg["layout"]
    eps = cfg["eps"]
    p1 = _matrix(epr["p1"]["matrix"])
    p2 = _matrix(epr["p2"]["matrix"])
    c.projector(p1, "p1")
    c.projector(p2, "p2")
    omega = np.eye(dims[0]).ravel() / math.sqrt(dims[0])
    e1 = _embed(p1, epr["p1"]["slots"][0], dims)
    e2 = _embed(p2, epr["p2"]["slots"][0], dims)
    p1_expect = float(np.vdot(omega, e1 @ omega).real)
    joint = float(np.linalg.norm(e2 @ (e1 @ omega)) ** 2)
    c.check(joint <= p1_expect + NOISE, "<P1 P2> above <P1>", joint, p1_expect)
    c.check(joint > (1 - eps) * p1_expect, "<P1 P2> not above (1 - eps)<P1>", joint, p1_expect)
    c.close(epr["p1_expect"], p1_expect, "<P1>")
    c.close(epr["joint_expect"], joint, "<P1 P2>")
    c.certificate(epr["certificate"], eps, dims[0])


def _bell_max(c: _Checker, cfg: dict, certs: dict) -> None:
    bell = certs["bell"]
    c.bell(bell, cfg["layout"])
    c.check(bell["correlation"] >= SQRT2 - NOISE, "canonical settings miss sqrt(2)",
            bell["correlation"])


def _tsirelson_sweep(c: _Checker, cfg: dict, certs: dict) -> None:
    m = certs["margins"]
    c.check(-NOISE <= m["min"] <= m["max"] <= SQRT2, "margin range", m["min"], m["max"])


def _cond_bell(c: _Checker, cfg: dict, certs: dict) -> None:
    bell = certs["bell"]
    dims = cfg["layout"]
    eps = cfg["eps"]
    c.bell(bell, dims)
    cond = bell["conditional"]
    p3 = _matrix(cond["p3"]["matrix"])
    c.projector(p3, "p3")
    c.close(cond["p3_expect"], float(np.trace(p3).real) / dims[2], "<P3>")
    c.check(cond["conditional_correlation"] > SQRT2 - eps,
            "conditional correlation misses sqrt(2) - eps", cond["conditional_correlation"])
    c.check(cond["conditional_correlation"] <= SQRT2 + NOISE,
            "conditional correlation above sqrt(2)", cond["conditional_correlation"])
    c.certificate(cond["certificate"], 2 * eps, dims[2])


_SCENARIOS = {
    "reeh-schlieder": _reeh_schlieder,
    "root-cert": _root_cert,
    "epr": _epr,
    "bell-max": _bell_max,
    "tsirelson-sweep": _tsirelson_sweep,
    "cond-bell": _cond_bell,
}


def _sweep(c: _Checker, cfg: dict, rows: list) -> None:
    c.check([r["eps"] for r in rows] == cfg["sweep"], "sweep rows", len(rows))
    for row in rows:
        eps = row["eps"]
        c.close(row["eps2"], 2 * row["eps1"] / (1 - row["eps1"]), "eps2 chain")
        c.close(row["eps3"], eps / 2, "eps3 share")
        c.check(row["eps5"] <= eps * (1 + NOISE), "eps5 exceeds eps", row["eps5"], eps)
        for name, bound in (("cyclic_residual", "eps1"), ("normalized_error", "eps2"),
                            ("window_error", "eps3"), ("rescale_error", "eps4"),
                            ("combined_error", "eps5")):
            c.check(row[name] <= row[bound] + NOISE, f"{name} over {bound}", row[name])
        c.check(row["slack_max"] > 0 and row["slack_min"] > 0, "root inequality slack",
                row["slack_max"], row["slack_min"])
        c.check(row["passed"] is True, "row not passed", eps)


def recheck(text: str) -> list[str]:
    """The problems found in one JSON report; empty when every claim holds."""
    c = _Checker()
    try:
        payload = json.loads(text)
        cfg = payload["config"]
        if "rows" in payload:
            _sweep(c, cfg, payload["rows"])
        else:
            _check_assertions(c, payload["assertions"])
            c.check(bool(payload["assertions"]), "no assertions")
            _SCENARIOS[cfg["scenario"]](c, cfg, payload["certificates"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        c.problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return c.problems
