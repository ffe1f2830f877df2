"""Scenario runner with deterministic machine-readable reports.

Each scenario exercises one verified result on a configured layout/seed
and records every comparison as an assertion carrying both numbers.  A
report's certificate objects are the library's result dataclasses
(``RootCertificate``, ``BellReport``, ``EPRReport``, ...) written field by
field, with complex arrays as lists of ``[re, im]`` pairs.  Serialized
reports are byte-stable for identical configs: keys are sorted, floats
are printed with 17 significant digits, and wall-clock timings are kept
on the in-memory report only (opt-in for emission, since they are the
one non-deterministic ingredient).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from .correlations import (
    SQRT2,
    BellReport,
    bell_correlation,
    canonical_max_violation,
    epr_projector_pair,
    hermitian_contractions,
    reflections,
    seesaw_maximize,
    tsirelson_certificate,
    tsirelson_margins,
    violate_conditional_bell,
)
from .linalg import (
    PROJECTOR_FLOOR,
    SCHMIDT_RANK_TOL,
    complex_gaussian,
    haar_unitary,
    projector,
    random_hermitian,
)
from .local_algebra import (
    LocalOperator,
    RegionLayout,
    VacuumModel,
    make_vacuum,
    random_projector,
    vacuum_positivity,
)
from .root_theorem import BUDGET_TOL, WEIGHTS_TOL, RootCertificate, prove_root_certificate

# Two floating-point evaluations of one number: the canonical correlation and
# sqrt(2); the conditional correlation recomputed from P3 omega and the pipeline's.
RECOMPUTE_TOL = 1e-9
# The see-saw's settings are contractions only up to eigh rounding.
SEESAW_CEILING = 1e-7
# A see-saw run stops once an iteration gains less than SEESAW_TOL.
SEESAW_SHORTFALL = 1e-6
# tsirelson-sweep draws TSIRELSON_SAMPLES settings and takes them in chunks
# small enough that no (settings, 2, d, d) complex stack exceeds
# SWEEP_STACK_BYTES: one stack of all of them raises peak memory at large d.
TSIRELSON_SAMPLES = 100
SWEEP_STACK_BYTES = 64 * 1024


class ConfigError(ValueError):
    """Invalid scenario configuration; names the offending field."""

    def __init__(self, config_field: str, message: str):
        self.field = config_field
        super().__init__(f"config field '{config_field}': {message}")


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _positive_number(name: str, x) -> float:
    """``x`` as a float, or ConfigError unless it is a finite number > 0."""
    if (_is_integer(x) or isinstance(x, float)) and math.isfinite(x) and x > 0:
        return float(x)
    raise ConfigError(name, f"expected a finite positive number, got {x!r}")


@dataclass(frozen=True)
class Tolerances:
    """The tolerances a run uses: Schmidt-rank cutoff (reeh-schlieder),
    slack on the Tsirelson margin, and slack on each budget assertion."""

    schmidt_rank: float = SCHMIDT_RANK_TOL
    tsirelson_slack: float = 1e-9
    budget_check: float = BUDGET_TOL

    def __post_init__(self):
        for f in fields(self):
            value = _positive_number(f"tolerances.{f.name}", getattr(self, f.name))
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    layout: tuple[int, ...]
    seed: int
    eps: float
    sweep: Optional[tuple[float, ...]] = None
    tolerances: Tolerances = Tolerances()

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                "scenario", f"{self.scenario!r} is not one of {', '.join(SCENARIOS)}"
            )
        if not (isinstance(self.layout, (list, tuple))
                and all(_is_integer(d) for d in self.layout)):
            raise ConfigError("layout", f"expected a list of integers, got {self.layout!r}")
        try:
            layout = RegionLayout(tuple(self.layout))
        except ValueError as exc:
            raise ConfigError("layout", str(exc)) from exc
        object.__setattr__(self, "layout", layout.dims)
        d = layout.dims
        if self.scenario == "cond-bell":
            if len(d) != 3 or d[2] != d[0] * d[1]:
                raise ConfigError(
                    "layout", f"cond-bell needs d3 = d1*d2 on 3 slots, got {d}"
                )
        elif self.scenario == "reeh-schlieder":
            if len(d) == 3 and d[2] != d[0] * d[1]:
                raise ConfigError(
                    "layout", f"3-slot vacuum needs d3 = d1*d2, got {d}"
                )
        elif len(d) != 2:
            raise ConfigError(
                "layout", f"scenario {self.scenario} runs on 2-slot layouts, got {d}"
            )
        if (self.scenario in ("reeh-schlieder", "root-cert", "epr")
                and len(d) == 2 and d[0] != d[1]):
            # These scenarios build a vacuum, which needs matching dims.
            raise ConfigError("layout", f"2-slot vacuum needs d1 = d2, got {d}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ConfigError("seed", f"expected a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "eps", _positive_number("eps", self.eps))
        if self.sweep is not None:
            if not isinstance(self.sweep, (list, tuple)):
                raise ConfigError("sweep", f"expected a list of numbers, got {self.sweep!r}")
            sweep = tuple(_positive_number("sweep", e) for e in self.sweep)
            if not sweep:
                raise ConfigError("sweep", "sweep list must be non-empty")
            if any(b >= a for a, b in zip(sweep, sweep[1:])):
                raise ConfigError("sweep", f"entries must be strictly decreasing: {sweep}")
            object.__setattr__(self, "sweep", sweep)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        allowed = {"scenario", "layout", "seed", "eps", "sweep", "tolerances"}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown config field")
        for name in ("scenario", "layout"):
            if name not in data:
                raise ConfigError(name, "missing")
        tolerances = data.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ConfigError("tolerances", f"expected an object, got {tolerances!r}")
        unknown = set(tolerances) - {f.name for f in fields(Tolerances)}
        if unknown:
            raise ConfigError("tolerances", f"unknown names: {sorted(unknown)}")
        return cls(
            scenario=data["scenario"],
            layout=data["layout"],
            seed=data.get("seed", 0),
            eps=data.get("eps", 0.01),
            sweep=data.get("sweep"),
            tolerances=Tolerances(**tolerances),
        )

    def region_layout(self) -> RegionLayout:
        return RegionLayout(self.layout)


@dataclass
class RunReport:
    """Assertions plus the certificate objects they were checked on.

    ``certificates`` and ``to_payload()`` hold the result dataclasses as
    plain dicts of their fields; matrix and vector leaves stay complex
    ndarrays until ``canonical_json`` writes them as ``[re, im]`` pairs.
    """

    config: ScenarioConfig
    assertions: list[dict]
    certificates: dict
    timings: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def to_payload(self, include_timings: bool = False) -> dict:
        return {
            "schema": 1,
            "config": _plain(self.config),
            "assertions": self.assertions,
            "certificates": self.certificates,
            "timings": dict(self.timings) if include_timings else {},
        }


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


def _record(assertions: list, name: str, lhs: float, op: str, rhs: float) -> bool:
    passed = bool(_OPS[op](lhs, rhs))
    assertions.append(
        {"name": name, "lhs": float(lhs), "op": op, "rhs": float(rhs), "passed": passed}
    )
    return passed


def _plain(value):
    """Dataclasses as dicts of their fields and tuples as lists, recursively;
    ndarray leaves are kept as they are."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# scenarios

def _random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def _certified_regions(layout: RegionLayout):
    regions = [(s,) for s in range(layout.n_slots)]
    if layout.n_slots == 3:
        regions.append((0, 1))
    return regions


def _scenario_reeh_schlieder(cfg: ScenarioConfig) -> tuple[list, dict]:
    layout = cfg.region_layout()
    v = make_vacuum(layout, cfg.seed)
    rank_tol = cfg.tolerances.schmidt_rank
    assertions: list = []
    ranks = {}
    for region in _certified_regions(layout):
        rank = v.schmidt_rank(region, rank_tol)
        name = "+".join(str(s) for s in region)
        ranks[name] = rank
        _record(assertions, f"separating_rank_slot_{name}", rank, "==",
                layout.region_dim(region))
        comp_dim = layout.region_dim(layout.complement(region))
        if layout.region_dim(region) == comp_dim:
            # Cyclicity is attainable exactly when the region matches its
            # complement in dimension.
            _record(assertions, f"cyclic_rank_slot_{name}", rank, "==", comp_dim)
    for slot in range(layout.n_slots):
        proj = random_projector(layout, slot, 1, cfg.seed + slot)
        val = vacuum_positivity(v, proj)
        _record(assertions, f"vacuum_positivity_slot_{slot}", val, ">", 0.0)
    # The explicit annihilator counterexample: a product state is not
    # separating for any slot.
    product = np.zeros(layout.total_dim, dtype=complex)
    product[0] = 1.0
    counter = VacuumModel.from_vector(layout, product)
    rank = counter.schmidt_rank((0,), rank_tol)
    _record(assertions, "product_state_rank_deficit", rank, "<", layout.dims[0])
    return assertions, {"certified_ranks": ranks}


def _root_cert(cfg: ScenarioConfig, eps: float) -> tuple[list, RootCertificate]:
    layout = cfg.region_layout()
    v = make_vacuum(layout, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    a = LocalOperator(1, random_hermitian(layout.dims[1], rng))
    psi = _random_state(layout.total_dim, rng)
    cert = prove_root_certificate(a, psi, v, (0,), eps)
    assertions: list = []
    _record(assertions, "root_max_inequality", cert.lhs_max, ">", cert.rhs_max)
    _record(assertions, "root_min_inequality", cert.lhs_min, "<", cert.rhs_min)
    _record(assertions, "weights_sum", abs(sum(cert.weights) - 1.0), "<=", WEIGHTS_TOL)
    bounds = {
        "cyclic_residual": cert.budget.eps1,
        "normalized_error": cert.budget.eps2,
        "window_error": cert.budget.eps3,
        "decomposition_residual": cert.budget.eps4_tilde,
        "rescale_error": cert.budget.eps4,
        "combined_error": cert.budget.eps5,
    }
    for name, bound in bounds.items():
        _record(assertions, f"budget_{name}", cert.achieved[name], "<=",
                bound + cfg.tolerances.budget_check)
    return assertions, cert


def _scenario_root_cert(cfg: ScenarioConfig) -> tuple[list, dict]:
    assertions, cert = _root_cert(cfg, cfg.eps)
    return assertions, {"root_certificate": _plain(cert)}


def _scenario_epr(cfg: ScenarioConfig) -> tuple[list, dict]:
    layout = cfg.region_layout()
    v = make_vacuum(layout, cfg.seed)
    p2 = random_projector(layout, 1, 1, cfg.seed)
    _, report = epr_projector_pair(p2, v.omega, v, cfg.eps)
    assertions: list = []
    # <P1 P2> <= <P1> is exact (P1 P2 <= P1 as operators); compare the
    # difference against the floating-point noise floor.
    _record(assertions, "epr_upper",
            report.joint_expect - report.p1_expect, "<=", PROJECTOR_FLOOR)
    _record(assertions, "epr_lower_strict", report.joint_expect, ">", report.lower_bound)
    _record(assertions, "p1_vacuum_positivity", report.p1_expect, ">", 0.0)
    return assertions, {"epr": _plain(report)}


def _scenario_bell_max(cfg: ScenarioConfig) -> tuple[list, dict]:
    layout = cfg.region_layout()
    state, settings = canonical_max_violation(layout)
    value = bell_correlation(settings, state, layout)
    assertions: list = []
    _record(assertions, "canonical_upper", value, "<=", SQRT2 + RECOMPUTE_TOL)
    _record(assertions, "canonical_lower", value, ">=", SQRT2 - RECOMPUTE_TOL)
    best = -math.inf
    n_starts = 5
    for k in range(n_starts):
        _, beta = seesaw_maximize(state, layout, cfg.seed + k)
        _record(assertions, f"seesaw_ceiling_start_{k}", beta, "<=", SQRT2 + SEESAW_CEILING)
        best = max(best, beta)
    _record(assertions, "seesaw_best", best, ">=", SQRT2 - SEESAW_SHORTFALL)
    margin = tsirelson_certificate(settings, layout)
    _record(assertions, "tsirelson_margin", margin, ">=", -cfg.tolerances.tsirelson_slack)
    report = BellReport(settings=settings, state=state, correlation=value, tsirelson_margin=margin)
    return assertions, {"bell": _plain(report)}


def _random_contractions(ranks: np.ndarray, gaussians: np.ndarray, names) -> np.ndarray:
    """2P - 1 for a stack (n, 2, d, d) of complex Gaussian matrices, as
    ``hermitian_contractions`` returns it: P projects onto the first
    ``ranks[i, k]`` columns of the Haar unitary made from ``gaussians[i, k]``."""
    u = haar_unitary(gaussians)
    p = np.empty_like(u)
    for rank in set(ranks.flat):
        # B B^† with exactly ``rank`` columns: zero-padded columns would
        # change BLAS's summation and so the last bits of P.
        keep = ranks == rank
        p[keep] = projector(u[keep][..., :rank])
    return hermitian_contractions(reflections(p), names)


def _scenario_tsirelson_sweep(cfg: ScenarioConfig) -> tuple[list, dict]:
    layout = cfg.region_layout()
    rng = np.random.default_rng(cfg.seed)
    slack = cfg.tolerances.tsirelson_slack
    dims = layout.dims
    chunk = max(1, SWEEP_STACK_BYTES // (2 * max(dims) ** 2 * np.dtype(complex).itemsize))
    margins = []
    for start in range(0, TSIRELSON_SAMPLES, chunk):
        n = min(chunk, TSIRELSON_SAMPLES - start)
        ranks = np.empty((n, 4), dtype=int)
        gaussians = [np.empty((n, 2, d, d), dtype=complex) for d in dims]
        for i in range(n):
            for k in range(4):  # A1, A2 on slot 0; B1, B2 on slot 1
                d = dims[k // 2]
                ranks[i, k] = rng.integers(1, d + 1)
                gaussians[k // 2][i, k % 2] = complex_gaussian(d, rng)
        a = _random_contractions(ranks[:, :2], gaussians[0], ("A1", "A2"))
        b = _random_contractions(ranks[:, 2:], gaussians[1], ("B1", "B2"))
        margins.append(tsirelson_margins(a, b, layout))
    margins = np.concatenate(margins)
    lo, hi = float(margins.min()), float(margins.max())
    assertions: list = []
    _record(assertions, "tsirelson_min_margin", lo, ">=", -slack)
    _record(assertions, "tsirelson_samples", len(margins), "==", TSIRELSON_SAMPLES)
    return assertions, {"margins": {"min": lo, "max": hi}}


def _scenario_cond_bell(cfg: ScenarioConfig) -> tuple[list, dict]:
    layout = cfg.region_layout()
    v = make_vacuum(layout, cfg.seed)
    report = violate_conditional_bell(layout, v, cfg.eps)
    cond = report.conditional
    assertions: list = []
    _record(assertions, "conditional_violation", cond.conditional_correlation,
            ">", SQRT2 - cfg.eps)
    # Independent of the pipeline: (1/2) <R> in the state P3 omega / ||P3 omega||.
    p3_omega = cond.p3.apply(v.omega, layout)
    recomputed = bell_correlation(report.settings, p3_omega / np.linalg.norm(p3_omega), layout)
    _record(assertions, "conditional_recompute",
            abs(recomputed - cond.conditional_correlation), "<=", RECOMPUTE_TOL)
    _record(assertions, "tsirelson_margin", report.tsirelson_margin, ">=",
            -cfg.tolerances.tsirelson_slack)
    return assertions, {"bell": _plain(report)}


_SCENARIO_TABLE = {
    "reeh-schlieder": _scenario_reeh_schlieder,
    "root-cert": _scenario_root_cert,
    "epr": _scenario_epr,
    "bell-max": _scenario_bell_max,
    "tsirelson-sweep": _scenario_tsirelson_sweep,
    "cond-bell": _scenario_cond_bell,
}
SCENARIOS = tuple(_SCENARIO_TABLE)


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    start = time.perf_counter()
    assertions, certificates = _SCENARIO_TABLE[cfg.scenario](cfg)
    timings = {"total_seconds": time.perf_counter() - start}
    return RunReport(cfg, assertions, certificates, timings)


# ---------------------------------------------------------------------------
# sweeps

SWEEP_COLUMNS = (
    "eps",
    "eps1", "eps2", "eps3", "eps4", "eps5",
    "cyclic_residual", "normalized_error", "window_error",
    "decomposition_residual", "rescale_error", "combined_error",
    "slack_max", "slack_min",
    "passed",
)


@dataclass
class SweepTable:
    config: ScenarioConfig
    rows: list[dict]

    @property
    def passed(self) -> bool:
        return all(r["passed"] for r in self.rows)

    def to_payload(self, include_timings: bool = False) -> dict:
        return {
            "schema": 1,
            "config": _plain(self.config),
            "columns": list(SWEEP_COLUMNS),
            "rows": self.rows,
        }


def sweep_eps(cfg: ScenarioConfig) -> SweepTable:
    """One root-cert pipeline run per sweep eps, in the given order."""
    if cfg.scenario != "root-cert":
        raise ConfigError("scenario", f"sweeps support root-cert only, got {cfg.scenario!r}")
    if not cfg.sweep:
        raise ConfigError("sweep", "missing eps list")
    rows = []
    for eps in cfg.sweep:
        assertions, cert = _root_cert(cfg, eps)
        row = {
            "eps": eps,
            **{name: getattr(cert.budget, name) for name in SWEEP_COLUMNS[1:6]},
            **cert.achieved,
            "slack_max": cert.lhs_max - cert.rhs_max,
            "slack_min": cert.rhs_min - cert.lhs_min,
            "passed": all(a["passed"] for a in assertions),
        }
        rows.append(row)
    return SweepTable(cfg, rows)


# ---------------------------------------------------------------------------
# deterministic serialization

def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return f"{x:.17g}"


def canonical_json(value) -> str:
    """JSON with sorted keys and floats at 17 significant digits; an
    ndarray is written as (rows of) complex ``[re, im]`` pairs."""
    if isinstance(value, np.ndarray):
        if value.ndim != 1:
            return "[" + ",".join(canonical_json(row) for row in value) + "]"
        re_im = np.ascontiguousarray(value, complex).view(float).tolist()
        cells = [_format_float(x) for x in re_im]
        return "[" + ",".join(f"[{re},{im}]" for re, im in zip(cells[::2], cells[1::2])) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        body = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    return str(value)


def _report_csv(report: RunReport) -> str:
    lines = ["name,lhs,op,rhs,passed"]
    for a in report.assertions:
        lines.append(",".join([
            a["name"], _csv_cell(a["lhs"]), f'"{a["op"]}"',
            _csv_cell(a["rhs"]), _csv_cell(a["passed"]),
        ]))
    return "\n".join(lines) + "\n"


def _sweep_csv(table: SweepTable) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in table.rows:
        lines.append(",".join(_csv_cell(row[c]) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def render_report(report, fmt: str, include_timings: bool = False) -> str:
    if fmt == "json":
        return canonical_json(report.to_payload(include_timings=include_timings)) + "\n"
    if fmt == "csv":
        if isinstance(report, SweepTable):
            return _sweep_csv(report)
        return _report_csv(report)
    raise ValueError(f"unknown format {fmt!r} (expected json or csv)")


def emit_report(report, fmt: str, path, include_timings: bool = False) -> None:
    """Write a report; byte-identical output for identical inputs."""
    text = render_report(report, fmt, include_timings=include_timings)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
