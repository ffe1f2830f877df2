"""Scenario runner with deterministic machine-readable reports.

Each scenario exercises one verified result on a configured layout/seed and records every
comparison as an assertion carrying both numbers.  A report's certificate objects are the
library's result dataclasses (``RootCertificate``, ``BellReport``, ...) written field by field,
with complex arrays as lists of ``[re, im]`` pairs, each formatted once.  ``%.17g`` takes about
400 ns on a random float, 86 ns on 0.0; ``%d`` of a 17-digit int 72 ns; a ``[0,0]`` cell 8 ns.
So an array under DENSE_FLOATS floats is one ``%.17g`` template; one over half [+0.0, +0.0]
(bell-max's settings, the Bell states) is ``[0,0]`` cells and a template for the rest; any other
(every projector) takes ``_digits``, the 17 digits of 1e-4 <= |x| < 1 as an exact int.  Reports
are byte-stable for identical configs: keys sorted, floats at 17 significant digits, and
wall-clock timings on the in-memory report only (opt-in for emission: they are the one
non-deterministic ingredient).
"""

from __future__ import annotations

import functools
import math
import operator
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .correlations import (
    SQRT2,
    BellReport,
    bell_correlation,
    canonical_max_violation,
    epr_projector_pair,
    reflection_commutator_norms,
    seesaw_starts,
    tsirelson_certificate,
    violate_conditional_bell,
)
from .linalg import (
    PROJECTOR_FLOOR,
    SCHMIDT_RANK_TOL,
    haar_unitary,
    random_hermitian,
    schmidt_values,
)
from .local_algebra import (
    LocalOperator,
    RegionLayout,
    VacuumModel,
    make_vacuum,
    random_projector,
    require_vacuum_layout,
    vacuum_positivity,
)
from .root_theorem import (
    BUDGET_TOL,
    STAGE_BOUNDS,
    WEIGHTS_TOL,
    RootCertificate,
    certify_root,
    prove_root_certificate,
    root_products,
)

# Two floating-point evaluations of one number: the canonical correlation and
# sqrt(2); the conditional correlation recomputed from P3 omega and the pipeline's.
RECOMPUTE_TOL = 1e-9
# The see-saw's settings are contractions only up to eigh rounding.
SEESAW_CEILING = 1e-7
# The best of the see-saw starts may fall this far short of sqrt(2).
SEESAW_SHORTFALL = 1e-6
# tsirelson-sweep draws its settings' ranks in one call, then one d x d // 2 Gaussian per
# side and setting (a side's first rank is E's; a second, k, reads as 1 - P, Haar of rank
# d - k, where 2k > d), one call per stack of as many settings (at least one) as d x d
# blocks fit in SWEEP_STACK_BYTES, so its d x d // 2 blocks stay within half of it.  Each
# stack has a fixed cost (a draw, two QRs, two eigvalsh calls) that a few settings do not
# amortize: 64 KiB split d = 8 into 4 stacks and took 1.5x the time of one.  At 1 MiB a
# stack's working set outgrows a 2 MiB L2 and d = 96..128 ran 13-19 % slower; one stack
# of all of them raises peak memory at large d.  A Generator fills its normals in order,
# so they depend on the seed only (the margins' last bits on the stacking too).
TSIRELSON_SAMPLES = 100
SWEEP_STACK_BYTES = 256 * 1024
# An array's text is joined into one chunk up to CHUNK_CHARS, below glibc's mmap
# threshold; one 3 MB string per matrix raised epr 256,256's peak RSS by 7 MB.
CHUNK_CHARS = 64 * 1024
# Below DENSE_FLOATS floats an array is one %.17g template: on a 2-vCPU Xeon the digit path
# passed it between 9 x 9 and 10 x 10 dense matrices (72 against 69 us, 78 against 90), and
# [0,0] cells near 8 x 8 zero-padded ones; a 2 x 2 matrix took 6 us as a template, 40 by digits.
DENSE_FLOATS = 200


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
            _, counts, builds_vacuum = _SCENARIO_TABLE[self.scenario]
            if layout.n_slots not in counts:
                raise ValueError(f"scenario {self.scenario} runs on "
                                 f"{'/'.join(map(str, counts))}-slot layouts, got {layout.dims}")
            if builds_vacuum:
                require_vacuum_layout(layout)
        except ValueError as exc:
            raise ConfigError("layout", str(exc)) from exc
        object.__setattr__(self, "layout", layout.dims)
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
        unknown = set(data) - {f.name for f in fields(cls)}
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


@dataclass(eq=False)
class RunReport:
    """Assertions plus the certificate objects they were checked on.

    ``certificates`` maps a name to the library's result object
    (``RootCertificate``, ``EPRReport``, ``BellReport``) or to plain numbers;
    ``canonical_json`` writes each dataclass as the dict of its fields.
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
            "config": self.config,
            "assertions": self.assertions,
            "certificates": self.certificates,
            "timings": dict(self.timings) if include_timings else {},
        }


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


def _record(assertions: list, name: str, lhs: float, op: str, rhs: float) -> bool:
    passed = bool(_OPS[op](lhs, rhs))
    assertions.append(
        {"name": name, "lhs": float(lhs), "op": op, "rhs": float(rhs), "passed": passed}
    )
    return passed


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
    ranks, by_cut = {}, {}  # regions on one cut share its rank
    for region in _certified_regions(layout):
        if (cut := layout.cut(region)) not in by_cut:
            by_cut[cut] = v.schmidt_rank(region, rank_tol)
        rank = by_cut[cut]
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


def _root_inputs(cfg: ScenarioConfig) -> tuple[LocalOperator, np.ndarray, VacuumModel]:
    """A on slot 1, psi and the vacuum of a root-cert config; the target region is slot 0."""
    layout = cfg.region_layout()
    v = make_vacuum(layout, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    a = LocalOperator(1, random_hermitian(layout.dims[1], rng))
    return a, _random_state(layout.total_dim, rng), v


def _root_assertions(cfg: ScenarioConfig, cert: RootCertificate) -> list:
    assertions: list = []
    _record(assertions, "root_max_inequality", cert.lhs_max, ">", cert.rhs_max)
    _record(assertions, "root_min_inequality", cert.lhs_min, "<", cert.rhs_min)
    _record(assertions, "weights_sum", abs(sum(cert.weights) - 1.0), "<=", WEIGHTS_TOL)
    for name, bound in STAGE_BOUNDS.items():
        _record(assertions, f"budget_{name}", cert.achieved[name], "<=",
                getattr(cert.budget, bound) + cfg.tolerances.budget_check)
    return assertions


def _scenario_root_cert(cfg: ScenarioConfig) -> tuple[list, dict]:
    cert = prove_root_certificate(*_root_inputs(cfg), (0,), cfg.eps)
    return _root_assertions(cfg, cert), {"root_certificate": cert}


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
    return assertions, {"epr": report}


def _scenario_bell_max(cfg: ScenarioConfig) -> tuple[list, dict]:
    layout = cfg.region_layout()
    state, settings = canonical_max_violation(layout)
    value = bell_correlation(settings, state, layout)
    assertions: list = []
    _record(assertions, "canonical_upper", value, "<=", SQRT2 + RECOMPUTE_TOL)
    _record(assertions, "canonical_lower", value, ">=", SQRT2 - RECOMPUTE_TOL)
    s = schmidt_values(state, layout.dims, 0)
    values = [beta for beta, _, _ in seesaw_starts(s, range(cfg.seed, cfg.seed + 5))]
    for k, beta in enumerate(values):
        _record(assertions, f"seesaw_ceiling_start_{k}", beta, "<=", SQRT2 + SEESAW_CEILING)
    _record(assertions, "seesaw_best", max(values), ">=", SQRT2 - SEESAW_SHORTFALL)
    margin = tsirelson_certificate(settings)
    _record(assertions, "tsirelson_margin", margin, ">=", -cfg.tolerances.tsirelson_slack)
    report = BellReport(settings=settings, state=state, correlation=value, tsirelson_margin=margin)
    return assertions, {"bell": report}


def _scenario_tsirelson_sweep(cfg: ScenarioConfig) -> tuple[list, dict]:
    rng = np.random.default_rng(cfg.seed)
    dims = cfg.layout
    chunk = max(1, SWEEP_STACK_BYTES // (2 * max(dims) ** 2 * np.dtype(complex).itemsize))
    ranks = rng.integers(1, np.repeat(dims, 2) + 1, size=(TSIRELSON_SAMPLES, 4)).reshape(-1, 2, 2)
    ranks[..., 1] = np.minimum(ranks[..., 1], np.array(dims) - ranks[..., 1])
    sizes = [2 * d * (d // 2) for d in dims]  # per setting and side: d x d // 2, real then imag
    margins = []
    for start in range(0, TSIRELSON_SAMPLES, chunk):
        n = min(chunk, TSIRELSON_SAMPLES - start)
        # Setting by setting, the Gaussian of A2's frame, then B2's; dropped once
        # copied, as holding them raised the sweep's peak memory.
        draws = np.split(rng.standard_normal((n, sum(sizes))), sizes[:1], axis=1)
        gaussians = [np.empty((n, d, d // 2), dtype=complex) for d in dims]
        for g, d, draw in zip(gaussians, dims, draws):
            g.real, g.imag = draw.reshape(n, 2, d, d // 2).swapaxes(0, 1)
        del draws, draw
        # ||R|| by Landau's identity (every 2P - 1 squares to 1); QR only the columns read.
        ca, cb = (reflection_commutator_norms(haar_unitary(g[..., :k[:, 1].max()]), k)
                  for g, k in zip(gaussians, ranks[start:start + n].swapaxes(0, 1)))
        margins.append(SQRT2 - 0.5 * np.sqrt(4.0 + ca * cb))
    margins = np.concatenate(margins)
    lo, hi = float(margins.min()), float(margins.max())
    assertions: list = []
    _record(assertions, "tsirelson_min_margin", lo, ">=", -cfg.tolerances.tsirelson_slack)
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
    return assertions, {"bell": report}


# Per scenario: its runner, the slot counts it runs on, and whether it builds a vacuum
# (then it takes only the layouts that local_algebra.require_vacuum_layout admits).
_SCENARIO_TABLE = {
    "reeh-schlieder": (_scenario_reeh_schlieder, (2, 3), True),
    "root-cert": (_scenario_root_cert, (2,), True),
    "epr": (_scenario_epr, (2,), True),
    "bell-max": (_scenario_bell_max, (2,), False),
    "tsirelson-sweep": (_scenario_tsirelson_sweep, (2,), False),
    "cond-bell": (_scenario_cond_bell, (3,), True),
}
SCENARIOS = tuple(_SCENARIO_TABLE)


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    start = time.perf_counter()
    assertions, certificates = _SCENARIO_TABLE[cfg.scenario][0](cfg)
    timings = {"total_seconds": time.perf_counter() - start}
    return RunReport(cfg, assertions, certificates, timings)


# ---------------------------------------------------------------------------
# sweeps

SWEEP_COLUMNS = ("eps", "eps1", "eps2", "eps3", "eps4", "eps5", *STAGE_BOUNDS,
                 "slack_max", "slack_min", "passed")


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
            "config": self.config,
            "columns": list(SWEEP_COLUMNS),
            "rows": self.rows,
        }


def sweep_eps(cfg: ScenarioConfig) -> SweepTable:
    """The root-cert pipeline's products once, then one certification per
    sweep eps, in the given order."""
    if cfg.scenario != "root-cert":
        raise ConfigError("scenario", f"sweeps support root-cert only, got {cfg.scenario!r}")
    if not cfg.sweep:
        raise ConfigError("sweep", "missing eps list")
    products = root_products(*_root_inputs(cfg), (0,))
    rows = []
    for eps in cfg.sweep:
        cert = certify_root(products, eps)
        assertions = _root_assertions(cfg, cert)
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

def _scalar(value) -> str:
    """A JSON scalar; also the text of a CSV cell."""
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {float(value)}")
        return f"{float(value):.17g}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool) or value is None:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


@functools.cache
def _template(shape) -> str:
    """The ``%.17g`` template of a complex array of ``shape``, as nested ``[re, im]`` pairs."""
    template = "[%.17g,%.17g]"
    for n in reversed(shape):
        template = "[" + ",".join([template] * n) + "]"
    return template


@functools.cache
def _separators(shape) -> tuple[str, ...]:
    """The text before each float of ``_template(shape)``, and after the last."""
    return tuple(_template(shape).split("%.17g"))


# By j = the number of _BOUNDS at or below |x|: "%d" % 0 for 0.0 (j = 0), "0.", 5 - j zeros and
# 17 digits |x| * _SCALE[j] for 1e-4 <= |x| < 1, "%.17g" otherwise (j = 1, 6).  Each bound lies
# above its power of ten with no double between, so j is exact; so is 10**k for k <= 22.
_BOUNDS = np.array([5e-324, 1e-4, 1e-3, 1e-2, 0.1, 1.0])
_SCALE = np.array([0.0, 0.0, 1e20, 1e19, 1e18, 1e17, 0.0])
_SCALE_HI = 134217729.0 * _SCALE - (134217729.0 * _SCALE - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
_PIECES = np.array(["%d", "%.17g", "0.000%d", "0.00%d", "0.0%d", "0.%d", "%.17g", "-%d", "%.17g",
                    "-0.000%d", "-0.00%d", "-0.0%d", "-0.%d", "%.17g"], dtype=object)


def _digits(x: np.ndarray) -> tuple[list[str], list]:
    """A ``%`` piece and its argument per float of ``x``, whose ``piece % argument`` is the
    float's ``%.17g``: its 17 significant digits as an exact int where 1e-4 <= |x| < 1."""
    ax = np.abs(x)
    j = np.searchsorted(_BOUNDS, ax, "right")
    # Dekker: u = uh + ul in 26-bit halves, so u * b = p + e exactly (numpy fuses no multiply-add)
    u = np.minimum(ax, 1.0)  # |x| >= 1 would overflow the split
    c = 134217729.0 * u
    uh = c - (c - u)
    ul = u - uh
    b, bh, bl = _SCALE[j], _SCALE_HI[j], _SCALE_LO[j]
    p = u * b
    e = ((uh * bh - p) + uh * bl + ul * bh) + ul * bl
    # p >= 1e16 > 2**53 is an even integer, so e rounded half to even rounds p + e as %.17g
    # does; the largest double below 1, 0.1, 0.01 or 0.001 rounds below 10**17: no carry.
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)
    s = d[z := np.flatnonzero(d % 10 == 0)]  # strip trailing zeros, 16, 8, 4, 2 and 1 at a time
    for m in (10**16, 10**8, 10**4, 100, 10):
        s = np.where(s % m, s, s // m)
    d[z] = s
    args = d.tolist()
    other = np.flatnonzero((j == 1) | (j == 6))
    for i, v in zip(other.tolist(), x[other].tolist()):
        args[i] = v
    return _PIECES[j + 7 * np.signbit(x)].tolist(), args


def _dense_texts(rows: np.ndarray, shape: tuple, whole: bool) -> list[str]:
    """Each row's text, or if ``whole`` each block's, of the ``rows`` of floats of an array of
    ``shape`` (a vector's are its cells), digits drawn for about CHUNK_CHARS // 32 at a time."""
    m, texts = rows.shape[1], []
    per = max(1, CHUNK_CHARS // 32 // m)
    for i in range(0, len(rows), per):
        pieces, args = _digits(rows[i:i + per].ravel())
        n = len(pieces) if whole else m  # floats per text
        parts = [""] * (2 * n + 1)
        parts[::2] = _separators((n // m,) + shape[1:])  # of n // m rows, in brackets
        for k in range(0, len(pieces), n):
            parts[1::2] = pieces[k:k + n]
            texts.append(("".join(parts) % tuple(args[k:k + n]))[1:-1])
    return texts


def _array_chunks(a: np.ndarray) -> list[str]:
    """The JSON of ``a`` after one finiteness check: one chunk, or its rows and separators if
    longer than CHUNK_CHARS (a float takes 24 characters at most, 8 for its brackets).  Under
    DENSE_FLOATS floats or on 3+ axes, one ``%.17g`` template (per row if longer); a vector or
    matrix over half [+0.0, +0.0] (bitwise) starts from "[0,0]" cells; any other takes digits."""
    re_im = np.asarray(a, complex, order="C").view(float)
    if not np.isfinite(re_im).all():
        raise ValueError(f"cannot serialize non-finite float {re_im[~np.isfinite(re_im)][0]}")
    whole = a.ndim < 2 or 32 * re_im.size <= CHUNK_CHARS
    if a.ndim > 2 or re_im.size < DENSE_FLOATS:
        if whole:
            return [_template(a.shape) % tuple(re_im.ravel().tolist())]
        row = _template(a.shape[1:])
        rows = [row % tuple(r) for r in re_im.reshape(len(a), -1).tolist()]
    elif (2 * np.count_nonzero(bits := np.bitwise_or(*re_im.view(np.uint64).reshape(-1, 2).T))
          >= a.size):  # bits is 0 on [+0.0, +0.0] only
        rows = _dense_texts(re_im.reshape(len(a), -1), a.shape, whole)
    else:  # "|" parts the entries' texts: %.17g never writes one
        where = bits.nonzero()[0]
        pairs = re_im.reshape(-1, 2)[where].ravel().tolist()
        cells, n = ["[0,0]"] * a.size, a.shape[-1]
        texts = ("|".join(["[%.17g,%.17g]"] * len(where)) % tuple(pairs)).split("|")
        for k, t in zip(where.tolist(), texts):
            cells[k] = t
        rows = ["[" + ",".join(cells[i:i + n]) + "]" for i in range(0, a.size, n)]
        if a.ndim < 2:
            return rows
    texts = ["[", *[t for r in rows for t in (",", r)][1:], "]"]
    return ["".join(texts)] if whole or sum(map(len, texts)) <= CHUNK_CHARS else texts


def _write(chunks: list, text: list, arrays: dict, value) -> None:
    """Append the JSON of ``value``, a dataclass as the dict of its fields: ``text``
    collects the strings since the last array; an array appends them to ``chunks`` as
    one string, then its own chunks, formatted once per array object (``arrays`` maps
    id -> (array, chunks))."""
    kind = _kind(type(value))
    if kind == "scalar":
        text.append(_scalar(value))
    elif kind == "array":
        if id(value) not in arrays:  # holding the array keeps its id unique
            arrays[id(value)] = (value, _array_chunks(value))
        chunks.append("".join(text))
        chunks.extend(arrays[id(value)][1])
        text.clear()
    elif kind == "list":
        text.append("[")
        for i, v in enumerate(value):
            if i:
                text.append(",")
            _write(chunks, text, arrays, v)
        text.append("]")
    else:
        items = sorted(value.items()) if kind == "dict" else [(k, getattr(value, k)) for k in kind]
        text.append("{")
        for i, (k, v) in enumerate(items):
            text.append(("," if i else "") + encode_basestring_ascii(str(k)) + ":")
            _write(chunks, text, arrays, v)
        text.append("}")


@functools.cache
def _kind(cls) -> str | tuple[str, ...]:
    """``_write``'s branch for a ``cls``, once per type; a dataclass's is its sorted field names."""
    return ("array" if issubclass(cls, np.ndarray) else "dict" if issubclass(cls, dict)
            else "list" if issubclass(cls, (list, tuple)) else "scalar" if not is_dataclass(cls)
            else tuple(sorted(f.name for f in fields(cls))))


def _json_chunks(value) -> list[str]:
    chunks, text = [], []
    _write(chunks, text, {}, value)
    return chunks + ["".join(text)]


def canonical_json(value) -> str:
    """JSON with sorted keys and floats at 17 significant digits, a dataclass as the dict of
    its fields and an ndarray as (rows of) complex ``[re, im]`` pairs, each formatted once."""
    return "".join(_json_chunks(value))


def _report_csv(report: RunReport) -> str:
    lines = ["name,lhs,op,rhs,passed"]
    for a in report.assertions:
        lines.append(",".join([
            a["name"], _scalar(a["lhs"]), f'"{a["op"]}"',
            _scalar(a["rhs"]), _scalar(a["passed"]),
        ]))
    return "\n".join(lines) + "\n"


def _sweep_csv(table: SweepTable) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in table.rows:
        lines.append(",".join(_scalar(row[c]) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _report_chunks(report, fmt: str, include_timings: bool) -> list[str]:
    if fmt == "json":
        return _json_chunks(report.to_payload(include_timings=include_timings)) + ["\n"]
    if fmt == "csv":
        if isinstance(report, SweepTable):
            return [_sweep_csv(report)]
        return [_report_csv(report)]
    raise ValueError(f"unknown format {fmt!r} (expected json or csv)")


def render_report(report, fmt: str, include_timings: bool = False) -> str:
    return "".join(_report_chunks(report, fmt, include_timings))


def emit_report(report, fmt: str, path=None, include_timings: bool = False) -> None:
    """Write a report to ``path``, or to stdout if None, chunk by chunk, never joined into
    one text; identical inputs give identical bytes.  A failed write raises one OSError
    naming the destination and leaves the bytes written before it."""
    chunks = _report_chunks(report, fmt, include_timings)
    try:
        if path is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        where = "stdout" if path is None else path
        raise OSError(f"cannot write report to {where}: {exc}") from exc
