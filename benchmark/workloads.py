"""The benchmark's workloads and the pass that runs one of them.

A workload is a fixed list of report calls; one *pass* makes every call
once, in order, as a closed loop with one caller: each call starts only
after the previous report is done.  Scenario seeds are derived from the
workload seed, so the same seed gives the same calls, and the program
receives only the generated configs.

A report is one ``harness.run_scenario`` or ``harness.sweep_eps`` call
followed by ``harness.render_report``, or one in-process ``cli.main``
call that writes its report with ``--out``.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Optional

from vacuumcorr import cli, harness

EPS = 0.01
SWEEP_EPS = (0.1, 0.03, 0.01, 0.003, 0.001)


@dataclass(frozen=True)
class Spec:
    """One report call: ``kind`` is "run" (harness) or "cli"."""

    kind: str
    scenario: str
    layout: tuple[int, ...]
    seed: int
    sweep: Optional[tuple[float, ...]] = None


def _seeds(workload: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(n)]


# Sizes are trimmed so that one pass takes two to four seconds on a 2-core
# Xeon, which leaves several passes per run.  Each pass is built so that
# its median report falls in the middle of a group of same-size reports:
# a median between two sizes would jump from run to run.

def _root_2slot(seed: int) -> list[Spec]:
    # Dense root pipeline: the root_theorem stages over total_dim-sized
    # embeddings dominate; the Bell code never runs.
    s = _seeds("root-2slot", seed, 3)
    specs = [Spec("run", "root-cert", (d, d), x) for d in (12, 16) for x in s[:2]]
    specs += [Spec("run", "epr", (24, 24), x) for x in s]  # the median report
    specs += [Spec("run", "root-cert", (20, 20), x) for x in s[:2]]
    specs += [Spec("run", "root-cert", (24, 24), s[0]), Spec("run", "epr", (32, 32), s[0])]
    return specs


def _bell_2slot(seed: int) -> list[Spec]:
    # Bell side only: SVDs in operator_norm/dagger_distance over the full
    # space dominate; the root pipeline never runs.
    s = _seeds("bell-2slot", seed, 3)
    specs = [Spec("run", "bell-max", (16, 16), x) for x in s[:2]]
    specs += [Spec("run", "tsirelson-sweep", (8, 8), x) for x in s]  # the median report
    specs += [Spec("run", "bell-max", (24, 24), x) for x in s[:2]]
    specs += [Spec("run", "tsirelson-sweep", (12, 12), s[0])]
    return specs


def _cond_3slot(seed: int) -> list[Spec]:
    # Both layers on 3 slots: the root pipeline across the (0,1)|2 cut with
    # a merged two-slot region, and bell_operator on the full 3-slot space.
    s = _seeds("cond-3slot", seed, 3)
    specs = [Spec("run", "reeh-schlieder", (d, d, d * d), s[0]) for d in (4, 5)]
    specs += [Spec("run", "cond-bell", (3, 3, 9), s[0])]
    specs += [Spec("run", "cond-bell", (4, 4, 16), x) for x in s]  # the median report
    specs += [Spec("run", "cond-bell", (5, 5, 25), x) for x in s[:2]]
    return specs


def _small_batch(seed: int) -> list[Spec]:
    # Trivial kernels: per-call overhead, validation and serialization
    # through the CLI dominate.  Every scenario but bell-max, plus a
    # root-cert sweep.  bell-max is left out because its see-saw stalls at
    # the classical value 1 on all five starts for about 1 seed in 400 at
    # d = 3, 4 (for example seed 483374545 on 3,3), and a benchmark
    # workload must not fail; it runs at d = 16, 24 in bell-2slot.
    specs = []
    for i, x in enumerate(_seeds("small-batch", seed, 15)):
        d = (2, 3, 4)[i % 3]
        d3 = (2, 3)[i % 2]
        specs += [
            Spec("cli", "reeh-schlieder", (d, d), x),
            Spec("cli", "reeh-schlieder", (d3, d3, d3 * d3), x),
            Spec("cli", "root-cert", (d, d), x),
            Spec("cli", "epr", (d, d), x),
            Spec("cli", "tsirelson-sweep", (d, d), x),
            Spec("cli", "cond-bell", (d3, d3, d3 * d3), x),
            Spec("cli", "root-cert", (d, d), x, SWEEP_EPS),
        ]
    specs.append(Spec("cli", "root-cert", (2, 2), seed))
    return specs


WORKLOADS = {
    "root-2slot": _root_2slot,
    "bell-2slot": _bell_2slot,
    "cond-3slot": _cond_3slot,
    "small-batch": _small_batch,
}


@dataclass(frozen=True)
class Call:
    """A prepared report call: a validated config, or a CLI argv."""

    spec: Spec
    config: Optional[harness.ScenarioConfig] = None
    argv: Optional[tuple[str, ...]] = None
    out_path: Optional[str] = None


def prepare(spec: Spec, index: int, out_dir: str) -> Call:
    """Validate a spec into a config, or a CLI argv writing under ``out_dir``."""
    if spec.kind == "run":
        config = harness.ScenarioConfig(
            scenario=spec.scenario, layout=spec.layout, seed=spec.seed,
            eps=EPS, sweep=spec.sweep,
        )
        return Call(spec, config=config)
    out_path = os.path.join(out_dir, f"report-{index}.json")
    argv = [
        "sweep" if spec.sweep else "run",
        "--scenario", spec.scenario,
        "--layout", ",".join(map(str, spec.layout)),
        "--seed", str(spec.seed),
        "--eps", str(EPS),
        "--out", out_path,
    ]
    if spec.sweep:
        argv += ["--eps-list", ",".join(map(str, spec.sweep))]
    return Call(spec, argv=tuple(argv), out_path=out_path)


def build(workload: str, seed: int, out_dir: str) -> list[Call]:
    """The calls of one pass of a workload."""
    return [prepare(spec, i, out_dir) for i, spec in enumerate(WORKLOADS[workload](seed))]


@dataclass
class PassResult:
    """What one pass produced.  ``texts[i]`` is None when call i raised."""

    wall_s: float
    latencies: list[float]
    texts: list[Optional[str]]
    ok: list[bool]  # the call returned exit 0 / a passing report
    errors: list[str]
    kernel_s: list[float]  # calibration kernel times around the calls
    mismatch: Optional[list[bool]] = None  # bytes differ from a reference pass


def run_pass(calls: list[Call], tracer=None, calibrate=None) -> PassResult:
    """Make every call once; only the calls themselves are timed.

    ``calibrate``, when given, is timed before each call and after the
    last; see calibration.py.
    """
    clock = time.perf_counter
    latencies, texts, ok, errors, kernel_s = [], [], [], [], []
    start = clock()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.report_id = i
        if calibrate is not None:
            kernel_s.append(calibrate())
        t0 = clock()
        try:
            if call.argv is not None:
                text, passed = None, cli.main(list(call.argv)) == 0
            else:
                run = harness.sweep_eps if call.config.sweep else harness.run_scenario
                report = run(call.config)
                text, passed = harness.render_report(report, "json"), report.passed
        except Exception as exc:  # a failed report is counted, not fatal
            text, passed = None, False
            errors.append(f"{call.spec}: {type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
        texts.append(text)
        ok.append(passed)
    if calibrate is not None:
        kernel_s.append(calibrate())
    wall = clock() - start - sum(kernel_s)
    for i, call in enumerate(calls):
        if call.out_path is not None and os.path.exists(call.out_path):
            with open(call.out_path, encoding="utf-8") as fh:
                texts[i] = fh.read()
            os.remove(call.out_path)
    return PassResult(wall, latencies, texts, ok, errors, kernel_s)
