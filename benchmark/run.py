"""Benchmark of vacuumcorr: time to a verified report, peak memory and
per-module spans.

    python3 benchmark/run.py --workload root-2slot --seed 1 --seconds 18 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 18 --trace 1

One run measures one workload in this process, as a closed loop with one
caller, against the vacuumcorr sources in ``src/`` next to this directory.
It repeats the workload's pass until ``--seconds`` have been measured,
then rechecks every report outside the timed region (``recheck.py``) and
checks that every pass emitted the same bytes.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports per-layer metrics from wrappers around the public functions of
each module (``tracing.py``).  README.md explains each metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record with
the environment goes to ``.bench_results/`` at the repository root.
``--workload all`` runs every workload in a fresh process, one after
another.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 7
MIN_PASSES = 3

# Runs in a fresh interpreter: import vacuumcorr (numpy included) and build
# the workload's configs, timed from the first statement; then time the
# calibration kernel to scale that time by.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
elapsed = time.perf_counter() - t0
import calibration
print(elapsed, min(calibration.kernel_seconds() for _ in range(3)))
"""

# Runs one pass in a fresh interpreter and prints its peak RSS in KiB.  It
# runs with glibc's mmap threshold fixed at its initial 128 KiB: left to
# adapt, the threshold keeps a freed 16 MiB matrix resident in some runs and
# not in others, and root-2slot's peak read 122 or 137 MiB for one seed.
MEMORY_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
MEMORY_PROBE = """\
import resource, sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.run_pass(workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

ROOT_STAGES = (
    "solve_cyclic_approx", "normalize_approximant", "expectation_window",
    "positive_spectral_decomposition", "rescale_to_unit_vacuum",
    "combined_window", "select_extremal_projectors",
)

# Per-layer metrics of a traced run, as <span name>: measures.  Times and
# counts are per traced pass.
LAYER_METRICS = {
    "linalg.tensor_embed": ("calls", "self_s", "out_bytes", "max_out_bytes"),
    "linalg.operator_norm": ("calls", "self_s", "n3"),
    "linalg.dagger_distance": ("calls", "total_s"),
    "linalg.expectation": ("calls", "self_s"),
    "linalg.hermitian_eig": ("calls", "self_s"),
    "linalg.schmidt_rank": ("calls", "self_s"),
    "local_algebra.LocalOperator.embed": ("calls", "total_s"),
    "local_algebra.LocalOperator.is_projector": ("calls", "total_s"),
    "local_algebra.make_vacuum": ("total_s",),
    **{f"root_theorem.{stage}": ("total_s", "self_s", "errors") for stage in ROOT_STAGES},
    "root_theorem.prove_root_certificate": ("calls", "self_s"),
    "correlations.bell_operator": ("calls", "self_s"),
    "correlations.tsirelson_certificate": ("calls", "total_s"),
    "correlations.seesaw_maximize": ("calls", "total_s"),
    "correlations.epr_projector_pair": ("self_s",),
    "correlations.conditional_bell_correlation": ("total_s",),
    "correlations.violate_conditional_bell": ("self_s",),
    "harness.run_scenario": ("self_s",),
    "harness.sweep_eps": ("self_s",),
    "harness.render_report": ("total_s", "out_bytes"),
    "harness.emit_report": ("total_s",),
    "cli.main": ("self_s",),
}
LAYER_METRICS["root_theorem.select_extremal_projectors"] += ("candidates", "useful_ratio")
END_TO_END = {"setup_s": "s", "wall_s": "s", "report_p50_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = ("wall_s", "untraced_wall_s", "overhead_s", "self_sum_s", "unwrapped_s", "spans")

UNITS = {"calls": "count", "errors": "count", "n3": "count", "candidates": "count",
         "spans": "count", "out_bytes": "B", "max_out_bytes": "B", "useful_ratio": "ratio"}


def unit(measure: str) -> str:
    return UNITS.get(measure, "s")


def per_layer_names() -> list[str]:
    names = [f"{span}.{m}" for span, measures in LAYER_METRICS.items() for m in measures]
    return names + [f"trace.{m}" for m in TRACE_METRICS]


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def probe(code: str, workload: str, seed: int, work_dir: str, env=None) -> list[str]:
    """Run probe code in a fresh interpreter; the words of its last line."""
    out = subprocess.run(
        [sys.executable, "-c", code, SRC, HERE, workload, str(seed), work_dir],
        capture_output=True, text=True, timeout=150, check=True,
        env={**os.environ, **(env or {})})
    return out.stdout.splitlines()[-1].split()


def measure_setup(workload: str, seed: int, work_dir: str) -> list[tuple[float, float]]:
    """(set-up time, calibration kernel time) in fresh interpreters; the
    first, untimed probe fills the bytecode cache as any earlier use of the
    checkout would have."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        elapsed, kernel = probe(SETUP_PROBE, workload, seed, work_dir)
        if i:
            samples.append((float(elapsed), float(kernel)))
    return samples


def measure(calls, seconds: float, trace: bool):
    """Passes until ``seconds`` have been measured.

    Returns (the first pass's texts, untraced passes, traced passes, span
    totals, spans of the last traced pass).  Each pass's texts are dropped
    once they have been compared with the first pass's.
    """
    import tracing
    from calibration import kernel_seconds
    from workloads import run_pass

    reference = None
    plain, traced = [], []
    totals = tracing.Totals()
    last_spans: list = []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(plain) < MIN_PASSES
           or (trace and len(traced) < MIN_PASSES)):
        if trace and len(traced) < len(plain):
            with tracing.installed(tracer):
                result = run_pass(calls, tracer)
            last_spans = tracer.take()
            totals.add(last_spans)
            traced.append(result)
        else:
            result = run_pass(calls, calibrate=kernel_seconds)
            plain.append(result)
        if reference is None:
            reference = result.texts
        result.mismatch = [t != r for t, r in zip(result.texts, reference)]
        result.texts = None
    return reference, plain, traced, totals, last_spans


def layer_metrics(totals, traced, plain) -> dict:
    n = len(traced)
    out = {}
    for span, measures in LAYER_METRICS.items():
        for m in measures:
            if m == "useful_ratio":
                candidates = totals.get(span, "value")
                value = 2 * totals.get(span, "calls") / candidates if candidates else 0.0
            elif m == "max_out_bytes":
                value = totals.get(span, "max_value")
            else:
                field = "value" if m in ("out_bytes", "n3", "candidates") else m
                value = totals.get(span, field) / n
            out[f"{span}.{m}"] = value
    wall = statistics.fmean(p.wall_s for p in traced)
    untraced = statistics.fmean(p.wall_s for p in plain)
    self_sum = totals.root_s / n
    out.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.self_sum_s": self_sum,
        "trace.unwrapped_s": wall - self_sum,
        "trace.spans": totals.spans / n,
    })
    return out


def layer_table(totals, n: int, wall: float) -> list[str]:
    rows = sorted(totals.by_name.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'span (per traced pass)':48} {'calls':>9} {'total_s':>9} {'self_s':>9} "
             f"{'share':>6} {'errors':>6}"]
    for name, r in rows:
        lines.append(f"{name:48} {r['calls'] / n:9.0f} {r['total_s'] / n:9.4f} "
                     f"{r['self_s'] / n:9.4f} {r['self_s'] / n / wall:6.1%} {r['errors'] / n:6.0f}")
    modules: dict[str, float] = {}
    for name, r in totals.by_name.items():
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + r["self_s"] / n
    lines.append("self time by module: " + ", ".join(
        f"{m} {s:.3f} s ({s / wall:.1%})" for m, s in sorted(modules.items(), key=lambda kv: -kv[1])))
    return lines


def run_workload(args) -> int:
    import calibration
    import recheck
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    work_dir = os.path.join(RESULTS, f"tmp-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        setup = measure_setup(args.workload, args.seed, work_dir)
        calls = workloads.build(args.workload, args.seed, work_dir)
        peak_rss_mb = int(probe(MEMORY_PROBE, args.workload, args.seed, work_dir,
                                MEMORY_ENV)[0]) / 1024
        texts, plain, traced, totals, spans = measure(calls, args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = [recheck.recheck(t) if t is not None else ["no report"] for t in texts]
    failed = sum(bool(bad) or m or not ok for p in plain + traced
                 for bad, m, ok in zip(problems, p.mismatch, p.ok))
    attempted = len(calls) * (len(plain) + len(traced))
    errors = [e for p in plain + traced for e in p.errors]
    errors += [f"{c.spec}: {'; '.join(p)}" for c, p in zip(calls, problems) if p]

    env = environment()
    # Report times scaled to the calibration kernel's nominal speed.
    scaled = [calibration.normalized(p.latencies, p.kernel_s) for p in plain]
    latencies = [x for times in scaled for x in times]
    wall_s = statistics.median(sum(times) for times in scaled)
    setup_s = statistics.median(t * calibration.NOMINAL_S / k for t, k in setup)
    kernel_s = statistics.median(k for p in plain for k in p.kernel_s)
    raw_latencies = [x for p in plain for x in p.latencies]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller, {len(calls)} reports per pass, {len(plain)} untraced passes")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"calibration kernel: median {kernel_s * 1e3:.2f} ms, nominal "
          f"{calibration.NOMINAL_S * 1e3:.2f} ms; times below are scaled by nominal/measured")
    print(f"setup_s      {setup_s:10.4f} s   median of {len(setup)} fresh interpreters "
          f"(raw {statistics.median(t for t, _ in setup):.4f} s)")
    print(f"wall_s       {wall_s:10.4f} s   median of {len(plain)} passes "
          f"(raw {statistics.median(p.wall_s for p in plain):.4f} s)")
    print(f"report_p50_s {statistics.median(latencies):10.4f} s   n={len(latencies)} "
          f"(raw {statistics.median(raw_latencies):.4f} s)")
    if len(calls) >= 100:
        print(f"report_p90_s {statistics.quantiles(latencies, n=10)[-1]:10.4f} s   "
              f"n={len(latencies)}, {len(latencies) // 10} beyond "
              f"(raw {statistics.quantiles(raw_latencies, n=10)[-1]:.4f} s)")
    print(f"peak_rss_mb  {peak_rss_mb:10.1f} MB   one pass in a fresh interpreter")
    print(f"failed_frac  {failed / attempted:10.4f}     {failed}/{attempted}")
    for e in errors[:20]:
        print(f"FAILED {e}")

    if args.trace:
        wall = statistics.fmean(p.wall_s for p in traced)
        for line in layer_table(totals, len(traced), wall):
            print(line)
        metrics = layer_metrics(totals, traced, plain)
        print(f"traced wall {wall:.4f} s = spans' self time {metrics['trace.self_sum_s']:.4f} s"
              f" + unwrapped {metrics['trace.unwrapped_s']:.4f} s; tracing overhead "
              f"{metrics['trace.overhead_s']:+.4f} s per pass (raw times)")
        units = {name: unit(name.rsplit(".", 1)[1]) for name in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "report_p50_s": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "result": result, "setup_samples": setup,
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_latencies": [p.latencies for p in plain],
        "pass_kernel_s": [p.kernel_s for p in plain],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "failed_frac": failed / attempted, "errors": errors,
    }
    if args.trace:
        record["spans_by_name"] = totals.by_name
        fields = ("name", "start", "end", "parent", "report", "error", "value")
        with gzip.open(os.path.join(RESULTS, f"{args.workload}.spans.jsonl.gz"), "wt") as fh:
            fh.write(json.dumps(fields) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    with open(os.path.join(RESULTS, f"{args.workload}.trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Every workload in a fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        print()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vacuumcorr", "__init__.py")):
        print(f"error: no vacuumcorr sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy is first imported, here or in a
    # probe.  On the 2-vCPU machine the benchmark was written on, the
    # spread of wall_s over runs was about 0.1 of the median with two
    # threads and about 0.05 with one.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import vacuumcorr
    import workloads

    if not os.path.abspath(vacuumcorr.__file__).startswith(SRC + os.sep):
        print(f"error: imported vacuumcorr from {vacuumcorr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
