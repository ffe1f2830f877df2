"""Tests of the benchmark's own machinery.

    python3 -m pytest benchmark
"""

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import recheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from vacuumcorr import correlations, harness, linalg, local_algebra, root_theorem  # noqa: E402

SMALL_SPECS = [
    workloads.Spec("run", "reeh-schlieder", (2, 2, 4), 3),
    workloads.Spec("run", "root-cert", (3, 3), 5),
    workloads.Spec("run", "epr", (3, 3), 7),
    workloads.Spec("run", "bell-max", (2, 2), 11),
    workloads.Spec("run", "tsirelson-sweep", (2, 2), 13),
    workloads.Spec("run", "cond-bell", (2, 2, 4), 17),
    workloads.Spec("run", "root-cert", (2, 2), 19, workloads.SWEEP_EPS),
    workloads.Spec("cli", "epr", (2, 2), 23),
    workloads.Spec("cli", "root-cert", (3, 3), 29, workloads.SWEEP_EPS),
]


@pytest.fixture
def calls(tmp_path):
    return [workloads.prepare(spec, i, str(tmp_path)) for i, spec in enumerate(SMALL_SPECS)]


@pytest.fixture
def reports(calls):
    result = workloads.run_pass(calls)
    assert result.errors == [] and all(result.ok)
    return {spec: text for spec, text in zip(SMALL_SPECS, result.texts)}


def test_traced_and_untraced_reports_are_byte_identical(calls):
    plain = workloads.run_pass(calls)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = workloads.run_pass(calls, tracer)
    assert traced.texts == plain.texts
    assert all(plain.ok) and all(traced.ok)
    names = {span[tracing.NAME] for span in tracer.take()}
    assert {"cli.main", "harness.run_scenario", "harness.sweep_eps",
            "root_theorem.prove_root_certificate", "linalg.operator_norm"} <= names


def test_wrapper_passes_return_values_and_exceptions_through():
    tracer = tracing.Tracer()
    value = object()
    error = KeyError("boom")

    def returns(*args, **kwargs):
        return value, args, kwargs

    def raises():
        raise error

    assert tracer.wrap("returns", returns)(1, k=2) == (value, (1,), {"k": 2})
    assert tracer.wrap("returns", returns)()[0] is value
    with pytest.raises(KeyError) as info:
        tracer.wrap("raises", raises)()
    assert info.value is error
    spans = tracer.take()
    assert [(s[tracing.NAME], s[tracing.ERROR]) for s in spans] == [
        ("returns", False), ("returns", False), ("raises", True)]


def test_install_covers_every_binding_and_restores_it():
    bindings = (linalg, local_algebra, root_theorem, correlations)
    original = linalg.operator_norm
    embed = local_algebra.LocalOperator.embed
    prove = root_theorem.prove_root_certificate
    assert all(m.operator_norm is original for m in bindings)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as wrappers:
        wrapper = wrappers[original]
        assert all(m.operator_norm is wrapper for m in bindings)
        assert harness.prove_root_certificate is correlations.prove_root_certificate
        assert harness.prove_root_certificate.__wrapped__ is prove
        assert local_algebra.LocalOperator.embed is not embed
        a = np.diag([3.0, -1.0]).astype(complex)
        assert linalg.operator_norm(a) == original(a) == 3.0
        op = local_algebra.LocalOperator(0, np.eye(2))
        assert op.is_projector()
        empty = root_theorem.ProjectorDecomposition((0,), (), (), 0.0)
        v = local_algebra.make_vacuum(local_algebra.RegionLayout((2, 2)), 0)
        with pytest.raises(root_theorem.StageFailure) as info:
            root_theorem.rescale_to_unit_vacuum(empty, v)
        assert info.value.stage == "rescale"
    assert all(m.operator_norm is original for m in bindings)
    assert local_algebra.LocalOperator.embed is embed
    totals = tracing.Totals()
    totals.add(tracer.take())
    assert totals.get("linalg.operator_norm", "value") >= 8  # n^3 of the 2x2 input
    assert totals.get("local_algebra.LocalOperator.is_projector", "calls") == 1
    assert totals.get("root_theorem.rescale_to_unit_vacuum", "errors") == 1


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] -> b [1, 4] -> c [2, 3];  a -> d [5, 9];  e [12, 13]
    N, S, E, P = tracing.NAME, tracing.START, tracing.END, tracing.PARENT
    spans = []
    for name, start, end, parent in (("a", 0, 10, -1), ("b", 1, 4, 0), ("c", 2, 3, 1),
                                     ("d", 5, 9, 0), ("e", 12, 13, -1)):
        span = [None] * 7
        span[N], span[S], span[E], span[P] = name, start, end, parent
        span[tracing.ERROR], span[tracing.VALUE], span[tracing.REPORT] = False, 0, 0
        spans.append(span)
    assert tracing.self_times(spans) == [3, 2, 1, 4, 1]
    totals = tracing.Totals()
    totals.add(spans)
    assert totals.root_s == 11 == sum(r["self_s"] for r in totals.by_name.values())
    assert totals.get("a", "total_s") == 10 and totals.get("a", "self_s") == 3


def test_wrapped_calls_build_the_span_tree():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    tracer.report_id = 4
    top()
    spans = tracer.take()
    assert [(s[tracing.NAME], s[tracing.PARENT], s[tracing.REPORT]) for s in spans] == [
        ("top", -1, 4), ("mid", 0, 4), ("leaf", 1, 4), ("leaf", 1, 4), ("leaf", 0, 4)]
    # Each clock read is one tick: top spans ticks 0-9, mid 1-6, leaves one each.
    assert tracing.self_times(spans) == [3, 3, 1, 1, 1]


def _corrupt(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


def _flip_p1(p):
    m = recheck._matrix(p["certificates"]["epr"]["p1"]["matrix"])
    flipped = np.eye(m.shape[0]) - m
    p["certificates"]["epr"]["p1"]["matrix"] = [
        [[x.real, x.imag] for x in row] for row in flipped]


def _rotate_a1(p):
    a1 = p["certificates"]["bell"]["settings"]["a1"]["matrix"]
    a1[0][0], a1[1][1] = a1[1][1], a1[0][0]


CORRUPTIONS = [
    ("epr", _flip_p1),
    ("epr", lambda p: p["certificates"]["epr"].update(joint_expect=0.5)),
    ("root-cert", lambda p: p["certificates"]["root_certificate"]["budget"].update(eps2=1e-3)),
    ("root-cert", lambda p: p["certificates"]["root_certificate"].update(rhs_max=-1.0)),
    ("bell-max", _rotate_a1),
    ("bell-max", lambda p: p["certificates"]["bell"].update(tsirelson_margin=0.1)),
    ("cond-bell", lambda p: p["certificates"]["bell"]["conditional"].update(
        conditional_correlation=1.0)),
    ("cond-bell", lambda p: p["certificates"]["bell"].update(correlation=1.0)),
    ("tsirelson-sweep", lambda p: p["certificates"]["margins"].update(min=-0.1)),
    ("reeh-schlieder", lambda p: p["certificates"]["certified_ranks"].update({"2": 3})),
    ("sweep", lambda p: p["rows"][1].update(slack_min=-1e-3)),
    ("sweep", lambda p: p["rows"][0].update(eps3=0.1)),
    ("root-cert", lambda p: p["assertions"][0].update(passed=False)),
    ("epr", lambda p: p["certificates"].pop("epr")),
]


def _report_for(reports, scenario):
    for spec, text in reports.items():
        if spec.kind == "run" and (scenario == "sweep") == bool(spec.sweep) and (
                scenario == "sweep" or spec.scenario == scenario):
            return text
    raise LookupError(scenario)


def test_recheck_accepts_every_report(reports):
    for spec, text in reports.items():
        assert recheck.recheck(text) == [], spec


@pytest.mark.parametrize("scenario, edit", CORRUPTIONS)
def test_recheck_flags_a_corrupted_payload(reports, scenario, edit):
    text = _report_for(reports, scenario)
    assert recheck.recheck(_corrupt(text, edit)) != []


def test_benchmark_json_names_the_metrics_emitted():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    one_pass = [SimpleNamespace(wall_s=1.0)]
    emitted = run.layer_metrics(tracing.Totals(), one_pass, one_pass)
    assert [m["name"] for m in bench["per_layer"]] == run.per_layer_names() == list(emitted)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for m in bench["per_layer"]:
        assert m["unit"] == run.unit(m["name"].rsplit(".", 1)[1])
