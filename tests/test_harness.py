import contextlib
import csv
import io
import itertools
import json
import math
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    canonical_json_reference,
    rescale_error_oracle,
    run_cli,
    seesaw_starts_loop,
    tsirelson_sweep_reference,
)

from vacuumcorr import cli, correlations, harness, linalg, local_algebra, root_theorem
from vacuumcorr.cli import build_parser, main
from vacuumcorr.correlations import (
    BellReport,
    EPRReport,
    bell_correlation,
    canonical_max_violation,
    epr_projector_pair,
    tsirelson_certificate,
    violate_conditional_bell,
)
from vacuumcorr.harness import (
    SCENARIOS,
    SWEEP_COLUMNS,
    ConfigError,
    ScenarioConfig,
    Tolerances,
    _root_cert,
    canonical_json,
    emit_report,
    render_report,
    run_scenario,
    sweep_eps,
)
from vacuumcorr.local_algebra import LocalOperator, make_vacuum, random_projector
from vacuumcorr.root_theorem import RootCertificate

README = Path(__file__).resolve().parents[1] / "README.md"
# The eps list of the benchmark's root-cert sweeps (benchmark/workloads.py).
SWEEP_EPS = (0.1, 0.03, 0.01, 0.003, 0.001)


def cfg(**overrides) -> ScenarioConfig:
    data = {"scenario": "root-cert", "layout": [2, 2], "seed": 7, "eps": 0.01}
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


def patch_every_binding(monkeypatch, original, replacement):
    """Replace ``original`` wherever a vacuumcorr module binds it by name."""
    for name, module in list(sys.modules.items()):
        if name.startswith("vacuumcorr") and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, replacement)


class TestScenarioConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            cfg(scenario="frobnicate")

    def test_cond_bell_layout_mismatch_names_field(self):
        with pytest.raises(ConfigError, match="layout") as err:
            cfg(scenario="cond-bell", layout=[2, 2, 3])
        assert err.value.field == "layout"

    def test_vacuum_scenarios_need_square_two_slot(self):
        with pytest.raises(ConfigError, match="d1 = d2"):
            cfg(scenario="root-cert", layout=[2, 3])

    def test_reeh_schlieder_accepts_three_slots(self):
        c = cfg(scenario="reeh-schlieder", layout=[2, 2, 4])
        assert c.layout == (2, 2, 4)

    def test_sweep_must_be_nonempty(self):
        with pytest.raises(ConfigError, match="non-empty"):
            cfg(sweep=[])
        with pytest.raises(ConfigError, match="non-empty"):
            ScenarioConfig("root-cert", (2, 2), 0, 0.01, sweep=())

    def test_sweep_must_decrease(self):
        with pytest.raises(ConfigError, match="decreasing"):
            cfg(sweep=[0.01, 0.1])
        with pytest.raises(ConfigError, match="decreasing"):
            cfg(sweep=[0.1, 0.1])

    def test_sweep_must_be_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            cfg(sweep=[0.1, -0.01])

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="unknown names"):
            cfg(tolerances={"nonsense": 1.0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            ScenarioConfig.from_dict(
                {"scenario": "root-cert", "layout": [2, 2], "bogus": 1}
            )

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError, match="missing"):
            ScenarioConfig.from_dict({"layout": [2, 2]})
        with pytest.raises(ConfigError, match="missing"):
            ScenarioConfig.from_dict({"scenario": "root-cert"})

    def test_tolerance_override(self):
        c = cfg(tolerances={"budget_check": 1e-6})
        assert c.tolerances.budget_check == 1e-6
        assert c.tolerances.schmidt_rank == 1e-9

    def test_report_echoes_the_three_tolerances(self):
        payload = run_scenario(cfg()).to_payload()
        assert asdict(payload["config"].tolerances) == {
            "budget_check": 1e-9, "schmidt_rank": 1e-9, "tsirelson_slack": 1e-9,
        }

    def test_readme_tolerance_table_matches_the_defaults(self):
        text = README.read_text(encoding="utf-8")
        table = text.split("| tolerance | default | governs |")[1].split("\n\n")[0]
        rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", table, re.MULTILINE)
        assert [(name, float(default)) for name, default in rows] == [
            (f.name, f.default) for f in fields(Tolerances)]


class TestScenarios:
    @pytest.mark.parametrize("scenario,layout", [
        ("reeh-schlieder", [2, 2]),
        ("reeh-schlieder", [2, 2, 4]),
        ("root-cert", [2, 2]),
        ("epr", [2, 2]),
        ("bell-max", [2, 2]),
        ("tsirelson-sweep", [2, 3]),
        ("cond-bell", [2, 2, 4]),
    ])
    def test_all_scenarios_pass(self, scenario, layout):
        report = run_scenario(cfg(scenario=scenario, layout=layout, eps=0.05))
        assert report.passed
        assert report.assertions
        for a in report.assertions:
            assert set(a) == {"name", "lhs", "op", "rhs", "passed"}

    @given(case=st.sampled_from([
        ("root-cert", [2, 2], ("root_certificate",)),
        ("root-cert", [3, 3], ("root_certificate",)),
        ("epr", [2, 2], ("epr", "certificate")),
        ("epr", [3, 3], ("epr", "certificate")),
        ("cond-bell", [2, 2, 4], ("bell", "conditional", "certificate")),
    ]), seed=st.integers(0, 7), log_eps=st.floats(-13, 0))
    @settings(max_examples=40, deadline=None)
    def test_eps4_tilde_is_derived_from_the_budget(self, case, seed, log_eps):
        scenario, layout, path = case
        report = run_scenario(cfg(scenario=scenario, layout=layout, seed=seed,
                                  eps=10.0 ** log_eps))
        assert report.passed
        cert = report.certificates[path[0]]
        for key in path[1:]:
            cert = getattr(cert, key)
        budget = cert.budget
        # The derived cutoff leaves ||A|| eps4 at most half of its eps/2 share.
        assert budget.norm_a * budget.eps4 <= cert.requested_eps / 4
        assert cert.achieved["decomposition_residual"] <= budget.eps4_tilde

    @pytest.mark.parametrize("layout,seed", [([3, 3], 1834), ([4, 4], 2030)])
    def test_bell_max_survives_classical_seesaw_stalls(self, monkeypatch, layout, seed):
        # Every start of these seeds first lands on the classical fixed point 1,
        # so each start's generator draws again: more than the one call of one draw.
        rngs = []
        original = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng, self.draws = original(seed), 0
                rngs.append(self)

            def standard_normal(self, *args, **kwargs):
                self.draws += 1
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        report = run_scenario(cfg(scenario="bell-max", layout=layout, seed=seed))
        assert report.passed
        assert len(rngs) == 5 and min(rng.draws for rng in rngs) > 1

    @pytest.mark.parametrize("layout,seed", [([3, 3], 0), ([4, 4], 2030)])
    def test_bell_max_signs_the_seesaw_starts_as_one_stack(self, monkeypatch, layout, seed):
        # One eigh per step of the five starts together, not one per step of each.
        state = canonical_max_violation(local_algebra.RegionLayout(tuple(layout)))[0]
        s = linalg.schmidt_support(state, tuple(layout), 0)[1]
        shapes = []
        original = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        seesaw_starts_loop(s, range(seed, seed + 5))
        loop_calls = len(shapes)
        shapes.clear()
        assert run_scenario(cfg(scenario="bell-max", layout=layout, seed=seed)).passed
        assert shapes[0] == (5, 4, 2, 2)
        assert len(shapes) < loop_calls, (len(shapes), loop_calls)

    @pytest.mark.parametrize("scenario,layout,name,kind", [
        ("root-cert", [2, 2], "root_certificate", RootCertificate),
        ("epr", [2, 2], "epr", EPRReport),
        ("bell-max", [2, 2], "bell", BellReport),
        ("cond-bell", [2, 2, 4], "bell", BellReport),
    ])
    def test_certificates_are_the_result_objects(self, scenario, layout, name, kind):
        # The report holds what the library returned, not a copy of its fields.
        report = run_scenario(cfg(scenario=scenario, layout=layout, eps=0.05))
        assert isinstance(report.certificates[name], kind)
        payload = report.to_payload()
        assert payload["certificates"] is report.certificates
        assert payload["config"] is report.config

    def test_bell_max_asserts_the_tsirelson_margin(self):
        report = run_scenario(cfg(scenario="bell-max", layout=[2, 2],
                                  tolerances={"tsirelson_slack": 1e-6}))
        check = {a["name"]: a for a in report.assertions}["tsirelson_margin"]
        assert check["passed"] and check["op"] == ">=" and check["rhs"] == -1e-6
        assert check["lhs"] == report.certificates["bell"].tsirelson_margin

    @pytest.mark.parametrize("layout", [[3, 3], [8, 8], [12, 12], [3, 8], [32, 32]])
    def test_tsirelson_sweep_draws_its_settings_in_blocks(self, monkeypatch, layout):
        # One rank draw for the whole sweep and one Gaussian draw per stack,
        # not one scalar call per rank and one per Gaussian matrix pair.
        # As many settings as two d x d complex blocks fit in SWEEP_STACK_BYTES,
        # at least one; 32,32 still takes several stacks.
        block = 2 * max(layout) ** 2 * np.dtype(complex).itemsize
        stacks = math.ceil(harness.TSIRELSON_SAMPLES / max(1, harness.SWEEP_STACK_BYTES // block))
        calls = Counter()
        original = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = original(seed)

            def integers(self, *args, **kwargs):
                calls["integers"] += 1
                return self.rng.integers(*args, **kwargs)

            def standard_normal(self, *args, **kwargs):
                calls["standard_normal"] += 1
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        assert run_scenario(cfg(scenario="tsirelson-sweep", layout=layout, seed=0)).passed
        assert calls == {"integers": 1, "standard_normal": stacks}

    @pytest.mark.parametrize("layout", [[2, 2], [7, 7], [3, 8], [12, 12]])
    def test_tsirelson_sweep_draws_half_width_gaussians(self, monkeypatch, layout):
        # Per setting and side, one d x (d // 2) complex Gaussian, real then imaginary.
        normals = []
        original = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = original(seed)
                self.integers = self.rng.integers

            def standard_normal(self, size):
                normals.append(math.prod(size))
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        assert run_scenario(cfg(scenario="tsirelson-sweep", layout=layout, seed=0)).passed
        assert sum(normals) == harness.TSIRELSON_SAMPLES * 2 * sum(d * (d // 2) for d in layout)

    @pytest.mark.parametrize("layout", [[2, 2], [7, 7], [8, 8], [3, 8]])
    def test_tsirelson_sweep_runs_half_width_qrs_and_eigvalsh(self, monkeypatch, layout):
        # Each frame spans P or 1 - P, whichever is smaller, and each eigenvalue
        # problem is E P (1 - E) or its adjoint, whichever has fewer rows.
        shapes = {"qr": [], "eigvalsh": []}
        for name, recorded in shapes.items():
            original = getattr(np.linalg, name)

            def recording(a, *args, _recorded=recorded, _original=original, **kwargs):
                _recorded.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        assert run_scenario(cfg(scenario="tsirelson-sweep", layout=layout, seed=0)).passed
        # Each stack runs A's side, then B's.
        for name, recorded in shapes.items():
            assert recorded and len(recorded) % 2 == 0
            for i, shape in enumerate(recorded):
                assert shape[-1] <= layout[i % 2] // 2, (name, i, shape)

    @pytest.mark.parametrize("layout,seed", [([3, 3], 0), ([8, 8], 1), ([3, 8], 7)])
    def test_tsirelson_sweep_sample_does_not_depend_on_the_stack_size(
            self, monkeypatch, layout, seed):
        config = cfg(scenario="tsirelson-sweep", layout=layout, seed=seed)
        default = run_scenario(config)
        reference = dict(zip(("min", "max"), tsirelson_sweep_reference(layout, seed)))
        stack_bytes = 2 * max(layout) ** 2 * np.dtype(complex).itemsize  # one setting's side
        for settings_per_stack in (1, harness.TSIRELSON_SAMPLES):
            monkeypatch.setattr(harness, "SWEEP_STACK_BYTES", settings_per_stack * stack_bytes)
            report = run_scenario(config)
            assert report.passed
            margins = report.certificates["margins"]
            for key, want in reference.items():
                assert abs(margins[key] - default.certificates["margins"][key]) <= 1e-14
                assert abs(margins[key] - want) <= 1e-14

    def test_cond_bell_recompute_is_independent_of_the_pipeline(self, monkeypatch):
        # A pipeline whose conditional correlation is off by 1e-6 must fail the recompute.
        original = correlations.conditional_bell_correlation
        patch_every_binding(monkeypatch, original, lambda *args: original(*args) + 1e-6)
        report = run_scenario(cfg(scenario="cond-bell", layout=[2, 2, 4], eps=0.05))
        checks = {a["name"]: a for a in report.assertions}
        assert checks["conditional_violation"]["passed"]
        assert not checks["conditional_recompute"]["passed"]

    def test_scenario_names_cover_dispatch(self):
        assert set(SCENARIOS) == {
            "reeh-schlieder", "root-cert", "epr",
            "bell-max", "tsirelson-sweep", "cond-bell",
        }

    def test_reeh_schlieder_certifies_the_ranks_it_asserts(self):
        # At a cutoff above both Schmidt coefficients (1/sqrt(2)) every rank is 0.
        report = run_scenario(cfg(scenario="reeh-schlieder", layout=[2, 2],
                                  tolerances={"schmidt_rank": 0.8}))
        checks = {a["name"]: a["lhs"] for a in report.assertions}
        assert checks["separating_rank_slot_0"] == checks["separating_rank_slot_1"] == 0
        assert report.certificates["certified_ranks"] == {"0": 0, "1": 0}

    def test_timings_recorded_but_not_emitted(self):
        report = run_scenario(cfg())
        assert report.timings["total_seconds"] > 0.0
        assert report.to_payload()["timings"] == {}
        assert report.to_payload(include_timings=True)["timings"] != {}


# A run may hold at most this share of one total_dim x total_dim complex
# matrix at its peak, so no such matrix (kron, eye, an embedding) fits in it.
FULL_SPACE_SHARE = 1 / 8


# tsirelson-sweep's peak stays below these multiples of the 256 KiB its stacks are
# sized at (SWEEP_STACK_BYTES): a stack's blocks and QR factors.  At 128,128 one
# setting's two d x d blocks already take twice the budget, and a stack holds one.
SWEEP_BUDGET = 256 * 1024
SWEEP_PEAK_MULTIPLES = [([64, 64], 2), ([128, 128], 4)]


def traced_peak(config: ScenarioConfig):
    """The report, and tracemalloc's peak in bytes during run_scenario."""
    tracemalloc.start()
    try:
        report = run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def peak_share(config: ScenarioConfig):
    """The report, and tracemalloc's peak during run_scenario over the bytes
    of one total_dim x total_dim complex matrix."""
    full = config.region_layout().total_dim ** 2 * np.dtype(complex).itemsize
    report, peak = traced_peak(config)
    return report, peak / full


class TestNoFullSpaceMatrix:
    @pytest.mark.parametrize("scenario,layout", [
        ("root-cert", [64, 64]),
        ("epr", [64, 64]),
        ("reeh-schlieder", [64, 64]),
        ("bell-max", [64, 64]),
        ("tsirelson-sweep", [32, 32]),
        ("reeh-schlieder", [8, 8, 64]),
        ("cond-bell", [8, 8, 64]),
    ])
    def test_peak_allocation_below_a_full_space_matrix(self, scenario, layout):
        report, share = peak_share(cfg(scenario=scenario, layout=layout, eps=0.05))
        assert report.passed
        assert share < FULL_SPACE_SHARE

    @pytest.mark.parametrize("layout,multiple", SWEEP_PEAK_MULTIPLES)
    def test_sweep_peak_is_bounded_by_its_stack_budget(self, layout, multiple):
        report, peak = traced_peak(cfg(scenario="tsirelson-sweep", layout=layout))
        assert report.passed
        assert peak < multiple * SWEEP_BUDGET

    @pytest.mark.parametrize("layout,multiple", SWEEP_PEAK_MULTIPLES)
    def test_sweep_guard_trips_on_one_stack_of_every_setting(self, monkeypatch, layout, multiple):
        block = 2 * max(layout) ** 2 * np.dtype(complex).itemsize
        monkeypatch.setattr(harness, "SWEEP_STACK_BYTES", harness.TSIRELSON_SAMPLES * block)
        report, peak = traced_peak(cfg(scenario="tsirelson-sweep", layout=layout))
        assert report.passed
        assert peak >= multiple * SWEEP_BUDGET

    def test_root_cert_holds_no_projector_matrix_per_eigenvalue(self):
        # Q1 has d distinct eigenvalues here; a d x d projector for each
        # would take d state vectors (total_dim = d^2 entries each).
        config = cfg(layout=[128, 128])
        report, share = peak_share(config)
        assert report.passed
        assert share * config.region_layout().total_dim < 32

    def test_guard_trips_on_a_dense_local_action(self, monkeypatch):
        def dense_apply(self, vec, layout):
            d0, d1 = layout.dims
            if self.slots == (0,):
                full = np.kron(self.matrix, np.eye(d1))
            else:
                full = np.kron(np.eye(d0), self.matrix)
            return full @ vec

        config = cfg(scenario="epr", layout=[32, 32], eps=0.05)
        assert peak_share(config)[1] < FULL_SPACE_SHARE
        monkeypatch.setattr(LocalOperator, "apply", dense_apply)
        report, share = peak_share(config)
        assert report.passed
        assert share >= FULL_SPACE_SHARE

    @pytest.mark.parametrize("scenario", ["bell-max", "tsirelson-sweep"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_bell_side_decomposes_only_local_factors(self, monkeypatch, scenario, d):
        bell_calls, sides = [], []
        original = correlations.bell_operator

        def recording_bell(*args):
            bell_calls.append(args)
            return original(*args)

        patch_every_binding(monkeypatch, original, recording_bell)
        # np.linalg.norm(a, 2) reaches svd through numpy's private module.
        numpy_modules = {np.linalg, sys.modules.get("numpy.linalg._linalg", np.linalg)}
        for fn_name in ("svd", "eigvalsh", "eigh"):
            def recording(a, *args, _fn=getattr(np.linalg, fn_name), **kwargs):
                sides.append(max(np.shape(a)[-2:]))  # matrix sides, not stack axes
                return _fn(a, *args, **kwargs)

            for module in numpy_modules:
                monkeypatch.setattr(module, fn_name, recording)
        assert run_scenario(cfg(scenario=scenario, layout=[d, d])).passed
        assert bell_calls == []
        assert sides and max(sides) <= d

    @pytest.mark.parametrize("dims", [(2, 3, 6), (8, 8, 64)])
    def test_cond_bell_forms_no_dense_bell_operator(self, monkeypatch, dims):
        # R01 is (d1 d2) wide: the root pipeline applies R term by term and reads
        # ||R|| once, by Landau's identity on the d1- and d2-wide commutators.
        counts = counting(monkeypatch, [(correlations, "bell_operator"),
                                        (linalg, "operator_norm")])
        sides = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kwargs: (
            sides.append(np.shape(a)[-1]) or eigvalsh(a, *args, **kwargs)))
        layout = local_algebra.RegionLayout(dims)
        report = violate_conditional_bell(layout, make_vacuum(layout, 0), 0.05)
        assert report.conditional.conditional_correlation > math.sqrt(2) - 0.05
        assert counts == {}
        assert sides and max(sides) < dims[0] * dims[1]


def record_schmidt_calls(monkeypatch) -> list:
    """The argument tuples of every ``schmidt_coefficients`` call from here on."""
    calls = []
    original = linalg.schmidt_coefficients
    patch_every_binding(monkeypatch, original,
                        lambda *args, **kw: calls.append(args) or original(*args, **kw))
    return calls


class TestSpectraComputedOnce:
    """A vacuum answers rank questions from one Gram bound per cut, formed on
    first use and kept as a float; its Schmidt spectrum is computed only where
    that bound cannot prove full rank, and at most once.  A root solve forms
    the one Gram it solves on, whose bound also proves the region cyclic.
    ||Q1|| and ||Q1 - Q1'|| come from Q1's spectrum."""

    @pytest.mark.parametrize("scenario,layout,svds", [
        ("root-cert", [2, 2], 0),
        ("root-cert", [8, 8], 0),
        ("epr", [4, 4], 0),
        ("cond-bell", [3, 3, 9], 0),
        ("reeh-schlieder", [8, 8], 1),  # the product state's cut 0
        ("reeh-schlieder", [3, 3, 9], 1),
    ])
    def test_schmidt_decompositions_per_run(self, monkeypatch, scenario, layout, svds):
        calls = record_schmidt_calls(monkeypatch)
        assert run_scenario(cfg(scenario=scenario, layout=layout, eps=0.05)).passed
        assert len(calls) == svds

    @pytest.mark.parametrize("scenario,layout,grams", [
        ("root-cert", [8, 8], 1),  # the solve onto slot 0, its bound the cyclic check
        ("epr", [4, 4], 1),
        ("cond-bell", [3, 3, 9], 1),  # the solve onto slot 2, likewise
        ("reeh-schlieder", [8, 8], 2),  # the vacuum's cut, the product state's
        ("reeh-schlieder", [3, 3, 9], 4),  # the vacuum's 3 cuts, the product state's cut 0
    ])
    def test_one_gram_per_cut(self, monkeypatch, scenario, layout, grams):
        counts = counting(monkeypatch, [(linalg, "gram_bound")])
        assert run_scenario(cfg(scenario=scenario, layout=layout, eps=0.05)).passed
        assert counts["gram_bound"] == grams

    @pytest.mark.parametrize("layout", [[2, 2], [16, 16], [3, 8]])
    def test_bell_max_takes_one_svd(self, monkeypatch, layout):
        # The five see-saw starts share the state's Schmidt values, from one SVD
        # that forms no vectors.
        calls = []
        original = np.linalg.svd

        def recording(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return original(a, *args, **kwargs)

        # np.linalg.norm(a, 2) reaches svd through numpy's private module.
        for module in {np.linalg, sys.modules.get("numpy.linalg._linalg", np.linalg)}:
            monkeypatch.setattr(module, "svd", recording)
        assert run_scenario(cfg(scenario="bell-max", layout=layout)).passed
        assert calls == [False]

    @pytest.mark.parametrize("layout", [[16, 16], [3, 8]])
    def test_bell_max_validates_no_lifted_seesaw_setting(self, monkeypatch, layout):
        # Only the canonical settings are d x d; the five see-saw starts are checked
        # once, as one stack of 2 x 2 settings on the canonical state's Schmidt support.
        shapes, built = [], []
        original = correlations.hermitian_contractions
        monkeypatch.setattr(correlations, "hermitian_contractions",
                            lambda x, names: shapes.append(x.shape) or original(x, names))
        init = correlations.BellSettings.__post_init__
        monkeypatch.setattr(correlations.BellSettings, "__post_init__",
                            lambda self: built.append(self) or init(self))
        assert run_scenario(cfg(scenario="bell-max", layout=layout)).passed
        assert len(built) == 1
        assert sorted(shapes) == sorted([(5, 4, 2, 2)] + [(2, d, d) for d in layout])

    @pytest.mark.parametrize("layout", [(2, 2), (3, 3, 9)])
    def test_from_vector_takes_no_spectrum(self, monkeypatch, layout):
        calls = record_schmidt_calls(monkeypatch)
        v = make_vacuum(local_algebra.RegionLayout(layout), 0)
        assert calls == [] and v.spectra == {}

    @pytest.mark.parametrize("layout,regions,cut", [
        ((3, 3), [(0,), (1,), (0,)], 0),  # both slots of 2 slots share cut 0
        ((2, 2, 4), [(2,), (0, 1), (1, 0), (2,)], 2),  # (0, 1) is cut 2 seen from the rest
        ((2, 2, 4), [(1,), (1,)], 1),
    ])
    def test_a_second_rank_on_a_cut_takes_no_spectrum(self, monkeypatch, layout, regions, cut):
        # The vacuum's Gram bound proves each rank; a product state needs the SVD.
        calls = record_schmidt_calls(monkeypatch)
        layout = local_algebra.RegionLayout(layout)
        v = make_vacuum(layout, 0)
        ranks = [v.schmidt_rank(region) for region in regions]
        assert calls == [] and v.spectra == {}
        assert list(v.bounds) == [cut]
        assert len(set(ranks)) == 1
        product = np.zeros(layout.total_dim, dtype=complex)
        product[0] = 1.0
        counter = local_algebra.VacuumModel.from_vector(layout, product)
        assert [counter.schmidt_rank(region) for region in regions] == [1] * len(regions)
        assert [args[2] for args in calls] == [cut]
        assert list(counter.spectra) == list(counter.bounds) == [cut]

    @pytest.mark.parametrize("layout,region", [((3, 3), (1,)), ((2, 2, 4), (0, 1))])
    def test_vacuum_holds_no_matrix_but_omega_and_spectra(self, layout, region):
        # A rank question caches one float per cut; the root solve's Gram is freed.
        layout = local_algebra.RegionLayout(layout)
        product = np.zeros(layout.total_dim, dtype=complex)
        product[0] = 1.0
        n = layout.n_slots
        regions = [r for k in range(1, n) for r in itertools.permutations(range(n), k)]
        slot = layout.complement(region)[0]
        a = LocalOperator(slot, np.eye(layout.dims[slot]))
        psi = np.full(layout.total_dim, layout.total_dim**-0.5, dtype=complex)
        v = make_vacuum(layout, 0)
        counter = local_algebra.VacuumModel.from_vector(layout, product)
        for r in regions:
            v.schmidt_rank(r)
            counter.schmidt_rank(r)
        root_theorem.root_products(a, psi, v, region)
        with pytest.raises(ValueError, match="not cyclic"):
            root_theorem.root_products(a, psi, counter, region)
        assert v.spectra == {} and counter.spectra
        for vacuum in (v, counter):
            held, arrays = list(vars(vacuum).values()), set()
            while held:  # every field, with its dicts and tuples opened
                x = held.pop()
                if isinstance(x, (dict, tuple)):
                    held.extend(x.values() if isinstance(x, dict) else x)
                elif isinstance(x, np.ndarray):
                    arrays.add(id(x))
            assert arrays == {id(vacuum.omega), *map(id, vacuum.spectra.values())}
            assert sorted(vacuum.bounds) == list(range(n if n == 3 else 1))
            assert all(isinstance(b, float) for b in vacuum.bounds.values())

    def test_root_certificate_takes_one_operator_norm(self, monkeypatch):
        # ||A||; ||Q1|| and the rescale error come from Q1's spectrum.
        calls = []
        original = local_algebra.operator_norm
        monkeypatch.setattr(local_algebra, "operator_norm",
                            lambda a: calls.append(a.shape) or original(a))
        assert run_scenario(cfg()).passed
        assert len(calls) == 1


def record_certifications(monkeypatch) -> list:
    """(the dense ||Q1 - Q1'||, certificate) for every ``certify_root`` call from
    here on, Q1 being the matrix whose eigendecomposition its products hold."""
    seen, q1 = [], {}
    eig, certify = root_theorem.hermitian_eig, root_theorem.certify_root

    def recording_eig(q):
        es = eig(q)
        q1[id(es)] = (es, q)
        return es

    def recording_certify(p, eps):
        cert = certify(p, eps)
        # Q1' = sum_i (lambda_i / q_expect) P_i over the certificate's kept eigenspaces.
        kept = len(cert.weights)
        coeffs = tuple(lam / cert.budget.q_expect for lam in p.spectrum.eigenvalues[:kept])
        dec = root_theorem.ProjectorDecomposition(p.slots, coeffs, p.spectrum.blocks[:kept], 0.0)
        seen.append((rescale_error_oracle(q1[id(p.spectrum)][1], dec), cert))
        return cert

    monkeypatch.setattr(root_theorem, "hermitian_eig", recording_eig)
    patch_every_binding(monkeypatch, certify, recording_certify)
    return seen


class TestSpectralRescaleError:
    """The rescale error read from Q1's eigenvalues is the dense
    ||Q1 - Q1'|| to rounding: 1e-13 absolute, or 1e-14 ||Q1|| once ||Q1||
    exceeds 10 (epr's ||Q1|| is about d)."""

    @pytest.mark.parametrize("scenario,layout,seed", [
        *[(scenario, layout, seed) for seed in (0, 1, 7)
          for scenario, layout in (("root-cert", [2, 2]), ("root-cert", [3, 3]),
                                   ("epr", [2, 2]), ("epr", [3, 3]), ("cond-bell", [2, 2, 4]))],
        *[(scenario, [d, d], 0) for d in (8, 32, 128, 256) for scenario in ("root-cert", "epr")],
    ])
    def test_matches_the_dense_difference(self, monkeypatch, scenario, layout, seed):
        seen = record_certifications(monkeypatch)
        assert run_scenario(cfg(scenario=scenario, layout=layout, seed=seed)).passed
        [(want, cert)] = seen
        tol = max(1e-13, 1e-14 * cert.budget.q_norm)
        assert abs(cert.achieved["rescale_error"] - want) <= tol

    @pytest.mark.parametrize("d", [3, 8, 32])
    def test_merged_eigenvalue_block(self, monkeypatch, d):
        # C~ = U diag(2, 1, ..., 1): Q1 has one eigenvalue of multiplicity d - 1,
        # merged from eigenvalues that differ in their last bits.
        layout = local_algebra.RegionLayout((d, d))
        v = make_vacuum(layout, 0)
        rng = np.random.default_rng(d)
        u = linalg.haar_unitary(linalg.complex_gaussian(d, rng))
        psi = LocalOperator(0, u * np.r_[2.0, np.ones(d - 1)]).apply(v.omega, layout)
        a = LocalOperator(1, linalg.random_hermitian(d, rng))
        seen = record_certifications(monkeypatch)
        products = root_theorem.root_products(a, psi / np.linalg.norm(psi), v, (0,))
        assert [b.shape[1] for b in products.spectrum.blocks] == [1, d - 1]
        assert len(set(products.spectrum.values[1:].tolist())) > 1
        for eps in (0.1, 0.01):
            cert = root_theorem.certify_root(products, eps)
            want = seen[-1][0]
            assert abs(cert.achieved["rescale_error"] - want) <= 1e-13


class TestOperatorNormPrecondition:
    """``operator_norm`` takes max |eigenvalue| and so needs Hermitian input:
    every call in the library passes a Hermitian matrix."""

    @pytest.fixture
    def norm_inputs(self, monkeypatch) -> list:
        inputs = []
        original = linalg.operator_norm

        def guarded(a):
            assert linalg.dagger_distance(a) <= linalg.NOISE_TOL
            inputs.append(a.shape)
            return original(a)

        patch_every_binding(monkeypatch, original, guarded)
        return inputs

    @pytest.mark.parametrize("scenario,layout,calls", [
        ("reeh-schlieder", [3, 3, 9], 0),
        ("root-cert", [3, 3], 1),  # ||A||
        ("epr", [3, 3], 1),
        ("bell-max", [3, 3], 0),  # every setting meets Landau's precondition
        ("tsirelson-sweep", [3, 3], 0),
        ("cond-bell", [2, 2, 4], 0),  # ||R|| by Landau's identity, read once
    ])
    def test_scenarios_pass_hermitian_input(self, norm_inputs, scenario, layout, calls):
        assert run_scenario(cfg(scenario=scenario, layout=layout, eps=0.05)).passed
        assert len(norm_inputs) == calls

    def test_library_callers_pass_hermitian_input(self, norm_inputs):
        layout = local_algebra.RegionLayout((2, 2, 4))
        v = make_vacuum(layout, 0)
        assert local_algebra.check_separating(v, (0,), trials=3)
        _, s = canonical_max_violation(layout)
        half = LocalOperator(0, 0.5 * s.a1.matrix)  # A1^2 != A2^2: the dense fallback
        assert tsirelson_certificate(correlations.BellSettings(half, s.a2, s.b1, s.b2),
                                     layout) >= 0.0
        correlations.general_contraction_extension(s.a1, s.a2, s.b1, s.b2, v, eps=0.05)
        # 3 trials, 1 dense norm and 2 commutators; the pipeline's ||R|| is Landau's.
        assert len(norm_inputs) == 6


class TestSweep:
    def test_rows_and_columns(self):
        table = sweep_eps(cfg(sweep=[0.1, 0.01, 0.001]))
        assert table.passed
        assert len(table.rows) == 3
        for row in table.rows:
            assert set(row) == set(SWEEP_COLUMNS)

    def test_budget_shrinks_with_eps(self):
        table = sweep_eps(cfg(sweep=[0.1, 0.01, 0.001]))
        eps5 = [row["eps5"] for row in table.rows]
        assert eps5 == sorted(eps5, reverse=True)

    def test_non_sweep_scenario_rejected(self):
        with pytest.raises(ConfigError, match="root-cert only"):
            sweep_eps(cfg(scenario="bell-max", sweep=None))

    def test_missing_sweep_list_rejected(self):
        with pytest.raises(ConfigError, match="missing eps list"):
            sweep_eps(cfg())

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_rows_equal_separate_runs_bit_for_bit(self, d, seed):
        table = sweep_eps(cfg(layout=[d, d], seed=seed, sweep=list(SWEEP_EPS)))
        for row, eps in zip(table.rows, SWEEP_EPS, strict=True):
            report = run_scenario(cfg(layout=[d, d], seed=seed, eps=eps))
            cert = report.certificates["root_certificate"]
            assert row == {
                "eps": eps,
                **{name: getattr(cert.budget, name) for name in SWEEP_COLUMNS[1:6]},
                **cert.achieved,
                "slack_max": cert.lhs_max - cert.rhs_max,
                "slack_min": cert.rhs_min - cert.lhs_min,
                "passed": report.passed,
            }


def counting(monkeypatch, targets) -> Counter:
    """Count the calls of each (module, name) in ``targets``, wherever a
    vacuumcorr module binds the function."""
    counts: Counter = Counter()
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        if module is np.linalg:
            monkeypatch.setattr(module, name, counted)
        else:
            patch_every_binding(monkeypatch, original, counted)
    return counts


class TestEachProductOnce:
    """The root pipeline's eps-independent products, once per report and
    once per eps sweep."""

    def test_once_per_sweep(self, monkeypatch):
        counts = counting(monkeypatch, [(local_algebra, "make_vacuum"), (np.linalg, "solve"),
                                        (linalg, "hermitian_eig")])
        assert sweep_eps(cfg(layout=[4, 4], sweep=list(SWEEP_EPS))).passed
        assert counts == {"make_vacuum": 1, "solve": 1, "hermitian_eig": 1}

    @pytest.mark.parametrize("layout", [[2, 2], [8, 8]])
    def test_per_report(self, monkeypatch, layout):
        # <A>_psi, C~ omega, <A>_{C omega} and A omega; V^† W and V^† (A omega)
        # come from one _block_overlaps call.
        counts = counting(monkeypatch, [(linalg, "apply_local"),
                                        (root_theorem, "_block_overlaps")])
        assert run_scenario(cfg(layout=layout)).passed
        assert counts["apply_local"] <= 4
        assert counts["_block_overlaps"] == 1


class TestSerialization:
    def test_canonical_json_sorted_and_formatted(self):
        text = canonical_json({"b": 0.1, "a": [1, True, None]})
        assert text == '{"a":[1,true,null],"b":0.10000000000000001}'

    def test_canonical_json_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(float("nan"))

    def test_report_json_parses(self):
        report = run_scenario(cfg())
        payload = json.loads(render_report(report, "json"))
        assert payload["schema"] == 1
        assert payload["config"]["scenario"] == "root-cert"
        assert payload["timings"] == {}

    def test_byte_identical_reports(self):
        a = render_report(run_scenario(cfg()), "json")
        b = render_report(run_scenario(cfg()), "json")
        assert a == b

    def test_json_csv_numeric_equivalence(self):
        report = run_scenario(cfg())
        rows = list(csv.DictReader(io.StringIO(render_report(report, "csv"))))
        assert len(rows) == len(report.assertions)
        for row, a in zip(rows, report.assertions):
            assert row["name"] == a["name"]
            assert float(row["lhs"]) == a["lhs"]
            assert float(row["rhs"]) == a["rhs"]
            assert (row["passed"] == "true") == a["passed"]

    def test_sweep_csv_round_trip(self):
        table = sweep_eps(cfg(sweep=[0.1, 0.01]))
        rows = list(csv.DictReader(io.StringIO(render_report(table, "csv"))))
        assert len(rows) == 2
        for row, want in zip(rows, table.rows):
            assert float(row["eps"]) == want["eps"]
            assert float(row["eps5"]) == want["eps5"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            render_report(run_scenario(cfg()), "xml")

    def test_emit_report_names_path_on_failure(self, tmp_path):
        report = run_scenario(cfg())
        bad = tmp_path / "missing-dir" / "report.json"
        with pytest.raises(OSError, match=str(bad)):
            emit_report(report, "json", bad)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("sweep", [None, [0.1, 0.01]])
    def test_emit_report_writes_what_render_report_returns(self, tmp_path, fmt, sweep):
        config = cfg(layout=[3, 3], sweep=sweep)
        report = sweep_eps(config) if sweep else run_scenario(config)
        path = tmp_path / "r.out"
        emit_report(report, fmt, path)
        assert path.read_bytes() == render_report(report, fmt).encode("ascii")

    @pytest.mark.parametrize("scenario,layout", [("root-cert", [3, 3]), ("cond-bell", [3, 3, 9])])
    def test_chunks_are_the_text_between_arrays_and_each_small_array(self, scenario, layout):
        report = run_scenario(cfg(scenario=scenario, layout=layout, eps=0.05))
        payload = report.to_payload()
        arrays = []

        def collect(value):
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif is_dataclass(value):
                collect({f.name: getattr(value, f.name) for f in fields(value)})
            elif isinstance(value, dict):
                for _, v in sorted(value.items()):
                    collect(v)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    collect(v)

        collect(payload)
        chunks = harness._report_chunks(report, "json", include_timings=False)
        assert len(chunks) == 2 * len(arrays) + 2  # the last is the newline
        assert chunks[1::2][:len(arrays)] == [canonical_json_reference(a) for a in arrays]

    def test_an_array_longer_than_chunk_chars_row_by_row(self):
        m = np.random.default_rng(0).standard_normal((120, 120)) * (1 + 1j)
        chunks = harness._json_chunks({"m": m})
        assert len(canonical_json_reference(m)) > harness.CHUNK_CHARS
        assert chunks[1:-1][1::2] == [canonical_json_reference(row) for row in m]
        assert "".join(chunks) == canonical_json_reference({"m": m})

    @pytest.mark.parametrize("scenario,layout,sweep", [
        ("reeh-schlieder", [3, 3, 9], None), ("root-cert", [8, 8], None),
        ("root-cert", [3, 3], list(SWEEP_EPS)), ("epr", [8, 8], None),
        ("bell-max", [3, 8], None), ("tsirelson-sweep", [4, 4], None),
        ("cond-bell", [2, 2, 4], None),
    ])
    def test_bytes_do_not_depend_on_chunk_chars(self, monkeypatch, tmp_path,
                                                scenario, layout, sweep):
        # CHUNK_CHARS = 1 splits every matrix into rows, 10**9 joins every array.
        config = cfg(scenario=scenario, layout=layout, eps=0.05, sweep=sweep)
        report = sweep_eps(config) if sweep else run_scenario(config)
        path = tmp_path / "r.out"
        want = {fmt: render_report(report, fmt) for fmt in ("json", "csv")}
        for chunk_chars in (1, 10**9):
            monkeypatch.setattr(harness, "CHUNK_CHARS", chunk_chars)
            for fmt, text in want.items():
                assert render_report(report, fmt) == text
                emit_report(report, fmt, path)
                assert path.read_bytes() == text.encode("ascii")

    def test_emit_report_byte_identical_files(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        emit_report(run_scenario(cfg()), "json", p1)
        emit_report(run_scenario(cfg()), "json", p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCLI:
    def test_run_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "run", "--scenario", "root-cert", "--layout", "2,2",
            "--seed", "7", "--eps", "0.01", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["schema"] == 1

    def test_config_error_exit_two(self, capsys):
        code = main(["run", "--scenario", "cond-bell", "--layout", "2,2,3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_layout_text_exit_two(self, capsys):
        code = main(["run", "--scenario", "root-cert", "--layout", "2,x"])
        assert code == 2

    @pytest.mark.parametrize("fields,flags,field", [
        ({"tolerances": {"budget_check": "abc"}}, [], "tolerances.budget_check"),
        ({"tolerances": {"schmidt_rank": float("inf")}}, [], "tolerances.schmidt_rank"),
        ({"tolerances": {"tsirelson_slack": 0}}, [], "tolerances.tsirelson_slack"),
        ({"tolerances": {"budget_check": True}}, [], "tolerances.budget_check"),
        ({"tolerances": 5}, [], "tolerances"),
        ({"tolerances": {"spectral_tau": 1e-9}}, [], "tolerances"),
        ({"seed": 1.7}, [], "seed"),
        ({"seed": -1}, [], "seed"),
        ({"layout": [2.5, 2.5]}, [], "layout"),
        ({}, ["--eps", "inf"], "eps"),
        ({"eps": "0.1"}, [], "eps"),
        ({}, ["--eps-list", "inf,0.1"], "sweep"),
        ({"sweep": 5}, [], "sweep"),
        ({"sweep": 0}, [], "sweep"),
        ({"sweep": []}, [], "sweep"),
    ])
    def test_bad_values_rejected_at_the_config(self, tmp_path, capsys, fields, flags, field):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(
            {"scenario": "root-cert", "layout": [2, 2], "seed": 1, "eps": 0.1, **fields}))
        command = "sweep" if "--eps-list" in flags else "run"
        code = main([command, "--config", str(config), *flags])
        assert code == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["null", "5", "[1, 2]", '"abc"'])
    def test_config_file_not_an_object_exit_two(self, tmp_path, capsys, text):
        config = tmp_path / "c.json"
        config.write_text(text)
        code = main(["run", "--config", str(config)])
        assert code == 2
        assert "config field 'config': expected a JSON object" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "scenario": "root-cert", "layout": [2, 2], "seed": 1, "eps": 0.1,
        }))
        out = tmp_path / "r.json"
        code = main([
            "run", "--config", str(config), "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 5
        assert payload["config"]["eps"] == 0.1

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--scenario", "root-cert", "--layout", "2,2",
            "--seed", "7", "--eps-list", "0.1,0.01", "--out", str(out),
            "--format", "csv",
        ])
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["passed"] == "true" for r in rows)

    def test_sweep_rejects_timings(self, capsys):
        # A sweep table records no timings, so the flag is registered on run only.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", "root-cert", "--layout", "2,2",
                  "--eps-list", "0.1,0.01", "--timings"])
        assert exc.value.code == 2
        assert "--timings" in capsys.readouterr().err

    def test_stdout_emission(self, capsys):
        code = main([
            "run", "--scenario", "tsirelson-sweep", "--layout", "2,2",
            "--seed", "3", "--eps", "0.01",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["scenario"] == "tsirelson-sweep"

    @pytest.mark.parametrize("command,fields,flags,stage", [
        # The least-squares residual (~1e-16) exceeds eps1.
        ("run", {"scenario": "cond-bell", "layout": [2, 2, 4]}, ["--eps", "1e-15"],
         "cyclic-approx"),
        # eps beyond the floating-point range of the eps1..eps5 chain.
        ("run", {"scenario": "root-cert"}, ["--eps", "1e16"], "budget"),
        ("run", {"scenario": "cond-bell", "layout": [2, 2, 4]}, ["--eps", "1e17"], "budget"),
        ("sweep", {"scenario": "root-cert"}, ["--eps-list", "1e20,0.01"], "budget"),
    ])
    def test_stage_failure_exit_three(self, tmp_path, command, fields, flags, stage):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"layout": [2, 2], "eps": 0.01, **fields}))
        proc = run_cli(command, "--config", str(config), *flags)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith(f"error: [{stage}] ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_missing_out_directory_exits_two_before_the_run(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def never(config):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(cli, "run_scenario", never)
        monkeypatch.setattr(cli, "sweep_eps", never)
        out = tmp_path / "missing-dir" / "r.json"
        code = main([command, "--scenario", "root-cert", "--layout", "2,2",
                     "--eps-list" if command == "sweep" else "--eps", "0.01", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field 'out': cannot write report to {out}")

    def test_unwritable_out_exit_two(self, tmp_path):
        out = tmp_path / "missing-dir" / "r.json"
        proc = run_cli("run", "--scenario", "root-cert", "--layout", "2,2", "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: config field 'out': cannot write report to {out}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("eps", ["1e-12", "1e-13", "1e-14"])
    @pytest.mark.parametrize("scenario,layout", [
        ("root-cert", "2,2"), ("epr", "3,3"), ("cond-bell", "2,2,4"),
    ])
    def test_small_eps_passes(self, capsys, scenario, layout, eps):
        # The spectral cutoff follows eps, so no stage fails above the float floor.
        code = main(["run", "--scenario", scenario, "--layout", layout,
                     "--seed", "0", "--eps", eps])
        assert code == 0, capsys.readouterr().err

    @given(case=st.sampled_from([
        ("run", "root-cert", "2,2"),
        ("run", "epr", "3,3"),
        ("run", "cond-bell", "2,2,4"),
        ("sweep", "root-cert", "2,2"),
    ]), log_eps=st.floats(-300, 300))
    @settings(max_examples=60, deadline=None)
    def test_any_eps_ends_in_an_exit_status(self, case, log_eps):
        command, scenario, layout = case
        eps_flag = "--eps-list" if command == "sweep" else "--eps"
        argv = [command, "--scenario", scenario, "--layout", layout,
                eps_flag, repr(10.0 ** log_eps)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 3), err.getvalue()

    def test_parser_built_once(self):
        parser = build_parser()
        assert build_parser() is parser
        assert parser.parse_args(["run", "--seed", "3"]).seed == 3
        assert parser.parse_args(["run"]).seed is None

    def test_subprocess_entry_point(self, tmp_path):
        out = tmp_path / "r.json"
        proc = run_cli("run", "--scenario", "bell-max", "--layout", "2,2",
                       "--seed", "0", "--eps", "0.01", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["schema"] == 1

    def test_subprocess_reports_reproducible(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli("run", "--scenario", "cond-bell", "--layout", "2,2,4",
                           "--seed", "11", "--eps", "0.05", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# Reference schema: the hand-written payload builders that reports were
# written with before the result dataclasses became the schema.

def _matrix_payload(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def _vector_payload(v):
    return [[float(x.real), float(x.imag)] for x in np.asarray(v).ravel()]


def _local_op_payload(op):
    return {"slots": list(op.slots), "matrix": _matrix_payload(op.matrix)}


def _certificate_payload(cert):
    return {
        "target_k": cert.target_k,
        "requested_eps": cert.requested_eps,
        "p_max": _local_op_payload(cert.p_max),
        "p_min": _local_op_payload(cert.p_min),
        "lhs_max": cert.lhs_max,
        "rhs_max": cert.rhs_max,
        "lhs_min": cert.lhs_min,
        "rhs_min": cert.rhs_min,
        "budget": {name: getattr(cert.budget, name) for name in (
            "eps1", "eps2", "eps3", "eps4", "eps5",
            "norm_a", "q_norm", "q_expect", "eps4_tilde")},
        "weights": list(cert.weights),
        "achieved": dict(cert.achieved),
    }


def _bell_report_payload(rep):
    payload = {
        "settings": {name: _local_op_payload(getattr(rep.settings, name))
                     for name in ("a1", "a2", "b1", "b2")},
        "state": _vector_payload(rep.state),
        "correlation": rep.correlation,
        "tsirelson_margin": rep.tsirelson_margin,
        "conditional": None,
    }
    if rep.conditional is not None:
        payload["conditional"] = {
            "p3": _local_op_payload(rep.conditional.p3),
            "p3_expect": rep.conditional.p3_expect,
            "conditional_correlation": rep.conditional.conditional_correlation,
            "certificate": _certificate_payload(rep.conditional.certificate),
        }
    return payload


def _config_payload(c):
    t = c.tolerances
    return {
        "scenario": c.scenario,
        "layout": list(c.layout),
        "seed": c.seed,
        "eps": c.eps,
        "sweep": list(c.sweep) if c.sweep else None,
        "tolerances": {"schmidt_rank": t.schmidt_rank, "tsirelson_slack": t.tsirelson_slack,
                       "budget_check": t.budget_check},
    }


def _oracle_certificates(c, report):
    """The certificate objects of a run, rebuilt from the library and written
    with the reference builders."""
    layout = c.region_layout()
    if c.scenario == "root-cert":
        return {"root_certificate": _certificate_payload(_root_cert(c, c.eps)[1])}
    if c.scenario == "epr":
        v = make_vacuum(layout, c.seed)
        p2 = random_projector(layout, 1, 1, c.seed)
        _, rep = epr_projector_pair(p2, v.omega, v, c.eps)
        return {"epr": {
            "p1": _local_op_payload(rep.p1),
            "p2": _local_op_payload(p2),
            "p1_expect": rep.p1_expect,
            "joint_expect": rep.joint_expect,
            "lower_bound": rep.lower_bound,
            "certificate": _certificate_payload(rep.certificate),
        }}
    if c.scenario == "bell-max":
        state, settings = canonical_max_violation(layout)
        rep = BellReport(settings, state, bell_correlation(settings, state, layout),
                         tsirelson_certificate(settings, layout))
        return {"bell": _bell_report_payload(rep)}
    if c.scenario == "cond-bell":
        rep = violate_conditional_bell(layout, make_vacuum(layout, c.seed), c.eps)
        return {"bell": _bell_report_payload(rep)}
    if c.scenario == "tsirelson-sweep":
        # The sweep's margins come from frames, the reference's from dense
        # reflections one setting at a time: they agree to 1e-14.
        got = report.certificates["margins"]
        reference = dict(zip(("min", "max"), tsirelson_sweep_reference(c.layout, c.seed)))
        for key, want in reference.items():
            assert abs(got[key] - want) <= 1e-14, key
        return {"margins": {key: got[key] for key in reference}}
    # reeh-schlieder carries plain numbers only.
    return report.certificates


class TestReportSchema:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("scenario,layout", [
        ("reeh-schlieder", [2, 2]), ("reeh-schlieder", [3, 3]), ("reeh-schlieder", [2, 2, 4]),
        ("root-cert", [2, 2]), ("root-cert", [3, 3]),
        ("epr", [2, 2]), ("epr", [3, 3]),
        ("bell-max", [2, 2]), ("bell-max", [3, 3]),
        # 12,12 takes 100 settings in chunks of 14; 32,32 in chunks of 2.
        ("tsirelson-sweep", [2, 2]), ("tsirelson-sweep", [3, 3]), ("tsirelson-sweep", [2, 5]),
        ("tsirelson-sweep", [12, 12]), ("tsirelson-sweep", [32, 32]),
        ("cond-bell", [2, 2, 4]),
    ])
    def test_report_bytes_match_the_reference_builders(self, scenario, layout, seed):
        c = cfg(scenario=scenario, layout=layout, seed=seed)
        report = run_scenario(c)
        oracle = {
            "schema": 1,
            "config": _config_payload(c),
            "assertions": report.assertions,
            "certificates": _oracle_certificates(c, report),
            "timings": {},
        }
        assert render_report(report, "json") == canonical_json_reference(oracle) + "\n"

    def test_sweep_bytes_match_the_reference_builders(self):
        c = cfg(sweep=[0.1, 0.01, 0.001])
        table = sweep_eps(c)
        oracle = {"schema": 1, "config": _config_payload(c),
                  "columns": list(SWEEP_COLUMNS), "rows": table.rows}
        assert render_report(table, "json") == canonical_json_reference(oracle) + "\n"


class TestCanonicalJsonArrays:
    EDGE = np.array([0.1, -0.0, 1e-300, -2.5e17, 1.0 / 3.0, 0.0])

    def test_vector_as_re_im_pairs(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        v[:6] += self.EDGE + 1j * self.EDGE[::-1]
        assert canonical_json(v) == canonical_json_reference(_vector_payload(v))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 2)])
    def test_matrix_as_rows_of_pairs(self, shape):
        rng = np.random.default_rng(1)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m.flat[:1] = -0.0 - 0.0j
        assert canonical_json(m) == canonical_json_reference(_matrix_payload(m))
        # A non-contiguous view and a real array are written the same way.
        assert canonical_json(m.T) == canonical_json_reference(_matrix_payload(m.T))
        assert canonical_json(m.real) == canonical_json_reference(_matrix_payload(m.real))

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
    def test_non_finite_entry_rejected(self, bad):
        v = np.zeros(3, dtype=complex)
        v[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(v)
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(np.stack([v, v]))


# Floats that stress 17-digit formatting, mixed into Hypothesis's own.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e-300,
               1.7e308, -1.7e308, 1.0 / 3.0, -2.5e17)
VIEWS = {
    "as-is": lambda a: a,
    "transposed": lambda a: a.T,
    "reversed": lambda a: a[::-1],
    "strided": lambda a: a[..., ::2],
}


@st.composite
def report_arrays(draw, min_side=0):
    """A real or complex array of 1 to 3 axes of 0..5 entries, or a view of one."""
    shape = tuple(draw(st.lists(st.integers(min_side, 5), min_size=1, max_size=3)))
    floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))
    parts = [np.array(draw(st.lists(floats, min_size=math.prod(shape),
                                    max_size=math.prod(shape))), dtype=float).reshape(shape)
             for _ in range(draw(st.sampled_from([1, 2])))]
    if len(parts) == 1:
        a = parts[0]
    else:
        a = np.empty(shape, dtype=complex)
        a.real, a.imag = parts
    return VIEWS[draw(st.sampled_from(sorted(VIEWS)))](a)


def payload_with(a, repeat: str) -> dict:
    """A report-like payload holding ``a``, and under a second key ``a`` itself,
    an equal copy, an array of the same shape and other values, or nothing."""
    payload = {"matrix": a, "scalars": [1, -0.0, None, True, "x"]}
    again = {"same object": a, "equal copy": a.copy(), "negated": -a}.get(repeat)
    if again is not None:
        payload["again"] = {"matrix": again}
    return payload


REPEATS = st.sampled_from(["once", "same object", "equal copy", "negated"])


class TestWriterMatchesReference:
    """The report writer against the one-float-at-a-time reference writer."""

    @given(a=report_arrays(), repeat=REPEATS)
    @settings(max_examples=300, deadline=None)
    def test_bytes_match(self, a, repeat):
        payload = payload_with(a, repeat)
        assert canonical_json(payload) == canonical_json_reference(payload)

    @pytest.mark.parametrize("shape,text", [((0,), "[]"), ((2, 0), "[[],[]]"),
                                            ((0, 3), "[]"), ((2, 0, 3), "[[],[]]")])
    def test_zero_size(self, shape, text):
        assert canonical_json(np.zeros(shape, dtype=complex)) == text
        assert canonical_json_reference(np.zeros(shape, dtype=complex)) == text

    @given(a=report_arrays(min_side=1), data=st.data(), repeat=REPEATS)
    @settings(max_examples=150, deadline=None)
    def test_non_finite_entry_rejected(self, a, data, repeat):
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        index = data.draw(st.integers(0, a.size - 1))
        parts = [a.real, a.imag] if np.iscomplexobj(a) else [a]
        data.draw(st.sampled_from(parts)).flat[index] = bad
        payload = payload_with(a, repeat)
        with pytest.raises(ValueError, match="non-finite") as got:
            canonical_json(payload)
        with pytest.raises(ValueError, match="non-finite") as want:
            canonical_json_reference(payload)
        assert str(got.value) == str(want.value)
