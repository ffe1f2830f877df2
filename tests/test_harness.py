import contextlib
import csv
import io
import json
import re
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli, tsirelson_sweep_reference

from vacuumcorr import correlations, harness, linalg, root_theorem
from vacuumcorr.cli import build_parser, main
from vacuumcorr.correlations import (
    BellReport,
    bell_correlation,
    canonical_max_violation,
    contraction_from_projector,
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

README = Path(__file__).resolve().parents[1] / "README.md"


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
        assert payload["config"]["tolerances"] == {
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
        cert = report.certificates
        for key in path:
            cert = cert[key]
        budget = cert["budget"]
        # The derived cutoff leaves ||A|| eps4 at most half of its eps/2 share.
        assert budget["norm_a"] * budget["eps4"] <= cert["requested_eps"] / 4
        assert cert["achieved"]["decomposition_residual"] <= budget["eps4_tilde"]

    @pytest.mark.parametrize("layout,seed", [([3, 3], 483374545), ([4, 4], 1542785184)])
    def test_bell_max_survives_classical_seesaw_stalls(self, layout, seed):
        # Every start of these seeds first lands on the classical fixed point 1.
        report = run_scenario(cfg(scenario="bell-max", layout=layout, seed=seed))
        assert report.passed

    def test_bell_max_asserts_the_tsirelson_margin(self):
        report = run_scenario(cfg(scenario="bell-max", layout=[2, 2],
                                  tolerances={"tsirelson_slack": 1e-6}))
        check = {a["name"]: a for a in report.assertions}["tsirelson_margin"]
        assert check["passed"] and check["op"] == ">=" and check["rhs"] == -1e-6
        assert check["lhs"] == report.certificates["bell"]["tsirelson_margin"]

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


def peak_share(config: ScenarioConfig):
    """The report, and tracemalloc's peak during run_scenario over the bytes
    of one total_dim x total_dim complex matrix."""
    full = config.region_layout().total_dim ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        report = run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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


class TestSpectraComputedOnce:
    """Each Schmidt spectrum of the vacuum, and ||Q1||, is computed once."""

    @pytest.mark.parametrize("scenario,layout,svds", [
        ("root-cert", [2, 2], 1),
        ("root-cert", [8, 8], 1),
        ("epr", [4, 4], 1),
        ("cond-bell", [3, 3, 9], 3),
        ("reeh-schlieder", [8, 8], 2),
        ("reeh-schlieder", [3, 3, 9], 6),
    ])
    def test_schmidt_decompositions_per_run(self, monkeypatch, scenario, layout, svds):
        calls = []
        original = linalg.schmidt_coefficients
        patch_every_binding(monkeypatch, original,
                            lambda *args, **kw: calls.append(args) or original(*args, **kw))
        assert run_scenario(cfg(scenario=scenario, layout=layout, eps=0.05)).passed
        assert len(calls) == svds

    def test_root_certificate_takes_two_operator_norms(self, monkeypatch):
        # ||A|| and the measured rescale error; ||Q1|| comes from the spectrum.
        calls = []
        original = root_theorem.operator_norm
        monkeypatch.setattr(root_theorem, "operator_norm",
                            lambda a: calls.append(a.shape) or original(a))
        assert run_scenario(cfg()).passed
        assert len(calls) == 2


class TestTsirelsonSweepStacks:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_stacked_contractions_match_one_at_a_time(self, d):
        # Each 2P - 1 of a stack carries the bits of the single-setting path:
        # P = B B^† with B the first rank columns of the Haar unitary.
        rng = np.random.default_rng(d)
        ranks = rng.integers(1, d + 1, size=(25, 2))
        gaussians = np.array([[linalg.complex_gaussian(d, rng) for _ in range(2)]
                              for _ in range(25)])
        got = harness._random_contractions(ranks, gaussians, ("A1", "A2"))
        for idx in np.ndindex(25, 2):
            u = linalg.haar_unitary(gaussians[idx])
            x = contraction_from_projector(LocalOperator(0, linalg.projector(u[:, :ranks[idx]])))
            assert np.array_equal(got[idx], 0.5 * (x.matrix + x.matrix.conj().T))


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
        lo, hi = tsirelson_sweep_reference(c.layout, c.seed)
        return {"margins": {"min": lo, "max": hi}}
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
        assert render_report(report, "json") == canonical_json(oracle) + "\n"

    def test_sweep_bytes_match_the_reference_builders(self):
        c = cfg(sweep=[0.1, 0.01, 0.001])
        table = sweep_eps(c)
        oracle = {"schema": 1, "config": _config_payload(c),
                  "columns": list(SWEEP_COLUMNS), "rows": table.rows}
        assert render_report(table, "json") == canonical_json(oracle) + "\n"


class TestCanonicalJsonArrays:
    EDGE = np.array([0.1, -0.0, 1e-300, -2.5e17, 1.0 / 3.0, 0.0])

    def test_vector_as_re_im_pairs(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        v[:6] += self.EDGE + 1j * self.EDGE[::-1]
        assert canonical_json(v) == canonical_json(_vector_payload(v))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 2)])
    def test_matrix_as_rows_of_pairs(self, shape):
        rng = np.random.default_rng(1)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m.flat[:1] = -0.0 - 0.0j
        assert canonical_json(m) == canonical_json(_matrix_payload(m))
        # A non-contiguous view and a real array are written the same way.
        assert canonical_json(m.T) == canonical_json(_matrix_payload(m.T))
        assert canonical_json(m.real) == canonical_json(_matrix_payload(m.real))

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
    def test_non_finite_entry_rejected(self, bad):
        v = np.zeros(3, dtype=complex)
        v[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(v)
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(np.stack([v, v]))
