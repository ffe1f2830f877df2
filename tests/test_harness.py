import csv
import io
import json
import subprocess
import sys

import pytest

from vacuumcorr.cli import main
from vacuumcorr.harness import (
    SCENARIOS,
    SWEEP_COLUMNS,
    ConfigError,
    ScenarioConfig,
    canonical_json,
    emit_report,
    render_report,
    run_scenario,
    sweep_eps,
)


def cfg(**overrides) -> ScenarioConfig:
    data = {"scenario": "root-cert", "layout": [2, 2], "seed": 7, "eps": 0.01}
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


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
        # from_dict treats a falsy sweep as absent; the constructor rejects it.
        assert cfg(sweep=[]).sweep is None
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
        assert c.tolerances.spectral_tau == 1e-12

    def test_report_echoes_the_four_tolerances(self):
        payload = run_scenario(cfg()).to_payload()
        assert payload["config"]["tolerances"] == {
            "budget_check": 1e-9, "schmidt_rank": 1e-9,
            "spectral_tau": 1e-12, "tsirelson_slack": 1e-9,
        }


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

    @pytest.mark.parametrize("scenario,layout,path", [
        ("epr", [2, 2], ("epr", "certificate")),
        ("cond-bell", [2, 2, 4], ("bell", "conditional", "certificate")),
    ])
    def test_spectral_tau_reaches_the_pipeline(self, scenario, layout, path):
        report = run_scenario(cfg(scenario=scenario, layout=layout, eps=0.05,
                                  tolerances={"spectral_tau": 1e-9}))
        assert report.passed
        cert = report.certificates
        for key in path:
            cert = cert[key]
        assert cert["budget"]["eps4_tilde"] == 1e-9

    @pytest.mark.parametrize("layout,seed", [([3, 3], 483374545), ([4, 4], 1542785184)])
    def test_bell_max_survives_classical_seesaw_stalls(self, layout, seed):
        # Every start of these seeds first lands on the classical fixed point 1.
        report = run_scenario(cfg(scenario="bell-max", layout=layout, seed=seed))
        assert report.passed

    def test_scenario_names_cover_dispatch(self):
        assert set(SCENARIOS) == {
            "reeh-schlieder", "root-cert", "epr",
            "bell-max", "tsirelson-sweep", "cond-bell",
        }

    def test_timings_recorded_but_not_emitted(self):
        report = run_scenario(cfg())
        assert report.timings["total_seconds"] > 0.0
        assert report.to_payload()["timings"] == {}
        assert report.to_payload(include_timings=True)["timings"] != {}


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
        ({"tolerances": {"spectral_tau": -1}}, [], "tolerances.spectral_tau"),
        ({"tolerances": {"spectral_tau": float("nan")}}, [], "tolerances.spectral_tau"),
        ({"tolerances": {"schmidt_rank": float("inf")}}, [], "tolerances.schmidt_rank"),
        ({"tolerances": {"tsirelson_slack": 0}}, [], "tolerances.tsirelson_slack"),
        ({"tolerances": {"budget_check": True}}, [], "tolerances.budget_check"),
        ({"tolerances": 5}, [], "tolerances"),
        ({"seed": 1.7}, [], "seed"),
        ({"seed": -1}, [], "seed"),
        ({"layout": [2.5, 2.5]}, [], "layout"),
        ({}, ["--eps", "inf"], "eps"),
        ({"eps": "0.1"}, [], "eps"),
        ({}, ["--eps-list", "inf,0.1"], "sweep"),
        ({"sweep": 5}, [], "sweep"),
    ])
    def test_bad_values_rejected_at_the_config(self, tmp_path, capsys, fields, flags, field):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(
            {"scenario": "root-cert", "layout": [2, 2], "seed": 1, "eps": 0.1, **fields}))
        command = "sweep" if "--eps-list" in flags else "run"
        code = main([command, "--config", str(config), *flags])
        assert code == 2
        assert f"config field '{field}'" in capsys.readouterr().err

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
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert all(r["passed"] == "true" for r in rows)

    def test_stdout_emission(self, capsys):
        code = main([
            "run", "--scenario", "tsirelson-sweep", "--layout", "2,2",
            "--seed", "3", "--eps", "0.01",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["scenario"] == "tsirelson-sweep"

    def test_subprocess_entry_point(self, tmp_path):
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "vacuumcorr", "run",
             "--scenario", "bell-max", "--layout", "2,2",
             "--seed", "0", "--eps", "0.01", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["schema"] == 1

    def test_subprocess_reports_reproducible(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "vacuumcorr", "run",
                 "--scenario", "cond-bell", "--layout", "2,2,4",
                 "--seed", "11", "--eps", "0.05", "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
