"""Tests for the ``repro scenario`` subcommand and ``sweep --scenarios``."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_run_defaults(self):
        args = build_parser().parse_args(["scenario", "run", "paper-baseline"])
        assert args.scenario_command == "run"
        assert args.name == "paper-baseline"
        assert args.method == "ttl"
        assert args.scale == "smoke"
        assert args.workers == 1 and args.registry is None

    def test_scenario_run_small_scale_accepted(self):
        args = build_parser().parse_args(
            ["scenario", "run", "paper-baseline", "--scale", "small"]
        )
        assert args.scale == "small"

    def test_sweep_accepts_scenarios(self):
        args = build_parser().parse_args(
            ["sweep", "--scenarios", "paper-baseline", "storm"]
        )
        assert args.scenarios == ["paper-baseline", "storm"]


class TestScenarioCommands:
    def test_list_table(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-baseline" in out
        assert "zipf-catalog" in out

    def test_list_json(self, capsys):
        assert main(["scenario", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        names = [row["name"] for row in rows]
        assert "paper-baseline" in names
        assert len(names) >= 6
        assert all("summary" in row and "aliases" in row for row in rows)

    def test_describe(self, capsys):
        assert main(["scenario", "describe", "failure-storm"]) == 0
        out = capsys.readouterr().out
        assert "failure-storm" in out
        assert "cells" in out

    def test_describe_json_expands_cells(self, capsys):
        assert main(
            ["scenario", "describe", "zipf-catalog", "--json", "--scale", "smoke"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_cells"] == 6
        assert data["cells"][0]["label"] == "obj-00"

    def test_describe_unknown_exits(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenario", "describe", "smoke-signals"])

    def test_run_smoke(self, capsys):
        assert main(
            ["scenario", "run", "paper-baseline", "--scale", "small"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario: paper-baseline" in out
        assert "mean user lag" in out

    def test_run_json(self, capsys):
        assert main(
            ["scenario", "run", "flash-crowd", "--scale", "smoke", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "scenario:flash-crowd"
        assert data["summary"]["n_cells"] == 1
        assert data["params"]["method"] == "ttl"

    def test_run_system(self, capsys):
        assert main(
            ["scenario", "run", "failure-storm", "--system", "hybrid"]
        ) == 0
        out = capsys.readouterr().out
        assert "system:hybrid" in out
        assert "node downtime" in out

    def test_run_alias(self, capsys):
        assert main(["scenario", "run", "baseline"]) == 0
        assert "scenario: paper-baseline" in capsys.readouterr().out

    def test_run_registry_memoizes(self, capsys, tmp_path):
        registry = str(tmp_path / "runs.json")
        assert main(
            ["scenario", "run", "flash-crowd", "--registry", registry]
        ) == 0
        capsys.readouterr()
        assert main(
            ["scenario", "run", "flash-crowd", "--registry", registry]
        ) == 0
        assert "1 cache hit(s)" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(
            ["scenario", "compare", "paper-baseline", "failure-storm"]
        ) == 0
        out = capsys.readouterr().out
        assert "best:" in out and "worst:" in out
        assert "paper-baseline" in out and "failure-storm" in out

    def test_compare_json(self, capsys):
        assert main(
            ["scenario", "compare", "paper-baseline", "flash-crowd", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["series"]) == {"paper-baseline", "flash-crowd"}
        assert data["summary"]["user_lag_ordering"]


class TestSweepScenarios:
    def test_sweep_expands_catalog_cells(self, capsys):
        assert main(
            [
                "sweep",
                "--methods", "ttl",
                "--infrastructures", "unicast",
                "--scenarios", "zipf-catalog",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario=zipf-catalog[0]" in out
        assert "scenario=zipf-catalog[5]" in out

    def test_sweep_default_scenario_keeps_legacy_labels(self, capsys):
        assert main(
            [
                "sweep",
                "--methods", "ttl",
                "--infrastructures", "unicast",
                "--scenarios", "paper-baseline",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "ttl/unicast seed=0" in out
        assert "scenario=" not in out

    def test_sweep_scenarios_with_systems(self, capsys):
        assert main(
            ["sweep", "--systems", "hybrid", "--scenarios", "storm"]
        ) == 0
        out = capsys.readouterr().out
        assert "system:hybrid" in out
        assert "failure-storm" in out
