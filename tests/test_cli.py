"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_measure_defaults(self):
        args = build_parser().parse_args(["measure"])
        assert args.command == "measure"
        assert args.servers == 150

    def test_evaluate_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--method", "smoke-signals"])

    def test_advise_requires_rates(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise", "--servers", "10"])

    def test_evaluate_accepts_registry_aliases(self):
        args = build_parser().parse_args(["evaluate", "--method", "inval"])
        assert args.method == "inval"

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.methods == ["push", "invalidation", "ttl"]
        assert args.infrastructures == ["unicast"]
        assert args.workers == 1 and args.registry is None
        assert args.trace_dir is None
        assert args.sample_rate is None and args.budget is None

    def test_sweep_trace_tuning_requires_trace_dir(self, capsys):
        for flags in (["--sample-rate", "0.1"], ["--budget", "8"]):
            with pytest.raises(SystemExit) as raised:
                main(["sweep"] + flags)
            assert raised.value.code == 2
            assert "requires --trace-dir" in capsys.readouterr().err

    def test_sweep_rejects_out_of_range_trace_tuning(self, tmp_path, capsys):
        for flags in (["--sample-rate", "1.5"], ["--budget", "-1"]):
            with pytest.raises(SystemExit) as raised:
                main(["sweep", "--trace-dir", str(tmp_path)] + flags)
            assert raised.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_sweep_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--methods", "smoke-signals"])


class TestCommands:
    def test_measure_runs(self, capsys, tmp_path):
        save_path = str(tmp_path / "trace.json")
        code = main(
            ["measure", "--servers", "40", "--days", "2", "--save", save_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "inferred TTL" in out
        assert "contradicts a multicast tree" in out
        from repro.trace import CdnTrace

        assert CdnTrace.load(save_path).n_servers == 40

    def test_evaluate_runs(self, capsys):
        code = main(
            [
                "evaluate",
                "--method", "push",
                "--servers", "8",
                "--users-per-server", "1",
                "--updates", "10",
                "--duration", "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "push/unicast" in out
        assert "traffic cost" in out

    def test_advise_strict_hot(self, capsys):
        code = main(
            [
                "advise",
                "--update-rate", "0.05",
                "--visit-rate", "0.5",
                "--servers", "100",
                "--tolerance", "1",
            ]
        )
        assert code == 0
        assert "recommendation: push" in capsys.readouterr().out

    def test_sweep_runs_grid(self, capsys):
        code = main(
            [
                "sweep",
                "--methods", "push", "ttl",
                "--server-ttls", "10", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "push/unicast" in out and "ttl/unicast" in out
        assert "ran 4 deployment(s) (0 cache hit(s))" in out

    def test_sweep_second_run_hits_registry(self, capsys, tmp_path):
        registry = str(tmp_path / "runs.json")
        argv = ["sweep", "--methods", "push", "--registry", registry]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "ran 1 deployment(s) (0 cache hit(s))" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "ran 0 deployment(s) (1 cache hit(s))" in second
        # cached metrics are bit-identical: the result rows match exactly
        assert first.splitlines()[1] == second.splitlines()[1]

    def test_sweep_trace_dir_streams_one_sink_per_deployment(
        self, capsys, tmp_path
    ):
        argv = ["sweep", "--methods", "push", "ttl"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        trace_dir = tmp_path / "trace"
        assert main(
            argv + ["--trace-dir", str(trace_dir), "--sample-rate", "0.5",
                    "--budget", "4"]
        ) == 0
        traced = capsys.readouterr().out
        assert plain.splitlines()[1:3] == traced.splitlines()[1:3]
        sinks = sorted(path.name for path in trace_dir.iterdir())
        assert len(sinks) == 2
        assert all(name.endswith(".trace.jsonl") for name in sinks)

    def test_sweep_systems_mode(self, capsys):
        code = main(["sweep", "--systems", "hat", "push"])
        assert code == 0
        out = capsys.readouterr().out
        assert "system:hat" in out and "system:push" in out

    def test_advise_bursty(self, capsys):
        code = main(
            [
                "advise",
                "--update-rate", "0.05",
                "--visit-rate", "0.2",
                "--servers", "100",
                "--tolerance", "30",
                "--silence-fraction", "0.8",
            ]
        )
        assert code == 0
        assert "recommendation: self-adaptive" in capsys.readouterr().out
