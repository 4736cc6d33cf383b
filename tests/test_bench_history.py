"""Tests for the append-only benchmark trajectory (benchmarks/) and the
trailing-median regression gate in check_bench."""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import bench_history  # noqa: E402
import check_bench  # noqa: E402


def _snapshot(min_s, *, name="test_transport", speedup=None, recorded="2026-08-05"):
    """A minimal pytest-benchmark document with one benchmark."""
    extra = {}
    if speedup is not None:
        extra["transport_speedup"] = speedup
    return {
        "datetime": recorded,
        "machine_info": {"node": "testhost"},
        "benchmarks": [
            {
                "name": name,
                "stats": {
                    "min": min_s,
                    "max": min_s * 2,
                    "mean": min_s * 1.5,
                    "median": min_s * 1.4,
                    "stddev": min_s * 0.1,
                    "rounds": 5,
                    "iqr": 0.0,  # not in _KEPT_STATS; must be dropped
                },
                "extra_info": extra,
            }
        ],
    }


def _trajectory(tmp_path, *mins, name="test_transport"):
    path = str(tmp_path / "BENCH_test.json")
    for value in mins:
        bench_history.append_snapshot(path, _snapshot(value, name=name))
    return path


class TestBenchHistory:
    def test_missing_file_is_empty_trajectory(self, tmp_path):
        trajectory = bench_history.load_trajectory(str(tmp_path / "nope.json"))
        assert trajectory == {"format": 1, "history": []}

    def test_legacy_snapshot_becomes_entry_zero(self, tmp_path):
        # Satellite of PR 5: the original single-snapshot BENCH_*.json
        # (with its ~2.2x transport speedup) migrates as entry 0.
        path = str(tmp_path / "BENCH_legacy.json")
        with open(path, "w") as handle:
            json.dump(_snapshot(0.010, speedup=2.2), handle)
        trajectory = bench_history.load_trajectory(path)
        assert len(trajectory["history"]) == 1
        entry = trajectory["history"][0]
        assert entry["machine"] == "testhost"
        bench = entry["benchmarks"][0]
        assert bench["extra_info"]["transport_speedup"] == 2.2
        assert "iqr" not in bench["stats"]  # slimmed

    def test_append_migrates_then_grows(self, tmp_path):
        path = str(tmp_path / "BENCH_legacy.json")
        with open(path, "w") as handle:
            json.dump(_snapshot(0.010, speedup=2.2), handle)
        total = bench_history.append_snapshot(path, _snapshot(0.011))
        assert total == 2
        history = bench_history.load_trajectory(path)["history"]
        assert history[0]["benchmarks"][0]["extra_info"] == {
            "transport_speedup": 2.2
        }

    def test_entries_age_out_at_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_history, "MAX_ENTRIES", 3)
        path = _trajectory(tmp_path, 0.001, 0.002, 0.003, 0.004, 0.005)
        history = bench_history.load_trajectory(path)["history"]
        assert [e["benchmarks"][0]["stats"]["min"] for e in history] == [
            0.003, 0.004, 0.005,
        ]

    def test_unrecognisable_content_raises(self, tmp_path):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as handle:
            handle.write("[1, 2, 3]")
        with pytest.raises(ValueError, match="neither"):
            bench_history.load_trajectory(path)
        with open(path, "w") as handle:
            handle.write("not json at all")
        with pytest.raises(ValueError, match="cannot read"):
            bench_history.load_trajectory(path)

    def test_cli_append_consumes_snapshot(self, tmp_path):
        trajectory = str(tmp_path / "BENCH_test.json")
        snapshot = str(tmp_path / "snap.json")
        with open(snapshot, "w") as handle:
            json.dump(_snapshot(0.010), handle)
        assert bench_history.main(["append", trajectory, snapshot]) == 0
        assert not os.path.exists(snapshot)  # consumed by default
        assert len(bench_history.load_trajectory(trajectory)["history"]) == 1

    def test_cli_append_keep_snapshot(self, tmp_path):
        trajectory = str(tmp_path / "BENCH_test.json")
        snapshot = str(tmp_path / "snap.json")
        with open(snapshot, "w") as handle:
            json.dump(_snapshot(0.010), handle)
        code = bench_history.main(
            ["append", trajectory, snapshot, "--keep-snapshot"]
        )
        assert code == 0
        assert os.path.exists(snapshot)

    def test_cli_append_bad_snapshot(self, tmp_path):
        snapshot = str(tmp_path / "snap.json")
        with open(snapshot, "w") as handle:
            handle.write("garbage")
        code = bench_history.main(
            ["append", str(tmp_path / "BENCH_test.json"), snapshot]
        )
        assert code == 2

    def test_entries_carry_provenance(self, tmp_path):
        # Each appended entry records who/where/what produced it, so
        # `repro analyze` can group history cross-commit/cross-machine.
        path = _trajectory(tmp_path, 0.010)
        entry = bench_history.load_trajectory(path)["history"][0]
        assert "commit" in entry  # "" when git is unavailable
        assert entry["host"] == "testhost"  # machine_info node wins
        assert entry["python"]  # machine_info or interpreter version
        # Run from inside this repo, the commit is a real hash.
        commit = bench_history._git_commit()
        if commit:
            assert entry["commit"] == commit
            assert len(commit) == 40
            int(commit, 16)

    def test_provenance_falls_back_without_machine_info(self, tmp_path,
                                                        monkeypatch):
        import platform
        import socket

        monkeypatch.setattr(bench_history, "_git_commit", lambda: "")
        doc = _snapshot(0.010)
        del doc["machine_info"]
        path = str(tmp_path / "BENCH_test.json")
        bench_history.append_snapshot(path, doc)
        entry = bench_history.load_trajectory(path)["history"][0]
        assert entry["commit"] == ""
        assert entry["host"] == socket.gethostname()
        assert entry["python"] == platform.python_version()

    def test_git_commit_best_effort_on_failure(self, monkeypatch):
        import subprocess

        def explode(*args, **kwargs):
            raise OSError("no git binary")

        monkeypatch.setattr(subprocess, "run", explode)
        assert bench_history._git_commit() == ""


class TestCheckBench:
    def test_passes_on_stable_trajectory(self, tmp_path, capsys):
        path = _trajectory(tmp_path, 0.010, 0.011, 0.0105)
        assert check_bench.main([path]) == 0
        out = capsys.readouterr().out
        assert "3 entries" in out
        assert "check_bench: OK" in out

    def test_single_entry_skips_trailing_median_gate(self, tmp_path):
        path = _trajectory(tmp_path, 0.010)
        assert check_bench.main([path]) == 0

    def test_fails_on_trailing_median_regression(self, tmp_path, capsys):
        # ISSUE 5 acceptance: check_bench gates a >= 2-entry trajectory.
        # Trailing median of [10ms, 11ms, 10.5ms] is 10.5ms; a 40ms
        # latest entry is > 3x slower.
        path = _trajectory(tmp_path, 0.010, 0.011, 0.0105, 0.040)
        assert check_bench.main([path]) == 1
        err = capsys.readouterr().err
        assert "trailing median" in err

    def test_median_resists_one_anomalous_run(self, tmp_path):
        # One anomalously fast early entry must not poison the reference
        # the way a latest-vs-best gate would (0.012 > 3 * 0.001).
        path = _trajectory(tmp_path, 0.001, 0.010, 0.011, 0.012)
        assert check_bench.main([path]) == 0

    def test_baseline_comparison(self, tmp_path, capsys):
        baseline = _trajectory(tmp_path, 0.010)
        current = str(tmp_path / "BENCH_now.json")
        bench_history.append_snapshot(current, _snapshot(0.050))
        assert check_bench.main([current, "--baseline", baseline]) == 1
        assert "vs baseline" in capsys.readouterr().err
        assert check_bench.main(
            [current, "--baseline", baseline, "--max-regression", "10"]
        ) == 0

    def test_unreadable_input_exits_2(self, tmp_path):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as handle:
            handle.write("garbage")
        with pytest.raises(SystemExit) as excinfo:
            check_bench.main([path])
        assert excinfo.value.code == 2

    def test_empty_trajectory_skips_with_warning(self, tmp_path, capsys):
        # First-run behaviour: a trajectory file that exists but has no
        # entries yet (fresh checkout, `make bench` not run) is not a
        # failure -- the gate warns and skips it.
        path = str(tmp_path / "BENCH_empty.json")
        with open(path, "w") as handle:
            json.dump({"format": 1, "history": []}, handle)
        assert check_bench.main([path]) == 0
        captured = capsys.readouterr()
        assert "no recorded entries yet" in captured.err
        assert "0 of 1 file(s) gated" in captured.out

    def test_empty_trajectory_skips_among_populated(self, tmp_path, capsys):
        # A mix of empty and populated trajectories still gates the
        # populated ones.
        empty = str(tmp_path / "BENCH_empty.json")
        with open(empty, "w") as handle:
            json.dump({"format": 1, "history": []}, handle)
        populated = _trajectory(tmp_path, 0.010, 0.011, 0.0105, 0.040)
        assert check_bench.main([empty, populated]) == 1
        captured = capsys.readouterr()
        assert "no recorded entries yet" in captured.err
        assert "trailing median" in captured.err

    def test_empty_baseline_is_ignored(self, tmp_path):
        baseline = str(tmp_path / "BENCH_base.json")
        with open(baseline, "w") as handle:
            json.dump({"format": 1, "history": []}, handle)
        current = _trajectory(tmp_path, 0.010)
        assert check_bench.main([current, "--baseline", baseline]) == 0

    def test_live_trajectories_pass_when_present(self):
        # The repo-root trajectories are local artifacts (gitignored);
        # when a developer has run `make bench`, the gate must hold.
        repo_root = os.path.dirname(BENCH_DIR)
        paths = [
            os.path.join(repo_root, name)
            for name in ("BENCH_engine.json", "BENCH_section4.json")
            if os.path.exists(os.path.join(repo_root, name))
        ]
        if not paths:
            pytest.skip("no local BENCH_*.json trajectories (run `make bench`)")
        assert check_bench.main(paths) == 0
