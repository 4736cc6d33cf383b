"""Tests for the alternating A/B pair runner (benchmarks/pairs.py)."""

import importlib.util
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import pairs  # noqa: E402

MSGS = {"name": "msgs_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}
RSS = {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.03}

#: Ten parent runs with quartiles 99 and 101 (interquartile range 2).
PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def _pairs(name, parent, change):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def _row(metric, parent, change, claim=None):
    (row,) = pairs.summarize([metric], _pairs(metric["name"], parent, change), claim)
    return row


def test_nine_of_ten_wins_beyond_the_parent_spread_claims():
    change = [p + 20.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    row = _row(MSGS, PARENT, change, claim="msgs_per_s")
    assert (row["wins"], row["n"]) == (9, 10)
    assert row["parent"][2] - row["parent"][0] < row["change"][1] - row["parent"][1]
    assert row["verdict"] == "claimed"
    assert row["change_pct"] == pytest.approx(20.0)


def test_eight_of_ten_wins_does_not_claim():
    change = [p + 20.0 for p in PARENT[:8]] + [PARENT[8] - 1.0, PARENT[9] - 1.0]
    row = _row(MSGS, PARENT, change, claim="msgs_per_s")
    assert (row["wins"], row["n"]) == (8, 10)
    assert row["verdict"] == "not claimed"


def test_fewer_than_ten_pairs_never_claim():
    for n in (1, 5, 9):
        row = _row(MSGS, PARENT[:n], [p + 20.0 for p in PARENT[:n]], claim="msgs_per_s")
        assert (row["wins"], row["n"]) == (n, n)
        assert row["verdict"] == "not claimed"


def test_a_gap_within_the_parent_spread_does_not_claim():
    change = [p + 0.5 for p in PARENT]
    row = _row(MSGS, PARENT, change, claim="msgs_per_s")
    assert row["wins"] == 10
    assert row["verdict"] == "not claimed"


def test_ties_count_for_neither_side():
    row = _row(MSGS, PARENT, list(PARENT), claim="msgs_per_s")
    assert row["wins"] == 0
    assert row["verdict"] == "not claimed"


def test_a_drop_wins_for_a_lower_is_better_metric():
    parent = [2.0 + 0.01 * i for i in range(10)]
    change = [p - 0.4 for p in parent]
    row = _row(WALL, parent, change, claim="wall_s")
    assert row["wins"] == 10
    assert row["change_pct"] < 0
    assert row["verdict"] == "claimed"
    # The same drop read as a higher-is-better metric loses every pair.
    assert _row(dict(WALL, better="higher"), parent, change)["wins"] == 0


def test_a_metric_worse_than_its_bound_is_flagged():
    parent = [50.0] * 10
    worse = _row(RSS, parent, [52.0] * 10)  # +4%, bound 3%
    assert worse["verdict"] == "worse than bound"
    assert _row(RSS, parent, [51.0] * 10)["verdict"] == "within bound"  # +2%
    # A higher-is-better metric is worse when it falls.
    assert _row(MSGS, PARENT, [p * 0.7 for p in PARENT])["verdict"] == "worse than bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [50.0, 48.0, 52.0, 47.0, 53.0, 50.0, 49.0, 51.0, 46.0, 54.0]
    row = _row(RSS, parent, list(reversed(parent)))
    assert row["verdict"] == "unresolved"
    # ... unless every change run beats every parent run.
    assert _row(RSS, parent, [p - 10.0 for p in parent])["verdict"] == "within bound"


def test_pairs_missing_a_metric_are_left_out():
    pair_list = _pairs("msgs_per_s", PARENT, [p + 20.0 for p in PARENT])
    pair_list.append(({}, {"msgs_per_s": 1.0}))  # a side that reported nothing
    (row,) = pairs.summarize([MSGS, WALL], pair_list, "msgs_per_s")
    assert row["n"] == 10 and row["verdict"] == "claimed"


def test_every_end_to_end_metric_has_a_direction_and_bound():
    for metric in pairs.load_spec()["end_to_end"]:
        assert metric["better"] in ("higher", "lower")
        assert metric["bound"] > 0


def _fake_checkout(root, result):
    """A directory whose ``benchmarks/e2e/run.py`` prints *result*."""
    script = root / "benchmarks" / "e2e" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text("import json\nprint(json.dumps(%r))\n" % (result,))
    return str(root)


def _result(correct, msgs_per_s):
    return {"correct": correct, "attempted": 2, "failed": 0 if correct else 1,
            "metrics": {"msgs_per_s": {"value": msgs_per_s, "unit": "1/s"}}}


def test_main_exits_1_on_an_incorrect_run(tmp_path, capsys):
    parent = _fake_checkout(tmp_path / "parent", _result(True, 100.0))
    good = _fake_checkout(tmp_path / "good", _result(True, 130.0))
    bad = _fake_checkout(tmp_path / "bad", _result(False, 130.0))
    argv = ["--parent", parent, "--workload", "push-fanout", "--seed", "5",
            "--pairs", "2", "--claim", "msgs_per_s"]
    assert pairs.main(argv + ["--change", good]) == 0
    out = capsys.readouterr().out
    assert "pair  1/2 (parent first)" in out and "pair  2/2 (change first)" in out
    assert "msgs_per_s 100->130" in out
    # Two pairs are too few to claim, however clear the gain.
    assert "2/2  not claimed" in out and out.endswith("msgs_per_s: not claimed\n")
    assert pairs.main(argv + ["--change", bad]) == 1
    out = capsys.readouterr().out
    assert "change run not correct" in out and "msgs_per_s 100->130" not in out
    assert out.endswith("msgs_per_s: not claimed\n")


def _scripted_runs(monkeypatch, tmp_path, incorrect_change_runs):
    """Stub :func:`pairs.run_side` for two fake checkouts: the parent
    reads 100 msgs/s and the change 130, and the change's runs numbered
    in *incorrect_change_runs* (from 1) report ``"correct": false`` with
    their metrics.  Returns ``main``'s arguments for ten pairs."""
    parent = _fake_checkout(tmp_path / "parent", _result(True, 0.0))
    change = _fake_checkout(tmp_path / "change", _result(True, 0.0))
    change_runs = []

    def run_side(spec, checkout, workload, seed):
        if checkout == parent:
            return _result(True, 100.0)
        change_runs.append(seed)
        return _result(len(change_runs) not in incorrect_change_runs, 130.0)

    monkeypatch.setattr(pairs, "run_side", run_side)
    return ["--parent", parent, "--change", change, "--workload", "push-fanout",
            "--seed", "5", "--claim", "msgs_per_s"]


def test_main_claims_over_ten_correct_pairs(monkeypatch, tmp_path, capsys):
    argv = _scripted_runs(monkeypatch, tmp_path, incorrect_change_runs=())
    assert pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert "10/10  claimed" in out and out.endswith("msgs_per_s: claimed\n")


def test_main_leaves_a_pair_with_an_incorrect_run_out(monkeypatch, tmp_path, capsys):
    # The incorrect run's metrics would win its pair, but the pair
    # leaves the summary, so nine pairs remain: too few to claim.
    argv = _scripted_runs(monkeypatch, tmp_path, incorrect_change_runs=(4,))
    assert pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "pair 4: change run not correct" in out
    assert "9/9  not claimed" in out and out.endswith("msgs_per_s: not claimed\n")


def test_main_compiles_both_checkouts_before_the_first_pair(monkeypatch, tmp_path):
    parent = _fake_checkout(tmp_path / "parent", _result(True, 100.0))
    change = _fake_checkout(tmp_path / "change", _result(True, 100.0))
    sources = []
    for checkout in (parent, change):
        module = os.path.join(checkout, "src", "mod.py")
        os.makedirs(os.path.dirname(module))
        with open(module, "w") as handle:
            handle.write("X = 1\n")
        sources += [module, os.path.join(checkout, "benchmarks", "e2e", "run.py")]
    compiled_at_first_run = []

    def run_side(spec, checkout, workload, seed):
        if not compiled_at_first_run:
            compiled_at_first_run.extend(
                os.path.exists(importlib.util.cache_from_source(path)) for path in sources
            )
        return _result(True, 100.0)

    # As under PYTHONDONTWRITEBYTECODE=1: an import would write no .pyc.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(pairs, "run_side", run_side)
    argv = ["--parent", parent, "--change", change, "--workload", "push-fanout",
            "--seed", "5", "--pairs", "1"]
    assert pairs.main(argv) == 0
    assert compiled_at_first_run == [True] * 4
