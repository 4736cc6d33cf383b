"""Tests for the repro.lint determinism & purity static-analysis pass.

Layout: each ``tests/fixtures/lint/<case>/`` directory is a miniature
``repro`` tree exercising one rule (positive + negative fixtures), so a
scan of one case directory isolates one rule's behaviour.  The meta
tests at the bottom pin the live contract: the committed tree has no
unsuppressed finding, each of its suppressions names its codes and a
reason, and an injected impurity in ``repro/obs/`` is caught.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
import textwrap
import unittest
from pathlib import Path

from repro.lint import SourceFile, lint_paths
from repro.lint.cli import build_parser, run
from repro.sim.simtime import TIME_EPS_S, is_zero_duration, times_close, times_equal

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"


def scan(case: str, codes=None):
    """Lint one fixture case directory."""
    report = lint_paths([FIXTURES / case], codes=codes)
    return report


def codes_by_file(report):
    """{file stem: sorted list of new finding codes}."""
    result = {}
    for finding in report.new:
        stem = Path(finding.path).stem
        result.setdefault(stem, []).append(finding.code)
    return {stem: sorted(codes) for stem, codes in result.items()}


class TestRep001SeededRngOnly(unittest.TestCase):
    def test_flags_module_level_rng_and_from_imports(self):
        found = codes_by_file(scan("rep001"))
        # bad_rng: `from random import choice` + random.random + random.randint
        self.assertEqual(found.get("bad_rng"), ["REP001", "REP001", "REP001"])

    def test_allows_seeded_random_instances(self):
        self.assertNotIn("good_rng", codes_by_file(scan("rep001")))

    def test_scope_excludes_non_simulation_packages(self):
        self.assertNotIn("out_of_scope", codes_by_file(scan("rep001")))


class TestRep002NoWallClock(unittest.TestCase):
    def test_flags_time_and_datetime_reads(self):
        found = codes_by_file(scan("rep002"))
        # time.time, perf_counter (from-import), datetime.datetime.now
        self.assertEqual(found.get("bad_clock"), ["REP002", "REP002", "REP002"])

    def test_runner_and_benchmarks_are_exempt(self):
        found = codes_by_file(scan("rep002"))
        self.assertNotIn("exempt_clock", found)
        self.assertNotIn("exempt_bench", found)
        self.assertNotIn("good_clock", found)


class TestRep003ObserverPurity(unittest.TestCase):
    def test_flags_scheduling_and_rng_in_obs(self):
        report = scan("rep003")
        messages = [f.message for f in report.new if Path(f.path).stem == "bad_observer"]
        # schedule, timeout, schedule_at, kickoff, arm, random draw
        self.assertEqual(len(messages), 6)
        for name in ("schedule", "timeout", "schedule_at", "kickoff", "arm"):
            self.assertTrue(any("`%s(...)`" % name in message for message in messages), name)
        self.assertTrue(any("RNG draw" in message for message in messages))

    def test_pure_observer_is_clean(self):
        self.assertNotIn("good_observer", codes_by_file(scan("rep003")))

    def test_reachability_crosses_package_boundaries(self):
        found = codes_by_file(scan("rep003_reach"))
        # leaky_helper is imported from repro.obs -> checked and flagged;
        # unreachable_helper schedules too but nothing in obs imports it.
        self.assertEqual(found.get("leaky_helper"), ["REP003"])
        self.assertNotIn("unreachable_helper", found)


class TestRep004NoFloatTimeEquality(unittest.TestCase):
    def test_flags_equality_on_time_like_operands(self):
        found = codes_by_file(scan("rep004"))
        # env.now == deadline, total_time != 0, env.now != 3.0
        self.assertEqual(found.get("bad_times"), ["REP004", "REP004", "REP004"])

    def test_tolerance_helpers_and_ordering_are_clean(self):
        self.assertNotIn("good_times", codes_by_file(scan("rep004")))


class TestRep005SlotsManifest(unittest.TestCase):
    def test_flags_manifest_class_without_slots(self):
        found = codes_by_file(scan("rep005"))
        self.assertEqual(found.get("message"), ["REP005"])

    def test_slotted_dataclass_satisfies_the_manifest(self):
        self.assertEqual(codes_by_file(scan("rep005_ok")), {})

    def test_manifest_drift_is_flagged(self):
        report = scan("rep005_drift")
        self.assertEqual([f.code for f in report.new], ["REP005"])
        self.assertIn("no longer exists", report.new[0].message)


class TestRep006KwOnlyConfigs(unittest.TestCase):
    def test_flags_positional_config_dataclasses(self):
        found = codes_by_file(scan("rep006"))
        self.assertEqual(found.get("bad_config"), ["REP006", "REP006"])

    def test_kw_only_and_non_config_dataclasses_are_clean(self):
        self.assertNotIn("good_config", codes_by_file(scan("rep006")))


class TestNoqaSuppression(unittest.TestCase):
    def test_matching_bare_and_list_directives_suppress(self):
        report = scan("noqa")
        # Four violations in the file; only the wrong-code line survives.
        self.assertEqual(len(report.new), 1)
        self.assertEqual(report.new[0].code, "REP001")
        self.assertIn("REP002", report.new[0].text)  # the mismatched directive

    def test_suppressed_findings_are_still_reported_separately(self):
        report = scan("noqa")
        self.assertEqual(len(report.suppressed), 3)


class TestCli(unittest.TestCase):
    def run_cli(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        args = build_parser().parse_args(list(argv))
        status = run(args, out, err)
        return status, out.getvalue(), err.getvalue()

    def test_exit_codes(self):
        status, _, _ = self.run_cli(str(FIXTURES / "rep004"))
        self.assertEqual(status, 1)
        status, _, _ = self.run_cli(str(FIXTURES / "rep005_ok"))
        self.assertEqual(status, 0)

    def test_json_format_is_parseable(self):
        status, out, _ = self.run_cli(
            str(FIXTURES / "rep004"), "--format", "json"
        )
        payload = json.loads(out)
        self.assertEqual(status, 1)
        self.assertEqual(
            sorted(payload), ["files_scanned", "new", "ok", "suppressed"]
        )
        self.assertFalse(payload["ok"])
        self.assertEqual(len(payload["new"]), 3)
        self.assertEqual({f["code"] for f in payload["new"]}, {"REP004"})

    def test_select_restricts_rules(self):
        status, out, _ = self.run_cli(
            str(FIXTURES / "noqa"), "--select", "REP004"
        )
        # The only REP004 violation in the noqa fixture is suppressed.
        self.assertEqual(status, 0)
        self.assertEqual(out, "")

    def test_unknown_select_code_is_a_usage_error(self):
        status, _, err = self.run_cli(
            str(FIXTURES / "rep004"), "--select", "REP999"
        )
        self.assertEqual(status, 2)
        self.assertIn("REP999", err)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(FIXTURES / "rep005_ok")],
            capture_output=True, text=True,
            env=_env_with_src(), cwd=str(REPO_ROOT),
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)


class TestLiveTree(unittest.TestCase):
    """The contract this PR ships: the committed tree is clean."""

    def test_src_is_clean_against_committed_baseline(self):
        """The baseline is zero findings: nothing grandfathers one."""
        report = lint_paths([REPO_ROOT / "src"])
        self.assertEqual(
            [f.format() for f in report.new], [],
            "new lint findings in src/ -- fix them or (for true false "
            "positives only) suppress the line with "
            "`# repro: noqa REPxxx -- reason`",
        )

    def test_every_suppression_names_its_codes_and_reason(self):
        """A suppression's reason lives only on its line, so every
        directive in src/repro names the codes it silences and says why.
        (repro/lint/ is skipped: its docstrings quote the syntax.)"""
        package = REPO_ROOT / "src" / "repro"
        reasoned = re.compile(r"#\s*repro:\s*noqa\b[\sA-Z0-9,:]*--\s*\S", re.I)
        checked = 0
        for path in sorted(package.rglob("*.py")):
            if package / "lint" in path.parents:
                continue
            file = SourceFile(path, path.read_text(encoding="utf-8"))
            for line, codes in file.noqa.items():
                where = "%s:%d" % (file.package_path, line)
                self.assertTrue(
                    all(re.fullmatch(r"REP\d{3}", code) for code in codes), where
                )
                self.assertRegex(file.lines[line - 1], reasoned, where)
                checked += 1
        self.assertTrue(checked)

    def test_injected_schedule_in_obs_is_flagged(self):
        """Acceptance: REP003 provably catches an Environment.schedule
        call injected into repro/obs/."""
        with _tempdir() as tmp:
            obs = Path(tmp) / "repro" / "obs"
            obs.mkdir(parents=True)
            (obs / "evil.py").write_text(
                textwrap.dedent(
                    '''
                    """An observer that cheats."""


                    class CheatingTracer:
                        enabled = True

                        def emit(self, env, kind, node, **detail):
                            env.schedule(env.event())
                    '''
                )
            )
            report = lint_paths([Path(tmp)])
            self.assertEqual([f.code for f in report.new], ["REP003"])
            self.assertIn("schedule", report.new[0].message)

    def test_injected_wall_clock_in_sim_is_flagged(self):
        with _tempdir() as tmp:
            sim = Path(tmp) / "repro" / "sim"
            sim.mkdir(parents=True)
            (sim / "drift.py").write_text(
                "import time\n\n\ndef now():\n    return time.time()\n"
            )
            report = lint_paths([Path(tmp)])
            self.assertEqual([f.code for f in report.new], ["REP002"])


class TestRep002ExemptionManifest(unittest.TestCase):
    """Satellite of PR 5: the REP002 carve-outs live in one manifest
    (repro.lint.exemptions) scoped to repro/obs/telemetry*, and the
    rule provably still fires everywhere else in repro/obs/."""

    _CLOCK_READ = "import time\n\n\ndef stamp():\n    return time.perf_counter()\n"

    def test_telemetry_module_is_exempt(self):
        with _tempdir() as tmp:
            obs = Path(tmp) / "repro" / "obs"
            obs.mkdir(parents=True)
            (obs / "telemetry.py").write_text(self._CLOCK_READ)
            report = lint_paths([Path(tmp)], codes=["REP002"])
            self.assertEqual([f.format() for f in report.new], [])

    def test_rule_still_fires_elsewhere_in_obs(self):
        with _tempdir() as tmp:
            obs = Path(tmp) / "repro" / "obs"
            obs.mkdir(parents=True)
            (obs / "telemetry.py").write_text(self._CLOCK_READ)
            (obs / "tracer_extra.py").write_text(self._CLOCK_READ)
            report = lint_paths([Path(tmp)], codes=["REP002"])
            self.assertEqual([f.code for f in report.new], ["REP002"])
            self.assertTrue(report.new[0].path.endswith("tracer_extra.py"))

    def test_manifest_entries_have_reasons(self):
        from repro.lint.exemptions import EXEMPTIONS

        self.assertIn("REP002", EXEMPTIONS)
        self.assertIn("repro/obs/telemetry", EXEMPTIONS["REP002"])
        for prefixes in EXEMPTIONS.values():
            for prefix, reason in prefixes.items():
                self.assertTrue(reason.strip(), "empty reason for %s" % prefix)


class TestRep007IterationOrder(unittest.TestCase):
    def test_flags_set_and_sink_feeding_dict_view_iteration(self):
        report = scan("rep007")
        findings = [f for f in report.new if Path(f.path).stem == "bad_order"]
        # set loop; dict-view loop with a schedule sink; dict-view
        # comprehension with an RNG sink; dict-view loop with a kickoff.
        self.assertEqual([f.code for f in findings], ["REP007"] * 4)

    def test_sorted_sink_free_and_set_to_set_are_clean(self):
        self.assertNotIn("good_order", codes_by_file(scan("rep007")))

    def test_flags_set_valued_instance_attribute_loops(self):
        # SetMembers binds self.members to a set in __init__ and loops
        # over it in notify(); DictMembers does the same with a dict.
        report = scan("rep007")
        findings = [f for f in report.new if Path(f.path).stem == "attr_order"]
        self.assertEqual([(f.code, f.line) for f in findings], [("REP007", 10)])

    def test_scope_excludes_unordered_areas(self):
        self.assertNotIn("out_of_scope", codes_by_file(scan("rep007")))


class TestRep008HeapKeyTotality(unittest.TestCase):
    def test_flags_missing_tiebreak_and_id_keys(self):
        found = codes_by_file(scan("rep008"))
        self.assertEqual(found.get("bad_heap"), ["REP008", "REP008"])

    def test_sequence_and_nested_tiebreaks_are_clean(self):
        self.assertNotIn("good_heap", codes_by_file(scan("rep008")))


class TestRep009LaneReentrancy(unittest.TestCase):
    def test_flags_direct_and_transitive_lane_mutation(self):
        report = scan("rep009")
        findings = [f for f in report.new if Path(f.path).stem == "bad_callback"]
        self.assertEqual([f.code for f in findings], ["REP009", "REP009"])
        # One direct array mutation, one reached through a helper method.
        lines = sorted(f.line for f in findings)
        self.assertLess(lines[0], lines[1])

    def test_push_and_reads_inside_callbacks_are_clean(self):
        self.assertNotIn("good_callback", codes_by_file(scan("rep009")))


class TestRep010CrossShardState(unittest.TestCase):
    def test_flags_runtime_mutation_of_reachable_module_state(self):
        report = scan("rep010")
        findings = [f for f in report.new if Path(f.path).stem == "shared_cache"]
        # The subscript write in lookup() and the `global` rebind in
        # bump(); the import-time _TABLE fill stays clean.
        self.assertEqual([f.code for f in findings], ["REP010", "REP010"])

    def test_unreachable_module_is_clean(self):
        self.assertNotIn("unreached", codes_by_file(scan("rep010")))

    def test_manifest_exemption_applies_but_rule_fires_outside_it(self):
        # memo.py mutates module state and IS reachable from the seed,
        # but sits under the manifest's repro/runner/ carve-out --
        # while the same shape outside the manifest (shared_cache)
        # still fires in the same scan.
        found = codes_by_file(scan("rep010"))
        self.assertNotIn("memo", found)
        self.assertIn("shared_cache", found)

    def test_live_reach_follows_lazy_package_exports(self):
        """The package inits' first-use re-exports sit in ``__getattr__``
        bodies and stay edges: the sharded path still reaches the figure
        drivers and the Section 3 analyses through them."""
        from repro.lint.imports import module_map, reachable_modules
        from repro.lint.sharedstate import _SEEDS

        report = lint_paths([REPO_ROOT / "src"], codes=["REP010"])
        reachable = reachable_modules(module_map(report.files), _SEEDS)
        self.assertIn("repro.experiments.section4", reachable)
        self.assertIn("repro.trace.analysis", reachable)

    def test_live_manifest_entries_have_reasons(self):
        from repro.lint.exemptions import EXEMPTIONS

        self.assertIn("repro/runner/", EXEMPTIONS["REP010"])
        self.assertIn("repro/scenarios/registry", EXEMPTIONS["REP010"])
        for prefix, reason in EXEMPTIONS["REP010"].items():
            self.assertTrue(reason.strip(), "empty reason for %s" % prefix)


class TestRep011NoEnvConfig(unittest.TestCase):
    def test_flags_every_environment_access_form(self):
        report = scan("rep011")
        findings = [f for f in report.new if Path(f.path).stem == "bad_env"]
        self.assertEqual([f.code for f in findings], ["REP011"] * 6)
        # os.environ / os.getenv / aliased os.putenv / os.unsetenv, plus
        # one finding per environment name bound by `from os import`.
        messages = " ".join(f.message for f in findings)
        for name in ("environ", "getenv", "putenv", "unsetenv"):
            self.assertIn("`os.%s`" % name, messages)
        self.assertIn("`from os import environ`", messages)
        self.assertIn("`from os import getenv`", messages)

    def test_path_helpers_strings_and_lookalikes_are_clean(self):
        self.assertNotIn("good_env", codes_by_file(scan("rep011")))

    def test_scope_is_the_repro_package(self):
        self.assertNotIn("bench_env", codes_by_file(scan("rep011")))

    def test_rule_has_no_exemption_entry(self):
        from repro.lint.exemptions import EXEMPTIONS

        self.assertNotIn("REP011", EXEMPTIONS)


class TestNewRulesExemptionManifest(unittest.TestCase):
    """REP007-REP009 consult the manifest too: an injected carve-out is
    honored, and the rule provably still fires outside it."""

    def _scan_with_exemption(self, code, prefix, case):
        from repro.lint.exemptions import EXEMPTIONS

        added = code not in EXEMPTIONS
        EXEMPTIONS.setdefault(code, {})[prefix] = "test carve-out"
        try:
            return scan(case, codes=[code])
        finally:
            if added:
                del EXEMPTIONS[code]
            else:
                del EXEMPTIONS[code][prefix]

    def test_rep007_honors_manifest_but_fires_outside(self):
        report = self._scan_with_exemption(
            "REP007", "repro/sim/bad_order", "rep007"
        )
        # Only the un-exempted attr_order fixture still fires.
        self.assertEqual([Path(f.path).stem for f in report.new], ["attr_order"])
        # Without the carve-out the same scan fires (proved by
        # TestRep007IterationOrder); here prove a non-matching prefix
        # does not silence it.
        report = self._scan_with_exemption(
            "REP007", "repro/cdn/elsewhere", "rep007"
        )
        self.assertEqual(len(report.new), 5)

    def test_rep008_honors_manifest_but_fires_outside(self):
        report = self._scan_with_exemption(
            "REP008", "repro/sim/bad_heap", "rep008"
        )
        self.assertEqual([f.format() for f in report.new], [])
        report = self._scan_with_exemption(
            "REP008", "repro/cdn/elsewhere", "rep008"
        )
        self.assertEqual(len(report.new), 2)

    def test_rep009_honors_manifest_but_fires_outside(self):
        report = self._scan_with_exemption(
            "REP009", "repro/cdn/bad_callback", "rep009"
        )
        self.assertEqual([f.format() for f in report.new], [])
        report = self._scan_with_exemption(
            "REP009", "repro/sim/elsewhere", "rep009"
        )
        self.assertEqual(len(report.new), 2)


class TestRep003LazyAndNestedReachability(unittest.TestCase):
    """Satellite: the REP003 import graph follows function-local (lazy)
    imports and ancestor packages of nested imports."""

    def test_lazy_import_target_is_checked(self):
        found = codes_by_file(scan("rep003_lazy"))
        self.assertEqual(found.get("lazy_helper"), ["REP003"])

    def test_ancestor_package_of_nested_import_is_checked(self):
        report = scan("rep003_nested")
        paths = [Path(f.path) for f in report.new]
        self.assertEqual([f.code for f in report.new], ["REP003"])
        self.assertEqual(paths[0].name, "__init__.py")
        self.assertEqual(paths[0].parent.name, "inner_pkg")

    def test_pure_leaf_of_nested_import_is_clean(self):
        self.assertNotIn("leaf", codes_by_file(scan("rep003_nested")))


class TestNoqaOnNewRules(unittest.TestCase):
    def test_matching_directives_suppress_every_new_rule(self):
        report = scan("noqa_new")
        suppressed = sorted(f.code for f in report.suppressed)
        self.assertEqual(
            suppressed,
            ["REP001", "REP007", "REP007", "REP008", "REP009", "REP010"],
        )

    def test_wrong_code_directive_still_flags(self):
        report = scan("noqa_new")
        self.assertEqual([f.code for f in report.new], ["REP007"])
        self.assertIn("REP002", report.new[0].text)

    def test_multi_code_line_suppresses_both_rules(self):
        report = scan("noqa_new")
        by_line = {}
        for finding in report.suppressed:
            if Path(finding.path).stem == "ordered":
                by_line.setdefault(finding.line, []).append(finding.code)
        # The comprehension line carries REP001 (unseeded RNG) and
        # REP007 (dict-view feeding an RNG sink) on one directive.
        multi = [codes for codes in by_line.values() if len(codes) > 1]
        self.assertEqual(len(multi), 1)
        self.assertEqual(sorted(multi[0]), ["REP001", "REP007"])


class TestSimtimeHelpers(unittest.TestCase):
    def test_times_equal_within_eps(self):
        self.assertTrue(times_equal(1.0, 1.0 + TIME_EPS_S / 2))
        self.assertFalse(times_equal(1.0, 1.0 + 3 * TIME_EPS_S))

    def test_times_close_scales_with_magnitude(self):
        horizon = 8760.0
        self.assertTrue(times_close(horizon, horizon * (1 + 1e-12)))
        self.assertFalse(times_close(horizon, horizon + 1.0))

    def test_is_zero_duration(self):
        self.assertTrue(is_zero_duration(0.0))
        self.assertTrue(is_zero_duration(-TIME_EPS_S / 10))
        self.assertFalse(is_zero_duration(0.004))


def _tempdir():
    import tempfile

    return tempfile.TemporaryDirectory()


def _env_with_src():
    import os

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


if __name__ == "__main__":
    unittest.main()
