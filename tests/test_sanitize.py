"""Tests for the runtime schedule sanitizer (repro.sim.sanitize) and
the ``repro sanitize`` driver (repro.experiments.sanitize).

The driver-level identity checks here run deliberately tiny cells; the
CI-scale proof lives in ``make sanitize-smoke``.
"""

from __future__ import annotations

import dataclasses
import io
import unittest

import pytest

from repro.experiments.config import TestbedConfig
from repro.experiments.sanitize import (
    build_parser,
    driver_config,
    main as driver_main,
    run as run_driver,
    sanitize_cell,
)
from repro.sim.engine import NORMAL, URGENT, Environment
from repro.sim.sanitize import SanitizerError, ScheduleSanitizer
from repro.sim.timers import CallbackLane


class TestTieKey(unittest.TestCase):
    def test_without_tie_seed_returns_plain_sequence(self):
        sanitizer = ScheduleSanitizer(tie_seed=None)
        self.assertEqual(sanitizer.tie_key(1.0, NORMAL, 7), 7)
        self.assertEqual(sanitizer.tie_collisions, 0)

    def test_perturbed_keys_keep_seq_and_count_collisions(self):
        sanitizer = ScheduleSanitizer(tie_seed=42)
        keys = [sanitizer.tie_key(1.0, NORMAL, seq) for seq in range(3)]
        for seq, key in enumerate(keys):
            self.assertIsInstance(key, tuple)
            self.assertEqual(key[1], seq)
        # First entry in a (time, priority) slot is not a collision;
        # the two that joined it are.
        self.assertEqual(sanitizer.tie_collisions, 2)
        # A different time is a fresh slot.
        sanitizer.tie_key(2.0, NORMAL, 3)
        self.assertEqual(sanitizer.tie_collisions, 2)

    def test_urgent_entries_are_never_perturbed(self):
        sanitizer = ScheduleSanitizer(tie_seed=42)
        self.assertEqual(sanitizer.tie_key(1.0, URGENT, 5), 5)
        self.assertEqual(sanitizer.tie_key(1.0, URGENT, 6), 6)
        self.assertEqual(sanitizer.tie_collisions, 0)

    def test_perturbation_is_reproducible_per_seed(self):
        draws = []
        for _ in range(2):
            sanitizer = ScheduleSanitizer(tie_seed=7)
            draws.append(
                [sanitizer.tie_key(1.0, NORMAL, seq)[0] for seq in range(4)]
            )
        self.assertEqual(draws[0], draws[1])


class TestEnginePerturbation(unittest.TestCase):
    """The kernel honors the sanitizer at every push site."""

    @staticmethod
    def _pop_order(tie_seed):
        env = Environment(
            sanitizer=ScheduleSanitizer(tie_seed=tie_seed)
            if tie_seed is not None
            else None
        )
        order = []
        for name in "abcdef":
            event = env.event()
            event.callbacks.append(
                lambda _ev, name=name: order.append(name)
            )
            event._ok = True
            event._value = None
            env.schedule(event, delay=1.0)
        env.run()
        return order

    def test_fifo_without_sanitizer(self):
        self.assertEqual(self._pop_order(None), list("abcdef"))

    def test_tie_seed_reorders_same_instant_events(self):
        perturbed = self._pop_order(1)
        self.assertEqual(sorted(perturbed), list("abcdef"))
        # A seed that happens to produce FIFO would make this vacuous;
        # seed 1 over six events does not.
        self.assertNotEqual(perturbed, list("abcdef"))

    def test_same_seed_is_reproducible(self):
        self.assertEqual(self._pop_order(3), self._pop_order(3))

    def test_time_order_is_preserved_across_instants(self):
        env = Environment(sanitizer=ScheduleSanitizer(tie_seed=9))
        order = []
        for delay, name in [(2.0, "late"), (1.0, "early"), (2.0, "late2")]:
            event = env.event()
            event.callbacks.append(
                lambda _ev, name=name: order.append(name)
            )
            event._ok = True
            event._value = None
            env.schedule(event, delay=delay)
        env.run()
        self.assertEqual(order[0], "early")
        self.assertEqual(sorted(order[1:]), ["late", "late2"])


class TestDivergenceDetection(unittest.TestCase):
    """A model with hidden order dependence provably diverges.

    Miniature of the hazard REP007 hunts statically: same-instant
    callbacks each drawing from one *shared* model stream.  Reordering
    the ties re-pairs draws with consumers, so per-consumer results
    change even though the draw multiset does not.
    """

    @staticmethod
    def _shared_stream_outcome(tie_seed):
        import random

        env = Environment(
            sanitizer=ScheduleSanitizer(tie_seed=tie_seed)
            if tie_seed is not None
            else None
        )
        model_rng = random.Random(0)
        draws = {}
        for name in "abcdef":
            event = env.event()
            event.callbacks.append(
                lambda _ev, name=name: draws.__setitem__(
                    name, model_rng.random()
                )
            )
            event._ok = True
            event._value = None
            env.schedule(event, delay=1.0)
        env.run()
        return draws

    def test_shared_stream_pairing_diverges_under_perturbation(self):
        baseline = self._shared_stream_outcome(None)
        perturbed = self._shared_stream_outcome(1)
        self.assertEqual(
            sorted(baseline.values()), sorted(perturbed.values())
        )  # same draw multiset...
        self.assertNotEqual(baseline, perturbed)  # ...paired differently

    def test_per_consumer_streams_are_immune(self):
        # The repo-wide fix pattern: one seeded stream per consumer
        # (StreamRegistry) instead of one shared stream drawn in event
        # order.
        import random

        def outcome(tie_seed):
            env = Environment(
                sanitizer=ScheduleSanitizer(tie_seed=tie_seed)
                if tie_seed is not None
                else None
            )
            draws = {}
            for index, name in enumerate("abcdef"):
                rng = random.Random(index)
                event = env.event()
                event.callbacks.append(
                    lambda _ev, name=name, rng=rng: draws.__setitem__(
                        name, rng.random()
                    )
                )
                event._ok = True
                event._value = None
                env.schedule(event, delay=1.0)
            env.run()
            return draws

        self.assertEqual(outcome(None), outcome(4))


class TestLaneTraps(unittest.TestCase):
    def _lane_env(self, traps):
        sanitizer = ScheduleSanitizer(tie_seed=None, traps=True) if traps else None
        return Environment(sanitizer=sanitizer)

    def test_evil_callback_is_trapped(self):
        env = self._lane_env(traps=True)
        holder = {}

        def evil(payload):
            holder["lane"].deadlines.append(99.0)  # ragged arrays

        lane = CallbackLane(env, evil, lambda payload: payload is None)
        holder["lane"] = lane
        lane.push(1.0, "payload")
        with self.assertRaises(SanitizerError) as caught:
            env.run(until=2.0)
        self.assertIn("ragged", str(caught.exception))

    def test_head_move_is_trapped(self):
        env = self._lane_env(traps=True)
        holder = {}

        def evil(payload):
            holder["lane"].head = 5

        lane = CallbackLane(env, evil, lambda payload: payload is None)
        holder["lane"] = lane
        lane.push(1.0, "payload")
        with self.assertRaises(SanitizerError) as caught:
            env.run(until=2.0)
        self.assertIn("head", str(caught.exception))

    def test_untrapped_ragged_payloads_corrupt_silently(self):
        env = self._lane_env(traps=False)
        holder = {}

        def evil(payload):
            holder["lane"].payloads.append(None)

        lane = CallbackLane(env, evil, lambda payload: payload is None)
        holder["lane"] = lane
        lane.push(1.0, "payload")
        env.run(until=2.0)  # silent corruption: exactly what traps exist for
        env2 = self._lane_env(traps=True)
        lane2 = CallbackLane(
            env2,
            lambda payload: holder["lane2"].payloads.append(None),
            lambda payload: payload is None,
        )
        holder["lane2"] = lane2
        lane2.push(1.0, "payload")
        with self.assertRaises(SanitizerError):
            env2.run(until=2.0)

    def test_untrapped_ragged_deadlines_fail_far_from_the_bug(self):
        # Without traps the same corruption the sanitizer reports
        # precisely surfaces later as a confusing IndexError deep in
        # the sweep -- the diagnostic-quality gap the traps close.
        env = self._lane_env(traps=False)
        holder = {}

        def evil(payload):
            holder["lane"].deadlines.append(99.0)

        lane = CallbackLane(env, evil, lambda payload: payload is None)
        holder["lane"] = lane
        lane.push(1.0, "payload")
        with self.assertRaises(IndexError):
            env.run(until=2.0)

    def test_reentrant_push_through_api_is_allowed(self):
        env = self._lane_env(traps=True)
        holder = {}
        fired = []

        def expire(payload):
            fired.append(payload)
            if payload == "first":
                holder["lane"].push(env.now + 1.0, "second")

        lane = CallbackLane(env, expire, lambda payload: payload is None)
        holder["lane"] = lane
        lane.push(1.0, "first")
        env.run(until=5.0)
        self.assertEqual(fired, ["first", "second"])


class _TinyCells(unittest.TestCase):
    CONFIG = TestbedConfig(
        n_servers=6,
        users_per_server=1,
        n_updates=8,
        game_duration_s=240.0,
        server_ttl_s=10.0,
        seed=5,
    )


class TestSanitizeCell(_TinyCells):
    def test_push_cell_is_bit_identical_and_not_vacuous(self):
        report = sanitize_cell(
            "push:unicast", self.CONFIG, replicas=1, tie_seed_base=1000
        )
        self.assertTrue(report.identical, report.diffs)
        self.assertFalse(report.vacuous)
        self.assertTrue(report.ok)

    def test_default_infrastructure_is_unicast(self):
        report = sanitize_cell(
            "push", self.CONFIG, replicas=1, tie_seed_base=1000
        )
        self.assertEqual(report.cell, "push")
        self.assertTrue(report.ok)


class TestRefreshCells(unittest.TestCase):
    """The self-adaptive method alone and inside HAT, at the driver's
    default sizes: a visit waiting on a recovery fetch used to race the
    control loop's wake-up at the fetch's instant, and the results
    depended on which went first.  The tiny cells above never hit it."""

    def test_refresh_cells_are_tie_order_independent(self):
        config = driver_config(build_parser().parse_args([]))
        for cell in ("self-adaptive:unicast", "hat"):
            with self.subTest(cell=cell):
                report = sanitize_cell(cell, config, replicas=1, tie_seed_base=1000)
                self.assertTrue(report.identical, report.diffs)
                self.assertFalse(report.vacuous)


@pytest.mark.xfail(
    strict=True,
    reason="same-instant transmit-dones of distinct senders draw from the "
    "fabric-wide fabric.jitter/fabric.isp streams in tie order; keyed "
    "per-link draws (ROADMAP item 4 step 1) will make this pass",
)
def test_simultaneous_user_sends_are_tie_order_independent():
    # With no start window all 40 users send at t = 0: their requests'
    # transmit-dones tie, and a perturbed tie order hands each message
    # another message's jitter draw.  The default cells' users start at
    # random offsets, so no two sends coincide and they cannot see this.
    config = dataclasses.replace(
        driver_config(build_parser().parse_args([])), user_start_window_s=0.0
    )
    report = sanitize_cell(
        "push:unicast", config, replicas=1, tie_seed_base=1000, record_trace=False
    )
    assert report.ok, report.diffs


class TestDriverCli(_TinyCells):
    def _run(self, *argv):
        args = build_parser().parse_args(list(argv))
        out, err = io.StringIO(), io.StringIO()
        status = run_driver(args, out, err)
        return status, out.getvalue(), err.getvalue()

    def _tiny_args(self):
        return [
            "--servers", "6", "--users-per-server", "1", "--updates", "8",
            "--duration", "240", "--seed", "5", "--replicas", "1",
        ]

    def test_ok_cell_exits_zero(self):
        status, out, _ = self._run("push:unicast", *self._tiny_args())
        self.assertEqual(status, 0, out)
        self.assertIn("OK", out)

    def test_ttl_cell_is_tie_order_independent_too(self):
        # Same-deadline TTL polls once re-paired draws under perturbation;
        # per-consumer streams (StreamRegistry) now keep the family immune.
        status, out, _ = self._run("ttl:unicast", *self._tiny_args())
        self.assertEqual(status, 0, out)
        self.assertIn("OK", out)

    def _run_with_stub(self, reports, *argv):
        import repro.experiments.sanitize as driver_module
        from repro.experiments.sanitize import CellReport

        stubs = {
            cell: CellReport(cell, identical=identical, ties=ties, diffs=diffs)
            for cell, identical, ties, diffs in reports
        }
        real = driver_module.sanitize_cell
        driver_module.sanitize_cell = (
            lambda cell, *args, **kwargs: stubs[cell]
        )
        try:
            return self._run(*argv)
        finally:
            driver_module.sanitize_cell = real

    def test_diverging_cell_exits_nonzero_with_diffs(self):
        status, out, _ = self._run_with_stub(
            [
                (
                    "push:unicast",
                    False,
                    [17],
                    ["replica 0 (tie seed 1000): metrics['mean']: "
                     "baseline=1.0 replica=2.0"],
                )
            ],
            "push:unicast",
        )
        self.assertEqual(status, 1)
        self.assertIn("DIVERGED", out)
        self.assertIn("replica 0", out)
        self.assertIn("metrics['mean']", out)

    def _assert_usage_error(self, *argv):
        """main() exits 2 before sanitizing any cell; returns stderr."""
        import contextlib

        import repro.experiments.sanitize as driver_module

        ran = []
        real = driver_module.sanitize_cell
        driver_module.sanitize_cell = lambda cell, *args, **kwargs: ran.append(cell)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                with self.assertRaises(SystemExit) as raised:
                    driver_main(list(argv) + self._tiny_args())
        finally:
            driver_module.sanitize_cell = real
        self.assertEqual(raised.exception.code, 2)
        self.assertEqual(ran, [])
        return err.getvalue()

    def test_unknown_method_is_a_usage_error_before_any_run(self):
        message = self._assert_usage_error("push:unicast", "bogus:unicast")
        self.assertIn("unknown method 'bogus'", message)
        self.assertIn("invalidation", message)  # names the valid choices

    def test_system_name_is_a_cell(self):
        import contextlib

        import repro.experiments.sanitize as driver_module
        from repro.experiments.sanitize import CellReport

        ran = []
        real = driver_module.sanitize_cell
        driver_module.sanitize_cell = lambda cell, *args, **kwargs: (
            ran.append(cell) or CellReport(cell, identical=True, ties=[3], diffs=[])
        )
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = driver_main(["hat", "hybrid"] + self._tiny_args())
        finally:
            driver_module.sanitize_cell = real
        self.assertEqual(status, 0)
        self.assertEqual(ran, ["hat", "hybrid"])
        # A name that is neither a system nor a method still fails first.
        message = self._assert_usage_error("hat", "bogus")
        self.assertIn("unknown method 'bogus'", message)

    def test_unknown_infrastructure_is_a_usage_error(self):
        message = self._assert_usage_error("push:mesh")
        self.assertIn("unknown infrastructure 'mesh'", message)
        self.assertIn("multicast", message)

    def test_vacuous_cell_fails_with_its_own_message(self):
        status, out, _ = self._run_with_stub(
            [("push:unicast", True, [0], [])], "push:unicast"
        )
        self.assertEqual(status, 1)
        self.assertIn("VACUOUS", out)
        self.assertNotIn("DIVERGED", out)


if __name__ == "__main__":
    unittest.main()
