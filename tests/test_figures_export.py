"""Smoke + shape tests for the whole-figure CSV exporter and the
EXPERIMENTS.md report generator (at micro scale)."""

import csv
import io
import json
import os

import pytest

from repro.experiments.config import smoke_scale
from repro.experiments.figures import export_all
from repro.experiments.report import ReportScale, generate_report
from repro.experiments.section5 import section5_config
from repro.trace.synthesize import SynthesisConfig


@pytest.fixture(scope="module")
def micro_scale():
    """A report scale small enough for the test suite."""
    return ReportScale(
        section3=SynthesisConfig(
            n_servers=40,
            n_days=2,
            session_length_s=3000.0,
            updates_per_day_low=12,
            updates_per_day_high=50,
        ),
        section4=smoke_scale(users_per_server=3),
        section5=section5_config(smoke_scale()),
        sweep=smoke_scale(n_updates=10, game_duration_s=300.0),
        n_users=16,
        label="micro (test scale)",
    )


class TestExportAll:
    def test_writes_every_figure_csv(self, micro_scale, tmp_path):
        out_dir = str(tmp_path / "figures")
        written = export_all(out_dir, micro_scale)
        names = sorted(os.path.basename(path) for path in written)
        assert "fig03_inconsistency_cdf.csv" in names
        assert "fig14_unicast_server_lags.csv" in names
        assert "fig17_cost_vs_ttl.csv" in names
        assert "fig22a_update_messages.csv" in names
        assert "fig24_stale_observations.csv" in names
        assert "figures.json" in names
        assert len(names) == len(set(names)) >= 10
        for path in written:
            if path.endswith(".json"):
                continue
            with open(path) as handle:
                rows = list(csv.reader(handle))
            assert len(rows) >= 2          # header + data
            assert all(len(r) == len(rows[0]) for r in rows)

    def test_manifest_covers_every_figure(self, micro_scale, tmp_path):
        out_dir = str(tmp_path / "figures")
        written = export_all(out_dir, micro_scale)
        manifest_path = next(p for p in written if p.endswith("figures.json"))
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert set(manifest) == {
            "fig3", "fig5", "fig6", "fig14", "fig15", "fig16", "fig17",
            "fig20", "fig22a", "fig24",
        }
        for name, entry in manifest.items():
            assert entry["name"] == name
            assert "series" in entry and "summary" in entry
        # sweeps carry their run statistics
        assert manifest["fig17"]["stats"]["n_specs"] == 6

    def test_cdf_csv_is_monotone(self, micro_scale, tmp_path):
        out_dir = str(tmp_path / "figures")
        written = export_all(out_dir, micro_scale)
        cdf_path = next(p for p in written if p.endswith("fig03_inconsistency_cdf.csv"))
        with open(cdf_path) as handle:
            rows = list(csv.reader(handle))[1:]
        ys = [float(y) for _, y in rows]
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)


class TestReportGeneration:
    @pytest.fixture(scope="class")
    def micro_report(self, micro_scale):
        log = io.StringIO()
        return generate_report(micro_scale, log=log), log.getvalue()

    def test_micro_report_contains_every_figure(self, micro_report):
        markdown, log = micro_report
        for figure in (
            "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8",
            "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 14", "Fig. 15",
            "Fig. 16", "Fig. 17", "Fig. 18", "Fig. 19", "Fig. 20",
            "Fig. 22a", "Fig. 22b", "Fig. 23", "Fig. 24",
        ):
            assert figure in markdown, "missing %s" % figure
        assert "micro (test scale)" in markdown
        assert "paper" in markdown
        # progress lines and the run statistics went to the log, not
        # the report
        assert "[report]" in log
        assert "## Run statistics" in log and "Workers: 1." in log
        assert "[report]" not in markdown
        assert "## Run statistics" not in markdown

    def test_rebuild_is_byte_identical(self, micro_scale, micro_report):
        # Timings stay out of the markdown, so rebuilding the report
        # from the same scale and seed rewrites nothing.
        assert generate_report(micro_scale, log=io.StringIO()) == micro_report[0]
