"""RunReport differential tests: round-trips, figure parity, chaos spans."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter

import pytest

from repro.experiments.harness import NetworkSetup, run_report_experiment
from repro.faults import ChaosConfig, ChaosRun
from repro.obs.report import RunReport

#: A handful of chaos-matrix schedules (seeds × loss) kept cheap enough
#: for tier-1; the full matrix lives behind the ``chaos`` marker.
CHAOS_CASES = [
    pytest.param(0, 0.0, id="seed0-lossless"),
    pytest.param(1, 0.0, id="seed1-lossless"),
    pytest.param(0, 0.4, id="seed0-lossy"),
    pytest.param(2, 0.4, id="seed2-lossy"),
]


@pytest.fixture(scope="module")
def small_run():
    """One seeded 30-node maintenance-plus-queries run, shared read-only."""
    return run_report_experiment(
        setup=NetworkSetup(n_nodes=30), seed=11, rounds=3
    )


class TestRoundTrip:
    def test_jsonl_round_trip_preserves_summary_exactly(self, small_run):
        report = small_run.report
        parsed = RunReport.from_jsonl(report.to_jsonl())
        assert parsed.meta == report.meta
        assert parsed.rows == report.rows
        # The differential check: export → parse → *identical* summary.
        assert parsed.summary() == report.summary()

    def test_jsonl_lines_are_valid_json_with_meta_first(self, small_run):
        lines = small_run.report.to_jsonl().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "meta"
        assert len(records) == 1 + len(small_run.report.rows)

    def test_csv_export_is_rectangular(self, small_run):
        reader = csv.DictReader(io.StringIO(small_run.report.to_csv()))
        rows = list(reader)
        assert len(rows) == len(small_run.report.rows)
        assert all(row["record"] for row in rows)

    def test_summary_is_derived_only_from_meta_and_rows(self, small_run):
        """Mutating the source runtime after capture must not leak in."""
        report = small_run.report
        before = report.summary()
        small_run.runtime.stats.sent[(0, "DataReport")] += 1000
        try:
            assert report.summary() == before
        finally:
            small_run.runtime.stats.sent[(0, "DataReport")] -= 1000


class TestFigureParity:
    """The acceptance criterion: ``repro report`` on a seeded 100-node
    maintenance run reproduces the Figure 15 messages-per-node numbers
    and the Figure 10 coverage numbers."""

    @pytest.fixture(scope="class")
    def full_run(self):
        return run_report_experiment(setup=NetworkSetup(), seed=2005)

    def test_fig15_messages_per_node_matches_maintenance_exactly(self, full_run):
        summary = full_run.report.summary()
        # Bit-identical: the histogram accumulates costs in the same
        # order the maintenance window averages them.
        assert summary["messages_per_node_per_round"] == (
            full_run.runtime.maintenance.average_messages_per_node()
        )
        # Figure 15 band: steady-state §5.1 maintenance on the 100-node
        # network costs a handful of messages per node per period.
        assert 0.0 < summary["messages_per_node_per_round"] <= 6.0

    def test_fig10_coverage_matches_series_exactly(self, full_run):
        summary = full_run.report.summary()
        assert summary["coverage_auc"] == full_run.coverage.area
        assert summary["coverage_mean"] == pytest.approx(
            full_run.coverage.mean
        )
        # Full-range topology: snapshot queries see the whole network.
        assert summary["coverage_mean"] == pytest.approx(1.0)

    @pytest.mark.parametrize("policy", ["model-aware", "round-robin"])
    def test_parity_holds_under_both_cache_policies(self, policy):
        run = run_report_experiment(
            setup=NetworkSetup(n_nodes=30, cache_policy=policy),
            seed=11,
            rounds=3,
        )
        summary = run.report.summary()
        assert summary["messages_per_node_per_round"] == (
            run.runtime.maintenance.average_messages_per_node()
        )
        assert summary["coverage_auc"] == run.coverage.area
        assert summary["cache_observations"] > 0
        assert RunReport.from_jsonl(run.report.to_jsonl()).summary() == summary


class TestChaosSpans:
    """Span begin/end pairs stay balanced per name and epoch even when
    the schedule crashes representatives mid-round."""

    @pytest.mark.parametrize("seed,loss", CHAOS_CASES)
    def test_spans_balance_on_chaos_schedules(self, seed, loss):
        run = ChaosRun(
            ChaosConfig(seed=seed, loss_burst=loss, keep_trace_records=True)
        )
        run.start()
        result = run.finish()
        assert result.ok
        trace = result.runtime.simulator.trace
        begins = list(trace.of_kind("span.begin"))
        ends = list(trace.of_kind("span.end"))
        assert begins, "chaos schedule produced no spans"
        # Balanced overall, by unique span id...
        assert Counter(r.payload["span"] for r in begins) == Counter(
            r.payload["span"] for r in ends
        )
        # ...and per (name, epoch) timeline.
        def key(record):
            return (record.payload["name"], record.payload.get("epoch"))

        assert Counter(key(r) for r in begins) == Counter(key(r) for r in ends)

    def test_chaos_result_report_round_trips(self):
        run = ChaosRun(ChaosConfig(seed=0))
        run.start()
        result = run.finish()
        report = result.report(meta={"loss_burst": 0.0})
        assert report.meta["loss_burst"] == 0.0
        assert report.summary()["messages_total"] > 0
        assert RunReport.from_jsonl(report.to_jsonl()).summary() == (
            report.summary()
        )


class TestCli:
    def test_repro_report_writes_jsonl_and_csv(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "run.jsonl"
        out_csv = tmp_path / "run.csv"
        code = main(
            [
                "report",
                "--nodes", "20",
                "--rounds", "2",
                "--jsonl", str(jsonl),
                "--csv", str(out_csv),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "msgs/node/round" in output
        parsed = RunReport.from_jsonl(jsonl.read_text())
        assert parsed.summary()["maintenance_rounds"] >= 2
        with out_csv.open() as handle:
            assert len(list(csv.DictReader(handle))) == len(parsed.rows)
