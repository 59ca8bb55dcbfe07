"""Run reports: one run rendered to JSONL/CSV and a human summary.

A :class:`RunReport` is a *pure data* snapshot of a run: a ``meta``
dict (seed, node counts, sim time, protocol kinds) plus flat ``rows``
— one per metric cell, profile entry, or sample series.  Everything
derived from a report (:meth:`summary`, :meth:`format_summary`) reads
only ``meta`` and ``rows``, which is what makes the JSONL round trip
exact: ``RunReport.from_jsonl(report.to_jsonl())`` produces the
identical summary (differential-tested in ``tests/obs``).

The summary carries the paper's headline quantities: protocol messages
per node per maintenance round (Figure 15), coverage area under the
curve (Figure 10), energy spent by category (§6.2), election and
re-election counts (Table 2), and model-cache hit ratios (§4).

Example
-------

>>> report = RunReport(meta={"seed": 1, "n_nodes": 2},
...                    rows=[{"record": "counter",
...                           "name": "net.messages.sent",
...                           "labels": {"node": 0, "kind": "Heartbeat"},
...                           "value": 3}])
>>> RunReport.from_jsonl(report.to_jsonl()).summary() == report.summary()
True
>>> report.summary()["messages_total"]
3
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

__all__ = ["RunReport"]

#: Column order of the CSV export; complex fields are JSON-encoded.
CSV_COLUMNS = (
    "record",
    "name",
    "labels",
    "value",
    "count",
    "sum",
    "uppers",
    "counts",
    "kind",
    "seconds",
    "events",
    "samples",
)


@dataclass
class RunReport:
    """A run's metrics, profile, and sample series as flat rows."""

    meta: dict[str, Any] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------

    @classmethod
    def capture(
        cls,
        runtime,
        coverage=None,
        meta: Optional[dict[str, Any]] = None,
    ) -> "RunReport":
        """Snapshot ``runtime`` (a :class:`~repro.core.runtime.SnapshotRuntime`).

        Pulls every cell of the runtime's metrics registry, the
        engine's wall-clock profile (when profiling was enabled), and
        an optional :class:`~repro.query.coverage.CoverageSeries` as a
        ``series`` row.  Extra ``meta`` entries override the captured
        defaults.
        """
        from repro.core.runtime import SnapshotRuntime
        from repro.network.stats import PROTOCOL_KINDS

        if isinstance(runtime, SnapshotRuntime):
            reelections = runtime.structure_version()[1]
        else:  # a sharded runtime: its nodes live in several runtimes
            reelections = sum(node.reelections for node in runtime.nodes.values())
        simulator = runtime.simulator
        captured_meta: dict[str, Any] = {
            "seed": getattr(runtime, "seed", None),
            "n_nodes": len(runtime.nodes),
            "n_alive": sum(1 for node in runtime.nodes.values() if node.alive),
            "sim_time": simulator.now,
            "maintenance_rounds": runtime.maintenance.rounds_completed,
            "reelections": reelections,
            "protocol_kinds": sorted(PROTOCOL_KINDS),
        }
        if meta:
            captured_meta.update(meta)
        rows = list(simulator.metrics.rows())
        if simulator.profiler is not None:
            rows.extend(simulator.profiler.rows())
        if coverage is not None:
            rows.append(
                {
                    "record": "series",
                    "name": "query.coverage_series",
                    "samples": [float(sample) for sample in coverage.samples],
                }
            )
        return cls(meta=captured_meta, rows=rows)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line: the meta record, then every row."""
        lines = [json.dumps({"record": "meta", **self.meta}, sort_keys=True)]
        lines.extend(json.dumps(row, sort_keys=True) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "RunReport":
        """Parse a report back from :meth:`to_jsonl` output."""
        meta: dict[str, Any] = {}
        rows: list[dict[str, Any]] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("record") == "meta":
                meta = {k: v for k, v in record.items() if k != "record"}
            else:
                rows.append(record)
        return cls(meta=meta, rows=rows)

    def to_csv(self) -> str:
        """The rows as CSV; list/dict fields are JSON-encoded cells."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            flat = {}
            for column in CSV_COLUMNS:
                value = row.get(column)
                if isinstance(value, (dict, list)):
                    value = json.dumps(value, sort_keys=True)
                flat[column] = value
            writer.writerow(flat)
        return buffer.getvalue()

    # ------------------------------------------------------------------
    # derived views (read only meta + rows, never the live runtime)
    # ------------------------------------------------------------------

    def _rows_named(self, name: str) -> Iterable[dict[str, Any]]:
        return (row for row in self.rows if row.get("name") == name)

    def _counter_total(self, name: str) -> float:
        return sum(row["value"] for row in self._rows_named(name))

    def _histogram_stats(self, name: str) -> tuple[int, float]:
        count, total = 0, 0.0
        for row in self._rows_named(name):
            count += row["count"]
            total += row["sum"]
        return count, total

    def coverage_series(self) -> Optional[list[float]]:
        """The captured coverage samples, or ``None`` if absent."""
        for row in self._rows_named("query.coverage_series"):
            return list(row["samples"])
        return None

    def summary(self) -> dict[str, Any]:
        """The headline quantities, derived purely from meta + rows."""
        messages_total = self._counter_total("net.messages.sent")
        protocol_kinds = set(self.meta.get("protocol_kinds", ()))
        protocol_total = sum(
            row["value"]
            for row in self._rows_named("net.messages.sent")
            if row["labels"].get("kind") in protocol_kinds
        )
        round_count, round_sum = self._histogram_stats("maintenance.msgs_per_node")
        per_node_per_round = round_sum / round_count if round_count else 0.0

        estimate_hits = sum(
            row["value"]
            for row in self._rows_named("cache.estimate")
            if row["labels"].get("outcome") == "hit"
        )
        estimate_total = self._counter_total("cache.estimate")
        hit_ratio = estimate_hits / estimate_total if estimate_total else None

        samples = self.coverage_series()
        coverage_auc = float(sum(samples)) if samples is not None else None
        coverage_mean = (
            coverage_auc / len(samples) if samples else None
        )

        energy_by_category: dict[str, float] = {}
        for row in self._rows_named("energy.draw"):
            category = row["labels"].get("category", "?")
            energy_by_category[category] = (
                energy_by_category.get(category, 0.0) + row["value"]
            )

        return {
            "seed": self.meta.get("seed"),
            "n_nodes": self.meta.get("n_nodes"),
            "n_alive": self.meta.get("n_alive"),
            "sim_time": self.meta.get("sim_time"),
            "messages_total": messages_total,
            "protocol_messages_total": protocol_total,
            "maintenance_rounds": self.meta.get("maintenance_rounds"),
            "messages_per_node_per_round": per_node_per_round,
            "elections": self._counter_total("election.rounds"),
            "reelections": self.meta.get("reelections"),
            "energy_total": sum(energy_by_category.values()),
            "energy_by_category": dict(sorted(energy_by_category.items())),
            "cache_observations": self._counter_total("cache.observe"),
            "cache_hit_ratio": hit_ratio,
            "queries": self._counter_total("query.executed"),
            "coverage_auc": coverage_auc,
            "coverage_mean": coverage_mean,
        }

    def format_summary(self) -> str:
        """A human-readable rendering of :meth:`summary`."""
        s = self.summary()
        lines = [
            f"run seed={s['seed']} nodes={s['n_nodes']} "
            f"(alive {s['n_alive']}) sim_time={s['sim_time']}",
            f"  messages: {s['messages_total']} total, "
            f"{s['protocol_messages_total']} protocol",
            f"  maintenance: {s['maintenance_rounds']} rounds, "
            f"{s['messages_per_node_per_round']:.3f} protocol msgs/node/round (Fig. 15)",
            f"  elections: {s['elections']} global, {s['reelections']} local re-elections",
            f"  energy: {s['energy_total']:.1f} total "
            + " ".join(
                f"{category}={value:.1f}"
                for category, value in s["energy_by_category"].items()
            ),
        ]
        if s["cache_hit_ratio"] is not None:
            lines.append(
                f"  cache: {s['cache_observations']} observations, "
                f"estimate hit ratio {s['cache_hit_ratio']:.3f}"
            )
        else:
            lines.append(f"  cache: {s['cache_observations']} observations")
        if s["coverage_auc"] is not None:
            lines.append(
                f"  queries: {s['queries']} executed, coverage AUC "
                f"{s['coverage_auc']:.2f} mean {s['coverage_mean']:.3f} (Fig. 10)"
            )
        else:
            lines.append(f"  queries: {s['queries']} executed")
        profile_rows = [row for row in self.rows if row.get("record") == "profile"]
        if profile_rows:
            lines.append("  hot event kinds (wall clock):")
            for row in profile_rows[:5]:
                lines.append(
                    f"    {row['kind']:<16} {row['seconds']:.4f}s "
                    f"over {row['events']} events"
                )
        return "\n".join(lines)
