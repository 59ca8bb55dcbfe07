"""Metrics-registry correctness: golden parity, invariants, gating."""

from __future__ import annotations

import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.stats import MessageStats
from repro.obs.registry import MetricsRegistry

from tests.conftest import make_runtime


# ----------------------------------------------------------------------
# golden-trace parity: the registry IS the legacy accounting
# ----------------------------------------------------------------------

#: Pinned transmission counts of the seeded 20-node discovery run below
#: (seed=7, threshold=1.0).  If these change, the simulation trajectory
#: changed — observability must never do that.
GOLDEN_TOTAL_SENT = 282
GOLDEN_KINDS = {
    "DataReport": 200,
    "Invitation": 20,
    "CandidateList": 20,
    "Accept": 20,
    "StayActive": 18,
    "Recall": 2,
    "AckRepresenting": 2,
}


def _discovery_run(**runtime_kwargs):
    runtime = make_runtime(**runtime_kwargs)
    runtime.train(duration=10)
    runtime.run_election()
    return runtime


class TestGoldenParity:
    def test_registry_counts_bit_identical_to_message_stats(self):
        runtime = _discovery_run()
        registry = runtime.metrics
        sent = registry.metric("net.messages.sent")
        # The registry cell store IS the MessageStats counter object.
        assert sent.cells is runtime.stats.sent
        assert sum(sent.cells.values()) == runtime.stats.total_sent()

    def test_seeded_run_matches_golden_counts(self):
        runtime = _discovery_run()
        by_kind = Counter()
        for (_, kind), count in runtime.stats.sent.items():
            by_kind[kind] += count
        assert runtime.stats.total_sent() == GOLDEN_TOTAL_SENT
        assert dict(by_kind) == GOLDEN_KINDS

    def test_registry_counts_match_trace_record_stream(self):
        runtime = _discovery_run(keep_trace_records=True)
        trace_by_kind = Counter(
            record.payload["message_kind"]
            for record in runtime.simulator.trace.of_kind("message.sent")
        )
        registry_by_kind = Counter()
        for (_, kind), count in runtime.metrics.metric("net.messages.sent").cells.items():
            registry_by_kind[kind] += count
        assert registry_by_kind == trace_by_kind

    def test_energy_ledger_is_registry_view(self):
        runtime = _discovery_run()
        draw = runtime.metrics.metric("energy.draw")
        assert draw is runtime.ledger._cells
        assert sum(draw.cells.values()) == pytest.approx(runtime.ledger.total())

    @pytest.mark.parametrize("policy", ["model-aware", "round-robin"])
    def test_parity_holds_under_both_cache_policies(self, policy):
        from repro.experiments.harness import make_cache_factory

        runtime = make_runtime(cache_factory=make_cache_factory(policy, 2048))
        runtime.train(duration=10)
        runtime.run_election()
        sent = runtime.metrics.metric("net.messages.sent")
        assert sent.cells is runtime.stats.sent
        assert sum(sent.cells.values()) == runtime.stats.total_sent() > 0
        observe = runtime.metrics.metric("cache.observe")
        assert observe.total() > 0


# ----------------------------------------------------------------------
# histogram invariants (property-based)
# ----------------------------------------------------------------------


class TestHistogramInvariants:
    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bucket_counts_sum_to_observation_count(self, values):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.0, 1.0, 10.0, 100.0))
        for value in values:
            histogram.observe(value)
        cell = histogram.cell()
        assert sum(cell.counts) == cell.count == len(values)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(
                    min_value=-1e3, max_value=1e3,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_merged_cell_equals_sum_of_labeled_cells(self, observations):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(-10.0, 0.0, 10.0), labels=("node",))
        for node, value in observations:
            histogram.observe(value, node)
        merged = histogram.merged()
        assert merged.count == len(observations)
        assert sum(merged.counts) == merged.count
        assert merged.count == sum(cell.count for cell in histogram.cells.values())

    def test_bucket_edges_are_inclusive_upper_bounds(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.0)   # lands in <=1.0
        histogram.observe(1.5)   # lands in <=2.0
        histogram.observe(3.0)   # overflow
        assert histogram.cell().counts == [1, 1, 1]

    def test_buckets_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("empty", buckets=())


# ----------------------------------------------------------------------
# registration semantics
# ----------------------------------------------------------------------


class TestRegistration:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels=("node",))
        b = registry.counter("c", labels=("node",))
        assert a is b

    def test_signature_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("node",))
        with pytest.raises(ValueError):
            registry.counter("c", labels=("node", "kind"))
        with pytest.raises(ValueError):
            registry.gauge("c")
        with pytest.raises(ValueError):
            registry.counter("c", labels=("node",), essential=True)

    def test_histogram_bucket_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))


# ----------------------------------------------------------------------
# disabled registry: zero records, bounded overhead, protocol untouched
# ----------------------------------------------------------------------


class TestBulkIncrement:
    def test_inc_by_equals_repeated_inc(self):
        registry = MetricsRegistry()
        bulk = registry.counter("bulk", labels=("node", "action"))
        loop = registry.counter("loop", labels=("node", "action"))
        bulk.inc_by((1, "append"), 5)
        bulk.inc_by((2, "reject"), 3)
        bulk.inc_by((1, "append"), 2)
        for _ in range(7):
            loop.inc((1, "append"))
        for _ in range(3):
            loop.inc((2, "reject"))
        assert dict(bulk.cells) == dict(loop.cells)
        assert bulk.total() == 10

    @given(
        batches=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(1, 50)),
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_inc_by_cell_order_and_values_match_scalar(self, batches):
        """Bulk flushes must preserve the Counter's first-touch cell
        insertion order — it is digested by the persist layer."""
        registry = MetricsRegistry()
        bulk = registry.counter("bulk")
        loop = registry.counter("loop")
        for key, n in batches:
            bulk.inc_by(key, n)
            for _ in range(n):
                loop.inc(key)
        assert list(bulk.cells.items()) == list(loop.cells.items())

    def test_inc_by_respects_disabled_gate(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("gated")
        counter.inc_by("x", 100)
        assert not counter.cells
        registry.enabled = True
        counter.inc_by("x", 4)
        assert counter.value("x") == 4


class TestDisabledRegistry:
    def test_disabled_registry_records_nothing_nonessential(self):
        runtime = make_runtime(metrics_enabled=False)
        runtime.train(duration=10)
        runtime.run_election()
        registry = runtime.metrics
        for name in registry.names():
            metric = registry.metric(name)
            if not metric.essential:
                assert not metric.cells, f"{name} recorded while disabled"

    def test_essential_accounting_survives_disabling(self):
        enabled = _discovery_run()
        disabled = _discovery_run(metrics_enabled=False)
        # Same trajectory, same functional accounting, span records off.
        assert disabled.stats.sent == enabled.stats.sent
        assert disabled.simulator.trace.count("span.begin") == 0
        assert enabled.simulator.trace.count("span.begin") > 0

    def test_disabled_run_has_identical_trajectory(self):
        enabled = _discovery_run()
        disabled = _discovery_run(metrics_enabled=False)
        assert [n.mode for n in enabled.nodes.values()] == [
            n.mode for n in disabled.nodes.values()
        ]
        assert enabled.ledger.total() == disabled.ledger.total()

    def test_disabled_record_path_overhead_is_bounded(self):
        """A generous tier-1 smoke bound; the precise <3% gate lives in
        benchmarks/bench_perf_radio.py where timing is controlled."""
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c", labels=("node",))
        n = 200_000
        start = time.perf_counter()
        for i in range(n):
            counter.inc(3)
        disabled_time = time.perf_counter() - start
        assert not counter.cells
        # A disabled increment is two attribute loads and a branch; even
        # heavily loaded CI should do 200k of them in well under a second.
        assert disabled_time < 1.0
