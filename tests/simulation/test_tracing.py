"""Unit tests for the trace log."""

from __future__ import annotations

import pytest

from repro.simulation import tracing
from repro.simulation.tracing import TraceLog


class TestTraceLog:
    def test_emit_many_records_each_payload_in_order(self):
        log = TraceLog()
        seen = []
        log.subscribe("x", lambda record: seen.append(record.payload["i"]))
        log.emit_many(2.0, "x", 3, ({"i": i} for i in range(3)))
        assert log.records == [
            tracing.TraceRecord(time=2.0, kind="x", payload={"i": i}) for i in range(3)
        ]
        assert log.count("x") == 3
        assert seen == [0, 1, 2]

    def test_emit_many_builds_nothing_unread(self):
        log = TraceLog(keep_records=False)

        def payloads():
            raise AssertionError("payloads consumed with nobody reading them")
            yield  # pragma: no cover

        log.emit_many(0.0, "x", 4, payloads())
        log.emit_many(0.0, "x", 0, payloads())
        assert log.count("x") == 4
        assert "y" not in log.counts

    def test_counts_by_kind(self):
        log = TraceLog()
        log.emit(0.0, "a")
        log.emit(1.0, "a", detail=1)
        log.emit(2.0, "b")
        assert log.count("a") == 2
        assert log.count("b") == 1
        assert log.count("missing") == 0

    def test_records_payloads(self):
        log = TraceLog()
        log.emit(3.0, "node.died", node=7)
        (record,) = log.of_kind("node.died")
        assert record.time == 3.0
        assert record.payload == {"node": 7}

    def test_keep_records_false_still_counts(self):
        log = TraceLog(keep_records=False)
        log.emit(0.0, "x")
        log.emit(0.0, "x")
        assert log.count("x") == 2
        assert log.of_kind("x") == []

    def test_subscribers_called(self):
        log = TraceLog()
        seen = []
        log.subscribe("alert", lambda record: seen.append(record.payload["level"]))
        log.emit(0.0, "alert", level=3)
        log.emit(0.0, "other", level=9)
        assert seen == [3]

    def test_clear_resets_counts_not_subscribers(self):
        log = TraceLog()
        seen = []
        log.subscribe("k", lambda record: seen.append(1))
        log.emit(0.0, "k")
        log.clear()
        assert log.count("k") == 0
        log.emit(1.0, "k")
        assert seen == [1, 1]


class TestSubscriptionLifecycle:
    def test_subscribe_returns_cancelable_handle(self):
        log = TraceLog()
        seen = []
        handle = log.subscribe("k", lambda record: seen.append(1))
        assert handle.active
        log.emit(0.0, "k")
        handle.cancel()
        assert not handle.active
        handle.cancel()  # idempotent
        log.emit(1.0, "k")
        assert seen == [1]
        assert len(log._subscribers.get("k", ())) == 0


class TestDispatchMutation:
    """``emit`` iterates a snapshot: callbacks that mutate the
    subscriber list mid-dispatch must not corrupt the in-flight one."""

    def test_subscribing_during_dispatch_defers_to_next_emit(self):
        log = TraceLog()
        late = []

        def register_late(record):
            log.subscribe("k", lambda r: late.append(r.time))

        handle = log.subscribe("k", register_late)
        log.emit(0.0, "k")
        assert late == []  # not called for the in-flight record
        handle.cancel()
        log.emit(1.0, "k")
        assert late == [1.0]

    def test_unsubscribing_self_during_dispatch_keeps_others(self):
        log = TraceLog()
        seen = []
        handle = log.subscribe("k", lambda record: handle.cancel())
        log.subscribe("k", lambda record: seen.append(record.time))
        log.emit(0.0, "k")
        log.emit(1.0, "k")
        assert seen == [0.0, 1.0]
        assert len(log._subscribers.get("k", ())) == 1

    def test_unsubscribing_peer_during_dispatch_still_calls_it_once(self):
        log = TraceLog()
        seen = []
        victim = log.subscribe("k", lambda record: seen.append("victim"))
        log.subscribe("k", lambda record: victim.cancel())
        # Dispatch order is registration order: the victim runs first
        # for the in-flight record, then its peer cancels it.
        log.emit(0.0, "k")
        assert seen == ["victim"]
        log.emit(1.0, "k")
        assert seen == ["victim"]


class TestResubscriptionCounters:
    """Regression: harness repetitions re-subscribe equal callbacks to
    fresh windows.  Delivery counters must belong to the subscription,
    and removal must go by identity, never by callback equality —
    otherwise a second run's counts bleed into (or cancel) the first's.
    """

    def test_sequential_subscriptions_count_independently(self):
        log = TraceLog()
        callback = lambda record: None
        first = log.subscribe("k", callback)
        log.emit(0.0, "k")
        log.emit(1.0, "k")
        first.cancel()
        second = log.subscribe("k", callback)  # the very same callback
        log.emit(2.0, "k")
        assert first.deliveries == 2
        assert second.deliveries == 1

    def test_cancel_removes_by_identity_not_equality(self):
        log = TraceLog()
        callback = lambda record: None
        survivor = log.subscribe("k", callback)
        log.subscribe("k", callback).cancel()  # twin cancels itself only
        log.emit(0.0, "k")
        assert survivor.active
        assert survivor.deliveries == 1
        assert len(log._subscribers.get("k", ())) == 1

    def test_canceled_subscription_counter_is_frozen(self):
        log = TraceLog()
        handle = log.subscribe("k", lambda record: None)
        log.emit(0.0, "k")
        handle.cancel()
        log.emit(1.0, "k")
        assert handle.deliveries == 1

    def test_mark_and_counts_since_window(self):
        log = TraceLog()
        log.emit(0.0, "a")
        log.emit(1.0, "b")
        marker = log.mark()
        log.emit(2.0, "a")
        log.emit(3.0, "c")
        assert log.counts_since(marker) == {"a": 1, "c": 1}

    def test_counts_since_never_goes_negative(self):
        log = TraceLog()
        log.emit(0.0, "a")
        marker = log.mark()
        log.clear()
        assert log.counts_since(marker) == {}


class TestUnobservedFastPath:
    """With ``keep_records=False``, a kind nobody subscribes to only
    moves its counter: no :class:`TraceRecord` is built for it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Count the TraceRecord objects the log constructs."""
        made = []

        class CountingRecord(tracing.TraceRecord):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(tracing, "TraceRecord", CountingRecord)
        return made

    @staticmethod
    def _script(log):
        for t in range(5):
            log.emit(float(t), "a", i=t)
            log.emit(float(t), "b")
        log.emit(9.0, "c", i=9)

    def test_counts_match_with_and_without_subscribers(self, built):
        quiet, watched = TraceLog(keep_records=False), TraceLog(keep_records=False)
        for kind in ("a", "b", "c"):
            watched.subscribe(kind, lambda record: None)
        self._script(quiet)
        assert built == []
        self._script(watched)
        assert len(built) == 11
        assert quiet.counts == watched.counts == {"a": 5, "b": 5, "c": 1}
        assert list(quiet.counts) == list(watched.counts)

    def test_mid_run_subscription_sees_exactly_the_later_records(self, built):
        log = TraceLog(keep_records=False)
        log.emit(0.0, "k", i=0)
        log.emit(1.0, "k", i=1)
        seen = []
        handle = log.subscribe("k", lambda record: seen.append(record))
        log.emit(2.0, "k", i=2)
        log.emit(2.0, "other")
        log.emit(3.0, "k", i=3)
        assert [(r.time, r.payload) for r in seen] == [(2.0, {"i": 2}), (3.0, {"i": 3})]
        assert built == seen
        handle.cancel()
        log.emit(4.0, "k", i=4)
        assert len(built) == 2  # back on the fast path
        assert handle.deliveries == 2
        assert log.count("k") == 5

    def test_keep_records_still_stores_every_record(self, built):
        log = TraceLog(keep_records=True)
        seen = []
        log.subscribe("a", lambda record: seen.append(record))
        self._script(log)
        assert len(log.records) == len(built) == 11
        assert [r.kind for r in log.records] == ["a", "b"] * 5 + ["c"]
        assert seen == log.of_kind("a")
