"""Tests for message accounting."""

from __future__ import annotations

import pytest

from repro.network.messages import DataReport, Heartbeat, Invitation
from repro.network.stats import MessageStats


def invitation(sender: int) -> Invitation:
    return Invitation(sender=sender, value=0.0, epoch=1)


class TestCounters:
    def test_sent_by_node(self):
        stats = MessageStats()
        stats.record_sent(invitation(1))
        stats.record_sent(invitation(1))
        stats.record_sent(invitation(2))
        assert stats.sent == {(1, "Invitation"): 2, (2, "Invitation"): 1}
        assert stats.total_sent() == 3

    def test_protocol_filter_excludes_data(self):
        stats = MessageStats()
        stats.record_sent(invitation(1))
        stats.record_sent(DataReport(sender=1, query_id=1, origin=1, value=1.0))
        assert stats.max_protocol_messages_any_node() == 1
        assert stats.total_sent() == 2

    def test_max_protocol_messages(self):
        stats = MessageStats()
        for _ in range(4):
            stats.record_sent(invitation(7))
        stats.record_sent(Heartbeat(sender=3, target=7, value=0.0))
        assert stats.max_protocol_messages_any_node() == 4

    def test_max_empty(self):
        assert MessageStats().max_protocol_messages_any_node() == 0


class TestWindows:
    def test_window_reports_delta_only(self):
        stats = MessageStats()
        stats.record_sent(invitation(1))
        stats.checkpoint()
        stats.record_sent(invitation(1))
        stats.record_sent(invitation(2))
        window = stats.window()
        assert window[(1, "Invitation")] == 1
        assert window[(2, "Invitation")] == 1

    def test_window_protocol_per_node(self):
        stats = MessageStats()
        stats.record_sent(invitation(1))
        stats.checkpoint()
        stats.record_sent(invitation(1))
        stats.record_sent(DataReport(sender=2, query_id=1, origin=2, value=0.0))
        assert stats.window_protocol_per_node(2) == pytest.approx(0.5)

    def test_clear(self):
        stats = MessageStats()
        stats.record_sent(invitation(1))
        stats.delivered.add_each((2,), "Invitation", 1)
        stats.record_dropped(invitation(1))
        stats.clear()
        assert stats.total_sent() == 0
        assert not stats.delivered
        assert not stats.dropped
