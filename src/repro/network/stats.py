"""Message accounting.

Figure 15 of the paper reports the *average number of messages per node*
during a snapshot-maintenance update, and Table 2 bounds the election at
five messages per node (six including the maintenance heartbeat pair).
:class:`MessageStats` counts every transmission and delivery by node and
by message kind so those quantities — and the per-phase breakdowns the
tests assert on — fall out directly.

Counters can be *checkpointed*: ``window()`` returns the counts since
the previous checkpoint, which is how per-update message costs are
measured in long maintenance runs.

When constructed with a :class:`~repro.obs.registry.MetricsRegistry`,
the stats object becomes a *view* over registry counters: its public
``Counter`` attributes ARE the cells of ``net.messages.*`` metrics, so
the registry exports the exact storage this class reads (``delivered``
is a node × kind :class:`~repro.obs.registry.ColumnCounter`, booked a
burst of ids at a time).  The metrics are *essential* — the
maintenance manager reads the windowed counts back to drive Figure 15
accounting, so disabling observability must not stop them.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.network.messages import PROTOCOL_MESSAGE_TYPES, Message
from repro.obs.registry import ColumnCounter

__all__ = ["MessageStats", "PROTOCOL_KINDS"]

#: Class names of the election/maintenance protocol messages (the kinds
#: Figure 15 and Table 2 count); data reports and query traffic excluded.
PROTOCOL_KINDS = frozenset(cls.__name__ for cls in PROTOCOL_MESSAGE_TYPES)

_PROTOCOL_KINDS = PROTOCOL_KINDS


class MessageStats:
    """Per-node, per-kind counters of sent and delivered messages."""

    def __init__(self, registry=None) -> None:
        if registry is None:
            self.sent: Counter[tuple[int, str]] = Counter()
            self.delivered = ColumnCounter(
                None, "net.messages.delivered", ("node", "kind"), True
            )
            self.dropped: Counter[str] = Counter()
            self.dropped_dead: Counter[str] = Counter()
        else:
            self.sent = registry.counter(
                "net.messages.sent", labels=("node", "kind"), essential=True
            ).cells
            self.delivered = registry.column_counter(
                "net.messages.delivered", labels=("node", "kind"), essential=True
            )
            self.dropped = registry.counter(
                "net.messages.dropped", labels=("kind",), essential=True
            ).cells
            self.dropped_dead = registry.counter(
                "net.messages.dropped_dead", labels=("kind",), essential=True
            ).cells
        self._sent_checkpoint: Counter[tuple[int, str]] = Counter()

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if type(self.delivered) is Counter:  # pickled before the columns
            self.delivered = ColumnCounter.adopt(
                self.delivered, "net.messages.delivered", ("node", "kind")
            )

    def record_sent(self, message: Message) -> None:
        """Count one transmission of ``message`` by its sender."""
        self.sent[(message.sender, message.kind)] += 1

    def record_dropped(self, message: Message, count: int = 1) -> None:
        """Count ``count`` Bernoulli losses of ``message`` on some links."""
        self.dropped[message.kind] += count

    def record_dropped_dead(self, message: Message, count: int = 1) -> None:
        """Count ``count`` copies of ``message`` lost to dead receivers.

        Kept separate from :attr:`dropped` — which records only
        Bernoulli link loss — so loss-sweep accounting under node death
        does not conflate radio quality with population decline.
        """
        self.dropped_dead[message.kind] += count

    # -- read-side helpers -------------------------------------------------

    def total_sent(self) -> int:
        """Total transmissions across all nodes and kinds."""
        return sum(self.sent.values())

    def sent_of_kind(self, kind: str) -> int:
        """Transmissions of message class name ``kind`` across all nodes."""
        return sum(count for (_, k), count in self.sent.items() if k == kind)

    def max_protocol_messages_any_node(
        self, since: Optional[Counter] = None
    ) -> int:
        """Largest protocol transmission count of any single node.

        Parameters
        ----------
        since:
            A mark previously taken with :meth:`mark`; when given, only
            transmissions *after* the mark count.  This is how the
            invariant checker verifies Table 2's per-node message bound
            over one election epoch's window without disturbing the
            maintenance manager's own :meth:`checkpoint`.
        """
        return max(self.protocol_sent_per_node(since).values(), default=0)

    def protocol_sent_per_node(
        self, since: Optional[Counter] = None
    ) -> Counter:
        """Per-node protocol transmission counts (optionally since a mark)."""
        per_node: Counter[int] = Counter()
        for (sender, kind), count in self.sent.items():
            if kind in _PROTOCOL_KINDS:
                if since is not None:
                    count -= since.get((sender, kind), 0)
                if count > 0:
                    per_node[sender] += count
        return per_node

    def mark(self) -> Counter:
        """An immutable copy of the sent counters, for windowed reads.

        Unlike :meth:`checkpoint` — a single slot owned by the
        maintenance manager's round accounting — marks are values the
        caller holds, so any number of observers can window the stream
        independently without clobbering each other.
        """
        return Counter(self.sent)

    # -- windowing ---------------------------------------------------------

    def checkpoint(self) -> None:
        """Mark the current counts; ``window()`` reports deltas from here."""
        self._sent_checkpoint = Counter(self.sent)

    def window(self) -> Counter[tuple[int, str]]:
        """Sent-message counts accumulated since the last checkpoint."""
        delta = Counter(self.sent)
        delta.subtract(self._sent_checkpoint)
        return Counter({key: count for key, count in delta.items() if count > 0})

    def window_protocol_total(self) -> int:
        """Protocol transmissions accumulated since the last checkpoint."""
        return sum(
            count
            for (_, kind), count in self.window().items()
            if kind in _PROTOCOL_KINDS
        )

    def window_protocol_per_node(self, n_nodes: int) -> float:
        """Average protocol messages per node since the last checkpoint."""
        if n_nodes <= 0:
            raise ValueError(f"need a positive node count, got {n_nodes}")
        return self.window_protocol_total() / n_nodes

    def clear(self) -> None:
        """Reset every counter and checkpoint."""
        self.sent.clear()
        self.delivered.clear()
        self.dropped.clear()
        self.dropped_dead.clear()
        self._sent_checkpoint.clear()
