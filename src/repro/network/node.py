"""The physical sensor node.

:class:`NetworkNode` is the *device*: an id, a battery, the protocol
instance resident on it and a set of attached message handlers.  All
protocol intelligence (model management, election, query processing)
lives in higher layers; the device merely hands every delivered message
to them, flagging whether the node was the intended target or merely
*overheard* a transmission on the shared medium — the paper's
model-building snoops on exactly such overheard traffic (§3).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.energy.battery import Battery
from repro.network.messages import Message
from repro.network.state import FAILED

__all__ = ["NetworkNode", "MessageHandler"]

#: A message handler receives ``(message, overheard)``.
MessageHandler = Callable[[Message, bool], None]


class NetworkNode:
    """A sensor device: identity, battery, and message dispatch.

    Parameters
    ----------
    node_id:
        The node's unique id (the paper suggests the MAC address; we use
        the topology index).
    battery:
        Energy reserve; defaults to an infinite battery, which is what
        the sensitivity experiments (§6.1) assume.
    """

    def __init__(self, node_id: int, battery: Optional[Battery] = None) -> None:
        self.node_id = node_id
        self.battery = battery if battery is not None else Battery(None)
        self._handlers: tuple[MessageHandler, ...] = ()
        #: The protocol instance running on this device (a
        #: :class:`~repro.core.protocol.ProtocolNode` registers itself),
        #: or ``None``.  The radio hands it whole delivery bursts
        #: through the protocol layer's burst table rather than one
        #: message at a time; :meth:`deliver` is the one-message form.
        self.protocol = None
        #: The liveness byte is ``_state.flags[_slot]``: the battery's
        #: one-slot state until a radio registers the device into its
        #: :class:`~repro.network.state.DeviceState`.
        self._state, self._slot = self.battery._state, self.battery._slot

    def _bind(self, state, slot: int) -> None:
        """Move this device's liveness byte and battery to ``slot`` of
        ``state`` (a :class:`~repro.network.state.DeviceState`)."""
        state.flags[slot] = self._state.flags[self._slot]
        self._state, self._slot = state, slot
        self.battery._bind(state, slot)
        if self._handlers:
            state.hooked.add(slot)

    @property
    def alive(self) -> bool:
        """A node is alive while its battery holds charge and it has not
        been failed by the fault-injection layer."""
        return not self._state.flags[self._slot]

    @property
    def failed(self) -> bool:
        """Whether the device is currently crashed by fault injection."""
        return bool(self._state.flags[self._slot] & FAILED)

    def fail(self) -> None:
        """Crash the device: it transmits and receives nothing while down.

        Unlike battery depletion — which is permanent ("replacing them
        is not an option", §1) — an injected failure models a transient
        outage (reboot, firmware hang, enclosure knocked over) and can
        be reversed with :meth:`restore`.
        """
        self._state.set_failed(self._slot, True)

    def restore(self) -> None:
        """Clear an injected failure; the device is alive again unless
        its battery also ran out in the meantime."""
        self._state.set_failed(self._slot, False)

    def attach(self, handler: MessageHandler) -> None:
        """Register a handler for every future delivery to this node."""
        self._handlers = self._handlers + (handler,)
        self._state.hooked.add(self._slot)

    def detach(self, handler: MessageHandler) -> None:
        """Remove a previously attached handler."""
        handlers = list(self._handlers)
        handlers.remove(handler)
        self._handlers = tuple(handlers)
        if not handlers:
            self._state.hooked.discard(self._slot)

    def deliver(self, message: Message, overheard: bool = False) -> None:
        """Dispatch one delivered message: the protocol, then each handler.

        The caller filters liveness and never delivers to a dead node,
        so this does not check again.  Handlers are stored as an
        immutable tuple so dispatch iterates a stable snapshot;
        attach/detach during dispatch affect only later deliveries.
        The radio itself dispatches whole bursts (see
        :meth:`~repro.network.radio.Radio._deliver_wave`) with the
        same per-receiver outcome.
        """
        protocol = self.protocol
        if protocol is not None:
            protocol._on_message(message, overheard)
        for handler in self._handlers:
            handler(message, overheard)

    def __repr__(self) -> str:
        state = "alive" if self.alive else ("failed" if self.failed else "dead")
        return f"NetworkNode(id={self.node_id}, {state}, {self.battery!r})"
