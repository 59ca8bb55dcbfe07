"""The physical sensor node.

:class:`NetworkNode` is the *device*: an id, a battery and the protocol
instance resident on it.  All protocol intelligence (model management,
election, query processing) lives in higher layers.  The radio hands
delivery runs to the protocol layer's burst table
(:attr:`~repro.network.radio.Radio.burst_dispatch`), which reaches each
receiver's protocol through its device; whether a receiver was the
target or overheard the transmission (the snooping of §3) follows from
the message's own address fields.
"""

from __future__ import annotations

from typing import Optional

from repro.energy.battery import Battery
from repro.network.messages import Message
from repro.network.state import FAILED

__all__ = ["NetworkNode"]


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

    def deliver(self, message: Message) -> None:
        """Hand one delivered message to the resident protocol, if any.

        The caller filters liveness and never delivers to a dead node,
        so this does not check again.  The radio itself delivers whole
        runs through its ``burst_dispatch``, with the same per-receiver
        outcome.
        """
        protocol = self.protocol
        if protocol is not None:
            protocol._on_message(message)

    def __repr__(self) -> str:
        state = "alive" if self.alive else ("failed" if self.failed else "dead")
        return f"NetworkNode(id={self.node_id}, {state}, {self.battery!r})"
