"""Observe a radio's deliveries from a test.

Every delivery reaches code above the radio through one call,
``radio.burst_dispatch(messages, lives, devices)``: one run of bursts,
``lives[i]`` the ids alive to receive ``messages[i]``.  Tests watch it
by wrapping that attribute, not through any hook of the program.
Whether a receiver was addressed or overheard follows from the
message's own fields.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["observe_deliveries"]


def observe_deliveries(radio, callback: Callable) -> Callable[[], None]:
    """Call ``callback(message, receiver_id)`` for each live delivery on
    ``radio``, after the protocols have handled the run; returns the
    function that undoes it.

    Install after the radio's protocols exist (each one sets
    ``burst_dispatch``), and undo in reverse order of installing.
    """
    inner = radio.burst_dispatch

    def dispatch(messages, lives, devices) -> None:
        if inner is not None:
            inner(messages, lives, devices)
        for message, live in zip(messages, lives):
            for rid in live:
                callback(message, rid)

    radio.burst_dispatch = dispatch

    def undo() -> None:
        assert radio.burst_dispatch is dispatch, "undo in reverse order"
        radio.burst_dispatch = inner

    return undo
