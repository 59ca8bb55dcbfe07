"""Battery model.

A battery holds a scalar charge measured in transmission-cost units
(§6.2 sets the initial capacity to the cost of 500 transmissions).
Charge never goes negative — the final draw is clamped — and once
depleted the battery stays dead: sensor batteries in the paper's
setting are never replaced ("nodes are powered by small batteries and
replacing them is not an option", §1).

An infinite battery (``capacity=None``) is used for the idealized
"infinite battery" reference runs that define the coverage metric of
Figure 10.

The charge and the energy spent live in a
:class:`~repro.network.state.DeviceState` column: a battery is a view
of its slot, in a one-slot state of its own until its device is
registered on a radio, which moves it into the radio's columns.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.network.state import DEPLETED, DeviceState

__all__ = ["Battery", "DEPLETED"]


class Battery:
    """A finite (or infinite) energy reserve.

    Parameters
    ----------
    capacity:
        Initial charge in transmission units, or ``None`` for an
        inexhaustible battery.
    on_depleted:
        Optional callback invoked exactly once, at the moment the charge
        reaches zero.

    A capacity or draw that is not a finite number is refused: a NaN
    charge never reaches zero, and an infinite capacity makes
    :attr:`fraction_remaining` NaN.  ``None`` is the infinite battery.
    """

    def __init__(
        self,
        capacity: Optional[float] = None,
        on_depleted: Optional[Callable[[], None]] = None,
    ) -> None:
        if capacity is not None and not (0 <= capacity < math.inf):
            raise ValueError(
                f"battery capacity must be finite and non-negative (None for "
                f"an infinite battery), got {capacity}"
            )
        self._capacity = capacity
        self._state, self._slot = DeviceState(1), 0
        self._state.flags[0] = 0
        self._state.charge[0] = math.inf if capacity is None else capacity
        if capacity == 0:
            self._state.flags[0] = DEPLETED
            if on_depleted is not None:
                on_depleted()
        elif on_depleted is not None:
            self._state.callbacks[0] = on_depleted

    @property
    def infinite(self) -> bool:
        """Whether this battery never depletes."""
        return self._capacity is None

    @property
    def capacity(self) -> Optional[float]:
        """Initial charge, or ``None`` if infinite."""
        return self._capacity

    @property
    def charge(self) -> Optional[float]:
        """Remaining charge, or ``None`` if infinite."""
        if self._capacity is None:
            return None
        return self._state.charge[self._slot]

    @property
    def spent(self) -> float:
        """Total energy drawn so far (tracked even for infinite batteries)."""
        return self._state.spent[self._slot]

    @property
    def depleted(self) -> bool:
        """Whether the battery has run out."""
        return self._state.charge[self._slot] <= 0.0

    @property
    def fraction_remaining(self) -> float:
        """Remaining charge as a fraction of capacity (1.0 if infinite)."""
        if self._capacity is None:
            return 1.0
        if self._capacity == 0:
            return 0.0
        return max(0.0, self._state.charge[self._slot] / self._capacity)

    def draw(self, amount: float) -> float:
        """Consume ``amount`` energy; returns what was actually drawn.

        Drawing from a depleted battery is a no-op returning 0.  A draw
        that exceeds the remaining charge is clamped, and the depletion
        callback fires once.
        """
        if not amount >= 0:
            raise ValueError(f"cannot draw negative or NaN energy {amount}")
        return self._state.draw(self._slot, amount)

    def _bind(self, state, slot: int) -> None:
        """Move this battery's charge, spending and callback to ``slot``
        of ``state`` (a :class:`~repro.network.state.DeviceState`)."""
        own, at = self._state, self._slot
        if own is state and at == slot:
            return
        state.charge[slot] = own.charge[at]
        state.spent[slot] = own.spent[at]
        callback = own.callbacks.pop(at, None)
        if callback is not None:
            state.callbacks[slot] = callback
        if self.depleted:
            state.flags[slot] |= DEPLETED
        self._state, self._slot = state, slot

    def __repr__(self) -> str:
        if self._capacity is None:
            return f"Battery(infinite, spent={self.spent:.1f})"
        return f"Battery(charge={self.charge:.1f}/{self._capacity:.1f})"
