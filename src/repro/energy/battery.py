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
"""

from __future__ import annotations

import math
from typing import Callable, Optional

__all__ = ["Battery", "DEPLETED"]

#: The bit a depleted battery sets in its device's liveness byte (see
#: :class:`~repro.network.state.DeviceState`).
DEPLETED = 0b010


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

    #: The liveness byte this battery's depletion is written to, as
    #: ``flags[slot]``; bound by the device that holds the battery.
    _flags: Optional[bytearray] = None
    _slot = 0

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
        self._charge = capacity
        self._on_depleted = on_depleted
        self._spent = 0.0
        if capacity == 0 and on_depleted is not None:
            on_depleted()

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
        return self._charge

    @property
    def spent(self) -> float:
        """Total energy drawn so far (tracked even for infinite batteries)."""
        return self._spent

    @property
    def depleted(self) -> bool:
        """Whether the battery has run out."""
        return self._charge is not None and self._charge <= 0.0

    @property
    def fraction_remaining(self) -> float:
        """Remaining charge as a fraction of capacity (1.0 if infinite)."""
        if self._capacity is None:
            return 1.0
        if self._capacity == 0:
            return 0.0
        assert self._charge is not None
        return max(0.0, self._charge / self._capacity)

    def draw(self, amount: float) -> float:
        """Consume ``amount`` energy; returns what was actually drawn.

        Drawing from a depleted battery is a no-op returning 0.  A draw
        that exceeds the remaining charge is clamped, and the depletion
        callback fires once.
        """
        if not amount >= 0:
            raise ValueError(f"cannot draw negative or NaN energy {amount}")
        if self._charge is None:
            self._spent += amount
            return amount
        if self._charge <= 0.0:
            return 0.0
        drawn = min(amount, self._charge)
        self._charge -= drawn
        self._spent += drawn
        if self._charge <= 0.0:
            self._charge = 0.0
            if self._flags is not None:
                self._flags[self._slot] |= DEPLETED
            if self._on_depleted is not None:
                callback, self._on_depleted = self._on_depleted, None
                callback()
        return drawn

    def _bind(self, flags: bytearray, slot: int) -> None:
        """Write this battery's depletion to ``flags[slot]`` from now on."""
        self._flags, self._slot = flags, slot
        if self.depleted:
            flags[slot] |= DEPLETED

    def can_afford(self, amount: float) -> bool:
        """Whether the remaining charge covers ``amount``."""
        if self._charge is None:
            return True
        return self._charge >= amount

    def __repr__(self) -> str:
        if self._capacity is None:
            return f"Battery(infinite, spent={self._spent:.1f})"
        return f"Battery(charge={self._charge:.1f}/{self._capacity:.1f})"
