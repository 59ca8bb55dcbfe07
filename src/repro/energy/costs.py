"""Energy cost model.

The paper's §6.2 accounting is simple and explicit:

* the unit of energy is *the cost of one transmission*;
* initial battery capacity is 500 transmissions;
* running the cache-maintenance algorithm once costs one tenth of a
  transmission ("probably an overestimate" — on Mica motes sending one
  bit costs as much as 1,000 CPU operations);
* reception cost is not charged in the paper's runs, so it defaults to
  zero but is configurable for sensitivity studies.

:class:`EnergyCostModel` is a frozen value object shared by the radio
(per transmission / reception) and the cache manager (per maintenance
invocation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["EnergyCostModel", "PAPER_COST_MODEL"]


@dataclass(frozen=True)
class EnergyCostModel:
    """Energy prices in units of one transmission.

    Attributes
    ----------
    transmit:
        Cost of sending one message (the unit; 1.0 in the paper).
    receive:
        Cost of receiving one message (0 in the paper's accounting).
    cpu_cache_update:
        Cost of one run of the cache-maintenance algorithm (0.1 in §6.2).
    """

    transmit: float = 1.0
    receive: float = 0.0
    cpu_cache_update: float = 0.1

    def __post_init__(self) -> None:
        for name in ("transmit", "receive", "cpu_cache_update"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{name} cost must be finite and non-negative, got {value}"
                )


#: The exact accounting used in Figure 10 of the paper.
PAPER_COST_MODEL = EnergyCostModel(transmit=1.0, receive=0.0, cpu_cache_update=0.1)
