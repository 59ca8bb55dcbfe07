"""Link-quality models.

The paper's simulator exposes "the probability of a link failure" as a
knob (§6) and sweeps a global message-loss probability ``P_loss`` in
Figures 7 and 13.  Loss models decide, per transmission and per
receiver, whether a message is delivered; the decision is independent
across receivers of the same broadcast, which is how collisions and
fading are abstracted.

Besides the global Bernoulli model the paper uses, we provide per-link
overrides (for modelling obstacles — the paper's §3 example of a node
never hearing another due to "an obstacle in their direct path") and a
distance-proportional model for softer degradation studies.

Loss models expose two equivalent sampling APIs: the scalar
``delivered(sender, receiver, rng)`` and the vectorized
``loss_vector(sender, receivers, rng)`` the radio's batched fan-out
uses — one blocked ``rng.random(k)`` draw per transmission instead of
``k`` scalar calls, consuming the stream draw-for-draw identically.
"""

from __future__ import annotations

import abc
from typing import Mapping, Sequence

import numpy as np

from repro.network.topology import Topology

__all__ = ["LossModel", "GlobalLoss", "PerLinkLoss", "DistanceLoss", "PERFECT_LINKS"]


def _sample_deliveries(
    probabilities: Sequence[float], rng: np.random.Generator
) -> np.ndarray:
    """Vectorized Bernoulli delivery outcomes, draw-for-draw scalar-equivalent.

    The scalar path (:meth:`LossModel.delivered`) consumes one uniform
    draw per link whose loss probability is strictly inside ``(0, 1)``
    and none for the degenerate ones, so this kernel draws a single
    ``rng.random(k)`` block over exactly those links, in receiver
    order.  ``numpy``'s ``Generator.random`` produces the identical
    double sequence whether called ``k`` times with size ``None`` or
    once with size ``k``, which makes the two paths reproduce the same
    outcomes from the same stream state (pinned by a property test).
    """
    ps = np.asarray(probabilities, dtype=np.float64)
    delivered = ps <= 0.0
    uncertain = ~delivered & (ps < 1.0)
    k = int(uncertain.sum())
    if k:
        delivered[uncertain] = rng.random(k) >= ps[uncertain]
    return delivered


class LossModel(abc.ABC):
    """Decides whether a transmission from ``sender`` reaches ``receiver``."""

    @abc.abstractmethod
    def loss_probability(self, sender: int, receiver: int) -> float:
        """Probability in ``[0, 1]`` that this directed link drops a message."""

    def delivered(self, sender: int, receiver: int, rng: np.random.Generator) -> bool:
        """Sample one delivery outcome for this directed link."""
        p = self.loss_probability(sender, receiver)
        if p <= 0.0:
            return True
        if p >= 1.0:
            return False
        return rng.random() >= p

    @property
    def lossless(self) -> bool:
        """Whether no link can drop a message, so sampling draws nothing.

        Derived from the model, never set: a lossless model's
        ``delivered`` is ``True`` on every link without touching the
        RNG, which lets callers skip the per-link calls.  The base class
        answers ``False`` (sample every link), which is always safe.
        """
        return False

    def loss_vector(
        self,
        sender: int,
        receivers: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Delivery outcomes for all ``receivers`` of one transmission.

        Returns a boolean array aligned with ``receivers``.  The base
        implementation is the scalar fallback — it literally calls
        :meth:`delivered` per receiver, so third-party models that
        override ``delivered`` (custom RNG usage included) stay
        correct without knowing about vectorization.  The bundled
        models override this with a single blocked draw that consumes
        the stream identically.
        """
        return np.fromiter(
            (self.delivered(sender, receiver, rng) for receiver in receivers),
            dtype=bool,
            count=len(receivers),
        )


class GlobalLoss(LossModel):
    """Uniform loss probability ``P_loss`` on every link (paper's model)."""

    def __init__(self, probability: float = 0.0) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0,1], got {probability}")
        self.probability = float(probability)

    def loss_probability(self, sender: int, receiver: int) -> float:
        return self.probability

    @property
    def lossless(self) -> bool:
        return self.probability <= 0.0

    def loss_vector(
        self,
        sender: int,
        receivers: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        k = len(receivers)
        p = self.probability
        if p <= 0.0:
            return np.ones(k, dtype=bool)
        if p >= 1.0:
            return np.zeros(k, dtype=bool)
        return rng.random(k) >= p

    def __repr__(self) -> str:
        return f"GlobalLoss({self.probability})"


class PerLinkLoss(LossModel):
    """Per-directed-link overrides on top of a base probability.

    Setting a link's probability to 1.0 models a permanent obstacle on
    that directed path.
    """

    def __init__(
        self,
        base: float = 0.0,
        overrides: Mapping[tuple[int, int], float] | None = None,
    ) -> None:
        if not 0.0 <= base <= 1.0:
            raise ValueError(f"base loss probability must be in [0,1], got {base}")
        self.base = float(base)
        self.overrides: dict[tuple[int, int], float] = {}
        #: Overridden links that can drop a message, kept by
        #: :meth:`set_link` so :attr:`lossless` answers in O(1).
        self._lossy_links = 0
        for link, p in (overrides or {}).items():
            self.set_link(link[0], link[1], p)

    def set_link(self, sender: int, receiver: int, probability: float) -> None:
        """Override the loss probability of the directed link."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0,1], got {probability}")
        link = (sender, receiver)
        self._lossy_links += (probability > 0.0) - (self.overrides.get(link, 0.0) > 0.0)
        self.overrides[link] = float(probability)

    def loss_probability(self, sender: int, receiver: int) -> float:
        return self.overrides.get((sender, receiver), self.base)

    @property
    def lossless(self) -> bool:
        return self.base <= 0.0 and not self._lossy_links

    def loss_vector(
        self,
        sender: int,
        receivers: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        get, base = self.overrides.get, self.base
        return _sample_deliveries(
            [get((sender, receiver), base) for receiver in receivers], rng
        )


class DistanceLoss(LossModel):
    """Loss grows linearly with distance up to the sender's range.

    At distance 0 the loss is ``floor``; at the sender's full range it is
    ``ceiling``.  Links beyond range never deliver (the radio layer also
    enforces this, but the model is self-consistent).
    """

    def __init__(self, topology: Topology, floor: float = 0.0, ceiling: float = 0.9) -> None:
        if not 0.0 <= floor <= ceiling <= 1.0:
            raise ValueError(
                f"need 0 <= floor <= ceiling <= 1, got floor={floor} ceiling={ceiling}"
            )
        self._topology = topology
        self.floor = float(floor)
        self.ceiling = float(ceiling)

    def loss_probability(self, sender: int, receiver: int) -> float:
        reach = self._topology.range_of(sender)
        distance = self._topology.distance(sender, receiver)
        if distance > reach:
            return 1.0
        fraction = distance / reach if reach > 0 else 1.0
        return self.floor + (self.ceiling - self.floor) * fraction

    def loss_vector(
        self,
        sender: int,
        receivers: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        # Probabilities come from the scalar formula on purpose: reusing
        # ``loss_probability`` keeps boundary links (distance == reach)
        # bit-identical to the scalar path; only the draws are blocked.
        return _sample_deliveries(
            [self.loss_probability(sender, receiver) for receiver in receivers], rng
        )


#: Shared lossless model for the paper's ``P_loss = 0`` configurations.
PERFECT_LINKS = GlobalLoss(0.0)
