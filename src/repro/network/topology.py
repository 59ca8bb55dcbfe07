"""Node placement and connectivity.

The paper deploys ``N`` sensors uniformly at random on the unit square
``[0,1) x [0,1)`` and uses a unit-disk radio: node ``i`` can transmit to
``j`` iff their Euclidean distance is at most ``i``'s transmission range.
Ranges may differ per node, which makes the "can transmit to" relation
asymmetric — exactly the loose, directional notion of *neighbor* the
paper adopts (footnote 2).

:class:`Topology` is a value object: placement and ranges are fixed at
construction; mobility experiments rebuild it.  Neighbor sets are
pre-computed once, because the election protocol queries them heavily.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["Topology", "uniform_random_topology", "grid_topology"]


class Topology:
    """Immutable node placement + transmission ranges on the unit square.

    Parameters
    ----------
    positions:
        Sequence of ``(x, y)`` coordinates; node ids are ``0..N-1``.
    ranges:
        Per-node transmission range, or a single float applied to all.
    """

    def __init__(
        self,
        positions: Sequence[tuple[float, float]],
        ranges: float | Sequence[float],
    ) -> None:
        if not positions:
            raise ValueError("topology requires at least one node")
        self._positions = [(float(x), float(y)) for x, y in positions]
        n = len(self._positions)
        if isinstance(ranges, (int, float)):
            self._ranges = [float(ranges)] * n
        else:
            self._ranges = [float(r) for r in ranges]
            if len(self._ranges) != n:
                raise ValueError(
                    f"{len(self._ranges)} ranges given for {n} nodes"
                )
        if any(r <= 0 for r in self._ranges):
            raise ValueError("transmission ranges must be positive")
        self._out_neighbors = self._compute_out_neighbors()
        self._out_sets = [frozenset(hearers) for hearers in self._out_neighbors]
        self._in_neighbors = self._compute_in_neighbors()

    def _compute_out_neighbors(self) -> list[tuple[int, ...]]:
        """For each sender ``i``, the receivers within ``range(i)``.

        Uses spatial-grid bucketing: nodes are hashed into square cells
        of side ``max(range)``, so any receiver of ``i`` lies in the
        3x3 cell block around ``i`` and only those candidates are
        distance-tested.  On the paper's uniform deployments this is
        O(N * expected neighborhood) in time and memory, replacing the
        O(N^2) pairwise-distance tensor that dominated construction for
        N in the thousands.  Distances are ``sqrt(dx*dx + dy*dy)`` on
        the same operands as the old tensor computation, so the
        resulting neighbor sets are bit-identical.
        """
        n = len(self._positions)
        cell = max(self._ranges)
        buckets: dict[tuple[int, int], list[int]] = {}
        cell_of: list[tuple[int, int]] = []
        for i, (x, y) in enumerate(self._positions):
            key = (int(math.floor(x / cell)), int(math.floor(y / cell)))
            cell_of.append(key)
            buckets.setdefault(key, []).append(i)

        # Per-cell cache of the candidate block (the 3x3 neighborhood),
        # as sorted id/coordinate arrays ready for one vectorized
        # distance test per sender in the cell.
        block_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        coords = np.asarray(self._positions, dtype=np.float64)

        def block(key: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            cached = block_cache.get(key)
            if cached is None:
                cx, cy = key
                ids: list[int] = []
                for gx in (cx - 1, cx, cx + 1):
                    for gy in (cy - 1, cy, cy + 1):
                        ids.extend(buckets.get((gx, gy), ()))
                ids.sort()
                id_arr = np.asarray(ids, dtype=np.intp)
                cached = (id_arr, coords[id_arr, 0], coords[id_arr, 1])
                block_cache[key] = cached
            return cached

        out: list[tuple[int, ...]] = []
        for i in range(n):
            cand_ids, cand_x, cand_y = block(cell_of[i])
            xi, yi = coords[i, 0], coords[i, 1]
            dx = xi - cand_x
            dy = yi - cand_y
            hearers = cand_ids[np.sqrt(dx * dx + dy * dy) <= self._ranges[i]]
            out.append(tuple(int(j) for j in hearers if j != i))
        return out

    def _compute_in_neighbors(self) -> list[tuple[int, ...]]:
        """Reverse adjacency: for each receiver, the senders reaching it."""
        incoming: list[list[int]] = [[] for _ in self._positions]
        for sender, hearers in enumerate(self._out_neighbors):
            for receiver in hearers:
                incoming[receiver].append(sender)
        # senders are visited in ascending id order, so each list is sorted
        return [tuple(senders) for senders in incoming]

    def __len__(self) -> int:
        return len(self._positions)

    @property
    def node_ids(self) -> range:
        """All node ids, ``0..N-1``."""
        return range(len(self._positions))

    def position(self, node_id: int) -> tuple[float, float]:
        """Coordinates of ``node_id``."""
        return self._positions[node_id]

    @cached_property
    def xs(self) -> np.ndarray:
        """x coordinates by node id (``float64``)."""
        return np.array([x for x, _ in self._positions], dtype=np.float64)

    @cached_property
    def ys(self) -> np.ndarray:
        """y coordinates by node id (``float64``)."""
        return np.array([y for _, y in self._positions], dtype=np.float64)

    def range_of(self, node_id: int) -> float:
        """Transmission range of ``node_id``."""
        return self._ranges[node_id]

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between nodes ``a`` and ``b``."""
        (xa, ya), (xb, yb) = self._positions[a], self._positions[b]
        return math.hypot(xa - xb, ya - yb)

    def out_neighbors(self, sender: int) -> tuple[int, ...]:
        """Nodes that can *hear* ``sender`` (within ``sender``'s range)."""
        return self._out_neighbors[sender]

    def in_neighbors(self, receiver: int) -> tuple[int, ...]:
        """Nodes whose transmissions reach ``receiver`` (precomputed)."""
        return self._in_neighbors[receiver]

    def directed_links(self) -> Iterator[tuple[int, int]]:
        """All ``(sender, receiver)`` pairs the radio can traverse.

        Yielded in ascending ``(sender, receiver)`` order.
        """
        for sender, hearers in enumerate(self._out_neighbors):
            for receiver in hearers:
                yield (sender, receiver)

    def can_transmit(self, sender: int, receiver: int) -> bool:
        """Whether ``sender``'s radio reaches ``receiver``.

        Answered from the precomputed forward set, so it agrees exactly
        with :meth:`out_neighbors` (the previous implementation
        recomputed the distance, which could in principle round
        differently at the range boundary).
        """
        return receiver in self._out_sets[sender]

    def is_connected(self, alive: Optional[Iterable[int]] = None) -> bool:
        """Whether the (bidirectional-link) graph over ``alive`` is connected.

        A link exists when *either* endpoint can reach the other; this is
        the weakest useful notion and matches the paper's remark that
        ranges below 0.2 "often result in parts of the network being
        disconnected".  BFS over the precomputed forward and reverse
        adjacency restricted to ``alive`` — O(V + E), where the previous
        implementation rescanned the unseen set on every visit.
        """
        nodes = list(self.node_ids) if alive is None else sorted(set(alive))
        if not nodes:
            return True
        node_set = set(nodes)
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            current = frontier.pop()
            for other in self._out_neighbors[current]:
                if other in node_set and other not in seen:
                    seen.add(other)
                    frontier.append(other)
            for other in self._in_neighbors[current]:
                if other in node_set and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(node_set)

    def nodes_in_rect(
        self, x_low: float, y_low: float, x_high: float, y_high: float
    ) -> list[int]:
        """Ids of nodes inside the axis-aligned rectangle (inclusive)."""
        return [
            i
            for i, (x, y) in enumerate(self._positions)
            if x_low <= x <= x_high and y_low <= y <= y_high
        ]

    def __iter__(self) -> Iterator[int]:
        return iter(self.node_ids)


def uniform_random_topology(
    n: int,
    transmission_range: float,
    rng: np.random.Generator,
) -> Topology:
    """The paper's deployment: ``n`` nodes uniform on ``[0,1) x [0,1)``."""
    if n <= 0:
        raise ValueError(f"need a positive node count, got {n}")
    positions = [(float(x), float(y)) for x, y in rng.random((n, 2))]
    return Topology(positions, transmission_range)


def grid_topology(side: int, transmission_range: float) -> Topology:
    """A ``side x side`` regular grid on the unit square (deterministic).

    Useful in tests where exact neighbor sets must be known a priori.
    """
    if side <= 0:
        raise ValueError(f"need a positive grid side, got {side}")
    step = 1.0 / side
    positions = [
        (step / 2 + step * col, step / 2 + step * row)
        for row in range(side)
        for col in range(side)
    ]
    return Topology(positions, transmission_range)
