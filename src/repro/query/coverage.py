"""Coverage tracking over a network's lifetime (Figure 10).

The paper's lifetime experiment fires a stream of random spatial
queries at a battery-powered network and tracks *coverage*: the number
of node measurements available to each query over the number of nodes
that would have responded given infinite battery capacity.  "For
instance, if four nodes are within the spatial filter of the query and
one of them has died, coverage is 75%.  For the same query on the
snapshot, the representative of the node that died might be available
and in that case coverage will be 100%."

:class:`CoverageSeries` accumulates per-query coverage and exposes the
summary the paper argues from: the area under the coverage curve
("What is important is the area below each curve, which in the case of
snapshot queries is significantly larger").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.executor import QueryResult

__all__ = ["CoverageSeries"]


@dataclass
class CoverageSeries:
    """Per-query coverage samples in execution order."""

    samples: list[float] = field(default_factory=list)

    def record(self, result: QueryResult) -> float:
        """Append the coverage of ``result``; returns it."""
        value = result.coverage()
        self.samples.append(value)
        return value

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def area(self) -> float:
        """Area under the coverage curve (sum of samples; unit x-step)."""
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        """Average coverage over the run."""
        if not self.samples:
            return 0.0
        return self.area / len(self.samples)
