"""Model management (§4 of the paper).

Linear correlation models between neighboring nodes' measurements
(Lemma 1), pluggable error metrics, and the model-aware cache manager
that allocates a node's few hundred bytes of memory to the models that
yield the highest accuracy — plus the round-robin baseline of Figure 8.
"""

from repro.models.cache import (
    BYTES_PER_PAIR,
    BYTES_PER_VALUE,
    STATS_SYNC_INTERVAL,
    CacheLine,
    pairs_for_budget,
)
from repro.models.cache_manager import ModelAwareCache
from repro.models.metrics import (
    AbsoluteError,
    ErrorMetric,
    RelativeError,
    SumSquaredError,
    metric_by_name,
)
from repro.models.policy import Action, CachePolicy
from repro.models.regression import (
    LinearModel,
    RegressionStats,
    fit_line,
    mean_sse_of_model,
    no_answer_sse,
    sse_of_model,
)
from repro.models.round_robin import RoundRobinCache

__all__ = [
    "AbsoluteError",
    "Action",
    "BYTES_PER_PAIR",
    "BYTES_PER_VALUE",
    "CacheLine",
    "CachePolicy",
    "ErrorMetric",
    "LinearModel",
    "ModelAwareCache",
    "RegressionStats",
    "RelativeError",
    "RoundRobinCache",
    "STATS_SYNC_INTERVAL",
    "SumSquaredError",
    "fit_line",
    "mean_sse_of_model",
    "metric_by_name",
    "no_answer_sse",
    "pairs_for_budget",
    "sse_of_model",
]
