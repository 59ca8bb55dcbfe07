"""Reproduction of *Snapshot Queries: Towards Data-Centric Sensor Networks*
(Yannis Kotidis, ICDE 2005).

Sensor nodes build tiny linear models of their neighbors' measurements,
elect a small set of *representative* nodes with a localized protocol
(at most six messages per node), and answer *snapshot queries* from the
representatives alone — cutting the nodes a query touches by up to 90%.

Quickstart::

    import numpy as np
    from repro import (ProtocolConfig, RandomWalkConfig, SnapshotRuntime,
                       generate_random_walk, uniform_random_topology)

    rng = np.random.default_rng(7)
    data, _ = generate_random_walk(RandomWalkConfig(n_nodes=100, n_classes=4), rng)
    topo = uniform_random_topology(100, transmission_range=1.5, rng=rng)
    net = SnapshotRuntime(topo, data, ProtocolConfig(threshold=1.0))
    net.train(duration=10)          # §6.1 warm-up: neighbors learn models
    view = net.run_election()       # the localized §5 election
    print(view.size, "representatives for", view.n_nodes, "nodes")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import (
    DEFAULT_CACHE_BYTES,
    ElectionCoordinator,
    MaintenanceManager,
    MemberInfo,
    MultiResolutionSnapshot,
    NodeMode,
    ProtocolConfig,
    ProtocolNode,
    SnapshotRuntime,
    SnapshotView,
    SpuriousAudit,
)
from repro.data import (
    Dataset,
    RandomWalkConfig,
    WeatherConfig,
    generate_random_walk,
    generate_weather,
)
from repro.energy import PAPER_COST_MODEL, Battery, EnergyCostModel, EnergyLedger
from repro.models import (
    AbsoluteError,
    CacheLine,
    ErrorMetric,
    LinearModel,
    ModelAwareCache,
    RelativeError,
    RoundRobinCache,
    SumSquaredError,
    fit_line,
    metric_by_name,
)
from repro.network import (
    GlobalLoss,
    MessageStats,
    PerLinkLoss,
    Radio,
    Topology,
    uniform_random_topology,
)
from repro.serving import (
    AdmissionRejected,
    EpochResultCache,
    QueryFrontEnd,
    ServedResult,
)
from repro.simulation import RandomSource, Simulator

__version__ = "1.0.0"

__all__ = [
    "AbsoluteError",
    "AdmissionRejected",
    "Battery",
    "CacheLine",
    "DEFAULT_CACHE_BYTES",
    "Dataset",
    "ElectionCoordinator",
    "EnergyCostModel",
    "EnergyLedger",
    "EpochResultCache",
    "ErrorMetric",
    "GlobalLoss",
    "LinearModel",
    "MaintenanceManager",
    "MemberInfo",
    "MessageStats",
    "ModelAwareCache",
    "MultiResolutionSnapshot",
    "NodeMode",
    "PAPER_COST_MODEL",
    "PerLinkLoss",
    "ProtocolConfig",
    "ProtocolNode",
    "QueryFrontEnd",
    "Radio",
    "RandomSource",
    "RandomWalkConfig",
    "RelativeError",
    "RoundRobinCache",
    "ServedResult",
    "Simulator",
    "SnapshotRuntime",
    "SnapshotView",
    "SpuriousAudit",
    "SumSquaredError",
    "Topology",
    "WeatherConfig",
    "fit_line",
    "generate_random_walk",
    "generate_weather",
    "metric_by_name",
    "uniform_random_topology",
]
