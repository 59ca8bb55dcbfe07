"""Shared experiment machinery.

Every §6 experiment follows the same skeleton: build a network from a
handful of knobs, run the §6.1 warm-up (train for 10 time units, stay
silent until t=100), elect, measure, and average over ten repetitions
with fresh seeds.  :class:`NetworkSetup` captures the knobs,
:func:`run_discovery` executes the skeleton, and :class:`Series` /
:class:`SweepPoint` hold the averaged sweep results the figures plot.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.core.snapshot import SnapshotView
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.data.series import Dataset
from repro.data.weather import WeatherConfig, generate_weather
from repro.models.cache_manager import ModelAwareCache
from repro.models.metrics import metric_by_name
from repro.models.policy import CachePolicy
from repro.models.round_robin import RoundRobinCache
from repro.network.links import GlobalLoss
from repro.network.topology import Topology, uniform_random_topology

__all__ = [
    "NetworkSetup",
    "SweepPoint",
    "Series",
    "build_runtime",
    "run_discovery",
    "make_cache_factory",
    "random_walk_dataset",
    "weather_dataset",
    "derive_seeds",
    "parallel_map",
    "repeat",
    "ReportRun",
    "run_report_experiment",
    "FULL_RANGE",
]

#: The paper's default transmission range: sqrt(2) lets every node hear
#: every message on the unit square (§6.1).
FULL_RANGE = math.sqrt(2.0)


@dataclass(frozen=True)
class NetworkSetup:
    """The knobs shared by all §6 experiments.

    Attributes mirror the paper's §6.1 base configuration; individual
    experiments override what they sweep.
    """

    n_nodes: int = 100
    transmission_range: float = FULL_RANGE
    loss_probability: float = 0.0
    cache_bytes: int = 2048
    cache_policy: str = "model-aware"  # or "round-robin"
    threshold: float = 1.0
    metric_name: str = "sse"
    train_duration: float = 10.0
    election_time: float = 100.0
    battery_capacity: Optional[float] = None
    heartbeat_period: float = 100.0
    snoop_probability: float = 1.0
    energy_resign_fraction: float = 0.0
    rotation_probability: float = 0.0

    def protocol_config(self, **overrides) -> ProtocolConfig:
        """The protocol configuration implied by this setup."""
        values = dict(
            threshold=self.threshold,
            metric=metric_by_name(self.metric_name),
            heartbeat_period=self.heartbeat_period,
            snoop_probability=self.snoop_probability,
            energy_resign_fraction=self.energy_resign_fraction,
            rotation_probability=self.rotation_probability,
        )
        values.update(overrides)
        return ProtocolConfig(**values)

    def with_(self, **changes) -> "NetworkSetup":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)


class _CacheFactory:
    """Picklable cache-policy factory (lambdas would break checkpointing)."""

    __slots__ = ("policy_cls", "cache_bytes")

    def __init__(self, policy_cls: type, cache_bytes: int) -> None:
        self.policy_cls = policy_cls
        self.cache_bytes = cache_bytes

    def __call__(self) -> CachePolicy:
        return self.policy_cls(self.cache_bytes)


def make_cache_factory(policy: str, cache_bytes: int) -> Callable[[], CachePolicy]:
    """Cache-policy factory from a registry name.

    ``model-aware`` is the §4 manager: a runtime binds each cache to a
    lane of its shared fleet, and a cache used on its own runs the
    scalar reference engine.  ``round-robin`` is Figure 8's baseline.
    """
    if policy == "model-aware":
        return _CacheFactory(ModelAwareCache, cache_bytes)
    if policy == "round-robin":
        return _CacheFactory(RoundRobinCache, cache_bytes)
    raise ValueError(
        f"unknown cache policy {policy!r}; expected 'model-aware' or "
        f"'round-robin'"
    )


def build_runtime(
    setup: NetworkSetup,
    dataset: Dataset,
    seed: int,
    topology: Optional[Topology] = None,
    config: Optional[ProtocolConfig] = None,
    **runtime_kwargs,
) -> SnapshotRuntime:
    """Assemble a runtime for ``setup`` over ``dataset``.

    The topology is drawn from the run's own RNG unless supplied, so
    every repetition sees a fresh placement, as in the paper.  Extra
    keyword arguments (``keep_trace_records``, ``metrics_enabled``, ...)
    pass through to :class:`SnapshotRuntime`.
    """
    rng = np.random.default_rng(seed)
    if topology is None:
        topology = uniform_random_topology(
            setup.n_nodes, setup.transmission_range, rng
        )
    return SnapshotRuntime(
        topology=topology,
        dataset=dataset,
        config=config if config is not None else setup.protocol_config(),
        seed=seed,
        loss_model=GlobalLoss(setup.loss_probability),
        cache_factory=make_cache_factory(setup.cache_policy, setup.cache_bytes),
        battery_capacity=setup.battery_capacity,
        **runtime_kwargs,
    )


def run_discovery(
    setup: NetworkSetup, dataset: Dataset, seed: int
) -> tuple[SnapshotRuntime, SnapshotView]:
    """The §6.1 skeleton: train, idle until the election time, elect."""
    runtime = build_runtime(setup, dataset, seed)
    runtime.train(duration=setup.train_duration)
    if setup.election_time > runtime.now:
        runtime.advance_to(setup.election_time)
    view = runtime.run_election()
    return runtime, view


def random_walk_dataset(
    setup: NetworkSetup, n_classes: int, seed: int, length: int = 100
) -> Dataset:
    """The §6.1 synthetic workload for one repetition."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=setup.n_nodes, n_classes=n_classes, length=length),
        rng,
    )
    return dataset


def weather_dataset(setup: NetworkSetup, seed: int, length: int = 100) -> Dataset:
    """The §6.3 synthetic wind-speed workload for one repetition."""
    rng = np.random.default_rng(seed ^ 0xEA7)
    dataset, _ = generate_weather(
        WeatherConfig(n_series=setup.n_nodes, length=length), rng
    )
    return dataset


# ----------------------------------------------------------------------
# sweep result containers
# ----------------------------------------------------------------------


@dataclass
class SweepPoint:
    """One x-value of a sweep, with its per-repetition samples."""

    x: float
    samples: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        """Average over repetitions."""
        return statistics.fmean(self.samples) if self.samples else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation (0 for a single repetition)."""
        if len(self.samples) < 2:
            return 0.0
        return statistics.stdev(self.samples)


@dataclass
class Series:
    """A named sweep: the data behind one line of a paper figure."""

    label: str
    x_name: str
    y_name: str
    points: list[SweepPoint] = field(default_factory=list)

    def add(self, x: float, samples: Sequence[float]) -> SweepPoint:
        """Append a sweep point with its repetition samples."""
        point = SweepPoint(x=x, samples=list(samples))
        self.points.append(point)
        return point

    @property
    def xs(self) -> list[float]:
        """The sweep's x values, in insertion order."""
        return [point.x for point in self.points]

    @property
    def means(self) -> list[float]:
        """Per-point averages."""
        return [point.mean for point in self.points]

    def point_at(self, x: float) -> SweepPoint:
        """The point with x value ``x``."""
        for point in self.points:
            if point.x == x:
                return point
        raise KeyError(f"no sweep point at x={x}")


_T = TypeVar("_T")
_R = TypeVar("_R")


def derive_seeds(base_seed: int, count: int) -> list[int]:
    """``count`` independent per-repetition seeds derived from ``base_seed``.

    Seeds come from ``numpy.random.SeedSequence(base_seed).spawn``, so
    repetitions of different sweep points never share a seed.  The old
    ``base_seed * 1_000 + index`` scheme collided whenever two sweep
    points' bases were closer than the repetition count (e.g. Figure 6's
    K=1 and K=2 points at >1000 repetitions) and, worse, produced
    *correlated* nearby integer seeds.  The seed list depends only on
    ``(base_seed, count)``, never on how the work is scheduled, which is
    what makes parallel and serial sweeps sample-for-sample identical.
    """
    if count <= 0:
        raise ValueError(f"need a positive seed count, got {count}")
    root = np.random.SeedSequence(base_seed)
    return [
        int(child.generate_state(1, dtype=np.uint64)[0]) for child in root.spawn(count)
    ]


def _job_count() -> int:
    """Worker processes requested via ``REPRO_JOBS`` (default 1 = serial).

    ``REPRO_JOBS=0`` (or any non-positive value) means "all cores".
    """
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from exc
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """``[fn(item) for item in items]``, fanned out over ``REPRO_JOBS`` processes.

    With ``REPRO_JOBS`` unset or ``1`` this is a plain serial loop (and
    ``fn`` may be any callable).  With more jobs, items are distributed
    over a ``ProcessPoolExecutor`` — ``fn`` and the items must then be
    picklable, which is why the sweep drivers use module-level functions
    bound with :func:`functools.partial` rather than closures.  Results
    come back in input order either way, so a sweep's output is
    independent of the worker count.
    """
    work = list(items)
    jobs = _job_count()
    if jobs == 1 or len(work) <= 1:
        return [fn(item) for item in work]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as executor:
        return list(executor.map(fn, work))


#: On-disk format version of the ``repeat`` progress file.
_PROGRESS_FORMAT = 1


def _write_progress(path: str, payload: dict) -> None:
    """Atomically replace ``path`` with ``payload`` as compact JSON."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_progress(path: str, base_seed: int, repetitions: int) -> dict[int, float]:
    """Completed samples from a prior interrupted ``repeat`` call.

    The file must describe the *same* experiment — identical base seed
    and repetition count — otherwise resuming would silently mix samples
    from different seed sequences.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != _PROGRESS_FORMAT:
        raise ValueError(
            f"progress file {path!r} has format {payload.get('format')!r}; "
            f"this version reads format {_PROGRESS_FORMAT}"
        )
    if payload.get("base_seed") != base_seed or payload.get("repetitions") != repetitions:
        raise ValueError(
            f"progress file {path!r} belongs to repeat(base_seed="
            f"{payload.get('base_seed')}, repetitions={payload.get('repetitions')}); "
            f"refusing to resume repeat(base_seed={base_seed}, "
            f"repetitions={repetitions}) from it"
        )
    return {int(index): value for index, value in payload.get("results", {}).items()}


def repeat(
    fn: Callable[[int], float],
    repetitions: int,
    base_seed: int,
    *,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
) -> list[float]:
    """Run ``fn(seed)`` for ``repetitions`` derived seeds; collect results.

    Seeds come from :func:`derive_seeds` and the calls are fanned out
    over ``REPRO_JOBS`` worker processes (serial by default), so results
    are identical whatever the parallelism.

    With ``checkpoint_path`` set, completed samples are flushed to a JSON
    progress file every ``checkpoint_every`` repetitions (default: one
    worker-pool round), and a rerun with the same ``(base_seed,
    repetitions)`` resumes from the file, recomputing only the missing
    repetitions.  Because the seed list depends only on ``(base_seed,
    repetitions)``, the resumed sample list is element-for-element
    identical to an uninterrupted run's.  The file is removed on
    completion.
    """
    if repetitions <= 0:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    seeds = derive_seeds(base_seed, repetitions)
    if checkpoint_path is None:
        return parallel_map(fn, seeds)

    if checkpoint_every is None:
        checkpoint_every = _job_count()
    if checkpoint_every <= 0:
        raise ValueError(
            f"checkpoint_every must be positive, got {checkpoint_every}"
        )
    path = os.fspath(checkpoint_path)
    results: dict[int, float] = {}
    if os.path.exists(path):
        results = _load_progress(path, base_seed, repetitions)
    pending = [index for index in range(repetitions) if index not in results]
    for start in range(0, len(pending), checkpoint_every):
        chunk = pending[start : start + checkpoint_every]
        for index, value in zip(chunk, parallel_map(fn, [seeds[i] for i in chunk])):
            results[index] = value
        _write_progress(
            path,
            {
                "format": _PROGRESS_FORMAT,
                "base_seed": base_seed,
                "repetitions": repetitions,
                "results": {str(index): results[index] for index in sorted(results)},
            },
        )
    samples = [results[index] for index in range(repetitions)]
    if os.path.exists(path):
        os.unlink(path)
    return samples


# ----------------------------------------------------------------------
# instrumented report runs
# ----------------------------------------------------------------------


@dataclass
class ReportRun:
    """A completed instrumented run: the report plus its live objects."""

    report: "RunReport"
    runtime: SnapshotRuntime
    coverage: "CoverageSeries"


def run_report_experiment(
    setup: NetworkSetup = NetworkSetup(),
    seed: int = 2005,
    rounds: int = 5,
    n_classes: int = 4,
    query_interval: float = 10.0,
    query_area: float = 0.25,
    profile: bool = False,
    metrics_enabled: bool = True,
    keep_trace_records: bool = False,
) -> ReportRun:
    """One fully observed maintenance run, captured as a :class:`RunReport`.

    The §6.1 skeleton (train, idle, elect) followed by ``rounds``
    maintenance periods during which random snapshot queries fire every
    ``query_interval`` time units and feed a
    :class:`~repro.query.coverage.CoverageSeries`.  The resulting report
    carries the Figure 15 messages/node and Figure 10 coverage
    quantities exactly as the runtime's own accounting computes them —
    this is what ``repro report`` and the differential tests consume.
    """
    from repro.obs.report import RunReport
    from repro.query.ast import Query
    from repro.query.coverage import CoverageSeries
    from repro.query.executor import QueryExecutor
    from repro.query.spatial import random_square

    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    period = setup.heartbeat_period
    length = int(setup.election_time + (rounds + 2) * period)
    dataset = random_walk_dataset(setup, n_classes, seed, length=length)
    runtime = build_runtime(
        setup,
        dataset,
        seed,
        keep_trace_records=keep_trace_records,
        metrics_enabled=metrics_enabled,
    )
    if profile:
        runtime.simulator.enable_profiling()
    runtime.train(duration=setup.train_duration)
    if setup.election_time > runtime.now:
        runtime.advance_to(setup.election_time)
    runtime.run_election()
    runtime.start_maintenance()

    executor = QueryExecutor(runtime)
    coverage = CoverageSeries()
    query_rng = np.random.default_rng(seed ^ 0x514)
    end = runtime.now + rounds * period
    clock = runtime.now
    while clock < end:
        clock = min(clock + query_interval, end)
        runtime.advance_to(clock)
        region = random_square(query_area, query_rng)
        try:
            result = executor.execute(Query(region=region, use_snapshot=True))
        except RuntimeError:
            # every node dead — close out what we have
            break
        coverage.record(result)
    runtime.maintenance.stop()

    report = RunReport.capture(
        runtime,
        coverage=coverage,
        meta={"rounds_requested": rounds, "query_interval": query_interval},
    )
    return ReportRun(report=report, runtime=runtime, coverage=coverage)
