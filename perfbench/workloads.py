"""The benchmark's workloads, built on ``repro``'s public API.

``BENCHMARK.json`` lists ``pipeline-n2000`` and ``serve-n400``.
``churn-n400`` runs the same way by hand; it is left out of the list
because on a 2-vCPU virtual machine its timings spread 25-44% between
runs of identical work, more than any bound the benchmark may set.

Every input comes from the workload seed: the dataset, the topology,
the fault plan, the sinks and the query mix.  The runtime itself is
seeded with the same number, so two repetitions of one seed replay the
identical simulation.

Each workload has a ``setup`` (timed as ``setup_s``), a ``body`` (timed
as ``run_ref_s``) and a ``finish`` that runs after the clock stops: it
checks served answers against fresh executions, reads the simulated
quantities and stops the front end.  ``rep_s`` is about what one
repetition takes on a busy shared 2-vCPU virtual machine, interpreter
start and checks included; ``run.py`` sizes a run by it.
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeCrash
from repro.network.links import PERFECT_LINKS, GlobalLoss, LossModel
from repro.network.topology import uniform_random_topology
from repro.query.aggregation_tree import AggregationTree
from repro.query.ast import Aggregate, Query
from repro.query.executor import QueryExecutor
from repro.query.spatial import random_square
from repro.serving import QueryFrontEnd
from repro.serving.frontend import BATCH_BUCKETS

from recorder import RepRecorder

__all__ = ["WORKLOADS", "Deployment"]

#: Expected neighbours per node; the radius follows from N (§6.1 uses a
#: uniform deployment on the unit square).
DEGREE = 12
#: Correlation classes of the random-walk data.
CLASSES = 4
#: Samples per series; longer than any workload's simulated horizon.
SERIES_LENGTH = 512
#: Training window (snoop probability 1.0 throughout, §6.1).
TRAIN_DURATION = 10.0
#: Snapshot-AVG templates, as in the serving microbenchmark.
TEMPLATES = 16
#: Served answers per repetition re-executed by the correctness check.
ANSWER_SAMPLE = 8


def radius_for(n_nodes: int) -> float:
    """Transmission radius giving :data:`DEGREE` expected neighbours."""
    return math.sqrt(DEGREE / (math.pi * n_nodes))


def stream(seed: int, purpose: int) -> np.random.Generator:
    """An independent generator for one kind of input of ``seed``."""
    return np.random.default_rng((seed, purpose))


def deploy(
    n_nodes: int,
    seed: int,
    config: ProtocolConfig,
    loss_model: LossModel = PERFECT_LINKS,
) -> SnapshotRuntime:
    """Random-walk data on a uniform random topology, default caches."""
    rng = stream(seed, 0)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=n_nodes, n_classes=CLASSES, length=SERIES_LENGTH),
        rng,
    )
    topology = uniform_random_topology(n_nodes, radius_for(n_nodes), rng)
    return SnapshotRuntime(topology, dataset, config, seed=seed, loss_model=loss_model)


def snapshot_templates(rng: np.random.Generator) -> list[Query]:
    """Snapshot AVG queries over random quarter-area squares."""
    return [
        Query(region=random_square(0.25, rng), aggregate=Aggregate.AVG, use_snapshot=True)
        for _ in range(TEMPLATES)
    ]


def fresh_query(rng: np.random.Generator, snapshot: Optional[bool] = None) -> Query:
    """A one-off query over a random region: snapshot or regular,
    aggregate or drill-through (``snapshot`` pins the mode)."""
    region = random_square(float(rng.uniform(0.01, 0.2)), rng)
    use_snapshot = bool(rng.random() < 0.5) if snapshot is None else snapshot
    if rng.random() < 0.5:
        return Query(region=region, aggregate=Aggregate.AVG, use_snapshot=use_snapshot)
    return Query(region=region, use_snapshot=use_snapshot)


def pick_sinks(runtime: SnapshotRuntime, count: int, rng: np.random.Generator) -> list[int]:
    ids = sorted(runtime.alive_ids())
    return sorted(int(node) for node in rng.choice(ids, size=count, replace=False))


def fresh_answer(runtime: SnapshotRuntime, served) -> object:
    """Re-execute a served query with a new executor, charging nothing.

    The reference tree holds exactly the nodes that took part in the
    served answer.  Under link loss a new flood could reach a different
    set, so reusing the membership is what makes the two comparable;
    a tree member that took no part contributed nothing to the answer.
    """
    result = served.result
    members = set(result.participants) | {result.sink}
    tree = AggregationTree(
        sink=result.sink,
        parents={member: result.sink for member in members},
        depths={member: int(member != result.sink) for member in members},
    )
    return QueryExecutor(runtime).execute(
        result.query, sink=result.sink, tree=tree, charge_energy=False
    )


def same_answer(served, fresh) -> bool:
    result = served.result
    return (
        result.reports == fresh.reports
        and result.aggregate_value == fresh.aggregate_value
        and result.responders == fresh.responders
        and result.matching_all == fresh.matching_all
    )


@dataclass
class Deployment:
    """What one repetition drives: the runtime, its front end and inputs."""

    runtime: SnapshotRuntime
    requests: list = field(default_factory=list)
    frontend: Optional[QueryFrontEnd] = None
    sample_rng: Optional[np.random.Generator] = None


def check_sample(dep: Deployment, rec: RepRecorder, candidates: list) -> None:
    """Compare a seeded sample of ``candidates`` with fresh executions."""
    if not candidates:
        return
    size = min(ANSWER_SAMPLE, len(candidates))
    picks = dep.sample_rng.choice(len(candidates), size=size, replace=False)
    version = dep.runtime.structure_version()
    for index in sorted(int(i) for i in picks):
        served = candidates[index]
        if served.version != version:
            rec.fail(f"served answer carries version {served.version}, runtime is at {version}")
            continue
        if not same_answer(served, fresh_answer(dep.runtime, served)):
            rec.fail(f"served answer for {served.result.query} differs from a fresh execution")
        rec.answers_checked += 1


def close(dep: Deployment, rec: RepRecorder) -> None:
    """Stop serving and read the simulated quantities."""
    if dep.frontend is not None:
        stats = dep.frontend.stats()
        stats["batch_mean"] = dep.runtime.metrics.histogram(
            "serving.batch_size", BATCH_BUCKETS
        ).cell().mean
        dep.frontend.stop()
        rec.serving_stats = stats
    rec.read_sim(dep.runtime)


class Pipeline:
    """§6.1 end to end at N=2000: train, elect, maintain, then serve."""

    name = "pipeline-n2000"
    rep_s = 13.0
    n_nodes = 2000
    period = 10.0
    rounds = 10
    tail = 512
    sinks = 4

    def setup(self, seed: int, rec: RepRecorder) -> Deployment:
        config = ProtocolConfig(heartbeat_period=self.period)
        with rec.phase("deploy"):
            runtime = deploy(self.n_nodes, seed, config)
            rec.attach(runtime)
        templates = snapshot_templates(stream(seed, 1))
        # Each template has its own sink, so a repeat hits the cache.
        # Several sinks average over where a sink sits in the network:
        # with one, the tail's throughput spread 15% between seeds.
        sinks = pick_sinks(runtime, self.sinks, stream(seed, 2))
        requests = [
            (templates[i % TEMPLATES], sinks[i % TEMPLATES % self.sinks])
            for i in range(self.tail)
        ]
        return Deployment(runtime, requests, sample_rng=stream(seed, 9))

    def body(self, dep: Deployment, rec: RepRecorder) -> None:
        runtime = dep.runtime
        with rec.phase("train"):
            runtime.train(duration=TRAIN_DURATION)
        with rec.phase("elect"):
            runtime.run_election()
        with rec.phase("maintenance"):
            runtime.start_maintenance()
            runtime.advance_to(runtime.now + self.rounds * self.period)
        dep.frontend = QueryFrontEnd(runtime, charge_energy=False).start()
        with rec.phase("queries"):
            for query, sink in dep.requests:
                future = rec.submit(dep.frontend, query, sink)
                if future is not None:
                    future.exception()

    def finish(self, dep: Deployment, rec: RepRecorder) -> None:
        if rec.verify:
            check_sample(dep, rec, rec.served())
        close(dep, rec)


class Serve:
    """A stable interval at N=400: the planner, executor and serving
    front end carry the load while the simulator stays idle."""

    name = "serve-n400"
    rep_s = 6.5
    n_nodes = 400
    period = 10.0
    warm_rounds = 10
    sinks = 4
    in_flight = 8
    requests = 2000
    repeat_share = 0.75

    def setup(self, seed: int, rec: RepRecorder) -> Deployment:
        config = ProtocolConfig(heartbeat_period=self.period)
        with rec.phase("deploy"):
            runtime = deploy(self.n_nodes, seed, config)
            rec.attach(runtime)
        with rec.phase("train"):
            runtime.train(duration=TRAIN_DURATION)
        with rec.phase("elect"):
            runtime.run_election()
        with rec.phase("maintenance"):
            # A few maintenance rounds give the deployment its §5.1
            # message cost; stopping them pins the structure version for
            # the served interval.
            runtime.start_maintenance()
            runtime.advance_to(runtime.now + self.warm_rounds * self.period)
            runtime.maintenance.stop()
        rng = stream(seed, 1)
        sinks = pick_sinks(runtime, self.sinks, rng)
        templates = [(query, sinks[i % self.sinks]) for i, query in enumerate(snapshot_templates(rng))]
        requests = []
        for _ in range(self.requests):
            if rng.random() < self.repeat_share:
                requests.append(templates[int(rng.integers(TEMPLATES))])
            else:
                requests.append((fresh_query(rng), sinks[int(rng.integers(self.sinks))]))
        frontend = QueryFrontEnd(runtime, charge_energy=False).start()
        return Deployment(runtime, requests, frontend, sample_rng=stream(seed, 9))

    def body(self, dep: Deployment, rec: RepRecorder) -> None:
        frontend = dep.frontend
        pending: set = set()
        with rec.phase("queries"):
            for query, sink in dep.requests:
                if len(pending) >= self.in_flight:
                    _, pending = wait(pending, return_when=FIRST_COMPLETED)
                future = rec.submit(frontend, query, sink)
                if future is not None:
                    pending.add(future)
            wait(pending)

    def finish(self, dep: Deployment, rec: RepRecorder) -> None:
        if rec.verify:
            check_sample(dep, rec, rec.served())
        close(dep, rec)


class Churn:
    """Maintenance under loss and crashes with queries in between: the
    structure keeps moving while the front end serves."""

    name = "churn-n400"
    rep_s = 20.0
    n_nodes = 400
    period = 10.0
    rounds = 10
    loss = 0.1
    crash_share = 0.05
    sinks = 4
    queries_per_unit = 4
    check_every = 10

    def setup(self, seed: int, rec: RepRecorder) -> Deployment:
        config = ProtocolConfig(heartbeat_period=self.period, snoop_probability=0.05)
        with rec.phase("deploy"):
            runtime = deploy(self.n_nodes, seed, config, loss_model=GlobalLoss(self.loss))
            rec.attach(runtime)
        with rec.phase("train"):
            runtime.train(duration=TRAIN_DURATION)
        with rec.phase("elect"):
            runtime.run_election()
        rng = stream(seed, 1)
        sinks = pick_sinks(runtime, self.sinks, rng)
        templates = [(query, sinks[i % self.sinks]) for i, query in enumerate(snapshot_templates(rng))]
        units = int(self.rounds * self.period)
        # Each unit asks one template twice, so the repeat hits unless
        # the structure moved in between, plus fresh drill-throughs.
        requests = []
        for unit in range(units):
            for k in range(self.queries_per_unit):
                if k % 2 == 0:
                    requests.append(templates[unit % TEMPLATES])
                else:
                    requests.append((fresh_query(rng, snapshot=True), sinks[int(rng.integers(self.sinks))]))
        # Sinks never crash, so every request has a live collector.
        crashable = sorted(set(runtime.alive_ids()) - set(sinks))
        per_round = max(1, round(self.crash_share * self.n_nodes))
        crashes = []
        for r in range(self.rounds):
            for node in rng.choice(crashable, size=per_round, replace=False):
                at = r * self.period + float(rng.uniform(0.0, self.period / 2))
                crashes.append(NodeCrash(time=at, node_id=int(node), down_for=self.period / 2))
        FaultInjector(runtime).apply(FaultPlan(tuple(crashes)))
        runtime.start_maintenance()
        frontend = QueryFrontEnd(runtime, charge_energy=True).start()
        return Deployment(runtime, requests, frontend, sample_rng=stream(seed, 9))

    def body(self, dep: Deployment, rec: RepRecorder) -> None:
        runtime, frontend = dep.runtime, dep.frontend
        start = runtime.now
        per_unit = self.queries_per_unit
        units = len(dep.requests) // per_unit
        for unit in range(units):
            with rec.phase("maintenance"):
                with frontend.runtime_lock:
                    runtime.advance_to(start + unit + 1)
            with rec.phase("queries"):
                for query, sink in dep.requests[unit * per_unit:(unit + 1) * per_unit]:
                    future = rec.submit(frontend, query, sink)
                    if future is not None:
                        future.exception()
            if rec.verify and unit % self.check_every == 0:
                # Answers computed in this unit against the live state;
                # the check is untimed (see RepRecorder.untimed).
                with rec.untimed():
                    fresh = [s for s in rec.served()[-per_unit:] if not s.cached]
                    with frontend.runtime_lock:
                        check_sample(dep, rec, fresh)

    def finish(self, dep: Deployment, rec: RepRecorder) -> None:
        close(dep, rec)


WORKLOADS = {workload.name: workload for workload in (Pipeline(), Serve(), Churn())}
