"""Differential shard-conformance suite.

The sharded engine claims *bit-equivalence*: for any topology, seed,
cache policy and loss model, running the deployment split across 1, 2
or 4 shards produces byte-for-byte the same state digest, the same
trace records and the same report rows as the single-process
:class:`~repro.core.runtime.SnapshotRuntime`.  These tests prove it by
running both engines through an identical train → elect → maintain →
stop → drain script and diffing every observable.

A second family of cases freezes a 2-shard run at a mid-maintenance
sync seam via :meth:`ShardedRuntime.checkpoint`, restores it into a
fresh engine, and shows the resumed trajectory lands on the exact
digest of the uninterrupted run — the seam is invisible.

Marked ``shard`` so the tier-1 run stays fast; CI's shard job runs the
full matrix.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.experiments.harness import make_cache_factory
from repro.network.links import PERFECT_LINKS, GlobalLoss
from repro.network.topology import uniform_random_topology
from repro.obs.report import RunReport
from repro.persist.digest import canonical_bytes
from repro.simulation.sharded import ShardedRuntime

pytestmark = pytest.mark.shard

N_NODES = int(os.environ.get("REPRO_SHARD_NODES", "120"))
SEED = 7
HEARTBEAT = 8.0
CACHE_BYTES = 4096


def _build(n_shards=None, *, loss=0.0, cache_policy="model-aware", mode="inline"):
    """One runtime (reference when ``n_shards`` is None, else sharded).

    Both sides get identical construction inputs; per-entity random
    streams are what make draw order independent of event interleaving
    across shards.
    """
    rng = np.random.default_rng(SEED)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=N_NODES, n_classes=3, length=400), rng
    )
    topology = uniform_random_topology(
        N_NODES, 0.22, np.random.default_rng(SEED + 1)
    )
    config = ProtocolConfig(threshold=2.0, heartbeat_period=HEARTBEAT)
    kwargs = dict(
        seed=SEED,
        loss_model=PERFECT_LINKS if loss == 0 else GlobalLoss(loss),
        cache_factory=make_cache_factory(cache_policy, CACHE_BYTES),
        battery_capacity=5000.0,
        keep_trace_records=True,
    )
    if n_shards is None:
        return SnapshotRuntime(topology, dataset, config, **kwargs)
    return ShardedRuntime(
        topology, dataset, config, n_shards=n_shards, mode=mode, **kwargs
    )


def _drive(runtime) -> None:
    """The full conformance script; identical calls on both engines."""
    runtime.train(duration=6.0)
    runtime.run_election()
    runtime.start_maintenance()
    runtime.advance_to(runtime.now + 3 * HEARTBEAT)
    if isinstance(runtime, ShardedRuntime):
        runtime.stop_maintenance()
    else:
        runtime.maintenance.stop()
    runtime.advance_to(runtime.now + 12.0)


def _normalized_records(runtime: SnapshotRuntime):
    """Reference records in the sharded engine's canonical merge order."""
    records = [
        (r.time, r.kind, tuple(sorted(r.payload.items())))
        for r in runtime.simulator.trace.records
    ]
    records.sort(key=lambda r: (r[0], r[1], canonical_bytes(r[2])))
    return records


MATRIX = [
    pytest.param(shards, policy, loss, id=f"{shards}shard-{policy}-loss{loss}")
    for shards in (1, 2, 4)
    for policy in ("model-aware", "round-robin")
    for loss in (0.0, 0.25)
]


@pytest.mark.parametrize("n_shards,cache_policy,loss", MATRIX)
def test_sharded_run_is_bit_equivalent(n_shards, cache_policy, loss):
    """Digests, trace records and report rows all match the reference."""
    reference = _build(loss=loss, cache_policy=cache_policy)
    _drive(reference)
    ref_report = RunReport.capture(reference)
    ref_digest = reference.state_digest()
    ref_records = _normalized_records(reference)

    sharded = _build(n_shards, loss=loss, cache_policy=cache_policy)
    _drive(sharded)

    digest = sharded.state_digest()
    assert digest.components == ref_digest.components
    assert digest.whole == ref_digest.whole

    assert sharded.merged_records() == ref_records

    report = sharded.capture_report()
    assert report.meta == ref_report.meta
    assert report.rows == ref_report.rows


def test_process_mode_matches_inline():
    """Fork-per-shard workers land on the same digest as everything else."""
    reference = _build()
    _drive(reference)
    ref_digest = reference.state_digest()

    with _build(2, mode="process") as sharded:
        _drive(sharded)
        assert sharded.state_digest() == ref_digest


@pytest.mark.parametrize("cache_policy", ["model-aware", "round-robin"])
def test_freeze_restore_at_sync_seam(tmp_path, cache_policy):
    """Checkpointing mid-maintenance and restoring changes nothing.

    The seam sits 1.5 heartbeat periods into maintenance — between two
    conservative sync windows, with boundary handoffs quiesced but the
    protocol mid-flight.  Both the frozen original and the restored
    copy must finish on the uninterrupted reference digest.
    """
    reference = _build(cache_policy=cache_policy)
    _drive(reference)
    ref_digest = reference.state_digest()

    original = _build(2, cache_policy=cache_policy)
    original.train(duration=6.0)
    original.run_election()
    original.start_maintenance()
    original.advance_to(original.now + 1.5 * HEARTBEAT)

    path = str(tmp_path / "seam")
    paths = original.checkpoint(path)
    assert len(paths) == 2

    restored = ShardedRuntime.restore(path, n_shards=2)
    assert restored.now == original.now

    for runtime in (original, restored):
        runtime.advance_to(runtime.now + 1.5 * HEARTBEAT)
        runtime.stop_maintenance()
        runtime.advance_to(runtime.now + 12.0)

    assert original.state_digest() == ref_digest
    assert restored.state_digest() == ref_digest
    assert restored.merged_records() == original.merged_records()
