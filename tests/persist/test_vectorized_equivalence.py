"""Checkpoint and pickle equivalence of the vectorized fleet engine.

A runtime binds every node's model-aware cache to one lane of a shared
``ModelAwareCacheFleet``.  These cases pin that the fleet-backed state
survives freezing: a run checkpointed mid-script restores with its
caches still fleet-bound and finishes bit-identically to the
uninterrupted run, and a bare fleet's pickle round-trip keeps behaving
identically under further traffic (``tests/persist/test_property.py``
round-trips a single cache on its lane).  The whole-run
fleet-vs-oracle proofs live in ``test_batched_equivalence.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.models.soa import ModelAwareCacheFleet
from repro.persist import load_checkpoint, save_checkpoint
from repro.persist.digest import canonical_bytes

from tests.models.conftest import bound_lanes
from tests.persist.conftest import (
    SCRIPT,
    assert_outcomes_equal,
    build_runtime,
    outcome,
)


def _run(seed: int, policy: str, loss: float) -> dict:
    runtime = build_runtime(seed, policy, loss)
    for step in SCRIPT:
        step(runtime)
    return outcome(runtime)


@pytest.mark.parametrize("loss", [0.0, 0.25], ids=["lossless", "lossy"])
def test_vectorized_cache_resumes_bit_identically(loss, tmp_path):
    """Freeze mid-script with fleet-bound caches; the resumed run matches."""
    seed = 5
    reference = _run(seed, "model-aware", loss)
    for cut in (3, 5):  # after start_maintenance / mid-round advances
        runtime = build_runtime(seed, "model-aware", loss)
        for step in SCRIPT[:cut]:
            step(runtime)
        path = tmp_path / f"vec-cut{cut}.ckpt"
        saved = save_checkpoint(runtime, path)
        del runtime
        resumed = load_checkpoint(path)
        assert resumed.state_digest().whole == saved.whole
        # the restored policy still runs as a lane of the shared fleet
        policy = resumed.nodes[0].cache
        assert policy._fleet is not None
        assert policy._fleet is resumed.observation_router.fleet
        for step in SCRIPT[cut:]:
            step(resumed)
        assert_outcomes_equal(outcome(resumed), reference)


def _stream(length, neighbors, seed):
    rng = np.random.default_rng(seed)
    own = np.cumsum(rng.normal(0.0, 1.0, size=length)) + 20.0
    ids = rng.integers(0, neighbors, size=length)
    noise = rng.normal(0.0, 0.5, size=length)
    return [
        (int(ids[k]), float(own[k]), float(1.5 * own[k] + noise[k]))
        for k in range(length)
    ]


def test_fleet_pickle_roundtrip_is_byte_identical():
    fleet = ModelAwareCacheFleet(16, 256, max_lines=6, ring_cap=16)
    streams = [_stream(300, 4, 100 + c) for c in range(16)]
    for t in range(200):
        fleet.observe_lanes(
            np.arange(16),
            np.array([streams[c][t][0] for c in range(16)]),
            np.array([streams[c][t][1] for c in range(16)]),
            np.array([streams[c][t][2] for c in range(16)]),
        )
    restored = pickle.loads(pickle.dumps(fleet))
    lanes, restored_lanes = bound_lanes(fleet), bound_lanes(restored)
    for c in range(16):
        assert canonical_bytes(restored_lanes[c].digest_state()) == canonical_bytes(
            lanes[c].digest_state()
        )
    for t in range(200, 300):
        js = np.array([streams[c][t][0] for c in range(16)])
        xs = np.array([streams[c][t][1] for c in range(16)])
        ys = np.array([streams[c][t][2] for c in range(16)])
        lanes16 = np.arange(16)
        assert (
            restored.observe_lanes(lanes16, js, xs, ys)
            == fleet.observe_lanes(lanes16, js, xs, ys)
        ).all()
    for c in range(16):
        assert canonical_bytes(restored_lanes[c].digest_state()) == canonical_bytes(
            lanes[c].digest_state()
        )
