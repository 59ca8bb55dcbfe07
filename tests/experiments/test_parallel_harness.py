"""Seed derivation and process-parallel execution of the harness.

The acceptance bar for ``REPRO_JOBS`` is *sample-for-sample* equality:
a sweep run on four worker processes must return exactly the numbers
the serial run returns, because the per-repetition seed list depends
only on ``(base_seed, repetitions)`` and never on scheduling.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from repro.experiments.harness import (
    NetworkSetup,
    derive_seeds,
    parallel_map,
    repeat,
)
from repro.experiments import sensitivity


class TestDeriveSeeds:
    def test_deterministic(self):
        assert derive_seeds(6, 10) == derive_seeds(6, 10)

    def test_distinct_within_base(self):
        seeds = derive_seeds(6, 1000)
        assert len(set(seeds)) == 1000

    def test_no_collision_across_adjacent_bases(self):
        """The old ``base*1000 + i`` scheme collided here; this must not.

        Figure 6's K=1 and K=2 points use bases 6001 and 6002 — with
        the multiplicative scheme any repetition count above 1000 made
        point 1's later seeds overlap point 2's early ones.
        """
        a = set(derive_seeds(6001, 2000))
        b = set(derive_seeds(6002, 2000))
        assert not a & b

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            derive_seeds(1, 0)


class TestParallelMap:
    def test_serial_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        # lambdas are fine serially — nothing is pickled
        assert parallel_map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = parallel_map(math.sqrt, list(range(20)))
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel = parallel_map(math.sqrt, list(range(20)))
        assert parallel == serial

    def test_invalid_jobs_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            parallel_map(abs, [1])

    def test_empty_items(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert parallel_map(abs, []) == []


#: A small-but-real discovery configuration; big enough that an election
#: actually happens, small enough to run 8 times in a test.
_SMALL = NetworkSetup(
    n_nodes=12,
    transmission_range=math.sqrt(2.0),
    train_duration=5.0,
    election_time=20.0,
)


class TestRepeatParallelEquivalence:
    def test_repeat_sample_for_sample(self, monkeypatch):
        from functools import partial

        fn = partial(sensitivity._snapshot_size, _SMALL, 2)
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = repeat(fn, repetitions=4, base_seed=6002)
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel = repeat(fn, repetitions=4, base_seed=6002)
        assert parallel == serial

    def test_figure_sweep_sample_for_sample(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = sensitivity.figure6_vary_classes(
            classes=(1, 3), repetitions=2, setup=_SMALL
        )
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel = sensitivity.figure6_vary_classes(
            classes=(1, 3), repetitions=2, setup=_SMALL
        )
        assert parallel.xs == serial.xs
        for serial_point, parallel_point in zip(serial.points, parallel.points):
            assert parallel_point.samples == serial_point.samples


# ----------------------------------------------------------------------
# no bleed-through across repetitions
# ----------------------------------------------------------------------


def _noop(record):
    """Module-level (picklable) trace callback."""


def _delivered_protocol_messages(seed: int) -> float:
    """One discovery run, counted through a fresh trace subscription.

    Module-level so ``REPRO_JOBS`` can pickle it.  Regression target:
    per-subscription delivery counters used to survive re-subscription
    of an equal callback, so a second repetition reported the first
    repetition's traffic on top of its own.
    """
    from repro.experiments.harness import build_runtime, random_walk_dataset

    dataset = random_walk_dataset(_SMALL, 2, seed)
    runtime = build_runtime(_SMALL, dataset, seed)
    subscription = runtime.simulator.trace.subscribe("message.sent", _noop)
    runtime.train(duration=_SMALL.train_duration)
    runtime.run_election()
    count = float(subscription.deliveries)
    subscription.cancel()
    assert count == runtime.stats.total_sent()
    return count


class TestRepeatNoBleedThrough:
    def test_two_sequential_repeats_report_independent_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        first = repeat(_delivered_protocol_messages, repetitions=3, base_seed=6002)
        second = repeat(_delivered_protocol_messages, repetitions=3, base_seed=6002)
        assert all(count > 0 for count in first)
        # Same seeds, fresh subscriptions: identical counts, no carryover.
        assert second == first

    def test_parallel_repeats_match_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = repeat(_delivered_protocol_messages, repetitions=4, base_seed=6002)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = repeat(_delivered_protocol_messages, repetitions=4, base_seed=6002)
        assert parallel == serial
        assert repeat(
            _delivered_protocol_messages, repetitions=4, base_seed=6002
        ) == serial


# ----------------------------------------------------------------------
# the resumable progress file
# ----------------------------------------------------------------------


class _Interrupted(Exception):
    """Stands in for a run killed part-way."""


def _sample(seed: int) -> float:
    return float(np.random.default_rng(seed).random())


def _interrupted_repeat(path, after: int, **kwargs) -> None:
    """A ``repeat(_sample, 5, 6002)`` that dies at its ``after + 1``-th call,
    flushing every 2 samples."""
    calls = []

    def dying(seed: int) -> float:
        if len(calls) == after:
            raise _Interrupted
        calls.append(seed)
        return _sample(seed)

    with pytest.raises(_Interrupted):
        repeat(dying, 5, 6002, checkpoint_path=path, checkpoint_every=2, **kwargs)


class TestRepeatProgressFile:
    @pytest.fixture(autouse=True)
    def _serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)

    def test_resumes_to_the_uninterrupted_samples(self, tmp_path):
        path = tmp_path / "progress.json"
        _interrupted_repeat(path, after=3)  # samples 0-1 flushed, 2 lost
        assert sorted(json.loads(path.read_text())["results"]) == ["0", "1"]
        recomputed = []

        def recording(seed: int) -> float:
            recomputed.append(seed)
            return _sample(seed)

        samples = repeat(recording, 5, 6002, checkpoint_path=path, checkpoint_every=2)
        assert samples == repeat(_sample, 5, 6002)
        assert recomputed == derive_seeds(6002, 5)[2:]

    def test_file_is_removed_on_completion(self, tmp_path):
        path = tmp_path / "progress.json"
        repeat(_sample, 5, 6002, checkpoint_path=path, checkpoint_every=2)
        assert list(tmp_path.iterdir()) == []
        _interrupted_repeat(path, after=2)
        assert path.exists()
        repeat(_sample, 5, 6002, checkpoint_path=path, checkpoint_every=2)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "base_seed, repetitions, format_",
        [(6003, 5, None), (6002, 6, None), (6002, 5, 2)],
        ids=["base_seed", "repetitions", "format"],
    )
    def test_refuses_another_experiments_file(
        self, tmp_path, base_seed, repetitions, format_
    ):
        path = tmp_path / "progress.json"
        _interrupted_repeat(path, after=2)
        if format_ is not None:
            payload = json.loads(path.read_text())
            payload["format"] = format_
            path.write_text(json.dumps(payload))
        before = path.read_text()
        with pytest.raises(ValueError, match=re.escape(repr(str(path)))):
            repeat(
                _sample, repetitions, base_seed,
                checkpoint_path=path, checkpoint_every=2,
            )
        assert path.read_text() == before
