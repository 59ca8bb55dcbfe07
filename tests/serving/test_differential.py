"""Differential proof of result-cache correctness.

Two guarantees back the serving layer's result reuse (the cache under
churn is ``test_state_key.py``'s):

* **While no event fires** a cached snapshot answer is
  *field-identical* to what a fresh execution would have produced: on
  a lossless radio the flood consumes no RNG draws and execution does
  not advance simulated time, so twin runtimes (same seed, same
  training, same election) answer the same query with the same bits
  whether or not a cache sits in between.
* **Across an epoch bump** (a re-election) the cache invalidates: the
  first request after the bump misses, re-executes against the new
  representative structure, and re-primes the cache under the new
  version.
"""

from __future__ import annotations

from repro.query.ast import Aggregate, Query
from repro.query.spatial import Everywhere, Rect
from repro.serving import QueryFrontEnd
from tests.conftest import make_runtime

RESULT_FIELDS = (
    "query",
    "sink",
    "responders",
    "routers",
    "reports",
    "matching_all",
    "matching_alive",
    "aggregate_value",
    "rounds",
)


def result_fields(result) -> dict:
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def twin_runtime(seed: int = 17):
    runtime = make_runtime(n_nodes=24, n_classes=3, seed=seed)
    runtime.train(duration=10)
    runtime.run_election()
    return runtime


QUERIES = [
    Query(region=Everywhere(), aggregate=Aggregate.AVG, use_snapshot=True),
    Query(region=Rect(0.0, 0.0, 0.6, 1.0), aggregate=Aggregate.MAX, use_snapshot=True),
    Query(region=Rect(0.2, 0.2, 0.9, 0.9), use_snapshot=True),  # drill-through
]


class TestWithinEpoch:
    def test_cached_results_field_identical_to_fresh_execution(self):
        """Acceptance proof: cache on == cache off, field by field."""
        cached_rt, fresh_rt = twin_runtime(), twin_runtime()
        sink = min(cached_rt.alive_ids())
        with QueryFrontEnd(cached_rt, charge_energy=False) as with_cache, \
                QueryFrontEnd(fresh_rt, cache=False, charge_energy=False) as no_cache:
            for query in QUERIES:
                first = with_cache.submit(query, sink=sink).result(timeout=10)
                replay = with_cache.submit(query, sink=sink).result(timeout=10)
                fresh1 = no_cache.submit(query, sink=sink).result(timeout=10)
                fresh2 = no_cache.submit(query, sink=sink).result(timeout=10)
                assert not first.cached
                assert replay.cached, "second identical submit must hit"
                assert not fresh1.cached and not fresh2.cached
                # the replay is the very object the first execution made
                assert result_fields(replay.result) == result_fields(first.result)
                # and a cache-free twin produces the same fields
                assert result_fields(replay.result) == result_fields(fresh2.result)
                assert result_fields(fresh1.result) == result_fields(fresh2.result)

    def test_cached_version_matches_runtime(self):
        runtime = twin_runtime()
        with QueryFrontEnd(runtime, charge_energy=False) as frontend:
            served = frontend.submit(QUERIES[0]).result(timeout=10)
        assert served.version == runtime.structure_version()


class TestAcrossEpochBump:
    def test_reelection_invalidates_and_reprimes(self):
        runtime = twin_runtime()
        query = QUERIES[0]
        with QueryFrontEnd(runtime, charge_energy=False) as frontend:
            warm = frontend.submit(query).result(timeout=10)
            assert frontend.submit(query).result(timeout=10).cached

            before = runtime.structure_version()
            runtime.run_election()  # the protocol epoch bumps
            after = runtime.structure_version()
            assert after > before
            assert runtime.current_epoch > warm.version[0]

            post = frontend.submit(query).result(timeout=10)
            assert not post.cached, "epoch bump must invalidate the cache"
            assert post.version == after
            assert frontend.cache.invalidations == 1

            # the cache re-primes under the new version
            replay = frontend.submit(query).result(timeout=10)
            assert replay.cached
            assert replay.version == after

    def test_stats_count_the_invalidation(self):
        runtime = twin_runtime()
        query = QUERIES[1]
        with QueryFrontEnd(runtime, charge_energy=False) as frontend:
            frontend.submit(query).result(timeout=10)
            runtime.run_election()
            frontend.submit(query).result(timeout=10)
            stats = frontend.stats()
        assert stats["cache_invalidations"] == 1
        assert stats["cache_misses"] == 2
