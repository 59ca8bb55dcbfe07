"""Golden digest regression tests.

Three seeded reference runs have their whole-sim digests pinned.  A
change to these constants means the simulation trajectory (or the
digest canonicalization itself) changed — either is a behavioral
change that must be deliberate and called out in review, exactly like
the golden trace tests pin trajectories.

The self-test at the bottom keeps the pins honest: a mutation to live
node state must change the digest and name the divergent component.
"""

from __future__ import annotations

from tests.persist.conftest import SCRIPT, build_runtime

#: (seed, policy, loss, cache bytes) -> pinned whole-sim digest after
#: the scripted run.
#:
#: The model-aware pin moved when policy canonicalization switched to
#: ``CachePolicy.digest_state()``, which drops the manager's derived
#: penalty memo / victim heap / dirty set (pure functions of line
#: state) so scalar and struct-of-arrays backing stores digest equal.
#: Both pins moved when the digest became content-canonical: the clock
#: digest dropped the events-processed tally, the queue digest became
#: content-sorted (dropping insertion counters and cancelled handles),
#: and the energy digest dropped the ledger's order-sensitive float
#: totals (derivable from its registry cells).  Each change strips
#: representation detail only; the trajectories themselves are
#: unchanged, which the differential resume suite keeps proving
#: against live reference runs.
#:
#: Both pins moved again, deliberately, when per-entity random streams
#: became the only discipline: radio loss, protocol and maintenance
#: draws now come from ``radio.<id>``, ``protocol.<id>`` and
#: ``maintenance.<id>`` instead of three shared streams, loss is sampled
#: over every in-range receiver (dead ones are booked at delivery), and
#: only streams that drew are digested.  The radio component also
#: dropped the batched-fan-out flag, whose legacy per-receiver
#: alternative was deleted.  Unlike the moves above, this one changes
#: the trajectory; the paper-shape gate
#: (``tests/experiments/test_shapes.py``) holds across it.
#:
#: The 512-byte pin covers the §4 tie rule (``cache.TIE_RTOL``).  The
#: 1,024-byte caches of the first pin never fill on this script, so no
#: full-cache decision (and no tie) reaches its digest.  At 512 bytes
#: the caches fill on the same exactly-affine classes, whose collinear
#: lines tie constantly.
GOLDEN = {
    (2005, "model-aware", 0.0, 1024): (
        "36d7ef21b54a602bf749f101731f5872ccb1a784c37642bf639297754a6c1e62"
    ),
    (1813, "round-robin", 0.3, 1024): (
        "9c7ba4592bd87dbb109d1aae2ac6531e30e8f65e7f9067252b60895006afa164"
    ),
    (2005, "model-aware", 0.0, 512): (
        "7a019695d67df76540dbc008b01e5dd648d77e3f75adcd1eb78c12fde8d62d4f"
    ),
}


def _finished_runtime(seed, policy, loss, cache_bytes=1024):
    runtime = build_runtime(seed, policy, loss, cache_bytes=cache_bytes)
    for step in SCRIPT:
        step(runtime)
    return runtime


def test_golden_digest_lossless_model_aware():
    runtime = _finished_runtime(2005, "model-aware", 0.0)
    assert runtime.state_digest().whole == GOLDEN[(2005, "model-aware", 0.0, 1024)]


def test_golden_digest_lossy_round_robin():
    runtime = _finished_runtime(1813, "round-robin", 0.3)
    assert runtime.state_digest().whole == GOLDEN[(1813, "round-robin", 0.3, 1024)]


def test_golden_digest_full_model_aware_caches():
    runtime = _finished_runtime(2005, "model-aware", 0.0, cache_bytes=512)
    assert runtime.state_digest().whole == GOLDEN[(2005, "model-aware", 0.0, 512)]


def test_digest_is_reproducible_within_a_run():
    """Digesting twice without advancing is a pure read."""
    runtime = _finished_runtime(2005, "model-aware", 0.0)
    assert runtime.state_digest().whole == runtime.state_digest().whole


def test_mutated_node_state_changes_digest():
    """Non-vacuity: the digest actually covers protocol node state."""
    runtime = _finished_runtime(2005, "model-aware", 0.0)
    before = runtime.state_digest()
    node = runtime.nodes[0]
    node.epoch += 1
    after = runtime.state_digest()
    assert after.whole != before.whole
    assert "nodes" in before.diff(after)
    node.epoch -= 1
    assert runtime.state_digest().whole == before.whole


def test_mutated_battery_changes_energy_component():
    runtime = _finished_runtime(1813, "round-robin", 0.3)
    before = runtime.state_digest()
    runtime.radio.nodes[0].battery.draw(1.0)
    after = runtime.state_digest()
    assert after.whole != before.whole
    assert "energy" in before.diff(after)
