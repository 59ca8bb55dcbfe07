"""The paper's running example (Figures 3 and 4), replayed exactly.

Section 5 walks through an 8-node election whose model-evaluation phase
produces the candidate lists

    Cand_1={N2}         Cand_2={}
    Cand_3={N4,N6}      Cand_4={N1,N2,N3,N5}
    Cand_5={N8}         Cand_6={N7}
    Cand_7={N8}         Cand_8={}

and whose refinement cascade ends with representatives {N3, N4, N7}:
N4 representing {N1, N2, N5}, N3 representing {N6}, N7 representing
{N8}.  We pin the candidate lists by scripting each node's cache
and assert both the initial selection (Figure 3) and the final
refinement outcome (Figure 4), including the intermediate rule firings
the paper narrates.

Node ids here are 0-based: paper node ``N_k`` is node ``k-1``.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.core.election import ElectionCoordinator
from repro.core.protocol import ProtocolNode
from repro.core.snapshot import SnapshotView
from repro.core.status import NodeMode
from repro.network.radio import Radio
from repro.network.topology import Topology
from repro.simulation.engine import Simulator

#: paper candidate lists, translated to 0-based ids.
CAN_REPRESENT = {
    0: {1},
    1: set(),
    2: {3, 5},
    3: {0, 1, 2, 4},
    4: {7},
    5: {6},
    6: {7},
    7: set(),
}


class ScriptedCache:
    """A cache whose estimates fix the representability answers: every
    node reads 0.0, so an estimate of 0.0 is within ``threshold=1.0``
    and a missing model never is."""

    def __init__(self, node_id: int) -> None:
        self._can = CAN_REPRESENT[node_id]

    def estimate(self, neighbor_id, own_value):
        return 0.0 if neighbor_id in self._can else None

    def observe(self, neighbor_id, own_value, neighbor_value):
        return "append"


@pytest.fixture
def election():
    simulator = Simulator(seed=0)
    # everyone within range of everyone
    topology = Topology([(0.1 * i, 0.0) for i in range(8)], ranges=2.0)
    radio = Radio(simulator, topology)
    radio.populate()
    config = ProtocolConfig(threshold=1.0)
    nodes = {
        node_id: ProtocolNode(
            node_id=node_id,
            radio=radio,
            cache=ScriptedCache(node_id),
            config=config,
            value_fn=lambda: 0.0,
            location=topology.position(node_id),
        )
        for node_id in topology.node_ids
    }
    coordinator = ElectionCoordinator(simulator, nodes, config)
    return simulator, radio, nodes, coordinator


def run_election(simulator, coordinator):
    coordinator.start_round(at=simulator.now)
    simulator.run_until(simulator.now + coordinator.settle_delay)


class TestInitialSelection:
    def test_initial_representatives_match_figure3(self, election):
        simulator, radio, nodes, coordinator = election
        coordinator.start_round(at=0.0)
        # run just past the selection phase, before refinement begins
        spacing = coordinator.config.phase_spacing
        simulator.run_until(3 * spacing - spacing / 10)
        # Figure 3 arrows: N4 -> {N1, N2, N3, N5}; N3 -> {N4, N6};
        # N6 -> {N7}; N7 -> {N8} (0-based below).
        assert nodes[0].representative_id == 3
        assert nodes[1].representative_id == 3   # longest list wins over N1's
        assert nodes[2].representative_id == 3
        assert nodes[4].representative_id == 3
        assert nodes[3].representative_id == 2
        assert nodes[5].representative_id == 2
        assert nodes[6].representative_id == 5
        # N8 ties between N5 and N7 (both lists length 1) -> largest id
        assert nodes[7].representative_id == 6
        assert set(nodes[3].represented) == {0, 1, 2, 4}
        assert set(nodes[2].represented) == {3, 5}


class TestRefinement:
    def test_final_snapshot_matches_figure4(self, election):
        simulator, radio, nodes, coordinator = election
        run_election(simulator, coordinator)
        view = SnapshotView.capture(nodes)
        assert set(view.representatives) == {2, 3, 6}
        # final member sets after the recalls
        assert set(nodes[3].represented) == {0, 1, 4}
        assert set(nodes[2].represented) == {5}
        assert set(nodes[6].represented) == {7}
        # modes
        for passive in (0, 1, 4, 5, 7):
            assert nodes[passive].mode is NodeMode.PASSIVE
        for active in (2, 3, 6):
            assert nodes[active].mode is NodeMode.ACTIVE

    def test_rule0_breaks_the_n3_n4_tie_toward_n4(self, election):
        simulator, radio, nodes, coordinator = election
        run_election(simulator, coordinator)
        # N4 (id 3) had the longer list and won Rule-0: it is ACTIVE and
        # recalled N3's representation of it.
        assert nodes[3].mode is NodeMode.ACTIVE
        assert 3 not in nodes[2].represented

    def test_rule2_recalls_are_mutual_cleanup(self, election):
        simulator, radio, nodes, coordinator = election
        run_election(simulator, coordinator)
        # N3 (id 2) became ACTIVE via N6's Rule-3 request and then
        # recalled its own election of N4: no node is represented by
        # another representative.
        view = SnapshotView.capture(nodes)
        for representative in view.representatives:
            rep_node = nodes[representative]
            assert rep_node.representative_id in (None, representative)

    def test_no_stale_claims_without_loss(self, election):
        simulator, radio, nodes, coordinator = election
        run_election(simulator, coordinator)
        audit = SnapshotView.capture(nodes).audit()
        assert audit.n_spurious == 0
        assert audit.stale_claims == ()

    def test_message_bound_of_table2(self, election):
        """At most five protocol messages per node in a lossless election."""
        simulator, radio, nodes, coordinator = election
        run_election(simulator, coordinator)
        assert radio.stats.max_protocol_messages_any_node() <= 5

    def test_every_passive_node_has_an_active_representative(self, election):
        simulator, radio, nodes, coordinator = election
        run_election(simulator, coordinator)
        for node in nodes.values():
            if node.mode is NodeMode.PASSIVE:
                rep = nodes[node.representative_id]
                assert rep.mode is NodeMode.ACTIVE
                assert node.node_id in rep.represented
