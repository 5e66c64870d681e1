"""Executable erratum for the paper's Section 4.3 prohibited-turn list.

The PT printed in Section 4.3 prohibits the four *horizontal ->
up-cross* turns, while the Step-3 narrative removes the *up-cross ->
horizontal* ones ("we remove edges from nodes in Region 1 to nodes in
ADDG_3").  The printed variant is provably unsafe: these tests exhibit
a 5-switch network on which it leaves a complete turn cycle
``RU_CROSS -> R_CROSS -> LD_CROSS`` allowed (a wormhole deadlock), and
show that it even contradicts the paper's own Step 4, whose cycles
C3/C4 presuppose ``T(L_CROSS -> RU_CROSS)`` to be allowed.  The
narrative-consistent set (our :data:`DOWN_UP_PROHIBITED_TURNS`) passes
every check.
"""

import pytest

from repro.core.communication_graph import CommunicationGraph
from repro.core.coordinated_tree import build_coordinated_tree
from repro.core.directions import Direction as D
from repro.core.direction_graph import PAPER_SECTION_4_3_PRINTED_PT, Turn
from repro.core.downup import down_up_turn_model
from repro.routing.channel_graph import find_turn_cycle
from repro.simulator import DeadlockDetected, SimulationConfig, simulate
from repro.routing.table import build_routing_function


@pytest.fixture
def erratum_cg(erratum_topology):
    return CommunicationGraph.from_tree(build_coordinated_tree(erratum_topology))


class TestPrintedListIsUnsound:
    def test_printed_pt_admits_turn_cycle(self, erratum_cg):
        tm = down_up_turn_model(
            erratum_cg, apply_phase3=False,
            prohibited=PAPER_SECTION_4_3_PRINTED_PT,
        )
        cycle = find_turn_cycle(tm)
        assert cycle is not None
        dirs = {erratum_cg.d(c) for c in cycle}
        # the open cycle is the up -> horizontal -> down loop
        assert dirs <= {D.RU_CROSS, D.LU_CROSS, D.R_CROSS, D.L_CROSS,
                        D.LD_CROSS, D.RD_CROSS}
        assert any(d.is_upward for d in dirs)
        assert any(d.is_downward for d in dirs)

    def test_printed_pt_contradicts_step4(self):
        """Step 4 removes T(RU->RD_TREE) to break cycle C3, which contains
        T(L->RU); the printed step-3 list already prohibits T(L->RU),
        so under the printed reading C3 could never form."""
        assert Turn(D.L_CROSS, D.RU_CROSS) in PAPER_SECTION_4_3_PRINTED_PT
        assert Turn(D.RU_CROSS, D.RD_TREE) in PAPER_SECTION_4_3_PRINTED_PT

    def test_cycle_turns_are_allowed_by_printed_pt(self, erratum_cg):
        """Every turn of the three-flow scenario below is individually
        legal under the printed PT (and at least one is prohibited by
        the narrative set)."""
        t = erratum_cg.topology
        tm_printed = down_up_turn_model(
            erratum_cg, apply_phase3=False,
            prohibited=PAPER_SECTION_4_3_PRINTED_PT,
        )
        tm_fixed = down_up_turn_model(erratum_cg, apply_phase3=False)
        c1 = t.channel_id(4, 2)  # RU_CROSS
        c2 = t.channel_id(2, 3)  # R_CROSS
        c3 = t.channel_id(3, 4)  # LD_CROSS
        assert erratum_cg.d(c1) is D.RU_CROSS
        assert erratum_cg.d(c2) is D.R_CROSS
        assert erratum_cg.d(c3) is D.LD_CROSS
        assert tm_printed.is_turn_allowed(2, c1, c2)
        assert tm_printed.is_turn_allowed(3, c2, c3)
        assert tm_printed.is_turn_allowed(4, c3, c1)
        # the narrative PT breaks the loop at the up -> horizontal turn
        assert not tm_fixed.is_turn_allowed(2, c1, c2)

    def test_open_cycle_deadlocks_in_simulation(self, erratum_topology):
        """Route three flows around the cycle the printed PT leaves open;
        the wormhole engine reaches an actual standstill."""
        from tests.helpers import FixedDestinationTraffic, fixed_path_routing

        routing = fixed_path_routing(
            erratum_topology,
            {
                (4, 3): [4, 2, 3],  # holds <4,2>, wants <2,3>
                (2, 4): [2, 3, 4],  # holds <2,3>, wants <3,4>
                (3, 2): [3, 4, 2],  # holds <3,4>, wants <4,2>
                (0, 1): [0, 1],
                (1, 0): [1, 0],
            },
            name="printed-pt-cycle",
        )
        traffic = FixedDestinationTraffic({4: 3, 2: 4, 3: 2, 0: 1, 1: 0})
        cfg = SimulationConfig(
            packet_length=24,
            injection_rate=1.0,
            warmup_clocks=0,
            measure_clocks=60_000,
            seed=5,
            deadlock_interval=800,
        )
        with pytest.raises(DeadlockDetected):
            simulate(routing, cfg, traffic)


class TestNarrativeListIsSound:
    def test_no_turn_cycle_on_witness(self, erratum_cg):
        tm = down_up_turn_model(erratum_cg, apply_phase3=False)
        assert find_turn_cycle(tm) is None

    def test_no_turn_cycle_after_phase3(self, erratum_cg):
        tm = down_up_turn_model(erratum_cg, apply_phase3=True)
        assert find_turn_cycle(tm) is None

    def test_narrative_pt_survives_saturated_simulation(self, erratum_cg):
        tm = down_up_turn_model(erratum_cg, apply_phase3=True)
        routing = build_routing_function(tm, "down-up")
        cfg = SimulationConfig(
            packet_length=24,
            injection_rate=1.0,
            warmup_clocks=0,
            measure_clocks=20_000,
            seed=5,
            deadlock_interval=800,
        )
        stats = simulate(routing, cfg)  # must not raise
        assert stats.accepted_traffic > 0
