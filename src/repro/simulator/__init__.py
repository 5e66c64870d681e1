"""Cycle-accurate flit-level wormhole simulator (IRFlexSim0.5 substitute).

The paper evaluates on IRFlexSim0.5, a C wormhole simulator that is no
longer distributed.  This package implements an equivalent substrate
with the paper's timing model (Section 5):

* packets are worms of ``packet_length`` flits (header + data);
* a header is routed/arbitrated in one clock and crosses the switch in
  one clock (``header_delay = 2`` between arriving at a buffer head and
  moving on), plus one clock of link delay — 3 clocks per hop unloaded;
* data flits stream at one flit per clock per channel, pipelined behind
  the header;
* wormhole switching: a worm holds every channel between its head and
  tail; a blocked header stalls the worm in place, holding its channels
  (this is what makes turn-cycle freedom matter);
* each switch has one injection port (processor -> switch) and one
  consumption port (switch -> processor), both 1 flit/clock and held
  worm-exclusively like network channels;
* adaptive routing: the header asks the routing function for all
  minimal admissible outputs given its input channel and picks randomly
  among the free ones (Section 5: "one of them is selected randomly").

The engine is a synchronous two-phase (plan on start-of-clock state,
then commit) update over per-worm channel chains with flit *counts* —
not per-flit objects — which reproduces wormhole pipelining and
blocking exactly while keeping per-clock cost ``O(occupied channels)``
(the optimization guides' "algorithmic optimization first" rule).

Deadlock detection is *exact*: every ``deadlock_interval`` clocks the
engine runs a wait-for (knot) analysis — a worm is live iff it can move
now or a candidate resource is held by a live worm — and raises
:class:`~repro.simulator.engine.DeadlockDetected` for the non-live set.
This catches a cyclic wait even while unrelated traffic still flows,
turning routing-level deadlock bugs into loud test failures (and is
itself tested by routing flows around a deliberately open turn cycle).
"""

from repro.simulator.batch_engine import BatchCore
from repro.simulator.config import (
    BIT_EXACT_ENGINES,
    ENGINES,
    RELAXED_ENGINES,
    SimulationConfig,
)
from repro.simulator.engine import (
    DeadlockDetected,
    LivelockSuspected,
    WormholeSimulator,
    simulate,
)
from repro.simulator.equivalence import (
    QUICK_MATRIX,
    EquivalenceReport,
    EquivalenceScenario,
    certify,
)
from repro.simulator.replica_batch import (
    ReplicaBatchCore,
    replica_seeds,
    run_replicated,
)
from repro.simulator.stats import SimulationStats
from repro.simulator.trace import PacketTrace, TraceRecorder
from repro.simulator.vec_state import ArrayState
from repro.simulator.vc_engine import VirtualChannelSimulator, simulate_vc
from repro.simulator.traffic import (
    BitComplementTraffic,
    HotspotTraffic,
    LocalTraffic,
    TornadoTraffic,
    TrafficPattern,
    UniformTraffic,
)

__all__ = [
    "SimulationConfig",
    "ENGINES",
    "BIT_EXACT_ENGINES",
    "RELAXED_ENGINES",
    "WormholeSimulator",
    "BatchCore",
    "ReplicaBatchCore",
    "run_replicated",
    "replica_seeds",
    "ArrayState",
    "EquivalenceScenario",
    "EquivalenceReport",
    "QUICK_MATRIX",
    "certify",
    "DeadlockDetected",
    "LivelockSuspected",
    "simulate",
    "SimulationStats",
    "TraceRecorder",
    "PacketTrace",
    "VirtualChannelSimulator",
    "simulate_vc",
    "TrafficPattern",
    "UniformTraffic",
    "HotspotTraffic",
    "BitComplementTraffic",
    "TornadoTraffic",
    "LocalTraffic",
]
