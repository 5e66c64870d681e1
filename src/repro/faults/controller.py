"""Online reconfiguration: rebuild routing on the survivor graph.

The routing builders (DOWN/UP, L-turn, up*/down*) require a *connected*
:class:`~repro.topology.graph.Topology`, but a degraded network is the
original one with some links and switches missing — its channel ids must
stay those of the full topology or every per-channel array in a running
engine would be invalidated.  The controller therefore:

1. extracts the *surviving sub-topology* with switches renumbered
   densely (:func:`surviving_topology`),
2. runs the configured routing builder on it, re-verifies the result
   against Theorem 1 (:func:`repro.routing.verification.verify_routing`
   — acyclic channel dependency graph, all-pairs connectivity,
   progress), certifies it and re-validates the certificate with the
   independent checker, and
3. remaps the verified tables back into the full topology's channel and
   switch id space (:func:`remap_routing`), with dead channels carrying
   empty candidate sets and ``UNREACHABLE`` distances.

Step 2 runs once per distinct (builder, survivor) pair per process
(:func:`certified_survivor`): its result is memoised by the survivor's
content digest, so a state revisited later in the run (a flap's UP edge
restoring an earlier survivor), a later run of the same schedule, or
:func:`repro.statics.preflight.preflight_schedule` before the run gets
a table that was verified, certified and rechecked once, before its
first use.  Step 3 runs on every install.

The engine can then swap the remapped function in atomically
(``_fault_swap_routing``) without touching any in-flight state arrays.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Iterable, List, Tuple

import numpy as np

from repro.routing.base import RoutingFunction
from repro.routing.verification import verify_routing
from repro.topology.graph import Topology
from repro.topology.serialization import topology_digest

#: A routing builder for the controller: connected topology in,
#: (builder-)verified RoutingFunction on that same topology out.  It
#: must be a deterministic function of the survivor topology (every
#: builder in the repository is seeded with an int): certified rebuilds
#: are memoised by ``(builder, survivor digest)``, so equal builders
#: share entries and a builder is called once per distinct survivor.
RoutingBuilder = Callable[[Topology], RoutingFunction]

#: bound of the process-wide certified-rebuild memo (a 128-switch
#: survivor routing with its turn model holds about 0.6 MB)
REBUILD_MEMO_ENTRIES = 16

_CERTIFIED: "OrderedDict[tuple, Tuple[RoutingFunction, str]]" = OrderedDict()
_CERTIFIED_LOCK = threading.Lock()


def surviving_topology(
    topology: Topology,
    dead_links: Iterable[Tuple[int, int]],
    dead_switches: Iterable[int],
) -> Tuple[Topology, List[int]]:
    """The degraded network as a dense, renumbered :class:`Topology`.

    Returns ``(sub, live)`` where ``live[new_id] == old_id`` for every
    surviving switch.  Raises ``ValueError`` when nothing survives or
    the survivors are disconnected (the fault schedule's connectivity
    guard should have refused such a state upstream).
    """
    dead_l = {tuple(sorted(l)) for l in dead_links}
    dead_s = set(dead_switches)
    live = [v for v in range(topology.n) if v not in dead_s]
    if not live:
        raise ValueError("no switches survive the fault set")
    new_id = {old: new for new, old in enumerate(live)}
    links = [
        (new_id[u], new_id[v])
        for u, v in topology.links
        if (u, v) not in dead_l and u in new_id and v in new_id
    ]
    sub = Topology(len(live), links)
    if not sub.is_connected():
        raise ValueError("surviving network is disconnected")
    return sub, live


def certified_survivor(
    builder: RoutingBuilder, sub: Topology
) -> Tuple[RoutingFunction, str]:
    """``(verified routing, certificate digest)`` of *builder* on *sub*.

    The one certify-once path for survivor networks: the controller's
    rebuilds and the pre-flight sweep both go through it.  A miss
    builds, verifies, certifies and independently rechecks, then stores
    the result in the bounded LRU keyed by ``(builder, topology
    digest)``; a hit returns the stored pair.  A failing check raises
    and stores nothing.
    """
    # imported lazily: repro.statics imports this module for the
    # pre-flight sweep, so a top-level import would be circular
    from repro.statics.certificates import certify_routing
    from repro.statics.check import recheck

    key = (builder, topology_digest(sub))
    with _CERTIFIED_LOCK:
        hit = _CERTIFIED.get(key)
        if hit is not None:
            _CERTIFIED.move_to_end(key)
            return hit
    routing = verify_routing(builder(sub))
    bundle = certify_routing(routing)
    recheck(bundle)
    hit = (routing, bundle.digest)
    with _CERTIFIED_LOCK:
        _CERTIFIED[key] = hit
        while len(_CERTIFIED) > REBUILD_MEMO_ENTRIES:
            _CERTIFIED.popitem(last=False)
    return hit


def remap_routing(
    routing: RoutingFunction,
    full_topology: Topology,
    live: List[int],
) -> RoutingFunction:
    """Lift *routing* (built on a renumbered survivor) to full-id space.

    Every sub-topology channel ``<a, b>`` maps to the full topology's
    channel ``<live[a], live[b]>`` — the underlying physical link is the
    same, only the dense ids differ.  Each candidate set is translated
    once and the index arrays are scattered into full-id positions.
    Dead channels and dead/unreachable endpoints get ``UNREACHABLE``
    distances and the empty candidate set, so a packet can never be
    directed onto a failed resource.  The
    returned function reuses the survivor's (verified) turn model; the
    Theorem-1 guarantees transfer because the remapping is a channel
    renaming, not a change of paths.
    """
    sub = routing.topology
    if len(live) != sub.n:
        raise ValueError("live map does not match the survivor topology")
    # sub cid -> full cid
    cmap = [
        full_topology.channel_id(live[ch.start], live[ch.sink])
        for ch in sub.channels
    ]
    n, m = full_topology.n, full_topology.num_channels
    dist = np.full((n, m), RoutingFunction.UNREACHABLE, dtype=np.int32)
    dist[np.ix_(live, cmap)] = routing.dist
    # dead states keep index 0, the empty set
    next_idx = np.zeros((n, m), dtype=np.int32)
    next_idx[np.ix_(live, cmap)] = routing.next_idx
    first_idx = np.zeros((n, n), dtype=np.int32)
    first_idx[np.ix_(live, live)] = routing.first_idx
    return RoutingFunction(
        topology=full_topology,
        name=routing.name,
        turn_model=routing.turn_model,
        dist=dist,
        candidate_sets=tuple(
            tuple([cmap[b] for b in opts]) for opts in routing.candidate_sets
        ),
        next_idx=next_idx,
        first_idx=first_idx,
        meta={**routing.meta, "remapped": True, "live_switches": tuple(live)},
    )


class ReconfigurationController:
    """Recomputes and re-verifies routing for a degraded network.

    Parameters
    ----------
    builder:
        ``builder(sub_topology) -> RoutingFunction`` — any of the
        repository's algorithms wrapped with its tree/rng arguments
        (e.g. ``lambda t: build_down_up_routing(t, rng=7)``).  The
        builder runs on the *renumbered survivor*, so tree construction
        naturally adapts to the degraded graph, exactly as a real
        reconfiguration would recompute its spanning tree.
    drain_clocks:
        Clocks the engine waits between the fault and the table swap,
        letting in-flight worms drain before stranded ones are ejected.

    Every rebuilt table is certified: the controller emits a
    deadlock-freedom certificate and re-validates it with the
    *independent* checker (:mod:`repro.statics.check`) before the swap.
    The certificate's digest lands in ``meta["certificate_digest"]`` so
    the fault runtime can log exactly which certified table it
    installed.
    """

    def __init__(self, builder: RoutingBuilder, drain_clocks: int = 64) -> None:
        if drain_clocks < 0:
            raise ValueError("drain_clocks must be >= 0")
        self.builder = builder
        self.drain_clocks = drain_clocks

    def rebuild(
        self,
        topology: Topology,
        dead_links: Iterable[Tuple[int, int]],
        dead_switches: Iterable[int],
        tag: str = "",
    ) -> RoutingFunction:
        """A verified, certified routing for the degraded *topology*.

        Every rebuilt table passes through Theorem-1 verification
        (:func:`verify_routing`) *before* remapping — an unverified
        table never reaches a running engine.  A deadlock-freedom
        certificate is then emitted on the survivor routing and
        re-validated by the independent checker; its digest is recorded
        in ``meta["certificate_digest"]``.  A survivor this builder
        already certified in this process is served from the memo
        without repeating those steps.  The result is in full-id space,
        with a fresh ``meta`` per call.
        """
        sub, live = surviving_topology(topology, dead_links, dead_switches)
        routing, cert_digest = certified_survivor(self.builder, sub)
        remapped = remap_routing(routing, topology, live)
        remapped.meta["verified"] = True
        remapped.meta["certificate_digest"] = cert_digest
        remapped.meta["certificate_checked"] = True
        if tag:
            remapped.meta["reconfiguration"] = tag
        return remapped
