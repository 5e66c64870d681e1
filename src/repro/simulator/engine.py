"""The wormhole simulation engine.

A synchronous, two-phase, cycle-accurate model.  Every clock:

1. **Plan body moves** from start-of-clock state: for each worm, one
   flit may advance across every adjacent channel pair of its chain
   (1 flit/clock/channel in each direction), one flit may be consumed
   at the destination, and one flit may be fed from the source.
2. **Plan and grant header moves**: headers whose routing delay has
   elapsed request the admissible minimal output channels that are free
   (start-of-clock occupancy); requests are arbitrated in random order
   and each channel is granted at most once.  Headers whose sink is the
   destination request the consumption port instead; packets at the
   front of a source queue request the injection port plus a first
   channel.
3. **Commit** all plans, release drained tail channels and finished
   ports, collect statistics, periodically run the exact wait-for
   deadlock analysis (:meth:`SimulatorCore.find_deadlocked_worms`),
   and generate new packets (Bernoulli per node, destinations from the
   traffic pattern).

Because plans are computed against start-of-clock state, the update is
order-independent (no switch-iteration artifacts), and because a worm
never releases a channel before its tail has drained, blocked worms
hold resources exactly as wormhole switching demands — an admitted turn
cycle *will* deadlock, which the watchdog turns into a loud
:class:`DeadlockDetected` (exercised by tests).

Everything around the clock step — queues, the clock driver and its
watchdogs, packet generation, the fault hooks, the wait-for analysis
and the fast path's header arbitration — lives in
:class:`SimulatorCore`, which this engine and the virtual-channel
engine (:mod:`repro.simulator.vc_engine`) share.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import itemgetter
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.routing.base import RoutingFunction
from repro.simulator.config import SimulationConfig, require_fault_capable
from repro.simulator.fastpath import (
    DecisionCache,
    InjectionWheel,
    NotifyingDeque,
    ObservedSet,
)
from repro.simulator.packet import Worm
from repro.simulator.stats import SimulationStats, StatsCollector
from repro.simulator.traffic import TrafficPattern, UniformTraffic
from repro.util.rng import as_generator

FREE = -1


class DeadlockDetected(RuntimeError):
    """Wait-for analysis found worms that can never progress again."""


class LivelockSuspected(RuntimeError):
    """No flit anywhere moved for ``max_stall_clocks`` consecutive clocks.

    Complements the exact wait-for deadlock analysis: that analysis is
    deliberately optimistic about free channels, so a global stall with
    no cyclic wait (e.g. every worm waiting on a failed link that never
    gets reconfigured, or pathological arbitration starvation) does not
    trigger it.  The message carries a dump of the stuck worms.
    """


class SimulatorCore:
    """The worm lifecycle both wormhole engines share.

    Holds the source queues, the injection wheel, statistics and
    live-fault state; the clock driver with both watchdogs (the exact
    wait-for deadlock analysis and the stall timer); packet generation;
    and the fault hooks driven by :class:`repro.faults.FaultRuntime`.

    It also holds the fast path's header arbitration, one mechanism for
    both engines: the in-network request list in active order, the
    ripening FIFO of headers inside their routing delay, and the
    per-resource waiter lists of parked requests, rebuilt from scratch
    after every fault hook or epoch change (:meth:`_rebuild_arbitration`).

    And it holds the stream table ``_streams``: steady streams the base
    fast path took off its per-clock scan, with their clocks applied
    lazily.  :meth:`_settle_streams` applies the elapsed clocks (at the
    warmup/measurement boundary, before timeline ticks and the final
    statistics, after every public :meth:`step`, and in invariant
    mode); :meth:`_end_streams` also returns the worms to the live list
    before a fault hook reads or rewrites them.

    A subclass supplies the resource model.  Worm chains index the
    occupancy list ``_chain_occ`` (physical channels in
    :class:`WormholeSimulator`, virtual channels in
    :class:`~repro.simulator.vc_engine.VirtualChannelSimulator`);
    ``_move_impl`` runs one clock of flit movement and returns whether
    anything moved.  The rest differs only on cold paths:

    * :meth:`phys` — the physical channel of a chain entry;
    * :meth:`_header_request` — a routing-ready header's request, its
      candidates given as ``_chain_occ`` indices;
    * :meth:`_wait_candidates` — the resources a blocked header waits
      on, for the wait-for analysis;
    * :meth:`_wake_worm` — rescanning a worm a fault hook rewrote;
    * :meth:`_attach_routing` — pointing the decision caches at newly
      installed tables.
    """

    def __init__(
        self,
        routing,
        topology,
        config: SimulationConfig,
        traffic: Optional[TrafficPattern],
        num_resources: int,
    ) -> None:
        self._routing = routing
        self.topology = topology
        self.config = config
        self.traffic = traffic if traffic is not None else UniformTraffic(topology.n)
        self.rng = as_generator(config.seed)

        n = topology.n
        #: occupancy of the resources worm chains hold: worm pid or
        #: FREE.  A plain list, not a numpy array — the engines read
        #: single elements in tight Python loops, where list indexing
        #: is several times faster.
        self._chain_occ: List[int] = [FREE] * num_resources
        #: channel sink switch, precomputed (hot-loop lookup)
        self._sink = [ch.sink for ch in topology.channels]
        self.injection_occ = [FREE] * n
        self.consume_occ = [FREE] * n
        #: event wheel over sources with pending injections (fast path)
        self._wheel = InjectionWheel()
        self.queues: List[Deque[Worm]] = [
            NotifyingDeque(self._wheel, s) for s in range(n)
        ]
        self.active: List[Worm] = []
        self.worms: Dict[int, Worm] = {}
        self.clock = 0
        self._next_pid = 0
        self._last_progress = 0
        self.stats = StatsCollector(topology)
        self._check_invariants = False
        #: optional :class:`repro.simulator.trace.TraceRecorder`
        self.tracer = None
        #: *physical* channels killed by a live fault — never granted to
        #: a header (they read FREE once drained, but arbitration skips
        #: them).  Mutations invalidate the decision caches automatically.
        self.dead_channels: set = ObservedSet(self._invalidate_decisions)
        #: optional :class:`repro.faults.FaultRuntime` driving live
        #: fault injection and online reconfiguration
        self.faults = None
        #: per-clock config constants, hoisted out of the clock loop
        #: (the config is frozen, so these never change)
        self._gen_p = config.packet_probability
        self._deadlock_interval = config.deadlock_interval
        self._max_stall = config.max_stall_clocks
        self._cap = config.buffer_flits
        self._hdr_latency = config.header_delay + config.link_delay
        self._n = n
        #: which step implementation runs ("reference" / "fast" /
        #: "batch"); resolved once — engine selection is per-run
        self.engine_name = config.resolved_engine
        # -- fast-path arbitration state; kept incrementally, rebuilt
        # from scratch by _rebuild_arbitration whenever _arb_stale is set
        #: in-network header requests in active order, parked or not
        self._reqs: List[tuple] = []
        #: the requesting worms' ``seq`` keys, parallel to ``_reqs``
        self._req_keys: List[int] = []
        #: (due clock, worm) for granted headers inside their routing
        #: delay; appends are due ``clock + _hdr_latency``, so FIFO order
        #: is due order
        self._ripening: Deque[Tuple[int, Worm]] = deque()
        #: unparked in-network requests: arbitration visits only these
        #: (plus the pending injection sources)
        self._hot: List[tuple] = []
        #: per-resource waiter lists — ``_chain_occ`` entries [0, R),
        #: consumption ports [R, R + n) — of the requests parked there
        self._waiters: List[List[tuple]] = []
        self._next_seq = 0
        self._arb_stale = True
        #: steady streams off the per-clock scan (base fast path only):
        #: end clock -> [[worm, first unapplied clock], ...]; see
        #: :meth:`_settle_streams`
        self._streams: Dict[int, List[list]] = {}

    # ------------------------------------------------------------------
    # routing tables (epoch-atomic swap point)
    # ------------------------------------------------------------------
    @property
    def routing(self):
        """The installed routing tables."""
        return self._routing

    @routing.setter
    def routing(self, routing) -> None:
        """Install new tables and atomically start a new decision epoch.

        Assignment is the *only* way tables change (the fault layer's
        swap hook goes through here too), so the decision cache can
        never serve candidates computed from a previous epoch.
        """
        self._routing = routing
        self._attach_routing(routing)
        self._drop_worm_memos()

    def _invalidate_decisions(self) -> None:
        """Dead-channel set changed: drop every cached decision row."""
        cache = getattr(self, "decision_cache", None)
        if cache is not None:
            cache.invalidate()
            self._drop_worm_memos()

    def _drop_worm_memos(self) -> None:
        """Clear every memoized header request (epoch change)."""
        for w in self.active:
            w.hdr_req = None
        self._invalidate_requests()

    def _invalidate_requests(self) -> None:
        """Candidate sets or resource state changed outside the step:
        every parked request and the request list holding them are
        rebuilt before the next fast clock (:meth:`_rebuild_arbitration`)."""
        self._arb_stale = True

    # ------------------------------------------------------------------
    # public driver
    # ------------------------------------------------------------------
    def run(self) -> SimulationStats:
        """Run warmup + measurement and return the window statistics.

        Running streams are settled only where their counts are read:
        at the warmup/measurement boundary (the counters start there),
        before each timeline snapshot, and before the statistics are
        frozen.
        """
        cfg = self.config
        step = self._step
        for _ in range(cfg.warmup_clocks):
            step()
        self._settle_streams()
        stats = self.stats
        stats.active = True
        interval = stats.timeline_interval
        for _ in range(cfg.measure_clocks):
            step()
            stats.window_clocks += 1
            if interval > 0:
                if stats.window_clocks % interval == 0:
                    self._settle_streams()
                stats.on_tick()
        self._settle_streams()
        backlog = sum(len(q) for q in self.queues)
        reconfigs = self.faults.records if self.faults is not None else ()
        return self.stats.finalize(queue_backlog=backlog, reconfigurations=reconfigs)

    def enable_invariant_checks(self) -> None:
        """Verify flit conservation for every worm each clock (tests).

        The fast path also checks its arbitration state: every parked
        request has all its resources busy and is on each one's waiter
        list (:meth:`_check_parking`).
        """
        self._check_invariants = True

    def attach_faults(self, runtime) -> None:
        """Install a :class:`repro.faults.FaultRuntime` on this engine.

        The runtime is stepped at the start of every clock: it fires
        scheduled faults (killing channels, dropping/truncating the
        worms crossing them), re-injects retried packets, and swaps
        routing tables after each drain window.  Only the bit-exact
        engines run fault schedules: the relaxed engine is certified
        fault-free and refuses them.
        """
        require_fault_capable(self.engine_name)
        if runtime.schedule.topology != self.topology:
            raise ValueError("fault schedule built for a different topology")
        self.faults = runtime

    # ------------------------------------------------------------------
    # one clock
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one clock.

        Settles the running streams afterwards, so a caller stepping by
        hand reads every worm and counter exactly.
        """
        self._step()
        self._settle_streams()

    def _step(self) -> None:
        """One clock, leaving streams unsettled (the :meth:`run` loop)."""
        if self.faults is not None:
            self.faults.on_clock(self)
        progressed = self._move_impl()
        if progressed:
            self._last_progress = self.clock
        interval = self._deadlock_interval
        if interval and self.clock % interval == interval - 1:
            dead = self.find_deadlocked_worms()
            if dead:
                raise DeadlockDetected(self._deadlock_report(dead))
        stall = self._max_stall
        if (
            stall is not None
            and self.clock - self._last_progress >= stall
            and (self.active or any(self.queues))
        ):
            raise LivelockSuspected(self._stall_report(stall))
        self._generate_packets()
        if self._check_invariants:
            self._check_state()
        self.clock += 1

    def _check_state(self) -> None:
        """Per-clock invariant checks (see :meth:`enable_invariant_checks`)."""
        # this clock's moves are done: settle through it (the streams
        # keep running, so invariant mode still exercises them)
        self._settle_streams(self.clock + 1)
        for w in self.active:
            w.check_invariant()
        if self._streams:
            self._check_streams()
        if self.engine_name == "fast":
            self._check_parking()

    def _generate_packets(self) -> None:
        p = self._gen_p
        if p <= 0.0:
            return
        hits = np.nonzero(self.rng.random(self._n) < p)[0]
        if hits.size == 0:
            return
        length = self.config.packet_length
        dead_switches = (
            self.faults.dead_switches if self.faults is not None else ()
        )
        for s in hits.tolist():
            if s in dead_switches:
                continue  # a failed switch generates nothing
            dst = self.traffic.destination(s, self.rng)
            if dst in dead_switches:
                # addressed to a failed host: lost at generation time
                self.stats.on_generate()
                self.stats.on_lost()
                continue
            w = Worm(self._next_pid, s, dst, length, self.clock)
            self._next_pid += 1
            self.worms[w.pid] = w
            self.queues[s].append(w)
            self.stats.on_generate()
            if self.tracer is not None:
                self.tracer.record(self.clock, "gen", w.pid, w.src, w.dst)

    def find_deadlocked_worms(self) -> List[Worm]:
        """Exact wait-for analysis: worms that can never progress again.

        A worm is *live* when it is consuming, its header is still in
        flight, or some admissible candidate resource (next channel —
        under the VC engine every candidate virtual channel, including
        the Duato escape class — or the destination's consumption port)
        is free or held by a live worm (a live holder eventually drains
        past and releases).  The greatest fixpoint of this rule marks
        everything that can still move; the worms left over hold
        resources and wait, directly or transitively, only on each
        other — a wormhole deadlock (the cyclic-wait witness of the
        turn-cycle condition).  Returns the non-live worms (empty for
        any verified deadlock-free routing).
        """
        injected = [w for w in self.active if w.chain]
        live = set()
        # occupancy is frozen during the analysis, so each blocked
        # header's candidate holders are read once, outside the fixpoint
        waiting: List[Tuple[int, List[int]]] = []
        occupant = self._chain_occ
        for w in injected:
            if w.consuming or w.head_ready_at > self.clock:
                live.add(w.pid)
                continue
            head = w.chain[0]
            node = self._sink[self.phys(head)]
            if node == w.dst:
                holders = [self.consume_occ[node]]
            else:
                holders = [occupant[r] for r in self._wait_candidates(w, head)]
            waiting.append((w.pid, holders))
        changed = True
        while changed:
            changed = False
            for pid, holders in waiting:
                if pid not in live and any(
                    h == FREE or h in live for h in holders
                ):
                    live.add(pid)
                    changed = True
        return [w for w in injected if w.pid not in live]

    # ------------------------------------------------------------------
    # fast-path header arbitration (both engines)
    # ------------------------------------------------------------------
    def _ripen(self, clock: int) -> None:
        """Insert the headers whose routing delay ended by *clock* into
        the request list, in active order and unparked."""
        ripening = self._ripening
        keys = self._req_keys
        reqs = self._reqs
        hot = self._hot
        while ripening and ripening[0][0] <= clock:
            w = ripening.popleft()[1]
            req = w.hdr_req = self._header_request(w)
            w.parked = False
            i = bisect_left(keys, w.seq)
            keys.insert(i, w.seq)
            reqs.insert(i, req)
            hot.append(req)

    def _visit_order(self, inj_reqs: List[tuple]) -> List[tuple]:
        """Draw this clock's arbitration permutation (the reference's
        stream) and return the unparked requests in its order.

        The permutation covers every request the reference builds: the
        in-network list (parked requests included), then the requesting
        sources in ascending order — the pending ones in *inj_reqs* and
        the blocked ones on the wheel.  Starts a new unparked list.
        """
        keys = self._req_keys
        hot = self._hot
        self._hot = []
        n_net = len(keys)
        blocked = self._wheel.blocked
        n_req = n_net + len(inj_reqs) + len(blocked)
        if n_req:
            perm = self.rng.permutation(n_req)
            if len(hot) + len(inj_reqs) > 1:
                pos = perm.argsort().tolist()  # request index -> rank
                ranked = [(pos[bisect_left(keys, req[0].seq)], req) for req in hot]
                for j, req in enumerate(inj_reqs):
                    idx = n_net + j + bisect_left(blocked, req[0].src)
                    ranked.append((pos[idx], req))
                ranked.sort(key=itemgetter(0))
                return [req for _, req in ranked]
        return hot or inj_reqs

    def _park(self, losers: List[tuple]) -> None:
        """Park each of *losers*, whose resources are all busy, on every
        one of those resources' waiter lists; block losing sources."""
        waiters = self._waiters
        n_res = len(self._chain_occ)
        for req in losers:
            w, origin, cands = req
            w.parked = True
            if origin is None:
                waiters[n_res + w.dst].append(req)
                continue
            if cands.__class__ is int:
                waiters[cands].append(req)
            else:
                for c in cands:
                    waiters[c].append(req)
            if origin == -1:
                self._wheel.block(w.src)

    def _wake_requests(self, r: int) -> None:
        """Resource *r* was released: unpark the requests waiting on it.

        Entries whose worm has moved on (granted, re-requested, or woken
        through another resource) are stale and skipped.
        """
        waiting = self._waiters[r]
        self._waiters[r] = []
        hot = self._hot
        for req in waiting:
            w = req[0]
            if w.parked and w.hdr_req is req:
                w.parked = False
                if req[1] == -1:
                    self._wheel.wake(w.src)
                else:
                    hot.append(req)

    def _rebuild_arbitration(self) -> None:
        """Recompute the fast path's arbitration state from scratch.

        Runs before the first fast clock and after every fault hook or
        decision-epoch change: active worms are renumbered in active
        order, every routing-ready header gets a fresh unparked request,
        the others go on the ripening FIFO, and every blocked source is
        made pending again.
        """
        clock = self.clock
        reqs: List[tuple] = []
        keys: List[int] = []
        ripening: List[Tuple[int, Worm]] = []
        for seq, w in enumerate(self.active):
            w.seq = seq
            w.hdr_req = None
            w.parked = False
            if w.consuming or not w.chain:
                continue
            if w.head_ready_at > clock:
                ripening.append((w.head_ready_at, w))
            else:
                w.hdr_req = req = self._header_request(w)
                reqs.append(req)
                keys.append(seq)
        ripening.sort(key=itemgetter(0))
        self._next_seq = len(self.active)
        self._reqs = reqs
        self._req_keys = keys
        self._ripening = deque(ripening)
        self._hot = list(reqs)
        self._waiters = [[] for _ in range(len(self._chain_occ) + self._n)]
        self._wheel.wake_blocked()
        self._arb_stale = False

    def _check_parking(self) -> None:
        """Assert the fast path's arbitration state (invariant mode).

        The in-network request list plus the ripening FIFO hold exactly
        the active headers not yet at their consumption port, in active
        order; every unparked request will be visited next clock; and
        every parked request — in-network or a blocked source — has
        all its resources busy and sits on each one's waiter list.
        """
        if self._arb_stale:
            return  # a fault hook ran; the next clock rebuilds
        reqs = self._reqs
        keys = self._req_keys
        if keys != [req[0].seq for req in reqs] or any(
            b <= a for a, b in zip(keys, keys[1:])
        ):
            raise AssertionError("request list is not in active order")
        seqs = [w.seq for w in self.active]
        if any(b <= a for a, b in zip(seqs, seqs[1:])):
            raise AssertionError("active worms are not in seq order")
        heads = {w.pid for w in self.active if w.chain and not w.consuming}
        listed = [req[0].pid for req in reqs] + [w.pid for _, w in self._ripening]
        if sorted(listed) != sorted(heads):
            raise AssertionError(
                f"request list + ripening FIFO {sorted(listed)} != "
                f"waiting headers {sorted(heads)}"
            )
        hot = {id(req) for req in self._hot}
        occ = self._chain_occ
        n_res = len(occ)
        consume_occ = self.consume_occ
        waiters = self._waiters

        def check(req: tuple) -> None:
            w, origin, cands = req
            if w.hdr_req is not req:
                raise AssertionError(f"worm {w.pid}: parked request is stale")
            if origin is None:
                resources = (n_res + w.dst,)
            else:
                resources = (cands,) if cands.__class__ is int else cands
            for r in resources:
                holder = occ[r] if r < n_res else consume_occ[r - n_res]
                if holder == FREE:
                    raise AssertionError(
                        f"worm {w.pid} is parked on free resource {r}"
                    )
                if not any(x is req for x in waiters[r]):
                    raise AssertionError(
                        f"worm {w.pid} is parked but not on resource {r}'s "
                        "waiter list"
                    )

        for req in reqs:
            if req[0].parked:
                check(req)
            elif id(req) not in hot:
                raise AssertionError(
                    f"worm {req[0].pid}: unparked request would not be visited"
                )
        for s in self._wheel.blocked:
            q = self.queues[s]
            req = q[0].hdr_req if q else None
            if req is None or req[1] != -1 or not q[0].parked:
                raise AssertionError(f"blocked source {s} has no parked request")
            if self.injection_occ[s] != FREE:
                raise AssertionError(f"blocked source {s} holds its port")
            check(req)

    # ------------------------------------------------------------------
    # steady streams (base fast path)
    # ------------------------------------------------------------------
    def _settle_streams(self, now: Optional[int] = None) -> None:
        """Apply every running stream's clocks before *now* (default: the
        current clock) to its worm, and to the counters while measuring.

        A stream is a worm in the steady state — consuming at the head,
        fed at the tail, one flit in every channel — whose next clocks
        repeat one move until its source runs dry (see
        :meth:`WormholeSimulator._move_fast`).  The streams keep running.
        """
        if not self._streams:
            return
        if now is None:
            now = self.clock
        for entries in self._streams.values():
            for entry in entries:
                clocks = now - entry[1]
                if clocks > 0:
                    self._advance_stream(entry[0], clocks)
                    entry[1] = now

    def _check_streams(self) -> None:
        """Assert the stream table, settled through this clock: each
        worm is an active steady stream off the live list whose source
        runs dry exactly at its end clock (invariant mode)."""
        clock = self.clock
        live = {id(w) for w in self._live}
        active = {id(w) for w in self.active}
        for end, entries in self._streams.items():
            for w, first in entries:
                if (
                    first != clock + 1
                    or w.flits_at_source != end - clock
                    or not w.consuming
                    or any(f != 1 for f in w.chain_flits)
                ):
                    raise AssertionError(
                        f"worm {w.pid} is no steady stream ending at {end}"
                    )
                if id(w) in live or id(w) not in active:
                    raise AssertionError(f"stream worm {w.pid} is misfiled")

    def _end_streams(self) -> None:
        """Settle every stream and return its worm to the live list
        (the base engine's: only it fills the table).

        Called before anything outside the clock step reads or rewrites
        worms: the fault hooks and :meth:`_drop_worm`.
        """
        if not self._streams:
            return
        self._settle_streams()
        live = self._live
        for entries in self._streams.values():
            for w, _ in entries:
                live.append(w)
        self._streams = {}

    def _advance_stream(self, w: Worm, clocks: int) -> None:
        """Apply *clocks* steady-stream moves to *w* and its counters."""
        w.consumed += clocks
        w.flits_at_source -= clocks
        stats = self.stats
        if stats.active:
            stats.consumed_flits[w.dst] += clocks
            stats.injected_flits[w.src] += clocks
            ch_flits = stats.channel_flits
            for c in w.chain:
                ch_flits[c] += clocks

    # ------------------------------------------------------------------
    # fault hooks (driven by repro.faults.FaultRuntime)
    # ------------------------------------------------------------------
    def _fault_kill_link(self, link: Tuple[int, int], policy: str) -> List[Worm]:
        """Kill both channels of *link*; handle worms crossing it.

        ``drop`` removes a crossing worm outright (all resources freed
        instantly — an idealised abort signal).  ``drain`` keeps the
        fragment on the destination side of the break: flits already
        across the failed link continue to the destination and release
        their channels naturally, while the tail side is reclaimed; the
        fragment is marked ``corrupted`` and reported to the retry
        layer when it finishes draining.  Returns the worms removed
        *now* (drain fragments are reported later, at completion).
        """
        self._end_streams()
        u, v = link
        cids = (self.topology.channel_id(u, v), self.topology.channel_id(v, u))
        self.dead_channels.update(cids)
        occ = self._chain_occ
        phys = self.phys
        removed: List[Worm] = []
        for w in list(self.active):
            k = next((i for i, c in enumerate(w.chain) if phys(c) in cids), None)
            if k is None:
                continue
            if policy == "drain":
                # flits buffered in chain[k] already crossed the link
                # (they sit in the sink-side input buffer), so the
                # fragment keeps indices 0..k and loses everything
                # upstream of the break
                kept = w.chain_flits[: k + 1]
                if sum(kept) > 0 or w.consuming:
                    for c in w.chain[k + 1 :]:
                        occ[c] = FREE
                    if self.injection_occ[w.src] == w.pid:
                        self.injection_occ[w.src] = FREE
                        self._wheel.wake(w.src)
                    w.chain = w.chain[: k + 1]
                    w.chain_flits = kept
                    w.flits_at_source = 0
                    w.length = w.consumed + sum(kept)
                    w.corrupted = True
                    # truncation rewrote the buffer state and freed
                    # resources: rescan the worm, and rebuild the
                    # memoized arbitration state
                    self._wake_worm(w)
                    self._invalidate_requests()
                    if self.tracer is not None:
                        self.tracer.record(
                            self.clock, "truncate", w.pid, w.src, w.dst
                        )
                    continue
            self._drop_worm(w)
            removed.append(w)
        return removed

    def _fault_restore_link(self, link: Tuple[int, int]) -> None:
        """Revive both channels of *link* (a flap's UP edge).

        The channels become *grantable* again immediately, but carry no
        traffic until a reconfiguration installs tables that reference
        them.
        """
        u, v = link
        self.dead_channels.discard(self.topology.channel_id(u, v))
        self.dead_channels.discard(self.topology.channel_id(v, u))

    def _fault_kill_switch(self, v: int, policy: str) -> List[Worm]:
        """Kill switch *v*: all incident links, plus traffic bound to it.

        Removes queued packets at *v*, active worms destined to *v*
        (their consumption port is gone for good), and active worms
        sourced at *v* that still have flits to feed.  Returns every
        worm removed, including those taken out by the incident-link
        kills.
        """
        self._end_streams()
        removed: List[Worm] = []
        for nb in self.topology.neighbors(v):
            link = (v, nb) if v < nb else (nb, v)
            if self.topology.channel_id(link[0], link[1]) in self.dead_channels:
                continue
            removed.extend(self._fault_kill_link(link, policy))
        for w in self.queues[v]:
            self.worms.pop(w.pid, None)
            removed.append(w)
        self.queues[v].clear()
        for w in list(self.active):
            if w.dst == v or (w.src == v and w.flits_at_source > 0):
                self._drop_worm(w)
                removed.append(w)
        return removed

    def _fault_swap_routing(self, routing: RoutingFunction) -> None:
        """Atomically install reconfigured routing tables.

        *routing* must be remapped to this engine's (full) topology
        channel-id space — see
        :func:`repro.faults.controller.remap_routing`.
        """
        if routing.topology != self.topology:
            raise ValueError("swapped routing must be remapped to the full topology")
        self.routing = routing

    def _fault_eject_stranded(self) -> Tuple[List[Worm], List[Worm]]:
        """Drop worms and queued packets the new tables cannot carry.

        A worm survives the swap only if its *held chain* is a path the
        new routing function could itself have produced (each adjacent
        channel pair is an admissible new-epoch turn) and its head
        still has a way forward.  Ejecting nonconforming worms restores
        the Dally-Seitz induction for the new epoch — every remaining
        hold and every wait follows the new (verified acyclic) channel
        dependency graph, so the transition cannot introduce a deadlock
        through mixed-epoch ("ghost") dependencies.  Queued packets
        whose destination became unroutable (endpoint died) are
        cancelled.  Returns ``(ejected worms, cancelled packets)``.
        """
        self._end_streams()
        ejected: List[Worm] = []
        for w in list(self.active):
            if w.consuming or not w.chain:
                continue
            if not self._chain_conforms(w):
                self._drop_worm(w)
                ejected.append(w)
        cancelled: List[Worm] = []
        for s, q in enumerate(self.queues):
            if not q:
                continue
            stranded = [w for w in q if not self.routing.first_hops[w.dst][s]]
            if stranded:
                kept = [w for w in q if self.routing.first_hops[w.dst][s]]
                q.clear()
                q.extend(kept)
                for w in stranded:
                    self.worms.pop(w.pid, None)
                cancelled.extend(stranded)
        return ejected, cancelled

    def _chain_conforms(self, w: Worm) -> bool:
        """Is *w*'s held chain (projected onto physical channels) a
        valid path under the current tables?"""
        nh = self.routing.next_hops[w.dst]
        phys = self.phys
        chain = w.chain
        for i in range(len(chain) - 1, 0, -1):
            if phys(chain[i - 1]) not in nh[phys(chain[i])]:
                return False
        head = phys(chain[0])
        if self._sink[head] == w.dst:
            return True
        return bool(nh[head])

    def _drop_worm(self, w: Worm) -> None:
        """Remove *w* from the network, freeing every held resource."""
        self._end_streams()
        occ = self._chain_occ
        for c in w.chain:
            occ[c] = FREE
        if w.consuming:
            self.consume_occ[w.dst] = FREE
        if self.injection_occ[w.src] == w.pid:
            self.injection_occ[w.src] = FREE
            self._wheel.wake(w.src)
        w.chain = []
        w.chain_flits = []
        self.active.remove(w)
        self.worms.pop(w.pid, None)
        w.quiet = True  # retire: evicts any stale live entry
        self._invalidate_requests()  # resources freed outside the step
        if self.tracer is not None:
            self.tracer.record(self.clock, "drop", w.pid, w.src, w.dst)

    def _fault_requeue(
        self, src: int, dst: int, length: int, logical_id: int,
        attempts: int, t_gen: int,
    ) -> Worm:
        """Re-enqueue a retried packet at its source (retry layer)."""
        w = Worm(self._next_pid, src, dst, length, t_gen)
        self._next_pid += 1
        w.logical_id = logical_id
        w.attempts = attempts
        w.head_ready_at = self.clock
        self.worms[w.pid] = w
        self.queues[src].append(w)
        if self.tracer is not None:
            self.tracer.record(self.clock, "retry", w.pid, src, dst)
        return w

    def _stall_report(self, stall: int) -> str:
        stuck = [
            (w.pid, w.src, w.dst, list(zip(w.chain, w.chain_flits)))
            for w in self.active[:6]
        ]
        queued = sum(len(q) for q in self.queues)
        return (
            f"no flit moved for {stall} clocks (clock {self.clock}, last "
            f"progress {self._last_progress}) with {len(self.active)} worms "
            f"active and {queued} packets queued; worm dump: {stuck}"
        )

    def _deadlock_report(self, dead: List[Worm]) -> str:
        held = [
            (w.pid, w.src, w.dst, list(zip(w.chain, w.chain_flits)))
            for w in dead
        ]
        return (
            f"wait-for analysis at clock {self.clock}: {len(dead)} worms "
            f"can never progress (cyclic channel wait), e.g. {held[:4]}"
        )


class WormholeSimulator(SimulatorCore):
    """Cycle-accurate wormhole simulation of one routing function.

    Parameters
    ----------
    routing:
        A verified :class:`~repro.routing.base.RoutingFunction`.
    config:
        Timing and workload parameters.
    traffic:
        Destination sampler; defaults to the paper's uniform pattern.

    Typical use is the one-shot :func:`simulate` helper; instantiate the
    class directly when stepping manually (tests) or inspecting state.
    """

    #: the shared driver, also bound in this class's own namespace: the
    #: end-to-end benchmark's span tracer (``benchmarks/e2e/spans.py``)
    #: wraps ``WormholeSimulator.run`` found in ``vars(WormholeSimulator)``
    run = SimulatorCore.run

    def __init__(
        self,
        routing: RoutingFunction,
        config: SimulationConfig,
        traffic: Optional[TrafficPattern] = None,
    ) -> None:
        topology = routing.topology
        super().__init__(routing, topology, config, traffic, topology.num_channels)
        #: channel occupancy: worm pid or FREE (worm chains hold
        #: physical channels here)
        self.channel_occ = self._chain_occ
        #: per-epoch routing-decision cache (dead-channel-filtered
        #: candidate rows; see :class:`repro.simulator.fastpath.DecisionCache`)
        self.decision_cache = DecisionCache(routing, self.dead_channels)
        #: the live list: active worms not known-quiet, i.e. the only
        #: ones the body-move scan must visit (fast path)
        self._live: List[Worm] = []
        if self.engine_name == "batch":
            # deferred import: batch_engine imports Worm from this module
            from repro.simulator.batch_engine import BatchCore

            self._vec = BatchCore(self)
            self._move_impl = self._vec.move
        elif self.engine_name == "fast":
            self._move_impl = self._move_fast
        else:
            self._move_impl = self._move_bodies_and_heads

    # ------------------------------------------------------------------
    # per-engine hooks of the shared core
    # ------------------------------------------------------------------
    def _attach_routing(self, routing: RoutingFunction) -> None:
        self.decision_cache.attach(routing)

    def _wake_worm(self, w: Worm) -> None:
        """Put *w* back on the live list after an external mutation."""
        if w.quiet:
            w.quiet = False
            self._live.append(w)

    def phys(self, cid: int) -> int:
        """Physical channel of a chain entry (chains hold physical channels)."""
        return cid

    def _wait_candidates(self, w: Worm, head: int) -> Tuple[int, ...]:
        """Every admissible next channel of *w*'s header, free or not."""
        return self.routing.next_hops[w.dst][head]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _move_bodies_and_heads(self) -> bool:
        """One clock of flit movement — the seed *reference* implementation.

        Kept verbatim as the golden model: the fast path
        (:meth:`_move_fast`) must replay this function's decisions —
        plans, grants and RNG consumption — bit for bit, and the
        differential suite in ``tests/test_engine_equivalence.py``
        compares the two on seeded scenarios.  Selected with
        ``SimulationConfig(engine="reference")``.
        """
        cap = self.config.buffer_flits
        stats = self.stats
        clock = self.clock
        topo = self.topology
        progressed = False

        # -- phase 1: plan body moves from start-of-clock state ---------
        # each entry: (worm, kind, index); kinds: consume / advance / feed
        body_plans: List[Tuple[Worm, str, int]] = []
        for w in self.active:
            cf = w.chain_flits
            if w.consuming and cf and cf[0] > 0:
                body_plans.append((w, "consume", 0))
            for i in range(len(cf) - 1):
                if cf[i + 1] > 0 and cf[i] < cap:
                    body_plans.append((w, "advance", i))
            if w.flits_at_source > 0 and cf and cf[-1] < cap:
                body_plans.append((w, "feed", len(cf) - 1))

        # -- phase 2: header requests on start-of-clock occupancy -------
        # in-network headers: head at front of chain[0], routing delay done
        header_requests: List[Tuple[Worm, Optional[int], Tuple[int, ...]]] = []
        for w in self.active:
            if w.consuming or not w.chain or w.head_ready_at > clock:
                continue
            head = w.chain[0]
            node = self._sink[head]
            if node == w.dst:
                header_requests.append((w, None, ()))  # consumption request
            else:
                cands = self.routing.next_hops[w.dst][head]
                header_requests.append((w, head, cands))
        # injection headers: queue fronts whose injection port is free
        for s, q in enumerate(self.queues):
            if q and self.injection_occ[s] == FREE:
                w = q[0]
                if w.head_ready_at <= clock:
                    cands = self.routing.first_hops[w.dst][s]
                    header_requests.append((w, -1, cands))

        # arbitrate in random order; each channel / consumption port
        # granted at most once per clock
        grants: List[Tuple[Worm, int, int]] = []  # (worm, origin, target)
        if header_requests:
            order = self.rng.permutation(len(header_requests))
            granted_channels: set = set()
            granted_consume: set = set()
            occ = self.channel_occ
            dead = self.dead_channels
            for idx in order:
                w, origin, cands = header_requests[idx]
                if origin is None:
                    if w.dst not in granted_consume and self.consume_occ[w.dst] == FREE:
                        granted_consume.add(w.dst)
                        grants.append((w, -2, w.dst))
                    continue
                avail = [
                    c
                    for c in cands
                    if occ[c] == FREE
                    and c not in granted_channels
                    and c not in dead
                ]
                if not avail:
                    continue
                pick = self._select(avail)
                granted_channels.add(pick)
                grants.append((w, origin, pick))

        # -- phase 3: commit -------------------------------------------
        hdr_latency = self.config.header_delay + self.config.link_delay
        # worms whose chain gained a channel at the front this clock:
        # body-plan indices (taken pre-grant) must shift by one
        shifted: set = set()

        tracer = self.tracer
        for w, origin, target in grants:
            progressed = True
            if origin == -2:  # consumption port acquired; consume header
                self.consume_occ[target] = w.pid
                w.consuming = True
                w.t_head_arrival = clock
                w.chain_flits[0] -= 1
                w.consumed += 1
                stats.on_consume(target)
                if tracer is not None:
                    tracer.record(clock, "consume", w.pid, w.src, w.dst)
            elif origin == -1:  # injection: header enters first channel
                self.channel_occ[target] = w.pid
                self.injection_occ[w.src] = w.pid
                self.queues[w.src].popleft()
                self.active.append(w)
                w.t_inject = clock
                w.chain = [target]
                w.chain_flits = [1]
                w.flits_at_source -= 1
                w.hops = 1
                w.head_ready_at = clock + hdr_latency
                stats.on_inject(w.src)
                stats.on_channel_entry(target)
                if tracer is not None:
                    tracer.record(clock, "inject", w.pid, w.src, w.dst, target)
                if w.flits_at_source == 0:
                    self.injection_occ[w.src] = FREE
            else:  # in-network hop
                self.channel_occ[target] = w.pid
                w.chain.insert(0, target)
                w.chain_flits.insert(0, 1)
                w.chain_flits[1] -= 1
                w.hops += 1
                w.head_ready_at = clock + hdr_latency
                shifted.add(w.pid)
                stats.on_channel_entry(target)
                if tracer is not None:
                    tracer.record(clock, "hop", w.pid, w.src, w.dst, target)

        for w, kind, i in body_plans:
            progressed = True
            cf = w.chain_flits
            if kind == "consume":
                cf[0] -= 1
                w.consumed += 1
                stats.on_consume(w.dst)
            elif kind == "advance":
                j = i + 1 if w.pid in shifted else i
                cf[j + 1] -= 1
                cf[j] += 1
                stats.on_channel_entry(w.chain[j])
            else:  # feed from source (always targets the tail channel)
                j = len(cf) - 1
                w.flits_at_source -= 1
                cf[j] += 1
                stats.on_inject(w.src)
                stats.on_channel_entry(w.chain[j])
                if w.flits_at_source == 0:
                    self.injection_occ[w.src] = FREE

        # -- phase 4: tail releases and completions ---------------------
        finished: List[Worm] = []
        for w in self.active:
            if w.t_inject is None:
                continue
            while (
                w.chain
                and w.flits_at_source == 0
                and w.chain_flits[-1] == 0
                and not (len(w.chain) == 1 and not w.consuming)
            ):
                cid = w.chain.pop()
                w.chain_flits.pop()
                self.channel_occ[cid] = FREE
            if w.consuming and w.consumed == w.length:
                w.t_done = clock
                self.consume_occ[w.dst] = FREE
                finished.append(w)
                if w.corrupted:
                    # a fault cut this worm's tail; the fragment drained
                    # but the packet was not delivered — hand it to the
                    # retry layer
                    stats.on_corrupted()
                    if self.faults is not None:
                        self.faults.on_packet_failure(self, w)
                else:
                    stats.on_delivered(
                        latency=w.t_done - w.t_gen,
                        header_latency=(w.t_head_arrival or clock) - w.t_gen,
                        hops=w.hops,
                    )
                if self.tracer is not None:
                    self.tracer.record(clock, "done", w.pid, w.src, w.dst)
        if finished:
            done_ids = {w.pid for w in finished}
            self.active = [w for w in self.active if w.pid not in done_ids]
            for w in finished:
                self.worms.pop(w.pid, None)
        return progressed

    def _move_fast(self) -> bool:
        """One clock of flit movement — the fast-path implementation.

        Byte-identical to :meth:`_move_bodies_and_heads` for any fixed
        seed (same moves, same grants, same RNG draws in the same
        order), but its Python work scales with events — grants,
        releases and headers whose routing delay just ended — instead
        of with the number of blocked headers:

        * **body moves in place.**  Worms whose body provably cannot
          move are parked (their ``quiet`` flag) and only the live list
          is scanned: a worm's buffer state only changes through its
          own moves, so "no body move this clock and no grant" implies
          "no body move next clock" (a drain truncation wakes the worm
          it cuts, and an empty tail it leaves keeps the worm live
          until phase 4 releases it).  Each scanned worm's moves are
          applied during the scan, decided from start-of-clock counts
          (the previous channel's count is carried, not re-read).  A
          consuming worm still feeding with one flit in every channel
          (most live worms at saturation) moves every flit and keeps
          its counts, so only its counters are updated.
          Arbitration reads no flit counts, and every grant commit is
          an additive update, so committing grants afterwards gives
          the reference's state.  Only the injection port of a worm
          that fed its last flit is freed after arbitration, as in the
          reference;
        * **steady streams off the scan.**  A steady stream holds every
          resource it needs and requests none, so its next clocks repeat
          this move until its source runs dry.  After a steady move that
          leaves ``f > 0`` flits at the source, the worm leaves the live
          list and enters the core's stream table at end clock
          ``clock + f``.  Phase 1 of that clock applies its unsettled
          clocks, frees its injection port and returns it to the live
          list, so phase 4 sees what it would have seen.  In between,
          counts are applied only where they are read
          (:meth:`SimulatorCore._settle_streams`).  Only this engine
          fills the table: in the VC engine a flit competes with other
          VCs for its physical channel's link budget, so a stream's
          future is not fixed there;
        * **incremental request list.**  The arbitration RNG permutes
          request *indices*, so the in-network requests are kept in
          active order (``_reqs``, keyed by each worm's ``seq``).  A
          granted header leaves the list and waits on the ``_ripening``
          FIFO until its routing delay ends, then is inserted in order;
        * **parked requests.**  After arbitration, a request that was
          not granted has every resource busy — its candidate channels,
          or its destination's consumption port — and goes onto those
          resources' waiter lists.  Until phase 4 (or a fault hook)
          releases one of them it can neither be granted nor draw RNG
          in the reference, so it is skipped: the permutation is still
          drawn over the full request count, and only the unparked
          requests are visited, in permutation order.  Injection
          sources block the same way on their first-hop channels
          (:meth:`InjectionWheel.block`); the other idle sources live on
          the injection event wheel (parked on a routing-delay timer or
          a busy injection port, woken when the queue's front or
          emptiness changes);
        * routing candidates come from the per-epoch decision cache
          (flat rows with dead channels pre-filtered).  Table swaps,
          dead-channel changes and fault hooks set ``_arb_stale``, and
          the next clock rebuilds all arbitration state from scratch
          (:meth:`_rebuild_arbitration`);
        * measurement counters are incremented inline on the
          collector's plain-list counters.
        """
        if self._arb_stale:
            self._rebuild_arbitration()
        cap = self._cap
        stats = self.stats
        clock = self.clock
        occ = self.channel_occ
        active = self.active
        rec = stats.active
        ch_flits = stats.channel_flits
        consumed_flits = stats.consumed_flits
        injected_flits = stats.injected_flits
        tracer = self.tracer
        wheel = self._wheel

        # -- phase 1: body moves over the live (non-quiet) list --------
        # Worms that go quiet (or retired: finished/dropped worms are
        # marked quiet) are evicted by not re-appending them; grants
        # and fault wakes re-add worms via ``_wake_worm`` / the commit
        # loop below.
        new_live: List[Worm] = []
        live_append = new_live.append
        freed_src: List[int] = []
        moves = 0
        visited = 0
        stream_ok = cap > 1  # a full 1-flit buffer blocks its upstream
        streams = self._streams
        # every stream in the table moves this clock
        streaming = bool(streams)
        if streaming:
            ended = streams.pop(clock, None)
            if ended:
                # the last clock of these streams: apply the clocks not
                # yet settled and hand the worms back to phase 4, their
                # sources' ports freed as a last feed frees them
                for w, first in ended:
                    self._advance_stream(w, clock + 1 - first)
                    freed_src.append(w.src)
                    live_append(w)
                visited += len(ended)
        for w in self._live:
            if w.quiet:
                continue
            visited += 1
            cf = w.chain_flits
            if not cf:
                w.quiet = True
                continue
            if (
                stream_ok
                and w.consuming
                and w.flits_at_source > 0
                and cf.count(1) == len(cf)
            ):
                # a steady stream (one flit per channel, consumed at the
                # head, fed at the tail): every flit moves one channel
                # and the counts come out unchanged
                w.consumed += 1
                f = w.flits_at_source = w.flits_at_source - 1
                moves += 1
                if rec:
                    consumed_flits[w.dst] += 1
                    injected_flits[w.src] += 1
                    for c in w.chain:
                        ch_flits[c] += 1
                if f == 0:
                    freed_src.append(w.src)
                    live_append(w)
                    continue
                # the next f clocks repeat this move and nothing else
                # touches the worm: it leaves the live list until its
                # last clock (entries are settled lazily)
                streams.setdefault(clock + f, []).append([w, clock + 1])
                continue
            before = moves
            cur = cf[0]  # start-of-clock count of channel i
            if w.consuming and cur > 0:
                cf[0] = cur - 1
                w.consumed += 1
                moves += 1
                if rec:
                    consumed_flits[w.dst] += 1
            last = len(cf) - 1
            if last:
                chain = w.chain
                for i in range(last):
                    nxt = cf[i + 1]
                    if nxt > 0 and cur < cap:
                        cf[i + 1] = nxt - 1
                        cf[i] += 1
                        moves += 1
                        if rec:
                            ch_flits[chain[i]] += 1
                    cur = nxt
            if w.flits_at_source > 0 and cur < cap:
                # feed from source into the tail channel
                cf[last] += 1
                w.flits_at_source -= 1
                moves += 1
                if rec:
                    injected_flits[w.src] += 1
                    ch_flits[w.chain[last]] += 1
                if w.flits_at_source == 0:
                    freed_src.append(w.src)
            if moves != before:
                live_append(w)
            elif w.flits_at_source == 0 and cf[-1] == 0:
                # only a drain truncation leaves an empty tail channel
                # (or a fully drained fragment) at the start of a clock:
                # phase 4 must release it even though nothing moved
                live_append(w)
            else:
                # nothing can move until this worm's next grant
                w.quiet = True
        self._live = new_live
        if rec:
            stats.on_sched(visited, len(active))

        # -- phase 2: header requests on start-of-clock occupancy ------
        cache = self.decision_cache
        reqs = self._reqs
        keys = self._req_keys
        ripening = self._ripening
        if ripening and ripening[0][0] <= clock:
            self._ripen(clock)
        # injection requests from the event wheel, in ascending source
        # order (matching the reference's full enumerate scan)
        timers = wheel._timers
        if timers and timers[0][0] <= clock:
            wheel.advance(clock)
        inj_reqs: List[tuple] = []
        if wheel.pending:
            first_rows = cache._first_rows
            inj_occ = self.injection_occ
            queues = self.queues
            for s in sorted(wheel.pending):
                q = queues[s]
                if not q:
                    wheel.sleep(s)
                    continue
                if inj_occ[s] != FREE:
                    # no injection credit: woken when the port frees
                    wheel.sleep(s)
                    continue
                w = q[0]
                if w.head_ready_at > clock:
                    wheel.park_until(s, w.head_ready_at)
                    continue
                row = first_rows[w.dst]
                if row is None:
                    row = cache.first_row(w.dst)
                cands = row[s]
                if len(cands) == 1:
                    cands = cands[0]
                req = (w, -1, cands)
                w.hdr_req = req
                w.parked = False
                inj_reqs.append(req)

        # arbitrate in random order (identical stream to the reference)
        grants: List[Tuple[Worm, int, int]] = []
        losers: List[tuple] = []
        visit = self._visit_order(inj_reqs)
        if visit:
            self._arbitrate(visit, grants, losers)

        # -- phase 3: commit -------------------------------------------
        hdr_latency = self._hdr_latency
        for w, origin, target in grants:
            if w.quiet:
                w.quiet = False
                live_append(w)
            w.hdr_req = None
            if origin == -1:  # injection: header enters first channel
                occ[target] = w.pid
                self.injection_occ[w.src] = w.pid
                self.queues[w.src].popleft()
                active.append(w)
                w.seq = self._next_seq
                self._next_seq += 1
                live_append(w)  # fresh worms are never quiet
                w.t_inject = clock
                w.chain = [target]
                w.chain_flits = [1]
                w.flits_at_source -= 1
                w.hops = 1
                w.head_ready_at = clock + hdr_latency
                ripening.append((w.head_ready_at, w))
                if rec:
                    injected_flits[w.src] += 1
                    ch_flits[target] += 1
                if tracer is not None:
                    tracer.record(clock, "inject", w.pid, w.src, w.dst, target)
                if w.flits_at_source == 0:
                    self.injection_occ[w.src] = FREE
                    wheel.wake(w.src)
                continue
            # the header leaves the in-network request list
            i = bisect_left(keys, w.seq)
            del keys[i]
            del reqs[i]
            if origin == -2:  # consumption port acquired; consume header
                self.consume_occ[target] = w.pid
                w.consuming = True
                w.t_head_arrival = clock
                w.chain_flits[0] -= 1
                w.consumed += 1
                if rec:
                    consumed_flits[target] += 1
                if tracer is not None:
                    tracer.record(clock, "consume", w.pid, w.src, w.dst)
            else:  # in-network hop
                occ[target] = w.pid
                w.chain.insert(0, target)
                w.chain_flits.insert(0, 1)
                w.chain_flits[1] -= 1
                w.hops += 1
                w.head_ready_at = clock + hdr_latency
                ripening.append((w.head_ready_at, w))
                if rec:
                    ch_flits[target] += 1
                if tracer is not None:
                    tracer.record(clock, "hop", w.pid, w.src, w.dst, target)
        for s in freed_src:
            self.injection_occ[s] = FREE
            wheel.wake(s)
        # every resource of a losing request is now busy: park it
        if losers:
            self._park(losers)

        # -- phase 4: tail releases and completions ---------------------
        # Only worms that moved this clock (or were touched by a fault
        # hook, which clears their quiescence) can drain or finish —
        # exactly the rebuilt live list.  Drains are per-worm
        # independent, so live order is fine; completion *emission*
        # (latency lists, retry scheduling, trace) must follow active
        # order, restored below on the rare multi-finish clock.  Each
        # release wakes the requests parked on that resource.
        finished: List[Worm] = []
        waiters = self._waiters
        n_ch = len(occ)
        for w in new_live:
            if w.t_inject is None:
                continue
            chain = w.chain
            cf = w.chain_flits
            while (
                chain
                and w.flits_at_source == 0
                and cf[-1] == 0
                and (w.consuming or len(chain) > 1)
            ):
                cid = chain.pop()
                cf.pop()
                occ[cid] = FREE
                if waiters[cid]:
                    self._wake_requests(cid)
            if w.consuming and w.consumed == w.length:
                w.t_done = clock
                w.quiet = True  # retire: evicts any stale live entry
                self.consume_occ[w.dst] = FREE
                if waiters[n_ch + w.dst]:
                    self._wake_requests(n_ch + w.dst)
                finished.append(w)
        if finished:
            done_ids = {w.pid for w in finished}
            if len(finished) > 1:
                finished = [w for w in active if w.pid in done_ids]
            for w in finished:
                if w.corrupted:
                    stats.on_corrupted()
                    if self.faults is not None:
                        self.faults.on_packet_failure(self, w)
                else:
                    stats.on_delivered(
                        latency=w.t_done - w.t_gen,
                        header_latency=(w.t_head_arrival or clock) - w.t_gen,
                        hops=w.hops,
                    )
                if tracer is not None:
                    tracer.record(clock, "done", w.pid, w.src, w.dst)
            self.active = [w for w in self.active if w.pid not in done_ids]
            for w in finished:
                self.worms.pop(w.pid, None)
        return bool(grants) or moves > 0 or streaming

    def _arbitrate(self, visit: List[tuple], grants: list, losers: list) -> None:
        """Grant the unparked requests *visit*, in permutation order.

        Appends ``(worm, origin, target)`` to *grants* and every request
        left without a free resource to *losers*.
        """
        occ = self.channel_occ
        consume_occ = self.consume_occ
        grants_append = grants.append
        losers_append = losers.append
        # Claim resources by writing the occupancy maps right at the
        # grant (the commit writes the same values again): "free and
        # not granted earlier this clock" collapses to one FREE test.
        for req in visit:
            w, origin, cands = req
            if origin is None:
                dst = w.dst
                if consume_occ[dst] == FREE:
                    consume_occ[dst] = w.pid
                    grants_append((w, -2, dst))
                else:
                    losers_append(req)
                continue
            if cands.__class__ is int:
                # singleton candidate (the common case): no list
                # build; a lone free candidate never draws RNG
                if occ[cands] == FREE:
                    occ[cands] = w.pid
                    grants_append((w, origin, cands))
                else:
                    losers_append(req)
                continue
            avail = [c for c in cands if occ[c] == FREE]
            if not avail:
                losers_append(req)
                continue
            pick = avail[0] if len(avail) == 1 else self._select(avail)
            occ[pick] = w.pid
            grants_append((w, origin, pick))

    def _header_request(self, w: Worm) -> tuple:
        """The in-network request of *w*'s routing-ready header.

        ``(w, None, ())`` asks for the destination's consumption port;
        otherwise ``(w, head, cands)`` with a lone candidate stored as
        the bare channel id (the arbitration discriminates on the type
        instead of measuring the tuple).
        """
        head = w.chain[0]
        dst = w.dst
        if self._sink[head] == dst:
            return (w, None, ())
        cands = self.decision_cache.next_row(dst)[head]
        return (w, head, cands[0] if len(cands) == 1 else cands)

    def _select(self, avail: List[int]) -> int:
        """Pick one free candidate uniformly at random (the paper's rule:
        "one of them is selected randomly")."""
        if len(avail) == 1:
            return avail[0]
        return avail[int(self.rng.integers(len(avail)))]


def simulate(
    routing: RoutingFunction,
    config: SimulationConfig,
    traffic: Optional[TrafficPattern] = None,
) -> SimulationStats:
    """Run one simulation and return its measurement-window statistics."""
    return WormholeSimulator(routing, config, traffic).run()
