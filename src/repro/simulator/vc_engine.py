"""Virtual-channel wormhole engine.

The paper notes DOWN/UP "can be directly applied to arbitrary topology
with (or without) any virtual channel", and its related work (Silla &
Duato [8]) builds high-performance irregular routing on virtual
channels.  This engine extends the base wormhole model with ``num_vcs``
virtual channels per physical channel:

* every physical channel direction carries ``V`` independent
  flit buffers (one per VC); a worm holds a chain of *virtual*
  channels;
* **link multiplexing**: at most one flit enters, and at most one flit
  leaves, each *physical* channel per clock, shared by its VCs
  (arbitrated randomly — the whole point of VCs is that a blocked worm
  no longer monopolises the wire);
* injection and consumption stay single-ported per switch, as in the
  base engine.

Queues, the clock driver and its watchdogs, packet generation, the
fault hooks, the wait-for analysis and the fast path's header
arbitration come from :class:`~repro.simulator.engine.SimulatorCore`;
this module holds only the VC resource model, its header requests and
its two step functions.

Two VC allocation policies (:class:`VcPolicy`):

``replicate``
    Every VC follows the same turn-restricted routing function.  The
    VC dependency graph is the V-fold copy of the physical channel
    dependency graph, so acyclicity — hence deadlock freedom — is
    inherited; VCs only reduce head-of-line blocking.

``duato``
    Duato-style two-layer routing built by
    :func:`repro.routing.duato.build_duato_routing`: VCs ``1..V-1`` are
    *adaptive* (any minimal physical next hop, no turn restriction) and
    VC ``0`` is the *escape* layer following a verified deadlock-free
    routing (entered fresh at the current switch; once on escape a worm
    stays on escape).  Deadlock freedom is Duato's argument: a blocked
    worm always has its escape candidate, and the escape layer alone is
    acyclic and drains.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.routing.base import RoutingFunction
from repro.routing.duato import DuatoRouting
from repro.simulator.config import BIT_EXACT_ENGINES, SimulationConfig
from repro.simulator.engine import FREE, SimulatorCore
from repro.simulator.fastpath import DecisionCache
from repro.simulator.packet import Worm
from repro.simulator.stats import SimulationStats
from repro.simulator.traffic import TrafficPattern


class VirtualChannelSimulator(SimulatorCore):
    """Cycle-accurate wormhole simulation with virtual channels.

    Parameters
    ----------
    routing:
        A :class:`RoutingFunction` (``replicate`` policy) or a
        :class:`~repro.routing.duato.DuatoRouting` (``duato`` policy —
        selected automatically by type).
    config:
        Shared timing/workload parameters (same dataclass as the base
        engine).
    num_vcs:
        Virtual channels per physical channel (>= 1; ``1`` makes this
        engine behaviourally equivalent to the base engine up to
        arbitration randomness).
    """

    def __init__(
        self,
        routing,
        config: SimulationConfig,
        num_vcs: int = 2,
        traffic: Optional[TrafficPattern] = None,
    ) -> None:
        if num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        self.duato = isinstance(routing, DuatoRouting)
        if self.duato and num_vcs < 2:
            raise ValueError("duato routing needs at least 2 virtual channels")
        topology = routing.escape.topology if self.duato else routing.topology
        super().__init__(
            routing, topology, config, traffic, topology.num_channels * num_vcs
        )
        self.V = num_vcs
        #: occupancy per *virtual* channel (worm pid or FREE)
        self.vc_occ = self._chain_occ
        #: per-epoch routing-decision caches over *physical* channels
        #: (dead channels pre-filtered); the ``duato`` policy keeps a
        #: second cache for its escape layer
        self._escape_cache: Optional[DecisionCache] = None
        if self.duato:
            self.decision_cache = DecisionCache(routing.adaptive, self.dead_channels)
            self._escape_cache = DecisionCache(routing.escape, self.dead_channels)
        else:
            self.decision_cache = DecisionCache(routing, self.dead_channels)
        #: engine selection: the VC engine runs only the bit-exact
        #: engines — its body commits are RNG-ordered under shared
        #: per-link budgets, inherently sequential, so there is no
        #: batched body phase to relax
        if self.engine_name not in BIT_EXACT_ENGINES:
            raise ValueError(
                f"the VC engine runs only the bit-exact engines "
                f"{BIT_EXACT_ENGINES}, not {self.engine_name!r}"
            )
        self._move_impl = (
            self._move if self.engine_name == "reference" else self._move_fast
        )

    def attach_faults(self, runtime) -> None:
        """Install a :class:`repro.faults.FaultRuntime` on this engine.

        Only the ``replicate`` VC policy is supported: the Duato escape
        layer's two-routing structure has no remapped swap path yet.
        """
        if self.duato:
            raise ValueError(
                "fault injection supports the replicate VC policy only"
            )
        super().attach_faults(runtime)

    # -- per-engine hooks of the shared core --------------------------------
    def _attach_routing(self, routing) -> None:
        self.duato = isinstance(routing, DuatoRouting)
        if self.duato:
            self.decision_cache.attach(routing.adaptive)
            if self._escape_cache is None:
                self._escape_cache = DecisionCache(
                    routing.escape, self.dead_channels
                )
            else:
                self._escape_cache.attach(routing.escape)
        else:
            self.decision_cache.attach(routing)

    def _invalidate_decisions(self) -> None:
        if self._escape_cache is not None:
            self._escape_cache.invalidate()
        super()._invalidate_decisions()

    def _wake_worm(self, w: Worm) -> None:
        """Rescan *w* after a fault hook rewrote its buffer state."""
        w.quiet = False

    # -- vc id helpers ---------------------------------------------------
    def phys(self, vcid: int) -> int:
        """Physical channel of a virtual channel id."""
        return vcid // self.V

    def vcid(self, cid: int, vc: int) -> int:
        """Virtual channel id of (physical channel, vc index)."""
        return cid * self.V + vc

    def free_vcs(self, cid: int, classes: range) -> List[int]:
        """Free virtual channels of physical *cid* within *classes*."""
        if cid in self.dead_channels:
            return []
        return [
            self.vcid(cid, v)
            for v in classes
            if self.vc_occ[self.vcid(cid, v)] == FREE
        ]

    # -- candidate resources ----------------------------------------------
    def _header_candidates(self, w: Worm, head_vc: Optional[int]) -> List[int]:
        """Admissible free virtual channels for a header move.

        ``head_vc`` is None for injection.  For the ``duato`` policy the
        adaptive classes come from the minimal unrestricted next hops
        and the escape class from the escape routing (entered fresh);
        worms already on escape (vc index 0) stay on escape.
        """
        if not self.duato:
            r: RoutingFunction = self.routing
            if head_vc is None:
                phys_cands = r.first_hops[w.dst][w.src]
            else:
                phys_cands = r.next_hops[w.dst][self.phys(head_vc)]
            out: List[int] = []
            for c in phys_cands:
                out.extend(self.free_vcs(c, range(self.V)))
            return out

        d: DuatoRouting = self.routing
        node = w.src if head_vc is None else self._sink[self.phys(head_vc)]
        on_escape = head_vc is not None and head_vc % self.V == 0
        out = []
        if not on_escape:
            # adaptive classes 1..V-1 on any minimal physical next hop
            if head_vc is None:
                phys_adapt = d.adaptive.first_hops[w.dst][node]
            else:
                phys_adapt = d.adaptive.next_hops[w.dst][self.phys(head_vc)]
            for c in phys_adapt:
                out.extend(self.free_vcs(c, range(1, self.V)))
        # escape class 0, entered fresh at the current switch (or the
        # continuation of the escape path when already on it)
        if on_escape:
            esc_cands = d.escape.next_hops[w.dst][self.phys(head_vc)]
        else:
            esc_cands = d.escape.first_hops[w.dst][node]
        for c in esc_cands:
            if c in self.dead_channels:
                continue
            ev = self.vcid(c, 0)
            if self.vc_occ[ev] == FREE:
                out.append(ev)
        return out

    def _candidate_vcs(self, w: Worm, head_vc: Optional[int]) -> Tuple[int, ...]:
        """Every admissible VC for *w*'s header, free or not.

        ``head_vc`` is None for injection.  Dead channels are excluded
        (the decision caches pre-filter them) and the order is
        :meth:`_header_candidates`' — under ``duato`` the adaptive
        classes first, then the escape class.
        """
        V = self.V
        dst = w.dst
        if head_vc is None:
            node = w.src
            phys = self.decision_cache.first_row(dst)[node]
        else:
            p_head = head_vc // V
            node = self._sink[p_head]
            if self.duato and head_vc % V == 0:  # on escape: stay on it
                return tuple(c * V for c in self._escape_cache.next_row(dst)[p_head])
            phys = self.decision_cache.next_row(dst)[p_head]
        if not self.duato:
            return tuple(vc for c in phys for vc in range(c * V, c * V + V))
        adaptive = tuple(vc for c in phys for vc in range(c * V + 1, c * V + V))
        return adaptive + tuple(c * V for c in self._escape_cache.first_row(dst)[node])

    def _header_request(self, w: Worm) -> tuple:
        """The in-network request of *w*'s routing-ready header:
        ``(w, None, ())`` for the destination's consumption port,
        otherwise ``(w, head_vc, candidate VCs)``."""
        head = w.chain[0]
        if self._sink[head // self.V] == w.dst:
            return (w, None, ())
        return (w, head, self._candidate_vcs(w, head))

    # -- internals ----------------------------------------------------------
    def _move(self) -> bool:
        """One clock of flit movement — the seed *reference* implementation.

        Kept verbatim as the behavioural oracle: the fast path
        (:meth:`_move_fast`) must replay this function's decisions —
        every RNG draw, every grant, every committed flit — byte for
        byte, which the differential golden suite enforces.  Returns
        whether anything moved: every grant and every committed flit
        spends a physical-link budget.
        """
        cap = self.config.buffer_flits
        V = self.V
        clock = self.clock
        stats = self.stats
        occ = self.vc_occ

        # physical-channel receive/send budgets for this clock
        recv_used: set = set()
        send_used: set = set()

        # -- header grants (consume budgets first) ----------------------
        requests: List[Tuple[Worm, Optional[int]]] = []
        for w in self.active:
            if w.consuming or not w.chain or w.head_ready_at > clock:
                continue
            head = w.chain[0]
            if self._sink[self.phys(head)] == w.dst:
                requests.append((w, -2))  # consumption
            else:
                requests.append((w, head))
        for s, q in enumerate(self.queues):
            if q and self.injection_occ[s] == FREE and q[0].head_ready_at <= clock:
                requests.append((q[0], None))

        hdr_latency = self.config.header_delay + self.config.link_delay
        granted_consume: set = set()
        shifted: set = set()
        if requests:
            order = self.rng.permutation(len(requests))
            for idx in order:
                w, origin = requests[idx]
                if origin == -2:
                    if (
                        w.dst not in granted_consume
                        and self.consume_occ[w.dst] == FREE
                    ):
                        granted_consume.add(w.dst)
                        self.consume_occ[w.dst] = w.pid
                        w.consuming = True
                        w.t_head_arrival = clock
                        w.chain_flits[0] -= 1
                        w.consumed += 1
                        # the header flit leaves its physical channel
                        send_used.add(self.phys(w.chain[0]))
                        stats.on_consume(w.dst)
                    continue
                head_vc = origin  # None for injection
                avail = [
                    vc
                    for vc in self._header_candidates(w, head_vc)
                    if self.phys(vc) not in recv_used
                ]
                if head_vc is not None and self.phys(head_vc) in send_used:
                    continue
                if not avail:
                    continue
                pick = (
                    avail[int(self.rng.integers(len(avail)))]
                    if len(avail) > 1
                    else avail[0]
                )
                recv_used.add(self.phys(pick))
                occ[pick] = w.pid
                stats.on_channel_entry(self.phys(pick))
                if head_vc is None:  # injection
                    self.injection_occ[w.src] = w.pid
                    self.queues[w.src].popleft()
                    self.active.append(w)
                    w.t_inject = clock
                    w.chain = [pick]
                    w.chain_flits = [1]
                    w.flits_at_source -= 1
                    w.hops = 1
                    stats.on_inject(w.src)
                    if w.flits_at_source == 0:
                        self.injection_occ[w.src] = FREE
                else:
                    send_used.add(self.phys(head_vc))
                    w.chain.insert(0, pick)
                    w.chain_flits.insert(0, 1)
                    w.chain_flits[1] -= 1
                    w.hops += 1
                    shifted.add(w.pid)
                w.head_ready_at = clock + hdr_latency

        # -- body moves under remaining budgets --------------------------
        plans: List[Tuple[Worm, str, int]] = []
        for w in self.active:
            cf = w.chain_flits
            off = 1 if w.pid in shifted else 0
            if w.consuming and cf and cf[0] > 0 and w.pid not in shifted:
                # grant above already consumed this clock for new consumers
                if not (w.t_head_arrival == clock):
                    plans.append((w, "consume", 0))
            # adjacent advances: use pre-shift snapshot semantics by
            # skipping the pair the header just created (index 0 post
            # shift); start-of-clock state for the rest is unchanged
            for i in range(off, len(cf) - 1):
                if cf[i + 1] > 0 and cf[i] < cap:
                    plans.append((w, "advance", i))
            if w.flits_at_source > 0 and cf and cf[-1] < cap:
                plans.append((w, "feed", len(cf) - 1))

        if plans:
            order = self.rng.permutation(len(plans))
            for idx in order:
                w, kind, i = plans[idx]
                cf = w.chain_flits
                if kind == "consume":
                    if cf[0] > 0 and self.phys(w.chain[0]) not in send_used:
                        send_used.add(self.phys(w.chain[0]))
                        cf[0] -= 1
                        w.consumed += 1
                        stats.on_consume(w.dst)
                elif kind == "advance":
                    down_p = self.phys(w.chain[i])
                    up_p = self.phys(w.chain[i + 1])
                    if (
                        down_p not in recv_used
                        and up_p not in send_used
                        and cf[i + 1] > 0
                        and cf[i] < cap
                    ):
                        recv_used.add(down_p)
                        send_used.add(up_p)
                        cf[i + 1] -= 1
                        cf[i] += 1
                        stats.on_channel_entry(down_p)
                else:  # feed
                    j = len(cf) - 1
                    tail_p = self.phys(w.chain[j])
                    if tail_p not in recv_used and cf[j] < cap:
                        recv_used.add(tail_p)
                        w.flits_at_source -= 1
                        cf[j] += 1
                        stats.on_inject(w.src)
                        stats.on_channel_entry(tail_p)
                        if w.flits_at_source == 0:
                            self.injection_occ[w.src] = FREE

        # -- releases and completions ------------------------------------
        finished: List[Worm] = []
        for w in self.active:
            while (
                w.chain
                and w.flits_at_source == 0
                and w.chain_flits[-1] == 0
                and not (len(w.chain) == 1 and not w.consuming)
            ):
                vc = w.chain.pop()
                w.chain_flits.pop()
                occ[vc] = FREE
            if w.consuming and w.consumed == w.length:
                w.t_done = clock
                self.consume_occ[w.dst] = FREE
                finished.append(w)
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
        if finished:
            done = {w.pid for w in finished}
            self.active = [w for w in self.active if w.pid not in done]
            for w in finished:
                self.worms.pop(w.pid, None)
        return bool(recv_used or send_used)

    def _move_fast(self) -> bool:
        """One clock of flit movement — the fast-path implementation.

        Byte-identical to :meth:`_move` for any fixed seed (same
        request and plan lists, same grants, same RNG draws in the same
        order), organised around the same active-set machinery as the
        base engine's fast path:

        * header arbitration is the shared core's (see
          :class:`~repro.simulator.engine.SimulatorCore`): requests
          are kept in active order, and a request that was not granted
          is parked on the waiter lists of all its candidate VCs (or its
          destination's consumption port) once every one of them is
          busy, until phase 4 or a fault hook releases one.  A request
          that lost only to this clock's link budgets (``send_used`` on
          its head's physical channel, ``recv_used`` on its free
          candidates) stays unparked; injecting sources block on the
          wheel by the same rule;
        * requests list their candidate VCs, expanded once from the
          per-epoch decision caches (adaptive + escape under ``duato``);
          only the per-clock free-VC filtering stays in the grant loop;
        * idle sources live on the injection event wheel;
        * body plans are built over the non-quiet worms only.  Plan
          *order* must match the reference exactly (commits contend for
          the shared physical-link budgets), so the scan keeps active
          order and merely skips parked worms — a quiet worm contributes
          zero plans by construction, leaving the list identical;
        * releases/completions visit only worms that could have moved
          this clock (the non-quiet ones), preserving active order so
          the delivery sample sequences stay byte-identical.
        """
        if self._arb_stale:
            self._rebuild_arbitration()
        cap = self._cap
        V = self.V
        clock = self.clock
        stats = self.stats
        occ = self.vc_occ
        active = self.active
        rec = stats.active
        ch_flits = stats.channel_flits
        consumed_flits = stats.consumed_flits
        injected_flits = stats.injected_flits
        rng = self.rng

        # physical-channel receive/send budgets for this clock
        recv_used: set = set()
        send_used: set = set()

        # -- header requests on start-of-clock state --------------------
        reqs = self._reqs
        keys = self._req_keys
        ripening = self._ripening
        if ripening and ripening[0][0] <= clock:
            self._ripen(clock)
        # injection requests from the event wheel, in ascending source
        # order (matching the reference's full enumerate scan)
        wheel = self._wheel
        timers = wheel._timers
        if timers and timers[0][0] <= clock:
            wheel.advance(clock)
        inj_reqs: List[tuple] = []
        if wheel.pending:
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
                req = w.hdr_req = (w, -1, self._candidate_vcs(w, None))
                w.parked = False
                inj_reqs.append(req)

        # -- header grants, committed inline under the link budgets -----
        hdr_latency = self._hdr_latency
        consume_occ = self.consume_occ
        shifted: set = set()
        losers: List[tuple] = []
        for req in self._visit_order(inj_reqs):
            w, origin, cands = req
            if origin is None:  # consumption
                dst = w.dst
                if consume_occ[dst] != FREE:
                    losers.append(req)
                    continue
                consume_occ[dst] = w.pid
                i = bisect_left(keys, w.seq)
                del keys[i]
                del reqs[i]
                w.quiet = False
                w.hdr_req = None
                w.consuming = True
                w.t_head_arrival = clock
                w.chain_flits[0] -= 1
                w.consumed += 1
                # the header flit leaves its physical channel
                send_used.add(w.chain[0] // V)
                if rec:
                    consumed_flits[dst] += 1
                continue
            if origin >= 0:
                p_head = origin // V
                if p_head in send_used:
                    losers.append(req)
                    continue
            # admissible free VCs in reference order (dead physical
            # channels are pre-filtered by the cached rows)
            avail = [
                vc for vc in cands if occ[vc] == FREE and vc // V not in recv_used
            ]
            if not avail:
                losers.append(req)
                continue
            pick = avail[int(rng.integers(len(avail)))] if len(avail) > 1 else avail[0]
            p_pick = pick // V
            recv_used.add(p_pick)
            occ[pick] = w.pid
            w.hdr_req = None
            w.head_ready_at = clock + hdr_latency
            ripening.append((w.head_ready_at, w))
            if rec:
                ch_flits[p_pick] += 1
            if origin == -1:  # injection
                self.injection_occ[w.src] = w.pid
                self.queues[w.src].popleft()
                active.append(w)
                w.seq = self._next_seq
                self._next_seq += 1
                w.t_inject = clock
                w.chain = [pick]
                w.chain_flits = [1]
                w.flits_at_source -= 1
                w.hops = 1
                if rec:
                    injected_flits[w.src] += 1
                if w.flits_at_source == 0:
                    self.injection_occ[w.src] = FREE
                    wheel.wake(w.src)
            else:  # in-network hop
                i = bisect_left(keys, w.seq)
                del keys[i]
                del reqs[i]
                w.quiet = False
                send_used.add(p_head)
                w.chain.insert(0, pick)
                w.chain_flits.insert(0, 1)
                w.chain_flits[1] -= 1
                w.hops += 1
                shifted.add(w.pid)
        # park a loser only once every resource it asks for is busy; one
        # that lost only a link budget is visited again next clock
        parked: List[tuple] = []
        for req in losers:
            if req[1] is None or all(occ[vc] != FREE for vc in req[2]):
                parked.append(req)
            elif req[1] != -1:
                self._hot.append(req)
        if parked:
            self._park(parked)

        # -- body plans over the non-quiet worms ------------------------
        # kinds: 0 = consume, 1 = advance, 2 = feed.  Quiet worms have
        # no possible move until their next grant, so skipping them
        # leaves the plan list (and hence the permutation and every
        # budget-contended commit) identical to the reference's.
        plans: List[tuple] = []
        plans_append = plans.append
        visited = 0
        for w in active:
            if w.quiet:
                continue
            visited += 1
            cf = w.chain_flits
            pid = w.pid
            has_plans = False
            if pid in shifted:
                off = 1
            else:
                off = 0
                if w.consuming and cf and cf[0] > 0 and w.t_head_arrival != clock:
                    plans_append((w, 0, 0))
                    has_plans = True
            for i in range(off, len(cf) - 1):
                if cf[i + 1] > 0 and cf[i] < cap:
                    plans_append((w, 1, i))
                    has_plans = True
            if w.flits_at_source > 0 and cf and cf[-1] < cap:
                plans_append((w, 2, len(cf) - 1))
                has_plans = True
            if (
                not has_plans
                and pid not in shifted
                and w.t_head_arrival != clock
                and w.t_inject != clock
                # only a drain truncation leaves an empty tail VC (or a
                # fully drained fragment) here: the release loop below
                # must still visit it although nothing moved
                and not (w.flits_at_source == 0 and cf and cf[-1] == 0)
            ):
                # nothing can move until this worm's next grant
                w.quiet = True
        if rec:
            stats.on_sched(visited, len(active))

        # -- commit body moves under the remaining budgets --------------
        if plans:
            order = rng.permutation(len(plans)).tolist()
            for plan in map(plans.__getitem__, order):
                w, kind, i = plan
                cf = w.chain_flits
                if kind == 0:  # consume
                    if cf[0] > 0:
                        hp = w.chain[0] // V
                        if hp not in send_used:
                            send_used.add(hp)
                            cf[0] -= 1
                            w.consumed += 1
                            if rec:
                                consumed_flits[w.dst] += 1
                elif kind == 1:  # advance
                    down_p = w.chain[i] // V
                    up_p = w.chain[i + 1] // V
                    if (
                        down_p not in recv_used
                        and up_p not in send_used
                        and cf[i + 1] > 0
                        and cf[i] < cap
                    ):
                        recv_used.add(down_p)
                        send_used.add(up_p)
                        cf[i + 1] -= 1
                        cf[i] += 1
                        if rec:
                            ch_flits[down_p] += 1
                else:  # feed
                    j = len(cf) - 1
                    tail_p = w.chain[j] // V
                    if tail_p not in recv_used and cf[j] < cap:
                        recv_used.add(tail_p)
                        w.flits_at_source -= 1
                        cf[j] += 1
                        if rec:
                            injected_flits[w.src] += 1
                            ch_flits[tail_p] += 1
                        if w.flits_at_source == 0:
                            self.injection_occ[w.src] = FREE
                            wheel.wake(w.src)

        # -- releases and completions (touched worms only) --------------
        # only non-quiet worms can have changed state this clock, and
        # iterating the active list keeps the delivery emission order
        # identical to the reference's.  Each release wakes the requests
        # parked on that resource.
        finished: List[Worm] = []
        waiters = self._waiters
        n_vc = len(occ)
        for w in active:
            if w.quiet:
                continue
            while (
                w.chain
                and w.flits_at_source == 0
                and w.chain_flits[-1] == 0
                and not (len(w.chain) == 1 and not w.consuming)
            ):
                vc = w.chain.pop()
                w.chain_flits.pop()
                occ[vc] = FREE
                if waiters[vc]:
                    self._wake_requests(vc)
            if w.consuming and w.consumed == w.length:
                w.t_done = clock
                consume_occ[w.dst] = FREE
                if waiters[n_vc + w.dst]:
                    self._wake_requests(n_vc + w.dst)
                finished.append(w)
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
        if finished:
            done = {w.pid for w in finished}
            self.active = [w for w in self.active if w.pid not in done]
            for w in finished:
                self.worms.pop(w.pid, None)
        return bool(recv_used or send_used)

    def _wait_candidates(self, w: Worm, head_vc: int) -> List[int]:
        """All candidate VCs (free or not) for the wait-for analysis.

        Under ``duato`` a worm off the escape layer also waits on its
        escape candidates, so a free or live escape VC keeps it live.
        """
        if not self.duato:
            r: RoutingFunction = self.routing
            out = []
            for c in r.next_hops[w.dst][self.phys(head_vc)]:
                out.extend(self.vcid(c, v) for v in range(self.V))
            return out
        d: DuatoRouting = self.routing
        node = self._sink[self.phys(head_vc)]
        out = []
        if head_vc % self.V != 0:
            for c in d.adaptive.next_hops[w.dst][self.phys(head_vc)]:
                out.extend(self.vcid(c, v) for v in range(1, self.V))
            for c in d.escape.first_hops[w.dst][node]:
                out.append(self.vcid(c, 0))
        else:
            for c in d.escape.next_hops[w.dst][self.phys(head_vc)]:
                out.append(self.vcid(c, 0))
        return out


def simulate_vc(
    routing,
    config: SimulationConfig,
    num_vcs: int = 2,
    traffic: Optional[TrafficPattern] = None,
) -> SimulationStats:
    """One-shot VC simulation (mirrors :func:`repro.simulator.simulate`)."""
    return VirtualChannelSimulator(routing, config, num_vcs, traffic).run()
