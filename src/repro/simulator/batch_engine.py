"""The fully batched step implementation (relaxed statistical contract).

Selected with ``SimulationConfig(engine="batch")``.  A bit-exact
engine must replay the reference's arbitration RNG stream draw for
draw — rebuild the Python request list on dirty clocks, permute it
with the *shared* engine RNG and walk the claims sequentially — and
draw one traffic Bernoulli vector per clock.  Batching only the body
phase around that replay buys about 1.1x, because the per-clock
request scan and traffic draw cost as much as the scalar engines'
whole step.

The batch engine drops bit-level replay and keeps only the *process*:

* **Header requests from two arrays.**  One request slot per channel
  (parked headers) and per source (cached injections): ``ready_at[i]``
  is the clock at which slot ``i`` may (re)enter arbitration (a
  +inf-like sentinel everywhere else), and ``tgt[i]`` is its
  already-classified grant target — the unique admissible next channel,
  the destination's consumption port (addressed past the channel
  range), or a permanently-occupied dead slot for multi-candidate and
  routeless heads.  Both are maintained at grant commits, where the
  head position changes, so the per-clock request phase is one
  comparison, one ``nonzero`` and one gather — no per-worm scan, no
  classification work.
* **Release subscriptions.**  A due request whose target is occupied
  leaves the request set entirely and subscribes to the target's
  release; the drain phase re-arms subscribers for the following clock
  — the clock at which the scalar engines would first re-grant them.
  Persistent blocking (the common state under load) costs nothing per
  clock, and the arbitration working set stays proportional to the
  *event* rate, not the worm population.
* **Key arbitration.**  Contending requests draw i.i.d. uniform keys
  from a dedicated arbitration stream; each free target goes to its
  minimum-key requester (one argsort of ``target + key``, keys in
  [0, 1)).  Distributionally identical to the reference's
  permutation-order claiming — both pick a uniformly random winner per
  contended resource — without materializing the permutation.  Channel
  hops, injections and consume-port acquisitions all resolve in the
  same pass over one extended occupancy array; only the rare
  multi-candidate adaptive requests fall back to a scalar claim loop
  in key order, behind a numpy due/any-candidate-free prefilter.
* **Incremental body active set.**  The flit-streaming phase operates
  on the set of slots actually holding flits, maintained across clocks
  (grant commits append, drained slots compact lazily) instead of
  full-width masks over every channel.
* **Open-loop traffic, precomputed.**  The reference draws one
  Bernoulli vector per clock.  Per source, inter-arrival gaps of that
  process are i.i.d. Geometric(p), so the whole arrival schedule is
  precomputed in bulk from per-source child streams and merged into
  one sorted event list walked by a pointer.
* **Grant-time counter attribution.**  Flit counters
  (``channel_flits``/``injected_flits``/``consumed_flits``) are
  credited with the packet's full length when the header is granted
  the resource, not flit by flit as the body streams.  Cumulative
  totals agree with the bit-exact engines up to window-boundary and
  in-flight-tail effects, so the body phase never touches them.

**Contract.**  Results are deterministic per seed (same config, same
call sequence, same platform numpy), but they are *not* byte-identical
to the bit-exact engines: arbitration and traffic consume different
RNG streams.  Equivalence is certified *distributionally* by
:mod:`repro.simulator.equivalence` (paired CI + Kolmogorov-Smirnov
gate against the bit-exact oracles), and batch results carry a
``statistical_fingerprint`` rather than a ``canonical_digest`` —
ledgers must never mix the two (see
:func:`repro.experiments.ledger.unit_digest`).

**Envelope.**  The engine runs only what the gate certifies: the
paper's one traffic model (random selection among free candidates,
fixed-length packets, unbounded source queues) without live faults.
``attach_faults`` refuses a fault schedule, so nothing outside the
engine ever rewrites worm state mid-run.  Flit state lives in an
:class:`~repro.simulator.vec_state.ArrayState` whose arrays are
authoritative for flit counts; the worm objects' counts are stale
until :meth:`BatchCore.sync` writes them back, which the stall and
deadlock reports and the invariant checks do first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.engine import Worm
from repro.simulator.vec_state import FREE, ArrayState
from repro.util.rng import as_generator, derive_seed

__all__ = ["BatchCore"]

#: stream-derivation keys: arbitration, per-source arrival gaps, and
#: packet shaping (destination), all split from the config
#: seed so no stream can alias another or the engine's own ``sim.rng``
_ARB_KEY = 0xB7C4_A21B
_GAP_KEY = 0x5EED_6A90
_PKT_KEY = 0x9ACC_E55E

#: candidate-table markers (values >= 0 are the single next channel)
_NONE = -1
_MULTI = -2
_CONSUME = -3

#: ``ready_at`` sentinel: never due / blocked-and-subscribed
_BIG = np.iinfo(np.int64).max // 2

#: permanent occupant of the extended-occupancy dead slot
_NEVER = -2

#: arrival gaps are drawn in blocks of this many per source and cumsum'd
_GAP_BLOCK = 64

#: request-set size up to which arbitration runs in plain Python —
#: numpy dispatch overhead dominates below this, vector wins above
_SMALL_ARB = 24

#: diagnostics that read per-worm flit state: each syncs the objects first
_SYNC_READONLY_HOOKS = ("_stall_report", "_deadlock_report")


class BatchCore:
    """Per-simulator batched step state; ``move`` is the step impl."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.state = st = ArrayState(
            sim.topology.num_channels, sim.topology.n, sim.config.buffer_flits
        )
        self._install_hooks(sim)
        # live flit counters are int64 arrays under this engine, as its
        # readers expect (grant commits' single-element += works on
        # either; finalize copies them)
        stats = sim.stats
        stats.channel_flits = np.zeros(len(stats.channel_flits), dtype=np.int64)
        stats.consumed_flits = np.zeros(len(stats.consumed_flits), dtype=np.int64)
        stats.injected_flits = np.zeros(len(stats.injected_flits), dtype=np.int64)
        C, n = st.C, st.S
        self._C = C
        #: index of the extended-occupancy dead slot (see ``_occ_ext``)
        self._dead_slot = C + n
        #: one request slot per channel ([0, C), parked headers) and per
        #: source ([C, C+n), cached injections): the clock at which the
        #: request may (re)enter arbitration, _BIG when there is none —
        #: *or when it is blocked and subscribed to its target's release
        #: through _subs*, so persistent blocking costs nothing per clock
        self._ready_at = np.full(C + n, _BIG, dtype=np.int64)
        #: grant target of each request slot, in extended occupancy
        #: space: [0, C) channel, [C, C+n) consume port, C+n the dead
        #: slot (multi-candidate or routeless heads)
        self._tgt = np.full(C + n, self._dead_slot, dtype=np.int64)
        #: release subscriptions: extended-occupancy slot -> request
        #: slots to re-arm (ready next clock) when the occupant leaves
        self._subs: Dict[int, List[int]] = {}
        #: encoded candidate table, one row per destination (see module
        #: docstring); rows built lazily, dropped on decision epochs
        self._cand = np.full(n * C, _NONE, dtype=np.int64)
        self._cand_built = np.zeros(n, dtype=bool)
        self._cand_epoch = -1
        #: channels sinking at each switch (consume-marker scatter)
        sink = np.fromiter(sim._sink, np.int64, count=C)
        self._sink_channels = [(sink == d).nonzero()[0] for d in range(n)]
        #: extended occupancy: [0, C) aliases the array state's channel
        #: mirror (the slice below is a *view*), [C, C+n) mirrors the
        #: consumption ports, [C+n] is a permanently-occupied dead slot — one gather answers "is
        #: this grant target free" for every request kind at once
        self._occ_ext = np.full(C + n + 1, FREE, dtype=np.int64)
        self._occ_ext[:C] = st.occ
        self._occ_ext[self._dead_slot] = _NEVER
        st.occ = self._occ_ext[:C]
        #: parked heads with several admissible next channels (rare in
        #: down/up routing); they claim through the scalar fallback
        self._multi_heads: set = set()
        #: (decision epoch, code of every decision-cache candidate set:
        #: its lone channel, _MULTI or _NONE), built on first use
        self._set_code: Tuple[int, np.ndarray] = (-1, np.empty(0, np.int64))
        #: sources with a cached request (single or multi), for bulk
        #: invalidation on epoch changes
        self._inj_cached: set = set()
        #: cached multi-candidate injection requests (rare), plus the
        #: flattened candidate arrays for the per-clock free prefilter
        self._inj_multi: Dict[int, tuple] = {}
        self._im_dirty = False
        self._im_srcs: List[int] = []
        self._im_cands = np.empty(0, dtype=np.int64)
        self._im_off = np.empty(0, dtype=np.int64)
        #: body-phase active set: flit slots that may hold flits, kept
        #: incrementally (grant commits append, zero hits trigger a
        #: compaction next clock) so the body never scans the full array
        self._act = np.empty(0, dtype=np.int64)
        self._act_add: List[int] = []
        self._act_filter = False
        #: flattened free-candidate + due prefilter over the
        #: multi-candidate parked heads, mirroring the injection one
        self._mh_info: Dict[int, tuple] = {}
        self._mh_dirty = False
        self._mh_arr = np.empty(0, dtype=np.int64)
        self._mh_due = np.empty(0, dtype=np.int64)
        self._mh_cands = np.empty(0, dtype=np.int64)
        self._mh_off = np.empty(0, dtype=np.int64)

        seed = sim.config.seed
        if seed is None:
            # unseeded runs: draw one OS-entropy base, then derive the
            # streams from it so they stay mutually independent
            seed = int(as_generator(None).integers(1 << 62))
        self._arb_rng = as_generator(derive_seed(seed, _ARB_KEY))
        self._pkt_rng = as_generator(derive_seed(seed, _PKT_KEY))
        self._src_rngs = [
            as_generator(derive_seed(seed, _GAP_KEY, s)) for s in range(n)
        ]

        # precomputed open-loop traffic: merged (clock, src) event list
        self._gen_p = sim._gen_p
        self._gen_clks: List[int] = []
        self._gen_srcs: List[int] = []
        self._gen_ptr = 0
        self._gen_base = [0] * n  # per-source cumulative gap sum
        self._gen_horizon = -1
        if self._gen_p > 0.0:
            self._extend_traffic(sim.config.total_clocks)
        else:
            self._gen_horizon = 1 << 62
        sim._generate_packets = self._generate_batched

    # ------------------------------------------------------------------
    # object sync
    # ------------------------------------------------------------------
    def _install_hooks(self, sim) -> None:
        """Shadow the engine's object-reading reports with sync wrappers."""
        core = self

        def wrap_readonly(orig):
            def hook(*args, **kwargs):
                core.sync()
                return orig(*args, **kwargs)

            return hook

        for name in _SYNC_READONLY_HOOKS:
            setattr(sim, name, wrap_readonly(getattr(sim, name)))

    def sync(self) -> None:
        """Write array flit counts back onto the Worm objects."""
        self.state.sync_worms(self.sim)

    # ------------------------------------------------------------------
    # traffic precomputation
    # ------------------------------------------------------------------
    def _extend_traffic(self, until: int) -> None:
        """Extend every source's arrival schedule through clock *until*.

        Per source the Bernoulli(p)-per-clock process is drawn as
        Geometric(p) inter-arrival gaps in blocks and cumsum'd; each
        source continues its own child stream, so extending the horizon
        never perturbs another source's arrivals.  Newly drawn events
        are merged with the not-yet-fired tail (a source may have
        overshot the previous horizon) and the pointer restarts on the
        re-sorted list.
        """
        p = self._gen_p
        parts_c = []
        parts_s = []
        for s, rng in enumerate(self._src_rngs):
            b = self._gen_base[s]
            while b <= until:
                cum = b + np.cumsum(rng.geometric(p, size=_GAP_BLOCK))
                parts_c.append(cum - 1)  # arrival clocks
                parts_s.append(np.full(cum.size, s, dtype=np.int64))
                b = int(cum[-1])
            self._gen_base[s] = b
        tail_c = np.asarray(self._gen_clks[self._gen_ptr :], dtype=np.int64)
        tail_s = np.asarray(self._gen_srcs[self._gen_ptr :], dtype=np.int64)
        allc = np.concatenate([tail_c] + parts_c)
        alls = np.concatenate([tail_s] + parts_s)
        order = np.lexsort((alls, allc))
        self._gen_clks = allc[order].tolist()
        self._gen_srcs = alls[order].tolist()
        self._gen_ptr = 0
        self._gen_horizon = until

    def _fire_arrival(self, s: int, clock: int) -> None:
        """Fire one precomputed arrival at source *s*.

        The destination is drawn from the packet-shaping stream in
        deterministic fire order.  Shared by the sequential generation
        loop and the replica driver — per replica, both fire the same
        events in the same order, so the packet-shaping stream is
        consumed identically.
        """
        sim = self.sim
        dst = sim.traffic.destination(s, self._pkt_rng)
        w = Worm(sim._next_pid, s, dst, sim.config.packet_length, clock)
        sim._next_pid += 1
        sim.worms[w.pid] = w
        sim.queues[s].append(w)
        sim.stats.on_generate()
        if sim.tracer is not None:
            sim.tracer.record(clock, "gen", w.pid, w.src, w.dst)

    def _generate_batched(self) -> None:
        """Replacement for the engine's per-clock Bernoulli generation.

        Fires the precomputed arrivals due this clock via
        :meth:`_fire_arrival`.
        """
        sim = self.sim
        clock = sim.clock
        if clock > self._gen_horizon:
            # stepping past the configured run length (manual driving):
            # grow geometrically so repeated stepping stays amortized
            self._extend_traffic(max(clock + 4096, self._gen_horizon * 2))
        clks = self._gen_clks
        ptr = self._gen_ptr
        if ptr >= len(clks) or clks[ptr] > clock:
            return
        srcs = self._gen_srcs
        fire = self._fire_arrival
        while ptr < len(clks) and clks[ptr] <= clock:
            fire(srcs[ptr], clock)
            ptr += 1
        self._gen_ptr = ptr

    # ------------------------------------------------------------------
    # candidate table / head-target maintenance
    # ------------------------------------------------------------------
    def _build_cand_row(self, d: int) -> None:
        """Flatten one destination's decision row into the table.

        Each candidate set is encoded once per epoch (from the decision
        cache's dead-filtered sets); a row is a gather of those codes
        through the routing's ``next_idx`` row.
        """
        C = self._C
        cache = self.sim.decision_cache
        epoch, code = self._set_code
        if epoch != cache.epoch:
            code = np.array(
                [
                    s[0] if len(s) == 1 else (_MULTI if s else _NONE)
                    for s in cache.sets
                ],
                dtype=np.int64,
            )
            self._set_code = (cache.epoch, code)
        enc = code[cache.routing.next_idx[d]]
        # a header parked on a channel sinking at its destination
        # asks for the consumption port, whatever the rows say
        enc[self._sink_channels[d]] = _CONSUME
        self._cand[d * C : (d + 1) * C] = enc
        self._cand_built[d] = True

    def _set_head_target(self, c: int, d: int) -> None:
        """Classify the header now parked on channel *c* toward *d*.

        Called at every head movement (inject/hop commit, epoch
        change) — the request phase then never has to
        classify anything.
        """
        if not self._cand_built[d]:
            self._build_cand_row(d)
        v = int(self._cand[d * self._C + c])
        if v >= 0:
            self._tgt[c] = v
        elif v == _CONSUME:
            self._tgt[c] = self._C + d
        else:
            # multi-candidate (the scalar fallback claims it, driven by
            # its own due/free prefilter) or routeless (only an epoch
            # change can help): take the slot out of the vector request
            # set entirely — dead-slot target, never-due ready clock
            self._tgt[c] = self._dead_slot
            due = int(self._ready_at[c])
            self._ready_at[c] = _BIG
            if v == _MULTI:
                self._multi_heads.add(c)
                cache = self.sim.decision_cache
                cands = cache.sets[cache.routing.next_idx[d, c]]
                self._mh_info[c] = (due, list(cands))
                self._mh_dirty = True

    def _on_epoch_change(self) -> None:
        """Decision epoch moved: rebuild every cached classification.

        Release subscriptions are dropped wholesale and every active
        head re-armed from its own ready clock: a blocked head's target
        may not even exist under the new tables, so waiting for the old
        target's release would strand it.
        """
        cache = self.sim.decision_cache
        self._cand_built[:] = False
        self._cand_epoch = cache.epoch
        self._subs.clear()
        self._invalidate_inj_cache()
        self._multi_heads.clear()
        self._mh_info.clear()
        self._mh_dirty = True
        ready_at = self._ready_at
        for w in self.sim.active:
            if w.chain and not w.consuming:
                h = w.chain[0]
                ready_at[h] = w.head_ready_at
                self._set_head_target(h, w.dst)

    # ------------------------------------------------------------------
    # one clock
    # ------------------------------------------------------------------
    def move(self) -> bool:
        sim = self.sim
        self._prepare_clock()
        stats = sim.stats
        clock = sim.clock
        n_moves, drain_cand, freed_src = self._body_phase()
        if stats.active:
            stats.vec_moved_flits += int(n_moves)
            stats.vec_clocks += 1
        self._wheel_phase(clock)
        granted = self._resolve_phase(clock, drain_cand, freed_src, None)
        if sim._check_invariants:
            self.sync()
        return n_moves > 0 or granted

    def _prepare_clock(self) -> None:
        """Refresh the candidate rows if the decision epoch moved."""
        if self.sim.decision_cache.epoch != self._cand_epoch:
            self._on_epoch_change()

    def _body_phase(self) -> Tuple[int, List[int], List[int]]:
        """Phase 1: batched body moves.

        Returns ``(n_moves, drain_cand, freed_src)``.  The replica
        driver replaces this with one fused sweep over the stacked
        arrays and splits the zero hits back per replica.
        """
        st = self.state
        f = st.flits
        dn = st.dn
        cap_dn = st.cap_dn
        SRC0 = st.SRC0
        # the active set (slots holding flits) is maintained across
        # clocks: grant commits append new slots, zero hits schedule a
        # compaction — the body only ever touches live slots
        act = self._act
        if self._act_add:
            act = np.concatenate(
                (act, np.asarray(self._act_add, dtype=np.int64))
            )
            self._act_add.clear()
            self._act = act
        if self._act_filter:
            act = act[f[act] > 0]
            self._act = act
            self._act_filter = False
        n_moves = 0
        drain_cand: List[int] = []
        freed_src: List[int] = []
        if act.size:
            # act is exactly live here: every zero hit flags a
            # compaction for the next clock, commits only append slots
            # they just made non-empty, and nothing else empties a slot
            dnact = dn[act]
            room = f[dnact] < cap_dn[act]
            movers = act[room]
            n_moves = int(movers.size)
            if n_moves:
                tgts = dnact[room]
                f[movers] -= 1
                f[tgts] += 1  # targets unique (vec_state docstring)
                # zero detection reads f *after* the incoming adds: a
                # channel that both sent and received this clock holds
                # one flit and must not surface as a drain candidate
                for k in movers[f[movers] == 0].tolist():
                    if k >= SRC0:
                        freed_src.append(k - SRC0)
                    else:
                        drain_cand.append(k)
        return n_moves, drain_cand, freed_src

    def _wheel_phase(self, clock: int) -> None:
        """Phase 2: refresh woken injection sources.

        Must run before request extraction — injection scans arm
        same-clock requests in ``_ready_at``.
        """
        wheel = self.sim._wheel
        timers = wheel._timers
        if timers and timers[0][0] <= clock:
            wheel.advance(clock)
        if wheel.pending:
            self._scan_injections(wheel.pending, clock)

    def _resolve_phase(  # noqa: C901 - hot loop, kept flat
        self,
        clock: int,
        drain_cand: List[int],
        freed_src: List[int],
        reqs: Optional[Sequence[int]],
    ) -> bool:
        """Phases 3–4: arbitration, grant commits, drains, completions.

        *reqs* is the due-request slot set (an ascending array or plain
        list); ``None`` means "extract it here" (the sequential path).
        The replica driver extracts one global array and passes each
        replica its slice, preserving the ascending slot order this
        method's RNG consumption depends on.  Returns True when any
        grant was issued this clock.
        """
        sim = self.sim
        st = self.state
        stats = sim.stats
        rec = stats.active
        f = st.flits
        dn = st.dn
        cap_dn = st.cap_dn
        cap_p, cap_sink = st.cap, st.cap_sink
        C, SRC0, SINK0, D = st.C, st.SRC0, st.SINK0, st.D
        occ = sim.channel_occ
        occ_vec = st.occ
        wheel = sim._wheel
        tracer = sim.tracer
        worms = sim.worms
        ready_at = self._ready_at
        tgt = self._tgt
        occ_ext = self._occ_ext

        # -- key arbitration --------------------------------------------
        # the request set covers parked headers and cached injections in
        # one array; blocked requests subscribed to a release are absent
        # (ready_at = _BIG) until their target actually frees
        grants: List[tuple] = []
        consume_occ = sim.consume_occ
        subs = self._subs
        if reqs is None:
            reqs = (ready_at <= clock).nonzero()[0]
        n_req = len(reqs)
        pws: List[int] = []
        tws: List[int] = []
        if 0 < n_req <= _SMALL_ARB:
            # the steady-state request set is a handful of slots (new
            # parks and fresh wakes only — blocked requests live in
            # _subs): group and pick winners in plain Python rather
            # than paying a dozen numpy dispatches on 3-element arrays.
            # The free tests all happen before any claim, so the
            # snapshot semantics match the numpy branch exactly.
            groups: Dict[int, List[int]] = {}
            for h in (reqs if type(reqs) is list else reqs.tolist()):
                t = int(tgt[h])
                if (occ[t] if t < C else consume_occ[t - C]) == FREE:
                    g = groups.get(t)
                    if g is None:
                        groups[t] = [h]
                    else:
                        g.append(h)
                else:
                    lst = subs.get(t)
                    if lst is None:
                        subs[t] = [h]
                    else:
                        lst.append(h)
                    ready_at[h] = _BIG
            for t, g in groups.items():
                if len(g) == 1:
                    pws.append(g[0])
                else:
                    pws.append(g[int(self._arb_rng.integers(len(g)))])
                tws.append(t)
        elif n_req:
            if type(reqs) is list:
                reqs = np.asarray(reqs, dtype=np.int64)
            tg = tgt[reqs]
            idx = (occ_ext[tg] == FREE).nonzero()[0]
            if idx.size != tg.size:
                # blocked requests: park them on the target's release
                # list — they re-arm the clock after it frees, exactly
                # when the scalar engines would first re-grant them
                blk = np.ones(tg.size, dtype=bool)
                blk[idx] = False
                for h, t in zip(reqs[blk].tolist(), tg[blk].tolist()):
                    lst = subs.get(t)
                    if lst is None:
                        subs[t] = [h]
                    else:
                        lst.append(h)
                    ready_at[h] = _BIG
            if idx.size:
                tgf = tg[idx]
                # argsort of target+key groups contenders by target
                # with a uniform random tie-break inside each group
                combo = tgf + self._arb_rng.random(idx.size)
                order = np.argsort(combo)
                ts = tgf[order]
                first = np.empty(ts.size, dtype=bool)
                first[0] = True
                first[1:] = ts[1:] != ts[:-1]
                wins = order[first]
                tws = ts[first].tolist()
                pws = reqs[idx[wins]].tolist()
        if pws:
            queues = sim.queues
            for p, t in zip(pws, tws):
                if p < C:  # parked header on channel p
                    w = worms[occ[p]]
                    if t < C:  # in-network hop
                        grants.append((w, p, t))
                        occ[t] = w.pid  # claim: seen by multi loop
                    else:  # consume at destination t - C
                        d = t - C
                        grants.append((w, -2, d))
                        consume_occ[d] = w.pid
                        occ_ext[t] = w.pid
                else:  # cached injection at source p - C
                    s = p - C
                    ready_at[p] = _BIG
                    self._inj_cached.discard(s)
                    q = queues[s]
                    if not q:
                        # queue emptied from outside the engine
                        # (test teardown): drop the stale cached
                        # request instead of injecting
                        continue
                    w = q[0]
                    grants.append((w, -1, t))
                    occ[t] = w.pid

        # deferred port releases (commit-time freeing, as in the
        # scalar engines: the next queued worm first requests next
        # clock via the wheel wake)
        if freed_src:
            inj_occ = sim.injection_occ
            for s in freed_src:
                inj_occ[s] = FREE
                wheel.wake(s)

        # scalar fallback, in key order: the rare multi-candidate
        # adaptive requests (parked heads and first hops) contend after
        # the single-candidate pass, prefiltered for any free candidate
        if self._multi_heads or self._inj_multi:
            self._arbitrate_multi(grants, clock)

        # -- phase 3: scalar grant commits ------------------------------
        hdr_latency = sim._hdr_latency
        ready = clock + hdr_latency
        multi_heads = self._multi_heads
        for w, origin, target in grants:
            if origin == -2:  # consumption port acquired; consume header
                w.consuming = True
                w.t_head_arrival = clock
                head = w.chain[0]
                f[head] -= 1
                dn[head] = SINK0 + target
                cap_dn[head] = cap_sink
                ready_at[head] = _BIG
                if f[head] == 0:
                    drain_cand.append(head)
                if rec:
                    stats.consumed_flits[target] += w.length
                if tracer is not None:
                    tracer.record(clock, "consume", w.pid, w.src, w.dst)
            elif origin == -1:  # injection: header enters first channel
                occ[target] = w.pid
                occ_vec[target] = w.pid
                sim.injection_occ[w.src] = w.pid
                sim.queues[w.src].popleft()
                sim.active.append(w)
                sim.worms[w.pid] = w
                w.t_inject = clock
                w.chain = [target]
                w.chain_flits = [1]
                fas = w.flits_at_source - 1
                w.flits_at_source = fas
                w.hops = 1
                w.head_ready_at = ready
                f[target] = 1
                dn[target] = D
                cap_dn[target] = 0
                ready_at[target] = ready
                self._act_add.append(target)
                self._set_head_target(target, w.dst)
                if rec:
                    stats.injected_flits[w.src] += w.length
                    stats.channel_flits[target] += w.length
                if tracer is not None:
                    tracer.record(clock, "inject", w.pid, w.src, w.dst, target)
                if fas:
                    f[SRC0 + w.src] = fas
                    dn[SRC0 + w.src] = target
                    cap_dn[SRC0 + w.src] = cap_p
                    self._act_add.append(SRC0 + w.src)
                else:
                    sim.injection_occ[w.src] = FREE
                    wheel.wake(w.src)
            else:  # in-network hop
                occ[target] = w.pid
                occ_vec[target] = w.pid
                head = w.chain[0]
                w.chain.insert(0, target)
                f[target] = 1
                self._act_add.append(target)
                f[head] -= 1
                dn[head] = target
                dn[target] = D
                cap_dn[head] = cap_p
                cap_dn[target] = 0
                w.hops += 1
                w.head_ready_at = ready
                ready_at[head] = _BIG
                ready_at[target] = ready
                if head in multi_heads:
                    multi_heads.discard(head)
                    self._mh_info.pop(head, None)
                    self._mh_dirty = True
                self._set_head_target(target, w.dst)
                if f[head] == 0:
                    drain_cand.append(head)
                if rec:
                    stats.channel_flits[target] += w.length
                if tracer is not None:
                    tracer.record(clock, "hop", w.pid, w.src, w.dst, target)

        # -- phase 4: tail releases and completions ---------------------
        finished: List = []
        subs = self._subs
        wake = clock + 1
        if drain_cand:
            inj_occ = sim.injection_occ
            freed_now = set(freed_src)
            released: List[int] = []
            for c in drain_cand:
                pid = occ[c]
                if pid == FREE:
                    continue
                w = worms[pid]
                # a feeding worm can release nothing; the feed emptied
                # this very clock iff its source is in freed_now (the
                # port itself frees next clock)
                if inj_occ[w.src] == pid and w.src not in freed_now:
                    continue
                chain = w.chain
                if not chain or chain[-1] != c:
                    continue  # not the tail: nothing can release yet
                if len(chain) == 1 and not w.consuming:
                    continue
                chain.pop()
                occ[c] = FREE
                released.append(c)
                # the new tail just received the old tail's last flit:
                # without fault truncation, exactly one channel releases
                if w.consuming and not chain:
                    w.t_done = clock
                    w.consumed = w.length
                    w.chain_flits = []
                    w.flits_at_source = 0
                    w.quiet = True
                    consume_occ[w.dst] = FREE
                    occ_ext[C + w.dst] = FREE
                    lst = subs.pop(C + w.dst, None)
                    if lst:
                        for h in lst:
                            ready_at[h] = wake
                    finished.append(w)
            if released:
                occ_vec[released] = FREE
                # re-arm every request that was waiting on a released
                # channel: they contend again next clock, exactly when
                # the scalar engines would first re-grant them
                for c in released:
                    lst = subs.pop(c, None)
                    if lst:
                        for h in lst:
                            ready_at[h] = wake
        if drain_cand or freed_src:
            self._act_filter = True
        if finished:
            active = sim.active
            done_ids = {w.pid for w in finished}
            for w in finished:
                stats.on_delivered(
                    latency=w.t_done - w.t_gen,
                    header_latency=(w.t_head_arrival or clock) - w.t_gen,
                    hops=w.hops,
                )
                if tracer is not None:
                    tracer.record(clock, "done", w.pid, w.src, w.dst)
            sim.active = [w for w in active if w.pid not in done_ids]
            for w in finished:
                sim.worms.pop(w.pid, None)

        return bool(grants)

    # ------------------------------------------------------------------
    # injection request cache
    # ------------------------------------------------------------------
    def _scan_injections(self, pending, clock: int) -> None:
        """Process newly woken sources and cache their requests.

        The wheel's pending set acts as a dirty set here: every source
        in it is (re)classified once — asleep (empty queue or busy
        port), parked on a timer (header not ready), or cached as a
        live request slot (``ready_at``/``tgt`` at ``C + s``, or
        ``_inj_multi``) that contends every clock without being
        rescanned.
        """
        sim = self.sim
        wheel = sim._wheel
        cache = sim.decision_cache
        first_rows = cache._first_rows
        inj_occ = sim.injection_occ
        queues = sim.queues
        C = self._C
        ready_at = self._ready_at
        tgt = self._tgt
        cached = self._inj_cached
        for s in sorted(pending):
            q = queues[s]
            if not q or inj_occ[s] != FREE:
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
                tgt[C + s] = cands[0]
                ready_at[C + s] = clock
                cached.add(s)
            elif cands:
                self._inj_multi[s] = (w, cands)
                self._im_dirty = True
                cached.add(s)
            # no admissible first channel: leave asleep — only an epoch
            # change can help, and that wakes every cached source anyway
            wheel.sleep(s)

    def _invalidate_inj_cache(self) -> None:
        """Epoch change: drop every cached injection request.

        The epoch change, which can leave stale *subscriptions*
        behind, clears ``_subs`` itself before calling.
        """
        wheel = self.sim._wheel
        for s in self._inj_cached:
            wheel.wake(s)
        self._inj_cached.clear()
        self._inj_multi.clear()
        self._im_dirty = True
        self._ready_at[self._C :] = _BIG

    def _drop_inj_multi(self, s: int) -> None:
        self._inj_multi.pop(s, None)
        self._inj_cached.discard(s)
        self._im_dirty = True

    # ------------------------------------------------------------------
    # scalar arbitration fallback
    # ------------------------------------------------------------------
    def _arbitrate_multi(self, grants, clock) -> None:
        """Claim loop over multi-candidate requests, in key order.

        Both flavors — parked heads with several admissible next
        channels and queued packets with several admissible first
        channels — are rare under down/up routing but persistent while
        blocked, so each clock first prefilters for any *free*
        candidate before paying the scalar claim loop.
        """
        sim = self.sim
        occ = sim.channel_occ
        occ_vec = self.state.occ
        worms = sim.worms
        cache = sim.decision_cache
        items: List[tuple] = []
        if self._multi_heads:
            # both flavors are almost always tiny (a handful of parked
            # heads); below _SMALL_ARB a direct dict walk beats the
            # numpy gather+reduceat prefilter by a wide margin
            if len(self._mh_info) <= _SMALL_ARB:
                occ_list = occ
                for c, (due, cands) in self._mh_info.items():
                    if due <= clock and any(
                        occ_list[ch] == FREE for ch in cands
                    ):
                        items.append((1, c, None))
            else:
                if self._mh_dirty:
                    self._mh_arr = np.fromiter(
                        self._mh_info, np.int64, count=len(self._mh_info)
                    )
                    parts = [
                        np.asarray(self._mh_info[c][1], dtype=np.int64)
                        for c in self._mh_arr.tolist()
                    ]
                    self._mh_due = np.array(
                        [self._mh_info[c][0] for c in self._mh_arr.tolist()],
                        dtype=np.int64,
                    )
                    sizes = np.array([p.size for p in parts])
                    self._mh_off = np.concatenate(([0], np.cumsum(sizes)[:-1]))
                    self._mh_cands = np.concatenate(parts)
                    self._mh_dirty = False
                freem = occ_vec[self._mh_cands] == FREE
                if freem.any():
                    hit = np.maximum.reduceat(freem, self._mh_off)
                    hit &= self._mh_due <= clock
                    for c in self._mh_arr[hit].tolist():
                        items.append((1, c, None))
        if self._inj_multi:
            if len(self._inj_multi) <= _SMALL_ARB:
                occ_list = occ
                for s, entry in self._inj_multi.items():
                    if any(occ_list[ch] == FREE for ch in entry[1]):
                        items.append((2, s, entry))
            else:
                if self._im_dirty:
                    self._im_srcs = list(self._inj_multi)
                    cand_parts = [
                        np.asarray(self._inj_multi[s][1], dtype=np.int64)
                        for s in self._im_srcs
                    ]
                    sizes = np.array([p.size for p in cand_parts])
                    self._im_off = np.concatenate(([0], np.cumsum(sizes)[:-1]))
                    self._im_cands = np.concatenate(cand_parts)
                    self._im_dirty = False
                freem = occ_vec[self._im_cands] == FREE
                if freem.any():
                    hit = np.maximum.reduceat(freem, self._im_off)
                    for k in hit.nonzero()[0].tolist():
                        s = self._im_srcs[k]
                        entry = self._inj_multi.get(s)
                        if entry is not None:
                            items.append((2, s, entry))
        if not items:
            return
        if len(items) > 1:
            keys = self._arb_rng.random(len(items))
            items = [items[j] for j in np.argsort(keys).tolist()]
        queues = sim.queues
        wheel = sim._wheel
        for kind, a, b in items:
            if kind == 1:
                w = worms[occ[a]]
                dst = w.dst
                cands = cache.sets[cache.routing.next_idx[dst, a]]
                avail = [c for c in cands if occ[c] == FREE]
                if not avail:
                    continue
                pick = avail[0] if len(avail) == 1 else self._pick(avail)
                occ[pick] = w.pid
                grants.append((w, a, pick))
            else:
                w, cands = b
                # guard against an externally emptied or re-headed
                # queue (appends and pops both wake the source, so the
                # scan normally repairs the entry first)
                q = queues[a]
                if not q or q[0] is not w:
                    self._drop_inj_multi(a)
                    wheel.wake(a)
                    continue
                avail = [c for c in cands if occ[c] == FREE]
                if not avail:
                    continue
                pick = avail[0] if len(avail) == 1 else self._pick(avail)
                occ[pick] = w.pid
                grants.append((w, -1, pick))
                self._drop_inj_multi(a)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _pick(self, avail: List[int]) -> int:
        """Random selection among free candidates, on the batch stream.

        Draws from the dedicated arbitration stream — the batch engine
        never touches ``sim.rng``, keeping the shared stream untouched
        for any code that compares draw counts across engines.
        """
        return avail[int(self._arb_rng.integers(len(avail)))]
