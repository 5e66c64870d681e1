"""Replica-batched simulation: R seed-replicas in one stacked array sweep.

Everything that consumes the batch engine — the statistical equivalence
gate (seed-paired A/B runs), campaign sweeps, the Figure-8 replication —
runs *many independent replicas of the same scenario*, differing only in
seed.  Run sequentially, each replica pays the per-clock Python/numpy
dispatch overhead (the fixed cost of the fused body sweep, the request
extraction, the clock-loop bookkeeping) all over again; at small-network
scale that fixed cost dominates the actual event work.

:class:`ReplicaBatchCore` stacks R independent ``engine="batch"``
simulators into shared ``(R, K)`` state arrays and drives them with one
fused clock loop:

* **Stacked state, shared views.**  :func:`repro.simulator.vec_state.stack_states`
  re-homes each replica's ``flits``/``dn``/``cap_at``/``cap_dn`` into
  C-contiguous ``(R, K)`` stacks and rebinds the per-replica
  :class:`~repro.simulator.vec_state.ArrayState` attributes to *row
  views*; each core's ``_ready_at`` request array is stacked the same
  way.  All scalar code paths (grant commits, drains, injections) keep
  mutating their own row through the existing methods, while the driver
  sweeps every row at once through the flat ``.reshape(-1)`` aliases.
* **One fused body phase per clock.**  A single global active set holds
  *global* slot ids (``r * K + k``, with a parallel ``r * K`` offset
  array so no per-clock division is needed); one gather/compare/scatter
  advances every replica's flits together, and the zero hits are split
  back per replica in an event-proportional Python loop.
* **One fused request extraction per clock.**  Due requests come from a
  single ``nonzero`` over the flat stacked ``ready_at``, partitioned
  per replica (a Python walk when the set is small, ``searchsorted``
  over the replica boundaries when not); each busy replica's unchanged
  arbitration/commit/drain phase
  (:meth:`~repro.simulator.batch_engine.BatchCore._resolve_phase`)
  consumes its own slice.  The partition preserves ascending slot
  order, so each replica consumes its arbitration RNG stream exactly as
  a sequential run would.
* **One merged traffic schedule.**  The per-replica precomputed arrival
  lists are merged into one global ``(clock, replica, source)`` event
  list walked by a single pointer — per-replica fire order is
  preserved, so each replica's packet-shaping stream is consumed
  identically to its sequential run.
* **Early-drain masking.**  A replica with no due requests, no drains,
  no freed ports and no multi-candidate fallbacks this clock is skipped
  entirely — a drained replica stops costing resolve work (the
  :attr:`ReplicaBatchCore.resolve_calls` counter makes the skipping
  observable).

**Determinism contract (packing invariance).**  Replica *r* of a
replicated run produces a ``statistical_fingerprint`` *identical* to a
sequential ``engine="batch"`` run with the same seed: replicas share no
RNG streams (each core derives its own from its config seed via the
batch engine's counter-hash scheme), the fused sweeps compute the same
per-replica values the sequential phases would, and per-replica event
ordering (arbitration requests, traffic firing, drains) is preserved by
construction.  The test suite asserts this per seed across the traffic
matrix, and the committed benchmark re-asserts it on every run.

**Unsupported in replica mode** (use sequential runs): tracers, and
mid-run mutation of worm or occupancy state from outside the engine.
Live fault schedules run on neither path: ``attach_faults`` refuses
``engine="batch"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.simulator.config import SimulationConfig
from repro.simulator.engine import (
    FREE,
    DeadlockDetected,
    LivelockSuspected,
    WormholeSimulator,
)
from repro.simulator.stats import SimulationStats
from repro.simulator.vec_state import stack_states
from repro.util.rng import derive_seed

__all__ = [
    "ReplicaBatchCore",
    "replica_seed",
    "replica_seeds",
    "run_replicated",
]

#: stream-derivation key for replica seeds: replica r > 0 of base seed s
#: runs with ``derive_seed(s, _REPLICA_KEY, r)``; replica 0 runs s itself
_REPLICA_KEY = 0x5EED_0F0F

#: request-set size up to which the per-replica partition runs as a
#: plain Python walk instead of a searchsorted over replica boundaries
_SMALL_PART = 48

#: shared empty request list — ``_resolve_phase`` only reads *reqs*, so
#: replicas resolving for drains/multi alone can all share this one
_EMPTY_REQS: List[int] = []


def replica_seed(base: Optional[int], index: int) -> Optional[int]:
    """The seed of replica *index* for a base seed.

    Replica 0 keeps the base seed itself (so a replicated run subsumes
    the plain run); replica ``index > 0`` derives an independent stream
    seed from it.  ``None`` stays ``None`` — every replica of an
    unseeded run draws its own OS entropy, reproducible by nobody.
    """
    if index < 0:
        raise ValueError("replica index must be >= 0")
    if base is None or index == 0:
        return base
    return derive_seed(base, _REPLICA_KEY, index)


def replica_seeds(config: SimulationConfig, replicas: int) -> List[Optional[int]]:
    """The seeds of *replicas* replicas of *config* (see :func:`replica_seed`)."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    return [replica_seed(config.seed, r) for r in range(replicas)]


class ReplicaBatchCore:
    """Fused clock-loop driver over R stacked ``engine="batch"`` simulators.

    Build the simulators first (same routing, same scenario config,
    per-replica seeds), then hand them over; construction re-homes their
    state into the stacked arrays.  :meth:`run` drives warmup +
    measurement for all replicas and returns the per-replica
    :class:`~repro.simulator.stats.SimulationStats` in replica order.
    """

    def __init__(self, sims: Sequence[WormholeSimulator]) -> None:
        if not sims:
            raise ValueError("need at least one simulator")
        for sim in sims:
            if sim.engine_name != "batch":
                raise ValueError(
                    "replica batching requires engine='batch' simulators "
                    f"(got {sim.engine_name!r})"
                )
            if sim.tracer is not None:
                raise ValueError("tracers are unsupported in replica mode")
            if sim.clock != 0:
                raise ValueError("replica packing requires fresh simulators")
        cfg = sims[0].config
        scenario = cfg.with_seed(None)
        for sim in sims[1:]:
            if sim.config.with_seed(None) != scenario:
                raise ValueError(
                    "replicas must share one scenario config (seeds may differ)"
                )
        self.sims: List[WormholeSimulator] = list(sims)
        self.cores = [sim._vec for sim in self.sims]
        R = len(self.cores)
        self.R = R
        st0 = self.cores[0].state
        K = st0.K
        if any(c.state.K != K for c in self.cores):
            raise ValueError("replicas must share the topology geometry")
        self.K = K
        self.SRC0 = st0.SRC0

        # build candidate tables once up front (no faults -> the
        # decision epoch never changes mid-run, so the per-clock
        # epoch check of the sequential path is not needed)
        for core in self.cores:
            core._prepare_clock()

        # -- stacked state ------------------------------------------------
        flits, dn, _cap_at, cap_dn = stack_states([c.state for c in self.cores])
        #: flat aliases over the stacks (views: np.stack is C-contiguous)
        self._f_flat = flits.reshape(-1)
        self._dn_flat = dn.reshape(-1)
        self._cd_flat = cap_dn.reshape(-1)
        W = self.cores[0]._ready_at.size  # request width: C + n
        ready = np.stack([c._ready_at for c in self.cores])
        for r, core in enumerate(self.cores):
            core._ready_at = ready[r]
        self._ready_flat = ready.reshape(-1)
        self.W = W
        #: per-replica slice boundaries in flat request space
        self._req_bounds = np.arange(1, R, dtype=np.int64) * W
        self._req_off = [r * W for r in range(R)]

        # -- global body active set: global slot ids r*K + k, plus a
        # parallel array of the r*K offsets (localizing a slot or
        # computing its global downstream then needs no division)
        parts: List[np.ndarray] = []
        off_parts: List[np.ndarray] = []
        for r, core in enumerate(self.cores):
            if core._act_add:
                core._act = np.concatenate(
                    (core._act, np.asarray(core._act_add, dtype=np.int64))
                )
                core._act_add.clear()
            if core._act.size:
                parts.append(core._act + r * K)
                off_parts.append(np.full(core._act.size, r * K, dtype=np.int64))
        empty = np.empty(0, dtype=np.int64)
        self._gact = np.concatenate(parts) if parts else empty
        self._goff = np.concatenate(off_parts) if off_parts else empty
        self._gact_add: List[int] = []
        self._goff_add: List[int] = []
        self._gact_filter = False

        #: prebuilt per-replica hot-loop rows (all stable objects: the
        #: wheel's timer heap and pending set, the core's multi dicts
        #: and the engine's occupancy list are mutated in place, never
        #: reassigned)
        self._wheel_rows = [
            (r, sim._wheel._timers, sim._wheel, sim._wheel.pending,
             self.cores[r]._scan_injections, self.cores[r]._inj_multi)
            for r, sim in enumerate(self.sims)
        ]
        self._multi_rows = [
            (core._mh_info, core._inj_multi, sim.channel_occ)
            for sim, core in zip(self.sims, self.cores)
        ]
        self._pairs = list(zip(self.sims, self.cores))
        self._any_checks = any(sim._check_invariants for sim in self.sims)
        #: replicas whose injection wheel needs attention (non-empty
        #: pending set or timer heap).  Exact by construction: sources
        #: enter a wheel only through queue mutations and wake calls,
        #: all of which happen inside resolve calls, wheel scans or
        #: traffic fires — each of which re-adds the replica here
        self._wheel_attn: set = {
            r
            for r, sim in enumerate(self.sims)
            if sim._wheel.pending or sim._wheel._timers
        }
        #: replicas whose core currently holds multi-candidate requests
        #: (parked heads or injections) — exact by construction: entries
        #: are only added in `_scan_injections` (checked after every
        #: scan) and mutated inside `_resolve_phase` (checked after
        #: every call)
        self._multi_rs: set = {
            r
            for r, core in enumerate(self.cores)
            if core._multi_heads or core._inj_multi
        }

        # -- merged traffic: one (clock, replica, source) event list ------
        self._fires = [core._fire_arrival for core in self.cores]
        self._mg_clks: List[int] = []
        self._mg_reps: List[int] = []
        self._mg_srcs: List[int] = []
        self._mg_ptr = 0
        self._merge_traffic()

        self._clock = 0
        self._recording = False
        self._moved_acc = np.zeros(R, dtype=np.int64)
        #: deferred per-replica move accounting: per-clock replica ids
        #: of the movers are chunked and bincounted in batches
        self._mv_chunks: List[np.ndarray] = []
        #: replica id per active slot (``goff // K``), cached between
        #: active-set changes for the deferred move accounting
        self._offs = np.empty(0, dtype=np.int64)
        self._offs_stale = True
        #: fused body plan cache — ``dn``/``cap_dn`` mutate only inside
        #: ``_resolve_phase``, so the gathered downstream ids and
        #: capacities stay valid until the next grant or set change
        self._plan_dirty = True
        self._dng = np.empty(0, dtype=np.int64)
        self._cdg = np.empty(0, dtype=np.int64)
        #: reused boolean buffer for the fused due-request extraction
        self._due_buf = np.empty(R * W, dtype=bool)
        self._last_progress = [0] * R
        self._need_progress = cfg.max_stall_clocks is not None
        self._deadlock_interval = cfg.deadlock_interval
        #: total `_resolve_phase` invocations across replicas — the
        #: early-drain mask makes quiet replicas skip resolve entirely,
        #: so tests can assert this stays below R * clocks
        self.resolve_calls = 0

    # ------------------------------------------------------------------
    def _merge_traffic(self) -> None:
        """(Re)merge every replica's unfired arrivals into one list.

        Consumes the per-core schedules (they are emptied afterwards, so
        a later horizon extension contributes only newly drawn events)
        and the unfired tail of the previous merge.  Sorting by
        ``(clock, replica, source)`` reproduces each replica's
        sequential fire order exactly.
        """
        ptr = self._mg_ptr
        parts_c = [np.asarray(self._mg_clks[ptr:], dtype=np.int64)]
        parts_r = [np.asarray(self._mg_reps[ptr:], dtype=np.int64)]
        parts_s = [np.asarray(self._mg_srcs[ptr:], dtype=np.int64)]
        for r, core in enumerate(self.cores):
            if core._gen_clks:
                c = np.asarray(core._gen_clks[core._gen_ptr :], dtype=np.int64)
                s = np.asarray(core._gen_srcs[core._gen_ptr :], dtype=np.int64)
                parts_c.append(c)
                parts_r.append(np.full(c.size, r, dtype=np.int64))
                parts_s.append(s)
                core._gen_clks = []
                core._gen_srcs = []
                core._gen_ptr = 0
        clks = np.concatenate(parts_c)
        reps = np.concatenate(parts_r)
        srcs = np.concatenate(parts_s)
        order = np.lexsort((srcs, reps, clks))
        self._mg_clks = clks[order].tolist()
        self._mg_reps = reps[order].tolist()
        self._mg_srcs = srcs[order].tolist()
        self._mg_ptr = 0
        self._mg_horizon = min(core._gen_horizon for core in self.cores)

    def _extend_merged(self, clock: int) -> None:
        """Grow every replica's schedule past *clock* and re-merge."""
        for core in self.cores:
            if clock > core._gen_horizon:
                core._extend_traffic(max(clock + 4096, core._gen_horizon * 2))
        self._merge_traffic()

    # ------------------------------------------------------------------
    def _step(self) -> None:
        """One fused clock across all replicas (mirrors ``step()``)."""
        clock = self._clock
        sims = self.sims
        cores = self.cores
        R = self.R
        K = self.K
        SRC0 = self.SRC0
        f_flat = self._f_flat

        # -- phase 1: fused body moves across all replicas --------------
        gact = self._gact
        goff = self._goff
        if self._gact_add or self._gact_filter:
            self._plan_dirty = True
            self._offs_stale = True
            if self._gact_add:
                gact = np.concatenate(
                    (gact, np.asarray(self._gact_add, dtype=np.int64))
                )
                goff = np.concatenate(
                    (goff, np.asarray(self._goff_add, dtype=np.int64))
                )
                self._gact_add.clear()
                self._goff_add.clear()
                self._gact = gact
                self._goff = goff
            if self._gact_filter:
                live = f_flat[gact] > 0
                gact = gact[live]
                goff = goff[live]
                self._gact = gact
                self._goff = goff
                self._gact_filter = False
        drains: Dict[int, List[int]] = {}
        freed: Dict[int, List[int]] = {}
        moved = None
        if gact.size:
            if self._plan_dirty:
                dng = self._dng = self._dn_flat[gact] + goff
                self._cdg = self._cd_flat[gact]
                self._plan_dirty = False
            else:
                dng = self._dng
            room = f_flat[dng] < self._cdg
            movers = gact[room]
            if movers.size:
                fm = f_flat[movers] - 1
                f_flat[movers] = fm
                f_flat[dng[room]] += 1  # targets unique per replica row
                if self._need_progress:
                    moved = np.bincount(goff[room] // K, minlength=R)
                    if self._recording:
                        self._moved_acc += moved
                elif self._recording:
                    # deferred per-replica move accounting: chunk the
                    # movers' replica ids, bincount them in batches
                    if self._offs_stale:
                        self._offs = goff // K
                        self._offs_stale = False
                    self._mv_chunks.append(self._offs[room])
                    if len(self._mv_chunks) >= 256:
                        self._flush_moved()
                # zero detection reads f *after* the incoming adds (as
                # in the sequential body), but adds only ever raise a
                # count — so the pre-add decrements are a superset gate
                # and the exact post-add mask is needed only when a
                # decrement actually reached zero
                if np.count_nonzero(fm == 0):
                    zmask = f_flat[movers] == 0
                    mo = goff[room]
                    for g, o in zip(
                        movers[zmask].tolist(), mo[zmask].tolist()
                    ):
                        k = g - o
                        r = o // K
                        if k >= SRC0:
                            lst = freed.get(r)
                            if lst is None:
                                freed[r] = [k - SRC0]
                            else:
                                lst.append(k - SRC0)
                        else:
                            lst = drains.get(r)
                            if lst is None:
                                drains[r] = [k]
                            else:
                                lst.append(k)

        # -- phase 2: per-replica injection wheels (before extraction) --
        multi_rs = self._multi_rs
        attn = self._wheel_attn
        if attn:
            rows = self._wheel_rows
            for r in tuple(attn):
                _r, timers, wheel, pending, scan, inj_multi = rows[r]
                if timers and timers[0][0] <= clock:
                    wheel.advance(clock)
                if pending:
                    scan(pending, clock)
                    if inj_multi:
                        multi_rs.add(r)
                if not pending and not timers:
                    attn.discard(r)

        # -- one fused request extraction, per-replica partition --------
        np.less_equal(self._ready_flat, clock, out=self._due_buf)
        req_by_r: Dict[int, object] = {}
        if np.count_nonzero(self._due_buf):
            idx = self._due_buf.nonzero()[0]
            if idx.size <= _SMALL_PART:
                W = self.W
                for g in idx.tolist():
                    r, h = divmod(g, W)
                    lst = req_by_r.get(r)
                    if lst is None:
                        req_by_r[r] = [h]
                    else:
                        lst.append(h)
            else:
                cuts = np.searchsorted(idx, self._req_bounds)
                prev = 0
                offs = self._req_off
                for r, cut in enumerate([*cuts.tolist(), idx.size]):
                    if cut > prev:
                        req_by_r[r] = idx[prev:cut] - offs[r]
                    prev = cut

        # -- per-replica arbitration / commits / drains ------------------
        # (early-drain mask: replicas with nothing due, nothing
        # draining and no multi-candidate fallbacks are skipped)
        work = set(req_by_r)
        if drains:
            work.update(drains)
        if freed:
            work.update(freed)
        if multi_rs:
            # a replica whose only pending work is multi-candidate
            # fallbacks resolves only if some candidate is actually
            # free and due — the exact prefilter `_arbitrate_multi`
            # applies, under which it consumes no RNG and mutates
            # nothing, so skipping the call entirely is equivalent
            multi_rows = self._multi_rows
            for r in multi_rs:
                if r in work:
                    continue
                mh_info, inj_multi, occ = multi_rows[r]
                for due, cands in mh_info.values():
                    if due <= clock and any(
                        occ[ch] == FREE for ch in cands
                    ):
                        work.add(r)
                        break
                else:
                    for entry in inj_multi.values():
                        if any(occ[ch] == FREE for ch in entry[1]):
                            work.add(r)
                            break
        if work:
            gact_add = self._gact_add
            goff_add = self._goff_add
            progress = self._last_progress if self._need_progress else None
            self.resolve_calls += len(work)
            for r in work:
                core = cores[r]
                reqs = req_by_r.get(r)
                granted = core._resolve_phase(
                    clock,
                    drains.get(r) or [],
                    freed.get(r) or [],
                    reqs if reqs is not None else _EMPTY_REQS,
                )
                aa = core._act_add
                if aa:
                    base = r * K
                    for k in aa:
                        gact_add.append(base + k)
                        goff_add.append(base)
                    aa.clear()
                if core._act_filter:
                    core._act_filter = False
                    self._gact_filter = True
                if core._multi_heads or core._inj_multi:
                    multi_rs.add(r)
                else:
                    multi_rs.discard(r)
                row = self._wheel_rows[r]
                if row[3] or row[1]:  # pending / timers touched in-call
                    attn.add(r)
                if granted and progress is not None:
                    progress[r] = clock
            # a resolve call may retarget an existing head's downstream
            # channel (``_set_head_target``), so the cached body plan is
            # stale whether or not the active set changed
            self._plan_dirty = True

        # -- watchdogs (same clocks as the sequential step) --------------
        interval = self._deadlock_interval
        if interval and clock % interval == interval - 1:
            for sim in sims:
                sim.clock = clock
                dead = sim.find_deadlocked_worms()
                if dead:
                    raise DeadlockDetected(sim._deadlock_report(dead))
        if self._need_progress:
            progress = self._last_progress
            if moved is not None:
                for r in moved.nonzero()[0].tolist():
                    progress[r] = clock
            stall = sims[0]._max_stall
            for r, sim in enumerate(sims):
                if clock - progress[r] >= stall and (
                    sim.active or any(sim.queues)
                ):
                    sim.clock = clock
                    sim._last_progress = progress[r]
                    raise LivelockSuspected(sim._stall_report(stall))

        # -- merged traffic: fire due arrivals in (replica, src) order ---
        if clock > self._mg_horizon:
            self._extend_merged(clock)
        clks = self._mg_clks
        ptr = self._mg_ptr
        if ptr < len(clks) and clks[ptr] <= clock:
            reps = self._mg_reps
            srcs = self._mg_srcs
            fires = self._fires
            while ptr < len(clks) and clks[ptr] <= clock:
                rep = reps[ptr]
                fires[rep](srcs[ptr], clock)
                attn.add(rep)  # the queue append woke the wheel
                ptr += 1
            self._mg_ptr = ptr

        # -- invariants (tests, never the hot path) ---------------------
        if self._any_checks:
            for sim, core in self._pairs:
                if sim._check_invariants:
                    sim.clock = clock
                    core.sync()
                    sim._check_state()

        self._clock = clock + 1

    def _flush_moved(self) -> None:
        """Fold the chunked mover replica-ids into per-replica counts."""
        if self._mv_chunks:
            ids = np.concatenate(self._mv_chunks)
            self._mv_chunks.clear()
            self._moved_acc += np.bincount(ids, minlength=self.R)

    # ------------------------------------------------------------------
    def run(self) -> List[SimulationStats]:
        """Warmup + measurement for all replicas; per-replica stats."""
        cfg = self.sims[0].config
        step = self._step
        for _ in range(cfg.warmup_clocks):
            step()
        for sim in self.sims:
            sim.stats.active = True
        self._recording = True
        sample_timeline = any(
            sim.stats.timeline_interval > 0 for sim in self.sims
        )
        if sample_timeline:
            for _ in range(cfg.measure_clocks):
                step()
                for sim in self.sims:
                    stats = sim.stats
                    stats.window_clocks += 1
                    if stats.timeline_interval > 0:
                        stats.on_tick()
        else:
            for _ in range(cfg.measure_clocks):
                step()
        self._flush_moved()
        results: List[SimulationStats] = []
        for r, sim in enumerate(self.sims):
            sim.clock = self._clock
            stats = sim.stats
            if not sample_timeline:
                stats.window_clocks += cfg.measure_clocks
            stats.vec_moved_flits += int(self._moved_acc[r])
            stats.vec_clocks += cfg.measure_clocks
            backlog = sum(len(q) for q in sim.queues)
            results.append(
                stats.finalize(queue_backlog=backlog, reconfigurations=())
            )
        return results


def run_replicated(
    routing,
    config: SimulationConfig,
    seeds: Sequence[Optional[int]],
    traffic=None,
) -> List[SimulationStats]:
    """Run R seed-replicas of one scenario through the fused driver.

    *seeds* are the replicas' seeds, run in order; R replicas of
    *config* are ``replica_seeds(config, R)``.  Returns one
    :class:`~repro.simulator.stats.SimulationStats` per seed — each
    identical (by ``statistical_fingerprint``) to a sequential
    ``engine="batch"`` run of that seed.

    *traffic*, when given, must be stateless across calls (the built-in
    patterns are): the single instance is shared by every replica.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one replica seed")
    base = config.with_engine("batch")
    sims = [
        WormholeSimulator(routing, base.with_seed(s), traffic=traffic)
        for s in seeds
    ]
    if len(sims) == 1:
        # nothing to fuse: run the lone replica through the plain loop
        return [sims[0].run()]
    return ReplicaBatchCore(sims).run()
