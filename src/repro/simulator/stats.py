"""Simulation statistics collection and summary metrics.

The engine feeds a :class:`StatsCollector` during the measurement
window; :meth:`StatsCollector.finalize` produces an immutable
:class:`SimulationStats` carrying everything the paper's evaluation
needs: per-channel flit counts (for node utilization, traffic load, hot
spots, leaves utilization via :mod:`repro.metrics`), latency samples,
accepted/offered traffic, and queue diagnostics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.topology.graph import Topology

#: Quantile method for every latency percentile this repo reports.
#: Latencies are integer clock counts, so the classical discrete
#: quantile (Hyndman-Fan type 1) is pinned explicitly: the default
#: linear interpolation invents fractional "latencies" no packet ever
#: achieved, and different callers silently disagreed on the method.
PERCENTILE_METHOD = "inverted_cdf"


def discrete_percentile(samples, q: float) -> float:
    """The *q*-th percentile of *samples* as an achievable sample value.

    ``nan`` sentinel for an empty sample, mirroring the latency means.
    Every percentile consumer (stats summaries, degradation metrics)
    must go through this helper so they agree on the method.
    """
    arr = np.asarray(samples)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q, method=PERCENTILE_METHOD))


class StatsCollector:
    """Mutable accumulator the engine writes into.

    Collection is gated by :attr:`active`, which the engine switches on
    at the end of the warmup; all counters cover the measurement window
    only.

    The per-flit counters are plain Python lists, not numpy arrays: the
    engines increment single elements millions of times per run, where
    list indexing is several times faster than ndarray item assignment
    (the same reasoning as the engine's channel-occupancy list).  The
    fast-path engines bind these lists directly and increment them
    inline; :meth:`finalize` converts to int64 arrays, so
    :class:`SimulationStats` consumers see the exact same types as
    before.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.active = False
        self.window_clocks = 0
        #: flits entering each inter-switch channel during the window
        self.channel_flits: List[int] = [0] * topology.num_channels
        #: flits consumed per destination switch
        self.consumed_flits: List[int] = [0] * topology.n
        #: flits injected per source switch
        self.injected_flits: List[int] = [0] * topology.n
        self.generated_packets = 0
        self.delivered_packets = 0
        #: packets removed from the network by a fault (drop/eject/
        #: truncation) — each may later be retried from the source
        self.fault_drops = 0
        #: source-side re-injections of fault-dropped packets
        self.retries = 0
        #: packets abandoned for good (retry budget exhausted, or
        #: unroutable because an endpoint switch died)
        self.lost_packets = 0
        #: truncated worm fragments that finished draining (``drain``
        #: fault policy; the packet itself is not delivered)
        self.corrupted_deliveries = 0
        self.latencies: List[int] = []
        self.header_latencies: List[int] = []
        self.hop_counts: List[int] = []
        #: snapshot cadence in clocks for the throughput time series
        #: (0 = disabled); set before the measurement window starts
        self.timeline_interval: int = 0
        self._timeline: List[Tuple[int, int]] = []  # (window clock, consumed)
        #: active-set scheduler telemetry (fast-path engines only):
        #: worms whose body state was actually scanned vs. worms active,
        #: summed over measured clocks
        self.sched_visited_worms = 0
        self.sched_active_worms = 0
        self.sched_clocks = 0
        #: batch-engine telemetry: flits moved by the batched body
        #: phase and clocks it ran, summed over measured clocks
        self.vec_moved_flits = 0
        self.vec_clocks = 0

    # hooks called by the engine ---------------------------------------
    def on_channel_entry(self, cid: int) -> None:
        if self.active:
            self.channel_flits[cid] += 1

    def on_consume(self, node: int, flits: int = 1) -> None:
        if self.active:
            self.consumed_flits[node] += flits

    def on_inject(self, node: int, flits: int = 1) -> None:
        if self.active:
            self.injected_flits[node] += flits

    def on_generate(self) -> None:
        if self.active:
            self.generated_packets += 1

    def on_delivered(self, latency: int, header_latency: int, hops: int) -> None:
        if self.active:
            self.delivered_packets += 1
            self.latencies.append(latency)
            self.header_latencies.append(header_latency)
            self.hop_counts.append(hops)

    def on_fault_drop(self) -> None:
        if self.active:
            self.fault_drops += 1

    def on_retry(self) -> None:
        if self.active:
            self.retries += 1

    def on_lost(self) -> None:
        if self.active:
            self.lost_packets += 1

    def on_corrupted(self) -> None:
        if self.active:
            self.corrupted_deliveries += 1

    def on_sched(self, visited: int, active_worms: int) -> None:
        """Record one clock of active-set scheduler occupancy.

        *visited* is the number of worms whose body state the scheduler
        actually scanned this clock; *active_worms* is the total active.
        The ratio over the window is the scheduler's occupancy — how
        much per-clock scanning the quiescence tracking saved.
        """
        if self.active:
            self.sched_visited_worms += visited
            self.sched_active_worms += active_worms
            self.sched_clocks += 1

    def on_tick(self) -> None:
        """Record a timeline snapshot if the cadence is due.

        Called once per *measured* clock (after ``window_clocks`` was
        incremented); cheap no-op when ``timeline_interval`` is 0.
        """
        if (
            self.timeline_interval
            and self.active
            and self.window_clocks % self.timeline_interval == 0
        ):
            self._timeline.append(
                (self.window_clocks, int(sum(self.consumed_flits)))
            )

    def finalize(
        self, queue_backlog: int, reconfigurations: Tuple = ()
    ) -> "SimulationStats":
        """Freeze the window counters into a :class:`SimulationStats`.

        The counter arrays are *copied*, never aliased: the batch
        engine rebinds ``channel_flits``/``consumed_flits``/
        ``injected_flits`` to live int64 ndarrays, and ``np.asarray``
        on those is a no-copy view — a frozen snapshot would then keep
        mutating (and change its ``canonical_digest``) as later clocks
        credit more flits to the same storage.
        """
        if self.window_clocks <= 0:
            raise ValueError("no measurement window was recorded")
        return SimulationStats(
            topology=self.topology,
            clocks=self.window_clocks,
            channel_flits=np.array(self.channel_flits, dtype=np.int64),
            consumed_flits=np.array(self.consumed_flits, dtype=np.int64),
            injected_flits=np.array(self.injected_flits, dtype=np.int64),
            generated_packets=self.generated_packets,
            dropped_packets=0,
            delivered_packets=self.delivered_packets,
            latencies=tuple(self.latencies),
            header_latencies=tuple(self.header_latencies),
            hop_counts=tuple(self.hop_counts),
            queue_backlog=queue_backlog,
            timeline=tuple(self._timeline),
            fault_drops=self.fault_drops,
            retries=self.retries,
            lost_packets=self.lost_packets,
            corrupted_deliveries=self.corrupted_deliveries,
            reconfigurations=tuple(reconfigurations),
            sched_visited_worms=self.sched_visited_worms,
            sched_active_worms=self.sched_active_worms,
            sched_clocks=self.sched_clocks,
            vec_moved_flits=int(self.vec_moved_flits),
            vec_clocks=self.vec_clocks,
        )


@dataclass(frozen=True)
class SimulationStats:
    """Immutable results of one measurement window.

    ``channel_flits[cid]`` counts flits that *entered* inter-switch
    channel ``cid`` during the window; channel utilization is that count
    divided by the window length — "the average number of flits across
    the node through the output channel during one clock" (Section 5).
    """

    topology: Topology
    clocks: int
    channel_flits: np.ndarray
    consumed_flits: np.ndarray
    injected_flits: np.ndarray
    generated_packets: int
    #: always 0: source queues are unbounded, so no generated packet is
    #: ever refused.  Kept in its slot because :meth:`canonical_digest`
    #: and :meth:`statistical_fingerprint` hash it, and every pinned
    #: digest and fingerprint was recorded with it there.
    dropped_packets: int
    delivered_packets: int
    latencies: Tuple[int, ...]
    header_latencies: Tuple[int, ...]
    hop_counts: Tuple[int, ...]
    queue_backlog: int
    #: (window clock, cumulative consumed flits) snapshots; empty when
    #: the collector's ``timeline_interval`` was 0
    timeline: Tuple[Tuple[int, int], ...] = ()
    #: packets a fault removed from the network during the window
    fault_drops: int = 0
    #: source-side re-injections of fault-dropped packets
    retries: int = 0
    #: packets abandoned for good (budget exhausted / endpoint dead)
    lost_packets: int = 0
    #: truncated fragments that finished draining (``drain`` policy)
    corrupted_deliveries: int = 0
    #: :class:`repro.faults.ReconfigurationRecord` entries, one per
    #: online routing-table swap performed during the run
    reconfigurations: Tuple = ()
    #: active-set scheduler telemetry (fast-path engines; zero on the
    #: reference path).  Engine bookkeeping, NOT simulated physics —
    #: deliberately excluded from :meth:`canonical_digest`.
    sched_visited_worms: int = 0
    sched_active_worms: int = 0
    sched_clocks: int = 0
    #: batch-engine telemetry (zero on the scalar paths): flits
    #: moved by the batched body phase and measured clocks it ran.
    #: Engine bookkeeping, NOT simulated physics — deliberately
    #: excluded from :meth:`canonical_digest`.
    vec_moved_flits: int = 0
    vec_clocks: int = 0

    # -- headline numbers ----------------------------------------------
    @property
    def accepted_traffic(self) -> float:
        """Delivered load in flits/clock/node (the paper's throughput)."""
        return float(self.consumed_flits.sum()) / (self.clocks * self.topology.n)

    @property
    def offered_traffic(self) -> float:
        """Injected load in flits/clock/node (post-queue, pre-delivery)."""
        return float(self.injected_flits.sum()) / (self.clocks * self.topology.n)

    @property
    def average_latency(self) -> float:
        """Mean message latency (generation to last flit consumed).

        ``nan`` sentinel when no packet was delivered during the window
        — reachable under aggressive fault schedules (every generated
        packet dropped or lost) — so campaign code records the sentinel
        instead of raising mid-run.
        """
        if self.delivered_packets <= 0 or not self.latencies:
            return float("nan")
        return float(np.mean(self.latencies))

    @property
    def p99_latency(self) -> float:
        """99th-percentile message latency (``nan`` when none delivered).

        A discrete quantile (:data:`PERCENTILE_METHOD`): always one of
        the achieved integer latencies, never an interpolated fraction.
        """
        if self.delivered_packets <= 0 or not self.latencies:
            return float("nan")
        return discrete_percentile(self.latencies, 99)

    @property
    def average_hops(self) -> float:
        """Mean header hop count (``nan`` when none delivered)."""
        if not self.hop_counts:
            return float("nan")
        return float(np.mean(self.hop_counts))

    @property
    def delivered_fraction(self) -> float:
        """Fraction of *resolved* packets that were fully delivered.

        ``delivered / (delivered + lost)`` — a packet counts against
        this only once it is abandoned for good (retry budget
        exhausted, or an endpoint switch died); packets still queued,
        in flight or awaiting a retry at the end of the window are
        unresolved and excluded, like the queue backlog.  1.0 for any
        fault-free run.
        """
        resolved = self.delivered_packets + self.lost_packets
        return self.delivered_packets / resolved if resolved else 1.0

    @property
    def active_set_occupancy(self) -> float:
        """Fraction of active worms the fast-path scheduler scanned.

        ``visited / active`` over the measurement window — 1.0 means the
        quiescence tracking saved nothing, small values mean most worms
        sat blocked (or streaming steadily elsewhere) while the
        scheduler skipped them.  ``nan`` when no telemetry was recorded
        (reference path, or an idle window).
        """
        if self.sched_active_worms <= 0:
            return float("nan")
        return self.sched_visited_worms / self.sched_active_worms

    @property
    def vec_flits_per_clock(self) -> float:
        """Mean flits the batched body phase moved per clock.

        Batch-size telemetry of the struct-of-arrays engine (``nan``
        on the scalar paths) — large values mean each numpy scatter
        amortized over many flits.
        """
        if self.vec_clocks <= 0:
            return float("nan")
        return self.vec_moved_flits / self.vec_clocks

    def canonical_digest(self) -> str:
        """SHA-256 over every *simulated-physics* field of this snapshot.

        Two runs are behaviourally identical iff their digests match:
        the hash covers all per-channel/per-switch flit counters, every
        packet counter, the full latency/hop sample tuples, the
        timeline, the queue backlog and the reconfiguration records.
        Engine bookkeeping that does not describe the simulated machine
        (the topology object, active-set scheduler telemetry) is
        excluded — the differential harness uses this to compare the
        fast-path and reference engines byte for byte.
        """
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.channel_flits, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.consumed_flits, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.injected_flits, dtype=np.int64).tobytes())
        payload = (
            self.clocks,
            self.generated_packets,
            self.dropped_packets,
            self.delivered_packets,
            self.latencies,
            self.header_latencies,
            self.hop_counts,
            self.queue_backlog,
            self.timeline,
            self.fault_drops,
            self.retries,
            self.lost_packets,
            self.corrupted_deliveries,
            self.reconfigurations,
        )
        h.update(repr(payload).encode())
        return h.hexdigest()

    def statistical_fingerprint(self) -> str:
        """Digest of the *distributional* result, for relaxed engines.

        Batch-mode results satisfy a statistical contract — fixed
        aggregate distributions, not per-draw RNG order — so their
        identity is the order-invariant aggregate payload: totals plus
        the *sorted* latency/header-latency/hop multisets.  Two batch
        runs with the same seed produce the same fingerprint (the
        engine is deterministic), but a fingerprint deliberately cannot
        be compared against a :meth:`canonical_digest` — the ``stat1-``
        prefix keeps ledgers and campaign artefacts honest about which
        equivalence tier a result was produced under.
        """
        h = hashlib.sha256()
        h.update(b"repro-statistical-contract-v1\x00")
        payload = (
            self.clocks,
            self.generated_packets,
            self.dropped_packets,
            self.delivered_packets,
            int(self.channel_flits.sum()),
            int(self.consumed_flits.sum()),
            int(self.injected_flits.sum()),
            tuple(sorted(self.latencies)),
            tuple(sorted(self.header_latencies)),
            tuple(sorted(self.hop_counts)),
            self.queue_backlog,
            self.fault_drops,
            self.retries,
            self.lost_packets,
            self.corrupted_deliveries,
            len(self.reconfigurations),
        )
        h.update(repr(payload).encode())
        return "stat1-" + h.hexdigest()

    # -- channel-level views (consumed by repro.metrics) ----------------
    def channel_utilization(self) -> np.ndarray:
        """Per-channel flits/clock over the window."""
        return self.channel_flits / float(self.clocks)

    def throughput_series(self) -> List[Tuple[int, float]]:
        """Windowed accepted traffic over time (warmup-adequacy check).

        Each entry is ``(window clock, flits/clock/node over the
        interval ending there)``; a warmed-up, stable run shows a flat
        series.  Empty unless the collector recorded a timeline.
        """
        out: List[Tuple[int, float]] = []
        prev_t, prev_c = 0, 0
        n = self.topology.n
        for t, consumed in self.timeline:
            dt = t - prev_t
            if dt > 0:
                out.append((t, (consumed - prev_c) / (dt * n)))
            prev_t, prev_c = t, consumed
        return out

    def throughput_stability(self) -> float:
        """Relative spread of the second half of the throughput series.

        ``max/min - 1`` over the later half (0 = perfectly flat;
        ``nan`` without a timeline) — a quick "did we measure at steady
        state?" indicator.
        """
        series = self.throughput_series()
        half = [v for _t, v in series[len(series) // 2 :] if v > 0]
        if len(half) < 2:
            return float("nan")
        return max(half) / min(half) - 1.0

    def summary(self) -> Dict[str, float]:
        """Compact dict for reports and CSV rows."""
        return {
            "clocks": float(self.clocks),
            "accepted_traffic": self.accepted_traffic,
            "offered_traffic": self.offered_traffic,
            "avg_latency": self.average_latency,
            "p99_latency": self.p99_latency,
            "avg_hops": self.average_hops,
            "delivered_packets": float(self.delivered_packets),
            "generated_packets": float(self.generated_packets),
            "queue_backlog": float(self.queue_backlog),
            "delivered_fraction": self.delivered_fraction,
            "fault_drops": float(self.fault_drops),
            "retries": float(self.retries),
            "lost_packets": float(self.lost_packets),
        }
