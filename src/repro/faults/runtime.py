"""The live fault driver: schedules, retries and table swaps.

:class:`FaultRuntime` is the object an engine steps once per clock
(``engine.attach_faults(runtime)``).  It owns the mutable fault state —
which links and switches are currently dead, which packets are waiting
out a retry backoff, and when the next routing-table swap is due — and
drives the engine exclusively through its ``_fault_*`` hooks, so the
same runtime works for both the base wormhole engine and the
virtual-channel engine.

Per clock, in order:

1. **retries** — fault-dropped packets whose backoff expired are
   re-enqueued at their source (same logical id, same generation time,
   full original length);
2. **events** — due :class:`~repro.faults.schedule.FaultEvent` entries
   fire: links/switches die (crossing worms dropped or truncated per
   the ``policy``) or revive; every DOWN/UP transition arms a
   reconfiguration ``drain_clocks`` ahead;
3. **swap** — once the drain window closes, the
   :class:`~repro.faults.controller.ReconfigurationController` rebuilds
   and re-verifies routing on the survivor graph, the engine swaps
   tables atomically and ejects epoch-nonconforming worms (which enter
   the retry path like any other fault drop).

Every dropped packet ends in exactly one of two terminal states:
*delivered* (a later retry got through) or *lost* (retry budget
exhausted, retries disabled, or an endpoint switch died) — which is
what makes :attr:`SimulationStats.delivered_fraction` well defined.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.controller import ReconfigurationController
from repro.faults.schedule import LINK_DOWN, LINK_UP, FaultSchedule

#: Fault policies for worms caught crossing a dying link.
FAULT_POLICIES = ("drop", "drain")


@dataclass(frozen=True)
class RetryPolicy:
    """Source-side retry with capped exponential backoff.

    A packet's *k*-th retry is re-enqueued ``min(backoff_cap,
    backoff_base * 2**k)`` clocks after the drop — long enough for the
    post-fault reconfiguration to land before most retries re-enter,
    short enough to measure recovery latency meaningfully.
    """

    max_retries: int = 8
    backoff_base: int = 64
    backoff_cap: int = 2048

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.backoff_base <= 0 or self.backoff_cap <= 0:
            raise ValueError("retry policy parameters must be positive")

    def delay(self, attempt: int) -> int:
        """Backoff before re-injection number *attempt* (0-based)."""
        return min(self.backoff_cap, self.backoff_base * (2 ** attempt))


@dataclass(frozen=True)
class ReconfigurationRecord:
    """One completed online routing-table swap (for the run's stats).

    ``certificate_digest`` / ``certificate_checked`` record the
    deadlock-freedom certificate the controller emitted for the
    installed table and whether the *independent* checker
    (:mod:`repro.statics.check`) re-validated it.  The controller
    certifies every rebuild, so every swap it performs sets both.
    """

    trigger_clock: int
    swap_clock: int
    routing_name: str
    ejected_worms: int
    cancelled_packets: int
    verified: bool
    certificate_digest: str = ""
    certificate_checked: bool = False


class FaultRuntime:
    """Live fault injection + reconfiguration state for one engine run.

    Parameters
    ----------
    schedule:
        The (validated) :class:`FaultSchedule` to execute.
    controller:
        A :class:`ReconfigurationController`, or ``None`` to inject
        faults *without* reconfiguring (the degraded-tables baseline;
        pair it with ``max_stall_clocks`` to catch the resulting
        stalls).
    retry:
        A :class:`RetryPolicy`, or ``None`` to count every fault drop
        as lost immediately.
    policy:
        ``"drop"`` (abort crossing worms instantly) or ``"drain"``
        (keep the fragment beyond the break draining; see the engine's
        ``_fault_kill_link``).
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        controller: Optional[ReconfigurationController] = None,
        retry: Optional[RetryPolicy] = RetryPolicy(),
        policy: str = "drop",
    ) -> None:
        if policy not in FAULT_POLICIES:
            raise ValueError(f"fault policy must be one of {FAULT_POLICIES}")
        self.schedule = schedule
        self.controller = controller
        self.retry = retry
        self.policy = policy
        self.dead_links: set = set()
        self.dead_switches: set = set()
        #: completed :class:`ReconfigurationRecord` entries, in order
        self.records: List[ReconfigurationRecord] = []
        self._event_idx = 0
        self._swap_due: Optional[int] = None
        self._trigger_clock: Optional[int] = None
        # (due clock, tie-break seq, (src, dst, length, logical_id,
        #  attempts, t_gen)) — a plain heap keeps retries deterministic
        self._retry_heap: List[Tuple[int, int, Tuple[int, ...]]] = []
        self._retry_seq = 0

    # ------------------------------------------------------------------
    def on_clock(self, engine) -> None:
        """Advance the fault machinery by one clock (engine hook)."""
        clock = engine.clock
        self._release_retries(engine, clock)
        self._fire_events(engine, clock)
        if self._swap_due is not None and clock >= self._swap_due:
            self._swap(engine, clock)

    def on_packet_failure(self, engine, worm) -> None:
        """A packet left the network un-delivered (engine hook).

        Called for worms dropped at a kill, fragments that finished
        draining (``drain`` policy), worms ejected at a table swap and
        queued packets cancelled there.  Routes the packet to the retry
        heap or declares it lost.
        """
        engine.stats.on_fault_drop()
        self._handle_failure(engine, worm)

    # ------------------------------------------------------------------
    def _release_retries(self, engine, clock: int) -> None:
        heap = self._retry_heap
        while heap and heap[0][0] <= clock:
            _due, _seq, (src, dst, length, logical_id, attempts, t_gen) = (
                heapq.heappop(heap)
            )
            if src in self.dead_switches or dst in self.dead_switches:
                engine.stats.on_lost()
                continue
            engine._fault_requeue(
                src, dst, length, logical_id=logical_id,
                attempts=attempts, t_gen=t_gen,
            )
            engine.stats.on_retry()

    def _fire_events(self, engine, clock: int) -> None:
        events = self.schedule.events
        fired = False
        while self._event_idx < len(events) and events[self._event_idx].cycle <= clock:
            ev = events[self._event_idx]
            self._event_idx += 1
            fired = True
            if ev.kind == LINK_DOWN:
                self.dead_links.add(ev.link)
                removed = engine._fault_kill_link(ev.link, self.policy)
            elif ev.kind == LINK_UP:
                self.dead_links.discard(ev.link)
                engine._fault_restore_link(ev.link)
                removed = []
            else:  # SWITCH_DOWN
                self.dead_switches.add(ev.switch)
                removed = engine._fault_kill_switch(ev.switch, self.policy)
            for w in removed:
                self.on_packet_failure(engine, w)
        if fired and self.controller is not None:
            # (re)arm the swap; a second fault inside the drain window
            # simply pushes the swap out so one rebuild covers both
            self._swap_due = clock + self.controller.drain_clocks
            if self._trigger_clock is None:
                self._trigger_clock = clock

    def _swap(self, engine, clock: int) -> None:
        tag = f"swap@{clock}"
        routing = self.controller.rebuild(
            self.schedule.topology, self.dead_links, self.dead_switches, tag=tag
        )
        engine._fault_swap_routing(routing)
        ejected, cancelled = engine._fault_eject_stranded()
        for w in ejected:
            self.on_packet_failure(engine, w)
        for w in cancelled:
            self.on_packet_failure(engine, w)
        self.records.append(
            ReconfigurationRecord(
                trigger_clock=(
                    self._trigger_clock if self._trigger_clock is not None else clock
                ),
                swap_clock=clock,
                routing_name=routing.name,
                ejected_worms=len(ejected),
                cancelled_packets=len(cancelled),
                verified=bool(routing.meta.get("verified", False)),
                certificate_digest=str(
                    routing.meta.get("certificate_digest", "")
                ),
                certificate_checked=bool(
                    routing.meta.get("certificate_checked", False)
                ),
            )
        )
        self._swap_due = None
        self._trigger_clock = None

    def _handle_failure(self, engine, worm) -> None:
        if (
            self.retry is None
            or worm.attempts >= self.retry.max_retries
            or worm.src in self.dead_switches
            or worm.dst in self.dead_switches
        ):
            engine.stats.on_lost()
            return
        due = engine.clock + self.retry.delay(worm.attempts)
        heapq.heappush(
            self._retry_heap,
            (
                due,
                self._retry_seq,
                (
                    worm.src,
                    worm.dst,
                    worm.full_length,
                    worm.logical_id,
                    worm.attempts + 1,
                    worm.t_gen,
                ),
            ),
        )
        self._retry_seq += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultRuntime({len(self.schedule)} events, policy={self.policy!r}, "
            f"dead_links={sorted(self.dead_links)}, "
            f"dead_switches={sorted(self.dead_switches)})"
        )
