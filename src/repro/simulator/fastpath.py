"""Fast-path scheduling infrastructure for the wormhole engines.

Both engines' seed step functions rescan every source queue and
re-evaluate the routing tables' candidate sets on every clock.  Two
observations make most of that work redundant without changing a single
committed flit:

* **Routing decisions are static between reconfiguration epochs.**
  Sun et al.'s DOWN/UP function (like every turn-model routing here) is
  a pure function of ``(input channel, destination)`` once the
  prohibited-turn releases are fixed, so the candidate sets can be
  memoized in a flat per-epoch table (:class:`DecisionCache`) — the same
  observation behind precomputed-table engines in InfiniBand-style
  deployments.  A live fault or an online table swap starts a new epoch:
  the cache is dropped *atomically with* the event that changed the
  tables, so no lookup can ever mix pre- and post-swap entries.

* **Idle sources need no per-clock attention.**  A source switch only
  matters to the injection arbitration while it has a queued packet, a
  free injection port and a routing-ready header.  The
  :class:`InjectionWheel` tracks exactly that set: a queue mutation that
  changes the front packet wakes a source (:class:`NotifyingDeque`; an
  append behind an existing front changes nothing), a busy
  injection port parks it until the credit comes back (the engine wakes
  it when the port frees), and a header still inside its routing delay
  parks it on a timer keyed by the **engine clock** — the wheel never
  keeps a private time counter, so retry re-injections scheduled by
  :class:`repro.faults.FaultRuntime` (also engine-clocked) and wheel
  wakeups can never drift apart.  A source whose ready header lost
  arbitration with every first-hop candidate busy is *blocked*: it
  still counts as a request, but is not re-examined until one of those
  channels is released.

Everything in this module is bookkeeping only: the engines' fast paths
consume these structures but commit flits with the exact same rules as
the seed implementations, which is what the differential golden suite
(``tests/test_engine_equivalence.py``) locks down byte-for-byte.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import deque
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "DecisionCache",
    "InjectionWheel",
    "NotifyingDeque",
    "ObservedSet",
]


class DecisionCache:
    """Flat per-epoch routing-decision table.

    Each epoch filters the engine's dead channels out of every
    candidate set of a :class:`~repro.routing.base.RoutingFunction`
    once (``sets``, indexed like ``candidate_sets``); rows are then
    gathered lazily per destination from the routing's ``next_idx`` /
    ``first_idx`` arrays, so the hot loop performs a single list lookup
    instead of nested indexing plus a per-candidate dead-set membership
    test.

    ``epoch`` increments on every :meth:`invalidate` — a table swap or a
    dead-channel change — and every cached row is dropped in the same
    call, which is what makes the swap atomic from the engine's point of
    view: there is no window in which new tables coexist with old cached
    decisions.
    """

    __slots__ = (
        "epoch", "routing", "sets", "_dead", "_objects", "_next_rows", "_first_rows"
    )

    def __init__(self, routing, dead_channels) -> None:
        self.epoch = 0
        self._dead = dead_channels
        self.routing = routing
        self.sets: Tuple[Tuple[int, ...], ...] = ()
        self._next_rows: List[Optional[List[Tuple[int, ...]]]] = []
        self._first_rows: List[Optional[List[Tuple[int, ...]]]] = []
        self.attach(routing)

    def attach(self, routing) -> None:
        """Point the cache at (possibly new) tables and start a new epoch."""
        self.routing = routing
        self.invalidate()

    def invalidate(self) -> None:
        """Drop every cached row and bump the epoch (atomic swap point)."""
        self.epoch += 1
        dead = self._dead
        sets = self.routing.candidate_sets
        if dead:
            sets = tuple(
                tuple([c for c in cands if c not in dead]) if cands else cands
                for cands in sets
            )
        self.sets = sets
        self._objects = np.fromiter(sets, dtype=object, count=len(sets))
        self._next_rows = [None] * self.routing.next_idx.shape[0]
        self._first_rows = [None] * self.routing.first_idx.shape[0]

    # Hot loops read ``_next_rows`` / ``_first_rows`` directly and only
    # call these on a miss, keeping the steady-state cost to one list
    # index per decision.
    def next_row(self, dest: int) -> List[Tuple[int, ...]]:
        """Candidate outputs per input channel toward *dest* (dead-free)."""
        return self._row(self._next_rows, self.routing.next_idx, dest)

    def first_row(self, dest: int) -> List[Tuple[int, ...]]:
        """Candidate first channels per source toward *dest* (dead-free)."""
        return self._row(self._first_rows, self.routing.first_idx, dest)

    def _row(self, rows: list, index, dest: int) -> List[Tuple[int, ...]]:
        row = rows[dest]
        if row is None:
            row = rows[dest] = self._objects[index[dest]].tolist()
        return row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        filled = sum(r is not None for r in self._next_rows)
        return (
            f"DecisionCache(epoch={self.epoch}, "
            f"rows={filled}/{len(self._next_rows)})"
        )


class InjectionWheel:
    """Event wheel over source switches with pending injections.

    ``pending`` holds the sources the injection arbitration must look at
    this clock.  Sources leave the set in three ways: *parked on time*
    (the queue front's ``head_ready_at`` lies in the future — a timer
    keyed by the engine clock re-adds them exactly when due), *parked
    on credit* (the injection port is held by a worm still feeding — the
    engine wakes them when the port frees) or *blocked* (the ready
    header's first-hop candidates are all busy — the engine wakes them
    when one is released).  Blocked sources are kept sorted in
    ``blocked``: they still request every clock, so the engine needs
    their count and their rank among the requesting sources.  Queue
    mutations from any layer (traffic generation, fault-retry
    re-injection, tests pushing worms directly) that change a queue's
    front wake its source through :class:`NotifyingDeque`; waking or
    sleeping a source also unblocks it, so a source is never both
    pending and blocked.

    The wheel deliberately has **no clock of its own**: every timer
    carries an absolute engine-clock deadline and :meth:`advance` is
    handed ``engine.clock``, so wheel wakeups and the engine-clocked
    retry backoff of :class:`repro.faults.FaultRuntime` can never
    disagree about "now".
    """

    __slots__ = ("pending", "blocked", "_timers")

    def __init__(self) -> None:
        self.pending: set = set()
        self.blocked: List[int] = []  # sorted source ids
        self._timers: List[Tuple[int, int]] = []  # (due engine clock, src)

    def wake(self, src: int) -> None:
        """Make *src* visible to the next injection arbitration."""
        self.pending.add(src)
        if self.blocked:
            self._unblock(src)

    def sleep(self, src: int) -> None:
        """Remove *src* until something wakes it (queue empty / no credit)."""
        self.pending.discard(src)
        if self.blocked:
            self._unblock(src)

    def block(self, src: int) -> None:
        """Park *src* until one of its first-hop channels is released."""
        self.pending.discard(src)
        insort(self.blocked, src)

    def wake_blocked(self) -> None:
        """Make every blocked source pending again (epoch change)."""
        self.pending.update(self.blocked)
        self.blocked.clear()

    def _unblock(self, src: int) -> None:
        blocked = self.blocked
        i = bisect_left(blocked, src)
        if i < len(blocked) and blocked[i] == src:
            del blocked[i]

    def park_until(self, src: int, due_clock: int) -> None:
        """Park *src* until the engine clock reaches *due_clock*."""
        self.pending.discard(src)
        heapq.heappush(self._timers, (due_clock, src))

    def advance(self, clock: int) -> None:
        """Wake every source whose timer expired at engine-clock *clock*."""
        timers = self._timers
        pending = self.pending
        while timers and timers[0][0] <= clock:
            src = heapq.heappop(timers)[1]
            pending.add(src)
            if self.blocked:
                self._unblock(src)  # a stale timer of a blocked source

    @property
    def parked(self) -> int:
        """Sources currently waiting on a timer (diagnostics)."""
        return len(self._timers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InjectionWheel(pending={sorted(self.pending)}, "
            f"blocked={self.blocked}, timers={len(self._timers)})"
        )


class NotifyingDeque(deque):
    """A source queue that keeps the :class:`InjectionWheel` in sync.

    Every mutation that can change the queue's emptiness (or its front
    packet) signals the wheel, so external writers — tests scripting a
    worm with ``sim.queues[s].append(w)``, the fault layer re-enqueueing
    retries — need no knowledge of the scheduler.  Only those changes
    signal: an append to a non-empty queue leaves the source in whatever
    state its front put it (pending, parked, asleep or blocked).
    """

    def __init__(self, wheel: InjectionWheel, src: int) -> None:
        super().__init__()
        self.wheel = wheel
        self.src = src

    def append(self, item) -> None:
        deque.append(self, item)
        if len(self) == 1:  # a non-empty queue keeps its front
            self.wheel.wake(self.src)

    def appendleft(self, item) -> None:
        deque.appendleft(self, item)
        self.wheel.wake(self.src)

    def extend(self, items) -> None:
        deque.extend(self, items)
        if self:
            self.wheel.wake(self.src)

    def extendleft(self, items) -> None:
        deque.extendleft(self, items)
        if self:
            self.wheel.wake(self.src)

    def insert(self, index: int, item) -> None:
        deque.insert(self, index, item)
        self.wheel.wake(self.src)

    def pop(self):
        item = deque.pop(self)
        if self:
            self.wheel.wake(self.src)
        else:
            self.wheel.sleep(self.src)
        return item

    def popleft(self):
        item = deque.popleft(self)
        # the front changed: wake for re-evaluation, or sleep when drained
        if self:
            self.wheel.wake(self.src)
        else:
            self.wheel.sleep(self.src)
        return item

    def remove(self, item) -> None:
        deque.remove(self, item)
        if self:
            self.wheel.wake(self.src)
        else:
            self.wheel.sleep(self.src)

    def clear(self) -> None:
        deque.clear(self)
        self.wheel.sleep(self.src)


class ObservedSet(set):
    """A set that reports membership changes (the dead-channel set).

    The engines expose ``dead_channels`` as a plain mutable set; fault
    hooks and tests add and discard channels directly.  Routing a change
    notification through this subclass lets the engine invalidate its
    :class:`DecisionCache` in the same bytecode region as the mutation —
    the cache can never serve a candidate set filtered against a stale
    dead-channel view.
    """

    def __init__(self, on_change: Callable[[], None], iterable=()) -> None:
        super().__init__(iterable)
        self._on_change = on_change

    def add(self, item) -> None:
        if item not in self:
            set.add(self, item)
            self._on_change()

    def discard(self, item) -> None:
        if item in self:
            set.discard(self, item)
            self._on_change()

    def remove(self, item) -> None:
        set.remove(self, item)
        self._on_change()

    def update(self, *iterables) -> None:
        before = len(self)
        set.update(self, *iterables)
        if len(self) != before:
            self._on_change()

    def difference_update(self, *iterables) -> None:
        before = len(self)
        set.difference_update(self, *iterables)
        if len(self) != before:
            self._on_change()

    def clear(self) -> None:
        if self:
            set.clear(self)
            self._on_change()

    def pop(self):
        item = set.pop(self)
        self._on_change()
        return item
