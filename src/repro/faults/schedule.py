"""Deterministic fault schedules with a connectivity guard.

A :class:`FaultSchedule` is a sorted sequence of :class:`FaultEvent`
entries — permanent link failures, transient link flaps (a DOWN edge
later matched by an UP edge), and switch failures — pinned to absolute
simulator clocks.  Two properties make schedules safe to hand to the
cycle-accurate engine:

* **determinism** — :meth:`FaultSchedule.random` derives everything
  from one seed, so the same seed reproduces the same faults down to
  the clock, which keeps fault campaigns paired across algorithms and
  byte-reproducible across runs;
* **the connectivity guard** — :meth:`FaultSchedule.validate` replays
  the events against the topology and raises :class:`PartitionError`
  for any schedule that would disconnect the surviving switches.  Link
  checks reuse the single-pass Tarjan bridge finder
  (:func:`repro.topology.validation.find_bridges`) shared with
  :mod:`repro.analysis.resilience`; switch checks BFS the survivor
  graph.  Tree-based routing recovers from *any* irregularity, but no
  routing recovers from a partition — such schedules are user errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.topology.graph import Topology
from repro.topology.validation import find_bridges
from repro.util.rng import RngLike, as_generator

LINK_DOWN = "link_down"
LINK_UP = "link_up"
SWITCH_DOWN = "switch_down"
KINDS = (LINK_DOWN, LINK_UP, SWITCH_DOWN)


class PartitionError(ValueError):
    """A fault schedule would disconnect the surviving network."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault transition at an absolute simulator clock."""

    cycle: int
    kind: str
    link: Optional[Tuple[int, int]] = None
    switch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.cycle < 0:
            raise ValueError("fault cycle must be >= 0")
        if self.kind in (LINK_DOWN, LINK_UP):
            if self.link is None or self.switch is not None:
                raise ValueError(f"{self.kind} events need a link (only)")
            a, b = self.link
            object.__setattr__(
                self, "link", (a, b) if a < b else (b, a)
            )
        else:
            if self.switch is None or self.link is not None:
                raise ValueError(f"{self.kind} events need a switch (only)")

    def describe(self) -> str:
        """One-line human description ("clock 3000: link (2,7) DOWN")."""
        what = (
            f"switch {self.switch}"
            if self.kind == SWITCH_DOWN
            else f"link {self.link}"
        )
        edge = "UP" if self.kind == LINK_UP else "DOWN"
        return f"clock {self.cycle}: {what} {edge}"


def _surviving_links(
    topology: Topology,
    dead_links: Set[Tuple[int, int]],
    dead_switches: Set[int],
) -> List[Tuple[int, int]]:
    return [
        (u, v)
        for u, v in topology.links
        if (u, v) not in dead_links
        and u not in dead_switches
        and v not in dead_switches
    ]


def _live_connected(
    topology: Topology,
    dead_links: Set[Tuple[int, int]],
    dead_switches: Set[int],
) -> bool:
    """Are all surviving switches mutually reachable over surviving links?"""
    live = [v for v in range(topology.n) if v not in dead_switches]
    if len(live) <= 1:
        return True
    adj: List[List[int]] = [[] for _ in range(topology.n)]
    for u, v in _surviving_links(topology, dead_links, dead_switches):
        adj[u].append(v)
        adj[v].append(u)
    seen = {live[0]}
    stack = [live[0]]
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(live)


class FaultSchedule:
    """An ordered, connectivity-checked fault plan for one topology.

    Parameters
    ----------
    topology:
        The (pristine) network the schedule applies to.
    events:
        Any iterable of :class:`FaultEvent`; stored sorted by cycle
        (UP edges before DOWN edges at equal cycles, so a same-clock
        flap hand-over never transiently partitions).
    check:
        Run :meth:`validate` on construction (default).  Disable only
        for deliberately partitioning schedules in tests.
    """

    def __init__(
        self,
        topology: Topology,
        events: Iterable[FaultEvent],
        check: bool = True,
    ) -> None:
        self.topology = topology
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.cycle, KINDS.index(e.kind) != 1))
        )
        if check:
            self.validate()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> str:
        """Multi-line human rendering of the whole schedule."""
        if not self.events:
            return "(empty fault schedule)"
        return "\n".join(e.describe() for e in self.events)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Replay the schedule; raise on malformed or partitioning plans.

        Checks, per event: the link/switch exists and is in the right
        state for the transition, and — for DOWN events — the surviving
        switches stay mutually connected.  Link removals are screened
        with the Tarjan bridge finder on the survivor graph; switch
        removals with a BFS.
        """
        topo = self.topology
        link_set = set(topo.links)
        dead_links: Set[Tuple[int, int]] = set()
        dead_switches: Set[int] = set()
        for ev in self.events:
            if ev.kind == LINK_DOWN:
                if ev.link not in link_set:
                    raise ValueError(f"{ev.describe()}: no such link")
                if ev.link in dead_links:
                    raise ValueError(f"{ev.describe()}: link already down")
                u, v = ev.link
                if u in dead_switches or v in dead_switches:
                    raise ValueError(
                        f"{ev.describe()}: an endpoint switch is down"
                    )
                survivor = Topology(
                    topo.n, _surviving_links(topo, dead_links, dead_switches)
                )
                if ev.link in find_bridges(survivor):
                    raise PartitionError(
                        f"{ev.describe()}: removing a bridge link would "
                        f"partition the surviving network"
                    )
                dead_links.add(ev.link)
            elif ev.kind == LINK_UP:
                if ev.link not in dead_links:
                    raise ValueError(f"{ev.describe()}: link is not down")
                u, v = ev.link
                if u in dead_switches or v in dead_switches:
                    raise ValueError(
                        f"{ev.describe()}: an endpoint switch is down"
                    )
                dead_links.discard(ev.link)
            else:  # SWITCH_DOWN
                if not (0 <= ev.switch < topo.n):
                    raise ValueError(f"{ev.describe()}: no such switch")
                if ev.switch in dead_switches:
                    raise ValueError(f"{ev.describe()}: switch already down")
                if not _live_connected(
                    topo, dead_links, dead_switches | {ev.switch}
                ):
                    raise PartitionError(
                        f"{ev.describe()}: removing the switch would "
                        f"partition the surviving network"
                    )
                dead_switches.add(ev.switch)

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        topology: Topology,
        *,
        permanent_links: int = 2,
        link_flaps: int = 0,
        switch_failures: int = 0,
        window: Tuple[int, int] = (0, 10_000),
        flap_duration: int = 1_000,
        rng: RngLike = 0,
    ) -> "FaultSchedule":
        """Draw a seed-deterministic schedule that never partitions.

        Victims are chosen chronologically against the already-degraded
        survivor graph: candidate links exclude current bridges (Tarjan
        pass per event) and candidate switches are screened by BFS, so
        the guard holds by construction.  A flap whose link loses an
        endpoint switch before its UP edge has no UP edge: the link
        stays dead with the switch.  Raises ``ValueError`` when the
        topology cannot absorb the requested fault count.
        """
        gen = as_generator(rng)
        lo, hi = window
        if hi <= lo:
            raise ValueError("need a non-empty fault window")
        downs = (
            [LINK_DOWN] * permanent_links
            + ["flap"] * link_flaps
            + [SWITCH_DOWN] * switch_failures
        )
        if not downs:
            return cls(topology, [])
        cycles = sorted(
            int(c) for c in gen.integers(lo, hi, size=len(downs))
        )
        order = gen.permutation(len(downs))
        plan = [(cycles[i], downs[order[i]]) for i in range(len(downs))]
        plan.sort(key=lambda p: p[0])

        events: List[FaultEvent] = []
        dead_links: Set[Tuple[int, int]] = set()
        dead_switches: Set[int] = set()
        pending_ups: List[Tuple[int, Tuple[int, int]]] = []
        for cycle, kind in plan:
            # apply flap UP edges that precede this DOWN event
            for up_cycle, link in sorted(pending_ups):
                if up_cycle <= cycle:
                    dead_links.discard(link)
            pending_ups = [
                (c, l) for c, l in pending_ups if c > cycle
            ]
            if kind == SWITCH_DOWN:
                candidates = [
                    v
                    for v in range(topology.n)
                    if v not in dead_switches
                    and _live_connected(
                        topology, dead_links, dead_switches | {v}
                    )
                ]
                if not candidates:
                    raise ValueError(
                        "no switch can fail without partitioning the network"
                    )
                victim = candidates[int(gen.integers(len(candidates)))]
                dead_switches.add(victim)
                events.append(
                    FaultEvent(cycle=cycle, kind=SWITCH_DOWN, switch=victim)
                )
                # a flapping link that loses an endpoint stays dead with
                # it: its pending UP edge is dropped.  Later draws see
                # the same survivors either way (a dead switch takes its
                # links with it), so the RNG stream is unchanged.
                for up_cycle, link in [p for p in pending_ups if victim in p[1]]:
                    pending_ups.remove((up_cycle, link))
                    events.remove(
                        FaultEvent(cycle=up_cycle, kind=LINK_UP, link=link)
                    )
            else:
                survivor = Topology(
                    topology.n,
                    _surviving_links(topology, dead_links, dead_switches),
                )
                removable = sorted(
                    set(survivor.links) - find_bridges(survivor)
                )
                if not removable:
                    raise ValueError(
                        "no link can fail without partitioning the network"
                    )
                link = removable[int(gen.integers(len(removable)))]
                dead_links.add(link)
                events.append(
                    FaultEvent(cycle=cycle, kind=LINK_DOWN, link=link)
                )
                if kind == "flap":
                    up_cycle = cycle + flap_duration
                    events.append(
                        FaultEvent(cycle=up_cycle, kind=LINK_UP, link=link)
                    )
                    pending_ups.append((up_cycle, link))
        return cls(topology, events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultSchedule({len(self.events)} events on {self.topology})"
