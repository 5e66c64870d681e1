"""Pre-flight certification of every table a fault schedule can induce.

A :class:`~repro.faults.schedule.FaultSchedule` drives the live
reconfiguration machinery through a sequence of degraded network
states; each state makes the
:class:`~repro.faults.controller.ReconfigurationController` rebuild and
swap in a fresh routing table mid-run.  :func:`preflight_schedule`
enumerates those states *statically*, rebuilds the routing for each,
and pushes every table through both :func:`certify_routing` and the
independent checker — so a schedule whose induced routing could not be
certified is rejected before any simulation cycles are burnt, and an
archival run can store the digest of every table it will ever install.

Rebuild + certification go through the controller's certify-once path
(:func:`~repro.faults.controller.certified_survivor`), so they happen
once per *distinct survivor topology* and builder per process, not once
per induced state: different fault events frequently collapse to the
same survivors (a switch death implies its incident links), and the
live run that follows the sweep installs the tables it certified
without certifying them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.faults.controller import certified_survivor, surviving_topology
from repro.faults.schedule import LINK_DOWN, LINK_UP, FaultSchedule


@dataclass(frozen=True)
class FaultState:
    """One cumulative degraded state a schedule passes through."""

    clock: int
    dead_links: Tuple[Tuple[int, int], ...]
    dead_switches: Tuple[int, ...]

    def describe(self) -> str:
        return (
            f"clock {self.clock}: dead links {list(self.dead_links)}, "
            f"dead switches {list(self.dead_switches)}"
        )


@dataclass(frozen=True)
class PreflightEntry:
    """Certified routing for one induced fault state."""

    state: FaultState
    routing_name: str
    certificate_digest: str


def induced_fault_states(schedule: FaultSchedule) -> List[FaultState]:
    """Every *distinct* degraded state the schedule steps through.

    Replays the events cumulatively (the same replay order the
    :class:`~repro.faults.runtime.FaultRuntime` uses) and records the
    state after each event; a state revisited later — e.g. after a link
    flap restores the link — is reported only once.
    """
    dead_links: set = set()
    dead_switches: set = set()
    states: List[FaultState] = []
    seen = set()
    for ev in schedule.events:
        if ev.kind == LINK_DOWN:
            dead_links.add(ev.link)
        elif ev.kind == LINK_UP:
            dead_links.discard(ev.link)
        else:
            dead_switches.add(ev.switch)
        key = (frozenset(dead_links), frozenset(dead_switches))
        if key in seen:
            continue
        seen.add(key)
        states.append(
            FaultState(
                clock=ev.cycle,
                dead_links=tuple(sorted(dead_links)),
                dead_switches=tuple(sorted(dead_switches)),
            )
        )
    return states


def preflight_schedule(
    schedule: FaultSchedule,
    builder,
    progress: Optional[Callable[[str], None]] = None,
) -> List[PreflightEntry]:
    """Certify the rebuilt routing for every state *schedule* induces.

    *builder* is either a
    :class:`~repro.faults.controller.ReconfigurationController` or a
    raw ``builder(sub_topology) -> RoutingFunction`` callable (the same
    signature the controller takes).  Each induced state's survivor
    topology is extracted, and the builder's routing on it is built,
    verified, certified and independently re-checked through the
    controller's memo; the first failing check raises.  States whose
    survivor is identical share one certification, and every entry
    carries its certificate digest — the digest the live run will log
    when it installs that table.
    """
    build = getattr(builder, "builder", builder)
    say = progress or (lambda msg: None)
    entries: List[PreflightEntry] = []
    for state in induced_fault_states(schedule):
        sub, _live = surviving_topology(
            schedule.topology, state.dead_links, state.dead_switches
        )
        routing, digest = certified_survivor(build, sub)
        say(f"[preflight] {state.describe()} -> {routing.name} {digest[:23]} ok")
        entries.append(PreflightEntry(state, routing.name, digest))
    return entries
