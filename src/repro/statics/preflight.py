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

Rebuild + certification happen once per *distinct survivor topology*,
not once per induced state: different fault events frequently collapse
to the same survivors (a switch death implies its incident links), and
the controller would install byte-identical tables for them.  States
are deduped by the survivor's content digest, and an
:class:`~repro.experiments.artifacts.ArtifactCache` can additionally be
passed so repeated preflights (across runs or schedules) serve the
certificate bundle content-addressed instead of rebuilding.  The
independent re-check always runs — cached bytes get the same scrutiny
as fresh ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.controller import survivor_digest, surviving_topology
from repro.faults.schedule import LINK_DOWN, LINK_UP, FaultSchedule
from repro.routing.base import RoutingFunction
from repro.routing.verification import verify_routing
from repro.statics.certificates import CertificateBundle, certify_routing
from repro.statics.check import CheckReport, recheck
from repro.topology.graph import Topology


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
    bundle: CertificateBundle
    report: CheckReport


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
    strict: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    cache=None,
    cache_label: str = "preflight",
) -> List[PreflightEntry]:
    """Certify the rebuilt routing for every state *schedule* induces.

    *builder* is either a
    :class:`~repro.faults.controller.ReconfigurationController` or a
    raw ``builder(sub_topology) -> RoutingFunction`` callable (the same
    signature the controller takes).  Each induced state's survivor
    topology is extracted, the builder rebuilds routing on it, and the
    result is certified and independently re-checked.  With *strict*
    (default) the first failing certificate raises
    :class:`~repro.statics.check.CertificateError`; otherwise failures
    are returned in the entries' reports.

    States whose survivor topology is identical (by content digest)
    share one rebuild + certification: every entry is still returned,
    carrying the shared bundle.  *cache* optionally names an
    :class:`~repro.experiments.artifacts.ArtifactCache` (anything with
    its ``certificate(key, build)`` protocol); bundles are then served
    content-addressed under ``{survivor digest, cache_label}``.
    **cache_label must distinguish builders**: two different builders
    preflighted against the same store with the same label would alias
    — pass the algorithm name (the certify CLI does).  The independent
    check runs on served bundles too; only rebuild + certification are
    skipped.
    """
    build: Callable[[Topology], RoutingFunction] = getattr(
        builder, "builder", builder
    )
    say = progress or (lambda msg: None)
    entries: List[PreflightEntry] = []
    certified: Dict[str, Tuple[str, CertificateBundle]] = {}
    for state in induced_fault_states(schedule):
        sub, _live = surviving_topology(
            schedule.topology, state.dead_links, state.dead_switches
        )
        digest = survivor_digest(sub)
        hit = certified.get(digest)
        if hit is None:
            def _certified_bundle() -> CertificateBundle:
                routing = verify_routing(build(sub))
                return certify_routing(routing)

            if cache is not None:
                bundle = cache.certificate(
                    {"topology": digest, "algorithm": cache_label,
                     "purpose": "preflight"},
                    _certified_bundle,
                )
            else:
                bundle = _certified_bundle()
            hit = (bundle.algorithm, bundle)
            certified[digest] = hit
        else:
            say(f"[preflight] {state.describe()} -> survivor already certified")
        routing_name, bundle = hit
        if strict:
            report = recheck(bundle)
        else:
            from repro.statics.check import check_certificate

            report = check_certificate(bundle)
        say(
            f"[preflight] {state.describe()} -> {routing_name} "
            f"{bundle.digest[:23]} {'ok' if report.ok else 'FAILED'}"
        )
        entries.append(
            PreflightEntry(
                state=state,
                routing_name=routing_name,
                bundle=bundle,
                report=report,
            )
        )
    return entries
