"""Turn-optimality auditor: how over-conservative is a prohibited-turn set?

DOWN/UP prohibits 18 of the 56 direction-class turns (Definition 8 /
Section 4.3).  That count is chosen once, for *all* irregular networks;
on any concrete topology some prohibitions may be vacuous (the class
pair is never realized by actual channels) or redundant (dropping them
keeps the Theorem-1 certification intact).  This module quantifies the
gap per topology.

Two different criteria are in play, and conflating them is the classic
mistake:

* The **existence** criterion (:func:`repro.statics.existence.decide_existence`)
  asks whether *some* deadlock-free routing exists.  It is monotone in
  the allowed-turn set — relaxing a prohibition can only help — so
  greedily relaxing under it would declare *every* prohibition
  redundant.  It is the right headline check ("is this PT usable at
  all?") but the wrong relaxation objective.
* The **certification** criterion (Theorem 1, as
  :func:`repro.statics.existence.full_relation_acyclic`) asks whether
  the *full* allowed-turn dependency digraph is acyclic — i.e. whether
  *every* routing built under the PT is automatically deadlock-free,
  which is the guarantee DOWN/UP actually ships with (and what the
  emitted certificates re-verify).  This is *anti*-monotone in
  relaxation, so "how few prohibitions keep it?" is a meaningful
  minimum.

:func:`audit_topology` therefore reports, per topology: the existence
verdict under the full PT (re-verified through the independent
checker), and a greedy-relax minimization of the PT under the
certification criterion — yielding the necessary subset, the
individually-droppable ("provably redundant") turns, and the
``slack = (prohibited - necessary) / prohibited`` headline number.
Greedy relaxation over a fixed turn order gives an *irreducible* set
(no single member can be dropped), not a guaranteed global minimum —
minimum acyclic relaxations are NP-hard in general — so ``necessary``
is an upper bound on the true minimum and ``slack`` a lower bound on
the true slack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Tuple

from repro.core.communication_graph import CommunicationGraph
from repro.core.coordinated_tree import TreeMethod, build_coordinated_tree
from repro.core.direction_graph import DOWN_UP_PROHIBITED_TURNS, Turn
from repro.core.directions import Direction
from repro.core.downup import down_up_turn_model
from repro.statics.certificates import compute_digest
from repro.statics.check import CheckReport, check_existence_report
from repro.statics.existence import (
    ExistenceReport,
    TurnSystem,
    decide_existence,
    full_relation_acyclic,
)

AUDIT_FORMAT = "repro-audit-v1"


def turn_name(turn: Turn) -> str:
    """Stable ``FROM->TO`` spelling of a class turn."""
    return f"{Direction(turn.frm).name}->{Direction(turn.to).name}"


def _sorted_turns(turns: FrozenSet[Turn]) -> List[Turn]:
    return sorted(turns, key=lambda t: (int(t.frm), int(t.to)))


@dataclass(frozen=True)
class TurnAuditReport:
    """Digest-stamped audit of one prohibited-turn set on one topology."""

    topology: str
    n: int
    num_links: int
    num_channels: int
    feasible: bool
    verdict: str
    full_relation_acyclic: bool
    witness_rechecked: bool
    unreachable_pairs: int
    prohibited: int
    realized_prohibited: int
    vacuous_prohibited: int
    necessary: int
    necessary_turns: Tuple[str, ...]
    redundant_turns: Tuple[str, ...]
    existence_digest: str
    digest: str = field(default="", compare=False)

    @property
    def slack_pct(self) -> float:
        """Share of the PT that the greedy minimization could drop."""
        if self.prohibited == 0:
            return 0.0
        return 100.0 * (self.prohibited - self.necessary) / self.prohibited

    def payload(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "format": AUDIT_FORMAT,
            "topology": self.topology,
            "n": self.n,
            "num_links": self.num_links,
            "num_channels": self.num_channels,
            "feasible": self.feasible,
            "verdict": self.verdict,
            "full_relation_acyclic": self.full_relation_acyclic,
            "witness_rechecked": self.witness_rechecked,
            "unreachable_pairs": self.unreachable_pairs,
            "prohibited": self.prohibited,
            "realized_prohibited": self.realized_prohibited,
            "vacuous_prohibited": self.vacuous_prohibited,
            "necessary": self.necessary,
            "necessary_turns": list(self.necessary_turns),
            "redundant_turns": list(self.redundant_turns),
            "existence_digest": self.existence_digest,
        }
        if self.digest:
            out["digest"] = self.digest
        return out

    def to_json(self) -> str:
        return json.dumps(self.payload(), separators=(",", ":"))

    @classmethod
    def from_payload(cls, data: Mapping[str, object]) -> "TurnAuditReport":
        if data.get("format") != AUDIT_FORMAT:
            raise ValueError(f"unsupported audit format {data.get('format')!r}")
        return cls(
            topology=str(data["topology"]),
            n=int(data["n"]),  # type: ignore[call-overload]
            num_links=int(data["num_links"]),  # type: ignore[call-overload]
            num_channels=int(data["num_channels"]),  # type: ignore[call-overload]
            feasible=bool(data["feasible"]),
            verdict=str(data["verdict"]),
            full_relation_acyclic=bool(data["full_relation_acyclic"]),
            witness_rechecked=bool(data["witness_rechecked"]),
            unreachable_pairs=int(data["unreachable_pairs"]),  # type: ignore[call-overload]
            prohibited=int(data["prohibited"]),  # type: ignore[call-overload]
            realized_prohibited=int(data["realized_prohibited"]),  # type: ignore[call-overload]
            vacuous_prohibited=int(data["vacuous_prohibited"]),  # type: ignore[call-overload]
            necessary=int(data["necessary"]),  # type: ignore[call-overload]
            necessary_turns=tuple(str(t) for t in data["necessary_turns"]),  # type: ignore[union-attr]
            redundant_turns=tuple(str(t) for t in data["redundant_turns"]),  # type: ignore[union-attr]
            existence_digest=str(data["existence_digest"]),
            digest=str(data.get("digest", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "TurnAuditReport":
        return cls.from_payload(json.loads(text))

    def summary(self) -> str:
        state = self.verdict if not self.feasible else (
            "feasible" if self.witness_rechecked else "feasible (UNCHECKED)"
        )
        return (
            f"audit[{self.topology}] {state}: {self.prohibited} prohibited "
            f"({self.vacuous_prohibited} vacuous), {self.necessary} "
            f"necessary, slack {self.slack_pct:.1f}%"
        )


def audit_topology(
    topology: object,
    name: str,
    prohibited: FrozenSet[Turn] = DOWN_UP_PROHIBITED_TURNS,
    recheck_witness: bool = True,
) -> TurnAuditReport:
    """Audit *prohibited* on *topology* (a :class:`~repro.topology.graph.Topology`).

    Builds the coordinated tree deterministically (method M1), derives
    the DOWN/UP-style turn model under *prohibited* (without Phase-3
    releases — the audit measures the PT itself, not its local
    relaxations), decides existence, optionally re-verifies the
    resulting witness through the independent checker, and greedily
    minimizes the PT under the Theorem-1 certification criterion.
    """
    tree = build_coordinated_tree(topology, method=TreeMethod.M1)
    cg = CommunicationGraph.from_tree(tree)

    def system_for(pt: FrozenSet[Turn]) -> TurnSystem:
        tm = down_up_turn_model(cg, apply_phase3=False, prohibited=pt)
        return TurnSystem.from_turn_model(tm)

    base_tm = down_up_turn_model(cg, apply_phase3=False, prohibited=prohibited)
    system = TurnSystem.from_turn_model(base_tm)
    existence = decide_existence(system)

    witness_rechecked = False
    if recheck_witness:
        chk: CheckReport = check_existence_report(existence)
        witness_rechecked = chk.ok

    # vacuousness: prohibited class turns never realized by any channel
    # pair on this topology (uses the TurnModel introspection API)
    realized = base_tm.realized_class_turns()
    realized_prohibited = sum(
        1 for t in prohibited if (int(t.frm), int(t.to)) in realized
    )

    # greedy-relax under the certification criterion: deterministic
    # sorted order, drop a prohibition whenever the full relation stays
    # acyclic without it.  The result is irreducible (see module doc).
    necessary = set(prohibited)
    for turn in _sorted_turns(prohibited):
        trial = frozenset(necessary - {turn})
        if full_relation_acyclic(system_for(trial)):
            necessary.discard(turn)

    # provably redundant: individually droppable from the *full* PT
    # (order-independent, unlike the greedy trace)
    redundant = [
        turn
        for turn in _sorted_turns(prohibited)
        if full_relation_acyclic(system_for(frozenset(prohibited - {turn})))
    ]

    stats = existence.stats
    report = TurnAuditReport(
        topology=name,
        n=int(getattr(topology, "n")),
        num_links=len(getattr(topology, "links")),
        num_channels=system.num_channels,
        feasible=existence.verdict == "feasible",
        verdict=existence.verdict,
        full_relation_acyclic=bool(stats.get("full_relation_acyclic", False)),
        witness_rechecked=witness_rechecked,
        unreachable_pairs=int(stats.get("unreachable_pairs", 0)),  # type: ignore[call-overload]
        prohibited=len(prohibited),
        realized_prohibited=realized_prohibited,
        vacuous_prohibited=len(prohibited) - realized_prohibited,
        necessary=len(necessary),
        necessary_turns=tuple(turn_name(t) for t in _sorted_turns(frozenset(necessary))),
        redundant_turns=tuple(turn_name(t) for t in redundant),
        existence_digest=existence.digest,
    )
    return replace(report, digest=compute_digest(report.payload()))


def audit_existence(
    topology: object,
    prohibited: FrozenSet[Turn] = DOWN_UP_PROHIBITED_TURNS,
) -> ExistenceReport:
    """Just the existence decision for *prohibited* on *topology*.

    Convenience wrapper for callers that want the raw digest-stamped
    :class:`~repro.statics.existence.ExistenceReport` (e.g. to archive
    it) without the relaxation sweep.
    """
    tree = build_coordinated_tree(topology, method=TreeMethod.M1)
    cg = CommunicationGraph.from_tree(tree)
    tm = down_up_turn_model(cg, apply_phase3=False, prohibited=prohibited)
    return decide_existence(TurnSystem.from_turn_model(tm))
