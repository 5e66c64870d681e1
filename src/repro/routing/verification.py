"""Machine verification of routing functions (Theorem 1, executable).

Every routing function constructed anywhere in this repository is passed
through :func:`verify_routing`, which asserts the two halves of the
paper's Theorem 1:

* **deadlock freedom** — the channel dependency graph restricted to the
  turn model is acyclic (Dally-Seitz sufficient condition for wormhole
  networks; equivalently "no turn cycle", Lemma 1);
* **connectivity** — under the turn restrictions, every ordered switch
  pair has at least one admissible path (and the routing tables expose a
  minimal one).

Because the checks run on the *instance* (a concrete topology and tree),
they also validate constructions whose global argument is reconstructed
rather than quoted — notably the L-turn baseline — and they catch the
paper's Section 4.3 transcription error (see
:mod:`repro.core.direction_graph`).

Failures raise :class:`VerificationError`, which carries a *structured*
payload (the offending channel-id cycle, the full unroutable pair list,
or the stranded state) in addition to the formatted message, so the
independent certificate checker (:mod:`repro.statics.check`), the
diagnostics, and the fault-runtime logs can consume verdicts
programmatically.  For positive evidence rather than a pass/fail
verdict, see :func:`repro.statics.certificates.certify_routing`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.channel_graph import find_turn_cycle


class VerificationError(AssertionError):
    """A routing function violates deadlock freedom or connectivity.

    Besides the human-readable message, the exception exposes:

    ``routing_name``
        Name of the offending routing function (when known).
    ``kind``
        One of ``"cycle"``, ``"unroutable"``, ``"stranded"``,
        ``"no-progress"`` (or ``None`` for free-form failures).
    ``cycle``
        The offending channel-id cycle (``kind == "cycle"``).
    ``unroutable``
        The complete list of unroutable ``(src, dest)`` pairs
        (``kind == "unroutable"``) — not just the first few shown in
        the message.
    ``stranded``
        A dict describing the en-route state that cannot make progress
        (``kind in ("stranded", "no-progress")``): destination, channel,
        remaining distance, and — for ``"no-progress"`` — the
        non-decreasing candidate.
    """

    def __init__(
        self,
        message: str,
        *,
        routing_name: Optional[str] = None,
        kind: Optional[str] = None,
        cycle: Optional[Sequence[int]] = None,
        unroutable: Optional[Sequence[Tuple[int, int]]] = None,
        stranded: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(message)
        self.routing_name = routing_name
        self.kind = kind
        self.cycle: Optional[List[int]] = (
            [int(c) for c in cycle] if cycle is not None else None
        )
        self.unroutable: Optional[List[Tuple[int, int]]] = (
            [(int(s), int(d)) for s, d in unroutable]
            if unroutable is not None
            else None
        )
        self.stranded: Optional[Dict[str, int]] = (
            dict(stranded) if stranded is not None else None
        )

    def payload(self) -> Dict[str, object]:
        """The structured verdict as a JSON-able dict (for logs)."""
        out: Dict[str, object] = {
            "message": str(self),
            "routing": self.routing_name,
            "kind": self.kind,
        }
        if self.cycle is not None:
            out["cycle"] = list(self.cycle)
        if self.unroutable is not None:
            out["unroutable"] = [list(p) for p in self.unroutable]
        if self.stranded is not None:
            out["stranded"] = dict(self.stranded)
        return out


def assert_deadlock_free(turn_model: TurnModel, name: str = "routing") -> None:
    """Raise :class:`VerificationError` if a turn cycle exists.

    The error message includes the offending channel cycle (switch path
    and per-channel classes) so a failure is directly debuggable; the
    raw channel-id cycle rides along as ``err.cycle``.
    """
    cycle = find_turn_cycle(turn_model)
    if cycle is None:
        return
    topo = turn_model.topology
    names = turn_model.class_names
    pretty = " -> ".join(
        f"<{topo.channel(c).start},{topo.channel(c).sink}>"
        f"[{names[turn_model.channel_class[c]]}]"
        for c in cycle
    )
    raise VerificationError(
        f"{name}: channel dependency graph has a cycle: {pretty}",
        routing_name=name,
        kind="cycle",
        cycle=cycle,
    )


def assert_connected(routing: RoutingFunction) -> None:
    """Raise :class:`VerificationError` unless all pairs are routable.

    The exception's ``unroutable`` attribute carries the *complete*
    ``(src, dest)`` pair list (the message shows only the first five).
    """
    n = routing.topology.n
    missing: List[Tuple[int, int]] = []
    for d in range(n):
        fh = routing.first_hops[d]
        for s in range(n):
            if s != d and not fh[s]:
                missing.append((s, d))
    if missing:
        raise VerificationError(
            f"{routing.name}: {len(missing)} unroutable pairs, e.g. "
            f"{missing[:5]}",
            routing_name=routing.name,
            kind="unroutable",
            unroutable=missing,
        )


def assert_progress(routing: RoutingFunction) -> None:
    """Raise unless every en-route state keeps a next hop (no stranding).

    For every destination ``d`` and channel ``c`` with finite remaining
    distance > 0, the candidate set must be non-empty and each candidate
    must strictly decrease the distance — together with acyclicity this
    rules out livelock for the adaptive simulator.  The exception's
    ``stranded`` dict identifies the offending state.
    """
    unreachable = RoutingFunction.UNREACHABLE
    for d, dist_row in enumerate(routing.dist):
        row = dist_row.tolist()
        nh = routing.next_hops[d]
        for c, opts in enumerate(nh):
            rem = row[c]
            if rem == 0 or rem == unreachable:
                continue
            if not opts:
                raise VerificationError(
                    f"{routing.name}: dest {d}, channel {c} at distance "
                    f"{rem} has no admissible next hop",
                    routing_name=routing.name,
                    kind="stranded",
                    stranded={"dest": d, "channel": c, "remaining": rem},
                )
            for b in opts:
                if row[b] != rem - 1:
                    raise VerificationError(
                        f"{routing.name}: dest {d}, hop {c}->{b} does not "
                        f"decrease distance ({rem} -> {row[b]})",
                        routing_name=routing.name,
                        kind="no-progress",
                        stranded={
                            "dest": d,
                            "channel": c,
                            "remaining": rem,
                            "candidate": int(b),
                            "candidate_remaining": row[b],
                        },
                    )


def verify_routing(routing: RoutingFunction) -> RoutingFunction:
    """Run all checks on *routing*; return it unchanged on success.

    Intended to be used in-line by builders::

        return verify_routing(build_routing_function(tm, name="down-up"))
    """
    assert_deadlock_free(routing.turn_model, routing.name)
    assert_connected(routing)
    assert_progress(routing)
    return routing
