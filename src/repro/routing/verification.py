"""Machine verification of routing functions (Theorem 1, executable).

Every routing function constructed anywhere in this repository is passed
through :func:`verify_routing`, which asserts the two halves of the
paper's Theorem 1, and that every table entry is a legal, distance-
decreasing move (so the tables only use the paths both halves cover):

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

import numpy as np

from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.channel_graph import dependency_adjacency, find_cycle


class VerificationError(AssertionError):
    """A routing function violates deadlock freedom or connectivity.

    Besides the human-readable message, the exception exposes:

    ``routing_name``
        Name of the offending routing function (when known).
    ``kind``
        One of ``"cycle"``, ``"unroutable"``, ``"stranded"``,
        ``"no-progress"``, ``"inadmissible"`` (or ``None`` for
        free-form failures).
    ``cycle``
        The offending channel-id cycle (``kind == "cycle"``).
    ``unroutable``
        The complete list of unroutable ``(src, dest)`` pairs
        (``kind == "unroutable"``) — not just the first few shown in
        the message.
    ``stranded``
        A dict describing the offending table entry
        (``kind in ("stranded", "no-progress", "inadmissible")``):
        destination, channel (or ``source`` for an inadmissible first
        hop), remaining distance, and — for ``"no-progress"`` and
        ``"inadmissible"`` — the offending candidate.
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


def assert_deadlock_free(
    turn_model: TurnModel,
    name: str = "routing",
    adj: Optional[Sequence[Sequence[int]]] = None,
) -> None:
    """Raise :class:`VerificationError` if a turn cycle exists.

    The error message includes the offending channel cycle (switch path
    and per-channel classes) so a failure is directly debuggable; the
    raw channel-id cycle rides along as ``err.cycle``.  *adj* is the
    turn model's dependency adjacency, when the caller already has it.
    """
    cycle = find_cycle(dependency_adjacency(turn_model) if adj is None else adj)
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
    Every first hop must also leave its source (kind ``"inadmissible"``,
    the first offending ``(dest, source)`` entry in ``stranded``).
    """
    k = routing.first_idx
    empty = routing.candidate_sizes[k] == 0
    np.fill_diagonal(empty, False)
    dests, srcs = np.nonzero(empty)
    if len(dests):
        missing = list(zip(srcs.tolist(), dests.tolist()))
        raise VerificationError(
            f"{routing.name}: {len(missing)} unroutable pairs, e.g. "
            f"{missing[:5]}",
            routing_name=routing.name,
            kind="unroutable",
            unroutable=missing,
        )
    start = np.array([ch.start for ch in routing.topology.channels] + [-1])
    stray = np.zeros(k.shape, dtype=bool)
    for column in routing.candidate_matrix.T:
        hop = column[k]
        stray |= (hop >= 0) & (start[hop] != np.arange(routing.topology.n))
    if stray.any():
        d, s = (int(i) for i in np.argwhere(stray)[0])
        b = next(b for b in routing.candidate_sets[k[d, s]] if start[b] != s)
        raise VerificationError(
            f"{routing.name}: dest {d}, first hop {b} does not leave source {s}",
            routing_name=routing.name,
            kind="inadmissible",
            stranded={"dest": d, "source": s, "candidate": int(b)},
        )


def assert_progress(
    routing: RoutingFunction, adj: Optional[Sequence[Sequence[int]]] = None
) -> None:
    """Raise unless every en-route state keeps a next hop (no stranding).

    For every destination ``d`` and channel ``c`` with finite remaining
    distance > 0, the candidate set must be non-empty and each candidate
    must strictly decrease the distance — together with acyclicity this
    rules out livelock for the adaptive simulator.  Every next hop ``b``
    of any state must also be a legal move, an edge ``c -> b`` of the
    turn model's dependency graph *adj* (kind ``"inadmissible"``).  The
    exception's ``stranded`` dict identifies the offending state (the
    first in destination-then-channel order).
    """
    if adj is None:
        adj = dependency_adjacency(routing.turn_model)
    topo = routing.topology
    n_ch = topo.num_channels
    # a candidate set is reduced to the switch its channels leave (-2 if
    # they leave several) and a bit mask over that switch's output
    # slots, a channel to the mask of its allowed continuations: set k
    # is legal after channel c iff home[k] == sink(c) and its mask is
    # inside allowed[c].  The trailing slot serves the -1 padding.
    start = np.array([ch.start for ch in topo.channels] + [-1])
    slot = [0] * (n_ch + 1)
    for v in range(topo.n):
        for i, c in enumerate(topo.output_channels(v)):
            slot[c] = i
    dtype = np.int64 if max(slot) < 63 else object  # >62 ports: Python ints
    bit = np.array([1 << i for i in slot[:n_ch]] + [0], dtype=dtype)
    members = routing.candidate_matrix
    home = start[members[:, 0]]
    mask = np.zeros(len(members), dtype=dtype)
    for column in members.T:
        home[(column >= 0) & (start[column] != home)] = -2
        mask |= bit[column]
    allowed = np.array([sum(1 << slot[b] for b in outs) for outs in adj], dtype=dtype)
    sink = np.array([ch.sink for ch in topo.channels])
    dist = routing.dist
    active = (dist > 0) & (dist != RoutingFunction.UNREACHABLE)
    k = routing.next_idx
    bad = active & (routing.candidate_sizes[k] == 0)
    for column in members.T:
        hop = column[k]
        reached = np.take_along_axis(dist, np.maximum(hop, 0), axis=1)
        bad |= active & (hop >= 0) & (reached != dist - 1)
    illegal = (routing.candidate_sizes[k] > 0) & (
        (home[k] != sink) | (mask[k] & ~allowed != 0)
    )
    if bad.any():
        d, c = (int(i) for i in np.argwhere(bad)[0])
        row = dist[d].tolist()
        rem = row[c]
        where = {"dest": d, "channel": c, "remaining": rem}
        opts = routing.candidate_sets[k[d, c]]
        if not opts:
            raise VerificationError(
                f"{routing.name}: dest {d}, channel {c} at distance "
                f"{rem} has no admissible next hop",
                routing_name=routing.name,
                kind="stranded",
                stranded=where,
            )
        b = next(b for b in opts if row[b] != rem - 1)
        raise VerificationError(
            f"{routing.name}: dest {d}, hop {c}->{b} does not "
            f"decrease distance ({rem} -> {row[b]})",
            routing_name=routing.name,
            kind="no-progress",
            stranded={**where, "candidate": int(b), "candidate_remaining": row[b]},
        )
    if illegal.any():
        d, c = (int(i) for i in np.argwhere(illegal)[0])
        b = next(b for b in routing.candidate_sets[k[d, c]] if b not in adj[c])
        v = sink[c]
        raise VerificationError(
            f"{routing.name}: dest {d}, hop {c}->{b} "
            + (
                f"is a prohibited turn at switch {v}"
                if start[b] == v
                else f"does not leave switch {v}"
            ),
            routing_name=routing.name,
            kind="inadmissible",
            stranded={"dest": d, "channel": c, "candidate": int(b)},
        )


def verify_routing(routing: RoutingFunction) -> RoutingFunction:
    """Run all checks on *routing*; return it unchanged on success.

    Intended to be used in-line by builders::

        return verify_routing(build_routing_function(tm, name="down-up"))
    """
    adj = dependency_adjacency(routing.turn_model)
    assert_deadlock_free(routing.turn_model, routing.name, adj)
    assert_connected(routing)
    assert_progress(routing, adj)
    return routing
