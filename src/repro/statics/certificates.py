"""Deadlock-freedom certificates (the builder side).

A *certificate* turns ``verify_routing``'s pass/fail verdict into an
explicit, serializable witness that a trivially simple checker can
re-validate (certifying-algorithms discipline; cf. the Dally-Seitz
acyclicity condition and Duato's escape-channel condition):

* :class:`DeadlockFreedomCertificate` — a topological order of the
  turn-restricted channel dependency graph.  Acyclicity follows from
  the order's existence; the checker only has to confirm that every
  allowed dependency edge points forward in the order.
* :class:`ConnectivityCertificate` — one admissible witness path per
  ordered switch pair.  Connectivity follows from the paths existing;
  the checker only has to walk each one and confirm every turn is
  allowed.
* :class:`ProgressCertificate` — the remaining-distance table plus one
  strictly-decreasing witness hop per en-route state, ruling out
  stranding and (with acyclicity) livelock.

The bundle also embeds the raw facts the claims are *about* — the
topology's link list and the turn prohibitions (class matrices plus
per-node released turns) — and is stamped with a SHA-256 digest over
its canonical JSON, so a certificate can be archived next to results
and re-audited later by :mod:`repro.statics.check`, which shares no
traversal code with this module.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.routing.base import RoutingFunction
from repro.routing.channel_graph import dependency_adjacency
from repro.routing.verification import VerificationError
from repro.statics.existence import _kahn_order

CERT_FORMAT = "repro-cert-v1"


def compute_digest(payload: Mapping[str, object]) -> str:
    """SHA-256 over the canonical JSON of *payload* (digest key excluded)."""
    body = {k: v for k, v in payload.items() if k != "digest"}
    # check_circular only guards against self-referencing containers,
    # which a payload never holds; skipping it leaves the bytes as they are
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), check_circular=False
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class DeadlockFreedomCertificate:
    """A topological order of the channel dependency graph.

    ``order`` lists every channel id exactly once; the claim is that
    every allowed dependency ``a -> b`` has ``a`` before ``b``.
    ``released_turns`` echoes the per-node Phase-3 class releases
    ``(switch, cls_in, cls_out)`` and ``released_pairs`` the
    channel-pair-granular ones, so an auditor sees exactly which
    prohibitions were lifted relative to the base matrix.
    """

    order: Tuple[int, ...]
    released_turns: Tuple[Tuple[int, int, int], ...] = ()
    released_pairs: Tuple[Tuple[int, int], ...] = ()

    def payload(self) -> Dict[str, object]:
        return {
            "order": self.order,
            "released_turns": self.released_turns,
            "released_pairs": self.released_pairs,
        }


@dataclass(frozen=True)
class ConnectivityCertificate:
    """One admissible witness path (channel-id sequence) per ordered pair."""

    witnesses: Tuple[Tuple[int, int, Tuple[int, ...]], ...]

    def payload(self) -> Dict[str, object]:
        return {"witnesses": self.witnesses}


@dataclass(frozen=True)
class ProgressCertificate:
    """Distance table + one strictly-decreasing witness hop per state.

    ``dist[d][c]`` is the remaining hop count after traversing channel
    ``c`` toward destination ``d`` (``unreachable`` when none); each
    witness ``(d, c, b)`` claims ``b`` is an allowed continuation with
    ``dist[d][b] == dist[d][c] - 1``.
    """

    unreachable: int
    dist: Tuple[Tuple[int, ...], ...]
    witnesses: Tuple[Tuple[int, int, int], ...]

    def payload(self) -> Dict[str, object]:
        return {
            "unreachable": self.unreachable,
            "dist": self.dist,
            "witnesses": self.witnesses,
        }


@dataclass(frozen=True)
class CertificateBundle:
    """Everything a checker needs: raw facts, claims, witnesses, digest."""

    algorithm: str
    n: int
    links: Tuple[Tuple[int, int], ...]
    channel_class: Tuple[int, ...]
    class_names: Tuple[str, ...]
    base_allowed: Tuple[Tuple[bool, ...], ...]
    node_overrides: Mapping[int, Tuple[Tuple[bool, ...], ...]]
    pair_exceptions: Tuple[Tuple[int, int], ...]
    deadlock: DeadlockFreedomCertificate
    connectivity: ConnectivityCertificate
    progress: ProgressCertificate
    digest: str = field(default="", compare=False)

    def payload(self) -> Dict[str, object]:
        """The JSON-able dict form (digest included when stamped).

        The sections are the bundle's own tuples, not copies: the JSON
        encoder writes a tuple exactly as it writes a list, so the
        canonical bytes (and the digest) are those of the list form,
        and the tuples are immutable, so sharing them is safe.
        """
        out: Dict[str, object] = {
            "format": CERT_FORMAT,
            "algorithm": self.algorithm,
            "n": self.n,
            "links": self.links,
            "channel_class": self.channel_class,
            "class_names": self.class_names,
            "base_allowed": self.base_allowed,
            "node_overrides": {
                str(v): m for v, m in sorted(self.node_overrides.items())
            },
            "pair_exceptions": self.pair_exceptions,
            "deadlock": self.deadlock.payload(),
            "connectivity": self.connectivity.payload(),
            "progress": self.progress.payload(),
        }
        if self.digest:
            out["digest"] = self.digest
        return out

    def to_json(self) -> str:
        return json.dumps(self.payload(), separators=(",", ":"))

    @classmethod
    def from_payload(cls, data: Mapping[str, object]) -> "CertificateBundle":
        if data.get("format") != CERT_FORMAT:
            raise ValueError(
                f"unsupported certificate format {data.get('format')!r}"
            )
        dl = data["deadlock"]
        cn = data["connectivity"]
        pg = data["progress"]
        return cls(
            algorithm=str(data["algorithm"]),
            n=int(data["n"]),
            links=tuple((int(u), int(v)) for u, v in data["links"]),
            channel_class=tuple(int(c) for c in data["channel_class"]),
            class_names=tuple(str(s) for s in data["class_names"]),
            base_allowed=tuple(
                tuple(bool(x) for x in row) for row in data["base_allowed"]
            ),
            node_overrides={
                int(v): tuple(tuple(bool(x) for x in row) for row in m)
                for v, m in data["node_overrides"].items()
            },
            pair_exceptions=tuple(
                (int(a), int(b)) for a, b in data["pair_exceptions"]
            ),
            deadlock=DeadlockFreedomCertificate(
                order=tuple(int(c) for c in dl["order"]),
                released_turns=tuple(
                    (int(v), int(i), int(j)) for v, i, j in dl["released_turns"]
                ),
                released_pairs=tuple(
                    (int(a), int(b)) for a, b in dl["released_pairs"]
                ),
            ),
            connectivity=ConnectivityCertificate(
                witnesses=tuple(
                    (int(s), int(d), tuple(int(c) for c in path))
                    for s, d, path in cn["witnesses"]
                )
            ),
            progress=ProgressCertificate(
                unreachable=int(pg["unreachable"]),
                dist=tuple(tuple(int(x) for x in row) for row in pg["dist"]),
                witnesses=tuple(
                    (int(d), int(c), int(b)) for d, c, b in pg["witnesses"]
                ),
            ),
            digest=str(data.get("digest", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "CertificateBundle":
        return cls.from_payload(json.loads(text))


def _witness_suffix(
    routing: RoutingFunction,
    dest: int,
    dist_row: List[int],
    hops: List[int],
    first: int,
    memo: Dict[int, Tuple[int, ...]],
) -> Tuple[int, ...]:
    """The witness path that *starts* with channel ``first`` toward *dest*.

    The certified path always continues with the first candidate of
    each state, ``hops[c]`` (``-1`` when the state has none), so every
    source whose first hop lands on the same channel shares the same
    tail.  *memo* caches one suffix tuple per channel per destination:
    each channel's continuation is resolved once and the shared tuples
    are reused across all ``O(n)`` sources, instead of re-walking the
    table for every ordered pair.  *dist_row* is ``routing.dist[dest]``
    as a list.
    """
    chain = []
    c = first
    while c not in memo:
        if dist_row[c] <= 0:
            memo[c] = (c,)
            break
        if hops[c] < 0:
            raise VerificationError(
                f"{routing.name}: cannot certify connectivity — table "
                f"strands channel {c} toward {dest}",
                routing_name=routing.name,
                kind="stranded",
                stranded={"dest": dest, "channel": c},
            )
        chain.append(c)
        c = hops[c]
    for c in reversed(chain):
        memo[c] = (c,) + memo[hops[c]]
    return memo[first]


def certify_routing(
    routing: RoutingFunction, algorithm: Optional[str] = None
) -> CertificateBundle:
    """Produce the digest-stamped certificate bundle for *routing*.

    Raises :class:`~repro.routing.verification.VerificationError` when
    no certificate exists (cyclic dependency graph, unroutable pair,
    stranded state) — an invalid routing cannot be certified, only
    rejected.
    """
    tm = routing.turn_model
    topo = tm.topology
    adj = dependency_adjacency(tm)
    order = _kahn_order(adj)
    if order is None:
        raise VerificationError(
            f"{routing.name}: cannot certify deadlock freedom — channel "
            f"dependency graph is cyclic",
            routing_name=routing.name,
            kind="cycle",
        )

    unreachable = int(RoutingFunction.UNREACHABLE)
    # row by row: one tolist() of the whole table holds a second copy of
    # every entry at once, which raised peak memory measurably
    dist_rows = tuple(tuple(row.tolist()) for row in routing.dist)

    # every state's first candidate, -1 where it has none
    first_of = routing.candidate_matrix[:, 0]
    hop = first_of[routing.next_idx]
    witnesses = []
    for d in range(topo.n):
        suffixes: Dict[int, Tuple[int, ...]] = {}
        row = dist_rows[d]
        hops = hop[d].tolist()
        firsts = first_of[routing.first_idx[d]].tolist()
        for s in range(topo.n):
            if s == d:
                continue
            if firsts[s] < 0:
                raise VerificationError(
                    f"{routing.name}: cannot certify connectivity — no "
                    f"admissible path {s}->{d}",
                    routing_name=routing.name,
                    kind="unroutable",
                    unroutable=[(s, d)],
                )
            witnesses.append(
                (s, d, _witness_suffix(routing, d, row, hops, firsts[s], suffixes))
            )

    dist = routing.dist
    dests, chans = np.nonzero((dist > 0) & (dist < unreachable))
    hops = hop[dests, chans]
    if (hops < 0).any():
        i = int(np.argmax(hops < 0))
        d, c = int(dests[i]), int(chans[i])
        raise VerificationError(
            f"{routing.name}: cannot certify progress — dest "
            f"{d}, channel {c} has no next hop",
            routing_name=routing.name,
            kind="stranded",
            stranded={"dest": d, "channel": c, "remaining": dist_rows[d][c]},
        )
    hop_witnesses = list(zip(dests.tolist(), chans.tolist(), hops.tolist()))

    bundle = CertificateBundle(
        algorithm=algorithm if algorithm is not None else routing.name,
        n=topo.n,
        links=tuple(topo.links),
        channel_class=tuple(tm.channel_class.tolist()),
        class_names=tuple(tm.class_names),
        base_allowed=tuple(
            tuple(bool(x) for x in row) for row in tm.base_matrix
        ),
        node_overrides={
            v: tuple(tuple(bool(x) for x in row) for row in tm.allowed_matrix(v))
            for v in tm.overridden_switches()
        },
        pair_exceptions=tuple(tm.released_channel_pairs()),
        deadlock=DeadlockFreedomCertificate(
            order=tuple(order),
            released_turns=tuple(tm.released_turns()),
            released_pairs=tuple(tm.released_channel_pairs()),
        ),
        connectivity=ConnectivityCertificate(witnesses=tuple(witnesses)),
        progress=ProgressCertificate(
            unreachable=unreachable,
            dist=dist_rows,
            witnesses=tuple(hop_witnesses),
        ),
    )
    return replace(bundle, digest=compute_digest(bundle.payload()))
