"""Existence oracle: does *any* deadlock-free routing exist?

The certificates in :mod:`repro.statics.certificates` answer a
*posterior* question — "is this particular routing function
deadlock-free and connected?".  This module answers the *prior* one the
turn model raises (cf. Mendlovic-Matias, arXiv 2503.04583): given a
topology and an allowed-turn relation (everything the prohibited-turn
set PT leaves standing), does there exist **any** deadlock-free
connected routing at all — and if not, what is the smallest obstruction?

The characterization used here is the turn-model form of the
necessary-and-sufficient condition.  Let ``H`` be the *allowed-turn
dependency digraph*: nodes are the directed channels, and there is an
edge ``a -> b`` iff a worm holding ``a`` may request ``b``
(``sink(a) == start(b)``, not a U-turn, and the turn is allowed).

    A deadlock-free connected routing exists
        iff
    H contains an **acyclic sub-digraph** ``D`` such that every ordered
    switch pair ``(s, d)`` is joined by a channel path whose consecutive
    turns all lie in ``D``.

*Sufficiency*: route every packet along the ``D``-paths; all runtime
dependencies then lie in ``D``, which is acyclic, so the Dally-Seitz
condition gives deadlock freedom, and the paths give connectivity.
*Necessity*: any deadlock-free connected routing's own dependency graph
is such a ``D`` (its used turns must be allowed, its dependency
relation must be acyclic, and its tables must connect every pair).

:func:`decide_existence` decides this property and returns a
digest-stamped :class:`ExistenceReport` carrying either

* a **constructive witness** (:class:`ExistenceWitness`): a topological
  channel order, the acyclic escape sub-relation ``D``, and one witness
  path per ordered pair — all re-verifiable by
  :func:`repro.statics.check.check_existence_report`, which shares zero
  traversal code with this module; or
* a **minimal infeasibility core** (:class:`InfeasibilityCore`):
  either a set of switch pairs no allowed path joins (``disconnected``)
  or the shortest cycle of *mandatory* turns found
  (``mandatory-cycle``) — a turn is mandatory when removing it alone
  from ``H`` already disconnects some pair, so a cycle of mandatory
  turns is an independently checkable proof that no acyclic connecting
  sub-relation can exist.

The decision procedure (all stdlib, no numpy, no imports from
``repro.routing``/``repro.core`` — raw facts come in through the
duck-typed :meth:`TurnSystem.from_turn_model`):

1. **Reachability screen.**  If some ordered pair has no allowed path
   even in the full ``H``, no sub-relation can connect it:
   ``infeasible`` with a ``disconnected`` core.
2. **Acyclic fast path.**  If the full ``H`` is already acyclic
   (Kahn), ``D = H`` is a witness: ``feasible`` immediately.  DOWN/UP's
   18-turn PT is built to make exactly this true, so the whole zoo
   resolves here.
3. **Mandatory-cycle obstruction.**  Otherwise find the turns whose
   individual removal disconnects a pair; the shortest directed cycle
   among them (if any) is the infeasibility core.
4. **Bounded branch-and-bound.**  Otherwise search for a cycle-free
   connecting sub-relation by repeatedly finding a cycle of the current
   relation and branching over which of its turns to drop (dropping is
   pruned when it disconnects a pair — sound, because a sub-relation of
   a disconnecting relation cannot reconnect).  Branching over the
   turns of one cycle is complete: any acyclic sub-relation must omit
   at least one of them.  ``budget`` bounds the explored search nodes;
   exhausting it yields the honest verdict ``unknown``, while a fully
   exhausted search (budget not hit) proves ``infeasible`` — then the
   report carries a ``search-exhausted`` core whose cycle documents the
   obstruction but is *not* independently re-checkable (the checker
   validates only its structure).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

EXISTENCE_FORMAT = "repro-exist-v1"

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

#: default bound on branch-and-bound search nodes (step 4)
DEFAULT_BUDGET = 10_000

#: cap on pairs listed in a ``disconnected`` core (the *count* is exact,
#: in ``stats["unreachable_pairs"]``)
_MAX_CORE_PAIRS = 32

Pair = Tuple[int, int]
Matrix = Tuple[Tuple[bool, ...], ...]


def _canonical_digest(payload: Mapping[str, object]) -> str:
    """SHA-256 over the canonical JSON of *payload* (digest key excluded).

    Same stamping discipline as
    :func:`repro.statics.certificates.compute_digest`, reimplemented
    here so this module stays importable with nothing but the stdlib.
    """
    body = {k: v for k, v in payload.items() if k != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the raw facts: a turn system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TurnSystem:
    """Topology + allowed-turn relation, as plain data.

    The field layout mirrors the raw-facts section of a
    :class:`~repro.statics.certificates.CertificateBundle` (same channel
    id convention: link ``k`` joining ``u < v`` yields channel ``2k`` =
    ``<u, v>`` and ``2k + 1`` = ``<v, u>``), so the independent checker
    re-derives the channel structure the same way for both artifact
    kinds.
    """

    n: int
    links: Tuple[Pair, ...]
    channel_class: Tuple[int, ...]
    class_names: Tuple[str, ...]
    base_allowed: Matrix
    node_overrides: Mapping[int, Matrix]
    pair_exceptions: Tuple[Pair, ...]

    @property
    def num_channels(self) -> int:
        return 2 * len(self.links)

    @classmethod
    def from_turn_model(cls, tm: object) -> "TurnSystem":
        """Convert a :class:`~repro.routing.base.TurnModel`-alike.

        Duck-typed on purpose: this module never imports the routing
        layer, it only reads ``topology.n`` / ``topology.links``,
        ``channel_class``, ``class_names``, ``base_matrix``,
        ``overridden_switches()`` / ``allowed_matrix(v)`` and
        ``released_channel_pairs()`` — converting every value to plain
        Python data.
        """
        topo = getattr(tm, "topology")
        base = getattr(tm, "base_matrix")
        overrides = {
            int(v): tuple(
                tuple(bool(x) for x in row)
                for row in getattr(tm, "allowed_matrix")(v)
            )
            for v in getattr(tm, "overridden_switches")()
        }
        return cls(
            n=int(topo.n),
            links=tuple((int(u), int(v)) for u, v in topo.links),
            channel_class=tuple(int(c) for c in getattr(tm, "channel_class")),
            class_names=tuple(str(s) for s in getattr(tm, "class_names")),
            base_allowed=tuple(tuple(bool(x) for x in row) for row in base),
            node_overrides=overrides,
            pair_exceptions=tuple(
                (int(a), int(b))
                for a, b in getattr(tm, "released_channel_pairs")()
            ),
        )

    @classmethod
    def from_allowed_pairs(
        cls,
        n: int,
        links: Sequence[Pair],
        allowed_pairs: Iterable[Pair],
    ) -> "TurnSystem":
        """A system allowing exactly *allowed_pairs* (channel-id pairs).

        Every channel gets its own class, so the class matrix *is* the
        channel-pair relation — the fully general encoding used by
        synthetic fixtures (e.g. the unidirectional ring, the canonical
        infeasible system).
        """
        norm = tuple(
            (int(u), int(v)) if u < v else (int(v), int(u)) for u, v in links
        )
        num_channels = 2 * len(norm)
        allow = set(allowed_pairs)
        base = tuple(
            tuple((a, b) in allow for b in range(num_channels))
            for a in range(num_channels)
        )
        return cls(
            n=n,
            links=norm,
            channel_class=tuple(range(num_channels)),
            class_names=tuple(f"c{c}" for c in range(num_channels)),
            base_allowed=base,
            node_overrides={},
            pair_exceptions=(),
        )

    # -- derived channel structure (builder side) ----------------------
    def channel_ends(self) -> Tuple[List[int], List[int]]:
        """``(start, sink)`` arrays from the id convention."""
        start = [0] * self.num_channels
        sink = [0] * self.num_channels
        for k, (u, v) in enumerate(self.links):
            start[2 * k], sink[2 * k] = u, v
            start[2 * k + 1], sink[2 * k + 1] = v, u
        return start, sink

    def output_channels(self) -> List[List[int]]:
        start, _sink = self.channel_ends()
        out: List[List[int]] = [[] for _ in range(self.n)]
        for c in range(self.num_channels):
            out[start[c]].append(c)
        return out

    def allowed(self, a: int, b: int) -> bool:
        """May a worm holding channel *a* request channel *b* next?"""
        start, sink = self.channel_ends()
        return self._allowed_with(start, sink, a, b)

    def _allowed_with(
        self, start: List[int], sink: List[int], a: int, b: int
    ) -> bool:
        if sink[a] != start[b] or b == (a ^ 1):
            return False
        if (a, b) in self.pair_exceptions:
            return True
        matrix = self.node_overrides.get(sink[a], self.base_allowed)
        return matrix[self.channel_class[a]][self.channel_class[b]]

    def allowed_turn_edges(self) -> List[Pair]:
        """Every edge of the allowed-turn dependency digraph ``H``."""
        start, sink = self.channel_ends()
        out = self.output_channels()
        pair_set = set(self.pair_exceptions)
        edges: List[Pair] = []
        for a in range(self.num_channels):
            matrix = self.node_overrides.get(sink[a], self.base_allowed)
            row = matrix[self.channel_class[a]]
            for b in out[sink[a]]:
                if b == (a ^ 1):
                    continue
                if row[self.channel_class[b]] or (a, b) in pair_set:
                    edges.append((a, b))
        return edges

    def payload(self) -> Dict[str, object]:
        """The raw-facts section, JSON-able (certificate field layout)."""
        return {
            "n": self.n,
            "links": [list(l) for l in self.links],
            "channel_class": list(self.channel_class),
            "class_names": list(self.class_names),
            "base_allowed": [list(row) for row in self.base_allowed],
            "node_overrides": {
                str(v): [list(row) for row in m]
                for v, m in sorted(self.node_overrides.items())
            },
            "pair_exceptions": [list(p) for p in self.pair_exceptions],
        }


# ---------------------------------------------------------------------------
# graph primitives over channel digraphs (builder side)
# ---------------------------------------------------------------------------


def _adjacency(
    num_channels: int, edges: Iterable[Pair], banned: FrozenSet[Pair]
) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(num_channels)]
    for a, b in edges:
        if (a, b) not in banned:
            adj[a].append(b)
    return adj


def _kahn_order(adj: List[List[int]]) -> Optional[List[int]]:
    """A topological order of the channel digraph; ``None`` if cyclic."""
    n = len(adj)
    indeg = [0] * n
    for outs in adj:
        for b in outs:
            indeg[b] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    order: List[int] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for b in adj[v]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    return order if len(order) == n else None


def _find_cycle(adj: List[List[int]]) -> Optional[List[int]]:
    """Some directed cycle of the channel digraph (three-colour DFS)."""
    n = len(adj)
    colour = [0] * n  # 0 white, 1 grey, 2 black
    parent: Dict[int, int] = {}
    for root in range(n):
        if colour[root] != 0:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        colour[root] = 1
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if colour[w] == 0:
                    colour[w] = 1
                    parent[w] = v
                    stack.append((w, 0))
                elif colour[w] == 1:
                    cycle = [v]
                    while cycle[-1] != w:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
            else:
                colour[v] = 2
                stack.pop()
    return None


def _shortest_cycle(adj: List[List[int]]) -> Optional[List[int]]:
    """The shortest directed cycle (BFS from every node); ``None`` if acyclic."""
    n = len(adj)
    best: Optional[List[int]] = None
    for s in range(n):
        # shortest path back to s from each successor of s
        pred: Dict[int, int] = {}
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt: List[int] = []
            for v in frontier:
                for w in adj[v]:
                    if w == s and v != s:
                        cycle = [v]
                        while cycle[-1] != s:
                            cycle.append(pred[cycle[-1]])
                        cycle.reverse()
                        if best is None or len(cycle) < len(best):
                            best = cycle
                        continue
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        pred[w] = v
                        if best is None or dist[w] + 1 < len(best):
                            nxt.append(w)
            frontier = nxt
    return best


def _unreachable_pairs(
    n: int,
    out_channels: List[List[int]],
    sink: List[int],
    adj: List[List[int]],
    stop_early: bool = False,
) -> List[Pair]:
    """Ordered switch pairs no admissible channel path joins.

    Injection is unrestricted (the first channel of a path is free),
    so the walk starts from every output channel of the source and
    follows *adj* (the allowed-turn edges under consideration).
    """
    missing: List[Pair] = []
    for s in range(n):
        seen_ch = [False] * len(sink)
        reached = [False] * n
        reached[s] = True
        stack = list(out_channels[s])
        for c in stack:
            seen_ch[c] = True
        while stack:
            c = stack.pop()
            reached[sink[c]] = True
            for b in adj[c]:
                if not seen_ch[b]:
                    seen_ch[b] = True
                    stack.append(b)
        for d in range(n):
            if not reached[d]:
                missing.append((s, d))
                if stop_early:
                    return missing
    return missing


def _witness_paths(
    n: int,
    out_channels: List[List[int]],
    sink: List[int],
    adj: List[List[int]],
) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """One admissible channel path per ordered pair (BFS per source)."""
    witnesses: List[Tuple[int, int, Tuple[int, ...]]] = []
    for s in range(n):
        pred: Dict[int, Optional[int]] = {}
        first: Dict[int, int] = {}
        frontier: List[int] = []
        for c in out_channels[s]:
            pred[c] = None
            frontier.append(c)
            first.setdefault(sink[c], c)
        while frontier:
            nxt: List[int] = []
            for c in frontier:
                for b in adj[c]:
                    if b not in pred:
                        pred[b] = c
                        nxt.append(b)
                        first.setdefault(sink[b], b)
            frontier = nxt
        for d in range(n):
            if d == s:
                continue
            c = first.get(d)
            if c is None:
                raise ValueError(
                    f"internal: pair ({s},{d}) lost during witness extraction"
                )
            path = [c]
            prev = pred[c]
            while prev is not None:
                path.append(prev)
                prev = pred[prev]
            path.reverse()
            witnesses.append((s, d, tuple(path)))
    return witnesses


# ---------------------------------------------------------------------------
# report structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExistenceWitness:
    """The constructive half: an acyclic connecting escape sub-relation.

    ``order`` is a topological order of the channels under ``relation``;
    ``relation`` lists the turns of the acyclic sub-digraph ``D``; and
    ``paths`` joins every ordered switch pair using only turns of ``D``.
    """

    order: Tuple[int, ...]
    relation: Tuple[Pair, ...]
    paths: Tuple[Tuple[int, int, Tuple[int, ...]], ...]

    def payload(self) -> Dict[str, object]:
        return {
            "order": list(self.order),
            "relation": [list(t) for t in self.relation],
            "paths": [[s, d, list(p)] for s, d, p in self.paths],
        }


@dataclass(frozen=True)
class InfeasibilityCore:
    """The destructive half: the smallest obstruction found.

    ``kind`` is one of:

    ``disconnected``
        *pairs* lists (a capped prefix of) the ordered switch pairs no
        allowed path joins at all.
    ``mandatory-cycle``
        *cycle* is a channel cycle each of whose consecutive turns is
        mandatory; *turns* carries ``(a, b, s, d)`` per cycle edge — the
        witness pair ``(s, d)`` becomes unroutable when the single turn
        ``a -> b`` is removed from the full relation.
    ``search-exhausted``
        the complete branch-and-bound found no acyclic connecting
        sub-relation; *cycle* documents the shortest full-relation
        cycle (structure checkable, the exhaustion claim is not).
    """

    kind: str
    pairs: Tuple[Pair, ...] = ()
    cycle: Tuple[int, ...] = ()
    turns: Tuple[Tuple[int, int, int, int], ...] = ()

    def payload(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "pairs": [list(p) for p in self.pairs],
            "cycle": list(self.cycle),
            "turns": [list(t) for t in self.turns],
        }


@dataclass(frozen=True)
class ExistenceReport:
    """Digest-stamped outcome of one existence decision."""

    system: TurnSystem
    verdict: str
    stats: Mapping[str, object]
    witness: Optional[ExistenceWitness] = None
    core: Optional[InfeasibilityCore] = None
    digest: str = field(default="", compare=False)

    def payload(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "format": EXISTENCE_FORMAT,
            "verdict": self.verdict,
            "stats": dict(self.stats),
            **self.system.payload(),
        }
        if self.witness is not None:
            out["witness"] = self.witness.payload()
        if self.core is not None:
            out["core"] = self.core.payload()
        if self.digest:
            out["digest"] = self.digest
        return out

    def to_json(self) -> str:
        return json.dumps(self.payload(), separators=(",", ":"))

    def summary(self) -> str:
        bits = [
            f"existence[{self.verdict}]",
            f"{self.stats.get('num_channels', '?')} channels",
            f"{self.stats.get('allowed_turns', '?')} allowed turns",
        ]
        if self.witness is not None:
            bits.append(f"witness over {len(self.witness.relation)} turns")
        if self.core is not None:
            bits.append(f"core: {self.core.kind}")
        return ", ".join(bits)


def _stamp(report: ExistenceReport) -> ExistenceReport:
    return replace(report, digest=_canonical_digest(report.payload()))


def full_relation_acyclic(system: TurnSystem) -> bool:
    """Is the *full* allowed-turn dependency digraph ``H`` acyclic?

    This is the Theorem-1 certification criterion (a PT whose full
    relation is acyclic certifies *every* routing built under it), as
    opposed to the existence criterion decided by
    :func:`decide_existence` (which only needs an acyclic
    *sub*-relation).  The turn-optimality auditor relaxes prohibitions
    under this stronger predicate — existence alone is monotone in the
    allowed set and would declare every prohibition redundant.
    """
    adj = _adjacency(
        system.num_channels, system.allowed_turn_edges(), frozenset()
    )
    return _kahn_order(adj) is not None


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------


def decide_existence(
    system: TurnSystem, budget: int = DEFAULT_BUDGET
) -> ExistenceReport:
    """Decide whether a deadlock-free connected routing exists.

    Returns a digest-stamped :class:`ExistenceReport` whose verdict is
    ``feasible`` (with a checkable :class:`ExistenceWitness`),
    ``infeasible`` (with an :class:`InfeasibilityCore`) or ``unknown``
    (the step-4 search budget ran out; never produced for systems the
    fast paths resolve).  See the module docstring for the procedure.
    """
    num_channels = system.num_channels
    _start, sink = system.channel_ends()
    out_channels = system.output_channels()
    edges = system.allowed_turn_edges()
    full_adj = _adjacency(num_channels, edges, frozenset())

    stats: Dict[str, object] = {
        "num_channels": num_channels,
        "allowed_turns": len(edges),
        "budget": budget,
        "search_nodes": 0,
        "mandatory_turns": 0,
    }

    # -- step 1: reachability screen -----------------------------------
    missing = _unreachable_pairs(system.n, out_channels, sink, full_adj)
    stats["unreachable_pairs"] = len(missing)
    stats["full_relation_acyclic"] = _kahn_order(full_adj) is not None
    if missing:
        return _stamp(
            ExistenceReport(
                system=system,
                verdict=INFEASIBLE,
                stats=stats,
                core=InfeasibilityCore(
                    kind="disconnected",
                    pairs=tuple(missing[:_MAX_CORE_PAIRS]),
                ),
            )
        )

    # -- step 2: acyclic fast path -------------------------------------
    if stats["full_relation_acyclic"]:
        order = _kahn_order(full_adj)
        assert order is not None
        return _stamp(
            ExistenceReport(
                system=system,
                verdict=FEASIBLE,
                stats=stats,
                witness=ExistenceWitness(
                    order=tuple(order),
                    relation=tuple(edges),
                    paths=tuple(
                        _witness_paths(system.n, out_channels, sink, full_adj)
                    ),
                ),
            )
        )

    # -- step 3: mandatory-cycle obstruction ---------------------------
    mandatory: Dict[Pair, Pair] = {}
    for turn in edges:
        adj_wo = _adjacency(num_channels, edges, frozenset({turn}))
        lost = _unreachable_pairs(
            system.n, out_channels, sink, adj_wo, stop_early=True
        )
        if lost:
            mandatory[turn] = lost[0]
    stats["mandatory_turns"] = len(mandatory)
    mand_adj: List[List[int]] = [[] for _ in range(num_channels)]
    for a, b in mandatory:
        mand_adj[a].append(b)
    mand_cycle = _shortest_cycle(mand_adj)
    if mand_cycle is not None:
        turns = []
        for i, a in enumerate(mand_cycle):
            b = mand_cycle[(i + 1) % len(mand_cycle)]
            s, d = mandatory[(a, b)]
            turns.append((a, b, s, d))
        return _stamp(
            ExistenceReport(
                system=system,
                verdict=INFEASIBLE,
                stats=stats,
                core=InfeasibilityCore(
                    kind="mandatory-cycle",
                    cycle=tuple(mand_cycle),
                    turns=tuple(turns),
                ),
            )
        )

    # -- step 4: bounded branch-and-bound over turn removals -----------
    nodes = 0
    budget_hit = False
    mandatory_set = frozenset(mandatory)

    def connects(banned: FrozenSet[Pair]) -> bool:
        adj_b = _adjacency(num_channels, edges, banned)
        return not _unreachable_pairs(
            system.n, out_channels, sink, adj_b, stop_early=True
        )

    def search(banned: FrozenSet[Pair]) -> Optional[FrozenSet[Pair]]:
        nonlocal nodes, budget_hit
        if nodes >= budget:
            budget_hit = True
            return None
        nodes += 1
        adj_b = _adjacency(num_channels, edges, banned)
        cycle = _find_cycle(adj_b)
        if cycle is None:
            return banned
        for i, a in enumerate(cycle):
            b = cycle[(i + 1) % len(cycle)]
            turn = (a, b)
            if turn in mandatory_set:
                continue
            trial = banned | {turn}
            if not connects(trial):
                continue
            found = search(trial)
            if found is not None:
                return found
            if budget_hit:
                return None
        return None

    removed = search(frozenset())
    stats["search_nodes"] = nodes
    if removed is not None:
        stats["removed_turns"] = len(removed)
        kept = [t for t in edges if t not in removed]
        sub_adj = _adjacency(num_channels, edges, removed)
        order = _kahn_order(sub_adj)
        assert order is not None  # search returned an acyclic relation
        return _stamp(
            ExistenceReport(
                system=system,
                verdict=FEASIBLE,
                stats=stats,
                witness=ExistenceWitness(
                    order=tuple(order),
                    relation=tuple(kept),
                    paths=tuple(
                        _witness_paths(system.n, out_channels, sink, sub_adj)
                    ),
                ),
            )
        )
    if budget_hit:
        return _stamp(
            ExistenceReport(system=system, verdict=UNKNOWN, stats=stats)
        )
    shortest = _shortest_cycle(full_adj)
    return _stamp(
        ExistenceReport(
            system=system,
            verdict=INFEASIBLE,
            stats=stats,
            core=InfeasibilityCore(
                kind="search-exhausted",
                cycle=tuple(shortest or ()),
            ),
        )
    )
