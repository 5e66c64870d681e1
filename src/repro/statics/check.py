"""The independent certificate checker.

This module re-validates a :mod:`repro.statics.certificates` bundle —
and, via :func:`check_existence_report`, a
:mod:`repro.statics.existence` report — against nothing but the raw
facts the artifact itself carries: the topology's link list and the
turn prohibitions (class matrices, per-node overrides, channel-pair
releases).  It deliberately imports **nothing** from
:mod:`repro.routing`, :mod:`repro.core` or any other construction code
— channels are re-derived here from the documented id convention (link
``k`` joining ``u < v`` yields channel ``2k`` = ``<u, v>`` and ``2k+1``
= ``<v, u>``), and the allowed-turn predicate is re-implemented from
the matrices directly.  A bug in the builders' shared traversal code
(``channel_graph``, ``cycle_detection``, ``existence``) therefore
cannot self-certify: the certificate it emits would fail here.

Each check is intentionally trivial (the certifying-algorithms
discipline):

* **deadlock freedom** — the claimed topological order is a permutation
  of the channels and every allowed dependency edge points forward;
* **connectivity** — every ordered switch pair has a witness path, and
  walking it crosses only allowed turns;
* **progress** — distances are locally consistent (zero exactly at the
  destination) and every en-route state has a strictly-decreasing,
  allowed witness hop;
* **integrity** — the SHA-256 digest matches the canonical payload.

All failures are collected into a :class:`CheckReport`; :func:`recheck`
raises :class:`CertificateError` on the first bad report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

_FORMAT = "repro-cert-v1"
_EXIST_FORMAT = "repro-exist-v1"
_MAX_FAILURES = 50


class CertificateError(ValueError):
    """A certificate failed independent re-validation."""

    def __init__(self, message: str, report: Optional["CheckReport"] = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class CheckFailure:
    """One independent-checker finding."""

    code: str
    message: str


@dataclass
class CheckReport:
    """Outcome of one certificate re-validation."""

    algorithm: str = ""
    digest: str = ""
    num_channels: int = 0
    dependency_edges: int = 0
    witness_pairs: int = 0
    progress_states: int = 0
    failures: List[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, code: str, message: str) -> None:
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(CheckFailure(code, message))

    def summary(self) -> str:
        state = "OK" if self.ok else f"FAILED ({len(self.failures)})"
        return (
            f"certificate[{self.algorithm}] {state}: "
            f"{self.dependency_edges} dependency edges, "
            f"{self.witness_pairs} witness paths, "
            f"{self.progress_states} progress states"
        )


def _digest(body: Mapping[str, object]) -> str:
    canonical = json.dumps(
        {k: v for k, v in body.items() if k != "digest"},
        sort_keys=True,
        separators=(",", ":"),
        check_circular=False,
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _as_payload(cert: Union[str, Mapping[str, object], object]) -> Mapping[str, object]:
    """Accept JSON text, a payload dict, or a CertificateBundle-alike."""
    if isinstance(cert, str):
        return json.loads(cert)
    if isinstance(cert, Mapping):
        return cert
    payload = getattr(cert, "payload", None)
    if callable(payload):
        return payload()
    raise TypeError(f"cannot interpret {type(cert).__name__} as a certificate")


class _RawFacts:
    """The channel model re-derived from a payload's raw-facts section.

    Shared by certificate and existence-report checking — both artifact
    kinds carry the same raw-facts field layout, and the rebuild is
    pure fact validation (no claim is endorsed here).
    """

    __slots__ = ("n", "num_channels", "start", "sink", "out_channels", "allowed")

    def __init__(
        self,
        n: int,
        num_channels: int,
        start: List[int],
        sink: List[int],
        out_channels: List[List[int]],
        allowed: "Callable[[int, int], bool]",
    ):
        self.n = n
        self.num_channels = num_channels
        self.start = start
        self.sink = sink
        self.out_channels = out_channels
        self.allowed = allowed


def _check_raw_facts(
    data: Mapping[str, object], report: CheckReport
) -> Optional[_RawFacts]:
    """Rebuild the channel model from the link list alone.

    Records failures on *report* and returns ``None`` when the payload
    cannot be trusted further (including when earlier checks — digest,
    say — already failed; claims are never validated against suspect
    facts).
    """
    try:
        n = int(data["n"])
        links = [(int(u), int(v)) for u, v in data["links"]]
        channel_class = [int(c) for c in data["channel_class"]]
        base = [[bool(x) for x in row] for row in data["base_allowed"]]
        overrides = {
            int(v): [[bool(x) for x in row] for row in m]
            for v, m in data["node_overrides"].items()
        }
        pair_exceptions = {
            (int(a), int(b)) for a, b in data["pair_exceptions"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        report.fail("malformed", f"payload is not well-formed: {exc!r}")
        return None

    if n <= 0:
        report.fail("topology", f"invalid switch count {n}")
        return None
    seen_links = set()
    for u, v in links:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            report.fail("topology", f"invalid link ({u},{v}) for n={n}")
        key = (u, v) if u < v else (v, u)
        if key in seen_links:
            report.fail("topology", f"duplicate link ({u},{v})")
        seen_links.add(key)

    num_channels = 2 * len(links)
    report.num_channels = num_channels
    # channel id convention: link k = (u, v) -> cid 2k is u->v, 2k+1 is v->u
    start = [0] * num_channels
    sink = [0] * num_channels
    for k, (u, v) in enumerate(links):
        start[2 * k], sink[2 * k] = u, v
        start[2 * k + 1], sink[2 * k + 1] = v, u
    out_channels: List[List[int]] = [[] for _ in range(n)]
    for c in range(num_channels):
        out_channels[start[c]].append(c)

    k_classes = len(base)
    if any(len(row) != k_classes for row in base):
        report.fail("turns", "base_allowed is not square")
        return None
    if len(channel_class) != num_channels:
        report.fail(
            "turns",
            f"channel_class has {len(channel_class)} entries for "
            f"{num_channels} channels",
        )
        return None
    if any(not (0 <= c < k_classes) for c in channel_class):
        report.fail("turns", "channel class out of range")
        return None
    for v, m in overrides.items():
        if not (0 <= v < n):
            report.fail("turns", f"override for non-existent switch {v}")
        if len(m) != k_classes or any(len(row) != k_classes for row in m):
            report.fail("turns", f"override matrix at switch {v} is not {k_classes}x{k_classes}")
    for a, b in pair_exceptions:
        if not (0 <= a < num_channels and 0 <= b < num_channels):
            report.fail("turns", f"pair exception ({a},{b}) out of range")
        elif sink[a] != start[b]:
            report.fail(
                "turns",
                f"pair exception ({a},{b}) does not meet at a switch",
            )
        elif b == (a ^ 1):
            report.fail("turns", f"pair exception ({a},{b}) is a U-turn")
    if not report.ok:
        return None

    def allowed(a: int, b: int) -> bool:
        """May a worm holding channel *a* request channel *b* next?"""
        if sink[a] != start[b] or b == (a ^ 1):
            return False
        if (a, b) in pair_exceptions:
            return True
        matrix = overrides.get(sink[a], base)
        return matrix[channel_class[a]][channel_class[b]]

    return _RawFacts(n, num_channels, start, sink, out_channels, allowed)


def check_certificate(
    cert: Union[str, Mapping[str, object], object]
) -> CheckReport:
    """Independently re-validate *cert*; return a :class:`CheckReport`.

    *cert* may be the JSON text, the decoded payload dict, or a
    :class:`~repro.statics.certificates.CertificateBundle` (anything
    with a ``payload()`` method) — in every case only the payload data
    is consulted.
    """
    report = CheckReport()
    try:
        data = _as_payload(cert)
    except (TypeError, ValueError) as exc:
        report.fail("malformed", str(exc))
        return report

    report.algorithm = str(data.get("algorithm", "?"))
    if data.get("format") != _FORMAT:
        report.fail("format", f"unsupported format {data.get('format')!r}")
        return report

    claimed_digest = str(data.get("digest", ""))
    report.digest = claimed_digest
    if not claimed_digest:
        report.fail("digest", "certificate carries no digest")
    else:
        actual = _digest(data)
        if actual != claimed_digest:
            report.fail(
                "digest",
                f"digest mismatch: stamped {claimed_digest}, payload "
                f"hashes to {actual}",
            )

    # ------------------------------------------------------------------
    # raw facts: rebuild the channel model from the link list alone
    # ------------------------------------------------------------------
    facts = _check_raw_facts(data, report)
    if facts is None:
        return report
    n = facts.n
    num_channels = facts.num_channels
    start, sink = facts.start, facts.sink
    # the allowed predicate, evaluated once per candidate turn: succ[a]
    # lists every b a worm on channel a may request next (in output
    # order) and allowed_next[a] holds the same channels, so the claims
    # below test a turn a -> b by set membership
    succ = _full_relation_adjacency(facts)
    allowed_next = [set(outs) for outs in succ]

    # ------------------------------------------------------------------
    # claim 1: deadlock freedom via the topological order
    # ------------------------------------------------------------------
    order = [int(c) for c in data["deadlock"]["order"]]
    if sorted(order) != list(range(num_channels)):
        report.fail(
            "deadlock",
            f"topological order is not a permutation of the "
            f"{num_channels} channels ({len(order)} entries)",
        )
    else:
        pos = [0] * num_channels
        for i, c in enumerate(order):
            pos[c] = i
        edges = 0
        for a, outs in enumerate(succ):
            edges += len(outs)
            for b in outs:
                if pos[a] >= pos[b]:
                    report.fail(
                        "deadlock",
                        f"dependency {a}->{b} is allowed but runs "
                        f"backwards in the claimed order "
                        f"(pos {pos[a]} >= {pos[b]})",
                    )
        report.dependency_edges = edges

    # ------------------------------------------------------------------
    # claim 2: connectivity via witness paths
    # ------------------------------------------------------------------
    witnessed = set()
    for s, d, path in data["connectivity"]["witnesses"]:
        s, d = int(s), int(d)
        path = list(map(int, path))
        pair = (s, d)
        if pair in witnessed:
            report.fail("connectivity", f"duplicate witness for {pair}")
            continue
        witnessed.add(pair)
        if not (0 <= s < n and 0 <= d < n) or s == d:
            report.fail("connectivity", f"invalid witness pair {pair}")
            continue
        if not path:
            report.fail("connectivity", f"empty witness path for {pair}")
            continue
        if min(path) < 0 or max(path) >= num_channels:
            report.fail("connectivity", f"witness for {pair} uses an unknown channel")
            continue
        if start[path[0]] != s:
            report.fail(
                "connectivity",
                f"witness for {pair} starts at switch {start[path[0]]}, "
                f"not {s}",
            )
        if sink[path[-1]] != d:
            report.fail(
                "connectivity",
                f"witness for {pair} ends at switch {sink[path[-1]]}, "
                f"not {d}",
            )
        for a, b in zip(path, path[1:]):
            if b in allowed_next[a]:
                continue
            if sink[a] != start[b]:
                report.fail(
                    "connectivity",
                    f"witness for {pair} breaks at {a}->{b}: channels do "
                    f"not meet at a switch",
                )
            else:
                report.fail(
                    "connectivity",
                    f"witness for {pair} crosses a prohibited turn "
                    f"{a}->{b} at switch {sink[a]}",
                )
    missing = [
        (s, d)
        for d in range(n)
        for s in range(n)
        if s != d and (s, d) not in witnessed
    ]
    for pair in missing[:5]:
        report.fail("connectivity", f"no witness path for pair {pair}")
    if len(missing) > 5:
        report.fail(
            "connectivity",
            f"... and {len(missing) - 5} further pairs without a witness",
        )
    report.witness_pairs = len(witnessed)

    # ------------------------------------------------------------------
    # claim 3: progress via distance-decrease witnesses
    # ------------------------------------------------------------------
    prog = data["progress"]
    unreachable = int(prog["unreachable"])
    dist = [list(map(int, row)) for row in prog["dist"]]
    if len(dist) != n or any(len(row) != num_channels for row in dist):
        report.fail("progress", "distance table has the wrong shape")
        return report
    hop_witness: Dict[Tuple[int, int], int] = {
        (int(d), int(c)): int(b) for d, c, b in prog["witnesses"]
    }
    states = 0
    for d, row in enumerate(dist):
        for c, rem in enumerate(row):
            if rem == 0:
                if sink[c] != d:
                    report.fail(
                        "progress",
                        f"dist[{d}][{c}] is 0 but channel {c} sinks at "
                        f"{sink[c]}, not {d}",
                    )
                continue
            if sink[c] == d and rem != unreachable:
                report.fail(
                    "progress",
                    f"channel {c} sinks at its destination {d} but "
                    f"dist is {rem}",
                )
            if 0 < rem < unreachable:
                states += 1
                b = hop_witness.get((d, c))
                if b is None:
                    report.fail(
                        "progress",
                        f"no witness hop for dest {d}, channel {c} at "
                        f"distance {rem}",
                    )
                    continue
                if not (0 <= b < num_channels):
                    report.fail(
                        "progress",
                        f"witness hop {b} for dest {d}, channel {c} is "
                        f"not a channel",
                    )
                    continue
                if b not in allowed_next[c]:
                    report.fail(
                        "progress",
                        f"witness hop {c}->{b} for dest {d} crosses a "
                        f"prohibited turn",
                    )
                if row[b] != rem - 1:
                    report.fail(
                        "progress",
                        f"witness hop {c}->{b} for dest {d} does not "
                        f"decrease distance ({rem} -> {row[b]})",
                    )
    report.progress_states = states
    return report


def recheck(cert: Union[str, Mapping[str, object], object]) -> CheckReport:
    """Run :func:`check_certificate`; raise :class:`CertificateError` on failure."""
    report = check_certificate(cert)
    if not report.ok:
        first = report.failures[0]
        raise CertificateError(
            f"certificate for {report.algorithm!r} failed independent "
            f"re-validation: [{first.code}] {first.message} "
            f"({len(report.failures)} failure(s) total)",
            report,
        )
    return report


# ---------------------------------------------------------------------------
# existence reports (repro.statics.existence)
# ---------------------------------------------------------------------------


def _full_relation_adjacency(facts: _RawFacts) -> List[List[int]]:
    """The full allowed-turn digraph, re-derived by the checker alone."""
    return [
        [b for b in facts.out_channels[facts.sink[a]] if facts.allowed(a, b)]
        for a in range(facts.num_channels)
    ]


def _is_acyclic(adj: List[List[int]]) -> bool:
    """Kahn peeling, local to the checker (no code shared with builders)."""
    indeg = [0] * len(adj)
    for outs in adj:
        for b in outs:
            indeg[b] += 1
    ready = [v for v in range(len(adj)) if indeg[v] == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for b in adj[v]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    return done == len(adj)


def _pair_reachable(
    facts: _RawFacts, s: int, d: int, banned_turn: Optional[Tuple[int, int]]
) -> bool:
    """Does any allowed channel path join s -> d (optionally minus one turn)?

    Injection is unrestricted: the walk starts from every output channel
    of *s* and follows the allowed predicate only.
    """
    if s == d:
        return True
    seen = [False] * facts.num_channels
    stack: List[int] = []
    for c in facts.out_channels[s]:
        seen[c] = True
        stack.append(c)
    while stack:
        c = stack.pop()
        if facts.sink[c] == d:
            return True
        for b in facts.out_channels[facts.sink[c]]:
            if seen[b] or not facts.allowed(c, b):
                continue
            if banned_turn is not None and (c, b) == banned_turn:
                continue
            seen[b] = True
            stack.append(b)
    return False


def _check_existence_witness(
    data: Mapping[str, object], facts: _RawFacts, report: CheckReport
) -> None:
    """Endorse a ``feasible`` verdict: acyclic escape relation + paths."""
    witness = data.get("witness")
    if not isinstance(witness, Mapping):
        report.fail("witness", "feasible verdict carries no witness")
        return
    try:
        order = [int(c) for c in witness["order"]]
        relation = [(int(a), int(b)) for a, b in witness["relation"]]
        paths = [
            (int(s), int(d), [int(c) for c in p])
            for s, d, p in witness["paths"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        report.fail("malformed", f"witness is not well-formed: {exc!r}")
        return

    num_channels = facts.num_channels
    if sorted(order) != list(range(num_channels)):
        report.fail(
            "deadlock",
            f"escape order is not a permutation of the {num_channels} "
            f"channels ({len(order)} entries)",
        )
        return
    pos = [0] * num_channels
    for i, c in enumerate(order):
        pos[c] = i

    rel: Set[Tuple[int, int]] = set()
    for a, b in relation:
        if not (0 <= a < num_channels and 0 <= b < num_channels):
            report.fail("relation", f"relation edge {a}->{b} is not a channel pair")
            continue
        if not facts.allowed(a, b):
            report.fail(
                "relation",
                f"relation edge {a}->{b} is not an allowed turn",
            )
        elif pos[a] >= pos[b]:
            report.fail(
                "deadlock",
                f"relation edge {a}->{b} runs backwards in the claimed "
                f"order (pos {pos[a]} >= {pos[b]})",
            )
        rel.add((a, b))
    report.dependency_edges = len(rel)

    witnessed: Set[Tuple[int, int]] = set()
    for s, d, path in paths:
        pair = (s, d)
        if pair in witnessed:
            report.fail("connectivity", f"duplicate witness for {pair}")
            continue
        witnessed.add(pair)
        if not (0 <= s < facts.n and 0 <= d < facts.n) or s == d:
            report.fail("connectivity", f"invalid witness pair {pair}")
            continue
        if not path:
            report.fail("connectivity", f"empty witness path for {pair}")
            continue
        if any(not (0 <= c < num_channels) for c in path):
            report.fail(
                "connectivity", f"witness for {pair} uses an unknown channel"
            )
            continue
        if facts.start[path[0]] != s:
            report.fail(
                "connectivity",
                f"witness for {pair} starts at switch "
                f"{facts.start[path[0]]}, not {s}",
            )
        if facts.sink[path[-1]] != d:
            report.fail(
                "connectivity",
                f"witness for {pair} ends at switch "
                f"{facts.sink[path[-1]]}, not {d}",
            )
        for a, b in zip(path[:-1], path[1:]):
            if facts.sink[a] != facts.start[b]:
                report.fail(
                    "connectivity",
                    f"witness for {pair} breaks at {a}->{b}: channels do "
                    f"not meet at a switch",
                )
            elif (a, b) not in rel:
                # stricter than the certificate check on purpose: the
                # witness must stay inside the *escape* relation, not
                # merely inside the allowed relation
                report.fail(
                    "connectivity",
                    f"witness for {pair} uses turn {a}->{b} outside the "
                    f"escape relation",
                )
    missing = [
        (s, d)
        for d in range(facts.n)
        for s in range(facts.n)
        if s != d and (s, d) not in witnessed
    ]
    for pair in missing[:5]:
        report.fail("connectivity", f"no witness path for pair {pair}")
    if len(missing) > 5:
        report.fail(
            "connectivity",
            f"... and {len(missing) - 5} further pairs without a witness",
        )
    report.witness_pairs = len(witnessed)


def _check_existence_core(
    data: Mapping[str, object], facts: _RawFacts, report: CheckReport
) -> None:
    """Endorse an ``infeasible`` verdict's obstruction core."""
    core = data.get("core")
    if not isinstance(core, Mapping):
        report.fail("core", "infeasible verdict carries no core")
        return
    kind = str(core.get("kind", "?"))

    if kind == "disconnected":
        try:
            pairs = [(int(s), int(d)) for s, d in core.get("pairs", [])]
        except (TypeError, ValueError) as exc:
            report.fail("malformed", f"core pairs are not well-formed: {exc!r}")
            return
        if not pairs:
            report.fail("core", "disconnected core lists no pairs")
        for s, d in pairs:
            if not (0 <= s < facts.n and 0 <= d < facts.n) or s == d:
                report.fail("core", f"invalid disconnected pair ({s},{d})")
            elif _pair_reachable(facts, s, d, banned_turn=None):
                report.fail(
                    "core",
                    f"pair ({s},{d}) claimed disconnected, but an allowed "
                    f"path joins it",
                )
        report.witness_pairs = len(pairs)
        return

    if kind == "mandatory-cycle":
        try:
            cycle = [int(c) for c in core.get("cycle", [])]
            turns = {
                (int(a), int(b)): (int(s), int(d))
                for a, b, s, d in core.get("turns", [])
            }
        except (TypeError, ValueError) as exc:
            report.fail("malformed", f"core cycle is not well-formed: {exc!r}")
            return
        if len(cycle) < 2 or len(set(cycle)) != len(cycle):
            report.fail("core", "mandatory cycle is degenerate")
            return
        if any(not (0 <= c < facts.num_channels) for c in cycle):
            report.fail("core", "mandatory cycle uses an unknown channel")
            return
        edges = [
            (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        ]
        for a, b in edges:
            if not facts.allowed(a, b):
                report.fail(
                    "core",
                    f"cycle turn {a}->{b} is not an allowed turn — the "
                    f"cycle is not realizable",
                )
                continue
            witness = turns.get((a, b))
            if witness is None:
                report.fail(
                    "core", f"no mandatory witness for cycle turn {a}->{b}"
                )
                continue
            s, d = witness
            if not (0 <= s < facts.n and 0 <= d < facts.n) or s == d:
                report.fail(
                    "core",
                    f"invalid mandatory witness pair ({s},{d}) for turn "
                    f"{a}->{b}",
                )
            elif _pair_reachable(facts, s, d, banned_turn=(a, b)):
                report.fail(
                    "core",
                    f"turn {a}->{b} is not mandatory: ({s},{d}) stays "
                    f"reachable without it",
                )
        report.dependency_edges = len(edges)
        return

    if kind == "search-exhausted":
        # Only the obstruction cycle's *structure* is checkable here;
        # the exhaustive-search claim itself rests on the decision
        # procedure's completeness argument, not on this checker.
        try:
            cycle = [int(c) for c in core.get("cycle", [])]
        except (TypeError, ValueError) as exc:
            report.fail("malformed", f"core cycle is not well-formed: {exc!r}")
            return
        for i, a in enumerate(cycle):
            b = cycle[(i + 1) % len(cycle)]
            if not (
                0 <= a < facts.num_channels and 0 <= b < facts.num_channels
            ) or not facts.allowed(a, b):
                report.fail(
                    "core",
                    f"documented cycle turn {a}->{b} is not an allowed turn",
                )
        return

    report.fail("core", f"unknown core kind {kind!r}")


def check_existence_report(
    rep: Union[str, Mapping[str, object], object]
) -> CheckReport:
    """Independently re-validate an existence report.

    *rep* may be the JSON text, the decoded payload dict, or an
    :class:`~repro.statics.existence.ExistenceReport` (anything with a
    ``payload()`` method).  No traversal code is shared with
    :mod:`repro.statics.existence`: channels are re-derived from the
    link list, the allowed-turn predicate is re-implemented from the
    matrices, and reachability is re-walked with a local search.

    What is endorsed depends on the verdict:

    * ``feasible`` — the escape order is a permutation, every relation
      edge is an allowed turn pointing forward in the order, and every
      ordered switch pair has a witness path staying *inside* the
      escape relation;
    * ``infeasible`` — a ``disconnected`` core's pairs really have no
      allowed path, and a ``mandatory-cycle`` core's every turn really
      disconnects its witness pair when removed (``search-exhausted``
      cores get structure checks only — see their docstring);
    * ``unknown`` — nothing beyond format, digest and raw facts (there
      is no claim to endorse).

    The report's ``full_relation_acyclic`` stat is always re-derived —
    the turn-optimality auditor's relax loop depends on it.
    """
    report = CheckReport()
    try:
        data = _as_payload(rep)
    except (TypeError, ValueError) as exc:
        report.fail("malformed", str(exc))
        return report

    verdict = str(data.get("verdict", "?"))
    report.algorithm = f"existence[{verdict}]"
    if data.get("format") != _EXIST_FORMAT:
        report.fail("format", f"unsupported format {data.get('format')!r}")
        return report

    claimed_digest = str(data.get("digest", ""))
    report.digest = claimed_digest
    if not claimed_digest:
        report.fail("digest", "existence report carries no digest")
    else:
        actual = _digest(data)
        if actual != claimed_digest:
            report.fail(
                "digest",
                f"digest mismatch: stamped {claimed_digest}, payload "
                f"hashes to {actual}",
            )

    facts = _check_raw_facts(data, report)
    if facts is None:
        return report

    stats = data.get("stats")
    if isinstance(stats, Mapping) and "full_relation_acyclic" in stats:
        claimed_acyclic = bool(stats["full_relation_acyclic"])
        actual_acyclic = _is_acyclic(_full_relation_adjacency(facts))
        if claimed_acyclic != actual_acyclic:
            report.fail(
                "stats",
                f"full_relation_acyclic claimed {claimed_acyclic}, but the "
                f"checker finds {actual_acyclic}",
            )

    if verdict == "feasible":
        _check_existence_witness(data, facts, report)
    elif verdict == "infeasible":
        _check_existence_core(data, facts, report)
    elif verdict != "unknown":
        report.fail("verdict", f"unknown verdict {verdict!r}")
    return report


def recheck_existence(
    rep: Union[str, Mapping[str, object], object]
) -> CheckReport:
    """Run :func:`check_existence_report`; raise on a bad report."""
    report = check_existence_report(rep)
    if not report.ok:
        first = report.failures[0]
        raise CertificateError(
            f"existence report failed independent re-validation: "
            f"[{first.code}] {first.message} "
            f"({len(report.failures)} failure(s) total)",
            report,
        )
    return report
