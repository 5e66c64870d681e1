"""The independent certificate checker.

This module re-validates a :mod:`repro.statics.certificates` bundle —
and, via :func:`check_existence_report`, a
:mod:`repro.statics.existence` report — against nothing but the raw
facts the artifact itself carries: the topology's link list and the
turn prohibitions (class matrices, per-node overrides, channel-pair
releases).  It deliberately imports **nothing** from
:mod:`repro.routing`, :mod:`repro.core` or any other ``repro`` module
(lint rule ``STA008``) — channels are re-derived here from the
documented id convention (link ``k`` joining ``u < v`` yields channel
``2k`` = ``<u, v>`` and ``2k+1`` = ``<v, u>``), and the allowed-turn
predicate is re-implemented from the matrices directly.  A bug in the
builders' shared traversal code (``channel_graph``,
``cycle_detection``, ``existence``) therefore cannot self-certify: the
certificate it emits would fail here.

Each check is intentionally trivial (the certifying-algorithms
discipline):

* **deadlock freedom** — the claimed topological order is a permutation
  of the channels and every allowed dependency edge points forward;
* **connectivity** — every ordered switch pair has a witness path, and
  walking it crosses only allowed turns;
* **progress** — distances are locally consistent (zero exactly at the
  destination) and every en-route state has exactly one
  strictly-decreasing, allowed witness hop;
* **integrity** — the SHA-256 digest matches the canonical payload.

The allowed predicate is evaluated once per candidate turn into a
boolean ``(C, C)`` turn matrix, and each claim is then one linear pass
over its section written as numpy array operations: a mask per rule,
over every dependency edge, witness-path turn or ``(dest, channel)``
state at once.  Messages are formatted only for the entries a mask
flags, in input order.  A section that does not parse is a
``malformed`` failure, never an exception.  All failures are collected
into a :class:`CheckReport`; :func:`recheck` raises
:class:`CertificateError` on the first bad report.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

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
    pure fact validation (no claim is endorsed here).  ``start`` and
    ``sink`` are lists for the scalar predicate; ``start_arr`` and
    ``sink_arr`` hold the same ids for the array passes.
    """

    __slots__ = (
        "n",
        "num_channels",
        "start",
        "sink",
        "out_channels",
        "allowed",
        "start_arr",
        "sink_arr",
    )

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
        self.start_arr = np.array(start, dtype=np.int64)
        self.sink_arr = np.array(sink, dtype=np.int64)


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


#: what parsing a malformed claim section raises (missing key, wrong
#: container, a non-integer entry, an entry beyond int64)
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _int_array(values: Iterable[object], count: int = -1) -> np.ndarray:
    """*values* as an int64 array, each entry converted as ``int()`` would."""
    return np.fromiter(values, dtype=np.int64, count=count)


def _int_rows(rows: Sequence[Sequence[object]], width: int) -> np.ndarray:
    """Fixed-width integer rows (hop witnesses, relation edges) as an
    ``(m, width)`` array."""
    if set(map(len, rows)) - {width}:
        raise ValueError(f"entries are not {width}-tuples of integers")
    flat = _int_array(itertools.chain.from_iterable(rows), len(rows) * width)
    return flat.reshape(-1, width)


class _WitnessPaths:
    """Witness paths ``(source, dest, channels)`` flattened into arrays.

    ``flat`` holds every path's channels back to back: path ``i`` is
    ``flat[offset[i]:offset[i] + length[i]]``, and ``owner[j]`` is the
    path that position ``j`` of ``flat`` belongs to.
    """

    __slots__ = ("source", "dest", "length", "offset", "flat", "owner")

    def __init__(self, entries: Sequence[Sequence[object]]):
        if set(map(len, entries)) - {3}:
            raise ValueError("witness entries are not (source, dest, path) triples")
        sources, dests, paths = zip(*entries) if entries else ((), (), ())
        count = len(entries)
        lengths = list(map(len, paths))
        ends = _int_array(itertools.accumulate(lengths, initial=0), count + 1)
        self.source = _int_array(sources, count)
        self.dest = _int_array(dests, count)
        self.length = _int_array(lengths, count)
        self.offset = ends[:-1]
        self.flat = _int_array(itertools.chain.from_iterable(paths), int(ends[-1]))
        self.owner = np.repeat(np.arange(count), self.length)


def _allowed_turns(facts: _RawFacts) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The allowed relation as edge arrays and as a boolean turn matrix.

    The predicate is evaluated once per candidate turn (the successor
    table); ``src``/``dst`` list its edges in that order, and
    ``matrix[a, b]`` says whether a worm on ``a`` may request ``b``.
    """
    succ = _full_relation_adjacency(facts)
    src = np.repeat(np.arange(facts.num_channels), [len(outs) for outs in succ])
    dst = _int_array(itertools.chain.from_iterable(succ), src.size)
    return src, dst, _turn_matrix(src, dst, facts.num_channels)


def _turn_matrix(src: np.ndarray, dst: np.ndarray, num_channels: int) -> np.ndarray:
    matrix = np.zeros((num_channels, num_channels), dtype=bool)
    matrix[src, dst] = True
    return matrix


def _order_positions(order: np.ndarray, num_channels: int) -> Optional[np.ndarray]:
    """``pos[c]`` is channel ``c``'s index in *order*; ``None`` unless
    *order* is a permutation of the channels."""
    if order.size != num_channels or np.count_nonzero(
        (order < 0) | (order >= num_channels)
    ):
        return None
    pos = np.full(num_channels, -1, dtype=np.int64)
    pos[order] = np.arange(num_channels)
    return None if np.count_nonzero(pos < 0) else pos


def _first_occurrences(key: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Whether each entry is the first with its key; *counts* is
    ``np.bincount(key)``.  Only keys that repeat, which no genuine
    artifact has, are resolved one by one."""
    first = np.ones(key.size, dtype=bool)
    repeats = np.flatnonzero(counts[key] > 1)
    seen: Set[int] = set()
    for i, k in zip(repeats.tolist(), key[repeats].tolist()):
        first[i] = k not in seen
        seen.add(k)
    return first


def _walk_witness_paths(
    paths: _WitnessPaths,
    facts: _RawFacts,
    turn_ok: np.ndarray,
    off_turn: Callable[[Tuple[int, int], int, int], str],
    report: CheckReport,
) -> None:
    """Every ordered switch pair has one witness path, and every turn on
    it is one that *turn_ok* admits.

    A certificate passes its allowed-turn matrix, an existence witness
    its escape relation.  *off_turn* words the failure for a turn
    between channels that meet at a switch but that the matrix does
    not admit.  Only the first witness of a pair is walked, and only
    valid pairs count toward ``witness_pairs``.
    """
    n, num_channels = facts.n, facts.num_channels
    s, d, flat = paths.source, paths.dest, paths.flat
    count = s.size
    # the first witness of each pair is walked, later ones are
    # duplicates; pairs off the switches share one spare slot (all of
    # them fail) and are told apart when their messages are written
    on_switches = (s >= 0) & (s < n) & (d >= 0) & (d < n)
    key = np.where(on_switches, s * n + d, n * n)
    first = _first_occurrences(key, np.bincount(key, minlength=n * n + 1))
    valid = first & on_switches & (s != d)
    empty = valid & (paths.length == 0)
    unknown = np.zeros(count, dtype=bool)
    unknown[paths.owner[(flat < 0) | (flat >= num_channels)]] = True
    walk = valid & ~empty & ~unknown

    bad_start = np.zeros(count, dtype=bool)
    bad_end = np.zeros(count, dtype=bool)
    head = paths.offset[walk]
    bad_start[walk] = facts.start_arr[flat[head]] != s[walk]
    bad_end[walk] = facts.sink_arr[flat[head + paths.length[walk] - 1]] != d[walk]

    # turn j joins flat[j] -> flat[j + 1] when both lie on one walked path
    inner = (paths.owner[:-1] == paths.owner[1:]) & walk[paths.owner[:-1]]
    a, b = flat[:-1][inner], flat[1:][inner]
    bad_turn = np.zeros(max(flat.size - 1, 0), dtype=bool)
    bad_turn[inner] = (facts.sink_arr[a] != facts.start_arr[b]) | ~turn_ok[a, b]
    broken = np.zeros(count, dtype=bool)
    broken[paths.owner[:-1][bad_turn]] = True

    flagged = ~valid | empty | unknown | bad_start | bad_end | broken
    off_switches: Set[Tuple[int, int]] = set()
    for i in np.flatnonzero(flagged)[:_MAX_FAILURES].tolist():
        pair = (int(s[i]), int(d[i]))
        if not on_switches[i]:
            seen = pair in off_switches
            off_switches.add(pair)
            report.fail(
                "connectivity",
                f"duplicate witness for {pair}" if seen else f"invalid witness pair {pair}",
            )
        elif not first[i]:
            report.fail("connectivity", f"duplicate witness for {pair}")
        elif not valid[i]:
            report.fail("connectivity", f"invalid witness pair {pair}")
        elif empty[i]:
            report.fail("connectivity", f"empty witness path for {pair}")
        elif unknown[i]:
            report.fail("connectivity", f"witness for {pair} uses an unknown channel")
        else:
            path = flat[paths.offset[i]:paths.offset[i] + paths.length[i]].tolist()
            if bad_start[i]:
                report.fail(
                    "connectivity",
                    f"witness for {pair} starts at switch "
                    f"{facts.start[path[0]]}, not {pair[0]}",
                )
            if bad_end[i]:
                report.fail(
                    "connectivity",
                    f"witness for {pair} ends at switch "
                    f"{facts.sink[path[-1]]}, not {pair[1]}",
                )
            turns = bad_turn[paths.offset[i]:paths.offset[i] + len(path) - 1]
            for j in np.flatnonzero(turns).tolist():
                ta, tb = path[j], path[j + 1]
                if facts.sink[ta] != facts.start[tb]:
                    report.fail(
                        "connectivity",
                        f"witness for {pair} breaks at {ta}->{tb}: channels do "
                        f"not meet at a switch",
                    )
                else:
                    report.fail("connectivity", off_turn(pair, ta, tb))

    covered = np.zeros((n, n), dtype=bool)
    covered[s[valid], d[valid]] = True
    np.fill_diagonal(covered, True)
    # destination-major, as the pairs are listed
    missing = np.argwhere(~covered.T)
    for dd, ss in missing[:5].tolist():
        report.fail("connectivity", f"no witness path for pair {(ss, dd)}")
    if len(missing) > 5:
        report.fail(
            "connectivity",
            f"... and {len(missing) - 5} further pairs without a witness",
        )
    report.witness_pairs = np.count_nonzero(valid)


def _check_progress(
    dist: np.ndarray,
    unreachable: int,
    hops: np.ndarray,
    facts: _RawFacts,
    allowed: np.ndarray,
    report: CheckReport,
) -> None:
    """Claim 3 over the ``(n, C)`` distance table and the hop witnesses.

    Each hop witness ``(d, c, b)`` must name a state inside the table,
    at most once; a state named twice has no usable witness.
    """
    n, num_channels = dist.shape
    hd, hc, hb = hops[:, 0], hops[:, 1], hops[:, 2]
    inside = (hd >= 0) & (hd < n) & (hc >= 0) & (hc < num_channels)
    at = np.flatnonzero(inside)
    key = hd[at] * num_channels + hc[at]
    named = np.bincount(key, minlength=n * num_channels)  # witnesses per state
    repeated = np.zeros(hops.shape[0], dtype=bool)
    repeated[at] = ~_first_occurrences(key, named)
    sole = named[key] == 1
    hop = np.zeros(n * num_channels, dtype=np.int64)
    hop[key[sole]] = hb[at[sole]]
    for i in np.flatnonzero(~inside | repeated)[:_MAX_FAILURES].tolist():
        d, c = int(hd[i]), int(hc[i])
        if inside[i]:
            report.fail("progress", f"duplicate witness hop for dest {d}, channel {c}")
        else:
            report.fail(
                "progress",
                f"witness hop for dest {d}, channel {c} lies outside the "
                f"distance table",
            )
    has_hop = (named == 1).reshape(n, num_channels)
    ambiguous = (named > 1).reshape(n, num_channels)
    hop = hop.reshape(n, num_channels)

    at_dest = facts.sink_arr[None, :] == np.arange(n)[:, None]
    zero = dist == 0
    en_route = (dist > 0) & (dist < unreachable)
    zero_away = zero & ~at_dest
    dest_nonzero = ~zero & at_dest & (dist != unreachable)
    no_hop = en_route & ~has_hop & ~ambiguous
    checked = en_route & has_hop
    not_channel = checked & ((hop < 0) | (hop >= num_channels))
    checked &= ~not_channel
    b = np.where(checked, hop, 0)
    prohibited = checked & ~allowed[np.arange(num_channels)[None, :], b]
    after = np.take_along_axis(dist, b, axis=1)
    no_decrease = checked & (after != dist - 1)

    flagged = (
        zero_away | dest_nonzero | no_hop | not_channel | prohibited | no_decrease
    )
    for i in np.flatnonzero(flagged)[:_MAX_FAILURES].tolist():
        d, c = divmod(i, num_channels)
        rem = int(dist[d, c])
        if zero_away[d, c]:
            report.fail(
                "progress",
                f"dist[{d}][{c}] is 0 but channel {c} sinks at "
                f"{facts.sink[c]}, not {d}",
            )
        if dest_nonzero[d, c]:
            report.fail(
                "progress",
                f"channel {c} sinks at its destination {d} but dist is {rem}",
            )
        if no_hop[d, c]:
            report.fail(
                "progress",
                f"no witness hop for dest {d}, channel {c} at distance {rem}",
            )
        if not_channel[d, c]:
            report.fail(
                "progress",
                f"witness hop {int(hop[d, c])} for dest {d}, channel {c} is "
                f"not a channel",
            )
        if prohibited[d, c]:
            report.fail(
                "progress",
                f"witness hop {c}->{int(b[d, c])} for dest {d} crosses a "
                f"prohibited turn",
            )
        if no_decrease[d, c]:
            report.fail(
                "progress",
                f"witness hop {c}->{int(b[d, c])} for dest {d} does not "
                f"decrease distance ({rem} -> {int(after[d, c])})",
            )
    report.progress_states = np.count_nonzero(en_route)


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
    try:
        order = _int_array(data["deadlock"]["order"])
        paths = _WitnessPaths(data["connectivity"]["witnesses"])
        prog = data["progress"]
        unreachable = int(prog["unreachable"])
        rows = prog["dist"]
        dist: Optional[np.ndarray] = None
        if len(rows) == n and all(len(row) == num_channels for row in rows):
            dist = _int_array(
                itertools.chain.from_iterable(rows), n * num_channels
            ).reshape(n, num_channels)
        hops = _int_rows(prog["witnesses"], 3)
    except _MALFORMED as exc:
        report.fail("malformed", f"claims are not well-formed: {exc!r}")
        return report
    src, dst, allowed = _allowed_turns(facts)

    # ------------------------------------------------------------------
    # claim 1: deadlock freedom via the topological order
    # ------------------------------------------------------------------
    pos = _order_positions(order, num_channels)
    if pos is None:
        report.fail(
            "deadlock",
            f"topological order is not a permutation of the "
            f"{num_channels} channels ({order.size} entries)",
        )
    else:
        backwards = np.flatnonzero(pos[src] >= pos[dst])
        for j in backwards[:_MAX_FAILURES].tolist():
            a, b = int(src[j]), int(dst[j])
            report.fail(
                "deadlock",
                f"dependency {a}->{b} is allowed but runs backwards in the "
                f"claimed order (pos {int(pos[a])} >= {int(pos[b])})",
            )
        report.dependency_edges = int(src.size)

    # ------------------------------------------------------------------
    # claim 2: connectivity via witness paths
    # ------------------------------------------------------------------
    _walk_witness_paths(
        paths,
        facts,
        allowed,
        lambda pair, a, b: (
            f"witness for {pair} crosses a prohibited turn {a}->{b} at "
            f"switch {facts.sink[a]}"
        ),
        report,
    )

    # ------------------------------------------------------------------
    # claim 3: progress via distance-decrease witnesses
    # ------------------------------------------------------------------
    if dist is None:
        report.fail("progress", "distance table has the wrong shape")
        return report
    _check_progress(dist, unreachable, hops, facts, allowed, report)
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
        order = _int_array(witness["order"])
        relation = _int_rows(witness["relation"], 2)
        paths = _WitnessPaths(witness["paths"])
    except _MALFORMED as exc:
        report.fail("malformed", f"witness is not well-formed: {exc!r}")
        return

    num_channels = facts.num_channels
    pos = _order_positions(order, num_channels)
    if pos is None:
        report.fail(
            "deadlock",
            f"escape order is not a permutation of the {num_channels} "
            f"channels ({order.size} entries)",
        )
        return

    ra, rb = relation[:, 0], relation[:, 1]
    on_channels = (ra >= 0) & (ra < num_channels) & (rb >= 0) & (rb < num_channels)
    ea, eb = np.where(on_channels, ra, 0), np.where(on_channels, rb, 0)
    not_allowed = on_channels & ~_allowed_turns(facts)[2][ea, eb]
    backwards = on_channels & (pos[ea] >= pos[eb])
    for i in np.flatnonzero(~on_channels | not_allowed | backwards)[
        :_MAX_FAILURES
    ].tolist():
        a, b = int(ra[i]), int(rb[i])
        if not on_channels[i]:
            report.fail("relation", f"relation edge {a}->{b} is not a channel pair")
        elif not_allowed[i]:
            report.fail(
                "relation",
                f"relation edge {a}->{b} is not an allowed turn",
            )
        else:
            report.fail(
                "deadlock",
                f"relation edge {a}->{b} runs backwards in the claimed "
                f"order (pos {int(pos[a])} >= {int(pos[b])})",
            )
    escape = _turn_matrix(ra[on_channels], rb[on_channels], num_channels)
    report.dependency_edges = np.count_nonzero(escape)

    # stricter than the certificate check on purpose: the witness must
    # stay inside the *escape* relation, not merely inside the allowed
    # relation
    _walk_witness_paths(
        paths,
        facts,
        escape,
        lambda pair, a, b: (
            f"witness for {pair} uses turn {a}->{b} outside the escape "
            f"relation"
        ),
        report,
    )


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
