"""Content-addressed construction-artifact cache.

The paper's methodology (Section 5) evaluates every algorithm on the
*same* coordinated tree and the *same* test samples, which means a
campaign re-derives identical shared state — topology generation, tree
construction, Phase 1-3 routing construction, Theorem-1 verification —
inside every work unit: a Figure-8 sweep rebuilds the identical
(topology, tree, routing) tuple once per offered load.  With the
simulation hot loop ≥2x faster since the engine fast path landed,
construction is the dominant fixed cost of short and mid-length runs.

This module amortizes it across the whole campaign, treating routing
construction the way the up*/down* literature treats route computation:
a precomputed, distributable artifact.

Two layers:

* **On-disk store** — every artifact is serialized (via the versioned
  codecs in :mod:`repro.topology.serialization` and
  :mod:`repro.routing.serialization`) into a file named by the SHA-256
  digest of its *full input closure*: generator/tree/builder seeds
  (derived from the preset seed), port count, sample, tree method,
  algorithm name and a builder version tag.  Anything that could change
  the artifact changes the key, so a stale preset or code bump can
  never alias a cached entry.  Entries carry a header line with a
  SHA-256 checksum of the payload bytes; publication is
  :func:`repro.util.fsio.atomic_write_text` (write-to-temp with a
  host-qualified name, then ``os.replace``) guarded by a
  non-blocking ``fcntl.flock`` on a per-entry lock file, so a busy lock
  always means another writer is publishing the same digest.  A torn or
  corrupted entry (e.g. left by a SIGKILLed worker) fails its checksum,
  is counted and treated as a miss, and is overwritten by the next
  successful publication; it can never poison results.

* **In-process LRU** — pool workers keep a bounded map from entry
  digest to the *decoded* object, so the many work units that share one
  routing (every offered load of a Figure-8 sweep; all four table
  metrics) pay construction or deserialization once per process, not
  once per unit.

Integrity discipline: cache entries are the only place this codebase
deserializes routing state with the builder's Theorem-1 re-verification
disabled — the payload checksum plus the input-closure key guarantee
the bytes are exactly what a verified builder produced.  The invariant
linter's STA005 rule forbids checksum-free ``verify=False`` /
``validate=False`` deserialization anywhere else.

Results are bit-identical with the cache on or off: a decoded routing
round-trips to the same tables, turn model and distances the builder
produced (asserted by the equivalence suite via
:meth:`~repro.simulator.stats.SimulationStats.canonical_digest`).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

try:  # advisory per-entry locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.core.coordinated_tree import CoordinatedTree
from repro.routing.base import RoutingFunction
from repro.routing.serialization import (
    FORMAT as ROUTING_FORMAT,
    routing_from_json,
    routing_to_json,
    tree_from_json,
    tree_to_json,
)
from repro.topology.graph import Topology
from repro.topology.serialization import (
    topology_digest,
    topology_from_json,
    topology_to_json,
)
from repro.util.fsio import atomic_write_text

#: on-disk entry layout version; mismatched entries are treated as misses
ARTIFACT_FORMAT = "repro-artifact-v1"

#: version tag of the construction pipeline baked into every key.  Bump
#: whenever a builder's *output* changes (new phase, different
#: tie-breaking, ...) so stale entries miss instead of aliasing.
BUILDER_VERSION = "construction-v1"

#: default bound of the in-process decoded-object LRU (a decoded
#: 128-switch 8-port DOWN/UP routing holds about 2 MB by tracemalloc;
#: one Figure-8 sample's working set is ~10 objects)
DEFAULT_MEMORY_ENTRIES = 16

_COUNTER_FIELDS = (
    "hits",
    "memory_hits",
    "shared_hits",
    "misses",
    "corrupt",
    "publish_skipped",
    "bytes_written",
)


def artifact_digest(kind: str, key: Dict[str, object]) -> str:
    """Canonical SHA-256 content address of one artifact's input closure."""
    payload = {"format": ARTIFACT_FORMAT, "kind": kind, **key}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _payload_checksum(payload: str) -> str:
    """SHA-256 over the raw payload bytes (cheap to re-verify on read)."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _validated_entry(
    path: Path, kind: Optional[str] = None
) -> Tuple[Optional[str], bool]:
    """Validate one entry file: ``(payload, suspect)``.

    ``payload`` is the body after the header line, ``None`` when the
    entry is missing or fails any check: format tag, payload checksum
    and, when *kind* is given, the header's kind.  ``suspect``
    distinguishes "file exists but is unreadable/torn/mismatched"
    (counted ``corrupt`` by readers, reported by :func:`verify_store`)
    from a plain miss.
    """
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None, False
    except OSError:
        return None, True
    nl = raw.find("\n")
    if nl < 0:
        return None, True
    try:
        header = json.loads(raw[:nl])
    except json.JSONDecodeError:
        return None, True
    payload = raw[nl + 1 :]
    if (
        not isinstance(header, dict)
        or header.get("format") != ARTIFACT_FORMAT
        or (kind is not None and header.get("kind") != kind)
        or header.get("payload_sha256") != _payload_checksum(payload)
    ):
        return None, True
    return payload, False


def tree_key_digest(topology: Topology, method: str, seed: int) -> str:
    """Digest of a tree's input closure — chains routing keys to trees."""
    return artifact_digest(
        "tree",
        {
            "topology": topology_digest(topology),
            "method": method,
            "seed": seed,
            "builder": BUILDER_VERSION,
        },
    )


@dataclass
class CacheCounters:
    """Hit/miss tallies of one :class:`ArtifactCache` instance."""

    hits: int = 0  # disk hits (checksum-verified, decoded)
    memory_hits: int = 0  # served from the in-process LRU
    shared_hits: int = 0  # always 0 (no shared tier); trace tools read it
    misses: int = 0  # built from scratch
    corrupt: int = 0  # entries dropped for a failed checksum/decode
    publish_skipped: int = 0  # lock was busy; built but not published
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in _COUNTER_FIELDS}

    def delta_since(self, other: Dict[str, int]) -> Dict[str, int]:
        return {f: getattr(self, f) - other.get(f, 0) for f in _COUNTER_FIELDS}


class ArtifactCache:
    """Process-safe, content-addressed construction cache.

    One instance per process per store directory, bound through
    :func:`set_process_cache`.  All reads verify the
    per-entry payload checksum; all writes publish atomically under a
    non-blocking per-entry lock.  ``max_memory_entries`` bounds the
    in-process decoded-object LRU (0 disables it).

    Workers on several hosts share constructions by pointing *root* at
    one directory on a shared filesystem: publishes use host-qualified
    temp names and counter flushes run under a flock.

    *root* ``None`` keeps the in-process tier alone: nothing is encoded,
    written or tallied on disk, which suits a run that executes in one
    process and is discarded after it (an evicted object is rebuilt).
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]],
        max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.counters = CacheCounters()
        self._flushed: Dict[str, int] = {}
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        self._max_memory = max(0, max_memory_entries)

    # -- paths ---------------------------------------------------------
    def entry_path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    @property
    def _counters_path(self) -> Path:
        return self.root / "counters.jsonl"

    # -- in-process LRU ------------------------------------------------
    def _memory_get(self, digest: str) -> Optional[object]:
        obj = self._memory.get(digest)
        if obj is not None:
            self._memory.move_to_end(digest)
        return obj

    def _memory_put(self, digest: str, obj: object) -> None:
        if self._max_memory <= 0:
            return
        self._memory[digest] = obj
        self._memory.move_to_end(digest)
        while len(self._memory) > self._max_memory:
            self._memory.popitem(last=False)

    # -- on-disk store -------------------------------------------------
    def _read(self, digest: str, kind: str) -> Optional[str]:
        """Checksum-verified payload of one entry, or ``None``.

        Anything suspect — unreadable file, malformed header, format or
        kind mismatch, checksum failure (a torn write SIGKILL'd
        mid-publication, bit rot) — counts as ``corrupt`` and is treated
        as a miss; the next successful publication atomically replaces
        the bad file.
        """
        if self.root is None:
            return None
        payload, suspect = _validated_entry(self.entry_path(digest), kind)
        if suspect:
            self.counters.corrupt += 1
        return payload

    def _publish(
        self, digest: str, kind: str, key: Dict[str, object], payload: str
    ) -> None:
        """Atomically publish one entry file.

        Written through :func:`repro.util.fsio.atomic_write_text`:
        readers only ever see a complete entry under the final name, and
        its host-qualified temp names cannot collide across hosts
        sharing the store.  The flock on ``<digest>.lock``
        keeps concurrent pools from duplicating serialization work; a
        busy lock just skips the publish (the artifact was built anyway,
        and whoever holds that entry's lock is publishing identical
        content under the same name).  Publishes of different entries
        never contend.
        """
        header = json.dumps(
            {
                "format": ARTIFACT_FORMAT,
                "kind": kind,
                "key": key,
                "builder": BUILDER_VERSION,
                "payload_sha256": _payload_checksum(payload),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        data = header + "\n" + payload
        lock_fh = open(self.root / f"{digest}.lock", "a")
        try:
            if fcntl is not None:
                try:
                    fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    self.counters.publish_skipped += 1
                    return
            atomic_write_text(self.entry_path(digest), data)
            self.counters.bytes_written += len(data)
        finally:
            lock_fh.close()  # closing drops the flock

    # -- generic get-or-build ------------------------------------------
    def get_or_build(
        self,
        kind: str,
        key: Dict[str, object],
        build: Callable[[], object],
        encode: Callable[[object], str],
        decode: Callable[[str], object],
    ):
        """The cache protocol: memory LRU, disk, then build+publish."""
        digest = artifact_digest(kind, key)
        obj = self._memory_get(digest)
        if obj is not None:
            self.counters.memory_hits += 1
            return obj
        payload = self._read(digest, kind)
        if payload is not None:
            try:
                obj = decode(payload)
            except (ValueError, KeyError, TypeError):
                # decodable-but-wrong content (e.g. hand-edited entry
                # with a refreshed checksum): drop and rebuild
                self.counters.corrupt += 1
            else:
                self.counters.hits += 1
                self._memory_put(digest, obj)
                return obj
        obj = build()
        if self.root is not None:
            # a skipped publish is fine: another writer owns publication
            self._publish(digest, kind, key, encode(obj))
        self.counters.misses += 1
        self._memory_put(digest, obj)
        return obj

    # -- typed wrappers ------------------------------------------------
    def topology(
        self, n: int, ports: int, seed: int, build: Callable[[], Topology]
    ) -> Topology:
        """The generated topology for ``(n, ports, seed)``."""
        return self.get_or_build(
            "topology",
            {"n": n, "ports": ports, "seed": seed},
            build,
            lambda t: topology_to_json(t),
            lambda s: topology_from_json(s),
        )

    def tree(
        self,
        topology: Topology,
        method: str,
        seed: int,
        build: Callable[[], CoordinatedTree],
    ) -> CoordinatedTree:
        """The coordinated tree for ``(topology, method, seed)``."""
        return self.get_or_build(
            "tree",
            {
                "topology": topology_digest(topology),
                "method": method,
                "seed": seed,
                "builder": BUILDER_VERSION,
            },
            build,
            lambda t: tree_to_json(t),
            # checksum + input-closure key substitute for re-validation
            lambda s: tree_from_json(s, validate=False),
        )

    def routing(
        self,
        topology: Topology,
        tree_key: str,
        algorithm: str,
        seed: int,
        build: Callable[[], RoutingFunction],
    ) -> RoutingFunction:
        """The verified routing for ``(topology, tree, algorithm, seed)``.

        *tree_key* is the digest of the tree's input closure (or ``""``
        for builders that ignore the tree), chaining the routing's
        content address through the tree's.
        """
        return self.get_or_build(
            "routing",
            {
                "topology": topology_digest(topology),
                "tree": tree_key,
                "algorithm": algorithm,
                "seed": seed,
                "builder": BUILDER_VERSION,
                # entries of an older codec miss instead of failing decode
                "codec": ROUTING_FORMAT,
            },
            build,
            lambda r: routing_to_json(r),
            # checksum + input-closure key substitute for Theorem-1
            # re-verification of bytes a verified builder produced
            lambda s: routing_from_json(s, verify=False),
        )

    # -- counters ------------------------------------------------------
    def flush_counters(self) -> None:
        """Append this instance's counter delta to the shared tally.

        Safe across concurrent (even multi-host) writers: one JSON line
        per flush, appended under a blocking flock on the counters file
        — and, first, the same torn-tail truncation discipline as the
        ledger: if a previous writer was SIGKILLed mid-append and left
        a line without its newline, the torn tail is truncated away
        *before* this append, so the new record starts on its own line
        instead of fusing with (and destroying) the torn one.  No-op
        when nothing changed.
        """
        delta = self.counters.delta_since(self._flushed)
        if self.root is None or not any(delta.values()):
            return
        with open(self._counters_path, "ab") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            size = os.fstat(fh.fileno()).st_size
            if size > 0:
                with open(self._counters_path, "rb") as read_fh:
                    raw = read_fh.read(size)
                if not raw.endswith(b"\n"):
                    good_end = raw.rfind(b"\n") + 1  # 0 when no newline
                    os.ftruncate(fh.fileno(), good_end)
            fh.write(
                (json.dumps(delta, sort_keys=True) + "\n").encode("utf-8")
            )
            fh.flush()
        self._flushed = self.counters.as_dict()


# ---------------------------------------------------------------------------
# store-level inspection (CLI `cache` subcommand, campaign manifests)
# ---------------------------------------------------------------------------


def _entry_files(root: Union[str, Path]) -> List[Path]:
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(
        p
        for p in root.iterdir()
        if p.name.endswith(".json") and not p.name.startswith("tmp-")
    )


def read_counters(root: Union[str, Path]) -> Dict[str, int]:
    """Aggregate every flushed counter delta of a store (all processes)."""
    totals = {f: 0 for f in _COUNTER_FIELDS}
    path = Path(root) / "counters.jsonl"
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (FileNotFoundError, OSError):
        return totals
    for line in lines:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail of a killed flush
        if isinstance(rec, dict):
            for f in _COUNTER_FIELDS:
                v = rec.get(f, 0)
                if isinstance(v, int):
                    totals[f] += v
    return totals


def store_stats(root: Union[str, Path]) -> Dict[str, object]:
    """Entry/byte counts plus aggregated hit/miss counters of a store."""
    files = _entry_files(root)
    kinds: Dict[str, int] = {}
    total = 0
    for p in files:
        total += p.stat().st_size
        with open(p, "r", encoding="utf-8") as fh:
            head = fh.readline()
        try:
            kind = json.loads(head).get("kind", "?")
        except (json.JSONDecodeError, AttributeError):
            kind = "?"
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "entries": len(files),
        "bytes": total,
        "by_kind": dict(sorted(kinds.items())),
        "counters": read_counters(root),
    }


def verify_store(root: Union[str, Path]) -> Tuple[int, List[str]]:
    """Re-checksum every entry; returns ``(checked, corrupt_names)``.

    Also audits ``counters.jsonl``: a torn tail (a flush SIGKILLed
    mid-append) or garbage line is *reported* as a corrupt name — never
    a crash — so an operator inspecting a store that survived a worker
    death sees exactly what the crash cost.
    """
    corrupt: List[str] = []
    files = _entry_files(root)
    for p in files:
        if _validated_entry(p)[1]:
            corrupt.append(p.name)
    counters_path = Path(root) / "counters.jsonl"
    try:
        raw_bytes = counters_path.read_bytes()
    except (FileNotFoundError, OSError):
        raw_bytes = b""
    if raw_bytes:
        bad = 0
        if not raw_bytes.endswith(b"\n"):
            bad += 1  # torn tail awaiting the next flush's truncation
        # drop the final fragment: the trailing empty split on a clean
        # file, the already-counted torn fragment otherwise
        for line in raw_bytes.split(b"\n")[:-1]:
            try:
                if not isinstance(json.loads(line.decode("utf-8")), dict):
                    bad += 1
            except (UnicodeDecodeError, json.JSONDecodeError):
                bad += 1
        if bad:
            corrupt.append(f"counters.jsonl ({bad} unreadable line(s))")
    return len(files), corrupt


def clear_store(root: Union[str, Path]) -> int:
    """Delete every entry, temp file and counter record; keep the dir.

    Returns the number of those files removed.  Per-entry lock files
    are removed too but not counted: they hold no data.
    """
    root = Path(root)
    if not root.is_dir():
        return 0
    removed = 0
    for p in root.iterdir():
        if p.name.endswith(".lock"):
            p.unlink(missing_ok=True)
        elif (
            p.name.endswith(".json")
            or p.name.startswith("tmp-")
            or p.name == "counters.jsonl"
        ):
            p.unlink(missing_ok=True)
            removed += 1
    return removed


# ---------------------------------------------------------------------------
# per-process cache (pool workers, serial runners)
# ---------------------------------------------------------------------------

_PROCESS_CACHE: Optional[ArtifactCache] = None


def set_process_cache(
    path: Optional[Union[str, Path, ArtifactCache]],
) -> Optional[ArtifactCache]:
    """(Re)bind the process-wide cache and return it.  ``None`` disables
    it; an :class:`ArtifactCache` instance is bound as is; a store path
    keeps the bound instance when its root matches.

    This is the one way ``repro`` opens a store: the pool initializer
    binds through it, and so does every entry point handed a store
    path, so all work in a process shares one instance (and therefore
    one decoded-object LRU) per store.
    """
    global _PROCESS_CACHE
    if path is None or isinstance(path, ArtifactCache):
        _PROCESS_CACHE = path
        return path
    if _PROCESS_CACHE is None or _PROCESS_CACHE.root != Path(path):
        _PROCESS_CACHE = ArtifactCache(path)
    return _PROCESS_CACHE


def process_cache() -> Optional[ArtifactCache]:
    """The cache bound to this process, or ``None``."""
    return _PROCESS_CACHE
