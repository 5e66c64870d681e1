"""Coordinator-less multi-host campaign execution.

Several worker processes — typically one per host — point at the same
*campaign directory* on a shared filesystem and cooperatively drain one
stage's work-unit list.  There is no coordinator process and no network
protocol: the directory itself is the coordination medium, and every
primitive is a crash-safe filesystem operation (``O_CREAT|O_EXCL``
claim files, ``os.replace`` renewals, append-only fsync'd ledger
shards).

Correctness never depends on the locking.  Work units are
deterministic — the same unit produces byte-identical records on every
host — and the final merge deduplicates by unit digest, so the worst a
lost race can cause is one redundant execution.  Leases are therefore
an *efficiency* mechanism (avoid duplicate work) layered under a
correctness mechanism (content-addressed dedup), which is what makes
the protocol safe to run over filesystems with weak cross-host
semantics.

The lease protocol, in full:

* **Claim** — a worker claims unit ``d`` by creating
  ``leases/<d>.json`` with ``O_CREAT|O_EXCL`` (atomic on POSIX: exactly
  one creator wins).  The file holds the worker id, a monotonic
  heartbeat ``counter`` starting at 0, and the ``prior`` list of
  workers that previously died holding this unit.
* **Renew** — while executing, a heartbeat thread republishes the lease
  every ``renew_interval`` seconds with an incremented counter
  (write-to-temp + ``os.replace``; readers never see a torn lease).
* **Staleness** — a lease is presumed stale only after its *identity*
  (worker, counter — or the content hash of an unparsable lease) has
  been observed unchanged across ``stale_scans`` consecutive local
  scans.  Staleness is decided purely by counting one's own
  observations of the other side's monotonic counter: **no wall-clock
  timestamp is ever compared**, so clock skew between hosts cannot
  cause a double-execution decision.  (A worker's own lease left behind
  by a dead previous incarnation is reclaimed immediately — the shard
  ledger's ``flock`` guarantees at most one live process per worker
  id.)
* **Takeover** — a survivor re-reads the stale lease, verifies the
  identity is *still* unchanged, unlinks it and re-claims with
  ``O_EXCL``, appending the dead worker to ``prior``.  Takeover is
  bounded by ``takeover_retries``; losing every race simply means some
  other survivor owns the unit now.  The one residual race — the old
  holder was alive after all and renews over the new claim — yields two
  workers executing the same unit, which the merge deduplicates.
* **Poison** — a claim whose ``prior`` already names ``poison_after``
  *distinct* dead workers does not execute: the unit is quarantined by
  publishing ``poison/<d>.json`` and surfaces as a
  :class:`~repro.experiments.parallel.UnitFailure`, so a unit that
  reliably kills its host cannot take the whole fleet down.

Results stream to one append-only ledger shard per worker
(``ledger_<worker>.jsonl``), reusing the
:class:`~repro.experiments.ledger.ResultLedger` format verbatim — each
shard has exactly one writer, so the ledger's single-writer ``flock``
and WAL-style torn-tail recovery stay valid.  :func:`merge_stage`
folds all shards deterministically (sorted shard order, first ``ok``
record per digest wins, results assembled in work-list order), so the
merged aggregates are byte-identical to a single-host run no matter
how many workers participated, who crashed, or how units interleaved.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.artifacts import set_process_cache
from repro.experiments.ledger import (
    ResultLedger,
    _decode_result,
    read_records,
    unit_digest,
)
from repro.experiments.parallel import (
    DEFAULT_RETRIES,
    UnitFailure,
    WorkUnit,
    _worker_init,
    execute_unit,
)
from repro.util.fsio import atomic_write_text

#: subdirectory names inside one stage's coordination directory
LEASE_DIR = "leases"
POISON_DIR = "poison"

#: ledger shard prefix; one shard per worker, single-writer each
SHARD_PREFIX = "ledger_"


def default_worker_id() -> str:
    """A worker id unique per live process: ``<host>-<pid>``.

    Uniqueness is what matters — each id owns one ledger shard, and the
    shard's ``flock`` enforces one live process per id.  Operators may
    pass a stable ``--worker`` name instead (e.g. the hostname) so a
    restarted worker resumes its own shard and reclaims its own stale
    leases immediately.
    """
    return _sanitize(f"{socket.gethostname()}-{os.getpid()}")


def _sanitize(name: str) -> str:
    """Filesystem-safe worker id (it becomes part of the shard name)."""
    return "".join(c if (c.isalnum() or c in "-_.") else "-" for c in name)


def canonical_digest(obj: object) -> str:
    """SHA-256 over the canonical JSON of *obj*.

    Used to assert bit-identity of merged aggregates between
    distributed and single-host runs (tests, the CI smoke job).
    """
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WorkerConfig:
    """One worker's view of a shared campaign directory.

    *campaign_dir* is the shared coordination root (each stage gets a
    ``stage_<name>`` subdirectory under it).  *worker* must be unique
    among live workers — see :func:`default_worker_id`.

    Timing knobs trade takeover latency against redundant work:
    *poll_interval* is the idle re-scan period; a lease whose identity
    is unchanged across *stale_scans* consecutive scans is presumed
    dead (so takeover latency is about ``poll_interval * stale_scans``
    — crank it up on filesystems with slow metadata propagation);
    *renew_interval* (default ``poll_interval / 2``) must comfortably
    undercut that product or live workers get robbed.  *poison_after*
    quarantines a unit once that many *distinct* workers died holding
    it; *takeover_retries* bounds claim attempts against other
    survivors racing for the same stale lease.

    *shared_cache* optionally names a shared read-through artifact
    tier: workers publish constructions to it and import each other's
    entries checksum-verified (see
    :class:`~repro.experiments.artifacts.ArtifactCache`).
    """

    campaign_dir: Path
    worker: str
    poll_interval: float = 0.5
    stale_scans: int = 4
    poison_after: int = 2
    takeover_retries: int = 3
    renew_interval: Optional[float] = None
    shared_cache: Optional[Path] = None

    def stage_dir(self, stage: str) -> Path:
        """The coordination directory of one campaign stage."""
        return Path(self.campaign_dir) / f"stage_{stage.replace('-', '_')}"

    @property
    def heartbeat_interval(self) -> float:
        if self.renew_interval is not None:
            return self.renew_interval
        return max(0.05, self.poll_interval / 2.0)


# -- lease file primitives -------------------------------------------------


def _lease_payload(
    worker: str, counter: int, prior: Sequence[str], key: Tuple
) -> str:
    return json.dumps(
        {
            "worker": worker,
            "counter": counter,
            "prior": list(prior),
            "key": list(key),
        },
        sort_keys=True,
    )


def try_claim(
    path: Path, worker: str, prior: Sequence[str], key: Tuple
) -> bool:
    """Atomically claim a lease file; False when someone else holds it.

    ``O_CREAT | O_EXCL`` guarantees exactly one winner even across
    hosts — this is the only primitive the claim step relies on.
    """
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(fd, _lease_payload(worker, 0, prior, key).encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)
    return True


def read_lease(path: Path) -> Tuple[str, Optional[Tuple], Optional[Dict]]:
    """``(state, identity, info)`` of one lease file.

    ``state`` is ``"missing"``, ``"lease"`` or ``"garbage"``.
    ``identity`` is what staleness observation compares: ``("L",
    worker, counter)`` for a valid lease, ``("G", <sha256 of bytes>)``
    for garbage — torn or foreign content gets a *stable* identity too,
    so an abandoned half-written claim is reclaimed by the same
    observation count as a dead worker's lease, while a file whose
    bytes are still changing is left alone.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return "missing", None, None
    except OSError:
        return "garbage", ("G", "unreadable"), None
    try:
        info = json.loads(raw.decode("utf-8"))
        identity = ("L", str(info["worker"]), int(info["counter"]))
    except (UnicodeDecodeError, ValueError, KeyError, TypeError):
        return "garbage", ("G", hashlib.sha256(raw).hexdigest()), None
    if not isinstance(info, dict):
        return "garbage", ("G", hashlib.sha256(raw).hexdigest()), None
    return "lease", identity, info


class _Heartbeat(threading.Thread):
    """Renews one held lease with a monotonically increasing counter.

    Runs beside the executing unit; stops (and the counter freezes)
    the instant the worker dies, which is exactly the signal the
    staleness observation on other hosts keys on.  Renewal errors are
    swallowed: losing a heartbeat can only cost a redundant execution,
    never correctness.
    """

    def __init__(
        self,
        path: Path,
        worker: str,
        prior: Sequence[str],
        key: Tuple,
        interval: float,
    ) -> None:
        super().__init__(daemon=True, name="lease-heartbeat")
        self._path = path
        self._worker = worker
        self._prior = list(prior)
        self._key = key
        self._interval = interval
        self._halt = threading.Event()
        self._counter = 0

    def run(self) -> None:  # pragma: no cover - timing-dependent
        while not self._halt.wait(self._interval):
            self._counter += 1
            try:
                atomic_write_text(
                    self._path,
                    _lease_payload(
                        self._worker, self._counter, self._prior, self._key
                    ),
                )
            except OSError:
                pass

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


def _take_over(
    path: Path,
    expected_identity: Tuple,
    worker: str,
    key: Tuple,
    retries: int,
) -> Optional[List[str]]:
    """Reclaim a presumed-stale lease; the new ``prior`` list on success.

    Re-verifies the identity immediately before unlinking: any change
    means the holder is alive after all, and the takeover aborts.  The
    unlink→claim gap can be lost to another survivor; bounded retries
    re-inspect and either find the unit owned (abort) or win.
    """
    for _ in range(max(1, retries)):
        state, identity, info = read_lease(path)
        if state == "missing" or identity != expected_identity:
            return None  # holder finished, renewed, or a survivor won
        prior: List[str] = []
        if state == "lease" and info is not None:
            prior = [str(w) for w in info.get("prior", [])]
            prior.append(str(info.get("worker")))
        try:
            path.unlink()
        except FileNotFoundError:
            return None
        if try_claim(path, worker, prior, key):
            return prior
    return None


def _write_poison(
    poison_dir: Path, digest: str, key: Tuple, workers: Sequence[str]
) -> None:
    atomic_write_text(
        poison_dir / f"{digest}.json",
        json.dumps(
            {
                "digest": digest,
                "key": list(key),
                "workers": sorted(set(str(w) for w in workers)),
            },
            sort_keys=True,
        )
        + "\n",
    )


def read_poison(stage_dir: Path) -> Dict[str, Dict[str, object]]:
    """Every quarantine marker of a stage, keyed by unit digest."""
    out: Dict[str, Dict[str, object]] = {}
    for path in sorted(Path(stage_dir, POISON_DIR).glob("*.json")):
        try:
            info = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue  # markers are published atomically; never block on one
        if isinstance(info, dict):
            out[path.stem] = info
    return out


# -- shard reading ---------------------------------------------------------


class ShardScanner:
    """Incremental reader of every worker's ledger shard in a stage.

    Each :meth:`scan` reads only bytes appended since the last one,
    parsing complete verified records (the ledger's own checksummed
    line format).  A line that fails verification is *not* advanced
    past: a torn in-flight append completes by the next scan, while a
    genuinely corrupt line freezes that shard's read frontier — exactly
    the WAL discipline the shard's owner applies to itself on resume
    (records past a torn region are suspect).

    ``completed``/``failed`` gate the worker loop's control flow only;
    the authoritative deterministic fold is :func:`merge_shards`.
    """

    def __init__(self, stage_dir: Path) -> None:
        self.stage_dir = Path(stage_dir)
        self.completed: Dict[str, Dict[str, object]] = {}
        self.failed: Dict[str, Tuple[int, str]] = {}
        self._offsets: Dict[str, int] = {}

    def scan(self) -> None:
        for path in sorted(self.stage_dir.glob(f"{SHARD_PREFIX}*.jsonl")):
            self._scan_file(path)

    def _scan_file(self, path: Path) -> None:
        offset = self._offsets.get(path.name, 0)
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                chunk = fh.read()
        except OSError:
            return
        end = chunk.rfind(b"\n")
        if end < 0:
            return  # nothing newline-terminated yet
        data = chunk[: end + 1]
        pos = 0
        while pos < len(data):
            nl = data.find(b"\n", pos)
            line = data[pos:nl]
            if line:
                record = ResultLedger._parse(line)
                if record is None:
                    break  # torn or corrupt: re-examine from here next scan
                self._absorb(record)
            pos = nl + 1
        self._offsets[path.name] = offset + pos

    def _absorb(self, record: Dict[str, object]) -> None:
        digest = str(record["digest"])
        if record["status"] == "ok":
            if digest not in self.completed:
                self.completed[digest] = _decode_result(record["result"])
            self.failed.pop(digest, None)
        elif digest not in self.completed:
            self.failed[digest] = (
                int(record.get("attempt", 1)),
                str(record.get("error", "")),
            )


def merge_shards(
    stage_dir: Path,
) -> Tuple[Dict[str, Dict[str, object]], Dict[str, Tuple[int, str]]]:
    """Deterministic full fold of every shard: ``(ok, failed)`` by digest.

    Shards are read in sorted filename order and the first ``ok``
    record per digest wins; an ``ok`` anywhere beats a ``failed``
    everywhere.  The outcome depends only on the set of shard files and
    their contents — never on scan timing — which is what makes the
    merged aggregates byte-identical across re-merges and hosts.
    """
    ok: Dict[str, Dict[str, object]] = {}
    bad: Dict[str, Tuple[int, str]] = {}
    for path in sorted(Path(stage_dir).glob(f"{SHARD_PREFIX}*.jsonl")):
        for record in read_records(path):
            digest = str(record["digest"])
            if record["status"] == "ok":
                ok.setdefault(digest, _decode_result(record["result"]))
            else:
                bad.setdefault(
                    digest,
                    (
                        int(record.get("attempt", 1)),
                        str(record.get("error", "")),
                    ),
                )
    for digest in ok:
        bad.pop(digest, None)
    return ok, bad


def merge_stage(
    units: Sequence[WorkUnit], stage_dir: Path
) -> Tuple[List[Dict[str, object]], List[UnitFailure]]:
    """Fold a stage directory into ``(results, failures)`` in work-list order.

    ``results`` holds one record per completed unit, ordered like
    *units* — exactly the contract of
    :func:`~repro.experiments.parallel.run_parallel`, so the existing
    aggregators produce byte-identical artefacts from it.  Every
    non-completed unit appears in ``failures`` (quarantined units with
    a ``poisoned:`` error naming the dead workers); nothing is ever
    silently dropped.
    """
    ok, bad = merge_shards(stage_dir)
    poisoned = read_poison(stage_dir)
    results: List[Dict[str, object]] = []
    failures: List[UnitFailure] = []
    for unit in units:
        digest = unit_digest(unit)
        if digest in ok:
            results.append(ok[digest])
        elif digest in poisoned:
            workers = [str(w) for w in poisoned[digest].get("workers", [])]
            failures.append(
                UnitFailure(
                    unit.key(),
                    len(workers),
                    "poisoned: unit killed worker(s) "
                    f"{sorted(set(workers))}; quarantined",
                )
            )
        elif digest in bad:
            attempt, error = bad[digest]
            failures.append(UnitFailure(unit.key(), attempt, error))
        else:
            failures.append(
                UnitFailure(unit.key(), 0, "never executed (no shard record)")
            )
    return results, failures


# -- the worker loop -------------------------------------------------------


def run_distributed(
    units: Sequence[WorkUnit],
    stage_dir: Path,
    config: WorkerConfig,
    *,
    progress: Optional[Callable[[str], None]] = None,
    retries: Optional[int] = None,
    unit_timeout: Optional[float] = None,
    cache_path: Optional[Path] = None,
    failures: Optional[List[UnitFailure]] = None,
) -> List[Dict[str, object]]:
    """Participate in draining *units* as one worker of a shared stage.

    Returns when every unit is terminal — completed by someone,
    quarantined as poison, or failed here with nobody else working on
    it — so the *last* worker to return has observed the complete
    stage.  The returned list is the deterministic :func:`merge_stage`
    fold (results in work-list order, byte-identical to a single-host
    run); *failures* collects every non-completed unit.

    Units execute serially in this process (scale by launching more
    workers); each claimed unit gets bounded *retries* and the
    per-unit *unit_timeout* watchdog of
    :func:`~repro.experiments.parallel.execute_unit`, so a hung
    simulation is charged a failed attempt instead of renewing its
    lease forever.  Units construct through the store at *cache_path*,
    or without one through an in-process cache; the caller's binding
    is restored on return.
    """
    units = list(units)
    total = len(units)
    say = progress or (lambda msg: None)
    budget = DEFAULT_RETRIES if retries is None else max(0, retries)
    stage_dir = Path(stage_dir)
    lease_root = stage_dir / LEASE_DIR
    poison_root = stage_dir / POISON_DIR
    lease_root.mkdir(parents=True, exist_ok=True)
    poison_root.mkdir(parents=True, exist_ok=True)

    worker = _sanitize(config.worker)
    tag = f"[dist/{worker}]"

    digests = [unit_digest(u) for u in units]
    wanted = set(digests)
    scanner = ShardScanner(stage_dir)
    # lease identity -> consecutive unchanged observations, per digest
    observations: Dict[str, List] = {}
    failed_by_me: set = set()

    # the shard's flock is the one-live-process-per-worker-id guarantee
    # the own-lease instant-reclaim rule depends on
    ledger = ResultLedger(stage_dir / f"{SHARD_PREFIX}{worker}.jsonl")
    previous_cache = _worker_init(
        None if cache_path is None else str(cache_path),
        None if config.shared_cache is None else str(config.shared_cache),
    )
    try:
        while True:
            scanner.scan()
            poisoned = set(read_poison(stage_dir)) & wanted
            done = (set(scanner.completed) & wanted) | poisoned
            open_idx: List[int] = []
            waiting_on_peer = False
            for i, digest in enumerate(digests):
                if digest in done:
                    continue
                if digest in failed_by_me:
                    # terminal unless someone else is actively retrying
                    if (lease_root / f"{digest}.json").exists():
                        waiting_on_peer = True
                    continue
                open_idx.append(i)
            if not open_idx and not waiting_on_peer:
                break

            executed = False
            for i in open_idx:
                digest = digests[i]
                lease_path = lease_root / f"{digest}.json"
                key = units[i].key()
                state, identity, info = read_lease(lease_path)
                prior: Optional[List[str]] = None
                if state == "missing":
                    observations.pop(digest, None)
                    if try_claim(lease_path, worker, [], key):
                        prior = []
                else:
                    seen = observations.get(digest)
                    if seen is not None and seen[0] == identity:
                        seen[1] += 1
                    else:
                        observations[digest] = [identity, 1]
                    own = (
                        state == "lease"
                        and info is not None
                        and str(info.get("worker")) == worker
                    )
                    if own or observations[digest][1] >= config.stale_scans:
                        prior = _take_over(
                            lease_path,
                            identity,
                            worker,
                            key,
                            config.takeover_retries,
                        )
                        if prior is not None and state == "garbage":
                            say(
                                f"{tag} reclaimed unreadable lease for "
                                f"{key}"
                            )
                if prior is None:
                    continue
                observations.pop(digest, None)
                executed = True

                if len(set(prior)) >= config.poison_after:
                    _write_poison(poison_root, digest, key, prior)
                    lease_path.unlink(missing_ok=True)
                    say(
                        f"{tag} POISON {key}: killed worker(s) "
                        f"{sorted(set(prior))}; quarantined"
                    )
                    break  # rescan before the next claim

                heartbeat = _Heartbeat(
                    lease_path, worker, prior, key, config.heartbeat_interval
                )
                heartbeat.start()
                try:
                    attempt = 1
                    while True:
                        try:
                            res = execute_unit(units[i], attempt, unit_timeout)
                        except Exception as exc:
                            if attempt > budget:
                                ledger.append_failed(
                                    digest, key, attempt, repr(exc)
                                )
                                failed_by_me.add(digest)
                                say(
                                    f"{tag} {key} FAILED "
                                    f"attempt={attempt}: {exc!r}"
                                )
                                break
                            say(
                                f"{tag} [retry] {key} attempt={attempt} "
                                f"raised {exc!r}; retrying"
                            )
                            attempt += 1
                            continue
                        ledger.append_ok(digest, key, attempt, res)
                        done_n = len(
                            (set(scanner.completed) | {digest}) & wanted
                        )
                        say(
                            f"{tag} [{done_n}/{total}] {key} "
                            f"ok attempt={attempt}"
                        )
                        break
                finally:
                    heartbeat.stop()
                    lease_path.unlink(missing_ok=True)
                break  # one unit per pass: rescan before claiming more

            if not executed:
                time.sleep(config.poll_interval)
    finally:
        ledger.close()
        set_process_cache(previous_cache)

    results, stage_failures = merge_stage(units, stage_dir)
    if failures is not None:
        failures.extend(stage_failures)
    say(
        f"{tag} stage complete: {len(results)}/{total} ok, "
        f"{len(stage_failures)} failed"
    )
    return results
