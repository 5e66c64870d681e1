"""Crash-tolerant parallel experiment execution.

The paper's evaluation is embarrassingly parallel — every (sample,
algorithm, method, rate) simulation is independent — and the archival
presets take tens of minutes serially in Python.  This module fans the
work units out over processes with :mod:`concurrent.futures`, keeping
results bit-identical to a one-worker run: every unit re-derives its
topology/tree/routing from the preset seed inside the worker (cheap
next to the simulation), so nothing non-picklable crosses process
boundaries and the scheduling order cannot affect any RNG stream.

Execution is fault-tolerant infrastructure, not a bare ``pool.map``:

* units are submitted individually and collected as they complete, so
  one unit's failure never discards its siblings' results;
* a raising unit is retried up to ``retries`` extra attempts; when the
  budget is exhausted it is *reported* — progress line, ledger record,
  and a :class:`UnitFailure` in the caller's ``failures`` collector so
  artefact writers and the CLI can refuse to pass silently — and the
  campaign carries on without it;
* a dying worker process (OOM kill, segfault, SIGKILL) breaks the
  ``ProcessPoolExecutor``; the runner rebuilds the pool and reschedules
  every unit that was in flight, charging each one attempt — so a unit
  that deterministically kills its worker exhausts its own budget
  instead of looping forever, while innocent bystanders simply re-run.
  Submission is throttled to the pool width: at most ``max_workers``
  units are ever in flight, so a pool break charges only the units a
  worker could actually have been running, never the whole queue;
* with a :class:`~repro.experiments.ledger.ResultLedger`, results
  stream to disk (fsync'd) the moment they complete, and units whose
  digest is already in the ledger are skipped on resume — an
  interrupted campaign continues where it stopped and merges to
  byte-identical final outputs;
* sibling seed-replicas of a replicated relaxed-engine preset
  (``preset.replicas > 1`` with ``engine`` in
  :data:`~repro.simulator.config.RELAXED_ENGINES`) are *folded*: the
  scheduler groups them into one task executed as a single fused
  :func:`repro.simulator.replica_batch.run_replicated` sweep.  The
  replica core's packing-invariance contract guarantees each member's
  result is identical to its own sequential run, so ledger records,
  resume, retries and aggregation are unchanged — folding only cuts
  the per-clock dispatch wall R ways.


:func:`run_stage` is the one executor of the Figure-8 and Tables
stages: it picks distributed or local execution and owns the ledger.

Progress lines share one format across the serial and pooled paths —
``[done/total] <key> ok attempt=N`` — so retry activity is visible, and
an ETA (from the injectable wall clock, never read directly per
invariant STA001) is appended while units remain.
"""

from __future__ import annotations

import os
import signal
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.coordinated_tree import CoordinatedTree
from repro.experiments.artifacts import (
    ArtifactCache,
    process_cache,
    set_process_cache,
)
from repro.experiments.configs import ExperimentPreset
from repro.experiments.harness import (
    PAPER_ALGORITHMS,
    PAPER_METHODS,
    build_routings,
    make_topology,
)
from repro.experiments.ledger import ResultLedger, unit_digest
from repro.metrics.utilization import utilization_report
from repro.routing.base import RoutingFunction
from repro.simulator.config import RELAXED_ENGINES
from repro.simulator.engine import simulate
from repro.simulator.replica_batch import replica_seed, run_replicated
from repro.simulator.stats import SimulationStats
from repro.util.rng import derive_seed
from repro.util.wallclock import Clock, resolve_clock

if TYPE_CHECKING:  # import cycle-free annotation only
    from repro.experiments.distributed import WorkerConfig

_T = TypeVar("_T")

#: default extra attempts per unit after its first failure
DEFAULT_RETRIES = 2

#: test-only fault injection: ``"<algorithm>:<mode>:<max_attempt>"``
#: where mode is ``raise`` (unit raises), ``kill`` (worker SIGKILLs
#: itself, breaking the pool) or ``hang`` (unit never returns — the
#: per-unit watchdog's test vector).  Environment variables propagate
#: to pool workers under every start method, which is why this hook is
#: not a module global.  Never set outside the test suite.
TEST_FAULT_ENV = "REPRO_TEST_FAULT"


class UnitTimeout(RuntimeError):
    """One work unit exceeded its ``unit_timeout`` wall-time budget.

    Raised *inside* the executing process by the SIGALRM watchdog, so a
    hung unit surfaces through the normal exception path: it is charged
    a failed attempt against its bounded retries instead of stalling
    result collection forever.
    """


@dataclass(frozen=True)
class WorkUnit:
    """One independent simulation: fully described by plain data."""

    preset: ExperimentPreset
    ports: int
    sample: int
    algorithm: str
    method: str
    rate: float
    #: seed-derivation salt: 0xF18 for Figure-8 sweeps, 0x7AB for the
    #: saturated table runs (set by :func:`figure8_units` /
    #: :func:`tables_units`, the only place these constants live)
    seed_salt: int = 0xF18
    #: seed-replica index (``preset.replicas > 1`` expands each cell);
    #: replica 0 is the classic unit — same seed, same key, same ledger
    #: identity as before replication existed
    replica: int = 0

    def key(self) -> Tuple:
        base = (self.algorithm, self.method, self.ports, self.sample, self.rate)
        # replica 0 keeps the legacy 5-tuple so existing ledgers,
        # progress lines and aggregators are untouched
        return base + (self.replica,) if self.replica else base


@dataclass(frozen=True)
class UnitFailure:
    """One work unit that exhausted its retry budget.

    Collected by :func:`run_parallel` into the caller-supplied
    ``failures`` list; the aggregators attach them to their result
    objects and the CLI exits nonzero when any are present, so a
    partially-failed campaign can never masquerade as a complete one.
    """

    key: Tuple
    attempts: int
    error: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (campaign manifests)."""
        return {
            "key": list(self.key),
            "attempts": self.attempts,
            "error": self.error,
        }


def figure8_units(
    preset: ExperimentPreset,
    ports: int,
    methods: Sequence[str] = PAPER_METHODS,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
) -> List[WorkUnit]:
    """The Figure-8 work list for one port configuration."""
    return [
        WorkUnit(preset, ports, sample, alg, method, rate, replica=rep)
        for sample in range(preset.samples)
        for method in methods
        for alg in algorithms
        for rate in preset.rates_for(ports)
        for rep in range(max(1, preset.replicas))
    ]


def tables_units(
    preset: ExperimentPreset,
    ports_list: Optional[Sequence[int]] = None,
    methods: Sequence[str] = PAPER_METHODS,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    saturation_rate: float = 1.0,
) -> List[WorkUnit]:
    """The Tables-1-4 work list (one saturated run per combination)."""
    ports_list = tuple(ports_list if ports_list is not None else preset.ports)
    return [
        WorkUnit(
            preset, ports, sample, alg, method, saturation_rate, 0x7AB,
            replica=rep,
        )
        for ports in ports_list
        for sample in range(preset.samples)
        for method in methods
        for alg in algorithms
        for rep in range(max(1, preset.replicas))
    ]


def _construct(unit: WorkUnit) -> Tuple[RoutingFunction, CoordinatedTree]:
    """The unit's (routing, tree), built or served by the process cache."""
    cache = process_cache()
    topology = make_topology(unit.preset, unit.ports, unit.sample, cache=cache)
    routings = build_routings(
        topology,
        unit.preset,
        unit.sample,
        methods=(unit.method,),
        algorithms=(unit.algorithm,),
        cache=cache,
    )
    if cache is not None:
        # durable per-unit flush: hit/miss tallies survive SIGKILL
        cache.flush_counters()
    return routings[(unit.algorithm, unit.method)]


def _cell_seed(unit: WorkUnit) -> int:
    """The seed every replica of the unit's cell branches off."""
    return derive_seed(unit.preset.seed, unit.seed_salt, unit.ports, unit.sample)


def _unit_result(
    unit: WorkUnit, stats: SimulationStats, tree: CoordinatedTree, relaxed: bool
) -> Dict[str, object]:
    result = {
        "key": unit.key(),
        "accepted": stats.accepted_traffic,
        "latency": stats.average_latency,
        "report": utilization_report(stats.channel_utilization(), tree),
    }
    if relaxed:
        result["equivalence"] = "statistical"
        result["fingerprint"] = stats.statistical_fingerprint()
    return result


def run_unit(unit: WorkUnit) -> Dict[str, object]:
    """Execute one work unit.

    Derives topology, tree and routing deterministically from the
    preset seed — through the process-bound artifact cache when one is
    set (the executors bind it through :func:`_worker_init`), so
    sibling units sharing a routing construct it once per campaign, not
    once per unit — then simulates and returns a plain dict: the unit
    key, the headline numbers, and the per-channel utilization needed
    for the table metrics.  The dict never mentions the cache: results
    are bit-identical with it on or off.

    The engine comes from the preset alone, so the unit digest always
    records a relaxed engine (``"batch"``).  Relaxed results are tagged
    with their ``statistical_fingerprint`` and equivalence tier so
    downstream artefacts stay honest about how they were produced.
    """
    routing, tree = _construct(unit)
    # replica 0 keeps the classic seed; higher replicas branch off it
    # through the counter-hash scheme shared with the fused sweep
    seed = replica_seed(_cell_seed(unit), unit.replica)
    cfg = unit.preset.sim_config(seed).with_rate(unit.rate)
    relaxed = cfg.resolved_engine in RELAXED_ENGINES
    return _unit_result(unit, simulate(routing, cfg), tree, relaxed)


def run_unit_group(group: Sequence[WorkUnit]) -> List[Dict[str, object]]:
    """Execute sibling seed-replicas as one fused replicated sweep.

    *group* holds units that differ only in ``replica`` — same preset,
    ports, sample, algorithm, method, rate and seed salt — and whose
    preset pins a relaxed engine.  Construction (topology, tree,
    routing) happens once; the simulations run stacked through
    :func:`repro.simulator.replica_batch.run_replicated`, whose
    determinism contract (per-replica results identical to sequential
    runs, independent of which siblings share the stack) is what makes
    this a pure scheduling optimisation: every returned dict is
    byte-identical to what :func:`run_unit` would produce for that
    member, so ledger records, resume and aggregation never notice the
    fold.  Partial groups — a resumed ledger already holding some
    siblings — are therefore just as foldable as full ones.
    """
    if len(group) == 1:
        return [run_unit(group[0])]
    first = group[0]
    routing, tree = _construct(first)
    base = _cell_seed(first)
    cfg = first.preset.sim_config(base).with_rate(first.rate)
    if cfg.resolved_engine not in RELAXED_ENGINES:
        # bit-exact engines gain nothing from stacking (and the fused
        # driver is batch-only)
        return [run_unit(u) for u in group]
    seeds = [replica_seed(base, u.replica) for u in group]
    return [
        _unit_result(unit, stats, tree, True)
        for unit, stats in zip(group, run_replicated(routing, cfg, seeds=seeds))
    ]


def _arm_watchdog(
    unit_timeout: Optional[float],
) -> Optional[Callable[[], Optional[UnitTimeout]]]:
    """Arm a SIGALRM wall-time watchdog; returns the disarm callable.

    Disarming returns the :class:`UnitTimeout` the alarm raised, if it
    fired: a signal handler that runs inside a gc or ``__del__``
    callback has its exception discarded, so the caller re-raises it
    for a unit that overran its budget yet returned.

    Only armed where it can work: a POSIX platform with ``SIGALRM`` and
    the process's main thread (signal handlers are a main-thread-only
    facility).  Pool workers execute units on their main thread, so the
    watchdog covers the pooled path everywhere it matters; elsewhere
    the collector-side hard deadline in :func:`run_parallel` is the
    backstop.
    """
    if unit_timeout is None or unit_timeout <= 0:
        return None
    if not hasattr(signal, "SIGALRM") or not hasattr(signal, "setitimer"):
        return None  # pragma: no cover - non-POSIX
    import threading

    if threading.current_thread() is not threading.main_thread():
        return None

    overrun: List[UnitTimeout] = []

    def _on_alarm(signum, frame):
        overrun.append(
            UnitTimeout(f"unit exceeded its {unit_timeout:g}s wall-time budget")
        )
        raise overrun[0]

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, unit_timeout)

    def disarm() -> Optional[UnitTimeout]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        return overrun[0] if overrun else None

    return disarm


def _watched(
    run: Callable[[], _T],
    first: WorkUnit,
    attempt: int,
    budget: Optional[float],
) -> _T:
    """Run *run* under the wall-time watchdog and the test fault hook.

    The hook (:data:`TEST_FAULT_ENV`) fires when *first* — the task's
    lead unit — runs the named algorithm within its attempt bound.
    """
    disarm = _arm_watchdog(budget)
    try:
        spec = os.environ.get(TEST_FAULT_ENV)
        if spec:
            alg, mode, max_attempt = spec.rsplit(":", 2)
            if first.algorithm == alg and attempt <= int(max_attempt):
                if mode == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                if mode == "hang":
                    import time

                    while True:  # interruptible only by the watchdog
                        time.sleep(0.02)
                raise RuntimeError(
                    f"injected test fault: {first.key()} attempt={attempt}"
                )
        result = run()
    finally:
        overrun = None if disarm is None else disarm()
    if overrun is not None:
        raise overrun  # the alarm fired but its raise was swallowed
    return result


def execute_unit(
    unit: WorkUnit,
    attempt: int = 1,
    unit_timeout: Optional[float] = None,
) -> Dict[str, object]:
    """Pool/serial entry point: watchdog + test fault hook + :func:`run_unit`.

    *unit_timeout* bounds the unit's wall time: a hung simulation is
    interrupted by :class:`UnitTimeout` (SIGALRM, armed only on the
    executing process's main thread) and flows through the ordinary
    retry machinery instead of stalling collection.
    """
    return _watched(lambda: run_unit(unit), unit, attempt, unit_timeout)


def execute_unit_group(
    group: Sequence[WorkUnit],
    attempt: int = 1,
    unit_timeout: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Pool/serial entry point for a folded replica group.

    Mirrors :func:`execute_unit` around :func:`run_unit_group`.  The
    wall-time budget scales with the group size: the fused sweep does
    the work of ``len(group)`` units, so each member still gets
    *unit_timeout* seconds of budget on average.
    """
    budget = None if unit_timeout is None else unit_timeout * len(group)
    return _watched(lambda: run_unit_group(group), group[0], attempt, budget)


def _execute_task(
    task_units: List[WorkUnit],
    attempt: int = 1,
    unit_timeout: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Pool entry point for one scheduling task (1..R sibling units).

    Normalises the return shape to one result dict per member so the
    collector treats folded and singleton tasks identically.
    """
    if len(task_units) == 1:
        return [execute_unit(task_units[0], attempt, unit_timeout)]
    return execute_unit_group(task_units, attempt, unit_timeout)


def _worker_init(
    cache_path: Optional[str], shared_cache_path: Optional[str] = None
) -> Optional[ArtifactCache]:
    """Bind the run's artifact cache in this process; return the old one.

    The pool initializer, and the binder of the serial and distributed
    executors, which restore the returned binding when they finish.
    The paths travel via ``initargs`` — not as :class:`WorkUnit`
    fields — because unit digests (ledger resume identity) must not
    depend on whether a cache is in use.  Without *cache_path* the
    process gets an in-memory-only ``ArtifactCache(None)``, so its
    units still build each (topology, tree, routing) once instead of
    once per unit.  *shared_cache_path* adds the optional multi-host
    read-through tier (entries checksum-verified on import; see
    :class:`~repro.experiments.artifacts.ArtifactCache`).
    """
    previous = process_cache()
    if cache_path is None:
        set_process_cache(ArtifactCache(None))
    else:
        set_process_cache(cache_path, shared=shared_cache_path)
    return previous


def default_max_workers() -> int:
    """Worker count respecting cgroup/affinity CPU limits.

    ``os.cpu_count()`` reports the machine, not the process: in a CI
    container pinned to 2 of 64 cores it would oversubscribe 32x.
    ``os.sched_getaffinity(0)`` reports the usable set where the
    platform provides it (Linux); elsewhere fall back to ``cpu_count``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_parallel(
    units: Iterable[WorkUnit],
    max_workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    *,
    ledger: Optional[ResultLedger] = None,
    retries: int = DEFAULT_RETRIES,
    clock: Optional[Clock] = None,
    failures: Optional[List[UnitFailure]] = None,
    cache_path: Optional[Union[str, Path]] = None,
    shared_cache_path: Optional[Union[str, Path]] = None,
    unit_timeout: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Run *units*; results are returned in input order.

    ``max_workers`` defaults to the process's usable CPU count
    (:func:`default_max_workers`).  With one worker (or one pending
    unit) the pool is skipped entirely — the units run in this process
    with the same retry/ledger semantics, useful under debuggers.

    *ledger* streams every completed unit to disk and, when it was
    opened with ``resume=True``, skips units already recorded — the
    recorded results are merged back in input order, so aggregates are
    byte-identical to an uninterrupted run.  *retries* bounds extra
    attempts per unit; a unit that exhausts them is reported (and
    written to the ledger as ``failed``) without aborting the rest —
    the returned list omits it, and a :class:`UnitFailure` is appended
    to *failures* when the caller supplies that list, so failure never
    has to be inferred from a shorter result list.  *clock* injects
    the ETA timer (defaults to the sanctioned wall clock).

    *cache_path* points every worker (and the serial fallback) at one
    shared content-addressed artifact store; workers populate and read
    it race-free (atomic publication, checksum-verified reads).
    Without it each executing process shares constructions in memory
    only, so a routing is still built once per process, not per unit.
    *shared_cache_path* adds the optional multi-host read-through tier
    behind the local store (entries are checksum-verified on import, so
    a corrupted peer cannot poison this host's results).

    *unit_timeout* is the per-unit wall-time watchdog: a unit that
    exceeds it raises :class:`UnitTimeout` inside its worker (SIGALRM)
    and is charged a failed attempt against *retries* — a hung unit can
    no longer stall collection forever.  Should the executing process
    be unable to interrupt itself (a hang inside an uninterruptible C
    call), the collector additionally hard-kills the pool's workers
    once a unit overstays ``2 x unit_timeout + 5s``; the break is then
    handled exactly like a died worker (pool rebuild, in-flight units
    charged one attempt).

    Replicated relaxed-engine presets are folded before scheduling:
    pending sibling replicas become one task running a fused
    :func:`~repro.simulator.replica_batch.run_replicated` sweep, with
    both timeout budgets scaled by the group size.  Per-member results,
    ledger records and failure reports are exactly those of unfolded
    execution (packing invariance), so resume across differently-folded
    runs is safe in both directions.
    """
    units = list(units)
    total = len(units)
    say = progress or (lambda msg: None)
    tick = resolve_clock(clock)
    retries = max(0, retries)
    if max_workers is None:
        max_workers = default_max_workers()

    digests = [unit_digest(u) for u in units] if ledger is not None else None
    results_by_idx: Dict[int, Dict[str, object]] = {}
    done_count = 0
    failed_count = 0
    pending_idx: List[int] = []

    # resume pass: merge completed units straight from the ledger
    for i, unit in enumerate(units):
        recorded = (
            ledger.completed.get(digests[i]) if ledger is not None else None
        )
        if recorded is not None:
            results_by_idx[i] = recorded
            done_count += 1
            attempt = ledger.attempts.get(digests[i], 1)
            say(
                f"[{done_count}/{total}] {unit.key()} "
                f"resumed attempt={attempt}"
            )
        else:
            pending_idx.append(i)

    # fold sibling seed-replicas of a relaxed-engine preset into one
    # scheduling task: the group runs as a single fused
    # :func:`repro.simulator.replica_batch.run_replicated` sweep while
    # every member keeps its own ledger record, result dict and retry
    # accounting.  Packing invariance makes the partial groups a
    # resumed ledger leaves behind just as foldable as full ones.
    tasks: List[List[int]] = []
    sibling_groups: Dict[Tuple, List[int]] = {}
    for i in pending_idx:
        u = units[i]
        if u.preset.replicas > 1 and u.preset.engine in RELAXED_ENGINES:
            gk = (
                u.algorithm,
                u.method,
                u.ports,
                u.sample,
                u.rate,
                u.seed_salt,
                u.preset,
            )
            members = sibling_groups.get(gk)
            if members is not None:
                members.append(i)
                continue
            members = sibling_groups[gk] = [i]
            tasks.append(members)  # list identity: grows with the group
        else:
            tasks.append([i])
    for task in tasks:
        task.sort(key=lambda i: units[i].replica)

    def label(task: List[int]) -> str:
        if len(task) == 1:
            return f"{units[task[0]].key()}"
        return f"{units[task[0]].key()} (+{len(task) - 1} replicas)"

    t0 = tick()
    fresh_done = 0

    def finish_ok(idx: int, attempt: int, res: Dict[str, object]) -> None:
        nonlocal done_count, fresh_done
        if ledger is not None:
            ledger.append_ok(digests[idx], units[idx].key(), attempt, res)
        results_by_idx[idx] = res
        done_count += 1
        fresh_done += 1
        remaining = total - done_count - failed_count
        eta = ""
        elapsed = tick() - t0
        if remaining > 0 and fresh_done > 0 and elapsed > 0:
            eta = f" eta=~{elapsed / fresh_done * remaining:.0f}s"
        say(
            f"[{done_count}/{total}] {units[idx].key()} "
            f"ok attempt={attempt}{eta}"
        )

    def finish_failed(idx: int, attempt: int, exc: BaseException) -> None:
        nonlocal failed_count
        failed_count += 1
        if ledger is not None:
            ledger.append_failed(
                digests[idx], units[idx].key(), attempt, repr(exc)
            )
        if failures is not None:
            failures.append(UnitFailure(units[idx].key(), attempt, repr(exc)))
        say(
            f"[{done_count}/{total}] {units[idx].key()} "
            f"FAILED attempt={attempt}: {exc!r}"
        )

    cache_arg = None if cache_path is None else str(cache_path)
    shared_arg = None if shared_cache_path is None else str(shared_cache_path)

    if max_workers <= 1 or len(tasks) <= 1:
        # this process is the worker; the caller's binding comes back after
        previous_cache = _worker_init(cache_arg, shared_arg)
        try:
            for task in tasks:
                attempt = 1
                while True:
                    try:
                        res_list = _execute_task(
                            [units[i] for i in task], attempt, unit_timeout
                        )
                    except Exception as exc:
                        if attempt > retries:
                            for i in task:
                                finish_failed(i, attempt, exc)
                            break
                        say(
                            f"[retry] {label(task)} attempt={attempt} "
                            f"raised {exc!r}; retrying"
                        )
                        attempt += 1
                        continue
                    for i, res in zip(task, res_list):
                        finish_ok(i, attempt, res)
                    break
        finally:
            set_process_cache(previous_cache)
        return [results_by_idx[i] for i in sorted(results_by_idx)]

    pending: Deque[Tuple[List[int], int]] = deque((t, 1) for t in tasks)
    in_flight: Dict[Future, Tuple[List[int], int]] = {}
    deadlines: Dict[Future, float] = {}
    pool: Optional[ProcessPoolExecutor] = None

    def hard_deadline(task: List[int]) -> Optional[float]:
        # collector-side backstop for hangs the in-worker SIGALRM
        # cannot interrupt: give the watchdog one full (group-scaled)
        # budget to fire, then slack
        if unit_timeout is None:
            return None
        return tick() + 2 * unit_timeout * len(task) + 5.0

    def requeue(task: List[int], attempt: int, exc: BaseException) -> None:
        if attempt > retries:
            for i in task:
                finish_failed(i, attempt, exc)
        else:
            say(
                f"[retry] {label(task)} attempt={attempt} "
                f"raised {exc!r}; retrying"
            )
            pending.append((task, attempt + 1))

    def collect(fut: Future, task: List[int], attempt: int) -> bool:
        """Fold one settled future in; True when the pool broke."""
        try:
            res_list = fut.result()
        except BrokenProcessPool as exc:
            requeue(task, attempt, exc)
            return True
        except Exception as exc:
            requeue(task, attempt, exc)
            return False
        for i, res in zip(task, res_list):
            finish_ok(i, attempt, res)
        return False

    try:
        while pending or in_flight:
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=max_workers,
                    initializer=_worker_init,
                    initargs=(cache_arg, shared_arg),
                )
            broken = False
            # throttle submission to the pool width: a queued-but-not-
            # started future would be charged an attempt when the pool
            # breaks, so never expose more units than workers exist
            while pending and not broken and len(in_flight) < max_workers:
                task, attempt = pending.popleft()
                try:
                    fut = pool.submit(
                        _execute_task,
                        [units[i] for i in task],
                        attempt,
                        unit_timeout,
                    )
                except (BrokenProcessPool, RuntimeError):
                    pending.appendleft((task, attempt))
                    broken = True
                else:
                    in_flight[fut] = (task, attempt)
                    deadline = hard_deadline(task)
                    if deadline is not None:
                        deadlines[fut] = deadline
            if in_flight and not broken:
                wait_budget = None
                if unit_timeout is not None:
                    wait_budget = max(
                        0.0,
                        min(deadlines[f] for f in in_flight) - tick(),
                    )
                done, _ = wait(
                    set(in_flight),
                    timeout=wait_budget,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    task, attempt = in_flight.pop(fut)
                    deadlines.pop(fut, None)
                    broken |= collect(fut, task, attempt)
                if not done and unit_timeout is not None:
                    # a worker overstayed the hard deadline without the
                    # in-worker watchdog firing (uninterruptible hang):
                    # kill the pool's processes — the break is handled
                    # like any died worker, charging in-flight tasks an
                    # attempt each
                    overdue = [
                        label(in_flight[f][0])
                        for f in in_flight
                        if deadlines.get(f, float("inf")) <= tick()
                    ]
                    if overdue:
                        say(
                            "[watchdog] task(s) overstayed their hard "
                            f"deadline: {overdue}; killing pool workers"
                        )
                        for proc in list(
                            getattr(pool, "_processes", {}).values()
                        ):
                            proc.kill()
            if broken:
                # every surviving future of a broken pool is doomed:
                # drain them all, then rebuild from scratch
                say(
                    "[pool] worker process died; rebuilding pool "
                    f"({sum(len(t) for t, _ in in_flight.values())} "
                    "unit(s) rescheduled)"
                )
                if in_flight:
                    wait(set(in_flight))
                    for fut, (task, attempt) in list(in_flight.items()):
                        collect(fut, task, attempt)
                    in_flight.clear()
                    deadlines.clear()
                pool.shutdown(wait=False)
                pool = None
    finally:
        if pool is not None:
            # join the workers: they inherit open fds (ledger lock
            # included) on fork, so the caller may close/reopen the
            # ledger the moment this returns
            pool.shutdown(wait=True)

    return [results_by_idx[i] for i in sorted(results_by_idx)]


def run_stage(
    units: Sequence[WorkUnit],
    stage: str,
    *,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    ledger_path: Optional[Path] = None,
    resume: bool = True,
    retries: Optional[int] = None,
    clock: Optional[Clock] = None,
    cache_path: Optional[Path] = None,
    distributed: Optional["WorkerConfig"] = None,
    unit_timeout: Optional[float] = None,
    failures: Optional[List[UnitFailure]] = None,
) -> List[Dict[str, object]]:
    """Execute one experiment stage's work list; results in input order.

    The single execution path of the Figure-8 and Tables stages.  With
    *distributed*, this process joins the shared campaign as one worker
    of :func:`~repro.experiments.distributed.run_distributed` under
    ``<campaign>/<stage>``; otherwise :func:`run_parallel` runs the
    units on *workers* processes (serially in-process at one), streaming
    to a :class:`~repro.experiments.ledger.ResultLedger` at
    *ledger_path* when given and closing it on return.  *retries*
    defaults to :data:`DEFAULT_RETRIES`; exhausted units land in
    *failures*.  *cache_path* names the artifact store; without one
    both executors still build each (topology, tree, routing) once per
    process, in memory.
    """
    if distributed is not None:
        from repro.experiments.distributed import run_distributed

        return run_distributed(
            units,
            distributed.stage_dir(stage),
            distributed,
            progress=progress,
            retries=retries,
            unit_timeout=unit_timeout,
            cache_path=cache_path,
            failures=failures,
        )
    ledger = (
        ResultLedger(ledger_path, resume=resume)
        if ledger_path is not None
        else None
    )
    try:
        return run_parallel(
            units,
            max_workers=workers,
            progress=progress,
            ledger=ledger,
            retries=DEFAULT_RETRIES if retries is None else retries,
            clock=clock,
            failures=failures,
            cache_path=cache_path,
            unit_timeout=unit_timeout,
        )
    finally:
        if ledger is not None:
            ledger.close()
