"""One benchmark process: set up a workload, run its timed loop, report.

``run.py`` starts this script in a fresh single-threaded interpreter.
It talks back on standard output:

``READY``
    printed once set-up is done; the parent's ``setup_s`` timer stops
    here (process start, imports and :meth:`Workload.setup`);
``RESULT <json>``
    the last line: per-unit timings, operation counts, digests, peak
    memory and, with ``--trace 1``, the per-layer metrics.

Between the two, ``SPEED <factor>`` rescales this process's set-up time
to the reference host speed (see :class:`Calibration`).

With ``--trace 1`` every layer's entry points are wrapped in spans for
the whole window.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.util.wallclock import wall_clock  # noqa: E402


class Tally:
    """Operation counts plus the output checks every unit goes through."""

    def __init__(self, golden: Optional[Dict[str, str]]) -> None:
        self.golden = golden
        self.digests: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problems: List[str], digests: Optional[Dict[str, str]]) -> bool:
        """Count one unit; True when its outputs passed every check."""
        self.attempted += 1
        problems = list(problems)
        if digests is not None:
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append(f"outputs differ between units: {digests} vs {self.digests}")
            if self.golden is not None and digests != self.golden:
                problems.append(f"golden digest mismatch: {digests} vs {self.golden}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


class Calibration:
    """A fixed CPU kernel timed between units: the host's current speed.

    The CPU of a shared host runs up to half again slower for minutes at
    a time when its neighbours are busy.  The kernel slows down with it,
    so ``REFERENCE_S / kernel time`` rescales a measured time to a host
    on which the kernel takes exactly :data:`REFERENCE_S`.
    """

    #: the kernel's time on the idle baseline host (see README.md)
    REFERENCE_S = 0.055

    def __init__(self) -> None:
        rng = random.Random(0)
        self.keys = list(range(40_000))
        rng.shuffle(self.keys)
        self.table = {k: k * 7919 % 1009 for k in self.keys}
        self.floats = [rng.random() for _ in range(20_000)]
        self.array = np.arange(100_000, dtype=np.int64)

    def run(self) -> Tuple[float, float]:
        """(wall, cpu) seconds of one pass over the kernel."""
        gc.collect()  # the last unit's garbage is not the kernel's cost
        t0, c0 = wall_clock(), time.process_time()
        for _ in range(4):
            table, picked = self.table, []
            for k in self.keys:
                if table[k] & 1:
                    picked.append(k)
            sorted(self.floats)
            a = self.array
            for _ in range(20):
                a = (a * 3 + 1) % 1_000_003
        return wall_clock() - t0, time.process_time() - c0

    def speed(self, samples: List[Tuple[float, float]]) -> Tuple[float, float]:
        """(wall, cpu) rescaling factors from kernel samples."""
        return (
            self.REFERENCE_S / statistics.median(w for w, _ in samples),
            self.REFERENCE_S / statistics.median(c for _, c in samples),
        )


def run_window(
    wl: workloads.Workload,
    seconds: float,
    tally: Tally,
    calibration: Calibration,
    tracer: Optional[spans.Tracer] = None,
    collect: Optional[Callable[[Path], None]] = None,
) -> Dict[str, object]:
    """Run units back to back until *seconds* have passed (at least one).

    Only units whose outputs pass every check contribute timings.  The
    calibration kernel runs before the first unit and after each one.
    """
    walls: List[float] = []
    cpus: List[float] = []
    kernel = [calibration.run()]
    start = wall_clock()
    while True:
        out = wl.work / f"unit-{tally.attempted}"
        out.mkdir(parents=True)
        try:
            t0, c0 = wall_clock(), time.process_time()
            try:
                call = lambda: wl.unit(out)  # noqa: E731
                result = tracer.measure(call) if tracer else call()
            except Exception as exc:  # one failed operation; keep measuring
                traceback.print_exc()
                tally.record([f"unit raised {exc!r}"], None)
            else:
                wall, cpu = wall_clock() - t0, time.process_time() - c0
                found = wl.inspect(out, result)
                if tally.record(found.problems, found.digests):
                    walls.append(wall)
                    cpus.append(cpu)
                    if collect is not None:
                        collect(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        kernel.append(calibration.run())
        if wall_clock() - start >= seconds:
            return {"walls": walls, "cpus": cpus, "speed": calibration.speed(kernel)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True, help="scratch directory")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--golden", type=Path, default=None,
                    help="golden.json whose digests every unit must match")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, args.smoke, args.work)
    wl.setup()
    print("READY", flush=True)
    calibration = Calibration()
    speed = calibration.speed([calibration.run() for _ in range(3)])
    print(f"SPEED {speed[0]!r}", flush=True)
    if args.setup_only:
        return 0

    golden = {}
    if args.golden is not None:
        golden = json.loads(args.golden.read_text())["workloads"].get(wl.name, {})
    tally = Tally(golden.get("digests"))
    report: Dict[str, object] = {}
    if not args.trace:
        report.update(run_window(wl, args.seconds, tally, calibration))
    else:
        fig8 = isinstance(wl, workloads.Fig8Replica)
        if fig8:
            # computed before any timing; never part of a timed metric
            reference = golden.get("fast_reference") or wl.fast_reference()
            report["fast_reference"] = reference
            points: Dict[str, tuple] = {}
        tracer = spans.Tracer(wall_clock)
        with spans.install(tracer) as installed:
            traced = run_window(
                wl, args.seconds, tally, calibration, tracer,
                collect=(lambda out: points.update(wl.points(out))) if fig8 else None,
            )
        report["trace_problems"] = [
            f"target not found: {t.module}.{t.attr}" for t in installed.unbound
        ] + [f"expected span never entered: {s}" for s in tracer.missing(wl.expected)]
        layers = tracer.layer_metrics(spans.call_cost(wall_clock))
        layers["latency_err_vs_fast"] = (
            wl.latency_error(points, reference) if fig8 else 0.0
        )
        report.update(
            traced,
            layers=layers,
            traced_wall_s=tracer.wall_s / max(1, tracer.units),
        )
    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems[:20],
        digests=tally.digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
