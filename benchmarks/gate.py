"""Paired-ratio harness shared by the CI perf gates (``bench_*.py``).

Each gate times two ways of doing the same work in adjacent pairs,
CPU time (``time.process_time``) on both sides, so both runs of a pair
see roughly the same machine interference.  It reports the median of
the per-pair ratios, a dimensionless number that is portable across
hosts of different absolute speed.  Every pair also passes both
results to the gate's correctness assertion, so no ratio is ever
reported for diverging work.

A committed ``BENCH_<name>.json`` holds a full section and a
``_quick`` section.  A section is either a mapping of named cells or,
for a single-cell gate, the cell itself.  ``--check`` exits 1 when a
cell's median falls more than ``REGRESSION_TOLERANCE`` below its
baseline, and 2 when the file or section is missing or the measured
cell set differs from the section's in either direction.

Usage, for any gate script::

    python benchmarks/bench_<name>.py            # measure, print
    python benchmarks/bench_<name>.py --check    # CI gate
    python benchmarks/bench_<name>.py --write    # merge into the baseline
    python benchmarks/bench_<name>.py --quick    # shorter runs, quick section
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REGRESSION_TOLERANCE = 0.20  # a gate fails if a ratio drops >20% below baseline


def cpu_time(fn, *args):
    """Run ``fn(*args)``; return ``(CPU seconds, its result)``."""
    t0 = time.process_time()
    out = fn(*args)
    return time.process_time() - t0, out


def paired(n: int, base, new, agree, metric: str = "speedup"):
    """Time ``base()`` then ``new()`` in ``n`` adjacent pairs.

    Each side returns ``(cpu_seconds, result)``, normally through
    :func:`cpu_time`, so it decides what its clock covers.
    ``agree(a, b)`` gets both results of a pair and raises when they
    differ.  Returns the summary of the ``base / new`` ratios and each
    side's median CPU seconds.
    """
    t_base, t_new = [], []
    for i in range(n):
        tb, a = base()
        tn, b = new()
        agree(a, b)
        del a, b  # a pair's results must not weigh on the next pair's GC
        t_base.append(tb)
        t_new.append(tn)
        print(f"    pair {i + 1}: {tb:.3f}s / {tn:.3f}s -> {tb / tn:.2f}x", flush=True)
    ratios = [tb / tn for tb, tn in zip(t_base, t_new)]
    summary = {
        f"{metric}_median": round(statistics.median(ratios), 3),
        f"{metric}_min": round(min(ratios), 3),
        f"{metric}_max": round(max(ratios), 3),
    }
    return summary, round(statistics.median(t_base), 3), round(statistics.median(t_new), 3)


def _named(section: str, value: dict, metric: str) -> dict:
    """A section's cells by name; a single-cell section is its own cell."""
    return {section: value} if f"{metric}_median" in value else value


def check(path: Path, section: str, measured: dict, metric: str = "speedup") -> int:
    """Gate ``measured`` against ``section`` of the baseline at ``path``."""
    if not path.exists():
        print(f"no baseline at {path}; run with --write first")
        return 2
    baseline = json.loads(path.read_text())
    if section not in baseline:
        print(f"{path.name} has no {section!r} section; run --write for it")
        return 2
    base = _named(section, baseline[section], metric)
    got = _named(section, measured, metric)
    missing, extra = sorted(base.keys() - got.keys()), sorted(got.keys() - base.keys())
    if missing or extra:
        print(f"  cell sets differ from {section!r}: not measured {missing}, "
              f"not in baseline {extra}")
        return 2
    failed = False
    for name, cell in base.items():
        ref = cell[f"{metric}_median"]
        value = got[name][f"{metric}_median"]
        floor = ref * (1 - REGRESSION_TOLERANCE)
        failed |= value < floor
        print(f"  {name}: measured {value}x vs baseline {ref}x "
              f"(floor {floor:.2f}x) -> {'ok' if value >= floor else 'REGRESSION'}")
    return 1 if failed else 0


def write(path: Path, section: str, measured: dict, extras: dict) -> None:
    """Merge ``measured`` as ``section`` plus the top-level ``extras``."""
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged[section] = measured
    merged.update(extras)
    path.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"baseline ({section}) written to {path}")


def main(path: Path, run, section: str, metric: str = "speedup", contract=None,
         argv=None) -> int:
    """The gate CLI: ``run(quick)`` returns ``(measured, extras)``.

    ``contract(extras, quick)``, when given, is an extra gate that
    ``--check`` also applies; it prints its verdict and returns whether
    it holds.
    """
    ap = argparse.ArgumentParser(description=f"paired-ratio perf gate ({path.name})")
    ap.add_argument("--quick", action="store_true",
                    help="shorter runs (CI smoke), gated by the quick section")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on a >20%% regression, 2 on a missing baseline or cell")
    ap.add_argument("--write", action="store_true",
                    help="merge the results into the committed baseline")
    args = ap.parse_args(argv)
    if args.quick:
        section += "_quick"
    measured, extras = run(args.quick)
    if args.write:
        write(path, section, measured, extras)
        return 0
    if not args.check:
        return 0
    status = check(path, section, measured, metric)
    if contract is not None and not contract(extras, args.quick):
        status = max(status, 1)
    return status
